"""telemetry-discipline: one instrumentation path, no traced twins.

The telemetry contract: every codec entry point records unconditionally
through its telemetry object.  When telemetry is off that object is
:data:`~repro.telemetry.NULL_TELEMETRY`, whose spans and counters are
no-ops, so traced and untraced runs execute the *same* code and cannot
drift apart (the spans of one per-chunk decode cost a few microseconds
against the hundreds the decode takes).

The defect this rule catches is a re-grown *twin*: an instrumented copy
of a code path next to the uninstrumented original.  Three shapes are
flagged:

* a function named ``*_traced`` -- the instrumented copy of a loop
  whose caller dispatches ``if tel.enabled: return self._x_traced(...)``;
* an ``if <...>.enabled:`` statement whose two arms call the same
  function (``kernel.encode_chunk`` in both the traced and the plain
  arm), or the same in a ``... if <...>.enabled else ...`` expression;
* an early exit (``if not tel.enabled: return fn(item)``) whose body
  calls a function that the statements after it call again.

An ``.enabled`` check that guards work existing only for telemetry (no
second arm, or arms that share no call) is not a twin and stays
allowed.  Calls on the telemetry object itself and builtins (``len``,
``int`` ...) never count as shared calls.
"""

from __future__ import annotations

import ast
import builtins
from typing import Iterator

from ..engine import Finding, Rule, Source, register_rule

__all__ = ["TelemetryDisciplineRule"]

_TELEMETRY_NAMES = frozenset({"tel", "telemetry"})
_BUILTINS = frozenset(dir(builtins))


def _on_telemetry(call: ast.Call) -> bool:
    """A method call on a telemetry object (``tel.span``, ``self.telemetry.add``)."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        return False
    base = func.value
    if isinstance(base, ast.Name):
        return base.id in _TELEMETRY_NAMES
    if isinstance(base, ast.Attribute):
        return base.attr in _TELEMETRY_NAMES
    return False


def _callees(nodes: list) -> set[str]:
    """Names of the codec calls made anywhere under ``nodes``."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call) or _on_telemetry(sub):
                continue
            if isinstance(sub.func, ast.Name) and sub.func.id in _BUILTINS:
                continue
            out.add(ast.unparse(sub.func))
    return out


def _mentions_enabled(expr: ast.AST) -> bool:
    return any(
        isinstance(n, ast.Attribute) and n.attr == "enabled"
        for n in ast.walk(expr)
    )


def _terminates(stmts: list[ast.stmt]) -> bool:
    return bool(stmts) and isinstance(
        stmts[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break)
    )


def _statement_lists(tree: ast.AST) -> Iterator[list[ast.stmt]]:
    for node in ast.walk(tree):
        for field in ("body", "orelse", "finalbody"):
            stmts = getattr(node, field, None)
            if isinstance(stmts, list) and stmts and isinstance(stmts[0], ast.stmt):
                yield stmts


@register_rule
class TelemetryDisciplineRule(Rule):
    """Instrumentation has one code path: no traced twins."""
    name = "telemetry-discipline"
    description = (
        "no traced twins: record through the telemetry object (null spans "
        "when off) instead of a `*_traced` copy or an `.enabled` if/else "
        "whose arms run the same call"
    )

    def check(self, src: Source) -> Iterator[Finding]:
        for node in ast.walk(src.tree):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name.endswith("_traced")
            ):
                yield self.finding(
                    src, node,
                    f"`{node.name}` is a traced twin; instrument the one "
                    "code path through its telemetry object instead",
                )
            elif isinstance(node, ast.IfExp) and _mentions_enabled(node.test):
                yield from self._twin(src, node, [node.body], [node.orelse])
        for stmts in _statement_lists(src.tree):
            for i, stmt in enumerate(stmts):
                if not (isinstance(stmt, ast.If) and _mentions_enabled(stmt.test)):
                    continue
                if stmt.orelse:
                    other = stmt.orelse
                elif _terminates(stmt.body):
                    other = stmts[i + 1:]
                else:
                    continue
                yield from self._twin(src, stmt, stmt.body, other)

    def _twin(self, src: Source, node: ast.AST, arm: list, other: list) -> Iterator[Finding]:
        shared = sorted(_callees(arm) & _callees(other))
        if shared:
            yield self.finding(
                src, node,
                f"both sides of this `.enabled` check call {shared[0]}(): a "
                "traced twin; record through the telemetry object on one path",
            )

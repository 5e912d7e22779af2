#!/usr/bin/env python3
"""Same-runner A/B gate: perfbench on a base commit and on this checkout.

    python3 scripts/perfbench_ab.py BASE [WORKLOAD ...]

``BASE`` is a git ref; the workloads default to every one in
``BENCHMARK.json``.  The head side runs in this checkout, uncommitted
edits included.  The base side is ``git archive BASE src`` unpacked into a
temporary directory beside a copy of this checkout's ``perfbench/`` and
``BENCHMARK.json``, so both sides run identical benchmark code.

Each workload runs ``PAIRS`` pairs at seed ``SEED`` with ``--trace 0``;
pair *i* runs the base first when *i* is even and the head first when it
is odd.  The run length and every end-to-end metric's ``better`` direction
and ``bound`` come from ``BENCHMARK.json``; nothing is configurable.  A
metric fails when the head's median is worse than the base's by more than
its bound.  When the base's own IQR/median exceeds the bound the metric is
``unresolved`` and fails only if every head run is worse than every base
run.  A workload also fails when its head failed/attempted share exceeds
the base's.

Prints one table per workload and writes every run's result to
``perfbench-ab.json``.  Exit codes: 0 every metric passes, 1 a metric or
failure share fails, 2 misconfigured (a run exited non-zero, a metric is
missing, a workload is unknown).  A misconfigured gate never passes.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench-ab.json"
PAIRS = 10
SEED = 1


class Misconfigured(Exception):
    """The gate cannot judge: a run failed, a metric is missing, a workload
    is unknown."""


@dataclass(frozen=True)
class Row:
    """One workload x metric comparison over all pairs."""

    metric: str
    base_median: float
    base_q25: float
    base_q75: float
    head_median: float
    delta: float  # (head - base) / base, of the medians
    won: int  # pairs where the head reads better; ties count for neither
    lost: int
    verdict: str  # "pass", "fail" or "unresolved"


def _values(runs: list[dict], metric: str) -> list[float]:
    try:
        values = [float(run["metrics"][metric]["value"]) for run in runs]
    except (KeyError, TypeError, ValueError) as exc:
        raise Misconfigured(f"metric {metric!r} missing from a run") from exc
    if not all(v > 0 and v != float("inf") for v in values):
        raise Misconfigured(f"metric {metric!r} has a non-positive or non-finite value: {values}")
    return values


def _share(runs: list[dict]) -> float:
    """failed / attempted, pooled over ``runs``."""
    try:
        return sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))
    except (KeyError, TypeError) as exc:
        raise Misconfigured("a run lacks its failed/attempted counts") from exc


def _change(base: float, head: float) -> float:
    return (head - base) / base if base else 0.0 if head == base else float("inf")


def _row(metric: str, base: list[float], head: list[float], higher: bool,
         bound: float) -> Row:
    q25, b_med, q75 = statistics.quantiles(base, n=4, method="inclusive")
    h_med = statistics.median(head)
    sign = 1.0 if higher else -1.0
    won = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    lost = sum(sign * (h - b) < 0 for b, h in zip(base, head))
    delta = _change(b_med, h_med)
    if (q75 - q25) / b_med > bound:
        every_worse = (max(head) < min(base)) if higher else (min(head) > max(base))
        verdict = "fail" if every_worse else "unresolved"
    else:
        verdict = "fail" if -sign * delta > bound else "pass"
    return Row(metric, b_med, q25, q75, h_med, delta, won, lost, verdict)


def judge(base: list[dict], head: list[dict], end_to_end: list[dict]) -> list[Row]:
    """Compare paired perfbench results, one row per ``end_to_end`` metric
    plus a last ``failed/attempted`` row.

    ``base[i]`` and ``head[i]`` are pair *i*'s parsed result lines; each
    metric spec is a ``BENCHMARK.json`` ``end_to_end`` entry.  The failure
    row compares the pooled shares over all runs (its base quartiles equal
    its median) and fails when the head's share is higher.  Raises
    :class:`Misconfigured` when the sides differ in length, are empty, or
    a run lacks a metric or its counts.
    """
    if not base or len(base) != len(head):
        raise Misconfigured(f"unpaired runs: {len(base)} base, {len(head)} head")
    rows = [_row(m["name"], _values(base, m["name"]), _values(head, m["name"]),
                 m["better"] == "higher", float(m["bound"]))
            for m in end_to_end]
    pairs = [(_share([b]), _share([h])) for b, h in zip(base, head)]
    won = sum(ph < pb for pb, ph in pairs)
    lost = sum(ph > pb for pb, ph in pairs)
    b, h = _share(base), _share(head)
    rows.append(Row("failed/attempted", b, b, b, h, _change(b, h), won, lost,
                    "fail" if h > b else "pass"))
    return rows


def render(workload: str, rows: list[Row]) -> str:
    """The workload's table: one line per row, verdict last."""
    lines = [f"{workload}: {PAIRS} pairs, seed {SEED}",
             f"  {'metric':<17} {'base median [q25-q75]':>32} {'head median':>12} "
             f"{'delta':>8} {'won/lost':>9}  verdict"]
    for r in rows:
        base = f"{r.base_median:.4g} [{r.base_q25:.4g}-{r.base_q75:.4g}]"
        lines.append(f"  {r.metric:<17} {base:>32} {r.head_median:>12.4g} "
                     f"{100 * r.delta:>+7.1f}% {f'{r.won}/{r.lost}':>9}  {r.verdict}")
    return "\n".join(lines)


def _run(root: Path, command: list[str], workload: str, seconds: float) -> dict:
    """One perfbench run in ``root``; its result is the last stdout line."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(SEED), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines and lines[-1].startswith("{"):
        return json.loads(lines[-1])
    raise Misconfigured(f"{workload} in {root} exited {proc.returncode} without a result:\n"
                        f"{proc.stderr[-2000:]}")


def _base_tree(base: str, into: Path) -> None:
    """``git archive BASE src`` plus this checkout's benchmark files."""
    archive = subprocess.run(["git", "archive", base, "src"], cwd=ROOT, capture_output=True,
                             check=False)
    if archive.returncode != 0:
        raise Misconfigured(f"git archive {base} src: {archive.stderr.decode().strip()}")
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)
    shutil.copytree(ROOT / "perfbench", into / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", into)


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    if not argv or argv[0].startswith("-"):
        print("usage: python3 scripts/perfbench_ab.py BASE [WORKLOAD ...]", file=sys.stderr)
        return 2
    base, workloads = argv[0], argv[1:] or known
    failed = False
    record: dict = {"base": base, "pairs": PAIRS, "seed": SEED, "workloads": {}}
    try:
        unknown = sorted(set(workloads) - set(known))
        if unknown:
            raise Misconfigured(f"unknown workload(s) {unknown}; known: {known}")
        with tempfile.TemporaryDirectory(prefix="perfbench-ab-") as tmp:
            base_root = Path(tmp)
            _base_tree(base, base_root)
            for workload in workloads:
                runs: dict[str, list[dict]] = {"base": [], "head": []}
                record["workloads"][workload] = runs
                for i in range(PAIRS):
                    for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
                        root = base_root if side == "base" else ROOT
                        runs[side].append(_run(root, spec["command"], workload,
                                               spec["run_seconds"]))
                        OUT.write_text(json.dumps(record, indent=1))
                rows = judge(runs["base"], runs["head"], spec["end_to_end"])
                record["workloads"][workload] = {**runs, "rows": [asdict(r) for r in rows]}
                OUT.write_text(json.dumps(record, indent=1))
                print(render(workload, rows), flush=True)
                failed |= any(r.verdict == "fail" for r in rows)
    except Misconfigured as exc:
        print(f"perfbench_ab: misconfigured: {exc}", file=sys.stderr)
        return 2
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

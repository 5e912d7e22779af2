"""Static analysis for the codec's coding disciplines, plus a runtime
concurrency sanitizer.

PFPL's headline guarantees -- bit-identical CPU/GPU output and a hard
error bound -- rest on implementation disciplines the rest of the repo
relies on but cannot express in types:

* all transcendental math in ``core/`` goes through
  :mod:`repro.core.portable_math` (**portable-math**),
* kernel-path NumPy code is dtype-explicit so no silent promotion can
  change output bytes across platforms (**dtype-discipline**),
* nothing nondeterministic feeds the output bytes (**determinism**),
* every failure surfaces as a :mod:`repro.errors` type
  (**error-discipline**),
* instrumentation has one code path: no ``*_traced`` copy or
  ``.enabled`` if/else twin of a codec call (**telemetry-discipline**).

The companion paper *"Lessons Learned on the Path to Guaranteeing the
Error Bound in Lossy Quantizers"* (Fallin & Burtscher) documents how
exactly these implementation slips break "guaranteed" bounds in
practice, so this package checks them mechanically: an AST-walking rule
engine (:mod:`repro.analysis.engine`), the codec rules
(:mod:`repro.analysis.rules`), table/JSON/SARIF reporters, and the
``pfpl analyze`` CLI gate CI runs on every push.

Since v2 the engine is *project-aware*: :mod:`repro.analysis.callgraph`
resolves imports and builds a call graph over the analyzed set,
:mod:`repro.analysis.dataflow` adds intraprocedural reaching
definitions and a value-escape lattice, and four dataflow rules
(**buffer-escape**, **async-blocking**, **lock-order**,
**resource-lifecycle**) check the cross-function properties that the
PR 7 races exploited.  :mod:`repro.analysis.cache` keys findings on
content hashes so warm pre-commit runs skip unchanged files.

Violations are suppressed inline, one line at a time, with::

    risky_call()  # pfpl: allow[rule-name] -- why this one is fine

The runtime half, :mod:`repro.analysis.sanitizer`, instruments locks and
shared mutable state so the threaded backend's concurrency invariants
(lock ordering, guarded mutation of the order/carry records) are checked
under tests instead of assumed.
"""

from __future__ import annotations

from .cache import AnalysisCache, DEFAULT_CACHE_PATH
from .callgraph import Project, build_project
from .engine import (
    ENGINE_VERSION,
    Finding,
    Rule,
    Severity,
    all_rules,
    analyze_file,
    analyze_paths,
    analyze_source,
    get_rule,
    register_rule,
)
from .reporters import render_json, render_sarif, render_table
from .sanitizer import (
    ConcurrencySanitizer,
    SanitizerError,
    SanitizerViolation,
    TrackedLock,
)

# Importing the rules module registers every built-in rule.
from . import rules as _rules  # noqa: F401  (import for side effect)

__all__ = [
    "ENGINE_VERSION",
    "Finding",
    "Rule",
    "Severity",
    "all_rules",
    "get_rule",
    "register_rule",
    "analyze_file",
    "analyze_paths",
    "analyze_source",
    "render_table",
    "render_json",
    "render_sarif",
    "AnalysisCache",
    "DEFAULT_CACHE_PATH",
    "Project",
    "build_project",
    "ConcurrencySanitizer",
    "SanitizerError",
    "SanitizerViolation",
    "TrackedLock",
]

"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. The oracle flags a finite lane decoded to NaN, a changed NaN payload
   and a flipped infinity, and passes bit-exact non-finite lanes.
2. A tiny run of every workload, untraced and traced, is correct and
   emits exactly the metrics ``BENCHMARK.json`` names, with their units.
3. The same tiny runs with one reconstructed lane forced to NaN report
   ``failed > 0`` (so ``error_rate`` > 0) and ``correct: false``.
4. In a directory holding only ``BENCHMARK.json`` and the benchmark's own
   files, a run exits non-zero without printing a result.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np

from benchlib import ROOT, WORK, bound_violations, child_env

WORKLOADS = ("bulk-abs-f32", "archive-rel-f32", "serve-open")


def run(workload: str, trace: int, *extra: str, cwd=ROOT) -> tuple[int, dict | None, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--size", "tiny", "--trace", str(trace), *extra],
        cwd=cwd, env=child_env(), capture_output=True, text=True, timeout=300, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, result, proc.stderr


def oracle_checks() -> list[str]:
    problems = []
    o = np.array([1.0, np.nan, np.inf, -2.0], dtype=np.float32)
    if bound_violations(o, o.copy(), "abs", 1e-3):
        problems.append("oracle flags an exact reconstruction")
    cases = {
        "finite lane decoded to NaN": lambda r: r.__setitem__(0, np.nan),
        "NaN payload changed": lambda r: r.view(np.uint32).__setitem__(1, 0x7FC00001),
        "+inf decoded as -inf": lambda r: r.__setitem__(2, -np.inf),
        "finite lane off by 10 eps": lambda r: r.__setitem__(3, -2.01),
    }
    for mode in ("abs", "rel"):
        for name, corrupt in cases.items():
            r = o.copy()
            corrupt(r)
            if bound_violations(o, r, mode, 1e-3) != 1:
                problems.append(f"oracle ({mode}) misses: {name}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = oracle_checks()
    for workload in WORKLOADS:
        for trace in (0, 1):
            rc, res, err = run(workload, trace)
            tag = f"{workload} --trace {trace}"
            if rc != 0 or res is None:
                problems.append(f"{tag}: exit {rc}\n{err[-2000:]}")
                continue
            if not res["correct"] or res["failed"]:
                problems.append(f"{tag}: {res['failed']}/{res['attempted']} failed")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != expect[trace]:
                missing = sorted(set(expect[trace]) - set(got))
                extra = sorted(set(got) - set(expect[trace]))
                units = sorted(k for k in got if k in expect[trace] and got[k] != expect[trace][k])
                problems.append(f"{tag}: missing {missing}, extra {extra}, unit mismatch {units}")
        rc, res, err = run(workload, 0, "--inject-nan")
        if rc != 0 or res is None or res["failed"] < 1 or res["correct"]:
            problems.append(f"{workload}: NaN injection not counted "
                            f"(exit {rc}, result {res and {k: res[k] for k in ('correct', 'failed')}})")

    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, res, _ = run(WORKLOADS[0], 0, cwd=bare)
    shutil.rmtree(bare)
    if rc == 0 or res is not None:
        problems.append(f"bare directory: exit {rc}, result printed: {res is not None}")

    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

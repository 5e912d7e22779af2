"""Shared helpers for the PFPL benchmark: paths, statistics, the NaN-strict
bound oracle, the host block and the result line.

Nothing here imports ``repro``: the oracle is the benchmark's own, so a
defect in the library's verifier cannot hide a violation.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

#: Root of the checkout the benchmark runs in (the parent of this package).
ROOT = Path(__file__).resolve().parents[1]
#: Scratch directory for generated inputs, access logs and server output.
WORK = ROOT / ".perfbench"
SRC = ROOT / "src"


class Counts:
    """Attempted / failed operation tally; every failure keeps its reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, int] = {}

    def check(self, good: bool, reason: str) -> None:
        """Count one operation; a failure is tallied under ``reason``."""
        self.attempted += 1
        if not good:
            self.failed += 1
            self.reasons[reason] = self.reasons.get(reason, 0) + 1


def median(values) -> float:
    return float(statistics.median(values))


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1]) of a non-empty sample."""
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mib() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_env() -> dict:
    """Environment for child processes: the checkout's ``src`` first, and
    temporary files kept inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = str(WORK)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def run_child(args: list[str], timeout: float = 120.0) -> dict:
    """Run ``python3 <args>`` to completion; parse its last stdout line as JSON."""
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=child_env(), capture_output=True,
        text=True, timeout=timeout, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[0]} failed (rc={proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- the NaN-strict bound oracle ------------------------------------------------

ORACLE_BLOCK = 1 << 18


def bound_violations(original: np.ndarray, recon: np.ndarray, mode: str, bound: float) -> int:
    """Count lanes of ``recon`` that break the point-wise ``mode`` bound.

    Strict where ``repro.core.verify`` is lenient:

    * a finite input lane must decode to a finite value within the bound
      (NaN/Inf where the input was finite is a violation -- a NaN error
      compares false against any bound, so it is tested explicitly);
    * a non-finite input lane (NaN payloads, +-Inf) must round-trip
      bit-exactly.

    Shape or dtype mismatch counts every lane as violated.  Comparisons
    run in extended precision, as in ``repro.core.verify``: in float64,
    ``|v| / (1 + eps)`` rounds, and REL reconstructions that sit within an
    ulp of the edge (they exist at seed) would read as violations.
    """
    o = np.asarray(original).reshape(-1)
    r = np.asarray(recon).reshape(-1)
    if o.shape != r.shape or o.dtype != r.dtype:
        return max(o.size, r.size, 1)
    if o.size > ORACLE_BLOCK:
        # Blockwise, so the wide temporaries never dominate peak RSS.
        return sum(bound_violations(o[i:i + ORACLE_BLOCK], r[i:i + ORACLE_BLOCK], mode, bound)
                   for i in range(0, o.size, ORACLE_BLOCK))
    fin = np.isfinite(o)
    uint = np.dtype(f"u{o.dtype.itemsize}")
    bad = int(np.count_nonzero(o[~fin].view(uint) != r[~fin].view(uint)))
    of = o[fin].astype(np.longdouble)
    rf = r[fin].astype(np.longdouble)
    finite_r = np.isfinite(rf)
    bad += int(np.count_nonzero(~finite_r))
    of, rf = of[finite_r], rf[finite_r]
    if mode == "abs":
        bad += int(np.count_nonzero(np.abs(of - rf) > np.longdouble(bound)))
    elif mode == "rel":
        nz = of != 0
        on, rn = np.abs(of[nz]), np.abs(rf[nz])
        one_plus = np.longdouble(1.0) + np.longdouble(bound)
        bad += int(np.count_nonzero(
            (np.sign(of[nz]) != np.sign(rf[nz])) | (rn < on / one_plus) | (rn > on * one_plus)
        ))
        bad += int(np.count_nonzero(rf[~nz] != 0))
    else:
        raise ValueError(f"oracle has no rule for mode {mode!r}")
    return bad


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Bit-for-bit equality of two float arrays (NaN lanes included)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    uint = np.dtype(f"u{a.dtype.itemsize}")
    return bool(np.array_equal(a.view(uint), b.view(uint)))


# -- host block -------------------------------------------------------------------


def _cache_bytes(level: int) -> int:
    """Size of cpu0's unified/data cache at ``level`` from sysfs (0 if unknown)."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            if int((idx / "level").read_text()) != level:
                continue
            if (idx / "type").read_text().strip() == "Instruction":
                continue
            text = (idx / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        return int(text.rstrip("KMG")) * scale
    return 0


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def copy_gbps(nbytes: int = 32 << 20, repeats: int = 7) -> float:
    """Measured memcpy rate (bytes copied per second / 1e9), median of runs."""
    src = np.ones(nbytes, dtype=np.uint8)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    return nbytes / median(times) / 1e9


def host_block() -> dict:
    """CPU count, cache sizes and versions of the host this run measures."""
    cpus = usable_cpus()
    block = {
        "cpus": cpus,
        "l2_bytes": _cache_bytes(2),
        "l3_bytes": _cache_bytes(3),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }
    if cpus < 2:
        reason = f"n/a: {cpus} usable CPU; parallel cells would measure time-slicing"
        block["backend.par"] = reason
        block["serve-open"] = reason
    return block


# -- output -------------------------------------------------------------------------


def emit(counts: Counts, metrics: dict[str, tuple[float, str]], notes: list[str]) -> None:
    """Print the human-readable table, then the one-line JSON result."""
    for line in notes:
        print(line)
    width = max((len(k) for k in metrics), default=0)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g} {unit}")
    rate = counts.failed / max(1, counts.attempted)
    print(f"  error_rate = {counts.failed}/{counts.attempted} = {rate:.6g}"
          + (f"  {counts.reasons}" if counts.reasons else ""))
    result = {
        "correct": counts.failed == 0,
        "attempted": counts.attempted,
        "failed": counts.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)

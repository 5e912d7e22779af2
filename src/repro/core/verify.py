"""Error-bound verification utilities.

These are the *external* checks used by tests and by the benchmark
harness to confirm (a) that PFPL never violates its bound and (b) that
the baselines violate theirs exactly where Table III of the paper says
they do.  All comparisons run in extended precision so rounding in the
check itself can never mask a violation.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import PFPLUsageError

import numpy as np

__all__ = ["BoundReport", "check_abs", "check_rel", "check_noa", "check_bound"]


@dataclass(frozen=True)
class BoundReport:
    """Outcome of verifying one (original, reconstructed) pair."""

    mode: str
    bound: float
    max_error: float
    violations: int
    total: int

    @property
    def ok(self) -> bool:
        return self.violations == 0

    @property
    def violation_factor(self) -> float:
        """max_error / bound -- the paper calls >= 1.5 a *major* violation."""
        return self.max_error / self.bound if self.bound else np.inf

    @property
    def severity(self) -> str:
        if self.ok:
            return "none"
        return "major" if self.violation_factor >= 1.5 else "minor"


def _finite_pair(original: np.ndarray, recon: np.ndarray):
    o = np.asarray(original).reshape(-1)
    r = np.asarray(recon).reshape(-1)
    if o.shape != r.shape:
        raise PFPLUsageError(f"shape mismatch: {o.shape} vs {r.shape}")
    fin = np.isfinite(o)
    r = r[fin]
    # Widening a signalling NaN raises FE_INVALID; quiet NaN lanes first
    # (they still fail every bound comparison).
    r = np.where(np.isnan(r), np.nan, r)
    return o[fin].astype(np.longdouble), r.astype(np.longdouble)


def check_abs(original: np.ndarray, recon: np.ndarray, bound: float) -> BoundReport:
    """Verify the point-wise absolute bound ``|v - v'| <= eps``.

    A lane passes only if its error provably satisfies the bound, so a
    NaN reconstruction of a finite value (whose error compares false
    against everything) is a violation, reported as ``max_error=inf``.
    """
    o, r = _finite_pair(original, recon)
    err = np.abs(o - r)
    violations = int(err.size - np.count_nonzero(err <= np.longdouble(bound)))
    if not err.size:
        max_err = 0.0
    elif np.isnan(err).any():
        max_err = float("inf")
    else:
        max_err = float(err.max())
    return BoundReport("abs", float(bound), max_err, violations, int(o.size))


def check_rel(original: np.ndarray, recon: np.ndarray, bound: float) -> BoundReport:
    """Verify the point-wise relative bound.

    Follows the paper's definition: same sign and
    ``|v|/(1+eps) <= |v'| <= |v|*(1+eps)``; zeros must decode to zero.
    As in :func:`check_abs`, a lane passes only if it provably satisfies
    the bound, so a NaN reconstruction of a finite value is a violation,
    reported as ``max_error=inf``.
    """
    o, r = _finite_pair(original, recon)
    nz = o != 0
    on, rn = np.abs(o[nz]), np.abs(r[nz])
    one_plus = np.longdouble(1.0) + np.longdouble(bound)
    sign_bad = np.sign(o[nz]) != np.sign(r[nz])
    range_bad = ~((rn >= on / one_plus) & (rn <= on * one_plus))
    zero_bad = r[~nz] != 0

    # Report severity via the max relative error magnitude.
    with np.errstate(divide="ignore", invalid="ignore"):
        rel_err = np.abs(o[nz] - r[nz]) / on
    max_err = float(rel_err.max()) if rel_err.size else 0.0
    if np.any(zero_bad) or np.isnan(rn).any():
        max_err = float("inf")
    violations = int(np.count_nonzero(sign_bad | range_bad)) + int(zero_bad.sum(dtype=np.int64))
    return BoundReport("rel", float(bound), max_err, violations, int(o.size))


def check_noa(
    original: np.ndarray, recon: np.ndarray, bound: float, value_range: float | None = None
) -> BoundReport:
    """Verify the range-normalized absolute bound ``|v - v'| <= eps * R``."""
    o = np.asarray(original).reshape(-1)
    fin = o[np.isfinite(o)]
    if value_range is None:
        with np.errstate(over="ignore"):  # extreme ranges check as inf bound
            value_range = float(fin.max() - fin.min()) if fin.size else 0.0
    abs_bound = float(bound) * float(value_range)
    rep = check_abs(original, recon, max(abs_bound, np.finfo(np.float64).tiny))
    max_err_norm = rep.max_error / value_range if value_range else 0.0
    return BoundReport("noa", float(bound), max_err_norm, rep.violations, rep.total)


def check_bound(
    mode: str,
    original: np.ndarray,
    recon: np.ndarray,
    bound: float,
    value_range: float | None = None,
) -> BoundReport:
    """Dispatch on the error-bound mode name."""
    if mode == "abs":
        return check_abs(original, recon, bound)
    if mode == "rel":
        return check_rel(original, recon, bound)
    if mode == "noa":
        return check_noa(original, recon, bound, value_range)
    raise PFPLUsageError(f"unknown error-bound mode {mode!r}")

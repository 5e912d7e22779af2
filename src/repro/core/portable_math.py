"""Portable, IEEE-754-only implementations of ``log2`` and ``exp2``.

The REL quantizer needs ``log()`` and ``pow()``.  Library implementations
of these differ between CPUs and GPUs, which would break PFPL's bit-for-bit
cross-device compatibility, so the paper re-implements both using *only*
IEEE-compliant add/sub/mul/div plus integer bit manipulation (Section
III-C).  This module reproduces that design: the functions below use no
transcendental library calls, no FMA, and a fixed, device-independent
evaluation order, so any backend executing them produces identical bits.

The approximations are deliberately allowed to be slightly inexact: the
quantizer immediately re-checks every reconstructed value against the
error bound and falls back to lossless encoding when the approximation
error pushes a value out of bounds (Section III-B).

All computations run in float64 regardless of the data precision; the
results are deterministic because every operation is an IEEE-754 basic
operation with a defined rounding.

Both functions work tile by tile (:data:`TILE` values) in per-thread
scratch arenas, every step an ``out=`` ufunc: a Horner step therefore
re-reads a cache-resident tile instead of allocating and streaming a
whole-array temporary.  Tiling cannot change a bit -- every operation
is elementwise.
"""

from __future__ import annotations

import numpy as np

from ..errors import PFPLUsageError
from .scratch import scratch

__all__ = ["log2_portable", "exp2_portable", "LN2", "SQRT2", "TILE"]

# ln(2) and sqrt(2) to float64 precision; written as literals so no libm
# call is involved in producing them.
LN2 = 0.6931471805599453
_INV_LN2 = 1.4426950408889634  # 1/ln(2)
SQRT2 = 1.4142135623730951

#: Values per tile, here and in the REL quantizer built on these
#: functions.  One REL encode tile's float64 and long-double scratch is
#: about 1.3 MB, so it stays inside a 2 MiB per-core L2 cache; the
#: quantizer's eight-tile groups add about 1.1 MB of bins and
#: magnitudes, which it reads a tile at a time.
TILE = 8192

_SMALLEST_NORMAL = 2.2250738585072014e-308
_TWO64 = 18446744073709551616.0
_ABS_MASK64 = np.uint64(0x7FFFFFFFFFFFFFFF)
_MANT_MASK64 = np.uint64(0x000FFFFFFFFFFFFF)
_SQRT2_MANT = int(np.float64(SQRT2).view(np.uint64)) & 0x000FFFFFFFFFFFFF
# Adding _HIGH_CARRY to |bits| carries into the exponent field exactly
# when the mantissa is >= sqrt(2)'s; _M_BIAS turns the carried sum's
# mantissa field back into the reduced m (exponent 1023, or 1022 after
# a carry -- the exact m*0.5).
_HIGH_CARRY = np.uint64((1 << 52) - _SQRT2_MANT)
_M_BIAS = np.uint64((1022 << 52) + _SQRT2_MANT)

# atanh-series coefficients for ln(m), m in [sqrt(1/2), sqrt(2)):
#   s = (m-1)/(m+1);  ln(m) = 2s * (1 + s^2/3 + s^4/5 + ... )
# With |s| <= 0.1716 the truncation error of the degree-8 polynomial in
# s^2 is below 1e-16 relative -- well inside what the bound re-check
# tolerates.
_LOG_COEFFS = tuple(2.0 / (2 * k + 1) for k in range(9))

# Taylor coefficients 1/k! for exp(t), |t| <= ln(2)/2 ~ 0.3466.  Degree 13
# keeps the truncation error below 1e-18.
_EXP_COEFFS = []
_fact = 1.0
for _k in range(14):
    _EXP_COEFFS.append(1.0 / _fact)
    _fact *= float(_k + 1)
_EXP_COEFFS = tuple(_EXP_COEFFS)


def log2_portable(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Base-2 logarithm of positive finite values, IEEE-basic-ops only.

    Parameters
    ----------
    x:
        Array of positive float64 values (callers pass ``|v|`` of nonzero
        finite data).  Denormal inputs are handled by pre-scaling.
    out:
        Optional C-contiguous float64 array of ``x``'s shape to write
        into; it may be ``x`` itself.

    Returns
    -------
    float64 array of ``log2(x)`` accurate to ~1 ulp over the normal range.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    out = _output_for(x, out)
    _tiled(_log2_tile, x, out)
    return out


def exp2_portable(y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Base-2 exponential, IEEE-basic-ops only.

    Splits ``y = n + f`` with ``n = rint(y)`` and ``|f| <= 0.5``, evaluates
    ``2^f = exp(f*ln2)`` by a fixed-degree Taylor polynomial, and applies
    ``2^n`` through exponent-field bit manipulation (two factors when the
    result lands in the denormal range).  Overflow produces ``inf`` and
    deep underflow produces ``0.0``; the REL quantizer treats both as
    unquantizable and stores the affected values losslessly.  ``out``
    works as in :func:`log2_portable` and may be ``y`` itself.
    """
    y = np.ascontiguousarray(y, dtype=np.float64)
    out = _output_for(y, out)
    _tiled(_exp2_tile, y, out)
    return out


def _output_for(x: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    if out is None:
        return np.empty_like(x)
    if (out.dtype != np.float64 or out.shape != x.shape
            or not out.flags.c_contiguous):
        raise PFPLUsageError(
            f"out must be a C-contiguous float64 array of shape {x.shape}, "
            f"got {out.dtype} {out.shape}"
        )
    # Tiles are written in order, so only an exact alias is safe.
    if (np.may_share_memory(x, out)
            and out.__array_interface__["data"][0]
            != x.__array_interface__["data"][0]):
        raise PFPLUsageError("out may alias the input only exactly")
    return out


def _tiled(tile_fn, x: np.ndarray, out: np.ndarray) -> None:
    xf, of = x.reshape(-1), out.reshape(-1)
    for start in range(0, xf.size, TILE):
        tile_fn(xf[start:start + TILE], of[start:start + TILE])


def _log2_tile(x: np.ndarray, out: np.ndarray) -> None:
    n = x.size
    tiny = None
    if not x.min() >= _SMALLEST_NORMAL:  # a NaN lane also lands here
        # Denormals (and anything else below the smallest normal) are
        # normalized by 2^64, and 64 comes off the result.
        tiny = scratch("pmath.log.tiny", n, np.bool_)
        xw = scratch("pmath.log.xw", n, np.float64)
        np.less(x, _SMALLEST_NORMAL, out=tiny)
        np.copyto(xw, x)
        with np.errstate(over="ignore"):
            # negative inputs count as tiny too; a huge one overflows
            np.multiply(x, _TWO64, out=xw, where=tiny)
        x = xw

    # Split |bits| into the exponent e and a mantissa m reduced from
    # [1, 2) to [sqrt(1/2), sqrt(2)): a carry out of the mantissa field
    # both adds 1 to e and halves m, exactly (integer ops only).
    z = scratch("pmath.log.z", n, np.uint64)
    e = scratch("pmath.log.e", n, np.int64)
    s = scratch("pmath.log.s", n, np.float64)
    np.bitwise_and(x.view(np.uint64), _ABS_MASK64, out=z)
    np.add(z, _HIGH_CARRY, out=z)
    np.right_shift(z, np.uint64(52), out=e.view(np.uint64))
    np.subtract(e, 1023, out=e)
    np.bitwise_and(z, _MANT_MASK64, out=z)
    np.add(z, _M_BIAS, out=z)
    m = z.view(np.float64)

    # x is dead from here on, so out may alias it.
    np.subtract(m, 1.0, out=s)
    np.add(m, 1.0, out=m)
    np.divide(s, m, out=s)
    s2 = m
    np.multiply(s, s, out=s2)
    np.multiply(s2, _LOG_COEFFS[-1], out=out)
    np.add(out, _LOG_COEFFS[-2], out=out)
    for c in _LOG_COEFFS[-3::-1]:
        np.multiply(out, s2, out=out)
        np.add(out, c, out=out)
    np.multiply(s, out, out=out)  # ln(m)
    np.multiply(out, _INV_LN2, out=out)
    np.add(out, e, out=out)
    if tiny is not None:
        np.add(out, -64.0, out=out, where=tiny)


def _exp2_tile(y: np.ndarray, out: np.ndarray) -> None:
    n = y.size
    nf = scratch("pmath.exp.n", n, np.float64)
    t = scratch("pmath.exp.t", n, np.float64)
    n_lo = scratch("pmath.exp.lo", n, np.int64)
    n_hi = scratch("pmath.exp.hi", n, np.int64)
    np.rint(y, out=nf)
    np.subtract(y, nf, out=t)
    np.multiply(t, LN2, out=t)

    # y is dead from here on, so out may alias it.
    np.multiply(t, _EXP_COEFFS[-1], out=out)
    np.add(out, _EXP_COEFFS[-2], out=out)
    for c in _EXP_COEFFS[-3::-1]:
        np.multiply(out, t, out=out)
        np.add(out, c, out=out)

    # Clamp n so that intermediate scale factors are constructible; values
    # beyond the clamp saturate to inf/0 through the final multiplies.
    # The cast is astype(int64)'s: NaN, inf and |n| >= 2^63 become
    # int64's minimum on x86, which the clamp then catches.
    with np.errstate(invalid="ignore"):
        np.copyto(n_lo, nf, casting="unsafe")
    np.maximum(n_lo, -2098, out=n_lo)
    np.minimum(n_lo, 2098, out=n_lo)

    # Split n into two halves so each factor's exponent stays in the
    # normal range even when the final result is denormal or huge.
    np.right_shift(n_lo, 1, out=n_hi)
    np.subtract(n_lo, n_hi, out=n_lo)
    scale = nf
    with np.errstate(over="ignore"):
        # overflow to inf is the defined saturation for huge exponents
        np.multiply(out, _pow2_int(n_hi, scale), out=out)
        np.multiply(out, _pow2_int(n_lo, scale), out=out)


def _pow2_int(n: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Exact powers of two for integer exponents in [-1074, 1024).

    Below that range the result is 0.0, above it ``inf``.  Written into
    ``out`` (float64, ``n``'s shape, not overlapping ``n``) when given.
    """
    n = np.asarray(n, dtype=np.int64)
    if out is None:
        out = np.empty(n.shape, dtype=np.float64)
    bits = out.view(np.int64)
    np.add(n, 1023, out=bits)
    np.left_shift(bits, 52, out=bits)
    # Out-of-range lanes hold garbage so far; patch them only when the
    # array has any.
    if n.size and n.min() < -1022:
        # Denormal powers: 2^n = 2^-1022 * 2^(n+1022) via mantissa
        # shift; a shift past the word (n < -1074) yields 0.0.
        mask = scratch("pmath.pow2.mask", n.shape, np.bool_)
        np.less(n, -1022, out=mask)
        np.add(n, 1074, out=bits, where=mask)
        np.left_shift(np.uint64(1), bits.view(np.uint64),
                      out=bits.view(np.uint64), where=mask)
    if n.size and n.max() > 1023:
        mask = scratch("pmath.pow2.mask", n.shape, np.bool_)
        np.greater(n, 1023, out=mask)
        np.copyto(out, np.inf, where=mask)
    return out

"""Point-wise absolute-error (ABS) quantizer with a guaranteed bound.

Encoding (Section III-A/III-B of the paper):

1. ``bin = rint(v * 0.5/eps)`` computed in the data's own precision --
   all values within ``+-eps`` of a bin center map to that bin and are
   reconstructed to the center ``bin * 2*eps``.
2. The encoder *immediately decodes* each bin and keeps it only when the
   reconstruction provably satisfies ``|v - v'| <= eps``; otherwise the
   value's raw IEEE-754 bits are emitted unchanged.
3. Accepted bins are stored inline, in magnitude-sign format, inside the
   *denormal* region of the encoding space (exponent field == 0).  This
   region is free because ABS requires ``eps >= smallest normal``, so
   every denormal input quantizes to bin 0.  Any word with a nonzero
   exponent field is, by construction, a losslessly stored value, which
   is how the decoder tells the two kinds of word apart without any
   side-channel outlier list.

Special values: infinities and NaNs always take the lossless path (their
exponent field is all ones, never zero).  The bound check uses extended
precision (float64 for float32 data, 80-bit long double for float64
data) so a rounded difference can never hide a true violation.
"""

from __future__ import annotations

import numpy as np

from ...errors import PFPLUsageError
from ..scratch import scratch
from .base import Quantizer

__all__ = ["AbsQuantizer"]

# Extended precision used for the verify step, per input dtype.
_VERIFY_DTYPE = {
    np.dtype(np.float32): np.float64,
    np.dtype(np.float64): np.longdouble,
}

# Signed integer wide enough for every bin magnitude, per input dtype.
_BIN_DTYPE = {
    np.dtype(np.float32): np.int32,
    np.dtype(np.float64): np.int64,
}


class AbsQuantizer(Quantizer):
    """ABS quantizer: ``|v - v'| <= eps`` for every value, guaranteed."""

    mode = "abs"

    def __init__(self, error_bound: float, dtype=np.float32):
        super().__init__(error_bound, dtype)
        lay = self.layout
        if error_bound < lay.smallest_normal:
            raise PFPLUsageError(
                f"ABS/NOA error bound must be >= the smallest normal "
                f"{lay.float_dtype} value ({lay.smallest_normal:g}); "
                f"got {error_bound:g}"
            )
        fdt = lay.float_dtype.type
        # Cast the user's bound into the data precision *rounding down*:
        # a straight cast can round up (e.g. float32(0.1) > 0.1), which
        # would make the encoder verify against a looser bound than the
        # user asked for -- precisely the finite-precision trap the paper
        # is about.
        eps = fdt(error_bound)
        if float(eps) > error_bound:
            eps = np.nextafter(eps, fdt(0.0))
        if not (eps > 0):
            raise PFPLUsageError(
                f"error bound {error_bound:g} underflows {lay.name}"
            )
        self._eps = eps
        self._scale = fdt(0.5) / self._eps
        self._two_eps = self._eps + self._eps
        if not np.isfinite(self._scale) or not np.isfinite(self._two_eps):
            raise PFPLUsageError(f"error bound {error_bound:g} not usable in {lay.name}")

    # -- encode ------------------------------------------------------------

    def _encode_words_into(self, v: np.ndarray, out: np.ndarray) -> int:
        lay = self.layout
        fdt = lay.float_dtype.type
        bits = lay.to_bits(v)
        n = v.size

        # Everything below runs in reused scratch with explicit `out=`
        # buffers: the encoder is the hottest pass of the whole codec and
        # fresh multi-MB temporaries (page faults included) used to cost
        # more than the arithmetic.  The arithmetic itself is unchanged
        # -- every branch below is bit-for-bit the reference encoding.
        b_f = scratch("absq.bins", n, lay.float_dtype)
        mag = scratch("absq.mag", n, lay.float_dtype)
        fits = scratch("absq.fits", n, np.bool_)
        tmpb = scratch("absq.tmpb", n, np.bool_)
        word = scratch("absq.word", n, lay.uint_dtype)

        with np.errstate(over="ignore", invalid="ignore"):
            # Quantize in the data precision (device arithmetic).
            # Overflow to inf is deliberate: such values simply fail the
            # fits/verify check.
            np.multiply(v, self._scale, out=b_f)
            np.rint(b_f, out=b_f)

            # Bins must fit the denormal range's magnitude-sign code.
            # The comparison also rejects NaN (False) and +-inf (too
            # large).
            np.abs(b_f, out=mag)
            np.less_equal(mag, fdt(lay.max_bin_magnitude), out=fits)

            # Magnitude-sign code straight from the float bin: |b_f| is
            # integral and fits the mantissa wherever `fits` holds, so
            # the uint cast is exact there (elsewhere the word is never
            # selected).  rint's -0.0 compares false to 0, matching the
            # integer bin path's sign handling.
            np.copyto(word, mag, casting="unsafe")
            np.less(b_f, fdt(0), out=tmpb)
            np.bitwise_or(
                word, lay.uint(lay.sign_mask), out=word, where=tmpb
            )

            # Decoder's reconstruction: rejected bins read as bin 0,
            # exactly like the reference `where(fits, b_f, 0)` path.
            np.logical_not(fits, out=tmpb)
            np.copyto(b_f, fdt(0), where=tmpb)
            np.multiply(b_f, self._two_eps, out=b_f)

            # Verify in extended precision: the *true* difference between
            # the original and the value the decoder will produce.
            vdt = _VERIFY_DTYPE[lay.float_dtype]
            diff = scratch("absq.diff", n, vdt)
            np.subtract(v, b_f, out=diff, dtype=np.dtype(vdt))
            np.abs(diff, out=diff)
            np.less_equal(diff, vdt(self._eps), out=tmpb)
            np.logical_and(fits, tmpb, out=fits)  # fits is now `ok`

        # Final per-value selection straight into the caller's buffer:
        # lossless IEEE bits everywhere, overwritten by the bin word
        # where the bound held (same result as `where(ok, word, bits)`).
        np.copyto(out, bits)
        np.copyto(out, word, where=fits)
        return int(n - np.count_nonzero(fits))

    # -- decode ------------------------------------------------------------

    def _decode_words_into(self, w: np.ndarray, out: np.ndarray) -> None:
        lay = self.layout
        n = w.size
        # Same discipline as the encoder: reused scratch and `out=`
        # everywhere, no whole-block temporary.  Bins are at most
        # `max_bin_magnitude` (23 bits for float32), so float32 data
        # needs only int32 bins; the int -> float cast is exact either way.
        mag = scratch("absq.dmag", n, lay.uint_dtype)
        sel = scratch("absq.dsel", n, np.bool_)
        bins = mag.view(_BIN_DTYPE[lay.float_dtype])

        # Magnitude-sign bin code -> signed bin.  Integer negation keeps
        # a signed zero bin (sign bit, magnitude 0) decoding to +0.0.
        np.bitwise_and(w, lay.uint(lay.mantissa_mask), out=mag)
        np.greater_equal(w, lay.uint(lay.sign_mask), out=sel)
        np.negative(bins, out=bins, where=sel)
        # bin * 2eps in the data precision.  Lossless lanes carry
        # arbitrary mantissa bits; their (overwritten) products may
        # overflow harmlessly, as may a huge bin under a huge bound.
        with np.errstate(over="ignore"):
            np.multiply(bins, self._two_eps, out=out, dtype=lay.float_dtype)
        # Any word with a nonzero exponent field is a lossless value:
        # its IEEE bits replace the reconstruction.
        np.bitwise_and(w, lay.uint(lay.exponent_mask), out=mag)
        np.not_equal(mag, lay.uint(0), out=sel)
        np.copyto(out.view(lay.uint_dtype), w, where=sel)

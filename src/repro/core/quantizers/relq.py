"""Point-wise relative-error (REL) quantizer with a guaranteed bound.

REL quantization happens in logarithmic space (Section III-A):

    bin = rint( log2(|v|) / (2 * log2(1 + eps)) )
    |v'| = 2 ^ (bin * 2 * log2(1 + eps)),   sign(v') = sign(v)

so every reconstructed value satisfies
``|v|/(1+eps) <= |v'| <= |v|*(1+eps)`` with matching sign.  The log/exp
evaluations use the *portable* approximations from
:mod:`repro.core.portable_math` (IEEE basic operations only) so CPU and
GPU backends agree bit-for-bit; approximation slack is absorbed by the
same verify-or-store-losslessly mechanism as ABS.

Bin storage (Section III-B): the denormal trick used by ABS does not
work for REL (values near zero need *more* relative precision, not
less), so bins are stored in the **negative NaN** region instead:

* every input negative NaN is first made positive (freeing the region),
* an accepted bin becomes a negative-NaN word whose mantissa packs the
  value's sign bit and the zig-zag coded bin index,
* everything else (zeros, infinities, positive NaNs, denormals or
  values whose reconstruction fails the check) is stored losslessly,
* finally the sign+exponent bits of *all* emitted words are inverted so
  the frequent bin words carry leading '0' instead of leading '1' bits,
  which the downstream lossless stages exploit.

A reconstructed magnitude depends only on its integer bin, so encode
and decode work in groups of eight tiles
(:data:`~repro.core.portable_math.TILE` values each) and
:meth:`RelQuantizer._magnitudes` evaluates ``exp2`` once per bin value
when a group's bins span no more values than it has lanes, once per lane
otherwise.  The encoder checks each bin against that function's output,
which is exactly the value the decoder produces.  Its log2 and bound
check run tile by tile, so one tile's float64 and long-double working
set stays in a per-core L2 cache.  All of it runs through per-thread
scratch, every step an ``out=`` ufunc: no whole-block temporary is
allocated.
"""

from __future__ import annotations

import numpy as np

from ...errors import PFPLUsageError
from ..portable_math import TILE as _TILE, exp2_portable, log2_portable
from ..scratch import scratch
from .base import Quantizer

__all__ = ["RelQuantizer"]

#: Values per reconstruction group (:meth:`RelQuantizer._magnitudes`):
#: a group's bin table never holds more entries than this.  Encoder and
#: decoder share the group-sized ``relq.g*`` scratch slots; they are
#: never live at once on one thread.
_GROUP = 8 * _TILE

_RAMP = np.arange(_TILE, dtype=np.int64)
_RAMP.flags.writeable = False


class RelQuantizer(Quantizer):
    """REL quantizer: relative error ``<= eps`` for every value, guaranteed.

    ``math_impl`` selects the log/exp implementation: ``"portable"``
    (default -- the IEEE-basic-ops approximations that make CPU and GPU
    agree bit-for-bit) or ``"libm"`` (the platform's ``log2``/``exp2``,
    the non-portable variant the paper compares against when quantifying
    the cost of compatibility, Section III-C).  Both are safe: the
    verify-and-fallback step guards either implementation.
    """

    mode = "rel"

    def __init__(self, error_bound: float, dtype=np.float32, math_impl: str = "portable"):
        super().__init__(error_bound, dtype)
        if math_impl not in ("portable", "libm"):
            raise PFPLUsageError(f"math_impl must be portable/libm, got {math_impl!r}")
        self.math_impl = math_impl
        if math_impl == "portable":
            self._log2 = log2_portable
            self._exp2 = exp2_portable
        else:
            # The libm ablation arm exists to *measure* device-dependent
            # transcendentals against the portable path (paper Sec. VI).
            self._log2 = np.log2  # pfpl: allow[portable-math]
            self._exp2 = np.exp2  # pfpl: allow[portable-math]
        # Log-space bin width: 2*log2(1+eps), computed with the selected
        # log so that encoder and decoder agree exactly.
        self._log_step = float(
            2.0 * self._log2(np.asarray([1.0 + self.error_bound]))[0]
        )
        if self._log_step <= 0.0:
            raise PFPLUsageError(
                f"REL error bound {error_bound:g} is too small to quantize "
                f"(1+eps rounds to 1 in float64)"
            )
        # Mantissa payload: ((zigzag(bin)+1) << 1) | sign  must be a valid
        # nonzero NaN mantissa, so zigzag(bin)+1 <= mantissa_mask >> 1.
        self._max_zigzag = (self.layout.mantissa_mask >> 1) - 1
        # Bits of 1.0: where the encoder parks non-quantizable lanes.
        self._one_bits = self.layout.uint(
            self.layout.exponent_bias << self.layout.mantissa_bits
        )

    def header_params(self) -> dict:
        return {"log_step": self._log_step}

    # -- reconstruction ----------------------------------------------------

    def _magnitudes(self, bins: np.ndarray, out: np.ndarray) -> None:
        """Reconstruct one group: ``out = exp2(bins * log_step)`` in the
        data dtype, for the int64 ``bins`` of at most :data:`_GROUP` lanes.

        The encoder's bound check and the decoder both read this, so the
        check verifies exactly the value the decoder produces.  When the
        group's bins span no more values than it has lanes, every bin in
        ``[lo, hi]`` is reconstructed once into a table that the lanes
        gather; otherwise every lane is reconstructed.  A table entry is
        the per-lane expression applied to the same float64 input, so the
        two paths agree bit for bit.
        """
        n = bins.size
        lo = int(bins.min())
        # Python ints: a hostile payload decodes to bin -2^63, so the
        # span can exceed int64.
        span = int(bins.max()) - lo + 1
        if span > n:
            for s in range(0, n, _TILE):
                self._exp2_bins(bins[s:s + _TILE], out[s:s + _TILE])
            return
        table = scratch("relq.table", span, out.dtype)
        ints = scratch("relq.ints", min(span, _TILE), np.int64)
        for s in range(0, span, _TILE):
            k = ints[:min(_TILE, span - s)]
            np.add(_RAMP[:k.size], lo + s, out=k)  # <= hi: no wrap
            self._exp2_bins(k, table[s:s + k.size])
        idx = scratch("relq.idx", min(n, _TILE), np.int64)
        for s in range(0, n, _TILE):
            i = idx[:min(_TILE, n - s)]
            np.subtract(bins[s:s + i.size], lo, out=i)
            # every index is in range; "clip" only skips take's buffering
            np.take(table, i, out=out[s:s + i.size], mode="clip")

    def _exp2_bins(self, bins: np.ndarray, out: np.ndarray) -> None:
        """``exp2(float64(bin) * log_step)`` cast to ``out``'s dtype, per
        lane, for at most one tile."""
        if out.dtype == np.float64:
            y = out
        else:
            y = scratch("relq.y", bins.size, np.float64)
        np.multiply(bins, self._log_step, out=y)
        with np.errstate(invalid="ignore", over="ignore"):
            self._exp2(y, out=y)
            # the cast may overflow to inf for out-of-range bins; the
            # encoder's finiteness check sends those lanes lossless
            if y is not out:
                np.copyto(out, y, casting="same_kind")

    # -- encode ------------------------------------------------------------

    def _encode_words_into(self, v: np.ndarray, out: np.ndarray) -> int:
        n_bins = 0
        for start in range(0, v.size, _GROUP):
            stop = start + _GROUP
            n_bins += self._encode_group(v[start:stop], out[start:stop])
        return v.size - n_bins

    def _encode_group(self, v: np.ndarray, out: np.ndarray) -> int:
        """Encode one group into ``out``; returns the bin count.

        Two tile passes: the first writes the lossless words and the
        bins, the second checks each bin's :meth:`_magnitudes` value and
        packs the accepted ones.
        """
        n = v.size
        lay = self.layout
        bits = v.view(lay.uint_dtype)
        mag = scratch("relq.gword", n, lay.uint_dtype)
        quant = scratch("relq.gmask", n, np.bool_)
        bins = scratch("relq.gbins", n, np.int64)
        recon = scratch("relq.grecon", n, lay.float_dtype)
        for s in range(0, n, _TILE):
            e = s + _TILE
            self._bin_tile(bits[s:e], out[s:e], mag[s:e], quant[s:e], bins[s:e])
        if not quant.all():
            park = scratch("relq.gpark", n, np.bool_)
            np.logical_not(quant, out=park)
            _park_non_bins(bins, park)
        self._magnitudes(bins, recon)
        absv = mag.view(lay.float_dtype)
        n_bins = 0
        for s in range(0, n, _TILE):
            e = s + _TILE
            n_bins += self._pack_tile(bits[s:e], out[s:e], absv[s:e],
                                      quant[s:e], bins[s:e], recon[s:e])
        return n_bins

    def _bin_tile(self, bits: np.ndarray, out: np.ndarray, mag: np.ndarray,
                  quant: np.ndarray, bins: np.ndarray) -> None:
        """First pass over one tile: the lossless words into ``out``, the
        magnitudes (non-quantizable lanes parked at 1.0) into ``mag``,
        the quantizable mask into ``quant`` and the bins into ``bins``.

        Each float operation is the whole-array formula's, in the same
        order, so tiling changes no bit; it only keeps one tile's
        scratch cache-resident.
        """
        lay = self.layout
        n = bits.size
        exp_mask = lay.uint(lay.exponent_mask)
        invert = lay.uint(lay.invert_mask)
        tmp = scratch("relq.tmp", n, lay.uint_dtype)
        ok = scratch("relq.ok", n, np.bool_)

        # Lossless words: the raw bits with sign+exponent inverted.  A
        # negative NaN is made positive first to free the bin region; it
        # is the only input PFPL does not reproduce bit-exactly
        # (documented behaviour -- the *value* is still NaN).
        np.bitwise_and(bits, lay.uint(lay.abs_mask), out=mag)
        np.bitwise_xor(bits, invert, out=out)
        if mag.max() > exp_mask:
            np.greater(mag, exp_mask, out=ok)
            np.bitwise_xor(mag, invert, out=out, where=ok)

        # Quantizable = finite and nonzero = 0 < |bits| < exponent mask.
        # The other lanes are parked at 1.0 so log2 stays benign, and so
        # no NaN is ever widened (a float32 signalling NaN would warn).
        np.subtract(mag, lay.uint(1), out=tmp)
        np.less(tmp, exp_mask - lay.uint(1), out=quant)
        if not quant.all():
            np.logical_not(quant, out=ok)
            np.copyto(mag, self._one_bits, where=ok)
        if lay.float_dtype == np.float64:
            absv = mag.view(np.float64)
        else:
            absv = scratch("relq.absv", n, np.float64)
            np.copyto(absv, mag.view(lay.float_dtype))

        bin_f = scratch("relq.bin", n, np.float64)
        self._log2(absv, out=bin_f)
        np.divide(bin_f, self._log_step, out=bin_f)
        np.rint(bin_f, out=bin_f)
        # exact: every finite |v| gives |bin| < 2^63, even at the smallest
        # float64 bound
        np.copyto(bins, bin_f, casting="unsafe")

    def _pack_tile(self, bits: np.ndarray, out: np.ndarray, absv: np.ndarray,
                   quant: np.ndarray, bins: np.ndarray, recon: np.ndarray) -> int:
        """Second pass over one tile: check each bin's reconstruction
        ``recon`` against ``absv`` and write the accepted bins' words
        over the lossless ones in ``out``; returns the bin count."""
        lay = self.layout
        n = bits.size
        ok = scratch("relq.ok", n, np.bool_)
        fits = scratch("relq.fits", n, np.bool_)
        zz = scratch("relq.zz", n, np.int64)
        zs = scratch("relq.zs", n, np.int64)

        # Verify against the value the decoder will produce (recon, i.e.
        # the float32/float64-rounded magnitude) in 80-bit precision.
        _within_rel_bound(absv, recon, self.error_bound, ok)

        # Zig-zag the bin: 0,-1,1,-2,2... -> 0,1,2,3,4...
        np.right_shift(bins, 63, out=zs)
        np.left_shift(bins, 1, out=zz)
        np.bitwise_xor(zz, zs, out=zz)
        zzu = zz.view(np.uint64)
        np.less_equal(zzu, np.uint64(self._max_zigzag), out=fits)
        np.logical_and(ok, fits, out=ok)
        np.logical_and(ok, quant, out=ok)

        # An accepted bin's word is the negative NaN SIGN|EXP|payload,
        # payload = ((zz+1) << 1) | sign; with sign+exponent inverted
        # that is the payload alone.
        np.add(zzu, np.uint64(1), out=zzu)
        np.left_shift(zzu, np.uint64(1), out=zzu)
        sign = scratch("relq.sign", n, lay.uint_dtype)
        if lay.float_dtype == np.float64:
            payload = zzu
        else:
            # truncation only touches bins that do not fit (never selected)
            payload = scratch("relq.tmp", n, lay.uint_dtype)
            np.copyto(payload, zzu, casting="unsafe")
        np.right_shift(bits, lay.uint(lay.bits - 1), out=sign)
        np.bitwise_or(payload, sign, out=payload)
        np.copyto(out, payload, where=ok)
        return int(np.count_nonzero(ok))

    # -- decode ------------------------------------------------------------

    def _decode_words_into(self, w: np.ndarray, out: np.ndarray) -> None:
        for start in range(0, w.size, _GROUP):
            stop = start + _GROUP
            self._decode_group(w[start:stop], out[start:stop])

    def _decode_group(self, w: np.ndarray, out: np.ndarray) -> None:
        """Decode one group: unzigzag the bin words, reconstruct them
        with :meth:`_magnitudes` straight into ``out``, then apply the
        signs and restore the lossless words."""
        lay = self.layout
        n = w.size
        udt = lay.uint_dtype
        tmp = scratch("relq.gword", n, udt)
        lossless = scratch("relq.gmask", n, np.bool_)
        zz = scratch("relq.gbins", n, np.uint64)
        odd = scratch("relq.gpark", n, np.int8)

        # With sign+exponent re-inverted a bin word is a negative NaN,
        # i.e. 1 <= w <= mantissa mask as stored; any other word is a
        # lossless value.
        np.subtract(w, lay.uint(1), out=tmp)
        np.greater_equal(tmp, lay.uint(lay.mantissa_mask), out=lossless)
        has_lossless = lossless.any()

        # zz = (payload >> 1) - 1 in uint64: payload 1 wraps to the
        # largest zig-zag code (bin -2^63).  Un-zig-zag:
        # bin = (zz >> 1) ^ -(zz & 1), the mask held as int8 0 / -1.
        np.right_shift(w, lay.uint(1), out=zz)
        np.subtract(zz, np.uint64(1), out=zz)
        np.bitwise_and(zz, np.uint64(1), out=odd, casting="unsafe")
        np.negative(odd, out=odd)
        np.right_shift(zz, np.uint64(1), out=zz)
        bins = zz.view(np.int64)
        np.bitwise_xor(bins, odd, out=bins)
        if has_lossless:
            _park_non_bins(bins, lossless)

        self._magnitudes(bins, out)
        # The payload's low bit is the value's sign.
        out_bits = out.view(udt)
        np.left_shift(w, lay.uint(lay.bits - 1), out=tmp)
        np.bitwise_or(out_bits, tmp, out=out_bits)
        if has_lossless:
            np.bitwise_xor(w, lay.uint(lay.invert_mask), out=tmp)
            np.copyto(out_bits, tmp, where=lossless)


def _park_non_bins(bins: np.ndarray, non_bin: np.ndarray) -> None:
    """Give every ``non_bin`` lane of a group the bin of its first real
    bin lane (0 when it has none), so that only real bins set the span
    :meth:`RelQuantizer._magnitudes` sees; those lanes' magnitudes are
    never used."""
    first = int(np.argmin(non_bin))
    np.copyto(bins, 0 if non_bin[first] else bins[first], where=non_bin)


def _within_rel_bound(
    abs_original: np.ndarray, recon: np.ndarray, eps: float, out: np.ndarray
) -> None:
    """Check ``|v|/(1+eps) <= |v'| <= |v|*(1+eps)`` in extended precision.

    ``recon`` carries the decoder-side magnitude already rounded to the
    data dtype; the comparison itself runs in 80-bit long double so a
    rounded quotient/product cannot mask a true violation, and requires
    the reconstruction to be finite and nonzero (sign preservation is
    structural: the coder re-applies the original sign bit).  The
    verdict is written into the bool array ``out``.
    """
    n = out.size
    a = scratch("relq.ld_a", n, np.longdouble)
    r = scratch("relq.ld_r", n, np.longdouble)
    q = scratch("relq.ld_q", n, np.longdouble)
    tb = scratch("relq.ld_tb", n, np.bool_)
    np.copyto(a, abs_original)
    np.abs(recon, out=r)
    one_plus = np.longdouble(1.0) + np.longdouble(eps)
    with np.errstate(invalid="ignore", divide="ignore"):
        np.divide(a, one_plus, out=q)
        np.less_equal(q, r, out=out)
        np.multiply(a, one_plus, out=q)
        np.less_equal(r, q, out=tb)
    np.logical_and(out, tb, out=out)
    np.isfinite(recon, out=tb)
    np.logical_and(out, tb, out=out)
    # r > 0 on a finite recon is recon != 0, tested in its own dtype
    np.not_equal(recon, 0, out=tb)
    np.logical_and(out, tb, out=out)

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
* everything else (zeros, infinities, positive NaNs, and values whose
  reconstruction fails the check or whose bin does not fit the payload)
  is stored losslessly; a denormal is quantized like any other finite
  value whenever its reconstruction passes the check,
* finally the sign+exponent bits of *all* emitted words are inverted so
  the frequent bin words carry leading '0' instead of leading '1' bits,
  which the downstream lossless stages exploit.

A reconstructed magnitude depends only on its integer bin, so encode
and decode work in groups of eight tiles
(:data:`~repro.core.portable_math.TILE` values each) and
:meth:`RelQuantizer._magnitudes` evaluates ``exp2`` once per bin value
when a group's bins span no more values than it has lanes, once per lane
otherwise.  The encoder checks each bin against exactly the value the
decoder produces.  A group with at least :data:`_LANES_PER_BIN` lanes
per bin value checks each bin value once, as an interval of accepted
magnitudes (:func:`_acceptance_interval`); any other group checks every
lane.  Its log2 and bound check run tile by tile, so one tile's float64
and long-double working set stays in a per-core L2 cache.  All of it
runs through per-thread scratch, every step an ``out=`` ufunc: no
whole-block temporary is allocated.
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

#: An encode group checks each bin value once when its bins span at most
#: one value per this many lanes, else every lane.  The per-bin check
#: costs about 75-80 ns per bin value and saves about 20 ns per lane, so
#: it pays up to about 0.29 values per lane: against the per-lane check
#: it read -27% / -26% (float32 / float64) at span/lanes 0.1 and -7% /
#: -7% at 0.25.  Measured in one process against the per-lane encoder,
#: encode time per 65,536-lane group, median of 15 alternating rounds on
#: a 2-CPU host: with the crossover at one value per lane, the per-bin
#: check read -15% / -20% at 0.15, but +22% / +30% at 0.5, +67% / +67% at
#: 0.9 and +60% / +57% on the archive's smooth steps at REL 1e-4 (0.81-1.32
#: values per lane); with this crossover those three rows check every
#: lane and read -2% / +2%, +1% / 0% and +7% / +1%, within the per-lane
#: encoder's own spread.  Its tables hold at most a quarter-group.
_LANES_PER_BIN = 4

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

    def _magnitudes(self, bins: np.ndarray, lo: int, span: int,
                    out: np.ndarray) -> None:
        """Reconstruct one group: ``out = exp2(bins * log_step)`` in the
        data dtype, for the int64 ``bins`` of at most :data:`_GROUP` lanes
        whose values span ``[lo, lo + span)`` (:func:`_bin_span`).

        The decoder and the encoder's per-lane check read this, so the
        check verifies exactly the value the decoder produces.  When the
        group's bins span no more values than it has lanes, every bin in
        the span is reconstructed once by :meth:`_bin_table` and the lanes
        gather; otherwise every lane is reconstructed.  A table entry is
        the per-lane expression applied to the same float64 input, so the
        two paths agree bit for bit.
        """
        n = bins.size
        if span > n:
            for s in range(0, n, _TILE):
                self._exp2_bins(bins[s:s + _TILE], out[s:s + _TILE])
            return
        table = scratch("relq.table", span, out.dtype)
        self._bin_table(lo, table)
        idx = scratch("relq.idx", min(n, _TILE), np.int64)
        for s in range(0, n, _TILE):
            i = idx[:min(_TILE, n - s)]
            np.subtract(bins[s:s + i.size], lo, out=i)
            # every index is in range; "clip" only skips take's buffering
            np.take(table, i, out=out[s:s + i.size], mode="clip")

    def _bin_table(self, lo: int, table: np.ndarray) -> None:
        """Reconstruct the bin values ``lo, lo + 1, ...`` into ``table``
        (one entry each), a tile of bin values at a time."""
        span = table.size
        ints = scratch("relq.ints", min(span, _TILE), np.int64)
        for s in range(0, span, _TILE):
            k = ints[:min(_TILE, span - s)]
            np.add(_RAMP[:k.size], lo + s, out=k)  # <= hi: no wrap
            self._exp2_bins(k, table[s:s + k.size])

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
        bins, the second checks the bins and packs the accepted ones.
        A group with at least :data:`_LANES_PER_BIN` lanes per bin value
        checks each lane against its bin's acceptance interval
        (:meth:`_bin_checks`); any other group checks each lane's
        :meth:`_magnitudes` value with :func:`_within_rel_bound`.  Both
        give the same verdict.
        """
        n = v.size
        lay = self.layout
        bits = v.view(lay.uint_dtype)
        mag = scratch("relq.gword", n, lay.uint_dtype)
        quant = scratch("relq.gmask", n, np.bool_)
        bins = scratch("relq.gbins", n, np.int64)
        for s in range(0, n, _TILE):
            e = s + _TILE
            self._bin_tile(bits[s:e], out[s:e], mag[s:e], quant[s:e], bins[s:e])
        if not quant.all():
            park = scratch("relq.gpark", n, np.bool_)
            np.logical_not(quant, out=park)
            _park_non_bins(bins, park)
        lo, span = _bin_span(bins)
        n_bins = 0
        if _LANES_PER_BIN * span <= n:
            a_lo = scratch("relq.alo", span, lay.uint_dtype)
            a_hi = scratch("relq.ahi", span, lay.uint_dtype)
            words = scratch("relq.bword", span, lay.uint_dtype)
            self._bin_checks(lo, a_lo, a_hi, words)
            for s in range(0, n, _TILE):
                e = s + _TILE
                n_bins += self._pack_tile_per_bin(
                    bits[s:e], out[s:e], mag[s:e], quant[s:e], bins[s:e],
                    lo, a_lo, a_hi, words)
            return n_bins
        recon = scratch("relq.grecon", n, lay.float_dtype)
        self._magnitudes(bins, lo, span, recon)
        absv = mag.view(lay.float_dtype)
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

        # Verify against the value the decoder will produce (recon, i.e.
        # the float32/float64-rounded magnitude) in 80-bit precision.
        _within_rel_bound(absv, recon, self.error_bound, ok)
        payload = self._payloads(bins, fits)
        np.logical_and(ok, fits, out=ok)
        np.logical_and(ok, quant, out=ok)

        sign = scratch("relq.sign", n, lay.uint_dtype)
        np.right_shift(bits, lay.uint(lay.bits - 1), out=sign)
        np.bitwise_or(payload, sign, out=payload)
        np.copyto(out, payload, where=ok)
        return int(np.count_nonzero(ok))

    def _payloads(self, bins: np.ndarray, fits: np.ndarray) -> np.ndarray:
        """Each int64 bin's payload ``(zigzag(bin) + 1) << 1`` as a
        data-width word in per-thread scratch (at most one tile), and in
        ``fits`` whether its zig-zag code fits the payload.

        An accepted bin's word is the negative NaN SIGN|EXP|payload|sign;
        with sign+exponent inverted that is the payload and the value's
        sign bit alone.
        """
        n = bins.size
        zz = scratch("relq.zz", n, np.int64)
        zs = scratch("relq.zs", n, np.int64)
        # Zig-zag the bin: 0,-1,1,-2,2... -> 0,1,2,3,4...
        np.right_shift(bins, 63, out=zs)
        np.left_shift(bins, 1, out=zz)
        np.bitwise_xor(zz, zs, out=zz)
        zzu = zz.view(np.uint64)
        np.less_equal(zzu, np.uint64(self._max_zigzag), out=fits)
        np.add(zzu, np.uint64(1), out=zzu)
        np.left_shift(zzu, np.uint64(1), out=zzu)
        if self.layout.float_dtype == np.float64:
            return zzu
        # truncation only touches bins that do not fit (never selected)
        payload = scratch("relq.tmp", n, self.layout.uint_dtype)
        np.copyto(payload, zzu, casting="unsafe")
        return payload

    def _bin_checks(self, lo: int, a_lo: np.ndarray, a_hi: np.ndarray,
                    words: np.ndarray) -> None:
        """For every bin value ``b = lo + i``, ``i < a_lo.size``: the
        interval ``[a_lo[i], a_hi[i]]`` of magnitude bit patterns that
        :func:`_within_rel_bound` accepts against ``b``'s reconstruction,
        and ``b``'s payload word (:meth:`_payloads`) in ``words``.

        The interval is empty (``a_lo > a_hi``, by ``a_hi = 0``, since
        every interval's ``a_lo`` is at least 1) when ``b`` cannot be
        stored: it reconstructs to 0 or +Inf, or its zig-zag code does
        not fit the payload.  The reconstructions come from
        :meth:`_bin_table`, the decoder's own values.
        """
        span = a_lo.size
        table = scratch("relq.table", span, self.layout.float_dtype)
        self._bin_table(lo, table)
        # half tiles: the check sees two candidates per bin value
        step = min(span, _TILE // 2)
        ints = scratch("relq.ints", step, np.int64)
        fits_all = scratch("relq.fits", step, np.bool_)
        keep_all = scratch("relq.ok", step, np.bool_)
        for s in range(0, span, step):
            e = min(s + step, span)
            k, fits, keep = ints[:e - s], fits_all[:e - s], keep_all[:e - s]
            np.add(_RAMP[:k.size], lo + s, out=k)
            np.copyto(words[s:e], self._payloads(k, fits))
            r = table[s:e]
            _acceptance_interval(r, self.error_bound, a_lo[s:e], a_hi[s:e])
            # Explicit, because a reconstruction of 0 gets a_hi = prev(0),
            # which wraps to all ones.
            np.isfinite(r, out=keep)
            np.logical_and(keep, fits, out=keep)
            np.not_equal(r, 0, out=fits)
            np.logical_and(keep, fits, out=keep)
            np.multiply(a_hi[s:e], keep, out=a_hi[s:e])

    def _pack_tile_per_bin(self, bits: np.ndarray, out: np.ndarray,
                           mag: np.ndarray, quant: np.ndarray,
                           bins: np.ndarray, lo: int, a_lo: np.ndarray,
                           a_hi: np.ndarray, words: np.ndarray) -> int:
        """Second pass over one tile of a per-bin group: accept a
        quantizable lane when its magnitude bits ``mag`` lie in its bin's
        interval ``[a_lo, a_hi]`` (:meth:`_bin_checks`, indexed by
        ``bin - lo``), and write its bin's word with its sign bit over
        the lossless one in ``out``; returns the bin count."""
        lay = self.layout
        n = bits.size
        idx = scratch("relq.idx", n, np.int64)
        gathered = scratch("relq.gather", n, lay.uint_dtype)
        ok = scratch("relq.ok", n, np.bool_)
        tb = scratch("relq.fits", n, np.bool_)
        np.subtract(bins, lo, out=idx)
        # every index is in range; "clip" only skips take's buffering
        np.take(a_lo, idx, out=gathered, mode="clip")
        np.less_equal(gathered, mag, out=ok)
        np.take(a_hi, idx, out=gathered, mode="clip")
        np.less_equal(mag, gathered, out=tb)
        np.logical_and(ok, tb, out=ok)
        np.logical_and(ok, quant, out=ok)

        np.take(words, idx, out=gathered, mode="clip")
        sign = scratch("relq.sign", n, lay.uint_dtype)
        np.right_shift(bits, lay.uint(lay.bits - 1), out=sign)
        np.bitwise_or(gathered, sign, out=gathered)
        np.copyto(out, gathered, where=ok)
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

        self._magnitudes(bins, *_bin_span(bins), out)
        # The payload's low bit is the value's sign.
        out_bits = out.view(udt)
        np.left_shift(w, lay.uint(lay.bits - 1), out=tmp)
        np.bitwise_or(out_bits, tmp, out=out_bits)
        if has_lossless:
            np.bitwise_xor(w, lay.uint(lay.invert_mask), out=tmp)
            np.copyto(out_bits, tmp, where=lossless)


def _bin_span(bins: np.ndarray) -> tuple[int, int]:
    """A group's lowest bin and the number of bin values up to its
    highest, in Python ints: a hostile payload decodes to bin -2^63, so
    the span can exceed int64."""
    lo = int(bins.min())
    return lo, int(bins.max()) - lo + 1


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


def _acceptance_interval(
    recon: np.ndarray, eps: float, a_lo: np.ndarray, a_hi: np.ndarray
) -> None:
    """The magnitudes :func:`_within_rel_bound` accepts against each
    finite nonzero reconstruction in ``recon`` (at most half a tile: the
    check runs on two candidates per entry), as the bit patterns
    ``[a_lo, a_hi]`` of the data dtype.

    For a fixed reconstruction ``r`` the check tests ``fl(a / c) <= r``
    and ``r <= fl(a * c)`` in long double, with ``c = fl(1 + eps)``.  Both
    sides are monotone in ``a``, so the accepted magnitudes form one
    interval, and positive IEEE values order like their bit patterns.
    The endpoints come from the check itself.  The candidates are
    ``t_hi = dtype(fl(r * c))`` and ``t_lo = dtype(fl(r / c))``; then
    ``a_hi = t_hi`` if the check accepts ``(t_hi, r)``, else
    ``prev(t_hi)``, and ``a_lo = t_lo`` if it accepts ``(t_lo, r)``, else
    ``next(t_lo)``.

    One step suffices.  The long-double product and quotient are within
    2^-64 relative of the real edges ``r * c`` and ``r / c``, and the
    check's own division and product round by as little.  So only a
    magnitude within about 2^-63 relative of an edge can get a verdict
    other than the real comparison's, and at most one data-dtype value
    is that close, since neighbours lie at least 2^-53 relative apart.
    Each candidate is the dtype value nearest its long-double edge:
    within half a dtype ulp, plus about 2^-64 relative, of the real
    edge.  So it is one of the edge's two dtype neighbours, and when one
    of them is that close to the edge it is the candidate.  Either the
    candidate's verdict is the real comparison's, and the candidate or
    its neighbour towards ``r`` is the endpoint, or the candidate is the
    close value and one step decides it.

    A reconstruction of +Inf gets an empty interval (``a_lo > a_hi``)
    from the check's rejection of both candidates.  A reconstruction of
    0 does not (``prev(0)`` wraps to all ones): the caller must empty it.
    """
    k = recon.size
    udt = a_lo.dtype
    # One check over both candidates: [t_hi..., t_lo...] against [r..., r...]
    r2 = scratch("relq.r2", 2 * k, recon.dtype)
    t = scratch("relq.ld_t", 2 * k, np.longdouble)
    cand = scratch("relq.cand", 2 * k, recon.dtype)
    ok = scratch("relq.cok", 2 * k, np.bool_)
    np.copyto(r2[:k], recon)
    np.copyto(r2[k:], recon)
    one_plus = np.longdouble(1.0) + np.longdouble(eps)
    np.copyto(t[:k], recon)
    np.divide(t[:k], one_plus, out=t[k:])
    np.multiply(t[:k], one_plus, out=t[:k])
    with np.errstate(over="ignore"):  # dtype(r * c) may round to +Inf
        np.copyto(cand, t, casting="same_kind")
    _within_rel_bound(cand, r2, eps, ok)
    np.logical_not(ok, out=ok)
    bits = cand.view(udt)
    np.subtract(bits[:k], ok[:k], out=a_hi)
    np.add(bits[k:], ok[k:], out=a_lo)

"""Tiled REL quantizer and portable math vs their whole-array reference.

REL encode/decode run tile by tile in reused scratch with ``out=``
ufuncs, and reconstruct each group's bins from a table when the bins
span no more values than the group has lanes.  The whole-array
formulation they replaced is kept below, verbatim, as the reference:
every output word, float and lossless count must match it bit for bit,
for hostile inputs too, on both reconstruction paths.  A last test
bounds the memory the batch entry points allocate.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core import portable_math as pm
from repro.core.quantizers.relq import _GROUP, _TILE, RelQuantizer
from repro.core.scratch import scratch_release

# -- reference: the whole-array formulation, unchanged ------------------------

_EXP_MASK64 = np.uint64(0x7FF0000000000000)
_MANT_MASK64 = np.uint64(0x000FFFFFFFFFFFFF)
_ONE_BITS64 = np.uint64(0x3FF0000000000000)


def ref_log2_portable(x):
    x = np.ascontiguousarray(x, dtype=np.float64)
    out = np.empty_like(x)
    tiny = x < 2.2250738585072014e-308
    with np.errstate(over="ignore"):
        x_work = np.where(tiny, x * 18446744073709551616.0, x)
    e_adjust = np.where(tiny, -64.0, 0.0)
    bits = x_work.view(np.uint64)
    exp_field = ((bits & _EXP_MASK64) >> np.uint64(52)).astype(np.int64)
    e = (exp_field - 1023).astype(np.float64)
    m = ((bits & _MANT_MASK64) | _ONE_BITS64).view(np.float64)
    high = m >= pm.SQRT2
    m = np.where(high, m * 0.5, m)
    e = np.where(high, e + 1.0, e)
    s = (m - 1.0) / (m + 1.0)
    s2 = s * s
    poly = np.full_like(s, pm._LOG_COEFFS[-1])
    for c in pm._LOG_COEFFS[-2::-1]:
        poly = poly * s2 + c
    ln_m = s * poly
    np.multiply(ln_m, pm._INV_LN2, out=out)
    out += e
    out += e_adjust
    return out


def ref_exp2_portable(y):
    y = np.ascontiguousarray(y, dtype=np.float64)
    n = np.rint(y)
    f = y - n
    t = f * pm.LN2
    poly = np.full_like(t, pm._EXP_COEFFS[-1])
    for c in pm._EXP_COEFFS[-2::-1]:
        poly = poly * t + c
    n_int = n.astype(np.int64)
    n_int = np.clip(n_int, -2098, 2098)
    n_hi = n_int >> 1
    n_lo = n_int - n_hi
    scale_hi = ref_pow2_int(n_hi)
    scale_lo = ref_pow2_int(n_lo)
    with np.errstate(over="ignore"):
        return poly * scale_hi * scale_lo


def ref_pow2_int(n):
    n = np.asarray(n, dtype=np.int64)
    result = np.empty(n.shape, dtype=np.float64)
    normal = (n >= -1022) & (n <= 1023)
    bits = ((n + 1023).astype(np.uint64) << np.uint64(52))
    result[...] = np.where(normal, bits.view(np.float64), 0.0)
    deno = (n < -1022) & (n >= -1074)
    if np.any(deno):
        shift = (np.where(deno, n, -1074) + 1074).astype(np.uint64)
        dbits = np.uint64(1) << shift
        result = np.where(deno, dbits.view(np.float64), result)
    huge = n > 1023
    if np.any(huge):
        result = np.where(huge, np.float64(np.inf), result)
    return result


def ref_zigzag(x):
    return ((x << 1) ^ (x >> 63)).astype(np.uint64)


def ref_unzigzag(z):
    z = z.astype(np.uint64)
    return ((z >> np.uint64(1)).astype(np.int64)
            ^ -(z & np.uint64(1)).astype(np.int64))


def ref_within_rel_bound(abs_original, recon, eps):
    a = abs_original.astype(np.longdouble)
    r = np.abs(recon).astype(np.longdouble)
    one_plus = np.longdouble(1.0) + np.longdouble(eps)
    with np.errstate(invalid="ignore", divide="ignore"):
        lo_ok = a / one_plus <= r
        hi_ok = r <= a * one_plus
    finite = np.isfinite(recon) & (r > 0)
    return lo_ok & hi_ok & finite


def _ref_math(q):
    if q.math_impl == "portable":
        return ref_log2_portable, ref_exp2_portable
    return np.log2, np.exp2


def ref_encode(q, v):
    """The pre-tiling ``RelQuantizer._encode_words``."""
    log2, exp2 = _ref_math(q)
    lay = q.layout
    bits = lay.to_bits(v)
    sign = ((bits & lay.uint(lay.sign_mask)) != lay.uint(0))
    is_nan = lay.is_nan_bits(bits)
    is_inf = lay.is_inf_bits(bits)
    is_zero = lay.is_zero_bits(bits)
    lossless_bits = np.where(
        is_nan, bits & lay.uint(lay.abs_mask), bits
    ).astype(lay.uint_dtype)
    quantizable = ~(is_nan | is_inf | is_zero)
    absv = np.abs(v).astype(np.float64)
    absv_safe = np.where(quantizable, absv, 1.0)
    bin_f = np.rint(log2(absv_safe) / q._log_step)
    with np.errstate(invalid="ignore", over="ignore"):
        recon_mag = exp2(bin_f * q._log_step)
        recon = recon_mag.astype(lay.float_dtype)
    bin_i = bin_f.astype(np.int64)
    zz = ref_zigzag(bin_i)
    fits = zz <= np.uint64(q._max_zigzag)
    ok = quantizable & fits & ref_within_rel_bound(absv, recon, q.error_bound)
    payload = (((zz + np.uint64(1)) << np.uint64(1))
               | sign.astype(np.uint64)).astype(lay.uint_dtype)
    bin_words = (
        lay.uint(lay.sign_mask) | lay.uint(lay.exponent_mask) | payload
    )
    words = np.where(ok, bin_words, lossless_bits).astype(lay.uint_dtype)
    return words ^ lay.uint(lay.invert_mask), int(v.size - np.count_nonzero(ok))


def ref_decode(q, w):
    """The pre-tiling ``RelQuantizer._decode_words``."""
    _, exp2 = _ref_math(q)
    lay = q.layout
    w = w ^ lay.uint(lay.invert_mask)
    is_bin = lay.is_negative_nan(w)
    payload = w & lay.uint(lay.mantissa_mask)
    sign = (payload & lay.uint(1)) != lay.uint(0)
    zz = (payload.astype(np.uint64) >> np.uint64(1)) - np.uint64(1)
    zz = np.where(is_bin, zz, np.uint64(0))
    bin_i = ref_unzigzag(zz)
    with np.errstate(invalid="ignore", over="ignore"):
        recon_mag = exp2(
            bin_i.astype(np.float64) * q._log_step
        ).astype(lay.float_dtype)
    recon_bits = lay.to_bits(recon_mag) | np.where(
        sign, lay.uint(lay.sign_mask), lay.uint(0)
    ).astype(lay.uint_dtype)
    out_bits = np.where(is_bin, recon_bits, w).astype(lay.uint_dtype)
    return lay.from_bits(out_bits)


def _quiet(fn, *args, **kwargs):
    # Non-finite inputs raise IEEE invalid (inf - inf, a signalling NaN),
    # and the reference also widens float32 signalling NaNs and casts NaN
    # to int64; only the bits are of interest.
    with np.errstate(invalid="ignore"):
        return fn(*args, **kwargs)


# -- inputs ----------------------------------------------------------------------

BOUNDS = [0.1, 1e-2, 1e-3, 1e-4, 1e-6, 3.0, 1e10]
CASES = (
    [(np.float32, b) for b in BOUNDS]
    + [(np.float64, b) for b in BOUNDS + [1e-12]]
)
IMPLS = ["portable", "libm"]


def _specials(dtype):
    lay = RelQuantizer(0.1, dtype=dtype).layout
    mant, expm, sign = lay.mantissa_mask, lay.exponent_mask, lay.sign_mask
    fi = np.finfo(dtype)
    words = [
        0, sign,                        # +-0
        expm, sign | expm,              # +-inf
        expm | (1 << (lay.mantissa_bits - 1)),          # +qNaN
        sign | expm | (1 << (lay.mantissa_bits - 1)),   # -qNaN
        expm | 1, sign | expm | 1,      # +-sNaN
        expm | mant, sign | expm | mant,
        1, sign | 1, mant, sign | mant,  # smallest / largest denormal
        1 << lay.mantissa_bits,          # smallest normal
        int(fi.max.view(lay.uint_dtype)),
        int(fi.min.view(lay.uint_dtype)),
    ]
    return np.array(words, dtype=lay.uint_dtype).view(dtype)


def _f32_exponent_sweep(rng):
    """Every float32 exponent x both signs x boundary and random mantissas."""
    mant = (1 << 23) - 1
    sqrt2 = int(np.float32(np.sqrt(2.0)).view(np.uint32)) & mant
    edges = [0, 1, 2, sqrt2 - 1, sqrt2, sqrt2 + 1, mant - 1, mant]
    rand = rng.integers(0, mant + 1, 56, dtype=np.uint32)
    m = np.concatenate([np.array(edges, dtype=np.uint32), rand])
    e = np.arange(256, dtype=np.uint32) << np.uint32(23)
    s = np.array([0, 1 << 31], dtype=np.uint32)
    words = (s[:, None, None] | e[None, :, None] | m[None, None, :]).reshape(-1)
    return words.view(np.float32)


def _f64_values(rng):
    """Random float64 bit patterns plus an exponent sweep with edge mantissas."""
    mant = (1 << 52) - 1
    rand = rng.integers(0, 2**64, 1 << 14, dtype=np.uint64)
    e = np.arange(2048, dtype=np.uint64) << np.uint64(52)
    m = np.array([0, 1, mant - 1, mant], dtype=np.uint64)
    s = np.array([0, 1 << 63], dtype=np.uint64)
    sweep = (s[:, None, None] | e[None, :, None] | m[None, None, :]).reshape(-1)
    return np.concatenate([rand, sweep]).view(np.float64)


def _values(dtype, rng):
    body = _f32_exponent_sweep(rng) if dtype == np.float32 else _f64_values(rng)
    return np.concatenate([body, _specials(dtype)])


def _hostile_words(q, rng):
    """Every kind of word a decoder can meet: random patterns, every
    payload edge (payload 1 unzigzags to bin -2^63), encoder output."""
    lay = q.layout
    mant = lay.mantissa_mask
    edges = np.array(
        [0, 1, 2, 3, 4, 5, mant - 1, mant, mant + 1, lay.sign_mask,
         lay.sign_mask | 1, lay.exponent_mask, lay.invert_mask,
         lay.invert_mask | mant, (1 << lay.bits) - 1],
        dtype=lay.uint_dtype,
    )
    rand = rng.integers(0, 1 << lay.bits, 1 << 14, dtype=lay.uint_dtype)
    payloads = rng.integers(1, mant + 1, 1 << 12, dtype=lay.uint_dtype)
    encoded, _ = q._encode_words(_values(lay.float_dtype, rng))
    return np.concatenate([edges, rand, payloads, encoded])


def _narrow(q, rng):
    """Three groups of a smooth field whose bins span about an eighth of
    a group's lanes (so every group takes the bin table), with zero,
    NaN and +-Inf lanes in each.  The middle group straddles the
    smallest normal, so half its lanes are denormals."""
    lay = q.layout
    t = np.linspace(0.0, 6.0 * np.pi, 3 * _GROUP)
    amp = min(_GROUP // 16, 32.0 / q._log_step)  # bins; |log2| swing <= 32
    bins = amp * np.sin(t) + rng.uniform(-0.5, 0.5, t.size)
    centre = np.repeat([0.0, 1.0 - lay.exponent_bias, -20.0], _GROUP)
    v = np.exp2(bins * q._log_step + centre)
    v = np.where(np.cos(3.0 * t) < 0, -v, v).astype(lay.float_dtype)
    with np.errstate(invalid="ignore"):
        for g in range(3):
            lanes = rng.choice(_GROUP, 7, replace=False) + g * _GROUP
            v[lanes] = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 0.0]
    return v


def _narrow_words(q, rng):
    """Hostile words in a narrow payload band (bins in [-4096, 4096),
    either sign bit), a quarter of them lossless, in three groups; the
    middle group also holds payload 1 (bin -2^63), so its span exceeds
    its lanes."""
    lay = q.layout
    bins = rng.integers(-_GROUP // 16, _GROUP // 16, 3 * _GROUP)
    zz = ref_zigzag(bins)
    sign = rng.integers(0, 2, bins.size, dtype=np.uint64)
    w = (((zz + np.uint64(1)) << np.uint64(1)) | sign).astype(lay.uint_dtype)
    lossless = rng.random(w.size) < 0.25
    w[lossless] = rng.integers(lay.mantissa_mask + 1, 1 << lay.bits,
                               int(lossless.sum()), dtype=lay.uint_dtype)
    w[_GROUP + 12345] = 1
    return w


def _count_exp2(q):
    """Replace ``q._exp2`` with a wrapper that counts the lanes it sees."""
    seen = []
    exp2 = q._exp2

    def counting(y, out=None):
        seen.append(y.size)
        return exp2(y, out=out)

    q._exp2 = counting
    return seen


def _bits(a):
    return a.view(np.uint64 if a.dtype.itemsize == 8 else np.uint32)


# -- portable math ---------------------------------------------------------------


class TestPortableMathIdentity:
    def _inputs(self, rng):
        patterns = rng.integers(0, 2**64, 1 << 15, dtype=np.uint64).view(np.float64)
        return [
            patterns,
            np.abs(patterns),
            _specials(np.float64),
            np.exp(rng.uniform(-700, 700, 1 << 14)),
            rng.uniform(-2200, 2200, 1 << 14),
            rng.uniform(-1080, -1000, 1 << 12),
            np.arange(-1100.0, 1100.0, 0.5),
        ]

    def test_log2(self, rng):
        for x in self._inputs(rng):
            ref = _quiet(ref_log2_portable, x)
            assert np.array_equal(_bits(pm.log2_portable(x)), _bits(ref))

    def test_exp2(self, rng):
        for y in self._inputs(rng):
            ref = _quiet(ref_exp2_portable, y)
            assert np.array_equal(_bits(_quiet(pm.exp2_portable, y)), _bits(ref))

    def test_out_may_be_the_input(self, rng):
        for x in self._inputs(rng):
            y = x.copy()
            assert _quiet(pm.exp2_portable, y, out=y) is y
            assert np.array_equal(_bits(y), _bits(_quiet(ref_exp2_portable, x)))
            y = x.copy()
            assert pm.log2_portable(y, out=y) is y
            assert np.array_equal(_bits(y), _bits(_quiet(ref_log2_portable, x)))

    def test_partial_overlap_rejected(self):
        x = np.ones(2 * _TILE)
        with pytest.raises(ValueError, match="alias"):
            pm.exp2_portable(x[1:], out=x[:-1])

    def test_pow2_int(self, rng):
        # Single lanes too: out-of-range lanes are patched only when an
        # array has one, so every edge must also be its array's extreme.
        edges = [-2**63, -1100, -1075, -1074, -1073, -1024, -1023, -1022,
                 -1021, 0, 1022, 1023, 1024, 1100, 2**63 - 1]
        for n in [
            np.arange(-1200, 1200),
            rng.integers(-3000, 3000, 1 << 14),
            rng.integers(-2**63, 2**63 - 1, 1 << 14, dtype=np.int64),
        ] + [np.array([k]) for k in edges]:
            assert np.array_equal(_bits(pm._pow2_int(n)), _bits(ref_pow2_int(n)))


# -- REL quantizer ---------------------------------------------------------------


@pytest.mark.parametrize("impl", IMPLS)
@pytest.mark.parametrize("dtype,bound", CASES)
class TestRelIdentity:
    def test_encode(self, dtype, bound, impl, rng):
        q = RelQuantizer(bound, dtype=dtype, math_impl=impl)
        v = _values(dtype, rng)
        words, n_lossless = q._encode_words(v)
        ref_words, ref_lossless = _quiet(ref_encode, q, v)
        assert np.array_equal(words, ref_words)
        assert n_lossless == ref_lossless

    def test_decode(self, dtype, bound, impl, rng):
        q = RelQuantizer(bound, dtype=dtype, math_impl=impl)
        w = _hostile_words(q, rng)
        assert np.array_equal(_bits(q._decode_words(w)),
                              _bits(_quiet(ref_decode, q, w)))

    def test_narrow_span(self, dtype, bound, impl, rng):
        """A smooth field takes the bin table, on both sides."""
        q = RelQuantizer(bound, dtype=dtype, math_impl=impl)
        v = _narrow(q, rng)
        seen = _count_exp2(q)
        words, n_lossless = _quiet(q._encode_words, v)
        # one group on the per-lane path alone would be a third
        assert sum(seen) < v.size // 4
        ref_words, ref_lossless = _quiet(ref_encode, q, v)
        assert np.array_equal(words, ref_words)
        assert n_lossless == ref_lossless
        seen.clear()
        out = q._decode_words(words)
        assert sum(seen) < v.size // 4
        assert np.array_equal(_bits(out), _bits(_quiet(ref_decode, q, words)))

    def test_narrow_hostile_words(self, dtype, bound, impl, rng):
        q = RelQuantizer(bound, dtype=dtype, math_impl=impl)
        w = _narrow_words(q, rng)
        seen = _count_exp2(q)
        out = q._decode_words(w)
        # the middle group per lane, the outer two from their tables
        assert _GROUP <= sum(seen) < _GROUP + w.size // 4
        assert np.array_equal(_bits(out), _bits(_quiet(ref_decode, q, w)))


@pytest.mark.parametrize("impl", IMPLS)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_wide_group_takes_every_lane(dtype, impl, rng):
    """A group whose bins span more values than its lanes evaluates
    exp2 on every lane; one holding bin -2^63 cannot wrap into a table."""
    q = RelQuantizer(1e-3, dtype=dtype, math_impl=impl)
    w = _narrow_words(q, rng)[_GROUP:2 * _GROUP]
    seen = _count_exp2(q)
    out = q._decode_words(w)
    assert sum(seen) == w.size
    assert np.array_equal(_bits(out), _bits(_quiet(ref_decode, q, w)))
    seen.clear()
    v = _values(dtype, rng)[:_GROUP]  # an exponent sweep
    words, _ = _quiet(q._encode_words, v)
    assert sum(seen) == v.size
    assert np.array_equal(words, _quiet(ref_encode, q, v)[0])


@pytest.mark.parametrize("impl", IMPLS)
def test_exp2_of_signed_zero(impl):
    """The encoder's -0.0 bins read the table's +0 entry."""
    q = RelQuantizer(0.1, dtype=np.float64, math_impl=impl)
    pos, neg = q._exp2(np.array([0.0])), q._exp2(np.array([-0.0]))
    assert _bits(pos)[0] == _bits(neg)[0]


@pytest.mark.parametrize("impl", IMPLS)
def test_smallest_float64_bound_bins_beyond_2_53(impl):
    """At the smallest legal float64 bound, bins near the ends of the
    exponent range reach about +-1.7e18, where float64 bins are spaced
    256 apart; near-constant input still takes the table, one group
    per end."""
    q = RelQuantizer(2.3e-16, dtype=np.float64, math_impl=impl)
    ulps = np.arange(_GROUP, dtype=np.uint64) % 500
    top = np.float64(np.finfo(np.float64).max).view(np.uint64) - ulps
    bottom = np.float64(np.finfo(np.float64).tiny).view(np.uint64) + ulps
    v = np.concatenate([top, bottom]).view(np.float64)
    v[::2] *= -1
    assert np.abs(np.rint(np.log2(np.abs(v)) / q._log_step)).min() > 2.0**60
    seen = _count_exp2(q)
    words, n_lossless = q._encode_words(v)
    ref_words, ref_lossless = ref_encode(q, v)
    assert np.array_equal(words, ref_words) and n_lossless == ref_lossless
    assert np.array_equal(_bits(q._decode_words(words)),
                          _bits(ref_decode(q, words)))
    assert sum(seen) < 2 * v.size // 4


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("size", [0, 1, _TILE - 1, _TILE, _TILE + 1,
                                  _GROUP - 1, _GROUP, _GROUP + 1])
def test_tile_edges(dtype, size, rng):
    """Sizes around one tile and one group, through the batch entry
    points."""
    q = RelQuantizer(1e-3, dtype=dtype)
    v = rng.choice(_values(dtype, rng), size)
    words = np.empty(size, dtype=q.layout.uint_dtype)
    n_lossless = q.encode_batch_into(v.reshape(1, -1), words.reshape(1, -1))
    ref_words, ref_lossless = _quiet(ref_encode, q, v)
    assert np.array_equal(words, ref_words) and n_lossless == ref_lossless

    out = np.empty(size, dtype=dtype)
    q.decode_batch_into(words.reshape(1, -1), out.reshape(1, -1))
    assert np.array_equal(_bits(out), _bits(_quiet(ref_decode, q, words)))


def test_batch_paths_allocate_tile_scratch_only():
    """A 16 MiB float32 block encodes and decodes in tile-sized scratch:
    well under 4 MiB beyond the caller's buffers, where whole-block
    temporaries once peaked above 500 MiB."""
    scratch_release()  # the budget covers this call's own scratch too
    q = RelQuantizer(1e-3, dtype=np.float32)
    field = np.random.default_rng(3).normal(0, 0.05, 1 << 22)
    v = np.cumsum(field).astype(np.float32).reshape(1024, 4096)
    words = np.empty(v.shape, dtype=np.uint32)
    out = np.empty(v.shape, dtype=np.float32)
    budget = 4 << 20
    tracemalloc.start()
    try:
        q.encode_batch_into(v, words)
        _, encode_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        q.decode_batch_into(words, out)
        _, decode_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert encode_peak < budget, f"encode peak {encode_peak / 2**20:.1f} MiB"
    assert decode_peak < budget, f"decode peak {decode_peak / 2**20:.1f} MiB"

"""ABS/NOA dequantize: every entry point is bit-identical to the reference.

The decoder writes its floats into the caller's buffer out of reused
scratch (int32 bins for float32).  The reference below is the original
whole-array formula -- magnitude-sign decode to int64, cast, multiply,
select -- kept verbatim so a rewrite of the fast path cannot drift from
it.  Comparisons are on the raw bits, so NaN payloads and signed zeros
count.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.quantizers import AbsQuantizer, NoaQuantizer

DTYPES = [np.float32, np.float64]


def reference_decode(q: AbsQuantizer, w: np.ndarray) -> np.ndarray:
    """The pre-scratch ``AbsQuantizer._decode_words``, unchanged."""
    lay = q.layout
    is_bin = lay.is_denormal_range(w)
    b = lay.magsign_decode(w)
    with np.errstate(over="ignore"):
        recon = b.astype(lay.float_dtype) * q._two_eps
    out_bits = np.where(is_bin, lay.to_bits(recon), w)
    return lay.from_bits(out_bits.astype(lay.uint_dtype))


def edge_words(q: AbsQuantizer) -> np.ndarray:
    """Bin codes and lossless words at the edges of the encoding."""
    lay = q.layout
    sign, mant, expo = lay.sign_mask, lay.mantissa_mask, lay.exponent_mask
    return np.array([
        0,                    # bin 0
        sign,                 # sign bit, magnitude 0: must decode to +0.0
        1, sign | 1,          # smallest bins
        mant, sign | mant,    # largest bin magnitude
        expo, sign | expo,    # +-inf
        expo | 1,             # signalling NaN
        expo | (1 << (lay.mantissa_bits - 1)),  # quiet NaN
        sign | expo | mant,   # negative NaN, full payload
        1 << lay.mantissa_bits,                 # smallest normal, lossless
        lay.abs_mask ^ (1 << lay.mantissa_bits),  # largest finite, lossless
    ], dtype=lay.uint_dtype)


def word_sample(q: AbsQuantizer, seed: int) -> np.ndarray:
    """Random words (mostly lossless) plus random bins, plus every edge."""
    lay = q.layout
    rng = np.random.default_rng(seed)
    info = np.iinfo(lay.uint_dtype)
    anything = rng.integers(0, info.max, 4096, dtype=lay.uint_dtype, endpoint=True)
    bins = rng.integers(0, lay.mantissa_mask, 4096, dtype=lay.uint_dtype, endpoint=True)
    bins[::2] |= lay.uint(lay.sign_mask)
    words = np.concatenate([anything, bins, edge_words(q)])
    pad = (-words.size) % 64
    return np.concatenate([words, np.full(pad, lay.sign_mask, dtype=lay.uint_dtype)])


def quantizers(dtype):
    """A typical bound, and one so large that ``bin * 2eps`` overflows."""
    huge = 1e38 if dtype == np.float32 else 1e307
    return [AbsQuantizer(1e-3, dtype=dtype), AbsQuantizer(huge, dtype=dtype)]


def bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.uint32 if a.dtype == np.float32 else np.uint64)


@pytest.mark.parametrize("dtype", DTYPES)
class TestAbsDecodeIdentity:
    def test_decode_into(self, dtype):
        for q in quantizers(dtype):
            w = word_sample(q, 1)
            out = np.empty(w.size, dtype=dtype)
            assert q.decode_into(w, out) is out
            assert np.array_equal(bits(out), bits(reference_decode(q, w)))

    def test_decode_batch_into(self, dtype):
        for q in quantizers(dtype):
            w = word_sample(q, 2).reshape(-1, 64)
            out = np.empty(w.shape, dtype=dtype)
            assert q.decode_batch_into(w, out) is out
            ref = reference_decode(q, w.reshape(-1)).reshape(w.shape)
            assert np.array_equal(bits(out), bits(ref))

    def test_whole_array_decode(self, dtype):
        for q in quantizers(dtype):
            w = word_sample(q, 3)
            assert np.array_equal(bits(q.decode(w)), bits(reference_decode(q, w)))

    def test_strided_and_aliased_out_fall_back(self, dtype):
        q = quantizers(dtype)[0]
        w = word_sample(q, 4).reshape(-1, 64)
        ref = reference_decode(q, w.reshape(-1)).reshape(w.shape)
        backing = np.zeros((w.shape[0], 128), dtype=dtype)
        strided = backing[:, ::2]
        q.decode_batch_into(w, strided)
        assert np.array_equal(bits(strided), bits(ref))
        assert not backing[:, 1::2].any()
        # Decoding a word block into its own memory reads every word first.
        inplace = w.copy()
        q.decode_batch_into(inplace, inplace.view(dtype))
        assert np.array_equal(inplace, bits(ref))

    def test_signed_zero_bin_is_positive_zero(self, dtype):
        q = quantizers(dtype)[0]
        w = np.array([q.layout.sign_mask] * 8, dtype=q.layout.uint_dtype)
        out = np.empty(8, dtype=dtype)
        q.decode_into(w, out)
        assert not bits(out).any()

    def test_overflowing_bins_decode_to_inf(self, dtype):
        q = quantizers(dtype)[1]
        lay = q.layout
        w = np.array([lay.mantissa_mask, lay.sign_mask | lay.mantissa_mask],
                     dtype=lay.uint_dtype)
        out = np.empty(2, dtype=dtype)
        q.decode_into(w, out)
        assert out[0] == np.inf and out[1] == -np.inf


@pytest.mark.parametrize("dtype", DTYPES)
def test_noa_delegates_to_abs(dtype):
    noa = NoaQuantizer(1e-4, dtype=dtype, value_range=37.5)
    w = word_sample(noa._abs, 5)
    ref = reference_decode(noa._abs, w)
    flat = np.empty(w.size, dtype=dtype)
    noa.decode_into(w, flat)
    block = np.empty((w.size // 64, 64), dtype=dtype)
    noa.decode_batch_into(w.reshape(block.shape), block)
    assert np.array_equal(bits(flat), bits(ref))
    assert np.array_equal(bits(block.reshape(-1)), bits(ref))
    assert np.array_equal(bits(noa.decode(w)), bits(ref))


def test_noa_without_range_refuses_to_decode():
    noa = NoaQuantizer(1e-3)
    with pytest.raises(RuntimeError, match="value range"):
        noa.decode_into(np.zeros(8, dtype=np.uint32), np.empty(8, dtype=np.float32))


def test_decode_never_leaves_scratch_in_the_result():
    # The result is the caller's buffer; a later decode reusing the same
    # scratch arenas must not change it.
    q = AbsQuantizer(1e-3)
    w1, w2 = word_sample(q, 6), word_sample(q, 7)
    first = q.decode(w1)
    keep = first.copy()
    q.decode(w2)
    assert np.array_equal(bits(first), bits(keep))

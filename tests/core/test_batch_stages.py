"""Chunk-major batch stages: bit-identity against the per-chunk codec.

Every batched stage (2-D quantizers, delta+negabinary, bitshuffle,
zero-byte elimination) must produce *exactly* the bytes of mapping its
per-chunk counterpart over the rows -- the stream format does not know
which formulation encoded it.  These goldens pin that equivalence on
adversarial content: sign-crossing residuals (which defeat the
leading-zero-plane skip), all-zero blocks (which maximize it), wrapping
deltas, and full-entropy noise.

The scratch-arena discipline is covered too: stage results must never
alias the reusable per-thread scratch buffers, so calling a stage again
cannot corrupt an earlier return value.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.lossless.batch import (
    compress_bytes_batch,
    compressed_sizes_batch,
    decompress_bytes_batch,
    repeat_eliminate_batch,
    repeat_restore_batch,
    row_offsets,
    zero_eliminate_batch,
)
from repro.core.lossless.bitshuffle import (
    bitshuffle,
    bitshuffle_batch,
    bitunshuffle_batch,
)
from repro.core.lossless.delta import (
    delta_decode_batch,
    delta_encode,
    delta_encode_batch,
)
from repro.core.lossless.zerobyte import (
    bitmap_sizes,
    compress_bytes,
    decompress_bytes,
    repeat_eliminate,
    zero_eliminate,
)
from repro.core.quantizers import make_quantizer
from repro.core.scratch import scratch
from repro.errors import PFPLIntegrityError, PFPLUsageError

WORD_DTYPES = [np.uint32, np.uint64]


def _word_matrix(rng, n_chunks, n_words, dtype):
    """Rows mixing smooth residual-like runs with full-entropy noise."""
    info = np.iinfo(dtype)
    mat = rng.integers(0, 255, (n_chunks, n_words), dtype=dtype)
    mat[::2] = rng.integers(0, info.max, (max(1, (n_chunks + 1) // 2), n_words),
                            dtype=dtype)[: len(mat[::2])]
    mat[0, :] = 0  # an all-zero chunk rides along
    return mat


class TestDeltaBatch:
    @pytest.mark.parametrize("dtype", WORD_DTYPES)
    def test_matches_per_chunk(self, rng, dtype):
        mat = _word_matrix(rng, 5, 64, dtype)
        got = delta_encode_batch(mat)
        for i in range(mat.shape[0]):
            assert np.array_equal(got[i], delta_encode(mat[i])), f"row {i}"

    @pytest.mark.parametrize("dtype", WORD_DTYPES)
    def test_roundtrip(self, rng, dtype):
        mat = _word_matrix(rng, 4, 48, dtype)
        assert np.array_equal(delta_decode_batch(delta_encode_batch(mat)), mat)

    def test_out_buffer_is_used_and_validated(self, rng):
        mat = _word_matrix(rng, 3, 16, np.uint32)
        out = np.empty_like(mat)
        got = delta_encode_batch(mat, out=out)
        assert got is out
        assert np.array_equal(out, delta_encode_batch(mat))
        with pytest.raises(TypeError):
            delta_encode_batch(mat, out=np.empty((3, 8), dtype=np.uint32))

    def test_wrapping_difference(self):
        # Max-distance neighbours must wrap exactly like the 1-D stage.
        mat = np.array([[0, 0xFFFFFFFF, 0, 1]], dtype=np.uint32)
        assert np.array_equal(delta_encode_batch(mat)[0], delta_encode(mat[0]))


class TestBitshuffleBatch:
    @pytest.mark.parametrize("dtype", WORD_DTYPES)
    @pytest.mark.parametrize("n_chunks", [1, 3, 8])
    def test_matches_per_chunk(self, rng, dtype, n_chunks):
        mat = _word_matrix(rng, n_chunks, 64, dtype)
        got = bitshuffle_batch(mat)
        for i in range(n_chunks):
            assert np.array_equal(got[i], bitshuffle(mat[i])), f"row {i}"

    @pytest.mark.parametrize("dtype", WORD_DTYPES)
    def test_small_words_trigger_plane_skip(self, rng, dtype):
        # All words tiny => leading byte planes all zero => the skip
        # path runs; output must still match the per-chunk transpose.
        mat = rng.integers(0, 200, (4, 32), dtype=dtype)
        got = bitshuffle_batch(mat)
        for i in range(4):
            assert np.array_equal(got[i], bitshuffle(mat[i]))

    @pytest.mark.parametrize("dtype", WORD_DTYPES)
    def test_roundtrip(self, rng, dtype):
        mat = _word_matrix(rng, 5, 40, dtype)
        planes = bitshuffle_batch(mat)
        assert np.array_equal(bitunshuffle_batch(planes, dtype), mat)

    def test_out_buffer_validated(self, rng):
        mat = _word_matrix(rng, 2, 16, np.uint32)
        with pytest.raises(PFPLUsageError):
            bitshuffle_batch(mat, out=np.empty((2, 8), dtype=np.uint8))
        with pytest.raises(PFPLUsageError):
            bitshuffle_batch(np.zeros((2, 7), dtype=np.uint32))

    def test_unshuffle_rejects_bad_geometry(self):
        with pytest.raises(PFPLIntegrityError):
            bitunshuffle_batch(np.zeros((2, 13), dtype=np.uint8), np.uint32)
        # 16 bytes = 4 u32 words: not a multiple of the 8-word lane.
        with pytest.raises(PFPLIntegrityError):
            bitunshuffle_batch(np.zeros((2, 16), dtype=np.uint8), np.uint32)


class TestZeroElimBatch:
    def test_zero_eliminate_matches_per_chunk(self, rng):
        data = rng.integers(0, 4, (6, 96), dtype=np.uint8) * \
            rng.integers(0, 255, (6, 96), dtype=np.uint8)
        bitmap, kept, counts = zero_eliminate_batch(data)
        offs = row_offsets(counts)
        for i in range(6):
            bm, kp = zero_eliminate(data[i])
            assert np.array_equal(bitmap[i], bm)
            assert np.array_equal(kept[offs[i]:offs[i] + counts[i]], kp)

    def test_repeat_eliminate_matches_per_chunk(self, rng):
        data = np.repeat(rng.integers(0, 255, (4, 24), dtype=np.uint8), 4, axis=1)
        bitmap, kept, counts = repeat_eliminate_batch(data)
        offs = row_offsets(counts)
        for i in range(4):
            bm, kp = repeat_eliminate(data[i])
            assert np.array_equal(bitmap[i], bm)
            assert np.array_equal(kept[offs[i]:offs[i] + counts[i]], kp)

    def test_repeat_rows_never_see_neighbours(self):
        # Row 1 starts with row 0's last byte: the per-row 0x00 seed
        # must keep it, not elide it as a cross-row repeat.
        data = np.array([[7, 7, 7, 7], [7, 7, 9, 9]], dtype=np.uint8)
        bitmap, kept, counts = repeat_eliminate_batch(data)
        bm1, kp1 = repeat_eliminate(data[1])
        assert np.array_equal(bitmap[1], bm1)
        assert np.array_equal(kept[int(counts[0]):], kp1)

    def test_repeat_restore_batch_inverts(self, rng):
        data = np.repeat(rng.integers(0, 9, (5, 16), dtype=np.uint8), 3, axis=1)
        _, kept, counts = repeat_eliminate_batch(data)
        prev = np.zeros_like(data)
        prev[:, 1:] = data[:, :-1]
        restored = repeat_restore_batch(data != prev, kept, counts)
        assert np.array_equal(restored, data)

    def test_compress_bytes_batch_matches_per_chunk(self, rng):
        data = rng.integers(0, 3, (7, 128), dtype=np.uint8) * \
            rng.integers(0, 255, (7, 128), dtype=np.uint8)
        blobs = compress_bytes_batch(data)
        assert blobs == [compress_bytes(data[i]) for i in range(7)]

    def test_decompress_bytes_batch_roundtrip(self, rng):
        data = rng.integers(0, 2, (5, 64), dtype=np.uint8) * 200
        blobs = compress_bytes_batch(data)
        stream = np.frombuffer(b"".join(blobs), dtype=np.uint8)
        sizes = np.array([len(b) for b in blobs], dtype=np.int64)
        starts = row_offsets(sizes)
        out = decompress_bytes_batch(stream, starts, sizes, 64)
        assert np.array_equal(out, data)

    def test_decompress_bytes_batch_rejects_size_mismatch(self, rng):
        data = rng.integers(0, 2, (3, 64), dtype=np.uint8) * 9
        blobs = compress_bytes_batch(data)
        stream = np.frombuffer(b"".join(blobs), dtype=np.uint8)
        sizes = np.array([len(b) for b in blobs], dtype=np.int64)
        starts = row_offsets(sizes)
        sizes = sizes + np.array([0, 1, 0])  # lie about one chunk's span
        with pytest.raises(PFPLIntegrityError):
            decompress_bytes_batch(stream, starts, sizes, 64)

    def test_decompress_bytes_batch_rejects_overrun(self):
        # A blob whose size-table extent reaches past the payload.
        blob = np.frombuffer(compress_bytes_batch(np.full((1, 64), 7, np.uint8))[0],
                             dtype=np.uint8)
        with pytest.raises(PFPLIntegrityError, match="outside"):
            decompress_bytes_batch(blob, np.array([0]), np.array([blob.size + 5]), 64)


#: Row widths whose bitmap at every level (level 0 and four repeat
#: levels) ends in padding bits: 4681 -> 586 -> 74 -> 10 -> 2 -> 1
#: bytes, each bit count indivisible by 8.  The others cover tiny rows
#: and the 64-bit popcount path (bitmap widths divisible by 8).
SIZING_WIDTHS = [1, 3, 9, 71, 577, 4681, 64, 512, 16384]


def _edge_rows(n: int) -> np.ndarray:
    """All-zero, all-0xFF, alternating, and lone non-zero first/last rows."""
    rows = np.zeros((7, n), dtype=np.uint8)
    rows[1] = 0xFF
    rows[2, ::2] = 0xFF
    rows[3, 1::2] = 1
    rows[4] = np.resize(np.array([0xAA, 0x55], dtype=np.uint8), n)
    rows[5, 0] = 9
    rows[6, -1] = 9
    return rows


class TestCompressedSizes:
    """``compressed_sizes_batch`` is ``len(compress_bytes(row))``, exactly,
    for every row -- the sizing pass v3 selection trusts instead of
    compacting every candidate."""

    @staticmethod
    def _check(data, levels=4):
        sizes = compressed_sizes_batch(data, levels=levels)
        assert sizes.dtype == np.int64 and sizes.shape == (data.shape[0],)
        assert sizes.tolist() == [
            len(compress_bytes(row, levels=levels)) for row in data
        ]

    def test_padding_widths_cover_every_level(self):
        sizes = [4681] + bitmap_sizes(4681)[:-1]
        assert all(bits % 8 for bits in sizes), sizes

    def test_zero_and_one_rows(self, rng):
        self._check(np.zeros((0, 64), dtype=np.uint8))
        assert compressed_sizes_batch(np.zeros((0, 64), dtype=np.uint8)).size == 0
        self._check(rng.integers(0, 255, (1, 64), dtype=np.uint8))
        self._check(np.zeros((1, 0), dtype=np.uint8))

    @pytest.mark.parametrize("n", SIZING_WIDTHS)
    def test_edge_rows(self, n):
        self._check(_edge_rows(n))

    @pytest.mark.parametrize("n", SIZING_WIDTHS)
    def test_random_rows(self, rng, n):
        data = rng.integers(0, 3, (6, n), dtype=np.uint8) * \
            rng.integers(0, 255, (6, n), dtype=np.uint8)
        self._check(data)

    @pytest.mark.parametrize("levels", range(7))
    @pytest.mark.parametrize("n", [4681, 16384])
    def test_every_level_count(self, rng, levels, n):
        data = np.concatenate([
            _edge_rows(n),
            rng.integers(0, 2, (3, n), dtype=np.uint8)
            * rng.integers(1, 255, (3, n), dtype=np.uint8),
        ])
        self._check(data, levels=levels)

    @pytest.mark.parametrize("dtype", WORD_DTYPES)
    def test_word_streams(self, rng, dtype):
        # The three candidate streams selection sizes: shuffled delta
        # planes, raw delta words, and the words untouched.
        words = _word_matrix(rng, 5, 512, dtype)
        delta = delta_encode_batch(words)
        for stream in (bitshuffle_batch(delta), delta.view(np.uint8),
                       words.view(np.uint8)):
            self._check(np.ascontiguousarray(stream).reshape(5, -1))

    def test_counts_match_compaction(self, rng):
        # The popcount kept counts of both eliminations equal the bytes
        # the compaction actually kept.
        data = np.concatenate([_edge_rows(577),
                               rng.integers(0, 4, (4, 577), dtype=np.uint8)])
        for eliminate in (zero_eliminate_batch, repeat_eliminate_batch):
            _, kept, counts = eliminate(data)
            assert counts.dtype == np.int64
            assert int(counts.sum()) == kept.size
            reference = zero_eliminate if eliminate is zero_eliminate_batch \
                else repeat_eliminate
            assert counts.tolist() == [reference(row)[1].size for row in data]


def _blob_stream(rng, rows: int, n: int, zero_row: int | None = None):
    """``rows`` random chunks (optionally one all-zero) as one stream."""
    data = rng.integers(0, 3, (rows, n), dtype=np.uint8) * \
        rng.integers(1, 255, (rows, n), dtype=np.uint8)
    if zero_row is not None:
        data[zero_row] = 0
    blobs = compress_bytes_batch(data)
    sizes = np.array([len(b) for b in blobs], dtype=np.int64)
    # A trailing guard blob: reads past the last row's extent still hit
    # stream bytes, so only the size-table check can stop them.
    stream = np.frombuffer(b"".join(blobs) + blobs[0], dtype=np.uint8).copy()
    return data, stream, row_offsets(sizes), sizes


@pytest.mark.parametrize("rows", [1, 64])
class TestZeroRestoreBoundaries:
    """The batch decoder at the ends of its geometry: 1 row and 64 rows."""

    N = 4096  # level sizes 512/64/8/1/1: a 1-bit level under a 1-byte top

    def test_roundtrip_matches_per_chunk(self, rng, rows):
        zero = rows - 1 if rows > 1 else None
        data, stream, starts, sizes = _blob_stream(rng, rows, self.N, zero)
        out = decompress_bytes_batch(stream, starts, sizes, self.N)
        assert np.array_equal(out, data)
        for i in range(rows):
            blob = stream[starts[i]:starts[i] + sizes[i]]
            assert np.array_equal(out[i], decompress_bytes(blob, self.N))

    @pytest.mark.parametrize("at_end", [False, True])
    def test_level_count_past_extent_rejected(self, rng, rows, at_end):
        zero = rows - 1 if at_end else rows // 2
        _, stream, starts, sizes = _blob_stream(rng, rows, self.N, zero)
        assert sizes[zero] == 1  # an all-zero chunk is its top bitmap
        if at_end:
            stream = stream[: int(starts[-1] + sizes[-1])]
        # The top bitmap now claims one level-3 byte: it lies in the next
        # chunk's blob (or past the end of the stream), outside this
        # chunk's size-table extent.
        stream[starts[zero]] = 0x80
        with pytest.raises(PFPLIntegrityError, match=f"batched chunk {zero}"):
            decompress_bytes_batch(stream, starts, sizes, self.N)

    def test_padding_bits_ignored_like_per_chunk(self, rng, rows):
        zero = rows // 2
        _, stream, starts, sizes = _blob_stream(rng, rows, self.N, zero)
        # Only the top byte's 7 padding bits: the 1-bit level reads none.
        stream[starts[zero]] = 0x7F
        out = decompress_bytes_batch(stream, starts, sizes, self.N)
        blob = stream[starts[zero]:starts[zero] + 1]
        assert not out[zero].any()
        assert np.array_equal(out[zero], decompress_bytes(blob, self.N))

    def test_stream_cut_mid_blob_rejected(self, rng, rows):
        _, stream, starts, sizes = _blob_stream(rng, rows, self.N)
        last = rows - 1
        assert sizes[last] > 100
        cut = stream[: int(starts[last] + sizes[last] // 2)]
        with pytest.raises(PFPLIntegrityError, match=f"batched chunk {last}"):
            decompress_bytes_batch(cut, starts, sizes, self.N)

    def test_planes_never_alias_the_stream(self, rng, rows):
        data, stream, starts, sizes = _blob_stream(rng, rows, self.N)
        stream.flags.writeable = False
        out = decompress_bytes_batch(stream, starts, sizes, self.N)
        assert not np.shares_memory(out, stream)
        assert out.flags.writeable and out.flags.c_contiguous
        out[:] = 0xEE  # the caller owns the planes
        assert np.array_equal(
            decompress_bytes_batch(stream, starts, sizes, self.N), data
        )


class TestQuantizerBatch:
    @pytest.mark.parametrize("mode", ["abs", "rel", "noa"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_encode_batch_matches_per_chunk(self, rng, mode, dtype):
        data = np.cumsum(rng.normal(0, 0.05, (6, 256)), axis=1).astype(dtype)
        data += 2.0  # keep REL away from zero
        data[3, ::7] = rng.integers(0, 2**32, 37, dtype=np.uint32).view(
            np.float32
        ).astype(dtype)[:37]  # outlier lanes exercise the raw fallback
        q = make_quantizer(mode, 1e-3, dtype=np.dtype(dtype))
        q.prepare(data.reshape(-1))
        udt = q.layout.uint_dtype
        batch = np.empty(data.shape, dtype=udt)
        n_batch = q.encode_batch_into(data, batch)
        n_rows = 0
        for i in range(data.shape[0]):
            row = np.empty(data.shape[1], dtype=udt)
            n_rows += q.encode_into(data[i], row)
            assert np.array_equal(batch[i], row), f"row {i}"
        assert n_batch == n_rows

    @pytest.mark.parametrize("mode", ["abs", "rel", "noa"])
    def test_decode_batch_matches_per_chunk(self, rng, mode):
        data = np.cumsum(rng.normal(0, 0.05, (4, 128)), axis=1).astype(np.float32) + 2.0
        q = make_quantizer(mode, 1e-3, dtype=np.dtype(np.float32))
        q.prepare(data.reshape(-1))
        words = np.empty(data.shape, dtype=q.layout.uint_dtype)
        q.encode_batch_into(data, words)
        batch_out = np.empty(data.shape, dtype=np.float32)
        q.decode_batch_into(words, batch_out)
        for i in range(data.shape[0]):
            row_out = np.empty(data.shape[1], dtype=np.float32)
            q.decode_into(words[i], row_out)
            assert np.array_equal(batch_out[i], row_out), f"row {i}"

    def test_noncontiguous_out_still_bit_identical(self, rng):
        # The fast flat path needs a contiguous out; a strided view must
        # fall back to the row loop with identical bytes.
        data = np.cumsum(rng.normal(0, 0.05, (4, 64)), axis=1).astype(np.float32)
        q = make_quantizer("abs", 1e-3, dtype=np.dtype(np.float32))
        q.prepare(data.reshape(-1))
        flat = np.empty(data.shape, dtype=np.uint32)
        q.encode_batch_into(data, flat)
        backing = np.empty((4, 128), dtype=np.uint32)
        strided = backing[:, ::2]
        q.encode_batch_into(data, strided)
        assert np.array_equal(strided, flat)


class TestScratchDiscipline:
    def test_same_key_reuses_memory(self):
        a = scratch("test.slot", 64, np.uint8)
        b = scratch("test.slot", 64, np.uint8)
        assert a.base is b.base

    def test_arena_grows_and_shrinks_views(self):
        small = scratch("test.grow", 16, np.uint8)
        big = scratch("test.grow", 1024, np.uint8)
        assert big.size == 1024
        again = scratch("test.grow", 16, np.uint8)
        assert again.size == 16 and again.base is big.base
        assert small.size == 16

    def test_shapes_and_dtypes_view_one_arena(self):
        m = scratch("test.view", (4, 8), np.uint64)
        assert m.shape == (4, 8) and m.dtype == np.uint64

    def test_stage_results_never_alias_scratch(self, rng):
        # Calling a stage twice must not corrupt the first call's
        # return values (returns are fresh arrays, scratch is internal).
        d1 = rng.integers(0, 3, (3, 64), dtype=np.uint8) * 100
        d2 = rng.integers(0, 3, (3, 64), dtype=np.uint8) * 50
        bm1, kept1, cnt1 = zero_eliminate_batch(d1)
        bm1c, kept1c, cnt1c = bm1.copy(), kept1.copy(), cnt1.copy()
        zero_eliminate_batch(d2)
        assert np.array_equal(bm1, bm1c)
        assert np.array_equal(kept1, kept1c)
        assert np.array_equal(cnt1, cnt1c)

        mat1 = _word_matrix(rng, 3, 32, np.uint32)
        mat2 = _word_matrix(rng, 3, 32, np.uint32)
        p1 = bitshuffle_batch(mat1)
        p1c = p1.copy()
        bitshuffle_batch(mat2)
        assert np.array_equal(p1, p1c)

"""Random-access partial decompression (extension feature)."""

import os

import numpy as np
import pytest

from repro.core import compress, decompress
from repro.core.header import HEADER_BYTES, Header
from repro.core.random_access import (
    _FileSource,
    chunk_count,
    decompress_chunk,
    decompress_range,
)
from repro.device import get_backend
from repro.errors import PFPLTruncatedError
from repro.io import PFPLReader


@pytest.fixture(scope="module")
def stream_and_data():
    r = np.random.default_rng(99)
    data = np.cumsum(r.normal(0, 0.05, 50_000)).astype(np.float32)
    return compress(data, "abs", 1e-3), data


class TestDecompressRange:
    @pytest.mark.parametrize("start,count", [
        (0, 100), (4095, 2), (4096, 4096), (10_000, 12_345),
        (49_990, 10), (0, 50_000),
    ])
    def test_matches_full_decode(self, stream_and_data, start, count):
        stream, data = stream_and_data
        full = decompress(stream)
        window = decompress_range(stream, start, count)
        assert np.array_equal(window, full[start:start + count])

    def test_empty_range(self, stream_and_data):
        stream, _ = stream_and_data
        assert decompress_range(stream, 1000, 0).size == 0

    def test_out_of_range(self, stream_and_data):
        stream, _ = stream_and_data
        with pytest.raises(IndexError):
            decompress_range(stream, 49_999, 2)
        with pytest.raises(IndexError):
            decompress_range(stream, -1, 5)

    def test_works_with_every_backend(self, stream_and_data):
        stream, data = stream_and_data
        outs = [
            decompress_range(stream, 8000, 1000, backend=get_backend(n))
            for n in ("serial", "omp", "cuda")
        ]
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[0], outs[2])

    @pytest.mark.parametrize("mode", ["rel", "noa"])
    def test_other_modes(self, mode):
        r = np.random.default_rng(7)
        data = (np.cumsum(r.normal(0, 0.1, 20_000)) + 50).astype(np.float32)
        stream = compress(data, mode, 1e-3)
        full = decompress(stream)
        assert np.array_equal(decompress_range(stream, 5000, 3000), full[5000:8000])


class TestDecompressChunk:
    def test_chunk_count(self, stream_and_data):
        stream, data = stream_and_data
        assert chunk_count(stream) == (data.size + 4095) // 4096

    def test_chunks_tile_the_stream(self, stream_and_data):
        stream, data = stream_and_data
        full = decompress(stream)
        pieces = [decompress_chunk(stream, i) for i in range(chunk_count(stream))]
        assert np.array_equal(np.concatenate(pieces), full)

    def test_last_chunk_trimmed(self, stream_and_data):
        stream, data = stream_and_data
        last = decompress_chunk(stream, chunk_count(stream) - 1)
        assert last.size == data.size % 4096 or last.size == 4096

    def test_index_validation(self, stream_and_data):
        stream, _ = stream_and_data
        with pytest.raises(IndexError):
            decompress_chunk(stream, 10_000)


class TestFileSource:
    def test_size_table_checked_against_file_length(self, tmp_path):
        """A valid 44-byte header claiming 2**32 - 1 chunks of 8 words
        asks for a 16 GiB size table; the file holds 144 bytes, so the
        reader must refuse before reading (not attempt the allocation)."""
        n_chunks = 2**32 - 1
        header = Header(
            mode="abs", dtype=np.dtype(np.float32), error_bound=1e-3,
            value_range=0.0, count=8 * n_chunks, words_per_chunk=8,
            n_chunks=n_chunks, use_delta=True, use_bitshuffle=True,
            use_zero_elim=True, bitmap_levels=4,
        )
        path = tmp_path / "hostile.pfpl"
        path.write_bytes(header.pack() + bytes(100))
        with open(path, "rb") as fh:
            with pytest.raises(PFPLTruncatedError):
                PFPLReader(fh)
            with pytest.raises(PFPLTruncatedError):
                _FileSource(fh).fetch(HEADER_BYTES, 4 * n_chunks)

    def test_short_reads_are_resumed(self, stream_and_data, tmp_path, monkeypatch):
        """A positioned read may return fewer bytes than asked (Linux caps
        one at 0x7ffff000 bytes); the source keeps reading."""
        stream, _ = stream_and_data
        path = tmp_path / "s.pfpl"
        path.write_bytes(stream)
        real = os.pread
        monkeypatch.setattr(os, "pread", lambda fd, n, off: real(fd, min(n, 1000), off))
        with open(path, "rb") as fh:
            reader = PFPLReader(fh)
            assert np.array_equal(reader.read(), decompress(stream))
            assert np.array_equal(reader.read(4000, 9000), decompress(stream)[4000:13000])

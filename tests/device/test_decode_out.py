"""``decompress(out=...)`` on every batch backend: the caller's buffer
receives exactly what ``decompress()`` returns.

A run of consecutive rows decodes straight into its slice of the output;
any other row set (raw chunks in between, or a v3 stream whose
pipeline-id groups interleave) decodes into a fresh block and is
scattered across.  Both paths, and a strided caller buffer, must give
the same bits on the serial, threaded and process-pool backends.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import compress, decompress
from repro.core.chunking import ChunkCodec
from repro.core.header import Header
from repro.device.backend import ProcessPoolBackend, SerialBackend, ThreadedBackend

WPC = 4096  # float32 values per 16 kB chunk
N_CHUNKS = 70  # more than one 64-row shard


@pytest.fixture(scope="module")
def backends():
    made = {
        "serial": SerialBackend(),
        "threaded": ThreadedBackend(n_threads=2),
        "procpool": ProcessPoolBackend(n_workers=2),
    }
    yield made
    for backend in made.values():
        backend.close()


def _smooth(rng, n):
    return np.cumsum(rng.normal(0, 0.01, n)).astype(np.float32)


def _sparse(rng, n):
    out = np.zeros(n, dtype=np.float32)
    idx = rng.choice(n, n // 200, replace=False)
    out[idx] = rng.normal(0, 1, idx.size).astype(np.float32)
    return out


def _streams():
    rng = np.random.default_rng(15)
    n = N_CHUNKS * WPC + 123  # plus a ragged tail chunk
    clean = _smooth(rng, n)
    gapped = clean.copy()
    # Random bit patterns are stored losslessly and do not compress:
    # chunk 5 becomes a raw chunk between two batched runs.
    gapped[5 * WPC:6 * WPC] = rng.integers(
        0, 2**32, WPC, dtype=np.uint64).astype(np.uint32).view(np.float32)
    mixed = np.concatenate([
        _smooth(rng, WPC) if i % 3 else _sparse(rng, WPC) for i in range(N_CHUNKS)
    ])
    return {
        "v1": compress(clean, "abs", 1e-3),
        "v1-raw-gap": compress(gapped, "abs", 1e-3),
        "v3-interleaved": compress(mixed, "abs", 1e-3, format_version=3,
                                   pipelines=("default", "no-shuffle", "direct-zero")),
    }


STREAMS = _streams()


def _row_groups(stream: bytes):
    head = Header.unpack(stream)
    _, raw, pids, _ = ChunkCodec.parse_size_table(
        head.read_size_table(stream), head.pipeline_select
    )
    return raw, pids


def test_stream_shapes_cover_both_paths():
    raw, _ = _row_groups(STREAMS["v1"])
    assert not raw.any()
    raw, _ = _row_groups(STREAMS["v1-raw-gap"])
    assert raw[5] and raw.sum() == 1
    raw, pids = _row_groups(STREAMS["v3-interleaved"])
    used = np.unique(pids[~raw])
    assert used.size >= 2  # every pipeline-id group has gaps
    for pid in used:
        rows = np.flatnonzero(~raw & (pids == pid))
        assert rows[-1] - rows[0] + 1 > rows.size


@pytest.mark.parametrize("name", sorted(STREAMS))
@pytest.mark.parametrize("backend_name", ["serial", "threaded", "procpool"])
class TestDecompressOut:
    def test_contiguous_buffer(self, backends, backend_name, name):
        stream = STREAMS[name]
        want = decompress(stream, backend=SerialBackend())
        buf = np.full(want.size, np.nan, dtype=np.float32)
        got = decompress(stream, backend=backends[backend_name], out=buf)
        assert got is buf
        assert np.array_equal(buf.view(np.uint32), want.view(np.uint32))

    def test_strided_view(self, backends, backend_name, name):
        stream = STREAMS[name]
        want = decompress(stream, backend=SerialBackend())
        backing = np.full(2 * want.size, -7.0, dtype=np.float32)
        view = backing[::2]
        decompress(stream, backend=backends[backend_name], out=view)
        assert np.array_equal(view.view(np.uint32), want.view(np.uint32))
        assert np.all(backing[1::2] == -7.0)

"""Every decoder agrees with ``decompress`` bit for bit.

``decompress``, ``decode_range``/``decode_all`` and ``PFPLReader`` are one
driver (``StreamDecoder``).  Each window below is decoded from bytes, a
real file (the ``pread`` source) and ``BytesIO``, on the serial, threaded,
process-pool and simulated-GPU backends, from v1, v2 and v3 streams, and
must equal the matching slice of ``decompress(stream)``.  The windows
cover chunk-aligned and unaligned edges, a window inside one chunk, one
ending in the ragged tail, one spanning a raw chunk and ones spanning a
pipeline-id change.
"""

from __future__ import annotations

import io
import os
import tracemalloc
from collections import deque

import numpy as np
import pytest

from repro.core import compress, decompress
from repro.core.chunking import ChunkCodec
from repro.core.header import Header
from repro.core.kernel import ChunkKernel
from repro.core.random_access import StreamDecoder
from repro.device.backend import (
    GpuSimBackend,
    ProcessPoolBackend,
    SerialBackend,
    ThreadedBackend,
)
from repro.telemetry import Telemetry

W = 4096  # float32 values per 16 kB chunk
N_FULL = 40
N = N_FULL * W + 1000  # plus a ragged tail chunk
RAW_CHUNK = 5
SPARSE = range(10, 20)  # chunks a v3 stream encodes with another pipeline

WINDOWS = {
    "aligned": (8 * W, 8 * W),
    "unaligned": (3 * W + 100, 6 * W + 17),
    "one-chunk": (7 * W + 5, 50),
    "tail": (N - 2 * W - 300, 2 * W + 300),
    "raw-chunk": (RAW_CHUNK * W - 10, W + 20),
    "pid-change-in": (SPARSE.start * W - 700, 1500),
    "pid-change-out": (SPARSE.stop * W - 5, 10),
    "wide": (123, N - 500),
    "all": (0, N),
}


def _data() -> np.ndarray:
    rng = np.random.default_rng(19)
    data = np.cumsum(rng.normal(0, 0.01, N)).astype(np.float32)
    # Finite floats far beyond the bound's bin range, with random sign,
    # exponent and mantissa: stored losslessly, no pipeline shrinks them.
    bits = rng.integers(0, 2**32, W, dtype=np.uint64).astype(np.uint32)
    exponent = rng.integers(150, 255, W).astype(np.uint32)
    data[RAW_CHUNK * W:(RAW_CHUNK + 1) * W] = (
        (bits & np.uint32(0x807FFFFF)) | (exponent << np.uint32(23))
    ).view(np.float32)
    sparse = np.zeros(len(SPARSE) * W, dtype=np.float32)
    spikes = rng.choice(sparse.size, sparse.size // 200, replace=False)
    sparse[spikes] = rng.normal(0, 1, spikes.size).astype(np.float32)
    data[SPARSE.start * W:SPARSE.stop * W] = sparse
    return data


DATA = _data()
STREAMS = {
    "v1": compress(DATA, "abs", 1e-3),
    "v2": compress(DATA, "abs", 1e-3, checksum=True),
    "v3": compress(DATA, "abs", 1e-3, format_version=3),
}
WANT = {name: decompress(stream) for name, stream in STREAMS.items()}


def _table(stream: bytes):
    head = Header.unpack(stream)
    _, raw, pids, _ = ChunkCodec.parse_size_table(
        head.read_size_table(stream), head.pipeline_select
    )
    return head, raw, pids


@pytest.fixture(scope="module")
def backends():
    made = {
        "serial": SerialBackend(),
        "threaded": ThreadedBackend(n_threads=2),
        "procpool": ProcessPoolBackend(n_workers=2),
        "gpu-sim": GpuSimBackend(),
    }
    yield made
    for backend in made.values():
        backend.close()


@pytest.fixture(scope="module")
def stream_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("streams")
    paths = {}
    for name, stream in STREAMS.items():
        paths[name] = root / f"{name}.pfpl"
        paths[name].write_bytes(stream)
    return paths


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and np.array_equal(a.view(np.uint32), b.view(np.uint32))


def test_streams_cover_every_window_kind():
    for name, stream in STREAMS.items():
        head, raw, pids = _table(stream)
        assert head.n_chunks == N_FULL + 1
        assert raw[RAW_CHUNK] and raw.sum() == 1, name
        assert head.checksum == (name == "v2")
    _, _, pids = _table(STREAMS["v3"])
    assert pids[SPARSE.start - 1] != pids[SPARSE.start]
    assert pids[SPARSE.stop - 1] != pids[SPARSE.stop]
    assert WINDOWS["wide"][1] // W >= 32  # two shards on two threads


@pytest.mark.parametrize("backend_name", ["serial", "threaded", "procpool", "gpu-sim"])
@pytest.mark.parametrize("source", ["bytes", "file", "bytesio"])
@pytest.mark.parametrize("fmt", sorted(STREAMS))
def test_windows_match_decompress(backends, stream_files, fmt, source, backend_name):
    backend = backends[backend_name]
    want = WANT[fmt]
    with open(stream_files[fmt], "rb") as fh:
        src = {
            "bytes": STREAMS[fmt],
            "file": fh,
            "bytesio": io.BytesIO(STREAMS[fmt]),
        }[source]
        dec = StreamDecoder(src, backend)
        for kind, (start, count) in WINDOWS.items():
            got = dec.decode_range(start, count)
            assert _same_bits(got, want[start:start + count]), kind
        assert _same_bits(dec.decode_all(), want)
        assert _same_bits(np.concatenate(list(dec.iter_chunks())), want)
    assert _same_bits(decompress(STREAMS[fmt], backend=backend), want)


def test_any_contiguous_buffer_is_a_source():
    """A NumPy byte array and a memoryview with 4-byte items hold a stream
    as well as ``bytes`` does: offsets count bytes, not items."""
    stream = STREAMS["v2"]
    words = np.zeros(-(-len(stream) // 4), dtype=np.uint32)
    words.view(np.uint8)[:len(stream)] = np.frombuffer(stream, dtype=np.uint8)
    for source in (np.frombuffer(stream, dtype=np.uint8), memoryview(words)):
        assert _same_bits(decompress(source), WANT["v2"])
    with pytest.raises(TypeError):
        StreamDecoder("not a stream")


class _CountingReads:
    """Counts positioned reads on the file source."""

    def __init__(self, monkeypatch):
        self.calls = 0
        real = os.pread

        def pread(fd, size, offset):
            self.calls += 1
            return real(fd, size, offset)

        monkeypatch.setattr(os, "pread", pread)


@pytest.mark.parametrize("backend_name", ["serial", "threaded"])
def test_file_window_reads_once_per_shard(backends, stream_files, monkeypatch, backend_name):
    """An 8,192-value unaligned window touches three chunks: one shard,
    one read (one read per chunk before the shared driver); a window
    of 32+ chunks on two threads splits into two shards, two reads."""
    backend = backends[backend_name]
    tel = Telemetry()
    with open(stream_files["v1"], "rb") as fh:
        dec = StreamDecoder(fh, backend, telemetry=tel)
        reads = _CountingReads(monkeypatch)
        dec.decode_range(W + 100, 2 * W)
        assert reads.calls == 1
        start, count = WINDOWS["wide"]
        first, last = start // W, (start + count - 1) // W + 1
        shards = backend.batch_shards(last - first)
        dec.decode_range(start, count)
        assert reads.calls == 1 + len(shards)
        assert len(shards) == (2 if backend_name == "threaded" else 1)
    assert tel.counter("fetches_total") == reads.calls
    assert {s.name for s in tel.spans} >= {"fetch", "batch_decode"}


def test_window_memory_is_out_plus_one_shard(tmp_path):
    """A file-backed ``decode_range`` holds the output and, beyond it, one
    shard at a time: its fetched bytes, the batch kernel's working
    matrices and, for a shard holding an edge chunk, one shard-sized
    scratch block.  Nothing grows with the window."""
    backend = SerialBackend()
    rows = backend.batch_rows
    n = 5 * rows * W
    shard_bytes = rows * W * 4
    path = tmp_path / "walk.pfpl"
    rng = np.random.default_rng(23)
    path.write_bytes(compress(np.cumsum(rng.normal(0, 0.01, n)).astype(np.float32),
                              "abs", 1e-3))
    slack = 64 << 10

    with open(path, "rb") as fh:
        dec = StreamDecoder(fh, backend)
        dec.decode_all()  # warm the kernel's scratch arenas

        def peak(start: int, count: int) -> int:
            out = np.empty(count, dtype=np.float32)
            tracemalloc.start()
            dec.decode_range(start, count, out=out)
            _, top = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return top

        one_shard = peak(0, rows * W)
        in_place = peak(0, n)  # five shards
        edges = peak(W // 2, n - W)  # the first and last shards hold edges
    assert one_shard <= 4 * shard_bytes
    assert in_place <= one_shard + slack
    assert edges <= one_shard + shard_bytes + slack


@pytest.mark.parametrize("batch_rows", [16, 64])
@pytest.mark.parametrize("backend_name", ["serial", "threaded", "procpool", "gpu-sim"])
def test_file_scan_reads_once_per_window_shard(
        backends, stream_files, monkeypatch, backend_name, batch_rows):
    """A full ``iter_chunks`` decodes windows of ``batch_rows`` chunks, each
    after one read per shard: ``ceil(n_chunks / batch_rows)`` reads on
    serial and procpool, one per shard on threaded (which splits a window
    of 32+ rows across its two workers), and one per chunk on the
    simulated GPU, which keeps its per-chunk map.  On the batch backends
    the per-chunk kernel runs only for the raw chunk and the ragged tail.
    Every chunk is kept until the scan ends, so a window buffer reused
    across the 16-row windows would fail the bit comparison."""
    backend = backends[backend_name]
    monkeypatch.setattr(backend, "batch_rows", batch_rows)
    per_chunk = []
    real = ChunkKernel.decode_chunk

    def decode_chunk(kernel, blob, n_values, is_raw, *args, **kwargs):
        per_chunk.append((n_values, is_raw))
        return real(kernel, blob, n_values, is_raw, *args, **kwargs)

    monkeypatch.setattr(ChunkKernel, "decode_chunk", decode_chunk)
    tel = Telemetry()
    with open(stream_files["v1"], "rb") as fh:
        dec = StreamDecoder(fh, backend, telemetry=tel)
        reads = _CountingReads(monkeypatch)
        assert _same_bits(np.concatenate(list(dec.iter_chunks())), WANT["v1"])
    n_chunks = N_FULL + 1
    windows = [min(batch_rows, n_chunks - lo) for lo in range(0, n_chunks, batch_rows)]
    assert len(windows) == -(-n_chunks // batch_rows)
    assert reads.calls == {
        "serial": len(windows),
        "threaded": sum(len(backend.batch_shards(rows)) for rows in windows),
        "procpool": len(windows),
        "gpu-sim": n_chunks,
    }[backend_name]
    assert tel.counter("fetches_total") == reads.calls
    singles = sorted(s.args["chunk"] for s in tel.spans if s.name == "chunk_decode")
    if backend_name == "gpu-sim":
        assert singles == list(range(n_chunks))
    else:
        assert singles == [RAW_CHUNK, N_FULL]
        assert sorted(per_chunk) == [(N - N_FULL * W, False), (W, True)]
    assert len(per_chunk) == len(singles)


def test_scan_memory_is_one_window(tmp_path):
    """A file-backed ``iter_chunks`` whose caller keeps no chunk holds one
    window of ``batch_rows`` chunks at a time: its peak is one window
    decode's (the previous window is freed before the next decodes), and
    does not grow with the stream (2 and 5 windows peak alike)."""
    backend = SerialBackend()
    rows = backend.batch_rows
    window_bytes = rows * W * 4
    rng = np.random.default_rng(29)
    data = np.cumsum(rng.normal(0, 0.01, 5 * rows * W)).astype(np.float32)
    slack = 64 << 10
    peaks = {}
    for n_windows in (2, 5):
        path = tmp_path / f"scan{n_windows}.pfpl"
        path.write_bytes(compress(data[:n_windows * rows * W], "abs", 1e-3))
        with open(path, "rb") as fh:
            dec = StreamDecoder(fh, backend)
            deque(dec.iter_chunks(), maxlen=0)  # warm the kernel's scratch arenas
            tracemalloc.start()
            deque(dec.iter_chunks(), maxlen=0)
            peaks[n_windows] = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            dec.decode_range(0, rows * W)
            peaks["window"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
    assert peaks[5] <= peaks[2] + slack, peaks
    assert peaks[5] <= peaks["window"] + slack, peaks
    assert peaks["window"] <= 4 * window_bytes, peaks

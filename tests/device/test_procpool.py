"""ProcessPoolBackend: byte identity, pool lifecycle, worker telemetry.

The process pool runs the very same batched kernels as every other
backend -- compressed bytes must match SerialBackend bit for bit, and
the pool/arena plumbing (persistent workers, shared-memory segments,
``warm()``/``close()``) must not leak across calls or teardowns.
"""

import io

import numpy as np
import pytest

from repro.core import compress, decompress
from repro.core.chunking import ChunkCodec
from repro.core.header import HEADER_BYTES, Header
from repro.core.random_access import StreamDecoder
from repro.device import get_backend
from repro.device.backend import ProcessPoolBackend, SerialBackend
from repro.errors import PFPLIntegrityError, PFPLUsageError
from repro.io import PFPLWriter
from repro.telemetry import Telemetry, TraceContext


@pytest.fixture(scope="module")
def pool():
    """One shared two-worker pool for the whole module (forks are costly)."""
    backend = ProcessPoolBackend(n_workers=2)
    yield backend
    backend.close()


def _walk(dtype, n=60_000, seed=0):
    r = np.random.default_rng(seed)
    return np.cumsum(r.normal(0, 0.05, n)).astype(dtype)


class TestByteIdentity:
    @pytest.mark.parametrize("mode", ["abs", "rel", "noa"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_streams_match_serial(self, pool, mode, dtype):
        data = _walk(dtype)
        via_pool = compress(data, mode, 1e-3, backend=pool)
        assert via_pool == compress(data, mode, 1e-3, backend=SerialBackend())

    @pytest.mark.parametrize("checksum", [False, True])
    def test_decode_bits_match_serial(self, pool, checksum):
        data = _walk(np.float32, n=40_000, seed=7)
        blob = compress(data, "rel", 1e-2, checksum=checksum)
        out_pool = decompress(blob, backend=pool)
        out_serial = decompress(blob, backend=SerialBackend())
        assert np.array_equal(out_pool.view(np.uint32), out_serial.view(np.uint32))

    def test_corrupted_stream_rejected_by_worker_crc(self, pool):
        # Workers verify per-chunk CRCs before decoding their shard; a
        # payload flip must surface as PFPLIntegrityError in the parent.
        blob = compress(_walk(np.float32, n=40_000, seed=9), "abs", 1e-3,
                        checksum=True)
        header = Header.unpack(blob)
        corrupt = bytearray(blob)
        corrupt[HEADER_BYTES + 4 * header.n_chunks + 50] ^= 0xFF
        with pytest.raises(PFPLIntegrityError, match="checksum mismatch"):
            decompress(bytes(corrupt), backend=pool)


class TestLifecycle:
    def test_get_backend_builds_it(self):
        backend = get_backend("procpool", n_workers=1)
        try:
            assert isinstance(backend, ProcessPoolBackend)
            assert backend.n_workers == 1
        finally:
            backend.close()

    def test_warm_forks_workers_up_front(self):
        with ProcessPoolBackend(n_workers=2) as backend:
            assert backend._res["exec"] is None
            backend.warm()
            assert backend._res["exec"] is not None

    def test_pool_and_arenas_survive_across_calls(self, pool):
        data = _walk(np.float32, n=20_000, seed=1)
        first = compress(data, "abs", 1e-3, backend=pool)
        executor = pool._res["exec"]
        arena_names = {r: s.name for r, s in pool._res["arenas"].items()}
        second = compress(data, "abs", 1e-3, backend=pool)
        assert first == second
        assert pool._res["exec"] is executor, "pool was rebuilt between calls"
        for role, name in arena_names.items():
            assert pool._res["arenas"][role].name == name, role

    def test_close_is_idempotent_and_reuse_rebuilds(self):
        backend = ProcessPoolBackend(n_workers=2)
        data = _walk(np.float32, n=20_000, seed=2)
        reference = compress(data, "abs", 1e-3, backend=SerialBackend())
        assert compress(data, "abs", 1e-3, backend=backend) == reference
        backend.close()
        backend.close()  # second close must be a no-op
        assert backend._res["exec"] is None and not backend._res["arenas"]
        # The next offload transparently rebuilds pool and arenas.
        assert compress(data, "abs", 1e-3, backend=backend) == reference
        backend.close()

    def test_encode_array_rejects_empty_block(self, pool):
        from repro.core.chunking import CHUNK_BYTES
        from repro.core.lossless.pipeline import PipelineConfig
        from repro.core.quantizers import make_quantizer

        q = make_quantizer("abs", 1e-3, dtype=np.float32)
        with pytest.raises(PFPLUsageError, match="at least one full chunk"):
            pool.encode_array(q, PipelineConfig(), CHUNK_BYTES,
                              np.empty((0, 4096), dtype=np.float32))

    def test_blob_views_survive_concurrent_encode(self, pool):
        # Regression: the returned blobs are zero-copy views over the
        # shared encode arena.  An offload from a *second* thread used to
        # land at the same arena offsets and corrupt in-flight views --
        # observed as compressed-byte divergence under `pfpl serve` with
        # concurrent streams.  The arena is now per calling thread.
        import threading

        from repro.core.chunking import CHUNK_BYTES
        from repro.core.lossless.pipeline import PipelineConfig
        from repro.core.quantizers import make_quantizer

        q = make_quantizer("abs", 1e-3, dtype=np.float32)
        rng = np.random.default_rng(3)
        a = np.cumsum(rng.normal(0, 0.05, (4, 4096)), axis=1).astype(np.float32)
        b = np.ascontiguousarray(-a[::-1])
        blobs_a, _, _pids, _ = pool.encode_array(q, PipelineConfig(), CHUNK_BYTES, a)
        expect = [bytes(v) for v in blobs_a]

        t = threading.Thread(
            target=pool.encode_array, args=(q, PipelineConfig(), CHUNK_BYTES, b))
        t.start()
        t.join()
        assert [bytes(v) for v in blobs_a] == expect


class TestWorkerTelemetry:
    def test_spans_merge_onto_proc_tracks(self):
        tel = Telemetry()
        with ProcessPoolBackend(n_workers=2, telemetry=tel) as backend:
            data = _walk(np.float32, n=60_000, seed=3)
            blob = compress(data, "abs", 1e-3, backend=backend, telemetry=tel)
            decompress(blob, backend=backend, telemetry=tel)

        trace = tel.chrome_trace()
        procs = {e["args"]["name"] for e in trace["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "process_name"
                 and e["pid"] == 3}
        assert procs == {"procpool workers"}
        merged = [e for e in trace["traceEvents"]
                  if e["ph"] == "X" and e["pid"] == 3]
        assert {e["name"] for e in merged} >= {"batch_encode", "batch_decode"}
        # Worker-side stage spans rode along with the batch spans.
        assert any(e["cat"] == "encode" for e in merged)

    def test_worker_item_labels_are_dense(self):
        tel = Telemetry()
        with ProcessPoolBackend(n_workers=2, telemetry=tel) as backend:
            compress(_walk(np.float32, n=60_000, seed=4), "abs", 1e-3,
                     backend=backend, telemetry=tel)
        labels = {k.split('worker="')[1].rstrip('"}')
                  for k in tel.counters() if k.startswith("worker_items_total")}
        assert labels and labels <= {"0", "1"}, labels


W = 4096  # float32 values per 16 kB chunk


class TestSharedShardCode:
    """Workers run the in-process shard functions, one offload per read."""

    @staticmethod
    def _two_ids() -> bytes:
        """A v3 stream of 20 smooth chunks, then 20 sparse ones that
        selection stores under another pipeline id."""
        data = _walk(np.float32, n=40 * W, seed=5)
        sparse = np.zeros(20 * W, dtype=np.float32)
        spikes = np.random.default_rng(5).choice(sparse.size, sparse.size // 200,
                                                 replace=False)
        sparse[spikes] = 1.0
        data[20 * W:] = sparse
        return compress(data, "abs", 1e-3, format_version=3)

    def test_v3_window_is_one_offload_and_one_payload_copy(self, pool, monkeypatch):
        stream = self._two_ids()
        head = Header.unpack(stream)
        table = np.frombuffer(stream[HEADER_BYTES:head.payload_offset], dtype="<u4")
        sizes, raw, pids, _ = ChunkCodec.parse_size_table(table, True)
        # 35 rows: both workers get a share, one of them both ids.
        start, count = 3 * W + 300, 34 * W
        first, last = start // W, (start + count - 1) // W + 1
        assert len(set(pids[first:last][~raw[first:last]].tolist())) >= 2

        calls, copies = [], []
        decode_array, arena = pool.decode_array, pool._arena

        def counting_decode(*args):
            calls.append(args)
            return decode_array(*args)

        def counting_arena(role, nbytes):
            if role == "decode.in":
                copies.append(nbytes)
            return arena(role, nbytes)

        monkeypatch.setattr(pool, "decode_array", counting_decode)
        monkeypatch.setattr(pool, "_arena", counting_arena)
        got = StreamDecoder(stream, pool).decode_range(start, count)
        want = StreamDecoder(stream, SerialBackend()).decode_range(start, count)
        assert len(calls) == 1
        assert copies == [int(sizes[first:last].sum())]
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_worker_decode_spans_have_unique_ids(self):
        """A worker shard holding two pipeline ids records two sibling
        ``batch_decode`` spans, not two spans with one id."""
        tel = Telemetry()
        ctx = TraceContext.mint()
        with ProcessPoolBackend(n_workers=2, telemetry=tel) as backend, tel.trace(ctx):
            decompress(self._two_ids(), backend=backend)
        spans = [s for s in tel.spans if s.name == "batch_decode"]
        assert len(spans) == 3  # two shards, the second holding both ids
        assert len({s.span_id for s in spans}) == 3
        assert {s.parent_id for s in spans} == {ctx.span_id}

    def test_writer_worker_spans_match_in_process_shards(self):
        """A second append's worker ``batch_encode`` spans carry the
        stream-relative ``first_chunk`` and the per-chunk
        ``chunk_bytes_out`` an in-process shard records."""
        data = _walk(np.float32, n=31 * W, seed=6)
        cut = 10 * W + 100  # the second append first fills chunk 10

        def shard_args(backend, tel):
            with PFPLWriter(io.BytesIO(), "abs", 1e-3, backend=backend,
                            telemetry=tel) as writer:
                writer.append(data[:cut])
                writer.append(data[cut:])
            return [
                {k: v for k, v in s.args.items() if k != "track"}
                for s in tel.spans if s.name == "batch_encode"
            ]

        serial = shard_args(SerialBackend(), Telemetry())
        tel = Telemetry()
        with ProcessPoolBackend(n_workers=2, telemetry=tel) as backend:
            workers = shard_args(backend, tel)
        assert [a["first_chunk"] for a in serial] == [0, 11]
        assert workers == serial

"""Trace-context propagation across backends: edge cases and byte identity.

The service-level acceptance test drives the full HTTP slice; this suite
pins the backend-layer contracts in isolation:

- a context bound on the submitting thread reaches ``ThreadedBackend``
  pool threads (``chunk_exec`` spans link to the request);
- the per-chunk fallback path (``map_chunks`` over the ragged tail, or
  a backend that declines batches entirely) carries the *same* trace id
  as the batch path;
- procpool shard descriptors rebuild worker contexts, and propagation
  survives a worker-pool recycle (close + lazy rebuild forks fresh
  workers);
- tracing never changes output bytes (the null-telemetry contract).
"""

import numpy as np
import pytest

from repro.core.compressor import PFPLCompressor
from repro.device.backend import ProcessPoolBackend, ThreadedBackend
from repro.telemetry import Telemetry, TraceContext


class PerChunkThreadedBackend(ThreadedBackend):
    """Thread pool that declines chunk-major batches (per-chunk path)."""

    batch_capable = False


def _signal(n=120_000, dtype=np.float64):
    r = np.random.default_rng(11)
    return np.cumsum(r.normal(0, 0.03, n)).astype(dtype)


def _traced_compress(backend_factory, data, **comp_kwargs):
    """Round-trip ``data`` under a fresh request context; returns
    ``(ctx, trace spans, compressed bytes)``."""
    tel = Telemetry()
    backend = backend_factory(tel)
    try:
        ctx = TraceContext.mint()
        tel.begin_trace(ctx)
        comp = PFPLCompressor(
            mode="abs", error_bound=1e-6, dtype=data.dtype,
            backend=backend, telemetry=tel, **comp_kwargs,
        )
        with tel.trace(ctx):
            result = comp.compress(data)
            out = comp.decompress(result.data)
        tel.finish_trace(ctx.trace_id)
        np.testing.assert_allclose(out, data, atol=1e-6)
        return ctx, tel.trace_spans(ctx.trace_id), result.data
    finally:
        backend.close()


class TestThreadedPropagation:
    def test_pool_thread_spans_join_the_request_trace(self):
        ctx, spans, _ = _traced_compress(
            lambda tel: ThreadedBackend(n_threads=2, telemetry=tel),
            _signal(),
        )
        exec_spans = [s for s in spans if s.name == "chunk_exec"]
        assert exec_spans
        assert all(s.trace_id == ctx.trace_id for s in exec_spans)
        assert all(s.parent_id == ctx.span_id for s in exec_spans)

    def test_per_chunk_fallback_same_trace_id_as_batch(self):
        """The ragged tail rides ``map_chunks`` while full chunks ride
        ``map_batch``; both must land in the same trace."""
        # Not a multiple of the 16 KiB chunk: forces a ragged tail.
        data = _signal(n=120_000 + 777)
        ctx, spans, _ = _traced_compress(
            lambda tel: ThreadedBackend(n_threads=2, telemetry=tel), data,
        )
        names = {s.name for s in spans}
        assert "batch_encode" in names          # batch path ran
        assert "chunk_encode" in names          # per-chunk tail ran
        codec = [s for s in spans if s.name in ("batch_encode", "chunk_encode")]
        assert {s.trace_id for s in codec} == {ctx.trace_id}

    def test_forced_per_chunk_path_joins_trace(self):
        ctx, spans, _ = _traced_compress(
            lambda tel: PerChunkThreadedBackend(n_threads=2, telemetry=tel),
            _signal(n=60_000),
        )
        per_chunk = [s for s in spans if s.name == "chunk_encode"]
        assert per_chunk
        assert {s.trace_id for s in per_chunk} == {ctx.trace_id}

    def test_no_binding_means_no_links(self):
        tel = Telemetry()
        backend = ThreadedBackend(n_threads=2, telemetry=tel)
        try:
            comp = PFPLCompressor(
                mode="abs", error_bound=1e-6, dtype=np.float64,
                backend=backend, telemetry=tel,
            )
            comp.compress(_signal(n=60_000))
            assert all(s.trace_id is None for s in tel.spans)
        finally:
            backend.close()


class TestProcpoolPropagation:
    def test_worker_spans_link_back_to_request(self):
        ctx, spans, _ = _traced_compress(
            lambda tel: ProcessPoolBackend(n_workers=2, telemetry=tel),
            _signal(),
        )
        worker = [
            s for s in spans
            if str(s.args.get("track", "")).startswith("proc-")
        ]
        assert worker
        assert {s.trace_id for s in worker} == {ctx.trace_id}
        shard_spans = [s for s in worker if s.name == "batch_encode"]
        assert shard_spans
        # Shard spans are deterministic children of the bound context.
        assert all(s.parent_id == ctx.span_id for s in shard_spans)
        # Kernel stage spans nest under their shard span.
        shard_ids = {s.span_id for s in shard_spans}
        assert any(s.parent_id in shard_ids for s in worker)

    def test_context_survives_worker_recycle(self):
        """Propagation is stateless per offload: after the pool is torn
        down, freshly forked workers still link the next request."""
        tel = Telemetry()
        backend = ProcessPoolBackend(n_workers=2, telemetry=tel)
        data = _signal(n=80_000)
        try:
            comp = PFPLCompressor(
                mode="abs", error_bound=1e-6, dtype=data.dtype,
                backend=backend, telemetry=tel,
            )
            first = TraceContext.mint()
            tel.begin_trace(first)
            with tel.trace(first):
                comp.compress(data)
            tel.finish_trace(first.trace_id)

            backend.close()  # kill workers; next offload forks new ones

            second = TraceContext.mint()
            tel.begin_trace(second)
            with tel.trace(second):
                comp.compress(data)
            tel.finish_trace(second.trace_id)

            for ctx in (first, second):
                worker = [
                    s for s in tel.trace_spans(ctx.trace_id)
                    if str(s.args.get("track", "")).startswith("proc-")
                ]
                assert worker, f"no worker spans for {ctx.trace_id}"
                assert {s.trace_id for s in worker} == {ctx.trace_id}
        finally:
            backend.close()

    def test_shard_descriptor_forms(self):
        """Task-tuple trace field: bool when untraced / no context,
        picklable triple when a context is bound."""
        from repro.device.procpool import _shard_ctx

        assert _shard_ctx(False) is None
        assert _shard_ctx(True) is None
        ctx = TraceContext.mint().child(4)
        rebuilt = _shard_ctx((ctx.trace_id, ctx.span_id, ctx.parent_id))
        assert rebuilt == ctx


class TestByteIdentity:
    @pytest.mark.parametrize("factory", [
        lambda tel: ThreadedBackend(n_threads=2, telemetry=tel),
        lambda tel: ProcessPoolBackend(n_workers=2, telemetry=tel),
    ], ids=["omp", "procpool"])
    def test_tracing_never_changes_output_bytes(self, factory):
        data = _signal(n=90_000 + 333)
        from repro.telemetry import NULL_TELEMETRY

        silent_backend = factory(NULL_TELEMETRY)
        try:
            reference = PFPLCompressor(
                mode="abs", error_bound=1e-6, dtype=data.dtype,
                backend=silent_backend,
            ).compress(data).data
        finally:
            silent_backend.close()

        _, _, traced = _traced_compress(factory, data)
        assert traced == reference

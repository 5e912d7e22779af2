"""Process-pool backend: true multi-core encode over shared memory.

:class:`ThreadedBackend` only partially escapes the GIL -- the NumPy
stages release it, but the per-shard Python framing (blob slicing, size
bookkeeping) still serializes.  :class:`ProcessPoolBackend` ships whole
chunk-major blocks to worker *processes* instead, with every bulk byte
moving through ``multiprocessing.shared_memory``:

- the input block is written once into a shared input arena; workers
  view their row range directly (no pickled arrays);
- each worker writes its encoded blobs into a reserved region of a
  shared encode arena (one raw-chunk-size slot per row, which the codec's
  raw fallback guarantees is enough; one arena per *calling thread*, so
  concurrent offloads never overwrite each other's in-flight blob views),
  and the parent hands the compressor zero-copy ``memoryview`` slices
  over the same mapping -- the only copy is the backend's own
  ``assemble`` scatter into the output buffer;
- a decode copies the fetched payload into a shared arena once per
  read; workers write reconstructed rows straight into a shared output
  block, which the parent copies into the caller's array in one
  vectorized copy.

Closures cannot cross a process boundary, so this backend advertises
``offload_capable``: the compressor hands over the *whole* block plus a
picklable kernel spec (quantizer, pipeline config, chunk bytes) via
:meth:`~ProcessPoolBackend.encode_array`/:meth:`~ProcessPoolBackend.decode_array`,
and each worker rebuilds its fused kernel locally (construction is a few
microseconds; the arrays never travel) and runs the same shard function
in-process ``map_batch`` shards run:
:func:`~repro.core.compressor.encode_shard` or
:func:`~repro.core.random_access.decode_shard`.  Generic ``map_chunks``
closures (the assemble scatter, ragged-tail chunks) run inline in the
parent.

The pool and its arenas are *persistent*: created lazily on first
offload, reused across calls, torn down by :meth:`~ProcessPoolBackend.close`
(also registered via ``weakref.finalize`` so interpreter exit cannot leak
pool processes or ``/dev/shm`` segments).  Arenas grow by reallocation;
a replaced segment is unlinked immediately and its mapping closed as soon
as no caller still holds blob views into it.

Per-worker telemetry merges into the parent recorder: when tracing is on,
each worker records spans/counters into a local
:class:`~repro.telemetry.Telemetry`, returns a picklable snapshot, and
the parent merges it onto a ``proc-<id>`` track (rendered as its own
process group in the Chrome trace).

Byte-identity: the workers run the very same shard code as every other
backend, so output is bit-for-bit identical -- locked in by the golden
and property suites.
"""

from __future__ import annotations

import os
import threading
import weakref
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_all_start_methods, get_context
from multiprocessing import resource_tracker, shared_memory
from typing import Sequence

import numpy as np

from ..core.compressor import encode_shard
from ..core.kernel import ChunkKernel, ChunkStats, row_run
from ..core.lossless.pipeline import LosslessPipeline, PipelineConfig
from ..core.quantizers import Quantizer
from ..core.random_access import decode_shard
from ..errors import PFPLUsageError
from ..telemetry import NULL_TELEMETRY, Telemetry, TraceContext
from .backend import Backend
from ..core.scratch import scratch_bytes_total
from .spec import THREADRIPPER_2950X, DeviceSpec

__all__ = ["ProcessPoolBackend"]

#: Smallest arena allocation -- avoids churning tiny segments while the
#: working set ramps up.
_MIN_ARENA_BYTES = 1 << 20


# -- worker side -------------------------------------------------------------
#
# Module-level state and functions: the pool pickles *references* to
# these (or inherits them over fork), never closures.

#: Dense id of this worker process, assigned by :func:`_init_worker`.
_worker_id = -1

#: Cache of shared-memory attachments by segment name.  Arenas are
#: long-lived in the parent, so workers attach once and reuse the
#: mapping; when the parent retires a grown-out segment its name simply
#: stops appearing and the stale attachment is evicted here.
_segments: dict[str, shared_memory.SharedMemory] = {}


def _init_worker(counter) -> None:
    """Pool initializer: take the next dense worker id from ``counter``."""
    global _worker_id
    with counter.get_lock():
        _worker_id = int(counter.value)
        counter.value += 1


def _ping() -> int:
    """Warm-up task: forces worker spawn; returns the worker's id."""
    return _worker_id


def _attach(names: Sequence[str]) -> dict[str, shared_memory.SharedMemory]:
    """Attach (or reuse cached attachments for) the named segments.

    Stale cache entries -- segments the parent has retired -- are closed
    opportunistically, but never one named in ``names`` (those are in use
    by the current task).
    """
    keep = set(names)
    if len(_segments) > 8:
        for stale in [n for n in _segments if n not in keep]:
            _segments.pop(stale).close()
    out = {}
    for name in names:
        seg = _segments.get(name)
        if seg is None:
            # Attaching registers the segment with the resource tracker
            # as if this process owned it (fixed only in 3.13's
            # ``track=False``); the parent owns and unlinks every arena,
            # so a worker-side registration would race the parent's
            # unlink and either warn about "leaked" memory or corrupt
            # the tracker's cache.  Suppress registration for the attach.
            orig_register = resource_tracker.register
            resource_tracker.register = lambda *a, **k: None
            try:
                seg = shared_memory.SharedMemory(name=name)
            finally:
                resource_tracker.register = orig_register
            _segments[name] = seg
        out[name] = seg
    return out


def _build_kernel(
    quantizer: Quantizer, config: PipelineConfig, chunk_bytes: int, telemetry
) -> ChunkKernel:
    """Rebuild the fused kernel from its picklable spec (worker side)."""
    pipeline = LosslessPipeline(quantizer.layout.uint_dtype, config)
    return ChunkKernel(quantizer, pipeline, chunk_bytes, telemetry=telemetry)


def _shard_ctx(trace) -> TraceContext | None:
    """Rebuild this shard's trace context from its task-tuple descriptor.

    ``trace`` is ``False`` (telemetry off), ``True`` (telemetry on, no
    request trace — e.g. ``pfpl stats``), or a picklable
    ``(trace_id, span_id, parent_id)`` triple derived by the parent, so
    worker spans link back to the originating request.
    """
    if isinstance(trace, tuple):
        return TraceContext(*trace)
    return None


def _encode_shard(task: tuple) -> tuple:
    """Run :func:`~repro.core.compressor.encode_shard` on rows ``[lo, hi)``
    of the shared input block.

    Blobs are written back-to-back into this shard's reserved region of
    the encode arena (``lo * raw_bytes`` onward); only their sizes (and
    flags/stats/telemetry) return through the result pickle.
    """
    (quantizer, config, chunk_bytes, in_name, shape, dtype_str,
     first_chunk, lo, hi, enc_name, raw_bytes, trace) = task
    segs = _attach((in_name, enc_name))
    block = np.ndarray(tuple(shape), dtype=np.dtype(dtype_str), buffer=segs[in_name].buf)
    tel = Telemetry() if trace else NULL_TELEMETRY
    kernel = _build_kernel(quantizer, config, chunk_bytes, tel)
    blobs, raws, pids, stats = encode_shard(
        kernel, tel, block, first_chunk, lo, hi, trace=_shard_ctx(trace)
    )
    out = segs[enc_name].buf
    off = lo * raw_bytes
    end = hi * raw_bytes
    sizes = []
    for blob in blobs:
        n = len(blob)
        # The codec's raw fallback caps every blob at raw chunk size, so
        # the per-row reservation always fits.
        assert off + n <= end, "encoded blob overflows its arena reservation"
        out[off:off + n] = blob
        sizes.append(n)
        off += n
    snap = tel.snapshot() if trace else None
    return sizes, [bool(r) for r in raws], [int(p) for p in pids], stats, snap, _worker_id


def _decode_shard(task: tuple) -> tuple:
    """Run :func:`~repro.core.random_access.decode_shard` on ``rows``,
    from the shared payload into the shared output block."""
    (quantizer, config, chunk_bytes, payload_name, payload_len, out_name,
     shape, dtype_str, starts, sizes, pids, crcs, rows, first, trace) = task
    segs = _attach((payload_name, out_name))
    payload = np.ndarray((payload_len,), dtype=np.uint8, buffer=segs[payload_name].buf)
    block = np.ndarray(tuple(shape), dtype=np.dtype(dtype_str), buffer=segs[out_name].buf)
    tel = Telemetry() if trace else NULL_TELEMETRY
    kernel = _build_kernel(quantizer, config, chunk_bytes, tel)
    decode_shard(
        kernel, tel, payload, starts, sizes, pids, crcs, rows, block, first,
        trace=_shard_ctx(trace),
    )
    snap = tel.snapshot() if trace else None
    return snap, _worker_id


# -- parent side -------------------------------------------------------------


def _teardown(res: dict) -> None:
    """Idempotent resource release (also the ``weakref.finalize`` target).

    Shuts the executor down and unlinks every shared segment.  A mapping
    with live exported blob views cannot be closed yet (``BufferError``);
    unlinking already removed its name, so the memory is freed when the
    last view dies -- nothing leaks either way.
    """
    pool = res.get("exec")
    res["exec"] = None
    if pool is not None:
        pool.shutdown(wait=True, cancel_futures=False)
    segments = list(res.get("arenas", {}).values()) + list(res.get("retired", []))
    res["arenas"] = {}
    res["retired"] = []
    for shm in segments:
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
        try:
            shm.close()
        except BufferError:
            # Caller still holds blob views over this mapping; the name
            # is gone, so it is freed when the views are garbage collected.
            pass


class ProcessPoolBackend(Backend):
    """Multi-process chunk parallelism over shared memory.

    Parameters
    ----------
    n_workers:
        Worker processes (default: ``min(16, cpu_count)``).
    device:
        CPU :class:`DeviceSpec` used for scheduler modeling metadata.
    telemetry:
        Parent-side recorder; when enabled, workers trace locally and
        their spans merge onto per-process ``proc-<id>`` tracks.
    mp_context:
        ``multiprocessing`` start method (default ``"fork"`` where
        available -- workers inherit the imported modules -- else
        ``"spawn"``).
    """

    name = "cpu-procpool"
    batch_capable = True
    offload_capable = True

    def __init__(
        self,
        n_workers: int | None = None,
        device: DeviceSpec = THREADRIPPER_2950X,
        telemetry=NULL_TELEMETRY,
        mp_context: str | None = None,
    ):
        self.device = device
        self.n_workers = n_workers or min(16, os.cpu_count() or 1)
        self.telemetry = telemetry
        if mp_context is None:
            mp_context = "fork" if "fork" in get_all_start_methods() else "spawn"
        self.mp_context = mp_context
        #: Pool + arena state, held in a plain dict so the finalizer can
        #: tear it down without keeping the backend alive.
        self._res: dict = {"exec": None, "arenas": {}, "retired": []}
        self._lock = threading.Lock()
        self._finalizer = weakref.finalize(self, _teardown, self._res)

    # -- pool / arena management --------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        """Create the persistent worker pool on first use (under lock)."""
        pool = self._res["exec"]
        if pool is None:
            ctx = get_context(self.mp_context)
            counter = ctx.Value("i", 0)
            pool = ProcessPoolExecutor(
                max_workers=self.n_workers, mp_context=ctx,
                initializer=_init_worker, initargs=(counter,),
            )
            self._res["exec"] = pool
        return pool

    def _arena(self, role: str, nbytes: int) -> shared_memory.SharedMemory:
        """Persistent named segment for ``role``, grown by reallocation."""
        self._sweep_retired()
        arenas = self._res["arenas"]
        shm = arenas.get(role)
        if shm is not None and shm.size >= nbytes:
            return shm
        size = max(int(nbytes), _MIN_ARENA_BYTES)
        if shm is not None:
            size = max(size, 2 * shm.size)
            self._retire(shm)
        shm = shared_memory.SharedMemory(create=True, size=size)
        arenas[role] = shm
        return shm

    def _retire(self, shm: shared_memory.SharedMemory) -> None:
        """Unlink a grown-out segment; close its mapping when view-free."""
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
        try:
            shm.close()
        except BufferError:
            # Blob views from a previous call still alias this mapping;
            # retry on later calls / at close().
            self._res["retired"].append(shm)

    def _sweep_retired(self) -> None:
        """Retry closing retired mappings whose blob views have died."""
        still = []
        for shm in self._res["retired"]:
            try:
                shm.close()
            except BufferError:
                still.append(shm)
        self._res["retired"] = still

    def warm(self) -> None:
        """Fork the worker pool now (before any connection fds exist).

        The executor forks lazily on first submit; for a service that
        moment would be mid-request, and the forked workers would
        inherit the accepted socket (clients then never see EOF).  One
        round of no-op tasks pins the fork point to startup instead.
        """
        with self._lock:
            pool = self._ensure_pool()
            for fut in [pool.submit(_ping) for _ in range(self.n_workers)]:
                fut.result()

    def close(self) -> None:
        """Shut down the pool and release every shared-memory arena.

        Safe to call repeatedly; the next offload rebuilds lazily.
        """
        with self._lock:
            _teardown(self._res)
        super().close()

    # -- scheduling ----------------------------------------------------------

    def _workers(self) -> int:
        return self.n_workers

    def _merge_worker(self, snap, wid: int, t_submit: float) -> None:
        """Fold one worker's telemetry snapshot onto its ``proc-`` track."""
        tel = self.telemetry
        if snap is not None and tel.enabled:
            tel.merge(snap, offset=t_submit, track=f"proc-{wid}")
            tel.add("worker_items_total", 1, worker=str(wid))

    def _shard_trace(self, trace: bool, base, lo: int):
        """Picklable per-shard trace descriptor for a task tuple.

        Each shard gets a deterministic child of the calling thread's
        bound request context (seeded by its start row, so two shards of
        one offload never collide); with no bound context the plain
        tracing flag is forwarded.
        """
        if not trace or base is None:
            return trace
        ctx = base.child(lo + 1)
        return (ctx.trace_id, ctx.span_id, ctx.parent_id)

    def pool_info(self) -> dict:
        """Worker liveness, pending-task depth and arena footprint.

        Lock-free on purpose: the service's ``/debug/pool`` handler runs
        on the event loop, and taking ``self._lock`` here could stall it
        behind a multi-second offload.  Reads are best-effort snapshots;
        a concurrent resize just yields a partial view.
        """
        res = self._res
        pool = res.get("exec")
        workers: list[dict] = []
        depth = 0
        if pool is not None:
            try:
                procs = getattr(pool, "_processes", None) or {}
                workers = [
                    {"pid": int(pid), "alive": bool(proc.is_alive())}
                    for pid, proc in list(procs.items())
                ]
            except RuntimeError:  # pragma: no cover - resized mid-iteration
                workers = []
            pending = getattr(pool, "_pending_work_items", None)
            depth = len(pending) if pending is not None else 0
        try:
            arenas = {role: shm.size for role, shm in list(res["arenas"].items())}
        except RuntimeError:  # pragma: no cover - resized mid-iteration
            arenas = {}
        return {
            "backend": self.name,
            "kind": "process-pool",
            "workers": self.n_workers,
            "pool_started": pool is not None,
            "worker_procs": workers,
            "queue_depth": depth,
            "arena_bytes": int(sum(arenas.values())),
            "arenas": arenas,
            "retired_segments": len(res.get("retired", [])),
            "scratch": scratch_bytes_total(),
        }

    # -- whole-array offload --------------------------------------------------

    def encode_array(
        self,
        quantizer: Quantizer,
        config: PipelineConfig,
        chunk_bytes: int,
        block: np.ndarray,
        first_chunk: int = 0,
    ) -> tuple[list, list[bool], list[int], ChunkStats]:
        """Encode a full ``(n_chunks, words_per_chunk)`` block across workers.

        Each worker runs :func:`~repro.core.compressor.encode_shard` on
        its rows (``first_chunk`` is the stream index of the block's first
        row).  Returns ``(blobs, raw_flags, pipeline_ids, stats)`` exactly
        like mapping it over row shards in process; the blobs are
        zero-copy ``memoryview`` slices over the shared encode arena (valid
        until the next offload grows it -- the compressor consumes them
        within the same ``compress`` call).
        """
        n_rows, wpc = block.shape
        if n_rows == 0:
            raise PFPLUsageError("encode_array requires at least one full chunk")
        raw_bytes = wpc * block.dtype.itemsize
        tel = self.telemetry
        trace = bool(tel.enabled)
        base = tel.current_trace()
        with self._lock:
            pool = self._ensure_pool()
            shm_in = self._arena("encode.in", block.nbytes)
            # The returned blob views escape the lock -- the caller reads
            # them after this method returns -- so the output arena is
            # per *calling thread*: a concurrent encode from another
            # thread lands in its own segment instead of overwriting
            # bytes this thread's views still alias.  Within one thread
            # the views are always consumed before its next offload.
            shm_enc = self._arena(
                f"encode.out.{threading.get_ident()}", n_rows * raw_bytes
            )
            np.ndarray(block.shape, dtype=block.dtype, buffer=shm_in.buf)[:] = block
            shards = self.batch_shards(n_rows)
            t_submit = tel.now()
            futures = [
                pool.submit(_encode_shard, (
                    quantizer, config, chunk_bytes, shm_in.name,
                    tuple(block.shape), block.dtype.str, first_chunk, lo, hi,
                    shm_enc.name, raw_bytes, self._shard_trace(trace, base, lo),
                ))
                for lo, hi in shards
            ]
            results = [f.result() for f in futures]
            self.last_order = list(range(len(shards)))
            blobs: list = []
            raw_flags: list[bool] = []
            pids: list[int] = []
            stats = ChunkStats()
            buf = shm_enc.buf
            for (lo, _hi), (sizes, raws, shard_pids, st, snap, wid) in zip(
                shards, results
            ):
                off = lo * raw_bytes
                for n in sizes:
                    blobs.append(buf[off:off + n])
                    off += n
                raw_flags.extend(raws)
                pids.extend(shard_pids)
                stats = stats + st
                self._merge_worker(snap, wid, t_submit)
            # The arena is keyed by calling thread (the PR 7 fix above),
            # so these views cannot be overwritten by a concurrent
            # encode; within one thread they are consumed before the
            # next offload.
            return blobs, raw_flags, pids, stats  # pfpl: allow[buffer-escape]

    def decode_array(
        self, kernel: ChunkKernel, payload: np.ndarray, starts: np.ndarray,
        sizes: np.ndarray, pids: np.ndarray, crcs, rows: np.ndarray,
        block: np.ndarray, first: int,
    ) -> None:
        """:func:`~repro.core.random_access.decode_shard` across workers.

        Takes ``decode_shard``'s arguments (the kernel travels as its
        picklable spec).  The payload is copied into shared memory once;
        each worker decodes a cost-balanced share of ``rows``, every
        pipeline id among them, into a shared output block whose decoded
        rows are then copied into ``block``.
        """
        tel = self.telemetry
        trace = bool(tel.enabled)
        base = tel.current_trace()
        rel = rows - first
        with self._lock:
            pool = self._ensure_pool()
            shm_in = self._arena("decode.in", payload.nbytes)
            shm_out = self._arena("decode.out", block.nbytes)
            np.ndarray(payload.shape, dtype=np.uint8, buffer=shm_in.buf)[:] = payload
            shards = self.batch_shards(int(rows.size), costs=sizes[rel])
            t_submit = tel.now()
            futures = [
                pool.submit(_decode_shard, (
                    kernel.quantizer, kernel.codec.pipeline.config,
                    kernel.chunk_bytes, shm_in.name, payload.size, shm_out.name,
                    block.shape, block.dtype.str, starts, sizes, pids, crcs,
                    rows[lo:hi], first, self._shard_trace(trace, base, lo),
                ))
                for lo, hi in shards
            ]
            for fut in futures:
                self._merge_worker(*fut.result(), t_submit)
            self.last_order = list(range(len(shards)))
            decoded = np.ndarray(block.shape, dtype=block.dtype, buffer=shm_out.buf)
            run = row_run(rel)
            if run is not None:
                block[run] = decoded[run]
            else:
                block[rel] = decoded[rel]

"""Execution backends: serial CPU, parallel CPU ("OpenMP"), simulated GPU.

A backend decides *how* the per-chunk kernels run and which prefix-sum
primitive concatenates/locates chunks; the bytes produced are identical
across backends (tested), which is PFPL's CPU/GPU compatibility story:

==============  ====================  ==========================  ==================
backend         paper analogue        chunk scheduling            offset propagation
==============  ====================  ==========================  ==================
SerialBackend   PFPL serial           in-order loop               plain running sum
ThreadedBackend PFPL OpenMP           dynamic via thread pool     shared carry array
GpuSimBackend   PFPL CUDA             wave of "thread blocks"     decoupled look-back
==============  ====================  ==========================  ==================
"""

from __future__ import annotations

import os
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np

from ..core.chunking import plan_shards
from ..core.kernel import ChunkKernel
from ..core.scratch import scratch_bytes_total, scratch_release
from ..errors import PFPLUsageError
from ..core.lossless.pipeline import LosslessPipeline, PipelineConfig
from ..core.quantizers import Quantizer
from ..telemetry import NULL_TELEMETRY
from .gpu_sim import GpuLosslessPipeline
from .prefix_sum import (
    carry_array_scan,
    decoupled_lookback_scan,
    exclusive_scan_reference,
)
from .scheduler import submission_order
from .spec import RTX_4090, THREADRIPPER_2950X, DeviceSpec

__all__ = [
    "Backend",
    "SerialBackend",
    "ThreadedBackend",
    "GpuSimBackend",
    "ProcessPoolBackend",
    "get_backend",
    "BACKENDS",
]


class Backend:
    """Common interface; see module docstring for the three variants.

    Since the fused-kernel refactor a backend schedules *full codec*
    kernels (quantize + lossless per chunk, :class:`ChunkKernel`), not
    just the lossless stages, and owns stream assembly: its prefix sum
    places every chunk in a preallocated output buffer, replacing the
    serial ``b"".join`` bottleneck.
    """

    name = "abstract"
    device: DeviceSpec | None = None
    #: Whether the compressor may route full-size chunks through the
    #: chunk-major batch kernels on this backend.  The GPU simulation
    #: opts out to keep its block-granular wave model faithful.
    batch_capable = True
    #: Whether the backend can take *whole-array* offload: the compressor
    #: hands over the full chunk-major block (plus a picklable kernel
    #: spec) via :meth:`encode_array`/:meth:`decode_array` instead of
    #: closure-based ``map_batch`` shards.  Only process-based backends
    #: set this -- closures cannot cross a process boundary.
    offload_capable = False
    #: Row cap per batched kernel call: bounds the working set (each row
    #: is one chunk, and the stages hold a few matrix temporaries).
    batch_rows = 64
    #: Telemetry sink for scheduling spans (queue wait, worker execution);
    #: the null default records nothing.
    telemetry = NULL_TELEMETRY
    #: Order in which the last ``map_chunks`` call actually *started*
    #: items (item positions).  For the serial backends this is identity;
    #: the threaded backend records what its pool really did, so the
    #: simulated :class:`~repro.device.scheduler.ScheduleResult.order`
    #: can be checked against reality.
    last_order: list[int] | None = None

    def make_pipeline(self, word_dtype, config: PipelineConfig) -> LosslessPipeline:
        return LosslessPipeline(word_dtype, config)

    def make_kernel(
        self,
        quantizer: Quantizer,
        config: PipelineConfig,
        chunk_bytes: int,
        telemetry=NULL_TELEMETRY,
    ) -> ChunkKernel:
        """Build the fused per-chunk kernel with this backend's pipeline."""
        pipeline = self.make_pipeline(quantizer.layout.uint_dtype, config)
        return ChunkKernel(quantizer, pipeline, chunk_bytes, telemetry=telemetry)

    def map_chunks(self, fn: Callable, items: Sequence, costs=None) -> list:
        """Run ``fn`` over ``items``; results in item order.

        ``costs`` (optional per-item cost estimates) lets a backend pick
        its execution order for load balance -- output placement is by
        index, so the produced bytes never depend on it.  The default is
        the serial in-order loop.
        """
        self.last_order = list(range(len(items)))
        return [fn(item) for item in items]

    def _workers(self) -> int:
        """Workers a batch is split across (1 for the single-thread backends)."""
        return 1

    def batch_shards(self, n_rows: int, costs=None) -> list[tuple[int, int]]:
        """Contiguous ``(lo, hi)`` row ranges one batched call each covers.

        One shard per worker, but never so many that a shard drops below
        ~16 rows (tiny sub-batches would reintroduce the per-chunk
        dispatch cost the batch path exists to remove), and none above
        ``batch_rows``.
        """
        n_shards = max(1, min(self._workers(), n_rows // 16))
        return plan_shards(n_rows, self.batch_rows, n_shards=n_shards, costs=costs)

    def map_batch(self, fn: Callable, n_rows: int, costs=None) -> list:
        """Run ``fn(lo, hi)`` over contiguous row shards; results in order.

        The batch-kernel analogue of :meth:`map_chunks`: ``fn`` processes
        rows ``[lo, hi)`` of a chunk-major block in one call.  Shards are
        scheduled through :meth:`map_chunks`, so each backend's existing
        execution model (serial loop, thread pool) and scheduler spans
        apply unchanged; output order is shard order, which is row order.
        """
        shards = self.batch_shards(n_rows, costs=costs)
        shard_costs = None
        if costs is not None and shards:
            weight = np.asarray(costs, dtype=np.int64)
            shard_costs = np.asarray(
                [int(weight[lo:hi].sum(dtype=np.int64)) for lo, hi in shards],
                dtype=np.int64,
            )
        return self.map_chunks(lambda r: fn(*r), shards, costs=shard_costs)

    def prefix_sum(self, sizes: np.ndarray) -> np.ndarray:
        """Exclusive scan of ``sizes``: each chunk's offset (plain running sum)."""
        return exclusive_scan_reference(np.asarray(sizes, dtype=np.int64))

    def assemble(self, prefix: bytes, blobs: Sequence[bytes]) -> bytes:
        """Concatenate ``prefix`` + chunk blobs into one preallocated buffer.

        The backend's own prefix sum yields every blob's destination
        offset, and the scatter copies are scheduled like any other chunk
        work -- the device-side "write your chunk at your offset" store
        the paper describes, replacing ``b"".join``.
        """
        sizes = np.asarray([len(b) for b in blobs], dtype=np.int64)
        starts = self.prefix_sum(sizes) + len(prefix)
        total = int(starts[-1] + sizes[-1]) if len(blobs) else len(prefix)
        buf = bytearray(total)
        buf[: len(prefix)] = prefix
        view = memoryview(buf)

        def scatter(index: int) -> None:
            lo = int(starts[index])
            view[lo:lo + int(sizes[index])] = blobs[index]

        self.map_chunks(scatter, list(range(len(blobs))), costs=sizes)
        return bytes(buf)

    def pool_info(self) -> dict:
        """Introspection snapshot for the service ``/debug/pool`` endpoint.

        The base form reports the backend identity and the process-wide
        scratch-arena footprint; pooled backends extend it with worker
        liveness and queue depth.
        """
        return {
            "backend": self.name,
            "kind": "inline",
            "scratch": scratch_bytes_total(),
        }

    def warm(self) -> None:
        """Pre-create pooled resources (no-op for pool-less backends).

        Long-running services call this *before* accepting connections:
        a process pool forked lazily mid-request would inherit every
        file descriptor open at that moment -- including accepted
        sockets, which then never deliver EOF to clients while a worker
        process holds the duplicate.  Warming at startup pins the fork
        point to a moment when no connection fds exist.
        """
        return None

    def close(self) -> None:
        """Release pooled resources (worker pools, shared arenas).

        The base implementation drops the calling thread's scratch
        arenas; pooled backends additionally tear down their workers
        (releasing each worker's arenas first) and may be closed from
        ``atexit``.  A closed backend rebuilds its pool lazily on next
        use, so ``close()`` is always safe to call.
        """
        scratch_release()

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class SerialBackend(Backend):
    """One thread, chunks in order -- PFPL_Serial."""

    name = "cpu-serial"

    def __init__(self, device: DeviceSpec = THREADRIPPER_2950X, telemetry=NULL_TELEMETRY):
        self.device = device
        self.telemetry = telemetry


def _shutdown_pool(pool: ThreadPoolExecutor) -> None:
    """Finalizer target: stop a backend's pool when the backend is GC'd."""
    pool.shutdown(wait=False, cancel_futures=True)


def _release_worker_scratch(pool: ThreadPoolExecutor, n_threads: int) -> None:
    """Run :func:`scratch_release` once on every pool worker thread.

    A barrier pins each released-task to a distinct thread (otherwise a
    fast worker could take several tasks and some arenas would survive).
    Timeouts degrade to best-effort: the pool is being torn down anyway,
    and dead threads free their thread-locals with the thread.
    """
    barrier = threading.Barrier(n_threads)

    def release() -> int:
        try:
            barrier.wait(timeout=5.0)
        except threading.BrokenBarrierError:
            pass
        return scratch_release()

    futures = [pool.submit(release) for _ in range(n_threads)]
    for fut in futures:
        try:
            fut.result(timeout=10.0)
        except Exception:  # pragma: no cover - teardown is best-effort
            barrier.abort()


class ThreadedBackend(Backend):
    """Thread-pool chunk parallelism -- PFPL_OMP.

    The pool's shared work queue *is* the dynamic chunk assignment from
    Section III-E; chunk offsets use the shared-carry-array scan.  NumPy
    kernels release the GIL for large array ops, so chunks genuinely
    overlap.

    The pool is *persistent*: built lazily on first use and reused by
    every subsequent ``map_chunks``/``map_batch`` call (a fresh pool per
    call paid thread startup on the hot path and made worker identities
    meaningless across calls).  ``close()`` tears it down -- releasing
    each worker's scratch arenas first -- and the next call transparently
    rebuilds it.
    """

    name = "cpu-omp"

    def __init__(
        self,
        n_threads: int | None = None,
        device: DeviceSpec = THREADRIPPER_2950X,
        telemetry=NULL_TELEMETRY,
        sanitizer=None,
    ):
        self.device = device
        self.n_threads = n_threads or min(16, os.cpu_count() or 1)
        self.telemetry = telemetry
        #: optional repro.analysis.ConcurrencySanitizer; when set, the
        #: pool's shared order record runs on instrumented primitives so
        #: tests can assert the lock discipline held.
        self.sanitizer = sanitizer
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        #: Pool-owned worker registry: OS thread ident -> dense worker id
        #: (0..k-1 in first-execution order).  Telemetry labels read this
        #: instead of parsing thread names, so ids stay dense and stable
        #: for the pool's whole lifetime regardless of thread naming.
        self._worker_ids: dict[int, int] = {}
        self._finalizer: weakref.finalize | None = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        pool = self._pool
        if pool is None:
            with self._pool_lock:
                pool = self._pool
                if pool is None:
                    pool = ThreadPoolExecutor(
                        max_workers=self.n_threads,
                        thread_name_prefix=f"pfpl-omp-{id(self):x}",
                    )
                    self._finalizer = weakref.finalize(self, _shutdown_pool, pool)
                    self._pool = pool
        return pool

    def warm(self) -> None:
        """Start the thread pool now instead of on first ``map_chunks``."""
        self._ensure_pool()

    def worker_id(self) -> int:
        """Dense id of the calling pool thread (assigned on first sight)."""
        ident = threading.get_ident()
        with self._pool_lock:
            wid = self._worker_ids.get(ident)
            if wid is None:
                wid = self._worker_ids[ident] = len(self._worker_ids)
            return wid

    def close(self) -> None:
        """Tear down the persistent pool (workers release their arenas)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
            self._worker_ids = {}
            finalizer, self._finalizer = self._finalizer, None
        if pool is not None:
            _release_worker_scratch(pool, self.n_threads)
            pool.shutdown(wait=True)
            if finalizer is not None:
                finalizer.detach()
        scratch_release()

    def map_chunks(self, fn: Callable, items: Sequence, costs=None) -> list:
        n = len(items)
        if n <= 1:
            self.last_order = list(range(n))
            return [fn(item) for item in items]
        tel = self.telemetry
        san = self.sanitizer
        # The order items actually *began* executing across pool workers
        # -- the ground truth the scheduler simulation is checked against.
        if san is not None:
            record_lock = san.lock("order_record")
            order_record = san.shared_list("order_record", record_lock)
        else:
            order_record = []
            record_lock = threading.Lock()
        t_submit = time.perf_counter()
        # Pool threads have no trace binding of their own; capture the
        # submitting thread's request context so worker spans link back.
        ctx = tel.current_trace()

        def run(index: int, item) -> object:
            t0 = time.perf_counter()
            with record_lock:
                order_record.append(index)
            worker = str(self.worker_id())
            wait = t0 - t_submit
            with tel.trace(ctx):
                with tel.span("chunk_exec", cat="scheduler", item=index,
                              queue_wait=wait, worker=worker):
                    result = fn(item)
            busy = time.perf_counter() - t0
            tel.add("worker_queue_wait_seconds_total", wait, worker=worker)
            tel.add("worker_busy_seconds_total", busy, worker=worker)
            tel.add("worker_items_total", 1, worker=worker)
            return result

        pool = self._ensure_pool()
        if costs is None:
            results = list(pool.map(run, range(n), items))
        else:
            # Known costs (e.g. the decode size table): feed the shared
            # queue longest-first; results still land by original index.
            order = submission_order(costs)
            futures = {int(i): pool.submit(run, int(i), items[int(i)]) for i in order}
            results = [futures[i].result() for i in range(n)]
        self.last_order = list(order_record)
        return results

    def pool_info(self) -> dict:
        """Thread-pool snapshot: configured size, threads seen, queue depth."""
        with self._pool_lock:
            pool = self._pool
            seen = len(self._worker_ids)
            depth = pool._work_queue.qsize() if pool is not None else 0
        return {
            "backend": self.name,
            "kind": "thread-pool",
            "workers": self.n_threads,
            "workers_seen": seen,
            "pool_started": pool is not None,
            "queue_depth": depth,
            "scratch": scratch_bytes_total(),
        }

    def _workers(self) -> int:
        return self.n_threads

    def prefix_sum(self, sizes: np.ndarray) -> np.ndarray:
        return carry_array_scan(
            np.asarray(sizes, dtype=np.int64), self.n_threads,
            sanitizer=self.sanitizer,
        )


class GpuSimBackend(Backend):
    """Simulated CUDA execution -- PFPL_CUDA.

    Chunks map to thread blocks launched in waves (bounded residency);
    within a chunk the GPU-structured kernels (warp shuffle, block
    scans) run; chunk offsets use decoupled look-back.  Output bytes are
    identical to the CPU backends.

    Each block execution is also recorded (when telemetry is on) as a
    *modeled* span on a virtual per-SM track (``sm-0`` ..
    ``sm-<wave-1>``): every block in a wave starts at the wave's base
    time on its own SM with its measured kernel duration, so the Chrome
    trace renders the simulated wave occupancy next to the measured
    wall-clock timeline (the host still executes blocks serially).
    """

    name = "gpu-cuda-sim"
    #: The simulation schedules chunks as thread *blocks* in waves; a
    #: host-side batched kernel has no block analogue, so the GPU model
    #: keeps the per-chunk path (bytes are identical either way).
    batch_capable = False

    def __init__(
        self,
        device: DeviceSpec = RTX_4090,
        telemetry=NULL_TELEMETRY,
        sanitizer=None,
    ):
        self.device = device
        self.telemetry = telemetry
        #: optional repro.analysis.ConcurrencySanitizer; when set, the
        #: decoupled look-back scan publishes its status window through
        #: instrumented shared state.
        self.sanitizer = sanitizer
        # Resident "blocks" per wave scales with SM count, as on hardware.
        self.wave = max(4, device.parallel_units // 8)

    def make_pipeline(self, word_dtype, config: PipelineConfig) -> LosslessPipeline:
        return GpuLosslessPipeline(word_dtype, config)

    def map_chunks(self, fn: Callable, items: Sequence, costs=None) -> list:
        # Blocks launch in id order regardless of cost estimates, as on
        # hardware: the GPU's load balance comes from over-subscription
        # (many more blocks than SMs), not queue reordering.
        self.last_order = list(range(len(items)))
        results: list = [None] * len(items)
        tel = self.telemetry
        for wave_id, wave_start in enumerate(range(0, len(items), self.wave)):
            # All blocks of a wave are *modeled* as launching together at
            # the wave base time, one per virtual SM; each block's
            # modeled duration is its measured kernel time.  Waves
            # serialize on the host, so real elapsed time always covers
            # the modeled wave and the virtual tracks never overlap.
            wave_base = tel.now()
            for i in range(wave_start, min(len(items), wave_start + self.wave)):
                sm = i - wave_start
                t0 = tel.now()
                results[i] = fn(items[i])
                duration = tel.now() - t0
                tel.record_span(
                    "block_exec", cat="sim", start=wave_base,
                    duration=duration, track=f"sm-{sm}",
                    item=i, wave=wave_id,
                )
                tel.add("sim_sm_busy_seconds_total", duration, sm=str(sm))
            tel.add("sim_waves_total")
        return results

    def prefix_sum(self, sizes: np.ndarray) -> np.ndarray:
        return decoupled_lookback_scan(
            np.asarray(sizes, dtype=np.int64), window=self.wave,
            sanitizer=self.sanitizer,
        )


# Imported late: procpool subclasses Backend from this module.
from .procpool import ProcessPoolBackend  # noqa: E402

BACKENDS = {
    "serial": SerialBackend,
    "omp": ThreadedBackend,
    "cuda": GpuSimBackend,
    "procpool": ProcessPoolBackend,
}


def get_backend(name: str, **kwargs) -> Backend:
    """Build a backend by short name: ``serial``, ``omp``, ``cuda`` or
    ``procpool``."""
    try:
        cls = BACKENDS[name]
    except KeyError:
        raise PFPLUsageError(
            f"unknown backend {name!r}; expected one of {sorted(BACKENDS)}"
        ) from None
    return cls(**kwargs)

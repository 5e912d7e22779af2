"""The traced pass: timing wrappers installed around each layer's public
functions, where the program calls them.

Nothing in ``src/`` changes.  :class:`Tracer` replaces, for the duration
of one traced operation, the attributes the program looks up at call
time -- the quantizer's ``*_into`` methods, the stage names bound in
``repro.core.lossless.pipeline``, ``Backend.map_batch``/``assemble``,
the kernel and codec methods, header packing/parsing, ``PFPLWriter`` and
``StreamDecoder`` -- and restores them afterwards.  Stages are never
re-run standalone: the compressor runs them on 64-row shards out of warm
scratch arenas, and only the calls it makes are timed.

Each wrapper keeps a per-thread stack, so every layer gets both its
*inclusive* time and its *self* time (inclusive minus the wrapped layers
it called).  Self times of all layers plus an ``unattributed`` remainder
sum to the operation's wall time on a single thread.  Accumulation takes
a lock, so the threaded backend's workers can record concurrently.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

import numpy as np

from repro.core import compressor as _compressor
from repro.core import random_access as _random_access
from repro.core.chunking import ChunkCodec
from repro.core.header import Header
from repro.core.kernel import ChunkKernel
from repro.core.lossless import pipeline as _pipeline
from repro.core.lossless.pipeline import LosslessPipeline
from repro.core.quantizers.base import Quantizer
from repro.device.backend import Backend
from repro.io import PFPLWriter

#: Rows of each direction's self-time table, in pipeline order; any other
#: layer seen in an operation is summed into an ``other`` row.
ENCODE_ROWS = ("quantize", "delta", "bitshuffle", "zero_elim", "select", "kernel_enc",
               "backend", "assemble", "header", "io_append", "io_close")
DECODE_ROWS = ("header_decode", "zero_restore", "bitunshuffle", "delta_decode",
               "dequantize", "kernel_dec", "backend", "ra_open", "ra_chunk", "ra_range")


def _nbytes(x) -> int:
    return int(getattr(x, "nbytes", None) or len(x))


class Tracer:
    """Accumulates per-layer self/inclusive seconds, bytes and counters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.bytes: dict[str, int] = defaultdict(int)
        self.count: dict[str, float] = defaultdict(float)
        self._saved: list[tuple[object, str, object]] = []

    # -- accumulation -----------------------------------------------------------

    def add(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.count[name] += value

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "self": dict(self.self_s), "incl": dict(self.incl_s),
                "calls": dict(self.calls), "bytes": dict(self.bytes),
                "count": dict(self.count),
            }

    @staticmethod
    def delta(after: dict, before: dict) -> dict:
        """Per-phase difference of two snapshots."""
        return {
            kind: {k: v - before[kind].get(k, 0) for k, v in table.items()}
            for kind, table in after.items()
        }

    def _wrap(self, layer: str, fn, nbytes=None, after=None):
        """Time ``fn`` as ``layer``; ``nbytes(args)`` names the bytes it
        processed, ``after(args, result)`` records extra counters."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                with tracer._lock:
                    tracer.self_s[layer] += dt - child
                    tracer.incl_s[layer] += dt
                    tracer.calls[layer] += 1
            if nbytes is not None:
                n = nbytes(args, kwargs)
                with tracer._lock:
                    tracer.bytes[layer] += n
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- install / restore ---------------------------------------------------------

    def _patch(self, owner, attr: str, layer: str, nbytes=None, after=None) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
        fn = raw.__func__ if kind else raw
        wrapped = self._wrap(layer, fn, nbytes, after)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, kind(wrapped) if kind else wrapped)

    def install(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer already installed")
        p = self._patch
        a0 = lambda args, kw: _nbytes(args[1])  # noqa: E731 -- method: args[0] is self
        f0 = lambda args, kw: _nbytes(args[0])  # noqa: E731 -- plain function

        def outliers(args, result) -> None:
            self.add("outliers", int(result))

        for attr in ("encode_batch_into", "encode_into"):
            p(Quantizer, attr, "quantize", a0, outliers)
        for attr in ("decode_batch_into", "decode_into"):
            p(Quantizer, attr, "dequantize", a0)

        # Stage names bound in the pipeline module (looked up at call time).
        p(_pipeline, "delta_encode_batch", "delta", f0)
        p(_pipeline, "delta_encode", "delta", f0)
        p(_pipeline, "bitshuffle_batch", "bitshuffle", f0)
        p(_pipeline, "bitshuffle", "bitshuffle", f0)
        p(_pipeline, "compress_bytes_batch", "zero_elim", f0)
        p(_pipeline, "compress_bytes", "zero_elim", f0)
        p(_pipeline, "decompress_bytes_batch", "zero_restore",
          lambda args, kw: len(args[1]) * int(args[3]))
        p(_pipeline, "decompress_bytes", "zero_restore", lambda args, kw: int(args[1]))
        p(_pipeline, "bitunshuffle_batch", "bitunshuffle", f0)
        p(_pipeline, "bitunshuffle", "bitunshuffle", f0)
        p(_pipeline, "delta_decode_batch", "delta_decode", f0)
        p(_pipeline, "delta_decode", "delta_decode", f0)

        # Selection: one zero-elim pass per candidate per chunk.
        def passes_batch(args, result) -> None:
            self.add("candidate_passes", args[1].shape[0] * len(args[2]))

        def passes_chunk(args, result) -> None:
            self.add("candidate_passes", len(args[2]))

        p(LosslessPipeline, "encode_batch_variants", "select", after=passes_batch)
        p(LosslessPipeline, "encode_variants", "select", after=passes_chunk)
        for attr in ("encode_batch", "encode_chunk"):
            p(LosslessPipeline, attr, "kernel_enc")
            p(ChunkCodec, attr, "kernel_enc")
        for attr in ("decode_batch", "decode_chunk"):
            p(LosslessPipeline, attr, "kernel_dec")
            p(ChunkCodec, attr, "kernel_dec")

        def batch_rows(args, result) -> None:
            self.add("batch_calls")
            self.add("batch_rows", int(np.shape(args[1])[0]))

        def decode_rows(args, result) -> None:
            self.add("batch_calls")
            self.add("batch_rows", len(args[2]))
            self.add("values_decoded", int(np.size(result)))

        def chunk_call(args, result) -> None:
            self.add("chunk_calls")

        def chunk_decoded(args, result) -> None:
            self.add("chunk_calls")
            self.add("values_decoded", int(args[2]))

        p(ChunkKernel, "encode_batch", "kernel_enc", after=batch_rows)
        p(ChunkKernel, "encode_chunk", "kernel_enc", after=chunk_call)
        p(ChunkKernel, "decode_batch", "kernel_dec", after=decode_rows)
        p(ChunkKernel, "decode_chunk", "kernel_dec", after=chunk_decoded)

        # Backend dispatch: shards, and per-shard busy time on any thread.
        # The writer's default executor (InlineBackend) has its own copy.
        for cls in (Backend, _compressor.InlineBackend):
            self._patch_map_batch(cls)
        p(Backend, "assemble", "assemble")
        p(_compressor.InlineBackend, "assemble", "assemble")

        p(Header, "pack", "header")
        p(ChunkCodec, "build_size_table", "header")
        p(Header, "unpack", "header_decode")
        p(Header, "validate", "header_decode")
        p(Header, "read_size_table", "header_decode")
        p(ChunkCodec, "parse_size_table", "header_decode")
        p(_compressor, "validate_size_table", "header_decode")
        p(_random_access, "validate_size_table", "header_decode")

        p(PFPLWriter, "append", "io_append")
        p(PFPLWriter, "close", "io_close")
        p(_random_access.StreamDecoder, "__init__", "ra_open")
        p(_random_access.StreamDecoder, "decode_chunk", "ra_chunk")
        p(_random_access.StreamDecoder, "decode_range", "ra_range")
        return self

    def _patch_map_batch(self, cls) -> None:
        tracer = self
        orig = cls.__dict__["map_batch"]

        def map_batch(backend, fn, n_rows, costs=None):
            def shard(lo, hi):
                t0 = time.perf_counter()
                try:
                    return fn(lo, hi)
                finally:
                    tracer.add("worker_busy_s", time.perf_counter() - t0)
                    tracer.add("shards")
            return orig(backend, shard, n_rows, costs=costs)

        self._saved.append((cls, "map_batch", orig))
        cls.map_batch = self._wrap("backend", map_batch)

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()


LOSSLESS = ("delta", "bitshuffle", "zero_elim", "zero_restore", "bitunshuffle", "delta_decode")
PIPELINES = ("default", "no-shuffle", "direct-zero")

#: Every per-layer metric, in report order; each workload prints all of
#: them (a layer a workload never calls reads 0).
PER_LAYER: list[tuple[str, str]] = (
    [("quantizers.encode_s", "s"), ("quantizers.decode_s", "s"),
     ("quantizers.outlier_fraction", "fraction")]
    + [(f"lossless.{st}_{k}", u) for st in LOSSLESS
       for k, u in (("s", "s"), ("bytes", "bytes"), ("gbps", "GB/s"))]
    + [("select.candidate_passes", "count"), ("select.useful_ratio", "fraction")]
    + [(f"select.share.{p}", "fraction") for p in PIPELINES]
    + [("kernel.batch_calls", "count"), ("kernel.batch_rows", "count"),
       ("kernel.chunk_calls", "count"), ("kernel.raw_fraction", "fraction"),
       ("kernel.encode_self_s", "s"), ("kernel.decode_self_s", "s")]
    + [("compressor.assemble_s", "s"), ("compressor.header_s", "s"),
       ("compressor.header_decode_s", "s"),
       ("compressor.encode_unattributed_s", "s"),
       ("compressor.encode_unattributed_fraction", "fraction"),
       ("compressor.decode_unattributed_s", "s"),
       ("compressor.decode_unattributed_fraction", "fraction")]
    + [("backend.map_batch_s", "s"), ("backend.shards", "count"),
       ("backend.worker_busy_s", "s"), ("backend.worker_idle_fraction", "fraction"),
       ("backend.par_compress_gbps", "GB/s"), ("backend.par_decompress_gbps", "GB/s")]
    + [("io.append_s", "s"), ("io.close_s", "s"), ("ra.open_s", "s"),
       ("ra.decode_range_s", "s"), ("ra.read_amplification", "x")]
    + [("serve.connect_ms", "ms"), ("serve.send_ms", "ms"), ("serve.ttfb_ms", "ms"),
       ("serve.recv_ms", "ms"), ("serve.queue_wait_ms", "ms"), ("serve.handler_ms", "ms"),
       ("serve.offload_ms", "ms"), ("serve.unattributed_fraction", "fraction"),
       ("serve.rejected_fraction", "fraction"), ("serve.backlog_max", "count"),
       ("serve.generator_late_ms_max", "ms")]
    + [("scratch.bytes", "bytes"), ("host.copy_gbps", "GB/s"), ("host.cpus", "count"),
       ("host.l2_bytes", "bytes"), ("host.l3_bytes", "bytes"),
       ("trace.overhead_fraction", "fraction")]
)


def blank_layers() -> dict[str, list]:
    return {name: [0.0, unit] for name, unit in PER_LAYER}


def _med(phases: list[dict], kind: str, key: str) -> float:
    if not phases:
        return 0.0
    return float(np.median([ph[kind].get(key, 0) for ph in phases]))


def table(phase_self: dict, rows: tuple[str, ...], wall_s: float) -> list[tuple[str, float]]:
    """Self-time rows of one direction plus the ``unattributed`` remainder."""
    out = [(r, phase_self.get(r, 0.0)) for r in rows if phase_self.get(r, 0.0)]
    other = sum(v for k, v in phase_self.items() if k not in rows)
    if other:
        out.append(("other", other))
    out.append(("unattributed", wall_s - sum(v for _, v in out)))
    return out


def codec_layers(m: dict, enc: list[dict], dec: list[dict], enc_wall: list[float],
                 dec_wall: list[float], base_enc: float, base_dec: float,
                 notes: list[str]) -> None:
    """Fill the quantizer / lossless / kernel / compressor rows from traced
    single-thread operations (one phase per operation) and print the two
    direction tables.  ``base_*`` are the untraced median seconds the
    unattributed share is measured against."""
    m["quantizers.encode_s"][0] = _med(enc, "self", "quantize")
    m["quantizers.decode_s"][0] = _med(dec, "self", "dequantize")
    for stage in LOSSLESS:
        phases = dec if stage in ("zero_restore", "bitunshuffle", "delta_decode") else enc
        secs = _med(phases, "self", stage)
        nbytes = _med(phases, "bytes", stage)
        m[f"lossless.{stage}_s"][0] = secs
        m[f"lossless.{stage}_bytes"][0] = nbytes
        m[f"lossless.{stage}_gbps"][0] = nbytes / secs / 1e9 if secs else 0.0
    m["select.candidate_passes"][0] = _med(enc, "count", "candidate_passes")
    for key in ("batch_calls", "batch_rows", "chunk_calls"):
        m[f"kernel.{key}"][0] = _med(enc, "count", key) + _med(dec, "count", key)
    m["kernel.encode_self_s"][0] = _med(enc, "self", "kernel_enc")
    m["kernel.decode_self_s"][0] = _med(dec, "self", "kernel_dec")
    m["compressor.assemble_s"][0] = _med(enc, "self", "assemble")
    m["compressor.header_s"][0] = _med(enc, "self", "header")
    m["compressor.header_decode_s"][0] = _med(dec, "self", "header_decode")
    for direction, phases, walls, rows, base in (
        ("encode", enc, enc_wall, ENCODE_ROWS, base_enc),
        ("decode", dec, dec_wall, DECODE_ROWS, base_dec),
    ):
        if not phases:
            continue
        # The median operation's table (by wall time) keeps rows consistent.
        i = int(np.argsort(walls)[len(walls) // 2])
        rows_s = table(phases[i]["self"], rows, walls[i])
        unattributed = rows_s[-1][1]
        m[f"compressor.{direction}_unattributed_s"][0] = unattributed
        m[f"compressor.{direction}_unattributed_fraction"][0] = unattributed / base
        notes.append(f"{direction} layer table (self time, median traced op "
                     f"{walls[i] * 1e3:.2f} ms; untraced median {base * 1e3:.2f} ms):")
        for name, secs in rows_s:
            flag = "  <-- above 10%" if name == "unattributed" and secs > 0.1 * base else ""
            notes.append(f"    {name:<14} {secs * 1e3:9.3f} ms  {secs / base:7.1%}{flag}")


def stream_layers(m: dict, stream: bytes) -> None:
    """Selection shares and raw fraction, read from the stream's size table."""
    head = Header.unpack(stream)
    sizes, raw, pids, _ = ChunkCodec.parse_size_table(
        head.read_size_table(stream), head.pipeline_select
    )
    n = max(1, sizes.size)
    m["kernel.raw_fraction"][0] = float(np.count_nonzero(raw)) / n
    kept = int(np.count_nonzero(~raw))
    if head.pipeline_select and kept:
        for pid, name in enumerate(PIPELINES):
            m[f"select.share.{name}"][0] = float(np.count_nonzero(pids[~raw] == pid)) / kept
        passes = m["select.candidate_passes"][0]
        m["select.useful_ratio"][0] = kept / passes if passes else 0.0

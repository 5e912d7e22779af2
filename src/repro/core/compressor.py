"""The PFPL compressor: public compress/decompress API.

This ties together the three building blocks from Figure 1:

1. a lossy quantizer (ABS / REL / NOA) with a guaranteed error bound,
2. the fused 3-stage lossless pipeline applied per 16 kB chunk,
3. chunk framing with a size table and raw-chunk fallback.

Since the fused-kernel refactor the unit of scheduled work is a
:class:`~repro.core.kernel.ChunkKernel`: each chunk runs the *whole*
codec (quantize + lossless) over its own 16 kB slice of the input, and
decompression writes every chunk straight into its slice of the output
array.  No whole-array word stream ever exists on either side, so peak
memory stays near one output-array's worth plus the compressed bytes.

Execution is delegated to a *backend* (see :mod:`repro.device`), which
decides how kernels are scheduled -- serially, across CPU threads, or on
the simulated GPU -- and assembles the chunk blobs into a preallocated
buffer through its prefix-sum primitive.  Every backend produces
bit-for-bit identical output; the default inline backend simply runs
kernels in a loop.

Typical use::

    from repro import compress, decompress
    blob = compress(data, mode="abs", error_bound=1e-3)
    recon = decompress(blob)
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from ..errors import PFPLConfigMismatchError, PFPLFormatError, PFPLUsageError
from ..telemetry import NULL_TELEMETRY
# validate_size_table is unused here: perfbench/layers.py patches this
# module's binding.
from .chunking import CHUNK_BYTES, ChunkCodec, plan_shards, validate_size_table  # noqa: F401
from .floatbits import layout_for
from .header import Header
from .kernel import ChunkKernel, ChunkStats
from .lossless.pipeline import LosslessPipeline, PipelineConfig, normalize_selection
from .quantizers import Quantizer, make_quantizer

__all__ = ["PFPLCompressor", "compress", "decompress", "CompressionResult", "InlineBackend"]

#: Integer input dtypes accepted by the one-shot :func:`compress` and the
#: float dtype each is coerced to.  The rule: integers whose values a
#: float32 mantissa always holds exactly (8/16-bit) become float32;
#: wider integers become float64 (64-bit values beyond 2**53 round, which
#: the coercion docstring calls out).
_INT_COERCION = {
    np.dtype(np.int8): np.float32,
    np.dtype(np.uint8): np.float32,
    np.dtype(np.int16): np.float32,
    np.dtype(np.uint16): np.float32,
    np.dtype(np.int32): np.float64,
    np.dtype(np.uint32): np.float64,
    np.dtype(np.int64): np.float64,
    np.dtype(np.uint64): np.float64,
}


def resolve_format_options(
    config: PipelineConfig | None,
    checksum: bool,
    format_version: int | None,
    pipelines,
) -> tuple[PipelineConfig, bool]:
    """Resolve the (config, checksum) pair a writer should encode with.

    Shared by :class:`PFPLCompressor` and :class:`repro.io.PFPLWriter` so
    both surfaces apply identical rules: ``format_version=None`` infers
    the version from ``checksum`` / ``pipelines`` (keeping v1/v2 output
    byte-identical to earlier releases), ``format_version=3`` turns on
    per-chunk pipeline selection (all three candidates unless
    ``pipelines=`` narrows them), and contradictory combinations raise
    :class:`~repro.errors.PFPLUsageError`.
    """
    config = config or PipelineConfig()
    if format_version not in (None, 1, 2, 3):
        raise PFPLUsageError(
            f"unknown format_version {format_version!r} (supported: 1, 2, 3)"
        )
    if pipelines is not None and format_version in (1, 2):
        raise PFPLUsageError(
            f"format version {format_version} predates pipeline selection; "
            "use format_version=3 (or leave it unset) with pipelines="
        )
    if format_version == 1 and checksum:
        raise PFPLUsageError(
            "format version 1 has no checksum footer; use format_version=2"
        )
    if format_version == 2:
        checksum = True
    if pipelines is not None:
        config = replace(config, select=normalize_selection(pipelines))
    elif format_version == 3 and not config.select:
        config = replace(config, select=(0, 1, 2))
    elif format_version in (1, 2) and config.select:
        raise PFPLUsageError(
            f"format version {format_version} predates pipeline selection; "
            "drop select= from the PipelineConfig or use format_version=3"
        )
    return config, bool(checksum)


def frame_stream(
    mode: str, dtype, error_bound: float, value_range: float, count: int,
    words_per_chunk: int, config: PipelineConfig, checksum: bool,
    sizes: Sequence[int], raw_flags: Sequence[bool], pipeline_ids: Sequence[int],
    chunk_crcs: Sequence[int],
) -> tuple[bytes, bytes]:
    """The container around a stream's chunk payloads: ``(prefix, footer)``.

    The prefix is the header plus the size table; the footer (checksummed
    streams only, else empty) is the CRC-32 of the prefix followed by
    ``chunk_crcs``, the CRC-32 of each chunk payload (little-endian u32
    each).  Shared by :meth:`PFPLCompressor.compress` and
    :class:`repro.io.PFPLWriter`, so both write the same bytes.
    """
    header = Header(
        mode=mode, dtype=dtype, error_bound=error_bound, value_range=value_range,
        count=count, words_per_chunk=words_per_chunk, n_chunks=len(sizes),
        use_delta=config.use_delta, use_bitshuffle=config.use_bitshuffle,
        use_zero_elim=config.use_zero_elim, bitmap_levels=config.bitmap_levels,
        checksum=checksum, pipeline_select=bool(config.select),
    )
    table = ChunkCodec.build_size_table(
        sizes, raw_flags, pipeline_ids if config.select else None
    )
    prefix = header.pack() + table.astype("<u4").tobytes()
    if not checksum:
        return prefix, b""
    crcs = np.empty(1 + len(chunk_crcs), dtype="<u4")
    crcs[0] = zlib.crc32(prefix)
    crcs[1:] = chunk_crcs
    return prefix, crcs.tobytes()


class InlineBackend:
    """Minimal executor: runs chunk kernels in a simple loop.

    Device backends (:mod:`repro.device`) provide the same methods with
    parallel / simulated-GPU scheduling behind them.
    """

    name = "inline"
    telemetry = NULL_TELEMETRY
    last_order: list[int] | None = None
    #: Chunk-major batch dispatch (see ``repro.device.backend.Backend``):
    #: the inline executor takes the batched kernels too -- same bytes,
    #: one vectorized call per shard instead of one per chunk.
    batch_capable = True
    batch_rows = 64

    def make_pipeline(self, word_dtype, config: PipelineConfig) -> LosslessPipeline:
        return LosslessPipeline(word_dtype, config)

    def make_kernel(
        self,
        quantizer: Quantizer,
        config: PipelineConfig,
        chunk_bytes: int,
        telemetry=NULL_TELEMETRY,
    ) -> ChunkKernel:
        pipeline = self.make_pipeline(quantizer.layout.uint_dtype, config)
        return ChunkKernel(quantizer, pipeline, chunk_bytes, telemetry=telemetry)

    def map_chunks(self, fn: Callable, items: Sequence, costs=None) -> list:
        self.last_order = list(range(len(items)))
        return [fn(item) for item in items]

    def map_batch(self, fn: Callable, n_rows: int, costs=None) -> list:
        """Run ``fn(lo, hi)`` over contiguous row shards of a batch."""
        shards = plan_shards(n_rows, self.batch_rows, costs=costs)
        return self.map_chunks(lambda r: fn(*r), shards)

    def prefix_sum(self, sizes: np.ndarray) -> np.ndarray:
        starts = np.zeros(len(sizes), dtype=np.int64)
        if len(sizes) > 1:
            np.cumsum(np.asarray(sizes, dtype=np.int64)[:-1], out=starts[1:])
        return starts

    def assemble(self, prefix: bytes, blobs: Sequence[bytes]) -> bytes:
        """Place prefix + blobs in one preallocated buffer via prefix sum."""
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


@dataclass
class CompressionResult:
    """Compressed stream plus encoder-side bookkeeping."""

    data: bytes
    original_bytes: int
    lossless_values: int
    total_values: int
    raw_chunks: int = 0

    @property
    def compressed_bytes(self) -> int:
        return len(self.data)

    @property
    def ratio(self) -> float:
        return self.original_bytes / max(1, self.compressed_bytes)

    @property
    def lossless_fraction(self) -> float:
        return self.lossless_values / self.total_values if self.total_values else 0.0


def encode_one_chunk(kernel: ChunkKernel, tel, index: int, float_slice: np.ndarray):
    """Encode chunk ``index`` on the per-chunk kernel, in its own span.

    Returns a one-chunk shard ``([blob], [raw], [pipeline_id], stats)``.
    """
    with tel.chunk(index), tel.span(
        "chunk_encode", cat="chunk", values=int(float_slice.size)
    ) as sp:
        blob, raw, pid, st = kernel.encode_chunk(float_slice)
        sp.set(bytes_out=len(blob), outliers=st.lossless, raw=bool(raw))
    return [blob], [raw], [pid], st


def encode_shard(
    kernel: ChunkKernel, tel, block: np.ndarray, first_chunk: int,
    lo: int, hi: int, trace=None,
) -> tuple[list, np.ndarray, np.ndarray, ChunkStats]:
    """Encode rows ``[lo, hi)`` of ``block`` in one ``batch_encode`` span.

    The one batch-encode shard, run by ``map_batch`` shards and by
    process-pool workers; ``first_chunk`` is the stream index of the
    block's first row.  A worker passes its shard context as ``trace``:
    the span *is* that context, and the stage spans nest under it.
    """
    with tel.trace(trace or tel.current_trace()), tel.span(
        "batch_encode", cat="chunk", trace=trace, first_chunk=first_chunk + lo,
        chunks=hi - lo, values=(hi - lo) * block.shape[1],
    ) as sp:
        blobs, raws, pids, st = kernel.encode_batch(block[lo:hi])
        sizes = list(map(len, blobs))
        sp.set(
            bytes_out=sum(sizes), chunk_bytes_out=sizes,
            outliers=st.lossless, raw_chunks=st.raw_chunks,
        )
    return blobs, raws, pids, st


def encode_chunks(
    backend,
    kernel: ChunkKernel,
    flat: np.ndarray,
    tel=NULL_TELEMETRY,
    first_chunk: int = 0,
) -> tuple[list, list[bool], list[int], ChunkStats]:
    """Encode the chunks of ``flat`` in the backend's execution shape.

    The encode driver shared by :meth:`PFPLCompressor.compress` and
    :class:`repro.io.PFPLWriter`.  ``flat`` holds full chunks except
    possibly a ragged last one, and ``first_chunk`` is the stream index
    of its first chunk.  The full-size chunks go to whole-array offload
    on an ``offload_capable`` backend (a process pool: closures cannot
    cross a process boundary, so it takes the block plus the picklable
    kernel spec) or to chunk-major ``map_batch`` shards on a
    ``batch_capable`` one, and the ragged tail to the per-chunk kernel.
    Any other backend maps the per-chunk kernel over every chunk.
    Returns ``(blobs, raw_flags, pipeline_ids, stats)`` in chunk order.
    """
    plan = kernel.plan(flat.size)
    wpc = plan.words_per_chunk
    n_full = flat.size // wpc

    def encode_one(index: int):
        return encode_one_chunk(
            kernel, tel, first_chunk + index,
            flat[slice(*plan.chunk_value_bounds(index))],
        )

    if not (n_full and getattr(backend, "batch_capable", False)):
        shards = backend.map_chunks(encode_one, range(plan.n_chunks))
    else:
        block = flat[: n_full * wpc].reshape(n_full, wpc)
        if getattr(backend, "offload_capable", False):
            with tel.span(
                "offload_encode", cat="scheduler", chunks=n_full,
                first_chunk=first_chunk, values=int(block.size),
            ) as sp:
                shards = [backend.encode_array(
                    kernel.quantizer, kernel.codec.pipeline.config,
                    kernel.chunk_bytes, block, first_chunk,
                )]
                sp.set(bytes_out=sum(map(len, shards[0][0])))
        else:
            shards = backend.map_batch(
                lambda lo, hi: encode_shard(kernel, tel, block, first_chunk, lo, hi),
                n_full,
            )
        shards.extend(encode_one(i) for i in range(n_full, plan.n_chunks))
    blobs: list = []
    raw_flags: list[bool] = []
    pids: list[int] = []
    stats = ChunkStats()
    for shard_blobs, shard_raws, shard_pids, st in shards:
        blobs.extend(shard_blobs)
        raw_flags.extend(map(bool, shard_raws))
        pids.extend(map(int, shard_pids))
        stats = stats + st
    return blobs, raw_flags, pids, stats


class PFPLCompressor:
    """Configured PFPL instance for one (mode, bound, dtype) combination.

    Parameters
    ----------
    mode:
        ``"abs"``, ``"rel"`` or ``"noa"``.
    error_bound:
        The point-wise error bound ``eps``.
    dtype:
        ``np.float32`` or ``np.float64``.
    backend:
        Optional execution backend; default runs chunks inline.
    config:
        :class:`PipelineConfig` stage toggles (for ablations).
    checksum:
        When true, emit a format-version-2 stream with a CRC-32 footer
        (one checksum for the header + size table, one per chunk) so
        decoders detect bit-rot instead of reconstructing from it.  The
        default keeps the version-1 byte-identical format.
    telemetry:
        Optional :class:`repro.telemetry.Telemetry` recording per-chunk
        per-stage spans and codec counters; the default null telemetry's
        spans and counters are no-ops, and the output bytes are the same
        either way.  The execution shape (whole-array offload, chunk-major
        batches or per-chunk kernels) follows the backend's
        ``offload_capable``/``batch_capable`` attributes; the bytes are
        identical in every shape (golden-tested).
    format_version:
        Pin the on-disk format: 1 (no footer), 2 (checksum footer) or 3
        (per-chunk pipeline selection, optionally with the footer).
        ``None`` (default) infers it from ``checksum`` / ``pipelines``,
        keeping the v1/v2 output byte-identical to earlier releases --
        v3 stays opt-in.
    pipelines:
        Candidate lossless pipelines for per-chunk selection (format
        v3): a sequence of ids or names among ``0/"default"``,
        ``1/"no-shuffle"``, ``2/"direct-zero"``.  Each chunk stores
        whichever candidate encoded smallest (raw stays the final
        fallback).  ``format_version=3`` with ``pipelines=None`` enables
        all three.
    """

    def __init__(
        self,
        mode: str = "abs",
        error_bound: float = 1e-3,
        dtype=np.float32,
        backend=None,
        config: PipelineConfig | None = None,
        chunk_bytes: int | None = None,
        checksum: bool = False,
        telemetry=None,
        format_version: int | None = None,
        pipelines=None,
    ):
        self.mode = mode
        self.error_bound = float(error_bound)
        self.layout = layout_for(dtype)
        self.backend = backend or InlineBackend()
        self.config, self.checksum = resolve_format_options(
            config, checksum, format_version, pipelines
        )
        self.chunk_bytes = chunk_bytes or CHUNK_BYTES
        self.telemetry = telemetry or NULL_TELEMETRY
        if self.telemetry.enabled and not getattr(
            self.backend, "telemetry", NULL_TELEMETRY
        ).enabled:
            # Let the backend attribute queue-wait / execution spans to
            # the same recorder (a backend configured with its own
            # telemetry keeps it).
            self.backend.telemetry = self.telemetry
        # Validate the bound eagerly (cheap, catches bad eps before data).
        make_quantizer(mode, self.error_bound, dtype=self.layout.float_dtype)

    # -- compression -------------------------------------------------------

    def compress(self, data: np.ndarray) -> CompressionResult:
        """Compress ``data`` and return the stream + statistics."""
        tel = self.telemetry
        flat = np.ascontiguousarray(data, dtype=self.layout.float_dtype).reshape(-1)
        quantizer = make_quantizer(
            self.mode, self.error_bound, dtype=self.layout.float_dtype
        )
        # Global pre-pass (NOA's min/max reduction; no-op for ABS/REL):
        # after this every chunk kernel is pure and order-independent.
        with tel.span("prepare", cat="codec", mode=self.mode, values=flat.size):
            params = quantizer.prepare(flat)
        kernel = self.backend.make_kernel(
            quantizer, self.config, self.chunk_bytes, telemetry=tel
        )
        blobs, raw_flags, pids, stats = encode_chunks(self.backend, kernel, flat, tel)

        prefix, footer = frame_stream(
            self.mode, self.layout.float_dtype, self.error_bound,
            float(params.get("value_range", 0.0)), flat.size,
            kernel.words_per_chunk, self.config, self.checksum,
            [len(b) for b in blobs], raw_flags, pids,
            [zlib.crc32(b) for b in blobs] if self.checksum else [],
        )
        if footer:
            # The footer rides as one extra blob so assembly stays a single
            # scatter into the preallocated buffer.
            blobs = blobs + [footer]
        with tel.span(
            "assemble", cat="encode",
            bytes_in=sum(map(len, blobs)) + len(prefix),
        ) as sp:
            stream = self.backend.assemble(prefix, blobs)
            sp.set(bytes_out=len(stream))
        return CompressionResult(
            data=stream,
            original_bytes=flat.nbytes,
            lossless_values=stats.lossless,
            total_values=stats.total,
            raw_chunks=stats.raw_chunks,
        )

    # -- decompression -----------------------------------------------------

    def decompress(self, stream: bytes) -> np.ndarray:
        """Decompress a PFPL stream, validating it against this instance.

        The stream must have been produced with this compressor's mode,
        dtype and error bound; a mismatch raises
        :class:`~repro.errors.PFPLConfigMismatchError` instead of silently
        decoding with different parameters.  Use the module-level
        :func:`decompress` for arbitrary self-describing streams.
        """
        header = Header.unpack(stream)
        problems = []
        if header.mode != self.mode:
            problems.append(f"mode {header.mode!r} != configured {self.mode!r}")
        if np.dtype(header.dtype) != self.layout.float_dtype:
            problems.append(
                f"dtype {np.dtype(header.dtype)} != configured {self.layout.float_dtype}"
            )
        if header.error_bound != self.error_bound:
            problems.append(
                f"error bound {header.error_bound:g} != configured {self.error_bound:g}"
            )
        if problems:
            raise PFPLConfigMismatchError(
                "stream does not match this PFPLCompressor ("
                + "; ".join(problems)
                + "); use repro.core.decompress() for self-describing decode"
            )
        return decompress(stream, backend=self.backend, telemetry=self.telemetry)


def compress(
    data: np.ndarray,
    mode: str = "abs",
    error_bound: float = 1e-3,
    backend=None,
    config: PipelineConfig | None = None,
    checksum: bool = False,
    telemetry=None,
    format_version: int | None = None,
    pipelines=None,
) -> bytes:
    """One-shot convenience wrapper; returns just the compressed bytes.

    Accepts float32/float64 arrays natively.  Integer arrays are coerced
    to the matching float dtype first -- 8/16-bit integers to float32
    (always exact), 32/64-bit integers to float64 (exact up to 2**53) --
    and float16 is widened to float32.  Anything else (bool, complex,
    strings, objects) raises :class:`~repro.errors.PFPLFormatError`.

    Pass ``checksum=True`` to emit a version-2 stream with the CRC-32
    footer, or ``format_version=3`` / ``pipelines=`` for per-chunk
    pipeline selection (see :class:`PFPLCompressor`).
    """
    arr = np.asarray(data)
    if arr.dtype in _INT_COERCION:
        arr = arr.astype(_INT_COERCION[arr.dtype])
    elif arr.dtype == np.float16:
        arr = arr.astype(np.float32)
    elif arr.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise PFPLFormatError(
            f"cannot compress dtype {arr.dtype}: PFPL supports float32/float64 "
            "natively and coerces integer or float16 input; convert other "
            "dtypes explicitly"
        )
    comp = PFPLCompressor(
        mode=mode, error_bound=error_bound, dtype=arr.dtype,
        backend=backend, config=config, checksum=checksum, telemetry=telemetry,
        format_version=format_version, pipelines=pipelines,
    )
    return comp.compress(arr).data


def decompress(
    stream: bytes,
    backend=None,
    out: np.ndarray | None = None,
    telemetry=None,
) -> np.ndarray:
    """Decompress a PFPL stream into a 1-D array of the original dtype.

    The stream is self-describing: mode, bound, dtype, NOA range and the
    pipeline configuration all come from the header, so any PFPL stream
    decompresses on any device -- the paper's portability property.

    This is :meth:`StreamDecoder.decode_all
    <repro.core.random_access.StreamDecoder.decode_all>`: the stream is
    validated once, and every chunk's kernel writes its floats directly
    into that chunk's slice of the output array (pass ``out`` to reuse a
    caller buffer), so peak memory is the output array plus shard-sized
    temporaries.  The execution shape follows the backend as in
    :class:`PFPLCompressor`.
    """
    # Imported here: random_access builds on this module's InlineBackend.
    from .random_access import StreamDecoder

    return StreamDecoder(stream, backend, telemetry).decode_all(out)

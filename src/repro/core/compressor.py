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

from ..errors import (
    PFPLConfigMismatchError,
    PFPLError,
    PFPLFormatError,
    PFPLIntegrityError,
    PFPLTruncatedError,
    PFPLUsageError,
)
from ..telemetry import NULL_TELEMETRY
from .chunking import CHUNK_BYTES, ChunkCodec, plan_shards, validate_size_table
from .floatbits import layout_for
from .header import Header
from .kernel import ChunkKernel, ChunkStats
from .lossless.pipeline import (
    LosslessPipeline,
    PipelineConfig,
    normalize_selection,
    variant_config,
)
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


def _crc_footer(prefix: bytes, blobs: Sequence[bytes]) -> bytes:
    """Build the version-2 checksum footer: CRC-32 of the header + size
    table, then CRC-32 of each chunk payload (little-endian u32 each)."""
    crcs = np.empty(1 + len(blobs), dtype="<u4")
    crcs[0] = zlib.crc32(prefix)
    for i, blob in enumerate(blobs):
        crcs[1 + i] = zlib.crc32(blob)
    return crcs.tobytes()


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


def _kernel_for_header(header: Header, backend, telemetry=NULL_TELEMETRY) -> ChunkKernel:
    """Rebuild the decode-side fused kernel a stream's header describes.

    Header fields come from untrusted bytes, so a quantizer rejecting its
    parameters (a bound the mode cannot honor, a bad NOA range) is a
    *format* problem of the stream, not a caller bug -- re-raised as
    :class:`PFPLFormatError`.
    """
    config = PipelineConfig(
        use_delta=header.use_delta,
        use_bitshuffle=header.use_bitshuffle,
        use_zero_elim=header.use_zero_elim,
        bitmap_levels=header.bitmap_levels,
    )
    layout = layout_for(header.dtype)
    kwargs = {}
    if header.mode == "noa":
        kwargs["value_range"] = header.value_range
    try:
        quantizer = make_quantizer(
            header.mode, header.error_bound, dtype=layout.float_dtype, **kwargs
        )
    except PFPLError:
        raise
    except (ValueError, TypeError, OverflowError) as exc:
        raise PFPLFormatError(f"corrupt header: {exc}") from exc
    # Honor the stream's chunk geometry (the paper's default is 16 kB;
    # the chunk-size ablation writes other sizes).
    chunk_bytes = header.words_per_chunk * layout.uint_dtype.itemsize
    return backend.make_kernel(quantizer, config, chunk_bytes, telemetry=telemetry)


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
                    kernel.chunk_bytes, block,
                )]
                sp.set(bytes_out=sum(map(len, shards[0][0])))
        else:
            def encode_rows(lo: int, hi: int):
                with tel.span(
                    "batch_encode", cat="chunk", first_chunk=first_chunk + lo,
                    chunks=hi - lo, values=(hi - lo) * wpc,
                ) as sp:
                    blobs, raws, pids, st = kernel.encode_batch(block[lo:hi])
                    sizes = list(map(len, blobs))
                    sp.set(
                        bytes_out=sum(sizes), chunk_bytes_out=sizes,
                        outliers=st.lossless, raw_chunks=st.raw_chunks,
                    )
                return blobs, raws, pids, st

            shards = backend.map_batch(encode_rows, n_full)
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
        plan = kernel.plan(flat.size)
        blobs, raw_flags, pids, stats = encode_chunks(self.backend, kernel, flat, tel)

        header = Header(
            mode=self.mode,
            dtype=self.layout.float_dtype,
            error_bound=self.error_bound,
            value_range=float(params.get("value_range", 0.0)),
            count=flat.size,
            words_per_chunk=plan.words_per_chunk,
            n_chunks=plan.n_chunks,
            use_delta=self.config.use_delta,
            use_bitshuffle=self.config.use_bitshuffle,
            use_zero_elim=self.config.use_zero_elim,
            bitmap_levels=self.config.bitmap_levels,
            checksum=self.checksum,
            pipeline_select=bool(self.config.select),
        )
        table = ChunkCodec.build_size_table(
            [len(b) for b in blobs], raw_flags,
            pids if self.config.select else None,
        )
        prefix = header.pack() + table.astype("<u4").tobytes()
        if self.checksum:
            # The footer rides as one extra blob so assembly stays a single
            # scatter into the preallocated buffer.
            blobs = blobs + [_crc_footer(prefix, blobs)]
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

    Each chunk's fused kernel writes its floats directly into that
    chunk's slice of the output array (pass ``out`` to reuse a caller
    buffer); no per-chunk arrays are concatenated, so peak memory is the
    output array plus chunk-sized temporaries.

    The execution shape follows the backend as in
    :class:`PFPLCompressor`.  On a ``batch_capable`` backend every
    non-raw full-size chunk decodes as a row of one chunk-major matrix;
    raw chunks and the ragged tail always take the per-chunk kernel.
    """
    backend = backend or InlineBackend()
    tel = telemetry or NULL_TELEMETRY
    header = Header.unpack(stream).validate()

    kernel = _kernel_for_header(header, backend, telemetry=tel)
    plan = kernel.plan(header.count)
    if plan.n_chunks != header.n_chunks or plan.words_per_chunk != header.words_per_chunk:
        raise PFPLFormatError("corrupt PFPL header: chunk plan mismatch")

    table = header.read_size_table(stream)
    sizes, raw_flags, pids, _ = ChunkCodec.parse_size_table(
        table, header.pipeline_select
    )
    validate_size_table(
        plan, sizes, raw_flags, kernel.layout.uint_dtype.itemsize,
        header.use_zero_elim, header.bitmap_levels,
        pipeline_ids=pids, pipeline_select=header.pipeline_select,
    )
    starts = backend.prefix_sum(sizes) + header.payload_offset
    payload_end = int(starts[-1] + sizes[-1]) if header.n_chunks else header.payload_offset
    if len(stream) < payload_end + header.footer_bytes:
        raise PFPLTruncatedError("PFPL stream truncated inside the chunk payload")

    chunk_crcs = None
    if header.checksum:
        crcs = np.frombuffer(
            stream, dtype="<u4", count=1 + header.n_chunks, offset=payload_end
        )
        if int(crcs[0]) != zlib.crc32(stream[: header.payload_offset]):
            raise PFPLIntegrityError(
                "PFPL header/size-table checksum mismatch (stream corrupted)"
            )
        chunk_crcs = crcs[1:]

    if out is None:
        out = np.empty(header.count, dtype=kernel.layout.float_dtype)
    elif out.shape != (header.count,) or out.dtype != kernel.layout.float_dtype:
        raise PFPLConfigMismatchError(
            f"output buffer must be ({header.count},) {kernel.layout.float_dtype}, "
            f"got {out.shape} {out.dtype}"
        )

    view = memoryview(stream)

    def decode_one(index: int) -> None:
        lo = int(starts[index])
        hi = lo + int(sizes[index])
        blob = view[lo:hi]
        with tel.chunk(index), tel.span(
            "chunk_decode", cat="chunk", bytes_in=int(sizes[index])
        ):
            if chunk_crcs is not None and zlib.crc32(blob) != int(chunk_crcs[index]):
                raise PFPLIntegrityError(
                    f"chunk {index} checksum mismatch (stream corrupted)"
                )
            vlo, vhi = plan.chunk_value_bounds(index)
            kernel.decode_chunk(
                blob, vhi - vlo, bool(raw_flags[index]), out=out[vlo:vhi],
                pipeline_id=int(pids[index]),
            )

    n_full = plan.n_chunks
    if plan.n_chunks and plan.n_words != plan.n_chunks * plan.words_per_chunk:
        n_full -= 1

    if n_full and getattr(backend, "batch_capable", False):
        # Batched rows: non-raw full-size chunks, grouped by pipeline id
        # so every batch decodes under a single lossless variant (v1/v2
        # streams have one group, id 0).  Raw chunks and the ragged tail
        # keep the per-chunk kernel below.
        rows_all = np.flatnonzero(~raw_flags[:n_full])
        wpc = plan.words_per_chunk
        out_block = out[: n_full * wpc].reshape(n_full, wpc)
        payload = np.frombuffer(stream, dtype=np.uint8)
        base_config = PipelineConfig(
            use_delta=header.use_delta,
            use_bitshuffle=header.use_bitshuffle,
            use_zero_elim=header.use_zero_elim,
            bitmap_levels=header.bitmap_levels,
        )
        offload = bool(getattr(backend, "offload_capable", False))

        def decode_group(rows: np.ndarray, pid: int) -> None:
            if offload:
                # Whole-array offload: the backend ships row shards to
                # worker processes (rebuilt around this group's variant
                # config) and scatters decoded rows into the output.
                with tel.span(
                    "offload_decode", cat="scheduler", chunks=int(rows.size),
                    bytes_in=int(sizes[rows].sum(dtype=np.int64)),
                ):
                    backend.decode_array(
                        kernel.quantizer, variant_config(base_config, pid),
                        kernel.chunk_bytes, stream, starts, sizes, rows, wpc,
                        chunk_crcs, out_block,
                    )
                return

            def decode_rows(lo: int, hi: int) -> None:
                sel = rows[lo:hi]
                with tel.span(
                    "batch_decode", cat="chunk", chunks=hi - lo,
                    bytes_in=int(sizes[sel].sum(dtype=np.int64)),
                ):
                    if chunk_crcs is not None:
                        for index in sel:
                            blo = int(starts[index])
                            bhi = blo + int(sizes[index])
                            if zlib.crc32(view[blo:bhi]) != int(chunk_crcs[index]):
                                raise PFPLIntegrityError(
                                    f"chunk {int(index)} checksum mismatch "
                                    "(stream corrupted)"
                                )
                    out_block[sel] = kernel.decode_batch(
                        payload, starts[sel], sizes[sel], wpc, pipeline_id=pid
                    )

            backend.map_batch(decode_rows, int(rows.size), costs=sizes[rows])

        if rows_all.size:
            for pid in np.unique(pids[rows_all]):
                decode_group(rows_all[pids[rows_all] == pid], int(pid))
        rest = [
            i for i in range(plan.n_chunks) if i >= n_full or raw_flags[i]
        ]
    else:
        rest = list(range(plan.n_chunks))

    rest_costs = sizes[np.asarray(rest, dtype=np.int64)] if rest else sizes[:0]
    backend.map_chunks(decode_one, rest, costs=rest_costs)
    return out

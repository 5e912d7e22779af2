"""The stream decoder: whole-stream, windowed and per-chunk decompression.

An extension the paper's format makes natural but leaves unexplored
(Section VI notes ZFP supports "on-the-fly random-access decompression"
and PFPL does not): because chunks are compressed independently and the
size table locates every chunk with one prefix sum, any value range can
be reconstructed by decoding only the chunks that overlap it.

    from repro.core.random_access import decompress_range
    window = decompress_range(stream, start=1_000_000, count=4096)

:class:`StreamDecoder` is the only code that opens and decodes a PFPL
stream: :func:`repro.core.compressor.decompress` is its
:meth:`~StreamDecoder.decode_all`, and the file-level
:class:`repro.io.PFPLReader` and the archive members wrap it too.  It
parses the header and size table once, then serves each request by
fetching **only the bytes of the chunks touched** from its source (a
memoryview slice for in-memory streams, a positioned ``pread`` for
files).  Cost is proportional to the chunks touched, not the file size.

The whole stream is validated *eagerly* at construction: every header
geometry field is range-checked, every size-table entry is bounded by
the chunk geometry, and the declared extent must fit inside the source,
so hostile bytes can never drive an unbounded allocation or negative
indexing -- they raise a :class:`~repro.errors.PFPLError` subclass
before any chunk is decoded.
"""

from __future__ import annotations

import io
import os
import threading
import zlib
from dataclasses import replace
from typing import Iterator

import numpy as np

from ..errors import (
    PFPLConfigMismatchError,
    PFPLError,
    PFPLFormatError,
    PFPLIntegrityError,
    PFPLTruncatedError,
)
from ..telemetry import NULL_TELEMETRY
from .chunking import ChunkCodec, validate_size_table
from .compressor import InlineBackend
from .floatbits import layout_for
from .header import HEADER_BYTES, Header
from .kernel import ChunkKernel
from .lossless.pipeline import PipelineConfig
from .quantizers import make_quantizer

__all__ = ["StreamDecoder", "decompress_range", "chunk_count", "decompress_chunk"]


class _BytesSource:
    """Zero-copy fetch over an in-memory stream (any contiguous buffer)."""

    def __init__(self, buf):
        try:
            # Byte offsets index the view whatever the buffer's item type.
            self._view = memoryview(buf).cast("B")
        except TypeError:
            raise TypeError(
                f"cannot read a PFPL stream from {type(buf).__name__}"
            ) from None
        self.length = self._view.nbytes

    def fetch(self, offset: int, size: int):
        end = offset + size
        if end > self._view.nbytes:
            raise PFPLTruncatedError("PFPL stream truncated")
        return self._view[offset:end]


class _FileSource:
    """Bounded positioned-read fetch over a seekable binary file.

    Concurrent fetches (a threaded backend decoding shards in parallel)
    must not race on the file position, so reads go through ``os.pread``
    whenever the handle is backed by a real file descriptor; wrappers
    without one (``io.BytesIO``, mocks) fall back to a lock-guarded
    seek + read.  A fetch is checked against the file length before any
    read (a hostile size table cannot make it allocate), and short reads
    are resumed: Linux returns at most 0x7ffff000 bytes per ``pread``.
    """

    def __init__(self, fh):
        self._fh = fh
        self._base = fh.tell()
        self._lock = threading.Lock()
        self._fd = None
        try:
            self._fd = fh.fileno()
        except (OSError, AttributeError, io.UnsupportedOperation):
            pass
        end = fh.seek(0, os.SEEK_END)
        fh.seek(self._base)
        self.length = end - self._base

    def fetch(self, offset: int, size: int) -> bytes:
        if offset + size > self.length:
            raise PFPLTruncatedError("PFPL stream truncated")
        parts = []
        while size:
            if self._fd is not None:
                part = os.pread(self._fd, size, self._base + offset)
            else:
                with self._lock:
                    self._fh.seek(self._base + offset)
                    part = self._fh.read(size)
            if not part:
                raise PFPLTruncatedError("PFPL stream truncated")
            parts.append(part)
            offset += len(part)
            size -= len(part)
        # One part is returned as is: joining a single bytes object is free.
        return b"".join(parts)


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


def _verify_chunk(blob, crc, index: int) -> None:
    """Raise unless chunk ``index``'s bytes ``blob`` match its checksum ``crc``."""
    if zlib.crc32(blob) != int(crc):
        raise PFPLIntegrityError(f"chunk {index} checksum mismatch (stream corrupted)")


def decode_shard(
    kernel: ChunkKernel, tel, payload: np.ndarray, starts: np.ndarray,
    sizes: np.ndarray, pids: np.ndarray, crcs, rows: np.ndarray,
    block: np.ndarray, first: int, trace=None,
) -> None:
    """Checksum and decode rows ``rows``, one ``batch_decode`` per pipeline id.

    The one batch-decode shard, run by the stream decoder and by
    process-pool workers.  Entry ``i`` of ``starts`` (offsets into the
    uint8 ``payload``), ``sizes``, ``pids`` and ``crcs`` (``None``
    without a checksum footer) describes chunk ``first + i``, which
    decodes into ``block[i]``; ``rows`` are stream indices.  A worker
    passes its shard context as ``trace``: the first span *is* it, later
    ones are its siblings, and the stage spans nest under each.
    """
    rel = rows - first
    row_pids = pids[rel]
    # bincount, not np.unique: np.unique's first call imports numpy.ma,
    # about 1.4 MiB more resident memory in every process-pool worker.
    for seq, pid in enumerate(np.flatnonzero(np.bincount(row_pids))):
        sel = rel[row_pids == pid]
        ctx = trace
        if trace is not None and seq:
            ctx = replace(trace.child(seq), parent_id=trace.parent_id)
        with tel.trace(ctx or tel.current_trace()), tel.span(
            "batch_decode", cat="chunk", trace=ctx, chunks=int(sel.size),
            bytes_in=int(sizes[sel].sum(dtype=np.int64)),
        ):
            if crcs is not None:
                for i in sel:
                    _verify_chunk(
                        payload[starts[i]:starts[i] + sizes[i]], crcs[i], first + int(i)
                    )
            kernel.decode_rows(
                payload, starts[sel], sizes[sel], sel, block.shape[1], block,
                pipeline_id=int(pid),
            )


class StreamDecoder:
    """Chunk-granular decoder over a PFPL stream source.

    Parses and validates the header + size table once (one bounded read
    each), builds the fused decode kernel, and thereafter touches only
    the bytes of the chunks asked for.  For checksummed streams the
    header/size-table checksum is verified up front and each chunk's
    checksum when that chunk is decoded.

    Parameters
    ----------
    source:
        A bytes-like object (``bytes``, ``bytearray``, ``memoryview``, a
        NumPy array), or a seekable binary file positioned at the start
        of the stream.
    backend:
        Optional execution backend for multi-chunk calls; its
        ``batch_capable``/``offload_capable`` attributes pick the
        execution shape (see :meth:`decode_range`).
    telemetry:
        Optional :class:`repro.telemetry.Telemetry`: records one ``fetch``
        span per source read, one ``batch_decode`` span per batch-kernel
        call and one ``chunk_decode`` span per chunk on the per-chunk
        kernel, plus the per-stage spans of the fused kernel.
    """

    def __init__(self, source, backend=None, telemetry=None):
        self._backend = backend or InlineBackend()
        self._telemetry = telemetry or NULL_TELEMETRY
        if hasattr(source, "seekable") and source.seekable():
            self._source = _FileSource(source)
        elif hasattr(source, "read"):
            # Non-seekable stream: one unavoidable full read.
            self._source = _BytesSource(source.read())
        else:
            self._source = _BytesSource(source)
        src = self._source

        header = Header.unpack(
            bytes(src.fetch(0, min(HEADER_BYTES, src.length)))
        ).validate()
        self.header = header
        self._kernel = _kernel_for_header(
            header, self._backend, telemetry=self._telemetry
        )
        self._plan = self._kernel.plan(header.count)
        if (self._plan.n_chunks != header.n_chunks
                or self._plan.words_per_chunk != header.words_per_chunk):
            raise PFPLFormatError("corrupt PFPL header: chunk plan mismatch")
        if src.length < header.payload_offset:
            raise PFPLTruncatedError(
                "PFPL stream truncated inside the chunk size table"
            )
        table = np.frombuffer(
            src.fetch(HEADER_BYTES, 4 * header.n_chunks), dtype="<u4"
        )
        self._sizes, self._raw_flags, self._pids, _ = ChunkCodec.parse_size_table(
            table, header.pipeline_select
        )
        validate_size_table(
            self._plan, self._sizes, self._raw_flags,
            self._kernel.layout.uint_dtype.itemsize,
            header.use_zero_elim, header.bitmap_levels,
            pipeline_ids=self._pids, pipeline_select=header.pipeline_select,
        )
        self._starts = self._backend.prefix_sum(self._sizes) + header.payload_offset
        payload_end = (
            int(self._starts[-1] + self._sizes[-1])
            if header.n_chunks else header.payload_offset
        )
        if payload_end + header.footer_bytes > src.length:
            raise PFPLTruncatedError(
                "PFPL stream truncated inside the chunk payload: header "
                f"declares {payload_end + header.footer_bytes} bytes, source "
                f"has {src.length}"
            )
        self._chunk_crcs = None
        if header.checksum:
            crcs = np.frombuffer(
                src.fetch(payload_end, header.footer_bytes), dtype="<u4"
            )
            if int(crcs[0]) != zlib.crc32(src.fetch(0, header.payload_offset)):
                raise PFPLIntegrityError(
                    "PFPL header/size-table checksum mismatch (stream corrupted)"
                )
            self._chunk_crcs = crcs[1:]
        #: Chunks holding ``words_per_chunk`` values (all but a ragged tail).
        self._n_full = header.count // header.words_per_chunk

    # -- geometry ------------------------------------------------------------

    @property
    def count(self) -> int:
        return self.header.count

    @property
    def n_chunks(self) -> int:
        return self._plan.n_chunks

    def chunk_values(self, index: int) -> int:
        """Real (unpadded) value count of chunk ``index``."""
        lo, hi = self._plan.chunk_value_bounds(index)
        return hi - lo

    # -- decoding ------------------------------------------------------------

    def _fetch(self, lo: int, hi: int) -> tuple[memoryview, int]:
        """Chunks ``[lo, hi)``'s bytes, in one source read, and their offset."""
        base = int(self._starts[lo])
        size = int(self._starts[hi - 1] + self._sizes[hi - 1]) - base
        tel = self._telemetry
        with tel.span("fetch", cat="io", bytes=size, chunks=hi - lo):
            view = memoryview(self._source.fetch(base, size))
        tel.add("fetch_bytes_total", size)
        tel.add("fetches_total")
        return view, base

    def _decode_one(self, index: int, view: memoryview, base: int, out) -> np.ndarray:
        """The per-chunk kernel on chunk ``index``, whose bytes ``view`` holds."""
        size = int(self._sizes[index])
        lo = int(self._starts[index]) - base
        blob = view[lo:lo + size]
        tel = self._telemetry
        with tel.chunk(index), tel.span("chunk_decode", cat="chunk", bytes_in=size):
            if self._chunk_crcs is not None:
                _verify_chunk(blob, self._chunk_crcs[index], index)
            return self._kernel.decode_chunk(
                blob, self.chunk_values(index), bool(self._raw_flags[index]),
                out=out, pipeline_id=int(self._pids[index]),
            )

    def _decode_run(self, lo: int, hi: int, start: int, out: np.ndarray, batch: bool) -> None:
        """Decode chunks ``[lo, hi)``, one shard, after one source fetch.

        ``out`` holds the requested values, from value ``start`` on.  With
        ``batch`` the non-raw full-size chunks decode as batch rows in one
        :func:`decode_shard` call (on an ``offload_capable`` backend, one
        ``decode_array`` call whose workers run it); raw chunks and the
        ragged tail (every chunk, without ``batch``) take the per-chunk
        kernel.  A shard inside the requested values decodes in place; one
        holding a partly requested edge chunk decodes into a shard-sized
        block, then copies the requested values out.
        """
        wpc = self._plan.words_per_chunk
        tel = self._telemetry
        v_lo, v_hi = lo * wpc, min(hi * wpc, self.header.count)
        end = start + out.size
        inside = start <= v_lo and v_hi <= end
        dest = out[v_lo - start:v_hi - start] if inside else np.empty(v_hi - v_lo, out.dtype)
        view, base = self._fetch(lo, hi)
        index = np.arange(lo, hi)
        full = (index < self._n_full) & ~self._raw_flags[lo:hi] & batch
        rows = index[full]
        if rows.size:
            args = (
                np.frombuffer(view, dtype=np.uint8), self._starts[lo:hi] - base,
                self._sizes[lo:hi], self._pids[lo:hi],
                None if self._chunk_crcs is None else self._chunk_crcs[lo:hi],
                rows, dest[:(int(rows[-1]) + 1 - lo) * wpc].reshape(-1, wpc), lo,
            )
            if getattr(self._backend, "offload_capable", False):
                with tel.span("offload_decode", cat="scheduler", chunks=int(rows.size),
                              bytes_in=int(self._sizes[rows].sum(dtype=np.int64))):
                    self._backend.decode_array(self._kernel, *args)
            else:
                decode_shard(self._kernel, tel, *args)
        for i in index[~full]:
            a = (int(i) - lo) * wpc
            self._decode_one(int(i), view, base, dest[a:a + self.chunk_values(int(i))])
        if not inside:
            a, b = max(v_lo, start), min(v_hi, end)
            out[a - start:b - start] = dest[a - v_lo:b - v_lo]

    def decode_chunk(self, index: int, out: np.ndarray | None = None) -> np.ndarray:
        """Decode one chunk, fetching only that chunk's bytes."""
        if index < 0 or index >= self._plan.n_chunks:
            raise IndexError(f"chunk {index} out of range [0, {self._plan.n_chunks})")
        with self._telemetry.chunk(index):
            view, base = self._fetch(index, index + 1)
        return self._decode_one(index, view, base, out)

    def iter_chunks(self) -> Iterator[np.ndarray]:
        """Yield every chunk's values in order, one window resident at a time.

        The stream decodes in chunk-aligned windows of the backend's
        ``batch_rows`` chunks (1 MiB of float32 at 16 kB chunks), each one
        :meth:`decode_range` into a fresh array, so a scan costs what
        ``decode_all`` does, one source read per shard.  Every yielded
        chunk is a view that keeps its window alive: chunks a caller keeps
        stay valid after the iterator advances, and while the next window
        decodes, the previous one stays resident only if the caller still
        holds one of its chunks.
        """
        wpc = self._plan.words_per_chunk
        step = self._backend.batch_rows * wpc
        count = self.header.count
        for start in range(0, count, step):
            window = self.decode_range(start, min(step, count - start))
            for lo in range(0, window.size, wpc):
                yield window[lo:lo + wpc]
            del window

    def decode_range(self, start: int, count: int, out: np.ndarray | None = None) -> np.ndarray:
        """Reconstruct ``count`` values beginning at index ``start``.

        Decodes only the overlapping chunks, in the backend's execution
        shape, each shard after one source read: a ``batch_capable``
        backend runs them as ``map_batch`` shards (size-table costs), an
        ``offload_capable`` one as one run whose batch rows its workers
        decode, and any other maps the per-chunk kernel over them with
        ``map_chunks``.  Pass ``out`` to decode into a caller buffer.
        """
        if start < 0 or count < 0 or start + count > self.header.count:
            raise IndexError(
                f"range [{start}, {start + count}) outside 0..{self.header.count}"
            )
        dtype = self._kernel.layout.float_dtype
        if out is None:
            out = np.empty(count, dtype=dtype)
        elif out.shape != (count,) or out.dtype != dtype:
            raise PFPLConfigMismatchError(
                f"output buffer must be ({count},) {dtype}, got {out.shape} {out.dtype}"
            )
        if count == 0:
            return out
        wpc = self._plan.words_per_chunk
        first, last = start // wpc, (start + count - 1) // wpc + 1
        backend, costs = self._backend, self._sizes[first:last]
        if getattr(backend, "offload_capable", False):
            self._decode_run(first, last, start, out, True)
        elif getattr(backend, "batch_capable", False):
            backend.map_batch(
                lambda lo, hi: self._decode_run(first + lo, first + hi, start, out, True),
                last - first, costs=costs,
            )
        else:
            backend.map_chunks(
                lambda i: self._decode_run(i, i + 1, start, out, False),
                range(first, last), costs=costs,
            )
        return out

    def decode_all(self, out: np.ndarray | None = None) -> np.ndarray:
        """Decode the whole stream (into ``out`` when given)."""
        return self.decode_range(0, self.header.count, out=out)


def chunk_count(stream: bytes) -> int:
    """Number of independently decodable chunks in a PFPL stream."""
    return Header.unpack(stream).n_chunks


def decompress_chunk(stream: bytes, index: int, backend=None, telemetry=None) -> np.ndarray:
    """Decode a single chunk's values (the last chunk may be shorter)."""
    return StreamDecoder(stream, backend, telemetry=telemetry).decode_chunk(index)


def decompress_range(
    stream: bytes, start: int, count: int, backend=None, telemetry=None
) -> np.ndarray:
    """Reconstruct ``count`` values beginning at index ``start``.

    Decodes only the overlapping chunks; everything else is skipped via
    the size table.
    """
    return StreamDecoder(stream, backend, telemetry=telemetry).decode_range(start, count)

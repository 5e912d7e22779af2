"""Random-access (partial) decompression.

An extension the paper's format makes natural but leaves unexplored
(Section VI notes ZFP supports "on-the-fly random-access decompression"
and PFPL does not): because chunks are compressed independently and the
size table locates every chunk with one prefix sum, any value range can
be reconstructed by decoding only the chunks that overlap it.

    from repro.core.random_access import decompress_range
    window = decompress_range(stream, start=1_000_000, count=4096)

:class:`StreamDecoder` is the engine behind this module *and* the
file-level :class:`repro.io.PFPLReader`: it parses the header and size
table once, then serves each chunk by fetching **only that chunk's
bytes** from its source (a memoryview slice for in-memory streams, a
positioned ``pread`` for files) and running the fused
:class:`~repro.core.kernel.ChunkKernel` on them.  Cost is proportional
to the chunks touched, not the file size.

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
from typing import Iterator

import numpy as np

from ..errors import (
    PFPLConfigMismatchError,
    PFPLFormatError,
    PFPLIntegrityError,
    PFPLTruncatedError,
)
from ..telemetry import NULL_TELEMETRY
from .chunking import ChunkCodec, validate_size_table
from .compressor import InlineBackend, _kernel_for_header
from .header import HEADER_BYTES, Header

__all__ = ["StreamDecoder", "decompress_range", "chunk_count", "decompress_chunk"]


class _BytesSource:
    """Zero-copy fetch over an in-memory stream."""

    def __init__(self, buf):
        self._view = memoryview(buf)
        self.length = self._view.nbytes

    def fetch(self, offset: int, size: int):
        end = offset + size
        if end > self._view.nbytes:
            raise PFPLTruncatedError("PFPL stream truncated")
        return self._view[offset:end]


class _FileSource:
    """Bounded positioned-read fetch over a seekable binary file.

    Concurrent fetches (a threaded backend decoding chunks in parallel)
    must not race on the file position, so reads go through ``os.pread``
    whenever the handle is backed by a real file descriptor; wrappers
    without one (``io.BytesIO``, mocks) fall back to a lock-guarded
    seek + read.
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
        if self._fd is not None:
            data = os.pread(self._fd, size, self._base + offset)
        else:
            with self._lock:
                self._fh.seek(self._base + offset)
                data = self._fh.read(size)
        if len(data) != size:
            raise PFPLTruncatedError("PFPL stream truncated")
        return data


class StreamDecoder:
    """Chunk-granular decoder over a PFPL stream source.

    Parses and validates the header + size table once (one bounded read
    each), builds the fused decode kernel, and thereafter touches only
    the bytes of the chunks asked for.  For version-2 streams the
    header/size-table checksum is verified up front and each chunk's
    checksum when that chunk is decoded.

    Parameters
    ----------
    source:
        ``bytes`` / ``bytearray`` / ``memoryview``, or a seekable binary
        file positioned at the start of the stream.
    backend:
        Optional execution backend for multi-chunk calls
        (:meth:`decode_range` / :meth:`decode_all` dispatch fully-covered
        chunks through ``backend.map_chunks`` with the size table as the
        cost model).
    telemetry:
        Optional :class:`repro.telemetry.Telemetry`: records one ``fetch``
        span (source bytes read) and one ``chunk_decode`` span per chunk
        decoded, plus the per-stage spans of the fused kernel.
    """

    def __init__(self, source, backend=None, telemetry=None):
        self._backend = backend or InlineBackend()
        self._telemetry = telemetry or NULL_TELEMETRY
        if isinstance(source, (bytes, bytearray, memoryview)):
            self._source = _BytesSource(source)
        elif hasattr(source, "seekable") and source.seekable():
            self._source = _FileSource(source)
        elif hasattr(source, "read"):
            # Non-seekable stream: one unavoidable full read.
            self._source = _BytesSource(source.read())
        else:
            raise TypeError(f"cannot read a PFPL stream from {type(source).__name__}")

        self.header = Header.unpack(bytes(self._source.fetch(0, HEADER_BYTES))).validate()
        table_bytes = bytes(
            self._source.fetch(HEADER_BYTES, 4 * self.header.n_chunks)
        )
        table = np.frombuffer(table_bytes, dtype="<u4")
        self._sizes, self._raw_flags, self._pids, _ = ChunkCodec.parse_size_table(
            table, self.header.pipeline_select
        )
        self._kernel = _kernel_for_header(
            self.header, self._backend, telemetry=self._telemetry
        )
        self._plan = self._kernel.plan(self.header.count)
        if (self._plan.n_chunks != self.header.n_chunks
                or self._plan.words_per_chunk != self.header.words_per_chunk):
            raise PFPLFormatError("corrupt PFPL header: chunk plan mismatch")
        validate_size_table(
            self._plan, self._sizes, self._raw_flags,
            self._kernel.layout.uint_dtype.itemsize,
            self.header.use_zero_elim, self.header.bitmap_levels,
            pipeline_ids=self._pids, pipeline_select=self.header.pipeline_select,
        )
        self._starts = self._backend.prefix_sum(self._sizes) + self.header.payload_offset
        payload_end = (
            int(self._starts[-1] + self._sizes[-1])
            if self.header.n_chunks else self.header.payload_offset
        )
        if payload_end + self.header.footer_bytes > self._source.length:
            raise PFPLTruncatedError(
                "PFPL stream truncated: header declares "
                f"{payload_end + self.header.footer_bytes} bytes, source has "
                f"{self._source.length}"
            )
        self._chunk_crcs = None
        if self.header.checksum:
            footer = bytes(
                self._source.fetch(payload_end, self.header.footer_bytes)
            )
            crcs = np.frombuffer(footer, dtype="<u4")
            head = bytes(self._source.fetch(0, self.header.payload_offset))
            if int(crcs[0]) != zlib.crc32(head):
                raise PFPLIntegrityError(
                    "PFPL header/size-table checksum mismatch (stream corrupted)"
                )
            self._chunk_crcs = crcs[1:]

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

    def decode_chunk(self, index: int, out: np.ndarray | None = None) -> np.ndarray:
        """Decode one chunk, fetching only that chunk's bytes."""
        if index < 0 or index >= self._plan.n_chunks:
            raise IndexError(f"chunk {index} out of range [0, {self._plan.n_chunks})")
        tel = self._telemetry
        size = int(self._sizes[index])
        with tel.chunk(index):
            with tel.span("fetch", cat="io", bytes=size):
                blob = self._source.fetch(int(self._starts[index]), size)
            tel.add("fetch_bytes_total", size)
            tel.add("fetches_total")
            with tel.span("chunk_decode", cat="chunk", bytes_in=size):
                if (self._chunk_crcs is not None
                        and zlib.crc32(blob) != int(self._chunk_crcs[index])):
                    raise PFPLIntegrityError(
                        f"chunk {index} checksum mismatch (stream corrupted)"
                    )
                return self._kernel.decode_chunk(
                    blob, self.chunk_values(index), bool(self._raw_flags[index]),
                    out=out, pipeline_id=int(self._pids[index]),
                )

    def iter_chunks(self) -> Iterator[np.ndarray]:
        """Yield every chunk's values in order, one chunk resident at a time."""
        for index in range(self._plan.n_chunks):
            yield self.decode_chunk(index)

    def decode_range(self, start: int, count: int, out: np.ndarray | None = None) -> np.ndarray:
        """Reconstruct ``count`` values beginning at index ``start``.

        Decodes only the overlapping chunks, scheduled through the
        backend's ``map_chunks`` with the size table as per-chunk costs
        (so a threaded backend genuinely overlaps them): fully-covered
        chunks land directly in their slice of ``out``, the at-most-two
        partially-covered boundary chunks go through one chunk-sized
        scratch buffer each.
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
                f"output buffer must be ({count},) {dtype}"
            )
        if count == 0:
            return out

        wpc = self._plan.words_per_chunk
        first = start // wpc
        last = (start + count - 1) // wpc

        def decode_into(index: int) -> None:
            vlo, vhi = self._plan.chunk_value_bounds(index)
            olo = max(vlo, start) - start
            ohi = min(vhi, start + count) - start
            if ohi - olo == vhi - vlo:
                self.decode_chunk(index, out=out[olo:ohi])
            else:
                chunk = self.decode_chunk(index)
                out[olo:ohi] = chunk[max(vlo, start) - vlo:min(vhi, start + count) - vlo]

        indices = list(range(first, last + 1))
        self._backend.map_chunks(decode_into, indices, costs=self._sizes[first:last + 1])
        return out

    def decode_all(self, out: np.ndarray | None = None) -> np.ndarray:
        """Decode the whole stream through per-chunk kernels."""
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

"""Streaming file API: incremental compression / windowed reads.

Simulations emit data in waves (time steps, MPI ranks); buffering a
whole array before compressing wastes memory.  :class:`PFPLWriter`
accepts arbitrary-sized appends and runs the fused per-chunk kernel
(quantize + lossless in one pass) the moment a 16 kB chunk fills, so
float data never accumulates beyond one chunk.  Finished blobs spool to
a bounded-memory scratch file (the header needs the final value count,
so the container is assembled on ``close()``), which means the writer's
footprint is independent of the stream length.

ABS and REL streams can be built incrementally because their quantizers
are value-local.  NOA needs the global min/max before any value can be
quantized (Section III-A), so the writer requires an explicit
``value_range`` for NOA.

:class:`PFPLReader` is the inverse: it parses the header and size table
with two bounded reads and serves windows, single chunks, or an
:meth:`~PFPLReader.iter_chunks` sweep by seeking to **only the bytes of
the chunks touched** -- it never materializes the whole stream or the
whole array.  A sweep decodes windows of the backend's ``batch_rows``
chunks, so one window is resident (1 MiB of float32 at 16 kB chunks);
each yielded chunk is a view that keeps its window alive.
"""

from __future__ import annotations

import tempfile
import zlib
from typing import BinaryIO, Iterator

import numpy as np

from .core.chunking import CHUNK_BYTES
from .core.compressor import (
    InlineBackend,
    encode_chunks,
    encode_one_chunk,
    frame_stream,
    resolve_format_options,
)
from .core.floatbits import layout_for
from .core.kernel import ChunkStats
from .core.lossless.pipeline import PipelineConfig
from .core.quantizers import make_quantizer
from .core.random_access import StreamDecoder
from .errors import PFPLUsageError
from .telemetry import NULL_TELEMETRY

__all__ = ["PFPLWriter", "PFPLReader"]

#: Spool this much compressed payload in memory before rolling to disk.
_SPOOL_MEMORY_BYTES = 16 << 20
#: Copy granularity when draining the spool into the sink.
_COPY_BLOCK_BYTES = 1 << 20


class PFPLWriter:
    """Incrementally build a PFPL stream in bounded memory.

    Example::

        with PFPLWriter(fh, mode="abs", error_bound=1e-3) as w:
            for step in simulation:
                w.append(step.field)
    """

    def __init__(
        self,
        sink: BinaryIO,
        mode: str = "abs",
        error_bound: float = 1e-3,
        dtype=np.float32,
        value_range: float | None = None,
        backend=None,
        config: PipelineConfig | None = None,
        checksum: bool = False,
        telemetry=None,
        format_version: int | None = None,
        pipelines=None,
    ):
        self._sink = sink
        self.mode = mode
        self.error_bound = float(error_bound)
        self.layout = layout_for(dtype)
        self.config, self.checksum = resolve_format_options(
            config, checksum, format_version, pipelines
        )
        self.telemetry = telemetry or NULL_TELEMETRY
        backend = backend or InlineBackend()
        self._backend = backend

        kwargs = {}
        if mode == "noa":
            if value_range is None:
                raise PFPLUsageError(
                    "NOA needs the global value range up front; pass "
                    "value_range= (or compress in one shot instead)"
                )
            kwargs["value_range"] = value_range
        quantizer = make_quantizer(
            mode, self.error_bound, dtype=self.layout.float_dtype, **kwargs
        )
        self._kernel = backend.make_kernel(
            quantizer, self.config, CHUNK_BYTES, telemetry=self.telemetry
        )
        self._wpc = self._kernel.words_per_chunk

        # One preallocated chunk-sized staging buffer: appends copy into it
        # and full chunks flush straight out of it, so many small appends
        # never re-concatenate what is already staged (previously each
        # append rebuilt the pending array -- O(n^2) over tiny appends).
        self._pending = np.empty(self._wpc, dtype=self.layout.float_dtype)
        self._pending_len = 0
        self._spool = tempfile.SpooledTemporaryFile(max_size=_SPOOL_MEMORY_BYTES)
        self._table_entries: list[int] = []
        self._raw_flags: list[bool] = []
        self._pids: list[int] = []
        self._chunk_crcs: list[int] = []
        self._stats = ChunkStats()
        self._count = 0
        self._payload_bytes = 0
        self._closed = False
        self._aborted = False
        # NOA's error bound is eps * declared value_range: appends whose
        # running span exceeds the declaration would silently break the
        # guarantee, so the writer tracks min/max and rejects them.
        self._noa_range = float(value_range) if mode == "noa" else None
        self._noa_min = np.inf
        self._noa_max = -np.inf

    # -- introspection -------------------------------------------------------

    @property
    def stats(self) -> ChunkStats:
        """Encoder statistics over the chunks flushed so far."""
        return self._stats

    @property
    def values_appended(self) -> int:
        return self._count

    @property
    def chunks_flushed(self) -> int:
        return len(self._table_entries)

    @property
    def payload_bytes(self) -> int:
        """Compressed payload staged so far (excludes header + table)."""
        return self._payload_bytes

    # -- building ------------------------------------------------------------

    def _flush_chunk(self, float_slice: np.ndarray) -> None:
        """Encode the staged chunk on the per-chunk kernel and spool it."""
        self._write_blobs(*encode_one_chunk(
            self._kernel, self.telemetry, len(self._table_entries), float_slice
        ))

    def _write_blobs(self, blobs, raws, pids, st: ChunkStats) -> None:
        """Spool encoded blobs and record their table entries."""
        for blob, raw, pid in zip(blobs, raws, pids):
            self._spool.write(blob)
            self._table_entries.append(len(blob))
            self._raw_flags.append(bool(raw))
            self._pids.append(int(pid))
            if self.checksum:
                self._chunk_crcs.append(zlib.crc32(blob))
            self._payload_bytes += len(blob)
        self._stats += st

    def append(self, values: np.ndarray) -> None:
        """Quantize and compress more values (any shape, any amount).

        Every full 16 kB chunk runs the fused kernel immediately; at
        most one partial chunk of floats stays resident, staged in a
        preallocated chunk-sized buffer (appends are O(values appended),
        independent of how finely they are split).
        """
        if self._aborted:
            raise PFPLUsageError(
                "writer was aborted; staged data is discarded and no "
                "further appends are accepted"
            )
        if self._closed:
            raise PFPLUsageError("writer already closed")
        flat = np.ascontiguousarray(values, dtype=self.layout.float_dtype).reshape(-1)
        if not flat.size:
            return
        if self._noa_range is not None:
            self._validate_noa_range(flat)
        self._count += flat.size
        pos = 0
        if self._pending_len:
            take = min(self._wpc - self._pending_len, flat.size)
            self._pending[self._pending_len:self._pending_len + take] = flat[:take]
            self._pending_len += take
            pos = take
            if self._pending_len == self._wpc:
                self._flush_chunk(self._pending)
                self._pending_len = 0
        n_full = (flat.size - pos) // self._wpc
        if n_full:
            # Same encode driver (and execution shape) as compress().
            self._write_blobs(*encode_chunks(
                self._backend, self._kernel, flat[pos:pos + n_full * self._wpc],
                self.telemetry, first_chunk=len(self._table_entries),
            ))
        pos += n_full * self._wpc
        tail = flat.size - pos
        if tail:
            self._pending[:tail] = flat[pos:]
            self._pending_len = tail

    def _validate_noa_range(self, flat: np.ndarray) -> None:
        """Reject appends whose running span exceeds the declared range.

        NOA's guarantee is ``eps * value_range``: values outside the
        declared span would make the written header *misrepresent* the
        actual error of already-quantized chunks.  Non-finite values are
        exempt -- the quantizer stores them losslessly.
        """
        finite = flat[np.isfinite(flat)] if not np.all(np.isfinite(flat)) else flat
        if not finite.size:
            return
        lo = min(self._noa_min, float(finite.min()))
        hi = max(self._noa_max, float(finite.max()))
        span = hi - lo
        if span > self._noa_range:
            raise PFPLUsageError(
                f"NOA append widens the value span to {span:g}, beyond the "
                f"declared value_range={self._noa_range:g}; the already-"
                "written chunks' error bound would no longer hold. Declare "
                "the full range up front (or compress in one shot)."
            )
        self._noa_min, self._noa_max = lo, hi

    def close(self) -> None:
        """Flush the tail chunk and write the container."""
        if self._closed:
            return
        self._closed = True
        try:
            if self._pending_len:
                self._flush_chunk(self._pending[:self._pending_len])
                self._pending_len = 0

            prefix, footer = frame_stream(
                self.mode, self.layout.float_dtype, self.error_bound,
                float(
                    self._kernel.quantizer.header_params().get("value_range", 0.0)
                ) if self.mode == "noa" else 0.0,
                self._count, self._wpc, self.config, self.checksum,
                self._table_entries, self._raw_flags, self._pids,
                self._chunk_crcs,
            )
            # The writer's analogue of backend.assemble: draining the
            # spool into the sink places every chunk at its offset.
            with self.telemetry.span(
                "assemble", cat="encode",
                bytes_in=len(prefix) + self._payload_bytes,
                bytes_out=len(prefix) + self._payload_bytes,
            ):
                self._drain_spool(prefix)
            if footer:
                self._sink.write(footer)
        finally:
            self._spool.close()

    def _drain_spool(self, prefix: bytes) -> None:
        self._sink.write(prefix)
        self._spool.seek(0)
        while True:
            block = self._spool.read(_COPY_BLOCK_BYTES)
            if not block:
                break
            self._sink.write(block)

    def abort(self) -> None:
        """Discard staged data without writing anything to the sink."""
        self._closed = True
        self._aborted = True
        self._spool.close()

    def __enter__(self) -> "PFPLWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


class PFPLReader:
    """Windowed reads over a PFPL stream without full decompression.

    Accepts in-memory bytes or a seekable binary file.  Only the header
    and size table are read up front; every subsequent access fetches
    just the bytes of the chunks it needs.
    """

    def __init__(self, source: BinaryIO | bytes, backend=None, telemetry=None):
        self._dec = StreamDecoder(source, backend, telemetry=telemetry)
        self.header = self._dec.header

    def __len__(self) -> int:
        return self.header.count

    @property
    def n_chunks(self) -> int:
        return self._dec.n_chunks

    def read(self, start: int = 0, count: int | None = None) -> np.ndarray:
        if count is None:
            count = self.header.count - start
        return self._dec.decode_range(start, count)

    def read_chunk(self, index: int) -> np.ndarray:
        return self._dec.decode_chunk(index)

    def iter_chunks(self) -> Iterator[np.ndarray]:
        """Stream the array chunk by chunk; one window resident at a time.

        Windows of the backend's ``batch_rows`` chunks (1 MiB of float32
        at 16 kB chunks) decode as one read each; every yielded chunk is a
        view that keeps its window alive.
        """
        return self._dec.iter_chunks()

    def __iter__(self) -> Iterator[np.ndarray]:
        return self.iter_chunks()

    def __getitem__(self, key):
        if isinstance(key, slice):
            start, stop, step = key.indices(self.header.count)
            if step != 1:
                raise PFPLUsageError("PFPLReader slicing supports step 1 only")
            return self.read(start, stop - start)
        if isinstance(key, int):
            idx = key + self.header.count if key < 0 else key
            if not 0 <= idx < self.header.count:
                raise IndexError(
                    f"index {key} out of range for {self.header.count} values"
                )
            return self.read(idx, 1)[0]
        raise TypeError(f"invalid index {key!r}")

"""The fused per-chunk codec kernel (quantize + lossless in one pass).

This is the unit of work the paper schedules on a CPU thread or a GPU
thread block (Section III-E): *one* kernel invocation takes a 16 kB
slice of the original float array all the way to its compressed blob --
quantization, delta + negabinary, bit shuffle and zero-byte elimination
fused over data that stays chunk-resident -- and the inverse kernel
takes a blob straight back into its slice of the output array.

Compared with the earlier whole-array staging (quantize everything, then
chunk the words; decode every chunk, then concatenate, then dequantize)
this is what makes the backends full-codec executors: no intermediate
word stream for the entire input ever exists, memory stays bounded by
the chunk size, and streaming / random access fall out naturally.

Global per-mode state is resolved *before* the kernel runs:

* NOA's value range comes from :meth:`Quantizer.prepare` (a min/max
  reduction pre-pass) and rides in the stream header;
* REL's negative-NaN normalization is element-local, so it fuses into
  the per-chunk quantization unchanged.

Both properties keep per-chunk output bit-identical to the whole-array
formulation (golden-stream tested).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import PFPLError, PFPLIntegrityError
from ..telemetry import NULL_TELEMETRY
from .chunking import CHUNK_BYTES, ChunkCodec, ChunkPlan
from .lossless.pipeline import PIPELINE_VARIANTS, LosslessPipeline
from .quantizers import Quantizer
from .scratch import scratch

__all__ = ["ChunkKernel", "ChunkStats"]


@dataclass
class ChunkStats:
    """Per-kernel bookkeeping, summed by the caller across chunks.

    Kernels return fresh instances instead of mutating shared counters,
    which keeps them safe under concurrent backend workers and makes the
    totals deterministic regardless of scheduling order.
    """

    total: int = 0       #: values processed
    lossless: int = 0    #: values stored verbatim (bound fallback)
    raw_chunks: int = 0  #: chunks emitted raw (incompressible fallback)

    def __add__(self, other: "ChunkStats") -> "ChunkStats":
        return ChunkStats(
            self.total + other.total,
            self.lossless + other.lossless,
            self.raw_chunks + other.raw_chunks,
        )


def _padded_words(n_values: int) -> int:
    """Word count after shuffle-alignment padding (multiple of 8)."""
    return ((n_values + 7) // 8) * 8


class ChunkKernel:
    """Fused quantize + lossless codec over one chunk of float data.

    Owns a :class:`Quantizer` (already :meth:`~Quantizer.prepare`-d for
    modes with global state) and a :class:`LosslessPipeline`; the codec
    framing (raw fallback, size-table semantics) is shared with
    :class:`ChunkCodec` so kernel output frames exactly like the classic
    word-stream path.
    """

    def __init__(
        self,
        quantizer: Quantizer,
        pipeline: LosslessPipeline,
        chunk_bytes: int = CHUNK_BYTES,
        telemetry=NULL_TELEMETRY,
    ):
        if np.dtype(pipeline.word_dtype) != quantizer.layout.uint_dtype:
            raise TypeError(
                f"pipeline words ({pipeline.word_dtype}) do not match the "
                f"quantizer layout ({quantizer.layout.uint_dtype})"
            )
        self.quantizer = quantizer
        self.layout = quantizer.layout
        self.codec = ChunkCodec(pipeline, chunk_bytes)
        self.chunk_bytes = chunk_bytes
        self.words_per_chunk = chunk_bytes // self.layout.uint_dtype.itemsize
        self.telemetry = telemetry
        # The lossless stages record their own spans through the pipeline.
        pipeline.telemetry = telemetry

    # -- planning ------------------------------------------------------------

    def plan(self, n_values: int) -> ChunkPlan:
        """Chunk decomposition for ``n_values`` floats (1 word per value)."""
        return self.codec.plan(n_values)

    # -- the fused kernels ---------------------------------------------------

    def encode_chunk(
        self, float_slice: np.ndarray
    ) -> tuple[bytes, bool, int, ChunkStats]:
        """Quantize + compress one chunk's float slice.

        Returns ``(blob, is_raw, pipeline_id, stats)``.  The tail chunk's
        slice may be shorter than a full chunk; its shuffle padding (zero
        *words*, the same bytes the classic path padded with) is
        synthesized here so the blob is bit-identical to the whole-array
        formulation.  Without pipeline selection ``pipeline_id`` is
        always 0.
        """
        n = int(float_slice.size)
        n_words = _padded_words(n)
        words = np.empty(n_words, dtype=self.layout.uint_dtype)
        if n_words != n:
            # Only the shuffle-alignment padding needs zeroing; the first
            # n words are about to be overwritten by the quantizer.
            words[n:] = 0
        tel = self.telemetry
        word_bytes = n * self.layout.uint_dtype.itemsize
        with tel.span("quantize", cat="encode",
                      bytes_in=float_slice.nbytes, bytes_out=word_bytes) as sp:
            n_lossless = self.quantizer.encode_into(float_slice, words[:n])
            sp.set(outliers=n_lossless)
        blob, raw, pid = self.codec.encode_chunk(words)
        tel.add("chunks_encoded_total")
        tel.add("values_encoded_total", n)
        tel.add("outlier_values_total", n_lossless)
        tel.add("chunk_bytes_in_total", float_slice.nbytes)
        tel.add("chunk_bytes_out_total", len(blob))
        if raw:
            tel.add("raw_chunks_total")
        elif self.codec.select:
            tel.add("pipeline_selected_total",
                    pipeline=PIPELINE_VARIANTS[pid])
        return blob, raw, pid, ChunkStats(
            total=n, lossless=n_lossless, raw_chunks=int(raw)
        )

    def decode_chunk(
        self,
        blob,
        n_values: int,
        is_raw: bool,
        out: np.ndarray | None = None,
        pipeline_id: int = 0,
    ) -> np.ndarray:
        """Decompress + dequantize one chunk directly into ``out``.

        ``n_values`` is the chunk's *real* value count (the tail chunk
        may be shorter); the stored word count including shuffle padding
        is derived from it.  When ``out`` (a slice of the caller's output
        array) is given, the floats land there with no extra copy.
        ``pipeline_id`` names the lossless variant the encoder selected
        for this chunk (always 0 for v1/v2 streams).

        The kernel is the decode path's exception barrier: any failure
        inside the lossless stages or the dequantizer on hostile bytes
        (a numpy shape/broadcast error, an index underflow) is re-raised
        as :class:`~repro.errors.PFPLIntegrityError`, so callers only
        ever see :class:`~repro.errors.PFPLError` subclasses.
        """
        n_words = _padded_words(n_values)
        tel = self.telemetry
        try:
            words = self.codec.decode_chunk(blob, n_words, is_raw, pipeline_id)
            if out is None:
                out = np.empty(n_values, dtype=self.layout.float_dtype)
            word_bytes = n_values * self.layout.uint_dtype.itemsize
            with tel.span("dequantize", cat="decode",
                          bytes_in=word_bytes, bytes_out=out.nbytes):
                self.quantizer.decode_into(words[:n_values], out)
            tel.add("chunks_decoded_total")
            tel.add("values_decoded_total", n_values)
            if is_raw:
                tel.add("raw_chunks_decoded_total")
        except PFPLError:
            raise
        except (ValueError, TypeError, IndexError, KeyError, OverflowError) as exc:
            raise PFPLIntegrityError(
                f"chunk of {n_values} values failed to decode: {exc}"
            ) from exc
        return out

    # -- chunk-major batch kernels -------------------------------------------

    def encode_batch(
        self, float_block: np.ndarray
    ) -> tuple[list[bytes], np.ndarray, np.ndarray, ChunkStats]:
        """Quantize + compress a ``(n_chunks, words_per_chunk)`` block.

        The chunk-major fast path: every stage runs once over the whole
        block instead of once per chunk, and the per-row raw fallback is
        decided vectorized.  Returns ``(blobs, raw_flags, pipeline_ids,
        stats)``, bit-identical to mapping :meth:`encode_chunk` over the
        rows.  Only full-size chunks qualify (no shuffle padding to
        synthesize); the ragged tail stays on the per-chunk kernel.
        """
        n_chunks, n = float_block.shape
        # Scratch-backed: the word block dies inside codec.encode_batch
        # (raw rows are copied out with tobytes) before any reuse.
        words = scratch("kernel.words", (n_chunks, n), self.layout.uint_dtype)
        tel = self.telemetry
        with tel.span("quantize", cat="encode", chunks=n_chunks,
                      bytes_in=float_block.nbytes, bytes_out=words.nbytes) as sp:
            n_lossless = self.quantizer.encode_batch_into(float_block, words)
            sp.set(outliers=n_lossless)
        blobs, raw_flags, pids = self.codec.encode_batch(words)
        n_raw = int(np.count_nonzero(raw_flags))
        tel.add("chunks_encoded_total", n_chunks)
        tel.add("values_encoded_total", n_chunks * n)
        tel.add("outlier_values_total", n_lossless)
        tel.add("chunk_bytes_in_total", float_block.nbytes)
        tel.add("chunk_bytes_out_total", sum(map(len, blobs)))
        if n_raw:
            tel.add("raw_chunks_total", n_raw)
        if self.codec.select:
            counts = np.bincount(pids[~raw_flags], minlength=3)
            for pid, count in enumerate(counts):
                if count:
                    tel.add("pipeline_selected_total", int(count),
                            pipeline=PIPELINE_VARIANTS[pid])
        return blobs, raw_flags, pids, ChunkStats(
            total=n_chunks * n, lossless=n_lossless, raw_chunks=n_raw,
        )

    def decode_batch(
        self,
        stream: np.ndarray,
        starts: np.ndarray,
        sizes: np.ndarray,
        n_words: int,
        out: np.ndarray | None = None,
        pipeline_id: int = 0,
    ) -> np.ndarray:
        """Decompress + dequantize non-raw full-size chunks in one pass.

        ``stream`` is the whole payload as a uint8 array;
        ``starts``/``sizes`` locate each chunk's blob.  Returns (or fills)
        the ``(n_chunks, n_words)`` float block.  Raw chunks and the
        ragged tail stay on :meth:`decode_chunk` -- the caller partitions
        the size table (for v3 streams, also grouping rows by
        ``pipeline_id`` so each batch decodes under one variant).  Same
        exception barrier as the per-chunk kernel: hostile bytes surface
        as :class:`~repro.errors.PFPLIntegrityError`.
        """
        n_chunks = len(starts)
        tel = self.telemetry
        try:
            words = self.codec.decode_batch(
                stream, starts, sizes, n_words, pipeline_id
            )
            if out is None:
                out = np.empty((n_chunks, n_words), dtype=self.layout.float_dtype)
            with tel.span("dequantize", cat="decode", chunks=n_chunks,
                          bytes_in=words.nbytes, bytes_out=out.nbytes):
                self.quantizer.decode_batch_into(words, out)
            tel.add("chunks_decoded_total", n_chunks)
            tel.add("values_decoded_total", n_chunks * n_words)
        except PFPLError:
            raise
        except (ValueError, TypeError, IndexError, KeyError, OverflowError) as exc:
            raise PFPLIntegrityError(
                f"batch of {n_chunks} chunks failed to decode: {exc}"
            ) from exc
        return out

"""Chunk decomposition, incompressible fallback, and framing.

PFPL breaks the quantized word stream into 16 kB chunks that are
compressed independently (Section III-E): on the CPU each chunk goes to
a thread, on the GPU to a thread block.  Per chunk:

* the fused lossless pipeline produces a variable-size blob,
* if that blob is not smaller than the raw chunk, the raw words are
  emitted instead and the chunk is flagged *raw*, capping the worst-case
  expansion at the size-table overhead,
* compressed chunks are concatenated; their sizes go into a size table
  so the decoder can locate every chunk with one prefix sum.

The tail chunk is zero-padded to a multiple of 8 words so the bit
shuffle always packs whole bytes; the global value count in the header
tells the decoder how many words are real.

Format v3 (per-chunk pipeline selection) packs a 2-bit pipeline id into
bits 29-30 of each size-table entry, leaving 29 bits for the size; the
encoder sizes every candidate variant and stores the smallest.  For
v1/v2 streams those bits are part of the size field and must be zero
for any realistic chunk geometry -- :func:`validate_size_table` rejects
a legacy table carrying pipeline ids (and a v3 table carrying the
reserved id 3, or a raw chunk with a nonzero id).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import PFPLFormatError, PFPLIntegrityError, PFPLUsageError
from .lossless.pipeline import LosslessPipeline, variant_config

__all__ = [
    "CHUNK_BYTES",
    "RAW_FLAG",
    "PIPELINE_SHIFT",
    "ChunkCodec",
    "ChunkPlan",
    "plan_chunks",
    "plan_shards",
    "validate_size_table",
]

#: Chunk payload size used by the paper (16 kB).
CHUNK_BYTES = 16384

#: High bit of a size-table entry: chunk stored raw (incompressible).
RAW_FLAG = np.uint32(0x80000000)
_SIZE_MASK = np.uint32(0x7FFFFFFF)

#: v3 size-table layout: bits 29-30 hold the chunk's 2-bit pipeline id.
PIPELINE_SHIFT = 29
_PID_MASK = np.uint32(0x3)
_SIZE_MASK_V3 = np.uint32((1 << PIPELINE_SHIFT) - 1)


@dataclass(frozen=True)
class ChunkPlan:
    """Where each chunk's words live in the (padded) word stream."""

    n_words: int          #: real words in the stream
    words_per_chunk: int  #: words in a full chunk
    n_chunks: int
    padded_tail_words: int  #: words in the zero-padded tail chunk

    def chunk_word_count(self, index: int) -> int:
        if index < 0 or index >= self.n_chunks:
            raise IndexError(f"chunk {index} out of range [0, {self.n_chunks})")
        if index < self.n_chunks - 1:
            return self.words_per_chunk
        return self.padded_tail_words

    def chunk_bounds(self, index: int) -> tuple[int, int]:
        """(start, stop) word offsets of chunk ``index`` in the padded stream."""
        start = index * self.words_per_chunk
        return start, start + self.chunk_word_count(index)

    def chunk_value_bounds(self, index: int) -> tuple[int, int]:
        """(start, stop) offsets of chunk ``index``'s *real* values.

        Unlike :meth:`chunk_bounds` this never extends past ``n_words``:
        it is the slice of the original float array the fused kernel
        quantizes (the tail chunk's shuffle padding is synthesized inside
        the kernel, not read from the input).
        """
        start, stop = self.chunk_bounds(index)
        return start, min(stop, self.n_words)

    @property
    def padded_total_words(self) -> int:
        """Length of the zero-padded word stream covering every chunk."""
        if not self.n_chunks:
            return 0
        return (self.n_chunks - 1) * self.words_per_chunk + self.padded_tail_words


def plan_chunks(n_words: int, word_itemsize: int, chunk_bytes: int = CHUNK_BYTES) -> ChunkPlan:
    """Compute the chunk decomposition for ``n_words`` words."""
    if chunk_bytes % (8 * word_itemsize):
        raise PFPLUsageError(
            f"chunk size {chunk_bytes} must hold a multiple of 8 words"
        )
    wpc = chunk_bytes // word_itemsize
    if n_words == 0:
        return ChunkPlan(0, wpc, 0, 0)
    n_chunks = (n_words + wpc - 1) // wpc
    tail = n_words - (n_chunks - 1) * wpc
    padded_tail = ((tail + 7) // 8) * 8
    return ChunkPlan(n_words, wpc, n_chunks, padded_tail)


def plan_shards(
    n_rows: int,
    max_rows: int,
    n_shards: int | None = None,
    costs: np.ndarray | None = None,
) -> list[tuple[int, int]]:
    """Split ``n_rows`` batch rows into contiguous ``(lo, hi)`` shards.

    Used by ``Backend.map_batch`` to bound each batched kernel call's
    working set (``max_rows``) and, for parallel backends, to hand every
    worker its own sub-batch.  When per-row ``costs`` are given the cut
    points balance cumulative cost instead of row count (the same
    longest-first intent as ``submission_order``, but contiguity is
    required here so each shard is one matrix slice).  Deterministic:
    depends only on the arguments, never on scheduling.
    """
    if n_rows <= 0:
        return []
    if max_rows <= 0:
        raise PFPLUsageError(f"shard row cap must be positive, got {max_rows}")
    min_shards = (n_rows + max_rows - 1) // max_rows
    k = max(min_shards, n_shards or 1)
    k = min(k, n_rows)
    if costs is None:
        bounds = np.linspace(0, n_rows, k + 1).astype(np.int64)
    else:
        weight = np.asarray(costs, dtype=np.float64)
        if weight.size != n_rows:
            raise PFPLUsageError(
                f"{weight.size} costs for {n_rows} rows"
            )
        cum = np.cumsum(np.maximum(weight, 0.0), dtype=np.float64)
        targets = cum[-1] * np.arange(1, k, dtype=np.float64) / k
        cuts = np.searchsorted(cum, targets, side="left")
        bounds = np.concatenate(
            [np.asarray([0], dtype=np.int64), cuts.astype(np.int64),
             np.asarray([n_rows], dtype=np.int64)]
        )
        bounds = np.maximum.accumulate(bounds)
    shards: list[tuple[int, int]] = []
    lo = 0
    for hi in bounds[1:]:
        hi = int(hi)
        # Re-split any shard the cost balancing left over the row cap.
        while hi - lo > max_rows:
            shards.append((lo, lo + max_rows))
            lo += max_rows
        if hi > lo:
            shards.append((lo, hi))
            lo = hi
    return shards


class ChunkCodec:
    """Pure per-chunk encode/decode used by every backend.

    Backends differ only in *how* they schedule these calls (serial loop,
    thread pool, simulated thread blocks) -- the bytes are identical.
    """

    def __init__(self, pipeline: LosslessPipeline, chunk_bytes: int = CHUNK_BYTES):
        self.pipeline = pipeline
        self.chunk_bytes = chunk_bytes
        self.word_itemsize = pipeline.word_dtype.itemsize
        #: Candidate pipeline ids evaluated per chunk (empty = fixed
        #: pre-v3 pipeline; the size table then carries no ids).
        self.select: tuple[int, ...] = tuple(pipeline.config.select)
        #: Lazily-built per-variant decode pipelines, keyed by id.
        self._variants: dict[int, LosslessPipeline] = {}

    def pipeline_for(self, pipeline_id: int) -> LosslessPipeline:
        """The (sub)pipeline that decodes chunks tagged ``pipeline_id``.

        Variant pipelines are built with ``type(self.pipeline)`` so a
        backend-specific subclass (the GPU sim's warp kernels) keeps its
        execution shape; they share the base pipeline's telemetry sink.
        Raises :class:`PFPLFormatError` on the reserved id 3.
        """
        if pipeline_id == 0:
            return self.pipeline
        variant = self._variants.get(pipeline_id)
        if variant is None:
            cfg = variant_config(self.pipeline.config, pipeline_id)
            variant = type(self.pipeline)(self.pipeline.word_dtype, cfg)
            variant.telemetry = self.pipeline.telemetry
            self._variants[pipeline_id] = variant
        return variant

    def plan(self, n_words: int) -> ChunkPlan:
        return plan_chunks(n_words, self.word_itemsize, self.chunk_bytes)

    def pad_words(self, words: np.ndarray, plan: ChunkPlan) -> np.ndarray:
        """Zero-pad the word stream so the tail chunk is shuffle-aligned."""
        total = plan.padded_total_words
        if words.size == total:
            return words
        padded = np.zeros(total, dtype=self.pipeline.word_dtype)
        padded[: words.size] = words
        return padded

    # -- per-chunk kernels ---------------------------------------------------

    def encode_chunk(self, chunk_words: np.ndarray) -> tuple[bytes, bool, int]:
        """Compress one chunk; returns (blob, is_raw, pipeline_id).

        With selection configured, every candidate variant is sized and
        only the winner is encoded (see
        :meth:`LosslessPipeline.encode_variants` and
        :func:`~repro.core.lossless.pipeline.select_winners`).  Falls back
        to the raw words (id 0) whenever no candidate shrinks the chunk,
        exactly capping worst-case expansion.
        """
        if self.select:
            return self.pipeline.encode_variants(chunk_words, self.select)
        blob = self.pipeline.encode_chunk(chunk_words)
        if len(blob) >= chunk_words.size * self.word_itemsize:
            return chunk_words.tobytes(), True, 0
        return blob, False, 0

    def decode_chunk(
        self, blob, n_words: int, is_raw: bool, pipeline_id: int = 0
    ) -> np.ndarray:
        if is_raw:
            if isinstance(blob, np.ndarray):
                arr = np.ascontiguousarray(blob).view(self.pipeline.word_dtype).reshape(-1)
            else:
                # Wrap the chunk's buffer in place; one copy below detaches
                # the result from the source stream (aligning it as well).
                arr = np.frombuffer(blob, dtype=self.pipeline.word_dtype)
            if arr.size != n_words:
                raise PFPLIntegrityError(
                    f"raw chunk holds {arr.size} words, expected {n_words}"
                )
            return arr.copy()
        return self.pipeline_for(pipeline_id).decode_chunk(blob, n_words)

    # -- chunk-major batch kernels --------------------------------------------

    def encode_batch(
        self, words: np.ndarray
    ) -> tuple[list[bytes], np.ndarray, np.ndarray]:
        """Compress a ``(n_chunks, n_words)`` block of full-size chunks.

        Returns ``(blobs, raw_flags, pipeline_ids)`` with the per-row
        incompressible fallback decided vectorized: any row whose best
        blob failed to shrink below the raw byte count is replaced by its
        raw words (id 0), exactly as :meth:`encode_chunk` decides per
        chunk.  With selection configured the pipeline sizes every
        candidate row-wise and encodes only the winners
        (:meth:`LosslessPipeline.encode_batch_variants`).
        """
        if self.select:
            return self.pipeline.encode_batch_variants(words, self.select)
        blobs = self.pipeline.encode_batch(words)
        sizes = np.fromiter(
            (len(b) for b in blobs), dtype=np.int64, count=len(blobs)
        )
        raw_flags = sizes >= words.shape[1] * self.word_itemsize
        for i in np.flatnonzero(raw_flags):
            blobs[int(i)] = words[int(i)].tobytes()
        return blobs, raw_flags, np.zeros(len(blobs), dtype=np.uint8)

    def decode_batch(
        self,
        stream: np.ndarray,
        starts: np.ndarray,
        sizes: np.ndarray,
        n_words: int,
        pipeline_id: int = 0,
    ) -> np.ndarray:
        """Decompress equal-geometry *non-raw* chunks out of the payload.

        Every chunk in the batch must share ``pipeline_id`` -- the caller
        groups size-table rows by id, so the batch seam stays one
        vectorized call per group with no per-chunk allocation.  Raw
        chunks (and the ragged tail) stay on :meth:`decode_chunk`.
        """
        return self.pipeline_for(pipeline_id).decode_batch(
            stream, starts, sizes, n_words
        )

    # -- framing ---------------------------------------------------------------

    @staticmethod
    def build_size_table(
        sizes: list[int],
        raw_flags: list[bool],
        pipeline_ids=None,
    ) -> np.ndarray:
        """Pack per-chunk byte sizes + raw flags into the u32 size table.

        ``pipeline_ids`` (v3 streams only) adds each chunk's 2-bit
        pipeline id in bits 29-30; sizes must then fit in 29 bits.  Raw
        chunks always carry id 0 on disk.
        """
        table = np.asarray(sizes, dtype=np.uint32)
        flags = np.asarray(raw_flags, dtype=bool)
        if pipeline_ids is None:
            if np.any(table & RAW_FLAG):
                raise PFPLFormatError("chunk blob exceeds 2 GiB size-table limit")
            return table | np.where(flags, RAW_FLAG, np.uint32(0))
        if np.any(table & ~_SIZE_MASK_V3):
            raise PFPLFormatError(
                "chunk blob exceeds the 512 MiB v3 size-table limit"
            )
        pids = np.asarray(pipeline_ids, dtype=np.uint32)
        if np.any(pids & ~_PID_MASK) or np.any(pids == 3):
            bad = int(pids[(pids & ~_PID_MASK) != 0][0]) if np.any(
                pids & ~_PID_MASK
            ) else 3
            raise PFPLFormatError(f"reserved pipeline id {bad}")
        pids = np.where(flags, np.uint32(0), pids)
        return (
            table
            | (pids << np.uint32(PIPELINE_SHIFT))
            | np.where(flags, RAW_FLAG, np.uint32(0))
        )

    @staticmethod
    def parse_size_table(
        table: np.ndarray, pipeline_select: bool = False
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Return (sizes, raw_flags, pipeline_ids, start_offsets).

        ``pipeline_select`` selects the v3 entry layout (29-bit size +
        2-bit pipeline id); legacy streams keep the 31-bit size field and
        report id 0 for every chunk.
        """
        table = np.ascontiguousarray(table, dtype=np.uint32)
        raw_flags = (table & RAW_FLAG) != 0
        if pipeline_select:
            sizes = (table & _SIZE_MASK_V3).astype(np.int64)
            pids = ((table >> np.uint32(PIPELINE_SHIFT)) & _PID_MASK).astype(
                np.uint8
            )
        else:
            sizes = (table & _SIZE_MASK).astype(np.int64)
            pids = np.zeros(table.size, dtype=np.uint8)
        starts = np.zeros(sizes.size, dtype=np.int64)
        if sizes.size > 1:
            np.cumsum(sizes[:-1], out=starts[1:])
        return sizes, raw_flags, pids, starts


def validate_size_table(
    plan: ChunkPlan,
    sizes: np.ndarray,
    raw_flags: np.ndarray,
    word_itemsize: int,
    use_zero_elim: bool = True,
    bitmap_levels: int | None = None,
    pipeline_ids: np.ndarray | None = None,
    pipeline_select: bool = False,
) -> None:
    """Reject size-table entries no conforming encoder can produce.

    A raw chunk stores its padded words verbatim, so its size must equal
    the chunk's raw byte count exactly.  A compressed chunk exists only
    when the pipeline *strictly* shrank it (the incompressible fallback),
    and only zero-byte elimination can shrink -- so with that stage
    disabled every chunk must be raw, and with it enabled a compressed
    chunk can never be smaller than its fully-collapsed serialization
    (the top-level bitmap alone -- every candidate variant shares that
    floor, since all zero-elim streams for a chunk have equal byte
    count).  Checking all of this eagerly means a hostile table can
    neither over-read the source, hand the lossless stages a blob larger
    than any legitimate chunk, nor claim a huge decoded extent backed by
    implausibly few bytes.

    ``pipeline_select`` / ``pipeline_ids`` add the v3 pipeline-id
    invariants: a raw chunk must carry id 0 and the reserved id 3 is
    rejected.  For legacy (v1/v2) streams the pid bits 29-30 are part of
    the size field; whenever the chunk geometry cannot legitimately
    reach them (raw bytes under 512 MiB -- every real configuration), a
    nonzero pid bit is called out explicitly instead of surfacing as a
    confusing out-of-range size.

    Raises :class:`PFPLFormatError` naming the first offending chunk.
    """
    from .lossless.zerobyte import DEFAULT_LEVELS, bitmap_sizes

    n = plan.n_chunks
    if sizes.size != n or raw_flags.size != n:
        raise PFPLFormatError(
            f"size table has {sizes.size} entries for {n} chunks"
        )
    if not n:
        return
    if bitmap_levels is None:
        bitmap_levels = DEFAULT_LEVELS
    raw_bytes = np.full(n, plan.words_per_chunk * word_itemsize, dtype=np.int64)
    raw_bytes[-1] = plan.padded_tail_words * word_itemsize
    if pipeline_select:
        if pipeline_ids is None:
            raise PFPLFormatError(
                "pipeline-select table validation needs the parsed pipeline ids"
            )
        bad_pid = (pipeline_ids == 3) | (raw_flags & (pipeline_ids != 0))
        if np.any(bad_pid):
            i = int(np.argmax(bad_pid))
            if pipeline_ids[i] == 3:
                raise PFPLFormatError(
                    f"corrupt size table: chunk {i} carries the reserved "
                    "pipeline id 3"
                )
            raise PFPLFormatError(
                f"corrupt size table: raw chunk {i} carries pipeline id "
                f"{int(pipeline_ids[i])} (raw chunks must use id 0)"
            )
    elif int(raw_bytes.max()) < (1 << PIPELINE_SHIFT):
        # Legacy stream whose geometry cannot reach bits 29-30 of the
        # size field: any bit set there is a pipeline id smuggled into a
        # v1/v2 table (the header version predates selection).
        stray = (sizes >> PIPELINE_SHIFT) != 0
        if np.any(stray):
            i = int(np.argmax(stray))
            raise PFPLFormatError(
                f"corrupt size table: chunk {i} carries pipeline-id bits "
                "but the header version predates pipeline selection"
            )
    if use_zero_elim:
        min_bytes = np.full(
            n, bitmap_sizes(int(raw_bytes[0]), bitmap_levels)[-1], dtype=np.int64
        )
        min_bytes[-1] = bitmap_sizes(int(raw_bytes[-1]), bitmap_levels)[-1]
    else:
        # Without zero elimination the pipeline is size-preserving, so the
        # raw fallback always wins: a compressed chunk cannot exist.
        min_bytes = raw_bytes
    bad = np.where(
        raw_flags, sizes != raw_bytes, (sizes < min_bytes) | (sizes >= raw_bytes)
    )
    if np.any(bad):
        i = int(np.argmax(bad))
        kind = "raw" if raw_flags[i] else "compressed"
        raise PFPLFormatError(
            f"corrupt size table: {kind} chunk {i} claims {int(sizes[i])} bytes "
            f"(valid range for this chunk is [{int(min_bytes[i])}, "
            f"{int(raw_bytes[i])}])"
        )

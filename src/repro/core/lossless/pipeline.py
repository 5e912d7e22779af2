"""The fused 3-stage lossless pipeline applied to each chunk.

Encoder:  words --L1 delta+negabinary--> words --L2 bit shuffle--> bytes
          --L3 zero-byte elimination--> compressed bytes
Decoder:  the inverses in the opposite order.

Any stage can be disabled for ablation studies (Section III-D notes that
removing any one transformation "decreases the compression ratio by a
substantial factor"; the ablation benchmark quantifies that claim).

Format v3 promotes the ablation axis into the codec: a fixed family of
candidate *variants* (:data:`PIPELINE_VARIANTS`) is evaluated per chunk
by exact encoded size, with the winner's 2-bit id stored in the size
table.  :meth:`LosslessPipeline.encode_variants` /
:meth:`~LosslessPipeline.encode_batch_variants` run each shared stage
once (delta once, bitshuffle once), *size* every candidate from its
bitmap popcounts (:func:`~repro.core.lossless.batch.compressed_sizes_batch`),
pick winners by :func:`select_winners`, and compact only the winners --
so selection costs one bitmap build per candidate plus one zero-elim,
and a raw chunk is never compacted.  The telemetry spans mirror that
work exactly (one ``select`` span per candidate, one ``zero-elim`` span
per compacted group), which keeps the drift model honest.

The pipeline is pure per-chunk computation: given the same words it
produces the same bytes on every backend, which is the foundation of
PFPL's bit-for-bit CPU/GPU compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ...errors import PFPLFormatError, PFPLIntegrityError, PFPLUsageError
from ...telemetry import NULL_TELEMETRY
from ..scratch import scratch
from .batch import compress_bytes_batch, compressed_sizes_batch, decompress_bytes_batch
from .bitshuffle import bitshuffle, bitshuffle_batch, bitunshuffle, bitunshuffle_batch
from .delta import delta_decode, delta_decode_batch, delta_encode, delta_encode_batch
from .zerobyte import DEFAULT_LEVELS, compress_bytes, decompress_bytes

__all__ = [
    "LosslessPipeline",
    "PipelineConfig",
    "PIPELINE_VARIANTS",
    "normalize_selection",
    "select_winners",
    "variant_config",
]

#: Candidate pipeline variants, indexed by the on-disk 2-bit pipeline id.
#: id 0 is the paper's 3-stage default; id 1 skips the bit shuffle (wins
#: on particle-like chunks whose deltas fill whole low bytes); id 2
#: feeds the raw words straight to zero elimination (wins on sparse
#: fields where delta would smear isolated spikes across two words).
#: id 3 is reserved.
PIPELINE_VARIANTS = ("default", "no-shuffle", "direct-zero")


def normalize_selection(pipelines) -> tuple[int, ...]:
    """Normalize a user-facing candidate list to sorted unique ids.

    Accepts variant names from :data:`PIPELINE_VARIANTS` or integer ids,
    in any order.  The returned tuple is strictly increasing, which makes
    "lowest id wins ties" equal to "first candidate wins ties" for the
    selection kernels.
    """
    ids = []
    for p in pipelines:
        if isinstance(p, str):
            if p not in PIPELINE_VARIANTS:
                raise PFPLUsageError(
                    f"unknown pipeline variant {p!r}; choose from "
                    f"{PIPELINE_VARIANTS}"
                )
            ids.append(PIPELINE_VARIANTS.index(p))
        else:
            pid = int(p)
            if not 0 <= pid < len(PIPELINE_VARIANTS):
                raise PFPLUsageError(
                    f"pipeline id {pid} out of range "
                    f"[0, {len(PIPELINE_VARIANTS)})"
                )
            ids.append(pid)
    if not ids:
        raise PFPLUsageError("pipeline selection needs at least one candidate")
    return tuple(sorted(set(ids)))


@dataclass(frozen=True)
class PipelineConfig:
    """Stage toggles + parameters (defaults reproduce the paper).

    ``select`` holds the candidate pipeline ids evaluated per chunk
    (empty = no selection, the pre-v3 fixed pipeline).  Selection
    requires zero elimination: it is the only shrinking stage, so every
    candidate ends in it and a non-zero-elim base config has nothing to
    select between.
    """

    use_delta: bool = True
    use_bitshuffle: bool = True
    use_zero_elim: bool = True
    bitmap_levels: int = DEFAULT_LEVELS
    select: tuple[int, ...] = ()

    def __post_init__(self):
        if self.select:
            object.__setattr__(self, "select", normalize_selection(self.select))
            if not self.use_zero_elim:
                raise PFPLUsageError(
                    "per-chunk pipeline selection requires zero-byte "
                    "elimination (the only stage that can shrink a chunk)"
                )

    def describe(self) -> str:
        if self.select:
            names = "|".join(PIPELINE_VARIANTS[i] for i in self.select)
            return f"select({names})"
        stages = []
        if self.use_delta:
            stages.append("delta+negabinary")
        if self.use_bitshuffle:
            stages.append("bitshuffle")
        if self.use_zero_elim:
            stages.append(f"zero-elim(x{self.bitmap_levels})")
        return " -> ".join(stages) if stages else "identity"


def variant_config(base: PipelineConfig, pipeline_id: int) -> PipelineConfig:
    """The stage toggles pipeline id ``pipeline_id`` runs with.

    Variants derive from the *base* config (preserving bitmap levels) but
    never themselves select; id 3 is reserved and rejected here, which
    makes this the decode path's single gate on hostile pipeline ids.
    """
    if pipeline_id == 0:
        return replace(base, select=())
    if pipeline_id == 1:
        return replace(base, use_bitshuffle=False, select=())
    if pipeline_id == 2:
        return replace(base, use_delta=False, use_bitshuffle=False, select=())
    raise PFPLFormatError(f"reserved pipeline id {pipeline_id}")


def select_winners(
    sizes: np.ndarray, pids: tuple[int, ...], raw_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Format v3's selection rule over a ``(len(pids), n_rows)`` size matrix.

    Each row keeps its smallest blob, ties going to the lowest id
    (``pids`` is sorted and ``argmin`` returns the first minimum); a row
    whose best blob is not smaller than its ``raw_size`` raw bytes is
    stored raw and tagged id 0.  Returns ``(pipeline_ids, raw_flags)``.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    best = np.argmin(sizes, axis=0)
    raw = np.take_along_axis(sizes, best[None], axis=0)[0] >= raw_size
    ids = np.asarray(pids, dtype=np.uint8)[best]
    ids[raw] = 0
    return ids, raw


class LosslessPipeline:
    """Encode/decode one chunk of quantized words.

    Parameters
    ----------
    word_dtype:
        ``np.uint32`` or ``np.uint64`` -- the quantizer's word size (the
        double-precision pipeline is the single-precision pipeline with
        the word size of all but the last stage doubled, Section III-D).
    config:
        Stage toggles for ablations.

    Every codec method records one span per stage through
    :attr:`telemetry`.  Byte accounting follows
    :func:`repro.device.profile.profile_chunk` so the drift check can
    compare measured against analytic exactly: delta is
    word-size-preserving, bitshuffle maps words to one byte-plane stream
    of equal size, zero elimination is the only stage that shrinks.
    Batched spans carry the same stage names plus a ``chunks`` count, and
    their byte totals equal the sum of the per-chunk spans.

    The per-chunk methods run their stages through the hooks
    ``_delta_encode`` .. ``_delta_decode`` below; a backend-specific
    pipeline (the GPU simulation's warp kernels) overrides only those
    hooks and inherits the control flow.
    """

    #: Telemetry sink (null object by default: its spans are no-ops).
    telemetry = NULL_TELEMETRY

    def __init__(self, word_dtype=np.uint32, config: PipelineConfig | None = None):
        self.word_dtype = np.dtype(word_dtype)
        if self.word_dtype not in (np.dtype(np.uint32), np.dtype(np.uint64)):
            raise TypeError(f"pipeline words must be uint32/uint64, got {word_dtype}")
        self.config = config or PipelineConfig()

    # -- per-chunk stage kernels ----------------------------------------------
    # Each hook looks its stage function up in this module at call time,
    # so rebinding a module-level stage name reaches every call.

    def _delta_encode(self, words: np.ndarray) -> np.ndarray:
        return delta_encode(words)

    def _bitshuffle(self, words: np.ndarray) -> np.ndarray:
        return bitshuffle(words)

    def _zero_elim(self, stream: np.ndarray) -> bytes:
        return compress_bytes(stream, levels=self.config.bitmap_levels)

    def _zero_restore(self, blob, n_bytes: int) -> np.ndarray:
        return decompress_bytes(blob, n_bytes, levels=self.config.bitmap_levels)

    def _bitunshuffle(self, stream: np.ndarray, n_words: int) -> np.ndarray:
        return bitunshuffle(stream, n_words, self.word_dtype)

    def _delta_decode(self, words: np.ndarray) -> np.ndarray:
        return delta_decode(words)

    # -- per-chunk codec -------------------------------------------------------

    def encode_chunk(self, words: np.ndarray) -> bytes:
        """Compress one chunk of words (count must be a multiple of 8)."""
        tel = self.telemetry
        words = np.ascontiguousarray(words, dtype=self.word_dtype)
        cfg = self.config
        if cfg.use_delta:
            with tel.span("delta+negabinary", cat="encode",
                          bytes_in=words.nbytes, bytes_out=words.nbytes):
                words = self._delta_encode(words)
        if cfg.use_bitshuffle:
            with tel.span("bitshuffle", cat="encode", bytes_in=words.nbytes) as sp:
                stream = self._bitshuffle(words)
                sp.set(bytes_out=stream.size)
        else:
            stream = words.view(np.uint8)
        if cfg.use_zero_elim:
            with tel.span("zero-elim", cat="encode", bytes_in=stream.size) as sp:
                blob = self._zero_elim(stream)
                sp.set(bytes_out=len(blob))
            return blob
        return stream.tobytes()

    def encode_variants(
        self, words: np.ndarray, pids: tuple[int, ...]
    ) -> tuple[bytes, bool, int]:
        """Encode one chunk under format v3 selection over ``pids``.

        Returns ``(blob, is_raw, pipeline_id)``: the winning candidate's
        blob (byte-identical to encoding that variant alone), or the raw
        words tagged id 0 when no candidate shrinks the chunk.  Delta and
        bitshuffle run at most once, every candidate is sized, and only
        the winner is compacted, through the ``_zero_elim`` hook.
        """
        words = np.ascontiguousarray(words, dtype=self.word_dtype)
        streams = self._candidate_streams(
            words, pids, self._delta_encode, self._bitshuffle
        )
        blobs, raw, ids = self._select(
            words.reshape(1, -1), streams, pids,
            lambda rows: [self._zero_elim(rows[0])],
        )
        return blobs[0], bool(raw[0]), int(ids[0])

    def _candidate_streams(
        self, words: np.ndarray, pids: tuple[int, ...], delta, shuffle, **span_args
    ) -> dict[int, np.ndarray]:
        """Each candidate's stage-L3 input bytes, keyed by pipeline id.

        ``delta``/``shuffle`` are the stage functions (per-chunk hooks or
        batch kernels); each runs at most once, in its own span, however
        many candidates share it.
        """
        tel = self.telemetry
        delta_words = None
        planes = None
        streams = {}
        for pid in pids:
            cfg = variant_config(self.config, pid)
            w = words
            if cfg.use_delta:
                if delta_words is None:
                    with tel.span("delta+negabinary", cat="encode", **span_args,
                                  bytes_in=words.nbytes, bytes_out=words.nbytes):
                        delta_words = delta(words)
                w = delta_words
            if cfg.use_bitshuffle:
                # Only id 0 keeps the bit shuffle, so at most one plane
                # stream is ever built.
                if planes is None:
                    with tel.span("bitshuffle", cat="encode", **span_args,
                                  bytes_in=w.nbytes) as sp:
                        planes = shuffle(w)
                        sp.set(bytes_out=planes.size)
                streams[pid] = planes
            else:
                streams[pid] = np.ascontiguousarray(w).view(np.uint8)
        return streams

    def _select(
        self, words: np.ndarray, streams: dict[int, np.ndarray],
        pids: tuple[int, ...], compact, **span_args,
    ) -> tuple[list[bytes], np.ndarray, np.ndarray]:
        """Size every candidate, pick winners, compact only the winners.

        ``words`` is the ``(n_rows, n_words)`` block the streams came
        from (a raw row stores its words); ``compact`` maps a block of
        one candidate's stream rows to their blobs.  Returns ``(blobs,
        raw_flags, pipeline_ids)``.
        """
        tel = self.telemetry
        n_rows = words.shape[0]
        rows_of = {pid: s.reshape(n_rows, -1) for pid, s in streams.items()}
        raw_size = words.shape[1] * self.word_dtype.itemsize
        if len(pids) > 1:
            sizes = np.empty((len(pids), n_rows), dtype=np.int64)
            for j, pid in enumerate(pids):
                with tel.span("select", cat="encode", **span_args,
                              bytes_in=streams[pid].size, bytes_out=0,
                              pipeline=PIPELINE_VARIANTS[pid]):
                    sizes[j] = compressed_sizes_batch(
                        rows_of[pid], levels=self.config.bitmap_levels
                    )
            ids, raw = select_winners(sizes, pids, raw_size)
            groups = [(pid, np.flatnonzero((ids == pid) & ~raw)) for pid in pids]
        else:
            # A lone candidate has nothing to be sized against: every row
            # is compacted, and the blob lengths decide the raw fallback.
            groups = [(pids[0], np.arange(n_rows, dtype=np.int64))]
        blobs: list = [None] * n_rows
        for pid, rows in groups:
            if not rows.size:
                continue
            block = rows_of[pid] if rows.size == n_rows else rows_of[pid][rows]
            # A batched span names the rows it covered; a per-chunk one none.
            group = {"chunks": int(rows.size)} if span_args else {}
            with tel.span("zero-elim", cat="encode", **group,
                          bytes_in=block.size,
                          pipeline=PIPELINE_VARIANTS[pid]) as sp:
                got = compact(block)
                sp.set(bytes_out=sum(map(len, got)))
            for i, blob in zip(rows.tolist(), got):
                blobs[i] = blob
        if len(pids) == 1:
            sizes = np.fromiter(map(len, blobs), dtype=np.int64, count=n_rows)
            ids, raw = select_winners(sizes[None], pids, raw_size)
        for i in np.flatnonzero(raw).tolist():
            blobs[i] = words[i].tobytes()
        return blobs, raw, ids

    def decode_chunk(self, blob, n_words: int) -> np.ndarray:
        """Decompress one chunk back into ``n_words`` words."""
        tel = self.telemetry
        cfg = self.config
        n_bytes = n_words * self.word_dtype.itemsize
        if cfg.use_zero_elim:
            blob_len = blob.nbytes if hasattr(blob, "nbytes") else len(blob)
            with tel.span("zero-restore", cat="decode",
                          bytes_in=blob_len, bytes_out=n_bytes):
                stream = self._zero_restore(blob, n_bytes)
        else:
            # Read the chunk's buffer in place (memoryview/bytes/array);
            # duplicating it here doubled decode memory per chunk.
            if isinstance(blob, np.ndarray):
                stream = np.ascontiguousarray(blob).view(np.uint8).reshape(-1)
            else:
                stream = np.frombuffer(blob, dtype=np.uint8)
            if stream.size != n_bytes:
                raise PFPLIntegrityError(
                    f"chunk holds {stream.size} bytes, expected {n_bytes}"
                )
        if cfg.use_bitshuffle:
            with tel.span("bitunshuffle", cat="decode",
                          bytes_in=stream.size, bytes_out=n_bytes):
                words = self._bitunshuffle(stream, n_words)
        else:
            words = np.ascontiguousarray(stream).view(self.word_dtype).copy()
        if cfg.use_delta:
            with tel.span("delta-decode", cat="decode",
                          bytes_in=words.nbytes, bytes_out=words.nbytes):
                words = self._delta_decode(words)
        return words

    # -- chunk-major batch codec ----------------------------------------------

    def encode_batch(self, words: np.ndarray) -> list[bytes]:
        """Compress a ``(n_chunks, n_words)`` block of equal-size chunks.

        Every stage runs once over the whole matrix (chunk-major layout)
        and the result is the list of per-chunk blobs, bit-identical to
        mapping :meth:`encode_chunk` over the rows.  Row width must be a
        multiple of 8 (the full-chunk geometry always is).  The zero-elim
        span attributes output bytes per chunk (``chunk_bytes_out``).
        """
        tel = self.telemetry
        words = np.ascontiguousarray(words, dtype=self.word_dtype)
        cfg = self.config
        n_chunks = words.shape[0]
        if cfg.use_delta:
            # Stage intermediates live in reused per-thread scratch: the
            # blobs copy out of them before the next batch reuses the
            # memory, so nothing scratch-backed escapes this call.
            with tel.span("delta+negabinary", cat="encode", chunks=n_chunks,
                          bytes_in=words.nbytes, bytes_out=words.nbytes):
                words = delta_encode_batch(
                    words,
                    out=scratch("pipeline.delta", words.shape, self.word_dtype),
                )
        if cfg.use_bitshuffle:
            with tel.span("bitshuffle", cat="encode", chunks=n_chunks,
                          bytes_in=words.nbytes) as sp:
                stream = bitshuffle_batch(words, out=self._plane_scratch(words))
                sp.set(bytes_out=stream.size)
        else:
            stream = np.ascontiguousarray(words).view(np.uint8)
        if cfg.use_zero_elim:
            with tel.span("zero-elim", cat="encode", chunks=n_chunks,
                          bytes_in=stream.size) as sp:
                blobs = compress_bytes_batch(stream, levels=cfg.bitmap_levels)
                sizes = list(map(len, blobs))
                sp.set(bytes_out=sum(sizes), chunk_bytes_out=sizes)
            return blobs
        return [row.tobytes() for row in stream]

    def encode_batch_variants(
        self, words: np.ndarray, pids: tuple[int, ...]
    ) -> tuple[list[bytes], np.ndarray, np.ndarray]:
        """Batched :meth:`encode_variants` over a ``(n_chunks, n_words)`` block.

        Returns ``(blobs, raw_flags, pipeline_ids)``, bit-identical to
        mapping :meth:`encode_variants` over the rows.  The shared stages
        run once over the whole matrix (same scratch arenas as
        :meth:`encode_batch`), every candidate is sized row-wise, and the
        winners are compacted with one :func:`compress_bytes_batch` call
        per winning id.
        """
        words = np.ascontiguousarray(words, dtype=self.word_dtype)
        n_chunks = words.shape[0]
        levels = self.config.bitmap_levels
        streams = self._candidate_streams(
            words, pids,
            lambda w: delta_encode_batch(
                w, out=scratch("pipeline.delta", w.shape, self.word_dtype)
            ),
            lambda w: bitshuffle_batch(w, out=self._plane_scratch(w)),
            chunks=n_chunks,
        )
        return self._select(
            words, streams, pids,
            lambda rows: compress_bytes_batch(rows, levels=levels),
            chunks=n_chunks,
        )

    def decode_batch(
        self,
        stream: np.ndarray,
        starts: np.ndarray,
        sizes: np.ndarray,
        n_words: int,
    ) -> np.ndarray:
        """Decompress equal-geometry chunks straight out of the payload.

        ``stream`` is the whole payload as uint8; ``starts``/``sizes``
        locate each (non-raw, full-size) chunk's blob.  Returns the
        ``(n_chunks, n_words)`` word matrix, bit-identical to mapping
        :meth:`decode_chunk` over the blobs.
        """
        tel = self.telemetry
        cfg = self.config
        n_chunks = len(starts)
        n_bytes = n_words * self.word_dtype.itemsize
        if cfg.use_zero_elim:
            blob_bytes = int(np.asarray(sizes, dtype=np.int64).sum(dtype=np.int64))
            with tel.span("zero-restore", cat="decode", chunks=n_chunks,
                          bytes_in=blob_bytes, bytes_out=n_chunks * n_bytes):
                planes = decompress_bytes_batch(
                    stream, starts, sizes, n_bytes, levels=cfg.bitmap_levels
                )
        else:
            planes = self._gather_uncompressed(stream, starts, sizes, n_bytes)
        if cfg.use_bitshuffle:
            with tel.span("bitunshuffle", cat="decode", chunks=n_chunks,
                          bytes_in=planes.size, bytes_out=n_chunks * n_bytes):
                words = bitunshuffle_batch(planes, self.word_dtype)
        else:
            # Both plane sources return a fresh matrix: reinterpret it.
            words = planes.view(self.word_dtype)
        if cfg.use_delta:
            with tel.span("delta-decode", cat="decode", chunks=n_chunks,
                          bytes_in=words.nbytes, bytes_out=words.nbytes):
                words = delta_decode_batch(words, out=words)
        return words

    def _plane_scratch(self, words: np.ndarray) -> np.ndarray:
        """Reused uint8 buffer sized for ``words``' bit-plane stream."""
        n_chunks, n = words.shape
        return scratch(
            "pipeline.planes", (n_chunks, n * self.word_dtype.itemsize), np.uint8
        )

    @staticmethod
    def _gather_uncompressed(stream, starts, sizes, n_bytes: int) -> np.ndarray:
        """Slice fixed-size uncompressed chunk bodies out of the payload."""
        sizes = np.asarray(sizes, dtype=np.int64)
        if not np.all(sizes == n_bytes):
            bad = int(np.argmax(sizes != n_bytes))
            raise PFPLIntegrityError(
                f"chunk holds {int(sizes[bad])} bytes, expected {n_bytes}"
            )
        starts = np.asarray(starts, dtype=np.int64)
        if starts.size and int(starts.max()) + n_bytes > stream.size:
            raise PFPLIntegrityError("chunk body reads past the stream")
        return stream[starts[:, None] + np.arange(n_bytes, dtype=np.int64)]

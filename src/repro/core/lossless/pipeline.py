"""The fused 3-stage lossless pipeline applied to each chunk.

Encoder:  words --L1 delta+negabinary--> words --L2 bit shuffle--> bytes
          --L3 zero-byte elimination--> compressed bytes
Decoder:  the inverses in the opposite order.

Any stage can be disabled for ablation studies (Section III-D notes that
removing any one transformation "decreases the compression ratio by a
substantial factor"; the ablation benchmark quantifies that claim).

Format v3 promotes the ablation axis into the codec: a fixed family of
candidate *variants* (:data:`PIPELINE_VARIANTS`) can be evaluated per
chunk by actual encoded size, with the winner's 2-bit id stored in the
size table.  :meth:`LosslessPipeline.encode_variants` /
:meth:`~LosslessPipeline.encode_batch_variants` evaluate every candidate
while running each shared stage exactly once (delta once, bitshuffle
once, one zero-elim pass per candidate), so selection costs one extra
zero-elim per extra candidate -- and the telemetry spans mirror that
sharing exactly, which keeps the drift model honest.

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
from .batch import compress_bytes_batch, decompress_bytes_batch
from .bitshuffle import bitshuffle, bitshuffle_batch, bitunshuffle, bitunshuffle_batch
from .delta import delta_decode, delta_decode_batch, delta_encode, delta_encode_batch
from .zerobyte import DEFAULT_LEVELS, compress_bytes, decompress_bytes

__all__ = [
    "LosslessPipeline",
    "PipelineConfig",
    "PIPELINE_VARIANTS",
    "normalize_selection",
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

    def encode_variants(self, words: np.ndarray, pids: tuple[int, ...]) -> list[bytes]:
        """Encode one chunk under every candidate variant, sharing stages.

        Returns one blob per id in ``pids`` (same order).  Delta runs at
        most once, bitshuffle at most once, zero elimination once per
        candidate -- so the blobs are byte-identical to encoding each
        variant independently while the marginal cost per candidate is
        one zero-elim pass.  The spans mirror that sharing (one
        ``delta+negabinary`` and one ``bitshuffle`` span at most, one
        ``zero-elim`` span per candidate labeled with the variant name),
        which the drift model reproduces.
        """
        tel = self.telemetry
        words = np.ascontiguousarray(words, dtype=self.word_dtype)
        delta = None
        planes: dict[bool, np.ndarray] = {}
        blobs = []
        for pid in pids:
            cfg = variant_config(self.config, pid)
            w = words
            if cfg.use_delta:
                if delta is None:
                    with tel.span("delta+negabinary", cat="encode",
                                  bytes_in=words.nbytes, bytes_out=words.nbytes):
                        delta = self._delta_encode(words)
                w = delta
            if cfg.use_bitshuffle:
                if cfg.use_delta not in planes:
                    with tel.span("bitshuffle", cat="encode",
                                  bytes_in=w.nbytes) as sp:
                        planes[cfg.use_delta] = self._bitshuffle(w)
                        sp.set(bytes_out=planes[cfg.use_delta].size)
                stream = planes[cfg.use_delta]
            else:
                stream = w.view(np.uint8)
            with tel.span("zero-elim", cat="encode", bytes_in=stream.size,
                          pipeline=PIPELINE_VARIANTS[pid]) as sp:
                blob = self._zero_elim(stream)
                sp.set(bytes_out=len(blob))
            blobs.append(blob)
        return blobs

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
    ) -> list[list[bytes]]:
        """Batched variant evaluation over a ``(n_chunks, n_words)`` block.

        Returns one blob list per id in ``pids``, each bit-identical to
        :meth:`encode_batch` under that variant's config.  Shared stages
        run once over the whole matrix (same scratch arenas as
        :meth:`encode_batch`); only zero elimination repeats per
        candidate.  Stage sharing and span structure match
        :meth:`encode_variants` exactly, so per-chunk and batched
        selection account identically.
        """
        tel = self.telemetry
        words = np.ascontiguousarray(words, dtype=self.word_dtype)
        n_chunks = words.shape[0]
        delta = None
        planes: dict[bool, np.ndarray] = {}
        out = []
        for pid in pids:
            cfg = variant_config(self.config, pid)
            w = words
            if cfg.use_delta:
                if delta is None:
                    with tel.span("delta+negabinary", cat="encode",
                                  chunks=n_chunks, bytes_in=words.nbytes,
                                  bytes_out=words.nbytes):
                        delta = delta_encode_batch(
                            words,
                            out=scratch(
                                "pipeline.delta", words.shape, self.word_dtype
                            ),
                        )
                w = delta
            if cfg.use_bitshuffle:
                if cfg.use_delta not in planes:
                    with tel.span("bitshuffle", cat="encode", chunks=n_chunks,
                                  bytes_in=w.nbytes) as sp:
                        planes[cfg.use_delta] = bitshuffle_batch(
                            w, out=self._plane_scratch(w)
                        )
                        sp.set(bytes_out=planes[cfg.use_delta].size)
                stream = planes[cfg.use_delta]
            else:
                stream = np.ascontiguousarray(w).view(np.uint8)
            with tel.span("zero-elim", cat="encode", chunks=n_chunks,
                          bytes_in=stream.size,
                          pipeline=PIPELINE_VARIANTS[pid]) as sp:
                blobs = compress_bytes_batch(stream, levels=cfg.bitmap_levels)
                sizes = list(map(len, blobs))
                sp.set(bytes_out=sum(sizes), chunk_bytes_out=sizes)
            out.append(blobs)
        return out

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

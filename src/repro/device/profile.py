"""Per-stage profiling: where do the bytes and operations go?

Backs the Section V-F profiling discussion: PFPL "reads the input from
main memory only once, performs most of the work while the data resides
in shared memory, then writes the output to main memory once", spending
the bulk of its cycles on integer work in the middle stages.  This
module runs a chunk through the pipeline stage by stage, recording each
stage's input/output bytes and an operation estimate, then derives the
DRAM-traffic story the paper tells (fused vs. unfused execution).

Both codec directions are modeled.  ``direction="encode"`` (the
default) profiles quantize -> delta+negabinary -> bitshuffle ->
zero-elim.  ``direction="decode"`` profiles the inverse stages in
decode order -- zero-restore -> bitunshuffle -> delta-decode ->
dequantize -- with the byte traffic the real decode kernel records,
including the raw-fallback asymmetry: an incompressible chunk skips the
three lossless inverse stages entirely (the decoder copies the raw
words), so only ``dequantize`` appears for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.lossless.batch import compressed_sizes_batch
from ..core.lossless.bitshuffle import bitshuffle
from ..core.lossless.delta import delta_encode
from ..core.lossless.pipeline import PIPELINE_VARIANTS, normalize_selection, select_winners
from ..core.quantizers import make_quantizer
from ..errors import PFPLUsageError

__all__ = ["StageProfile", "PipelineProfile", "profile_chunk"]


@dataclass(frozen=True)
class StageProfile:
    """One stage's traffic and work estimate."""

    name: str
    bytes_in: int
    bytes_out: int
    #: estimated simple (integer/float) operations executed
    ops: int

    @property
    def ops_per_byte(self) -> float:
        return self.ops / max(1, self.bytes_in)


@dataclass
class PipelineProfile:
    """Whole-pipeline profile for one chunk."""

    stages: list[StageProfile] = field(default_factory=list)

    @property
    def total_ops(self) -> int:
        return sum(s.ops for s in self.stages)

    @property
    def input_bytes(self) -> int:
        return self.stages[0].bytes_in if self.stages else 0

    @property
    def output_bytes(self) -> int:
        return self.stages[-1].bytes_out if self.stages else 0

    def dram_traffic(self, fused: bool = True) -> int:
        """Main-memory bytes moved.

        Fused (PFPL): read the input once + write the final output once;
        everything between lives in shared memory / L1 (Section III-E).
        Unfused: every stage round-trips through DRAM.
        """
        if fused:
            return self.input_bytes + self.output_bytes
        total = 0
        for s in self.stages:
            total += s.bytes_in + s.bytes_out
        return total

    @property
    def compute_intensity(self) -> float:
        """ops per DRAM byte under fusion -- high => compute bound."""
        return self.total_ops / max(1, self.dram_traffic(fused=True))

    def render(self) -> str:
        lines = [f"  {'stage':<14} {'in bytes':>9} {'out bytes':>10} "
                 f"{'ops':>10} {'ops/B':>7}"]
        for s in self.stages:
            lines.append(
                f"  {s.name:<14} {s.bytes_in:>9,} {s.bytes_out:>10,} "
                f"{s.ops:>10,} {s.ops_per_byte:>7.1f}"
            )
        lines.append(
            f"  DRAM traffic: fused {self.dram_traffic(True):,} B vs "
            f"unfused {self.dram_traffic(False):,} B "
            f"({self.dram_traffic(False) / max(1, self.dram_traffic(True)):.1f}x)"
        )
        return "\n".join(lines)


def profile_chunk(
    values: np.ndarray,
    mode: str = "abs",
    error_bound: float = 1e-3,
    quantizer_params: dict | None = None,
    direction: str = "encode",
    pipelines=None,
) -> PipelineProfile:
    """Profile one chunk of float data through quantize + L1 + L2 + L3.

    Operation estimates count the arithmetic a scalar implementation
    would execute (the paper's kernels are these loops, vectorized):
    quantizer ~6 ops/value (mul, round, convert, mul, sub, compare),
    delta+negabinary ~3 ops/word, bit shuffle ~log2(w) ops/word,
    zero elimination ~2 ops/byte + bitmap iterations.

    ``quantizer_params`` carries pre-resolved mode-global state (a NOA
    ``value_range`` from ``header_params()``); when given, ``prepare``
    is skipped so a *slice* of a larger stream profiles exactly like
    the codec encoding that slice inside the whole.

    ``direction="decode"`` models the inverse pipeline instead: the
    forward stages run once to learn the chunk's compressed geometry,
    then the profile lists ``zero-restore`` -> ``bitunshuffle`` ->
    ``delta-decode`` -> ``dequantize[<mode>]`` with the byte traffic the
    decode kernel's telemetry records.  A chunk the encoder would emit
    raw (blob >= the padded words) decodes without the lossless inverse
    stages, so its decode profile holds ``dequantize`` alone.

    ``pipelines`` models format v3's per-chunk selection instead of the
    fixed 3-stage pipeline: candidates (names or ids, normalized via
    :func:`~repro.core.lossless.pipeline.normalize_selection`) share the
    delta and bitshuffle stages exactly like
    :meth:`~repro.core.lossless.pipeline.LosslessPipeline.encode_variants`,
    each candidate is sized (a ``select[<variant>]`` stage that reads its
    stream and writes nothing), and only the winner pays a
    ``zero-elim[<variant>]`` stage -- none when the chunk falls back to
    raw.  A lone candidate is compacted directly, with no sizing stage.
    The decode profile models only the winner: its inverse stages if it
    beat the raw fallback, ``dequantize`` alone otherwise.
    """
    if direction not in ("encode", "decode"):
        raise PFPLUsageError(
            f"direction must be 'encode' or 'decode', got {direction!r}"
        )
    values = np.ascontiguousarray(values).reshape(-1)
    if quantizer_params is not None:
        quantizer = make_quantizer(
            mode, error_bound, dtype=values.dtype, **quantizer_params
        )
    else:
        quantizer = make_quantizer(mode, error_bound, dtype=values.dtype)
        # Resolve mode-global state exactly like the codec does (NOA's
        # min/max reduction; no-op for ABS/REL) so all three modes profile.
        quantizer.prepare(values)
    n = values.size
    word_bytes = values.dtype.itemsize
    width = word_bytes * 8

    profile = PipelineProfile()

    # The forward stages always run: encode profiles report them
    # directly, decode profiles need the chunk's compressed geometry
    # (blob size, raw-fallback decision) to model the inverse traffic.
    words = quantizer.encode(values)
    delta = delta_encode(words)
    pad = (-n) % 8
    padded = np.concatenate([delta, np.zeros(pad, dtype=delta.dtype)]) if pad else delta
    planes = bitshuffle(padded)
    blob_len = int(compressed_sizes_batch(planes.reshape(1, -1))[0])
    quantize_ops = 6 * n if mode != "rel" else 40 * n  # REL pays for log2/exp2

    if pipelines is not None:
        return _profile_variants(
            profile, normalize_selection(pipelines), direction, mode,
            words, delta, padded, planes, n, word_bytes, width, quantize_ops,
        )

    if direction == "encode":
        profile.stages.append(StageProfile(
            f"quantize[{mode}]", n * word_bytes, n * word_bytes, ops=quantize_ops,
        ))
        profile.stages.append(StageProfile(
            "delta+negabin", n * word_bytes, n * word_bytes, ops=3 * n,
        ))
        profile.stages.append(StageProfile(
            "bitshuffle", padded.size * word_bytes, planes.size,
            ops=int(np.log2(width)) * padded.size,
        ))
        profile.stages.append(StageProfile(
            "zero-elim", planes.size, blob_len, ops=2 * planes.size + planes.size // 2,
        ))
        return profile

    # Decode direction: mirror ChunkCodec's framing.  The encoder falls
    # back to the raw padded words whenever the pipeline failed to
    # shrink them, and the decoder then bypasses the lossless inverse
    # stages entirely (ChunkCodec.decode_chunk's is_raw branch).
    padded_bytes = padded.size * word_bytes
    if blob_len < padded_bytes:
        profile.stages.append(StageProfile(
            "zero-restore", blob_len, padded_bytes,
            ops=2 * planes.size + planes.size // 2,
        ))
        profile.stages.append(StageProfile(
            "bitunshuffle", padded_bytes, padded_bytes,
            ops=int(np.log2(width)) * padded.size,
        ))
        profile.stages.append(StageProfile(
            "delta-decode", padded_bytes, padded_bytes, ops=3 * n,
        ))
    profile.stages.append(StageProfile(
        f"dequantize[{mode}]", n * word_bytes, n * word_bytes, ops=quantize_ops,
    ))
    return profile


def _profile_variants(
    profile: PipelineProfile,
    pids: tuple[int, ...],
    direction: str,
    mode: str,
    words: np.ndarray,
    delta: np.ndarray,
    padded: np.ndarray,
    planes: np.ndarray,
    n: int,
    word_bytes: int,
    width: int,
    quantize_ops: int,
) -> PipelineProfile:
    """Model per-chunk selection over ``pids`` (already normalized).

    Mirrors ``LosslessPipeline.encode_variants``: every candidate stream
    has the same byte count (the padded words), delta and bitshuffle run
    at most once, every candidate is sized by
    :func:`~repro.core.lossless.batch.compressed_sizes_batch`, and the
    winner (:func:`~repro.core.lossless.pipeline.select_winners`) is the
    one stream compacted.  Candidate streams: id 0 compresses the
    shuffled planes, id 1 the delta words directly, id 2 the quantized
    words untouched.
    """
    pad = padded.size - delta.size
    padded_words = (
        np.concatenate([words, np.zeros(pad, dtype=words.dtype)]) if pad else words
    )
    streams = {
        0: planes,
        1: padded.view(np.uint8).reshape(-1),
        2: padded_words.view(np.uint8).reshape(-1),
    }
    sizes = np.asarray(
        [compressed_sizes_batch(streams[pid].reshape(1, -1)) for pid in pids]
    )
    padded_bytes = padded.size * word_bytes
    ids, raw = select_winners(sizes, pids, padded_bytes)
    winner = None if raw[0] else int(ids[0])

    if direction == "encode":
        profile.stages.append(StageProfile(
            f"quantize[{mode}]", n * word_bytes, n * word_bytes, ops=quantize_ops,
        ))
        if any(pid in (0, 1) for pid in pids):
            profile.stages.append(StageProfile(
                "delta+negabin", n * word_bytes, n * word_bytes, ops=3 * n,
            ))
        if 0 in pids:
            profile.stages.append(StageProfile(
                "bitshuffle", padded_bytes, planes.size,
                ops=int(np.log2(width)) * padded.size,
            ))
        if len(pids) > 1:
            for pid in pids:
                profile.stages.append(StageProfile(
                    f"select[{PIPELINE_VARIANTS[pid]}]", padded_bytes, 0,
                    ops=padded_bytes + padded_bytes // 2,
                ))
        # A lone candidate is compacted before the raw decision is made.
        compacted = pids[0] if len(pids) == 1 else winner
        if compacted is not None:
            profile.stages.append(StageProfile(
                f"zero-elim[{PIPELINE_VARIANTS[compacted]}]",
                padded_bytes, int(sizes[pids.index(compacted), 0]),
                ops=2 * padded_bytes + padded_bytes // 2,
            ))
        return profile

    # Decode: only the winning candidate's inverse stages run, and the
    # raw fallback bypasses them all.
    if winner is not None:
        profile.stages.append(StageProfile(
            "zero-restore", int(sizes[pids.index(winner), 0]), padded_bytes,
            ops=2 * padded_bytes + padded_bytes // 2,
        ))
        if winner == 0:
            profile.stages.append(StageProfile(
                "bitunshuffle", padded_bytes, padded_bytes,
                ops=int(np.log2(width)) * padded.size,
            ))
        if winner in (0, 1):
            profile.stages.append(StageProfile(
                "delta-decode", padded_bytes, padded_bytes, ops=3 * n,
            ))
    profile.stages.append(StageProfile(
        f"dequantize[{mode}]", n * word_bytes, n * word_bytes, ops=quantize_ops,
    ))
    return profile

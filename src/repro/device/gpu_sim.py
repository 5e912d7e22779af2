"""GPU-structured implementations of the per-chunk kernels.

The simulated GPU backend runs the *same algorithm* as the CPU but
through the code structure the paper's CUDA implementation uses
(Section III-E):

* bit shuffle at **warp granularity** via log2(wordsize) butterfly
  (register-shuffle) steps -- :mod:`repro.device.warp`;
* the delta decoder's running sum via a **block-wide Blelloch scan**
  with wrapping arithmetic;
* zero-elimination output placement via a block-wide **exclusive scan**
  over the keep flags (the real kernel computes each thread's write
  offset this way instead of compacting sequentially).

Because every kernel is verified byte-identical to the reference
implementation, compressing on the "GPU" and decompressing on the "CPU"
(or vice versa) round-trips exactly -- the paper's portability claim.
"""

from __future__ import annotations

import numpy as np

from ..core.lossless.pipeline import LosslessPipeline
from ..errors import PFPLIntegrityError
from ..core.lossless.negabinary import from_negabinary, to_negabinary
from ..core.lossless.zerobyte import bitmap_sizes, repeat_restore, zero_restore
from .prefix_sum import blelloch_scan
from .warp import warp_bitshuffle, warp_bitunshuffle

__all__ = ["GpuLosslessPipeline", "gpu_delta_decode", "gpu_compact"]


def gpu_delta_decode(words: np.ndarray) -> np.ndarray:
    """Delta decode via block-wide scan (exclusive scan + local add)."""
    diff = from_negabinary(words)
    if diff.size == 0:
        return diff
    with np.errstate(over="ignore"):
        return blelloch_scan(diff) + diff


def gpu_compact(data: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Stream compaction through scan-derived write offsets.

    Mirrors the CUDA kernel: each thread scans its flag, the block-wide
    exclusive scan yields its write offset, and kept elements scatter to
    ``out[offset]``.
    """
    data = np.asarray(data)
    keep = np.asarray(keep, dtype=bool)
    offsets = blelloch_scan(keep.astype(np.int64))
    total = int(offsets[-1] + keep[-1]) if keep.size else 0
    out = np.empty(total, dtype=data.dtype)
    out[offsets[keep]] = data[keep]
    return out


class GpuLosslessPipeline(LosslessPipeline):
    """Drop-in :class:`LosslessPipeline` with GPU-structured kernels.

    Only the per-chunk stage hooks are replaced; the codec control flow
    (stage toggles, variant sharing, telemetry spans) is inherited, so
    the GPU path accounts exactly like the CPU path.
    """

    def _delta_encode(self, words: np.ndarray) -> np.ndarray:
        # Forward delta is embarrassingly parallel on the GPU.
        diff = np.empty_like(words)
        if words.size:
            diff[0] = words[0]
            with np.errstate(over="ignore"):
                np.subtract(words[1:], words[:-1], out=diff[1:])
        return to_negabinary(diff)

    def _bitshuffle(self, words: np.ndarray) -> np.ndarray:
        return warp_bitshuffle(words)

    def _zero_elim(self, data: np.ndarray) -> bytes:
        data = np.ascontiguousarray(data, dtype=np.uint8)
        keep = data != 0
        payload = gpu_compact(data, keep)
        bitmap = np.packbits(keep)
        kept_stack = []
        for _ in range(self.config.bitmap_levels):
            prev = np.empty_like(bitmap)
            if bitmap.size:
                prev[0] = 0
                prev[1:] = bitmap[:-1]
            kmask = bitmap != prev
            kept_stack.append(gpu_compact(bitmap, kmask))
            bitmap = np.packbits(kmask)
        parts = [bitmap.tobytes()]
        for kept in reversed(kept_stack):
            parts.append(kept.tobytes())
        parts.append(payload.tobytes())
        return b"".join(parts)

    def _bitunshuffle(self, stream: np.ndarray, n_words: int) -> np.ndarray:
        return warp_bitunshuffle(stream, n_words, self.word_dtype)

    def _delta_decode(self, words: np.ndarray) -> np.ndarray:
        return gpu_delta_decode(words)

    def _zero_restore(self, blob, n: int) -> np.ndarray:
        if isinstance(blob, np.ndarray):
            buf = np.ascontiguousarray(blob, dtype=np.uint8)
        else:
            buf = np.frombuffer(blob, dtype=np.uint8)
        levels = self.config.bitmap_levels
        sizes = bitmap_sizes(n, levels)
        pos = 0
        bitmap = buf[pos:pos + sizes[levels]]
        pos += sizes[levels]
        for lvl in range(levels, 0, -1):
            target = sizes[lvl - 1]
            # The decoder's read offset for each thread comes from a
            # block-wide scan over the bitmap bits.
            bits = np.unpackbits(np.ascontiguousarray(bitmap), count=target)
            n_kept = int(blelloch_scan(bits.astype(np.int64))[-1] + bits[-1]) if target else 0
            kept = buf[pos:pos + n_kept]
            pos += n_kept
            bitmap = repeat_restore(bitmap, kept, target)
        bits = np.unpackbits(np.ascontiguousarray(bitmap), count=n)
        n_kept = int(blelloch_scan(bits.astype(np.int64))[-1] + bits[-1]) if n else 0
        payload = buf[pos:pos + n_kept]
        pos += n_kept
        if pos != buf.size:
            raise PFPLIntegrityError(f"stage L3 blob has {buf.size - pos} unexpected trailing bytes")
        return zero_restore(bitmap, payload, n)

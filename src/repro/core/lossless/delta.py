"""Stage L1: delta modulation with negabinary residuals.

Each word is replaced by its wrapping difference from the previous word
(the first word is kept as-is), then the residuals are recoded into
negabinary so small residuals of either sign have leading '0' bits
(Figure 3).  Because quantized bin numbers of smooth scientific data are
close to each other, residuals cluster tightly around zero.

The forward direction is embarrassingly parallel (each output depends on
two inputs); the inverse is a prefix sum, which is what makes GPU
decompression slightly slower than compression in the paper (Section
V-C).  The device backends route the inverse through their prefix-sum
primitives; this module provides the reference semantics.
"""

from __future__ import annotations

import numpy as np

from .negabinary import from_negabinary, negabinary_mask, to_negabinary

__all__ = ["delta_encode", "delta_decode", "delta_encode_batch", "delta_decode_batch"]


def delta_encode(words: np.ndarray) -> np.ndarray:
    """words -> negabinary(first-difference sequence)."""
    words = np.asarray(words)
    if words.dtype not in (np.dtype(np.uint32), np.dtype(np.uint64)):
        raise TypeError(f"delta stage expects uint32/uint64 words, got {words.dtype}")
    diff = np.empty_like(words)
    if words.size:
        diff[0] = words[0]
        with np.errstate(over="ignore"):
            np.subtract(words[1:], words[:-1], out=diff[1:])
    return to_negabinary(diff)


def delta_decode(words: np.ndarray) -> np.ndarray:
    """Inverse of :func:`delta_encode` (wrapping prefix sum)."""
    words = np.asarray(words)
    diff = from_negabinary(words)
    with np.errstate(over="ignore"):
        return np.cumsum(diff, dtype=words.dtype)


def delta_encode_batch(words: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise :func:`delta_encode` over a ``(n_chunks, n_words)`` matrix.

    Each row's difference chain starts at its own first word, so the
    output rows are bit-identical to encoding each chunk separately.
    ``out`` (same shape/dtype, not aliasing ``words``) receives the
    result in place -- the batch pipeline passes a reused scratch block
    so the stage is allocation-free.
    """
    words = np.asarray(words)
    if words.dtype not in (np.dtype(np.uint32), np.dtype(np.uint64)):
        raise TypeError(f"delta stage expects uint32/uint64 words, got {words.dtype}")
    if out is None:
        diff = np.empty_like(words)
    else:
        if out.shape != words.shape or out.dtype != words.dtype:
            raise TypeError(
                f"delta out buffer is {out.dtype}{out.shape}, "
                f"expected {words.dtype}{words.shape}"
            )
        diff = out
    if words.size:
        diff[:, 0] = words[:, 0]
        mask = negabinary_mask(words.dtype)
        with np.errstate(over="ignore"):
            np.subtract(words[:, 1:], words[:, :-1], out=diff[:, 1:])
            # to_negabinary, fused in place: (x + M) ^ M
            np.add(diff, mask, out=diff)
            np.bitwise_xor(diff, mask, out=diff)
    return diff


def delta_decode_batch(words: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise :func:`delta_decode` (wrapping prefix sum per chunk).

    ``out`` (same shape/dtype) receives the result; it may be ``words``
    itself, which decodes in place -- the batch pipeline passes the
    freshly unshuffled word block, so the stage allocates nothing.
    """
    words = np.asarray(words)
    if words.dtype not in (np.dtype(np.uint32), np.dtype(np.uint64)):
        raise TypeError(f"delta stage expects uint32/uint64 words, got {words.dtype}")
    if out is None:
        out = np.empty_like(words)
    elif out.shape != words.shape or out.dtype != words.dtype:
        raise TypeError(
            f"delta out buffer is {out.dtype}{out.shape}, "
            f"expected {words.dtype}{words.shape}"
        )
    mask = negabinary_mask(words.dtype)
    with np.errstate(over="ignore"):
        # from_negabinary, fused in place: (n ^ M) - M, then the scan.
        np.bitwise_xor(words, mask, out=out)
        np.subtract(out, mask, out=out)
        np.cumsum(out, axis=1, dtype=out.dtype, out=out)
    return out

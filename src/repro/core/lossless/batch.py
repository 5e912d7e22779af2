"""Chunk-major ragged compaction for batched stage L3 (zero-byte elim).

The per-chunk formulation of :mod:`repro.core.lossless.zerobyte` runs a
dozen small NumPy calls per 16 kB chunk; on a multi-megabyte input the
Python dispatch of those calls, not the byte work, dominates encode time
(DESIGN.md section 6).  This module applies the *same* transformation
to all full-size chunks at once: every bitmap build, repeat-elimination
level and zero-byte split operates on one ``(n_chunks, bytes_per_chunk)``
matrix, and the only per-chunk work left is slicing each chunk's ragged
segments out of the compacted row-major arrays.

Raggedness is handled with the codec's own prefix-sum idiom
(:func:`row_offsets` mirrors ``Backend.prefix_sum``) on the encode side,
and every row's kept count is the popcount of the packed bitmap level
that keeps it.  The same popcounts give each row's blob length without
compacting anything (:func:`compressed_sizes_batch`), which is what lets
format v3 size every candidate pipeline and compact only the winner.
The decoder's cost follows the bytes present: it takes the same
popcounts, slices each row's segment out of the stream (bounds-checked
against the size table first), and restores each repeat-elimination
level by run length (:func:`repeat_restore_batch`) -- no index array as
long as the payload is ever built.

Every function is bit-identical to mapping its per-chunk counterpart
over the rows (golden-tested), which is what lets the batched kernel
keep the stream format and the paper's CPU/GPU compatibility story
unchanged.
"""

from __future__ import annotations

import numpy as np

from ...errors import PFPLIntegrityError
from ..scratch import scratch
from .zerobyte import DEFAULT_LEVELS, bitmap_sizes

__all__ = [
    "row_offsets",
    "zero_eliminate_batch",
    "repeat_eliminate_batch",
    "repeat_restore_batch",
    "compress_bytes_batch",
    "compressed_sizes_batch",
    "decompress_bytes_batch",
]


def row_offsets(counts: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum of per-row counts: each row's start offset.

    The same scan the backends use to place chunk blobs, reused here to
    locate every row's segment inside a row-major compacted array.
    """
    counts = np.asarray(counts, dtype=np.int64)
    offsets = np.zeros(counts.size, dtype=np.int64)
    if counts.size > 1:
        np.cumsum(counts[:-1], out=offsets[1:])
    return offsets


def _row_popcounts(bitmap: np.ndarray) -> np.ndarray:
    """Set bits of each packed bitmap row, padding bits included (int64).

    Rows whose width is a whole number of 64-bit words are counted eight
    bytes at a time.
    """
    if bitmap.shape[1] % 8 == 0 and bitmap.flags.c_contiguous:
        bitmap = bitmap.view(np.uint64)
    return np.bitwise_count(bitmap).sum(axis=1, dtype=np.int64)


def _repeat_mask(data: np.ndarray) -> np.ndarray:
    """Row-wise "differs from its predecessor" mask, each row seeded 0x00.

    Returns a scratch-backed ``(n_chunks, n)`` bool view, so rows never
    see their neighbours.
    """
    keep = scratch("zerobyte.keep", data.shape, np.bool_)
    if data.size:
        np.not_equal(data[:, 0], 0, out=keep[:, 0])
        np.not_equal(data[:, 1:], data[:, :-1], out=keep[:, 1:])
    return keep


def zero_eliminate_batch(data: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise :func:`~repro.core.lossless.zerobyte.zero_eliminate`.

    ``data`` is ``(n_chunks, n)`` uint8; returns ``(bitmap_rows,
    kept_flat, kept_counts)`` where ``kept_flat`` concatenates every
    row's non-zero bytes in row order.  Each count is the popcount of
    the row's packed bitmap (``packbits`` zero-fills the padding bits).
    """
    data = np.ascontiguousarray(data, dtype=np.uint8)
    keep = scratch("zerobyte.keep", data.shape, np.bool_)
    np.not_equal(data, 0, out=keep)
    bitmap = np.packbits(keep, axis=1)
    return bitmap, data[keep], _row_popcounts(bitmap)


def repeat_eliminate_batch(data: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise :func:`~repro.core.lossless.zerobyte.repeat_eliminate`.

    Each row's predecessor chain is seeded with 0x00 exactly like the
    per-chunk version, so rows never see their neighbours.
    """
    data = np.ascontiguousarray(data, dtype=np.uint8)
    keep = _repeat_mask(data)
    bitmap = np.packbits(keep, axis=1)
    return bitmap, data[keep], _row_popcounts(bitmap)


def repeat_restore_batch(
    keep: np.ndarray, kept_flat: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Row-wise :func:`~repro.core.lossless.zerobyte.repeat_restore`.

    ``keep`` is the ``(n_chunks, n)`` boolean keep mask (already
    unpacked), ``kept_flat``/``counts`` the compacted kept bytes.  Each
    row is a sequence of runs: one opens at every kept byte and lasts up
    to the next, and a row whose first bit is clear opens with a run of
    its 0x00 seed.  Restoring the level is one ``np.repeat`` of the run
    values by their lengths over the whole matrix.
    """
    keep = np.asarray(keep, dtype=np.bool_)
    rows, n = keep.shape
    counts = np.asarray(counts, dtype=np.int64)
    kept_flat = np.ascontiguousarray(kept_flat, dtype=np.uint8)
    # Run list, row-major: every row's kept bytes, plus a 0x00 seed run
    # slotted in ahead of the first kept byte of each row that opens
    # without one (run index = kept index + seeds before it).
    seeded = np.flatnonzero(~keep[:, 0])
    n_runs = kept_flat.size + seeded.size
    is_kept = np.ones(n_runs, dtype=np.bool_)
    is_kept[row_offsets(counts)[seeded] + np.arange(seeded.size, dtype=np.int64)] = False
    values = np.zeros(n_runs, dtype=np.uint8)
    values[is_kept] = kept_flat
    heads = np.empty(n_runs + 1, dtype=np.int64)
    heads[:-1][is_kept] = np.flatnonzero(keep)
    heads[:-1][~is_kept] = seeded * n
    heads[-1] = rows * n
    return np.repeat(values, heads[1:] - heads[:-1]).reshape(rows, n)


def compress_bytes_batch(data: np.ndarray, levels: int = DEFAULT_LEVELS) -> list[bytes]:
    """Batched :func:`~repro.core.lossless.zerobyte.compress_bytes`.

    ``data`` is ``(n_chunks, n)`` uint8 -- one row per equal-size chunk.
    Returns each chunk's serialized stage-L3 blob, bit-identical to the
    per-chunk encoder.  All byte-level work (bitmaps, repeat levels,
    compaction) runs matrix-at-once; only the final blob slicing is per
    chunk.
    """
    data = np.ascontiguousarray(data, dtype=np.uint8)
    n_chunks = data.shape[0]
    bitmap, payload, payload_counts = zero_eliminate_batch(data)
    kept_stack: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for _ in range(levels):
        bitmap, kept, counts = repeat_eliminate_batch(bitmap)
        kept_stack.append((kept, counts, row_offsets(counts)))
    payload_offsets = row_offsets(payload_counts)
    segments = [(bitmap, None, None)]
    segments.extend(reversed(kept_stack))
    segments.append((payload, payload_counts, payload_offsets))
    blobs = []
    for i in range(n_chunks):
        parts = []
        for flat, counts, offsets in segments:
            if counts is None:
                parts.append(flat[i].tobytes())
            else:
                lo = int(offsets[i])
                parts.append(flat[lo:lo + int(counts[i])].tobytes())
        blobs.append(b"".join(parts))
    return blobs


def compressed_sizes_batch(data: np.ndarray, levels: int = DEFAULT_LEVELS) -> np.ndarray:
    """Each row's exact :func:`compress_bytes_batch` blob length, as int64.

    Nothing is compacted and no blob is assembled.  A blob is the top
    bitmap, then each repeat level's kept bytes, then the non-zero data
    bytes; every one of those counts is the popcount of the packed
    bitmap level that keeps them, so sizing costs the bitmap builds
    alone.
    """
    data = np.ascontiguousarray(data, dtype=np.uint8)
    keep = scratch("zerobyte.keep", data.shape, np.bool_)
    np.not_equal(data, 0, out=keep)
    bitmap = np.packbits(keep, axis=1)
    sizes = _row_popcounts(bitmap)
    for _ in range(levels):
        bitmap = np.packbits(_repeat_mask(bitmap), axis=1)
        sizes += _row_popcounts(bitmap)
    sizes += bitmap.shape[1]
    return sizes


def _popcounts(bitmap: np.ndarray, n_bits: int) -> np.ndarray:
    """Set bits among the first ``n_bits`` bits of each packed bitmap row.

    Clears each row's padding bits (in place) first: the restore reads
    exactly ``n_bits`` bits (``unpackbits(count=)``), so a stray padding
    bit in a hostile stream must not count either.
    """
    rem = n_bits % 8
    if rem:
        bitmap[:, -1] &= np.uint8(0xFF00 >> rem & 0xFF)
    return _row_popcounts(bitmap)


def _advance(
    pos: np.ndarray, counts: np.ndarray | int, starts: np.ndarray, ends: np.ndarray,
    what: str,
) -> np.ndarray:
    """Move every row's cursor past its next ``counts`` bytes.

    One vectorised check that each row's segment ends inside its own
    size-table extent, made before any segment is sliced (a slice would
    silently stop at the end of the stream, or read the next chunk).
    """
    nxt = pos + counts
    over = nxt > ends
    if over.any():
        i = int(np.argmax(over))
        raise PFPLIntegrityError(
            f"stage L3 {what} of batched chunk {i} (blob at payload offset "
            f"{int(starts[i])}) runs {int(nxt[i] - ends[i])} bytes past its "
            f"size-table extent"
        )
    return nxt


def _segments(stream: np.ndarray, pos: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``stream[pos[i]:pos[i] + counts[i]]`` over the rows."""
    return np.concatenate(
        [stream[p:p + c] for p, c in zip(pos.tolist(), counts.tolist())]
    )


def decompress_bytes_batch(
    stream: np.ndarray,
    starts: np.ndarray,
    sizes: np.ndarray,
    n: int,
    levels: int = DEFAULT_LEVELS,
) -> np.ndarray:
    """Batched :func:`~repro.core.lossless.zerobyte.decompress_bytes`.

    ``stream`` is the whole payload as uint8; ``starts``/``sizes`` locate
    each chunk's blob (all chunks decode to the same ``n`` bytes, i.e.
    full-size non-raw chunks).  Returns a fresh ``(n_chunks, n)`` restored
    byte matrix.  Corrupt blobs -- a segment running past its chunk's
    size-table extent, or a byte count that disagrees with the size
    table -- raise :class:`~repro.errors.PFPLIntegrityError` before any
    segment is read, matching the per-chunk decoder's guarantees.
    """
    starts = np.asarray(starts, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    rows = starts.size
    if not rows:
        return np.zeros((0, n), dtype=np.uint8)
    ends = starts + sizes
    if int(starts.min()) < 0 or int(ends.max()) > stream.size:
        i = int(np.argmax((starts < 0) | (ends > stream.size)))
        raise PFPLIntegrityError(
            f"stage L3 blob of batched chunk {i} lies outside the "
            f"{stream.size}-byte payload"
        )
    level_sizes = bitmap_sizes(n, levels)
    top = level_sizes[levels]
    pos = _advance(starts, top, starts, ends, "top bitmap")
    bitmap = stream[starts[:, None] + np.arange(top, dtype=np.int64)]
    for lvl in range(levels, 0, -1):
        target = level_sizes[lvl - 1]
        counts = _popcounts(bitmap, target)
        nxt = _advance(pos, counts, starts, ends, f"level-{lvl - 1} bitmap")
        kept = _segments(stream, pos, counts)
        pos = nxt
        keep = np.unpackbits(bitmap, axis=1, count=target).view(np.bool_)
        bitmap = repeat_restore_batch(keep, kept, counts)
    counts = _popcounts(bitmap, n)
    nxt = _advance(pos, counts, starts, ends, "payload")
    if not np.array_equal(nxt, ends):
        bad = int(np.argmax(nxt != ends))
        raise PFPLIntegrityError(
            f"stage L3 blob of batched chunk {bad} spans "
            f"{int(nxt[bad] - starts[bad])} bytes, size table claims "
            f"{int(sizes[bad])}"
        )
    payload = _segments(stream, pos, counts)
    out = np.zeros((rows, n), dtype=np.uint8)
    out[np.unpackbits(bitmap, axis=1, count=n).view(np.bool_)] = payload
    return out

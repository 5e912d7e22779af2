"""Shared plumbing for the PFPL lossy quantizers.

A quantizer maps an array of float32/float64 values to an equally sized
array of machine words (``uint32``/``uint64``).  Each word is *either* an
encoded bin number *or* the unmodified IEEE-754 bits of the original
value (the lossless fallback that guarantees the error bound, Section
III-B of the paper).  The inverse maps words back to floats.

Quantizers are pure value transformations: they never change the number
of elements, which is what makes them embarrassingly parallel and lets
the lossless pipeline treat their output as an opaque word stream.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ...errors import PFPLUsageError
from ..floatbits import FloatLayout, layout_for

__all__ = ["Quantizer", "QuantizerStats", "as_float_array"]


def as_float_array(data: np.ndarray) -> np.ndarray:
    """Validate and return a contiguous 1-D float32/float64 view of ``data``."""
    arr = np.asarray(data)
    if arr.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise TypeError(
            f"PFPL operates on float32/float64 data, got dtype {arr.dtype}"
        )
    return np.ascontiguousarray(arr).reshape(-1)


@dataclass
class QuantizerStats:
    """Bookkeeping the encoder can optionally report.

    Attributes
    ----------
    total:
        Number of values processed.
    lossless:
        Number of values stored verbatim because quantization would have
        violated the error bound (or the bin did not fit its range).
    """

    total: int = 0
    lossless: int = 0

    @property
    def lossless_fraction(self) -> float:
        return self.lossless / self.total if self.total else 0.0


class Quantizer(ABC):
    """Base class for the ABS / REL / NOA quantizers.

    The codec-facing surface is *chunk-local*: :meth:`encode_into` and
    :meth:`decode_into` transform one chunk's values in isolation and are
    safe to call concurrently from backend workers (they never touch the
    shared :attr:`stats`).  Anything global a mode needs -- NOA's value
    range -- is resolved by the explicit :meth:`prepare` pre-pass and
    carried in the stream header, so per-chunk results are bit-identical
    to whole-array quantization.

    Parameters
    ----------
    error_bound:
        The user-supplied point-wise error bound ``eps`` (> 0).
    dtype:
        ``np.float32`` or ``np.float64`` -- the data precision.  ABS and
        NOA quantize in this precision (their bound check runs wider),
        so the encoder mirrors what a fixed-precision device
        implementation computes.  REL evaluates its log/exp in float64
        and its bound check in long double for both dtypes; the stored
        bins depend on that arithmetic, so the format pins it.
    """

    #: short identifier stored in the file header ("abs", "rel", "noa")
    mode: str = ""

    def __init__(self, error_bound: float, dtype=np.float32):
        if not (error_bound > 0) or not np.isfinite(error_bound):
            raise PFPLUsageError(f"error bound must be positive and finite, got {error_bound}")
        self.layout: FloatLayout = layout_for(dtype)
        self.error_bound = float(error_bound)
        self.stats = QuantizerStats()

    # -- interface ---------------------------------------------------------

    @abstractmethod
    def _encode_words_into(self, v: np.ndarray, out: np.ndarray) -> int:
        """Pure quantization of already-validated contiguous values of the
        layout's float dtype into the flat word buffer ``out``; returns
        the lossless count.  Must not mutate any shared state -- this is
        what backend workers run in parallel.
        """

    @abstractmethod
    def _decode_words_into(self, w: np.ndarray, out: np.ndarray) -> None:
        """Pure inverse of :meth:`_encode_words_into`: flat words into the
        flat float buffer ``out`` (no shared state)."""

    def prepare(self, values: np.ndarray) -> dict:
        """Global pre-pass run once before any chunk is quantized.

        ABS and REL are value-local, so the default is a no-op.  NOA
        overrides this to reduce min/max over the whole input and bind
        the effective bound; whatever it returns is merged into
        :meth:`header_params` so the decoder never re-derives it.
        """
        return {}

    def header_params(self) -> dict:
        """Extra parameters the decoder needs (stored in the file header)."""
        return {}

    # -- whole-array API (stats-recording convenience) ---------------------

    def encode(self, values: np.ndarray) -> np.ndarray:
        """Map float values to quantized words (same element count)."""
        v = as_float_array(values).astype(self.layout.float_dtype, copy=False)
        words, n_lossless = self._encode_words(v)
        self._record(v.size, n_lossless)
        return words

    def decode(self, words: np.ndarray) -> np.ndarray:
        """Map quantized words back to float values."""
        w = np.ascontiguousarray(words, dtype=self.layout.uint_dtype)
        return self._decode_words(w)

    # -- chunk-local API (what the fused ChunkKernel calls) -----------------

    def encode_into(self, values: np.ndarray, out: np.ndarray) -> int:
        """Quantize one chunk's values into a preallocated word slice.

        Writes ``values.size`` words into ``out`` and returns the number
        of values that took the lossless path.  Does not touch
        :attr:`stats`; callers aggregate the returned counts, which keeps
        this safe under concurrent backend workers.
        """
        v = as_float_array(values).astype(self.layout.float_dtype, copy=False)
        if out.shape != (v.size,):
            raise PFPLUsageError(
                f"output slice holds {out.shape} words, expected ({v.size},)"
            )
        return self._encode_flat(v, out)

    def decode_into(self, words: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Decode one chunk's words directly into its output slice."""
        w = np.ascontiguousarray(words, dtype=self.layout.uint_dtype)
        if out.shape != (w.size,):
            raise PFPLUsageError(
                f"output slice holds {out.shape} values, expected ({w.size},)"
            )
        self._decode_flat(w, out)
        return out

    # -- chunk-major batch API (what ChunkKernel.encode_batch calls) --------

    def encode_batch_into(self, values: np.ndarray, out: np.ndarray) -> int:
        """Quantize a ``(n_chunks, n)`` chunk-major block into ``out``.

        Quantizers are elementwise (any global state is pre-resolved by
        :meth:`prepare`), so one flattened :meth:`_encode_words_into`
        call over the whole block produces exactly the words the per-chunk
        :meth:`encode_into` would, row by row.  Returns the total
        lossless count; :attr:`stats` is untouched, as in the chunk-local
        API.
        """
        v = np.asarray(values)
        if v.dtype != self.layout.float_dtype:
            raise TypeError(
                f"batch expects {self.layout.float_dtype} values, got {v.dtype}"
            )
        v = np.ascontiguousarray(v)
        if out.shape != v.shape:
            raise PFPLUsageError(
                f"output block is {out.shape}, expected {v.shape}"
            )
        return self._encode_flat(v.reshape(-1), out)

    def decode_batch_into(self, words: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Decode a ``(n_chunks, n)`` word block directly into ``out``.

        Elementwise like the encoder, so one flat :meth:`_decode_flat`
        over the block equals decoding it row by row.
        """
        w = np.ascontiguousarray(words, dtype=self.layout.uint_dtype)
        if out.shape != w.shape:
            raise PFPLUsageError(
                f"output block is {out.shape}, expected {w.shape}"
            )
        self._decode_flat(w.reshape(-1), out)
        return out

    def _encode_words(self, v: np.ndarray) -> tuple[np.ndarray, int]:
        """:meth:`_encode_words_into` a fresh array: (words, n_lossless)."""
        out = np.empty(v.size, dtype=self.layout.uint_dtype)
        return out, self._encode_words_into(v, out)

    def _decode_words(self, w: np.ndarray) -> np.ndarray:
        """:meth:`_decode_words_into` a fresh array."""
        out = np.empty(w.size, dtype=self.layout.float_dtype)
        self._decode_words_into(w, out)
        return out

    def _encode_flat(self, v: np.ndarray, out: np.ndarray) -> int:
        """The mirror of :meth:`_decode_flat`: quantize flat ``v`` into
        ``out`` in place when it is a contiguous, non-overlapping word
        buffer, else via a copy; returns the lossless count."""
        if (out.flags.c_contiguous and out.dtype == self.layout.uint_dtype
                and not np.may_share_memory(v, out)):
            return self._encode_words_into(v, out.reshape(-1))
        words, n_lossless = self._encode_words(v)
        out[...] = words.reshape(out.shape)
        return n_lossless

    def _decode_flat(self, w: np.ndarray, out: np.ndarray) -> None:
        """Decode flat words ``w`` into ``out`` (any layout, same size).

        A contiguous ``out`` of the data dtype that does not overlap the
        words is written in place by :meth:`_decode_words_into`; any
        other buffer (a strided view, a different dtype) receives a
        copy of :meth:`_decode_words`.
        """
        if (out.flags.c_contiguous and out.dtype == self.layout.float_dtype
                and not np.may_share_memory(w, out)):
            self._decode_words_into(w, out.reshape(-1))
        else:
            out[...] = self._decode_words(w).reshape(out.shape)

    # -- helpers -----------------------------------------------------------

    def _record(self, total: int, lossless: int) -> None:
        self.stats.total += int(total)
        self.stats.lossless += int(lossless)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(error_bound={self.error_bound!r}, "
            f"dtype={self.layout.float_dtype})"
        )

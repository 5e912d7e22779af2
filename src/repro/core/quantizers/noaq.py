"""Normalized-absolute-error (NOA) quantizer.

NOA is a special case of ABS (Section III-A): the effective absolute
bound is ``eps * (max - min)`` where max/min come from a parallel
reduction over the input.  The resulting range is recorded in the
compressed header so decompression is embarrassingly parallel -- the
decoder never has to re-derive it.

NaNs are ignored by the reduction (the SDRBench inputs contain none);
an all-NaN or constant input degenerates to the smallest usable ABS
bound, which simply stores everything losslessly or as bin 0.
"""

from __future__ import annotations

import numpy as np

from .absq import AbsQuantizer
from .base import Quantizer, as_float_array

__all__ = ["NoaQuantizer"]


class NoaQuantizer(Quantizer):
    """NOA quantizer: ``|v - v'| <= eps * (max - min)``, guaranteed."""

    mode = "noa"

    def __init__(self, error_bound: float, dtype=np.float32, value_range: float | None = None):
        super().__init__(error_bound, dtype)
        self._abs: AbsQuantizer | None = None
        if value_range is not None:
            self._bind_range(value_range)

    @property
    def value_range(self) -> float | None:
        """max - min of the data, once known (after encode or from header)."""
        return self._range if self._abs is not None else None

    @property
    def effective_abs_bound(self) -> float | None:
        return self._abs.error_bound if self._abs is not None else None

    def _bind_range(self, value_range: float) -> None:
        # A non-finite range (overflowed reduction, hostile header) is
        # treated as degenerate: the smallest-normal fallback below
        # stores everything (near-)losslessly, which is bound-safe.
        self._range = float(value_range) if np.isfinite(value_range) else 0.0
        fdt = self.layout.float_dtype.type
        # Effective bound computed in the data precision, then clamped
        # *down* so it never exceeds the exact eps * range the user is
        # entitled to (the cast/product can round up).
        with np.errstate(over="ignore"):  # inf falls through to the fallback
            eff = fdt(self.error_bound) * fdt(self._range)
        exact = np.longdouble(self.error_bound) * np.longdouble(self._range)
        while np.isfinite(eff) and eff > 0 and np.longdouble(eff) > exact:
            eff = np.nextafter(eff, fdt(0.0))
        eff = float(eff)
        if not np.isfinite(eff) or eff < self.layout.smallest_normal:
            # Degenerate (constant/empty/all-NaN) input or underflow: fall
            # back to the smallest usable ABS bound, which is strictly
            # tighter than requested and therefore still bound-safe.
            eff = self.layout.smallest_normal
        self._abs = AbsQuantizer(eff, dtype=self.layout.float_dtype)

    def header_params(self) -> dict:
        if self._abs is None:
            raise RuntimeError("NOA range unknown: encode() not called yet")
        return {"value_range": self._range}

    # -- interface ----------------------------------------------------------

    def prepare(self, values: np.ndarray) -> dict:
        """The NOA global pre-pass: reduce min/max, bind the effective bound.

        This is the *only* global state any PFPL mode needs; it runs once
        before chunking so every per-chunk encode is pure.  The returned
        range is carried in the stream header (Section III-A), keeping
        decompression embarrassingly parallel.
        """
        if self._abs is None:
            v = as_float_array(values).astype(self.layout.float_dtype, copy=False)
            if v.size:
                vmax = float(np.fmax.reduce(v))
                vmin = float(np.fmin.reduce(v))
                # Guard the *difference*, not just the operands: two
                # finite extremes (finfo.max, finfo.min) can still
                # overflow to inf, which would poison the stream header
                # (value_range must validate as finite on decode).
                rng = vmax - vmin
                if not np.isfinite(rng):
                    rng = 0.0
            else:
                rng = 0.0
            self._bind_range(rng)
        return {"value_range": self._range}

    def _encode_words_into(self, v: np.ndarray, out: np.ndarray) -> int:
        if self._abs is None:
            raise RuntimeError(
                "NOA range unknown: call prepare() (or pass value_range=) "
                "before chunk-local encoding"
            )
        return self._abs._encode_words_into(v, out)

    def _decode_words_into(self, words: np.ndarray, out: np.ndarray) -> None:
        self._bound_abs()._decode_words_into(words, out)

    def _bound_abs(self) -> AbsQuantizer:
        if self._abs is None:
            raise RuntimeError(
                "NOA decoder needs the value range; construct with "
                "value_range= from the compressed header"
            )
        return self._abs

    def encode(self, values: np.ndarray) -> np.ndarray:
        self.prepare(values)
        return super().encode(values)

"""Baseline-compressor interface and the Table III feature matrix.

Each baseline is a real, functioning compressor (it round-trips data)
re-implemented from its published pipeline, including the *error-bound
violation modes* the paper documents.  Support levels use Table III's
three states:

* ``GUARANTEED``  -- the check mark: supported and always honored
* ``UNGUARANTEED`` -- the circle: supported but violated on some inputs
* ``UNSUPPORTED`` -- the cross

Every baseline raises :class:`UnsupportedInput` for inputs outside its
envelope (e.g. SPERR/FZ-GPU need 3-D data, FZ-GPU is float-only), which
is how the harness reproduces the paper's per-figure exclusions.
"""

from __future__ import annotations

import functools
import struct
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ..errors import PFPLIntegrityError, PFPLTruncatedError, PFPLUsageError
from ..telemetry import NULL_TELEMETRY

__all__ = [
    "Support",
    "GUARANTEED",
    "UNGUARANTEED",
    "UNSUPPORTED",
    "Features",
    "BaselineCompressor",
    "UnsupportedInput",
    "traced_codec",
    "pack_sections",
    "unpack_sections",
    "unpack_head",
]


class Support:
    """Tri-state feature support (Table III's check / circle / cross)."""

    def __init__(self, label: str):
        self.label = label

    def __repr__(self) -> str:
        return self.label

    def __bool__(self) -> bool:
        return self.label != "unsupported"


GUARANTEED = Support("guaranteed")
UNGUARANTEED = Support("unguaranteed")
UNSUPPORTED = Support("unsupported")


@dataclass(frozen=True)
class Features:
    """One row of Table III."""

    abs: Support
    rel: Support
    noa: Support
    supports_float: bool
    supports_double: bool
    cpu: bool
    gpu: bool

    def mode_support(self, mode: str) -> Support:
        return {"abs": self.abs, "rel": self.rel, "noa": self.noa}[mode]


class UnsupportedInput(Exception):
    """Raised when a baseline cannot handle an input or configuration."""


def traced_codec(direction: str):
    """Trace a baseline's ``compress``/``decompress`` through telemetry.

    Applied to each adapter's codec entry points so the grid harness can
    attribute wall-clock time and byte traffic per compressor cell: the
    call runs inside a ``cat="baseline"`` span labeled with the codec
    name, and ``baseline_bytes_{in,out}_total`` counters record the
    traffic.  With telemetry off the null span and counters are no-ops.
    """
    if direction not in ("compress", "decompress"):
        raise PFPLUsageError(
            f"direction must be 'compress' or 'decompress', got {direction!r}"
        )

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            tel = self.telemetry
            with tel.span(f"baseline_{direction}", cat="baseline", codec=self.name):
                result = fn(self, *args, **kwargs)
            if direction == "compress":
                bytes_in = int(np.asarray(args[0]).nbytes)
                bytes_out = len(result)
            else:
                bytes_in = len(args[0])
                bytes_out = int(result.nbytes)
            tel.add("baseline_bytes_in_total", bytes_in,
                    codec=self.name, direction=direction)
            tel.add("baseline_bytes_out_total", bytes_out,
                    codec=self.name, direction=direction)
            return result

        return wrapper

    return deco


class BaselineCompressor(ABC):
    """Common interface for the 7 baseline re-implementations."""

    name: str = ""
    features: Features
    #: Telemetry sink used by :func:`traced_codec` (null by default).
    telemetry = NULL_TELEMETRY

    def __init__(self, telemetry=None):
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY

    def supports(self, mode: str, dtype) -> bool:
        if not self.features.mode_support(mode):
            return False
        dt = np.dtype(dtype)
        if dt == np.dtype(np.float32):
            return self.features.supports_float
        if dt == np.dtype(np.float64):
            return self.features.supports_double
        return False

    def check_input(self, data: np.ndarray, mode: str) -> None:
        if not self.supports(mode, data.dtype):
            raise UnsupportedInput(
                f"{self.name} does not support mode={mode} dtype={data.dtype}"
            )

    @abstractmethod
    def compress(self, data: np.ndarray, mode: str, error_bound: float) -> bytes:
        """Compress an nd-array; the blob must be self-describing."""

    @abstractmethod
    def decompress(self, blob: bytes) -> np.ndarray:
        """Reconstruct the array (original shape and dtype)."""


# -- tiny self-describing container helpers ----------------------------------

_SEC_HDR = struct.Struct("<I")


def pack_sections(*sections: bytes) -> bytes:
    """Length-prefix and concatenate byte sections."""
    parts = [_SEC_HDR.pack(len(sections))]
    for s in sections:
        parts.append(struct.pack("<Q", len(s)))
        parts.append(s)
    return b"".join(parts)


def unpack_sections(blob: bytes) -> list[bytes]:
    """Inverse of :func:`pack_sections`; rejects trailing garbage."""
    try:
        (count,) = _SEC_HDR.unpack_from(blob)
        pos = _SEC_HDR.size
        out = []
        for _ in range(count):
            (ln,) = struct.unpack_from("<Q", blob, pos)
            pos += 8
            out.append(blob[pos:pos + ln])
            pos += ln
    except struct.error as exc:
        raise PFPLTruncatedError(f"baseline container truncated: {exc}") from exc
    if pos != len(blob):
        raise PFPLIntegrityError(f"container has {len(blob) - pos} trailing bytes")
    return out


def unpack_head(fmt: str, blob: bytes) -> tuple:
    """``struct.unpack_from`` that surfaces short buffers as PFPL errors."""
    try:
        return struct.unpack_from(fmt, blob)
    except struct.error as exc:
        raise PFPLTruncatedError(f"baseline stream head truncated: {exc}") from exc


def pack_array_meta(data: np.ndarray, mode: str, error_bound: float, extra: float = 0.0) -> bytes:
    """Standard per-baseline metadata: shape, dtype, mode, bound."""
    shape = np.asarray(data.shape, dtype=np.int64)
    dt = 0 if data.dtype == np.dtype(np.float32) else 1
    mode_i = {"abs": 0, "rel": 1, "noa": 2}[mode]
    return struct.pack(
        "<BBHdd", dt, mode_i, shape.size, float(error_bound), float(extra)
    ) + shape.tobytes()


def unpack_array_meta(blob: bytes):
    """Inverse of :func:`pack_array_meta`: (dtype, mode, shape, eb, extra)."""
    try:
        dt, mode_i, ndim, eb, extra = struct.unpack_from("<BBHdd", blob)
    except struct.error as exc:
        raise PFPLTruncatedError(f"baseline metadata truncated: {exc}") from exc
    shape = np.frombuffer(blob, dtype=np.int64, count=ndim, offset=struct.calcsize("<BBHdd"))
    dtype = np.dtype(np.float32) if dt == 0 else np.dtype(np.float64)
    mode = ("abs", "rel", "noa")[mode_i]
    return dtype, mode, tuple(int(s) for s in shape), eb, extra

"""Multi-array archive: a compressed container for whole datasets.

SDRBench suites are *sets* of named fields; simulations checkpoint many
variables at once.  :class:`PFPLArchive` packs any number of named
arrays -- each with its own error-bound mode/parameters and its original
shape -- into one self-describing blob, with per-member random access
(members are independent PFPL streams located through a directory).

Format::

    magic  b"PFPLARCH" | version u16 | member count u32
    directory: per member
        name length u16, utf-8 name
        ndim u16, dims i64[ndim]
        payload offset u64, payload length u64
    concatenated member PFPL streams

Example::

    arch = PFPLArchive()
    arch.add("temperature", temp, mode="abs", error_bound=1e-3)
    arch.add("pressure", pres, mode="rel", error_bound=1e-4)
    blob = arch.pack()
    ...
    arch2 = PFPLArchive.unpack(blob)
    temp2 = arch2.get("temperature")
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .core.compressor import PFPLCompressor
from .core.random_access import StreamDecoder
from .errors import PFPLFormatError, PFPLTruncatedError, PFPLUsageError

__all__ = ["PFPLArchive", "ArchiveMember"]

_MAGIC = b"PFPLARCH"
_VERSION = 1
_HEAD = struct.Struct("<8sHI")

#: Directory parse sanity cap: no real dataset has members of more
#: dimensions than this, and it bounds the per-member directory read.
_MAX_NDIM = 255


@dataclass(frozen=True)
class ArchiveMember:
    """Directory entry for one stored array."""

    name: str
    shape: tuple[int, ...]
    offset: int
    length: int


class PFPLArchive:
    """Build or read a multi-member PFPL archive."""

    def __init__(self):
        self._streams: dict[str, bytes] = {}
        self._shapes: dict[str, tuple[int, ...]] = {}

    # -- building --------------------------------------------------------------

    def add(
        self,
        name: str,
        data: np.ndarray,
        mode: str = "abs",
        error_bound: float = 1e-3,
        backend=None,
        telemetry=None,
    ) -> "PFPLArchive":
        """Compress and stage one named array (chainable)."""
        if name in self._streams:
            raise PFPLUsageError(f"duplicate member name {name!r}")
        if len(name.encode()) > 0xFFFF:
            raise PFPLUsageError("member name too long")
        arr = np.asarray(data)
        comp = PFPLCompressor(
            mode=mode, error_bound=error_bound, dtype=arr.dtype, backend=backend,
            telemetry=telemetry,
        )
        self._streams[name] = comp.compress(arr).data
        self._shapes[name] = arr.shape
        return self

    def add_stream(self, name: str, stream: bytes, shape: tuple[int, ...]) -> None:
        """Stage an already-compressed PFPL stream."""
        if name in self._streams:
            raise PFPLUsageError(f"duplicate member name {name!r}")
        self._streams[name] = bytes(stream)
        self._shapes[name] = tuple(shape)

    def pack(self) -> bytes:
        """Serialize the archive."""
        directory = bytearray()
        payloads = []
        offset = 0
        for name, stream in self._streams.items():
            nb = name.encode()
            shape = self._shapes[name]
            directory += struct.pack("<H", len(nb)) + nb
            directory += struct.pack("<H", len(shape))
            directory += np.asarray(shape, dtype="<i8").tobytes()
            directory += struct.pack("<QQ", offset, len(stream))
            payloads.append(stream)
            offset += len(stream)
        head = _HEAD.pack(_MAGIC, _VERSION, len(self._streams))
        return head + bytes(directory) + b"".join(payloads)

    # -- reading ---------------------------------------------------------------

    @classmethod
    def unpack(cls, blob: bytes) -> "PFPLArchiveReader":
        return PFPLArchiveReader(blob)

    @property
    def names(self) -> list[str]:
        return list(self._streams)


class PFPLArchiveReader:
    """Lazy reader: members decompress on demand.

    Pass ``telemetry`` to record per-member chunk fetch/decode spans
    through every decoder handed out by :meth:`open` / :meth:`get`.
    """

    def __init__(self, blob: bytes, backend=None, telemetry=None):
        self._blob = blob
        self._backend = backend
        self._telemetry = telemetry
        if len(blob) < _HEAD.size:
            raise PFPLTruncatedError(
                f"buffer too short for a PFPL archive ({len(blob)} < {_HEAD.size})"
            )
        # Length is pre-checked just above, so unpack_from cannot fail.
        magic, version, count = _HEAD.unpack_from(blob)  # pfpl: allow[error-discipline]
        if magic != _MAGIC:
            raise PFPLFormatError(f"not a PFPL archive (magic {magic!r})")
        if version != _VERSION:
            raise PFPLFormatError(f"unsupported archive version {version}")
        pos = _HEAD.size
        members: dict[str, ArchiveMember] = {}
        # The directory is parsed from untrusted bytes: every field is
        # bounds-checked against the blob before it is dereferenced, so a
        # corrupt count/length can never index past the buffer or drive a
        # huge allocation.
        for i in range(count):
            try:
                (nlen,) = struct.unpack_from("<H", blob, pos)
                pos += 2
                raw_name = blob[pos:pos + nlen]
                if len(raw_name) != nlen:
                    raise PFPLTruncatedError(
                        f"archive directory truncated in member {i} name"
                    )
                name = raw_name.decode()
                pos += nlen
                (ndim,) = struct.unpack_from("<H", blob, pos)
                pos += 2
                if ndim > _MAX_NDIM:
                    raise PFPLFormatError(
                        f"corrupt archive directory: member {name!r} claims "
                        f"{ndim} dimensions"
                    )
                if pos + 8 * ndim + 16 > len(blob):
                    raise PFPLTruncatedError(
                        f"archive directory truncated in member {name!r}"
                    )
                shape = tuple(
                    int(x) for x in np.frombuffer(blob, "<i8", ndim, pos)
                )
                pos += 8 * ndim
                offset, length = struct.unpack_from("<QQ", blob, pos)
                pos += 16
            except struct.error as exc:
                raise PFPLTruncatedError(
                    f"archive directory truncated in member {i}: {exc}"
                ) from exc
            except UnicodeDecodeError as exc:
                raise PFPLFormatError(
                    f"corrupt archive directory: member {i} name is not UTF-8"
                ) from exc
            if any(d < 0 for d in shape):
                raise PFPLFormatError(
                    f"corrupt archive directory: member {name!r} has a "
                    f"negative dimension in shape {shape}"
                )
            if name in members:
                raise PFPLFormatError(
                    f"corrupt archive directory: duplicate member {name!r}"
                )
            members[name] = ArchiveMember(name, shape, offset, length)
        self._payload_base = pos
        for m in members.values():
            if self._payload_base + m.offset + m.length > len(blob):
                raise PFPLTruncatedError(
                    f"archive member {m.name!r} extends past the end of the blob"
                )
        self.members = members

    @property
    def names(self) -> list[str]:
        return list(self.members)

    def member_stream(self, name: str) -> bytes:
        m = self.members[name]
        lo = self._payload_base + m.offset
        return self._blob[lo:lo + m.length]

    def member_view(self, name: str) -> memoryview:
        """Zero-copy view of one member's PFPL stream."""
        m = self.members[name]
        lo = self._payload_base + m.offset
        return memoryview(self._blob)[lo:lo + m.length]

    def open(self, name: str) -> StreamDecoder:
        """Chunk-granular decoder over one member (no copies, no full decode)."""
        return StreamDecoder(
            self.member_view(name), backend=self._backend,
            telemetry=self._telemetry,
        )

    def get(self, name: str) -> np.ndarray:
        """Decompress one member to its original shape.

        Runs the fused per-chunk kernels straight into one preallocated
        flat array -- the member's stream bytes are only ever *viewed*,
        never copied.
        """
        m = self.members[name]
        flat = self.open(name).decode_all()
        return flat.reshape(m.shape)

    def iter_chunks(self, name: str):
        """Stream one member's values chunk by chunk, one window resident."""
        return self.open(name).iter_chunks()

    def __contains__(self, name: str) -> bool:
        return name in self.members

    def __len__(self) -> int:
        return len(self.members)

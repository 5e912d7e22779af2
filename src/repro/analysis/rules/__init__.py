"""The ten codec-discipline rules.

Importing this package registers every rule with the engine registry;
each module holds one rule class plus its helpers.

=====================  ==================================================
rule                   discipline it enforces
=====================  ==================================================
portable-math          ``core/`` transcendentals go through
                       :mod:`repro.core.portable_math` only
dtype-discipline       kernel-path NumPy constructors/accumulators are
                       dtype-explicit (no silent promotion)
determinism            nothing nondeterministic feeds output bytes in
                       kernel / lossless / quantizer paths
error-discipline       failures raise the :mod:`repro.errors` hierarchy,
                       ``struct.unpack`` is always caught
telemetry-discipline   one instrumentation path: no ``*_traced`` copy
                       or ``.enabled`` if/else twin of a codec call
docstring-discipline   modules and public top-level defs carry
                       docstrings (warning; gates under ``--strict``)
buffer-escape          shared-arena views (scratch buffers,
                       shared_memory ``.buf``) never outlive their scope
                       or cross a submit/pickle boundary (dataflow)
async-blocking         no blocking primitive reachable from an
                       ``async def`` via the call graph (dataflow)
lock-order             no lock-acquisition-order cycles; no sync lock
                       held across an await (dataflow)
resource-lifecycle     SharedMemory/executors/files released along all
                       exits (with/finally/ownership transfer)
=====================  ==================================================
"""

from __future__ import annotations

from .async_blocking import AsyncBlockingRule
from .buffer_escape import BufferEscapeRule
from .determinism import DeterminismRule
from .docstring_discipline import DocstringDisciplineRule
from .dtype_discipline import DtypeDisciplineRule
from .error_discipline import ErrorDisciplineRule
from .lock_order import LockOrderRule, static_lock_graph
from .portable_math import PortableMathRule
from .resource_lifecycle import ResourceLifecycleRule
from .telemetry_discipline import TelemetryDisciplineRule

__all__ = [
    "PortableMathRule",
    "DtypeDisciplineRule",
    "DeterminismRule",
    "ErrorDisciplineRule",
    "TelemetryDisciplineRule",
    "DocstringDisciplineRule",
    "BufferEscapeRule",
    "AsyncBlockingRule",
    "LockOrderRule",
    "ResourceLifecycleRule",
    "static_lock_graph",
]

"""Measured-vs-analytic drift check for the per-stage profiling story.

:func:`repro.device.profile.profile_chunk` *predicts* the byte traffic
and operation mix of each pipeline stage (the Section V-F account: one
DRAM read, compute concentrated in the middle lossless stages).  This
module runs the *real* codec with telemetry enabled and compares:

* **byte traffic** -- the telemetry counters ``stage_bytes_in_total`` /
  ``stage_bytes_out_total`` must agree with the analytic model
  *exactly*, stage by stage, on **both codec directions**: the encode
  stages against the forward model and the decode stages
  (``zero-restore`` .. ``dequantize``) against the inverse model.  Any
  disagreement means either the model or the instrumentation
  mis-accounts the pipeline, so the check is a regression test for both.
* **ops vs time** -- the analytic operation estimates cannot be checked
  exactly against wall-clock (Python overhead is not the paper's GPU),
  so the report shows each stage's *share* of estimated ops next to its
  *share* of measured seconds, per direction.  Large divergence
  localizes where the Python realization departs from the paper's cost
  story.

The comparison requires the analytic and measured pipelines to see the
same chunk boundaries, so :func:`drift_check` profiles each chunk slice
of the input separately with the codec's own geometry.  The input length
must be a multiple of 8 values (otherwise the kernel's shuffle padding
makes the tail chunk's delta-stage traffic differ from the unpadded
analytic model by construction).

NOA's error bound depends on the *global* value range, so the check
resolves the range once over the whole input (exactly as the codec's
``prepare`` does) and hands it to every per-chunk :func:`profile_chunk`
call via ``quantizer_params`` -- multi-chunk NOA drift-checks exactly
like ABS/REL.

:func:`schedule_drift_check` closes the remaining observability gap on
the scheduling side: it decodes a stream on a real
:class:`~repro.device.backend.ThreadedBackend`, collects the measured
per-item execution times and per-worker busy seconds, replays the same
durations through :func:`~repro.device.scheduler.dynamic_schedule`, and
reports measured vs simulated makespan/imbalance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.chunking import CHUNK_BYTES
from ..core.compressor import PFPLCompressor
from ..core.quantizers import make_quantizer
from ..core.random_access import StreamDecoder
from ..device.profile import profile_chunk
from ..errors import PFPLUsageError
from ..telemetry import Telemetry

__all__ = [
    "StageDrift",
    "DriftReport",
    "drift_check",
    "ScheduleDriftReport",
    "schedule_drift_check",
]

#: analytic stage-name prefixes -> canonical telemetry stage names
_STAGE_ALIASES = {
    "dequantize": "dequantize",
    "quantize": "quantize",
    "delta+negabin": "delta+negabinary",
    "delta-decode": "delta-decode",
    "bitshuffle": "bitshuffle",
    "bitunshuffle": "bitunshuffle",
    "zero-elim": "zero-elim",
    "zero-restore": "zero-restore",
}


def _canonical(analytic_name: str) -> str:
    """Map ``quantize[abs]`` / ``delta+negabin`` to the telemetry name."""
    for prefix, canon in _STAGE_ALIASES.items():
        if analytic_name.startswith(prefix):
            return canon
    return analytic_name


@dataclass(frozen=True)
class StageDrift:
    """One stage's measured-vs-analytic comparison."""

    stage: str
    measured_bytes_in: int
    measured_bytes_out: int
    analytic_bytes_in: int
    analytic_bytes_out: int
    measured_seconds: float
    analytic_ops: int

    @property
    def bytes_match(self) -> bool:
        return (self.measured_bytes_in == self.analytic_bytes_in
                and self.measured_bytes_out == self.analytic_bytes_out)


@dataclass
class DriftReport:
    """Whole-pipeline drift report for one compress + decompress run.

    :attr:`stages` holds the encode-direction comparison (the original
    PR 3 contract); :attr:`decode_stages` holds the inverse model's
    comparison for the decode direction.  :attr:`bytes_ok` requires both
    directions to match exactly.
    """

    mode: str
    error_bound: float
    n_chunks: int
    n_values: int
    stages: list[StageDrift] = field(default_factory=list)
    decode_stages: list[StageDrift] = field(default_factory=list)

    @property
    def bytes_ok(self) -> bool:
        """True when every stage's byte accounting matches exactly."""
        return all(s.bytes_match for s in self.stages + self.decode_stages)

    @property
    def total_seconds(self) -> float:
        return sum(s.measured_seconds for s in self.stages)

    @property
    def total_ops(self) -> int:
        return sum(s.analytic_ops for s in self.stages)

    def _family(self, stage: StageDrift) -> list[StageDrift]:
        return self.decode_stages if stage in self.decode_stages else self.stages

    def time_share(self, stage: StageDrift) -> float:
        """Stage's share of measured seconds within its own direction."""
        total = sum(s.measured_seconds for s in self._family(stage))
        return stage.measured_seconds / total if total else 0.0

    def ops_share(self, stage: StageDrift) -> float:
        """Stage's share of estimated ops within its own direction."""
        total = sum(s.analytic_ops for s in self._family(stage))
        return stage.analytic_ops / total if total else 0.0

    def _stage_dict(self, s: StageDrift) -> dict:
        return {
            "stage": s.stage,
            "bytes_match": s.bytes_match,
            "measured_bytes_in": s.measured_bytes_in,
            "measured_bytes_out": s.measured_bytes_out,
            "analytic_bytes_in": s.analytic_bytes_in,
            "analytic_bytes_out": s.analytic_bytes_out,
            "measured_seconds": s.measured_seconds,
            "analytic_ops": s.analytic_ops,
            "time_share": self.time_share(s),
            "ops_share": self.ops_share(s),
        }

    def to_dict(self) -> dict:
        """JSON-ready digest (used by ``pfpl stats --drift`` and CI)."""
        return {
            "mode": self.mode,
            "error_bound": self.error_bound,
            "n_chunks": self.n_chunks,
            "n_values": self.n_values,
            "bytes_ok": self.bytes_ok,
            "stages": [self._stage_dict(s) for s in self.stages],
            "decode_stages": [self._stage_dict(s) for s in self.decode_stages],
        }

    def render(self) -> str:
        lines = [
            f"drift check: mode={self.mode} bound={self.error_bound:g} "
            f"({self.n_values} values, {self.n_chunks} chunks)",
        ]
        header = (
            f"  {'stage':<18} {'bytes in':>10} {'bytes out':>10} "
            f"{'match':>6} {'ops%':>6} {'time%':>6}"
        )
        for label, stages in (("encode", self.stages),
                              ("decode", self.decode_stages)):
            if not stages:
                continue
            lines.append(f"  [{label}]")
            lines.append(header)
            for s in stages:
                lines.append(
                    f"  {s.stage:<18} {s.measured_bytes_in:>10,} "
                    f"{s.measured_bytes_out:>10,} "
                    f"{'ok' if s.bytes_match else 'DRIFT':>6} "
                    f"{self.ops_share(s) * 100:>5.1f} {self.time_share(s) * 100:>5.1f}"
                )
        verdict = "exact" if self.bytes_ok else "DIVERGED"
        lines.append(f"  byte accounting vs profile_chunk: {verdict}")
        return "\n".join(lines)


def drift_check(
    values: np.ndarray,
    mode: str = "abs",
    error_bound: float = 1e-3,
    chunk_bytes: int | None = None,
    pipelines=None,
) -> DriftReport:
    """Round-trip ``values`` with telemetry on and diff against the model.

    Compresses *and* decompresses so both codec directions are measured,
    then compares stage-by-stage byte traffic against the forward and
    inverse analytic models.  Returns a :class:`DriftReport` whose
    :attr:`~DriftReport.bytes_ok` asserts the paper's byte-accounting
    claims against the live codec.

    ``pipelines`` switches the codec to format v3 per-chunk selection
    over the given candidates and diffs against the selection-aware
    model: the per-candidate ``zero-elim[<variant>]`` analytic stages
    collapse onto the one measured ``zero-elim`` row (telemetry
    aggregates by stage name), so their byte totals must sum to the
    measured total exactly, and the decode side must match the winning
    candidate of every chunk.
    """
    values = np.ascontiguousarray(values).reshape(-1)
    if values.size == 0:
        raise PFPLUsageError("drift_check needs a non-empty input")
    if values.size % 8:
        raise PFPLUsageError(
            "drift_check input length must be a multiple of 8 values "
            "(shuffle padding makes the tail chunk incomparable otherwise)"
        )
    chunk_bytes = chunk_bytes or CHUNK_BYTES

    tel = Telemetry()
    comp = PFPLCompressor(
        mode=mode, error_bound=error_bound, dtype=values.dtype,
        chunk_bytes=chunk_bytes, telemetry=tel, pipelines=pipelines,
    )
    result = comp.compress(values)
    comp.decompress(result.data)
    measured = {
        "encode": tel.stage_table("encode"),
        "decode": tel.stage_table("decode"),
    }

    # The analytic side walks the same chunk grid the codec used.  NOA's
    # quantizer state is mode-global (the value range), so it is resolved
    # ONCE over the full input, as the codec does, then pinned for every
    # per-chunk profile so chunk slices see the codec's exact bound.
    # ABS/REL quantizers are chunk-local; each profile rebuilds them.
    quantizer_params = None
    if mode == "noa":
        pre = make_quantizer(mode, error_bound, dtype=values.dtype)
        pre.prepare(values)
        quantizer_params = pre.header_params()

    words_per_chunk = chunk_bytes // values.dtype.itemsize
    analytic: dict[str, dict[str, dict[str, int]]] = {
        "encode": {}, "decode": {},
    }
    n_chunks = 0
    for start in range(0, values.size, words_per_chunk):
        n_chunks += 1
        for direction in ("encode", "decode"):
            profile = profile_chunk(
                values[start:start + words_per_chunk], mode=mode,
                error_bound=error_bound, quantizer_params=quantizer_params,
                direction=direction, pipelines=pipelines,
            )
            for sp in profile.stages:
                row = analytic[direction].setdefault(
                    _canonical(sp.name),
                    {"bytes_in": 0, "bytes_out": 0, "ops": 0},
                )
                row["bytes_in"] += sp.bytes_in
                row["bytes_out"] += sp.bytes_out
                row["ops"] += sp.ops

    report = DriftReport(
        mode=mode, error_bound=float(error_bound),
        n_chunks=n_chunks, n_values=values.size,
    )
    for direction, stages in (("encode", report.stages),
                              ("decode", report.decode_stages)):
        for stage, model in analytic[direction].items():
            got = measured[direction].get(stage, {})
            stages.append(StageDrift(
                stage=stage,
                measured_bytes_in=int(got.get("bytes_in", 0)),
                measured_bytes_out=int(got.get("bytes_out", 0)),
                analytic_bytes_in=model["bytes_in"],
                analytic_bytes_out=model["bytes_out"],
                measured_seconds=float(got.get("seconds", 0.0)),
                analytic_ops=model["ops"],
            ))
    return report


@dataclass
class ScheduleDriftReport:
    """Measured thread-pool behavior vs the scheduler simulation.

    The measured side comes from one real decode on a
    :class:`~repro.device.backend.ThreadedBackend` (per-worker busy
    seconds, per-item execution seconds, actual start order); the
    simulated side replays the *measured* per-item durations through
    :func:`~repro.device.scheduler.dynamic_schedule` over the same
    worker count and queue order.  The two makespans agree when the pool
    behaves like the model (greedy pull from a shared queue); wall-clock
    noise, GIL serialization and queue overhead all widen the gap, so
    the verdict uses a relative ``tolerance`` rather than exactness.
    """

    n_items: int
    n_workers: int
    measured_makespan: float          #: max per-worker busy seconds
    measured_busy: dict[str, float]   #: worker id -> busy seconds
    simulated_makespan: float
    simulated_imbalance: float
    tolerance: float

    @property
    def measured_total(self) -> float:
        return sum(self.measured_busy.values())

    @property
    def measured_imbalance(self) -> float:
        """max / mean per-worker busy seconds (1.0 = perfectly balanced)."""
        if not self.measured_busy:
            return 1.0
        mean = self.measured_total / len(self.measured_busy)
        return self.measured_makespan / mean if mean > 0 else 1.0

    @property
    def makespan_gap(self) -> float:
        """Relative measured-vs-simulated makespan disagreement."""
        ref = max(self.simulated_makespan, 1e-12)
        return abs(self.measured_makespan - self.simulated_makespan) / ref

    @property
    def ok(self) -> bool:
        return self.makespan_gap <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "n_items": self.n_items,
            "n_workers": self.n_workers,
            "measured_makespan": self.measured_makespan,
            "measured_total": self.measured_total,
            "measured_imbalance": self.measured_imbalance,
            "measured_busy": dict(sorted(self.measured_busy.items())),
            "simulated_makespan": self.simulated_makespan,
            "simulated_imbalance": self.simulated_imbalance,
            "makespan_gap": self.makespan_gap,
            "tolerance": self.tolerance,
            "ok": self.ok,
        }

    def render(self) -> str:
        verdict = "within tolerance" if self.ok else "DIVERGED"
        return "\n".join([
            f"schedule drift: {self.n_items} items over "
            f"{self.n_workers} workers",
            f"  measured  makespan {self.measured_makespan:.6f}s "
            f"imbalance {self.measured_imbalance:.2f}",
            f"  simulated makespan {self.simulated_makespan:.6f}s "
            f"imbalance {self.simulated_imbalance:.2f}",
            f"  gap {self.makespan_gap * 100:.1f}% "
            f"(tolerance {self.tolerance * 100:.0f}%): {verdict}",
        ])


def schedule_drift_check(
    values: np.ndarray,
    mode: str = "abs",
    error_bound: float = 1e-3,
    n_threads: int = 4,
    tolerance: float = 0.5,
) -> ScheduleDriftReport:
    """Decode on a real thread pool and reconcile it with the simulator.

    Compresses ``values`` quietly, then decodes every chunk through a
    :class:`~repro.core.random_access.StreamDecoder` on a
    :class:`~repro.device.backend.ThreadedBackend` with telemetry on --
    the object under test is the *per-chunk* scheduler, and
    ``decode_all`` issues exactly one ``map_chunks`` call (size-table
    costs attached), whose ``chunk_exec`` spans are the per-item ground
    truth.  Those measured durations are replayed through
    :func:`~repro.device.scheduler.dynamic_schedule` with the pool's
    actual start order, and the simulated makespan/imbalance are
    compared against the measured per-worker busy seconds.
    """
    from ..device.backend import ThreadedBackend
    from ..device.scheduler import dynamic_schedule

    values = np.ascontiguousarray(values).reshape(-1)
    if values.size == 0:
        raise PFPLUsageError("schedule_drift_check needs a non-empty input")
    comp = PFPLCompressor(mode=mode, error_bound=error_bound, dtype=values.dtype)
    stream = comp.compress(values).data

    tel = Telemetry()
    backend = ThreadedBackend(n_threads=n_threads, telemetry=tel)
    StreamDecoder(stream, backend, telemetry=tel).decode_all()

    exec_spans = [s for s in tel.spans if s.name == "chunk_exec"]
    n_items = len(exec_spans)
    if not n_items:
        raise PFPLUsageError(
            "schedule_drift_check needs a multi-chunk input (the pool "
            "short-circuits single-item maps)"
        )
    durations = np.zeros(n_items, dtype=np.float64)
    for s in exec_spans:
        durations[int(s.args["item"])] = s.duration

    busy: dict[str, float] = {}
    for key, value in tel.counters().items():
        if key.startswith("worker_busy_seconds_total{"):
            worker = key.split('worker="', 1)[1].rstrip('"}')
            busy[worker] = float(value)

    order = backend.last_order
    sim = dynamic_schedule(durations, n_workers=max(1, len(busy)), order=order)
    return ScheduleDriftReport(
        n_items=n_items,
        n_workers=n_threads,
        measured_makespan=max(busy.values()) if busy else 0.0,
        measured_busy=busy,
        simulated_makespan=sim.makespan,
        simulated_imbalance=sim.imbalance,
        tolerance=float(tolerance),
    )

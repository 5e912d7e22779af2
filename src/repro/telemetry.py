"""Live telemetry for the codec: spans, counters, and trace export.

The analytic models in :mod:`repro.device.timing` and
:mod:`repro.device.profile` *predict* where PFPL spends its bytes and
cycles (Section V-F: compute-bound, one DRAM read, the work in the
middle lossless stages).  This module *measures* it: a
:class:`Telemetry` object threaded through the codec records

* **spans** -- wall-clock intervals with a name, category, worker thread
  and free-form arguments: one per chunk per stage (``quantize``,
  ``delta+negabinary``, ``bitshuffle``, ``zero-elim``, ``assemble`` on
  encode; their inverses on decode), plus chunk-level, I/O-fetch and
  scheduler spans;
* **counters** -- monotonic labelled totals: bytes in/out per stage,
  outlier (raw-word) counts, incompressible-fallback chunks, queue-wait
  seconds per worker, values and chunks processed.

* **histograms** -- every committed span also feeds a fixed
  log2-spaced ``span_duration_seconds`` histogram keyed by category and
  span name, so the Prometheus export carries latency distributions
  (``_bucket``/``_sum``/``_count`` series) and p50/p99 summaries are
  available without retaining the raw spans.

Everything is thread-safe (backend workers record concurrently) and
exportable three ways: a JSON summary (:meth:`Telemetry.to_json`),
Prometheus text exposition (:meth:`Telemetry.to_prometheus`), and Chrome
``trace_event`` JSON (:meth:`Telemetry.chrome_trace`) with one track per
worker thread -- loadable in Perfetto / ``chrome://tracing``.  Spans
recorded with an explicit ``track`` argument (the GPU simulator's
virtual per-SM timelines, fed through :meth:`Telemetry.record_span`)
render as their own named tracks under a separate ``gpu-sim`` process,
so modeled wave occupancy sits next to measured wall-clock.

Request-scoped **distributed tracing** (PR 8) rides on the same span
machinery: a :class:`TraceContext` (128-bit trace id, 64-bit span id,
W3C ``traceparent`` compatible) can be bound to a thread with
:meth:`Telemetry.trace`, after which every committed span carries
``trace_id``/``span_id``/``parent_id`` links -- child span ids are
derived *deterministically* from the parent id plus a sequence number,
so ids agree across process boundaries without coordination.  Spans
belonging to a trace are additionally retained in a bounded per-trace
buffer; :meth:`Telemetry.finish_trace` moves the completed trace into a
**flight recorder** ring holding the last N request traces even after
``max_spans`` pressure has started dropping spans from the global list.
Histogram buckets remember the most recent traced observation per
bucket as an **exemplar**, emitted in the Prometheus exposition as an
OpenMetrics-style ``# {trace_id="..."} value`` suffix.

The default telemetry everywhere is :data:`NULL_TELEMETRY`, a null
object whose spans and counters are no-ops: instrumented code records
through it unconditionally, so traced and untraced runs execute the same
code and the output bytes are unchanged when telemetry is off.  A null
span costs well under a microsecond per call.

Example::

    from repro import Telemetry, compress

    tel = Telemetry()
    blob = compress(data, mode="abs", error_bound=1e-3, telemetry=tel)
    print(tel.to_prometheus())
    tel.write_chrome_trace("compress.trace.json")
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass, field

__all__ = [
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "SpanRecord",
    "TraceContext",
    "parse_prometheus",
    "HISTOGRAM_BOUNDS",
]

#: Stage names the encoder records, in pipeline order (matching the
#: paper's Figure 1 and the analytic ``profile_chunk`` stages).
ENCODE_STAGES = (
    "quantize",
    "delta+negabinary",
    "bitshuffle",
    "zero-elim",
    "assemble",
)

#: Decode-side stage names, in execution order.
DECODE_STAGES = (
    "zero-restore",
    "bitunshuffle",
    "delta-decode",
    "dequantize",
)

#: Fixed log2-spaced span-duration histogram bucket upper bounds, in
#: seconds (~1 us .. 16 s).  Fixed bounds keep every export mergeable
#: across runs and processes, which is the Prometheus histogram model.
HISTOGRAM_BOUNDS = tuple(2.0 ** e for e in range(-20, 5))


def _derive_id(trace_id: str, span_id: str | None, seq: str) -> str:
    """Deterministic 64-bit child span id from a parent id + sequence tag.

    Hash-based derivation means any participant holding the parent
    context -- a job thread, a forked worker process -- computes the
    *same* child id for the same sequence tag without coordination,
    which is what lets shard descriptors carry a complete child context
    across the process boundary.
    """
    material = f"{trace_id}:{span_id or ''}:{seq}".encode()
    return hashlib.blake2b(material, digest_size=8).hexdigest()


@dataclass(frozen=True)
class TraceContext:
    """One position in a request trace: (trace id, this span, its parent).

    ``trace_id`` is 32 lowercase hex chars (128 bits), ``span_id`` 16
    (64 bits) -- the W3C Trace Context field widths, so the context
    round-trips through ``traceparent`` headers unchanged.
    """

    trace_id: str
    span_id: str
    parent_id: str | None = None

    @classmethod
    def mint(cls, parent: "TraceContext | None" = None) -> "TraceContext":
        """Fresh context: new trace, or a new child span of ``parent``."""
        if parent is not None:
            return cls(
                trace_id=parent.trace_id,
                span_id=os.urandom(8).hex(),
                parent_id=parent.span_id,
            )
        return cls(trace_id=os.urandom(16).hex(), span_id=os.urandom(8).hex())

    @classmethod
    def from_traceparent(cls, header: str | None) -> "TraceContext | None":
        """Parse a W3C ``traceparent`` header; ``None`` when malformed.

        Malformed inbound headers are *ignored*, never an error: a
        service must not fail a request because an upstream proxy
        mangled its tracing metadata.
        """
        if not header or not isinstance(header, str):
            return None
        parts = header.strip().lower().split("-")
        if len(parts) < 4:
            return None
        version, trace_id, span_id = parts[0], parts[1], parts[2]
        if len(version) != 2 or len(trace_id) != 32 or len(span_id) != 16:
            return None
        try:
            int(version, 16), int(trace_id, 16), int(span_id, 16)
            int(parts[3], 16)
        except ValueError:
            return None
        if version == "ff" or set(trace_id) == {"0"} or set(span_id) == {"0"}:
            return None
        return cls(trace_id=trace_id, span_id=span_id)

    def to_traceparent(self) -> str:
        """Render as a W3C ``traceparent`` header value (sampled flag set)."""
        return f"00-{self.trace_id}-{self.span_id}-01"

    def child(self, seq: int) -> "TraceContext":
        """Deterministic child context number ``seq`` of this span."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=_derive_id(self.trace_id, self.span_id, f"c{seq}"),
            parent_id=self.span_id,
        )


@dataclass
class SpanRecord:
    """One finished span: a named wall-clock interval on one thread."""

    name: str
    cat: str
    start: float          #: seconds since the Telemetry object's epoch
    duration: float       #: seconds
    tid: int              #: OS thread ident the span ran on
    args: dict = field(default_factory=dict)
    trace_id: str | None = None    #: request trace this span belongs to
    span_id: str | None = None     #: this span's own id within the trace
    parent_id: str | None = None   #: id of the enclosing span


class _Span:
    """Context manager handed out by :meth:`Telemetry.span`.

    ``set(**kwargs)`` attaches results discovered mid-span (for example
    ``bytes_out`` once the stage has produced its blob); on exit the
    record is committed and stage counters are updated.
    """

    __slots__ = ("_tel", "name", "cat", "args", "trace", "_t0")

    def __init__(
        self, tel: "Telemetry", name: str, cat: str, args: dict,
        trace: TraceContext | None = None,
    ):
        self._tel = tel
        self.name = name
        self.cat = cat
        self.args = args
        #: Explicit trace position: this span *is* ``trace.span_id``
        #: (rather than a fresh child of the thread's bound context).
        self.trace = trace

    def set(self, **kwargs) -> "_Span":
        self.args.update(kwargs)
        return self

    def __enter__(self) -> "_Span":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        t1 = time.perf_counter()
        self._tel._commit(self, self._t0, t1 - self._t0)


class _NullSpan:
    """No-op span: the null telemetry's context manager (shared singleton)."""

    __slots__ = ()

    def set(self, **kwargs) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTelemetry:
    """Disabled telemetry: every operation is a no-op.

    Codec paths call the recording methods unconditionally; ``enabled``
    is ``False`` for the few callers whose telemetry-only work is worth
    skipping (snapshotting worker spans, sharing a recorder).
    """

    enabled = False

    __slots__ = ()

    def span(self, name: str, cat: str = "codec", trace=None, **args) -> _NullSpan:
        return _NULL_SPAN

    def chunk(self, index: int) -> _NullSpan:
        return _NULL_SPAN

    def trace(self, ctx) -> _NullSpan:
        return _NULL_SPAN

    def current_trace(self) -> None:
        return None

    def begin_trace(self, ctx, **meta) -> None:
        return None

    def finish_trace(self, trace_id: str, **meta) -> None:
        return None

    def trace_spans(self, trace_id: str) -> list:
        return []

    def traces_summary(self) -> list:
        return []

    def add(self, name: str, value: float = 1, **labels) -> None:
        return None

    def histogram(self, name: str, value: float, **labels) -> None:
        return None

    def record_span(
        self, name: str, cat: str, start: float, duration: float,
        track: str | None = None, **args,
    ) -> None:
        return None

    def now(self) -> float:
        return 0.0


#: The process-wide disabled-telemetry singleton (the default everywhere).
NULL_TELEMETRY = NullTelemetry()


class _ChunkScope:
    """Context manager binding a chunk index to the current thread.

    Nested spans recorded while the scope is active automatically carry
    ``chunk=<index>`` in their args, so per-stage spans are attributable
    to a chunk without threading the index through every codec call.
    """

    __slots__ = ("_local", "_index", "_prev")

    def __init__(self, local: threading.local, index: int):
        self._local = local
        self._index = index

    def __enter__(self) -> "_ChunkScope":
        self._prev = getattr(self._local, "chunk", None)
        self._local.chunk = self._index
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._local.chunk = self._prev


class _TraceScope:
    """Context manager binding a :class:`TraceContext` to the current thread.

    Spans committed while the scope is active become children of the
    bound context: they inherit its trace id, take its span id as their
    parent, and receive a fresh derived span id of their own.  Binding
    ``None`` is allowed (and clears any inherited binding), so callers
    can propagate "whatever the submitting thread had" unconditionally.
    """

    __slots__ = ("_local", "_ctx", "_prev")

    def __init__(self, local: threading.local, ctx: TraceContext | None):
        self._local = local
        self._ctx = ctx

    def __enter__(self) -> "_TraceScope":
        self._prev = getattr(self._local, "trace", None)
        self._local.trace = self._ctx
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._local.trace = self._prev


#: Spans retained per trace in the flight-recorder buffers.  Bounds one
#: runaway request; typical request traces are far smaller.
_TRACE_SPAN_CAP = 4096
#: Unfinished traces tracked at once; beyond this new trace ids fall
#: back to plain (cap-limited) span retention.
_MAX_ACTIVE_TRACES = 256


class Telemetry:
    """Live span + counter recorder for one or more codec operations.

    Parameters
    ----------
    max_spans:
        Safety cap on retained span records (counters keep aggregating
        past it).  Spans beyond the cap are counted in
        ``pfpl_spans_dropped_total`` rather than silently lost.
    flight_traces:
        Completed request traces the flight-recorder ring retains.
        Trace-tagged spans are buffered per trace *independently* of
        ``max_spans``, so the last N request traces stay exportable even
        once the global span list is saturated.
    """

    enabled = True

    def __init__(self, max_spans: int = 1_000_000, flight_traces: int = 32):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.max_spans = int(max_spans)
        self.flight_traces = int(flight_traces)
        self.reset()

    # -- recording -----------------------------------------------------------

    def reset(self) -> None:
        """Drop all recorded spans and counters (epoch restarts now)."""
        with self._lock:
            self.epoch = time.perf_counter()
            self.spans: list[SpanRecord] = []
            self._counters: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
            #: histogram key -> [per-bucket counts..., overflow], sum, count
            self._hists: dict[
                tuple[str, tuple[tuple[str, str], ...]], list
            ] = {}
            #: (histogram key, bucket index) -> (trace_id, observed value):
            #: the most recent traced observation landing in that bucket.
            self._exemplars: dict[tuple, tuple[str, float]] = {}
            #: trace id -> flight-recorder entry (insertion-ordered; both
            #: active and finished traces live here, finished ones capped
            #: at ``flight_traces`` by eviction in finish_trace).
            self._traces: OrderedDict[str, dict] = OrderedDict()
            self._active_traces = 0
            self._span_seq = 0
            self._dropped = 0

    def now(self) -> float:
        """Seconds since this recorder's epoch (the span timebase)."""
        return time.perf_counter() - self.epoch

    def span(
        self, name: str, cat: str = "codec",
        trace: TraceContext | None = None, **args,
    ) -> _Span:
        """Open a timed span; use as a context manager.

        ``trace`` pins the span to an explicit trace position: the span
        *is* ``trace.span_id`` with ``trace.parent_id`` as its parent
        (used for root/request spans whose context was minted up front,
        e.g. across ``await`` points where thread-local binding would
        leak between interleaved requests).  Without it, a context bound
        via :meth:`trace` on the recording thread makes the span a fresh
        child of that context.
        """
        return _Span(self, name, cat, args, trace=trace)

    def chunk(self, index: int) -> _ChunkScope:
        """Bind ``chunk=index`` to every span this thread records inside."""
        return _ChunkScope(self._local, index)

    def trace(self, ctx: TraceContext | None) -> _TraceScope:
        """Bind ``ctx`` as the parent of every span this thread records."""
        return _TraceScope(self._local, ctx)

    def current_trace(self) -> TraceContext | None:
        """The calling thread's bound trace context, if any."""
        return getattr(self._local, "trace", None)

    def begin_trace(self, ctx: TraceContext, **meta) -> None:
        """Register a request trace in the flight recorder (with metadata).

        Optional -- a trace-tagged span auto-registers its trace -- but
        explicit registration attaches request metadata (op, tenant)
        before any span completes and guarantees the trace a buffer
        even under active-trace pressure.
        """
        with self._lock:
            entry = self._traces.get(ctx.trace_id)
            if entry is None:
                entry = self._new_trace_locked(ctx.trace_id)
            if entry is not None:
                entry["meta"].update(meta)

    def finish_trace(self, trace_id: str, **meta) -> None:
        """Mark a trace complete and fold it into the flight-recorder ring.

        The newest ``flight_traces`` completed traces are retained (and
        stay exportable via :meth:`trace_spans` /
        :meth:`chrome_trace`) regardless of ``max_spans`` pressure;
        older completed traces are evicted oldest-first.
        """
        with self._lock:
            entry = self._traces.get(trace_id)
            if entry is None:
                return
            if not entry["finished"]:
                entry["finished"] = True
                self._active_traces -= 1
            entry["meta"].update(meta)
            entry["end"] = self.now()
            self._traces.move_to_end(trace_id)
            finished = [t for t, e in self._traces.items() if e["finished"]]
            for stale in finished[: max(0, len(finished) - self.flight_traces)]:
                del self._traces[stale]

    def _new_trace_locked(self, trace_id: str) -> dict | None:
        """Create a flight-recorder entry (None when at active capacity)."""
        if self._active_traces >= _MAX_ACTIVE_TRACES:
            return None
        entry = {
            "spans": [], "meta": {}, "finished": False,
            "start": self.now(), "end": None, "dropped": 0,
        }
        self._traces[trace_id] = entry
        self._active_traces += 1
        return entry

    def add(self, name: str, value: float = 1, **labels) -> None:
        """Increment counter ``name`` (with optional labels) by ``value``."""
        key = (name, tuple(sorted(labels.items())))
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + value

    def histogram(self, name: str, value: float, **labels) -> None:
        """Observe ``value`` in the fixed-bucket histogram ``name``."""
        key = (name, tuple(sorted(labels.items())))
        with self._lock:
            self._observe_locked(key, value)

    def _observe_locked(
        self,
        key: tuple[str, tuple[tuple[str, str], ...]],
        value: float,
        trace_id: str | None = None,
    ) -> None:
        hist = self._hists.get(key)
        if hist is None:
            # buckets[i] counts observations in (bounds[i-1], bounds[i]];
            # the final slot is the +Inf overflow bucket.
            hist = self._hists[key] = [[0] * (len(HISTOGRAM_BOUNDS) + 1), 0.0, 0]
        buckets, _, _ = hist
        idx = bisect_right(HISTOGRAM_BOUNDS, value)
        buckets[idx] += 1
        hist[1] += value
        hist[2] += 1
        if trace_id is not None:
            self._exemplars[(key, idx)] = (trace_id, value)

    def _retain_locked(self, rec: SpanRecord) -> None:
        """File one finished span: global list + its trace's flight buffer.

        The global list saturates at ``max_spans`` (drops counted); the
        per-trace buffer is independent, so request traces survive
        global pressure -- the flight-recorder guarantee.
        """
        if len(self.spans) < self.max_spans:
            self.spans.append(rec)
        else:
            self._dropped += 1
        if rec.trace_id is None:
            return
        entry = self._traces.get(rec.trace_id)
        if entry is None:
            entry = self._new_trace_locked(rec.trace_id)
        if entry is None:
            return
        if len(entry["spans"]) < _TRACE_SPAN_CAP:
            entry["spans"].append(rec)
        else:
            entry["dropped"] += 1

    def _trace_fields(
        self, explicit: TraceContext | None
    ) -> tuple[str | None, str | None, str | None]:
        """Resolve (trace_id, span_id, parent_id) for a committing span.

        An explicit context means the span *is* that context's span; a
        thread-bound context makes it a fresh child (id derived under
        the lock from a monotone sequence, so ids are unique per
        recorder).  No context at all leaves the span untraced.
        """
        ctx = explicit if explicit is not None else getattr(self._local, "trace", None)
        if ctx is None:
            return None, None, None
        if explicit is not None:
            return ctx.trace_id, ctx.span_id, ctx.parent_id
        span_id = _derive_id(ctx.trace_id, ctx.span_id, f"s{self._span_seq}")
        self._span_seq += 1
        return ctx.trace_id, span_id, ctx.span_id

    def record_span(
        self, name: str, cat: str, start: float, duration: float,
        track: str | None = None, trace: TraceContext | None = None, **args,
    ) -> None:
        """Record a span with explicit (possibly virtual) timing.

        Unlike :meth:`span`, the caller supplies ``start`` (seconds
        since this recorder's epoch -- see :meth:`now`) and
        ``duration``: this is how simulators report *modeled* intervals
        that never ran on a wall clock.  ``track`` names a virtual
        timeline (e.g. ``"sm-3"``); tracked spans get their own named
        row in :meth:`chrome_trace` instead of the recording thread's.
        """
        if track is not None:
            args = dict(args, track=track)
        hist_key = (
            "span_duration_seconds",
            (("cat", cat), ("span", name)),
        )
        with self._lock:
            trace_id, span_id, parent_id = self._trace_fields(trace)
            rec = SpanRecord(
                name=name, cat=cat, start=float(start), duration=float(duration),
                tid=threading.get_ident(), args=args,
                trace_id=trace_id, span_id=span_id, parent_id=parent_id,
            )
            self._retain_locked(rec)
            self._observe_locked(hist_key, float(duration), trace_id=trace_id)

    def _commit(self, span: _Span, t0: float, duration: float) -> None:
        args = span.args
        chunk = getattr(self._local, "chunk", None)
        if chunk is not None and "chunk" not in args:
            args = dict(args, chunk=chunk)
        stage_key = None
        if span.cat in ("encode", "decode"):
            stage_key = (("cat", span.cat), ("stage", span.name))
        hist_key = (
            "span_duration_seconds",
            (("cat", span.cat), ("span", span.name)),
        )
        with self._lock:
            trace_id, span_id, parent_id = self._trace_fields(span.trace)
            rec = SpanRecord(
                name=span.name,
                cat=span.cat,
                start=t0 - self.epoch,
                duration=duration,
                tid=threading.get_ident(),
                args=args,
                trace_id=trace_id, span_id=span_id, parent_id=parent_id,
            )
            self._retain_locked(rec)
            self._observe_locked(hist_key, duration, trace_id=trace_id)
            if stage_key is not None:
                c = self._counters
                c[("stage_seconds_total", stage_key)] = (
                    c.get(("stage_seconds_total", stage_key), 0) + duration
                )
                c[("stage_calls_total", stage_key)] = (
                    c.get(("stage_calls_total", stage_key), 0) + 1
                )
                for attr in ("bytes_in", "bytes_out"):
                    if attr in args:
                        k = (f"stage_{attr}_total", stage_key)
                        c[k] = c.get(k, 0) + args[attr]

    # -- cross-process merge -------------------------------------------------

    def snapshot(self) -> dict:
        """Picklable dump of everything recorded: counters, spans, histograms.

        The inverse of :meth:`merge`: a worker *process* records into its
        own ``Telemetry`` (locks do not cross ``fork``/``spawn``), ships
        this plain-data snapshot back, and the parent folds it in.  Span
        starts are relative to this recorder's epoch; the merging side
        supplies the offset that aligns them with its own timebase.
        """
        with self._lock:
            return {
                "counters": [
                    (name, list(labels), value)
                    for (name, labels), value in self._counters.items()
                ],
                "spans": [
                    (r.name, r.cat, r.start, r.duration, r.args,
                     r.trace_id, r.span_id, r.parent_id)
                    for r in self.spans
                ],
                "hists": [
                    (name, list(labels), list(h[0]), h[1], h[2])
                    for (name, labels), h in self._hists.items()
                ],
                "dropped": self._dropped,
            }

    def merge(self, snap: dict, offset: float = 0.0, track: str | None = None) -> None:
        """Fold a :meth:`snapshot` from another recorder into this one.

        ``offset`` (seconds, this recorder's timebase) shifts the
        incoming span starts so a worker process's trace lines up with
        the parent timeline; ``track`` labels every merged span with a
        virtual track name (e.g. ``proc-3``) so the Chrome trace renders
        each worker process as its own row.  Counters add; histogram
        buckets add (the fixed bounds make them mergeable by
        construction); stage counters arrive pre-aggregated inside the
        snapshot's counters, so spans are appended without re-deriving
        them.  Merged spans keep their trace links (a worker span whose
        context was derived from a request's shard descriptor files
        into that request's flight-recorder buffer here).
        """
        tid = threading.get_ident()
        with self._lock:
            for name, labels, value in snap.get("counters", ()):
                key = (name, tuple(tuple(kv) for kv in labels))
                self._counters[key] = self._counters.get(key, 0) + value
            for name, labels, buckets, total, count in snap.get("hists", ()):
                key = (name, tuple(tuple(kv) for kv in labels))
                hist = self._hists.get(key)
                if hist is None:
                    hist = self._hists[key] = [
                        [0] * (len(HISTOGRAM_BOUNDS) + 1), 0.0, 0
                    ]
                for i, c in enumerate(buckets):
                    hist[0][i] += c
                hist[1] += total
                hist[2] += count
            for row in snap.get("spans", ()):
                # Pre-tracing snapshots carry 5-tuples; current ones add
                # the three trace-link fields.
                name, cat, start, duration, args = row[:5]
                trace_id, span_id, parent_id = (
                    row[5:8] if len(row) >= 8 else (None, None, None)
                )
                if track is not None:
                    args = dict(args, track=track)
                self._retain_locked(SpanRecord(
                    name=name, cat=cat, start=start + offset,
                    duration=duration, tid=tid, args=args,
                    trace_id=trace_id, span_id=span_id, parent_id=parent_id,
                ))
            self._dropped += snap.get("dropped", 0)

    # -- introspection -------------------------------------------------------

    def counter(self, name: str, **labels) -> float:
        """Current value of one counter (0 when never incremented)."""
        key = (name, tuple(sorted(labels.items())))
        with self._lock:
            return self._counters.get(key, 0)

    def counters(self) -> dict[str, float]:
        """Flat snapshot: ``name{label="v",...}`` -> value."""
        with self._lock:
            items = list(self._counters.items())
        out = {}
        for (name, labels), value in sorted(items):
            if labels:
                inner = ",".join(f'{k}="{v}"' for k, v in labels)
                out[f"{name}{{{inner}}}"] = value
            else:
                out[name] = value
        return out

    def trace_spans(self, trace_id: str) -> list[SpanRecord]:
        """All retained spans of one trace (active or flight-recorded).

        Returns a copy in commit order; empty when the trace id was
        never seen (or already evicted from the flight ring).
        """
        with self._lock:
            entry = self._traces.get(trace_id)
            return list(entry["spans"]) if entry is not None else []

    def traces_summary(self) -> list[dict]:
        """One digest row per retained trace, newest last.

        Each row carries the trace id, finished flag, span count,
        trace-buffer drops, start/duration (seconds, recorder timebase)
        and the metadata attached via :meth:`begin_trace` /
        :meth:`finish_trace` (op, tenant, status, ...).
        """
        with self._lock:
            items = [
                (tid, e["finished"], len(e["spans"]), e["dropped"],
                 e["start"], e["end"], dict(e["meta"]), list(e["spans"]))
                for tid, e in self._traces.items()
            ]
        rows = []
        for tid, finished, n, dropped, start, end, meta, spans in items:
            if spans:
                first = min(s.start for s in spans)
                last = max(s.start + s.duration for s in spans)
                duration = last - first
            else:
                duration = (end - start) if end is not None else 0.0
            rows.append({
                "trace_id": tid, "finished": finished, "spans": n,
                "spans_dropped": dropped, "start": start,
                "duration": duration, "meta": meta,
            })
        return rows

    def stage_table(self, cat: str = "encode") -> dict[str, dict[str, float]]:
        """Per-stage aggregate: stage -> calls/seconds/bytes_in/bytes_out."""
        with self._lock:
            items = list(self._counters.items())
        table: dict[str, dict[str, float]] = {}
        for (name, labels), value in items:
            ld = dict(labels)
            if ld.get("cat") != cat or "stage" not in ld:
                continue
            row = table.setdefault(
                ld["stage"], {"calls": 0, "seconds": 0.0, "bytes_in": 0, "bytes_out": 0}
            )
            if name == "stage_calls_total":
                row["calls"] = value
            elif name == "stage_seconds_total":
                row["seconds"] = value
            elif name == "stage_bytes_in_total":
                row["bytes_in"] = value
            elif name == "stage_bytes_out_total":
                row["bytes_out"] = value
        return table

    def histograms(self) -> dict[str, dict]:
        """Flat histogram snapshot: ``name{labels}`` -> buckets/sum/count.

        ``buckets`` pairs each finite upper bound (plus ``inf``) with its
        *cumulative* count, the Prometheus ``le`` convention.
        """
        with self._lock:
            items = [
                (name, labels, list(h[0]), h[1], h[2])
                for (name, labels), h in self._hists.items()
            ]
        out: dict[str, dict] = {}
        bounds = list(HISTOGRAM_BOUNDS) + [float("inf")]
        for name, labels, buckets, total, count in sorted(
            items, key=lambda i: (i[0], i[1])
        ):
            if labels:
                inner = ",".join(f'{k}="{v}"' for k, v in labels)
                flat = f"{name}{{{inner}}}"
            else:
                flat = name
            cumulative = []
            running = 0
            for le, c in zip(bounds, buckets):
                running += c
                cumulative.append((le, running))
            out[flat] = {"buckets": cumulative, "sum": total, "count": count}
        return out

    def span_quantile(self, q: float, cat: str, span: str) -> float:
        """Estimated ``q``-quantile of one span family's duration.

        Returns the upper bound of the bucket where the cumulative count
        crosses ``q`` (the standard fixed-bucket estimate; exact to one
        log2 bucket), 0.0 when the family was never observed, and
        ``inf`` when the quantile lands in the overflow bucket.
        """
        key = ("span_duration_seconds", (("cat", cat), ("span", span)))
        with self._lock:
            hist = self._hists.get(key)
            if hist is None or not hist[2]:
                return 0.0
            buckets, _, count = list(hist[0]), hist[1], hist[2]
        target = q * count
        running = 0
        for le, c in zip(HISTOGRAM_BOUNDS, buckets):
            running += c
            if running >= target:
                return le
        return float("inf")

    def span_latency_summary(self) -> list[dict]:
        """Per-span-family latency digest: count, total, p50, p99.

        One row per (cat, span) family, sorted, ready for ``pfpl stats``.
        """
        with self._lock:
            families = [
                dict(labels) | {"count": h[2], "sum": h[1]}
                for (name, labels), h in self._hists.items()
                if name == "span_duration_seconds"
            ]
        rows = []
        for fam in sorted(families, key=lambda f: (f["cat"], f["span"])):
            rows.append({
                "cat": fam["cat"],
                "span": fam["span"],
                "count": fam["count"],
                "sum": fam["sum"],
                "p50": self.span_quantile(0.5, fam["cat"], fam["span"]),
                "p99": self.span_quantile(0.99, fam["cat"], fam["span"]),
            })
        return rows

    def summary(self) -> dict:
        """JSON-ready digest: counters plus per-stage encode/decode tables."""
        with self._lock:
            n_spans = len(self.spans)
            dropped = self._dropped
        return {
            "spans": n_spans,
            "spans_dropped": dropped,
            "counters": self.counters(),
            "stages": {
                "encode": self.stage_table("encode"),
                "decode": self.stage_table("decode"),
            },
            "span_latency": self.span_latency_summary(),
        }

    # -- exporters -----------------------------------------------------------

    def to_json(self, indent: int | None = 2) -> str:
        """The :meth:`summary` as a JSON document."""
        return json.dumps(self.summary(), indent=indent, sort_keys=True)

    def to_prometheus(self, prefix: str = "pfpl") -> str:
        """Prometheus text exposition format (one family per counter name).

        Counter names gain the ``<prefix>_`` namespace; labels are
        rendered sorted with their values escaped per the exposition
        format (backslash, double-quote, newline), so the output is
        deterministic, parseable for any tenant string, and
        :func:`parse_prometheus` round-trips it exactly.  Histogram
        families follow the counters with the standard cumulative
        ``_bucket{le=...}`` series plus ``_sum`` and ``_count``; a
        bucket whose most recent traced observation is known carries it
        as an OpenMetrics-style exemplar suffix
        (``# {trace_id="..."} value``), linking latency distributions
        back to concrete request traces.
        """
        with self._lock:
            items = list(self._counters.items())
            hists = [
                (name, labels, list(h[0]), h[1], h[2])
                for (name, labels), h in self._hists.items()
            ]
            exemplars = dict(self._exemplars)
        by_name: dict[str, list[tuple[tuple[tuple[str, str], ...], float]]] = {}
        for (name, labels), value in items:
            by_name.setdefault(name, []).append((labels, value))
        lines = []

        def fmt(value: float) -> str:
            if isinstance(value, float) and not value.is_integer():
                return repr(value)
            return str(int(value))

        def render(labels) -> str:
            return ",".join(
                f'{k}="{_escape_label_value(v)}"' for k, v in labels
            )

        for name in sorted(by_name):
            full = f"{prefix}_{name}"
            lines.append(f"# HELP {full} repro.telemetry counter {name}")
            lines.append(f"# TYPE {full} counter")
            for labels, value in sorted(by_name[name]):
                label_str = f"{{{render(labels)}}}" if labels else ""
                lines.append(f"{full}{label_str} {fmt(value)}")

        hist_names = sorted({name for name, *_ in hists})
        for name in hist_names:
            full = f"{prefix}_{name}"
            lines.append(f"# HELP {full} repro.telemetry histogram {name}")
            lines.append(f"# TYPE {full} histogram")
            for _, labels, buckets, total, count in sorted(
                (h for h in hists if h[0] == name), key=lambda h: h[1]
            ):
                inner = render(labels)
                hist_key = (name, labels)
                running = 0
                for idx, (le, c) in enumerate(zip(HISTOGRAM_BOUNDS, buckets)):
                    running += c
                    le_labels = f'{inner},le="{le!r}"' if inner else f'le="{le!r}"'
                    line = f"{full}_bucket{{{le_labels}}} {running}"
                    ex = exemplars.get((hist_key, idx))
                    if ex is not None:
                        line += f' # {{trace_id="{ex[0]}"}} {ex[1]!r}'
                    lines.append(line)
                running += buckets[-1]
                inf_labels = f'{inner},le="+Inf"' if inner else 'le="+Inf"'
                line = f"{full}_bucket{{{inf_labels}}} {running}"
                ex = exemplars.get((hist_key, len(HISTOGRAM_BOUNDS)))
                if ex is not None:
                    line += f' # {{trace_id="{ex[0]}"}} {ex[1]!r}'
                lines.append(line)
                label_str = f"{{{inner}}}" if inner else ""
                lines.append(f"{full}_sum{label_str} {fmt(float(total))}")
                lines.append(f"{full}_count{label_str} {count}")
        return "\n".join(lines) + "\n"

    def chrome_trace(self, trace_id: str | None = None) -> dict:
        """Chrome ``trace_event`` JSON object (Perfetto-loadable).

        Every span becomes a complete (``"ph": "X"``) event.  Measured
        spans land on one track per recording worker thread (named
        ``worker-N`` in first-seen order) under pid 1.  Spans carrying a
        ``track`` argument -- virtual timelines such as the GPU
        simulator's per-SM rows from :meth:`record_span` -- land under a
        separate pid 2 process named ``gpu-sim (modeled)``, one named
        track per distinct ``track`` string, so modeled occupancy
        renders next to measured wall-clock.  Spans merged from worker
        *processes* (:meth:`merge` with a ``proc-N`` track) render under
        their own pid 3 process named ``procpool workers``.

        ``trace_id`` restricts the export to one request trace, sourced
        from its flight-recorder buffer (so a completed request exports
        fully even after ``max_spans`` pressure): the service span, its
        job-thread children and the merged worker-process spans nest as
        pid 1 / pid 3 tracks of a single timeline, and every event
        carries its ``trace_id``/``span_id``/``parent_id`` links in
        ``args``.
        """
        if trace_id is not None:
            spans = self.trace_spans(trace_id)
        else:
            with self._lock:
                spans = list(self.spans)
        tid_map: dict[int, int] = {}
        track_map: dict[str, int] = {}
        proc_map: dict[str, int] = {}
        events = []
        for rec in spans:
            virtual = rec.args.get("track")
            if isinstance(virtual, str):
                if virtual.startswith("proc-"):
                    # Merged worker-process spans (Telemetry.merge): their
                    # own process in the trace, one row per pool worker.
                    pid = 3
                    track = proc_map.setdefault(virtual, len(proc_map))
                else:
                    pid = 2
                    track = track_map.setdefault(virtual, len(track_map))
            else:
                pid = 1
                track = tid_map.setdefault(rec.tid, len(tid_map))
            args = rec.args
            if rec.trace_id is not None:
                args = dict(args, trace_id=rec.trace_id, span_id=rec.span_id,
                            parent_id=rec.parent_id)
            events.append({
                "name": rec.name,
                "cat": rec.cat,
                "ph": "X",
                "ts": rec.start * 1e6,
                "dur": rec.duration * 1e6,
                "pid": pid,
                "tid": track,
                "args": args,
            })
        meta = [
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": track,
                "args": {"name": f"worker-{track}"},
            }
            for track in sorted(tid_map.values())
        ]
        if track_map:
            meta.append({
                "name": "process_name",
                "ph": "M",
                "pid": 2,
                "tid": 0,
                "args": {"name": "gpu-sim (modeled)"},
            })
            meta.extend(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 2,
                    "tid": tid,
                    "args": {"name": name},
                }
                for name, tid in sorted(track_map.items(), key=lambda kv: kv[1])
            )
        if proc_map:
            meta.append({
                "name": "process_name",
                "ph": "M",
                "pid": 3,
                "tid": 0,
                "args": {"name": "procpool workers"},
            })
            meta.extend(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 3,
                    "tid": tid,
                    "args": {"name": name},
                }
                for name, tid in sorted(proc_map.items(), key=lambda kv: kv[1])
            )
        return {"traceEvents": meta + events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path, trace_id: str | None = None) -> None:
        """Serialize :meth:`chrome_trace` to ``path`` (optionally one trace)."""
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(trace_id=trace_id), fh)


def _escape_label_value(value) -> str:
    """Escape a label value per the Prometheus text exposition format."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _unescape_label_value(value: str) -> str:
    """Inverse of :func:`_escape_label_value`."""
    out: list[str] = []
    i, n = 0, len(value)
    while i < n:
        c = value[i]
        if c == "\\" and i + 1 < n:
            nxt = value[i + 1]
            if nxt == "n":
                out.append("\n")
                i += 2
                continue
            if nxt in ('"', "\\"):
                out.append(nxt)
                i += 2
                continue
        out.append(c)
        i += 1
    return "".join(out)


def _parse_labels(raw: str) -> list[tuple[str, str]]:
    """Parse ``k="v",...`` respecting escaped quotes inside values."""
    pairs: list[tuple[str, str]] = []
    i, n = 0, len(raw)
    while i < n:
        eq = raw.find("=", i)
        if eq == -1:
            break
        key = raw[i:eq].strip().strip(",").strip()
        j = eq + 1
        if j >= n or raw[j] != '"':
            break
        j += 1
        buf: list[str] = []
        while j < n:
            c = raw[j]
            if c == "\\" and j + 1 < n:
                buf.append(raw[j:j + 2])
                j += 2
                continue
            if c == '"':
                break
            buf.append(c)
            j += 1
        pairs.append((key, _unescape_label_value("".join(buf))))
        i = j + 1
        if i < n and raw[i] == ",":
            i += 1
    return pairs


def _split_sample(line: str) -> tuple[str, str] | None:
    """Split one sample line into (flat series key, value literal).

    The flat key matches :meth:`Telemetry.counters` formatting (label
    values *unescaped*); an OpenMetrics exemplar suffix (``# {...} v``)
    after the value is dropped.
    """
    brace = line.find("{")
    space = line.find(" ")
    if brace != -1 and (space == -1 or brace < space):
        in_quote = False
        i = brace + 1
        while i < len(line):
            c = line[i]
            if in_quote:
                if c == "\\":
                    i += 2
                    continue
                if c == '"':
                    in_quote = False
            elif c == '"':
                in_quote = True
            elif c == "}":
                break
            i += 1
        if i >= len(line):
            return None
        labels = _parse_labels(line[brace + 1:i])
        rest = line[i + 1:].strip().split()
        if not rest:
            return None
        inner = ",".join(f'{k}="{v}"' for k, v in labels)
        return f"{line[:brace]}{{{inner}}}", rest[0]
    name, _, rest = line.partition(" ")
    parts = rest.split()
    if not name or not parts:
        return None
    return name, parts[0]


def parse_prometheus(text: str) -> dict[str, float]:
    """Parse Prometheus text exposition back into a flat counter dict.

    Inverse of :meth:`Telemetry.to_prometheus` for the subset it emits
    (used by the round-trip tests): comment lines are skipped, each
    sample line is ``name{labels} value`` with optional exemplar suffix.
    Escaped label values (backslash, quote, newline) are unescaped, so
    the returned keys match :meth:`Telemetry.counters` exactly even for
    hostile tenant strings.
    """
    out: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        sample = _split_sample(line)
        if sample is None:
            continue
        key, value = sample
        try:
            out[key] = float(value)
        except ValueError:
            continue
    return out

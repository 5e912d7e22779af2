"""Telemetry: counter correctness, exporters, and zero-overhead-off."""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.core.compressor import PFPLCompressor, compress, decompress
from repro.device.backend import ThreadedBackend
from repro.telemetry import (
    DECODE_STAGES,
    ENCODE_STAGES,
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    parse_prometheus,
)

CHUNK_VALUES = 4096  # one full float32 chunk at the default 16 kB geometry


@pytest.fixture
def chunk_with_outliers(rng) -> tuple[np.ndarray, int]:
    """One full chunk of smooth data with a known number of ABS outliers.

    Values beyond the denormal bin range under eps=1e-3 (e.g. 1e30) must
    take the lossless raw-word path, so the outlier count is exact.
    """
    data = np.cumsum(rng.normal(0, 0.01, CHUNK_VALUES)).astype(np.float32)
    outlier_at = [3, 500, 1024, 2047, 4000]
    data[outlier_at] = 1e30
    return data, len(outlier_at)


class TestCounters:
    def test_known_outliers_and_stage_bytes(self, chunk_with_outliers):
        data, n_outliers = chunk_with_outliers
        tel = Telemetry()
        comp = PFPLCompressor(mode="abs", error_bound=1e-3,
                              dtype=np.float32, telemetry=tel)
        result = comp.compress(data)

        assert tel.counter("chunks_encoded_total") == 1
        assert tel.counter("values_encoded_total") == CHUNK_VALUES
        assert tel.counter("outlier_values_total") == n_outliers
        assert tel.counter("raw_chunks_total") == 0
        assert tel.counter("chunk_bytes_in_total") == data.nbytes

        # Word-preserving stages carry exactly one chunk of words; only
        # zero elimination shrinks.
        stages = tel.stage_table("encode")
        word_bytes = CHUNK_VALUES * 4
        for name in ("quantize", "delta+negabinary", "bitshuffle"):
            assert stages[name]["bytes_in"] == word_bytes
            assert stages[name]["bytes_out"] == word_bytes
            assert stages[name]["calls"] == 1
        assert stages["zero-elim"]["bytes_in"] == word_bytes
        assert stages["zero-elim"]["bytes_out"] == tel.counter("chunk_bytes_out_total")
        assert stages["assemble"]["bytes_out"] == len(result.data)

    def test_decode_counters(self, smooth_f32):
        tel = Telemetry()
        blob = compress(smooth_f32, mode="abs", error_bound=1e-3)
        decompress(blob, telemetry=tel)
        n_chunks = -(-smooth_f32.size // CHUNK_VALUES)
        assert tel.counter("chunks_decoded_total") == n_chunks
        assert tel.counter("values_decoded_total") == smooth_f32.size
        # Chunk-major dispatch: the full-size chunks decode as one batch
        # shard (they fit the default 64-row cap), the ragged tail as one
        # per-chunk call -- so each stage runs exactly twice while the
        # chunk counters above still account for every chunk.
        n_full = smooth_f32.size // CHUNK_VALUES
        assert 0 < n_full <= 64 and smooth_f32.size % CHUNK_VALUES
        stages = tel.stage_table("decode")
        for name in DECODE_STAGES:
            assert stages[name]["calls"] == 2

    def test_raw_fallback_counted(self, rng):
        # Uniformly random words defeat every lossless stage, so each
        # chunk takes the raw fallback and the counter must say so.
        bits = rng.integers(0, 2**32, 8192, dtype=np.uint64).astype(np.uint32)
        data = bits.view(np.float32)
        tel = Telemetry()
        with np.errstate(invalid="ignore"):
            PFPLCompressor(mode="abs", error_bound=1e-3, dtype=np.float32,
                           telemetry=tel).compress(data)
        assert tel.counter("chunks_encoded_total") == 2
        assert tel.counter("raw_chunks_total") == 2

    def test_worker_counters_threaded(self, smooth_f32):
        tel = Telemetry()
        backend = ThreadedBackend(n_threads=4, telemetry=tel)
        PFPLCompressor(mode="abs", error_bound=1e-3, dtype=np.float32,
                       backend=backend, telemetry=tel).compress(smooth_f32)
        n_chunks = -(-smooth_f32.size // CHUNK_VALUES)
        items = [v for k, v in tel.counters().items()
                 if k.startswith("worker_items_total")]
        # The full-size chunks encode as one batch shard (14 rows stay
        # below the 16-row-per-shard split threshold) and the tail as
        # one per-chunk call; both are single-item maps the pool runs
        # inline.  Only the assemble scatter fans out across workers.
        assert sum(items) == n_chunks
        waits = [v for k, v in tel.counters().items()
                 if k.startswith("worker_queue_wait_seconds_total")]
        assert waits and all(w >= 0 for w in waits)

    def test_worker_labels_are_dense_pool_ids(self):
        # Regression: labels used to come from parsing thread *names*
        # (`ThreadPoolExecutor-0_3` -> "3"), which leaked pool-global
        # naming and went stale across pool rebuilds.  The backend now
        # owns a registry handing out dense ids in first-execution order.
        backend = ThreadedBackend(n_threads=4)
        try:
            ids = set(backend.map_chunks(
                lambda _i: backend.worker_id(), list(range(64))))
            assert ids <= set(range(4))
            assert min(ids) == 0, "ids must start at 0"
            assert ids == set(range(len(ids))), f"ids not dense: {sorted(ids)}"
            # Ids stay dense for the pool's lifetime: a second map may
            # recruit a lazily-created thread (new id), but the union
            # never skips a number.
            again = set(backend.map_chunks(
                lambda _i: backend.worker_id(), list(range(64))))
            both = ids | again
            assert both == set(range(len(both))), f"ids not dense: {sorted(both)}"
        finally:
            backend.close()

    def test_worker_ids_reset_when_pool_is_rebuilt(self):
        backend = ThreadedBackend(n_threads=2)
        try:
            backend.map_chunks(lambda _i: backend.worker_id(), list(range(8)))
            backend.close()
            ids = set(backend.map_chunks(
                lambda _i: backend.worker_id(), list(range(8))))
            assert min(ids) == 0, "fresh pool must restart the dense ids"
        finally:
            backend.close()


class TestExporters:
    def test_prometheus_round_trip(self, smooth_f32):
        tel = Telemetry()
        PFPLCompressor(mode="abs", error_bound=1e-3, dtype=np.float32,
                       telemetry=tel).compress(smooth_f32)
        text = tel.to_prometheus()
        parsed = parse_prometheus(text)
        expected = {f"pfpl_{k}": v for k, v in tel.counters().items()}
        # Counters round-trip exactly; the exposition also carries
        # histogram families (_bucket/_sum/_count), so subset not equality.
        assert expected.keys() <= parsed.keys()
        for key, value in expected.items():
            assert parsed[key] == pytest.approx(value, rel=1e-12)
        hist_lines = [k for k in parsed if "span_duration_seconds_bucket" in k]
        assert hist_lines and any('le="+Inf"' in k for k in hist_lines)

    def test_json_summary(self, smooth_f32):
        tel = Telemetry()
        PFPLCompressor(mode="abs", error_bound=1e-3, dtype=np.float32,
                       telemetry=tel).compress(smooth_f32)
        doc = json.loads(tel.to_json())
        assert doc["spans"] > 0 and doc["spans_dropped"] == 0
        assert set(ENCODE_STAGES) <= set(doc["stages"]["encode"])

    def test_chrome_trace_schema_and_coverage(self, smooth_f32, tmp_path):
        tel = Telemetry()
        blob = PFPLCompressor(mode="abs", error_bound=1e-3, dtype=np.float32,
                              telemetry=tel).compress(smooth_f32).data
        decompress(blob, telemetry=tel)
        trace = tel.chrome_trace()

        assert set(trace) == {"traceEvents", "displayTimeUnit"}
        for ev in trace["traceEvents"]:
            assert ev["ph"] in ("X", "M")
            assert isinstance(ev["pid"], int) and isinstance(ev["tid"], int)
            if ev["ph"] == "X":
                assert ev["ts"] >= 0 and ev["dur"] >= 0
                assert isinstance(ev["name"], str) and isinstance(ev["cat"], str)

        # Every chunk accounted per stage, encode and decode side: the
        # full-size chunks ride batch-stage spans (a `chunks` count),
        # the ragged tail keeps its per-chunk span (a `chunk` id).
        n_chunks = -(-smooth_f32.size // CHUNK_VALUES)
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        for stage in ENCODE_STAGES[:-1] + DECODE_STAGES:
            batched = sum(e["args"].get("chunks") or 0 for e in spans
                          if e["name"] == stage)
            singles = {e["args"].get("chunk") for e in spans
                       if e["name"] == stage} - {None}
            assert batched + len(singles) == n_chunks, stage

        # The file form round-trips through json.load.
        path = tmp_path / "trace.json"
        tel.write_chrome_trace(path)
        assert json.load(open(path)) == json.loads(json.dumps(trace))

    def test_span_cap_counts_drops(self):
        tel = Telemetry(max_spans=3)
        for i in range(5):
            with tel.span("s", cat="codec", i=i):
                pass
        assert len(tel.spans) == 3
        assert tel.summary()["spans_dropped"] == 2


class TestHistograms:
    """Fixed log-spaced duration buckets, quantiles, and their exposition."""

    def test_bounds_are_fixed_and_log_spaced(self):
        from repro.telemetry import HISTOGRAM_BOUNDS

        assert HISTOGRAM_BOUNDS[0] < 2e-6          # ~ microsecond floor
        assert HISTOGRAM_BOUNDS[-1] >= 8.0         # multi-second ceiling
        ratios = {HISTOGRAM_BOUNDS[i + 1] / HISTOGRAM_BOUNDS[i]
                  for i in range(len(HISTOGRAM_BOUNDS) - 1)}
        assert ratios == {2.0}

    def test_observation_and_overflow(self):
        tel = Telemetry()
        tel.histogram("lat", 5e-7)    # below the first bound
        tel.histogram("lat", 0.75)    # mid-range
        tel.histogram("lat", 1e9)     # beyond the last bound -> +Inf slot
        hist = tel.histograms()["lat"]
        assert hist["count"] == 3
        assert hist["sum"] == pytest.approx(5e-7 + 0.75 + 1e9)
        les = [le for le, _ in hist["buckets"]]
        cums = [c for _, c in hist["buckets"]]
        assert les[-1] == float("inf") and cums[-1] == 3
        assert cums == sorted(cums), "bucket counts must be cumulative"

    def test_span_durations_observed_automatically(self, smooth_f32):
        tel = Telemetry()
        PFPLCompressor(mode="abs", error_bound=1e-3, dtype=np.float32,
                       telemetry=tel).compress(smooth_f32)
        key = 'span_duration_seconds{cat="encode",span="quantize"}'
        hist = tel.histograms()[key]
        # Chunk-major dispatch: one batched quantize span for the
        # full-size chunks plus one for the ragged tail.
        assert hist["count"] == 2

    def test_quantiles_bracket_known_durations(self):
        tel = Telemetry()
        for _ in range(100):
            tel.record_span("k", cat="t", start=0.0, duration=0.003)
        p50 = tel.span_quantile(0.5, "t", "k")
        p99 = tel.span_quantile(0.99, "t", "k")
        # Quantiles resolve to a bucket upper bound: within one power of
        # two above the true duration.
        assert 0.003 <= p50 <= 0.006
        assert p50 == p99  # all observations identical

    def test_quantile_of_unobserved_span_is_zero(self):
        assert Telemetry().span_quantile(0.5, "t", "nope") == 0.0

    def test_latency_summary_rows(self, smooth_f32):
        tel = Telemetry()
        PFPLCompressor(mode="abs", error_bound=1e-3, dtype=np.float32,
                       telemetry=tel).compress(smooth_f32)
        rows = tel.span_latency_summary()
        assert rows == sorted(rows, key=lambda r: (r["cat"], r["span"]))
        by_span = {(r["cat"], r["span"]): r for r in rows}
        quant = by_span[("encode", "quantize")]
        # One batched span (all full-size chunks) + one tail span.
        assert quant["count"] == 2
        assert 0 < quant["p50"] <= quant["p99"]

    def test_prometheus_histogram_exposition(self, smooth_f32):
        tel = Telemetry()
        PFPLCompressor(mode="abs", error_bound=1e-3, dtype=np.float32,
                       telemetry=tel).compress(smooth_f32)
        text = tel.to_prometheus()
        parsed = parse_prometheus(text)
        prefix = 'pfpl_span_duration_seconds'
        buckets = [(k, v) for k, v in parsed.items()
                   if k.startswith(prefix + "_bucket")
                   and 'span="quantize"' in k]
        assert buckets, "no histogram families exported"
        counts = [v for _, v in buckets]
        assert counts == sorted(counts), "le buckets must be cumulative"
        inf_key = [k for k, _ in buckets if 'le="+Inf"' in k]
        assert inf_key, "+Inf bucket missing"
        count_key = [k for k in parsed
                     if k.startswith(prefix + "_count") and 'span="quantize"' in k]
        assert parsed[count_key[0]] == parsed[inf_key[0]]

    def test_null_telemetry_histogram_api_is_inert(self):
        assert NULL_TELEMETRY.histogram("x", 1.0) is None
        assert NULL_TELEMETRY.record_span("x", cat="c", start=0.0,
                                          duration=1.0) is None
        assert NULL_TELEMETRY.now() == 0.0


class TestSimTracks:
    """GpuSimBackend's modeled per-SM tracks in the Chrome trace."""

    @pytest.fixture
    def sim_trace(self):
        from repro.device.backend import GpuSimBackend

        tel = Telemetry()
        rng = np.random.default_rng(21)
        data = np.cumsum(rng.normal(0, 0.01, CHUNK_VALUES * 40)).astype(np.float32)
        backend = GpuSimBackend(telemetry=tel)
        PFPLCompressor(mode="abs", error_bound=1e-3, dtype=np.float32,
                       backend=backend, telemetry=tel).compress(data)
        return tel, backend, tel.chrome_trace()

    def test_one_thread_per_virtual_sm(self, sim_trace):
        tel, backend, trace = sim_trace
        names = {e["args"]["name"] for e in trace["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"
                 and e["pid"] == 2}
        assert names == {f"sm-{i}" for i in range(backend.wave)}
        procs = {e["args"]["name"] for e in trace["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "process_name"
                 and e["pid"] == 2}
        assert procs == {"gpu-sim (modeled)"}

    def test_modeled_spans_live_on_pid_2(self, sim_trace):
        tel, backend, trace = sim_trace
        sim = [e for e in trace["traceEvents"]
               if e["ph"] == "X" and e["pid"] == 2]
        assert sim and all(e["name"] == "block_exec" for e in sim)
        # Measured spans stay on pid 1: the two timelines sit side by side.
        measured = [e for e in trace["traceEvents"]
                    if e["ph"] == "X" and e["pid"] == 1]
        assert measured

    def test_tracks_never_overlap_within_an_sm(self, sim_trace):
        tel, backend, trace = sim_trace
        by_tid: dict[int, list] = {}
        for e in trace["traceEvents"]:
            if e["ph"] == "X" and e["pid"] == 2:
                by_tid.setdefault(e["tid"], []).append(e)
        assert len(by_tid) > 1
        for events in by_tid.values():
            events.sort(key=lambda e: e["ts"])
            for prev, nxt in zip(events, events[1:]):
                assert prev["ts"] + prev["dur"] <= nxt["ts"], \
                    "modeled spans on one SM overlap"

    def test_wave_and_sm_counters(self, sim_trace):
        tel, backend, trace = sim_trace
        counters = tel.counters()
        # 40 chunks, wave=16 -> 3 waves for encode + 3 for the assemble
        # scatter pass (compress maps twice).
        assert counters["sim_waves_total"] == 6
        busy = {k: v for k, v in counters.items()
                if k.startswith("sim_sm_busy_seconds_total")}
        assert len(busy) == backend.wave
        assert all(v > 0 for v in busy.values())

    def test_trace_is_json_serializable(self, sim_trace):
        _tel, _backend, trace = sim_trace
        json.loads(json.dumps(trace))


class TestDisabled:
    def test_null_singleton_is_inert(self):
        assert NULL_TELEMETRY.enabled is False
        with NULL_TELEMETRY.span("x", cat="encode", bytes_in=1) as sp:
            sp.set(bytes_out=2)
        with NULL_TELEMETRY.chunk(3):
            pass
        NULL_TELEMETRY.add("anything", 42)
        assert isinstance(NULL_TELEMETRY, NullTelemetry)

    def test_output_bytes_identical_on_and_off(self, smooth_f32):
        """Instrumentation must never change the stream (format untouched)."""
        off = compress(smooth_f32, mode="abs", error_bound=1e-3)
        on = compress(smooth_f32, mode="abs", error_bound=1e-3,
                      telemetry=Telemetry())
        assert off == on

    def test_null_overhead_within_noise(self, rng):
        """The off path must stay close to free (loose, timing-based)."""
        data = np.cumsum(rng.normal(0, 0.01, 1 << 21)).astype(np.float32)  # 8 MB
        comp = PFPLCompressor(mode="abs", error_bound=1e-3, dtype=np.float32)
        comp.compress(data)  # warm numpy / allocator
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            comp.compress(data)
            times.append(time.perf_counter() - t0)
        best = min(times)
        # The null spans of a batched compress (a few per 64-chunk shard)
        # cannot cost a meaningful fraction of a multi-MB compress; 8 MB
        # in >2 s would mean the instrumented path regressed by an order
        # of magnitude.
        assert best < 2.0, f"null-telemetry compress took {best:.2f}s for 8 MB"


class TestRecorder:
    def test_reset_clears_everything(self):
        tel = Telemetry()
        tel.add("c", 1)
        with tel.span("s"):
            pass
        tel.reset()
        assert tel.counters() == {} and tel.spans == []

    def test_chunk_scope_nests(self):
        tel = Telemetry()
        with tel.chunk(7):
            with tel.chunk(9):
                with tel.span("inner"):
                    pass
            with tel.span("outer"):
                pass
        assert [s.args["chunk"] for s in tel.spans] == [9, 7]

    def test_counter_labels_are_distinct(self):
        tel = Telemetry()
        tel.add("n", 1, worker="0")
        tel.add("n", 2, worker="1")
        tel.add("n", 3)
        assert tel.counter("n", worker="0") == 1
        assert tel.counter("n", worker="1") == 2
        assert tel.counter("n") == 3

"""``archive-rel-f32``: a time-series archive written with the streaming
writer (REL 1e-3, format v3 with all three candidate pipelines) and read
back by analysts.

Each round writes the whole series (every fourth timestep is sparse,
so selection really picks between pipelines), scans it once
with ``iter_chunks`` and serves random 8192-value windows from decoders
opened per session of 10 reads.  The writes run the REL quantizer and
selection's extra zero-elimination passes; the reads run the per-chunk
decode, header/size-table validation and per-pipeline-id paths.
"""

from __future__ import annotations

import io
import time

import numpy as np

import layers
from benchlib import Counts, bound_violations, copy_gbps, median, quantile, same_bits
from repro.core.compressor import decompress
from repro.core.random_access import StreamDecoder
from repro.core.scratch import scratch_bytes_total
from repro.io import PFPLWriter

MODE, BOUND = "rel", 1e-3
WINDOW = 8192
SESSION_READS = 10
SESSIONS_PER_ROUND = 3


class Archive:
    def __init__(self, steps: np.ndarray, counts: Counts, seed: int, inject_nan: bool):
        self.steps = list(steps)
        self.flat = steps.reshape(-1)
        self.counts = counts
        self.rng = np.random.default_rng([seed, 3])
        self.window = min(WINDOW, self.flat.size)
        # Warm-up and references (untimed): the one-shot batch decoder's
        # output is the reference the per-chunk scan and reads must match.
        self.ref, self.writer_stats = self._write()
        self.recon = decompress(self.ref)
        checked = self.recon
        if inject_nan:
            checked = self.recon.copy()
            checked[checked.size // 3] = np.nan
        counts.check(bound_violations(self.flat, checked, MODE, BOUND) == 0, "bound")
        self.scan()
        self.reads(1)

    def _write(self) -> tuple[bytes, object]:
        sink = io.BytesIO()
        writer = PFPLWriter(sink, mode=MODE, error_bound=BOUND, format_version=3)
        for step in self.steps:
            writer.append(step)
        writer.close()
        return sink.getvalue(), writer.stats

    def write(self) -> float:
        """One write session, append through close; returns seconds."""
        t0 = time.perf_counter()
        stream, _ = self._write()
        dt = time.perf_counter() - t0
        self.counts.check(stream == self.ref, "archive-stream-bytes")
        return dt

    def scan(self) -> float:
        """Open a decoder and iterate every chunk in order; returns seconds."""
        t0 = time.perf_counter()
        chunks = list(StreamDecoder(self.ref).iter_chunks())
        dt = time.perf_counter() - t0
        self.counts.check(same_bits(np.concatenate(chunks), self.recon), "scan-recon-bits")
        return dt

    def reads(self, sessions: int) -> list[float]:
        """Random windows, one fresh decoder per session; seconds per read."""
        lat = []
        for _ in range(sessions):
            dec = StreamDecoder(self.ref)
            for _ in range(SESSION_READS):
                start = int(self.rng.integers(0, self.flat.size - self.window + 1))
                t0 = time.perf_counter()
                got = dec.decode_range(start, self.window)
                lat.append(time.perf_counter() - t0)
                self.counts.check(same_bits(got, self.recon[start:start + self.window]),
                                  "read-recon-bits")
        return lat


def run(steps, seconds: float, trace: bool, counts: Counts, seed: int,
        inject_nan: bool, notes: list[str]) -> dict:
    bench = Archive(steps, counts, seed, inject_nan)
    if not trace:
        return _untraced(bench, seconds, notes)
    return _traced(bench, seconds, notes)


def _round(bench: Archive, k: int, tracer=None) -> tuple[dict, dict]:
    """One write, one scan and the read sessions, in an order rotated by
    ``k``; returns ``{op: seconds}`` and ``{op: layer phase}``."""
    ops = ["write", "scan", "reads"]
    ops = ops[k % 3:] + ops[:k % 3]
    secs, phases = {}, {}
    for op in ops:
        s0 = tracer.snapshot() if tracer else None
        if op == "reads":
            secs[op] = bench.reads(SESSIONS_PER_ROUND)
        else:
            secs[op] = getattr(bench, op)()
        if tracer:
            phases[op] = tracer.delta(tracer.snapshot(), s0)
    return secs, phases


def _untraced(bench: Archive, seconds: float, notes: list[str]) -> dict:
    nbytes = bench.flat.nbytes
    write_s, scan_s, read_ms = [], [], []
    deadline = time.perf_counter() + seconds
    k = 0
    while k == 0 or time.perf_counter() < deadline:
        secs, _ = _round(bench, k)
        write_s.append(secs["write"])
        scan_s.append(secs["scan"])
        read_ms += [1e3 * s for s in secs["reads"]]
        k += 1
    notes.append(f"archive: {k} rounds of {nbytes / 2**20:.1f} MiB; {len(read_ms)} "
                 f"reads of {bench.window} values (latency = one window read)")
    return {
        "compress_gbps": (nbytes / median(write_s) / 1e9, "GB/s"),
        "decompress_gbps": (nbytes / median(scan_s) / 1e9, "GB/s"),
        "ratio": (nbytes / len(bench.ref), "x"),
        "latency_ms_p50": (median(read_ms), "ms"),
        "latency_ms_p90": (quantile(read_ms, 0.9), "ms"),
    }


def _traced(bench: Archive, seconds: float, notes: list[str]) -> dict:
    """Untraced and traced rounds alternate."""
    tracer = layers.Tracer()
    plain = {"write": [], "scan": [], "reads": []}
    traced = {"write": [], "scan": [], "reads": []}
    phases = {"write": [], "scan": [], "reads": []}
    deadline = time.perf_counter() + seconds
    k = 0
    while k < 2 or time.perf_counter() < deadline:
        if k % 2:
            with tracer:
                secs, ph = _round(bench, k // 2, tracer)
            for op in phases:
                phases[op].append(ph[op])
                traced[op].append(secs[op])
        else:
            secs, _ = _round(bench, k // 2)
            for op in plain:
                plain[op].append(secs[op])
        k += 1

    m = layers.blank_layers()
    base_w, base_s = median(plain["write"]), median(plain["scan"])
    layers.codec_layers(m, phases["write"], phases["scan"], traced["write"],
                        traced["scan"], base_w, base_s, notes)
    layers.stream_layers(m, bench.ref)
    st = bench.writer_stats
    m["quantizers.outlier_fraction"][0] = st.lossless / st.total
    m["io.append_s"][0] = median([ph["incl"].get("io_append", 0.0) for ph in phases["write"]])
    m["io.close_s"][0] = median([ph["incl"].get("io_close", 0.0) for ph in phases["write"]])
    reads = phases["reads"]
    m["ra.open_s"][0] = median([ph["incl"]["ra_open"] / ph["calls"]["ra_open"] for ph in reads])
    m["ra.decode_range_s"][0] = median(
        [ph["incl"]["ra_range"] / ph["calls"]["ra_range"] for ph in reads])
    m["ra.read_amplification"][0] = median(
        [ph["count"].get("values_decoded", 0) / (ph["calls"]["ra_range"] * bench.window)
         for ph in reads])
    plain_trip = base_w + base_s
    m["trace.overhead_fraction"][0] = (
        median([w + s for w, s in zip(traced["write"], traced["scan"])]) / plain_trip - 1.0)
    m["scratch.bytes"][0] = scratch_bytes_total()["bytes"]
    m["host.copy_gbps"][0] = copy_gbps()
    plain_reads = [s for r in plain["reads"] for s in r]
    notes.append(f"archive traced: {k} rounds; untraced write {base_w * 1e3:.1f} ms, scan "
                 f"{base_s * 1e3:.1f} ms, read p50 {median(plain_reads) * 1e3:.3f} ms")
    return m

"""``bulk-abs-f32``: one large smooth field, ABS 1e-3, format v1.

Whole-array compress and decompress.  The batch kernel stages do nearly
all the work; selection, the per-chunk path, random access and the
service are bypassed, which makes this the control workload for changes
to those.  The untraced run times the serial backend; the threaded
backend (one thread per usable CPU) is checked byte-for-byte against it
and timed in the traced run.
"""

from __future__ import annotations

import time

import numpy as np

import layers
from benchlib import Counts, bound_violations, copy_gbps, median, quantile, same_bits
from repro.core.compressor import PFPLCompressor, decompress
from repro.core.scratch import scratch_bytes_total
from repro.device.backend import SerialBackend, ThreadedBackend

MODE, BOUND = "abs", 1e-3


class Bulk:
    def __init__(self, data: np.ndarray, counts: Counts, threads: int, inject_nan: bool):
        self.data = data.reshape(-1)
        self.counts = counts
        self.serial = SerialBackend()
        self.threaded = ThreadedBackend(n_threads=threads) if threads >= 2 else None
        self.comp = {b: PFPLCompressor(MODE, BOUND, backend=b)
                     for b in (self.serial, self.threaded) if b is not None}
        # Warm-up, excluded from every timing: the first operation on each
        # backend (scratch arenas, thread pool) also yields the reference
        # outputs every later operation is compared against.
        self.ref = self.comp[self.serial].compress(self.data).data
        self.recon = decompress(self.ref, backend=self.serial)
        checked = self.recon
        if inject_nan:
            checked = self.recon.copy()
            checked[checked.size // 2] = np.nan
        counts.check(bound_violations(self.data, checked, MODE, BOUND) == 0, "bound")
        if self.threaded is not None:
            self.threaded.warm()
            self.op(self.threaded)

    def op(self, backend, tracer=None):
        """One compress + decompress on ``backend``, each output checked.

        Returns ``(compress_s, decompress_s, encode_phase, decode_phase)``;
        the phases are per-layer snapshots when ``tracer`` is installed.
        """
        s0 = tracer.snapshot() if tracer else None
        t0 = time.perf_counter()
        result = self.comp[backend].compress(self.data)
        t1 = time.perf_counter()
        s1 = tracer.snapshot() if tracer else None
        t1b = time.perf_counter()
        out = decompress(result.data, backend=backend)
        t2 = time.perf_counter()
        s2 = tracer.snapshot() if tracer else None
        self.counts.check(result.data == self.ref, f"{backend.name}-stream-bytes")
        self.counts.check(same_bits(out, self.recon), f"{backend.name}-recon-bits")
        if tracer is None:
            return t1 - t0, t2 - t1b, None, None
        return t1 - t0, t2 - t1b, tracer.delta(s1, s0), tracer.delta(s2, s1)

    def close(self) -> None:
        for backend in self.comp:
            backend.close()


def run(data, seconds: float, trace: bool, counts: Counts, threads: int,
        inject_nan: bool, notes: list[str]) -> dict:
    bench = Bulk(data, counts, threads, inject_nan)
    try:
        if not trace:
            return _untraced(bench, seconds, notes)
        return _traced(bench, seconds, notes)
    finally:
        bench.close()


def _untraced(bench: Bulk, seconds: float, notes: list[str]) -> dict:
    nbytes = bench.data.nbytes
    comp_s, dec_s = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        tc, td, _, _ = bench.op(bench.serial)
        comp_s.append(tc)
        dec_s.append(td)
    trip_ms = [1e3 * (c + d) for c, d in zip(comp_s, dec_s)]
    notes.append(f"bulk: {len(comp_s)} serial round trips of {nbytes / 2**20:.0f} MiB "
                 "(latency = one compress + one decompress)")
    return {
        "compress_gbps": (nbytes / median(comp_s) / 1e9, "GB/s"),
        "decompress_gbps": (nbytes / median(dec_s) / 1e9, "GB/s"),
        "ratio": (nbytes / len(bench.ref), "x"),
        "latency_ms_p50": (median(trip_ms), "ms"),
        "latency_ms_p90": (quantile(trip_ms, 0.9), "ms"),
    }


def _traced(bench: Bulk, seconds: float, notes: list[str]) -> dict:
    """Rounds of untraced and traced operations on both backends, the
    order rotated every round so no variant always runs first."""
    nbytes = bench.data.nbytes
    variants = [(bench.serial, False), (bench.serial, True)]
    if bench.threaded is not None:
        variants += [(bench.threaded, False), (bench.threaded, True)]
    times = {v: ([], []) for v in variants}
    enc, dec, par = [], [], []
    tracer = layers.Tracer()
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds == 0 or time.perf_counter() < deadline:
        k = rounds % len(variants)
        for variant in variants[k:] + variants[:k]:
            backend, traced = variant
            if traced:
                with tracer:
                    tc, td, pe, pd = bench.op(backend, tracer)
                if backend is bench.serial:
                    enc.append(pe)
                    dec.append(pd)
                else:
                    par.append((pe, pd))
            else:
                tc, td, _, _ = bench.op(backend)
            times[variant][0].append(tc)
            times[variant][1].append(td)
        rounds += 1

    m = layers.blank_layers()
    serial_c, serial_d = times[(bench.serial, False)]
    base_c, base_d = median(serial_c), median(serial_d)
    traced_c, traced_d = times[(bench.serial, True)]
    layers.codec_layers(m, enc, dec, traced_c, traced_d, base_c, base_d, notes)
    layers.stream_layers(m, bench.ref)
    result = bench.comp[bench.serial].compress(bench.data)
    m["quantizers.outlier_fraction"][0] = result.lossless_values / result.total_values
    traced_trip = median([c + d for c, d in zip(traced_c, traced_d)])
    m["trace.overhead_fraction"][0] = traced_trip / (base_c + base_d) - 1.0
    if par:
        n = bench.threaded.n_threads
        wall = [pe["incl"].get("backend", 0.0) + pd["incl"].get("backend", 0.0) for pe, pd in par]
        busy = [pe["count"].get("worker_busy_s", 0.0) + pd["count"].get("worker_busy_s", 0.0)
                for pe, pd in par]
        m["backend.map_batch_s"][0] = median(wall)
        m["backend.shards"][0] = median(
            [pe["count"].get("shards", 0) + pd["count"].get("shards", 0) for pe, pd in par])
        m["backend.worker_busy_s"][0] = median(busy)
        m["backend.worker_idle_fraction"][0] = median(
            [1.0 - b / (n * w) for b, w in zip(busy, wall) if w])
        par_c, par_d = times[(bench.threaded, False)]
        m["backend.par_compress_gbps"][0] = nbytes / median(par_c) / 1e9
        m["backend.par_decompress_gbps"][0] = nbytes / median(par_d) / 1e9
        notes.append(f"threaded x{n}: compress {median(par_c) * 1e3:.1f} ms, decompress "
                     f"{median(par_d) * 1e3:.1f} ms; serial {base_c * 1e3:.1f} / "
                     f"{base_d * 1e3:.1f} ms ({len(par_c)} untraced round trips each)")
    m["scratch.bytes"][0] = scratch_bytes_total()["bytes"]
    m["host.copy_gbps"][0] = copy_gbps()
    notes.append(f"bulk traced: {rounds} rounds of {len(variants)} interleaved variants")
    return m

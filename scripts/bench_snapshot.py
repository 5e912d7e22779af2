#!/usr/bin/env python
"""Measured performance snapshot: the codec on the synthetic corpus.

Compresses and decompresses a small synthetic corpus (the same field
families the figures use) on the serial and threaded backends with
telemetry enabled, then writes a JSON snapshot -- throughput in GB/s,
compression ratio, outlier and raw-fallback rates, and the measured
per-stage time/byte split -- so the ROADMAP's "fast as the hardware
allows" goal has a concrete baseline to regress against.  Optionally
also dumps one Chrome ``trace_event`` timeline of the threaded run.

Since the chunk-major refactor each (field, backend) pair is measured
twice -- ``variant="batched"`` (the default dispatch) and
``variant="per-chunk"`` (the same backend declining chunk-major batches,
see :class:`PerChunkSerialBackend`) -- so the snapshot both records the
speedup and keeps the per-chunk path honest.  The process
pool (``procpool``) measures the batched variant only: its per-chunk
path runs inline in the parent and would just re-measure serial.

Two service cells ride along: ``pfpl serve``'s concurrent-streams
throughput (8 simultaneous compress / decompress requests against an
in-process service on the procpool backend) with the request-latency
p50/p99 the Prometheus scrape would report.

Format-v3 cells measure per-chunk pipeline selection against the fixed
legacy pipeline on three regimes (smooth spectral, sparse, particle
positions): each field appears as ``variant="v2-fixed"`` and
``variant="v3-select"``, the latter carrying the per-pipeline selection
rates read from the ``pipeline_selected_total`` counters.

Usage::

    PYTHONPATH=src python scripts/bench_snapshot.py                   # full
    PYTHONPATH=src python scripts/bench_snapshot.py --quick           # CI smoke
    PYTHONPATH=src python scripts/bench_snapshot.py --trace t.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import sys
import time

import numpy as np

from repro.core.compressor import PFPLCompressor, decompress
from repro.datasets.synthesis import (
    brownian_walk,
    gaussian_mixture_series,
    particle_data,
    spectral_field,
)
from repro.device.backend import (
    ProcessPoolBackend,
    SerialBackend,
    ThreadedBackend,
)
from repro.log import enable_logging, get_logger
from repro.service import PFPLService, ServiceConfig
from repro.telemetry import Telemetry

log = get_logger("bench")


class PerChunkSerialBackend(SerialBackend):
    """Serial backend that declines chunk-major batches: every chunk runs
    the per-chunk kernel (the ``per-chunk`` cells)."""

    batch_capable = False


class PerChunkThreadedBackend(ThreadedBackend):
    """Thread pool that declines chunk-major batches (``per-chunk`` cells)."""

    batch_capable = False


def corpus(quick: bool) -> list[tuple[str, np.ndarray]]:
    """Deterministic fields, one per family (smaller under ``--quick``)."""
    side = 128 if quick else 512
    n = side * side
    return [
        ("spectral_f32", spectral_field((side, side), beta=3.0, seed=7).reshape(-1)),
        ("brownian_f32", brownian_walk(n, seed=7, step_std=0.02).astype(np.float32)),
        ("mixture_f64", gaussian_mixture_series(n, seed=7)),
    ]


def bench_one(
    name: str, data: np.ndarray, backend, backend_name: str,
    mode: str, bound: float, repeats: int,
) -> tuple[dict, Telemetry]:
    """One (field, backend, variant) cell: best-of-``repeats`` round trip."""
    variant = "batched" if backend.batch_capable else "per-chunk"
    tel = Telemetry()
    comp = PFPLCompressor(
        mode=mode, error_bound=bound, dtype=data.dtype,
        backend=backend, telemetry=tel,
    )
    enc_s, dec_s = [], []
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = comp.compress(data)
        t1 = time.perf_counter()
        recon = decompress(result.data, backend=backend, telemetry=tel)
        t2 = time.perf_counter()
        enc_s.append(t1 - t0)
        dec_s.append(t2 - t1)
        if recon.size != data.size:
            raise AssertionError(f"{name}: round-trip size mismatch")

    n_chunks = tel.counter("chunks_encoded_total")
    stage_split = {
        stage: {
            "seconds": row["seconds"],
            "bytes_in": int(row["bytes_in"]),
            "bytes_out": int(row["bytes_out"]),
        }
        for stage, row in tel.stage_table("encode").items()
    }
    cell = {
        "field": name,
        "backend": backend_name,
        "variant": variant,
        "mode": mode,
        "bound": bound,
        "values": int(data.size),
        "bytes": int(data.nbytes),
        "ratio": result.ratio,
        "encode_seconds": min(enc_s),
        "decode_seconds": min(dec_s),
        "encode_gbps": data.nbytes / min(enc_s) / 1e9,
        "decode_gbps": data.nbytes / min(dec_s) / 1e9,
        "outlier_rate": tel.counter("outlier_values_total") / max(1, data.size * repeats),
        "fallback_rate": tel.counter("raw_chunks_total") / max(1, n_chunks),
        "encode_stage_split": stage_split,
    }
    log.info("%s/%s/%s: enc %.3f GB/s dec %.3f GB/s ratio %.2f",
             name, backend_name, variant, cell["encode_gbps"],
             cell["decode_gbps"], cell["ratio"])
    return cell, tel


def selection_corpus(quick: bool) -> list[tuple[str, np.ndarray]]:
    """The regimes where selection should (and should not) win."""
    side = 128 if quick else 512
    n = side * side
    rng = np.random.default_rng(7)
    sparse = np.zeros(n, dtype=np.float32)
    sparse[rng.integers(0, n, n // 64)] = rng.normal(0, 10, n // 64)
    return [
        ("spectral_f32", spectral_field((side, side), beta=3.0, seed=7).reshape(-1)),
        ("sparse_f32", sparse),
        ("particle_f32", particle_data(n, kind="position", seed=7)),
    ]


def bench_selection(quick: bool, repeats: int) -> list[dict]:
    """Fixed-pipeline vs format-v3 selection on the selection corpus.

    Serial backend, so the cells isolate the codec cost of evaluating
    every candidate (selection trades encode throughput for ratio; the
    trend gate holds the ratio side, ``bench_compare
    --assert-selection-ratio`` the win condition).
    """
    cells = []
    for name, data in selection_corpus(quick):
        for variant, kwargs in (("v2-fixed", {}), ("v3-select",
                                                   {"format_version": 3})):
            tel = Telemetry()
            comp = PFPLCompressor(
                mode="abs", error_bound=1e-3, dtype=data.dtype,
                backend=SerialBackend(), telemetry=tel, **kwargs,
            )
            enc_s, dec_s = [], []
            result = None
            for _ in range(repeats):
                t0 = time.perf_counter()
                result = comp.compress(data)
                t1 = time.perf_counter()
                recon = decompress(result.data, telemetry=tel)
                t2 = time.perf_counter()
                enc_s.append(t1 - t0)
                dec_s.append(t2 - t1)
                if recon.size != data.size:
                    raise AssertionError(f"{name}: round-trip size mismatch")
            n_chunks = tel.counter("chunks_encoded_total")
            selection_rate = {}
            for key, value in tel.counters().items():
                if key.startswith("pipeline_selected_total{"):
                    pipeline = key.split('pipeline="', 1)[1].rstrip('"}')
                    selection_rate[pipeline] = value / max(1, n_chunks)
            cell = {
                "field": name,
                "backend": "serial",
                "variant": variant,
                "mode": "abs",
                "bound": 1e-3,
                "values": int(data.size),
                "bytes": int(data.nbytes),
                "ratio": result.ratio,
                "encode_seconds": min(enc_s),
                "decode_seconds": min(dec_s),
                "encode_gbps": data.nbytes / min(enc_s) / 1e9,
                "decode_gbps": data.nbytes / min(dec_s) / 1e9,
                "fallback_rate": tel.counter("raw_chunks_total") / max(1, n_chunks),
                "selection_rate": selection_rate,
            }
            cells.append(cell)
            log.info("%s/%s: enc %.3f GB/s ratio %.2f selection %s",
                     name, variant, cell["encode_gbps"], cell["ratio"],
                     {k: round(v, 3) for k, v in selection_rate.items()} or "-")
    return cells


async def _drive_service(service: PFPLService, bodies: list[bytes], op: str,
                         params: str) -> float:
    """Fire all ``bodies`` at the service concurrently; returns seconds."""
    host, port = await service.start()

    async def one(body: bytes, tenant: int) -> None:
        reader, writer = await asyncio.open_connection(host, port)
        head = (
            f"POST /v1/{op}?{params}&tenant=bench{tenant} HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        writer.write(head.encode() + body)
        await writer.drain()
        status = await reader.readline()
        if b"200" not in status:
            raise AssertionError(f"service {op} failed: {status!r}")
        await reader.read()  # drain headers + body (Connection: close)
        writer.close()
        await writer.wait_closed()

    t0 = time.perf_counter()
    await asyncio.gather(*[one(b, i) for i, b in enumerate(bodies)])
    elapsed = time.perf_counter() - t0
    await service.shutdown()
    return elapsed


def bench_service(quick: bool, n_streams: int = 8) -> list[dict]:
    """Concurrent-streams service cells: 8x compress, then 8x decompress.

    Measures aggregate wall-clock throughput of ``n_streams``
    simultaneous requests against an in-process ``PFPLService`` on the
    procpool backend -- the "many small streams" serving shape, not the
    single-array kernel shape the other cells measure.
    """
    side = 128 if quick else 512
    rng_fields = [
        spectral_field((side, side), beta=3.0, seed=100 + i).reshape(-1)
        for i in range(n_streams)
    ]
    raw = [f.tobytes() for f in rng_fields]
    compressed = [
        PFPLCompressor(mode="abs", error_bound=1e-3, dtype=np.float32)
        .compress(f).data
        for f in rng_fields
    ]
    cells = []
    for op, bodies, params in (
        ("compress", raw, "mode=abs&bound=1e-3&dtype=f4"),
        ("decompress", compressed, ""),
    ):
        service = PFPLService(ServiceConfig(port=0, backend="procpool"))
        elapsed = asyncio.run(_drive_service(service, bodies, op, params))
        total = sum(len(b) for b in bodies)
        tel = service.telemetry
        cells.append({
            "field": "service_streams",
            "backend": "procpool",
            "variant": f"serve-{op}-{n_streams}x",
            "mode": "abs",
            "bound": 1e-3,
            "streams": n_streams,
            "bytes": total,
            "encode_seconds": elapsed,
            "encode_gbps": total / elapsed / 1e9,
            "latency_p50_s": tel.span_quantile(0.5, "service", op),
            "latency_p99_s": tel.span_quantile(0.99, "service", op),
        })
        log.info("service/%s: %d streams, %.3f GB/s aggregate, p99 %.3fs",
                 op, n_streams, cells[-1]["encode_gbps"],
                 cells[-1]["latency_p99_s"])
    return cells


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true", help="small corpus (CI smoke)")
    ap.add_argument("--out", default="BENCH_PR10.json", help="snapshot JSON path")
    ap.add_argument("--trace", default=None, metavar="FILE",
                    help="write a Chrome trace of the first threaded run")
    ap.add_argument("--mode", default="abs", choices=("abs", "rel", "noa"))
    ap.add_argument("--bound", type=float, default=1e-3)
    ap.add_argument("--repeats", type=int, default=None,
                    help="timed repeats per cell (default 1 quick / 3 full)")
    ap.add_argument("-v", "--verbose", action="count", default=1)
    args = ap.parse_args(argv)
    enable_logging(args.verbose)
    repeats = args.repeats or (1 if args.quick else 3)

    # The procpool's per-chunk path runs inline in the parent (it would
    # just re-measure serial), so only its batched variant is a real cell.
    backends = [
        ("serial", (SerialBackend(), PerChunkSerialBackend())),
        ("threaded", (ThreadedBackend(), PerChunkThreadedBackend())),
        ("procpool", (ProcessPoolBackend(),)),
    ]
    cells = []
    trace_written = False
    for name, data in corpus(args.quick):
        for backend_name, variants in backends:
            for backend in variants:
                cell, tel = bench_one(
                    name, data, backend, backend_name, args.mode, args.bound,
                    repeats,
                )
                cells.append(cell)
                if (args.trace and backend_name == "threaded"
                        and backend.batch_capable and not trace_written):
                    tel.write_chrome_trace(args.trace)
                    trace_written = True
                    log.info("wrote %d trace spans to %s", len(tel.spans), args.trace)
    for _, variants in backends:
        for backend in variants:
            backend.close()
    cells.extend(bench_selection(args.quick, repeats))
    cells.extend(bench_service(args.quick))

    snapshot = {
        "bench": "PR10 pipeline-selection snapshot",
        "quick": bool(args.quick),
        "mode": args.mode,
        "bound": args.bound,
        "repeats": repeats,
        "host": {
            "platform": platform.platform(),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "cpus": os.cpu_count(),
        },
        "cells": cells,
    }
    with open(args.out, "w") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)
        fh.write("\n")
    log.info("wrote %d cells to %s", len(cells), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

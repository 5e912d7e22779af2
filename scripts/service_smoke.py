#!/usr/bin/env python
"""CI smoke test for ``pfpl serve``: boot, concurrent load, scrape, drain.

Starts the real CLI entry point as a subprocess (with ``--access-log``),
drives ``--streams`` simultaneous compress and decompress requests
against it (asserting every compressed body is byte-identical to the
in-process serial reference), then as many format-v3 ones whose streams
each hold at least two pipeline ids, sends one traced request with an inbound
``traceparent`` and asserts ``/debug/trace/<id>`` shows the trace
spanning all three tiers (service span, job thread, worker track),
scrapes ``/metrics`` for the per-tenant counters and the
``span_duration_seconds`` latency histogram, checks the access log
joins on the trace id, then sends ``SIGTERM`` and asserts the
graceful-drain lines and a zero exit.

Usage::

    PYTHONPATH=src python scripts/service_smoke.py
    PYTHONPATH=src python scripts/service_smoke.py --backend serial --streams 12
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.core.chunking import ChunkCodec
from repro.core.compressor import compress, decompress
from repro.core.header import HEADER_BYTES, Header
from repro.telemetry import parse_prometheus

BOOT_TIMEOUT_S = 60
REQUEST_TIMEOUT_S = 120


def start_server(
    backend: str, workers: int, access_log: str | None = None
) -> tuple[subprocess.Popen, int]:
    """Launch ``pfpl serve`` on an ephemeral port; returns (proc, port)."""
    cmd = [
        sys.executable, "-m", "repro.cli", "serve",
        "--port", "0", "--backend", backend, "--workers", str(workers),
    ]
    if access_log:
        cmd += ["--access-log", access_log]
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env={**os.environ, "PYTHONUNBUFFERED": "1"},
    )
    deadline = time.monotonic() + BOOT_TIMEOUT_S
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line and proc.poll() is not None:
            raise AssertionError(f"server died on boot (rc={proc.returncode})")
        if "listening on" in line:
            port = int(line.rsplit(":", 1)[-1])
            return proc, port
    proc.kill()
    raise AssertionError(f"server produced no readiness line in {BOOT_TIMEOUT_S}s")


def request(port: int, method: str, target: str, body: bytes = b"",
            headers: dict | None = None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request(method, target, body=body, headers=headers or {})
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def pipeline_ids(stream: bytes) -> set[int]:
    """The pipeline ids a stream's size table stores for its non-raw chunks."""
    head = Header.unpack(stream)
    table = np.frombuffer(stream[HEADER_BYTES:head.payload_offset], dtype="<u4")
    _, raw, pids, _ = ChunkCodec.parse_size_table(table, head.pipeline_select)
    return set(pids[~raw].tolist())


def v3_array(seed: int) -> np.ndarray:
    """36 chunks: a smooth half, then a sparse half v3 stores under
    another pipeline id."""
    rng = np.random.default_rng(seed)
    data = np.cumsum(rng.normal(0, 0.05, 36 * 4096)).astype(np.float32)
    sparse = np.zeros(18 * 4096, dtype=np.float32)
    sparse[rng.choice(sparse.size, sparse.size // 200, replace=False)] = 1.0
    data[sparse.size:] = sparse
    return data


def drive_streams(port: int, n_streams: int, format_version: int | None = None) -> None:
    """N concurrent compress + decompress streams, byte-checked.

    With ``format_version=3`` the requests ask for per-chunk pipeline
    selection, and every stream's size table holds at least two pipeline
    ids, so each decompress is one multi-id offload on the process pool.
    """
    query, tenant = "mode=abs&bound=1e-3&dtype=f4", "smoke"
    if format_version == 3:
        arrays = [v3_array(s) for s in range(n_streams)]
        query, tenant = query + "&format_version=3", "smoke-v3-"
    else:
        arrays = [
            np.cumsum(np.random.default_rng(s).normal(0, 0.05, 20_000))
            .astype(np.float32)
            for s in range(n_streams)
        ]
    references = [
        compress(a, "abs", 1e-3, format_version=format_version) for a in arrays
    ]
    if format_version == 3:
        assert all(len(pipeline_ids(r)) >= 2 for r in references)

    def one_compress(i: int):
        return request(
            port, "POST", f"/v1/compress?{query}&tenant={tenant}{i}",
            arrays[i].tobytes(),
        )

    def one_decompress(i: int):
        return request(port, "POST", "/v1/decompress", references[i])

    with ThreadPoolExecutor(max_workers=n_streams) as pool:
        compressed = list(pool.map(one_compress, range(n_streams)))
        decompressed = list(pool.map(one_decompress, range(n_streams)))

    for i, (status, body) in enumerate(compressed):
        assert status == 200, f"compress stream {i}: HTTP {status}"
        assert body == references[i], f"compress stream {i} diverged from serial"
    for i, (status, body) in enumerate(decompressed):
        assert status == 200, f"decompress stream {i}: HTTP {status}"
        expect = decompress(references[i])
        got = np.frombuffer(body, dtype=np.float32)
        assert np.array_equal(got.view(np.uint32), expect.view(np.uint32)), (
            f"decompress stream {i} diverged"
        )
    version = f"v{format_version} " if format_version else ""
    print(f"smoke: {n_streams} concurrent {version}streams byte-identical to serial")


def check_metrics(port: int, n_streams: int) -> None:
    status, scrape = request(port, "GET", "/metrics")
    assert status == 200, f"/metrics: HTTP {status}"
    parsed = parse_prometheus(scrape.decode())
    for i in range(n_streams):
        key = (f'pfpl_service_requests_total'
               f'{{op="compress",status="200",tenant="smoke{i}"}}')
        assert parsed.get(key) == 1, f"missing per-tenant counter: {key}"
    latency = [k for k in parsed
               if k.startswith("pfpl_span_duration_seconds_bucket")
               and 'cat="service"' in k]
    assert latency, "service latency histogram missing from /metrics"
    print(f"smoke: /metrics exposes {n_streams} tenant counters "
          f"+ {len(latency)} latency buckets")


def check_trace(port: int, backend: str, access_log: str) -> None:
    """One traced request; assert the trace links every execution tier."""
    trace_id = "c0ffee" * 5 + "ab"          # 32 hex chars
    parent_span = "deadbeef" * 2            # 16 hex chars
    data = np.cumsum(
        np.random.default_rng(99).normal(0, 0.05, 120_000)
    ).astype(np.float32)
    status, _ = request(
        port, "POST", "/v1/compress?mode=abs&bound=1e-4&dtype=f4&tenant=traced",
        data.tobytes(),
        headers={"traceparent": f"00-{trace_id}-{parent_span}-01"},
    )
    assert status == 200, f"traced compress: HTTP {status}"

    status, raw = request(port, "GET", f"/debug/trace/{trace_id}")
    assert status == 200, f"/debug/trace/{trace_id}: HTTP {status}"
    doc = json.loads(raw)
    spans = doc["spans"]

    service = [s for s in spans if s["cat"] == "service" and s["name"] == "compress"]
    jobs = [s for s in spans if s["name"] == "job_exec"]
    assert service, "trace is missing the service-tier span"
    assert jobs, "trace is missing the job-thread span"
    assert service[0]["parent_id"] == parent_span, "inbound traceparent not honored"
    assert jobs[0]["parent_id"] == service[0]["span_id"], "job not child of service"
    tiers = 2
    if backend == "procpool":
        workers = [s for s in spans if (s["track"] or "").startswith("proc-")]
        assert workers, "trace is missing worker-process spans"
        shards = [w for w in workers if w["name"] == "batch_encode"]
        assert shards and all(
            s["parent_id"] == jobs[0]["span_id"] for s in shards
        ), "worker shards not children of the job span"
        tiers = 3
    status, raw = request(port, "GET", f"/debug/trace/{trace_id}?format=chrome")
    assert status == 200
    slices = [e for e in json.loads(raw)["traceEvents"] if e.get("ph") == "X"]
    assert {e["args"].get("trace_id") for e in slices} == {trace_id}

    with open(access_log, encoding="utf-8") as fh:
        lines = [json.loads(ln) for ln in fh if ln.strip()]
    joined = [ln for ln in lines if ln["trace_id"] == trace_id]
    assert joined and joined[0]["status"] == 200, "access log missing traced request"
    print(f"smoke: trace {trace_id[:8]}… spans {tiers} tiers "
          f"({len(spans)} spans) and joins the access log")


def shutdown(proc: subprocess.Popen) -> None:
    proc.send_signal(signal.SIGTERM)
    try:
        out, _ = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        raise AssertionError("server did not exit within 60s of SIGTERM")
    assert proc.returncode == 0, f"server exited rc={proc.returncode}:\n{out}"
    assert "draining" in out, f"no drain line in shutdown output:\n{out}"
    assert "stopped" in out, f"no stopped line in shutdown output:\n{out}"
    print("smoke: SIGTERM drained and exited cleanly")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--backend", default="procpool",
                    choices=("serial", "omp", "cuda", "procpool"))
    ap.add_argument("--workers", type=int, default=2)
    ap.add_argument("--streams", type=int, default=8)
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="pfpl-smoke-") as tmp:
        access_log = os.path.join(tmp, "access.log")
        proc, port = start_server(args.backend, args.workers, access_log)
        try:
            drive_streams(port, args.streams)
            drive_streams(port, args.streams, format_version=3)
            check_trace(port, args.backend, access_log)
            check_metrics(port, args.streams)
        except BaseException:
            proc.kill()
            raise
        shutdown(proc)
    print("service smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

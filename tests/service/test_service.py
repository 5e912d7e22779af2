"""PFPLService acceptance: concurrent streams, backpressure, drain, metrics.

The service is asyncio-based; tests drive it with a raw-socket HTTP/1.1
client inside ``asyncio.run`` (the container ships no HTTP client
framework, matching the server's hand-rolled wire handling).
"""

import asyncio
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import compress, decompress
from repro.service import PFPLService, ServiceConfig
from repro.service.http import HttpProtocolError, Request, format_response
from repro.telemetry import parse_prometheus

N_STREAMS = 8


def _payload(seed, n=30_000, dtype=np.float32):
    r = np.random.default_rng(seed)
    return np.cumsum(r.normal(0, 0.05, n)).astype(dtype)


async def _request(host, port, method, target, body=b"", headers=None):
    """One HTTP exchange; returns ``(status, headers, body)``."""
    reader, writer = await asyncio.open_connection(host, port)
    lines = [f"{method} {target} HTTP/1.1", f"Host: {host}:{port}",
             f"Content-Length: {len(body)}"]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode() + body)
    await writer.drain()

    status_line = await reader.readline()
    status = int(status_line.split()[1])
    resp_headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode().partition(":")
        resp_headers[name.strip().lower()] = value.strip()
    resp_body = await reader.readexactly(int(resp_headers["content-length"]))
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    return status, resp_headers, resp_body


def _serial_config(**overrides):
    base = dict(port=0, backend="serial", job_threads=4, queue_depth=32)
    base.update(overrides)
    return ServiceConfig(**base)


class TestConcurrentStreams:
    def test_eight_streams_byte_identical_to_serial(self):
        """N simultaneous compress+decompress streams, results byte-exact.

        Uses the default procpool backend (two workers): every request
        funnels through one shared process pool, and every compressed
        body must equal the serial reference bit for bit.
        """
        arrays = [_payload(seed) for seed in range(N_STREAMS)]
        references = [compress(a, "abs", 1e-3) for a in arrays]

        async def drive():
            service = PFPLService(ServiceConfig(port=0, backend="procpool",
                                                n_workers=2))
            host, port = await service.start()
            try:
                compressed = await asyncio.gather(*[
                    _request(host, port, "POST",
                             f"/v1/compress?mode=abs&bound=1e-3&dtype=f4&tenant=t{i}",
                             a.tobytes())
                    for i, a in enumerate(arrays)
                ])
                decompressed = await asyncio.gather(*[
                    _request(host, port, "POST", "/v1/decompress", ref)
                    for ref in references
                ])
            finally:
                await service.shutdown()
            return compressed, decompressed

        compressed, decompressed = asyncio.run(drive())
        for i, (status, headers, body) in enumerate(compressed):
            assert status == 200
            assert body == references[i], f"stream {i} diverged from serial"
            assert int(headers["x-pfpl-original-bytes"]) == arrays[i].nbytes
        for i, (status, headers, body) in enumerate(decompressed):
            assert status == 200
            assert headers["x-pfpl-dtype"] == "<f4"
            assert int(headers["x-pfpl-count"]) == arrays[i].size
            expect = decompress(references[i])
            assert np.array_equal(np.frombuffer(body, np.float32), expect)

    def test_metrics_expose_tenant_counters_and_latency(self):
        data = _payload(0, n=10_000)

        async def drive():
            service = PFPLService(_serial_config())
            host, port = await service.start()
            try:
                await asyncio.gather(*[
                    _request(host, port, "POST",
                             "/v1/compress?mode=abs&tenant=acme", data.tobytes())
                    for _ in range(3)
                ])
                _, _, scrape = await _request(host, port, "GET", "/metrics")
                p50 = service.telemetry.span_quantile(0.5, "service", "compress")
                p99 = service.telemetry.span_quantile(0.99, "service", "compress")
            finally:
                await service.shutdown()
            return scrape, p50, p99

        scrape, p50, p99 = asyncio.run(drive())
        parsed = parse_prometheus(scrape.decode())
        key = ('pfpl_service_requests_total'
               '{op="compress",status="200",tenant="acme"}')
        assert parsed[key] == 3
        assert parsed[
            'pfpl_service_bytes_in_total{op="compress",tenant="acme"}'
        ] == 3 * data.nbytes
        buckets = [k for k in parsed
                   if k.startswith("pfpl_span_duration_seconds_bucket")
                   and 'cat="service"' in k and 'span="compress"' in k]
        assert buckets, "service latency histogram missing from scrape"
        assert 0 < p50 <= p99


class TestBackpressure:
    def test_queue_full_returns_503(self):
        """Beyond ``queue_depth`` admitted requests, clients get 503."""
        release = threading.Event()
        started = threading.Event()

        def stuck_execute(op, request):
            started.set()
            assert release.wait(timeout=30), "test never released the job"
            return 200, b"done", {}

        async def drive():
            service = PFPLService(_serial_config(queue_depth=1, job_threads=2))
            service._execute = stuck_execute
            host, port = await service.start()
            try:
                first = asyncio.ensure_future(
                    _request(host, port, "POST", "/v1/compress", b"\x00" * 4))
                await asyncio.get_running_loop().run_in_executor(
                    None, started.wait, 10)
                status, headers, body = await _request(
                    host, port, "POST", "/v1/compress", b"\x00" * 4)
                release.set()
                admitted = await first
            finally:
                release.set()
                await service.shutdown()
            return admitted, status, headers, body

        admitted, status, headers, body = asyncio.run(drive())
        assert admitted[0] == 200 and admitted[2] == b"done"
        assert status == 503
        assert headers["retry-after"] == "1"
        assert b"queue full" in body

    def test_rejections_are_counted(self):
        async def drive():
            service = PFPLService(_serial_config(queue_depth=1))
            release = threading.Event()
            service._execute = lambda op, request: (
                release.wait(timeout=30) and (200, b"", {}) or (200, b"", {}))
            host, port = await service.start()
            try:
                first = asyncio.ensure_future(
                    _request(host, port, "POST", "/v1/compress", b""))
                await asyncio.sleep(0.05)
                rejected = await _request(
                    host, port, "POST", "/v1/compress?tenant=acme", b"")
                release.set()
                await first
                counter = service.telemetry.counter(
                    "service_rejected_total",
                    tenant="acme", op="compress", reason="queue_full")
            finally:
                release.set()
                await service.shutdown()
            return rejected[0], counter

        status, counter = asyncio.run(drive())
        assert status == 503 and counter == 1


class TestGracefulShutdown:
    def test_drain_completes_inflight_work(self):
        """Shutdown waits for admitted requests instead of dropping them."""
        release = threading.Event()
        started = threading.Event()

        def slow_execute(op, request):
            started.set()
            assert release.wait(timeout=30)
            return 200, b"drained", {}

        async def drive():
            service = PFPLService(_serial_config(drain_timeout=10.0))
            service._execute = slow_execute
            host, port = await service.start()
            inflight = asyncio.ensure_future(
                _request(host, port, "POST", "/v1/compress", b"\x00" * 4))
            await asyncio.get_running_loop().run_in_executor(
                None, started.wait, 10)
            shutdown = asyncio.ensure_future(service.shutdown())
            await asyncio.sleep(0.05)
            assert not shutdown.done(), "shutdown returned with work in flight"
            release.set()
            await shutdown
            status, _, body = await inflight
            assert service._pending == 0
            return status, body

        status, body = asyncio.run(drive())
        assert status == 200 and body == b"drained"

    def test_healthz_reports_draining(self):
        async def drive():
            service = PFPLService(_serial_config())
            host, port = await service.start()
            try:
                ok = await _request(host, port, "GET", "/healthz")
                request = Request(method="GET", path="/healthz")
                assert b"200" in (await service._dispatch(request)).split(b"\r\n")[0]
                service._draining = True
                draining = await service._dispatch(request)
            finally:
                service._draining = False
                await service.shutdown()
            return ok[0], draining.split(b"\r\n")[0]

        ok_status, drain_line = asyncio.run(drive())
        assert ok_status == 200
        assert b"503" in drain_line


def _live_group_members(pgid: int) -> list[int]:
    """Pids of non-zombie processes in process group ``pgid`` (Linux /proc)."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # "pid (comm) state ppid pgrp ...": comm may hold spaces or ")".
        state, _ppid, pgrp = stat.rsplit(")", 1)[1].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            members.append(int(entry))
    return members


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs Linux /proc")
class TestServeSignals:
    def test_sigterm_at_readiness_drains_and_stops_workers(self):
        # SIGTERM the CLI server the moment its readiness line is read:
        # the handler must already be installed, so the server drains,
        # closes its procpool, and leaves no worker alive.  Its own
        # session makes the workers findable by process group after the
        # server has exited.
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--backend", "procpool", "--workers", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env, start_new_session=True,
        )
        try:
            lines = []
            for line in proc.stdout:
                lines.append(line)
                if "listening on" in line:
                    proc.send_signal(signal.SIGTERM)
                    break
            out, _ = proc.communicate(timeout=60)
            out = "".join(lines) + out
            assert proc.returncode == 0, out
            assert "pfpl serve stopped" in out, out
            deadline = time.monotonic() + 10
            while _live_group_members(proc.pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert _live_group_members(proc.pid) == [], out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


class TestProtocol:
    @pytest.fixture(scope="class")
    def server(self):
        loop = asyncio.new_event_loop()
        service = PFPLService(_serial_config())
        host, port = loop.run_until_complete(service.start())
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        yield host, port, loop
        asyncio.run_coroutine_threadsafe(service.shutdown(), loop).result(30)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        loop.close()

    def _ask(self, server, method, target, body=b"", headers=None):
        host, port, loop = server
        future = asyncio.run_coroutine_threadsafe(
            _request(host, port, method, target, body, headers), loop)
        return future.result(30)

    def test_unknown_endpoint_404(self, server):
        assert self._ask(server, "GET", "/nope")[0] == 404

    def test_wrong_method_405(self, server):
        assert self._ask(server, "GET", "/v1/compress")[0] == 405
        assert self._ask(server, "POST", "/metrics")[0] == 405

    def test_bad_mode_400(self, server):
        status, _, body = self._ask(server, "POST", "/v1/compress?mode=bogus",
                                    b"\x00" * 4)
        assert status == 400 and b"bogus" in body

    def test_ragged_body_400(self, server):
        status, _, body = self._ask(server, "POST", "/v1/compress?dtype=f8",
                                    b"\x00" * 11)
        assert status == 400 and b"multiple" in body

    def test_garbage_stream_422(self, server):
        status, _, _ = self._ask(server, "POST", "/v1/decompress",
                                 b"not a pfpl stream at all")
        assert status == 422

    def test_chunked_transfer_rejected_501(self, server):
        status, _, body = self._ask(server, "POST", "/v1/compress", b"",
                                    headers={"Transfer-Encoding": "chunked"})
        assert status == 501 and b"chunked" in body

    def test_protocol_error_carries_status(self):
        err = HttpProtocolError(413, "too big")
        assert err.status == 413
        assert b"413 Payload Too Large" in format_response(413, b"x")

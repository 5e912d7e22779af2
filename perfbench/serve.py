"""``serve-open``: ``pfpl serve`` driven open-loop over HTTP.

The server runs as its own process (``--backend procpool --workers 2
--access-log``).  One asyncio generator sends requests on a fixed
schedule of RATE per second, with at most two connections in flight; a
request that finds both busy waits, and its latency still counts from
the time it was due.  One request in three compresses a 1 MiB float32
field (ABS 1e-3), two decompress a 1 MiB field's stream; bodies are
distinct and pre-generated.  The two operations take ~12.7 and ~16.3 ms:
with a 1:1 mix the latency median fell in the gap between the two modes,
where it swings with the exact mix, so decompress -- the read path --
dominates.  Every response is compared with the
in-process serial reference, so the procpool path's bytes are checked
against the serial backend's on every request.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import layers
from benchlib import WORK, Counts, bound_violations, child_env, median, quantile
from repro.core.compressor import compress, decompress
from repro.telemetry import parse_prometheus

#: Offered load.  Two closed-loop clients saturate the service at 65-92
#: req/s on a shared 2-CPU host (1 MiB bodies, procpool with 2 workers),
#: depending on how much memory bandwidth neighbours take.  30 req/s is
#: 33-46% utilisation: queueing shows, and a slow period does not push
#: the open loop past capacity (at 40 req/s one run's backlog grew
#: without bound and its median latency read 2.4 s).  Lower is not
#: steadier: at 20 req/s the idle gaps raised median latency from 16 to
#: 22 ms and its spread between runs from 7% to 19%.
RATE = 30.0
MAX_IN_FLIGHT = 2
BOOTS = 5
WARM_REQUESTS = 8
MODE, BOUND = "abs", 1e-3
BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


class Server:
    """One ``pfpl serve`` process (in its own session, so its forked
    workers can be stopped together)."""

    def __init__(self, index: int):
        self.log = WORK / f"access-{index}.log"
        self.out = WORK / f"serve-{index}.out"
        for path in (self.log, self.out):
            path.unlink(missing_ok=True)
        t0 = time.perf_counter()
        with open(self.out, "wb") as out:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                 "--backend", "procpool", "--workers", "2", "--access-log", str(self.log)],
                stdout=out, stderr=subprocess.STDOUT, env=child_env(),
                start_new_session=True,
            )
        self.port = self._await_ready(t0)
        self.boot_s = time.perf_counter() - t0

    def _await_ready(self, t0: float) -> int:
        while time.perf_counter() - t0 < BOOT_TIMEOUT_S:
            for line in self.out.read_text(errors="replace").splitlines():
                if "listening on" in line:
                    return int(line.rsplit(":", 1)[-1])
            if self.proc.poll() is not None:
                break
            time.sleep(0.001)
        self.stop()
        raise RuntimeError(f"pfpl serve did not become ready:\n{self.out.read_text()}")

    def peak_rss_mib(self) -> float:
        """Peak RSS of the server plus its worker processes (VmHWM)."""
        pids = [self.proc.pid]
        for stat in Path("/proc").glob("[0-9]*/stat"):
            try:
                fields = stat.read_text().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[1]) == self.proc.pid:
                pids.append(int(stat.parent.name))
        total_kib = 0
        for pid in pids:
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kib += int(line.split()[1])
        return total_kib / 1024.0

    def stop(self) -> None:
        """SIGTERM (graceful drain); SIGKILL the whole group if it hangs;
        return only once no process of the group is left."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
        # Whatever is left of the group (a hung server, orphaned workers).
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                os.killpg(self.proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.01)


async def http(port: int, method: str, target: str, body: bytes = b"") -> dict:
    """One request on its own connection; phase timestamps included."""
    t_start = time.perf_counter()
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    t_conn = time.perf_counter()
    try:
        writer.write(
            f"{method} {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n".encode() + body
        )
        await writer.drain()
        t_sent = time.perf_counter()
        parts = [await reader.read(1 << 16)]
        t_first = time.perf_counter()
        while parts[-1]:
            parts.append(await reader.read(1 << 20))
        t_end = time.perf_counter()
    finally:
        writer.close()
        await writer.wait_closed()
    raw = b"".join(parts)
    head, _, payload = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1]) if lines and len(lines[0].split()) > 1 else 0
    headers = {k.strip().lower(): v.strip()
               for k, _, v in (ln.partition(":") for ln in lines[1:])}
    if int(headers.get("content-length", -1)) != len(payload):
        status = 0  # a truncated or padded body is a failed request
    return {"status": status, "headers": headers, "body": payload, "start": t_start,
            "conn": t_conn, "sent": t_sent, "first": t_first, "end": t_end}


class Load:
    def __init__(self, bodies: np.ndarray, counts: Counts, seed: int, inject_nan: bool):
        self.counts = counts
        self.raw = [b.reshape(-1) for b in bodies]
        self.streams = [compress(a, MODE, BOUND) for a in self.raw]
        self.recons = []
        for i, (a, s) in enumerate(zip(self.raw, self.streams)):
            recon = decompress(s)
            checked = recon
            if inject_nan and i == 0:
                checked = recon.copy()
                checked[0] = np.nan
            counts.check(bound_violations(a, checked, MODE, BOUND) == 0, "bound")
            self.recons.append(recon.tobytes())
        self.rng = np.random.default_rng([seed, 4])
        self.first_op = int(self.rng.integers(0, 3))

    def request(self, i: int) -> tuple[str, int]:
        op = "compress" if (i + self.first_op) % 3 == 0 else "decompress"
        return op, int(self.rng.integers(0, len(self.raw)))

    async def one(self, port: int, op: str, j: int) -> dict:
        if op == "compress":
            target, body, expect = (f"/v1/compress?mode={MODE}&bound={BOUND}&dtype=f4",
                                    self.raw[j].tobytes(), self.streams[j])
        else:
            target, body, expect = "/v1/decompress", self.streams[j], self.recons[j]
        t_start = time.perf_counter()
        try:
            rec = await http(port, "POST", target, body)
        except (OSError, ValueError, IndexError):
            # Refused or reset connection, unparsable reply: a failed request.
            rec = {"status": 0, "headers": {}, "body": b""}
            rec.update(dict.fromkeys(("start", "conn", "sent", "first", "end"), t_start))
        good = rec["body"] == expect
        rec["op"], rec["j"] = op, j
        if rec["status"] != 200:
            self.counts.check(False, f"http-{rec['status']}")
        else:
            self.counts.check(good, f"{op}-response-bytes")
        rec["ok"] = rec["status"] == 200 and good
        rec.pop("body")
        return rec

    async def drive(self, port: int, seconds: float) -> tuple[list[dict], int]:
        """Open loop: request i is due at t0 + i/RATE."""
        slots = asyncio.Semaphore(MAX_IN_FLIGHT)
        tasks = []
        backlog_max = 0
        t0 = time.perf_counter() + 0.05
        n = max(2, int(seconds * RATE))
        for i in range(n):
            due = t0 + i / RATE
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            await slots.acquire()
            now = time.perf_counter()
            # Requests already due behind this one, still waiting to start.
            backlog_max = max(backlog_max, min(n - 1, int((now - t0) * RATE)) - i)
            op, j = self.request(i)
            tasks.append(asyncio.create_task(self._slot(slots, port, op, j, due)))
        return list(await asyncio.gather(*tasks)), backlog_max

    async def _slot(self, slots, port, op, j, due) -> dict:
        try:
            rec = await self.one(port, op, j)
        finally:
            slots.release()
        rec["due"] = due
        return rec


async def _get(port: int, target: str) -> bytes:
    rec = await http(port, "GET", target)
    if rec["status"] != 200:
        raise RuntimeError(f"GET {target}: HTTP {rec['status']}")
    return rec["body"]


def _offload(scrape: bytes) -> tuple[float, float]:
    parsed = parse_prometheus(scrape.decode())
    total = count = 0.0
    for span in ("offload_encode", "offload_decode"):
        labels = f'{{cat="scheduler",span="{span}"}}'
        total += parsed.get(f"pfpl_span_duration_seconds_sum{labels}", 0.0)
        count += parsed.get(f"pfpl_span_duration_seconds_count{labels}", 0.0)
    return total, count


def run(bodies, seconds: float, trace: bool, counts: Counts, seed: int,
        inject_nan: bool, notes: list[str]) -> tuple[dict, float]:
    """Returns ``(metrics, setup_s)``; setup is the median boot time."""
    load = Load(bodies, counts, seed, inject_nan)
    boots = []
    server = None
    try:
        for b in range(BOOTS):
            server = Server(b)
            boots.append(server.boot_s)
            # A served request proves the SIGTERM handler is installed.
            asyncio.run(_get(server.port, "/healthz"))
            if b < BOOTS - 1:
                server.stop()
        metrics = asyncio.run(_measure(load, server, seconds, trace, notes))
        metrics_rss = server.peak_rss_mib()
    finally:
        if server is not None:
            server.stop()
    if not trace:
        metrics["peak_rss_mib"] = (metrics_rss, "MiB")
    return metrics, median(boots)


async def _measure(load: Load, server: Server, seconds: float, trace: bool,
                   notes: list[str]) -> dict:
    port = server.port
    for i in range(WARM_REQUESTS):
        op = ("compress", "decompress")[i % 2]
        await load.one(port, op, i % len(load.raw))
    before = _offload(await _get(port, "/metrics"))
    log_start = server.log.stat().st_size
    records, backlog_max = await load.drive(port, seconds)
    after = _offload(await _get(port, "/metrics"))
    pool = json.loads(await _get(port, "/debug/pool"))
    with open(server.log, "rb") as fh:
        fh.seek(log_start)
        access = {}
        for line in fh.read().decode().splitlines():
            entry = json.loads(line)
            access[entry["trace_id"]] = entry

    done = [r for r in records if r["ok"]]
    lat_ms = [1e3 * (r["end"] - r["due"]) for r in done]
    by_op = {op: [r["end"] - r["due"] for r in done if r["op"] == op]
             for op in ("compress", "decompress")}
    nbytes = load.raw[0].nbytes
    notes.append(f"serve: {len(records)} requests open-loop at {RATE:g}/s, "
                 f"<= {MAX_IN_FLIGHT} in flight (latency = due time to last byte)")
    if not trace:
        raw = sum(load.raw[r["j"]].nbytes for r in done if r["op"] == "compress")
        packed = sum(len(load.streams[r["j"]]) for r in done if r["op"] == "compress")
        return {
            "compress_gbps": (nbytes / median(by_op["compress"]) / 1e9, "GB/s"),
            "decompress_gbps": (nbytes / median(by_op["decompress"]) / 1e9, "GB/s"),
            "ratio": (raw / packed, "x"),
            "latency_ms_p50": (median(lat_ms), "ms"),
            "latency_ms_p90": (quantile(lat_ms, 0.9), "ms"),
        }

    m = layers.blank_layers()
    joined = [(r, access[r["headers"]["x-pfpl-trace-id"]]) for r in done
              if r["headers"].get("x-pfpl-trace-id") in access]
    phase = {
        "connect": [r["conn"] - r["start"] for r in done],
        "send": [r["sent"] - r["conn"] for r in done],
        "ttfb": [r["first"] - r["sent"] for r in done],
        "recv": [r["end"] - r["first"] for r in done],
        "queue_wait": [a["queue_wait_s"] for _, a in joined],
        "handler": [a["handler_s"] for _, a in joined],
    }
    for name, values in phase.items():
        m[f"serve.{name}_ms"][0] = 1e3 * median(values) if values else 0.0
    unattributed = [
        (r["end"] - r["due"]) - (r["start"] - r["due"]) - (r["conn"] - r["start"])
        - (r["sent"] - r["conn"]) - a["queue_wait_s"] - a["handler_s"] - (r["end"] - r["first"])
        for r, a in joined
    ]
    m["serve.unattributed_fraction"][0] = median(unattributed) / (median(lat_ms) / 1e3)
    for r, a in sorted(joined, key=lambda ra: ra[0]["due"] - ra[0]["end"])[:3]:
        notes.append(
            f"slow {r['op']}: {1e3 * (r['end'] - r['due']):.1f} ms = late "
            f"{1e3 * (r['start'] - r['due']):.1f} + connect {1e3 * (r['conn'] - r['start']):.1f}"
            f" + send {1e3 * (r['sent'] - r['conn']):.1f} + ttfb {1e3 * (r['first'] - r['sent']):.1f}"
            f" (queue {1e3 * a['queue_wait_s']:.1f}, handler {1e3 * a['handler_s']:.1f})"
            f" + recv {1e3 * (r['end'] - r['first']):.1f}")
    d_sum, d_count = after[0] - before[0], after[1] - before[1]
    m["serve.offload_ms"][0] = 1e3 * d_sum / d_count if d_count else 0.0
    m["serve.rejected_fraction"][0] = (
        sum(1 for r in records if r["status"] == 503) / max(1, len(records)))
    m["serve.backlog_max"][0] = backlog_max
    m["serve.generator_late_ms_max"][0] = 1e3 * max(r["start"] - r["due"] for r in records)
    m["scratch.bytes"][0] = pool["backend"]["scratch"]["bytes"]
    notes.append(
        "serve split (medians, ms): "
        + ", ".join(f"{k} {m[f'serve.{k}_ms'][0]:.3f}" for k in phase)
        + f"; request p50 {median(lat_ms):.3f}; {len(joined)}/{len(done)} joined to the access log")
    return m

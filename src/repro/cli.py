"""``pfpl`` command-line interface.

Subcommands::

    pfpl compress   INPUT OUTPUT --mode abs --bound 1e-3 --dtype f32 [--backend omp]
    pfpl decompress INPUT OUTPUT
    pfpl info       INPUT
    pfpl stats      INPUT --mode abs --bound 1e-3 [--format table|json|prom] [--drift] [--trace-id ID]
    pfpl verify     ORIGINAL RECONSTRUCTED --mode abs --bound 1e-3
    pfpl table      {1,2,3}
    pfpl figure     FIGURE_ID [--files N]
    pfpl analyze    [PATHS...] [--format table|json|sarif] [--output F]
                    [--rules a,b] [--list-rules] [--cache [PATH]] [--baseline F]
    pfpl serve      [--host H] [--port P] [--backend procpool] [--workers N]

``compress`` reads a raw binary array (like the SDRBench ``.f32``/
``.d64`` files), ``decompress`` writes one back.  ``stats`` round-trips
a raw file in memory with telemetry enabled and reports the measured
per-stage split.  ``table``/``figure`` regenerate the paper's tables and
figures as text.

Global flags: ``-v``/``-vv`` enable INFO/DEBUG logging; ``compress``,
``decompress`` and ``stats`` accept ``--trace FILE`` to dump a Chrome
``trace_event`` JSON timeline (open in Perfetto or ``chrome://tracing``).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .core import Header
from .device import get_backend
from .errors import PFPLError
from .io import PFPLReader, PFPLWriter
from .log import enable_logging, get_logger
from .telemetry import NULL_TELEMETRY, Telemetry, TraceContext

log = get_logger("cli")

_DTYPES = {"f32": np.float32, "f64": np.float64}

#: Values read per block when streaming a raw file through the writer
#: (4 Mi values = 16 MB of float32): bounds memory regardless of file size.
_BLOCK_VALUES = 4 << 20


def _telemetry_for(args: argparse.Namespace) -> Telemetry | None:
    """A live recorder when the command was asked to trace, else None."""
    return Telemetry() if getattr(args, "trace", None) else None


def _finish_trace(
    tel: Telemetry | None, args: argparse.Namespace,
    trace_id: str | None = None,
) -> None:
    if tel is not None:
        tel.write_chrome_trace(args.trace, trace_id=trace_id)
        log.info("wrote %d trace spans to %s", len(tel.spans), args.trace)


def _stats_context(trace_id: str | None) -> "TraceContext | None":
    """Build the ``pfpl stats --trace-id`` request context.

    A 32-hex-char value is used verbatim (so a service trace can be
    reproduced locally under the same id); anything else is hashed to a
    stable trace id, letting ``--trace-id nightly-f32`` name a run.
    """
    if not trace_id:
        return None
    import hashlib

    tid = trace_id.lower()
    if len(tid) != 32 or any(c not in "0123456789abcdef" for c in tid):
        tid = hashlib.blake2b(trace_id.encode(), digest_size=16).hexdigest()
    root = hashlib.blake2b(f"{tid}:root".encode(), digest_size=8).hexdigest()
    return TraceContext(trace_id=tid, span_id=root)


def _cmd_compress(args: argparse.Namespace) -> int:
    dtype = _DTYPES[args.dtype]
    telemetry = _telemetry_for(args)
    backend = get_backend(args.backend, telemetry=telemetry or NULL_TELEMETRY)
    value_range = None
    if args.mode == "noa":
        # NOA needs the global range before the first chunk can be
        # quantized: one extra streaming pass of min/max reduction.
        vmin, vmax = np.inf, -np.inf
        with open(args.input, "rb") as src:
            while True:
                block = np.fromfile(src, dtype=dtype, count=_BLOCK_VALUES)
                if not block.size:
                    break
                vmin = min(vmin, float(np.fmin.reduce(block)))
                vmax = max(vmax, float(np.fmax.reduce(block)))
        value_range = (vmax - vmin) if np.isfinite(vmax - vmin) else 0.0

    pipelines = None
    if args.pipelines:
        pipelines = [
            int(tok) if tok.lstrip("-").isdigit() else tok
            for tok in (t.strip() for t in args.pipelines.split(","))
            if tok
        ]
    with open(args.input, "rb") as src, open(args.output, "wb") as dst:
        with PFPLWriter(
            dst, mode=args.mode, error_bound=args.bound, dtype=dtype,
            value_range=value_range, backend=backend, checksum=args.checksum,
            format_version=args.format_version, pipelines=pipelines,
            telemetry=telemetry,
        ) as writer:
            while True:
                block = np.fromfile(src, dtype=dtype, count=_BLOCK_VALUES)
                if not block.size:
                    break
                writer.append(block)
        original = writer.values_appended * np.dtype(dtype).itemsize
        compressed = dst.tell()
    _finish_trace(telemetry, args)
    ratio = original / max(1, compressed)
    log.info("compressed %s with mode=%s bound=%g backend=%s",
             args.input, args.mode, args.bound, args.backend)
    print(
        f"{args.input}: {original} -> {compressed} bytes "
        f"(ratio {ratio:.2f}, {writer.stats.lossless / max(1, writer.stats.total) * 100:.2f}% "
        f"stored losslessly)"
    )
    return 0


def _cmd_decompress(args: argparse.Namespace) -> int:
    telemetry = _telemetry_for(args)
    # Hand the recorder to the backend too, so worker / virtual-SM
    # tracks land in the same trace as the codec spans.
    backend = get_backend(args.backend, telemetry=telemetry or NULL_TELEMETRY)
    with open(args.input, "rb") as src, open(args.output, "wb") as dst:
        reader = PFPLReader(src, backend=backend, telemetry=telemetry)
        for chunk in reader.iter_chunks():
            chunk.tofile(dst)
        header = reader.header
    _finish_trace(telemetry, args)
    log.info("decompressed %s (%d chunks)", args.input, header.n_chunks)
    print(f"{args.input}: reconstructed {header.count} x {np.dtype(header.dtype)} values")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """Round-trip a raw file in memory and report measured telemetry."""
    from .core.compressor import PFPLCompressor

    dtype = _DTYPES[args.dtype]
    data = np.fromfile(args.input, dtype=dtype)
    if not data.size:
        print(f"pfpl: error: {args.input} holds no {args.dtype} values",
              file=sys.stderr)
        return 2
    tel = Telemetry()
    comp = PFPLCompressor(
        mode=args.mode, error_bound=args.bound, dtype=dtype,
        backend=get_backend(args.backend), telemetry=tel,
    )
    ctx = _stats_context(getattr(args, "trace_id", None))
    if ctx is not None:
        tel.begin_trace(ctx, op="stats", input=str(args.input))
        with tel.span("stats_roundtrip", cat="service", trace=ctx,
                      values=int(data.size)):
            with tel.trace(ctx):
                result = comp.compress(data)
                comp.decompress(result.data)
        tel.finish_trace(ctx.trace_id)
    else:
        result = comp.compress(data)
        comp.decompress(result.data)
    n_chunks = int(tel.counter("chunks_encoded_total"))
    log.info("stats round-trip: %d values, %d chunks", data.size, n_chunks)

    if args.trace:
        _finish_trace(tel, args, trace_id=ctx.trace_id if ctx else None)
    if args.format == "json":
        print(tel.to_json())
    elif args.format == "prom":
        print(tel.to_prometheus(), end="")
    else:
        raw = tel.counter("raw_chunks_total")
        outliers = tel.counter("outlier_values_total")
        print(f"{args.input}: {data.nbytes} -> {len(result.data)} bytes "
              f"(ratio {result.ratio:.2f})")
        print(f"  chunks      : {n_chunks} "
              f"({int(raw)} raw fallback, "
              f"{raw / max(1, n_chunks) * 100:.2f}%)")
        print(f"  outliers    : {int(outliers)} / {data.size} values "
              f"({outliers / data.size * 100:.4f}%)")
        if ctx is not None:
            print(f"  trace       : {ctx.trace_id} "
                  f"({len(tel.trace_spans(ctx.trace_id))} spans)")
        for cat in ("encode", "decode"):
            table = tel.stage_table(cat)
            if not table:
                continue
            print(f"  {cat} stages:")
            print(f"    {'stage':<18} {'calls':>7} {'seconds':>9} "
                  f"{'bytes in':>12} {'bytes out':>12}")
            for stage, row in table.items():
                print(f"    {stage:<18} {int(row['calls']):>7} "
                      f"{row['seconds']:>9.4f} {int(row['bytes_in']):>12,} "
                      f"{int(row['bytes_out']):>12,}")
        latency = tel.span_latency_summary()
        if latency:
            print("  span latency (log2 buckets):")
            print(f"    {'span':<24} {'count':>7} {'p50':>11} {'p99':>11}")
            for row in latency:
                print(f"    {row['cat'] + '/' + row['span']:<24} "
                      f"{row['count']:>7} {row['p50']:>11.3g} "
                      f"{row['p99']:>11.3g}")

    if args.drift:
        from .harness.drift import drift_check

        usable = data[: data.size - (data.size % 8)]
        report = drift_check(usable, mode=args.mode, error_bound=args.bound)
        print(report.render())
        if not report.bytes_ok:
            return 1
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    with open(args.input, "rb") as fh:
        head = fh.read(64)
    header = Header.unpack(head)
    version = 3 if header.pipeline_select else 2 if header.checksum else 1
    print(f"PFPL stream: mode={header.mode} dtype={header.dtype}")
    print(f"  format      : v{version}"
          + (" (per-chunk pipeline selection)" if header.pipeline_select else ""))
    print(f"  error bound : {header.error_bound:g}")
    if header.mode == "noa":
        print(f"  value range : {header.value_range:g}")
    print(f"  values      : {header.count}")
    print(f"  chunks      : {header.n_chunks} x {header.words_per_chunk} words")
    print(f"  checksums   : {'crc32 footer' if header.checksum else 'none'}")
    if header.pipeline_select:
        from .core.lossless.pipeline import PIPELINE_VARIANTS

        print(f"  pipeline    : per-chunk best of {'|'.join(PIPELINE_VARIANTS)} "
              f"(2-bit id per size-table entry)")
        return 0
    stages = []
    if header.use_delta:
        stages.append("delta+negabinary")
    if header.use_bitshuffle:
        stages.append("bitshuffle")
    if header.use_zero_elim:
        stages.append(f"zero-elim(x{header.bitmap_levels})")
    print(f"  pipeline    : {' -> '.join(stages) or 'identity'}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    """Check a reconstruction against the original under a bound."""
    from .core.verify import check_bound
    from .metrics import psnr

    dtype = _DTYPES[args.dtype]
    original = np.fromfile(args.original, dtype=dtype)
    recon = np.fromfile(args.reconstructed, dtype=dtype)
    if original.size != recon.size:
        print(f"size mismatch: {original.size} vs {recon.size} values")
        return 2
    report = check_bound(args.mode, original, recon, args.bound)
    print(f"mode={args.mode} bound={args.bound:g}: "
          f"max error {report.max_error:.6g}, "
          f"{report.violations} violations / {report.total} values "
          f"({report.severity})")
    print(f"PSNR {psnr(original, recon):.2f} dB")
    return 0 if report.ok else 1


def _cmd_table(args: argparse.Namespace) -> int:
    from .harness import render_table1, render_table2, render_table3

    print({1: render_table1, 2: render_table2, 3: render_table3}[args.number]())
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from .harness import figure_data, render_figure

    data = figure_data(args.figure_id, n_files=args.files)
    print(render_figure(data))
    return 0


def _load_baseline(path: str) -> set[tuple[str, str, str]] | None:
    """Accepted-findings keys from a committed ratchet file, or None.

    Keys are ``(rule, path, message)`` -- line numbers shift on every
    edit and must not churn the baseline.
    """
    import json

    try:
        doc = json.loads(open(path, encoding="utf-8").read())
    except (OSError, ValueError):
        return None
    out: set[tuple[str, str, str]] = set()
    for entry in doc.get("findings", []) if isinstance(doc, dict) else []:
        try:
            out.add((str(entry["rule"]), str(entry["path"]), str(entry["message"])))
        except (KeyError, TypeError):
            continue
    return out


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .analysis import (
        all_rules,
        analyze_paths,
        render_json,
        render_sarif,
        render_table,
    )

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.name:22s} [{rule.severity.value}] {rule.description}")
        return 0
    rules = None
    if args.rules:
        from .analysis import get_rule

        try:
            rules = [get_rule(name) for name in args.rules.split(",")]
        except KeyError as exc:
            print(f"pfpl: {exc.args[0]}", file=sys.stderr)
            return 2
    from .analysis import Severity

    cache = None
    if args.cache is not None:
        from .analysis import DEFAULT_CACHE_PATH, AnalysisCache

        cache = AnalysisCache(args.cache or DEFAULT_CACHE_PATH)
    findings = analyze_paths(args.paths, rules=rules, cache=cache)
    if cache is not None:
        print(
            f"pfpl analyze cache: {cache.hits} hits, {cache.misses} misses",
            file=sys.stderr,
        )

    render = {
        "json": render_json,
        "sarif": render_sarif,
        "table": render_table,
    }[args.format]
    report = render(findings)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fp:
            fp.write(report + "\n")
        # Humans (and CI logs) still get the table on stdout.
        print(render_table(findings))
    else:
        print(report)

    gating = list(findings)
    if args.baseline:
        accepted = _load_baseline(args.baseline)
        if accepted is None:
            print(
                f"pfpl: baseline {args.baseline!r} missing or unreadable",
                file=sys.stderr,
            )
            return 2
        gating = [
            f for f in findings if (f.rule, f.path, f.message) not in accepted
        ]
        if len(gating) < len(findings):
            print(
                f"{len(findings) - len(gating)} baseline finding(s) tolerated",
                file=sys.stderr,
            )
    errors = [f for f in gating if f.severity is Severity.ERROR]
    warnings = [f for f in gating if f.severity is Severity.WARNING]
    # Errors always gate; warnings gate only under --strict (CI runs
    # strict, local runs see them without failing).
    if errors:
        return 1
    if warnings and args.strict:
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the long-lived compression service until SIGINT/SIGTERM.

    Prints one readiness line (``pfpl serve listening on HOST:PORT``)
    once the socket is bound, then serves until a signal arrives;
    shutdown drains in-flight requests before the backend pool closes.
    """
    import asyncio
    import signal

    from .service import PFPLService, ServiceConfig

    config = ServiceConfig(
        host=args.host, port=args.port, backend=args.backend,
        n_workers=args.workers, queue_depth=args.queue_depth,
        drain_timeout=args.drain_timeout, access_log=args.access_log,
        pipelines=args.pipelines,
    )

    async def _run() -> int:
        service = PFPLService(config)
        host, port = await service.start()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        # Handlers go in before the readiness line: a client may signal
        # as soon as it reads it, and the default SIGTERM action would
        # kill the server without draining or stopping its workers.
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, stop.set)
        print(f"pfpl serve listening on {host}:{port}", flush=True)
        log.info("serving backend=%s queue_depth=%d", config.backend,
                 config.queue_depth)
        await stop.wait()
        print("pfpl serve draining", flush=True)
        await service.shutdown()
        print("pfpl serve stopped", flush=True)
        return 0

    return asyncio.run(_run())


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``pfpl`` argument parser (all subcommands)."""
    parser = argparse.ArgumentParser(prog="pfpl", description=__doc__)
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="enable INFO logging (-vv for DEBUG)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="compress a raw float file")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--mode", choices=("abs", "rel", "noa"), default="abs")
    p.add_argument("--bound", type=float, default=1e-3)
    p.add_argument("--dtype", choices=tuple(_DTYPES), default="f32")
    p.add_argument("--backend", choices=("serial", "omp", "cuda", "procpool"), default="omp")
    p.add_argument(
        "--checksum", action="store_true",
        help="emit a version-2 stream with a per-chunk CRC-32 footer",
    )
    p.add_argument(
        "--format-version", type=int, choices=(1, 2, 3), default=None,
        help="force the container version (default: lowest that fits; "
        "3 enables per-chunk pipeline selection)",
    )
    p.add_argument(
        "--pipelines", metavar="LIST", default=None,
        help="comma-separated candidate pipelines for v3 selection "
        "(default|no-shuffle|direct-zero or ids 0-2); implies "
        "--format-version 3",
    )
    p.add_argument(
        "--trace", metavar="FILE", default=None,
        help="write a Chrome trace_event JSON timeline of the run",
    )
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("decompress", help="decompress a PFPL stream")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--backend", choices=("serial", "omp", "cuda", "procpool"), default="omp")
    p.add_argument(
        "--trace", metavar="FILE", default=None,
        help="write a Chrome trace_event JSON timeline of the run",
    )
    p.set_defaults(func=_cmd_decompress)

    p = sub.add_parser("info", help="inspect a PFPL stream header")
    p.add_argument("input")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser(
        "stats",
        help="round-trip a raw float file in memory and report telemetry",
    )
    p.add_argument("input")
    p.add_argument("--mode", choices=("abs", "rel", "noa"), default="abs")
    p.add_argument("--bound", type=float, default=1e-3)
    p.add_argument("--dtype", choices=tuple(_DTYPES), default="f32")
    p.add_argument("--backend", choices=("serial", "omp", "cuda", "procpool"), default="omp")
    p.add_argument(
        "--format", choices=("table", "json", "prom"), default="table",
        help="report format: human table, JSON summary, or Prometheus text",
    )
    p.add_argument(
        "--trace", metavar="FILE", default=None,
        help="also write the Chrome trace_event JSON timeline",
    )
    p.add_argument(
        "--trace-id", metavar="ID", default=None,
        help="run the round-trip under one request trace: 32 hex chars "
             "are used verbatim, any other string is hashed to a stable "
             "id (combines with --trace to export just that trace)",
    )
    p.add_argument(
        "--drift", action="store_true",
        help="compare measured per-stage bytes against the analytic "
             "profile_chunk model (exit 1 on divergence)",
    )
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("verify", help="check a reconstruction against a bound")
    p.add_argument("original")
    p.add_argument("reconstructed")
    p.add_argument("--mode", choices=("abs", "rel", "noa"), default="abs")
    p.add_argument("--bound", type=float, default=1e-3)
    p.add_argument("--dtype", choices=tuple(_DTYPES), default="f32")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("table", help="regenerate a paper table")
    p.add_argument("number", type=int, choices=(1, 2, 3))
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("figure", help="regenerate a paper figure's data")
    p.add_argument("figure_id")
    p.add_argument("--files", type=int, default=None, help="files per suite")
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser(
        "analyze",
        help="run the codec-invariant static analyzer over source trees",
    )
    p.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    p.add_argument(
        "--format", choices=("table", "json", "sarif"), default="table",
        help="finding report format (sarif for code-review annotation)",
    )
    p.add_argument(
        "--output", default=None, metavar="FILE",
        help="write the report to FILE (stdout still shows the table)",
    )
    p.add_argument(
        "--rules", default=None,
        help="comma-separated subset of rules to run (default: all)",
    )
    p.add_argument(
        "--list-rules", action="store_true",
        help="list registered rules and exit",
    )
    p.add_argument(
        "--strict", action="store_true",
        help="treat warning-severity findings as gating (exit 1); "
             "errors always gate",
    )
    p.add_argument(
        "--cache", nargs="?", const="", default=None, metavar="PATH",
        help="reuse per-file findings for unchanged content hashes "
             "(default path: .pfpl-analyze-cache.json)",
    )
    p.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="findings ratchet: tolerate findings listed in FILE "
             "(render_json shape), gate only on new ones",
    )
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser(
        "serve",
        help="run the long-lived compress/decompress HTTP service",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8787,
                   help="TCP port (0 picks a free one)")
    p.add_argument(
        "--backend", choices=("serial", "omp", "cuda", "procpool"),
        default="procpool",
    )
    p.add_argument(
        "--workers", type=int, default=None,
        help="backend pool size (processes for procpool, threads for omp)",
    )
    p.add_argument(
        "--queue-depth", type=int, default=32,
        help="max admitted-but-unfinished requests before 503",
    )
    p.add_argument(
        "--drain-timeout", type=float, default=30.0,
        help="seconds to wait for in-flight requests on shutdown",
    )
    p.add_argument(
        "--access-log", metavar="FILE", default=None,
        help="structured JSON access log: one line per request with "
             "trace id, tenant, op, status and latency ('-' for stdout)",
    )
    p.add_argument(
        "--pipelines", metavar="LIST", default=None,
        help="default v3 per-chunk pipeline candidates for compress "
             "requests (comma-separated; requests may override)",
    )
    p.set_defaults(func=_cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.verbose:
        enable_logging(args.verbose)
    try:
        return args.func(args)
    except PFPLError as exc:
        # Structured decode/validation failures (corrupt or truncated
        # streams, config mismatches) become a clean diagnostic + exit
        # code instead of a traceback.
        print(f"pfpl: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

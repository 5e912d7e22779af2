"""PFPL benchmark: one workload, untraced (end-to-end metrics) or traced
(per-layer metrics).

    python3 perfbench/run.py --workload bulk-abs-f32 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from its
``src/``.  Inputs come from ``--seed`` and are generated in a child
process, untimed.  Set-up (imports, backend warm-up, scratch-arena
warm-up; for ``serve-open`` the server boot to its readiness line) is
measured several times in fresh processes and reported as the median
``setup_s``.  The measured phase then runs for ``--seconds``.  Every
output is checked (NaN-strict bound oracle, byte identity across
backends and repeats); failures are counted in ``failed``.  The last
stdout line is the JSON result; see perfbench/README.md for what each
metric means on each workload.
"""

from __future__ import annotations

import argparse
import sys
import tempfile

import numpy as np

from benchlib import (SRC, WORK, Counts, copy_gbps, emit, host_block, median, peak_rss_mib,
                      run_child)

WORKLOADS = ("bulk-abs-f32", "archive-rel-f32", "serve-open")
SETUP_PROBES = 5


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="input size; 'tiny' is for the self-test")
    ap.add_argument("--inject-nan", action="store_true",
                    help="force one reconstructed lane to NaN before the bound "
                         "check (the oracle must count it)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    # Spool files (the streaming writer's) stay inside the checkout.
    tempfile.tempdir = str(WORK)

    host = host_block()
    notes = ["host: " + ", ".join(f"{k}={v}" for k, v in host.items())]
    if args.workload == "serve-open" and host["cpus"] < 2:
        print("\n".join(notes), file=sys.stderr)
        print(f"perfbench: serve-open {host['serve-open']}", file=sys.stderr)
        return 3
    threads = host["cpus"] if host["cpus"] >= 2 else 0

    data_path = WORK / f"input-{args.workload}-{args.size}-{args.seed}.npy"
    run_child(["perfbench/gen.py", "--workload", args.workload, "--seed", str(args.seed),
               "--size", args.size, "--out", str(data_path)])
    data = np.load(data_path)
    data_path.unlink()

    counts = Counts()
    if args.workload == "serve-open":
        import serve

        metrics, setup_s = serve.run(data, args.seconds, bool(args.trace), counts,
                                     args.seed, args.inject_nan, notes)
    else:
        setup_path = WORK / f"warm-{args.workload}-{args.seed}.npy"
        np.save(setup_path, data.reshape(-1)[: 1 << 18])
        probes = [run_child(["perfbench/probe.py", "--workload", args.workload,
                             "--input", str(setup_path), "--threads", str(max(threads, 1))])
                  for _ in range(SETUP_PROBES)]
        setup_path.unlink()
        setup_s = median([p["setup_s"] for p in probes])
        notes.append("setup probes (import + warm-up, s): "
                     + ", ".join(f"{p['import_s']:.3f}+{p['warm_s']:.3f}" for p in probes))
        if args.workload == "bulk-abs-f32":
            import bulk

            metrics = bulk.run(data, args.seconds, bool(args.trace), counts, threads,
                               args.inject_nan, notes)
        else:
            import archive

            metrics = archive.run(data, args.seconds, bool(args.trace), counts, args.seed,
                                  args.inject_nan, notes)
        if not args.trace:
            metrics["peak_rss_mib"] = (peak_rss_mib(), "MiB")

    if args.trace:
        metrics["host.cpus"][0] = host["cpus"]
        metrics["host.l2_bytes"][0] = host["l2_bytes"]
        metrics["host.l3_bytes"][0] = host["l3_bytes"]
        if metrics["host.copy_gbps"][0] == 0.0:
            metrics["host.copy_gbps"][0] = copy_gbps()
        out = {k: (v, u) for k, (v, u) in metrics.items()}
    else:
        out = {"setup_s": (setup_s, "s"), **metrics}
    emit(counts, out, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())

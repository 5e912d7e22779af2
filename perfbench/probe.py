"""One cold set-up, timed in a fresh interpreter (run several times per run).

Times what a user pays before the first steady-state operation: importing
the library, building and warming the backends, and one operation on a
1 MiB prefix of the input, which warms the scratch arenas (the batch
kernels work on 64-row shards, i.e. 1 MiB of float32).  Loading the
input file is not timed.

    python3 perfbench/probe.py --workload bulk-abs-f32 --input .perfbench/in.npy
"""

from __future__ import annotations

import argparse
import io
import json
import time

import numpy as np

WARM_VALUES = 1 << 18  # 1 MiB of float32


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--input", required=True)
    ap.add_argument("--threads", type=int, default=2)
    args = ap.parse_args()
    data = np.load(args.input).reshape(-1)[:WARM_VALUES]

    t0 = time.perf_counter()
    if args.workload == "bulk-abs-f32":
        from repro.core.compressor import PFPLCompressor, decompress
        from repro.device.backend import SerialBackend, ThreadedBackend

        t_import = time.perf_counter()
        backends = [SerialBackend(), ThreadedBackend(n_threads=args.threads)]
        for backend in backends:
            backend.warm()
            stream = PFPLCompressor("abs", 1e-3, backend=backend).compress(data).data
            decompress(stream, backend=backend)
    else:
        from repro.core.random_access import StreamDecoder
        from repro.io import PFPLWriter

        t_import = time.perf_counter()
        sink = io.BytesIO()
        with PFPLWriter(sink, mode="rel", error_bound=1e-3, format_version=3) as writer:
            writer.append(data)
        dec = StreamDecoder(sink.getvalue())
        for _ in dec.iter_chunks():
            pass
        dec.decode_range(0, min(8192, data.size))
    t_end = time.perf_counter()
    print(json.dumps({"import_s": t_import - t0, "warm_s": t_end - t_import,
                      "setup_s": t_end - t0}))


if __name__ == "__main__":
    main()

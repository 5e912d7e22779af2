"""Seeded input generation, run in its own process.

Generating a 2048x2048 spectral field peaks at several hundred MiB of
FFT temporaries; doing it in a child keeps that out of the measuring
process's peak RSS and out of every timing.  The same seed always gives
the same arrays.

    python3 perfbench/gen.py --workload bulk-abs-f32 --seed 1 --out .perfbench/in.npy
"""

from __future__ import annotations

import argparse
import json

import numpy as np

from repro.datasets.synthesis import spectral_field

#: (bulk side, archive step side, archive steps, serve tile side, serve bodies)
SIZES = {
    "full": (2048, 256, 64, 512, 32),
    "tiny": (256, 64, 8, 128, 4),
}


def sparse_step(side: int, rng: np.random.Generator) -> np.ndarray:
    """A mostly-zero timestep: ~0.5% isolated spikes (favours direct-zero)."""
    out = np.zeros(side * side, dtype=np.float32)
    n = max(1, out.size // 200)
    idx = rng.choice(out.size, n, replace=False)
    out[idx] = rng.normal(0.0, 1.0, n).astype(np.float32)
    return out.reshape(side, side)


def generate(workload: str, seed: int, size: str) -> np.ndarray:
    bulk, step, steps, tile, bodies = SIZES[size]
    if workload == "bulk-abs-f32":
        # One bulk-side x bulk-side float32 array made of 4x4 independent
        # spectral tiles: a single realization's large-scale modes swing
        # the ratio (and so the timings) by ~10% between seeds.
        t = bulk // 4
        out = np.empty((bulk, bulk), dtype=np.float32)
        for i in range(16):
            r, c = divmod(i, 4)
            out[r * t:(r + 1) * t, c * t:(c + 1) * t] = spectral_field((t, t), seed=seed * 1000 + i)
        return out
    if workload == "archive-rel-f32":
        rng = np.random.default_rng([seed, 1])
        out = np.empty((steps, step, step), dtype=np.float32)
        # Three smooth steps, then a sparse one.  The two kinds decode at
        # different speeds (~1.8 vs ~1.3 ms per window); with a 1:1 mix the
        # read-latency median fell in the gap between the two modes and
        # swung 20% between runs.
        for i in range(steps):
            if i % 4 != 3:
                out[i] = spectral_field((step, step), seed=seed * 1000 + i)
            else:
                out[i] = sparse_step(step, rng)
        return out
    if workload == "serve-open":
        # One independent field per body: distinct bodies, and a per-seed
        # mix that averages over many realizations (steadier across seeds).
        out = np.empty((bodies, tile, tile), dtype=np.float32)
        for i in range(bodies):
            out[i] = spectral_field((tile, tile), seed=seed * 1000 + i)
        return out
    raise SystemExit(f"unknown workload {workload!r}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    arr = generate(args.workload, args.seed, args.size)
    np.save(args.out, arr)
    print(json.dumps({"shape": list(arr.shape), "nbytes": int(arr.nbytes)}))


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""Fault-injection harness for the PFPL decode path.

Builds golden streams for every mode (abs/rel/noa) x dtype (f32/f64) x
checksum (off/on) x format (legacy/v3 pipeline selection), then mutates
them -- truncation, single-bit flips weighted by stream region, zeroed
windows, cross-stream splices, and targeted pipeline-id bit patterns in
the size table -- and feeds each mutant to the decoders.  Every mutant
must end one of two ways:

* a :class:`repro.errors.PFPLError` subclass is raised (the stream was
  rejected), or
* decode succeeds and the output still honours the golden stream's
  stated error bound (the mutation was benign, e.g. it landed on bytes
  that do not affect the reconstruction).

Anything else is a defect: a raw ``struct``/``numpy``/``Overflow``
exception escaping means validation missed a hostile input, and a
successful decode that violates the bound is silent corruption.

The strict criterion runs on the **checksum-enabled** streams: with the
CRC-32 footer every payload/header corruption is detectable, so silent
corruption there is always a bug.  Checksum-off streams cannot detect a
bit flip inside a raw (losslessly stored) float word -- no format
without redundancy can -- so for those the sweep only requires that no
raw exception escapes (silent corruptions are tallied and reported).

Usage::

    PYTHONPATH=src python scripts/fuzz_streams.py            # full sweep
    PYTHONPATH=src python scripts/fuzz_streams.py --quick    # CI smoke
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from repro.core.compressor import compress, decompress
from repro.core.header import HEADER_BYTES, Header
from repro.core.verify import check_bound
from repro.errors import PFPLError
from repro.io import PFPLReader

MODES = ("abs", "rel", "noa")
DTYPES = (np.float32, np.float64)

#: Values per golden stream: a few full chunks plus a partial tail so
#: mutations can land on every structural case.
_N_VALUES = {np.float32: 3 * 4096 + 123, np.float64: 3 * 2048 + 123}

_BOUND = 1e-3


@dataclass
class Golden:
    """One reference stream plus everything needed to judge a mutant."""

    name: str
    mode: str
    dtype: type
    bound: float
    value_range: float
    checksum: bool
    data: np.ndarray
    blob: bytes
    header: Header
    select: bool = False

    def regions(self) -> dict[str, tuple[int, int]]:
        """Byte ranges of the stream's structural regions."""
        h = self.header
        out = {
            "header": (0, 44),
            "table": (44, h.payload_offset),
            "payload": (h.payload_offset, len(self.blob) - h.footer_bytes),
        }
        if h.footer_bytes:
            out["footer"] = (len(self.blob) - h.footer_bytes, len(self.blob))
        return out


def _make_data(dtype, rng: np.random.Generator) -> np.ndarray:
    """Synthetic field with smooth structure, noise, zeros and repeats."""
    n = _N_VALUES[dtype]
    t = np.linspace(0.0, 8.0 * np.pi, n)
    data = np.sin(t) * 40.0 + rng.normal(scale=0.5, size=n)
    data[n // 3 : n // 3 + 500] = 0.0          # exact-zero run (zero-elim path)
    data[n // 2 : n // 2 + 300] = 17.25        # constant run (delta path)
    data[::97] *= 1e4                           # outliers (raw/lossless path)
    return data.astype(dtype)


def build_goldens(seed: int = 0) -> list[Golden]:
    rng = np.random.default_rng(seed)
    goldens = []
    for mode in MODES:
        for dtype in DTYPES:
            data = _make_data(dtype, rng)
            if mode == "rel":
                # REL's bound is multiplicative; zeros are fine (they
                # must decode to exact zeros) but keep magnitudes sane.
                data = np.where(data == 0, 0, data + np.sign(data))
            for checksum in (False, True):
                for select in (False, True):
                    kwargs = {"checksum": checksum}
                    if select:
                        kwargs["format_version"] = 3
                    blob = compress(
                        data, mode=mode, error_bound=_BOUND, **kwargs
                    )
                    header = Header.unpack(blob)
                    g = Golden(
                        name=f"{mode}-{np.dtype(dtype).name}-"
                        f"{'crc' if checksum else 'nocrc'}"
                        f"{'-v3' if select else ''}",
                        mode=mode,
                        dtype=dtype,
                        bound=_BOUND,
                        value_range=header.value_range,
                        checksum=checksum,
                        data=data,
                        blob=blob,
                        header=header,
                        select=select,
                    )
                    # The golden itself must be clean, or the sweep
                    # judges mutants against a broken reference.
                    rep = check_bound(mode, data, decompress(blob), _BOUND,
                                      g.value_range or None)
                    if not rep.ok:
                        raise AssertionError(
                            f"golden {g.name} violates its bound"
                        )
                    goldens.append(g)
    return goldens


# -- mutations ---------------------------------------------------------------


def mutate_truncate(blob: bytes, rng: np.random.Generator, golden: Golden) -> bytes:
    return blob[: int(rng.integers(0, len(blob)))]


def mutate_bitflip(blob: bytes, rng: np.random.Generator, golden: Golden) -> bytes:
    regions = list(golden.regions().values())
    lo, hi = regions[int(rng.integers(0, len(regions)))]
    if hi <= lo:
        lo, hi = 0, len(blob)
    buf = bytearray(blob)
    pos = int(rng.integers(lo, hi))
    buf[pos] ^= 1 << int(rng.integers(0, 8))
    return bytes(buf)


def mutate_zero_window(blob: bytes, rng: np.random.Generator, golden: Golden) -> bytes:
    start = int(rng.integers(0, len(blob)))
    length = int(rng.integers(1, 65))
    buf = bytearray(blob)
    buf[start : start + length] = b"\x00" * len(buf[start : start + length])
    return bytes(buf)


def mutate_splice(blob: bytes, rng: np.random.Generator, golden: Golden,
                  donors: list[bytes] | None = None) -> bytes:
    """Overwrite a window with bytes from a donor stream (or itself)."""
    donor = blob
    if donors:
        donor = donors[int(rng.integers(0, len(donors)))]
    length = int(rng.integers(4, 257))
    length = min(length, len(blob), len(donor))
    dst = int(rng.integers(0, len(blob) - length + 1))
    src = int(rng.integers(0, len(donor) - length + 1))
    buf = bytearray(blob)
    buf[dst : dst + length] = donor[src : src + length]
    return bytes(buf)


MUTATIONS = ("truncate", "bitflip", "zero", "splice")


def apply_mutation(kind: str, golden: Golden, rng: np.random.Generator,
                   donors: list[bytes]) -> bytes:
    if kind == "truncate":
        return mutate_truncate(golden.blob, rng, golden)
    if kind == "bitflip":
        return mutate_bitflip(golden.blob, rng, golden)
    if kind == "zero":
        return mutate_zero_window(golden.blob, rng, golden)
    if kind == "splice":
        return mutate_splice(golden.blob, rng, golden, donors)
    raise ValueError(kind)


# -- classification ----------------------------------------------------------

#: Outcomes: CAUGHT (PFPLError raised), BENIGN (decoded within bound),
#: SILENT (decoded outside bound), RAW (non-PFPL exception escaped).
CAUGHT, BENIGN, SILENT, RAW = "caught", "benign", "silent", "raw"


#: Window length of the reader route: a multiple of neither chunk
#: geometry, so every window starts and ends inside a chunk.
_WINDOW = 5000


def _decode(mutant: bytes, via_reader: bool) -> np.ndarray:
    """Decode ``mutant`` with ``decompress``, or (``via_reader``) from a
    real temporary file, in unaligned windows that cover the stream --
    the positioned-read source and the window edge handling."""
    if not via_reader:
        return decompress(mutant)
    with tempfile.TemporaryFile() as fh:
        fh.write(mutant)
        fh.seek(0)
        reader = PFPLReader(fh)
        out = np.empty(len(reader), dtype=reader.header.dtype)
        for start in range(0, out.size, _WINDOW):
            stop = min(start + _WINDOW, out.size)
            out[start:stop] = reader.read(start, stop - start)
        return out


def classify(golden: Golden, mutant: bytes, via_reader: bool = False):
    """Run one mutant through a decoder and judge the outcome."""
    try:
        out = _decode(mutant, via_reader)
    except PFPLError as exc:
        return CAUGHT, type(exc).__name__
    except Exception as exc:  # noqa: BLE001 -- the whole point of the harness
        return RAW, f"{type(exc).__name__}: {exc}"
    if out.shape != golden.data.shape or out.dtype != golden.data.dtype:
        return SILENT, f"shape/dtype drift: {out.shape} {out.dtype}"
    rep = check_bound(golden.mode, golden.data, out, golden.bound,
                      golden.value_range or None)
    if rep.ok:
        return BENIGN, ""
    return SILENT, f"max_error={rep.max_error:g} bound={golden.bound:g}"


# -- sweeps ------------------------------------------------------------------


@dataclass
class SweepResult:
    tallies: dict
    failures: list

    @property
    def total(self) -> int:
        return sum(self.tallies.values())

    @property
    def ok(self) -> bool:
        return not self.failures


def run_sweep(goldens: list[Golden], n_mutations: int, seed: int,
              strict: bool) -> SweepResult:
    """Mutate round-robin across ``goldens`` and classify every mutant.

    ``strict`` fails on SILENT outcomes as well as RAW ones; use it for
    checksum-enabled streams, where every corruption is detectable.
    """
    rng = np.random.default_rng(seed)
    donors = [g.blob for g in goldens]
    tallies = {CAUGHT: 0, BENIGN: 0, SILENT: 0, RAW: 0}
    failures = []
    for i in range(n_mutations):
        golden = goldens[i % len(goldens)]
        kind = MUTATIONS[(i // len(goldens)) % len(MUTATIONS)]
        mutant = apply_mutation(kind, golden, rng, donors)
        outcome, detail = classify(golden, mutant, via_reader=bool(i % 2))
        tallies[outcome] += 1
        bad = outcome == RAW or (strict and outcome == SILENT)
        if bad:
            failures.append((golden.name, kind, outcome, detail))
    return SweepResult(tallies, failures)


#: Targeted size-table patterns: each valid pid bit alone, then both.
PID_BIT_PATTERNS = (1 << 29, 1 << 30, 3 << 29)


def check_pipeline_id_bits(golden: Golden) -> list:
    """OR pipeline-id bits into every size-table entry; judge each mutant.

    A legacy stream must reject any pid bit (its table predates pipeline
    selection), a checksummed stream catches everything via the footer,
    and a v3 stream without the footer must still catch the reserved
    id 3 and a raw chunk carrying a nonzero pid.  A flip between *valid*
    ids on a non-checksummed v3 stream is undetectable by design (the
    candidate blobs are self-contained byte streams), so there the only
    requirement is that no raw exception escapes.
    """
    h = golden.header
    table = np.frombuffer(
        golden.blob[HEADER_BYTES:HEADER_BYTES + 4 * h.n_chunks], dtype="<u4"
    )
    failures = []
    for index in range(h.n_chunks):
        entry = int(table[index])
        for bits in PID_BIT_PATTERNS:
            if entry | bits == entry:
                continue  # pattern already present: not a mutation
            buf = bytearray(golden.blob)
            lo = HEADER_BYTES + 4 * index
            buf[lo:lo + 4] = (entry | bits).to_bytes(4, "little")
            outcome, detail = classify(golden, bytes(buf),
                                       via_reader=bool(index % 2))
            new_pid = ((entry | bits) >> 29) & 0b11
            must_catch = (
                golden.checksum
                or not h.pipeline_select
                or new_pid == 3
                or bool(entry & (1 << 31))  # raw chunk, pid must stay 0
            )
            bad = (outcome != CAUGHT) if must_catch else (outcome == RAW)
            if bad:
                failures.append(
                    (golden.name, f"table[{index}] |= {bits:#010x}",
                     outcome, detail)
                )
    return failures


def check_payload_bitflips(golden: Golden, n_flips: int, seed: int) -> list:
    """Every payload bit flip in a checksum stream must be *detected*."""
    assert golden.checksum
    rng = np.random.default_rng(seed)
    lo, hi = golden.regions()["payload"]
    failures = []
    for _ in range(n_flips):
        buf = bytearray(golden.blob)
        pos = int(rng.integers(lo, hi))
        bit = int(rng.integers(0, 8))
        buf[pos] ^= 1 << bit
        outcome, detail = classify(golden, bytes(buf))
        if outcome != CAUGHT:
            failures.append((golden.name, f"byte {pos} bit {bit}", outcome, detail))
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small CI-sized sweep instead of the full one")
    parser.add_argument("-n", type=int, default=None,
                        help="mutations for the strict (checksum-on) sweep")
    parser.add_argument("--seed", type=int, default=2025)
    args = parser.parse_args(argv)

    n_strict = args.n if args.n is not None else (120 if args.quick else 600)
    n_loose = max(24, n_strict // 3)
    n_flips = 8 if args.quick else 48

    goldens = build_goldens()
    crc_on = [g for g in goldens if g.checksum]
    crc_off = [g for g in goldens if not g.checksum]

    print(f"goldens: {len(goldens)} streams "
          f"({len(crc_on)} checksum-on, {len(crc_off)} checksum-off)")

    strict = run_sweep(crc_on, n_strict, args.seed, strict=True)
    print(f"strict sweep (checksum-on, {strict.total} mutants): {strict.tallies}")

    loose = run_sweep(crc_off, n_loose, args.seed + 1, strict=False)
    print(f"loose sweep (checksum-off, {loose.total} mutants): {loose.tallies}")
    if loose.tallies[SILENT]:
        print(f"  note: {loose.tallies[SILENT]} silent corruptions -- expected "
              "without the CRC footer; enable --checksum to detect them")

    flip_failures = []
    for g in crc_on:
        flip_failures += check_payload_bitflips(g, n_flips, args.seed + 2)
    print(f"payload bit-flip detection (checksum-on): "
          f"{n_flips * len(crc_on) - len(flip_failures)}/{n_flips * len(crc_on)} caught")

    pid_failures = []
    for g in goldens:
        pid_failures += check_pipeline_id_bits(g)
    print("pipeline-id bit patterns (all goldens): "
          f"{len(pid_failures)} failures")

    failures = strict.failures + loose.failures + flip_failures + pid_failures
    if failures:
        print(f"\n{len(failures)} FAILURES:")
        for name, where, outcome, detail in failures[:25]:
            print(f"  [{outcome}] {name} via {where}: {detail}")
        return 1
    print("all mutants rejected or decoded within bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())

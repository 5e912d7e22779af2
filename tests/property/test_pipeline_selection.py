"""Differential harness for format v3 per-chunk pipeline selection.

The selection contract, case by case:

* **forced-candidate differential** -- a v3 stream with selection on
  decodes bit-identically to every candidate forced individually, and
  each chunk the selector assigned to candidate ``k`` carries a payload
  byte-identical to the same chunk in the forced-``k`` stream (selection
  changes *which* blob is stored, never the blob itself);
* **selection never loses** -- the selected stream is never larger than
  any single-candidate v3 stream (per-chunk minimum over candidates
  bounds every fixed choice);
* **selection wins on sparse data** -- on a mostly-zero field the v3
  stream is at least twice as small as the fixed v1 pipeline's;
* **error bounds hold** -- selection only swaps lossless encodings, so
  the quantizer's pointwise guarantee survives untouched;
* **batch == per-chunk** -- with every pipeline id present in one
  stream, the chunk-major batch path and the per-chunk path emit
  byte-identical streams;
* **telemetry** -- ``pipeline_selected_total{pipeline}`` accounts for
  exactly the non-raw chunks;
* **one compaction per kept chunk** -- every candidate is sized, but
  only each non-raw chunk's winner is compacted, once, and a raw chunk
  never is.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.chunking import ChunkCodec
from repro.core.compressor import PFPLCompressor, compress, decompress
from repro.core.header import HEADER_BYTES, Header
from repro.core.lossless.pipeline import PIPELINE_VARIANTS
from repro.core.verify import check_bound
from repro.device.backend import SerialBackend
from repro.telemetry import Telemetry

from .cases import ALL_CASES, Case, make_values, values_per_chunk

#: Multi-chunk cases across every kind (the new sparse/particle families
#: included): enough chunks for the selector to disagree with itself.
_SELECTION_CASES = [
    c for c in ALL_CASES
    if c.size == 2 * values_per_chunk(c.np_dtype) + 13
]


def _parse_stream(stream: bytes):
    """Header, per-chunk (sizes, raw flags, pids, payload slices)."""
    header = Header.unpack(stream).validate()
    table = np.frombuffer(
        stream[HEADER_BYTES:HEADER_BYTES + 4 * header.n_chunks], dtype="<u4"
    )
    sizes, raw_flags, pids, starts = ChunkCodec.parse_size_table(
        table, header.pipeline_select
    )
    offset = header.payload_offset
    blobs = [
        stream[offset + int(starts[i]):offset + int(starts[i]) + int(sizes[i])]
        for i in range(header.n_chunks)
    ]
    return header, sizes, raw_flags, pids, blobs


def test_selection_case_pool_covers_new_families():
    kinds = {c.kind for c in _SELECTION_CASES}
    assert {"sparse", "particle"} <= kinds
    assert len(_SELECTION_CASES) >= 30


@pytest.mark.parametrize("case", _SELECTION_CASES, ids=lambda c: c.case_id)
def test_selection_matches_forced_candidates(case: Case):
    data = make_values(case)
    selected = compress(data, mode=case.mode, error_bound=case.bound,
                        pipelines=list(range(len(PIPELINE_VARIANTS))))
    header, _, raw_flags, pids, blobs = _parse_stream(selected)
    assert header.pipeline_select

    recon_sel = decompress(selected)
    for pid in range(len(PIPELINE_VARIANTS)):
        forced = compress(data, mode=case.mode, error_bound=case.bound,
                          pipelines=[pid])
        # Selection decodes bit-identically to the forced candidate.
        recon_forced = decompress(forced)
        assert np.array_equal(
            recon_sel.view(np.uint8), recon_forced.view(np.uint8)
        ), f"{case.case_id}: selection != forced {PIPELINE_VARIANTS[pid]}"
        # Chunks the selector gave to this candidate carry the exact
        # blob the forced stream stores for them.
        _, _, f_raw, f_pids, f_blobs = _parse_stream(forced)
        for i in range(header.n_chunks):
            if raw_flags[i] or f_raw[i] or int(pids[i]) != pid:
                continue
            assert blobs[i] == f_blobs[i], (
                f"{case.case_id}: chunk {i} blob differs from forced "
                f"{PIPELINE_VARIANTS[pid]}"
            )


@pytest.mark.parametrize("case", _SELECTION_CASES, ids=lambda c: c.case_id)
def test_selection_never_loses_on_size(case: Case):
    data = make_values(case)
    selected = compress(data, mode=case.mode, error_bound=case.bound,
                        format_version=3)
    for pid in range(len(PIPELINE_VARIANTS)):
        forced = compress(data, mode=case.mode, error_bound=case.bound,
                          pipelines=[pid])
        assert len(selected) <= len(forced), (
            f"{case.case_id}: selection lost to forced "
            f"{PIPELINE_VARIANTS[pid]} ({len(selected)} > {len(forced)})"
        )


def test_selection_at_least_doubles_ratio_on_sparse_field():
    # 1/64 of the lanes non-zero: measured 10.9x (v1) -> 37.7x (v3).
    n = 128 * 128
    rng = np.random.default_rng(7)
    sparse = np.zeros(n, dtype=np.float32)
    sparse[rng.integers(0, n, n // 64)] = rng.normal(0, 10, n // 64)
    v1 = compress(sparse, mode="abs", error_bound=1e-3, format_version=1)
    v3 = compress(sparse, mode="abs", error_bound=1e-3, format_version=3)
    assert len(v1) >= 2 * len(v3), f"v1 {len(v1)} B vs v3 {len(v3)} B"


@pytest.mark.parametrize("case", _SELECTION_CASES, ids=lambda c: c.case_id)
def test_selection_respects_bound(case: Case):
    data = make_values(case)
    recon = decompress(compress(data, mode=case.mode, error_bound=case.bound,
                                format_version=3))
    report = check_bound(case.mode, data, recon, case.bound)
    assert report.ok, f"{case.case_id}: {report.violations} violations"


def _mixed_all_pids(dtype=np.float32) -> np.ndarray:
    """One stream whose chunks pick every pipeline id plus raw fallback.

    Per-chunk regimes: smooth walk (default), particle positions
    (no-shuffle), a mostly-zero field (direct-zero) and full-entropy
    noise (raw).  Verified below -- the test asserts all ids appear.
    """
    from repro.datasets.synthesis import particle_data

    rng = np.random.default_rng(7)
    wpc = values_per_chunk(dtype)
    smooth = np.cumsum(rng.normal(0, 0.01, 2 * wpc)).astype(dtype)
    particles = particle_data(2 * wpc, kind="position", seed=3, dtype=dtype)
    sparse = np.zeros(2 * wpc, dtype=dtype)
    sparse[:: wpc // 16] = 300.0
    # Full-entropy mantissas with randomized large exponents: every
    # value is a quantizer outlier (stored bit-exact) and every byte
    # lane is high-entropy, so no candidate beats the raw fallback.
    n = 2 * wpc
    bits = rng.integers(0, 2 ** 32, n, dtype=np.uint32)
    bits = (bits & np.uint32(0x00FFFFFF)) | (
        rng.integers(0x40, 0x7F, n, dtype=np.uint32) << np.uint32(24)
    )
    noise = bits.view(np.float32).astype(dtype)
    return np.concatenate([smooth, particles, sparse, noise])


def test_mixed_stream_exercises_every_pipeline_id():
    data = _mixed_all_pids()
    stream = compress(data, error_bound=1e-4, format_version=3)
    _, _, raw_flags, pids, _ = _parse_stream(stream)
    assert raw_flags.any(), "raw fallback missing from the mixed stream"
    live = {int(p) for p, r in zip(pids, raw_flags) if not r}
    assert live == {0, 1, 2}, f"pipeline ids selected: {live}"


class PerChunkBackend(SerialBackend):
    """Serial backend that declines chunk-major batches (per-chunk path)."""

    batch_capable = False


def test_batch_and_per_chunk_paths_byte_identical_with_all_pids():
    data = _mixed_all_pids()
    streams = {}
    for per_chunk, backend in ((True, PerChunkBackend()), (False, None)):
        comp = PFPLCompressor(
            mode="abs", error_bound=1e-4, dtype=data.dtype,
            format_version=3, backend=backend,
        )
        streams[per_chunk] = comp.compress(data).data
    assert streams[True] == streams[False]
    for backend in (PerChunkBackend(), None):
        recon = decompress(streams[False], backend=backend)
        assert check_bound("abs", data, recon, 1e-4).ok


def test_selected_counter_accounts_for_non_raw_chunks():
    data = _mixed_all_pids()
    tel = Telemetry()
    stream = compress(data, error_bound=1e-4, format_version=3, telemetry=tel)
    _, _, raw_flags, pids, _ = _parse_stream(stream)
    counts = {name: 0 for name in PIPELINE_VARIANTS}
    for key, value in tel.counters().items():
        if key.startswith("pipeline_selected_total{"):
            name = key.split('pipeline="', 1)[1].rstrip('"}')
            counts[name] = int(value)
    expected = {name: 0 for name in PIPELINE_VARIANTS}
    for pid, raw in zip(pids, raw_flags):
        if not raw:
            expected[PIPELINE_VARIANTS[int(pid)]] += 1
    assert counts == expected
    assert sum(counts.values()) == int((~raw_flags).sum())


@pytest.mark.parametrize("per_chunk", [False, True], ids=["batch", "per-chunk"])
def test_each_non_raw_chunk_is_compacted_once(monkeypatch, per_chunk):
    # Smooth, particle, sparse and incompressible chunks plus a ragged
    # smooth tail.  Count the rows through the pipeline module's batch
    # compaction and the per-chunk ``_zero_elim`` hook calls.
    from repro.core.lossless import pipeline as pipeline_mod

    data = np.concatenate([
        _mixed_all_pids(),
        np.cumsum(np.random.default_rng(5).normal(0, 0.01, 1001)).astype(np.float32),
    ])
    batch_rows: list[int] = []
    hook_calls: list[int] = []
    batch = pipeline_mod.compress_bytes_batch
    hook = pipeline_mod.LosslessPipeline._zero_elim

    def counting_batch(rows, levels):
        batch_rows.append(rows.shape[0])
        return batch(rows, levels=levels)

    def counting_hook(self, stream):
        hook_calls.append(stream.size)
        return hook(self, stream)

    monkeypatch.setattr(pipeline_mod, "compress_bytes_batch", counting_batch)
    monkeypatch.setattr(pipeline_mod.LosslessPipeline, "_zero_elim", counting_hook)
    backend = PerChunkBackend() if per_chunk else None
    stream = PFPLCompressor(
        mode="abs", error_bound=1e-4, dtype=data.dtype, format_version=3,
        backend=backend,
    ).compress(data).data
    monkeypatch.undo()
    assert stream == compress(data, error_bound=1e-4, format_version=3)
    _, _, raw_flags, pids, _ = _parse_stream(stream)
    assert raw_flags.any() and not raw_flags[-1]
    assert {int(p) for p, r in zip(pids, raw_flags) if not r} == {0, 1, 2}
    non_raw = int(np.count_nonzero(~raw_flags))
    if per_chunk:
        assert batch_rows == []
        assert len(hook_calls) == non_raw
    else:
        # Full chunks go through the batch compaction, grouped by
        # winning id; the ragged tail through the per-chunk hook.
        assert sum(batch_rows) == non_raw - 1
        assert len(hook_calls) == 1

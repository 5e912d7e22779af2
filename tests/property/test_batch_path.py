"""Property suite for the chunk-major batch path.

The batched formulation must be invisible in the stream: for every
case, compressing on the default (batch-capable) backend and on a
per-chunk backend emits byte-identical streams, and decoding either way
reproduces the same floats.  Cases focus on what the dispatch rule has
to get right -- chunk-boundary sizes (is the tail full-size or ragged?), raw-fallback
mixes (which rows batch, which stay per-chunk?), and non-finite salting
-- plus the drift contract: the decode-side analytic model must match
the telemetry measured on the *batched* path exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.compressor import PFPLCompressor, decompress
from repro.core.verify import check_bound
from repro.device.backend import SerialBackend
from repro.harness.drift import drift_check

from .cases import ALL_CASES, Case, make_values, values_per_chunk

# Sizes that straddle the batch/per-chunk dispatch boundary: multi-chunk
# streams where the tail is ragged (batch + per-chunk mix) or where
# every chunk is full-size (pure batch), plus sub-chunk streams that
# must bypass the batch path entirely.
_BATCH_CASES = [
    c for c in ALL_CASES
    if c.size in (values_per_chunk(c.np_dtype) - 1,
                  values_per_chunk(c.np_dtype),
                  values_per_chunk(c.np_dtype) + 1,
                  2 * values_per_chunk(c.np_dtype) + 13)
]


class PerChunkBackend(SerialBackend):
    """The per-chunk reference shape: a serial backend that declines
    chunk-major batches, so every chunk runs the per-chunk kernel."""

    batch_capable = False


def _roundtrip_both_ways(data: np.ndarray, mode: str, bound: float):
    """(batched stream, per-chunk stream, batched floats, per-chunk floats)."""
    batched = PFPLCompressor(
        mode=mode, error_bound=bound, dtype=data.dtype,
    ).compress(data).data
    chunked = PFPLCompressor(
        mode=mode, error_bound=bound, dtype=data.dtype, backend=PerChunkBackend(),
    ).compress(data).data
    return (
        batched, chunked,
        decompress(batched),
        decompress(batched, backend=PerChunkBackend()),
    )


@pytest.mark.parametrize("case", _BATCH_CASES, ids=lambda c: c.case_id)
def test_batch_stream_is_byte_identical(case: Case):
    data = make_values(case)
    batched, chunked, out_batch, out_chunk = _roundtrip_both_ways(
        data, case.mode, case.bound
    )
    assert batched == chunked, case.case_id
    uint = {4: np.uint32, 8: np.uint64}[data.dtype.itemsize]
    assert np.array_equal(out_batch.view(uint), out_chunk.view(uint)), case.case_id
    assert check_bound(case.mode, data, out_batch, case.bound).ok, case.case_id


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_raw_fallback_mix_batches_cleanly(dtype):
    # Alternate compressible and incompressible full chunks plus a
    # ragged noise tail: the batch path takes the smooth rows, the
    # per-chunk path the raw rows and the tail, and the stream must not
    # betray the split.
    wpc = values_per_chunk(dtype)
    uint = {4: np.uint32, 8: np.uint64}[np.dtype(dtype).itemsize]
    rng = np.random.default_rng(0xBA7C4)
    smooth = np.cumsum(rng.normal(0, 0.01, wpc)).astype(dtype)
    noise = rng.integers(0, np.iinfo(uint).max, wpc, dtype=uint).view(dtype)
    tail = rng.integers(0, np.iinfo(uint).max, 29, dtype=uint).view(dtype)
    data = np.concatenate([smooth, noise, smooth + 1, noise[::-1].copy(), tail])
    batched, chunked, out_batch, out_chunk = _roundtrip_both_ways(data, "abs", 1e-3)
    assert batched == chunked
    assert np.array_equal(out_batch.view(uint), out_chunk.view(uint))
    assert check_bound("abs", data, out_batch, 1e-3).ok


def test_all_raw_batch_stream_identical():
    # Every full chunk raw: the batch encode path must reproduce the
    # raw framing exactly, and batch decode has zero rows to take.
    wpc = values_per_chunk(np.float32)
    rng = np.random.default_rng(0xBA7C5)
    data = rng.integers(0, 2**32, 3 * wpc, dtype=np.uint32).view(np.float32)
    batched, chunked, out_batch, out_chunk = _roundtrip_both_ways(data, "abs", 1e-3)
    assert batched == chunked
    assert np.array_equal(out_batch.view(np.uint32), out_chunk.view(np.uint32))


@pytest.mark.parametrize("mode", ["abs", "rel", "noa"])
def test_drift_check_green_on_batched_path(mode):
    # drift_check runs the default (batch-capable serial) backend with
    # telemetry on; measured == modeled must hold exactly for a
    # multi-chunk stream that exercises encode and decode batch spans.
    wpc = values_per_chunk(np.float32)
    rng = np.random.default_rng(0xD81F7)
    data = (np.cumsum(rng.normal(0, 0.01, 3 * wpc + 16)).astype(np.float32) + 2.0)
    report = drift_check(data, mode=mode, error_bound=1e-3)
    assert report.bytes_ok, report.render()


def test_telemetry_does_not_change_batched_bytes():
    from repro.telemetry import Telemetry

    wpc = values_per_chunk(np.float32)
    rng = np.random.default_rng(0xD81F8)
    data = np.cumsum(rng.normal(0, 0.01, 2 * wpc + 5)).astype(np.float32)
    plain = PFPLCompressor(
        mode="abs", error_bound=1e-3, dtype=data.dtype,
    ).compress(data).data
    tel = Telemetry()
    traced = PFPLCompressor(
        mode="abs", error_bound=1e-3, dtype=data.dtype, telemetry=tel,
    ).compress(data).data
    assert plain == traced
    spans = [s.name for s in tel.spans]
    assert "batch_encode" in spans or "quantize" in spans

"""GPU-structured kernels: byte-identical to the reference pipeline."""

import numpy as np
import pytest

from repro.core.lossless.pipeline import LosslessPipeline, PipelineConfig
from repro.device.gpu_sim import GpuLosslessPipeline, gpu_compact, gpu_delta_decode
from repro.core.lossless.delta import delta_decode, delta_encode


def _chunks(dtype, seed=0):
    r = np.random.default_rng(seed)
    smooth = (np.cumsum(r.integers(-2, 3, 4096)) & 0xFFFF).astype(dtype)
    random = r.integers(0, 1 << 32, 4096).astype(dtype)
    sparse = np.zeros(4096, dtype=dtype)
    sparse[:: 97] = 12345
    short = smooth[:16]
    return [smooth, random, sparse, short]


class TestGpuPipeline:
    @pytest.mark.parametrize("dtype", [np.uint32, np.uint64])
    def test_encode_byte_identical_to_reference(self, dtype):
        ref = LosslessPipeline(dtype)
        gpu = GpuLosslessPipeline(dtype)
        for words in _chunks(dtype):
            assert gpu.encode_chunk(words) == ref.encode_chunk(words)

    @pytest.mark.parametrize("dtype", [np.uint32, np.uint64])
    def test_decode_roundtrip(self, dtype):
        gpu = GpuLosslessPipeline(dtype)
        for words in _chunks(dtype, seed=1):
            blob = gpu.encode_chunk(words)
            assert np.array_equal(gpu.decode_chunk(blob, words.size), words)

    @pytest.mark.parametrize(
        "cfg",
        [
            PipelineConfig(use_delta=False),
            PipelineConfig(use_bitshuffle=False),
            PipelineConfig(use_zero_elim=False),
            PipelineConfig(bitmap_levels=2),
        ],
        ids=lambda c: c.describe(),
    )
    def test_ablated_configs_match_reference(self, cfg):
        ref = LosslessPipeline(np.uint32, cfg)
        gpu = GpuLosslessPipeline(np.uint32, cfg)
        words = _chunks(np.uint32, seed=2)[0]
        assert gpu.encode_chunk(words) == ref.encode_chunk(words)
        assert np.array_equal(
            gpu.decode_chunk(gpu.encode_chunk(words), words.size),
            ref.decode_chunk(ref.encode_chunk(words), words.size),
        )

    def test_cross_pipeline_decode(self):
        """GPU-encoded chunk decodes on the reference path and vice versa."""
        ref = LosslessPipeline(np.uint32)
        gpu = GpuLosslessPipeline(np.uint32)
        words = _chunks(np.uint32, seed=3)[0]
        assert np.array_equal(ref.decode_chunk(gpu.encode_chunk(words), words.size), words)
        assert np.array_equal(gpu.decode_chunk(ref.encode_chunk(words), words.size), words)


class TestGpuKernelsRunUnderSelection:
    """The GPU backend's compress must run its own warp kernels -- with
    format v3 selection too, where every chunk goes through the inherited
    ``encode_variants`` control flow -- and still match the serial bytes."""

    @staticmethod
    def _count_warp_shuffles(monkeypatch, **fmt):
        from repro.core.compressor import compress
        from repro.device import gpu_sim
        from repro.device.backend import GpuSimBackend

        calls = []
        warp_bitshuffle = gpu_sim.warp_bitshuffle

        def counting(words):
            calls.append(words.size)
            return warp_bitshuffle(words)

        data = np.cumsum(
            np.random.default_rng(3).normal(0, 0.01, 10 * 4096)
        ).astype(np.float32)
        with monkeypatch.context() as m:
            m.setattr(gpu_sim, "warp_bitshuffle", counting)
            stream = compress(data, error_bound=1e-3, backend=GpuSimBackend(), **fmt)
        assert stream == compress(data, error_bound=1e-3, **fmt)
        return len(calls)

    def test_v3_selection_uses_warp_bitshuffle(self, monkeypatch):
        # One shared bitshuffle per chunk across the three candidates.
        assert self._count_warp_shuffles(monkeypatch, format_version=3) == 10

    def test_v1_uses_warp_bitshuffle(self, monkeypatch):
        assert self._count_warp_shuffles(monkeypatch, format_version=1) == 10


class TestGpuPrimitives:
    @pytest.mark.parametrize("dtype", [np.uint32, np.uint64])
    def test_delta_decode_matches_reference(self, dtype):
        r = np.random.default_rng(4)
        words = r.integers(0, 1 << 32, 2048).astype(dtype)
        enc = delta_encode(words)
        assert np.array_equal(gpu_delta_decode(enc), delta_decode(enc))

    def test_compact_matches_boolean_indexing(self):
        r = np.random.default_rng(5)
        data = r.integers(0, 255, 10_000).astype(np.uint8)
        keep = data > 128
        assert np.array_equal(gpu_compact(data, keep), data[keep])

    def test_compact_empty(self):
        assert gpu_compact(np.zeros(0, dtype=np.uint8), np.zeros(0, dtype=bool)).size == 0

    def test_compact_none_kept(self):
        data = np.arange(16, dtype=np.uint8)
        assert gpu_compact(data, np.zeros(16, dtype=bool)).size == 0

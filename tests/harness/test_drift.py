"""Measured-vs-analytic drift: telemetry must agree with profile_chunk."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import PFPLUsageError
from repro.harness.drift import drift_check, schedule_drift_check


@pytest.fixture
def deterministic_chunk() -> np.ndarray:
    """Exactly one full 16 kB chunk of smooth float32 data."""
    rng = np.random.default_rng(42)
    return np.cumsum(rng.normal(0, 0.01, 4096)).astype(np.float32)


class TestByteAccounting:
    def test_single_chunk_exact(self, deterministic_chunk):
        report = drift_check(deterministic_chunk, mode="abs", error_bound=1e-3)
        assert report.n_chunks == 1
        assert report.bytes_ok, report.render()
        for stage in report.stages:
            assert stage.measured_bytes_in == stage.analytic_bytes_in
            assert stage.measured_bytes_out == stage.analytic_bytes_out

    def test_stage_coverage(self, deterministic_chunk):
        report = drift_check(deterministic_chunk)
        assert {s.stage for s in report.stages} == {
            "quantize", "delta+negabinary", "bitshuffle", "zero-elim",
        }

    def test_multi_chunk_abs(self, rng):
        values = np.cumsum(rng.normal(0, 0.02, 4096 * 5)).astype(np.float32)
        report = drift_check(values, mode="abs", error_bound=1e-3)
        assert report.n_chunks == 5
        assert report.bytes_ok, report.render()

    def test_rel_mode(self, rng):
        values = np.abs(np.cumsum(rng.normal(0, 0.02, 4096 * 2))).astype(
            np.float32
        ) + 1.0
        report = drift_check(values, mode="rel", error_bound=1e-2)
        assert report.bytes_ok, report.render()

    def test_float64(self, rng):
        values = np.cumsum(rng.normal(0, 0.01, 2048 * 3)).astype(np.float64)
        report = drift_check(values, mode="abs", error_bound=1e-6)
        assert report.bytes_ok, report.render()

    def test_noa_single_chunk(self, deterministic_chunk):
        report = drift_check(deterministic_chunk, mode="noa", error_bound=1e-3)
        assert report.bytes_ok, report.render()

    def test_noa_multi_chunk(self, rng):
        # The value range is resolved once over the whole input and
        # pinned for every per-chunk profile, so a multi-chunk NOA run
        # byte-checks exactly even though each slice's local min/max
        # differs from the global range.
        values = np.cumsum(rng.normal(0, 0.05, 4096 * 4)).astype(np.float32)
        report = drift_check(values, mode="noa", error_bound=1e-3)
        assert report.n_chunks == 4
        assert report.bytes_ok, report.render()


class TestDecodeByteAccounting:
    """The inverse-stage analytic model vs measured decompression bytes."""

    @pytest.mark.parametrize("mode", ["abs", "rel", "noa"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    def test_decode_exact_all_modes_and_dtypes(self, mode, dtype):
        rng = np.random.default_rng(9)
        base = np.cumsum(rng.normal(0, 0.02, 16384 // np.dtype(dtype).itemsize * 3))
        values = (np.abs(base) + 1.0).astype(dtype)  # REL needs nonzero
        report = drift_check(values, mode=mode, error_bound=1e-3)
        assert report.decode_stages, "decode side missing from report"
        assert report.bytes_ok, report.render()
        for stage in report.decode_stages:
            assert stage.measured_bytes_in == stage.analytic_bytes_in, stage.stage
            assert stage.measured_bytes_out == stage.analytic_bytes_out, stage.stage

    def test_decode_stage_coverage(self, deterministic_chunk):
        report = drift_check(deterministic_chunk)
        assert {s.stage for s in report.decode_stages} == {
            "zero-restore", "bitunshuffle", "delta-decode", "dequantize",
        }

    def test_decode_shares_sum_to_one(self, deterministic_chunk):
        report = drift_check(deterministic_chunk)
        assert sum(report.ops_share(s) for s in report.decode_stages) \
            == pytest.approx(1.0)
        assert sum(report.time_share(s) for s in report.decode_stages) \
            == pytest.approx(1.0)

    def test_raw_fallback_decodes_without_lossless_stages(self):
        # Incompressible noise forces raw chunks: the decoder skips the
        # lossless inverse stages, and the analytic model must agree.
        rng = np.random.default_rng(3)
        noise = rng.uniform(-1e9, 1e9, 4096 * 2).astype(np.float32)
        report = drift_check(noise, mode="abs", error_bound=1e-12)
        assert report.bytes_ok, report.render()

    def test_render_has_decode_section(self, deterministic_chunk):
        text = drift_check(deterministic_chunk).render()
        assert "[decode]" in text and "zero-restore" in text


def _selection_datasets():
    """Named inputs covering every selection regime, raw mixed in."""
    from repro.datasets.synthesis import particle_data

    rng = np.random.default_rng(11)
    wpc = 4096
    smooth = np.cumsum(rng.normal(0, 0.01, 2 * wpc)).astype(np.float32)
    sparse = np.zeros(2 * wpc, dtype=np.float32)
    sparse[::256] = 300.0
    particle = particle_data(2 * wpc, kind="position", seed=3, dtype=np.float32)
    bits = rng.integers(0, 2 ** 32, wpc, dtype=np.uint32)
    bits = (bits & np.uint32(0x00FFFFFF)) | (
        rng.integers(0x40, 0x7F, wpc, dtype=np.uint32) << np.uint32(24)
    )
    raw_mixed = np.concatenate([smooth[:wpc], bits.view(np.float32)])
    return {
        "smooth": smooth, "sparse": sparse,
        "particle": particle, "raw-mixed": raw_mixed,
    }


class TestPipelineSelectionDrift:
    """Format v3 cells: every variant forced alone and full selection,
    byte-exact in both directions, with the raw fallback mixed in."""

    @pytest.mark.parametrize("pipelines", [[0], [1], [2], [0, 1, 2]],
                             ids=["default", "no-shuffle", "direct-zero", "select"])
    @pytest.mark.parametrize("name", ["smooth", "sparse", "particle", "raw-mixed"])
    def test_exact_both_directions(self, name, pipelines):
        values = _selection_datasets()[name]
        report = drift_check(values, mode="abs", error_bound=1e-3,
                             pipelines=pipelines)
        assert report.stages and report.decode_stages
        assert report.bytes_ok, report.render()

    @pytest.mark.parametrize("mode", ["abs", "rel", "noa"])
    def test_selection_exact_all_modes(self, mode):
        values = _selection_datasets()["smooth"]
        if mode == "rel":
            values = np.abs(values) + 1.0
        report = drift_check(values, mode=mode, error_bound=1e-3,
                             pipelines=[0, 1, 2])
        assert report.bytes_ok, report.render()

    def test_shared_stage_structure(self):
        # The analytic encode model mirrors encode_variants' sharing:
        # delta appears only if a candidate uses it, bitshuffle only for
        # the default candidate, one ``select`` row (the per-candidate
        # sizing spans) only when there is more than one candidate to
        # size, and zero-elim always (a lone candidate is compacted
        # directly).  drift_check also reports any measured stage the
        # model lacks, so these sets are the measured stages too.
        values = _selection_datasets()["smooth"]
        stages = lambda sel: {  # noqa: E731
            s.stage for s in drift_check(values, pipelines=sel).stages
        }
        assert stages([2]) == {"quantize", "zero-elim"}
        assert stages([1]) == {"quantize", "delta+negabinary", "zero-elim"}
        assert stages([0]) == {
            "quantize", "delta+negabinary", "bitshuffle", "zero-elim",
        }
        assert stages([1, 2]) == {
            "quantize", "delta+negabinary", "select", "zero-elim",
        }
        assert stages([0, 1, 2]) == {
            "quantize", "delta+negabinary", "bitshuffle", "select", "zero-elim",
        }

    def test_selection_compacts_only_winners(self):
        # Three candidates => the select row reads every candidate's
        # stream (3x the padded words) and writes nothing, while the
        # zero-elim row compacts each non-raw chunk once.  A lone
        # candidate compacts every chunk, raw ones included.  Measured
        # and analytic alike.
        chunk_bytes = 16384
        pick = lambda rep, stage: next(  # noqa: E731
            s for s in rep.stages if s.stage == stage
        )
        for name, n_raw in (("smooth", 0), ("raw-mixed", 1)):
            values = _selection_datasets()[name]
            n_chunks = values.nbytes // chunk_bytes
            one = drift_check(values, pipelines=[0])
            three = drift_check(values, pipelines=[0, 1, 2])
            assert one.bytes_ok and three.bytes_ok, three.render()
            for side in ("measured", "analytic"):
                got = lambda rep, stage, key: getattr(  # noqa: E731
                    pick(rep, stage), f"{side}_bytes_{key}"
                )
                assert got(one, "zero-elim", "in") == n_chunks * chunk_bytes
                assert got(three, "select", "in") == 3 * n_chunks * chunk_bytes
                assert got(three, "select", "out") == 0
                assert got(three, "zero-elim", "in") == \
                    (n_chunks - n_raw) * chunk_bytes
        # Smooth chunks all pick the default pipeline: the one
        # compaction pass is exactly the lone default candidate's.
        values = _selection_datasets()["smooth"]
        assert pick(drift_check(values, pipelines=[0, 1, 2]), "zero-elim") \
            .measured_bytes_out == pick(drift_check(values, pipelines=[0]),
                                        "zero-elim").measured_bytes_out


class TestScheduleDrift:
    """Measured pool busy-time vs the dynamic_schedule simulation."""

    def test_structural_invariants(self):
        rng = np.random.default_rng(5)
        values = np.cumsum(rng.normal(0, 0.02, 4096 * 16)).astype(np.float32)
        report = schedule_drift_check(values, mode="abs", error_bound=1e-3,
                                      n_threads=4)
        assert report.n_items == 16
        assert report.n_workers >= 1
        # The simulated makespan can never beat perfect packing of the
        # measured durations, and can never exceed their serial sum.
        assert report.simulated_makespan <= report.measured_total + 1e-9
        assert report.simulated_makespan * report.n_workers \
            >= report.measured_total - 1e-9
        assert report.simulated_imbalance >= 1.0

    def test_generous_tolerance_passes(self):
        rng = np.random.default_rng(6)
        values = np.cumsum(rng.normal(0, 0.02, 4096 * 12)).astype(np.float32)
        report = schedule_drift_check(values, n_threads=4, tolerance=50.0)
        assert report.ok
        assert report.makespan_gap < 50.0

    def test_to_dict_and_render(self):
        rng = np.random.default_rng(7)
        values = np.cumsum(rng.normal(0, 0.02, 4096 * 8)).astype(np.float32)
        report = schedule_drift_check(values, n_threads=2, tolerance=10.0)
        import json

        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["n_items"] == 8
        assert "measured_makespan" in doc and "simulated_makespan" in doc
        text = report.render()
        assert "makespan" in text

    def test_rejects_single_chunk(self, deterministic_chunk):
        # One chunk short-circuits the pool (no chunk_exec spans), so
        # there is no schedule to compare against.
        with pytest.raises(PFPLUsageError, match="chunk"):
            schedule_drift_check(deterministic_chunk)

    def test_rejects_empty(self):
        with pytest.raises(PFPLUsageError):
            schedule_drift_check(np.empty(0, dtype=np.float32))


class TestReportShape:
    def test_shares_sum_to_one(self, deterministic_chunk):
        report = drift_check(deterministic_chunk)
        assert sum(report.ops_share(s) for s in report.stages) == pytest.approx(1.0)
        assert sum(report.time_share(s) for s in report.stages) == pytest.approx(1.0)

    def test_to_dict_is_json_ready(self, deterministic_chunk):
        import json

        doc = drift_check(deterministic_chunk).to_dict()
        parsed = json.loads(json.dumps(doc))
        assert parsed["bytes_ok"] is True
        assert len(parsed["stages"]) == 4

    def test_render_mentions_verdict(self, deterministic_chunk):
        text = drift_check(deterministic_chunk).render()
        assert "exact" in text

    def test_rejects_unaligned_length(self):
        with pytest.raises(ValueError, match="multiple of 8"):
            drift_check(np.zeros(100, dtype=np.float32) + 1.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            drift_check(np.empty(0, dtype=np.float32))

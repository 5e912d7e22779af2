"""Bound-verification helpers (the severity taxonomy of Section V)."""

import warnings

import numpy as np
import pytest

from repro.core.verify import check_abs, check_bound, check_noa, check_rel


class TestAbs:
    def test_clean(self):
        v = np.array([1.0, 2.0, 3.0])
        r = v + 5e-4
        rep = check_abs(v, r, 1e-3)
        assert rep.ok and rep.severity == "none"
        assert rep.max_error == pytest.approx(5e-4)

    def test_minor_violation(self):
        rep = check_abs(np.array([1.0]), np.array([1.0 + 1.2e-3]), 1e-3)
        assert not rep.ok
        assert rep.severity == "minor"
        assert rep.violations == 1

    def test_major_violation_threshold_is_1_5x(self):
        rep = check_abs(np.array([1.0]), np.array([1.0 + 1.5e-3]), 1e-3)
        assert rep.severity == "major"

    def test_nonfinite_originals_excluded(self):
        v = np.array([np.nan, np.inf, 1.0])
        r = np.array([0.0, 0.0, 1.0])
        assert check_abs(v, r, 1e-3).ok

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_nonfinite_reconstruction_is_a_violation(self, bad):
        # NaN compares false against the bound: a lane passes only when
        # its error provably satisfies it.
        rep = check_abs(np.array([1.0, 2.0]), np.array([bad, 2.0]), 1e-3)
        assert not rep.ok
        assert rep.violations == 1
        assert rep.max_error == float("inf")
        assert rep.severity == "major"

    def test_nan_reconstruction_fails_noa_and_dispatch(self):
        v, r = np.array([0.0, 10.0]), np.array([0.0, np.nan])
        assert not check_noa(v, r, 1e-2).ok
        assert check_noa(v, r, 1e-2).max_error == float("inf")
        for mode in ("abs", "noa"):
            assert check_bound(mode, v, r, 1e-2).violations == 1

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            check_abs(np.zeros(3), np.zeros(4), 1e-3)

    def test_longdouble_precision_catches_half_ulp(self):
        # a reconstruction that is out of bounds by < 1 float64 ulp of eps
        eps = 1e-3
        v = np.array([0.0])
        r = np.array([np.nextafter(eps, 2 * eps)])
        assert not check_abs(v, r, eps).ok


class TestRel:
    def test_clean(self):
        v = np.array([10.0, -10.0, 0.0])
        r = np.array([10.005, -9.995, 0.0])
        assert check_rel(v, r, 1e-3).ok

    def test_sign_flip_is_violation(self):
        rep = check_rel(np.array([1.0]), np.array([-1.0]), 1e-1)
        assert not rep.ok

    def test_zero_must_decode_to_zero(self):
        rep = check_rel(np.array([0.0]), np.array([1e-30]), 1e-3)
        assert not rep.ok
        assert rep.max_error == float("inf")

    def test_range_check_both_sides(self):
        v = np.array([100.0])
        assert not check_rel(v, np.array([100.0 * 1.002]), 1e-3).ok
        assert not check_rel(v, np.array([100.0 / 1.002]), 1e-3).ok
        assert check_rel(v, np.array([100.0 * 1.0009]), 1e-3).ok

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_reconstruction_is_a_major_violation(self, bad):
        rep = check_rel(np.array([1.0, 2.0]), np.array([bad, 2.0]), 1e-3)
        assert not rep.ok
        assert rep.violations == 1
        assert rep.max_error == float("inf")
        assert rep.severity == "major"


@pytest.mark.parametrize("check", [check_abs, check_rel])
def test_signalling_nan_reconstruction_is_a_violation_without_warning(check):
    # Widening a float32 signalling NaN to long double raises FE_INVALID;
    # the oracle must judge the lane without warning.
    recon = np.array([0x7F800001, 0x40000000], dtype=np.uint32).view(np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = check(np.array([1.0, 2.0], dtype=np.float32), recon, 1e-3)
    assert rep.violations == 1
    assert rep.max_error == float("inf")


class TestNoa:
    def test_range_derived_from_data(self):
        v = np.array([0.0, 10.0])
        r = np.array([0.05, 10.0])
        assert check_noa(v, r, 1e-2).ok          # bound = 0.1
        assert not check_noa(v, r, 1e-3).ok      # bound = 0.01

    def test_explicit_range(self):
        v = np.array([0.0, 1.0])
        r = np.array([0.05, 1.0])
        assert check_noa(v, r, 1e-2, value_range=10.0).ok

    def test_normalized_max_error(self):
        rep = check_noa(np.array([0.0, 10.0]), np.array([0.1, 10.0]), 1e-2)
        assert rep.max_error == pytest.approx(0.01)


class TestDispatch:
    def test_modes(self):
        v = np.array([1.0])
        for mode in ("abs", "rel", "noa"):
            assert check_bound(mode, v, v, 1e-3).mode == mode

    def test_unknown(self):
        with pytest.raises(ValueError):
            check_bound("l2", np.zeros(1), np.zeros(1), 1e-3)

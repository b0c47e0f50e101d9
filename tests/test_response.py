"""Tests for the response observables and the driven-average pipelines."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from geodrive import DegeneracyError, ValidationError
from geodrive.evolution import GAP_THRESHOLD
from geodrive.response import (
    GOLDEN,
    ObservableSeries,
    drive_spec,
    observable_cd,
    observable_hdqs,
    observable_klein,
    observable_rp2,
    run_hdqs,
    run_klein,
    run_rp2,
    running_average,
)


class TestRunningAverage:
    def test_constant_series(self):
        t = np.linspace(0.0, 10.0, 101)
        series = ObservableSeries(t, np.full(101, 3.0))
        curve = running_average(series, 1.5)
        assert_allclose(curve.T, t[1:])
        assert_allclose(curve.values, 2.0, rtol=1e-13)

    def test_linear_series_is_exact(self):
        # trapezoid is exact for a linear integrand: average of t is T/2
        t = np.linspace(0.0, 4.0, 33)
        curve = running_average(ObservableSeries(t, t.copy()), 1.0)
        assert_allclose(curve.values, curve.T / 2, rtol=1e-13)

    def test_target_bookkeeping(self):
        series = ObservableSeries(np.array([0.0, 1.0]), np.array([2.0, 2.0]))
        curve = running_average(series, 1.0, target=2.5)
        assert curve.final_value == pytest.approx(2.0)
        assert curve.abs_error == pytest.approx(0.5)
        assert running_average(series, 1.0).abs_error is None

    def test_validation(self):
        empty = ObservableSeries(np.array([]), np.array([]))
        with pytest.raises(ValidationError):
            running_average(empty, 1.0)
        series = ObservableSeries(np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValidationError):
            running_average(series, 0.0)


def one(*values):
    """One-sample arrays for the batched observable builders."""
    return [np.array([v]) for v in values]


class TestObservableHdqs:
    def on_shell_momentum(self, z, lam, phi=0.7):
        return 2 * lam / (1 - abs(z) ** 2) * np.exp(1j * phi)

    def test_matches_hand_assembly(self, meron):
        z, lam = 0.1 + 0.2j, 0.3
        p = self.on_shell_momentum(z, lam)
        O = observable_hdqs(meron, *one(z, p))[0]
        grads = meron.gradient_many(np.array([z]))[0]
        ginv = (1 - abs(z) ** 2) ** 2 / 4
        ref = 2 * ginv * (p.imag * grads[0] - p.real * grads[1])
        assert_allclose(O, ref, atol=1e-14)
        assert_allclose(O, O.conj().T, atol=1e-14)

    def test_no_lambda_skips_the_check(self, meron):
        # any momentum is taken: nothing checks it against a speed
        O = observable_hdqs(meron, *one(0.1 + 0.2j, 1.0 + 0j))
        assert O.shape == (1, 2, 2)


class TestFlatObservables:
    def test_klein_matches_hand_assembly(self, klein_m2):
        theta, omega = (0.4, -1.3), (0.5, 0.81)
        O = observable_klein(klein_m2, np.array([theta]), omega[1])[0]
        gx = klein_m2.gradient_many(np.array([theta]))[0, 0]
        assert_allclose(O, omega[1] * theta[1] * gx, atol=1e-14)
        assert_allclose(O, O.conj().T, atol=1e-14)

    def test_rp2_default_and_signed_velocity(self, rp2_m1):
        theta, omega = (0.9, 1.7), (0.5, 0.81)
        O_plus = observable_rp2(rp2_m1, *one(theta, omega[1]))[0]
        O_signed = observable_rp2(rp2_m1, *one(theta, -omega[1]))[0]
        assert_allclose(O_signed, -O_plus, atol=1e-14)
        gx = rp2_m1.gradient_many(np.array([theta]))[0, 0]
        assert_allclose(O_plus, omega[1] * theta[0] * theta[1] * gx,
                        atol=1e-14)

    def test_cd_observable_hermitian(self, meron):
        z, lam = 0.15 + 0.1j, 0.5
        p = 2 * lam / (1 - abs(z) ** 2) * np.exp(0.4j)
        O = observable_cd(meron, *one(z, p), 1, GAP_THRESHOLD)[0]
        assert O.shape == (2, 2)
        assert_allclose(O, O.conj().T, atol=1e-10)


@pytest.fixture(scope="module")
def quick(meron):
    return run_hdqs(meron, lam=0.2, T=50.0, dt=0.02)


class TestRunHdqs:
    def test_norms_and_grids(self, quick):
        assert quick.norm_deviation < 1e-9
        assert quick.curve.T[-1] == pytest.approx(50.0)
        assert quick.series.t[0] == 0.0
        assert len(quick.series.t) == len(quick.curve.T) + 1

    def test_bookkeeping(self, quick):
        assert quick.band == 1
        assert quick.spec.dt == pytest.approx(0.01)  # states live on dt = 2 spec.dt
        assert quick.spec.speed == pytest.approx(0.2)
        assert quick.curve.normalization == pytest.approx(0.04)
        assert np.isfinite(quick.curve.values).all()

    def test_wrong_manifold(self, klein_m2):
        with pytest.raises(ValidationError):
            run_hdqs(klein_m2)

    def test_counterdiabatic_variant(self, meron):
        run = run_hdqs(meron, lam=0.5, T=20.0, dt=0.02,
                       counterdiabatic=True)
        assert run.norm_deviation < 1e-9
        assert np.isfinite(run.curve.final_value)


class TestRunKlein:
    def test_quick_run(self, klein_m2):
        run = run_klein(klein_m2, omega=(0.5, 0.5 * GOLDEN), T=100.0,
                        dt=0.02, target=math.pi / 2)
        assert run.norm_deviation < 1e-9
        assert run.curve.normalization == pytest.approx(
            (0.5 * GOLDEN) ** 2 / math.pi)
        assert run.curve.abs_error is not None
        assert run.spec.omega == (0.5, 0.5 * GOLDEN)

    def test_default_frequencies(self, klein_m2):
        # defaults: omega_x = 0.02, golden-ratio omega_y, omega_x T = 400;
        # just check the frequency wiring on a tiny explicit horizon
        run = run_klein(klein_m2, T=50.0)
        assert run.spec.omega[0] == pytest.approx(0.02)
        assert run.spec.omega[1] / run.spec.omega[0] == pytest.approx(GOLDEN)

    def test_wrong_manifold(self, meron):
        with pytest.raises(ValidationError, match="lives on"):
            run_klein(meron)

    def test_horizon_needs_a_positive_omega_x(self, klein_m2):
        # without T the horizon is omega_x T = 400
        for omega in ((0.0, 0.1), (-0.02, 0.1)):
            with pytest.raises(ValidationError, match="omega_x"):
                run_klein(klein_m2, omega=omega)
        assert drive_spec("rp2", T=5.0, omega=(0.0, 0.1)).T == 5.0

    def test_gap_closing_model_rejected(self):
        from geodrive.models import klein_qubit

        with pytest.raises(DegeneracyError):
            run_klein(klein_qubit(1.0), T=10.0)


class TestRunRp2:
    def test_quick_run(self, rp2_m1):
        run = run_rp2(rp2_m1, omega=(0.5, 0.5 * GOLDEN), T=100.0, dt=0.02)
        assert run.norm_deviation < 1e-9
        assert np.isfinite(run.curve.final_value)
        assert run.spec.theta0 == (0.0, 0.0)

    def test_wrong_manifold(self, klein_m2):
        with pytest.raises(ValidationError):
            run_rp2(klein_m2)


def test_golden_ratio_constant():
    assert GOLDEN == pytest.approx((1 + math.sqrt(5)) / 2, rel=1e-15)
    assert GOLDEN ** 2 == pytest.approx(GOLDEN + 1, rel=1e-15)

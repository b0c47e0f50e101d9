"""Tests for the response observables and the driven-average pipelines."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from geodrive import DegeneracyError, ValidationError
from geodrive.evolution import _CHUNK, GAP_THRESHOLD, evolve
from geodrive.models import bolza_qubit, eigensystem, klein_qubit, rp2_qubit
from geodrive.response import (
    GOLDEN,
    ObservableSeries,
    _expectation_values,
    _flat_weights,
    _gradient_expectations,
    _hdqs_weights,
    drive_spec,
    observable_cd,
    observable_hdqs,
    run_hdqs,
    run_klein,
    run_rp2,
    running_average,
)
from geodrive.trajectories import trajectory


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

    def test_final_value(self):
        series = ObservableSeries(np.array([0.0, 1.0]), np.array([2.0, 3.0]))
        curve = running_average(series, 1.0)
        assert curve.final_value == pytest.approx(2.5)
        assert isinstance(curve.final_value, float)

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


# a normalized state with no special relation to any H
PSI = np.array([0.6, 0.48 + 0.64j])


def flat_expectations(model, theta, vy, generic):
    """<PSI|O|PSI> of a flat observable at one sample from the pipelines'
    weights, on the Bloch route and on the matrix route."""
    pts = np.array([theta])
    weights = _flat_weights(model.manifold, pts, vy)
    return [_gradient_expectations(m, PSI[None], pts, weights)[0][0]
            for m in (model, generic(model))]


class TestFlatObservables:
    def test_klein_matches_hand_assembly(self, klein_m2, generic):
        theta, omega = (0.4, -1.3), (0.5, 0.81)
        gx = klein_m2.gradient_many(np.array([theta]))[0, 0]
        ref = PSI.conj() @ (omega[1] * theta[1] * gx) @ PSI
        assert_allclose(flat_expectations(klein_m2, theta, omega[1], generic),
                        ref.real, rtol=1e-13)

    def test_rp2_default_and_signed_velocity(self, rp2_m1, generic):
        theta, omega = (0.9, 1.7), (0.5, 0.81)
        plus = flat_expectations(rp2_m1, theta, omega[1], generic)
        signed = flat_expectations(rp2_m1, theta, -omega[1], generic)
        assert_allclose(signed, -np.array(plus), rtol=1e-15)
        gx = rp2_m1.gradient_many(np.array([theta]))[0, 0]
        ref = PSI.conj() @ (omega[1] * theta[0] * theta[1] * gx) @ PSI
        assert_allclose(plus, ref.real, rtol=1e-13)

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
                        dt=0.02)
        assert run.norm_deviation < 1e-9
        assert run.curve.normalization == pytest.approx(
            (0.5 * GOLDEN) ** 2 / math.pi)
        assert np.isfinite(run.curve.final_value)
        assert run.spec.omega == (0.5, 0.5 * GOLDEN)

    def test_default_frequencies(self, klein_m2):
        # defaults: omega_x = 0.02, golden-ratio omega_y, omega_x T = 400;
        # just check the frequency wiring on a tiny explicit horizon
        run = run_klein(klein_m2, T=50.0)
        assert run.spec.omega[0] == pytest.approx(0.02)
        assert run.spec.omega[1] / run.spec.omega[0] == pytest.approx(GOLDEN)
        # and the start is the corner (x_lo, y_lo) of the Klein box
        assert run.spec.theta0 == (-math.pi, -math.pi)

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


# ---------------------------------------------------------------------------
# the window loop against one pass over the whole drive

AGREE = 1e-12
DT = 0.01
PIPELINES = {
    "bolza": (lambda: bolza_qubit(0.5), run_hdqs, {"lam": 0.2}),
    "bolza_cd": (lambda: bolza_qubit(0.5), run_hdqs,
                 {"lam": 0.2, "counterdiabatic": True}),
    "klein": (lambda: klein_qubit(2.0), run_klein, {"omega": (0.5, 0.81)}),
    "rp2": (lambda: rp2_qubit(1.0), run_rp2, {"omega": (0.5, 0.81)}),
}


def in_memory(model, manifold, n_steps, lam=None, omega=None,
              counterdiabatic=False):
    """The pipeline as one pass over arrays of the whole drive."""
    drive = {"lam": lam} if manifold == "bolza" else {"omega": omega}
    spec = drive_spec(manifold, T=n_steps * DT, dt=DT, **drive)
    traj = trajectory(spec)
    pts = traj.z if manifold == "bolza" else traj.theta
    psi0 = eigensystem(model.evaluate(pts[0])).states[:, 1]
    result = evolve(psi0, model, traj,
                    counterdiabatic_band=1 if counterdiabatic else None)
    pb = pts[::2]
    if manifold == "bolza":
        normalization, p = lam ** 2, traj.p[::2]
        if counterdiabatic:
            values, _ = _expectation_values(
                result.states, observable_cd(model, pb, p, 1, GAP_THRESHOLD))
        else:
            values, _ = _gradient_expectations(model, result.states, pb,
                                               _hdqs_weights(pb, p))
    else:
        normalization = omega[1] ** 2 / math.pi
        values, _ = _gradient_expectations(
            model, result.states, pb,
            _flat_weights(manifold, pb, traj.velocities()[::2, 1]))
    return result, running_average(ObservableSeries(result.t, values),
                                   normalization)


@pytest.mark.parametrize("n_steps",
                         [1, 63, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 17])
@pytest.mark.parametrize("name", sorted(PIPELINES))
def test_windows_agree_with_one_pass(name, n_steps):
    build, runner, drive = PIPELINES[name]
    model = build()
    run = runner(model, T=n_steps * DT, dt=DT, **drive)
    result, curve = in_memory(model, name.split("_")[0], n_steps, **drive)
    assert run.stats["steps"] == n_steps
    assert run.stats["windows"] == -(-n_steps // _CHUNK)
    assert_allclose(run.series.t, result.t, rtol=0, atol=AGREE)
    assert_allclose(run.curve.T, curve.T, rtol=0, atol=AGREE)
    assert_allclose(run.curve.expectation, curve.expectation, rtol=0,
                    atol=AGREE)
    assert_allclose(run.curve.values, curve.values, rtol=0, atol=AGREE)
    assert run.norm_deviation == pytest.approx(
        np.abs(result.norms - 1).max(), rel=0, abs=AGREE)
    if result.min_gap is None:
        assert run.min_gap is None and run.stats["min_gap_t"] is None
    else:
        assert run.min_gap == pytest.approx(result.min_gap, rel=0, abs=AGREE)
        assert run.stats["min_gap_t"] == result.min_gap_t


def test_series_and_curve_share_the_output_arrays(quick):
    assert quick.curve.T.base is quick.series.t
    assert quick.curve.expectation.base is quick.series.values
    assert np.isnan(quick.curve.values.base[0])
    steps = quick.stats["steps"]
    assert quick.stats["output_bytes"] == 24 * (steps + 1)
    assert 0 < quick.stats["window_bytes"]
    for key in ("trajectory_s", "evolve_s", "expectation_s"):
        assert quick.stats[key] > 0


def test_memory_is_the_output_curve_plus_one_window(klein_m2):
    run_klein(klein_m2, T=20.0)  # first-call allocations stay out of it
    tracemalloc.start()
    try:
        run = run_klein(klein_m2, T=2000.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    steps = run.stats["steps"]
    assert steps == 200_000
    assert peak < 24 * steps + 8 * 2 ** 20

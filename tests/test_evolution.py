"""Tests for the Schrodinger propagator, band tracking, the counterdiabatic
term and the first-order adiabatic correction."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from geodrive import DegeneracyError, ValidationError
from geodrive.evolution import (
    GAP_THRESHOLD,
    counterdiabatic_term,
    evolve,
    fidelity,
    g_correction,
    track_band,
)
from geodrive.models import (PAULI, ParentHamiltonian, eigensystem,
                             pauli_hamiltonian)
from geodrive.trajectories import GeodesicSpec, trajectory

UP = np.array([1.0, 0.0], dtype=complex)


def constant_model(d=(0.0, 0.0, 1.0), manifold="klein"):
    return ParentHamiltonian(
        "const", manifold, 2,
        evaluate_many=lambda th: pauli_hamiltonian(
            np.broadcast_to(d, (len(th), 3))))


def torus_model():
    # smooth, everywhere gapped (d_y never vanishes)
    def d_field(theta):
        th = np.asarray(theta, dtype=float)
        x, y = th[..., 0], th[..., 1]
        return np.stack([np.sin(x) * np.cos(y), 0.5 + 0 * x,
                         1.5 + np.cos(x)], axis=-1)

    return ParentHamiltonian(
        "torus_probe", "torus", 2,
        evaluate_many=lambda th: pauli_hamiltonian(d_field(th)))


def klein_traj(T=20.0, dt=0.0025, theta0=(-math.pi, -math.pi),
               omega=(0.7, 1.1)):
    return trajectory(GeodesicSpec(manifold="klein", T=T, dt=dt,
                                   theta0=theta0, omega=omega))


class TestEvolve:
    def test_constant_sigma_z_phase(self):
        traj = klein_traj(T=3.0, dt=0.005, omega=(1.0, 1.0))
        res = evolve(UP, constant_model(), traj)
        assert_allclose(res.states[-1], np.exp(-3.0j) * UP, atol=1e-12)
        assert res.t[-1] == pytest.approx(3.0)

    def test_unitarity_over_a_million_steps(self):
        traj = trajectory(GeodesicSpec(
            manifold="klein", T=10_000.0, dt=0.005,
            theta0=(-math.pi, -math.pi), omega=(0.31, 0.17)))
        from geodrive.models import klein_qubit

        res = evolve(UP, klein_qubit(2.0), traj)
        assert len(res.states) == 1_000_001
        # the Bloch-field scan ran (many chunks, 15,625 blocks)
        assert res.min_gap is not None
        assert np.abs(res.norms - 1.0).max() < 1e-12

    def test_norm_holds_where_every_step_rounds_alike(self, meron, generic):
        # outside the texture's support |d| is constant, so the steps there
        # share one |d|dt and the norm error of the rounded step leans the
        # same way at each: 1.41e-12 (Bloch-field scan) and 1.44e-12
        # (generic route) after 10^5 steps without the correction
        traj = trajectory(GeodesicSpec(manifold="bolza", T=1000.0, dt=0.005,
                                       speed=0.3, direction=0.4))
        psi0 = eigensystem(meron.evaluate(traj.z[0])).states[:, 1]
        for model in (meron, generic(meron)):
            res = evolve(psi0, model, traj)
            assert len(res.states) == 100_001
            assert np.abs(res.norms - 1.0).max() < 1e-13

    def test_three_level_constant_field(self):
        # the generic D > 2 route: spectral step unitaries, same state loop
        rng = np.random.default_rng(3)
        A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        H = (A + A.conj().T) / 2
        model = ParentHamiltonian(
            "const3", "klein", 3,
            evaluate_many=lambda th: np.broadcast_to(H, (len(th), 3, 3)))
        psi0 = np.array([1.0, 1.0j, -1.0]) / math.sqrt(3)
        res = evolve(psi0, model, klein_traj(T=2.0, dt=0.005))
        w, V = np.linalg.eigh(H)
        want = V @ (np.exp(-1j * w * res.t[-1]) * (V.conj().T @ psi0))
        assert res.t[-1] == pytest.approx(2.0)
        assert_allclose(res.states[-1], want, atol=1e-12)
        assert np.abs(res.norms - 1.0).max() < 1e-12

    def test_second_order_step_halving(self):
        from geodrive.models import klein_qubit

        # one trajectory per step d, sampled at d/2
        finals = [evolve(UP, klein_qubit(0.5), klein_traj(dt=d / 2)
                         ).states[-1] for d in (0.02, 0.04, 0.08)]
        e1 = np.linalg.norm(finals[0] - finals[1])
        e2 = np.linalg.norm(finals[1] - finals[2])
        assert 3.5 < e2 / e1 < 4.5

    def test_psi0_validation(self):
        traj = klein_traj(T=1.0, dt=0.005)
        with pytest.raises(ValidationError):
            evolve(np.array([1.0, 0.0, 0.0], dtype=complex),
                   constant_model(), traj)
        with pytest.raises(ValidationError):
            evolve(2.0 * UP, constant_model(), traj)

    def test_k1_request_is_honoured(self):
        # 21 samples: every step takes the one midpoint between two samples
        traj = klein_traj(T=5.0, dt=0.25)
        res = evolve(UP, constant_model(), traj)
        assert res.dt == 0.5
        assert_allclose(np.diff(res.t), 0.5)

    def test_steps_at_twice_the_spacing(self):
        # 22 samples: 10 steps over the even samples 0..20, the last left out
        traj = klein_traj(T=5.25, dt=0.25)
        assert len(traj.t) == 22
        res = evolve(UP, constant_model(), traj)
        assert res.dt == 0.5
        assert len(res.states) == 11
        assert np.array_equal(res.t, traj.t[:21:2])
        assert_allclose(res.states[-1], np.exp(-5.0j) * UP, atol=1e-12)

    def test_two_samples_are_too_short(self):
        traj = klein_traj(T=0.25, dt=0.25)
        assert len(traj.t) == 2
        with pytest.raises(ValidationError, match="too short"):
            evolve(UP, constant_model(), traj)

    def test_two_level_fast_path_matches_spectral(self):
        # same physics through the generic eigendecomposition route
        from geodrive.evolution import _step_unitaries
        from geodrive.models import klein_qubit

        model = klein_qubit(2.0)
        rng = np.random.default_rng(5)
        pts = np.stack([rng.uniform(-math.pi, math.pi, 20),
                        rng.uniform(-math.pi, 0.0, 20)], axis=-1)
        H = model.evaluate_many(pts)
        U_fast, _ = _step_unitaries(model, H, 0.1)
        w, v = np.linalg.eigh(H)
        U_ref = np.einsum("nij,nj,nkj->nik", v, np.exp(-0.1j * w), v.conj())
        assert_allclose(U_fast, U_ref, atol=1e-14)


class TestFidelity:
    def test_trivial_cases(self):
        psi = np.array([1.0, 0.0], dtype=complex)
        phi = np.array([0.0, 1.0], dtype=complex)
        assert fidelity(psi, psi) == pytest.approx(1.0)
        assert fidelity(psi, phi) == pytest.approx(0.0, abs=1e-15)

    def test_half_overlap(self):
        psi = np.array([1.0, 0.0], dtype=complex)
        phi = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
        assert fidelity(psi, phi) == pytest.approx(0.5)

    def test_batched(self):
        psi = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        phi = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)
        assert_allclose(fidelity(psi, phi), [1.0, 0.0], atol=1e-15)

    def test_requires_normalized(self):
        with pytest.raises(ValidationError):
            fidelity(np.array([2.0, 0.0], dtype=complex), UP)


class TestTrackBand:
    def test_constant_model_phases(self):
        traj = klein_traj(T=4.0, dt=0.01)
        track = track_band(constant_model((0.0, 0.0, 1.5)), traj, 1)
        assert_allclose(track.energies, 1.5, rtol=1e-13)
        assert_allclose(track.berry_phase, 0.0, atol=1e-13)
        assert_allclose(track.dynamic_phase, -1.5 * traj.t, rtol=1e-12)
        assert track.min_gap == pytest.approx(3.0)

    def test_band_index_validation(self):
        traj = klein_traj(T=1.0, dt=0.01)
        with pytest.raises(ValidationError):
            track_band(constant_model(), traj, 2)

    def test_degeneracy_is_named(self):
        from geodrive.models import klein_qubit

        # m = 1 closes the gap at theta = (pi, -pi/2); park right on it
        traj = trajectory(GeodesicSpec(
            manifold="klein", T=1.0, dt=0.01,
            theta0=(math.pi, -math.pi / 2), omega=(0.0, 0.0)))
        with pytest.raises(DegeneracyError, match="sample"):
            track_band(klein_qubit(1.0), traj, 1)

    def test_closed_loop_holonomy_start_point_independent(self):
        # same x-circle on the torus entered at two different points: the
        # loop Berry phase is a gauge-invariant holonomy
        model = torus_model()
        phases = []
        for x0 in (0.0, 2.0):
            spec = GeodesicSpec(manifold="torus", T=2 * math.pi, dt=0.0005,
                                theta0=(x0, 1.0), omega=(1.0, 0.0))
            track = track_band(model, trajectory(spec), 1)
            phases.append(track.berry_phase[-1])
        assert abs(phases[0] - phases[1]) < 1e-5
        assert abs(phases[0]) > 1e-3  # the loop is not trivially flat


def cd_at(model, point, vel):
    """counterdiabatic_term for band 1 at one sample, as (D, D)."""
    pts = np.array([point], dtype=complex if model.manifold == "bolza"
                   else float)
    return counterdiabatic_term(model, pts, np.array([vel], dtype=float), 1,
                                GAP_THRESHOLD)[0]


class TestCounterdiabaticTerm:
    def test_zero_where_field_is_frozen(self, meron):
        V = cd_at(meron, 0.75 + 0j, (0.3, -0.2))
        assert np.abs(V).max() < 1e-14

    def test_hermitian(self, meron):
        V = cd_at(meron, 0.2 + 0.3j, (0.5, 0.1))
        assert_allclose(V, V.conj().T, atol=1e-14)

    def test_matches_bloch_formula(self, meron):
        # for a qubit, V + V^dag = (d x d_dot) . sigma / (2 |d|^2)
        z, vel = 0.25 + 0.15j, (0.4, -0.7)
        V = cd_at(meron, z, vel)
        zs = np.array([z])
        d = meron.d_field(zs)[0]
        g = meron.d_gradient(zs)[0]
        d_dot = vel[0] * g[0] + vel[1] * g[1]
        ref = np.einsum("k,kij->ij", np.cross(d, d_dot),
                        PAULI) / (2 * np.dot(d, d))
        assert_allclose(V, ref, atol=1e-12)

    def test_near_degeneracy_rejected(self):
        from geodrive.models import klein_qubit

        with pytest.raises(DegeneracyError):
            cd_at(klein_qubit(1.0), (math.pi, -math.pi / 2), (0.1, 0.1))

    def test_cancels_diabatic_transitions(self):
        # driving with H + V pins the evolution to the band
        from geodrive.models import klein_qubit

        model = klein_qubit(2.0)
        traj = klein_traj(T=20.0, dt=0.005, omega=(0.9, 1.3))
        track = track_band(model, traj.subsample(2), 1)
        with_cd = evolve(track.states[0], model, traj, counterdiabatic_band=1)
        without = evolve(track.states[0], model, traj)
        f_cd = fidelity(with_cd.states, track.states)
        f_plain = fidelity(without.states, track.states)
        assert f_cd.min() > 1.0 - 1e-6
        assert f_plain.min() < f_cd.min()


class TestGCorrection:
    def test_starts_at_zero(self):
        from geodrive.models import bolza_qubit

        spec = GeodesicSpec(manifold="bolza", T=5.0, dt=0.01, speed=0.1,
                            direction=math.pi / 9)
        series = g_correction(bolza_qubit(0.5), trajectory(spec), 0, 1,
                              lam=0.1)
        assert series.magnitude[0] == 0.0
        assert series.band_from == 1 and series.band_to == 0
        assert np.all(series.magnitude >= 0.0)

    def test_band_pair_validation(self):
        from geodrive.models import bolza_qubit

        spec = GeodesicSpec(manifold="bolza", T=1.0, dt=0.01, speed=0.1)
        traj = trajectory(spec)
        with pytest.raises(ValidationError):
            g_correction(bolza_qubit(0.5), traj, 1, 1)
        with pytest.raises(ValidationError):
            g_correction(bolza_qubit(0.5), traj, 0, 1, lam=0.2)

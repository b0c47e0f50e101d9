"""Tests for the parent-Hamiltonian models: Pauli assembly, the built-in
textures and their analytic gradients, gauge-pinned eigensystems, gap scans
and the symmetry residuals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from geodrive import DegeneracyError, ValidationError
from geodrive.hyperbolic import FundamentalOctagon
from geodrive.models import (
    BUILTIN_MODELS,
    GAP_THRESHOLD,
    ParentHamiltonian,
    band_gap,
    bloch_vector,
    bolza_qubit,
    bump,
    eig_many,
    eigensystem,
    gap_report,
    grad_H,
    klein_qubit,
    mirror_symmetry_residual,
    pauli_hamiltonian,
    require_gap,
    rp2_qubit,
    s_symmetry_residual,
)

finite = st.floats(-10.0, 10.0, allow_nan=False)


class TestPauliAssembly:
    def test_sigma_z(self):
        H = pauli_hamiltonian([0.0, 0.0, 1.0])
        assert_allclose(H, np.diag([1.0, -1.0]).astype(complex))

    @given(dx=finite, dy=finite, dz=finite, e0=finite)
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, dx, dy, dz, e0):
        d, shift = bloch_vector(pauli_hamiltonian([dx, dy, dz], e0))
        assert_allclose(d, [dx, dy, dz], atol=1e-12)
        assert_allclose(shift, e0, atol=1e-12)

    def test_stacked_shapes(self):
        d = np.zeros((5, 7, 3))
        assert pauli_hamiltonian(d).shape == (5, 7, 2, 2)


class TestBump:
    def test_center_value(self):
        assert_allclose(bump(0j), math.pi / 2, rtol=1e-14)

    def test_frozen_outside_support(self):
        assert bump(0.6 + 0j) == -math.pi / 2
        assert bump(0.9j) == -math.pi / 2

    def test_monotone_profile(self):
        radii = np.linspace(0.0, 0.59, 40)
        vals = bump(radii.astype(complex))
        assert np.all(np.diff(vals) < 0)

    def test_smooth_at_rim(self):
        assert bump(0.5999 + 0j) - (-math.pi / 2) < 1e-6

    def test_rejects_outside_disk(self):
        with pytest.raises(ValidationError):
            bump(1.0 + 0j)


class TestBolzaQubit:
    def test_builtin_registry(self):
        assert set(BUILTIN_MODELS) == {"bolza_qubit", "klein_qubit",
                                       "rp2_qubit"}

    def test_center_points_up(self, meron):
        # f(0) = pi/2: primitive (0, 0, 1 + eps) normalizes to +z
        assert_allclose(meron.d_field(np.array([0j]))[0], [0.0, 0.0, 1.0],
                        atol=1e-14)

    def test_outside_points_down(self, meron):
        # frozen region: primitive (0, 0, -1 + eps), eps = 0.5 gives -z
        d = meron.d_field(np.array([0.7 + 0j, 0.6j, 0.8 + 0.1j]))
        assert_allclose(d, [[0, 0, -1.0]] * 3, atol=1e-15)

    def test_gradient_exactly_zero_outside(self, meron):
        g = meron.d_gradient(np.array([0.65 + 0.1j, 0.75j]))
        assert np.all(g == 0.0)

    def test_epsilon_one_rejected(self):
        for eps in (1.0, -1.0):
            with pytest.raises(ValidationError) as info:
                bolza_qubit(eps)
            assert info.value.param == "epsilon"

    def test_rho_keeps_the_texture_constant_on_the_boundary(self):
        octagon = FundamentalOctagon()
        edge = octagon.c - octagon.r  # the nearest boundary point's radius
        # at rho = 0.7 the texture still varies on the boundary, so H does
        # not descend to the surface
        assert bump(edge, rho=0.7) > -math.pi / 2 + 1e-6
        for rho in (0.7, 0.0, -0.1):
            with pytest.raises(ValidationError) as info:
                bolza_qubit(0.5, rho=rho)
            assert info.value.param == "rho"
        assert bolza_qubit(0.5, rho=edge).compact_support == edge

    @given(z=st.complex_numbers(max_magnitude=0.83, allow_nan=False,
                                allow_infinity=False))
    @settings(max_examples=60, deadline=None)
    def test_unit_bloch_vector(self, z, meron):
        d = meron.d_field(np.array([z]))[0]
        assert_allclose(np.linalg.norm(d), 1.0, rtol=1e-12)

    def test_gradient_matches_finite_difference(self, meron):
        z, h = 0.31 + 0.17j, 1e-6
        g = meron.d_gradient(np.array([z]))[0]
        fd_x = (meron.d_field(np.array([z + h]))[0]
                - meron.d_field(np.array([z - h]))[0]) / (2 * h)
        fd_y = (meron.d_field(np.array([z + 1j * h]))[0]
                - meron.d_field(np.array([z - 1j * h]))[0]) / (2 * h)
        # third derivative of the mollifier is large; 1e-6 is what central
        # differences deliver here
        assert_allclose(g[0], fd_x, atol=1e-6)
        assert_allclose(g[1], fd_y, atol=1e-6)

    def test_evaluate_assembles_d_field(self, meron):
        z = np.array([0.2 + 0.1j])
        assert_allclose(meron.evaluate_many(z)[0],
                        pauli_hamiltonian(meron.d_field(z)[0]), atol=1e-15)

    def test_metadata(self, meron):
        assert meron.manifold == "bolza"
        assert meron.compact_support == 0.6
        assert meron.global_chart
        assert meron.params["epsilon"] == 0.5


class TestKleinQubit:
    def test_field_at_origin(self, klein_m2):
        # (0, 0): d = (0, 0, m - 1 + 2) -> 3 sigma_z for m = 2
        H = klein_m2.evaluate((0.0, 0.0))
        assert_allclose(H, 3.0 * np.diag([1.0, -1.0]).astype(complex),
                        atol=1e-15)

    def test_field_at_quarter_point(self, klein_m2):
        d = klein_m2.d_field(np.array([[math.pi / 2, -math.pi / 2]]))[0]
        assert_allclose(d, [-1.0, 0.0, 0.0], atol=1e-15)

    def test_mirror_symmetry(self, klein_m2):
        assert mirror_symmetry_residual(klein_m2) < 1e-13

    def test_gap_closings(self):
        assert not gap_report(klein_qubit(1.0)).fully_gapped
        assert not gap_report(klein_qubit(3.0)).fully_gapped
        assert gap_report(klein_qubit(2.0)).fully_gapped
        assert gap_report(klein_qubit(0.5)).fully_gapped

    def test_gradient_matches_finite_difference(self, klein_m2):
        th, h = np.array([0.7, -1.3]), 1e-6
        g = klein_m2.d_gradient(th.reshape(1, 2))[0]
        for axis in (0, 1):
            step = np.zeros(2)
            step[axis] = h
            fd = (klein_m2.d_field((th + step).reshape(1, 2))[0]
                  - klein_m2.d_field((th - step).reshape(1, 2))[0]) / (2 * h)
            assert_allclose(g[axis], fd, atol=1e-8)


class TestRp2Qubit:
    def test_field_at_origin(self, rp2_m1):
        d = rp2_m1.d_field(np.array([[0.0, 0.0]]))[0]
        assert_allclose(d, [0.0, 0.0, 3.0], atol=1e-15)

    def test_quarter_turn_symmetry(self, rp2_m1):
        assert s_symmetry_residual(rp2_m1) < 1e-13

    def test_gap_closings(self):
        for m in (0.0, 2.0, -2.0):
            assert not gap_report(rp2_qubit(m)).fully_gapped
        for m in (1.0, 4.0):
            assert gap_report(rp2_qubit(m)).fully_gapped

    def test_gapped_everywhere_at_m1(self, rp2_m1):
        report = gap_report(rp2_m1)
        assert report.min_gaps[0] > 0.5


class TestEigensystem:
    def test_sigma_z_bands(self):
        system = eigensystem(np.diag([1.0, -1.0]).astype(complex))
        assert_allclose(system.energies, [-1.0, 1.0])
        assert_allclose(system.states[:, 0], [0.0, 1.0], atol=1e-15)
        assert_allclose(system.states[:, 1], [1.0, 0.0], atol=1e-15)

    def test_gauge_pins_largest_component_positive(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        system = eigensystem(a + a.conj().T)
        for n in range(4):
            v = system.states[:, n]
            lead = v[np.argmax(np.abs(v))]
            assert lead.imag == pytest.approx(0.0, abs=1e-15)
            assert lead.real > 0

    def test_bitwise_determinism(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(50, 3, 3)) + 1j * rng.normal(size=(50, 3, 3))
        H = a + np.conj(np.swapaxes(a, -1, -2))
        s1 = eig_many(H)
        s2 = eig_many(H.copy())
        assert s1.states.tobytes() == s2.states.tobytes()
        assert s1.energies.tobytes() == s2.energies.tobytes()

    def test_batched_matches_single(self, klein_m2):
        pts = np.array([[0.3, -0.5], [1.1, -2.0]])
        batch = eig_many(klein_m2.evaluate_many(pts), pts)
        for i, pt in enumerate(pts):
            single = eigensystem(klein_m2.evaluate(pt))
            assert_allclose(batch.states[i], single.states, atol=1e-15)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestParentHamiltonian:
    def test_needs_an_evaluator(self):
        with pytest.raises(ValidationError):
            ParentHamiltonian("empty", "torus", 2)

    def test_hermiticity_enforced(self):
        model = ParentHamiltonian(
            "broken", "torus", 2,
            evaluate_many=lambda th: np.array([[[0.0, 1.0], [0.5, 0.0]]]))
        with pytest.raises(ValidationError):
            model.evaluate((0.0, 0.0))

    def test_nan_entries_are_not_hermitian(self):
        model = ParentHamiltonian(
            "nan", "torus", 2,
            evaluate_many=lambda th: np.array([[[0.0, math.nan],
                                                [math.nan, 0.0]]]))
        with pytest.raises(ValidationError, match="not Hermitian"):
            model.evaluate((0.0, 0.0))

    def test_missing_d_field(self):
        model = ParentHamiltonian(
            "plain", "torus", 2,
            evaluate_many=lambda th: np.eye(2, dtype=complex)[None])
        assert not model.has_d_field
        with pytest.raises(ValidationError):
            model.d_field(np.zeros((1, 2)))

    def test_bloch_field_needs_two_levels(self, klein_m2):
        with pytest.raises(ValidationError, match="dim = 2"):
            ParentHamiltonian(
                "three", "klein", 3,
                evaluate_many=lambda th: np.eye(3, dtype=complex)[None],
                d_field=klein_m2.d_field, d_gradient=klein_m2.d_gradient)
        assert klein_m2.has_d_field


class TestGradH:
    def test_prefers_analytic(self, klein_m2):
        th = (math.pi / 4, -0.1)
        g = grad_H(klein_m2, th)
        # d(d_z)/dx = sin x at (pi/4, -0.1) shows up on the diagonal
        assert_allclose(g[0, 0, 0].real, math.sin(math.pi / 4), rtol=1e-12)

    def test_finite_difference_matches_analytic(self, klein_m2):
        # strip the gradient to force the FD path
        fd_model = ParentHamiltonian(
            "klein_fd", "klein", 2, evaluate_many=klein_m2.evaluate_many,
            global_chart=True)
        th = (0.9, -1.7)
        assert_allclose(grad_H(fd_model, th), grad_H(klein_m2, th),
                        atol=1e-8)

    def test_fd_stencil_folds_at_boundary(self):
        # a non-global-chart model that refuses out-of-domain points still
        # differentiates at the edge because the stencil is folded
        base = klein_qubit(2.0)

        def strict(theta):
            x, y = theta[:, 0], theta[:, 1]
            assert np.all((-math.pi <= x) & (x <= math.pi)
                          & (-math.pi <= y) & (y <= 0))
            return base.evaluate_many(theta)

        model = ParentHamiltonian("strict", "klein", 2, evaluate_many=strict)
        g = grad_H(model, (math.pi, -0.5))
        assert_allclose(g, grad_H(base, (math.pi, -0.5)), atol=1e-7)

    def test_bolza_frozen_region_gradient_zero(self, meron):
        fd_model = ParentHamiltonian(
            "meron_fd", "bolza", 2, evaluate_many=meron.evaluate_many,
            global_chart=True, compact_support=0.6)
        g = grad_H(fd_model, 0.8 + 0j)
        assert np.abs(g).max() < 1e-11

    def test_bolza_stencil_must_stay_in_disk(self, meron):
        fd_model = ParentHamiltonian(
            "meron_fd", "bolza", 2, evaluate_many=meron.evaluate_many,
            global_chart=True)
        with pytest.raises(ValidationError):
            grad_H(fd_model, 0.999999 + 0j)

    def test_grad_is_hermitian(self, meron):
        g = grad_H(meron, 0.2 - 0.4j)
        assert_allclose(g, np.conj(np.swapaxes(g, -1, -2)), atol=1e-14)


class TestGapReport:
    def test_constant_gap_of_unit_texture(self, meron):
        report = gap_report(meron)
        assert_allclose(report.min_gaps, [2.0], rtol=1e-12)
        assert report.fully_gapped

    @pytest.mark.parametrize("energies", [
        [[0.0, math.nan], [0.0, 1.0]],
        # a NaN gap to the lower band is kept against a finite upper one
        [[math.nan, 1.0, 3.0], [0.0, 1.0, 2.0]],
        [[0.0, 1.0, math.nan], [0.0, 1.0, 2.0]],
    ])
    def test_nan_gap_fails_require_gap(self, energies):
        gap, k, _ = band_gap(np.array(energies), 1)
        assert math.isnan(gap) and k == 0
        with pytest.raises(DegeneracyError):
            require_gap(gap, GAP_THRESHOLD, "bands")

    def test_str_contains_verdict(self):
        assert "NOT fully gapped" in str(gap_report(klein_qubit(3.0)))
        assert "fully gapped" in str(gap_report(klein_qubit(2.0)))

    def test_explicit_point_grid(self, klein_m2):
        pts = np.array([[0.0, 0.0], [math.pi, -math.pi / 2]])
        report = gap_report(klein_m2, grid=pts)
        assert report.grid_shape == (2,)
        # gap = 2|d|; at (pi, -pi/2) d = (0,0,1) for m = 2
        assert_allclose(report.min_gaps[0], 2.0, rtol=1e-12)

    def test_empty_grid_rejected(self, klein_m2):
        with pytest.raises(ValidationError):
            gap_report(klein_m2, grid=np.zeros((0, 2)))


class TestSymmetryResiduals:
    def test_broken_mirror_is_detected(self):
        base = klein_qubit(2.0)

        def broken(theta):
            # d_x must be odd in y for the mirror; an even term violates it
            th = np.asarray(theta, dtype=float)
            extra = np.zeros(th.shape[:-1] + (3,))
            extra[..., 0] = 0.3 * np.cos(th[..., 1])
            return pauli_hamiltonian(base.d_field(th) + extra)

        model = ParentHamiltonian("broken", "klein", 2,
                                  evaluate_many=broken, global_chart=True)
        res, worst = mirror_symmetry_residual(model, with_point=True)
        assert res > 0.1
        assert -math.pi <= worst[0] <= math.pi
        assert -math.pi <= worst[1] <= 0.0

    def test_quarter_turn_operator_is_required(self, rp2_m1):
        # a plain sigma_z conjugation does not implement the quarter turn
        res = s_symmetry_residual(rp2_m1, u=np.diag([1.0, -1.0]))
        assert res > 0.5

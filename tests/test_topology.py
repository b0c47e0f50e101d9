"""Tests for the Berry-curvature discretizations and the three quantized
invariants, including gauge invariance and convergence of the plaquette
phases against the analytic two-level curvature."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from geodrive import DegeneracyError, ResolutionError, ValidationError, topology
from geodrive.models import (
    ParentHamiltonian,
    eig_many,
    klein_qubit,
    pauli_hamiltonian,
    rp2_qubit,
)
from geodrive.topology import (
    BerryField,
    InvariantResult,
    chern_bolza,
    curvature_plaquette,
    curvature_two_level,
    dipolar_chern,
    quadrupole_chern,
)


def _meron_states(model, lo, hi, n, band=1):
    xs = np.linspace(lo, hi, n + 1)
    h = xs[1] - xs[0]
    zg = (xs[:, None] + 1j * xs[None, :]).ravel()
    _, vecs, _ = eig_many(model.evaluate_many(zg))
    return vecs[:, :, band].reshape(n + 1, n + 1, model.dim), h


def _omega_exact(model, z):
    # upper-band curvature straight from the analytic field and gradients
    d = model.d_field(z)
    g = model.d_gradient(z)
    return 0.5 * np.einsum("nk,nk->n", d, np.cross(g[:, 0], g[:, 1]))


class TestCurvatureTwoLevel:
    def test_meron_winding(self, meron):
        n = 161
        xs = np.linspace(-0.62, 0.62, n)
        h = xs[1] - xs[0]
        zg = (xs[:, None] + 1j * xs[None, :]).ravel()
        dhat = meron.d_field(zg).reshape(n, n, 3)
        field = curvature_two_level(dhat, (h, h), band=1,
                                    origin=(-0.62, -0.62))
        assert_allclose(field.integral() / (2 * math.pi), 1.0, atol=5e-3)

    def test_band_sign_flip(self, meron):
        n = 41
        xs = np.linspace(-0.5, 0.5, n)
        h = xs[1] - xs[0]
        zg = (xs[:, None] + 1j * xs[None, :]).ravel()
        dhat = meron.d_field(zg).reshape(n, n, 3)
        up = curvature_two_level(dhat, (h, h), band=1)
        lo = curvature_two_level(dhat, (h, h), band=0)
        assert_allclose(lo.omega, -up.omega, atol=1e-14)

    def test_rejects_bad_input(self):
        with pytest.raises(ValidationError):
            curvature_two_level(np.zeros((4, 4, 2)), (0.1, 0.1))
        with pytest.raises(ValidationError):
            curvature_two_level(2.0 * np.ones((4, 4, 3)), (0.1, 0.1))
        ok = np.zeros((4, 4, 3))
        ok[..., 2] = 1.0
        with pytest.raises(ValidationError):
            curvature_two_level(ok, (0.1, 0.1), band=2)


class TestCurvaturePlaquette:
    def test_matches_analytic_at_second_order(self, meron):
        errs = {}
        for n in (80, 160):
            psi, h = _meron_states(meron, -0.5, 0.5, n)
            field = curvature_plaquette(psi, (h, h), origin=(-0.5, -0.5),
                                        band=1)
            zc = (field.x1[:, None] + 1j * field.x2[None, :]).ravel()
            errs[n] = np.abs(field.omega.ravel()
                             - _omega_exact(meron, zc)).max()
        assert errs[160] < 1.2e-2
        # halving the step cuts the error by about four
        assert 3.0 < errs[80] / errs[160] < 5.0

    def test_gauge_invariance(self, meron):
        psi, h = _meron_states(meron, -0.4, 0.4, 40)
        rng = np.random.default_rng(3)
        rephased = psi * np.exp(
            2j * math.pi * rng.random(psi.shape[:2]))[..., None]
        a = curvature_plaquette(psi, (h, h))
        b = curvature_plaquette(rephased, (h, h))
        assert_allclose(b.omega, a.omega, atol=1e-10)

    def test_wrapping_adds_plaquettes(self, meron):
        psi, h = _meron_states(meron, -0.4, 0.4, 20)
        open_grid = curvature_plaquette(psi, (h, h))
        wrapped = curvature_plaquette(psi, (h, h), wrap_x=True, wrap_y=True)
        assert open_grid.omega.shape == (20, 20)
        assert wrapped.omega.shape == (21, 21)

    def test_orthogonal_neighbors_rejected(self):
        psi = np.zeros((3, 3, 2), dtype=complex)
        psi[..., 0] = 1.0
        psi[1, :, 0], psi[1, :, 1] = 0.0, 1.0  # orthogonal to its neighbors
        with pytest.raises(ResolutionError):
            curvature_plaquette(psi, (0.1, 0.1))

    def test_integral_uses_spacing(self):
        field = BerryField(np.arange(2.0), np.arange(3.0),
                           np.ones((2, 3)), (0.5, 2.0), 0, "plaquette")
        assert_allclose(field.integral(), 6.0)


class TestInvariantResult:
    def test_quantize_rounding(self):
        r = InvariantResult.quantize(0.98, 1.0, (10, 10))
        assert r.nearest_quantum == 1.0
        assert_allclose(r.residue, 0.02)

    def test_quantize_half_pi_units(self):
        r = InvariantResult.quantize(3.10, math.pi / 2, (4, 4))
        assert_allclose(r.nearest_quantum, math.pi)

    def test_str_mentions_residue(self):
        assert "residue" in str(InvariantResult.quantize(1.0, 1.0, (2, 2)))


class TestChernBolza:
    def test_meron_upper_band(self, meron):
        r = chern_bolza(meron, band=1, resolution=120)
        assert r.nearest_quantum == 1.0
        assert r.residue < 1e-12

    def test_lower_band_opposite(self, meron):
        r = chern_bolza(meron, band=0, resolution=120)
        assert r.nearest_quantum == -1.0
        assert r.residue < 1e-12

    def test_with_field(self, meron):
        r, field = chern_bolza(meron, resolution=60, with_field=True)
        assert isinstance(field, BerryField)
        assert field.omega.shape == (60, 60)
        assert r.grid_shape == (60, 60)

    def test_requires_compact_support(self, meron):
        free = ParentHamiltonian(
            "free", "bolza", 2, evaluate_many=meron.evaluate_many,
            global_chart=True)
        with pytest.raises(ValidationError):
            chern_bolza(free)

    def test_radius_must_cover_support(self, meron):
        with pytest.raises(ValidationError):
            chern_bolza(meron, radius=0.5)

    def test_rejects_flat_models(self, klein_m2):
        with pytest.raises(ValidationError):
            chern_bolza(klein_m2)


class TestDipolarChern:
    def test_half_quantum_phase(self, klein_m2):
        r = dipolar_chern(klein_m2, resolution=(160, 80))
        assert_allclose(r.value, math.pi / 2, atol=1e-12)
        assert r.quantization_unit == math.pi / 2

    def test_full_quantum_phase(self):
        r = dipolar_chern(klein_qubit(0.5), resolution=(160, 80))
        assert_allclose(r.value, math.pi, atol=1e-12)

    def test_trivial_phase(self):
        r = dipolar_chern(klein_qubit(4.0), resolution=(160, 80))
        assert_allclose(r.value, 0.0, atol=1e-12)

    def test_gap_closing_rejected(self):
        with pytest.raises(DegeneracyError):
            dipolar_chern(klein_qubit(1.0), resolution=(64, 32))

    def test_nan_gap_rejected(self):
        # one node with no Bloch vector: its NaN gap must fail the gap
        # check rather than reach the quantization as a NaN value.  H
        # stays finite there, since a NaN H already fails the Hermiticity
        # check of the symmetry precheck
        base = klein_qubit(2.0)

        def d_field(theta):
            d = base.d_field(theta)
            d[np.all(np.asarray(theta) == (-math.pi, -math.pi), axis=-1)] = \
                np.nan
            return d

        model = ParentHamiltonian(
            "nan_node", "klein", 2, evaluate_many=base.evaluate_many,
            d_field=d_field, d_gradient=base.d_gradient, global_chart=True)
        with pytest.raises(DegeneracyError, match="invariant grid"):
            dipolar_chern(model, resolution=(32, 16))
        nan_h = ParentHamiltonian(
            "nan_node", "klein", 2,
            evaluate_many=lambda th: pauli_hamiltonian(d_field(th)),
            d_field=d_field, d_gradient=base.d_gradient, global_chart=True)
        with pytest.raises(ValidationError, match="not Hermitian"):
            dipolar_chern(nan_h, resolution=(32, 16))

    def test_nan_symmetry_residual_rejected(self, klein_m2, monkeypatch):
        monkeypatch.setattr(topology, "mirror_symmetry_residual",
                            lambda model, with_point: (math.nan, (0.0, 0.0)))
        with pytest.raises(ValidationError, match="mirror"):
            dipolar_chern(klein_m2, resolution=(32, 16))

    def test_symmetry_precheck(self):
        base = klein_qubit(2.0)

        def broken(theta):
            th = np.asarray(theta, dtype=float)
            extra = np.zeros(th.shape[:-1] + (3,))
            extra[..., 0] = 0.2 * np.cos(th[..., 1])
            return pauli_hamiltonian(base.d_field(th) + extra)

        model = ParentHamiltonian("broken", "klein", 2,
                                  evaluate_many=broken, global_chart=True)
        with pytest.raises(ValidationError, match="mirror"):
            dipolar_chern(model, resolution=(32, 16))

    def test_rejects_wrong_manifold(self, rp2_m1):
        with pytest.raises(ValidationError):
            dipolar_chern(rp2_m1)


class TestQuadrupoleChern:
    def test_nan_symmetry_residual_rejected(self, rp2_m1, monkeypatch):
        monkeypatch.setattr(topology, "s_symmetry_residual",
                            lambda model, with_point: (math.nan, (0.0, 0.0)))
        with pytest.raises(ValidationError, match="S symmetry"):
            quadrupole_chern(rp2_m1, resolution=(32, 32))

    def test_quantized_phase(self, rp2_m1):
        r = quadrupole_chern(rp2_m1, resolution=(100, 100))
        assert_allclose(r.value, math.pi ** 2 / 2, atol=1e-12)
        assert r.quantization_unit == math.pi ** 2 / 2

    def test_trivial_phase(self):
        r = quadrupole_chern(rp2_qubit(4.0), resolution=(100, 100))
        assert_allclose(r.value, 0.0, atol=1e-12)

    def test_symmetry_precheck(self):
        base = rp2_qubit(1.0)

        def broken(theta):
            th = np.asarray(theta, dtype=float)
            extra = np.zeros(th.shape[:-1] + (3,))
            extra[..., 2] = 0.2 * np.cos(th[..., 0])
            return pauli_hamiltonian(base.d_field(th) + extra)

        model = ParentHamiltonian("broken", "rp2", 2,
                                  evaluate_many=broken, global_chart=True)
        with pytest.raises(ValidationError, match="S symmetry"):
            quadrupole_chern(model, resolution=(32, 32))

    def test_with_field_shape(self, rp2_m1):
        _, field = quadrupole_chern(rp2_m1, resolution=(40, 40),
                                    with_field=True)
        assert field.omega.shape == (40, 40)

    def test_rejects_wrong_manifold(self, klein_m2):
        with pytest.raises(ValidationError):
            quadrupole_chern(klein_m2)

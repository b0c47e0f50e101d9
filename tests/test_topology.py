"""Tests for the Berry-curvature discretizations and the three quantized
invariants, including gauge invariance and convergence of the plaquette
phases against the analytic two-level curvature."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from geodrive import DegeneracyError, ResolutionError, ValidationError, topology
from geodrive.models import (
    ParentHamiltonian,
    bolza_qubit,
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
    curvature_solid_angle,
    curvature_two_level,
    dipolar_chern,
    quadrupole_chern,
)
from geodrive.trajectories import FLAT_DOMAINS


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


# ---------------------------------------------------------------------------
# the strip loop of the invariants against one-shot curvature of the grid

STRIP_CASES = {
    "bolza": (chern_bolza, 16, lambda: bolza_qubit(0.5), (-0.62, -0.62)),
    "klein": (dipolar_chern, (20, 10), lambda: klein_qubit(2.0),
              (-math.pi, -math.pi)),
    "rp2": (quadrupole_chern, (16, 16), lambda: rp2_qubit(1.0), (0.0, 0.0)),
}
# nodes per strip: fewer than a node row (one plaquette row per strip), and
# three rows and a node (three plaquette rows, the last strip part full)
CHUNKS = {"one_row": lambda cols: 5, "part_full": lambda cols: 3 * cols + 1}


def _axes(name):
    """Node axes and node steps of a case's grid, as its invariant lays
    them out."""
    resolution = STRIP_CASES[name][1]
    if name == "bolza":
        nodes = np.linspace(-0.62, 0.62, resolution + 1)
        h = nodes[1] - nodes[0]
        return nodes, nodes, (h, h)
    (x_lo, x_hi), (y_lo, y_hi) = FLAT_DOMAINS[name]
    nx, ny = resolution
    hx, hy = (x_hi - x_lo) / nx, (y_hi - y_lo) / ny
    ys = np.linspace(y_lo, y_hi, ny + 1)
    if name == "klein":  # theta_x wraps: no node at x_hi
        return x_lo + hx * np.arange(nx), ys, (hx, hy)
    return np.linspace(x_lo, x_hi, nx + 1), ys, (hx, hy)


def _point(name, x, y):
    return x + 1j * y if name == "bolza" else np.array([x, y])


def _grid_points(manifold, xs, ys):
    if manifold == "bolza":
        return (xs[:, None] + 1j * ys[None, :]).ravel()
    return np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)


def _whole_grid(model, xs, ys, band):
    """Unit Bloch vectors, or band states, at every node in one array."""
    pts = _grid_points(model.manifold, xs, ys)
    shape = (len(xs), len(ys))
    if model.has_d_field:
        d = model.d_field(pts)
        return (d / np.linalg.norm(d, axis=-1)[:, None]).reshape(shape + (3,))
    _, vecs, _ = eig_many(model.evaluate_many(pts))
    return vecs[:, :, band].reshape(shape + (model.dim,))


def _one_shot(model, name, band=1):
    """The field of the whole grid from one curvature_solid_angle or
    curvature_plaquette call."""
    xs, ys, spacing = _axes(name)
    nodes = _whole_grid(model, xs, ys, band)
    curvature = (curvature_solid_angle if model.has_d_field
                 else curvature_plaquette)
    return curvature(nodes, spacing, STRIP_CASES[name][3], band=band,
                     wrap_x=name == "klein")


def _overlaps(model, name, band=1):
    """Every link overlap |<psi_i|psi_j>| of the whole grid."""
    xs, ys, _ = _axes(name)
    nodes = _whole_grid(model, xs, ys, band)
    if name == "klein":
        nodes = np.concatenate([nodes, nodes[:1]], axis=0)
    if model.has_d_field:  # |<psi_i|psi_j>|^2 = (1 + dhat_i . dhat_j) / 2
        dots = [np.einsum("...k,...k->...", nodes[:-1], nodes[1:]),
                np.einsum("...k,...k->...", nodes[:, :-1], nodes[:, 1:])]
        return np.concatenate([np.sqrt((1.0 + x.ravel()) / 2) for x in dots])
    links = [np.einsum("...k,...k->...", nodes[:-1].conj(), nodes[1:]),
             np.einsum("...k,...k->...", nodes[:, :-1].conj(), nodes[:, 1:])]
    return np.concatenate([np.abs(x).ravel() for x in links])


def _strips(monkeypatch, chunk):
    """Set the strip size; returns the node x axis of each strip, in order."""
    monkeypatch.setattr(topology, "_CHUNK", chunk)
    blocks, nodes = [], topology._nodes

    def record(manifold, xs, ys):
        blocks.append(xs.copy())
        return nodes(manifold, xs, ys)

    monkeypatch.setattr(topology, "_nodes", record)
    return blocks


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


class TestStrips:
    @pytest.mark.parametrize("chunk", sorted(CHUNKS))
    @pytest.mark.parametrize("band", (0, 1))
    @pytest.mark.parametrize("route", ("bloch", "generic"))
    @pytest.mark.parametrize("name", sorted(STRIP_CASES))
    def test_omega_is_the_one_shot_field(self, name, route, band, chunk,
                                         generic, monkeypatch):
        compute, resolution, make, _ = STRIP_CASES[name]
        model = make() if route == "bloch" else generic(make())
        whole, whole_field = compute(model, band=band, resolution=resolution,
                                     with_field=True)
        xs, ys, _ = _axes(name)
        blocks = _strips(monkeypatch, CHUNKS[chunk](len(ys)))
        result, field = compute(model, band=band, resolution=resolution,
                                with_field=True)
        rows = 1 if chunk == "one_row" else 3
        n_rows = field.omega.shape[0]
        assert len(blocks) == -(-n_rows // rows) > 1
        assert [len(b) - 1 for b in blocks[:-1]] == [rows] * (len(blocks) - 1)
        assert len(blocks[-1]) - 1 == n_rows - rows * (len(blocks) - 1)
        if chunk == "part_full":
            assert len(blocks[-1]) - 1 < rows
        # the strips share their boundary rows; the Klein x axis wraps,
        # so the last strip ends on node row 0
        assert np.array_equal(np.concatenate([b[:-1] for b in blocks]),
                              xs[:n_rows])
        assert blocks[-1][-1] == (xs[0] if name == "klein" else xs[-1])
        ref = _one_shot(model, name, band)
        for got in (field, whole_field):
            assert _same_bits(got.omega, ref.omega)
            assert _same_bits(got.x1, ref.x1) and _same_bits(got.x2, ref.x2)
        assert result == whole

    @pytest.mark.parametrize("route", ("bloch", "generic"))
    @pytest.mark.parametrize("name", sorted(STRIP_CASES))
    def test_minima_of_the_whole_grid(self, name, route, generic,
                                      monkeypatch):
        compute, resolution, make, _ = STRIP_CASES[name]
        model = make() if route == "bloch" else generic(make())
        xs, ys, _ = _axes(name)
        _strips(monkeypatch, 3 * len(ys) + 1)
        result = compute(model, resolution=resolution)
        pts = _grid_points(name, xs, ys)
        if route == "bloch":
            gap = 2.0 * np.linalg.norm(model.d_field(pts), axis=-1).min()
        else:
            energies = eig_many(model.evaluate_many(pts)).energies
            gap = np.abs(energies[:, 1] - energies[:, 0]).min()
        assert result.min_gap == gap
        assert result.min_overlap == _overlaps(model, name).min()
        assert 0.0 < result.min_overlap <= 1.0

    @staticmethod
    def _broken(name, changes, route, generic):
        """The case's model with its Bloch vector changed at some nodes;
        changes maps (node row, node column) to a function of d there."""
        base = STRIP_CASES[name][2]()
        xs, ys, _ = _axes(name)
        at = [(_point(name, xs[i], ys[j]), f) for (i, j), f in changes.items()]

        def d_field(points):
            pts = np.asarray(points)
            d = base.d_field(pts)
            for p, f in at:
                hit = (pts == p if name == "bolza"
                       else np.all(pts == p, axis=-1))
                d[hit] = f(d[hit])
            return d

        model = ParentHamiltonian(
            "broken", base.manifold, 2,
            evaluate_many=lambda points: pauli_hamiltonian(d_field(points)),
            d_field=d_field, d_gradient=base.d_gradient,
            global_chart=base.global_chart,
            compact_support=base.compact_support)
        return model if route == "bloch" else generic(model)

    @pytest.mark.parametrize("route", ("bloch", "generic"))
    @pytest.mark.parametrize("name", sorted(STRIP_CASES))
    def test_gap_error_names_the_grid_minimum(self, name, route, generic,
                                              monkeypatch):
        compute, resolution = STRIP_CASES[name][:2]
        xs, ys, _ = _axes(name)
        last = len(xs) - 1  # evaluated by the last strip only

        def scale(gap):
            return lambda d: d * (gap / 2
                                  / np.linalg.norm(d, axis=-1))[:, None]

        # both gaps are closed, the smaller one in the last strip
        model = self._broken(
            name, {(1, 3): scale(8e-4), (last, 5): scale(4e-4)}, route,
            generic)
        _strips(monkeypatch, 3 * len(ys) + 1)
        with pytest.raises(DegeneracyError, match=(
                r"^band 1 on the invariant grid: gap 4\.00e-04 is not above "
                r"the threshold 0\.001$")):
            compute(model, resolution=resolution)

    @pytest.mark.parametrize("name", sorted(STRIP_CASES))
    def test_nan_gap_in_the_last_strip(self, name, generic, monkeypatch):
        compute, resolution = STRIP_CASES[name][:2]
        xs, ys, _ = _axes(name)
        last = len(xs) - 1
        # a closed finite gap first, then a NaN gap: the NaN must survive
        # the minimum across strips
        model = self._broken(
            name, {(1, 3): lambda d: d * 1e-4,
                   (last, 5): lambda d: d * np.nan}, "bloch", generic)
        _strips(monkeypatch, 3 * len(ys) + 1)
        with pytest.raises(DegeneracyError, match=(
                r"^band 1 on the invariant grid: gap nan is not above")):
            compute(model, resolution=resolution)
        # with H NaN there too, the generic route stops at its eigensolve
        model = self._broken(
            name, {(last, 5): lambda d: d * np.nan}, "generic", generic)
        with pytest.raises(ValidationError, match="not Hermitian"):
            compute(model, resolution=resolution)

    @pytest.mark.parametrize("route", ("bloch", "generic"))
    @pytest.mark.parametrize("name", sorted(STRIP_CASES))
    def test_overlap_error_in_the_last_strip(self, name, route, generic,
                                             monkeypatch):
        compute, resolution = STRIP_CASES[name][:2]
        xs, ys, _ = _axes(name)
        last = len(xs) - 1
        neighbour = _point(name, xs[last], ys[6])
        base = STRIP_CASES[name][2]()
        # -d of the next node along y: the two band states are orthogonal,
        # and the gap stays open
        flip = {(last, 5): lambda d: -base.d_field(
            np.asarray([neighbour]))}
        model = self._broken(name, flip, route, generic)
        with pytest.raises(ResolutionError) as whole:
            _one_shot(model, name)
        _strips(monkeypatch, 3 * len(ys) + 1)
        with pytest.raises(ResolutionError) as strips:
            compute(model, resolution=resolution)
        assert str(strips.value) == str(whole.value)
        assert str(whole.value).startswith("plaquette link overlap ")


def _traced_peak(run):
    tracemalloc.start()
    try:
        out = run()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


class TestInvariantMemory:
    # an invariant holds its omega and one strip, not the node grid: the
    # whole-grid arrays took 13.5 MiB at 400 x 200, 215 MiB at 1600 x 800
    # and 24.7 MiB on the generic route
    MIB = 1 << 20

    def test_klein_400x200(self, klein_m2):
        peak, _ = _traced_peak(
            lambda: dipolar_chern(klein_m2, resolution=(400, 200)))
        assert peak <= 4 * self.MIB

    def test_klein_1600x800_holds_a_few_omegas(self, klein_m2):
        peak, (_, field) = _traced_peak(lambda: dipolar_chern(
            klein_m2, resolution=(1600, 800), with_field=True))
        assert peak <= 4 * field.omega.nbytes

    def test_generic_route_400x200(self, klein_m2, generic):
        model = generic(klein_m2)
        peak, _ = _traced_peak(
            lambda: dipolar_chern(model, resolution=(400, 200)))
        assert peak <= 8 * self.MIB

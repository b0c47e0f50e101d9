"""The Bloch-field paths of two-level models against the generic paths.

Every built-in model is H = d . sigma with analytic d and partials, so
gaps, plaquette phases, states and expectations are computed from d
directly (2|d|, dhat solid angles, an SU(2) scan, s . d_i d).  Each is
checked here, model by model and band by band, against the eigensolver
and matrix paths that the same H takes without its Bloch field.  Without
it a two-level model still takes the SU(2) scan, with d read from H, so
states are checked against the spectral step of the model as a block of a
D = 3 field as well.  A counterdiabatic drive exists only on the Bloch
path; its states are checked against a spectral step of H plus the
eigensolved matrix term of tests/oracles.py.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from geodrive import ResolutionError, ValidationError, topology
from geodrive.evolution import _CHUNK, evolve
from geodrive.models import (GAP_THRESHOLD, adjacent_gaps, bolza_qubit,
                             eigensystem, gap_report, klein_qubit, rp2_qubit)
from geodrive.response import run_hdqs, run_klein, run_rp2
from geodrive.topology import (chern_bolza, curvature_solid_angle,
                               dipolar_chern, quadrupole_chern)
from geodrive.trajectories import GeodesicSpec, trajectory

import oracles

AGREE = 1e-12
# the spectral step and the quaternion step round apart by about 1e-17 a
# step: 1.1e-12 after the 131,089 steps of test_states
SPECTRAL = 2e-12
MODELS = {"bolza": lambda: bolza_qubit(0.5),
          "klein": lambda: klein_qubit(2.0),
          "rp2": lambda: rp2_qubit(1.0)}
BANDS = (0, 1)


def drive(manifold, n_steps, dt=0.01):
    """A drive of exactly n_steps steps of size dt, sampled at dt/2."""
    T = n_steps * dt
    if manifold == "bolza":
        spec = GeodesicSpec(manifold="bolza", T=T, dt=dt / 2, speed=0.05,
                            direction=0.4)
    else:
        theta0 = (0.3, -0.2) if manifold == "klein" else (0.3, 0.2)
        spec = GeodesicSpec(manifold=manifold, T=T, dt=dt / 2,
                            theta0=theta0, omega=(0.31, 0.17))
    return trajectory(spec)


def start_point(traj):
    return traj.z[0] if traj.spec.manifold == "bolza" else traj.theta[0]


@pytest.mark.parametrize("name", sorted(MODELS))
def test_gaps(name, generic):
    model = MODELS[name]()
    rng = np.random.default_rng(1)
    if name == "bolza":
        pts = 0.8 * np.sqrt(rng.random(500)) * np.exp(
            2j * math.pi * rng.random(500))
    else:
        pts = rng.uniform(0.0, math.pi, (500, 2))
    assert_allclose(adjacent_gaps(model, pts),
                    adjacent_gaps(generic(model), pts), rtol=0, atol=AGREE)
    fast, slow = gap_report(model), gap_report(generic(model))
    assert_allclose(fast.min_gaps, slow.min_gaps, rtol=0, atol=AGREE)
    assert fast.fully_gapped == slow.fully_gapped


INVARIANTS = {"bolza": (chern_bolza, 60), "klein": (dipolar_chern, (80, 40)),
              "rp2": (quadrupole_chern, (60, 60))}


@pytest.mark.parametrize("band", BANDS)
@pytest.mark.parametrize("name", sorted(MODELS))
def test_plaquette_phases(name, band, generic):
    model = MODELS[name]()
    compute, resolution = INVARIANTS[name]
    fast, f_field = compute(model, band=band, resolution=resolution,
                            with_field=True)
    slow, s_field = compute(generic(model), band=band,
                            resolution=resolution, with_field=True)
    area = f_field.spacing[0] * f_field.spacing[1]
    assert f_field.omega.shape == s_field.omega.shape
    assert_allclose(f_field.omega * area, s_field.omega * area, rtol=0,
                    atol=AGREE)
    assert_allclose(fast.value, slow.value, rtol=0, atol=AGREE)
    assert fast.nearest_quantum == slow.nearest_quantum


@pytest.mark.parametrize("band", BANDS)
@pytest.mark.parametrize("name", sorted(MODELS))
def test_plaquette_phases_across_strips(name, band, generic, monkeypatch):
    # each of these grids fits one strip of _CHUNK nodes; 500 nodes a strip
    # cuts them into strips of 8 (61-node rows) or 12 (41-node rows)
    # plaquette rows, the last one part full.  Neither route's field moves
    # by a bit, and the routes still agree
    model = MODELS[name]()
    compute, resolution = INVARIANTS[name]
    whole = [compute(m, band=band, resolution=resolution, with_field=True)
             for m in (model, generic(model))]
    monkeypatch.setattr(topology, "_CHUNK", 500)
    strips = [compute(m, band=band, resolution=resolution, with_field=True)
              for m in (model, generic(model))]
    for (w, w_field), (s, s_field) in zip(whole, strips):
        assert s == w
        assert np.array_equal(s_field.omega.view(np.uint64),
                              w_field.omega.view(np.uint64))
    (fast, f_field), (slow, s_field) = strips
    area = f_field.spacing[0] * f_field.spacing[1]
    assert_allclose(f_field.omega * area, s_field.omega * area, rtol=0,
                    atol=AGREE)
    assert fast.nearest_quantum == slow.nearest_quantum
    assert_allclose(fast.min_gap, slow.min_gap, rtol=0, atol=AGREE)
    assert_allclose(fast.min_overlap, slow.min_overlap, rtol=0, atol=AGREE)


def test_antipodal_neighbours_are_a_resolution_error():
    # dhat flips between neighbouring nodes: the band states there are
    # orthogonal, so no plaquette phase is defined on this grid
    dhat = np.zeros((3, 3, 3))
    dhat[..., 2] = 1.0
    dhat[1, :, 2] = -1.0
    with pytest.raises(ResolutionError, match="link overlap 0.00e"):
        curvature_solid_angle(dhat, (0.1, 0.1))


def test_solid_angle_input_checks():
    with pytest.raises(ValidationError):
        curvature_solid_angle(np.zeros((4, 4, 2)), (0.1, 0.1))
    ok = np.zeros((4, 4, 3))
    ok[..., 2] = 1.0
    with pytest.raises(ValidationError):
        curvature_solid_angle(ok, (0.1, 0.1), band=2)


@pytest.mark.parametrize("n_steps", [1, 63, 16 * _CHUNK + 17])
@pytest.mark.parametrize("band", BANDS)
@pytest.mark.parametrize("name", sorted(MODELS))
def test_states(name, band, n_steps, generic, embedded):
    # the last size spans 17 chunks and ends in a part-filled block.  With
    # or without its Bloch field, the model takes the SU(2) scan; as a
    # block of a D = 3 field it takes the spectral step
    model = MODELS[name]()
    traj = drive(name, n_steps)
    psi0 = eigensystem(model.evaluate(start_point(traj))).states[:, band]
    spectral = evolve(np.append(psi0, 0.0), embedded(model), traj)
    assert np.array_equal(spectral.states[:, 2], np.zeros(n_steps + 1))
    assert spectral.min_gap is None
    fast, slow = evolve(psi0, model, traj), evolve(psi0, generic(model), traj)
    assert len(fast.states) == n_steps + 1
    assert_allclose(slow.states, fast.states, rtol=0, atol=AGREE)
    assert_allclose(fast.states, spectral.states[:, :2], rtol=0,
                    atol=SPECTRAL)
    assert_allclose(fast.t, spectral.t, rtol=0, atol=0)
    d = model.d_field(
        (traj.z if name == "bolza" else traj.theta)[1:2 * n_steps:2])
    assert fast.min_gap == pytest.approx(
        2 * np.linalg.norm(d, axis=-1).min(), rel=1e-15)
    assert (slow.min_gap, slow.min_gap_t) == (fast.min_gap, fast.min_gap_t)


def test_counterdiabatic_run_matches_spectral():
    # the closed-form V_Q on the SU(2) scan against a spectral step of
    # H + V with the eigensolved matrix term, over a drive that crosses
    # two chunk edges and ends in a part-filled block
    model = MODELS["bolza"]()
    n_steps = 2 * _CHUNK + 17
    traj = trajectory(GeodesicSpec(manifold="bolza", T=n_steps * 0.01,
                                   dt=0.005, speed=0.5, direction=0.4))
    states = eigensystem(model.evaluate(traj.z[0])).states
    # each run reports the gap of H, not of H + V: the plain drive's 2|d|
    plain = evolve(states[:, 0], model, traj)
    for band in BANDS:
        psi0 = states[:, band]
        run = evolve(psi0, model, traj, counterdiabatic_band=band)
        assert len(run.states) == n_steps + 1
        want = oracles.evolve_cd(psi0, model, traj, band, GAP_THRESHOLD)
        assert_allclose(run.states, want, rtol=0, atol=AGREE)
        assert (run.min_gap, run.min_gap_t) == \
            (plain.min_gap, plain.min_gap_t)


def test_counterdiabatic_needs_a_bloch_field(generic, embedded):
    # the closed-form term is that of a Bloch field: the same H without
    # one, or as a block of a D = 3 field, is refused before any step
    model = MODELS["bolza"]()
    traj = drive("bolza", 4)
    psi0 = eigensystem(model.evaluate(traj.z[0])).states[:, 1]
    for other, psi in ((generic(model), psi0),
                       (embedded(model), np.append(psi0, 0.0))):
        with pytest.raises(ValidationError, match="needs a model with a "
                           "Bloch field"):
            evolve(psi, other, traj, counterdiabatic_band=1)
    with pytest.raises(ValidationError, match="and band 2"):
        evolve(psi0, model, traj, counterdiabatic_band=2)


RUNS = {"bolza": lambda m, b: run_hdqs(m, band=b, lam=0.2, T=20.0,
                                       dt=0.02),
        "klein": lambda m, b: run_klein(m, band=b, omega=(0.5, 0.81),
                                        T=40.0, dt=0.02),
        "rp2": lambda m, b: run_rp2(m, band=b, omega=(0.5, 0.81), T=40.0,
                                    dt=0.02)}


@pytest.mark.parametrize("band", BANDS)
@pytest.mark.parametrize("name", sorted(MODELS))
def test_expectations(name, band, generic):
    model = MODELS[name]()
    fast = RUNS[name](model, band)
    slow = RUNS[name](generic(model), band)
    assert_allclose(fast.series.values, slow.series.values, rtol=0,
                    atol=AGREE)
    assert fast.worst_imag == 0.0
    assert slow.worst_imag < 1e-12
    assert fast.min_gap > 0.0
    assert slow.min_gap == fast.min_gap

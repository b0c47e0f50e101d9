"""End-to-end acceptance gates.

One test per headline result: the static Chern plateaus, the hyperbolically
driven response and its adiabatic fidelity contrast, the dipolar and
quadrupolar invariants with their driven averages, equidistribution of the
unit-speed geodesic, the counterdiabatic fast drive, the independent
cross-validation oracles, and the lambda scaling of the first-order
correction.  Each test prints the measured numbers (visible with -s or on
failure) and asserts the gate at its stated tolerance.

The two expensive drives are shared: the slow hyperbolic drive (lambda =
1/20, T = 2000) feeds both the response plateau and the fidelity gate, and
the session-scoped unit-speed run feeds the equidistribution and energy
checks.
"""

import math
import time

import mpmath as mp
import numpy as np
import pytest

from geodrive.ergodicity import ergodicity_report
from geodrive.evolution import (
    GAP_THRESHOLD,
    evolve,
    fidelity,
    g_correction,
    track_band,
)
from geodrive.hyperbolic import BolzaGroup
from geodrive.models import bolza_qubit, eig_many, klein_qubit, rp2_qubit
from geodrive.response import (
    ObservableSeries,
    _expectation_values,
    observable_cd,
    observable_hdqs,
    run_klein,
    run_rp2,
    running_average,
)
from geodrive.topology import (
    chern_bolza,
    curvature_plaquette,
    dipolar_chern,
    quadrupole_chern,
)
from geodrive.trajectories import (
    GeodesicSpec,
    bolza_closed_form,
    flat_trajectory,
    integrate_cogeodesic,
    klein_lift_project,
    rp2_lift_project,
    trajectory,
)

DIPOLAR_TARGETS = {0.5: math.pi, 2.0: math.pi / 2, 4.0: 0.0}
QUAD_UNIT = math.pi ** 2 / 2


@pytest.fixture(scope="module")
def slow_drive():
    """lambda = 1/20 drive over T = 2000 (arc length 100), built once."""
    t0 = time.perf_counter()
    traj = trajectory(GeodesicSpec(manifold="bolza", T=2000.0, dt=0.005,
                                   speed=0.05, direction=math.pi / 9))
    print(f"slow drive built in {time.perf_counter() - t0:.1f} s "
          f"({traj.digits} digits)")
    return traj


def hdqs_pipeline(model, traj, lam):
    """Track, evolve, and average the response along a prebuilt drive."""
    track = track_band(model, traj.subsample(2), 1)
    result = evolve(track.states[0], model, traj)
    n = len(result.states)
    zb, pb = traj.z[::2][:n], traj.p[::2][:n]
    values, _ = _expectation_values(result.states,
                                    observable_hdqs(model, zb, pb))
    curve = running_average(ObservableSeries(result.t, values), lam ** 2)
    return track, result, curve


@pytest.fixture(scope="module")
def hdqs_runs(slow_drive):
    return {eps: hdqs_pipeline(bolza_qubit(eps), slow_drive, 0.05)
            for eps in (0.5, 1.5)}


def test_criterion_1_static_chern_plateaus():
    expected = {-0.5: 1.0, 0.5: 1.0, 1.5: 0.0, 2.0: 0.0}
    for eps, want in expected.items():
        t0 = time.perf_counter()
        res = chern_bolza(bolza_qubit(eps), band=1, resolution=200)
        wall = time.perf_counter() - t0
        print(f"criterion 1: eps={eps:+.1f}  C={res.value:+.6f}  "
              f"residue={res.residue:.2e}  ({wall:.2f} s)")
        assert res.nearest_quantum == want
        assert res.residue < 1e-3
        assert wall < 60.0


def test_criterion_2_response_plateaus(hdqs_runs):
    targets = {0.5: 1.0, 1.5: 0.0}
    for eps, (_, result, curve) in hdqs_runs.items():
        w = curve.final_value
        norm_dev = np.abs(result.norms - 1).max()
        print(f"criterion 2: eps={eps}  w(2000)={w:.5f}  "
              f"target={targets[eps]}  norm_dev={norm_dev:.2e}")
        assert curve.T[-1] == pytest.approx(2000.0)
        assert abs(w - targets[eps]) < 0.15
        assert norm_dev < 1e-9


def test_criterion_3_adiabatic_fidelity_contrast(hdqs_runs):
    track, result, _ = hdqs_runs[0.5]
    fid_slow = fidelity(result.states, track.states)

    model = bolza_qubit(0.5)
    fast = trajectory(GeodesicSpec(manifold="bolza", T=100.0, dt=0.005,
                                   speed=0.5, direction=math.pi / 9))
    track_fast = track_band(model, fast.subsample(2), 1)
    result_fast = evolve(track_fast.states[0], model, fast)
    fid_fast = fidelity(result_fast.states, track_fast.states)
    print(f"criterion 3: min fidelity lam=1/20: {fid_slow.min():.6f}, "
          f"lam=1/2: {fid_fast.min():.4f}")
    assert fid_slow.min() > 0.99
    assert fid_fast.min() < 0.9


def test_criterion_4_dipolar_plateaus():
    for m, want in DIPOLAR_TARGETS.items():
        res = dipolar_chern(klein_qubit(m), band=1, resolution=(400, 200))
        print(f"criterion 4: m={m}  D_y={res.value:+.6f}  "
              f"residue={res.residue:.2e}")
        assert abs(abs(res.value) - want) < 1e-2 * math.pi
        assert res.residue < 1e-2 * math.pi


def test_criterion_5_dipolar_response():
    for m, want in DIPOLAR_TARGETS.items():
        run = run_klein(klein_qubit(m), T=20000.0)
        nu = run.curve.final_value
        err = abs(abs(nu) - want)
        print(f"criterion 5: m={m}  nu(20000)={nu:+.5f}  "
              f"||nu|-target|={err:.4f}")
        assert run.spec.omega[0] * run.spec.T >= 400.0 - 1e-9
        assert err < 0.15 * (math.pi / 2)
        assert run.norm_deviation < 1e-9


def test_criterion_6_quadrupole_and_response():
    q1 = quadrupole_chern(rp2_qubit(1.0), band=1, resolution=(200, 200))
    q4 = quadrupole_chern(rp2_qubit(4.0), band=1, resolution=(200, 200))
    print(f"criterion 6: Q(m=1)={q1.value:+.6f} (unit {QUAD_UNIT:.4f}), "
          f"Q(m=4)={q4.value:+.2e}")
    assert abs(q1.value - QUAD_UNIT) <= 0.02 * QUAD_UNIT
    assert abs(q4.value) <= 0.02 * QUAD_UNIT

    run = run_rp2(rp2_qubit(1.0), T=20000.0)
    mu = run.curve.final_value
    print(f"criterion 6: mu(20000)={mu:+.5f}  |mu-Q|={abs(mu - q1.value):.4f}")
    assert abs(mu - q1.value) < 0.15 * QUAD_UNIT


def test_criterion_7_equidistribution(unit_speed_run):
    rep = ergodicity_report(unit_speed_run, r=0.6, bins=36)
    uniform = 1 / (2 * math.pi)
    dens_dev = np.abs(rep.histogram.density - uniform).max()
    print(f"criterion 7: S_est(2000)={rep.final_estimate:.5f}  "
          f"exact={rep.exact_area:.5f}  rel={rep.final_relative_error:.4f}")
    print(f"criterion 7: max density deviation={dens_dev:.4f} "
          f"(= {dens_dev / uniform:.3f} of the uniform level), "
          f"chi2={rep.histogram.chi_square:.1f} p={rep.histogram.p_value:.3g}")
    assert rep.final_relative_error < 0.05
    assert dens_dev < 0.15


def test_criterion_8_counterdiabatic_fast_drive():
    model, lam = bolza_qubit(0.5), 0.5
    traj = trajectory(GeodesicSpec(manifold="bolza", T=500.0, dt=0.005,
                                   speed=lam, direction=math.pi / 9))
    track = track_band(model, traj.subsample(2), 1)
    result = evolve(track.states[0], model, traj, counterdiabatic_band=1)
    fid = fidelity(result.states, track.states)
    n = len(result.states)
    zb, pb = traj.z[::2][:n], traj.p[::2][:n]
    values, _ = _expectation_values(
        result.states, observable_cd(model, zb, pb, 1, GAP_THRESHOLD))
    curve = running_average(ObservableSeries(result.t, values), lam ** 2)
    w_cd = curve.final_value
    print(f"criterion 8: min band fidelity deficit={1 - fid.min():.2e}, "
          f"w_CD(500)={w_cd:.5f}")
    assert fid.min() >= 1 - 1e-8
    assert abs(w_cd - 1.0) < 0.05


def test_criterion_9_cross_validation(unit_speed_run, slow_drive):
    # (a) polynomial phase-space integrator vs the closed form at 50 digits
    with mp.workdps(60):
        z0 = mp.mpc("0.15", "0.1")
        zs, ps = bolza_closed_form(z0, 0.6, 1.0, 0.0, digits=50)
        samples = integrate_cogeodesic(zs, ps, T=5.0, dt=0.25, digits=50)
        z_ref, p_ref = bolza_closed_form(z0, 0.6, 1.0, 5.0, digits=50)
        dz = abs(samples[-1].z - z_ref)
        dp = abs(samples[-1].p - p_ref) / abs(p_ref)
        print(f"criterion 9a: |dz|={mp.nstr(dz, 3)}  |dp|/|p|={mp.nstr(dp, 3)}")
        assert dz < mp.mpf(10) ** -20
        assert dp < mp.mpf(10) ** -20

    # (b) flat closed forms vs the literal lift-and-project oracle
    worst = 0.0
    for t in np.linspace(0.0, 60.0, 241):
        for oracle, manifold, theta0, omega in (
                (klein_lift_project, "klein", (0.7, -1.1), (1.0, 0.618)),
                (rp2_lift_project, "rp2", (0.4, 2.0), (1.0, 1.618))):
            got = flat_trajectory(GeodesicSpec(
                manifold=manifold, T=t, dt=t or 1.0, theta0=theta0,
                omega=omega)).theta[-1]
            want = oracle(theta0, omega, t)
            folded = oracle(tuple(got), (0.0, 0.0), 0.0)
            worst = max(worst, np.abs(folded - want).max())
    print(f"criterion 9b: worst lift-project deviation={worst:.2e}")
    assert worst < 1e-9

    # (c) plaquette curvature converges at second order to the analytic one
    meron = bolza_qubit(0.5)
    errs = {}
    for n in (80, 160):
        xs = np.linspace(-0.5, 0.5, n + 1)
        h = xs[1] - xs[0]
        zg = (xs[:, None] + 1j * xs[None, :]).ravel()
        _, vecs, _ = eig_many(meron.evaluate_many(zg))
        psi = vecs[:, :, 1].reshape(n + 1, n + 1, 2)
        field = curvature_plaquette(psi, (h, h), origin=(-0.5, -0.5), band=1)
        zc = (field.x1[:, None] + 1j * field.x2[None, :]).ravel()
        d = meron.d_field(zc)
        g = meron.d_gradient(zc)
        exact = 0.5 * np.einsum("nk,nk->n", d, np.cross(g[:, 0], g[:, 1]))
        errs[n] = np.abs(field.omega.ravel() - exact).max()
    ratio = errs[80] / errs[160]
    print(f"criterion 9c: plaquette errors {errs[80]:.3e} -> {errs[160]:.3e} "
          f"(ratio {ratio:.2f})")
    assert 3.0 < ratio < 5.0

    # (d) the group relation closes to +-identity at 60 digits
    rel = BolzaGroup(60).relation_product()
    res = float(max(min(abs(rel.a - 1), abs(rel.a + 1)), abs(rel.b)))
    print(f"criterion 9d: relation residual={res:.2e}")
    assert res < 1e-12

    # (e) kinetic energy is conserved along both shared drives
    for name, traj in (("unit speed", unit_speed_run),
                       ("lam=1/20", slow_drive)):
        e = traj.spec.speed ** 2 / 2
        drift = np.abs(traj.energies() - e).max() / e
        print(f"criterion 9e: {name} relative energy drift={drift:.2e}")
        assert drift < 1e-12


def test_criterion_10_correction_scaling():
    model = bolza_qubit(0.5)
    stats = []
    for lam, T in ((0.05, 200.0), (0.025, 400.0)):
        traj = trajectory(GeodesicSpec(manifold="bolza", T=T, dt=0.01,
                                       speed=lam, direction=math.pi / 9))
        series = g_correction(model, traj, 0, 1, lam=lam)
        early = series.magnitude[series.t <= T / 2].max()
        late = series.magnitude[series.t >= T / 2].max()
        stats.append((series.magnitude.max(), late / early))
        print(f"criterion 10: lam={lam}  max|G|={stats[-1][0]:.4e}  "
              f"late/early={stats[-1][1]:.4f}")
    ratio = stats[0][0] / stats[1][0]
    print(f"criterion 10: max|G| ratio={ratio:.5f}")
    assert 1.5 < ratio < 2.5
    assert stats[0][1] <= 1.0 and stats[1][1] <= 1.0

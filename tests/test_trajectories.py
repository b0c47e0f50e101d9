"""Tests for the classical flows: closed forms, the exact-segment Bolza
propagator against its independent oracles, and the flat-manifold geodesics
against literal lift-and-project group actions."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from numpy.testing import assert_allclose

from geodrive import PropagationError, ValidationError, trajectories
from geodrive.ergodicity import angle_histogram
from geodrive.hyperbolic import bolza_group, in_fundamental_domain, kinetic_energy
from geodrive.trajectories import (
    _BAND,
    GeodesicSpec,
    _Chart,
    _segment_samples,
    _tanh_table,
    bolza_closed_form,
    cogeodesic_energy,
    default_digits,
    flat_trajectory,
    integrate_cogeodesic,
    klein_lift_project,
    rp2_lift_project,
    trajectory,
    unit_geodesic_from_origin,
)

TWO_PI = 2 * math.pi


def flat_point(manifold, theta0, omega, t):
    """The wrapped point of a flat geodesic at drive time t."""
    spec = GeodesicSpec(manifold=manifold, T=t, dt=t or 1.0, theta0=theta0,
                        omega=omega)
    return flat_trajectory(spec).theta[-1]


class TestGeodesicSpec:
    def test_unknown_manifold(self):
        with pytest.raises(ValidationError):
            GeodesicSpec(manifold="sphere", T=1.0, dt=0.1)

    def test_bad_dt_and_horizon(self):
        with pytest.raises(ValidationError):
            GeodesicSpec(manifold="torus", T=1.0, dt=0.0)
        with pytest.raises(ValidationError):
            GeodesicSpec(manifold="torus", T=-1.0, dt=0.1)

    def test_bad_speed(self):
        with pytest.raises(ValidationError):
            GeodesicSpec(manifold="bolza", T=1.0, dt=0.1, speed=0.0)

    def test_z0_outside_disk(self):
        with pytest.raises(ValidationError):
            GeodesicSpec(manifold="bolza", T=1.0, dt=0.1, z0=1.1 + 0j)

    def test_z0_outside_octagon(self):
        with pytest.raises(ValidationError):
            GeodesicSpec(manifold="bolza", T=1.0, dt=0.1, z0=0.9 + 0j)

    def test_complex_direction_becomes_angle(self):
        spec = GeodesicSpec(manifold="bolza", T=1.0, dt=0.1, direction=1j)
        assert_allclose(spec.direction, math.pi / 2, rtol=1e-15)

    def test_zero_complex_direction_rejected(self):
        with pytest.raises(ValidationError):
            GeodesicSpec(manifold="bolza", T=1.0, dt=0.1, direction=0j)

    def test_klein_theta0_domain(self):
        with pytest.raises(ValidationError):
            GeodesicSpec(manifold="klein", T=1.0, dt=0.1, theta0=(0.0, 0.5))

    def test_rp2_and_torus_theta0_domains(self):
        # RP2 starts are checked against [0, pi]^2, edges included; torus
        # starts wrap, so none is rejected
        GeodesicSpec(manifold="rp2", T=1.0, dt=0.1, theta0=(math.pi, 0.0))
        with pytest.raises(ValidationError, match="theta0"):
            GeodesicSpec(manifold="rp2", T=1.0, dt=0.1, theta0=(-0.1, 1.0))
        GeodesicSpec(manifold="torus", T=1.0, dt=0.1, theta0=(5.0, -4.0))

    def test_n_steps_rounding(self):
        spec = GeodesicSpec(manifold="torus", T=1.0, dt=0.1)
        assert spec.n_steps == 10


class TestDefaultDigits:
    def test_floor(self):
        assert default_digits(1.0) == 50

    def test_long_run(self):
        assert default_digits(2000.0) == math.ceil(0.434 * 2000) + 30


class TestClosedForms:
    def test_origin_geodesic_start(self):
        z, p = unit_geodesic_from_origin(math.pi / 9, 0.0)
        assert_allclose(z, 0j, atol=1e-15)
        # p(0) = 2 n: unit speed means |p| = 2 at the origin
        assert_allclose(p, 2 * np.exp(1j * math.pi / 9), rtol=1e-15)

    def test_origin_geodesic_energy(self):
        for t in (0.0, 1.3, 4.0):
            z, p = unit_geodesic_from_origin(0.4, t)
            assert_allclose(kinetic_energy(z, p), 0.5, rtol=1e-12)

    def test_rebase_matches_translation(self):
        from geodrive.hyperbolic import MobiusMap

        z0, phi, t = 0.2 + 0.1j, 0.7, 1.5
        zr, pr = bolza_closed_form(z0, phi, 1.0, t)
        m = MobiusMap.translation_to(z0)
        z, p = unit_geodesic_from_origin(phi, t)
        assert_allclose(zr, complex(m(z)), atol=1e-14)
        assert_allclose(pr, complex(m.push_forward(z, p)), rtol=1e-12)

    @given(lam=st.floats(0.05, 2.0), t=st.floats(0.0, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_closed_form_energy(self, lam, t):
        z, p = bolza_closed_form(0.1 - 0.2j, 0.9, lam, t)
        assert_allclose(kinetic_energy(z, p), lam ** 2 / 2, rtol=1e-9)

    def test_closed_form_speed_time_rescaling(self):
        # speed-lam run at drive time t sits at arc length lam*t
        z1, p1 = bolza_closed_form(0j, 0.3, 1.0, 1.8)
        z2, p2 = bolza_closed_form(0j, 0.3, 0.45, 4.0)
        assert_allclose(z2, z1, atol=1e-14)
        assert_allclose(p2, 0.45 * p1, rtol=1e-13)

    def test_rescale_speed(self):
        z, p = unit_geodesic_from_origin(0.0, 2.0)
        # the speed-0.25 drive reaches arc length 2 at t = 8, at the same
        # point with the momentum scaled by 0.25
        zs, ps = bolza_closed_form(0j, 0.0, 0.25, 8.0)
        assert_allclose(zs, z, atol=1e-15)
        assert_allclose(ps, 0.25 * p, rtol=1e-13)
        assert_allclose(kinetic_energy(zs, ps), 0.25 ** 2 / 2, rtol=1e-12)

    @pytest.mark.parametrize("digits", [None, 30])
    def test_closed_form_rejects_start_outside_disk(self, digits):
        with pytest.raises(ValidationError, match="inside the unit disk"):
            bolza_closed_form(1.5 + 0j, 0.3, 1.0, 1.0, digits=digits)

    @pytest.mark.parametrize("digits", [None, 30])
    @pytest.mark.parametrize("closed_form", [
        lambda direction, digits: unit_geodesic_from_origin(
            direction, 1.0, digits=digits),
        lambda direction, digits: bolza_closed_form(
            0.1 + 0j, direction, 1.0, 1.0, digits=digits)],
        ids=["unit_geodesic_from_origin", "bolza_closed_form"])
    def test_zero_complex_direction_rejected(self, closed_form, digits):
        # as GeodesicSpec rejects it; 0j has no argument to take
        with pytest.raises(ValidationError, match="direction"):
            closed_form(0j, digits)

    def test_double_vs_mpmath_paths_agree(self):
        zd, pd = bolza_closed_form(0.1 + 0.05j, 0.6, 1.0, 2.0)
        zm, pm = bolza_closed_form(0.1 + 0.05j, 0.6, 1.0, 2.0, digits=40)
        assert abs(zd - complex(zm)) < 1e-13
        assert abs(pd - complex(pm)) / abs(pd) < 1e-13


class TestTaylorOracle:
    def test_matches_closed_form(self):
        # independent route: polynomial cogeodesic ODE vs the exact formula
        z0, p0 = unit_geodesic_from_origin(math.pi / 9, 0.0, digits=40)
        samples = integrate_cogeodesic(z0, p0, T=3.0, dt=0.5, digits=40)
        with mp.workdps(50):
            for s in samples:
                z_ref, p_ref = unit_geodesic_from_origin(
                    math.pi / 9, s.t, digits=50)
                assert abs(s.z - z_ref) < mp.mpf(10) ** -35
                assert abs(s.p - p_ref) / abs(p_ref) < mp.mpf(10) ** -35

    def test_energy_from_evolved_complement(self):
        samples = integrate_cogeodesic(0.1 + 0.1j, 1.0 - 0.5j, T=4.0, dt=1.0,
                                       digits=40)
        with mp.workdps(40):
            e0 = cogeodesic_energy(samples[0])
            for s in samples[1:]:
                assert abs(cogeodesic_energy(s) - e0) < mp.mpf(10) ** -35

    def test_sample_grid_includes_endpoint(self):
        samples = integrate_cogeodesic(0j, 2.0 + 0j, T=1.25, dt=0.5, digits=30)
        assert_allclose([float(s.t) for s in samples], [0.0, 0.5, 1.0, 1.25])

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError):
            integrate_cogeodesic(0j, 1.0 + 0j, T=1.0, dt=0.0)
        with pytest.raises(ValidationError):
            integrate_cogeodesic(1.0 + 0j, 1.0 + 0j, T=1.0, dt=0.1)


class TestPropagateBolza:
    def test_requires_bolza_spec(self):
        spec = GeodesicSpec(manifold="torus", T=1.0, dt=0.1)
        from geodrive.trajectories import propagate_bolza

        with pytest.raises(ValidationError):
            propagate_bolza(spec)

    def test_samples_stay_in_domain(self, short_bolza_run):
        assert all(in_fundamental_domain(z, tol=1e-9)
                   for z in short_bolza_run.z)

    def test_energy_conservation(self, short_bolza_run):
        assert np.abs(short_bolza_run.energies() - 0.5).max() < 1e-12

    def test_word_length_monotone(self, short_bolza_run):
        assert np.all(np.diff(short_bolza_run.word_len) >= 0)
        # T = 50 at unit speed crosses the octagon boundary many times
        assert short_bolza_run.word_len[-1] > 10

    def test_chart_map_reduces_closed_form_to_samples(self, short_bolza_run):
        # rebuild the chart word map from scratch and push the exact
        # unreduced geodesic through it: must land on the stored samples
        traj = short_bolza_run
        digits = traj.digits
        for k in (0, 1, 1700, len(traj) - 1):
            m = traj.chart_map(k)
            z_ref, p_ref = bolza_closed_form(
                traj.spec.z0, traj.spec.direction, traj.spec.speed,
                traj.t[k], digits=digits)
            with mp.workdps(digits):
                z_pred = m(z_ref)
                p_pred = m.push_forward(z_ref, p_ref)
                assert abs(z_pred - traj.z[k]) < 1e-12
                assert abs(p_pred - traj.p[k]) < 1e-11

    def test_samples_are_correctly_rounded(self, short_bolza_run):
        # each stored sample is the exact closed form pushed through its
        # chart, rounded once to double: bit for bit what an evaluation at
        # the working precision gives
        traj = short_bolza_run
        spec = traj.spec
        for k in range(0, len(traj), 97):
            with mp.workdps(traj.digits):
                t = mp.mpf(k) * mp.mpf(spec.dt)
            z_ref, p_ref = bolza_closed_form(spec.z0, spec.direction,
                                             spec.speed, t, digits=traj.digits)
            m = traj.chart_map(k)
            with mp.workdps(traj.digits):
                assert complex(m(z_ref)) == traj.z[k], k
                assert complex(m.push_forward(z_ref, p_ref)) == traj.p[k], k

    def test_unreduced_phase_inverts_the_word(self, short_bolza_run):
        # at double accuracy (the samples are stored rounded) undoing the
        # word at a sample gives the closed-form geodesic
        traj = short_bolza_run
        k = 400  # arc length 4: modest error amplification undoing the word
        m = traj.chart_map(k).inverse()
        z_ref, p_ref = bolza_closed_form(
            traj.spec.z0, traj.spec.direction, traj.spec.speed, traj.t[k],
            digits=traj.digits)
        with mp.workdps(traj.digits):
            z, p = mp.mpc(traj.z[k]), mp.mpc(traj.p[k])
            assert abs(m(z) - z_ref) < 1e-12
            assert abs(m.push_forward(z, p) - p_ref) / abs(p_ref) < 1e-12

    def test_velocities_formula(self, short_bolza_run):
        traj = short_bolza_run
        v = traj.velocities()
        assert_allclose(v, (1 - np.abs(traj.z) ** 2) ** 2 * traj.p / 4,
                        rtol=1e-14)

    def test_speed_scaling(self):
        spec = GeodesicSpec(manifold="bolza", T=4.0, dt=0.01, speed=0.5,
                            direction=math.pi / 9)
        traj = trajectory(spec)
        assert np.abs(traj.energies() - 0.125).max() < 1e-13
        # same arc at double the drive time as the unit-speed run
        ref = GeodesicSpec(manifold="bolza", T=2.0, dt=0.01, speed=1.0,
                           direction=math.pi / 9)
        rtraj = trajectory(ref)
        assert_allclose(traj.z[-1], rtraj.z[-1], atol=1e-12)

    def test_nonzero_start(self):
        spec = GeodesicSpec(manifold="bolza", T=2.0, dt=0.01, z0=0.3 + 0.1j,
                            direction=1.0)
        traj = trajectory(spec)
        assert_allclose(traj.z[0], 0.3 + 0.1j, atol=1e-14)
        assert np.abs(traj.energies() - 0.5).max() < 1e-12

    def test_crossings_lie_on_arcs(self, short_bolza_run):
        # each recorded crossing, pulled back through the chart of the sample
        # before it, sits on an octagon arc far inside the 1e-12 membership
        # slack: the crossing is a root, not the end of a bisection
        traj = short_bolza_run
        octagon = bolza_group().octagon
        spec = traj.spec
        for i, (s, _) in enumerate(traj.crossings):
            k = int(np.flatnonzero(traj.word_len == i)[-1])
            z_raw, _ = bolza_closed_form(spec.z0, spec.direction, spec.speed,
                                         s / spec.speed, digits=traj.digits)
            with mp.workdps(traj.digits):
                z = complex(traj.chart_map(k)(z_raw))
            miss = min(abs(abs(z - c) - octagon.r) for c in octagon.centers)
            assert miss < 1e-13, (i, s, miss)

    def test_vertex_passage(self):
        # aimed from the origin at the vertex at angle pi/8, the geodesic
        # leaves through the corner where two arcs meet: one step takes
        # several side pairings, going round the vertex without stepping back
        spec = GeodesicSpec(manifold="bolza", T=5.0, dt=0.01,
                            direction=math.pi / 8)
        traj = trajectory(spec)
        assert traj.stats["vertex_passages"] == 1
        assert all(in_fundamental_domain(z, tol=1e-9) for z in traj.z)
        k = int(np.flatnonzero(np.diff(traj.word_len))[0])
        assert traj.word_len[k + 1] - traj.word_len[k] > 1
        for j in (k - 1, k, k + 1, k + 2, len(traj) - 1):
            m = traj.chart_map(j)
            z_ref, p_ref = bolza_closed_form(0j, math.pi / 8, 1.0, traj.t[j],
                                             digits=traj.digits)
            with mp.workdps(traj.digits):
                assert abs(m(z_ref) - traj.z[j]) < 1e-12
                assert abs(m.push_forward(z_ref, p_ref) - traj.p[j]) \
                    < 1e-12 * abs(traj.p[j])

    def test_certificate_rejects_too_few_digits(self):
        # 30 digits carry the chart map only to arc length ~40 of 150
        spec = GeodesicSpec(manifold="bolza", T=150.0, dt=0.01,
                            direction=math.pi / 9, digits=30)
        with pytest.raises(PropagationError, match="precision certificate"):
            trajectory(spec)

    def test_stats(self, short_bolza_run):
        stats = short_bolza_run.stats
        assert stats["digits"] == short_bolza_run.digits
        assert stats["crossings"] == len(short_bolza_run.crossings)
        # one anchor at the start and one after each side pairing
        assert stats["anchors"] == stats["crossings"] + 1
        assert stats["vertex_passages"] == 0
        assert stats["certificate_max_diff"] <= 1e-13
        # no sample comes within _BAND of a slack circle
        assert stats["exact_membership"] == 0
        assert stats["propagate_s"] > 0
        assert short_bolza_run.subsample(2).stats is stats

    def test_bin_edge_momenta(self):
        # radial from the origin at pi/9, a bin edge of the 36-bin direction
        # histogram: every momentum inside |z| < 0.6 points along pi/9, so
        # the counts depend on the last bit of each correctly rounded sample
        spec = GeodesicSpec(manifold="bolza", T=3.0, dt=0.01, speed=1.0,
                            direction=math.pi / 9, digits=161)
        traj = trajectory(spec)
        inside = np.abs(traj.z) < 0.6
        angles = np.arctan2(traj.p[inside].imag, traj.p[inside].real)
        assert inside.sum() == 139
        edge = math.pi / 9
        assert ((angles > edge).sum(), (angles < edge).sum(),
                (angles == edge).sum()) == (18, 23, 98)
        assert angle_histogram(traj, r=0.6, bins=36).chi_square \
            == 3736.827338129497

    @pytest.mark.parametrize("T, direction", [(50.0, math.pi / 9),
                                              (5.0, math.pi / 8)])
    def test_double_double_membership_changes_nothing(self, monkeypatch, T,
                                                      direction):
        # with the band wide open every membership test is decided on the
        # correctly rounded sample; the plain-double walk must agree bit for
        # bit, also through the vertex passage at pi/8
        spec = GeodesicSpec(manifold="bolza", T=T, dt=0.01, speed=1.0,
                            direction=direction)
        ref = trajectory(spec)
        monkeypatch.setattr(trajectories, "_BAND", 1.0)
        exact = trajectory(spec)
        assert exact.stats["exact_membership"] >= len(exact)
        for name in ("z", "p", "word_len"):
            assert getattr(exact, name).tobytes() == getattr(ref, name).tobytes()
        assert exact.word == ref.word
        assert exact.crossings == ref.crossings
        assert exact.stats["vertex_passages"] == ref.stats["vertex_passages"]

    @settings(max_examples=40, deadline=None)
    @given(x=st.floats(-0.85, 0.85), y=st.floats(-0.85, 0.85),
           direction=st.floats(0.0, 2 * math.pi),
           ds=st.sampled_from([0.005, 0.01, 0.05]))
    def test_plain_double_samples_sit_well_inside_the_band(self, x, y,
                                                           direction, ds):
        # the walk's plain-double M(tau) against the correctly rounded
        # samples, for an anchor anywhere in the octagon and over the whole
        # tanh table a segment can use
        assume(abs(complex(x, y)) < 1 and in_fundamental_domain(complex(x, y)))
        spec = GeodesicSpec(manifold="bolza", T=1.0, dt=ds, z0=complex(x, y),
                            direction=direction)
        chart = _Chart(spec, 50)
        m, m_dd, _ = chart.anchor(0, 0.0)
        diameter = 4 * math.atanh(bolza_group().octagon.vertex_radius)
        tau = _tanh_table(int(diameter / ds) + 3, chart.half_ds[0])
        z_ref, _ = _segment_samples(m_dd, tau, 1.0)
        assert np.abs(m(tau.hi) - z_ref).max() < _BAND / 50

    def test_subsample_alignment(self, short_bolza_run):
        sub = short_bolza_run.subsample(2)
        assert_allclose(sub.t, short_bolza_run.t[::2])
        assert_allclose(sub.z, short_bolza_run.z[::2])
        assert sub.word_len[-1] == short_bolza_run.word_len[-2]


def _fold_klein(theta):
    # canonical representative used by the lift-project oracle
    return klein_lift_project(tuple(theta), (0.0, 0.0), 0.0)


def _fold_rp2(theta):
    return rp2_lift_project(tuple(theta), (0.0, 0.0), 0.0)


def _in_rp2_domain(theta):
    # [0, pi)^2 plus (pi, 0), the corner point {(0, pi), (pi, 0)}
    x, y = theta
    return (0 <= x < math.pi and 0 <= y < math.pi) or (x, y) == (math.pi, 0)


class TestFlatGeodesics:
    def test_torus_wraps(self):
        spec = GeodesicSpec(manifold="torus", T=TWO_PI, dt=TWO_PI / 4,
                            theta0=(0.5, 1.0), omega=(1.0, 2.0))
        traj = flat_trajectory(spec)
        assert_allclose(traj.theta[-1], [0.5, 1.0], atol=1e-12)
        assert traj.crossings[-1].tolist() == [1, 2]

    def test_klein_matches_lift_project(self):
        theta0, omega = (0.7, -1.1), (1.0, 0.618)
        for t in np.linspace(0.0, 40.0, 197):
            got = flat_point("klein", theta0, omega, t)
            want = klein_lift_project(theta0, omega, t)
            assert_allclose(_fold_klein(got), want, atol=1e-9)

    def test_rp2_matches_lift_project(self):
        theta0, omega = (0.4, 2.0), (1.0, 1.618)
        for t in np.linspace(0.0, 40.0, 197):
            got = flat_point("rp2", theta0, omega, t)
            want = rp2_lift_project(theta0, omega, t)
            assert_allclose(_fold_rp2(got), want, atol=1e-9)

    @given(x0=st.floats(-math.pi, math.pi), y0=st.floats(-math.pi, 0.0),
           wx=st.floats(0.1, 3.0), wy=st.floats(0.1, 3.0),
           t=st.floats(0.0, 30.0))
    @settings(max_examples=60, deadline=None)
    # a start within one rounding of the y = 0 edge
    @example(x0=0.5, y0=-5.46e-40, wx=1.0, wy=1.0, t=0.0)
    # two ulp inside the x seam, where 2pi - x rounds across it
    @example(x0=-3.1415926535897922, y0=0.0, wx=1.0, wy=1.0, t=0.0)
    def test_klein_oracle_property(self, x0, y0, wx, wy, t):
        got = flat_point("klein", (x0, y0), (wx, wy), t)
        want = klein_lift_project((x0, y0), (wx, wy), t)
        assert_allclose(_fold_klein(got), want, atol=1e-8)

    @given(x0=st.floats(0.0, math.pi), y0=st.floats(0.0, math.pi),
           wx=st.floats(0.1, 3.0), wy=st.floats(0.1, 3.0),
           t=st.floats(0.0, 30.0))
    @settings(max_examples=60, deadline=None)
    # an x move rounds y up to pi, then a y move rounds x up to pi
    @example(x0=math.pi, y0=0.0, wx=2.0, wy=1.0, t=2.2e-16)
    @example(x0=0.0, y0=math.pi, wx=0.5, wy=3.0, t=1e-16)
    # the corner point, which has no image in [0, pi)^2
    @example(x0=0.0, y0=math.pi, wx=1.0, wy=1.0, t=0.0)
    def test_rp2_oracle_property(self, x0, y0, wx, wy, t):
        got = flat_point("rp2", (x0, y0), (wx, wy), t)
        want = rp2_lift_project((x0, y0), (wx, wy), t)
        assert _in_rp2_domain(got) and _in_rp2_domain(want)
        assert_allclose(_fold_rp2(got), want, atol=1e-8)

    def test_klein_sign_parity(self):
        # the x velocity is -(-1)^{floor(ylift/pi)} omega_x: it flips
        # exactly when the lifted line crosses a y edge (t = pi/2 here)
        spec = GeodesicSpec(manifold="klein", T=4.0, dt=1.0,
                            theta0=(0.0, -math.pi / 2), omega=(1.0, 1.0))
        traj = flat_trajectory(spec)
        assert traj.velocities()[:, 0].tolist() == [1, 1, -1, -1, -1]
        assert traj.crossings[:, 1].tolist() == [-1, -1, 0, 0, 0]

    def test_rp2_effective_velocity(self):
        spec = GeodesicSpec(manifold="rp2", T=3.0, dt=3.0, theta0=(0.5, 0.5),
                            omega=(1.0, 0.3))
        traj = flat_trajectory(spec)
        # one x-edge crossing by t = 3 flips omega_y, no y crossing yet
        assert_allclose(traj.velocities()[-1], [1.0, -0.3], atol=1e-12)
        assert traj.crossings[-1].tolist() == [1, 0]


class TestFlatTrajectory:
    def test_rejects_bolza(self):
        spec = GeodesicSpec(manifold="bolza", T=1.0, dt=0.1)
        with pytest.raises(ValidationError):
            flat_trajectory(spec)

    def test_torus_velocities_constant(self):
        spec = GeodesicSpec(manifold="torus", T=5.0, dt=0.1,
                            omega=(0.7, 1.3))
        v = trajectory(spec).velocities()
        assert_allclose(v[:, 0], 0.7)
        assert_allclose(v[:, 1], 1.3)

    def test_klein_velocities_flip_with_crossings(self):
        spec = GeodesicSpec(manifold="klein", T=10.0, dt=0.01,
                            theta0=(0.0, -math.pi / 2), omega=(1.0, 1.0))
        traj = trajectory(spec)
        v = traj.velocities()
        # the x velocity is omega_x where the y crossing count is odd and
        # -omega_x where it is even
        assert_allclose(v[:, 0], np.where(traj.crossings[:, 1] % 2, 1.0, -1.0))
        assert_allclose(v[:, 1], 1.0)
        # and it does flip: both signs occur over ten time units
        assert set(np.unique(v[:, 0])) == {-1.0, 1.0}

    def test_velocity_is_derivative_between_crossings(self):
        # away from edges the sampled positions move at the reported rate
        spec = GeodesicSpec(manifold="klein", T=8.0, dt=0.001,
                            theta0=(-1.0, -2.0), omega=(0.9, 0.55))
        traj = trajectory(spec)
        dth = np.diff(traj.theta, axis=0)
        no_cross = np.all(np.diff(traj.crossings, axis=0) == 0, axis=-1)
        v_mid = traj.velocities()[:-1][no_cross]
        assert_allclose(dth[no_cross] / spec.dt, v_mid, atol=1e-9)

    def test_subsample(self):
        spec = GeodesicSpec(manifold="rp2", T=3.0, dt=0.1,
                            theta0=(0.1, 0.2), omega=(1.0, 0.7))
        traj = trajectory(spec)
        sub = traj.subsample(3)
        assert_allclose(sub.t, traj.t[::3])
        assert_allclose(sub.theta, traj.theta[::3])
        assert np.array_equal(sub.crossings, traj.crossings[::3])

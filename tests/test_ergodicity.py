"""Tests for the equidistribution diagnostics (area fraction, angle bins)."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from geodrive import ValidationError
from geodrive.ergodicity import (
    TOTAL_AREA,
    angle_histogram,
    area_estimate,
    disk_area_exact,
    ergodicity_report,
    uniformity_statistic,
)
from geodrive.trajectories import GeodesicSpec


def fake_bolza(t, z, p=None, speed=1.0):
    """Minimal stand-in with the attributes the diagnostics read."""
    t = np.asarray(t, dtype=float)
    spec = GeodesicSpec(manifold="bolza", T=float(t[-1]), dt=float(t[1] - t[0]),
                        speed=speed)
    z = np.asarray(z, dtype=complex)
    p = z * 0 + 1.0 if p is None else np.asarray(p, dtype=complex)
    return SimpleNamespace(spec=spec, t=t, z=z, p=p)


class TestDiskArea:
    def test_reference_radius(self):
        assert disk_area_exact(0.6) == pytest.approx(7.0685834705770345,
                                                     rel=1e-15)

    def test_limits(self):
        assert disk_area_exact(0.0) == 0.0
        with pytest.raises(ValidationError):
            disk_area_exact(1.0)
        with pytest.raises(ValidationError):
            disk_area_exact(-0.1)

    def test_total_area(self):
        assert TOTAL_AREA == pytest.approx(4 * math.pi)


class TestAreaEstimate:
    # indicator on [0, 1] sampled at dt = 0.25: in, in, out, in, out
    t = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    z = np.array([0.0, 0.3, 0.7, 0.5, 0.65], dtype=complex)

    def test_hand_trapezoid(self):
        T, est = area_estimate(fake_bolza(self.t, self.z), r=0.6)
        assert_allclose(T, self.t[1:])
        assert_allclose(est, TOTAL_AREA * np.array([0.25, 0.375, 0.5, 0.625])
                        / self.t[1:], rtol=1e-13)

    def test_explicit_horizons(self):
        # the closed-form estimates at the horizons T = 0.5 and 1.0
        T, est = area_estimate(fake_bolza(self.t, self.z), r=0.6)
        at = np.isin(T, [0.5, 1.0])
        assert_allclose(T[at], [0.5, 1.0])
        assert_allclose(est[at], [3 * math.pi, 2.5 * math.pi], rtol=1e-13)

    def test_requires_unit_speed(self):
        with pytest.raises(ValidationError, match="unit speed"):
            area_estimate(fake_bolza(self.t, self.z, speed=0.5))

    def test_requires_bolza(self):
        flat = SimpleNamespace(
            spec=GeodesicSpec(manifold="torus", T=1.0, dt=0.25),
            t=self.t, z=self.z, p=self.z)
        with pytest.raises(ValidationError, match="Bolza"):
            area_estimate(flat)


class TestUniformityStatistic:
    def test_perfectly_uniform(self):
        edges = np.linspace(-math.pi, math.pi, 37)
        centers = (edges[:-1] + edges[1:]) / 2
        hist = uniformity_statistic(np.repeat(centers, 5))
        assert hist.chi_square == 0.0
        assert hist.p_value == pytest.approx(1.0)
        assert_allclose(hist.counts, 5)
        assert_allclose(hist.density, 1 / (2 * math.pi), rtol=1e-12)

    def test_concentrated_sample_fails(self):
        hist = uniformity_statistic(np.full(360, 0.1))
        assert hist.p_value < 1e-6
        assert hist.counts.max() == 360

    def test_density_integrates_to_one(self):
        rng = np.random.default_rng(11)
        hist = uniformity_statistic(rng.uniform(-math.pi, math.pi, 1000))
        widths = np.diff(hist.edges)
        assert (hist.density * widths).sum() == pytest.approx(1.0)
        assert_allclose(hist.centers, (hist.edges[:-1] + hist.edges[1:]) / 2)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            uniformity_statistic([])


class TestAngleHistogram:
    def test_collects_in_region_directions(self):
        t = np.linspace(0.0, 1.0, 5)
        z = np.array([0.1, 0.2, 0.9, 0.1, 0.3], dtype=complex)
        phis = np.array([0.5, 1.5, 2.5, -0.5, -1.5])
        traj = fake_bolza(t, z, p=np.exp(1j * phis))
        hist = angle_histogram(traj, r=0.6, bins=8)
        assert hist.counts.sum() == 4  # the |z| = 0.9 sample is outside

    def test_nothing_inside(self):
        traj = fake_bolza([0.0, 1.0], [0.8, 0.9])
        with pytest.raises(ValidationError, match="no samples"):
            angle_histogram(traj, r=0.6)


class TestErgodicityReport:
    def test_short_run_wiring(self, short_bolza_run):
        rep = ergodicity_report(short_bolza_run)
        assert rep.r == 0.6
        assert rep.exact_area == pytest.approx(disk_area_exact(0.6))
        assert rep.T[-1] == pytest.approx(50.0)
        # T = 50 is far from converged; just check the estimate is sane
        assert rep.final_relative_error < 0.5
        assert 0.0 <= rep.histogram.p_value <= 1.0
        assert rep.histogram.counts.sum() > 0

    def test_horizons_pass_through(self, short_bolza_run):
        # the estimates at the horizons T = 10 and 50 are those of the
        # full sample-time curve; the one at T = 50 is pinned
        rep = ergodicity_report(short_bolza_run)
        at = np.isclose(rep.T[:, None], [10.0, 50.0], rtol=0,
                        atol=1e-9).any(axis=1)
        assert_allclose(rep.T[at], [10.0, 50.0], rtol=1e-12)
        assert rep.estimates[at][-1] == rep.final_estimate
        assert rep.final_estimate == pytest.approx(6.821025969474157,
                                                   rel=1e-10)

"""Ergodicity diagnostics for Bolza geodesics.

A single generic geodesic equidistributes over the surface: the fraction of
time spent inside a hyperbolic disk converges to its area fraction, and the
momentum directions collected inside any small region fill the circle
uniformly.  Both are finite-time numerical diagnostics here, not proofs:
area_estimate tracks S_est(T) = (4 pi / T) * time inside |z| < r against
the exact hyperbolic area, and angle_histogram bins the in-region momentum
directions with a loose chi-square gate against the uniform law.
"""

import math

from dataclasses import dataclass

import mpmath as mp
import numpy as np

from . import ValidationError
from .evolution import _cumtrapz

TOTAL_AREA = 4 * math.pi  # Gauss-Bonnet area of the genus-2 surface


def disk_area_exact(r):
    """Hyperbolic area of the disk |z| < r in the Poincare model."""
    if not 0 <= r < 1:
        raise ValidationError("disk radius must be in [0, 1)")
    return 4 * math.pi * r * r / (1 - r * r)


def _unit_speed_bolza(trajectory):
    spec = getattr(trajectory, "spec", None)
    if spec is None or spec.manifold != "bolza":
        raise ValidationError("expected a Bolza trajectory")
    if abs(spec.speed - 1.0) > 1e-12:
        raise ValidationError(
            f"area estimate assumes unit speed, got lambda = {spec.speed}")


def area_estimate(trajectory, r=0.6):
    """Running finite-time area estimates S_est(T) for the disk |z| < r.

    S_est(T) = (4 pi / T) integral_0^T I(|z_t| < r) dt by trapezoid on the
    sample grid; crossings of |z| = r are not sub-resolved (O(dt) error).
    Returns (T, S_est) arrays at every positive sample time.
    """
    _unit_speed_bolza(trajectory)
    t = np.asarray(trajectory.t, dtype=float)
    if len(t) == 0:
        raise ValidationError("empty trajectory")
    inside = (np.abs(np.asarray(trajectory.z)) < r).astype(float)
    cum = _cumtrapz(inside, t)
    keep = t > 0
    return t[keep], TOTAL_AREA * cum[keep] / t[keep]


@dataclass
class AngleHistogram:
    """Binned momentum directions with a chi-square uniformity gate."""
    edges: np.ndarray
    counts: np.ndarray
    density: np.ndarray
    chi_square: float
    p_value: float

    @property
    def centers(self):
        return (self.edges[:-1] + self.edges[1:]) / 2


def uniformity_statistic(angles, bins=36):
    """Chi-square of binned angles in [-pi, pi] against the uniform law.

    The p-value is the upper tail of the chi-square distribution with
    bins - 1 degrees of freedom (regularized incomplete gamma).
    """
    angles = np.asarray(angles, dtype=float)
    if len(angles) == 0:
        raise ValidationError("no angles to bin")
    counts, edges = np.histogram(angles, bins=bins, range=(-math.pi, math.pi))
    expected = len(angles) / bins
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    p = float(mp.gammainc((bins - 1) / 2, chi2 / 2, mp.inf, regularized=True))
    density = counts / (len(angles) * np.diff(edges))
    return AngleHistogram(edges, counts, density, chi2, p)


def angle_histogram(trajectory, r=0.6, bins=36):
    """Histogram of momentum directions arctan2(p_y, p_x) inside |z| < r."""
    _unit_speed_bolza(trajectory)
    z = np.asarray(trajectory.z)
    p = np.asarray(trajectory.p)
    inside = np.abs(z) < r
    if not inside.any():
        raise ValidationError(f"no samples inside |z| < {r}")
    return uniformity_statistic(
        np.arctan2(p[inside].imag, p[inside].real), bins=bins)


@dataclass
class ErgodicityReport:
    """Exact area, running estimates, and the direction histogram."""
    r: float
    exact_area: float
    T: np.ndarray
    estimates: np.ndarray
    histogram: AngleHistogram

    @property
    def final_estimate(self):
        return float(self.estimates[-1])

    @property
    def final_relative_error(self):
        return abs(self.final_estimate - self.exact_area) / self.exact_area


def ergodicity_report(trajectory, r=0.6, bins=36):
    """Assemble the full diagnostic for one unit-speed Bolza trajectory."""
    T, est = area_estimate(trajectory, r=r)
    return ErgodicityReport(
        r=r, exact_area=disk_area_exact(r), T=T, estimates=est,
        histogram=angle_histogram(trajectory, r=r, bins=bins))

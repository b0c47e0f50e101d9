"""Dynamical response observables and their scaled running averages.

The hyperbolic drive pairs the geodesic momentum with the spatial gradients
of the Hamiltonian, O = 2 g^{-1} (p_2 d1 H - p_1 d2 H); its time average
divided by lambda^2 converges to the first Chern number of the driven band.
The flat-manifold observables weight a single gradient with the coordinates
(theta_y for the Klein bottle, theta_x theta_y for the projective plane)
and their averages scaled by pi/omega_y^2 converge to the dipolar and
quadrupolar invariants.  The counterdiabatic observable replaces H with
H + V_Q, removing the adiabatic limit: w_CD converges at order-one speed.

Pipelines (run_hdqs, run_klein, run_rp2) wire trajectory -> evolution ->
expectation series -> running average and are what the CLI and the
acceptance checks call.
"""

import math

from dataclasses import dataclass

import numpy as np

from . import DegeneracyError, ValidationError
from .evolution import (EvolutionConfig, GAP_THRESHOLD, _CHUNK,
                        _counterdiabatic_stack, _cumtrapz, evolve)
from .models import eigensystem, gap_report
from .trajectories import GeodesicSpec, trajectory

GOLDEN = (1 + math.sqrt(5)) / 2
IMAG_TOL = 1e-9


@dataclass
class ObservableSeries:
    """Real expectation values <psi(t)|O(t)|psi(t)> on the step grid."""
    t: np.ndarray
    values: np.ndarray


@dataclass
class ResponseCurve:
    """Scaled running averages over every horizon T in the sample grid."""
    T: np.ndarray
    values: np.ndarray
    expectation: np.ndarray
    normalization: float
    target: float = None

    @property
    def final_value(self):
        return float(self.values[-1])

    @property
    def abs_error(self):
        if self.target is None:
            return None
        return abs(self.final_value - self.target)


@dataclass
class ResponseRun:
    """A full pipeline result: curve, raw series, and run diagnostics."""
    curve: ResponseCurve
    series: ObservableSeries
    norm_deviation: float
    band: int
    spec: GeodesicSpec
    worst_imag: float  # largest |Im <psi|O|psi>|, checked against IMAG_TOL
    propagation: dict | None = None  # BolzaTrajectory.stats of a Bolza drive


def running_average(series, normalization, target=None):
    """Cumulative trapezoid of a series divided by normalization * T.

    The value at horizon T uses exactly the samples with t <= T; a t = 0
    entry has no horizon to average over and is skipped.
    """
    if len(series.t) == 0:
        raise ValidationError("running_average: empty series")
    if normalization <= 0:
        raise ValidationError("running_average: normalization must be > 0")
    t = np.asarray(series.t, dtype=float)
    integral = _cumtrapz(np.asarray(series.values, dtype=float), t)
    keep = t > 0
    return ResponseCurve(
        T=t[keep], values=integral[keep] / (normalization * t[keep]),
        expectation=np.asarray(series.values)[keep],
        normalization=normalization, target=target)


# ---------------------------------------------------------------------------
# observable matrices (vectorized builders + single-sample wrappers)


def _ginv(z):
    return (1.0 - (z * z.conjugate()).real) ** 2 / 4.0


def _hdqs_stack(model, z, p):
    grads = model.gradient_many(z)
    w = 2.0 * _ginv(z)
    return (w * p.imag)[:, None, None] * grads[:, 0] \
        - (w * p.real)[:, None, None] * grads[:, 1]


def _vq_stack(model, z, p, band, threshold):
    # counterdiabatic term with the chart velocity g^{-1} p at each z
    vdot = _ginv(z) * p
    vel = np.stack([vdot.real, vdot.imag], axis=-1)
    return _counterdiabatic_stack(model, z, vel, band, threshold)


def _cd_observable_stack(model, z, p, band, h=1e-5,
                         threshold=GAP_THRESHOLD):
    grads = model.gradient_many(z)
    d1v = (_vq_stack(model, z + h, p, band, threshold)
           - _vq_stack(model, z - h, p, band, threshold)) / (2 * h)
    d2v = (_vq_stack(model, z + 1j * h, p, band, threshold)
           - _vq_stack(model, z - 1j * h, p, band, threshold)) / (2 * h)
    w = 2.0 * _ginv(z)
    return (w * p.imag)[:, None, None] * (grads[:, 0] + d1v) \
        - (w * p.real)[:, None, None] * (grads[:, 1] + d2v)


def _klein_stack(model, theta, omega_y):
    grads = model.gradient_many(theta)
    return (omega_y * theta[:, 1])[:, None, None] * grads[:, 0]


def _rp2_stack(model, theta, vy):
    grads = model.gradient_many(theta)
    return (vy * theta[:, 0] * theta[:, 1])[:, None, None] * grads[:, 0]


def observable_hdqs(model, sample, lam=None):
    """O = 2 g^{-1} (p_2 d1 H - p_1 d2 H) at one chart-reduced sample.

    sample is anything with .z and .p (or a (z, p) pair).  lam is accepted
    for interface symmetry with the other observables; when given, the
    sample's kinetic energy is checked against lam^2/2.
    """
    z, p = (sample.z, sample.p) if hasattr(sample, "z") else sample
    z = np.asarray([z], dtype=complex)
    p = np.asarray([p], dtype=complex)
    if lam is not None:
        energy = _ginv(z[0]) * abs(p[0]) ** 2 / 2
        if abs(energy - lam ** 2 / 2) > 1e-6 * max(1.0, lam ** 2):
            raise ValidationError(
                f"sample kinetic energy {energy:.3e} does not match "
                f"lambda^2/2 = {lam ** 2 / 2:.3e}")
    return _hdqs_stack(model, z, p)[0]


def observable_klein(model, sample, omega):
    """O = omega_y theta_y d_{theta_x} H at one Klein sample."""
    theta = np.asarray(sample, dtype=float).reshape(1, 2)
    return _klein_stack(model, theta, omega[1])[0]


def observable_rp2(model, sample, omega, y_velocity=None):
    """O = omega_y(t) theta_x theta_y d_{theta_x} H at one RP2 sample.

    omega_y(t) is the signed instantaneous dtheta_y/dt; it defaults to
    +omega[1] when no velocity is supplied.  Only its sign varies, so
    omega_y(t)^2 = omega_y^2 identically (the mu normalization constant).
    """
    theta = np.asarray(sample, dtype=float).reshape(1, 2)
    vy = np.asarray([omega[1] if y_velocity is None else y_velocity],
                    dtype=float)
    return _rp2_stack(model, theta, vy)[0]


def observable_cd(model, sample, lam, n, h=1e-5,
                  gap_threshold=GAP_THRESHOLD):
    """Counterdiabatic response observable at one bolza sample.

    The plain observable with H replaced by H + V_Q; the spatial partials
    of V_Q are central finite differences over phase-space points (step h,
    momentum held fixed).
    """
    z, p = (sample.z, sample.p) if hasattr(sample, "z") else sample
    return _cd_observable_stack(
        model, np.asarray([z], dtype=complex), np.asarray([p], dtype=complex),
        n, h=h, threshold=gap_threshold)[0]


# ---------------------------------------------------------------------------
# pipelines


def _band_state_at(model, point, band):
    system = eigensystem(model.evaluate(point))
    return system.states[:, band]


def _require_gapped(model, threshold):
    report = gap_report(model, threshold=threshold)
    if not report.fully_gapped:
        raise DegeneracyError(f"model is not fully gapped: {report}")


def _expectation_values(states, builder, n):
    """Real parts of <psi|O|psi> and the largest imaginary part dropped."""
    values = np.empty(n)
    worst_imag = 0.0
    for start in range(0, n, _CHUNK):
        sl = slice(start, min(start + _CHUNK, n))
        matrices = builder(sl)
        raw = np.einsum("ni,nij,nj->n", states[sl].conj(), matrices,
                        states[sl])
        worst_imag = max(worst_imag, np.abs(raw.imag).max())
        values[sl] = raw.real
    if worst_imag > IMAG_TOL:
        raise ValidationError(
            f"observable expectation has imaginary part {worst_imag:.2e}; "
            "observable is not Hermitian")
    return values, float(worst_imag)


def run_hdqs(model, lam=0.05, T=2000.0, dt=0.01, band=1, z0=0j,
             direction=math.pi / 9, counterdiabatic=False, digits=None,
             target=None, gap_threshold=GAP_THRESHOLD):
    """Hyperbolically driven response w(T) (or w_CD with counterdiabatic).

    Steers the model along a speed-lam Bolza geodesic from z0, evolves the
    band-`band` eigenstate, and averages the response observable; w(T) is
    the average divided by lam^2, which converges to the band's Chern
    number in the adiabatic (small lam) and long-time limits.
    """
    if model.manifold != "bolza":
        raise ValidationError("run_hdqs expects a disk model")
    _require_gapped(model, gap_threshold)
    spec = GeodesicSpec(manifold="bolza", T=T, dt=dt / 2, z0=z0,
                        direction=direction, speed=lam, digits=digits)
    traj = trajectory(spec)
    psi0 = _band_state_at(model, traj.z[0], band)
    result = evolve(psi0, model, traj, EvolutionConfig(dt=dt),
                    counterdiabatic_band=band if counterdiabatic else None,
                    gap_threshold=gap_threshold)
    n = len(result.states)
    zb, pb = traj.z[::2][:n], traj.p[::2][:n]

    def builder(sl):
        if counterdiabatic:
            return _cd_observable_stack(model, zb[sl], pb[sl], band,
                                        threshold=gap_threshold)
        return _hdqs_stack(model, zb[sl], pb[sl])

    values, worst_imag = _expectation_values(result.states, builder, n)
    series = ObservableSeries(result.t, values)
    return ResponseRun(
        curve=running_average(series, lam ** 2, target=target),
        series=series, norm_deviation=float(np.abs(result.norms - 1).max()),
        band=band, spec=spec, worst_imag=worst_imag, propagation=traj.stats)


def _run_flat(model, manifold, omega, T, dt, band, theta0, target,
              gap_threshold):
    if model.manifold != manifold:
        raise ValidationError(f"model lives on {model.manifold}, "
                              f"pipeline expects {manifold}")
    _require_gapped(model, gap_threshold)
    omega = (0.02, GOLDEN * 0.02) if omega is None else tuple(omega)
    if T is None:
        T = 400.0 / omega[0]
    spec = GeodesicSpec(manifold=manifold, T=T, dt=dt / 2, theta0=theta0,
                        omega=omega)
    traj = trajectory(spec)
    psi0 = _band_state_at(model, traj.theta[0], band)
    result = evolve(psi0, model, traj, EvolutionConfig(dt=dt),
                    gap_threshold=gap_threshold)
    n = len(result.states)
    thb = traj.theta[::2][:n]
    if manifold == "rp2":
        vyb = traj.velocities()[::2][:n, 1]
        builder = lambda sl: _rp2_stack(model, thb[sl], vyb[sl])
    else:
        builder = lambda sl: _klein_stack(model, thb[sl], omega[1])
    values, worst_imag = _expectation_values(result.states, builder, n)
    series = ObservableSeries(result.t, values)
    return ResponseRun(
        curve=running_average(series, omega[1] ** 2 / math.pi, target=target),
        series=series, norm_deviation=float(np.abs(result.norms - 1).max()),
        band=band, spec=spec, worst_imag=worst_imag)


def run_klein(model, omega=None, T=None, dt=0.01, band=1,
              theta0=(-math.pi, -math.pi), target=None,
              gap_threshold=GAP_THRESHOLD):
    """Klein-bottle response nu(T) = (pi / omega_y^2 T) integral <O> dt.

    Converges (in absolute value) to the dipolar Chern number |D_y| of the
    band for incommensurate frequencies; defaults follow the reference
    runs: omega_x = 0.02, omega_y = golden ratio * omega_x, start at the
    domain corner (-pi, -pi), horizon omega_x T = 400.
    """
    return _run_flat(model, "klein", omega, T, dt, band, theta0, target,
                     gap_threshold)


def run_rp2(model, omega=None, T=None, dt=0.01, band=1, theta0=(0.0, 0.0),
            target=None, gap_threshold=GAP_THRESHOLD):
    """Projective-plane response mu(T), converging to the quadrupole Q_xy."""
    return _run_flat(model, "rp2", omega, T, dt, band, theta0, target,
                     gap_threshold)

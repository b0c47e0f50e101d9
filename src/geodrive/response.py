"""Dynamical response observables and their scaled running averages.

The hyperbolic drive pairs the geodesic momentum with the spatial gradients
of the Hamiltonian, O = 2 g^{-1} (p_2 d1 H - p_1 d2 H); its time average
divided by lambda^2 converges to the first Chern number of the driven band.
The flat-manifold observables weight a single gradient with the coordinates
(theta_y for the Klein bottle, theta_x theta_y for the projective plane)
and their averages scaled by pi/omega_y^2 converge to the dipolar and
quadrupolar invariants.  The counterdiabatic observable replaces H with
H + V_Q, removing the adiabatic limit: w_CD converges at order-one speed.

Each observable is a weighted sum of the spatial gradients of H,
O = c_1 d1 H + c_2 d2 H, with the weights (c_1, c_2) built per sample.
The Bolza builders (observable_hdqs, observable_cd) take arrays of N
samples and return the (N, D, D) matrices.  The pipelines take <psi|O|psi>
from the weights: through those matrices for a generic model, and for a
two-level model with a Bloch field as c_1 s . d1 d + c_2 s . d2 d with
s = <psi|sigma|psi>, real by construction (s . o for the counterdiabatic
observable o . sigma).  Pipelines (run_hdqs, run_klein, run_rp2) wire
trajectory -> evolution -> expectation series -> running average along
the drive that drive_spec builds; they are what the CLI and the
acceptance checks call.

The pipelines stream the drive in windows of evolution._CHUNK steps.  Each
window takes its samples (flat drives evaluate the closed form on the
window's sample range; a Bolza drive is propagated once and sliced), calls
evolve from the psi the previous window ended on, takes <O> at the window's
states and extends the cumulative trapezoid from the integral carried so
far.  T, <O> and the running average go straight into three preallocated
arrays, so a run holds 24 bytes per step plus one window; the series and
the curve of a ResponseRun are views of those arrays.  ResponseRun.stats
records what the run did.
"""

import functools
import math
import time

from dataclasses import dataclass

import numpy as np

from . import ValidationError
from .evolution import _CHUNK, _cumtrapz, counterdiabatic_term, evolve
from .models import (GAP_THRESHOLD, eigensystem, gap_report,
                     pauli_hamiltonian, require_gap)
from .trajectories import (FLAT_DOMAINS, GeodesicSpec, _samples,
                           flat_trajectory, trajectory)

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

    @property
    def final_value(self):
        return float(self.values[-1])


@dataclass
class ResponseRun:
    """A full pipeline result: curve, raw series, and the run record.

    curve.T, curve.expectation and curve.values are the [1:] views of
    series.t, series.values and the running average (whose t = 0 entry is
    NaN).  stats holds:

    steps, windows          steps taken, and the windows they ran in
    min_gap, min_gap_t      smallest gap of H at the step midpoints and
                            the midpoint time where it occurs (2|d| for two
                            levels; a counterdiabatic drive, which steps
                            H + V, reports the gap of H); None for D > 2.
                            For a constant gap, as for
                            bolza_qubit, min_gap_t is rounding noise: the
                            midpoint whose gap rounds lowest
    norm_deviation          largest | |psi| - 1 | over the states
    max_imag_expectation    largest |Im <psi|O|psi>| dropped, checked
                            against IMAG_TOL
    trajectory_s, evolve_s, expectation_s
                            seconds spent taking samples, evolving, and
                            taking <O> with the running average
    output_bytes            bytes of the T, <O> and running-average arrays
    window_bytes            bytes of the sample and state arrays of the
                            largest window; its temporaries take the
                            window's transient peak to about 3x this
    """
    curve: ResponseCurve
    series: ObservableSeries
    band: int
    spec: GeodesicSpec
    stats: dict
    propagation: dict | None = None  # BolzaTrajectory.stats of a Bolza drive

    @property
    def norm_deviation(self):
        return self.stats["norm_deviation"]

    @property
    def worst_imag(self):
        return self.stats["max_imag_expectation"]

    @property
    def min_gap(self):
        return self.stats["min_gap"]


def running_average(series, normalization):
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
        normalization=normalization)


# ---------------------------------------------------------------------------
# observable matrices: arrays of N samples in, (N, D, D) out

# central-difference step of the spatial partials of V_Q
_FD_STEP = 1e-5


def _ginv(z):
    return (1.0 - (z * z.conjugate()).real) ** 2 / 4.0


def _contract(weights, grads):
    # sum_i weights[:, i] d_i H over a stack of (N, 2, D, D) gradients
    return weights[:, 0, None, None] * grads[:, 0] \
        + weights[:, 1, None, None] * grads[:, 1]


def _hdqs_weights(z, p):
    w = 2.0 * _ginv(z)
    return np.stack([w * p.imag, -(w * p.real)], axis=-1)


def _flat_weights(manifold, theta, vy):
    """Weights (c, 0) of the flat observables O = c d_{theta_x} H.

    c = vy theta_y on the Klein bottle and vy theta_x theta_y on RP2, with
    vy the signed dtheta_y/dt of FlatTrajectory.velocities (or a scalar).
    Only the sign of vy varies, so vy^2 = omega_y^2 identically (the
    normalization constant of nu and mu).
    """
    c = vy * theta[:, 1] if manifold == "klein" \
        else vy * theta[:, 0] * theta[:, 1]
    return np.stack([c, np.zeros_like(c)], axis=-1)


def observable_hdqs(model, z, p):
    """O = 2 g^{-1} (p_2 d1 H - p_1 d2 H) at chart-reduced disk samples."""
    return _contract(_hdqs_weights(z, p), model.gradient_many(z))


def _cd_vector(model, z, p, threshold):
    """Bloch vector (N, 3) of the counterdiabatic observable at disk
    samples: the weights contract the partials of d + v, H + V_Q =
    (d + v) . sigma, those of v central differences over phase-space
    points (step _FD_STEP, momentum held fixed)."""
    r = np.linalg.norm(model.d_field(z), axis=-1)
    k = int(np.argmin(r))
    require_gap(2.0 * float(r[k]), threshold,
                f"counterdiabatic observable at sample {k}")

    def vq(zs):
        # counterdiabatic term with the chart velocity g^{-1} p at each zs
        vdot = _ginv(zs) * p
        return counterdiabatic_term(
            model, zs, np.stack([vdot.real, vdot.imag], axis=-1))

    h = _FD_STEP
    dv = np.stack([vq(z + h) - vq(z - h), vq(z + 1j * h) - vq(z - 1j * h)],
                  axis=1) / (2 * h)
    return np.einsum("ni,nik->nk", _hdqs_weights(z, p),
                     model.d_gradient(z) + dv)


def observable_cd(model, z, p, band, threshold):
    """Counterdiabatic observable at disk samples: the plain one with H
    replaced by H + V_Q of a Bloch field, the same V_Q for either band."""
    return pauli_hamiltonian(_cd_vector(model, z, p, threshold))


# ---------------------------------------------------------------------------
# pipelines


def _band_state_at(model, point, band):
    system = eigensystem(model.evaluate(point))
    return system.states[:, band]


def _require_gapped(model, threshold):
    report = gap_report(model, threshold=threshold)
    require_gap(report.min_gaps.min(), threshold,
                f"gap scan of {model.name} ({report})")


def _expectation_values(states, matrices):
    """Real parts of <psi|O|psi> and the largest imaginary part dropped."""
    raw = np.einsum("ni,nij,nj->n", states.conj(), matrices, states)
    worst_imag = np.abs(raw.imag).max()
    if worst_imag > IMAG_TOL:
        raise ValidationError(
            f"observable expectation has imaginary part {worst_imag:.2e}; "
            "observable is not Hermitian")
    return raw.real, float(worst_imag)


def _spin(states):
    """s = <psi|sigma|psi> (N, 3) of two-level states psi = (a, b)."""
    a, b = states[:, 0], states[:, 1]
    return np.stack([2.0 * (a.real * b.real + a.imag * b.imag),
                     2.0 * (a.real * b.imag - a.imag * b.real),
                     a.real ** 2 + a.imag ** 2 - b.real ** 2 - b.imag ** 2],
                    axis=-1)


def _gradient_expectations(model, states, pts, weights):
    """<psi|O|psi> for O = sum_i weights[:, i] d_i H along a drive.

    A two-level model with a Bloch field contracts the weights with
    s . d_i d, s = (2 Re a*b, 2 Im a*b, |a|^2 - |b|^2) for psi = (a, b);
    the value is real by construction, so the imaginary part dropped is 0.
    Any other model goes through the (N, D, D) matrices.
    """
    if not model.has_d_field:
        return _expectation_values(
            states, _contract(weights, model.gradient_many(pts)))
    grad_s = np.einsum("nik,nk->ni", model.d_gradient(pts), _spin(states))
    return np.einsum("ni,ni->n", weights, grad_s), 0.0


def drive_spec(manifold, T=None, dt=0.01, lam=0.05, z0=0j,
               direction=math.pi / 9, digits=None, omega=None, theta0=None):
    """The drive of a response pipeline, sampled at dt/2.

    Steps of size dt then have their midpoints on samples.  The Bolza
    drive reads lam, z0, direction and digits; the flat drives read omega
    and theta0.  Defaults follow the reference runs: a lam = 0.05 Bolza
    drive from the origin in direction pi/9 over T = 2000; flat drives at
    omega_x = 0.02, omega_y = golden ratio * omega_x over omega_x T = 400,
    from the (x_lo, y_lo) corner of the manifold's FLAT_DOMAINS box,
    (-pi, -pi) on the Klein bottle and (0, 0) on RP2.  Without T the
    horizon is omega_x T = 400, so omega_x must then be positive.
    """
    if manifold == "bolza":
        return GeodesicSpec(manifold=manifold,
                            T=2000.0 if T is None else T, dt=dt / 2, z0=z0,
                            direction=direction, speed=lam, digits=digits)
    omega = (0.02, GOLDEN * 0.02) if omega is None else tuple(omega)
    if T is None and not omega[0] > 0:
        raise ValidationError(
            "omega_x must be positive when T is not given", param="omega")
    if theta0 is None:
        (x_lo, _), (y_lo, _) = FLAT_DOMAINS[manifold]
        theta0 = (x_lo, y_lo)
    return GeodesicSpec(manifold=manifold,
                        T=400.0 / omega[0] if T is None else T, dt=dt / 2,
                        theta0=theta0, omega=omega)


def _nbytes(*records):
    return sum(a.nbytes for r in records for a in vars(r).values()
               if isinstance(a, np.ndarray))


def _stream(model, psi0, n_samples, window, observe, normalization,
            evolve_args):
    """The window loop shared by the pipelines.

    window(lo, hi) returns the trajectory of samples lo..hi-1 of the drive;
    observe(w, states) returns (<O>, worst imaginary part) at the states
    on w's even samples.  Each window of m steps spans 2m + 1 samples and
    shares its first sample with the last of the window before.
    """
    n = (n_samples - 1) // 2
    if n < 1:
        raise ValidationError("drive too short for a single step")
    t, values, average = np.empty(n + 1), np.empty(n + 1), np.empty(n + 1)
    average[0] = np.nan
    stats = {"steps": n, "windows": 0, "min_gap": None, "min_gap_t": None,
             "norm_deviation": 0.0, "max_imag_expectation": 0.0,
             "trajectory_s": 0.0, "evolve_s": 0.0, "expectation_s": 0.0,
             "output_bytes": t.nbytes + values.nbytes + average.nbytes,
             "window_bytes": 0}
    psi, integral, gap = psi0, 0.0, (math.inf, None)
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        clock = time.perf_counter()
        w = window(2 * start, 2 * stop + 1)
        stats["trajectory_s"] += time.perf_counter() - clock
        clock = time.perf_counter()
        result = evolve(psi, model, w, **evolve_args)
        psi = result.states[-1]
        stats["evolve_s"] += time.perf_counter() - clock
        clock = time.perf_counter()
        v, imag = observe(w, result.states)
        t[start:stop + 1], values[start:stop + 1] = result.t, v
        # the cumulative trapezoid, seeded with the integral so far so that
        # the sum runs in the order of one pass over the whole drive
        acc = np.empty(len(v))
        acc[0] = integral
        acc[1:] = (v[1:] + v[:-1]) / 2 * np.diff(result.t)
        np.cumsum(acc, out=acc)
        integral = acc[-1]
        average[start + 1:stop + 1] = acc[1:] / (normalization
                                                 * result.t[1:])
        stats["expectation_s"] += time.perf_counter() - clock
        stats["windows"] += 1
        stats["norm_deviation"] = max(stats["norm_deviation"],
                                      float(np.abs(result.norms - 1).max()))
        stats["max_imag_expectation"] = max(stats["max_imag_expectation"],
                                            float(imag))
        if result.min_gap is not None:
            gap = min(gap, (result.min_gap, result.min_gap_t))
        stats["window_bytes"] = max(stats["window_bytes"], _nbytes(w, result))
    if gap[1] is not None:
        stats["min_gap"], stats["min_gap_t"] = gap
    series = ObservableSeries(t, values)
    curve = ResponseCurve(T=t[1:], values=average[1:], expectation=values[1:],
                          normalization=normalization)
    return curve, series, stats


def run_hdqs(model, band=1, counterdiabatic=False,
             gap_threshold=GAP_THRESHOLD, **drive):
    """Hyperbolically driven response w(T) (or w_CD with counterdiabatic).

    Steers the model along the Bolza geodesic drive_spec("bolza", **drive)
    builds, evolves the band-`band` eigenstate, and averages the response
    observable; w(T) is the average divided by lam^2, which converges to
    the band's Chern number in the adiabatic (small lam) and long-time
    limits.  The drive is propagated whole and evolved in windows.
    """
    if model.manifold != "bolza":
        raise ValidationError("run_hdqs expects a disk model")
    _require_gapped(model, gap_threshold)
    spec = drive_spec("bolza", **drive)
    clock = time.perf_counter()
    traj = trajectory(spec)
    trajectory_s = time.perf_counter() - clock

    def window(lo, hi):
        return _samples(traj, slice(lo, hi))

    def observe(w, states):
        zb, pb = w.z[::2], w.p[::2]
        if counterdiabatic:
            return np.einsum("nk,nk->n", _spin(states),
                             _cd_vector(model, zb, pb, gap_threshold)), 0.0
        return _gradient_expectations(model, states, zb,
                                      _hdqs_weights(zb, pb))

    curve, series, stats = _stream(
        model, _band_state_at(model, traj.z[0], band), len(traj.t), window,
        observe, spec.speed ** 2,
        {"counterdiabatic_band": band if counterdiabatic else None,
         "gap_threshold": gap_threshold})
    stats["trajectory_s"] += trajectory_s
    return ResponseRun(curve=curve, series=series, band=band, spec=spec,
                       stats=stats, propagation=traj.stats)


def _run_flat(model, manifold, band, gap_threshold, drive):
    """The Klein or RP2 response along drive_spec(manifold, **drive).

    Each window weighs d_{theta_x} H at its even samples with
    _flat_weights, vy taken from the window's velocities; the running
    average is normalized by omega_y^2 / pi.
    """
    if model.manifold != manifold:
        raise ValidationError(f"model lives on {model.manifold}, "
                              f"pipeline expects {manifold}")
    _require_gapped(model, gap_threshold)
    spec = drive_spec(manifold, **drive)
    window = functools.partial(flat_trajectory, spec)

    def observe(w, states):
        thb = w.theta[::2]
        return _gradient_expectations(
            model, states, thb,
            _flat_weights(manifold, thb, w.velocities()[::2, 1]))

    psi0 = _band_state_at(model, window(0, 1).theta[0], band)
    curve, series, stats = _stream(
        model, psi0, spec.n_steps + 1, window, observe,
        spec.omega[1] ** 2 / math.pi, {})
    return ResponseRun(curve=curve, series=series, band=band, spec=spec,
                       stats=stats)


def run_klein(model, band=1, gap_threshold=GAP_THRESHOLD, **drive):
    """Klein-bottle response nu(T) = (pi / omega_y^2 T) integral <O> dt.

    Converges (in absolute value) to the dipolar Chern number |D_y| of the
    band for incommensurate frequencies; the drive is the one
    drive_spec("klein", **drive) builds.
    """
    return _run_flat(model, "klein", band, gap_threshold, drive)


def run_rp2(model, band=1, gap_threshold=GAP_THRESHOLD, **drive):
    """Projective-plane response mu(T), converging to the quadrupole Q_xy.

    The drive is the one drive_spec("rp2", **drive) builds.
    """
    return _run_flat(model, "rp2", band, gap_threshold, drive)

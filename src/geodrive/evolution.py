"""Schrodinger propagation along a geodesic drive.

The propagator is the midpoint exponential: along a trajectory sampled at
spacing dt/2, one step of size dt applies exp(-i H(t + dt/2) dt) with H at
the sample between its ends, computed exactly for Hermitian H, so every
step is unitary by construction.  The route depends on the dimension:

- two levels: H = e0 + d . sigma, with d from the Bloch field where the
  model has one and from H (bloch_vector) otherwise.  Each step is the
  unit quaternion (cos |d|dt, dt sinc(|d|dt/pi) d) of d at the midpoint,
  stored as four reals, and a blocked scan turns the steps into states:
  prefix products inside _BLOCK-step blocks, vectorized across blocks,
  then one sequential pass over the block totals.  The trace e0 turns
  the states by the phase their steps have summed.  The smallest gap 2|d|
  at the midpoints comes with it.  A counterdiabatic drive scans d + v,
  V_Q = v . sigma in closed form (counterdiabatic_term), on models with a
  Bloch field only, and reports the gap of H;
- D > 2: the step unitaries come from the spectral decomposition of H,
  and one sequential pass psi_{k+1} = U_k psi_k gives the states.

A two-level step in doubles is unit only to about 1e-16, and the error
leans one way where |d|dt repeats; the scan scales its states to those of
exactly unit steps (_su2_steps).

Both work _CHUNK steps at a time, so no stack the length of the drive is
built besides the states.  The response pipelines go one step further and
call evolve once per _CHUNK-step window of their drive, carrying psi from
one window to the next, so a response holds no state array longer than a
window.

Also here: instantaneous-band tracking with dynamic and Berry phase
accumulators, the closed-form counterdiabatic term, and the first-order
adiabatic correction G(t, lambda).

Quantum evolution runs in double precision; high-precision trajectory
samples are rounded at this interface.  The responses downstream are
ergodic averages and insensitive to double-rounded chart coordinates.
"""

import math

from dataclasses import dataclass

import numpy as np

from . import ValidationError
from .models import (GAP_THRESHOLD, band_gap, bloch_vector, eig_many,
                     require_gap)
from .trajectories import _samples

NORM_TOL = 1e-10
# steps per window of the response pipelines and per vectorized block of
# every chunked loop here; bounds the (chunk, D, D) temporaries of long runs
# and the arrays a response holds besides its output curve.  A multiple of
# _BLOCK, so windows end on scan block edges
_CHUNK = 1 << 13
# steps per block of the two-level scan
_BLOCK = 64


def _points(model, trajectory):
    # manifold points of a sampled trajectory
    if model.manifold == "bolza":
        return np.asarray(trajectory.z, dtype=complex)
    return np.asarray(trajectory.theta, dtype=float)


def _velocities(model, trajectory):
    # chart velocities (N, 2) of a sampled trajectory
    if model.manifold == "bolza":
        vel = np.asarray(trajectory.velocities(), dtype=complex)
        return np.stack([vel.real, vel.imag], axis=-1)
    return np.asarray(trajectory.velocities(), dtype=float)


def _eig_chunked(model, pts, bands):
    """Energies (N, D) and the states (N, D, len(bands)) of the listed
    bands of H along a point series, _CHUNK points at a time."""
    n = len(pts)
    energies = np.empty((n, model.dim))
    states = np.empty((n, model.dim, len(bands)), dtype=complex)
    for start in range(0, n, _CHUNK):
        sl = slice(start, min(start + _CHUNK, n))
        w, v = eig_many(model.evaluate_many(pts[sl]))
        energies[sl] = w
        states[sl] = v[:, :, bands]
    return energies, states


def _gap_guard(trajectory, energies, band, threshold):
    gap, k, b = band_gap(energies, band)
    require_gap(gap, threshold, f"bands ({band},{b}) at t = "
                f"{trajectory.t[k]:.6g} (sample {k})")
    return gap


@dataclass
class EvolutionResult:
    """States at the step boundaries t, their norms, and the step dt.

    min_gap is the smallest band gap 2|d| of H at the step midpoints of a
    two-level drive, and min_gap_t the midpoint time where it occurs; on a
    counterdiabatic drive it is the gap of H, not of the stepped H + V.
    Both are None for D > 2.
    """
    t: np.ndarray
    states: np.ndarray
    norms: np.ndarray
    dt: float
    min_gap: float | None
    min_gap_t: float | None


def _su2_steps(d, dt):
    """exp(-i dt d . sigma) for a stack of Bloch vectors d (m, 3).

    The step is the unit quaternion q = (cos |d|dt, dt sinc(|d|dt/pi) d),
    U = q0 - i q . sigma = [[a, -conj(b)], [b, conj(a)]], kept as its four
    reals in the pair a = q0 - i q3, b = q2 - i q1.  Returns (a, b,
    |q|^2 - 1).

    No double q is unit: near the identity q0 sits on a grid of 1.1e-16,
    and when every step has the same |d|dt the rounding leans the same way
    at every step, so the norm of the states would drift linearly.
    Dividing q by its computed norm moves q0 by whole grid steps and leans
    another way.  |q|^2 - 1 is exact to about 1e-20 here (q0 - 1 is exact
    for q0 >= 1/2), so the states are scaled by the product of
    (1 + (|q|^2 - 1))^(-1/2) instead (_propagate), which is what exactly
    unit steps give.
    """
    r = np.linalg.norm(d, axis=-1)
    theta = r * dt
    q = np.empty((len(d), 4))
    q[:, 0] = np.cos(theta)
    # sin(theta)/|d| written through sinc so d -> 0 is regular
    q[:, 1:] = (dt * np.sinc(theta / math.pi))[:, None] * d
    excess = (q[:, 0] - 1.0) * (q[:, 0] + 1.0) \
        + np.einsum("...i,...i->...", q[:, 1:], q[:, 1:])
    a = np.empty(len(d), dtype=complex)
    b = np.empty(len(d), dtype=complex)
    a.real = q[:, 0]
    a.imag = -q[:, 3]
    b.real = q[:, 2]
    b.imag = -q[:, 1]
    return a, b, excess


def _su2_scan(a, b, psi, out):
    """out[j] = U_j ... U_0 psi for the steps (a, b) of _su2_steps.

    The steps are laid out _BLOCK to a column, so row j holds step j of
    every block.  One pass down the rows turns each column into its prefix
    products, vectorized across blocks; one sequential pass over the block
    totals gives the state entering each block; one vectorized product
    then gives every state.  Identity steps pad the last block.
    """
    m = len(a)
    nb = -(-m // _BLOCK)
    A = np.ones(nb * _BLOCK, dtype=complex)
    B = np.zeros(nb * _BLOCK, dtype=complex)
    A[:m], B[:m] = a, b
    A = A.reshape(nb, _BLOCK).T.copy()
    B = B.reshape(nb, _BLOCK).T.copy()
    for j in range(1, _BLOCK):
        a1, b1, a0, b0 = A[j], B[j], A[j - 1], B[j - 1]
        A[j], B[j] = a1 * a0 - b1.conj() * b0, b1 * a0 + a1.conj() * b0
    p, q = complex(psi[0]), complex(psi[1])
    v0, v1 = [], []
    for ta, tb in zip(A[-1].tolist(), B[-1].tolist()):
        v0.append(p)
        v1.append(q)
        p, q = ta * p - tb.conjugate() * q, tb * p + ta.conjugate() * q
    v0, v1 = np.array(v0), np.array(v1)
    s0 = A * v0 - B.conj() * v1
    s1 = B * v0 + A.conj() * v1
    full = m // _BLOCK
    blocks = out[:full * _BLOCK].reshape(full, _BLOCK, 2)
    blocks[..., 0] = s0[:, :full].T
    blocks[..., 1] = s1[:, :full].T
    tail = m - full * _BLOCK
    if tail:
        out[full * _BLOCK:, 0] = s0[:tail, full]
        out[full * _BLOCK:, 1] = s1[:tail, full]


def counterdiabatic_term(model, pts, vel):
    """Counterdiabatic term V_Q = v . sigma of a Bloch field, as v (N, 3).

    pts are N manifold points, vel the (N, 2) chart velocities, and
    v = (d x d_dot) / (2 |d|^2) with d_dot = sum_i vel_i d_i d (Berry, J.
    Phys. A 42, 365303 (2009)): the Hermitized i sum_{m != n} |m><m| dH/dt
    |n><n| / (E_n - E_m) of either band n.  Callers check the gap 2|d|.
    """
    d = model.d_field(pts)
    d_dot = np.einsum("ni,nik->nk", vel, model.d_gradient(pts))
    return np.cross(d, d_dot) / (2.0 * np.einsum("nk,nk->n", d, d))[:, None]


def _propagate(model, trajectory, psi0, cd_band, gap_threshold):
    """States at the boundaries of steps of twice the sample spacing.

    The steps take H at the odd samples, their midpoints.  Returns (states,
    gap); gap is (smallest gap 2|d| of H at the step midpoints, index of
    its step) for two levels and None for D > 2.  A counterdiabatic drive
    requires that gap above gap_threshold and steps d + V_Q.
    """
    n_steps = (len(trajectory.t) - 1) // 2
    dt = 2 * trajectory.spec.dt
    states = np.empty((n_steps + 1, model.dim), dtype=complex)
    psi = states[0] = psi0
    gap = (math.inf, 0)
    for start in range(0, n_steps, _CHUNK):
        stop = min(start + _CHUNK, n_steps)
        out = states[start + 1:stop + 1]
        mid = _samples(trajectory, slice(2 * start + 1, 2 * stop, 2))
        pts = _points(model, mid)
        if model.has_d_field:
            d, e0 = model.d_field(pts), None
        elif model.dim == 2:
            d, e0 = bloch_vector(model.evaluate_many(pts))
        else:
            w, v = np.linalg.eigh(model.evaluate_many(pts))
            steps = np.einsum("nij,nj,nkj->nik", v, np.exp(-1j * w * dt),
                              v.conj())
            for j, U in enumerate(steps):
                psi = out[j] = U.dot(psi)
            continue
        r = np.linalg.norm(d, axis=-1)
        j = int(np.argmin(r))
        gap = min(gap, (2.0 * float(r[j]), start + j))
        if cd_band is not None:
            # counted from t = 0, where every drive starts
            step = round(float(trajectory.t[0]) / dt) + start + j
            require_gap(2.0 * float(r[j]), gap_threshold,
                        "counterdiabatic drive at t = "
                        f"{float(mid.t[j]):.6g} (step {step})")
            d = d + counterdiabatic_term(model, pts, _velocities(model, mid))
        a, b, excess = _su2_steps(d, dt)
        _su2_scan(a, b, psi, out)
        # the states of exactly unit steps (see _su2_steps)
        out *= np.exp(-0.5 * np.cumsum(excess))[:, None]
        if e0 is not None:
            # H = e0 + d . sigma: the trace turns each state by the phase
            # its steps have summed
            out *= np.exp(-1j * dt * np.cumsum(e0))[:, None]
        psi = out[-1]
    return states, gap if model.dim == 2 else None


def evolve(psi0, model, trajectory, *, counterdiabatic_band=None,
           gap_threshold=GAP_THRESHOLD):
    """Propagate psi0 along a sampled trajectory.

    The step is twice the trajectory's sample spacing, so that every step
    midpoint is a sample: step j applies exp(-i H dt) with H taken at
    sample 2j + 1, and a trajectory of an even number of samples leaves
    its last one out.  With counterdiabatic_band = 0 or 1 the term V_Q of
    a model's Bloch field is added to H at the midpoints; only that drive
    reads gap_threshold, the gap 2|d| it requires there.  Returns the
    states at every step boundary, the even samples.
    """
    if counterdiabatic_band is not None and not (
            model.has_d_field and counterdiabatic_band in (0, 1)):
        raise ValidationError(
            "a counterdiabatic drive needs a model with a Bloch field and "
            f"band 0 or 1, not {model.name} and band {counterdiabatic_band}")
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (model.dim,):
        raise ValidationError(
            f"psi0 must have {model.dim} amplitudes, got {psi0.shape}")
    if abs(np.linalg.norm(psi0) - 1.0) > NORM_TOL:
        raise ValidationError("psi0 is not normalized")
    if len(trajectory.t) < 3:
        raise ValidationError("trajectory too short for a single step")
    states, gap = _propagate(model, trajectory, psi0, counterdiabatic_band,
                             gap_threshold)
    t = np.asarray(trajectory.t)
    min_gap, min_gap_t = (None, None) if gap is None else \
        (gap[0], float(t[2 * gap[1] + 1]))
    return EvolutionResult(
        t=t[:2 * len(states) - 1:2], states=states,
        norms=np.linalg.norm(states, axis=-1), dt=2 * trajectory.spec.dt,
        min_gap=min_gap, min_gap_t=min_gap_t)


def fidelity(psi, phi):
    """|<phi|psi>|^2, elementwise over leading axes."""
    psi = np.asarray(psi, dtype=complex)
    phi = np.asarray(phi, dtype=complex)
    for a in (psi, phi):
        if np.abs(np.linalg.norm(a, axis=-1) - 1.0).max() > NORM_TOL:
            raise ValidationError("fidelity: states must be normalized")
    return np.abs(np.einsum("...i,...i->...", phi.conj(), psi)) ** 2


@dataclass
class BandTrack:
    """Instantaneous band data along a trajectory with phase accumulators.

    dynamic_phase is -integral E_n dt (trapezoid); berry_phase accumulates
    -Im log of successive state overlaps, so it is insensitive to how each
    eigensolve picked its phase.
    """
    t: np.ndarray
    band: int
    energies: np.ndarray
    states: np.ndarray
    dynamic_phase: np.ndarray
    berry_phase: np.ndarray
    min_gap: float


def _cumtrapz(y, t):
    out = np.empty(len(y))
    out[0] = 0.0
    np.cumsum((y[1:] + y[:-1]) / 2 * np.diff(t), out=out[1:])
    return out


def _berry_phase(psi):
    """-Im log of the overlaps of successive states psi (N, D), summed from
    0 at the first state."""
    overlaps = np.einsum("ni,ni->n", psi[:-1].conj(), psi[1:])
    out = np.empty(len(psi))
    out[0] = 0.0
    np.cumsum(-np.log(overlaps).imag, out=out[1:])
    return out


def track_band(model, trajectory, band=1, gap_threshold=GAP_THRESHOLD):
    """Follow a band along a trajectory, accumulating its phases.

    Raises DegeneracyError naming the first offending sample if the gap to
    a neighboring band ever drops to gap_threshold.
    """
    if not 0 <= band < model.dim:
        raise ValidationError(f"band index {band} out of range")
    energies, states = _eig_chunked(model, _points(model, trajectory),
                                    bands=[band])
    min_gap = _gap_guard(trajectory, energies, band, gap_threshold)
    psi = states[:, :, 0]
    t = np.asarray(trajectory.t)
    return BandTrack(
        t=t, band=band, energies=energies[:, band], states=psi,
        dynamic_phase=-_cumtrapz(energies[:, band], t),
        berry_phase=_berry_phase(psi), min_gap=min_gap)


@dataclass
class CorrectionSeries:
    """|G(t, lambda)| along a drive for one band pair."""
    t: np.ndarray
    magnitude: np.ndarray
    band_from: int
    band_to: int


def g_correction(model, trajectory, m, n, lam=None,
                 gap_threshold=GAP_THRESHOLD):
    """First-order adiabatic correction magnitude |G(t, lambda)|.

    G(t) = integral_0^t ds g^{-1} p_i <d_i psi_n|psi_m>
           e^{-i gamma_n} e^{-i (phi_n - phi_m)}
    accumulated by trapezoid; <d_i psi_n|psi_m> is evaluated through the
    gradient of H, conj(<psi_m|d_i H|psi_n>)/(E_n - E_m), so no state
    derivatives are needed.  The adiabatic theorem makes max|G| of order
    lambda; pass lam to double-check it matches the trajectory speed.
    """
    if m == n:
        raise ValidationError("g_correction needs two distinct bands")
    if lam is not None and hasattr(trajectory.spec, "speed"):
        if abs(trajectory.spec.speed - lam) > 1e-12:
            raise ValidationError(
                f"trajectory speed {trajectory.spec.speed} != lambda {lam}")
    pts, vel = _points(model, trajectory), _velocities(model, trajectory)
    energies, states = _eig_chunked(model, pts, bands=[m, n])
    _gap_guard(trajectory, energies, n, gap_threshold)
    psi_m, psi_n = states[:, :, 0], states[:, :, 1]
    t = np.asarray(trajectory.t)
    e_m, e_n = energies[:, m], energies[:, n]
    n_pts = len(pts)
    cross = np.empty((n_pts, 2), dtype=complex)
    for start in range(0, n_pts, _CHUNK):
        sl = slice(start, min(start + _CHUNK, n_pts))
        grads = model.gradient_many(pts[sl])
        cross[sl] = np.einsum(
            "ni,naij,nj->na", psi_m[sl].conj(), grads, psi_n[sl])
    d_psi_dot = (vel[:, 0] * np.conj(cross[:, 0])
                 + vel[:, 1] * np.conj(cross[:, 1])) / (e_n - e_m)
    phi_n = -_cumtrapz(e_n, t)
    phi_m = -_cumtrapz(e_m, t)
    gamma_n = _berry_phase(psi_n)
    integrand = d_psi_dot * np.exp(-1j * (gamma_n + phi_n - phi_m))
    g_re = _cumtrapz(integrand.real, t)
    g_im = _cumtrapz(integrand.imag, t)
    return CorrectionSeries(
        t=t, magnitude=np.hypot(g_re, g_im), band_from=n, band_to=m)

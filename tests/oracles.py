"""Reference implementations that the library's counterdiabatic code is
checked against.

counterdiabatic_term is the eigensolve term the library used before the
closed form, kept as it was but for one eigensolve over all its points in
place of the chunked one: V = i sum_{m != n} |psi_m><psi_m| dH/dt
|psi_n><psi_n| / (E_n - E_m), Hermitized, as (N, D, D) matrices.  The
observable and the spectral step built on it are the matrix route that
observable_cd and the counterdiabatic evolve replace with Bloch vectors.
"""

import numpy as np

from geodrive.evolution import _points, _velocities
from geodrive.models import band_gap, eig_many, require_gap
from geodrive.response import _FD_STEP, _contract, _ginv, _hdqs_weights


def counterdiabatic_term(model, pts, vel, band, threshold):
    """Hermitized counterdiabatic term at an array of phase-space samples.

    pts are N manifold points, vel the (N, 2) chart velocities; returns
    (N, D, D).  V = i sum_{m != n} |psi_m><psi_m| dH/dt |psi_n><psi_n| /
    (E_n - E_m) for n = band, with dH/dt the velocity-contracted spatial
    gradients.  V alone is not Hermitian; V^dagger annihilates band-n
    states, so V + V^dagger drives band n identically while being a
    legitimate Hamiltonian term, and that is what is returned, with (the
    smallest gap of H from band n, its sample index).  Raises
    DegeneracyError where that gap is not above threshold.
    """
    energies, vecs = eig_many(model.evaluate_many(pts))
    gap, k, b = band_gap(energies, band)
    require_gap(gap, threshold,
                f"counterdiabatic term, bands ({band},{b}) at sample {k}")
    grads = model.gradient_many(pts)
    dtH = (vel[:, 0, None, None] * grads[:, 0]
           + vel[:, 1, None, None] * grads[:, 1])
    psi_n = vecs[:, :, band]
    col = np.einsum("nim,nij,nj->nm", vecs.conj(), dtH, psi_n)
    denom = energies[:, band, None] - energies
    denom[:, band] = 1.0
    col[:, band] = 0.0
    lead = np.einsum("nim,nm->ni", vecs, col / denom)
    V = 1j * np.einsum("ni,nj->nij", lead, psi_n.conj())
    return V + np.conj(np.swapaxes(V, -1, -2)), (gap, k)


def observable_cd(model, z, p, band, threshold):
    """The counterdiabatic observable through the matrix term: the plain
    observable's gradients of H plus central differences of V over the
    disk, momentum held fixed, as (N, D, D) matrices."""
    def vq(zs):
        vdot = _ginv(zs) * p
        return counterdiabatic_term(
            model, zs, np.stack([vdot.real, vdot.imag], axis=-1), band,
            threshold)[0]

    h = _FD_STEP
    dv = np.stack([vq(z + h) - vq(z - h), vq(z + 1j * h) - vq(z - 1j * h)],
                  axis=1) / (2 * h)
    return _contract(_hdqs_weights(z, p), model.gradient_many(z) + dv)


def evolve_cd(psi0, model, trajectory, band, threshold):
    """States of a counterdiabatic drive, one spectral step of H + V a
    step: exp(-i (H + V) dt) at the odd samples, applied in turn."""
    odd = slice(1, len(trajectory.t) - 1, 2)
    pts = _points(model, trajectory)[odd]
    vel = _velocities(model, trajectory)[odd]
    dt = 2 * trajectory.spec.dt
    H = model.evaluate_many(pts) \
        + counterdiabatic_term(model, pts, vel, band, threshold)[0]
    w, v = np.linalg.eigh(H)
    steps = np.einsum("nij,nj,nkj->nik", v, np.exp(-1j * w * dt), v.conj())
    states = np.empty((len(pts) + 1, model.dim), dtype=complex)
    psi = states[0] = psi0
    for j, U in enumerate(steps):
        psi = states[j + 1] = U.dot(psi)
    return states

"""Parent Hamiltonians steered along geodesic trajectories.

A model is a Hermitian matrix field H(x) over one of the driving manifolds,
wrapped in ParentHamiltonian.  A two-level model states its Bloch vector
field d(x) and the field's partials once, and H = d . sigma and its partials
are assembled from them; any other model passes H and, where gradients are
needed, its analytic partials as batch callables.  The built-ins are the
compactly supported meron texture on the Poincare disk (bolza_qubit) and
the two flat-manifold textures (klein_qubit, rp2_qubit) whose mirror /
quarter-turn symmetries quantize the dipolar and quadrupolar responses
downstream.

Eigensystems are returned in a deterministic gauge (largest-magnitude
component real positive) so identical inputs give bitwise identical states.
"""

import math

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import DegeneracyError, ValidationError
from .hyperbolic import FundamentalOctagon
from .trajectories import FLAT_DOMAINS, MANIFOLDS

HERMITICITY_TOL = 1e-12
# smallest band gap that gap checks accept, unless a caller passes its own
GAP_THRESHOLD = 1e-3

# sigma_x, sigma_y, sigma_z
PAULI = np.array(
    [[[0.0, 1.0], [1.0, 0.0]],
     [[0.0, -1.0j], [1.0j, 0.0]],
     [[1.0, 0.0], [0.0, -1.0]]], dtype=complex)


def pauli_hamiltonian(d):
    """Assemble d.sigma for a Bloch vector or any stack of them.

    Parameters
    ----------
    d : array, shape (..., 3)
        Real Bloch vector(s).

    Returns array of shape (..., 2, 2), complex.
    """
    d = np.asarray(d, dtype=float)
    out = np.empty(d.shape[:-1] + (2, 2), dtype=complex)
    # a zero d_z puts +0.0, never -0.0, on the diagonal
    out[..., 0, 0] = 0.0 + d[..., 2]
    out[..., 1, 1] = 0.0 - d[..., 2]
    out[..., 0, 1] = d[..., 0] - 1j * d[..., 1]
    out[..., 1, 0] = d[..., 0] + 1j * d[..., 1]
    return out


def bloch_vector(H):
    """Return (d, e0) with H = e0*I + d.sigma."""
    H = np.asarray(H)
    d = np.stack([H[..., 1, 0].real, H[..., 1, 0].imag,
                  (H[..., 0, 0] - H[..., 1, 1]).real / 2], axis=-1)
    return d, (H[..., 0, 0] + H[..., 1, 1]).real / 2


def _check_hermitian(H):
    res = np.abs(H - np.conj(np.swapaxes(H, -1, -2))).max()
    scale = max(1.0, np.abs(H).max())
    if not res <= HERMITICITY_TOL * scale:
        raise ValidationError(
            f"matrix field is not Hermitian (residual {res:.2e})")


def _as_batch(manifold, point):
    if manifold == "bolza":
        return np.asarray([point], dtype=complex)
    return np.asarray(point, dtype=float).reshape(1, 2)


class ParentHamiltonian:
    """A Hermitian matrix field H(x) on a driving manifold.

    Points are complex numbers on the Poincare disk for manifold "bolza" and
    length-2 angle arrays for the flat manifolds; the *_many methods take a
    (N,) complex or (N, 2) float array accordingly.  A two-level model is a
    Bloch field: d_field gives d(x) and d_gradient its partials, passed
    together, and H = d . sigma and its partials are assembled from them
    unless the model also passes evaluate_many or gradient_many.
    has_d_field routes such a model through the Bloch-vector paths of
    topology, evolution and response.  Any other model passes H as the batch
    callable evaluate_many and, where gradients are needed, its analytic
    partials as gradient_many.
    """

    def __init__(self, name, manifold, dim, evaluate_many=None,
                 gradient_many=None, d_field=None, d_gradient=None,
                 compact_support=None, params=None):
        if manifold not in MANIFOLDS:
            raise ValidationError(f"unknown manifold {manifold!r}")
        if (d_field is None) != (d_gradient is None):
            raise ValidationError(
                f"{name}: a Bloch field needs both d_field and d_gradient")
        if d_field is not None:
            if int(dim) != 2:
                raise ValidationError("a Bloch vector field needs dim = 2")
            evaluate_many = evaluate_many or (
                lambda x: pauli_hamiltonian(d_field(x)))
            gradient_many = gradient_many or (
                lambda x: pauli_hamiltonian(d_gradient(x)))
        if evaluate_many is None:
            raise ValidationError("model needs evaluate_many")
        if int(dim) < 2:
            raise ValidationError("model dimension must be at least 2")
        self.name = name
        self.manifold = manifold
        self.dim = int(dim)
        self.params = dict(params or {})
        # radius beyond which a disk texture is constant (None = unknown)
        self.compact_support = compact_support
        self._evaluate_many = evaluate_many
        self._gradient_many = gradient_many
        self._d_field = d_field
        self._d_gradient = d_gradient

    def __repr__(self):
        pars = ", ".join(f"{k}={v!r}" for k, v in self.params.items())
        return f"ParentHamiltonian({self.name}({pars}) on {self.manifold})"

    @property
    def has_d_field(self):
        """True if H = d . sigma with d and its partials available."""
        return self._d_field is not None

    def evaluate(self, point):
        """H at a single manifold point, shape (dim, dim)."""
        H = np.asarray(
            self._evaluate_many(_as_batch(self.manifold, point))[0],
            dtype=complex)
        _check_hermitian(H)
        return H

    def evaluate_many(self, points):
        """H at an array of points, shape (N, dim, dim)."""
        H = np.asarray(self._evaluate_many(points), dtype=complex)
        _check_hermitian(H)
        return H

    def gradient_many(self, points):
        """Analytic (d1 H, d2 H) at an array of points, shape
        (N, 2, dim, dim)."""
        if self._gradient_many is None:
            raise ValidationError(
                f"{self.name} has no gradient: pass gradient_many or a "
                "Bloch field")
        return np.asarray(self._gradient_many(points), dtype=complex)

    def d_field(self, points):
        """Bloch vector field at an array of points, shape (N, 3)."""
        if self._d_field is None:
            raise ValidationError(
                f"{self.name} does not expose a Bloch vector field")
        return np.asarray(self._d_field(points), dtype=float)

    def d_gradient(self, points):
        """Partials of the Bloch field, shape (N, 2, 3)."""
        if self._d_gradient is None:
            raise ValidationError(
                f"{self.name} does not expose Bloch field gradients")
        return np.asarray(self._d_gradient(points), dtype=float)


# ---------------------------------------------------------------------------
# built-in model: meron texture on the Bolza surface


def _bump_parts(u, rho):
    # f(u) and df/du for u = |z|^2; outside the support f is frozen at -pi/2.
    a = math.pi * math.exp(1.0 / rho ** 2)
    t = rho * rho - u
    inside = t > 0
    f = np.full_like(u, -math.pi / 2)
    fu = np.zeros_like(u)
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        e = a * np.exp(-1.0 / t[inside])
    f[inside] += e
    fu[inside] = -e / t[inside] ** 2
    return f, fu, inside


def bump(z, rho=0.6):
    """Smooth compactly supported angle profile on the disk.

    f = A exp(-1/(rho^2 - |z|^2)) + B inside |z| < rho and B outside, with
    A = pi e^{1/rho^2}, B = -pi/2, so f falls from pi/2 at the origin to
    -pi/2 at the rim of the bump and stays constant beyond it.
    """
    z = np.asarray(z, dtype=complex)
    u = (z * z.conjugate()).real
    if np.any(u >= 1.0):
        raise ValidationError("bump: point outside the unit disk")
    f, _, _ = _bump_parts(u, rho)
    return f if f.ndim else float(f)


def bolza_qubit(epsilon, rho=0.6):
    """Two-level meron model on the Bolza surface.

    The primitive field d' = (cos f x/|z|, cos f y/|z|, sin f + epsilon) is
    normalized to a unit Bloch vector, so the spectrum is -1, +1 with a
    constant gap of 2.  The texture is constant outside |z| = rho and hence
    descends to the quotient surface untouched by the edge identifications,
    which needs 0 < rho <= c - r, the distance from the origin to the
    nearest point of the octagon's boundary (about 0.6436).  |epsilon| = 1
    is rejected: the primitive field then vanishes at the origin
    (epsilon = -1) or on the whole outside region (epsilon = +1).
    """
    if abs(abs(epsilon) - 1.0) < 1e-12:
        raise ValidationError(
            "bolza_qubit: |epsilon| = 1 makes the primitive field vanish",
            param="epsilon")
    octagon = FundamentalOctagon()
    inradius = octagon.c - octagon.r
    if not 0 < rho <= inradius:
        raise ValidationError(
            f"bolza_qubit: rho must lie in (0, {inradius:.6f}], where the "
            "texture is constant on the octagon's boundary", param="rho")

    def primitive(z):
        z = np.asarray(z, dtype=complex)
        x, y = z.real, z.imag
        u = x * x + y * y
        f, fu, inside = _bump_parts(u, rho)
        # cos(-pi/2) only rounds to ~6e-17; force the frozen region to be
        # exactly constant so its gradients vanish identically
        s = np.where(inside, np.sin(f), -1.0)
        c = np.where(inside, np.cos(f), 0.0)
        r = np.sqrt(u)
        small = r < 1e-30
        inv_r = np.where(small, 0.0, 1.0 / np.where(small, 1.0, r))
        return x, y, u, fu, s, c, inv_r

    def d_field(z):
        x, y, u, fu, s, c, inv_r = primitive(z)
        dp = np.stack([c * x * inv_r, c * y * inv_r,
                       s + epsilon], axis=-1)
        return dp / np.linalg.norm(dp, axis=-1, keepdims=True)

    def d_gradient(z):
        x, y, u, fu, s, c, inv_r = primitive(z)
        inv_r3 = inv_r ** 3
        dp = np.stack([c * x * inv_r, c * y * inv_r, s + epsilon], axis=-1)
        gx = np.stack([
            -2 * s * fu * x * x * inv_r + c * y * y * inv_r3,
            -2 * s * fu * x * y * inv_r - c * x * y * inv_r3,
            2 * c * fu * x], axis=-1)
        gy = np.stack([
            -2 * s * fu * x * y * inv_r - c * x * y * inv_r3,
            -2 * s * fu * y * y * inv_r + c * x * x * inv_r3,
            2 * c * fu * y], axis=-1)
        n = np.linalg.norm(dp, axis=-1, keepdims=True)
        dh = dp / n
        # chain rule through the normalization: project out the radial part
        gx = (gx - dh * np.sum(dh * gx, axis=-1, keepdims=True)) / n
        gy = (gy - dh * np.sum(dh * gy, axis=-1, keepdims=True)) / n
        return np.stack([gx, gy], axis=-2)

    return ParentHamiltonian(
        "bolza_qubit", "bolza", 2, d_field=d_field, d_gradient=d_gradient,
        compact_support=rho, params={"epsilon": epsilon, "rho": rho})


# ---------------------------------------------------------------------------
# built-in models on the flat manifolds


def klein_qubit(m):
    """Klein-bottle qubit, y-mirror symmetric: sigma_z H(x,-y) sigma_z = H.

    d = (sin x sin y, cos x sin 2y, m - cos x + 2 cos 2y).  Fully gapped for
    generic m; the gap closes at m = 1 (at theta = (pi, -pi/2)) and m = 3
    (at (0, -pi/2)), the transitions between the |D_y| = pi, pi/2, 0 phases.
    """

    def d_field(theta):
        th = np.asarray(theta, dtype=float)
        x, y = th[..., 0], th[..., 1]
        return np.stack([np.sin(x) * np.sin(y), np.cos(x) * np.sin(2 * y),
                         m - np.cos(x) + 2 * np.cos(2 * y)], axis=-1)

    def d_gradient(theta):
        th = np.asarray(theta, dtype=float)
        x, y = th[..., 0], th[..., 1]
        gx = np.stack([np.cos(x) * np.sin(y), -np.sin(x) * np.sin(2 * y),
                       np.sin(x)], axis=-1)
        gy = np.stack([np.sin(x) * np.cos(y), 2 * np.cos(x) * np.cos(2 * y),
                       -4 * np.sin(2 * y)], axis=-1)
        return np.stack([gx, gy], axis=-2)

    return ParentHamiltonian("klein_qubit", "klein", 2, d_field=d_field,
                             d_gradient=d_gradient, params={"m": m})


def rp2_qubit(m):
    """Projective-plane qubit with the quarter-turn S symmetry.

    d = (sin x sin 2y, sin 2x sin y, m + cos 2x + cos 2y) satisfies
    H(x, y) = U^dagger H(y, -x+pi) U for U = exp(-i pi sigma_z / 4), the
    quarter rotation about z with U^4 = -I.  The gap closes at m = 0 and
    |m| = 2.
    """

    def d_field(theta):
        th = np.asarray(theta, dtype=float)
        x, y = th[..., 0], th[..., 1]
        return np.stack([np.sin(x) * np.sin(2 * y), np.sin(2 * x) * np.sin(y),
                         m + np.cos(2 * x) + np.cos(2 * y)], axis=-1)

    def d_gradient(theta):
        th = np.asarray(theta, dtype=float)
        x, y = th[..., 0], th[..., 1]
        gx = np.stack([np.cos(x) * np.sin(2 * y),
                       2 * np.cos(2 * x) * np.sin(y),
                       -2 * np.sin(2 * x)], axis=-1)
        gy = np.stack([2 * np.sin(x) * np.cos(2 * y),
                       np.sin(2 * x) * np.cos(y),
                       -2 * np.sin(2 * y)], axis=-1)
        return np.stack([gx, gy], axis=-2)

    return ParentHamiltonian("rp2_qubit", "rp2", 2, d_field=d_field,
                             d_gradient=d_gradient, params={"m": m})


BUILTIN_MODELS = {
    "bolza_qubit": bolza_qubit,
    "klein_qubit": klein_qubit,
    "rp2_qubit": rp2_qubit,
}


# ---------------------------------------------------------------------------
# eigensystems

BandSystem = namedtuple("BandSystem", ["energies", "states"])


def _pin_gauge(v):
    # rotate each eigenvector so its largest-magnitude component is real
    # positive; argmax takes the lowest index on ties.  A unit vector always
    # has a component of magnitude >= 1/sqrt(D), so the choice is total.
    lead = np.take_along_axis(
        v, np.argmax(np.abs(v), axis=-2)[..., None, :], axis=-2)
    phase = lead / np.abs(lead)
    return v * phase.conj()


def eigensystem(H):
    """Ascending eigensystem of one Hermitian matrix in the pinned gauge.

    Returns BandSystem(energies (D,), states (D, D)); states[:, n] is the
    n-th band.  Non-Hermitian input raises ValidationError.
    """
    H = np.asarray(H, dtype=complex)
    _check_hermitian(H)
    w, v = np.linalg.eigh(H)
    return BandSystem(w, _pin_gauge(v))


def eig_many(H):
    """Batched eigensystem: energies (N, D), states (N, D, D)."""
    H = np.asarray(H, dtype=complex)
    _check_hermitian(H)
    w, v = np.linalg.eigh(H)
    return BandSystem(w, _pin_gauge(v))


# ---------------------------------------------------------------------------
# gap scans

def band_gap(energies, band):
    """Smallest gap from `band` to any other band over a stack of spectra.

    energies is (N, D), ascending along each row as eigh returns it, so the
    adjacent bands are the nearest ones.  Returns (gap, sample index,
    nearest band); callers compare the gap with their threshold.
    """
    best = (math.inf, 0, band)
    for b in (band - 1, band + 1):
        if 0 <= b < energies.shape[1]:
            gaps = np.abs(energies[:, band] - energies[:, b])
            k = int(np.argmin(gaps))
            if math.isnan(gaps[k]) or gaps[k] < best[0]:
                best = (float(gaps[k]), k, b)
    return best


def require_gap(gap, threshold, where):
    """Raise DegeneracyError unless gap > threshold, so a NaN gap fails too.

    where names the gap in the message, e.g. "bands (1,0) at sample 12".
    """
    if not gap > threshold:
        raise DegeneracyError(
            f"{where}: gap {gap:.2e} is not above the threshold {threshold:g}")


@dataclass
class GapReport:
    """Adjacent-band gap minima over a sampling grid."""
    min_gaps: np.ndarray
    threshold: float
    fully_gapped: bool

    def __str__(self):
        pairs = ", ".join(
            f"gap({n},{n + 1}) = {g:.6g}" for n, g in enumerate(self.min_gaps))
        verdict = "fully gapped" if self.fully_gapped else "NOT fully gapped"
        return f"{pairs}; {verdict} at threshold {self.threshold:g}"


def _nodes(manifold, xs, ys):
    """Chart points of the node grid xs x ys, row-major: complex x + iy on
    the Bolza disk, (theta_x, theta_y) pairs on a flat manifold."""
    if manifold == "bolza":
        return (xs[:, None] + 1j * ys[None, :]).ravel()
    return np.stack(np.meshgrid(xs, ys, indexing="ij"),
                    axis=-1).reshape(-1, 2)


def _box_grid(manifold, nx, ny):
    # nx x ny nodes over a flat manifold's FLAT_DOMAINS box, edges included
    (x_lo, x_hi), (y_lo, y_hi) = FLAT_DOMAINS[manifold]
    return _nodes(manifold, np.linspace(x_lo, x_hi, nx),
                  np.linspace(y_lo, y_hi, ny))


def _gap_grid(manifold):
    # odd point counts so the symmetric critical points (0, -pi/2), (pi/2,
    # pi/2), ... land exactly on a node
    nx, ny = {"bolza": (81, 81), "torus": (129, 129),
              "klein": (129, 65), "rp2": (65, 65)}[manifold]
    if manifold == "bolza":
        xs = np.linspace(-0.84, 0.84, nx)
        z = _nodes(manifold, xs, np.linspace(-0.84, 0.84, ny))
        return z[np.abs(z) <= 0.84]
    return _box_grid(manifold, nx, ny)


def adjacent_gaps(model, pts):
    """Gaps between adjacent bands at an array of points, shape (N, D - 1).

    A two-level model with a Bloch field has the single gap 2|d|; any other
    model is diagonalized.
    """
    if model.has_d_field:
        return 2.0 * np.linalg.norm(model.d_field(pts), axis=-1)[:, None]
    return np.diff(eig_many(model.evaluate_many(pts)).energies, axis=-1)


def gap_report(model, threshold=GAP_THRESHOLD):
    """Scan adjacent-band gaps of a model over its manifold's gap grid.

    The response and topology routines pass the smallest of min_gaps to
    require_gap before trusting adiabatic band data.
    """
    gaps = adjacent_gaps(model, _gap_grid(model.manifold))
    k = np.argmin(gaps, axis=0)
    return GapReport(
        min_gaps=gaps[k, np.arange(gaps.shape[1])],
        threshold=threshold,
        fully_gapped=bool(np.all(gaps.min(axis=0) > threshold)))


# ---------------------------------------------------------------------------
# symmetry residuals (preconditions for the quantized invariants)

def mirror_symmetry_residual(model):
    """Max-norm residual of sigma_z H(x, -y) sigma_z - H(x, y) over a 64 x 33
    grid, and the theta where it occurs.

    Vanishing residual is the y-mirror symmetry that quantizes the dipolar
    response on the Klein bottle.
    """
    pts = _box_grid("klein", 64, 33)
    H = model.evaluate_many(pts)
    Hm = model.evaluate_many(pts * (1.0, -1.0))
    # sigma_z is diagonal: (sigma_z Hm sigma_z)_ij = z_i z_j Hm_ij
    res = np.abs(Hm * np.array([[1.0, -1.0], [-1.0, 1.0]]) - H).max(
        axis=(-1, -2))
    k = int(np.argmax(res))
    return res[k], pts[k]


def s_symmetry_residual(model):
    """Max-norm residual of U^dagger H(y, -x+pi) U - H(x, y) over a 64 x 64
    grid, and the theta where it occurs.

    U is the quarter turn exp(-i pi sigma_z / 4), which rotates the in-plane
    Pauli components by -pi/2 to match the quarter rotation of the base
    point; U^4 = -I.  Vanishing residual quantizes the quadrupolar response
    on the projective plane.
    """
    u = np.array([np.exp(-1j * math.pi / 4), np.exp(1j * math.pi / 4)])
    pts = _box_grid("rp2", 64, 64)
    turned = np.stack([pts[:, 1], -pts[:, 0] + math.pi], axis=-1)
    H = model.evaluate_many(pts)
    Ht = model.evaluate_many(turned)
    # U = diag(u): (U^dagger Ht U)_ij = conj(u_i) u_j Ht_ij
    res = np.abs(Ht * np.outer(u.conj(), u) - H).max(axis=(-1, -2))
    k = int(np.argmax(res))
    return res[k], pts[k]

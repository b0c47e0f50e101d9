"""Static topological invariants from Berry curvature fields.

Two curvature discretizations with one fixed sign convention: the
gauge-invariant plaquette (link-variable) phase of an eigenvector grid, and
the same plaquette phase of a two-level band read off its unit Bloch vectors
as -s/2 times the solid angle of each plaquette's dhat quadrilateral.  Both
converge at second order to the analytic two-level curvature
Omega = s (1/2) dhat . (d1 dhat x d2 dhat).  The band sign s (+1 upper, -1
lower for a qubit) is anchored so that the upper band of the meron model at
epsilon = 0.5 integrates to Chern number +1; the same convention then feeds
the dipolar and quadrupolar moments, so their signs are not free.

The invariants take the solid-angle route for models with a Bloch field
(no eigensolve, no gauge) and the eigenvector route otherwise; the
eigenvector plaquette stays the reference the two are checked against.
Invariants are midpoint-rule sums of plaquette phases times coordinate
weights (1, theta_y, theta_x theta_y), reported next to their nearest
quantized value, the grid's smallest band gap and its smallest link
overlap |<psi_i|psi_j>|.

An invariant computes its grid in strips of plaquette rows, about
evolution._CHUNK nodes each: a strip's node points are built from the grid
axes, together with the node row that bounds it (node row 0 for the last
strip of the Klein grid, whose x axis wraps), then go through either route
to phases written into one preallocated plaquette array.  Gap and overlap
minima are carried across strips and checked once the grid is done, so the
errors name the whole grid's minima.  Besides its two axes an invariant
thus holds its omega, 8 bytes per plaquette, and one strip's temporaries;
no array of the whole node grid is built.  Every node and plaquette value
is computed as the one-shot curvature_solid_angle or curvature_plaquette
of the whole grid computes it, so omega is the same to the bit.
"""

import math

from dataclasses import dataclass

import numpy as np

from . import ResolutionError, ValidationError
from .evolution import _CHUNK
from .models import (GAP_THRESHOLD, _nodes, band_gap, eig_many, gap_report,
                     mirror_symmetry_residual, require_gap,
                     s_symmetry_residual)
from .trajectories import FLAT_DOMAINS

SYMMETRY_TOL = 1e-8
OVERLAP_FLOOR = 1e-6


@dataclass
class BerryField:
    """Plaquette Berry curvature on a rectangular grid.

    omega[i, j] is the curvature at the plaquette center (x1[i], x2[j]) in
    1/area units of the chart coordinates; omega * spacing-area is the loop
    phase.
    """
    x1: np.ndarray
    x2: np.ndarray
    omega: np.ndarray
    spacing: tuple
    band: int

    def integral(self):
        return self.omega.sum() * self.spacing[0] * self.spacing[1]


def curvature_plaquette(states, spacing, origin=(0.0, 0.0), band=0,
                        wrap_x=False):
    """Gauge-invariant plaquette curvature from an eigenvector grid.

    Parameters
    ----------
    states : (n1, n2, D) complex array, one normalized eigenvector per node
    spacing : (h1, h2) node steps
    wrap_x : close the grid periodically along the first axis (the last
        node row then links back to the first, giving n1 instead of n1-1
        plaquettes along it)

    Each plaquette phase is -Im log of the counter-oriented Wilson loop
    (i,j) -> (i,j+1) -> (i+1,j+1) -> (i+1,j) -> (i,j) of normalized overlap
    links; omega is phase / plaquette area.  Any per-node rephasing cancels
    inside the loop, so the output is gauge-invariant to rounding.
    """
    psi = np.asarray(states, dtype=complex)
    if psi.ndim != 3:
        raise ValidationError("curvature_plaquette: states must be (n1, n2, D)")
    if wrap_x:
        psi = np.concatenate([psi, psi[:1]], axis=0)
    phases, small = _loop_phases(psi)
    _checked_overlap(small, dots=False)
    return _plaquette_field(phases, spacing, origin, band)


def _loop_phases(psi):
    """Wilson-loop phases of a (m + 1, k, D) block of node states: the
    (m, k - 1) plaquette phases and the smallest link overlap."""
    u1 = np.einsum("xyi,xyi->xy", psi[:-1].conj(), psi[1:])
    u2 = np.einsum("xyi,xyi->xy", psi[:, :-1].conj(), psi[:, 1:])
    small = np.minimum(np.abs(u1).min(), np.abs(u2).min())
    loop = (u2[:-1, :] * u1[:, 1:]
            * np.conj(u2[1:, :]) * np.conj(u1[:, :-1]))
    # a zero loop has a zero link, which the overlap check then rejects
    with np.errstate(divide="ignore"):
        return -np.log(loop).imag, small


def _checked_overlap(smallest, dots):
    """The smallest link overlap |<psi_i|psi_j>| of a grid, from its smallest
    overlap or, with dots, from its smallest dhat_i . dhat_j, whose overlap
    is sqrt((1 + dhat_i . dhat_j) / 2).  Raises ResolutionError below
    OVERLAP_FLOOR or at a NaN, which a NaN node state leaves in its links."""
    if dots:
        small = 1.0 + smallest
        low = not small >= 2 * OVERLAP_FLOOR ** 2
        smallest = math.sqrt(max(small, 0.0) / 2)
    else:
        low = not smallest >= OVERLAP_FLOOR
    if low:
        raise ResolutionError(
            f"plaquette link overlap {smallest:.2e} below {OVERLAP_FLOOR:g}; "
            "grid too coarse near a near-degeneracy")
    return float(smallest)


def _plaquette_field(phases, spacing, origin, band):
    # phases become omega in place: an invariant holds one plaquette array
    h1, h2 = spacing
    x1 = origin[0] + h1 * (0.5 + np.arange(phases.shape[0]))
    x2 = origin[1] + h2 * (0.5 + np.arange(phases.shape[1]))
    phases /= h1 * h2
    return BerryField(x1, x2, phases, (h1, h2), band)


def _dot(a, b):
    return np.einsum("...k,...k->...", a, b)


def _triple(a, b, c):
    # a . (b x c)
    return (a[..., 0] * (b[..., 1] * c[..., 2] - b[..., 2] * c[..., 1])
            + a[..., 1] * (b[..., 2] * c[..., 0] - b[..., 0] * c[..., 2])
            + a[..., 2] * (b[..., 0] * c[..., 1] - b[..., 1] * c[..., 0]))


def curvature_solid_angle(dhat, spacing, origin=(0.0, 0.0), band=1,
                          wrap_x=False):
    """Plaquette curvature of a two-level band from its unit Bloch vectors.

    Parameters
    ----------
    dhat : (n1, n2, 3) array of unit vectors d / |d|, one per node
    spacing : (h1, h2) node steps
    band : 1 (upper, the state along dhat) or 0 (lower, along -dhat)
    wrap_x : close the grid periodically along the first axis

    The plaquette a = (i,j), b = (i,j+1), c = (i+1,j+1), d = (i+1,j) has
    Berry phase -s/2 Omega, Omega the solid angle of the dhat quadrilateral
    a b c d, so this is the phase curvature_plaquette gives for the band's
    eigenvectors.  Omega is the sum of the triangles (a,b,c) and (a,c,d),
    each from tan(Omega/2) = a.(b x c) / (1 + a.b + b.c + c.a) (Van
    Oosterom and Strackee); the phase is taken modulo 2 pi into [-pi, pi],
    as -Im log takes that of the Wilson loop.  Link overlaps
    |<psi_i|psi_j>|^2 = (1 + dhat_i . dhat_j) / 2 are checked against
    OVERLAP_FLOOR.
    """
    n = np.asarray(dhat, dtype=float)
    if n.ndim != 3 or n.shape[-1] != 3:
        raise ValidationError("curvature_solid_angle: field must be "
                              "(n1, n2, 3)")
    if np.abs(np.linalg.norm(n, axis=-1) - 1.0).max() > 1e-6:
        raise ValidationError("curvature_solid_angle: field is not "
                              "unit-normalized")
    if band not in (0, 1):
        raise ValidationError("curvature_solid_angle: band must be 0 or 1")
    if wrap_x:
        n = np.concatenate([n, n[:1]], axis=0)
    phases, small = _solid_angle_phases(n, band)
    _checked_overlap(small, dots=True)
    return _plaquette_field(phases, spacing, origin, band)


def _solid_angle_phases(n, band):
    """Solid-angle phases of a (m + 1, k, 3) block of unit Bloch vectors:
    the (m, k - 1) plaquette phases and the smallest dhat_i . dhat_j."""
    link1 = _dot(n[:-1], n[1:])        # (i,j) - (i+1,j)
    link2 = _dot(n[:, :-1], n[:, 1:])  # (i,j) - (i,j+1)
    # tan(Omega_abc / 2) and tan(Omega_acd / 2) as the arguments of two
    # complex numbers; their product carries the quadrilateral, wrapped
    a, b, c, d = n[:-1, :-1], n[:-1, 1:], n[1:, 1:], n[1:, :-1]
    ac = _dot(a, c)
    x1 = 1.0 + link2[:-1] + link1[:, 1:] + ac
    x2 = 1.0 + ac + link2[1:] + link1[:, :-1]
    y1, y2 = _triple(a, b, c), _triple(a, c, d)
    omega_half = np.arctan2(x1 * y2 + y1 * x2, x1 * x2 - y1 * y2)
    return (-omega_half if band == 1 else omega_half,
            np.minimum(link1.min(), link2.min()))


@dataclass
class InvariantResult:
    """A real-valued invariant next to its nearest quantized value.

    min_gap and min_overlap are the smallest band gap and the smallest link
    overlap |<psi_i|psi_j>| over the invariant's node grid.
    """
    value: float
    quantization_unit: float
    nearest_quantum: float
    residue: float
    grid_shape: tuple
    min_gap: float
    min_overlap: float

    @classmethod
    def quantize(cls, value, unit, grid_shape, min_gap, min_overlap):
        nearest = unit * round(value / unit) if unit else 0.0
        return cls(value, unit, nearest, abs(value - nearest), grid_shape,
                   min_gap, min_overlap)

    def __str__(self):
        return (f"{self.value:.8f} (nearest quantum {self.nearest_quantum:g}"
                f" in units of {self.quantization_unit:g}, residue"
                f" {self.residue:.2e})")


def _band_field(model, x1, x2, band, threshold, spacing, origin,
                wrap_x=False):
    """Plaquette curvature of one band over the node grid x1 x x2.

    Returns the BerryField with the grid's smallest band gap and smallest
    link overlap.  A two-level model with a Bloch field takes the
    solid-angle route, whose gap is 2 min |d|; any other model is
    diagonalized at every node.  The grid goes in strips of about _CHUNK
    nodes; wrap_x links the last node row back to the first.
    """
    if band < 0 or band >= model.dim:
        raise ValidationError(f"band index {band} out of range")
    if wrap_x:
        x1 = np.append(x1, x1[:1])
    rows, cols = len(x1) - 1, len(x2)
    step = max(1, _CHUNK // cols)
    phases = np.empty((rows, cols - 1))
    gap = smallest = math.inf
    for lo in range(0, rows, step):
        hi = min(lo + step, rows)
        pts = _nodes(model.manifold, x1[lo:hi + 1], x2)
        if model.has_d_field:
            d = model.d_field(pts)
            r = np.linalg.norm(d, axis=-1)
            gap = np.minimum(gap, 2.0 * r.min())
        else:
            energies, vecs = eig_many(model.evaluate_many(pts))
            gap = np.minimum(gap, band_gap(energies, band)[0])
        if not gap > threshold:
            continue  # the gap error follows the loop; no phase is needed
        if model.has_d_field:
            # inf / inf is a NaN node, which the overlap check rejects
            with np.errstate(invalid="ignore"):
                block, small = _solid_angle_phases(
                    (d / r[:, None]).reshape(hi - lo + 1, cols, 3), band)
        else:
            block, small = _loop_phases(
                vecs[:, :, band].reshape(hi - lo + 1, cols, model.dim))
        phases[lo:hi] = block
        smallest = np.minimum(smallest, small)
    require_gap(gap, threshold, f"band {band} on the invariant grid")
    overlap = _checked_overlap(smallest, dots=model.has_d_field)
    return (_plaquette_field(phases, spacing, origin, band), float(gap),
            overlap)


def check_radius(model, radius):
    """Raise ValidationError unless chern_bolza can integrate the model's
    band over the disk of this radius: the model must declare a compact
    support, and the radius must exceed it."""
    if model.compact_support is None:
        raise ValidationError(
            "chern_bolza supports only compact-texture models (constant "
            "field outside a known radius); general octagon-periodic "
            "textures are not supported")
    if radius <= model.compact_support:
        raise ValidationError(
            f"integration radius {radius} must exceed the texture support "
            f"{model.compact_support}", param="radius")


def chern_bolza(model, band=1, resolution=200, radius=0.62,
                gap_threshold=GAP_THRESHOLD, with_field=False):
    """First Chern number of a compact-texture disk model band.

    Integrates the plaquette curvature over a Cartesian grid on
    [-radius, radius]^2, keeping plaquettes whose centers lie inside
    |z| <= radius, divided by 2 pi.  For a texture constant outside the
    bump this equals the full-surface integral, because the curvature
    vanishes on the constant region; models without a declared compact
    support radius are rejected (stitching plaquettes across the octagon
    identifications is out of scope).  with_field additionally returns
    the BerryField the number was integrated from.
    """
    if model.manifold != "bolza":
        raise ValidationError("chern_bolza expects a disk model")
    check_radius(model, radius)
    report = gap_report(model, threshold=gap_threshold)
    require_gap(report.min_gaps.min(), gap_threshold,
                f"gap scan of {model.name} ({report})")
    nodes = np.linspace(-radius, radius, resolution + 1)
    h = nodes[1] - nodes[0]
    field, gap, overlap = _band_field(model, nodes, nodes, band,
                                      gap_threshold, (h, h),
                                      (-radius, -radius))
    mask = (field.x1[:, None] ** 2 + field.x2[None, :] ** 2) <= radius ** 2
    total = (field.omega * mask).sum() * h * h / (2 * math.pi)
    result = InvariantResult.quantize(total, 1.0, (resolution, resolution),
                                      gap, overlap)
    return (result, field) if with_field else result


def dipolar_chern(model, band=1, resolution=(400, 200),
                  gap_threshold=GAP_THRESHOLD, with_field=False):
    """Dipolar Chern number D_y on the Klein bottle.

    D_y = (1/2 pi) integral of theta_y Omega over [-pi, pi] x [-pi, 0],
    computed as plaquette phases weighted by the plaquette-center theta_y.
    The x direction wraps (theta_x is 2 pi periodic on the Klein bottle);
    the y direction does not.  Quantized in units of pi/2 when the y-mirror
    symmetry holds, which is checked first.
    """
    if model.manifold != "klein":
        raise ValidationError("dipolar_chern expects a Klein-bottle model")
    res, worst = mirror_symmetry_residual(model)
    if not res <= SYMMETRY_TOL:
        raise ValidationError(
            f"y-mirror symmetry violated: residual {res:.2e} at theta = "
            f"({worst[0]:.4f}, {worst[1]:.4f})")
    nx, ny = resolution
    (x_lo, x_hi), (y_lo, y_hi) = FLAT_DOMAINS["klein"]
    hx, hy = (x_hi - x_lo) / nx, (y_hi - y_lo) / ny
    xs = x_lo + hx * np.arange(nx)
    ys = np.linspace(y_lo, y_hi, ny + 1)
    field, gap, overlap = _band_field(model, xs, ys, band, gap_threshold,
                                      (hx, hy), (x_lo, y_lo), wrap_x=True)
    # each row's weighted sum is a contiguous dot product; no array the size
    # of omega is made
    value = hx * hy * (field.omega @ field.x2).sum() / (2 * math.pi)
    result = InvariantResult.quantize(value, math.pi / 2, (nx, ny), gap,
                                      overlap)
    return (result, field) if with_field else result


def quadrupole_chern(model, band=1, resolution=(200, 200),
                     gap_threshold=GAP_THRESHOLD, with_field=False):
    """Quadrupolar Chern number Q_xy on the projective plane.

    Q_xy = (1/pi) integral of theta_x theta_y Omega over [0, pi]^2 via
    center-weighted plaquette phases, no wrapping.  Reported against the
    unit pi^2/2, the spacing between the two values the symmetric model
    realizes; the residue makes any finer quantization visible.
    """
    if model.manifold != "rp2":
        raise ValidationError("quadrupole_chern expects a projective-plane "
                              "model")
    res, worst = s_symmetry_residual(model)
    if not res <= SYMMETRY_TOL:
        raise ValidationError(
            f"S symmetry violated: residual {res:.2e} at theta = "
            f"({worst[0]:.4f}, {worst[1]:.4f})")
    nx, ny = resolution
    (x_lo, x_hi), (y_lo, y_hi) = FLAT_DOMAINS["rp2"]
    hx, hy = (x_hi - x_lo) / nx, (y_hi - y_lo) / ny
    xs = np.linspace(x_lo, x_hi, nx + 1)
    ys = np.linspace(y_lo, y_hi, ny + 1)
    field, gap, overlap = _band_field(model, xs, ys, band, gap_threshold,
                                      (hx, hy), (x_lo, y_lo))
    value = hx * hy * (field.x1 @ (field.omega @ field.x2)) / math.pi
    result = InvariantResult.quantize(value, math.pi ** 2 / 2, (nx, ny),
                                      gap, overlap)
    return (result, field) if with_field else result

"""Classical geodesic flows on the four drive manifolds.

Bolza-surface geodesics are propagated with exact closed-form segments:
the unit-speed geodesic through the origin is z(s) = n tanh(s/2) with
momentum covector p(s) = n (1 + cosh s), and an SU(1,1) word accumulated
from the side pairings keeps every sample inside the closed fundamental
octagon.  Each boundary-crossing time is a root of a real quadratic, one
per octagon arc, so nothing is solved iteratively.  The word's entries
grow like e^{s/2} and the flow amplifies errors like e^{s}, so a
speed-lambda run over horizon T needs roughly 0.434*lambda*T decimal
digits of headroom.  Only the word and one anchor per crossing run at that
precision, and they run on fixed-point Python integers, the number layer
mpmath itself is built on; mpmath builds the side pairings, the initial
frame and E = exp(ds/2) once, and the closed form.  Every other
exponential of a run is an integer power of E: the translation of each
anchor comes from E^k, and the sample table holds E^j and E^-j.  The
anchor M = (a, b) (the word composed with the translation to the
segment's first sample) has O(1) entries, and sample j of its segment is
(alpha E^j + beta E^-j) / (conj(alpha) E^j - conj(beta) E^-j) with
alpha = a + b and beta = b - a.  A walk over the crossings tests
membership on plain-double samples from alpha and beta rounded to double,
and decides the rare sample within 1e-13 of a slack circle in
double-double.  One pass over the output then evaluates every sample from
alpha and beta rounded to double-double and rounds it once, to the
correctly rounded closed-form value.  A copy of the word at 20 more digits
certifies the precision at every anchor.

A high-order Taylor-series integrator for the cogeodesic ODE is kept as
an independent oracle.  It evolves v = 1 - |z|^2 as a third dynamical
variable: recovering v from z by subtraction near the disk boundary
cancels catastrophically, while the evolved v stays fully accurate, which
is what makes long-horizon energy-drift checks meaningful.

Flat-manifold geodesics (torus, Klein bottle, real projective plane) use
the wrapped closed formulas directly.  FLAT_DOMAINS is the one table of
their fundamental boxes: starts are checked against it, and the gap grids,
symmetry residuals, invariant grids and default drive starts downstream
read it.  FlatTrajectory.velocities is the one statement of the sign rule
of the wrapped velocities.  Lift-and-project companions apply the deck
transformations literally, with boxes of their own, and serve as
independent oracles for the closed formulas.
"""

import functools
import math
import time
from collections import namedtuple
from dataclasses import dataclass, field, replace

import mpmath as mp
import numpy as np
from mpmath.libmp import dps_to_prec, mpf_exp, to_fixed

from . import PropagationError, ValidationError
from .hyperbolic import (WORD_ORDER, MobiusMap, _rounded, bolza_group,
                         kinetic_energy)

TWO_PI = 2 * math.pi

MANIFOLDS = ("bolza", "torus", "klein", "rp2")

# ((x_lo, x_hi), (y_lo, y_hi)) of each flat manifold's fundamental box.  The
# torus box is the one its gap grid scans; torus starts are not checked
# against it, since any start wraps
FLAT_DOMAINS = {
    "torus": ((-math.pi, math.pi), (-math.pi, math.pi)),
    "klein": ((-math.pi, math.pi), (-math.pi, 0.0)),
    "rp2": ((0.0, math.pi), (0.0, math.pi)),
}

# --------------------------------------------------------------------------
# precision rule


def default_digits(arc_length):
    """Working decimal digits for a Bolza run of the given total arc length.

    max(50, ceil(0.434*arc) + 30): the flow amplifies errors like e^{s},
    i.e. 0.434 digits per unit arc length, plus a 30-digit margin.
    """
    return max(50, math.ceil(0.434 * arc_length) + 30)


# --------------------------------------------------------------------------
# specs and containers


@dataclass
class GeodesicSpec:
    """Parameters of one classical run.

    Bolza runs read z0 (complex, in the closed fundamental domain),
    direction (angle in radians, or a complex number whose argument is
    used), speed (lambda) and optionally digits.  Flat runs read theta0
    and omega.  Samples are taken at t_k = k*dt for k = 0..round(T/dt).
    """

    manifold: str
    T: float
    dt: float
    z0: complex = 0j
    direction: float = 0.0
    speed: float = 1.0
    theta0: tuple = (0.0, 0.0)
    omega: tuple = (1.0, 1.0)
    digits: int | None = None

    def __post_init__(self):
        if self.manifold not in MANIFOLDS:
            raise ValidationError(f"unknown manifold {self.manifold!r}")
        for name in ("T", "dt", "z0", "direction", "speed", "theta0", "omega"):
            if not np.isfinite(np.asarray(getattr(self, name),
                                          dtype=complex)).all():
                raise ValidationError(f"{name} must be finite", param=name)
        self.direction = _angle(self.direction)
        if self.dt <= 0:
            raise ValidationError("dt must be positive")
        if self.T < 0:
            raise ValidationError("horizon T must be nonnegative")
        if self.manifold == "bolza":
            if self.speed <= 0:
                raise ValidationError("speed must be positive")
            self.z0 = complex(self.z0)
            if abs(self.z0) >= 1:
                raise ValidationError("z0 must lie inside the unit disk",
                                      param="z0")
            from .hyperbolic import in_fundamental_domain

            if not in_fundamental_domain(self.z0):
                raise ValidationError(
                    "z0 must lie in the closed fundamental domain, the "
                    "Bolza octagon", param="z0")
        else:
            self.theta0 = (float(self.theta0[0]), float(self.theta0[1]))
            self.omega = (float(self.omega[0]), float(self.omega[1]))
            _check_domain(self.manifold, self.theta0)

    @property
    def n_steps(self):
        return int(round(self.T / self.dt))


def _check_domain(manifold, theta):
    if manifold == "torus":
        return
    (x_lo, x_hi), (y_lo, y_hi) = FLAT_DOMAINS[manifold]
    x, y = theta
    if not (x_lo <= x <= x_hi and y_lo <= y <= y_hi):
        raise ValidationError(
            f"theta0 {theta} outside the {manifold} domain "
            f"[{x_lo:g}, {x_hi:g}] x [{y_lo:g}, {y_hi:g}]", param="theta0")


CogeodesicSample = namedtuple("CogeodesicSample", "t z p v")


@dataclass
class BolzaTrajectory:
    """Reduced Bolza samples plus the book-keeping of applied translates.

    word holds the signed generator indices in order of application;
    word_len[k] says how many of them had been applied by sample k, so
    word[:word_len[k]] reproduces the chart of sample k.  crossings
    records (arc-length time, signed index) for each boundary crossing.
    stats records what the propagation did: working digits, crossings,
    anchors, vertex passages (steps needing more than one side pairing),
    the largest disagreement of the precision certificate, the membership
    tests decided in double-double (exact_membership) and the wall time in
    seconds, in all (propagate_s) and of the walk over the crossings
    (walk_s) and the evaluation of the samples (evaluate_s).
    """

    spec: GeodesicSpec
    digits: int
    t: np.ndarray
    z: np.ndarray
    p: np.ndarray
    word_len: np.ndarray
    word: list
    crossings: list
    stats: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.t)

    @property
    def manifold(self):
        return "bolza"

    def chart_map(self, k):
        """Accumulated word map at sample k (initial frame not included).

        Elements apply left-onto the running chart in time order, so as a
        single Mobius map the word reads right-to-left.
        """
        group = bolza_group(self.digits)
        return group.word_map(list(reversed(self.word[: self.word_len[k]])))

    def energies(self):
        """g^{-1}|p|^2/2 at every sample (double precision)."""
        return kinetic_energy(self.z, self.p)

    def velocities(self):
        """Cotangent lift: (dx/dt) as complex = (1-|z|^2)^2 p / 4."""
        return (1 - np.abs(self.z) ** 2) ** 2 * self.p / 4

    def subsample(self, step):
        """View with every step-th sample (used to align state grids)."""
        return _samples(self, slice(None, None, step))


@dataclass
class FlatTrajectory:
    """Sampled flat-manifold geodesic in wrapped coordinates.

    crossings holds the integer crossing numbers (n_x, n_y) per sample
    (winding numbers on the torus); velocities are reconstructed from
    them on demand rather than stored.
    """

    spec: GeodesicSpec
    t: np.ndarray
    theta: np.ndarray
    crossings: np.ndarray

    def __len__(self):
        return len(self.t)

    @property
    def manifold(self):
        return self.spec.manifold

    def velocities(self):
        """Effective (dtheta_x/dt, dtheta_y/dt) per sample.

        The x velocity flips at every y-edge crossing on the Klein bottle
        and on RP2, where the y velocity also flips at every x-edge
        crossing.
        """
        wx, wy = self.spec.omega
        n = self.crossings
        out = np.empty_like(self.theta)
        if self.manifold == "torus":
            out[:, 0] = wx
            out[:, 1] = wy
        elif self.manifold == "klein":
            # theta_x slope flips at every y-edge crossing
            out[:, 0] = -_parity(n[:, 1]) * wx
            out[:, 1] = wy
        else:  # rp2
            out[:, 0] = _parity(n[:, 1]) * wx
            out[:, 1] = _parity(n[:, 0]) * wy
        return out

    def subsample(self, step):
        return _samples(self, slice(None, None, step))


def _samples(trajectory, sl):
    """The samples sl of a trajectory, as a trajectory of array views."""
    return replace(trajectory, **{name: value[sl]
                                  for name, value in vars(trajectory).items()
                                  if isinstance(value, np.ndarray)})


def _parity(n):
    """(-1)^n for integer arrays, safe for negative n."""
    return 1 - 2 * (np.asarray(n) & 1)


# --------------------------------------------------------------------------
# closed forms on the disk


def _angle(direction):
    """Angle in radians of a direction given as one or as a nonzero complex."""
    if isinstance(direction, complex):
        if direction == 0:
            raise ValidationError(
                "direction must be a nonzero complex number or an angle")
        return math.atan2(direction.imag, direction.real)
    return direction


def _frame(z0, direction, digits):
    """The map taking the geodesic from 0 along +x to the one leaving z0 at
    angle `direction`: translation_to(z0) o rotation(direction)."""
    with mp.workdps(digits):
        return (MobiusMap.translation_to(z0, digits)
                @ MobiusMap.rotation(direction, digits))


def unit_geodesic_from_origin(direction, t, digits=None):
    """Unit-speed geodesic through 0: (n tanh(t/2), n (1 + cosh t)).

    direction may be an angle or a nonzero complex number (its phase is
    used).  Returns mpmath values at `digits`, or without digits complex
    doubles, the 15-digit values rounded once.
    """
    direction = _angle(direction)
    with mp.workdps(digits or 15):
        n = mp.exp(1j * mp.mpf(direction))
        t = mp.mpf(t)
        return _rounded(digits, n * mp.tanh(t / 2), n * (1 + mp.cosh(t)))


def bolza_closed_form(z0, direction, lam, t, digits=None):
    """Unreduced speed-lambda phase point at drive time t.

    Composes the rotation to `direction` with the translation taking the
    origin to z0 and evaluates the exact geodesic; no fundamental-domain
    reduction is applied.  This is the closed-form reference the sampled
    propagator and the ODE oracle are tested against.  Returns mpmath
    values at `digits`, or without digits complex doubles, the 15-digit
    values rounded once.
    """
    direction = _angle(direction)
    with mp.workdps(digits or 15):
        m0 = _frame(z0, direction, digits or 15)
        w = mp.tanh(mp.mpf(lam) * mp.mpf(t) / 2)
        # the speed-lam momentum at w on the geodesic from 0 along +x
        p = mp.mpf(lam) * (2 / ((1 - w) * (1 + w)))
        return _rounded(digits, m0(w), m0.push_forward(w, p))


# --------------------------------------------------------------------------
# Taylor-series cogeodesic integrator (oracle)


def integrate_cogeodesic(z0, p0, T, dt, digits=50, tol=None, order=None):
    """Integrate zdot = v^2 p/4, pdot = z v |p|^2/2, vdot = -v^2 Re(p conj(z))/2.

    Adaptive Taylor-series (jet) integration at the given precision; the
    polynomial right-hand side makes the Cauchy-product recurrences exact.
    Samples are returned at t = k*dt (plus the exact endpoint T) as
    CogeodesicSample(t, z, p, v) with mpmath values; v is the evolved
    metric complement 1-|z|^2, and energy should be read as v^2|p|^2/8.
    """
    if dt <= 0 or T < 0:
        raise ValidationError("need dt > 0 and T >= 0")
    if tol is None:
        tol = mp.mpf(10) ** (-(digits + 5))
    if order is None:
        order = max(20, math.ceil((digits + 5) * math.log(10) / 2))
    work = digits + 10
    with mp.workdps(work):
        z = mp.mpc(z0)
        p = mp.mpc(p0)
        v = 1 - abs(z) ** 2
        if v <= 0:
            raise ValidationError("initial position must lie inside the unit disk")
        tol = mp.mpf(tol)
        t_grid = [mp.mpf(k) * mp.mpf(dt) for k in range(int(T / dt + 1e-9) + 1)]
        T_mp = mp.mpf(T)
        if not t_grid or abs(t_grid[-1] - T_mp) > mp.mpf(10) ** (-work + 5):
            t_grid.append(T_mp)
        out = [CogeodesicSample(t_grid[0], z, p, v)]
        next_i = 1
        t = mp.mpf(0)
        guard = 0
        while next_i < len(t_grid):
            Z, P, V = _cogeodesic_series(z, p, v, order)
            h = _taylor_step(Z, P, V, order, tol, T_mp - t)
            # emit samples that fall inside this step
            while next_i < len(t_grid) and t_grid[next_i] <= t + h:
                tau = t_grid[next_i] - t
                out.append(
                    CogeodesicSample(
                        t_grid[next_i], _horner(Z, tau), _horner(P, tau), _horner(V, tau)
                    )
                )
                next_i += 1
            z, p, v = _horner(Z, h), _horner(P, h), _horner(V, h)
            t = t + h
            guard += 1
            if guard > 1000 * (len(t_grid) + int(T) + 10):
                raise PropagationError(f"Taylor integrator stalled near t = {float(t)}")
        return out


def _cogeodesic_series(z0, p0, v0, order):
    """Taylor coefficients of (z, p, v) to the given order at one point."""
    Z = [z0]
    P = [p0]
    V = [v0]
    q = []   # |p|^2
    w2 = []  # v^2
    zv = []  # z v
    r = []   # Re(p conj(z))
    for k in range(order):
        q.append(sum(P[j] * P[k - j].conjugate() for j in range(k + 1)).real)
        w2.append(sum(V[j] * V[k - j] for j in range(k + 1)))
        zv.append(sum(Z[j] * V[k - j] for j in range(k + 1)))
        r.append(sum(P[j] * Z[k - j].conjugate() for j in range(k + 1)).real)
        Z.append(sum(w2[j] * P[k - j] for j in range(k + 1)) / (4 * (k + 1)))
        P.append(sum(zv[j] * q[k - j] for j in range(k + 1)) / (2 * (k + 1)))
        V.append(-sum(w2[j] * r[k - j] for j in range(k + 1)) / (2 * (k + 1)))
    return Z, P, V


def _taylor_step(Z, P, V, order, tol, remaining):
    """Step size from the decay of the top two coefficient norms."""
    scale = max(mp.mpf(1), abs(Z[0]), abs(P[0]), abs(V[0]))
    h = remaining
    for k in (order - 1, order):
        m = max(abs(Z[k]), abs(P[k]), abs(V[k]))
        if m > 0:
            hk = mp.mpf(0.9) * (tol * scale / m) ** (mp.mpf(1) / k)
            h = min(h, hk)
    return h


def _horner(coeffs, tau):
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * tau + c
    return acc


def cogeodesic_energy(sample):
    """E = v^2 |p|^2 / 8 from the evolved metric complement."""
    return sample.v ** 2 * abs(sample.p) ** 2 / 8


# --------------------------------------------------------------------------
# Bolza propagation with exact segments

# samples evaluated per vectorized window, which bounds the temporaries
# whatever the length of a segment
_WINDOW = 1 << 12

# membership is tested on plain-double samples, which sit within about
# 1e-15 of the correctly rounded ones; a sample whose distance to a slack
# circle lies within _BAND of the slack radius is decided on its correctly
# rounded value instead
_BAND = 1e-13

# the certificate copy of the chart map carries this many extra digits, and
# its rounded anchors may differ from the working ones by at most _CERT_TOL
_CERT_DIGITS = 20
_CERT_TOL = 1e-13

# the sample table's powers of E = exp(ds/2) are ints at this many bits:
# E^j gathers a relative error of a few j units of 2**-_TABLE_BITS, far below
# the 2**-104 of the double-double product each entry ends in
_TABLE_BITS = 200

# guard bits of each anchor's E^k: carried over k samples, it gathers a
# relative error below 6k units of 2**-(prec + _GUARD_BITS), within the
# chart's 2**-prec for any run under 2**29 samples
_GUARD_BITS = 32

_SPLIT = 134217729.0  # 2**27 + 1, splits a double into two 26-bit halves


class _DD:
    """Double-double numbers hi + lo, about 32 digits, elementwise on arrays.

    Samples are evaluated in this precision and rounded once, so each
    stored double is the correctly rounded closed-form value, the same
    double an evaluation at the working precision gives.  Every last bit
    can matter downstream: a direction histogram, for one, has bin edges
    at multiples of pi/18, where all momenta of a radial drive can sit.
    """

    __slots__ = ("hi", "lo")

    def __init__(self, hi, lo=0.0):
        self.hi, self.lo = hi, lo

    @classmethod
    def from_fixed(cls, x, prec):
        """Round the int x scaled by 2**prec, or a list of them, to
        double-double.

        int true division is correctly rounded, and so is the remainder
        x / 2**prec - hi, computed exactly from hi = n / d.
        """
        if isinstance(x, list):
            parts = [cls.from_fixed(v, prec) for v in x]
            return cls(np.array([v.hi for v in parts]),
                       np.array([v.lo for v in parts]))
        hi = x / (1 << prec)
        n, d = hi.as_integer_ratio()
        return cls(hi, ((x * d) - (n << prec)) / (d << prec))

    def __getitem__(self, key):
        return _DD(self.hi[key], self.lo[key])

    @staticmethod
    def _norm(s, e):
        hi = s + e
        return _DD(hi, e - (hi - s))

    def __add__(self, other):
        other = other if isinstance(other, _DD) else _DD(other)
        s = self.hi + other.hi
        v = s - self.hi
        e = (self.hi - (s - v)) + (other.hi - v) + self.lo + other.lo
        return _DD._norm(s, e)

    __radd__ = __add__

    def __neg__(self):
        return _DD(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + -(other if isinstance(other, _DD) else _DD(other))

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = other if isinstance(other, _DD) else _DD(other)
        p = self.hi * other.hi
        # Dekker's exact product of the high parts
        t = _SPLIT * self.hi
        ah = t - (t - self.hi)
        t = _SPLIT * other.hi
        bh = t - (t - other.hi)
        al, bl = self.hi - ah, other.hi - bh
        e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
        return _DD._norm(p, e + (self.hi * other.lo + self.lo * other.hi))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = other if isinstance(other, _DD) else _DD(other)
        q1 = self.hi / other.hi
        r = self - other * q1
        q2 = r.hi / other.hi
        r = r - other * q2
        return _DD._norm(q1, q2) + r.hi / other.hi

    def __rtruediv__(self, other):
        return _DD(other) / self


def _fixed_exp(x, prec):
    """exp(x) of an mpmath real as an int scaled by 2**prec."""
    return int(to_fixed(mpf_exp(x._mpf_, prec), prec))


def _pow_fixed(squares, n, prec):
    """x**n of an int x scaled by 2**prec, from squares = [x, x**2, x**4,
    ...], which grows as n needs.

    Every product, the squares' included, rounds down by less than one
    unit of 2**-prec, so for x >= 1 x**n carries n times the relative error
    of x plus fewer than 2n such units.
    """
    result = 1 << prec
    for b in range(n.bit_length()):
        if b == len(squares):
            squares.append(squares[-1] * squares[-1] >> prec)
        if n >> b & 1:
            result = result * squares[b] >> prec
    return result


def _exp_table(n, half_ds):
    """u_j = exp(j ds/2) and 1/u_j for j < n, as two double-double arrays.

    With B = isqrt(n), the powers E^j of E = exp(ds/2) for j < B and E^{iB}
    are ints at _TABLE_BITS, as are their inverses, each rounded once to
    double-double; u_{iB+j} is one double-double product of the two.
    """
    B = max(1, math.isqrt(n))
    one = 1 << _TABLE_BITS
    e = _fixed_exp(half_ds, _TABLE_BITS)
    columns = []
    for step in (e, (one << _TABLE_BITS) // e):
        low, high = [one], [one]
        for _ in range(B):
            low.append(low[-1] * step >> _TABLE_BITS)
        block = low.pop()
        for _ in range(-(-n // B) - 1):
            high.append(high[-1] * block >> _TABLE_BITS)
        x, y = (_DD.from_fixed(c, _TABLE_BITS) for c in (high, low))
        t = x[:, None] * y[None, :]
        columns.append(_DD(t.hi.ravel()[:n], t.lo.ravel()[:n]))
    return columns


def _map_fixed(m, prec):
    """An mpmath MobiusMap as ints (Re a, Im a, Re b, Im b) scaled by 2**prec."""
    return tuple(int(to_fixed(x._mpf_, prec))
                 for x in (m.a.real, m.a.imag, m.b.real, m.b.imag))


def _compose_fixed(f, g, prec):
    """f after g on maps given as _map_fixed ints: 16 products, 4 shifts."""
    far, fai, fbr, fbi = f
    gar, gai, gbr, gbi = g
    # a = f.a g.a + f.b conj(g.b), b = f.a g.b + f.b conj(g.a)
    return ((far * gar - fai * gai + fbr * gbr + fbi * gbi) >> prec,
            (far * gai + fai * gar + fbi * gbr - fbr * gbi) >> prec,
            (far * gbr - fai * gbi + fbr * gar + fbi * gai) >> prec,
            (far * gbi + fai * gbr + fbi * gar - fbr * gai) >> prec)


@functools.cache
def _group_fixed(digits):
    """The eight side pairings at `digits` as _map_fixed ints."""
    prec = dps_to_prec(digits)
    return {idx: _map_fixed(g, prec) for idx, g in bolza_group(digits).items()}


class _Chart:
    """The chart map W at the working precision and at the certificate's.

    W (side pairings applied so far, times the initial frame) sends the
    unit-speed geodesic w = tanh(s/2) through the origin into the current
    chart.  The anchor at sample k is M = W o T(k ds), with T(s) the
    translation by arc s along the real axis, so sample k + j sits at
    M(tanh(j ds/2)).  M(0) is a sample inside the octagon, so M has O(1)
    entries and rounds to double-double and double without loss.

    Both copies of W are fixed-point ints (_map_fixed) at the binary
    precision of their digits; mpmath builds the frame, the side pairings
    and E = exp(ds/2) once.  T(k ds) comes from E^k, which each copy
    carries from anchor to anchor in fixed point with _GUARD_BITS more
    bits, so the certificate still compares two independent roundings.
    """

    def __init__(self, spec, digits):
        self.digits = (digits, digits + _CERT_DIGITS)
        self.precs = tuple(dps_to_prec(d) for d in self.digits)
        self.maps, self.half_ds, self.squares = [], [], []
        for d, prec in zip(self.digits, self.precs):
            self.maps.append(_map_fixed(_frame(spec.z0, spec.direction, d), prec))
            with mp.workdps(d):
                self.half_ds.append(mp.mpf(spec.speed) * mp.mpf(spec.dt) / 2)
            # E, E^2, E^4, ... for _pow_fixed
            self.squares.append([_fixed_exp(self.half_ds[-1], prec + _GUARD_BITS)])
        # E^k of the last anchor k, per copy
        self.k = 0
        self.powers = [1 << (prec + _GUARD_BITS) for prec in self.precs]
        self.anchors = 0
        self.max_diff = 0.0

    def apply(self, idx):
        """Compose the side pairing idx onto both copies of W."""
        for i, (d, prec) in enumerate(zip(self.digits, self.precs)):
            self.maps[i] = _compose_fixed(_group_fixed(d)[idx], self.maps[i], prec)

    def anchor(self, k, t):
        """Anchors at sample k: the working one as a double MobiusMap and as
        double-double parts (Re alpha, Im alpha, Re beta, Im beta) of alpha
        = a + b and beta = b - a, the certificate's as a double MobiusMap.

        Raises PropagationError when the two rounded anchors differ by more
        than _CERT_TOL: the working digits no longer carry the chart map at
        drive time t.
        """
        anchors = []
        for i, (w_map, prec) in enumerate(zip(self.maps, self.precs)):
            bits = prec + _GUARD_BITS
            self.powers[i] = (self.powers[i]
                              * _pow_fixed(self.squares[i], k - self.k, bits) >> bits)
            # T(k ds) = (cosh, sinh) of k ds/2, from E^k = exp(k ds/2)
            e = self.powers[i] >> _GUARD_BITS
            e_inv = (1 << 2 * prec) // e
            anchors.append(_compose_fixed(
                w_map, ((e + e_inv) >> 1, 0, (e - e_inv) >> 1, 0), prec))
        self.k = k
        m, m_cert = (MobiusMap(complex(ar / (1 << prec), ai / (1 << prec)),
                               complex(br / (1 << prec), bi / (1 << prec)),
                               check=False)
                     for (ar, ai, br, bi), prec in zip(anchors, self.precs))
        diff = max(abs(m.a - m_cert.a), abs(m.b - m_cert.b))
        self.anchors += 1
        self.max_diff = max(self.max_diff, diff)
        if not diff <= _CERT_TOL:
            raise PropagationError(
                f"precision certificate failed at t = {float(t)!r}: the chart map at "
                f"{self.digits[0]} digits is off by {diff:.1e} from the one at "
                f"{self.digits[1]} digits; raise digits")
        ar, ai, br, bi = anchors[0]
        return m, tuple(_DD.from_fixed(x, self.precs[0])
                        for x in (ar + br, ai + bi, br - ar, bi - ai)), m_cert


def _segment_samples(ab_dd, u, v, lam):
    """Positions (alpha u + beta v)/(conj(alpha) u - conj(beta) v) and
    momenta lam/2 conj(conj(alpha) u - conj(beta) v)^2, rounded once.

    With u = exp(j ds/2) and v = 1/u this is M(tanh(j ds/2)) and its
    momentum for the anchor M = (a, b), alpha = a + b and beta = b - a.
    ab_dd holds the double-double parts (Re alpha, Im alpha, Re beta,
    Im beta), each a scalar or one entry per sample; u and v are
    double-double arrays.
    """
    alpha_r, alpha_i, beta_r, beta_i = ab_dd
    x, y = alpha_r * u, beta_r * v
    dr, nr = x - y, x + y
    x, y = alpha_i * u, beta_i * v
    di, ni = y - x, x + y
    dr2, di2 = dr * dr, di * di
    norm = dr2 + di2
    z_re = (nr * dr + ni * di) / norm
    z_im = (ni * dr - nr * di) / norm
    p_re = (dr2 - di2) * (lam / 2)
    p_im = (dr * di) * -lam
    return z_re.hi + 1j * z_im.hi, p_re.hi + 1j * p_im.hi


def _plain_samples(ab_dd, u, v):
    """_segment_samples' positions in plain doubles, from the high parts of
    alpha, beta and the table entries u and v."""
    alpha_r, alpha_i, beta_r, beta_i = (x.hi for x in ab_dd)
    alpha, beta = complex(alpha_r, alpha_i), complex(beta_r, beta_i)
    return (alpha * u.hi + beta * v.hi) / (alpha.conjugate() * u.hi
                                           - beta.conjugate() * v.hi)


def _membership(ab_dd, u, v, j0, j1, lam, octagon):
    """Samples j0 <= j <= j1 of a segment and which of them are outside.

    The positions are plain doubles (_plain_samples).  Those within _BAND
    of a slack circle, up to the first sample that is outside beyond doubt,
    are replaced by their correctly rounded values, so every decision is
    the one the stored samples give.  Returns (z, outside, number
    replaced).
    """
    window = slice(j0, j1 + 1)
    z = _plain_samples(ab_dd, u[window], v[window])
    d = octagon.distances(z)
    out = octagon.outside(d).any(axis=0)
    near = (np.abs(d - (octagon.r - 1e-12)) < _BAND).any(axis=0)
    sure = np.flatnonzero(out & ~near)
    i = np.flatnonzero(near[:sure[0] if len(sure) else len(z)])
    if len(i):
        z[i] = _segment_samples(ab_dd, u[j0 + i], v[j0 + i], lam)[0]
        out[i] = ~octagon.contains(z[i])
    return z, out, len(i)


def _entry_params(m, octagon):
    """Parameter w in (-1, 1) at which w -> M(w) enters each arc disk.

    |M(w) - c|^2 = r^2 is the real quadratic alpha w^2 + 2 beta w + gamma
    = 0, negative inside the disk; the entering root is the one where it
    decreases.  NaN for arcs whose disk the geodesic does not enter.
    """
    a, b, centers = m.a, m.b, octagon.centers
    P = a - centers * b.conjugate()
    Q = b - centers * a.conjugate()
    r2 = octagon.r * octagon.r
    alpha = np.abs(P) ** 2 - r2 * abs(b) ** 2
    beta = (P * Q.conjugate()).real - r2 * (b.conjugate() * a).real
    gamma = np.abs(Q) ** 2 - r2 * abs(a) ** 2
    with np.errstate(invalid="ignore", divide="ignore"):
        root = np.sqrt(beta * beta - alpha * gamma)
        # (-beta - root)/alpha, in the form that does not cancel
        w = np.where(beta > 0, -(beta + root) / alpha, gamma / (root - beta))
    return np.where(np.abs(w) < 1, w, np.nan)


def _first_exit(m, w_entry, arcs, s_anchor):
    """Arc time and point where w -> M(w) first enters one of the arcs' disks.

    w_entry is M's _entry_params, solved once per anchor.
    """
    w = np.fmin.reduce(np.where(arcs, w_entry, np.nan))
    if np.isnan(w):
        raise PropagationError(
            f"no boundary crossing found after arc length {s_anchor!r}")
    return s_anchor + 2 * math.atanh(w), m(w)


def propagate_bolza(spec):
    """Sample the reduced speed-lambda Bolza geodesic at t_k = k*dt.

    Between boundary crossings the chart map W is constant.  Each segment
    is anchored at its first sample k as M = W o T(k ds), built on
    fixed-point integers (_Chart) from E^k with E = exp(ds/2), and its
    samples are M(tanh(j ds/2)).  With M's alpha = a + b and beta = b - a,
    sample j is (alpha u + beta/u) / (conj(alpha) u - conj(beta)/u) and its
    momentum (lam/2) conj(conj(alpha) u - conj(beta)/u)^2, where u = E^j
    and 1/u come from one shared double-double table (_exp_table).  The
    propagation runs in two passes.

    The walk finds the crossings, one anchor per iteration of one loop.  It
    tests membership on plain-double samples from alpha, beta and the
    table's high parts, window by window from the anchor's own sample: a
    sample is outside when it
    lies more than 1e-12 inside an arc circle, and one within _BAND of that
    slack radius is decided on its correctly rounded value.  The crossing
    before the first sample outside is the earliest root of the real
    quadratics |M(w) - c_j| = r, the side pairing that maps that exit point
    back inside is composed onto W, and that sample is the next anchor.  A
    vertex passage is an anchor whose own sample is outside (at the start:
    an initial position outside).  A copy of W at 20 more digits is
    anchored alongside and must agree to 1e-13 and pick the same side
    pairings, or PropagationError reports the digits as too few.  The exit
    roots of each anchor are solved once.  High-precision work thus scales
    with crossings, not samples.

    The evaluation pass then rounds every sample once: block by block, each
    sample gathers the double-double alpha and beta of its segment's anchor
    (the last one at a vertex passage) and its table entries, and is
    evaluated in double-double and rounded to double, the correctly rounded
    closed-form value.
    """
    if spec.manifold != "bolza":
        raise ValidationError("propagate_bolza needs a bolza-manifold spec")
    start = time.perf_counter()
    lam = float(spec.speed)
    dt = float(spec.dt)
    N = spec.n_steps
    digits = spec.digits or default_digits(lam * N * dt)

    n_out = N + 1
    t_arr = np.arange(n_out) * dt
    word = []
    crossings = []
    vertex_passages = 0
    exact = 0  # membership tests decided on correctly rounded samples

    group_d = bolza_group()
    octagon = group_d.octagon
    ds = lam * dt
    # a segment is a chord of the octagon, at most its diameter long
    diameter = 4 * math.atanh(octagon.vertex_radius)
    chart = _Chart(spec, digits)
    u, v = _exp_table(min(n_out, int(diameter / ds) + 3), chart.half_ds[0])

    walk_start = time.perf_counter()
    segments = []  # per anchor: first sample, double-double parts, word length
    k, applications = 0, 0  # the anchor's sample, side pairings of its step
    while True:
        m, ab_dd, m_cert = chart.anchor(k, t_arr[k])
        segments.append((k, [h for x in ab_dd for h in (x.hi, x.lo)], len(word)))
        w_entry = _entry_params(m, octagon)
        # test from the anchor's own sample up to the sample past the
        # predicted exit, then window by window; tanh(j ds/2) <= w where
        # exp(j ds/2) <= sqrt((1 + w)/(1 - w))
        w = np.fmin.reduce(w_entry)
        stop = max(1, int(np.searchsorted(u.hi, math.sqrt((1 + w) / (1 - w)),
                                          side="right")))
        j0 = 0
        while True:
            j1 = min(stop, j0 + _WINDOW - 1, n_out - 1 - k, len(u.hi) - 1)
            if j1 < j0:
                raise PropagationError(
                    f"segment from t = {float(t_arr[k])!r} outran the octagon's diameter")
            z, out, n = _membership(ab_dd, u, v, j0, j1, lam, octagon)
            exact += n
            hits = np.flatnonzero(out)
            if len(hits) or k + j1 == n_out - 1:
                break
            j0, stop = j1 + 1, max(stop, 2 * j1)
        if not len(hits):
            break
        j = j0 + int(hits[0])
        if j == 0 and k == 0:
            raise PropagationError("initial position is outside the fundamental domain")
        # an anchor whose own sample is outside takes the next side pairing
        # of a vertex passage
        applications = applications + 1 if j == 0 else 1
        if applications > 12:
            raise PropagationError(
                f"could not re-enter the fundamental domain near t = {t_arr[k]!r}")
        vertex_passages += applications == 2
        arcs = octagon.outside(octagon.distances(z[hits[0]]))
        s_anchor = float(k * ds)
        s_star, z_exit = _first_exit(m, w_entry, arcs, s_anchor)
        _, z_check = _first_exit(m_cert, _entry_params(m_cert, octagon), arcs,
                                 s_anchor)
        k += j
        # at a vertex the pairing just applied has an inverse that maps the
        # exit point inside too; taking it would step straight back
        back = -word[-1] if applications > 1 else None
        idx = _reentering_index(group_d, z_exit, back)
        if idx is None:
            depth = octagon.min_depth(group_d.images(z_exit)).max()
            raise PropagationError(
                f"vertex passage near t = {float(t_arr[k])!r}, side pairing "
                f"{applications} of the step: none maps the exit point "
                f"{z_exit!r} back into the octagon (best image depth {depth:.1e})")
        if _reentering_index(group_d, z_check, back) != idx:
            raise PropagationError(
                f"precision certificate failed at t = {float(t_arr[k])!r}: "
                f"{digits} and {digits + _CERT_DIGITS} digits pick "
                "different side pairings; raise digits")
        chart.apply(idx)
        word.append(idx)
        crossings.append((s_star, idx))

    walk_s = time.perf_counter() - walk_start

    # evaluation pass; searchsorted takes the last anchor of a sample
    evaluate_start = time.perf_counter()
    starts, parts, lengths = (np.array(c) for c in zip(*segments))
    z_arr = np.empty(n_out, dtype=np.complex128)
    p_arr = np.empty(n_out, dtype=np.complex128)
    wlen_arr = np.empty(n_out, dtype=np.int32)
    for b0 in range(0, n_out, _WINDOW):
        ks = np.arange(b0, min(b0 + _WINDOW, n_out))
        i = np.searchsorted(starts, ks, side="right") - 1
        block_dd = [_DD(parts[i, q], parts[i, q + 1]) for q in range(0, 8, 2)]
        sl = slice(b0, b0 + len(ks))
        j = ks - starts[i]
        z_arr[sl], p_arr[sl] = _segment_samples(block_dd, u[j], v[j], lam)
        wlen_arr[sl] = lengths[i]
    evaluate_s = time.perf_counter() - evaluate_start
    stats = {"digits": digits, "crossings": len(crossings),
             "anchors": chart.anchors, "vertex_passages": vertex_passages,
             "certificate_max_diff": chart.max_diff, "exact_membership": exact,
             "propagate_s": time.perf_counter() - start, "walk_s": walk_s,
             "evaluate_s": evaluate_s}
    return BolzaTrajectory(
        spec, digits, t_arr, z_arr, p_arr, wlen_arr, word, crossings, stats
    )


def _reentering_index(group, z_exit, back=None):
    """Signed index of the side pairing that maps the exit point back inside.

    Exact boundary points land on the paired edge, so membership is tested
    with a little slack; ties break toward the lowest canonical index, and
    the index back is never taken.  None if no image is inside.
    """
    inside = group.octagon.contains(group.images(z_exit), tol=1e-9)
    hit = np.flatnonzero(inside & (np.array(WORD_ORDER) != back))
    return WORD_ORDER[hit[0]] if len(hit) else None


# --------------------------------------------------------------------------
# flat manifolds: closed formulas


def _wrap_flat(manifold, theta0, omega, t):
    """Wrapped angles and crossing counts (n_x, n_y) of a flat geodesic.

    Each count is one floor of a lifted coordinate, and each angle is that
    lift minus the counted periods, so angle and count describe the same
    point even within a rounding of an edge.  The RP2 corner point
    {(0, pi), (pi, 0)}, which has no image in [0, pi)^2, comes out as
    (pi, 0).
    """
    t = np.asarray(t, dtype=float)
    xlift = omega[0] * t + theta0[0]
    ylift = omega[1] * t + theta0[1]
    if manifold == "torus":
        n_x = np.floor_divide(xlift, TWO_PI).astype(np.int64)
        n_y = np.floor_divide(ylift, TWO_PI).astype(np.int64)
        theta_x = xlift - TWO_PI * n_x
        theta_y = ylift - TWO_PI * n_y
    elif manifold == "klein":
        n_x = np.floor_divide(xlift + math.pi, TWO_PI).astype(np.int64)
        n_y = np.floor_divide(ylift, math.pi).astype(np.int64)
        # theta_x changes sign at every y-edge crossing
        theta_x = _parity(n_y) * (TWO_PI * n_x - xlift)
        theta_y = ylift - math.pi * (n_y + 1)
    else:  # rp2
        n_x = np.floor_divide(xlift, math.pi).astype(np.int64)
        n_y = np.floor_divide(ylift, math.pi).astype(np.int64)
        sx, sy = _parity(n_y), _parity(n_x)
        theta_x = np.asarray(sx * (xlift - math.pi * n_x)
                             + (math.pi / 2) * (1 - sx))
        theta_y = np.asarray(sy * (ylift - math.pi * n_y)
                             + (math.pi / 2) * (1 - sy))
        n_x, n_y = np.asarray(n_x), np.asarray(n_y)
        # the y edge, the x edge, then the y edge again, as in
        # rp2_lift_project
        _rp2_recross(theta_y, theta_x, n_y, n_x)
        _rp2_recross(theta_x, theta_y, n_x, n_y)
        _rp2_recross(theta_y, theta_x, n_y, n_x)
    theta = np.stack(np.broadcast_arrays(theta_x, theta_y), axis=-1)
    return theta, np.stack(np.broadcast_arrays(n_x, n_y), axis=-1)


def _rp2_recross(a, b, n_a, n_b):
    """Move RP2 points whose angle a rounded up to pi across that edge.

    A reflection pi - a rounds to pi for a within half an ulp of 0.  The
    point (a, b) is the image of (a - pi, pi - b) in the cell one crossing
    over, n_a + (-1)^{n_b}, since the parity of the other crossing count
    sets the direction of a.  The arrays are updated in place, at the
    flagged points only.
    """
    over = a >= math.pi
    a[over] -= math.pi
    b[over] = math.pi - b[over]
    n_a[over] += _parity(n_b[over])


def klein_lift_project(theta0, omega, t):
    """Oracle: project the lifted straight line with literal tau moves.

    tau_1(x,y) = (x+2pi, y) and tau_2(x,y) = (2pi-x, y+pi) generate the
    Klein-bottle group.  The y moves apply tau_1^-1 tau_2^{-+1}(x,y) =
    (-x, y -+ pi), which is exact in floating point where 2pi - x can round
    across the x seam; tau_1 moves then bring x into [-pi,pi).
    """
    x = theta0[0] + omega[0] * t
    y = theta0[1] + omega[1] * t
    guard = 0
    while not (-math.pi <= y < 0):
        x, y = -x, (y - math.pi if y >= 0 else y + math.pi)
        guard += 1
        if guard > 10_000_000:
            raise PropagationError("lift-project loop did not terminate")
    while x >= math.pi:
        x -= TWO_PI
    while x < -math.pi:
        x += TWO_PI
    return np.array([x, y])


def rp2_lift_project(theta0, omega, t):
    """Oracle: project the lifted line with literal chi moves.

    chi_1(x,y) = (-x+pi, y+pi), chi_2(x,y) = (x+pi, -y+pi); inverses are
    applied until the point lands in [0,pi)^2.
    """
    x = theta0[0] + omega[0] * t
    y = theta0[1] + omega[1] * t
    guard = 0
    while not (0 <= y < math.pi):
        if y >= math.pi:
            x, y = math.pi - x, y - math.pi
        else:
            x, y = math.pi - x, y + math.pi
        guard += 1
        if guard > 10_000_000:
            raise PropagationError("lift-project loop did not terminate")
    while not (0 <= x < math.pi):
        if x >= math.pi:
            x, y = x - math.pi, math.pi - y
        else:
            x, y = x + math.pi, math.pi - y
        guard += 1
        if guard > 20_000_000:
            raise PropagationError("lift-project loop did not terminate")
    # an x move sends y to pi - y, which is pi for y within half an ulp of
    # 0; the corner point {(0, pi), (pi, 0)} has no image in [0,pi)^2 and
    # comes out as (pi, 0)
    if y >= math.pi:
        x, y = math.pi - x, y - math.pi
    return np.array([x, y])


def flat_trajectory(spec, start=0, stop=None):
    """Sample a torus/Klein/RP2 spec on its t_k = k*dt grid.

    The samples are k = start..stop-1 (stop defaults to n_steps + 1, the
    whole grid), so a long drive can be evaluated one window at a time.
    """
    if spec.manifold == "bolza":
        raise ValidationError("flat_trajectory does not handle the Bolza surface")
    stop = spec.n_steps + 1 if stop is None else stop
    t = np.arange(start, stop) * spec.dt
    theta, nn = _wrap_flat(spec.manifold, spec.theta0, spec.omega, t)
    return FlatTrajectory(spec, t, theta, nn.astype(np.int32))


def trajectory(spec):
    """Dispatch on spec.manifold."""
    if spec.manifold == "bolza":
        return propagate_bolza(spec)
    return flat_trajectory(spec)

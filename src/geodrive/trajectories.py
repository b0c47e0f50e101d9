"""Classical geodesic flows on the four drive manifolds.

Bolza-surface geodesics are propagated with exact closed-form segments:
the unit-speed geodesic through the origin is z(s) = n tanh(s/2) with
momentum covector p(s) = n (1 + cosh s), and an SU(1,1) word accumulated
from the side pairings keeps every sample inside the closed fundamental
octagon.  The only numerical content is the bisection that locates each
boundary-crossing time.  Because the flow has unit Lyapunov exponent, a
speed-lambda run over horizon T needs roughly 0.434*lambda*T decimal
digits of headroom; arithmetic runs under mpmath at that precision and
samples are returned in double precision after reduction (reduced
positions and momenta are O(1), so doubles lose nothing downstream).

A high-order Taylor-series integrator for the cogeodesic ODE is kept as
an independent oracle.  It evolves v = 1 - |z|^2 as a third dynamical
variable: recovering v from z by subtraction near the disk boundary
cancels catastrophically, while the evolved v stays fully accurate, which
is what makes long-horizon energy-drift checks meaningful.

Flat-manifold geodesics (torus, Klein bottle, real projective plane) use
the wrapped closed formulas directly; lift-and-project companions apply
the deck transformations literally and serve as oracles for them.
"""

import cmath
import math
import os
from collections import namedtuple
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np

from . import PropagationError, ValidationError
from .hyperbolic import MobiusMap, bolza_group

TWO_PI = 2 * math.pi

MANIFOLDS = ("bolza", "torus", "klein", "rp2")

# --------------------------------------------------------------------------
# precision rule


def default_digits(arc_length):
    """Working decimal digits for a Bolza run of the given total arc length.

    max(50, ceil(0.434*arc) + 30): the flow amplifies errors like e^{s},
    i.e. 0.434 digits per unit arc length, plus a 30-digit margin.  The
    GEODRIVE_DIGITS environment variable overrides the rule.
    """
    env = os.environ.get("GEODRIVE_DIGITS")
    if env:
        return int(env)
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
        if isinstance(self.direction, complex):
            if self.direction == 0:
                raise ValidationError("direction must be a nonzero complex number or an angle")
            self.direction = math.atan2(self.direction.imag, self.direction.real)
        if self.dt <= 0:
            raise ValidationError("dt must be positive")
        if self.T < 0:
            raise ValidationError("horizon T must be nonnegative")
        if self.manifold == "bolza":
            if self.speed <= 0:
                raise ValidationError("speed must be positive")
            self.z0 = complex(self.z0)
            if abs(self.z0) >= 1:
                raise ValidationError("z0 must lie inside the unit disk")
            from .hyperbolic import in_fundamental_domain

            if not in_fundamental_domain(self.z0):
                raise ValidationError(
                    "z0 must lie in the closed fundamental domain; "
                    "reduce it with hyperbolic.reduce_to_domain first"
                )
        else:
            self.theta0 = (float(self.theta0[0]), float(self.theta0[1]))
            self.omega = (float(self.omega[0]), float(self.omega[1]))
            _check_domain(self.manifold, self.theta0)

    @property
    def n_steps(self):
        return int(round(self.T / self.dt))


def _check_domain(manifold, theta):
    x, y = theta
    if manifold == "klein":
        if not (-math.pi <= x <= math.pi and -math.pi <= y <= 0):
            raise ValidationError(
                f"theta0 {theta} outside the Klein domain [-pi,pi]x[-pi,0]"
            )
    elif manifold == "rp2":
        if not (0 <= x <= math.pi and 0 <= y <= math.pi):
            raise ValidationError(f"theta0 {theta} outside the RP2 domain [0,pi]^2")


TrajectorySample = namedtuple("TrajectorySample", "t z p word_len")
CogeodesicSample = namedtuple("CogeodesicSample", "t z p v")


@dataclass
class BolzaTrajectory:
    """Reduced Bolza samples plus the book-keeping of applied translates.

    word holds the signed generator indices in order of application;
    word_len[k] says how many of them had been applied by sample k, so
    word[:word_len[k]] reproduces the chart of sample k.  crossings
    records (arc-length time, signed index) for each boundary crossing.
    """

    spec: GeodesicSpec
    digits: int
    t: np.ndarray
    z: np.ndarray
    p: np.ndarray
    word_len: np.ndarray
    word: list
    crossings: list

    def __len__(self):
        return len(self.t)

    def __getitem__(self, k):
        return TrajectorySample(self.t[k], self.z[k], self.p[k], self.word_len[k])

    @property
    def manifold(self):
        return "bolza"

    def chart_map(self, k, digits=None):
        """Accumulated word map at sample k (initial frame not included).

        Elements apply left-onto the running chart in time order, so as a
        single Mobius map the word reads right-to-left.
        """
        group = bolza_group(digits or self.digits)
        return group.word_map(list(reversed(self.word[: self.word_len[k]])))

    def unreduced_phase(self, k):
        """Undo the word at sample k: the raw closed-form phase point.

        Returned as mpmath values at the trajectory's working precision;
        for large arc length the unreduced position is exponentially close
        to the unit circle and cannot be represented in double precision.
        """
        m = self.chart_map(k).inverse()
        with mp.workdps(self.digits):
            z = mp.mpc(self.z[k])
            p = mp.mpc(self.p[k])
            return m(z), m.push_forward(z, p)

    def energies(self):
        """g^{-1}|p|^2/2 at every sample (double precision)."""
        return (1 - np.abs(self.z) ** 2) ** 2 * np.abs(self.p) ** 2 / 8

    def velocities(self):
        """Cotangent lift: (dx/dt) as complex = (1-|z|^2)^2 p / 4."""
        return (1 - np.abs(self.z) ** 2) ** 2 * self.p / 4

    def subsample(self, step, offset=0):
        """View with every step-th sample (used to align state grids)."""
        sl = slice(offset, None, step)
        return BolzaTrajectory(
            self.spec, self.digits, self.t[sl], self.z[sl], self.p[sl],
            self.word_len[sl], self.word, self.crossings,
        )


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

    @property
    def omega(self):
        return self.spec.omega

    def velocities(self):
        """Effective (dtheta_x/dt, dtheta_y/dt) per sample."""
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

    def x_velocity_signs(self):
        """Klein-bottle sign label (-1)^{n_y(t)} per sample."""
        if self.manifold != "klein":
            raise ValidationError("x_velocity_signs is a Klein-bottle quantity")
        return _parity(self.crossings[:, 1])

    def subsample(self, step, offset=0):
        sl = slice(offset, None, step)
        return FlatTrajectory(self.spec, self.t[sl], self.theta[sl], self.crossings[sl])


def _parity(n):
    """(-1)^n for integer arrays, safe for negative n."""
    return 1 - 2 * (np.asarray(n) & 1)


# --------------------------------------------------------------------------
# closed forms on the disk


def unit_geodesic_from_origin(direction, t, digits=None):
    """Unit-speed geodesic through 0: (n tanh(t/2), n (1 + cosh t)).

    direction may be an angle or a complex number (its phase is used).
    With digits set, returns mpmath values at that precision.
    """
    if isinstance(direction, complex):
        direction = math.atan2(direction.imag, direction.real)
    if digits:
        with mp.workdps(digits):
            n = mp.exp(1j * mp.mpf(direction))
            t = mp.mpf(t)
            return n * mp.tanh(t / 2), n * (1 + mp.cosh(t))
    n = cmath.exp(1j * direction)
    return n * math.tanh(t / 2), n * (1 + math.cosh(t))


def bolza_closed_form(z0, direction, lam, t, digits=None):
    """Unreduced speed-lambda phase point at drive time t.

    Composes the rotation to `direction` with the translation taking the
    origin to z0 and evaluates the exact geodesic; no fundamental-domain
    reduction is applied.  This is the closed-form reference the sampled
    propagator and the ODE oracle are tested against.
    """
    if isinstance(direction, complex):
        direction = math.atan2(direction.imag, direction.real)
    if digits:
        with mp.workdps(digits):
            m0 = MobiusMap.translation_to(z0, digits) @ MobiusMap.rotation(direction, digits)
            s = mp.mpf(lam) * mp.mpf(t)
            w = mp.tanh(s / 2)
            den = m0.b.conjugate() * w + m0.a.conjugate()
            z = (m0.a * w + m0.b) / den
            p = mp.mpf(lam) * (2 / ((1 - w) * (1 + w))) * (den * den).conjugate()
            return z, p
    m0 = MobiusMap.translation_to(complex(z0)) @ MobiusMap.rotation(direction)
    s = lam * t
    w = math.tanh(s / 2)
    den = m0.b.conjugate() * w + m0.a.conjugate()
    z = (m0.a * w + m0.b) / den
    p = lam * (2 / ((1 - w) * (1 + w))) * (den * den).conjugate()
    return z, p


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


def propagate_bolza(spec):
    """Sample the reduced speed-lambda Bolza geodesic at t_k = k*dt.

    Between boundary crossings the chart map W (an SU(1,1) word times the
    initial frame) is constant and positions are W(tanh(s/2)) exactly; at
    each domain exit the crossing time is located by bisection to
    10^(-digits/2) in arc length and the unique re-entering side pairing
    is composed onto W.  Momenta are pushed forward through the same map.
    """
    if spec.manifold != "bolza":
        raise ValidationError("propagate_bolza needs a bolza-manifold spec")
    lam = float(spec.speed)
    dt = float(spec.dt)
    N = spec.n_steps
    digits = spec.digits or default_digits(lam * N * dt)

    n_out = N + 1
    t_arr = np.arange(n_out) * dt
    z_arr = np.empty(n_out, dtype=np.complex128)
    p_arr = np.empty(n_out, dtype=np.complex128)
    wlen_arr = np.empty(n_out, dtype=np.int32)
    word = []
    crossings = []

    oct_d = bolza_group().octagon
    centers_d = list(oct_d.centers)
    r_slack = oct_d.r - 1e-12

    def inside(zc):
        for cj in centers_d:
            if abs(zc - cj) < r_slack:
                return False
        return True

    group_d = bolza_group()

    with mp.workdps(digits):
        group = bolza_group(digits)
        W = MobiusMap.translation_to(spec.z0, digits) @ MobiusMap.rotation(
            spec.direction, digits
        )
        ds = mp.mpf(lam) * mp.mpf(dt)
        tau_step = mp.tanh(ds / 2)
        # dyadic arc-length offsets for crossing bisection
        n_bis = max(4, math.ceil(digits / 2 * math.log2(10) + math.log2(float(ds))))
        dyadic = [tau_step]
        for _ in range(n_bis):
            # tanh(delta/4) from tanh(delta/2) via the half-argument formula
            tprev = dyadic[-1]
            dyadic.append(tprev / (1 + mp.sqrt((1 - tprev) * (1 + tprev))))

        def advance(wv, tau):
            return (wv + tau) / (1 + wv * tau)

        def emit(k, wv):
            den = W.b.conjugate() * wv + W.a.conjugate()
            zv = (W.a * wv + W.b) / den
            pv = lam * (2 / ((1 - wv) * (1 + wv))) * (den * den).conjugate()
            z_arr[k] = complex(zv)
            p_arr[k] = complex(pv)
            wlen_arr[k] = len(word)
            return z_arr[k]

        w_cur = mp.mpf(0)
        zc = emit(0, w_cur)
        if not inside(zc):
            raise PropagationError("initial position is outside the fundamental domain")
        for k in range(1, n_out):
            if k % 4096 == 0:
                # resynchronize against incremental-update rounding drift
                w_cur = mp.tanh(mp.mpf(k) * ds / 2)
            else:
                w_cur = advance(w_cur, tau_step)
            zc = emit(k, w_cur)
            applications = 0
            w_lo = advance(w_cur, -tau_step)  # sample k-1 (inside by induction)
            s_lo = (k - 1) * lam * dt
            while not inside(complex(z_arr[k])):
                applications += 1
                if applications > 12:
                    raise PropagationError(
                        f"could not re-enter the fundamental domain near t = {t_arr[k]!r}"
                    )
                # bisect the crossing inside (s_lo, s_k]
                wl, wh = w_lo, w_cur
                s_off = 0.0
                step_frac = 0.5
                for i in range(1, n_bis + 1):
                    wm = advance(wl, dyadic[i])
                    zm = complex((W.a * wm + W.b) / (W.b.conjugate() * wm + W.a.conjugate()))
                    if inside(zm):
                        wl = wm
                        s_off += step_frac
                    else:
                        wh = wm
                    step_frac *= 0.5
                s_star = s_lo + float(ds) * s_off
                z_exit = complex((W.a * wh + W.b) / (W.b.conjugate() * wh + W.a.conjugate()))
                idx = _reentering_index(group_d, oct_d, z_exit)
                if idx is None:
                    raise PropagationError(
                        f"no re-entering side pairing found at t = {t_arr[k]!r}"
                    )
                W = group.element(idx) @ W
                word.append(idx)
                crossings.append((s_star, idx))
                zc = emit(k, w_cur)
                w_lo = wh
                s_lo = s_star
        return BolzaTrajectory(
            spec, digits, t_arr, z_arr, p_arr, wlen_arr, word, crossings
        )


def _reentering_index(group_d, octagon, z_exit):
    """Signed index of the side pairing that maps the exit point back inside.

    Exact boundary points land on the paired edge, so membership is tested
    with a little slack; ties break toward the lowest canonical index, and
    if the point sits in a corner sliver none may match, in which case the
    least-violating element is taken.
    """
    best = None
    for idx, g in group_d.items():
        img = g(z_exit)
        if octagon.contains(img, tol=1e-9):
            return idx
        depth = octagon.min_depth(img)
        if best is None or depth > best[0]:
            best = (depth, idx)
    if best is not None and best[0] > -0.5:
        return best[1]
    return None


# --------------------------------------------------------------------------
# flat manifolds: closed formulas


def _wrap_flat(manifold, theta0, omega, t):
    """Wrapped angles and crossing counts (n_x, n_y) of a flat geodesic.

    Each count is one floor of a lifted coordinate, and each angle is that
    lift minus the counted periods, so angle and count describe the same
    point even within a rounding of an edge.
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
        theta_x = sx * (xlift - math.pi * n_x) + (math.pi / 2) * (1 - sx)
        theta_y = sy * (ylift - math.pi * n_y) + (math.pi / 2) * (1 - sy)
    theta = np.stack(np.broadcast_arrays(theta_x, theta_y), axis=-1)
    return theta, np.stack(np.broadcast_arrays(n_x, n_y), axis=-1)


def torus_geodesic(theta0, omega, t):
    """Straight line on the 2-torus, wrapped into [0, 2pi) componentwise."""
    return _wrap_flat("torus", theta0, omega, t)[0]


def klein_geodesic(theta0, omega, t):
    """Klein-bottle geodesic in the domain [-pi,pi]x[-pi,0].

    Returns (theta, x_velocity_sign) where the sign is (-1)^{n_y(t)} and
    n_y counts y-edge crossings of the lifted straight line.
    """
    _check_domain("klein", theta0)
    theta, nn = _wrap_flat("klein", theta0, omega, t)
    return theta, _parity(nn[..., 1])


def rp2_geodesic(theta0, omega, t):
    """RP2 geodesic in [0,pi]^2 with effective velocities and crossing numbers.

    The x-velocity flips sign at every y-edge crossing and vice versa:
    omega_x(t) = (-1)^{n_y} omega_x, omega_y(t) = (-1)^{n_x} omega_y.
    """
    _check_domain("rp2", theta0)
    theta, nn = _wrap_flat("rp2", theta0, omega, t)
    eff = np.stack([_parity(nn[..., 1]) * omega[0],
                    _parity(nn[..., 0]) * omega[1]], axis=-1)
    return theta, eff, nn


def klein_lift_project(theta0, omega, t):
    """Oracle: project the lifted straight line with literal tau moves.

    tau_1(x,y) = (x+2pi, y) and tau_2(x,y) = (2pi-x, y+pi) generate the
    Klein-bottle group; inverses are applied one at a time until the point
    lands in [-pi,pi)x[-pi,0).
    """
    x = theta0[0] + omega[0] * t
    y = theta0[1] + omega[1] * t
    guard = 0
    while not (-math.pi <= y < 0):
        if y >= 0:
            x, y = TWO_PI - x, y - math.pi
        else:
            x, y = TWO_PI - x, y + math.pi
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
    return np.array([x, y])


def flat_trajectory(spec):
    """Sample a torus/Klein/RP2 spec on its t_k = k*dt grid."""
    if spec.manifold == "bolza":
        raise ValidationError("flat_trajectory does not handle the Bolza surface")
    t = np.arange(spec.n_steps + 1) * spec.dt
    theta, nn = _wrap_flat(spec.manifold, spec.theta0, spec.omega, t)
    return FlatTrajectory(spec, t, theta, nn.astype(np.int32))


def trajectory(spec):
    """Dispatch on spec.manifold."""
    if spec.manifold == "bolza":
        return propagate_bolza(spec)
    return flat_trajectory(spec)

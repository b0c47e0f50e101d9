"""Poincare-disk geometry and the Bolza side-pairing group.

Conventions: the disk {|z| < 1} carries the metric g(z) = 4/(1-|z|^2)^2
(constant curvature -1).  Isometries are Mobius maps

    z -> (a z + b) / (conj(b) z + conj(a)),   |a|^2 - |b|^2 = 1,

i.e. elements of SU(1,1) modulo sign.  Covectors (momenta, stored as the
complex number p = p_1 + i p_2) push forward with the inverse-conjugate
Jacobian, p -> p / conj(M'(z)), which preserves g^{-1}|p|^2.

The Bolza surface is the quotient of the disk by the group generated by
four hyperbolic translations gamma_1..gamma_4 of translation length
2*acosh(1+sqrt(2)), rotated copies of each other by pi/4.  Its fundamental
domain is the regular octagon bounded by eight geodesic arcs; membership
uses the closed domain (boundary points count as inside).

Each map and the group is one mpmath formula at the requested digits;
without digits it runs at 15 (53 bits) and each entry is rounded once to a
double.  Maps apply and compose on doubles and mpmath types alike.  The
octagon is in doubles and tests membership elementwise on arrays, and the
group maps a point to its eight images in one array expression.
"""

import cmath
import math

import mpmath as mp
import numpy as np
from mpmath.libmp import mpf_neg

from . import ValidationError

# generator indices in canonical order; negative means inverse
WORD_ORDER = (1, 2, 3, 4, -1, -2, -3, -4)


def _rounded(digits, *values):
    """The values at `digits`; without digits, each rounded once to a double."""
    if digits:
        return values
    return tuple(complex(v) if isinstance(v, mp.mpc) else float(v)
                 for v in values)


# mpmath rounds every operation to the ambient working precision, including
# unary minus and conjugation (which routes through the rounding mpc
# constructor).  Structural operations like inverting a group element must
# not depend on who calls them, so they use these exact versions.

def _neg_exact(x):
    return mp.fneg(x, exact=True) if isinstance(x, (mp.mpf, mp.mpc)) else -x


def _conj_exact(x):
    if isinstance(x, mp.mpc):
        re, im = x._mpc_
        return mp.make_mpc((re, mpf_neg(im)))
    return x.conjugate()


def kinetic_energy(z, p):
    """E = g^{-1}(z) |p|^2 / 2, the cogeodesic Hamiltonian."""
    return (1 - abs(z) ** 2) ** 2 * abs(p) ** 2 / 8


class MobiusMap:
    """Disk isometry z -> (a z + b)/(conj(b) z + conj(a)) with |a|^2-|b|^2 = 1."""

    __slots__ = ("a", "b")

    def __init__(self, a, b, check=True):
        if check:
            norm = abs(a) ** 2 - abs(b) ** 2
            scale = abs(a) ** 2 + abs(b) ** 2
            if abs(norm - 1) > 1e-9 * scale:
                raise ValidationError(
                    f"not an SU(1,1) pair: |a|^2-|b|^2 = {float(norm)!r}"
                )
        self.a = a
        self.b = b

    def __call__(self, z):
        return (self.a * z + self.b) / (self.b.conjugate() * z + self.a.conjugate())

    def push_forward(self, z, p):
        """Image of the covector p based at z: p / conj(M'(z))."""
        den = self.b.conjugate() * z + self.a.conjugate()
        return p * (den * den).conjugate()

    def compose(self, other):
        """self after other: (self.compose(other))(z) = self(other(z))."""
        a = self.a * other.a + self.b * other.b.conjugate()
        b = self.a * other.b + self.b * other.a.conjugate()
        return MobiusMap(a, b, check=False)

    def __matmul__(self, other):
        return self.compose(other)

    def inverse(self):
        return MobiusMap(_conj_exact(self.a), _neg_exact(self.b), check=False)

    def __repr__(self):
        return f"MobiusMap(a={self.a!r}, b={self.b!r})"

    @staticmethod
    def identity(digits=None):
        with mp.workdps(digits or 15):
            return MobiusMap(*_rounded(digits, mp.mpc(1), mp.mpc(0)),
                             check=False)

    @staticmethod
    def rotation(phi, digits=None):
        """z -> e^{i phi} z."""
        with mp.workdps(digits or 15):
            return MobiusMap(*_rounded(digits, mp.exp(0.5j * mp.mpf(phi)),
                                       mp.mpc(0)), check=False)

    @staticmethod
    def translation_to(z0, digits=None):
        """Origin -> z0 along the radial geodesic: z -> (z + z0)/(1 + conj(z0) z)."""
        if not abs(z0) < 1:
            raise ValidationError("translation target must lie inside the unit disk")
        with mp.workdps(digits or 15):
            z0 = mp.mpc(z0)
            a = 1 / mp.sqrt(1 - abs(z0) ** 2)
            return MobiusMap(*_rounded(digits, a, z0 * a), check=False)


class FundamentalOctagon:
    """The regular hyperbolic octagon bounding the Bolza fundamental domain.

    Eight geodesic arcs, circles of Euclidean radius r centred at
    c_j = c e^{i(j-1)pi/4} with c = sqrt((3+2sqrt2)/(2+2sqrt2)) and
    r = (2+2sqrt2)^{-1/2}; c^2 - r^2 = 1 so each arc meets the unit circle
    at right angles.  A point is in the closed domain iff it lies outside
    or on all eight arc circles.  centers is an (8,) array, and every test
    takes a point or an array of points, elementwise.  The arc axis comes
    first, so a test over many points reduces across eight contiguous rows.
    """

    __slots__ = ("c", "r", "vertex_radius", "centers")

    def __init__(self):
        s = math.sqrt(2)
        self.c = math.sqrt((3 + 2 * s) / (2 + 2 * s))
        self.r = 1 / math.sqrt(2 + 2 * s)
        self.vertex_radius = 2 ** -0.25
        self.centers = np.array(
            [self.c * cmath.exp(1j * math.pi * j / 4) for j in range(8)])

    def distances(self, z):
        """|z - c_j| to the eight arc centres, on a new first axis of 8."""
        z = np.asarray(z)
        return np.abs(z - self.centers.reshape((8,) + (1,) * z.ndim))

    def outside(self, distances, tol=1e-12):
        """Per arc, more than tol inside its circle: |z - c_j| < r - tol."""
        return distances < self.r - tol

    def contains(self, z, tol=1e-12):
        """Closed-domain membership, with tol of slack toward inclusion."""
        return ~self.outside(self.distances(z), tol).any(axis=0)

    def min_depth(self, z):
        """Least |z - c_j| - r over the arcs; negative means outside."""
        return (self.distances(z) - self.r).min(axis=0)


class BolzaGroup:
    """The four side-pairing translations of the Bolza octagon and inverses.

    gamma_1 has matrix [[a0, b0], [b0, a0]] with a0 = 1+sqrt2 = cosh(l/2),
    b0 = sqrt(2+2sqrt2) = sinh(l/2); gamma_mu is gamma_1 conjugated by the
    rotation through (mu-1)pi/4, i.e. b0 picks up the phase
    e^{i(mu-1)pi/4}.  Words are lists of signed indices, +mu for gamma_mu
    and -mu for its inverse, in order of application.
    """

    def __init__(self, digits=None):
        self.digits = digits
        with mp.workdps(digits or 15):
            a0 = mp.mpc(1 + mp.sqrt(2))
            b0 = mp.sqrt(2 + 2 * mp.sqrt(2))
            phases = [mp.exp(1j * mp.pi * (mu - 1) / 4) for mu in range(1, 5)]
            gens = [MobiusMap(*_rounded(digits, a0, b0 * ph), check=False)
                    for ph in phases]
        # inverses are exact, so they need no working precision
        self._maps = {}
        for mu, g in enumerate(gens, start=1):
            self._maps[mu] = g
            self._maps[-mu] = g.inverse()
        self._a = np.array([self._maps[idx].a for idx in WORD_ORDER])
        self._b = np.array([self._maps[idx].b for idx in WORD_ORDER])
        self.octagon = FundamentalOctagon()

    def element(self, idx):
        return self._maps[idx]

    def items(self):
        """(index, map) pairs in canonical tie-break order."""
        return [(idx, self._maps[idx]) for idx in WORD_ORDER]

    def images(self, z):
        """The eight images of z, in canonical order, on a new first axis."""
        z = np.asarray(z)
        a, b = (x.reshape((8,) + (1,) * z.ndim) for x in (self._a, self._b))
        return (a * z + b) / (b.conj() * z + a.conj())

    def word_map(self, word):
        """Mobius map of a product word, leftmost factor applied last.

        word_map([1, -2]) is gamma_1 gamma_2^{-1} as a matrix product, i.e.
        the map z -> gamma_1(gamma_2^{-1}(z)).
        """
        with mp.workdps(self.digits or 15):
            m = MobiusMap.identity(self.digits)
            for idx in word:
                m = m @ self._maps[idx]
            return m

    def relation_product(self):
        """gamma_1 gamma_2^{-1} gamma_3 gamma_4^{-1} gamma_1^{-1} gamma_2 gamma_3^{-1} gamma_4.

        Equals the identity up to overall sign for the true group.
        """
        return self.word_map([1, -2, 3, -4, -1, 2, -3, 4])


_GROUP_CACHE = {}


def bolza_group(digits=None):
    """Cached BolzaGroup at the requested decimal precision (None = double)."""
    if digits not in _GROUP_CACHE:
        _GROUP_CACHE[digits] = BolzaGroup(digits)
    return _GROUP_CACHE[digits]


def in_fundamental_domain(z, tol=1e-12):
    """Closed-domain membership test for the Bolza octagon."""
    return bolza_group().octagon.contains(z, tol)

"""Geodesic drives for D-level quantum systems.

A classical geodesic on a compact manifold (the genus-2 Bolza surface, the
flat torus, the Klein bottle, or the real projective plane) steers the
control parameters of a small quantum system.  The package builds the
classical trajectories to controlled precision, evolves the driven quantum
state, accumulates the time-averaged response functionals, and computes the
static curvature invariants they quantize to.

Modules
-------
hyperbolic    Poincare-disk geometry, the Bolza side-pairing group,
              fundamental-domain membership.
trajectories  Closed-form and high-precision numerical cogeodesic flows on
              all four manifolds.
models        Parent Hamiltonians as Bloch fields or matrix fields with
              analytic gradients, eigensystems, gap scans.
evolution     Midpoint-exponential time stepping, band tracking,
              counterdiabatic terms, off-band correction diagnostics.
response      Drive observables and running time averages.
topology      Plaquette Berry curvature (solid-angle and eigenvector
              routes), Chern / dipolar / quadrupolar invariants.
ergodicity    Equidistribution checks for the hyperbolic flow.
cli           JSON-config runner and figure presets.
shortest      repr's text of a whole array of doubles at once, for the
              CSV writer.
"""

__version__ = "0.1.0"


class GeodriveError(Exception):
    """Base class for errors raised by this package."""


class ValidationError(GeodriveError, ValueError):
    """A precondition on user input failed.

    param names the argument that was rejected, where a single argument is
    at fault, so that a caller can point at the input it came from.
    """

    def __init__(self, message, param=None):
        super().__init__(message)
        self.param = param


class PropagationError(GeodriveError, RuntimeError):
    """A trajectory integrator could not continue."""


class DegeneracyError(GeodriveError, RuntimeError):
    """A band gap closed where a gapped spectrum was required."""


class ResolutionError(GeodriveError, RuntimeError):
    """A discretization is too coarse for the requested quantity."""

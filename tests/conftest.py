"""Shared fixtures.

The unit-speed reference trajectory (T = 2000, 1239 boundary crossings at
898 digits) takes a few seconds to propagate, so it is session-scoped and
only built when a test actually asks for it.  `generic` strips a model's
Bloch field, so the same model runs through the eigensolver and matrix
paths that the Bloch-field paths are checked against.  `embedded` makes a
two-level model the upper-left block of a three-level one, so its states
can be checked against the spectral step of D > 2.
"""

import math

import numpy as np
import pytest

from geodrive.models import (ParentHamiltonian, bolza_qubit, klein_qubit,
                             rp2_qubit)
from geodrive.trajectories import GeodesicSpec, trajectory


@pytest.fixture(scope="session")
def meron():
    return bolza_qubit(0.5)


@pytest.fixture(scope="session")
def klein_m2():
    return klein_qubit(2.0)


@pytest.fixture(scope="session")
def rp2_m1():
    return rp2_qubit(1.0)


def _without_bloch_field(model):
    return ParentHamiltonian(
        model.name, model.manifold, model.dim,
        evaluate_many=model.evaluate_many, gradient_many=model.gradient_many,
        compact_support=model.compact_support, params=model.params)


@pytest.fixture(scope="session")
def generic():
    """model -> the same H and gradients without the Bloch field."""
    return _without_bloch_field


def _block(blocks, corner):
    out = np.zeros(blocks.shape[:-2] + (3, 3), dtype=complex)
    out[..., :2, :2] = blocks
    out[..., 2, 2] = corner
    return out


def _three_level(model):
    return ParentHamiltonian(
        model.name, model.manifold, 3,
        evaluate_many=lambda x: _block(model.evaluate_many(x), 10.0),
        gradient_many=lambda x: _block(model.gradient_many(x), 0.0),
        compact_support=model.compact_support, params=model.params)


@pytest.fixture(scope="session")
def embedded():
    """Two-level model -> H as the upper-left block of a D = 3 field with
    a third level at +10 and block-diagonal gradients."""
    return _three_level


@pytest.fixture(scope="session")
def unit_speed_run():
    """Reference ergodicity trajectory: lambda = 1, direction pi/9, T = 2000."""
    spec = GeodesicSpec(manifold="bolza", T=2000.0, dt=0.01, speed=1.0,
                        direction=math.pi / 9)
    return trajectory(spec)


@pytest.fixture(scope="session")
def short_bolza_run():
    """Small unit-speed trajectory for tests that just need real samples."""
    spec = GeodesicSpec(manifold="bolza", T=50.0, dt=0.01, speed=1.0,
                        direction=math.pi / 9)
    return trajectory(spec)

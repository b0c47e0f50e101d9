"""Tests for the Poincare-disk building blocks: Mobius maps, the side-pairing
group and fundamental-domain membership."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from geodrive import ValidationError
from geodrive.hyperbolic import (
    BolzaGroup,
    FundamentalOctagon,
    MobiusMap,
    bolza_group,
    kinetic_energy,
)

# points safely inside the disk, away from the boundary
disk_points = st.complex_numbers(max_magnitude=0.8, allow_nan=False,
                                 allow_infinity=False)
momenta = st.complex_numbers(min_magnitude=1e-3, max_magnitude=10.0,
                             allow_nan=False, allow_infinity=False)
# how far each Bolza generator moves points along its axis
TRANSLATION_LENGTH = 2 * math.acosh(1 + math.sqrt(2))


class TestMetric:
    def test_kinetic_energy_at_origin(self):
        # g^{-1}(0) = 1/4, so E = |p|^2 / 8
        assert_allclose(kinetic_energy(0j, 2.0 + 0j), 0.5, rtol=1e-15)


class TestMobiusMap:
    def test_identity(self):
        m = MobiusMap.identity()
        assert m(0.3 + 0.4j) == 0.3 + 0.4j

    def test_rotation(self):
        m = MobiusMap.rotation(math.pi / 2)
        assert_allclose(complex(m(0.5 + 0j)), 0.5j, atol=1e-15)

    def test_translation_hits_target(self):
        z0 = 0.3 - 0.2j
        assert_allclose(complex(MobiusMap.translation_to(z0)(0j)), z0,
                        atol=1e-15)

    def test_translation_rejects_outside(self):
        for digits in (None, 30):
            with pytest.raises(ValidationError, match="inside the unit disk"):
                MobiusMap.translation_to(1.5 + 0j, digits)

    def test_su11_check(self):
        with pytest.raises(ValidationError):
            MobiusMap(2.0 + 0j, 0j)

    def test_compose_order(self):
        # compose = apply other first
        r = MobiusMap.rotation(0.7)
        t = MobiusMap.translation_to(0.4 + 0.1j)
        z = 0.2 + 0.3j
        assert_allclose(complex((t @ r)(z)), complex(t(r(z))), atol=1e-14)

    def test_inverse_round_trip(self):
        m = MobiusMap.translation_to(0.5 + 0.2j) @ MobiusMap.rotation(1.1)
        z = -0.3 + 0.4j
        assert_allclose(complex(m.inverse()(m(z))), z, atol=1e-14)

    def test_derivative_matches_finite_difference(self):
        # push_forward is p -> p / conj(M'(z)); M'(z) by central differences
        m = MobiusMap.translation_to(0.4 - 0.3j)
        z, p, h = 0.1 + 0.2j, 0.7 - 1.1j, 1e-7
        fd = (m(z + h) - m(z - h)) / (2 * h)
        assert_allclose(complex(m.push_forward(z, p)), p / fd.conjugate(),
                        rtol=1e-6)

    @given(z=disk_points, p=momenta)
    @settings(max_examples=50, deadline=None)
    def test_push_forward_preserves_energy(self, z, p):
        m = MobiusMap.translation_to(0.35 + 0.25j) @ MobiusMap.rotation(0.9)
        e_before = kinetic_energy(z, p)
        e_after = kinetic_energy(m(z), m.push_forward(z, p))
        assert_allclose(e_after, e_before, rtol=1e-11, atol=1e-14)

    def test_exact_inverse_under_coarse_ambient_precision(self):
        # structural ops must not round to whoever's working precision is
        # ambient at call time
        group = bolza_group(60)
        g = group.element(2)
        with mp.workdps(5):
            gi = g.inverse()
        with mp.workdps(60):
            ident = g @ gi
            assert abs(ident.a - 1) < mp.mpf(10) ** -55
            assert abs(ident.b) < mp.mpf(10) ** -55


class TestFundamentalOctagon:
    def test_arc_circles_orthogonal_to_boundary(self):
        oct8 = FundamentalOctagon()
        assert_allclose(oct8.c ** 2 - oct8.r ** 2, 1.0, rtol=1e-14)

    def test_vertex_radius(self):
        assert_allclose(FundamentalOctagon().vertex_radius, 2 ** -0.25,
                        rtol=1e-15)

    def test_contains_origin_and_vertex(self):
        oct8 = FundamentalOctagon()
        assert oct8.contains(0j)
        # vertices are on the boundary of the closed domain
        vertex = 2 ** -0.25 * np.exp(1j * math.pi / 8)
        assert oct8.contains(vertex)

    def test_excludes_far_points(self):
        oct8 = FundamentalOctagon()
        assert not oct8.contains(0.95 + 0j)

    def test_min_depth_sign(self):
        oct8 = FundamentalOctagon()
        assert oct8.min_depth(0j) > 0
        assert oct8.min_depth(0.9 + 0j) < 0


class TestBolzaGroup:
    def test_translation_length(self):
        # a hyperbolic [[a, b], [conj b, conj a]] translates by 2 acosh |a|
        g = BolzaGroup()
        for mu in range(1, 5):
            assert_allclose(2 * math.acosh(abs(g.element(mu).a)),
                            TRANSLATION_LENGTH, rtol=1e-15)

    def test_double_generators_are_the_math_ones(self):
        # without digits the mpmath formula runs at 53 bits and rounds to
        # the doubles math and cmath give; the propagator picks its side
        # pairings with these
        a0 = complex(1 + math.sqrt(2))
        b0 = math.sqrt(2 + 2 * math.sqrt(2))
        for mu in range(1, 5):
            g = BolzaGroup().element(mu)
            phase = cmath.exp(1j * math.pi * (mu - 1) / 4)
            assert (g.a, g.b) == (a0, b0 * phase)

    def test_generator_translates_origin_by_length(self):
        # d(0, z) = 2 atanh |z|
        g = BolzaGroup()
        img = g.element(1)(0j)
        assert_allclose(2 * math.atanh(abs(img)), TRANSLATION_LENGTH,
                        rtol=1e-12)

    def test_inverse_elements(self):
        g = BolzaGroup()
        z = 0.2 + 0.1j
        assert_allclose(complex(g.element(-3)(g.element(3)(z))), z, atol=1e-13)

    def test_word_map_application_order(self):
        g = BolzaGroup()
        z = 0.15 - 0.05j
        via_word = g.word_map([1, -2])(z)
        by_hand = g.element(1)(g.element(-2)(z))
        assert_allclose(complex(via_word), complex(by_hand), atol=1e-13)

    def test_relation_product_is_plus_minus_identity(self):
        rel = BolzaGroup().relation_product()
        assert min(abs(rel.a - 1), abs(rel.a + 1)) < 1e-12
        assert abs(rel.b) < 1e-12

    def test_group_cache(self):
        assert bolza_group(40) is bolza_group(40)
        assert bolza_group(40) is not bolza_group(41)


"""The numpy float kernel against its oracle, repr of each double."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geodrive.shortest import WIDTH, slots


def texts(x):
    """The text of each row of slots(x)."""
    rows = slots(np.ascontiguousarray(x, dtype=np.float64))
    assert rows.shape == (len(x), WIDTH) and not rows[:, -1].any()
    return [row[row != 0].tobytes().decode() for row in rows]


def check(x):
    x = np.asarray(x, dtype=np.float64)
    expected = [repr(v) for v in x.tolist()]
    got = texts(x)
    wrong = [(e, g) for e, g in zip(expected, got) if e != g]
    assert not wrong, f"{len(wrong)} of {len(x)} differ, e.g. {wrong[:5]}"


def from_bits(bits):
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


def near(values, ulps):
    """Each double of values and its `ulps` neighbours on either side, as
    doubles of both signs."""
    bits = np.asarray(values, dtype=np.float64).view(np.int64)
    steps = np.arange(-ulps, ulps + 1)
    x = (bits[:, None] + steps).ravel().view(np.float64)
    return np.concatenate([x, -x])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
def test_any_bit_pattern(bits):
    check(from_bits(bits))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(1, 2 ** 52 - 1), min_size=1, max_size=16),
       st.booleans())
def test_nan_payloads_of_either_sign(payloads, negative):
    sign = 2 ** 63 if negative else 0
    x = from_bits([sign | 0x7FF << 52 | p for p in payloads])
    assert np.isnan(x).all()
    assert texts(x) == ["nan"] * len(x)


def test_special_values():
    check([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
           1e-323, 8e-323, 2.2250738585072014e-308, 2.225073858507201e-308,
           1.7976931348623157e308, 0.1, 1 / 3, 1.0, 100.0, 1e22, 1e23])


def test_every_power_of_two_and_its_neighbours():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    check(near(powers[1:], 1))
    check(near(powers[:1], 0))
    check(np.nextafter(powers[:1], 1.0))


def test_first_subnormals():
    check(from_bits(np.arange(1, 300_001)))


def test_random_subnormals():
    rng = np.random.default_rng(1)
    check(from_bits(rng.integers(1, 2 ** 52, 50_000, dtype=np.uint64)))


def test_integers_near_2_53_and_10_16():
    check(near([2.0 ** 53, 1e16], 3000))
    check(np.arange(2 ** 53 - 3000, 2 ** 53 + 3000, dtype=np.int64)
          .astype(np.float64))


@pytest.mark.parametrize("switch", [1e16, 9999999999999998.0, 1e-4, 1e-5])
def test_layout_switch_points(switch):
    # repr is positional for -4 < decpt <= 16, exponential outside
    check(near([switch], 200))
    check(near([switch * 10 ** j for j in (-1, 1)], 50))


def test_short_decimals_and_integers():
    rng = np.random.default_rng(2)
    check(np.round(rng.standard_normal(50_000) * 1000, 3))
    check(np.arange(-5000, 5000) * 0.02)
    check(rng.integers(-10 ** 15, 10 ** 15, 20_000).astype(np.float64))
    check(10.0 ** np.arange(-323, 309))


def test_float32_inputs():
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2 ** 32, 50_000, dtype=np.uint64)
    x32 = bits.astype(np.uint32).view(np.float32)
    expected = [repr(float(v)) for v in x32]
    with np.errstate(invalid="ignore"):  # signalling NaNs are quieted
        assert texts(x32.astype(np.float64)) == expected


def test_random_doubles_of_every_scale():
    rng = np.random.default_rng(4)
    check(rng.standard_normal(100_000)
          * 10.0 ** rng.integers(-300, 300, 100_000))


def test_empty_and_strided():
    assert texts(np.empty(0)) == []
    x = np.random.default_rng(5).standard_normal((400, 3))
    rows = slots(x[:, 1])
    assert [row[row != 0].tobytes().decode() for row in rows] == \
        [repr(v) for v in x[:, 1].tolist()]

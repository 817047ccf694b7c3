"""Scalar tail and entropy primitives against high-precision references."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from sqcap.tailmath import (
    CLAMP_FLOOR,
    TAIL_TINY,
    _INV_SQRT2,
    _deep_tail,
    binary_entropy,
    clamp_small_probabilities,
    q_array,
    q_diff,
    q_diff_array,
    q_function,
    underflow_clamps,
)

mpmath.mp.dps = 50


def mp_q(x):
    return float(mpmath.ncdf(-mpmath.mpf(x)))


def mp_q_diff(a, b):
    a, b = mpmath.mpf(a), mpmath.mpf(b)
    return float(mpmath.ncdf(-a) - mpmath.ncdf(-b))


def test_q_known_points():
    assert q_function(0.0) == 0.5
    assert q_function(1.0) == pytest.approx(0.15865525393145705141, rel=1e-15)
    assert q_function(0.5) == pytest.approx(0.30853753872598689636, rel=1e-15)
    assert q_function(-1.0) == pytest.approx(1.0 - 0.15865525393145705141, rel=1e-15)


def test_q_deep_tail():
    assert q_function(8.0) == pytest.approx(6.2209605742717841235e-16, rel=1e-13)
    assert q_function(9.0) == pytest.approx(1.1285884059538406477e-19, rel=1e-13)
    assert q_function(40.0) == pytest.approx(mp_q(40), rel=1e-12)
    assert q_function(-40.0) == 1.0


@given(st.floats(-38.0, 38.0))
@settings(max_examples=300)
def test_q_matches_reference(x):
    # exp(-x^2/2) alone carries ~(x^2/2)*eps relative error deep in the tail
    ref = mp_q(x)
    assert q_function(x) == pytest.approx(ref, rel=5e-13, abs=5e-320)


def test_q_array_matches_scalar():
    xs = np.array([-3.0, -0.2, 0.0, 1.7, 12.0])
    np.testing.assert_allclose(q_array(xs), [q_function(v) for v in xs], rtol=1e-13)
    # 0-d input past the float64 underflow of erfc still gets the deep tail
    for x in (38.0, 40.0):
        got = float(q_array(x))
        assert got > 0.0
        assert got == q_function(x)


def _q_array_per_element(x):
    # the rescue q_array replaced: every erfc zero through _deep_tail
    x = np.asarray(x, dtype=np.float64)
    v = np.asarray(0.5 * special.erfc(x * _INV_SQRT2))
    for i in np.flatnonzero(v == 0.0):
        v.flat[i] = _deep_tail(float(x.flat[i]))
    return v


def test_q_array_floor_matches_per_element_rescue():
    edge = math.sqrt(1490.0)  # x^2/2 = 745, where exp(-x^2/2) underflows
    xs = [37.5, 38.0, math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf),
          40.0, 1e3, -40.0, 0.0, 5.0]
    for x in [np.array(xs), np.array(xs[::-1]).reshape(2, 5)] + [np.float64(v) for v in xs]:
        got, want = q_array(x), _q_array_per_element(x)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        if x.ndim == 0:  # q_function is the scalar entry of q_array
            assert type(q_function(x)) is float and q_function(x) == float(want)
    assert q_array(1e3) == TAIL_TINY and q_array(38.0) > TAIL_TINY


def test_q_diff_well_separated():
    assert q_diff(-0.5, 0.5) == pytest.approx(0.38292492254802620728, rel=1e-15)
    assert q_diff(8.0, 9.0) == pytest.approx(6.2198319858658302829e-16, rel=1e-13)


def test_q_diff_close_arguments_keeps_precision():
    # naive subtraction loses every significant digit here
    for a, d in [(5.0, 1e-9), (10.0, 1e-10), (20.0, 1e-12), (3.0, 1e-13)]:
        ref = mp_q_diff(a, a + d)
        assert q_diff(a, a + d) == pytest.approx(ref, rel=1e-9)


@given(
    st.floats(-30.0, 30.0),
    st.floats(1e-14, 10.0),
)
@settings(max_examples=300)
def test_q_diff_positive_and_bounded(a, width):
    b = a + width
    val = q_diff(a, b)
    assert 0.0 <= val <= 1.0
    assert val <= q_function(a) + 1e-300


def test_q_diff_array_shape_and_values():
    a = np.array([[-1.0, 0.0], [2.0, 5.0]])
    b = a + 0.5
    got = q_diff_array(a, b)
    want = np.array([[q_diff(-1.0, -0.5), q_diff(0.0, 0.5)], [q_diff(2.0, 2.5), q_diff(5.0, 5.5)]])
    np.testing.assert_allclose(got, want, rtol=1e-14)


def test_binary_entropy_endpoints_and_symmetry():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.11) == pytest.approx(0.49991595816452799564, rel=1e-15)
    for p in [1e-12, 1e-5, 0.3, 0.4999, 0.123456]:
        assert binary_entropy(p) == binary_entropy(1.0 - p)


@given(st.floats(0.0, 1.0))
@settings(max_examples=300)
def test_binary_entropy_range(p):
    h = binary_entropy(p)
    assert 0.0 <= h <= 1.0


def test_binary_entropy_matches_reference():
    for p in [1e-300, 1e-17, 1e-9, 0.01, 0.25, 0.5]:
        mp_p = mpmath.mpf(p)
        if p in (0.0, 1.0):
            ref = 0.0
        else:
            ref = float(
                -(mp_p * mpmath.log(mp_p, 2) + (1 - mp_p) * mpmath.log(1 - mp_p, 2))
            )
        assert binary_entropy(p) == pytest.approx(ref, rel=1e-13)


def test_binary_entropy_rejects_outside_unit_interval():
    with pytest.raises(ValueError):
        binary_entropy(-0.1)
    with pytest.raises(ValueError):
        binary_entropy(1.0000001)


def test_clamp_zeroes_subfloor_values_and_counts():
    before = underflow_clamps.count
    arr = np.array([0.5, 1e-310, 0.0, 2e-300])
    out = clamp_small_probabilities(arr)
    assert out[0] == 0.5
    assert out[1] == 0.0  # below CLAMP_FLOOR: flushed to an exact zero
    assert out[2] == 0.0  # already zero: untouched, not counted
    assert out[3] == 2e-300
    assert underflow_clamps.count == before + 1
    assert arr[1] == 1e-310  # input array is not modified

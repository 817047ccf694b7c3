"""Scalar tail and entropy primitives against high-precision references."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from sqcap.dmc import quantizer_transition
from sqcap.tailmath import (
    _CANCEL_GUARD,
    CLAMP_FLOOR,
    TAIL_TINY,
    _INV_SQRT2,
    _deep_tail,
    _interval_mass_quad,
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


def _per_side_q_diff_array(a, b):
    # the interval masses before the one-pass kernel: each side's tails read
    # by their own q_array calls, the left side mirrored onto the right
    a, b = np.broadcast_arrays(np.asarray(a, np.float64), np.asarray(b, np.float64))
    out = np.empty(a.shape, dtype=np.float64)
    straddle = (a <= 0.0) & (b >= 0.0)
    if np.any(straddle):
        out[straddle] = 0.5 * (
            special.erf(b[straddle] * _INV_SQRT2) - special.erf(a[straddle] * _INV_SQRT2)
        )
    right = a > 0.0
    if np.any(right):
        out[right] = _per_side_tail_diff(a[right], b[right])
    left = b < 0.0
    if np.any(left):
        out[left] = _per_side_tail_diff(-b[left], -a[left])
    return np.maximum(out, 0.0)


def _per_side_tail_diff(lo, hi):
    qlo = q_array(lo)
    d = qlo - q_array(hi)
    for i in np.flatnonzero(d < _CANCEL_GUARD * qlo):
        d[i] = _interval_mass_quad(float(lo[i]), float(hi[i]))
    return d


def _per_column_transition(points, thresholds, gain, noise_std):
    # quantizer_transition's probabilities before the one-pass kernel: the
    # edge cells and the interior intervals by three separate calls
    x, t = np.asarray(points, np.float64), np.asarray(thresholds, np.float64)
    z = (t[np.newaxis, :] - gain * x[:, np.newaxis]) / noise_std
    probs = np.empty((x.size, t.size + 1))
    probs[:, 0] = q_array(-z[:, 0])
    if t.size > 1:
        if not np.all(np.isfinite(z)):
            raise ValueError("q_diff_array needs finite endpoints")
        probs[:, 1:-1] = _per_side_q_diff_array(z[:, :-1], z[:, 1:])
    probs[:, -1] = q_array(z[:, -1])
    return clamp_small_probabilities(probs)


_WIDTHS = st.one_of(st.just(0.0), st.floats(1e-15, 1e-6), st.floats(1e-6, 20.0))


@given(st.lists(st.tuples(st.floats(-45.0, 45.0), _WIDTHS), min_size=1, max_size=12))
@example([(-1.0, 3.0), (0.0, 2.0), (-2.0, 2.0), (-0.0, 0.0)])  # straddling
@example([(2.0, 1.0), (8.0, 1.0), (-3.0, 1.0), (-9.0, 1.0)])  # one-sided, each side
@example([(5.0, 1e-9), (-5.0 - 1e-9, 1e-9), (20.0, 1e-12), (-3.0, 1e-13)])  # quadrature rescue
@example([(37.6, 0.6), (-38.5, 0.8), (37.5, 1e-10), (38.0, 0.5)])  # erfc underflows to 0
@example([(38.7, 1.3), (-41.0, 2.0), (39.0, 1e-9), (44.0, 0.0)])  # past the floor
@settings(max_examples=300, deadline=None)
def test_q_diff_is_the_per_side_oracle_bit_for_bit(pairs):
    a = np.array([p[0] for p in pairs])
    b = a + np.array([p[1] for p in pairs])
    want = _per_side_q_diff_array(a, b)
    assert q_diff_array(a, b).tobytes() == want.tobytes()
    if a.size % 2 == 0:
        shape = (2, a.size // 2)
        got = q_diff_array(a.reshape(shape), b.reshape(shape))
        assert got.shape == shape and got.tobytes() == want.tobytes()
    for ai, bi, wi in zip(a, b, want):
        assert q_diff(ai, bi) == wi
        assert type(q_diff_array(ai, bi)) is type(_per_side_q_diff_array(ai, bi)) is np.float64


_GRIDS = st.lists(st.floats(-45.0, 45.0), min_size=1, max_size=12, unique=True).map(sorted)


@given(
    st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=6),
    st.one_of(_GRIDS, st.tuples(st.floats(-45.0, 45.0), st.floats(1e-12, 1e-5), st.integers(1, 8))
              .map(lambda s: [s[0] + k * s[1] for k in range(s[2])])),
    st.floats(-4.0, 4.0),
    st.floats(0.02, 4.0),
)
@example([0.0, 1.0], [-1.0, 0.0, 1.0], 1.0, 1.0)  # straddling cells
@example([0.0], [5.0, 5.0 + 1e-9, 5.0 + 2e-9], 1.0, 1.0)  # rescued right cells
@example([0.0], [-5.0 - 2e-9, -5.0 - 1e-9, -5.0], 1.0, 1.0)  # rescued left cells
@example([0.0], [-38.5, -37.6, 37.6, 38.5], 1.0, 1.0)  # erfc underflow on both sides
@example([0.0], [-44.0, -40.0, 40.0, 44.0], 1.0, 1.0)  # floored tails
@example([0.0, 1.0], [-1.0, 37.5, 38.2], 1.0, 1.0)  # subnormal cells clamped to zero
@settings(max_examples=300, deadline=None)
def test_quantizer_transition_is_the_per_column_oracle_bit_for_bit(points, thresholds, gain, std):
    if any(u >= v for u, v in zip(thresholds, thresholds[1:])):
        return  # a step below the spacing of floats: not strictly increasing
    c0 = underflow_clamps.count
    got = quantizer_transition(points, thresholds, gain, std).probs
    c1 = underflow_clamps.count
    want = _per_column_transition(points, thresholds, gain, std)
    assert got.tobytes() == want.tobytes()
    assert c1 - c0 == underflow_clamps.count - c1


@pytest.mark.parametrize(
    "thresholds, message",
    [
        ([-1e300, 0.0], "q_array needs finite arguments"),  # the first cell's tail
        ([1e300], "q_array needs finite arguments"),
        ([0.0, 1e300], "q_diff_array needs finite endpoints"),  # an interior column
        ([-1.0, 0.0, 1e300], "q_diff_array needs finite endpoints"),
    ],
)
def test_quantizer_transition_overflow_reads_as_the_per_column_calls(thresholds, message):
    for build in (quantizer_transition, _per_column_transition):
        with np.errstate(over="ignore"), pytest.raises(ValueError) as err:
            build([0.0, 1.0], thresholds, 1.0, 1e-10)
        assert str(err.value) == message


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

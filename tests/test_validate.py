"""Vector and probability checks at their edges: NaN, infinities, signed and
subnormal zeros, empty and unsorted input, each with its message."""

import numpy as np
import pytest

from sqcap._validate import _check_probabilities, _check_vector

NAN, INF = float("nan"), float("inf")
SMALLEST_NORMAL = 2.0**-1022  # np.finfo(float).tiny: its reciprocal is finite
RECIP_MAX = 1 / 1.7976931348623157e308  # a subnormal whose reciprocal rounds to inf

FINITE = "gains must be finite"
POSITIVE = "gains must be positive finite"
SORTED = "gains must be sorted nonincreasing"


def _recip(value):
    return f"gains must have finite reciprocals, got {value!r}"


# values -> the outcome of (plain, positive, nonincreasing, positive and nonincreasing)
VECTOR_CASES = {
    "nan-last": ([1.0, NAN], (FINITE, POSITIVE, FINITE, POSITIVE)),
    "nan-only": ([NAN], (FINITE, POSITIVE, FINITE, POSITIVE)),
    "plus-inf": ([INF, 1.0], (FINITE, POSITIVE, FINITE, POSITIVE)),
    "minus-inf": ([2.0, -INF], (FINITE, POSITIVE, FINITE, POSITIVE)),
    "zero": ([1.0, 0.0], (None, POSITIVE, None, POSITIVE)),
    "minus-zero": ([1.0, -0.0], (None, POSITIVE, None, POSITIVE)),
    "negative": ([3.0, -1.0], (None, POSITIVE, None, POSITIVE)),
    "smallest-subnormal": ([1.0, 5e-324], (None, _recip(5e-324), None, _recip(5e-324))),
    "reciprocal-of-max": ([1.0, RECIP_MAX], (None, _recip(RECIP_MAX), None, _recip(RECIP_MAX))),
    "first-overflowing-named": ([1.0, 1e-320, 5e-324], (None, _recip(1e-320), None, _recip(1e-320))),
    "smallest-normal": ([1.0, SMALLEST_NORMAL], (None, None, None, None)),
    "unsorted": ([1.0, 2.0], (None, None, SORTED, SORTED)),
    "unsorted-then-nan": ([1.0, 2.0, NAN], (FINITE, POSITIVE, FINITE, POSITIVE)),
    "ties": ([3.0, 3.0, 1.0], (None, None, None, None)),
    "empty": ([], tuple(
        f"gains must be 1-D, nonempty and {kind}, got shape (0,)"
        for kind in ("finite", "positive finite", "finite", "positive finite")
    )),
    "two-d": ([[1.0, 2.0]], tuple(
        f"gains must be 1-D, nonempty and {kind}, got shape (1, 2)"
        for kind in ("finite", "positive finite", "finite", "positive finite")
    )),
    "scalar": (2.0, tuple(
        f"gains must be 1-D, nonempty and {kind}, got shape ()"
        for kind in ("finite", "positive finite", "finite", "positive finite")
    )),
}

FLAGS = (
    {},
    {"positive": True},
    {"nonincreasing": True},
    {"positive": True, "nonincreasing": True},
)


@pytest.mark.parametrize("values, outcomes", VECTOR_CASES.values(), ids=VECTOR_CASES)
def test_check_vector_edges(values, outcomes):
    for flags, message in zip(FLAGS, outcomes):
        if message is None:
            v = _check_vector(values, "gains", **flags)
            assert v.dtype == np.float64
            np.testing.assert_array_equal(v, values)
        else:
            with pytest.raises(ValueError) as err:
                _check_vector(values, "gains", **flags)
            assert str(err.value) == message, flags


PROBABILITY_CASES = {
    "nan": ([0.5, NAN], False),
    "plus-inf": ([INF], False),
    "minus-inf": ([-INF], False),
    "negative-tiny": ([-1e-300], False),
    "nan-in-matrix": ([[0.2, 0.8], [1.0, NAN]], False),
    "minus-zero": ([-0.0, 1.0], True),
    "subnormal": ([0.0, 5e-324], True),
    "empty": ([], True),
    "empty-matrix": (np.zeros((0, 3)), True),
    "scalar": (0.5, True),
}


@pytest.mark.parametrize("values, valid", PROBABILITY_CASES.values(), ids=PROBABILITY_CASES)
def test_check_probabilities_edges(values, valid):
    if valid:
        p = _check_probabilities(values, "p")
        assert p.dtype == np.float64
        np.testing.assert_array_equal(p, values)
    else:
        with pytest.raises(ValueError) as err:
            _check_probabilities(values, "p")
        assert str(err.value) == "p must be finite and nonnegative"

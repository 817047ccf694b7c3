"""Argument checks and read-only arrays shared by every module; imports nothing of ``sqcap``.

Each argument rule is stated here once: a positive integer count, a Philox
seed word, a finite nonnegative (or positive) real, a nonempty 1-D finite
vector (positive with finite reciprocals, and in nonincreasing order, if
asked), and a finite nonnegative probability array.
"""

import math

import numpy as np

__all__: list = []

#: The smallest normal float: its reciprocal, and that of every larger float, is finite.
_TINY = 2.0**-1022


def _frozen(values) -> np.ndarray:
    """A read-only float64 copy of ``values``."""
    arr = np.array(values, dtype=np.float64)
    arr.setflags(write=False)
    return arr


def _as_int(value):
    """``value`` as an int when it equals one exactly and is no boolean, else None."""
    if isinstance(value, (bool, np.bool_)):  # JSON true is no count
        return None
    try:
        n = int(value)
    except (OverflowError, ValueError):  # inf, nan, non-numeric text
        return None
    return n if n == value else None


def _check_count(value, name: str) -> int:
    n = _as_int(value)
    if n is None or n < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return n


def _check_seed(value, name: str = "seed") -> int:
    """A Philox key word: an integer in [0, 2**64)."""
    n = _as_int(value)
    if n is None or not 0 <= n < 2**64:
        raise ValueError(f"{name} must be an integer in [0, 2**64), got {value!r}")
    return n


def _check_real(value, name: str, positive: bool = False) -> float:
    """``value`` as a finite float, above 0 if ``positive`` is set, else at least 0."""
    x = float(value)
    if not (math.isfinite(x) and (x > 0 if positive else x >= 0)):
        kind = "positive and finite" if positive else "finite and nonnegative"
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return x


def _check_vector(
    values, name: str, positive: bool = False, nonincreasing: bool = False
) -> np.ndarray:
    """``values`` as a 1-D, nonempty, finite float64 array, positive with
    finite reciprocals and sorted nonincreasing if asked.

    A fixed number of whole-array reductions: NaN carries through ``min``
    and ``max``, so both are finite only if every entry is, and only a
    minimum below the smallest normal float can have an infinite reciprocal.
    """
    v = np.asarray(values, dtype=np.float64)
    kind = "positive finite" if positive else "finite"
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"{name} must be 1-D, nonempty and {kind}, got shape {v.shape}")
    lo, hi = v.min(), v.max()
    if not (math.isfinite(lo) and math.isfinite(hi)) or (positive and lo <= 0):
        raise ValueError(f"{name} must be {kind}")
    if positive and lo < _TINY:
        with np.errstate(over="ignore"):
            tiny = v[np.isinf(1.0 / v)]
        if tiny.size:
            raise ValueError(f"{name} must have finite reciprocals, got {float(tiny[0])!r}")
    if nonincreasing and (v[1:] > v[:-1]).any():
        raise ValueError(f"{name} must be sorted nonincreasing")
    return v


def _check_probabilities(values, name: str) -> np.ndarray:
    """``values`` as a finite, nonnegative float64 array; an empty one passes."""
    p = np.asarray(values, dtype=np.float64)
    if p.size and not (p.min() >= 0 and p.max() < math.inf):  # NaN fails both
        raise ValueError(f"{name} must be finite and nonnegative")
    return p

"""Argument checks and read-only arrays shared by every module; imports nothing of ``sqcap``."""

import numpy as np

__all__: list = []


def _frozen(values) -> np.ndarray:
    """A read-only float64 copy of ``values``."""
    arr = np.array(values, dtype=np.float64)
    arr.setflags(write=False)
    return arr


def _as_int(value):
    """``value`` as an int when it equals one exactly, else None."""
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

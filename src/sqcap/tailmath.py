"""Numerically careful Gaussian tail and binary entropy primitives.

Probabilities are plain floats in [0, 1] and entropies are in bits.  The
Gaussian tail is always evaluated through the complementary error function,
so no expression of the form 1 - CDF(x) is ever formed.  Finite arguments
keep a positive tail value down to the smallest subnormal instead of
flushing to zero; probabilities are clamped to exact zero only by explicit
callers of :func:`clamp_small_probabilities`, and every such clamp is
recorded in :data:`underflow_clamps`.

All functions here are pure; the clamp counter is the only shared state and
it is lock protected, so everything is safe to call from multiple threads.
"""

from __future__ import annotations

import math
import threading

import numpy as np

__all__ = [
    "CLAMP_FLOOR",
    "TAIL_TINY",
    "binary_entropy",
    "clamp_small_probabilities",
    "q_array",
    "q_diff",
    "q_diff_array",
    "q_function",
    "underflow_clamps",
]

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

#: Smallest positive subnormal, returned for finite arguments whose true
#: tail probability underflows float64 entirely (x beyond roughly 38.4).
TAIL_TINY = math.ulp(0.0)

#: Threshold below which assembled probabilities are clamped to exact zero.
CLAMP_FLOOR = 1e-300

# 64 Gauss-Legendre nodes integrate the Gaussian density to full float64
# accuracy over any interval narrow enough to trigger the rescue branch.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)

# Relative cancellation loss tolerated before q_diff switches to quadrature.
_CANCEL_GUARD = 1e-6

# x^2/2 from which exp(-x^2/2) underflows float64 and the tail is floored.
_EXP_UNDERFLOW = 745.0


class _ClampCounter:
    """Thread-safe count of probabilities clamped to zero."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._count = 0

    def bump(self, n: int = 1) -> None:
        with self._lock:
            self._count += int(n)

    @property
    def count(self) -> int:
        return self._count


#: Diagnostics counter; see :func:`clamp_small_probabilities`.
underflow_clamps = _ClampCounter()


def _deep_tail(x: float) -> float:
    # Scaled-complementary form erfcx(t) * exp(-x^2/2) reaches the subnormal
    # range that plain erfc cannot; past that the value is floored so the
    # tail stays positive for every finite argument.
    t = 0.5 * x * x
    if t < _EXP_UNDERFLOW:
        from scipy import special

        v = 0.5 * special.erfcx(x * _INV_SQRT2) * math.exp(-t)
        if v > 0.0:
            return v
    return TAIL_TINY


def q_function(x: float) -> float:
    """Standard Gaussian upper-tail probability Q(x) = P[Z > x].

    Scalar entry point of :func:`q_array`, which states the accuracy and
    the deep-tail floor.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"q_function needs a finite argument, got {x!r}")
    return float(q_array(x))


def _interval_mass_quad(a: float, b: float) -> float:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    xs = mid + half * _GL_NODES
    return float(half * _INV_SQRT_2PI * np.dot(_GL_WEIGHTS, np.exp(-0.5 * xs * xs)))


def q_diff(a: float, b: float) -> float:
    """Gaussian interval mass Q(a) - Q(b) for a <= b, always >= 0.

    Scalar entry point of :func:`q_diff_array`, which documents the
    stability branches.
    """
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"q_diff needs finite endpoints, got a={a!r} b={b!r}")
    if a > b:
        raise ValueError(f"q_diff needs a <= b, got a={a!r} b={b!r}")
    return float(q_diff_array(a, b))


def binary_entropy(p: float) -> float:
    """Entropy in bits of a Bernoulli(p) source; 0 at p in {0, 1}.

    The pair (p, 1 - p) is canonicalised through its larger member, whose
    complement is exact in floating point, so binary_entropy(p) and
    binary_entropy(1 - p) return bit-identical results.
    """
    p = float(p)
    if math.isnan(p) or not 0.0 <= p <= 1.0:
        raise ValueError(f"binary_entropy needs p in [0, 1], got {p!r}")
    hi = max(p, 1.0 - p)
    lo = 1.0 - hi
    if lo == 0.0:
        return 0.0
    return -(lo * math.log2(lo) + hi * math.log2(hi))


def q_array(x: np.ndarray) -> np.ndarray:
    """Q(x) = P[Z > x] elementwise over a finite float array.

    Relative error is about 1e-13 or better wherever the value is
    representable.  For finite x so deep in the tail that the value
    underflows float64 the smallest positive subnormal is returned.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("q_array needs finite arguments")
    from scipy import special

    # erfc returns a numpy scalar on 0-d input; the rescue needs an array
    v = np.asarray(0.5 * special.erfc(x * _INV_SQRT2))
    zero = v == 0.0
    if zero.any():
        # past exp's underflow _deep_tail can only return the floor, so
        # only the zeros short of it take the per-element erfcx form
        with np.errstate(over="ignore"):  # x * x is inf past 1.3e154: still the floor
            floor = zero & (0.5 * x * x >= _EXP_UNDERFLOW)
        v[floor] = TAIL_TINY
        for i in np.flatnonzero(zero & ~floor):
            v.flat[i] = _deep_tail(float(x.flat[i]))
    return v


def q_diff_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gaussian interval masses Q(a) - Q(b) for a <= b elementwise, all >= 0.

    Straddling intervals are summed as two half masses meeting at zero, so
    nothing cancels.  One-sided intervals subtract paired tail values on the
    side where both are small; if that subtraction would lose more than six
    digits the mass is recomputed by Gauss-Legendre integration of the
    density over [a, b].
    """
    a, b = np.broadcast_arrays(np.asarray(a, np.float64), np.asarray(b, np.float64))
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("q_diff_array needs finite endpoints")
    if np.any(a > b):
        raise ValueError("q_diff_array needs a <= b elementwise")
    out = np.empty(a.shape, dtype=np.float64)

    straddle = (a <= 0.0) & (b >= 0.0)
    if np.any(straddle):
        from scipy import special

        out[straddle] = 0.5 * (
            special.erf(b[straddle] * _INV_SQRT2) - special.erf(a[straddle] * _INV_SQRT2)
        )

    right = a > 0.0
    if np.any(right):
        out[right] = _tail_side_diff(a[right], b[right])
    left = b < 0.0
    if np.any(left):
        # Q(a) - Q(b) = Q(-b) - Q(-a), mirrored onto the right tail
        out[left] = _tail_side_diff(-b[left], -a[left])

    return np.maximum(out, 0.0)


def _tail_side_diff(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    # both endpoints positive: tails are small on this side, so the paired
    # subtraction is safe unless the interval is very narrow
    qlo = q_array(lo)
    d = qlo - q_array(hi)
    for i in np.flatnonzero(d < _CANCEL_GUARD * qlo):
        d[i] = _interval_mass_quad(float(lo[i]), float(hi[i]))
    return d


def clamp_small_probabilities(p: np.ndarray) -> np.ndarray:
    """Zero out magnitudes below :data:`CLAMP_FLOOR`, recording each clamp.

    Returns a new array; the input is not modified.
    """
    p = np.asarray(p, dtype=np.float64)
    small = (p != 0.0) & (np.abs(p) < CLAMP_FLOOR)
    n = int(np.count_nonzero(small))
    if n == 0:
        return p.copy()
    underflow_clamps.bump(n)
    return np.where(small, 0.0, p)

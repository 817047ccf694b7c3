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
    return _tail(x)


def _tail(x: np.ndarray) -> np.ndarray:
    # q_array on a finite float64 array, unchecked
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
    # [()] turns a 0-d result into the numpy scalar np.maximum gives 0-d input
    return _interval_masses(np.stack((a, b), axis=-1))[..., 0][()]


def _interval_masses(z: np.ndarray) -> np.ndarray:
    """Masses Q(z[..., k]) - Q(z[..., k + 1]) of the intervals between neighbours in z.

    z is finite and nondecreasing along its last axis.  Each endpoint's tail
    is read once, as Q(|z|): a right-side interval (0 < a) subtracts
    Q(a) - Q(b), a left-side one (b < 0) its mirror image Q(|b|) - Q(|a|),
    and only intervals that straddle 0 take erf.  A one-sided subtraction
    that keeps fewer than six digits of the nearer tail is recomputed by
    quadrature over the interval, mirrored onto the right side.
    """
    a, b = z[..., :-1], z[..., 1:]
    q = _tail(np.abs(z))
    qa, qb = q[..., :-1], q[..., 1:]
    left = b < 0.0
    # on each side the endpoint nearer 0 has the larger tail
    near = np.where(left, qb, qa)
    d = near - np.where(left, qa, qb)
    straddle = (a <= 0.0) & (b >= 0.0)
    if straddle.any():
        from scipy import special

        d[straddle] = 0.5 * (
            special.erf(b[straddle] * _INV_SQRT2) - special.erf(a[straddle] * _INV_SQRT2)
        )
    for i in np.flatnonzero((d < _CANCEL_GUARD * near) & ~straddle):
        lo, hi = float(a.flat[i]), float(b.flat[i])
        d.flat[i] = _interval_mass_quad(-hi, -lo) if hi < 0.0 else _interval_mass_quad(lo, hi)
    return np.maximum(d, 0.0)


def _cell_masses(z: np.ndarray) -> np.ndarray:
    """Gaussian masses of the cells (-inf, z_0], (z_0, z_1], ..., (z_last, inf) of each row of z.

    z is nondecreasing along its last axis.  The interior cells are
    :func:`_interval_masses` of the whole grid and the two edge cells one
    tail call; a non-finite first column fails as q_array's argument, any
    other as q_diff_array's endpoint.
    """
    finite = np.isfinite(z)
    if not finite.all():
        if not finite[..., 0].all():
            raise ValueError("q_array needs finite arguments")
        raise ValueError("q_diff_array needs finite endpoints")
    out = np.empty(z.shape[:-1] + (z.shape[-1] + 1,))
    edges = _tail(np.stack((-z[..., 0], z[..., -1])))
    out[..., 0], out[..., -1] = edges
    if z.shape[-1] > 1:
        out[..., 1:-1] = _interval_masses(z)
    return out


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

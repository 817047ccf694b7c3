"""Discrete memoryless channels induced by threshold quantizers.

The channel of interest is scalar: a point x is scaled by a gain, Gaussian
noise is added, and the result is binned by a strictly increasing threshold
partition.  ``quantizer_transition`` builds that law exactly from tail
differences, ``mutual_information`` evaluates I(X; Y) without smoothing, and
``blahut_arimoto`` maximizes it over input distributions with a certified
additive stopping gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._validate import _check_count, _check_probabilities, _check_real, _check_vector, _frozen
from .tailmath import _cell_masses, clamp_small_probabilities

__all__ = [
    "ConvergenceError",
    "InputDistribution",
    "TransitionMatrix",
    "blahut_arimoto",
    "entropy_bits",
    "mutual_information",
    "output_marginal",
    "quantizer_transition",
]

_ROW_SUM_TOL = 1e-12
_LN2 = math.log(2.0)


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Row-stochastic matrix, probs[m, j] = P(Y = j | X = m)."""

    probs: np.ndarray

    def __post_init__(self):
        p = _frozen(self.probs)
        if p.ndim != 2 or p.shape[0] < 1 or p.shape[1] < 1:
            raise ValueError(f"transition matrix must be 2-D and nonempty, got shape {p.shape}")
        _check_probabilities(p, "transition probabilities")
        worst = np.max(np.abs(p.sum(axis=1) - 1.0))
        if worst > _ROW_SUM_TOL:
            raise ValueError(f"row sums deviate from 1 by {worst:.3e} > {_ROW_SUM_TOL:.1e}")
        object.__setattr__(self, "probs", p)

    @property
    def n_inputs(self) -> int:
        return self.probs.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.probs.shape[1]


@dataclass(frozen=True, eq=False)
class InputDistribution:
    """Probability vector over the input alphabet."""

    probs: np.ndarray

    def __post_init__(self):
        p = _frozen(self.probs)
        if p.ndim != 1 or p.size < 1:
            raise ValueError(f"input distribution must be a nonempty vector, got shape {p.shape}")
        _check_probabilities(p, "input probabilities")
        if abs(p.sum() - 1.0) > _ROW_SUM_TOL:
            raise ValueError(f"input probabilities sum to {p.sum()!r}, not 1")
        object.__setattr__(self, "probs", p)

    @classmethod
    def uniform(cls, n: int) -> "InputDistribution":
        n = _check_count(n, "alphabet size")
        return cls(np.full(n, 1.0 / n))


class ConvergenceError(RuntimeError):
    """Raised when the capacity iteration fails to certify its tolerance.

    Carries the best iterate so callers can inspect how far it got.
    """

    def __init__(self, message, rate_bits, input_dist, gap_bits, iterations):
        super().__init__(message)
        self.rate_bits = rate_bits
        self.input_dist = input_dist
        self.gap_bits = gap_bits
        self.iterations = iterations


def quantizer_transition(
    points: np.ndarray, thresholds: np.ndarray, gain: float, noise_std: float
) -> TransitionMatrix:
    """Law of the quantizer cell index given the input point.

    Entry (m, j) is the probability that gain * points[m] + Z lands in the
    j-th cell of the partition (-inf, t_0], (t_0, t_1], ..., (t_last, inf),
    with Z zero-mean Gaussian of deviation noise_std.  Cells are evaluated
    as Gaussian tail differences, so entries keep relative accuracy even
    when the matrix is nearly deterministic.
    """
    x = _check_vector(points, "points")
    t = _check_vector(thresholds, "thresholds")
    if np.any(np.diff(t) <= 0):
        raise ValueError("thresholds must be strictly increasing")
    noise_std = _check_real(noise_std, "noise_std", positive=True)
    if not np.isfinite(gain):
        raise ValueError(f"gain must be finite, got {gain}")

    # z[m, k] = (t_k - gain x_m) / std, increasing along k for every row
    z = (t[np.newaxis, :] - gain * x[:, np.newaxis]) / noise_std
    return TransitionMatrix(clamp_small_probabilities(_cell_masses(z)))


def output_marginal(input_dist: InputDistribution, channel: TransitionMatrix) -> np.ndarray:
    if input_dist.probs.size != channel.n_inputs:
        raise ValueError(
            f"input size {input_dist.probs.size} does not match channel inputs {channel.n_inputs}"
        )
    return input_dist.probs @ channel.probs


def entropy_bits(probs: np.ndarray) -> float:
    """Shannon entropy of a probability vector; zero entries contribute zero."""
    p = _check_probabilities(probs, "probabilities")
    live = p[p > 0]
    return float(-np.sum(live * np.log2(live)))


def _log_positive(w: np.ndarray) -> np.ndarray:
    return np.log(w, out=np.zeros_like(w), where=w > 0)


def _row_divergences(r: np.ndarray, w: np.ndarray, logw: np.ndarray) -> np.ndarray:
    """KL(row || r @ w) in nats per row of w, with logw = _log_positive(w).

    Zero entries contribute zero.  So does a live row's entry at an output
    whose mass r @ w underflows to 0: the entry is below 2^-1074 / r[m], and
    its true term at most w log(1 / r[m]).  A row without mass reaching an
    output with no mass scores +inf.
    """
    py = r @ w
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(w > 0, w * (logw - np.log(py)), 0.0)
    starved = py == 0
    if starved.any():
        terms[np.outer(r > 0, starved)] = 0.0
    return terms.sum(axis=1)


def mutual_information(input_dist: InputDistribution, channel: TransitionMatrix) -> float:
    """Exact I(X; Y) in bits for the given input and transition law."""
    r = input_dist.probs
    w = channel.probs
    if r.size != channel.n_inputs:
        raise ValueError(f"input size {r.size} does not match channel inputs {channel.n_inputs}")
    return _mi_bits(r, w)


def _mi_bits(r: np.ndarray, w: np.ndarray) -> float:
    # unchecked: r a probability vector, w row-stochastic with matching rows
    d = _row_divergences(r, w, _log_positive(w))
    live = r > 0
    return max(float(r[live] @ d[live] / _LN2), 0.0)


def blahut_arimoto(
    channel: TransitionMatrix, tolerance: float = 1e-9, max_iters: int = 10_000
) -> tuple[float, InputDistribution]:
    """Capacity of a DMC in bits, certified within an additive tolerance.

    Iterates the classical alternating maximization from the uniform input.
    After each update the divergence of every row from the current output
    marginal gives an upper capacity functional; the iteration stops once
    max-row-divergence minus current mutual information is at most
    ``tolerance`` bits, which bounds the true gap.  Outputs that no input
    can reach are dropped up front (they carry no information).

    Returns the certified lower value and the final input distribution.
    Raises ConvergenceError carrying the best iterate if the gap is still
    above tolerance after ``max_iters`` updates.
    """
    tolerance = _check_real(tolerance, "tolerance", positive=True)
    max_iters = _check_count(max_iters, "max_iters")
    w_full = channel.probs
    reachable = w_full.sum(axis=0) > 0
    w = w_full[:, reachable]
    n = channel.n_inputs

    logw = _log_positive(w)
    r = np.full(n, 1.0 / n)
    rate_nats = 0.0
    gap_bits = np.inf
    for _ in range(max_iters):
        # A row with current mass reaches only outputs with py > 0 or ones
        # whose mass underflowed, which score zero, so d is finite on the
        # support of r; rows starved to zero by underflow may score +inf,
        # which keeps the certificate honest instead of silently converging.
        d = _row_divergences(r, w, logw)
        live = r > 0
        rate_nats = float(r[live] @ d[live])
        gap_bits = (float(np.max(d)) - rate_nats) / _LN2
        if gap_bits <= tolerance:
            return rate_nats / _LN2, InputDistribution(r)
        # r <- r e^d / sum, with d shifted by its live max so exp cannot overflow
        r[live] *= np.exp(d[live] - d[live].max())
        r /= r.sum()
    raise ConvergenceError(
        f"capacity gap {gap_bits:.3e} bits above tolerance {tolerance:.1e} "
        f"after {max_iters} iterations",
        rate_nats / _LN2,
        InputDistribution(r),
        gap_bits,
        max_iters,
    )

"""Closed-form capacity values, bound pairs, and quantizer allocations.

Rates are in bits per channel use throughout.  The scalar building block is
the binary channel made by sign-quantizing a Gaussian: its capacity is
1 - H2(Q(sqrt(P))).  Multi-antenna and multi-quantizer cases wrap that value
in upper/lower pairs with stated additive gaps, and the two allocators split
a power budget P and a quantizer budget across parallel subchannels, one by
relaxed water-filling and one by exhaustive integer search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._validate import _check_count, _frozen
from .channel import ChannelMatrix
from .tailmath import binary_entropy, q_function

__all__ = [
    "AllocationBranch",
    "AllocationResult",
    "BoundPair",
    "BudgetError",
    "allocate_integer_oracle",
    "mimo_sign_highsnr_bounds",
    "mimo_single_select_bounds",
    "miso_sign_capacity",
    "simo_linear_bounds",
    "simo_multi_select_bounds",
    "simo_sign_highsnr_bounds",
    "simo_single_select_bounds",
    "siso_multilevel_bounds",
    "siso_sign_capacity",
    "waterfill_relaxed",
]

_PAIR_TOL = 1e-12
_WF_TOL = 1e-9
_WF_MAX_BISECT = 200

#: Exhaustive-search budget for the integer allocator.
ORACLE_MAX_CHANNELS = 8
ORACLE_MAX_QUANTIZERS = 64
# Counts all C(m+n-1, n-1) compositions; the at most 9027 nonincreasing ones
# the oracle scores take about 10 ms on 2 x86 cores.
ORACLE_MAX_COMPOSITIONS = 10**6


class BudgetError(ValueError):
    """Raised when a problem exceeds the exhaustive-search budget."""


class AllocationBranch(str, Enum):
    POWER_LIMITED = "power-limited"
    QUANTIZER_LIMITED = "quantizer-limited"


@dataclass(frozen=True)
class BoundPair:
    """Lower and upper rate bounds in bits, with the claimed additive gap.

    ``argmax_k`` carries the maximizing subchannel count when the lower
    bound optimizes over one; ``flags`` lists validity conditions of the
    lower bound that the inputs fail (advisory, never fatal).
    """

    lower: float
    upper: float
    gap_claim: float
    argmax_k: int | None = None
    flags: tuple = ()

    def __post_init__(self):
        if math.isfinite(self.lower) and self.lower > self.upper + _PAIR_TOL:
            raise ValueError(f"lower bound {self.lower!r} exceeds upper bound {self.upper!r}")


@dataclass(frozen=True, eq=False)
class AllocationResult:
    """Power and quantizer split across parallel subchannels.

    ``quantizer_shares`` are real for the relaxed solver and integers for
    the exhaustive one; ``active_count`` counts strictly positive powers.
    """

    gains: np.ndarray
    power_budget: float
    quantizer_budget: int
    powers: np.ndarray
    quantizer_shares: np.ndarray
    active_count: int
    water_level: float
    rate: float
    branch: AllocationBranch

    def __post_init__(self):
        for name in ("gains", "powers", "quantizer_shares"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        if np.any(self.powers < 0) or np.any(self.quantizer_shares < 0):
            raise ValueError("allocations must be nonnegative")
        if self.powers.sum() > self.power_budget * (1 + _WF_TOL) + _WF_TOL:
            raise ValueError(
                f"powers sum to {self.powers.sum()!r}, over budget {self.power_budget!r}"
            )
        if self.quantizer_shares.sum() > self.quantizer_budget + _WF_TOL:
            raise ValueError(
                f"quantizer shares sum to {self.quantizer_shares.sum()!r}, "
                f"over budget {self.quantizer_budget}"
            )
        if self.active_count != int(np.count_nonzero(self.powers > 0)):
            raise ValueError(
                f"active_count {self.active_count} does not match "
                f"{np.count_nonzero(self.powers > 0)} positive powers"
            )
        if self.water_level < 0:
            raise ValueError(f"water level must be nonnegative, got {self.water_level!r}")


def _check_power(power: float) -> float:
    p = float(power)
    if not (math.isfinite(p) and p >= 0):
        raise ValueError(f"power must be finite and nonnegative, got {power!r}")
    return p


def _check_gain_vector(h) -> np.ndarray:
    v = np.asarray(h, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"gain vector must be 1-D and nonempty, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("gain vector must be finite")
    return v


def siso_sign_capacity(power: float) -> float:
    """Capacity in bits of a unit-noise scalar channel seen through one sign."""
    p = _check_power(power)
    return 1.0 - binary_entropy(q_function(math.sqrt(p)))


def miso_sign_capacity(h, power: float) -> float:
    """Transmit beamforming onto a single sign quantizer: gain ||h||_2."""
    v = _check_gain_vector(h)
    p = _check_power(power)
    return 1.0 - binary_entropy(q_function(float(np.linalg.norm(v)) * math.sqrt(p)))


def simo_sign_highsnr_bounds(n_rx: int) -> BoundPair:
    """High-SNR capacity of one antenna sign-quantized n_rx times."""
    n = _check_count(n_rx, "n_rx")
    lo, hi = math.log2(n), math.log2(n + 1)
    return BoundPair(lo, hi, hi - lo)


def mimo_sign_highsnr_bounds(n_sq: int, n_tx: int) -> BoundPair:
    """High-SNR bounds for n_sq signs on n_tx transmit antennas.

    With n_tx >= n_sq the value is exactly n_sq bits.  Otherwise the bounds
    are half the log of K (and K+1), where K counts the sign patterns a
    depth-2 n_tx-dimensional signal set can produce, a binomial sum kept in
    exact integer arithmetic; log2 of a Python integer never overflows, so
    no further guard is needed.
    """
    m = _check_count(n_sq, "n_sq")
    t = _check_count(n_tx, "n_tx")
    if t >= m:
        return BoundPair(float(m), float(m), 0.0)
    k = sum(math.comb(2 * m - 1, j) for j in range(2 * t))
    lo, hi = 0.5 * math.log2(k), 0.5 * math.log2(k + 1)
    return BoundPair(lo, hi, hi - lo)


def _capped_half_log(snr, n_sq):
    """0.5 log2 min(snr, (n_sq + 1)^2), elementwise; ``n_sq`` may be a per-entry count."""
    return 0.5 * np.log2(np.minimum(snr, (n_sq + 1.0) ** 2))


def _top_squares(sq: np.ndarray, kmax: int) -> np.ndarray:
    """The ``kmax`` largest squared gains along the last axis, in nonincreasing order."""
    n = sq.shape[-1]
    if kmax < n:
        sq = np.partition(sq, n - kmax, axis=-1)[..., n - kmax :]
    return np.sort(sq, axis=-1)[..., ::-1]


def _multi_select_rates(top: np.ndarray, power: float, n_sq: int) -> np.ndarray:
    """0.5 log2 min(1 + P sum_top_k |h|^2, (n_sq/k + 1)^2), k = 1..kmax, along the last axis.

    ``top`` holds the strongest squared gains in nonincreasing order, as
    :func:`_top_squares` returns them, one selection problem per row.
    """
    counts = np.arange(1, top.shape[-1] + 1, dtype=np.float64)
    return _capped_half_log(1.0 + np.cumsum(top, axis=-1) * power, n_sq / counts)


def _multi_select_flags(gains: np.ndarray, power: float, n_sq: int) -> tuple:
    """Names of the multi-select regime conditions the inputs fail."""
    holds = {
        "low-power": power > math.log2(n_sq),
        "few-quantizers": math.log2(n_sq) > 2,
        "weak-gains": bool(np.all(gains * gains > 1.0)),
    }
    return tuple(name for name, ok in holds.items() if not ok)


def siso_multilevel_bounds(power: float, n_sq: int) -> BoundPair:
    """Scalar channel with a budget of n_sq sign quantizers, gap one bit."""
    p = _check_power(power)
    m = _check_count(n_sq, "n_sq")
    upper = float(_capped_half_log(p + 1.0, m))
    return BoundPair(max(upper - 1.0, 0.0), upper, 1.0)


def simo_single_select_bounds(h, power: float, n_sq: int) -> BoundPair:
    """All quantizers on one receive antenna, best antenna chosen."""
    v = _check_gain_vector(h)
    p = _check_power(power)
    m = _check_count(n_sq, "n_sq")
    h_max = float(np.max(np.abs(v)))
    upper = float(_capped_half_log(1.0 + h_max * h_max * p, m))
    return BoundPair(max(upper - 0.5, 0.0), upper, 0.5)


def simo_multi_select_bounds(h, power: float, n_sq: int) -> BoundPair:
    """Quantizers split across antennas, evenly over the best K of them.

    The lower bound maximizes over how many antennas share the budget; the
    chosen count is reported as ``argmax_k``.  Its derivation assumes
    P > log2(n_sq) > 2 and every antenna gain above one; inputs outside
    that regime get advisory ``flags`` instead of an error.
    """
    v = _check_gain_vector(h)
    p = _check_power(power)
    m = _check_count(n_sq, "n_sq")
    rates = _multi_select_rates(_top_squares(v * v, min(v.size, m)), p, m)
    best = int(np.argmax(rates))
    upper = float(_capped_half_log(1.0 + float(v @ v) * p, m))
    flags = _multi_select_flags(v, p, m)
    return BoundPair(max(float(rates[best]) - 2.0, 0.0), upper, 2.0, argmax_k=best + 1, flags=flags)


def simo_linear_bounds(h, power: float, n_sq: int) -> BoundPair:
    """Maximal-ratio combining before quantization, gap half a bit."""
    v = _check_gain_vector(h)
    p = _check_power(power)
    m = _check_count(n_sq, "n_sq")
    upper = float(_capped_half_log(1.0 + float(v @ v) * p, m))
    return BoundPair(max(upper - 0.5, 0.0), upper, 0.5)


def mimo_single_select_bounds(channel: ChannelMatrix, power: float, n_sq: int) -> BoundPair:
    """All quantizers on the receive antenna with the largest row norm."""
    p = _check_power(power)
    m = _check_count(n_sq, "n_sq")
    row_sq = np.sum(channel.entries * channel.entries, axis=1)
    upper = float(_capped_half_log(1.0 + float(np.max(row_sq)) * p, m))
    return BoundPair(max(upper - 2.0, 0.0), upper, 2.0)


def _check_gains(gains) -> np.ndarray:
    g = _check_gain_vector(gains)
    if np.any(g <= 0):
        raise ValueError("gains must be positive")
    return g


def _relaxed_rates(g: np.ndarray, powers: np.ndarray, n_sq: int) -> tuple:
    """Relaxed-allocation rates per row of gains and water-filled powers, as
    ``waterfill_relaxed`` states them.  Returns (rates, quantizer-limited
    flags, per-subchannel quantizer demands).
    """
    snr = 1.0 + g * powers
    free = np.sum(0.5 * np.log2(snr), axis=-1)
    demand = np.sqrt(snr) - 1.0
    k = np.count_nonzero(powers > 0, axis=-1)
    split = [j * math.log2(n_sq / j + 1.0) if j else 0.0 for j in range(g.shape[-1] + 1)]
    capped = demand.sum(axis=-1) > n_sq
    rates = np.where(capped, np.asarray(split)[k], free)
    return rates, capped, demand


def waterfill_relaxed(gains, power: float, n_sq: int) -> AllocationResult:
    """Jointly allocate power and a real-valued quantizer budget.

    Water-fill the power first.  If the implied quantizer demand
    sum(sqrt(1 + g_i P_i) - 1) fits the budget, the rate is the unquantized
    water-filling value (power-limited).  Otherwise the budget is split
    evenly over the K active subchannels and the rate is
    K log2(n_sq / K + 1) (quantizer-limited).
    """
    g = _check_gains(gains)
    if np.any(np.diff(g) > 0):
        raise ValueError("gains must be sorted nonincreasing")
    p = _check_power(power)
    m = _check_count(n_sq, "n_sq")
    if p:
        _, powers, mu = _capped_waterfill_rows(g[None], np.full((1, g.size), np.inf), p)
    else:  # with tied top gains the kernel's level sum/|F| can be an ulp off 1/g_max
        powers, mu = np.zeros((1, g.size)), 1.0 / g[:1]
    rate, capped, demand = _relaxed_rates(g[None], powers, m)
    powers = powers[0]
    k = int(np.count_nonzero(powers))
    if capped[0]:
        shares, branch = np.where(powers > 0, m / k, 0.0), AllocationBranch.QUANTIZER_LIMITED
    else:
        shares, branch = demand[0], AllocationBranch.POWER_LIMITED
    return AllocationResult(g, p, m, powers, shares, k, float(mu[0]), float(rate[0]), branch)


def _nonincreasing_compositions(total: int, slots: int) -> np.ndarray:
    """Every composition of ``total`` into ``slots`` nonincreasing nonnegative
    parts, one per row, in descending lexicographic order.

    Stars and bars, one part at a time: a row with r left over s open slots
    and last part q repeats once per next part min(q, r), ..., ceil(r / s),
    the least part the rest can stay below; the last part is the rest.
    """
    rows = np.zeros((1, 0), dtype=np.int64)
    prev = rem = np.array([total])
    for s in range(slots, 1, -1):
        hi = np.minimum(prev, rem)
        counts = hi - (rem + s - 1) // s + 1
        idx = np.repeat(np.arange(rem.size), counts)
        prev = hi[idx] - (np.arange(idx.size) - np.repeat(np.cumsum(counts) - counts, counts))
        rows, rem = np.column_stack((rows[idx], prev)), rem[idx] - prev
    return np.column_stack((rows, rem))


def _capped_waterfill_rows(g: np.ndarray, caps: np.ndarray, power: float) -> tuple:
    """Exact capped water-filling, one problem per row of ``caps``.

    ``g`` is one gain vector that every row shares or one row of gains per
    row of ``caps``.  Subchannel i takes p_i = min((mu - 1/g_i)^+, caps[r, i]),
    with the water level mu of row r set so that the powers sum to
    min(power, sum caps); ``caps = inf`` is plain water-filling, as
    ``waterfill_relaxed`` and the matrix sweeps run it.  Per row the
    breakpoints 1/g_i and 1/g_i + cap_i are sorted and the used power is
    scanned along them to the linear segment that meets the budget.  mu is
    then recomputed from that
    segment's free set F and capped set C as
    (budget - sum_C cap_i + sum_F 1/g_i) / |F| by masked sums over the whole
    row, so rows with the same sets get bitwise equal powers and rates.  When
    every cap binds (sum caps <= power) any mu >= max_i 1/g_i + cap_i solves
    the row, and the water level reported is max_i 1/g_i + power.
    Returns (rates in bits, powers, water levels).
    """
    inv = 1.0 / g
    cap_total = caps.sum(axis=1)
    target = np.minimum(power, cap_total)
    bp = np.concatenate((np.broadcast_to(inv, caps.shape), inv + caps), axis=1)
    order = np.argsort(bp, axis=1, kind="stable")
    bp = np.take_along_axis(bp, order, axis=1)
    # the used power rises with slope #(1/g_i reached) - #(1/g_i + cap_i reached)
    slope = np.cumsum(np.where(order < g.shape[-1], 1.0, -1.0), axis=1)
    used = np.zeros(bp.shape)
    with np.errstate(invalid="ignore"):  # inf - inf past the last finite breakpoint
        np.cumsum(slope[:, :-1] * np.diff(bp, axis=1), axis=1, out=used[:, 1:])
    k = np.count_nonzero(used <= target[:, None], axis=1) - 1
    level = bp[np.arange(bp.shape[0]), k][:, None]
    capped = inv + caps <= level
    free = (inv <= level) & ~capped
    n_free = np.count_nonzero(free, axis=1)
    all_capped = (target >= cap_total) | (n_free == 0)
    mu = target - np.where(capped, caps, 0.0).sum(axis=1) + np.where(free, inv, 0.0).sum(axis=1)
    mu = np.where(all_capped, inv.max(axis=-1) + power, mu / np.maximum(n_free, 1))
    p = np.where(all_capped[:, None], caps, np.minimum(np.maximum(mu[:, None] - inv, 0.0), caps))
    return 0.5 * np.log2(1.0 + g * p).sum(axis=1), p, mu


def _bisected_free_rate(g: np.ndarray, power: float) -> float:
    """Unquantized water-filling rate of one gain vector, by bisection on the water level.

    Only the integer oracle's ``branch`` tag reads it.  The tag recorded in
    ``perfbench/reference/alloc-oracle.json`` for gains 1.37789, 3.81364,
    1.16262 at P = 11.7929 and 8 quantizers was decided on this rate, which
    overspends the budget by up to ``_WF_TOL * max(1, P)``; the exact rate
    ``_capped_waterfill_rows(g[None], inf, P)[0][0]`` replaces it when that
    reference is re-recorded.  The first midpoint within tolerance wins.
    """
    inv = 1.0 / g
    lo, hi = inv.min(), inv.max() + power
    tol = _WF_TOL * max(1.0, power)
    for _ in range(_WF_MAX_BISECT):
        mu = (lo + hi) * 0.5
        powers = np.maximum(mu - inv, 0.0)
        total = powers.sum()
        if not abs(total - power) > tol:
            return float(np.sum(0.5 * np.log2(1.0 + g * powers)))
        lo, hi = (lo, mu) if total > power else (mu, hi)
    raise RuntimeError(f"water-filling failed to meet budget {power!r}")


def allocate_integer_oracle(gains, power: float, n_sq: int) -> AllocationResult:
    """Exact best integer split of the quantizer budget, by exhaustion.

    Each composition of ``n_sq`` over the subchannels is scored with a
    capped water-filling of the power budget (a subchannel with N_i signs
    can never usefully absorb more than ((N_i+1)^2 - 1)/g_i power).  Only
    compositions that are nonincreasing along the gains sorted nonincreasing
    are scored, and that is exact: for g_i >= g_j with N_i < N_j, swapping
    the two counts (and the two SNRs, when channel j's is the higher) keeps
    both caps and uses no more power, so some nonincreasing composition
    reaches the best rate.  The first best in descending lexicographic order
    wins, so ties, also those where every cap binds, go to the composition
    with the most quantizers on the strongest channels.  Gains may come in any order (a stable sort
    settles equal gains); results line up with the input order.
    """
    g_in = _check_gains(gains)
    p = _check_power(power)
    m = _check_count(n_sq, "n_sq")
    n = g_in.size
    if (
        n > ORACLE_MAX_CHANNELS
        or m > ORACLE_MAX_QUANTIZERS
        or math.comb(m + n - 1, n - 1) > ORACLE_MAX_COMPOSITIONS
    ):
        raise BudgetError(
            f"exhaustive search supports up to {ORACLE_MAX_CHANNELS} subchannels, "
            f"{ORACLE_MAX_QUANTIZERS} quantizers and {ORACLE_MAX_COMPOSITIONS} compositions "
            f"of the quantizers, got {n} and {m}; use waterfill_relaxed for larger problems"
        )
    order = np.argsort(-g_in, kind="stable")
    g = g_in[order]

    comps = _nonincreasing_compositions(m, n)
    rates, powers, mu = _capped_waterfill_rows(g, ((comps + 1.0) ** 2 - 1.0) / g, p)
    j = int(np.argmax(rates))
    comp, rate, powers, mu = comps[j], float(rates[j]), powers[j], float(mu[j])

    # branch tag: quantizer-limited when the budget actually cost rate
    free_rate = _bisected_free_rate(g, p) if p else 0.0
    branch = (
        AllocationBranch.POWER_LIMITED
        if rate >= free_rate - 1e-9
        else AllocationBranch.QUANTIZER_LIMITED
    )
    back = np.argsort(order)
    powers = powers[back]
    k = int(np.count_nonzero(powers > 0))
    return AllocationResult(g_in, p, m, powers, comp[back], k, mu, rate, branch)

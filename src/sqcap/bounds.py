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
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from ._validate import _check_count, _check_real, _check_vector, _frozen
from .channel import ChannelMatrix
from .tailmath import binary_entropy, q_function

__all__ = [
    "ORACLE_MAX_CHANNELS",
    "ORACLE_MAX_QUANTIZERS",
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

#: Exhaustive-search budget for the integer allocator.  The oracle scores
#: only nonincreasing compositions, the partitions of m into at most n parts;
#: the box's worst case, 64 quantizers over 8 gains, has 116 263 of them and
#: takes about 0.1 s and 100 MB on a 2-core x86 Xeon.
ORACLE_MAX_CHANNELS = 8
ORACLE_MAX_QUANTIZERS = 64


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
    the exhaustive one; ``active_count``, derived from ``powers``, counts
    the strictly positive ones.
    """

    gains: np.ndarray
    power_budget: float
    quantizer_budget: int
    powers: np.ndarray
    quantizer_shares: np.ndarray
    active_count: int = field(init=False)
    water_level: float
    rate: float
    branch: AllocationBranch

    def __post_init__(self):
        for name in ("gains", "powers", "quantizer_shares"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        powers, shares = self.powers, self.quantizer_shares
        # every test is stated so that NaN fails it
        if not ((powers >= 0).all() and (shares >= 0).all()):
            raise ValueError("allocations must be nonnegative")
        power_sum, share_sum = powers.sum(), shares.sum()
        if not power_sum <= self.power_budget * (1 + _WF_TOL) + _WF_TOL:
            raise ValueError(f"powers sum to {power_sum!r}, over budget {self.power_budget!r}")
        if not share_sum <= self.quantizer_budget + _WF_TOL:
            raise ValueError(
                f"quantizer shares sum to {share_sum!r}, over budget {self.quantizer_budget}"
            )
        if not self.water_level >= 0:
            raise ValueError(f"water level must be nonnegative, got {self.water_level!r}")
        if math.isnan(self.rate):
            raise ValueError(f"rate must be a number, got {self.rate!r}")
        object.__setattr__(self, "active_count", int(np.count_nonzero(powers > 0)))


def siso_sign_capacity(power: float) -> float:
    """Capacity in bits of a unit-noise scalar channel seen through one sign."""
    p = _check_real(power, "power")
    return 1.0 - binary_entropy(q_function(math.sqrt(p)))


def miso_sign_capacity(h, power: float) -> float:
    """Transmit beamforming onto a single sign quantizer: gain ||h||_2, taken
    of h / max|h_i| where its squares overflow; past the float range Q = 0."""
    v = _check_vector(h, "gain vector")
    p = _check_real(power, "power")
    with np.errstate(over="ignore"):  # v / 1.0 keeps a finite norm's bits
        top = float(np.max(np.abs(v))) if np.isinf(np.linalg.norm(v)) else 1.0
    amplitude = float(np.linalg.norm(v / top)) * (top * math.sqrt(p))
    return 1.0 - binary_entropy(q_function(amplitude) if math.isfinite(amplitude) else 0.0)


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
    # C(n, j+1) = C(n, j) (n - j) / (j + 1) divides exactly, so each term
    # costs one multiply and one divide by a small integer
    n, c, k = 2 * m - 1, 1, 0
    for j in range(2 * t):
        k += c
        c = c * (n - j) // (j + 1)
    lo, hi = 0.5 * math.log2(k), 0.5 * math.log2(k + 1)
    return BoundPair(lo, hi, hi - lo)


def _capped_half_log(snr, n_sq):
    """0.5 log2 min(snr, (n_sq + 1)^2), elementwise; ``n_sq`` may be a per-entry count.

    The log and the halving run in place on the capped values, so the peak
    holds one array of the result's size beside the inputs; scalar inputs
    give a 0-d array.
    """
    v = np.asarray(np.minimum(snr, (n_sq + 1.0) ** 2))
    np.log2(v, out=v)
    v *= 0.5
    return v


def _top_squares(sq: np.ndarray, counts, k: int) -> np.ndarray:
    """The ``k`` largest of ``sq[:, :x]`` per row for every x of the increasing
    ``counts``, nonincreasing and zero-padded: shape (rows, len(counts), k).

    A prefix's strongest are among the previous prefix's (zeros before the
    first) and the d entries added since.  The last k columns of one buffer
    hold the previous strongest, ascending; the d go just before them, and
    partitioning those d + k at d leaves the new strongest in the last k
    columns, sorted there for the next prefix.
    """
    step = max(x - start for start, x in zip((0, *counts), counts))
    tops = np.empty((len(sq), len(counts), k))
    merge = np.zeros((len(sq), step + k))
    for i, (start, x) in enumerate(zip((0, *counts), counts)):
        d = x - start
        merge[:, step - d : step] = sq[:, start:x]
        merge[:, step - d :].partition(d, axis=1)
        merge[:, step:].sort(axis=1)
        tops[:, i] = merge[:, step:][:, ::-1]
    return tops


def _multi_select_rates(top: np.ndarray, power: float, n_sq: int) -> np.ndarray:
    """0.5 log2 min(1 + P sum_top_k |h|^2, (n_sq/k + 1)^2), k = 1..kmax, along the last axis.

    ``top`` holds the strongest squared gains in nonincreasing order, as
    :func:`_top_squares` returns them, one selection problem per row.
    """
    counts = np.arange(1, top.shape[-1] + 1, dtype=np.float64)
    with np.errstate(over="ignore"):  # a sum or SNR past the float range is inf; the caps clip it
        return _capped_half_log(1.0 + np.cumsum(top, axis=-1) * power, n_sq / counts)


def _multi_select_flags(gains: np.ndarray, power: float, n_sq: int) -> tuple:
    """Names of the multi-select regime conditions the inputs fail."""
    holds = {
        "low-power": power > math.log2(n_sq),
        "few-quantizers": math.log2(n_sq) > 2,
        "weak-gains": bool(np.all(np.abs(gains) > 1.0)),
    }
    return tuple(name for name, ok in holds.items() if not ok)


def _capped_pair(gain_sq: float, power: float, n_sq: int, gap: float) -> BoundPair:
    """Upper bound 0.5 log2 min(1 + gain_sq P, (n_sq + 1)^2), lower ``gap`` below, at least 0."""
    p = _check_real(power, "power")
    m = _check_count(n_sq, "n_sq")
    upper = float(_capped_half_log(1.0 + gain_sq * p, m))
    return BoundPair(max(upper - gap, 0.0), upper, gap)


def siso_multilevel_bounds(power: float, n_sq: int) -> BoundPair:
    """Scalar channel with a budget of n_sq sign quantizers, gap one bit."""
    return _capped_pair(1.0, power, n_sq, 1.0)


def simo_single_select_bounds(h, power: float, n_sq: int) -> BoundPair:
    """All quantizers on one receive antenna, best antenna chosen."""
    h_max = float(np.max(np.abs(_check_vector(h, "gain vector"))))
    return _capped_pair(h_max * h_max, power, n_sq, 0.5)


def simo_multi_select_bounds(h, power: float, n_sq: int) -> BoundPair:
    """Quantizers split across antennas, evenly over the best K of them.

    The lower bound maximizes over how many antennas share the budget; the
    chosen count is reported as ``argmax_k``.  Its derivation assumes
    P > log2(n_sq) > 2 and every antenna gain above one; inputs outside
    that regime get advisory ``flags`` instead of an error.
    """
    v = _check_vector(h, "gain vector")
    p = _check_real(power, "power")
    m = _check_count(n_sq, "n_sq")
    with np.errstate(over="ignore"):  # a gain past 1e154 squares to inf, which the caps clip
        sq = v * v
        upper = float(_capped_half_log(1.0 + float(np.cumsum(sq)[-1]) * p, m))
    rates = _multi_select_rates(_top_squares(sq[None], (v.size,), min(v.size, m))[0, 0], p, m)
    best = int(np.argmax(rates))
    flags = _multi_select_flags(v, p, m)
    return BoundPair(max(float(rates[best]) - 2.0, 0.0), upper, 2.0, argmax_k=best + 1, flags=flags)


def simo_linear_bounds(h, power: float, n_sq: int) -> BoundPair:
    """Maximal-ratio combining before quantization, gap half a bit."""
    v = _check_vector(h, "gain vector")
    with np.errstate(over="ignore"):  # a gain past 1e154 squares to inf, which the cap clips
        norm_sq = float(np.cumsum(v * v)[-1])
    return _capped_pair(norm_sq, power, n_sq, 0.5)


def mimo_single_select_bounds(channel: ChannelMatrix, power: float, n_sq: int) -> BoundPair:
    """All quantizers on the receive antenna with the largest row norm."""
    with np.errstate(over="ignore"):  # an entry past 1e154 squares to inf, the honest value
        row_sq = np.sum(channel.entries * channel.entries, axis=1)
    return _capped_pair(float(np.max(row_sq)), power, n_sq, 2.0)


def _relaxed_rates(g: np.ndarray, powers: np.ndarray, free: np.ndarray, n_sq: int) -> tuple:
    """Relaxed-allocation rates per row of gains and water-filled powers, as
    ``waterfill_relaxed`` states them; ``free`` is each row's unquantized
    rate, as ``_capped_waterfill_rows`` returns it.  Returns (rates,
    quantizer-limited flags, per-subchannel quantizer demands).  The demand
    total and the active count take one pass per subchannel over all rows,
    so the total adds in subchannel order: bit for bit numpy's row sum up
    to 7 subchannels, as in ``_capped_waterfill_rows``.
    """
    with np.errstate(over="ignore"):  # an infinite demand exceeds any budget
        demand = np.sqrt(1.0 + g.T * powers.T) - 1.0  # one row per subchannel
    k = np.count_nonzero(powers.T > 0, axis=0)
    split = [j * math.log2(n_sq / j + 1.0) if j else 0.0 for j in range(g.shape[-1] + 1)]
    capped = sum(demand) > n_sq
    rates = np.where(capped, np.asarray(split)[k], free)
    return rates, capped, demand.T


def waterfill_relaxed(gains, power: float, n_sq: int) -> AllocationResult:
    """Jointly allocate power and a real-valued quantizer budget.

    Water-fill the power first.  If the implied quantizer demand
    sum(sqrt(1 + g_i P_i) - 1) fits the budget, the rate is the unquantized
    water-filling value (power-limited).  Otherwise the budget is split
    evenly over the K active subchannels and the rate is
    K log2(n_sq / K + 1) (quantizer-limited).
    """
    g = _check_vector(gains, "gains", positive=True, nonincreasing=True)
    p = _check_real(power, "power")
    m = _check_count(n_sq, "n_sq")
    if p:
        free, powers, mu = _capped_waterfill_rows(g[None], None, p)
    else:  # with tied top gains the kernel's level sum/|F| can be an ulp off 1/g_max
        free, powers, mu = np.zeros(1), np.zeros((1, g.size)), 1.0 / g[:1]
    rate, capped, demand = _relaxed_rates(g[None], powers, free, m)
    powers = powers[0]
    if capped[0]:
        k = np.count_nonzero(powers)
        shares, branch = np.where(powers > 0, m / k, 0.0), AllocationBranch.QUANTIZER_LIMITED
    else:
        shares, branch = demand[0], AllocationBranch.POWER_LIMITED
    return AllocationResult(g, p, m, powers, shares, float(mu[0]), float(rate[0]), branch)


def _nonincreasing_compositions(total: int, slots: int) -> np.ndarray:
    """Every composition of ``total`` into ``slots`` nonincreasing nonnegative
    parts, one per row, in descending lexicographic order.

    Stars and bars, one part at a time: a row with r left over s open slots
    and last part q repeats once per next part min(q, r), ..., ceil(r / s),
    the least part the rest can stay below; the last part is the rest.  Each
    step keeps only its new parts and the parent row each came from, and
    the finished rows gather their earlier parts once, back along the
    chain of parents.
    """
    parents, parts = [], []
    prev = rem = np.array([total])
    for s in range(slots, 1, -1):
        hi = np.minimum(prev, rem)
        counts = hi - (rem + s - 1) // s + 1
        idx = np.repeat(np.arange(rem.size), counts)
        prev = hi[idx] - (np.arange(idx.size) - np.repeat(np.cumsum(counts) - counts, counts))
        parents.append(idx)
        parts.append(prev)
        rem = rem[idx] - prev
    cols = np.empty((slots, rem.size), dtype=np.int64)
    cols[-1], at = rem, np.arange(rem.size)
    for c in range(slots - 2, -1, -1):
        cols[c] = parts[c][at]
        at = parents[c][at]
    return cols.T


def _capped_waterfill_rows(g: np.ndarray, caps: np.ndarray | None, power: float) -> tuple:
    """Exact capped water-filling, one problem per row of ``caps``.

    ``g`` is one gain vector that every row shares or one row of gains per
    row of ``caps``.  Subchannel i takes p_i = min((mu - 1/g_i)^+, caps[r, i]),
    with the water level mu of row r set so that the powers sum to
    min(power, sum caps).  Per row the breakpoint values 1/g_i and
    1/g_i + cap_i are sorted, b_0 <= b_1 <= ..., and the used power is
    scanned along them to the linear segment that meets the budget; only
    the integer oracle passes caps.  Past b_j the used power rises with
    slope #(1/g_i reached) - #(1/g_i + cap_i reached) = 2 #(1/g_i <= b_j) -
    (j + 1), counted by one broadcast comparison: on a segment of nonzero
    width that is the running count of a stable sort's order, and a
    segment of zero width adds no power whatever its slope.
    ``caps = None`` is plain water-filling, one problem per row of ``g``, as
    ``waterfill_relaxed`` and the matrix sweeps run it on gains sorted
    nonincreasing: the breakpoints are then the 1/g_i in order, and the
    segment is read from the cumulative sum of the used power along them,
    the prefix of the scan with ``inf`` caps, so nothing is sorted and both
    give bitwise equal results.  mu is then recomputed from that segment's
    free set F and capped set C as (budget - sum_C cap_i + sum_F 1/g_i) / |F|
    by masked sums over the whole row, so rows with the same sets get
    bitwise equal powers and rates.  When every cap binds (sum caps <= power)
    any mu >= max_i 1/g_i + cap_i solves the row, and the water level
    reported is max_i 1/g_i + power.  Without caps C is empty and F never
    is, so mu is (budget + sum_F 1/g_i) / |F|: the terms ``inf`` caps turn
    into identities are left out, with the same bits.  Returns (rates in
    bits, powers, water levels).  A zero gain (a sweep's padding; public
    callers reject it) has the breakpoint 1/0 = inf, never reached: no
    power, exact zeros in sums.

    Rows are many and short (at most ``ORACLE_MAX_CHANNELS`` subchannels
    for the oracle, ``n_tx`` for a sweep), so the kernel works on the
    transpose, one pass per breakpoint or subchannel over all rows at once
    (a ``g`` whose transpose is C-contiguous, as a sweep's gains are at
    every width, is read without a copy):
    the used power adds in breakpoint order, the masked sums and the rate
    in subchannel order.  Up to 7 subchannels that is the order of numpy's
    own row sums, so the results are bit for bit those of row reductions;
    from 8 on numpy sums a row pairwise, and the last bits may differ from
    that.  Either way a row's results do not depend on the rows beside it.
    """
    g = np.ascontiguousarray(np.atleast_2d(g).T)  # one row per subchannel
    with np.errstate(divide="ignore"):  # a zero gain's breakpoint is inf
        inv = 1.0 / g
    if caps is None:
        target, bp, slope = power, inv, np.arange(1.0, len(g))[:, None]
    else:
        cap_total = sum(caps.T)
        bp = np.concatenate((np.broadcast_to(inv.T, caps.shape), inv.T + caps), axis=1)
        bp = np.sort(bp, axis=1).T
        # past the first j + 1 breakpoints the used power rises with slope
        # #(1/g_i reached) - #(1/g_i + cap_i reached) = 2 #(1/g_i <= b_j) - (j + 1)
        reached = np.count_nonzero(inv[:, None] <= bp[:-1], axis=0)
        slope = 2.0 * reached - np.arange(1.0, len(bp))[:, None]
        caps = caps.T
        target = np.minimum(power, cap_total)
    # the segment starts at the last breakpoint whose used power fits the budget
    level, used = bp[0], 0.0
    with np.errstate(invalid="ignore"):  # inf - inf past the last finite breakpoint
        for bp_j, step in zip(bp[1:], slope * (bp[1:] - bp[:-1])):
            used = used + step
            level = np.where(used <= target, bp_j, level)
    if caps is None:
        # the level is one of the 1/g_i, so that subchannel at least is free
        free = inv <= level
        mu = (target + sum(np.where(free, inv, 0.0))) / np.count_nonzero(free, axis=0)
        p = np.maximum(mu - inv, 0.0)
    else:
        capped = inv + caps <= level
        free = (inv <= level) & ~capped
        n_free = np.count_nonzero(free, axis=0)
        all_capped = (target >= cap_total) | (n_free == 0)
        mu = target - sum(np.where(capped, caps, 0.0)) + sum(np.where(free, inv, 0.0))
        mu = np.where(all_capped, np.max(inv, axis=0) + power, mu / np.maximum(n_free, 1))
        p = np.where(all_capped, caps, np.minimum(np.maximum(mu - inv, 0.0), caps))
    with np.errstate(over="ignore"):  # an infinite free rate: the demand then caps it
        return 0.5 * sum(np.log2(1.0 + g * p)), p.T, mu


def _sum_in_numpy_order(d: list) -> float:
    """Sum of at most ``ORACLE_MAX_CHANNELS`` floats in the order of numpy's
    1-D ``np.sum``: left to right up to 7 terms, and
    ((d0+d1)+(d2+d3))+((d4+d5)+(d6+d7)) at 8.  (Python's ``sum`` of floats
    is compensated from 3.12 on, so it cannot stand in.)
    """
    if len(d) == 8:
        return ((d[0] + d[1]) + (d[2] + d[3])) + ((d[4] + d[5]) + (d[6] + d[7]))
    total = 0.0
    for x in d:
        total += x
    return total


def _bisected_free_rate(g: np.ndarray, power: float) -> float:
    """Unquantized water-filling rate of one gain vector, by bisection on the water level.

    Only the integer oracle's ``branch`` tag reads it.  The tag recorded in
    ``perfbench/reference/alloc-oracle.json`` for gains 1.37789, 3.81364,
    1.16262 at P = 11.7929 and 8 quantizers was decided on this rate, which
    overspends the budget by up to ``_WF_TOL * max(1, P)``; the exact rate
    ``_capped_waterfill_rows(g[None], None, P)[0][0]`` replaces it, and this
    function goes, when that reference is re-recorded.  The first midpoint
    within tolerance wins, or else the first that is not strictly inside the
    bracket: all-weak gains (1e-9 at P = 10) collapse the bracket at float
    resolution before any midpoint meets the tolerance, and a dead
    subchannel (gain 1e-60) opens it to about 1e60.

    The loop runs on Python floats and adds the used power in numpy's 1-D
    sum order (``_sum_in_numpy_order``), so every midpoint, and the rate, is
    bit for bit that of the same loop on numpy arrays.
    """
    inv = (1.0 / g).tolist()
    lo, hi = min(inv), max(inv) + power
    tol = _WF_TOL * max(1.0, power)
    while True:
        mu = (lo + hi) * 0.5
        total = _sum_in_numpy_order([mu - x if mu > x else 0.0 for x in inv])
        if not (abs(total - power) > tol and lo < mu < hi):
            with np.errstate(over="ignore"):  # an infinite free rate tags the quantizer limit
                return float(np.sum(0.5 * np.log2(1.0 + g * np.maximum(mu - 1.0 / g, 0.0))))
        lo, hi = (lo, mu) if total > power else (mu, hi)


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
    g_in = _check_vector(gains, "gains", positive=True)
    p = _check_real(power, "power")
    m = _check_count(n_sq, "n_sq")
    n = g_in.size
    if n > ORACLE_MAX_CHANNELS or m > ORACLE_MAX_QUANTIZERS:
        raise BudgetError(
            f"exhaustive search supports up to {ORACLE_MAX_CHANNELS} subchannels and "
            f"{ORACLE_MAX_QUANTIZERS} quantizers, got {n} and {m}; "
            "use waterfill_relaxed for larger problems"
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
    return AllocationResult(g_in, p, m, powers[back], comp[back], mu, rate, branch)

"""Closed-form bounds and power/quantizer allocation."""

import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqcap.bounds import (
    ORACLE_MAX_CHANNELS,
    ORACLE_MAX_COMPOSITIONS,
    ORACLE_MAX_QUANTIZERS,
    AllocationBranch,
    AllocationResult,
    BoundPair,
    BudgetError,
    _capped_waterfill_rows,
    _nonincreasing_compositions,
    allocate_integer_oracle,
    mimo_sign_highsnr_bounds,
    mimo_single_select_bounds,
    miso_sign_capacity,
    simo_linear_bounds,
    simo_multi_select_bounds,
    simo_sign_highsnr_bounds,
    simo_single_select_bounds,
    siso_multilevel_bounds,
    siso_sign_capacity,
    waterfill_relaxed,
)
from sqcap.channel import ChannelMatrix

mpmath.mp.dps = 50


def mp_sign_capacity(power):
    q = mpmath.ncdf(-mpmath.sqrt(mpmath.mpf(power)))
    return float(1 + q * mpmath.log(q, 2) + (1 - q) * mpmath.log(1 - q, 2))


def test_siso_sign_capacity_values():
    assert siso_sign_capacity(0.0) == 0.0
    assert siso_sign_capacity(1.0) == pytest.approx(0.36891723259445811324, rel=1e-14)
    assert siso_sign_capacity(25.0) == pytest.approx(0.99999335630710195067, rel=1e-14)
    for p in [0.01, 0.5, 2.0, 7.3, 100.0]:
        assert siso_sign_capacity(p) == pytest.approx(mp_sign_capacity(p), rel=1e-12)


@given(st.floats(0.0, 1e6))
@settings(max_examples=200)
def test_siso_sign_capacity_range(p):
    c = siso_sign_capacity(p)
    assert 0.0 <= c <= 1.0


def test_siso_sign_capacity_monotone():
    grid = np.logspace(-3, 8, 200)
    vals = [siso_sign_capacity(p) for p in grid]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
    assert siso_sign_capacity(1e8) > 1 - 1e-9


def test_miso_reduces_to_siso_with_norm_squared():
    h = (3.0, 4.0)  # norm 5
    for p in [0.1, 1.0, 10.0]:
        assert miso_sign_capacity(h, p) == pytest.approx(siso_sign_capacity(25.0 * p), rel=1e-14)
    assert miso_sign_capacity((2.0,), 1.0) == pytest.approx(siso_sign_capacity(4.0), rel=1e-14)


def test_simo_highsnr_bounds():
    pair = simo_sign_highsnr_bounds(4)
    assert pair.lower == 2.0
    assert pair.upper == pytest.approx(math.log2(5), rel=1e-15)
    one = simo_sign_highsnr_bounds(1)
    assert one.lower == 0.0 and one.upper == 1.0
    with pytest.raises(ValueError):
        simo_sign_highsnr_bounds(0)


def test_mimo_highsnr_bounds():
    # enough transmit antennas: exactly one bit per sign quantizer
    for n_sq, n_tx in [(1, 1), (2, 3), (5, 5), (7, 100)]:
        pair = mimo_sign_highsnr_bounds(n_sq, n_tx)
        assert pair.lower == pair.upper == float(n_sq)
    # fewer antennas than quantizers: half-log of a binomial tail count
    pair = mimo_sign_highsnr_bounds(3, 1)
    k_count = sum(math.comb(5, j) for j in range(2))
    assert k_count == 6
    assert pair.lower == pytest.approx(1.292481250360578, rel=1e-14)
    assert pair.upper == pytest.approx(1.403677461028802, rel=1e-14)
    assert pair.upper - pair.lower <= 0.5 * math.log2(7 / 6) + 1e-12


def test_mimo_highsnr_bounds_huge_budget_no_overflow():
    pair = mimo_sign_highsnr_bounds(500, 2)
    k_count = sum(math.comb(999, j) for j in range(4))
    assert pair.lower == pytest.approx(0.5 * math.log2(k_count), rel=1e-14)
    assert math.isfinite(pair.upper)


def test_siso_multilevel_bounds_values():
    pair = siso_multilevel_bounds(100.0, 7)
    assert pair.upper == 3.0  # quantizer cap (7+1)^2 = 64 binds before 101
    assert pair.lower == 2.0
    assert pair.gap_claim == 1.0
    low = siso_multilevel_bounds(0.5, 7)
    assert low.upper == pytest.approx(0.5 * math.log2(1.5), rel=1e-14)
    assert low.lower == 0.0  # clamped


def test_simo_single_select_uses_best_antenna():
    pair = simo_single_select_bounds((1.0, -3.0, 2.0), 10.0, 31)
    assert pair.upper == pytest.approx(0.5 * math.log2(91.0), rel=1e-14)
    assert pair.lower == pytest.approx(0.5 * math.log2(91.0) - 0.5, rel=1e-13)
    assert pair.gap_claim == 0.5


def test_simo_multi_select_bound_and_argmax():
    pair = simo_multi_select_bounds((1.2, 1.5), 50.0, 16)
    assert pair.argmax_k == 1
    assert pair.lower == pytest.approx(1.4132742436454575, rel=1e-13)
    assert pair.gap_claim == 2.0
    # the k = 2 term is the quantizer-capped branch: log2(16/2 + 1) = log2 9
    k2 = 0.5 * 2 * math.log2(16 / 2 + 1) - 2.0
    assert k2 == pytest.approx(1.1699250014423122, rel=1e-14)
    assert pair.lower >= k2


def test_simo_multi_select_matches_selection_loop():
    # reference: the first k maximizing 0.5 log2 min(1 + P sum_top_k h^2, (N/k + 1)^2)
    rng = np.random.default_rng(23)
    for _ in range(40):
        h = rng.standard_normal(rng.integers(1, 12)) * rng.uniform(0.2, 3.0)
        p, n_sq = float(rng.uniform(0.1, 500.0)), int(rng.integers(1, 40))
        sq = sorted((x * x for x in h), reverse=True)
        vals = [
            0.5 * math.log2(min(1.0 + sum(sq[:k]) * p, (n_sq / k + 1.0) ** 2))
            for k in range(1, min(h.size, n_sq) + 1)
        ]
        pair = simo_multi_select_bounds(h, p, n_sq)
        assert pair.lower == pytest.approx(max(max(vals) - 2.0, 0.0), rel=1e-12, abs=1e-12)
        k = pair.argmax_k
        assert vals[k - 1] == pytest.approx(max(vals), rel=1e-12)
        assert all(v < vals[k - 1] for v in vals[: k - 1])  # the first maximizer
        upper = 0.5 * math.log2(min(1.0 + sum(sq) * p, (n_sq + 1.0) ** 2))
        assert pair.upper == pytest.approx(upper, rel=1e-12)


def test_simo_multi_select_flags():
    assert simo_multi_select_bounds((2.0, 3.0), 100.0, 32).flags == ()
    assert "low-power" in simo_multi_select_bounds((2.0,), 1.0, 16).flags
    assert "few-quantizers" in simo_multi_select_bounds((2.0,), 100.0, 4).flags
    assert "weak-gains" in simo_multi_select_bounds((0.5, 2.0), 100.0, 32).flags


def test_simo_linear_bounds():
    pair = simo_linear_bounds((3.0, 4.0), 4.0, 31)
    assert pair.upper == pytest.approx(0.5 * math.log2(101.0), rel=1e-14)
    assert pair.lower == pytest.approx(pair.upper - 0.5, rel=1e-13)
    assert pair.gap_claim == 0.5
    # linear combining never loses to single selection
    rng = np.random.default_rng(0)
    for _ in range(50):
        h = rng.standard_normal(rng.integers(1, 6))
        if np.all(h == 0):
            continue
        p = float(rng.uniform(0.1, 100))
        assert simo_linear_bounds(h, p, 15).upper >= simo_single_select_bounds(h, p, 15).upper - 1e-12


def test_mimo_single_select_bounds_row_norm():
    h = np.array([[1.0, 2.0], [2.0, 1.0], [0.5, 0.1]])
    pair = mimo_single_select_bounds(ChannelMatrix(h), 10.0, 5)
    best = 1.0 + 5.0 * 10.0  # largest row norm squared is 5
    assert pair.upper == pytest.approx(0.5 * math.log2(min(best, 36.0)), rel=1e-14)
    assert pair.lower == pytest.approx(max(pair.upper - 2.0, 0.0), rel=1e-13)
    assert pair.gap_claim == 2.0


@given(
    st.lists(st.floats(0.05, 10.0), min_size=1, max_size=6),
    st.floats(0.0, 1e4),
    st.floats(0.0, 1e4),
    st.integers(1, 40),
    st.integers(0, 20),
)
@settings(max_examples=200, deadline=None)
def test_bounds_monotone_in_power_and_budget(h, p1, dp, n_sq, dn):
    p2 = p1 + dp
    for fn in (simo_single_select_bounds, simo_multi_select_bounds, simo_linear_bounds):
        a, b = fn(h, p1, n_sq), fn(h, p2, n_sq)
        assert b.upper >= a.upper - 1e-12
        assert b.lower >= a.lower - 1e-12
        c = fn(h, p1, n_sq + dn)
        assert c.upper >= a.upper - 1e-12
        assert c.lower >= a.lower - 1e-12


@given(st.lists(st.floats(0.05, 10.0), min_size=1, max_size=6), st.floats(0, 1e4), st.integers(1, 40))
@settings(max_examples=200, deadline=None)
def test_pair_ordering_and_claimed_gap(h, p, n_sq):
    # families whose lower bound is literally upper minus the claimed gap;
    # the multi-select claim is against capacity, so only ordering holds there
    for fn in (siso_multilevel_bounds, simo_single_select_bounds, simo_linear_bounds):
        pair = fn(p, n_sq) if fn is siso_multilevel_bounds else fn(h, p, n_sq)
        assert 0.0 <= pair.lower <= pair.upper
        if pair.lower > 0:
            assert pair.upper - pair.lower == pytest.approx(pair.gap_claim, abs=1e-9)
    pair = simo_multi_select_bounds(h, p, n_sq)
    assert 0.0 <= pair.lower <= pair.upper


def test_bound_pair_validation_and_csv():
    with pytest.raises(ValueError):
        BoundPair(2.0, 1.0, 0.5)


def test_input_validation():
    with pytest.raises(ValueError):
        siso_sign_capacity(-1.0)
    with pytest.raises(ValueError):
        siso_multilevel_bounds(1.0, 0)
    with pytest.raises(ValueError):
        simo_single_select_bounds((), 1.0, 4)
    with pytest.raises(ValueError):
        miso_sign_capacity((1.0, math.nan), 1.0)
    # antenna counts take the same integer check as quantizer counts
    with pytest.raises(ValueError, match="n_sq"):
        siso_multilevel_bounds(1.0, 2.5)
    with pytest.raises(ValueError, match="n_rx"):
        simo_sign_highsnr_bounds(2.7)
    with pytest.raises(ValueError, match="n_tx"):
        mimo_sign_highsnr_bounds(8, 2.9)
    # non-finite counts are the same ValueError, naming the argument
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match=f"n_sq must be a positive integer, got {bad!r}"):
            siso_multilevel_bounds(1.0, bad)
        with pytest.raises(ValueError, match="n_rx"):
            simo_sign_highsnr_bounds(bad)
    # a zero gain is a dead antenna, not an error
    assert simo_single_select_bounds((0.0,), 1.0, 4).upper == 0.0


# ---------------------------------------------------------------- allocation


def test_relaxed_waterfill_complementary_slackness():
    g = (4.0, 2.0, 1.0, 0.25)
    res = waterfill_relaxed(g, 10.0, 1000)
    assert res.branch is AllocationBranch.POWER_LIMITED
    assert res.powers.sum() == pytest.approx(10.0, abs=1e-8)
    for gi, pi in zip(res.gains, res.powers):
        if pi > 0:
            assert 1.0 / gi + pi == pytest.approx(res.water_level, rel=1e-9)
        else:
            assert 1.0 / gi >= res.water_level - 1e-9
    assert res.rate == pytest.approx(
        sum(0.5 * math.log2(1 + gi * pi) for gi, pi in zip(res.gains, res.powers)), rel=1e-12
    )


def test_relaxed_waterfill_zero_power():
    res = waterfill_relaxed((2.0, 1.0), 0.0, 4)
    assert res.rate == 0.0
    assert res.active_count == 0
    assert np.all(res.powers == 0)


def test_relaxed_waterfill_branches():
    # tiny budget of signs forces the quantizer-limited branch
    res = waterfill_relaxed((4.0, 2.0), 1e6, 2)
    assert res.branch is AllocationBranch.QUANTIZER_LIMITED
    assert res.rate == pytest.approx(2 * math.log2(2.0), rel=1e-12)
    np.testing.assert_allclose(res.quantizer_shares, [1.0, 1.0])
    # generous budget stays power-limited with fractional shares
    res2 = waterfill_relaxed((4.0, 2.0), 1.0, 1000)
    assert res2.branch is AllocationBranch.POWER_LIMITED
    want = np.sqrt(1.0 + res2.gains * res2.powers) - 1.0
    np.testing.assert_allclose(res2.quantizer_shares, want, rtol=1e-12)


def test_relaxed_waterfill_meets_the_budget_exactly():
    # the CLI golden's gains at P = 12: every subchannel is wet, so the water
    # level is (P + sum 1/g_i) / 3 = 104/21 and the powers spend P exactly
    res = waterfill_relaxed((2.1, 1.4, 0.6), 12.0, 6)
    assert res.water_level == pytest.approx(104 / 21, rel=1e-15)
    assert res.powers.sum() == pytest.approx(12.0, rel=1e-12)
    # no cap binds at the oracle's best split, so both solvers reach one rate
    assert res.rate == pytest.approx(allocate_integer_oracle(res.gains, 12.0, 6).rate, abs=1e-13)


def test_relaxed_waterfill_requires_sorted_gains():
    with pytest.raises(ValueError):
        waterfill_relaxed((1.0, 2.0), 1.0, 4)


def _random_capped_problems(rng, rows, n):
    """Gains and ``rows`` rows of caps over ``n`` subchannels, some caps zero, some inf."""
    g = rng.uniform(0.05, 9.0, size=n)
    caps = rng.uniform(0.0, 6.0, size=(rows, n)) ** 2
    caps[rng.random((rows, n)) < 0.15] = 0.0
    caps[rng.random((rows, n)) < 0.15] = np.inf
    return g, caps


@pytest.mark.parametrize("power", [0.0, 1e-3, 0.7, 12.0, 150.0, 1e6])
def test_capped_waterfill_kkt(power):
    rng = np.random.default_rng(int(power * 1000) + 5)
    for n in (1, 2, 3, 5, 8):
        g, caps = _random_capped_problems(rng, 300, n)
        rates, powers, mu = _capped_waterfill_rows(g, caps, power)
        budget = np.minimum(power, caps.sum(axis=1))
        # the budget min(P, sum caps) is met
        np.testing.assert_allclose(powers.sum(axis=1), budget, rtol=1e-12, atol=1e-300)
        # p_i = min((mu - 1/g_i)^+, cap_i) at the reported water level
        want = np.minimum(np.maximum(mu[:, None] - 1.0 / g, 0.0), caps)
        np.testing.assert_allclose(powers, want, rtol=1e-12, atol=1e-12 * max(1.0, power))
        # a capped channel sits below the water level
        at_cap = (powers == caps) & (caps > 0)
        reach = np.broadcast_to(1.0 / g, caps.shape) + caps
        assert np.all(mu[:, None] >= reach * (1 - 1e-12), where=at_cap)
        np.testing.assert_allclose(rates, 0.5 * np.log2(1.0 + g * powers).sum(axis=1), rtol=1e-15)


def _uncapped_sort_and_scan(g, power):
    """Closed-form water-filling: the largest k with (P + sum_k 1/g) / k > 1/g_k."""
    inv = np.sort(1.0 / g)
    levels = (power + np.cumsum(inv)) / np.arange(1, inv.size + 1)
    mu = levels[np.flatnonzero(levels > inv)[-1]]
    return np.maximum(mu - 1.0 / g, 0.0), mu


def test_capped_waterfill_without_caps_is_plain_waterfilling():
    rng = np.random.default_rng(23)
    for n in (1, 2, 4, 7):
        for power in (0.01, 1.0, 33.0, 5e4):
            g = rng.uniform(0.05, 9.0, size=n)
            _, powers, mu = _capped_waterfill_rows(g, np.full((1, n), np.inf), power)
            want, level = _uncapped_sort_and_scan(g, power)
            assert mu[0] == pytest.approx(level, rel=1e-13)
            np.testing.assert_allclose(powers[0], want, rtol=1e-12, atol=1e-12 * power)


def test_capped_waterfill_all_caps_bind():
    # every cap binds: no division by zero, powers are the caps, and the
    # water level is max 1/g_i + P by convention, also where the scan along
    # the breakpoints rounds past the sum of the caps
    equal = (np.full(6, 1.0), np.array([[3.0, 3.0, 3.0, 3.0, 0.0, 0.0], [1, 2, 3, 4, 5, 6.0]]))
    rng = np.random.default_rng(8)
    for g, caps in [equal] + [_random_capped_problems(rng, 200, n) for n in (2, 4, 7)]:
        caps[np.isinf(caps)] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rates, powers, mu = _capped_waterfill_rows(g, caps, 1e8)
        assert np.array_equal(powers, caps)
        assert np.all(mu == 1.0 / g.min() + 1e8)
        np.testing.assert_allclose(rates, 0.5 * np.log2(1.0 + g * caps).sum(axis=1), rtol=1e-15)


def test_capped_waterfill_rows_score_alone_as_in_a_block():
    # one gain vector shared by rows of caps, as the oracle scores them, and
    # one row of gains per row of caps, as a sweep stacks its trials; every
    # row solves as it would alone, also where caps bind and every cap binds
    rng = np.random.default_rng(41)
    g = np.sort(rng.uniform(0.2, 4.0, size=5))[::-1]
    comps = np.array(_descending_compositions(9, 5))
    shared = (g, ((comps + 1.0) ** 2 - 1.0) / g)
    g_rows = rng.uniform(0.05, 9.0, size=(60, 4))
    caps = rng.uniform(0.0, 6.0, size=g_rows.shape) ** 2
    caps[rng.random(caps.shape) < 0.15] = 0.0
    caps[rng.random(caps.shape) < 0.25] = np.inf
    stacked = (g_rows, caps)
    for g, caps in (shared, stacked, (g_rows, np.full(g_rows.shape, np.inf))):
        for power in (0.0, 0.3, 7.0, 60.0, 1e4):
            rates, powers, mu = _capped_waterfill_rows(g, caps, power)
            for r in range(caps.shape[0]):
                g_r = g[r] if g.ndim == 2 else g
                alone = _capped_waterfill_rows(g_r, caps[r : r + 1], power)
                assert alone[0][0] == rates[r] and mu[r] == alone[2][0]
                assert np.array_equal(alone[1][0], powers[r])


def _descending_compositions(total, slots):
    return sorted(
        (c for c in itertools.product(range(total + 1), repeat=slots) if sum(c) == total),
        reverse=True,
    )


@pytest.mark.parametrize(
    "total, slots", [(0, 1), (7, 1), (0, 4), (5, 2), (6, 3), (9, 4), (8, 5), (12, 6)]
)
def test_nonincreasing_compositions_order_and_rows(total, slots):
    want = [c for c in _descending_compositions(total, slots) if list(c) == sorted(c, reverse=True)]
    assert [tuple(r) for r in _nonincreasing_compositions(total, slots).tolist()] == want


def test_nonincreasing_compositions_bound_the_oracle_working_set():
    # the benchmark's largest size, 32 quantizers over 6 subchannels
    assert _nonincreasing_compositions(32, 6).shape == (1540, 6)
    # every size the guards let through fits in one block of rows
    sizes = {
        (n, m): _nonincreasing_compositions(m, n).shape[0]
        for n in range(1, ORACLE_MAX_CHANNELS + 1)
        for m in range(1, ORACLE_MAX_QUANTIZERS + 1)
        if math.comb(m + n - 1, n - 1) <= ORACLE_MAX_COMPOSITIONS
    }
    assert max(sizes.values()) == sizes[5, 64] == 9027


def _grid_capped_waterfill(g, caps, power, n_mu=4_000_000):
    """Independent check: scan the water level on a fine grid."""
    g = np.asarray(g)
    caps = np.asarray(caps)
    lo, hi = 0.0, 1.0 / g.min() + power + caps.max()
    mus = np.linspace(lo, hi, n_mu)
    tot = np.minimum(np.clip(mus[:, None] - 1.0 / g, 0.0, None), caps).sum(axis=1)
    target = min(power, float(caps.sum()))
    j = int(np.argmin(np.abs(tot - target)))
    powers = np.minimum(np.clip(mus[j] - 1.0 / g, 0.0, None), caps)
    return float(np.sum(0.5 * np.log2(1.0 + g * powers)))


def test_oracle_matches_bruteforce_enumeration():
    rng = np.random.default_rng(77)
    for _ in range(12):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(1, 7))
        g = np.sort(rng.uniform(0.2, 5.0, size=n))[::-1]
        p = float(rng.uniform(0.5, 50.0))
        res = allocate_integer_oracle(g, p, m)
        best = 0.0
        for comp in itertools.product(range(m + 1), repeat=n):
            if sum(comp) != m:
                continue
            caps = ((np.array(comp, dtype=float) + 1.0) ** 2 - 1.0) / g
            best = max(best, _grid_capped_waterfill(g, caps, p, n_mu=200_000))
        assert res.rate == pytest.approx(best, abs=5e-4)
        assert res.quantizer_shares.sum() == m
        assert np.all(res.quantizer_shares == np.round(res.quantizer_shares))


def test_oracle_rate_is_capped_waterfill_of_winner():
    g = (4.0, 2.0, 1.0)
    res = allocate_integer_oracle(g, 10.0, 8)
    comp = res.quantizer_shares
    want = sum(
        0.5 * math.log2(min(1.0 + gi * pi, (ni + 1.0) ** 2))
        for gi, pi, ni in zip(res.gains, res.powers, comp)
    )
    assert res.rate == pytest.approx(want, rel=1e-10)
    grid = _grid_capped_waterfill(np.array(g), ((comp + 1.0) ** 2 - 1.0) / np.array(g), 10.0)
    assert res.rate == pytest.approx(grid, abs=1e-5)


def test_oracle_ties_go_to_the_first_composition():
    # many compositions leave every cap slack and tie at the uncapped rate;
    # the first of them in descending lexicographic order over the sorted
    # gains wins, reported in input order
    g = [3.50346, 0.509895, 2.39513, 0.873979, 1.40284]
    res = allocate_integer_oracle(g, 14.169, 16)
    assert res.quantizer_shares.tolist() == [10.0, 1.0, 2.0, 1.0, 2.0]
    caps = ((res.quantizer_shares + 1.0) ** 2 - 1.0) / np.array(g)
    assert np.all(res.powers < caps)


def test_oracle_all_capped_tie_goes_to_the_stronger_channel():
    # at P = 1e4 every cap binds, so [5, 4, 4], [4, 5, 4] and [4, 4, 5] tie
    # exactly; rounding scores [4, 4, 5] 8.9e-16 bits higher, but only
    # nonincreasing compositions are scored and the first of them wins
    res = allocate_integer_oracle((4.0, 2.0, 1.0), 1e4, 13)
    assert res.quantizer_shares.tolist() == [5.0, 4.0, 4.0]
    assert res.rate == pytest.approx(math.log2(6) + 2 * math.log2(5), abs=4e-15)
    res = allocate_integer_oracle((1.0, 4.0, 2.0), 1e4, 13)
    assert res.quantizer_shares.tolist() == [4.0, 5.0, 4.0]


@given(
    st.integers(1, 4),
    st.floats(-2.0, 5.0),
    st.integers(1, 10),
    st.integers(0, 2**31),
)
@settings(max_examples=80, deadline=None)
def test_oracle_is_the_best_composition_and_nonincreasing(n, log_p, m, seed):
    rng = np.random.default_rng(seed)
    scale = rng.choice([1.0, 10.0, 1e6])  # coarse gains tie
    g = np.ceil(rng.uniform(0.1, 6.0, size=n) * scale) / scale
    p = 10.0**log_p
    res = allocate_integer_oracle(g, p, m)
    comps = np.array(_descending_compositions(m, n), dtype=float)
    g_sorted = np.sort(g)[::-1]
    rates = _capped_waterfill_rows(g_sorted, ((comps + 1.0) ** 2 - 1.0) / g_sorted, p)[0]
    assert abs(res.rate - rates.max()) <= 4e-15
    shares = res.quantizer_shares[np.argsort(-g, kind="stable")]
    assert np.all(np.diff(shares) <= 0)


def test_oracle_accepts_unsorted_gains():
    res_sorted = allocate_integer_oracle((4.0, 2.0, 1.0), 10.0, 8)
    res_perm = allocate_integer_oracle((1.0, 4.0, 2.0), 10.0, 8)
    assert res_perm.rate == pytest.approx(res_sorted.rate, rel=1e-14)
    np.testing.assert_allclose(res_perm.powers, res_sorted.powers[[2, 0, 1]], rtol=1e-12)
    np.testing.assert_allclose(
        res_perm.quantizer_shares, res_sorted.quantizer_shares[[2, 0, 1]]
    )


def test_oracle_equal_gains_spreads_singly():
    res = allocate_integer_oracle((1.0,) * 6, 1e8, 4)
    assert sorted(res.quantizer_shares, reverse=True) == [1.0, 1.0, 1.0, 1.0, 0.0, 0.0]
    assert res.rate == pytest.approx(4.0, abs=1e-3)
    assert res.branch is AllocationBranch.QUANTIZER_LIMITED


def test_oracle_budget_guard():
    with pytest.raises(BudgetError, match="waterfill_relaxed"):
        allocate_integer_oracle((1.0,) * (ORACLE_MAX_CHANNELS + 1), 1.0, 4)
    with pytest.raises(BudgetError):
        allocate_integer_oracle((1.0, 2.0), 1.0, ORACLE_MAX_QUANTIZERS + 1)


def test_oracle_composition_guard_bounds_run_time():
    # 8 channels x 21 quantizers passes both size checks but has C(28, 7)
    # compositions, past the run-time budget
    assert math.comb(28, 7) == 1_184_040 > ORACLE_MAX_COMPOSITIONS
    with pytest.raises(BudgetError, match="waterfill_relaxed"):
        allocate_integer_oracle(np.linspace(4.0, 0.5, 8), 15.0, 21)
    # the benchmark's largest size, 6 x 32, and the largest 8-channel size still run
    for n, m in [(6, 32), (8, 20)]:
        assert math.comb(m + n - 1, n - 1) <= ORACLE_MAX_COMPOSITIONS
        res = allocate_integer_oracle(np.linspace(4.0, 0.5, n), 1000.0, m)
        assert res.quantizer_shares.sum() == m


@given(
    st.integers(1, 4),
    st.floats(0.5, 200.0),
    st.integers(1, 10),
    st.integers(0, 2**31),
)
@settings(max_examples=60, deadline=None)
def test_relaxed_dominates_oracle(n, p, m, seed):
    rng = np.random.default_rng(seed)
    g = np.sort(rng.uniform(0.1, 8.0, size=n))[::-1]
    relaxed = waterfill_relaxed(g, p, m)
    oracle = allocate_integer_oracle(g, p, m)
    # allow the relaxed and oracle rates to round differently
    assert relaxed.rate >= oracle.rate - 1e-8
    assert oracle.rate >= relaxed.rate - 2.0 * n


def test_relaxed_to_oracle_gap_constants():
    # the guaranteed gap is 2 bits per subchannel; the sharper 1.5-bit
    # figure usually holds too and is reported for the record
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(40):
        n = int(rng.integers(2, 5))
        g = np.sort(rng.uniform(0.1, 8.0, size=n))[::-1]
        p = float(rng.uniform(0.5, 500.0))
        m = int(rng.integers(1, 13))
        gap = waterfill_relaxed(g, p, m).rate - allocate_integer_oracle(g, p, m).rate
        assert gap <= 2.0 * n + 1e-8
        worst = max(worst, gap / n)
    print(f"worst per-subchannel gap {worst:.3f} bits (guarantee 2.0, sharper figure 1.5)")
    assert worst <= 2.0 + 1e-8


def test_allocation_result_validation():
    g = np.array([2.0, 1.0])
    ok = dict(
        gains=g,
        power_budget=2.0,
        quantizer_budget=4,
        powers=np.array([1.0, 1.0]),
        quantizer_shares=np.array([2.0, 2.0]),
        active_count=2,
        water_level=1.5,
        rate=1.0,
        branch=AllocationBranch.POWER_LIMITED,
    )
    AllocationResult(**ok)
    with pytest.raises(ValueError):
        AllocationResult(**{**ok, "powers": np.array([-1.0, 1.0])})
    with pytest.raises(ValueError):
        AllocationResult(**{**ok, "powers": np.array([5.0, 1.0])})
    with pytest.raises(ValueError):
        AllocationResult(**{**ok, "quantizer_shares": np.array([3.0, 2.0])})
    with pytest.raises(ValueError):
        AllocationResult(**{**ok, "active_count": 1})
    with pytest.raises(ValueError):
        AllocationResult(**{**ok, "water_level": -0.5})

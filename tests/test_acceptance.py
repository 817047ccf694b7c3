"""End-to-end acceptance checks.

Ten checks, one per guarantee the package makes.  Each prints a single
PASS/FAIL line with the measured numbers so a log shows the whole story.
Tolerances are part of each check's contract and are not to be loosened.
"""

import math
import os
import time

import mpmath
import numpy as np

from sqcap import (
    ChannelEnsembleSpec,
    allocate_integer_oracle,
    binary_entropy,
    blahut_arimoto,
    build_dithered_scheme,
    build_pam_scheme,
    csv_text,
    dithered_mi_estimate,
    draw_channel,
    figure_spec,
    gaussian_draw,
    pam_inner_rate,
    pam_scheme_for_levels,
    q_function,
    quantizer_transition,
    run_sweep,
    entropy_spotchecks,
    simo_multi_select_bounds,
    siso_multilevel_bounds,
    waterfill_relaxed,
)
from sqcap.bounds import AllocationBranch
from sqcap.dmc import TransitionMatrix

POWER_GRID = (6.5, 10.0, 100.0, 1000.0, 10000.0)
BUDGET_GRID = (2, 3, 7, 15, 31)


def _curves(points):
    by = {}
    for p in points:
        by.setdefault(p.curve_label, []).append(p)
    for label in by:
        by[label].sort(key=lambda p: p.x)
    return by


def test_01_pam_rate_sandwiches_half_log_cap():
    start = time.monotonic()
    worst = math.inf
    bad = []
    for p in POWER_GRID:
        for n_sq in BUDGET_GRID:
            scheme = build_pam_scheme(p, n_sq)
            rate = pam_inner_rate(scheme, 1.0)
            upper = siso_multilevel_bounds(p, n_sq).upper
            worst = min(worst, rate - (upper - 1.0))
            if not (upper - 1.0 - 1e-12 <= rate <= upper + 1e-12):
                bad.append((p, n_sq, rate, upper))
    elapsed = time.monotonic() - start
    status = "PASS" if not bad and elapsed < 5.0 else "FAIL"
    print(
        f"[ 1/10] {status} PAM rate within 1 bit below the capped half-log upper "
        f"bound on all {len(POWER_GRID) * len(BUDGET_GRID)} grid points "
        f"(worst slack {worst:.4f} bits, {elapsed:.2f}s)"
    )
    assert not bad, f"sandwich violated at {bad}"
    assert elapsed < 5.0


def test_02_binary_pam_matches_sign_capacity_closed_form():
    start = time.monotonic()
    errs = {}
    for p in (0.5, 1.0, 4.0, 25.0):
        rate = pam_inner_rate(pam_scheme_for_levels(2, p), 1.0)
        closed = 1.0 - binary_entropy(q_function(math.sqrt(p)))
        errs[p] = abs(rate - closed)
    elapsed = time.monotonic() - start
    worst = max(errs.values())
    status = "PASS" if worst <= 1e-12 and elapsed < 1.0 else "FAIL"
    print(
        f"[ 2/10] {status} 2-PAM rate equals 1 - H2(Q(sqrt(P))) "
        f"(worst |diff| {worst:.2e}, {elapsed:.2f}s)"
    )
    assert worst <= 1e-12, errs
    assert elapsed < 1.0


def test_03_optimized_input_dominates_uniform_and_known_channels():
    start = time.monotonic()
    bad = []
    for p in POWER_GRID:
        for n_sq in BUDGET_GRID:
            scheme = build_pam_scheme(p, n_sq)
            channel = quantizer_transition(scheme.points, scheme.thresholds, 1.0, 1.0)
            cap, _ = blahut_arimoto(channel, 1e-9)
            lo = pam_inner_rate(scheme, 1.0) - 1e-9
            hi = math.log2(channel.n_outputs) + 1e-6
            if not lo <= cap <= hi:
                bad.append((p, n_sq, cap, lo, hi))
    bsc, _ = blahut_arimoto(TransitionMatrix(np.array([[0.89, 0.11], [0.11, 0.89]])), 1e-9)
    bsc_err = abs(bsc - (1.0 - binary_entropy(0.11)))
    bec, _ = blahut_arimoto(
        TransitionMatrix(np.array([[0.7, 0.0, 0.3], [0.0, 0.7, 0.3]])), 1e-9
    )
    bec_err = abs(bec - 0.7)
    elapsed = time.monotonic() - start
    ok = not bad and bsc_err <= 1e-6 and bec_err <= 1e-6 and elapsed < 10.0
    print(
        f"[ 3/10] {'PASS' if ok else 'FAIL'} optimized-input capacity between the "
        f"uniform-input rate and the output-alphabet cap on the grid; binary "
        f"symmetric/erasure references off by {bsc_err:.1e}/{bec_err:.1e} ({elapsed:.2f}s)"
    )
    assert not bad, bad
    assert bsc_err <= 1e-6 and bec_err <= 1e-6
    assert elapsed < 10.0


def test_04_relaxed_allocation_sandwiches_integer_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    checked = 0
    bad = []
    for i in range(30):
        n = int(rng.integers(2, 5))
        cm = draw_channel(ChannelEnsembleSpec(n, n, seed=404, trials=30), i)
        gains = cm.gains
        n_sq = int(rng.choice([2, 4, 8]))
        p = float(rng.choice([1.0, 10.0, 100.0]))
        relaxed = waterfill_relaxed(gains, p, n_sq)
        oracle = allocate_integer_oracle(gains, p, n_sq)
        if not (relaxed.rate >= oracle.rate - 1e-8 and oracle.rate >= relaxed.rate - 2.0 * n):
            bad.append((i, n, n_sq, p, relaxed.rate, oracle.rate))
        checked += 1
    elapsed = time.monotonic() - start
    ok = not bad and checked == 30 and elapsed < 30.0
    print(
        f"[ 4/10] {'PASS' if ok else 'FAIL'} relaxed rate >= integer-oracle rate >= "
        f"relaxed - 2K on {checked} random instances ({elapsed:.2f}s)"
    )
    assert not bad, bad
    assert elapsed < 30.0


def test_05_high_snr_oracle_spreads_single_signs():
    res = allocate_integer_oracle((1.0,) * 6, 1e8, 4)
    shares = sorted(res.quantizer_shares, reverse=True)
    ok = shares == [1.0, 1.0, 1.0, 1.0, 0.0, 0.0] and abs(res.rate - 4.0) <= 1e-3
    print(
        f"[ 5/10] {'PASS' if ok else 'FAIL'} at extreme power the oracle puts one "
        f"sign on each of 4 subchannels (shares {shares}, rate {res.rate:.6f}, "
        f"branch {res.branch.value})"
    )
    assert shares == [1.0, 1.0, 1.0, 1.0, 0.0, 0.0]
    assert abs(res.rate - 4.0) <= 1e-3
    assert res.branch is AllocationBranch.QUANTIZER_LIMITED


def _interior_cell_entropy_bits(spacing):
    """H(cell | x) in bits for a point of an unbounded PAM grid at unit noise.

    The cells are [(k - 1/2) d, (k + 1/2) d] around the point, k in Z, so
    p_k = Phi((k + 1/2) d) - Phi((k - 1/2) d), summed with mpmath.  Any point
    of a finite grid at the same spacing merges the outer cells and so has
    at most this entropy.
    """
    with mpmath.workdps(50):
        d = mpmath.mpf(spacing)
        half = mpmath.mpf(1) / 2
        p0 = 1 - 2 * mpmath.ncdf(-half * d)
        h = -p0 * mpmath.log(p0, 2)
        for k in range(1, 60):
            pk = mpmath.ncdf(-(k - half) * d) - mpmath.ncdf(-(k + half) * d)
            h -= 2 * pk * mpmath.log(pk, 2)
        return float(h)


# Sharp bound on max_x H(cell | x) for build_pam_scheme, about 0.496847 bits
# (0.344388 nats): M^2 <= P keeps the spacing sqrt(12 P / (M^2 - 1)) above
# 2 sqrt(3), and the conditional cell entropy falls as the spacing grows.
SUP_BITS = _interior_cell_entropy_bits(2.0 * math.sqrt(3.0))


def test_06_quantizer_output_entropy_constants():
    start = time.monotonic()
    out_bad = []
    cond_bad = []
    worst = (-math.inf, None, None)
    for p in POWER_GRID:
        for n_sq in BUDGET_GRID:
            scheme = build_pam_scheme(p, n_sq)
            h_out, h_cond = entropy_spotchecks(scheme, 1.0)
            m = scheme.m_levels
            if h_out < math.log2(m) - 0.02:
                out_bad.append((p, n_sq, h_out, math.log2(m)))
            # the per-symbol constant 0.4 is in nats; SUP_BITS is the exact supremum
            if h_cond * math.log(2) > 0.4 or h_cond > SUP_BITS + 1e-12:
                cond_bad.append((p, n_sq, h_cond))
            worst = max(worst, (h_cond, p, n_sq))
    elapsed = time.monotonic() - start
    ok = not out_bad and not cond_bad and elapsed < 5.0
    detail = ""
    if cond_bad:
        detail = "; conditional entropy exceeds a bound at " + ", ".join(
            f"(P={p:g}, N_SQ={n}: {h:.4f} bits = {h * math.log(2):.4f} nats)"
            for p, n, h in cond_bad
        )
    h_worst, p_worst, n_worst = worst
    print(
        f"[ 6/10] {'PASS' if ok else 'FAIL'} output entropy within 0.02 bits of log2 M "
        f"everywhere; worst per-symbol cell entropy {h_worst:.4f} bits = "
        f"{h_worst * math.log(2):.4f} nats (P={p_worst:g}, N_SQ={n_worst}) against "
        f"0.4 nats and the 2*sqrt(3)-spacing supremum {SUP_BITS:.6f} bits"
        f"{detail} ({elapsed:.2f}s)"
    )
    assert not out_bad, out_bad
    assert not cond_bad, (cond_bad, SUP_BITS)
    assert elapsed < 5.0


def test_07_dithered_estimate_meets_selection_lower_bound():
    start = time.monotonic()
    h = (1.2, 1.5)
    params = build_dithered_scheme(h, 50.0, 16, 2)
    mi, se = dithered_mi_estimate(params, h, 10**6, 0)
    lower = simo_multi_select_bounds(h, 50.0, 16).lower
    elapsed = time.monotonic() - start
    ok = mi >= lower - 3.0 * se and elapsed < 60.0
    print(
        f"[ 7/10] {'PASS' if ok else 'FAIL'} dithered Monte-Carlo rate "
        f"{mi:.4f}±{se:.4f} >= selection lower bound {lower:.4f} - 3se ({elapsed:.2f}s)"
    )
    assert mi >= lower - 3.0 * se, (mi, se, lower)
    assert elapsed < 60.0


def test_08_selection_vs_combining_curves():
    start = time.monotonic()
    spec = figure_spec("fig2a", trials=1000, seed=0)
    by = _curves(run_sweep(spec, workers=4))
    elapsed = time.monotonic() - start
    problems = []
    for p in (1.0, 10.0, 100.0):
        single = by[f"single-select-upper:P={p:g}"]
        linear = by[f"linear-upper:P={p:g}"]
        if abs(single[0].mean - linear[0].mean) > 1e-12:
            problems.append(f"P={p:g}: curves differ at one antenna")
        for a, b in zip(single, single[1:]):
            if b.mean < a.mean - 2.0 * math.hypot(a.std_err, b.std_err):
                problems.append(f"P={p:g}: selection curve drops at x={b.x}")
        for a, b in zip(linear, linear[1:]):
            if b.mean < a.mean - 2.0 * math.hypot(a.std_err, b.std_err):
                problems.append(f"P={p:g}: combining curve drops at x={b.x}")
        for s, l in zip(single, linear):
            if l.mean < s.mean:
                problems.append(f"P={p:g}: combining below selection at x={s.x}")
    cap = math.log2(11)
    end_single = by["single-select-upper:P=100"][-1].mean
    end_linear = by["linear-upper:P=100"][-1].mean
    if abs(end_single - cap) > 0.2 or abs(end_linear - cap) > 0.2:
        problems.append(f"curves end at {end_single:.3f}/{end_linear:.3f}, cap {cap:.3f}")
    ok = not problems and elapsed < 60.0
    print(
        f"[ 8/10] {'PASS' if ok else 'FAIL'} averaged selection/combining curves: "
        f"equal at one antenna, nondecreasing, combining dominates, both end at "
        f"{end_single:.4f}~log2(11)={cap:.4f} ({elapsed:.1f}s)"
    )
    assert not problems, problems
    assert elapsed < 60.0


def test_09_antenna_count_curves_and_regime():
    start = time.monotonic()
    spec = figure_spec("fig2b", trials=1000, seed=0)
    by = _curves(run_sweep(spec, workers=4))
    problems = []
    ks = (2, 4, 6, 8, 10)
    n_points = len(spec.axis)
    for i, x in enumerate(spec.axis):
        if x < 10:
            continue
        vals = [by[f"multi-select-lower:P=1000;K={k}"][i] for k in ks]
        for a, b in zip(vals, vals[1:]):
            if b.mean < a.mean - 2.0 * math.hypot(a.std_err, b.std_err):
                problems.append(f"K-curve drops between K={a.curve_label} and {b.curve_label} at x={x}")
    # when the budget beats n_r sqrt(|h|^2 P + 1) on a draw, using every
    # antenna is optimal
    in_regime = 0
    for n_r in range(1, 7):
        for trial in range(300):
            h = gaussian_draw(99, n_r * 1000 + trial, (n_r,))
            if 100.0 > n_r * math.sqrt(float(h @ h) * 1000.0 + 1.0):
                in_regime += 1
                pair = simo_multi_select_bounds(h, 1000.0, 100)
                if pair.argmax_k != n_r:
                    problems.append(f"regime draw n_r={n_r} trial={trial} argmax={pair.argmax_k}")
    elapsed = time.monotonic() - start
    ok = not problems and in_regime > 0
    print(
        f"[ 9/10] {'PASS' if ok else 'FAIL'} lower-bound curves nondecreasing in the "
        f"selection count on {n_points} grid columns; all {in_regime} "
        f"quantizer-rich draws maximize at K = n_r ({elapsed:.1f}s)"
    )
    assert not problems, problems[:5]
    assert in_regime > 0


def test_10_sweep_csv_identical_across_worker_counts(monkeypatch):
    # enough cores that every requested worker gets its own thread
    monkeypatch.setattr(os, "cpu_count", lambda: 16)
    start = time.monotonic()
    outputs = {}
    for fig, trials in (("fig2a", 60), ("fig2c", 40)):
        spec = figure_spec(fig, trials=trials, seed=12)
        texts = {w: csv_text(run_sweep(spec, workers=w)) for w in (1, 4, 16)}
        outputs[fig] = len(set(texts.values())) == 1
    elapsed = time.monotonic() - start
    ok = all(outputs.values())
    print(
        f"[10/10] {'PASS' if ok else 'FAIL'} sweep CSV byte-identical under 1, 4, "
        f"and 16 workers for {', '.join(outputs)} ({elapsed:.1f}s)"
    )
    assert ok, outputs

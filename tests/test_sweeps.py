"""Monte-Carlo sweeps over random channels, their curves and CSV output."""

import copy
import dataclasses
import math
import pickle
import tracemalloc
import warnings
from concurrent.futures import Future

import numpy as np
import pytest

import sqcap.channel
import sqcap.sweeps
from sqcap.bounds import (
    mimo_single_select_bounds,
    simo_linear_bounds,
    simo_multi_select_bounds,
    simo_single_select_bounds,
    waterfill_relaxed,
)
from sqcap.channel import RANK_TOL, ChannelMatrix, _gaussian_rows, gaussian_draw
from sqcap.sweeps import (
    CurvePoint,
    SweepSpec,
    SweepTable,
    csv_text,
    emit_csv,
    figure_spec,
    multi_select_lower_capped,
    run_sweep,
)
from sqcap.sweeps import _entries_per_trial


def test_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec("nope", (1, 2), (1.0,), 4)
    with pytest.raises(ValueError):
        SweepSpec("custom", (), (1.0,), 4)
    with pytest.raises(ValueError):
        SweepSpec("custom", (2, 2), (1.0,), 4)  # not strictly increasing
    with pytest.raises(ValueError):
        SweepSpec("custom", (1, 2), (-1.0,), 4)
    with pytest.raises(ValueError):
        SweepSpec("custom", (1, 2), (1.0,), 0)
    with pytest.raises(ValueError):
        SweepSpec("custom", (1, 2), (1.0,), 4, trials=0)
    with pytest.raises(ValueError):
        SweepSpec("custom", (1, 2), (1.0,), 4, k_list=(4, 2))
    for seed in (2.5, -1, 2**64, float("nan")):
        with pytest.raises(ValueError, match="seed"):
            SweepSpec("custom", (1, 2), (1.0,), 4, seed=seed)
    spec = SweepSpec("custom", [1, 2, 5], [1, 10], 6, trials=3, seed=np.int64(1))
    assert spec.axis == (1, 2, 5)
    assert spec.power_list == (1.0, 10.0)
    assert spec.seed == 1 and type(spec.seed) is int


@pytest.mark.parametrize(
    "field, kwargs",
    [
        ("axis", dict(axis=(1, 2.7))),
        ("k_list", dict(k_list=(1.5,))),
        ("n_sq", dict(n_sq=2.5)),
        ("n_tx", dict(n_tx=2.5)),
        ("trials", dict(trials=3.9)),
        ("trials", dict(trials=float("inf"))),
    ],
    ids=["axis", "k_list", "n_sq", "n_tx", "trials", "trials-inf"],
)
def test_spec_rejects_fractional_counts(field, kwargs):
    args = dict(figure_id="custom", axis=(1, 2), power_list=(1.0,), n_sq=4, trials=3)
    with pytest.raises(ValueError, match=field):
        SweepSpec(**{**args, **kwargs})


@pytest.mark.parametrize(
    "kwargs, powers, label",
    [
        (dict(), "1.0 and 1.0000001", "single-select-upper:P=1"),
        (dict(k_list=(2,)), "1.0 and 1.0000001", "single-select-upper:P=1"),
        (dict(n_tx=2), "1.0 and 1.0000001", "mimo-single-select-upper:P=1"),
    ],
    ids=["vector", "k-list", "matrix"],
)
def test_spec_rejects_powers_that_share_a_label(kwargs, powers, label):
    # {p:g} keeps 6 significant digits: the two powers would name one curve twice
    with pytest.raises(ValueError) as info:
        SweepSpec("custom", (1, 2), (0.5, 1.0, 1.0000001), 4, trials=2, **kwargs)
    assert str(info.value) == f"powers {powers} share the curve label {label!r}"
    with pytest.raises(ValueError, match="powers 2.0 and 2.0 share"):
        SweepSpec("custom", (1, 2), (2.0, 2.0), 4, trials=2, **kwargs)
    SweepSpec("custom", (1, 2), (1.0, 1.00001), 4, trials=2, **kwargs)


def test_k_cap_and_workers_must_be_counts():
    for k_cap in (0, 1.5):
        with pytest.raises(ValueError, match="k_cap"):
            multi_select_lower_capped((1.0, 2.0), 10.0, 8, k_cap)
    spec = SweepSpec("custom", (1, 2), (1.0,), 4, trials=3)
    for workers in (0, 2.5):
        with pytest.raises(ValueError, match="workers"):
            run_sweep(spec, workers=workers)


@pytest.mark.parametrize(
    "h, power, match",
    [
        ((np.nan, 1.0), 10.0, "finite"),
        ((np.inf, 1.0), 10.0, "finite"),
        (((1.0, 2.0), (0.5, 1.5)), 10.0, "1-D"),
        ((), 10.0, "1-D"),
        ((1.0, 2.0), -5.0, "power"),
        ((1.0, 2.0), np.nan, "power"),
        ((1.0, 2.0), np.inf, "power"),
    ],
    ids=["nan-gain", "inf-gain", "2-d-gains", "no-gains", "negative-power", "nan-power",
         "inf-power"],
)
def test_multi_select_lower_capped_rejects_bad_inputs(h, power, match):
    with pytest.raises(ValueError, match=match):
        multi_select_lower_capped(h, power, 8, 2)


def test_figure_presets():
    a = figure_spec("fig2a", trials=10, seed=1)
    assert a.n_sq == 10 and a.n_tx is None
    assert a.axis == tuple(range(1, 101))
    assert a.power_list == (1.0, 10.0, 100.0)

    b = figure_spec("fig2b", trials=10, seed=1)
    assert b.n_sq == 100 and b.power_list == (1000.0,)
    assert b.k_list == (2, 4, 6, 8, 10)
    assert b.axis[0] == 1 and b.axis[-1] == 1000 and len(b.axis) == 18

    c = figure_spec("fig2c", trials=10, seed=1)
    assert c.n_sq == 5 and c.n_tx == 5
    assert c.axis == tuple(range(5, 51))
    assert c.power_list == (0.1, 1.0)

    with pytest.raises(ValueError):
        figure_spec("fig2z", trials=10, seed=1)


def test_figure_spec_overrides():
    spec = figure_spec("fig2a", trials=4, seed=2, axis=(1, 3), power_list=(2.0,))
    assert spec.axis == (1, 3)
    assert spec.power_list == (2.0,)
    assert spec.n_sq == 10


@pytest.mark.parametrize("field", ["include_highsnr_proxy", "include_sign_select_finite_snr"])
def test_spec_has_no_stub_curve_fields(field):
    # every curve is a bound evaluated on the draws; the constant high-SNR
    # value stays with `bounds --family mimo-highsnr`
    with pytest.raises(TypeError, match=field):
        SweepSpec("custom", (1, 2), (1.0,), 4, n_tx=2, **{field: True})
    assert len(dataclasses.fields(SweepSpec)) == 8


def test_k_list_conflicts_with_matrix_sweep():
    with pytest.raises(ValueError, match="k_list"):
        spec = SweepSpec("custom", (2, 4), (1.0,), 8, n_tx=2, k_list=(2,))
        run_sweep(spec)


def test_multi_select_lower_capped_matches_full_bound():
    rng = np.random.default_rng(3)
    for _ in range(25):
        h = rng.standard_normal(rng.integers(1, 8))
        p = float(rng.uniform(0.5, 200.0))
        n_sq = int(rng.integers(1, 40))
        full_cap = min(h.size, n_sq)
        capped = multi_select_lower_capped(h, p, n_sq, full_cap)
        assert capped == pytest.approx(simo_multi_select_bounds(h, p, n_sq).lower, abs=1e-12)
        # cumulative maximum: nondecreasing in the cap
        vals = [multi_select_lower_capped(h, p, n_sq, k) for k in range(1, full_cap + 1)]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


def test_multi_select_lower_capped_squares_past_the_float_range_silently():
    # a gain past 1e154 squares to inf, which the caps clip, as in
    # simo_multi_select_bounds: no overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        capped = multi_select_lower_capped([1e200, 1.0], 1.0, 4, 1)
        full = simo_multi_select_bounds([1e200, 1.0], 1.0, 4)
    assert capped == max(math.log2(5.0) - 2.0, 0.0) and full.lower == capped


def test_run_sweep_shapes_and_labels():
    # the CSV row order: each curve's grid points in turn, the curves of
    # each power together, then the selection curves, power by power
    vector = ["single-select-upper:P=1", "linear-upper:P=1",
              "single-select-upper:P=10", "linear-upper:P=10"]
    multi = ["multi-select-lower:P=1;K=2", "multi-select-lower:P=1;K=4",
             "multi-select-lower:P=10;K=2", "multi-select-lower:P=10;K=4"]
    matrix = ["mimo-single-select-upper:P=1", "waterfill-rate:P=1",
              "mimo-single-select-upper:P=10", "waterfill-rate:P=10"]
    cases = [
        (figure_spec("fig2a", trials=5, seed=4, axis=(1, 2, 5), power_list=(1.0, 10.0)), vector),
        (SweepSpec("custom", (1, 2, 5), (1.0, 10.0), 6, k_list=(2, 4), trials=5, seed=4),
         vector + multi),
        (SweepSpec("custom", (2, 3, 5), (1.0, 10.0), 6, n_tx=2, trials=5, seed=4), matrix),
    ]
    for spec, labels in cases:
        pts = run_sweep(spec)
        assert [p.curve_label for p in pts] == [label for label in labels for _ in spec.axis]
        assert [p.x for p in pts] == list(spec.axis) * len(labels)
        for p in pts:
            assert p.figure_id == spec.figure_id
            assert p.trials == 5 and p.seed == 4
            assert np.isfinite(p.mean) and p.std_err >= 0


def test_single_trial_curves_match_direct_evaluation():
    # one trial, nested prefixes: every mean equals the bound on the draw
    spec = SweepSpec("custom", (1, 2, 4), (3.0,), 12, k_list=(2,), trials=1, seed=11)
    pts = {(p.curve_label, p.x): p.mean for p in run_sweep(spec)}
    master = gaussian_draw(11, 0, (4,))
    for x in (1, 2, 4):
        h = master[:x]
        assert pts[("single-select-upper:P=3", x)] == simo_single_select_bounds(h, 3.0, 12).upper
        assert pts[("linear-upper:P=3", x)] == simo_linear_bounds(h, 3.0, 12).upper
        assert pts[("multi-select-lower:P=3;K=2", x)] == multi_select_lower_capped(h, 3.0, 12, 2)


@pytest.mark.parametrize("seed", range(20))
def test_vector_curves_equal_their_scalar_bounds(seed):
    # the sweep block and the scalar API read the same statistics, the top
    # squares from one kernel and |h|^2 summed in order, so a one-trial
    # vector curve is its scalar bound on the prefix bit for bit, also
    # where P is small enough that the sum's last bits reach the rate
    axis, powers = (1, 3, 8, 17, 40, 90, 200), (1e-4, 0.01, 50.0)
    spec = SweepSpec("custom", axis, powers, 4000, k_list=(5,), trials=1, seed=seed)
    pts = {(p.curve_label, p.x): p.mean for p in run_sweep(spec)}
    master = gaussian_draw(seed, 0, (axis[-1],))
    for p in powers:
        for x in axis:
            h = master[:x]
            assert pts[(f"single-select-upper:P={p:g}", x)] == simo_single_select_bounds(
                h, p, 4000
            ).upper
            assert pts[(f"linear-upper:P={p:g}", x)] == simo_linear_bounds(h, p, 4000).upper
            assert pts[(f"multi-select-lower:P={p:g};K=5", x)] == multi_select_lower_capped(
                h, p, 4000, 5
            )


def test_multi_trial_curves_match_scalar_api():
    # every curve mean is the trial mean of the scalar bounds on each prefix;
    # K is capped by the antenna count at the first grid points and, for
    # K = 8, by n_sq = 6 at the last ones
    axis, trials, ks = (1, 2, 3, 5, 8, 13), 7, (1, 2, 4, 8)
    spec = SweepSpec("custom", axis, (0.5, 40.0), 6, k_list=ks, trials=trials, seed=21)
    pts = {(p.curve_label, p.x): p.mean for p in run_sweep(spec)}
    assert len(pts) == 2 * (2 + len(ks)) * len(axis)
    masters = [gaussian_draw(21, t, (axis[-1],)) for t in range(trials)]
    for p in (0.5, 40.0):
        for x in axis:
            prefixes = [h[:x] for h in masters]
            want = {
                f"single-select-upper:P={p:g}": [
                    simo_single_select_bounds(h, p, 6).upper for h in prefixes
                ],
                f"linear-upper:P={p:g}": [simo_linear_bounds(h, p, 6).upper for h in prefixes],
                **{
                    f"multi-select-lower:P={p:g};K={k}": [
                        multi_select_lower_capped(h, p, 6, k) for h in prefixes
                    ]
                    for k in ks
                },
            }
            for label, values in want.items():
                assert pts[(label, x)] == np.mean(values)


def _labels(curves: list) -> list:
    """Every curve label of ``sweeps._curves`` groups, in CSV row order."""
    return [label for labels, *_ in curves for label in labels]


def test_multi_select_curves_take_one_rate_pass_per_power(monkeypatch):
    # every K of one power reads the running max of one pass over the top
    # rows of every grid point, zero-padded to min(k_list[-1], n_sq) = 6,
    # bit for bit the scalar bound on each trial's prefix; K = 9 is capped
    # by n_sq = 6 and, at the first grid points, K = 3 and 9 by x
    axis, powers, ks, trials = (1, 2, 5, 12), (0.5, 40.0), (1, 3, 9), 4
    spec = SweepSpec("custom", axis, powers, 6, k_list=ks, trials=trials, seed=8)
    real, passes = sqcap.sweeps._multi_select_rates, []

    def rates(top, p, n_sq):
        passes.append((top.shape, p))
        return real(top, p, n_sq)

    monkeypatch.setattr(sqcap.sweeps, "_multi_select_rates", rates)
    curves = sqcap.sweeps._curves(spec)
    column = {label: c for c, label in enumerate(_labels(curves))}
    out = sqcap.sweeps._block(spec, curves, 0, trials)
    assert passes == [((trials, len(axis), 6), p) for p in powers]
    masters = [gaussian_draw(8, t, (axis[-1],)) for t in range(trials)]
    for p in powers:
        for k in ks:
            want = [[multi_select_lower_capped(h[:x], p, 6, k) for x in axis] for h in masters]
            assert np.array_equal(out[:, column[f"multi-select-lower:P={p:g};K={k}"]], want)


@pytest.mark.parametrize(
    "axis, n_sq, ks, ties",
    [
        ((1, 2, 3, 4, 5, 6), 8, (3,), False),
        ((1, 9, 30, 31, 60), 8, (2, 4), False),
        ((2, 3, 7, 20), 4, (3, 9), False),
        ((1, 4, 12, 13, 40), 50, (2, 5), True),
    ],
    ids=["steps-of-one", "steps-wider-than-k", "k-past-n_sq", "tied-squares"],
)
def test_top_rows_are_the_top_squares_of_every_prefix(monkeypatch, axis, n_sq, ks, ties):
    # the top rows, merged prefix by prefix in one buffer, are bit for bit
    # the strongest squares of each whole prefix as a full sort orders
    # them, zero-padded to K = min(k_list[-1], n_sq), and the max row is
    # their first column, the running max of the squares
    trials = 6
    spec = SweepSpec("custom", axis, (1.0,), n_sq, k_list=ks, trials=trials, seed=3)
    draws = _gaussian_rows(3, range(trials), (axis[-1],))
    if ties:
        # half-integer draws of both signs: most squares repeat
        draws = np.round(2.0 * draws) / 2.0
        monkeypatch.setattr(sqcap.sweeps, "_gaussian_rows", lambda *args: draws.copy())
        assert len(np.unique(draws * draws)) < draws.size // 4
    seen = {}

    def probe(spec, stats, p):
        seen.update(stats)
        return [stats["max_sq"]]

    sqcap.sweeps._block(spec, [(["probe"], probe, 1.0)], 0, trials)
    sq = draws * draws
    k = min(ks[-1], n_sq)
    assert seen["tops"].shape == (trials, len(axis), k)
    for i, x in enumerate(axis):
        want = np.zeros((trials, k))
        top = np.sort(sq[:, :x], axis=1)[:, ::-1][:, :k]
        want[:, : top.shape[1]] = top
        assert np.array_equal(seen["tops"][:, i], want)
        assert np.array_equal(seen["max_sq"][:, i], np.max(sq[:, :x], axis=1))


def test_blocks_past_the_trial_cap_keep_the_csv(monkeypatch):
    # 11 trials in blocks of at most 4, or of one, and at least one block per
    # thread: the CSV is one block's at every worker count
    monkeypatch.setattr(sqcap.sweeps.os, "cpu_count", lambda: 8)
    real = sqcap.sweeps._block
    blocks = []

    def block(spec, curves, t0, t1):
        blocks.append((t0, t1))
        return real(spec, curves, t0, t1)

    for spec in [
        figure_spec("fig2b", trials=11, seed=5, axis=(1, 3, 40)),
        figure_spec("fig2c", trials=11, seed=5, axis=(5, 7, 12)),
    ]:
        base = csv_text(run_sweep(spec))
        with monkeypatch.context() as patch:
            patch.setattr(sqcap.sweeps, "_block", block)
            fives = [(0, 3), (3, 5), (5, 7), (7, 9), (9, 11)]
            for per_block, want in [(4, [(0, 4), (4, 8), (8, 11)]),
                                    (1, [(t, t + 1) for t in range(11)])]:
                patch.setattr(sqcap.sweeps, "BLOCK_ENTRIES", per_block * _entries_per_trial(spec))
                for workers in (1, 2, 3, 5):
                    blocks.clear()
                    assert csv_text(run_sweep(spec, workers=workers)) == base
                    # five threads take five blocks where the budget gives three
                    assert sorted(blocks) == (fives if len(want) < workers else want)


BUDGET_SPECS = {
    # tall matrices: 7 x 7 Gram matrices at 98 grid points
    "tall-matrix": SweepSpec("custom", range(7, 301, 3), (0.5, 4.0), 6, n_tx=7, seed=4),
    # top-k rows: 100 per grid point
    "k-list": SweepSpec("custom", range(1, 301), (2.0,), 200, k_list=(10, 100), seed=4),
    # mixed widths: 4 wide prefixes zero-padded to 12 gains, then 12 x 12 Gram matrices
    "mixed-matrix": SweepSpec("custom", range(1, 301, 3), (0.5, 4.0), 6, n_tx=12, seed=4),
}


@pytest.mark.parametrize(
    "spec",
    [
        *BUDGET_SPECS.values(),
        # one trial draws more entries than the budget holds
        SweepSpec("custom", (1, 9, 1 << 21), (1.0,), 3, seed=4),
    ],
    ids=[*BUDGET_SPECS, "past-the-budget"],
)
def test_blocks_fit_the_entry_budget(monkeypatch, spec):
    real = sqcap.sweeps._block
    per_trial = _entries_per_trial(spec)
    # three full blocks, of one trial each when one trial overflows the budget
    spec = dataclasses.replace(spec, trials=3 * max(1, sqcap.sweeps.BLOCK_ENTRIES // per_trial))
    blocks = []

    def block(spec, curves, t0, t1):
        blocks.append((t0, t1))
        return real(spec, curves, t0, t1)

    with monkeypatch.context() as patch:
        patch.setattr(sqcap.sweeps, "_block", block)
        text = csv_text(run_sweep(spec))
    assert len(blocks) == 3
    assert blocks[0][0] == 0 and blocks[-1][1] == spec.trials
    assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
    for t0, t1 in blocks:
        assert (t1 - t0) * per_trial <= sqcap.sweeps.BLOCK_ENTRIES or t1 - t0 == 1
    with monkeypatch.context() as patch:
        patch.setattr(sqcap.sweeps, "BLOCK_ENTRIES", spec.trials * per_trial)
        assert csv_text(run_sweep(spec)) == text


@pytest.mark.parametrize(
    "spec",
    [
        figure_spec("fig2a", trials=1),
        figure_spec("fig2b", trials=1),
        figure_spec("fig2c", trials=1),
        *BUDGET_SPECS.values(),
        SweepSpec("custom", range(1, 2858), (1.0, 10.0), 10, trials=1, seed=4),
        # top-2 rows at 2000 grid points
        SweepSpec("custom", range(1, 2001), (2.0,), 200, k_list=(2,), seed=4),
    ],
    ids=["fig2a", "fig2b", "fig2c", *BUDGET_SPECS, "long-vector", "long-k-axis"],
)
def test_block_peak_fits_the_entry_budget(spec):
    curves = sqcap.sweeps._curves(spec)
    trials = max(1, sqcap.sweeps.BLOCK_ENTRIES // _entries_per_trial(spec))
    # the first block imports scipy.special, which is not the block's to count
    sqcap.sweeps._block(spec, curves, 0, 1)
    tracemalloc.start()
    try:
        sqcap.sweeps._block(spec, curves, 0, trials)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the count is the peak, not a loose cap on it
    assert 0.85 * sqcap.sweeps.BLOCK_ENTRIES * 8 <= peak <= sqcap.sweeps.BLOCK_ENTRIES * 8


@pytest.mark.parametrize(
    "spec",
    [
        # two grid points far apart: the draw and its transposed copy
        SweepSpec("custom", (5, 3000), (1.0,), 5, n_tx=5, seed=4),
        # 99 grid points of 6 x 6 Gram matrices rotated beside their copy
        SweepSpec("custom", range(6, 301, 3), (1.0,), 5, n_tx=6, seed=4),
    ],
    ids=["sparse-axis", "dense-axis"],
)
def test_jacobi_spectrum_peak_fits_the_entry_budget(spec):
    # specs whose largest phase is the Jacobi spectrum: the count is its peak
    assert spec.n_tx <= sqcap.channel._JACOBI_MAX_DIM
    trials = sqcap.sweeps.BLOCK_ENTRIES // _entries_per_trial(spec)
    curves = sqcap.sweeps._curves(spec)
    # the first block imports scipy.special, which is not the block's to count
    sqcap.sweeps._block(spec, curves, 0, 1)
    shape = (spec.axis[-1], spec.n_tx)
    tracemalloc.start()
    try:
        sqcap.channel._full_rank_rows(spec.seed, range(trials), shape, spec.axis)
        spectrum = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        sqcap.sweeps._block(spec, curves, 0, trials)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.85 * sqcap.sweeps.BLOCK_ENTRIES * 8 <= spectrum <= peak
    assert peak <= sqcap.sweeps.BLOCK_ENTRIES * 8


@pytest.mark.parametrize("n_tx", range(1, 9))
def test_row_sums_are_numpys_row_sums(n_tx):
    # a matrix block's squared row norms, by column passes up to 7 columns,
    # have the bits of np.sum over the rows; past 7 numpy adds pairwise
    h = np.random.default_rng(60 + n_tx).standard_normal((200, 50, n_tx))
    sq = sqcap.sweeps._row_sums(h * h)
    assert sq.shape == (200, 50) and np.array_equal(sq, np.sum(h * h, axis=2))


def test_one_transmit_antenna_sweep_matches_the_vector_sweep():
    # a vector channel is a matrix channel with one transmit antenna: the
    # same draws, the best row is the strongest entry, and the one gain
    # water-filled is the combined |h|^2 of maximal-ratio combining
    axis, powers = (1, 2, 4, 9, 30), (0.2, 5.0, 300.0)
    vector = SweepSpec("custom", axis, powers, 7, trials=23, seed=13)
    matrix = SweepSpec("custom", axis, powers, 7, n_tx=1, trials=23, seed=13)
    vec = {(p.curve_label, p.x): p.mean for p in run_sweep(vector)}
    mat = {(p.curve_label, p.x): p.mean for p in run_sweep(matrix)}
    assert len(mat) == len(vec) == 2 * len(powers) * len(axis)
    for p in powers:
        for x in axis:
            single = f"single-select-upper:P={p:g}"
            assert mat[("mimo-" + single, x)] == vec[(single, x)]
            rate = mat[(f"waterfill-rate:P={p:g}", x)]
            assert rate == pytest.approx(vec[(f"linear-upper:P={p:g}", x)], rel=0, abs=1e-12)


def test_per_draw_dominance_and_monotonicity():
    spec = SweepSpec("custom", (1, 2, 3, 5, 8), (5.0,), 10, trials=1, seed=6)
    pts = run_sweep(spec)
    series = {}
    for p in pts:
        series.setdefault(p.curve_label, []).append((p.x, p.mean))
    single = [v for _, v in sorted(series["single-select-upper:P=5"])]
    linear = [v for _, v in sorted(series["linear-upper:P=5"])]
    # combining all antennas dominates picking one, per draw
    assert all(l >= s - 1e-12 for s, l in zip(single, linear))
    # nested prefixes make each curve nondecreasing per draw
    assert all(b >= a - 1e-12 for a, b in zip(single, single[1:]))
    assert all(b >= a - 1e-12 for a, b in zip(linear, linear[1:]))


def test_k_curves_nondecreasing_per_draw():
    spec = SweepSpec("custom", (4, 16), (50.0,), 24, k_list=(1, 2, 4), trials=1, seed=9)
    pts = {(p.curve_label, p.x): p.mean for p in run_sweep(spec)}
    for x in (4, 16):
        k1 = pts[("multi-select-lower:P=50;K=1", x)]
        k2 = pts[("multi-select-lower:P=50;K=2", x)]
        k4 = pts[("multi-select-lower:P=50;K=4", x)]
        assert k1 <= k2 + 1e-15 <= k4 + 2e-15


def test_matrix_sweep_curves():
    spec = figure_spec("fig2c", trials=3, seed=5, axis=(5, 9))
    table = run_sweep(spec)
    assert table.labels == (
        "mimo-single-select-upper:P=0.1", "waterfill-rate:P=0.1",
        "mimo-single-select-upper:P=1", "waterfill-rate:P=1",
    )
    # every curve reads the draws: none is constant with zero spread
    assert all(p.std_err > 0 for p in table)


def test_matrix_sweep_propagates_evaluation_errors(monkeypatch):
    # only a rank-deficient draw is redrawn; any other fault surfaces as is
    def boom(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(sqcap.sweeps, "_capped_waterfill_rows", boom)
    with pytest.raises(ValueError, match="boom"):
        run_sweep(figure_spec("fig2c", trials=2, seed=3, axis=(5, 6)))


def test_matrix_sweep_redraws_rank_deficient_master(monkeypatch):
    # only trial 0's first draw is rank deficient: it alone moves on to
    # counter block 1, and trial 1 of the same block keeps its first draw
    real = sqcap.channel._gaussian_rows
    masters = [gaussian_draw(3, 0, (6, 5), counter_block=1), gaussian_draw(3, 1, (6, 5))]
    drawn = []

    def draw(seed, streams, shape, counter_block=0):
        drawn.append((list(streams), counter_block))
        h = real(seed, streams, shape, counter_block)
        for row, stream in enumerate(streams):
            if stream == 0 and counter_block == 0:
                h[row, :, 1] = h[row, :, 0]
        return h

    monkeypatch.setattr(sqcap.channel, "_gaussian_rows", draw)
    pts = run_sweep(figure_spec("fig2c", trials=2, seed=3, axis=(5, 6), power_list=(1.0,)))
    # each attempt draws only the trials still pending
    assert drawn == [([0, 1], 0), ([0], 1)]
    got = {(p.curve_label, p.x): p.mean for p in pts}
    for x in (5, 6):
        cms = [ChannelMatrix(m[:x]) for m in masters]
        upper = [mimo_single_select_bounds(cm, 1.0, 5).upper for cm in cms]
        rate = [waterfill_relaxed(cm.gains, 1.0, 5).rate for cm in cms]
        assert got[("mimo-single-select-upper:P=1", x)] == np.mean(upper)
        assert got[("waterfill-rate:P=1", x)] == np.mean(rate)

    monkeypatch.setattr(
        sqcap.channel, "_gaussian_rows", lambda seed, streams, *args: np.ones((len(streams), 6, 5))
    )
    with pytest.raises(RuntimeError, match="attempts in trial 0"):
        run_sweep(figure_spec("fig2c", trials=2, seed=3, axis=(5, 6)))


#: Gain counts 1, 2, 3, 6 and 7 (capped by n_tx).
MIXED_WIDTH_SPEC = SweepSpec("custom", (1, 2, 3, 6, 9), (0.3, 20.0), 4, n_tx=7, trials=5, seed=17)


def test_matrix_sweep_takes_one_spectrum_pass_per_block(monkeypatch):
    calls = []

    def counted(module, name):
        real = getattr(module, name)

        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return call

    for module, name in [(np.linalg, "eigvalsh"), (np.linalg, "svd"), (sqcap.channel, "_jacobi_gains")]:
        monkeypatch.setattr(module, name, counted(module, name))
    spec = figure_spec("fig2c", trials=3, seed=4, axis=(5, 6, 8))
    with monkeypatch.context() as patch:
        patch.setattr(sqcap.sweeps, "BLOCK_ENTRIES", 2 * _entries_per_trial(spec))
        run_sweep(spec)
    # two blocks of well-conditioned draws: one Jacobi pass over each stack,
    # every Gram matrix converged, so no eigvalsh, and no SVD
    assert calls == ["_jacobi_gains", "_jacobi_gains"]
    # past the Jacobi sizes, wide prefixes share the tall ones' running Gram
    # sums in one kernel pass over the block, and eigvalsh takes its Gram
    # matrices at most as many at a time as the block has trials; no SVD
    calls.clear()
    assert MIXED_WIDTH_SPEC.n_tx > sqcap.channel._JACOBI_MAX_DIM
    run_sweep(MIXED_WIDTH_SPEC)
    trials = MIXED_WIDTH_SPEC.trials
    matrices = trials * len(MIXED_WIDTH_SPEC.axis)
    assert calls == ["_jacobi_gains"] + ["eigvalsh"] * -(-matrices // trials)


def test_matrix_sweep_ill_conditioned_prefix_takes_the_svd(monkeypatch):
    # trial 0's column 1 nearly repeats column 0: its prefixes have full rank
    # but a Gram eigenvalue ratio below what the Gram path trusts
    real_draw, real_svd = sqcap.channel._gaussian_rows, np.linalg.svd
    drawn, factorized = [], []
    noise = gaussian_draw(5, 0, 6)

    def tilt(h):
        h[:, 1] = h[:, 0] + 1e-5 * noise
        return h

    # the reference masters, drawn before the patch reaches gaussian_draw
    masters = [tilt(gaussian_draw(3, 0, (6, 5))), gaussian_draw(3, 1, (6, 5))]

    def draw(seed, streams, shape, counter_block=0):
        drawn.append((list(streams), counter_block))
        h = real_draw(seed, streams, shape, counter_block)
        tilt(h[0])
        return h

    def svd(a, *args, **kwargs):
        factorized.append(a.shape)
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(sqcap.channel, "_gaussian_rows", draw)
    monkeypatch.setattr(np.linalg, "svd", svd)
    pts = run_sweep(figure_spec("fig2c", trials=2, seed=3, axis=(5, 6), power_list=(1.0,)))
    assert drawn == [([0, 1], 0)]
    assert factorized == [(5, 5), (6, 5)]
    got = {(p.curve_label, p.x): p.mean for p in pts}
    for x in (5, 6):
        s = real_svd(masters[0][:x], compute_uv=False)
        assert s[-1] ** 2 < 1e-6 * s[0] ** 2 and s[-1] > 1e3 * RANK_TOL * s[0]
        cms = [ChannelMatrix(m[:x]) for m in masters]
        np.testing.assert_array_equal(cms[0].gains, s * s)
        rate = [waterfill_relaxed(cm.gains, 1.0, 5).rate for cm in cms]
        assert got[("waterfill-rate:P=1", x)] == np.mean(rate)


def test_matrix_sweep_waterfills_each_power_once(monkeypatch):
    real = sqcap.sweeps._capped_waterfill_rows
    rows, uncapped, subchannel_major = [], [], []

    def waterfill(g, caps, power):
        rows.append(g.shape)
        uncapped.append(caps is None)
        subchannel_major.append(g.T.flags.c_contiguous)
        return real(g, caps, power)

    monkeypatch.setattr(sqcap.sweeps, "_capped_waterfill_rows", waterfill)
    run_sweep(figure_spec("fig2c", trials=3, seed=4, axis=(5, 6, 8)))
    # every grid point has 5 gains: one stack of all points and trials per power
    assert rows == [(3 * 3, 5)] * 2
    # the spectrum's gains come sorted nonincreasing, so no caps are built,
    # and one row per subchannel, which the kernel reads without a copy
    assert uncapped == [True, True]
    assert subchannel_major == [True, True]
    # gain counts 1, 2, 3, 6 and 7, zero-padded to n_tx: still one stack per power
    rows.clear()
    run_sweep(MIXED_WIDTH_SPEC)
    assert rows == [(5 * 5, 7)] * 2


def test_mixed_width_waterfill_matches_scalar_api():
    spec = MIXED_WIDTH_SPEC
    axis, trials, n_tx, n_sq = spec.axis, spec.trials, spec.n_tx, spec.n_sq
    got = {(p.curve_label, p.x): p.mean for p in run_sweep(spec)}
    masters = [gaussian_draw(spec.seed, t, (axis[-1], n_tx)) for t in range(trials)]
    for p in spec.power_list:
        for x in axis:
            rates = [waterfill_relaxed(ChannelMatrix(m[:x]).gains, p, n_sq).rate for m in masters]
            assert got[(f"waterfill-rate:P={p:g}", x)] == np.mean(rates)


def test_run_sweep_deterministic_and_worker_invariant(monkeypatch):
    # enough cores that every requested worker gets its own thread
    monkeypatch.setattr(sqcap.sweeps.os, "cpu_count", lambda: 16)
    spec = figure_spec("fig2a", trials=6, seed=8, axis=(1, 2, 3), power_list=(1.0,))
    base = csv_text(run_sweep(spec))
    assert base == csv_text(run_sweep(spec))
    assert base == csv_text(run_sweep(spec, workers=3))
    # uneven chunks, and more workers than trials
    spec_u = figure_spec("fig2b", trials=5, seed=8)
    base_u = csv_text(run_sweep(spec_u))
    for workers in (2, 3, 7):
        assert csv_text(run_sweep(spec_u, workers=workers)) == base_u
    spec_b = figure_spec("fig2c", trials=6, seed=8, axis=(5, 7))
    assert csv_text(run_sweep(spec_b, workers=1)) == csv_text(run_sweep(spec_b, workers=5))


@pytest.mark.parametrize("cores, pools", [(4, [(3, 3)]), (None, [])])
def test_run_sweep_caps_threads_at_the_cores_and_chunks_at_the_trials(
    monkeypatch, cores, pools
):
    seen = []

    class SerialPool:
        """ThreadPoolExecutor stand-in that records its size and block count, and runs each
        submitted block at once."""

        def __init__(self, max_workers):
            seen.append([max_workers, 0])

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            seen[-1][1] += 1
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(sqcap.sweeps, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(sqcap.sweeps.os, "cpu_count", lambda: cores)
    spec = figure_spec("fig2a", trials=3, seed=8, axis=(1, 2, 3), power_list=(1.0,))
    base = csv_text(run_sweep(spec, workers=1))
    # one trial per block: three blocks
    monkeypatch.setattr(sqcap.sweeps, "BLOCK_ENTRIES", _entries_per_trial(spec))
    # a huge request asks for no more threads than the cores and the blocks
    assert csv_text(run_sweep(spec, workers=10**5)) == base
    assert [tuple(pool) for pool in seen] == pools


def test_sweep_peak_does_not_grow_with_trials(monkeypatch):
    # 15 and 147 blocks of at most 682 trials: what the sweep holds beside a block
    # does not grow with the trials
    monkeypatch.setattr(sqcap.sweeps, "BLOCK_ENTRIES", 1 << 14)
    peaks = []
    for trials in (10**4, 10**5):
        spec = figure_spec("fig2a", trials=trials, seed=3, axis=(1, 2, 3), power_list=(1.0,))
        tracemalloc.start()
        try:
            run_sweep(spec)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.05 * peaks[0]
    assert peaks[1] <= 2 * sqcap.sweeps.BLOCK_ENTRIES * 8


def test_saturated_point_has_zero_std_err():
    # at x = 100, P = 100 every trial's linear-combining bound sits at the
    # cap 0.5 log2 (n_sq + 1)^2: the s.e. is exactly 0, not rounding noise
    spec = figure_spec("fig2a", trials=60, seed=12, axis=(100,), power_list=(100.0,))
    (point,) = [p for p in run_sweep(spec) if p.curve_label == "linear-upper:P=100"]
    assert point.mean == pytest.approx(0.5 * np.log2(121.0), rel=1e-15)
    assert point.std_err == 0.0


def test_std_err_shrinks_with_trials():
    small = run_sweep(figure_spec("fig2a", trials=8, seed=2, axis=(10,), power_list=(10.0,)))
    large = run_sweep(figure_spec("fig2a", trials=128, seed=2, axis=(10,), power_list=(10.0,)))
    by_label = lambda pts: {p.curve_label: p.std_err for p in pts}
    s, l = by_label(small), by_label(large)
    for label in s:
        assert l[label] < s[label]


def _table(means, errs, labels=("a", "b"), axis=(1, 2, 3)):
    return SweepTable("fig2a", labels, axis, means, errs, 10, 0)


def test_sweep_table_validation():
    ok = [[0.5, 0.25, 0.0], [1.0, 2.0, 3.0]]
    _table(ok, np.zeros((2, 3)))
    nan, inf = math.nan, math.inf
    cases = [
        ([[0.5, 0.25, 0.0], [1.0, nan, inf]], np.zeros((2, 3)), "b at x=2", "nan and 0.0"),
        (ok, [[0.0, 0.0, 0.0], [0.0, 0.0, -0.01]], "b at x=3", "3.0 and -0.01"),
        (ok, [[0.0, nan, -1.0], [0.0, 0.0, 0.0]], "a at x=2", "0.25 and nan"),
        # the first offending row in CSV order is named, whichever field fails
        ([[0.5, 0.25, -inf], [1.0, 2.0, 3.0]], [[0.0, -1.0, 0.0], [0.0, 0.0, 0.0]],
         "a at x=2", "0.25 and -1.0"),
    ]
    for means, errs, point, got in cases:
        with pytest.raises(ValueError) as info:
            _table(means, errs)
        assert str(info.value) == (
            f"curve {point} needs a finite mean and a nonnegative std_err, got {got}"
        )
    with pytest.raises(ValueError, match=r"shape \(2, 3\), got \(3, 2\) and \(2, 3\)"):
        _table(np.zeros((3, 2)), np.zeros((2, 3)))
    table = _table(ok, np.zeros((2, 3)))
    with pytest.raises(ValueError):
        dataclasses.replace(table, means=np.full((2, 3), nan))
    with pytest.raises(ValueError):
        dataclasses.replace(table, std_errs=np.full((2, 3), -0.5))


def test_sweep_table_is_frozen_and_read_only():
    means, errs = np.ones((2, 3)), np.zeros((2, 3))
    table = _table(means, errs)
    means[0, 0] = errs[0, 0] = 7.0  # the table holds copies
    assert table.means[0, 0] == 1.0 and table.std_errs[0, 0] == 0.0
    for arr in (table.means, table.std_errs):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        table.trials = 3
    assert table.labels == ("a", "b") and table.axis == (1, 2, 3)
    assert len(table) == 6 and len(list(table)) == 6
    assert pickle.loads(pickle.dumps(table)).means.tolist() == table.means.tolist()


@pytest.mark.parametrize(
    "spec",
    [
        figure_spec("fig2a", trials=5, seed=3),
        figure_spec("fig2b", trials=4, seed=8),
        figure_spec("fig2c", trials=3, seed=5, axis=(5, 6, 9, 30)),
    ],
    ids=["fig2a", "fig2b", "fig2c"],
)
def test_table_iterates_the_points_of_its_arrays(spec):
    table = run_sweep(spec)
    assert table.figure_id == spec.figure_id and table.axis == spec.axis
    assert (table.trials, table.seed) == (spec.trials, spec.seed)
    assert table.means.shape == table.std_errs.shape == (len(table.labels), len(spec.axis))
    want = [
        CurvePoint(spec.figure_id, label, float(x), float(table.means[c, j]),
                   float(table.std_errs[c, j]), spec.trials, spec.seed)
        for c, label in enumerate(table.labels)
        for j, x in enumerate(spec.axis)
    ]
    assert list(table) == want and len(table) == len(want)
    assert all(type(p.x) is type(p.mean) is type(p.std_err) is float for p in table)
    assert csv_text(table) == _f_string_csv(list(table))


def test_csv_format(tmp_path):
    pts = run_sweep(SweepSpec("custom", (1, 2), (1.0,), 4, trials=2, seed=0))
    text = csv_text(pts)
    lines = text.splitlines()
    assert lines[0] == "figure,curve,x,mean,std_err,trials,seed"
    assert len(lines) == 1 + len(pts)
    assert text.endswith("\n") and "\r" not in text
    first = lines[1].split(",")
    assert first[0] == "custom" and first[6] == "0"
    out = tmp_path / "curves.csv"
    emit_csv(pts, out)
    assert out.read_bytes().decode() == text


def test_curve_point_is_slotted_frozen_and_pickles():
    pt = CurvePoint("fig2a", "linear-upper:P=1", 2.0, 0.5, 0.01, 10, 7)
    assert not hasattr(pt, "__dict__")
    assert pickle.loads(pickle.dumps(pt)) == pt
    assert copy.copy(pt) == pt and hash(copy.deepcopy(pt)) == hash(pt)
    moved = dataclasses.replace(pt, mean=0.25)
    assert (moved.mean, moved.x, moved.seed) == (0.25, 2.0, 7)
    assert dataclasses.asdict(pt)["curve_label"] == "linear-upper:P=1"
    with pytest.raises(dataclasses.FrozenInstanceError):
        pt.mean = 1.0


def _f_string_csv(points: list) -> str:
    """The f-string rendering that ``csv_text``'s one row format replaced."""
    lines = ["figure,curve,x,mean,std_err,trials,seed"]
    for pt in points:
        lines.append(
            f"{pt.figure_id},{pt.curve_label},{pt.x:.12g},{pt.mean:.12g},"
            f"{pt.std_err:.12g},{pt.trials},{pt.seed}"
        )
    return "\n".join(lines) + "\n"


def test_csv_rows_match_the_f_string_rendering():
    # integer x, a float trial count, the largest seed, a negative zero
    # mean, a zero std_err and values at both ends of the float range
    tables = [
        SweepTable("custom", ("single-select-upper:P=1",), (3,), [[-0.0]], [[0.0]], 10.0, 2**64 - 1),
        SweepTable("custom", ("linear-upper:P=1e+300", "linear-upper:P=1e-300"), (1e-300, 1e300),
                   [[1e300, 1e-300], [1e-300, 1e300]], [[1e-300, 1e300], [1e300, 1e-300]], 1, 2**63),
        SweepTable("custom", ("multi-select-lower:P=2;K=3",), (0.1,),
                   [[123456789.123456789]], [[2.5e-7]], 7, 5),
        run_sweep(SweepSpec("custom", (1, 2, 5), (1.0, 40.0), 6, k_list=(2,), trials=3, seed=9)),
        SweepTable("custom", (), (1, 2), np.zeros((0, 2)), np.zeros((0, 2)), 3, 0),
    ]
    for table in tables:
        assert csv_text(table) == _f_string_csv(list(table))

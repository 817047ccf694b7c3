"""Monte-Carlo sweeps over random channels, their curves and CSV output."""

import numpy as np
import pytest

import sqcap.sweeps
from sqcap.bounds import (
    mimo_single_select_bounds,
    simo_linear_bounds,
    simo_multi_select_bounds,
    simo_single_select_bounds,
    waterfill_relaxed,
)
from sqcap.channel import ChannelMatrix, gaussian_draw
from sqcap.sweeps import (
    CurvePoint,
    SweepSpec,
    UnsupportedCurveError,
    csv_text,
    emit_csv,
    figure_spec,
    multi_select_lower_capped,
    run_sweep,
)


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


def test_k_cap_and_workers_must_be_counts():
    for k_cap in (0, 1.5):
        with pytest.raises(ValueError, match="k_cap"):
            multi_select_lower_capped((1.0, 2.0), 10.0, 8, k_cap)
    spec = SweepSpec("custom", (1, 2), (1.0,), 4, trials=3)
    for workers in (0, 2.5):
        with pytest.raises(ValueError, match="workers"):
            run_sweep(spec, workers=workers)


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


def test_unsupported_curve_names_the_literature():
    spec = figure_spec("fig2a", trials=2, seed=0, include_sign_select_finite_snr=True)
    with pytest.raises(UnsupportedCurveError, match="Mo and Heath"):
        run_sweep(spec)


def test_k_list_conflicts_with_matrix_sweep():
    spec = SweepSpec("custom", (2, 4), (1.0,), 8, n_tx=2, k_list=(2,))
    with pytest.raises(ValueError, match="k_list"):
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


def test_run_sweep_shapes_and_labels():
    spec = figure_spec("fig2a", trials=5, seed=4, axis=(1, 2, 5), power_list=(1.0, 10.0))
    pts = run_sweep(spec)
    assert len(pts) == 4 * 3  # 2 powers x (single + linear) curves, 3 grid points
    labels = {p.curve_label for p in pts}
    assert labels == {
        "single-select-upper:P=1",
        "linear-upper:P=1",
        "single-select-upper:P=10",
        "linear-upper:P=10",
    }
    for p in pts:
        assert p.figure_id == "fig2a"
        assert p.trials == 5 and p.seed == 4
        assert np.isfinite(p.mean) and p.std_err >= 0


def test_single_trial_curves_match_direct_evaluation():
    # one trial, nested prefixes: every mean equals the bound on the draw
    spec = SweepSpec("custom", (1, 2, 4), (3.0,), 12, k_list=(2,), trials=1, seed=11)
    pts = {(p.curve_label, p.x): p.mean for p in run_sweep(spec)}
    master = gaussian_draw(11, 0, (4,))
    for x in (1, 2, 4):
        h = master[:x]
        assert pts[("single-select-upper:P=3", x)] == pytest.approx(
            simo_single_select_bounds(h, 3.0, 12).upper, rel=1e-12
        )
        assert pts[("linear-upper:P=3", x)] == pytest.approx(
            simo_linear_bounds(h, 3.0, 12).upper, rel=1e-12
        )
        assert pts[("multi-select-lower:P=3;K=2", x)] == pytest.approx(
            multi_select_lower_capped(h, 3.0, 12, 2), rel=1e-12
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
                assert pts[(label, x)] == pytest.approx(np.mean(values), rel=1e-12)


def test_blocks_past_the_trial_cap_keep_the_csv(monkeypatch):
    for name, spec in [
        ("_vector_block", figure_spec("fig2b", trials=11, seed=5, axis=(1, 3, 40))),
        ("_matrix_block", figure_spec("fig2c", trials=11, seed=5, axis=(5, 7, 12))),
    ]:
        base = csv_text(run_sweep(spec))
        with monkeypatch.context() as patch:
            patch.setattr(sqcap.sweeps, "BLOCK_TRIALS", 4)
            blocks = []
            real = getattr(sqcap.sweeps, name)

            def block(spec, curves, t0, t1, out, real=real):
                blocks.append((t0, t1))
                real(spec, curves, t0, t1, out)

            patch.setattr(sqcap.sweeps, name, block)
            assert csv_text(run_sweep(spec)) == base
        assert blocks == [(0, 4), (4, 8), (8, 11)]


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


def test_matrix_sweep_curves_and_proxy():
    spec = figure_spec("fig2c", trials=3, seed=5, axis=(5, 9), include_highsnr_proxy=True)
    pts = run_sweep(spec)
    labels = {p.curve_label for p in pts}
    assert "highsnr-proxy" in labels
    assert "mimo-single-select-upper:P=0.1" in labels
    assert "waterfill-rate:P=1" in labels
    proxy = [p for p in pts if p.curve_label == "highsnr-proxy"]
    # the proxy ignores the draw: constant with zero spread
    assert len({p.mean for p in proxy}) == 1
    assert all(p.std_err == 0 for p in proxy)


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
    real = sqcap.sweeps._gaussian_rows
    drawn = []

    def draw(seed, streams, shape, counter_block=0):
        drawn.append((list(streams), counter_block))
        h = real(seed, streams, shape, counter_block)
        for row, stream in enumerate(streams):
            if stream == 0 and counter_block == 0:
                h[row, :, 1] = h[row, :, 0]
        return h

    monkeypatch.setattr(sqcap.sweeps, "_gaussian_rows", draw)
    pts = run_sweep(figure_spec("fig2c", trials=2, seed=3, axis=(5, 6), power_list=(1.0,)))
    # each attempt draws only the trials still pending
    assert drawn == [([0, 1], 0), ([0], 1)]
    masters = [gaussian_draw(3, 0, (6, 5), counter_block=1), gaussian_draw(3, 1, (6, 5))]
    got = {(p.curve_label, p.x): p.mean for p in pts}
    for x in (5, 6):
        cms = [ChannelMatrix(m[:x]) for m in masters]
        upper = [mimo_single_select_bounds(cm, 1.0, 5).upper for cm in cms]
        rate = [waterfill_relaxed(cm.gains, 1.0, 5).rate for cm in cms]
        assert got[("mimo-single-select-upper:P=1", x)] == np.mean(upper)
        assert got[("waterfill-rate:P=1", x)] == np.mean(rate)

    monkeypatch.setattr(
        sqcap.sweeps, "_gaussian_rows", lambda seed, streams, *args: np.ones((len(streams), 6, 5))
    )
    with pytest.raises(RuntimeError, match="attempts in trial 0"):
        run_sweep(figure_spec("fig2c", trials=2, seed=3, axis=(5, 6)))


def test_matrix_sweep_factorizes_each_point_once(monkeypatch):
    real = np.linalg.svd
    calls = []

    def svd(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    spec = figure_spec("fig2c", trials=3, seed=4, axis=(5, 6, 8), include_highsnr_proxy=True)
    run_sweep(spec)
    # one stacked SVD per grid point for the block of all three trials
    assert len(calls) == len(spec.axis)


def test_matrix_sweep_waterfills_each_power_once(monkeypatch):
    real = sqcap.sweeps._capped_waterfill_rows
    rows = []

    def waterfill(g, caps, power):
        rows.append(g.shape)
        return real(g, caps, power)

    monkeypatch.setattr(sqcap.sweeps, "_capped_waterfill_rows", waterfill)
    run_sweep(figure_spec("fig2c", trials=3, seed=4, axis=(5, 6, 8)))
    # every grid point has 5 gains: one stack of all points and trials per power
    assert rows == [(3 * 3, 5)] * 2


def test_mixed_width_waterfill_matches_scalar_api():
    # gain counts 1, 2, 3, 6 and 7 (capped by n_tx): one stack per count
    axis, trials, n_tx, n_sq = (1, 2, 3, 6, 9), 5, 7, 4
    spec = SweepSpec("custom", axis, (0.3, 20.0), n_sq, n_tx=n_tx, trials=trials, seed=17)
    got = {(p.curve_label, p.x): p.mean for p in run_sweep(spec)}
    masters = [gaussian_draw(17, t, (axis[-1], n_tx)) for t in range(trials)]
    for p in (0.3, 20.0):
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


@pytest.mark.parametrize("cores, pools", [(4, [(4, 3)]), (None, [])])
def test_run_sweep_caps_threads_at_the_cores_and_chunks_at_the_trials(
    monkeypatch, cores, pools
):
    seen = []

    class SerialPool:
        """ThreadPoolExecutor stand-in that records its size and chunk count, and maps serially."""

        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            items = list(items)
            seen.append((self.max_workers, len(items)))
            return map(fn, items)

    monkeypatch.setattr(sqcap.sweeps, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(sqcap.sweeps.os, "cpu_count", lambda: cores)
    spec = figure_spec("fig2a", trials=3, seed=8, axis=(1, 2, 3), power_list=(1.0,))
    # a huge request neither builds 10^5 chunks nor asks for 10^5 threads
    assert csv_text(run_sweep(spec, workers=10**5)) == csv_text(run_sweep(spec, workers=1))
    assert seen == pools


def test_std_err_shrinks_with_trials():
    small = run_sweep(figure_spec("fig2a", trials=8, seed=2, axis=(10,), power_list=(10.0,)))
    large = run_sweep(figure_spec("fig2a", trials=128, seed=2, axis=(10,), power_list=(10.0,)))
    by_label = lambda pts: {p.curve_label: p.std_err for p in pts}
    s, l = by_label(small), by_label(large)
    for label in s:
        assert l[label] < s[label]


def test_curve_point_validation():
    CurvePoint("fig2a", "c", 1, 0.5, 0.01, 10, 0)
    with pytest.raises(ValueError):
        CurvePoint("fig2a", "c", 1, float("nan"), 0.01, 10, 0)
    with pytest.raises(ValueError):
        CurvePoint("fig2a", "c", 1, 0.5, -0.01, 10, 0)


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

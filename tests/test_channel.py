"""Channel model, spectral gains, and deterministic draws."""

import json
import warnings

import numpy as np
import pytest
from scipy import special

import sqcap.channel
from sqcap.channel import (
    _DRAW_ATTEMPTS,
    _JACOBI_MAX_DIM,
    RANK_TOL,
    ChannelEnsembleSpec,
    ChannelMatrix,
    RankDeficientError,
    _full_rank_rows,
    _gaussian_rows,
    _gram_rows,
    _jacobi_floats,
    _jacobi_gains,
    _prefix_gains,
    draw_channel,
    gaussian_draw,
)


def test_channel_matrix_basic():
    cm = ChannelMatrix(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 7.0]]))
    assert cm.n_rx == 3
    assert cm.n_tx == 2
    with pytest.raises((ValueError, AttributeError)):
        cm.entries[0, 0] = 9.0  # read-only view


def test_channel_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        ChannelMatrix(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        ChannelMatrix(np.array([[1.0, np.inf]]))
    # rank deficient; the fallback SVD gives the singular values reported
    with pytest.raises(RankDeficientError, match=r"min/max singular value \S+/5\.000e\+00$"):
        ChannelMatrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
    # near-deficient relative to scale
    with pytest.raises(RankDeficientError):
        ChannelMatrix(np.array([[1.0, 1.0], [1.0, 1.0 + 0.1 * RANK_TOL]]))
    # wide: the n_tx x n_tx Gram path, whose eigenvalues past the rows are
    # set to zero, still sends a deficient matrix to the SVD
    with pytest.raises(RankDeficientError):
        ChannelMatrix(np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]]))
    with pytest.raises(RankDeficientError):
        ChannelMatrix(np.array([[1.0, 1.0, 0.0], [1.0, 1.0 + 0.1 * RANK_TOL, 0.0]]))
    assert issubclass(RankDeficientError, ValueError)


def test_channel_matrix_json_round_trip():
    cm = ChannelMatrix(np.array([[0.5, -1.5], [2.0, 0.25]]), provenance={"seed": 7})
    back = ChannelMatrix.from_json(cm.to_json())
    np.testing.assert_array_equal(back.entries, cm.entries)
    assert back.provenance == {"seed": 7}
    payload = json.loads(cm.to_json())
    assert payload["n_rx"] == 2 and payload["n_tx"] == 2


def test_channel_matrix_from_json_rejects_malformed_payloads():
    with pytest.raises(ValueError, match="missing key 'n_rx'"):
        ChannelMatrix.from_json('{"entries": [1.0, 0.5]}')
    with pytest.raises(ValueError, match="must be an object"):
        ChannelMatrix.from_json("[1, 2, 3]")
    with pytest.raises(ValueError, match="malformed"):
        ChannelMatrix.from_json('{"n_rx": [2], "n_tx": 1, "entries": [1.0, 0.5]}')
    with pytest.raises(ValueError):
        ChannelMatrix.from_json("not json at all")


def test_channel_gains_are_eigenvalues_of_h_ht():
    # ChannelMatrix keeps the squared singular values as gains
    rng = np.random.default_rng(11)
    for n_rx, n_tx in [(4, 4), (6, 3), (3, 6), (1, 5), (5, 1)]:
        h = rng.standard_normal((n_rx, n_tx))
        gains = ChannelMatrix(h).gains
        assert gains.shape == (min(n_rx, n_tx),)
        assert np.all(np.diff(gains) <= 0)
        assert np.all(gains > 0)
        # gains are the nonzero eigenvalues of H H^T, descending
        eig = np.linalg.eigvalsh(h @ h.T)[::-1][: min(n_rx, n_tx)]
        np.testing.assert_allclose(gains, eig, rtol=1e-10, atol=1e-12)
        with pytest.raises(ValueError):
            gains[0] = 1.0


def test_prefix_gains_match_squared_singular_values():
    # tall, square and wide prefixes of each stack, against the SVD: within
    # 16 ulps of the largest gain (fig2c at 1000 trials peaks near 13), and
    # exact zeros past the rank of a wide prefix
    rng = np.random.default_rng(12)
    eps = np.finfo(np.float64).eps
    for n_tx in range(1, 9):
        rows = 3 * n_tx + 2
        h = rng.standard_normal((40, rows, n_tx))
        counts = tuple(range(1, rows + 1))
        gains, full = _prefix_gains(h, counts)
        assert full.all()
        assert gains.shape == (40, len(counts), n_tx)
        for i, x in enumerate(counts):
            want = np.linalg.svd(h[:, :x], compute_uv=False) ** 2
            g = gains[:, i, : want.shape[1]]
            assert np.all(gains[:, i, want.shape[1] :] == 0)
            assert np.all(np.diff(g, axis=1) <= 0)
            assert np.all(np.abs(g - want) <= 16 * eps * want[:, :1])


def _jacobi_cases(n: int) -> np.ndarray:
    """Twelve stacked n-column matrices of 3 n + 2 rows: Gaussian draws, and
    in trial 0 the identity, in trial 1 orthogonal columns of one norm
    (repeated eigenvalues), in trial 2 a draw scaled below the Jacobi trace
    range and in trial 3 one past it."""
    rng = np.random.default_rng(20 + n)
    h = rng.standard_normal((12, 3 * n + 2, n))
    h[0] = 0.0
    h[0, :n] = np.eye(n)
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    h[1] = np.tile(3.0 * q, (5, 1))[: 3 * n + 2]
    h[2] *= 1e-70
    h[3] *= 1e70
    return h


@pytest.mark.parametrize("n", range(1, _JACOBI_MAX_DIM + 1))
@pytest.mark.parametrize("sweeps", [1, sqcap.channel._JACOBI_SWEEPS])
def test_jacobi_floats_match_the_stacked_kernel_bit_for_bit(monkeypatch, n, sweeps):
    # a one-matrix stack runs the kernel on Python floats, a larger one as
    # array passes, both from the Gram entries of _gram_rows: the same bits
    # for every prefix, wide and tall, converged or (one sweep leaves most
    # unconverged) taking eigvalsh
    monkeypatch.setattr(sqcap.channel, "_JACOBI_SWEEPS", sweeps)
    h = _jacobi_cases(n)
    counts = tuple(range(1, h.shape[1] + 1))
    stacked = _jacobi_gains(h, counts)
    for t in range(h.shape[0]):
        for i, x in enumerate(counts):
            entries = _gram_rows(h[t : t + 1], (x,))[:, 0].tolist()
            assert np.array_equal(_jacobi_floats(entries, n), stacked[t, i]), (t, x)
    # the identity's eigenvalues are its diagonal, exactly, and orthogonal
    # columns of one norm repeat one eigenvalue to within rounding
    assert np.all(stacked[0, n - 1 :] == 1.0)
    repeated = stacked[1, 2 * n - 1]
    assert np.ptp(repeated) <= 64 * np.finfo(float).eps * repeated[0]
    np.testing.assert_allclose(repeated, 18.0, rtol=1e-14)


def _eigvalsh_reference(h: np.ndarray, counts) -> np.ndarray:
    """Every trial's and count's Gram eigenvalues, nonincreasing: running
    sums of row outer products in row order, from 0.0, then eigvalsh."""
    trials, _, n = h.shape
    gram = np.zeros((trials, n, n))
    out = np.empty((trials, len(counts), n))
    for i, (start, x) in enumerate(zip((0, *counts), counts)):
        for r in range(start, x):
            gram += h[:, r, :, None] * h[:, r, None, :]
        out[:, i] = np.linalg.eigvalsh(gram)[:, ::-1]
    return out


@pytest.mark.parametrize("n", range(2, _JACOBI_MAX_DIM + 1))
def test_unconverged_jacobi_takes_eigvalsh_of_its_gram(monkeypatch, n):
    # with no sweep no Gram matrix converges, so every one, in range or not,
    # takes eigvalsh of its Gram matrix: the bits of eigvalsh on the running
    # Gram sums
    monkeypatch.setattr(sqcap.channel, "_JACOBI_SWEEPS", 0)
    h = _jacobi_cases(n)[2:]
    counts = tuple(range(1, h.shape[1] + 1))
    want = _eigvalsh_reference(h, counts)
    assert np.array_equal(_jacobi_gains(h, counts), want)
    entries = _gram_rows(h[:1], counts[-1:])[:, 0].tolist()
    assert np.array_equal(_jacobi_floats(entries, n), want[0, -1])


@pytest.mark.parametrize("n", [3, _JACOBI_MAX_DIM, _JACOBI_MAX_DIM + 2])
def test_trial_gains_do_not_depend_on_the_stack(n):
    # stacks of 200, 7 and 1 (the Python-float form, where n allows it)
    rng = np.random.default_rng(30 + n)
    h = rng.standard_normal((200, 3 * n, n))
    counts = (1, n - 1, n, 2 * n, 3 * n)
    gains, full = _prefix_gains(h, counts)
    assert full.all()
    seven = _prefix_gains(h[100:107], counts)
    assert np.array_equal(seven[0], gains[100:107]) and seven[1].all()
    for t in (0, 103, 199):
        for i, x in enumerate(counts):
            one, one_full = _prefix_gains(h[t : t + 1, :x], (x,))
            assert np.array_equal(one[0, 0], gains[t, i]) and one_full[0]


@pytest.mark.parametrize("n", [*range(2, _JACOBI_MAX_DIM + 1), 7, 8, 12])
def test_jacobi_gains_come_subchannel_major(n):
    # a sweep water-fills the rows of gains.reshape(-1, n) one subchannel
    # at a time: at every width, eigvalsh past the Jacobi sizes included,
    # that is a view whose transpose is C-contiguous, wide prefixes
    # zero-padded and SVD-rescued ones included
    h = np.random.default_rng(50 + n).standard_normal((30, 3 * n, n))
    h[4, :, 1] = h[4, :, 0] + 1e-4 * h[4, :, 1]  # an ill-conditioned Gram: the SVD
    counts = (1, n, 2 * n, 3 * n)
    gains, full = _prefix_gains(h, counts)
    assert full.all()
    rows = gains.reshape(-1, n)
    assert np.shares_memory(rows, gains) and rows.T.flags.c_contiguous
    for t in (0, 4, 29):
        for i, x in enumerate(counts):
            one = _prefix_gains(h[t : t + 1, :x], (x,))[0]
            assert np.array_equal(rows[t * len(counts) + i], one[0, 0])


@pytest.mark.parametrize("n", [2, 5, _JACOBI_MAX_DIM + 2])
def test_non_finite_gram_keeps_the_svd_verdict(monkeypatch, n):
    # an entry of 1e200 squares to inf: such a prefix's Gram matrix takes
    # the SVD, as on the eigvalsh path, which finds it rank deficient
    # against its 1e200 singular value; no numpy warning on the way
    h = np.random.default_rng(40 + n).standard_normal((3, n + 2, n))
    h[1, n, 0] = 1e200
    counts = (n, n + 1, n + 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gains, full = _prefix_gains(h, counts)
        with monkeypatch.context() as patch:
            patch.setattr(sqcap.channel, "_JACOBI_MAX_DIM", 0)
            want, want_full = _prefix_gains(h, counts)
        with pytest.raises(RankDeficientError, match=r"value \S+/1\.000e\+200$"):
            ChannelMatrix(h[1])
    assert list(full) == list(want_full) == [True, False, True]
    assert np.all(gains[1, 1:, 0] == np.inf)
    np.testing.assert_array_equal(gains[1, 1:], want[1, 1:])
    np.testing.assert_allclose(gains, want, rtol=1e-13, atol=1e-13)


def test_gaussian_draw_deterministic_and_keyed():
    a = gaussian_draw(3, 5, (4, 2))
    b = gaussian_draw(3, 5, (4, 2))
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, gaussian_draw(3, 6, (4, 2)))
    assert not np.array_equal(a, gaussian_draw(4, 5, (4, 2)))
    assert not np.array_equal(a, gaussian_draw(3, 5, (4, 2), counter_block=1))
    assert np.all(np.isfinite(a))
    np.testing.assert_array_equal(a, gaussian_draw(np.uint64(3), np.int32(5), (4, 2)))
    for bad in (2.5, -1, 2**64, float("nan")):
        with pytest.raises(ValueError, match="seed"):
            gaussian_draw(bad, 5, (4, 2))
        with pytest.raises(ValueError, match="stream"):
            gaussian_draw(3, bad, (4, 2))


def test_gaussian_draw_prefix_nesting():
    # a longer draw from the same key starts with the shorter draw
    big = gaussian_draw(0, 9, (10, 3))
    small = gaussian_draw(0, 9, (4, 3))
    np.testing.assert_array_equal(big[:4], small)


@pytest.mark.parametrize("shape", [1, 5, 250, 1001, (4, 3)])
@pytest.mark.parametrize("counter_block", [0, 3])
def test_gaussian_draw_matches_generator_integers(shape, counter_block):
    # the draw is pinned to the Generator.integers(0, 2**53) recipe it
    # replaced, alone and as a row of the block kernel
    for seed, stream in [(0, 0), (12, 7), (2**63 + 5, 2**40)]:
        gen = np.random.Generator(
            np.random.Philox(
                key=np.array([seed, stream], dtype=np.uint64),
                counter=np.array([0, 0, 0, counter_block], dtype=np.uint64),
            )
        )
        k = gen.integers(0, 1 << 53, size=shape, dtype=np.int64)
        want = special.ndtri((k.astype(np.float64) + 0.5) * (2.0**-53))
        np.testing.assert_array_equal(gaussian_draw(seed, stream, shape, counter_block), want)
        rows = _gaussian_rows(seed, [7, stream, 0], shape, counter_block)
        np.testing.assert_array_equal(rows[1], want)


@pytest.mark.parametrize("shape", [(), (0,), (1,), (100,), (50, 5)])
@pytest.mark.parametrize("counter_block", [0, 3, 2**63])
def test_gaussian_rows_are_single_draws_stacked(shape, counter_block):
    top = 2**64 - 1
    for seed in (0, 9, top):
        streams = [0, 5, top, 5, 2**40]
        rows = _gaussian_rows(seed, streams, shape, counter_block)
        assert rows.shape == (len(streams),) + shape and rows.dtype == np.float64
        for row, stream in zip(rows, streams):
            one = gaussian_draw(seed, stream, shape, counter_block)
            assert np.shape(one) == shape
            assert row.tobytes() == np.asarray(one).tobytes()
    assert _gaussian_rows(3, [], shape, counter_block).shape == (0,) + shape


def test_back_to_back_gaussian_rows_keep_their_own_keys():
    # one Philox state is re-keyed stream by stream within a call: a call
    # after another with a different seed and counter block still draws the
    # bits of gaussian_draw for each of its streams
    calls = [(5, range(3, 9), 0), (2**64 - 1, [2, 9, 0, 2**64 - 1], 2), (5, range(3, 9), 7)]
    blocks = [_gaussian_rows(seed, streams, (50, 5), block) for seed, streams, block in calls]
    for rows, (seed, streams, block) in zip(blocks, calls):
        for row, stream in zip(rows, streams):
            assert row.tobytes() == gaussian_draw(seed, stream, (50, 5), block).tobytes()
    assert not np.array_equal(blocks[0], blocks[2])


def test_gaussian_rows_reject_any_bad_stream():
    for streams in ([-1, 0, 1], [0, 2.5, 1], [0, 1, 2**64], [0, 1, float("nan")]):
        with pytest.raises(ValueError, match="stream"):
            _gaussian_rows(3, streams, (4,))
    with pytest.raises(ValueError, match="seed"):
        _gaussian_rows(-1, [0, 1], (4,))


def test_gaussian_rows_check_a_range_by_its_ends(monkeypatch):
    # a sweep block's range of trials: two stream checks, not one per trial,
    # and the same bits as the streams listed one by one
    real, checked = sqcap.channel._check_seed, []

    def check(value, name="seed"):
        checked.append(name)
        return real(value, name)

    monkeypatch.setattr(sqcap.channel, "_check_seed", check)
    rows = _gaussian_rows(3, range(5, 205), (4,))
    assert checked == ["seed", "stream", "stream"]
    assert np.array_equal(rows, _gaussian_rows(3, list(range(5, 205)), (4,)))
    for streams in (range(-1, 3), range(2**64 - 2, 2**64 + 1)):
        with pytest.raises(ValueError, match="stream"):
            _gaussian_rows(3, streams, (4,))
    assert _gaussian_rows(3, range(0), (4,)).shape == (0, 4)


def test_gaussian_draw_moments():
    x = gaussian_draw(1, 0, (200, 500))
    assert abs(x.mean()) < 0.01
    assert abs(x.std() - 1.0) < 0.01


def test_draw_channel_provenance_and_determinism():
    spec = ChannelEnsembleSpec(5, 3, seed=2, trials=10)
    cm1 = draw_channel(spec, 4)
    cm2 = draw_channel(spec, 4)
    np.testing.assert_array_equal(cm1.entries, cm2.entries)
    assert cm1.provenance["seed"] == 2
    assert cm1.provenance["trial_index"] == 4
    assert cm1.provenance["redraws"] >= 0
    assert not np.array_equal(cm1.entries, draw_channel(spec, 5).entries)
    with pytest.raises(ValueError):
        draw_channel(spec, 10)
    with pytest.raises(ValueError):
        draw_channel(spec, -1)


def test_draw_channel_first_draw_is_counter_block_zero():
    for seed in (0, 2, 2**40 + 7):
        spec = ChannelEnsembleSpec(4, 3, seed=seed, trials=3)
        cm = draw_channel(spec, 2)
        np.testing.assert_array_equal(cm.entries, gaussian_draw(seed, 2, (4, 3)))
        assert cm.provenance["redraws"] == 0


def test_draw_channel_redraws_rank_deficient_block(monkeypatch):
    real = sqcap.channel._gaussian_rows
    want = gaussian_draw(5, 1, (4, 2), counter_block=1)

    def draw(seed, streams, shape, counter_block=0):
        h = real(seed, streams, shape, counter_block)
        if counter_block == 0:
            h[:, :, 1] = h[:, :, 0]
        return h

    monkeypatch.setattr(sqcap.channel, "_gaussian_rows", draw)
    cm = draw_channel(ChannelEnsembleSpec(4, 2, seed=5, trials=2), 1)
    assert cm.provenance["redraws"] == 1
    np.testing.assert_array_equal(cm.entries, want)


def test_draw_channel_takes_one_spectrum_per_draw(monkeypatch):
    # the redraw kernel's rank test gives the gains; ChannelMatrix does not
    # run the spectrum kernel again on the same entries
    real, calls = sqcap.channel._prefix_gains, []

    def spectrum(h, counts):
        calls.append(h.shape)
        return real(h, counts)

    for shape in ((8, 4), (3, 5), (1, 1), (6, 6)):
        spec = ChannelEnsembleSpec(*shape, seed=9, trials=3)
        with monkeypatch.context() as patch:
            patch.setattr(sqcap.channel, "_prefix_gains", spectrum)
            calls.clear()
            cm = draw_channel(spec, 2)
        assert calls == [(1, *shape)]
        want = ChannelMatrix(cm.entries)
        assert np.array_equal(cm.gains, want.gains)
        assert cm.gains.shape == (min(shape),) and not cm.gains.flags.writeable
        assert not cm.entries.flags.writeable
        assert cm.provenance == {"seed": 9, "trial_index": 2, "redraws": 0}


def test_full_rank_rows_redraws_only_pending_streams(monkeypatch):
    # stream 7 is forced rank deficient at counter blocks below ``deficient``
    seed, shape, counts = 11, (4, 3), (3, 4)
    want = [gaussian_draw(seed, 7, shape, counter_block=2), gaussian_draw(seed, 2, shape)]
    real = sqcap.channel._gaussian_rows
    drawn, deficient = [], 2

    def draw(seed, streams, shape, counter_block=0):
        drawn.append((list(streams), counter_block))
        h = real(seed, streams, shape, counter_block)
        for row, stream in enumerate(streams):
            if stream == 7 and counter_block < deficient:
                h[row, :, 2] = h[row, :, 0]
        return h

    monkeypatch.setattr(sqcap.channel, "_gaussian_rows", draw)
    h, gains, redraws = _full_rank_rows(seed, [7, 2], shape, counts)
    assert list(redraws) == [2, 0]
    assert drawn == [([7, 2], 0), ([7], 1), ([7], 2)]
    for row, expected in zip(h, want):
        np.testing.assert_array_equal(row, expected)
    np.testing.assert_array_equal(gains, _prefix_gains(h, counts)[0])

    # the scalar draw is the kernel's one-stream case
    cm = draw_channel(ChannelEnsembleSpec(4, 3, seed=seed, trials=8), 7)
    assert cm.provenance["redraws"] == 2
    np.testing.assert_array_equal(cm.entries, h[0])

    deficient = _DRAW_ATTEMPTS
    with pytest.raises(RuntimeError, match=f"{_DRAW_ATTEMPTS} attempts in trial 7$"):
        _full_rank_rows(seed, [2, 7], shape, counts)


@pytest.mark.parametrize("flag", [True, False, np.True_, np.False_],
                         ids=["True", "False", "np.True_", "np.False_"])
def test_booleans_are_neither_counts_nor_seeds(flag):
    with pytest.raises(ValueError, match="n_rx must be a positive integer"):
        ChannelEnsembleSpec(flag, 3, seed=0)
    with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
        ChannelEnsembleSpec(3, 3, seed=flag)
    with pytest.raises(ValueError, match="stream"):
        gaussian_draw(3, flag, (2,))


def test_ensemble_spec_validation():
    with pytest.raises(ValueError):
        ChannelEnsembleSpec(0, 3, seed=0, trials=1)
    with pytest.raises(ValueError):
        ChannelEnsembleSpec(3, 3, seed=0, trials=0)
    with pytest.raises(ValueError, match="n_rx"):
        ChannelEnsembleSpec(2.5, 2, seed=0)
    for seed in (2.5, -1, 2**64, float("nan")):
        with pytest.raises(ValueError, match="seed"):
            ChannelEnsembleSpec(2, 2, seed=seed)
    assert ChannelEnsembleSpec(2, 2, seed=np.uint64(2**63)).seed == 2**63

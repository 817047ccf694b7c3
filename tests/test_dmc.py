"""Discrete memoryless channel tools: transition builder, MI, Blahut-Arimoto."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqcap.dmc import (
    ConvergenceError,
    InputDistribution,
    TransitionMatrix,
    blahut_arimoto,
    entropy_bits,
    mutual_information,
    output_marginal,
    quantizer_transition,
)
from sqcap.dmc import _log_positive, _row_divergences
from sqcap.schemes import _pam_channel, build_pam_scheme, pam_scheme_for_levels
from sqcap.tailmath import binary_entropy

BSC_011 = TransitionMatrix(np.array([[0.89, 0.11], [0.11, 0.89]]))


def test_transition_matrix_validation():
    with pytest.raises(ValueError):
        TransitionMatrix(np.array([[0.6, 0.3], [0.5, 0.5]]))  # row sum != 1
    with pytest.raises(ValueError):
        TransitionMatrix(np.array([[1.2, -0.2], [0.5, 0.5]]))  # negative entry
    with pytest.raises(ValueError):
        TransitionMatrix(np.array([0.5, 0.5]))  # not 2-D
    w = TransitionMatrix(np.array([[0.25, 0.75]]))
    assert w.n_inputs == 1 and w.n_outputs == 2


def test_input_distribution():
    u = InputDistribution.uniform(4)
    np.testing.assert_allclose(u.probs, 0.25)
    for n in (0, 2.5):
        with pytest.raises(ValueError, match="alphabet size"):
            InputDistribution.uniform(n)
    with pytest.raises(ValueError):
        InputDistribution(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        InputDistribution(np.array([1.5, -0.5]))


def test_quantizer_transition_rows_sum_to_one():
    points = np.array([-3.0, -1.0, 1.0, 3.0])
    thresholds = np.array([-2.0, 0.0, 2.0])
    w = quantizer_transition(points, thresholds, 1.0, 1.0)
    assert w.probs.shape == (4, 4)
    np.testing.assert_allclose(w.probs.sum(axis=1), 1.0, atol=1e-12)


@given(
    st.integers(2, 6),
    st.integers(1, 6),
    st.floats(0.05, 20.0),
    st.floats(0.1, 5.0),
    st.integers(0, 2**31),
)
@settings(max_examples=200, deadline=None)
def test_quantizer_transition_is_stochastic(m, k, gain, std, seed):
    rng = np.random.default_rng(seed)
    points = np.sort(rng.uniform(-40, 40, size=m))
    thresholds = np.sort(rng.uniform(-40, 40, size=k))
    w = quantizer_transition(points, thresholds, gain, std)
    assert w.probs.shape == (m, k + 1)
    np.testing.assert_allclose(w.probs.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(w.probs >= 0.0)


def test_quantizer_transition_scaling_invariances():
    points = np.array([-2.0, 0.5, 3.0])
    thr = np.array([-1.0, 1.0])
    a = quantizer_transition(points, thr, 2.0, 1.5).probs
    b = quantizer_transition(2.0 * points, thr, 1.0, 1.5).probs
    np.testing.assert_allclose(a, b, rtol=1e-14)
    c = quantizer_transition(points / 1.5, thr / 1.5, 2.0, 1.0).probs
    np.testing.assert_allclose(a, c, rtol=1e-13)


def test_quantizer_transition_monte_carlo():
    # empirical cell frequencies over 10^7 noise draws, 3 standard errors
    points = np.array([-5.366563145999495, -1.788854381999832, 1.788854381999832, 5.366563145999495])
    thresholds = np.array([-3.5777087639996634, 0.0, 3.5777087639996634])
    w = quantizer_transition(points, thresholds, 1.0, 1.0).probs
    rng = np.random.default_rng(123)
    n = 10**7 // 4
    edges = np.concatenate([[-np.inf], thresholds, [np.inf]])
    for i, x in enumerate(points):
        samples = x + rng.standard_normal(n)
        counts = np.histogram(samples, edges)[0]
        freq = counts / n
        se = np.sqrt(np.maximum(w[i] * (1 - w[i]), 1e-12) / n)
        assert np.all(np.abs(freq - w[i]) <= 3.5 * se + 5e-7)


def test_output_marginal_and_entropy():
    u = InputDistribution.uniform(2)
    py = output_marginal(u, BSC_011)
    np.testing.assert_allclose(py, [0.5, 0.5], atol=1e-15)
    assert entropy_bits(np.array([0.5, 0.5])) == 1.0
    assert entropy_bits(np.array([1.0, 0.0])) == 0.0
    assert entropy_bits(np.array([0.25, 0.25, 0.25, 0.25])) == pytest.approx(2.0, abs=1e-15)


def test_mutual_information_bsc():
    u = InputDistribution.uniform(2)
    mi = mutual_information(u, BSC_011)
    assert mi == pytest.approx(1.0 - binary_entropy(0.11), rel=1e-14)


def test_mutual_information_identity_and_useless():
    ident = TransitionMatrix(np.eye(3))
    u = InputDistribution.uniform(3)
    assert mutual_information(u, ident) == pytest.approx(math.log2(3), rel=1e-14)
    flat = TransitionMatrix(np.full((3, 4), 0.25))
    assert mutual_information(u, flat) == pytest.approx(0.0, abs=1e-15)


@given(st.integers(2, 5), st.integers(2, 5), st.integers(0, 2**31))
@settings(max_examples=100, deadline=None)
def test_mutual_information_permutation_invariant(m, k, seed):
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(k), size=m)
    p = rng.dirichlet(np.ones(m))
    dist = InputDistribution(p)
    base = mutual_information(dist, TransitionMatrix(w))
    perm_out = rng.permutation(k)
    perm_in = rng.permutation(m)
    shuffled = mutual_information(
        InputDistribution(p[perm_in]), TransitionMatrix(w[perm_in][:, perm_out])
    )
    assert shuffled == pytest.approx(base, rel=1e-12, abs=1e-12)


def test_mutual_information_matches_per_row_loop():
    # reference: sum over rows of r_m sum_j w_mj log2(w_mj / p_y), zero terms skipped
    rng = np.random.default_rng(17)
    for _ in range(30):
        m, k = rng.integers(2, 7), rng.integers(2, 9)
        w = rng.dirichlet(np.ones(k), size=m) * (rng.random((m, k)) > 0.3)
        w[:, 0] += 1.0 - w.sum(axis=1)
        r = rng.dirichlet(np.ones(m)) * (rng.random(m) > 0.2)
        r[0] += 1.0 - r.sum()
        py = r @ w
        ref = sum(
            r[i] * sum(w[i, j] * math.log2(w[i, j] / py[j]) for j in range(k) if w[i, j] > 0)
            for i in range(m)
            if r[i] > 0
        )
        got = mutual_information(InputDistribution(r), TransitionMatrix(w))
        assert got == pytest.approx(max(ref, 0.0), rel=1e-12, abs=1e-14)


def test_blahut_arimoto_bsc():
    cap, dist = blahut_arimoto(BSC_011, tolerance=1e-11)
    assert cap == pytest.approx(1.0 - binary_entropy(0.11), abs=1e-10)
    np.testing.assert_allclose(dist.probs, 0.5, atol=1e-6)


def test_blahut_arimoto_bec():
    w = TransitionMatrix(np.array([[0.7, 0.0, 0.3], [0.0, 0.7, 0.3]]))
    cap, _ = blahut_arimoto(w, tolerance=1e-11)
    assert cap == pytest.approx(0.7, abs=1e-9)


def test_blahut_arimoto_z_channel():
    # crossover 1/2 from one input only: capacity log2(5/4), optimum is skewed
    w = TransitionMatrix(np.array([[1.0, 0.0], [0.5, 0.5]]))
    cap, dist = blahut_arimoto(w, tolerance=1e-12)
    assert cap == pytest.approx(math.log2(1.25), abs=1e-9)
    assert dist.probs[0] > dist.probs[1]


def test_blahut_arimoto_never_below_uniform_input():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m, k = rng.integers(2, 7), rng.integers(2, 7)
        w = TransitionMatrix(rng.dirichlet(np.ones(k), size=m))
        cap, dist = blahut_arimoto(w, tolerance=1e-10)
        assert cap >= mutual_information(InputDistribution.uniform(m), w) - 1e-9
        assert cap <= math.log2(min(m, k)) + 1e-9
        assert cap == pytest.approx(mutual_information(dist, w), abs=1e-8)


def test_blahut_arimoto_drops_unreachable_output():
    w = TransitionMatrix(np.array([[0.89, 0.11, 0.0], [0.11, 0.89, 0.0]]))
    cap, _ = blahut_arimoto(w, tolerance=1e-11)
    assert cap == pytest.approx(1.0 - binary_entropy(0.11), abs=1e-10)


def test_underflowed_output_mass_scores_zero():
    # under the uniform input, output 1's mass 5e-324 / 3 underflows to 0
    # though live row 0 reaches it: its true term is below 1e-323
    w = TransitionMatrix([[1.0, 5e-324], [1.0, 0.0], [1.0, 0.0]])
    uniform = InputDistribution.uniform(3)
    np.testing.assert_array_equal(
        _row_divergences(uniform.probs, w.probs, _log_positive(w.probs)), [0.0, 0.0, 0.0]
    )
    assert mutual_information(uniform, w) == 0.0
    cap, dist = blahut_arimoto(w)
    assert cap == 0.0
    np.testing.assert_array_equal(dist.probs, uniform.probs)


def test_output_no_live_row_reaches_scores_infinity():
    # row 2 has no mass and alone reaches output 1: its divergence stays
    # +inf, so a certificate over every row cannot pass on it
    w = np.array([[1.0, 0.0], [1.0, 0.0], [0.5, 0.5]])
    d = _row_divergences(np.array([0.5, 0.5, 0.0]), w, _log_positive(w))
    assert d[0] == d[1] == 0.0 and d[2] == np.inf


def test_narrowed_inputs_raise_value_error():
    for kwargs in (dict(tolerance=np.inf), dict(tolerance=0.0), dict(max_iters=2.5)):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            blahut_arimoto(BSC_011, **kwargs)
    points, thresholds = np.array([-1.0, 1.0]), np.array([0.0])
    for std in (np.inf, 0.0, np.nan):
        with pytest.raises(ValueError, match="noise_std"):
            quantizer_transition(points, thresholds, 1.0, std)


def test_blahut_arimoto_convergence_error_carries_state():
    w = TransitionMatrix(np.array([[0.89, 0.11], [0.11, 0.89], [0.5, 0.5]]))
    with pytest.raises(ConvergenceError) as info:
        blahut_arimoto(w, tolerance=1e-15, max_iters=2)
    err = info.value
    assert err.iterations == 2
    assert err.gap_bits > 0
    assert 0 <= err.rate_bits <= 1.0
    assert err.input_dist.probs.shape == (3,)


def _log_domain_blahut_arimoto(w, tolerance=1e-9, max_iters=10_000):
    """Blahut-Arimoto in the log domain, each update normalized by
    ``scipy.special.logsumexp``: (rate bits, input, gap bits, iterations)."""
    from scipy import special

    w = w[:, w.sum(axis=0) > 0]
    logw = _log_positive(w)
    r = np.full(w.shape[0], 1.0 / w.shape[0])
    for iteration in range(1, max_iters + 1):
        d = _row_divergences(r, w, logw)
        live = r > 0
        rate = r[live] @ d[live]
        gap = (np.max(d) - rate) / np.log(2.0)
        if gap <= tolerance:
            break
        logr = np.full(r.size, -np.inf)
        logr[live] = np.log(r[live]) + d[live]
        r = np.exp(logr - special.logsumexp(logr))
        r /= r.sum()
    return rate / np.log(2.0), r, gap, iteration


BA_REFERENCE_LAWS = {
    "bsc": lambda: BSC_011,
    "bec": lambda: TransitionMatrix(np.array([[0.7, 0.0, 0.3], [0.0, 0.7, 0.3]])),
    "z": lambda: TransitionMatrix(np.array([[1.0, 0.0], [0.5, 0.5]])),
    "ba-golden": lambda: _pam_channel(build_pam_scheme(40.0, 7), 1.1),
    "ba-readme": lambda: _pam_channel(build_pam_scheme(16.0, 3), 1.0),
    # one law per power decade of the benchmark's cli-mix ba commands
    "ba-power-31.6": lambda: _pam_channel(build_pam_scheme(31.6, 7), 1.7),
    "ba-power-316": lambda: _pam_channel(build_pam_scheme(316.0, 15), 0.8),
    "ba-power-3162": lambda: _pam_channel(build_pam_scheme(3162.0, 63), 2.4),
    # still 3.2e-5 bits short of the tolerance after the default 10 000 iterations
    "ba-levels-40": lambda: _pam_channel(pam_scheme_for_levels(40, 50.0), 1.0),
}


@pytest.mark.parametrize("law", BA_REFERENCE_LAWS.values(), ids=BA_REFERENCE_LAWS.keys())
def test_blahut_arimoto_matches_the_log_domain_reference(law):
    w = law()
    rate, r, gap, iterations = _log_domain_blahut_arimoto(w.probs)
    if gap > 1e-9:
        with pytest.raises(ConvergenceError) as info:
            blahut_arimoto(w)
        err = info.value
        assert type(err.rate_bits) is float and type(err.gap_bits) is float
        assert err.iterations == iterations == 10_000
        assert abs(err.gap_bits - gap) <= 1e-12 and abs(err.rate_bits - rate) <= 1e-14
        # 10 000 updates apart, the inputs differ by at most 1.4e-15
        np.testing.assert_allclose(err.input_dist.probs, r, rtol=0, atol=1e-14)
        return
    cap, dist = blahut_arimoto(w, max_iters=iterations)
    assert type(cap) is float
    assert abs(cap - rate) <= 1e-14
    np.testing.assert_allclose(dist.probs, r, rtol=0, atol=1e-15)
    if iterations > 1:
        with pytest.raises(ConvergenceError):
            blahut_arimoto(w, max_iters=iterations - 1)

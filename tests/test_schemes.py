"""PAM and dithered modulation schemes with their rate estimates."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqcap.bounds import siso_sign_capacity
from sqcap.schemes import (
    DitheredSchemeParams,
    PamScheme,
    _plugin_mi_bits,
    build_dithered_scheme,
    build_pam_scheme,
    dithered_mi_estimate,
    entropy_spotchecks,
    pam_inner_rate,
    pam_scheme_for_levels,
)
from sqcap.tailmath import binary_entropy, q_function


def test_pam_two_levels_is_antipodal():
    sch = pam_scheme_for_levels(2, 1.0)
    np.testing.assert_allclose(sch.points, [-1.0, 1.0])
    np.testing.assert_allclose(sch.thresholds, [0.0])
    assert sch.spacing == 2.0


def test_pam_even_levels():
    sch = pam_scheme_for_levels(4, 16.0)
    assert sch.spacing == pytest.approx(3.5777087639996634, rel=1e-15)
    np.testing.assert_allclose(sch.points, sch.spacing * np.array([-1.5, -0.5, 0.5, 1.5]))
    assert np.mean(sch.points**2) == pytest.approx(16.0, rel=1e-14)
    np.testing.assert_allclose(sch.thresholds, (sch.points[:-1] + sch.points[1:]) / 2)


def test_pam_odd_levels():
    sch = pam_scheme_for_levels(3, 9.0)
    assert sch.spacing == pytest.approx(3.6742346141747673, rel=1e-15)
    np.testing.assert_allclose(sch.points, [-sch.spacing, 0.0, sch.spacing])
    assert np.mean(sch.points**2) == pytest.approx(9.0, rel=1e-14)


@given(st.integers(2, 40), st.floats(0.01, 1e5))
@settings(max_examples=200)
def test_pam_power_and_symmetry(m, power):
    sch = pam_scheme_for_levels(m, power)
    assert sch.m_levels == m
    assert np.mean(sch.points**2) == pytest.approx(power, rel=1e-12)
    np.testing.assert_allclose(sch.points, -sch.points[::-1], atol=1e-12)
    assert sch.thresholds.size == m - 1


def test_pam_scheme_power_is_the_budget():
    # a grid whose mean square is the dithered share (1 - 1/M^2) P is rejected
    m, power = 4, 20.0
    plain, dithered = math.sqrt(12 * power / (m * m - 1)), math.sqrt(12 * power) / m
    for spacing, ok in [(plain, True), (dithered, False)]:
        points = spacing * (np.arange(m) - (m - 1) / 2)
        args = (m, points, spacing, (points[:-1] + points[1:]) / 2, power)
        if ok:
            assert np.mean(PamScheme(*args).points ** 2) == pytest.approx(power, rel=1e-12)
        else:
            with pytest.raises(ValueError, match="does not match the budget"):
                PamScheme(*args)


def test_build_pam_scheme_sizing_and_gates():
    assert build_pam_scheme(100.0, 7).m_levels == 8  # budget binds: 7 + 1
    assert build_pam_scheme(50.0, 100).m_levels == 7  # power binds: floor(sqrt(50))
    with pytest.raises(ValueError):
        build_pam_scheme(6.0, 7)
    with pytest.raises(ValueError):
        build_pam_scheme(100.0, 1)
    with pytest.raises(ValueError, match="n_sq"):
        build_pam_scheme(100.0, 7.9)
    with pytest.raises(ValueError, match="at least 2 levels"):
        pam_scheme_for_levels(1, 10.0)
    with pytest.raises(ValueError, match="m_levels"):
        pam_scheme_for_levels(3.6, 10.0)


def test_pam_binary_rate_matches_closed_form():
    for p in [0.5, 1.0, 4.0, 25.0]:
        sch = pam_scheme_for_levels(2, p)
        assert pam_inner_rate(sch, 1.0) == pytest.approx(siso_sign_capacity(p), abs=1e-12)


def test_pam_rate_within_half_bit_of_levels():
    # tighter than the 1-bit acceptance margin; holds with ~0.05 to spare
    for p in (6.5, 10.0, 100.0, 1000.0, 10000.0):
        for n_sq in (2, 3, 7, 15, 31):
            sch = build_pam_scheme(p, n_sq)
            rate = pam_inner_rate(sch, 1.0)
            assert rate >= math.log2(sch.m_levels) - 0.5


def test_pam_inner_rate_monotone_in_gain():
    sch = build_pam_scheme(64.0, 7)
    rates = [pam_inner_rate(sch, g) for g in (0.25, 0.5, 1.0, 2.0, 4.0)]
    assert all(b > a for a, b in zip(rates, rates[1:]))
    assert rates[-1] <= math.log2(sch.m_levels) + 1e-12


def test_pam_json_round_trip():
    payload = json.loads(build_pam_scheme(25.0, 4).to_json())
    assert payload["m_levels"] == 5
    assert len(payload["points"]) == 5
    assert len(payload["thresholds"]) == 4
    assert payload["power_budget"] == 25.0


def test_entropy_spotchecks_shape():
    out_ent, cond_ent = entropy_spotchecks(build_pam_scheme(25.0, 4), 1.0)
    m = 5
    assert 0.0 < out_ent <= math.log2(m) + 1e-12
    assert 0.0 < cond_ent < 1.0
    assert out_ent > math.log2(m) - 0.05  # near-uniform cells by construction
    # 2-PAM: both rows are [1 - Q(sqrt P), Q(sqrt P)], so the value is in bits
    for p in (0.5, 4.0, 30.0):
        _, cond_ent = entropy_spotchecks(pam_scheme_for_levels(2, p), 1.0)
        assert cond_ent == pytest.approx(binary_entropy(q_function(math.sqrt(p))), abs=1e-12)


# ----------------------------------------------------------------- dithered


def test_dithered_scheme_example():
    params = build_dithered_scheme((1.2, 1.5), 50.0, 16, 2)
    assert params.m_levels == 7
    assert params.quantizers_used == 16
    np.testing.assert_allclose(params.selected_gains, [1.5, 1.2])
    assert params.spacing == pytest.approx(3.499271061118826, rel=1e-14)
    assert params.dither_width == params.spacing
    assert params.base_thresholds.shape == (8,)
    assert params.antenna_thresholds.shape == (2, 8)
    np.testing.assert_allclose(
        params.antenna_thresholds, params.selected_gains[:, None] * params.base_thresholds
    )
    # symbol power: M-point grid with spacing sqrt(12 P)/M has second
    # moment P (1 - 1/M^2); the dither restores the remaining 1/M^2
    sym = np.mean(params.points**2)
    dither = params.dither_width**2 / 12.0
    assert sym + dither == pytest.approx(50.0, rel=1e-12)


def test_dithered_effective_noise_formula():
    params = build_dithered_scheme((1.2, 1.5), 50.0, 16, 2)
    sq = params.selected_gains**2
    want = float((sq.sum() + params.spacing**2 / 12.0 * (sq**2).sum()) / sq.sum() ** 2)
    assert params.effective_noise_bound == pytest.approx(want, rel=1e-14)


def test_dithered_scheme_gates():
    with pytest.raises(ValueError, match="at least 3"):
        build_dithered_scheme((1.0,), 1.0, 4, 1)
    with pytest.raises(ValueError, match="k_select"):
        build_dithered_scheme((1.0, 2.0), 50.0, 16, 3)
    with pytest.raises(ValueError, match="k_select"):
        build_dithered_scheme((1.0, 2.0), 50.0, 16, 0)
    with pytest.raises(ValueError, match="nonzero"):
        build_dithered_scheme((0.0, 0.0), 50.0, 16, 1)
    with pytest.raises(ValueError, match="n_sq"):
        build_dithered_scheme((1.0, 2.0), 50.0, 16.7, 2)
    with pytest.raises(ValueError, match="k_select"):
        build_dithered_scheme((1.0, 2.0), 50.0, 16, 2.5)


def test_dithered_selects_strongest_antennas():
    params = build_dithered_scheme((0.3, -2.0, 1.1, 0.9), 100.0, 24, 2)
    np.testing.assert_allclose(params.selected_gains, [2.0, 1.1])


def test_dithered_budget_respected():
    for n_sq in (12, 16, 25, 40):
        for k in (1, 2, 3):
            try:
                params = build_dithered_scheme((1.5, 1.2, 0.9), 80.0, n_sq, k)
            except ValueError:
                continue
            assert params.quantizers_used <= n_sq
            assert params.selected_count == k
            assert params.m_levels >= 3


def test_dithered_flags():
    assert build_dithered_scheme((1.5, 1.2), 50.0, 16, 2).flags == ()
    assert "low-power" in build_dithered_scheme((9.0,), 3.9, 16, 1).flags
    assert "weak-gains" in build_dithered_scheme((0.9, 8.0), 50.0, 16, 2).flags


def test_dithered_mi_estimate_deterministic():
    params = build_dithered_scheme((1.2, 1.5), 50.0, 16, 2)
    a = dithered_mi_estimate(params, (1.2, 1.5), 10**4, 7)
    b = dithered_mi_estimate(params, (1.2, 1.5), 10**4, 7)
    assert a == b
    c = dithered_mi_estimate(params, (1.2, 1.5), 10**4, 8)
    assert a != c
    mi, se = a
    assert 0.0 < mi <= math.log2(params.m_levels) + 0.01
    assert se > 0.0


def test_plugin_mi_is_mutual_information_of_joint_counts():
    # reference: sum over cells of p_xy log2(p_xy / (p_x p_y)); unseen symbols add nothing
    rng = np.random.default_rng(31)
    for _ in range(20):
        counts = rng.poisson(3.0, size=(rng.integers(2, 7), rng.integers(2, 30)))
        counts[rng.integers(counts.shape[0])] = 0
        pxy = counts / counts.sum()
        outer = pxy.sum(axis=1, keepdims=True) * pxy.sum(axis=0, keepdims=True)
        live = pxy > 0
        ref = float(np.sum(pxy[live] * np.log2(pxy[live] / outer[live])))
        assert _plugin_mi_bits(counts) == pytest.approx(ref, rel=1e-12, abs=1e-14)


def test_dithered_mi_estimate_guards():
    params = build_dithered_scheme((1.2, 1.5), 50.0, 16, 2)
    with pytest.raises(ValueError, match="10\\^4"):
        dithered_mi_estimate(params, (1.2, 1.5), 5000, 0)
    with pytest.raises(ValueError, match="do not match"):
        dithered_mi_estimate(params, (1.2, 1.4), 10**4, 0)
    with pytest.raises(ValueError, match="samples"):
        dithered_mi_estimate(params, (1.2, 1.5), 20000.5, 0)
    for seed in (2.5, -1, 2**64, float("nan")):
        with pytest.raises(ValueError, match="seed"):
            dithered_mi_estimate(params, (1.2, 1.5), 10**4, seed)


def test_dithered_mi_needs_enough_samples_per_cell():
    # k = 3 with m = 7 gives 729 joint cells per symbol: 10^4 is too few
    params = build_dithered_scheme((1.5, 1.4, 1.3), 200.0, 24, 3)
    with pytest.raises(ValueError, match="per output cell"):
        dithered_mi_estimate(params, (1.5, 1.4, 1.3), 10**4, 0)


def test_dithered_mi_tightens_with_samples():
    params = build_dithered_scheme((1.2, 1.5), 50.0, 16, 2)
    _, se_small = dithered_mi_estimate(params, (1.2, 1.5), 2 * 10**4, 3)
    _, se_big = dithered_mi_estimate(params, (1.2, 1.5), 4 * 10**5, 3)
    assert se_big < se_small


def test_dithered_params_validation():
    params = build_dithered_scheme((1.2, 1.5), 50.0, 16, 2)
    fields = {
        "selected_count": params.selected_count,
        "m_levels": params.m_levels,
        "spacing": params.spacing,
        "dither_width": params.dither_width,
        "points": params.points,
        "base_thresholds": params.base_thresholds,
        "antenna_thresholds": params.antenna_thresholds,
        "selected_gains": params.selected_gains,
        "effective_noise_bound": params.effective_noise_bound,
        "power_budget": params.power_budget,
        "quantizer_budget": params.quantizer_budget,
        "flags": params.flags,
    }
    DitheredSchemeParams(**fields)
    with pytest.raises(ValueError, match="at least 3"):
        DitheredSchemeParams(**{**fields, "m_levels": 2})
    for name in ("selected_count", "m_levels"):
        with pytest.raises(ValueError, match=name):
            DitheredSchemeParams(**{**fields, name: fields[name] + 0.5})
    with pytest.raises(ValueError, match="dither width"):
        DitheredSchemeParams(**{**fields, "dither_width": params.spacing * 2})
    with pytest.raises(ValueError, match="sorted nonincreasing"):
        DitheredSchemeParams(**{**fields, "selected_gains": np.array([1.2, 1.5])})
    payload = json.loads(params.to_json())
    assert payload["m_levels"] == 7
    assert payload["quantizers_used"] == 16

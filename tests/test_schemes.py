"""PAM and dithered modulation schemes with their rate estimates."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqcap.bounds import siso_sign_capacity
from sqcap.schemes import (
    DitheredSchemeParams,
    PamScheme,
    _cell_index,
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
    # the grid is derived from (M, P): its mean square is P itself, not the
    # dithered share (1 - 1/M^2) P
    m, power = 4, 20.0
    sch = PamScheme(m, power)
    assert sch.spacing == math.sqrt(12 * power / (m * m - 1))
    assert np.mean(sch.points**2) == pytest.approx(power, rel=1e-12)
    np.testing.assert_array_equal(sch.thresholds, (sch.points[:-1] + sch.points[1:]) / 2)
    assert not sch.points.flags.writeable and not sch.thresholds.flags.writeable
    assert pam_scheme_for_levels(m, power).to_json() == sch.to_json()
    with pytest.raises(ValueError, match="at least 2 levels"):
        PamScheme(1, power)
    with pytest.raises(ValueError, match="m_levels"):
        PamScheme(3.5, power)
    for bad in (0.0, -1.0, math.inf, math.nan, 1e308):  # 12 P overflows at 1e308
        with pytest.raises(ValueError, match="power"):
            PamScheme(m, bad)
    with pytest.raises(TypeError):
        PamScheme(m, power, spacing=1.0)


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
    assert params.base_thresholds.shape == (8,)
    assert params.antenna_thresholds.shape == (2, 8)
    np.testing.assert_allclose(
        params.antenna_thresholds, params.selected_gains[:, None] * params.base_thresholds
    )
    # symbol power: M-point grid with spacing sqrt(12 P)/M has second
    # moment P (1 - 1/M^2); the dither restores the remaining 1/M^2
    sym = np.mean(params.points**2)
    dither = params.spacing**2 / 12.0
    assert sym + dither == pytest.approx(50.0, rel=1e-12)


def test_dithered_effective_noise_formula():
    params = build_dithered_scheme((1.2, 1.5), 50.0, 16, 2)
    sq = params.selected_gains**2
    want = float((sq.sum() + params.spacing**2 / 12.0 * (sq**2).sum()) / sq.sum() ** 2)
    assert params.effective_noise_bound == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize(
    "h, power, weak",
    [((1.2e77,), 100.0, False), ((1.5e154,), 100.0, False), ((2e200,), 1.0, False),
     ((1e-82,), 2e165, True), ((1e100, 3.0), 100.0, False)],
    ids=["fourth-power-overflows", "square-overflows", "far-past", "fourth-power-underflows",
         "mixed"],
)
def test_dithered_effective_noise_is_finite_at_the_gain_extremes(h, power, weak):
    # 1 / sum g^2 + (spacing^2 / 12) sum g^4 / (sum g^2)^2, no power of a
    # gain overflowing or underflowing on the way, and no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        params = build_dithered_scheme(h, power, 100, len(h))
    s = np.array(h) / max(h)
    s2, s4 = np.sum(s * s), np.sum(s**4)
    want = (1.0 / max(h)) ** 2 / s2 + params.spacing**2 / 12.0 * s4 / s2**2
    assert math.isfinite(params.effective_noise_bound)
    assert params.effective_noise_bound == pytest.approx(want, rel=1e-14)
    assert ("weak-gains" in params.flags) == weak


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
    # every batch draws the same count, so none may be dropped
    with pytest.raises(ValueError, match="multiple of the batch count 10"):
        dithered_mi_estimate(params, (1.2, 1.5), 10009, 7)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_cell_index_is_searchsorted_right(k):
    rng = np.random.default_rng(k)
    gains = np.array([2.3, 1.1, 0.37])[:k]
    for m in range(3, 51):
        params = DitheredSchemeParams(gains, m, 7.0 * m * m, k * (m + 1))
        for t in params.antenna_thresholds:
            span = t[-1] - t[0]
            w = np.concatenate([
                t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf),
                [0.0, -0.0, 1e300, -1e300],
                rng.uniform(t[0] - span, t[-1] + span, 10**5),
            ])
            np.testing.assert_array_equal(_cell_index(t, w), np.searchsorted(t, w, side="right"))


def test_dithered_mi_needs_enough_samples_per_cell():
    # k = 3 with m = 7 gives 729 joint cells per symbol: 10^4 is too few
    params = build_dithered_scheme((1.5, 1.4, 1.3), 200.0, 24, 3)
    with pytest.raises(ValueError, match="per output cell"):
        dithered_mi_estimate(params, (1.5, 1.4, 1.3), 10**4, 0)


@pytest.mark.parametrize("h", [(np.nan, 1.2), (1.5, np.inf), ((1.5, 1.2),)])
def test_dithered_mi_rejects_nonfinite_or_matrix_gains(h):
    params = build_dithered_scheme((1.2, 1.5), 50.0, 16, 2)
    with pytest.raises(ValueError, match="gain vector"):
        dithered_mi_estimate(params, h, 20000, 1)


def test_dithered_mi_tightens_with_samples():
    params = build_dithered_scheme((1.2, 1.5), 50.0, 16, 2)
    _, se_small = dithered_mi_estimate(params, (1.2, 1.5), 2 * 10**4, 3)
    _, se_big = dithered_mi_estimate(params, (1.2, 1.5), 4 * 10**5, 3)
    assert se_big < se_small


def test_dithered_params_validation():
    params = build_dithered_scheme((1.2, 1.5), 50.0, 16, 2)
    fields = {
        "selected_gains": params.selected_gains,
        "m_levels": params.m_levels,
        "power_budget": params.power_budget,
        "quantizer_budget": params.quantizer_budget,
    }
    again = DitheredSchemeParams(**fields)
    assert again.to_json() == params.to_json()
    np.testing.assert_array_equal(again.antenna_thresholds, params.antenna_thresholds)
    with pytest.raises(ValueError, match="at least 3"):
        DitheredSchemeParams(**{**fields, "m_levels": 2})
    for name in ("m_levels", "quantizer_budget"):
        with pytest.raises(ValueError, match=name):
            DitheredSchemeParams(**{**fields, name: fields[name] + 0.5})
    with pytest.raises(ValueError, match="sorted nonincreasing"):
        DitheredSchemeParams(**{**fields, "selected_gains": np.array([1.2, 1.5])})
    # past the float range by the spacing, and by the span alone, each
    # threshold finite: the span g_1 sqrt(12 P) = 1e307 sqrt(600)
    for name, value in (("power_budget", 1e308), ("selected_gains", np.array([1e307, 1.0]))):
        with pytest.raises(ValueError, match="threshold span past the float range"):
            DitheredSchemeParams(**{**fields, name: value})
    for gains in ([1.5, 0.0], [1.5, -1.2], [np.nan, 1.2], [np.inf, 1.2], [[1.5, 1.2]]):
        with pytest.raises(ValueError, match="positive finite"):
            DitheredSchemeParams(**{**fields, "selected_gains": np.array(gains)})
    with pytest.raises(ValueError, match="over budget 15"):
        DitheredSchemeParams(**{**fields, "quantizer_budget": 15})
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="power"):
            DitheredSchemeParams(**{**fields, "power_budget": bad})
    with pytest.raises(TypeError):
        DitheredSchemeParams(**fields, spacing=params.spacing)
    payload = json.loads(params.to_json())
    assert payload["m_levels"] == 7
    assert payload["quantizers_used"] == 16


@pytest.mark.parametrize(
    "scheme",
    [
        build_pam_scheme(25.0, 4),
        pam_scheme_for_levels(7, 3.5),
        build_dithered_scheme((1.2, 1.5), 50.0, 16, 2),
        build_dithered_scheme((1.2e77,), 100.0, 100, 1),
    ],
    ids=["pam", "pam-levels", "dither", "dither-huge-gain"],
)
def test_to_dict_is_the_json_payload(scheme):
    d = scheme.to_dict()
    assert d == json.loads(scheme.to_json())
    assert json.dumps(d) == scheme.to_json()
    # plain Python values only, as a JSON round trip would leave them
    leaves = [v for x in d.values() for v in (x if isinstance(x, list) else [x])]
    assert {type(v) for v in leaves} <= {int, float, str}

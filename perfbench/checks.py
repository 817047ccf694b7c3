"""Output checks: independent numpy recomputations, published invariants and
comparison against reference outputs recorded in ``perfbench/reference``.

Every check returns a list of problem strings; an empty list means the
output passed.  Values in bits are compared with an absolute tolerance of
``BITS_TOL``: tight enough that a wrong bound kernel or a wrong water level
shows, loose enough that an exact water-filling solver may replace the
bisection.  The bisection stops once the powers sum to the budget within
1e-9 (relative above a budget of 1), which moves a rate by up to
1e-9 / (2 ln 2 mu) bits at water level mu; at fig2c's lowest power, 0.1
over at most 5 subchannels, mu >= 0.02 and the error stays below 3.6e-8
bits.  Values that are not in bits (powers, water levels,
probabilities) are compared relative to their size with ``REL_TOL``.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

BITS_TOL = 5e-8
REL_TOL = 1e-6


def _cap(snr_term, n_sq):
    return 0.5 * np.log2(np.minimum(snr_term, float(n_sq + 1) ** 2))


def _h2(p: float) -> float:
    lo = min(p, 1.0 - p)
    if lo <= 0.0:
        return 0.0
    return -(lo * math.log2(lo) + (1.0 - lo) * math.log2(1.0 - lo))


def _sign_capacity(amplitude: float) -> float:
    return 1.0 - _h2(0.5 * math.erfc(amplitude / math.sqrt(2.0)))


def waterfill_exact(g: np.ndarray, power: float):
    """Water-filling by sort and scan, vectorised over rows of ``g``.

    ``g`` holds gains sorted nonincreasing along the last axis.  Returns
    (powers, active count) with powers summing to ``power`` exactly.
    """
    inv = 1.0 / g
    k = np.arange(1, g.shape[-1] + 1)
    mu = (power + np.cumsum(inv, axis=-1)) / k
    active = np.sum(mu > inv, axis=-1, keepdims=True)
    level = np.take_along_axis(mu, active - 1, axis=-1)
    return np.maximum(level - inv, 0.0), active[..., 0]


def relaxed_rate(g: np.ndarray, power: float, n_sq: int) -> np.ndarray:
    """Rate of the relaxed joint allocation, rows of sorted gains."""
    powers, k = waterfill_exact(g, power)
    demand = np.sum(np.sqrt(1.0 + g * powers) - 1.0, axis=-1)
    free = np.sum(0.5 * np.log2(1.0 + g * powers), axis=-1)
    return np.where(demand <= n_sq, free, k * np.log2(n_sq / k + 1.0))


# --------------------------------------------------------------------------
# figure sweeps


def parse_csv(text: str) -> dict:
    """(curve, x) -> (mean, std_err) from a sweep CSV."""
    rows = list(csv.DictReader(io.StringIO(text)))
    return {(r["curve"], float(r["x"])): (float(r["mean"]), float(r["std_err"])) for r in rows}


def expected_curves(figure: str, trials: int, seed: int, draw) -> dict:
    """Mean and standard error of every curve of a preset figure, recomputed.

    ``draw`` is the library's counter-based Gaussian draw, so the channel
    realisations are shared with the sweep; the bound formulas, the
    selection and the water-filling are computed here independently,
    vectorised over trials.
    """
    out = {}

    def put(label, x, vals):
        err = vals.std(ddof=1) / math.sqrt(trials) if trials > 1 else 0.0
        out[(label, float(x))] = (float(vals.mean()), float(err))

    if figure in ("fig2a", "fig2b"):
        if figure == "fig2a":
            axis, powers, n_sq, ks = range(1, 101), (1.0, 10.0, 100.0), 10, ()
        else:
            axis = (1, 2, 3, 5, 7, 10, 14, 20, 30, 50, 70, 100, 140, 200, 300, 500, 700, 1000)
            powers, n_sq, ks = (1000.0,), 100, (2, 4, 6, 8, 10)
        h = np.stack([draw(seed, t, (max(axis),)) for t in range(trials)])
        sq = h * h
        run_max = np.maximum.accumulate(sq, axis=1)
        run_sum = np.cumsum(sq, axis=1)
        for p in powers:
            for x in axis:
                put(f"single-select-upper:P={p:g}", x, _cap(1.0 + run_max[:, x - 1] * p, n_sq))
                put(f"linear-upper:P={p:g}", x, _cap(1.0 + run_sum[:, x - 1] * p, n_sq))
        for p in powers:
            for k in ks:
                for x in axis:
                    kmax = min(k, x, n_sq)
                    top = -np.sort(-sq[:, :x], axis=1)[:, :kmax]
                    counts = np.arange(1, kmax + 1)
                    terms = 0.5 * np.log2(
                        np.minimum(1.0 + np.cumsum(top, axis=1) * p, (n_sq / counts + 1.0) ** 2)
                    )
                    put(f"multi-select-lower:P={p:g};K={k}", x, np.maximum(terms.max(axis=1) - 2.0, 0.0))
        return out
    if figure == "fig2c":
        axis, powers, n_sq, n_tx = range(5, 51), (0.1, 1.0), 5, 5
        h = np.stack([draw(seed, t, (max(axis), n_tx)) for t in range(trials)])
        row_max = np.maximum.accumulate(np.sum(h * h, axis=2), axis=1)
        for x in axis:
            gains = np.linalg.svd(h[:, :x, :], compute_uv=False) ** 2
            for p in powers:
                put(f"mimo-single-select-upper:P={p:g}", x, _cap(1.0 + row_max[:, x - 1] * p, n_sq))
                put(f"waterfill-rate:P={p:g}", x, relaxed_rate(gains, p, n_sq))
        return out
    raise ValueError(f"no recomputation for figure {figure!r}")


def check_sweep(figure: str, trials: int, seed: int, text: str, draw) -> list:
    problems = []
    got = parse_csv(text)
    want = expected_curves(figure, trials, seed, draw)
    if set(got) != set(want):
        return [f"{figure}: CSV rows {len(got)} do not match the {len(want)} expected curve points"]
    worst = max(abs(got[key][0] - want[key][0]) for key in want)
    worst_err = max(abs(got[key][1] - want[key][1]) for key in want)
    if not (worst <= BITS_TOL and worst_err <= BITS_TOL):
        problems.append(f"{figure}: curve means off by {worst:.3e} bits, std errors by {worst_err:.3e}")
    problems += sweep_invariants(figure, got)
    return problems


def sweep_invariants(figure: str, rows: dict) -> list:
    """The published orderings between averaged curves."""
    problems = []
    by_curve: dict = {}
    for (curve, x), (mean, _) in rows.items():
        by_curve.setdefault(curve, {})[x] = mean
    for curve, pts in by_curve.items():
        if curve.startswith("single-select-upper:"):
            linear = by_curve[curve.replace("single-select", "linear")]
            bad = [x for x in pts if pts[x] > linear[x] + 1e-12]
            if bad:
                problems.append(f"{figure}: mean single-select upper above linear upper at x={bad[:3]}")
    multi = sorted(
        (c for c in by_curve if c.startswith("multi-select-lower:")),
        key=lambda c: (c.split(";")[0], int(c.split("K=")[1])),
    )
    for a, b in zip(multi, multi[1:]):
        if a.split(";")[0] != b.split(";")[0]:
            continue
        bad = [x for x in by_curve[a] if by_curve[b][x] < by_curve[a][x] - 1e-12]
        if bad:
            problems.append(f"{figure}: multi-select lower decreases from {a} to {b} at x={bad[:3]}")
    return problems


# --------------------------------------------------------------------------
# CLI commands


def _flag(argv: list, name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _floats(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.split(",")])


def _expected_bounds(argv: list):
    """Capacity or (lower, upper) of one ``bounds`` family, recomputed."""
    fam = _flag(argv, "--family")
    p = float(_flag(argv, "--power", "nan"))
    m = int(_flag(argv, "--nsq", "0"))
    if fam == "siso-sign":
        return _sign_capacity(math.sqrt(p))
    if fam == "miso-sign":
        return _sign_capacity(float(np.linalg.norm(_floats(_flag(argv, "--h")))) * math.sqrt(p))
    if fam == "simo-highsnr":
        n = int(_flag(argv, "--nrx"))
        return math.log2(n), math.log2(n + 1)
    if fam == "mimo-highsnr":
        t = int(_flag(argv, "--ntx"))
        if t >= m:
            return float(m), float(m)
        k = sum(math.comb(2 * m - 1, j) for j in range(2 * t))
        return 0.5 * math.log2(k), 0.5 * math.log2(k + 1)
    if fam == "siso-multilevel":
        up = float(_cap(p + 1.0, m))
        return max(up - 1.0, 0.0), up
    if fam == "mimo-single-select":
        ch = json.loads(_flag(argv, "--channel"))
        e = np.array(ch["entries"]).reshape(ch["n_rx"], ch["n_tx"])
        up = float(_cap(1.0 + np.max(np.sum(e * e, axis=1)) * p, m))
        return max(up - 2.0, 0.0), up
    h = _floats(_flag(argv, "--h"))
    sq = np.sort(h * h)[::-1]
    if fam == "simo-single-select":
        up = float(_cap(1.0 + sq[0] * p, m))
        return max(up - 0.5, 0.0), up
    if fam == "simo-linear":
        up = float(_cap(1.0 + sq.sum() * p, m))
        return max(up - 0.5, 0.0), up
    if fam == "simo-multi-select":
        k = np.arange(1, min(h.size, m) + 1)
        best = np.max(0.5 * np.log2(np.minimum(1.0 + np.cumsum(sq)[: k.size] * p, (m / k + 1.0) ** 2)))
        return max(best - 2.0, 0.0), float(_cap(1.0 + sq.sum() * p, m))
    raise ValueError(f"unknown family {fam!r}")


def _near(a: float, b: float, tol: float = BITS_TOL) -> bool:
    return abs(a - b) <= tol


def check_command(argv: list, payload: dict) -> list:
    """Recompute or bound one CLI result; problems as strings."""
    cmd = argv[0]
    res = payload.get("result", {})
    if payload.get("command") != cmd:
        return [f"{cmd}: payload is for command {payload.get('command')!r}"]
    if cmd == "bounds":
        want = _expected_bounds(argv)
        if isinstance(want, float):
            ok = _near(res["capacity_bits"], want)
        else:
            ok = _near(res["lower_bits"], want[0]) and _near(res["upper_bits"], want[1])
            ok = ok and res["lower_bits"] <= res["upper_bits"] + 1e-12
        return [] if ok else [f"bounds {_flag(argv, '--family')}: got {res}, expected {want}"]
    if cmd == "waterfill":
        return _check_waterfill(argv, res)
    if cmd == "pam":
        levels = res["scheme"]["m_levels"]
        rate = res["inner_rate_bits"]
        ok = -1e-12 <= rate <= math.log2(levels) + 1e-12
        return [] if ok else [f"pam: rate {rate} outside [0, log2 {levels}]"]
    if cmd == "ba":
        cap, uni = res["capacity_bits"], res["uniform_input_rate_bits"]
        levels = res["scheme"]["m_levels"]
        dist = np.array(res["input_distribution"])
        problems = []
        if cap < uni - 1e-9:
            problems.append(f"ba: capacity {cap} below uniform-input rate {uni}")
        if not cap <= math.log2(levels) + 1e-9:
            problems.append(f"ba: capacity {cap} above log2 {levels}")
        if not (np.all(dist >= 0) and abs(dist.sum() - 1.0) <= 1e-9):
            problems.append("ba: input distribution is not a probability vector")
        return problems
    if cmd == "dither":
        mi, err = res["mi_estimate_bits"], res["std_err_bits"]
        levels = res["scheme"]["m_levels"]
        ok = 0.0 <= mi <= math.log2(levels) + 1e-12 and err >= 0.0
        return [] if ok else [f"dither: estimate {mi} (se {err}) outside [0, log2 {levels}]"]
    return [f"no check for command {cmd!r}"]


def _check_waterfill(argv: list, res: dict) -> list:
    problems = []
    g = np.sort(_floats(_flag(argv, "--gains")))[::-1]
    p, m = float(_flag(argv, "--power")), int(_flag(argv, "--nsq"))
    relaxed = res["relaxed"]["rate_bits"]
    want = float(relaxed_rate(g[None, :], p, m)[0])
    if not _near(relaxed, want):
        problems.append(f"waterfill: relaxed rate {relaxed} but sort-and-scan gives {want}")
    oracle = res["oracle"]
    if oracle is None:
        return problems + [f"waterfill: oracle skipped: {res.get('oracle_skipped')}"]
    rate, shares = oracle["rate_bits"], np.array(oracle["quantizer_shares"])
    # test_04's sandwich: relaxed >= oracle >= relaxed - 2 K
    if not (relaxed >= rate - BITS_TOL and rate >= relaxed - 2.0 * g.size):
        problems.append(f"waterfill: oracle rate {rate} not sandwiched by relaxed {relaxed}")
    if not (np.all(shares == np.round(shares)) and shares.sum() == m):
        problems.append(f"waterfill: oracle shares {shares.tolist()} are not a composition of {m}")
    return problems


# --------------------------------------------------------------------------
# reference outputs

_NOT_BITS = ("powers", "water_level", "quantizer_shares", "input_distribution", "points",
             "thresholds", "spacing", "dither_width", "antenna_thresholds", "gamma")


def compare_reference(got, want, path: str = "") -> list:
    """Structural comparison of two JSON values with the stated tolerances."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys differ"]
        out = []
        for k in want:
            out += compare_reference(got[k], want[k], f"{path}.{k}")
        return out
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: list length differs"]
        out = []
        for i, (a, b) in enumerate(zip(got, want)):
            out += compare_reference(a, b, f"{path}[{i}]")
        return out
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if any(tag in path for tag in _NOT_BITS):
            ok = abs(got - want) <= REL_TOL * max(1.0, abs(want))
        else:
            ok = abs(got - want) <= BITS_TOL
        return [] if ok else [f"{path}: {got!r} differs from reference {want!r}"]
    return [] if got == want else [f"{path}: {got!r} differs from reference {want!r}"]

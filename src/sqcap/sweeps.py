"""Monte-Carlo averaged bound curves over random channel ensembles.

A sweep draws `trials` independent channels per point of an antenna-count
grid and averages closed-form bound evaluations.  Draws use common random
numbers across the grid: each trial draws one master channel at the largest
antenna count and every grid point evaluates a prefix of it, so per-draw
monotonicity in the antenna count carries over to the averaged curves
exactly instead of only statistically.  All randomness is counter-based
(seed, trial), making every sweep reproducible byte for byte under any
worker count.

Figure presets:

* ``fig2a``: one receive antenna bank, 10 sign quantizers, P in {1, 10, 100},
  upper bounds for the single-antenna and linear-combining front ends.
* ``fig2b``: 100 sign quantizers, P = 1000, the same two upper bounds plus
  achievable lower bounds when the budget is split over the K strongest
  antennas, K in {2, 4, 6, 8, 10}.
* ``fig2c``: 5x5-and-up matrices, 5 sign quantizers, P in {0.1, 1}, the
  best-row upper bound and the water-filling rate over the channel spectrum.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bounds import (
    _multi_select_rates,
    mimo_sign_highsnr_bounds,
    mimo_single_select_bounds,
    simo_linear_bounds,
    simo_single_select_bounds,
    waterfill_relaxed,
)
from .channel import _DRAW_ATTEMPTS, ChannelMatrix, RankDeficientError, gaussian_draw

__all__ = [
    "CurvePoint",
    "SweepSpec",
    "UnsupportedCurveError",
    "csv_text",
    "emit_csv",
    "figure_spec",
    "multi_select_lower_capped",
    "run_sweep",
]

FIGURES = ("fig2a", "fig2b", "fig2c", "custom")


class UnsupportedCurveError(ValueError):
    """Requested a curve family this library does not evaluate."""


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep: antenna grid, fixed parameters, and trial budget.

    ``axis`` is the receive-antenna grid.  ``k_list`` adds one achievable
    lower-bound curve per entry (antenna-selection count).  ``n_tx`` switches
    the sweep to matrix channels with that many transmit antennas.
    """

    figure_id: str
    axis: tuple
    power_list: tuple
    n_sq: int
    n_tx: int | None = None
    k_list: tuple = ()
    trials: int = 1000
    seed: int = 0
    include_highsnr_proxy: bool = False
    include_sign_select_finite_snr: bool = False

    def __post_init__(self):
        if self.figure_id not in FIGURES:
            raise ValueError(f"figure_id must be one of {FIGURES}, got {self.figure_id!r}")
        axis = tuple(int(x) for x in self.axis)
        if not axis or any(x < 1 for x in axis) or any(b <= a for a, b in zip(axis, axis[1:])):
            raise ValueError(f"axis must be a strictly increasing grid of counts, got {axis}")
        powers = tuple(float(p) for p in self.power_list)
        if not powers or any(not (math.isfinite(p) and p > 0) for p in powers):
            raise ValueError(f"power_list must be nonempty positive reals, got {powers}")
        ks = tuple(int(k) for k in self.k_list)
        if any(k < 1 for k in ks) or any(b <= a for a, b in zip(ks, ks[1:])):
            raise ValueError(f"k_list must be strictly increasing positive, got {ks}")
        if int(self.n_sq) < 1:
            raise ValueError(f"n_sq must be positive, got {self.n_sq!r}")
        if self.n_tx is not None and int(self.n_tx) < 1:
            raise ValueError(f"n_tx must be positive when given, got {self.n_tx!r}")
        if int(self.trials) < 1:
            raise ValueError(f"trials must be positive, got {self.trials!r}")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError(f"seed must fit in uint64, got {self.seed!r}")
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "power_list", powers)
        object.__setattr__(self, "k_list", ks)
        object.__setattr__(self, "n_sq", int(self.n_sq))
        object.__setattr__(self, "n_tx", None if self.n_tx is None else int(self.n_tx))
        object.__setattr__(self, "trials", int(self.trials))
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True)
class CurvePoint:
    figure_id: str
    curve_label: str
    x: float
    mean: float
    std_err: float
    trials: int
    seed: int

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise ValueError(f"curve mean must be finite, got {self.mean!r}")
        if not self.std_err >= 0:
            raise ValueError(f"std_err must be nonnegative, got {self.std_err!r}")


def figure_spec(figure_id: str, trials: int = 1000, seed: int = 0, **overrides) -> SweepSpec:
    """Preset SweepSpec for one of the shipped figures."""
    presets = {
        "fig2a": dict(
            axis=tuple(range(1, 101)), power_list=(1.0, 10.0, 100.0), n_sq=10
        ),
        "fig2b": dict(
            axis=(1, 2, 3, 5, 7, 10, 14, 20, 30, 50, 70, 100, 140, 200, 300, 500, 700, 1000),
            power_list=(1000.0,),
            n_sq=100,
            k_list=(2, 4, 6, 8, 10),
        ),
        "fig2c": dict(
            axis=tuple(range(5, 51)), power_list=(0.1, 1.0), n_sq=5, n_tx=5
        ),
    }
    if figure_id not in presets:
        raise ValueError(f"no preset for {figure_id!r}; build a custom SweepSpec instead")
    merged = {**presets[figure_id], **overrides}
    return SweepSpec(figure_id=figure_id, trials=trials, seed=seed, **merged)


def multi_select_lower_capped(h, power: float, n_sq: int, k_cap: int) -> float:
    """Best achievable lower bound using at most ``k_cap`` selected antennas.

    Maximizes over selection counts up to min(k_cap, antennas, n_sq), so the
    value is nondecreasing in ``k_cap`` for any fixed channel draw.
    """
    v = np.asarray(h, dtype=np.float64)
    if int(k_cap) < 1:
        raise ValueError(f"k_cap must be positive, got {k_cap!r}")
    rates = _multi_select_rates(v, power, n_sq, min(int(k_cap), v.size, int(n_sq)))
    return max(0.0, float(np.max(rates)) - 2.0)


def _curve_labels(spec: SweepSpec) -> list:
    """Ordered (label, kind, params) descriptors; order fixes CSV row order."""
    if spec.include_sign_select_finite_snr:
        raise UnsupportedCurveError(
            "finite-SNR rates for the all-sign front end on matrix channels are not "
            "evaluated here; see Mo and Heath, 'Capacity Analysis of One-Bit Quantized "
            "MIMO Systems', IEEE Trans. Signal Processing 63(20), 2015. "
            "Set include_highsnr_proxy for the high-SNR stand-in."
        )
    curves = []
    if spec.n_tx is None:
        for p in spec.power_list:
            curves.append((f"single-select-upper:P={p:g}", "single", p, 0))
            curves.append((f"linear-upper:P={p:g}", "linear", p, 0))
        for p in spec.power_list:
            for k in spec.k_list:
                curves.append((f"multi-select-lower:P={p:g};K={k}", "multi", p, k))
    else:
        if spec.k_list:
            raise ValueError("k_list curves are only defined for vector (n_tx=None) sweeps")
        for p in spec.power_list:
            curves.append((f"mimo-single-select-upper:P={p:g}", "mimo-single", p, 0))
            curves.append((f"waterfill-rate:P={p:g}", "waterfill", p, 0))
        if spec.include_highsnr_proxy:
            curves.append(("highsnr-proxy", "proxy", 0.0, 0))
    return curves


def _vector_trial(spec: SweepSpec, curves: list, trial: int) -> np.ndarray:
    h = gaussian_draw(spec.seed, trial, (spec.axis[-1],))
    out = np.empty((len(curves), len(spec.axis)))
    for i, x in enumerate(spec.axis):
        hx = h[:x]
        for c, (_, kind, p, k) in enumerate(curves):
            if kind == "single":
                out[c, i] = simo_single_select_bounds(hx, p, spec.n_sq).upper
            elif kind == "linear":
                out[c, i] = simo_linear_bounds(hx, p, spec.n_sq).upper
            else:
                out[c, i] = multi_select_lower_capped(hx, p, spec.n_sq, k)
    return out


def _matrix_trial(spec: SweepSpec, curves: list, trial: int) -> np.ndarray:
    # a rank-deficient prefix (vanishingly rare) restarts the trial on the
    # next counter block of the same stream, keeping prefixes nested
    for attempt in range(_DRAW_ATTEMPTS):
        master = gaussian_draw(
            spec.seed, trial, (spec.axis[-1], spec.n_tx), counter_block=attempt
        )
        try:
            return _matrix_trial_eval(spec, curves, master)
        except RankDeficientError:
            continue
    raise RuntimeError(f"no full-rank channel after {_DRAW_ATTEMPTS} attempts in trial {trial}")


def _matrix_trial_eval(spec: SweepSpec, curves: list, master: np.ndarray) -> np.ndarray:
    out = np.empty((len(curves), len(spec.axis)))
    proxy = None
    for i, x in enumerate(spec.axis):
        cm = ChannelMatrix(master[:x])
        for c, (_, kind, p, _k) in enumerate(curves):
            if kind == "mimo-single":
                out[c, i] = mimo_single_select_bounds(cm, p, spec.n_sq).upper
            elif kind == "waterfill":
                out[c, i] = waterfill_relaxed(cm.gains, p, spec.n_sq).rate
            else:
                if proxy is None:
                    proxy = mimo_sign_highsnr_bounds(spec.n_sq, spec.n_tx).lower
                out[c, i] = proxy
    return out


def run_sweep(spec: SweepSpec, workers: int = 1) -> list:
    """Evaluate all configured curves, averaged over the trial ensemble.

    Worker threads only parallelize independent trials; results are reduced
    in trial order, so output is identical for any ``workers`` value.
    """
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers!r}")
    curves = _curve_labels(spec)
    eval_trial = _matrix_trial if spec.n_tx is not None else _vector_trial
    values = np.empty((spec.trials, len(curves), len(spec.axis)))

    def fill(t: int):
        values[t] = eval_trial(spec, curves, t)

    if workers == 1:
        for t in range(spec.trials):
            fill(t)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, range(spec.trials)))

    means = values.mean(axis=0)
    if spec.trials > 1:
        errs = values.std(axis=0, ddof=1) / math.sqrt(spec.trials)
    else:
        errs = np.zeros_like(means)
    points = []
    for c, (label, _, _, _) in enumerate(curves):
        for i, x in enumerate(spec.axis):
            points.append(
                CurvePoint(
                    spec.figure_id,
                    label,
                    float(x),
                    float(means[c, i]),
                    float(errs[c, i]),
                    spec.trials,
                    spec.seed,
                )
            )
    return points


def csv_text(points: list) -> str:
    """CSV rendering of curve points; identical inputs give identical bytes."""
    lines = ["figure,curve,x,mean,std_err,trials,seed"]
    for pt in points:
        lines.append(
            f"{pt.figure_id},{pt.curve_label},{pt.x:.12g},{pt.mean:.12g},"
            f"{pt.std_err:.12g},{pt.trials},{pt.seed}"
        )
    return "\n".join(lines) + "\n"


def emit_csv(points: list, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(csv_text(points))

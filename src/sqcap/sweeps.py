"""Monte-Carlo averaged bound curves over random channel ensembles.

A sweep draws `trials` independent channels per point of an antenna-count
grid and averages closed-form bound evaluations.  Draws use common random
numbers across the grid: each trial draws one master channel at the largest
antenna count and every grid point evaluates a prefix of it, so per-draw
monotonicity in the antenna count carries over to the averaged curves
exactly instead of only statistically.  All randomness is counter-based
(seed, trial), making every sweep reproducible byte for byte under any
worker count.

Sweeps are evaluated in blocks of contiguous trials.  A block draws its
trials' master channels in one pass, and the array kernels of ``bounds``
run once per curve and grid point over the stacked draws, through prefix
statistics for vector channels and one stacked SVD per grid point for
matrix channels; water-filling runs once per power and gain count over all
grid points with that count.  ``run_sweep`` says how ``workers`` splits the
trials.

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
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._validate import _check_count, _check_seed
from .bounds import (
    _capped_half_log,
    _capped_waterfill_rows,
    _multi_select_rates,
    _relaxed_rates,
    _top_squares,
    mimo_sign_highsnr_bounds,
)
from .channel import _DRAW_ATTEMPTS, RANK_TOL, _gaussian_rows

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

#: Most trials evaluated in one block; caps a block's working memory at any
#: trial count (a fig2b block of 1024 trials holds 8 MB of channel draws).
BLOCK_TRIALS = 1024


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
        axis = tuple(_check_count(x, "each axis count") for x in self.axis)
        if not axis or any(b <= a for a, b in zip(axis, axis[1:])):
            raise ValueError(f"axis must be a strictly increasing grid of counts, got {axis}")
        powers = tuple(float(p) for p in self.power_list)
        if not powers or any(not (math.isfinite(p) and p > 0) for p in powers):
            raise ValueError(f"power_list must be nonempty positive reals, got {powers}")
        ks = tuple(_check_count(k, "each k_list count") for k in self.k_list)
        if any(b <= a for a, b in zip(ks, ks[1:])):
            raise ValueError(f"k_list must be strictly increasing positive, got {ks}")
        n_sq = _check_count(self.n_sq, "n_sq")
        n_tx = None if self.n_tx is None else _check_count(self.n_tx, "n_tx")
        trials = _check_count(self.trials, "trials")
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "power_list", powers)
        object.__setattr__(self, "k_list", ks)
        object.__setattr__(self, "n_sq", n_sq)
        object.__setattr__(self, "n_tx", n_tx)
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "seed", _check_seed(self.seed))


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
    n_sq = _check_count(n_sq, "n_sq")
    kmax = min(_check_count(k_cap, "k_cap"), v.size, n_sq)
    rates = _multi_select_rates(_top_squares(v * v, kmax), power, n_sq)
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


def _vector_block(spec: SweepSpec, curves: list, t0: int, t1: int, out: np.ndarray) -> None:
    """Write the curve values of trials ``t0 <= t < t1`` into ``out``.

    ``out`` has shape (trials, curves, grid points).  The block's master
    draws come from one pass of the draw kernel.  Every grid point reads
    prefix statistics of each trial's master draw (the running max and the
    running sum of |h|^2, the strongest |h|^2 in order), so each bound
    kernel runs once per curve and grid point over the whole block.  Every
    operation acts row by row, so a trial's values do not depend on the
    block it is evaluated in.
    """
    sq = _gaussian_rows(spec.seed, range(t0, t1), (spec.axis[-1],))
    np.square(sq, out=sq)
    starts = (0,) + spec.axis[:-1]
    # squaring rounds monotonically, so max |h|^2 is the square of max |h|,
    # the statistic the single-select bound squares
    max_sq = np.maximum.accumulate(np.maximum.reduceat(sq, starts, axis=1), axis=1)
    tops = []
    if spec.k_list:
        top = sq[:, :0]
        for start, x in zip(starts, spec.axis):
            # the strongest of a prefix are among the previous prefix's
            # strongest and the entries added since
            kmax = min(spec.k_list[-1], x, spec.n_sq)
            top = _top_squares(np.hstack([top, sq[:, start:x]]), kmax)
            tops.append(top)
    sum_sq = np.cumsum(sq, axis=1, out=sq)[:, np.asarray(spec.axis) - 1]
    for c, (_, kind, p, k) in enumerate(curves):
        if kind == "single":
            out[:, c] = _capped_half_log(1.0 + max_sq * p, spec.n_sq)
        elif kind == "linear":
            out[:, c] = _capped_half_log(1.0 + sum_sq * p, spec.n_sq)
        else:
            for i, top in enumerate(tops):
                rates = _multi_select_rates(top[:, :k], p, spec.n_sq)
                out[:, c, i] = np.maximum(rates.max(axis=1) - 2.0, 0.0)


def _matrix_block(spec: SweepSpec, curves: list, t0: int, t1: int, out: np.ndarray) -> None:
    """``_vector_block`` for matrix channels: one stacked SVD per grid point
    gives every trial's gains and ``ChannelMatrix`` rank test, and the gains
    of all grid points with the same count are water-filled in one stack
    per power.  Only trials with a rank-deficient prefix (vanishingly rare)
    are redrawn, each from the next counter block of its stream, so
    prefixes stay nested.
    """
    pending = np.arange(t0, t1)
    shape = (spec.axis[-1], spec.n_tx)
    # grid points by gain count, min(x, n_tx)
    widths = {}
    for i, x in enumerate(spec.axis):
        widths.setdefault(min(x, spec.n_tx), []).append(i)
    for attempt in range(_DRAW_ATTEMPTS):
        master = _gaussian_rows(spec.seed, pending, shape, attempt)
        svals = [np.linalg.svd(master[:, :x], compute_uv=False) for x in spec.axis]
        full = np.logical_and.reduce([s[:, -1] > RANK_TOL * s[:, 0] for s in svals])
        rows, master = pending[full] - t0, master[full]
        row_sq = np.maximum.accumulate(np.sum(master * master, axis=2), axis=1)
        row_max = row_sq[:, np.asarray(spec.axis) - 1]
        # one row per grid point and trial, point by point
        gains = {
            w: np.square(np.concatenate([svals[i][full] for i in points]))
            for w, points in widths.items()
        }
        for c, (_, kind, p, _k) in enumerate(curves):
            if kind == "mimo-single":
                out[rows, c] = _capped_half_log(1.0 + row_max * p, spec.n_sq)
            elif kind == "waterfill":
                for w, points in widths.items():
                    inf = np.full(gains[w].shape, np.inf)
                    powers = _capped_waterfill_rows(gains[w], inf, p)[1]
                    rates = _relaxed_rates(gains[w], powers, spec.n_sq)[0]
                    out[rows, c, np.array(points)[:, None]] = rates.reshape(len(points), rows.size)
            else:
                out[rows, c] = mimo_sign_highsnr_bounds(spec.n_sq, spec.n_tx).lower
        pending = pending[~full]
        if not pending.size:
            return
    raise RuntimeError(
        f"no full-rank channel after {_DRAW_ATTEMPTS} attempts in trial {pending[0]}"
    )


def run_sweep(spec: SweepSpec, workers: int = 1) -> list:
    """Evaluate all configured curves, averaged over the trial ensemble.

    The trials are split into ``workers`` contiguous chunks, or into more
    when needed so that no chunk exceeds ``BLOCK_TRIALS`` trials, but never
    into more chunks than there are trials; each chunk is evaluated as one
    block of array kernels.  A thread pool of ``min(workers,
    os.cpu_count())`` threads runs the chunks, or the calling thread runs
    them in turn when that is one, so no request starts more threads than
    the machine has cores.  Each chunk writes its own rows of the
    trial-ordered value array and every kernel works row by row, so the
    output is identical for any ``workers`` value.  Within a chunk the
    channels are drawn in one pass and water-filled with one call per power
    and gain count.
    """
    workers = _check_count(workers, "workers")
    threads = min(workers, os.cpu_count() or 1)
    curves = _curve_labels(spec)
    values = np.empty((spec.trials, len(curves), len(spec.axis)))
    n_chunks = min(max(workers, -(-spec.trials // BLOCK_TRIALS)), spec.trials)
    chunks = np.array_split(np.arange(spec.trials), n_chunks)

    block = _vector_block if spec.n_tx is None else _matrix_block

    def fill(chunk: np.ndarray):
        t0, t1 = int(chunk[0]), int(chunk[-1]) + 1
        block(spec, curves, t0, t1, values[t0:t1])

    if threads == 1:
        for chunk in chunks:
            fill(chunk)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(fill, chunks))

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

"""Monte-Carlo averaged bound curves over random channel ensembles.

A sweep draws `trials` independent channels per point of an antenna-count
grid and averages closed-form bound evaluations.  Draws use common random
numbers across the grid: each trial draws one master channel at the largest
antenna count and every grid point evaluates a prefix of it, so per-draw
monotonicity in the antenna count carries over to the averaged curves
exactly instead of only statistically.  All randomness is counter-based
(seed, trial), making every sweep reproducible byte for byte under any
worker count.

Sweeps are evaluated in blocks of contiguous trials, and one block kernel
serves vector and matrix channels alike: a vector channel is a matrix
channel with one transmit antenna.  A block draws its trials' master
channels in one pass and reads their statistics once, each one fixed-width
array: prefix statistics of the squared row norms, the strongest of them
zero-padded to min(k_list[-1], n_sq), and a matrix's gains zero-padded to
``n_tx``.  ``_CURVES`` states each curve group once, its labels and the one
kernel that computes them at a power over the whole block, in CSV row
order.  ``_entries_per_trial`` counts what a block holds, and ``run_sweep``
says how it and ``workers`` split the trials.

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

from ._validate import _check_count, _check_real, _check_seed, _check_vector
from .bounds import (
    _capped_half_log,
    _capped_waterfill_rows,
    _multi_select_rates,
    _relaxed_rates,
    _top_squares,
    mimo_sign_highsnr_bounds,
)
from .channel import _full_rank_rows, _gaussian_rows

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

#: Float64 entries (16 MB) one block may hold, as ``_entries_per_trial`` counts them.
BLOCK_ENTRIES = 1 << 21


class UnsupportedCurveError(ValueError):
    """Requested a curve family this library does not evaluate."""


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep: antenna grid, fixed parameters, and trial budget.

    ``axis`` is the receive-antenna grid.  ``k_list`` adds one achievable
    lower-bound curve per entry (antenna-selection count).  ``n_tx`` switches
    the sweep to matrix channels with that many transmit antennas, which
    take no ``k_list`` but may add the high-SNR proxy curve.  The all-sign
    finite-SNR curve raises ``UnsupportedCurveError``.
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
        powers = tuple(_check_real(p, "each power", positive=True) for p in self.power_list)
        if not powers:
            raise ValueError("power_list must be nonempty")
        ks = tuple(_check_count(k, "each k_list count") for k in self.k_list)
        if any(b <= a for a, b in zip(ks, ks[1:])):
            raise ValueError(f"k_list must be strictly increasing positive, got {ks}")
        n_sq = _check_count(self.n_sq, "n_sq")
        n_tx = None if self.n_tx is None else _check_count(self.n_tx, "n_tx")
        if ks and n_tx is not None:
            raise ValueError("k_list curves are only defined for vector (n_tx=None) sweeps")
        if self.include_highsnr_proxy and n_tx is None:
            raise ValueError("include_highsnr_proxy needs a matrix (n_tx) sweep")
        if self.include_sign_select_finite_snr:
            raise UnsupportedCurveError(
                "finite-SNR rates for the all-sign front end on matrix channels are not "
                "evaluated here; see Mo and Heath, 'Capacity Analysis of One-Bit Quantized "
                "MIMO Systems', IEEE Trans. Signal Processing 63(20), 2015. "
                "Set include_highsnr_proxy for the high-SNR stand-in."
            )
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
        "fig2a": dict(axis=tuple(range(1, 101)), power_list=(1.0, 10.0, 100.0), n_sq=10),
        "fig2b": dict(
            axis=(1, 2, 3, 5, 7, 10, 14, 20, 30, 50, 70, 100, 140, 200, 300, 500, 700, 1000),
            power_list=(1000.0,), n_sq=100, k_list=(2, 4, 6, 8, 10),
        ),
        "fig2c": dict(axis=tuple(range(5, 51)), power_list=(0.1, 1.0), n_sq=5, n_tx=5),
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
    v = _check_vector(h, "gain vector")
    power = _check_real(power, "power")
    n_sq = _check_count(n_sq, "n_sq")
    kmax = min(_check_count(k_cap, "k_cap"), v.size, n_sq)
    rates = _multi_select_rates(_top_squares(v * v, kmax), power, n_sq)
    return max(0.0, float(np.max(rates)) - 2.0)


def _half_log(*names: str):
    """Kernel of the bounds 0.5 log2 min(1 + P stat, (n_sq + 1)^2), one per named statistic."""
    return lambda spec, stats, p: (_capped_half_log(1.0 + stats[n] * p, spec.n_sq) for n in names)


def _k_strongest(spec: SweepSpec, stats: dict, p: float) -> list:
    # cumsum runs in order, so column k of one rate pass over the padded top
    # rows is the rate of the strongest k, and its running max is the best
    # over at most k: a padded column repeats the sum under a lower cap, so
    # it never raises the max, and one pass per power serves every k.  The
    # max runs one column at a time and keeps only the columns k_list picks.
    rates = _multi_select_rates(stats["tops"], p, spec.n_sq)
    width = rates.shape[-1]
    wanted = {min(k, width) for k in spec.k_list}
    best = rates[..., 0]
    picks = {1: best}
    for j in range(1, width):
        best = np.maximum(best, rates[..., j])
        if j + 1 in wanted:
            picks[j + 1] = best
    return [np.maximum(picks[min(k, width)] - 2.0, 0.0) for k in spec.k_list]


def _best_row_and_waterfill(spec: SweepSpec, stats: dict, p: float):
    yield _capped_half_log(1.0 + stats["max_sq"] * p, spec.n_sq)
    free, powers, _ = _capped_waterfill_rows(stats["gains"], None, p)
    yield _relaxed_rates(stats["gains"], powers, free, spec.n_sq)[0].reshape(-1, len(spec.axis))


def _highsnr_proxy(spec: SweepSpec, stats: dict, p) -> list:
    return [mimo_sign_highsnr_bounds(spec.n_sq, spec.n_tx).lower]


#: Every curve group in CSV row order: (matrix channel, the SweepSpec field
#: that turns it on or None, its kernel, a label format per curve), repeated
#: for every power p its labels name; a label naming k repeats for every
#: ``k_list`` count.  A kernel maps (spec, block statistics, p) to the group's
#: values at p, trials by grid points, one per label in label order.
_CURVES = (
    (False, None, _half_log("max_sq", "sum_sq"),
     ("single-select-upper:P={p:g}", "linear-upper:P={p:g}")),
    (False, "k_list", _k_strongest, ("multi-select-lower:P={p:g};K={k}",)),
    (True, None, _best_row_and_waterfill,
     ("mimo-single-select-upper:P={p:g}", "waterfill-rate:P={p:g}")),
    (True, "include_highsnr_proxy", _highsnr_proxy, ("highsnr-proxy",)),
)


def _curves(spec: SweepSpec) -> list:
    """The (labels, kernel, p) of every curve group of ``spec`` at every power
    its labels name, in CSV row order."""
    groups = []
    for matrix, flag, kernel, formats in _CURVES:
        if matrix == (spec.n_tx is None) or flag and not getattr(spec, flag):
            continue
        for p in spec.power_list if "{p" in "".join(formats) else (None,):
            labels = [fmt.format(p=p, k=k) for fmt in formats
                      for k in (spec.k_list if "{k" in fmt else (None,))]
            groups.append((labels, kernel, p))
    return groups


def _entries_per_trial(spec: SweepSpec) -> int:
    """Float64 entries one trial of a block holds at its peak: the draw twice,
    since ``_gaussian_rows`` keeps its raw words alongside the uniforms, and
    per grid point the max and sum rows plus the largest of 4 for a capped
    half-log curve and its temporaries, an n_tx x n_tx Gram matrix plus 5 n_tx
    for the gains and the water-filling rows, or 4 k for the padded top row
    and one power's rate pass over it (k = min(k_list[-1], n_sq)) plus 2 per
    ``k_list`` count for the picks.  A vector channel counts as n_tx = 1.
    """
    t = spec.n_tx or 1
    k = min(spec.k_list[-1], spec.n_sq) if spec.k_list else 0
    gram = t * t + 5 * t if spec.n_tx else 0
    per_point = 2 + max(4, gram, 4 * k + 2 * len(spec.k_list))
    return 2 * spec.axis[-1] * t + len(spec.axis) * per_point


def _block(spec: SweepSpec, curves: list, t0: int, t1: int, out: np.ndarray) -> None:
    """Write the curve values of trials ``t0 <= t < t1`` into ``out``.

    ``out`` has shape (trials, curves, grid points).  The master draws, a
    vector or an ``n_tx``-column matrix per trial, come from one pass of the
    draw kernel; matrices from ``channel._full_rank_rows``, which redraws the
    rank-deficient ones and gives every grid point's gains, bit for bit
    those ``ChannelMatrix`` keeps.  The statistics are read once: per grid
    point the running max and sum of the squared row norms, the strongest
    of them in order, zero-padded to min(k_list[-1], n_sq), if ``k_list`` is
    set, and a matrix's gains, zero-padded to ``n_tx``, so each power
    water-fills the whole block once without caps.  Each group's kernel
    then runs once per power.  Every step acts row by row, so a trial's
    values do not depend on its block.
    """
    stats = {}
    if spec.n_tx is None:
        h = _gaussian_rows(spec.seed, range(t0, t1), (spec.axis[-1],))
        sq = np.square(h, out=h)
    else:
        shape = (spec.axis[-1], spec.n_tx)
        h, prefix, _ = _full_rank_rows(spec.seed, range(t0, t1), shape, spec.axis)
        sq = np.sum(h * h, axis=2)
        stats["gains"] = prefix.reshape(-1, spec.n_tx)
    starts = (0,) + spec.axis[:-1]
    # squaring rounds monotonically, so a vector's max |h|^2 is the square
    # of max |h|, the statistic the single-select bound squares
    stats["max_sq"] = np.maximum.accumulate(np.maximum.reduceat(sq, starts, axis=1), axis=1)
    if spec.k_list:
        k = min(spec.k_list[-1], spec.n_sq)
        tops = stats["tops"] = np.zeros((t1 - t0, len(spec.axis), k))
        top = tops[:, 0]
        for i, (start, x) in enumerate(zip(starts, spec.axis)):
            # the strongest of a prefix are among the previous prefix's
            # strongest, zeros before the first, and the entries added since
            top = tops[:, i] = _top_squares(np.hstack([top, sq[:, start:x]]), k)
    stats["sum_sq"] = np.cumsum(sq, axis=1, out=sq)[:, np.asarray(spec.axis) - 1]
    for c, v in enumerate(v for _, kernel, p in curves for v in kernel(spec, stats, p)):
        out[:, c] = v


def run_sweep(spec: SweepSpec, workers: int = 1) -> list:
    """Evaluate all configured curves, averaged over the trial ensemble.

    The trials are split into ``workers`` contiguous chunks, or into more
    when needed so that no chunk of two trials or more holds more than
    ``BLOCK_ENTRIES`` entries as ``_entries_per_trial`` counts them, but
    never into more chunks than there are trials; each chunk is evaluated
    as one ``_block``.  A thread pool of ``min(workers, os.cpu_count())``
    threads runs the chunks, or the calling thread runs them in turn when
    that is one, so no request starts more threads than the machine has
    cores.  Each chunk writes its own rows of the trial-ordered value array
    and every kernel works row by row, so the output is identical for any
    ``workers`` value.
    """
    workers = _check_count(workers, "workers")
    threads = min(workers, os.cpu_count() or 1)
    curves = _curves(spec)
    labels = [label for group, *_ in curves for label in group]
    values = np.empty((spec.trials, len(labels), len(spec.axis)))
    block = max(1, BLOCK_ENTRIES // _entries_per_trial(spec))
    n_chunks = min(max(workers, -(-spec.trials // block)), spec.trials)
    chunks = np.array_split(np.arange(spec.trials), n_chunks)

    def fill(chunk: np.ndarray):
        t0, t1 = int(chunk[0]), int(chunk[-1]) + 1
        _block(spec, curves, t0, t1, values[t0:t1])

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
    return [
        CurvePoint(spec.figure_id, label, float(x), float(means[c, i]), float(errs[c, i]),
                   spec.trials, spec.seed)
        for c, label in enumerate(labels)
        for i, x in enumerate(spec.axis)
    ]


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

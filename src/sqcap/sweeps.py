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
order; every curve is a bound evaluated on each draw.
``_entries_per_trial`` counts what a block holds at its peak, and
``BLOCK_ENTRIES`` caps it; a sweep has at least one block per thread, so
``workers`` threads share even a sweep that fits one block.  ``run_sweep``
folds each finished block into running sums trial by trial, so the output
does not depend on the blocks and its memory does not grow with the trials.

A sweep's result is one ``SweepTable``: its curve labels, its grid, and
read-only (curves, grid points) arrays of the means and their standard
errors.  ``csv_text`` writes its rows straight from those arrays;
iterating the table yields one ``CurvePoint`` per CSV row, built on demand.

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
from collections import deque
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
)
from .channel import _JACOBI_MAX_DIM, _full_rank_rows, _gaussian_rows

__all__ = [
    "CurvePoint",
    "SweepSpec",
    "SweepTable",
    "csv_text",
    "emit_csv",
    "figure_spec",
    "multi_select_lower_capped",
    "run_sweep",
]

FIGURES = ("fig2a", "fig2b", "fig2c", "custom")

#: Float64 entries (16 MB) one block may hold, as ``_entries_per_trial`` counts them.
BLOCK_ENTRIES = 1 << 21


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep: antenna grid, fixed parameters, and trial budget.

    ``axis`` is the receive-antenna grid.  ``k_list`` adds one achievable
    lower-bound curve per entry (antenna-selection count); ``n_tx``, which
    excludes it, switches the sweep to ``n_tx``-column matrix channels.
    """

    figure_id: str
    axis: tuple
    power_list: tuple
    n_sq: int
    n_tx: int | None = None
    k_list: tuple = ()
    trials: int = 1000
    seed: int = 0

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
        trials = _check_count(self.trials, "trials")
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "power_list", powers)
        object.__setattr__(self, "k_list", ks)
        object.__setattr__(self, "n_sq", n_sq)
        object.__setattr__(self, "n_tx", n_tx)
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "seed", _check_seed(self.seed))
        seen = {}
        for labels, _, p in _curves(self):
            for label in labels:  # a group's labels differ, so a repeat is another power's
                if label in seen:
                    raise ValueError(
                        f"powers {seen[label]!r} and {p!r} share the curve label {label!r}"
                    )
                seen[label] = p


@dataclass(frozen=True, slots=True)
class CurvePoint:
    """One CSV row of a ``SweepTable``: a curve's mean and s.e. at grid count ``x``."""

    figure_id: str
    curve_label: str
    x: float
    mean: float
    std_err: float
    trials: int
    seed: int


@dataclass(frozen=True, eq=False)
class SweepTable:
    """Every curve of a sweep: ``means[c, j]`` and ``std_errs[c, j]`` are
    curve ``labels[c]`` at grid count ``axis[j]``, read-only float arrays
    of shape (curves, grid points).  Each mean must be finite and each
    s.e. nonnegative.  Iterating yields one ``CurvePoint`` per CSV row,
    each curve's grid points in turn, and ``len`` counts them.
    """

    figure_id: str
    labels: tuple
    axis: tuple
    means: np.ndarray
    std_errs: np.ndarray
    trials: int
    seed: int

    def __post_init__(self):
        labels, axis = tuple(self.labels), tuple(self.axis)
        means = np.array(self.means, dtype=float)
        errs = np.array(self.std_errs, dtype=float)
        if not means.shape == errs.shape == (len(labels), len(axis)):
            raise ValueError(
                f"means and std_errs must have shape {(len(labels), len(axis))}, "
                f"got {means.shape} and {errs.shape}"
            )
        bad = np.flatnonzero(~(np.isfinite(means) & (errs >= 0)))
        if bad.size:  # name the first offending CSV row
            c, j = divmod(int(bad[0]), len(axis))
            raise ValueError(
                f"curve {labels[c]} at x={axis[j]!r} needs a finite mean and a nonnegative "
                f"std_err, got {float(means[c, j])!r} and {float(errs[c, j])!r}"
            )
        means.flags.writeable = errs.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "std_errs", errs)

    def __len__(self) -> int:
        return self.means.size

    def __iter__(self):
        xs = [float(x) for x in self.axis]
        for label, means, errs in zip(self.labels, self.means.tolist(), self.std_errs.tolist()):
            for x, mean, err in zip(xs, means, errs):
                yield CurvePoint(self.figure_id, label, x, mean, err, self.trials, self.seed)


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
    with np.errstate(over="ignore"):  # a gain past 1e154 squares to inf, which the caps clip
        top = _top_squares((v * v)[None], (v.size,), kmax)[0, 0]
    rates = _multi_select_rates(top, power, n_sq)
    return max(0.0, float(np.max(rates)) - 2.0)


def _half_log(*names: str):
    """Kernel of the bounds 0.5 log2 min(1 + P stat, (n_sq + 1)^2), one per named statistic."""

    def kernel(spec: SweepSpec, stats: dict, p: float) -> list:
        with np.errstate(over="ignore"):  # P stat past the float range is inf, which the cap clips
            return [_capped_half_log(1.0 + stats[n] * p, spec.n_sq) for n in names]

    return kernel


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
    with np.errstate(over="ignore"):  # P |h|^2 past the float range is inf, which the cap clips
        best = _capped_half_log(1.0 + stats["max_sq"] * p, spec.n_sq)
    yield best
    free, powers, _ = _capped_waterfill_rows(stats["gains"], None, p)
    yield _relaxed_rates(stats["gains"], powers, free, spec.n_sq)[0].reshape(-1, len(spec.axis))


#: Every curve group in CSV row order: (matrix channel, its kernel, a label
#: format per curve), repeated for every power p; a label naming k repeats
#: for every ``k_list`` count, and a group left with no labels is off.  A
#: kernel maps (spec, block statistics, p) to the group's values at p, trials
#: by grid points, one per label in label order.
_CURVES = (
    (False, _half_log("max_sq", "sum_sq"),
     ("single-select-upper:P={p:g}", "linear-upper:P={p:g}")),
    (False, _k_strongest, ("multi-select-lower:P={p:g};K={k}",)),
    (True, _best_row_and_waterfill,
     ("mimo-single-select-upper:P={p:g}", "waterfill-rate:P={p:g}")),
)


def _curves(spec: SweepSpec) -> list:
    """The (labels, kernel, p) of every curve group of ``spec`` at every
    power, in CSV row order."""
    groups = []
    for matrix, kernel, formats in _CURVES:
        for p in spec.power_list:
            labels = [fmt.format(p=p, k=k) for fmt in formats
                      for k in (spec.k_list if "{k" in fmt else (None,))]
            if labels and matrix == (spec.n_tx is not None):
                groups.append((labels, kernel, p))
    return groups


def _entries_per_trial(spec: SweepSpec) -> int:
    """Float64 entries one trial of a block holds at its peak, the largest of
    its three phases, with x the largest grid count, n its grid points, c
    its curves, k = min(k_list[-1], n_sq) (0 without ``k_list``) and m =
    ``n_tx`` (0 for a vector channel):

    * a matrix's spectrum: the draw, x m, held once, 8 entries to spare
      for the redraw counts and the small arrays beside it, and per grid
      point the u = m (m + 1) / 2 upper-triangle Gram entries.  While they
      are built, the draw's transposed copy, x m, and the running sums and
      one row's products and their factors, 4 u; then per grid point the m
      gains and a column index or mask, and the larger of the rotations'
      working set (up to ``channel._JACOBI_MAX_DIM`` columns), per grid
      point a copy of the entries and four temporaries, u + 4, and one
      ``eigvalsh`` chunk of at most one matrix per trial: its u entries,
      its m x m matrix, its m eigenvalues and their reversed copy, and
      three indices;
    * the statistics: the squared row norms, x, and per grid point a
      vector's sum row and its max row (with ``k_list`` the top-k row,
      whose first column is the max), or a matrix's max row and gains,
      plus s + k for the top rows' merge buffer, s the widest grid step;
    * the kernels: per grid point the c curve values, the statistics held,
      the largest kernel's temporaries (3 for a capped half-log, 2 k + 1
      plus one per ``k_list`` count for the multi-select rate pass and its
      picks, 5 m + 4 + m // 8 for the water-filling and the relaxed
      rates: about five m-wide arrays, a mask and a few rows) and one
      entry to spare for the small arrays beside them.
    """
    x, n = spec.axis[-1], len(spec.axis)
    k = min(spec.k_list[-1], spec.n_sq) if spec.k_list else 0
    m = spec.n_tx or 0
    held = 1 + (m or k or 1)  # max and gains, sum and top k, or sum and max
    u = m * (m + 1) // 2
    rotations = n * (u + 4) if m <= _JACOBI_MAX_DIM else 0
    solve = n * (u + m + 1) + max(rotations, u + m * m + 2 * m + 3)
    spectrum = x * m + 8 + max(x * m + 4 * u + n * u, solve) if m else 0
    step = max(b - a for a, b in zip((0,) + spec.axis, spec.axis))
    stats = x + n * held + (step + k if k else 0)
    temps = max(3, 2 * k + len(spec.k_list) + 1 if k else 0, 5 * m + 4 + m // 8 if m else 0)
    curves = sum(len(labels) for labels, *_ in _curves(spec))
    return max(spectrum, stats, n * (curves + held + temps + 1))


# np.sum(a, axis=-1) has the same bits but cost sweep-matrix 9-14%: measure before swapping
def _row_sums(a: np.ndarray) -> np.ndarray:
    """``np.sum(a, axis=-1)``, bit for bit.  numpy adds a row of 2 to 7
    entries left to right, one row at a time; that many column passes add
    them in the same order over all rows at once.  Past 7 numpy sums a row
    pairwise, and its sum is taken."""
    n = a.shape[-1]
    if not 2 <= n <= 7:
        return np.sum(a, axis=-1)
    s = a[..., 0] + a[..., 1]
    for j in range(2, n):
        s += a[..., j]
    return s


def _block(spec: SweepSpec, curves: list, t0: int, t1: int) -> np.ndarray:
    """The curve values of trials ``t0 <= t < t1``, shape (trials, curves,
    grid points).

    The master draws, a vector or an ``n_tx``-column matrix per trial, come
    from one pass of the draw kernel; matrices from
    ``channel._full_rank_rows``, which redraws the rank-deficient ones and
    gives every grid point's gains, bit for bit those ``ChannelMatrix``
    keeps.  The statistics are read once: per grid point the running max
    of the squared row norms, their running sum for a vector, the strongest
    of them in order, zero-padded to min(k_list[-1], n_sq), if ``k_list``
    is set, by the scalar bounds' top-k kernel ``bounds._top_squares``, and
    a matrix's gains, zero-padded to ``n_tx``, so each power water-fills
    the whole block once without caps.  Each group's kernel
    then runs once per power.  Every step acts row by row, so a trial's
    values do not depend on its block.
    """
    stats = {}
    if spec.n_tx is None:
        sq = _gaussian_rows(spec.seed, range(t0, t1), (spec.axis[-1],))
        np.square(sq, out=sq)
    else:
        shape = (spec.axis[-1], spec.n_tx)
        h, prefix, _ = _full_rank_rows(spec.seed, range(t0, t1), shape, spec.axis)
        sq = _row_sums(np.square(h, out=h))
        stats["gains"] = prefix.reshape(-1, spec.n_tx)
        del h
    if spec.k_list:
        tops = stats["tops"] = _top_squares(sq, spec.axis, min(spec.k_list[-1], spec.n_sq))
        stats["max_sq"] = tops[:, :, 0]  # the strongest of a prefix is its first top
    else:
        # squaring rounds monotonically, so a vector's max |h|^2 is the square
        # of max |h|, the statistic the single-select bound squares
        starts = (0,) + spec.axis[:-1]
        stats["max_sq"] = np.maximum.accumulate(np.maximum.reduceat(sq, starts, axis=1), axis=1)
    if spec.n_tx is None:  # no matrix curve reads the sums
        stats["sum_sq"] = np.cumsum(sq, axis=1, out=sq)[:, np.asarray(spec.axis) - 1]
    del sq  # the kernels read only the statistics
    out = np.empty((t1 - t0, sum(len(labels) for labels, *_ in curves), len(spec.axis)))
    for c, v in enumerate(v for _, kernel, p in curves for v in kernel(spec, stats, p)):
        out[:, c] = v
    return out


def _finished_blocks(spec: SweepSpec, curves: list, bounds, threads: int):
    """The values of the blocks ``bounds`` lists, in its order: ``threads``
    pool threads compute them, with at most one more block submitted than
    runs, so at most ``threads + 1`` are held; or the calling thread alone,
    when ``threads`` is one."""
    if threads == 1:
        for t0, t1 in bounds:
            yield _block(spec, curves, t0, t1)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending = deque()
        for t0, t1 in bounds:
            pending.append(pool.submit(_block, spec, curves, t0, t1))
            if len(pending) > threads:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def run_sweep(spec: SweepSpec, workers: int = 1) -> SweepTable:
    """Evaluate all configured curves, averaged over the trial ensemble.

    The trials are cut into n contiguous blocks, split as evenly as
    ``np.array_split`` splits them: at least ceil(trials / b), b =
    ``BLOCK_ENTRIES // _entries_per_trial(spec)`` trials or at least one,
    and at least one per thread.  ``min(workers, os.cpu_count(), trials)``
    threads run them, the calling thread alone when that is one.  The
    calling thread takes the finished blocks in trial order and folds each
    into running sums trial by trial: of the values, so each mean has the
    bits that ``mean(axis=0)`` of one array of every trial would give; and
    of the values' shifts from trial 0's values and of their squares (Chan,
    Golub & LeVeque, The American Statistician 37(3), 1983), which give the
    standard errors, exactly 0 where every trial has the same value.  Every
    sum adds its trials in order whatever the blocks, and a trial's values
    do not depend on its block, so the output is identical for any
    ``workers`` value; nothing held grows with the trials.  The means and
    standard errors come back as one ``SweepTable``.
    """
    workers = _check_count(workers, "workers")
    curves = _curves(spec)
    labels = [label for group, *_ in curves for label in group]
    threads = min(workers, os.cpu_count() or 1, spec.trials)
    n = max(-(-spec.trials // max(1, BLOCK_ENTRIES // _entries_per_trial(spec))), threads)
    size, extra = divmod(spec.trials, n)
    bounds = ((i * size + min(i, extra), (i + 1) * size + min(i + 1, extra)) for i in range(n))
    first = None
    total, shift, shift_sq, row = np.zeros((4, len(labels), len(spec.axis)))

    def fold(sums, values):
        # one sequential pass over the rows, the running sums added into
        # row 0 first; row 0, kept aside in ``row``, is then restored
        row[:] = values[0]
        values[0] += sums
        np.add.reduce(values, axis=0, out=sums)
        values[0] = row

    for values in _finished_blocks(spec, curves, bounds, threads):
        if first is None:
            first = values[0].copy()
        fold(total, values)
        values -= first
        fold(shift, values)
        fold(shift_sq, np.square(values, out=values))

    means = total / spec.trials
    if spec.trials > 1:
        var = np.maximum(shift_sq - shift * shift / spec.trials, 0.0) / (spec.trials - 1)
        errs = np.sqrt(var) / math.sqrt(spec.trials)
    else:
        errs = np.zeros_like(means)
    return SweepTable(spec.figure_id, labels, spec.axis, means, errs, spec.trials, spec.seed)


def csv_text(table: SweepTable) -> str:
    """CSV rendering of a sweep table, one row per ``CurvePoint`` in its
    iteration order; identical inputs give identical bytes."""
    tail = ",%s,%s\n" % (table.trials, table.seed)
    xs = ["%.12g" % x for x in table.axis]
    rows = ["figure,curve,x,mean,std_err,trials,seed\n"]
    for label, means, errs in zip(table.labels, table.means.tolist(), table.std_errs.tolist()):
        lead = "%s,%s," % (table.figure_id, label)
        rows += ["%s%s,%.12g,%.12g%s" % (lead, x, m, e, tail) for x, m, e in zip(xs, means, errs)]
    return "".join(rows)


def emit_csv(table: SweepTable, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(csv_text(table))

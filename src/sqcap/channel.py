"""Channel matrices and counter-based ensemble draws.

A receiver observes W = H X + Z with H a real n_rx x n_tx matrix.
``ChannelMatrix`` validates H (finite entries, full rank) and keeps its
gains, the squared singular values; the bound families in ``bounds`` read
the entries or the gains and never factorize a channel themselves.  One
spectrum kernel, ``_prefix_gains``, gives the gains and the rank verdict of
``ChannelMatrix`` and of every row prefix a matrix sweep evaluates, at every
width: the eigenvalues of the running sums of row outer products that
``_gram_rows`` forms, by cyclic Jacobi rotations up to ``_JACOBI_MAX_DIM``
transmit antennas (elementwise passes over a sweep block's whole stack, or
Python floats for one matrix, with the same bits) and by one ``eigvalsh``
fallback, ``_gram_eigvalsh``, past it and for what the rotations leave
unconverged, with the SVD kept only for the ill-conditioned prefixes a Gram
matrix cannot resolve.  The gains come subchannel-major at every width.

Ensemble draws are counter based: trial ``k`` of seed ``s`` always comes from
the Philox stream keyed by (s, k), and normal variates are produced by the
inverse CDF applied to 53-bit uniforms, so a draw is reproducible bit for bit
regardless of platform, thread count, or evaluation order.  A sweep block
draws all its trials' streams in one pass: one generator re-keyed per
stream, then one shift, offset and inverse-CDF step over the whole block,
with the same bits as one :func:`gaussian_draw` per stream.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import copysign, sqrt

import numpy as np

from ._validate import _check_count, _check_seed, _frozen

__all__ = [
    "ChannelEnsembleSpec",
    "ChannelMatrix",
    "RANK_TOL",
    "RankDeficientError",
    "draw_channel",
    "gaussian_draw",
]

#: Relative singular-value threshold below which a draw counts as rank deficient.
RANK_TOL = 1e-10

# Counter blocks a draw may try before giving up on a full-rank channel.
_DRAW_ATTEMPTS = 8

# Words ``_uniforms`` converts per step: a slice's temporary, if numpy makes
# one, stays at 512 KB, and a dithered estimate's draw is one slice.
_UNIFORM_SLICE = 1 << 16

# Smallest eigenvalue ratio of a Gram matrix trusted as full rank.  Its
# eigenvalues carry absolute errors near 1e-16 of the largest, so RANK_TOL
# squared (1e-20) is out of reach; a prefix at or below this ratio takes the
# SVD, which then decides its rank and gains.
_GRAM_RATIO = 1e-6

# Largest Gram matrix whose spectrum the cyclic Jacobi kernel computes; a
# larger one takes ``eigvalsh``, which is faster from there on (for 9200
# Gram matrices, Gram sums included, on a 2-core Xeon: 16 ms against 23 ms
# at size 6, 32 ms against 29 ms at 7, 57 ms against 36 ms at 8).
_JACOBI_MAX_DIM = 6

# Cyclic Jacobi sweeps per spectrum.  Convergence is quadratic once the
# off-diagonal entries are small: after 5 sweeps all but about 1 in 120 Gram
# matrices of 5-column Gaussian draws (1 in 11 at 6 columns) are at
# round-off level, and the rest take ``eigvalsh``.
_JACOBI_SWEEPS = 5

# Traces of the Gram matrices the Jacobi kernel serves: inside this range no
# square it forms overflows, and an underflow moves no eigenvalue by eps of
# the trace; outside it the matrix takes ``eigvalsh``.
_JACOBI_TRACE = (2.0**-450, 2.0**450)

_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)


class RankDeficientError(ValueError):
    """A channel matrix failed the full-rank test relative to ``RANK_TOL``."""


@dataclass(frozen=True, eq=False)
class ChannelMatrix:
    """Real channel matrix with receive antennas on rows.

    Entries must be finite and the matrix must have full rank relative to
    ``RANK_TOL``.  ``gains`` holds the min(n_rx, n_tx) squared singular
    values, nonincreasing and read-only: the nonzero eigenvalues of H H^T,
    from the spectrum kernel the matrix sweeps share, so a sweep's gains at
    a grid point equal those of ``ChannelMatrix`` on the same prefix bit for
    bit.  ``provenance`` optionally records how the draw was made (seed,
    trial index, redraw count).
    """

    entries: np.ndarray
    provenance: dict | None = None
    gains: np.ndarray = field(init=False)

    def __post_init__(self):
        arr = _frozen(self.entries)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"channel matrix must be 2-D and nonempty, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("channel matrix entries must be finite")
        gains, full = _prefix_gains(arr[None], (arr.shape[0],))
        gains = gains[0, 0, : min(arr.shape)]
        if not full[0]:
            # the SVD that decided it names the singular values, whose
            # squares may overflow
            s = np.linalg.svd(arr, compute_uv=False)
            raise RankDeficientError(
                f"channel matrix is rank deficient: min/max singular value "
                f"{s[-1]:.3e}/{s[0]:.3e}"
            )
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "gains", _frozen(gains))

    @classmethod
    def _screened(cls, entries: np.ndarray, gains: np.ndarray, provenance: dict) -> "ChannelMatrix":
        """The matrix of a draw that ``_full_rank_rows`` already passed: its
        entries are finite and of full rank, and ``gains`` is the spectrum
        kernel's result for them, so the kernel does not run twice.
        """
        cm = object.__new__(cls)
        object.__setattr__(cm, "entries", _frozen(entries))
        object.__setattr__(cm, "provenance", provenance)
        object.__setattr__(cm, "gains", _frozen(gains))
        return cm

    @property
    def n_rx(self) -> int:
        return self.entries.shape[0]

    @property
    def n_tx(self) -> int:
        return self.entries.shape[1]

    def to_json(self) -> str:
        payload = {
            "n_rx": self.n_rx,
            "n_tx": self.n_tx,
            "entries": [float(v) for v in self.entries.reshape(-1)],
            "provenance": self.provenance,
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "ChannelMatrix":
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError(f"channel JSON must be an object, got {type(payload).__name__}")
        try:
            n_rx = _check_count(payload["n_rx"], "n_rx")
            n_tx = _check_count(payload["n_tx"], "n_tx")
            entries = np.asarray(payload["entries"], dtype=np.float64)
        except KeyError as exc:
            raise ValueError(f"channel JSON is missing key {exc.args[0]!r}") from None
        except TypeError as exc:
            raise ValueError(f"malformed channel JSON: {exc}") from None
        if entries.size != n_rx * n_tx:
            raise ValueError(
                f"entry count {entries.size} does not match shape {n_rx}x{n_tx}"
            )
        return cls(entries.reshape(n_rx, n_tx), payload.get("provenance"))


def _prefix_gains(h: np.ndarray, counts) -> tuple:
    """Gains of the row prefixes ``h[:, :x]`` of stacked matrices, for every
    ``x`` in the increasing ``counts``, and the full-rank verdict.

    ``h`` has shape (trials, rows, n_tx).  Returns ``(gains, full)``:
    ``gains[t, i]`` holds trial t's nonincreasing squared singular values of
    prefix i, then exact zeros to n_tx (the eigenvalues of H[:x]^T H[:x] past
    its rank), and ``full[t]`` is True where every prefix has full rank.

    Every prefix, wide or tall, takes its gains from the eigenvalues of its
    Gram matrix H[:x]^T H[:x], which :func:`_gram_rows` forms for every
    stack (``sweeps.BLOCK_ENTRIES`` bounds it): by the cyclic Jacobi kernel
    up to ``_JACOBI_MAX_DIM`` columns, on Python floats for a one-matrix
    stack and as array passes over the stack otherwise, with the same bits
    either way, and by ``eigvalsh`` past it.  A wide prefix's eigenvalues
    past its x rows are set to exact zeros.  A prefix whose smallest
    unpadded gain is at most ``_GRAM_RATIO`` times its largest takes the
    SVD, which decides its rank as ``ChannelMatrix`` always has and gives
    its gains.  Each step acts on one matrix at a time, so a trial's gains
    do not depend on the stack it sits in.
    """
    trials, _, n_tx = h.shape
    if trials * len(counts) == 1 and n_tx <= _JACOBI_MAX_DIM:
        gains = np.array(_jacobi_floats(_gram_rows(h, counts)[:, 0].tolist(), n_tx))[None, None]
    else:
        gains = _jacobi_gains(h, counts)
    gains[:, np.arange(n_tx) >= np.asarray(counts)[:, None]] = 0.0
    smallest = gains[:, range(len(counts)), np.minimum(counts, n_tx) - 1]
    weak = ~(smallest > _GRAM_RATIO * gains[..., 0])
    full = np.ones(trials, dtype=bool)
    for t, i in zip(*np.nonzero(weak)):
        s = np.linalg.svd(h[t, : counts[i]], compute_uv=False)
        with np.errstate(over="ignore"):  # past 1e154 the square is inf, as in the Gram
            gains[t, i, : s.size] = s * s
        full[t] &= s[-1] > RANK_TOL * s[0]
    return gains, full


def _upper(n: int) -> list:
    """The entries (p, q), p <= q, of an n x n symmetric matrix's upper
    triangle in row order: the slots the Gram rows hold it in."""
    return [(p, q) for p in range(n) for q in range(p, n)]


def _slots(n: int) -> list:
    """The n x n table, as nested lists, of the slot of :func:`_upper` that
    holds each entry (p, q) of a symmetric matrix."""
    slot = [[0] * n for _ in range(n)]
    for k, (p, q) in enumerate(_upper(n)):
        slot[p][q] = slot[q][p] = k
    return slot


def _jacobi_rotations(n: int) -> list:
    """The rotations of one cyclic Jacobi sweep over the slots of
    :func:`_upper`, the pairs p < q in row order: the slots of a_pp, a_qq
    and a_pq, and those of (a_op, a_oq) for every other index o."""
    slot = _slots(n)
    return [(slot[p][p], slot[q][q], slot[p][q],
             [(slot[o][p], slot[o][q]) for o in range(n) if o != p and o != q])
            for p in range(n) for q in range(p + 1, n)]


def _gram_rows(h: np.ndarray, counts) -> np.ndarray:
    """The upper-triangle entries of the Gram matrices H[:x]^T H[:x] of every
    trial and count, one row per slot of :func:`_upper`: shape (slots,
    len(counts) * trials), count-major.  Each entry is a running sum of row
    products in row order, from 0.0; an entry past 1e154 squares to inf."""
    trials, _, n = h.shape
    ps, qs = np.array(_upper(n)).T
    # rows by column by trial, so each product of two columns is contiguous
    ht = np.ascontiguousarray(h.transpose(1, 2, 0))
    out = np.empty((ps.size, len(counts), trials))
    run = np.zeros((ps.size, trials))
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (start, x) in enumerate(zip((0, *counts), counts)):
            for r in range(start, x):
                run += ht[r, ps] * ht[r, qs]
            out[:, i] = run
    return out.reshape(ps.size, -1)


def _gram_eigvalsh(gram: np.ndarray, n: int) -> np.ndarray:
    """The nonincreasing eigenvalues, by ``eigvalsh``, of the n x n Gram
    matrices whose :func:`_upper` entries are the columns of ``gram``, as
    :func:`_gram_rows` lays them out: shape (columns, n).  One gather
    through the slot table of :func:`_slots` builds the symmetric matrices."""
    return np.linalg.eigvalsh(gram[np.array(_slots(n))].transpose(2, 0, 1))[:, ::-1]


def _jacobi_floats(a: list, n: int) -> list:
    """The nonincreasing eigenvalues of the Gram matrix whose :func:`_upper`
    entries are the list ``a`` of floats, a column of :func:`_gram_rows`,
    by the cyclic Jacobi kernel on Python floats.

    Each step is the IEEE-rounded operation of the same step of
    :func:`_jacobi_gains`, in the same order, so the two give the same
    bits, an unconverged or out-of-range Gram's included.
    """
    upper = _upper(n)
    gram, a, rotations = a, a.copy(), _jacobi_rotations(n)
    for _ in range(_JACOBI_SWEEPS):
        for pp, qq, pq, others in rotations:
            app, aqq, apq = a[pp], a[qq], a[pq]
            d = aqq - app
            t = apq + apq
            t = t / (copysign(sqrt(d * d + t * t + _TINY), d) + d)
            c = 1.0 / sqrt(t * t + 1.0)
            ta = t * apq
            a[pp], a[qq], a[pq] = app - ta, aqq + ta, 0.0
            for op, oq in others:
                x, y = a[op], a[oq]
                a[op], a[oq] = (x - t * y) * c, (y + t * x) * c
    trace = off = 0.0
    for k, (p, q) in enumerate(upper):
        if p == q:
            trace += a[k]
        else:
            off += abs(a[k])
    if off <= trace * _EPS and _JACOBI_TRACE[0] <= trace <= _JACOBI_TRACE[1]:
        return sorted((a[k] for k, (p, q) in enumerate(upper) if p == q), reverse=True)
    return _gram_eigvalsh(np.array(gram)[:, None], n)[0].tolist()


def _jacobi_gains(h: np.ndarray, counts) -> np.ndarray:
    """The nonincreasing Gram eigenvalues of every trial and count, shape
    (trials, len(counts), n_tx): the transpose of a C-contiguous (n_tx,
    trials, len(counts)) array, the subchannel-major layout the
    water-filling reads.

    The Gram matrices' upper-triangle entries are the rows of
    :func:`_gram_rows`, an entry of every matrix of the stack in each
    contiguous row, so up to ``_JACOBI_MAX_DIM`` columns each step of a
    rotation is one elementwise pass over the stack.  ``_JACOBI_SWEEPS``
    cyclic sweeps rotate every pair p < q in row order by the smaller angle
    that zeroes a_pq, of tangent t = 2 a_pq / (d + sign(d) sqrt(d^2 +
    4 a_pq^2)), d = a_qq - a_pp (Golub & Van Loan, Matrix Computations,
    sec. 8.5).  The smallest normal float added under that square root
    leaves every sum from 2^-969 on as it is and keeps |t| <= 1 where the
    squares underflow.  The sorted diagonals are the eigenvalues once the
    off-diagonal |a_pq| sum to at most eps times the trace: each is then
    within sqrt(2) eps times the trace of an eigenvalue (Weyl).  A matrix
    short of that, or whose trace is outside ``_JACOBI_TRACE`` (a
    non-finite Gram's too), takes :func:`_gram_eigvalsh` of its Gram
    matrix, a copy of which is kept for them, as every matrix does past
    ``_JACOBI_MAX_DIM`` columns, where no rotation runs; at most as many
    at a time as the stack has trials.  Every step is an IEEE-rounded +, -,
    *, /, sqrt or copysign, or an exact min or max, so
    :func:`_jacobi_floats` gives the same bits.
    """
    trials, _, n = h.shape
    gram = _gram_rows(h, counts)
    if n > _JACOBI_MAX_DIM:
        gains = np.empty((n, trials, len(counts)))
        rest = np.arange(gram.shape[1])
    else:
        # rotating the built rows and allocating the gains last lets the next
        # block reuse this one's heap (other orders page-faulted up to 2 MB)
        upper = _upper(n)
        a, gram = gram, gram.copy()
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite Gram takes eigvalsh
            d, r, t, c = np.empty((4, a.shape[1]))
            rotations = _jacobi_rotations(n)
            for _ in range(_JACOBI_SWEEPS):
                for pp, qq, pq, others in rotations:
                    app, aqq, apq = a[pp], a[qq], a[pq]
                    np.subtract(aqq, app, out=d)
                    np.add(apq, apq, out=t)
                    np.multiply(d, d, out=r)
                    np.multiply(t, t, out=c)
                    r += c
                    r += _TINY
                    np.sqrt(r, out=r)
                    np.copysign(r, d, out=r)
                    r += d
                    t /= r
                    np.multiply(t, t, out=c)
                    c += 1.0
                    np.sqrt(c, out=c)
                    np.divide(1.0, c, out=c)
                    np.multiply(t, apq, out=r)
                    app -= r
                    aqq += r
                    apq.fill(0.0)
                    for op, oq in others:
                        x, y = a[op], a[oq]
                        np.multiply(t, y, out=d)
                        np.multiply(t, x, out=r)
                        x -= d
                        x *= c
                        y += r
                        y *= c
            trace, off = d, r
            trace.fill(0.0)
            off.fill(0.0)
            for k, (p, q) in enumerate(upper):
                if p == q:
                    trace += a[k]
                else:
                    off += np.abs(a[k], out=c)
            np.multiply(trace, _EPS, out=c)
            done = off <= c
            done &= trace >= _JACOBI_TRACE[0]
            done &= trace <= _JACOBI_TRACE[1]
        # an insertion network sorts the diagonals ascending, each step an
        # exact min and max, and the gains take them in reverse
        diag = [a[k] for k, (p, q) in enumerate(upper) if p == q]
        for i in range(1, n):
            for j in range(i, 0, -1):
                np.minimum(diag[j - 1], diag[j], out=c)
                np.maximum(diag[j - 1], diag[j], out=diag[j])
                diag[j - 1][:] = c
        gains = np.empty((n, trials, len(counts)))
        for j in range(n):
            gains[j] = diag[n - 1 - j].reshape(len(counts), trials).T
        del a, diag, d, r, t, c, trace, off
        rest = np.flatnonzero(~done)
    gains = gains.transpose(1, 2, 0)
    for start in range(0, rest.size, trials):
        cols = rest[start : start + trials]
        i, j = np.divmod(cols, trials)
        gains[j, i] = _gram_eigvalsh(gram[:, cols], n)
    return gains


@dataclass(frozen=True)
class ChannelEnsembleSpec:
    """IID standard Gaussian channel ensemble with counter-based streams."""

    n_rx: int
    n_tx: int
    seed: int
    trials: int = 1

    def __post_init__(self):
        for name in ("n_rx", "n_tx", "trials"):
            object.__setattr__(self, name, _check_count(getattr(self, name), name))
        object.__setattr__(self, "seed", _check_seed(self.seed))


def gaussian_draw(seed: int, stream: int, shape, counter_block: int = 0) -> np.ndarray:
    """Standard normal variates from the Philox stream keyed by (seed, stream).

    Uniforms are 53-bit offsets (k + 0.5) / 2**53, strictly inside (0, 1),
    mapped through the inverse normal CDF.  The same arguments always yield
    the same bits on every platform.  ``counter_block`` selects a disjoint
    block of the same stream, for deterministic redraws.
    """
    return _gaussian_rows(seed, (stream,), shape, counter_block)[0]


def _gaussian_rows(seed: int, streams, shape, counter_block: int = 0) -> np.ndarray:
    """:func:`gaussian_draw` of every stream in ``streams``, stacked on a new
    first axis: row ``r`` holds the bits ``gaussian_draw(seed, streams[r],
    shape, counter_block)`` returns.

    One Philox generator serves all rows, keyed per stream through its state
    setter, and the shift, the uniform offsets and ``ndtri`` each run once
    over the block.  Every stream must be a key word, an integer in [0,
    2**64): a ``range``, as a sweep block passes, by its ends, and any other
    sequence one by one.
    """
    seed = _check_seed(seed)
    if not isinstance(streams, range):
        streams = [_check_seed(stream, "stream") for stream in streams]
    elif streams:
        for end in (streams[0], streams[-1]):
            _check_seed(end, "stream")
    shape = tuple(shape) if np.iterable(shape) else (shape,)
    raw = np.empty((len(streams),) + shape, dtype=np.uint64)
    bits = np.random.Philox(key=seed)
    # the state setter reads plain ints: re-keying costs far less than
    # building a generator per stream, and one state serves every stream,
    # only its key's stream word rewritten (the buffer is empty, at
    # position 4, so its words are never read)
    state, key = bits.state, [seed, 0]
    state["state"] = {"counter": [0, 0, 0, counter_block], "key": key}
    state["buffer"] = [0, 0, 0, 0]
    for row, stream in enumerate(streams):
        key[1] = stream
        bits.state = state
        raw[row] = bits.random_raw(shape)
    u = _uniforms(raw)
    from scipy import special

    return special.ndtri(u, out=u)


def _uniforms(raw: np.ndarray) -> np.ndarray:
    """The 53-bit uniforms (k + 0.5) / 2**53 of raw Philox words, strictly
    inside (0, 1), where k is the top 53 bits of each word: what
    ``Generator.integers(0, 2**53)`` returns, since Lemire's method over a
    power-of-two range never rejects.  Converts the C-contiguous ``raw`` in
    place, ``_UNIFORM_SLICE`` words at a time, and returns it viewed as
    float64, so the draw is held once.
    """
    np.right_shift(raw, np.uint64(11), out=raw)
    # k < 2**53 reads the same as int64, which converts faster than uint64
    words = raw.reshape(-1).view(np.int64)
    floats = words.view(np.float64)
    for s in range(0, words.size, _UNIFORM_SLICE):
        floats[s : s + _UNIFORM_SLICE] = words[s : s + _UNIFORM_SLICE]
    u = raw.view(np.float64)
    u += 0.5
    u *= 2.0**-53
    return u


def _full_rank_rows(seed: int, streams, shape, counts) -> tuple:
    """:func:`_gaussian_rows` of ``streams`` with every rank-deficient draw
    redrawn, and the gains array ``_prefix_gains`` gives for the row
    prefixes at the increasing row ``counts``.

    Attempt ``a`` redraws only the streams still pending, whole, from
    counter block ``a`` of each stream (so prefixes stay nested), and
    reruns the spectrum kernel over the stack.  Returns ``(draws, gains,
    redraws)``, with ``redraws[r]`` the counter block row ``r`` came from.
    """
    h = _gaussian_rows(seed, streams, shape)
    redraws = np.zeros(len(streams), dtype=np.int64)
    for attempt in range(_DRAW_ATTEMPTS):
        if attempt:
            pending = np.flatnonzero(~full)
            h[pending] = _gaussian_rows(seed, [streams[r] for r in pending], shape, attempt)
            redraws[pending] = attempt
        gains, full = _prefix_gains(h, counts)
        if full.all():
            return h, gains, redraws
    raise RuntimeError(
        f"no full-rank channel after {_DRAW_ATTEMPTS} attempts in trial "
        f"{streams[np.flatnonzero(~full)[0]]}"
    )


def draw_channel(spec: ChannelEnsembleSpec, trial_index: int) -> ChannelMatrix:
    """Deterministic per-trial channel draw with full-rank rejection.

    The draw is :func:`gaussian_draw` on stream ``trial_index``, redrawn by
    :func:`_full_rank_rows` from the next counter block while it is rank
    deficient (relative tolerance ``RANK_TOL``); the redraw count is kept
    in the returned matrix's provenance, and its gains are those of the
    redraw kernel's last rank test.
    """
    if not 0 <= trial_index < spec.trials:
        raise ValueError(f"trial_index {trial_index} outside [0, {spec.trials})")
    shape = (spec.n_rx, spec.n_tx)
    (h,), gains, (redraws,) = _full_rank_rows(spec.seed, (trial_index,), shape, (spec.n_rx,))
    provenance = {"seed": int(spec.seed), "trial_index": int(trial_index), "redraws": int(redraws)}
    return ChannelMatrix._screened(h, gains[0, 0, : min(shape)], provenance)

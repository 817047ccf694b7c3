"""Channel matrices and counter-based ensemble draws.

A receiver observes W = H X + Z with H a real n_rx x n_tx matrix.
``ChannelMatrix`` validates H (finite entries, full rank) and keeps its
gains, the squared singular values; the bound families in ``bounds`` read
the entries or the gains and never factorize a channel themselves.  One
spectrum kernel, ``_prefix_gains``, gives the gains and the rank verdict of
``ChannelMatrix`` and of every row prefix a matrix sweep evaluates: the
eigenvalues of running sums of row outer products, with the SVD kept only
for the ill-conditioned prefixes a Gram matrix cannot resolve.

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
            # rank deficient prefixes keep the squared singular values of
            # the fallback SVD
            low, high = np.sqrt(gains[[-1, 0]])
            raise RankDeficientError(
                f"channel matrix is rank deficient: min/max singular value "
                f"{low:.3e}/{high:.3e}"
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

    Every prefix, wide or tall, takes its gains from one stacked ``eigvalsh``
    of the running sums of row outer products H[:x]^T H[:x], kept at each
    count (``sweeps.BLOCK_ENTRIES`` bounds the stack); a wide prefix's
    eigenvalues past its x rows are set to exact zeros.  A prefix whose
    smallest unpadded gain is at most ``_GRAM_RATIO`` times its largest
    takes the SVD, which decides its rank as ``ChannelMatrix`` always has
    and gives its gains.  Each step acts on one matrix at a time, so a
    trial's gains do not depend on the stack it sits in.
    """
    trials, _, n_tx = h.shape
    gram = np.zeros((trials, n_tx, n_tx))
    grams = np.empty((trials, len(counts), n_tx, n_tx))
    for i, (start, x) in enumerate(zip((0, *counts), counts)):
        for r in range(start, x):
            gram += h[:, r, :, None] * h[:, r, None, :]
        grams[:, i] = gram
    gains = np.ascontiguousarray(np.linalg.eigvalsh(grams)[..., ::-1])
    gains[:, np.arange(n_tx) >= np.asarray(counts)[:, None]] = 0.0
    smallest = gains[:, range(len(counts)), np.minimum(counts, n_tx) - 1]
    weak = ~(smallest > _GRAM_RATIO * gains[..., 0])
    full = np.ones(trials, dtype=bool)
    for t, i in zip(*np.nonzero(weak)):
        s = np.linalg.svd(h[t, : counts[i]], compute_uv=False)
        gains[t, i, : s.size] = s * s
        full[t] &= s[-1] > RANK_TOL * s[0]
    return gains, full


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
    over the block.
    """
    seed = _check_seed(seed)
    shape = tuple(shape) if np.iterable(shape) else (shape,)
    raw = np.empty((len(streams),) + shape, dtype=np.uint64)
    bits = np.random.Philox(key=seed)
    # the state setter reads plain ints: re-keying costs far less than
    # building a generator per stream
    state = bits.state
    for row, stream in enumerate(streams):
        key = [seed, _check_seed(stream, "stream")]
        state["state"] = {"counter": [0, 0, 0, counter_block], "key": key}
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

"""Channel matrices, analog front-end configurations, and ensemble draws.

A receiver observes W = H X + Z through a bank of sign comparators: each
comparator j outputs +1 when (V W)_j >= t_j and -1 otherwise (ties count as
+1).  The rows of V encode which analog front end feeds each comparator and
``Architecture`` names the four supported front ends:

* ``sign-select``: each row of V picks one antenna, all levels are zero.
* ``single-select``: every row picks the same antenna, levels are free.
* ``multi-select``: each row picks one antenna (repeats allowed), levels free.
* ``linear-combine``: V is unrestricted.

Ensemble draws are counter based: trial ``k`` of seed ``s`` always comes from
the Philox stream keyed by (s, k), and normal variates are produced by the
inverse CDF applied to 53-bit uniforms, so a draw is reproducible bit for bit
regardless of platform, thread count, or evaluation order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import special

__all__ = [
    "Architecture",
    "ChannelEnsembleSpec",
    "ChannelMatrix",
    "QuantizerConfig",
    "RANK_TOL",
    "RankDeficientError",
    "SpectralDecomposition",
    "decompose",
    "draw_channel",
    "gaussian_draw",
    "random_config",
    "sign_quantize",
]

#: Relative singular-value threshold below which a draw counts as rank deficient.
RANK_TOL = 1e-10

_DECOMP_TOL = 1e-10

# Counter blocks a draw may try before giving up on a full-rank channel.
_DRAW_ATTEMPTS = 8


class RankDeficientError(ValueError):
    """A channel matrix failed the full-rank test relative to ``RANK_TOL``."""


class Architecture(str, Enum):
    SIGN_SELECT = "sign-select"
    SINGLE_SELECT = "single-select"
    MULTI_SELECT = "multi-select"
    LINEAR_COMBINE = "linear-combine"


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ChannelMatrix:
    """Real channel matrix with receive antennas on rows.

    Entries must be finite and the matrix must have full rank relative to
    ``RANK_TOL``.  ``provenance`` optionally records how the draw was made
    (seed, trial index, redraw count).
    """

    entries: np.ndarray
    provenance: dict | None = None

    def __post_init__(self):
        arr = _frozen_array(self.entries)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"channel matrix must be 2-D and nonempty, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("channel matrix entries must be finite")
        svals = np.linalg.svd(arr, compute_uv=False)
        if svals[-1] <= RANK_TOL * svals[0]:
            raise RankDeficientError(
                f"channel matrix is rank deficient: min/max singular value "
                f"{svals[-1]:.3e}/{svals[0]:.3e}"
            )
        object.__setattr__(self, "entries", arr)

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
            n_rx, n_tx = int(payload["n_rx"]), int(payload["n_tx"])
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


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Singular-value decomposition H = U diag(s) Vt with s nonincreasing.

    ``gains`` are the squared singular values, i.e. the eigenvalues of H H^T
    restricted to its row space.
    """

    left: np.ndarray
    singular_values: np.ndarray
    right: np.ndarray
    gains: np.ndarray

    def __post_init__(self):
        for name in ("left", "singular_values", "right", "gains"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))
        s = self.singular_values
        if np.any(np.diff(s) > 0):
            raise ValueError("singular values must be nonincreasing")
        if np.any(s <= 0):
            raise ValueError("singular values must be positive for a full-rank channel")
        if not np.allclose(self.gains, s * s, rtol=1e-12, atol=0):
            raise ValueError("gains must equal squared singular values")


def decompose(channel: ChannelMatrix) -> SpectralDecomposition:
    """Economy SVD of the channel with orthonormality and reconstruction checks."""
    h = channel.entries
    u, s, vt = np.linalg.svd(h, full_matrices=False)
    scale = np.linalg.norm(h)
    err = np.linalg.norm(h - (u * s) @ vt)
    if err > _DECOMP_TOL * scale:
        raise ValueError(f"decomposition residual {err:.3e} exceeds {_DECOMP_TOL:.1e} relative")
    r = s.size
    for f, n in ((u, "left"), (vt.T, "right")):
        gram = f.T @ f
        if np.max(np.abs(gram - np.eye(r))) > _DECOMP_TOL:
            raise ValueError(f"{n} factor is not orthonormal within {_DECOMP_TOL:.1e}")
    return SpectralDecomposition(u, s, vt, s * s)


@dataclass(frozen=True, eq=False)
class QuantizerConfig:
    """Comparator bank: outputs sign(V w - t) with sign(0) = +1."""

    combining: np.ndarray
    thresholds: np.ndarray
    architecture: Architecture

    def __post_init__(self):
        v = _frozen_array(self.combining)
        t = _frozen_array(self.thresholds)
        arch = Architecture(self.architecture)
        if v.ndim != 2:
            raise ValueError(f"combining matrix must be 2-D, got shape {v.shape}")
        if t.shape != (v.shape[0],):
            raise ValueError(
                f"thresholds must have one entry per comparator, got {t.shape} for {v.shape[0]} rows"
            )
        if not (np.all(np.isfinite(v)) and np.all(np.isfinite(t))):
            raise ValueError("combining matrix and thresholds must be finite")
        if arch is not Architecture.LINEAR_COMBINE:
            one_hot = (v == 1.0).sum(axis=1) == 1
            zeros = (v == 0.0).sum(axis=1) == v.shape[1] - 1
            if not np.all(one_hot & zeros):
                raise ValueError(f"{arch.value} needs one-hot rows selecting a single antenna")
            cols = np.argmax(v, axis=1)
            if arch is Architecture.SIGN_SELECT:
                if np.any(t != 0.0):
                    raise ValueError("sign-select uses zero thresholds")
                if np.unique(cols).size != v.shape[0]:
                    raise ValueError("sign-select rows must pick distinct antennas")
            if arch is Architecture.SINGLE_SELECT and np.unique(cols).size != 1:
                raise ValueError("single-select rows must all pick the same antenna")
        object.__setattr__(self, "combining", v)
        object.__setattr__(self, "thresholds", t)
        object.__setattr__(self, "architecture", arch)

    @property
    def n_comparators(self) -> int:
        return self.combining.shape[0]

    @property
    def n_rx(self) -> int:
        return self.combining.shape[1]


def sign_quantize(config: QuantizerConfig, antenna_out: np.ndarray) -> np.ndarray:
    """Comparator outputs, +1 where (V w)_j >= t_j and -1 otherwise."""
    w = np.asarray(antenna_out, dtype=np.float64)
    if w.shape != (config.n_rx,):
        raise ValueError(f"antenna output must have shape ({config.n_rx},), got {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("antenna output must be finite")
    z = config.combining @ w - config.thresholds
    return np.where(z >= 0.0, 1, -1).astype(np.int8)


@dataclass(frozen=True)
class ChannelEnsembleSpec:
    """IID standard Gaussian channel ensemble with counter-based streams."""

    n_rx: int
    n_tx: int
    seed: int
    trials: int = 1

    def __post_init__(self):
        if self.n_rx < 1 or self.n_tx < 1:
            raise ValueError(f"ensemble dimensions must be positive, got {self.n_rx}x{self.n_tx}")
        if self.trials < 1:
            raise ValueError(f"ensemble trials must be positive, got {self.trials}")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError(f"seed must fit in uint64, got {self.seed}")


def gaussian_draw(seed: int, stream: int, shape, counter_block: int = 0) -> np.ndarray:
    """Standard normal variates from the Philox stream keyed by (seed, stream).

    Uniforms are 53-bit offsets (k + 0.5) / 2**53, strictly inside (0, 1),
    mapped through the inverse normal CDF.  The same arguments always yield
    the same bits on every platform.  ``counter_block`` selects a disjoint
    block of the same stream, for deterministic redraws.
    """
    gen = np.random.Generator(
        np.random.Philox(
            key=np.array([seed, stream], dtype=np.uint64),
            counter=np.array([0, 0, 0, counter_block], dtype=np.uint64),
        )
    )
    k = gen.integers(0, 1 << 53, size=shape, dtype=np.int64)
    u = (k.astype(np.float64) + 0.5) * (2.0**-53)
    return special.ndtri(u)


def draw_channel(spec: ChannelEnsembleSpec, trial_index: int) -> ChannelMatrix:
    """Deterministic per-trial channel draw with full-rank rejection.

    The draw is :func:`gaussian_draw` on stream ``trial_index``.  A
    rank-deficient draw (relative tolerance ``RANK_TOL``) is redrawn from the
    next counter block of the same stream; the redraw count is kept in the
    returned matrix's provenance.
    """
    if not 0 <= trial_index < spec.trials:
        raise ValueError(f"trial_index {trial_index} outside [0, {spec.trials})")
    for block in range(_DRAW_ATTEMPTS):
        h = gaussian_draw(spec.seed, trial_index, (spec.n_rx, spec.n_tx), counter_block=block)
        provenance = {"seed": int(spec.seed), "trial_index": int(trial_index), "redraws": block}
        try:
            return ChannelMatrix(h, provenance=provenance)
        except RankDeficientError:
            continue
    raise RuntimeError(f"no full-rank draw after {_DRAW_ATTEMPTS} attempts for trial {trial_index}")


def random_config(
    architecture: Architecture, n_rx: int, n_sq: int, rng: np.random.Generator
) -> QuantizerConfig:
    """Random valid comparator bank for the given architecture (test helper)."""
    arch = Architecture(architecture)
    if n_rx < 1 or n_sq < 1:
        raise ValueError(f"need positive dimensions, got n_rx={n_rx} n_sq={n_sq}")
    t = rng.normal(size=n_sq)
    if arch is Architecture.LINEAR_COMBINE:
        v = rng.normal(size=(n_sq, n_rx))
        return QuantizerConfig(v, t, arch)
    v = np.zeros((n_sq, n_rx))
    if arch is Architecture.SINGLE_SELECT:
        cols = np.full(n_sq, rng.integers(n_rx))
    elif arch is Architecture.SIGN_SELECT:
        if n_sq > n_rx:
            raise ValueError(f"sign-select needs n_sq <= n_rx, got {n_sq} > {n_rx}")
        cols = rng.permutation(n_rx)[:n_sq]
        t = np.zeros(n_sq)
    else:
        cols = rng.integers(n_rx, size=n_sq)
    v[np.arange(n_sq), cols] = 1.0
    return QuantizerConfig(v, t, arch)

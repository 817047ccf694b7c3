"""Constructive transmit schemes: uniform PAM through midpoint thresholds,
and its dithered multi-antenna variant.

The single-antenna scheme sends M equiprobable PAM points meeting the power
budget with equality and spends M - 1 sign quantizers on the midpoints
between received points.  The multi-antenna scheme adds a uniform dither to
the constellation, selects the K strongest antennas, and spends M + 1
quantizers per selected antenna (the midpoints plus one threshold beyond
each end point), which makes the per-antenna quantization error uniform and
independent of the data.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from ._validate import _check_count, _check_seed, _frozen
from .bounds import _multi_select_flags
from .dmc import (
    InputDistribution,
    TransitionMatrix,
    _mi_bits,
    entropy_bits,
    mutual_information,
    quantizer_transition,
)

__all__ = [
    "DitheredSchemeParams",
    "PamScheme",
    "build_dithered_scheme",
    "build_pam_scheme",
    "dithered_mi_estimate",
    "pam_inner_rate",
    "pam_scheme_for_levels",
    "entropy_spotchecks",
]

_GRID_TOL = 1e-12
_POWER_RTOL = 1e-9
_MI_BATCHES = 10
_MAX_OUTPUT_CELLS = 10**6
_SAMPLES_PER_CELL = 50


def _uniform_grid(m: int, spacing: float) -> np.ndarray:
    return spacing * (np.arange(m) - (m - 1) / 2.0)


@dataclass(frozen=True, eq=False)
class PamScheme:
    """Uniform symmetric PAM constellation with its quantizer thresholds;
    its mean square is the power budget P."""

    m_levels: int
    points: np.ndarray
    spacing: float
    thresholds: np.ndarray
    power_budget: float

    def __post_init__(self):
        x = _frozen(self.points)
        t = _frozen(self.thresholds)
        m = _check_count(self.m_levels, "m_levels")
        if m < 2 or x.shape != (m,):
            raise ValueError(f"need at least 2 points matching m_levels, got {x.shape} for {m}")
        if not (self.spacing > 0 and math.isfinite(self.spacing)):
            raise ValueError(f"spacing must be positive and finite, got {self.spacing!r}")
        if not (self.power_budget > 0 and math.isfinite(self.power_budget)):
            raise ValueError(f"power budget must be positive, got {self.power_budget!r}")
        if np.any(np.abs(np.diff(x) - self.spacing) > _GRID_TOL):
            raise ValueError("points must be uniformly spaced by the stated spacing")
        if np.any(np.abs(x + x[::-1]) > _GRID_TOL * max(1.0, float(np.max(np.abs(x))))):
            raise ValueError("points must be symmetric about zero")
        if t.ndim != 1 or t.size < 1 or np.any(np.diff(t) <= 0):
            raise ValueError("thresholds must be a strictly increasing vector")
        mean_sq = float(np.mean(x * x))
        p = self.power_budget
        if abs(mean_sq - p) > _POWER_RTOL * p:
            raise ValueError(f"mean square power {mean_sq!r} does not match the budget {p!r}")
        object.__setattr__(self, "m_levels", m)
        object.__setattr__(self, "points", x)
        object.__setattr__(self, "thresholds", t)

    def to_json(self) -> str:
        return json.dumps(
            {
                "m_levels": self.m_levels,
                "spacing": self.spacing,
                "points": list(map(float, self.points)),
                "thresholds": list(map(float, self.thresholds)),
                "power_budget": self.power_budget,
                "quantizers_used": int(self.thresholds.size),
            }
        )


def pam_scheme_for_levels(m_levels: int, power: float) -> PamScheme:
    """M-point PAM meeting ``power`` exactly, with midpoint thresholds."""
    m = _check_count(m_levels, "m_levels")
    if m < 2:
        raise ValueError(f"need at least 2 levels, got {m_levels!r}")
    if not (power > 0 and math.isfinite(power)):
        raise ValueError(f"power must be positive and finite, got {power!r}")
    spacing = math.sqrt(12.0 * power / (m * m - 1.0))
    points = _uniform_grid(m, spacing)
    mids = 0.5 * (points[:-1] + points[1:])
    return PamScheme(m, points, spacing, mids, float(power))


def build_pam_scheme(power: float, n_sq: int) -> PamScheme:
    """Constellation size min(n_sq + 1, floor(sqrt(P))) under the P > 6 regime.

    The M - 1 midpoint thresholds may leave part of the quantizer budget
    idle; that is deliberate, the rate analysis only needs this M.
    """
    if not (math.isfinite(power) and power > 6):
        raise ValueError(f"power must be finite and exceed 6, got {power!r}")
    n = _check_count(n_sq, "n_sq")
    if n < 2:
        raise ValueError(f"need at least 2 sign quantizers, got {n_sq!r}")
    m = min(n + 1, math.floor(math.sqrt(power)))
    if m < 2:
        raise ValueError(f"constellation degenerates to {m} points at power {power!r}")
    return pam_scheme_for_levels(m, power)


def _pam_channel(scheme: PamScheme, gain: float) -> TransitionMatrix:
    """Cell transitions of the scheme at unit noise and the given gain.

    Thresholds are placed at the received (gain-scaled) midpoints.
    """
    if not (gain > 0 and math.isfinite(gain)):
        raise ValueError(f"gain must be positive and finite, got {gain!r}")
    return quantizer_transition(scheme.points, gain * scheme.thresholds, gain, 1.0)


def pam_inner_rate(scheme: PamScheme, gain: float) -> float:
    """Exact I(X; quantizer cell) in bits at unit noise and the given gain.

    Thresholds are placed at the received (gain-scaled) midpoints.
    """
    channel = _pam_channel(scheme, gain)
    return mutual_information(InputDistribution.uniform(scheme.m_levels), channel)


def entropy_spotchecks(scheme: PamScheme, gain: float) -> tuple[float, float]:
    """Output entropy H(cell) and the worst conditional entropy max_x H(cell | x).

    Both values are in bits.  For a scheme from ``build_pam_scheme`` at unit
    gain the second lies below its supremum at spacing 2 sqrt(3), 0.4968 bits
    (0.3444 nats), because M^2 <= P keeps the spacing above 2 sqrt(3).
    """
    channel = _pam_channel(scheme, gain)
    marginal = InputDistribution.uniform(scheme.m_levels).probs @ channel.probs
    h_out = entropy_bits(marginal)
    h_cond_max = max(entropy_bits(row) for row in channel.probs)
    return h_out, h_cond_max


@dataclass(frozen=True, eq=False)
class DitheredSchemeParams:
    """Dithered PAM over the K strongest antennas.

    Each selected antenna gets M + 1 thresholds: the gain-scaled midpoints
    plus one threshold half a step beyond each end point, so the quantizer
    cell index behaves like a uniform quantizer of the antenna output.
    ``effective_noise_bound`` is the variance of the equivalent additive
    noise after combining (at most 2 when every selected gain exceeds one).
    """

    selected_count: int
    m_levels: int
    spacing: float
    dither_width: float
    points: np.ndarray
    base_thresholds: np.ndarray
    antenna_thresholds: np.ndarray
    selected_gains: np.ndarray
    effective_noise_bound: float
    power_budget: float
    quantizer_budget: int
    flags: tuple = ()

    def __post_init__(self):
        k = _check_count(self.selected_count, "selected_count")
        m = _check_count(self.m_levels, "m_levels")
        if m < 3:
            raise ValueError(f"dithered scheme needs at least 3 levels, got {m}")
        if self.spacing != self.dither_width:
            raise ValueError("dither width must equal the constellation spacing")
        g = _frozen(self.selected_gains)
        if g.shape != (k,) or np.any(g <= 0) or np.any(np.diff(g) > 0):
            raise ValueError("selected gains must be positive and sorted nonincreasing")
        at = _frozen(self.antenna_thresholds)
        if at.shape != (k, m + 1):
            raise ValueError(f"need {k}x{m + 1} antenna thresholds, got {at.shape}")
        if np.any(np.diff(at, axis=1) <= 0):
            raise ValueError("antenna thresholds must be strictly increasing")
        if k * (m + 1) > self.quantizer_budget:
            raise ValueError(
                f"scheme uses {k * (m + 1)} sign quantizers, over budget {self.quantizer_budget}"
            )
        object.__setattr__(self, "points", _frozen(self.points))
        object.__setattr__(self, "base_thresholds", _frozen(self.base_thresholds))
        object.__setattr__(self, "antenna_thresholds", at)
        object.__setattr__(self, "selected_gains", g)

    @property
    def quantizers_used(self) -> int:
        return self.selected_count * (self.m_levels + 1)

    def to_json(self) -> str:
        return json.dumps(
            {
                "selected_count": self.selected_count,
                "m_levels": self.m_levels,
                "spacing": self.spacing,
                "dither_width": self.dither_width,
                "points": list(map(float, self.points)),
                "base_thresholds": list(map(float, self.base_thresholds)),
                "selected_gains": list(map(float, self.selected_gains)),
                "effective_noise_bound": self.effective_noise_bound,
                "power_budget": self.power_budget,
                "quantizer_budget": self.quantizer_budget,
                "quantizers_used": self.quantizers_used,
                "flags": list(self.flags),
            }
        )


def build_dithered_scheme(
    h, power: float, n_sq: int, k_select: int
) -> DitheredSchemeParams:
    """Size and place the dithered scheme on the K strongest antennas.

    Gains enter as absolute values (a sign flip at an antenna is invisible
    to the scheme).  The constellation size is
    floor(min(n_sq / K, ||h_K|| sqrt(P)) - 1), which keeps the budget
    K (M + 1) <= n_sq; below 3 levels the construction is rejected.
    """
    v = np.asarray(h, dtype=np.float64)
    if v.ndim != 1 or v.size < 1 or not np.all(np.isfinite(v)):
        raise ValueError(f"antenna gains must be a finite 1-D vector, got shape {v.shape}")
    if not (power > 0 and math.isfinite(power)):
        raise ValueError(f"power must be positive and finite, got {power!r}")
    n = _check_count(n_sq, "n_sq")
    k = _check_count(k_select, "k_select")
    if not k <= min(v.size, n):
        raise ValueError(
            f"k_select must lie in [1, min(n_antennas={v.size}, n_sq={n})], got {k_select!r}"
        )
    gains = np.sort(np.abs(v))[::-1][:k]
    if np.any(gains == 0):
        raise ValueError("selected antennas must have nonzero gain")
    norm = float(np.sqrt(np.sum(gains * gains)))
    m = math.floor(min(n / k, norm * math.sqrt(power)) - 1.0)
    if m < 3:
        raise ValueError(
            f"constellation would have {m} levels; needs at least 3 "
            f"(raise the budget or power, or lower k_select)"
        )
    spacing = math.sqrt(12.0 * power) / m
    points = _uniform_grid(m, spacing)
    base = spacing * (np.arange(m + 1) - m / 2.0)
    sq = gains * gains
    gamma = float((sq.sum() + (spacing**2 / 12.0) * np.sum(sq * sq)) / sq.sum() ** 2)
    return DitheredSchemeParams(
        k,
        m,
        spacing,
        spacing,
        points,
        base,
        gains[:, None] * base[None, :],
        gains,
        gamma,
        float(power),
        n,
        _multi_select_flags(gains, power, n),
    )


def _plugin_mi_bits(counts: np.ndarray) -> float:
    # mutual information of the empirical law; symbols never drawn and cells
    # never hit carry no mass
    n_x = counts.sum(axis=1)
    seen = n_x > 0
    rows = counts[seen][:, counts.sum(axis=0) > 0] / n_x[seen, None]
    return _mi_bits(n_x[seen] / n_x.sum(), rows)


def dithered_mi_estimate(
    params: DitheredSchemeParams, h, samples: int, seed: int
) -> tuple[float, float]:
    """Monte-Carlo estimate of I(symbol; quantizer cells) with its standard error.

    Draws the symbol, the dither, and per-antenna unit Gaussian noise from
    counter-based substreams (one per batch), builds the empirical joint
    histogram over the m_levels x (m_levels + 2)^K alphabet, and returns the
    pooled plug-in estimate with a batch-means standard error over 10
    batches.  Deterministic for a given seed on every platform.
    """
    v = np.asarray(h, dtype=np.float64)
    k = params.selected_count
    m = params.m_levels
    expect = np.sort(np.abs(v))[::-1][:k]
    if expect.shape != params.selected_gains.shape or np.any(
        np.abs(expect - params.selected_gains) > 1e-12
    ):
        raise ValueError("antenna gains do not match the gains the scheme was built for")
    n_cells = (m + 2) ** k
    if n_cells > _MAX_OUTPUT_CELLS:
        raise ValueError(f"output alphabet {n_cells} exceeds {_MAX_OUTPUT_CELLS}")
    total = _check_count(samples, "samples")
    seed = _check_seed(seed)
    if total < 10**4:
        raise ValueError(f"need at least 10^4 samples, got {samples!r}")
    if total < _SAMPLES_PER_CELL * n_cells:
        raise ValueError(
            f"need at least {_SAMPLES_PER_CELL} samples per output cell "
            f"({_SAMPLES_PER_CELL * n_cells} total), got {total}"
        )
    per_batch = total // _MI_BATCHES
    gains = params.selected_gains
    cell_weight = (m + 2) ** np.arange(k - 1, -1, -1, dtype=np.int64)

    pooled = np.zeros((m, n_cells), dtype=np.int64)
    batch_vals = np.empty(_MI_BATCHES)
    from scipy import special

    for b in range(_MI_BATCHES):
        gen = np.random.Generator(np.random.Philox(key=np.array([seed, b], dtype=np.uint64)))
        s_idx = gen.integers(0, m, size=per_batch)
        u = (gen.integers(0, 1 << 53, size=per_batch, dtype=np.int64) + 0.5) * 2.0**-53
        x = params.points[s_idx] + (u - 0.5) * params.dither_width
        zu = (gen.integers(0, 1 << 53, size=(k, per_batch), dtype=np.int64) + 0.5) * 2.0**-53
        z = special.ndtri(zu)
        cells = np.empty((k, per_batch), dtype=np.int64)
        for j in range(k):
            w = gains[j] * x + z[j]
            cells[j] = np.searchsorted(params.antenna_thresholds[j], w, side="right")
        code = s_idx * n_cells + cell_weight @ cells
        counts = np.bincount(code, minlength=m * n_cells).reshape(m, n_cells)
        pooled += counts
        batch_vals[b] = _plugin_mi_bits(counts)
    std_err = float(np.std(batch_vals, ddof=1) / math.sqrt(_MI_BATCHES))
    return _plugin_mi_bits(pooled), std_err

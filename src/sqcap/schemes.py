"""Constructive transmit schemes: uniform PAM through midpoint thresholds,
and its dithered multi-antenna variant.

The single-antenna scheme sends M equiprobable PAM points meeting the power
budget with equality and spends M - 1 sign quantizers on the midpoints
between received points.  The multi-antenna scheme adds a uniform dither to
the constellation, selects the K strongest antennas, and spends M + 1
quantizers per selected antenna (the midpoints plus one threshold beyond
each end point), which makes the per-antenna quantization error uniform and
independent of the data.

Both scheme types take only the parameters a caller chooses (M and P, and
for the dithered scheme the selected gains and the quantizer budget) and
derive the spacing, points and thresholds from them on construction, so a
scheme cannot hold a grid that disagrees with its parameters.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from ._validate import _check_count, _check_real, _check_seed, _check_vector, _frozen
from .bounds import _multi_select_flags
from .channel import _uniforms
from .dmc import (
    InputDistribution,
    TransitionMatrix,
    _mi_bits,
    entropy_bits,
    mutual_information,
    output_marginal,
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

_MI_BATCHES = 10
_MAX_OUTPUT_CELLS = 10**6
_SAMPLES_PER_CELL = 50


def _uniform_grid(m: int, spacing: float) -> np.ndarray:
    return spacing * (np.arange(m) - (m - 1) / 2.0)


@dataclass(frozen=True, eq=False)
class PamScheme:
    """M-point uniform PAM, symmetric about zero with mean square exactly P.

    Only ``m_levels`` and ``power_budget`` are given; the ``spacing``
    sqrt(12 P / (M^2 - 1)), the ``points`` and the M - 1 midpoint
    ``thresholds`` are derived from them.
    """

    m_levels: int
    power_budget: float
    spacing: float = field(init=False)
    points: np.ndarray = field(init=False)
    thresholds: np.ndarray = field(init=False)

    def __post_init__(self):
        m = _check_count(self.m_levels, "m_levels")
        if m < 2:
            raise ValueError(f"need at least 2 levels, got {self.m_levels!r}")
        p = _check_real(self.power_budget, "power", positive=True)
        spacing = math.sqrt(12.0 * p / (m * m - 1.0))
        if not math.isfinite(spacing):  # the points then lie within sqrt(3 P)
            raise ValueError(f"power {p!r} puts the PAM spacing past the float range")
        points = _uniform_grid(m, spacing)
        object.__setattr__(self, "m_levels", m)
        object.__setattr__(self, "power_budget", p)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "points", _frozen(points))
        object.__setattr__(self, "thresholds", _frozen(0.5 * (points[:-1] + points[1:])))

    def to_dict(self) -> dict:
        """The scheme as plain JSON values; ``to_json`` dumps this dict."""
        return {
            "m_levels": self.m_levels,
            "spacing": self.spacing,
            "points": self.points.tolist(),
            "thresholds": self.thresholds.tolist(),
            "power_budget": self.power_budget,
            "quantizers_used": self.thresholds.size,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def pam_scheme_for_levels(m_levels: int, power: float) -> PamScheme:
    """M-point PAM meeting ``power`` exactly, with midpoint thresholds."""
    return PamScheme(m_levels, power)


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

    Thresholds are placed at the received (gain-scaled) midpoints; a span
    past the float range, or thresholds that the scaling leaves equal, are
    errors that name the power and the gain.
    """
    gain = _check_real(gain, "gain", positive=True)
    if not math.isfinite(gain * float(scheme.points[-1] - scheme.points[0])):
        raise ValueError(
            f"power {scheme.power_budget!r} and gain {gain!r} put the received PAM span "
            "past the float range"
        )
    thresholds = gain * scheme.thresholds
    if np.any(np.diff(thresholds) <= 0):
        raise ValueError(
            f"power {scheme.power_budget!r} and gain {gain!r} put received PAM thresholds "
            "closer than the float resolution"
        )
    return quantizer_transition(scheme.points, thresholds, gain, 1.0)


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
    marginal = output_marginal(InputDistribution.uniform(scheme.m_levels), channel)
    h_out = entropy_bits(marginal)
    h_cond_max = max(entropy_bits(row) for row in channel.probs)
    return h_out, h_cond_max


@dataclass(frozen=True, eq=False)
class DitheredSchemeParams:
    """Dithered PAM over the K strongest antennas.

    Only the ``selected_gains`` (positive, nonincreasing), ``m_levels``,
    ``power_budget`` and ``quantizer_budget`` are given; the rest is derived.
    The M points are spaced sqrt(12 P) / M, which is also the width of the
    uniform dither, so symbol plus dither has mean square P.  Each selected
    antenna gets M + 1 thresholds: the gain-scaled midpoints plus one
    threshold half a step beyond each end point, so the quantizer cell index
    behaves like a uniform quantizer of the antenna output.
    ``effective_noise_bound`` is the variance of the equivalent additive
    noise after combining (at most 2 when every selected gain exceeds one).
    """

    selected_gains: np.ndarray
    m_levels: int
    power_budget: float
    quantizer_budget: int
    selected_count: int = field(init=False)
    spacing: float = field(init=False)
    points: np.ndarray = field(init=False)
    base_thresholds: np.ndarray = field(init=False)
    antenna_thresholds: np.ndarray = field(init=False)
    effective_noise_bound: float = field(init=False)
    flags: tuple = field(init=False)

    def __post_init__(self):
        g = self.selected_gains
        g = _frozen(_check_vector(g, "selected gains", positive=True, nonincreasing=True))
        m = _check_count(self.m_levels, "m_levels")
        if m < 3:
            raise ValueError(f"dithered scheme needs at least 3 levels, got {m}")
        p = _check_real(self.power_budget, "power", positive=True)
        n = _check_count(self.quantizer_budget, "quantizer_budget")
        k = g.size
        if k * (m + 1) > n:
            raise ValueError(f"scheme uses {k * (m + 1)} sign quantizers, over budget {n}")
        spacing = math.sqrt(12.0 * p) / m
        # the threshold span g_1 m spacing, as the arrays round it, bounds every cell read
        if not math.isfinite(float(g[0]) * (spacing * m)):
            raise ValueError(f"power {p!r} and gains up to {float(g[0])!r} put the "
                             "threshold span past the float range")
        base = spacing * (np.arange(m + 1) - m / 2.0)
        # (sum g^2 + (spacing^2 / 12) sum g^4) / (sum g^2)^2 in the ratios
        # s = g / g_1, which lie in (0, 1]: no power of a gain is taken, so the
        # value is finite wherever it is representable
        g1 = float(g[0])
        s = g / g1
        s2, s4 = float(np.sum(s * s)), float(np.sum(s**4))
        derived = {
            "selected_gains": g,
            "m_levels": m,
            "power_budget": p,
            "quantizer_budget": n,
            "selected_count": k,
            "spacing": spacing,
            "points": _frozen(_uniform_grid(m, spacing)),
            "base_thresholds": _frozen(base),
            "antenna_thresholds": _frozen(g[:, None] * base[None, :]),
            "effective_noise_bound": 1.0 / g1 / g1 / s2 + (spacing**2 / 12.0) * s4 / (s2 * s2),
            "flags": _multi_select_flags(g, p, n),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @property
    def quantizers_used(self) -> int:
        return self.selected_count * (self.m_levels + 1)

    def to_dict(self) -> dict:
        """The parameters as plain JSON values; ``to_json`` dumps this dict."""
        return {
            "selected_count": self.selected_count,
            "m_levels": self.m_levels,
            "spacing": self.spacing,
            "dither_width": self.spacing,
            "points": self.points.tolist(),
            "base_thresholds": self.base_thresholds.tolist(),
            "selected_gains": self.selected_gains.tolist(),
            "effective_noise_bound": self.effective_noise_bound,
            "power_budget": self.power_budget,
            "quantizer_budget": self.quantizer_budget,
            "quantizers_used": self.quantizers_used,
            "flags": list(self.flags),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def build_dithered_scheme(
    h, power: float, n_sq: int, k_select: int
) -> DitheredSchemeParams:
    """Size and place the dithered scheme on the K strongest antennas.

    Gains enter as absolute values (a sign flip at an antenna is invisible
    to the scheme).  The constellation size is
    floor(min(n_sq / K, ||h_K|| sqrt(P)) - 1), which keeps the budget
    K (M + 1) <= n_sq; below 3 levels the construction is rejected.
    """
    v = _check_vector(h, "gain vector")
    _check_real(power, "power", positive=True)
    n = _check_count(n_sq, "n_sq")
    k = _check_count(k_select, "k_select")
    if not k <= min(v.size, n):
        raise ValueError(
            f"k_select must lie in [1, min(n_antennas={v.size}, n_sq={n})], got {k_select!r}"
        )
    gains = np.sort(np.abs(v))[::-1][:k]
    if np.any(gains == 0):
        raise ValueError("selected antennas must have nonzero gain")
    with np.errstate(over="ignore"):  # an infinite norm leaves the budget to decide
        norm = float(np.sqrt(np.sum(gains * gains)))
    m = math.floor(min(n / k, norm * math.sqrt(power)) - 1.0)
    if m < 3:
        raise ValueError(
            f"constellation would have {m} levels; needs at least 3 "
            f"(raise the budget or power, or lower k_select)"
        )
    return DitheredSchemeParams(gains, m, power, n)


def _plugin_mi_bits(counts: np.ndarray) -> float:
    # mutual information of the empirical law; symbols never drawn and cells
    # never hit carry no mass
    n_x = counts.sum(axis=1)
    seen = n_x > 0
    rows = counts[seen][:, counts.sum(axis=0) > 0] / n_x[seen, None]
    return _mi_bits(n_x[seen] / n_x.sum(), rows)


def _cell_index(t: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``np.searchsorted(t, w, side="right")`` for finite ``w`` and a
    threshold row ``t`` on a uniform grid, such as a row of
    ``DitheredSchemeParams.antenna_thresholds``.

    The grid step gives each index to within one, (w - t_0) / step + 1,
    clipped to [0, len(t)] before the integer cast so that huge ``w`` cannot
    overflow it; one exact comparison each way against the row padded with
    -inf and +inf then settles it.
    """
    pad = np.concatenate(([-np.inf], t, [np.inf]))
    est = w - t[0]
    est *= (t.size - 1) / (t[-1] - t[0])
    est += 1.0
    np.clip(est, 0.0, t.size, out=est)
    idx = est.astype(np.int64)
    idx -= pad[idx] > w
    idx += pad[1:][idx] <= w
    return idx


def dithered_mi_estimate(
    params: DitheredSchemeParams, h, samples: int, seed: int
) -> tuple[float, float]:
    """Monte-Carlo estimate of I(symbol; quantizer cells) with its standard error.

    Draws the symbol, the dither, and per-antenna unit Gaussian noise from
    counter-based substreams (one per batch), builds the empirical joint
    histogram over the m_levels x (m_levels + 2)^K alphabet, and returns the
    pooled plug-in estimate with a batch-means standard error over 10
    batches, so ``samples`` must be a multiple of 10.  Each antenna's cell
    is read off its uniform threshold grid by arithmetic, then checked
    exactly against its two neighbouring thresholds.  Deterministic for a
    given seed on every platform.
    """
    v = _check_vector(h, "gain vector")
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
    if total % _MI_BATCHES:
        raise ValueError(
            f"samples must be a multiple of the batch count {_MI_BATCHES}, got {total}"
        )
    if total < _SAMPLES_PER_CELL * n_cells:
        raise ValueError(
            f"need at least {_SAMPLES_PER_CELL} samples per output cell "
            f"({_SAMPLES_PER_CELL * n_cells} total), got {total}"
        )
    per_batch = total // _MI_BATCHES

    pooled = np.zeros((m, n_cells), dtype=np.int64)
    batch_vals = np.empty(_MI_BATCHES)
    from scipy import special

    for b in range(_MI_BATCHES):
        bits = np.random.Philox(key=np.array([seed, b], dtype=np.uint64))
        code = np.random.Generator(bits).integers(0, m, size=per_batch)
        # the dither row, then one noise row per antenna: the words
        # Generator.integers(0, 2**53) would take next
        u = _uniforms(bits.random_raw((k + 1, per_batch)))
        x = u[0]
        x -= 0.5
        x *= params.spacing
        x += params.points[code]
        z = special.ndtri(u[1:], out=u[1:])
        for j in range(k):
            w = params.selected_gains[j] * x
            w += z[j]
            code *= m + 2
            code += _cell_index(params.antenna_thresholds[j], w)
        counts = np.bincount(code, minlength=m * n_cells).reshape(m, n_cells)
        pooled += counts
        batch_vals[b] = _plugin_mi_bits(counts)
    std_err = float(np.std(batch_vals, ddof=1) / math.sqrt(_MI_BATCHES))
    return _plugin_mi_bits(pooled), std_err

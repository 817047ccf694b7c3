"""Capacity bounds and achievable rates for Gaussian channels read through
a budget of sign quantizers.

The library covers four analog front-end architectures (per-quantizer
antenna selection with or without thresholds, shared selection, and
unrestricted linear combining), closed-form capacity bounds for each,
power/quantizer allocation over parallel subchannels, constructive PAM
and dithered modulation schemes, and Monte-Carlo sweeps over random
channel draws.
"""

from .bounds import (
    ORACLE_MAX_CHANNELS,
    ORACLE_MAX_COMPOSITIONS,
    ORACLE_MAX_QUANTIZERS,
    AllocationBranch,
    AllocationResult,
    BoundPair,
    BudgetError,
    allocate_integer_oracle,
    mimo_sign_highsnr_bounds,
    mimo_single_select_bounds,
    miso_sign_capacity,
    simo_linear_bounds,
    simo_multi_select_bounds,
    simo_sign_highsnr_bounds,
    simo_single_select_bounds,
    siso_multilevel_bounds,
    siso_sign_capacity,
    waterfill_relaxed,
)
from .channel import (
    ChannelEnsembleSpec,
    ChannelMatrix,
    RankDeficientError,
    draw_channel,
    gaussian_draw,
)
from .dmc import (
    ConvergenceError,
    InputDistribution,
    TransitionMatrix,
    blahut_arimoto,
    entropy_bits,
    mutual_information,
    output_marginal,
    quantizer_transition,
)
from .schemes import (
    DitheredSchemeParams,
    PamScheme,
    build_dithered_scheme,
    build_pam_scheme,
    dithered_mi_estimate,
    entropy_spotchecks,
    pam_inner_rate,
    pam_scheme_for_levels,
)
from .sweeps import (
    CurvePoint,
    SweepSpec,
    UnsupportedCurveError,
    csv_text,
    emit_csv,
    figure_spec,
    multi_select_lower_capped,
    run_sweep,
)
from .tailmath import (
    binary_entropy,
    q_array,
    q_diff,
    q_diff_array,
    q_function,
    underflow_clamps,
)

__version__ = "0.1.0"

__all__ = [
    "ORACLE_MAX_CHANNELS",
    "ORACLE_MAX_COMPOSITIONS",
    "ORACLE_MAX_QUANTIZERS",
    "AllocationBranch",
    "AllocationResult",
    "BoundPair",
    "BudgetError",
    "ChannelEnsembleSpec",
    "ChannelMatrix",
    "ConvergenceError",
    "CurvePoint",
    "DitheredSchemeParams",
    "InputDistribution",
    "PamScheme",
    "RankDeficientError",
    "SweepSpec",
    "TransitionMatrix",
    "UnsupportedCurveError",
    "allocate_integer_oracle",
    "binary_entropy",
    "blahut_arimoto",
    "build_dithered_scheme",
    "build_pam_scheme",
    "csv_text",
    "dithered_mi_estimate",
    "draw_channel",
    "emit_csv",
    "entropy_bits",
    "entropy_spotchecks",
    "figure_spec",
    "gaussian_draw",
    "mimo_sign_highsnr_bounds",
    "mimo_single_select_bounds",
    "miso_sign_capacity",
    "multi_select_lower_capped",
    "mutual_information",
    "output_marginal",
    "pam_inner_rate",
    "pam_scheme_for_levels",
    "q_array",
    "q_diff",
    "q_diff_array",
    "q_function",
    "quantizer_transition",
    "run_sweep",
    "simo_linear_bounds",
    "simo_multi_select_bounds",
    "simo_sign_highsnr_bounds",
    "simo_single_select_bounds",
    "siso_multilevel_bounds",
    "siso_sign_capacity",
    "underflow_clamps",
    "waterfill_relaxed",
    "__version__",
]

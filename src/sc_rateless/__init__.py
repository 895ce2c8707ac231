"""Spatially-coupled precoded rateless codes on the binary erasure channel.

Asymptotic decoding thresholds by density evolution, spectral stability
lower bounds on the overhead, and a finite-length encoder / peeling-decoder
Monte Carlo simulator that cross-validates both.
"""

__version__ = "0.1.0"

from .codec import (
    ChannelStream,
    ConditioningFailed,
    InvalidM,
    MonteCarloRow,
    PrecodeGraph,
    TrialResult,
    channel_stream,
    encode,
    monte_carlo,
    peel,
    sample_precode,
)
from .density import (
    DEConfig,
    DERun,
    DEState,
    NoSuccessInBracket,
    NonMonotoneBracket,
    NonMonotoneRun,
    SweepRow,
    ThresholdResult,
    de_run,
    de_step,
    overhead_threshold,
    threshold_sweep,
)
from .ensemble import (
    EnsembleParams,
    NonPositiveRate,
    alpha_from_beta,
    beta_from_alpha,
    design_rate,
    design_rate_limit,
)
from .stability import (
    BandMatrix,
    NonConvergence,
    StabilityReport,
    build_jacobian,
    capacity_condition,
    dg1_overhead_bound,
    norm_upper_bound,
    rayleigh_lower_bound,
    spectral_radius,
    threshold_lower_bounds,
)

__all__ = [
    "__version__",
    "BandMatrix",
    "ChannelStream",
    "ConditioningFailed",
    "DEConfig",
    "DERun",
    "DEState",
    "EnsembleParams",
    "InvalidM",
    "MonteCarloRow",
    "NoSuccessInBracket",
    "NonConvergence",
    "NonMonotoneBracket",
    "NonMonotoneRun",
    "NonPositiveRate",
    "PrecodeGraph",
    "StabilityReport",
    "SweepRow",
    "ThresholdResult",
    "TrialResult",
    "alpha_from_beta",
    "beta_from_alpha",
    "build_jacobian",
    "capacity_condition",
    "channel_stream",
    "de_run",
    "de_step",
    "design_rate",
    "design_rate_limit",
    "dg1_overhead_bound",
    "encode",
    "monte_carlo",
    "norm_upper_bound",
    "overhead_threshold",
    "peel",
    "rayleigh_lower_bound",
    "sample_precode",
    "spectral_radius",
    "threshold_lower_bounds",
    "threshold_sweep",
]

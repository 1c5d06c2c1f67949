"""Fluctuation theory toolkit for spectrally negative Levy processes.

Scale functions, two-sided exit and creeping identities, excursion
intensity decompositions, and Monte Carlo cross-checks, for processes
of unbounded variation (a Gaussian part or infinite jump variation).
"""

from .errors import (
    BadConfigError,
    BadParameterError,
    BoundedVariationError,
    ConvergenceFailure,
    DegenerateDenominator,
    InsufficientCrossings,
    InversionFailure,
    LevyFluctError,
    ModelFormatError,
    QuadratureFailure,
    SeriesDivergence,
    WrongRegimeError,
)
from .excursion import (
    dual_lifetime_masses,
    entrance_constants,
    entrance_law_laplace,
    intensity_cross_after,
    intensity_cross_before,
    intensity_negative_start,
    intensity_stay_positive,
    intensity_table,
    intensity_total,
    intensity_upper_creep,
    inverse_local_time,
    occupation_overshoot_identity,
    overshoot_mass,
)
from .fluctuation import (
    conditioned_resolvent_density,
    constant_A,
    creeping_probability,
    g_family,
    h_beta,
    hitting_laplace,
    kernel_K,
    passage_below_laplace,
    resolvent_density,
    survival_probability,
)
from .model import (
    ExpJumps,
    LevyModel,
    NoJumps,
    Regime,
    StableJumps,
    TemperedStableJumps,
    model_from_dict,
    model_to_dict,
    parse_model,
)
from .montecarlo import (
    Estimate,
    MCConfig,
    estimate_creeping,
    estimate_passage_below_laplace,
    estimate_survival,
    estimate_upcross_laplace,
    martingale_check,
    sample_terminal,
    simulate_path,
)
from .scale import (
    ScaleEngine,
    laplace_roundtrip,
    make_engine,
    mittag_leffler,
    w_series_check,
)
from .validation import TOLERANCES, run_validation

__version__ = "0.1.0"

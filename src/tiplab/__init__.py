"""Numerical laboratory for rate-, phase- and size-induced transitions in
scalar nonautonomous ODEs with concave or d-concave right-hand sides.

The package builds hyperbolic solutions of frozen (limit) equations, follows
locally pullback attractive/repulsive solutions of transition equations,
classifies runs as tracking or tipping, locates critical parameter values by
bisection, and computes finite-time Lyapunov exponents as early-warning
signals.
"""

__version__ = "0.1.0"

from .integrator import (
    IntegratorConfig,
    IntegrationError,
    Trajectory,
    integrate,
)
from .models import (
    ConcavityReport,
    Curve,
    DomainError,
    ModelError,
    VectorFieldModel,
    check_concavity_class,
    make_coefficient,
    make_model,
)
from .transitions import (
    ConstantRate,
    Mechanism,
    Phase,
    Reaction,
    Size,
    Switching,
    TimeDependentPhase,
    TimeDependentRate,
    TransitionError,
    make_profile,
)
from .attractors import (
    DEFAULT_NUMERICS,
    AttractorError,
    HyperbolicEstimate,
    LimitSet,
    LyapunovEstimate,
    NonConvergentError,
    Numerics,
    PullbackSolution,
    check_anchor_insensitivity,
    estimate_lyapunov,
    limit_hyperbolic_solutions,
    pullback_attractive,
    pullback_repulsive,
)
from .classify import (
    CaseLabel,
    ClassifyError,
    CriticalValueResult,
    GammaIntervalResult,
    IndeterminateError,
    LambdaStarResult,
    LimitCache,
    classify,
    critical_value,
    gamma_interval,
    lambda_star,
    resolve_horizon,
    switching_classify,
)
from .ews import (
    EwsConfig,
    EwsError,
    FtleSeries,
    ReactionOutcome,
    RegionGrid,
    SafePointReport,
    crossover_time,
    ews_region,
    ftle_series,
    reaction_region,
    reaction_run,
    safe_no_return,
    warning_time,
)

__all__ = [
    "__version__",
    # integrator
    "IntegratorConfig", "IntegrationError", "Trajectory", "integrate",
    # models
    "ConcavityReport", "Curve", "DomainError", "ModelError",
    "VectorFieldModel", "check_concavity_class", "make_coefficient",
    "make_model",
    # transitions
    "ConstantRate", "Mechanism", "Phase", "Reaction", "Size",
    "Switching", "TimeDependentPhase", "TimeDependentRate", "TransitionError",
    "make_profile",
    # attractors
    "DEFAULT_NUMERICS", "AttractorError", "HyperbolicEstimate", "LimitSet",
    "LyapunovEstimate", "NonConvergentError", "Numerics", "PullbackSolution",
    "check_anchor_insensitivity", "estimate_lyapunov",
    "limit_hyperbolic_solutions", "pullback_attractive", "pullback_repulsive",
    # classify
    "CaseLabel", "ClassifyError", "CriticalValueResult", "GammaIntervalResult",
    "IndeterminateError", "LambdaStarResult", "LimitCache", "classify",
    "critical_value", "gamma_interval", "lambda_star", "resolve_horizon",
    "switching_classify",
    # ews
    "EwsConfig", "EwsError", "FtleSeries", "ReactionOutcome", "RegionGrid",
    "SafePointReport", "crossover_time", "ews_region", "ftle_series",
    "reaction_region", "reaction_run", "safe_no_return", "warning_time",
]

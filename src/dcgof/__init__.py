"""Adequacy tests for the conditional distribution of dynamic discrete choice models."""

from .model import (
    AssumptionViolationError,
    CondLaw,
    LinkKind,
    ModelSpec,
    Series,
    Theta,
    cond_law,
    link_cdf,
    simulate,
    simulate_x_ar1,
)
from .estimate import (
    FitResult,
    NonConvergenceError,
    SeparationError,
    ThresholdCollapseError,
    fit_mle,
    loglik,
    score,
)
from .transform import (
    NoiseStream,
    UniformResiduals,
    cont_cdf,
    cont_quantile,
    discrepancy,
    randomized_pit,
)
from .stats import (
    StatKind,
    StatValue,
    box_pierce,
    cvm_stat,
    jarque_bera,
    ks_stat,
    residuals_discrete,
    residuals_gaussian,
    v2_limit_cov,
)
from .boot import (
    BootstrapConfig,
    RejectionTable,
    Scenario,
    TestReport,
    UnreliableBootstrapError,
    bootstrap_test,
    run_scenario,
    scenario_registry,
)
from .rng import substream

__version__ = "0.1.0"

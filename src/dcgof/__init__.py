"""Adequacy tests for the conditional distribution of dynamic discrete choice models.

Each public name loads its submodule on first access (PEP 562): ``import dcgof`` loads no numpy.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it gives the package
_EXPORTS = {
    "model": ("AssumptionViolationError", "CondLaw", "LinkKind", "ModelSpec", "Series", "Theta",
              "cond_law", "link_cdf", "simulate", "simulate_x_ar1"),
    "estimate": ("FitResult", "NonConvergenceError", "SeparationError", "ThresholdCollapseError",
                 "fit_mle", "loglik", "score"),
    "transform": ("NoiseStream", "UniformResiduals", "cont_cdf", "cont_quantile", "discrepancy",
                  "randomized_pit"),
    "stats": ("StatKind", "StatValue", "box_pierce", "cvm_stat", "jarque_bera", "ks_stat",
              "residuals_discrete", "residuals_gaussian", "v2_limit_cov"),
    "boot": ("BootstrapConfig", "RejectionTable", "Scenario", "TestReport",
             "UnreliableBootstrapError", "bootstrap_test", "run_scenario", "scenario_registry"),
    "rng": ("substream",),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_SOURCE)


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

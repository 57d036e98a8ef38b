import importlib

import pytest

import dcgof

# The names dcgof/__init__.py once imported from each submodule at import
PUBLIC = {
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


def test_each_public_name_is_its_submodules():
    for module, names in PUBLIC.items():
        source = importlib.import_module(f"dcgof.{module}")
        for name in names:
            assert getattr(dcgof, name) is getattr(source, name), name
    assert sorted(dcgof.__all__) == sorted(n for names in PUBLIC.values() for n in names)
    assert set(dcgof.__all__) <= set(dir(dcgof))


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from dcgof import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(dcgof.__all__)


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="module 'dcgof' has no attribute 'no_such_name'"):
        dcgof.no_such_name  # noqa: B018

"""Parametric bootstrap p-values and the Monte Carlo study harness.

The user-facing test recalibrates every statistic by simulating from the
fitted null model (reusing the observed regressor path), re-estimating the
parameters on each simulated series, and recomputing the statistics with
fresh continuation noise per replicate.

The study harness uses warp-speed Monte Carlo: one bootstrap draw per
replication, with the draws pooled across replications to form the null
distribution of each statistic.  Replications are independent tasks with
their own RNG substreams, so results are identical for any worker count.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .estimate import NonConvergenceError, fit_mle
from .model import (
    AssumptionViolationError,
    LinkKind,
    ModelSpec,
    Series,
    Theta,
    simulate,
    simulate_x_ar1,
)
from .rng import substream
from .stats import DEFAULT_STUDY_KINDS, StatKind, evaluate_statistics, residuals_discrete
from .transform import NoiseStream, randomized_pit

__all__ = [
    "BootstrapConfig",
    "StatResult",
    "TestReport",
    "Scenario",
    "RejectionTable",
    "UnreliableBootstrapError",
    "simulate_null",
    "bootstrap_test",
    "scenario_registry",
    "run_scenario",
    "rejection_tables_to_csv",
]

DEFAULT_LEVELS = (0.10, 0.05, 0.01)
MAX_FAILURE_SHARE = 0.2


class UnreliableBootstrapError(RuntimeError):
    """Too many bootstrap replications failed to converge."""


@dataclass(frozen=True)
class BootstrapConfig:
    """Settings of the user-facing bootstrap test."""

    B: int = 199
    master_seed: int = 0
    stats: tuple[StatKind, ...] = DEFAULT_STUDY_KINDS

    def __post_init__(self) -> None:
        if self.B < 19:
            raise ValueError("B must be >= 19")
        if not self.stats:
            raise ValueError("statistic list must be nonempty")


@dataclass(frozen=True)
class StatResult:
    name: str
    value: float
    p_value: float
    n_replicates: int


@dataclass(frozen=True)
class TestReport:
    """Observed statistics with bootstrap p-values."""

    statistics: tuple[StatResult, ...]
    theta_hat: Theta
    B: int
    master_seed: int
    failed_fits: int

    def to_json_dict(self) -> dict:
        return {
            "statistics": [
                {
                    "name": s.name,
                    "value": s.value,
                    "p_value": s.p_value,
                    "n_replicates": s.n_replicates,
                }
                for s in self.statistics
            ],
            "theta_hat": self.theta_hat.to_json_dict(),
            "B": self.B,
            "seeds": {"master_seed": self.master_seed},
            "warnings": {"failed_fits": self.failed_fits},
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def simulate_null(
    spec: ModelSpec, theta_hat: Theta, x: np.ndarray, rng: np.random.Generator
) -> Series:
    """Simulate from the fitted null family on the observed regressor path.

    Lagged outcomes in the information set are the simulated ones; presample
    initialization is identical to :func:`dcgof.model.simulate`.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    return simulate(spec, theta_hat, x.shape[0], x=x, rng=rng)


def pvalue(observed: float, replicates: np.ndarray) -> float:
    """Exact-test convention ``(1 + #{D*_b >= D}) / (B + 1)``."""
    replicates = np.asarray(replicates, dtype=float)
    return (1.0 + float(np.sum(replicates >= observed))) / (replicates.shape[0] + 1.0)


def _needs_discrete(kinds) -> bool:
    return any(k.tag == "BPD_m" for k in kinds)


def _stats_at(
    spec: ModelSpec,
    theta: Theta,
    series: Series,
    noise: NoiseStream,
    kinds,
) -> dict[str, float]:
    u = randomized_pit(spec, theta, series, noise)
    e = residuals_discrete(spec, theta, series) if _needs_discrete(kinds) else None
    return evaluate_statistics(kinds, u.u, e)


def _replicate(
    sim_spec: ModelSpec,
    sim_theta: Theta,
    x: np.ndarray,
    fit_spec: ModelSpec,
    init: Theta | None,
    kinds,
    master_seed: int,
    sim_key: tuple,
    noise_key: tuple,
) -> tuple[Theta, dict[str, float]] | None:
    """One replicate: simulate from ``(sim_spec, sim_theta)`` on the regressor
    path ``x``, refit ``fit_spec`` starting from ``init`` (cold when
    ``None``), and compute the statistics under the randomized PIT with
    continuation noise keyed by ``noise_key``.

    A bootstrap draw refits the model it was simulated from, so its caller
    passes ``init=sim_theta``: the estimate lies within sampling error of it.

    Returns ``(theta_hat, stats)``, or ``None`` when the model cannot be fitted
    or evaluated on the simulated series.  Any other exception propagates.
    """
    try:
        star = simulate_null(sim_spec, sim_theta, x, substream(master_seed, *sim_key))
        fit = fit_mle(fit_spec, star, init=init)
        if not fit.converged:
            return None
        noise = NoiseStream.from_seed(star.T, master_seed, *noise_key)
        return fit.theta_hat, _stats_at(fit_spec, fit.theta_hat, star, noise, kinds)
    except (NonConvergenceError, AssumptionViolationError):
        return None


def _map(fn, tasks: list[tuple], threads: int) -> list:
    """``[fn(*task) for task in tasks]``, spread over ``threads`` worker
    processes when ``threads > 1``; results keep the order of ``tasks``."""
    if threads <= 1:
        return [fn(*task) for task in tasks]
    chunksize = max(1, len(tasks) // (8 * threads))
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, *zip(*tasks), chunksize=chunksize))


def bootstrap_test(
    spec: ModelSpec, series: Series, config: BootstrapConfig, threads: int = 1
) -> TestReport:
    """Fit the model, compute the requested statistics, and bootstrap p-values.

    Replicates are independent tasks with their own RNG substreams, so the
    report is identical for any ``threads``.

    Raises
    ------
    NonConvergenceError
        If the fit on the observed data fails.
    UnreliableBootstrapError
        If more than 20% of bootstrap fits fail.
    """
    fit = fit_mle(spec, series)
    if not fit.converged:
        raise NonConvergenceError("fit on observed data did not converge", fit.theta_hat)
    master = config.master_seed
    kinds = config.stats
    noise0 = NoiseStream.from_seed(series.T, master, "data")
    observed = _stats_at(spec, fit.theta_hat, series, noise0, kinds)

    tasks = [
        (spec, fit.theta_hat, series.x, spec, fit.theta_hat, kinds, master,
         ("boot-sim", b), ("boot", b))
        for b in range(1, config.B + 1)
    ]
    kept = [rep[1] for rep in _map(_replicate, tasks, threads) if rep is not None]
    failed = config.B - len(kept)
    if failed > MAX_FAILURE_SHARE * config.B:
        raise UnreliableBootstrapError(
            f"{failed} of {config.B} bootstrap fits failed; report would be unreliable"
        )
    results = tuple(
        StatResult(
            name=name,
            value=observed[name],
            p_value=pvalue(observed[name], np.array([stats[name] for stats in kept])),
            n_replicates=len(kept),
        )
        for name in observed
    )
    return TestReport(
        statistics=results,
        theta_hat=fit.theta_hat,
        B=config.B,
        master_seed=master,
        failed_fits=failed,
    )


# --- Monte Carlo study ---------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """One (data generating process, null model) pairing of the study."""

    id: int
    label: str
    dgp_spec: ModelSpec
    dgp_theta: Theta
    null_spec: ModelSpec
    x_ar1: float = 0.8


def _study_spec(link: LinkKind, dynamics: str) -> ModelSpec:
    q = 0 if dynamics == "static" else 1
    return ModelSpec(
        link=link,
        support_size=1,
        q=q,
        n_regressors=1,
        interactions=(dynamics == "interactions"),
    )


def _study_theta(dynamics: str) -> Theta:
    if dynamics == "static":
        return Theta(pi0=0.0, beta=(1.0,))
    if dynamics == "dynamic":
        return Theta(pi0=0.0, delta=(0.8,), beta=(1.0,))
    return Theta(pi0=0.0, delta=(0.8,), beta=(1.0,), gamma=(-2.0,))


def scenario_registry() -> tuple[Scenario, ...]:
    """The eleven (DGP, null) pairings of the size/power study."""
    table = [
        (1, LinkKind.PROBIT, "static", "static"),
        (2, LinkKind.PROBIT, "dynamic", "dynamic"),
        (3, LinkKind.PROBIT, "interactions", "interactions"),
        (4, LinkKind.LOGISTIC, "static", "static"),
        (5, LinkKind.CHISQ1, "static", "static"),
        (6, LinkKind.LOGISTIC, "dynamic", "static"),
        (7, LinkKind.CHISQ1, "dynamic", "static"),
        (8, LinkKind.LOGISTIC, "interactions", "dynamic"),
        (9, LinkKind.CHISQ1, "interactions", "dynamic"),
        (10, LinkKind.LOGISTIC, "interactions", "static"),
        (11, LinkKind.CHISQ1, "interactions", "static"),
    ]
    names = {LinkKind.PROBIT: "probit", LinkKind.LOGISTIC: "logit", LinkKind.CHISQ1: "chi2"}
    out = []
    for sid, link, dyn, null_dyn in table:
        out.append(
            Scenario(
                id=sid,
                label=f"{names[link]} {dyn} / probit {null_dyn}",
                dgp_spec=_study_spec(link, dyn),
                dgp_theta=_study_theta(dyn),
                null_spec=_study_spec(LinkKind.PROBIT, null_dyn),
            )
        )
    return tuple(out)


@dataclass(frozen=True)
class RejectionTable:
    """Rejection percentages of one (scenario, T) block."""

    scenario_id: int
    label: str
    T: int
    R: int
    R_effective: int
    levels: tuple[float, ...]
    stat_names: tuple[str, ...]
    rates: np.ndarray  # shape (len(levels), len(stat_names)), percentages
    master_seed: int

    def rate(self, level: float, stat_name: str) -> float:
        i = self.levels.index(level)
        j = self.stat_names.index(stat_name)
        return float(self.rates[i, j])

    def to_json_dict(self) -> dict:
        return {
            "scenario": self.scenario_id,
            "label": self.label,
            "T": self.T,
            "R": self.R,
            "R_effective": self.R_effective,
            "master_seed": self.master_seed,
            "levels": list(self.levels),
            "statistics": list(self.stat_names),
            "rates": {
                f"{level:g}": {
                    name: float(self.rates[i, j]) for j, name in enumerate(self.stat_names)
                }
                for i, level in enumerate(self.levels)
            },
        }


def _warp_replication(
    scenario: Scenario, T: int, kinds, master_seed: int, r: int
) -> tuple[dict[str, float], dict[str, float]] | None:
    """Replication ``r``: statistics on data from the scenario DGP and on one
    bootstrap draw from the fitted null; ``None`` if either replicate fails."""
    x = simulate_x_ar1(scenario.x_ar1, T, substream(master_seed, "mc-x", r))
    null = scenario.null_spec
    data = _replicate(scenario.dgp_spec, scenario.dgp_theta, x, null, None, kinds,
                      master_seed, ("mc-dgp", r), ("mc-data", r))
    if data is None:
        return None
    theta_hat, observed = data
    star = _replicate(null, theta_hat, x, null, theta_hat, kinds, master_seed,
                      ("mc-boot", r, 0), ("mc-boot-noise", r, 0))
    if star is None:
        return None
    return observed, star[1]


def run_scenario(
    scenario: Scenario,
    T: int,
    R: int,
    master_seed: int = 0,
    stats: tuple[StatKind, ...] = DEFAULT_STUDY_KINDS,
    levels: tuple[float, ...] = DEFAULT_LEVELS,
    threads: int = 1,
) -> RejectionTable:
    """Warp-speed rejection rates for one scenario at sample size ``T``.

    Each replication simulates from the scenario DGP on a fresh regressor
    path, fits the null model, computes the statistics, and draws one
    bootstrap sample from the fitted null; the pooled bootstrap draws form
    the null distribution.
    """
    if R < 50:
        raise ValueError("need R >= 50 replications")
    for level in levels:
        if not 0.0 < level < 1.0:
            raise ValueError(f"level {level} outside (0, 1)")
    stat_names = tuple(k.name for k in stats)
    tasks = [(scenario, T, stats, master_seed, r) for r in range(R)]
    kept = [rep for rep in _map(_warp_replication, tasks, threads) if rep is not None]
    failed = R - len(kept)
    if failed > MAX_FAILURE_SHARE * R:
        raise UnreliableBootstrapError(f"{failed} of {R} replications failed")

    rates = np.zeros((len(levels), len(stat_names)))
    for j, name in enumerate(stat_names):
        observed = np.array([obs[name] for obs, _ in kept])
        pooled = np.sort(np.array([star[name] for _, star in kept]))
        n_pool = pooled.shape[0]
        # p_r = (1 + #{pooled >= D_r}) / (n_pool + 1)
        count_ge = n_pool - np.searchsorted(pooled, observed, side="left")
        pvals = (1.0 + count_ge) / (n_pool + 1.0)
        for i, level in enumerate(levels):
            rates[i, j] = 100.0 * float(np.mean(pvals <= level))
    return RejectionTable(
        scenario_id=scenario.id,
        label=scenario.label,
        T=T,
        R=R,
        R_effective=len(kept),
        levels=tuple(levels),
        stat_names=stat_names,
        rates=rates,
        master_seed=master_seed,
    )


def rejection_tables_to_csv(tables) -> str:
    """Tables layout: one row per (scenario, T, level), statistics as columns."""
    if not tables:
        return ""
    stat_names = tables[0].stat_names
    lines = ["scenario,label,T,level," + ",".join(stat_names)]
    for tab in tables:
        if tab.stat_names != stat_names:
            raise ValueError("tables must share a statistic list")
        for i, level in enumerate(tab.levels):
            cells = ",".join(f"{tab.rates[i, j]:.17g}" for j in range(len(stat_names)))
            lines.append(f"{tab.scenario_id},\"{tab.label}\",{tab.T},{level:g},{cells}")
    return "\n".join(lines) + "\n"

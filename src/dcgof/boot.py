"""Parametric bootstrap p-values and the Monte Carlo study harness.

The user-facing test recalibrates every statistic by simulating from the
fitted null model (reusing the observed regressor path), re-estimating the
parameters on each simulated series, and recomputing the statistics with
fresh continuation noise per replicate.

The study harness uses warp-speed Monte Carlo: one bootstrap draw per
replication, with the draws pooled across replications to form the null
distribution of each statistic.

Both run one batched step, ``_replicate``, over a chunk of keys at a time:
simulate every key from its own RNG substream and stack the draws, refit
them in one Newton loop (``dcgof.estimate._fit``), then take the statistics
of the chunk, as of the observed data, with ``_statistics`` from one
evaluation of the fitted laws (``dcgof.model._fitted_law``).  A replicate
that fails is marked with its cause code (``dcgof.estimate.Cause``), not
raised; only model failures (fit errors, unconverged fits, the probability
floor, a zero conditional variance) count, and any other exception
propagates.  ``_map`` cuts the keys into near-equal contiguous chunks, at
least one per worker and none above ``CHUNK_POINTS`` points (replicates
times periods), which keeps memory O(chunk * T * L).  Each stage pays a
fixed call overhead per chunk, whatever its rows, so the budget is as large
as peak memory allows.  With ``threads > 1`` the calling process is the
first worker: it computes one share of the chunks while ``threads - 1``
processes forked with ``os.fork`` (Linux only, and never more than there
are chunks) compute the others and send them back through pipes.

A p-value reads of a bootstrap draw only whether it is at least the
observed statistic, so the user-facing test searches each bivariate KS
draw only until that is decided (``dcgof.stats._ks_2d``); its p-values are
those of exact draws.  The study pools its draws across replications and
keeps them exact.

Batch invariance: every stage computes each row of a chunk with the same
float operations as that row alone, so a key's draws, estimate, iteration
count, cause, residuals and statistics are identical in any chunk, and the
results are identical for any worker count.
"""

from __future__ import annotations

import collections
import json
import os
import pickle
import sys
from dataclasses import dataclass, field

import numpy as np

from .estimate import Cause, NonConvergenceError, _check_fittable, _fit, fit_mle
from .model import (
    LinkKind,
    ModelSpec,
    Series,
    Theta,
    _Batch,
    _FittedLaw,
    _fitted_law,
    _simulate,
    _x_ar1,
)
from .rng import substream
from .stats import CHUNK_POINTS, DEFAULT_STUDY_KINDS, StatKind, _check_stats, evaluate_statistics
from .transform import _noise_draws

__all__ = [
    "BootstrapConfig",
    "StatResult",
    "TestReport",
    "Scenario",
    "RejectionTable",
    "UnreliableBootstrapError",
    "bootstrap_test",
    "scenario_registry",
    "run_scenario",
    "rejection_tables_to_csv",
]

DEFAULT_LEVELS = (0.10, 0.05, 0.01)
MAX_FAILURE_SHARE = 0.2
# The cause of a failed replicate, as the `dcgof mc` progress line names it
FAILURE_LABELS = {
    Cause.UNCONVERGED: "non-convergence",
    Cause.DEGENERATE_START: "non-convergence",
    Cause.EMPTY_EXTREME: "separation",
    Cause.DIVERGED: "separation",
    Cause.EMPTY_MIDDLE: "threshold collapse",
    Cause.GAP_COLLAPSE: "threshold collapse",
    Cause.FLOOR: "probability floor",
    Cause.ZERO_VARIANCE: "zero variance",
}


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
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be nonnegative, got {self.master_seed}")
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


def pvalue(observed, replicates: np.ndarray):
    """Exact-test convention ``(1 + #{D*_b >= D}) / (B + 1)`` at each observed
    value ``D``: a float for a scalar ``observed``, else an array."""
    pooled = np.sort(np.asarray(replicates, dtype=float))
    count_ge = pooled.shape[0] - np.searchsorted(pooled, observed, side="left")
    return (1.0 + count_ge) / (pooled.shape[0] + 1.0)


def _needs_discrete(kinds) -> bool:
    return any(k.tag == "BPD_m" for k in kinds)


def _statistics(spec: ModelSpec, vec, series, fz, kinds,
                against=None) -> tuple[np.ndarray, _FittedLaw]:
    """The statistics (K, len(kinds)) of the fitted rows ``vec`` (K, L) on
    ``series``, one column per kind in ``kinds`` order, under the randomized
    PIT with applied noise ``fz`` (K, T), and the fitted law they come from;
    rows it flags get NaN.  With ``against``, a mapping from kinds to their
    observed values, a bivariate KS value is exact only in whether it
    reaches its observed one (``dcgof.stats.evaluate_statistics``)."""
    law = _fitted_law(spec, vec, series, fz, _needs_discrete(kinds))
    keep = ~(law.floor | law.zero_var)
    stats = np.full((keep.size, len(kinds)), np.nan)
    if np.any(keep):
        values = evaluate_statistics(kinds, law.u[keep], None if law.e is None else law.e[keep],
                                     against=against)
        stats[keep] = np.column_stack([values[kind.name] for kind in kinds])
    return stats, law


def _replicate(
    sim_spec: ModelSpec,
    sim_vec: np.ndarray,
    x: np.ndarray,
    fit_spec: ModelSpec,
    init: np.ndarray | None,
    kinds,
    master_seed: int,
    sim_keys: list,
    noise_keys: list,
    against=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The replicate step over a chunk of K keys: simulate row ``k`` from
    ``(sim_spec, sim_vec[k])`` on the regressor path ``x[k]`` (K, T, k) with
    the substream of ``sim_keys[k]``, refit ``fit_spec`` starting from
    ``init[k]`` (cold when ``init`` is ``None``), and compute the statistics
    under the randomized PIT with continuation noise keyed by
    ``noise_keys[k]``.  Each stage runs once over the whole chunk.

    A bootstrap draw refits the model it was simulated from, so its caller
    passes ``init=sim_vec``: the estimate lies within sampling error of it.
    It also passes the observed statistics as ``against`` (see
    ``_statistics``): a p-value reads of a draw only whether it reaches them.

    Returns the estimates (K, L), the statistics (K, len(kinds)) (NaN on
    failed rows) and each row's :class:`dcgof.estimate.Cause`.  A row fails
    when its model cannot be fitted (a fit error or an unconverged fit) or
    evaluated (the floor or zero-variance rule); any other exception propagates.
    """
    K, T = x.shape[:2]
    rngs = [substream(master_seed, *key) for key in sim_keys]
    star = _Batch(_simulate(sim_spec, sim_vec, x, rngs), x)
    fit = _fit(fit_spec, star, init)
    cause = fit.cause
    stats = np.full((K, len(kinds)), np.nan)
    ok = np.flatnonzero(cause == Cause.CONVERGED)
    if ok.size:
        fz = np.array([_noise_draws(T, master_seed, *noise_keys[i]) for i in ok])
        stats[ok], law = _statistics(fit_spec, fit.vec[ok], star.take(ok), fz, kinds, against)
        cause[ok] = np.select([law.floor, law.zero_var], [Cause.FLOOR, Cause.ZERO_VARIANCE],
                              Cause.CONVERGED)
    return fit.vec, stats, cause


def _chunks(n: int, T: int, threads: int) -> list[tuple[int, int]]:
    """Near-equal contiguous chunks ``(lo, hi)`` of ``range(n)``, none with
    more than ``CHUNK_POINTS`` points of length-``T`` series (but at least
    one series), and as many per worker: a multiple of ``threads`` (at
    least 1)."""
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    size = max(1, CHUNK_POINTS // T)
    count = min(n, -(-n // size // threads) * threads)
    edges = [n * i // count for i in range(count + 1)]
    return list(zip(edges, edges[1:]))


def _map(fn, args: tuple, n: int, T: int, threads: int) -> tuple:
    """The arrays of the tuples ``fn(*args, lo, hi)``, each concatenated over
    the chunks of :func:`_chunks` in their order.  The chunks are cut into
    ``min(threads, len(chunks))`` contiguous shares: the calling process
    computes the first, and one forked worker process each of the others
    (see :func:`_work`), which all start before the caller computes.  Workers
    fork only on Linux; elsewhere every share runs in the calling process.
    Each row is computed the same in any chunk, so the result does not
    depend on ``threads``.

    A worker's exception is raised here with its own type (see
    :func:`_received`), and any exception here, ``KeyboardInterrupt``
    included, first kills and reaps every worker that is left."""
    chunks = _chunks(n, T, threads)
    workers = min(threads, len(chunks)) if sys.platform == "linux" else 1
    shares = [chunks[len(chunks) * i // workers:len(chunks) * (i + 1) // workers]
              for i in range(workers)]
    children = {}  # pid -> the read end of its pipe, in fork order
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                _work(fn, args, share, write)
            os.close(write)
            children[pid] = open(read, "rb")
        parts = [fn(*args, lo, hi) for lo, hi in shares[0]]
        for pid, pipe in list(children.items()):
            with pipe:
                message = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            parts += _received(pid, status, message)
    finally:
        if children:
            import signal  # only on the way out of an exception

            for pid, pipe in children.items():
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def _work(fn, args: tuple, share: list, fd: int) -> None:
    """A forked worker of :func:`_map`: compute the chunks of ``share``, and
    pickle into the pipe ``fd`` either the list of their results or the
    exception raised with its traceback text.  It always ends with
    ``os._exit``, so it never returns into the caller's stack, runs
    ``atexit`` handlers or flushes inherited stdio buffers; its exit code
    is 0 only once the whole message is written."""
    code = 1
    try:
        try:
            message = (True, [fn(*args, lo, hi) for lo, hi in share])
        except BaseException as exc:
            import traceback

            text = "".join(traceback.format_exception(exc))
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:
                exc = RuntimeError(f"{type(exc).__name__}: {exc}")
            message = (False, (exc, text))
        with open(fd, "wb") as pipe:
            pickle.dump(message, pipe, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _received(pid: int, status: int, message: bytes) -> list:
    """The chunk results that worker ``pid`` sent before it ended with wait
    ``status``.  Raise the exception it sent instead, with its own type, or
    a ``RuntimeError`` with its text if it could not be pickled, chained
    from its traceback; a worker that sent nothing raises a
    ``RuntimeError`` naming its exit code or signal."""
    code = os.waitstatus_to_exitcode(status)
    if code or not message:
        import signal

        how = f"exit code {code}" if code >= 0 else f"signal {signal.Signals(-code).name}"
        raise RuntimeError(f"worker process {pid} ended with {how} and sent no results")
    done, payload = pickle.loads(message)
    if done:
        return payload
    exc, text = payload
    raise exc from RuntimeError(f"in worker process {pid}:\n{text}")


def _bootstrap_chunk(spec, vec, x, kinds, master_seed, observed, lo, hi) -> tuple:
    """Causes and statistics of the bootstrap draws ``lo + 1 .. hi``, all
    from and refitted at ``vec``, each decided against the ``observed``
    statistics by kind (``_statistics``)."""
    keys = range(lo + 1, hi + 1)
    vecs = np.tile(vec, (hi - lo, 1))
    x = np.broadcast_to(x, (hi - lo,) + x.shape)
    _, stats, cause = _replicate(spec, vecs, x, spec, vecs, kinds, master_seed,
                                 [("boot-sim", b) for b in keys], [("boot", b) for b in keys],
                                 observed)
    return cause, stats


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
    AssumptionViolationError
        If the observed data's fitted law breaks the floor or zero-variance rule.
    UnreliableBootstrapError
        If more than 20% of bootstrap fits fail.
    """
    _check_stats(config.stats, series.T)
    fit = fit_mle(spec, series)
    if not fit.converged:
        raise NonConvergenceError("fit on observed data did not converge", fit.theta_hat)
    master = config.master_seed
    kinds = config.stats
    fz = _noise_draws(series.T, master, "data")
    observed, law = _statistics(spec, fit.theta_hat.to_vector()[np.newaxis], _Batch.of(series),
                                fz[np.newaxis], kinds)
    law.check()

    args = (spec, fit.theta_hat.to_vector(), series.x, kinds, master, dict(zip(kinds, observed[0])))
    cause, draws = _map(_bootstrap_chunk, args, config.B, series.T, threads)
    kept = draws[cause == Cause.CONVERGED]
    failed = config.B - len(kept)
    if failed > MAX_FAILURE_SHARE * config.B:
        raise UnreliableBootstrapError(
            f"{failed} of {config.B} bootstrap fits failed; report would be unreliable"
        )
    results = tuple(
        StatResult(
            name=kind.name,
            value=float(observed[0, j]),
            p_value=pvalue(observed[0, j], kept[:, j]),
            n_replicates=len(kept),
        )
        for j, kind in enumerate(kinds)
    )
    return TestReport(
        statistics=results,
        theta_hat=fit.theta_hat,
        B=config.B,
        master_seed=master,
        failed_fits=failed,
    )


# --- Monte Carlo study ---------------------------------------------------------

# The AR(1) coefficient of the regressor path of every study replication
X_AR1 = 0.8


@dataclass(frozen=True)
class Scenario:
    """One (data generating process, null model) pairing of the study, whose
    replications draw their regressor as an AR(1) path at ``X_AR1``."""

    id: int
    label: str
    dgp_spec: ModelSpec
    dgp_theta: Theta
    null_spec: ModelSpec


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
    # failed replications by cause (FAILURE_LABELS); not part of the tables
    failures: dict[str, int] = field(default_factory=dict)

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


def _warp_replications(scenario: Scenario, T: int, kinds, master_seed: int, lo: int, hi: int) -> tuple:
    """Replications ``lo .. hi - 1``: statistics on data from the scenario DGP
    and on one bootstrap draw from the fitted null, as ``(cause, observed,
    draws)``; a replication fails with the cause of its first failed step."""
    rs = range(lo, hi)
    x = _x_ar1(X_AR1, T, [substream(master_seed, "mc-x", r) for r in rs])[..., np.newaxis]
    null = scenario.null_spec
    dgp = np.tile(scenario.dgp_theta.to_vector(), (hi - lo, 1))
    theta_hat, observed, cause = _replicate(
        scenario.dgp_spec, dgp, x, null, None, kinds, master_seed,
        [("mc-dgp", r) for r in rs], [("mc-data", r) for r in rs])
    draws = np.full_like(observed, np.nan)
    ok = np.flatnonzero(cause == Cause.CONVERGED)
    if ok.size:
        _, draws[ok], cause[ok] = _replicate(
            null, theta_hat[ok], x[ok], null, theta_hat[ok], kinds, master_seed,
            [("mc-boot", rs[i], 0) for i in ok], [("mc-boot-noise", rs[i], 0) for i in ok])
    return cause, observed, draws


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
    if master_seed < 0:
        raise ValueError(f"master_seed must be nonnegative, got {master_seed}")
    for level in levels:
        if not 0.0 < level < 1.0:
            raise ValueError(f"level {level} outside (0, 1)")
    _check_fittable(scenario.null_spec, T)
    _check_stats(stats, T)
    stat_names = tuple(k.name for k in stats)
    cause, observed, draws = _map(_warp_replications, (scenario, T, stats, master_seed), R, T, threads)
    kept = cause == Cause.CONVERGED
    failures = collections.Counter(FAILURE_LABELS[Cause(c)] for c in cause[~kept].tolist())
    failed = R - int(np.count_nonzero(kept))
    if failed > MAX_FAILURE_SHARE * R:
        raise UnreliableBootstrapError(f"{failed} of {R} replications failed")

    rates = np.zeros((len(levels), len(stat_names)))
    for j in range(len(stat_names)):
        pvals = pvalue(observed[kept, j], draws[kept, j])
        for i, level in enumerate(levels):
            rates[i, j] = 100.0 * float(np.mean(pvals <= level))
    return RejectionTable(
        scenario_id=scenario.id,
        label=scenario.label,
        T=T,
        R=R,
        R_effective=R - failed,
        levels=tuple(levels),
        stat_names=stat_names,
        rates=rates,
        master_seed=master_seed,
        failures=dict(sorted(failures.items())),
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

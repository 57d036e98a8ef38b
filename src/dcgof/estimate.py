"""Conditional maximum-likelihood estimation.

The log likelihood conditions on the truncated history: observations with
incomplete lag windows (the first ``max(q, 1)``) are dropped, and for models
with index autoregression the presample index lags are set to the
unconditional mean.  Optimization is Newton-Raphson with step-halving.  The
log likelihood, the per-observation scores and the Hessian are analytic and
come from one pass over the index recursion and the realized cells.  The
cells and their threshold gaps come from ``dcgof.model._cells``, the only
place where cell probabilities are evaluated, so the fit maximizes the law
under which the PIT is taken; a cell below ``PROB_FLOOR_HARD`` makes the log
likelihood ``-inf``.  The Hessian uses the derivative of the link density
and, with index autoregression, the second derivatives of the index carried
through the same recursion.  The step-halving stops once the predicted gain
is below the float resolution of the log likelihood.  Ordered thresholds are
optimized through the increasing-gap parameterization
``mu_j = mu_0 + sum_{k<=j} exp(c_k)`` so the monotonicity constraint never
binds.

``fit_mle`` starts from ``init`` when given (a warm start): the bootstrap
refits each simulated series from the parameter it was simulated from, which
is close to that series' estimate.  Without ``init`` it starts cold, from zero
slopes and ordered thresholds at the normal quantiles of the category
frequencies.

The fit is batched: ``_fit`` runs one Newton loop over a stack of series
(a ``dcgof.model._Batch``) and working vectors, and ``fit_mle`` is that loop
on a batch of one.  Per-row masks carry each fit through the line search and
the stopping rules with the step-halving rule, ``TOL_GRAD``, ``MAX_ITER``,
``THETA_CAP`` and ``LOGLIK_RESOLUTION`` of a single fit, and each row ends
with a cause code (``Cause``): converged, unconverged, or the failure that
``fit_mle`` turns into its exception.  A singular Hessian in one row falls
back to Levenberg damping for that row alone.  Every row is computed with
the same float operations as it would be alone, so a fit does not depend on
the batch it runs in.  Each point the loop tries (the start, a line-search
trial, a raw step) costs one pass, and an accepted point keeps the score
and Hessian of that pass for the next step.

Public functions check the link (one without a density slope in the link
table, ``chisq1``, has no regular likelihood), the series and the parameter;
underscore kernels (``_loglik_pass``, the Newton loop) take checked arrays.
The line search has one trial rule instead: a step that is not finite, whose
thresholds are not strictly increasing, or that is not stationary scores
``-inf`` and is rejected, so a fit that fails this way raises a
``NonConvergenceError`` (a failed bootstrap replicate), not a ``ValueError``.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import _special
from .model import (
    _LINKS,
    PROB_FLOOR_HARD,
    ModelSpec,
    Series,
    Theta,
    _Batch,
    _cells,
    _dot,
    _index_ar_stationary,
    _index_kernel,
    _thresholds,
)

__all__ = [
    "FitResult",
    "NonConvergenceError",
    "SeparationError",
    "ThresholdCollapseError",
    "loglik",
    "score",
    "score_contributions",
    "fit_mle",
]

# relative float resolution of a summed log likelihood
LOGLIK_RESOLUTION = 1e-12
# Newton stops once the max-norm of the working score is below TOL_GRAD, or
# after MAX_ITER iterations; a working parameter beyond THETA_CAP in absolute
# value is divergence (separation), a threshold gap below TOL_MU a collapse.
TOL_GRAD = 1e-8
MAX_ITER = 100
THETA_CAP = 1e3
TOL_MU = 1e-8


class NonConvergenceError(RuntimeError):
    """Optimization failed; carries the last iterate."""

    def __init__(self, message: str, last_theta: Theta | None = None):
        super().__init__(message)
        self.last_theta = last_theta


class SeparationError(NonConvergenceError):
    """Perfect separation or parameter divergence."""


class ThresholdCollapseError(NonConvergenceError):
    """Adjacent thresholds collapsed during optimization."""


@dataclass(frozen=True)
class FitResult:
    """Estimation output.

    ``info_matrix`` is the average outer product of the per-observation
    scores in natural coordinates, an estimate of the information.
    ``score_norm`` is the max-norm of the free-parameter gradient at the
    returned estimate.
    """

    theta_hat: Theta
    loglik: float
    score_norm: float
    info_matrix: np.ndarray
    iterations: int
    converged: bool
    n_obs: int
    loglik_trace: tuple[float, ...] = ()

    def stderr(self, spec: ModelSpec) -> np.ndarray:
        """Asymptotic standard errors from the inverse information of the free
        coordinates.  Ordered models fix the intercept at 0, so its row and
        column are left out and its standard error is 0."""
        k = 1 if spec.ordered else 0
        cov = np.linalg.inv(self.info_matrix[k:, k:] * self.n_obs)
        se = np.zeros(self.info_matrix.shape[0])
        se[k:] = np.sqrt(np.maximum(np.diag(cov), 0.0))
        return se

    def to_json_dict(self) -> dict:
        return {
            "theta_hat": self.theta_hat.to_json_dict(),
            "loglik": self.loglik,
            "score_norm": self.score_norm,
            "iterations": self.iterations,
            "converged": self.converged,
            "n_obs": self.n_obs,
            "info_matrix": [list(map(float, row)) for row in self.info_matrix],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def _window_start(spec: ModelSpec) -> int:
    return max(spec.q, 1)


def _check_fittable(spec: ModelSpec, T: int | None = None) -> None:
    """Rejects a link without a density slope in the link table and, given
    ``T``, a series too short to fit."""
    if _LINKS[spec.link].pdf_slope is None:
        raise ValueError(f"the {spec.link.value} link cannot be fitted: its errors start at "
                         "-1/sqrt(2), where its likelihood has square-root cusps")
    if T is not None and T <= spec.n_params + spec.max_lag:
        raise ValueError(
            f"need T > {spec.n_params + spec.max_lag} observations to fit {spec.n_params} parameters"
        )


def _mT(A: np.ndarray) -> np.ndarray:
    """Transpose of the last two axes."""
    return np.swapaxes(A, -1, -2)


def _loglik_pass(
    spec: ModelSpec, vec: np.ndarray, series
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One pass at the natural vector ``vec`` over the index kernel and the
    realized cells from :func:`dcgof.model._cells`, float for float the
    cells of the laws and the PIT.

    Leading axes of ``vec`` (..., L) and ``series`` (a ``Series`` or a
    ``dcgof.model._Batch``) are batch axes.  Returns ``(ll, S, H)``: the log
    likelihood (``-inf`` when a realized cell probability is below
    ``PROB_FLOOR_HARD``), the per-observation scores ``S``, shape
    (..., n, L), and the Hessian ``H`` of the log likelihood, shape
    (..., L, L).  All in natural coordinates; inputs are not validated.

    The Hessian is ``U' diag(f'(hi)/p) U - V' diag(f'(lo)/p) V - S'S`` plus
    ``sum_t s_t d^2 pi_t / d theta d theta'``, where ``U = [G, -e_y]`` and
    ``V = [G, -e_{y-1}]`` are the gradients of ``pi - mu_y`` and
    ``pi - mu_{y-1}``, and ``s_t = (f(lo) - f(hi))/p`` is the score in the
    index.  In the binary case ``U = V = G``.
    """
    i0 = _window_start(spec)
    pi, G, M = _index_kernel(spec, vec, series, curvature=True)
    pi, G, y = pi[..., i0:], G[..., i0:, :], series.y[..., i0:]
    p, lo, hi = _cells(spec, _thresholds(vec[..., spec.n_index :]), pi, y)
    below_floor = np.min(p, axis=-1) < PROB_FLOOR_HARD
    p = np.maximum(p, PROB_FLOOR_HARD)
    ll = np.where(below_floor, -np.inf, np.sum(np.log(p), axis=-1))
    link = _LINKS[spec.link]
    has_lo, has_hi = y > 0, y < spec.support_size
    f_lo = np.where(has_lo, link.pdf(lo), 0.0)
    f_hi = np.where(has_hi, link.pdf(hi), 0.0)
    dlp_dpi = (f_lo - f_hi) / p
    L = spec.n_params
    n_idx = spec.n_index
    S = np.zeros(y.shape + (L,))
    S[..., :n_idx] = dlp_dpi[..., None] * G
    U = V = G
    if spec.ordered:
        # one-hot columns of the realized thresholds mu_y and mu_{y-1}
        at_hi = y[..., None] == np.arange(spec.support_size)
        at_lo = y[..., None] == np.arange(1, spec.support_size + 1)
        S[..., n_idx:] = at_hi * (f_hi / p)[..., None] - at_lo * (f_lo / p)[..., None]
        U = np.zeros(y.shape + (L,))
        U[..., :n_idx] = G
        V = U.copy()
        U[..., n_idx:] = np.where(at_hi, -1.0, 0.0)
        V[..., n_idx:] = np.where(at_lo, -1.0, 0.0)
    w_hi = link.pdf_slope(hi, f_hi) / p
    w_lo = link.pdf_slope(lo, f_lo) / p
    H = _mT(U) @ (w_hi[..., None] * U) - _mT(V) @ (w_lo[..., None] * V) - _mT(S) @ S
    if M is not None:
        # d^2 pi_t is nonzero only in the alpha rows and columns
        M = M[..., i0:, :, :]
        flat = M.reshape(M.shape[:-2] + (-1,))
        A = (dlp_dpi[..., None, :] @ flat)[..., 0, :].reshape(M.shape[:-3] + M.shape[-2:])
        ac = spec.alpha_slice
        H[..., ac, :n_idx] += A
        H[..., :n_idx, ac] += _mT(A)
        H[..., ac, ac] -= A[..., ac]
    return ll, S, (H + _mT(H)) / 2.0


def loglik(spec: ModelSpec, theta: Theta, series: Series) -> float:
    """Conditional log likelihood over observations with complete lag windows.

    Returns ``-inf`` when a realized cell probability is below ``PROB_FLOOR_HARD``.
    """
    _check_fittable(spec)
    theta.validate(spec)
    series.validate(spec)
    return float(_loglik_pass(spec, theta.to_vector()[None], _Batch.of(series))[0][0])


def score_contributions(spec: ModelSpec, theta: Theta, series: Series) -> np.ndarray:
    """Per-observation score vectors in natural coordinates, shape (n, L)."""
    _check_fittable(spec)
    theta.validate(spec)
    series.validate(spec)
    return _loglik_pass(spec, theta.to_vector()[None], _Batch.of(series))[1][0]


def score(spec: ModelSpec, theta: Theta, series: Series) -> np.ndarray:
    """Analytic gradient of :func:`loglik` in natural coordinates."""
    return score_contributions(spec, theta, series).sum(axis=0)


# --- working parameterization -------------------------------------------------

class _WorkingMap:
    """Maps natural parameter vectors to unconstrained working vectors and back,
    along the last axis (leading axes are batch axes).

    Binary models use the natural coordinates directly.  Ordered models drop
    the (fixed) intercept and represent thresholds as the first threshold
    plus log gaps.
    """

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.n_free = spec.n_params - 1 if spec.ordered else spec.n_params

    def to_working(self, vec: np.ndarray) -> np.ndarray:
        """Working vector of a natural vector with strictly increasing thresholds."""
        if not self.spec.ordered:
            return vec.copy()
        n = self.spec.n_index
        mu = vec[..., n:]
        return np.concatenate(
            (vec[..., 1:n], mu[..., :1], np.log(np.diff(mu, axis=-1))), axis=-1
        )

    def to_natural(self, w: np.ndarray) -> np.ndarray:
        if not self.spec.ordered:
            return w
        n = self.spec.n_index
        wm = w[..., n - 1 :]
        mu = np.concatenate(
            (wm[..., :1], wm[..., :1] + np.cumsum(np.exp(wm[..., 1:]), axis=-1)), axis=-1
        )
        return np.concatenate((np.zeros(w.shape[:-1] + (1,)), w[..., : n - 1], mu), axis=-1)

    def to_theta(self, w: np.ndarray) -> Theta:
        return Theta.from_vector(self.spec, self.to_natural(w))

    def derivatives_to_working(
        self, w: np.ndarray, g_nat: np.ndarray, H_nat: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Gradient and Hessian in working coordinates, by the Jacobian
        ``d theta / d w`` of the log-gap map.  The map is linear except in
        the log gaps, whose second derivative ``d^2 mu_j / d c_k^2 =
        exp(c_k)`` (``k <= j``) adds each log gap's own working-score entry
        to its diagonal entry."""
        if not self.spec.ordered:
            return g_nat, H_nat
        J, F = self.spec.support_size, self.n_free
        lead = w.shape[:-1]
        scale = np.concatenate((np.ones(lead + (1,)), np.exp(w[..., F - J + 1 :])), axis=-1)
        jac = np.zeros(lead + (F, F))
        jac[..., np.arange(F), np.arange(F)] = 1.0
        jac[..., -J:, -J:] = np.tril(np.ones((J, J))) * scale[..., None, :]
        g = (_mT(jac) @ g_nat[..., 1:, None])[..., 0]
        H = _mT(jac) @ H_nat[..., 1:, 1:] @ jac
        gaps = np.arange(F - J + 1, F)
        H[..., gaps, gaps] += g[..., gaps]
        return g, H


# --- the batched fit ------------------------------------------------------------

class Cause(enum.IntEnum):
    """How the fit of one row of a batch ended, or why its replicate failed.

    ``CONVERGED`` and ``UNCONVERGED`` fits return (``fit_mle`` reports
    ``converged=False`` for the latter); the other fit causes are the
    exceptions of :data:`_ERRORS`.  ``FLOOR`` and ``ZERO_VARIANCE`` are
    replicates whose fitted law breaks the probability floor or has a zero
    conditional variance, an ``AssumptionViolationError`` on one series.
    """

    CONVERGED = 0
    UNCONVERGED = 1
    DEGENERATE_START = 2
    EMPTY_EXTREME = 3
    DIVERGED = 4
    EMPTY_MIDDLE = 5
    GAP_COLLAPSE = 6
    FLOOR = 7
    ZERO_VARIANCE = 8


_ERRORS = {
    Cause.DEGENERATE_START: (NonConvergenceError, "initial point has degenerate likelihood"),
    Cause.EMPTY_EXTREME: (
        SeparationError,
        "an extreme outcome category is empty: the likelihood has no interior maximum",
    ),
    Cause.DIVERGED: (
        SeparationError,
        f"parameter norm exceeded cap {THETA_CAP:g}: perfect separation or divergence",
    ),
    Cause.EMPTY_MIDDLE: (
        ThresholdCollapseError,
        "a middle outcome category is empty: adjacent thresholds collapse",
    ),
    Cause.GAP_COLLAPSE: (ThresholdCollapseError, f"threshold gap fell below {TOL_MU:g}"),
}


class _Fits(NamedTuple):
    """Per-row result of :func:`_newton`: the natural vector of the last
    iterate (the start for a row that never ran), its log likelihood, the
    max-norm of its working score, the iteration count, the cause code and
    the accepted log-likelihood trace."""

    vec: np.ndarray
    ll: np.ndarray
    score_norm: np.ndarray
    iterations: np.ndarray
    cause: np.ndarray
    trace: list


def _category_counts(spec: ModelSpec, y: np.ndarray) -> np.ndarray:
    """Counts of each outcome ``0..J`` over the likelihood window, per row."""
    y = y[..., _window_start(spec) :]
    return np.count_nonzero(y[..., None] == np.arange(spec.support_size + 1), axis=-2)


def _category_causes(spec: ModelSpec, y: np.ndarray) -> np.ndarray:
    """``EMPTY_EXTREME`` or ``EMPTY_MIDDLE`` for a row whose likelihood has
    no interior maximum, else ``CONVERGED`` (the row is fitted)."""
    counts = _category_counts(spec, y)
    J = spec.support_size
    return np.select(
        [(counts[..., 0] == 0) | (counts[..., J] == 0), np.any(counts[..., 1:J] == 0, axis=-1)],
        [Cause.EMPTY_EXTREME, Cause.EMPTY_MIDDLE],
        Cause.CONVERGED,
    )


def _default_init(spec: ModelSpec, series, cause: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cold start of each row, a natural vector: all parameters zero,
    ordered thresholds at normal quantiles of the empirical category
    frequencies.  Returns it with ``cause``, updated when a row's start
    itself fails."""
    if spec.p_ar:
        # From the all-zero start the index path is flat, so the score in
        # alpha vanishes and the first Newton steps can head for a spurious
        # mode near alpha = -1.  Start from the fit without index
        # autoregression instead.
        base = replace(spec, p_ar=0)
        fit = _newton(base, series, *_default_init(base, series, cause))
        cause = np.where(fit.cause == Cause.UNCONVERGED, Cause.CONVERGED, fit.cause)
        return np.insert(fit.vec, [spec.alpha_slice.start] * spec.p_ar, 0.0, axis=-1), cause
    vec = np.zeros(series.y.shape[:-1] + (spec.n_params,))
    if not spec.ordered:
        return vec, cause
    counts = _category_counts(spec, series.y)
    n = counts.sum(axis=-1, keepdims=True)
    J = spec.support_size
    cum = np.cumsum(counts[..., :-1], axis=-1) / n
    cum = np.clip(cum, 1.0 / (n + 1.0), 1.0 - 1.0 / (n + 1.0))
    mu = _special.ndtri(cum)
    # enforce strictly increasing in pathological clipped cases
    for j in range(1, J):
        mu[..., j] = np.where(mu[..., j] <= mu[..., j - 1], mu[..., j - 1] + 1e-3, mu[..., j])
    vec[..., -J:] = mu
    return vec, cause


def _fit(spec: ModelSpec, series, init: np.ndarray | None) -> _Fits:
    """Fits of a batch (``dcgof.model._Batch``), each row started at its row
    of ``init`` (warm) or at :func:`_default_init` (cold, ``init=None``)."""
    cause = _category_causes(spec, series.y)
    if init is None:
        init, cause = _default_init(spec, series, cause)
    return _newton(spec, series, init, cause)


def fit_mle(
    spec: ModelSpec,
    series: Series,
    init: Theta | None = None,
) -> FitResult:
    """Newton-Raphson conditional ML fit, started at ``init`` when given
    (warm) and at :func:`_default_init` otherwise (cold): the batched fit on
    a batch of one.

    Raises
    ------
    SeparationError
        On perfect separation (degenerate category counts or parameter
        divergence beyond the cap).
    ThresholdCollapseError
        When adjacent thresholds collapse.
    NonConvergenceError
        When the start has a degenerate likelihood.
    """
    _check_fittable(spec, series.T)
    series.validate(spec)
    if init is not None:
        init.validate(spec)
        init = init.to_vector()[np.newaxis]
    batch = _Batch.of(series)
    fit = _fit(spec, batch, init)
    cause = Cause(int(fit.cause[0]))
    if cause in _ERRORS:
        error, message = _ERRORS[cause]
        last = None if cause in (Cause.EMPTY_EXTREME, Cause.EMPTY_MIDDLE) else fit.vec[0]
        raise error(message, None if last is None else Theta.from_vector(spec, last))
    # the loop keeps no per-observation scores: one more pass at the estimate
    S = _loglik_pass(spec, fit.vec[:1], batch)[1][0]
    return FitResult(
        theta_hat=Theta.from_vector(spec, fit.vec[0]),
        loglik=float(fit.ll[0]),
        score_norm=float(fit.score_norm[0]),
        info_matrix=S.T @ S / S.shape[0],
        iterations=int(fit.iterations[0]),
        converged=cause is Cause.CONVERGED,
        n_obs=S.shape[0],
        loglik_trace=tuple(fit.trace[0]),
    )


def _newton(spec: ModelSpec, series, vec: np.ndarray, cause: np.ndarray) -> _Fits:
    """Newton loop of :func:`fit_mle` over a batch from the natural vectors
    ``vec`` (K, L), on checked rows; rows whose ``cause`` is not
    ``CONVERGED`` are skipped and keep it.

    Every row follows the rule of a single fit, tracked by masks: the
    iteration count, the step-halving line search (one trial per round for
    each row still searching) and the stopping and failure rules.  A row's
    numbers depend on its own data alone, so they are the same in any batch.
    """
    wmap = _WorkingMap(spec)
    K, F = vec.shape[0], wmap.n_free
    with np.errstate(divide="ignore", invalid="ignore"):  # in rows that are skipped
        w = wmap.to_working(vec)
    cause = np.array(cause, dtype=np.int64)

    def evaluate(rows: np.ndarray, w_rows: np.ndarray):
        # the log likelihood, working score and Hessian of each point; one
        # that breaks the trial rule (see the module docstring) scores -inf
        with np.errstate(over="ignore", invalid="ignore"):
            nat = wmap.to_natural(w_rows)
            ok = np.all(np.isfinite(nat), axis=-1)
            ok &= np.all(np.diff(nat[:, spec.n_index :], axis=-1) > 0.0, axis=-1)
        if spec.p_ar:
            ok[ok] = [_index_ar_stationary(a) for a in nat[ok][:, spec.alpha_slice]]
        ll_rows = np.full(len(rows), -np.inf)
        g_rows, H_rows = np.zeros((len(rows), F)), np.zeros((len(rows), F, F))
        if ok.any():
            ll_rows[ok], S, H_nat = _loglik_pass(spec, nat[ok], series.take(rows[ok]))
            g_rows[ok], H_rows[ok] = wmap.derivatives_to_working(w_rows[ok], S.sum(axis=-2), H_nat)
        return ll_rows, g_rows, H_rows

    ll = np.full(K, -np.inf)
    g = np.zeros((K, F))
    H = np.zeros((K, F, F))
    iterations = np.zeros(K, dtype=np.int64)
    converged = np.zeros(K, dtype=bool)
    rows = np.flatnonzero(cause == Cause.CONVERGED)
    ll[rows], g[rows], H[rows] = evaluate(rows, w[rows])
    trace = [[v] for v in ll.tolist()]
    cause[rows[~np.isfinite(ll[rows])]] = Cause.DEGENERATE_START
    rows = np.flatnonzero(cause == Cause.CONVERGED)
    converged[rows] = np.max(np.abs(g[rows]), axis=-1) <= TOL_GRAD
    live = (cause == Cause.CONVERGED) & ~converged

    while True:
        live &= iterations < MAX_ITER
        rows = np.flatnonzero(live)
        if not rows.size:
            break
        iterations[rows] += 1
        d = _ascent_direction(H[rows], g[rows])
        # step-halving line search, stopped once the predicted gain falls
        # below the float resolution of the log likelihood, where a trial
        # can no longer show an increase
        resolution = LOGLIK_RESOLUTION * np.maximum(1.0, np.abs(ll[rows]))
        gain = _dot(g[rows], d)
        eta = np.ones(rows.size)
        accepted = np.zeros(rows.size, dtype=bool)
        searching = np.ones(rows.size, dtype=bool)
        for _ in range(60):
            searching &= ~(eta * gain < resolution)
            at = np.flatnonzero(searching)
            if not at.size:
                break
            w_try = w[rows[at]] + eta[at, None] * d[at]
            ll_try, g_try, H_try = evaluate(rows[at], w_try)
            better = np.isfinite(ll_try) & (ll_try > ll[rows[at]])
            won, r = at[better], rows[at[better]]
            accepted[won] = True
            w[r], ll[r], g[r], H[r] = w_try[better], ll_try[better], g_try[better], H_try[better]
            searching[won] = False
            eta[at[~better]] *= 0.5
        for r, v in zip(rows[accepted].tolist(), ll[rows[accepted]].tolist()):
            trace[r].append(v)
        raw = rows[~accepted]
        if raw.size:
            # So close to the optimum that the quadratic gain is below the
            # float resolution of the log likelihood: accept the raw Newton
            # step as long as it shrinks the score; otherwise the row stops.
            w_raw = w[raw] + d[~accepted]
            ll_raw, g_raw, H_raw = evaluate(raw, w_raw)
            shrinks = np.isfinite(ll_raw)
            shrinks &= ~(np.max(np.abs(g_raw), axis=-1) >= np.max(np.abs(g[raw]), axis=-1))
            live[raw[~shrinks]] = False
            r = raw[shrinks]
            w[r], ll[r], g[r], H[r] = w_raw[shrinks], ll_raw[shrinks], g_raw[shrinks], H_raw[shrinks]
        rows = rows[live[rows]]
        # the log gaps of ordered thresholds; empty in the binary case
        collapsed = np.any(w[rows, spec.n_index :] < math.log(TOL_MU), axis=-1)
        cause[rows[collapsed]] = Cause.GAP_COLLAPSE
        rows = rows[~collapsed]
        diverged = np.max(np.abs(w[rows]), axis=-1) > THETA_CAP
        cause[rows[diverged]] = Cause.DIVERGED
        rows = rows[~diverged]
        converged[rows] = np.max(np.abs(g[rows]), axis=-1) <= TOL_GRAD
        live &= (cause == Cause.CONVERGED) & ~converged

    cause[(cause == Cause.CONVERGED) & ~converged] = Cause.UNCONVERGED
    with np.errstate(over="ignore"):
        nat = wmap.to_natural(w)
    return _Fits(nat, ll, np.max(np.abs(g), axis=-1), iterations, cause, trace)


def _solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``A[i]^-1 b[i]`` for each row; NaN for a row whose matrix is singular."""
    try:
        return np.linalg.solve(A, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.full(b.shape, np.nan)
        for i in range(len(b)):
            try:
                out[i] = np.linalg.solve(A[i], b[i, :, None])[:, 0]
            except np.linalg.LinAlgError:
                pass
        return out


def _ascent_direction(H: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Newton direction of each row, with Levenberg damping for a row whose
    Hessian misbehaves (singular, not finite, or not giving an ascent)."""
    A = -H
    F = g.shape[-1]
    scale = np.maximum(np.trace(A, axis1=-2, axis2=-1) / F, 1.0)
    d = g / scale[:, None]
    lam = np.zeros(len(g))
    todo = np.arange(len(g))
    eye = np.eye(F)
    for _ in range(12):
        trial = _solve(A[todo] + lam[todo, None, None] * eye, g[todo])
        with np.errstate(invalid="ignore"):
            ok = np.all(np.isfinite(trial), axis=-1) & (_dot(trial, g[todo]) > 0.0)
        d[todo[ok]] = trial[ok]
        todo = todo[~ok]
        if not todo.size:
            break
        lam[todo] = np.maximum(2.0 * lam[todo], 1e-8 * scale[todo]) * 10.0
    return d

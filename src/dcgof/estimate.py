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

Public functions check the series and the parameter; underscore kernels
(``_loglik_pass``, the Newton loop) take checked arrays.  The line search
has one trial rule instead: a step that is not finite, whose thresholds are
not strictly increasing, or that is not stationary scores ``-inf`` and is
rejected, so a fit that fails this way raises a ``NonConvergenceError`` (a
failed bootstrap replicate), not a ``ValueError``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import special

from .model import (
    _LINKS,
    PROB_FLOOR_HARD,
    ModelSpec,
    Series,
    Theta,
    _cells,
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


def _loglik_pass(
    spec: ModelSpec, vec: np.ndarray, series: Series, order: int
) -> tuple[float, np.ndarray | None, np.ndarray | None]:
    """One pass at the natural vector ``vec`` over the index kernel and the
    realized cells, which come from :func:`dcgof.model._cells` like those of
    the PIT and the laws.

    Returns ``(ll, S, H)``: the log likelihood (``-inf`` when a realized
    cell probability is below ``PROB_FLOOR_HARD``); for ``order >= 1`` the
    per-observation scores ``S``, shape (n, L); for ``order == 2`` the
    Hessian ``H`` of the log likelihood, shape (L, L).  All in natural
    coordinates; inputs are not validated.

    The Hessian is ``U' diag(f'(hi)/p) U - V' diag(f'(lo)/p) V - S'S`` plus
    ``sum_t s_t d^2 pi_t / d theta d theta'``, where ``U = [G, -e_y]`` and
    ``V = [G, -e_{y-1}]`` are the gradients of ``pi - mu_y`` and
    ``pi - mu_{y-1}``, and ``s_t = (f(lo) - f(hi))/p`` is the score in the
    index.  In the binary case ``U = V = G``.
    """
    i0 = _window_start(spec)
    kernel = _index_kernel(spec, vec, series, curvature=order == 2)
    pi, G, y = kernel[0][i0:], kernel[1][i0:], series.y[i0:]
    p, _, lo, hi = _cells(spec, _thresholds(vec[spec.n_index :]), pi, y)
    ll = -np.inf if p.min() < PROB_FLOOR_HARD else float(np.sum(np.log(p)))
    if order == 0:
        return ll, None, None
    link = _LINKS[spec.link]
    p = np.maximum(p, PROB_FLOOR_HARD)
    has_lo, has_hi = y > 0, y < spec.support_size
    f_lo = np.where(has_lo, link.pdf(lo), 0.0)
    f_hi = np.where(has_hi, link.pdf(hi), 0.0)
    dlp_dpi = (f_lo - f_hi) / p
    n = y.shape[0]
    L = spec.n_params
    n_idx = spec.n_index
    S = np.zeros((n, L))
    S[:, :n_idx] = dlp_dpi[:, None] * G
    if spec.ordered:
        rows = np.arange(n)
        S[rows[has_hi], n_idx + y[has_hi]] += f_hi[has_hi] / p[has_hi]
        S[rows[has_lo], n_idx + y[has_lo] - 1] -= f_lo[has_lo] / p[has_lo]
    if order == 1:
        return ll, S, None

    U = V = G
    if spec.ordered:
        U = np.zeros((n, L))
        U[:, :n_idx] = G
        V = U.copy()
        U[rows[has_hi], n_idx + y[has_hi]] = -1.0
        V[rows[has_lo], n_idx + y[has_lo] - 1] = -1.0
    w_hi = link.pdf_slope(hi, f_hi) / p
    w_lo = link.pdf_slope(lo, f_lo) / p
    H = U.T @ (w_hi[:, None] * U) - V.T @ (w_lo[:, None] * V) - S.T @ S
    M = kernel[2]
    if M is not None:
        # d^2 pi_t is nonzero only in the alpha rows and columns
        A = np.tensordot(dlp_dpi, M[i0:], axes=1)
        ac = spec.alpha_slice
        H[ac, :n_idx] += A
        H[:n_idx, ac] += A.T
        H[ac, ac] -= A[:, ac]
    return ll, S, (H + H.T) / 2.0


def loglik(spec: ModelSpec, theta: Theta, series: Series) -> float:
    """Conditional log likelihood over observations with complete lag windows.

    Returns ``-inf`` when a realized cell probability is below ``PROB_FLOOR_HARD``.
    """
    theta.validate(spec)
    series.validate(spec)
    return _loglik_pass(spec, theta.to_vector(), series, 0)[0]


def score_contributions(spec: ModelSpec, theta: Theta, series: Series) -> np.ndarray:
    """Per-observation score vectors in natural coordinates, shape (n, L)."""
    theta.validate(spec)
    series.validate(spec)
    return _loglik_pass(spec, theta.to_vector(), series, 1)[1]


def score(spec: ModelSpec, theta: Theta, series: Series) -> np.ndarray:
    """Analytic gradient of :func:`loglik` in natural coordinates."""
    return score_contributions(spec, theta, series).sum(axis=0)


# --- working parameterization -------------------------------------------------

class _WorkingMap:
    """Maps natural parameter vectors to unconstrained working vectors and back.

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
        mu = vec[self.spec.n_index :]
        return np.concatenate((vec[1 : self.spec.n_index], mu[:1], np.log(np.diff(mu))))

    def to_natural(self, w: np.ndarray) -> np.ndarray:
        if not self.spec.ordered:
            return w
        wm = w[self.spec.n_index - 1 :]
        mu = np.concatenate(([wm[0]], wm[0] + np.cumsum(np.exp(wm[1:]))))
        return np.concatenate(([0.0], w[: self.spec.n_index - 1], mu))

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
        J = self.spec.support_size
        scale = np.concatenate(([1.0], np.exp(w[self.n_free - J + 1 :])))
        jac = np.eye(self.n_free)
        jac[-J:, -J:] = np.tril(np.ones((J, J))) * scale
        g = jac.T @ g_nat[1:]
        H = jac.T @ H_nat[1:, 1:] @ jac
        gaps = np.arange(self.n_free - J + 1, self.n_free)
        H[gaps, gaps] += g[gaps]
        return g, H


def _default_init(spec: ModelSpec, series: Series) -> np.ndarray:
    """The cold start, a natural vector: all parameters zero, ordered
    thresholds at normal quantiles of the empirical category frequencies."""
    if spec.p_ar:
        # From the all-zero start the index path is flat, so the score in
        # alpha vanishes and the first Newton steps can head for a spurious
        # mode near alpha = -1.  Start from the fit without index
        # autoregression instead.
        base = replace(spec, p_ar=0)
        vec = _newton(base, series, _default_init(base, series)).theta_hat.to_vector()
        return np.insert(vec, spec.alpha_slice.start, np.zeros(spec.p_ar))
    vec = np.zeros(spec.n_params)
    if not spec.ordered:
        return vec
    i0 = _window_start(spec)
    y = series.y[i0:]
    n = y.shape[0]
    J = spec.support_size
    counts = np.bincount(y, minlength=J + 1)
    cum = np.cumsum(counts[:-1]) / n
    cum = np.clip(cum, 1.0 / (n + 1.0), 1.0 - 1.0 / (n + 1.0))
    mu = special.ndtri(cum)
    # enforce strictly increasing in pathological clipped cases
    for j in range(1, J):
        if mu[j] <= mu[j - 1]:
            mu[j] = mu[j - 1] + 1e-3
    vec[-J:] = mu
    return vec


def _check_category_counts(spec: ModelSpec, series: Series) -> None:
    i0 = _window_start(spec)
    counts = np.bincount(series.y[i0:], minlength=spec.support_size + 1)
    J = spec.support_size
    if counts[0] == 0 or counts[J] == 0:
        raise SeparationError(
            "an extreme outcome category is empty: the likelihood has no interior maximum"
        )
    middle = np.nonzero(counts[1:J] == 0)[0]
    if middle.size:
        raise ThresholdCollapseError(
            f"outcome category {int(middle[0]) + 1} is empty: adjacent thresholds collapse"
        )


def fit_mle(
    spec: ModelSpec,
    series: Series,
    init: Theta | None = None,
) -> FitResult:
    """Newton-Raphson conditional ML fit, started at ``init`` when given
    (warm) and at :func:`_default_init` otherwise (cold).

    Raises
    ------
    SeparationError
        On perfect separation (degenerate category counts or parameter
        divergence beyond the cap).
    ThresholdCollapseError
        When adjacent thresholds collapse.
    """
    series.validate(spec)
    max_lag = max(spec.q, spec.p_ar, 1)
    if series.T <= spec.n_params + max_lag:
        raise ValueError(
            f"need T > {spec.n_params + max_lag} observations to fit {spec.n_params} parameters"
        )
    _check_category_counts(spec, series)
    if init is None:
        return _newton(spec, series, _default_init(spec, series))
    init.validate(spec)
    return _newton(spec, series, init.to_vector())


def _newton(spec: ModelSpec, series: Series, vec: np.ndarray) -> FitResult:
    """Newton loop of :func:`fit_mle` from the natural vector ``vec`` on a checked series."""
    wmap = _WorkingMap(spec)
    w = wmap.to_working(vec)

    def ll_of(w_vec: np.ndarray) -> float:
        # the trial rule: see the module docstring
        nat = wmap.to_natural(w_vec)
        if not (np.all(np.isfinite(nat)) and np.all(np.diff(nat[spec.n_index :]) > 0.0)
                and _index_ar_stationary(nat[spec.alpha_slice])):
            return -np.inf
        return _loglik_pass(spec, nat, series, 0)[0]

    def derivatives_of(w_vec: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        _, S, H = _loglik_pass(spec, wmap.to_natural(w_vec), series, 2)
        return (*wmap.derivatives_to_working(w_vec, S.sum(axis=0), H), S)

    ll = ll_of(w)
    if not np.isfinite(ll):
        raise NonConvergenceError("initial point has degenerate likelihood", wmap.to_theta(w))
    trace = [ll]
    g, H, S = derivatives_of(w)
    iterations = 0
    converged = bool(np.max(np.abs(g)) <= TOL_GRAD)

    while not converged and iterations < MAX_ITER:
        iterations += 1
        d = _ascent_direction(H, g)
        # step-halving line search, stopped once the predicted gain falls
        # below the float resolution of the log likelihood, where a trial
        # can no longer show an increase
        resolution = LOGLIK_RESOLUTION * max(1.0, abs(ll))
        gain = float(g @ d)
        eta = 1.0
        accepted = False
        for _ in range(60):
            if eta * gain < resolution:
                break
            w_new = w + eta * d
            ll_new = ll_of(w_new)
            if np.isfinite(ll_new) and ll_new > ll:
                accepted = True
                break
            eta *= 0.5
        if accepted:
            w, ll = w_new, ll_new
            trace.append(ll)
            g, H, S = derivatives_of(w)
        else:
            # So close to the optimum that the quadratic gain is below the
            # float resolution of the log likelihood: accept the raw Newton
            # step as long as it shrinks the score.
            w_new = w + d
            ll_new = ll_of(w_new)
            if not np.isfinite(ll_new):
                break
            g_new, H_new, S_new = derivatives_of(w_new)
            if np.max(np.abs(g_new)) >= np.max(np.abs(g)):
                break
            w, ll, g, H, S = w_new, ll_new, g_new, H_new, S_new
        # the log gaps of ordered thresholds; empty in the binary case
        if np.any(w[spec.n_index :] < math.log(TOL_MU)):
            raise ThresholdCollapseError(f"threshold gap fell below {TOL_MU:g}", wmap.to_theta(w))
        if np.max(np.abs(w)) > THETA_CAP:
            raise SeparationError(
                f"parameter norm exceeded cap {THETA_CAP:g}: perfect separation "
                "or divergence",
                wmap.to_theta(w),
            )
        converged = bool(np.max(np.abs(g)) <= TOL_GRAD)

    # S holds the score contributions at w
    return FitResult(
        theta_hat=wmap.to_theta(w),
        loglik=ll,
        score_norm=float(np.max(np.abs(g))),
        info_matrix=S.T @ S / S.shape[0],
        iterations=iterations,
        converged=converged,
        n_obs=S.shape[0],
        loglik_trace=tuple(trace),
    )


def _ascent_direction(H: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Newton direction, with Levenberg damping if the Hessian misbehaves."""
    A = -H
    lam = 0.0
    scale = max(np.trace(A) / A.shape[0], 1.0)
    for _ in range(12):
        try:
            d = np.linalg.solve(A + lam * np.eye(A.shape[0]), g)
        except np.linalg.LinAlgError:
            d = None
        if d is not None and np.isfinite(d).all() and float(d @ g) > 0.0:
            return d
        lam = max(2.0 * lam, 1e-8 * scale) * 10.0
    return g / scale

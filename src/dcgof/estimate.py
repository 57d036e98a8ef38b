"""Conditional maximum-likelihood estimation.

The log likelihood conditions on the truncated history: observations with
incomplete lag windows (the first ``max(q, 1)``) are dropped, and for models
with index autoregression the presample index lags are set to the
unconditional mean.  Optimization is Newton-Raphson with step-halving.  The
log likelihood, the per-observation scores and the Hessian are analytic and
come from one pass over the index recursion and the realized cells; the
Hessian uses the derivative of the link density and, with index
autoregression, the second derivatives of the index carried through the same
recursion.  The step-halving stops once the predicted gain is below the float
resolution of the log likelihood.  Ordered thresholds are optimized through
the increasing-gap parameterization ``mu_j = mu_0 + sum_{k<=j} exp(c_k)`` so
the monotonicity constraint never binds.

``fit_mle`` starts from ``init`` when given (a warm start): the bootstrap
refits each simulated series from the parameter it was simulated from, which
is close to that series' estimate.  Without ``init`` it starts cold, from zero
slopes and ordered thresholds at the normal quantiles of the category
frequencies.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import special

from .model import (
    LinkKind,
    ModelSpec,
    Series,
    Theta,
    link_pdf,
    link_tail,
    _index_ar_stationary,
    _index_kernel,
    _link_pdf_slope,
    _thresholds,
)

__all__ = [
    "FitOptions",
    "FitResult",
    "NonConvergenceError",
    "SeparationError",
    "ThresholdCollapseError",
    "loglik",
    "score",
    "score_contributions",
    "fit_mle",
]

LOGLIK_FLOOR = 1e-12
# relative float resolution of a summed log likelihood
LOGLIK_RESOLUTION = 1e-12


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
class FitOptions:
    tol_grad: float = 1e-8
    max_iter: int = 100
    theta_cap: float = 1e3
    tol_mu: float = 1e-8


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


def _realized_cells(
    spec: ModelSpec, theta: Theta, pi: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Realized cell probability and its two threshold gaps.

    Returns ``(p, lo, hi, has_lo, has_hi)`` where ``p = P(Y = y)``,
    ``lo = mu_{y-1} - pi`` and ``hi = mu_y - pi``, set to zero where the
    threshold is infinite, which ``has_lo`` and ``has_hi`` mark false.
    """
    mu = _thresholds(spec, theta)
    J = spec.support_size
    lo = np.where(y > 0, mu[np.maximum(y - 1, 0)] - pi, -np.inf)
    hi = np.where(y < J, mu[np.minimum(y, J - 1)] - pi, np.inf)
    has_lo, has_hi = np.isfinite(lo), np.isfinite(hi)
    lo, hi = np.where(has_lo, lo, 0.0), np.where(has_hi, hi, 0.0)
    tail_lo = np.where(y > 0, link_tail(spec.link, lo), 1.0)
    tail_hi = np.where(y < J, link_tail(spec.link, hi), 0.0)
    return tail_lo - tail_hi, lo, hi, has_lo, has_hi


def _loglik_pass(
    spec: ModelSpec, theta: Theta, series: Series, order: int
) -> tuple[float, np.ndarray | None, np.ndarray | None]:
    """One pass over the index kernel and the realized cells.

    Returns ``(ll, S, H)``: the log likelihood (``-inf`` when a realized
    cell probability hits the floor); for ``order >= 1`` the per-observation
    scores ``S``, shape (n, L); for ``order == 2`` the Hessian ``H`` of the
    log likelihood, shape (L, L).  All in natural coordinates; inputs are
    not validated.

    The Hessian is ``U' diag(f'(hi)/p) U - V' diag(f'(lo)/p) V - S'S`` plus
    ``sum_t s_t d^2 pi_t / d theta d theta'``, where ``U = [G, -e_y]`` and
    ``V = [G, -e_{y-1}]`` are the gradients of ``pi - mu_y`` and
    ``pi - mu_{y-1}``, and ``s_t = (f(lo) - f(hi))/p`` is the score in the
    index.  In the binary case ``U = V = G``.
    """
    i0 = _window_start(spec)
    kernel = _index_kernel(spec, theta, series, curvature=order == 2)
    pi, G, y = kernel[0][i0:], kernel[1][i0:], series.y[i0:]
    p, lo, hi, has_lo, has_hi = _realized_cells(spec, theta, pi, y)
    ll = -np.inf if p.min() < LOGLIK_FLOOR else float(np.sum(np.log(p)))
    if order == 0:
        return ll, None, None
    p = np.maximum(p, LOGLIK_FLOOR)
    f_lo = np.where(has_lo, link_pdf(spec.link, lo), 0.0)
    f_hi = np.where(has_hi, link_pdf(spec.link, hi), 0.0)
    dlp_dpi = (f_lo - f_hi) / p
    n = y.shape[0]
    L = spec.n_params
    n_idx = G.shape[1]
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
    w_hi = _link_pdf_slope(spec.link, hi, f_hi) / p
    w_lo = _link_pdf_slope(spec.link, lo, f_lo) / p
    H = U.T @ (w_hi[:, None] * U) - V.T @ (w_lo[:, None] * V) - S.T @ S
    M = kernel[2]
    if M is not None:
        # d^2 pi_t is nonzero only in the alpha rows and columns
        A = np.tensordot(dlp_dpi, M[i0:], axes=1)
        ac = slice(1 + spec.q, 1 + spec.q + spec.p_ar)
        H[ac, :n_idx] += A
        H[:n_idx, ac] += A.T
        H[ac, ac] -= A[:, ac]
    return ll, S, (H + H.T) / 2.0


def loglik(spec: ModelSpec, theta: Theta, series: Series) -> float:
    """Conditional log likelihood over observations with complete lag windows.

    Returns ``-inf`` when any realized cell probability hits the floor.
    """
    theta.validate(spec)
    series.validate(spec)
    return _loglik_pass(spec, theta, series, 0)[0]


def score_contributions(spec: ModelSpec, theta: Theta, series: Series) -> np.ndarray:
    """Per-observation score vectors in natural coordinates, shape (n, L)."""
    theta.validate(spec)
    series.validate(spec)
    return _loglik_pass(spec, theta, series, 1)[1]


def score(spec: ModelSpec, theta: Theta, series: Series) -> np.ndarray:
    """Analytic gradient of :func:`loglik` in natural coordinates."""
    return score_contributions(spec, theta, series).sum(axis=0)


# --- working parameterization -------------------------------------------------

class _WorkingMap:
    """Maps between natural ``Theta`` and the unconstrained working vector.

    Binary models use the natural coordinates directly.  Ordered models drop
    the (fixed) intercept and represent thresholds as the first threshold
    plus log gaps.
    """

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        k = spec.n_regressors
        self.n_index = 1 + spec.q + spec.p_ar + k + (k if spec.interactions else 0)
        if spec.ordered:
            self.n_free = (self.n_index - 1) + spec.support_size
        else:
            self.n_free = self.n_index

    def to_working(self, theta: Theta) -> np.ndarray:
        vec = theta.to_vector()
        if not self.spec.ordered:
            return vec.copy()
        idx = vec[1 : self.n_index]
        mu = np.asarray(theta.mu)
        gaps = np.diff(mu)
        if np.any(gaps <= 0):
            raise ValueError("thresholds must be strictly increasing")
        work_mu = np.concatenate(([mu[0]], np.log(gaps))) if mu.size > 1 else mu.copy()
        return np.concatenate((idx, work_mu))

    def to_theta(self, w: np.ndarray) -> Theta:
        spec = self.spec
        if not spec.ordered:
            return Theta.from_vector(spec, w)
        idx = w[: self.n_index - 1]
        wm = w[self.n_index - 1 :]
        mu = np.concatenate(([wm[0]], wm[0] + np.cumsum(np.exp(wm[1:])))) if wm.size > 1 else wm.copy()
        return Theta.from_vector(spec, np.concatenate(([0.0], idx, mu)))

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


def _default_init(spec: ModelSpec, series: Series) -> Theta:
    """All parameters zero; ordered thresholds at normal quantiles of the
    empirical category frequencies."""
    if not spec.ordered:
        return Theta.from_vector(spec, np.zeros(spec.n_params))
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
    vec = np.zeros(spec.n_params)
    vec[-J:] = mu
    return Theta.from_vector(spec, vec)


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
    options: FitOptions | None = None,
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
    opts = options or FitOptions()
    series.validate(spec)
    max_lag = max(spec.q, spec.p_ar, 1)
    if series.T <= spec.n_params + max_lag:
        raise ValueError(
            f"need T > {spec.n_params + max_lag} observations to fit {spec.n_params} parameters"
        )
    _check_category_counts(spec, series)

    if init is None and spec.p_ar:
        # From the all-zero start the index path is flat, so the score in
        # alpha vanishes and the first Newton steps can head for a spurious
        # mode near alpha = -1.  Start from the fit without index
        # autoregression instead.
        base = fit_mle(replace(spec, p_ar=0), series, options=opts).theta_hat
        init = replace(base, alpha=(0.0,) * spec.p_ar)
    wmap = _WorkingMap(spec)
    theta = init if init is not None else _default_init(spec, series)
    theta.validate(spec)
    w = wmap.to_working(theta)

    def ll_of(w_vec: np.ndarray) -> float:
        # a trial step outside the stationarity region is rejected like a
        # degenerate likelihood
        th = wmap.to_theta(w_vec)
        if not _index_ar_stationary(th.alpha):
            return -np.inf
        return loglik(spec, th, series)

    def derivatives_of(w_vec: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        _, S, H = _loglik_pass(spec, wmap.to_theta(w_vec), series, 2)
        return (*wmap.derivatives_to_working(w_vec, S.sum(axis=0), H), S)

    ll = ll_of(w)
    if not np.isfinite(ll):
        raise NonConvergenceError("initial point has degenerate likelihood", theta)
    trace = [ll]
    g, H, S = derivatives_of(w)
    iterations = 0
    converged = bool(np.max(np.abs(g)) <= opts.tol_grad)

    while not converged and iterations < opts.max_iter:
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
        theta = wmap.to_theta(w)
        if spec.ordered and spec.support_size > 1:
            c = w[wmap.n_index - 1 :][1:]
            if np.any(c < math.log(opts.tol_mu)):
                raise ThresholdCollapseError("threshold gap fell below tol_mu", theta)
        if np.max(np.abs(w)) > opts.theta_cap:
            raise SeparationError(
                f"parameter norm exceeded cap {opts.theta_cap:g}: perfect separation "
                "or divergence",
                theta,
            )
        converged = bool(np.max(np.abs(g)) <= opts.tol_grad)

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

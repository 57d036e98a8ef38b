"""Parametric conditional distribution family for dynamic discrete choice series.

The observed outcome ``Y_t`` takes values in ``{0, ..., J}``.  A latent index

    pi_t = pi0 + sum_i alpha_i * pi_{t-i} + sum_i delta_i * Y_{t-i}
           + x_t' beta + (Y_{t-1} * x_t)' gamma

drives the conditional law through a link cdf ``F`` and thresholds
``mu_0 < ... < mu_{J-1}``:

    P(Y_t = j | past) = F(mu_j - pi_t) - F(mu_{j-1} - pi_t),

with ``mu_{-1} = -inf`` and ``mu_J = +inf``.  In the binary case the single
threshold is fixed at zero and the intercept is free, so that
``P(Y_t = 1) = F(pi_t)`` for the symmetric links.

This module defines the model description types, evaluates conditional
probabilities, and simulates series (including the AR(1) exogenous regressor
used by the Monte Carlo study).  Cell probabilities are evaluated in one
place, ``_cells``, for the likelihood, the randomized PIT and the laws alike,
and one floor rule, ``_check_floor``, raises below ``PROB_FLOOR_HARD`` and
warns below ``PROB_FLOOR_WARN``.
"""

from __future__ import annotations

import bisect
import enum
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import special

__all__ = [
    "AssumptionViolationError",
    "ProbabilityFloorWarning",
    "LinkKind",
    "ModelSpec",
    "Theta",
    "Series",
    "CondLaw",
    "PROB_FLOOR_HARD",
    "PROB_FLOOR_WARN",
    "link_cdf",
    "link_tail",
    "link_pdf",
    "cond_law",
    "law_path",
    "index_path",
    "simulate_x_ar1",
    "simulate",
]

# Cell probabilities of the hypothesized family must stay above this floor:
# below PROB_FLOOR_HARD the log likelihood is -inf and the laws and the PIT
# raise (_check_floor); below PROB_FLOOR_WARN they warn.
PROB_FLOOR_HARD = 1e-12
PROB_FLOOR_WARN = 1e-8

_SQRT2 = math.sqrt(2.0)


class AssumptionViolationError(RuntimeError):
    """A conditional cell probability fell below the hard floor."""


class ProbabilityFloorWarning(UserWarning):
    """A conditional cell probability fell below the warning floor."""


class LinkKind(str, enum.Enum):
    """Latent error distribution driving the choice probabilities.

    ``CHISQ1`` is the distribution of ``(chi2_1 - 1)/sqrt(2)``, a standardized
    chi-square with one degree of freedom (mean zero, variance one).  Unlike
    the probit and logistic links it is asymmetric and supported on
    ``[-1/sqrt(2), inf)``.
    """

    PROBIT = "probit"
    LOGISTIC = "logistic"
    CHISQ1 = "chisq1"


def _as_link(link: LinkKind | str) -> LinkKind:
    return LinkKind(link)


def _check_finite(x: np.ndarray | float, what: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} must be finite")
    return arr


def link_cdf(link: LinkKind | str, x):
    """Cdf of the latent error at ``x``.

    Parameters
    ----------
    link : LinkKind or str
        Error distribution.
    x : float or array_like
        Evaluation point; must be finite.

    Returns
    -------
    float or ndarray
        ``P(eps <= x)``.  For ``chisq1`` this is
        ``P(chi2_1 <= sqrt(2) x + 1)``, zero whenever ``sqrt(2) x + 1 <= 0``.
    """
    link = _as_link(link)
    arr = _check_finite(x, "link_cdf argument")
    if link is LinkKind.PROBIT:
        out = special.ndtr(arr)
    elif link is LinkKind.LOGISTIC:
        out = special.expit(arr)
    else:
        v = _SQRT2 * arr + 1.0
        out = np.where(v > 0.0, special.gammainc(0.5, np.maximum(v, 0.0) / 2.0), 0.0)
    return out if isinstance(out, np.ndarray) and np.ndim(x) else float(out)


def link_tail(link: LinkKind | str, x):
    """Upper tail ``P(eps > x)``, computed without cancellation.

    For the symmetric links this equals ``link_cdf(link, -x)`` exactly, which
    is what makes the binary case identity ``P(Y=1) = F(pi)`` hold to the last
    bit.
    """
    link = _as_link(link)
    arr = _check_finite(x, "link_tail argument")
    if link is LinkKind.PROBIT:
        out = special.ndtr(-arr)
    elif link is LinkKind.LOGISTIC:
        out = special.expit(-arr)
    else:
        v = _SQRT2 * arr + 1.0
        out = np.where(v > 0.0, special.gammaincc(0.5, np.maximum(v, 0.0) / 2.0), 1.0)
    return out if isinstance(out, np.ndarray) and np.ndim(x) else float(out)


def link_pdf(link: LinkKind | str, x):
    """Density of the latent error at ``x``."""
    link = _as_link(link)
    arr = _check_finite(x, "link_pdf argument")
    if link is LinkKind.PROBIT:
        out = np.exp(-0.5 * arr * arr) / math.sqrt(2.0 * math.pi)
    elif link is LinkKind.LOGISTIC:
        p = special.expit(arr)
        out = p * special.expit(-arr)
    else:
        v = _SQRT2 * arr + 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            dens = _SQRT2 * np.exp(-np.maximum(v, 1e-300) / 2.0) / np.sqrt(
                2.0 * math.pi * np.maximum(v, 1e-300)
            )
        out = np.where(v > 0.0, dens, 0.0)
    return out if isinstance(out, np.ndarray) and np.ndim(x) else float(out)


def _link_pdf_slope(link: LinkKind, x: np.ndarray, pdf: np.ndarray) -> np.ndarray:
    """Derivative of the latent density at ``x``, given ``pdf = link_pdf(link, x)``.

    Probit ``-x f``, logistic ``f tanh(-x/2)``, and for ``chisq1``
    ``-f (1 + 1/v) / sqrt(2)`` with ``v = sqrt(2) x + 1`` (zero where
    ``v <= 0``, outside the support).  Inputs are not validated.
    """
    if link is LinkKind.PROBIT:
        return -x * pdf
    if link is LinkKind.LOGISTIC:
        return pdf * np.tanh(-0.5 * x)
    v = _SQRT2 * x + 1.0
    inside = v > 0.0
    return np.where(inside, -pdf * (1.0 + 1.0 / np.where(inside, v, 1.0)) / _SQRT2, 0.0)


@dataclass(frozen=True)
class ModelSpec:
    """Declarative description of a conditional law.

    Attributes
    ----------
    link : LinkKind
        Latent error distribution.
    support_size : int
        ``J``; outcomes live in ``{0, ..., J}`` (``J + 1`` categories).
    q : int
        Number of lags of ``Y`` entering the index.
    p_ar : int
        Number of lags of the index itself entering the index.
    n_regressors : int
        Number of exogenous regressor columns.
    interactions : bool
        Include ``Y_{t-1} * x_t`` terms (requires ``q >= 1`` and regressors).
    ordered : bool
        Thresholds are free parameters and the intercept is fixed at zero.
        Required when ``support_size >= 2``; the binary model uses a single
        implicit threshold at zero with a free intercept.
    """

    link: LinkKind
    support_size: int = 1
    q: int = 0
    p_ar: int = 0
    n_regressors: int = 0
    interactions: bool = False
    ordered: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "link", _as_link(self.link))
        if self.support_size < 1:
            raise ValueError("support_size must be >= 1")
        if self.q < 0 or self.p_ar < 0 or self.n_regressors < 0:
            raise ValueError("lag orders and regressor count must be nonnegative")
        if self.interactions and (self.q < 1 or self.n_regressors < 1):
            raise ValueError("interactions require q >= 1 and at least one regressor")
        if self.support_size >= 2 and not self.ordered:
            raise ValueError("support_size >= 2 requires ordered=True")

    @property
    def n_thresholds(self) -> int:
        """Number of free thresholds (``J`` when ordered, zero otherwise)."""
        return self.support_size if self.ordered else 0

    @property
    def n_params(self) -> int:
        """Length of the natural parameter vector, intercept included."""
        k = self.n_regressors
        return 1 + self.q + self.p_ar + k + (k if self.interactions else 0) + self.n_thresholds

    @property
    def max_lag(self) -> int:
        return max(self.q, self.p_ar)

    def to_json_dict(self) -> dict:
        return {
            "link": self.link.value,
            "support_size": self.support_size,
            "q": self.q,
            "p_ar": self.p_ar,
            "n_regressors": self.n_regressors,
            "interactions": self.interactions,
            "ordered": self.ordered,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ModelSpec":
        return cls(
            link=LinkKind(data["link"]),
            support_size=int(data.get("support_size", 1)),
            q=int(data.get("q", 0)),
            p_ar=int(data.get("p_ar", 0)),
            n_regressors=int(data.get("n_regressors", 0)),
            interactions=bool(data.get("interactions", False)),
            ordered=bool(data.get("ordered", False)),
        )

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "ModelSpec":
        return cls.from_json_dict(json.loads(text))


@dataclass(frozen=True)
class Theta:
    """Named parameter vector.

    ``mu`` holds the ``J`` ordered thresholds of an ordered model and is empty
    in the binary case (single threshold fixed at zero).  When the model is
    ordered the intercept ``pi0`` must be zero.
    """

    pi0: float = 0.0
    delta: tuple[float, ...] = ()
    alpha: tuple[float, ...] = ()
    beta: tuple[float, ...] = ()
    gamma: tuple[float, ...] = ()
    mu: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        for name in ("delta", "alpha", "beta", "gamma", "mu"):
            object.__setattr__(self, name, tuple(float(v) for v in getattr(self, name)))
        object.__setattr__(self, "pi0", float(self.pi0))

    def validate(self, spec: ModelSpec) -> None:
        """Raise ``ValueError`` if the vector is inconsistent with ``spec``."""
        k = spec.n_regressors
        if len(self.delta) != spec.q:
            raise ValueError(f"delta has length {len(self.delta)}, expected q={spec.q}")
        if len(self.alpha) != spec.p_ar:
            raise ValueError(f"alpha has length {len(self.alpha)}, expected p_ar={spec.p_ar}")
        if len(self.beta) != k:
            raise ValueError(f"beta has length {len(self.beta)}, expected {k}")
        expected_gamma = k if spec.interactions else 0
        if len(self.gamma) != expected_gamma:
            raise ValueError(f"gamma has length {len(self.gamma)}, expected {expected_gamma}")
        if len(self.mu) != spec.n_thresholds:
            raise ValueError(f"mu has length {len(self.mu)}, expected {spec.n_thresholds}")
        if spec.ordered and self.pi0 != 0.0:
            raise ValueError("ordered models fix the intercept at zero")
        if len(self.mu) >= 2 and not all(a < b for a, b in zip(self.mu, self.mu[1:])):
            raise ValueError("thresholds mu must be strictly increasing")
        if not _index_ar_stationary(self.alpha):
            raise ValueError("index AR polynomial 1 - alpha(L) has a root inside the unit circle")

    def to_vector(self) -> np.ndarray:
        """Natural coordinates ``(pi0, delta, alpha, beta, gamma, mu)``."""
        return np.concatenate(
            ([self.pi0], self.delta, self.alpha, self.beta, self.gamma, self.mu)
        )

    @classmethod
    def from_vector(cls, spec: ModelSpec, vec: np.ndarray) -> "Theta":
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (spec.n_params,):
            raise ValueError(f"expected vector of length {spec.n_params}, got {vec.shape}")
        k = spec.n_regressors
        pos = 1
        delta = vec[pos : pos + spec.q]
        pos += spec.q
        alpha = vec[pos : pos + spec.p_ar]
        pos += spec.p_ar
        beta = vec[pos : pos + k]
        pos += k
        ngam = k if spec.interactions else 0
        gamma = vec[pos : pos + ngam]
        pos += ngam
        mu = vec[pos:]
        return cls(pi0=vec[0], delta=tuple(delta), alpha=tuple(alpha), beta=tuple(beta),
                   gamma=tuple(gamma), mu=tuple(mu))

    def to_json_dict(self) -> dict:
        return {
            "pi0": self.pi0,
            "delta": list(self.delta),
            "alpha": list(self.alpha),
            "beta": list(self.beta),
            "gamma": list(self.gamma),
            "mu": list(self.mu),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Theta":
        return cls(
            pi0=float(data.get("pi0", 0.0)),
            delta=tuple(data.get("delta", ())),
            alpha=tuple(data.get("alpha", ())),
            beta=tuple(data.get("beta", ())),
            gamma=tuple(data.get("gamma", ())),
            mu=tuple(data.get("mu", ())),
        )

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "Theta":
        return cls.from_json_dict(json.loads(text))


@dataclass(frozen=True)
class Series:
    """Observed or simulated data: integer outcomes plus a regressor matrix."""

    y: np.ndarray
    x: np.ndarray

    def __post_init__(self) -> None:
        y = np.ascontiguousarray(np.asarray(self.y), dtype=np.int64)
        x = np.ascontiguousarray(np.asarray(self.x), dtype=float)
        if y.ndim != 1:
            raise ValueError("y must be one-dimensional")
        if x.ndim == 1:
            x = x.reshape(-1, 1)
        if x.ndim != 2:
            raise ValueError("x must be a T-by-k matrix")
        if x.shape[0] != y.shape[0]:
            raise ValueError(f"y has length {y.shape[0]} but x has {x.shape[0]} rows")
        if y.size and y.min() < 0:
            raise ValueError("outcomes must be nonnegative integers")
        if not np.all(np.isfinite(x)):
            raise ValueError("regressors must be finite")
        y.setflags(write=False)
        x.setflags(write=False)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)

    @property
    def T(self) -> int:
        return int(self.y.shape[0])

    @property
    def n_regressors(self) -> int:
        return int(self.x.shape[1])

    def validate(self, spec: ModelSpec) -> None:
        if self.n_regressors != spec.n_regressors:
            raise ValueError(
                f"series has {self.n_regressors} regressors, spec expects {spec.n_regressors}"
            )
        if self.y.size and self.y.max() > spec.support_size:
            raise ValueError(
                f"outcome {int(self.y.max())} outside support {{0..{spec.support_size}}}"
            )
        if self.T < max(spec.q, spec.p_ar, 1) + 1:
            raise ValueError("series too short for the model's lag structure")


@dataclass(frozen=True)
class CondLaw:
    """Conditional probabilities of one observation: cells and partial sums."""

    probs: np.ndarray
    cdf: np.ndarray

    def __post_init__(self) -> None:
        probs = np.ascontiguousarray(np.asarray(self.probs, dtype=float))
        cdf = np.ascontiguousarray(np.asarray(self.cdf, dtype=float))
        probs.setflags(write=False)
        cdf.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "cdf", cdf)

    @property
    def support_size(self) -> int:
        return int(self.probs.shape[0] - 1)


def _index_ar_stationary(alpha: tuple[float, ...]) -> bool:
    """True when every root of ``1 - alpha(L)`` lies outside the unit circle."""
    if not alpha:
        return True
    poly = np.concatenate(([1.0], -np.asarray(alpha)))
    return bool(np.all(np.abs(np.roots(poly[::-1])) > 1.0 + 1e-12))


def _thresholds(spec: ModelSpec, theta: Theta) -> np.ndarray:
    if spec.ordered:
        return np.asarray(theta.mu, dtype=float)
    return np.zeros(1)


def _cells(
    spec: ModelSpec, theta: Theta, pi: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Cell probability ``P(Y = y | pi)`` and cdf below it ``F(y - 1 | pi)``.

    This is the only evaluation of cell probabilities: the likelihood, the
    randomized PIT and the laws all take them from here.  ``y`` broadcasts
    against the array ``pi``.  Returns ``(p, below, lo, hi)`` with the
    threshold gaps ``lo = mu_{y-1} - pi`` and ``hi = mu_y - pi``, set to zero
    where the threshold is infinite (``y = 0`` and ``y = J``).

    Cells above the bottom come from the upper tails ``S_j = P(eps > mu_j -
    pi)``, so the top category never suffers cancellation and the binary
    identity ``P(Y=1) = F(pi)`` is exact for symmetric links; the bottom cell
    and ``F(0)`` come from the lower tail, so they never saturate to zero by
    rounding.  Inputs are not validated.
    """
    J = spec.support_size
    # gaps and tails at every threshold of each index, padded with the
    # infinite thresholds: gap 0, S_{-1} = 1 and S_J = 0
    gaps = np.zeros(pi.shape + (J + 2,))
    gaps[..., 1:-1] = _thresholds(spec, theta) - pi[..., np.newaxis]
    tails = np.zeros_like(gaps)
    tails[..., 0] = 1.0
    tails[..., 1:-1] = link_tail(spec.link, gaps[..., 1:-1])
    bottom = link_cdf(spec.link, gaps[..., 1])
    # flat positions of threshold y - 1 and threshold y
    at = np.arange(0, gaps.size, J + 2).reshape(pi.shape) + y
    above = at + 1
    tail_lo = tails.take(at)
    p = np.where(y == 0, bottom, tail_lo - tails.take(above))
    below = np.where(y == 1, bottom, 1.0 - tail_lo)
    return p, below, gaps.take(at), gaps.take(above)


def _check_floor(cells: np.ndarray, what: str) -> None:
    """The floor rule: raise if a cell probability is below
    ``PROB_FLOOR_HARD``, warn if it is below ``PROB_FLOOR_WARN``."""
    lowest = float(np.min(cells))
    if lowest < PROB_FLOOR_HARD:
        raise AssumptionViolationError(
            f"{what} cell probability {lowest:.3e} below floor {PROB_FLOOR_HARD:.0e}"
        )
    if lowest < PROB_FLOOR_WARN:
        warnings.warn(
            f"{what} cell probability {lowest:.3e} below {PROB_FLOOR_WARN:.0e}",
            ProbabilityFloorWarning,
            stacklevel=3,
        )


def _law_arrays(spec: ModelSpec, theta: Theta, pi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(probs, cdf)`` of shape ``(len(pi), J + 1)``: :func:`_cells` over
    every outcome ``0..J``."""
    J = spec.support_size
    probs, below, _, _ = _cells(spec, theta, pi[:, np.newaxis], np.arange(J + 1))
    cdf = np.empty_like(probs)
    cdf[:, :J] = below[:, 1:]
    cdf[:, J] = 1.0
    return probs, cdf


def cond_law(spec: ModelSpec, theta: Theta, pi_t: float) -> CondLaw:
    """Conditional law of ``Y_t`` given index value ``pi_t``.

    Raises
    ------
    AssumptionViolationError
        If any cell probability falls below the hard floor.
    """
    theta.validate(spec)
    probs, cdf = _law_arrays(spec, theta, np.array([float(pi_t)]))
    _check_floor(probs, "conditional")
    return CondLaw(probs=probs[0], cdf=cdf[0])


def _presample_pi(theta: Theta) -> float:
    """Presample index lags: the unconditional mean ``pi0 / (1 - sum alpha)``."""
    if not theta.alpha:
        return theta.pi0
    return theta.pi0 / (1.0 - sum(theta.alpha))


def _index_kernel(
    spec: ModelSpec, theta: Theta, series: Series, curvature: bool = False
) -> tuple[np.ndarray, ...]:
    """Index path and its gradient w.r.t. the index parameters, all periods.

    This is the one evaluation of the index recursion on a known outcome
    path.  Presample outcomes are zero and presample index lags equal the
    unconditional mean, the convention of :func:`simulate`.  The gradient
    columns follow the natural order ``(pi0, delta, alpha, beta, gamma)``;
    thresholds do not enter the index.  Inputs are not validated.

    Returns ``(pi, G)``, or with ``curvature`` ``(pi, G, M)``.  The second
    derivative of ``pi_t`` is nonzero only in the rows and columns of
    ``alpha``, so ``M[t, j] = d G[t] / d alpha_{j+1}``, shape
    ``(T, p_ar, n_index)``, holds all of it; ``M`` is ``None`` without index
    autoregression.
    """
    T = series.T
    y = series.y.astype(float)
    x = series.x
    q, p, k = spec.q, spec.p_ar, spec.n_regressors
    G = np.empty((T, 1 + q + p + k + (k if spec.interactions else 0)))
    G[:, 0] = 1.0
    for i in range(1, q + 1):
        G[:i, i] = 0.0
        G[i:, i] = y[:-i]
    pos = 1 + q + p
    if k:
        G[:, pos : pos + k] = x
        pos += k
    if spec.interactions:
        G[0, pos:] = 0.0
        G[1:, pos:] = y[:-1, None] * x[1:]
    if not p:
        pi = G @ np.concatenate(([theta.pi0], theta.delta, theta.beta, theta.gamma))
        return (pi, G, None) if curvature else (pi, G)

    # index autoregression: add alpha_i * pi_{t-i} to the index, and carry
    # d pi_t / d theta (and on request d G_t / d alpha) through the same
    # recursion
    ac = slice(1 + q, 1 + q + p)
    G[:, ac] = 0.0
    pi = G @ theta.to_vector()[: G.shape[1]]
    alpha = theta.alpha
    s = sum(alpha)
    g_pre = np.zeros(G.shape[1])
    g_pre[0] = 1.0 / (1.0 - s)
    g_pre[ac] = theta.pi0 / (1.0 - s) ** 2
    pi_lags = [_presample_pi(theta)] * p  # pi_{t-1}, ..., pi_{t-p}
    g_lags = [g_pre] * p
    if curvature:
        M = np.empty((T, p, G.shape[1]))
        m_pre = np.zeros((p, G.shape[1]))
        m_pre[:, 0] = 1.0 / (1.0 - s) ** 2
        m_pre[:, ac] = 2.0 * theta.pi0 / (1.0 - s) ** 3
        m_lags = [m_pre] * p
    for t, value in enumerate(pi.tolist()):
        if curvature:
            # d G_t / d alpha_j = G_{t-j} + sum_i alpha_i d G_{t-i} / d alpha_j,
            # plus G_{t-i}[alpha_j] in column alpha_i
            stacked = np.array(g_lags)
            M[t] = stacked + sum(a * m for a, m in zip(alpha, m_lags))
            M[t, :, ac] += stacked[:, ac].T
            m_lags = [M[t]] + m_lags[:-1]
        G[t, ac] = pi_lags
        G[t] += sum(a * g for a, g in zip(alpha, g_lags))
        value += sum(a * lag for a, lag in zip(alpha, pi_lags))
        pi[t] = value
        pi_lags = [value] + pi_lags[:-1]
        g_lags = [G[t]] + g_lags[:-1]
    return (pi, G, M) if curvature else (pi, G)


def index_path(spec: ModelSpec, theta: Theta, series: Series) -> np.ndarray:
    """Index values for every period of ``series`` under the truncated history.

    Presample outcomes are set to zero and presample index lags to the
    unconditional mean, the same convention used by :func:`simulate`.
    """
    theta.validate(spec)
    series.validate(spec)
    return _index_kernel(spec, theta, series)[0]


def law_path(spec: ModelSpec, theta: Theta, series: Series) -> tuple[np.ndarray, np.ndarray]:
    """Conditional law at every period: ``(probs, cdf)`` with shape (T, J+1).

    The floor check covers the realized cells ``P(Y_t = y_t)``, the only
    probabilities the transforms divide by or take logs of; unrealized cells
    may be arbitrarily small without harm here.
    """
    pi = index_path(spec, theta, series)
    probs, cdf = _law_arrays(spec, theta, pi)
    _check_floor(probs[np.arange(series.T), series.y], "realized")
    return probs, cdf


def simulate_x_ar1(alpha1: float, T: int, rng: np.random.Generator) -> np.ndarray:
    """Simulate ``X_t = alpha1 * X_{t-1} + e_t`` with iid standard normal ``e_t``.

    ``X_0`` (presample) is drawn from the stationary law
    ``N(0, 1 / (1 - alpha1^2))``.
    """
    alpha1 = float(alpha1)
    if not abs(alpha1) < 1.0:
        raise ValueError(f"AR(1) coefficient must satisfy |alpha1| < 1, got {alpha1}")
    if T < 1:
        raise ValueError("T must be positive")
    x0 = rng.standard_normal() * math.sqrt(1.0 / (1.0 - alpha1 * alpha1))
    e = rng.standard_normal(T)
    out = np.empty(T)
    prev = x0
    for t, e_t in enumerate(e.tolist()):
        prev = e_t + alpha1 * prev
        out[t] = prev
    return out


def _latent_errors(link: LinkKind, T: int, rng: np.random.Generator) -> np.ndarray:
    """``T`` latent errors: the link's quantile of one uniform per period, or
    for ``chisq1`` one standardized squared standard normal per period."""
    if link is LinkKind.CHISQ1:
        z = rng.standard_normal(T)
        return (z * z - 1.0) / _SQRT2
    u = rng.random(T)
    return special.ndtri(u) if link is LinkKind.PROBIT else special.logit(u)


def simulate(
    spec: ModelSpec,
    theta: Theta,
    T: int,
    x: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
) -> Series:
    """Simulate a series of length ``T`` from the model.

    Outcomes are drawn through the latent form ``Y_t = #{j : mu_j < pi_t +
    eps_t}``, with the errors ``eps_t`` drawn once for all periods after the
    regressors.  Presample outcomes are zero and presample index lags equal
    the unconditional mean.

    If ``x`` is omitted, regressors are drawn iid standard normal.
    """
    if rng is None:
        raise ValueError("simulate requires an explicit rng")
    theta.validate(spec)
    if T < max(spec.q, spec.p_ar, 1) + 1:
        raise ValueError("T too small for the model's lag structure")
    if x is None:
        x = rng.standard_normal((T, spec.n_regressors))
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    if x.shape != (T, spec.n_regressors):
        raise ValueError(f"x must have shape ({T}, {spec.n_regressors})")

    mu = _thresholds(spec, theta)
    eps = _latent_errors(spec.link, T, rng)
    xb = x @ np.asarray(theta.beta)
    if spec.q == 0 and spec.p_ar == 0:
        return Series(y=np.searchsorted(mu, theta.pi0 + xb + eps), x=x)

    # one plain-float pass over the periods: Y_t feeds the index of t+1
    mu = mu.tolist()
    xg = (x @ np.asarray(theta.gamma)).tolist() if spec.interactions else None
    pi_pre = _presample_pi(theta)
    y = [0] * T
    pi = [0.0] * T
    for t, (xb_t, eps_t) in enumerate(zip(xb.tolist(), eps.tolist())):
        value = theta.pi0
        for i, d in enumerate(theta.delta, start=1):
            if t >= i:
                value += d * y[t - i]
        for i, a in enumerate(theta.alpha, start=1):
            value += a * (pi[t - i] if t >= i else pi_pre)
        value += xb_t
        if xg is not None and t >= 1:
            value += y[t - 1] * xg[t]
        pi[t] = value
        y[t] = bisect.bisect_left(mu, value + eps_t)
    return Series(y=np.array(y), x=x)

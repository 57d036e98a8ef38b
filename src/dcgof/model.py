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
place, the padded tails of ``_tails``, from which ``_cells`` takes the
realized cells of the likelihood and ``_law_arrays`` the laws; one floor
rule, ``_floor_rows``, flags rows below ``PROB_FLOOR_HARD`` and warns below
``PROB_FLOOR_WARN``.  ``_fitted_law`` evaluates a fitted law once per path
for the randomized PIT, the discrete residuals and both rules (wrapped by
``law_path``, ``randomized_pit`` and ``residuals_discrete``).

Inputs are checked once, at the boundary: public functions check their
arguments (``Theta.validate``, ``Series``, the link functions' finite
argument), and underscore kernels take checked arrays (the natural parameter
vector, the thresholds) and check nothing.  Links are evaluated through one
table of unchecked array functions, ``_LINKS``, behind the link functions too.
The kernels take a leading batch axis (a ``_Batch`` of series and a stack
of parameter vectors) and compute each row as it would be computed alone;
the public functions run them on a batch of one.
"""

from __future__ import annotations

import enum
import json
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import _special

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
    "U_CLAMP",
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
# raise; below PROB_FLOOR_WARN they warn.
PROB_FLOOR_HARD = 1e-12
PROB_FLOOR_WARN = 1e-8
# PIT residuals are clamped inside (0, 1) so normal quantiles stay finite.
U_CLAMP = 1e-15
# Simulation tabulates every period's outcome at all (J+1)^q states of the
# lagged outcomes, K*T*(J+1)^q values, up to this many states; above it, and
# with index autoregression, it runs the recursion period by period.  The
# table grows (J+1)-fold per lag; at 16 states it is still 5 times faster
# than the recursion on a (2, 2000) chunk.
MAX_LAG_STATES = 16

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


def _json_field(data: dict, key: str, default, *kinds: type):
    """``data[key]``, or ``default`` if absent, which must be a JSON value of
    one of ``kinds``: true and false are not numbers, and 1.5 is no int."""
    value = data.get(key, default)
    if type(value) not in kinds:
        names = " or ".join(kind.__name__ for kind in kinds)
        raise ValueError(f"{key!r} must be a JSON {names}, got {value!r}")
    return value


def _chisq1_tails(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(P(1/2, w/2), Q(1/2, w/2))`` at ``w = max(sqrt(2) x + 1, 0)``, the
    chi-square(1) cdf and tail at ``w``: ``(0, 1)`` exactly left of the
    support."""
    return _special.gammainc_half_pair(np.maximum(_SQRT2 * x + 1.0, 0.0) / 2.0)


def _chisq1_pdf(x: np.ndarray) -> np.ndarray:
    v = _SQRT2 * x + 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        dens = _SQRT2 * np.exp(-np.maximum(v, 1e-300) / 2.0) / np.sqrt(
            2.0 * math.pi * np.maximum(v, 1e-300)
        )
    return np.where(v > 0.0, dens, 0.0)


def _chisq1_pdf_slope(x: np.ndarray, pdf: np.ndarray) -> np.ndarray:
    v = _SQRT2 * x + 1.0
    inside = v > 0.0
    return np.where(inside, -pdf * (1.0 + 1.0 / np.where(inside, v, 1.0)) / _SQRT2, 0.0)


class _Link(NamedTuple):
    """Unchecked array functions of one latent error law.  ``tails(x)`` is
    the pair ``(P(eps <= x), P(eps > x))`` from one evaluation, each without
    cancellation; ``pdf_slope(x, f)`` is the derivative of the density at
    ``x`` given ``f = pdf(x)``."""

    tails: Callable
    pdf: Callable
    pdf_slope: Callable


_LINKS = {
    LinkKind.PROBIT: _Link(
        _special.ndtr_pair,
        lambda x: np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi), lambda x, f: -x * f,
    ),
    LinkKind.LOGISTIC: _Link(
        _special.expit_pair,
        lambda x: np.multiply(*_special.expit_pair(x)), lambda x, f: f * np.tanh(-0.5 * x),
    ),
    LinkKind.CHISQ1: _Link(_chisq1_tails, _chisq1_pdf, _chisq1_pdf_slope),
}


def _check_finite(fn: str, link: LinkKind | str, x):
    """The one check behind the public link functions: ``fn`` (``"cdf"``,
    ``"tail"`` or ``"pdf"``) of the link table at ``x``, which must be
    finite; a float for a scalar ``x``."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"link_{fn} argument must be finite")
    funcs = _LINKS[_as_link(link)]
    if fn == "pdf":
        out = funcs.pdf(arr)
    else:
        lower, upper = funcs.tails(arr)
        out = upper if fn == "tail" else lower
    return out if isinstance(out, np.ndarray) and np.ndim(x) else float(out)


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
    return _check_finite("cdf", link, x)


def link_tail(link: LinkKind | str, x):
    """Upper tail ``P(eps > x)``, computed without cancellation.

    For the symmetric links this equals ``link_cdf(link, -x)`` exactly, which
    is what makes the binary case identity ``P(Y=1) = F(pi)`` hold to the last
    bit.
    """
    return _check_finite("tail", link, x)


def link_pdf(link: LinkKind | str, x):
    """Density of the latent error at ``x``."""
    return _check_finite("pdf", link, x)


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
    def n_index(self) -> int:
        """Number of index coefficients ``(pi0, delta, alpha, beta, gamma)``."""
        k = self.n_regressors
        return 1 + self.q + self.p_ar + k + (k if self.interactions else 0)

    @property
    def alpha_slice(self) -> slice:
        """Position of ``alpha`` in the natural parameter vector."""
        return slice(1 + self.q, 1 + self.q + self.p_ar)

    @property
    def n_params(self) -> int:
        """Length of the natural parameter vector, intercept included."""
        return self.n_index + self.n_thresholds

    @property
    def max_lag(self) -> int:
        """The longest lag window, at least one period."""
        return max(self.q, self.p_ar, 1)

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
        if not isinstance(data, dict):
            raise ValueError(f"a model must be a JSON object, got {data!r}")
        return cls(
            link=LinkKind(data["link"]),
            support_size=_json_field(data, "support_size", 1, int),
            q=_json_field(data, "q", 0, int),
            p_ar=_json_field(data, "p_ar", 0, int),
            n_regressors=_json_field(data, "n_regressors", 0, int),
            interactions=_json_field(data, "interactions", False, bool),
            ordered=_json_field(data, "ordered", False, bool),
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
        for name, n in (("delta", spec.q), ("alpha", spec.p_ar), ("beta", k),
                        ("gamma", k if spec.interactions else 0), ("mu", spec.n_thresholds)):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} has length {len(getattr(self, name))}, expected {n}")
        if not np.all(np.isfinite(self.to_vector())):
            raise ValueError("parameters must be finite")
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
        ac, k = spec.alpha_slice, spec.n_regressors
        return cls(pi0=vec[0], delta=tuple(vec[1 : ac.start]), alpha=tuple(vec[ac]),
                   beta=tuple(vec[ac.stop : ac.stop + k]),
                   gamma=tuple(vec[ac.stop + k : spec.n_index]), mu=tuple(vec[spec.n_index :]))

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
        if not isinstance(data, dict):
            raise ValueError(f"parameters must be a JSON object, got {data!r}")
        names = ("delta", "alpha", "beta", "gamma", "mu")
        lists = {name: _json_field(data, name, [], list) for name in names}
        for name, values in lists.items():
            if any(type(v) not in (int, float) for v in values):
                raise ValueError(f"{name!r} must be a JSON list of numbers, got {values!r}")
        return cls(pi0=_json_field(data, "pi0", 0.0, int, float), **lists)

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
        if self.T < spec.max_lag + 1:
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


def _index_ar_stationary(alpha) -> bool:
    """True when every root of ``1 - alpha(L)`` lies outside the unit circle."""
    if len(alpha) == 0:
        return True
    poly = np.concatenate(([1.0], -np.asarray(alpha)))
    return bool(np.all(np.abs(np.roots(poly[::-1])) > 1.0 + 1e-12))


def _thresholds(mu) -> np.ndarray:
    """Thresholds as an array, along the last axis; the binary model's (empty
    ``mu``) is a single zero."""
    mu = np.asarray(mu, dtype=float)
    return mu if mu.shape[-1] else np.zeros(mu.shape[:-1] + (1,))


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row pair of ``a`` and ``b`` (..., n); the same
    float operations as ``a[i] @ b[i]``."""
    return (a[..., np.newaxis, :] @ b[..., :, np.newaxis])[..., 0, 0]


class _Batch(NamedTuple):
    """Series stacked along a leading axis, ``y`` (K, T) and ``x`` (K, T, k).

    The kernels take any object with ``y`` (..., T) and ``x`` (..., T, k), so a
    :class:`Series` is the unbatched case; the public functions run them on a
    batch of one.  Rows are not validated.
    """

    y: np.ndarray
    x: np.ndarray

    @classmethod
    def of(cls, series: Series) -> "_Batch":
        return cls(series.y[np.newaxis], series.x[np.newaxis])

    def take(self, rows) -> "_Batch":
        return _Batch(self.y[rows], self.x[rows])


def _tails(
    spec: ModelSpec, mu: np.ndarray, pi: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Threshold gaps ``mu_j - pi`` and upper tails ``S_j = P(eps > mu_j - pi)``
    of each index, (..., J+2, T) with the thresholds along the axis before
    the periods, padded with the infinite thresholds (gap 0, ``S_{-1} = 1``,
    ``S_J = 0``); and the lower tail ``F(mu_0 - pi)`` (..., T) from the same
    evaluation of the link.  ``mu`` (..., J) carries the leading axes of
    ``pi`` (..., T).  Periods run along the last axis so that every array
    operation here runs over T elements at a stretch, not over J."""
    inner = mu[..., :, np.newaxis] - pi[..., np.newaxis, :]
    lower, upper = _LINKS[spec.link].tails(inner)
    gaps = np.zeros(pi.shape[:-1] + (spec.support_size + 2, pi.shape[-1]))
    gaps[..., 1:-1, :] = inner
    tails = np.zeros_like(gaps)
    tails[..., 0, :] = 1.0
    tails[..., 1:-1, :] = upper
    return gaps, tails, lower[..., 0, :]


def _cells(
    spec: ModelSpec, mu: np.ndarray, pi: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Cell probability ``P(Y = y | pi)`` under the thresholds ``mu`` (from
    :func:`_thresholds`), for the likelihood.

    This and :func:`_law_arrays` are the only evaluations of cell
    probabilities, both from the padded tails of :func:`_tails`, by the same
    float operations: the likelihood takes the realized cells from here, the
    laws (and so the randomized PIT) take every cell.  ``y`` has the shape
    of ``pi``.  Returns ``(p, lo, hi)`` with the threshold gaps ``lo =
    mu_{y-1} - pi`` and ``hi = mu_y - pi``, set to zero where the threshold
    is infinite (``y = 0`` and ``y = J``).

    Cells above the bottom come from the upper tails, so the top category
    never suffers cancellation and the binary identity ``P(Y=1) = F(pi)`` is
    exact for symmetric links; the bottom cell and ``F(0)`` come from the
    lower tail, so they never saturate to zero by rounding.  Inputs are not
    validated.
    """
    gaps, tails, bottom = _tails(spec, mu, pi)
    # flat positions of threshold y - 1 and threshold y in each period
    T = pi.shape[-1]
    rows = np.arange(0, gaps.size, gaps.shape[-2] * T).reshape(pi.shape[:-1] + (1,))
    at = rows + np.arange(T) + y * T
    above = at + T
    p = np.where(y == 0, bottom, tails.take(at) - tails.take(above))
    return p, gaps.take(at), gaps.take(above)


def _floor_rows(cells: np.ndarray, what: str) -> np.ndarray:
    """The floor rule over the last axis of ``cells``: True for each row with
    a cell probability below ``PROB_FLOOR_HARD``; warns if a row not flagged
    has one below ``PROB_FLOOR_WARN``."""
    lowest = np.min(cells, axis=-1)
    broken = lowest < PROB_FLOOR_HARD
    kept = lowest[~broken]
    if kept.size and kept.min() < PROB_FLOOR_WARN:
        warnings.warn(
            f"{what} cell probability {kept.min():.3e} below {PROB_FLOOR_WARN:.0e}",
            ProbabilityFloorWarning,
            stacklevel=3,
        )
    return broken


def _law_arrays(spec: ModelSpec, mu: np.ndarray, pi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(probs, cdf)`` with a last axis over every outcome ``0..J``, taken
    from slices of the padded tails of :func:`_tails` as :func:`_cells`
    takes them."""
    _, tails, bottom = _tails(spec, mu, pi)
    probs = tails[..., :-1, :] - tails[..., 1:, :]
    probs[..., 0, :] = bottom
    cdf = 1.0 - tails[..., 1:, :]
    cdf[..., 0, :] = bottom
    # contiguous (..., T, J+1), the layout the consumers' matmuls were written for
    return (np.ascontiguousarray(probs.swapaxes(-1, -2)),
            np.ascontiguousarray(cdf.swapaxes(-1, -2)))


def cond_law(spec: ModelSpec, theta: Theta, pi_t: float) -> CondLaw:
    """Conditional law of ``Y_t`` given index value ``pi_t``.

    Raises
    ------
    ValueError
        If ``theta`` does not fit ``spec`` or ``pi_t`` is not finite.
    AssumptionViolationError
        If any cell probability falls below the hard floor.
    """
    theta.validate(spec)
    pi_t = float(pi_t)
    if not math.isfinite(pi_t):
        raise ValueError("pi_t must be finite")
    probs, cdf = _law_arrays(spec, _thresholds(theta.mu), np.array([pi_t]))
    if _floor_rows(probs, "conditional")[0]:
        raise AssumptionViolationError(
            f"conditional cell probability {np.min(probs):.3e} below floor {PROB_FLOOR_HARD:.0e}"
        )
    return CondLaw(probs=probs[0], cdf=cdf[0])


def _index_kernel(
    spec: ModelSpec, vec: np.ndarray, series, curvature: bool = False
) -> tuple[np.ndarray, ...]:
    """Index path and its gradient w.r.t. the index parameters at the natural vector ``vec``.

    This is the one evaluation of the index recursion on a known outcome
    path.  Presample outcomes are zero and presample index lags equal the
    unconditional mean, the convention of :func:`simulate`.  The gradient
    columns follow the natural order ``(pi0, delta, alpha, beta, gamma)``;
    thresholds do not enter the index.  Leading axes of ``vec`` (..., L) and
    of ``series`` (a :class:`Series` or a :class:`_Batch`) are batch axes,
    and each row is computed by the same operations whatever the batch.
    Inputs are not validated.

    Returns ``(pi, G)``, or with ``curvature`` ``(pi, G, M)``, with shapes
    (..., T), (..., T, n_index) and (..., T, p_ar, n_index).  The second
    derivative of ``pi_t`` is nonzero only in the rows and columns of
    ``alpha``, so ``M[t, j] = d G[t] / d alpha_{j+1}`` holds all of it; ``M``
    is ``None`` without index autoregression.
    """
    y = series.y.astype(float)
    x = series.x
    T = y.shape[-1]
    q, p, k = spec.q, spec.p_ar, spec.n_regressors
    ac = spec.alpha_slice
    n = spec.n_index
    G = np.empty(y.shape + (n,))
    G[..., 0] = 1.0
    for i in range(1, q + 1):
        G[..., :i, i] = 0.0
        G[..., i:, i] = y[..., :-i]
    G[..., ac] = 0.0
    pos = ac.stop
    if k:
        G[..., pos : pos + k] = x
        pos += k
    if spec.interactions:
        G[..., 0, pos:] = 0.0
        G[..., 1:, pos:] = y[..., :-1, None] * x[..., 1:, :]
    pi = (G @ vec[..., :n, None])[..., 0]
    if not p:
        return (pi, G, None) if curvature else (pi, G)

    # index autoregression: add alpha_i * pi_{t-i} to the index, and carry
    # d pi_t / d theta (and on request d G_t / d alpha) through the same
    # recursion, one period at a time over the whole batch
    pi0, alpha = vec[..., 0], vec[..., ac]
    s = 0.0
    for i in range(p):
        s = s + alpha[..., i]
    g_pre = np.zeros(y.shape[:-1] + (n,))
    g_pre[..., 0] = 1.0 / (1.0 - s)
    g_pre[..., ac] = (pi0 / (1.0 - s) ** 2)[..., None]
    pi_lags = [pi0 / (1.0 - s)] * p  # pi_{t-1}, ..., pi_{t-p}
    g_lags = [g_pre] * p
    if curvature:
        M = np.empty(y.shape + (p, n))
        m_pre = np.zeros(y.shape[:-1] + (p, n))
        m_pre[..., 0] = (1.0 / (1.0 - s) ** 2)[..., None]
        m_pre[..., ac] = (2.0 * pi0 / (1.0 - s) ** 3)[..., None, None]
        m_lags = [m_pre] * p
    a = [alpha[..., i] for i in range(p)]
    for t in range(T):
        if curvature:
            # d G_t / d alpha_j = G_{t-j} + sum_i alpha_i d G_{t-i} / d alpha_j,
            # plus G_{t-i}[alpha_j] in column alpha_i
            stacked = np.stack(g_lags, axis=-2)
            acc = 0.0
            for a_i, m in zip(a, m_lags):
                acc = acc + a_i[..., None, None] * m
            M[..., t, :, :] = stacked + acc
            M[..., t, :, ac] += np.swapaxes(stacked[..., ac], -1, -2)
            m_lags = [M[..., t, :, :]] + m_lags[:-1]
        G[..., t, ac] = np.stack(pi_lags, axis=-1)
        acc = 0.0
        for a_i, g in zip(a, g_lags):
            acc = acc + a_i[..., None] * g
        G[..., t, :] += acc
        acc = 0.0
        for a_i, lag in zip(a, pi_lags):
            acc = acc + a_i * lag
        value = pi[..., t] + acc
        pi[..., t] = value
        pi_lags = [value] + pi_lags[:-1]
        g_lags = [G[..., t, :]] + g_lags[:-1]
    return (pi, G, M) if curvature else (pi, G)


def index_path(spec: ModelSpec, theta: Theta, series: Series) -> np.ndarray:
    """Index values for every period of ``series`` under the truncated history.

    Presample outcomes are set to zero and presample index lags to the
    unconditional mean, the same convention used by :func:`simulate`.
    """
    theta.validate(spec)
    series.validate(spec)
    return _index_kernel(spec, theta.to_vector()[np.newaxis], _Batch.of(series))[0][0]


class _FittedLaw(NamedTuple):
    """The output of :func:`_fitted_law`: the laws (..., T, J+1), the PIT and
    discrete residuals (..., T) or None, and the rows (...,) flagged by the
    floor rule and the zero-variance rule (evaluated only with ``e``)."""

    probs: np.ndarray
    cdf: np.ndarray
    u: np.ndarray | None
    e: np.ndarray | None
    floor: np.ndarray
    zero_var: np.ndarray

    def check(self) -> None:
        """Raise ``AssumptionViolationError`` if a row is flagged."""
        if np.any(self.floor):
            raise AssumptionViolationError(
                f"realized cell probability below floor {PROB_FLOOR_HARD:.0e}"
            )
        if np.any(self.zero_var):
            raise AssumptionViolationError("zero conditional variance in discrete residuals")


def _fitted_law(spec: ModelSpec, vec: np.ndarray, series, fz=None, discrete=False) -> _FittedLaw:
    """One evaluation of the law along each path of a batch, at the natural
    vectors ``vec`` (K, L) and for every period from t = 0 (the presample
    convention).  It gives the floor rule on the realized cells (one
    warning per call); the randomized PIT ``F(y_t - 1) + fz_t P(y_t)`` when
    the applied noise ``fz`` (K, T) is given; and, with ``discrete``, the
    residuals ``(Y_t - E[Y_t]) / sd(Y_t)`` and the zero-variance rule.  The
    cells are the likelihood's, float for float.  Each row is computed as
    alone; inputs are not validated."""
    pi = _index_kernel(spec, vec, series)[0]
    probs, cdf = _law_arrays(spec, _thresholds(vec[..., spec.n_index :]), pi)
    y = series.y
    p = np.take_along_axis(probs, y[..., np.newaxis], -1)[..., 0]
    floor = _floor_rows(p, "realized")
    u = e = None
    zero_var = np.zeros_like(floor)
    if fz is not None:
        below = np.take_along_axis(cdf, np.maximum(y - 1, 0)[..., np.newaxis], -1)[..., 0]
        u = np.clip(np.where(y == 0, 0.0, below) + fz * p, U_CLAMP, 1.0 - U_CLAMP)
    if discrete:
        support = np.arange(spec.support_size + 1, dtype=float)
        mean = probs @ support
        var = np.einsum("...tj,...tj->...t", probs, (support - mean[..., np.newaxis]) ** 2)
        zero_var = var.min(axis=-1) <= 0.0
        e = (y - mean) / np.sqrt(np.where((floor | zero_var)[..., np.newaxis], 1.0, var))
    return _FittedLaw(probs, cdf, u, e, floor, zero_var)


def law_path(spec: ModelSpec, theta: Theta, series: Series) -> tuple[np.ndarray, np.ndarray]:
    """Conditional law at every period: ``(probs, cdf)`` with shape (T, J+1).

    The floor check covers the realized cells ``P(Y_t = y_t)``, the only
    probabilities the transforms divide by or take logs of; unrealized cells
    may be arbitrarily small without harm here.
    """
    theta.validate(spec)
    series.validate(spec)
    law = _fitted_law(spec, theta.to_vector()[np.newaxis], _Batch.of(series))
    law.check()
    return law.probs[0], law.cdf[0]


def simulate_x_ar1(alpha1: float, T: int, rng: np.random.Generator) -> np.ndarray:
    """Simulate ``X_t = alpha1 * X_{t-1} + e_t`` with iid standard normal ``e_t``.

    ``X_0`` (presample) is drawn from the stationary law
    ``N(0, 1 / (1 - alpha1^2))``.
    """
    return _x_ar1(alpha1, T, [rng])[0]


def _x_ar1(alpha1: float, T: int, rngs) -> np.ndarray:
    """``simulate_x_ar1`` on each of ``rngs``: paths (len(rngs), T), row ``k``
    equal to ``simulate_x_ar1(alpha1, T, rngs[k])``."""
    alpha1 = float(alpha1)
    if not abs(alpha1) < 1.0:
        raise ValueError(f"AR(1) coefficient must satisfy |alpha1| < 1, got {alpha1}")
    if T < 1:
        raise ValueError("T must be positive")
    x0 = np.empty(len(rngs))
    e = np.empty((len(rngs), T))
    for k, rng in enumerate(rngs):
        x0[k] = rng.standard_normal()
        e[k] = rng.standard_normal(T)
    # the recursion of one path, elementwise across the rows
    out = np.empty((T, len(rngs)))
    prev = x0 * math.sqrt(1.0 / (1.0 - alpha1 * alpha1))
    for t in range(T):
        prev = e[:, t] + alpha1 * prev
        out[t] = prev
    return np.ascontiguousarray(out.T)


def _latent_errors(link: LinkKind, T: int, rngs) -> np.ndarray:
    """Latent errors (len(rngs), T), row ``k`` drawn from ``rngs[k]``: the
    link's quantile of one uniform per period, or for ``chisq1`` one
    standardized squared standard normal per period."""
    if link is LinkKind.CHISQ1:
        z = np.array([rng.standard_normal(T) for rng in rngs]).reshape(len(rngs), T)
        return (z * z - 1.0) / _SQRT2
    u = np.array([rng.random(T) for rng in rngs]).reshape(len(rngs), T)
    return _special.ndtri(u) if link is LinkKind.PROBIT else _special.logit(u)


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
    if T < spec.max_lag + 1:
        raise ValueError("T too small for the model's lag structure")
    if x is None:
        x = rng.standard_normal((T, spec.n_regressors))
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    if x.shape != (T, spec.n_regressors):
        raise ValueError(f"x must have shape ({T}, {spec.n_regressors})")

    y = _simulate(spec, theta.to_vector()[np.newaxis], x[np.newaxis], [rng])
    return Series(y=y[0], x=x)


def _simulate(spec: ModelSpec, vec: np.ndarray, x: np.ndarray, rngs) -> np.ndarray:
    """Outcomes (K, T) of a batch: row ``k`` at the natural vector ``vec[k]``
    on the regressors ``x[k]`` (K, T, k), with its latent errors drawn from
    ``rngs[k]``.  Each row gets the float operations of a single series, in
    the same order.  Inputs are not validated."""
    K, T = x.shape[:2]
    eps = _latent_errors(spec.link, T, rngs)
    n, k, ac = spec.n_index, spec.n_regressors, spec.alpha_slice
    J, q = spec.support_size, spec.q
    mu = _thresholds(vec[:, n:])
    pi0 = vec[:, 0]
    xb = (x @ vec[:, ac.stop : ac.stop + k, np.newaxis])[..., 0]
    xg = (x @ vec[:, ac.stop + k : n, np.newaxis])[..., 0] if spec.interactions else None
    if spec.p_ar or (J + 1) ** q > MAX_LAG_STATES:
        return _simulate_per_period(spec, vec, mu, xb, xg, eps)

    # Without index autoregression the index of period t depends on the past
    # only through the lagged outcomes c = (y_{t-1}, ..., y_{t-q}) in
    # {0..J}^q: take the outcome at every c at once, then walk that table
    # from the presample zeros.  Row c of `lags` has index
    # sum_i c_i (J+1)^(q-i).
    lags = np.indices((J + 1,) * q).reshape(q, (J + 1) ** q).T
    t = np.arange(T)[:, np.newaxis]
    value = np.broadcast_to(pi0[:, np.newaxis, np.newaxis], (K, T, len(lags)))
    for i in range(1, q + 1):
        value = np.where(t >= i, value + vec[:, i, np.newaxis, np.newaxis] * lags[:, i - 1], value)
    value = value + xb[..., np.newaxis]
    if xg is not None:
        value = np.where(t >= 1, value + lags[:, 0] * xg[..., np.newaxis], value)
    latent = value + eps[..., np.newaxis]
    table = np.count_nonzero(mu[:, np.newaxis, np.newaxis, :] < latent[..., np.newaxis], axis=-1)
    if not q:
        return table[..., 0]
    y = np.empty((K, T), dtype=np.int64)
    S, step = len(lags), (J + 1) ** (q - 1)
    for row, outcomes in zip(y, table):
        # the row's table as one flat list: period t at state c is t*S + c
        outcomes = outcomes.ravel().tolist()
        path, state = [], 0
        for at in range(0, T * S, S):
            value = outcomes[at + state]
            path.append(value)
            state = value * step + state // (J + 1)
        row[:] = path
    return y


def _simulate_per_period(spec, vec, mu, xb, xg, eps) -> np.ndarray:
    """The outcomes of :func:`_simulate` by the recursion itself: one pass
    over the periods, each period over the whole batch."""
    T = xb.shape[1]
    mu = list(mu.T)
    delta, alpha = list(vec[:, 1 : spec.alpha_slice.start].T), list(vec[:, spec.alpha_slice].T)
    xb, eps = list(xb.T), list(eps.T)
    xg = None if xg is None else list(xg.T)
    pi0 = vec[:, 0]
    s = 0.0
    for a in alpha:
        s = s + a
    pi_pre = pi0 / (1.0 - s)  # the unconditional mean
    y, pi = [], []
    for t in range(T):
        value = pi0
        for i, d in enumerate(delta, start=1):
            if t >= i:
                value = value + d * y[t - i]
        for i, a in enumerate(alpha, start=1):
            value = value + a * (pi[t - i] if t >= i else pi_pre)
        value = value + xb[t]
        if xg is not None and t >= 1:
            value = value + y[t - 1] * xg[t]
        pi.append(value)
        latent = value + eps[t]
        count = mu[0] < latent
        for threshold in mu[1:]:
            count = np.add(count, threshold < latent, dtype=np.int64)
        y.append(count)
    return np.array(y, dtype=np.int64).T.copy()

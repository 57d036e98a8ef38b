"""Continuation of discrete outcomes and the randomized PIT.

A discrete outcome ``Y`` in ``{0..J}`` is continued as ``Y + Z - 1`` with
noise ``Z`` supported on ``[0, 1]``.  The continued conditional cdf

    Fdag(y) = F(floor(y)) + Fz(y - floor(y)) * P(floor(y) + 1)

is continuous and strictly increasing on ``[-1, J]`` and coincides with ``F``
at the integers.  Evaluating it at the continued outcome gives residuals that
are iid uniform under a correctly specified model, regardless of the noise
distribution used (realizations are identical once the noise streams are
matched through ``Fz``).

The randomized PIT of a fitted series is taken from the one evaluation of
its fitted law, ``dcgof.model._fitted_law``, which also gives the discrete
residuals; :func:`randomized_pit` is its public wrapper.

The discrepancy ``d(G, F, r)`` measures, at uniform quantile ``r``, the gap
between a law ``G`` pushed through ``F``'s continued transform and the
uniform benchmark.  Three algebraically equivalent evaluation paths are
provided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import U_CLAMP, CondLaw, ModelSpec, Series, Theta, _Batch, _fitted_law
from .rng import substream

__all__ = [
    "U_CLAMP",
    "NoiseStream",
    "UniformResiduals",
    "cont_cdf",
    "cont_quantile",
    "randomized_pit",
    "discrepancy",
]


def _noise_draws(T: int, master_seed: int, *key: int | str) -> np.ndarray:
    """``T`` uniform continuation-noise draws from the substream keyed by
    ``(master_seed, 'noise', *key)``; the replicate step reads them without
    the checks of :class:`NoiseStream`, since the program made them."""
    return substream(master_seed, "noise", *key).random(T)


@dataclass(frozen=True)
class NoiseStream:
    """Continuation noise: raw draws in [0, 1] plus the noise cdf.

    ``cdf=None`` means uniform noise (identity cdf).  A non-uniform noise
    distribution is described by its cdf, a continuous nondecreasing map of
    [0, 1] onto [0, 1].
    """

    z: np.ndarray
    cdf: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        z = np.ascontiguousarray(np.asarray(self.z, dtype=float))
        if z.ndim != 1:
            raise ValueError("noise draws must be one-dimensional")
        if z.size and (z.min() < 0.0 or z.max() > 1.0):
            raise ValueError("noise draws must lie in [0, 1]")
        z.setflags(write=False)
        object.__setattr__(self, "z", z)

    @classmethod
    def from_seed(cls, T: int, master_seed: int, *key: int | str) -> "NoiseStream":
        """Uniform noise on a substream keyed by ``(master_seed, 'noise', *key)``."""
        return cls(z=_noise_draws(T, master_seed, *key))

    def applied(self) -> np.ndarray:
        """``Fz(z)``: the uniform draws actually entering the transform."""
        if self.cdf is None:
            return self.z
        out = np.asarray(self.cdf(self.z), dtype=float)
        if out.shape != self.z.shape:
            raise ValueError("noise cdf must be applied elementwise")
        return out


@dataclass(frozen=True)
class UniformResiduals:
    """Randomized PIT residuals with the parameters and noise that made them."""

    u: np.ndarray
    theta_used: Theta
    noise: NoiseStream

    def __post_init__(self) -> None:
        u = np.ascontiguousarray(np.asarray(self.u, dtype=float))
        u.setflags(write=False)
        object.__setattr__(self, "u", u)

    @property
    def T(self) -> int:
        return int(self.u.shape[0])

    def to_csv(self, path) -> None:
        """Single-column CSV export with full double precision."""
        with open(path, "w") as fh:
            fh.write("u\n")
            for v in self.u:
                fh.write(f"{v:.17g}\n")


def _law(law: CondLaw) -> tuple[np.ndarray, np.ndarray, int]:
    return law.probs, law.cdf, law.support_size


def cont_cdf(law: CondLaw, y_dag: float) -> float:
    """Continued cdf at ``y_dag`` in ``[-1, J]`` (uniform noise form)."""
    probs, cdf, J = _law(law)
    y = float(y_dag)
    if not (-1.0 <= y <= J):
        raise ValueError(f"continued outcome {y} outside [-1, {J}]")
    k = math.floor(y)
    if k >= J:  # y == J exactly
        return float(cdf[J])
    frac = y - k
    base = 0.0 if k < 0 else float(cdf[k])
    # capped at F(k + 1), which rounding just below k + 1 could exceed
    return min(base + frac * float(probs[k + 1]), float(cdf[k + 1]))


def cont_quantile(law: CondLaw, r: float) -> float:
    """Inverse of :func:`cont_cdf` on ``[0, 1]``.

    At ``r`` equal to a cdf value the quantile lands exactly on the integer.
    """
    probs, cdf, J = _law(law)
    r = float(r)
    if not (0.0 <= r <= 1.0):
        raise ValueError(f"quantile level {r} outside [0, 1]")
    if r == 1.0:
        return float(J)
    # largest integer k in {-1..J-1} with F(k) <= r
    k = int(np.searchsorted(cdf[:J], r, side="right")) - 1
    base = 0.0 if k < 0 else float(cdf[k])
    # capped at k + 1, which rounding just below F(k + 1) could exceed
    return min(k + (r - base) / float(probs[k + 1]), k + 1.0)


def randomized_pit(
    spec: ModelSpec, theta: Theta, series: Series, noise: NoiseStream
) -> UniformResiduals:
    """Randomized PIT residuals ``U_t`` under the truncated history.

    ``U_t = F(y_t - 1) + Fz(z_t) * P(y_t)`` evaluated at the conditional law
    of period ``t``, for every period from t = 0, with both cells computed
    as the likelihood computes them; the output is identical for any noise
    distribution once streams are matched through ``Fz``.

    Raises
    ------
    AssumptionViolationError
        If a realized cell probability falls below the hard floor (a warning
        below the warning floor).
    """
    if noise.z.shape[0] != series.T:
        raise ValueError(f"noise length {noise.z.shape[0]} != series length {series.T}")
    theta.validate(spec)
    series.validate(spec)
    law = _fitted_law(spec, theta.to_vector()[np.newaxis], _Batch.of(series),
                      noise.applied()[np.newaxis])
    law.check()
    return UniformResiduals(u=law.u[0], theta_used=theta, noise=noise)


def discrepancy(
    lawG: CondLaw, lawF: CondLaw, r: float, representation: str = "dr"
) -> float:
    """Discrepancy ``d(G, F, r)`` between two laws on the same support.

    ``representation`` selects one of the three equivalent evaluation paths:
    ``"dr"`` works directly from ``r``; ``"dy"`` and ``"dy1"`` evaluate at the
    continued quantile ``y`` from below and above.  ``r = 1`` returns zero by
    continuity.
    """
    pG, cG, JG = _law(lawG)
    pF, cF, J = _law(lawF)
    if JG != J:
        raise ValueError("laws must share a support")
    r = float(r)
    if not (0.0 <= r <= 1.0):
        raise ValueError(f"quantile level {r} outside [0, 1]")
    if r == 1.0:
        return 0.0

    def G_at(k: int) -> float:
        return 0.0 if k < 0 else float(cG[min(k, J)])

    def F_at(k: int) -> float:
        return 0.0 if k < 0 else float(cF[min(k, J)])

    if representation == "dr":
        k = int(np.searchsorted(cF[:J], r, side="right")) - 1
        ratio = (r - F_at(k)) / float(pF[k + 1])
        return G_at(k) - F_at(k) + ratio * (float(pG[k + 1]) - float(pF[k + 1]))

    y = cont_quantile(lawF, r)
    k = min(math.floor(y), J - 1)
    frac = y - k
    dP = float(pG[k + 1]) - float(pF[k + 1])
    if representation == "dy":
        return G_at(k) - F_at(k) + frac * dP
    if representation == "dy1":
        return G_at(k + 1) - F_at(k + 1) + (frac - 1.0) * dP
    raise ValueError(f"unknown representation {representation!r}")

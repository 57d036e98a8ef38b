"""Test statistics on PIT residuals and discrete residuals.

Empirical processes compare indicator products of residuals with products of
uniform marginals:

    V1(r)     = (1/sqrt(T-2)) * sum_{t=2}^{T} [ 1{u_{t-1} <= r} - r ]
    V2(r)     = (1/sqrt(T-3)) * sum_{t=3}^{T} [ 1{u_{t-1} <= r1} 1{u_{t-2} <= r2} - r1 r2 ]
    V2j(r; j) = (1/sqrt(T-j)) * sum_{t=j+1}^{T} [ 1{u_t <= r1} 1{u_{t-j} <= r2} - r1 r2 ]

Cramer-von Mises functionals integrate the squared process over the unit
cube.  Their closed forms are built from
``int_0^1 1{a<=r} 1{b<=r} dr = 1 - max(a, b)``, summed over all pairs of
points; after sorting, the pair sums take O(T log T) time and O(T) memory
(a rank formula in one dimension, a dominance count in two).
Kolmogorov-Smirnov functionals take the sup of the absolute process, which is
attained on the finite candidate set of jump points and their one-sided
limits (a tensor grid in the bivariate case), because the process is
piecewise bilinear between jumps.  The bivariate sup is found by branch and
bound over tiles of that grid, with O(T) memory: a tile is searched only
while a bound on the process over it beats the largest exact value found.
That leaves a small share of the O(T^2) grid points on null-like data, all
of them in the worst case, and the result equals the full sweep's exactly.

Correlation-based statistics (Box-Pierce on uniform, Gaussian and discrete
residuals, Jarque-Bera on Gaussian residuals) and the limiting covariance of
the bivariate process are also provided.  Everything here is a deterministic
function of its inputs.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import special

from .model import AssumptionViolationError, ModelSpec, Series, Theta, law_path

__all__ = [
    "StatKind",
    "StatValue",
    "DEFAULT_STUDY_KINDS",
    "study_kinds",
    "cvm_stat",
    "ks_stat",
    "aggregate",
    "residuals_gaussian",
    "residuals_discrete",
    "box_pierce",
    "jarque_bera",
    "v2_limit_cov",
    "evaluate_statistics",
]

_TAGS = ("CvM_p", "KS_p", "CvM_2j", "KS_2j", "ADP", "ADJ", "BPU_m", "BPN_m", "BPD_m", "JB")


@dataclass(frozen=True)
class StatKind:
    """Identifies one test statistic.

    ``CvM_p``/``KS_p`` use the joint process of ``p`` consecutive residuals
    (``p`` in {1, 2}); ``CvM_2j``/``KS_2j`` use the lag-``j`` pairwise
    process; ``BP*_m`` are Box-Pierce statistics with ``m`` autocorrelations
    on uniform (U), Gaussian (N) or discrete (D) residuals; ``ADP``/``ADJ``
    aggregate CvM statistics across ``p`` or ``j`` with Bartlett weights.
    """

    tag: str
    p: int | None = None
    j: int | None = None
    m: int | None = None

    def __post_init__(self) -> None:
        if self.tag not in _TAGS:
            raise ValueError(f"unknown statistic tag {self.tag!r}")
        if self.tag in ("CvM_p", "KS_p"):
            if self.p not in (1, 2):
                raise ValueError("joint-process statistics require p in {1, 2}")
        if self.tag in ("CvM_2j", "KS_2j"):
            if self.j is None or self.j < 1:
                raise ValueError("pairwise statistics require lag j >= 1")
        if self.tag in ("BPU_m", "BPN_m", "BPD_m", "ADP", "ADJ"):
            if self.m is None or self.m < 1:
                raise ValueError(f"{self.tag} requires m >= 1")

    @property
    def name(self) -> str:
        """Report column name (CvM0, CvM1, ..., BPD_25, JB)."""
        if self.tag == "CvM_p":
            return "CvM0" if self.p == 1 else "CvMp2"
        if self.tag == "KS_p":
            return "KS0" if self.p == 1 else "KSp2"
        if self.tag == "CvM_2j":
            return f"CvM{self.j}"
        if self.tag == "KS_2j":
            return f"KS{self.j}"
        if self.tag in ("BPU_m", "BPN_m", "BPD_m"):
            return f"{self.tag[:3]}_{self.m}"
        return self.tag  # JB, ADP, ADJ

    @classmethod
    def from_name(cls, name: str) -> "StatKind":
        name = name.strip()
        if name == "JB":
            return cls(tag="JB")
        if name in ("ADP", "ADJ"):
            return cls(tag=name, m=2)
        if name == "CvM0":
            return cls(tag="CvM_p", p=1)
        if name == "KS0":
            return cls(tag="KS_p", p=1)
        if name == "CvMp2":
            return cls(tag="CvM_p", p=2)
        if name == "KSp2":
            return cls(tag="KS_p", p=2)
        m = re.fullmatch(r"(CvM|KS)(\d+)", name)
        if m:
            tag = "CvM_2j" if m.group(1) == "CvM" else "KS_2j"
            return cls(tag=tag, j=int(m.group(2)))
        m = re.fullmatch(r"(BPU|BPN|BPD)_(\d+)", name)
        if m:
            return cls(tag=f"{m.group(1)}_m", m=int(m.group(2)))
        raise ValueError(f"unknown statistic name {name!r}")


@dataclass(frozen=True)
class StatValue:
    kind: StatKind
    value: float

    def __post_init__(self) -> None:
        v = float(self.value)
        if not np.isfinite(v) or v < -1e-12:
            raise ValueError(f"statistic value must be finite and nonnegative, got {v}")
        object.__setattr__(self, "value", max(v, 0.0))


def study_kinds(m: Sequence[int]) -> tuple[StatKind, ...]:
    """The statistics of the study tables, in column order, with Box-Pierce
    lags ``m``."""
    names = ["CvM0", "CvM1", "CvM2", "KS0", "KS1", "KS2"]
    names += [f"BPN_{lag}" for lag in m]
    names += ["JB"]
    names += [f"BPD_{lag}" for lag in m]
    return tuple(StatKind.from_name(n) for n in names)


# Tables 2-4 column order
DEFAULT_STUDY_KINDS: tuple[StatKind, ...] = study_kinds((1, 2, 25))


def _check_u(u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.ndim != 1:
        raise ValueError("residuals must be one-dimensional")
    return u


def _process_pairs(u: np.ndarray, kind: StatKind) -> tuple[np.ndarray, np.ndarray | None, float]:
    """Indicator coordinates and normalizer for a CvM/KS kind."""
    T = u.shape[0]
    if kind.tag in ("CvM_p", "KS_p"):
        if kind.p == 1:
            if T < 3:
                raise ValueError("need T >= 3")
            return u[:-1], None, math.sqrt(T - 2)
        if T < 4:
            raise ValueError("need T >= 4")
        return u[1 : T - 1], u[: T - 2], math.sqrt(T - 3)
    j = kind.j
    if T < j + 2:
        raise ValueError(f"need T >= {j + 2} for lag {j}")
    return u[j:], u[:-j], math.sqrt(T - j)


# Points per tile of the dense comparisons in ``_dominance``.
_TILE = 64
_EARLIER = np.triu(np.ones((_TILE, _TILE), dtype=bool), 1)  # [i, k]: i < k
_EARLIER.flags.writeable = False
# Sub-tiles per side of a tile in the bivariate KS search, and the most
# tiles per side of its top grid: a grid of at most _KS_TOP rows and columns
# is evaluated densely, as one block.
_KS_SPLIT = 4
_KS_TOP = 128
# Tiles refined per batch of the search, which bounds its memory.
_KS_BATCH = 1024


def _cvm_1d(a: np.ndarray, denom: float) -> float:
    # sum_{i,k} (1 - max(a_i, a_k)) = sum_i (1 - a_(i)) (2i - 1) over the
    # sorted values.  Completing the square with the other two terms gives
    # 1/12 + n sum_i (a_(i) - (2i - 1)/(2n))^2, a sum free of cancellation.
    n = a.shape[0]
    d = np.sort(a) - np.arange(1.0, 2.0 * n, 2.0) / (2.0 * n)
    total = 1.0 / 12.0 + n * (d @ d)
    return float(total / (denom * denom))


def _dominance(rank: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each point k, ``#{i < k : rank_i <= rank_k}`` and the sum of
    ``w_i`` over ``i < k`` with ``rank_i > rank_k``.  Ranks lie in 1..n."""
    n = rank.shape[0]
    # Dense comparisons within tiles of consecutive points.  The padding sits
    # after every real point of the last tile, so it is never counted.
    m = -(-n // _TILE) * _TILE
    R = np.zeros(m, dtype=np.int64)
    R[:n] = rank
    W = np.zeros(m)
    W[:n] = w
    R, W = R.reshape(-1, _TILE), W.reshape(-1, _TILE)
    le = R[:, :, None] <= R[:, None, :]
    cnt = (le & _EARLIER).sum(axis=1).ravel()[:n]
    sw = np.einsum("ti,tik->tk", W, ~le & _EARLIER).ravel()[:n]
    # Merge levels: each point of an odd block of size s is compared with the
    # whole even block before it, by binary search in the keys
    # (block, rank) sorted per level.  From the second level on, the keys in
    # the previous level's order form two sorted runs per block, which the
    # stable sort merges in linear time.
    pos = np.arange(n)
    order = pos
    span = n + 2
    s = _TILE
    while s < n:
        blk = pos // s
        key = blk * span + rank
        order = order[np.argsort(key[order], kind="stable")]
        cw = np.concatenate(([0.0], np.cumsum(w[order])))
        k = pos[s:][blk[s:] % 2 == 1]
        start = (blk[k] - 1) * s
        idx = np.searchsorted(key[order], key[k] - span, side="right")
        cnt[k] += idx - start
        sw[k] += cw[start + s] - cw[idx]
        s *= 2
    return cnt, sw


def _cvm_2d(a: np.ndarray, b: np.ndarray, denom: float) -> float:
    # Pair (i, k) contributes (1 - max(a_i, a_k)) (1 - max(b_i, b_k)).  With
    # the points ordered by a, the pairs i < k contribute
    # (1 - a_k) [cnt_k (1 - b_k) + sw_k], with the dominance counts over b.
    n = a.shape[0]
    order = np.argsort(a, kind="stable")
    a, b = a[order], b[order]
    rank = np.searchsorted(np.sort(b), b, side="right")  # ties share a rank
    cnt, sw = _dominance(rank, 1.0 - b)
    qq = ((1.0 - a * a) / 2.0) * ((1.0 - b * b) / 2.0)
    terms = (1.0 - a) * (1.0 - b + 2.0 * (cnt * (1.0 - b) + sw)) - 2.0 * n * qq + n / 9.0
    return float(terms.sum() / (denom * denom))


def _ks_1d(a: np.ndarray, denom: float) -> float:
    n = a.shape[0]
    v = np.unique(a)
    counts = np.searchsorted(np.sort(a), v, side="right")
    at_jump = np.abs(counts - n * v)
    before_jump = np.abs(np.concatenate(([0.0], counts[:-1].astype(float))) - n * v)
    return float(max(at_jump.max(), before_jump.max()) / denom)


def _ks_2d(a: np.ndarray, b: np.ndarray, denom: float) -> float:
    # Between jump coordinates the process is N - n*r1*r2 with N constant, so
    # its sup over each cell is N - n*r1*r2 at the cell's lower corner or
    # n*r1*r2 - N at its upper corner; corners live on the tensor grid of
    # observed values, their one-sided limits and the boundary 1.
    #
    # The grid is searched by branch and bound over square tiles.  N, lo_a and
    # lo_b, hi_a and hi_b are nondecreasing and float rounding is monotone, so
    # on rows r0..r1 and columns c0..c1 the low term is at most
    # N(r1, c1) - n*(lo_a[r0]*lo_b[c0]) and the high term at most
    # n*(hi_a[r1]*hi_b[c1]) - N(r0-1, c0-1), both computed with the same
    # expressions as the exact values.  A tile whose bound does not beat the
    # largest exact value found is dropped; the others split into
    # _KS_SPLIT x _KS_SPLIT sub-tiles, highest bound first, down to single
    # cells, so the result is the exact sup.
    n = a.shape[0]
    ga, row = np.unique(a, return_inverse=True)
    gb, col = np.unique(b, return_inverse=True)
    row += 1  # first grid row whose count includes the point
    col += 1
    # lo_a/lo_b carry one padding entry, read only for empty sub-tiles
    lo_a, hi_a = np.concatenate(([0.0], ga, [1.0])), np.concatenate((ga, [1.0]))
    lo_b, hi_b = np.concatenate(([0.0], gb, [1.0])), np.concatenate((gb, [1.0]))
    n_rows, n_cols = hi_a.size, hi_b.size

    def visit(M, rho, gam, best, split):
        # M[k, l, t] = N(rho[k, t], gam[l, t]) on the lines of tile t of a
        # batch.  Raises best to the exact values at the corners with
        # k, l >= 1; with split, also returns the sub-tiles between the lines
        # whose bound beats it, highest bound first, as (first row, first
        # column, N at the corner before the sub-tile, bound).
        r, c = rho[1:, None], gam[None, 1:]
        inner = M[1:, 1:]
        high = n * (hi_a[r] * hi_b[c])
        best = max(best, (inner - n * (lo_a[r] * lo_b[c])).max(), (high - inner).max())
        if not split:
            return best, None
        low = inner - n * (lo_a[rho[:-1, None] + 1] * lo_b[gam[None, :-1] + 1])
        bound = np.maximum(low, high - M[:-1, :-1])
        keep = bound > best
        keep &= (rho[1:] > rho[:-1])[:, None] & (gam[1:] > gam[:-1])[None, :]  # not empty
        k, l, t = np.nonzero(keep)
        order = np.argsort(-bound[k, l, t])
        k, l, t = k[order], l[order], t[order]
        return best, (rho[k, t] + 1, gam[l, t] + 1, M[k, l, t], bound[k, l, t])

    # The top grid: lines k*g - 1 of rows and columns (line -1 is empty),
    # with at most _KS_TOP tiles per side.
    g = 1
    while max(n_rows, n_cols) > _KS_TOP * g:
        g *= _KS_SPLIT
    kr, kc = -(-n_rows // g) + 1, -(-n_cols // g) + 1
    M = np.bincount((row // g + 1) * kc + col // g + 1, minlength=kr * kc).reshape(kr, kc)
    np.cumsum(M, axis=0, out=M)
    np.cumsum(M, axis=1, out=M)
    rho = np.minimum(np.arange(kr) * g - 1, n_rows - 1)[:, None]
    gam = np.minimum(np.arange(kc) * g - 1, n_cols - 1)[:, None]
    best, tiles = visit(M[:, :, None], rho, gam, 0.0, g > 1)
    pending = [(g, tiles)] if g > 1 else []
    strips = {}
    steps = np.arange(_KS_SPLIT + 1)[:, None]
    while pending:
        g, tiles = pending[-1]
        live = np.count_nonzero(tiles[3] > best)  # tiles are in descending bound order
        take = min(live, _KS_BATCH)
        if take < live:
            pending[-1] = (g, tuple(x[take:live] for x in tiles))
        else:
            pending.pop()
        if take == 0:
            continue
        # in row-major order the row-strip queries below come sorted
        order = np.argsort(tiles[0][:take] * n_cols + tiles[1][:take])
        r0, c0, anchor = (x[order] for x in tiles[:3])
        g //= _KS_SPLIT
        if g not in strips:
            # points sorted by strip of g rows, then column; and transposed
            strips[g] = (np.sort(row // g * n_cols + col), np.sort(col // g * n_rows + row))
        by_row, by_col = strips[g]
        # M[k, l] = N(r0 - 1 + k*g, c0 - 1 + l*g): the anchor N(r0 - 1, c0 - 1),
        # the points above the tile in each column strip, and the points of
        # each row strip left of each column line
        M = np.empty((_KS_SPLIT + 1, _KS_SPLIT + 1, take), dtype=np.int64)
        base = (r0 // g + steps[:-1]) * n_cols
        ends = np.minimum(c0 + steps * g, n_cols)
        M[1:] = np.searchsorted(by_row, base[:, None] + ends) - np.searchsorted(by_row, base)[:, None]
        order = np.argsort(c0 * n_rows + r0)  # column-major, for the same reason
        base = (c0[order] // g + steps[:-1]) * n_rows
        M[0, 0] = anchor
        M[0, 1:][:, order] = np.searchsorted(by_col, base + r0[order]) - np.searchsorted(by_col, base)
        np.cumsum(M[0], axis=0, out=M[0])
        np.cumsum(M, axis=0, out=M)
        rho = np.minimum(r0 - 1 + steps * g, n_rows - 1)
        gam = np.minimum(c0 - 1 + steps * g, n_cols - 1)
        best, tiles = visit(M, rho, gam, best, g > 1)
        if g > 1 and tiles[0].size:
            pending.append((g, tiles))
    return float(best / denom)


def cvm_stat(u, kind: StatKind) -> StatValue:
    """Cramer-von Mises statistic: exact closed form of the integrated square."""
    if kind.tag not in ("CvM_p", "CvM_2j"):
        raise ValueError(f"not a CvM kind: {kind}")
    u = _check_u(u)
    a, b, denom = _process_pairs(u, kind)
    value = _cvm_1d(a, denom) if b is None else _cvm_2d(a, b, denom)
    return StatValue(kind=kind, value=value)


def ks_stat(u, kind: StatKind) -> StatValue:
    """Kolmogorov-Smirnov statistic: exact sup over the jump candidate set."""
    if kind.tag not in ("KS_p", "KS_2j"):
        raise ValueError(f"not a KS kind: {kind}")
    u = _check_u(u)
    a, b, denom = _process_pairs(u, kind)
    # the 2-D search's bounds need the grid coordinates to be monotone
    if not (u.min() >= 0.0 and u.max() <= 1.0):
        raise ValueError("KS residuals must lie in [0, 1]")
    value = _ks_1d(a, denom) if b is None else _ks_2d(a, b, denom)
    return StatValue(kind=kind, value=value)


def bartlett_weight(j: int, m: int) -> float:
    return 1.0 - j / (m + 1.0)


def aggregate(
    values: Sequence[StatValue],
    weights: Callable[[int, int], float] | None = None,
    m: int | None = None,
) -> StatValue:
    """Weighted sum ``sum_{j=1}^{m} k(j) D_j`` across orders or lags.

    ``values`` must share the CvM or the KS family; ``weights`` takes
    ``(j, m)`` and defaults to the Bartlett kernel ``1 - j/(m+1)``.
    """
    if not values:
        raise ValueError("aggregate of an empty statistic list")
    m = len(values) if m is None else int(m)
    if m < 1 or m > len(values):
        raise ValueError(f"truncation m={m} incompatible with {len(values)} values")
    families = {v.kind.tag.split("_")[0] for v in values}
    if len(families) != 1:
        raise ValueError("aggregated statistics must share the CvM or KS family")
    weights = weights or bartlett_weight
    total = sum(weights(j, m) * values[j - 1].value for j in range(1, m + 1))
    tag = "ADJ" if all(v.kind.tag.endswith("_2j") for v in values) else "ADP"
    return StatValue(kind=StatKind(tag=tag, m=m), value=total)


def residuals_gaussian(u) -> np.ndarray:
    """Normal quantiles of the PIT residuals."""
    u = _check_u(u)
    if u.size and (u.min() <= 0.0 or u.max() >= 1.0):
        raise ValueError("residuals must lie strictly inside (0, 1)")
    return special.ndtri(u)


def residuals_discrete(spec: ModelSpec, theta: Theta, series: Series) -> np.ndarray:
    """Standardized discrete residuals ``(Y_t - E[Y_t]) / sd(Y_t)``."""
    probs, _ = law_path(spec, theta, series)
    support = np.arange(spec.support_size + 1, dtype=float)
    mean = probs @ support
    var = np.einsum("tj,tj->t", probs, (support[None, :] - mean[:, None]) ** 2)
    if var.min() <= 0.0:
        raise AssumptionViolationError("zero conditional variance in discrete residuals")
    return (series.y - mean) / np.sqrt(var)


def _acf2_sums(resid, m: int) -> tuple[int, list[float]]:
    """Length ``T`` and the running sums ``sum_{j<=k} acf(j)^2``, k = 1..m,
    of the mean-centered residuals."""
    x = np.asarray(resid, dtype=float)
    T = x.shape[0]
    if T <= m + 1:
        raise ValueError(f"need T > m + 1 = {m + 1}, got {T}")
    xc = x - x.mean()
    denom = float(xc @ xc)
    if denom <= 0.0:
        raise ValueError("residual series has zero variance")
    sums = []
    acf2 = 0.0
    for j in range(1, m + 1):
        rho = float(xc[j:] @ xc[:-j]) / denom
        acf2 += rho * rho
        sums.append(acf2)
    return T, sums


def box_pierce(resid, m: int, kind: StatKind | None = None) -> StatValue:
    """Box-Pierce statistic ``T * sum_{j=1}^{m} acf(j)^2`` on mean-centered residuals."""
    m = int(m)
    if m < 1:
        raise ValueError("m must be >= 1")
    T, sums = _acf2_sums(resid, m)
    if kind is None:
        kind = StatKind(tag="BPU_m", m=m)
    return StatValue(kind=kind, value=T * sums[-1])


def jarque_bera(values) -> StatValue:
    """Jarque-Bera normality statistic from moment skewness and kurtosis."""
    x = np.asarray(values, dtype=float)
    T = x.shape[0]
    if T < 8:
        raise ValueError("need T >= 8")
    xc = x - x.mean()
    m2 = float(np.mean(xc * xc))
    if m2 <= 0.0:
        raise ValueError("series has zero variance")
    skew = float(np.mean(xc**3)) / m2**1.5
    kurt = float(np.mean(xc**4)) / (m2 * m2)
    value = T / 6.0 * (skew * skew + (kurt - 3.0) ** 2 / 4.0)
    return StatValue(kind=StatKind(tag="JB"), value=value)


def v2_limit_cov(r: tuple[float, float], s: tuple[float, float]) -> float:
    """Limit covariance of the bivariate process at grid points ``r`` and ``s``."""
    r1, r2 = float(r[0]), float(r[1])
    s1, s2 = float(s[0]), float(s[1])
    for v in (r1, r2, s1, s2):
        if not 0.0 <= v <= 1.0:
            raise ValueError("coordinates must lie in [0, 1]")
    return (
        min(r1, s1) * min(r2, s2)
        + min(r1, s2) * r2 * s1
        + min(r2, s1) * r1 * s2
        - 3.0 * r1 * r2 * s1 * s2
    )


def evaluate_statistics(
    kinds: Sequence[StatKind], u, e=None
) -> dict[str, float]:
    """Evaluate the requested statistics on PIT residuals ``u`` (and discrete
    residuals ``e`` where needed).  Returns ``{name: value}``."""
    u = _check_u(u)
    out: dict[str, float] = {}
    gauss: np.ndarray | None = None

    def gaussian() -> np.ndarray:
        nonlocal gauss
        if gauss is None:
            gauss = residuals_gaussian(u)
        return gauss

    # One autocorrelation pass per residual series, up to its largest lag
    lags: dict[str, int] = {}
    for kind in kinds:
        if kind.tag in ("BPU_m", "BPN_m", "BPD_m"):
            lags[kind.tag] = max(lags.get(kind.tag, 0), kind.m)
    acf2: dict[str, tuple[int, list[float]]] = {}

    def box_pierce_of(kind: StatKind) -> float:
        if kind.tag not in acf2:
            if kind.tag == "BPU_m":
                x = u
            elif kind.tag == "BPN_m":
                x = gaussian()
            elif e is None:
                raise ValueError("discrete residuals required for BPD statistics")
            else:
                x = e
            acf2[kind.tag] = _acf2_sums(x, lags[kind.tag])
        T, sums = acf2[kind.tag]
        return StatValue(kind=kind, value=T * sums[kind.m - 1]).value

    for kind in kinds:
        if kind.tag in ("CvM_p", "CvM_2j"):
            out[kind.name] = cvm_stat(u, kind).value
        elif kind.tag in ("KS_p", "KS_2j"):
            out[kind.name] = ks_stat(u, kind).value
        elif kind.tag in ("BPU_m", "BPN_m", "BPD_m"):
            out[kind.name] = box_pierce_of(kind)
        elif kind.tag == "JB":
            out[kind.name] = jarque_bera(gaussian()).value
        elif kind.tag == "ADP":
            vals = [cvm_stat(u, StatKind(tag="CvM_p", p=p)) for p in range(1, kind.m + 1)]
            out[kind.name] = aggregate(vals, m=kind.m).value
        elif kind.tag == "ADJ":
            vals = [cvm_stat(u, StatKind(tag="CvM_2j", j=j)) for j in range(1, kind.m + 1)]
            out[kind.name] = aggregate(vals, m=kind.m).value
        else:  # pragma: no cover
            raise ValueError(f"unhandled kind {kind}")
    return out

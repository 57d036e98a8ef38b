"""Test statistics on PIT residuals and discrete residuals.

Empirical processes compare indicator products of residuals with products of
uniform marginals:

    V1(r)     = (1/sqrt(T-2)) * sum_{t=2}^{T} [ 1{u_{t-1} <= r} - r ]
    V2(r)     = (1/sqrt(T-3)) * sum_{t=3}^{T} [ 1{u_{t-1} <= r1} 1{u_{t-2} <= r2} - r1 r2 ]
    V2j(r; j) = (1/sqrt(T-j)) * sum_{t=j+1}^{T} [ 1{u_t <= r1} 1{u_{t-j} <= r2} - r1 r2 ]

Cramer-von Mises functionals integrate the squared process over the unit
cube.  Their closed forms are built from
``int_0^1 1{a<=r} 1{b<=r} dr = 1 - max(a, b)``, summed over all pairs of
points; from one sort of each residual series, which every CvM and KS
functional reads, the pair sums take O(T log T) time and O(T) memory (a
rank formula in one dimension, a dominance count in two).  The dominance
count compares the points densely within tiles of _TILE points, on the
narrowest integer type that holds the ranks and at most _TILE tiles at once;
above the tiles, each merge level reads its counts from two orders of the
points, by (block, rank) at its block size and at twice that, which stable
sorts on narrow block ids take from one sort of the points by rank.
Kolmogorov-Smirnov functionals take the sup of the absolute process, which is
attained on the finite candidate set of jump points and their one-sided
limits (a tensor grid in the bivariate case), because the process is
piecewise bilinear between jumps.  The bivariate sup is found by branch and
bound over tiles of that grid, with O(T) memory: a tile is searched only
while a bound on the process over it beats the largest exact value found.
That leaves a small share of the O(T^2) grid points on null-like data, all
of them in the worst case, and the result equals the full sweep's exactly.
A grid of at most _KS_TOP lines would be evaluated whole anyway, so the
series of a batch with such grids skip the search: one sweep over the grid
lines, with a running count per series and process, gives every bivariate
KS value of all of them, equal to the search's; it takes the series in
slices of at most CHUNK_POINTS points, which bounds its memory.  Given a
value to decide against, the search only answers whether the sup reaches
it, and stops once that is settled: a bootstrap p-value reads nothing else
of a draw.

Correlation-based statistics (Box-Pierce on uniform, Gaussian and discrete
residuals, Jarque-Bera on Gaussian residuals) and the limiting covariance of
the bivariate process are also provided.  Everything here is a deterministic
function of its inputs.  Every function that takes statistics checks their
list by one rule, ``_check_stats``, before it computes any: the list is
nonempty, names each statistic once, and fits the series length.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _special
from .model import ModelSpec, Series, Theta, _Batch, _dot, _fitted_law

__all__ = [
    "StatKind",
    "StatValue",
    "DEFAULT_STUDY_KINDS",
    "cvm_stat",
    "ks_stat",
    "residuals_gaussian",
    "residuals_discrete",
    "box_pierce",
    "jarque_bera",
    "v2_limit_cov",
    "evaluate_statistics",
]

# Each tag and the one field it reads, if any
_TAGS = {"CvM_p": "p", "KS_p": "p", "CvM_2j": "j", "KS_2j": "j", "ADP": None, "ADJ": None,
         "BPU_m": "m", "BPN_m": "m", "BPD_m": "m", "JB": None}


@dataclass(frozen=True)
class StatKind:
    """Identifies one test statistic: one kind per name, one name per kind.

    ``CvM_p``/``KS_p`` use the joint process of ``p`` consecutive residuals
    (``p`` in {1, 2}); ``CvM_2j``/``KS_2j`` use the lag-``j`` pairwise
    process; ``BP*_m`` are Box-Pierce statistics with ``m`` autocorrelations
    on uniform (U), Gaussian (N) or discrete (D) residuals; ``ADP``/``ADJ``
    are the Bartlett sums 2/3 CvM0 + 1/3 CvMp2 and 2/3 CvM1 + 1/3 CvM2.  A
    kind sets only the field its tag reads, to an int.
    """

    tag: str
    p: int | None = None
    j: int | None = None
    m: int | None = None

    def __post_init__(self) -> None:
        if self.tag not in _TAGS:
            raise ValueError(f"unknown statistic tag {self.tag!r}")
        field = _TAGS[self.tag]
        for other in ("p", "j", "m"):
            if other != field and getattr(self, other) is not None:
                raise ValueError(f"{self.tag} takes no {other}")
        if field is None:
            return
        value = getattr(self, field)
        if type(value) is not int or value < 1 or (field == "p" and value > 2):
            want = "p in {1, 2}" if field == "p" else f"an integer {field} >= 1"
            raise ValueError(f"{self.tag} requires {want}")

    @property
    def name(self) -> str:
        """Report column name (CvM0, CvM1, ..., BPD_25, JB)."""
        family = self.tag.split("_")[0]
        if self.tag.endswith("_p"):
            return family + ("0" if self.p == 1 else "p2")
        if self.tag.endswith("_2j"):
            return f"{family}{self.j}"
        if self.tag.endswith("_m"):
            return f"{family}_{self.m}"
        return self.tag  # JB, ADP, ADJ

    @classmethod
    def from_name(cls, name: str) -> "StatKind":
        """The kind whose ``name`` is ``name``; orders have no leading zero."""
        if name in ("JB", "ADP", "ADJ"):
            return cls(tag=name)
        m = re.fullmatch(r"(CvM|KS)(0|p2)", name)
        if m:
            return cls(tag=f"{m.group(1)}_p", p=1 if m.group(2) == "0" else 2)
        m = re.fullmatch(r"(CvM|KS)([1-9][0-9]*)", name)
        if m:
            return cls(tag=f"{m.group(1)}_2j", j=int(m.group(2)))
        m = re.fullmatch(r"(BPU|BPN|BPD)_([1-9][0-9]*)", name)
        if m:
            return cls(tag=f"{m.group(1)}_m", m=int(m.group(2)))
        raise ValueError(f"unknown statistic name {name!r}")


def _check_stats(kinds: Sequence[StatKind], T: int) -> None:
    """The rule of a statistic list: nonempty, each statistic named once, and
    each one's least series length: a process of order p, lag j or m
    autocorrelations needs that + 2 periods, ADP and ADJ 4 and JB 8."""
    if not kinds:
        raise ValueError("statistic list must be nonempty")
    for i, kind in enumerate(kinds):
        if kind in kinds[:i]:
            raise ValueError(f"statistic {kind.name} is listed more than once")
        field = _TAGS[kind.tag]
        need = getattr(kind, field) + 2 if field else (8 if kind.tag == "JB" else 4)
        if T < need:
            raise ValueError(f"{kind.name} needs T >= {need}, got {T}")


@dataclass(frozen=True)
class StatValue:
    kind: StatKind
    value: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", float(_nonnegative(np.float64(self.value))))


# The statistics of the study tables, in the column order of Tables 2-4
DEFAULT_STUDY_KINDS: tuple[StatKind, ...] = tuple(StatKind.from_name(n) for n in (
    "CvM0", "CvM1", "CvM2", "KS0", "KS1", "KS2", "BPN_1", "BPN_2", "BPN_25", "JB",
    "BPD_1", "BPD_2", "BPD_25"))


def _check_u(u, batch: bool = False) -> np.ndarray:
    """Residuals as a float array: one series, or with ``batch`` also a
    batch of series (K, T)."""
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 and not (batch and u.ndim == 2):
        raise ValueError("residuals must be one-dimensional")
    return u


def _process_pairs(T: int, kind: StatKind) -> tuple[int, int | None, int, float]:
    """Index ranges and normalizer of a CvM/KS kind: the process pairs
    ``u[i + t]`` with ``u[k + t]``, t < n (``k`` is None in one dimension)."""
    if kind.tag in ("CvM_2j", "KS_2j"):
        i, k, n, df = kind.j, 0, T - kind.j, T - kind.j
    else:
        i, k, n = (0, None, T - 1) if kind.p == 1 else (1, 0, T - 2)
        df = n - 1
    return i, k, n, math.sqrt(df)


def _ranked(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """One stable sort of each row of a batch ``u`` (K, T): the order, each
    value's rank from 1 among its row's distinct values, and those values."""
    order = np.argsort(u, axis=-1, kind="stable")
    s = np.take_along_axis(u, order, -1)
    first = np.ones(u.shape, dtype=bool)
    first[:, 1:] = s[:, 1:] != s[:, :-1]
    rank = np.empty(u.shape, dtype=np.int64)
    np.put_along_axis(rank, order, np.cumsum(first, axis=-1), -1)
    return order, rank, [row[f] for row, f in zip(s, first)]


def _sub_order(order: np.ndarray, i: int, n: int) -> np.ndarray:
    """The order of ``u[:, i:i+n]``: the order of ``u`` filtered to that range."""
    return order[(order >= i) & (order < i + n)].reshape(-1, n) - i


# Points per tile of the dense comparisons in ``_dominance``.
_TILE = 64
_EARLIER = np.triu(np.ones((_TILE, _TILE), dtype=bool), 1)  # [i, k]: i < k
_EARLIER.flags.writeable = False
# Sub-tiles per side of a tile in the bivariate KS search, and the most
# tiles per side of its top grid.  A grid of at most _KS_TOP lines has every
# cell evaluated anyway, so those series go to the line sweep instead.
_KS_SPLIT = 4
_KS_TOP = 128
# Tiles refined per batch of the search, which bounds its memory.
_KS_BATCH = 1024
# The most points (series times periods) one batched step takes at once: it
# bounds the memory of the line sweep here and of ``dcgof.boot``'s
# replicate chunks.  Each stage of a chunk pays a fixed call overhead
# whatever its rows, so larger chunks are faster; beyond 2**13 peak memory
# grows with the ordered likelihood's temporaries on (K, T, params).
CHUNK_POINTS = 2**13


def _cvm_1d(a: np.ndarray, denom: float) -> np.ndarray:
    # sum_{i,k} (1 - max(a_i, a_k)) = sum_i (1 - a_(i)) (2i - 1) over the
    # sorted values ``a`` (K, n).  Completing the square with the other two
    # terms gives 1/12 + n sum_i (a_(i) - (2i - 1)/(2n))^2, free of cancellation.
    n = a.shape[-1]
    d = a - np.arange(1.0, 2.0 * n, 2.0) / (2.0 * n)
    total = 1.0 / 12.0 + n * _dot(d, d)
    return total / (denom * denom)


def _narrow(x: np.ndarray, size: int) -> np.ndarray:
    """``x``, of values in ``range(size)``, in the narrowest unsigned type that
    holds them: numpy's stable sort is a radix sort on 16 bits or fewer."""
    return x.astype(np.min_scalar_type(size - 1), copy=False)


def _dominance(rank: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each point k of each row (K, n), ``#{i < k : rank_i <= rank_k}`` and
    the sum of ``w_i`` over ``i < k`` with ``rank_i > rank_k`` (ranks from 1).

    Pairs within a tile of _TILE consecutive points are compared densely, on
    the narrowest integer type that holds the ranks.  Merge level s then
    adds, for each point of an odd block of s points, the even block before
    it: those ranked at or below the point are read from its places in two
    orders of the row, by (block of s, rank, position) and by (block of 2s,
    rank, position).  Every level's order comes from one stable sort of the
    points by rank, by a stable sort on block ids; both keys take the
    narrowest unsigned type, on which numpy's stable sort is a radix sort
    while they fit 16 bits."""
    K, n = rank.shape
    span = int(rank.max()) + 1
    # Dense comparisons within tiles of consecutive points.  The padding sits
    # after every real point of the last tile, so it is never counted.
    m = -(-n // _TILE) * _TILE
    R = np.zeros((K, m), dtype=np.min_scalar_type(-span))
    R[:, :n] = rank
    W = np.zeros((K, m))
    W[:, :n] = w
    # At most _TILE tiles at a time, so that the (tiles, _TILE, _TILE)
    # temporaries keep one size for any batch.  gt[t, i, k] marks the
    # earlier points i of tile t ranked above k: their weights are summed,
    # and k's count is the rest of the points before it, the marks being
    # summed on bytes.
    R, W = R.reshape(-1, _TILE), W.reshape(-1, _TILE)
    above = np.empty(R.shape, dtype=np.uint8)
    sw = np.empty(R.shape)
    for lo in range(0, len(R), _TILE):
        tiles = slice(lo, lo + _TILE)
        gt = R[tiles, :, None] > R[tiles, None, :]
        gt &= _EARLIER
        above[tiles] = np.einsum("tik->tk", gt.view(np.uint8))
        sw[tiles] = np.einsum("ti,tik->tk", W[tiles], gt)
    del gt
    cnt = (np.arange(_TILE) - above).reshape(K, m)[:, :n].ravel()
    sw = sw.reshape(K, m)[:, :n].ravel()
    if n <= _TILE:
        return cnt.reshape(K, n), sw.reshape(K, n)
    # Merge levels.  Sorted by (block of s, rank, position), a row's point k
    # stands at P_s(k).  The order by blocks of 2s merges k's odd block with
    # the even block before it, whose points ranked at or below k's then
    # come before k: with the even block starting at `start`, k's count is
    # idx - start, idx = start + s + P_2s(k) - P_s(k), and the weights of
    # the others are the cumulative sums of w in the level-s order between
    # idx and start + s.  The rows lie side by side in flat orders, so the
    # row offsets of P_2s and P_s cancel.
    pos = np.arange(n)
    rows = np.arange(K)[:, None]
    w = w.ravel()
    by_rank = np.argsort(_narrow(rows * span + rank, K * span).ravel(), kind="stable")
    ranked_pos = _narrow(by_rank.reshape(K, n) - rows * n, n)  # [r, j]: row r's j-th by rank

    def level(s):
        # the flat order by (row, block of s, rank, position), and the
        # place of each point in it
        blocks = -(-n // s)
        if blocks == 1:  # the top level: the order by rank itself
            order = by_rank
        else:
            key = ranked_pos // s + _narrow(rows * blocks, K * blocks)
            order = by_rank[np.argsort(_narrow(key, K * blocks).ravel(), kind="stable")]
        place = np.empty(K * n, dtype=np.intp)
        place[order] = np.arange(K * n)
        return order, place

    s = _TILE
    order, place = level(s)
    while s < n:
        up_order, up_place = level(2 * s)
        cw = np.zeros((K, n + 1))
        np.cumsum(w[order].reshape(K, n), axis=-1, out=cw[:, 1:])
        odd = pos[pos // s % 2 == 1]
        k = (odd + rows * n).ravel()
        d = up_place[k] - place[k]  # idx - (start + s)
        cnt[k] += s + d
        end = (odd // s * s + rows * (n + 1)).ravel()  # start + s, in the flat cw
        cw = cw.ravel()
        sw[k] += cw[end] - cw[end + d]
        order, place = up_order, up_place
        s *= 2
    return cnt.reshape(K, n), sw.reshape(K, n)


def _cvm_2d(a: np.ndarray, b: np.ndarray, rank: np.ndarray, denom: float) -> np.ndarray:
    # Pair (i, k) contributes (1 - max(a_i, a_k)) (1 - max(b_i, b_k)).  With
    # the points ordered by a (sorted ``a``, and ``b`` with the ranks of its
    # values in that order), the pairs i < k contribute
    # (1 - a_k) [cnt_k (1 - b_k) + sw_k], with the dominance counts over b.
    n = a.shape[-1]
    cnt, sw = _dominance(rank, 1.0 - b)
    qq = ((1.0 - a * a) / 2.0) * ((1.0 - b * b) / 2.0)
    terms = (1.0 - a) * (1.0 - b + 2.0 * (cnt * (1.0 - b) + sw)) - 2.0 * n * qq + n / 9.0
    return terms.sum(axis=-1) / (denom * denom)


def _ks_1d(a: np.ndarray, denom: float) -> np.ndarray:
    # The process jumps at each sorted value v_(i) from i - n v to i + 1 - n v
    # (0-based i); across a run of ties the extremes are the run's first
    # value before and its last value after, the only ones that count.
    n = a.shape[-1]
    nv = n * a
    before = np.abs(np.arange(n) - nv).max(axis=-1)
    return np.maximum(np.abs(np.arange(1, n + 1) - nv).max(axis=-1), before) / denom


def _least_reaching(against: float, denom: float) -> float:
    """The least float ``x`` with ``x / denom >= against`` (``denom > 0``)."""
    # x / denom is nondecreasing in x, so the floats that reach ``against``
    # are those from this one up
    x = against * denom
    while x / denom < against:
        x = math.nextafter(x, math.inf)
    while math.nextafter(x, -math.inf) / denom >= against:
        x = math.nextafter(x, -math.inf)
    return x


def _ks_2d(row: np.ndarray, col: np.ndarray, grid: np.ndarray, denom: float,
           against: float | None = None) -> float:
    # Between jump coordinates the process is N - n*r1*r2 with N constant, so
    # its sup over each cell is N - n*r1*r2 at the cell's lower corner or
    # n*r1*r2 - N at its upper corner; corners live on the tensor grid of
    # the series' distinct values ``grid`` (in which ``row`` and ``col`` rank
    # the points from 1), their one-sided limits and the boundary 1.  A value
    # that one coordinate does not take adds only candidates no larger than
    # its neighbours', computed with the same expressions.
    #
    # The grid is searched by branch and bound over square tiles.  N, lo and
    # hi are nondecreasing and float rounding is monotone, so on rows r0..r1
    # and columns c0..c1 the low term is at most
    # N(r1, c1) - n*(lo[r0]*lo[c0]) and the high term at most
    # n*(hi[r1]*hi[c1]) - N(r0-1, c0-1), both computed with the same
    # expressions as the exact values.  A tile whose bound does not beat the
    # largest exact value found is dropped; the others split into
    # _KS_SPLIT x _KS_SPLIT sub-tiles, highest bound first, down to single
    # cells, so the result is the exact sup.
    #
    # With ``against``, the search only decides whether the sup reaches it.
    # Division by ``denom`` is monotone, so a value x / denom reaches it
    # exactly when x >= cut, the least such float.  Tiles whose bound is
    # below cut are dropped too, and the search ends once the largest exact
    # value found reaches cut.  Both rules keep every tile that holds a value
    # reaching ``against``, so the result reaches it exactly when the sup
    # does; below it, the result is a value of the process no larger than
    # the sup.
    n = row.shape[0]
    cut = math.inf if against is None else _least_reaching(against, denom)

    def beats(bound, best):
        # the tiles whose search may still change the answer; with
        # ``against``, best < cut whenever this is asked
        return bound > best if against is None else bound >= cut
    # lo carries one padding entry, read only for empty sub-tiles
    lo, hi = np.concatenate(([0.0], grid, [1.0])), np.concatenate((grid, [1.0]))
    n_rows = n_cols = hi.size

    def visit(M, rho, gam, best, split):
        # M[k, l, t] = N(rho[k, t], gam[l, t]) on the lines of tile t of a
        # batch.  Raises best to the exact values at the corners with
        # k, l >= 1; with split, also returns the sub-tiles between the lines
        # whose bound beats it, highest bound first, as (first row, first
        # column, N at the corner before the sub-tile, bound).
        r, c = rho[1:, None], gam[None, 1:]
        inner = M[1:, 1:]
        high = n * (hi[r] * hi[c])
        best = max(best, (inner - n * (lo[r] * lo[c])).max(), (high - inner).max())
        if not split or best >= cut:
            return best, None
        low = inner - n * (lo[rho[:-1, None] + 1] * lo[gam[None, :-1] + 1])
        bound = np.maximum(low, high - M[:-1, :-1])
        keep = beats(bound, best)
        keep &= (rho[1:] > rho[:-1])[:, None] & (gam[1:] > gam[:-1])[None, :]  # not empty
        k, l, t = np.nonzero(keep)
        order = np.argsort(-bound[k, l, t])
        k, l, t = k[order], l[order], t[order]
        return best, (rho[k, t] + 1, gam[l, t] + 1, M[k, l, t], bound[k, l, t])

    # The top grid: lines k*g - 1 of rows and columns (line -1 is empty),
    # with at most _KS_TOP tiles per side; a grid of more than _KS_TOP lines
    # has g > 1 (smaller ones go to ``_ks_sweep``).
    g = _KS_SPLIT
    while n_rows > _KS_TOP * g:
        g *= _KS_SPLIT
    kr = kc = -(-n_rows // g) + 1
    M = np.bincount((row // g + 1) * kc + col // g + 1, minlength=kr * kc).reshape(kr, kc)
    np.cumsum(M, axis=0, out=M)
    np.cumsum(M, axis=1, out=M)
    rho = gam = np.minimum(np.arange(kr) * g - 1, n_rows - 1)[:, None]
    best, tiles = visit(M[:, :, None], rho, gam, 0.0, True)
    pending = [] if best >= cut else [(g, tiles)]
    strips = {}
    steps = np.arange(_KS_SPLIT + 1)[:, None]
    while pending:
        g, tiles = pending[-1]
        # tiles are in descending bound order, and both rules are monotone in it
        live = np.count_nonzero(beats(tiles[3], best))
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
        if best >= cut:
            break
        if g > 1 and tiles[0].size:
            pending.append((g, tiles))
    return float(best / denom)


def _ks_sweep(ranked: tuple, pairs: list) -> np.ndarray:
    """``_ks_2d``'s largest candidate, before the division by ``denom``, for
    each process range (i, k, n) of ``pairs`` and each row of ``ranked``
    (its rows' grids of at most _KS_TOP lines): an array (len(pairs), K)."""
    # One pass over the grid lines r of every row and range at once.  On
    # line r the count N(r, c) of points with row rank <= r and column rank
    # <= c gains, from each point of row rank r, a step 1{c >= column rank};
    # the candidates of ``_ks_2d``, from the same float expressions, go into
    # a running max.  A row with fewer lines than the chunk is padded with
    # lo = hi = 1: a padding line repeats the high candidates of the row's
    # last line and has low ones no larger than its, so no value depends on
    # the batch.
    order, rank, grids = ranked
    K, Q = rank.shape[0], len(pairs)
    L = max(g.size for g in grids) + 1
    lo, hi = np.ones((2, K, L))
    lo[:, 0] = 0.0
    for lo_r, hi_r, g in zip(lo, hi, grids):
        lo_r[1 : g.size + 1] = g
        hi_r[: g.size] = g
    # The column ranks of each line's points as (line, place, range and row).
    # Ties put several points on one line; a free place holds column L,
    # whose step is empty.
    lines, places, cols = [], [], []
    pos = np.arange(rank.shape[1])
    for i, k, n in pairs:
        o = _sub_order(order, i, n)
        line = np.take_along_axis(rank[:, i : i + n], o, -1)  # nondecreasing
        new = np.ones(line.shape, dtype=bool)
        new[:, 1:] = line[:, 1:] != line[:, :-1]
        places.append(pos[:n] - np.maximum.accumulate(np.where(new, pos[:n], 0), axis=-1))
        lines.append(line)
        cols.append(np.take_along_axis(rank[:, k : k + n], o, -1))
    P = max(int(p.max()) for p in places) + 1
    at = np.full((L, P, Q, K), L)
    for q, (line, place, col) in enumerate(zip(lines, places, cols)):
        at[line, place, q, np.arange(K)[:, None]] = col
    steps = np.triu(np.ones((L + 1, L)))  # steps[j, c] = 1{c >= j}
    n = np.array([float(n) for _, _, n in pairs])[:, None, None]
    count, best = np.zeros((2, Q, K, L))
    cand, step = np.empty((2, Q, K, L))
    prod = np.empty((K, L))
    for r in range(L):
        for p in range(P):
            np.take(steps, at[r, p], axis=0, out=step)
            count += step
        np.multiply(lo[:, r, None], lo, out=prod)
        np.multiply(n, prod, out=cand)
        np.subtract(count, cand, out=cand)  # N - n*(lo[r]*lo[c])
        np.maximum(best, cand, out=best)
        np.multiply(hi[:, r, None], hi, out=prod)
        np.multiply(n, prod, out=cand)
        cand -= count  # n*(hi[r]*hi[c]) - N
        np.maximum(best, cand, out=best)
    return best.max(axis=-1)


def _cvm(u: np.ndarray, kind: StatKind, ranked: tuple) -> np.ndarray:
    """CvM values of a batch ``u`` (K, T), read from ``ranked`` = ``_ranked(u)``."""
    order, rank, _ = ranked
    i, k, n, denom = _process_pairs(u.shape[-1], kind)
    o = _sub_order(order, i, n)
    a = np.take_along_axis(u[:, i : i + n], o, -1)
    if k is None:
        return _cvm_1d(a, denom)
    b, rank_b = (np.take_along_axis(x[:, k : k + n], o, -1) for x in (u, rank))
    return _cvm_2d(a, b, rank_b, denom)


def _ks(u: np.ndarray, kinds: Sequence[StatKind], ranked: tuple, *,
        against: dict | None = None) -> list:
    """KS values (K,) of a batch ``u`` (K, T) for each of ``kinds``, read from
    ``ranked`` = ``_ranked(u)``.  The bivariate kinds of the rows whose grid
    has at most _KS_TOP lines come from sweeps over slices of at most
    CHUNK_POINTS points, the others' from the search.

    ``against`` maps kinds to a value each: the search of such a kind then
    only decides whether the value reaches it (``_ks_2d``).  The sweep and
    the univariate kind stay exact."""
    # the 2-D candidates and bounds need the grid coordinates to be monotone
    if not (u.min() >= 0.0 and u.max() <= 1.0):
        raise ValueError("KS residuals must lie in [0, 1]")
    against = against or {}
    order, rank, grids = ranked
    pairs = [_process_pairs(u.shape[-1], kind) for kind in kinds]
    out = [np.empty(u.shape[0]) for _ in kinds]
    two_d = [q for q, (_, k, _, _) in enumerate(pairs) if k is not None]
    small = np.array([g.size < _KS_TOP for g in grids])  # g.size + 1 lines
    sweep = np.flatnonzero(small) if two_d else np.empty(0, dtype=np.int64)
    size = max(1, CHUNK_POINTS // u.shape[-1])
    for start in range(0, sweep.size, size):
        rows = sweep[start : start + size]
        sub = (order[rows], rank[rows], [grids[r] for r in rows])
        best = _ks_sweep(sub, [pairs[q][:3] for q in two_d])
        for q, b in zip(two_d, best):
            out[q][rows] = b / pairs[q][3]
    for q, (i, k, n, denom) in enumerate(pairs):
        if k is None:
            out[q][:] = _ks_1d(np.take_along_axis(u[:, i : i + n], _sub_order(order, i, n), -1), denom)
            continue
        a = against.get(kinds[q])
        for r in np.flatnonzero(~small):
            out[q][r] = _ks_2d(rank[r, i : i + n], rank[r, k : k + n], grids[r], denom, a)
    return out


def _nonnegative(values: np.ndarray) -> np.ndarray:
    """The rule of every statistic value: finite and at least -1e-12, with
    the rounding below zero cut to zero."""
    if not np.all(np.isfinite(values)) or np.any(values < -1e-12):
        raise ValueError(f"statistic value must be finite and nonnegative, got {values}")
    return np.maximum(values, 0.0)


def cvm_stat(u, kind: StatKind) -> StatValue:
    """Cramer-von Mises statistic: exact closed form of the integrated square."""
    if kind.tag not in ("CvM_p", "CvM_2j"):
        raise ValueError(f"not a CvM kind: {kind}")
    u = _check_u(u)[np.newaxis]
    _check_stats([kind], u.shape[-1])
    return StatValue(kind=kind, value=_cvm(u, kind, _ranked(u))[0])


def ks_stat(u, kind: StatKind) -> StatValue:
    """Kolmogorov-Smirnov statistic: exact sup over the jump candidate set."""
    if kind.tag not in ("KS_p", "KS_2j"):
        raise ValueError(f"not a KS kind: {kind}")
    u = _check_u(u)[np.newaxis]
    _check_stats([kind], u.shape[-1])
    return StatValue(kind=kind, value=_ks(u, [kind], _ranked(u))[0][0])


def residuals_gaussian(u) -> np.ndarray:
    """Normal quantiles of the PIT residuals (one series or a batch)."""
    u = _check_u(u, batch=True)
    if u.size and (u.min() <= 0.0 or u.max() >= 1.0):
        raise ValueError("residuals must lie strictly inside (0, 1)")
    return _special.ndtri(u)


def residuals_discrete(spec: ModelSpec, theta: Theta, series: Series) -> np.ndarray:
    """Standardized discrete residuals ``(Y_t - E[Y_t]) / sd(Y_t)``.

    From the evaluation of the law the PIT uses, at every period from t = 0.

    Raises
    ------
    AssumptionViolationError
        If a realized cell probability falls below the hard floor (a warning
        below the warning floor), or, with its own message, if a conditional
        variance is zero.
    """
    theta.validate(spec)
    series.validate(spec)
    law = _fitted_law(spec, theta.to_vector()[np.newaxis], _Batch.of(series), discrete=True)
    law.check()
    return law.e[0]


def _acf2_sums(resid, m: int) -> tuple[int, list]:
    """Length ``T`` and the running sums ``sum_{j<=k} acf(j)^2``, k = 1..m,
    of the mean-centered residuals (along the last axis)."""
    x = np.asarray(resid, dtype=float)
    T = x.shape[-1]
    xc = x - x.mean(axis=-1, keepdims=True)
    denom = _dot(xc, xc)
    if np.any(denom <= 0.0):
        raise ValueError("residual series has zero variance")
    sums = []
    acf2 = 0.0
    for j in range(1, m + 1):
        rho = _dot(xc[..., j:], xc[..., :-j]) / denom
        acf2 = acf2 + rho * rho
        sums.append(acf2)
    return T, sums


def box_pierce(resid, m: int) -> StatValue:
    """Box-Pierce statistic ``T * sum_{j=1}^{m} acf(j)^2`` on mean-centered residuals."""
    kind, resid = StatKind(tag="BPU_m", m=int(m)), _check_u(resid)
    _check_stats([kind], resid.shape[-1])
    T, sums = _acf2_sums(resid, kind.m)
    return StatValue(kind=kind, value=T * sums[-1])


def _jarque_bera(x: np.ndarray):
    """Jarque-Bera statistic along the last axis."""
    T = x.shape[-1]
    xc = x - x.mean(axis=-1, keepdims=True)
    xc2 = xc * xc
    m2 = np.mean(xc2, axis=-1)
    if np.any(m2 <= 0.0):
        raise ValueError("series has zero variance")
    # Python's pow, not numpy's: the two differ in the last bit
    m2_15 = np.reshape([v**1.5 for v in np.ravel(m2).tolist()], m2.shape)
    # products, not xc**3 and xc**4, which call libm's pow per element
    skew = np.mean(xc2 * xc, axis=-1) / m2_15
    kurt = np.mean(xc2 * xc2, axis=-1) / (m2 * m2)
    return T / 6.0 * (skew * skew + (kurt - 3.0) ** 2 / 4.0)


def jarque_bera(values) -> StatValue:
    """Jarque-Bera normality statistic from moment skewness and kurtosis."""
    kind, values = StatKind(tag="JB"), _check_u(values)
    _check_stats([kind], values.shape[-1])
    return StatValue(kind=kind, value=_jarque_bera(values))


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


def evaluate_statistics(kinds: Sequence[StatKind], u, e=None, *, against: dict | None = None) -> dict:
    """Evaluate the requested statistics on PIT residuals ``u`` (and discrete
    residuals ``e`` where needed).  Returns ``{name: value}``.

    ``u`` is one series (T,), with float values, or a batch (K, T), with an
    array (K,) of values per name.  A batch runs the same operations on each
    row as a series alone, so a row's values do not depend on the batch.

    ``against`` (private) maps KS kinds to values: a bivariate KS value from
    the search is then exact only in whether it reaches its kind's value
    (see ``_ks``), which is all a bootstrap p-value reads of a draw.
    """
    u = _check_u(u, batch=True)
    U = u.reshape(-1, u.shape[-1])
    _check_stats(kinds, U.shape[-1])
    out: dict = {}
    # Each computed at most once: one sort of each series serves every CvM
    # and KS kind, one KS call every KS kind, one autocorrelation pass up to
    # the largest lag every BP_m.
    gaussian = functools.cache(lambda: residuals_gaussian(U))
    ranked = functools.cache(lambda: _ranked(U))
    ks_kinds = [k for k in kinds if k.tag in ("KS_p", "KS_2j")]
    ks = functools.cache(lambda: dict(zip(ks_kinds, _ks(U, ks_kinds, ranked(), against=against))))

    @functools.cache
    def acf2(tag: str) -> tuple[int, list]:
        if tag == "BPU_m":
            x = U
        elif tag == "BPN_m":
            x = gaussian()
        elif e is None:
            raise ValueError("discrete residuals required for BPD statistics")
        else:
            x = np.asarray(e, dtype=float).reshape(U.shape)
        return _acf2_sums(x, max(k.m for k in kinds if k.tag == tag))

    def aggregate_of(family: str, field: str) -> np.ndarray:
        # the Bartlett sum over orders or lags 1 and 2, weights 1 - j/3
        terms = (_cvm(U, StatKind(family, **{field: j}), ranked()) for j in (1, 2))
        return sum((1.0 - j / 3.0) * _nonnegative(v) for j, v in enumerate(terms, 1))

    for kind in kinds:
        if kind.tag in ("CvM_p", "CvM_2j"):
            value = _cvm(U, kind, ranked())
        elif kind.tag in ("KS_p", "KS_2j"):
            value = ks()[kind]
        elif kind.tag in ("BPU_m", "BPN_m", "BPD_m"):
            T, sums = acf2(kind.tag)
            value = T * sums[kind.m - 1]
        elif kind.tag == "JB":
            value = _jarque_bera(gaussian())
        elif kind.tag == "ADP":
            value = aggregate_of("CvM_p", "p")
        else:  # ADJ
            value = aggregate_of("CvM_2j", "j")
        out[kind.name] = _nonnegative(value)
    if u.ndim == 1:
        return {name: float(value[0]) for name, value in out.items()}
    return out

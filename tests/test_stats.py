import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps
from scipy.special import ndtr

from dcgof.model import AssumptionViolationError, ModelSpec, Series, Theta, simulate
from dcgof.rng import substream
from dcgof.transform import U_CLAMP
from dcgof.stats import (
    StatKind,
    StatValue,
    box_pierce,
    cvm_stat,
    evaluate_statistics,
    jarque_bera,
    ks_stat,
    residuals_discrete,
    residuals_gaussian,
    v2_limit_cov,
)
from dcgof import stats
from dcgof.stats import (
    _KS_TOP,
    _TILE,
    CHUNK_POINTS,
    _check_stats,
    _cvm_1d,
    _cvm_2d,
    _dominance,
    _ks,
    _ks_2d,
    _ks_sweep,
    _process_pairs,
    _ranked,
)

U3 = np.array([0.25, 0.5, 0.75])


# --- oracles: the processes at one point, and the quadratic-memory kernels ---

def v_process_1(u, r):
    """One-parameter empirical process at ``r``."""
    u = np.asarray(u, dtype=float)
    a = u[:-1]
    return float((np.sum(a <= r) - a.shape[0] * r) / math.sqrt(u.shape[0] - 2))


def v_process_2(u, r1, r2):
    """Joint process of two consecutive residuals at ``(r1, r2)``."""
    u = np.asarray(u, dtype=float)
    T = u.shape[0]
    a, b = u[1 : T - 1], u[: T - 2]
    hits = np.sum((a <= r1) & (b <= r2))
    return float((hits - a.shape[0] * r1 * r2) / math.sqrt(T - 3))


def v_process_2j(u, j, r1, r2):
    """Lag-``j`` pairwise process at ``(r1, r2)``."""
    u = np.asarray(u, dtype=float)
    a, b = u[j:], u[:-j]
    hits = np.sum((a <= r1) & (b <= r2))
    return float((hits - a.shape[0] * r1 * r2) / math.sqrt(u.shape[0] - j))


def cvm_1d_outer(a, denom):
    """CvM closed form from the T x T matrix of ``1 - max(a_i, a_k)``."""
    n = a.shape[0]
    M = 1.0 - np.maximum.outer(a, a)
    q = (1.0 - a * a) / 2.0
    return float((M.sum() - 2.0 * n * q.sum() + n * n / 3.0) / (denom * denom))


def cvm_2d_outer(a, b, denom):
    n = a.shape[0]
    A = 1.0 - np.maximum.outer(a, a)
    B = 1.0 - np.maximum.outer(b, b)
    qq = ((1.0 - a * a) / 2.0) * ((1.0 - b * b) / 2.0)
    return float(((A * B).sum() - 2.0 * n * qq.sum() + n * n / 9.0) / (denom * denom))


def cvm_fsum(a, b, denom):
    """The CvM double sum, one rounded O(1) term per pair, summed exactly."""
    P = 1.0 - np.maximum.outer(a, a)
    q = (1.0 - a * a) / 2.0
    c = 1.0 / 3.0
    if b is not None:
        P = P * (1.0 - np.maximum.outer(b, b))
        q = q * ((1.0 - b * b) / 2.0)
        c = 1.0 / 9.0
    return math.fsum((P - q[:, None] - q[None, :] + c).ravel()) / (denom * denom)


def ks_2d_dense(a, b, denom):
    """Bivariate KS sup over the full (T+1)^2 cumulative count grid."""
    n = a.shape[0]
    ga, gb = np.unique(a), np.unique(b)
    ia, ib = np.searchsorted(ga, a), np.searchsorted(gb, b)
    H = np.zeros((ga.size, gb.size))
    np.add.at(H, (ia, ib), 1.0)
    N = np.zeros((ga.size + 1, gb.size + 1))
    N[1:, 1:] = H.cumsum(axis=0).cumsum(axis=1)
    lo_a, hi_a = np.concatenate(([0.0], ga)), np.concatenate((ga, [1.0]))
    lo_b, hi_b = np.concatenate(([0.0], gb)), np.concatenate((gb, [1.0]))
    best = np.abs(N - n * np.outer(lo_a, lo_b)).max()
    best = max(best, np.abs(N - n * np.outer(hi_a, hi_b)).max())
    return float(best / denom)


def ks_2d_sweep(a, b, denom):
    """Bivariate KS sup over the whole grid, swept in blocks of 64 grid rows
    with O(T) memory, with the expressions of ``_ks_2d``'s exact values."""
    rows = 64
    n = a.shape[0]
    ga, gb = np.unique(a), np.unique(b)
    row = np.searchsorted(ga, a) + 1  # first grid row whose count includes the point
    col = np.searchsorted(gb, b) + 1
    order = np.argsort(row)
    row, col = row[order], col[order]
    lo_a, hi_a = np.concatenate(([0.0], ga)), np.concatenate((ga, [1.0]))
    lo_b, hi_b = np.concatenate(([0.0], gb)), np.concatenate((gb, [1.0]))
    n_rows, n_cols = lo_a.size, lo_b.size
    starts = range(0, n_rows, rows)
    cuts = np.searchsorted(row, [*starts, n_rows])
    run = np.zeros(n_cols, dtype=np.int64)
    best = 0.0
    for blk, r0 in enumerate(starts):
        r1 = min(r0 + rows, n_rows)
        pts = slice(cuts[blk], cuts[blk + 1])
        N = np.bincount((row[pts] - r0) * n_cols + col[pts], minlength=(r1 - r0) * n_cols)
        N = N.reshape(r1 - r0, n_cols)
        N[0] += run
        np.cumsum(N, axis=0, out=N)
        run = N[-1].copy()
        np.cumsum(N, axis=1, out=N)
        low = (N - n * np.outer(lo_a[r0:r1], lo_b)).max()
        high = (n * np.outer(hi_a[r0:r1], hi_b) - N).max()
        best = max(best, low, high)
    return float(best / denom)


def dominance_pairs(rank, w, block=256):
    """``_dominance`` of one row from every pair (i, k), i < k, ``block``
    points k at a time: the count of ``rank_i <= rank_k`` and the sum of
    ``w_i`` over the others."""
    n = rank.shape[0]
    cnt, sw = np.empty(n, dtype=np.int64), np.empty(n)
    for lo in range(0, n, block):
        k = np.arange(lo, min(lo + block, n))
        i = np.arange(k[-1])
        earlier = i[None, :] < k[:, None]
        le = rank[None, i] <= rank[k, None]
        cnt[k] = (le & earlier).sum(axis=1)
        sw[k] = np.einsum("ki,i->k", ~le & earlier, w[i])
    return cnt, sw


@st.composite
def residual_series(draw, min_T=4, max_T=200):
    """PIT-like residuals with ties (rounding) and clamped extremes."""
    T = draw(st.integers(min_T, max_T))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = rng.random(T)
    decimals = draw(st.sampled_from([None, 1, 2, 3]))
    if decimals is not None:
        u = np.round(u, decimals)
    hit = rng.random(T) < draw(st.sampled_from([0.0, 0.1, 0.3]))
    u[hit] = np.where(rng.random(hit.sum()) < 0.5, U_CLAMP, 1.0 - U_CLAMP)
    return np.clip(u, U_CLAMP, 1.0 - U_CLAMP)


def lag_pairs(u, j):
    return u[j:], u[:-j], math.sqrt(u.shape[0] - j)


def ks_2d_of(u, i, k, n, denom):
    """The bivariate KS of the pairs (u[i + t], u[k + t]), t < n, ranked in
    the series' distinct values: ``_ks_sweep`` on a grid of at most _KS_TOP
    lines, ``_ks_2d`` on a larger one."""
    grid, inverse = np.unique(u, return_inverse=True)
    if grid.size < _KS_TOP:  # grid.size + 1 lines
        return float(_ks_sweep(_ranked(u[np.newaxis]), [(i, k, n)])[0, 0] / denom)
    return _ks_2d(inverse[i : i + n] + 1, inverse[k : k + n] + 1, grid, denom)


def cvm_2d_of(u, i, k, n, denom):
    """``_cvm_2d`` on the pairs (u[i + t], u[k + t]), t < n, ordered by the
    first coordinate, with the second's ranks in the series' distinct values."""
    rank = np.unique(u, return_inverse=True)[1] + 1
    o = np.argsort(u[i : i + n], kind="stable")
    a, b, rank_b = u[i : i + n][o], u[k : k + n][o], rank[k : k + n][o]
    return _cvm_2d(a[np.newaxis], b[np.newaxis], rank_b[np.newaxis], denom)[0]


def brute_v1(u, r):
    """Direct-summation oracle for the one-parameter process."""
    T = len(u)
    total = 0.0
    for t in range(2, T + 1):
        total += (1.0 if u[t - 2] <= r else 0.0) - r
    return total / math.sqrt(T - 2)


def brute_v2j(u, j, r1, r2):
    T = len(u)
    total = 0.0
    for t in range(j + 1, T + 1):
        i1 = 1.0 if u[t - 1] <= r1 else 0.0
        i2 = 1.0 if u[t - j - 1] <= r2 else 0.0
        total += i1 * i2 - r1 * r2
    return total / math.sqrt(T - j)


def test_hypothesis_runs_the_same_examples_every_time():
    # tests/conftest.py loads a derandomized profile with no example database
    assert settings.default.derandomize is True
    assert settings.default.database is None


class TestVProcesses:
    def test_v1_hand_value(self):
        assert v_process_1(U3, 0.4) == pytest.approx(0.2, abs=1e-14)

    def test_v1_boundaries(self):
        assert v_process_1(U3, 0.0) == 0.0
        assert v_process_1(U3, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_v2j_hand_value(self):
        assert v_process_2j(np.array([0.2, 0.8]), 1, 0.5, 0.5) == pytest.approx(-0.25, abs=1e-14)

    def test_v2j_boundary(self):
        u = substream(0, "u").random(30)
        assert v_process_2j(u, 1, 1.0, 1.0) == pytest.approx(0.0, abs=1e-12)

    @given(st.integers(0, 1000), st.floats(0.0, 1.0), st.integers(1, 3))
    @settings(max_examples=60)
    def test_matches_brute_force(self, seed, r, j):
        u = substream(seed, "brute").random(12)
        assert v_process_1(u, r) == pytest.approx(brute_v1(u, r), abs=1e-12)
        assert v_process_2j(u, j, r, 0.3) == pytest.approx(brute_v2j(u, j, r, 0.3), abs=1e-12)


def cvm_quadrature_oracle_1d(u, n_grid=200):
    """Integrate the squared process with 2-point Gauss rules on the uniform
    grid refined by the jump coordinates (the integrand is piecewise
    quadratic, so this is exact)."""
    T = len(u)
    a = u[:-1]
    denom = math.sqrt(T - 2)
    cuts = np.unique(np.concatenate((np.linspace(0.0, 1.0, n_grid + 1), a)))
    nodes_x, nodes_w = np.polynomial.legendre.leggauss(2)
    mid, half = (cuts[1:] + cuts[:-1]) / 2.0, (cuts[1:] - cuts[:-1]) / 2.0
    r = (mid[:, None] + half[:, None] * nodes_x[None, :]).ravel()
    w = (half[:, None] * nodes_w[None, :]).ravel()
    V = ((a[None, :] <= r[:, None]).sum(axis=1) - len(a) * r) / denom
    return float(w @ (V * V))


def cvm_quadrature_oracle_2d(u, kind, n_grid=200):
    T = len(u)
    if kind.tag == "CvM_2j":
        a, b, denom = u[kind.j:], u[:-kind.j], math.sqrt(T - kind.j)
    else:
        a, b, denom = u[1 : T - 1], u[: T - 2], math.sqrt(T - 3)
    nodes_x, nodes_w = np.polynomial.legendre.leggauss(2)

    def axis(vals):
        cuts = np.unique(np.concatenate((np.linspace(0.0, 1.0, n_grid + 1), vals)))
        mid, half = (cuts[1:] + cuts[:-1]) / 2.0, (cuts[1:] - cuts[:-1]) / 2.0
        r = (mid[:, None] + half[:, None] * nodes_x[None, :]).ravel()
        w = (half[:, None] * nodes_w[None, :]).ravel()
        return r, w

    r1, w1 = axis(a)
    r2, w2 = axis(b)
    ind1 = (a[None, :] <= r1[:, None]).astype(float)
    ind2 = (b[None, :] <= r2[:, None]).astype(float)
    V = (ind1 @ ind2.T - len(a) * np.outer(r1, r2)) / denom
    return float(w1 @ (V * V) @ w2)


class TestCvm:
    def test_hand_value(self):
        got = cvm_stat(U3, StatKind.from_name("CvM0")).value
        assert got == pytest.approx(5.0 / 24.0, abs=1e-14)
        assert got == pytest.approx(cvm_quadrature_oracle_1d(U3), abs=1e-12)

    def test_identical_values(self):
        # all u at 0.5, T=3: integral of (2*1{0.5<=r} - 2r)^2 / 1 equals 1/3
        u = np.array([0.5, 0.5, 0.5])
        assert cvm_stat(u, StatKind.from_name("CvM0")).value == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_matches_quadrature_1d(self):
        u = substream(1, "cvm").random(60)
        closed = cvm_stat(u, StatKind.from_name("CvM0")).value
        assert abs(closed - cvm_quadrature_oracle_1d(u)) <= 1e-4

    @pytest.mark.parametrize("name", ["CvM1", "CvM2", "CvMp2"])
    def test_matches_quadrature_2d(self, name):
        u = substream(2, "cvm2").random(40)
        kind = StatKind.from_name(name)
        closed = cvm_stat(u, kind).value
        assert abs(closed - cvm_quadrature_oracle_2d(u, kind)) <= 1e-4

    def test_matches_independent_double_sum(self):
        u = substream(3, "cvm3").random(25)
        a, b = u[1:], u[:-1]
        n = len(a)
        total = 0.0
        for s in range(n):
            for t in range(n):
                term = (1.0 - max(a[s], a[t])) * (1.0 - max(b[s], b[t]))
                term -= (1.0 - a[s] ** 2) / 2.0 * (1.0 - b[s] ** 2) / 2.0
                term -= (1.0 - a[t] ** 2) / 2.0 * (1.0 - b[t] ** 2) / 2.0
                term += 1.0 / 9.0
                total += term
        brute = total / (len(u) - 1)
        closed = cvm_stat(u, StatKind.from_name("CvM1")).value
        assert closed == pytest.approx(brute, abs=1e-12)


class TestKs:
    @given(residual_series(), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_sup_bounds_the_process_at_any_point(self, u, r1, r2, j):
        ks = {n: ks_stat(u, StatKind.from_name(n)).value for n in ("KS0", "KSp2")}
        assert abs(v_process_1(u, r1)) <= ks["KS0"] + 1e-12
        assert abs(v_process_2(u, r1, r2)) <= ks["KSp2"] + 1e-12
        if u.shape[0] >= j + 2:
            ksj = ks_stat(u, StatKind.from_name(f"KS{j}")).value
            assert abs(v_process_2j(u, j, r1, r2)) <= ksj + 1e-12

    @pytest.mark.parametrize("name", ["KS0", "KS1", "KSp2"])
    def test_residuals_outside_unit_interval_rejected(self, name):
        for bad in (-0.1, 1.5, np.nan):
            u = substream(18, "ks-range").random(20)
            u[7] = bad
            with pytest.raises(ValueError):
                ks_stat(u, StatKind.from_name(name))

    def test_hand_value(self):
        # V jumps to 1 at r=0.5: sup is 1
        assert ks_stat(U3, StatKind.from_name("KS0")).value == pytest.approx(1.0, abs=1e-14)

    def test_dominates_dense_grid_1d(self):
        u = substream(4, "ks").random(50)
        exact = ks_stat(u, StatKind.from_name("KS0")).value
        r = substream(5, "probe").random(100_000)
        a = u[:-1]
        vals = np.abs((a[None, :] <= r[:, None]).sum(axis=1) - len(a) * r) / math.sqrt(len(u) - 2)
        assert exact >= vals.max() - 1e-12

    def test_finer_grid_changes_nothing(self):
        # candidate-set sup equals the sup over a 10x finer evaluation grid
        u = substream(6, "ks2").random(30)
        exact = ks_stat(u, StatKind.from_name("KS1")).value
        a, b = u[1:], u[:-1]
        n = len(a)
        grid = np.linspace(0.0, 1.0, 10 * n + 1)
        cand = np.unique(np.concatenate((grid, a, b, np.nextafter(a, -1), np.nextafter(b, -1))))
        ind1 = (a[None, :] <= cand[:, None]).astype(float)
        ind2 = (b[None, :] <= cand[:, None]).astype(float)
        V = np.abs(ind1 @ ind2.T - n * np.outer(cand, cand)) / math.sqrt(len(u) - 1)
        assert exact >= V.max() - 1e-12
        assert exact == pytest.approx(V.max(), abs=1e-9)


class TestKernels:
    """The O(T log T) CvM and the O(T)-memory KS search against the oracles."""

    @given(residual_series(), st.integers(1, 3))
    @settings(max_examples=80, deadline=None)
    def test_ks_2d_equals_dense_grid(self, u, j):
        if u.shape[0] < j + 2:
            return
        T = u.shape[0]
        a, b, denom = lag_pairs(u, j)
        assert ks_2d_of(u, j, 0, T - j, denom) == ks_2d_dense(a, b, denom)
        a, b, denom = u[1 : T - 1], u[: T - 2], math.sqrt(T - 3)
        assert ks_2d_of(u, 1, 0, T - 2, denom) == ks_2d_dense(a, b, denom)

    @pytest.mark.parametrize("min_T, max_T", [(5, _KS_TOP - 1), (_KS_TOP, 200)])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_ks_kinds_of_one_call_equal_dense_grid(self, min_T, max_T, data):
        # T below _KS_TOP always takes the line sweep; above it, series
        # without ties take the search and rounded ones the sweep
        u = data.draw(residual_series(min_T=min_T, max_T=max_T))
        T = u.shape[0]
        kinds = [StatKind.from_name(name) for name in ("KS1", "KS2", "KS3", "KSp2")]
        values = _ks(u[np.newaxis], kinds, _ranked(u[np.newaxis]))
        for kind, value in zip(kinds, values):
            i, k, n, denom = _process_pairs(T, kind)
            assert value[0] == ks_2d_dense(u[i : i + n], u[k : k + n], denom), kind.name

    def test_ks_rows_of_a_mixed_chunk_equal_their_own(self):
        # rows with ties (fewer grid lines) and rows on both sides of
        # _KS_TOP in one chunk: each row gives the value it has alone
        T = 160
        rng = substream(23, "ks-mixed")
        rows = [rng.random(T), np.round(rng.random(T), 1), np.round(rng.random(T), 2)]
        for distinct in (_KS_TOP - 2, _KS_TOP - 1, _KS_TOP, _KS_TOP + 1):
            values = rng.random(distinct)
            rows.append(rng.permutation(np.concatenate((values, rng.choice(values, T - distinct)))))
        u = np.clip(np.stack(rows), U_CLAMP, 1.0 - U_CLAMP)
        grids = _ranked(u)[2]
        assert {g.size < _KS_TOP for g in grids} == {True, False}
        kinds = [StatKind.from_name(name) for name in ("KS0", "KS1", "KS2", "KS3", "KSp2")]
        batch = _ks(u, kinds, _ranked(u))
        for r, row in enumerate(u):
            alone = _ks(row[np.newaxis], kinds, _ranked(row[np.newaxis]))
            for kind, got, want in zip(kinds, batch, alone):
                assert got[r] == want[0], (r, kind.name)
                if kind.name != "KS0":
                    i, k, n, denom = _process_pairs(T, kind)
                    assert got[r] == ks_2d_dense(row[i : i + n], row[k : k + n], denom)

    def test_ks_sweep_on_hammersley_set(self):
        # 127 evenly spread points, the most grid lines the sweep takes: the
        # first coordinate (i + 1/2)/n, the second the base-2 radical
        # inverse of i on the same values, in a shuffled order
        n = _KS_TOP - 1
        radical = [int(f"{i:07b}"[::-1], 2) for i in range(n)]
        a = (np.arange(n) + 0.5) / n
        b = (np.argsort(np.argsort(radical)) + 0.5) / n
        perm = substream(24, "hammersley").permutation(n)
        u = np.concatenate((b[perm], a[perm]))  # the pairs (u[n + t], u[t])
        denom = math.sqrt(n)
        assert ks_2d_of(u, n, 0, n, denom) == ks_2d_dense(a, b, denom)

    @given(residual_series(min_T=_KS_TOP, max_T=400), st.floats(0.5, 1.5))
    @settings(max_examples=60, deadline=None)
    def test_ks_search_decides_against_a_value(self, u, scale):
        # against a value, each KS kind reaches it exactly when its exact
        # value does, and never exceeds the exact value; rounded series take
        # the sweep, which stays exact
        kinds = [StatKind.from_name(name) for name in ("KS0", "KS1", "KS2", "KSp2")]
        U = u[np.newaxis]
        ranked = _ranked(U)
        exact = [v[0] for v in _ks(U, kinds, ranked)]
        for at in (lambda e: 0.0, lambda e: e * scale, lambda e: e,
                   lambda e: math.nextafter(e, -math.inf), lambda e: math.nextafter(e, math.inf)):
            against = {kind: at(e) for kind, e in zip(kinds, exact)}
            values = _ks(U, kinds, ranked, against=against)
            for kind, e, value in zip(kinds, exact, values):
                a = against[kind]
                assert (value[0] >= a) == (e >= a), (kind.name, a)
                assert 0.0 <= value[0] <= e, kind.name
                if kind.name == "KS0" or np.unique(u).size < _KS_TOP:  # the sweep
                    assert value[0] == e, kind.name

    @pytest.mark.parametrize("T", [300, 2500])
    def test_ks_search_decides_at_every_level(self, T):
        # thresholds across the values of 40 series at T=300 and of 8 at
        # T=2500, whose search refines tiles of 64, 16 and 4 grid lines
        kind = StatKind.from_name("KS1")
        i, k, n, denom = _process_pairs(T, kind)
        series = [substream(26, "ks-decide", T, s).random(T) for s in range(40 if T < 1000 else 8)]
        ranks = [np.unique(u, return_inverse=True) for u in series]
        exact = [_ks_2d(r[i : i + n] + 1, r[k : k + n] + 1, grid, denom) for grid, r in ranks]
        for a in np.quantile(exact, [0.1, 0.5, 0.9]):
            for (grid, r), e in zip(ranks, exact):
                value = _ks_2d(r[i : i + n] + 1, r[k : k + n] + 1, grid, denom, a)
                assert (value >= a) == (e >= a) and value <= e

    def check_dominance(self, rank, w):
        # the pair counts, and each row alone gives what it gives in the
        # batch; the weight sums are differences of cumulative sums over the
        # row, so their rounding scales with the row's total weight
        cnt, sw = _dominance(rank, w)
        assert cnt.dtype == np.int64 and sw.dtype == np.float64
        for r in range(rank.shape[0]):
            alone = _dominance(rank[r : r + 1], w[r : r + 1])
            assert np.array_equal(cnt[r], alone[0][0]) and np.array_equal(sw[r], alone[1][0]), r
            want_cnt, want_sw = dominance_pairs(rank[r], w[r])
            assert np.array_equal(cnt[r], want_cnt), r
            np.testing.assert_allclose(sw[r], want_sw, rtol=1e-13, atol=1e-13 * max(1.0, w[r].sum()))

    @pytest.mark.parametrize("n", [2, 63, 64, 65, 127, 128, 129, 4097])
    def test_dominance_at_tile_and_level_edges(self, n):
        # on both sides of a tile and of a merge level; rows with distinct
        # ranks, with ties, all equal, and with the gaps of a sub-series'
        # ranks within its whole series; n off a multiple of _TILE pads
        rng = substream(28, "dominance-edges", n)
        rows = [rng.permutation(n) + 1, rng.integers(1, 4, n), np.full(n, 7),
                np.unique(np.round(rng.random(n), 2), return_inverse=True)[1] + 1,
                rng.choice(3 * n, n, replace=False) + 1]
        self.check_dominance(np.stack(rows), rng.random((len(rows), n)))

    def test_dominance_on_a_wide_flat_key(self):
        # 3 rows of ranks up to 30000: the batch's sort key (row, rank) takes
        # more than 16 bits, a row's alone does not
        rng = substream(29, "dominance-wide-key")
        rank = np.stack([rng.choice(30000, 300, replace=False) + 1 for _ in range(3)])
        rank[:, :20] = rank[:, 20:40]  # ties
        assert 3 * (int(rank.max()) + 1) > 2**16 >= int(rank.max()) + 1
        self.check_dominance(rank, rng.random(rank.shape))

    def test_dominance_past_the_int16_ranks(self):
        # one row of 2**15 + 100 points, ranked up to past 2**15 - 1 with
        # ties: the dense stage compares 32-bit ranks
        rng = substream(30, "dominance-int16")
        n = 2**15 + 100
        rank = rng.integers(1, n + 1, (1, n))
        assert rank.max() > np.iinfo(np.int16).max
        self.check_dominance(rank, rng.random(rank.shape))

    def test_dominance_over_many_tiles(self):
        # (70, 300) pads to 5 tiles a row, 350 tiles in all, so the dense
        # stage takes 6 slices of _TILE tiles; rows 12, 25, 38 and 51 span a
        # slice edge and rows 63 and 64 meet at one.  Each row gives what it
        # gives alone, and the counts are those of the pairs, ties included.
        rng = substream(27, "dominance")
        u = np.round(rng.random((70, 300)), 2)
        rank = np.unique(u, return_inverse=True)[1].reshape(u.shape) + 1
        w = rng.random(u.shape)
        assert u.size > _TILE**2
        cnt, sw = _dominance(rank, w)
        earlier = np.tri(300, k=-1, dtype=bool)  # [k, i]: i < k
        for r in range(70):
            alone = _dominance(rank[r : r + 1], w[r : r + 1])
            assert np.array_equal(cnt[r], alone[0][0]) and np.array_equal(sw[r], alone[1][0]), r
            le = rank[r, np.newaxis, :] <= rank[r, :, np.newaxis]  # [k, i]: rank_i <= rank_k
            assert np.array_equal(cnt[r], (le & earlier).sum(axis=1)), r
            np.testing.assert_allclose(sw[r], (~le & earlier) @ w[r], rtol=1e-13, atol=1e-13)

    def test_ks_sweep_memory_is_bounded_in_the_batch(self):
        # the sweep takes the small-grid rows in slices of CHUNK_POINTS
        # points, so a large batch needs a few copies of its input, and each
        # row keeps the value it has alone
        u = substream(25, "ks-sweep-mem").random((2000, 100))
        kinds = [StatKind.from_name(name) for name in ("KS1", "KS2")]
        tracemalloc.start()
        try:
            batch = evaluate_statistics(kinds, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * u.nbytes
        size = CHUNK_POINTS // u.shape[1]
        for r in sorted({0, size - 1, size, 2 * size - 1, *range(1, 2000, 97), 1999}):
            for name, value in evaluate_statistics(kinds, u[r]).items():
                assert batch[name][r] == value, (r, name)

    @given(residual_series(min_T=2100, max_T=3000), st.integers(1, 3))
    @settings(max_examples=10, deadline=None)
    def test_ks_2d_equals_row_sweep_across_all_levels(self, u, j):
        # with more than 2048 grid rows the search refines tiles of 64, 16
        # and 4 grid lines before the single cells; ties can shrink the grid
        T = u.shape[0]
        a, b, denom = lag_pairs(u, j)
        assert ks_2d_of(u, j, 0, T - j, denom) == ks_2d_sweep(a, b, denom)
        a, b, denom = u[1 : T - 1], u[: T - 2], math.sqrt(T - 3)
        assert ks_2d_of(u, 1, 0, T - 2, denom) == ks_2d_sweep(a, b, denom)

    @pytest.mark.parametrize("T", [2000, 5000])
    @pytest.mark.parametrize("data", ["null", "lag-1 dependence", "ties"])
    def test_ks_2d_equals_row_sweep_at_large_t(self, T, data):
        rng = substream(19, "ks-large", T)
        if data == "lag-1 dependence":
            # Gaussian AR(1) with coefficient 0.9 through the normal cdf
            z = np.empty(T)
            z[0] = rng.standard_normal()
            e = rng.standard_normal(T) * math.sqrt(1.0 - 0.81)
            for t in range(1, T):
                z[t] = 0.9 * z[t - 1] + e[t]
            u = ndtr(z)
        else:
            u = rng.random(T)
            if data == "ties":
                u = np.clip(np.round(u, 2), U_CLAMP, 1.0 - U_CLAMP)
        for name in ("KS1", "KS2", "KSp2"):
            i, k, n, denom = _process_pairs(T, StatKind.from_name(name))
            assert ks_2d_of(u, i, k, n, denom) == ks_2d_sweep(u[i : i + n], u[k : k + n], denom)

    def test_ks_2d_scales_to_criterion_5_length(self):
        u = substream(17, "ks-1e5").random(100_000)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            assert ks_stat(u, StatKind.from_name("KS1")).value > 0.0
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 5.0
        assert peak < 64e6

    @given(residual_series(max_T=400), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_cvm_matches_exact_double_sum(self, u, j):
        a, denom = u[:-1], math.sqrt(u.shape[0] - 2)
        assert _cvm_1d(np.sort(a), denom) == pytest.approx(cvm_fsum(a, None, denom), rel=1e-12)
        if u.shape[0] < j + 2:
            return
        a, b, denom = lag_pairs(u, j)
        got = cvm_2d_of(u, j, 0, u.shape[0] - j, denom)
        assert got == pytest.approx(cvm_fsum(a, b, denom), rel=1e-12)

    @given(st.lists(residual_series(max_T=60), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_one_sort_gives_order_ranks_and_grid(self, rows):
        T = min(row.shape[0] for row in rows)
        u = np.stack([row[:T] for row in rows])
        order, rank, grids = _ranked(u)
        for row, o, r, grid in zip(u, order, rank, grids):
            assert np.array_equal(o, np.argsort(row, kind="stable"))
            values, inverse = np.unique(row, return_inverse=True)
            assert np.array_equal(r, inverse + 1)
            assert np.array_equal(grid, values)

    def test_process_pairs_ranges(self):
        assert _process_pairs(10, StatKind.from_name("CvM0")) == (0, None, 9, math.sqrt(8))
        assert _process_pairs(10, StatKind.from_name("KSp2")) == (1, 0, 8, math.sqrt(7))
        assert _process_pairs(10, StatKind.from_name("KS3")) == (3, 0, 7, math.sqrt(7))
        for name, T in (("CvM0", 2), ("KSp2", 3), ("CvM3", 4)):
            with pytest.raises(ValueError, match=f"^{name} needs T >= {T + 1}, got {T}$"):
                _check_stats([StatKind.from_name(name)], T)
            _check_stats([StatKind.from_name(name)], T + 1)

    @pytest.mark.parametrize("T", [2000, 5000])
    def test_cvm_matches_outer_products_at_large_t(self, T):
        # the outer-product sums cancel to about 1e-12 relative at this size
        u = substream(14, "cvm-large", T).random(T)
        for name in ("CvM0", "CvM1", "CvM3", "CvMp2"):
            kind = StatKind.from_name(name)
            got = cvm_stat(u, kind).value
            if kind.p == 1:
                want = cvm_1d_outer(u[:-1], math.sqrt(T - 2))
            elif kind.p == 2:
                want = cvm_2d_outer(u[1 : T - 1], u[: T - 2], math.sqrt(T - 3))
            else:
                want = cvm_2d_outer(*lag_pairs(u, kind.j))
            assert got == pytest.approx(want, rel=1e-10)

    def test_cvm_scales_to_criterion_5_length(self):
        u = substream(15, "cvm-1e5").random(100_000)
        start = time.perf_counter()
        for name in ("CvM0", "CvM1", "CvMp2"):
            assert cvm_stat(u, StatKind.from_name(name)).value > 0.0
        assert time.perf_counter() - start < 5.0

    def test_ks_2d_memory_is_linear(self):
        u = substream(16, "ks-mem").random(5000)
        tracemalloc.start()
        try:
            ks_stat(u, StatKind.from_name("KS1"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6


class TestResiduals:
    def test_gaussian_median(self):
        assert residuals_gaussian(np.array([0.5]))[0] == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_unit_quantile(self):
        assert residuals_gaussian(np.array([0.8413447460685429]))[0] == pytest.approx(1.0, abs=1e-6)

    @given(st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=1, max_size=20))
    def test_gaussian_inverse_identity(self, us):
        u = np.array(us)
        assert np.max(np.abs(ndtr(residuals_gaussian(u)) - u)) <= 1e-10

    def test_discrete_symmetric_case(self):
        spec = ModelSpec(link="probit", n_regressors=0)
        series = Series(y=np.array([1, 1]), x=np.zeros((2, 0)))
        e = residuals_discrete(spec, Theta(pi0=0.0), series)
        assert e[0] == pytest.approx(1.0, abs=1e-12)

    def test_discrete_hand_value(self):
        from scipy.special import ndtri
        spec = ModelSpec(link="probit", n_regressors=0)
        theta = Theta(pi0=float(ndtri(0.3)))
        series = Series(y=np.array([0, 0]), x=np.zeros((2, 0)))
        e = residuals_discrete(spec, theta, series)
        assert e[0] == pytest.approx(-0.6546536707079771, abs=1e-9)

    def test_discrete_mean_zero_under_model(self):
        spec = ModelSpec(link="probit", q=1, n_regressors=1)
        theta = Theta(pi0=0.1, delta=(0.5,), beta=(0.8,))
        T = 20_000
        rng = substream(7, "resid")
        data = simulate(spec, theta, T, x=rng.standard_normal((T, 1)), rng=rng)
        e = residuals_discrete(spec, theta, data)
        assert abs(e.mean()) <= 3.0 / math.sqrt(T)


class TestBoxPierce:
    def test_hand_value(self):
        assert box_pierce(np.array([1.0, -1.0, 1.0, -1.0]), 1).value == pytest.approx(2.25, abs=1e-12)

    def test_chi2_range_under_independence(self):
        x = substream(8, "bp").standard_normal(10_000)
        val = box_pierce(x, 25).value
        lo, hi = sps.chi2.ppf([0.005, 0.995], df=25)
        assert lo <= val <= hi

    def test_constant_series_rejected(self):
        with pytest.raises(ValueError):
            box_pierce(np.ones(50), 2)

    @given(st.integers(0, 500), st.sampled_from([2.0, 0.5, -4.0, 0.25]))
    @settings(max_examples=40)
    def test_affine_invariance_exact_for_power_of_two_scale(self, seed, a):
        x = substream(seed, "aff").standard_normal(80)
        assert box_pierce(a * x, 3).value == box_pierce(x, 3).value

    @given(st.integers(0, 500), st.floats(0.1, 5.0), st.floats(-3.0, 3.0))
    @settings(max_examples=40)
    def test_affine_invariance_general(self, seed, a, b):
        x = substream(seed, "aff2").standard_normal(80)
        assert box_pierce(a * x + b, 3).value == pytest.approx(box_pierce(x, 3).value, rel=1e-9)


class TestJarqueBera:
    def test_zero_skew_kurtosis_three(self):
        # four zeros plus +-1 gives sample kurtosis exactly 3 and skewness 0
        x = np.array([0.0, 0.0, 0.0, 0.0, 1.0, -1.0] * 4)
        assert jarque_bera(x).value == pytest.approx(0.0, abs=1e-20)

    def test_two_point_hand_value(self):
        x = np.array([1.0, -1.0] * 8)
        assert jarque_bera(x).value == pytest.approx(16.0 / 6.0, abs=1e-12)

    def test_chi2_range_under_normality(self):
        x = substream(9, "jb").standard_normal(10_000)
        val = jarque_bera(x).value
        lo, hi = sps.chi2.ppf([0.005, 0.995], df=2)
        assert lo <= val <= hi

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            jarque_bera(np.arange(5.0))


class TestV2LimitCov:
    def test_upper_boundary_vanishes(self):
        assert v2_limit_cov((1.0, 1.0), (1.0, 1.0)) == pytest.approx(0.0, abs=1e-15)

    def test_hand_value(self):
        assert v2_limit_cov((0.5, 0.5), (0.5, 0.5)) == pytest.approx(0.3125, abs=1e-15)

    @given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
    def test_zero_coordinate_gives_zero(self, a, b, c):
        assert v2_limit_cov((0.0, a), (b, c)) == pytest.approx(0.0, abs=1e-15)

    @given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
    def test_symmetry(self, r1, r2, s1, s2):
        assert v2_limit_cov((r1, r2), (s1, s2)) == pytest.approx(
            v2_limit_cov((s1, s2), (r1, r2)), abs=1e-14
        )


class TestStatKind:
    @pytest.mark.parametrize("name", [
        "CvM0", "CvM1", "CvM2", "KS0", "KS1", "KS2", "CvMp2", "KSp2",
        "BPU_1", "BPN_2", "BPD_25", "JB", "ADP", "ADJ",
    ])
    def test_name_round_trip(self, name):
        assert StatKind.from_name(name).name == name

    def test_invalid(self):
        with pytest.raises(ValueError):
            StatKind.from_name("CvM")
        with pytest.raises(ValueError):
            StatKind(tag="CvM_p", p=3)
        with pytest.raises(ValueError):
            StatKind(tag="CvM_2j", j=0)

    def test_every_kind_has_one_name(self):
        kinds = [StatKind(tag, **({field: n} if field else {}))
                 for tag, field in stats._TAGS.items()
                 for n in ((1, 2) if field == "p" else range(1, 31) if field else (None,))]
        assert len({kind.name for kind in kinds}) == len(kinds)
        for kind in kinds:
            assert StatKind.from_name(kind.name) == kind
        # each of these strings that from_name accepts is its kind's name
        for prefix in ("CvM", "KS", "CvMp", "KSp", "BPU_", "BPN_", "BPD_", "AD", "J", ""):
            for order in ("", "0", "1", "2", "3", "9", "10", "25", "B", "P", "J", "01", "007",
                          "+1", "-1", " 1", "1 ", "1.0", "\u0661"):
                name = prefix + order
                try:
                    kind = StatKind.from_name(name)
                except ValueError:
                    continue
                assert kind.name == name

    @pytest.mark.parametrize("fields", [
        dict(tag="ADJ", m=3), dict(tag="ADP", m=2), dict(tag="ADP", p=2), dict(tag="JB", m=1),
        dict(tag="CvM_p", p=1, m=5), dict(tag="KS_2j", j=1, p=1), dict(tag="BPN_m", m=2, j=2),
        dict(tag="CvM_2j", j=1.0), dict(tag="CvM_p", p=True), dict(tag="BPD_m", m=np.int64(2)),
        dict(tag="BPU_m"),
    ])
    def test_a_kind_sets_only_the_field_its_tag_reads(self, fields):
        # StatKind("ADJ", m=3) was once named ADJ, as the m = 2 kind is
        with pytest.raises(ValueError):
            StatKind(**fields)

    @pytest.mark.parametrize("name", ["CvM01", "KS007", "BPU_01", "BPD_00", "KS00", " CvM1", "JB "])
    def test_names_are_exact(self, name):
        # CvM01 was once CvM1 under a second name
        with pytest.raises(ValueError, match="unknown statistic name"):
            StatKind.from_name(name)

    def test_negative_statistic_rejected(self):
        with pytest.raises(ValueError):
            StatValue(StatKind.from_name("JB"), -0.5)

    @pytest.mark.parametrize("value", [math.nan, -1e-11])
    def test_nonfinite_or_negative_beyond_rounding_rejected(self, value):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            StatValue(StatKind.from_name("JB"), value)

    def test_rounding_below_zero_is_cut_to_zero(self):
        value = StatValue(StatKind.from_name("JB"), -1e-13).value
        assert value == 0.0 and type(value) is float


class TestEvaluateStatistics:
    def test_requires_discrete_residuals_for_bpd(self):
        u = substream(10, "ev").random(50)
        with pytest.raises(ValueError):
            evaluate_statistics([StatKind.from_name("BPD_1")], u, None)

    @pytest.mark.parametrize("names, message", [
        (("CvM0", "CvM0"), "statistic CvM0 is listed more than once"),
        (("BPN_2", "KS1", "JB", "BPN_2"), "statistic BPN_2 is listed more than once"),
        ((), "statistic list must be nonempty"),
    ])
    def test_statistic_list_rule(self, names, message):
        # a repeated statistic once gave one key for two requests
        u = substream(13, "ev4").random(60)
        with pytest.raises(ValueError, match=f"^{message}$"):
            evaluate_statistics([StatKind.from_name(n) for n in names], u)

    def test_all_names_present(self):
        u = substream(11, "ev2").random(60)
        e = substream(12, "ev3").standard_normal(60)
        kinds = [StatKind.from_name(n) for n in
                 ("CvM0", "CvM1", "KS0", "KS1", "BPU_2", "BPN_2", "BPD_2", "JB", "ADP", "ADJ")]
        out = evaluate_statistics(kinds, u, e)
        assert set(out) == {k.name for k in kinds}
        assert all(v >= 0.0 and math.isfinite(v) for v in out.values())

    def test_box_pierce_values_equal_single_calls(self):
        # one autocorrelation pass per series serves every requested lag
        u = substream(20, "ev5").random(120)
        e = substream(21, "ev6").standard_normal(120)
        names = ("BPU_1", "BPU_25", "BPU_2", "BPN_1", "BPN_2", "BPN_25", "BPD_25", "BPD_1", "BPD_2")
        out = evaluate_statistics([StatKind.from_name(n) for n in names], u, e)
        series = {"BPU": u, "BPN": residuals_gaussian(u), "BPD": e}
        for name in names:
            tag, m = name.split("_")
            assert out[name] == box_pierce(series[tag], int(m)).value

    def test_one_sort_per_call(self, monkeypatch):
        # every CvM and KS kind reads one ordering of each series, and no
        # kernel ranks the residuals again
        calls = []

        def ranked(u):
            calls.append(u.shape)
            return _ranked(u)

        def no_unique(*args, **kwargs):
            raise AssertionError("np.unique called")

        monkeypatch.setattr(stats, "_ranked", ranked)
        monkeypatch.setattr(np, "unique", no_unique)
        u = substream(22, "ev7").random((3, 90))
        names = ("CvM0", "CvM1", "CvM2", "CvMp2", "KS0", "KS1", "KS2", "KSp2", "ADP", "ADJ", "BPU_2")
        for kinds in (names[:1], names):
            calls.clear()
            evaluate_statistics([StatKind.from_name(n) for n in kinds], u)
            assert calls == [(3, 90)]
        calls.clear()
        evaluate_statistics([StatKind.from_name("BPU_2"), StatKind.from_name("JB")], u)
        assert calls == []

    def test_adj_equals_manual_aggregate(self):
        u = substream(13, "ev4").random(80)
        out = evaluate_statistics([StatKind.from_name("ADJ")], u)
        c1 = cvm_stat(u, StatKind.from_name("CvM1")).value
        c2 = cvm_stat(u, StatKind.from_name("CvM2")).value
        assert out["ADJ"] == pytest.approx((2.0 / 3.0) * c1 + (1.0 / 3.0) * c2, abs=1e-12)

    def test_adp_equals_manual_aggregate(self):
        u = substream(13, "ev4").random(80)
        out = evaluate_statistics([StatKind.from_name("ADP")], u)
        c0 = cvm_stat(u, StatKind.from_name("CvM0")).value
        cp2 = cvm_stat(u, StatKind.from_name("CvMp2")).value
        assert out["ADP"] == pytest.approx((2.0 / 3.0) * c0 + (1.0 / 3.0) * cp2, abs=1e-12)

    @pytest.mark.parametrize("name, T", [("ADP", 3), ("ADJ", 3), ("JB", 7), ("BPN_25", 26), ("KSp2", 3)])
    def test_series_too_short_is_named(self, name, T):
        u = substream(23, "ev8").random((2, T))
        with pytest.raises(ValueError, match=f"^{name} needs T >= {T + 1}, got {T}$"):
            evaluate_statistics([StatKind.from_name("CvM0"), StatKind.from_name(name)], u)
        u = substream(24, "ev9").random((2, T + 1))
        assert name in evaluate_statistics([StatKind.from_name(name)], u)

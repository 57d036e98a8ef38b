"""Tests of the benchmark's own oracles.

Run from the root of a checkout: ``python3 -m pytest perfbench/test_oracles.py``.
"""

import json
import math

import numpy as np
import pytest
from scipy.special import ndtr

import oracles


def _cvm1d_by_cells(a: np.ndarray) -> float:
    """Exact integral of (N(r) - n r)^2 between consecutive jump points."""
    n = a.size
    edges = np.concatenate(([0.0], np.sort(a), [1.0]))
    total = 0.0
    for k in range(n + 1):
        lo, hi = edges[k], edges[k + 1]
        # int_lo^hi (k - n r)^2 dr
        total += ((n * hi - k) ** 3 - (n * lo - k) ** 3) / (3.0 * n)
    return total


def test_cvm0_rank_formula_matches_cell_integration():
    u = np.random.default_rng(1).random(40)
    assert oracles.cvm0(u) == pytest.approx(_cvm1d_by_cells(u[:-1]) / (u.size - 2), rel=1e-12)


def test_ks0_matches_one_sided_limits_at_the_jumps():
    u = np.random.default_rng(2).random(40)
    a = np.sort(u[:-1])
    n = a.size
    at = np.abs(np.arange(1, n + 1) - n * a)
    before = np.abs(np.arange(n) - n * a)
    want = max(at.max(), before.max()) / math.sqrt(u.size - 2)
    assert oracles.ks0(u) == pytest.approx(want, rel=1e-12)


def test_cvm2d_matches_the_closed_form():
    rng = np.random.default_rng(3)
    a, b = rng.random(25), rng.random(25)
    n = a.size
    pairs = (1 - np.maximum.outer(a, a)) * (1 - np.maximum.outer(b, b))
    cross = np.sum((1 - a * a) / 2 * (1 - b * b) / 2)
    want = (pairs.sum() - 2 * n * cross + n * n / 9.0) / 24.0
    assert oracles.cvm2d(a, b, 24.0) == pytest.approx(want, rel=1e-10)


def test_ks2d_is_the_sup_over_a_fine_grid():
    rng = np.random.default_rng(4)
    a, b = rng.random(12), rng.random(12)
    n = a.size
    r = np.linspace(0.0, 1.0, 801)
    r = np.unique(np.concatenate((r, a, b, a - 1e-12, b - 1e-12)))
    r = r[(r >= 0) & (r <= 1)]
    counts = (a[:, None] <= r[None, :]).astype(float).T @ (b[:, None] <= r[None, :]).astype(float)
    grid_sup = np.abs(counts - n * np.outer(r, r)).max()
    value = oracles.ks2d(a, b, 9.0)
    assert value * 3.0 >= grid_sup - 1e-9
    assert value * 3.0 == pytest.approx(grid_sup, abs=1e-6)


@pytest.mark.parametrize("J, vec", [(1, [0.1, 0.7, 0.9]), (2, [0.5, 1.1, -0.4, 0.8])])
def test_score_matches_finite_differences(J, vec):
    rng = np.random.default_rng(5)
    y = rng.integers(0, J + 1, size=60)
    x = rng.standard_normal(60)
    vec = np.asarray(vec, dtype=float)
    analytic = oracles.score_matrix(vec, J, y, x).sum(axis=0)
    h = 1e-6
    numeric = [
        (oracles.loglik(vec + h * e, J, y, x) - oracles.loglik(vec - h * e, J, y, x)) / (2 * h)
        for e in np.eye(vec.size)
    ]
    assert np.allclose(analytic, numeric, rtol=1e-6, atol=1e-6)


def test_pit_and_discrete_residuals_use_the_cell_probabilities():
    y, x = np.array([0, 1, 1, 0]), np.array([0.3, -0.2, 1.5, 0.0])
    vec = np.array([0.2, 0.5, 1.0])
    z = np.full(4, 0.5)
    pi = 0.2 + 0.5 * np.array([0, 0, 1, 1]) + 1.0 * x
    p1 = ndtr(pi)
    below = np.where(y == 1, 1 - p1, 0.0)  # F(y - 1)
    cell = np.where(y == 1, p1, 1 - p1)     # P(y)
    assert np.allclose(oracles.pit(vec, 1, y, x, z), below + 0.5 * cell)
    assert np.allclose(oracles.discrete_residuals(vec, 1, y, x), (y - p1) / np.sqrt(p1 * (1 - p1)))



@pytest.mark.parametrize("J, vec", [(1, [0.0, 0.8, 1.0]), (2, [0.5, 1.0, -0.5, 1.0])])
def test_oracles_stay_finite_where_one_cell_holds_nearly_all_mass(J, vec):
    # indices of -9 and +9: the far cells' probabilities are about 1e-19
    y = np.array([0, 0, J, J])
    x = np.array([-9.0, -9.0, 9.0, 9.0])
    vec = np.asarray(vec, dtype=float)
    resid = oracles.discrete_residuals(vec, J, y, x)
    assert np.all(np.isfinite(resid))
    assert np.all(np.abs(resid) < 1e-6)
    assert np.all(np.isfinite(oracles.score_matrix(vec, J, y, x)))
    assert math.isfinite(oracles.loglik(vec, J, y, x))
    # an observation in a cell of probability about 1e-19 keeps its log
    far = oracles.loglik(vec, J, np.array([0, J]), np.array([0.0, -9.0]))
    assert math.isfinite(far) and far < -40

def test_box_pierce_matches_the_direct_sum():
    e = np.random.default_rng(6).standard_normal(50)
    c = e - e.mean()
    want = 50 * sum((c[j:] @ c[:-j] / (c @ c)) ** 2 for j in (1, 2, 3))
    assert oracles.box_pierce(e, 3) == pytest.approx(want, rel=1e-12)


def _mc_text(rates: dict, r_eff: int = 200) -> str:
    table = {"R": 200, "R_effective": r_eff, "rates": rates}
    return json.dumps({"tables": [table]})


def test_check_mc_accepts_a_plausible_table_and_flags_faults():
    good = {"0.1": {"CvM0": 9.5}, "0.05": {"CvM0": 4.5}, "0.01": {"CvM0": 1.0}}
    assert oracles.check_mc(_mc_text(good), _mc_text(good), 200) == []
    assert oracles.check_mc(_mc_text(good), _mc_text(good, 199), 200)  # threads differ
    not_multiple = {"0.1": {"CvM0": 9.3}, "0.05": {"CvM0": 4.5}, "0.01": {"CvM0": 1.0}}
    assert oracles.check_mc(_mc_text(not_multiple), _mc_text(not_multiple), 200)
    far = {"0.1": {"CvM0": 60.0}, "0.05": {"CvM0": 50.0}, "0.01": {"CvM0": 10.0}}
    assert oracles.check_mc(_mc_text(far), _mc_text(far), 200)
    falling = {"0.1": {"CvM0": 4.0}, "0.05": {"CvM0": 4.5}, "0.01": {"CvM0": 1.0}}
    assert oracles.check_mc(_mc_text(falling), _mc_text(falling), 200)

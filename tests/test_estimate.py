import collections
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from dcgof import estimate
from dcgof.boot import scenario_registry
from dcgof import model
from dcgof.estimate import (
    NonConvergenceError,
    SeparationError,
    ThresholdCollapseError,
    _loglik_pass,
    _window_start,
    _WorkingMap,
    fit_mle,
    loglik,
    score,
    score_contributions,
)
from dcgof.model import (
    PROB_FLOOR_HARD,
    ModelSpec,
    Series,
    Theta,
    _index_ar_stationary,
    _index_kernel,
    _thresholds,
    cond_law,
    index_path,
    law_path,
    link_pdf,
    link_tail,
    simulate,
    simulate_x_ar1,
)
from dcgof.rng import substream
from dcgof.transform import U_CLAMP, NoiseStream, randomized_pit

BINARY = ModelSpec(link="probit", n_regressors=1)
DYNAMIC = ModelSpec(link="probit", q=1, n_regressors=1)


def small_series(seed=0, T=200, spec=DYNAMIC, theta=None):
    theta = theta or Theta(pi0=0.1, delta=(0.6,), beta=(1.0,))
    rng = substream(seed, "est")
    x = simulate_x_ar1(0.5, T, rng).reshape(-1, 1)
    return simulate(spec, theta, T, x=x, rng=rng)


def fd_score(spec, theta, series, h=1e-6):
    vec = theta.to_vector()
    out = np.zeros_like(vec)
    for i in range(vec.size):
        e = np.zeros_like(vec)
        e[i] = h
        lp = loglik(spec, Theta.from_vector(spec, vec + e), series)
        lm = loglik(spec, Theta.from_vector(spec, vec - e), series)
        out[i] = (lp - lm) / (2.0 * h)
    return out


def fd_hessian(grad_of, w: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Oracle: central differences of the working-coordinate score, the
    Hessian the Newton loop used before the analytic one."""
    L = w.shape[0]
    H = np.empty((L, L))
    for i in range(L):
        h = step * (1.0 + abs(w[i]))
        e = np.zeros(L)
        e[i] = h
        H[:, i] = (grad_of(w + e) - grad_of(w - e)) / (2.0 * h)
    return (H + H.T) / 2.0


def realized_cells_oracle(spec, theta, pi, y):
    """The realized-cell expressions before the one-pass evaluation:
    ``(p, f_lo, f_hi)``."""
    mu = _thresholds(theta.mu)
    J = spec.support_size
    lo = np.where(y > 0, mu[np.maximum(y - 1, 0)] - pi, -np.inf)
    hi = np.where(y < J, mu[np.minimum(y, J - 1)] - pi, np.inf)
    tail_lo = np.where(y > 0, link_tail(spec.link, np.where(np.isfinite(lo), lo, 0.0)), 1.0)
    tail_hi = np.where(y < J, link_tail(spec.link, np.where(np.isfinite(hi), hi, 0.0)), 0.0)
    f_lo = np.where(np.isfinite(lo), link_pdf(spec.link, np.where(np.isfinite(lo), lo, 0.0)), 0.0)
    f_hi = np.where(np.isfinite(hi), link_pdf(spec.link, np.where(np.isfinite(hi), hi, 0.0)), 0.0)
    return tail_lo - tail_hi, f_lo, f_hi


def loglik_and_scores_oracle(spec, theta, series):
    """The log likelihood and per-observation scores, by the expressions used
    before the one-pass evaluation."""
    i0 = _window_start(spec)
    pi_all, G_all = _index_kernel(spec, theta.to_vector(), series)
    pi, G, y = pi_all[i0:], G_all[i0:], series.y[i0:]
    p, f_lo, f_hi = realized_cells_oracle(spec, theta, pi, y)
    ll = -np.inf if p.min() < PROB_FLOOR_HARD else float(np.sum(np.log(p)))
    p = np.maximum(p, PROB_FLOOR_HARD)
    n, n_idx = y.shape[0], G.shape[1]
    out = np.zeros((n, spec.n_params))
    out[:, :n_idx] = ((f_lo - f_hi) / p)[:, None] * G
    if spec.ordered:
        rows = np.arange(n)
        has_hi, has_lo = y < spec.support_size, y > 0
        out[rows[has_hi], n_idx + y[has_hi]] += f_hi[has_hi] / p[has_hi]
        out[rows[has_lo], n_idx + y[has_lo] - 1] -= f_lo[has_lo] / p[has_lo]
    return ll, out


@st.composite
def perturbed_models(draw):
    """A model over links x J 1-3 x q 0-2 x p_ar 0-2 x interactions, a
    series simulated at a truth, and a point perturbed away from it.

    For ``chisq1`` the thresholds sit high above the index so that every
    finite ``sqrt(2)(mu - pi) + 1`` stays above 0.1: the density is
    singular at 0, where central differences are no oracle."""
    link = draw(st.sampled_from(["probit", "logistic", "chisq1"]))
    J = draw(st.integers(1, 3))
    q = draw(st.integers(0, 2))
    p = draw(st.integers(0, 2))
    interactions = q >= 1 and draw(st.booleans())
    spec = ModelSpec(link=link, support_size=J, q=q, p_ar=p, n_regressors=1,
                     interactions=interactions, ordered=J >= 2)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = 2.5 if link == "chisq1" else -0.5
    mu = tuple(base + np.cumsum(rng.uniform(0.5, 1.0, J)) - 0.5) if J >= 2 else ()
    truth = Theta(
        pi0=0.0 if J >= 2 else (-base if link == "chisq1" else 0.2),
        delta=tuple(rng.uniform(-0.4, 0.4, q)),
        alpha=tuple(rng.uniform(-0.3, 0.3, p)),
        beta=(rng.uniform(0.2, 0.6),),
        gamma=(rng.uniform(-0.3, 0.3),) if interactions else (),
        mu=mu,
    )
    T = 150
    series = simulate(spec, truth, T, x=0.7 * rng.standard_normal((T, 1)), rng=rng)
    wmap = _WorkingMap(spec)
    w = wmap.to_working(truth.to_vector()) + rng.uniform(-0.1, 0.1, wmap.n_free)
    theta = wmap.to_theta(w)
    assume(_index_ar_stationary(theta.alpha))
    if link == "chisq1":
        pi = _index_kernel(spec, theta.to_vector(), series)[0][_window_start(spec):]
        v = math.sqrt(2.0) * (_thresholds(theta.mu)[None, :] - pi[:, None]) + 1.0
        assume(v.min() > 0.1)
    assume(np.isfinite(loglik(spec, theta, series)))
    return spec, series, w


class TestHessian:
    @given(perturbed_models())
    @settings(max_examples=150, deadline=None)
    def test_analytic_matches_central_differences(self, case):
        spec, series, w = case
        wmap = _WorkingMap(spec)
        zero = np.zeros((spec.n_params, spec.n_params))

        def grad_of(w_vec):
            g_nat = score(spec, wmap.to_theta(w_vec), series)
            return wmap.derivatives_to_working(w_vec, g_nat, zero)[0]

        _, S, H_nat = _loglik_pass(spec, wmap.to_natural(w), series, 2)
        g, H = wmap.derivatives_to_working(w, S.sum(axis=0), H_nat)
        oracle = fd_hessian(grad_of, w)
        assert np.max(np.abs(H - oracle)) <= 1e-6 * max(1.0, np.max(np.abs(oracle)))
        np.testing.assert_array_equal(g, grad_of(w))

    @given(perturbed_models())
    @settings(max_examples=100, deadline=None)
    def test_shared_pass_matches_separate_expressions(self, case):
        spec, series, w = case
        theta = _WorkingMap(spec).to_theta(w)
        ll, contrib = loglik_and_scores_oracle(spec, theta, series)
        assert loglik(spec, theta, series) == pytest.approx(ll, rel=1e-12, abs=1e-12)
        scale = max(1.0, np.max(np.abs(contrib)))
        assert np.max(np.abs(score_contributions(spec, theta, series) - contrib)) <= 1e-12 * scale
        total = contrib.sum(axis=0)
        assert np.max(np.abs(score(spec, theta, series) - total)) <= 1e-12 * max(
            1.0, np.max(np.abs(total)))
        for order in (0, 1, 2):
            assert _loglik_pass(spec, theta.to_vector(), series, order)[0] == loglik(spec, theta, series)


class TestOneCellEvaluation:
    @pytest.mark.filterwarnings("ignore::dcgof.model.ProbabilityFloorWarning")
    @given(perturbed_models())
    @settings(max_examples=150, deadline=None)
    def test_likelihood_pit_and_law_share_cells(self, case):
        # the PIT is taken under exactly the law the likelihood maximizes
        spec, series, w = case
        theta = _WorkingMap(spec).to_theta(w)
        probs, cdf = law_path(spec, theta, series)
        rows, y = np.arange(series.T), series.y
        i0 = _window_start(spec)
        assert loglik(spec, theta, series) == float(np.sum(np.log(probs[rows, y][i0:])))
        noise = NoiseStream.from_seed(series.T, 1, "cells")
        base = np.where(y > 0, cdf[rows, np.maximum(y - 1, 0)], 0.0)
        expected = np.clip(base + noise.z * probs[rows, y], U_CLAMP, 1.0 - U_CLAMP)
        np.testing.assert_array_equal(randomized_pit(spec, theta, series, noise).u, expected)

    def test_bottom_cell_from_lower_tail(self):
        # at pi = 7, P(Y = 0) = F(0) = Phi(-7), not 1 - Phi(7): in the
        # likelihood of a y = 0 period and in the PIT of a y = 1 period
        theta = Theta(pi0=0.0, beta=(1.0,))
        data = Series(y=np.array([1, 0]), x=np.array([[0.0], [7.0]]))
        assert loglik(BINARY, theta, data) == math.log(ndtr(-7.0))
        data = Series(y=np.array([0, 1]), x=np.array([[0.0], [7.0]]))
        u = randomized_pit(BINARY, theta, data, NoiseStream(z=np.array([0.5, 0.0]))).u
        assert u[1] == ndtr(-7.0)


class TestLoglik:
    def test_constant_probability_case(self):
        # pi0=0, beta=0: every observation contributes log(0.5); the first is
        # conditioned on, so n = T - 1 terms
        data = small_series(T=50, spec=BINARY, theta=Theta(pi0=0.0, beta=(1.0,)))
        val = loglik(BINARY, Theta(pi0=0.0, beta=(0.0,)), data)
        assert val == pytest.approx(49 * math.log(0.5), abs=1e-10)

    def test_single_observation_value(self):
        # one effective observation with y=1 and pi=0.3: log Phi(0.3)
        data = Series(y=np.array([0, 1]), x=np.array([[0.0], [0.3]]))
        val = loglik(BINARY, Theta(pi0=0.0, beta=(1.0,)), data)
        assert val == pytest.approx(-0.4814101615884813, abs=1e-12)

    def test_degenerate_cell_gives_minus_inf(self):
        data = Series(y=np.array([0, 0]), x=np.array([[0.0], [40.0]]))
        assert loglik(BINARY, Theta(pi0=0.0, beta=(1.0,)), data) == -np.inf


class TestScore:
    def test_matches_finite_differences(self):
        data = small_series(seed=1)
        rng = np.random.default_rng(0)
        for _ in range(10):
            theta = Theta(pi0=rng.uniform(-0.5, 0.5), delta=(rng.uniform(-0.5, 0.5),),
                          beta=(rng.uniform(-0.8, 0.8),))
            g = score(DYNAMIC, theta, data)
            fd = fd_score(DYNAMIC, theta, data)
            assert np.max(np.abs(g - fd)) <= 1e-6 * max(1.0, np.max(np.abs(g)))

    def test_matches_finite_differences_ordered(self):
        # the fixed intercept cannot be perturbed, so difference only the
        # free coordinates (slopes and thresholds)
        spec = ModelSpec(link="logistic", support_size=2, n_regressors=1, ordered=True)
        theta0 = Theta(mu=(-0.4, 0.9), beta=(0.7,))
        rng = substream(2, "ord")
        data = simulate(spec, theta0, 300, x=rng.standard_normal((300, 1)), rng=rng)
        theta = Theta(mu=(-0.2, 0.8), beta=(0.4,))
        g = score(spec, theta, data)
        vec = theta.to_vector()
        h = 1e-6
        for i in range(1, vec.size):
            e = np.zeros_like(vec)
            e[i] = h
            lp = loglik(spec, Theta.from_vector(spec, vec + e), data)
            lm = loglik(spec, Theta.from_vector(spec, vec - e), data)
            fd_i = (lp - lm) / (2.0 * h)
            assert abs(g[i] - fd_i) <= 1e-6 * max(1.0, np.max(np.abs(g)))

    def test_zero_at_balanced_mle(self):
        # intercept-only binary model, balanced within the likelihood window
        # (the first observation is conditioned on): MLE at pi0 = 0
        spec = ModelSpec(link="probit", n_regressors=0)
        data = Series(y=np.array([0] + [0, 1] * 20), x=np.zeros((41, 0)))
        g = score(spec, Theta(pi0=0.0), data)
        assert np.max(np.abs(g)) < 1e-12

    def test_contributions_sum_to_total(self):
        data = small_series(seed=3)
        theta = Theta(pi0=0.05, delta=(0.3,), beta=(0.6,))
        contrib = score_contributions(DYNAMIC, theta, data)
        assert np.allclose(contrib.sum(axis=0), score(DYNAMIC, theta, data), atol=1e-12)

    def test_index_autoregression_score(self):
        spec = ModelSpec(link="probit", q=0, p_ar=1, n_regressors=1)
        theta0 = Theta(pi0=0.2, alpha=(0.5,), beta=(0.8,))
        rng = substream(4, "par")
        data = simulate(spec, theta0, 150, x=rng.standard_normal((150, 1)), rng=rng)
        theta = Theta(pi0=0.1, alpha=(0.3,), beta=(0.5,))
        g = score(spec, theta, data)
        fd = fd_score(spec, theta, data)
        assert np.max(np.abs(g - fd)) <= 1e-6 * max(1.0, np.max(np.abs(g)))


class TestFitMle:
    def test_recovers_dgp_within_three_se(self):
        spec = DYNAMIC
        truth = Theta(pi0=0.0, delta=(0.8,), beta=(1.0,))
        rng = substream(5, "fit")
        x = simulate_x_ar1(0.8, 5000, rng).reshape(-1, 1)
        data = simulate(spec, truth, 5000, x=x, rng=rng)
        fit = fit_mle(spec, data)
        assert fit.converged
        se = fit.stderr(spec)
        err = np.abs(fit.theta_hat.to_vector() - truth.to_vector())
        assert np.all(err <= 3.0 * se)

    @pytest.mark.parametrize("seed", range(10))
    def test_index_autoregression_fit_within_three_se(self, seed):
        # line-search trials outside the stationarity region are rejected,
        # not raised
        spec = ModelSpec(link="probit", p_ar=1, n_regressors=1)
        truth = Theta(pi0=0.2, alpha=(0.5,), beta=(0.8,))
        rng = substream(seed, "fit-par")
        data = simulate(spec, truth, 300, x=rng.standard_normal((300, 1)), rng=rng)
        fit = fit_mle(spec, data)
        assert fit.converged
        err = np.abs(fit.theta_hat.to_vector() - truth.to_vector())
        assert np.all(err <= 3.0 * fit.stderr(spec))

    def test_all_ones_is_separation(self):
        data = Series(y=np.ones(50, dtype=int), x=substream(6, "x").standard_normal((50, 1)))
        with pytest.raises(SeparationError):
            fit_mle(BINARY, data)

    def test_matches_grid_search_oracle_on_five_obs(self):
        y = np.array([0, 1, 0, 1, 0])
        x = np.array([0.5, -0.3, 0.5, 0.2, -0.8]).reshape(-1, 1)
        fit = fit_mle(BINARY, Series(y=y, x=x))
        assert fit.converged
        # independent brute-force oracle over a 0.01 grid, same likelihood
        # window (first observation conditioned on)
        grid = np.arange(-2.0, 2.0001, 0.01)
        P0, B = np.meshgrid(grid, grid, indexing="ij")
        pi = P0[..., None] + B[..., None] * x[1:, 0]
        ll = np.where(y[1:] == 1, np.log(ndtr(pi)), np.log(ndtr(-pi))).sum(axis=-1)
        i, j = np.unravel_index(np.argmax(ll), ll.shape)
        assert abs(fit.theta_hat.pi0 - grid[i]) <= 0.01
        assert abs(fit.theta_hat.beta[0] - grid[j]) <= 0.01

    def test_loglik_trace_nondecreasing(self):
        data = small_series(seed=7)
        fit = fit_mle(DYNAMIC, data)
        trace = np.array(fit.loglik_trace)
        assert np.all(np.diff(trace) >= 0.0)

    def test_info_matrix_is_opg_and_psd(self):
        data = small_series(seed=8)
        fit = fit_mle(DYNAMIC, data)
        contrib = score_contributions(DYNAMIC, fit.theta_hat, data)
        opg = contrib.T @ contrib / contrib.shape[0]
        assert np.allclose(fit.info_matrix, opg, atol=1e-12)
        assert np.allclose(fit.info_matrix, fit.info_matrix.T, atol=1e-12)
        assert np.linalg.eigvalsh(fit.info_matrix).min() >= -1e-10

    def test_converged_implies_small_score(self):
        data = small_series(seed=9)
        fit = fit_mle(DYNAMIC, data)
        assert fit.converged and fit.score_norm <= 1e-8

    def test_refit_distance_shrinks_with_t(self):
        spec = DYNAMIC
        gaps = {}
        for T in (500, 5000):
            dists = []
            for rep in range(4):
                rng = substream(100 + rep, "shrink", T)
                x = simulate_x_ar1(0.5, T, rng).reshape(-1, 1)
                data = simulate(spec, Theta(pi0=0.1, delta=(0.6,), beta=(1.0,)), T, x=x, rng=rng)
                fit = fit_mle(spec, data)
                star = simulate(spec, fit.theta_hat, T, x=x, rng=substream(200 + rep, "s", T))
                refit = fit_mle(spec, star)
                dists.append(np.linalg.norm(refit.theta_hat.to_vector() - fit.theta_hat.to_vector()))
            gaps[T] = np.mean(dists)
        assert gaps[5000] < gaps[500]

    def test_ordered_fit_recovers_thresholds(self):
        spec = ModelSpec(link="probit", support_size=2, n_regressors=1, ordered=True)
        truth = Theta(mu=(-0.5, 0.8), beta=(1.0,))
        rng = substream(10, "ordfit")
        data = simulate(spec, truth, 4000, x=rng.standard_normal((4000, 1)), rng=rng)
        fit = fit_mle(spec, data)
        assert fit.converged
        err = np.abs(fit.theta_hat.to_vector() - truth.to_vector())
        assert np.all(err <= 3.0 * np.maximum(fit.stderr(spec), 1e-3))

    def test_ordered_stderr_leaves_out_the_fixed_intercept(self):
        spec = ModelSpec(link="probit", support_size=2, ordered=True, q=1, n_regressors=1)
        truth = Theta(delta=(0.5,), beta=(1.0,), mu=(-0.5, 1.0))
        rng = substream(1, "o")
        data = simulate(spec, truth, 2000, x=rng.standard_normal((2000, 1)), rng=rng)
        fit = fit_mle(spec, data)
        se = fit.stderr(spec)
        assert se[0] == 0.0
        assert np.all(se[1:] > 0.0) and np.all(se[-2:] < 0.2)

    def test_ordered_stderr_with_index_autoregression(self):
        spec = ModelSpec(link="logistic", support_size=2, ordered=True, p_ar=2, n_regressors=1)
        truth = Theta(alpha=(0.3, 0.2), beta=(1.0,), mu=(-0.5, 1.0))
        rng = substream(2, "o2")
        data = simulate(spec, truth, 1000, x=rng.standard_normal((1000, 1)), rng=rng)
        fit = fit_mle(spec, data)
        assert fit.converged
        se = fit.stderr(spec)
        assert se[0] == 0.0 and np.all(np.isfinite(se))
        err = np.abs(fit.theta_hat.to_vector() - truth.to_vector())
        assert np.all(err[1:] <= 3.0 * se[1:])

    def test_empty_middle_category_collapses(self):
        spec = ModelSpec(link="probit", support_size=2, n_regressors=0, ordered=True)
        y = np.array([0] * 20 + [2] * 20)
        with pytest.raises(ThresholdCollapseError):
            fit_mle(spec, Series(y=y, x=np.zeros((40, 0))))

    def test_too_short_series_rejected(self):
        data = Series(y=np.array([0, 1, 0]), x=np.zeros((3, 1)))
        with pytest.raises(ValueError):
            fit_mle(BINARY, data)

    def test_fit_result_serializes(self):
        data = small_series(seed=11)
        fit = fit_mle(DYNAMIC, data)
        text = fit.dumps()
        assert '"converged": true' in text


class TestInputChecks:
    @pytest.mark.parametrize("link, J, seed", [("probit", 3, 268), ("chisq1", 2, 5)])
    def test_degenerate_trial_step_is_a_rejected_step(self, link, J, seed):
        # warm-started short-series ordered fits, as a bootstrap refit runs
        # them; a trial step's log gap underflows to equal thresholds
        # (probit) or its exp overflows to an infinite threshold (chisq1)
        spec = ModelSpec(link=link, support_size=J, ordered=True, q=1, n_regressors=1)
        rng = np.random.default_rng(seed)
        T = int(rng.integers(20, 80))
        mu = tuple(np.cumsum(np.r_[0.0, rng.uniform(0.01, 0.3, J - 1)]))
        theta = Theta(delta=(rng.uniform(-1, 1.5),), beta=(rng.uniform(0.5, 3),), mu=mu)
        series = simulate(spec, theta, T, rng=rng)
        try:
            fit_mle(spec, series, init=theta)
        except NonConvergenceError:
            pass

    @pytest.mark.parametrize("field", ["pi0", "delta", "alpha", "beta", "gamma", "mu"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_parameter_rejected_at_the_boundary(self, field, bad):
        if field == "mu":
            spec = ModelSpec(link="probit", support_size=2, ordered=True, n_regressors=1)
            good = Theta(beta=(1.0,), mu=(-0.5, 0.5))
        else:
            spec = ModelSpec(link="probit", q=1, p_ar=1, n_regressors=1, interactions=True)
            good = Theta(pi0=0.1, delta=(0.5,), alpha=(0.3,), beta=(1.0,), gamma=(-0.5,))
        value = bad if field == "pi0" else (bad,) + getattr(good, field)[1:]
        theta = replace(good, **{field: value})
        series = simulate(spec, good, 200, rng=substream(0, "nonfinite"))
        calls = (lambda: simulate(spec, theta, 200, rng=substream(1, "nonfinite")),
                 lambda: index_path(spec, theta, series),
                 lambda: loglik(spec, theta, series),
                 lambda: fit_mle(spec, series, init=theta))
        for call in calls:
            with pytest.raises(ValueError, match="finite"):
                call()

    @pytest.mark.parametrize("pi_t", [math.nan, math.inf, -math.inf])
    def test_nonfinite_index_rejected_by_cond_law(self, pi_t):
        with pytest.raises(ValueError, match="finite"):
            cond_law(BINARY, Theta(beta=(1.0,)), pi_t)

    def test_fit_checks_its_inputs_once(self, monkeypatch):
        # the Newton loop runs on vectors: each check runs at most once per
        # fit, whatever the number of iterations and line-search trials
        truth = Theta(pi0=0.0, delta=(0.8,), beta=(1.0,))
        series = small_series(seed=3, T=300, theta=truth)
        calls = collections.Counter()

        def count(owner, name, key):
            original = getattr(owner, name)

            def counted(*args):
                calls[key] += 1
                return original(*args)

            monkeypatch.setattr(owner, name, counted)

        count(Theta, "validate", "Theta.validate")
        count(Series, "validate", "Series.validate")
        count(Theta, "from_vector", "Theta.from_vector")
        count(model, "_check_finite", "_check_finite")
        count(model, "_as_link", "_as_link")
        for init in (None, truth):
            calls.clear()
            fit = fit_mle(DYNAMIC, series, init=init)
            assert fit.converged and fit.iterations >= 2
            assert calls["Theta.validate"] <= 1 and calls["Series.validate"] <= 1, calls
            assert calls["Theta.from_vector"] <= 1, calls
            assert calls["_check_finite"] == 0 and calls["_as_link"] == 0, calls


def study_series(scenario_id: int, T: int, seed: int) -> tuple[ModelSpec, Theta, Series]:
    """The null model, truth and a series of a study scenario whose DGP is
    its null."""
    sc = scenario_registry()[scenario_id - 1]
    x = simulate_x_ar1(sc.x_ar1, T, substream(seed, "fit-x", scenario_id))
    series = simulate(sc.dgp_spec, sc.dgp_theta, T, x=x, rng=substream(seed, "fit-y", scenario_id))
    return sc.null_spec, sc.dgp_theta, series


class TestLineSearchBudget:
    @pytest.mark.parametrize("scenario_id, T", [(1, 100), (2, 300)])
    def test_at_most_three_loglik_calls_per_iteration(self, monkeypatch, scenario_id, T):
        # near the optimum the gain of a Newton step falls below the float
        # resolution of the log likelihood; halving further cannot show an
        # increase and only spends likelihood evaluations
        calls = []
        counted = estimate._loglik_pass

        def counting_pass(spec, vec, series, order):
            if order == 0:
                calls.append(1)
            return counted(spec, vec, series, order)

        monkeypatch.setattr(estimate, "_loglik_pass", counting_pass)
        for seed in range(50):
            spec, _, series = study_series(scenario_id, T, seed)
            calls.clear()
            fit = fit_mle(spec, series)
            assert fit.converged
            assert len(calls) <= 3 * max(fit.iterations, 1), (seed, len(calls), fit.iterations)


class TestWarmStart:
    @staticmethod
    def cases():
        for scenario_id, T in ((1, 100), (2, 300), (3, 300)):
            for seed in range(30):
                yield study_series(scenario_id, T, seed)
        ordered = ModelSpec(link="probit", support_size=2, ordered=True, q=1, n_regressors=1)
        ordered_truth = Theta(delta=(0.5,), beta=(1.0,), mu=(-0.5, 1.0))
        par = ModelSpec(link="probit", p_ar=1, n_regressors=1)
        par_truth = Theta(pi0=0.2, alpha=(0.5,), beta=(0.8,))
        for spec, truth, T in ((ordered, ordered_truth, 500), (par, par_truth, 300)):
            for seed in range(30):
                rng = substream(seed, "warm", spec.p_ar)
                series = simulate(spec, truth, T, x=rng.standard_normal((T, 1)), rng=rng)
                yield spec, truth, series

    def test_warm_and_cold_starts_agree(self):
        for spec, truth, series in self.cases():
            cold = fit_mle(spec, series)
            warm = fit_mle(spec, series, init=truth)
            assert cold.converged and warm.converged
            gap = np.max(np.abs(warm.theta_hat.to_vector() - cold.theta_hat.to_vector()))
            assert gap <= 1e-8, (spec, gap)

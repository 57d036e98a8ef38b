import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from dcgof.model import (
    AssumptionViolationError,
    CondLaw,
    LinkKind,
    ModelSpec,
    Series,
    Theta,
    _index_kernel,
    _x_ar1,
    cond_law,
    index_path,
    law_path,
    link_cdf,
    link_pdf,
    link_tail,
    simulate,
    simulate_x_ar1,
)
from dcgof.rng import substream
from dcgof.transform import NoiseStream, randomized_pit


def normal_quadrature_cdf(x: float) -> float:
    """Independent oracle: integrate the normal density numerically."""
    dens = lambda t: math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi)
    val, _ = integrate.quad(dens, 0.0, x)
    return 0.5 + val


class TestLinkCdf:
    def test_probit_at_zero(self):
        assert link_cdf("probit", 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_logistic_at_zero(self):
        assert link_cdf("logistic", 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_chisq1_at_zero(self):
        # P(chi2_1 <= 1) = P(|Z| <= 1); oracle value 0.6826894921370859
        oracle = normal_quadrature_cdf(1.0) - normal_quadrature_cdf(-1.0)
        assert link_cdf("chisq1", 0.0) == pytest.approx(0.6826894921370859, abs=1e-12)
        assert link_cdf("chisq1", 0.0) == pytest.approx(oracle, abs=1e-10)

    def test_chisq1_left_of_support(self):
        assert link_cdf("chisq1", -1.0) == 0.0
        assert link_cdf("chisq1", -1.0 / math.sqrt(2.0)) == 0.0

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            link_cdf("probit", float("nan"))
        with pytest.raises(ValueError):
            link_cdf("logistic", float("inf"))

    @given(
        st.sampled_from(["probit", "logistic", "chisq1"]),
        st.lists(
            st.floats(-0.69, 5.0).map(lambda v: round(v, 4)),
            min_size=2, max_size=30, unique=True,
        ),
    )
    def test_strictly_increasing_on_support(self, link, xs):
        xs = sorted(xs)
        vals = [link_cdf(link, x) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    @given(st.sampled_from(["probit", "logistic"]), st.floats(-10, 10))
    def test_tail_is_exact_reflection_for_symmetric(self, link, x):
        assert link_tail(link, x) == link_cdf(link, -x)


def index_value_oracle(spec, theta, y_lags, pi_lags, x_t):
    """Index at one period from its state (most recent lag first).  The lags
    may be arrays (S,) and ``x_t`` an array (k, S), for S series at once."""
    value = theta.pi0
    if spec.q:
        value += np.dot(theta.delta, y_lags)
    if spec.p_ar:
        value += np.dot(theta.alpha, pi_lags)
    if spec.n_regressors:
        value += np.dot(theta.beta, x_t)
    if spec.interactions:
        value += y_lags[0] * np.dot(theta.gamma, x_t)
    return value


def presample_index(theta):
    """Presample index lags: the unconditional mean of the index."""
    return theta.pi0 / (1.0 - sum(theta.alpha))


def index_path_oracle(spec, theta, series):
    """Independent oracle: the index recursion one period at a time."""
    y = series.y.astype(float)
    pi = np.empty(series.T)
    pi_pre = presample_index(theta)
    for t in range(series.T):
        y_lags = [y[t - i] if t - i >= 0 else 0.0 for i in range(1, spec.q + 1)]
        pi_lags = [pi[t - i] if t - i >= 0 else pi_pre for i in range(1, spec.p_ar + 1)]
        pi[t] = index_value_oracle(spec, theta, y_lags, pi_lags, series.x[t])
    return pi


def simulate_oracle(spec, theta, T, rngs):
    """Independent oracle: draw each outcome from its conditional law in turn,
    for one series per generator of ``rngs``, all series at once.

    One uniform per period is compared with the cell cdf (one standard
    normal per period is squared for ``chisq1``), drawn after the
    regressors, so each generator is consumed as :func:`simulate` consumes
    it.  Returns the regressors (S, T, k) and the outcomes (S, T).
    """
    x = np.stack([rng.standard_normal((T, spec.n_regressors)) for rng in rngs])
    mu = np.asarray(theta.mu) if spec.ordered else np.zeros(1)
    y = np.zeros((T, len(rngs)), dtype=np.int64)
    pi = np.empty((T, len(rngs)))
    pi_pre = np.full(len(rngs), presample_index(theta))
    for t in range(T):
        y_lags = [y[t - i] if t - i >= 0 else np.zeros_like(y[t]) for i in range(1, spec.q + 1)]
        pi_lags = [pi[t - i] if t - i >= 0 else pi_pre for i in range(1, spec.p_ar + 1)]
        pi[t] = index_value_oracle(spec, theta, y_lags, pi_lags, x[:, t].T)
        if spec.link is LinkKind.CHISQ1:
            z = np.array([rng.standard_normal() for rng in rngs])[:, None]
            y[t] = np.sum(pi[t, :, None] + (z * z - 1.0) / math.sqrt(2.0) > mu, axis=1)
        else:
            tails = link_tail(spec.link, mu - pi[t, :, None])
            # smallest j with cdf_j >= u, i.e. count of cdf_j < u
            u = np.array([rng.random() for rng in rngs])[:, None]
            y[t] = np.sum(1.0 - tails < u, axis=1)
    return x, y.T


# Specs covering the three links, binary and ordered J = 2, 3, outcome lags,
# interactions, index autoregression of order 1 and 2, and more lagged-outcome
# states (4^6) than simulation tabulates.
SIM_GRID = [
    (ModelSpec(link="probit", n_regressors=1), Theta(pi0=0.1, beta=(1.0,))),
    (ModelSpec(link="logistic", n_regressors=2), Theta(pi0=-0.2, beta=(1.0, -0.5))),
    (ModelSpec(link="chisq1", n_regressors=1), Theta(pi0=0.4, beta=(0.7,))),
    (ModelSpec(link="probit", q=1, n_regressors=1), Theta(delta=(0.8,), beta=(1.0,))),
    (ModelSpec(link="logistic", q=1, n_regressors=1, interactions=True),
     Theta(delta=(0.8,), beta=(1.0,), gamma=(-2.0,))),
    (ModelSpec(link="chisq1", support_size=2, q=2, p_ar=1, n_regressors=1,
               interactions=True),
     Theta(delta=(0.5, -0.3), alpha=(0.3,), beta=(1.0,), gamma=(0.5,), mu=(-0.2, 0.8))),
    (ModelSpec(link="probit", support_size=2, q=1, n_regressors=1),
     Theta(delta=(0.5,), beta=(1.0,), mu=(-0.5, 1.0))),
    (ModelSpec(link="logistic", support_size=3, q=1, p_ar=1, n_regressors=1),
     Theta(delta=(0.5,), alpha=(0.4,), beta=(1.0,), mu=(-1.0, 0.2, 1.0))),
    (ModelSpec(link="probit", q=1, p_ar=2, n_regressors=2, interactions=True),
     Theta(pi0=0.2, delta=(0.6,), alpha=(0.3, -0.2), beta=(1.0, 0.5), gamma=(-0.5, 0.3))),
    (ModelSpec(link="probit", support_size=3, q=6, n_regressors=1),
     Theta(delta=(0.5, -0.3, 0.2, 0.1, -0.1, 0.05), beta=(1.0,), mu=(-1.0, 0.2, 1.0))),
]


@st.composite
def specs_and_series(draw):
    """A model with random parameters and a random outcome path on its support."""
    link = draw(st.sampled_from(["probit", "logistic", "chisq1"]))
    J = draw(st.integers(1, 3))
    q = draw(st.integers(0, 3))
    p_ar = draw(st.integers(0, 2))
    k = draw(st.integers(0, 2))
    interactions = draw(st.booleans()) and q >= 1 and k >= 1
    spec = ModelSpec(link=link, support_size=J, q=q, p_ar=p_ar, n_regressors=k,
                     interactions=interactions)
    coef = st.floats(-2.0, 2.0)
    theta = Theta(
        pi0=0.0 if spec.ordered else draw(coef),
        delta=tuple(draw(coef) for _ in range(q)),
        # |alpha_1| + |alpha_2| < 1 keeps the index autoregression stationary
        alpha=tuple(draw(st.floats(-0.49, 0.49)) for _ in range(p_ar)),
        beta=tuple(draw(coef) for _ in range(k)),
        gamma=tuple(draw(coef) for _ in range(k if interactions else 0)),
        mu=tuple(sorted(draw(st.lists(coef, min_size=J, max_size=J, unique=True))))
        if spec.ordered else (),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    T = draw(st.integers(max(q, p_ar, 1) + 1, 60))
    series = Series(y=rng.integers(0, J + 1, T), x=rng.standard_normal((T, k)))
    return spec, theta, series


class TestIndexValue:
    """Hand values of the index, read off a two-period series at t = 1."""

    def test_static_zero(self):
        spec = ModelSpec(link="probit", n_regressors=1)
        theta = Theta(pi0=0.0, beta=(1.0,))
        series = Series(y=np.array([0, 1]), x=np.array([[0.3], [0.0]]))
        assert index_path(spec, theta, series)[1] == 0.0

    def test_interaction_hand_value(self):
        # pi0=0, delta1=0.8, beta=1, gamma1=-2, Y_{t-1}=1, x=0.5 -> 0.8 + 0.5 - 1.0
        spec = ModelSpec(link="probit", q=1, n_regressors=1, interactions=True)
        theta = Theta(pi0=0.0, delta=(0.8,), beta=(1.0,), gamma=(-2.0,))
        series = Series(y=np.array([1, 0]), x=np.array([[0.0], [0.5]]))
        assert index_path(spec, theta, series)[1] == pytest.approx(0.3, abs=1e-15)

    def test_lag_times_zero(self):
        spec = ModelSpec(link="probit", q=1, n_regressors=0)
        theta = Theta(pi0=0.0, delta=(0.8,))
        series = Series(y=np.array([0, 1]), x=np.zeros((2, 0)))
        assert index_path(spec, theta, series)[1] == 0.0

    def test_shape_mismatch(self):
        spec = ModelSpec(link="probit", q=1, n_regressors=1)
        theta = Theta(pi0=0.0, delta=(0.8,), beta=(1.0,))
        series = Series(y=np.array([0, 1]), x=np.zeros((2, 0)))
        with pytest.raises(ValueError, match="regressors"):
            index_path(spec, theta, series)


class TestIndexKernel:
    @given(specs_and_series())
    @settings(max_examples=200, deadline=None)
    def test_index_matches_per_period_oracle(self, case):
        spec, theta, series = case
        pi, G = _index_kernel(spec, theta.to_vector(), series)
        assert G.shape == (series.T, spec.n_params - spec.n_thresholds)
        np.testing.assert_allclose(pi, index_path_oracle(spec, theta, series),
                                   rtol=1e-12, atol=1e-12)

    @given(specs_and_series())
    @settings(max_examples=100, deadline=None)
    def test_gradient_matches_central_differences(self, case):
        spec, theta, series = case
        _, G = _index_kernel(spec, theta.to_vector(), series)
        vec = theta.to_vector()
        h = 1e-6
        for c in range(G.shape[1]):
            step = np.zeros_like(vec)
            step[c] = h
            up, _ = _index_kernel(spec, vec + step, series)
            down, _ = _index_kernel(spec, vec - step, series)
            np.testing.assert_allclose(G[:, c], (up - down) / (2.0 * h), rtol=1e-6, atol=1e-6)


class TestCondLaw:
    def test_binary_symmetric(self):
        spec = ModelSpec(link="probit", n_regressors=0)
        law = cond_law(spec, Theta(pi0=0.0), 0.0)
        assert law.probs == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_ordered_probit_hand_values(self):
        # mu=(0,1), pi=0: probs are Phi(0), Phi(1)-Phi(0), 1-Phi(1)
        spec = ModelSpec(link="probit", support_size=2)
        law = cond_law(spec, Theta(mu=(0.0, 1.0)), 0.0)
        phi1 = normal_quadrature_cdf(1.0)
        assert law.probs[0] == pytest.approx(0.5, abs=1e-12)
        assert law.probs[1] == pytest.approx(0.3413447460685429, abs=1e-12)
        assert law.probs[2] == pytest.approx(0.15865525393145707, abs=1e-12)
        assert law.probs[1] == pytest.approx(phi1 - 0.5, abs=1e-9)

    def test_binary_prob_is_phi_of_index(self):
        spec = ModelSpec(link="probit", n_regressors=0)
        law = cond_law(spec, Theta(pi0=0.3), 0.3)
        assert law.probs[1] == pytest.approx(0.6179114221889526, abs=1e-12)
        assert law.probs[1] == pytest.approx(normal_quadrature_cdf(0.3), abs=1e-10)

    def test_floor_violation(self):
        spec = ModelSpec(link="probit", n_regressors=0)
        with pytest.raises(AssumptionViolationError):
            cond_law(spec, Theta(pi0=9.0), 9.0)

    def test_warning_floor(self):
        # cells between the hard and the warning floor are reported, not fatal
        spec = ModelSpec(link="probit", n_regressors=0)
        with pytest.warns(match="below 1e-08"):
            law = cond_law(spec, Theta(pi0=6.0), 6.0)
        assert float(np.sum(law.probs)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.filterwarnings("ignore::dcgof.model.ProbabilityFloorWarning")
    @given(
        st.sampled_from(["probit", "logistic", "chisq1"]),
        st.floats(-3.0, 3.0),
        st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=4, unique=True),
    )
    @settings(max_examples=150)
    def test_probs_sum_to_one_and_cdf_monotone(self, link, pi, mus):
        mus = tuple(sorted(mus))
        spec = ModelSpec(link=link, support_size=len(mus))
        try:
            law = cond_law(spec, Theta(mu=mus), pi)
        except AssumptionViolationError:
            return
        assert float(np.sum(law.probs)) == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(law.cdf) >= 0.0)
        assert law.cdf[-1] == 1.0
        assert np.all(law.probs > 0.0)


class TestSimulateXAr1:
    def test_iid_case_variance(self):
        x = simulate_x_ar1(0.0, 100_000, substream(1, "ar"))
        # variance estimator SE is about sqrt(2/T)
        assert abs(np.var(x) - 1.0) < 3.0 * math.sqrt(2.0 / 100_000)

    def test_autocorrelation_near_coefficient(self):
        x = simulate_x_ar1(0.8, 200_000, substream(2, "ar"))
        xc = x - x.mean()
        rho = float(xc[1:] @ xc[:-1] / (xc @ xc))
        assert abs(rho - 0.8) < 0.01

    def test_deterministic(self):
        a = simulate_x_ar1(0.5, 100, substream(3, "ar"))
        b = simulate_x_ar1(0.5, 100, substream(3, "ar"))
        assert np.array_equal(a, b)

    def test_nonstationary_rejected(self):
        with pytest.raises(ValueError):
            simulate_x_ar1(1.0, 10, substream(0, "ar"))

    @pytest.mark.parametrize("alpha1, T", [(0.8, 1), (0.8, 100), (-0.5, 300), (0.0, 7)])
    def test_batch_rows_equal_one_path_each(self, alpha1, T):
        # each row of a batch is the path of its own generator: x0 and then
        # e drawn from it, and the scalar recursion of the stationary start
        paths = _x_ar1(alpha1, T, [substream(4, "ar", r) for r in range(9)])
        assert paths.shape == (9, T) and paths.flags.c_contiguous
        for r, row in enumerate(paths):
            assert np.array_equal(row, simulate_x_ar1(alpha1, T, substream(4, "ar", r)))
            rng = substream(4, "ar", r)
            prev = rng.standard_normal() * math.sqrt(1.0 / (1.0 - alpha1 * alpha1))
            want = []
            for e_t in rng.standard_normal(T).tolist():
                prev = e_t + alpha1 * prev
                want.append(prev)
            assert row.tolist() == want, r

    def test_batch_checks_its_arguments(self):
        for alpha1, T in ((-1.0, 10), (0.5, 0)):
            with pytest.raises(ValueError):
                _x_ar1(alpha1, T, [substream(0, "ar")])


class TestSimulate:
    def test_constant_law_bernoulli(self):
        spec = ModelSpec(link="probit", n_regressors=1)
        theta = Theta(pi0=0.0, beta=(0.0,))
        data = simulate(spec, theta, 10_000, rng=substream(4, "sim"))
        assert 0.48 <= data.y.mean() <= 0.52

    def test_dynamic_probit_qualitative(self):
        spec = ModelSpec(link="probit", q=1, n_regressors=1)
        theta = Theta(pi0=0.0, delta=(0.8,), beta=(1.0,))
        x = simulate_x_ar1(0.8, 500, substream(5, "x")).reshape(-1, 1)
        data = simulate(spec, theta, 500, x=x, rng=substream(5, "y"))
        assert 0.0 < data.y.mean() < 1.0
        yc = data.y - data.y.mean()
        assert float(yc[1:] @ yc[:-1]) > 0.0

    def test_deterministic(self):
        spec = ModelSpec(link="chisq1", q=1, n_regressors=1)
        theta = Theta(pi0=0.1, delta=(0.5,), beta=(1.0,))
        x = substream(6, "x").standard_normal((200, 1))
        a = simulate(spec, theta, 200, x=x, rng=substream(6, "y"))
        b = simulate(spec, theta, 200, x=x, rng=substream(6, "y"))
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.x, b.x)

    def test_chisq_dgp_matches_latent_probability(self):
        # P(Y=1 | pi) = P(chi2_1 > 1 - sqrt(2) pi) for the standardized error
        spec = ModelSpec(link="chisq1", n_regressors=1)
        theta = Theta(pi0=0.4, beta=(0.0,))
        data = simulate(spec, theta, 200_000, rng=substream(7, "sim"))
        law = cond_law(spec, theta, 0.4)
        se = math.sqrt(law.probs[1] * law.probs[0] / 200_000)
        assert abs(data.y.mean() - law.probs[1]) < 4.0 * se

    @pytest.mark.parametrize("entry", ["simulate", "randomized_pit", "law_path", "cond_law",
                                       "link_pdf"])
    def test_chisq1_is_evaluated_at_a_given_parameter(self, entry):
        # chisq1 cannot be fitted, but it is simulated from and its laws,
        # PIT and density are evaluated at a given parameter like any link's
        spec = ModelSpec(link="chisq1", q=1, n_regressors=1)
        theta = Theta(pi0=0.3, delta=(0.5,), beta=(1.0,))
        series = simulate(spec, theta, 300, rng=substream(0, "chisq"))
        noise = NoiseStream.from_seed(300, 1, "chisq")
        check = {
            "simulate": lambda: set(series.y.tolist()) == {0, 1},
            "randomized_pit": lambda: np.all(
                np.abs(randomized_pit(spec, theta, series, noise).u - 0.5) < 0.5),
            "law_path": lambda: np.allclose(law_path(spec, theta, series)[0].sum(axis=1), 1.0),
            "cond_law": lambda: cond_law(spec, theta, 0.3).probs[0] == link_cdf("chisq1", -0.3),
            "link_pdf": lambda: link_pdf("chisq1", -1.0) == 0.0 < link_pdf("chisq1", 0.0),
        }[entry]
        assert check()


    @pytest.mark.parametrize("spec,theta", SIM_GRID)
    def test_latent_draws_equal_per_period_draws(self, spec, theta):
        seeds = range(200)
        x, y = simulate_oracle(spec, theta, 500, [np.random.default_rng(seed) for seed in seeds])
        for seed in seeds:
            got = simulate(spec, theta, 500, rng=np.random.default_rng(seed))
            assert np.array_equal(got.x, x[seed])
            assert np.array_equal(got.y, y[seed]), f"seed {seed}"


class TestSerialization:
    def test_model_spec_roundtrip(self):
        spec = ModelSpec(link="chisq1", support_size=2, q=1, p_ar=0,
                         n_regressors=2, interactions=True)
        again = ModelSpec.loads(spec.dumps())
        assert again == spec

    def test_theta_roundtrip(self):
        theta = Theta(pi0=0.0, delta=(0.8,), beta=(1.0, -0.5), gamma=(0.2, 0.1), mu=(0.0, 1.0))
        again = Theta.loads(theta.dumps())
        assert again == theta

    def test_ordered_follows_support_size(self):
        assert not ModelSpec(link="probit").ordered
        assert ModelSpec(link="probit", support_size=2).ordered
        with pytest.raises(TypeError):
            ModelSpec(link="probit", support_size=2, ordered=True)

    @pytest.mark.parametrize("J", [1, 2])
    def test_model_spec_ordered_key_must_agree(self, J):
        data = ModelSpec(link="probit", support_size=J, q=1, n_regressors=1).to_json_dict()
        assert data["ordered"] is (J >= 2)
        assert ModelSpec.from_json_dict(data).to_json_dict() == data
        del data["ordered"]
        assert ModelSpec.from_json_dict(data).ordered is (J >= 2)
        with pytest.raises(ValueError, match="'ordered'"):
            ModelSpec.from_json_dict({**data, "ordered": J < 2})

    @pytest.mark.parametrize("key, value", [
        ("interactions", "false"), ("ordered", 1), ("q", 1.7), ("support_size", "2"), ("p_ar", True),
    ])
    def test_model_spec_takes_only_json_integers_and_booleans(self, key, value):
        data = {**ModelSpec(link="probit", q=1, n_regressors=1).to_json_dict(), key: value}
        with pytest.raises(ValueError, match=key):
            ModelSpec.from_json_dict(data)

    @pytest.mark.parametrize("key, value", [
        ("beta", "12"), ("mu", [0.5, "1"]), ("pi0", "0.5"), ("pi0", False),
    ])
    def test_theta_takes_only_json_numbers(self, key, value):
        with pytest.raises(ValueError, match=key):
            Theta.from_json_dict({key: value})

    @pytest.mark.parametrize("data", [[1], "probit", None])
    def test_json_must_be_an_object(self, data):
        with pytest.raises(ValueError, match="JSON object"):
            ModelSpec.from_json_dict(data)
        with pytest.raises(ValueError, match="JSON object"):
            Theta.from_json_dict(data)

    def test_theta_validation(self):
        spec = ModelSpec(link="probit", support_size=2)
        with pytest.raises(ValueError):
            Theta(mu=(1.0, 0.0)).validate(spec)  # not increasing
        with pytest.raises(ValueError):
            Theta(pi0=0.5, mu=(0.0, 1.0)).validate(spec)  # intercept not fixed
        with pytest.raises(ValueError):
            Theta(pi0=0.0, alpha=(1.2,)).validate(ModelSpec(link="probit", p_ar=1))


class TestSeries:
    def test_basic_validation(self):
        with pytest.raises(ValueError):
            Series(y=np.array([0, -1]), x=np.zeros((2, 1)))
        with pytest.raises(ValueError):
            Series(y=np.array([0, 1, 1]), x=np.zeros((2, 1)))
        s = Series(y=np.array([0, 1, 2]), x=np.zeros((3, 1)))
        with pytest.raises(ValueError):
            s.validate(ModelSpec(link="probit", support_size=1, n_regressors=1))

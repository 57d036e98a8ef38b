import concurrent.futures
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcgof import boot, estimate, model, stats
from dcgof.boot import (
    BootstrapConfig,
    UnreliableBootstrapError,
    bootstrap_test,
    pvalue,
    rejection_tables_to_csv,
    run_scenario,
    scenario_registry,
    simulate_null,
)
from dcgof.model import LinkKind, ModelSpec, Series, Theta, simulate, simulate_x_ar1
from dcgof.rng import substream
from dcgof.stats import DEFAULT_STUDY_KINDS, StatKind, evaluate_statistics, residuals_discrete
from dcgof.transform import U_CLAMP, NoiseStream, randomized_pit

STATIC = ModelSpec(link="probit", n_regressors=1)
SMALL_STATS = tuple(StatKind.from_name(n) for n in ("CvM0", "KS0", "CvM1", "BPN_1", "BPD_1", "JB"))


def every_call_after_the_first_raises():
    # statistics run once per chunk of replicates: the first call (the
    # observed data, or a chunk's data sets) succeeds, the later ones raise
    calls = 0

    def evaluate(kinds, u, e=None, **options):
        nonlocal calls
        calls += 1
        if calls > 1:
            raise ValueError("injected fault")
        return evaluate_statistics(kinds, u, e, **options)

    return evaluate


def null_series(seed=0, T=150):
    theta = Theta(pi0=0.2, beta=(0.8,))
    rng = substream(seed, "bootdata")
    x = simulate_x_ar1(0.5, T, rng).reshape(-1, 1)
    return simulate(STATIC, theta, T, x=x, rng=rng)


class TestPvalue:
    def test_observed_above_all_replicates(self):
        assert pvalue(10.0, np.zeros(99)) == pytest.approx(1.0 / 100.0)

    def test_observed_below_all_replicates(self):
        assert pvalue(0.0, np.ones(99)) == pytest.approx(1.0)

    def test_in_unit_interval(self):
        reps = substream(1, "pv").random(199)
        p = pvalue(0.5, reps)
        assert 0.0 < p <= 1.0

    def test_ties_count_as_at_least_as_large(self):
        assert pvalue(0.5, np.array([0.5, 0.5, 0.2, 0.9])) == 4.0 / 5.0

    def test_array_of_observed_values(self):
        # rounding makes ties between observed values and replicates
        reps = np.round(substream(2, "pv").random(199), 2)
        observed = np.array([0.0, 0.5, reps[0], reps[7], 1.0, 0.999])
        expected = [(1.0 + np.sum(reps >= d)) / 200.0 for d in observed]
        np.testing.assert_array_equal(pvalue(observed, reps), expected)
        assert [pvalue(d, reps) for d in observed] == expected


class TestSimulateNull:
    def test_static_frequencies(self):
        theta = Theta(pi0=0.3, beta=(0.0,))
        x = np.zeros((10_000, 1))
        star = simulate_null(STATIC, theta, x, substream(2, "null"))
        from scipy.special import ndtr
        p = float(ndtr(0.3))
        se = math.sqrt(p * (1 - p) / 10_000)
        assert abs(star.y.mean() - p) <= 3.0 * se

    def test_deterministic(self):
        data = null_series(3)
        theta = Theta(pi0=0.1, beta=(0.5,))
        a = simulate_null(STATIC, theta, data.x, substream(4, "null"))
        b = simulate_null(STATIC, theta, data.x, substream(4, "null"))
        assert np.array_equal(a.y, b.y)

    def test_reuses_observed_regressors(self):
        data = null_series(5)
        star = simulate_null(STATIC, Theta(pi0=0.0, beta=(1.0,)), data.x, substream(6, "null"))
        assert np.array_equal(star.x, data.x)


class TestBootstrapTest:
    def test_smoke_and_determinism(self):
        data = null_series(7)
        config = BootstrapConfig(B=39, master_seed=11, stats=SMALL_STATS)
        report = bootstrap_test(STATIC, data, config)
        assert len(report.statistics) == len(SMALL_STATS)
        for s in report.statistics:
            assert 0.0 < s.p_value <= 1.0
            assert s.n_replicates <= config.B
        again = bootstrap_test(STATIC, data, config)
        assert report.dumps() == again.dumps()

    def test_statistics_invariant_to_matched_noise(self):
        # fit once, then evaluate the statistic map with noise (F_z, z) and
        # with uniform noise F_z(z): identical values
        from dcgof.estimate import fit_mle
        data = null_series(8)
        fit = fit_mle(STATIC, data)
        z = substream(9, "z").random(data.T)
        square = lambda v: v * v
        u_a = randomized_pit(STATIC, fit.theta_hat, data, NoiseStream(z=z, cdf=square))
        u_b = randomized_pit(STATIC, fit.theta_hat, data, NoiseStream(z=square(z)))
        e = residuals_discrete(STATIC, fit.theta_hat, data)
        stats_a = evaluate_statistics(SMALL_STATS, u_a.u, e)
        stats_b = evaluate_statistics(SMALL_STATS, u_b.u, e)
        assert stats_a == stats_b

    def test_pvalues_equal_those_of_exact_draws(self):
        # the bivariate KS draws are searched only until they are decided
        # against the observed values; the p-values are those of exact draws
        data = null_series(12, T=200)
        kinds = tuple(StatKind.from_name(n) for n in ("KS0", "KS1", "KS2", "KSp2", "CvM1"))
        config = BootstrapConfig(B=59, master_seed=4, stats=kinds)
        report = bootstrap_test(STATIC, data, config)
        observed = np.array([s.value for s in report.statistics])
        vec = estimate.fit_mle(STATIC, data).theta_hat.to_vector()
        args = (STATIC, vec, data.x, kinds, config.master_seed)
        against = dict(zip(kinds, observed))
        cause, decided = boot._map(boot._bootstrap_chunk, (*args, against), config.B, data.T, 1)
        exact_cause, exact = boot._map(boot._bootstrap_chunk, (*args, None), config.B, data.T, 1)
        assert np.array_equal(cause, exact_cause)
        kept = cause == estimate.Cause.CONVERGED
        assert np.any(decided[kept] != exact[kept])
        for j, s in enumerate(report.statistics):
            assert s.p_value == pvalue(observed[j], exact[kept, j]), s.name
            assert np.array_equal(decided[kept, j] >= observed[j], exact[kept, j] >= observed[j])

    def test_unreliable_bootstrap_detected(self):
        # tiny lopsided sample: bootstrap redraws frequently produce an empty
        # category, so fits fail by separation more than 20% of the time
        spec = ModelSpec(link="probit", n_regressors=0)
        y = np.array([1, 1, 1, 1, 1, 0, 1, 1, 1, 1, 1, 1])
        series = Series(y=y, x=np.zeros((12, 0)))
        config = BootstrapConfig(B=19, master_seed=3, stats=(StatKind.from_name("CvM0"),))
        with pytest.raises(UnreliableBootstrapError):
            bootstrap_test(spec, series, config)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BootstrapConfig(B=5)
        with pytest.raises(ValueError):
            BootstrapConfig(B=99, stats=())

    def test_programming_errors_propagate(self, monkeypatch):
        # only model failures count as failed replicates; a bug in a
        # statistic must not just lower the replicate count
        monkeypatch.setattr(boot, "evaluate_statistics", every_call_after_the_first_raises())
        config = BootstrapConfig(B=39, master_seed=11, stats=SMALL_STATS)
        with pytest.raises(ValueError):
            bootstrap_test(STATIC, null_series(7), config)


class RecordingPool:
    """Stands in for the process pool: records the worker count it is asked
    for and runs the chunks in this process, so it starts no process."""

    asked: list = []

    def __init__(self, max_workers):
        self.asked.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return list(map(fn, *iterables))


class TestWorkerCount:
    def test_no_more_workers_than_chunks(self, monkeypatch):
        # the pool forks all its workers at the first task, however few
        # the chunks
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(boot, "ProcessPoolExecutor", RecordingPool, raising=False)
        monkeypatch.setattr(RecordingPool, "asked", [])
        data = null_series(7, T=300)
        config = BootstrapConfig(B=19, master_seed=11, stats=SMALL_STATS)
        serial = bootstrap_test(STATIC, data, config, threads=1)
        assert RecordingPool.asked == []
        pooled = bootstrap_test(STATIC, data, config, threads=20)
        assert len(boot._chunks(config.B, data.T, 20)) == 19
        assert RecordingPool.asked == [19]
        assert pooled.dumps() == serial.dumps()
        run_scenario(scenario_registry()[0], T=60, R=50, master_seed=14, stats=SMALL_STATS,
                     threads=3)
        assert RecordingPool.asked == [19, 3]

    @pytest.mark.parametrize("threads", [0, -3])
    def test_fewer_than_one_worker_rejected(self, threads):
        # threads=0 once ran serially without a word
        with pytest.raises(ValueError, match="threads must be at least 1"):
            boot._chunks(50, 100, threads)
        with pytest.raises(ValueError, match="threads must be at least 1"):
            run_scenario(scenario_registry()[0], T=60, R=50, threads=threads)


class TestWarmStartedRefits:
    def test_bootstrap_draws_start_at_the_simulating_theta(self, monkeypatch):
        # bootstrap draws refit from the parameter they were simulated from;
        # the observed-data fit and the Monte Carlo data fit start cold
        starts, fits = [], []
        fit_mle, batch_fit = boot.fit_mle, boot._fit

        def recording_fit(spec, series, init=None):
            starts.append(init)
            return fit_mle(spec, series, init=init)

        def recording_batch_fit(spec, series, init):
            starts.append(init)
            fits.append(batch_fit(spec, series, init))
            return fits[-1]

        monkeypatch.setattr(boot, "fit_mle", recording_fit)
        monkeypatch.setattr(boot, "_fit", recording_batch_fit)
        config = BootstrapConfig(B=19, master_seed=2, stats=(StatKind.from_name("CvM0"),))
        report = bootstrap_test(STATIC, null_series(4), config)
        assert starts[0] is None
        draws = np.concatenate(starts[1:])
        assert draws.shape == (config.B, STATIC.n_params)
        assert np.all(draws == report.theta_hat.to_vector())

        starts.clear()
        fits.clear()
        scenario = scenario_registry()[1]
        reps = boot._warp_replications(scenario, 100, (StatKind.from_name("CvM0"),), 5, 0, 1)
        assert reps[0][0] == 0
        assert len(starts) == 2 and starts[0] is None
        assert np.all(starts[1] == fits[0].vec)
        assert np.any(starts[1] != scenario.dgp_theta.to_vector())


class TestOneLawEvaluation:
    def test_once_per_chunk_after_the_fit(self, monkeypatch):
        # after each fit (the observed data's, then each chunk's), the index
        # path and the tails of the law are evaluated once: the PIT, the
        # discrete residuals and the floor rules share that evaluation
        events = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                events.append(name)
                return fn(*args, **kwargs)
            return wrapper

        def fitting(fn):
            def wrapper(*args, **kwargs):
                start = len(events)
                result = fn(*args, **kwargs)
                del events[start:]  # the fit's own evaluations
                events.append("fit")
                return result
            return wrapper

        for name in ("_index_kernel", "_tails"):
            monkeypatch.setattr(model, name, counting(name, getattr(model, name)))
        monkeypatch.setattr(boot, "fit_mle", fitting(boot.fit_mle))
        monkeypatch.setattr(boot, "_fit", fitting(boot._fit))
        once = ["fit", "_index_kernel", "_tails"]

        config = BootstrapConfig(B=59, master_seed=1, stats=DEFAULT_STUDY_KINDS)
        bootstrap_test(STATIC, null_series(3, T=300), config)
        chunks = len(boot._chunks(config.B, 300, 1))
        assert chunks >= 2
        assert events == once * (1 + chunks)

        events.clear()
        scenario = scenario_registry()[1]
        run_scenario(scenario, 300, 50, master_seed=2, stats=DEFAULT_STUDY_KINDS)
        # a data step and a draw step per chunk of replications
        assert events == once * 2 * len(boot._chunks(50, 300, 1))

    def test_one_floor_warning_per_replicate(self):
        # replication 156 of scenario 3 at T=100, seed 3, has a realized cell
        # of 1.5e-10: its PIT and its discrete residuals come from one
        # evaluation of the law, so it warns once
        scenario = scenario_registry()[2]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            reps = boot._warp_replications(scenario, 100, DEFAULT_STUDY_KINDS, 3, 156, 157)
        assert reps[0][0] == estimate.Cause.CONVERGED
        assert [str(w.message) for w in caught] == [
            "realized cell probability 1.506e-10 below 1e-08"
        ]
        assert caught[0].category is model.ProbabilityFloorWarning

    def test_zero_variance_has_its_own_cause(self):
        # a static probit fitted to a series with a period at index 40:
        # P(Y = 0) underflows to 0 there, so the conditional variance is 0,
        # while every realized cell is 1 or above 0.1
        vec = Theta(pi0=0.0, beta=(1.0,)).to_vector()[np.newaxis]
        x = np.array([0.3, -0.2, 40.0, 0.1, -1.0, 0.5]).reshape(1, 6, 1)
        series = model._Batch(np.array([[1, 0, 1, 0, 0, 1]]), x)
        fz = np.full((1, 6), 0.5)
        stats, law = boot._statistics(STATIC, vec, series, fz, SMALL_STATS)
        assert not law.floor[0] and law.zero_var[0]
        assert np.all(np.isnan(stats[0]))
        stats, law = boot._statistics(STATIC, vec, series, fz, SMALL_STATS[:3])
        assert not law.zero_var[0] and np.isfinite(stats[0, 0])  # CvM0

    @pytest.mark.filterwarnings("ignore::dcgof.model.ProbabilityFloorWarning")
    def test_failure_causes_of_saturated_fits(self):
        # scenario 3 at T=100, seed 3: 13 of its 14 replications that fail
        # after the fit have every realized cell above 1e-4 but a period
        # with zero conditional variance
        table = run_scenario(scenario_registry()[2], 100, 200, master_seed=3)
        assert table.failures == {"probability floor": 1, "separation": 1, "zero variance": 13}
        assert table.R_effective == 185


@st.composite
def replicate_chunks(draw):
    """A model (links x J 1-3 x q 0-2 x p_ar 0-2 x interactions), a chunk of
    1-5 rows with their own parameters and regressors, and a row of it."""
    link = draw(st.sampled_from(["probit", "logistic", "chisq1"]))
    J, q, p = draw(st.integers(1, 3)), draw(st.integers(0, 2)), draw(st.integers(0, 2))
    interactions = q >= 1 and draw(st.booleans())
    spec = ModelSpec(link=link, support_size=J, q=q, p_ar=p, n_regressors=1,
                     interactions=interactions, ordered=J >= 2)
    K = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = 2.5 if link == "chisq1" else -0.5
    thetas = [
        Theta(
            pi0=0.0 if J >= 2 else (-base if link == "chisq1" else rng.uniform(-0.3, 0.3)),
            delta=tuple(rng.uniform(-0.4, 0.4, q)),
            alpha=tuple(rng.uniform(-0.3, 0.3, p)),
            beta=(rng.uniform(0.3, 1.0),),
            gamma=(rng.uniform(-0.5, 0.5),) if interactions else (),
            mu=tuple(base + np.cumsum(rng.uniform(0.5, 1.0, J)) - 0.5) if J >= 2 else (),
        )
        for _ in range(K)
    ]
    T = draw(st.integers(30, 80))
    x = rng.standard_normal((K, T, 1))
    return spec, np.array([t.to_vector() for t in thetas]), x, draw(st.integers(0, K - 1))


def assert_same(a, b):
    np.testing.assert_array_equal(a, b, strict=True)


class TestBatchInvariance:
    KINDS = DEFAULT_STUDY_KINDS + tuple(StatKind.from_name(n) for n in ("KSp2", "ADP", "ADJ"))

    @pytest.mark.filterwarnings("ignore::dcgof.model.ProbabilityFloorWarning")
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @given(replicate_chunks())
    @settings(max_examples=30, deadline=None)
    def test_row_equals_its_batch_of_one(self, case):
        # each stage of the replicate step gives a row the same numbers in a
        # chunk as alone: draws, fits (cold and warm), PIT, statistics
        spec, vecs, x, i = case
        K, T = x.shape[:2]
        one = slice(i, i + 1)
        rngs = [substream(1, "inv", k) for k in range(K)]
        y = model._simulate(spec, vecs, x, rngs)
        assert_same(y[one], model._simulate(spec, vecs[one], x[one], [substream(1, "inv", i)]))
        batch = model._Batch(y, x)
        for init in (None, vecs):
            fits = estimate._fit(spec, batch, init)
            alone = estimate._fit(spec, batch.take(one), None if init is None else init[one])
            for field in ("vec", "ll", "score_norm", "iterations", "cause"):
                assert_same(getattr(fits, field)[one], getattr(alone, field))
            # the pass at the estimate, which fit_mle takes the information from
            at_fit = estimate._loglik_pass(spec, fits.vec, batch)
            at_alone = estimate._loglik_pass(spec, alone.vec, batch.take(one))
            for part, part_alone in zip(at_fit, at_alone):
                assert_same(part[one], part_alone)
            assert fits.trace[i] == alone.trace[0]
        # one evaluation of the fitted law, with and without the discrete
        # residuals; its PIT is the one of the likelihood's cells
        z = substream(2, "inv").random((K, T))
        pi = model._index_kernel(spec, vecs, batch)[0]
        p = model._cells(spec, model._thresholds(vecs[:, spec.n_index :]), pi, y)[0]
        for discrete in (False, True):
            law = model._fitted_law(spec, vecs, batch, z, discrete)
            alone = model._fitted_law(spec, vecs[one], batch.take(one), z[one], discrete)
            below = np.take_along_axis(law.cdf, np.maximum(y - 1, 0)[..., None], -1)[..., 0]
            assert_same(law.u, np.clip(np.where(y > 0, below, 0.0) + z * p, U_CLAMP, 1 - U_CLAMP))
            assert (law.e is None) == (not discrete)
            for field in model._FittedLaw._fields:
                if getattr(law, field) is not None:
                    assert_same(getattr(law, field)[one], getattr(alone, field))
        values = evaluate_statistics(self.KINDS, law.u, law.e)
        for name, value in evaluate_statistics(self.KINDS, law.u[i], law.e[i]).items():
            assert values[name][i] == value, name
        # the whole step, as the Monte Carlo data step runs it
        keys = [("inv-sim", k) for k in range(K)]
        noise = [("inv-noise", k) for k in range(K)]
        chunk = boot._replicate(spec, vecs, x, spec, None, self.KINDS, 3, keys, noise)
        single = boot._replicate(spec, vecs[one], x[one], spec, None, self.KINDS, 3,
                                 keys[one], noise[one])
        assert_same(chunk[0][one], single[0])
        assert_same(chunk[2][one], single[2])
        assert_same(chunk[1][one], single[1])

    @given(st.integers(2, 5), st.integers(66, 700), st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_statistics_of_a_row_equal_its_own(self, K, T, seed, ties):
        # long enough for the merge levels of the CvM dominance counts
        rng = np.random.default_rng(seed)
        u = rng.uniform(0.001, 0.999, (K, T))
        if ties:
            u = np.round(u, 2).clip(0.001, 0.999)
        e = rng.standard_normal((K, T))
        values = evaluate_statistics(self.KINDS, u, e)
        for i in range(K):
            for name, value in evaluate_statistics(self.KINDS, u[i], e[i]).items():
                assert values[name][i] == value, (i, name)

    def test_singular_member_is_damped_alone(self):
        # one series of the chunk has an all-zero regressor, so its Hessian
        # is singular; the batched solve falls back to that row alone
        spec = ModelSpec(link="probit", q=1, n_regressors=1)
        truth = Theta(pi0=0.1, delta=(0.6,), beta=(1.0,))
        rng = substream(4, "singular")
        x = rng.standard_normal((4, 120, 1))
        x[2] = 0.0
        y = model._simulate(spec, np.tile(truth.to_vector(), (4, 1)), x,
                            [substream(5, "singular", k) for k in range(4)])
        batch = model._Batch(y, x)
        with pytest.raises(np.linalg.LinAlgError):
            _, _, H = estimate._loglik_pass(spec, np.zeros((4, 3)), batch)
            np.linalg.solve(-H, np.ones((4, 3, 1)))
        fits = estimate._fit(spec, batch, None)
        for k in range(4):
            alone = estimate._fit(spec, batch.take(slice(k, k + 1)), None)
            assert_same(fits.vec[k : k + 1], alone.vec)
            assert_same(fits.iterations[k : k + 1], alone.iterations)
        assert np.all(fits.cause == estimate.Cause.CONVERGED)
        assert fits.vec[2, 2] == 0.0  # no information on the zero regressor

    def test_ascent_direction_per_row(self):
        # a singular and a non-finite Hessian in a stack: the singular row
        # takes the damped direction, the regular ones the plain Newton
        # step, and the non-finite row (no direction, as for a single fit)
        # changes neither
        rng = np.random.default_rng(0)
        B = rng.standard_normal((4, 3, 3))
        H = -(B @ np.swapaxes(B, 1, 2) + np.eye(3))
        H[1] = 0.0
        H[3, 0, 0] = np.nan
        g = rng.standard_normal((4, 3))
        d = estimate._ascent_direction(H, g)
        for k in range(4):
            assert_same(d[k], estimate._ascent_direction(H[k : k + 1], g[k : k + 1])[0])
        for k in (0, 2):
            assert_same(d[k], np.linalg.solve(-H[k], g[k]))
        assert np.all(np.isfinite(d[:3])) and np.all(np.sum(d[:3] * g[:3], axis=1) > 0.0)


class TestChunkBudget:
    """Results do not depend on how many points a replicate chunk holds."""

    BUDGETS = (2**10, 2**12, 2**13)

    def under_each_budget(self, monkeypatch, run, n, T):
        results, chunkings = [], []
        for points in self.BUDGETS:
            monkeypatch.setattr(stats, "CHUNK_POINTS", points)
            monkeypatch.setattr(boot, "CHUNK_POINTS", points)
            chunkings.append(len(boot._chunks(n, T, 1)))
            results.append(run())
        assert len(set(chunkings)) == len(self.BUDGETS)  # three chunkings
        return results

    @pytest.mark.parametrize("spec, theta, T", [
        # a binary dynamic probit: its KS draws are searched against the
        # observed values
        (ModelSpec(link="probit", q=1, n_regressors=1),
         Theta(pi0=0.2, delta=(0.5,), beta=(0.8,)), 300),
        (ModelSpec(link="probit", support_size=2, ordered=True, q=1, n_regressors=1),
         Theta(delta=(0.5,), beta=(1.0,), mu=(-0.5, 1.0)), 600),
    ], ids=["dynamic-T300", "ordered-T600"])
    def test_report(self, monkeypatch, spec, theta, T):
        rng = substream(30, "budget", T)
        x = simulate_x_ar1(0.5, T, rng).reshape(-1, 1)
        data = simulate(spec, theta, T, x=x, rng=rng)
        config = BootstrapConfig(B=19, master_seed=6, stats=DEFAULT_STUDY_KINDS)
        reports = self.under_each_budget(
            monkeypatch, lambda: bootstrap_test(spec, data, config).dumps(), config.B, T)
        assert reports[1:] == reports[:1] * 2

    def test_scenario_table(self, monkeypatch):
        # at T=100 the bivariate KS values come from the line sweep, which
        # takes its slices of the chunk by the same budget
        scenario = scenario_registry()[1]
        tables = self.under_each_budget(
            monkeypatch, lambda: run_scenario(scenario, 100, 50, master_seed=7), 50, 100)
        for table in tables[1:]:
            assert np.array_equal(table.rates, tables[0].rates)
            assert table.to_json_dict() == tables[0].to_json_dict()
            assert table.failures == tables[0].failures


class TestScenarioRegistry:
    def test_eleven_scenarios(self):
        registry = scenario_registry()
        assert len(registry) == 11
        assert [s.id for s in registry] == list(range(1, 12))

    def test_size_scenarios_match_their_null(self):
        registry = {s.id: s for s in scenario_registry()}
        for sid in (1, 2, 3):
            assert registry[sid].dgp_spec == registry[sid].null_spec

    def test_scenario_nine_pairing(self):
        s = {s.id: s for s in scenario_registry()}[9]
        assert s.dgp_spec.link is LinkKind.CHISQ1
        assert s.dgp_spec.interactions
        assert s.null_spec.link is LinkKind.PROBIT
        assert s.null_spec.q == 1 and not s.null_spec.interactions

    def test_scenario_four_pairing(self):
        s = {s.id: s for s in scenario_registry()}[4]
        assert s.dgp_spec.link is LinkKind.LOGISTIC
        assert s.dgp_spec.q == 0
        assert s.null_spec == ModelSpec(link="probit", q=0, n_regressors=1)

    def test_study_parameter_values(self):
        s = {s.id: s for s in scenario_registry()}[3]
        assert s.dgp_theta == Theta(pi0=0.0, delta=(0.8,), beta=(1.0,), gamma=(-2.0,))
        assert s.x_ar1 == 0.8


class TestRunScenario:
    def test_smoke_rates_and_monotonicity(self):
        registry = {s.id: s for s in scenario_registry()}
        tab = run_scenario(registry[1], T=60, R=50, master_seed=13, stats=SMALL_STATS)
        assert tab.rates.shape == (3, len(SMALL_STATS))
        assert np.all((tab.rates >= 0.0) & (tab.rates <= 100.0))
        # same pooled null distribution: rejections nest exactly across levels
        for j in range(len(SMALL_STATS)):
            assert tab.rate(0.01, SMALL_STATS[j].name) <= tab.rate(0.05, SMALL_STATS[j].name)
            assert tab.rate(0.05, SMALL_STATS[j].name) <= tab.rate(0.10, SMALL_STATS[j].name)

    def test_deterministic_and_thread_invariant(self):
        registry = {s.id: s for s in scenario_registry()}
        a = run_scenario(registry[1], T=60, R=50, master_seed=14, stats=SMALL_STATS, threads=1)
        b = run_scenario(registry[1], T=60, R=50, master_seed=14, stats=SMALL_STATS, threads=2)
        assert np.array_equal(a.rates, b.rates)
        assert a.to_json_dict() == b.to_json_dict()

    @pytest.mark.filterwarnings("ignore::dcgof.model.ProbabilityFloorWarning")
    @pytest.mark.parametrize("scenario", scenario_registry(), ids=lambda s: str(s.id))
    def test_thread_invariant_in_every_scenario(self, scenario):
        # threads=2 splits the replications into other chunks than threads=1
        a = run_scenario(scenario, T=80, R=50, master_seed=16, threads=1)
        b = run_scenario(scenario, T=80, R=50, master_seed=16, threads=2)
        assert np.array_equal(a.rates, b.rates)
        assert a.to_json_dict() == b.to_json_dict() and a.failures == b.failures

    def test_r_minimum(self):
        registry = {s.id: s for s in scenario_registry()}
        with pytest.raises(ValueError):
            run_scenario(registry[1], T=60, R=10, master_seed=0)

    @pytest.mark.filterwarnings("ignore::dcgof.model.ProbabilityFloorWarning")
    def test_dynamic_size_at_large_t(self):
        # size case with outcome-lag dynamics: 5% cells stay near nominal
        registry = {s.id: s for s in scenario_registry()}
        tab = run_scenario(registry[2], T=500, R=300, master_seed=8, threads=2)
        for name in tab.stat_names:
            assert 2.0 <= tab.rate(0.05, name) <= 9.0

    def test_programming_errors_propagate(self, monkeypatch):
        monkeypatch.setattr(boot, "evaluate_statistics", every_call_after_the_first_raises())
        scenario = {s.id: s for s in scenario_registry()}[1]
        with pytest.raises(ValueError):
            run_scenario(scenario, T=60, R=50, master_seed=13, stats=SMALL_STATS, threads=1)

    def test_csv_layout(self):
        registry = {s.id: s for s in scenario_registry()}
        tab = run_scenario(registry[1], T=60, R=50, master_seed=15, stats=SMALL_STATS)
        text = rejection_tables_to_csv([tab])
        lines = text.strip().split("\n")
        assert lines[0].startswith("scenario,label,T,level,CvM0")
        assert len(lines) == 1 + 3  # header + one row per level

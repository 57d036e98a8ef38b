import math

import numpy as np
import pytest

from dcgof import boot
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
from dcgof.stats import StatKind, evaluate_statistics, residuals_discrete
from dcgof.transform import NoiseStream, randomized_pit

STATIC = ModelSpec(link="probit", n_regressors=1)
SMALL_STATS = tuple(StatKind.from_name(n) for n in ("CvM0", "KS0", "CvM1", "BPN_1", "BPD_1", "JB"))


def every_tenth_call_raises():
    calls = 0

    def evaluate(kinds, u, e=None):
        nonlocal calls
        calls += 1
        if calls % 10 == 0:
            raise ValueError("injected fault")
        return evaluate_statistics(kinds, u, e)

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
        monkeypatch.setattr(boot, "evaluate_statistics", every_tenth_call_raises())
        config = BootstrapConfig(B=39, master_seed=11, stats=SMALL_STATS)
        with pytest.raises(ValueError):
            bootstrap_test(STATIC, null_series(7), config)


class TestWarmStartedRefits:
    def test_bootstrap_draws_start_at_the_simulating_theta(self, monkeypatch):
        # bootstrap draws refit from the parameter they were simulated from;
        # the observed-data fit and the Monte Carlo data fit start cold
        starts, fits = [], []
        fit_mle = boot.fit_mle

        def recording_fit(spec, series, init=None):
            starts.append(init)
            fits.append(fit_mle(spec, series, init=init))
            return fits[-1]

        monkeypatch.setattr(boot, "fit_mle", recording_fit)
        config = BootstrapConfig(B=19, master_seed=2, stats=(StatKind.from_name("CvM0"),))
        report = bootstrap_test(STATIC, null_series(4), config)
        assert starts[0] is None
        assert len(starts) == 1 + config.B
        assert all(init == report.theta_hat for init in starts[1:])

        starts.clear()
        fits.clear()
        scenario = scenario_registry()[1]
        rep = boot._warp_replication(scenario, 100, (StatKind.from_name("CvM0"),), 5, 0)
        assert rep is not None
        assert len(starts) == 2 and starts[0] is None
        assert starts[1] == fits[0].theta_hat and starts[1] != scenario.dgp_theta


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
        monkeypatch.setattr(boot, "evaluate_statistics", every_tenth_call_raises())
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

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from dcgof.estimate import loglik
from dcgof.model import (
    AssumptionViolationError,
    CondLaw,
    ModelSpec,
    ProbabilityFloorWarning,
    Series,
    Theta,
    simulate,
)
from dcgof.rng import substream
from dcgof.stats import residuals_discrete
from dcgof.transform import (
    U_CLAMP,
    NoiseStream,
    cont_cdf,
    cont_quantile,
    discrepancy,
    randomized_pit,
)


def law_from_probs(p) -> CondLaw:
    p = np.asarray(p, dtype=float)
    cdf = np.cumsum(p)
    cdf[-1] = 1.0
    return CondLaw(probs=p, cdf=cdf)


BINARY_03 = law_from_probs([0.7, 0.3])  # P(Y=1) = 0.3


@st.composite
def laws(draw, support=None):
    j = support if support is not None else draw(st.integers(1, 4))
    cells = draw(st.lists(st.floats(0.05, 1.0), min_size=j + 1, max_size=j + 1))
    p = np.asarray(cells)
    return law_from_probs(p / p.sum())


class TestContCdf:
    def test_binary_hand_value(self):
        assert cont_cdf(BINARY_03, -0.5) == pytest.approx(0.35, abs=1e-15)

    def test_coincides_with_cdf_at_integers(self):
        assert cont_cdf(BINARY_03, 0.0) == 0.7
        assert cont_cdf(BINARY_03, -1.0) == 0.0
        assert cont_cdf(BINARY_03, 1.0) == 1.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            cont_cdf(BINARY_03, 1.5)
        with pytest.raises(ValueError):
            cont_cdf(BINARY_03, -1.01)

    @given(
        laws(),
        st.lists(st.floats(-1.0, 3.0).map(lambda v: round(v, 4)),
                 min_size=2, max_size=20, unique=True),
    )
    def test_strictly_increasing(self, law, ys):
        J = law.support_size
        ys = sorted(y for y in ys if -1.0 <= y <= J)
        vals = [cont_cdf(law, y) for y in ys]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestContQuantile:
    def test_binary_hand_value(self):
        assert cont_quantile(BINARY_03, 0.35) == pytest.approx(-0.5, abs=1e-15)

    def test_endpoints(self):
        assert cont_quantile(BINARY_03, 0.0) == -1.0
        assert cont_quantile(BINARY_03, 1.0) == 1.0

    def test_round_trips_just_below_the_top(self):
        # F(3) + frac * P(4) rounds to 1 + 2^-52 here without the cap
        hexes = ("0x1.4d8a7b676bd94p-3", "0x1.d40784296bb86p-3", "0x1.c4e47682d6344p-3",
                 "0x1.72bd907af68cep-3", "0x1.a6cbf9715bad9p-3")
        law = law_from_probs([float.fromhex(h) for h in hexes])
        y = np.nextafter(4.0, 0.0)
        assert cont_cdf(law, y) <= 1.0
        assert cont_quantile(law, cont_cdf(law, y)) == pytest.approx(y, abs=1e-12)
        # 3 + (r - F(2)) / P(3) rounds to 3 + 2^-51 here without the cap
        hexes = ("0x1.5783fffe42d89p-2", "0x1.e1e40bbe3a428p-4", "0x1.af456037f79a2p-2",
                 "0x1.017b39b46df92p-3")
        law = law_from_probs([float.fromhex(h) for h in hexes])
        r = np.nextafter(1.0, 0.0)
        assert cont_quantile(law, r) <= 3.0
        assert cont_cdf(law, cont_quantile(law, r)) == pytest.approx(r, abs=1e-12)

    def test_lands_on_integer_at_cdf_values(self):
        law = law_from_probs([0.2, 0.5, 0.3])
        assert cont_quantile(law, 0.2) == 0.0
        assert cont_quantile(law, 0.7) == 1.0

    @given(laws(), st.floats(0.0, 1.0))
    @settings(max_examples=200)
    def test_round_trip_from_r(self, law, r):
        assert cont_cdf(law, cont_quantile(law, r)) == pytest.approx(r, abs=1e-12)

    @given(laws(), st.floats(-1.0, 4.0))
    @settings(max_examples=200)
    def test_round_trip_from_y(self, law, y):
        y = min(max(y, -1.0), float(law.support_size))
        assert cont_quantile(law, cont_cdf(law, y)) == pytest.approx(y, abs=1e-12)


def two_obs_series(p1: float):
    """Static binary probit series with P(Y=1) = p1 at both periods, y = (1, 1)."""
    spec = ModelSpec(link="probit", n_regressors=0)
    theta = Theta(pi0=float(ndtri(p1)))
    return spec, theta, Series(y=np.array([1, 1]), x=np.zeros((2, 0)))


class TestRandomizedPit:
    def test_hand_value(self):
        # binary with P(Y=1)=0.3, y=1, z=0.5: u = 0.7 + 0.5 * 0.3
        spec, theta, series = two_obs_series(0.3)
        noise = NoiseStream(z=np.array([0.5, 0.5]))
        u = randomized_pit(spec, theta, series, noise)
        assert u.u[0] == pytest.approx(0.85, abs=1e-12)

    def test_noise_cdf_invariance_exact(self):
        spec = ModelSpec(link="probit", q=1, n_regressors=1)
        theta = Theta(pi0=0.1, delta=(0.5,), beta=(0.8,))
        rng = substream(21, "pit")
        data = simulate(spec, theta, 300, x=rng.standard_normal((300, 1)), rng=rng)
        z = substream(22, "z").random(300)
        square = lambda v: v * v
        with_cdf = randomized_pit(spec, theta, data, NoiseStream(z=z, cdf=square))
        uniform = randomized_pit(spec, theta, data, NoiseStream(z=square(z)))
        assert np.array_equal(with_cdf.u, uniform.u)

    def test_clamped_into_open_interval(self):
        spec, theta, series = two_obs_series(0.3)
        u = randomized_pit(spec, theta, series, NoiseStream(z=np.array([1.0, 0.0])))
        assert u.u[0] == 1.0 - U_CLAMP
        assert np.all((u.u > 0.0) & (u.u < 1.0))

    def test_uniform_under_true_parameters(self):
        spec = ModelSpec(link="logistic", q=1, n_regressors=1)
        theta = Theta(pi0=0.0, delta=(0.7,), beta=(0.9,))
        T = 20_000
        rng = substream(23, "unif")
        data = simulate(spec, theta, T, x=rng.standard_normal((T, 1)), rng=rng)
        u = randomized_pit(spec, theta, data, NoiseStream(z=substream(24, "z").random(T))).u
        us = np.sort(u)
        ks = max(np.max(np.arange(1, T + 1) / T - us), np.max(us - np.arange(T) / T))
        assert ks <= 1.63 / math.sqrt(T)
        uc = u - u.mean()
        for lag in range(1, 6):
            rho = float(uc[lag:] @ uc[:-lag] / (uc @ uc))
            assert abs(rho) <= 3.0 / math.sqrt(T)

    def test_noise_length_mismatch(self):
        spec, theta, series = two_obs_series(0.4)
        with pytest.raises(ValueError):
            randomized_pit(spec, theta, series, NoiseStream(z=np.array([0.5])))

    def test_csv_export(self, tmp_path):
        spec, theta, series = two_obs_series(0.3)
        u = randomized_pit(spec, theta, series, NoiseStream(z=np.array([0.5, 0.25])))
        path = tmp_path / "u.csv"
        u.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "u"
        assert np.allclose([float(v) for v in lines[1:]], u.u, atol=0.0)


class TestFloorRule:
    SPEC = ModelSpec(link="probit", n_regressors=1)
    THETA = Theta(pi0=0.0, beta=(1.0,))

    @classmethod
    def series_with_bottom_cell_at(cls, pi):
        """A binary probit series whose fourth period is ``y = 0`` at index
        ``pi``, so that its realized cell is ``Phi(-pi)``; the other cells
        are well inside the floor."""
        return Series(y=np.array([1, 0, 1, 0, 1, 0]),
                      x=np.array([[0.3], [-0.2], [0.5], [pi], [0.1], [-0.4]]))

    def test_below_hard_floor_raises(self):
        # Phi(-8) = 6.2e-16 < 1e-12
        series = self.series_with_bottom_cell_at(8.0)
        noise = NoiseStream(z=np.full(series.T, 0.5))
        with pytest.raises(AssumptionViolationError):
            randomized_pit(self.SPEC, self.THETA, series, noise)
        with pytest.raises(AssumptionViolationError):
            residuals_discrete(self.SPEC, self.THETA, series)
        assert loglik(self.SPEC, self.THETA, series) == -np.inf

    def test_between_floors_warns(self):
        # 1e-12 < Phi(-6) = 9.9e-10 < 1e-8
        series = self.series_with_bottom_cell_at(6.0)
        noise = NoiseStream(z=np.full(series.T, 0.5))
        with pytest.warns(ProbabilityFloorWarning, match="below 1e-08"):
            u = randomized_pit(self.SPEC, self.THETA, series, noise).u
        assert np.all((u > 0.0) & (u < 1.0))
        with pytest.warns(ProbabilityFloorWarning, match="below 1e-08"):
            e = residuals_discrete(self.SPEC, self.THETA, series)
        assert np.all(np.isfinite(e))
        assert np.isfinite(loglik(self.SPEC, self.THETA, series))

    def test_zero_conditional_variance_has_its_own_error(self):
        # at index 40, P(Y = 0) underflows to 0: the realized cell P(Y = 1)
        # is 1, so the PIT is fine, but the conditional variance is 0
        series = Series(y=np.array([1, 0, 1, 0, 0, 1]),
                        x=np.array([[0.3], [-0.2], [40.0], [0.1], [-1.0], [0.5]]))
        noise = NoiseStream(z=np.full(series.T, 0.5))
        u = randomized_pit(self.SPEC, self.THETA, series, noise).u
        assert np.all((u > 0.0) & (u < 1.0))
        with pytest.raises(AssumptionViolationError, match="zero conditional variance") as info:
            residuals_discrete(self.SPEC, self.THETA, series)
        assert "floor" not in str(info.value)

    def test_above_warning_floor_is_silent(self):
        series = self.series_with_bottom_cell_at(5.0)  # Phi(-5) = 2.9e-7
        noise = NoiseStream(z=np.full(series.T, 0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            randomized_pit(self.SPEC, self.THETA, series, noise)
            residuals_discrete(self.SPEC, self.THETA, series)


class TestNoiseStream:
    def test_draws_must_be_in_unit_interval(self):
        with pytest.raises(ValueError):
            NoiseStream(z=np.array([0.2, 1.2]))

    def test_from_seed_deterministic(self):
        a = NoiseStream.from_seed(50, 9, "tag", 3)
        b = NoiseStream.from_seed(50, 9, "tag", 3)
        assert np.array_equal(a.z, b.z)


class TestDiscrepancy:
    def test_zero_on_identical_laws(self):
        for r in np.linspace(0.0, 1.0, 21):
            assert discrepancy(BINARY_03, BINARY_03, float(r)) == pytest.approx(0.0, abs=1e-15)

    def test_binary_hand_value(self):
        lawG = law_from_probs([0.6, 0.4])
        d = discrepancy(lawG, BINARY_03, 0.35)
        assert d == pytest.approx(-0.05, abs=1e-14)
        # cross-check through the continued-cdf route: Gdag(-0.5) - 0.35
        assert d == pytest.approx(cont_cdf(lawG, -0.5) - 0.35, abs=1e-14)

    def test_boundary_r_one(self):
        lawG = law_from_probs([0.5, 0.5])
        assert discrepancy(lawG, BINARY_03, 1.0) == 0.0

    @given(st.data())
    @settings(max_examples=300)
    def test_three_representations_agree(self, data):
        J = data.draw(st.integers(1, 4))
        lawF = data.draw(laws(support=J))
        lawG = data.draw(laws(support=J))
        r = data.draw(st.floats(0.0, 1.0))
        d0 = discrepancy(lawG, lawF, r, "dr")
        d1 = discrepancy(lawG, lawF, r, "dy")
        d2 = discrepancy(lawG, lawF, r, "dy1")
        assert abs(d0 - d1) <= 1e-12
        assert abs(d0 - d2) <= 1e-12

    @given(st.data())
    @settings(max_examples=150)
    def test_identical_laws_zero_everywhere(self, data):
        law = data.draw(laws())
        r = data.draw(st.floats(0.0, 1.0))
        assert abs(discrepancy(law, law, r)) <= 1e-13

    def test_support_mismatch(self):
        with pytest.raises(ValueError):
            discrepancy(law_from_probs([0.2, 0.3, 0.5]), BINARY_03, 0.5)

"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Criteria 1-3 are desk-scale Monte Carlo reproductions; the rest
are exact or high-precision checks.
"""

import json
import math

import numpy as np
import pytest
from scipy.special import ndtr

from dcgof.boot import run_scenario, scenario_registry
from dcgof.cli import main
from dcgof.estimate import SeparationError, fit_mle, loglik, score
from dcgof.model import CondLaw, ModelSpec, Series, Theta, simulate
from dcgof.rng import substream
from dcgof.stats import StatKind, cvm_stat, ks_stat, v2_limit_cov
from dcgof.transform import NoiseStream, discrepancy, randomized_pit

pytestmark = pytest.mark.filterwarnings("ignore::dcgof.model.ProbabilityFloorWarning")

REGISTRY = {s.id: s for s in scenario_registry()}
EP_NAMES = ("CvM0", "CvM1", "CvM2", "KS0", "KS1", "KS2")


def _report(num: int, label: str, ok: bool, detail: str = "") -> bool:
    print(f"ACCEPTANCE {num} ({label}): {'PASS' if ok else 'FAIL'}  {detail}".rstrip())
    return ok


def test_criterion_1_size_reproduction():
    benchmark = {0.10: 8.8, 0.05: 3.5, 0.01: 0.3}
    R = 500
    tab = run_scenario(REGISTRY[1], T=100, R=R, master_seed=1, threads=2)
    details, ok = [], True
    for level, target in benchmark.items():
        cell = tab.rate(level, "CvM0")
        se_pct = 100.0 * math.sqrt(level * (1.0 - level) / R)
        cell_ok = abs(cell - target) <= 3.0 or abs(cell - 100.0 * level) <= 3.0 * se_pct
        ok = ok and cell_ok
        details.append(f"CvM0@{100 * level:g}%={cell:.1f} (benchmark {target})")
    assert _report(1, "size, scenario 1, T=100", ok, "; ".join(details))


def test_criterion_2_strong_power():
    tab = run_scenario(REGISTRY[11], T=300, R=200, master_seed=3, threads=2)
    bpd2 = tab.rate(0.05, "BPD_2")
    cvm2 = tab.rate(0.05, "CvM2")
    ok = bpd2 >= 90.0 and 50.0 <= cvm2 <= 78.0
    assert _report(2, "power, scenario 11, T=300", ok,
                   f"BPD_2@5%={bpd2:.1f} (need >=90), CvM2@5%={cvm2:.1f} (need in [50,78])")


def test_criterion_3_no_power_sanity():
    tab = run_scenario(REGISTRY[4], T=500, R=500, master_seed=11, threads=2)
    cells = {name: tab.rate(0.05, name) for name in EP_NAMES}
    ok = all(v <= 12.0 for v in cells.values())
    detail = ", ".join(f"{k}={v:.1f}" for k, v in cells.items())
    assert _report(3, "no power, scenario 4, T=500", ok, detail + " (all must be <= 12)")


def test_criterion_4_pit_noise_invariance():
    rng = np.random.default_rng(2024)
    square = lambda v: v * v
    worst = 0.0
    for case in range(100):
        link = ("probit", "logistic", "chisq1")[case % 3]
        q = case % 2
        interactions = bool(q and case % 4 == 1)
        spec = ModelSpec(link=link, q=q, n_regressors=1, interactions=interactions)
        theta = Theta(
            pi0=float(rng.uniform(-0.4, 0.4)),
            delta=tuple(rng.uniform(-0.6, 0.6, size=q)),
            beta=(float(rng.uniform(-0.8, 0.8)),),
            gamma=(float(rng.uniform(-0.5, 0.5)),) if interactions else (),
        )
        T = 80
        data = simulate(spec, theta, T, x=rng.standard_normal((T, 1)),
                        rng=substream(700, "c4", case))
        z = substream(701, "c4z", case).random(T)
        u_fz = randomized_pit(spec, theta, data, NoiseStream(z=z, cdf=square))
        u_uni = randomized_pit(spec, theta, data, NoiseStream(z=square(z)))
        worst = max(worst, float(np.max(np.abs(u_fz.u - u_uni.u))))
    assert _report(4, "randomized PIT noise invariance", worst == 0.0,
                   f"max abs difference over 100 models = {worst}")


def test_criterion_5_pit_uniformity_independence():
    spec = ModelSpec(link="probit", q=1, n_regressors=1)
    theta = Theta(pi0=0.0, delta=(0.8,), beta=(1.0,))
    T = 100_000
    rng = substream(17, "c5")
    data = simulate(spec, theta, T, x=rng.standard_normal((T, 1)), rng=rng)
    u = randomized_pit(spec, theta, data, NoiseStream(z=substream(17, "c5n").random(T))).u
    us = np.sort(u)
    ks = max(np.max(np.arange(1, T + 1) / T - us), np.max(us - np.arange(T) / T))
    ks_ok = ks <= 1.63 / math.sqrt(T)
    uc = u - u.mean()
    acfs = [float(uc[j:] @ uc[:-j] / (uc @ uc)) for j in range(1, 6)]
    acf_ok = all(abs(r) <= 3.0 / math.sqrt(T) for r in acfs)
    detail = f"KS={ks:.5f} (crit {1.63 / math.sqrt(T):.5f}), acf*sqrt(T)=" + \
        ",".join(f"{r * math.sqrt(T):+.2f}" for r in acfs)
    assert _report(5, "PIT uniformity and independence, T=1e5", ks_ok and acf_ok, detail)


def test_criterion_6_limit_covariance():
    spec = ModelSpec(link="probit", n_regressors=1)
    theta = Theta(pi0=0.0, beta=(1.0,))
    T, n_rep = 2000, 10_000
    grid = [(r1, r2) for r1 in (0.25, 0.5, 0.75) for r2 in (0.25, 0.5, 0.75)]
    vals = np.empty((n_rep, len(grid)))
    denom = math.sqrt(T - 3)
    for rep in range(n_rep):
        rng = substream(606, "c6", rep)
        data = simulate(spec, theta, T, x=rng.standard_normal((T, 1)), rng=rng)
        u = randomized_pit(spec, theta, data,
                           NoiseStream(z=substream(606, "c6-noise", rep).random(T))).u
        a, b = u[1 : T - 1], u[: T - 2]
        for g, (r1, r2) in enumerate(grid):
            vals[rep, g] = (np.sum((a <= r1) & (b <= r2)) - (T - 2) * r1 * r2) / denom
    centered = vals - vals.mean(axis=0)
    worst_z = 0.0
    for i in range(len(grid)):
        for j in range(i, len(grid)):
            target = v2_limit_cov(grid[i], grid[j])
            prod = centered[:, i] * centered[:, j]
            emp = prod.mean()
            se = prod.std(ddof=1) / math.sqrt(n_rep)
            worst_z = max(worst_z, abs(emp - target) / se)
    assert _report(6, "limit covariance of the bivariate process", worst_z <= 3.0,
                   f"worst |z| over 45 grid entries = {worst_z:.2f}")


def _cvm_refined_quadrature(u, kind, n_grid=200):
    """Quadrature oracle on the n_grid^p tensor grid, refined so cells respect
    the process's jump lines (2-point Gauss per cell is then exact)."""
    T = len(u)
    nodes_x, nodes_w = np.polynomial.legendre.leggauss(2)

    def axis(vals):
        cuts = np.unique(np.concatenate((np.linspace(0.0, 1.0, n_grid + 1), vals)))
        mid, half = (cuts[1:] + cuts[:-1]) / 2.0, (cuts[1:] - cuts[:-1]) / 2.0
        r = (mid[:, None] + half[:, None] * nodes_x[None, :]).ravel()
        w = (half[:, None] * nodes_w[None, :]).ravel()
        return r, w

    if kind.tag == "CvM_p" and kind.p == 1:
        a, denom = u[:-1], math.sqrt(T - 2)
        r, w = axis(a)
        V = ((a[None, :] <= r[:, None]).sum(axis=1) - len(a) * r) / denom
        return float(w @ (V * V))
    if kind.tag == "CvM_2j":
        a, b, denom = u[kind.j:], u[:-kind.j], math.sqrt(T - kind.j)
    else:
        a, b, denom = u[1 : T - 1], u[: T - 2], math.sqrt(T - 3)
    r1, w1 = axis(a)
    r2, w2 = axis(b)
    V = ((a[None, :] <= r1[:, None]).astype(float) @ (b[None, :] <= r2[:, None]).astype(float).T
         - len(a) * np.outer(r1, r2)) / denom
    return float(w1 @ (V * V) @ w2)


def test_criterion_7_oracle_equivalences():
    rng = substream(808, "c7")
    # (a) CvM closed form vs 200^2-grid quadrature
    worst_cvm = 0.0
    for rep in range(5):
        u = rng.random(50)
        for name in ("CvM0", "CvM1", "CvM2"):
            kind = StatKind.from_name(name)
            closed = cvm_stat(u, kind).value
            worst_cvm = max(worst_cvm, abs(closed - _cvm_refined_quadrature(u, kind)))
    cvm_ok = worst_cvm <= 1e-4

    # (b) KS candidate-set sup vs 1e6 random probes
    u = rng.random(60)
    exact_1d = ks_stat(u, StatKind.from_name("KS0")).value
    probes = rng.random(1_000_000)
    a = np.sort(u[:-1])
    vals = np.abs(np.searchsorted(a, probes, side="right") - len(a) * probes) / math.sqrt(len(u) - 2)
    gap_1d = float(vals.max() - exact_1d)
    exact_2d = ks_stat(u, StatKind.from_name("KS1")).value
    aa, bb = u[1:], u[:-1]
    worst_probe_2d = 0.0
    for chunk in range(10):
        p = substream(809, "c7p", chunk).random((100_000, 2))
        hits = ((aa[None, :] <= p[:, 0:1]) & (bb[None, :] <= p[:, 1:2])).sum(axis=1)
        v = np.abs(hits - len(aa) * p[:, 0] * p[:, 1]) / math.sqrt(len(u) - 1)
        worst_probe_2d = max(worst_probe_2d, float(v.max()))
    gap_2d = worst_probe_2d - exact_2d
    ks_ok = gap_1d <= 1e-12 and gap_2d <= 1e-12

    # (c) the three discrepancy representations on 1e4 random law pairs
    worst_d = 0.0
    for rep in range(10_000):
        J = 1 + rep % 3
        pf = rng.random(J + 1) + 0.05
        pg = rng.random(J + 1) + 0.05
        pf, pg = pf / pf.sum(), pg / pg.sum()
        lawF = CondLaw(probs=pf, cdf=np.concatenate((np.cumsum(pf)[:-1], [1.0])))
        lawG = CondLaw(probs=pg, cdf=np.concatenate((np.cumsum(pg)[:-1], [1.0])))
        r = float(rng.random())
        d0 = discrepancy(lawG, lawF, r, "dr")
        worst_d = max(worst_d, abs(d0 - discrepancy(lawG, lawF, r, "dy")),
                      abs(d0 - discrepancy(lawG, lawF, r, "dy1")))
    d_ok = worst_d <= 1e-12
    assert _report(
        7, "oracle equivalences", cvm_ok and ks_ok and d_ok,
        f"CvM gap={worst_cvm:.2e} (<=1e-4), KS probe excess=({gap_1d:.2e},{gap_2d:.2e}) "
        f"(<=1e-12), d-representation gap={worst_d:.2e} (<=1e-12)",
    )


def test_criterion_8_estimation():
    spec = ModelSpec(link="probit", q=1, n_regressors=1)
    rng = substream(900, "c8")
    data = simulate(spec, Theta(pi0=0.1, delta=(0.5,), beta=(0.8,)), 200,
                    x=rng.standard_normal((200, 1)), rng=rng)
    worst_rel = 0.0
    for _ in range(50):
        theta = Theta(pi0=float(rng.uniform(-0.5, 0.5)), delta=(float(rng.uniform(-0.5, 0.5)),),
                      beta=(float(rng.uniform(-0.8, 0.8)),))
        g = score(spec, theta, data)
        vec, fd = theta.to_vector(), np.zeros(3)
        for i in range(3):
            e = np.zeros(3)
            e[i] = 1e-6
            fd[i] = (loglik(spec, Theta.from_vector(spec, vec + e), data)
                     - loglik(spec, Theta.from_vector(spec, vec - e), data)) / 2e-6
        worst_rel = max(worst_rel, float(np.max(np.abs(g - fd)) / max(1.0, np.max(np.abs(g)))))
    score_ok = worst_rel <= 1e-6

    # grid-search oracle on five observations (likelihood window drops the first)
    y = np.array([0, 1, 0, 1, 0])
    x = np.array([0.5, -0.3, 0.5, 0.2, -0.8]).reshape(-1, 1)
    fit = fit_mle(ModelSpec(link="probit", n_regressors=1), Series(y=y, x=x))
    grid = np.arange(-2.0, 2.0001, 0.01)
    P0, B = np.meshgrid(grid, grid, indexing="ij")
    pi = P0[..., None] + B[..., None] * x[1:, 0]
    ll = np.where(y[1:] == 1, np.log(ndtr(pi)), np.log(ndtr(-pi))).sum(axis=-1)
    i, j = np.unravel_index(np.argmax(ll), ll.shape)
    grid_ok = abs(fit.theta_hat.pi0 - grid[i]) <= 0.01 and abs(fit.theta_hat.beta[0] - grid[j]) <= 0.01

    try:
        fit_mle(ModelSpec(link="probit", n_regressors=1),
                Series(y=np.ones(50, dtype=int), x=substream(901, "c8x").standard_normal((50, 1))))
        sep_ok = False
    except SeparationError:
        sep_ok = True
    assert _report(8, "estimation checks", score_ok and grid_ok and sep_ok,
                   f"score rel err={worst_rel:.2e} (<=1e-6), grid oracle ok={grid_ok}, "
                   f"separation detected={sep_ok}")


def test_criterion_9_cli_determinism(tmp_path):
    data_path = tmp_path / "data.csv"
    spec = ModelSpec(link="probit", q=1, n_regressors=1)
    rng = substream(42, "c9")
    data = simulate(spec, Theta(pi0=0.2, delta=(0.6,), beta=(1.0,)), 150,
                    x=rng.standard_normal((150, 1)), rng=rng)
    with open(data_path, "w") as fh:
        fh.write("y,x1\n")
        for yi, xi in zip(data.y, data.x[:, 0]):
            fh.write(f"{yi},{xi:.17g}\n")

    test_args = ["test", "--input", str(data_path), "--ylags", "1", "--B", "49", "--seed", "9",
                 "--stats", "CvM0,CvM1,KS0,BPD_1,JB"]
    outs = [tmp_path / f"t{i}" for i in range(3)]
    for out, threads in zip(outs, ("1", "1", "4")):
        assert main(test_args + ["--out", str(out), "--threads", threads]) == 0
    test_ok = (
        (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()
        == (outs[2] / "report.json").read_bytes()
    )

    mc_args = ["mc", "--scenarios", "1", "--T", "80", "--R", "60", "--seed", "3"]
    mouts = [tmp_path / f"m{i}" for i in range(3)]
    for out, threads in zip(mouts, ("1", "1", "2")):
        assert main(mc_args + ["--out", str(out), "--threads", threads]) == 0
    mc_ok = (
        (mouts[0] / "rejections.csv").read_bytes() == (mouts[1] / "rejections.csv").read_bytes()
        == (mouts[2] / "rejections.csv").read_bytes()
        and (mouts[0] / "rejections.json").read_bytes() == (mouts[2] / "rejections.json").read_bytes()
    )
    assert _report(9, "CLI determinism across runs and threads", test_ok and mc_ok,
                   f"test bytes identical={test_ok}, mc bytes identical={mc_ok}")

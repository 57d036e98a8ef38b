"""Checks of dcgof's outputs against computations made apart from the program.

Everything here is written from the definitions, with numpy and scipy only;
from dcgof it takes just the continuation noise (``NoiseStream.from_seed``),
so that a change of the noise draw layout moves the program and the check
together.  Each ``check_*`` function returns a list of failure messages,
empty when every output is right.

Processes, as defined in the paper (``n`` summands, normalizer ``sqrt(d)``):

    V1(r)       sum_{t=2}^{T} 1{u_{t-1} <= r} - r                       n = T-1, d = T-2
    V2j(r1, r2) sum_{t=j+1}^{T} 1{u_t <= r1} 1{u_{t-j} <= r2} - r1 r2   n = T-j, d = T-j
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy import special
from scipy import stats as sstats

U_CLAMP = 1e-15
STAT_RTOL = 1e-7
FOC_TOL = 1e-6
SE_RANGE = 5.0
# Warp-speed rates pool one bootstrap draw per replication, so the null
# quantile is itself estimated from R draws: the rate's variance is about
# twice the binomial one.
WARP_VARIANCE_FACTOR = 2.0
RATE_Z = 5.0


# --- model: probit links, binary (threshold 0, free intercept) or ordered ----

def unpack(vec: np.ndarray, J: int) -> tuple[float, float, float, np.ndarray]:
    """``(pi0, delta, beta, mu)`` from the free parameters: ``(pi0, delta,
    beta)`` when binary, ``(delta, beta, mu_0..mu_{J-1})`` when ordered."""
    if J == 1:
        return vec[0], vec[1], vec[2], np.zeros(1)
    return 0.0, vec[0], vec[1], np.asarray(vec[2:])


def free_vector(theta: dict, J: int) -> np.ndarray:
    """Free parameters of a ``theta_hat`` JSON object (one lag, one regressor)."""
    if J == 1:
        return np.array([theta["pi0"], theta["delta"][0], theta["beta"][0]])
    return np.array([theta["delta"][0], theta["beta"][0], *theta["mu"]])


def _cells(vec, J, y, x):
    """Index and the realized cell's bounds ``mu_{y-1} - pi``, ``mu_y - pi``
    at every period; the presample outcome is zero."""
    pi0, delta, beta, mu = unpack(vec, J)
    y_lag = np.concatenate(([0.0], y[:-1]))
    pi = pi0 + delta * y_lag + beta * x
    edges = np.concatenate(([-np.inf], mu, [np.inf]))
    return pi, edges[y] - pi, edges[y + 1] - pi


def _phi(v):
    return np.where(np.isfinite(v), np.exp(-0.5 * np.where(np.isfinite(v), v, 0.0) ** 2), 0.0) \
        / math.sqrt(2.0 * math.pi)


def cell_prob(lo, hi):
    """``Phi(hi) - Phi(lo)``, taken from the upper tails ``Phi(-lo) - Phi(-hi)``
    when the cell lies above 0, so that a cell far out on the right does not
    round to 0 by cancellation."""
    return np.where(lo > 0.0, special.ndtr(-lo) - special.ndtr(-hi),
                    special.ndtr(hi) - special.ndtr(lo))


def loglik(vec, J, y, x) -> float:
    """Conditional log likelihood over periods ``t >= 1``."""
    _, lo, hi = _cells(vec, J, y, x)
    return float(np.sum(np.log(cell_prob(lo[1:], hi[1:]))))


def score_matrix(vec, J, y, x) -> np.ndarray:
    """Per-observation gradients of the log likelihood, periods ``t >= 1``."""
    _, lo, hi = _cells(vec, J, y, x)
    lo, hi, yy = lo[1:], hi[1:], y[1:]
    p = cell_prob(lo, hi)
    f_lo, f_hi = _phi(lo) / p, _phi(hi) / p
    d_pi = f_lo - f_hi
    cols = [d_pi * y[:-1], d_pi * x[1:]]
    if J == 1:
        cols.insert(0, d_pi)
    else:
        for k in range(J):
            cols.append(np.where(yy == k, f_hi, 0.0) - np.where(yy == k + 1, f_lo, 0.0))
    return np.column_stack(cols)


def pit(vec, J, y, x, z) -> np.ndarray:
    """Randomized PIT ``F(y_t - 1) + z_t P(y_t)``, clamped inside (0, 1)."""
    _, lo, hi = _cells(vec, J, y, x)
    f_lo = special.ndtr(lo)
    u = f_lo + z * cell_prob(lo, hi)
    return np.clip(u, U_CLAMP, 1.0 - U_CLAMP)


def discrete_residuals(vec, J, y, x) -> np.ndarray:
    pi0, delta, beta, mu = unpack(vec, J)
    y_lag = np.concatenate(([0.0], y[:-1]))
    pi = pi0 + delta * y_lag + beta * x
    edges = np.concatenate(([-np.inf], mu, [np.inf]))
    probs = cell_prob(edges[None, :-1] - pi[:, None], edges[None, 1:] - pi[:, None])
    support = np.arange(J + 1)
    mean = probs @ support
    # centered form: E[Y^2] - E[Y]^2 cancels to 0 when one cell holds nearly all mass
    var = np.sum(probs * (support[None, :] - mean[:, None]) ** 2, axis=1)
    return (y - mean) / np.sqrt(var)


# --- statistics ----------------------------------------------------------------

def cvm0(u: np.ndarray) -> float:
    """Rank formula: ``int (N(r) - n r)^2 dr = 1/12 + n sum (a_(i) - (2i-1)/(2n))^2``."""
    a = np.sort(u[:-1])
    n = a.size
    i = np.arange(1, n + 1)
    return (1.0 / 12.0 + n * float(np.sum((a - (2 * i - 1) / (2.0 * n)) ** 2))) / (u.size - 2)


def ks0(u: np.ndarray) -> float:
    a = u[:-1]
    return a.size * sstats.kstest(a, "uniform").statistic / math.sqrt(u.size - 2)


def corner_counts(a: np.ndarray, b: np.ndarray):
    """Brute-force counts ``N[k, l] = #{i : a_i <= lo_a[k], b_i <= lo_b[l]}``
    on the grid whose cells ``[lo_a[k], hi_a[k]) x [lo_b[l], hi_b[l])`` have
    edges at 0, the observed values and 1; ``N`` is constant on each cell."""
    ga, gb = np.unique(a), np.unique(b)
    below_a = (a[:, None] <= ga[None, :]).astype(np.float32)
    below_b = (b[:, None] <= gb[None, :]).astype(np.float32)
    N = np.zeros((ga.size + 1, gb.size + 1))
    N[1:, 1:] = below_a.T @ below_b  # integer sums, exact in float32 below 2**24
    lo_a, hi_a = np.concatenate(([0.0], ga)), np.concatenate((ga, [1.0]))
    lo_b, hi_b = np.concatenate(([0.0], gb)), np.concatenate((gb, [1.0]))
    return N, (lo_a, hi_a), (lo_b, hi_b)


def cvm2d(a: np.ndarray, b: np.ndarray, d: float) -> float:
    """Exact integral of ``(N - n r1 r2)^2`` summed over the grid cells."""
    n = a.size
    N, (lo_a, hi_a), (lo_b, hi_b) = corner_counts(a, b)
    w1a, w1b = hi_a - lo_a, hi_b - lo_b
    w2a, w2b = (hi_a**2 - lo_a**2) / 2.0, (hi_b**2 - lo_b**2) / 2.0
    total = w1a @ (N * N) @ w1b - 2.0 * n * (w2a @ N @ w2b) + n * n / 9.0
    return float(total) / d


def ks2d(a: np.ndarray, b: np.ndarray, d: float) -> float:
    """Sup of ``|N - n r1 r2|`` over the lowest and highest corner of every cell."""
    n = a.size
    N, (lo_a, hi_a), (lo_b, hi_b) = corner_counts(a, b)
    low = np.abs(N - n * np.outer(lo_a, lo_b)).max()
    high = np.abs(N - n * np.outer(hi_a, hi_b)).max()
    return float(max(low, high)) / math.sqrt(d)


def box_pierce(e: np.ndarray, m: int) -> float:
    c = e - e.mean()
    acov = np.correlate(c, c, mode="full")[c.size - 1:]
    rho = acov[1 : m + 1] / acov[0]
    return c.size * float(np.sum(rho**2))


def statistics(u: np.ndarray, e: np.ndarray, names) -> dict[str, float]:
    """Every statistic of ``names`` computed from the definitions."""
    T = u.size
    g = sstats.norm.ppf(u)
    out = {}
    for name in names:
        if name == "CvM0":
            out[name] = cvm0(u)
        elif name == "KS0":
            out[name] = ks0(u)
        elif name[:3] == "CvM" or name[:2] == "KS":
            j = int(name.lstrip("CvMKS"))
            fn = cvm2d if name.startswith("CvM") else ks2d
            out[name] = fn(u[j:], u[:-j], T - j)
        elif name == "JB":
            out[name] = float(sstats.jarque_bera(g).statistic)
        elif name.startswith("BPN_"):
            out[name] = box_pierce(g, int(name[4:]))
        elif name.startswith("BPD_"):
            out[name] = box_pierce(e, int(name[4:]))
        else:
            raise ValueError(f"no oracle for statistic {name}")
    return out


# --- checks ----------------------------------------------------------------------

def check_test_report(payload: dict, y, x, J: int, truth: np.ndarray, z: np.ndarray) -> list[str]:
    """Checks of a ``dcgof test`` report.json against the input ``(y, x)``,
    the DGP truth (free parameters) and the observed-data noise ``z``."""
    errors = []
    report = payload["report"]
    B = report["B"]
    failed = report["warnings"]["failed_fits"]
    for s in report["statistics"]:
        n_rep = s["n_replicates"]
        if n_rep + failed != B:
            errors.append(f"{s['name']}: n_replicates {n_rep} + failed_fits {failed} != B {B}")
        k = s["p_value"] * (n_rep + 1) - 1.0
        if abs(k - round(k)) > 1e-9 or not 0 <= round(k) <= n_rep:
            errors.append(f"{s['name']}: p-value {s['p_value']} is not (1+k)/({n_rep}+1)")

    vec = free_vector(report["theta_hat"], J)
    grad = score_matrix(vec, J, y, x)
    g = grad.sum(axis=0)
    if np.max(np.abs(g)) > FOC_TOL:
        errors.append(f"score at theta_hat is {g.tolist()}, not zero")
    se = np.sqrt(np.diag(np.linalg.inv(grad.T @ grad)))
    far = np.abs(vec - truth) > SE_RANGE * se
    if far.any():
        errors.append(f"theta_hat {vec.tolist()} is over {SE_RANGE} standard errors "
                      f"{se.tolist()} from the truth {truth.tolist()}")

    u = pit(vec, J, y, x, z)
    e = discrete_residuals(vec, J, y, x)
    names = [s["name"] for s in report["statistics"]]
    expected = statistics(u, e, names)
    for s in report["statistics"]:
        want = expected[s["name"]]
        if not math.isclose(s["value"], want, rel_tol=STAT_RTOL, abs_tol=1e-12):
            errors.append(f"{s['name']} = {s['value']!r}, independent value {want!r}")
    return errors


def check_mc(text_parallel: str, text_serial: str, R: int) -> list[str]:
    """Checks of a ``dcgof mc`` rejections.json run on 2 workers, against the
    same run on one worker."""
    errors = []
    if text_parallel != text_serial:
        errors.append("rejections.json differs between --threads 2 and --threads 1")
    for table in json.loads(text_parallel)["tables"]:
        r_eff = table["R_effective"]
        if table["R"] != R or r_eff < 0.8 * R:
            errors.append(f"R_effective {r_eff} below 0.8 R (R={table['R']})")
            continue
        rates = table["rates"]
        for level, row in rates.items():
            for name, rate in row.items():
                hits = rate * r_eff / 100.0
                if abs(hits - round(hits)) > 1e-9:
                    errors.append(f"{name}@{level}: rate {rate} not a multiple of 100/{r_eff}")
        levels = sorted(rates, key=float)
        for name in rates[levels[0]]:
            seq = [rates[lv][name] for lv in levels]
            if seq != sorted(seq):
                errors.append(f"{name}: rejection rates {seq} fall as the level rises")
        se = 100.0 * math.sqrt(WARP_VARIANCE_FACTOR * 0.05 * 0.95 / r_eff)
        for name, rate in rates["0.05"].items():
            if abs(rate - 5.0) > RATE_Z * se:
                errors.append(f"{name}@5% = {rate} outside 5 +- {RATE_Z * se:.2f}")
    return errors

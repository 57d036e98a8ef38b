"""Seeded inputs of the benchmark workloads.

The data-generating processes are written here with numpy alone, apart
from the program, so that the estimate checks in ``oracles.py`` compare the
program's fit with a truth it did not produce.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

X_AR1 = 0.8


@dataclass(frozen=True)
class Dgp:
    """Probit DGP with one outcome lag and one AR(1) regressor:
    ``y_t = #{j : mu_j < pi0 + delta y_{t-1} + beta x_t + e_t}``.

    An empty ``mu`` means the binary model (threshold 0, free intercept);
    otherwise ``mu`` holds the ordered thresholds and ``pi0`` is 0.
    """

    name: str
    pi0: float
    delta: float
    beta: float
    mu: tuple[float, ...] = ()

    @property
    def J(self) -> int:
        return max(len(self.mu), 1)

    def truth(self) -> np.ndarray:
        """Free parameters, in the order of ``oracles.free_vector``."""
        if not self.mu:
            return np.array([self.pi0, self.delta, self.beta])
        return np.array([self.delta, self.beta, *self.mu])

    def draw(self, seed: int, T: int) -> tuple[np.ndarray, np.ndarray]:
        """``(y, x)`` of length ``T``; the presample outcome is 0."""
        rng = np.random.default_rng(np.random.SeedSequence((seed, zlib.crc32(self.name.encode()))))
        x = ar1(rng, X_AR1, T)
        eps = rng.standard_normal(T)
        thresholds = np.asarray(self.mu or (0.0,))
        y = np.zeros(T, dtype=np.int64)
        prev = 0
        for t in range(T):
            latent = self.pi0 + self.delta * prev + self.beta * x[t] + eps[t]
            prev = int(np.sum(thresholds < latent))
            y[t] = prev
        return y, x


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]         # dcgof arguments besides --input/--out/--seed
    traced_argv: tuple[str, ...]  # the same work on one process
    T: int
    dgp: Dgp | None               # None: the workload takes no input file


WORKLOADS = {
    "test-dyn-t300": Workload(
        "test-dyn-t300",
        ("test", "--ylags", "1", "--B", "199", "--threads", "2"),
        ("test", "--ylags", "1", "--B", "199", "--threads", "1"),
        300,
        Dgp("dynamic-probit", pi0=0.0, delta=0.8, beta=1.0),  # scenario 2 of the study
    ),
    "mc-static-t100": Workload(
        "mc-static-t100",
        ("mc", "--scenarios", "1", "--T", "100", "--R", "200", "--threads", "2"),
        ("mc", "--scenarios", "1", "--T", "100", "--R", "200", "--threads", "1"),
        100,
        None,
    ),
    "test-ord-t2000": Workload(
        "test-ord-t2000",
        ("test", "--J", "2", "--ylags", "1", "--B", "19"),
        ("test", "--J", "2", "--ylags", "1", "--B", "19"),
        2000,
        Dgp("ordered-probit", pi0=0.0, delta=0.5, beta=1.0, mu=(-0.5, 1.0)),
    ),
}


def ar1(rng: np.random.Generator, coef: float, T: int) -> np.ndarray:
    """AR(1) path with its presample value drawn from the stationary law."""
    prev = rng.standard_normal() / math.sqrt(1.0 - coef * coef)
    e = rng.standard_normal(T)
    out = np.empty(T)
    for t in range(T):
        prev = coef * prev + e[t]
        out[t] = prev
    return out


def write_csv(path: str, y: np.ndarray, x: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write("y,x1\n")
        for yt, xt in zip(y, x):
            fh.write(f"{int(yt)},{float(xt)!r}\n")


def make_input(workload: Workload, seed: int, path: str) -> tuple[np.ndarray, np.ndarray] | None:
    """Write the workload's CSV input, if it takes one, and return ``(y, x)``."""
    if workload.dgp is None:
        return None
    y, x = workload.dgp.draw(seed, workload.T)
    write_csv(path, y, x)
    return y, x

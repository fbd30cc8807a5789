"""The benchmark's workloads: which depolcap commands a round runs, on which
inputs, and what the oracle should expect of each report.

A round runs its commands one after another in one fresh process, as a
user running the CLI would.

The program seed stays at the CLI's built-in 0 in the two workloads that
run the Holevo optimizer. Its cost on seed-drawn inputs spreads far too
much to time: one default ``verify`` took 19 to 47 s over seeds 0-3 on one
host, and ``chi_additivity_check`` on the random qubit partner alone took 1
to 41 s. The benchmark seed instead draws the lambda grid of
``decompose-d2-6``, whose decomposition and closed forms cost the same at
any lambda in (0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_LAMBDAS = (0.0, 0.25, 0.5, 0.75, 1.0)
DEFAULT_P_GRID = (1.5, 2.0, 3.0)
DEFAULT_TRIALS = 100
DIMS_2_6 = (2, 3, 4, 5, 6)


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the grid its report must cover."""

    name: str                      # measures, decompose, verify or capacity
    dims: tuple
    lambdas: tuple = DEFAULT_LAMBDAS
    p_grid: tuple = DEFAULT_P_GRID
    trials: int = DEFAULT_TRIALS
    seed: int = 0

    @property
    def report(self) -> str:
        return f"{self.name}.json"

    def argv(self) -> list[str]:
        return ([self.name, "--seed", str(self.seed), "--out", self.report,
                 "--trials", str(self.trials), "--dims"]
                + [str(d) for d in self.dims] + ["--lambdas"]
                + [repr(x) for x in self.lambdas] + ["--p-grid"]
                + [repr(p) for p in self.p_grid])


def seeded_lambdas(seed: int, n: int = 5) -> tuple:
    """n distinct sorted lambdas in [0.05, 0.95], four decimals each."""
    rng = np.random.default_rng([seed, 0x1A4B])
    grid = rng.choice(np.arange(500, 9501), size=n, replace=False)
    return tuple(float(x) / 1e4 for x in sorted(grid))


def verify_default(seed: int) -> list[Command]:
    return [Command("verify", (2, 3))]


def capacity_d2_6(seed: int) -> list[Command]:
    return [Command("capacity", DIMS_2_6)]


def decompose_d2_6(seed: int) -> list[Command]:
    lambdas = seeded_lambdas(seed)
    return [Command("measures", DIMS_2_6, lambdas=lambdas, seed=seed),
            Command("decompose", DIMS_2_6, lambdas=lambdas, seed=seed)]


WORKLOADS = {
    "verify-default": verify_default,
    "capacity-d2-6": capacity_d2_6,
    "decompose-d2-6": decompose_d2_6,
}

"""Named benchmark workloads and the config each seed generates.

Every workload is a `schwarzlab run` configuration: a preset plus `--set`
overrides. Seed 0 is the preset input (constant volume source). Seed k > 0
moves the load to a unit point source at a seeded interior location and
seeds the random multipliers of the invariant battery, so a change cannot be
tuned to one right-hand side.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    overrides: dict = field(default_factory=dict)
    # a run fails the correctness gate above this relative primal error
    primal_error_bound: float = 1e-8


WORKLOADS = {w.name: w for w in (
    # Full GMRES in the M^-1 inner product on 4x4 glob facets: one dense M
    # solve per inner product plus the dense global reference LU (n = 4225).
    Workload("gmres-globs", "loisel",
             {"problem.nx": "64", "problem.ny": "64",
              "decomposition.px": "4", "decomposition.py": "4"}),
    # About 1,700 cheap damped primal iterations with block solves and dense
    # X/M products; no inner products, no GMRES, a small reference solve.
    Workload("fixedpoint-globs", "complete_comm",
             {"problem.nx": "32", "problem.ny": "32",
              "decomposition.px": "4", "decomposition.py": "4"},
             primal_error_bound=1e-9),
    # One-step reflection: set-up is a dense global factorization with n_u
    # right-hand sides, and the battery squares a dense n_u x n_u matrix.
    Workload("onestep-dense", "exceptional",
             {"problem.nx": "48", "problem.ny": "48"},
             primal_error_bound=1e-10),
    # Time-harmonic regime (alpha = i) with bilateral facets and cycles: the
    # only workload where the gamma estimate and the redundancy SVD run.
    Workload("gmres-bilateral-wave", "feti2lm",
             {"problem.nx": "64", "problem.ny": "64",
              "problem.type": "helmholtz", "problem.kappa": "8"}),
)}


def generate(workload: Workload, seed: int) -> dict:
    """Config overrides of one seeded input; the seed also seeds the battery."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    overrides = dict(workload.overrides)
    if seed > 0:
        rng = random.Random(seed)
        x, y = (round(rng.uniform(0.1, 0.9), 4) for _ in range(2))
        overrides["problem.source"] = f"point:{x},{y}"
    return overrides

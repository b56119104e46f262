"""The benchmark's workloads and the jobs they run.

A run cycles through the first `jobs` jobs of its workload, in a closed loop
from a single process.  Job k of a run samples with seed `seed + (k << 32)`,
so job 0 uses the `--seed` itself (42 is the acceptance seed) and later jobs
draw fresh inputs that no other small seed reaches.  Every pass over the
jobs does the same work, so passes differ only in the machine's speed; and
the inputs, and any trial that does not pass, are fixed by the seed.

Every job uses the acceptance contract unchanged: tolerance 1e-8 and
condition_cap 1e6, with the rest of SampleConfig at its defaults.
"""

from __future__ import annotations

from dataclasses import dataclass

from ellsum import SampleConfig, VerificationJob

TOLERANCE = 1e-8
CONDITION_CAP = 1e6


@dataclass(frozen=True)
class Workload:
    identities: str | tuple[str, ...]
    n_values: tuple[int, ...]
    N_values: tuple[int, ...]
    p_values: tuple[float, ...]
    trials: int
    cells: int  # how many cells a job must report
    jobs: int  # how many distinct jobs a run cycles through


WORKLOADS = {
    # The acceptance grid: every identity, parity branch and p; uses every
    # layer on the verify path.
    "grid": Workload("all", (1, 2, 3, 4), (0, 1, 2, 3, 4), (0.0, 0.05, 0.2),
                     trials=1, cells=522, jobs=2),
    # 56-126 terms per side: term assembly and theta dominate, and rejected
    # draws cost evaluation.  N = 5 is the largest N at which these
    # identities agree: at N = 6 to 8 gr-corollary and bt-transform give
    # two sides that differ at low condition.
    "deep": Workload(("bt-transform", "gr-corollary", "njc-jackson", "general-jackson"),
                     (3, 4), (5,), (0.2,), trials=3, cells=8, jobs=8),
    # 1-3 terms per side at p = 0, where theta is exactly 1 - z: fixed
    # per-trial cost (sampler, catalog, serialization) dominates.
    "shallow": Workload("all", (1, 2), (0, 1), (0.0,), trials=25, cells=38, jobs=8),
}


def make_job(name: str, seed: int, index: int) -> VerificationJob:
    """Job `index` of a run of workload `name` at `seed`."""
    w = WORKLOADS[name]
    config = SampleConfig(seed=seed + (index << 32), p_values=w.p_values,
                          condition_cap=CONDITION_CAP)
    return VerificationJob(identities=w.identities, n_values=w.n_values,
                           N_values=w.N_values, trials=w.trials,
                           tolerance=TOLERANCE, config=config)

"""Workload definitions: reduced forms of the bundled rate-study configs.

Each workload keeps the model and the averaging mode of the bundled config it
comes from (``configs/rate_*.json``) and shrinks the run so that one study
takes a few seconds; the benchmark then repeats it inside one run and reports
medians.  The program only ever sees the config generated here.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

# Seeds of the bundled configs; the default for --seed.
LINEAR_SEED = 90125
CUBIC_SEED = 61803
POROUS_SEED = 16180

# Two replications of N=500 rather than four of N=1000: the same particle
# steps as one of N=1000, and the replication axis (standard error, the
# per-replication seed derivation, batching over replications) stays in play.
_LINEAR = {
    "model": "linear-benchmark",
    "n_particles": 500,
    "epsilon_grid": [0.1, 0.05, 0.02, 0.01],
    "t_end": 1.0,
    "replications": 2,
    "averaged_mode": "exact",
}

# N=512 rather than 128: stepping 128-element arrays is pure interpreter
# overhead, whose speed drifts about twice as much with host load.
_CUBIC = {
    "model": "mvsde-cubic",
    "n_particles": 512,
    "epsilon_grid": [0.1, 0.05, 0.02],
    "t_end": 1.0,
    "replications": 1,
    "averaged_mode": "hmm",
    "hmm": {"replicas": 1, "horizon": 1.0, "burn_in": 0.5, "h_frozen": 0.02},
}

# 31 nodes rather than 63: h is capped at the explicit stability limit
# (~dx^2), so 63 nodes need 4x the steps for the same t_end, and a shorter
# t_end flattens the fitted slope down to the verdict threshold.
_POROUS = {
    "model": "porous-media-1d",
    "model_params": {"r": 4.0, "n_interior": 31, "n_slow_modes": 4, "n_fast_modes": 4},
    "n_particles": 200,
    "epsilon_grid": [0.1, 0.05, 0.02],
    "t_end": 0.1,
    "replications": 1,
    "averaged_mode": "exact",
}


def pool_workers() -> int:
    """Worker count of the pool workload: 2, or fewer on a smaller machine."""
    return min(2, len(os.sched_getaffinity(0)))


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a study config plus its worker count."""

    name: str
    reference: str          # reference/<reference>.json holds its expected report
    base: dict
    default_seed: int
    pool: bool              # run the jobs on pool_workers() processes
    why: str

    def config(self, seed: int, workers: int | None = None) -> dict:
        """The study config the program receives (``out_dir`` is set per study)."""
        if workers is None:
            workers = pool_workers() if self.pool else 1
        return dict(self.base, seed=int(seed), workers=workers)

    @property
    def jobs(self) -> int:
        """Replication jobs (grid point x replication) in one study."""
        return len(self.base["epsilon_grid"]) * self.base["replications"]


WORKLOADS = {
    w.name: w for w in (
        Workload("linear-exact", "linear", _LINEAR, LINEAR_SEED, False,
                 "closed-form fbar, 2 replications, no HMM and no spatial solves: noise "
                 "generation and per-step Python overhead dominate"),
        Workload("cubic-hmm", "cubic", _CUBIC, CUBIC_SEED, False,
                 "HMM mode: embedded frozen runs dominate, slow stepping is a few percent"),
        Workload("porous-spde", "porous", _POROUS, POROUS_SEED, False,
                 "field model at 31 nodes: banded solves ~30% and Gaussian noise 20-25% of "
                 "traced time, stepping ~15%, exact_fbar ~3%; moves with solver and noise "
                 "changes"),
        Workload("linear-pool", "linear", _LINEAR, LINEAR_SEED, True,
                 "linear-exact through the process pool: uneven job lengths, the "
                 "slowest job sets the wall time"),
    )
}

# Workloads whose reports must be byte-identical at every worker count.
WORKER_INVARIANT = ("linear-exact", "linear-pool")

"""Workload table: seeded lists of ``integrate_fast`` calls.

Each workload is a fixed integrand with a fixed configuration and a list of
``count`` integrations.  Tolerances are log-uniform on [eps_lo, eps_hi],
stratified: integration i draws its tolerance with
``bayescub.cli.draw_tolerances`` from the i-th of ``count`` equal slices of
the log range.  Each range lies inside the band of tolerances whose calls all
end at one sample size, so every seed gives the same total sample count and
the per-call median does not jump between sample-size levels from one seed
to the next; stratifying spreads the draws evenly over the band.  Tolerance
and cubature seeds both derive from the benchmark seed and the workload name.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from bayescub import CubatureConfig, IntegrandProblem, problems
from bayescub.cli import draw_tolerances

# Warm-up integrations stop here: enough to fill the lookup tables and FFT
# plans of the small sizes without paying for a large-n run at set-up.
WARMUP_N_MAX = 2**12


@dataclass(frozen=True)
class Workload:
    name: str
    make_problem: Callable[[], IntegrandProblem]
    config: dict          # CubatureConfig fields except epsilon and seed
    eps_lo: float
    eps_hi: float
    count: int

    def integrations(self, seed: int) -> list[CubatureConfig]:
        state = np.random.SeedSequence(
            [seed, zlib.crc32(self.name.encode())]).generate_state(2 * self.count)
        edges = np.geomspace(self.eps_lo, self.eps_hi, self.count + 1)
        return [CubatureConfig(
                    epsilon=float(draw_tolerances(edges[i], edges[i + 1], 1,
                                                  int(state[i]))[0]),
                    seed=int(state[self.count + i]), **self.config)
                for i in range(self.count)]

    def warmup(self) -> CubatureConfig:
        n_max = min(self.config.get("n_max", 2**20), WARMUP_N_MAX)
        return CubatureConfig(**{**self.config, "epsilon": self.eps_hi,
                                 "seed": 0, "n_max": n_max})


WORKLOADS = {w.name: w for w in (
    # The large-n, high-d lattice path: the kernel ring and the lattice
    # eigenvalue transform dominate.  Every call ends at n=2^18; a call that
    # ends at 2^20 takes about 14 s on a 2-vCPU host, too long for a run.
    Workload(
        name="lattice_option_d13",
        make_problem=problems.asian_option_problem,
        config=dict(family="lattice", periodizer="baker", kernel="bernoulli",
                    order=1, eta_mode="shared"),
        eps_lo=3.3e-4, eps_hi=6.6e-4, count=4),
    # The Sobol' path, which runs no lattice code: the FWHT eigenvalue
    # transform, the Sobol' column bases and the net points dominate.  Every
    # call ends at n=2^17 (2^16 from eps about 3.2e-4, 2^18 below 1.7e-4).
    Workload(
        name="sobol_keister_d4",
        make_problem=lambda: problems.keister_problem(4),
        config=dict(family="sobol", periodizer="none", kernel="walsh1",
                    order=1, eta_mode="shared"),
        eps_lo=1.9e-4, eps_hi=2.8e-4, count=6),
    # Many short calls, every one ending at n=2^10 (2^11 from eps about 5e-5,
    # 2^9 from about 1e-3), with a 2-D per-dimension eta search: per-call
    # set-up and the search's own overhead dominate.  It shows work moved
    # into per-call set-up, and it is the control for a change to the
    # shared-eta search only.
    Workload(
        name="mvn_sweep_d2",
        make_problem=problems.standard_mvn_instance,
        config=dict(family="lattice", periodizer="sidi_c2", kernel="bernoulli",
                    order=2, eta_mode="per_dimension"),
        eps_lo=1e-4, eps_hi=6e-4, count=150),
)}

"""Time per-dimension-eta calls on the held subset spectra and on the ring path.

    python3 tools/time_eta_paths.py [--families lattice sobol] [--dims 2 3 4]
                                    [--log2-n 10 14 18] [--repeats 3] [--src SRC]

Per-dimension eta at a fixed kernel order searches on the held spectra of
the 2^d - 1 subset products up to d = bayescub.cubature._SUBSET_MAX_D and on
the ring column above it.  For each family, dimension d and n_max = 2^k
this runs Keister in d dimensions (sidi_c1, per-dimension eta, epsilon
1e-12, so every call runs to n_max) once on each path, with _SUBSET_MAX_D
set to d (subset) or d - 1 (ring), each in a fresh interpreter with BLAS on
one thread, bayescub imported from SRC (default: this checkout's src).  A
child makes one tiny call on another design, which loads every module the
loop imports, then one cold call at seed 1, which on the subset path builds and
holds the design's spectra, then --repeats warm calls on the same design at
seeds 2, 3, ... (the shift cancels in every lag).  It prints the cold
seconds, the best warm seconds and their objective evaluations, and the
peak resident memory the calls added: VmHWM after them less VmRSS before.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import json, sys, time
sys.path.insert(0, {src!r})
from bayescub import CubatureConfig, cubature, integrate_fast, problems

def status(key):
    with open('/proc/self/status') as fh:
        return next(int(line.split()[1]) / 1024 for line in fh if line.startswith(key))

cubature._SUBSET_MAX_D = {max_d}
prob = problems.keister_problem({d})
integrate_fast(prob.evaluator, {d}, CubatureConfig(  # imports; another design
    family={family!r}, epsilon=1e-12, n0=4, n_max=8, eta_mode='per_dimension'))
calls = []
before = status('VmRSS:')
for seed in range(1, {repeats} + 2):
    cfg = CubatureConfig(family={family!r}, epsilon=1e-12, n_max=2**{k}, seed=seed,
                         periodizer='sidi_c1', eta_mode='per_dimension')
    t0 = time.perf_counter()
    res = integrate_fast(prob.evaluator, {d}, cfg)
    calls.append((time.perf_counter() - t0, sum(it.evaluations for it in res.iterations)))
warm = min(calls[1:])
print(json.dumps(dict(cold_s=calls[0][0], warm_s=warm[0], warm_evals=warm[1],
                      peak_mb=status('VmHWM:') - before)))
"""


def run_case(src: Path, family: str, d: int, k: int, path: str, repeats: int) -> dict:
    code = CHILD.format(src=str(src), max_d=d if path == "subset" else d - 1,
                        d=d, family=family, k=k, repeats=repeats)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env).stdout
    return json.loads(out)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", type=Path, default=ROOT / "src",
                   help="source tree to import bayescub from")
    p.add_argument("--families", nargs="+", choices=["lattice", "sobol"],
                   default=["lattice", "sobol"])
    p.add_argument("--dims", type=int, nargs="+", default=[2, 3, 4])
    p.add_argument("--log2-n", type=int, nargs="+", default=[10, 14, 18])
    p.add_argument("--repeats", type=int, default=3, help="warm calls per case")
    args = p.parse_args(argv)
    print("family  d  n_max  path    cold_s  warm_s  evals  peak_MB")
    for family in args.families:
        for d in args.dims:
            for k in args.log2_n:
                for path in ("ring", "subset"):
                    r = run_case(args.src.resolve(), family, d, k, path, args.repeats)
                    print(f"{family:7s} {d:2d}  2^{k:<3d} {path:6s} {r['cold_s']:7.3f} "
                          f"{r['warm_s']:7.3f} {r['warm_evals']:6d} {r['peak_mb']:8.1f}",
                          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

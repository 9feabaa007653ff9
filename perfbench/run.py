"""bayescub benchmark: seconds to tolerance on seeded lists of integrations.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout; the package is imported from its ``src``.  One
thread: the BLAS thread count is pinned to 1 before numpy loads.  A run sets
up (import, problem, small warm-up integration) in five fresh interpreters
one after another, and once more in its own, then repeats the workload's
whole list of integrations for about S seconds.  Every integration is
checked against the problem's reference, and every repeat must reproduce
the first bit for bit.

Times are reported at a reference host speed.  Between integrations, at
most every REF_EVERY_S seconds, and after the last, a pass times one unit of
fixed reference work that never touches bayescub; each integration's time
is multiplied by REF_UNIT_S over the mean time of the units just before and
after it.  Each set-up is scaled by the units its interpreter times after
it.  The raw times are printed too.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced passes, reports the per-layer metrics of the traced passes with
the tracing overhead, checks that tracing changed no result, and writes the
spans of the last traced pass under .perfbench_out/.  The last line of
stdout is the JSON result; the lines before it are for people.
"""

from __future__ import annotations

import time

# setup_s counts from here, so the imports below are part of it.
_T0 = time.perf_counter()

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
# Set-up is mostly the import, so it is repeated in fresh interpreters.
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
# p90 is reported only where at least ten samples lie beyond it.
P90_MIN_SAMPLES = 100

# A shared host speeds up and slows down by up to 1.8x over seconds to
# minutes, whatever runs, and CPU time tracks wall time there.  Reference
# units timed during a pass slow down with it, so rescaling by them cancels
# most of that drift; a quiet 2-vCPU host runs one unit in about REF_UNIT_S.
REF_UNIT_S = 0.030
REF_EVERY_S = 0.25
REF_LOOP = 100_000

END_TO_END = {"setup_s": "s", "wall_norm_s": "s", "solve_norm_s_p50": "s",
              "n_used_total": "count", "peak_rss_mb": "MB"}
PER_LAYER = {
    "nodes.points_s": "s", "nodes.points_count": "count",
    "problems.integrand_s": "s",
    "kernels.bases_s": "s", "kernels.bases_calls": "count",
    "kernels.ring_s": "s", "kernels.ring_calls": "count",
    "kernels.ring_bytes": "B",
    "transforms.data_s": "s", "transforms.eig_s": "s",
    "transforms.eig_calls": "count",
    "inference.td_self_s": "s", "inference.objective_s": "s",
    "inference.width_s": "s", "inference.search_self_s": "s",
    "inference.evals": "count", "inference.evals_per_doubling": "evals/doubling",
    "inference.rejected_share": "ratio", "inference.clamped_eigs": "count",
    "cubature.doublings": "count", "cubature.self_s": "s",
    "trace.overhead": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: set up once, print the set-up time and exit
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_package():
    """Import bayescub from this checkout's src; None if it is not there."""
    src = ROOT / "src"
    if not (src / "bayescub" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import bayescub
    if Path(bayescub.__file__).resolve().parent.parent != src.resolve():
        return None
    return bayescub


def set_up(bayescub, workload) -> tuple[float, object]:
    t0 = time.perf_counter()
    problem = workload.make_problem()
    bayescub.integrate_fast(problem.evaluator, problem.d, workload.warmup())
    return time.perf_counter() - t0, problem


def measure_setups(workload) -> list[dict]:
    """Set up in SETUP_REPEATS fresh interpreters, one after another.

    Each returns its set-up seconds, counted from its first statement, and
    the median of the reference units it timed afterwards.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           workload.name, "--seed", "0", "--seconds", "0", "--setup-probe"]
    probes = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, check=True)
        probes.append(json.loads(proc.stdout.splitlines()[-1]))
    return probes


@functools.cache
def reference_data():
    import numpy as np
    rng = np.random.default_rng(0)
    return rng.random(2**17), rng.random(2**21)


def reference_unit() -> float:
    """Seconds for one unit of reference work.

    About a third each: a pure-Python loop; numpy FFT, abs and sort on 2^17
    doubles; and scaling in place and summing 2^21 doubles (16 MB), which
    streams through the shared cache as the large-n workloads do.
    """
    import numpy as np
    small, large = reference_data()
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_LOOP):
        acc += i * i
    for _ in range(2):
        acc += float(np.abs(np.fft.rfft(small)).sum()) + float(np.sort(small)[7])
    for _ in range(4):
        np.multiply(large, 1.0, out=large)
        acc += float(large.sum())
    return time.perf_counter() - t0


@dataclass
class Pass:
    """One run through the workload's list of integrations."""

    traced: bool
    seconds: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)  # (mu_hat, n_used, err, met) or error text
    wall: float = 0.0
    ref: list = field(default_factory=list)     # reference unit times
    scaled: list = field(default_factory=list)  # seconds at reference speed
    wall_scaled: float = 0.0
    layers: dict = field(default_factory=dict)


def run_pass(integrate, problem, configs, tracer=None) -> Pass:
    result = Pass(tracer is not None)
    last_ref = -math.inf
    unit_before = []
    for i, cfg in enumerate(configs):
        if time.perf_counter() - last_ref >= REF_EVERY_S:
            result.ref.append(reference_unit())
            last_ref = time.perf_counter()
        unit_before.append(len(result.ref) - 1)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                res = integrate(problem.evaluator, problem.d, cfg)
            else:
                res = tracer.call(i, integrate, problem.evaluator, problem.d, cfg)
            outcome = (res.mu_hat, res.n_used, res.err, res.tolerance_met)
        except Exception as exc:  # a raising integration counts as failed
            outcome = f"{type(exc).__name__}: {exc}"
        result.seconds.append(time.perf_counter() - t0)
        result.outcomes.append(outcome)
    result.ref.append(reference_unit())
    result.wall = sum(result.seconds)
    # Each call is scaled by the mean of the units just before and after it,
    # since the host's speed can change within a pass.
    result.scaled = [t * 2 * REF_UNIT_S / (result.ref[k] + result.ref[k + 1])
                     for t, k in zip(result.seconds, unit_before)]
    result.wall_scaled = sum(result.scaled)
    return result


def integration_ok(outcome, eps: float, reference: float) -> bool:
    if isinstance(outcome, str):
        return False
    mu, _, _, met = outcome
    return met and math.isfinite(mu) and abs(mu - reference) <= eps


def bits(outcome):
    if isinstance(outcome, str):
        return outcome
    mu, n, err, _ = outcome
    return (float(mu).hex(), n, float(err).hex())


def measure(bayescub, problem, configs, seconds: float, trace: bool,
            out_dir: Path, label: str) -> list[Pass]:
    """Repeat the list until the next round would overrun `seconds`."""
    from tracer import Tracer, originals  # imports bayescub, so only after import_package

    integrate = bayescub.integrate_fast
    before = originals()
    passes: list[Pass] = []
    tracer = None
    start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        passes.append(run_pass(integrate, problem, configs))
        if trace:
            tracer = Tracer()
            with tracer.installed():
                traced = run_pass(integrate, problem, configs, tracer)
            traced.layers = tracer.layer_metrics()
            passes.append(traced)
            if originals() != before:
                raise RuntimeError("tracer left a bayescub name wrapped")
        now = time.perf_counter()
        if now - start + (now - t_round) > seconds:
            break
    if tracer is not None:
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans_{label}.jsonl")
    return passes


def environment(bayescub) -> dict:
    import numpy
    import scipy
    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "bayescub": bayescub.__version__,
        "numba": has_numba, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(), "commit": git_commit(),
    }


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(bayescub, workload, seed: int, seconds: float, trace: bool,
        out_dir: Path = ROOT / ".perfbench_out") -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and the report lines."""
    setups = [] if trace else measure_setups(workload)
    _, problem = set_up(bayescub, workload)
    configs = workload.integrations(seed)
    reference = problem.reference_value
    half_width = problem.reference_half_width or 0.0
    report = []
    correct = reference is not None and all(
        half_width <= cfg.epsilon / 4 for cfg in configs)
    if not correct:
        report.append("reference missing or its half-width exceeds eps/4")
        reference = float("nan")

    passes = measure(bayescub, problem, configs, seconds, trace, out_dir,
                     f"{workload.name}_seed{seed}")
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    first = [bits(o) for o in plain[0].outcomes]
    for p in passes[1:]:
        if [bits(o) for o in p.outcomes] != first:
            correct = False
            report.append("a repeat" + (" under tracing" if p.traced else "")
                          + " gave different results")
    failed = sum(not integration_ok(o, cfg.epsilon, reference)
                 for p in passes for o, cfg in zip(p.outcomes, configs))
    attempted = len(configs) * len(passes)
    correct = correct and failed == 0

    per_integration = [statistics.median(s) for s in
                       zip(*(p.seconds for p in plain))]
    per_integration_norm = [statistics.median(s) for s in
                            zip(*(p.scaled for p in plain))]
    report.append(f"workload {workload.name} seed {seed}: {len(configs)} "
                  f"integrations x {len(plain)} untraced + {len(traced)} traced passes")
    report.append("pass walls (s): " + " ".join(
        f"{p.wall:.4f}{'T' if p.traced else ''}" for p in passes))
    report.append("pass reference units (ms): " + " ".join(
        f"{1e3 * statistics.median(p.ref):.2f}" for p in passes))
    if setups:
        report.append("set-ups (s): " + " ".join(
            f"{p['setup_s']:.4f}" for p in setups) + ", reference units (ms): "
            + " ".join(f"{1e3 * p['ref_s']:.2f}" for p in setups))
    report.append(f"raw wall_s {statistics.median(p.wall for p in plain):.6g} s, "
                  f"raw solve_s_p50 {statistics.median(per_integration):.6g} s")
    report.append(f"fail_share {failed / attempted:.4g} ({failed}/{attempted})")
    if len(per_integration) >= P90_MIN_SAMPLES:
        p90 = statistics.quantiles(per_integration_norm, n=10)[-1]
        report.append(f"solve_norm_s_p90 {p90:.6g} s (n={len(per_integration)})")
    for o, cfg in zip(plain[0].outcomes, configs):
        if not integration_ok(o, cfg.epsilon, reference):
            report.append(f"FAILED eps={cfg.epsilon:.3e} seed={cfg.seed}: {o}")

    if trace:
        wall_plain = statistics.median(p.wall_scaled for p in plain)
        wall_traced = statistics.median(p.wall_scaled for p in traced)
        values = {k: statistics.median(p.layers[k] for p in traced)
                  for k in traced[0].layers}
        values["trace.overhead"] = wall_traced / wall_plain
        units = PER_LAYER
        report.append(f"traced wall_norm {wall_traced:.6g} s vs untraced "
                      f"{wall_plain:.6g} s")
    else:
        values = {
            "setup_s": statistics.median(p["setup_s"] * REF_UNIT_S / p["ref_s"]
                                         for p in setups),
            "wall_norm_s": statistics.median(p.wall_scaled for p in plain),
            "solve_norm_s_p50": statistics.median(per_integration_norm),
            "n_used_total": sum(o[1] for o in plain[0].outcomes
                                if not isinstance(o, str)),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END
        samples = {"setup_s": len(setups), "wall_norm_s": len(plain),
                   "solve_norm_s_p50": len(per_integration)}
        for k in units:
            n = f" (n={samples[k]})" if k in samples else ""
            report.append(f"{k} {values[k]:.6g} {units[k]}{n}")
    result = {"correct": bool(correct), "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}
    return result, report


def main(argv=None) -> int:
    args = parse_args(argv)
    bayescub = import_package()
    if bayescub is None:
        print(f"error: no bayescub package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        set_up(bayescub, workload)
        setup_s = time.perf_counter() - _T0
        ref_s = statistics.median(reference_unit() for _ in range(3))
        print(json.dumps({"setup_s": setup_s, "ref_s": ref_s}))
        return 0
    result, report = run(bayescub, workload, args.seed, args.seconds,
                         bool(args.trace))
    for line in report:
        print(line)
    print(json.dumps({"env": environment(bayescub)}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

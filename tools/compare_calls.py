"""Per-call results of the benchmark workloads, recorded or compared.

    python3 tools/compare_calls.py --src SRC --seeds 1 2 1001 --out FILE
    python3 tools/compare_calls.py --src SRC --seeds 1 2 1001 --against FILE
    python3 tools/compare_calls.py --against FILE --fields mu_hat n_used

Runs every integration that perfbench/workloads.py lists for the given
seeds, plus at each seed one small call per loop path that no workload takes
(PATHS, recorded as workload "path:<name>"; the dense Matern loop, with eb
and with gcv, among them), with bayescub imported from the source tree SRC
(default: this checkout's src), and records per call the problem's reference
value (as a float hex string, or null when it has none), the estimate (as a
float hex string), n_used, err and tolerance_met and, per doubling, err, the
chosen eta, the kernel order, the objective evaluations, the clamped-eigenvalue
count, whether the search re-seeded, ended at an eta bound or ran out of its
budget, and the search's loss at the chosen eta: every field a CubatureResult
holds but its timings.  A tree whose records lack the loss (one older than
the field) has it recorded as the least finite value each search saw, which
is the same number.  --out writes the records as JSON; --against reads
records written earlier (say, from another revision's tree) and reports
every field that is not equal, plus the largest relative err gap over the
doublings both hold and, per workload, each side's mean objective
evaluations per doubling and the largest rise of the loss over the earlier
records at the doublings both hold, so a change to the search is held to
the loss it reached.  The exit status is 1 when a field differs; with
--fields only the named fields count (the others are summed up in one line),
so a change that moves eta and err by design can still be held to
identical mu_hat and n_used.  A change that moves a problem's reference value
differs in the "reference" field of every call on that problem; records
written before the field was recorded lack it, so compare records made by
one version of this tool (record the other tree with --src).

Every call runs in one process, in the order above, as the benchmark runs
them, so a call on a design (lag source, kernel and start level) that an
earlier call used reads the coefficient spectra that call left held
(bayescub.cubature).  --against records made by a tree that builds them at
every call therefore checks each held read against a cold build.

Only reads perfbench/.  BLAS runs on one thread, as in the benchmark.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load_workloads(src: Path):
    """The workload table, with bayescub imported from src."""
    sys.path.insert(0, str(src))
    import bayescub

    home = Path(bayescub.__file__).resolve().parent.parent
    if home != src.resolve():
        raise SystemExit(f"bayescub imported from {home}, not from {src}")
    sys.path.insert(1, str(PERFBENCH))
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    from workloads import WORKLOADS

    return bayescub, WORKLOADS


# One small call per loop path the workloads skip, run at every seed:
# name -> (problem, d, CubatureConfig fields over PATH_FIELDS, beyond the seed)
PATH_FIELDS = {"epsilon": 1e-7, "n_max": 2**14}
_LATTICE = {"periodizer": "sidi_c1"}
_DENSE = {**_LATTICE, "family": "matern_dense", "n_max": 2**9}
PATHS = {
    "sobol_per_dimension": ("keister", 3, {"family": "sobol",
                                           "eta_mode": "per_dimension"}),
    # per-dimension eta on the lattice, run on to 2^16
    "fresnel_per_dimension": ("fresnel", None, {**_LATTICE, "eta_mode": "per_dimension",
                                                "n_max": 2**16}),
    # the GCV gradient and Hessian
    "gcv_per_dimension": ("keister", 3, {**_LATTICE, "criterion": "gcv",
                                         "eta_mode": "per_dimension"}),
    # d = 4: per-dimension eta on the ring path, not the subset spectra
    "ring_per_dimension": ("keister", 4, {**_LATTICE, "eta_mode": "per_dimension",
                                          "n_max": 2**12}),
    # the same on Sobol' nodes, whose gradient transposes the Walsh-Hadamard transform
    "sobol_ring_per_dimension": ("keister", 4, {"family": "sobol",
                                                "eta_mode": "per_dimension",
                                                "n_max": 2**12}),
    "sobol_scrambled": ("keister", 3, {"family": "sobol", "scramble": True}),
    "truncated_series": ("fresnel", None, {**_LATTICE, "kernel": "truncated_series",
                                           "order": 1.7}),
    "exp_decay": ("fresnel", None, {**_LATTICE, "kernel": "exp_decay", "order": 0.4}),
    **{f"{kernel}_order_{mode}": ("fresnel", None, {
        **_LATTICE, "kernel": kernel, "order": order, "search_order": True,
        "eta_mode": mode})
       for kernel, order in (("truncated_series", 2.0), ("exp_decay", 0.5))
       for mode in ("shared", "per_dimension")},
    "gcv": ("keister", 3, {**_LATTICE, "criterion": "gcv"}),
    "full": ("keister", 3, {**_LATTICE, "criterion": "full"}),
    "matern_dense": ("keister", 3, _DENSE),
    "matern_dense_gcv": ("keister", 3, {**_DENSE, "criterion": "gcv"}),
}


def path_calls(bayescub, seed: int):
    """(workload name, problem, config) of every PATHS call at seed."""
    for name, (problem, d, fields) in PATHS.items():
        yield (f"path:{name}", bayescub.build_problem(problem, d=d),
               bayescub.CubatureConfig(seed=seed, **{**PATH_FIELDS, **fields}))


def call_record(workload: str, seed: int, call: int, run, reference=None,
                minima=None) -> dict:
    """One call's record; run() returns a CubatureResult or raises, and
    reference is the problem's reference value or None.  minima, for a tree
    whose records lack the loss, is the list watch_searches fills."""
    rec = {"workload": workload, "seed": seed, "call": call,
           "reference": None if reference is None else float(reference).hex()}
    if minima is not None:
        minima.clear()
    try:
        res = run()
    except Exception as exc:  # a raising call is recorded, not fatal
        rec["error"] = f"{type(exc).__name__}: {exc}"
        return rec
    searched = iter(minima or ())  # one per doubling that searched, in turn

    def loss(it):
        if minima is None:
            return it.loss
        return next(searched, None) if it.evaluations else None

    rec.update(mu_hat=float(res.mu_hat).hex(), n_used=res.n_used, err=res.err,
               tolerance_met=res.tolerance_met,
               iterations=[{"n": it.n, "err": it.err, "eta": list(it.theta),
                            "order": it.order, "evaluations": it.evaluations,
                            "n_clamped": it.n_clamped, "reseeded": it.reseeded,
                            "bound_hit": it.bound_hit, "capped": it.capped,
                            "loss": loss(it)}
                           for it in res.iterations])
    return rec


def watch_searches(cubature) -> list:
    """Wrap the loop's search and return the list that gets, per search that
    returns, the least finite value it saw (its best point's).  A search
    that raises (a rejected warm start, searched again) adds nothing, so
    each doubling that searched adds one entry, and the dense loop none."""
    minima = []
    real = cubature.search_hyperparameters

    def search(objective_fn, *args, **kwargs):
        least = math.inf

        def watched(t):
            nonlocal least
            val, payload = objective_fn(t)
            if math.isfinite(val):
                least = min(least, float(val))
            return val, payload

        res = real(watched, *args, **kwargs)
        minima.append(least)
        return res

    cubature.search_hyperparameters = search
    return minima


def run_calls(src: Path, seeds) -> list[dict]:
    bayescub, workloads = _load_workloads(src)
    cubature = bayescub.cubature  # a tree whose records lack the loss: watch its searches
    minima = (None if "loss" in cubature.IterationRecord.__dataclass_fields__
              else watch_searches(cubature))
    records = []
    for name, workload in workloads.items():
        problem = workload.make_problem()
        for seed in seeds:
            for i, cfg in enumerate(workload.integrations(seed)):
                records.append(call_record(
                    name, seed, i,
                    lambda: bayescub.integrate_fast(problem.evaluator, problem.d, cfg),
                    problem.reference_value, minima))
    for seed in seeds:
        for name, problem, cfg in path_calls(bayescub, seed):
            loop = (bayescub.integrate_dense if cfg.family == "matern_dense"
                    else bayescub.integrate_fast)
            records.append(call_record(
                name, seed, 0, lambda: loop(problem.evaluator, problem.d, cfg),
                problem.reference_value, minima))
    return records


def _rel_gap(a, b) -> float:
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


# per call, then per doubling; "err" names both the result's and each doubling's
CALL_FIELDS = ("error", "reference", "mu_hat", "n_used", "err", "tolerance_met")
DOUBLING_FIELDS = ("n", "err", "eta", "order", "evaluations", "n_clamped", "reseeded",
                   "bound_hit", "capped", "loss")
FIELDS = tuple(dict.fromkeys(CALL_FIELDS + ("doublings",) + DOUBLING_FIELDS))


def diff_records(old: list[dict], new: list[dict],
                 fields=FIELDS) -> tuple[list[str], float]:
    """Lines naming each of the given fields that differs between two record
    lists, and the largest relative err gap over the doublings both hold.
    A call held by one list only is always named."""
    key = lambda r: (r["workload"], r["seed"], r["call"])  # noqa: E731
    before = {key(r): r for r in old}
    after = {key(r): r for r in new}
    lines = [f"{k}: only in the first" for k in before.keys() - after.keys()]
    lines += [f"{k}: only in the second" for k in after.keys() - before.keys()]
    gap = 0.0
    for k in sorted(before.keys() & after.keys()):
        a, b = before[k], after[k]
        for field in CALL_FIELDS:
            if field in fields and a.get(field) != b.get(field):
                lines.append(f"{k} {field}: {a.get(field)} != {b.get(field)}")
        its_a, its_b = a.get("iterations", []), b.get("iterations", [])
        if "doublings" in fields and len(its_a) != len(its_b):
            lines.append(f"{k} doublings: {len(its_a)} != {len(its_b)}")
        for j, (ia, ib) in enumerate(zip(its_a, its_b)):
            gap = max(gap, _rel_gap(ia["err"], ib["err"]))
            # .get: records written before a field was recorded lack it
            for field in DOUBLING_FIELDS:
                if field in fields and ia.get(field) != ib.get(field):
                    lines.append(f"{k} doubling {j} {field}: "
                                 f"{ia.get(field)} != {ib.get(field)}")
    return sorted(lines), gap


def evaluations_per_doubling(records: list[dict]) -> dict[str, float]:
    """Mean objective evaluations per doubling, per workload."""
    spent: dict[str, list[int]] = {}
    for r in records:
        spent.setdefault(r["workload"], []).extend(
            it["evaluations"] for it in r.get("iterations", []))
    return {w: sum(v) / len(v) for w, v in spent.items() if v}


def loss_rises(old: list[dict], new: list[dict]) -> dict[str, float]:
    """Per workload, the largest rise of the loss from the first record list
    to the second over the doublings both hold with a loss, by call and
    doubling: negative where every such loss fell."""
    key = lambda r: (r["workload"], r["seed"], r["call"])  # noqa: E731
    before = {key(r): r for r in old}
    rises: dict[str, float] = {}
    for r in new:
        a = before.get(key(r))
        if a is None:
            continue
        for ia, ib in zip(a.get("iterations", []), r.get("iterations", [])):
            if ia.get("loss") is not None and ib.get("loss") is not None:
                rise = ib["loss"] - ia["loss"]
                rises[r["workload"]] = max(rises.get(r["workload"], -math.inf), rise)
    return rises


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", type=Path, default=ROOT / "src",
                   help="source tree to import bayescub from")
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 1001])
    p.add_argument("--out", type=Path, help="write the records here as JSON")
    p.add_argument("--against", type=Path, help="compare with records in this file")
    p.add_argument("--fields", nargs="+", choices=FIELDS, default=FIELDS,
                   help="fields whose differences set the exit status (default: all)")
    args = p.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    records = run_calls(args.src, args.seeds)
    if args.out:
        args.out.write_text(json.dumps(records, indent=1) + "\n")
    print(f"{len(records)} calls, "
          f"{sum('error' in r for r in records)} raised")
    if args.against is None:
        return 0
    old = json.loads(args.against.read_text())
    lines, gap = diff_records(old, records, args.fields)
    for line in lines:
        print(line)
    print(f"{len(lines)} differing fields; largest relative err gap {gap:.3g}")
    if set(args.fields) != set(FIELDS):
        others = len(diff_records(old, records)[0]) - len(lines)
        print(f"{others} differing fields outside --fields, not counted")
    before, after = evaluations_per_doubling(old), evaluations_per_doubling(records)
    rises = loss_rises(old, records)
    for w in sorted(before.keys() | after.keys()):
        print(f"{w}: evaluations per doubling {before.get(w, math.nan):.2f} -> "
              f"{after.get(w, math.nan):.2f}; largest loss rise "
              f"{rises.get(w, math.nan):.3g}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())

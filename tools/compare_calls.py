"""Per-call results of the benchmark workloads, recorded or compared.

    python3 tools/compare_calls.py --src SRC --seeds 1 2 1001 --out FILE
    python3 tools/compare_calls.py --src SRC --seeds 1 2 1001 --against FILE
    python3 tools/compare_calls.py --against FILE --fields mu_hat n_used

Runs every integration that perfbench/workloads.py lists for the given
seeds, plus at each seed one small call per loop path that no workload takes
(PATHS, recorded as workload "path:<name>"), with bayescub imported from the
source tree SRC (default: this checkout's src), and records per call the
estimate (as a float hex string),
n_used and, per doubling, err, the chosen eta, the objective evaluations and
the clamped-eigenvalue count.  --out writes the records as JSON; --against
reads records written earlier (say, from another revision's tree) and
reports every field that is not equal, plus the largest relative err gap
over the doublings both hold and each side's mean objective evaluations per
doubling, per workload.  The exit status is 1 when a field differs; with
--fields only the named fields count (the others are summed up in one line),
so a change that moves eta and err by design can still be held to
identical mu_hat and n_used.

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
# name -> (problem, d, CubatureConfig fields beyond PATH_FIELDS and the seed)
PATH_FIELDS = {"epsilon": 1e-7, "n_max": 2**14}
_LATTICE = {"periodizer": "sidi_c1"}
PATHS = {
    "sobol_per_dimension": ("keister", 3, {"family": "sobol",
                                           "eta_mode": "per_dimension"}),
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
}


def path_calls(bayescub, seed: int):
    """(workload name, problem, config) of every PATHS call at seed."""
    for name, (problem, d, fields) in PATHS.items():
        yield (f"path:{name}", bayescub.build_problem(problem, d=d),
               bayescub.CubatureConfig(seed=seed, **PATH_FIELDS, **fields))


def call_record(workload: str, seed: int, call: int, run) -> dict:
    """One call's record; run() returns a CubatureResult or raises."""
    rec = {"workload": workload, "seed": seed, "call": call}
    try:
        res = run()
    except Exception as exc:  # a raising call is recorded, not fatal
        rec["error"] = f"{type(exc).__name__}: {exc}"
        return rec
    rec.update(mu_hat=float(res.mu_hat).hex(), n_used=res.n_used,
               iterations=[{"n": it.n, "err": it.err, "eta": list(it.theta),
                            "evaluations": it.evaluations,
                            "n_clamped": it.n_clamped}
                           for it in res.iterations])
    return rec


def run_calls(src: Path, seeds) -> list[dict]:
    bayescub, workloads = _load_workloads(src)
    records = []
    for name, workload in workloads.items():
        problem = workload.make_problem()
        for seed in seeds:
            for i, cfg in enumerate(workload.integrations(seed)):
                records.append(call_record(
                    name, seed, i,
                    lambda: bayescub.integrate_fast(problem.evaluator, problem.d, cfg)))
    for seed in seeds:
        for name, problem, cfg in path_calls(bayescub, seed):
            records.append(call_record(
                name, seed, 0,
                lambda: bayescub.integrate_fast(problem.evaluator, problem.d, cfg)))
    return records


def _rel_gap(a, b) -> float:
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


FIELDS = ("error", "mu_hat", "n_used", "doublings", "n", "err", "eta",
          "evaluations", "n_clamped")


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
        for field in ("error", "mu_hat", "n_used"):
            if field in fields and a.get(field) != b.get(field):
                lines.append(f"{k} {field}: {a.get(field)} != {b.get(field)}")
        its_a, its_b = a.get("iterations", []), b.get("iterations", [])
        if "doublings" in fields and len(its_a) != len(its_b):
            lines.append(f"{k} doublings: {len(its_a)} != {len(its_b)}")
        for j, (ia, ib) in enumerate(zip(its_a, its_b)):
            gap = max(gap, _rel_gap(ia["err"], ib["err"]))
            for field in ("n", "err", "eta", "evaluations", "n_clamped"):
                if field in fields and ia[field] != ib[field]:
                    lines.append(f"{k} doubling {j} {field}: {ia[field]} != {ib[field]}")
    return sorted(lines), gap


def evaluations_per_doubling(records: list[dict]) -> dict[str, float]:
    """Mean objective evaluations per doubling, per workload."""
    spent: dict[str, list[int]] = {}
    for r in records:
        spent.setdefault(r["workload"], []).extend(
            it["evaluations"] for it in r.get("iterations", []))
    return {w: sum(v) / len(v) for w, v in spent.items() if v}


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
    for w in sorted(before.keys() | after.keys()):
        print(f"{w}: evaluations per doubling {before.get(w, math.nan):.2f} -> "
              f"{after.get(w, math.nan):.2f}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())

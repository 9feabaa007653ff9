"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads NAME ...]
        [--seconds N] [--trace 0|1] [--out summary.json]

Runs ``run.py`` once per (workload, seed), one after another, and prints for
every metric the median, the quartiles and the quartile spread as a share of
the median (``statistics.quantiles(values, n=4)``), next to the metric's
bound from BENCHMARK.json.  Use it to compare two commits with identical
benchmark settings, and to check that the benchmark stays steady.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="*",
                   default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    whys = {w["name"]: w["why"] for w in bench["workloads"]}

    summary, env, ok = {}, None, True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if env is None and len(lines) > 1 and lines[-2].startswith('{"env"'):
                env = json.loads(lines[-2])["env"]
            if proc.returncode != 0 or not result.get("correct"):
                ok = False
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stdout}{proc.stderr}", file=sys.stderr)
            if result:
                runs.append(result)
        if not runs:
            continue
        metrics = {}
        print(f"{workload} ({len(runs)} seeds)")
        for name, meta in runs[0]["metrics"].items():
            s = summarise([r["metrics"][name]["value"] for r in runs])
            s["unit"] = meta["unit"]
            s["better"] = declared[name]["better"]
            metrics[name] = s
            bound = declared[name].get("bound")
            print(f"  {name:<30} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f}"
                  + (f" (bound {bound})" if bound is not None else ""))
        summary[workload] = {"why": whys.get(workload), "seeds": args.seeds,
                             "failed": sum(r["failed"] for r in runs),
                             "attempted": sum(r["attempted"] for r in runs),
                             "metrics": metrics}
    if args.out:
        out = {"env": env, "seconds": args.seconds, "trace": args.trace,
               "workloads": summary}
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

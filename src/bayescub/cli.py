"""Command-line harness: single integrations, tolerance sweeps, and a
self-test of the dense-versus-fast identities.

All data fields are deterministic for a given seed; timings are reported but
excluded from the determinism contract.  Sweep rows are ordered by
(eps, seed).  CSV columns, in order:
eps, seed, n, err, abs_error, abs_error_over_eps, seconds, success.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time

import numpy as np

from . import problems
from .cubature import CubatureConfig, integrate_dense, integrate_fast
from .inference import CRITERIA

SWEEP_SCHEMA = "bayescub.sweep.v1"
CSV_COLUMNS = ("eps", "seed", "n", "err", "abs_error", "abs_error_over_eps",
               "seconds", "success")

_PERIODIZER_FLAGS = {**{name: name for name in problems.PERIODIZERS},
                     "sidi1": "sidi_c1", "sidi2": "sidi_c2"}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--problem", required=True,
                   help="mvn | keister | option | fresnel")
    p.add_argument("--d", type=int, default=None, help="problem dimension")
    p.add_argument("--family", choices=["lattice", "sobol", "matern"],
                   default="lattice")
    p.add_argument("--criterion", choices=list(CRITERIA), default="eb")
    p.add_argument("--periodizer", choices=sorted(_PERIODIZER_FLAGS), default=None,
                   help="default: the problem's recommended transform")
    p.add_argument("--eta-mode", choices=["shared", "per-dim"], default="shared")
    p.add_argument("--kernel", default=None,
                   help="bernoulli | truncated_series | exp_decay | walsh1")
    p.add_argument("--order", type=float, default=None, help="kernel order r or q")
    p.add_argument("--n0", type=int, default=2**8)
    p.add_argument("--nmax", type=int, default=2**20)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=["csv", "json"], default="json")


def _make_config(args, eps: float, seed: int, periodizer: str) -> CubatureConfig:
    family = {"matern": "matern_dense"}.get(args.family, args.family)
    nmax = min(args.nmax, 4096) if family == "matern_dense" else args.nmax
    return CubatureConfig(
        family=family, criterion=args.criterion, epsilon=eps, n0=args.n0,
        n_max=nmax, seed=seed, periodizer=periodizer,
        eta_mode=args.eta_mode.replace("-", "_").replace("per_dim", "per_dimension"),
        kernel=args.kernel, order=args.order)


def _resolve_periodizer(args, problem) -> str:
    if args.periodizer is not None:
        return _PERIODIZER_FLAGS[args.periodizer]
    if args.family == "sobol":
        return "none"  # the Walsh kernel does not assume periodicity
    return problem.recommended_periodizer


def _run_once(problem, config: CubatureConfig):
    if config.family == "matern_dense":
        return integrate_dense(problem.evaluator, problem.d, config)
    return integrate_fast(problem.evaluator, problem.d, config)


def cmd_integrate(args) -> int:
    problem = problems.build_problem(args.problem, d=args.d)
    periodizer = _resolve_periodizer(args, problem)
    config = _make_config(args, args.eps, args.seed, periodizer)
    result = _run_once(problem, config)
    record = result.to_record()
    if problem.reference_value is not None:
        record["abs_error"] = abs(result.mu_hat - problem.reference_value)
    text = json.dumps(record, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0 if result.tolerance_met else 1


def _sweep_rows(args, problem, eps_values, seeds):
    periodizer = _resolve_periodizer(args, problem)
    rows = []
    for eps, seed in sorted(zip(eps_values, seeds)):
        config = _make_config(args, float(eps), int(seed), periodizer)
        result = _run_once(problem, config)
        abs_err = (abs(result.mu_hat - problem.reference_value)
                   if problem.reference_value is not None else float("nan"))
        rows.append({
            "eps": float(eps), "seed": int(seed), "n": result.n_used,
            "err": result.err, "abs_error": abs_err,
            "abs_error_over_eps": abs_err / eps,
            "seconds": float(f"{result.seconds:.3g}"),
            "success": bool(abs_err <= eps) if np.isfinite(abs_err)
                       else result.tolerance_met,
        })
    return rows


def draw_tolerances(lo: float, hi: float, count: int, seed: int) -> np.ndarray:
    """Log-uniform tolerance draws in [lo, hi]."""
    rng = np.random.Generator(np.random.Philox(seed))
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size=count))


def _apply_config(parser: argparse.ArgumentParser, args, cfg) -> str | None:
    """Set args from a JSON object of sweep options (keys spelled eps_lo or
    eps-lo), each value run through its flag's type and choices; returns the
    first error, or None."""
    if not isinstance(cfg, dict):
        return "sweep config must be a JSON object"
    flags = {a.dest: a for a in parser._actions if a.dest not in ("help", "config")}
    for key, val in cfg.items():
        action = flags.get(key.replace("-", "_"))
        if action is None:
            return f"config key {key!r} is not a sweep option"
        many = action.nargs == "*"
        vals = val if many and isinstance(val, list) else [val]
        try:
            if many != isinstance(val, list) or any(
                    type(v) not in (str, int, float) for v in vals):
                raise ValueError
            vals = [(action.type or str)(str(v)) for v in vals]
        except ValueError:
            return f"config key {key!r}: invalid value {val!r}"
        if action.choices is not None and not set(vals) <= set(action.choices):
            return f"config key {key!r}: {val!r} is not one of {list(action.choices)}"
        setattr(args, action.dest, vals if many else vals[0])
    return None


def cmd_sweep(args, parser: argparse.ArgumentParser) -> int:
    if args.config:
        with open(args.config) as fh:
            error = _apply_config(parser, args, json.load(fh))
        if error is not None:
            print(f"error: {error}", file=sys.stderr)
            return 2
    if args.eps_lo is None or args.eps_hi is None:
        print("sweep needs --eps-lo and --eps-hi (or a config file)", file=sys.stderr)
        return 2
    if args.eps_lo > args.eps_hi:
        print("--eps-lo must not exceed --eps-hi", file=sys.stderr)
        return 2
    if args.count < 1:
        print("--count must be at least 1", file=sys.stderr)
        return 2
    problem = problems.build_problem(args.problem, d=args.d)
    count = len(args.seeds) if args.seeds else args.count  # explicit seeds win
    eps_values = draw_tolerances(args.eps_lo, args.eps_hi, count, args.seed)
    seeds = args.seeds if args.seeds else [args.seed + 1 + i for i in range(count)]
    rows = _sweep_rows(args, problem, eps_values, seeds)
    summary = {
        "success_rate": float(np.mean([r["success"] for r in rows])),
        "median_seconds": float(np.median([r["seconds"] for r in rows])),
        "median_n": float(np.median([r["n"] for r in rows])),
        "count": len(rows),
    }
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = json.dumps({"schema": SWEEP_SCHEMA, "rows": rows,
                           "summary": summary}, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(json.dumps(summary, indent=2))
    else:
        print(text, end="")
    return 0


def cmd_selftest(args) -> int:
    """Dense-versus-fast identities at small n, plus the net-property check.

    The fast side is built as the doubling loop builds it for one shared
    eta: the Gram spectrum as a polynomial in eta (on the lattice its
    distinct half 0..n/2), checked against the ring column's transform too.
    On Sobol' nodes the coefficient spectra grown from n/2 to n by the loop's
    own inference.coefficient_spectra must equal the from-scratch spectra
    bit for bit.
    """
    from . import kernels, nodes, transforms
    from .inference import (coefficient_spectra, column_spectrum, credible_width,
                            data_weights, dense_posterior, polynomial_spectrum,
                            transformed_data)

    t0 = time.monotonic()
    checks: list[tuple[str, bool, str]] = []

    def check(name, ok, detail=""):
        checks.append((name, bool(ok), detail))

    rng = np.random.default_rng(12345)
    for family, kernel, order in (("lattice", "bernoulli", 1),
                                  ("lattice", "bernoulli", 2),
                                  ("lattice", "truncated_series", 1.7),
                                  ("sobol", "walsh1", 1)):
        for m in (3, 5, 6):
            n, d = 1 << m, 2
            eta = float(rng.uniform(0.3, 3.0))
            spec = kernels.KernelSpec(kernel, order, np.full(d, eta))
            if family == "lattice":
                gen = nodes.make_lattice(d, seed=7)
                pts = gen.points(0, n)
                gram = (kernels.gram_matrix(spec, None, gen=gen, m=m)
                        if kernel == "truncated_series"
                        else kernels.gram_matrix(spec, pts.points))
            else:
                gen = nodes.make_sobol(d, seed=7)
                pts = gen.points(0, n)
                gram = kernels.gram_matrix(spec, pts.int_points)
            y = np.asarray(np.cos(2 * np.pi * pts.points[:, 0]) + pts.points[:, 1])
            bases = kernels.column_bases(spec, gen, m)
            powers = column_spectrum(kernels.elementary_symmetric(bases), family, n)
            if family == "sobol":
                grown = coefficient_spectra(spec, gen, family, m, coefficient_spectra(
                    spec, gen, family, m - 1))
                check(f"grown-vs-scratch spectra {kernel} n={n}",
                      np.array_equal(grown, powers))
                powers = grown
            lams = polynomial_spectrum(powers, eta)
            ring_lams = column_spectrum(kernels.ring_from_bases(spec.eta, bases),
                                        family, n)
            dev = np.abs(lams - ring_lams).max()
            check(f"polynomial-vs-ring spectrum {kernel} r={order} n={n}",
                  dev <= 1e-13 * np.abs(ring_lams).max(), f"max dev {dev:.2e}")
            td = transformed_data(data_weights(transforms.fbt(y, family), n), lams, n)
            # Gram factorization through the fast transform
            lam = np.concatenate([[td.lam1], td.lams_rest])
            if family == "lattice":
                # the dense check needs all n eigenvalues: mirror the half
                lam = np.concatenate([lam, lam[n // 2 - 1: 0: -1]])
                v = transforms.lattice_eigenvector_matrix(n)
            else:
                v = transforms.hadamard_matrix(n)
            recon = (v * lam[None, :]) @ v.conj().T / n
            check(f"factorization {kernel} r={order} n={n}",
                  np.abs(recon - gram).max() <= 1e-10 * n,
                  f"max dev {np.abs(recon - gram).max():.2e}")
            for crit in CRITERIA:
                post = dense_posterior(y, gram, np.ones(n), 1.0, crit)
                fast_err = credible_width(crit, td)
                ok = (abs(post.err - fast_err) <= 1e-8 * max(post.err, 1e-300)
                      and abs(post.mu_hat - y.mean()) <= 1e-10 * max(abs(y.mean()), 1))
                check(f"dense-vs-fast {kernel} r={order} n={n} {crit}", ok,
                      f"dense {post.err:.6e} fast {fast_err:.6e}")

    # Sobol' net property in d <= 3 at m = 4 (elementary intervals)
    gen = nodes.SobolGenerator(nodes.default_direction_numbers(3),
                               np.zeros(3, dtype=np.uint64))
    pts = gen.points(0, 16).points
    ok = _net_check(pts, m=4, t=1)
    check("sobol net property d=3 m=4", ok)

    width = max(len(c[0]) for c in checks)
    failed = 0
    for name, ok, detail in checks:
        line = f"{name:<{width}}  {'PASS' if ok else 'FAIL'}"
        if detail and not ok:
            line += f"  ({detail})"
        print(line)
        failed += not ok
    print(f"{len(checks) - failed}/{len(checks)} checks passed "
          f"in {time.monotonic() - t0:.1f}s")
    return 1 if failed else 0


def _net_check(pts: np.ndarray, m: int, t: int) -> bool:
    """Every elementary interval of volume 2^(t-m) holds exactly 2^t points."""
    d = pts.shape[1]
    n = pts.shape[0]
    from itertools import product as iproduct

    for gammas in iproduct(range(m - t + 1), repeat=d):
        if sum(gammas) != m - t:
            continue
        scaled = np.floor(pts * np.exp2(np.array(gammas))[None, :]).astype(int)
        _, counts = np.unique(scaled, axis=0, return_counts=True)
        if len(counts) != 1 << (m - t) or (counts != 1 << t).any():
            return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bayescub",
        description="Automatic Bayesian cubature to a requested tolerance.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_int = sub.add_parser("integrate", help="run a single integration")
    _add_common(p_int)
    p_int.add_argument("--eps", type=float, required=True)
    p_int.add_argument("--seed", type=int, default=0)

    p_sweep = sub.add_parser("sweep", help="tolerance-sweep benchmark")
    _add_common(p_sweep)
    p_sweep.add_argument("--config", default=None, help="JSON config file")
    p_sweep.add_argument("--eps-lo", type=float, default=None)
    p_sweep.add_argument("--eps-hi", type=float, default=None)
    p_sweep.add_argument("--count", type=int, default=100)
    p_sweep.add_argument("--seed", type=int, default=0,
                         help="master seed for tolerance draws and run seeds")
    p_sweep.add_argument("--seeds", type=int, nargs="*", default=None)

    sub.add_parser("selftest", help="dense-vs-fast identity checks")

    args = parser.parse_args(argv)
    try:
        if args.command == "integrate":
            return cmd_integrate(args)
        if args.command == "sweep":
            return cmd_sweep(args, p_sweep)
        return cmd_selftest(args)
    except (KeyError, ValueError, FileNotFoundError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

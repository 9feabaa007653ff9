"""Command-line harness: single integrations, tolerance sweeps, and a
self-test of the dense-versus-fast identities.

All data fields are deterministic for a given seed; timings are reported but
excluded from the determinism contract.  Sweep rows are ordered by
(eps, seed).  CSV columns, in order:
eps, seed, n, err, abs_error, abs_error_over_eps, seconds, success.
On a problem with no reference value the two error fields are null in JSON
and empty in CSV, and success is the call's tolerance_met.  A sweep call
that raises is a failed row: success false, its numeric fields null in JSON
and empty in CSV, and in JSON an "error" naming the exception's class and
message; the sweep writes every row and then exits 1.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import sys
import time

import numpy as np

from . import problems
from .cubature import CubatureConfig, integrate_dense, integrate_fast
from .inference import CRITERIA
from .transforms import DENSE_MAX_N

SWEEP_SCHEMA = "bayescub.sweep.v2"
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


def _make_config(args, eps: float, seed: int, periodizer: str) -> CubatureConfig:
    family = {"matern": "matern_dense"}.get(args.family, args.family)
    nmax = min(args.nmax, DENSE_MAX_N) if family == "matern_dense" else args.nmax
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


def _open_out(path):
    """--out opened for writing, or a stand-in for None; opened before any
    integration runs, so a path that cannot be written fails at once."""
    return open(path, "w") if path else contextlib.nullcontext()


def cmd_integrate(args) -> int:
    if args.d is not None and args.d < 1:
        print("--d must be at least 1", file=sys.stderr)
        return 2
    problem = problems.build_problem(args.problem, d=args.d)
    periodizer = _resolve_periodizer(args, problem)
    config = _make_config(args, args.eps, args.seed, periodizer)
    with _open_out(args.out) as fh:
        result = _run_once(problem, config)
        record = result.to_record()
        if problem.reference_value is not None:
            record["abs_error"] = abs(result.mu_hat - problem.reference_value)
        text = json.dumps(record, indent=2)
        if fh:
            fh.write(text + "\n")
    print(text)
    return 0 if result.tolerance_met else 1


def _sweep_rows(args, problem, eps_values, seeds):
    periodizer = _resolve_periodizer(args, problem)
    rows = []
    for eps, seed in sorted(zip(eps_values, seeds)):
        eps, seed = float(eps), int(seed)
        config = _make_config(args, eps, seed, periodizer)
        try:
            result = _run_once(problem, config)
        except (ValueError, ArithmeticError) as exc:  # the families main reports
            error = f"{type(exc).__name__}: {exc}"
            print(f"error: eps {eps:.6g} seed {seed}: {error}", file=sys.stderr)
            rows.append({"eps": eps, "seed": seed, **dict.fromkeys(CSV_COLUMNS[2:-1]),
                         "success": False, "error": error})
            continue
        abs_err = (abs(result.mu_hat - problem.reference_value)
                   if problem.reference_value is not None else float("nan"))
        known = bool(np.isfinite(abs_err))  # else null in JSON, empty in CSV
        rows.append({
            "eps": eps, "seed": seed, "n": result.n_used,
            "err": result.err, "abs_error": abs_err if known else None,
            "abs_error_over_eps": abs_err / eps if known else None,
            "seconds": float(f"{result.seconds:.3g}"),
            "success": bool(abs_err <= eps) if known else result.tolerance_met,
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
    if not (np.isfinite(args.eps_lo) and np.isfinite(args.eps_hi)):
        print("--eps-lo and --eps-hi must be finite", file=sys.stderr)
        return 2
    if not args.eps_lo > 0:
        print("--eps-lo must be positive", file=sys.stderr)
        return 2
    if args.eps_lo > args.eps_hi:
        print("--eps-lo must not exceed --eps-hi", file=sys.stderr)
        return 2
    if args.count < 1:
        print("--count must be at least 1", file=sys.stderr)
        return 2
    if args.d is not None and args.d < 1:
        print("--d must be at least 1", file=sys.stderr)
        return 2
    problem = problems.build_problem(args.problem, d=args.d)
    count = len(args.seeds) if args.seeds else args.count  # explicit seeds win
    eps_values = draw_tolerances(args.eps_lo, args.eps_hi, count, args.seed)
    seeds = args.seeds if args.seeds else [args.seed + 1 + i for i in range(count)]
    with _open_out(args.out) as fh:
        rows = _sweep_rows(args, problem, eps_values, seeds)
        completed = [r for r in rows if "error" not in r]
        summary = {
            "success_rate": float(np.mean([r["success"] for r in rows])),
            "median_seconds": (float(np.median([r["seconds"] for r in completed]))
                               if completed else None),
            "median_n": (float(np.median([r["n"] for r in completed]))
                         if completed else None),
            "count": len(rows),
            "failed": len(rows) - len(completed),
        }
        if args.format == "csv":
            buf = io.StringIO()
            writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, extrasaction="ignore")
            writer.writeheader()
            writer.writerows(rows)
            text = buf.getvalue()
        else:
            text = json.dumps({"schema": SWEEP_SCHEMA, "rows": rows,
                               "summary": summary}, indent=2) + "\n"
        if fh:
            fh.write(text)
    if args.out:
        print(json.dumps(summary, indent=2))
    else:
        print(text, end="")
    return 1 if summary["failed"] else 0


def cmd_selftest(args) -> int:
    """Dense-versus-fast identities at small n, plus the net-property check.

    The fast side is built as the doubling loop builds it for one shared
    eta: the Gram spectrum as a polynomial in eta, pi @ powers (on the
    lattice its distinct half 0..n/2), checked against the ring column's
    transform too, and the width from the ring's spectrum on the lattice, as
    the loop takes it there.
    The coefficient spectra that the loop's own
    inference.coefficient_spectra grows from n/2 to n must equal its
    from-scratch spectra: bit for bit on Sobol' nodes, where they grow by the
    FWHT's last stage, and within 4e-15 of each row's largest entry on the
    lattice, where they grow by the DCT-I's decimation split.
    """
    from . import kernels, nodes, transforms
    from .inference import (coefficient_spectra, column_spectrum, credible_width,
                            data_weights, dense_posterior, power_coefficients,
                            transformed_data)

    t0 = time.monotonic()
    checks: list[tuple[str, bool, str]] = []

    def check(name, ok, detail=""):
        checks.append((name, bool(ok), detail))

    rng = np.random.default_rng(12345)
    for family, kernel, order in (("lattice", "bernoulli", 1),
                                  ("lattice", "bernoulli", 2),
                                  ("lattice", "truncated_series", 1.7),
                                  ("lattice", "exp_decay", 0.5),
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
            powers, bases = coefficient_spectra(spec, gen, family, m)
            grown, _ = coefficient_spectra(spec, gen, family, m, coefficient_spectra(
                spec, gen, family, m - 1)[0])
            dev = np.abs(grown - powers)
            tol = (4e-15 if family == "lattice" else 0.0) * np.abs(powers).max(
                axis=1, keepdims=True)
            check(f"grown-vs-scratch spectra {kernel} r={order} n={n}", (dev <= tol).all(),
                  f"max dev {dev.max():.2e}")
            lams = power_coefficients(eta, d)[0] @ powers
            ring_lams = column_spectrum(kernels.ring_from_bases(spec.eta, bases),
                                        family, n)
            dev = np.abs(lams - ring_lams).max()
            check(f"polynomial-vs-ring spectrum {kernel} r={order} n={n}",
                  dev <= 1e-13 * np.abs(ring_lams).max(), f"max dev {dev:.2e}")
            # the width as the loop takes it: from the ring on the lattice
            td = transformed_data(data_weights(transforms.fbt(y, family), n),
                                  ring_lams if family == "lattice" else lams, n)
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
    p_sweep.add_argument("--format", choices=["csv", "json"], default="json")
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
    except (KeyError, ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

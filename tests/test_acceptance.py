"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one pass/fail line (repeated in the terminal summary).
Criteria 4-7 and 10 are statistical success-rate gates over seeded sweeps;
all randomness is fixed so the suite is reproducible run to run.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate as scipy_integrate
from scipy.special import gamma

from bayescub import (CubatureConfig, integrate_fast, kernels, nodes, problems,
                      transforms)
from bayescub.cli import draw_tolerances
from bayescub.inference import (EB, FULL, GCV, column_spectrum, credible_width,
                                data_weights, eigenvalue_adjoint, held_derivatives,
                                multilinear_spectrum, objective, polynomial_spectrum,
                                power_coefficients, ring_gradient, subset_coefficients,
                                transformed_data)
from bayescub.kernels import KernelSpec
from conftest import record_criterion
from oracles import extended_dense_posterior, mirror_half

EPS = np.finfo(float).eps

KERNEL_GRID = (("lattice", "bernoulli", 1), ("lattice", "bernoulli", 2),
               ("lattice", "truncated_series", 1.5),
               ("lattice", "truncated_series", 2.5),
               ("sobol", "walsh1", 1))


def matched_setup(family, kernel, order, eta, m, d, seed):
    n = 1 << m
    gen = (nodes.make_lattice(d, seed=seed) if family == "lattice"
           else nodes.make_sobol(d, seed=seed))
    pts = gen.points(0, n)
    y = np.cos(2 * np.pi * pts.points[:, 0]) + pts.points.sum(axis=1) ** 2
    spec = KernelSpec(kernel, order, eta)
    if kernel == "truncated_series":
        gram = kernels.gram_matrix(spec, None, gen=gen, m=m)
    elif family == "sobol":
        gram = kernels.gram_matrix(spec, pts.int_points)
    else:
        gram = kernels.gram_matrix(spec, pts.points)
    col = kernels.ring_from_bases(spec.eta, kernels.column_bases(spec, gen, m))
    td = transformed_data(data_weights(transforms.fbt(y, family), n),
                          column_spectrum(col, family, n), n)
    return gen, pts, y, gram, col, td


def width_floor(kind, td, col_abs_max):
    """Width a pure round-off ring eigenvalue would produce; both paths are
    numerical zeros below it (exactly degenerate kernels hit this)."""
    dust = 32 * EPS * td.n * (1.0 + col_abs_max)
    return 10 * credible_width(kind, replace(td, lam_ring1=dust))


def test_criterion_1_dense_fast_equivalence():
    rng = np.random.default_rng(1001)
    start = time.monotonic()
    worst = 0.0
    for family, kernel, order in KERNEL_GRID:
        for m in (3, 4, 5, 6):
            for d in (1, 2, 3):
                eta = rng.uniform(0.2, 4.0, size=d)
                _, _, y, gram, col, td = matched_setup(family, kernel, order,
                                                       eta, m, d, seed=11)
                n = 1 << m
                for kind in (EB, FULL, GCV):
                    post = extended_dense_posterior(y, gram, np.ones(n), 1.0, kind)
                    fast = credible_width(kind, td)
                    assert post.mu_hat == pytest.approx(y.mean(), rel=1e-8)
                    if max(post.err, fast) <= width_floor(kind, td,
                                                          np.abs(col).max()):
                        continue
                    rel = abs(post.err - fast) / max(post.err, fast)
                    worst = max(worst, rel)
                    assert rel <= 1e-8, (family, kernel, order, m, d, kind)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    record_criterion(1, "dense/fast equivalence rel 1e-8", ok,
                     f"worst rel {worst:.2e}, {elapsed:.1f}s")
    assert elapsed < 10.0


def test_criterion_2_gram_factorization():
    rng = np.random.default_rng(1002)
    start = time.monotonic()
    worst = 0.0
    for family, kernel, order in (("lattice", "bernoulli", 2),
                                  ("sobol", "walsh1", 1)):
        for m in (3, 4, 5, 6):
            n, d = 1 << m, 3
            eta = rng.uniform(0.3, 2.0, size=d)
            gen, pts, _, gram, col, _ = matched_setup(family, kernel, order,
                                                      eta, m, d, seed=5)
            lam = column_spectrum(1.0 + col, family, n)
            if family == "lattice":
                lam = mirror_half(lam, n)
            v = (transforms.lattice_eigenvector_matrix(n) if family == "lattice"
                 else transforms.hadamard_matrix(n))
            recon = (v * lam[None, :]) @ v.conj().T / n
            dev = np.abs(recon - gram).max() / n
            worst = max(worst, dev)
            assert dev <= 1e-10, (family, m)
    elapsed = time.monotonic() - start
    record_criterion(2, "Gram factorization 1e-10*n", worst <= 1e-10,
                     f"worst {worst:.2e}*n, {elapsed:.1f}s")
    assert elapsed < 5.0


def test_criterion_3_transform_asymptotics():
    rng = np.random.default_rng(1003)
    ratios = {}
    for kind in ("lattice", "sobol"):
        times = {}
        for m in (16, 20):
            y = rng.standard_normal(1 << m)
            transforms.fbt(y, kind)  # warm plans and tables
            reps = 5
            best = np.inf
            for _ in range(reps):
                t0 = time.perf_counter()
                transforms.fbt(y, kind)
                best = min(best, time.perf_counter() - t0)
            times[m] = best
        ratios[kind] = times[20] / times[16]

    # one full doubling-loop iteration at n = 2^20 in d = 13; an O(d)-cheap
    # integrand isolates the engine terms of the cost model
    weights = 0.7 ** np.arange(13)

    def f(x):
        return np.exp(0.3 * (x @ weights))

    def one_iteration(n0):
        cfg = CubatureConfig(family="lattice", criterion=EB, epsilon=1e-30,
                             n0=n0, n_max=n0, seed=1, kernel="bernoulli",
                             order=1)
        return integrate_fast(f, 13, cfg)

    one_iteration(2**14)  # warm caches, fft plans
    t0 = time.perf_counter()
    res = one_iteration(2**20)
    iteration_s = time.perf_counter() - t0
    # record both parts before asserting, so a failing run still reports them
    ok = (all(r <= 40.0 for r in ratios.values()) and res.n_used == 2**20
          and iteration_s < 5.0)
    record_criterion(3, "transform scaling and 2^20 iteration", ok,
                     f"fbt ratios {ratios['lattice']:.0f}x/{ratios['sobol']:.0f}x, "
                     f"iteration {iteration_s:.2f}s")
    for kind, ratio in ratios.items():
        assert ratio <= 40.0, (kind, ratio)
    assert res.n_used == 2**20
    assert iteration_s < 5.0, iteration_s


def run_sweep(problem, eps_values, seeds, family, criterion, periodizer,
              kernel=None, order=None, eta_mode="shared", n_max=2**20):
    rows = []
    for eps, seed in zip(eps_values, seeds):
        cfg = CubatureConfig(family=family, criterion=criterion,
                             epsilon=float(eps), seed=int(seed),
                             periodizer=periodizer, kernel=kernel, order=order,
                             eta_mode=eta_mode, n_max=n_max)
        t0 = time.perf_counter()
        res = integrate_fast(problem.evaluator, problem.d, cfg)
        rows.append({"eps": float(eps),
                     "abs_error": abs(res.mu_hat - problem.reference_value),
                     "n": res.n_used, "met": res.tolerance_met,
                     "seconds": time.perf_counter() - t0})
    return rows


def test_criterion_4_mvn_success_rate():
    problem = problems.standard_mvn_instance()
    eps = draw_tolerances(1e-5, 1e-2, 100, seed=2024)
    seeds = 1000 + np.arange(100)
    rows = run_sweep(problem, eps, seeds, "lattice", EB, "sidi_c2",
                     kernel="bernoulli", order=2)
    successes = sum(r["abs_error"] <= r["eps"] for r in rows)
    median_s = float(np.median([r["seconds"] for r in rows]))
    ok = successes >= 95 and median_s < 1.0
    record_criterion(4, "MVN sweep success >= 95/100", ok,
                     f"{successes}/100 ok, median {median_s:.3f}s")
    assert successes >= 95
    assert median_s < 1.0


def test_criterion_5_keister_success_rate():
    # reference sanity first: recursion vs adaptive radial quadrature
    for d in (2, 3, 4):
        ic, _ = scipy_integrate.quad(
            lambda r: np.cos(r) * np.exp(-r * r) * r ** (d - 1), 0, 60, limit=400)
        radial = 2 * np.pi ** (d / 2) * ic / gamma(d / 2)
        assert problems.keister_reference(d) == pytest.approx(radial, rel=1e-10)

    problem = problems.keister_problem(4)
    eps = draw_tolerances(1e-4, 1e-2, 100, seed=2025)
    seeds = 2000 + np.arange(100)
    rows = run_sweep(problem, eps, seeds, "lattice", EB, "sidi_c1",
                     kernel="bernoulli", order=2)
    successes = sum(r["abs_error"] <= r["eps"] for r in rows)
    ok = successes >= 95
    record_criterion(5, "Keister sweep success >= 95/100", ok,
                     f"{successes}/100 ok")
    assert ok


def test_criterion_6_sobol_path():
    results = {}
    ratios = []
    for name, problem in (("mvn", problems.standard_mvn_instance()),
                          ("keister", problems.keister_problem(4))):
        eps = draw_tolerances(1e-4, 1e-2, 100, seed=2026)
        seeds = 3000 + np.arange(100)
        sob = run_sweep(problem, eps, seeds, "sobol", EB, "none",
                        kernel="walsh1", order=1)
        lat = run_sweep(problem, eps, seeds, "lattice", EB,
                        "sidi_c2" if name == "mvn" else "sidi_c1",
                        kernel="bernoulli", order=2)
        results[name] = sum(r["abs_error"] <= r["eps"] for r in sob)
        ratios.extend(s["n"] / l["n"] for s, l in zip(sob, lat))
        assert results[name] >= 95, (name, results[name])
    median_ratio = float(np.median(ratios))
    ok = median_ratio >= 1.0 and all(v >= 95 for v in results.values())
    record_criterion(6, "Sobol' path success and sample-count ordering", ok,
                     f"mvn {results['mvn']}/100, keister {results['keister']}/100, "
                     f"median n-ratio {median_ratio:.2f}")
    assert median_ratio >= 1.0


def test_criterion_7_option_pricing_best_effort():
    problem = problems.asian_option_problem()
    assert problem.reference_half_width <= 1e-3  # 10x under the 1e-2 gate
    eps = np.full(20, 1e-2)
    seeds = 4000 + np.arange(20)
    rows = run_sweep(problem, eps, seeds, "lattice", EB, "baker",
                     kernel="bernoulli", order=1, n_max=2**20)
    successes = sum(r["abs_error"] <= r["eps"] for r in rows)
    ok = successes >= 18  # 90% of 20

    # at 1e-4 failures are permitted but must be reported honestly
    cfg = CubatureConfig(family="lattice", criterion=EB, epsilon=1e-4, seed=4242,
                         periodizer="baker", kernel="bernoulli", order=1,
                         n_max=2**20)
    deep = integrate_fast(problem.evaluator, problem.d, cfg)
    honest = deep.tolerance_met == (deep.err <= 1e-4)
    if not deep.tolerance_met:
        honest = honest and deep.n_used == 2**20
    record_criterion(7, "option pricing best-effort", ok and honest,
                     f"{successes}/20 at 1e-2; eps=1e-4 met={deep.tolerance_met} "
                     f"n={deep.n_used}")
    assert ok and honest


def test_criterion_8_cancellation_demonstration():
    from test_inference import zeta_reference_width

    m, n = 14, 1 << 14
    ring_over_lam1 = 5e-17
    eta = 6.0 * n * (ring_over_lam1 * n)
    gen = nodes.LatticeGenerator((1,), np.zeros(1), max_log2_n=m)
    y = np.random.default_rng(77).standard_normal(n)
    spec = KernelSpec("bernoulli", 1, np.array([eta]))
    col = kernels.ring_from_bases(spec.eta, kernels.column_bases(spec, gen, m))
    brev = nodes._brev_table(m)
    td = transformed_data(data_weights(np.fft.fft(y[brev])[: n // 2 + 1], n),
                          column_spectrum(col, "lattice", n), n)

    err_ref, _ = zeta_reference_width(eta, m, y)
    fast = credible_width(EB, td)
    lam_naive = column_spectrum(1.0 + col, "lattice", n)
    s1 = td.data_sum()
    naive = 2.58 / n * np.sqrt(max(1.0 - n / lam_naive[0], 0.0) * s1)
    fast_rel = abs(fast - err_ref) / err_ref
    naive_rel = abs(naive - err_ref) / err_ref
    ok = fast > 0 and fast_rel <= 1e-6 and naive_rel > 1e-2
    record_criterion(8, "cancellation-safe width", ok,
                     f"ring form rel {fast_rel:.1e}, naive rel {naive_rel:.1e}")
    assert ok


def test_criterion_9_gradient_suite():
    worst = {EB: 0.0, GCV: 0.0}
    for kind in (EB, GCV):
        rng = np.random.default_rng(42 if kind == EB else 43)
        for i in range(100):
            family = "lattice" if i % 3 else "sobol"
            kernel = "walsh1" if family == "sobol" else "bernoulli"
            order = 1 if kernel == "walsh1" else (1, 2)[i % 2]
            d = int(rng.integers(1, 5))  # d = 4 runs the ring path alone
            shared = bool(i % 2)
            eta = (np.full(d, rng.uniform(0.3, 2.5)) if shared
                   else rng.uniform(0.3, 2.5, size=d))
            m = 5
            gen = (nodes.make_lattice(d, seed=i) if family == "lattice"
                   else nodes.make_sobol(d, seed=i))
            pts = gen.points(0, 1 << m)
            yv = np.cos(2 * np.pi * pts.points[:, 0]) + pts.points.sum(axis=1) ** 2
            spectrum = transforms.fbt(yv, family)
            spec = KernelSpec(kernel, order, eta)
            bases = kernels.column_bases(spec, gen, m)
            col = kernels.ring_from_bases(spec.eta, bases)
            weights = data_weights(spectrum, 1 << m)
            td = transformed_data(weights, column_spectrum(col, family, 1 << m), 1 << m)
            # the package's gradients in log eta: the ring path's, at d <= 3
            # the subset path's at its own spectrum, and for a shared eta the
            # power path's at its own, as d/d eta of each eta entry
            grads = [ring_gradient(bases, col, spec.eta, eigenvalue_adjoint(td, kind),
                                   family, 1 << m)]
            if d <= 3:
                spectra = column_spectrum(kernels.subset_products(bases), family, 1 << m)
                sub = transformed_data(weights, multilinear_spectrum(spectra, spec.eta),
                                       1 << m)
                grads.append(held_derivatives(spectra, *subset_coefficients(spec.eta),
                                              sub, kind)[0])
            if shared:  # split evenly over the entries, which the check below sums
                powers = column_spectrum(kernels.elementary_symmetric(bases), family,
                                         1 << m)
                poly = transformed_data(weights, polynomial_spectrum(powers, eta[0]), 1 << m)
                grads.append(np.full(d, held_derivatives(
                    powers, *power_coefficients(eta[0], d), poly, kind)[0][0] / d))

            def loss(ev):
                c = kernels.ring_from_bases(ev, bases)
                return objective(kind, transformed_data(
                    weights, column_spectrum(c, family, 1 << m), 1 << m))

            if shared:
                h = 1e-4
                num = np.array([(loss(eta * (1 + h)) - loss(eta * (1 - h)))
                                / (2 * h * eta[0])])
            else:
                num = np.empty(d)
                for ell in range(d):
                    h = 1e-4 * eta[ell]
                    up, dn = eta.copy(), eta.copy()
                    up[ell] += h
                    dn[ell] -= h
                    num[ell] = (loss(up) - loss(dn)) / (2 * h)
            for grad in grads:
                grad = grad / spec.eta
                if shared:  # d/d eta of one shared eta: the partials' sum
                    grad = grad.sum(keepdims=True)
                tol = 1e-5 * np.maximum(np.abs(grad), np.abs(num)) + 1e-7
                assert (np.abs(grad - num) <= tol).all(), (kind, i)
                denom = np.maximum(np.abs(num), 1e-2)
                worst[kind] = max(worst[kind], float((np.abs(grad - num) / denom).max()))
    record_criterion(9, "analytic gradients vs central differences", True,
                     f"worst rel eb {worst[EB]:.1e}, gcv {worst[GCV]:.1e}")


def test_criterion_10_per_dimension_eta():
    problem = problems.standard_fresnel_instance()
    eps = np.full(20, 1e-2)
    seeds = 5000 + np.arange(20)
    outcomes = {}
    for mode in ("shared", "per_dimension"):
        rows = run_sweep(problem, eps, seeds, "lattice", EB, "sidi_c1",
                         kernel="bernoulli", order=2, eta_mode=mode)
        outcomes[mode] = rows
        assert all(r["abs_error"] <= r["eps"] for r in rows), mode
    med_shared = float(np.median([r["n"] for r in outcomes["shared"]]))
    med_perdim = float(np.median([r["n"] for r in outcomes["per_dimension"]]))
    ok = med_perdim <= med_shared
    record_criterion(10, "per-dimension eta uses no more samples", ok,
                     f"median n shared {med_shared:.0f}, per-dim {med_perdim:.0f}")
    assert ok

"""Benchmark integrands: reference values against independent quadrature
oracles, periodization correctness, and the problem registry."""

import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy import integrate
from scipy.special import gamma

from bayescub.problems import (asian_option_problem, build_problem,
                               fresnel_problem, fresnel_sine_half,
                               genz_mvn_problem, keister_problem,
                               keister_reference, mvn_box_probability,
                               standard_fresnel_instance, standard_mvn_instance,
                               periodize, periodizer_maps)
from oracles import grid_mvn_box_probability


class TestPeriodize:
    def test_baker_value(self):
        psi, dpsi = periodizer_maps("baker")
        assert psi(0.25) == 0.5
        assert dpsi is None

    def test_sidi_c1_endpoints(self):
        psi, dpsi = periodizer_maps("sidi_c1")
        assert psi(0.0) == 0.0 and psi(1.0) == pytest.approx(1.0)
        assert dpsi(0.0) == 0.0 and dpsi(1.0) == pytest.approx(0.0)

    def test_sidi_c2_endpoints(self):
        psi, dpsi = periodizer_maps("sidi_c2")
        assert psi(0.0) == pytest.approx(0.0, abs=1e-15)
        assert psi(1.0) == pytest.approx(1.0)
        assert dpsi(0.0) == pytest.approx(0.0, abs=1e-15)

    def test_all_kinds_map_unit_interval(self):
        x = np.linspace(0, 1, 1001)
        for kind in ("baker", "c0", "c1", "sidi_c1", "sidi_c2"):
            psi, _ = periodizer_maps(kind)
            vals = psi(x)
            assert vals.min() >= -1e-12 and vals.max() <= 1 + 1e-12

    @pytest.mark.parametrize("kind", ["baker", "c0", "c1", "sidi_c1", "sidi_c2"])
    def test_integral_preserved(self, kind):
        # 1e5-point QMC check that periodization keeps the integral of x0^2
        from bayescub.nodes import make_sobol

        f = lambda x: x[:, 0] ** 2
        wrapped = periodize(f, kind)
        pts = make_sobol(2, seed=5).points(0, 2**17).points
        assert wrapped(pts).mean() == pytest.approx(1.0 / 3.0, abs=1e-4)

    def test_none_is_identity(self):
        f = lambda x: x[:, 0]
        assert periodize(f, "none") is f

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            periodize(lambda x: x, "hexagonal")


class TestGenzMVN:
    def test_one_dimensional_is_constant(self):
        prob = genz_mvn_problem(a=[-1.0], b=[2.0], L=[[1.0]])
        from scipy.special import ndtr

        expected = ndtr(2.0) - ndtr(-1.0)
        assert prob.reference_value == pytest.approx(expected, rel=1e-12)
        vals = prob.evaluator(np.random.default_rng(0).random((16, 1)))
        assert np.abs(vals - expected).max() < 1e-14

    def test_standard_instance_reference_stability(self):
        prob = standard_mvn_instance()
        low = np.asarray(prob.params["L"])
        sigma = low @ low.T
        a, b = np.asarray(prob.params["a"]), np.asarray(prob.params["b"])
        coarse = mvn_box_probability(a, b, sigma, n_nodes=64)
        fine = mvn_box_probability(a, b, sigma, n_nodes=128)
        assert abs(coarse - fine) < 1e-13
        assert prob.reference_value == pytest.approx(fine, abs=1e-12)
        assert prob.d == 2

    def test_diagonal_L_product_formula(self):
        from scipy.special import ndtr

        diag = [2.0, 0.5, 1.5]
        a, b = [-1.0, -2.0, 0.0], [1.0, 0.5, 2.0]
        prob = genz_mvn_problem(a, b, np.diag(diag))
        expected = np.prod([ndtr(bb / ll) - ndtr(aa / ll)
                            for aa, bb, ll in zip(a, b, diag)])
        assert prob.reference_value == pytest.approx(expected, rel=1e-10)
        # with a diagonal factor the integrand is exactly constant
        vals = prob.evaluator(np.random.default_rng(1).random((100, 2)))
        assert np.abs(vals - expected).max() < 1e-12

    def test_integrand_integrates_to_reference(self):
        from bayescub.nodes import make_sobol

        prob = standard_mvn_instance()
        pts = make_sobol(2, seed=11).points(0, 2**16).points
        assert prob.evaluator(pts).mean() == pytest.approx(prob.reference_value,
                                                           abs=2e-5)

    def test_alpha_below_beta_on_probes(self):
        # rebuild the conditioning recursion independently, checking each level
        from scipy.special import ndtr

        from bayescub.problems import norm_ppf

        prob = standard_mvn_instance()
        low = np.asarray(prob.params["L"])
        a, b = np.asarray(prob.params["a"]), np.asarray(prob.params["b"])
        x = np.random.default_rng(3).random((10_000, 2))
        alpha = np.full(len(x), ndtr(a[0] / low[0, 0]))
        beta = np.full(len(x), ndtr(b[0] / low[0, 0]))
        ys = []
        for ell in range(1, 3):
            assert (alpha <= beta).all(), ell
            ys.append(norm_ppf(alpha + x[:, ell - 1] * (beta - alpha)))
            shifted = np.stack(ys, axis=1) @ low[ell, :ell]
            alpha = ndtr((a[ell] - shifted) / low[ell, ell])
            beta = ndtr((b[ell] - shifted) / low[ell, ell])
        assert (alpha <= beta).all()
        assert (prob.evaluator(x) >= 0).all()

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            genz_mvn_problem([0.0], [-1.0], [[1.0]])
        with pytest.raises(ValueError):
            genz_mvn_problem([-1, -1], [1, 1], [[1.0, 0.5], [0.5, 1.0]])

    def test_upper_triangular_input_refused(self):
        # L is the lower factor; its transpose is not taken for it
        upper = [[4.0, 1.0, 1.0], [0.0, 1.0, 0.5], [0.0, 0.0, 0.25]]
        with pytest.raises(ValueError, match="lower triangular"):
            genz_mvn_problem([-6, -2, -2], [5, 2, 1], upper)
        lower = genz_mvn_problem([-6, -2, -2], [5, 2, 1], np.asarray(upper).T)
        assert lower.reference_value == standard_mvn_instance().reference_value


class TestBoxRule:
    """The box rule on sparse axes against the grid rule of tests/oracles.py."""

    @pytest.mark.parametrize("n_nodes", [16, 48])
    @pytest.mark.parametrize("dp", [1, 2, 3])
    def test_random_boxes_match_the_grid_rule(self, dp, n_nodes):
        rng = np.random.default_rng(100 * dp + n_nodes)
        for _ in range(10):
            factor = rng.standard_normal((dp, dp))
            sigma = factor @ factor.T + 0.5 * np.eye(dp)
            a, b = -rng.uniform(0.5, 3.0, dp), rng.uniform(0.5, 3.0, dp)
            grid = grid_mvn_box_probability(a, b, sigma, n_nodes)
            assert mvn_box_probability(a, b, sigma, n_nodes) == pytest.approx(
                grid, rel=1e-14, abs=0)

    def test_standard_instance_is_the_grid_rule(self):
        prob = standard_mvn_instance()
        low = np.asarray(prob.params["L"])
        grid = grid_mvn_box_probability(prob.params["a"], prob.params["b"], low @ low.T)
        assert prob.reference_value == grid
        assert prob.reference_value.hex() == "0x1.5a48e2c25ce54p-1"

    def test_strong_correlation_raises_no_warning(self):
        # factoring the density into per-pair exponentials overflows here:
        # the precision's off-diagonal is about -500 on a box of +-3 sigma
        sigma = np.array([[1.0, 0.999], [0.999, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rule = mvn_box_probability([-3.0, -3.0], [3.0, 3.0], sigma)
        grid = grid_mvn_box_probability([-3.0, -3.0], [3.0, 3.0], sigma)
        assert rule == pytest.approx(grid, rel=1e-14, abs=0)

    def test_standard_instance_builds_in_little_memory(self):
        # the grid rule's point array, stacked weights and einsum raised the
        # peak by about 90 MB. Measured in a fresh interpreter by VmHWM, the
        # peak of its own address space: ru_maxrss there starts at the peak
        # of the process that spawned it, so under pytest it hides the build
        code = ("from bayescub import problems\n"
                "def peak_kb():\n"
                "    with open('/proc/self/status') as fh:\n"
                "        return next(int(line.split()[1]) for line in fh\n"
                "                    if line.startswith('VmHWM:'))\n"
                "before = peak_kb()\n"
                "problems.standard_mvn_instance()\n"
                "print((peak_kb() - before) / 1024)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True)
        assert float(proc.stdout) < 32


class TestKeister:
    def test_is1_seed_value(self):
        # the seeded sine moment integral, checked against quadrature
        is1, _ = integrate.quad(lambda r: np.sin(r) * np.exp(-r * r), 0, 40)
        assert is1 == pytest.approx(0.4244363835020225, abs=1e-13)

    def test_d1_closed_form(self):
        assert keister_reference(1) == pytest.approx(np.sqrt(np.pi) * np.exp(-0.25),
                                                     rel=1e-14)
        assert keister_reference(1) == pytest.approx(1.3803884, abs=1e-7)

    @pytest.mark.parametrize("d", [2, 3, 4, 7, 12, 20])
    def test_recursion_matches_radial_quadrature(self, d):
        ic, _ = integrate.quad(lambda r: np.cos(r) * np.exp(-r * r) * r ** (d - 1),
                               0, 60, limit=400)
        radial = 2 * np.pi ** (d / 2) * ic / gamma(d / 2)
        assert keister_reference(d) == pytest.approx(radial, rel=1e-10)

    def test_evaluator_mean_matches_reference(self):
        from bayescub.nodes import make_sobol

        prob = keister_problem(3)
        pts = make_sobol(3, seed=7).points(0, 2**16).points
        assert prob.evaluator(pts).mean() == pytest.approx(prob.reference_value,
                                                           abs=2e-3)

    def test_dimension_bounds(self):
        with pytest.raises(ValueError):
            keister_problem(0)
        with pytest.raises(ValueError):
            keister_problem(21)


class TestAsianOption:
    def test_zero_strike_closed_form(self):
        prob = asian_option_problem(strike=0.0)
        tj = prob.params["T"] / prob.params["d"] * np.arange(1, prob.params["d"] + 1)
        expected = np.exp(-0.05 * 0.25) * 100.0 / 13 * np.exp(0.05 * tj).sum()
        assert prob.reference_value == pytest.approx(expected, rel=1e-12)
        from bayescub.nodes import make_sobol

        pts = make_sobol(13, seed=3).points(0, 2**15).points
        assert prob.evaluator(pts).mean() == pytest.approx(expected, rel=2e-3)

    def test_vanishing_volatility_is_deterministic(self):
        prob = asian_option_problem(sigma=1e-12)
        x = np.random.default_rng(5).random((64, 13))
        vals = prob.evaluator(x)
        tj = 0.25 / 13 * np.arange(1, 14)
        s_bar = (100.0 * np.exp((0.05 - 0.5e-24) * tj)).mean()
        det = max(s_bar - 100.0, 0.0) * np.exp(-0.05 * 0.25)
        assert np.abs(vals - det).max() < 1e-9

    def test_standard_instance_and_fixture(self):
        prob = asian_option_problem()
        assert prob.params == {"T": 0.25, "d": 13, "S0": 100.0, "r": 0.05,
                               "sigma": 0.5, "K": 100.0}
        assert prob.reference_value is not None
        # the stored reference must gate eps = 1e-2 with 10x headroom
        assert prob.reference_half_width <= 1e-3
        assert "Sobol" in prob.reference_provenance

    def test_fixture_matches_fresh_qmc(self):
        from bayescub.nodes import make_sobol

        prob = asian_option_problem()
        pts = make_sobol(13, seed=12345, scramble=True).points(0, 2**17).points
        est = prob.evaluator(pts).mean()
        assert est == pytest.approx(prob.reference_value, abs=3e-3)

    def test_cholesky_and_pca_agree_in_mean(self):
        # the same payoff over the Cholesky path factor, built here
        from bayescub.nodes import make_sobol
        from bayescub.problems import norm_ppf

        pts = make_sobol(13, seed=9).points(0, 2**15).points
        prob = asian_option_problem()
        T, d, s0, r, sigma, strike = (prob.params[k] for k in ("T", "d", "S0", "r",
                                                                "sigma", "K"))
        idx = np.arange(1, d + 1)
        chol = np.linalg.cholesky(T / d * np.minimum.outer(idx, idx))
        paths = s0 * np.exp((r - 0.5 * sigma**2) * T / d * idx
                            + sigma * norm_ppf(pts) @ chol.T)
        mc = (np.maximum(paths.mean(axis=1) - strike, 0.0) * np.exp(-r * T)).mean()
        mp_ = prob.evaluator(pts).mean()
        assert mc == pytest.approx(mp_, abs=2e-2)

    def test_in_place_payoff_is_the_plain_formula(self):
        # the evaluator works in place on its own buffers: x stays as it is
        # and the payoff is the out-of-place expression bit for bit
        from bayescub.problems import norm_ppf

        prob = asian_option_problem()
        T, d, s0, r, sigma, strike = (prob.params[k] for k in ("T", "d", "S0", "r",
                                                                "sigma", "K"))
        x = np.random.default_rng(4).random((512, d))
        x[0, 0], x[1, 1] = 0.0, 1.0  # clamped away from {0, 1}
        before = x.copy()
        idx = np.arange(1, d + 1)
        cov = T / d * np.minimum.outer(idx, idx)
        evals, evecs = np.linalg.eigh(cov)
        order = np.argsort(evals)[::-1]
        factor = evecs[:, order] * np.sqrt(np.maximum(evals[order], 0.0))
        drift = (r - 0.5 * sigma * sigma) * (T / d * idx)
        s_mean = (s0 * np.exp(drift + sigma * (norm_ppf(x) @ factor.T))).mean(axis=1)
        expected = np.maximum(s_mean - strike, 0.0) * np.exp(-r * T)
        assert np.array_equal(prob.evaluator(x), expected)
        assert np.array_equal(x, before)

    def test_bad_params(self):
        with pytest.raises(ValueError):
            asian_option_problem(sigma=-1.0)


class TestFresnel:
    def test_zero_weights(self):
        prob = fresnel_problem(2, upsilon=(0.0, 0.0))
        with pytest.raises(ValueError):
            fresnel_problem(2, upsilon=(1.0,))
        assert prob.reference_value == 0.0

    def test_half_integral_against_quadrature(self):
        direct, _ = integrate.quad(lambda x: np.sin(2 * np.pi * x * x), 0, 1,
                                   limit=200)
        assert fresnel_sine_half() == pytest.approx(direct, abs=1e-12)

    def test_d1_reference(self):
        prob = fresnel_problem(1, upsilon=(1.0,))
        direct, _ = integrate.quad(lambda x: np.sin(2 * np.pi * x * x), 0, 1)
        assert prob.reference_value == pytest.approx(direct, abs=1e-12)

    def test_standard_instance(self):
        prob = standard_fresnel_instance()
        assert prob.d == 3
        assert prob.params["upsilon"] == [1e-4, 1.0, 1e4]
        assert prob.reference_value == pytest.approx(
            (1e-4 + 1.0 + 1e4) * fresnel_sine_half(), rel=1e-14)


class TestRegistry:
    def test_known_names(self):
        assert build_problem("mvn").name == "mvn"
        assert build_problem("keister", d=5).d == 5
        assert build_problem("option").name == "asian_option"
        assert build_problem("asian-option").name == "asian_option"
        assert build_problem("fresnel").params["upsilon"] == [1e-4, 1.0, 1e4]

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            build_problem("gaussian_bump")

    def test_mvn_is_fixed_at_dimension_two(self):
        assert build_problem("mvn", d=2).d == build_problem("mvn").d == 2
        for d in (1, 3, 5):
            with pytest.raises(ValueError, match="dimension 2"):
                build_problem("mvn", d=d)

    def test_every_problem_is_finite_on_probes(self):
        rng = np.random.default_rng(17)
        for name in ("mvn", "keister", "option", "fresnel"):
            prob = build_problem(name)
            vals = prob.evaluator(rng.random((10_000, prob.d)))
            assert np.isfinite(vals).all(), name

"""The doubling loop: stopping semantics, no-resampling accounting, result
round-trips, the dense Matern path, and the Monte Carlo baseline."""

import numpy as np
import pytest

from dataclasses import replace

from bayescub import (CubatureConfig, cubature, integrate_dense, integrate_fast,
                      integrate_mc, kernels, nodes, problems)
from bayescub.cubature import IntegrandError
from bayescub.inference import (NonFiniteStartError, credible_width,
                                student_t_quantile)


def counting(f):
    calls = {"n": 0}

    def wrapped(x):
        calls["n"] += len(np.atleast_2d(x))
        return f(x)

    return wrapped, calls


class TestFastLoop:
    def test_constant_integrand_stops_immediately(self):
        f, calls = counting(lambda x: np.full(len(x), 3.25))
        cfg = CubatureConfig(epsilon=1e-9, n0=64, seed=1)
        res = integrate_fast(f, 2, cfg)
        assert res.mu_hat == 3.25
        assert res.err == 0.0 and res.tolerance_met
        assert res.n_used == 64 == calls["n"]

    def test_resolved_frequency_is_exact(self):
        # once the lattice resolves the single cosine mode the sample mean is
        # exact; the width collapses as far as the eta cap allows (the EB loss
        # is scale-flat for data lying exactly in the kernel's span)
        f = lambda x: 1.0 - np.cos(2 * np.pi * x[:, 0])
        cfg = CubatureConfig(epsilon=1e-4, n0=512, n_max=2**14, seed=3,
                             kernel="bernoulli", order=1)
        res = integrate_fast(f, 1, cfg)
        assert res.tolerance_met and res.n_used == 512
        assert res.mu_hat == pytest.approx(1.0, abs=1e-13)

    def test_no_resampling(self):
        prob_f = lambda x: np.exp(x.sum(axis=1))
        f, calls = counting(prob_f)
        cfg = CubatureConfig(epsilon=1e-4, n0=128, n_max=2**13, seed=5)
        res = integrate_fast(f, 3, cfg)
        assert calls["n"] == res.n_used

    def test_doubling_schedule(self):
        f = lambda x: np.exp(x.sum(axis=1))
        cfg = CubatureConfig(epsilon=1e-7, n0=128, n_max=2**12, seed=5)
        res = integrate_fast(f, 3, cfg)
        assert [it.n for it in res.iterations] == \
            [128 * 2**k for k in range(len(res.iterations))]

    def test_err_round_trip(self):
        f = lambda x: np.exp(x.sum(axis=1))
        cfg = CubatureConfig(epsilon=1e-5, n0=256, n_max=2**12, seed=8)
        res = integrate_fast(f, 2, cfg)
        assert res.final_state is not None
        assert credible_width(cfg.criterion, res.final_state) == res.err

    def test_nmax_exhaustion_reports_failure(self):
        f = lambda x: np.exp(3 * x.sum(axis=1))
        cfg = CubatureConfig(epsilon=1e-12, n0=64, n_max=256, seed=2)
        res = integrate_fast(f, 2, cfg)
        assert not res.tolerance_met
        assert res.n_used == 256
        assert res.err > 1e-12 and np.isfinite(res.mu_hat)

    def test_capacity_checked_before_any_work(self):
        # the lattice holds 2^20 points; a run allowed to 2^21 is refused
        # before the first block is generated or evaluated
        f, calls = counting(lambda x: x.sum(axis=1))
        cfg = CubatureConfig(epsilon=1e-12, n0=2**19, n_max=2**21, seed=1)
        with pytest.raises(nodes.CapacityError, match="capacity"):
            integrate_fast(f, 2, cfg)
        assert calls["n"] == 0

    def test_tolerance_met_iff_err_below_eps(self):
        f = lambda x: np.sin(2 * np.pi * x[:, 0]) ** 2
        for eps in (1e-2, 1e-6):
            res = integrate_fast(f, 1, CubatureConfig(epsilon=eps, n0=64,
                                                      n_max=2**12, seed=4))
            assert res.tolerance_met == (res.err <= eps)

    def test_nonfinite_integrand_reports_node_index(self):
        def f(x):
            out = np.ones(len(x))
            out[3] = np.nan
            return out

        with pytest.raises(IntegrandError, match="node index 3"):
            integrate_fast(f, 1, CubatureConfig(epsilon=1e-2, n0=64, seed=0))

    def test_huge_epsilon_stops_at_n0(self):
        f = lambda x: np.exp(x.sum(axis=1))
        res = integrate_fast(f, 2, CubatureConfig(epsilon=1e99, n0=64, seed=0))
        assert res.n_used == 64 and res.tolerance_met

    def test_seed_determinism(self):
        f = lambda x: np.exp(x.sum(axis=1))
        cfg = CubatureConfig(epsilon=1e-5, n0=128, n_max=2**12, seed=11)
        a = integrate_fast(f, 2, cfg)
        b = integrate_fast(f, 2, cfg)
        assert a.mu_hat == b.mu_hat and a.err == b.err and a.n_used == b.n_used

    def test_sobol_family_runs(self):
        f = lambda x: x.prod(axis=1)
        res = integrate_fast(f, 2, CubatureConfig(family="sobol", epsilon=1e-4,
                                                  n0=128, n_max=2**14, seed=6))
        assert res.tolerance_met
        assert res.mu_hat == pytest.approx(0.25, abs=2e-4)

    def test_per_dimension_gradient_search_under_small_budgets(self):
        f = lambda x: np.exp(x.sum(axis=1))
        cfg = CubatureConfig(epsilon=1e-4, n0=256, n_max=2**12, seed=7,
                             eta_mode="per_dimension")
        res = integrate_fast(f, 2, cfg)
        assert res.tolerance_met
        assert res.mu_hat == pytest.approx((np.e - 1) ** 2, rel=1e-3)
        assert res.iterations[0].evaluations <= cubature._BUDGET_FIRST
        assert all(it.evaluations <= cubature._BUDGET_LATER
                   for it in res.iterations[1:])

    def test_per_dimension_eta_mode(self):
        f = lambda x: np.sin(2 * np.pi * x[:, 0]) + 100 * x[:, 1]
        cfg = CubatureConfig(epsilon=1e-3, n0=256, n_max=2**14, seed=9,
                             eta_mode="per_dimension", periodizer="sidi_c1")
        res = integrate_fast(f, 2, cfg)
        assert res.tolerance_met
        assert res.mu_hat == pytest.approx(50.0, abs=1e-3)

    def test_truncated_series_family_runs(self):
        f = lambda x: np.exp(x.sum(axis=1))
        cfg = CubatureConfig(epsilon=1e-4, n0=256, n_max=2**13, seed=21,
                             kernel="truncated_series", order=2.4,
                             periodizer="sidi_c1")
        res = integrate_fast(f, 2, cfg)
        assert res.tolerance_met
        assert res.mu_hat == pytest.approx((np.e - 1) ** 2, abs=1e-4)

    def test_exp_decay_family_runs(self):
        f = lambda x: np.exp(np.cos(2 * np.pi * x[:, 0]) + np.sin(2 * np.pi * x[:, 1]))
        cfg = CubatureConfig(epsilon=1e-4, n0=256, n_max=2**13, seed=22,
                             kernel="exp_decay", order=0.5)
        res = integrate_fast(f, 2, cfg)
        # product of modified-Bessel means: I_0(1)^2
        from scipy.special import i0

        assert res.tolerance_met
        assert res.mu_hat == pytest.approx(i0(1.0) ** 2, abs=2e-4)

    @pytest.mark.parametrize("kernel,order,lo,hi", [
        ("truncated_series", 2.0, 1.0, np.inf), ("exp_decay", 0.5, 0.0, 1.0)])
    def test_combined_order_and_eta_search(self, kernel, order, lo, hi):
        f = lambda x: np.exp(x.sum(axis=1))
        cfg = CubatureConfig(epsilon=1e-4, n0=256, n_max=2**13, seed=23,
                             kernel=kernel, order=order, periodizer="sidi_c1",
                             search_order=True)
        res = integrate_fast(f, 2, cfg)
        assert res.tolerance_met
        assert res.mu_hat == pytest.approx((np.e - 1) ** 2, abs=1e-4)

    def test_scrambled_sobol_runs(self):
        f = lambda x: x.prod(axis=1)
        cfg = CubatureConfig(family="sobol", epsilon=1e-4, n0=128,
                             n_max=2**14, seed=24, scramble=True)
        res = integrate_fast(f, 2, cfg)
        assert res.tolerance_met
        assert res.mu_hat == pytest.approx(0.25, abs=2e-4)

    def test_sobol_per_dimension_eta(self):
        from bayescub import build_problem

        prob = build_problem("keister", d=3)
        cfg = CubatureConfig(family="sobol", epsilon=5e-3, n0=256,
                             n_max=2**16, seed=25, eta_mode="per_dimension")
        res = integrate_fast(prob.evaluator, prob.d, cfg)
        assert res.tolerance_met
        assert abs(res.mu_hat - prob.reference_value) <= 5e-3
        # the search really moved three independent shape parameters
        etas = np.asarray(res.iterations[-1].theta)
        assert etas.shape == (3,) and len(set(etas.round(12))) == 3

    @pytest.mark.parametrize("criterion", ["full", "gcv"])
    def test_alternate_criteria_cover_mvn(self, criterion):
        from bayescub import build_problem

        prob = build_problem("mvn")
        for seed in range(10):
            cfg = CubatureConfig(criterion=criterion, epsilon=1e-3, seed=seed,
                                 periodizer="sidi_c2", kernel="bernoulli", order=2)
            res = integrate_fast(prob.evaluator, prob.d, cfg)
            assert res.tolerance_met
            assert abs(res.mu_hat - prob.reference_value) <= 1e-3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CubatureConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            CubatureConfig(n0=100)
        with pytest.raises(ValueError):
            CubatureConfig(n0=2**10, n_max=2**8)
        with pytest.raises(ValueError):
            CubatureConfig(family="halton")
        # an order search is refused before any point is generated
        for family, kernel in (("lattice", "bernoulli"), ("sobol", "walsh1"),
                               ("lattice", None), ("sobol", None)):
            with pytest.raises(ValueError, match="no continuous order"):
                CubatureConfig(family=family, kernel=kernel, search_order=True)


class TestIterationRecords:
    """What each doubling records: its search's evaluation count, the
    clamped-eigenvalue count at the chosen parameters, and re-seeds."""

    @staticmethod
    def recording_search(monkeypatch):
        calls = []
        real = cubature.search_hyperparameters

        def search(objective_fn, init, **kwargs):
            try:
                res = real(objective_fn, init, **kwargs)
            except NonFiniteStartError:
                calls.append((init.copy(), None))
                raise
            calls.append((init.copy(), res))
            return res

        monkeypatch.setattr(cubature, "search_hyperparameters", search)
        return calls

    def test_evaluations_match_search_results(self, monkeypatch):
        calls = self.recording_search(monkeypatch)
        f = lambda x: np.exp(x.sum(axis=1))
        cfg = CubatureConfig(epsilon=1e-9, n0=128, n_max=2**11, seed=5)
        res = integrate_fast(f, 3, cfg)
        assert [it.evaluations for it in res.iterations] == \
            [r.evaluations for _, r in calls]
        assert 1 < res.iterations[0].evaluations <= cubature._BUDGET_FIRST
        assert all(1 < it.evaluations <= cubature._BUDGET_LATER
                   for it in res.iterations[1:])
        assert not any(it.reseeded for it in res.iterations)

    def test_n_clamped_is_the_chosen_states(self, monkeypatch):
        # tag every TransformedData with a count that depends on its n
        real = cubature.transformed_data

        def tagged(*a, **k):
            td = real(*a, **k)
            return replace(td, n_clamped=td.n // 64 + 1)

        monkeypatch.setattr(cubature, "transformed_data", tagged)
        f = lambda x: np.exp(x.sum(axis=1))
        cfg = CubatureConfig(epsilon=1e-9, n0=128, n_max=2**10, seed=5)
        res = integrate_fast(f, 3, cfg)
        assert [it.n_clamped for it in res.iterations] == \
            [it.n // 64 + 1 for it in res.iterations]
        assert res.final_state.n_clamped == res.iterations[-1].n_clamped

    def test_nonfinite_warm_start_reseeds_from_default(self, monkeypatch):
        calls = self.recording_search(monkeypatch)
        real = cubature.objective
        poisoned = []

        def objective(kind, td):
            if td.n == 512 and not poisoned:  # the warm start at n = 512
                poisoned.append(td.n)
                return np.nan
            return real(kind, td)

        monkeypatch.setattr(cubature, "objective", objective)
        f = lambda x: np.exp(x.sum(axis=1))
        cfg = CubatureConfig(epsilon=1e-9, n0=256, n_max=1024, seed=5)
        res = integrate_fast(f, 3, cfg)
        assert res.n_used == 1024 and np.isfinite(res.err)
        assert [it.reseeded for it in res.iterations] == [False, True, False]
        # searches: n = 256 from the default, n = 512 from the warm start
        # (failed) and again from the default, n = 1024 from the new optimum
        starts = [t for t, _ in calls]
        assert len(calls) == 4 and calls[1][1] is None
        assert starts[0] == 0.0 and starts[1] != 0.0 and starts[2] == 0.0
        assert res.iterations[1].evaluations == calls[2][1].evaluations + 1

    def test_nonfinite_default_start_still_raises(self, monkeypatch):
        real = cubature.objective
        monkeypatch.setattr(cubature, "objective",
                            lambda kind, td: np.inf if td.n == 512 else real(kind, td))
        f = lambda x: np.exp(x.sum(axis=1))
        cfg = CubatureConfig(epsilon=1e-9, n0=256, n_max=1024, seed=5)
        with pytest.raises(NonFiniteStartError, match="not finite at the initial"):
            integrate_fast(f, 3, cfg)


    def test_bound_hit_when_eta_is_driven_past_the_upper_bound(self, monkeypatch):
        # a loss that falls as lam_1 grows: the one-coordinate search walks
        # to log(1e8) and stops there
        monkeypatch.setattr(cubature, "objective", lambda kind, td: -np.log(td.lam1))
        f = lambda x: np.exp(x.sum(axis=1))
        cfg = CubatureConfig(epsilon=1e-9, n0=128, n_max=512, seed=5)
        res = integrate_fast(f, 3, cfg)
        assert [it.theta for it in res.iterations] == [(1e8,) * 3] * 3
        assert all(it.bound_hit for it in res.iterations)

    @staticmethod
    def log_ring_lam1(monkeypatch):
        """Make the loss log ring_lam_1, with its gradient d lam_1 / lam_ring1."""
        monkeypatch.setattr(cubature, "objective",
                            lambda kind, td: np.log(td.lam_ring1))
        monkeypatch.setattr(cubature, "objective_gradient",
                            lambda td, kind, dlam: dlam[:, 0] / td.lam_ring1)

    def test_bound_hit_on_any_per_dimension_entry(self, monkeypatch):
        # log ring_lam_1 falls with every eta entry: the gradient search
        # drives t down to log(1e-8)
        self.log_ring_lam1(monkeypatch)
        f = lambda x: np.exp(x.sum(axis=1))
        cfg = CubatureConfig(epsilon=1e-9, n0=128, n_max=256, seed=5,
                             eta_mode="per_dimension")
        res = integrate_fast(f, 2, cfg)
        assert all(it.bound_hit and 1e-8 in it.theta for it in res.iterations)

    # one config per search method: Brent, L-BFGS-B and Nelder-Mead
    SEARCHES = {
        "shared": dict(),
        "per_dimension": dict(eta_mode="per_dimension"),
        "searched_order": dict(eta_mode="per_dimension", kernel="truncated_series",
                               periodizer="sidi_c1", search_order=True),
    }

    @pytest.mark.parametrize("name", sorted(SEARCHES))
    def test_every_search_evaluates_inside_the_box(self, monkeypatch, name):
        # a loss that falls in every coordinate, order included, level only
        # far past log(1e8): each search is driven against the upper bound
        seen = []
        real = cubature.search_hyperparameters

        def search(objective_fn, init, **kwargs):
            def falling(t):
                seen.append(np.array(t))
                return float(-np.minimum(t, 25.0).sum()), objective_fn(t)[1]

            return real(falling, init, **kwargs)

        monkeypatch.setattr(cubature, "search_hyperparameters", search)
        monkeypatch.setattr(cubature, "objective_gradient",
                            lambda td, kind, dlam: -np.ones(dlam.shape[0]))
        f = lambda x: np.exp(x.sum(axis=1))
        cfg = CubatureConfig(epsilon=1e-9, n0=128, n_max=512, seed=5,
                             **self.SEARCHES[name])
        integrate_fast(f, 2, cfg)
        lo, hi = np.log(kernels.ETA_MIN), np.log(kernels.ETA_MAX)
        assert seen and all(((lo <= t) & (t <= hi)).all() for t in seen)
        assert any((t == hi).any() for t in seen)

    @pytest.mark.parametrize("kernel", ["truncated_series", "exp_decay"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_order_search_keeps_an_order_its_kernel_accepts(self, monkeypatch,
                                                            kernel, sign):
        # a loss of +-log ring lam_1 drives the order coordinate far out;
        # unbounded, it reached orders KernelSpec refuses (r = 1, q = 0 or 1)
        monkeypatch.setattr(cubature, "objective",
                            lambda kind, td: sign * np.log(td.lam_ring1))
        f = lambda x: np.exp(x.sum(axis=1))
        cfg = CubatureConfig(epsilon=1e-9, n0=128, n_max=512, seed=5,
                             kernel=kernel, search_order=True)
        res = integrate_fast(f, 3, cfg)
        assert res.iterations
        for it in res.iterations:
            kernels.KernelSpec(kernel, it.order, np.ones(3))  # accepted

    def test_order_records_the_searched_and_the_fixed_order(self, monkeypatch):
        calls = self.recording_search(monkeypatch)
        f = lambda x: np.exp(x.sum(axis=1))
        cfg = CubatureConfig(epsilon=1e-9, n0=256, n_max=2**10, seed=23,
                             kernel="truncated_series", order=2.0, periodizer="sidi_c1",
                             search_order=True)
        res = integrate_fast(f, 2, cfg)
        spec0 = cubature._default_kernel(cfg, 2)
        orders = [cubature._kernel_at(spec0, r.t, search_order=True).order
                  for _, r in calls]
        assert [it.order for it in res.iterations] == orders
        assert len(set(orders)) > 1 and 2.0 not in orders
        fixed = integrate_fast(f, 2, replace(cfg, search_order=False))
        assert [it.order for it in fixed.iterations] == [2.0] * len(fixed.iterations)

    def test_no_bound_hit_inside_the_bounds(self):
        f = lambda x: np.exp(x.sum(axis=1))
        res = integrate_fast(f, 3, CubatureConfig(epsilon=1e-9, n0=128, n_max=512, seed=5))
        assert all(1e-8 < eta < 1e8 for it in res.iterations for eta in it.theta)
        assert not any(it.bound_hit for it in res.iterations)


class TestEigenvalueRouting:
    """Shared eta with a fixed order evaluates the Gram spectrum as a
    polynomial in eta; per-dimension eta and order search build the ring
    column on every evaluation, and the gradient reuses the evaluation's."""

    @staticmethod
    def counting_ring(monkeypatch):
        calls = {"n": 0}
        real = kernels.ring_from_bases

        def ring(eta, bases):
            calls["n"] += 1
            return real(eta, bases)

        monkeypatch.setattr(kernels, "ring_from_bases", ring)
        return calls

    @staticmethod
    def evaluations(res):
        return sum(it.evaluations for it in res.iterations)

    f = staticmethod(lambda x: np.exp(x.sum(axis=1)))

    @pytest.mark.parametrize("family", ["lattice", "sobol"])
    def test_shared_eta_never_builds_the_ring(self, monkeypatch, family):
        calls = self.counting_ring(monkeypatch)
        cfg = CubatureConfig(family=family, epsilon=1e-9, n0=128, n_max=2**11, seed=5)
        res = integrate_fast(self.f, 3, cfg)
        assert self.evaluations(res) > 20 and calls["n"] == 0

    @pytest.mark.parametrize("family", ["lattice", "sobol"])
    def test_per_dimension_eta_builds_it_per_evaluation(self, monkeypatch, family):
        calls = self.counting_ring(monkeypatch)
        cfg = CubatureConfig(family=family, epsilon=1e-9, n0=128, n_max=2**10, seed=5,
                             eta_mode="per_dimension")
        res = integrate_fast(self.f, 3, cfg)
        assert calls["n"] == self.evaluations(res) > 0

    def test_gradient_asked_out_of_turn_is_the_gradient_there(self, monkeypatch):
        # the gradient reuses the latest evaluation's ring column; asked at
        # another point, it must not return that point's gradient
        seen = []
        real = cubature.search_hyperparameters

        def search(objective_fn, init, gradient_fn=None, **kwargs):
            a, b = init, init + np.array([0.3, -0.2, 0.1])
            objective_fn(a)
            in_turn = gradient_fn(a)
            objective_fn(b)
            seen.append((gradient_fn(a), in_turn, gradient_fn(b)))
            return real(objective_fn, init, gradient_fn=gradient_fn, **kwargs)

        monkeypatch.setattr(cubature, "search_hyperparameters", search)
        cfg = CubatureConfig(epsilon=1e-9, n0=128, n_max=256, seed=5,
                             eta_mode="per_dimension")
        integrate_fast(self.f, 3, cfg)
        for out_of_turn, in_turn, other in seen:
            assert np.array_equal(out_of_turn, in_turn)
            assert not np.array_equal(out_of_turn, other)

    def test_order_search_builds_it_per_evaluation(self, monkeypatch):
        calls = self.counting_ring(monkeypatch)
        cfg = CubatureConfig(epsilon=1e-9, n0=128, n_max=2**10, seed=5,
                             kernel="truncated_series", order=2.0, search_order=True)
        res = integrate_fast(self.f, 3, cfg)
        assert calls["n"] == self.evaluations(res) > 0

    def test_sobol_builds_each_column_once(self, monkeypatch):
        # with shared eta each doubling builds the Walsh bases of its new block only
        built = {"cols": 0}
        real = kernels.sobol_column_bases

        def bases(*args, **kwargs):
            out = real(*args, **kwargs)
            built["cols"] += out.shape[1]
            return out

        monkeypatch.setattr(kernels, "sobol_column_bases", bases)
        cfg = CubatureConfig(family="sobol", epsilon=1e-9, n0=128, n_max=2**11, seed=5)
        res = integrate_fast(self.f, 3, cfg)
        assert len(res.iterations) == 5
        assert built["cols"] == res.n_used == 2**11


class TestSharedEtaLineSearch:
    """Shared eta searches one coordinate by a bracketed Brent line search."""

    def test_keister_call_stays_off_the_plateau(self):
        # Keister d=4 on Sobol' nodes: at n = 256 the objective at eta = 1e-8
        # reads below the downhill points near the warm start but above the
        # minimum near t = -7.  A bracket grown by extrapolation pinned eta at
        # 1e-8 and the call ran to 2^20 without meeting the tolerance.
        problem = problems.keister_problem(4)
        cfg = CubatureConfig(family="sobol", periodizer="none", kernel="walsh1",
                             order=1, eta_mode="shared",
                             epsilon=2.3140413997625657e-4, seed=3195855530)
        res = integrate_fast(problem.evaluator, problem.d, cfg)
        assert res.n_used == 2**17 and res.tolerance_met
        assert not any(it.bound_hit for it in res.iterations)
        assert 1e-4 < res.iterations[0].theta[0] < 1e-2
        later = [it.evaluations for it in res.iterations[1:]]
        assert np.mean(later) <= 14


class TestWidthPrecision:
    """The shared-eta width of a smooth lattice kernel at large n, where the
    smallest Gram eigenvalues sit near round-off of the largest."""

    def test_fresnel_full_width_against_long_double(self):
        # Fresnel, bernoulli r = 2, sidi_c1, full criterion, seed 1: at
        # n = 2^16 the loop's eta is about 10.17 and the smallest eigenvalue
        # 3.7e-14 of the largest; the shipped width reads 8.0e-5 off
        problem = problems.standard_fresnel_instance()
        m, d = 16, problem.d
        cfg = CubatureConfig(family="lattice", criterion="full", epsilon=1e-12,
                             periodizer="sidi_c1", kernel="bernoulli", order=2,
                             seed=1, n_max=1 << m)
        res = integrate_fast(problem.evaluator, d, cfg)
        n = res.n_used
        assert n == 1 << m
        eta = res.iterations[-1].theta[0]

        # reference: the ring column and the FFT of its even extension, both
        # in long double, from the same float64 bases and data
        gen = nodes.make_lattice(d, seed=1)
        y = problems.periodize(problem.evaluator, "sidi_c1")(gen.points(0, n).points)
        y_tilde = np.fft.fft(y.astype(np.longdouble)[nodes._brev_table(m)])
        spec = kernels.KernelSpec("bernoulli", 2, np.full(d, eta))
        bases = kernels.lattice_column_bases(spec, gen, m).astype(np.longdouble)
        c = np.longdouble(eta) * bases
        ring = c[0]
        for c_l in c[1:]:
            ring = ring * (1 + c_l) + c_l
        lam = np.fft.fft(np.concatenate([ring, ring[-2:0:-1]])).real
        assert lam.dtype == np.longdouble
        s = (np.abs(y_tilde[1:]) ** 2 / lam[1:]).sum()
        ref = student_t_quantile(n - 1) / n * np.sqrt(lam[0] / (n - 1) * s)
        assert abs(res.err - ref) / ref <= 2e-4


class TestDenseLoop:
    def test_constant_integrand(self):
        f = lambda x: np.full(len(x), -2.0)
        cfg = CubatureConfig(family="matern_dense", epsilon=1e-6, n0=32,
                             n_max=256, seed=1)
        res = integrate_dense(f, 2, cfg)
        assert res.n_used == 32 and res.err == 0.0 and res.mu_hat == -2.0

    def test_requires_matern_family(self):
        with pytest.raises(ValueError):
            integrate_dense(lambda x: x[:, 0], 1, CubatureConfig(epsilon=1e-2))

    def test_nmax_guard(self):
        cfg = CubatureConfig(family="matern_dense", epsilon=1e-2, n_max=2**14)
        with pytest.raises(ValueError):
            integrate_dense(lambda x: x[:, 0], 1, cfg)

    def test_smooth_integrand_converges(self):
        f = lambda x: np.exp(x.sum(axis=1))
        cfg = CubatureConfig(family="matern_dense", epsilon=5e-3, n0=64,
                             n_max=1024, seed=3)
        res = integrate_dense(f, 2, cfg)
        assert res.tolerance_met
        assert abs(res.mu_hat - (np.e - 1) ** 2) <= 5e-3

    def test_mvn_instance_meets_tolerance(self):
        # the Matern slow path on the box-probability benchmark at 1e-2
        from bayescub import build_problem

        prob = build_problem("mvn")
        hits = 0
        for seed in range(100):
            cfg = CubatureConfig(family="matern_dense", criterion="eb",
                                 epsilon=1e-2, n0=64, n_max=1024, seed=seed)
            res = integrate_dense(prob.evaluator, prob.d, cfg)
            hits += abs(res.mu_hat - prob.reference_value) <= 1e-2
        assert hits >= 90

    def test_cross_oracle_with_fast_path(self):
        # replace the Matern Gram by the matched Walsh Gram on the same nodes:
        # the dense posterior must then agree with the fast-path state
        from bayescub import kernels, nodes
        from bayescub.inference import EB
        from oracles import extended_dense_posterior

        f = lambda x: np.exp(x.sum(axis=1))
        cfg = CubatureConfig(family="sobol", epsilon=1e-30, n0=64, n_max=64,
                             seed=13)
        res = integrate_fast(f, 2, cfg)
        gen = nodes.make_sobol(2, seed=13)
        pts = gen.points(0, 64)
        eta = np.asarray(res.iterations[-1].theta)
        spec = kernels.KernelSpec("walsh1", 1, eta)
        gram = kernels.gram_matrix(spec, pts.int_points)
        post = extended_dense_posterior(f(pts.points), gram, np.ones(64), 1.0, EB)
        assert post.mu_hat == pytest.approx(res.mu_hat, rel=1e-8)
        assert post.err == pytest.approx(res.err, rel=1e-8)


class TestMonteCarlo:
    def test_constant_stops_first_batch(self):
        res = integrate_mc(lambda x: np.full(len(x), 7.0), 3, 1e-6, seed=0, n0=128)
        assert res.n_used == 128 and res.mu_hat == 7.0 and res.tolerance_met

    def test_uniform_mean(self):
        hits = 0
        for seed in range(100):
            res = integrate_mc(lambda x: x[:, 0], 1, 1e-2, seed=seed)
            hits += abs(res.mu_hat - 0.5) <= 1e-2
        assert hits >= 95

    def test_variance_estimate(self):
        res = integrate_mc(lambda x: x[:, 0], 1, 5e-3, seed=42)
        sigma2 = (res.err / 2.58) ** 2 * res.n_used
        assert sigma2 == pytest.approx(1 / 12, rel=0.1)

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            integrate_mc(lambda x: x[:, 0], 1, 0.0, seed=0)

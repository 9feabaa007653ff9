"""The doubling loop: stopping semantics, no-resampling accounting, result
round-trips, and the dense Matern path."""

import subprocess
import sys

import numpy as np
import pytest

from dataclasses import replace

from bayescub import (CubatureConfig, cubature, inference, integrate_dense,
                      integrate_fast, kernels, nodes, problems, transforms)
from bayescub.cubature import IntegrandError
from bayescub.inference import NonFiniteStartError, student_t_quantile
from conftest import patch_first_eigenvalue_loss


def counting(f):
    calls = {"n": 0}

    def wrapped(x):
        calls["n"] += len(np.atleast_2d(x))
        return f(x)

    return wrapped, calls


def both_loops(**fields):
    """(loop, config): the fast loop at fields, and the dense loop at the
    small n its O(n^3) fit affords; the loop contract holds on both."""
    cfg = CubatureConfig(**fields)
    return [(integrate_fast, cfg),
            (integrate_dense, replace(cfg, family="matern_dense", n0=32,
                                      n_max=min(cfg.n_max, 256)))]


class TestFastLoop:
    def test_constant_integrand_stops_immediately(self):
        for loop, cfg in both_loops(epsilon=1e-9, n0=64, seed=1):
            f, calls = counting(lambda x: np.full(len(x), 3.25))
            res = loop(f, 2, cfg)
            assert res.mu_hat == 3.25
            assert res.err == 0.0 and res.tolerance_met
            assert res.n_used == cfg.n0 == calls["n"]

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
        for loop, cfg in both_loops(epsilon=1e-4, n0=128, n_max=2**13, seed=5):
            f, calls = counting(lambda x: np.exp(x.sum(axis=1)))
            res = loop(f, 3, cfg)
            assert calls["n"] == res.n_used

    def test_doubling_schedule(self):
        f = lambda x: np.exp(x.sum(axis=1))
        for loop, cfg in both_loops(epsilon=1e-7, n0=128, n_max=2**12, seed=5):
            res = loop(f, 3, cfg)
            assert len(res.iterations) > 1
            assert [it.n for it in res.iterations] == \
                [cfg.n0 * 2**k for k in range(len(res.iterations))]

    def test_err_round_trip(self):
        f = lambda x: np.exp(x.sum(axis=1))
        cfg = CubatureConfig(epsilon=1e-5, n0=256, n_max=2**12, seed=8)
        res = integrate_fast(f, 2, cfg)
        assert res.err == res.iterations[-1].err
        assert res.to_record()["err"] == res.err

    def test_nmax_exhaustion_reports_failure(self):
        f = lambda x: np.exp(3 * x.sum(axis=1))
        for loop, cfg in both_loops(epsilon=1e-12, n0=64, n_max=256, seed=2):
            res = loop(f, 2, cfg)
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
            for loop, cfg in both_loops(epsilon=eps, n0=64, n_max=2**12, seed=4):
                res = loop(f, 1, cfg)
                assert res.tolerance_met == (res.err <= eps)

    def test_nonfinite_integrand_reports_node_index(self):
        def f(x):
            out = np.ones(len(x))
            out[3] = np.nan
            return out

        for loop, cfg in both_loops(epsilon=1e-2, n0=64, seed=0):
            with pytest.raises(IntegrandError, match="node index 3"):
                loop(f, 1, cfg)

    @pytest.mark.parametrize("wrong,shape", [(lambda x: 1.0, r"\(\)"),
                                             (lambda x: x[:, :1], r"\(\d+, 1\)")])
    def test_wrong_shape_integrand_names_the_shape(self, wrong, shape):
        # a scalar would broadcast into the block, an (n, 1) column would not fit
        for loop, cfg in both_loops(epsilon=1e-2, n0=64, seed=0):
            with pytest.raises(IntegrandError, match=f"shape {shape}"):
                loop(wrong, 2, cfg)

    def test_complex_integrand_is_rejected(self):
        f = lambda x: np.exp(1j * x.sum(axis=1))
        for loop, cfg in both_loops(epsilon=1e-2, n0=64, seed=0):
            with pytest.raises(IntegrandError, match="complex128"):
                loop(f, 2, cfg)

    @pytest.mark.parametrize("family", ["lattice", "sobol"])
    def test_nonfinite_value_in_a_later_chunk_is_reported_at_its_global_index(self, family):
        d = 13
        rows = nodes.block_rows(d)
        cfg = CubatureConfig(family=family, epsilon=1e-12, n0=256, n_max=4 * rows, seed=2)
        gen = (nodes.make_lattice(d, cfg.seed) if family == "lattice"
               else nodes.make_sobol(d, cfg.seed))
        idx = 3 * rows + 5  # the second chunk of the doubling [2 rows, 4 rows)
        target = gen.points(0, cfg.n_max).points[idx]

        def f(x):
            y = x.sum(axis=1)
            y[(x == target).all(axis=1)] = np.nan
            return y

        with pytest.raises(IntegrandError, match=f"node index {idx}$"):
            integrate_fast(f, d, cfg)

    @pytest.mark.parametrize("family,d", [("lattice", 13), ("sobol", 4), ("sobol", 13)])
    def test_loop_asks_for_at_most_one_chunk_of_nodes(self, monkeypatch, family, d):
        rows = nodes.block_rows(d)
        ranges = []
        cls = nodes.LatticeGenerator if family == "lattice" else nodes.SobolGenerator
        points = cls.points

        def spy(gen, start, stop):
            ranges.append((start, stop))
            return points(gen, start, stop)

        monkeypatch.setattr(cls, "points", spy)
        cfg = CubatureConfig(family=family, epsilon=1e-12, n0=256, n_max=4 * rows, seed=1)
        res = integrate_fast(lambda x: np.exp(x.sum(axis=1) / d), d, cfg)
        assert res.n_used == cfg.n_max
        assert max(stop - start for start, stop in ranges) == rows
        # the chunks tile the nodes in order, each asked for once
        assert [start for start, _ in ranges] == [0] + [stop for _, stop in ranges[:-1]]
        assert ranges[-1][1] == res.n_used

    def test_degenerate_data_is_told_from_every_chunk(self):
        d = 13
        rows = nodes.block_rows(d)
        cfg = CubatureConfig(epsilon=1e-12, n0=4 * rows, n_max=8 * rows, seed=4)
        for big in (1.0, 1e20):
            res = integrate_fast(lambda x: np.full(len(x), big), d, cfg)
            assert res.err == 0.0 and res.n_used == cfg.n0 and res.mu_hat == big
        calls = []

        def one_chunk_varies(x):  # the first doubling's second chunk alone varies
            calls.append(len(x))
            return x[:, 0] if len(calls) == 2 else np.full(len(x), 1e20)

        res = integrate_fast(one_chunk_varies, d, replace(cfg, n_max=cfg.n0))
        assert calls == [rows] * 4 and res.err > 0.0

    def test_records_do_not_depend_on_the_block_size(self, monkeypatch):
        # integrand chunks, lattice point rows and base columns all follow
        # nodes._BLOCK_BYTES; the option maps each row on its own
        prob = problems.asian_option_problem()
        cfg = CubatureConfig(epsilon=1e-9, n0=2**8, n_max=2**15, periodizer="baker",
                             kernel="bernoulli", order=1, seed=3)

        def run():
            res = integrate_fast(prob.evaluator, prob.d, cfg)
            return res.mu_hat, res.n_used, [replace(it, seconds=0.0) for it in res.iterations]

        blocked = run()
        assert nodes.block_rows(prob.d) < 2**14  # the last doubling is chunked
        for size in (1 << 40, 1 << 12):  # one block per doubling; 32-row blocks
            monkeypatch.setattr(nodes, "_BLOCK_BYTES", size)
            assert run() == blocked

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

    @pytest.mark.parametrize("name,value", [("kernel", "bernoulli"), ("order", 2.0),
                                            ("eta_mode", "per_dimension"),
                                            ("scramble", True)])
    def test_dense_family_refuses_matched_kernel_settings(self, name, value):
        # the dense loop's Matern kernel would ignore them; it always scrambles
        with pytest.raises(ValueError, match=name):
            CubatureConfig(family="matern_dense", **{name: value})

    @pytest.mark.parametrize("family,kernel", [("lattice", "walsh1"),
                                               ("sobol", "bernoulli"),
                                               ("sobol", "truncated_series"),
                                               ("sobol", "exp_decay")])
    def test_unmatched_kernel_refused(self, family, kernel):
        # the family's transform does not diagonalize that kernel's Gram
        with pytest.raises(ValueError, match=f"kernel '{kernel}'.*family '{family}'"):
            CubatureConfig(family=family, kernel=kernel)

    def test_lattice_refuses_scramble(self):
        with pytest.raises(ValueError, match="lattice takes no scramble"):
            CubatureConfig(family="lattice", scramble=True)


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
        assert [it.capped for it in res.iterations] == [r.capped for _, r in calls]

    def test_a_spent_budget_is_recorded_as_capped(self, monkeypatch):
        monkeypatch.setattr(cubature, "_BUDGET_LATER", 2)
        f = lambda x: np.exp(x.sum(axis=1))
        cfg = CubatureConfig(epsilon=1e-9, n0=128, n_max=2**10, seed=5)
        res = integrate_fast(f, 3, cfg)
        assert [it.capped for it in res.iterations[1:]] == [True] * 3
        assert res.to_record()["capped"] == sum(it.capped for it in res.iterations) >= 3

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
        patch_first_eigenvalue_loss(monkeypatch, lambda td: -np.log(td.lam1),
                                    lambda td: -1.0 / td.lam1, lambda td: td.lam1**-2)
        f = lambda x: np.exp(x.sum(axis=1))
        cfg = CubatureConfig(epsilon=1e-9, n0=128, n_max=512, seed=5)
        res = integrate_fast(f, 3, cfg)
        assert [it.theta for it in res.iterations] == [(1e8,) * 3] * 3
        assert all(it.bound_hit for it in res.iterations)

    @staticmethod
    def log_ring_lam1(monkeypatch):
        """Make the loss log ring_lam_1, with its gradient d lam_1 / lam_ring1:
        its eigenvalue adjoint is 1 / lam_ring1 at lam_1 and 0 elsewhere, and
        its eigenvalue Hessian -1 / lam_ring1^2 there and 0 elsewhere."""
        patch_first_eigenvalue_loss(monkeypatch, lambda td: np.log(td.lam_ring1),
                                    lambda td: 1.0 / td.lam_ring1,
                                    lambda td: -td.lam_ring1**-2)

    def test_bound_hit_on_any_per_dimension_entry(self, monkeypatch):
        # log ring_lam_1 falls with every eta entry: the gradient search
        # drives t down to log(1e-8)
        self.log_ring_lam1(monkeypatch)
        f = lambda x: np.exp(x.sum(axis=1))
        cfg = CubatureConfig(epsilon=1e-9, n0=128, n_max=256, seed=5,
                             eta_mode="per_dimension")
        res = integrate_fast(f, 2, cfg)
        assert all(it.bound_hit and 1e-8 in it.theta for it in res.iterations)

    @staticmethod
    def minus_log_trace(monkeypatch):
        """Make the loss's derivatives those of minus the log of the Gram
        trace, n (1 + ring_0), which falls with every eta, by less than one
        per unit of log eta: adjoint -m / trace, m each entry's multiplicity,
        and eigenvalue Hessian m m^T / trace^2."""
        def multiplicities(td):
            m = np.ones(td.lams_rest.shape[0] + 1)
            if td.lams_rest.shape[0] < td.n - 1:  # an even spectrum's half
                m[1:-1] = 2.0
            return m / (td.lam1 + td.rest_sum(td.lams_rest))

        def adjoint(td, kind, curvature=False, lo=0, hi=None):
            m = multiplicities(td)[lo:hi]
            return (-m, (np.zeros(m.shape[0]), m[None], np.ones(1))) if curvature else -m

        monkeypatch.setattr(cubature, "eigenvalue_adjoint", adjoint)

    # one (d, config) per search method and spectra: projected Newton on the
    # power spectra (shared eta) and on the subset spectra (per-dimension eta
    # at d <= 3), L-BFGS-B (at d >= 4) and Nelder-Mead
    SEARCHES = {
        "shared": (2, dict()),
        "per_dimension": (2, dict(eta_mode="per_dimension")),
        "ring_per_dimension": (4, dict(eta_mode="per_dimension")),
        "searched_order": (2, dict(eta_mode="per_dimension", kernel="truncated_series",
                                   periodizer="sidi_c1", search_order=True)),
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
        self.minus_log_trace(monkeypatch)
        f = lambda x: np.exp(x.sum(axis=1))
        d, fields = self.SEARCHES[name]
        cfg = CubatureConfig(epsilon=1e-9, n0=128, n_max=512, seed=5, **fields)
        integrate_fast(f, d, cfg)
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

    def test_eta_map_bounds_as_clip_does_and_refuses_nan(self):
        lo, hi = cubature._LOG_ETA_MIN, cubature._LOG_ETA_MAX
        t = np.r_[np.random.default_rng(3).normal(0.0, 30.0, 64), lo, hi, -np.inf, np.inf]
        ref = np.clip(np.exp(np.clip(t, lo, hi)), kernels.ETA_MIN, kernels.ETA_MAX)
        assert np.array_equal(cubature._eta_from_log(t), ref)
        with pytest.raises(ValueError, match="NaN"):
            cubature._eta_from_log(np.array([0.0, np.nan]))

    def test_no_bound_hit_inside_the_bounds(self):
        f = lambda x: np.exp(x.sum(axis=1))
        res = integrate_fast(f, 3, CubatureConfig(epsilon=1e-9, n0=128, n_max=512, seed=5))
        assert all(1e-8 < eta < 1e8 for it in res.iterations for eta in it.theta)
        assert not any(it.bound_hit for it in res.iterations)


class TestEigenvalueRouting:
    """With a fixed order the Gram spectrum is a polynomial in a shared eta
    and multilinear in per-dimension eta at d <= 3, evaluated from held
    spectra, and on the lattice the width comes from the ring column at the
    chosen eta; per-dimension eta at d >= 4 and order search build the ring
    column on every evaluation, and the gradient, asked right after one,
    reads that evaluation's."""

    @staticmethod
    def counting_ring(monkeypatch):
        calls = {"n": 0}
        real = kernels.ring_from_bases

        def ring(eta, bases, dtype=np.float64):
            # float64 columns only: a long-double pass re-sums a cancelling
            # lam_ring1 after the search (cubature._ring_sum_long)
            calls["n"] += dtype is np.float64
            return real(eta, bases, dtype)

        monkeypatch.setattr(kernels, "ring_from_bases", ring)
        return calls

    @staticmethod
    def evaluations(res):
        """Objective evaluations over every doubling: more than one per
        doubling shows that the searches stepped."""
        return sum(it.evaluations for it in res.iterations)

    f = staticmethod(lambda x: np.exp(x.sum(axis=1)))

    @pytest.mark.parametrize("family", ["lattice", "sobol"])
    def test_shared_eta_never_builds_the_ring(self, monkeypatch, family):
        # the search evaluates the polynomial in eta alone; the lattice width
        # builds its ring after the search (counted in the test below)
        calls = self.counting_ring(monkeypatch)
        in_search = []
        real = cubature.search_hyperparameters

        def search(*args, **kwargs):
            before = calls["n"]
            out = real(*args, **kwargs)
            in_search.append(calls["n"] - before)
            return out

        monkeypatch.setattr(cubature, "search_hyperparameters", search)
        cfg = CubatureConfig(family=family, epsilon=1e-9, n0=128, n_max=2**11, seed=5)
        res = integrate_fast(self.f, 3, cfg)
        assert self.evaluations(res) > len(res.iterations)
        assert len(in_search) >= len(res.iterations) and not any(in_search)

    @pytest.mark.parametrize("family", ["lattice", "sobol"])
    def test_shared_eta_builds_the_ring_for_the_lattice_width_only(self, monkeypatch,
                                                                   family):
        # doubling k reads its ring from k base blocks, one built per doubling
        calls = self.counting_ring(monkeypatch)
        cfg = CubatureConfig(family=family, epsilon=1e-9, n0=128, n_max=2**11, seed=5)
        res = integrate_fast(self.f, 3, cfg)
        k = len(res.iterations)
        assert k == 5 and self.evaluations(res) > k
        assert calls["n"] == (k * (k + 1) // 2 if family == "lattice" else 0)

    @pytest.mark.parametrize("kernel", ["bernoulli", "truncated_series"])
    def test_lattice_width_reads_the_base_blocks_as_built(self, monkeypatch, kernel):
        # the width's ring reads the arrays coefficient_spectra returned, not
        # copies: every one since the last whole half column, which
        # truncated_series rebuilds at every doubling
        built, read = [], []
        real_spectra, real_ring = cubature.coefficient_spectra, cubature._ring_from_blocks

        def spectra(*args):
            out = real_spectra(*args)
            built.append(out[1])
            return out

        def ring(eta, blocks, n):
            read.append(list(blocks))
            return real_ring(eta, blocks, n)

        monkeypatch.setattr(cubature, "coefficient_spectra", spectra)
        monkeypatch.setattr(cubature, "_ring_from_blocks", ring)
        cfg = CubatureConfig(epsilon=1e-9, n0=128, n_max=2**11, seed=5, kernel=kernel)
        res = integrate_fast(self.f, 3, cfg)
        assert len(res.iterations) == len(read) == len(built) == 5
        for k, blocks in enumerate(read):
            first = 0 if kernel == "bernoulli" else k
            assert len(blocks) == k + 1 - first
            assert all(b is a for b, a in zip(blocks, built[first:k + 1]))

    @pytest.mark.parametrize("family", ["lattice", "sobol"])
    def test_per_dimension_eta_builds_it_per_evaluation(self, monkeypatch, family):
        # from d = 4 on, per-dimension eta takes the ring path
        calls = self.counting_ring(monkeypatch)
        cfg = CubatureConfig(family=family, epsilon=1e-9, n0=128, n_max=2**10, seed=5,
                             eta_mode="per_dimension")
        res = integrate_fast(self.f, 4, cfg)
        assert calls["n"] == self.evaluations(res) > 0

    def test_revisited_points_build_no_ring_out_of_turn(self, monkeypatch):
        # L-BFGS-B revisits points on this d = 4 call; the search's memo
        # serves their gradients, so every ring column built is one evaluation's
        calls = self.counting_ring(monkeypatch)
        prob = problems.keister_problem(4)
        cfg = CubatureConfig(criterion="gcv", epsilon=1e-7, n_max=2**12, seed=2,
                             periodizer="baker", eta_mode="per_dimension")
        res = integrate_fast(prob.evaluator, prob.d, cfg)
        assert calls["n"] == self.evaluations(res) > 0

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("family", ["lattice", "sobol"])
    def test_per_dimension_eta_at_small_d_reads_held_subset_spectra(self, monkeypatch,
                                                                    family, d):
        # no ring column and no transform in the search; on the lattice the
        # width reads one ring column per doubling from the base blocks
        rings = self.counting_ring(monkeypatch)
        seen = {"eig": 0, "widths": 0}
        for owner, name, key in ((inference, "fbt", "eig"),
                                 (inference, "fbt_lattice_even", "eig"),
                                 (cubature, "_ring_from_blocks", "widths")):
            def counted(*args, _real=getattr(owner, name), _key=key):
                seen[_key] += 1
                return _real(*args)

            monkeypatch.setattr(owner, name, counted)
        in_search = []
        real = cubature.search_hyperparameters

        def search(*args, **kwargs):
            before = (rings["n"], seen["eig"])
            out = real(*args, **kwargs)
            in_search.append((rings["n"], seen["eig"]) != before)
            return out

        monkeypatch.setattr(cubature, "search_hyperparameters", search)
        cubature._held.clear()
        cfg = CubatureConfig(family=family, epsilon=1e-9, n0=128, n_max=2**11, seed=5,
                             eta_mode="per_dimension")
        res = integrate_fast(self.f, d, cfg)
        k = len(res.iterations)
        assert k == 5 and self.evaluations(res) > k
        assert len(in_search) == k and not any(in_search)
        assert seen["widths"] == (k if family == "lattice" else 0)
        assert rings["n"] == (k * (k + 1) // 2 if family == "lattice" else 0)

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


class TestHeldDesign:
    """The held spectra of the latest design (lag source, kernel, start level
    and form: shared eta's or per-dimension eta's) are built once per
    process; the shift cancels in every lag."""

    f = staticmethod(lambda x: np.exp(x.sum(axis=1)))

    @staticmethod
    def fields(res):
        return (res.mu_hat, res.n_used, res.err,
                [replace(it, seconds=0.0) for it in res.iterations])

    @staticmethod
    def counting_builds(monkeypatch):
        calls = {"n": 0}
        real = cubature.coefficient_spectra

        def spectra(*args):
            calls["n"] += 1
            return real(*args)

        monkeypatch.setattr(cubature, "coefficient_spectra", spectra)
        return calls

    def cold(self, d, cfg):
        cubature._held.clear()
        out = self.fields(integrate_fast(self.f, d, cfg))
        cubature._held.clear()
        return out

    DESIGNS = [("lattice", "bernoulli"), ("lattice", "truncated_series"),
               ("sobol", "walsh1")]

    @pytest.mark.parametrize("family,kernel", DESIGNS)
    def test_a_held_design_gives_the_cold_results(self, monkeypatch, family, kernel):
        self.held_gives_cold(monkeypatch, CubatureConfig(
            family=family, kernel=kernel, epsilon=1e-9, n0=128, n_max=2**11, seed=5))

    @pytest.mark.parametrize("family,kernel", DESIGNS)
    def test_a_held_per_dimension_design_gives_the_cold_results(self, monkeypatch,
                                                                family, kernel):
        # per-dimension eta at d = 3 holds its subset-product spectra
        self.held_gives_cold(monkeypatch, CubatureConfig(
            family=family, kernel=kernel, epsilon=1e-9, n0=128, n_max=2**11, seed=5,
            eta_mode="per_dimension"))

    def held_gives_cold(self, monkeypatch, cfg):
        other = replace(cfg, seed=6)
        cold = [self.cold(3, c) for c in (cfg, other)]
        builds = self.counting_builds(monkeypatch)
        first = self.fields(integrate_fast(self.f, 3, cfg))
        built = builds["n"]
        second = self.fields(integrate_fast(self.f, 3, other))
        assert [first, second] == cold and first != second
        assert built == len(first[3]) == 5 and builds["n"] == built

    @pytest.mark.parametrize("base,change,d", [
        (dict(family="sobol", scramble=True), dict(seed=6), 3), ({}, dict(n0=256), 3),
        ({}, dict(order=1.0), 3), ({}, dict(kernel="exp_decay"), 3), ({}, {}, 2),
        ({}, dict(eta_mode="per_dimension"), 3)])
    def test_no_other_design_shares_them(self, monkeypatch, base, change, d):
        cfg = CubatureConfig(epsilon=1e-9, n0=128, n_max=2**11, seed=5, **base)
        other = replace(cfg, **change)
        cold = self.cold(d, other)
        integrate_fast(self.f, 3, cfg)
        builds = self.counting_builds(monkeypatch)
        out = self.fields(integrate_fast(self.f, d, other))
        assert out == cold and builds["n"] == len(out[3])

    @pytest.mark.parametrize("family", ["lattice", "sobol"])
    def test_held_arrays_are_read_only(self, family):
        cfg = CubatureConfig(family=family, epsilon=1e-9, n0=128, n_max=2**10, seed=5)
        integrate_fast(self.f, 3, cfg)
        (levels,) = cubature._held.values()
        assert sorted(levels) == [7, 8, 9, 10]
        for powers, built in levels.values():
            assert (built is None) == (family == "sobol")
            for a in (powers,) if built is None else (powers, built):
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[0] = 0.0

    @staticmethod
    def held_bytes(levels):
        return sum(a.nbytes for level in levels for a in level if a is not None)

    @pytest.mark.parametrize("family", ["lattice", "sobol"])
    def test_levels_past_the_cap_are_built_and_not_kept(self, monkeypatch, family):
        cfg = CubatureConfig(family=family, epsilon=1e-9, n0=128, n_max=2**11, seed=5)
        cold = self.fields(integrate_fast(self.f, 3, cfg))
        (levels,) = cubature._held.values()
        assert sorted(levels) == [7, 8, 9, 10, 11]
        cap = self.held_bytes([levels[7], levels[8], levels[9]]) - 1
        cubature._held.clear()
        monkeypatch.setattr(cubature, "_HELD_BYTES", cap)
        builds = self.counting_builds(monkeypatch)
        for _ in range(2):  # cold, then held up to the cap
            assert self.fields(integrate_fast(self.f, 3, cfg)) == cold
            (levels,) = cubature._held.values()
            assert sorted(levels) == [7, 8] and self.held_bytes(levels.values()) <= cap
        assert builds["n"] == 5 + 3


class TestSharedEtaSearch:
    """Shared eta searches one coordinate by the projected Newton search on
    the exact derivatives of the held power spectra."""

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


class TestColdStart:
    def test_shared_eta_loads_neither_optimize_nor_linalg(self):
        # in a fresh interpreter: the shared-eta loop runs the package's own
        # projected Newton search, and only the dense loop and test-scale
        # matrices need scipy.linalg; per-dimension eta runs the same search
        # up to d = 3 and L-BFGS-B from d = 4 on
        code = (
            "import sys, numpy as np\n"
            "import bayescub, bayescub.cli\n"
            "from bayescub import CubatureConfig, integrate_fast\n"
            "f = lambda x: np.exp(x.sum(axis=1))\n"
            "for fields in ({'family': 'lattice', 'criterion': 'eb'},\n"
            "               {'family': 'lattice', 'criterion': 'full', 'periodizer': 'sidi_c1'},\n"
            "               {'family': 'sobol', 'criterion': 'gcv'}):\n"
            "    integrate_fast(f, 3, CubatureConfig(epsilon=1e-12, n0=2**8, n_max=2**10,\n"
            "                                        seed=1, **fields))\n"
            "loaded = lambda: sorted(m for m in sys.modules\n"
            "                        if m.startswith(('scipy.optimize', 'scipy.linalg')))\n"
            "print(loaded())\n"
            "for d in (3, 4):\n"
            "    integrate_fast(f, d, CubatureConfig(epsilon=1e-12, n0=2**8, n_max=2**10,\n"
            "                                        seed=1, eta_mode='per_dimension'))\n"
            "    print('scipy.optimize' in loaded())\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True)
        assert proc.stdout.splitlines() == ["[]", "False", "True"]


class TestWidthPrecision:
    """The shared-eta width of a smooth lattice kernel at large n, where the
    smallest Gram eigenvalues sit near round-off of the largest."""

    def test_fresnel_full_width_against_long_double(self):
        # Fresnel, bernoulli r = 2, sidi_c1, full criterion, seed 1: at
        # n = 2^16 the loop's eta is about 10.18 and the smallest eigenvalue
        # 3.7e-14 of the largest.  The width from the ring column, its
        # lam_ring1 summed in long double, reads 4.5e-7 off there and 5.1e-9
        # at 2^15; with a float64 lam_ring1 it read 1.1e-5 to 6.9e-5 and
        # 4e-8 to 1.9e-6 from one ulp of eta to the next, and from the
        # polynomial spectrum 8.0e-5 and 5.0e-6
        problem = problems.standard_fresnel_instance()
        d = problem.d
        cfg = CubatureConfig(family="lattice", criterion="full", epsilon=1e-12,
                             periodizer="sidi_c1", kernel="bernoulli", order=2,
                             seed=1, n_max=1 << 16)
        res = integrate_fast(problem.evaluator, d, cfg)
        assert res.n_used == 1 << 16
        gen = nodes.make_lattice(d, seed=1)
        y_all = problems.periodize(problem.evaluator, "sidi_c1")(
            gen.points(0, res.n_used).points)
        for it, bound in ((res.iterations[-1], 5e-5), (res.iterations[-2], 1e-6)):
            n, eta = it.n, it.theta[0]
            m = n.bit_length() - 1
            # reference: the ring column and the FFT of its even extension,
            # both in long double, from the same float64 bases and data
            y_tilde = np.fft.fft(y_all[:n].astype(np.longdouble)[nodes._brev_table(m)])
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
            assert abs(it.err - ref) / ref <= bound, n

    def test_long_double_ring_sum_weights_the_column_as_its_even_extension(
            self, monkeypatch):
        # the blocks of every doubling from n0 = 128: the first block's two
        # ends count once and every other entry twice, and a doubling whose
        # float64 lam_ring1 cancels past the cutoff (here 2^11) reads the
        # long-double sum
        seen, used = [], []
        real_ring, real_sum = cubature._ring_from_blocks, cubature._ring_sum_long

        def ring(eta, blocks, n):
            seen.append((eta, list(blocks), n))
            return real_ring(eta, blocks, n)

        def ring_sum(eta, blocks):
            used.append(len(blocks))
            return real_sum(eta, blocks)

        monkeypatch.setattr(cubature, "_ring_from_blocks", ring)
        monkeypatch.setattr(cubature, "_ring_sum_long", ring_sum)
        cfg = CubatureConfig(epsilon=1e-9, n0=128, n_max=2**11, seed=5)
        integrate_fast(lambda x: np.exp(x.sum(axis=1)), 3, cfg)
        assert len(seen) == 5 and used == [5]
        for eta, blocks, n in seen:
            col = np.empty(n // 2 + 1, np.longdouble)
            step = 1
            for block in blocks[:0:-1]:
                col[step::2 * step] = kernels.ring_from_bases(eta, block, np.longdouble)
                step *= 2
            col[::step] = kernels.ring_from_bases(eta, blocks[0], np.longdouble)
            even = np.concatenate([col, col[-2:0:-1]])
            tol = 64 * np.finfo(np.longdouble).eps * np.abs(even).sum()
            assert abs(real_sum(eta, blocks) - even.sum()) <= tol

    def test_sobol_per_dimension_width_against_long_double(self):
        # per-dimension eta at d = 3 on Sobol' nodes takes the width from the
        # held subset spectra.  Against the ring column and its Walsh
        # transform in long double, from the same float64 bases and data,
        # that width reads closer than the float64 ring transform's, at the
        # loop's eta and at etas 1e8 to 1e16 apart across dimensions: at
        # 2^16 at most 2e-11 off where the ring transform's reads 3e-8
        d, n = 3, 1 << 16
        problem = problems.keister_problem(d)
        cfg = CubatureConfig(family="sobol", epsilon=1e-12, periodizer="baker", seed=1,
                             n_max=n, eta_mode="per_dimension")
        res = integrate_fast(problem.evaluator, d, cfg)
        assert res.n_used == n
        gen = nodes.make_sobol(d, seed=1)
        y = problems.periodize(problem.evaluator, "baker")(gen.points(0, n).points)
        weights = inference.data_weights(transforms.fbt(y, "sobol"), n)
        bases = kernels.column_bases(kernels.KernelSpec("walsh1", 1.0, np.ones(d)), gen, 16)
        held = inference.column_spectrum(kernels.subset_products(bases), "sobol", n)

        def width(kind, lams):
            return inference.credible_width(kind, inference.transformed_data(weights, lams, n))

        loop_eta = np.array(res.iterations[-1].theta)
        assert res.err == width("eb", inference.multilinear_spectrum(held, loop_eta))
        for eta in (loop_eta, np.array([1e-8, 1.0, 1e8]), np.array([1e8, 1e8, 1e-8]),
                    np.array([1e-4, 1e4, 1.0])):
            c = eta[:, None].astype(np.longdouble) * bases
            ring = c[0]
            for c_l in c[1:]:
                ring = ring * (1 + c_l) + c_l
            h = 1
            while h < n:  # the Walsh-Hadamard butterflies, in long double
                pairs = ring.reshape(-1, 2, h)
                pairs[:] = pairs[:, 0:1] + pairs[:, 1:2] * np.array([1, -1])[:, None]
                h *= 2
            assert ring.dtype == np.longdouble
            for kind in ("eb", "gcv", "full"):
                ref = width(kind, ring.astype(np.float64))
                dev_held = abs(width(kind, inference.multilinear_spectrum(held, eta)) - ref)
                dev_ring = abs(width(kind, inference.column_spectrum(
                    kernels.ring_from_bases(eta, bases), "sobol", n)) - ref)
                assert dev_held <= 1e-10 * ref and dev_held <= max(dev_ring, 1e-13 * ref), \
                    (eta, kind, dev_held / ref, dev_ring / ref)


class TestDenseLoop:
    def test_constant_integrand(self):
        f = lambda x: np.full(len(x), -2.0)
        cfg = CubatureConfig(family="matern_dense", epsilon=1e-6, n0=32,
                             n_max=256, seed=1)
        res = integrate_dense(f, 2, cfg)
        assert res.n_used == 32 and res.err == 0.0 and res.mu_hat == -2.0
        # a degenerate stop records the starting length scale
        assert res.iterations[-1].theta == (cubature._MATERN_THETAS[0],)

    def test_matern_gram_matches_oracle(self):
        from oracles import matern_kernel

        pts = np.random.default_rng(5).random((24, 3))
        gram = cubature._matern_gram(1.7, pts)
        ref = np.array([[matern_kernel(1.7, x, t) for t in pts] for x in pts])
        assert np.allclose(gram, ref, rtol=1e-15, atol=0)

    def test_matern_gram_memory_is_quadratic(self):
        # the Gram itself plus two work buffers of a block of rows (1.14 n^2
        # doubles at n = 1024)
        import tracemalloc

        n, d = 1024, 3
        pts = np.random.default_rng(6).random((n, d))
        tracemalloc.start()
        try:
            cubature._matern_gram(2.0, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * n * n * 8

    @pytest.mark.parametrize("criterion,factorizations", [("eb", 12), ("gcv", 13)])
    def test_factorizations_per_doubling(self, monkeypatch, criterion, factorizations):
        # one per theta of the 12-point grid; EB keeps the chosen theta's
        # posterior, GCV factors that theta's Gram once more; dense_posterior
        # imports scipy.linalg's cho_factor at call time
        import scipy.linalg

        count = {"n": 0}

        def counted(*args, **kwargs):
            count["n"] += 1
            return cho_factor(*args, **kwargs)

        cho_factor = scipy.linalg.cho_factor
        monkeypatch.setattr(scipy.linalg, "cho_factor", counted)
        cfg = CubatureConfig(family="matern_dense", criterion=criterion,
                             epsilon=1e-12, n0=32, n_max=32, seed=1)
        res = integrate_dense(lambda x: np.exp(x.sum(axis=1)), 2, cfg)
        assert len(res.iterations) == 1
        assert count["n"] == factorizations == res.iterations[0].evaluations

    def test_fit_rebuilds_the_nodes_the_integrand_saw(self, monkeypatch):
        # the fit reads gen.points(0, n), which by extensibility is the
        # doublings' blocks stacked in order
        seen, fitted = [], []
        real = cubature._matern_c_vector

        def c_vector(theta, pts):
            fitted.append(pts)
            return real(theta, pts)

        def f(x):
            seen.append(x.copy())
            return np.exp(x.sum(axis=1))

        monkeypatch.setattr(cubature, "_matern_c_vector", c_vector)
        cfg = CubatureConfig(family="matern_dense", epsilon=1e-12, n0=32, n_max=128,
                             seed=2)
        res = integrate_dense(f, 2, cfg)
        ns = [it.n for it in res.iterations]
        assert ns == [32, 64, 128]
        by_n = {len(pts): pts for pts in fitted}
        assert sorted(by_n) == ns
        for n in ns:
            assert np.array_equal(by_n[n], np.vstack(seen)[:n])

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

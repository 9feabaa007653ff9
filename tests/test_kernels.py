"""Kernel values against series/quadrature oracles, ring-form consistency,
positive definiteness, normalization, and analytic gradients."""

import itertools
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayescub import cubature, kernels, nodes
from bayescub.kernels import KernelSpec
from oracles import (exp_decay_kernel, kernel_eta_gradient, matern_kernel,
                     shift_invariant_ring, to_digits, walsh_ring)


def bernoulli_fourier_oracle(order: int, x, terms: int = 100_000) -> float:
    """B_r(x) from its Fourier series: -r!/(2 pi i)^r sum_k e^{2 pi i k x}/k^r."""
    k = np.arange(1, terms + 1, dtype=np.float64)
    if order == 2:
        return float((1.0 / np.pi**2) * np.sum(np.cos(2 * np.pi * k * x) / k**2))
    if order == 4:
        return float((-3.0 / np.pi**4) * np.sum(np.cos(2 * np.pi * k * x) / k**4))
    raise ValueError(order)


class TestBernoulliPoly:
    def test_b2_values_against_series(self):
        assert kernels.bernoulli_poly(2, 0.0) == pytest.approx(
            bernoulli_fourier_oracle(2, 0.0), abs=1e-4)
        assert kernels.bernoulli_poly(2, 0.0) == pytest.approx(1 / 6, abs=1e-15)
        assert kernels.bernoulli_poly(2, 0.5) == pytest.approx(
            bernoulli_fourier_oracle(2, 0.5), abs=1e-9)
        assert kernels.bernoulli_poly(2, 0.5) == pytest.approx(-1 / 12, abs=1e-15)

    def test_b4_values_against_series(self):
        for x in (0.0, 0.25, 0.5, 0.8):
            assert kernels.bernoulli_poly(4, x) == pytest.approx(
                bernoulli_fourier_oracle(4, x), abs=1e-9)

    def test_zero_mean(self):
        # midpoint rule carries O(h^2) error, well below this tolerance
        x = (np.arange(100_000) + 0.5) / 100_000
        for order in (2, 4):
            assert abs(kernels.bernoulli_poly(order, x).mean()) < 1e-10

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            kernels.bernoulli_poly(6, 0.5)


class TestShiftInvariantRing:
    def test_r1_zero_lag(self):
        spec = KernelSpec("bernoulli", 1, np.ones(1))
        assert shift_invariant_ring(spec, np.zeros(1)) == pytest.approx(1 / 6)

    def test_d2_zero_lag(self):
        spec = KernelSpec("bernoulli", 1, np.ones(2))
        ring = shift_invariant_ring(spec, np.zeros(2))
        assert ring == pytest.approx(7 / 6 * 7 / 6 - 1, rel=1e-15)

    def test_tiny_eta_bounded(self):
        d = 3
        spec = KernelSpec("bernoulli", 1, np.full(d, 1e-7))
        rng = np.random.default_rng(0)
        ring = shift_invariant_ring(spec, rng.random((50, d)))
        assert np.abs(ring).max() <= d * 2e-7

    def test_eta_zero_rejected(self):
        with pytest.raises(ValueError):
            KernelSpec("bernoulli", 1, np.zeros(1))

    @pytest.mark.parametrize("family,order", [("bernoulli", 1), ("truncated_series", 1.7),
                                              ("exp_decay", 0.5), ("walsh1", 1)])
    @pytest.mark.parametrize("eta", [0.0, -1.0, 5e-9, 2e8, np.nan])
    def test_eta_outside_the_box_rejected(self, family, order, eta):
        with pytest.raises(ValueError, match="eta must lie in"):
            KernelSpec(family, order, np.array([1.0, eta]))

    def test_ring_consistency_with_direct_product(self):
        # 1 + ring equals the plain product form to within 2 ulps of the
        # positive factor envelope (the signed product itself can cancel)
        rng = np.random.default_rng(3)
        for family, order in (("bernoulli", 1), ("bernoulli", 2), ("exp_decay", 0.3)):
            for _ in range(100):
                d = rng.integers(1, 5)
                eta = rng.uniform(1e-3, 5.0, size=d)
                spec = KernelSpec(family, order, eta)
                lag = rng.random(d)
                ring = shift_invariant_ring(spec, lag)
                c = eta * kernels._dim_bases_from_lags(spec, lag)
                envelope = np.prod(1.0 + np.abs(c))
                assert abs((1.0 + ring) - np.prod(1.0 + c)) \
                    <= 2 * np.finfo(float).eps * envelope


class TestTruncatedSeries:
    def test_n2_by_hand(self):
        # two-point inverse DFT of (0, 2): values (1, -1)
        table = kernels.truncated_series_table(1.5, 2)
        assert table[0] == pytest.approx(1.0, abs=1e-15)
        assert table[1] == pytest.approx(-1.0, abs=1e-15)

    def test_zero_dc(self):
        for r in (1.3, 2.0, 3.7):
            assert abs(kernels.truncated_series_table(r, 64).sum()) < 1e-11

    def test_r2_matches_bernoulli_closed_form(self):
        # truncated r=2 series approaches 2 pi^2 B_2 (2% truncation error at n=64)
        n = 64
        table = kernels.truncated_series_table(2.0, n)
        closed = 2.0 * np.pi**2 * kernels.bernoulli_poly(2, np.arange(n) / n)
        assert np.abs(table - closed).max() <= 0.02 * np.abs(closed).max()

    def test_first_column_matches_direct_sum(self):
        # O(n^2) direct evaluation of the truncated series as oracle
        n, r, eta = 16, 1.8, 1.3
        gen = nodes.LatticeGenerator(nodes.default_lattice_vector(2), np.zeros(2))
        spec = KernelSpec("truncated_series", r, np.full(2, eta))
        col = kernels.ring_from_bases(spec.eta, kernels.column_bases(spec, gen, 4))
        ks = np.concatenate([np.arange(-n // 2, 0), np.arange(1, n // 2)])
        pts = gen.points(0, n).points
        direct = np.ones(n)
        for ell in range(2):
            delta = pts[:, ell] - pts[0, ell]
            g = np.sum(np.exp(2j * np.pi * np.outer(delta, ks)) / np.abs(ks)**r, axis=1).real
            direct *= 1.0 + eta * g
        # the half column k = 0..n/2 in grid order sits at nodes brev(k)
        at_grid = direct[nodes._brev_table(4)[: n // 2 + 1]]
        assert np.abs((1.0 + col) - at_grid).max() < 1e-10

    def test_huge_order_spectrum_is_quiet(self):
        # m^r overflows to inf for every m >= 2, and n / inf = 0 is the value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = kernels.truncated_series_spectrum(1e8, 16)
        assert np.array_equal(spec, [0, 16] + [0] * 13 + [16])

    def test_order_validation(self):
        with pytest.raises(ValueError):
            KernelSpec("truncated_series", 1.0, np.ones(1))


class TestExpDecay:
    def test_q_half_zero_lag(self):
        spec = KernelSpec("exp_decay", 0.5, np.ones(1))
        val = exp_decay_kernel(spec, np.zeros(1), np.zeros(1))
        assert val == pytest.approx(3.0, rel=1e-14)

    def test_tiny_eta(self):
        spec = KernelSpec("exp_decay", 0.5, np.full(1, 1e-8))
        val = exp_decay_kernel(spec, np.array([0.3]), np.array([0.1]))
        assert val == pytest.approx(1.0, abs=1e-7)

    def test_geometric_series_oracle(self):
        # factor equals 1 + eta sum_{|k|<=K} q^{|k|} e^{2 pi i k delta} within q^K
        rng = np.random.default_rng(6)
        K = 60
        ks = np.arange(1, K + 1)
        for _ in range(20):
            q = rng.uniform(0.05, 0.9)
            eta = rng.uniform(0.1, 3.0)
            delta = rng.random()
            spec = KernelSpec("exp_decay", q, np.array([eta]))
            val = exp_decay_kernel(spec, np.array([delta]), np.array([0.0]))
            series = 1.0 + eta * 2.0 * np.sum(q**ks * np.cos(2 * np.pi * ks * delta))
            tail = 2.0 * eta * q ** (K + 1) / (1.0 - q)  # geometric remainder
            assert abs(val - series) <= tail + 1e-12

    def test_q_validation(self):
        for q in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                KernelSpec("exp_decay", q, np.ones(1))


class TestWalsh:
    def test_omega1_values(self):
        assert kernels.walsh_omega1(0.5) == pytest.approx(-0.5)
        assert kernels.walsh_omega1(0.25) == pytest.approx(0.25)
        assert kernels.walsh_omega1(0.0) == 1.0

    def test_omega1_integrates_to_zero(self):
        # piecewise-constant exact sum over dyadic intervals [2^-k-1, 2^-k)
        total = 0.0
        for k in range(0, 60):
            val = kernels.walsh_omega1(2.0 ** (-k - 1))
            total += val * 2.0 ** (-k - 1)
        assert abs(total) < 1e-15

    def test_omega1_leaves_its_input(self):
        x = np.array([[0.0, 0.5, 0.7], [0.25, 2.0**-32, 0.0]])
        before = x.copy()
        kernels.walsh_omega1(x)
        assert np.array_equal(x, before)

    def test_sobol_bases_are_omega1_of_the_scaled_lags(self):
        # the column builds them in place over its own lag buffer
        gen = nodes.make_sobol(5, 3)
        spec = KernelSpec("walsh1", 1.0, np.ones(5))
        lags = nodes.sobol_lag_integers(gen, 0, 1 << 12).T.astype(np.float64) / 2.0**32
        bases = kernels.sobol_column_bases(spec, gen, 12)
        assert bases.flags.c_contiguous
        assert np.array_equal(bases, kernels.walsh_omega1(lags))

    def test_whole_column_peaks_at_two_columns(self):
        # 2^20 nodes in d = 13: the lag integers and the one float buffer the
        # bases are built in. Measured in a fresh interpreter by VmHWM, the
        # peak of its own address space: ru_maxrss there starts at the peak
        # of the process that spawned it, so under pytest it hides the build
        code = ("import numpy as np\n"
                "from bayescub import kernels, nodes\n"
                "def peak():\n"
                "    with open('/proc/self/status') as fh:\n"
                "        return next(int(line.split()[1]) * 1024 for line in fh\n"
                "                    if line.startswith('VmHWM:'))\n"
                "before = peak()\n"
                "spec = kernels.KernelSpec('walsh1', 1.0, np.ones(13))\n"
                "b = kernels.sobol_column_bases(spec, nodes.make_sobol(13, 1), 20)\n"
                "print((peak() - before) / b.nbytes)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True)
        assert float(proc.stdout) < 2.2

    def test_ring_examples(self):
        spec = KernelSpec("walsh1", 1, np.ones(1))
        assert walsh_ring(spec, np.array([0.375]), np.array([0.375])) == 1.0
        assert walsh_ring(spec, np.array([0.5]), np.array([0.0])) == pytest.approx(-0.5)

    def test_symmetry_random_pairs(self):
        rng = np.random.default_rng(1)
        spec = KernelSpec("walsh1", 1, np.array([0.7, 1.3, 0.2]))
        for _ in range(1000):
            x = rng.integers(0, 2**32, size=3).astype(np.float64) / 2**32
            t = rng.integers(0, 2**32, size=3).astype(np.float64) / 2**32
            assert walsh_ring(spec, x, t) == walsh_ring(spec, t, x)


class TestMatern:
    def test_zero_lag(self):
        assert matern_kernel(2.0, np.array([0.3, 0.7]), np.array([0.3, 0.7])) == 1.0

    def test_unit_separation(self):
        assert matern_kernel(1.0, np.array([1.0]), np.array([0.0])) == \
            pytest.approx(2.0 / np.e, rel=1e-15)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            x, t = rng.random(3), rng.random(3)
            v = matern_kernel(1.7, x, t)
            assert v == matern_kernel(1.7, t, x)
            assert 0.0 < v <= 1.0

    def test_theta_validation(self):
        with pytest.raises(ValueError):
            matern_kernel(0.0, np.zeros(1), np.zeros(1))


class TestGradients:
    def central_difference(self, spec, x, t, shared=False, h=1e-6):
        out = np.empty(spec.d if not shared else 1)
        base_eta = spec.eta.copy()
        if shared:
            up = replace(spec, eta=base_eta * (1 + h))
            dn = replace(spec, eta=base_eta * (1 - h))
            ku = 1.0 + shift_invariant_ring(up, self.lag(spec, x, t))
            kd = 1.0 + shift_invariant_ring(dn, self.lag(spec, x, t))
            out[0] = (ku - kd) / (2 * h * base_eta[0])
            return out
        for ell in range(spec.d):
            eu, ed = base_eta.copy(), base_eta.copy()
            eu[ell] += h
            ed[ell] -= h
            ku = 1.0 + shift_invariant_ring(replace(spec, eta=eu), self.lag(spec, x, t))
            kd = 1.0 + shift_invariant_ring(replace(spec, eta=ed), self.lag(spec, x, t))
            out[ell] = (ku - kd) / (2 * h)
        return out

    @staticmethod
    def lag(spec, x, t):
        if spec.family == "walsh1":
            return (to_digits(x) ^ to_digits(t)).astype(np.float64) / 2**32
        return (x - t) % 1.0

    def test_d1_gradient_is_base_value(self):
        spec = KernelSpec("bernoulli", 1, np.array([2.0]))
        x, t = np.array([0.3]), np.array([0.1])
        grad = kernel_eta_gradient(spec, x, t, shared=True)
        assert grad[0] == pytest.approx(kernels.bernoulli_poly(2, 0.2), rel=1e-12)

    @pytest.mark.parametrize("family,order", [("bernoulli", 1), ("bernoulli", 2),
                                              ("exp_decay", 0.4), ("walsh1", 1)])
    @pytest.mark.parametrize("shared", [True, False])
    def test_matches_central_difference(self, family, order, shared):
        rng = np.random.default_rng(hash((family, shared)) % 2**32)
        for _ in range(100):
            d = int(rng.integers(1, 4))
            eta = (np.full(d, rng.uniform(0.2, 3.0)) if shared
                   else rng.uniform(0.2, 3.0, size=d))
            spec = KernelSpec(family, order, eta)
            if family == "walsh1":
                x = rng.integers(0, 2**32, size=d).astype(np.float64) / 2**32
                t = rng.integers(0, 2**32, size=d).astype(np.float64) / 2**32
            else:
                x, t = rng.random(d), rng.random(d)
            grad = kernel_eta_gradient(spec, x, t, shared)
            fd = self.central_difference(spec, x, t, shared)
            assert np.allclose(grad, fd, rtol=1e-5, atol=1e-9), (family, shared, d)

    def test_shared_eta_at_zero_lag(self):
        d = 2
        spec = KernelSpec("bernoulli", 1, np.ones(d))
        zero = np.zeros(d)
        grad = kernel_eta_gradient(spec, zero, zero, shared=True)
        fd = self.central_difference(spec, zero, zero, shared=True)
        assert grad[0] == pytest.approx(fd[0], rel=1e-6)


class TestGramProperties:
    @pytest.mark.parametrize("family,order", [("bernoulli", 1), ("bernoulli", 2),
                                              ("exp_decay", 0.5), ("matern", 0)])
    def test_symmetry_and_positive_definiteness(self, family, order):
        rng = np.random.default_rng(11)
        for n in (8, 32):
            d = 2
            eta = rng.uniform(0.3, 2.0, size=d)
            pts = rng.random((n, d))
            if family == "matern":  # the dense loop's own kernel, one theta
                gram = cubature._matern_gram(eta[0], pts)
            else:
                gram = kernels.gram_matrix(KernelSpec(family, order, eta), pts)
            assert np.array_equal(gram, gram.T)
            assert np.linalg.eigvalsh(gram).min() > -1e-8 * n

    def test_truncated_series_gram_symmetry(self):
        gen = nodes.make_lattice(2, seed=17)
        spec = KernelSpec("truncated_series", 1.6, np.array([0.9, 2.1]))
        gram = kernels.gram_matrix(spec, None, gen=gen, m=5)
        assert np.array_equal(gram, gram.T)
        assert np.linalg.eigvalsh(gram).min() > -1e-8 * 32

    def test_walsh_positive_definiteness(self):
        gen = nodes.make_sobol(2, seed=13)
        spec = KernelSpec("walsh1", 1, np.array([1.5, 0.4]))
        gram = kernels.gram_matrix(spec, gen.points(0, 32).int_points)
        assert np.array_equal(gram, gram.T)
        assert np.linalg.eigvalsh(gram).min() > -1e-8 * 32

    @pytest.mark.parametrize("family,order", [("bernoulli", 1), ("bernoulli", 2),
                                              ("exp_decay", 0.4), ("walsh1", 1)])
    def test_normalization(self, family, order):
        # quadrature of C(., x) over the cube equals one (kernel mean one)
        gen = nodes.make_sobol(2, seed=3)
        ns = gen.points(0, 2**17)
        spec = KernelSpec(family, order, np.array([1.0, 2.0]))
        x0 = np.array([0.25, 0.625])
        if family == "walsh1":
            lag = (ns.int_points ^ to_digits(x0)[None, :]).astype(np.float64) / 2**32
            vals = 1.0 + kernels.ring_from_bases(spec.eta, kernels.walsh_omega1(lag.T))
        else:
            delta = (ns.points - x0[None, :]) % 1.0
            vals = 1.0 + kernels.ring_from_bases(
                spec.eta, kernels._dim_bases_from_lags(spec, delta.T))
        assert vals.mean() == pytest.approx(1.0, abs=1e-3)


def unblocked_ring(eta, bases):
    # the product iteration over whole rows, as one expression per step
    ring = eta[0] * bases[0]
    for ell in range(1, bases.shape[0]):
        c = eta[ell] * bases[ell]
        ring = ring * (1.0 + c) + c
    return ring


class TestColumnBases:
    def test_unknown_generator_rejected(self):
        spec = KernelSpec("bernoulli", 2, np.ones(2))
        with pytest.raises(TypeError):
            kernels.column_bases(spec, object(), 3)

    @pytest.mark.parametrize("block", [False, True])
    @pytest.mark.parametrize("family,order", [("bernoulli", 1), ("bernoulli", 2),
                                              ("exp_decay", 0.4)])
    def test_lattice_column_blocks_match_the_whole_column(self, family, order, block):
        d, m = 13, 16
        gen = nodes.make_lattice(d, seed=4)
        spec = KernelSpec(family, order, np.ones(d))
        out = kernels.lattice_column_bases(spec, gen, m, block=block)
        assert out.shape[1] > nodes.block_rows(d)  # more than one column block
        n = 2**m
        k = np.arange(1, n // 2, 2) if block else np.arange(n // 2 + 1)
        lags = (np.multiply.outer(gen.generating_vector, k) & (n - 1)).astype(np.float64) / n
        assert np.array_equal(out, kernels._dim_bases_from_lags(spec, lags))


class TestRingBlocking:
    @pytest.mark.parametrize("n", [2**12, 2**13, 2**13 + 5, 2**14, 2**15 + 1, 2**17 + 1, 2**20])
    @pytest.mark.parametrize("d", [1, 2, 13])
    def test_matches_unblocked(self, n, d):
        rng = np.random.default_rng(n + d)
        bases = rng.uniform(-1 / 12, 1 / 6, size=(n, d)).T.copy()  # (d, n)
        eta = rng.uniform(0.1, 8.0, size=d)
        out = kernels.ring_from_bases(eta, bases)
        assert out.shape == (n,)
        assert np.array_equal(out, unblocked_ring(eta, bases))

    @pytest.mark.parametrize("family,order", [("bernoulli", 2), ("exp_decay", 0.5)])
    def test_gram_bases(self, family, order):
        # gram_matrix passes (d, n, n) bases; 128^2 columns take the blocked path
        rng = np.random.default_rng(12)
        spec = KernelSpec(family, order, np.array([0.7, 1.9, 3.0]))
        pts = rng.random((128, 3))
        delta = (pts.T[:, :, None] - pts.T[:, None, :]) % 1.0
        bases = kernels._dim_bases_from_lags(spec, delta)
        ring = kernels.ring_from_bases(spec.eta, bases)
        assert ring.shape == (128, 128)
        assert np.array_equal(ring, unblocked_ring(spec.eta, bases))
        assert np.array_equal(kernels.gram_matrix(spec, pts), 1.0 + ring)


def unblocked_symmetric(bases):
    # e_j += c_l e_{j-1}, j descending, over whole rows with e_0 = 1
    d = bases.shape[0]
    e = np.zeros((d + 1,) + bases.shape[1:])
    e[0] = 1.0
    for c in bases:
        for j in range(d, 0, -1):
            e[j] = e[j] + c * e[j - 1]
    return e[1:]


class TestElementarySymmetric:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_matches_subset_products(self, d):
        # e_j is the sum over all j-subsets of dimensions of their products
        rng = np.random.default_rng(d)
        bases = rng.uniform(-0.5, 1.0, size=(d, 17))
        e = kernels.elementary_symmetric(bases)
        for j in range(1, d + 1):
            direct = sum(np.prod(bases[list(s)], axis=0)
                         for s in itertools.combinations(range(d), j))
            np.testing.assert_allclose(e[j - 1], direct, rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("d", [1, 2, 13])
    def test_polynomial_in_shared_eta_is_the_ring(self, d):
        rng = np.random.default_rng(40 + d)
        bases = rng.uniform(-1 / 12, 1 / 6, size=(d, 33))
        e = kernels.elementary_symmetric(bases)
        for eta in (1e-3, 0.7, 5.0):
            poly = sum(eta ** (j + 1) * e[j] for j in range(d))
            ring = kernels.ring_from_bases(np.full(d, eta), bases)
            assert np.abs(poly - ring).max() <= 1e-14 * max(1.0, np.abs(ring).max())

    @pytest.mark.parametrize("n", [1, 2, 2**13, 2**13 + 5, 2**15 + 1, 2**17 + 1])
    @pytest.mark.parametrize("d", [1, 2, 13])
    def test_matches_unblocked(self, n, d):
        rng = np.random.default_rng(n + d)
        bases = rng.uniform(-1 / 12, 1 / 6, size=(d, n))
        out = kernels.elementary_symmetric(bases)
        assert out.shape == (d, n)
        assert np.array_equal(out, unblocked_symmetric(bases))

    def test_keeps_trailing_shape(self):
        bases = np.random.default_rng(3).uniform(-0.5, 1.0, size=(3, 4, 5))
        out = kernels.elementary_symmetric(bases)
        assert out.shape == (3, 4, 5)
        assert np.array_equal(out, unblocked_symmetric(bases))


class TestSubsetProducts:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_row_of_each_mask_is_its_product(self, d):
        rng = np.random.default_rng(d)
        bases = rng.uniform(-0.5, 1.0, size=(d, 3, 5))
        out = kernels.subset_products(bases)
        assert out.shape == ((1 << d) - 1, 3, 5)
        for mask in range(1, 1 << d):
            dims = [ell for ell in range(d) if mask >> ell & 1]
            assert np.array_equal(out[mask - 1], np.prod(bases[dims], axis=0)), mask

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_multilinear_in_per_dimension_eta_is_the_ring(self, d):
        rng = np.random.default_rng(50 + d)
        bases = rng.uniform(-1 / 12, 1 / 6, size=(d, 33))
        c = kernels.subset_products(bases)
        for eta in rng.uniform(1e-3, 5.0, size=(3, d)):
            multi = sum(np.prod(eta[[ell for ell in range(d) if mask >> ell & 1]])
                        * c[mask - 1] for mask in range(1, 1 << d))
            ring = kernels.ring_from_bases(eta, bases)
            assert np.abs(multi - ring).max() <= 1e-14 * max(1.0, np.abs(ring).max())


@given(st.integers(1, 4), st.floats(1e-3, 10.0), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_ring_never_below_minus_one(d, eta, lag_bits):
    # 1 + ring is a product of positive-mean factors evaluated at one point;
    # for bernoulli r=1 the factor floor is 1 - eta/12 > 0 when eta < 12
    spec = KernelSpec("bernoulli", 1, np.full(d, min(eta, 11.0)))
    lag = np.full(d, lag_bits / 2**32)
    assert 1.0 + shift_invariant_ring(spec, lag) > 0.0

"""Objectives, widths, gradients, the dense posterior, the hyperparameter
search, and the cancellation-safety of the eigenvalue pipeline."""

import functools

import numpy as np
import pytest

from bayescub import cubature, inference, kernels, nodes, transforms
from bayescub.inference import (EB, FATOL, FULL, GCV, XATOL, DegenerateDataError,
                                NonFiniteStartError, NonPositiveDefiniteError,
                                TransformedData, column_spectrum, credible_width,
                                data_weights, dense_posterior, eigenvalue_adjoint,
                                held_derivatives, objective, objective_eb, objective_gcv,
                                power_coefficients, ring_gradient, search_hyperparameters,
                                student_t_quantile, subset_coefficients, transformed_data)
from bayescub.kernels import KernelSpec
from oracles import (extended_dense_posterior, extended_eta_gradient, gram_eigenvalues,
                     jacobian_spectra, mirror_half, objective_gradient,
                     whole_row_derivatives)


LOG_ETA_BOUNDS = (np.log(kernels.ETA_MIN), np.log(kernels.ETA_MAX))


def make_matched_td(family, kernel, order, eta, m, d, seed=0, y=None):
    """A (spectrum, eigenvalues) pair from a matched node/kernel setup."""
    n = 1 << m
    if family == "lattice":
        gen = nodes.make_lattice(d, seed=seed)
    else:
        gen = nodes.make_sobol(d, seed=seed)
    pts = gen.points(0, n)
    if y is None:
        y = np.cos(2 * np.pi * pts.points[:, 0]) + pts.points.prod(axis=1)
    spectrum = transforms.fbt(y, family)
    spec = KernelSpec(kernel, order, eta if np.ndim(eta) else np.full(d, eta))
    col = kernels.ring_from_bases(spec.eta, kernels.column_bases(spec, gen, m))
    td = transformed_data(data_weights(spectrum, n), column_spectrum(col, family, n), n)
    return gen, pts, y, spec, col, td


class TestEigenvaluePipeline:
    def test_tiny_eta_limit(self):
        _, _, _, _, _, td = make_matched_td("lattice", "bernoulli", 1, 1e-7, 4, 1)
        assert abs(td.lam_ring1) < 1e-6
        assert np.abs(td.lams_rest).max() < 1e-6
        assert td.lam1 == pytest.approx(16.0, abs=1e-6)

    def test_matches_dense_eigensolver(self):
        gen, pts, _, spec, col, td = make_matched_td("lattice", "bernoulli", 1,
                                                     1.4, 4, 1)
        gram = kernels.gram_matrix(spec, pts.points)
        dense = np.sort(np.linalg.eigvalsh(gram))
        fast = np.sort(gram_eigenvalues(td))
        assert np.abs(dense - fast).max() < 1e-9

    def test_wrong_length_lattice_column_rejected(self):
        # a lattice column is the half k = 0..n/2; a whole column is refused
        col = np.random.default_rng(0).standard_normal(8)
        with pytest.raises(ValueError):
            column_spectrum(col, "lattice", 8)
        with pytest.raises(ValueError):
            column_spectrum(col[:4], "lattice", 8)
        with pytest.raises(ValueError):
            column_spectrum(col[:5], "sobol", 8)
        with pytest.raises(ValueError):  # n itself must be a power of two
            column_spectrum(col[:7], "lattice", 12)

    @pytest.mark.parametrize("m", [0, 1, 2])
    @pytest.mark.parametrize("kernel,order", [("bernoulli", 1), ("bernoulli", 2),
                                              ("exp_decay", 0.5)])
    def test_edge_sizes_match_dense_eigensolver(self, kernel, order, m):
        gen, pts, _, spec, col, td = make_matched_td("lattice", kernel, order,
                                                     np.array([1.4, 0.6]), m, 2)
        assert col.shape == ((1 << m) // 2 + 1,)
        gram = kernels.gram_matrix(spec, pts.points)
        dense = np.sort(np.linalg.eigvalsh(gram))
        fast = np.sort(gram_eigenvalues(td))
        assert np.abs(dense - fast).max() < 1e-12 * (1 << m)

    def test_clamp_count_is_over_the_full_spectrum(self):
        # ring spectrum -1e-9 at even k, 1 at odd k, n = 8: the half k = 0..4
        # holds three round-off entries, the interior k = 2 once for k = 6 too
        n = 8
        full = np.where(np.arange(n) % 2, 1.0, -1e-9)
        col = np.fft.ifft(full).real[: n // 2 + 1]
        lams = column_spectrum(col, "lattice", n)
        td = transformed_data(data_weights(np.ones(n // 2 + 1), n), lams, n)
        assert td.n_clamped == 4 == int((mirror_half(lams, n) <= 0).sum())
        assert td.lam_ring1 > 0 and (td.lams_rest > 0).all()

    @pytest.mark.parametrize("m", [1, 2, 3, 6])
    def test_half_spectrum_equals_its_mirror(self, m):
        # the half with multiplicities and paired data weights against the
        # whole mirrored spectrum: objectives, widths, gradient, clamp count
        _, _, y, _, col, td = make_matched_td("lattice", "bernoulli", 2, 1.3, m, 2)
        n = 1 << m
        lams = column_spectrum(col, "lattice", n)
        w_full = data_weights(mirror_half(transforms.fbt(y, "lattice"), n), n)
        half = transformed_data(td.weights, lams, n)
        full = transformed_data(w_full, mirror_half(lams, n), n)
        for kind in (EB, FULL, GCV):
            assert objective(kind, half) == pytest.approx(objective(kind, full),
                                                          rel=1e-13)
            assert credible_width(kind, half) == pytest.approx(
                credible_width(kind, full), rel=1e-13)
        dlam = np.vstack([lams, np.arange(lams.shape[0], dtype=float)])
        for kind in (EB, GCV):  # the half adjoint carries each interior entry twice
            assert dlam @ eigenvalue_adjoint(half, kind) == pytest.approx(
                mirror_half(dlam, n) @ eigenvalue_adjoint(full, kind), rel=1e-12)
        lams[-1] = -1e-12 * n  # one round-off entry, k = n/2
        assert transformed_data(td.weights, lams, n).n_clamped == 1 == \
            transformed_data(w_full, mirror_half(lams, n), n).n_clamped

    def test_hard_error_below_clamp(self):
        col = np.full(8, -0.9)  # strongly non-PD ring
        with pytest.raises(NonPositiveDefiniteError):
            transformed_data(data_weights(np.ones(8), 8),
                             column_spectrum(col, "sobol", 8), 8)

    def test_clamp_counts(self):
        # a column whose transform has tiny negative entries gets clamped
        n = 8
        col = np.zeros(n)
        col[0] = -1e-9 * n / n  # constant column: ring spectrum (sum, 0...0)
        td = transformed_data(data_weights(np.ones(n), n),
                              column_spectrum(col + 1e-12, "sobol", n), n)
        assert td.n_clamped == 0 or td.lams_rest.min() > 0


POLY_KERNELS = (("lattice", "bernoulli", 1), ("lattice", "bernoulli", 2),
                ("lattice", "exp_decay", 0.5), ("lattice", "truncated_series", 1.5),
                ("lattice", "truncated_series", 2.5), ("sobol", "walsh1", 1))


def ring_and_polynomial_spectra(family, kernel, order, d, m, etas, seed=3):
    """(ring-path spectrum, polynomial spectrum) pairs at each shared eta."""
    n = 1 << m
    gen = (nodes.make_lattice(d, seed=seed) if family == "lattice"
           else nodes.make_sobol(d, seed=seed))
    bases = kernels.column_bases(KernelSpec(kernel, order, np.ones(d)), gen, m)
    powers = column_spectrum(kernels.elementary_symmetric(bases), family, n)
    assert powers.shape == (d, n // 2 + 1 if family == "lattice" else n)
    return [(column_spectrum(kernels.ring_from_bases(np.full(d, eta), bases),
                             family, n),
             power_coefficients(eta, d)[0] @ powers) for eta in etas]


class TestEtaPolynomial:
    """The shared-eta Gram spectrum as a polynomial in eta against the ring
    column's transform."""

    @pytest.mark.parametrize("d", [1, 2, 4, 13])
    @pytest.mark.parametrize("family,kernel,order", POLY_KERNELS)
    def test_matches_ring_spectrum(self, family, kernel, order, d):
        for m in (1, 2, 3, 8, 12):
            pairs = ring_and_polynomial_spectra(family, kernel, order, d, m,
                                                np.geomspace(1e-8, 1e8, 9))
            cols = (1 << m) // 2 + 1 if family == "lattice" else 1 << m
            for ring, poly in pairs:
                assert poly.shape == ring.shape == (cols,)
                assert np.abs(poly - ring).max() <= 1e-13 * np.abs(ring).max(), \
                    (m, np.abs(poly - ring).max() / np.abs(ring).max())

    def test_wrong_lengths_rejected(self):
        with pytest.raises(ValueError):
            column_spectrum(np.ones((2, 4)), "sobol", 8)
        with pytest.raises(ValueError):
            column_spectrum(np.ones((2, 4)), "lattice", 8)
        with pytest.raises(ValueError, match="ring spectrum has shape"):
            transformed_data(data_weights(np.ones(8), 8), np.ones(6), 8)

    @staticmethod
    def designed_bases(kind, full):
        """(2, cols) bases whose shared-eta ring column at eta = 1 has the
        length-n ring spectrum `full` (second dimension all zero)."""
        n = full.shape[0]
        if kind == "lattice":
            col = np.fft.ifft(full).real[: n // 2 + 1]
        else:
            col = transforms.fbt_sobol(full) / n
        return np.vstack([col, np.zeros_like(col)])

    @pytest.mark.parametrize("kind", ["lattice", "sobol"])
    def test_clamp_count_matches_ring_path(self, kind):
        n = 16
        k = np.minimum(np.arange(n), n - np.arange(n))  # even: valid on both
        full = np.where(k % 2, 1.0 + k, -1e-9 * n)
        bases = self.designed_bases(kind, full)
        ring = column_spectrum(kernels.ring_from_bases(np.ones(2), bases), kind, n)
        poly = power_coefficients(1.0, 2)[0] @ column_spectrum(
            kernels.elementary_symmetric(bases), kind, n)
        weights = data_weights(np.ones(ring.shape[0]), n)
        td_r = transformed_data(weights, ring, n)
        td_p = transformed_data(weights, poly, n)
        assert td_r.n_clamped == td_p.n_clamped == int((full <= 0).sum()) == 8
        assert td_r.lam_ring1 == td_p.lam_ring1
        assert np.array_equal(td_r.lams_rest, td_p.lams_rest)

    @pytest.mark.parametrize("kind", ["lattice", "sobol"])
    def test_non_positive_definite_on_both_paths(self, kind):
        n = 16
        full = np.ones(n)
        full[n // 2] = -1e-3 * n  # far below the round-off floor
        bases = self.designed_bases(kind, full)
        ring = column_spectrum(kernels.ring_from_bases(np.ones(2), bases), kind, n)
        poly = power_coefficients(1.0, 2)[0] @ column_spectrum(
            kernels.elementary_symmetric(bases), kind, n)
        for lams in (ring, poly):
            with pytest.raises(NonPositiveDefiniteError, match="below round-off floor"):
                transformed_data(data_weights(np.ones(lams.shape[0]), n), lams, n)


def subset_spectra(family, kernel, order, d, m, seed=3):
    """(generator, bases, subset-product spectra) of a matched setup at 2^m."""
    gen = (nodes.make_lattice(d, seed=seed) if family == "lattice"
           else nodes.make_sobol(d, seed=seed))
    bases = kernels.column_bases(KernelSpec(kernel, order, np.ones(d)), gen, m)
    return gen, bases, column_spectrum(kernels.subset_products(bases), family, 1 << m)


def fixed_adjoint(row):
    """A stand-in for eigenvalue_adjoint in held_derivatives: entries lo..hi - 1
    of a given adjoint row, with zero curvature."""
    def adjoint(td, kind, curvature, lo, hi):
        a = row[lo:hi]
        return a, (np.zeros(a.shape[0]), np.zeros((0, a.shape[0])), np.zeros(0))

    return adjoint


class TestMultilinearSpectrum:
    """The per-dimension-eta Gram spectrum as a multilinear sum over the
    subset-product spectra, and the loss gradient contracted on them, against
    the ring column's transform, the ring path's gradient and central
    differences."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("family,kernel,order", POLY_KERNELS)
    def test_matches_ring_spectrum(self, family, kernel, order, d):
        rng = np.random.default_rng(d)
        for m in (1, 2, 3, 8, 12):
            _, bases, spectra = subset_spectra(family, kernel, order, d, m)
            assert spectra.shape[0] == (1 << d) - 1
            for eta in np.exp(rng.uniform(np.log(1e-8), np.log(1e8), (9, d))):
                ring = column_spectrum(kernels.ring_from_bases(eta, bases), family, 1 << m)
                multi = subset_coefficients(eta)[0] @ spectra
                assert multi.shape == ring.shape
                assert np.abs(multi - ring).max() <= 1e-13 * np.abs(ring).max(), m

    @pytest.mark.parametrize("kind", [EB, GCV])
    @pytest.mark.parametrize("family", ["lattice", "sobol"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_partials_match_central_differences(self, d, family, kind):
        # criterion 9's set-up and tolerances, on the multilinear spectrum
        rng = np.random.default_rng(d)
        m, n = 5, 32
        for i, order in enumerate((1, 2) * 4):
            kernel = "bernoulli" if family == "lattice" else "walsh1"
            gen, _, spectra = subset_spectra(family, kernel, order if kernel == "bernoulli"
                                             else 1, d, m, seed=i)
            pts = gen.points(0, n).points
            y = np.cos(2 * np.pi * pts[:, 0]) + pts.sum(axis=1) ** 2
            weights = data_weights(transforms.fbt(y, family), n)
            eta = rng.uniform(0.3, 2.5, size=d)

            def loss(ev):
                return objective(kind, transformed_data(
                    weights, subset_coefficients(ev)[0] @ spectra, n))

            td = transformed_data(weights, subset_coefficients(eta)[0] @ spectra, n)
            grad = held_derivatives(spectra, *subset_coefficients(eta), td, kind)[0] / eta
            num = np.empty(d)
            for ell in range(d):
                h = 1e-4 * eta[ell]
                up, dn = eta.copy(), eta.copy()
                up[ell] += h
                dn[ell] -= h
                num[ell] = (loss(up) - loss(dn)) / (2 * h)
            tol = 1e-5 * np.maximum(np.abs(grad), np.abs(num)) + 1e-7
            assert (np.abs(grad - num) <= tol).all(), (i, grad, num)

    @pytest.mark.parametrize("kind", [EB, FULL, GCV])
    @pytest.mark.parametrize("family", ["lattice", "sobol"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_hessian_matches_differences_of_the_gradient(self, d, family, kind):
        # the Newton search's Hessian in t = log eta, against Richardson-
        # extrapolated central differences of the analytic gradient, at a
        # log eta near each bound and one between them
        kernel, order = ("bernoulli", 2) if family == "lattice" else ("walsh1", 1)
        m, n = 10, 1 << 10
        gen, _, spectra = subset_spectra(family, kernel, order, d, m)
        pts = gen.points(0, n).points
        y = np.cos(2 * np.pi * pts[:, 0]) + np.prod(np.sin(np.pi * pts), axis=1)
        weights = data_weights(transforms.fbt(y, family), n)

        def derivatives(t):
            eta = np.exp(t)
            td = transformed_data(weights, subset_coefficients(eta)[0] @ spectra, n)
            return held_derivatives(spectra, *subset_coefficients(eta), td, kind)

        lo, hi = LOG_ETA_BOUNDS
        for t in (np.linspace(lo + 1, lo + 2, d), np.linspace(-0.5, 1.0, d),
                  np.linspace(hi - 2, hi - 1, d)):
            grad, hess = derivatives(t)
            assert grad.shape == (d,) and hess.shape == (d, d)
            scale = np.abs(hess).max()
            assert np.abs(hess - hess.T).max() <= 1e-9 * scale
            num = np.empty((d, d))
            for ell in range(d):
                e = np.zeros(d)
                e[ell] = 1.0

                def diff(h):
                    return (derivatives(t + h * e)[0] - derivatives(t - h * e)[0]) / (2 * h)

                num[:, ell] = (4 * diff(2e-3) - diff(4e-3)) / 3
            assert np.abs(hess - num).max() <= 1e-5 * scale, (t, hess, num)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_partials_are_the_jacobian_spectra(self, d):
        # the subset path's contraction against the ring path's, for one
        # adjoint row, within rounding of the sum of |a_k| |d lambda_k / dt_l|
        _, bases, spectra = subset_spectra("sobol", "walsh1", 1, d, 6)
        eta = np.array([0.4, 1.7, 0.9])[:d]
        ring = kernels.ring_from_bases(eta, bases)
        adjoint = np.random.default_rng(d).standard_normal(64)
        subset = held_derivatives(spectra, *subset_coefficients(eta), None, EB,
                                  fixed_adjoint(adjoint))[0]
        ring_path = ring_gradient(bases, ring, eta, adjoint, "sobol", 64)
        partials = jacobian_spectra(eta, bases, ring, "sobol", 64)
        scale = np.abs(partials) @ np.abs(adjoint) * eta
        assert subset.shape == (d,)
        assert (np.abs(subset - ring_path) <= 1e-13 * scale).all()

    def test_passes_build_no_whole_work_row(self):
        # one evaluation at d = 3 and 2^18 columns, the coefficients and
        # pi @ spectra, allocates its output row and nothing row-sized more
        import tracemalloc

        d, cols = 3, (1 << 18) + 1
        spectra = np.random.default_rng(4).random(((1 << d) - 1, cols))
        eta = np.array([0.3, 2.0, 0.7])
        tracemalloc.start()
        try:
            subset_coefficients(eta)[0] @ spectra
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - cols * 8 < cols * 8 / 32, peak


@functools.cache
def held_setup(family, d, m, products="powers", order=1, seed=3):
    """(spectra, data weights) of a matched setup at 2^m: the power spectra
    (shared eta) or the subset-product spectra (per-dimension eta), with the
    kernels the loops default to (on the lattice at order 1 by default,
    which clamps no eigenvalue near the box's bounds here) and smooth data."""
    n = 1 << m
    gen = (nodes.make_lattice(d, seed=seed) if family == "lattice"
           else nodes.make_sobol(d, seed=seed))
    kernel = "bernoulli" if family == "lattice" else "walsh1"
    bases = kernels.column_bases(KernelSpec(kernel, order, np.ones(d)), gen, m)
    rows = (kernels.elementary_symmetric if products == "powers"
            else kernels.subset_products)(bases)
    pts = gen.points(0, n).points
    y = np.cos(2 * np.pi * pts[:, 0]) + np.prod(np.sin(np.pi * pts), axis=1)
    return column_spectrum(rows, family, n), data_weights(transforms.fbt(y, family), n)


def held_state(family, d, m, products, t, kind, order=1):
    """(spectra, pi, member, td) at log eta t on a held_setup."""
    spectra, weights = held_setup(family, d, m, products, order)
    eta = np.exp(t)
    if products == "powers":
        pi, member = power_coefficients(float(eta[0]), d)
        lams = pi @ spectra
    else:
        pi, member = subset_coefficients(eta)
        lams = pi @ spectra
    return spectra, pi, member, transformed_data(weights, lams, 1 << m)


def richardson(f, t, h=2e-3):
    """f'(t) by Richardson-extrapolated central differences with steps h and 2h."""
    def diff(s):
        return (f(t + s) - f(t - s)) / (2 * s)

    return (4 * diff(h) - diff(2 * h)) / 3


class TestHeldDerivatives:
    """held_derivatives, the blocked gradient and Hessian on the held power
    and subset-product spectra, against differences of the loss and of
    itself, and against the whole-row contraction of tests/oracles.py."""

    @pytest.mark.parametrize("m", [10, 16])
    @pytest.mark.parametrize("d", [1, 4, 13])
    @pytest.mark.parametrize("family", ["lattice", "sobol"])
    @pytest.mark.parametrize("kind", [EB, FULL, GCV])
    def test_polynomial_derivatives_match_differences(self, kind, family, d, m):
        # gradient against Richardson-extrapolated central differences of
        # the loss, Hessian against those of the gradient, at a log eta near
        # each bound and one between; 2^16 runs several column blocks
        lo, hi = LOG_ETA_BOUNDS

        def state(t):
            return held_state(family, d, m, "powers", np.array([t]), kind)

        def derivatives(t):
            spectra, pi, member, td = state(t)
            return held_derivatives(spectra, pi, member, td, kind)

        assert held_setup(family, d, m)[0].shape[1] > inference._HELD_BLOCK or m < 16
        for t in (lo + 1.0, 0.3, hi - 1.0):
            assert state(t)[3].n_clamped == 0  # a loss set by rounding has no derivative
            grad, hess = derivatives(t)
            assert grad.shape == (1,) and hess.shape == (1, 1)
            num = richardson(lambda u: objective(kind, state(u)[3]), t)
            assert abs(grad[0] - num) <= 1e-6 * max(abs(grad[0]), abs(num)) + 1e-9, \
                (t, grad, num)
            num = richardson(lambda u: derivatives(u)[0][0], t)
            assert abs(hess[0, 0] - num) <= 1e-5 * max(abs(hess[0, 0]), abs(num)) + 1e-9, \
                (t, hess, num)

    @pytest.mark.parametrize("kind", [EB, GCV])
    @pytest.mark.parametrize("d,t", [(1, LOG_ETA_BOUNDS[1] - 1.0),
                                     (4, LOG_ETA_BOUNDS[0] + 1.0)])
    def test_clamped_eigenvalues_have_no_derivative(self, d, t, kind):
        # the order-2 lattice kernel at 2^16 clamps its smallest eigenvalues
        # to a constant there, by the same count on both sides of t: the
        # loss's derivatives are those of the unclamped entries alone

        def state(t):
            return held_state("lattice", d, 16, "powers", np.array([t]), kind, order=2)

        def derivatives(t):
            spectra, pi, member, td = state(t)
            return held_derivatives(spectra, pi, member, td, kind)

        assert len({state(t + s)[3].n_clamped for s in (-4e-3, 0.0, 4e-3)}) == 1
        assert state(t)[3].n_clamped > 0
        grad, hess = derivatives(t)
        num = richardson(lambda u: objective(kind, state(u)[3]), t)
        assert abs(grad[0] - num) <= 1e-6 * max(abs(grad[0]), abs(num)) + 1e-9, (grad, num)
        num = richardson(lambda u: derivatives(u)[0][0], t)
        assert abs(hess[0, 0] - num) <= 1e-5 * max(abs(hess[0, 0]), abs(num)) + 1e-9, \
            (hess, num)

    @pytest.mark.parametrize("kind", [EB, FULL, GCV])
    @pytest.mark.parametrize("family", ["lattice", "sobol"])
    @pytest.mark.parametrize("products,d", [("powers", 1), ("powers", 4), ("powers", 13),
                                            ("subsets", 1), ("subsets", 2), ("subsets", 3)])
    def test_blocks_match_the_whole_row_contraction(self, products, d, family, kind):
        # within 1e-13 of the terms summed: the same contraction over absolute
        # values bounds every entry's rounding
        m = 16
        rng = np.random.default_rng(d)
        for t in rng.uniform(-3.0, 3.0, (3, 1 if products == "powers" else d)):
            spectra, pi, member, td = held_state(family, d, m, products, t, kind)
            a, curvature = eigenvalue_adjoint(td, kind, curvature=True)
            whole = whole_row_derivatives(spectra, pi, member, a, curvature)
            scale = whole_row_derivatives(np.abs(spectra), pi, member, np.abs(a),
                                          tuple(np.abs(part) for part in curvature))
            for ours, ref, bound in zip(held_derivatives(spectra, pi, member, td, kind),
                                        whole, scale):
                assert ours.shape == ref.shape
                assert (np.abs(ours - ref) <= 1e-13 * bound).all(), (t, ours, ref)

    @pytest.mark.parametrize("kind", [EB, GCV])
    @pytest.mark.parametrize("family", ["lattice", "sobol"])
    def test_adjoint_blocks_are_the_whole_rows_entries(self, family, kind):
        # each entry reads its own eigenvalue, weight and the scalar sums: any
        # cut into blocks gives the whole row's entries bit for bit
        spectra, pi, member, td = held_state(family, 3, 10, "subsets",
                                             np.array([0.2, -0.4, 1.1]), kind)
        whole = eigenvalue_adjoint(td, kind, curvature=True)
        assert np.array_equal(eigenvalue_adjoint(td, kind), whole[0])
        cols = whole[0].shape[0]
        for cuts in ([0, 1, cols], [0, 7, 300, cols - 1, cols], [0, cols - 2, cols + 5]):
            parts = [eigenvalue_adjoint(td, kind, True, lo, hi)
                     for lo, hi in zip(cuts, cuts[1:])]
            assert np.array_equal(np.concatenate([a for a, _ in parts]), whole[0])
            for i in range(2):
                assert np.array_equal(np.concatenate([c[i] for _, c in parts], axis=-1),
                                      whole[1][i])
            assert all(c[2] is whole[1][2] for _, c in parts)

    def test_pass_builds_no_whole_row(self):
        # at 2^18 columns a whole row is 2 MB, 16 blocks; the pass holds
        # at most a dozen rows of a block, its own and its adjoint's
        import tracemalloc

        d, cols = 3, (1 << 18) + 1
        spectra = np.random.default_rng(4).random(((1 << d) - 1, cols))
        td = transformed_data(np.random.default_rng(5).random(cols - 1),
                              subset_coefficients(np.ones(d))[0] @ spectra, 1 << 19)
        pi, member = subset_coefficients(np.array([0.3, 2.0, 0.7]))
        for kind in (EB, GCV):
            objective(kind, td)  # the scalar sums the loss holds
            tracemalloc.start()
            try:
                held_derivatives(spectra, pi, member, td, kind)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < cols * 8, peak


class TestAdjointAccuracy:
    """Each path's adjoint gradient against the derivative-row form (one
    transformed Jacobian row per eta, tests/oracles.py), both held to an
    80-bit contraction at the same eigenvalues and data weights."""

    @pytest.mark.parametrize("kind", [EB, GCV])
    @pytest.mark.parametrize("family", ["lattice", "sobol"])
    @pytest.mark.parametrize("path,d", [("subset", 2), ("subset", 3), ("ring", 2),
                                        ("ring", 3), ("ring", 4)])
    def test_no_further_from_long_double_than_the_derivative_rows(self, path, d,
                                                                  family, kind):
        kernel, order = ("bernoulli", 2) if family == "lattice" else ("walsh1", 1)
        rng = np.random.default_rng(d)
        for m in (5, 10):
            n = 1 << m
            gen, bases, spectra = subset_spectra(family, kernel, order, d, m)
            pts = gen.points(0, n).points
            y = np.cos(2 * np.pi * pts[:, 0]) + np.prod(np.sin(np.pi * pts), axis=1)
            weights = data_weights(transforms.fbt(y, family), n)
            for eta in rng.uniform(0.3, 2.5, (3, d)):
                ring = kernels.ring_from_bases(eta, bases)
                if path == "subset":
                    td = transformed_data(weights, subset_coefficients(eta)[0] @ spectra, n)
                    grad = held_derivatives(spectra, *subset_coefficients(eta), td, kind)[0]
                else:
                    td = transformed_data(weights, column_spectrum(ring, family, n), n)
                    grad = ring_gradient(bases, ring, eta, eigenvalue_adjoint(td, kind),
                                         family, n)
                rows = objective_gradient(td, kind, jacobian_spectra(eta, bases, ring,
                                                                     family, n)) * eta
                ref = extended_eta_gradient(td, kind, eta, bases, family) * eta
                ours = np.abs(grad - ref).max()
                oracle = np.abs(rows - ref).max()
                assert ours <= max(10 * oracle, 1e-12 * np.abs(ref).max()), \
                    (m, eta, float(ours), float(oracle))


def zeta_reference_width(eta: float, m: int, y: np.ndarray, dps: int = 50):
    """Extended-precision EB width for the d=1 order-1 kernel on a lattice.

    The ring eigenvalues have the exact aliased-series form
    lam_k = eta * n / (2 pi^2 n^2) * [zeta(2, k/n) + zeta(2, 1 - k/n)] with
    lam_0 = eta / (6 n); the zeta pair is summed in closed form by the
    reflection identity zeta(2, x) + zeta(2, 1 - x) = pi^2 / sin^2(pi x).
    Everything is evaluated in mpmath.
    """
    import mpmath as mp

    mp.mp.dps = dps
    n = 1 << m
    e = mp.mpf(eta)
    lam_ring1 = e / (6 * n)
    pref = e * n / (2 * mp.pi**2 * n**2)
    brev = nodes._brev_table(m)
    y_t = np.fft.fft(y[brev])[brev]
    s1 = mp.mpf(0)
    for k in range(1, n):
        freq = int(brev[k])  # spectrum entry k sits at frequency brev(k)
        lam_k = pref * mp.pi**2 / mp.sin(mp.pi * mp.mpf(freq) / n) ** 2
        w = mp.mpf(float(y_t[k].real)) ** 2 + mp.mpf(float(y_t[k].imag)) ** 2
        s1 += w / lam_k
    lam1 = n + lam_ring1
    err = mp.mpf("2.58") / n * mp.sqrt(lam_ring1 / lam1 * s1)
    return float(err), float(lam_ring1 / lam1)


class TestCancellationSafety:
    @staticmethod
    def _setup(ring_over_n: float, m: int):
        n = 1 << m
        eta = 6.0 * n * (ring_over_n * n)
        gen = nodes.LatticeGenerator((1,), np.zeros(1), max_log2_n=m)
        rng = np.random.default_rng(77)
        y = rng.standard_normal(n)
        spec = KernelSpec("bernoulli", 1, np.array([eta]))
        col = kernels.ring_from_bases(spec.eta, kernels.column_bases(spec, gen, m))
        brev = nodes._brev_table(m)
        td = transformed_data(data_weights(np.fft.fft(y[brev])[: n // 2 + 1], n),
                              column_spectrum(col, "lattice", n), n)
        return eta, y, col, td

    def test_ring_ratio_matches_extended_precision(self):
        for ring_over_n in (1e-10, 1e-13):
            eta, y, col, td = self._setup(ring_over_n, 10)
            _, ratio_ref = zeta_reference_width(eta, 10, y)
            assert td.lam_ring1 / td.lam1 == pytest.approx(ratio_ref, rel=1e-6)

    def test_fast_width_matches_extended_precision(self):
        eta, y, col, td = self._setup(1e-10, 10)
        err_ref, _ = zeta_reference_width(eta, 10, y)
        fast = credible_width(EB, td)
        assert fast > 0
        assert fast == pytest.approx(err_ref, rel=1e-6)

    def test_naive_form_collapses_near_machine_precision(self):
        # ring mass ~5e-17 of lam1 at n = 2^14: the naive 1 - n/lam1 quantizes
        # to whole ulps of 1 while the ring form tracks extended precision
        m = 14
        n = 1 << m
        eta, y, col, td = self._setup(5e-17, m)
        err_ref, ratio_ref = zeta_reference_width(eta, m, y)
        fast = credible_width(EB, td)
        assert fast > 0 and fast == pytest.approx(err_ref, rel=1e-6)

        lam_naive = column_spectrum(1.0 + col, "lattice", n)
        one_minus = 1.0 - n / lam_naive[0]
        s1 = td.data_sum()
        naive = 2.58 / n * np.sqrt(max(one_minus, 0.0) * s1)
        assert abs(naive - err_ref) / err_ref > 1e-2


class TestObjectives:
    def test_n2_closed_form_eb(self):
        td = TransformedData(data_weights(np.array([3.0, 2.0]), 2), lam_ring1=1.0,
                             lams_rest=np.array([0.5]), n=2)
        expected = np.log(4.0 / 0.5) + 0.5 * (np.log(3.0) + np.log(0.5))
        assert objective_eb(td) == pytest.approx(expected, rel=1e-14)

    def test_n2_closed_form_gcv(self):
        td = TransformedData(data_weights(np.array([3.0, 2.0]), 2), lam_ring1=1.0,
                             lams_rest=np.array([0.5]), n=2)
        expected = np.log(4.0 / 0.25) - 2.0 * np.log(1.0 / 3.0 + 2.0)
        assert objective_gcv(td) == pytest.approx(expected, rel=1e-14)

    def test_degenerate_data(self):
        td = TransformedData(data_weights(np.array([5.0, 0.0, 0.0, 0.0]), 4),
                             lam_ring1=0.5,
                             lams_rest=np.ones(3), n=4)
        with pytest.raises(DegenerateDataError):
            objective_eb(td)

    def test_kernel_scaling_leaves_objectives_unchanged(self):
        _, _, _, _, _, td = make_matched_td("lattice", "bernoulli", 1, 0.9, 5, 2)
        for b in (0.25, 7.0):
            scaled = TransformedData(td.weights, b * td.lam_ring1 + (b - 1) * td.n,
                                     b * td.lams_rest, td.n)
            assert objective_eb(scaled) == pytest.approx(objective_eb(td), abs=1e-10)
            assert objective_gcv(scaled) == pytest.approx(objective_gcv(td), abs=1e-10)

    def test_scaling_argmin_invariance_on_grid(self):
        gen, pts, y, spec, _, _ = make_matched_td("lattice", "bernoulli", 1, 1.0, 5, 2)
        weights = data_weights(transforms.fbt(y, "lattice"), 32)
        bases = kernels.lattice_column_bases(spec, gen, 5)
        grid = np.geomspace(0.01, 100, 25)

        def losses(scale):
            out = []
            for eta in grid:
                col = kernels.ring_from_bases(np.full(2, eta), bases)
                td0 = transformed_data(weights, column_spectrum(col, "lattice", 32), 32)
                td = TransformedData(weights,
                                     scale * td0.lam_ring1 + (scale - 1) * 32,
                                     scale * td0.lams_rest, 32)
                out.append(objective_eb(td))
            return np.array(out)

        assert np.argmin(losses(1.0)) == np.argmin(losses(5.0))

    def test_matches_dense_objective_up_to_log_n(self):
        # fast loss log(S1) + (1/n) sum log lam equals the explicit-inverse
        # form log(y'[C^-1 - ...]y) + (1/n) log det C plus exactly log n
        for kernel, order in (("bernoulli", 1), ("bernoulli", 2)):
            gen, pts, y, spec, col, td = make_matched_td("lattice", kernel,
                                                         order, 1.7, 3, 2)
            gram = kernels.gram_matrix(spec, pts.points)
            dense = dense_posterior(y, gram, np.ones(8), 1.0, EB).loss
            assert objective_eb(td) - dense == pytest.approx(np.log(8), rel=1e-8)

    def test_gcv_matches_dense_form(self):
        gen, pts, y, spec, col, td = make_matched_td("lattice", "bernoulli", 1,
                                                     0.8, 3, 2)
        gram = kernels.gram_matrix(spec, pts.points)
        inv = np.linalg.inv(gram)
        inv2 = inv @ inv
        ones = np.ones(8)
        quad2 = y @ inv2 @ y - (ones @ inv2 @ y) ** 2 / (ones @ inv2 @ ones)
        dense = np.log(quad2) - 2.0 * np.log(np.trace(inv))
        assert objective_gcv(td) - dense == pytest.approx(np.log(8), rel=1e-8)


class TestObjectiveGradient:
    def analytic_and_numeric(self, kind, family, kernel, order, m, d, shared, seed):
        rng = np.random.default_rng(seed)
        eta = (float(rng.uniform(0.3, 2.5)) if shared
               else rng.uniform(0.3, 2.5, size=d))
        gen, pts, y, spec, col, td = make_matched_td(family, kernel, order, eta,
                                                     m, d, seed=seed)
        bases = kernels.column_bases(spec, gen, m)
        grad = ring_gradient(bases, col, spec.eta, eigenvalue_adjoint(td, kind),
                             family, 1 << m) / spec.eta
        if shared:  # d/d eta of one shared eta: the partials' sum
            grad = grad.sum(keepdims=True)

        def loss_at(eta_vec):
            c = kernels.ring_from_bases(eta_vec, bases)
            tdh = transformed_data(td.weights, column_spectrum(c, family, 1 << m),
                                   1 << m)
            return objective(kind, tdh)

        base = spec.eta.copy()
        if shared:
            h = 1e-4
            num = np.array([(loss_at(base * (1 + h)) - loss_at(base * (1 - h)))
                            / (2 * h * base[0])])
        else:
            num = np.empty(d)
            for ell in range(d):
                h = 1e-4 * base[ell]
                up, dn = base.copy(), base.copy()
                up[ell] += h
                dn[ell] -= h
                num[ell] = (loss_at(up) - loss_at(dn)) / (2 * h)
        return grad, num

    @pytest.mark.parametrize("kind", [EB, GCV])
    def test_matches_central_difference(self, kind):
        # rel 1e-5 plus a small absolute floor covering the difference
        # quotient's own rounding noise near stationary points
        rng = np.random.default_rng(999 if kind == EB else 998)
        for i in range(100):
            family = "lattice" if i % 3 else "sobol"
            kernel = "walsh1" if family == "sobol" else ("bernoulli", "bernoulli")[i % 2]
            order = 1 if kernel == "walsh1" else (1, 2)[i % 2]
            d = int(rng.integers(1, 4))
            shared = bool(i % 2)
            grad, num = self.analytic_and_numeric(kind, family, kernel, order,
                                                  5, d, shared, seed=i)
            tol = 1e-5 * np.maximum(np.abs(grad), np.abs(num)) + 1e-7
            assert (np.abs(grad - num) <= tol).all(), (kind, i, grad, num)

    def test_zero_derivative_gives_zero_gradient(self):
        # zero bases and zero subset spectra: no eigenvalue moves with eta
        _, _, _, _, col, td = make_matched_td("lattice", "bernoulli", 1, 1.0, 4, 2)
        eta = np.ones(2)
        for kind in (EB, GCV):
            adjoint = eigenvalue_adjoint(td, kind)
            assert (ring_gradient(np.zeros((2, 9)), col, eta, adjoint, "lattice", 16)
                    == 0).all()
            for part in held_derivatives(np.zeros((3, 9)), *subset_coefficients(eta), td,
                                         kind):
                assert (part == 0).all()

    @pytest.mark.parametrize("kind", [EB, GCV])
    def test_a_zero_kernel_factor_gives_the_exact_gradient(self, kind):
        # walsh1's base is -1/2 at lags in [1/2, 1): at eta_0 = 2 that factor
        # is 0, and the gradient there multiplies the other factors out
        gen, _, _, spec, col, td = make_matched_td("sobol", "walsh1", 1,
                                                   np.array([2.0, 1.0]), 4, 2)
        bases = kernels.column_bases(spec, gen, 4)
        assert (1.0 + spec.eta[0] * bases[0] == 0).any()
        grad = ring_gradient(bases, col, spec.eta, eigenvalue_adjoint(td, kind),
                             "sobol", 16) / spec.eta

        def loss_at(eta):
            c = kernels.ring_from_bases(eta, bases)
            return objective(kind, transformed_data(td.weights,
                                                    column_spectrum(c, "sobol", 16), 16))

        num = np.empty(2)
        for ell in range(2):
            step = np.zeros(2)
            step[ell] = 1e-4 * spec.eta[ell]
            num[ell] = (loss_at(spec.eta + step) - loss_at(spec.eta - step)) / (2 * step[ell])
        assert np.isfinite(grad).all() and (grad != 0).all()
        assert grad == pytest.approx(num, rel=1e-5, abs=1e-7)
        ref = extended_eta_gradient(td, kind, spec.eta, bases, "sobol")
        assert np.abs(grad - ref).max() <= 1e-12 * np.abs(ref).max()


class TestStudentT:
    def test_cauchy_closed_form(self):
        # dof = 1 is Cauchy: quantile = tan(pi (p - 1/2))
        assert student_t_quantile(1) == pytest.approx(np.tan(np.pi * 0.495), rel=1e-10)
        assert student_t_quantile(1) == pytest.approx(63.657, rel=1e-4)

    def test_normal_limit(self):
        from scipy.special import ndtri
        assert student_t_quantile(10**6) == pytest.approx(ndtri(0.995), abs=1e-3)
        assert student_t_quantile(10**6) == pytest.approx(2.5758, abs=1e-3)

    def test_monotone_in_dof(self):
        vals = [student_t_quantile(k) for k in range(1, 101)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_dof_validation(self):
        with pytest.raises(ValueError):
            student_t_quantile(0)


class TestCredibleWidth:
    def test_constant_data_gives_zero(self):
        td = TransformedData(data_weights(np.array([4.0, 0.0, 0.0, 0.0]), 4),
                             lam_ring1=0.3,
                             lams_rest=np.ones(3), n=4)
        for kind in (EB, FULL, GCV):
            assert credible_width(kind, td) == 0.0

    def test_full_at_least_eb(self):
        rng = np.random.default_rng(15)
        for _ in range(25):
            n = 16
            td = TransformedData(data_weights(rng.standard_normal(n), n),
                                 float(rng.uniform(0, 5)),
                                 rng.uniform(0.1, 3.0, size=n - 1), n)
            assert credible_width(FULL, td) >= credible_width(EB, td)

    def test_n2_hand_computation(self):
        td = TransformedData(data_weights(np.array([0.0, 2.0]), 2), lam_ring1=1.0,
                             lams_rest=np.array([1.0]), n=2)
        assert credible_width(EB, td) == pytest.approx(2.58 / np.sqrt(3.0), rel=1e-12)

    def test_scale_equivariance(self):
        _, _, y, _, col, td = make_matched_td("lattice", "bernoulli", 2, 1.1, 5, 2)
        for a in (3.0, 0.125):
            scaled = TransformedData(data_weights(a * transforms.fbt(y, "lattice"), td.n),
                                     td.lam_ring1, td.lams_rest, td.n)
            for kind in (EB, FULL, GCV):
                assert credible_width(kind, scaled) == pytest.approx(
                    a * credible_width(kind, td), rel=1e-12)


class TestDensePosterior:
    def test_identity_gram(self):
        rng = np.random.default_rng(30)
        y = rng.standard_normal(12)
        post = dense_posterior(y, np.eye(12), np.ones(12), 1.0, EB)
        assert post.loss == pytest.approx(np.log(((y - y.mean()) ** 2).sum()), rel=1e-12)
        assert post.mu_hat == pytest.approx(y.mean(), rel=1e-12)

    def test_matched_kernel_mu_is_sample_mean(self):
        gen, pts, y, spec, col, td = make_matched_td("lattice", "bernoulli", 1,
                                                     0.6, 5, 2)
        gram = kernels.gram_matrix(spec, pts.points)
        for kind in (EB, FULL, GCV):
            post = dense_posterior(y, gram, np.ones(32), 1.0, kind)
            assert post.mu_hat == pytest.approx(y.mean(), abs=1e-10 * abs(y.mean()))

    def test_widths_agree_with_fast(self):
        for family, kernel, order, m in (("lattice", "bernoulli", 1, 6),
                                         ("sobol", "walsh1", 1, 5)):
            gen, pts, y, spec, col, td = make_matched_td(family, kernel, order,
                                                         1.2, m, 3)
            nodes_arg = pts.points if family == "lattice" else pts.int_points
            gram = kernels.gram_matrix(spec, nodes_arg)
            n = 1 << m
            for kind in (EB, FULL, GCV):
                post = extended_dense_posterior(y, gram, np.ones(n), 1.0, kind)
                assert post.err == pytest.approx(credible_width(kind, td), rel=1e-8)

    def test_non_pd_error(self):
        bad = -np.eye(4)
        with pytest.raises(NonPositiveDefiniteError):
            dense_posterior(np.ones(4), bad, np.ones(4), 1.0, EB)


def per_scalar_eta(t):
    # the eta map one scalar at a time: clip, exponentiate, clip again
    return np.clip(np.exp(np.clip(t, np.log(1e-8), np.log(1e8))), 1e-8, 1e8)


class TestHyperparameterSearch:
    def test_eta_map_matches_per_scalar_formula(self):
        rng = np.random.default_rng(2026)
        t = rng.uniform(-25.0, 25.0, size=20_000)
        t[:4] = np.log(1e-8), np.log(1e8), -100.0, 100.0
        expect = np.array([per_scalar_eta(v) for v in t])
        whole = cubature._eta_from_log(t)
        assert np.array_equal(whole, expect)
        for lo in range(0, t.size, 2):  # the two-entry per-dimension case
            assert np.array_equal(cubature._eta_from_log(t[lo:lo + 2]), expect[lo:lo + 2])
        assert whole[1] == 1e8 and whole[3] == 1e8
        assert whole[0] == 1e-8 and whole[2] == 1e-8

    def test_eta_map_leaves_order_entries_to_their_maps(self):
        # a searched order leads the coordinates; log eta follows, per dimension
        t = np.array([0.4, 100.0, -100.0])
        r = KernelSpec("truncated_series", 2.0, np.ones(2))
        spec = cubature._kernel_at(r, t, search_order=True)
        assert spec.order == 1.0 + np.exp(0.4)
        assert spec.eta.tolist() == [1e8, 1e-8]
        q = KernelSpec("exp_decay", 0.5, np.ones(3))  # one shared log eta
        spec = cubature._kernel_at(q, np.array([-0.3, 100.0]), search_order=True)
        assert spec.order == 1.0 / (1.0 + np.exp(-0.3))
        assert spec.eta.tolist() == [1e8] * 3
        spec = cubature._kernel_at(q, np.array([-0.3]), search_order=False)
        assert spec.order == 0.5 and spec.eta.tolist() == [np.exp(-0.3)] * 3

    def test_map_round_trip(self):
        for family, order in (("truncated_series", 1.75), ("exp_decay", 0.3)):
            to_t = cubature._ORDER_MAPS[family][1]
            spec0 = KernelSpec(family, order, np.ones(2))
            spec = cubature._kernel_at(spec0, np.array([to_t(order), np.log(2.5)]),
                                       search_order=True)
            assert abs(spec.order - order) < 1e-12
            assert np.abs(spec.eta - 2.5).max() < 1e-12

    def test_quadratic_surrogate_converges(self):
        calls = {"n": 0}

        def quad(t):
            calls["n"] += 1
            return float((t[0] - 1.3) ** 2), None

        res = search_hyperparameters(quad, np.zeros(1), budget=50)
        assert abs(res.t[0] - 1.3) < 1e-4
        assert calls["n"] <= 50
        assert not res.capped  # Nelder-Mead stopped on its own tolerance

    def test_spent_budget_is_reported_as_capped(self):
        quad = lambda t: (float((t[0] - 1.3) ** 2), None)  # noqa: E731
        res = search_hyperparameters(quad, np.zeros(1), budget=2)
        assert res.capped and res.evaluations == 2

    @staticmethod
    def bowl(seen, centre=(1.5, -2.0)):
        """A 2-D quadratic bowl that records every point it is evaluated at,
        with its gradient."""
        c = np.asarray(centre)
        scale = np.array([1.0, 4.0])

        def obj(t):
            seen.append(tuple(t))
            return float((scale * (t - c) ** 2).sum()), None

        return obj, lambda t, payload: 2 * scale * (t - c)

    def test_gradient_search_evaluates_the_start_once(self):
        seen = []
        obj, grad = self.bowl(seen)
        res = search_hyperparameters(obj, np.zeros(2), budget=100, gradient_fn=grad)
        assert seen[0] == (0.0, 0.0) and seen.count((0.0, 0.0)) == 1
        assert res.evaluations == len(seen) == len(set(seen)) < 30
        assert np.abs(res.t - [1.5, -2.0]).max() < 1e-4

    # two or more coordinates: L-BFGS-B with a gradient, Nelder-Mead without
    @pytest.mark.parametrize("with_gradient", [True, False])
    def test_search_respects_the_budget(self, with_gradient):
        seen = []

        def obj(t):  # Rosenbrock's valley takes either search many steps
            seen.append(tuple(t))
            return float(100 * (t[1] - t[0] ** 2) ** 2 + (1 - t[0]) ** 2), None

        def grad(t, payload):
            return np.array([-400 * t[0] * (t[1] - t[0] ** 2) - 2 * (1 - t[0]),
                             200 * (t[1] - t[0] ** 2)])

        for budget in (1, 2, 3, 5, 8, 20):
            seen.clear()
            res = search_hyperparameters(obj, np.array([-1.2, 1.0]), budget=budget,
                                         gradient_fn=grad if with_gradient else None)
            assert res.evaluations == len(seen) == len(set(seen)) <= budget
        assert res.evaluations == 20

    def test_gradient_search_never_leaves_the_bounds(self):
        # the bowl's centre lies past both bounds, and so does the start
        lo, hi = LOG_ETA_BOUNDS
        seen = []
        obj, grad = self.bowl(seen, centre=(40.0, -40.0))
        res = search_hyperparameters(obj, np.array([30.0, 0.0]), budget=100,
                                     gradient_fn=grad)
        assert seen[0] == (hi, 0.0)
        assert all(lo <= u <= hi for t in seen for u in t)
        assert res.t.tolist() == [hi, lo]

    def test_gradient_search_nonfinite_start_raises(self):
        with pytest.raises(NonFiniteStartError):
            search_hyperparameters(lambda t: (np.nan, None), np.zeros(2), budget=5,
                                   gradient_fn=lambda t, payload: np.zeros(2))

    def test_gradient_search_keeps_the_best_point_past_a_rejected_one(self):
        # the bowl's centre sits where the objective is rejected: the search
        # returns the best finite point seen, and never asks a gradient there
        seen, asked = [], []
        c, scale = np.array([3.0, 3.0]), np.array([0.25, 1.0])

        def bowl(t):
            return float((scale * (np.asarray(t) - c) ** 2).sum())

        def obj(t):
            seen.append(tuple(t))
            if t[0] > 2.0:
                raise NonPositiveDefiniteError("past the wall")
            return bowl(t), tuple(t)

        def grad(t, payload):
            asked.append(tuple(t))
            return 2 * scale * (t - c)

        res = search_hyperparameters(obj, np.zeros(2), budget=50, gradient_fn=grad)
        rejected = {t for t in seen if t[0] > 2.0}
        accepted = [t for t in seen if t[0] <= 2.0]
        assert rejected and not rejected & set(asked)
        assert tuple(res.t) == res.payload == min(accepted, key=bowl) != (0.0, 0.0)
        assert res.evaluations == len(seen) == len(set(seen))

    def test_gradient_search_backtracks_from_a_rejected_trial_point(self):
        # the first trial step from (0, 0) lands where the objective is
        # rejected; the search must step back, not end at the start
        seen = []
        c = np.array([3.0, 2.0])

        def bowl(t):
            return float(((np.asarray(t) - c) ** 2).sum())

        def obj(t):
            seen.append(tuple(t))
            if t[0] > 1.0 and t[1] > 1.0:
                raise NonPositiveDefiniteError("both past 1")
            return bowl(t), None

        res = search_hyperparameters(obj, np.zeros(2), budget=100,
                                     gradient_fn=lambda t, payload: 2 * (t - c))
        assert min(seen[1]) > 1.0  # the first trial point is rejected
        assert not (res.t > 1.0).all()
        assert bowl(res.t) < bowl((0.0, 0.0)) / 3
        assert res.evaluations == len(seen) == len(set(seen))

    @pytest.mark.parametrize("reject", [NonPositiveDefiniteError, DegenerateDataError,
                                        None])
    def test_gradient_runs_once_right_after_each_finite_value(self, reject):
        # the gradient may read what the objective just built: it runs once
        # per distinct point of finite value, right after the value there,
        # and never at a rejected point (one that raises, or a NaN value)
        log = []
        c = np.array([3.0, 3.0])

        def obj(t):
            log.append(("value", tuple(t)))
            if t[0] > 2.0:
                if reject is None:
                    return np.nan, None
                raise reject("past the wall")
            return float(((t - c) ** 2).sum()), None

        def grad(t, payload):
            log.append(("gradient", tuple(t)))
            return 2 * (t - c)

        res = search_hyperparameters(obj, np.zeros(2), budget=50, gradient_fn=grad)
        values = [t for kind, t in log if kind == "value"]
        finite = [t for t in values if t[0] <= 2.0]
        assert res.evaluations == len(values) == len(set(values)) > len(finite)
        assert [t for kind, t in log if kind == "gradient"] == finite
        for before, (kind, t) in zip(log, log[1:]):
            assert kind == "value" or before == ("value", t)

        log.clear()  # one coordinate with a gradient alone: the same rule
        res = search_hyperparameters(lambda t: obj(np.r_[t, 0.0]), np.zeros(1), budget=20,
                                     gradient_fn=lambda t, payload: grad(np.r_[t, 0.0],
                                                                         payload)[:1])
        values = [t for kind, t in log if kind == "value"]
        finite = [t for t in values if t[0] <= 2.0]
        assert res.evaluations == len(values) == len(set(values)) > len(finite)
        assert [t for kind, t in log if kind == "gradient"] == finite
        for before, (kind, t) in zip(log, log[1:]):
            assert kind == "value" or before == ("value", t)

    @pytest.mark.parametrize("hessian", [False, True])
    def test_derivatives_receive_the_payload_returned_at_their_point(self, hessian):
        # L-BFGS-B (a gradient alone) and the Newton search (with a Hessian)
        # both hand the derivatives the very object the objective returned
        # at the same t
        returned, asked = {}, []
        a, c = np.array([[1.0, 0.5], [0.5, 4.0]]), np.array([1.5, -2.0])

        def obj(t):
            returned[tuple(t)] = payload = object()
            return float((t - c) @ a @ (t - c)), payload

        def derivatives(t, payload):
            asked.append(tuple(t))
            assert payload is returned[tuple(t)]
            g = 2 * a @ (t - c)
            return (g, 2 * a) if hessian else g

        res = search_hyperparameters(obj, np.array([-3.0, 4.0]), budget=100,
                                     gradient_fn=derivatives, hessian=hessian)
        assert len(asked) >= 2 and np.abs(res.t - c).max() < 1e-4
        assert res.payload is returned[tuple(res.t)]

    # two or more coordinates with a Hessian: the projected Newton search
    @staticmethod
    def quadratic(seen, a, centre, reject=lambda t: False):
        """(t - centre)^T a (t - centre), recording every point it is
        evaluated at, rejected where reject(t), and its (gradient, Hessian)."""
        a, c = np.asarray(a, dtype=float), np.asarray(centre, dtype=float)

        def obj(t):
            seen.append(tuple(t))
            if reject(t):
                raise NonPositiveDefiniteError("rejected")
            return float((t - c) @ a @ (t - c)), None

        return obj, lambda t, payload: (2 * a @ (t - c), 2 * a)

    def test_newton_reaches_a_bowls_minimum_in_one_step(self):
        seen = []
        obj, derivatives = self.quadratic(seen, [[1.0, 0.5], [0.5, 4.0]], (1.5, -2.0))
        res = search_hyperparameters(obj, np.zeros(2), budget=100, gradient_fn=derivatives,
                                     hessian=True)
        assert seen == [(0.0, 0.0), tuple(res.t)] and not res.capped
        assert np.abs(res.t - [1.5, -2.0]).max() < 1e-12

    def test_newton_fixes_a_coordinate_at_its_bound(self):
        # the minimum lies past the upper bound in t_0; once t_0 sits there,
        # with the gradient pointing out of the box, it is fixed and the
        # step in t_1 is the reduced Newton step, to the minimum on the face
        lo, hi = LOG_ETA_BOUNDS
        seen = []
        obj, derivatives = self.quadratic(seen, [[2.0, 1.0], [1.0, 2.0]], (40.0, 0.0))
        res = search_hyperparameters(obj, np.zeros(2), budget=100, gradient_fn=derivatives,
                                     hessian=True)
        assert seen[1] == (hi, 0.0)
        assert all(lo <= u <= hi for t in seen for u in t)
        assert all(t[0] == hi for t in seen[1:])
        assert res.t[0] == hi and res.t[1] == pytest.approx((40.0 - hi) / 2, rel=1e-12)
        assert res.evaluations == len(seen) == 3 and not res.capped

    def test_newton_descends_from_an_indefinite_hessian(self):
        # t_0^4 / 4 - t_0^2 / 2 + t_1^2 has negative curvature in t_0 at the
        # start: the step takes |eigenvalues| and still goes downhill, to
        # the minimum at t_0 = 1
        seen = []

        def obj(t):
            seen.append(float(t[0] ** 4 / 4 - t[0] ** 2 / 2 + t[1] ** 2))
            return seen[-1], None

        def derivatives(t, payload=None):
            return (np.array([t[0] ** 3 - t[0], 2 * t[1]]),
                    np.array([[3 * t[0] ** 2 - 1, 0.0], [0.0, 2.0]]))

        assert np.linalg.eigvalsh(derivatives(np.array([0.1, 0.5]))[1]).min() < 0
        res = search_hyperparameters(obj, np.array([0.1, 0.5]), budget=100,
                                     gradient_fn=derivatives, hessian=True)
        assert not res.capped and min(seen) < seen[0]
        assert np.abs(res.t - [1.0, 0.0]).max() < 1e-4

    def test_newton_honours_the_budget(self):
        seen = []

        def obj(t):  # Rosenbrock's valley takes many steps
            seen.append(tuple(t))
            return float(100 * (t[1] - t[0] ** 2) ** 2 + (1 - t[0]) ** 2), None

        def derivatives(t, payload):
            x, y = t
            return (np.array([-400 * x * (y - x**2) - 2 * (1 - x), 200 * (y - x**2)]),
                    np.array([[1200 * x**2 - 400 * y + 2, -400 * x], [-400 * x, 200.0]]))

        for budget in (1, 2, 3, 5, 8, 20):
            seen.clear()
            res = search_hyperparameters(obj, np.array([-1.2, 1.0]), budget=budget,
                                         gradient_fn=derivatives, hessian=True)
            assert res.evaluations == len(seen) == len(set(seen)) <= budget
            assert res.capped
        seen.clear()
        res = search_hyperparameters(obj, np.array([-1.2, 1.0]), budget=100,
                                     gradient_fn=derivatives, hessian=True)
        assert not res.capped and 20 < res.evaluations == len(seen)
        assert np.abs(res.t - 1.0).max() < 1e-4

    def test_newton_reads_a_revisited_point_from_the_memo(self):
        # the bowl's centre lies past both bounds and the objective is
        # rejected where t_0 > 18: the full step and the half step from
        # (0, 0) both clip to the corner (hi, lo), evaluated once, and so do
        # the full and half steps from the quarter step (10, -10)
        lo, hi = LOG_ETA_BOUNDS
        seen = []
        obj, derivatives = self.quadratic(seen, np.eye(2), (40.0, -40.0),
                                          reject=lambda t: t[0] > 18.0)
        res = search_hyperparameters(obj, np.zeros(2), budget=100, gradient_fn=derivatives,
                                     hessian=True)
        assert seen[1] == (hi, lo) and seen.count((hi, lo)) == 1
        assert seen[2] == pytest.approx((10.0, -10.0), rel=1e-15)
        assert seen[3] == pytest.approx((17.5, -17.5), rel=1e-15)
        assert res.evaluations == len(seen) == len(set(seen)) and not res.capped

    def test_newton_steps_back_from_a_rejected_region(self):
        # |t - (3, 2)|^2, rejected where both coordinates exceed 1: the full
        # step lands at (3, 2), rejected; half of it at (1.5, 1), accepted.
        # From there every step towards (3, 2) is rejected
        seen = []
        obj, derivatives = self.quadratic(seen, np.eye(2), (3.0, 2.0),
                                          reject=lambda t: t[0] > 1.0 and t[1] > 1.0)
        res = search_hyperparameters(obj, np.zeros(2), budget=100, gradient_fn=derivatives,
                                     hessian=True)
        assert np.allclose(seen[1:3], [(3.0, 2.0), (1.5, 1.0)], rtol=1e-15, atol=0)
        assert res.evaluations == len(seen) == len(set(seen)) < 100
        assert not res.capped
        assert np.abs(res.t - [1.5, 1.0]).max() < 1e-15  # 3.25, where L-BFGS-B ends

    def test_newton_asks_derivatives_only_where_it_steps_from(self):
        # a scripted search: from (0, 0) every step down to (1/64) of the
        # full one clips to the corner (hi, hi), whose value falls short of
        # the Armijo rule there; the 1/64 step to (15.625, 15.625) is taken,
        # and from it the step to the corner, read from the memo, is taken
        # too.  The derivatives run at those three points only, each given
        # the payload of the objective's run just before at the same point,
        # so at the corner the objective runs again first
        hi = LOG_ETA_BOUNDS[1]
        log, payloads = [], []

        def obj(t):
            log.append(("value", tuple(t)))
            payloads.append(object())
            return {0.0: 0.0, hi: -3.5}.get(t[0], -3.2), payloads[-1]

        def derivatives(t, payload):
            assert log[-1] == ("value", tuple(t)) and payload is payloads[-1]
            log.append(("derivatives", tuple(t)))
            g = {0.0: -1e3, hi: -1.0}.get(t[0], -10.0)
            return np.full(2, g), np.eye(2)

        res = search_hyperparameters(obj, np.zeros(2), budget=100, gradient_fn=derivatives,
                                     hessian=True)
        x0, x1, corner = (0.0, 0.0), (15.625, 15.625), (hi, hi)
        assert log == [("value", x0), ("derivatives", x0), ("value", corner),
                       ("value", x1), ("derivatives", x1),
                       ("value", corner), ("derivatives", corner)]
        assert tuple(res.t) == corner and res.evaluations == 3 and not res.capped

    # one coordinate with a Hessian: the Newton search shared eta runs
    def test_newton_reaches_a_one_dimensional_bowls_minimum_in_one_step(self):
        seen = []
        obj, derivatives = self.quadratic(seen, [[2.5]], (1.3,))
        res = search_hyperparameters(obj, np.zeros(1), budget=100, gradient_fn=derivatives,
                                     hessian=True)
        assert seen == [(0.0,), tuple(res.t)] and not res.capped
        assert abs(res.t[0] - 1.3) < 1e-12
        assert res.value == 2.5 * (res.t[0] - 1.3) ** 2 < 1e-20

    def test_newton_ends_at_the_bound_past_which_the_minimum_lies(self):
        lo, hi = LOG_ETA_BOUNDS
        for centre, bound in ((40.0, hi), (-40.0, lo)):
            seen = []
            obj, derivatives = self.quadratic(seen, [[1.0]], (centre,))
            res = search_hyperparameters(obj, np.array([0.5]), budget=100,
                                         gradient_fn=derivatives, hessian=True)
            assert res.t[0] == bound and seen[1] == (bound,)
            assert all(lo <= t[0] <= hi for t in seen)
            assert res.evaluations == len(seen) == 2 and not res.capped
            assert res.value == (bound - centre) ** 2

    def test_newton_descends_from_a_concave_start(self):
        # t^4 / 4 - t^2 / 2 is concave at t = 0.1: the step takes |h| and
        # still goes downhill, to the minimum at t = 1
        seen = []

        def obj(t):
            seen.append(float(t[0] ** 4 / 4 - t[0] ** 2 / 2))
            return seen[-1], None

        def derivatives(t, payload=None):
            return np.array([t[0] ** 3 - t[0]]), np.array([[3 * t[0] ** 2 - 1]])

        assert derivatives(np.array([0.1]))[1][0, 0] < 0
        res = search_hyperparameters(obj, np.array([0.1]), budget=100,
                                     gradient_fn=derivatives, hessian=True)
        assert not res.capped and min(seen) < seen[0] and res.value == min(seen)
        assert abs(res.t[0] - 1.0) < 1e-4

    def test_newton_honours_the_budget_in_one_coordinate(self):
        # t^4 from t = 3: each Newton step keeps two thirds of t
        seen = []

        def obj(t):
            seen.append(tuple(t))
            return float(t[0] ** 4), None

        def derivatives(t, payload):
            return np.array([4 * t[0] ** 3]), np.array([[12 * t[0] ** 2]])

        for budget in (1, 2, 3, 5, 8):
            seen.clear()
            res = search_hyperparameters(obj, np.array([3.0]), budget=budget,
                                         gradient_fn=derivatives, hessian=True)
            assert res.evaluations == len(seen) == len(set(seen)) <= budget
            assert res.capped
        seen.clear()
        res = search_hyperparameters(obj, np.array([3.0]), budget=100,
                                     gradient_fn=derivatives, hessian=True)
        assert not res.capped and 8 < res.evaluations == len(seen) < 100
        assert res.value < 1e-6

    # the stops on the Newton search's own model
    @staticmethod
    def logged_cosh(log, centres):
        """sum_l cosh(t_l - centres_l), logging each value as ("value", t)
        and each (gradient, Hessian) as ("derivatives", t, g, h)."""
        c = np.asarray(centres, dtype=float)

        def obj(t):
            log.append(("value", tuple(t)))
            return float(np.cosh(t - c).sum()), None

        def derivatives(t, payload):
            g, h = np.sinh(t - c), np.diag(np.cosh(t - c))
            log.append(("derivatives", tuple(t), g, h))
            return g, h

        return obj, derivatives

    def test_model_stop_ends_after_a_full_step_without_its_derivatives(self):
        # cosh(t - 0.7) from t = -1: past the last full Newton step the
        # cubic term predicts a gain below 3/4 FATOL, so the search ends at
        # that step's point without asking the derivatives there
        log = []
        obj, derivatives = self.logged_cosh(log, (0.7,))
        res = search_hyperparameters(obj, np.array([-1.0]), budget=100,
                                     gradient_fn=derivatives, hessian=True)
        assert res.stop == "model" and not res.capped
        last = [entry for entry in log if entry[0] == "derivatives"][-1]
        assert log[-1] == ("value", tuple(res.t)) and log[-2] is last
        _, x, g, h = last
        assert res.t[0] == x[0] - g[0] / h[0, 0]  # the full step, unclipped
        assert 0.0 <= res.value - 1.0 < FATOL

    @pytest.mark.parametrize("p", [1, 2])
    def test_decrement_stop_evaluates_no_trial(self, p):
        # a scripted gradient whose Newton step (2e-4 in t_0) moves past
        # XATOL but is predicted to gain 1e-8 < FATOL / 2: no trial runs
        seen, asked = [], []

        def obj(t):
            seen.append(tuple(t))
            return 1.0 + float(t[0]), None

        def derivatives(t, payload):
            asked.append(tuple(t))
            return np.r_[-1e-4, np.zeros(p - 1)], np.diag(np.r_[0.5, np.ones(p - 1)])

        res = search_hyperparameters(obj, np.zeros(p), budget=100,
                                     gradient_fn=derivatives, hessian=True)
        assert res.stop == "decrement" and seen == asked == [(0.0,) * p]
        assert res.evaluations == 1 and res.value == 1.0

    @pytest.mark.parametrize("stop", ["decrement", "model"])
    def test_no_model_stop_on_an_eigenvalue_modified_step(self, stop):
        # a concave start: the step takes |h|, so the model's gain says
        # nothing and neither stop may end the search on it.  With g = -1e-6
        # and h = -1e-4 the step 1e-2 is predicted to gain 5e-9; with g = h
        # = -1 the step 1 gains exactly its prediction 1/2, which at positive
        # curvature would end the search at one coordinate
        g0, h0 = (-1e-6, -1e-4) if stop == "decrement" else (-1.0, -1.0)
        step = -g0 / abs(h0)
        log = []

        def obj(t):
            log.append(("value", tuple(t)))
            return (0.0 if t[0] == 0.0 else -0.5 if t[0] == step else 1.0), None

        def derivatives(t, payload):
            log.append(("derivatives", tuple(t)))
            return (np.array([g0]) if t[0] == 0.0 else np.zeros(1)), np.array([[h0]])

        res = search_hyperparameters(obj, np.zeros(1), budget=100,
                                     gradient_fn=derivatives, hessian=True)
        assert log == [("value", (0.0,)), ("derivatives", (0.0,)), ("value", (step,)),
                       ("derivatives", (step,))]
        assert res.stop == "xatol" and res.t[0] == step

    def test_model_stop_waits_for_one_coordinate(self):
        # sum_l cosh(t_l - c_l) from (-1, 1): at some full, unclipped step
        # the one-coordinate test 3 miss^2 < FATOL dec holds on a gain of
        # at least FATOL, yet with two coordinates the search goes on and
        # asks the derivatives at that step's point
        log = []
        obj, derivatives = self.logged_cosh(log, (0.7, -0.4))
        res = search_hyperparameters(obj, np.array([-1.0, 1.0]), budget=100,
                                     gradient_fn=derivatives, hessian=True)
        assert res.stop != "model" and not res.capped
        f = lambda t: float(np.cosh(np.asarray(t) - (0.7, -0.4)).sum())  # noqa: E731
        steps = [entry[1:] for entry in log if entry[0] == "derivatives"]
        would_stop = []
        for (x, g, h), (y, _, _) in zip(steps, steps[1:]):
            s = -np.linalg.solve(h, g)
            dec, gain = -0.5 * g @ s, f(x) - f(y)
            if np.array_equal(np.array(y), np.array(x) + s) and gain >= FATOL:
                would_stop.append(3 * (gain - dec) ** 2 < FATOL * dec)
        assert any(would_stop)

    def test_nonfinite_at_init_raises(self):
        def bad(t):
            return np.inf, None

        with pytest.raises(NonFiniteStartError):
            search_hyperparameters(bad, np.zeros(1), budget=5)

    def test_one_coordinate_skips_the_plateau_past_the_bound(self):
        # the shape of a Keister d=4 Sobol' objective at n = 256: a minimum at
        # t = -7, downhill points above the plateau that the clipped eta map
        # gives past log(1e-8), and the plateau above the minimum.  A bracket
        # grown by extrapolation lands on the plateau; the walk must not.
        lo, hi = LOG_ETA_BOUNDS
        seen = []

        def obj(t):
            seen.append(float(t[0]))
            if t[0] < lo:
                return 12.414, None
            return (12.414 - 0.0445 * np.exp(-((t[0] + 7.0) / 3.0) ** 2)
                    + 0.004 * max(t[0] + 7.0, 0.0) ** 2), None

        assert obj([-4.0])[0] > obj([lo - 1.0])[0] > obj([-7.0])[0]
        seen.clear()
        res = search_hyperparameters(obj, np.array([-4.0]), budget=20)
        assert abs(res.t[0] + 7.0) < 1e-2
        assert res.evaluations == len(seen) <= 20
        assert all(lo <= t <= hi for t in seen)

    def test_one_coordinate_respects_the_budget(self):
        seen = []

        def obj(t):
            seen.append(float(t[0]))
            return float(np.cos(t[0]) + 0.01 * t[0] ** 2), None

        for budget in (1, 2, 3, 5, 8):
            seen.clear()
            res = search_hyperparameters(obj, np.array([0.3]), budget=budget)
            assert res.evaluations == len(seen) <= budget

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_monotone_loss_returns_the_bound_exactly(self, sign):
        seen = []

        def obj(t):
            seen.append(float(t[0]))
            return float(-sign * t[0]), None

        res = search_hyperparameters(obj, np.zeros(1), budget=100)
        assert res.t[0] == LOG_ETA_BOUNDS[sign > 0]
        assert all(LOG_ETA_BOUNDS[0] <= t <= LOG_ETA_BOUNDS[1] for t in seen)

    def test_start_is_clipped_into_the_bounds(self):
        seen = []

        def obj(t):
            seen.append(float(t[0]))
            return float((t[0] - 2.0) ** 2), None

        res = search_hyperparameters(obj, np.array([40.0]), budget=50)
        assert seen[0] == LOG_ETA_BOUNDS[1]
        assert abs(res.t[0] - 2.0) < 1e-3

    @pytest.mark.parametrize("t0", [0.0, -3.0, 1.7, LOG_ETA_BOUNDS[0]])
    def test_memo_counts_each_coordinate_once(self, t0):
        seen = []

        def obj(t):
            seen.append(float(t[0]))
            return float(np.log1p((t[0] + 1.0) ** 2)), None

        res = search_hyperparameters(obj, np.array([t0]), budget=100)
        assert len(set(seen)) == len(seen) == res.evaluations
        assert abs(res.t[0] + 1.0) < 1e-3

    def test_level_objective_ends_at_the_start(self):
        res = search_hyperparameters(lambda t: (1.0, None), np.array([0.5]),
                                     budget=100, hessian=True,
                                     gradient_fn=lambda t, payload: (np.zeros(1),
                                                                     np.zeros((1, 1))))
        assert res.t[0] == 0.5 and res.evaluations <= 4

    def test_level_objective_without_derivatives_ends_at_the_start(self):
        # Nelder-Mead in one coordinate: each reflection and inside
        # contraction on a level objective halves the simplex, from an edge
        # of STEP, until it is under XATOL; it stops there on its own
        res = search_hyperparameters(lambda t: (1.0, None), np.array([0.5]), budget=100)
        halvings = int(np.ceil(np.log2(inference.STEP / XATOL)))
        assert res.t[0] == 0.5 and not res.capped
        assert res.evaluations <= 2 + 2 * halvings

    def test_keister_eta_is_local_min(self):
        from bayescub.problems import keister_problem, periodize

        prob = keister_problem(4)
        gen = nodes.make_lattice(4, seed=2)
        m = 10
        f = periodize(prob.evaluator, "sidi_c1")
        y = f(gen.points(0, 1 << m).points)
        spectrum = transforms.fbt(y, "lattice")
        spec0 = KernelSpec("bernoulli", 2, np.ones(4))
        bases = kernels.lattice_column_bases(spec0, gen, m)

        def loss_of_eta(eta):
            col = kernels.ring_from_bases(np.full(4, eta), bases)
            return objective_eb(transformed_data(
                data_weights(spectrum, 1 << m), column_spectrum(col, "lattice", 1 << m),
                1 << m))

        def obj(t):
            return loss_of_eta(float(np.exp(t[0]))), None

        res = search_hyperparameters(obj, np.zeros(1), budget=100)
        eta_opt = float(np.exp(res.t[0]))
        best = loss_of_eta(eta_opt)
        assert loss_of_eta(eta_opt * 1.001) > best
        assert loss_of_eta(eta_opt * 0.999) > best

"""Fast transforms against dense matrix oracles, energy and first-coefficient
invariants, doubling updates, and the Gram diagonalization identities."""

import numpy as np
import pytest

from bayescub import kernels, nodes, transforms
from bayescub.inference import coefficient_spectra, column_spectrum
from bayescub.kernels import KernelSpec
from bayescub.transforms import (fbt_double, fbt_lattice, fbt_lattice_even,
                                 fbt_sobol, hadamard_matrix,
                                 lattice_eigenvector_matrix)
from oracles import dense_transform, mirror_half


class TestLatticeTransform:
    def test_all_ones(self):
        out = fbt_lattice(np.ones(32))
        assert abs(out[0] - 32) < 1e-12
        assert np.abs(out[1:]).max() < 1e-12

    def test_two_point(self):
        out = fbt_lattice(np.array([3.0, 5.0]))
        assert out[0] == pytest.approx(8.0)
        assert out[1] == pytest.approx(-2.0)

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_matches_dense_oracle(self, n):
        rng = np.random.default_rng(n)
        y = rng.standard_normal(n)
        fast = fbt_lattice(y)
        dense = dense_transform("lattice", y)[: n // 2 + 1]
        assert np.abs(fast - dense).max() <= 1e-11 * np.linalg.norm(y)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            fbt_lattice(np.ones(12))

    def test_conjugate_pairing(self):
        # spectrum entry at the complementary frequency carries the conjugate,
        # so the half k = 0..n/2 that fbt_lattice keeps determines the whole
        n = 16
        y = np.random.default_rng(1).standard_normal(n)
        out = dense_transform("lattice", y)
        pair = (n - np.arange(n)) % n
        assert np.abs(out[pair] - out.conj()).max() < 1e-10


class TestSobolTransform:
    def test_all_ones(self):
        out = fbt_sobol(np.ones(16))
        assert out[0] == 16 and np.abs(out[1:]).max() == 0

    def test_two_point(self):
        out = fbt_sobol(np.array([3.0, 5.0]))
        assert out.tolist() == [8.0, -2.0]

    def test_involution(self):
        rng = np.random.default_rng(7)
        y = rng.standard_normal(16)
        twice = fbt_sobol(fbt_sobol(y))
        assert np.abs(twice - 16 * y).max() < 1e-12 * np.abs(y).max() * 16

    @pytest.mark.parametrize("n", [4, 8, 64])
    def test_matches_dense_oracle(self, n):
        y = np.random.default_rng(n).standard_normal(n)
        fast = fbt_sobol(y)
        dense = dense_transform("sobol", y)
        assert np.abs(fast - dense).max() < 1e-11 * np.linalg.norm(y)


class TestDoubling:
    def test_repeated_half_cancels(self):
        y = np.random.default_rng(2).standard_normal(8)
        out = fbt_double(fbt_sobol(y), y, "sobol")
        assert np.abs(out[8:]).max() == 0.0

    @pytest.mark.parametrize("kind", ["lattice", "sobol"])
    def test_equals_from_scratch(self, kind):
        rng = np.random.default_rng(5)
        first, second = rng.standard_normal(8), rng.standard_normal(8)
        doubled = fbt_double(transforms.fbt(first, kind), second, kind)
        scratch = transforms.fbt(np.concatenate([first, second]), kind)
        assert np.abs(doubled - scratch).max() < 1e-12 * np.abs(scratch).max()

    def test_zero_prefix_is_linear(self):
        rng = np.random.default_rng(9)
        second = rng.standard_normal(16)
        doubled = fbt_double(transforms.fbt(np.zeros(16), "lattice"), second, "lattice")
        scratch = transforms.fbt(np.concatenate([np.zeros(16), second]), "lattice")
        assert np.abs(doubled - scratch).max() < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fbt_double(fbt_sobol(np.ones(8)), np.ones(4), "sobol")
        # the lattice step takes the n/2+1 entries of the first half's transform
        with pytest.raises(ValueError):
            fbt_double(fbt_sobol(np.ones(8)), np.ones(8), "lattice")
        with pytest.raises(ValueError):
            fbt_double(fbt_lattice(np.ones(8)), np.ones(8), "sobol")

    @pytest.mark.parametrize("m", [0, 1, 2, 7, 12, 17])
    def test_lattice_step_equals_from_scratch(self, m):
        # the radix-2 step from 2^m to 2^(m+1) points, past the n = 8 case
        rng = np.random.default_rng(100 + m)
        first, second = rng.standard_normal(1 << m), rng.standard_normal(1 << m)
        doubled = fbt_double(fbt_lattice(first), second, "lattice")
        scratch = fbt_lattice(np.concatenate([first, second]))
        assert np.abs(doubled - scratch).max() <= 1e-13 * np.abs(scratch).max()

    @pytest.mark.parametrize("m", range(11))
    def test_lattice_half_matches_dense_oracle(self, m):
        # the half transform and the half doubling step against entries
        # 0..n/2 of the dense V^H y; past n = 2^10 the dense product's own
        # rounding exceeds the bound, and TestLargeN checks from scratch
        n = 1 << m
        y = np.random.default_rng(200 + m).standard_normal(n)
        ref = dense_transform("lattice", y)[: n // 2 + 1]
        tol = 8 * np.finfo(float).eps * np.abs(ref).max()
        assert fbt_lattice(y).shape == (n // 2 + 1,)
        assert np.abs(fbt_lattice(y) - ref).max() <= tol
        if m:
            doubled = fbt_double(fbt_lattice(y[: n // 2]), y[n // 2:], "lattice")
            assert doubled.shape == (n // 2 + 1,)
            assert np.abs(doubled - ref).max() <= tol


def gather_fbt_lattice(y):
    # single-gather reference: real FFT of the data in bit-reversed order
    p = nodes._brev_table(len(y).bit_length() - 1)
    return np.fft.rfft(y[p])


def full_column_bases(spec, gen, m):
    """(n, d) base values at the first-column lags in node (van der Corput)
    order: the whole column, lag h * brev(i) / n at node i."""
    n = 1 << m
    brev = nodes._brev_table(m)
    idx = (brev[:, None] * np.asarray(gen.generating_vector)[None, :]) & (n - 1)
    if spec.family == "truncated_series":
        return kernels.truncated_series_table(spec.order, n)[idx]
    return kernels._dim_bases_from_lags(spec, idx.astype(np.float64) / n)


def full_column_ring(eta, bases):
    # the ring iteration over the last axis of (n, d) bases
    ring = eta[0] * bases[:, 0]
    for ell in range(1, bases.shape[1]):
        c = eta[ell] * bases[:, ell]
        ring = ring * (1.0 + c) + c
    return ring


def gather_fbt_lattice_even(col):
    # whole column in node order -> grid order, real FFT, mirror, back to
    # node order: the eigenvalues paired with the bit-reversed spectrum
    n = len(col)
    p = nodes._brev_table(n.bit_length() - 1)
    return mirror_half(np.fft.rfft(col[p]).real, n)[p]


def full_column_eigenvalues(spec, gen, m):
    """Gram eigenvalues by the whole-column, bit-reversed pipeline, permuted
    from bit-reversed to natural frequency order."""
    col = full_column_ring(spec.eta, full_column_bases(spec, gen, m))
    return gather_fbt_lattice_even(col)[nodes._brev_table(m)], col


HALF_COLUMN_KERNELS = (("bernoulli", 1), ("bernoulli", 2),
                       ("truncated_series", 1.5), ("truncated_series", 2.5),
                       ("exp_decay", 0.5))


class TestHalfColumnPipeline:
    """The half column in natural grid order and its DCT-I against the whole
    column in node order, gathered into grid order for a real FFT."""

    @pytest.mark.parametrize("m", [3, 10, 16, 20])
    @pytest.mark.parametrize("family,order", HALF_COLUMN_KERNELS)
    def test_matches_full_column(self, family, order, m):
        n, d = 1 << m, 3
        gen = nodes.make_lattice(d, seed=m)
        spec = KernelSpec(family, order, np.array([0.5, 1.0, 2.0]))
        ref, full_col = full_column_eigenvalues(spec, gen, m)
        half = kernels.ring_from_bases(spec.eta, kernels.lattice_column_bases(spec, gen, m))
        # the same kernel values, entry for entry: grid lag k sits at node brev(k)
        assert np.array_equal(half, full_col[nodes._brev_table(m)[: n // 2 + 1]])
        lam = mirror_half(fbt_lattice_even(half, n), n)
        assert np.abs(lam - ref).max() <= 8 * np.finfo(float).eps * np.abs(ref).max()


def copying_fbt_sobol(y):
    # butterfly reference that copies each stage's first half
    out = y.copy()
    h = 1
    while h < len(y):
        out = out.reshape(-1, 2, h)
        a = out[:, 0, :].copy()
        b = out[:, 1, :]
        out[:, 0, :] = a + b
        out[:, 1, :] = a - b
        h *= 2
    return out.reshape(-1)


class TestLargeN:
    """Sizes past the dense-oracle limit, where the cache-blocked paths run;
    each must equal its single-gather or copying reference bit for bit."""

    @pytest.mark.parametrize("m", range(21))
    def test_bit_reverse_permute(self, m):
        rng = np.random.default_rng(m)
        y = rng.standard_normal(1 << m)
        z = y + 1j * rng.standard_normal(1 << m)
        p = nodes._brev_table(m)
        for x in (y, z):
            out = transforms._bit_reverse_permute(x, m)
            assert out.dtype == x.dtype
            assert np.array_equal(out, x[p])

    @pytest.mark.parametrize("m", [16, 20])
    def test_lattice_matches_gather(self, m):
        y = np.random.default_rng(m).standard_normal(1 << m)
        assert np.array_equal(fbt_lattice(y), gather_fbt_lattice(y))

    @pytest.mark.parametrize("m", range(21))
    def test_lattice_half_matches_from_scratch(self, m):
        # the half transform against entries 0..n/2 of the whole complex FFT
        # of the gathered data, and the half doubling step from 2^m to
        # 2^(m+1) points against the from-scratch half, to 8 ulps of the max
        n = 1 << m
        rng = np.random.default_rng(300 + m)
        y = rng.standard_normal(2 * n)
        tol = 8 * np.finfo(float).eps
        whole = np.fft.fft(y[:n][nodes._brev_table(m)])[: n // 2 + 1]
        assert np.abs(fbt_lattice(y[:n]) - whole).max() <= tol * np.abs(whole).max()
        scratch = fbt_lattice(y)
        doubled = fbt_double(fbt_lattice(y[:n]), y[n:], "lattice")
        assert doubled.shape == scratch.shape == (n + 1,)
        assert np.abs(doubled - scratch).max() <= tol * np.abs(scratch).max()

    @pytest.mark.parametrize("m", [16, 20])
    def test_lattice_even_matches_gather(self, m):
        # the half-column DCT-I of an arbitrary even column against the whole
        # column's gathered real FFT, to a few ulps of the largest entry
        n = 1 << m
        half = np.random.default_rng(m).standard_normal(n // 2 + 1)
        grid = np.concatenate([half, half[-2:0:-1]])
        p = nodes._brev_table(m)
        ref = gather_fbt_lattice_even(grid[p])[p]
        lam = mirror_half(transforms.fbt_lattice_even(half, n), n)
        assert np.abs(lam - ref).max() <= 8 * np.finfo(float).eps * np.abs(ref).max()

    @pytest.mark.parametrize("m", range(21))
    def test_sobol_matches_copying_butterfly(self, m):
        y = np.random.default_rng(m).standard_normal(1 << m)
        before = y.copy()
        assert np.array_equal(fbt_sobol(y), copying_fbt_sobol(y))
        assert np.array_equal(y, before)

    @pytest.mark.parametrize("m", range(1, 21))
    def test_sobol_doubling_equals_from_scratch(self, m):
        # walsh_double runs the last stage's operations on the halves'
        # transforms, so the doubled transform is the whole one bit for bit
        y = np.random.default_rng(400 + m).standard_normal(1 << m)
        h = len(y) // 2
        doubled = fbt_double(fbt_sobol(y[:h]), y[h:], "sobol")
        assert np.array_equal(doubled, fbt_sobol(y))

    @pytest.mark.parametrize("scramble", [False, True])
    @pytest.mark.parametrize("d", [4, 13])
    def test_sobol_bases_grow_by_the_doubling_block(self, d, scramble):
        # the bases at 2^m are those at 2^(m-1) followed by the new block's
        gen = nodes.make_sobol(d, 17, scramble=scramble)
        spec = KernelSpec("walsh1", 1.0, np.ones(d))
        grown = kernels.column_bases(spec, gen, 0)
        for m in range(1, 21):
            block = kernels.sobol_column_bases(spec, gen, m, start=1 << (m - 1))
            grown = np.concatenate([grown, block], axis=1)
            del block
            assert np.array_equal(grown, kernels.column_bases(spec, gen, m)), m

    @pytest.mark.parametrize("scramble", [False, True])
    @pytest.mark.parametrize("d", [4, 13])
    def test_sobol_spectra_grow_by_the_doubling_step(self, d, scramble):
        # the shared-eta spectra at 2^m grown from those at 2^(m-1) by the
        # new block's d transforms, as the loop grows them
        gen = nodes.make_sobol(d, 17, scramble=scramble)
        spec = KernelSpec("walsh1", 1.0, np.ones(d))
        grown, _ = coefficient_spectra(spec, gen, "sobol", 0)
        for m in range(1, 21):
            grown, block = coefficient_spectra(spec, gen, "sobol", m, grown)
            assert block.shape == (d, 1 << (m - 1))
            del block
            scratch = column_spectrum(kernels.elementary_symmetric(
                kernels.column_bases(spec, gen, m)), "sobol", 1 << m)
            assert np.array_equal(grown, scratch), m

    @pytest.mark.parametrize("kernel, order", [("bernoulli", 1.0), ("bernoulli", 2.0),
                                               ("exp_decay", 0.5)])
    @pytest.mark.parametrize("d", [2, 13])
    def test_lattice_spectra_grow_by_the_doubling_split(self, d, kernel, order):
        # the shared-eta spectra at 2^m grown from those at 2^(m-1) by the
        # DCT-II of the odd entries, against the from-scratch DCT-I, to a few
        # ulps of each row's largest entry; the bases returned are the odd
        # entries of the from-scratch half column, bit for bit
        gen = nodes.make_lattice(d, 17)
        spec = KernelSpec(kernel, order, np.ones(d))
        grown, _ = coefficient_spectra(spec, gen, "lattice", 1)
        for m in range(2, 21):
            grown, block = coefficient_spectra(spec, gen, "lattice", m, grown)
            scratch, bases = coefficient_spectra(spec, gen, "lattice", m)
            assert grown.shape == scratch.shape == (d, (1 << m) // 2 + 1)
            assert np.array_equal(block, bases[:, 1::2]), m
            del block, bases
            dev = np.abs(grown - scratch)
            assert (dev <= 4e-15 * np.abs(scratch).max(axis=1, keepdims=True)).all(), m
        prev, _ = coefficient_spectra(spec, gen, "lattice", 4)
        for bad in (prev[:, :-1], prev[:1], prev[..., None]):
            with pytest.raises(ValueError, match="do not make a half column"):
                coefficient_spectra(spec, gen, "lattice", 5, bad)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("family,kernel,order", [("sobol", "walsh1", 1.0),
                                                     ("lattice", "bernoulli", 2.0),
                                                     ("lattice", "exp_decay", 0.5)])
    def test_subset_spectra_grow_as_from_scratch(self, family, kernel, order, d):
        # the per-dimension spectra of the 2^d - 1 subset products, grown by
        # the same step: bit for bit on Sobol' nodes, to a few ulps of each
        # row's largest entry on the lattice
        gen = (nodes.make_sobol(d, 17) if family == "sobol" else nodes.make_lattice(d, 17))
        spec = KernelSpec(kernel, order, np.ones(d))
        products = kernels.subset_products
        grown, _ = coefficient_spectra(spec, gen, family, 2, None, products)
        for m in range(3, 17):
            grown, block = coefficient_spectra(spec, gen, family, m, grown, products)
            scratch, bases = coefficient_spectra(spec, gen, family, m, None, products)
            assert grown.shape == scratch.shape == ((1 << d) - 1, bases.shape[1])
            if family == "sobol":
                assert np.array_equal(grown, scratch), m
            else:
                dev = np.abs(grown - scratch)
                assert (dev <= 4e-15 * np.abs(scratch).max(axis=1, keepdims=True)).all(), m

    def test_truncated_series_spectra_rebuild_whatever_prev(self):
        # its grid table changes with n, so it has no growth step
        gen = nodes.make_lattice(3, 17)
        spec = KernelSpec("truncated_series", 1.7, np.ones(3))
        for m in (1, 4, 9):
            scratch, bases = coefficient_spectra(spec, gen, "lattice", m)
            assert scratch.shape == (3, (1 << m) // 2 + 1)
            assert np.array_equal(bases, kernels.column_bases(spec, gen, m))
            for prev in (coefficient_spectra(spec, gen, "lattice", m - 1)[0],
                         np.full((3, 7), np.nan)):
                grown, grown_bases = coefficient_spectra(spec, gen, "lattice", m, prev)
                assert np.array_equal(grown, scratch)
                assert np.array_equal(grown_bases, bases)

    def test_sobol_bases_block_must_be_a_doubling_block(self):
        gen = nodes.make_sobol(2, 17)
        spec = KernelSpec("walsh1", 1.0, np.ones(2))
        with pytest.raises(ValueError):
            kernels.sobol_column_bases(spec, gen, 3, start=2)


class TestDenseTransform:
    def test_identity_at_n1(self):
        assert dense_transform("lattice", np.array([4.2]))[0] == 4.2
        assert dense_transform("sobol", np.array([4.2]))[0] == 4.2

    @pytest.mark.parametrize("n", [4, 8])
    def test_unitary_up_to_n(self, n):
        v = lattice_eigenvector_matrix(n)
        assert np.abs(v.conj().T @ v - n * np.eye(n)).max() < 1e-10
        h = hadamard_matrix(n)
        assert np.abs(h @ h - n * np.eye(n)).max() == 0

    def test_size_guard(self):
        with pytest.raises(ValueError):
            dense_transform("lattice", np.ones(8192))

    def test_hadamard_is_the_sylvester_recursion(self):
        # H_2n = [[H_n, H_n], [H_n, -H_n]], the ordering fbt_sobol applies
        h = np.array([[1.0]])
        for m in range(7):
            assert np.array_equal(hadamard_matrix(1 << m), h)
            h = np.block([[h, h], [h, -h]])


class TestInvariants:
    @pytest.mark.parametrize("kind", ["lattice", "sobol"])
    def test_energy(self, kind):
        rng = np.random.default_rng(3)
        for m in (4, 8, 12):
            n = 1 << m
            y = rng.standard_normal(n)
            out = transforms.fbt(y, kind)
            if kind == "lattice":
                out = mirror_half(out, n)
            lhs = np.abs(out).astype(np.float64) ** 2
            assert lhs.sum() == pytest.approx(n * (y**2).sum(), rel=1e-10)

    @pytest.mark.parametrize("kind", ["lattice", "sobol"])
    def test_first_coefficient_is_sum(self, kind):
        rng = np.random.default_rng(4)
        y = rng.standard_normal(256)
        out = transforms.fbt(y, kind)
        assert np.real(out[0]) == pytest.approx(y.sum(), rel=1e-12)
        if np.iscomplexobj(out):
            assert abs(np.imag(out[0])) <= 1e-12 * np.abs(y).sum()

    @pytest.mark.parametrize("family,kernel,order", [
        ("lattice", "bernoulli", 1), ("lattice", "bernoulli", 2),
        ("lattice", "truncated_series", 2.2), ("sobol", "walsh1", 1)])
    def test_gram_factorization(self, family, kernel, order):
        # (1/n) V diag(fbt(C1)) V^H reconstructs the Gram matrix
        rng = np.random.default_rng(10)
        for m in (3, 6):
            n, d = 1 << m, 3
            spec = KernelSpec(kernel, order, rng.uniform(0.3, 2.0, size=d))
            if family == "lattice":
                gen = nodes.make_lattice(d, seed=2)
                gram = (kernels.gram_matrix(spec, None, gen=gen, m=m)
                        if kernel == "truncated_series"
                        else kernels.gram_matrix(spec, gen.points(0, n).points))
                v = lattice_eigenvector_matrix(n)
            else:
                gen = nodes.make_sobol(d, seed=2)
                gram = kernels.gram_matrix(spec, gen.points(0, n).int_points)
                v = hadamard_matrix(n)
            col = kernels.ring_from_bases(spec.eta, kernels.column_bases(spec, gen, m))
            lam = column_spectrum(1.0 + col, family, n)
            if family == "lattice":
                lam = mirror_half(lam, n)
            recon = (v * lam[None, :]) @ v.conj().T / n
            assert np.abs(recon - gram).max() <= 1e-10 * n

    def test_hadamard_diagonalizes_walsh_gram(self):
        # H C H has negligible off-diagonal mass (nested block-Toeplitz C)
        gen = nodes.make_sobol(2, seed=6)
        spec = KernelSpec("walsh1", 1, np.array([1.0, 0.5]))
        n = 64
        gram = kernels.gram_matrix(spec, gen.points(0, n).int_points)
        h = hadamard_matrix(n)
        diag = h @ gram @ h
        off = diag - np.diag(np.diag(diag))
        assert np.abs(off).max() <= 1e-10 * np.abs(gram).sum()

    def test_walsh_gram_is_nested_block_toeplitz(self):
        gen = nodes.make_sobol(3, seed=8)
        spec = KernelSpec("walsh1", 1, np.full(3, 0.8))
        gram = kernels.gram_matrix(spec, gen.points(0, 32).int_points)

        def check(block):
            n = block.shape[0]
            if n == 1:
                return True
            h = n // 2
            a, b = block[:h, :h], block[:h, h:]
            c, dd = block[h:, :h], block[h:, h:]
            return (np.array_equal(a, dd) and np.array_equal(b, c)
                    and check(a) and check(b))

        assert check(gram)

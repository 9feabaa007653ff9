"""Node-set generation: van der Corput order, extensibility, group structure,
the digital-net property, and digit arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayescub import nodes
from oracles import (bit_reverse, digit_subtract, identity_direction_numbers,
                     lattice_points_by_column, van_der_corput)


def brute_bit_reversal(i: int, bits: int) -> float:
    """Independent oracle: reverse the bit string of i and read as a fraction."""
    s = format(i, f"0{bits}b")
    return int(s[::-1], 2) / 2.0**bits


class TestVanDerCorput:
    def test_table_values(self):
        # first eight values of the binary radical inverse
        expected = [0.0, 0.5, 0.25, 0.75, 0.125, 0.625, 0.375, 0.875]
        assert van_der_corput(np.arange(8)).tolist() == expected

    def test_single_values(self):
        assert van_der_corput(0) == 0.0
        assert van_der_corput(5) == 0.625

    def test_powers_of_two(self):
        for k in range(11):
            assert van_der_corput(2**k) == 2.0 ** (-k - 1)
            assert van_der_corput(2**k) == brute_bit_reversal(2**k, k + 1)

    @given(st.integers(min_value=0, max_value=2**40 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_bit_reversal_oracle(self, i):
        assert van_der_corput(i) == brute_bit_reversal(i, 40)

    def test_permutation_property(self):
        # n*phi maps 0..n-1 onto itself for every power of two
        for m in range(1, 11):
            n = 1 << m
            vals = (n * van_der_corput(np.arange(n))).astype(int)
            assert sorted(vals.tolist()) == list(range(n))

    def test_rejects_huge_index(self):
        with pytest.raises(ValueError):
            van_der_corput(2**53)

    @pytest.mark.parametrize("m", range(21))
    def test_brev_table_matches_bit_reverse(self, m):
        table = nodes._brev_table(m)
        assert table.dtype == np.intp and not table.flags.writeable
        expected = bit_reverse(np.arange(1 << m, dtype=np.uint64), m)
        assert np.array_equal(table.view(np.uint64), expected)


class TestLattice:
    def test_unit_generator_d1(self):
        gen = nodes.LatticeGenerator((1,), np.zeros(1))
        pts = gen.points(0, 4).points[:, 0]
        assert pts.tolist() == [0.0, 0.5, 0.25, 0.75]

    def test_first_point_is_shift(self):
        gen = nodes.make_lattice(3, seed=5)
        pts = gen.points(0, 2).points
        assert np.array_equal(pts[0], gen.shift)
        zero = nodes.LatticeGenerator((1, 3), np.zeros(2))
        assert np.array_equal(zero.points(0, 2).points[0], np.zeros(2))

    def test_columns_are_permutations(self):
        gen = nodes.LatticeGenerator((1, 3), np.zeros(2), max_log2_n=10)
        pts = gen.points(0, 8).points
        for ell in range(2):
            assert sorted((8 * pts[:, ell]).round().astype(int).tolist()) == list(range(8))

    def test_extensible(self):
        gen = nodes.make_lattice(4, seed=9)
        full = gen.points(0, 64).points
        half = gen.points(0, 32).points
        block = gen.points(32, 64).points
        assert np.array_equal(full[:32], half)
        assert np.array_equal(full[32:], block)

    def test_group_property(self):
        # with zero shift, pairwise differences are themselves lattice points
        for d in (1, 2, 3):
            vec = nodes.default_lattice_vector(d)
            gen = nodes.LatticeGenerator(vec, np.zeros(d))
            pts = gen.points(0, 64).points
            grid = {tuple(np.round(p * 2**20).astype(int)) for p in pts}
            diffs = (pts[:, None, :] - pts[None, :, :]) % 1.0
            keys = np.round(diffs * 2**20).astype(int).reshape(-1, d)
            assert all(tuple(k) in grid for k in keys)

    def test_lag_key_leaves_out_the_shift_only(self):
        a, b = nodes.make_lattice(3, seed=1), nodes.make_lattice(3, seed=2)
        assert not np.array_equal(a.shift, b.shift)
        assert a.lag_key == b.lag_key
        assert a.lag_key != nodes.make_lattice(4, seed=1).lag_key
        assert a.lag_key != nodes.LatticeGenerator(a.generating_vector, a.shift,
                                                   max_log2_n=19).lag_key

    def test_capacity_error(self):
        gen = nodes.LatticeGenerator((1,), np.zeros(1), max_log2_n=4)
        with pytest.raises(nodes.CapacityError):
            gen.points(0, 32)

    def test_shipped_vector_invariants(self):
        vec = nodes.default_lattice_vector(20)
        assert len(vec) == 20 and vec[0] == 1
        assert all(v % 2 == 1 and 0 < v < 2**20 for v in vec)
        assert len(set(vec)) == 20

    def test_vector_file_dimension_cap(self):
        with pytest.raises(nodes.CapacityError):
            nodes.default_lattice_vector(21)

    def test_determinism(self):
        a = nodes.make_lattice(5, seed=123).points(0, 32).points
        b = nodes.make_lattice(5, seed=123).points(0, 32).points
        assert np.array_equal(a, b)
        c = nodes.make_lattice(5, seed=124).points(0, 32).points
        assert not np.array_equal(a, c)

    @given(st.integers(0, 2**63 - 1), st.integers(1, 6), st.integers(3, 9))
    @settings(max_examples=50, deadline=None)
    def test_coordinates_in_unit_interval(self, seed, d, m):
        pts = nodes.make_lattice(d, seed=seed).points(0, 1 << m).points
        assert (pts >= 0.0).all() and (pts < 1.0).all()

    @pytest.mark.parametrize("start,stop", [(0, 2**15), (2**15, 2**16)])
    @pytest.mark.parametrize("d", [3, 13])
    def test_row_blocks_match_the_column_formula(self, start, stop, d):
        assert stop - start > nodes.block_rows(d)  # more than one row block
        gen = nodes.make_lattice(d, seed=d + start)
        pts = gen.points(start, stop).points
        assert np.array_equal(pts, lattice_points_by_column(gen, start, stop))

    def test_concurrent_generation_is_pure(self):
        # generators are immutable; concurrent block generation must agree
        # with sequential generation exactly
        from concurrent.futures import ThreadPoolExecutor

        gen = nodes.make_lattice(4, seed=31)
        blocks = [(0, 64), (64, 128), (128, 256), (256, 512)]
        with ThreadPoolExecutor(4) as pool:
            parallel = list(pool.map(lambda se: gen.points(*se).points, blocks))
        serial = gen.points(0, 512).points
        assert np.array_equal(np.vstack(parallel), serial)


class TestSobol:
    def test_identity_matrices_give_van_der_corput(self):
        gen = nodes.SobolGenerator(identity_direction_numbers(1),
                                   np.zeros(1, dtype=np.uint64))
        pts = gen.points(0, 8).points[:, 0]
        assert pts.tolist() == [0.0, 0.5, 0.25, 0.75, 0.125, 0.625, 0.375, 0.875]

    def test_first_point_zero_without_shift(self):
        gen = nodes.SobolGenerator(nodes.default_direction_numbers(4),
                                   np.zeros(4, dtype=np.uint64))
        assert np.array_equal(gen.points(0, 2).points[0], np.zeros(4))

    def test_extensible(self):
        gen = nodes.make_sobol(3, seed=21)
        full = gen.points(0, 128).points
        assert np.array_equal(full[:64], gen.points(0, 64).points)
        assert np.array_equal(full[64:], gen.points(64, 128).points)

    def test_group_property(self):
        gen = nodes.make_sobol(3, seed=4)
        x = gen.points(0, 64).int_points
        z = nodes.sobol_lag_integers(gen, 0, 64)
        for i in range(0, 64, 7):
            for j in range(64):
                assert np.array_equal(x[i] ^ x[j], z[i ^ j])

    def test_shifted_lags_equal_unshifted(self):
        gen = nodes.make_sobol(2, seed=77)
        pts = gen.points(0, 32)
        plain = nodes.SobolGenerator(gen.direction_numbers,
                                     np.zeros(2, dtype=np.uint64))
        zpts = plain.points(0, 32)
        lhs = digit_subtract(pts.points[13], pts.points[6])
        rhs = digit_subtract(zpts.points[13], zpts.points[6])
        assert np.array_equal(lhs, rhs)

    @pytest.mark.parametrize("d,t_bound", [(1, 0), (2, 0), (3, 1)])
    def test_net_property(self, d, t_bound):
        gen = nodes.SobolGenerator(nodes.default_direction_numbers(d),
                                   np.zeros(d, dtype=np.uint64))
        for m in range(t_bound + 1, 9):
            pts = gen.points(0, 1 << m).points
            assert elementary_interval_check(pts, m, t_bound), (d, m)

    def test_net_property_survives_shift_and_scramble(self):
        gen = nodes.make_sobol(2, seed=99, scramble=True)
        for m in (4, 6):
            pts = gen.points(0, 1 << m).points
            assert elementary_interval_check(pts, m, 0)

    def test_direction_number_table_sanity(self):
        dn = nodes.default_direction_numbers(20)
        assert dn.shape == (20, 32)
        # odd m_k < 2^k encoded as v_k = m_k * 2^(32-k)
        for k in range(32):
            m_k = dn[:, k] >> np.uint64(32 - 1 - k)
            assert (m_k % 2 == 1).all()
            assert (dn[:, k] % (np.uint64(1) << np.uint64(32 - 1 - k)) == 0).all()

    def test_invalid_direction_numbers_rejected(self):
        dn = nodes.default_direction_numbers(2).copy()
        dn[1, 3] ^= np.uint64(1) << np.uint64(5)  # set a bit below the diagonal
        with pytest.raises(ValueError):
            nodes.SobolGenerator(dn, np.zeros(2, dtype=np.uint64))

    def test_determinism(self):
        a = nodes.make_sobol(4, seed=5, scramble=True).points(0, 64).points
        b = nodes.make_sobol(4, seed=5, scramble=True).points(0, 64).points
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("start,stop", [(0, 1), (0, 64), (64, 128), (0, 2**16)])
    def test_points_are_the_shifted_integers_over_2_to_the_32(self, start, stop):
        gen = nodes.make_sobol(4, seed=8, scramble=True)
        pts = gen.points(start, stop)
        z = nodes._net_integers(gen.direction_numbers, start, stop)
        assert np.array_equal(pts.int_points, z ^ gen.digital_shift)
        assert np.array_equal(pts.points, pts.int_points.astype(np.float64) / 2.0**32)

    def test_lag_key_leaves_out_the_digital_shift_only(self):
        a, b = nodes.make_sobol(3, seed=1), nodes.make_sobol(3, seed=2)
        assert not np.array_equal(a.digital_shift, b.digital_shift)
        assert a.lag_key == b.lag_key
        assert a.lag_key != nodes.make_sobol(4, seed=1).lag_key
        scrambled = [nodes.make_sobol(3, seed=s, scramble=True).lag_key for s in (1, 2)]
        assert len({a.lag_key, *scrambled}) == 3

    @pytest.mark.parametrize("d", [1, 4, 13])
    @pytest.mark.parametrize("scramble", [False, True])
    def test_net_integers_match_per_bit_loop(self, d, scramble):
        dn = nodes.make_sobol(d, seed=11, scramble=scramble).direction_numbers
        for m in (0, 1, 2, 3, 5, 10, 17, 20):
            ranges = [(0, 1 << m)] + ([(1 << (m - 1), 1 << m)] if m else [])
            if m >= 10:  # chunks of the doubling block, at its end and inside it
                ranges += [((1 << m) - 2**9, 1 << m), ((1 << (m - 1)) + 3 * 2**7,
                                                       (1 << (m - 1)) + 4 * 2**7)]
            for start, stop in ranges:
                assert np.array_equal(nodes._net_integers(dn, start, stop),
                                      per_bit_net_integers(dn, start, stop)), (m, start)


def aligned_generator(kind: str, d: int):
    if kind == "lattice":
        return nodes.make_lattice(d, seed=d)
    return nodes.make_sobol(d, seed=d, scramble=kind == "scrambled")


class TestAlignedRanges:
    """Any range of power-of-2 length L at a multiple of L, the chunks the
    doubling loop streams a block in, gives the block's rows bit for bit."""

    @pytest.mark.parametrize("kind,d", [("lattice", 1), ("lattice", 4), ("lattice", 13),
                                        ("sobol", 4), ("sobol", 13),
                                        ("scrambled", 4), ("scrambled", 13)])
    def test_chunks_equal_the_block_rows(self, kind, d):
        gen = aligned_generator(kind, d)
        rng = np.random.default_rng(d)
        rows = nodes.block_rows(d)
        for n in (2**4, 2**11, 2**14, 2**17):  # doubling blocks [n, 2n), the last to 2^18
            block = gen.points(n, 2 * n)
            length = 1
            while length <= min(rows, n):
                count = n // length
                for j in {0, count - 1, *rng.integers(0, count, 3).tolist()}:
                    lo = n + j * length
                    chunk = gen.points(lo, lo + length)
                    part = slice(lo - n, lo - n + length)
                    assert np.array_equal(chunk.points, block.points[part]), (n, lo, length)
                    if kind != "lattice":
                        assert np.array_equal(chunk.int_points, block.int_points[part])
                        assert np.array_equal(nodes.sobol_lag_integers(gen, lo, lo + length),
                                              block.int_points[part] ^ gen.digital_shift)
                length *= 2

    @pytest.mark.parametrize("kind", ["lattice", "sobol", "scrambled"])
    @pytest.mark.parametrize("start,stop", [(0, 3), (1, 3), (3, 5), (6, 10), (12, 20),
                                            (2**16 + 2**10, 2**16 + 2**10 + 2**11),
                                            (2**16, 2**16 + 3 * 2**10)])
    def test_misaligned_ranges_raise(self, kind, start, stop):
        gen = aligned_generator(kind, 3)
        with pytest.raises(ValueError, match="power of 2|multiple of its length"):
            gen.points(start, stop)
        if kind != "lattice":
            with pytest.raises(ValueError):
                nodes.sobol_lag_integers(gen, start, stop)

    @pytest.mark.parametrize("kind", ["lattice", "sobol"])
    def test_empty_and_oversized_ranges_raise(self, kind):
        gen = aligned_generator(kind, 2)
        for start, stop in ((4, 4), (8, 4), (-1, 1)):
            with pytest.raises(ValueError, match="empty or negative"):
                gen.points(start, stop)
        with pytest.raises(nodes.CapacityError):
            gen.points(gen.capacity, 2 * gen.capacity)

    def test_sobol_chunks_do_not_share_the_cached_prefix(self):
        gen = nodes.make_sobol(4, seed=3)
        first = gen.points(64, 128)
        first.int_points[:] = 0  # a caller may write to what it was given
        nodes.sobol_lag_integers(gen, 0, 64)[:] = 0
        again = gen.points(0, 256)
        assert np.array_equal(again.int_points[64:128] ^ gen.digital_shift,
                              per_bit_net_integers(gen.direction_numbers, 64, 128))
        prefix = nodes._net_prefix(gen.direction_numbers.tobytes(), nodes.block_rows(4))
        assert not prefix.flags.writeable
        assert np.array_equal(prefix, per_bit_net_integers(gen.direction_numbers, 0,
                                                           len(prefix)))


def per_bit_net_integers(dn: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Reference: XOR column k of dn into every row whose index has bit k set."""
    idx = np.arange(start, stop, dtype=np.uint64)
    z = np.zeros((stop - start, dn.shape[0]), dtype=np.uint64)
    bits = int(stop - 1).bit_length() if stop > 1 else 1
    for k in range(bits):
        mask = ((idx >> np.uint64(k)) & np.uint64(1)).astype(bool)
        if mask.any():
            z[mask] ^= dn[:, k][None, :]
    return z


def elementary_interval_check(pts: np.ndarray, m: int, t: int) -> bool:
    """Brute-force count over every elementary dyadic box of volume 2^(t-m)."""
    from itertools import product

    d = pts.shape[1]
    for gammas in product(range(m - t + 1), repeat=d):
        if sum(gammas) != m - t:
            continue
        cells = np.floor(pts * np.exp2(np.array(gammas))[None, :]).astype(int)
        _, counts = np.unique(cells, axis=0, return_counts=True)
        if len(counts) != 1 << (m - t) or (counts != 1 << t).any():
            return False
    return True


class TestDigitSubtract:
    def test_self_cancellation(self):
        x = np.array([0.5, 0.3125, 0.75])
        assert np.array_equal(digit_subtract(x, x), np.zeros(3))

    def test_half_minus_quarter(self):
        assert digit_subtract(np.array([0.5]), np.array([0.25]))[0] == 0.75

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        x = rng.integers(0, 2**32, size=5).astype(np.float64) / 2**32
        y = rng.integers(0, 2**32, size=5).astype(np.float64) / 2**32
        assert np.array_equal(digit_subtract(x, y), digit_subtract(y, x))

    def test_rejects_unrepresentable(self):
        with pytest.raises(ValueError):
            digit_subtract(np.array([1 / 3]), np.array([0.5]))

    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_xor_oracle(self, a, b):
        x, y = a / 2**32, b / 2**32
        assert digit_subtract(np.array([x]), np.array([y]))[0] == (a ^ b) / 2**32

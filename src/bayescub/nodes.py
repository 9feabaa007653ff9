"""Low-discrepancy node sets: extensible shifted rank-1 lattices and
digitally shifted (optionally scrambled) Sobol' sequences, plus the
first-column lags of the matched kernels on each.

Point sets are generated in van der Corput order, so the first 2^m points of
any request are bit-identical to the points of the 2^m request (extensible by
doubling).  All randomness (shift, digital shift, scramble) is drawn from a
counter-based Philox generator keyed by a single 64-bit seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

DIGITS = 32  # binary digit places used for digital (XOR) arithmetic
_SCALE = float(2**DIGITS)
_DATA_DIR_ENV = "BAYESCUB_DATA_DIR"


class CapacityError(ValueError):
    """Requested more points than the generator supports."""


def _data_path(name: str) -> str:
    override = os.environ.get(_DATA_DIR_ENV)
    if override:
        candidate = os.path.join(override, name)
        if os.path.exists(candidate):
            return candidate
    return os.path.join(os.path.dirname(__file__), "data", name)


def _check_range(start: int, stop: int, capacity: int) -> None:
    if not 0 <= start < stop:
        raise ValueError(f"empty or negative index range [{start}, {stop})")
    if stop > capacity:
        raise CapacityError(
            f"range [{start}, {stop}) exceeds generator capacity {capacity}"
        )
    # ranges are either [0, 2^m) or a doubling block [n, 2n)
    if not (start == 0 or start == stop - start):
        raise ValueError(f"range [{start}, {stop}) is not a power-of-2 prefix or doubling block")
    n = stop - start if start else stop
    if n & (n - 1):
        raise ValueError(f"block length {n} is not a power of 2")


@lru_cache(maxsize=32)
def _brev_table(m: int) -> np.ndarray:
    """Reversal of the low m bits of arange(2^m), the permutation behind van
    der Corput order, as a cached, read-only intp table.

    Built by doubling: the (m+1)-bit reversal of i < 2^m is 2 rev(i), and of
    2^m + i is 2 rev(i) + 1.
    """
    t = np.zeros(1, dtype=np.intp)
    for _ in range(m):
        t = np.concatenate([2 * t, 2 * t + 1])
    t.flags.writeable = False
    return t


@dataclass(frozen=True)
class NodeSet:
    """A block of low-discrepancy points."""

    points: np.ndarray        # (n, d) float64 in [0, 1)
    int_points: np.ndarray | None = field(default=None, repr=False)  # sobol only


@dataclass(frozen=True)
class LatticeGenerator:
    """Shifted extensible rank-1 lattice: x_i = h * phi(i-1) + shift mod 1."""

    generating_vector: tuple[int, ...]
    shift: np.ndarray
    max_log2_n: int = 20

    def __post_init__(self):
        h = self.generating_vector
        if any(v % 2 == 0 or not 0 < v < (1 << self.max_log2_n) for v in h):
            raise ValueError("generating vector entries must be odd and < 2^max_log2_n")
        shift = np.asarray(self.shift, dtype=np.float64)
        if shift.shape != (len(h),) or (shift < 0).any() or (shift >= 1).any():
            raise ValueError("shift must be a point of [0,1)^d")
        object.__setattr__(self, "shift", shift)

    @property
    def d(self) -> int:
        return len(self.generating_vector)

    @property
    def capacity(self) -> int:
        return 1 << self.max_log2_n

    def points(self, start: int, stop: int) -> NodeSet:
        return lattice_points(self, start, stop)


def lattice_points(gen: LatticeGenerator, start: int, stop: int) -> NodeSet:
    """Points x_i = (h * phi(i-1) + shift) mod 1 for i-1 in [start, stop).

    h * phi(i) mod 1 is reduced in exact integer arithmetic on the 2^m grid
    before the shift is added, so only the final shifted value rounds.
    """
    _check_range(start, stop, gen.capacity)
    m = max((stop - 1).bit_length(), 1)
    brev = _brev_table(m)[start:stop].view(np.uint64) << np.uint64(gen.max_log2_n - m)
    cap = np.uint64(gen.capacity - 1)
    pts = np.empty((stop - start, gen.d))
    inv = 1.0 / gen.capacity
    for ell, h in enumerate(gen.generating_vector):
        frac = ((np.uint64(h) * brev) & cap).astype(np.float64)
        frac *= inv
        frac += gen.shift[ell]
        frac -= (frac >= 1.0)
        pts[:, ell] = frac
    return NodeSet(points=pts)


def lattice_lag_indices(gen: LatticeGenerator, m: int) -> np.ndarray:
    """(d, n/2+1) grid lags (h_ell k) mod n, k = 0..n/2, of the first Gram column.

    Node i sits at grid index h * brev(i) mod n (up to the shift), so the
    first Gram column in natural grid order has lag (h k / n) mod 1 at k.
    It is even, c_k = c_{n-k}, so the half k <= n/2 determines it.
    """
    n = 1 << m
    if n > gen.capacity:
        raise CapacityError(f"2^{m} exceeds generator capacity {gen.capacity}")
    h = np.asarray(gen.generating_vector, dtype=np.int64)
    return np.multiply.outer(h, np.arange(n // 2 + 1, dtype=np.int64)) & (n - 1)


def default_lattice_vector(d: int) -> tuple[int, ...]:
    """The shipped d<=20 extensible generating vector (override via data file)."""
    vec = []
    with open(_data_path("lattice_base2_m20_d20.txt")) as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                vec.append(int(line))
    if d > len(vec):
        raise CapacityError(f"lattice vector file supports d <= {len(vec)}, requested {d}")
    return tuple(vec[:d])


def make_lattice(d: int, seed: int) -> LatticeGenerator:
    """Lattice generator with the shipped vector and a seeded random shift."""
    vec = default_lattice_vector(d)
    rng = np.random.Generator(np.random.Philox(seed))
    shift = rng.random(d)
    return LatticeGenerator(generating_vector=vec, shift=shift)


# ---------------------------------------------------------------------------
# Sobol'
# ---------------------------------------------------------------------------

def default_direction_numbers(d: int) -> np.ndarray:
    """Direction-number columns v_k = m_k * 2^(DIGITS-k) for d dimensions
    from the shipped table (override via data file).

    The file uses the standard "d s a m_i" table format; dimension 1 is the
    identity (van der Corput) column.  Returns a (d, DIGITS) uint64 array.
    """
    rows = []
    with open(_data_path("sobol_joe_kuo_d20.txt")) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("d"):
                continue
            parts = line.split()
            rows.append((int(parts[0]), int(parts[1]), int(parts[2]),
                         [int(x) for x in parts[3:]]))
    max_d = 1 + len(rows)
    if d > max_d:
        raise CapacityError(f"direction-number file supports d <= {max_d}, requested {d}")

    v = np.zeros((d, DIGITS), dtype=np.uint64)
    v[0] = 1 << (DIGITS - 1 - np.arange(DIGITS, dtype=np.uint64))  # identity matrix
    for dim, s, a, m in rows:
        if dim > d:
            break
        col = list(m)
        for k in range(s, DIGITS):
            # classic recurrence: m_k = 2 a_1 m_{k-1} ^ ... ^ 2^{s-1} a_{s-1} m_{k-s+1}
            #                           ^ 2^s m_{k-s} ^ m_{k-s}
            new = col[k - s] ^ (col[k - s] << s)
            for j in range(1, s):
                if (a >> (s - 1 - j)) & 1:
                    new ^= col[k - j] << j
            col.append(new)
        for k in range(DIGITS):
            v[dim - 1, k] = col[k] << (DIGITS - 1 - k)
    return v


@dataclass(frozen=True)
class SobolGenerator:
    """Digitally shifted (optionally linearly scrambled) base-2 Sobol' sequence."""

    direction_numbers: np.ndarray     # (d, DIGITS) uint64 columns
    digital_shift: np.ndarray         # (d,) uint64, DIGITS-bit shifts
    scramble_seed: int | None = None  # present iff matrix scrambling applied

    def __post_init__(self):
        dn = np.ascontiguousarray(self.direction_numbers, dtype=np.uint64)
        if dn.ndim != 2 or dn.shape[1] != DIGITS:
            raise ValueError("direction_numbers must be (d, DIGITS)")
        if self.scramble_seed is None and not _upper_triangular_unit_diag(dn):
            # scrambled matrices stay nonsingular but lose triangularity
            raise ValueError("generator matrices must be upper triangular with unit diagonal")
        object.__setattr__(self, "direction_numbers", dn)
        shift = np.ascontiguousarray(self.digital_shift, dtype=np.uint64)
        if shift.shape != (dn.shape[0],) or (shift >> np.uint64(DIGITS)).any():
            raise ValueError("digital_shift must be d DIGITS-bit integers")
        object.__setattr__(self, "digital_shift", shift)

    @property
    def d(self) -> int:
        return self.direction_numbers.shape[0]

    @property
    def capacity(self) -> int:
        return 1 << DIGITS

    def points(self, start: int, stop: int) -> NodeSet:
        return sobol_points(self, start, stop)


def _upper_triangular_unit_diag(dn: np.ndarray) -> bool:
    """Column k must have its lowest set bit exactly at row k (bit DIGITS-1-k)."""
    if (dn >> np.uint64(DIGITS)).any():
        return False
    for k in range(DIGITS):
        diag = np.uint64(1) << np.uint64(DIGITS - 1 - k)
        col = dn[:, k]
        if ((col & diag) == 0).any() or (col % diag != 0).any():
            return False
    return True


def _net_integers(dn: np.ndarray, start: int, stop: int) -> np.ndarray:
    """z_i = XOR of the columns dn[:, k] over the set bits k of i, for i in
    [start, stop), a range _check_range accepts.

    Built by doubling, as in the Gray-code construction of Antonov and Saleev
    (1979): z[2^k : 2^(k+1)] is z[0 : 2^k] XOR column k.  A doubling block [n, 2n) is the prefix [0, n)
    XOR column log2(n).
    """
    n = stop - start
    z = np.empty((n, dn.shape[0]), dtype=np.uint64)
    z[0] = 0
    h, k = 1, 0
    while h < n:
        np.bitwise_xor(z[:h], dn[:, k], out=z[h : 2 * h])
        h, k = 2 * h, k + 1
    if start:
        z ^= dn[:, k]
    return z


def sobol_points(gen: SobolGenerator, start: int, stop: int) -> NodeSet:
    """Digitally shifted net points z_i xor shift mapped to [0,1) at 32 bits."""
    _check_range(start, stop, gen.capacity)
    z = _net_integers(gen.direction_numbers, start, stop)
    x = z ^ gen.digital_shift[None, :]
    return NodeSet(points=x.astype(np.float64) / _SCALE, int_points=x)


def sobol_lag_integers(gen: SobolGenerator, start: int, stop: int) -> np.ndarray:
    """Integer lags x_i (-) x_1 = z_i of the first Gram column (shift cancels)."""
    _check_range(start, stop, gen.capacity)
    return _net_integers(gen.direction_numbers, start, stop)


def scramble_direction_numbers(dn: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Linear matrix scramble: left-multiply each generator matrix by a random
    nonsingular lower-triangular bit matrix with unit diagonal."""
    d = dn.shape[0]
    out = dn.copy()
    for ell in range(d):
        rand = rng.integers(0, 1 << DIGITS, size=DIGITS, dtype=np.uint64)
        cols = dn[ell]
        new = np.zeros_like(cols)
        for j in range(DIGITS):
            # row j of L: unit diagonal at bit DIGITS-1-j, random bits above it
            diag = np.uint64(1) << np.uint64(DIGITS - 1 - j)
            above = (~(np.uint64(2) * diag - np.uint64(1))) & np.uint64((1 << DIGITS) - 1)
            row = (rand[j] & above) | diag
            # bit j of L @ col = parity(row & col), all columns at once
            parity = cols & row
            for s in (16, 8, 4, 2, 1):  # XOR-fold the DIGITS bits into bit 0
                parity ^= parity >> np.uint64(s)
            new |= (parity & np.uint64(1)) << np.uint64(DIGITS - 1 - j)
        out[ell] = new
    return out


def make_sobol(d: int, seed: int, scramble: bool = False) -> SobolGenerator:
    """Sobol' generator with shipped direction numbers, seeded digital shift,
    and optional linear matrix scrambling."""
    dn = default_direction_numbers(d)
    rng = np.random.Generator(np.random.Philox(seed))
    scramble_seed = None
    if scramble:
        scramble_seed = seed
        dn = scramble_direction_numbers(dn, rng)
    shift = rng.integers(0, 1 << DIGITS, size=d, dtype=np.uint64)
    return SobolGenerator(direction_numbers=dn, digital_shift=shift,
                          scramble_seed=scramble_seed)

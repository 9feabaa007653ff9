"""Covariance kernels matched to the node families, their cancellation-free
ring form (kernel minus one), and its coefficient columns in eta.

All matched families are products over dimensions of factors 1 + eta_l * c_l
where c_l integrates to zero, so the kernel integrates to one and the Gram
matrix is n plus a rank-free "ring" part.  The ring column is assembled by the
iteration R <- R * (1 + c) + c, which never subtracts near-equal quantities.
A kernel holds one eta per dimension; whether the search shares one value
among them is the doubling loop's choice.  With one eta shared by every
dimension the ring is also the polynomial sum_j eta^j e_j in the elementary
symmetric polynomials e_j of the bases, and with one eta per dimension the
multilinear sum_S (prod_{l in S} eta_l) c_S over the products c_S of the
bases over subsets S; neither's coefficient columns depend on eta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nodes import (LatticeGenerator, SobolGenerator, _brev_table, block_rows,
                    lattice_lag_indices, sobol_lag_integers)

ETA_MIN = 1e-8
ETA_MAX = 1e8

FAMILIES = ("bernoulli", "truncated_series", "exp_decay", "walsh1")


@dataclass(frozen=True)
class KernelSpec:
    """Matched kernel family, order, and shape vector.

    order is r for bernoulli (1 or 2) and truncated_series (> 1), q in (0,1)
    for exp_decay, and fixed 1 for walsh1.  eta has one entry per dimension,
    each in [ETA_MIN, ETA_MAX].
    """

    family: str
    order: float
    eta: np.ndarray

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        eta = np.atleast_1d(np.asarray(self.eta, dtype=np.float64))
        if not ((eta >= ETA_MIN) & (eta <= ETA_MAX)).all():  # NaN fails too
            raise ValueError(f"eta must lie in [{ETA_MIN}, {ETA_MAX}]")
        object.__setattr__(self, "eta", eta)
        if self.family == "bernoulli" and self.order not in (1, 2):
            raise ValueError("bernoulli order must be 1 or 2 (use truncated_series otherwise)")
        if self.family == "truncated_series" and not self.order > 1:
            raise ValueError("truncated_series order must exceed 1")
        if self.family == "exp_decay" and not 0 < self.order < 1:
            raise ValueError("exp_decay order q must lie in (0, 1)")
        if self.family == "walsh1" and self.order != 1:
            raise ValueError("walsh1 has fixed order 1")

    @property
    def d(self) -> int:
        return self.eta.shape[0]


def bernoulli_poly(order: int, x):
    """B_2 and B_4 in closed form; other orders route to truncated_series."""
    x = np.asarray(x, dtype=np.float64)
    if order == 2:
        return x * x - x + 1.0 / 6.0
    if order == 4:
        x2 = x * x
        return x2 * x2 - 2.0 * x2 * x + x2 - 1.0 / 30.0
    raise ValueError(f"no closed form for Bernoulli order {order}")


def walsh_omega1(x):
    """Order-1 Walsh series kernel: 6 * (1/6 - 2^(floor(log2 x) - 1)), = 1 at 0."""
    return _walsh_omega1_in_place(np.array(x, dtype=np.float64))


def _walsh_omega1_in_place(out: np.ndarray):
    """walsh_omega1 of the float64 lags in out, written over them."""
    zero = ~(out > 0)  # before frexp overwrites the lags
    # lag = mant * 2^expo with mant in [0.5, 1); one float buffer throughout
    expo = np.empty(out.shape, dtype=np.int32)
    np.frexp(out, out=(out, expo))
    np.subtract(expo, 2.0, out=out)
    np.exp2(out, out=out)
    out *= 6.0
    np.subtract(1.0, out, out=out)
    out[zero] = 1.0
    return out if out.ndim else float(out)


def truncated_series_spectrum(r: float, n: int) -> np.ndarray:
    """Analytic transform of the grid kernel: 0, n/m^r, aliased tail."""
    k = np.arange(n, dtype=np.float64)
    out = np.zeros(n)
    with np.errstate(over="ignore"):  # m^r overflows at large r: n / inf = 0 is right
        out[1 : n // 2] = n / k[1 : n // 2] ** r
        out[n // 2 :] = n / (n - k[n // 2 :]) ** r
    return out


def truncated_series_table(r: float, n: int) -> np.ndarray:
    """Grid values of the length-n truncated power series via one inverse FFT."""
    tab = np.fft.ifft(truncated_series_spectrum(r, n)).real
    if n > 1:
        # enforce the even symmetry table[k] == table[n-k] bit-exactly
        tab[1:] = 0.5 * (tab[1:] + tab[1:][::-1])
    return tab


def _exp_decay_base(q: float, delta):
    c = np.cos(2.0 * np.pi * np.asarray(delta, dtype=np.float64))
    return 2.0 * q * (c - q) / (q * q - 2.0 * q * c + 1.0)


def _dim_bases_from_lags(spec: KernelSpec, lag: np.ndarray) -> np.ndarray:
    """Per-dimension base values c_l at real-valued lags in [0, 1)."""
    if spec.family == "bernoulli":
        # fold to [0, 1/2]: the even polynomial is then computed identically
        # for both orderings of a pair, making Gram symmetry exact
        folded = np.minimum(lag, 1.0 - lag)
        sign = 1.0 if spec.order == 1 else -1.0
        return sign * bernoulli_poly(int(2 * spec.order), folded)
    if spec.family == "exp_decay":
        return _exp_decay_base(spec.order, np.minimum(lag, 1.0 - lag))
    if spec.family == "walsh1":
        return walsh_omega1(lag)
    raise ValueError(f"{spec.family} has no pointwise lag form")


# columns per block of the in-place ring: the block's ring and its two
# buffers (3 x 256 KB) stay in a 2 MB L2 cache while each dimension's bases
# stream through once; fewer, longer blocks spend less on per-call overhead
_RING_BLOCK = 1 << 15
# columns per block of elementary_symmetric: its d rows (d x 64 KB at
# d = 13) stay in L2 through all d^2/2 updates
_SYMMETRIC_BLOCK = 1 << 13


def ring_from_bases(eta: np.ndarray, bases: np.ndarray, dtype=np.float64) -> np.ndarray:
    """C - 1 over the first axis of (d, ...) bases via the product iteration.

    R <- R * (1 + c_l) + c_l with c_l = eta_l * bases[l], in place over
    blocks of _RING_BLOCK columns; the operations and their order are those
    of the plain iteration, so only the memory traffic changes.  Every
    operation runs in dtype (np.longdouble for an extended-precision ring
    from float64 bases).
    """
    eta = np.asarray(eta, dtype=dtype)
    d = bases.shape[0]
    flat = bases.reshape(d, -1)
    out = np.empty(flat.shape[1], dtype)
    c = np.empty(min(out.size, _RING_BLOCK), dtype)
    factor = np.empty_like(c)
    for lo in range(0, out.size, _RING_BLOCK):  # the last block may be short
        hi = lo + _RING_BLOCK
        ring = out[lo:hi]
        cb = c[:len(ring)]
        fb = factor[:len(ring)]
        np.multiply(eta[0], flat[0, lo:hi], out=ring)
        for ell in range(1, d):
            np.multiply(eta[ell], flat[ell, lo:hi], out=cb)
            np.add(1.0, cb, out=fb)
            ring *= fb
            ring += cb
    return out.reshape(bases.shape[1:])


def elementary_symmetric(bases: np.ndarray) -> np.ndarray:
    """Entrywise e_1..e_d of (d, ...) bases, stacked along the first axis.

    They are the ring column's coefficients in one shared eta:
    prod_l (1 + eta c_l) - 1 = sum_{j=1..d} eta^j e_j.  Built in place one
    dimension at a time by e_j += c_l e_{j-1} with j descending, so every
    update reads the previous dimension's e_{j-1}; over blocks of
    _SYMMETRIC_BLOCK columns, which changes only the memory traffic.
    """
    d = bases.shape[0]
    flat = bases.reshape(d, -1)
    out = np.empty(flat.shape)
    tmp = np.empty(min(flat.shape[1], _SYMMETRIC_BLOCK))
    for lo in range(0, flat.shape[1], _SYMMETRIC_BLOCK):
        hi = lo + _SYMMETRIC_BLOCK
        e = out[:, lo:hi]
        t = tmp[:e.shape[1]]
        e[0] = flat[0, lo:hi]
        for ell in range(1, d):
            c = flat[ell, lo:hi]
            np.multiply(c, e[ell - 1], out=e[ell])
            for j in range(ell - 1, 0, -1):
                np.multiply(c, e[j - 1], out=t)
                e[j] += t
            e[0] += c
    return out.reshape(bases.shape)


def subset_products(bases: np.ndarray) -> np.ndarray:
    """Entrywise products c_S = prod_{l in S} c_l of (d, ...) bases over the
    2^d - 1 nonempty subsets S of the dimensions, row S - 1 for S read as a
    bit mask, stacked along the first axis.

    They are the ring column's coefficients in per-dimension eta:
    prod_l (1 + eta_l c_l) - 1 = sum_S (prod_{l in S} eta_l) c_S.  Row
    2^l - 1 is c_l, and the 2^l - 1 rows after it are c_l times the rows
    before it, the subsets of the lower dimensions.
    """
    d = bases.shape[0]
    out = np.empty(((1 << d) - 1,) + bases.shape[1:])
    for ell in range(d):
        h = 1 << ell
        out[h - 1] = bases[ell]
        np.multiply(bases[ell], out[:h - 1], out=out[h:2 * h - 1])
    return out


# ---------------------------------------------------------------------------
# Fast-path column machinery
# ---------------------------------------------------------------------------

def lattice_column_bases(spec: KernelSpec, gen: LatticeGenerator, m: int,
                         block: bool = False) -> np.ndarray:
    """(d, n/2+1) base values at the lags (h_ell k mod n) / n, k = 0..n/2, or
    with block (n >= 4) the (d, n/4) values at the odd k = 1, 3, ..., n/2 - 1.

    In natural grid order the first Gram column is even, c_k = c_{n-k}, so
    this half determines it; its DCT-I (transforms.fbt_lattice_even) gives the
    distinct Gram eigenvalues, entries 0..n/2 of the even spectrum.  Outside
    truncated_series, whose grid table changes with n, entry 2i is entry i of
    the half column at n/2 bit for bit, so the block is all a doubling adds.
    The other families are built over blocks of block_rows(d) columns, each
    entry by the same operations, so only the memory traffic changes.
    """
    n = 1 << m
    if spec.family == "truncated_series":
        return truncated_series_table(spec.order, n)[lattice_lag_indices(gen, m, block)]
    out = np.empty((gen.d, n // 4 if block else n // 2 + 1))
    cols, step = out.shape[1], block_rows(gen.d)
    for lo in range(0, cols, step):
        hi = min(lo + step, cols)
        idx = lattice_lag_indices(gen, m, block, lo, hi)
        out[:, lo:hi] = _dim_bases_from_lags(spec, idx.astype(np.float64) / n)
    return out


def sobol_column_bases(spec: KernelSpec, gen: SobolGenerator, m: int,
                       start: int = 0) -> np.ndarray:
    """Walsh base values at the digitwise first-column lags of nodes
    start..2^m, shape (d, 2^m - start): the whole column, or with
    start = 2^(m-1) the doubling block that extends the column at 2^(m-1)
    to the column at 2^m (the same values, as the lags are)."""
    if spec.family != "walsh1":
        raise ValueError("Sobol' path requires the walsh1 kernel")
    ints = sobol_lag_integers(gen, start, 1 << m)
    lags = np.empty(ints.shape[::-1])  # the bases are built in this buffer
    np.multiply(ints.T, 2.0**-32, out=lags)
    del ints
    return _walsh_omega1_in_place(lags)


def column_bases(spec: KernelSpec, gen, m: int) -> np.ndarray:
    """Per-dimension base values of the first Gram column on gen's nodes.

    Lattice: the half column (d, 2^(m-1)+1) in natural grid order; Sobol':
    the whole column (d, 2^m) in node order, whose first 2^(m-1) entries are
    the column at 2^(m-1) (inference.coefficient_spectra builds the rest
    alone).  The ring column is ring_from_bases(spec.eta, column_bases(...)).
    """
    if isinstance(gen, LatticeGenerator):
        return lattice_column_bases(spec, gen, m)
    if isinstance(gen, SobolGenerator):
        return sobol_column_bases(spec, gen, m)
    raise TypeError(f"unsupported generator {type(gen)!r}")


# ---------------------------------------------------------------------------
# Dense Gram matrices (self-test and test oracles)
# ---------------------------------------------------------------------------

def gram_matrix(spec: KernelSpec, nodes, gen=None, m: int | None = None) -> np.ndarray:
    """Dense Gram matrix of any matched family, O(n^2 d); self-test and oracle use.

    truncated_series needs (gen, m) because it is defined on the lattice grid.
    """
    if spec.family == "truncated_series":
        if gen is None or m is None:
            raise ValueError("truncated_series Gram needs the lattice generator and m")
        n = 1 << m
        table = truncated_series_table(spec.order, n)
        # node i sits at grid index h * brev(i); pairwise lags are taken mod n
        brev = _brev_table(m)
        h = np.asarray(gen.generating_vector, dtype=np.int64)
        lag_idx = (h[:, None, None] * (brev[:, None] - brev[None, :])) & (n - 1)
        bases = table[lag_idx]
    elif spec.family == "walsh1":
        ints = np.asarray(nodes, dtype=np.uint64).T
        lags = (ints[:, :, None] ^ ints[:, None, :]).astype(np.float64) / 2.0**32
        bases = walsh_omega1(lags)
    else:
        pts = np.asarray(nodes, dtype=np.float64).T
        delta = (pts[:, :, None] - pts[:, None, :]) % 1.0
        bases = _dim_bases_from_lags(spec, delta)
    return 1.0 + ring_from_bases(spec.eta, bases)

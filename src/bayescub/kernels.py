"""Covariance kernels matched to the node families, their cancellation-free
ring form (kernel minus one), and shape-parameter derivatives.

All matched families are products over dimensions of factors 1 + eta_l * c_l
where c_l integrates to zero, so the kernel integrates to one and the Gram
matrix is n plus a rank-free "ring" part.  The ring column is assembled by the
iteration R <- R * (1 + c) + c, which never subtracts near-equal quantities.
A kernel holds one eta per dimension; whether the search shares one value
among them is the doubling loop's choice.  With one eta shared by every
dimension the ring is also the polynomial sum_j eta^j e_j in the elementary
symmetric polynomials e_j of the bases, whose coefficient columns do not
depend on eta.  The Matern kernel lives here only as the dense slow-path
baseline (gram_matrix).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nodes import (LatticeGenerator, SobolGenerator, _brev_table, lattice_lag_indices,
                    sobol_lag_integers)

ETA_MIN = 1e-8
ETA_MAX = 1e8

FAMILIES = ("bernoulli", "truncated_series", "exp_decay", "walsh1", "matern")


class SingularFactorError(ZeroDivisionError):
    """A per-dimension kernel factor vanished while forming a gradient."""


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family, order, and shape vector.

    order is r for bernoulli (1 or 2) and truncated_series (> 1), q in (0,1)
    for exp_decay, fixed 1 for walsh1, and the Matern length scale theta.
    eta has one entry per dimension.
    """

    family: str
    order: float
    eta: np.ndarray

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        eta = np.atleast_1d(np.asarray(self.eta, dtype=np.float64))
        if (eta <= 0).any():
            raise ValueError("eta must be positive")
        if self.family != "matern" and ((eta < ETA_MIN) | (eta > ETA_MAX)).any():
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
    x = np.asarray(x, dtype=np.float64)
    # x = mant * 2^expo with mant in [0.5, 1); one float buffer throughout
    out = np.empty_like(x)
    expo = np.empty(x.shape, dtype=np.int32)
    np.frexp(x, out=(out, expo))
    np.subtract(expo, 2.0, out=out)
    np.exp2(out, out=out)
    out *= 6.0
    np.subtract(1.0, out, out=out)
    out[~(x > 0)] = 1.0
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


# most columns per block of the in-place ring: the block's ring and its two
# buffers (3 x 256 KB) stay in a 2 MB L2 cache while each dimension's bases
# stream through once; fewer, longer blocks spend less on per-call overhead
_RING_BLOCK = 1 << 15
# most columns per block of elementary_symmetric: its d rows (d x 64 KB at
# d = 13) stay in L2 through all d^2/2 updates
_SYMMETRIC_BLOCK = 1 << 13


def _column_blocks(cols: int, most: int) -> tuple[list[tuple[int, int]], int]:
    """Bounds (lo, hi) of near-equal blocks of at most `most` columns, and
    the longest block's length."""
    blocks = -(-cols // most)
    step = -(-cols // blocks)
    return [(lo, min(lo + step, cols)) for lo in range(0, cols, step)], step


def ring_from_bases(eta: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """C - 1 over the first axis of (d, ...) bases via the product iteration.

    R <- R * (1 + c_l) + c_l with c_l = eta_l * bases[l], in place over
    column blocks of near-equal length; the operations and their order are
    those of the plain iteration, so only the memory traffic changes.
    """
    eta = np.asarray(eta, dtype=np.float64)
    d = bases.shape[0]
    flat = bases.reshape(d, -1)
    out = np.empty(flat.shape[1])
    spans, step = _column_blocks(flat.shape[1], _RING_BLOCK)
    c = np.empty(step)
    factor = np.empty(step)
    for lo, hi in spans:
        ring = out[lo:hi]
        cb = c[: hi - lo]
        fb = factor[: hi - lo]
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
    update reads the previous dimension's e_{j-1}; over column blocks, which
    changes only the memory traffic.
    """
    d = bases.shape[0]
    flat = bases.reshape(d, -1)
    out = np.empty(flat.shape)
    spans, step = _column_blocks(flat.shape[1], _SYMMETRIC_BLOCK)
    tmp = np.empty(step)
    for lo, hi in spans:
        e = out[:, lo:hi]
        t = tmp[: hi - lo]
        e[0] = flat[0, lo:hi]
        for ell in range(1, d):
            c = flat[ell, lo:hi]
            np.multiply(c, e[ell - 1], out=e[ell])
            for j in range(ell - 1, 0, -1):
                np.multiply(c, e[j - 1], out=t)
                e[j] += t
            e[0] += c
    return out.reshape(bases.shape)


# ---------------------------------------------------------------------------
# Fast-path column machinery
# ---------------------------------------------------------------------------

def lattice_column_bases(spec: KernelSpec, gen: LatticeGenerator, m: int) -> np.ndarray:
    """(d, n/2+1) base values at the lags (h_ell k mod n) / n, k = 0..n/2.

    In natural grid order the first Gram column is even, c_k = c_{n-k}, so
    this half determines it; its DCT-I (transforms.fbt_lattice_even) gives the
    distinct Gram eigenvalues, entries 0..n/2 of the even spectrum.
    """
    n = 1 << m
    idx = lattice_lag_indices(gen, m)
    if spec.family == "truncated_series":
        table = truncated_series_table(spec.order, n)
        return table[idx]
    return _dim_bases_from_lags(spec, idx.astype(np.float64) / n)


def sobol_column_bases(spec: KernelSpec, gen: SobolGenerator, m: int,
                       start: int = 0) -> np.ndarray:
    """Walsh base values at the digitwise first-column lags of nodes
    start..2^m, shape (d, 2^m - start): the whole column, or with
    start = 2^(m-1) the doubling block that extends the column at 2^(m-1)
    to the column at 2^m (the same values, as the lags are)."""
    if spec.family != "walsh1":
        raise ValueError("Sobol' path requires the walsh1 kernel")
    lags = sobol_lag_integers(gen, start, 1 << m).T.astype(np.float64, order="C")
    lags *= 2.0**-32
    return walsh_omega1(lags)


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


def column_eta_jacobian(eta: np.ndarray, bases: np.ndarray,
                        ring: np.ndarray) -> np.ndarray:
    """Derivative first columns dC1/d eta_l, one row per dimension, shape
    (d, cols), from the bases and ring_from_bases(eta, bases)."""
    factors = 1.0 + eta[:, None] * bases
    if (factors == 0.0).any():
        raise SingularFactorError("per-dimension kernel factor is zero")
    return (1.0 + ring) * bases / factors


# ---------------------------------------------------------------------------
# Dense Gram matrices (Matern path and test oracles)
# ---------------------------------------------------------------------------

def gram_matrix(spec: KernelSpec, nodes, gen=None, m: int | None = None) -> np.ndarray:
    """Dense Gram matrix for any family, O(n^2 d); oracle and Matern use only.

    truncated_series needs (gen, m) because it is defined on the lattice grid.
    """
    if spec.family == "matern":
        pts = np.asarray(nodes, dtype=np.float64)
        delta = np.abs(pts[:, None, :] - pts[None, :, :])
        theta = spec.eta[:, None, None].T  # per-dim theta allowed
        return (np.exp(-theta * delta) * (1.0 + theta * delta)).prod(axis=-1)
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

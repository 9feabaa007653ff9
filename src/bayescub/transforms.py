"""O(n log n) fast transforms diagonalizing the matched Gram matrices.

Lattice path: multiplication by V^H where V_ij = exp(2 pi i n phi(i-1) phi(j-1)),
realized as bit-reversal permute -> radix-2 FFT -> permute back.  Sobol' path:
the Walsh-Hadamard matrix in Hadamard (Sylvester/Kronecker) ordering, applied
by an in-place butterfly using additions and subtractions only.  Both satisfy
row one = column one = all-ones, so coefficient 0 of any transform equals the
plain sum of the input.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .nodes import _brev_table

VDC = "vdc-matched"
HADAMARD = "hadamard"

_DENSE_LIMIT = 4096

# below 2^16 points a single gather stays in cache and is the faster order
_TWO_LEVEL_MIN_M = 16


@dataclass(frozen=True)
class Spectrum:
    coefficients: np.ndarray  # complex for vdc-matched, real for hadamard
    ordering: str             # VDC | HADAMARD

    @property
    def n(self) -> int:
        return self.coefficients.shape[0]


def _check_pow2(n: int) -> int:
    if n < 1 or n & (n - 1):
        raise ValueError(f"length {n} is not a power of 2")
    return n.bit_length() - 1


def _bit_reverse_permute(x: np.ndarray, m: int) -> np.ndarray:
    """x[_brev_table(m)] for a length-2^m array, as a new array.

    From 2^16 points on, the permutation runs in two levels (Carter and
    Gatlin, FOCS 1998): with m = a + b, view x as a (2^b, 2^a) grid, gather
    its rows by the b-bit reversal and its columns by the a-bit reversal,
    then transpose.  Every gather then stays within a cache-sized stretch
    instead of jumping over all n entries; the values are the same.
    """
    if m < _TWO_LEVEL_MIN_M:
        return x[_brev_table(m)]
    a = m // 2
    b = m - a
    grid = x.reshape(1 << b, 1 << a)
    return grid[_brev_table(b)][:, _brev_table(a)].T.reshape(-1)


@lru_cache(maxsize=32)
def _lattice_twiddles(m: int) -> np.ndarray:
    # e^{-i pi phi(i-1)} for i = 1..n, used by the doubling update
    n = 1 << m
    phi = _brev_table(m).astype(np.float64) / n
    return np.exp(-1j * np.pi * phi)


def fbt_lattice(y: np.ndarray) -> Spectrum:
    """V^H y for the lattice eigenvector matrix, via P . FFT . P."""
    y = np.asarray(y)
    m = _check_pow2(y.shape[0])
    out = _bit_reverse_permute(np.fft.fft(_bit_reverse_permute(y, m)), m)
    return Spectrum(coefficients=out, ordering=VDC)


def fbt_lattice_even(col: np.ndarray) -> np.ndarray:
    """Real transform of a column whose grid order is even (col_k = col_{n-k}).

    Kernel first columns have this symmetry by construction, so their spectrum
    is exactly real and the half-size real FFT suffices.
    """
    col = np.asarray(col, dtype=np.float64)
    n = col.shape[0]
    m = _check_pow2(n)
    half = np.fft.rfft(_bit_reverse_permute(col, m)).real
    full = np.empty(n)
    full[: n // 2 + 1] = half
    if n > 1:
        full[n // 2 + 1:] = half[n // 2 - 1: 0: -1]
    return _bit_reverse_permute(full, m)


def fbt_sobol(y: np.ndarray) -> Spectrum:
    """H y for the Hadamard-ordered Walsh matrix (H symmetric, H^2 = n I)."""
    y = np.asarray(y, dtype=np.float64)
    m = _check_pow2(y.shape[0])
    out = y.copy()
    diff = np.empty(out.shape[0] // 2)  # one buffer for every stage's a - b
    h = 1
    for _ in range(m):
        pairs = out.reshape(-1, 2, h)
        a = pairs[:, 0, :]
        b = pairs[:, 1, :]
        t = diff.reshape(-1, h)
        np.subtract(a, b, out=t)
        a += b
        b[...] = t
        h *= 2
    return Spectrum(coefficients=out, ordering=HADAMARD)


def fbt(y: np.ndarray, kind: str) -> Spectrum:
    if kind == "lattice":
        return fbt_lattice(y)
    if kind == "sobol":
        return fbt_sobol(y)
    raise ValueError(f"unknown transform kind {kind!r}")


def fbt_double(prev: Spectrum, new_y: np.ndarray) -> Spectrum:
    """Extend a transform over y[0..n) to y[0..2n) given the new half's values.

    Equals the from-scratch transform of the concatenation.
    """
    new_y = np.asarray(new_y)
    n = prev.n
    if new_y.shape[0] != n:
        raise ValueError(f"second half has length {new_y.shape[0]}, expected {n}")
    if prev.ordering == HADAMARD:
        tail = fbt_sobol(new_y).coefficients
        return Spectrum(np.concatenate([prev.coefficients + tail,
                                        prev.coefficients - tail]), HADAMARD)
    tail = fbt_lattice(new_y).coefficients * _lattice_twiddles(_check_pow2(n))
    out = np.empty(2 * n, dtype=np.complex128)
    out[0::2] = prev.coefficients + tail
    out[1::2] = prev.coefficients - tail
    return Spectrum(out, VDC)


def lattice_eigenvector_matrix(n: int) -> np.ndarray:
    """Dense V with V_jk = exp(2 pi i n phi(j-1) phi(k-1)); test-scale only."""
    if n > _DENSE_LIMIT:
        raise ValueError(f"dense matrix limited to n <= {_DENSE_LIMIT}")
    m = _check_pow2(n)
    phi = _brev_table(m).astype(np.float64) / n
    return np.exp(2j * np.pi * n * np.outer(phi, phi))


def hadamard_matrix(n: int) -> np.ndarray:
    if n > _DENSE_LIMIT:
        raise ValueError(f"dense matrix limited to n <= {_DENSE_LIMIT}")
    m = _check_pow2(n)
    h = np.array([[1.0]])
    for _ in range(m):
        h = np.block([[h, h], [h, -h]])
    return h


def dense_transform(kind: str, y: np.ndarray) -> Spectrum:
    """O(n^2) reference transform built from the explicit matrix."""
    y = np.asarray(y)
    n = y.shape[0]
    _check_pow2(n)
    if kind == "lattice":
        v = lattice_eigenvector_matrix(n)
        return Spectrum(v.conj().T @ y, VDC)
    if kind == "sobol":
        return Spectrum(hadamard_matrix(n) @ y, HADAMARD)
    raise ValueError(f"unknown transform kind {kind!r}")

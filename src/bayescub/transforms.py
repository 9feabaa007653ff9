"""O(n log n) fast transforms diagonalizing the matched Gram matrices.

Lattice path: nodes in van der Corput order sit at grid points h * brev(i)/n,
so the Gram matrix is circulant on the 1/n grid once both sides are permuted
by bit reversal.  Its eigenvectors are the grid Fourier modes, taken here in
natural frequency order: V^H y is one bit-reversal permutation of the data
followed by a radix-2 FFT, and the doubling update is the FFT's own
decimation-in-time step.  Both lattice spectra are kept as entries
k = 0..n/2: real data give y~_{n-k} = conj(y~_k), so a real FFT; the kernel's
first column on the grid is even (c_k = c_{n-k}), so is its spectrum, the
DCT-I of the half c_0..c_{n/2}.  Sobol' path: the
Walsh-Hadamard matrix in Hadamard (Sylvester/Kronecker) ordering, applied in
the constant-geometry form of Pease (J. ACM 15(2), 1968) using additions and
subtractions only: every stage reads the same stride-2 pairs and writes
their sums and differences to the two halves of a second buffer.  Both
transforms satisfy row one = column one = all-ones, so coefficient 0 of any
transform equals the plain sum of the input.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.fft import dct

from .nodes import _brev_table

# largest n of any dense n x n matrix, and of the O(n^3) dense loop
DENSE_MAX_N = 4096

# below 2^16 points a single gather stays in cache and is the faster order.
# Above it, two levels hold up on a busy host: in full test-suite runs on a
# 2-vCPU host, criterion 3's 2^20 / 2^16 lattice time ratio (gate 40x) read
# 50x and 52x with one gather, 22x and 26x with two (19-25x either way alone)
_TWO_LEVEL_MIN_M = 16


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
    # e^{-i pi k / n} for k = 0..n/2, the radix-2 step from n to 2n points
    n = 1 << m
    return np.exp(-1j * np.pi * np.arange(n // 2 + 1) / n)


def fbt_lattice(y: np.ndarray) -> np.ndarray:
    """Entries k = 0..n/2 of V^H y for the lattice eigenvector matrix: the
    real FFT of the bit-reversed data (entry n - k is the conjugate of k)."""
    y = np.asarray(y, dtype=np.float64)
    m = _check_pow2(y.shape[0])
    return np.fft.rfft(_bit_reverse_permute(y, m))


def fbt_lattice_even(half: np.ndarray, n: int, prev: np.ndarray | None = None) -> np.ndarray:
    """Gram spectrum entries 0..n/2 of even grid columns from their halves.

    The full column (c_k = c_{n-k}) has the DFT c_0 + (-1)^k c_{n/2}
    + 2 sum_{0<j<n/2} c_j cos(2 pi j k / n), the DCT-I of the half
    c_0..c_{n/2} for k <= n/2, and entry n - k equals entry k.  Works along
    the last axis, so each row of a 2-D array is one column.

    Given prev, the spectrum at n/2 (n >= 4) of the half's even entries,
    half holds only its odd entries 1, 3, ..., n/2 - 1, and the DCT-I splits
    by decimation (Britanak, Yip and Rao, Discrete Cosine and Sine
    Transforms, 2007): with E = prev and O the DCT-II of the odd entries,
    X_k = E_k + O_k and X_{n/2-k} = E_k - O_k for k < n/4, X_{n/4} = E_{n/4}.
    Given prev, the DCT-II overwrites half, which saves its output buffer.
    """
    half = np.asarray(half, dtype=np.float64)
    _check_pow2(n)
    if prev is not None:
        q = n // 4
        if n < 4 or half.shape[-1] != q or prev.shape != half.shape[:-1] + (q + 1,):
            raise ValueError(f"odd entries of shape {half.shape} and a spectrum of shape "
                             f"{prev.shape} do not make a half column at n = {n}")
        odd = dct(half, type=2, axis=-1, overwrite_x=True)
        out = np.empty(prev.shape[:-1] + (2 * q + 1,))
        np.add(prev[..., :q], odd, out=out[..., :q])
        out[..., q] = prev[..., q]
        np.subtract(prev[..., :q], odd, out=out[..., :q:-1])
        return out
    if half.shape[-1] != n // 2 + 1:
        raise ValueError(f"half column has length {half.shape[-1]}, expected "
                         f"{n // 2 + 1} for n = {n}")
    if n <= 2:  # the DCT-I needs two points; both cases in closed form
        return np.stack([half.sum(axis=-1), half[..., 0] - half[..., -1]],
                        axis=-1)[..., :n]
    return dct(half, type=1, axis=-1)


def fbt_sobol(y: np.ndarray) -> np.ndarray:
    """H y for the Hadamard-ordered Walsh matrix (H symmetric, H^2 = n I).

    Constant geometry (Pease, J. ACM 15(2), 1968): each of the m stages
    reads the stride-2 pairs (x_2i, x_2i+1) and writes x_2i + x_2i+1 to
    entry i and x_2i - x_2i+1 to entry n/2 + i of the other buffer, so
    every stage streams whole arrays.  Each stage adds and subtracts the
    pairs of the radix-2 butterfly with span 2^s, in the same order: that
    butterfly's entry j sits here at entry j rotated s bits right after s
    stages, and m rotations bring every entry home, so the result is the
    butterfly's bit for bit.
    """
    y = np.asarray(y, dtype=np.float64)
    m = _check_pow2(y.shape[0])
    h = y.shape[0] // 2
    bufs = (np.empty(2 * h), np.empty(2 * h))  # the input is only read
    src = y
    for stage in range(m):
        dst = bufs[stage & 1]
        np.add(src[0::2], src[1::2], out=dst[:h])
        np.subtract(src[0::2], src[1::2], out=dst[h:])
        src = dst
    return src if m else y.copy()


def walsh_double(prev: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """H_2n applied to [a, b] from prev = H_n a and tail = H_n b, along the
    last axis: H_2n = [[H_n, H_n], [H_n, -H_n]] gives [prev + tail,
    prev - tail], the operations of fbt_sobol's last stage, so the result
    equals the from-scratch transform bit for bit."""
    n = prev.shape[-1]
    out = np.empty(prev.shape[:-1] + (2 * n,))
    np.add(prev, tail, out=out[..., :n])
    np.subtract(prev, tail, out=out[..., n:])
    return out


def fbt(y: np.ndarray, kind: str) -> np.ndarray:
    if kind == "lattice":
        return fbt_lattice(y)
    if kind == "sobol":
        return fbt_sobol(y)
    raise ValueError(f"unknown transform kind {kind!r}")


def fbt_double(prev: np.ndarray, new_y: np.ndarray, kind: str) -> np.ndarray:
    """Extend fbt(y[0..n), kind) to fbt(y[0..2n), kind) given the new n values.

    Equals the from-scratch transform of the concatenation.
    """
    tail = fbt(new_y, kind)
    if prev.shape != tail.shape:
        raise ValueError(f"transform of shape {prev.shape} does not match "
                         f"{len(new_y)} new values")
    if kind == "sobol":
        return walsh_double(prev, tail)
    # radix-2 decimation in time on halves: the 2n-point bit reversal puts
    # the old data at even grid positions (E = prev) and the new at odd (O);
    # X_k = E_k + w_k O_k for k <= n/2, X_{n-j} = conj(E_j - w_j O_j) for j < n/2
    n = len(new_y)
    h = n // 2
    tail *= _lattice_twiddles(n.bit_length() - 1)
    out = np.empty(n + 1, dtype=np.complex128)
    np.add(prev, tail, out=out[:h + 1])
    np.conjugate(prev[:n - h] - tail[:n - h], out=out[n:h:-1])
    return out


def lattice_eigenvector_matrix(n: int) -> np.ndarray:
    """Dense V with V[j, k] = exp(2 pi i brev(j) k / n); test-scale only."""
    if n > DENSE_MAX_N:
        raise ValueError(f"dense matrix limited to n <= {DENSE_MAX_N}")
    m = _check_pow2(n)
    phase = np.outer(_brev_table(m), np.arange(n)) % n
    return np.exp(2j * np.pi * phase / n)


def hadamard_matrix(n: int) -> np.ndarray:
    """Dense Sylvester-ordered H, the matrix fbt_sobol applies; test-scale only."""
    from scipy.linalg import hadamard

    if n > DENSE_MAX_N:
        raise ValueError(f"dense matrix limited to n <= {DENSE_MAX_N}")
    _check_pow2(n)
    return hadamard(n, dtype=np.float64)


"""Pointwise and dense reference implementations that only the tests use.

Each is the direct, slow form of something the package computes fast: kernel
values at single lag points, their shape-parameter derivatives, the base-2
digit arithmetic of the Walsh kernels, the radical inverse and the bit
reversal, lattice points one whole column at a time, identity Sobol' generator matrices, the Matern kernel at a pair of
points, the dense lattice and Walsh-Hadamard transforms, and the whole
lattice spectra (even Gram, conjugate-symmetric data) that the package keeps
as their halves; the loss gradient in derivative-row form (one transformed
Jacobian row per eta, each summed against the loss's eigenvalue partials),
in float64 and in 80-bit floats; the held spectra's gradient and Hessian
contracted from the whole-row eigenvalue adjoint and curvature at once; the
dense posterior in 80-bit floats; and
the normal box probability's tensor Gauss-Legendre rule over a materialised
grid of points.
"""

import numpy as np

from bayescub import inference, kernels, nodes, transforms
from bayescub.inference import GCV, NonPositiveDefiniteError, TransformedData, _posterior

DIGITS = nodes.DIGITS
_SCALE = float(2**DIGITS)


def van_der_corput(i) -> np.ndarray | float:
    """Base-2 radical inverse: reflect the binary digits of i about the point.

    Exact for 0 <= i < 2^53.
    """
    scalar = np.isscalar(i)
    idx = np.atleast_1d(np.asarray(i, dtype=np.uint64))
    if idx.size and int(idx.max()) >= 1 << 53:
        raise ValueError("index too large for exact binary reflection")
    out = np.zeros(idx.shape, dtype=np.float64)
    rem = idx.copy()
    half = 0.5
    while rem.any():
        out += (rem & 1) * half
        rem >>= 1
        half *= 0.5
    return float(out[0]) if scalar else out


def bit_reverse(k, m: int) -> np.ndarray | int:
    """Reverse the low m bits of k; the permutation behind van der Corput order."""
    scalar = np.isscalar(k)
    v = np.atleast_1d(np.asarray(k, dtype=np.uint64))
    out = np.zeros_like(v)
    for _ in range(m):
        out = (out << np.uint64(1)) | (v & np.uint64(1))
        v = v >> np.uint64(1)
    return int(out[0]) if scalar else out


def lattice_points_by_column(gen, start: int, stop: int) -> np.ndarray:
    """Lattice points (h_l brev(i) mod 1 on the 2^max_log2_n grid + shift_l)
    mod 1, one whole column at a time, in nodes.lattice_points' operations."""
    m = max((stop - 1).bit_length(), 1)
    grid = bit_reverse(np.arange(start, stop), m) << np.uint64(gen.max_log2_n - m)
    pts = np.empty((stop - start, gen.d))
    for ell, h in enumerate(gen.generating_vector):
        frac = ((np.uint64(h) * grid) & np.uint64(gen.capacity - 1)).astype(np.float64)
        frac *= 1.0 / gen.capacity
        frac += gen.shift[ell]
        frac -= (frac >= 1.0)
        pts[:, ell] = frac
    return pts


def identity_direction_numbers(d: int) -> np.ndarray:
    """Identity generator matrices in every dimension (pure van der Corput)."""
    col = (1 << (DIGITS - 1 - np.arange(DIGITS, dtype=np.uint64))).astype(np.uint64)
    return np.tile(col, (d, 1))


def to_digits(x) -> np.ndarray:
    """x * 2^DIGITS as unsigned integers; x must have at most DIGITS binary places."""
    arr = np.asarray(x, dtype=np.float64)
    scaled = arr * _SCALE
    ints = np.rint(scaled)
    if not np.array_equal(ints, scaled):
        raise ValueError(f"value not representable in {DIGITS} binary digits")
    return ints.astype(np.uint64)


def digit_subtract(x, y):
    """Coordinatewise base-2 digitwise subtraction (XOR of dyadic digits).

    Inputs must be exactly representable in DIGITS binary places.
    """
    return (to_digits(x) ^ to_digits(y)).astype(np.float64) / _SCALE


def shift_invariant_ring(spec, lag) -> float | np.ndarray:
    """Ring value of a product kernel at a lag point (d,) or a batch (k, d)."""
    lag = np.asarray(lag, dtype=np.float64)
    scalar = lag.ndim == 1
    bases = kernels._dim_bases_from_lags(spec, np.atleast_2d(lag).T)
    ring = kernels.ring_from_bases(spec.eta, bases)
    return float(ring[0]) if scalar else ring


def exp_decay_kernel(spec, x, t) -> float | np.ndarray:
    """Full kernel value 1 + ring for the exponential-decay family."""
    if spec.family != "exp_decay":
        raise ValueError("spec must be exp_decay")
    delta = (np.asarray(x, dtype=np.float64) - np.asarray(t, dtype=np.float64)) % 1.0
    return 1.0 + shift_invariant_ring(spec, delta)


def walsh_ring(spec, x, t) -> float | np.ndarray:
    """Ring value of the Walsh kernel at digitwise lag x (-) t."""
    if spec.family != "walsh1":
        raise ValueError("spec must be walsh1")
    return shift_invariant_ring(spec, digit_subtract(x, t))


def kernel_eta_gradient(spec, x, t, shared: bool = False) -> np.ndarray:
    """Analytic shape-parameter partials of a product kernel at (x, t).

    shared (all entries of spec.eta equal) returns the single derivative
    d/d eta; otherwise one partial per dimension.
    """
    x = np.asarray(x, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    lag = digit_subtract(x, t) if spec.family == "walsh1" else (x - t) % 1.0
    bases = kernels._dim_bases_from_lags(spec, lag)
    factors = 1.0 + spec.eta * bases
    if (factors == 0.0).any():
        raise ZeroDivisionError("per-dimension kernel factor is zero")
    kernel = factors.prod()
    if shared:
        val = (spec.d / spec.eta[0]) * kernel * (1.0 - np.mean(1.0 / factors))
        return np.array([val])
    return kernel * bases / factors


def matern_kernel(theta: float, x, t) -> float | np.ndarray:
    """prod_l exp(-theta |x_l - t_l|) (1 + theta |x_l - t_l|)."""
    if theta <= 0:
        raise ValueError("theta must be positive")
    delta = np.abs(np.asarray(x, dtype=np.float64) - np.asarray(t, dtype=np.float64))
    vals = np.exp(-theta * delta) * (1.0 + theta * delta)
    return vals.prod(axis=-1)


def mirror_half(half: np.ndarray, n: int) -> np.ndarray:
    """Whole length-n sequence with entry n - k the conjugate of entry k
    (equal to it for a real even spectrum) from its entries 0..n/2, along
    the last axis."""
    return np.concatenate([half, np.conj(half[..., n // 2 - 1: 0: -1])], axis=-1)


def gram_eigenvalues(td) -> np.ndarray:
    """All n Gram eigenvalues lam_1..lam_n of a TransformedData, in spectrum
    order, mirroring an even spectrum's half."""
    lam = np.concatenate([[td.lam1], td.lams_rest])
    return lam if lam.shape[0] == td.n else mirror_half(lam, td.n)


def column_eta_jacobian(eta, bases, ring) -> np.ndarray:
    """Derivative first columns d ring / d eta_l, one row per dimension,
    shape (d, cols), from the bases and ring_from_bases(eta, bases)."""
    factors = 1.0 + eta[:, None] * bases
    if (factors == 0.0).any():
        raise ZeroDivisionError("per-dimension kernel factor is zero")
    return (1.0 + ring) * bases / factors


def jacobian_spectra(eta, bases, ring, kind: str, n: int) -> np.ndarray:
    """The eigenvalue partials d lambda / d eta_l, shape (d, cols), by one
    transform of each Jacobian row."""
    return np.vstack([inference.column_spectrum(row, kind, n)
                      for row in column_eta_jacobian(eta, bases, ring)])


def objective_gradient(td, kind: str, dlambda) -> np.ndarray:
    """Gradient of the EB/GCV loss given eigenvalue derivatives (p, cols),
    laid out like the ring spectrum td was built from, one sum per row, in
    the dtype of td and dlambda (80-bit floats give the reference)."""
    dlambda = np.atleast_2d(dlambda)
    if dlambda.shape[1] != td.lams_rest.shape[0] + 1:
        raise ValueError("eigenvalue derivative length mismatch")
    d1, drest = dlambda[:, 0], dlambda[:, 1:]
    w = td.weights
    if kind == GCV:
        s2 = (w / td.lams_rest**2).sum()
        inv_sum = td.rest_sum(1.0 / td.lams_rest) + 1.0 / td.lam1
        return (-2.0 / s2) * (drest * (w / td.lams_rest**3)).sum(axis=1) \
            + (2.0 / inv_sum) * (d1 / td.lam1**2 + td.rest_sum(drest / td.lams_rest**2))
    s1 = (w / td.lams_rest).sum()
    return (d1 / td.lam1 + td.rest_sum(drest / td.lams_rest)) / td.n \
        - (drest * (w / td.lams_rest**2)).sum(axis=1) / s1


def whole_row_derivatives(spectra, pi, member, adjoint, curvature):
    """Gradient and Hessian in t of a loss at the held spectra's sum
    sum_r pi_r spectra[r] (inference.held_derivatives' layout) from the whole
    rows of its eigenvalue adjoint and curvature
    (inference.eigenvalue_adjoint(td, kind, curvature=True)), each
    contracted over every column at once: the gradient member @ (pi g),
    g = spectra @ adjoint, and the Hessian Q diag Q^T + sum_i coefs_i
    (Q vecs_i)(Q vecs_i)^T + (member pi g) @ member^T, Q = (member pi) @
    spectra."""
    lam_diag, vecs, coefs = curvature
    pg = pi * (spectra @ adjoint)
    q = (member * pi) @ spectra
    proj = q @ vecs.T
    hessian = (q * lam_diag) @ q.T + (proj * coefs) @ proj.T + (member * pg) @ member.T
    return member @ pg, hessian


def extended_eta_gradient(td, kind: str, eta, bases, family: str) -> np.ndarray:
    """The EB/GCV loss's gradient in eta at td's eigenvalues and weights, in
    80-bit floats: objective_gradient over the Jacobian rows of the bases,
    each built as b_l prod_{k != l} (1 + eta_k b_k) and transformed by the
    dense matrix of its family (the DCT-I's on the lattice half)."""
    ld = np.longdouble
    b = np.asarray(bases, dtype=ld)
    factors = 1 + np.asarray(eta, dtype=ld)[:, None] * b
    rows = np.stack([b[ell] * np.prod(np.delete(factors, ell, axis=0), axis=0)
                     for ell in range(b.shape[0])])
    n = td.n
    if family == "lattice":
        k = np.arange(n // 2 + 1)
        angle = (np.outer(k, k) % n).astype(ld) * (2 * np.arccos(ld(-1)) / n)
        matrix = np.cos(angle)
        matrix[:, 1:-1] *= 2
    else:
        matrix = transforms.hadamard_matrix(n).astype(ld)
    extended = TransformedData(weights=td.weights.astype(ld), lam_ring1=ld(td.lam_ring1),
                               lams_rest=td.lams_rest.astype(ld), n=n)
    return objective_gradient(extended, kind, rows @ matrix.T)


def dense_transform(kind: str, y: np.ndarray) -> np.ndarray:
    """O(n^2) reference transform built from the explicit matrix, whole
    (length n) on both families."""
    y = np.asarray(y)
    n = y.shape[0]
    transforms._check_pow2(n)
    if kind == "lattice":
        v = transforms.lattice_eigenvector_matrix(n)
        return v.conj().T @ y
    if kind == "sobol":
        return transforms.hadamard_matrix(n) @ y
    raise ValueError(f"unknown transform kind {kind!r}")


def _chol_extended(a: np.ndarray) -> np.ndarray:
    """Plain Cholesky in 80-bit floats; the double-precision factorization of
    c0 - c' C^-1 c loses too many digits when n/lambda_1 approaches one."""
    a = np.asarray(a, dtype=np.longdouble)
    n = a.shape[0]
    low = np.zeros_like(a)
    for j in range(n):
        s = a[j, j] - (low[j, :j] ** 2).sum()
        if s <= 0:
            raise NonPositiveDefiniteError("extended Cholesky hit a nonpositive pivot")
        low[j, j] = np.sqrt(s)
        if j + 1 < n:
            low[j + 1:, j] = (a[j + 1:, j] - low[j + 1:, :j] @ low[j, :j]) / low[j, j]
    return low


def _solve_extended(low: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = low.shape[0]
    z = np.asarray(b, dtype=np.longdouble).copy()
    for j in range(n):
        z[j] = (z[j] - low[j, :j] @ z[:j]) / low[j, j]
    for j in range(n - 1, -1, -1):
        z[j] = (z[j] - low[j + 1:, j] @ z[j + 1:]) / low[j, j]
    return z


def _forward_identity(low: np.ndarray) -> np.ndarray:
    n = low.shape[0]
    out = np.eye(n, dtype=np.longdouble)
    for j in range(n):
        out[j] = (out[j] - low[j, :j] @ out[:j]) / low[j, j]
    return out


def extended_dense_posterior(y, gram, c, c0: float, kind: str):
    """inference.dense_posterior with the linear algebra in 80-bit floats
    (n <= 512): the reference for the fast widths, because c0 - c' C^-1 c
    cancels severely for smooth kernels."""
    n = np.asarray(y).shape[0]
    if n > 512:
        raise ValueError("extended-precision dense path guarded to n <= 512")
    low = _chol_extended(gram)
    return _posterior(np.asarray(y, dtype=np.longdouble),
                      np.asarray(c, dtype=np.longdouble), c0, kind,
                      lambda rhs: _solve_extended(low, rhs),
                      lambda: _forward_identity(low), 2 * np.log(np.diag(low)).sum())


def grid_mvn_box_probability(a, b, sigma, n_nodes: int = 96) -> float:
    """problems.mvn_box_probability's tensor Gauss-Legendre rule with every
    node stacked in an (n_nodes^dp, dp) array, its weights as a stacked grid
    and the quadratic form as an einsum over the points."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    dp = a.shape[0]
    x1, w1 = np.polynomial.legendre.leggauss(n_nodes)
    nodes, weights = [], []
    for ell in range(dp):
        nodes.append(0.5 * (b[ell] - a[ell]) * x1 + 0.5 * (a[ell] + b[ell]))
        weights.append(0.5 * (b[ell] - a[ell]) * w1)
    grids = np.meshgrid(*nodes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    wgrids = np.meshgrid(*weights, indexing="ij")
    wts = np.prod(np.stack([g.ravel() for g in wgrids], axis=1), axis=1)
    prec = np.linalg.inv(np.asarray(sigma, dtype=np.float64))
    quad = np.einsum("ij,jk,ik->i", pts, prec, pts)
    dens = np.exp(-0.5 * quad) / np.sqrt((2.0 * np.pi) ** dp * np.linalg.det(sigma))
    return float((dens * wts).sum())

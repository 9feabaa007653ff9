"""Hyperparameter objectives, the eigenvalue pipeline, credible-interval
widths, the dense slow-path posterior (one routine, which also returns the EB
loss the dense loop picks its kernel by), and the hyperparameter search.

The fast formulas work entirely in transform space: with spectrum y~ of the
data and eigenvalues lam_1 = n + ring_lam_1, lam_2..lam_n of the Gram matrix,

    EB loss   log(sum_{i>=2} |y~_i|^2 / lam_i) + (1/n) sum_i log lam_i
    GCV loss  log(sum_{i>=2} |y~_i|^2 / lam_i^2) - 2 log(sum_i 1 / lam_i)

and the interval half-widths use ring_lam_1 directly so that no 1 - n/lam_1
subtraction ever happens.

The Gram spectrum is the transform T of the ring column (kernel minus one),
and T is linear.  With one eta shared by all d dimensions the ring column is
a polynomial in eta with no constant term,

    prod_l (1 + eta c_l) - 1 = sum_{j=1..d} eta^j e_j,

e_j the j-th elementary symmetric polynomial of the per-dimension bases c_l,
so the spectrum is sum_j eta^j T(e_j).  With one eta per dimension it is
multilinear, sum_S (prod_{l in S} eta_l) T(c_S) over the products c_S of
the bases over the nonempty subsets S of the dimensions.
coefficient_spectra builds either set of coefficient spectra once per sample
size, growing the previous size's from the doubling's new entries alone (on
Sobol' nodes by the FWHT's last stage, on the lattice by the DCT-I's
decimation split).  polynomial_spectrum evaluates the first at any eta by
one Horner pass and multilinear_spectrum the second at any eta vector by one
multilinear Horner pass, with no ring column and no transform.  The sums
round each term, so their smallest eigenvalues sit on a rounding floor of
the largest; where that floor is coarser than the ring column's transform,
the caller takes the width from the latter.  Per-dimension eta at d >= 4,
where holding the 2^d - 1 subset spectra costs more memory than it saves
time (cubature), and a searched kernel order transform the ring column
itself on every evaluation.  A lattice spectrum is even (lam_k = lam_{n-k})
and, like the real-FFT data spectrum (y~_{n-k} is the conjugate of y~_k),
stays its half k = 0..n/2 up to the width: data_weights pairs the data once
per sample size, TransformedData the eigenvalue sums.

The loss depends on eta through the eigenvalues alone, so its gradient is
one row a = dL/d lam (eigenvalue_adjoint) contracted with the eigenvalues'
eta derivatives, the reverse-mode rule for a linear map (Giles, 2008): on
the subset spectra by one gemv (multilinear_gradient), on the ring column
by one transform, transposed (ring_gradient).  The loss's Hessian in lam,
which eigenvalue_adjoint gives on request from the same parts, is a
diagonal plus one or two rank-one terms; on the subset spectra, where lam
is multilinear in eta, multilinear_gradient contracts it into the exact
Hessian in log eta as well.

search_hyperparameters minimizes over a plain float vector in the log-eta
box SEARCH_BOX; cubature maps it to a kernel and passes the budget.  The
method follows from what the caller gives: one coordinate (shared eta) runs a
bracketed line search whose refine step is a port of scipy's Brent; two or
more with a gradient and a Hessian (per-dimension eta at a fixed order and
d <= 3) a projected Newton search, which asks for them only at the points
it steps from; two or more with a gradient alone
(per-dimension eta at d >= 4) scipy's L-BFGS-B; two or more without one (a
searched order, which has no derivative) scipy's Nelder-Mead.  Only the
last two import scipy.optimize.  All four stay inside the box and share one
memo by exact t, whose size is the evaluation count the budget caps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import stdtrit

from . import kernels
from .transforms import DENSE_MAX_N, fbt, fbt_lattice_even, walsh_double

EB, FULL, GCV = "eb", "full", "gcv"
CRITERIA = (EB, FULL, GCV)
QUANTILE_99 = 2.58  # central 99% normal quantile, used verbatim for EB/GCV

CLAMP_NEG = 1e-8   # eigenvalues in [-CLAMP_NEG*n, 0) are round-off: clamp
CLAMP_SUB = 1e-12  # replacement value, times n


class NonPositiveDefiniteError(ArithmeticError):
    pass


class DegenerateDataError(ValueError):
    """All transformed data beyond the constant mode vanished."""


class NonFiniteStartError(ValueError):
    """The objective is not finite at the search's initial point."""


@dataclass
class TransformedData:
    """Data weights plus the Gram eigenvalue pieces.

    lams_rest is lam_2..lam_n, or an even spectrum's entries k = 1..n/2 with
    each k < n/2 standing for n - k too (rest_sum; data_weights pairs)."""

    weights: np.ndarray       # data_weights, laid out like lams_rest
    lam_ring1: float          # eigenvalue of C - 1 against the ones vector
    lams_rest: np.ndarray     # lam_2..lam_n, or entries 1..n/2 of an even spectrum
    n: int
    n_clamped: int = 0        # clamped eigenvalues, counted over all n
    _sums: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def lam1(self) -> float:
        return self.n + self.lam_ring1

    def rest_sum(self, vals):
        """Sum over lam_2..lam_n of per-eigenvalue values laid out like
        lams_rest along the last axis: on an even spectrum's half every entry
        but the last (k = n/2) counts twice."""
        total = vals.sum(axis=-1)
        if self.lams_rest.shape[0] == self.n - 1:
            return total
        return 2 * total - vals[..., -1]

    def data_sum(self, power: int = 1) -> float:
        """sum_{i>=2} |y~_i|^2 / lam_i^power, power 1 (EB) or 2 (GCV),
        summed once per power: the objective, its derivatives and the width
        all read it."""
        s = self._sums.get(power)
        if s is None:
            over = self.weights / self.lams_rest
            if power == 2:
                over = over / self.lams_rest
            s = self._sums[power] = float(over.sum())
        return s


def data_weights(y_spectrum: np.ndarray, n: int) -> np.ndarray:
    """Weights |y~_k|^2 of the data sums over spectrum entries k >= 1.

    A lattice data spectrum is the half k = 0..n/2 of a real signal's DFT,
    so entry k < n/2 also stands for its conjugate n - k and counts twice.
    """
    w = np.abs(y_spectrum[1:]) ** 2
    if y_spectrum.shape[0] < n:
        w[:-1] *= 2
    return w


def column_spectrum(cols: np.ndarray, kind: str, n: int) -> np.ndarray:
    """Ring spectra of first columns (or of their coefficient columns), one
    per row of (..., cols).

    Lattice columns are the half c_0..c_{n/2} in natural grid order, and so
    are their spectra: entries 0..n/2 of an even spectrum, by one DCT-I.
    Sobol' columns and spectra are whole, length n, in node order.
    """
    if kind == "lattice":
        return fbt_lattice_even(cols, n)
    if cols.shape[-1] != n:
        raise ValueError(f"column has length {cols.shape[-1]}, expected {n}")
    flat = cols.reshape(-1, n)
    out = np.empty(flat.shape)
    for row, dst in zip(flat, out):
        dst[...] = fbt(row, kind)
    return out.reshape(cols.shape)


def coefficient_spectra(spec, gen, kind: str, m: int, prev=None,
                        products=kernels.elementary_symmetric
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Spectra at n = 2^m of the coefficient columns products(bases), one per
    row, and the bases built for them: spec's bases on gen's nodes, and
    products kernels.elementary_symmetric (shared eta: T(e_1)..T(e_d)) or
    kernels.subset_products (per-dimension eta: T(c_S) over the nonempty
    subsets S).

    Given prev (the spectra at n/2), only the doubling block's bases and
    products are built, and the bases returned are the block's.  On Sobol'
    nodes the block's products extend those at n/2, so their transforms at
    length n/2 join prev by the FWHT's last stage (transforms.walsh_double),
    bit for bit the from-scratch result.  On the lattice the block is the
    half column's odd entries, whose DCT-II joins prev by the DCT-I's
    decimation split (transforms.fbt_lattice_even), the from-scratch result
    up to rounding; truncated_series ignores prev and rebuilds, since its
    grid table changes with n.
    """
    n = 1 << m
    if prev is None or spec.family == "truncated_series":
        bases = kernels.column_bases(spec, gen, m)
        return column_spectrum(products(bases), kind, n), bases
    if kind == "sobol":
        block = kernels.sobol_column_bases(spec, gen, m, start=n // 2)
        return walsh_double(prev, column_spectrum(products(block), kind, n // 2)), block
    block = kernels.lattice_column_bases(spec, gen, m, block=True)
    return fbt_lattice_even(products(block), n, prev), block


def polynomial_spectrum(spectra: np.ndarray, eta: float) -> np.ndarray:
    """Ring spectrum sum_j eta^j spectra[j-1] by one Horner pass, laid out
    like the rows of spectra (column_spectrum of e_1..e_d)."""
    out = spectra[-1] * eta
    for row in spectra[-2::-1]:
        out += row
        out *= eta
    return out


# columns per block of the multilinear pass: its 2^(d-1) work rows are this
# long, so no evaluation builds a whole one
_MULTILINEAR_BLOCK = 1 << 14


def multilinear_spectrum(spectra: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Ring spectrum sum_S (prod_{l in S} eta_l) spectra[S - 1] over the
    nonempty subsets S of the d dimensions, read as bit masks, by one
    multilinear Horner pass, laid out like the rows of spectra
    (column_spectrum of kernels.subset_products).  The pass runs over blocks
    of _MULTILINEAR_BLOCK columns, which changes only the memory traffic."""
    h = (spectra.shape[0] + 1) // 2
    out = np.empty(spectra.shape[1])
    for lo in range(0, out.shape[0], _MULTILINEAR_BLOCK):
        cut = slice(lo, lo + _MULTILINEAR_BLOCK)
        rows = spectra[h - 1:, cut] * eta[-1]  # the subsets holding dimension d - 1
        rows[1:] += spectra[:h - 1, cut]       # plus those without it but the empty one
        # then each lower dimension's Horner step, from the highest down
        for ell in range(eta.shape[0] - 2, -1, -1):
            top = rows[1 << ell:2 << ell]
            top *= eta[ell]
            rows[:1 << ell] += top
        out[cut] = rows[0]
    return out


def multilinear_gradient(spectra: np.ndarray, eta: np.ndarray, adjoint: np.ndarray,
                         curvature=None):
    """Gradient in t = log eta of a loss at multilinear_spectrum(spectra, eta)
    from its eigenvalue_adjoint: with g = spectra @ adjoint, one gemv, entry
    l is sum_{S holding l} pi_S g_S, pi_S = prod_{k in S} eta_k.

    Given the loss's Hessian in the eigenvalues too (the curvature of
    eigenvalue_adjoint(td, kind, curvature=True)), returns (gradient,
    Hessian).
    The spectrum is multilinear in eta, so its derivative in t_l is the row
    Q_l = sum_{S holding l} pi_S spectra[S - 1] and its second derivative in
    t_l and t_m the same sum over the S holding both: the Hessian is
    Q H_lam Q^T plus sum_{S holding l and m} pi_S g_S, whose diagonal is the
    gradient.  Q is built over blocks of _MULTILINEAR_BLOCK columns.
    """
    d = eta.shape[0]
    # pi_S by mask S, in kernels.subset_products' order, as Python floats:
    # at d = 2, 3 this loop and the array take 1.2-1.6 us where
    # subset_products(eta[:, None]) alone takes 4.2-6.6 us (timeit, one thread)
    prods = [1.0]
    for e in eta.tolist():
        prods += [p * e for p in prods]
    pi = np.array(prods[1:])
    member = _MEMBERS.get(d)
    if member is None:  # member[l, S - 1] = 1.0 where S holds l
        member = _MEMBERS[d] = (np.arange(1, 1 << d) >> np.arange(d)[:, None] & 1) * 1.0
    pg = pi * (spectra @ adjoint)
    gradient = member @ pg
    if curvature is None:
        return gradient
    lam_diag, vecs, coefs = curvature
    rows = member * pi  # Q = rows @ spectra
    hessian = (member * pg) @ member.T
    proj = np.zeros((d, vecs.shape[0]))
    for lo in range(0, spectra.shape[1], _MULTILINEAR_BLOCK):
        cut = slice(lo, lo + _MULTILINEAR_BLOCK)
        q = rows @ spectra[:, cut]
        hessian += (q * lam_diag[cut]) @ q.T
        proj += q @ vecs[:, cut].T
    hessian += (proj * coefs) @ proj.T
    return gradient, hessian


_MEMBERS: dict = {}  # multilinear_gradient's subset membership rows, by d


def ring_gradient(bases: np.ndarray, ring: np.ndarray, eta: np.ndarray,
                  adjoint: np.ndarray, kind: str, n: int) -> np.ndarray:
    """Gradient in t = log eta of a loss at column_spectrum(ring, kind, n),
    ring = kernels.ring_from_bases(eta, bases), from its eigenvalue_adjoint.

    One transform gives h = T^T adjoint, laid out like ring: the
    Walsh-Hadamard matrix is symmetric, and the DCT-I's transpose is
    w DCT-I(adjoint / w) with w = (1, 2, ..., 2, 1).  Entry l is then
    eta_l sum_j h_j b_lj prod_{k != l} (1 + eta_k b_kj), b = bases, one base
    row at a time, the product read as (1 + ring_j) / (1 + eta_l b_lj) save
    where that factor is zero (walsh1's base is -1/2, eta_l = 2), where it is
    multiplied out.
    """
    if kind == "lattice":
        w = np.full(adjoint.shape[0], 2.0)
        w[0] = w[-1] = 1.0
        h = column_spectrum(adjoint / w, kind, n) * w
    else:
        h = column_spectrum(adjoint, kind, n)
    hr = h * (1.0 + ring)
    out = np.empty(eta.shape)
    for ell, row in enumerate(bases):
        factor = eta[ell] * row
        factor += 1.0
        zero = np.flatnonzero(factor == 0.0)
        factor[zero] = np.inf  # b / inf = 0: these entries are summed below
        out[ell] = hr @ np.divide(row, factor, out=factor)
        if zero.size:
            rest = np.delete(bases[:, zero], ell, axis=0) * np.delete(eta, ell)[:, None]
            out[ell] += h[zero] @ (row[zero] * (1.0 + rest).prod(axis=0))
        out[ell] *= eta[ell]
    return out


def transformed_data(weights: np.ndarray, lams: np.ndarray, n: int) -> TransformedData:
    """Data weights plus the clamped Gram eigenvalues, from the length-n ring
    spectrum or an even one's half 0..n/2 (column_spectrum of a ring column,
    or polynomial_spectrum), laid out like the weights.  Only lam_1 differs
    from its ring entry; entries in [-CLAMP_NEG*n, 0] are round-off and
    become CLAMP_SUB*n, counted over all n eigenvalues."""
    if lams.shape != (weights.shape[0] + 1,) or lams.shape[0] not in (n, n // 2 + 1):
        raise ValueError(f"ring spectrum has shape {lams.shape}, expected ({n},) or "
                         f"({n // 2 + 1},) and one entry more than the data weights")
    clamp = None
    low = lams.min()
    if low <= 0:
        floor = -CLAMP_NEG * n
        if low < floor:
            raise NonPositiveDefiniteError(f"eigenvalue {low:.3e} below round-off floor {floor:.3e}")
        clamp = lams <= 0
        lams = np.where(clamp, CLAMP_SUB * n, lams)
    td = TransformedData(weights=weights, lam_ring1=float(lams[0]),
                         lams_rest=lams[1:], n=n)
    if clamp is not None:
        td.n_clamped = int(clamp[0]) + int(td.rest_sum(clamp[1:].astype(int)))
    return td


def _require_data(td: TransformedData, power: int = 1) -> float:
    s = td.data_sum(power)
    if s <= 0.0:
        raise DegenerateDataError("all spectrum mass sits in the constant mode")
    return s


def objective_eb(td: TransformedData) -> float:
    s1 = _require_data(td)
    log_lams = td.rest_sum(np.log(td.lams_rest)) + np.log(td.lam1)
    return float(np.log(s1) + log_lams / td.n)


def objective_gcv(td: TransformedData) -> float:
    s2 = _require_data(td, power=2)
    inv_sum = td.rest_sum(1.0 / td.lams_rest) + 1.0 / td.lam1
    return float(np.log(s2) - 2.0 * np.log(inv_sum))


def objective(kind: str, td: TransformedData) -> float:
    # the full-Bayes criterion reuses the EB estimate of the shape parameters
    return objective_gcv(td) if kind == GCV else objective_eb(td)


def eigenvalue_adjoint(td: TransformedData, kind: str, curvature: bool = False):
    """The row a = dL/d lam of the EB or GCV loss, laid out like the ring
    spectrum td was built from: entry 0 is lam_1, and on an even spectrum's
    half each entry k < n/2 stands for k and n - k, so it carries both.  The
    loss's derivative in a parameter of the spectrum is a's dot product with
    the spectrum's derivative in it (multilinear_gradient, ring_gradient).

    With curvature, returns (a, (diag, vecs, coefs)) instead, the second
    the loss's Hessian d^2 L / d lam^2 in the same layout: diag(diag) plus
    sum_i coefs[i] vecs[i] vecs[i]^T, a few passes more over a's own and
    data parts.  With multiplicities m (1 at lam_1, 2 at the paired entries
    of an even spectrum's half), data weights w (0 at lam_1), s1 and s2 the
    data sums and sigma = sum_i 1 / lam_i:

        EB   a = m / (n lam) + u, data part u = -w / (s1 lam^2);
             diag -m / (n lam^2) + 2 w / (s1 lam^3) = -(a + u) / lam,
             one term -u u^T, the log s1 part
        GCV  a = r + v, own part r = 2 m / (sigma lam^2), data part
             v = -2 w / (s2 lam^3); diag 6 w / (s2 lam^4) - 4 m / (sigma lam^3)
             = -(2 a + v) / lam, terms -v v^T and r r^T / 2
    """
    inv = 1.0 / td.lams_rest
    out = np.empty(inv.shape[0] + 1)
    gcv = kind == GCV
    if gcv:  # own terms from -2 log sum 1/lam, data terms from log s2
        scale = 2.0 / (td.rest_sum(inv) + 1.0 / td.lam1)
        out[0], own = scale / td.lam1**2, inv * inv * scale
        data = inv**3 * (-2.0 / _require_data(td, power=2))
    else:  # own terms from (1/n) sum log lam, data terms from log s1
        out[0], own = 1.0 / (td.n * td.lam1), inv / td.n
        data = inv * inv * (-1.0 / _require_data(td))
    if inv.shape[0] < td.n - 1:  # the data weights are paired already
        own[:-1] *= 2.0
    data *= td.weights
    np.add(own, data, out=out[1:])
    if not curvature:
        return out
    weight = 2.0 if gcv else 1.0  # of a in the diagonal
    diag = np.empty_like(out)
    diag[0] = -weight * out[0] / td.lam1
    np.multiply(out[1:], -weight, out=diag[1:])
    diag[1:] -= data
    diag[1:] *= inv
    vecs = np.zeros((2 if gcv else 1, out.shape[0]))
    vecs[0, 1:] = data
    if gcv:
        vecs[1, 0], vecs[1, 1:] = out[0], own
    return out, (diag, vecs, _GCV_COEFS if gcv else _EB_COEFS)


_EB_COEFS, _GCV_COEFS = np.array([-1.0]), np.array([-1.0, 0.5])  # of the vecs terms


def student_t_quantile(dof: int) -> float:
    """Two-sided 99% (0.995) Student-t quantile, by incomplete-beta inversion."""
    if dof < 1:
        raise ValueError("degrees of freedom must be at least 1")
    return float(stdtrit(dof, 0.995))


def credible_width(kind: str, td: TransformedData) -> float:
    """Credible-interval half-width in the cancellation-safe form."""
    if td.lam_ring1 < 0:
        raise NonPositiveDefiniteError("ring eigenvalue negative after clamping")
    s = td.data_sum(2 if kind == GCV else 1)
    if s <= 0.0:
        return 0.0
    if kind == EB:
        return QUANTILE_99 / td.n * np.sqrt(td.lam_ring1 / td.lam1 * s)
    if kind == FULL:
        t = student_t_quantile(td.n - 1)
        return t / td.n * np.sqrt(td.lam_ring1 / (td.n - 1) * s)
    if kind == GCV:
        mean_inv = (td.rest_sum(1.0 / td.lams_rest) + 1.0 / td.lam1) / td.n
        return QUANTILE_99 / td.n * np.sqrt(td.lam_ring1 / td.lam1 * s / mean_inv)
    raise ValueError(f"unknown criterion {kind!r}")


# ---------------------------------------------------------------------------
# Dense slow path (Theorem-style formulas with general c vector and c0)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensePosterior:
    mu_hat: float
    err: float
    loss: float  # EB loss log(quad) + (1/n) log det C, for choosing the kernel


def dense_posterior(y: np.ndarray, gram: np.ndarray, c: np.ndarray, c0: float,
                    kind: str) -> DensePosterior:
    """Full O(n^3) posterior: mean estimate and width for a criterion, plus
    the EB loss of the Gram matrix, from one Cholesky factorization."""
    from scipy.linalg import cho_factor, cho_solve, solve_triangular

    n = np.asarray(y).shape[0]
    if n > DENSE_MAX_N:
        raise ValueError(f"dense path guarded to n <= {DENSE_MAX_N}")
    try:
        chol = cho_factor(np.asarray(gram, dtype=np.float64), lower=True)
    except np.linalg.LinAlgError as exc:
        raise NonPositiveDefiniteError(f"dense Gram not positive definite: {exc}")
    return _posterior(np.asarray(y, dtype=np.float64), np.asarray(c, dtype=np.float64),
                      c0, kind, lambda rhs: cho_solve(chol, rhs),
                      lambda: solve_triangular(chol[0], np.eye(n), lower=True),
                      2.0 * np.log(np.diag(chol[0])).sum())


def _posterior(y: np.ndarray, c: np.ndarray, c0: float, kind: str, solve,
               inverse_factor, logdet) -> DensePosterior:
    """The posterior formulas over a factored Gram matrix C, in the dtype of
    y and c: solve(rhs) is C^-1 rhs, inverse_factor() the inverse of C's
    lower Cholesky factor (needed by GCV alone), logdet log det C.  The EB
    loss log quad + logdet / n is the dense counterpart of the fast one."""
    n = y.shape[0]
    a = solve(y)     # C^-1 y
    b = solve(np.ones(n, dtype=y.dtype))
    e = solve(c)
    dd = b.sum()     # 1' C^-1 1
    one_a = a.sum()
    quad = y @ a - one_a**2 / dd
    loss = float(np.log(max(quad, 1e-300)) + logdet / n)
    resid_var = c0 - c @ e
    mu = (1.0 - e.sum()) * one_a / dd + c @ a

    if kind == EB:
        q, var = QUANTILE_99, quad / n * resid_var
    elif kind == FULL:
        q = student_t_quantile(n - 1)
        var = quad / (n - 1) * ((1.0 - c @ b) ** 2 / dd + resid_var)
    elif kind == GCV:
        a2, dd2 = solve(a), solve(b).sum()   # C^-2 y, 1' C^-2 1
        q = QUANTILE_99
        var = (y @ a2 - a2.sum()**2 / dd2) / (inverse_factor()**2).sum() * resid_var
        mu = (1.0 - e.sum()) * (b @ a) / dd2 + c @ a
    else:
        raise ValueError(f"unknown criterion {kind!r}")
    return DensePosterior(float(mu), float(q * np.sqrt(max(var, 0.0))), loss)


# ---------------------------------------------------------------------------
# Hyperparameter search over unconstrained coordinates
# ---------------------------------------------------------------------------

XATOL, FATOL = 1e-4, 1e-7  # search tolerances in t and in the value
STEP = 0.5  # first step of the line search and Nelder-Mead's initial simplex
SEARCH_BOX = (np.log(kernels.ETA_MIN), np.log(kernels.ETA_MAX))  # every coordinate's box


@dataclass
class SearchResult:
    t: np.ndarray           # best coordinates seen
    evaluations: int
    payload: object = None  # best-seen auxiliary data from the objective
    capped: bool = False    # the budget ran out before the method stopped


def search_hyperparameters(objective_fn, t0: np.ndarray, budget: int = 100,
                           gradient_fn=None, hessian: bool = False) -> SearchResult:
    """Minimize objective_fn over a float vector from t0 in the box
    SEARCH_BOX^p; returns the best point seen within budget evaluations, and
    whether the budget ran out before the method's own stop (capped).
    What the coordinates mean is the caller's business.

    objective_fn(t) -> (value, payload); gradient_fn(t) -> the value's
    gradient in t, or with hessian the pair (gradient, Hessian).  The method
    follows the coordinates: one runs a line search (_line_search: a
    downhill walk that brackets the minimum, then Brent), two or more with
    a Hessian a projected Newton search (_projected_newton), two or more
    with a gradient alone L-BFGS-B, two or more without one Nelder-Mead;
    only the last two import scipy.optimize.  All four start from t0
    clipped into the box, never evaluate outside it, memoize by exact t and
    count distinct evaluations only.  With two or more coordinates,
    gradient_fn(t) runs right after objective_fn(t), so it may read what
    objective_fn built: L-BFGS-B asks it at each new t of finite value, the
    Newton search only at the points it steps from, and where such a point
    is not the latest evaluated, objective_fn(t) runs there again first
    (tests/test_inference.py,
    test_newton_asks_derivatives_only_where_it_steps_from).  A value that is
    not finite or raises NonPositiveDefiniteError, DegenerateDataError or
    FloatingPointError is a rejected step; its derivatives, like non-finite
    ones, are zero.  A rejected t0 raises NonFiniteStartError.
    """
    p = t0.shape[0]
    t0 = np.clip(t0, *SEARCH_BOX)
    best = {"val": np.inf, "t": t0.copy(), "payload": None}
    memo = {}  # [value, gradient, Hessian] by exact t; its size counts the evaluations
    derivatives = gradient_fn is not None and p > 1
    latest = None  # the t objective_fn ran at last

    def value(t):
        nonlocal latest
        latest = tuple(t)
        try:
            val, payload = objective_fn(t)
        except (NonPositiveDefiniteError, DegenerateDataError, FloatingPointError):
            return np.inf, None
        return (val if np.isfinite(val) else np.inf), payload

    def evaluate(t):
        key = tuple(t)
        if key not in memo:
            if memo and len(memo) >= budget:  # the start is always evaluated
                raise _BudgetSpent
            t = np.array(key)
            val, payload = value(t)
            g = None
            if derivatives and not hessian and val < np.inf:  # in turn, at the same t
                g = gradient_fn(t)
                if not np.isfinite(g).all():
                    g = None
            if val < best["val"]:
                best.update(val=val, t=t, payload=payload)
            memo[key] = [val, np.zeros(p) if g is None else g, None]
        return memo[key]

    def second_order(x):  # the Newton search's gradient and Hessian at an evaluated x
        entry = memo[tuple(x)]
        if entry[2] is None:
            t = np.array(x)
            if tuple(x) != latest:  # so that gradient_fn reads what objective_fn built
                value(t)
            g, h = gradient_fn(t)
            if np.isfinite(g).all() and np.isfinite(h).all():
                entry[1:] = g, h
            else:
                entry[2] = np.zeros((p, p))
        return entry[1], entry[2]

    v0 = evaluate(t0)[0]
    if not np.isfinite(v0):
        raise NonFiniteStartError("objective not finite at the initial hyperparameters")

    capped = False
    try:
        if p == 1:
            _line_search(lambda u: evaluate((u,))[0], float(t0[0]), v0, STEP, *SEARCH_BOX)
        elif derivatives and hessian:
            _projected_newton(lambda x: evaluate(x)[0], second_order, t0.tolist(), v0,
                              *SEARCH_BOX)
        else:
            _scipy_search(evaluate, t0, v0, derivatives)
    except _BudgetSpent:
        capped = True
    return SearchResult(t=best["t"], evaluations=len(memo), payload=best["payload"],
                        capped=capped)


class _BudgetSpent(Exception):
    pass


def _scipy_search(evaluate, t0, v0, with_gradient):
    """scipy's L-BFGS-B on evaluate's values and gradients, or without a
    gradient its Nelder-Mead, in the box."""
    from scipy.optimize import minimize

    box = [SEARCH_BOX] * t0.shape[0]
    if with_gradient:
        # scipy's line search ends the whole search at an infinite value;
        # at a finite one above the start's, with zero gradient, it
        # backtracks.  The memo and the best point still see it rejected.
        wall = v0 + 1.0 + abs(v0)

        def walled(t):
            v = evaluate(t)[0]
            return wall if v == np.inf else v

        minimize(walled, t0, jac=lambda t: evaluate(t)[1], method="L-BFGS-B", bounds=box)
    else:
        minimize(lambda t: evaluate(t)[0], t0, method="Nelder-Mead", bounds=box,
                 options={"xatol": XATOL, "fatol": FATOL,
                          "initial_simplex": _initial_simplex(t0, STEP)})


ARMIJO = 1e-4  # the projected Newton search's sufficient-decrease constant


def _projected_newton(f, derivatives, x, fx, lo, hi):
    """Projected Newton search (Bertsekas, SIAM J. Control Optim. 20, 1982)
    of f over the box [lo, hi]^p from the list x, whose value is fx, on the
    gradient and Hessian that derivatives(x) gives at each point it steps
    from, and at no other.

    Each step fixes the coordinates that sit at a bound with the gradient
    pointing out of the box, and takes the Newton step on the others with
    their Hessian block made positive definite (_newton_step).  From the
    full step it backtracks by halves, each trial clipped into the box,
    until the value falls by the Armijo rule (Nocedal and Wright, Numerical
    Optimization, 2006, ch. 3); a rejected (infinite) value never does.  It
    stops when a trial moves no coordinate by XATOL or an accepted step
    gains less than FATOL.  The bookkeeping is in Python floats: p is small.
    """
    p = len(x)
    while True:
        g, h = derivatives(x)
        g, h = g.tolist(), h.tolist()
        free = [i for i in range(p)
                if not (x[i] <= lo and g[i] > 0.0 or x[i] >= hi and g[i] < 0.0)]
        if len(free) == p:
            step = _newton_step(h, g)
        else:
            step = [0.0] * p
            for i, s in zip(free, _newton_step([[h[i][j] for j in free] for i in free],
                                               [g[i] for i in free])):
                step[i] = s
        alpha = 1.0
        while True:
            y = [min(max(xi + alpha * si, lo), hi) for xi, si in zip(x, step)]
            if max([abs(yi - xi) for yi, xi in zip(y, x)]) < XATOL:
                return
            fy = f(y)
            if fy < fx and fy <= fx + ARMIJO * sum(
                    [gi * (yi - xi) for gi, yi, xi in zip(g, y, x)]):
                break
            alpha *= 0.5
        if fx - fy < FATOL:
            return
        x, fx = y, fy


def _newton_step(h, g):
    """The step -H^-1 g on lists, H made positive definite: H itself where
    its Cholesky factorization runs and gives a finite step, else H with
    each eigenvalue replaced by its absolute value, floored at 1e-8 of the
    largest or at 1e-8 (Nocedal and Wright, 2006, section 3.4).  A step
    that is still not finite is zero."""
    step = _cholesky_solve(h, [-gi for gi in g])
    if step is None or not all(map(math.isfinite, step)):
        w, v = np.linalg.eigh(np.array(h))
        w = np.maximum(np.abs(w), 1e-8 * max(np.abs(w).max(), 1.0))
        step = (-(v @ ((v.T @ np.array(g)) / w))).tolist()
    return step if all(map(math.isfinite, step)) else [0.0] * len(g)


def _cholesky_solve(h, b):
    """H^-1 b on lists by H's Cholesky factor, built from H's lower
    triangle, or None where H is not positive definite.  In Python floats
    because p is 2 or 3: at those sizes this takes 2.5-4.0 us where
    numpy.linalg's cholesky and solve take 10.4-11.9 us and its eigh
    12.5-13.7 us (timeit, one thread), and a whole mvn_sweep_d2 pass, with
    about 2400 steps, took 40-45 ms less than with eigh alone (medians of
    10 and 20 alternating in-process pairs, 2-vCPU host)."""
    low = []  # the factor's rows, each up to its diagonal
    for i, hrow in enumerate(h):
        row = hrow[:i + 1]
        for j in range(i + 1):
            lj = low[j] if j < i else row
            s = row[j]
            for k in range(j):
                s -= row[k] * lj[k]
            if j < i:
                row[j] = s / lj[j]
            elif s > 0.0:
                row[i] = math.sqrt(s)
            else:
                return None
        low.append(row)
    z = []  # low z = b, then low^T x = z
    for i, row in enumerate(low):
        s = b[i]
        for k in range(i):
            s -= row[k] * z[k]
        z.append(s / row[i])
    x = z[:]
    for i in range(len(x) - 1, -1, -1):
        s = z[i]
        for k in range(i + 1, len(x)):
            s -= low[k][i] * x[k]
        x[i] = s / low[i][i]
    return x


def _line_search(f, x, fx, step, lo, hi):
    """Bracketed Brent search of f over one coordinate in [lo, hi] from x,
    whose value is fx.

    Walks downhill with steps step, 2 step, 4 step, ... (clipped at the
    bounds) until the value stops falling, and returns at a bound where it
    still falls; then _brent, a port of scipy's Brent (xtol XATOL), refines
    inside the last three points.  f memoizes, so Brent's re-reading of the
    middle point costs nothing.
    """
    for sign in (-1.0, 1.0):
        b = min(max(x + sign * step, lo), hi)
        if b != x and f(b) < fx:
            a, h, end = x, step, (lo if sign < 0 else hi)
            while b != end:
                h *= 2
                c = min(max(b + sign * h, lo), hi)
                if f(c) >= f(b):
                    break
                a, b = b, c
            else:
                return  # still falling at the bound
            break
    else:  # neither side falls: x is the middle, unless at a bound
        a, b, c = max(x - step, lo), x, min(x + step, hi)
        if not a < x < c:
            return
        if f(a) == fx:  # a level side goes last, where ties are split
            a, c = c, a
    if f(c) == f(b):  # a tie, which a Brent bracket refuses: split it
        a, b = b, (b + c) / 2
        if not f(b) < f(a):
            return  # level
    _brent(f, a, b, c)


def _brent(f, a, b, c):
    """Brent's minimization (Brent, Algorithms for Minimization without
    Derivatives, 1973) of f inside the bracket a, b, c, in either order,
    with f(b) below both ends.

    A step-for-step port of Brent.optimize in scipy.optimize._optimize
    (scipy, BSD-3-Clause) as scipy's "brent" scalar method runs it with xtol
    XATOL: scipy's constants and its operations in its order, so f sees the
    points scipy's would, less its reads of the two ends, whose values the
    method never uses.  Python floats keep a rejected (infinite) value from
    raising numpy warnings.
    """
    tol, maxiter, _mintol = XATOL, 500, 1e-11
    _cg = 0.3819660  # scipy's literal, not the full golden ratio
    a, b, x = float(min(a, c)), float(max(a, c)), float(b)
    w = v = x
    fw = fv = fx = f(x)
    deltax = rat = 0.0
    for _ in range(maxiter):
        tol1 = tol * abs(x) + _mintol
        tol2 = 2.0 * tol1
        xmid = 0.5 * (a + b)
        if abs(x - xmid) < tol2 - 0.5 * (b - a):
            break
        if abs(deltax) <= tol1:  # golden section step
            deltax = a - x if x >= xmid else b - x
            rat = _cg * deltax
        else:  # parabolic step through x, w and v, if it is useful
            tmp1 = (x - w) * (fx - fv)
            tmp2 = (x - v) * (fx - fw)
            p = (x - v) * tmp2 - (x - w) * tmp1
            tmp2 = 2.0 * (tmp2 - tmp1)
            if tmp2 > 0.0:
                p = -p
            tmp2 = abs(tmp2)
            dx_temp, deltax = deltax, rat
            if p > tmp2 * (a - x) and p < tmp2 * (b - x) and abs(p) < abs(0.5 * tmp2 * dx_temp):
                rat = p / tmp2
                u = x + rat
                if u - a < tol2 or b - u < tol2:
                    rat = tol1 if xmid - x >= 0 else -tol1
            else:
                deltax = a - x if x >= xmid else b - x
                rat = _cg * deltax
        if abs(rat) < tol1:  # step by at least tol1
            u = x + tol1 if rat >= 0 else x - tol1
        else:
            u = x + rat
        fu = f(u)
        if fu > fx:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, w, fv, fw = w, u, fw, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
        else:
            a, b = (x, b) if u >= x else (a, x)
            v, w, x, fv, fw, fx = w, x, u, fw, fx, fu


def _initial_simplex(t0: np.ndarray, step: float) -> np.ndarray:
    p = t0.shape[0]
    simplex = np.tile(t0, (p + 1, 1))
    for i in range(p):
        simplex[i + 1, i] += step if t0[i] <= 0 else -step
    return simplex


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
decimation split).  Either spectrum at eta is then pi @ spectra, one
matrix-vector product with the coefficients pi built at that eta, the
powers eta^j (power_coefficients) or the subset products
(subset_coefficients), with no ring column and no transform.  The sums
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
the ring column by one transform, transposed (ring_gradient); on either set
of held spectra by held_derivatives, from the same pi, which also
contracts the loss's Hessian in lam, a diagonal plus one or two rank-one
terms, into the exact Hessian in log eta.  Both sets' pi have log eta
derivatives that are integer multiples of themselves, so one pass serves
both.  It runs over column blocks, taking each block's adjoint entries from the block's
eigenvalues and weights and the loss's scalar sums, so no derivative call
builds a whole row.

search_hyperparameters minimizes over a plain float vector in the log-eta
box SEARCH_BOX; cubature maps it to a kernel and passes the budget.  The
method follows from what the caller gives: a gradient and a Hessian (eta
at a fixed order on the held spectra: shared, or per-dimension at d <= 3)
a projected Newton search, which asks for them only at the points it steps
from; a gradient alone (per-dimension eta at d >= 4) scipy's L-BFGS-B;
neither (a searched order, which has no derivative) scipy's Nelder-Mead.
Only the last two import scipy.optimize.  All three stay inside the box and
share one memo by exact t, whose size is the evaluation count the budget
caps.  The derivatives at t are handed the payload the objective returned
there, so they read what the value built.  Besides its XATOL and FATOL
rules, the Newton search stops where its own quadratic model, on a Hessian
block positive definite as it stands, predicts a gain below FATOL: before
a trial whose Newton decrement -g.s / 2 is below FATOL / 2, and, at one
coordinate only, after a full unclipped step whose cubic Taylor term puts
the next decrement below 3/4 FATOL, with no derivative call there.  Each
search reports which stop ended it (SearchResult.stop).
"""

from __future__ import annotations

import functools
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
    clamped: np.ndarray | None = None  # which entries were, laid out like the ring spectrum
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

    def inverse_sum(self) -> float:
        """sigma = sum_i 1 / lam_i, summed once: the GCV loss, its
        derivatives and its width all read it."""
        s = self._sums.get("inverse")
        if s is None:
            s = self._sums["inverse"] = float(self.rest_sum(1.0 / self.lams_rest)
                                              + 1.0 / self.lam1)
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


# columns per block of held_derivatives' pass, so no derivative call builds a
# whole row
_HELD_BLOCK = 1 << 14


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
    or pi @ spectra), laid out like the weights.  Only lam_1 differs from
    its ring entry; entries in [-CLAMP_NEG*n, 0] are round-off and become
    CLAMP_SUB*n, counted over all n eigenvalues."""
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
        td.clamped = clamp
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
    return float(np.log(s2) - 2.0 * np.log(td.inverse_sum()))


def objective(kind: str, td: TransformedData) -> float:
    # the full-Bayes criterion reuses the EB estimate of the shape parameters
    return objective_gcv(td) if kind == GCV else objective_eb(td)


def eigenvalue_adjoint(td: TransformedData, kind: str, curvature: bool = False,
                       lo: int = 0, hi: int | None = None):
    """The row a = dL/d lam of the EB or GCV loss, laid out like the ring
    spectrum td was built from: entry 0 is lam_1, and on an even spectrum's
    half each entry k < n/2 stands for k and n - k, so it carries both.  The
    loss's derivative in a parameter of the spectrum is a's dot product with
    the spectrum's derivative in it (held_derivatives, ring_gradient).
    Given lo and hi, only entries lo..hi - 1: each entry reads its own
    eigenvalue and data weight and the loss's scalar sums alone, so a pass
    over column blocks builds no whole row.  A clamped eigenvalue is a
    constant of the spectrum, so its entries here are 0.

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
    rest = td.lams_rest.shape[0]
    stop = rest if hi is None else min(hi - 1, rest)
    cut = slice(max(lo - 1, 0), stop)
    ninv = np.divide(-1.0, td.lams_rest[cut])  # -1 / lam: the products below are sign-exact
    head = int(lo == 0)  # the block holds lam_1
    gcv = kind == GCV
    out = np.empty(ninv.shape[0] + head)
    vecs = np.empty((2 if gcv and curvature else 1, out.shape[0]))
    data = vecs[0, head:]  # the data part, built in place: the curvature's first vector
    # an even spectrum's half pairs the own terms of all its entries but the
    # last, n/2 (the data weights are paired already); n is a power of two,
    # so scaling by pair / n is exact
    pair = 2.0 if rest < td.n - 1 else 1.0
    if gcv:  # own terms from -2 log sum 1/lam, data terms from log s2
        scale = 2.0 / td.inverse_sum()
        own = np.multiply(ninv, ninv, out=vecs[1, head:] if curvature else None)
        np.multiply(own, ninv, out=data)
        own *= scale * pair
        data *= 2.0 / _require_data(td, power=2)
    else:  # own terms from (1/n) sum log lam, data terms from log s1
        own = np.multiply(ninv, -pair / td.n)
        np.multiply(ninv, ninv, out=data)
        data *= -1.0 / _require_data(td)
    if pair == 2.0 and stop == rest:
        own[-1:] *= 0.5
    data *= td.weights[cut]
    np.add(own, data, out=out[head:])
    if head:
        out[0] = scale / td.lam1**2 if gcv else 1.0 / (td.n * td.lam1)
    held = None if td.clamped is None else td.clamped[lo:stop + 1]
    if held is not None:  # a clamped eigenvalue is a constant: its entries are 0
        out[held] = 0.0
    if not curvature:
        return out
    diag = np.empty_like(out)  # -(a + u) / lam or -(2 a + v) / lam
    body = diag[head:]
    if gcv:
        np.multiply(out[head:], 2.0, out=body)
        body += data
    else:
        np.add(out[head:], data, out=body)
    body *= ninv
    if head:
        diag[0] = -(2.0 if gcv else 1.0) * out[0] / td.lam1
        vecs[0, 0] = 0.0
        if gcv:
            vecs[1, 0] = out[0]
    if held is not None:
        diag[held] = 0.0
        vecs[:, held] = 0.0
    return out, (diag, vecs, _GCV_COEFS if gcv else _EB_COEFS)


_EB_COEFS, _GCV_COEFS = np.array([-1.0]), np.array([-1.0, 0.5])  # of the vecs terms


def subset_coefficients(eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of the subset-product spectra (column_spectrum of
    kernels.subset_products), whose ring spectrum at eta is pi @ spectra:
    pi_S = prod_{l in S} eta_l by mask S, in kernels.subset_products' order,
    and for held_derivatives member[l, S - 1] = 1 where S holds l.  pi is
    built in Python floats, which is faster at d <= 3 (README)."""
    prods = [1.0]
    for e in eta.tolist():
        prods += [p * e for p in prods]
    return np.array(prods[1:]), _subset_members(eta.shape[0])


@functools.cache
def _subset_members(d: int) -> np.ndarray:
    return (np.arange(1, 1 << d) >> np.arange(d)[:, None] & 1) * 1.0


def power_coefficients(eta: float, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of the power spectra (column_spectrum of e_1..e_d),
    whose ring spectrum at eta is pi @ spectra: pi_j = eta^j and for
    held_derivatives the one exponent row member[0, j - 1] = j, j = 1..d."""
    prods = [eta]
    for _ in range(d - 1):
        prods.append(prods[-1] * eta)
    return np.array(prods), _exponents(d)


@functools.cache
def _exponents(d: int) -> np.ndarray:
    return np.arange(1.0, d + 1.0)[None]


def held_derivatives(spectra: np.ndarray, pi: np.ndarray, member: np.ndarray,
                     td: TransformedData, kind: str, adjoint=eigenvalue_adjoint):
    """Gradient and Hessian in t of the loss at the held spectra's sum
    lam = sum_r pi_r spectra[r], td built from it, where pi_r = exp(sum_l
    member[l, r] t_l): the subset products of eta = exp(t)
    (subset_coefficients) or the powers of one eta (power_coefficients).

    lam's derivative in t_l is then the row Q_l = sum_r member[l, r] pi_r
    spectra[r] and its second derivative in t_l and t_m the same sum
    weighted by member[m, r] too.  So with g = spectra @ a, a the loss's
    eigenvalue_adjoint, the gradient is member @ (pi g) and the Hessian
    Q H_lam Q^T + (member pi g) @ member^T, H_lam the adjoint's curvature.
    One pass over blocks of _HELD_BLOCK columns asks adjoint(td, kind,
    True, lo, hi) for each block's entries and contracts them at once, so
    no row as long as the spectrum is built.  adjoint is
    eigenvalue_adjoint or a stand-in with its signature.
    """
    rows = member * pi  # Q = rows @ spectra
    for lo in range(0, spectra.shape[1], _HELD_BLOCK):
        hi = lo + _HELD_BLOCK
        a, (lam_diag, vecs, coefs) = adjoint(td, kind, True, lo, hi)
        block = spectra[:, lo:hi]
        q = rows @ block
        sums = block @ a, (q * lam_diag) @ q.T, q @ vecs.T  # g, Q H_lam Q^T by parts
        if lo:
            for total, part in zip((g, hessian, proj), sums):
                total += part
        else:
            g, hessian, proj = sums
    pg = pi * g
    hessian += (member * pg) @ member.T + (proj * coefs) @ proj.T
    return member @ pg, hessian


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
        mean_inv = td.inverse_sum() / td.n
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
# why a search stopped: the Newton search's own four stops (_projected_newton),
# the end of scipy's L-BFGS-B or Nelder-Mead, or the budget spent
STOPS = ("xatol", "fatol", "decrement", "model", "scipy", "budget")
STEP = 0.5  # the edge of Nelder-Mead's initial simplex
SEARCH_BOX = (np.log(kernels.ETA_MIN), np.log(kernels.ETA_MAX))  # every coordinate's box


@dataclass
class SearchResult:
    t: np.ndarray           # best coordinates seen
    evaluations: int
    payload: object = None  # best-seen auxiliary data from the objective
    capped: bool = False    # the budget ran out before the method stopped
    value: float = np.inf   # the objective at t
    stop: str | None = None  # why it stopped, one of STOPS


def search_hyperparameters(objective_fn, t0: np.ndarray, budget: int = 100,
                           gradient_fn=None, hessian: bool = False) -> SearchResult:
    """Minimize objective_fn over a float vector from t0 in the box
    SEARCH_BOX^p; returns the best point seen within budget evaluations, its
    value, whether the budget ran out before the method's own stop
    (capped), and why it stopped (stop, one of STOPS).
    What the coordinates mean is the caller's business.

    objective_fn(t) -> (value, payload); gradient_fn(t, payload) -> the
    value's gradient in t, or with hessian the pair (gradient, Hessian), given
    the payload objective_fn(t) returned.  The method follows what the caller
    gives: with a Hessian a projected Newton search (_projected_newton), with
    a gradient alone L-BFGS-B, with neither Nelder-Mead; only the last two
    import scipy.optimize.  The Newton search stops on XATOL and FATOL, and
    where its positive definite quadratic model says the next step gains
    too little: before a trial whose predicted gain is below FATOL / 2, and
    at one coordinate after a full, unclipped step whose cubic term puts
    the next gain below 3/4 FATOL.  All three start from t0 clipped into
    the box, never evaluate outside it, memoize by exact t and count distinct
    evaluations only.  L-BFGS-B asks the gradient at each new t of finite
    value, right after its value; the Newton search only at the points it
    steps from.  The search keeps the payload of its latest evaluation
    alone, so where such a point was read from the memo, objective_fn(t)
    runs there again first (tests/test_inference.py,
    test_newton_asks_derivatives_only_where_it_steps_from).  A value that is
    not finite or raises NonPositiveDefiniteError, DegenerateDataError or
    FloatingPointError is a rejected step; its derivatives, like non-finite
    ones, are zero.  A rejected t0 raises NonFiniteStartError.
    """
    p = t0.shape[0]
    t0 = np.clip(t0, *SEARCH_BOX)
    best = {"val": np.inf, "t": t0.copy(), "payload": None}
    memo = {}  # [value, gradient, Hessian] by exact t; its size counts the evaluations
    derivatives = gradient_fn is not None
    latest = None  # (t, payload) of objective_fn's latest return

    def value(t):
        nonlocal latest
        try:
            val, payload = objective_fn(t)
        except (NonPositiveDefiniteError, DegenerateDataError, FloatingPointError):
            return np.inf, None
        latest = tuple(t), payload
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
                g = gradient_fn(t, payload)
                if not np.isfinite(g).all():
                    g = None
            if val < best["val"]:
                best.update(val=val, t=t, payload=payload)
            memo[key] = [val, np.zeros(p) if g is None else g, None]
        return memo[key]

    def second_order(x):  # the Newton search's gradient and Hessian at an evaluated x
        entry = memo[tuple(x)]
        if entry[2] is None:
            key, payload = latest
            t = np.array(x)
            if tuple(x) != key:  # a memo hit: rebuild its payload
                payload = value(t)[1]
            g, h = gradient_fn(t, payload)
            if np.isfinite(g).all() and np.isfinite(h).all():
                entry[1:] = g, h
            else:
                entry[2] = np.zeros((p, p))
        return entry[1], entry[2]

    v0 = evaluate(t0)[0]
    if not np.isfinite(v0):
        raise NonFiniteStartError("objective not finite at the initial hyperparameters")

    try:
        if derivatives and hessian:
            stop = _projected_newton(lambda x: evaluate(x)[0], second_order, t0.tolist(),
                                     v0, *SEARCH_BOX)
        else:
            _scipy_search(evaluate, t0, v0, derivatives)
            stop = "scipy"
    except _BudgetSpent:
        stop = "budget"
    return SearchResult(t=best["t"], evaluations=len(memo), payload=best["payload"],
                        capped=stop == "budget", value=best["val"], stop=stop)


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
    from, and at no other; returns why it stopped.

    Each step fixes the coordinates that sit at a bound with the gradient
    pointing out of the box, and takes the Newton step s on the others with
    their Hessian block made positive definite (_newton_step).  From the
    full step it backtracks by halves, each trial clipped into the box,
    until the value falls by the Armijo rule (Nocedal and Wright, Numerical
    Optimization, 2006, ch. 3); a rejected (infinite) value never does.  It
    stops at x when a trial moves no coordinate by XATOL ("xatol"), and at
    the accepted point when that step gains less than FATOL ("fatol").  Two
    more stops read the quadratic model's gain dec = -g.s / 2, and only
    where the free Hessian block is positive definite as it stands, so
    never on an eigenvalue-modified step:
    - "decrement": dec < FATOL / 2 before the first trial, so the step
      would gain less than FATOL (the Newton decrement, Boyd and
      Vandenberghe, Convex Optimization, 2004, section 9.5.1); it returns at
      x and evaluates no trial.
    - "model", at p = 1 only: after an accepted full step that was not
      clipped, the gain's miss from dec is minus the step's cubic Taylor
      term, which puts the gradient at the new point at -3 miss / s and its
      decrement at 9 miss^2 / (4 dec).  Where 3 miss^2 < FATOL dec, that
      next gain is below 3/4 FATOL, and the search returns there without
      asking its derivatives.  With p > 1 the cubic term along the step
      does not bound the cross terms.
    The bookkeeping is in Python floats: p is small.
    """
    p = len(x)
    while True:
        g, h = derivatives(x)
        g, h = g.tolist(), h.tolist()
        free = [i for i in range(p)
                if not (x[i] <= lo and g[i] > 0.0 or x[i] >= hi and g[i] < 0.0)]
        if len(free) == p:
            step, convex = _newton_step(h, g)
        else:
            step = [0.0] * p
            sub, convex = _newton_step([[h[i][j] for j in free] for i in free],
                                       [g[i] for i in free])
            for i, s in zip(free, sub):
                step[i] = s
        dec = -0.5 * sum([gi * si for gi, si in zip(g, step)])  # the model's gain
        alpha = 1.0
        while True:
            y = [min(max(xi + alpha * si, lo), hi) for xi, si in zip(x, step)]
            if max([abs(yi - xi) for yi, xi in zip(y, x)]) < XATOL:
                return "xatol"
            if convex and dec < 0.5 * FATOL:  # alpha is 1: no trial evaluated yet
                return "decrement"
            fy = f(y)
            if fy < fx and fy <= fx + ARMIJO * sum(
                    [gi * (yi - xi) for gi, yi, xi in zip(g, y, x)]):
                break
            alpha *= 0.5
        if fx - fy < FATOL:
            return "fatol"
        if p == 1 and convex and alpha == 1.0 and y[0] == x[0] + step[0]:
            miss = fx - fy - dec  # minus the cubic term; next decrement 9 miss^2 / (4 dec)
            if 3.0 * miss * miss < FATOL * dec:
                return "model"
        x, fx = y, fy


def _newton_step(h, g):
    """The step -H^-1 g on lists, H made positive definite, and whether H
    itself was: H itself where its Cholesky factorization runs and gives a
    finite step, else H with each eigenvalue replaced by its absolute
    value, floored at 1e-8 of the largest or at 1e-8 (Nocedal and Wright,
    2006, section 3.4).  A step that is still not finite is zero."""
    step = _cholesky_solve(h, [-gi for gi in g])
    if step is not None and all(map(math.isfinite, step)):
        return step, True
    w, v = np.linalg.eigh(np.array(h))
    w = np.maximum(np.abs(w), 1e-8 * max(np.abs(w).max(), 1.0))
    step = (-(v @ ((v.T @ np.array(g)) / w))).tolist()
    return (step if all(map(math.isfinite, step)) else [0.0] * len(g)), False


def _cholesky_solve(h, b):
    """H^-1 b on lists by H's Cholesky factor, built from H's lower
    triangle, or None where H is not positive definite.  In Python floats
    because p is at most 3, where that is faster than numpy.linalg
    (README)."""
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


def _initial_simplex(t0: np.ndarray, step: float) -> np.ndarray:
    p = t0.shape[0]
    simplex = np.tile(t0, (p + 1, 1))
    for i in range(p):
        simplex[i + 1, i] += step if t0[i] <= 0 else -step
    return simplex


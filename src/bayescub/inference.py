"""Hyperparameter objectives, the eigenvalue pipeline, credible-interval
widths, the dense slow-path posterior, and the hyperparameter search.

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
so the spectrum is sum_j eta^j T(e_j): coefficient_spectra builds the d
coefficient spectra once per sample size (on Sobol' nodes it grows the
previous size's by the new block alone), and polynomial_spectrum evaluates
the spectrum at any eta by one Horner pass, with no ring column and no
transform.
Per-dimension eta and a searched kernel order transform the ring column
itself on every evaluation.  A lattice spectrum is even
(lam_k = lam_{n-k}) and, like the real-FFT data spectrum (y~_{n-k} is the
conjugate of y~_k), stays its half k = 0..n/2 up to the width: data_weights
pairs the data once per sample size, TransformedData the eigenvalue sums.

search_hyperparameters minimizes over a plain float vector; cubature maps it
to a kernel and passes the eta bounds and the budget.  The method follows
from what the caller gives: one coordinate (shared eta) runs a bracketed
Brent line search, two or more with a gradient (per-dimension eta at a fixed
order) L-BFGS-B, two or more without one (a searched order, which has no
derivative) Nelder-Mead.  All three stay inside the bounds and share one
memo of values and one cap on distinct evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular
from scipy.optimize import minimize, minimize_scalar
from scipy.special import stdtrit

from . import kernels
from .transforms import fbt, fbt_lattice_even, walsh_double

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
        """sum_{i>=2} |y~_i|^2 / lam_i^power, power 1 (EB) or 2 (GCV)."""
        over = self.weights / self.lams_rest
        if power == 2:
            over = over / self.lams_rest
        return float(over.sum())


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
    """Ring spectra of first columns (or their eta derivatives), one per row
    of (..., cols).

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


def coefficient_spectra(spec, gen, kind: str, m: int, prev=None) -> np.ndarray:
    """Spectra T(e_1)..T(e_d) at n = 2^m of the shared-eta coefficient
    columns, kernels.elementary_symmetric of spec's bases on gen's nodes.

    On Sobol' nodes, given prev (the spectra at n/2), only the new block is
    built: its e_j extend those at n/2, so their transforms at length n/2
    join prev by the FWHT's last stage (transforms.walsh_double), bit for bit
    the from-scratch result.  The lattice ignores prev and rebuilds, since
    truncated_series's grid table changes with n.
    """
    n = 1 << m
    if kind == "sobol" and prev is not None:
        block = kernels.sobol_column_bases(spec, gen, m, start=n // 2)
        return walsh_double(prev, column_spectrum(
            kernels.elementary_symmetric(block), kind, n // 2))
    return column_spectrum(kernels.elementary_symmetric(
        kernels.column_bases(spec, gen, m)), kind, n)


def polynomial_spectrum(spectra: np.ndarray, eta: float) -> np.ndarray:
    """Ring spectrum sum_j eta^j spectra[j-1] by one Horner pass, laid out
    like the rows of spectra (column_spectrum of e_1..e_d)."""
    out = spectra[-1] * eta
    for row in spectra[-2::-1]:
        out += row
        out *= eta
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


def objective_gradient(td: TransformedData, kind: str, dlambda: np.ndarray) -> np.ndarray:
    """Gradient of the EB/GCV loss given eigenvalue derivatives (p, cols),
    laid out like the ring spectrum td was built from."""
    dlambda = np.atleast_2d(np.asarray(dlambda, dtype=np.float64))
    if dlambda.shape[1] != td.lams_rest.shape[0] + 1:
        raise ValueError("eigenvalue derivative length mismatch")
    d1, drest = dlambda[:, 0], dlambda[:, 1:]
    w = td.weights
    if kind == GCV:
        s2 = _require_data(td, power=2)
        inv_sum = td.rest_sum(1.0 / td.lams_rest) + 1.0 / td.lam1
        return (-2.0 / s2) * (drest * (w / td.lams_rest**3)).sum(axis=1) \
            + (2.0 / inv_sum) * (d1 / td.lam1**2 + td.rest_sum(drest / td.lams_rest**2))
    s1 = _require_data(td)
    return (d1 / td.lam1 + td.rest_sum(drest / td.lams_rest)) / td.n \
        - (drest * (w / td.lams_rest**2)).sum(axis=1) / s1


def student_t_quantile(dof: int, p: float = 0.995) -> float:
    """Student-t inverse CDF (regularized incomplete-beta inversion)."""
    if dof < 1:
        raise ValueError("degrees of freedom must be at least 1")
    return float(stdtrit(dof, p))


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
    m: float
    s2: float


def dense_posterior(y: np.ndarray, gram: np.ndarray, c: np.ndarray, c0: float,
                    kind: str) -> DensePosterior:
    """Full O(n^3) posterior: mean estimate, width, and scale for a criterion."""
    n = np.asarray(y).shape[0]
    if n > 4096:
        raise ValueError("dense path guarded to n <= 4096")
    try:
        chol = cho_factor(np.asarray(gram, dtype=np.float64), lower=True)
    except np.linalg.LinAlgError as exc:
        raise NonPositiveDefiniteError(f"dense Gram not positive definite: {exc}")
    return _posterior(np.asarray(y, dtype=np.float64), np.asarray(c, dtype=np.float64),
                      c0, kind, lambda rhs: cho_solve(chol, rhs),
                      lambda: solve_triangular(chol[0], np.eye(n), lower=True))


def _posterior(y: np.ndarray, c: np.ndarray, c0: float, kind: str, solve,
               inverse_factor) -> DensePosterior:
    """The posterior formulas over a factored Gram matrix C, in the dtype of
    y and c: solve(rhs) is C^-1 rhs, inverse_factor() the inverse of C's
    lower Cholesky factor (needed by GCV alone)."""
    n = y.shape[0]
    ones = np.ones(n, dtype=y.dtype)

    a = solve(y)     # C^-1 y
    b = solve(ones)
    e = solve(c)
    dd = b.sum()     # 1' C^-1 1
    one_a = a.sum()
    m_eb = one_a / dd
    quad = y @ a - one_a**2 / dd
    resid_var = c0 - c @ e
    mu_eb = (1.0 - e.sum()) * one_a / dd + c @ a

    if kind in (EB, FULL):
        s2_eb = quad / n
        if kind == EB:
            return DensePosterior(float(mu_eb),
                                  float(QUANTILE_99 * np.sqrt(max(s2_eb * resid_var, 0.0))),
                                  float(m_eb), float(s2_eb))
        sig2 = quad / (n - 1) * ((1.0 - c @ b) ** 2 / dd + resid_var)
        t = student_t_quantile(n - 1)
        return DensePosterior(float(mu_eb), float(t * np.sqrt(max(sig2, 0.0))),
                              float(m_eb), float(sig2))

    if kind == GCV:
        a2 = solve(a)   # C^-2 y
        b2 = solve(b)
        dd2 = b2.sum()
        one_a2 = a2.sum()
        m_gcv = one_a2 / dd2
        quad2 = y @ a2 - one_a2**2 / dd2
        trace_inv = (inverse_factor()**2).sum()
        s2_gcv = quad2 / trace_inv
        mu_gcv = (1.0 - e.sum()) * (b @ a) / dd2 + c @ a
        return DensePosterior(float(mu_gcv),
                              float(QUANTILE_99 * np.sqrt(max(s2_gcv * resid_var, 0.0))),
                              float(m_gcv), float(s2_gcv))
    raise ValueError(f"unknown criterion {kind!r}")


def dense_eb_objective(y: np.ndarray, gram: np.ndarray) -> float:
    """log quad + (1/n) log det, the dense counterpart of the fast EB loss."""
    y = np.asarray(y, dtype=np.float64)
    n = y.shape[0]
    chol = cho_factor(np.asarray(gram, dtype=np.float64), lower=True)
    a = cho_solve(chol, y)
    b = cho_solve(chol, np.ones(n))
    quad = float(y @ a) - float(a.sum()) ** 2 / float(b.sum())
    logdet = 2.0 * np.log(np.diag(chol[0])).sum()
    return float(np.log(max(quad, 1e-300)) + logdet / n)


# ---------------------------------------------------------------------------
# Hyperparameter search over unconstrained coordinates
# ---------------------------------------------------------------------------

XATOL, FATOL = 1e-4, 1e-7  # search tolerances in t and in the value
STEP = 0.5  # first step of the line search and Nelder-Mead's initial simplex


@dataclass
class SearchResult:
    t: np.ndarray           # best coordinates seen
    evaluations: int
    payload: object = None  # best-seen auxiliary data from the objective


def search_hyperparameters(objective_fn, t0: np.ndarray, budget: int = 100,
                           gradient_fn=None,
                           bounds: tuple[float, float] = (-np.inf, np.inf)) -> SearchResult:
    """Minimize objective_fn over a float vector from t0 in the box
    [bounds]^p; returns the best point seen within budget evaluations.
    What the coordinates mean is the caller's business.

    objective_fn(t) -> (value, payload); gradient_fn(t) -> the value's
    gradient in t.  The method follows the coordinates: one runs a line
    search (_line_search: a downhill walk that brackets the minimum, then
    Brent), two or more with a gradient_fn L-BFGS-B, two or more without one
    Nelder-Mead.  All three start from t0 clipped into the box, never
    evaluate outside it, memoize values by exact t and count distinct
    evaluations only.  Non-finite values during the search are treated as
    rejected steps, where the gradient is zero; a non-finite value at t0
    raises NonFiniteStartError.
    """
    p = t0.shape[0]
    t0 = np.clip(t0, *bounds)
    best = {"val": np.inf, "t": t0.copy(), "payload": None, "count": 0}

    def wrapped(t):
        best["count"] += 1
        try:
            val, payload = objective_fn(t)
        except (NonPositiveDefiniteError, FloatingPointError):
            return np.inf
        if np.isfinite(val) and val < best["val"]:
            best.update(val=val, t=np.asarray(t, dtype=np.float64).copy(), payload=payload)
        return val if np.isfinite(val) else np.inf

    v0 = wrapped(t0)
    if not np.isfinite(v0):
        raise NonFiniteStartError("objective not finite at the initial hyperparameters")
    memo = {tuple(t0): v0}

    def value(t):
        key = tuple(t)
        if key not in memo:
            if len(memo) >= budget:
                raise _BudgetSpent
            memo[key] = wrapped(np.array(key))
        return memo[key]

    def gradient(t):
        g = gradient_fn(t) if np.isfinite(value(t)) else np.zeros(p)
        return g if np.isfinite(g).all() else np.zeros(p)

    try:
        if p == 1:
            _line_search(lambda u: value((u,)), float(t0[0]), v0, STEP, *bounds)
        elif gradient_fn is not None:
            minimize(value, t0, jac=gradient, method="L-BFGS-B", bounds=[bounds] * p)
        else:
            minimize(value, t0, method="Nelder-Mead", bounds=[bounds] * p,
                     options={"xatol": XATOL, "fatol": FATOL,
                              "initial_simplex": _initial_simplex(t0, STEP)})
    except _BudgetSpent:
        pass
    return SearchResult(t=best["t"], evaluations=best["count"], payload=best["payload"])


class _BudgetSpent(Exception):
    pass


def _line_search(f, x, fx, step, lo, hi):
    """Bracketed Brent search of f over one coordinate in [lo, hi] from x,
    whose value is fx.

    Walks downhill with steps step, 2 step, 4 step, ... (clipped at the
    bounds) until the value stops falling, and returns at a bound where it
    still falls; then Brent (xtol XATOL) refines inside the last three
    points.  f memoizes, so Brent's re-reading of the bracket costs nothing.
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
    minimize_scalar(f, bracket=(a, b, c), method="brent", options={"xtol": XATOL})


def _initial_simplex(t0: np.ndarray, step: float) -> np.ndarray:
    p = t0.shape[0]
    simplex = np.tile(t0, (p + 1, 1))
    for i in range(p):
        simplex[i + 1, i] += step if t0[i] <= 0 else -step
    return simplex


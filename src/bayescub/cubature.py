"""Automatic cubature loops: the fast doubling algorithm over matched
(node set, kernel) pairs, and the generic dense loop with its own Matern
kernel as the slow baseline.

Per iteration only the new block of nodes is generated and evaluated; the
running data transform is grown by the doubling update, the shape
parameters are re-optimized from a warm start, and sampling stops as soon as
the credible half-width drops to the tolerance.

The search runs on plain coordinates, which this module alone maps to a
kernel.  With one eta shared by every dimension and a fixed kernel order (the
default), the Gram spectrum is a polynomial in eta: each doubling builds the
spectra of its d coefficient columns (inference.coefficient_spectra), the
loop holds and grows only those spectra, and an objective evaluation is one
Horner pass over them; the search over its one coordinate is a Brent line
search, which needs no gradient.  Per-dimension eta rebuilds the bases at
each doubling and builds the ring column and its transform on every
evaluation; L-BFGS-B searches it with the analytic gradient, which reuses
the latest evaluation's ring column and data and transforms the d columns
of the eta Jacobian.  A searched order builds its bases per evaluation too,
and Nelder-Mead searches it without a gradient.  Every search stays in the
box [log 1e-8, log 1e8], which also keeps a searched order one its kernel
accepts, within _BUDGET_FIRST distinct evaluations at the first doubling and
_BUDGET_LATER at each later one.

On Sobol' nodes coefficient_spectra grows the held spectra by the new
block's alone, bit for bit the from-scratch result; on the lattice it
rebuilds them at every doubling.  There both the data spectrum (the real FFT
of real data) and the even Gram spectrum stay their halves k = 0..n/2
throughout, and the data weights are paired to match once per doubling.

The dense loop factors the Matern Gram, built one (n, n) factor per
dimension, once per theta of a fixed grid and keeps the EB posterior of least
EB loss; full and GCV factor the chosen theta's Gram once more.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import kernels, problems
from .inference import (EB, CRITERIA, DegenerateDataError, NonFiniteStartError,
                        TransformedData, coefficient_spectra, column_spectrum,
                        credible_width, data_weights, dense_posterior, objective,
                        objective_gradient, polynomial_spectrum,
                        search_hyperparameters, transformed_data)
from .nodes import CapacityError, make_lattice, make_sobol
from .transforms import DENSE_MAX_N, fbt, fbt_double


class IntegrandError(ValueError):
    """The integrand returned a non-finite value."""


# later searches start warm from the previous optimum
_BUDGET_FIRST, _BUDGET_LATER = 100, 20


@dataclass(frozen=True)
class CubatureConfig:
    family: str = "lattice"          # lattice | sobol | matern_dense
    criterion: str = EB
    epsilon: float = 1e-2
    n0: int = 2**8
    n_max: int = 2**20
    seed: int = 0
    periodizer: str = "none"
    eta_mode: str = "shared"         # shared | per_dimension
    kernel: str | None = None        # default: bernoulli (lattice) / walsh1 (sobol)
    order: float | None = None       # default: 2 (bernoulli) / 1 (walsh1)
    scramble: bool = False
    search_order: bool = False       # search a continuous kernel order too

    def __post_init__(self):
        if self.family not in ("lattice", "sobol", "matern_dense"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.criterion not in CRITERIA:
            raise ValueError(f"unknown criterion {self.criterion!r}")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        for name in ("n0", "n_max"):
            v = getattr(self, name)
            if v < 2 or v & (v - 1):
                raise ValueError(f"{name} must be a power of 2, got {v}")
        if self.n0 > self.n_max:
            raise ValueError("n0 must not exceed n_max")
        if self.eta_mode not in ("shared", "per_dimension"):
            raise ValueError(f"unknown eta_mode {self.eta_mode!r}")
        if self.search_order and self.kernel not in _ORDER_MAPS:
            raise ValueError(f"kernel {self.kernel!r} has no continuous order to search")
        if self.family == "matern_dense":  # its Matern kernel has none of these
            for name in ("kernel", "order", "eta_mode", "scramble"):  # it always scrambles
                if getattr(self, name) != getattr(CubatureConfig, name):
                    raise ValueError(f"family matern_dense takes no {name} setting")
        elif self.kernel and (self.kernel == "walsh1") != (self.family == "sobol"):
            raise ValueError(f"kernel {self.kernel!r} does not match family {self.family!r}"
                             ": sobol takes walsh1, lattice a shift-invariant kernel")
        if self.scramble and self.family == "lattice":
            raise ValueError("family lattice takes no scramble setting")


@dataclass(frozen=True)
class IterationRecord:
    n: int
    theta: tuple[float, ...]
    err: float
    seconds: float
    evaluations: int = 0    # objective evaluations of this doubling's search
    n_clamped: int = 0      # Gram eigenvalues clamped at the chosen parameters
    reseeded: bool = False  # warm start not finite; searched from the default
    bound_hit: bool = False  # a chosen eta sits at ETA_MIN or ETA_MAX
    order: float | None = None  # kernel order used, searched or fixed


@dataclass
class CubatureResult:
    mu_hat: float
    n_used: int
    err: float
    tolerance_met: bool
    iterations: list[IterationRecord]
    seed: int
    seconds: float
    final_state: TransformedData | None = None

    def to_record(self) -> dict:
        return {
            "mu_hat": self.mu_hat,
            "n": self.n_used,
            "err": self.err,
            "tolerance_met": self.tolerance_met,
            "seconds": float(f"{self.seconds:.3g}"),
            "seed": self.seed,
            "bound_hits": sum(it.bound_hit for it in self.iterations),
            "n_clamped": self.iterations[-1].n_clamped if self.iterations else 0,
        }


def _default_kernel(config: CubatureConfig, d: int) -> kernels.KernelSpec:
    family = config.kernel or {"lattice": "bernoulli", "sobol": "walsh1"}[config.family]
    order = config.order
    if order is None:
        order = {"bernoulli": 2.0, "truncated_series": 2.0, "exp_decay": 0.5,
                 "walsh1": 1.0}[family]
    return kernels.KernelSpec(family=family, order=float(order), eta=np.ones(d))


# The search coordinates t are log eta, one entry shared by every dimension
# or one per dimension, led for a searched order by a coordinate of its own.
# Orders that can be searched, as (order from t, t from order):
_ORDER_MAPS = {
    "truncated_series": (lambda t: 1.0 + np.exp(t), lambda r: np.log(r - 1.0)),
    "exp_decay": (lambda t: 1.0 / (1.0 + np.exp(t)), lambda q: np.log(1.0 / q - 1.0)),
}
_LOG_ETA_MIN, _LOG_ETA_MAX = np.log(kernels.ETA_MIN), np.log(kernels.ETA_MAX)


def _eta_from_log(t: np.ndarray) -> np.ndarray:
    # clip twice: exp(log(bound)) can round past the bound
    return np.clip(np.exp(np.clip(t, _LOG_ETA_MIN, _LOG_ETA_MAX)),
                   kernels.ETA_MIN, kernels.ETA_MAX)


def _kernel_at(spec0: kernels.KernelSpec, t: np.ndarray,
               search_order: bool) -> kernels.KernelSpec:
    order = spec0.order
    if search_order:
        order, t = float(_ORDER_MAPS[spec0.family][0](t[0])), t[1:]
    return replace(spec0, order=order, eta=np.broadcast_to(_eta_from_log(t), spec0.d))


def _check_finite(y: np.ndarray, start: int) -> None:
    bad = ~np.isfinite(y)
    if bad.any():
        idx = start + int(np.argmax(bad))
        raise IntegrandError(f"integrand returned a non-finite value at node index {idx}")


def _is_degenerate(y: np.ndarray) -> bool:
    return float(np.ptp(y)) <= 1e-14 * max(1.0, float(np.abs(y).max()))


def integrate_fast(f, d: int, config: CubatureConfig) -> CubatureResult:
    """Doubling Bayesian cubature with O(n log n) per-iteration cost."""
    if config.family not in ("lattice", "sobol"):
        raise ValueError("integrate_fast requires the lattice or sobol family")
    t_start = time.perf_counter()
    if config.family == "lattice":
        gen = make_lattice(d, config.seed)
    else:
        gen = make_sobol(d, config.seed, scramble=config.scramble)
    if config.n_max > gen.capacity:
        raise CapacityError(f"n_max {config.n_max} exceeds capacity {gen.capacity}")
    kind = config.family
    f_eval = problems.periodize(f, config.periodizer)
    spec0 = _default_kernel(config, d)
    search_order = config.search_order
    shared = config.eta_mode == "shared"
    poly = shared and not search_order  # the spectrum is a polynomial in eta
    start = np.zeros(1 if shared else d)  # eta = 1
    if search_order:
        start = np.r_[_ORDER_MAPS[spec0.family][1](spec0.order), start]
    warm = start

    y_all = np.empty(0)
    spectrum = bases = powers = None
    iterations: list[IterationRecord] = []
    err = np.inf
    td: TransformedData | None = None
    n_prev, n = 0, config.n0
    budget = _BUDGET_FIRST

    while n <= config.n_max:
        it_start = time.perf_counter()
        block = gen.points(n_prev, n)
        yb = np.asarray(f_eval(block.points), dtype=np.float64)
        _check_finite(yb, n_prev)
        spectrum = fbt(yb, kind) if spectrum is None else fbt_double(spectrum, yb, kind)
        y_all = np.concatenate([y_all, yb])
        m = n.bit_length() - 1

        if _is_degenerate(y_all):
            err, td = 0.0, None
            iterations.append(IterationRecord(n, tuple(spec0.eta), 0.0,
                                              time.perf_counter() - it_start,
                                              order=spec0.order))
            break

        weights = data_weights(spectrum, n)
        # shared eta holds the spectra of e_1..e_d, per-dimension eta the
        # bases; a searched order builds its bases per evaluation
        if poly:
            powers = coefficient_spectra(spec0, gen, kind, m, powers)
        elif not search_order:
            bases = kernels.column_bases(spec0, gen, m)

        last = {}  # per-dimension eta: the latest evaluation's t, ring column, data

        def obj(t):
            if poly:
                lams = polynomial_spectrum(powers, _eta_from_log(t)[0])
            elif bases is not None:
                col = kernels.ring_from_bases(_eta_from_log(t), bases)
                lams = column_spectrum(col, kind, n)
            else:  # a searched order: its bases change with it
                spec = _kernel_at(spec0, t, search_order)
                col = kernels.ring_from_bases(spec.eta, kernels.column_bases(spec, gen, m))
                lams = column_spectrum(col, kind, n)
            data = transformed_data(weights, lams, n)
            if bases is not None:  # for the gradient at the same t
                last.update(t=t.copy(), col=col, data=data)
            try:
                return objective(config.criterion, data), data
            except DegenerateDataError:
                return np.inf, data

        def gradient(t):  # per-dimension eta at a fixed order
            if not np.array_equal(t, last.get("t")):
                obj(t)  # the search asked out of turn: rebuild the ring
            eta = _eta_from_log(t)
            jac = kernels.column_eta_jacobian(eta, bases, last["col"])
            # chain rule through eta = exp(t)
            return objective_gradient(last["data"], config.criterion,
                                      column_spectrum(jac, kind, n)) * eta

        search = dict(budget=budget,
                      gradient_fn=gradient if bases is not None else None,
                      bounds=(_LOG_ETA_MIN, _LOG_ETA_MAX))
        reseeded = False
        try:
            res = search_hyperparameters(obj, warm, **search)
        except NonFiniteStartError:
            if np.array_equal(warm, start):
                raise
            res = search_hyperparameters(obj, start, **search)
            reseeded = True
        warm = res.t
        budget = _BUDGET_LATER
        td = res.payload
        spec_best = _kernel_at(spec0, res.t, search_order)
        err = credible_width(config.criterion, td)
        # a re-seeded search also spent one evaluation at the failed warm start
        bound_hit = bool(np.isin(spec_best.eta, (kernels.ETA_MIN, kernels.ETA_MAX)).any())
        iterations.append(IterationRecord(n, tuple(spec_best.eta), float(err),
                                          time.perf_counter() - it_start,
                                          evaluations=res.evaluations + reseeded,
                                          n_clamped=td.n_clamped, reseeded=reseeded,
                                          bound_hit=bound_hit, order=spec_best.order))
        if err <= config.epsilon:
            break
        n_prev, n = n, 2 * n

    n_used = len(y_all)
    return CubatureResult(mu_hat=float(y_all.mean()), n_used=n_used, err=float(err),
                          tolerance_met=bool(err <= config.epsilon),
                          iterations=iterations, seed=config.seed,
                          seconds=time.perf_counter() - t_start, final_state=td)


# ---------------------------------------------------------------------------
# Dense slow path (Matern baseline)
# ---------------------------------------------------------------------------

# the Matern length scales the dense loop tries at every doubling
_MATERN_THETAS = np.geomspace(0.5, 64.0, 12)


def _matern_gram(theta: float, pts: np.ndarray) -> np.ndarray:
    """Dense Gram of prod_l exp(-theta |x_l - t_l|) (1 + theta |x_l - t_l|),
    one (n, n) factor per dimension."""
    gram = np.ones((pts.shape[0],) * 2)
    for x in pts.T:
        delta = np.abs(x[:, None] - x[None, :])
        gram *= np.exp(-theta * delta) * (1.0 + theta * delta)
    return gram


def _matern_c_vector(theta: float, pts: np.ndarray) -> np.ndarray:
    def antideriv(a):
        return 2.0 / theta - np.exp(-theta * a) * (a + 2.0 / theta)

    return (antideriv(pts) + antideriv(1.0 - pts)).prod(axis=1)


def _matern_c0(theta: float, d: int) -> float:
    one_dim = 4.0 / theta - 2.0 * (3.0 - np.exp(-theta) * (3.0 + theta)) / theta**2
    return float(one_dim**d)


def integrate_dense(f, d: int, config: CubatureConfig) -> CubatureResult:
    """Generic-kernel doubling loop with O(N_opt n^3) dense linear algebra."""
    if config.family != "matern_dense":
        raise ValueError("integrate_dense requires the matern_dense family")
    if config.n_max > DENSE_MAX_N:
        raise ValueError(f"dense path guarded to n_max <= {DENSE_MAX_N}")
    t_start = time.perf_counter()
    gen = make_sobol(d, config.seed, scramble=True)
    f_eval = problems.periodize(f, config.periodizer)

    y_all = np.empty(0)
    pts_all = np.empty((0, d))
    iterations: list[IterationRecord] = []
    err, post, best_theta = np.inf, None, float(_MATERN_THETAS[0])
    n_prev, n = 0, config.n0

    while n <= config.n_max:
        it_start = time.perf_counter()
        block = gen.points(n_prev, n)
        yb = np.asarray(f_eval(block.points), dtype=np.float64)
        _check_finite(yb, n_prev)
        y_all = np.concatenate([y_all, yb])
        pts_all = np.vstack([pts_all, block.points])

        if _is_degenerate(y_all):
            err, post = 0.0, None
            iterations.append(IterationRecord(n, (best_theta,), 0.0,
                                              time.perf_counter() - it_start))
            break

        # theta by the EB loss; full and GCV factor its Gram once more
        best = None
        for theta in _MATERN_THETAS.tolist():
            gram, c = _matern_gram(theta, pts_all), _matern_c_vector(theta, pts_all)
            post = dense_posterior(y_all, gram, c, _matern_c0(theta, d), EB)
            if best is None or post.loss < best[0].loss:
                best = post, theta, gram, c
        post, best_theta, gram, c = best
        if config.criterion != EB:
            post = dense_posterior(y_all, gram, c, _matern_c0(best_theta, d),
                                   config.criterion)
        err = post.err
        iterations.append(IterationRecord(n, (best_theta,), float(err),
                                          time.perf_counter() - it_start))
        if err <= config.epsilon:
            break
        n_prev, n = n, 2 * n

    mu = post.mu_hat if post is not None else float(y_all.mean())
    return CubatureResult(mu_hat=float(mu), n_used=len(y_all), err=float(err),
                          tolerance_met=bool(err <= config.epsilon),
                          iterations=iterations, seed=config.seed,
                          seconds=time.perf_counter() - t_start)

"""Automatic cubature: one doubling loop, with two ways to fit each doubling.

_doubling_loop runs both loops.  At each doubling it generates and evaluates
only the new block of nodes, stops on degenerate data, hands the block's
values to a fit, records the doubling, and stops once the credible
half-width reaches the tolerance.  It streams the block through the
integrand in aligned chunks of about 512 KB of rows (nodes.block_rows):
each chunk's nodes are generated, evaluated and dropped, so no node array
longer than a chunk is built (the last block to n = 2^20 at d = 13 would
be 54.5 MB on the lattice, 109 MB on Sobol' with its integers) and the
integrand's temporaries stay in cache.  An integrand must therefore map
each row on its own and return one real value per row.
integrate_fast fits matched (node set, kernel) pairs at O(n log n) per
doubling; integrate_dense fits a Matern kernel with dense O(n^3) algebra, as
the slow baseline.

The fast fit grows the data transform by the doubling update and re-fits the
shape parameters from a warm start.  Its search runs on plain coordinates,
which this module alone maps to a kernel.  With a fixed kernel order the
Gram spectrum at eta is pi @ spectra, one matrix-vector product with held
coefficient spectra, built per doubling (inference.coefficient_spectra) and
grown from the doubling's new entries: with one eta shared by every
dimension (the default) pi holds the powers of eta and the spectra are the
d elementary symmetric columns'; with one eta per dimension and d <=
_SUBSET_MAX_D (3) pi holds the etas' subset products and the spectra are
the 2^d - 1 subset-product columns'.  A projected Newton search searches
both on their exact gradient and Hessian in log eta, asked only at the
points it steps from: one blocked pass over the held spectra contracts the
loss's eigenvalue adjoint and curvature with the spectrum's eta derivatives
(inference.held_derivatives), reading pi and the data from the payload the
objective returned at that point.  On the lattice the
stopping width and the clamped count come from the ring column at the
chosen eta instead, scattered from the base blocks the doublings built and
transformed once, because the held spectra's smallest eigenvalues sit on
their rounding floor; where that column's sum, lam_ring1, cancels past
_RING_SUM_CUTOFF, its entries are built and summed in long double
(_ring_sum_long).  On Sobol' nodes both come from the held spectra,
which are the more precise there (README gives the widths measured against
long-double references).

The subset path holds 2^d - 1 spectrum rows per level and builds one
spectrum row per evaluation.  The ring path rebuilds d base rows per
doubling, builds and transforms the ring column per evaluation, and
transforms the eigenvalue adjoint once per gradient.
The cutoff d <= 3 is measured by tools/time_eta_paths.py, which times both
paths; README gives its figures.

With a matched kernel the Gram matrix depends on the nodes only through
their differences, x_i - x_j mod 1 on a shifted lattice and x_i XOR x_j on
a digitally shifted net, so the random shift cancels and the coefficient
spectra are the same for every seed (Jagadeeswaran and Hickernell, Stat.
Comput. 29, 2019; Dick and Pillichshammer, Digital Nets and Sequences,
2010).  The module holds them for one design, the latest: the generator's
lag source (gen.lag_key: the lattice's generating vector and max_log2_n, or
the Sobol' direction numbers with any scramble), the kernel family and
order, the start level log2 n0, since the lattice split rounds differently
from a from-scratch build, and the form of the coefficient columns.  Each
level keeps its spectra and, on the lattice, the base block
_ring_from_blocks reads, read-only, while the design's arrays stay within
_HELD_BYTES (64 MiB; the option's chain to 2^18 at d = 13 holds about
41 MB).  A later call on the design reads each held level instead of
building it, with the same bits; levels past the cap are built and not
kept.  Per-dimension eta at d >= 4 rebuilds the bases at each doubling and
builds the ring column and its transform on every evaluation; its gradient
reads the ring column and data from the payload and transforms the
eigenvalue adjoint once (inference.ring_gradient); L-BFGS-B searches it on
that gradient alone.  A searched order builds
its bases per evaluation too, and Nelder-Mead searches it without a
gradient.
Every search stays in inference.SEARCH_BOX, [log 1e-8, log 1e8] in each
coordinate, which also keeps a searched order one its kernel accepts, within
_BUDGET_FIRST distinct evaluations at the first doubling and _BUDGET_LATER
at each later one.

The dense fit factors the Matern Gram, built one (n, n) factor per dimension
over blocks of rows, once per theta of a fixed grid and keeps the posterior
of least EB loss; full and GCV rebuild and factor the chosen theta's Gram
once more, so no Gram outlives its factorization.  Its record counts these
factorizations as its evaluations.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import kernels, problems
from .inference import (EB, CRITERIA, NonFiniteStartError, coefficient_spectra,
                        column_spectrum, credible_width, data_weights, dense_posterior,
                        eigenvalue_adjoint, held_derivatives, objective, power_coefficients,
                        ring_gradient, SEARCH_BOX, search_hyperparameters,
                        subset_coefficients, transformed_data)
from .nodes import CapacityError, block_rows, make_lattice, make_sobol
from .transforms import DENSE_MAX_N, fbt, fbt_double


class IntegrandError(ValueError):
    """The integrand returned a non-finite value, or not one value per point."""


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
    capped: bool = False    # the search ran out of budget before its own stop
    order: float | None = None  # kernel order used, searched or fixed
    loss: float | None = None   # the search's objective at the chosen parameters
    stop: str | None = None     # why the search stopped (inference.STOPS); None: no search


@dataclass
class CubatureResult:
    mu_hat: float
    n_used: int
    err: float
    tolerance_met: bool
    iterations: list[IterationRecord]
    seed: int
    seconds: float

    def to_record(self) -> dict:
        return {
            "mu_hat": self.mu_hat,
            "n": self.n_used,
            "err": self.err,
            "tolerance_met": self.tolerance_met,
            "seconds": float(f"{self.seconds:.3g}"),
            "seed": self.seed,
            "bound_hits": sum(it.bound_hit for it in self.iterations),
            "capped": sum(it.capped for it in self.iterations),
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
_LOG_ETA_MIN, _LOG_ETA_MAX = SEARCH_BOX


def _eta_from_log(t: np.ndarray) -> np.ndarray:
    # bound twice: exp(log(bound)) can round past the bound; np.maximum and
    # np.minimum give np.clip's values at half its cost, and the NaN test on
    # Python floats costs a third of np.isnan's
    if any(map(math.isnan, t.tolist())):
        raise ValueError("log eta is NaN")
    return np.minimum(np.maximum(np.exp(np.minimum(np.maximum(t, _LOG_ETA_MIN), _LOG_ETA_MAX)),
                                 kernels.ETA_MIN), kernels.ETA_MAX)


def _kernel_at(spec0: kernels.KernelSpec, t: np.ndarray,
               search_order: bool) -> kernels.KernelSpec:
    order = spec0.order
    if search_order:
        order, t = float(_ORDER_MAPS[spec0.family][0](t[0])), t[1:]
    return replace(spec0, order=order, eta=np.broadcast_to(_eta_from_log(t), spec0.d))


def _ring_from_blocks(eta: np.ndarray, blocks: list[np.ndarray], n: int) -> np.ndarray:
    """Ring half column at n on the lattice from bases built a doubling at a
    time: blocks[0] the whole half column at n / 2^k, then the odd-entry
    block of each later doubling, the last one's at stride 2 from entry 1."""
    ring = np.empty(n // 2 + 1)
    step = 1
    for block in blocks[:0:-1]:
        ring[step::2 * step] = kernels.ring_from_bases(eta, block)
        step *= 2
    ring[::step] = kernels.ring_from_bases(eta, blocks[0])
    return ring


# On a smooth kernel at large n the ring column's sum, lam_ring1, cancels to
# round-off of its entries (on Fresnel at 2^16, 4e-10 from entries summing to
# 2e4 in absolute value), and the width takes its square root.  Where the
# entries' rounding, 2 eps |ring| as a random walk, may reach sqrt(eps) of the
# float64 sum, _ring_sum_long sums entries built in long double instead.
_RING_SUM_CUTOFF = 2.0 * math.sqrt(np.finfo(np.float64).eps)


def _ring_sum_long(eta: np.ndarray, blocks: list[np.ndarray]) -> float:
    """lam_ring1 of _ring_from_blocks's column, the sum of its even
    extension, with every entry and the sum in long double: the column's two
    ends, blocks[0]'s first and last entries, count once, the rest twice."""
    total = np.longdouble(0.0)
    for k, block in enumerate(blocks):
        ring = kernels.ring_from_bases(eta, block, np.longdouble)
        total += 2 * ring.sum() - (ring[0] + ring[-1] if k == 0 else 0)
    return float(total)


# per-dimension eta at a fixed order searches on held subset spectra up to
# this d and on the ring column above it (tools/time_eta_paths.py times both
# paths; README gives its figures)
_SUBSET_MAX_D = 3

# the latest design's held levels: {design: {m: (spectra, lattice base block
# or None)}}, at most _HELD_BYTES of arrays
_HELD_BYTES = 64 << 20
_held: dict = {}


def _design_spectra(design: tuple, spec0: kernels.KernelSpec, gen, kind: str, m: int,
                    prev: np.ndarray | None,
                    products) -> tuple[np.ndarray, np.ndarray | None]:
    """coefficient_spectra(spec0, gen, kind, m, prev, products), built once
    per design, which names products.

    prev is the spectra at level m - 1, held or built, so a held level and a
    built one are the same bits.  A level is kept, read-only, while the
    design's arrays stay within _HELD_BYTES; the base block is kept on the
    lattice only, where _ring_from_blocks reads it.
    """
    levels = _held.get(design)
    if levels is None:
        _held.clear()
        levels = _held[design] = {}
    if m in levels:
        return levels[m]
    powers, built = coefficient_spectra(spec0, gen, kind, m, prev, products)
    kept = (powers, built if kind == "lattice" else None)
    size = sum(a.nbytes for level in (*levels.values(), kept) for a in level if a is not None)
    if size <= _HELD_BYTES:
        for a in kept:
            if a is not None:
                a.flags.writeable = False
        levels[m] = kept
    return powers, built


def _evaluate(f, pts: np.ndarray, out: np.ndarray, start: int) -> tuple[float, float]:
    """Write f's values at pts, nodes start.., into out and return their
    least and greatest; min and max carry any NaN, so they also find a
    non-finite value, which is reported at its node index."""
    y = np.asarray(f(pts))
    if np.iscomplexobj(y):
        raise IntegrandError(f"integrand returned {y.dtype} values, not real ones")
    if y.shape != out.shape:
        raise IntegrandError(f"integrand returned shape {y.shape} for {len(pts)} points,"
                             f" not {out.shape}")
    out[...] = y
    lo, hi = float(out.min()), float(out.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        idx = start + int(np.argmax(~np.isfinite(out)))
        raise IntegrandError(f"integrand returned a non-finite value at node index {idx}")
    return lo, hi


def _is_degenerate(lo: float, hi: float) -> bool:
    """Whether values spanning [lo, hi] are constant up to rounding: the
    span, ptp, against max |y| = max(|lo|, |hi|)."""
    return hi - lo <= 1e-14 * max(1.0, abs(lo), abs(hi))


def _doubling_loop(f, config: CubatureConfig, gen, start: dict, fit) -> CubatureResult:
    """Evaluate each new block of gen's nodes, fit, and double until the
    width reaches epsilon or n_max is spent.

    The block [n_prev, n) is generated and evaluated one chunk of
    block_rows(d) rows at a time, gen.points(lo, hi) per chunk, so no node
    array longer than a chunk is built; each chunk's values land in y_buf,
    and their running least and greatest tell degenerate data.  fit(n, yb,
    y_all) returns the width, the estimate (None: the sample mean) and the
    IterationRecord fields beyond n, err and seconds; start holds them for
    degenerate data."""
    if config.n_max > gen.capacity:
        raise CapacityError(f"n_max {config.n_max} exceeds capacity {gen.capacity}")
    t_start = time.perf_counter()
    f_eval = problems.periodize(f, config.periodizer)
    y_buf = np.empty(config.n_max)  # pages are touched only as values land
    rows = block_rows(gen.d)
    iterations: list[IterationRecord] = []
    err, mu = np.inf, None
    y_lo, y_hi = math.inf, -math.inf
    n_prev, n = 0, config.n0
    while n <= config.n_max:
        it_start = time.perf_counter()
        for lo in range(n_prev, n, rows):  # aligned chunks that stay in cache
            hi = min(lo + rows, n)
            c_lo, c_hi = _evaluate(f_eval, gen.points(lo, hi).points, y_buf[lo:hi], lo)
            y_lo, y_hi = min(y_lo, c_lo), max(y_hi, c_hi)
        yb, y_all = y_buf[n_prev:n], y_buf[:n]
        if _is_degenerate(y_lo, y_hi):
            err, mu, fields = 0.0, None, start
        else:
            err, mu, fields = fit(n, yb, y_all)
        iterations.append(IterationRecord(n, err=float(err), **fields,
                                          seconds=time.perf_counter() - it_start))
        if err <= config.epsilon:
            break
        n_prev, n = n, 2 * n
    return CubatureResult(mu_hat=float(y_all.mean() if mu is None else mu),
                          n_used=len(y_all), err=float(err),
                          tolerance_met=bool(err <= config.epsilon),
                          iterations=iterations, seed=config.seed,
                          seconds=time.perf_counter() - t_start)


def integrate_fast(f, d: int, config: CubatureConfig) -> CubatureResult:
    """Doubling Bayesian cubature with O(n log n) per-iteration cost."""
    if config.family not in ("lattice", "sobol"):
        raise ValueError("integrate_fast requires the lattice or sobol family")
    kind = config.family
    if kind == "lattice":
        gen = make_lattice(d, config.seed)
    else:
        gen = make_sobol(d, config.seed, scramble=config.scramble)
    spec0 = _default_kernel(config, d)
    search_order = config.search_order
    shared = config.eta_mode == "shared"
    poly = shared and not search_order  # the spectrum is a polynomial in eta
    # per-dimension eta at a fixed order: the spectrum is multilinear in eta
    multilinear = not shared and not search_order and d <= _SUBSET_MAX_D
    products = (kernels.elementary_symmetric if poly
                else kernels.subset_products if multilinear else None)
    start = np.zeros(1 if shared else d)  # eta = 1
    if search_order:
        start = np.r_[_ORDER_MAPS[spec0.family][1](spec0.order), start]
    warm, budget, spectrum, powers = start, _BUDGET_FIRST, None, None
    design = (gen.lag_key, spec0.family, spec0.order, config.n0.bit_length() - 1,
              products and products.__name__)
    blocks = []  # held spectra on the lattice: the bases _ring_from_blocks reads

    def fit(n, yb, y_all):
        nonlocal warm, budget, spectrum, powers
        spectrum = fbt(yb, kind) if spectrum is None else fbt_double(spectrum, yb, kind)
        m = n.bit_length() - 1
        weights = data_weights(spectrum, n)
        # held spectra, or per-dimension eta's bases for the ring path at
        # d >= 4; a searched order builds its bases per evaluation
        bases = None
        if products is not None:
            powers, built = _design_spectra(design, spec0, gen, kind, m, powers, products)
            if kind == "lattice":  # built: the whole half column or its odd block
                if built.shape[-1] == n // 2 + 1:
                    blocks.clear()
                blocks.append(built)
        elif not search_order:
            bases = kernels.column_bases(spec0, gen, m)

        def obj(t):  # payload (data, aux) for derivatives at the same t
            if products is not None:  # held spectra: aux the coefficients (pi, member)
                eta = _eta_from_log(t)
                aux = power_coefficients(eta[0], d) if poly else subset_coefficients(eta)
                lams = aux[0] @ powers
            elif bases is not None:  # aux the ring column
                aux = kernels.ring_from_bases(_eta_from_log(t), bases)
                lams = column_spectrum(aux, kind, n)
            else:  # a searched order: its bases change with it
                spec = _kernel_at(spec0, t, search_order)
                aux = None
                lams = column_spectrum(kernels.ring_from_bases(
                    spec.eta, kernels.column_bases(spec, gen, m)), kind, n)
            data = transformed_data(weights, lams, n)
            return objective(config.criterion, data), (data, aux)

        def derivatives(t, payload):  # in t = log eta
            data, aux = payload
            if bases is not None:  # the gradient alone, for L-BFGS-B
                return ring_gradient(bases, aux, _eta_from_log(t),
                                     eigenvalue_adjoint(data, config.criterion), kind, n)
            # and the Hessian, for the Newton search
            return held_derivatives(powers, *aux, data, config.criterion, eigenvalue_adjoint)

        search = dict(budget=budget, hessian=products is not None,
                      gradient_fn=None if search_order else derivatives)
        reseeded = False
        try:
            res = search_hyperparameters(obj, warm, **search)
        except NonFiniteStartError:
            if np.array_equal(warm, start):
                raise
            res = search_hyperparameters(obj, start, **search)
            reseeded = True
        warm, budget = res.t, _BUDGET_LATER
        spec_best = _kernel_at(spec0, res.t, search_order)
        data = res.payload[0]
        if blocks:  # the held spectra's smallest eigenvalues sit on their rounding floor
            ring = _ring_from_blocks(spec_best.eta, blocks, n)
            lams = column_spectrum(ring, kind, n)
            if _RING_SUM_CUTOFF * math.sqrt(ring @ ring) > abs(lams[0]):
                lams[0] = _ring_sum_long(spec_best.eta, blocks)
            data = transformed_data(weights, lams, n)
        # a re-seeded search also spent one evaluation at the failed warm start
        return credible_width(config.criterion, data), None, dict(
            theta=tuple(spec_best.eta), evaluations=res.evaluations + reseeded,
            n_clamped=data.n_clamped, reseeded=reseeded, order=spec_best.order,
            capped=res.capped, loss=res.value, stop=res.stop,
            bound_hit=bool(np.isin(spec_best.eta, (kernels.ETA_MIN, kernels.ETA_MAX)).any()))

    return _doubling_loop(f, config, gen, dict(theta=tuple(spec0.eta), order=spec0.order),
                          fit)


# ---------------------------------------------------------------------------
# Dense slow path (Matern baseline)
# ---------------------------------------------------------------------------

# the Matern length scales the dense loop tries at every doubling
_MATERN_THETAS = np.geomspace(0.5, 64.0, 12)
_GRAM_BLOCK = 2**16  # entries of each row block the Gram's factors are built over


def _matern_gram(theta: float, pts: np.ndarray) -> np.ndarray:
    """Dense Gram of prod_l exp(-theta |x_l - t_l|) (1 + theta |x_l - t_l|),
    each dimension's factor multiplied in over blocks of rows, in place."""
    n = pts.shape[0]
    gram = np.ones((n, n))
    rows = max(1, _GRAM_BLOCK // n)
    scaled, factor = np.empty((rows, n)), np.empty((rows, n))
    for lo in range(0, n, rows):
        block = gram[lo:lo + rows]
        td, fb = scaled[:len(block)], factor[:len(block)]
        for x in pts.T:  # td: theta |x_l - t_l|, then 1 + theta |x_l - t_l|
            np.abs(np.subtract.outer(x[lo:lo + rows], x, out=td), out=td)
            td *= theta
            np.exp(np.negative(td, out=fb), out=fb)
            td += 1.0
            fb *= td
            block *= fb
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
    gen = make_sobol(d, config.seed, scramble=True)

    def fit(n, yb, y_all):
        pts = gen.points(0, n).points  # the doublings' blocks, stacked

        def posterior(theta, criterion):  # no Gram outlives its factorization
            return dense_posterior(y_all, _matern_gram(theta, pts),
                                   _matern_c_vector(theta, pts), _matern_c0(theta, d),
                                   criterion)

        # theta by the EB loss; full and GCV factor its Gram once more
        post, theta = min(((posterior(theta, EB), theta)
                           for theta in _MATERN_THETAS.tolist()),
                          key=lambda pair: pair[0].loss)
        if config.criterion != EB:
            post = posterior(theta, config.criterion)
        return post.err, post.mu_hat, dict(theta=(theta,), evaluations=len(
            _MATERN_THETAS) + (config.criterion != EB))

    return _doubling_loop(f, config, gen, dict(theta=(float(_MATERN_THETAS[0]),)), fit)

"""Benchmark integrands with reference values, and periodizing transforms.

Every reference value carries a provenance tag; oracle-computed references
are validated in the test suite against independent quadratures.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import fresnel, gammaln, ndtr, ndtri

from .nodes import _data_path

PERIODIZERS = ("none", "baker", "c0", "c1", "sidi_c1", "sidi_c2")

_PHI_INV_LO = 1e-300
_PHI_INV_HI = 1.0 - 1e-16


def norm_ppf(p):
    """Inverse standard normal CDF with inputs clamped away from {0, 1};
    one new float64 array, p is left as it is."""
    z = np.clip(p, _PHI_INV_LO, _PHI_INV_HI, out=np.empty(np.shape(p)))
    return ndtri(z, out=z)


@dataclass(frozen=True)
class IntegrandProblem:
    name: str
    # vectorized callable, (n, d) -> (n,); the doubling loop calls it on
    # row chunks of each block, so it must map each row on its own
    evaluator: object
    d: int
    reference_value: float | None
    reference_provenance: str
    recommended_periodizer: str = "none"
    reference_half_width: float | None = None
    params: dict = field(default_factory=dict)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.evaluator(x)


# ---------------------------------------------------------------------------
# Periodization
# ---------------------------------------------------------------------------

def _baker(x):
    out = np.array(x, dtype=np.float64, copy=True, ndmin=1)
    out -= 0.5
    np.abs(out, out=out)
    out *= -2.0
    out += 1.0
    return out if out.ndim > 1 or np.ndim(x) else out[0]


def periodizer_maps(kind: str):
    """(Psi, Psi') pair for a periodizer kind; Psi' is None for baker."""
    if kind == "baker":
        return _baker, None
    if kind == "c0":
        return (lambda x: x * x * (3.0 - 2.0 * x)), (lambda x: 6.0 * x * (1.0 - x))
    if kind == "c1":
        return (lambda x: x**3 * (10.0 - 15.0 * x + 6.0 * x * x)), \
               (lambda x: 30.0 * (x * (1.0 - x)) ** 2)
    if kind == "sidi_c1":
        return (lambda x: x - np.sin(2.0 * np.pi * x) / (2.0 * np.pi)), \
               (lambda x: 1.0 - np.cos(2.0 * np.pi * x))
    if kind == "sidi_c2":
        return (lambda x: (8.0 - 9.0 * np.cos(np.pi * x) + np.cos(3.0 * np.pi * x)) / 16.0), \
               (lambda x: 3.0 * np.pi * (3.0 * np.sin(np.pi * x) - np.sin(3.0 * np.pi * x)) / 16.0)
    raise ValueError(f"unknown periodizer {kind!r}")


def periodize(f, kind: str):
    """Wrap an integrand so the transformed integrand is periodic.

    The baker (tent) map is measure preserving and needs no weight; the
    polynomial and Sidi kinds multiply by the product of derivatives.
    """
    if kind == "none":
        return f
    psi, dpsi = periodizer_maps(kind)
    if dpsi is None:
        return lambda x: f(psi(x))

    def wrapped(x):
        return f(psi(x)) * dpsi(x).prod(axis=-1)

    return wrapped


# ---------------------------------------------------------------------------
# Multivariate normal probability via the sequential conditioning transform
# ---------------------------------------------------------------------------

def _as_lower_triangular(mat: np.ndarray) -> np.ndarray:
    low = np.asarray(mat, dtype=np.float64)
    if not np.allclose(low, np.tril(low)):
        raise ValueError("L must be lower triangular")
    if (np.diag(low) <= 0).any():
        raise ValueError("L must have a positive diagonal")
    return low


def genz_mvn_problem(a, b, L) -> IntegrandProblem:
    """Box probability of N(0, L L^T) as an integral over [0,1)^(d'-1)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or (a >= b).any():
        raise ValueError("need a < b componentwise")
    low = _as_lower_triangular(L)
    dp = a.shape[0]

    def evaluator(x):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        npts = x.shape[0]
        alpha = np.full(npts, ndtr(a[0] / low[0, 0]))
        beta = np.full(npts, ndtr(b[0] / low[0, 0]))
        prod = beta - alpha
        ys = np.empty((npts, dp - 1)) if dp > 1 else None
        for ell in range(1, dp):
            ys[:, ell - 1] = norm_ppf(alpha + x[:, ell - 1] * (beta - alpha))
            shifted = ys[:, :ell] @ low[ell, :ell]
            alpha = ndtr((a[ell] - shifted) / low[ell, ell])
            beta = ndtr((b[ell] - shifted) / low[ell, ell])
            prod = prod * (beta - alpha)
        return prod

    if dp <= 3:
        ref = mvn_box_probability(a, b, low @ low.T)
        prov = "tensor Gauss-Legendre on the box, >= 12 digits"
    else:
        ref, prov = None, "none"
    return IntegrandProblem(name="mvn", evaluator=evaluator, d=max(dp - 1, 1),
                            reference_value=ref, reference_provenance=prov,
                            recommended_periodizer="sidi_c2",
                            params={"a": a.tolist(), "b": b.tolist(), "L": low.tolist()})


def mvn_box_probability(a, b, sigma, n_nodes: int = 96) -> float:
    """Tensor Gauss-Legendre integral of the N(0, sigma) density over [a, b].

    Nodes and weights stay on sparse axes that broadcast to one
    (n_nodes,) * dp array of densities, exp(-x' sigma^{-1} x / 2) per node.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    dp = a.shape[0]
    if dp > 3:
        raise ValueError("tensor oracle limited to three dimensions")
    x1, w1 = np.polynomial.legendre.leggauss(n_nodes)
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    x = np.meshgrid(*(h * x1 + m for h, m in zip(half, mid)), indexing="ij", sparse=True)
    w = np.meshgrid(*(h * w1 for h in half), indexing="ij", sparse=True)
    prec = np.linalg.inv(np.asarray(sigma, dtype=np.float64))
    dens = sum(prec[k, l] * x[k] * x[l] for k in range(dp) for l in range(dp))
    dens *= -0.5
    np.exp(dens, out=dens)
    dens /= np.sqrt((2.0 * np.pi) ** dp * np.linalg.det(sigma))
    dens *= math.prod(w)  # weights multiplied together first: the grid rule's rounding
    return float(dens.sum())


def standard_mvn_instance() -> IntegrandProblem:
    """The three-variable box-probability instance used throughout."""
    return genz_mvn_problem(a=(-6.0, -2.0, -2.0), b=(5.0, 2.0, 1.0),
                            L=[[4.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 0.5, 0.25]])


# ---------------------------------------------------------------------------
# Keister oscillatory Gaussian integral
# ---------------------------------------------------------------------------

def keister_reference(d: int) -> float:
    """mu = 2 pi^{d/2} I_c(d) / Gamma(d/2) via the cos/sin moment recursion."""
    ic1 = np.sqrt(np.pi) / (2.0 * np.exp(0.25))
    is1 = 0.4244363835020225
    ic_vals = [ic1, (1.0 - is1) / 2.0]
    is_vals = [is1, ic1 / 2.0]
    for j in range(3, d + 1):
        # integration by parts of the radial moments: the sine recursion
        # carries +I_c(j-1) since (d/dr) sin = +cos
        ic_vals.append(((j - 2) * ic_vals[j - 3] - is_vals[j - 2]) / 2.0)
        is_vals.append(((j - 2) * is_vals[j - 3] + ic_vals[j - 2]) / 2.0)
    return float(2.0 * np.pi ** (d / 2.0) * ic_vals[d - 1] / np.exp(gammaln(d / 2.0)))


def keister_problem(d: int) -> IntegrandProblem:
    """pi^{d/2} cos(|| Phi^{-1}(x) / sqrt(2) ||) over the unit cube.

    The 1/sqrt(2) is what cancels the Gaussian weight exactly, making the
    cube integral equal the oscillatory Gaussian integral the recursion
    reference computes (checked for d = 1 against sqrt(pi) e^{-1/4}).
    """
    if not 1 <= d <= 20:
        raise ValueError("d must lie in 1..20")

    def evaluator(x):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        z = norm_ppf(x) / np.sqrt(2.0)
        return np.pi ** (d / 2.0) * np.cos(np.sqrt((z * z).sum(axis=1)))

    return IntegrandProblem(name="keister", evaluator=evaluator, d=d,
                            reference_value=keister_reference(d),
                            reference_provenance="cos/sin moment recursion",
                            recommended_periodizer="sidi_c1", params={"d": d})


# ---------------------------------------------------------------------------
# Asian arithmetic-mean call option
# ---------------------------------------------------------------------------

def asian_option_problem(T: float = 0.25, d: int = 13, s0: float = 100.0,
                         r: float = 0.05, sigma: float = 0.5,
                         strike: float = 100.0) -> IntegrandProblem:
    """Discounted arithmetic-mean call payoff under discretized GBM.

    The Brownian covariance is (T/d) min(j, k); the path factor is its
    eigenvectors times root eigenvalues (PCA).
    """
    if min(T, s0, sigma) <= 0 or strike < 0 or d < 1:
        raise ValueError("need positive T, S0, sigma and nonnegative strike")
    tj = T / d * np.arange(1, d + 1)
    cov = T / d * np.minimum.outer(np.arange(1, d + 1), np.arange(1, d + 1))
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    path_factor = evecs[:, order] * np.sqrt(np.maximum(evals[order], 0.0))
    drift = (r - 0.5 * sigma * sigma) * tj

    def evaluator(x):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        paths = norm_ppf(x) @ path_factor.T  # then worked in place
        paths *= sigma
        paths += drift
        np.exp(paths, out=paths)
        paths *= s0
        return np.maximum(paths.mean(axis=1) - strike, 0.0) * np.exp(-r * T)

    params = {"T": T, "d": d, "S0": s0, "r": r, "sigma": sigma, "K": strike}
    if strike == 0.0:
        ref = float(np.exp(-r * T) * s0 / d * np.exp(r * tj).sum())
        prov, hw = "lognormal mean identity (closed form)", 0.0
    else:
        with open(_data_path("option_reference.json")) as fh:
            fixture = json.load(fh)["asian_option"]
        if all(np.isclose(fixture["params"][k], v) for k, v in params.items()):
            ref, prov, hw = fixture["value"], fixture["method"], fixture["half_width"]
        else:
            ref, prov, hw = None, "none", None
    return IntegrandProblem(name="asian_option", evaluator=evaluator, d=d,
                            reference_value=ref, reference_provenance=prov,
                            recommended_periodizer="baker",
                            reference_half_width=hw, params=params)


# ---------------------------------------------------------------------------
# Fresnel sine sum (dimension-asymmetric test function)
# ---------------------------------------------------------------------------

def fresnel_sine_half() -> float:
    """Integral of sin(2 pi x^2) over [0, 1]: fresnels(2)/2 via t = 2x."""
    s, _ = fresnel(2.0)
    return float(s) / 2.0


def fresnel_problem(d: int, upsilon=None) -> IntegrandProblem:
    """f(x) = sum_j upsilon_j sin(2 pi x_j^2)."""
    if d < 1:
        raise ValueError("d must be at least 1")
    if upsilon is None:
        upsilon = np.ones(d)
    upsilon = np.asarray(upsilon, dtype=np.float64)
    if upsilon.shape != (d,):
        raise ValueError("upsilon must have one weight per dimension")

    def evaluator(x):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return np.sin(2.0 * np.pi * x * x) @ upsilon

    return IntegrandProblem(name="fresnel", evaluator=evaluator, d=d,
                            reference_value=float(upsilon.sum() * fresnel_sine_half()),
                            reference_provenance="Fresnel sine integral",
                            recommended_periodizer="sidi_c1",
                            params={"d": d, "upsilon": upsilon.tolist()})


def standard_fresnel_instance() -> IntegrandProblem:
    return fresnel_problem(3, upsilon=(1e-4, 1.0, 1e4))


# ---------------------------------------------------------------------------
# Registry for the CLI
# ---------------------------------------------------------------------------

def build_problem(name: str, d: int | None = None) -> IntegrandProblem:
    name = name.replace("-", "_")
    if name == "mvn":
        if d not in (None, 2):
            raise ValueError(f"mvn is a fixed instance of dimension 2, not {d}")
        return standard_mvn_instance()
    if name == "keister":
        return keister_problem(d or 4)
    if name in ("asian_option", "option"):
        return asian_option_problem(d=d) if d else asian_option_problem()
    if name == "fresnel":
        return standard_fresnel_instance() if d is None else fresnel_problem(d)
    raise KeyError(f"unknown problem {name!r}; choose mvn, keister, option, fresnel")

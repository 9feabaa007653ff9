"""Automatic Bayesian cubature with O(n log n) matched-kernel linear algebra.

Approximates integrals over the unit cube to a requested absolute tolerance
by pairing extensible rank-1 lattices with shift-invariant kernels (FFT path)
or Sobol' nets with Walsh kernels (fast Walsh-Hadamard path), doubling the
sample size until a Gaussian-process credible interval is narrow enough.
"""

from .cubature import CubatureConfig, CubatureResult, integrate_dense, integrate_fast
from .inference import EB, FULL, GCV
from .kernels import KernelSpec
from .problems import (IntegrandProblem, asian_option_problem, build_problem,
                       fresnel_problem, genz_mvn_problem, keister_problem,
                       periodize)

__version__ = "0.1.0"

__all__ = [
    "CubatureConfig", "CubatureResult",
    "integrate_fast", "integrate_dense",
    "EB", "FULL", "GCV", "KernelSpec", "IntegrandProblem",
    "build_problem", "genz_mvn_problem", "keister_problem",
    "asian_option_problem", "fresnel_problem", "periodize",
]

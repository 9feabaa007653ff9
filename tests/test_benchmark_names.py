"""The benchmark's tracer wraps package names it looks up by attribute on
every run, traced or not, and its workload table builds CubatureConfig
objects by field name; a renamed or deleted name fails every benchmark run.
Check that each of the tracer's wrap sites still resolves, that every
workload's configurations build, and that a traced integration returns what
an untraced one does, with every objective evaluation counted and every
span its path runs called at least once."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from bayescub import CubatureConfig, cubature, integrate_fast

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    """perfbench/<name>.py as a module, writing no bytecode beside it."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.fixture(scope="module")
def tracer():
    return load("tracer")


def test_every_tracer_site_resolves(tracer):
    assert tracer.SITES
    missing = [(owner.__name__, attr) for owner, attr, _ in tracer.SITES
               if not callable(getattr(owner, attr, None))]
    assert not missing


def test_every_workload_config_builds():
    workloads = load("workloads").WORKLOADS
    assert workloads
    for workload in workloads.values():
        configs = workload.integrations(1)
        assert len(configs) == workload.count
        assert all(isinstance(c, CubatureConfig) for c in configs)
        assert isinstance(workload.warmup(), CubatureConfig)


# one (d, config) per search method and spectra: projected Newton on the
# power spectra (shared eta) and on the subset spectra (per-dimension eta at
# d <= 3), L-BFGS-B (at d >= 4) and Nelder-Mead
SEARCHES = {
    "shared": (3, CubatureConfig(epsilon=1e-9, n0=128, n_max=512, seed=5)),
    "per_dimension": (3, CubatureConfig(epsilon=1e-9, n0=128, n_max=512, seed=5,
                                        eta_mode="per_dimension")),
    "ring_per_dimension": (4, CubatureConfig(epsilon=1e-9, n0=128, n_max=512, seed=5,
                                             eta_mode="per_dimension")),
    "searched_order": (3, CubatureConfig(epsilon=1e-9, n0=128, n_max=512, seed=5,
                                         kernel="truncated_series", periodizer="sidi_c1",
                                         search_order=True)),
}


@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_traced_run_matches_the_untraced_one(tracer, name):
    f = lambda x: np.exp(x.sum(axis=1))
    d, cfg = SEARCHES[name]
    plain = integrate_fast(f, d, cfg)
    cubature._held.clear()  # so the traced call builds its spectra too
    spans = tracer.Tracer()
    with spans.installed():
        traced = spans.call(0, integrate_fast, f, d, cfg)
    assert (traced.mu_hat, traced.n_used, traced.err) == \
        (plain.mu_hat, plain.n_used, plain.err)
    assert [it.theta for it in traced.iterations] == [it.theta for it in plain.iterations]
    assert spans.evals == sum(it.evaluations for it in traced.iterations) > 0
    # a name the loop stops looking up where the tracer wraps it reads 0
    calls = {name: count for name, (_, _, count) in spans.totals().items()}
    # every path here runs on the lattice, where shared eta builds the ring
    # column for the width alone
    ran = {"nodes.points", "problems.integrand", "transforms.data", "transforms.eig",
           "kernels.bases", "kernels.ring", "inference.search", "inference.objective",
           "inference.transformed_data", "inference.credible_width"}
    assert {span for span in ran if not calls.get(span)} == set()

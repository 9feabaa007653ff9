"""Per-module timing of ``integrate_fast`` from outside the package.

The tracer replaces public bayescub names with timing wrappers at the sites
where the doubling loop looks them up (``cubature`` imports several of them
by name, so patching their home module alone would miss those calls), and
restores the originals afterwards.  Each wrapped call records a span
(name, start, end, parent span, integration id); spans stay in memory and
are aggregated, or written out, after the run.  A span's self time is its
duration minus the durations of its children; the loop is single-threaded,
so children never overlap.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager

import bayescub.cubature as cubature
import bayescub.inference as inference
import bayescub.kernels as kernels
import bayescub.nodes as nodes
import bayescub.problems as problems

ROOT = "cubature.integrate_fast"

# (owner, attribute, span name) for every wrapped lookup site.
SITES = (
    (cubature, "fbt", "transforms.data"),
    (cubature, "fbt_double", "transforms.data"),
    (cubature, "transformed_data", "inference.transformed_data"),
    (cubature, "objective", "inference.objective"),
    (cubature, "search_hyperparameters", "inference.search"),
    (cubature, "credible_width", "inference.credible_width"),
    (kernels, "lattice_column_bases", "kernels.bases"),
    (kernels, "sobol_column_bases", "kernels.bases"),
    (kernels, "ring_from_bases", "kernels.ring"),
    (inference, "fbt", "transforms.eig"),
    (inference, "fbt_lattice_even", "transforms.eig"),
    (nodes.LatticeGenerator, "points", "nodes.points"),
    (nodes.SobolGenerator, "points", "nodes.points"),
    (problems, "periodize", None),  # wraps the integrand it returns instead
)


def originals() -> dict:
    """The objects currently bound at every wrapped site."""
    return {(owner, attr): getattr(owner, attr) for owner, attr, _ in SITES}


class Tracer:
    def __init__(self):
        self.spans: list = []      # (name, start, end, parent index, integration)
        self._stack = [-1]
        self.integration = -1
        self.points = 0            # node rows generated
        self.ring_bytes = 0        # 8 n d bytes read per ring call (computed)
        self.evals = 0             # objective evaluations inside searches
        self.rejected = 0          # evaluations that raised or were non-finite
        self.clamped = 0           # sum of TransformedData.n_clamped

    def _timed(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.integration)
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _count_points(self, args, out):
        self.points += out.points.shape[0]

    def _count_ring(self, args, out):
        self.ring_bytes += 8 * args[1].size

    def _count_clamped(self, args, out):
        self.clamped += out.n_clamped

    def _search(self, fn):
        timed = self._timed("inference.search", fn)

        def search(objective_fn, *args, **kwargs):
            def counted(t):
                self.evals += 1
                try:
                    val, payload = objective_fn(t)
                except Exception:
                    self.rejected += 1
                    raise
                if not math.isfinite(val):
                    self.rejected += 1
                return val, payload

            return timed(counted, *args, **kwargs)

        return search

    def _periodize(self, fn):
        def periodize(f, kind):
            return self._timed("problems.integrand", fn(f, kind))

        return periodize

    def _wrapper(self, attr, name, fn):
        if attr == "search_hyperparameters":
            return self._search(fn)
        if attr == "periodize":
            return self._periodize(fn)
        after = {"points": self._count_points, "ring_from_bases": self._count_ring,
                 "transformed_data": self._count_clamped}.get(attr)
        return self._timed(name, fn, after)

    @contextmanager
    def installed(self):
        saved = originals()
        try:
            for owner, attr, name in SITES:
                setattr(owner, attr, self._wrapper(attr, name, saved[owner, attr]))
            yield self
        finally:
            for (owner, attr), fn in saved.items():
                setattr(owner, attr, fn)

    def call(self, integration: int, fn, *args):
        """Run fn(*args) as the root span of one integration."""
        self.integration = integration
        return self._timed(ROOT, fn)(*args)

    def totals(self) -> dict:
        """name -> [total seconds, self seconds, calls]."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict = {}
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            acc = out.setdefault(name, [0.0, 0.0, 0])
            acc[0] += t1 - t0
            acc[1] += t1 - t0 - child[i]
            acc[2] += 1
        return out

    def layer_metrics(self) -> dict:
        """Per-layer values keyed by the names BENCHMARK.json lists."""
        tot = self.totals()

        def get(name, k):
            return tot.get(name, [0.0, 0.0, 0])[k]

        searches = get("inference.search", 2)
        return {
            "nodes.points_s": get("nodes.points", 0),
            "nodes.points_count": self.points,
            "problems.integrand_s": get("problems.integrand", 0),
            "kernels.bases_s": get("kernels.bases", 0),
            "kernels.bases_calls": get("kernels.bases", 2),
            "kernels.ring_s": get("kernels.ring", 0),
            "kernels.ring_calls": get("kernels.ring", 2),
            "kernels.ring_bytes": self.ring_bytes,
            "transforms.data_s": get("transforms.data", 0),
            "transforms.eig_s": get("transforms.eig", 0),
            "transforms.eig_calls": get("transforms.eig", 2),
            "inference.td_self_s": get("inference.transformed_data", 1),
            "inference.objective_s": get("inference.objective", 0),
            "inference.width_s": get("inference.credible_width", 0),
            "inference.search_self_s": get("inference.search", 1),
            "inference.evals": self.evals,
            "inference.evals_per_doubling": self.evals / searches if searches else 0.0,
            "inference.rejected_share": self.rejected / self.evals if self.evals else 0.0,
            "inference.clamped_eigs": self.clamped,
            "cubature.doublings": get("nodes.points", 2),
            "cubature.self_s": get(ROOT, 1),
        }

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, t0, t1, parent, integration in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent,
                                     "integration": integration}) + "\n")

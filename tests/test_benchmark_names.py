"""The benchmark's tracer wraps package names it looks up by attribute on
every run, traced or not; a renamed or deleted name fails every benchmark
run.  Check that each of its wrap sites still resolves."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_tracer_site_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.SITES
    missing = [(owner.__name__, attr) for owner, attr, _ in tracer.SITES
               if not callable(getattr(owner, attr, None))]
    assert not missing

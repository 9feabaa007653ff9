"""Smoke test of the benchmark itself, on shrunken workloads.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is emitted with its unit, that
traced and untraced passes agree, that every wrapped bayescub name is the
original object again after a traced run, and that the benchmark refuses to
run without the package sources.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
BAYESCUB = run.import_package()

from tracer import originals  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# (count, eps_lo, eps_hi, n_max): loose tolerances, so each call ends small
SHRINK = {"lattice_option_d13": (2, 1e-2, 2e-2, 2**14),
          "sobol_keister_d4": (3, 1e-2, 2e-2, 2**13),
          "mvn_sweep_d2": (5, 1e-3, 1e-2, 2**11)}


def test_workload_table_matches_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert set(SHRINK) == set(WORKLOADS)


def test_inputs_follow_the_seed():
    w = WORKLOADS["mvn_sweep_d2"]
    assert w.integrations(3) == w.integrations(3)
    assert w.integrations(3) != w.integrations(4)
    eps = [c.epsilon for c in w.integrations(3)]
    assert eps == sorted(eps) and w.eps_lo <= eps[0] and eps[-1] <= w.eps_hi


@pytest.mark.parametrize("name", list(SHRINK))
@pytest.mark.parametrize("trace", [False, True])
def test_metrics_emitted(name, trace, tmp_path):
    count, eps_lo, eps_hi, n_max = SHRINK[name]
    base = WORKLOADS[name]
    workload = replace(base, count=count, eps_lo=eps_lo, eps_hi=eps_hi,
                       config={**base.config, "n_max": n_max})
    before = originals()
    result, report = run.run(BAYESCUB, workload, seed=1, seconds=0.0,
                             trace=trace, out_dir=tmp_path)
    assert originals() == before
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], report
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], (int, float))
    if trace:
        assert list(tmp_path.glob("spans_*.jsonl"))


def test_refuses_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mvn_sweep_d2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))

"""tools/compare_calls.py: the per-field diff of two lists of call records."""

import copy
import importlib.util
import math
from pathlib import Path

import pytest

import bayescub

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_calls.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("compare_calls", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def records():
    def it(n, err, eta):
        return {"n": n, "err": err, "eta": [eta], "evaluations": 20, "n_clamped": 0}

    return [
        {"workload": "w", "seed": 1, "call": 0, "mu_hat": (0.5).hex(), "n_used": 512,
         "iterations": [it(256, 2e-3, 1.5), it(512, 4e-4, 1.25)]},
        {"workload": "w", "seed": 1, "call": 1, "mu_hat": (0.25).hex(), "n_used": 256,
         "iterations": [it(256, math.inf, 1.0)]},
        {"workload": "w", "seed": 2, "call": 0, "error": "CapacityError: full"},
    ]


class TestDiffRecords:
    def test_equal_lists_agree(self, tool):
        assert tool.diff_records(records(), records()) == ([], 0.0)

    def test_every_differing_field_is_named(self, tool):
        new = copy.deepcopy(records())
        new[0]["mu_hat"] = (0.5 + 2**-40).hex()
        new[0]["iterations"][1]["err"] = 4e-4 * (1 + 1e-12)
        new[0]["iterations"][1]["evaluations"] = 21
        new[1]["n_used"] = 512
        new[2] = {**new[2], "error": "ValueError: other"}
        lines, gap = tool.diff_records(records(), new)
        assert len(lines) == 5
        assert any("mu_hat" in line for line in lines)
        assert any("doubling 1 err" in line for line in lines)
        assert any("doubling 1 evaluations" in line for line in lines)
        assert any("n_used: 256 != 512" in line for line in lines)
        assert any("error" in line for line in lines)
        assert gap == pytest.approx(1e-12, rel=1e-3)

    def test_missing_calls_and_doublings(self, tool):
        new = copy.deepcopy(records())[:2]
        new[0]["iterations"].pop()
        lines, _ = tool.diff_records(records(), new)
        assert lines == ["('w', 1, 0) doublings: 2 != 1",
                         "('w', 2, 0): only in the first"]

    def test_call_record_keeps_an_exception(self, tool):
        def fail():
            raise ValueError("boom")

        rec = tool.call_record("w", 3, 4, fail)
        assert rec == {"workload": "w", "seed": 3, "call": 4, "error": "ValueError: boom"}

    def test_fields_limit_what_is_reported(self, tool):
        new = copy.deepcopy(records())
        new[0]["iterations"][1]["eta"] = [1.2500001]
        new[0]["iterations"][1]["err"] = 4e-4 * (1 + 1e-3)
        new[0]["iterations"][1]["evaluations"] = 9
        lines, gap = tool.diff_records(records(), new, ("mu_hat", "n_used"))
        assert lines == [] and gap == pytest.approx(1e-3, rel=1e-2)
        assert len(tool.diff_records(records(), new)[0]) == 3
        new[1]["n_used"] = 512
        lines, _ = tool.diff_records(records(), new, ("mu_hat", "n_used"))
        assert lines == ["('w', 1, 1) n_used: 256 != 512"]
        # a call held by one side only is named whatever the fields
        lines, _ = tool.diff_records(records(), new[:2], ("mu_hat",))
        assert lines == ["('w', 2, 0): only in the first"]

    def test_evaluations_per_doubling_per_workload(self, tool):
        recs = records() + [{"workload": "v", "seed": 1, "call": 0, "mu_hat": "0x0p+0",
                             "n_used": 256, "iterations": [{"evaluations": 7}]}]
        recs[1]["iterations"][0]["evaluations"] = 50
        assert tool.evaluations_per_doubling(recs) == {"w": 30.0, "v": 7.0}



def test_every_path_call_builds_its_config(tool):
    calls = list(tool.path_calls(bayescub, 1))
    assert [name for name, _, _ in calls] == [f"path:{name}" for name in tool.PATHS]
    assert all(cfg.n_max <= 2**14 and cfg.seed == 1 for _, _, cfg in calls)

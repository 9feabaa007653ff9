"""tools/compare_calls.py: the per-field diff of two lists of call records."""

import copy
import importlib.util
import json
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
        return {"n": n, "err": err, "eta": [eta], "order": 2.0, "evaluations": 20,
                "n_clamped": 0, "reseeded": False, "bound_hit": False}

    return [
        {"workload": "w", "seed": 1, "call": 0, "mu_hat": (0.5).hex(), "n_used": 512,
         "err": 4e-4, "tolerance_met": True,
         "iterations": [it(256, 2e-3, 1.5), it(512, 4e-4, 1.25)]},
        {"workload": "w", "seed": 1, "call": 1, "mu_hat": (0.25).hex(), "n_used": 256,
         "err": math.inf, "tolerance_met": False,
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
        new[0]["iterations"][0]["order"] = 1.5
        new[1]["n_used"] = 512
        new[2] = {**new[2], "error": "ValueError: other"}
        new[0].update(err=5e-4, tolerance_met=False)
        new[0]["iterations"][0].update(reseeded=True, bound_hit=True)
        lines, gap = tool.diff_records(records(), new)
        assert len(lines) == 10
        assert "('w', 1, 0) err: 0.0004 != 0.0005" in lines
        assert "('w', 1, 0) tolerance_met: True != False" in lines
        assert any("doubling 0 reseeded: False != True" in line for line in lines)
        assert any("doubling 0 bound_hit: False != True" in line for line in lines)
        assert any("mu_hat" in line for line in lines)
        assert any("doubling 1 err" in line for line in lines)
        assert any("doubling 1 evaluations" in line for line in lines)
        assert any("doubling 0 order: 2.0 != 1.5" in line for line in lines)
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
        assert rec == {"workload": "w", "seed": 3, "call": 4, "reference": None,
                       "error": "ValueError: boom"}

    def test_a_moved_reference_is_a_differing_field(self, tool):
        # each call records its problem's reference, so a change that moves
        # one fails --against even when every estimate stays the same
        problem = bayescub.build_problem("fresnel", d=1)
        cfg = bayescub.CubatureConfig(epsilon=1e-2, n_max=2**10, seed=1)
        rec = tool.call_record(
            "w", 1, 0, lambda: bayescub.integrate_fast(problem.evaluator, 1, cfg),
            problem.reference_value)
        assert rec["reference"] == problem.reference_value.hex()
        assert float.fromhex(rec["reference"]) == problem.reference_value
        moved = {**rec, "reference": (problem.reference_value * (1 + 2**-52)).hex()}
        lines, _ = tool.diff_records([rec], [moved])
        assert lines == [f"('w', 1, 0) reference: {rec['reference']} != "
                         f"{moved['reference']}"]
        assert tool.diff_records([rec], [moved], ("mu_hat",))[0] == []
        assert "reference" in tool.FIELDS

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

    def test_loss_rises_per_workload(self, tool):
        new = copy.deepcopy(records())
        old = copy.deepcopy(records())
        for recs, losses in ((old, (2.0, 1.5, 3.0)), (new, (2.5, 1.25, None))):
            for it, loss in zip(recs[0]["iterations"] + recs[1]["iterations"], losses):
                it["loss"] = loss
        assert tool.loss_rises(old, new) == {"w": 0.5}
        new[0]["iterations"][0]["loss"] = 1.0  # every loss fell
        assert tool.loss_rises(old, new) == {"w": -0.25}
        assert any("doubling 0 loss" in line for line in tool.diff_records(old, new)[0])

    def test_watched_searches_give_the_recorded_loss(self, tool, monkeypatch):
        # a tree whose records lack the loss has it recorded as each search's
        # least finite value: on this tree, the very number it records
        from bayescub import cubature

        monkeypatch.setattr(cubature, "search_hyperparameters",
                            cubature.search_hyperparameters)
        problem = bayescub.build_problem("keister", d=2)
        cfg = bayescub.CubatureConfig(epsilon=1e-4, n_max=2**12, seed=1)
        run = lambda: bayescub.integrate_fast(problem.evaluator, 2, cfg)  # noqa: E731
        recorded = tool.call_record("w", 1, 0, run)
        watched = tool.call_record("w", 1, 0, run, minima=tool.watch_searches(cubature))
        losses = [it["loss"] for it in recorded["iterations"]]
        assert len(losses) > 1 and None not in losses
        assert [it["loss"] for it in watched["iterations"]] == losses

    @pytest.mark.parametrize("rise, code", [(0.5, 0), (2.0, 1)])
    def test_a_loss_rise_past_fatol_fails_whatever_the_fields(self, tool, monkeypatch,
                                                              tmp_path, capsys, rise, code):
        from bayescub.inference import FATOL

        old = copy.deepcopy(records())
        for it in old[0]["iterations"] + old[1]["iterations"]:
            it["loss"] = 2.0
        new = copy.deepcopy(old)
        new[0]["iterations"][1]["loss"] = 2.0 + rise * FATOL
        path = tmp_path / "old.json"
        path.write_text(json.dumps(old))
        monkeypatch.setattr(tool, "run_calls", lambda src, seeds: new)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.setenv(var, "1")  # main sets them; restored after the test
        assert tool.main(["--against", str(path), "--fields", "mu_hat", "n_used"]) == code
        out = capsys.readouterr().out
        named = "('w', 1, 0) doubling 1 loss rose"
        assert (named in out) == bool(code)
        assert f"{code} doublings whose loss rose more than FATOL" in out
        assert tool.loss_breaches(old, new, FATOL) == (
            [line for line in out.splitlines() if line.startswith(named)])

    def test_each_doubling_records_why_its_search_stopped(self, tool):
        from bayescub.inference import STOPS

        problem = bayescub.build_problem("keister", d=2)
        cfg = bayescub.CubatureConfig(epsilon=1e-4, n_max=2**12, seed=1)
        rec = tool.call_record(
            "w", 1, 0, lambda: bayescub.integrate_fast(problem.evaluator, 2, cfg))
        assert len(rec["iterations"]) > 1
        assert all(it["stop"] in STOPS for it in rec["iterations"])
        assert "stop" in tool.FIELDS
        recs = records()
        stops = ["model", "fatol", "model"]
        for it, stop in zip(recs[0]["iterations"] + recs[1]["iterations"], stops):
            it["stop"] = stop
        recs.append({"workload": "v", "seed": 1, "call": 0, "iterations": [{}]})
        assert tool.stop_shares(recs) == {"w": {"fatol": 1 / 3, "model": 2 / 3}}

    def test_evaluations_per_doubling_per_workload(self, tool):
        recs = records() + [{"workload": "v", "seed": 1, "call": 0, "mu_hat": "0x0p+0",
                             "n_used": 256, "iterations": [{"evaluations": 7}]}]
        recs[1]["iterations"][0]["evaluations"] = 50
        assert tool.evaluations_per_doubling(recs) == {"w": 30.0, "v": 7.0}



def test_every_path_call_builds_its_config(tool):
    calls = list(tool.path_calls(bayescub, 1))
    assert [name for name, _, _ in calls] == [f"path:{name}" for name in tool.PATHS]
    # the calls stay small; the Fresnel per-dimension call runs to 2^16
    big = {"path:fresnel_per_dimension": 2**16}
    assert all(cfg.n_max <= big.get(name, 2**14) and cfg.seed == 1
               for name, _, cfg in calls)

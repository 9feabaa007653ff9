"""Command-line harness: exit codes, record schemas, determinism of sweep
rows, and the selftest including fault injection."""

import csv
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from bayescub import cli, cubature, problems
from conftest import patch_first_eigenvalue_loss


def run_main(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestIntegrate:
    def test_keister_within_tolerance(self, capsys):
        code, out, _ = run_main(
            ["integrate", "--problem", "keister", "--d", "4", "--family", "lattice",
             "--criterion", "eb", "--eps", "1e-3", "--seed", "7"], capsys)
        assert code == 0
        record = json.loads(out)
        assert set(record) >= {"mu_hat", "n", "err", "tolerance_met", "seconds", "seed",
                               "bound_hits", "capped", "n_clamped"}
        assert record["tolerance_met"] is True
        assert record["abs_error"] <= 1e-3
        assert record["bound_hits"] == 0
        assert record["capped"] == 0

    def test_record_counts_bound_hits_and_the_last_clamped_count(self, capsys,
                                                                 monkeypatch):
        # a loss that falls as lam_1 grows drives eta to 1e8 at every
        # doubling; every TransformedData is tagged with a count from its n
        real = cubature.transformed_data
        patch_first_eigenvalue_loss(monkeypatch, lambda td: -np.log(td.lam1),
                                    lambda td: -1.0 / td.lam1, lambda td: td.lam1**-2)
        monkeypatch.setattr(cubature, "transformed_data",
                            lambda *a: replace(real(*a), n_clamped=a[2] // 64))
        code, out, _ = run_main(
            ["integrate", "--problem", "fresnel", "--eps", "1e-12", "--n0", "128",
             "--nmax", "512"], capsys)
        record = json.loads(out)
        assert code == 1 and record["n"] == 512
        assert record["bound_hits"] == 3 and record["n_clamped"] == 512 // 64

    def test_huge_eps_stops_at_n0(self, capsys):
        code, out, _ = run_main(
            ["integrate", "--problem", "fresnel", "--eps", "1e99", "--n0", "256"],
            capsys)
        assert code == 0
        assert json.loads(out)["n"] == 256

    def test_missing_problem_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["integrate", "--eps", "1e-2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("args", [["integrate", "--eps", "1e-2"],
                                      ["sweep", "--eps-lo", "1e-2", "--eps-hi", "1e-2"]])
    @pytest.mark.parametrize("d", ["0", "-3"])
    def test_dimension_below_one_is_usage_error(self, capsys, args, d):
        # keister and option used to read d = 0 as unset and ran d = 4
        code, out, err = run_main(args + ["--problem", "keister", "--d", d], capsys)
        assert code == 2 and "--d" in err and out == ""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_format_is_a_sweep_flag(self, capsys, fmt):
        # integrate always prints JSON; it used to accept --format and ignore it
        with pytest.raises(SystemExit) as exc:
            cli.main(["integrate", "--problem", "fresnel", "--eps", "1e-2",
                      "--format", fmt])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err

    def test_mvn_refuses_another_dimension(self, capsys):
        # mvn used to ignore --d and integrate its fixed 2-D instance
        code, out, err = run_main(
            ["integrate", "--problem", "mvn", "--d", "5", "--eps", "1e-2"], capsys)
        assert code == 1 and "dimension 2" in err and out == ""

    def test_unknown_problem_is_runtime_error(self, capsys):
        code, _, err = run_main(
            ["integrate", "--problem", "mystery", "--eps", "1e-2"], capsys)
        assert code == 1 and "mystery" in err

    def test_arithmetic_error_is_runtime_error(self, capsys, monkeypatch):
        from bayescub.inference import NonPositiveDefiniteError

        def fail(*args, **kwargs):
            raise NonPositiveDefiniteError("kernel column not positive definite")

        monkeypatch.setattr(cli, "integrate_fast", fail)
        code, _, err = run_main(
            ["integrate", "--problem", "fresnel", "--eps", "1e-2"], capsys)
        assert code == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("command", ["integrate", "sweep"])
    def test_a_directory_as_out_is_runtime_error(self, capsys, tmp_path, command):
        # open() on a directory raised IsADirectoryError out of main
        eps = ["--eps", "1e99"] if command == "integrate" else [
            "--eps-lo", "1e99", "--eps-hi", "1e99", "--count", "1"]
        code, _, err = run_main([command, "--problem", "fresnel", "--n0", "256",
                                 "--out", str(tmp_path)] + eps, capsys)
        assert code == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("command", ["integrate", "sweep"])
    def test_an_unwritable_out_fails_before_any_integration(self, capsys, monkeypatch,
                                                            tmp_path, command):
        # --out is opened before the first call, so a bad path loses no run
        calls = []
        monkeypatch.setattr(cli, "_run_once", lambda *args: calls.append(args))
        eps = ["--eps", "1e-2"] if command == "integrate" else [
            "--eps-lo", "1e-3", "--eps-hi", "1e-2", "--count", "5"]
        for out in (tmp_path, tmp_path / "missing" / "rows.json"):
            code, _, err = run_main([command, "--problem", "fresnel", "--out", str(out)]
                                    + eps, capsys)
            assert code == 1 and err.startswith("error: ") and calls == []

    @pytest.mark.parametrize("name", problems.PERIODIZERS)
    def test_periodizer_accepts_every_name(self, capsys, name):
        code, out, _ = run_main(
            ["integrate", "--problem", "fresnel", "--eps", "1e99", "--n0", "256",
             "--periodizer", name], capsys)
        assert code == 0
        assert json.loads(out)["n"] == 256

    def test_matern_family_routes_to_dense(self, capsys):
        code, out, _ = run_main(
            ["integrate", "--problem", "mvn", "--family", "matern",
             "--eps", "1e-2", "--seed", "1", "--n0", "64", "--nmax", "512"],
            capsys)
        assert code == 0
        assert json.loads(out)["n"] <= 512

    def test_matern_family_refuses_a_kernel(self, capsys):
        code, _, err = run_main(
            ["integrate", "--problem", "mvn", "--family", "matern", "--kernel",
             "bernoulli", "--eps", "1e-2"], capsys)
        assert code == 1 and "kernel" in err

    def test_lattice_refuses_the_walsh_kernel(self, capsys):
        # refused before any node is generated, naming kernel and family
        code, out, err = run_main(
            ["integrate", "--problem", "keister", "--d", "3", "--kernel", "walsh1",
             "--eps", "1e-3"], capsys)
        assert code == 1 and out == ""
        assert "'walsh1'" in err and "'lattice'" in err


class TestSweep:
    ARGS = ["sweep", "--problem", "keister", "--d", "4", "--family", "lattice",
            "--kernel", "bernoulli", "--order", "2", "--eps-lo", "1e-3",
            "--eps-hi", "1e-2", "--count", "4", "--seed", "3"]

    def test_rows_and_summary(self, capsys):
        code, out, _ = run_main(self.ARGS, capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == cli.SWEEP_SCHEMA
        assert len(doc["rows"]) == 4
        assert doc["summary"]["success_rate"] == 1.0
        eps_seed = [(r["eps"], r["seed"]) for r in doc["rows"]]
        assert eps_seed == sorted(eps_seed)

    def test_deterministic_rows(self, capsys):
        _, out1, _ = run_main(self.ARGS, capsys)
        _, out2, _ = run_main(self.ARGS, capsys)
        rows1 = [{k: v for k, v in r.items() if k != "seconds"}
                 for r in json.loads(out1)["rows"]]
        rows2 = [{k: v for k, v in r.items() if k != "seconds"}
                 for r in json.loads(out2)["rows"]]
        assert rows1 == rows2

    def test_csv_column_order(self, capsys, tmp_path):
        out_file = tmp_path / "rows.csv"
        args = self.ARGS + ["--format", "csv", "--out", str(out_file),
                            "--count", "2"]
        code, _, _ = run_main(args, capsys)
        assert code == 0
        header = out_file.read_text().splitlines()[0]
        assert header == ",".join(cli.CSV_COLUMNS)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_a_raising_call_is_a_failed_row(self, capsys, monkeypatch, tmp_path, fmt):
        # the seed-2 integrand turns non-finite at node 7, so that call raises
        # IntegrandError; the other two rows are still written
        real = cli._run_once

        def run_once(problem, config):
            if config.seed == 2:
                f = problem.evaluator

                def bad(x):
                    y = f(x)
                    y[7:8] = np.nan
                    return y

                problem = replace(problem, evaluator=bad)
            return real(problem, config)

        monkeypatch.setattr(cli, "_run_once", run_once)
        out_file = tmp_path / f"rows.{fmt}"
        code, out, err = run_main(
            ["sweep", "--problem", "fresnel", "--eps-lo", "1e-2", "--eps-hi", "1e-2",
             "--seeds", "1", "2", "3", "--format", fmt, "--out", str(out_file)], capsys)
        error = "IntegrandError: integrand returned a non-finite value at node index 7"
        assert code == 1
        assert err.splitlines() == [f"error: eps 0.01 seed 2: {error}"]
        summary = json.loads(out)
        assert (summary["count"], summary["failed"]) == (3, 1)
        if fmt == "csv":
            header, *rows = csv.reader(out_file.read_text().splitlines())
            assert header == list(cli.CSV_COLUMNS)
            assert [r[1] for r in rows] == ["1", "2", "3"]
            assert rows[1][2:] == ["", "", "", "", "", "False"]
            assert all(r[2:] != rows[1][2:] and r[-1] == "True" for r in (rows[0], rows[2]))
            return
        doc = json.loads(out_file.read_text())
        assert doc["schema"] == cli.SWEEP_SCHEMA == "bayescub.sweep.v2"
        rows = doc["rows"]
        assert [r["seed"] for r in rows] == [1, 2, 3]
        assert {k: v for k, v in rows[1].items() if k != "eps"} == {
            "seed": 2, "n": None, "err": None, "abs_error": None,
            "abs_error_over_eps": None, "seconds": None, "success": False, "error": error}
        done = (rows[0], rows[2])
        assert all(r["success"] and "error" not in r for r in done)
        assert summary["median_n"] == np.median([r["n"] for r in done])
        assert summary["success_rate"] == 2 / 3

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_no_reference_leaves_the_error_fields_empty(self, capsys, tmp_path, fmt):
        # the option at d = 4 has no reference; the sweep used to write bare
        # NaN tokens, which are not JSON, and "nan" in CSV
        assert problems.build_problem("option", d=4).reference_value is None
        out_file = tmp_path / f"rows.{fmt}"
        code, _, _ = run_main(
            ["sweep", "--problem", "option", "--d", "4", "--eps-lo", "1e-2",
             "--eps-hi", "2e-2", "--count", "2", "--nmax", "1024", "--format", fmt,
             "--out", str(out_file)], capsys)
        assert code == 0
        if fmt == "csv":
            header, *rows = csv.reader(out_file.read_text().splitlines())
            assert header == list(cli.CSV_COLUMNS) and len(rows) == 2
            for r in rows:
                assert r[4:6] == ["", ""] and r[-1] == "True" and float(r[3]) <= 2e-2
            return

        def refuse(token):
            raise ValueError(f"{token} is not JSON")

        rows = json.loads(out_file.read_text(), parse_constant=refuse)["rows"]
        assert len(rows) == 2
        for r in rows:
            assert r["abs_error"] is None and r["abs_error_over_eps"] is None
            assert r["success"] is True and r["err"] <= r["eps"]

    def test_single_run_matches_integrate(self, capsys):
        args = ["sweep", "--problem", "fresnel", "--eps-lo", "1e-2",
                "--eps-hi", "1e-2", "--count", "1", "--seeds", "5",
                "--periodizer", "sidi1"]
        code, out, _ = run_main(args, capsys)
        row = json.loads(out)["rows"][0]
        code2, out2, _ = run_main(
            ["integrate", "--problem", "fresnel", "--eps", str(row["eps"]),
             "--seed", "5", "--periodizer", "sidi1"], capsys)
        rec = json.loads(out2)
        assert (row["n"], row["err"]) == (rec["n"], rec["err"])

    def test_config_file(self, capsys, tmp_path):
        cfg = {"problem": "fresnel", "eps_lo": 1e-2, "eps_hi": 1e-2,
               "count": 2, "seed": 9}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run_main(["sweep", "--problem", "ignored",
                                 "--config", str(path)], capsys)
        assert code == 0
        assert len(json.loads(out)["rows"]) == 2

    @pytest.mark.parametrize("cfg,key", [
        ({"eps_lo": "1e-2x", "eps_hi": 1e-2}, "eps_lo"),
        ({"eps-lo": 1e-2, "eps_hi": 1e-2, "familly": "sobol"}, "familly"),
        ({"eps_lo": 1e-2, "eps_hi": 1e-2, "family": "halton"}, "family"),
        ({"eps_lo": 1e-2, "eps_hi": 1e-2, "count": 2.5}, "count"),
        ({"eps_lo": 1e-2, "eps_hi": 1e-2, "seeds": 5}, "seeds"),
        (["eps_lo", 1e-2], "JSON object")])
    def test_config_file_rejects_bad_entries(self, capsys, tmp_path, cfg, key):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_main(["sweep", "--problem", "fresnel",
                                   "--config", str(path)], capsys)
        assert code == 2 and key in err and out == ""

    def test_config_values_go_through_the_flag_types(self, capsys, tmp_path):
        # a number written as a JSON string is read as the flag would read it
        cfg = {"eps_lo": "1e-2", "eps-hi": "1e-2", "count": "2", "seeds": [3, "4"]}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run_main(["sweep", "--problem", "fresnel",
                                 "--config", str(path)], capsys)
        assert code == 0
        assert [r["seed"] for r in json.loads(out)["rows"]] == [3, 4]

    def test_a_directory_as_config_is_runtime_error(self, capsys, tmp_path):
        code, out, err = run_main(["sweep", "--problem", "fresnel",
                                   "--config", str(tmp_path)], capsys)
        assert code == 1 and err.startswith("error: ") and out == ""

    def test_missing_eps_range(self, capsys):
        code, _, err = run_main(["sweep", "--problem", "fresnel"], capsys)
        assert code == 2 and "eps-lo" in err

    @pytest.mark.parametrize("eps_lo", ["0", "-1e-3"])
    def test_eps_lo_not_positive_is_usage_error(self, capsys, eps_lo):
        # np.log of it used to warn, then numpy refused the draw's range
        code, out, err = run_main(["sweep", "--problem", "fresnel", f"--eps-lo={eps_lo}",
                                   "--eps-hi", "1e-2"], capsys)
        assert code == 2 and "--eps-lo must be positive" in err and out == ""

    @pytest.mark.parametrize("eps_lo,eps_hi", [
        ("1e-3", "nan"), ("1e-3", "inf"), ("inf", "inf"), ("nan", "1e-2")])
    @pytest.mark.parametrize("source", ["flags", "config"])
    def test_eps_not_finite_is_usage_error(self, capsys, tmp_path, source, eps_lo, eps_hi):
        # numpy used to refuse the draw's range, at exit 1
        if source == "flags":
            args = [f"--eps-lo={eps_lo}", f"--eps-hi={eps_hi}"]
        else:
            path = tmp_path / "sweep.json"
            path.write_text(json.dumps({"eps_lo": float(eps_lo), "eps_hi": float(eps_hi)}))
            args = ["--config", str(path)]
        code, out, err = run_main(["sweep", "--problem", "fresnel", *args], capsys)
        assert code == 2 and "must be finite" in err and out == ""

    def test_zero_count_rejected(self, capsys):
        code, _, err = run_main(["sweep", "--problem", "fresnel", "--eps-lo",
                                 "1e-3", "--eps-hi", "1e-2", "--count", "0"],
                                capsys)
        assert code == 2 and "count" in err

    def test_mvn_sweep_success_rate(self, capsys):
        # the documented sweep workflow end to end on the box-probability case
        code, out, _ = run_main(
            ["sweep", "--problem", "mvn", "--eps-lo", "1e-5", "--eps-hi", "1e-2",
             "--count", "10", "--seed", "77", "--periodizer", "sidi2",
             "--order", "2"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["success_rate"] >= 0.95


class TestSelftest:
    def test_fresh_checkout_passes(self, capsys):
        import time

        start = time.monotonic()
        code, out, _ = run_main(["selftest"], capsys)
        assert code == 0
        assert "PASS" in out and "FAIL" not in out
        assert time.monotonic() - start < 60

    def test_corrupted_direction_file_fails(self, capsys, tmp_path, monkeypatch):
        src = os.path.join(os.path.dirname(cli.__file__), "data",
                           "sobol_joe_kuo_d20.txt")
        text = open(src).read().replace("3\t2\t1\t1 3", "3\t2\t0\t1 1")
        (tmp_path / "sobol_joe_kuo_d20.txt").write_text(text)
        monkeypatch.setenv("BAYESCUB_DATA_DIR", str(tmp_path))
        code, out, _ = run_main(["selftest"], capsys)
        assert code == 1
        assert "net property" in out and "FAIL" in out


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bayescub.cli", "integrate", "--problem",
             "fresnel", "--eps", "1e99", "--n0", "256"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["tolerance_met"] is True

    def test_console_script_if_installed(self):
        exe = shutil.which("bayescub")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run([exe, "selftest"], capture_output=True, text=True)
        assert proc.returncode == 0

    def test_every_exported_name_resolves(self):
        import bayescub

        assert [name for name in bayescub.__all__ if not hasattr(bayescub, name)] == []

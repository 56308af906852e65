"""Command line behaviour: exact output, formats, guards, exit codes."""

import csv
import io
import json
import subprocess
import sys

import pytest

from rdickson import charsum, permcheck, rdpoly
from rdickson.cli import RunConfig, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDocumentedExamples:
    # frozen end-to-end transcripts; the values come from the oracle
    # recurrence, not from a previous run of this code
    def test_eval_gf5(self, capsys):
        code, out, _ = run(capsys, "eval", "--field", "5", "--n", "4",
                           "--k", "3", "--x", "2")
        assert (code, out) == (0, "0\n")

    def test_eval_gf7_index_zero(self, capsys):
        code, out, _ = run(capsys, "eval", "--field", "7", "--n", "0",
                           "--k", "5", "--x", "3")
        assert (code, out) == (0, "4\n")

    def test_eval_gf5_quarter(self, capsys):
        code, out, _ = run(capsys, "eval", "--field", "5", "--n", "4",
                           "--k", "3", "--x", "4")
        assert (code, out) == (0, "1\n")

    def test_poly_gf7(self, capsys):
        code, out, _ = run(capsys, "poly", "--field", "7", "--n", "3",
                           "--k", "0")
        assert code == 0
        assert out.splitlines()[0] == "1 + 4x"

    def test_pp_gf9(self, capsys):
        code, out, _ = run(capsys, "pp", "--field", "9", "--n", "3",
                           "--k", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n k brute_force two_to_one agree"
        assert lines[1] == "3 1 true true true"


class TestFormats:
    def test_json_is_sorted_and_parseable(self, capsys):
        code, out, _ = run(capsys, "eval", "--field", "9", "--n", "7",
                           "--k", "2", "--x", "1,2", "--format", "json")
        assert code == 0
        blob = json.loads(out)
        assert blob["field"] == "3^2/1,0,1"
        assert list(blob) == sorted(blob)

    def test_csv_sums_columns(self, capsys):
        code, out, _ = run(capsys, "sums", "--field", "5", "--k", "3",
                           "--format", "csv", "--check")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "sum", "d", "oracle_match"]
        assert len(rows) == 25                    # header + q^2 - 1
        assert all(row[3] == "true" for row in rows[1:])

    def test_csv_without_check_leaves_oracle_blank(self, capsys):
        _, out, _ = run(capsys, "sums", "--field", "5", "--k", "0",
                        "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert all(row[3] == "" for row in rows[1:])

    def test_output_is_byte_identical_across_runs(self, capsys):
        argv = ("verify", "T-k0-pe2", "--p", "3,5", "--e", "1",
                "--format", "json")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run(capsys, "eval", "--field", "5", "--n", "4",
                           "--k", "3", "--x", "2", "--format", "json",
                           "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["value"] == [0]


class TestChecks:
    def test_eval_check_agreement(self, capsys):
        code, out, _ = run(capsys, "eval", "--field", "7", "--n", "8",
                           "--k", "4", "--x", "3", "--check")
        assert code == 0
        assert "agree: true" in out
        assert "closed_form" in out               # 8 = 7 + 1 has a shape

    def test_eval_check_disagreement_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(rdpoly, "eval_functional",
                            lambda F, n, k, x: (rdpoly.eval_recurrence(
                                F, n, k, x) + 1) % F.p)
        code, out, _ = run(capsys, "eval", "--field", "7", "--n", "8",
                           "--k", "4", "--x", "3", "--check")
        assert code == 1
        assert "agree: false" in out

    def test_verify_sums_failure_exits_1(self, capsys, monkeypatch):
        real = charsum.sums_bruteforce
        monkeypatch.setattr(charsum, "sums_bruteforce",
                            lambda F, k, n: (real(F, k, n) + 1) % F.p)
        code, out, _ = run(capsys, "verify", "sums", "--field", "5",
                           "--k", "1")
        assert code == 1
        assert "pass: false" in out

    def test_verify_theorem_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "T2.2", "--p", "5", "--e", "1",
                           "--n", "0..12")
        assert code == 0
        assert "pass: true" in out


class TestGuardsAndErrors:
    def test_field_size_guard(self, capsys):
        code, _, err = run(capsys, "field-info", "--field", "625")
        assert code == 2 and "exceeds" in err

    def test_env_raises_guard(self, capsys, monkeypatch):
        monkeypatch.setenv("RDK_MAX_Q", "625")
        code, _, _ = run(capsys, "field-info", "--field", "625")
        assert code == 0

    def test_env_must_be_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("RDK_MAX_Q", "lots")
        code, _, err = run(capsys, "field-info", "--field", "5")
        assert code == 2 and "RDK_MAX_Q" in err

    def test_unsafe_large_lifts_guard(self, capsys):
        code, out, _ = run(capsys, "eval", "--field", "625", "--n", "2",
                           "--k", "1", "--x", "7", "--unsafe-large")
        assert code == 0

    def test_grid_guard(self, capsys):
        code, _, err = run(capsys, "pp", "--field", "3", "--n",
                           "1..2000000", "--k", "1")
        assert code == 2 and "grid" in err

    def test_bad_field(self, capsys):
        code, _, err = run(capsys, "eval", "--field", "6", "--n", "1",
                           "--k", "1", "--x", "1")
        assert code == 2 and "prime power" in err

    def test_missing_field(self, capsys):
        code, _, err = run(capsys, "sums", "--k", "1")
        assert code == 2 and "--field" in err

    def test_bad_element(self, capsys):
        code, _, err = run(capsys, "eval", "--field", "9", "--n", "1",
                           "--k", "1", "--x", "1,2,2")
        assert code == 2 and "coordinates" in err

    def test_bad_subcommand(self, capsys):
        assert run(capsys, "bogus")[0] == 2

    def test_no_arguments(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_pp_rejects_index_zero(self, capsys):
        code, _, err = run(capsys, "pp", "--field", "5", "--n", "0..3")
        assert code == 2 and "at least 1" in err

    def test_pp_rejects_unknown_criterion(self, capsys):
        code, _, err = run(capsys, "pp", "--field", "5", "--n", "1..3",
                           "--criteria", "magic")
        assert code == 2 and "criterion" in err

    def test_verify_rejects_nonprime(self, capsys):
        code, _, err = run(capsys, "verify", "T2.1", "--p", "9", "--e", "1")
        assert code == 2 and "prime" in err

    @pytest.mark.parametrize("target", permcheck.THEOREM_IDS)
    def test_verify_refuses_characteristic_2(self, capsys, target):
        # every statement assumes odd p; running it at p = 2 used to
        # report false counterexamples
        code, out, err = run(capsys, "verify", target, "--p", "2",
                             "--e", "1..3")
        assert (code, out) == (2, "")
        assert "odd characteristic" in err

    @pytest.mark.parametrize("target,flag", [("T-pl1-gen", "--l"),
                                             ("T2.2", "--n")])
    def test_verify_rejects_negative_indices(self, capsys, target, flag):
        code, _, err = run(capsys, "verify", target, "--p", "3",
                           "--e", "1", flag, "-1")
        assert code == 2 and "at least 0" in err
        assert "Traceback" not in err

    def test_verify_grid_guard(self, capsys):
        # 400001 indices times 3 kinds is past the 10^6 point bound
        code, _, err = run(capsys, "verify", "T2.2", "--p", "3", "--e", "1",
                           "--n", "0..400000")
        assert code == 2 and "grid" in err

    def test_pp_rejects_empty_criteria(self, capsys):
        code, out, err = run(capsys, "pp", "--field", "9", "--n", "1",
                             "--k", "0", "--criteria", ",")
        assert (code, out) == (2, "")
        assert "criterion" in err


class TestCharTwo:
    def test_eval_and_check_work(self, capsys):
        code, out, _ = run(capsys, "eval", "--field", "4", "--n", "6",
                           "--k", "3", "--x", "1,1", "--check")
        assert code == 0 and "char2" in out and "agree: true" in out

    def test_pp_needs_brute_force_only(self, capsys):
        code, out, _ = run(capsys, "pp", "--field", "4", "--n", "1..5",
                           "--criteria", "brute_force")
        assert code == 0
        code, _, err = run(capsys, "pp", "--field", "4", "--n", "1..5")
        assert code == 2 and "odd characteristic" in err

    def test_general_scale_falls_back_to_definition(self, capsys):
        # worked by hand over GF(4), t^2 = t + 1: with k = 1, a = t + 1,
        # x = t the sequence runs 1, 3, 0, 1, 3, 0, 1 (int encodings)
        code, out, _ = run(capsys, "eval", "--field", "4", "--n", "6",
                           "--k", "1", "--x", "0,1", "--a", "1,1")
        assert code == 0 and out == "1,0\n"
        code, _, err = run(capsys, "eval", "--field", "4", "--n", "6000",
                           "--k", "1", "--x", "0,1", "--a", "1,1")
        assert code == 2 and "5000" in err


class TestRunConfig:
    def test_dict_round_trip(self):
        cfg = RunConfig(command="eval", fmt="json", out=None, check=True,
                        unsafe_large=False, max_q=343,
                        params=(("field", "9"), ("n", "3")))
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_from_args_collects_params(self, capsys):
        # reach through main so from_args sees real parsed namespaces
        from rdickson.cli import _build_parser
        args = _build_parser().parse_args(
            ["eval", "--field", "5", "--n", "4", "--k", "3", "--x", "2"])
        cfg = RunConfig.from_args(args)
        assert cfg.command == "eval" and ("field", "5") in cfg.params
        assert RunConfig.from_dict(cfg.to_dict()) == cfg


class TestModuleEntry:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rdickson", "eval", "--field", "5",
             "--n", "4", "--k", "3", "--x", "2"],
            capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stdout == "0\n"

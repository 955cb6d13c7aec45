import csv
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from threshmatch import DgpConfig, estimate_att, generate, load_ite_model, split_three_way
from threshmatch import cli, data_model
from threshmatch.cli import main

from conftest import FIXTURES, LONG_FIELD_CASES, long_field_csv, piped

SCHEMA_PATH = Path(__file__).parent.parent / "schemas" / "cli_output.schema.json"
NULL_CSV = str(FIXTURES / "null_fixture.csv")

ESTIMATE_FLAGS = [
    "--data", NULL_CSV,
    "--y", "y", "--q", "q",
    "--x", "x1,x2,x3", "--z", "x1,x2,x3,x4",
    "--tau", "0.0",
]


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_duration(text: str) -> str:
    return re.sub(r'"duration_s": [0-9eE.+-]+', '"duration_s": 0', text)


def validate_schema(payload: dict) -> None:
    import jsonschema

    schema = json.loads(SCHEMA_PATH.read_text())
    jsonschema.validate(payload, schema)


class TestEstimate:
    def test_null_fixture_theta_is_zero(self, capsys):
        code, out, _ = run_cli(["estimate", *ESTIMATE_FLAGS, "--seed", "42"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["theta_hat"]) <= 1e-8
        assert doc["n"] == 300
        assert doc["n_treated"] + doc["n_control"] == 300
        validate_schema(doc)

    def test_rerun_is_byte_identical_apart_from_duration(self, capsys):
        args = ["estimate", *ESTIMATE_FLAGS, "--seed", "42"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert strip_duration(out1) == strip_duration(out2)

    def test_crossfit_reports_rotations(self, capsys):
        code, out, _ = run_cli(["estimate", *ESTIMATE_FLAGS, "--crossfit"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert len(doc["theta_rotations"]) == 3
        assert doc["theta_hat"] == pytest.approx(np.mean(doc["theta_rotations"]))
        validate_schema(doc)

    def test_missing_column_exits_two(self, capsys):
        bad = ["estimate", "--data", NULL_CSV, "--y", "y", "--q", "q",
               "--x", "nope", "--z", "x4", "--tau", "0.0"]
        code, _, err = run_cli(bad, capsys)
        assert code == 2
        assert "nope" in err

    def test_non_finite_tau_exits_two(self, capsys):
        # the last --tau wins, as argparse keeps the final occurrence
        code, out, err = run_cli(["estimate", *ESTIMATE_FLAGS, "--tau", "nan"], capsys)
        assert code == 2
        assert out == ""
        assert "tau0" in err and "nan" in err
        assert "row" not in err

    @pytest.mark.parametrize("command", [["estimate", "--crossfit"], ["bootstrap", "--b", "2"]])
    @pytest.mark.parametrize("change", ["rewrite", "delete"])
    def test_digest_is_of_the_bytes_parsed(self, command, change, tmp_path, monkeypatch, capsys):
        # the file changes after it was parsed, while the command still runs
        original = Path(NULL_CSV).read_bytes()
        path = tmp_path / "data.csv"
        path.write_bytes(original)
        load_csv = cli.load_csv

        def load_then_change(*args):
            obs = load_csv(*args)
            if change == "rewrite":
                path.write_bytes(original.replace(b"\n", b"\n\n"))
            else:
                path.unlink()
            return obs

        monkeypatch.setattr(cli, "load_csv", load_then_change)
        code, out, _ = run_cli([*command, *ESTIMATE_FLAGS, "--data", str(path)], capsys)
        assert code == 0
        assert json.loads(out)["manifest"]["input_digest"] == hashlib.sha256(original).hexdigest()

    @pytest.mark.parametrize("per_cell", [False, True], ids=["one-pass", "per-cell"])
    def test_digest_covers_every_chunk(self, per_cell, tmp_path, monkeypatch, capsys):
        # an Arabic-Indic zero reads as 0 but sends the file to the per-cell reader
        original = Path(NULL_CSV).read_bytes()
        if per_cell:
            original = original.replace(b"-0.814501518808203", "-\u0660.814501518808203".encode(), 1)
        path = tmp_path / "data.csv"
        path.write_bytes(original)
        argv = ["estimate", *ESTIMATE_FLAGS, "--data", str(path)]
        _, whole, _ = run_cli(argv, capsys)
        monkeypatch.setattr(data_model, "READ_CHUNK_BYTES", 1000)
        assert len(original) > 30 * data_model.READ_CHUNK_BYTES
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert json.loads(out)["manifest"]["input_digest"] == hashlib.sha256(original).hexdigest()
        assert strip_duration(out) == strip_duration(whole)

    @pytest.mark.parametrize("per_cell", [False, True], ids=["one-pass", "per-cell"])
    def test_a_pipe_reads_as_its_file(self, per_cell, tmp_path, monkeypatch, capsys):
        # as --data <(cat file) gives: a pipe, read once like a file
        original = Path(NULL_CSV).read_bytes()
        if per_cell:
            original = original.replace(b"-0.814501518808203", "-\u0660.814501518808203".encode(), 1)
        path = tmp_path / "data.csv"
        path.write_bytes(original)
        _, whole, _ = run_cli(["estimate", *ESTIMATE_FLAGS, "--data", str(path)], capsys)
        monkeypatch.setattr(data_model, "READ_CHUNK_BYTES", 1000)
        with piped(original) as pipe:
            code, out, _ = run_cli(["estimate", *ESTIMATE_FLAGS, "--data", pipe], capsys)
        assert code == 0
        assert json.loads(out)["manifest"]["input_digest"] == hashlib.sha256(original).hexdigest()
        # the manifest names the path given as --data
        assert strip_duration(out.replace(json.dumps(pipe), json.dumps(str(path)))) == strip_duration(whole)

    def test_a_per_cell_pipe_needs_no_temporary_file(self, tmp_path, monkeypatch, capsys):
        # the per-cell reader parses the block the one read turned away, so a pipe needs no copy
        original = Path(NULL_CSV).read_bytes()
        original = original.replace(b"-0.814501518808203", "-\u0660.814501518808203".encode(), 1)
        path = tmp_path / "data.csv"
        path.write_bytes(original)
        _, whole, _ = run_cli(["estimate", *ESTIMATE_FLAGS, "--data", str(path)], capsys)

        def no_temporary_file(*args, **kwargs):
            raise AssertionError("a temporary file was made")

        monkeypatch.setattr(tempfile, "TemporaryFile", no_temporary_file)
        with piped(original) as pipe:
            code, out, _ = run_cli(["estimate", *ESTIMATE_FLAGS, "--data", pipe], capsys)
        assert code == 0
        assert json.loads(out)["manifest"]["input_digest"] == hashlib.sha256(original).hexdigest()
        assert strip_duration(out.replace(json.dumps(pipe), json.dumps(str(path)))) == strip_duration(whole)

    def test_missing_data_file_exits_two(self, tmp_path, capsys):
        # an OSError is an input failure, reported like any other
        missing = str(tmp_path / "absent.csv")
        code, out, err = run_cli(["estimate", *ESTIMATE_FLAGS, "--data", missing], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert missing in err

    def test_non_utf8_data_file_exits_two(self, tmp_path, capsys):
        text = Path(NULL_CSV).read_bytes()
        path = tmp_path / "latin1.csv"
        path.write_bytes(text + b"1.0,2.0,3.0,4.0,5.0,caf\xe9\n")
        code, out, err = run_cli(["estimate", *ESTIMATE_FLAGS, "--data", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert str(path) in err and f"byte {len(text) + 23}" in err

    @pytest.mark.parametrize("bad_byte", [False, True], ids=["utf8", "bad-byte-after"])
    @pytest.mark.parametrize("case", LONG_FIELD_CASES)
    def test_a_field_csv_cannot_read_exits_two(self, tmp_path, case, bad_byte, capsys):
        # a field longer than csv's limit, which an unclosed quote also makes;
        # a byte that is not UTF-8 after it is the error reported
        data = long_field_csv(case, bad_byte)
        path = tmp_path / "long.csv"
        path.write_bytes(data)
        argv = ["estimate", "--data", str(path), "--y", "y", "--q", "q", "--x", "a", "--z", "a,b", "--tau", "0"]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        reason = (f"byte {len(data) - 2} is not valid UTF-8" if bad_byte
                  else f"field larger than field limit ({csv.field_size_limit()})")
        assert err == f"error: {path}: {reason}\n"

    @pytest.mark.parametrize("flag, value, named", [
        ("--x", "x1,x1", "x1"),
        ("--x", "y,x2", "y"),
        ("--z", "q,x4", "q"),
        ("--z", "x1,y", "y"),
    ], ids=["x-twice", "y-in-x", "q-in-z", "y-in-z"])
    def test_degenerate_column_roles_exit_two(self, flag, value, named, capsys):
        code, out, err = run_cli(["estimate", *ESTIMATE_FLAGS, flag, value], capsys)
        assert code == 2
        assert out == ""
        assert f"'{named}'" in err

    def test_duplicate_header_exits_two(self, tmp_path, capsys):
        lines = Path(NULL_CSV).read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        header[header.index("x2")] = "x1"
        path = tmp_path / "dup.csv"
        path.write_text("\n".join([",".join(header), *lines[1:]]) + "\n")
        bad = ["estimate", "--data", str(path), "--y", "y", "--q", "q",
               "--x", "x1,x3", "--z", "x1,x3,x4", "--tau", "0.0"]
        code, _, err = run_cli(bad, capsys)
        assert code == 2
        assert "'x1'" in err and "more than once" in err

    def test_rank_deficient_exits_three(self, tmp_path, capsys):
        # a second column equal to x4 makes the score regression singular
        lines = Path(NULL_CSV).read_text().strip().split("\n")
        path = tmp_path / "dup.csv"
        copied = [f"{line},{line.split(',')[4]}" for line in lines[1:]]
        path.write_text(f"{lines[0]},x4copy\n" + "\n".join(copied) + "\n")
        args = ["estimate", "--data", str(path), "--y", "y", "--q", "q",
                "--x", "x1", "--z", "x4,x4copy", "--tau", "0.0"]
        code, _, err = run_cli(args, capsys)
        assert code == 3
        assert "rank" in err.lower()

    def test_overflowing_outcome_exits_three(self, tmp_path, capsys):
        # finite outcomes of +/-1.7e308 overflow the first differences to inf
        lines = Path(NULL_CSV).read_text().strip().split("\n")
        rows = [line.split(",") for line in lines[1:]]
        for r, row in enumerate(rows):
            row[0] = repr(1.7e308 if r % 2 else -1.7e308)
        path = tmp_path / "overflow.csv"
        path.write_text("\n".join([lines[0], *map(",".join, rows)]) + "\n")
        with np.errstate(all="ignore"):
            code, out, err = run_cli(["estimate", *ESTIMATE_FLAGS, "--data", str(path)], capsys)
        assert code == 3
        assert out == ""
        assert "not finite" in err

    def test_add_intercept_z(self, capsys):
        code, out, _ = run_cli(["estimate", *ESTIMATE_FLAGS, "--add-intercept-z"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert len(doc["gamma_hat"]) == 5  # four covariates plus the constant


class TestBootstrap:
    def test_two_replicates(self, capsys):
        code, out, _ = run_cli(
            ["bootstrap", *ESTIMATE_FLAGS, "--b", "2", "--seed", "1"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert np.isfinite(doc["sigma2_hat"])
        assert doc["b"] == 2 and doc["b_failed"] == 0
        validate_schema(doc)

    def test_fixed_seed_reproduces_ci(self, capsys):
        args = ["bootstrap", *ESTIMATE_FLAGS, "--b", "8", "--seed", "9"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert json.loads(out1)["ci"] == json.loads(out2)["ci"]

    def test_failure_budget_exits_four(self, tmp_path, capsys):
        # twelve rows with only four controls: the original split (seed 4)
        # estimates fine, but most resamples lack the controls some
        # pipeline stage needs
        rng = np.random.default_rng(8)
        x = rng.standard_normal(12)
        q = np.concatenate([1.0 + rng.uniform(0, 1, 8), -1.0 - rng.uniform(0, 1, 4)])
        rows = ["y,x1,q"] + [
            f"{2.0 * float(xv)!r},{float(xv)!r},{float(qv)!r}" for xv, qv in zip(x, q)
        ]
        path = tmp_path / "degen.csv"
        path.write_text("\n".join(rows) + "\n")
        args = ["bootstrap", "--data", str(path), "--y", "y", "--q", "q",
                "--x", "x1", "--z", "x1", "--tau", "0.0", "--b", "50", "--seed", "4"]
        code, _, err = run_cli(args, capsys)
        assert code == 4


class TestIte:
    @pytest.fixture()
    def case1_csv(self, tmp_path):
        path = tmp_path / "case1.csv"
        code = main(["simulate", "--mode", "gen", "--n", "4000", "--seed", "31",
                     "--ite-kind", "x-only", "--out", str(path)])
        assert code == 0
        return str(path)

    def test_fit_and_predict(self, tmp_path, case1_csv, capsys):
        capsys.readouterr()
        model_out = str(tmp_path / "model.txt")
        grid = tmp_path / "grid.csv"
        grid.write_text("x1,x2,x3\n0.0,0.0,0.0\n1.0,0.5,-0.5\n")
        args = ["ite", "--data", case1_csv, "--y", "y", "--q", "q",
                "--x", "x1,x2,x3", "--z", "x1,x2,x3,x4", "--tau", "0.0",
                "--seed", "3", "--model-out", model_out,
                "--predict-grid", str(grid)]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        doc = json.loads(out)
        validate_schema(doc)
        assert doc["chosen_df"] >= 3
        model = load_ite_model(model_out)
        assert model.basis.df == doc["chosen_df"]
        pred_lines = Path(doc["predictions_out"]).read_text().strip().split("\n")
        assert pred_lines[0] == "x1,x2,x3,alpha_hat"
        assert len(pred_lines) == 3
        # truth is x1^2 + x2*x3; spot check the second grid point loosely
        alpha = float(pred_lines[2].split(",")[-1])
        assert abs(alpha - (1.0 + 0.5 * -0.5)) <= 0.5

    def test_grid_duplicate_column_exits_two(self, tmp_path, case1_csv, capsys):
        capsys.readouterr()
        grid = tmp_path / "grid.csv"
        grid.write_text("x1,x2,x2,x3\n0.0,0.0,1.0,0.0\n")
        args = ["ite", "--data", case1_csv, "--y", "y", "--q", "q",
                "--x", "x1,x2,x3", "--z", "x1,x2,x3,x4", "--tau", "0.0",
                "--model-out", str(tmp_path / "m.txt"), "--predict-grid", str(grid)]
        code, _, err = run_cli(args, capsys)
        assert code == 2
        assert "'x2'" in err and "more than once" in err
        assert not (tmp_path / "m.txt").exists()  # the grid is read before the fit

    def test_grid_missing_eta_column_exits_two(self, tmp_path, case1_csv, capsys):
        capsys.readouterr()
        grid = tmp_path / "grid.csv"
        grid.write_text("x1,x2,x3\n0.0,0.0,0.0\n")
        args = ["ite", "--data", case1_csv, "--y", "y", "--q", "q",
                "--x", "x1,x2,x3", "--z", "x1,x2,x3,x4", "--tau", "0.0",
                "--include-eta", "true",
                "--model-out", str(tmp_path / "m.txt"), "--predict-grid", str(grid)]
        code, _, err = run_cli(args, capsys)
        assert code == 2
        assert "eta_hat" in err
        assert not (tmp_path / "m.txt").exists()

    def test_an_x_column_named_eta_hat_needs_no_grid(self, tmp_path, case1_csv, capsys):
        # the clash is the grid's: without one, the name is an ordinary covariate
        capsys.readouterr()
        data = tmp_path / "renamed.csv"
        data.write_text(Path(case1_csv).read_text().replace("x3", "eta_hat", 1))
        args = ["ite", "--data", str(data), "--y", "y", "--q", "q",
                "--x", "x1,x2,eta_hat", "--z", "x1,x2,eta_hat,x4", "--tau", "0.0",
                "--include-eta", "true", "--model-out", str(tmp_path / "m.txt")]
        code, _, _ = run_cli(args, capsys)
        assert code == 0


    @pytest.mark.parametrize("text, message", [
        ("", "need at least 1 rows, got 0"),
        ("x1,x2,x3\n", "need at least 1 rows, got 0"),
        ("x1,x2,x3\n0.0,0.0,0.0\n,,\n", "row 1, column 'x1'"),
    ], ids=["empty-file", "header-only", "comma-only-row"])
    def test_bad_grid_exits_two(self, tmp_path, case1_csv, capsys, text, message):
        capsys.readouterr()
        grid = tmp_path / "grid.csv"
        grid.write_text(text)
        args = ["ite", "--data", case1_csv, "--y", "y", "--q", "q",
                "--x", "x1,x2,x3", "--z", "x1,x2,x3,x4", "--tau", "0.0",
                "--model-out", str(tmp_path / "m.txt"), "--predict-grid", str(grid)]
        code, _, err = run_cli(args, capsys)
        assert code == 2
        assert message in err
        assert not (tmp_path / "m.txt").exists()


    def test_df_grid_and_include_eta_false_reach_the_model_file(self, tmp_path, case1_csv, capsys):
        capsys.readouterr()
        model_out = tmp_path / "m.txt"
        args = ["ite", "--data", case1_csv, "--y", "y", "--q", "q",
                "--x", "x1,x2,x3", "--z", "x1,x2,x3,x4", "--tau", "0.0",
                "--df-grid", "3,4", "--include-eta", "false", "--model-out", str(model_out)]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        doc = json.loads(out)
        validate_schema(doc)
        assert doc["manifest"]["flags"]["df_grid"] == [3, 4]
        assert doc["manifest"]["flags"]["include_eta"] is False
        lines = model_out.read_text().splitlines()
        assert "df_grid 3,4" in lines and "include_eta 0" in lines


ITE_FLAGS = ["--model-out", "m.txt"]


class TestFlagParsing:
    # by_argparse: the flag's type rejects it, so argparse exits; otherwise its owner raises in main
    @pytest.mark.parametrize(
        "argv, message, by_argparse",
        [
            (["estimate", *ESTIMATE_FLAGS, "--seed", "-1"], "seeds must be non-negative integers", False),
            (["estimate", *ESTIMATE_FLAGS, "--seed", "x"], "invalid int value", True),
            (["estimate", *ESTIMATE_FLAGS, "--x", ","], "x_cols and z_cols must be nonempty", False),
            (["ite", *ESTIMATE_FLAGS, *ITE_FLAGS, "--df-grid", "3,x"],
             "comma-separated list of integers", True),
            (["ite", *ESTIMATE_FLAGS, *ITE_FLAGS, "--include-eta", "maybe"],
             "expected true/false", True),
        ],
        ids=["negative-seed", "non-integer-seed", "empty-column-list", "bad-df-grid", "bad-bool"],
    )
    def test_bad_flag_exits_two(self, argv, message, by_argparse, capsys):
        if by_argparse:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            code = exc.value.code
        else:
            code = main(argv)
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["estimate", "--seed", "-1"], "seeds must be non-negative integers, got (-1,)"),
        (["estimate", "--x", ""], "x_cols and z_cols must be nonempty"),
        (["ite", *ITE_FLAGS, "--df-grid", "2,3"], "every df must be >= degree (3)"),
        (["ite", *ITE_FLAGS, "--df-grid", "4,3"], "df_grid must be strictly increasing"),
        (["ite", *ITE_FLAGS, "--x", "x1,eta_hat", "--include-eta", "true", "--predict-grid", "g.csv"],
         "--x column 'eta_hat' clashes with the grid's score residual column"),
        (["bootstrap", "--b", "1"], "need at least 2 bootstrap replicates, got 1"),
        (["bootstrap", "--b", "2", "--level", "0"], "confidence level must lie strictly in (0, 1), got 0.0"),
        (["bootstrap", "--b", "2", "--level", "1.5"], "confidence level must lie strictly in (0, 1), got 1.5"),
        (["estimate", "--tau", "nan"], "tau0 must be finite"),
    ], ids=["negative-seed", "empty-x", "df-below-degree", "df-grid-decreasing", "eta-hat-clash",
            "one-replicate", "level-zero", "level-above-one", "nan-tau"])
    def test_a_bad_flag_fails_before_the_data_file_is_opened(self, argv, message, tmp_path, capsys):
        # --data names no file: opening it would fail with an OSError instead
        command, *flags = argv
        missing = str(tmp_path / "absent.csv")
        code, out, err = run_cli([command, *ESTIMATE_FLAGS, "--data", missing, *flags], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert "absent.csv" not in err


class TestSimulate:
    def test_gen_without_out_exits_two(self, capsys):
        code, out, err = run_cli(["simulate", "--mode", "gen", "--n", "9"], capsys)
        assert code == 2
        assert out == ""
        assert "--mode gen requires --out PATH" in err

    def test_gen_smallest_legal_n(self, tmp_path, capsys):
        out_path = tmp_path / "tiny.csv"
        code, out, _ = run_cli(
            ["simulate", "--mode", "gen", "--n", "9", "--seed", "0", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        validate_schema(doc)
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "y,x1,x2,x3,x4,q"
        assert doc["columns"] == lines[0].split(",")
        assert len(lines) == 10

    def test_gen_estimate_round_trip_matches_in_process(self, tmp_path, capsys):
        out_path = tmp_path / "data.csv"
        run_cli(["simulate", "--mode", "gen", "--n", "3000", "--seed", "17",
                 "--out", str(out_path)], capsys)
        code, out, _ = run_cli(
            ["estimate", "--data", str(out_path), "--y", "y", "--q", "q",
             "--x", "x1,x2,x3", "--z", "x1,x2,x3,x4", "--tau", "0.0", "--seed", "5"],
            capsys,
        )
        assert code == 0
        cli_theta = json.loads(out)["theta_hat"]

        obs = generate(DgpConfig(n=3000, seed=17))
        splits = split_three_way(obs.n, seed=5)
        assert estimate_att(obs, splits).theta_hat == cli_theta

    def test_mc_att_report(self, tmp_path, capsys):
        hist = tmp_path / "hist.csv"
        code, out, _ = run_cli(
            ["simulate", "--mode", "mc-att", "--n", "600", "--reps", "30",
             "--seed", "2", "--out", str(hist)],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        validate_schema(doc)
        assert doc["report"]["variance"] > 0
        assert hist.read_text().startswith("bin_left,bin_right,count")

    def test_mc_ite_reports_mses(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--mode", "mc-ite", "--n", "2000", "--reps", "3",
             "--seed", "4", "--ite-kind", "x-only"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        validate_schema(doc)
        assert len(doc["mses"]) == 3
        assert doc["median_mse"] >= 0


    @pytest.mark.parametrize("kind", ["x-only", "x-and-eta"])
    @pytest.mark.parametrize("mode, flags", [
        ("gen", ["--n", "9"]),
        ("mc-att", ["--n", "600", "--reps", "30"]),
        ("mc-ite", ["--n", "600", "--reps", "1", "--df-grid", "3,4"]),
    ], ids=["gen", "mc-att", "mc-ite"])
    def test_manifest_records_the_resolved_include_eta(self, tmp_path, mode, flags, kind, capsys):
        # without --include-eta, the flag follows --ite-kind in every mode
        out_flags = ["--out", str(tmp_path / "out.csv")] if mode != "mc-ite" else []
        code, out, _ = run_cli(
            ["simulate", "--mode", mode, *flags, "--ite-kind", kind, *out_flags], capsys
        )
        assert code == 0
        assert json.loads(out)["manifest"]["flags"]["include_eta"] is (kind == "x-and-eta")

    def test_gen_manifest_records_the_defaults_it_resolves(self, tmp_path, capsys):
        # the flags gen does not use default to None, and resolve after the check
        code, out, _ = run_cli(
            ["simulate", "--mode", "gen", "--n", "9", "--out", str(tmp_path / "g.csv")], capsys
        )
        assert code == 0
        flags = json.loads(out)["manifest"]["flags"]
        assert flags["crossfit"] is False and flags["reps"] == 100
        assert flags["df_grid"] == [3, 4, 5, 6, 8, 10]

    @pytest.mark.parametrize("argv, flag", [
        (["simulate", "--mode", "mc-ite", "--n", "600", "--reps", "1", "--crossfit"], "--crossfit"),
        (["simulate", "--mode", "mc-ite", "--n", "600", "--reps", "1"], "--out"),
        (["simulate", "--mode", "gen", "--n", "9", "--crossfit"], "--crossfit"),
        (["simulate", "--mode", "gen", "--n", "9", "--include-eta", "true"], "--include-eta"),
        (["simulate", "--mode", "gen", "--n", "9", "--include-eta", "false"], "--include-eta"),
        (["simulate", "--mode", "gen", "--n", "9", "--df-grid", "3,4"], "--df-grid"),
        (["simulate", "--mode", "gen", "--n", "9", "--reps", "5"], "--reps"),
        (["simulate", "--mode", "mc-att", "--n", "600", "--reps", "30", "--df-grid", "3,4"],
         "--df-grid"),
        (["simulate", "--mode", "mc-att", "--n", "600", "--reps", "30", "--include-eta", "true"],
         "--include-eta"),
        (["ite", *ESTIMATE_FLAGS, "--predictions-out", "preds.csv"], "--predictions-out"),
    ], ids=["mc-ite-crossfit", "mc-ite-out", "gen-crossfit", "gen-include-eta",
            "gen-include-eta-false", "gen-df-grid", "gen-reps", "mc-att-df-grid",
            "mc-att-include-eta", "ite-predictions-out"])
    def test_a_flag_the_run_would_drop_exits_two(self, tmp_path, argv, flag, capsys):
        # each used to exit 0, ignoring the flag (mc-ite wrote no --out file);
        # the simulate flags default to None, so a false value counts as given
        out_flag = "--model-out" if argv[0] == "ite" else "--out"
        code, out, err = run_cli([*argv, out_flag, str(tmp_path / "out")], capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ") and flag in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("reps", ["0", "-3"])
    def test_mc_ite_without_reps_exits_two(self, reps, capsys):
        code, out, err = run_cli(
            ["simulate", "--mode", "mc-ite", "--n", "600", "--reps", reps], capsys
        )
        assert code == 2
        assert out == ""
        assert "seed" in err


class TestStatisticalTargetsThroughCli:
    """The generator-to-estimator bands, routed through files and flags."""

    def test_crossfit_estimate_on_generated_file(self, tmp_path, capsys):
        path = tmp_path / "dgp12k.csv"
        run_cli(["simulate", "--mode", "gen", "--n", "12000", "--seed", "6",
                 "--out", str(path)], capsys)
        code, out, _ = run_cli(
            ["estimate", "--data", str(path), "--y", "y", "--q", "q",
             "--x", "x1,x2,x3", "--z", "x1,x2,x3,x4", "--tau", "0.0",
             "--seed", "6", "--crossfit"],
            capsys,
        )
        assert code == 0
        theta = json.loads(out)["theta_hat"]
        assert abs(theta - 4.0 / 3.0) <= 0.7

    def test_bootstrap_variance_on_generated_file(self, tmp_path, capsys):
        path = tmp_path / "dgp5k.csv"
        run_cli(["simulate", "--mode", "gen", "--n", "5000", "--seed", "5",
                 "--out", str(path)], capsys)
        code, out, _ = run_cli(
            ["bootstrap", "--data", str(path), "--y", "y", "--q", "q",
             "--x", "x1,x2,x3", "--z", "x1,x2,x3,x4", "--tau", "0.0",
             "--b", "200", "--seed", "5"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert 9.0 < doc["sigma2_hat"] < 14.5
        assert doc["ci"][0] < 4.0 / 3.0 < doc["ci"][1]

    def test_mc_att_variance_band(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--mode", "mc-att", "--n", "12000", "--reps", "300",
             "--crossfit", "--seed", "7"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)["report"]
        assert 9.0 <= report["variance"] <= 14.5
        assert abs(report["mean"]) <= 0.5


class TestConsoleEntryPoint:
    def test_module_invocation(self, tmp_path):
        src = str(Path(__file__).parent.parent / "src")
        result = subprocess.run(
            [sys.executable, "-m", "threshmatch.cli", "estimate", *ESTIMATE_FLAGS],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert abs(doc["theta_hat"]) <= 1e-8

    def test_import_defers_unused_scipy_modules(self):
        # a cold `threshmatch estimate` process never needs SciPy; importing any of
        # it at module level costs a large share of a CLI run's start-up
        src = str(Path(__file__).parent.parent / "src")
        code = ("import sys, threshmatch.cli; "
                "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_ite_run_imports_no_scipy(self, tmp_path):
        # the effect surface is numpy only: a whole `threshmatch ite` run, grid
        # predictions included, never loads SciPy
        data = tmp_path / "data.csv"
        assert main(["simulate", "--mode", "gen", "--n", "3000", "--seed", "5",
                     "--out", str(data)]) == 0
        grid = tmp_path / "grid.csv"
        grid.write_text("x1,x2,x3,eta_hat\n0.0,0.0,0.0,0.1\n1.0,0.5,-0.5,-0.2\n")
        argv = ["ite", "--data", str(data), "--y", "y", "--q", "q",
                "--x", "x1,x2,x3", "--z", "x1,x2,x3,x4", "--tau", "0.0",
                "--include-eta", "true", "--model-out", str(tmp_path / "m.txt"),
                "--predict-grid", str(grid)]
        src = str(Path(__file__).parent.parent / "src")
        code = ("import sys; from threshmatch.cli import main; code = main(sys.argv[1:]); "
                "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')], "
                "file=sys.stderr); sys.exit(code)")
        proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["predictions_out"]
        assert proc.stderr.strip() == "[]"

    @pytest.mark.parametrize("case", ["estimate-crossfit", "bootstrap", "ite", "api"])
    def test_estimator_runs_never_load_numpy_ma(self, tmp_path, case):
        # np.quantile and np.unique import numpy.ma (about 1.4 MiB) on first use;
        # intervals, knots and reuse counts are computed without them
        data, grid = tmp_path / "data.csv", tmp_path / "grid.csv"
        assert main(["simulate", "--mode", "gen", "--n", "3000", "--seed", "5",
                     "--out", str(data)]) == 0
        grid.write_text("x1,x2,x3,eta_hat\n0.0,0.0,0.0,0.1\n1.0,0.5,-0.5,-0.2\n")
        flags = ["--data", str(data), "--y", "y", "--q", "q",
                 "--x", "x1,x2,x3", "--z", "x1,x2,x3,x4", "--tau", "0.0"]
        argv = {
            "estimate-crossfit": ["estimate", *flags, "--crossfit"],
            "bootstrap": ["bootstrap", *flags, "--b", "20"],
            "ite": ["ite", *flags, "--include-eta", "true",
                    "--model-out", str(tmp_path / "m.txt"), "--predict-grid", str(grid)],
        }.get(case, [])
        run = ("from threshmatch.cli import main; assert main(sys.argv[1:]) == 0" if argv else
               "from threshmatch import *; obs = generate(DgpConfig(n=3000, seed=5)); "
               "est = estimate_att(obs, split_three_way(obs.n, seed=5)); "
               "est.matches.reuse_counts(); bootstrap_att(obs, b=20, seed=1); "
               "fit_ite(obs, est, SplineBasisSpec(include_eta=True), cv_seed=2)")
        code = f"import sys; {run}; print('numpy.ma' in sys.modules, file=sys.stderr)"
        src = str(Path(__file__).parent.parent / "src")
        proc = subprocess.run([sys.executable, "-c", code, *argv],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.strip() == "False"

    def test_benchmark_wrap_points_exist(self, monkeypatch):
        # the benchmark's tracer patches functions by name; one that an API change
        # renames or removes would silently drop its per-layer metric
        import importlib.util

        import threshmatch.cli
        import threshmatch.ite

        path = Path(__file__).parent.parent / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
        spec.loader.exec_module(module)
        original = threshmatch.ite.fit_ite
        tracer = module.Tracer()
        tracer.install()
        try:
            assert tracer.missing == []
            assert threshmatch.cli.fit_ite is not original
        finally:
            tracer.restore()
        assert threshmatch.cli.fit_ite is original

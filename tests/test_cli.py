import csv
import dataclasses
import itertools
import json
import sys

import jsonschema
import numpy as np
import pytest

import sc_rateless.cli as cli
import sc_rateless.codec as codec
from sc_rateless import MonteCarloRow, SweepRow, __version__
from sc_rateless.cli import build_parser, main
from sc_rateless.codec import _wilson


def run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    code = main(list(argv) + ["--out", str(out)])
    return code, out.read_text(encoding="utf-8") if out.exists() else ""


def csv_records(text):
    """The column row and the data rows of a CLI CSV document, as lists."""
    return list(csv.reader(line for line in text.splitlines() if not line.startswith("# ")))


def parse_csv(text):
    header = dict(line[2:].split("=", 1) for line in text.splitlines() if line.startswith("# "))
    records = csv_records(text)
    columns = records[0] if records else None
    return header, columns, [dict(zip(columns, record)) for record in records[1:]]


ROW_SCHEMA = {
    "bounds": {
        "type": "object",
        "required": [
            "L", "spectral_radius", "rayleigh_lower", "norm_upper",
            "lower_bound_beta", "lower_bound_alpha", "limit_beta",
            "limit_alpha", "capacity_condition_holds", "stability_applies",
        ],
        "properties": {
            "L": {"type": "integer"},
            "spectral_radius": {"type": "number"},
            "capacity_condition_holds": {"type": "boolean"},
        },
    },
    "simulate": {
        "type": "object",
        "required": [
            "alpha", "n_symbols", "dimension", "success_rate", "wilson_low",
            "wilson_high", "mean_residual", "trials", "trial_errors",
        ],
        "properties": {
            "alpha": {"type": "number"},
            "trials": {"type": "integer"},
        },
    },
}

DOC_SCHEMA = {
    "type": "object",
    "required": ["spec", "rows"],
    "properties": {
        "spec": {"type": "object", "required": ["command", "version", "seed"]},
        "rows": {"type": "array"},
    },
}


class TestValidation:
    def test_invalid_dl_exits_2_with_message(self, tmp_path, capsys):
        code = main(["threshold", "--dl", "1", "--dg", "3", "--L", "8"])
        assert code == 2
        assert "dl" in capsys.readouterr().err

    def test_invalid_eps_exits_2(self, tmp_path):
        code, _ = run(tmp_path, "bounds", "--dg", "3", "--eps", "1.5", "--L", "8")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["threshold", "--L", "8"],
        ["sweep", "--L-grid", "4,8"],
        ["simulate", "--L", "4", "--M", "6", "--trials", "1", "--alpha", "0.5",
         "--zero-codeword"],
    ], ids=lambda argv: argv[0])
    def test_dg1_without_override_exits_2(self, tmp_path, capsys, monkeypatch, argv):
        import sc_rateless.density as density
        import sc_rateless.stability as stability

        def no_work(*args, **kwargs):
            raise AssertionError("a computation ran")

        for module, name in [(density, "de_run"), (density, "_probes"),
                             (stability, "threshold_lower_bounds"), (codec, "_run_trial")]:
            monkeypatch.setattr(module, name, no_work)
        code, text = run(tmp_path, *argv, "--dg", "1")
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err == (
            "error: dg = 1 cannot reach capacity and is refused by default; "
            "pass --allow-dg1 to compute it anyway\n")

    def test_nonpositive_design_rate_exits_2_before_any_trial(self, tmp_path, capsys,
                                                             monkeypatch):
        # Without --zero-codeword no trial reads the design rate, so the
        # refusal must come before the trials.
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(codec, "_run_trial", no_trial)
        code, text = run(tmp_path, "simulate", "--dg", "3", "--w", "3", "--L", "2",
                         "--M", "30", "--trials", "3", "--alpha", "0.5")
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err == (
            "error: design rate -0.111111 <= 0 for dl=2, dr=3, w=3, L=2\n")

    def test_bad_M_divisibility_exits_2(self, tmp_path):
        code, _ = run(
            tmp_path, "simulate", "--dg", "3", "--L", "4", "--M", "7",
            "--trials", "1", "--alpha", "0.5",
        )
        assert code == 2

    @pytest.mark.parametrize("alpha", ["-3", "nan"])
    def test_bad_alpha_exits_2_with_message(self, tmp_path, capsys, alpha):
        code, text = run(
            tmp_path, "simulate", "--dg", "3", "--L", "4", "--M", "6",
            "--trials", "2", "--alpha", alpha, "--zero-codeword",
        )
        assert code == 2
        assert text == ""
        assert "alpha must be finite and > -1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, field", [("--bisect-tol", "bisection_tol"),
                                             ("--fp-tol", "fixed_point_tol")])
    def test_nan_tolerance_exits_2_with_message(self, tmp_path, capsys, flag, field):
        code, text = run(tmp_path, "threshold", "--dg", "3", "--L", "8", flag, "nan")
        assert code == 2
        assert text == ""
        assert f"{field} must be > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["threshold", "sweep"])
    def test_bisect_tol_below_float_resolution_exits_2_before_any_probe(
            self, tmp_path, capsys, monkeypatch, command):
        import sc_rateless.density as density

        def no_probe(*args, **kwargs):
            raise AssertionError("a DE probe ran")

        monkeypatch.setattr(density, "de_run", no_probe)
        monkeypatch.setattr(density, "_probes", no_probe)
        L = ["--L", "8"] if command == "threshold" else ["--L-grid", "8"]
        code, text = run(tmp_path, command, "--dg", "3", *L, "--bisect-tol", "1e-18")
        assert code == 2
        assert text == ""
        assert "bisection_tol must be >= " in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--success-target", "2", "success_target must be > 0 and < 1, got 2.0"),
        ("--success-target", "inf", "success_target must be > 0 and < 1, got inf"),
        ("--fp-tol", "1", "fixed_point_tol must be > 0 and < 1, got 1.0"),
        ("--bisect-tol", "inf", "bisection_tol must be > 0 and finite, got inf"),
    ])
    def test_meaningless_tolerance_exits_2_before_any_probe(
            self, tmp_path, capsys, monkeypatch, flag, value, message):
        # A success target of 2 used to "decode" every probe at step 1 and
        # print alpha_star=0.0 with exit code 0.
        import sc_rateless.density as density

        def no_probe(*args, **kwargs):
            raise AssertionError("a DE probe ran")

        monkeypatch.setattr(density, "de_run", no_probe)
        monkeypatch.setattr(density, "_probes", no_probe)
        code, text = run(tmp_path, "threshold", "--dg", "3", "--L", "8", flag, value)
        assert code == 2
        assert text == ""
        assert f"error: {message}\n" == capsys.readouterr().err

    def test_unknown_flag_exits_2(self):
        assert main(["threshold", "--bogus"]) == 2

    @pytest.mark.parametrize("argv, code, out", [
        (["--version"], 0, f"{__version__}\n"),
        (["bounds", "--dg", "3", "--L", "0"], 2, ""),
    ], ids=["version", "invalid-L"])
    def test_entry_exits_with_main_code(self, monkeypatch, capsys, argv, code, out):
        monkeypatch.setattr(sys, "argv", ["sc-rateless", *argv])
        with pytest.raises(SystemExit) as exited:
            cli.entry()
        assert exited.value.code == code
        assert capsys.readouterr().out == out

    def test_allow_dg1_is_not_a_bounds_flag(self, tmp_path, capsys):
        # The stability report has no dg = 1 guard, so the flag has no use there.
        code, text = run(tmp_path, "bounds", "--dg", "3", "--L", "8", "--allow-dg1")
        assert code == 2
        assert text == ""
        assert "unrecognized arguments: --allow-dg1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["threshold", "--L", "8"],
        ["sweep", "--L-grid", "8"],
        ["simulate", "--L", "4", "--M", "6", "--trials", "1", "--alpha", "0.5"],
    ], ids=lambda argv: argv[0])
    def test_allow_dg1_reaches_the_commands_that_read_it(self, argv):
        args = build_parser().parse_args(argv + ["--dg", "1", "--allow-dg1"])
        assert args.allow_dg1 is True

    def test_computation_error_exits_3(self, tmp_path):
        # w = 1 never decodes from full erasure: bracket expansion exhausts.
        code, _ = run(
            tmp_path, "threshold", "--dg", "2", "--w", "1", "--L", "4",
            "--max-iter", "200",
        )
        assert code == 3

    def test_capped_expansion_probe_says_so(self, tmp_path, capsys):
        # The alpha = 10 probe is still decoding when it reaches the cap of 5.
        code, text = run(tmp_path, "threshold", "--dg", "3", "--L", "16", "--max-iter", "5")
        assert code == 3
        assert text == ""
        assert capsys.readouterr().err == (
            "error: density evolution fails up to alpha = 10 for EnsembleParams(dl=2, dr=3, "
            "dg=3, L=16, w=2, epsilon=0.5); the last probe hit the iteration cap of 5\n")

    def test_rising_bit_error_exits_3(self, tmp_path, monkeypatch, capsys):
        # Every DE run's second step jumps back to the all-ones state.
        import sc_rateless.density as density

        real_stepper = density._stepper

        def faulty_stepper(params, size):
            real_step = real_stepper(params, size)

            def faulty_step(neg_beta, x, out=None):
                # The lanes' sections follow w - 1 leading zeros, and each is
                # followed by w - 1 zeros of its own.
                lead, width = params.w - 1, params.L + params.w - 1
                if np.all(x[lead:lead + params.L] == 1.0):
                    return real_step(neg_beta, x, out)
                out[lead:].reshape(-1, width)[:, :params.L] = 1.0
                return out

            return faulty_step

        monkeypatch.setattr(density, "_stepper", faulty_stepper)
        code, _ = run(tmp_path, "threshold", "--dg", "3", "--L", "8")
        assert code == 3
        assert "P_b rose" in capsys.readouterr().err


class TestOut:
    @pytest.mark.parametrize("target, problem", [
        ("missing/x.csv", "no directory {tmp}/missing"),
        ("file/x.csv", "no directory {tmp}/file"),
        (".", "is a directory"),
        ("", "the path is empty"),
    ], ids=["missing-directory", "file-as-directory", "directory", "empty"])
    def test_unusable_out_exits_2_before_any_computation(self, tmp_path, capsys, monkeypatch,
                                                         target, problem):
        (tmp_path / "file").write_text("kept", encoding="utf-8")
        calls = []
        monkeypatch.setitem(cli._DISPATCH, "threshold", calls.append)
        # An empty --out names no file; it must not fall back to stdout.
        out = str(tmp_path / target) if target else ""
        code = main(["threshold", "--dg", "3", "--L", "8", "--out", out])
        assert code == 2
        assert calls == []
        problem = problem.format(tmp=tmp_path)
        assert capsys.readouterr().err == f"error: --out {out}: {problem}\n"
        assert (tmp_path / "file").read_text(encoding="utf-8") == "kept"

    def test_write_failure_exits_2_naming_the_path(self, tmp_path, capsys, monkeypatch):
        # The directory goes away while the command runs: the open fails
        # after the computation and is reported, not raised.
        out = tmp_path / "gone" / "x.csv"
        out.parent.mkdir()

        def command(args):
            out.parent.rmdir()
            return {"command": args.command}, [{"L": args.L}]

        monkeypatch.setitem(cli._DISPATCH, "threshold", command)
        code = main(["threshold", "--dg", "3", "--L", "8", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --out {out}: ")
        assert err.count("\n") == 1


class TestBounds:
    def test_row_content(self, tmp_path):
        code, text = run(tmp_path, "bounds", "--dg", "2", "--L", "64")
        assert code == 0
        header, columns, rows = parse_csv(text)
        assert header["version"] == __version__
        assert header["command"] == "bounds"
        assert len(rows) == 1
        row = rows[0]
        assert float(row["limit_alpha"]) == pytest.approx(0.0397207, abs=1e-6)
        assert float(row["limit_beta"]) == pytest.approx(1.3862944, abs=1e-6)
        assert row["capacity_condition_holds"] == "false"

    def test_json_matches_csv_values(self, tmp_path):
        code, csv_text = run(tmp_path, "bounds", "--dg", "3", "--L", "32")
        assert code == 0
        code, json_text = run(
            tmp_path, "bounds", "--dg", "3", "--L", "32", "--format", "json"
        )
        assert code == 0
        _, _, csv_rows = parse_csv(csv_text)
        doc = json.loads(json_text)
        jsonschema.validate(doc, DOC_SCHEMA)
        jsonschema.validate(doc["rows"][0], ROW_SCHEMA["bounds"])
        for key, value in doc["rows"][0].items():
            if isinstance(value, bool):
                assert csv_rows[0][key] == str(value).lower()
            elif isinstance(value, float):
                assert float(csv_rows[0][key]) == value
            else:
                assert csv_rows[0][key] == str(value)


class TestThreshold:
    def test_threshold_row(self, tmp_path):
        code, text = run(
            tmp_path, "threshold", "--dg", "3", "--L", "8", "--bisect-tol", "0.002"
        )
        assert code == 0
        header, columns, rows = parse_csv(text)
        assert columns == [
            "L", "alpha_star", "beta_star", "lower_bound_alpha",
            "lower_bound_beta", "iterations",
        ]
        row = rows[0]
        assert float(row["alpha_star"]) >= float(row["lower_bound_alpha"])
        assert float(row["beta_star"]) >= float(row["lower_bound_beta"])
        assert int(row["iterations"]) > 0
        assert header["bisection_tol"] == "0.002"

    def test_threshold_csv_is_recorded_output(self, tmp_path):
        code, text = run(
            tmp_path, "threshold", "--dg", "3", "--L", "8", "--bisect-tol", "0.002"
        )
        assert code == 0
        assert [line for line in text.splitlines() if not line.startswith("# version=")] == [
            "# command=threshold", "# dl=2", "# dr=3", "# dg=3", "# w=2", "# eps=0.5",
            "# seed=0", "# L=8", "# max_iterations=100000", "# fixed_point_tol=1e-12",
            "# success_target=1e-10", "# bisection_tol=0.002",
            "L,alpha_star,beta_star,lower_bound_alpha,lower_bound_beta,iterations",
            "8,0.3701171875,1.9790581597222225,0.0,1.4444444444444446,984",
        ]

    def test_columns_are_sweep_row_fields_without_error(self, tmp_path):
        # threshold prints one sweep row; a failed threshold exits instead of
        # filling ``error``.
        columns = [f.name for f in dataclasses.fields(SweepRow) if f.name != "error"]
        argv = ["threshold", "--dg", "3", "--L", "8", "--bisect-tol", "0.01"]
        code, text = run(tmp_path, *argv)
        assert code == 0
        assert parse_csv(text)[1] == columns
        code, text = run(tmp_path, *argv, "--format", "json")
        assert code == 0
        assert [sorted(row) for row in json.loads(text)["rows"]] == [sorted(columns)]


class TestSweep:
    def test_sweep_rows_and_error_column(self, tmp_path):
        code, text = run(
            tmp_path, "sweep", "--dg", "3", "--w", "5",
            "--L-grid", "8,1", "--bisect-tol", "0.005",
        )
        assert code == 0
        _, columns, rows = parse_csv(text)
        assert [int(r["L"]) for r in rows] == [1, 8]
        assert "rate" in rows[0]["error"]
        assert rows[1]["error"] == ""

    @pytest.mark.parametrize("argv, row", [
        (["--dg", "2", "--w", "1", "--L-grid", "4", "--max-iter", "200"],
         '3,4,nan,nan,0.039720770839917874,1.3862943611198906,0,"density evolution fails '
         'up to alpha = 10 for EnsembleParams(dl=2, dr=3, dg=2, L=4, w=1, epsilon=0.5)"'),
    ], ids=["no-success-in-bracket"])
    def test_error_row_keeps_its_lower_bounds(self, tmp_path, argv, row):
        # Recorded output: the bounds are computed before the bisection fails.
        code, text = run(tmp_path, "sweep", *argv)
        assert code == 0
        assert text.splitlines()[-2:] == [
            "dr,L,alpha_star,beta_star,lower_bound_alpha,lower_bound_beta,iterations,error",
            row,
        ]

    @pytest.mark.parametrize("argv, L, error", [
        (["--dg", "2", "--w", "1", "--L-grid", "4", "--max-iter", "200"], "4",
         "density evolution fails up to alpha = 10 for "
         "EnsembleParams(dl=2, dr=3, dg=2, L=4, w=1, epsilon=0.5)"),
        (["--dg", "3", "--w", "5", "--L-grid", "8,1", "--bisect-tol", "0.01"], "1",
         "design rate -1.26667 <= 0 for dl=2, dr=3, w=5, L=1"),
    ], ids=["no-success-in-bracket", "rate-not-positive"])
    def test_error_with_commas_stays_one_cell(self, tmp_path, argv, L, error):
        code, text = run(tmp_path, "sweep", *argv)
        assert code == 0
        records = csv_records(text)
        assert [len(record) for record in records] == [8] * len(records)
        _, _, rows = parse_csv(text)
        assert [row["error"] for row in rows if row["L"] == L] == [error]

    def test_dr_grid_parallel_matches_serial(self, tmp_path):
        argv = [
            "sweep", "--dg", "3", "--L-grid", "4,8",
            "--dr-grid", "3,4", "--bisect-tol", "0.005",
        ]
        code, serial = run(tmp_path, *argv)
        assert code == 0
        code, parallel = run(tmp_path, *argv, "--workers", "2")
        assert code == 0
        assert serial == parallel
        _, _, rows = parse_csv(serial)
        assert [(int(r["dr"]), int(r["L"])) for r in rows] == [
            (3, 4), (3, 8), (4, 4), (4, 8),
        ]

    @pytest.mark.parametrize("flag, grid, message", [
        ("--L-grid", "8,8", "repeats 8"),
        ("--L-grid", ",", "needs at least one value"),
        ("--dr-grid", "3,4,3", "repeats 3"),
        ("--dr-grid", "", "needs at least one value"),
        ("--L-grid", "8,,16", "has an empty item"),
        ("--L-grid", "8,", "has an empty item"),
        ("--dr-grid", ",4", "has an empty item"),
    ])
    def test_repeated_or_empty_grid_exits_2(self, tmp_path, capsys, flag, grid, message):
        argv = {"--L-grid": "8", flag: grid}
        code, text = run(tmp_path, "sweep", "--dg", "3", *itertools.chain(*argv.items()))
        assert code == 2
        assert text == ""
        assert f"argument {flag}: {message}" in capsys.readouterr().err

    def test_columns_are_sweep_row_fields(self, tmp_path):
        # SweepRow alone lists a row's columns: a field added to it reaches
        # both formats with no edit to the CLI.
        columns = ["dr"] + [f.name for f in dataclasses.fields(SweepRow)]
        argv = ["sweep", "--dg", "3", "--w", "5", "--L-grid", "8,1", "--bisect-tol", "0.01"]
        code, text = run(tmp_path, *argv)
        assert code == 0
        assert parse_csv(text)[1] == columns
        code, text = run(tmp_path, *argv, "--format", "json")
        assert code == 0
        rows = json.loads(text)["rows"]
        assert len(rows) == 2
        assert all(sorted(row) == sorted(columns) for row in rows)

    def test_dr_grid_ignores_invalid_dr(self, tmp_path):
        # --dr is replaced by the grid, so its default 3 may not pair with
        # --dl 3, and the header names no dr that never ran.
        code, text = run(
            tmp_path, "sweep", "--dg", "3", "--dl", "3", "--dr-grid", "6",
            "--L-grid", "4", "--bisect-tol", "0.01",
        )
        assert code == 0
        header, _, rows = parse_csv(text)
        assert ("dr" in header, header["dr_grid"]) == (False, "6")
        assert [(r["dr"], r["L"], r["error"]) for r in rows] == [("6", "4", "")]

    def test_dr_and_dr_grid_exclude_each_other(self, tmp_path, capsys):
        code, text = run(tmp_path, "sweep", "--dg", "3", "--dr", "5", "--dr-grid", "4",
                         "--L-grid", "8")
        assert code == 2
        assert text == ""
        assert "argument --dr-grid: not allowed with argument --dr" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, dr", [("--dr", "4"), ("--dr-grid", None)])
    def test_header_names_dr_only_without_a_grid(self, tmp_path, flag, dr):
        argv = ["sweep", "--dg", "3", "--L-grid", "4", "--bisect-tol", "0.01", flag, "4"]
        code, text = run(tmp_path, *argv)
        assert code == 0
        header, _, rows = parse_csv(text)
        assert (header.get("dr"), header["dr_grid"], rows[0]["dr"]) == (dr, "4", "4")
        code, text = run(tmp_path, *argv, "--format", "json")
        assert code == 0
        spec = json.loads(text)["spec"]
        assert (spec.get("dr"), spec["dr_grid"]) == (dr and int(dr), "4")

    def test_workers_below_one_exits_2(self, tmp_path, capsys):
        code, text = run(
            tmp_path, "sweep", "--dg", "3", "--L-grid", "4", "--workers", "-3",
            "--bisect-tol", "0.01",
        )
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err == "error: workers must be >= 1, got -3\n"


class TestSimulate:
    ARGS = [
        "simulate", "--dg", "3", "--L", "8", "--M", "12", "--trials", "5",
        "--alpha-grid", "0.3,0.6", "--seed", "42", "--zero-codeword",
    ]

    def test_deterministic_output(self, tmp_path):
        code, first = run(tmp_path, *self.ARGS)
        assert code == 0
        code, second = run(tmp_path, *self.ARGS)
        assert first == second

    def test_header_records_spec_and_seed(self, tmp_path):
        code, text = run(tmp_path, *self.ARGS)
        header, _, rows = parse_csv(text)
        assert header["seed"] == "42"
        assert header["M"] == "12"
        assert header["version"] == __version__
        assert len(rows) == 2

    def test_wilson_interval_brackets_rate(self, tmp_path):
        code, text = run(tmp_path, *self.ARGS, "--format", "json")
        doc = json.loads(text)
        jsonschema.validate(doc, DOC_SCHEMA)
        for row in doc["rows"]:
            jsonschema.validate(row, ROW_SCHEMA["simulate"])
            assert row["wilson_low"] <= row["success_rate"] <= row["wilson_high"]
            assert 0.0 <= row["wilson_low"] <= row["wilson_high"] <= 1.0

    def test_wilson_endpoints_exact(self):
        for n in range(1, 201):
            for k in range(n + 1):
                lo, hi = _wilson(k / n, n)
                assert 0.0 <= lo <= k / n <= hi <= 1.0, (k, n, lo, hi)
                if k == 0:
                    assert lo == 0.0, (n, lo)
                if k == n:
                    assert hi == 1.0, (n, hi)

    def test_failed_trials_reported_on_stderr(self, tmp_path, capsys):
        # At M = 3 most (2, 3) matchings cannot be conditioned.
        argv = [
            "simulate", "--dg", "3", "--L", "4", "--M", "3", "--trials", "10",
            "--alpha", "0.4", "--zero-codeword",
        ]
        code, text = run(tmp_path, *argv)
        assert code == 0
        _, _, rows = parse_csv(text)
        errors = int(rows[0]["trial_errors"])
        assert errors > 0
        assert errors + int(rows[0]["trials"]) == 10
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert f"{errors} of 10 trials" in err[0]
        assert "could not be conditioned at M = 3" in err[0]

    def test_no_stderr_without_failed_trials(self, tmp_path, capsys):
        code, _ = run(tmp_path, *self.ARGS)
        assert code == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("grid, message", [
        ("0.5,0.5", "repeats 0.5"),
        (",", "needs at least one value"),
        ("0.2,", "has an empty item"),
    ])
    def test_repeated_or_empty_alpha_grid_exits_2(self, tmp_path, capsys, grid, message):
        code, text = run(
            tmp_path, "simulate", "--dg", "3", "--L", "8", "--M", "12", "--trials", "3",
            "--alpha-grid", grid, "--zero-codeword",
        )
        assert code == 2
        assert text == ""
        assert f"argument --alpha-grid: {message}" in capsys.readouterr().err

    def test_stdout_when_no_out(self, capsys):
        code = main(["bounds", "--dg", "3", "--L", "8"])
        assert code == 0
        assert "lower_bound_beta" in capsys.readouterr().out

    def test_columns_are_monte_carlo_row_fields(self, tmp_path):
        # MonteCarloRow alone lists a row's columns: a field added to it
        # reaches both formats with no edit to the CLI.
        columns = [f.name for f in dataclasses.fields(MonteCarloRow)]
        code, text = run(tmp_path, *self.ARGS)
        assert code == 0
        assert parse_csv(text)[1] == columns
        code, text = run(tmp_path, *self.ARGS, "--format", "json")
        assert code == 0
        rows = json.loads(text)["rows"]
        assert len(rows) == 2
        assert all(sorted(row) == sorted(columns) for row in rows)

    # Every trial fails to condition at M = 3, seed 7 (values recorded
    # before MonteCarloRow carried the Wilson interval).
    ALL_FAILED = [
        "simulate", "--dg", "3", "--L", "4", "--M", "3", "--trials", "2",
        "--alpha", "0.4", "--seed", "7", "--zero-codeword",
    ]

    def test_all_failed_row_csv(self, tmp_path, capsys):
        code, text = run(tmp_path, *self.ALL_FAILED)
        assert code == 0
        assert text.splitlines()[-2:] == [
            "alpha,n_symbols,dimension,success_rate,wilson_low,wilson_high,"
            "mean_residual,trials,trial_errors",
            "0.4,nan,nan,nan,nan,nan,nan,0,2",
        ]
        assert "2 of 2 trials failed" in capsys.readouterr().err

    def test_all_failed_row_json(self, tmp_path):
        code, text = run(tmp_path, *self.ALL_FAILED, "--format", "json")
        assert code == 0
        assert json.loads(text)["rows"] == [{
            "alpha": 0.4, "n_symbols": None, "dimension": None, "success_rate": None,
            "wilson_low": None, "wilson_high": None, "mean_residual": None,
            "trials": 0, "trial_errors": 2,
        }]

    def test_overflowing_alpha_exits_2(self, tmp_path, capsys):
        code, text = run(
            tmp_path, "simulate", "--dg", "3", "--L", "4", "--M", "6", "--trials", "1",
            "--alpha", "1e308", "--zero-codeword",
        )
        assert code == 2
        assert text == ""
        err = capsys.readouterr().err
        assert err.startswith("error: alpha = 1e+308 overflows the symbol count")

    @pytest.mark.parametrize("alpha", ["1e12", "1e20"])
    def test_alpha_beyond_memory_exits_2(self, tmp_path, capsys, monkeypatch, alpha):
        # n = (1 + alpha)*L*M/(1 - eps) symbols cannot fit in any machine's
        # memory; the trial is patched out, so nothing is allocated either way.
        ran = []
        monkeypatch.setattr(codec, "_run_trial", lambda *args: ran.append(args))
        code, text = run(
            tmp_path, "simulate", "--dg", "3", "--L", "4", "--M", "6", "--trials", "1",
            "--alpha", alpha, "--zero-codeword",
        )
        assert code == 2
        assert text == ""
        assert ran == []
        err = capsys.readouterr().err
        assert err.startswith(f"error: alpha = {float(alpha)!r} overflows the symbol count: "
                              f"n = (1 + alpha)*L*M/(1 - eps) = {(1 + float(alpha)) * 48:.4g} ")

    def test_workers_below_one_exits_2(self, tmp_path, capsys):
        code, text = run(tmp_path, *self.ARGS, "--workers", "0")
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err == "error: workers must be >= 1, got 0\n"

"""Tests for the command-line front end: configs, CSV contract, exit codes."""

import csv
import dataclasses
import functools
import io
import json
import math
import os

import numpy as np
import pytest

from quadnet import cli, state_evolution
from quadnet.state_evolution import ProblemParams


def run_cli(argv, capsys):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def parse_csv(text):
    lines = text.splitlines()
    assert lines[0].startswith("# ")
    header = json.loads(lines[0][2:])
    rows = list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))
    return header, rows


class TestPlumbing:
    def test_header_carries_config_and_version(self, capsys):
        rc, out, _ = run_cli(
            ["se-curve", "--kappas", "0.5", "--alphas", "0.2"], capsys
        )
        assert rc == 0
        header, rows = parse_csv(out)
        assert header["version"]
        assert header["config"]["kappas"] == [0.5]
        assert header["config"]["alphas"] == [0.2]
        assert len(rows) == 1

    def test_empty_grid_is_usage_error(self, capsys):
        rc, _, err = run_cli(["se-curve", "--kappas", "0.5", "--alphas", ""], capsys)
        assert rc == 2
        assert "usage error" in err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"kappas": [0.5], "alphas": [0.2], "typo": 1}))
        rc, _, err = run_cli(["se-curve", "--config", str(cfg)], capsys)
        assert rc == 2
        assert "typo" in err

    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"kappas": [0.5], "alphas": [0.25], "delta": 0.5}))
        rc, out, _ = run_cli(
            ["se-curve", "--config", str(cfg), "--delta", "0.0625"], capsys
        )
        assert rc == 0
        header, rows = parse_csv(out)
        assert header["config"]["delta"] == 0.0625
        assert rows[0]["delta"] == "0.0625"

    def test_missing_required_params_usage_error(self, capsys):
        rc, _, err = run_cli(["gamp", "--alphas", "0.3"], capsys)
        assert rc == 2

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["se-curve", "--kappas", "0.5,1", "--alphas", "0.2,0.35"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_worker_pool_preserves_order_and_bytes(self, tmp_path):
        args = ["se-curve", "--kappas", "0.5,1", "--alphas", "0.2,0.3,0.4"]
        serial, pooled = tmp_path / "s.csv", tmp_path / "p.csv"
        assert cli.main(args + ["--out", str(serial)]) == 0
        assert cli.main(args + ["--threads", "3", "--out", str(pooled)]) == 0
        assert serial.read_bytes() == pooled.read_bytes()

    def test_thread_env_override_validated(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.THREADS_ENV, "not-a-number")
        rc, _, err = run_cli(["se-curve", "--kappas", "0.5", "--alphas", "0.2"], capsys)
        assert rc == 2
        assert cli.THREADS_ENV in err


class TestSeCurve:
    def test_columns_and_values(self, capsys):
        rc, out, _ = run_cli(
            ["se-curve", "--kappas", "0.5", "--alphas", "0.2,0.45"], capsys
        )
        assert rc == 0
        _, rows = parse_csv(out)
        assert list(rows[0]) == ["alpha", "kappa", "delta", "mmse", "q", "q_hat"]
        assert float(rows[0]["mmse"]) == pytest.approx(0.3922, abs=1e-3)
        assert float(rows[1]["mmse"]) == 0.0  # above the recovery threshold

    def test_noisy_curve_monotone_no_zero(self, capsys):
        rc, out, _ = run_cli(
            ["se-curve", "--kappas", "0.5", "--delta", "0.0625",
             "--alpha-min", "0.1", "--alpha-max", "0.9", "--alpha-steps", "9"],
            capsys,
        )
        assert rc == 0
        _, rows = parse_csv(out)
        vals = [float(r["mmse"]) for r in rows]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert all(v > 0 for v in vals)


class TestPhaseDiagram:
    def test_grid_and_overlay(self, capsys):
        rc, out, _ = run_cli(
            ["phase-diagram", "--kappas", "0.5,1", "--alphas", "0.2,0.4"], capsys
        )
        assert rc == 0
        _, rows = parse_csv(out)
        assert len(rows) == 4
        by_kappa = {float(r["kappa"]): float(r["alpha_pr"]) for r in rows}
        assert by_kappa[0.5] == pytest.approx(0.375)
        assert by_kappa[1.0] == pytest.approx(0.5)

    def test_mmse_monotone_in_alpha_per_kappa(self, capsys):
        rc, out, _ = run_cli(
            ["phase-diagram", "--kappas", "0.5",
             "--alpha-min", "0.1", "--alpha-max", "0.3", "--alpha-steps", "3"],
            capsys,
        )
        _, rows = parse_csv(out)
        vals = [float(r["mmse"]) for r in rows]
        assert vals == sorted(vals, reverse=True)


class TestGamp:
    def test_single_seed_smoke(self, capsys):
        rc, out, _ = run_cli(
            ["gamp", "--d", "50", "--kappa", "0.5", "--alphas", "0.3",
             "--n-seeds", "1", "--max-iter", "8"],
            capsys,
        )
        assert rc == 0
        header, rows = parse_csv(out)
        assert len(rows) == 1
        row = rows[0]
        assert float(row["mse"]) > 0
        assert float(row["se_mmse"]) == pytest.approx(0.1281, abs=1e-3)
        assert row["failed"] == "0"
        assert header["config"]["seeds"] == [0]

    def test_seed_grid_shape_and_stats(self, capsys):
        rc, out, _ = run_cli(
            ["gamp", "--d", "40", "--kappa", "0.5", "--alphas", "0.25,0.35",
             "--n-seeds", "2", "--max-iter", "6", "--seed", "5"],
            capsys,
        )
        assert rc == 0
        _, rows = parse_csv(out)
        assert len(rows) == 4
        cell = [r for r in rows if r["alpha"] == "0.25"]
        mean = np.mean([float(r["mse"]) for r in cell])
        assert float(cell[0]["mse_mean"]) == pytest.approx(mean, rel=1e-9)
        assert cell[0]["mse_stderr"] == cell[1]["mse_stderr"]

    def test_key_columns_formatted_like_other_commands(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"d": 20, "kappa": 0.5, "alpha_min": 0.2, "alpha_max": 0.4,
                                   "alpha_steps": 3, "n_seeds": 1, "max_iter": 2}))
        rc, out, _ = run_cli(["gamp", "--config", str(cfg)], capsys)
        assert rc == 0
        _, rows = parse_csv(out)
        assert [(r["alpha"], r["kappa"], r["delta"]) for r in rows] == [
            ("0.2", "0.5", "0"), ("0.3", "0.5", "0"), ("0.4", "0.5", "0")]


class TestDenoiseMc:
    def test_mc_close_to_theory_small_d(self, capsys):
        rc, out, _ = run_cli(
            ["denoise-mc", "--kappas", "0.5", "--deltas", "0.5",
             "--d", "100", "--reps", "4"],
            capsys,
        )
        assert rc == 0
        _, rows = parse_csv(out)
        row = rows[0]
        assert float(row["forms_gap"]) < 1e-4
        # d=100 finite-size bias is a few percent; loose sanity band
        assert float(row["mc_mse"]) == pytest.approx(float(row["f_rie"]), rel=0.1)

    def test_nonpositive_delta_usage_error(self, capsys):
        rc, _, err = run_cli(
            ["denoise-mc", "--kappas", "0.5", "--deltas", "0"], capsys
        )
        assert rc == 2


class TestGdCommands:
    def test_gd_single_seed_smoke(self, capsys):
        rc, out, _ = run_cli(
            ["gd", "--d", "30", "--kappa", "0.5", "--alphas", "0.3",
             "--max-steps", "300", "--reps", "1"],
            capsys,
        )
        assert rc == 0
        _, rows = parse_csv(out)
        row = rows[0]
        assert float(row["gd_mse"]) > 0
        assert row["agd_mse"] == "nan"  # n_inits=1: no averaging columns
        assert int(row["steps"]) <= 300

    def test_gd_with_inits_fills_agd_columns(self, capsys):
        rc, out, _ = run_cli(
            ["gd", "--d", "30", "--kappa", "0.5", "--alphas", "0.3",
             "--max-steps", "200", "--n-inits", "2"],
            capsys,
        )
        assert rc == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["agd_mse"]) > 0
        assert float(rows[0]["dispersion"]) >= 0

    def test_gd_scan_not_reached_is_numerical_failure(self, capsys):
        # far-subcritical noiseless grid at a tiny budget: dispersion stays high
        rc, _, err = run_cli(
            ["gd-scan", "--d", "30", "--kappa", "0.5", "--alphas", "0.1",
             "--n-inits", "2", "--max-steps", "150"],
            capsys,
        )
        assert rc == 1
        assert "numerical failure" in err

    def test_gd_scan_single_point_above_threshold(self, capsys):
        # l2 regularization trivializes the landscape cheaply at small d
        rc, out, _ = run_cli(
            ["gd-scan", "--d", "30", "--kappa", "0.5", "--delta", "0.0625",
             "--alphas", "0.5", "--n-inits", "2", "--l2", "0.3",
             "--max-steps", "40000"],
            capsys,
        )
        assert rc == 0
        header, rows = parse_csv(out)
        assert header["config"]["alpha_t_abs"] == 0.5
        assert rows[0]["below_abs"] == "1"

    def test_gd_scan_pool_writes_the_same_csv(self, tmp_path):
        # each (alpha, dataset) run is a pool cell; the CSV does not depend
        # on the pool size
        args = ["gd-scan", "--d", "20", "--kappa", "0.5", "--delta", "0.0625",
                "--alphas", "0.4,0.5", "--n-datasets", "2", "--n-inits", "2", "--l2", "0.3",
                "--max-steps", "3000"]
        serial, pooled = tmp_path / "serial.csv", tmp_path / "pooled.csv"
        assert cli.main(args + ["--threads", "1", "--out", str(serial)]) == 0
        assert cli.main(args + ["--threads", "2", "--out", str(pooled)]) == 0
        assert pooled.read_bytes() == serial.read_bytes()

    def test_gd_scan_failed_run_writes_no_csv(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        rc, _, err = run_cli(
            ["gd-scan", "--d", "30", "--kappa", "0.5", "--alphas", "0.3,0.4",
             "--n-inits", "2", "--learning-rate", "100", "--max-steps", "50",
             "--threads", "2", "--out", str(out)],
            capsys,
        )
        assert rc == 1
        assert "Diverged" in err and "numerical failure: 2 of 2 scan runs failed" in err
        assert not out.exists()


class TestDeclarativeConfig:
    @pytest.mark.parametrize("name", sorted(cli.COMMANDS))
    def test_flags_are_the_accepted_config_keys(self, name, tmp_path, capsys):
        namespace = vars(cli.build_parser().parse_args([name]))
        dests = set(namespace) - {"config", "func", "command"}
        assert dests == {f.name for f in dataclasses.fields(cli.COMMANDS[name])}
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({key: None for key in dests}))
        rc, _, err = run_cli([name, "--config", str(cfg)], capsys)
        assert rc == 2
        assert "unknown config keys" not in err


FAILING_CELL = [
    pytest.param(["phase-diagram", "--kappas", "0.5,1", "--alphas", "0.2,0.3"],
                 ("mmse", "q", "q_hat", "alpha_pr"), id="phase-diagram"),
    pytest.param(["gamp", "--d", "20", "--kappa", "1", "--alphas", "0.2,0.3",
                  "--n-seeds", "1", "--max-iter", "2"],
                 ("mse", "se_mmse", "mse_mean", "mse_stderr", "iters", "converged"), id="gamp"),
    pytest.param(["gd", "--d", "20", "--kappa", "1", "--alphas", "0.2,0.3",
                  "--max-steps", "20"],
                 ("gd_mse", "agd_mse", "dispersion", "mmse", "final_loss", "steps"), id="gd"),
]


class TestFailedCell:
    @pytest.mark.parametrize("argv,value_columns", FAILING_CELL)
    def test_nan_row_reason_and_exit_1(self, argv, value_columns, capsys, monkeypatch):
        rc, clean, _ = run_cli(argv, capsys)
        assert rc == 0
        solve_qhat = cli.solve_qhat

        def fails_at_one_cell(params, **kwargs):
            if (params.alpha, params.kappa) == (0.3, 1.0):
                raise state_evolution.NoConvergence("injected")
            return solve_qhat(params, **kwargs)

        monkeypatch.setattr(cli, "solve_qhat", fails_at_one_cell)
        rc, out, err = run_cli(argv, capsys)
        assert rc == 1
        assert "Traceback" not in err
        assert "alpha=0.3" in err and "NoConvergence: injected" in err
        _, rows = parse_csv(out)
        assert len(rows) == len(parse_csv(clean)[1]) == (4 if argv[0] == "phase-diagram" else 2)
        lines, clean_lines = out.splitlines(), clean.splitlines()
        assert lines[:2] == clean_lines[:2]
        for row, line, clean_line in zip(rows, lines[2:], clean_lines[2:]):
            if (row["alpha"], row["kappa"]) in (("0.3", "1"), ("0.3", "1.0")):
                assert all(row[c] == "nan" for c in value_columns)
                assert row.get("failed", "1") == "1"
            else:
                assert line == clean_line


def _fixed_point(alpha, kappa, with_free_entropy):
    fp = state_evolution.solve_qhat(ProblemParams(alpha=alpha, kappa=kappa),
                                    with_free_entropy=with_free_entropy)
    return fp.mmse, fp.free_entropy, fp.status


class TestRunner:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_failures_are_kept_in_order(self, threads, capsys):
        keys = [
            {"alpha": 0.2, "kappa": 0.5},
            {"alpha": 0.45, "kappa": 0.5},
            # quadrature noise amplified by 1/alpha trips the overlap range
            # check at such extreme sample ratios
            {"alpha": 1e-6, "kappa": 0.5},
        ]
        cell = functools.partial(_fixed_point, with_free_entropy=False)
        values, failed = cli._run_cells(cell, keys, 3, threads)
        assert failed == [False, False, True]
        assert values[0][2] == "converged"
        assert values[1][2] == "supercritical"
        assert all(math.isnan(v) for v in values[2])
        assert math.isnan(values[0][1])
        assert "cell alpha=1e-06 kappa=0.5: " in capsys.readouterr().err

    def test_free_entropy_computed_when_requested(self):
        cell = functools.partial(_fixed_point, with_free_entropy=True)
        values, failed = cli._run_cells(cell, [{"alpha": 0.2, "kappa": 0.5}], 3, 1)
        assert failed == [False]
        assert np.isfinite(values[0][1])

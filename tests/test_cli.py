"""Command-line surface: exit codes, serialization, config/seed precedence."""

import csv
import io
import json
import math
import os

import numpy as np
import pytest

from qdistill import cli


def run_json(argv, capsys):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# ------------------------------------------------------------------ plumbing

def test_no_arguments_is_usage_error(capsys):
    assert cli.run([]) == 2


def test_unknown_command_is_usage_error(capsys):
    assert cli.run(["frobnicate"]) == 2


def test_json_serializer_17_digits():
    buf = io.StringIO()
    cli.emit_json({"x": 2 / 3, "nested": [1, True, None, float("nan"),
                                          float("inf")]}, buf)
    text = buf.getvalue()
    assert "0.66666666666666663" in text
    assert "NaN" in text and "Infinity" in text
    # float round-trips exactly
    assert json.loads(text.replace("NaN", "null"))["x"] == 2 / 3


def test_parse_noise_strings():
    m = cli.parse_noise("white:0.97")
    assert type(m).__name__ == "SingleQubitWhiteNoise"
    m = cli.parse_noise("corr2:0.9")
    assert type(m).__name__ == "TwoQubitCorrelatedNoise"
    with pytest.raises(ValueError):
        cli.parse_noise("white")
    with pytest.raises(ValueError):
        cli.parse_noise("mauve:0.5")


# --------------------------------------------------------------- fixed-point

def test_fixed_point_dejmps_white(capsys):
    code, doc = run_json(
        ["fixed-point", "--protocol", "dejmps", "--noise", "white:0.99"],
        capsys)
    assert code == 0
    assert doc["location"][0] == pytest.approx(0.9929341423481515, abs=1e-10)
    assert doc["attracting"] is True
    assert doc["lambda_max"] == pytest.approx(0.146330620788, abs=1e-9)
    assert doc["noise"] == {"kind": "white", "parameter": 0.99}


def test_fixed_point_nonconvergence_exit_code(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.run(["fixed-point", "--protocol", "binary",
                    "--noise", "binary:0.7501", "--out", str(out)])
    capsys.readouterr()
    assert code == 3
    doc = json.loads(out.read_text())
    assert doc["attracting"] is None      # report still written


def test_fixed_point_validation_exit_codes(capsys):
    assert cli.run(["fixed-point", "--protocol", "dejmps",
                    "--noise", "white:2.0"]) == 2
    assert cli.run(["fixed-point", "--protocol", "dejmps",
                    "--noise", "binary:0.9"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------- scan

def test_scan_bbpssw_csv(capsys):
    code = cli.run(["scan", "--protocol", "bbpssw",
                    "--noise-grid", "0.97:0.99:0.01", "--emit", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["f"] for r in rows][:2] == ["0.96999999999999997",
                                          "0.97499999999999998"] or len(rows) >= 2
    first = rows[0]
    assert float(first["p_fixed"]) == pytest.approx(0.92918803099, abs=1e-9)
    assert float(first["slope"]) < 1.0


def test_scan_binary_json(capsys):
    code, doc = run_json(
        ["scan", "--protocol", "binary", "--noise-grid", "0.9:0.95:0.05",
         "--emit", "json"], capsys)
    assert code == 0
    assert doc["columns"] == ["f0", "p00_fixed", "lambda_max"]
    first = dict(zip(doc["columns"], doc["rows"][0]))
    assert first["p00_fixed"] == pytest.approx(0.9841229182759271, abs=1e-12)
    assert first["lambda_max"] == pytest.approx(-0.2535787471033311, abs=1e-9)


# -------------------------------------------------------------------- bounds

def test_bounds_robustness_report(capsys):
    code, doc = run_json(
        ["bounds", "--chain", "robustness", "--beta", "0.98",
         "--f-min", "0.52", "--k", "1e6", "--M", "5", "--xi", "20"], capsys)
    assert code == 0
    assert doc["bound_name"] == "robustness"
    assert doc["value"] == pytest.approx(0.8580224726057945, rel=1e-12)
    assert doc["inputs"]["margin"] == pytest.approx(-0.14, abs=1e-12)
    assert doc["vacuous_flag"] is False
    assert doc["chain_terms"][-1] == pytest.approx(math.exp(-20), rel=1e-12)


def test_bounds_pair_budget(capsys):
    code, doc = run_json(
        ["bounds", "--chain", "pair-budget", "--M", "3", "--xi", "5"],
        capsys)
    assert code == 0
    assert doc["c"] == 160
    assert doc["distillation_pairs"] == 1280
    assert doc["k_exact"] == pytest.approx(1316.2805813256298, abs=1e-9)
    assert doc["k_ceil"] == 1317


def test_bounds_crossing_gap_decimal(capsys):
    code, doc = run_json(
        ["bounds", "--chain", "crossing-gap",
         "--f0", "0.9999999999999999999"], capsys)   # 1 - 1e-19
    assert code == 0
    assert doc["gap_bits"] == pytest.approx(0.5291584507149711, abs=1e-10)
    assert doc["nontrivial"] is True


def test_bounds_crossing_gap_below_domain(capsys):
    assert cli.run(["bounds", "--chain", "crossing-gap",
                    "--f0", "0.5"]) == 2
    capsys.readouterr()


def test_bounds_definetti(capsys):
    code, doc = run_json(
        ["bounds", "--chain", "definetti", "--n", "1000000", "--k", "1000",
         "--epsP", "0.0001"], capsys)
    assert code == 0
    assert doc["value"] == pytest.approx(142829.2225, rel=1e-12)


# ------------------------------------------------------------ steering-audit

def test_steering_audit_summary(capsys):
    code, doc = run_json(
        ["steering-audit", "--states", "4", "--seed", "7"], capsys)
    assert code == 0
    assert doc["summary"]["count"] == 8       # random + product batches
    assert doc["summary"]["violations"] == 0
    assert doc["summary"]["t_inverse_norm"] == 16.0
    assert doc["summary"]["constant"] == 65536
    assert all(a["slack"] >= 0 for a in doc["audits"])


# ---------------------------------------------------------------- montecarlo

def test_montecarlo_aggregate_json(capsys):
    code, doc = run_json(
        ["montecarlo", "--beta", "0.98", "--noise", "corr2:0.99",
         "--n-pairs", "4096", "--rounds", "3", "--f-min", "auto",
         "--trials", "150", "--seed", "11"], capsys)
    assert code == 0
    assert doc["trials"] == 150
    assert doc["abort_rate"] <= doc["ci"][1]
    assert doc["bound"]["xi"] == pytest.approx(
        (4096 - 64) / 2 ** 8, abs=1e-12)
    assert doc["seed"] == 11
    assert len(doc["config_hash"]) == 64
    assert doc["meta"]["config"]["noise"] == {"kind": "corr2",
                                              "parameter": 0.99}


def test_montecarlo_csv_per_trial(tmp_path, capsys):
    out = tmp_path / "trials.csv"
    code = cli.run(
        ["montecarlo", "--beta", "0.98", "--noise", "corr2:0.99",
         "--n-pairs", "4096", "--rounds", "2", "--f-min", "auto",
         "--trials", "120", "--seed", "11", "--emit", "csv",
         "--out", str(out)])
    agg = json.loads(capsys.readouterr().out)
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 120
    assert {"trial", "flag", "abort_stage", "rounds_completed",
            "fidelity_estimate", "final_pairs"} <= set(rows[0])
    measured = sum(r["flag"] != "ok" for r in rows) / 120
    assert measured == pytest.approx(agg["abort_rate"], abs=1e-12)


def test_montecarlo_f_min_auto_requires_corr2(capsys):
    assert cli.run(
        ["montecarlo", "--beta", "0.98", "--noise", "white:0.99",
         "--n-pairs", "4096", "--rounds", "2", "--f-min", "auto",
         "--trials", "120"]) == 2
    capsys.readouterr()


# -------------------------------------------------------- config file / seed

def write_ini(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[run]\nseed = 42\n"
        "[noise]\nkind = corr2\nparameter = 0.99\n"
        "[montecarlo]\nbeta = 0.98\nn_pairs = 4096\nrounds = 2\n"
        "f_min = auto\ntrials = 120\n")
    return ini


def test_config_file_supplies_everything(tmp_path, capsys):
    ini = write_ini(tmp_path)
    code, doc = run_json(["montecarlo", "--config", str(ini)], capsys)
    assert code == 0
    assert doc["seed"] == 42
    assert doc["trials"] == 120


def test_seed_precedence_env_overrides_config(tmp_path, capsys,
                                              monkeypatch):
    ini = write_ini(tmp_path)
    monkeypatch.setenv("DISTILL_SEED", "777")
    code, doc = run_json(["montecarlo", "--config", str(ini)], capsys)
    assert code == 0
    assert doc["seed"] == 777


def test_seed_precedence_flag_overrides_env(tmp_path, capsys, monkeypatch):
    ini = write_ini(tmp_path)
    monkeypatch.setenv("DISTILL_SEED", "777")
    code, doc = run_json(
        ["montecarlo", "--config", str(ini), "--seed", "5"], capsys)
    assert code == 0
    assert doc["seed"] == 5


def test_missing_config_file_is_validation_error(capsys):
    assert cli.run(["montecarlo", "--config", "/nonexistent/x.ini"]) == 2
    capsys.readouterr()


def test_unwritable_output_path(capsys):
    assert cli.run(["fixed-point", "--protocol", "dejmps",
                    "--noise", "white:0.99",
                    "--out", "/nonexistent-dir/report.json"]) == 2
    capsys.readouterr()


# --------------------------------------------------------------------- trace

def test_trace_csv_round_zero_is_input(capsys):
    code = cli.run(["trace", "--protocol", "dejmps", "--noise", "white:0.99",
                    "--rounds", "3"])
    out = capsys.readouterr().out
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "round"
    assert rows[1][0] == "0"
    assert float(rows[1][1]) == pytest.approx(0.9)
    assert len(rows) == 5


@pytest.mark.parametrize("p0", ["nan,0,0,0", "inf,0,0,0", "-0.5,1,0,0.5",
                                "0,0,0,0"])
def test_trace_p0_must_be_a_finite_nonnegative_weight(p0, capsys):
    code = cli.run(["trace", "--protocol", "dejmps", "--noise", "white:0.99",
                    "--rounds", "1", f"--p0={p0}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert "--p0" in captured.err


def test_every_figure_emits_rows(capsys):
    for name in cli.FIGURE_NAMES:
        code = cli.run(["trace", "--figure", name])
        out = capsys.readouterr().out
        assert code == 0, name
        rows = out.strip().splitlines()
        assert rows[0].startswith("# " + name), name    # captioned preamble
        assert len(rows) >= 4, name          # caption, header, data
        assert "," in rows[1], name
        ncols = rows[1].count(",")
        assert all(r.count(",") == ncols for r in rows[2:]), name


def test_figure_names_are_the_published_set():
    assert cli.FIGURE_NAMES == (
        "dejmps-convergence", "lambda-max", "p0000-fixed",
        "bbpssw-convergence", "discriminant", "gfix",
        "worstcase-attractivity", "binary-postselect")

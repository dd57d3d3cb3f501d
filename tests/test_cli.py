"""Command-line surface: exit codes, serialization, config/seed precedence."""

import argparse
import contextlib
import csv
import dataclasses
import enum
import io
import json
import math
import os
import pathlib
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
import sympy

from qdistill import cli
from qdistill import fixed_point as fp
from qdistill import noise_models as nm
from qdistill import recurrence as rc
from qdistill import security_bounds as sb
from qdistill.quantum_core import BellDiagonalState

from conftest import STREAM_CELLS, campaign


def test_import_leaves_numpy_random_unloaded():
    # importing numpy.random costs ~2.5 MB and start-up time, which the
    # subcommands that draw nothing (scan, fixed-point, bounds) should not pay
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", "import sys, qdistill.cli; "
         "print('numpy.random' in sys.modules)"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def run_json(argv, capsys):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# ------------------------------------------------------------------ plumbing

def test_no_arguments_is_usage_error(capsys):
    assert cli.run([]) == 2


def test_unknown_command_is_usage_error(capsys):
    assert cli.run(["frobnicate"]) == 2


def reference_run(argv):
    """The reference parse: the whole request through a fresh top-level
    parser, then run()'s dispatch."""
    try:
        args = cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return cli._dispatch(args)


FP = ["fixed-point", "--protocol", "dejmps", "--noise", "white:0.99"]
MC = ["--beta", "0.9", "--noise", "corr2:0.99", "--rounds", "1",
      "--f-min", "0.5", "--trials", "100"]

PARSE_CASES = {
    "no-command": [],
    "help": ["-h"],
    "help-before-command": ["--help", "montecarlo"],
    "unknown-option": ["--version"],
    "unknown-command": ["frobnicate", "--x"],
    "command-prefix": ["monte"],
    "separator-first": ["--", "bounds", "--chain", "leak", "--eps", "0.1"],
    "subcommand-help": ["montecarlo", "-h"],
    "valid": FP,
    "trailing-positional": FP + ["extra"],
    "leftover-option": FP + ["--bogus", "1"],
    "leftovers-after-separator": ["bounds", "--chain", "leak", "--eps", "0.1",
                                  "--", "x"],
    "missing-required": ["fixed-point"],
    "invalid-choice": ["fixed-point", "--protocol", "quux"],
    "invalid-int": ["steering-audit", "--states", "x"],
    "abbreviation": ["montecarlo", "--n-p", "256"] + MC,
    "ambiguous-abbreviation": ["montecarlo", "--n", "256"] + MC,
    "flag-equals-value": ["montecarlo", "--n-pairs=256", "--beta=0.9",
                          "--noise=corr2:0.99", "--rounds=1", "--f-min=0.5",
                          "--trials=100"],
    "validation-error": ["montecarlo", "--n-pairs", "256"] + MC + [
        "--delta", "nan"],
}


@pytest.mark.parametrize("argv", PARSE_CASES.values(), ids=PARSE_CASES)
def test_run_parses_like_the_top_level_parser(argv, capsys):
    # same exit code, stdout and stderr, help and usage errors included
    got = cli.run(argv), *capsys.readouterr()
    want = reference_run(argv), *capsys.readouterr()
    assert got == want


#: One request of each shape the benchmark workloads send.
WORKLOAD_SHAPES = {
    "montecarlo-json": ["montecarlo", "--n-pairs", "16384", "--beta", "0.98",
                        "--noise", "corr2:0.99", "--rounds", "4", "--f-min",
                        "auto", "--trials", "100", "--seed",
                        str(2 ** 64 - 1), "--emit", "json"],
    "montecarlo-csv": ["montecarlo", "--n-pairs", "256", "--beta", "0.6",
                       "--noise", "corr2:0.99", "--rounds", "4", "--f-min",
                       "auto", "--trials", "100", "--seed",
                       str(2 ** 63 + 5), "--emit", "csv"],
    "scan": ["scan", "--protocol", "dejmps", "--noise-kind", "corr2",
             "--noise-grid", "0.85:0.87:0.01", "--emit", "json"],
    "fixed-point": ["fixed-point", "--protocol", "dejmps",
                    "--noise", "white:0.9"],
    "steering-audit": ["steering-audit", "--states", "2",
                       "--seed", str(2 ** 64 - 2)],
}


@pytest.mark.parametrize("argv", WORKLOAD_SHAPES.values(),
                         ids=WORKLOAD_SHAPES)
def test_workload_requests_are_read_without_argparse(argv, monkeypatch,
                                                      capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("argparse parsed a plain request")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse)
    assert cli.run(argv) == 0
    capsys.readouterr()


#: Values the fuzzed requests try on every flag: numbers good and bad,
#: NaN, negative numbers, choices of some subcommand, tokens argparse
#: reads as flags.
FUZZ_VALUES = ["1", "0.5", "256", str(2 ** 64), "nan", "NaN", "inf", "-1",
               "-0.5", "-nan", "x", "", " 7", "1e400", "1_0", "auto", "json",
               "csv", "dejmps", "bbpssw", "binary", "white", "corr2",
               "white:0.9", "leak", "gfix", "0.9:0.92:0.01", "--", "-h",
               "--seed", "extra"]


#: Values a flag of each type accepts.
GOOD_VALUES = {int: ["1", "256", str(2 ** 64)],
               float: ["0.5", "nan", "1e-3", "inf"]}


def fuzzed_request(rng, grammar):
    """A request to a random subcommand of ``grammar`` (or a misspelt one):
    mostly full flags with values, most of them valid, mixed with
    abbreviated and ``=`` flags, flags without values, repeats, ``--`` and
    ``-h``."""
    name = rng.choice(list(grammar) + ["monte", "frobnicate"])
    argv = [name]
    if name not in grammar:
        return argv + rng.choice([[], ["--seed", "1"], ["-h"]])
    flags = grammar[name][1]
    picks = [rng.choice(list(flags)) for _ in range(rng.randrange(6))]
    if rng.random() < 0.5:
        picks[:0] = [f for f, spec in flags.items()
                     if spec.default is cli.REQUIRED]
    for flag in picks:
        spec = flags[flag]
        if rng.random() < 0.2:
            value = rng.choice(FUZZ_VALUES)
        elif spec.choices:
            value = rng.choice(list(spec.choices))
        else:
            value = rng.choice(GOOD_VALUES.get(spec.type, ["white:0.9"]))
        form = rng.random()
        if spec.type is bool and form < 0.85:     # a store_true flag
            argv.append(flag)
        elif form < 0.85:
            argv += [flag, value]
        elif form < 0.89:
            argv += [flag[:-1], value]
        elif form < 0.93:
            argv.append(f"{flag}={value}")
        elif form < 0.96:
            argv.append(flag)
        else:
            argv.append(rng.choice(["-h", "--", "extra", value]))
    if rng.random() < 0.2 and len(argv) > 2:     # a repeat
        argv += argv[1:3]
    return argv


def reference_namespace(parser, argv):
    """``parser.parse_args(argv)`` with every value as its repr, so that
    NaN equals NaN and 1 differs from 1.0; None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            return None
    return {k: repr(v) for k, v in vars(args).items()}


def test_grammar_defaults_need_no_conversion():
    # the resolution pass copies a default as it is, where a flag's value
    # or config option goes through its conversion, so each default must
    # already be a value of its flag's type
    for command, (_help, flags, _run) in cli._GRAMMAR.items():
        for flag, spec in flags.items():
            assert (spec.default is None or spec.default is cli.REQUIRED
                    or type(spec.default) is spec.type), (command, flag)


#: The required flags of each subcommand, and no other.
BARE = {"fixed-point": ["--protocol", "dejmps"],
        "scan": ["--protocol", "bbpssw", "--noise-grid", "0.9:1:0.1"],
        "bounds": ["--chain", "leak"], "steering-audit": [],
        "montecarlo": [], "trace": []}


@pytest.mark.parametrize("command", BARE)
def test_parsers_apply_no_default(command):
    # a parsed request tells a flag that was given from one that was not
    argv = [command] + BARE[command]
    for args in (cli.build_parser().parse_args(argv), cli._plain_parse(argv)):
        for flag, spec in cli._GRAMMAR[command][1].items():
            if flag not in argv:
                want = False if spec.type is bool else None
                assert getattr(args, flag[2:].replace("-", "_")) is want


def test_cli_reads_no_private_argparse_attribute():
    # the grammar is cli's own table; argparse's internals stay out of it
    source = pathlib.Path(cli.__file__).read_text()
    for name in ("argparse._", "._actions", "._get_value", "._registry_get",
                 "._defaults", "._mutually_exclusive_groups",
                 "._get_positional_actions"):
        assert name not in source, name


def test_option_table_declines_or_parses_like_argparse():
    rng = random.Random(36)
    parser = cli.build_parser()
    taken = declined = 0
    for _ in range(3000):
        argv = fuzzed_request(rng, cli._GRAMMAR)
        want = reference_namespace(parser, argv)
        got = cli._plain_parse(argv)
        if got is None:
            declined += want is not None
        else:
            taken += 1
            assert {k: repr(v) for k, v in vars(got).items()} == want, argv
    # both paths are reached: the table path, and argparse on requests it
    # accepts in a form the table does not read
    assert taken > 500 and declined > 100, (taken, declined)


def test_json_serializer_17_digits():
    buf = io.StringIO()
    cli.emit_json({"x": 2 / 3, "nested": [1, True, None, float("nan"),
                                          float("inf")]}, buf)
    text = buf.getvalue()
    assert "0.66666666666666663" in text
    assert "NaN" in text and "Infinity" in text
    # float round-trips exactly
    assert json.loads(text.replace("NaN", "null"))["x"] == 2 / 3


def reference_json_token(obj):
    """The serializer as one recursive isinstance chain: the reference of
    the exact-type dispatch."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, str):
        return json.encoder.encode_basestring_ascii(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            return "NaN"
        if math.isinf(x):
            return "Infinity" if x > 0 else "-Infinity"
        return format(x, ".17g")
    if isinstance(obj, dict):
        return "{" + ", ".join(
            f"{json.encoder.encode_basestring_ascii(str(k))}: "
            f"{reference_json_token(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(reference_json_token(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


class _Level(enum.IntEnum):
    LOW = 1


JSON_CORPUS = [
    None, True, False, 0, -7, 2 ** 70, 2 / 3, 1e-300, 5e-324, -0.0, 0.0,
    math.nan, -math.nan, math.inf, -math.inf,
    np.int64(-3), np.int32(9), np.uint64(2 ** 64 - 1),
    np.float32(0.1), np.float64(2 / 3), np.float64(math.nan),
    np.float32(-math.inf), np.float64(-0.0),
    np.arange(4), np.array([0.1, math.nan, -math.inf]),
    np.arange(6, dtype=np.float32).reshape(2, 3) / 3,
    (1, 2.5, "x"), [], {}, (), [[True, 1], (False, 0)],
    {1: {2: [3, {"k": None}]}, "a": (np.float64(1.5),), True: -0.0},
    'quote " backslash \\ newline \n tab \t', "caf\xe9 \u2028 \U0001f600",
    "\x00\x1f\x7f", _Level.LOW,
]


@pytest.mark.parametrize("obj", JSON_CORPUS, ids=range(len(JSON_CORPUS)))
def test_json_token_matches_isinstance_reference(obj):
    assert cli._json_token(obj) == reference_json_token(obj)
    # inside a container too, where the element takes the same path
    assert cli._json_token({"v": [obj]}) == reference_json_token({"v": [obj]})


@pytest.mark.parametrize("obj", [{1, 2}, Decimal("1.5"), [Decimal(1)],
                                 {"k": frozenset()}])
def test_json_token_rejects_other_types(obj):
    with pytest.raises(TypeError, match="cannot serialize"):
        cli._json_token(obj)


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
    assert 0 < doc["newton_steps"] < doc["iterations_used"]


def test_fixed_point_binary_saddle(capsys):
    # At f0 = 0.6 the iteration converges inside the face it starts on, to
    # (1/2, 0, 0, 1/2), whose exact eigenvalues are {0, 0, 2/5, 6/5}.  The
    # Newton polish reaches the same saddle and is refused, so the plain
    # iteration gives the location and the step count.
    code, doc = run_json(
        ["fixed-point", "--protocol", "binary", "--noise", "binary:0.6"],
        capsys)
    assert code == 0
    assert doc["attracting"] is False
    assert doc["location"] == [0.50000000000019984, 0, 0, 0.49999999999980016]
    assert doc["iterations_used"] == 31
    assert doc["newton_steps"] == 0
    assert doc["lambda_max"] == pytest.approx(6 / 5, abs=1e-12)


def test_fixed_point_bbpssw_polishes_near_the_attractivity_edge(capsys):
    # corr2:0.9487 is just above 3/sqrt(10), where the slope at F_max is
    # 0.995: plain iteration alone takes thousands of steps.
    code, doc = run_json(
        ["fixed-point", "--protocol", "bbpssw", "--noise", "corr2:0.9487"],
        capsys)
    assert code == 0
    assert doc["attracting"] is True
    assert doc["iterations_used"] < 100
    assert doc["newton_steps"] > 0
    assert doc["location"][0] == pytest.approx(
        fp.bbpssw_two_qubit_fixed_points(0.9487)[1], abs=1e-12)


@pytest.mark.parametrize("protocol,noise", [("dejmps", "white:1.0"),
                                            ("dejmps", "corr2:1.0"),
                                            ("binary", "binary:1.0")])
def test_fixed_point_without_noise_is_the_nilpotent_point(protocol, noise,
                                                          capsys):
    # Newton iterates are clipped at 0, so the polish lands on (1, 0, 0, 0)
    # itself, where the Jacobian is nilpotent: no entry below 0, no
    # residual, radius 0.
    code, doc = run_json(["fixed-point", "--protocol", protocol,
                          "--noise", noise], capsys)
    assert code == 0
    assert doc["location"] == [1, 0, 0, 0]
    assert doc["residual"] == 0
    assert doc["lambda_max"] == 0
    assert doc["attracting"] is True


@pytest.mark.parametrize("noise,rmap", [
    ("corr2:1.0", rc.bbpssw_two_qubit_map(1.0)),
    ("white:1.0", rc.bbpssw_map(1.0)),
    ("worst:1.0", rc.worstcase_map(1.0)),
])
def test_scalar_fixed_point_stays_in_the_unit_interval(noise, rmap, capsys):
    # the polish once reported F = 1.0000000000017033 (corr2) and
    # 1.0000000000003091 (white); residual and radius are those at F = 1
    code, doc = run_json(["fixed-point", "--protocol", "bbpssw",
                          "--noise", noise], capsys)
    assert code == 0
    assert doc["location"] == [1]
    assert doc["residual"] == 0
    assert doc["lambda_max"] == fp.jacobian_spectral_radius(rmap, [1.0])
    assert doc["lambda_max"] == pytest.approx(2 / 3, abs=1e-15)


def test_figure_worstcase_slopes_are_exact_at_each_root():
    buf = io.StringIO()
    cli.emit_figure_data("worstcase-attractivity", buf)
    rows = list(csv.DictReader(buf.getvalue().splitlines()[1:]))
    assert rows
    x, f = sympy.symbols("x f")
    slope = sympy.diff(rc.worstcase_map(f)([x])[0][0], x)
    for row in rows:
        exact = slope.xreplace({x: sympy.Rational(Fraction(row["root"])),
                                f: sympy.Rational(Fraction(row["f_i"]))})
        assert abs(float(row["abs_slope"]) - abs(float(exact))) < 1e-14


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


def usage_error(argv, capsys):
    """Run argv; return its stderr after checking for exit 2, no stdout and
    a single stderr line."""
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert code == 2, captured
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    return captured.err


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-12"])
def test_fixed_point_tol_must_be_finite_and_positive(tol, capsys):
    err = usage_error(["fixed-point", "--protocol", "dejmps",
                       "--noise", "white:0.99", f"--tol={tol}"], capsys)
    assert "tol" in err


@pytest.mark.parametrize("maxiter", ["-1", "0"])
def test_fixed_point_maxiter_must_be_positive(maxiter, capsys):
    err = usage_error(["fixed-point", "--protocol", "dejmps",
                       "--noise", "white:0.99", f"--maxiter={maxiter}"], capsys)
    assert "maxiter" in err


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


@pytest.mark.parametrize("kind,grid", [("white", "0.25:0.99:0.37"),
                                       ("corr2", "0:0.9:0.1")])
def test_scan_dejmps_rows_are_the_solver_reports(kind, grid, capsys):
    code, doc = run_json(["scan", "--protocol", "dejmps", "--noise-kind", kind,
                          "--noise-grid", grid, "--emit", "json"], capsys)
    assert code == 0
    assert doc["columns"] == [f"{kind}_parameter", "q00_fixed",
                              "spectral_radius", "iterations", "newton_steps",
                              "residual"]
    values = cli._parse_grid(grid).tolist()
    reports = [fp.reduced_noisy_dejmps_fixed_point(nm.distribution_from(
        nm.noise_from_config({"kind": kind, "parameter": v}))) for v in values]
    assert doc["rows"] == [[v, r.location[0], r.lambda_max, r.iterations_used,
                            r.newton_steps, r.residual]
                           for v, r in zip(values, reports)]
    assert all(type(x) is int for row in doc["rows"] for x in row[3:5])
    assert all(0 <= row[5] < 1e-13 for row in doc["rows"])
    # the grid reaches the plain path, the maximally mixed basin (q00 = 1/4)
    # and a Newton-polished distillation fixed point
    assert any(r.newton_steps == 0 for r in reports)
    assert any(r.newton_steps and abs(r.location[0] - 0.25) < 1e-12
               for r in reports)
    assert any(r.newton_steps and r.location[0] > 0.9 for r in reports)


def test_scan_dejmps_fold_point_does_not_converge(capsys):
    # at the white-noise fold, plain iteration stalls for all 20000 steps
    code = cli.run(["scan", "--protocol", "dejmps",
                    "--noise-grid", "0.898311:0.898311:0.1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("non-convergence:")


def test_scan_bbpssw_zero_noise_weight_is_usage_error(capsys):
    # f = 0 once ended in a ZeroDivisionError traceback
    err = usage_error(["scan", "--protocol", "bbpssw",
                       "--noise-grid", "0:0.1:0.05"], capsys)
    assert "no distillation fixed point" in err


@pytest.mark.parametrize("protocol,grid", [("bbpssw", "1.0:2.0:0.5"),
                                           ("binary", "0.9:1.5:0.2"),
                                           ("bbpssw", "-0.5:1.0:0.5")])
def test_scan_grid_must_lie_in_the_unit_interval(protocol, grid, capsys):
    # every grid is a noise parameter; the closed-form paths never check
    err = usage_error(["scan", "--protocol", protocol, f"--noise-grid={grid}"],
                      capsys)
    assert "0 <= lo <= hi <= 1" in err


@pytest.mark.parametrize("grid", ["nan:0.95:0.1", "0.9:inf:0.1",
                                  "0.9:0.95:nan", "0.9:0.95:inf"])
def test_scan_grid_must_be_finite(grid, capsys):
    err = usage_error(["scan", "--protocol", "dejmps", "--noise-grid", grid],
                      capsys)
    assert "finite" in err


def test_scan_grid_overshoot_stops_at_one(capsys):
    # the half-step slack of lo:hi:step once carried this grid to f0 = 1.05,
    # and later set that point to 1; a point past hi is now dropped
    code, doc = run_json(["scan", "--protocol", "binary", "--noise-grid",
                          "0.8:1.0:0.125", "--emit", "json"], capsys)
    assert code == 0
    f0s = [row[0] for row in doc["rows"]]
    assert f0s == pytest.approx([0.8, 0.925], abs=1e-15)
    # np.arange's last point here is 1.0000000000000002: rounding, kept as 1
    code, doc = run_json(["scan", "--protocol", "binary", "--noise-grid",
                          "0.8:1.0:0.05", "--emit", "json"], capsys)
    assert code == 0
    assert len(doc["rows"]) == 5
    assert doc["rows"][-1][0] == 1.0


@pytest.mark.parametrize("grid,points", [
    ("0.8:0.9:0.15", [0.8]),
    ("0.8:0.95:0.1", [0.8, 0.9]),
    ("0.1:0.35:0.15", [0.1, 0.25]),
    ("0.97:0.99:0.01", [0.97, 0.98, 0.99]),
    ("0.9:0.95:0.04", [0.9, 0.94]),
    ("0.3:0.3:0.1", [0.3]),
    ("0.9:0.9:1e-300", [0.9]),
    ("0:0:5e-324", [0.0]),
])
def test_grid_stays_within_hi(grid, points):
    # the half-step slack once printed a row at 0.95 for 0.8:0.9:0.15
    got = cli._parse_grid(grid)
    assert got.tolist() == pytest.approx(points, abs=1e-15)
    lo, hi, step = (float(x) for x in grid.split(":"))
    assert np.array_equal(got, lo + np.arange(len(points)) * step)


def test_scan_grid_below_the_spacing_of_doubles_holds_lo(capsys):
    # hi + step / 2 once rounded to hi, and np.arange came back empty
    rows = [run_json(["scan", "--protocol", "dejmps", "--noise-grid", grid,
                      "--emit", "json"], capsys)[1]["rows"]
            for grid in ("0.9:0.9:1e-300", "0.9:0.9:0.01")]
    assert rows[0] == rows[1]
    assert len(rows[0]) == 1 and rows[0][0][0] == 0.9


def test_scan_grid_size_is_capped_before_allocation(capsys):
    err = usage_error(["scan", "--protocol", "dejmps",
                       "--noise-grid", "0.9:0.95:1e-9"], capsys)
    assert "more than 10000 points" in err
    with pytest.raises(ValueError, match="more than 10000 points"):
        cli._parse_grid("0:1:1e-4")            # 10001 points
    assert cli._parse_grid("0:0.9999:1e-4").size == cli._MAX_GRID_POINTS
    with pytest.raises(ValueError, match="more than 10000 points"):
        cli._parse_grid("0:1:1e-320")          # the count overflows to inf


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


@pytest.mark.parametrize("f0", ["1.0000000000000000001", "2"])
def test_bounds_crossing_gap_above_one(f0, capsys):
    err = usage_error(["bounds", "--chain", "crossing-gap", "--f0", f0],
                      capsys)
    assert "at most 1" in err


@pytest.mark.parametrize("f0,message", [("nan", "finite"), ("inf", "finite"),
                                        ("-inf", "finite"),
                                        ("abc", "not a decimal number")])
def test_bounds_crossing_gap_rejects_malformed_f0(f0, message, capsys):
    err = usage_error(["bounds", "--chain", "crossing-gap", f"--f0={f0}"],
                      capsys)
    assert message in err


def test_bounds_definetti(capsys):
    code, doc = run_json(
        ["bounds", "--chain", "definetti", "--n", "1000000", "--k", "1000",
         "--epsP", "0.0001"], capsys)
    assert code == 0
    assert doc["value"] == pytest.approx(142829.2225, rel=1e-12)


def _pair_budget_payload(M, xi):
    pb = sb.pair_budget(M, xi)
    return {"bound_name": "pair-budget", "inputs": {"M": M, "xi": xi},
            "c": pb.c, "distillation_pairs": pb.distillation_pairs,
            "k_exact": pb.k_exact, "k_ceil": pb.k_ceil,
            "residual": pb.residual()}


def _crossing_gap_payload(f0):
    lam = fp.binary_lambda_max(Decimal(f0))
    gap = sb.postselect_crossing_gap(lam)
    return {"bound_name": "crossing-gap", "inputs": {"f0": f0},
            "lambda": float(lam), "gap_bits": gap, "nontrivial": gap > 0}


def _postselection_payload(n, eps):
    report = sb.bound_report("postselection", {"n": n, "epsilon_P": eps},
                             sb.postselection_bound(n, eps))
    report["log_value"] = sb.postselection_bound_log(n, eps)
    return report


def _robustness_payload(beta, f_min, k, M, xi):
    res = sb.robustness_bound(sb.RobustnessInput(beta, f_min, k, M, xi))
    return sb.bound_report(
        "robustness",
        {"beta": beta, "f_min": f_min, "k": k, "M": M, "xi": xi,
         "margin": res.margin, "undistillable": res.undistillable,
         "budget_consistent": res.budget_consistent},
        res.value, res.chain_terms)


# Every chain with its flags and the payload built from the library call it
# wraps; argparse reads --k as a float.
BOUND_CHAINS = {
    "definetti": (["--n", "1000000", "--k", "1000", "--epsP", "0.0001"],
                  lambda: sb.bound_report(
                      "definetti",
                      {"n": 1000000, "k": 1000.0, "epsilon_P": 0.0001},
                      sb.definetti_bound(1000000, 1000.0, 0.0001))),
    "postselection": (["--n", "20000", "--epsP", "1e-6"],
                      lambda: _postselection_payload(20000, 1e-6)),
    "leak": (["--eps", "1e-8"], lambda: sb.bound_report(
        "leak", {"epsilon": 1e-8}, sb.leak_bound(1e-8))),
    "localstates": (["--eps", "1e-8"], lambda: sb.bound_report(
        "localstates", {"epsilon": 1e-8}, sb.localstates_lift(1e-8))),
    "purification": (["--eps", "1e-8"], lambda: sb.bound_report(
        "purification", {"epsilon": 1e-8}, sb.purification_lift(1e-8))),
    "postselection-chain": (["--eps", "1e-8"], lambda: sb.bound_report(
        "postselection-chain", {"epsilon": 1e-8},
        sb.postselection_chain(1e-8))),
    "hoeffding": (["--eta", "0.1", "--k", "1e6"], lambda: sb.bound_report(
        "hoeffding", {"eta": 0.1, "k": 1e6}, sb.hoeffding_pe_abort(0.1, 1e6))),
    "robustness": (["--beta", "0.98", "--f-min", "0.52", "--k", "1e6",
                    "--M", "5", "--xi", "20"],
                   lambda: _robustness_payload(0.98, 0.52, 1e6, 5, 20.0)),
    "pair-budget": (["--M", "3", "--xi", "5"],
                    lambda: _pair_budget_payload(3, 5.0)),
    "crossing-gap": (["--f0", "0.9999999999999999999"],
                     lambda: _crossing_gap_payload("0.9999999999999999999")),
}


@pytest.mark.parametrize("chain", list(BOUND_CHAINS))
def test_bounds_chain_matches_library(chain, capsys):
    flags, payload = BOUND_CHAINS[chain]
    code = cli.run(["bounds", "--chain", chain] + flags)
    out = capsys.readouterr().out
    assert code == 0
    expected = io.StringIO()
    cli.emit_json(payload(), expected)
    assert out == expected.getvalue()       # same keys, order and digits


def test_requests_share_a_parser_but_not_their_flags(capsys):
    # run() reuses one parser; a flag given to one request must not leak
    # into the next, and build_parser still returns a fresh parser
    assert cli.build_parser() is not cli.build_parser()
    assert cli.run(["bounds", "--chain", "leak", "--eps", "0.1"]) == 0
    assert cli.run(["bounds", "--chain", "leak"]) == 2
    assert "--eps required" in capsys.readouterr().err
    argv = ["montecarlo", "--n-pairs", "256"] + MC
    deltas = [run_json(argv + extra, capsys)[1]["meta"]["config"]["delta"]
              for extra in (["--delta", "0.05"], [])]
    assert deltas == [0.05, 0.01]


@pytest.mark.parametrize("chain", list(BOUND_CHAINS))
def test_bounds_chain_names_missing_flags(chain, capsys):
    assert cli.run(["bounds", "--chain", chain]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"required for chain {chain!r}" in captured.err


def test_bounds_definetti_rejects_trace_distance_above_two(capsys):
    code = cli.run(["bounds", "--chain", "definetti", "--n", "1000",
                    "--k", "10", "--epsP", "2.5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "epsilon_P must lie in [0, 2]" in captured.err


def test_bounds_postselection_rejects_trace_distance_above_two(capsys):
    code = cli.run(["bounds", "--chain", "postselection", "--n", "100",
                    "--epsP", "2.5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "epsilon_P must lie in [0, 2]" in captured.err


@pytest.mark.parametrize("argv,name", [
    (["--chain", "leak", "--eps", "nan"], "epsilon"),
    (["--chain", "leak", "--eps", "inf"], "epsilon"),
    (["--chain", "localstates", "--eps", "nan"], "epsilon"),
    (["--chain", "purification", "--eps", "nan"], "epsilon"),
    (["--chain", "postselection-chain", "--eps", "nan"], "epsilon"),
    (["--chain", "hoeffding", "--eta", "nan", "--k", "100"], "eta"),
    (["--chain", "hoeffding", "--eta", "0.1", "--k", "nan"], "k"),
    (["--chain", "robustness", "--beta", "0.9", "--f-min", "0.5",
      "--k", "nan", "--M", "2", "--xi", "3"], "k"),
    (["--chain", "robustness", "--beta", "0.9", "--f-min", "0.5",
      "--k", "1000", "--M", "2", "--xi", "nan"], "xi"),
    (["--chain", "robustness", "--beta", "0.9", "--f-min", "0.5",
      "--k", "inf", "--M", "2", "--xi", "3"], "k"),
    (["--chain", "pair-budget", "--M", "2", "--xi", "nan"], "xi"),
    (["--chain", "pair-budget", "--M", "2", "--xi", "inf"], "xi"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_bounds_reject_non_finite_inputs(argv, name, capsys):
    err = usage_error(["bounds"] + argv, capsys)
    assert f"error: {name} must be finite" in err


@pytest.mark.parametrize("argv", [
    ["--chain", "pair-budget", "--M", "2000", "--xi", "1"],
    ["--chain", "robustness", "--beta", "0.98", "--f-min", "0.52",
     "--k", "1e6", "--M", "2000", "--xi", "20"],
], ids=["pair-budget", "robustness"])
def test_bounds_reject_rounds_beyond_a_double(argv, capsys):
    # 2^(2M+2) once overflowed into an OverflowError traceback
    err = usage_error(["bounds"] + argv, capsys)
    assert "M must be finite and in [1, 510]" in err


def test_bounds_pair_budget_at_the_round_limit(capsys):
    # 4 * 2^1022 overflows, but the budget itself is a finite double
    code, doc = run_json(
        ["bounds", "--chain", "pair-budget", "--M", "510", "--xi", "1"],
        capsys)
    assert code == 0
    assert doc["distillation_pairs"] == 2.0 ** 1022
    assert doc["k_exact"] == 2.0 ** 1022
    err = usage_error(["bounds", "--chain", "pair-budget", "--M", "510",
                       "--xi", "10"], capsys)
    assert "overflow a double" in err


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


@pytest.mark.parametrize("states", ["0", "-1"])
def test_steering_audit_needs_at_least_one_state(states, capsys):
    # an empty audit has no minimum slack; it must not print Infinity
    code = cli.run(["steering-audit", "--states", states, "--seed", "7"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: --states must be at least 1\n"


def reference_audit_states(seed, k):
    """The states an audit of k per kind draws, one state at a time."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))

    def density(dim):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = g @ g.conj().T
        return rho / rho.trace().real

    randoms = [density(16) for _ in range(k)]
    products = [np.kron(density(4), density(4)) for _ in range(k)]
    return np.stack(randoms + products)


@pytest.mark.parametrize("chunk", [None, 3])
def test_steering_audit_draws_states_in_order(monkeypatch, capsys, chunk):
    # the batched draws must be the states the one-at-a-time draws made,
    # also across chunk boundaries
    if chunk is not None:
        monkeypatch.setattr(cli, "_AUDIT_CHUNK", chunk)
    seen = []
    audit = cli.sv.product_form_batch

    def spy(states, **kwargs):
        seen.append((states, kwargs["state_ids"]))
        return audit(states, **kwargs)

    monkeypatch.setattr(cli.sv, "product_form_batch", spy)
    code, doc = run_json(
        ["steering-audit", "--states", "8", "--seed", "7"], capsys)
    assert code == 0
    assert np.array_equal(np.concatenate([st for st, _ in seen]),
                          reference_audit_states(7, 8))
    ids = [i for _, chunk_ids in seen for i in chunk_ids]
    assert ids == [a["state_id"] for a in doc["audits"]]
    assert ids == [f"random-{i}" for i in range(8)] + [f"product-{i}" for i in range(8)]
    # one pass over all 2k states, or chunks that straddle the two kinds
    assert [len(st) for st, _ in seen] == ([16] if chunk is None else [3] * 5 + [1])


class _Reached(Exception):
    """Raised by a stub in place of the work a command starts after its
    input checks."""


def _reached(*args, **kwargs):
    raise _Reached


def test_steering_audit_states_are_capped(monkeypatch, capsys):
    # 10^8 states once started an audit that would run for days
    monkeypatch.setattr(cli.sv, "product_form_batch", _reached)
    with pytest.raises(_Reached):
        cli.run(["steering-audit", "--states", "10000", "--seed", "7"])
    for states in ("10001", "100000000"):
        code = cli.run(["steering-audit", "--states", states, "--seed", "7"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: --states must be at most 10000\n"


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
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 120
    assert {"trial", "flag", "abort_stage", "rounds_completed",
            "fidelity_estimate", "final_pairs"} <= set(rows[0])
    measured = sum(r["flag"] != "ok" for r in rows) / 120
    assert measured == pytest.approx(agg["abort_rate"], abs=1e-12)


def test_montecarlo_csv_samples_the_campaign_once(tmp_path, monkeypatch,
                                                 capsys):
    calls = []
    sample = cli.mc.sample_campaign
    monkeypatch.setattr(cli.mc, "sample_campaign",
                        lambda c: calls.append(c) or sample(c))
    argv = ["montecarlo", "--beta", "0.7", "--noise", "corr2:0.99",
            "--n-pairs", "256", "--rounds", "4", "--f-min", "auto",
            "--seed", "7", "--emit", "csv"]
    assert cli.run(argv + ["--trials", "300", "--out",
                           str(tmp_path / "t.csv")]) == 0
    capsys.readouterr()
    assert len(calls) == 1
    # too few trials for a rate: exit 2 before the table is opened
    err = usage_error(argv + ["--trials", "50", "--out",
                              str(tmp_path / "none.csv")], capsys)
    assert "at least 100 trials" in err
    assert not (tmp_path / "none.csv").exists()


def test_montecarlo_f_min_auto_at_zero_noise_weight_is_usage_error(capsys):
    # corr2:0 once ended in a ZeroDivisionError traceback
    err = usage_error(["montecarlo", "--n-pairs", "64", "--beta", "0.9",
                       "--noise", "corr2:0", "--rounds", "2", "--f-min",
                       "auto", "--trials", "10"], capsys)
    assert "f_tilde" in err


def test_montecarlo_f_min_auto_requires_corr2(capsys):
    assert cli.run(
        ["montecarlo", "--beta", "0.98", "--noise", "white:0.99",
         "--n-pairs", "4096", "--rounds", "2", "--f-min", "auto",
         "--trials", "120"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("noise", ["worst:0.97", "channel:0.97"])
def test_montecarlo_noise_without_pauli_mixture_is_usage_error(noise, capsys):
    code = cli.run(["montecarlo", "--n-pairs", "64", "--beta", "0.9",
                    "--noise", noise, "--rounds", "1", "--f-min", "0.5",
                    "--trials", "100"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("delta", ["nan", "inf"])
def test_montecarlo_delta_must_be_finite(delta, capsys):
    err = usage_error(["montecarlo", "--n-pairs", "256", "--beta", "0.9",
                       "--noise", "corr2:0.99", "--rounds", "1",
                       "--f-min", "0.5", "--trials", "10",
                       f"--delta={delta}"], capsys)
    assert "delta must be finite and positive" in err


def test_montecarlo_trials_fit_the_trial_key(monkeypatch, capsys):
    # the cap on a campaign's size
    monkeypatch.setattr(cli.mc, "check_robustness", _reached)
    argv = ["montecarlo", "--n-pairs", "256", "--beta", "0.9", "--noise",
            "corr2:0.99", "--rounds", "1", "--f-min", "0.5"]
    with pytest.raises(_Reached):
        cli.run(argv + ["--trials", str(2 ** 32 - 1)])
    err = usage_error(argv + ["--trials", str(2 ** 32)], capsys)
    assert "trials must be below 2**32" in err


@pytest.mark.parametrize("flag,value,message", [
    ("--rounds", "2000", "rounds must lie in [1, 510]"),
    ("--n-pairs", str(10 ** 20), "n_pairs must lie in [4, 2**63)"),
])
def test_montecarlo_rejects_sizes_beyond_a_double_or_int64(flag, value,
                                                           message, capsys):
    # both once ended in an OverflowError traceback
    argv = {"--n-pairs": "256", "--rounds": "2"}
    argv[flag] = value
    err = usage_error(["montecarlo", "--beta", "0.9", "--noise", "corr2:0.99",
                       "--f-min", "0.5", "--trials", "100"]
                      + [a for kv in argv.items() for a in kv], capsys)
    assert message in err


def test_montecarlo_csv_rows_follow_the_sampler(tmp_path, capsys):
    # stage names, rounds completed and final pairs: 0 when a round keeps
    # no pair, 1 when a round starts with one pair
    out = tmp_path / "trials.csv"
    argv = ["montecarlo", "--beta", "0.95", "--noise", "corr2:0.99",
            "--n-pairs", "16", "--rounds", "4", "--f-min", "0.52",
            "--trials", "1000", "--seed", "20240817"]
    code = cli.run(argv + ["--emit", "csv", "--out", str(out)])
    agg = json.loads(capsys.readouterr().out)
    assert code == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    config = dataclasses.replace(STREAM_CELLS["rounds"], trials=1000)
    assert json.loads(json.dumps(config.as_dict())) == agg["meta"]["config"]
    f_hat, stage, pairs = campaign(config)
    names = ["parameter_estimation", "round 1", "round 2", "round 3",
             "round 4", ""]
    want = [{"trial": str(t), "flag": "ok" if s == 5 else "fail",
             "abort_stage": names[s], "rounds_completed": str(max(s - 1, 0)),
             "fidelity_estimate": format(f, ".17g"), "final_pairs": str(k)}
            for t, (f, s, k) in enumerate(zip(f_hat.tolist(), stage.tolist(),
                                               pairs.tolist()))]
    assert rows == want
    assert {r["abort_stage"] for r in rows} >= {"round 3", "round 4"}
    assert {r["final_pairs"] for r in rows if r["flag"] == "fail"
            and r["abort_stage"] != "parameter_estimation"} == {"0", "1"}
    assert agg["abort_rate"] == sum(r["flag"] != "ok" for r in rows) / 1000


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


def test_config_does_not_leak_into_later_requests(tmp_path, capsys,
                                                 monkeypatch):
    monkeypatch.delenv("DISTILL_SEED", raising=False)
    ini = write_ini(tmp_path)
    assert run_json(["montecarlo", "--config", str(ini)], capsys)[1]["seed"] == 42
    code, doc = run_json(["fixed-point", "--protocol", "dejmps",
                          "--noise", "white:0.99"], capsys)
    assert code == 0
    assert doc["meta"]["seed"] == 0
    assert cli.run(["montecarlo"]) == 2
    assert "--noise spec" in capsys.readouterr().err
    assert cli._load_config(None) is cli._load_config(None)
    assert cli._load_config(None).sections() == []


def given_by(source, section, name, value, tmp_path, monkeypatch):
    """Argv that gives setting ``name`` as ``value`` through ``source``: its
    flag, DISTILL_SEED (the one setting read from the environment) or a
    config file."""
    monkeypatch.delenv("DISTILL_SEED", raising=False)
    if source == "flag":
        return ["--" + name.replace("_", "-"), value]
    if source == "env":
        monkeypatch.setenv("DISTILL_SEED", value)
        return []
    ini = tmp_path / "run.ini"
    ini.write_text(f"[{section}]\n{name} = {value}\n")
    return ["--config", str(ini)]


SEED_SOURCES = {"flag": "--seed", "env": "DISTILL_SEED",
                "config": "[run] seed"}


@pytest.mark.parametrize("source", list(SEED_SOURCES))
@pytest.mark.parametrize("seed", ["-1", str(2 ** 64), str(2 ** 200)])
def test_seed_must_fit_in_64_bits(source, seed, tmp_path, monkeypatch,
                                  capsys):
    # -1 once failed inside numpy, and 2**200 was accepted
    def audit(value):
        return ["steering-audit", "--states", "1"] + given_by(
            source, "run", "seed", value, tmp_path, monkeypatch)

    err = usage_error(audit(seed), capsys)
    assert err == f"error: {SEED_SOURCES[source]}: seed must fit in 64 bits\n"
    code, doc = run_json(audit(str(2 ** 64 - 1)), capsys)
    assert (code, doc["meta"]["seed"]) == (0, 2 ** 64 - 1)


@pytest.mark.parametrize("source,section,name,value,message", [
    ("flag", "montecarlo", "f_min", "x",
     "--f-min: could not convert string to float: 'x'"),
    ("env", "run", "seed", "abc",
     "DISTILL_SEED: invalid literal for int() with base 10: 'abc'"),
    ("config", "montecarlo", "n_pairs", "abc",
     "[montecarlo] n_pairs: invalid literal for int() with base 10: 'abc'"),
])
def test_setting_errors_name_their_source(source, section, name, value,
                                          message, tmp_path, monkeypatch,
                                          capsys):
    argv = {"--n-pairs": "256", "--beta": "0.9", "--noise": "corr2:0.99",
            "--rounds": "1", "--f-min": "0.5", "--trials": "100"}
    argv.pop("--" + name.replace("_", "-"), None)
    argv = ["montecarlo"] + [a for kv in argv.items() for a in kv]
    err = usage_error(argv + given_by(source, section, name, value, tmp_path,
                                      monkeypatch), capsys)
    assert err == f"error: {message}\n"


def test_noise_config_errors_name_their_option(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[noise]\nkind = corr2\nparameter = x\n")
    argv = ["montecarlo", "--n-pairs", "256", "--beta", "0.9", "--rounds", "1",
            "--f-min", "0.5", "--config", str(ini)]
    err = usage_error(argv, capsys)
    assert err == ("error: [noise] parameter: could not convert string to"
                   " float: 'x'\n")
    ini.write_text("[noise]\nkind = corr2\n")
    assert "[noise] needs both kind and parameter" in usage_error(argv, capsys)


# One request per subcommand and output form.
EVERY_COMMAND = {
    "fixed-point": FP,
    "scan-csv": ["scan", "--protocol", "bbpssw", "--noise-grid",
                 "0.96:1.0:0.02"],
    "scan-json": ["scan", "--protocol", "bbpssw", "--noise-grid",
                  "0.96:1.0:0.02", "--emit", "json"],
    "bounds": ["bounds", "--chain", "leak", "--eps", "0.1"],
    "steering-audit": ["steering-audit", "--states", "1"],
    "montecarlo-json": ["montecarlo", "--n-pairs", "256"] + MC,
    "montecarlo-csv": ["montecarlo", "--n-pairs", "256"] + MC + [
        "--emit", "csv"],
    "trace": ["trace", "--noise", "white:0.99", "--rounds", "1"],
    "trace-figure": ["trace", "--figure", "gfix"],
}

# For each entry of EVERY_COMMAND, requests with one bad setting that is
# not the seed.  A figure reads no option of the trace it replaces, so a
# figure request that gives one, or a config file that does not exist, is
# its bad setting.
BAD_SETTINGS = {
    "fixed-point": [["fixed-point", "--protocol", "dejmps", "--noise",
                     "white:2"]],
    "scan-csv": [["scan", "--protocol", "bbpssw", "--noise-grid",
                  "0.9:2:0.1"]],
    "scan-json": [["scan", "--protocol", "bbpssw", "--noise-grid",
                   "0.9:2:0.1", "--emit", "json"]],
    "bounds": [["bounds", "--chain", "leak"]],
    "steering-audit": [["steering-audit", "--states", "0"]],
    "montecarlo-json": [["montecarlo", "--n-pairs", "3"] + MC],
    "montecarlo-csv": [["montecarlo", "--n-pairs", "256"] + MC + [
        "--trials", "50", "--emit", "csv"]],
    "trace": [["trace", "--noise", "white:0.99", "--rounds", "-1"],
              ["trace", "--noise", "white:0.99", "--rounds", "1",
               "--p0", "0.5,0.5"]],
    "trace-figure": [["trace", "--figure", "gfix", "--config",
                      "missing.ini"],
                     ["trace", "--figure", "gfix", "--rounds", "-1"],
                     ["trace", "--figure", "gfix", "--p0", "1,2"],
                     ["trace", "--figure", "gfix", "--noise", "white:2"],
                     ["trace", "--figure", "gfix", "--full"],
                     ["trace", "--figure", "gfix", "--rounds", "3"],
                     ["trace", "--figure", "gfix", "--protocol", "binary"]],
}


@pytest.mark.parametrize("name", EVERY_COMMAND)
def test_bad_seed_stops_every_command_before_its_output(name, tmp_path,
                                                        capsys, monkeypatch):
    argv = EVERY_COMMAND[name]
    out = tmp_path / "out"
    # argparse reads -1 (a value that starts with "-"), the grammar table
    # reads 2**64
    for seed in ("-1", str(2 ** 64)):
        bad = argv + ["--seed", seed, "--out", str(out)]
        assert (cli._plain_parse(bad) is None) == seed.startswith("-")
        err = usage_error(bad, capsys)
        assert err == "error: --seed: seed must fit in 64 bits\n"
        assert not out.exists()
    monkeypatch.chdir(tmp_path)
    for bad in BAD_SETTINGS[name]:
        usage_error(bad + ["--out", str(out)], capsys)
        assert not out.exists()
    assert cli.run(argv + ["--out", str(out)]) == 0
    assert out.exists()
    capsys.readouterr()


def resolved(argv, monkeypatch):
    """The request ``argv`` as its command receives it, every setting
    resolved."""
    seen = []
    help_line, flags, _run = cli._GRAMMAR[argv[0]]
    monkeypatch.setitem(cli._GRAMMAR, argv[0], (
        help_line, flags, lambda args, cfg: seen.append(args) or 0))
    assert cli.run(argv) == 0
    return seen[0]


#: A flag value and a config value of each setting a config section may
#: also give, both unlike its grammar default.
PRECEDENCE = {"--seed": (5, 42), "--n-pairs": (256, 4096),
              "--beta": (0.5, 0.9), "--rounds": (1, 2),
              "--f-min": (0.5, 0.25), "--delta": (0.05, 0.02),
              "--trials": (100, 120)}

CONFIG_SETTINGS = [(command, flag, spec)
                   for command, (_help, flags, _run) in cli._GRAMMAR.items()
                   for flag, spec in flags.items() if spec.section]


def test_precedence_covers_every_config_setting():
    assert {flag for _c, flag, _s in CONFIG_SETTINGS} == set(PRECEDENCE)


@pytest.mark.parametrize("command,flag,spec", CONFIG_SETTINGS,
                         ids=[f"{c}{f}" for c, f, _s in CONFIG_SETTINGS])
def test_flag_beats_config_beats_default(command, flag, spec, tmp_path,
                                         monkeypatch):
    name = flag[2:].replace("-", "_")
    by_flag, by_config = PRECEDENCE[flag]
    argv = [command] + BARE[command]
    ini = given_by("config", spec.section, name, by_config, tmp_path,
                   monkeypatch)
    assert getattr(resolved(argv, monkeypatch), name) == spec.default
    assert getattr(resolved(argv + ini, monkeypatch), name) == by_config
    assert getattr(resolved(argv + ini + [flag, str(by_flag)], monkeypatch),
                   name) == by_flag
    if flag == "--seed":
        # DISTILL_SEED sits between the flag and the config
        monkeypatch.setenv("DISTILL_SEED", "777")
        assert resolved(argv + ini, monkeypatch).seed == 777
        assert resolved(argv + ini + ["--seed", "5"], monkeypatch).seed == 5


@pytest.mark.parametrize("argv,section,name,default", [
    (["bounds", "--chain", "leak"], "montecarlo", "beta", None),
    (["fixed-point", "--protocol", "dejmps"], "run", "tol", 1e-12),
    (["montecarlo"], "montecarlo", "emit", "json"),
])
def test_config_gives_only_the_settings_the_grammar_marks(
        argv, section, name, default, tmp_path, monkeypatch):
    ini = given_by("config", section, name, "0.5", tmp_path, monkeypatch)
    assert getattr(resolved(argv + ini, monkeypatch), name) == default


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
                                "0,0,0,0", "1e308,1e308,0,0"])
def test_trace_p0_must_be_a_finite_nonnegative_weight(p0, capsys):
    code = cli.run(["trace", "--protocol", "dejmps", "--noise", "white:0.99",
                    "--rounds", "1", f"--p0={p0}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert "--p0" in captured.err


def test_trace_csv_layout(capsys):
    # white:1 is the identity noise, so the reduced map is the noiseless one.
    p0 = ",".join(str(float(x)) for x in BellDiagonalState.werner(0.75).p)
    code = cli.run(["trace", "--protocol", "dejmps", "--noise", "white:1",
                    "--rounds", "3", "--p0", p0])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert lines[0].startswith("round,")
    assert len(lines) == 5          # header + round 0 (input) + 3 rounds
    r0 = lines[1].split(",")
    assert r0[0] == "0"
    assert float(r0[1]) == pytest.approx(0.75)
    assert r0[-1] == ""             # no success probability before round 1
    r1 = lines[2].split(",")
    assert float(r1[1]) == pytest.approx(41 / 52, abs=1e-15)
    assert float(r1[-1]) == pytest.approx(13 / 18, abs=1e-15)
    # 17 significant digits: the printed text reproduces the stored float
    s = r1[1]
    assert "%.17g" % float(s) == s


def trace_rows(argv, capsys):
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    return list(csv.reader(io.StringIO(captured.out)))


@pytest.mark.parametrize("p0, unit", [("1e200,1e200,0,0", "0.5,0.5,0,0"),
                                      ("0,0,0,1e-320", "0,0,0,1")])
def test_trace_p0_is_scaled_to_sum_one(p0, unit, capsys):
    """A table map is homogeneous: a start vector far from sum 1 traces as
    its scaled copy, with no overflow, underflow or zero success."""
    argv = ["trace", "--protocol", "dejmps", "--noise", "white:0.9",
            "--rounds", "3"]
    rows = trace_rows(argv + [f"--p0={p0}"], capsys)
    assert len(rows) == 5
    assert rows == trace_rows(argv + [f"--p0={unit}"], capsys)


def test_trace_p0_summing_to_one_is_kept(capsys):
    rows = trace_rows(["trace", "--protocol", "dejmps", "--noise", "white:0.99",
                       "--rounds", "1", "--p0", "0.7,0.1,0.1,0.1"], capsys)
    assert rows[1] == ["0", "0.69999999999999996", "0.10000000000000001",
                       "0.10000000000000001", "0.10000000000000001", ""]


def test_trace_scalar_p0_must_be_at_most_one(capsys):
    err = usage_error(["trace", "--protocol", "bbpssw", "--noise",
                       "white:0.99", "--rounds", "2", "--p0", "2"], capsys)
    assert "--p0" in err and "at most 1" in err


@pytest.mark.parametrize("noise", ["white:0.99", "corr2:0.99", "worst:0.99"])
def test_trace_scalar_p0_may_be_zero(noise, capsys):
    # 0 lies in each one-variable map's domain, where N is 1/2 or more (up
    # to rounding); only a table map, which scales its start by the sum,
    # needs a positive one
    rows = trace_rows(["trace", "--protocol", "bbpssw", "--noise", noise,
                       "--rounds", "2", "--p0", "0"], capsys)
    assert rows[1] == ["0", "0", ""]
    assert len(rows) == 4
    assert all(float(r[-1]) >= 0.5 - 1e-15 for r in rows[2:])


def test_trace_full_applies_to_dejmps_only(capsys):
    err = usage_error(["trace", "--protocol", "binary", "--noise",
                       "binary:0.9", "--rounds", "1", "--full"], capsys)
    assert "--full" in err and "dejmps" in err


def test_trace_rounds_must_be_nonnegative(capsys):
    err = usage_error(["trace", "--protocol", "dejmps", "--noise",
                       "white:0.99", "--rounds", "-3"], capsys)
    assert "--rounds" in err


def test_figure_names_the_trace_flags_it_ignores(capsys):
    err = usage_error(["trace", "--figure", "gfix", "--rounds", "3",
                       "--protocol", "binary"], capsys)
    assert err == "error: --figure takes no --protocol, --rounds\n"


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


MC_CSV = ["montecarlo", "--n-pairs", "20", "--beta", "0.99", "--noise",
          "corr2:0.99", "--rounds", "4", "--trials", "120", "--seed", "9",
          "--emit", "csv"]

# name -> (argv, whether every cell is a 17-digit float or empty)
CSV_OUTPUTS = {
    "trace-dejmps": (["trace", "--noise", "white:0.99"], True),
    "trace-dejmps-full": (["trace", "--noise", "corr2:0.98", "--full",
                           "--rounds", "4"], True),
    "trace-binary": (["trace", "--protocol", "binary", "--noise",
                      "binary:0.9"], True),
    "trace-bbpssw": (["trace", "--protocol", "bbpssw", "--noise",
                      "worst:0.97"], True),
    "scan-dejmps": (["scan", "--protocol", "dejmps", "--noise-grid",
                     "0.97:0.99:0.01"], True),
    "scan-bbpssw": (["scan", "--protocol", "bbpssw", "--noise-grid",
                     "0.97:0.99:0.01"], True),
    "scan-binary": (["scan", "--protocol", "binary", "--noise-grid",
                     "0.8:0.9:0.05"], True),
    "montecarlo": (MC_CSV, False),
} | {f"figure-{name}": (["trace", "--figure", name], False)
     for name in cli.FIGURE_NAMES}


@pytest.mark.parametrize("name", CSV_OUTPUTS)
def test_every_csv_table_is_rectangular(name, tmp_path, capsys):
    argv, floats = CSV_OUTPUTS[name]
    path = tmp_path / "out.csv"
    assert cli.run(argv + ["--out", str(path)]) == 0
    capsys.readouterr()
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    if name.startswith("figure-"):
        assert lines.pop(0).startswith("# " + name.removeprefix("figure-"))
    header, *rows = csv.reader(lines)
    assert rows
    assert all(len(row) == len(header) for row in rows)
    if floats:
        assert all(cell == "" or "%.17g" % float(cell) == cell
                   for row in rows for cell in row)


def test_figure_names_are_the_published_set():
    assert cli.FIGURE_NAMES == (
        "dejmps-convergence", "lambda-max", "p0000-fixed",
        "bbpssw-convergence", "discriminant", "gfix",
        "worstcase-attractivity", "binary-postselect")

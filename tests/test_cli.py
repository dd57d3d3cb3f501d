"""Command-line surface: exit codes, serialization, config/seed precedence."""

import csv
import dataclasses
import io
import json
import math
import os
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

from conftest import STREAM_CELLS, campaign


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


def test_figure_worstcase_slopes_are_exact_at_each_root():
    buf = io.StringIO()
    cli.emit_figure_data("worstcase-attractivity", buf)
    rows = list(csv.DictReader(buf.getvalue().splitlines()[1:]))
    assert rows
    x, f = sympy.symbols("x f")
    slope = sympy.diff(rc.bbpssw_worstcase_step(x, f)[0], x)
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
                              "spectral_radius"]
    values = cli._parse_grid(grid).tolist()
    reports = [fp.reduced_noisy_dejmps_fixed_point(nm.distribution_from(
        nm.noise_from_config({"kind": kind, "parameter": v}))) for v in values]
    assert doc["rows"] == [[v, r.location[0], r.lambda_max]
                           for v, r in zip(values, reports)]
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
])
def test_grid_stays_within_hi(grid, points):
    # the half-step slack once printed a row at 0.95 for 0.8:0.9:0.15
    got = cli._parse_grid(grid)
    assert got.tolist() == pytest.approx(points, abs=1e-15)
    lo, hi, step = (float(x) for x in grid.split(":"))
    assert np.array_equal(got, lo + np.arange(len(points)) * step)


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


def test_trace_scalar_p0_must_be_at_most_one(capsys):
    err = usage_error(["trace", "--protocol", "bbpssw", "--noise",
                       "white:0.99", "--rounds", "2", "--p0", "2"], capsys)
    assert "--p0" in err and "at most 1" in err


def test_trace_full_applies_to_dejmps_only(capsys):
    err = usage_error(["trace", "--protocol", "binary", "--noise",
                       "binary:0.9", "--rounds", "1", "--full"], capsys)
    assert "--full" in err and "dejmps" in err


def test_trace_rounds_must_be_nonnegative(capsys):
    err = usage_error(["trace", "--protocol", "dejmps", "--noise",
                       "white:0.99", "--rounds", "-3"], capsys)
    assert "--rounds" in err


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

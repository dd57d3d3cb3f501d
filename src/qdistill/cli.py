"""Command-line surface.

Six subcommands: fixed-point, scan, bounds, steering-audit, montecarlo,
trace.  JSON for single results, CSV for series, every float serialized
with 17 significant digits so outputs round-trip doubles losslessly.
Exit codes: 0 success, 2 validation/usage error, 3 numerical
non-convergence.

Seed precedence: --seed flag, then the DISTILL_SEED environment variable,
then the config file, then 0.  The config file is flat INI: a [run]
section (seed), a [noise] section (kind, parameter), and a [montecarlo]
section (n_pairs, beta, rounds, f_min, delta, trials); command-line flags
always win.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import os
import sys
from contextlib import contextmanager
from decimal import Decimal

import numpy as np

from . import fixed_point as fp
from . import montecarlo as mc
from . import noise_models as nm
from . import recurrence as rec
from . import security_bounds as sb
from . import steering_verify as sv
from .quantum_core import CORRELATED_SUPPORT

FIGURE_NAMES = (
    "dejmps-convergence",
    "lambda-max",
    "p0000-fixed",
    "bbpssw-convergence",
    "discriminant",
    "gfix",
    "worstcase-attractivity",
    "binary-postselect",
)

_WERNER9 = (0.9, 1.0 / 30.0, 1.0 / 30.0, 1.0 / 30.0)


# ---------------------------------------------------------------------------
# serialization

def _fmt(x) -> str:
    return format(float(x), ".17g")


def _json_token(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            return "NaN"
        if math.isinf(x):
            return "Infinity" if x > 0 else "-Infinity"
        return _fmt(x)
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {_json_token(v)}"
                          for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_json_token(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def emit_json(obj, fh) -> None:
    """JSON with floats at 17 significant digits (bit-exact round trip)."""
    fh.write(_json_token(obj))
    fh.write("\n")


@contextmanager
def _open_out(path):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:
            yield fh


# ---------------------------------------------------------------------------
# argument plumbing

def parse_noise(spec: str):
    """'white:0.99' / 'corr2:0.95' / 'binary:0.9' / 'worst:0.97' -> model."""
    kind, sep, val = spec.partition(":")
    if not sep:
        raise ValueError(f"noise spec {spec!r} must look like kind:parameter")
    try:
        param = float(val)
    except ValueError:
        raise ValueError(f"noise parameter {val!r} is not a number") from None
    return nm.noise_from_config({"kind": kind, "parameter": param})


def _load_config(path):
    cfg = configparser.ConfigParser()
    if path:
        if not cfg.read(path):
            raise ValueError(f"config file {path!r} not found or unreadable")
    return cfg


def resolve_seed(args, cfg) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("DISTILL_SEED")
    if env is not None:
        return int(env)
    if cfg.has_option("run", "seed"):
        return cfg.getint("run", "seed")
    return 0


def _resolve_noise(args, cfg):
    if getattr(args, "noise", None):
        return parse_noise(args.noise)
    if cfg.has_section("noise"):
        return nm.noise_from_config({
            "kind": cfg.get("noise", "kind"),
            "parameter": cfg.getfloat("noise", "parameter"),
        })
    raise ValueError("a --noise spec (or [noise] config section) is required")


def _noise_meta(model) -> dict:
    return nm.noise_to_config(model)


def _protocol_map(protocol: str, model, full: bool = False):
    """Map a (protocol, noise model) pair onto a recurrence map and a
    default start vector."""
    if protocol == "dejmps":
        if not isinstance(model, (nm.SingleQubitWhiteNoise,
                                  nm.TwoQubitCorrelatedNoise)):
            raise ValueError("dejmps expects white:f or corr2:f noise")
        dist = nm.distribution_from(model)
        if full:
            p0 = np.zeros(16)
            p0[CORRELATED_SUPPORT] = _WERNER9
            return rec.noisy_dejmps_map(dist), p0
        return rec.reduced_dejmps_map(dist), np.array(_WERNER9)
    if protocol == "binary":
        if not isinstance(model, nm.BinaryNoise):
            raise ValueError("binary expects binary:f0 noise")
        return rec.binary_map(model.f0), np.array([0.95, 0.0, 0.0, 0.05])
    if protocol == "bbpssw":
        if isinstance(model, nm.SingleQubitWhiteNoise):
            return rec.bbpssw_map(model.f), np.array([0.75])
        if isinstance(model, nm.TwoQubitCorrelatedNoise):
            return rec.bbpssw_two_qubit_map(model.f_tilde), np.array([0.75])
        if isinstance(model, nm.WorstCaseNoise):
            return rec.worstcase_map(model.f_i), np.array([0.9])
        raise ValueError("bbpssw expects white:f, corr2:f, or worst:f noise")
    raise ValueError(f"unknown protocol {protocol!r}")


# ---------------------------------------------------------------------------
# subcommands

def _cmd_fixed_point(args, cfg) -> int:
    model = _resolve_noise(args, cfg)
    rmap, p0 = _protocol_map(args.protocol, model)
    report = fp.iterate_to_fixed_point(rmap, p0, tol=args.tol,
                                       maxiter=args.maxiter)
    payload = {
        "protocol": args.protocol,
        "noise": _noise_meta(model),
        "location": list(report.location),
        "residual": report.residual,
        "attracting": report.attracting,
        "lambda_max": report.lambda_max,
        "iterations_used": report.iterations_used,
        "meta": {"seed": resolve_seed(args, cfg), "tol": args.tol,
                 "maxiter": args.maxiter},
    }
    with _open_out(args.out) as fh:
        emit_json(payload, fh)
    if not report.converged:
        print("fixed-point iteration did not converge", file=sys.stderr)
        return 3
    return 0


def _parse_grid(spec: str) -> np.ndarray:
    try:
        lo, hi, step = (float(x) for x in spec.split(":"))
    except ValueError:
        raise ValueError(f"grid {spec!r} must look like lo:hi:step") from None
    if step <= 0 or hi < lo:
        raise ValueError("grid needs step > 0 and hi >= lo")
    return np.arange(lo, hi + step / 2, step)


def _cmd_scan(args, cfg) -> int:
    grid = _parse_grid(args.noise_grid)
    rows = []
    if args.protocol == "bbpssw":
        header = ("f", "p_fixed", "slope")
        for f in grid:
            rows.append((f, fp.bbpssw_fixed_point(f),
                         fp.bbpssw_fixed_point_slope(f)))
    elif args.protocol == "binary":
        header = ("f0", "p00_fixed", "lambda_max")
        for f0 in grid:
            rows.append((f0, fp.binary_fixed_point(f0)[0],
                         fp.binary_lambda_max(f0)))
    else:
        header = (args.noise_kind + "_parameter", "q00_fixed", "spectral_radius")
        for val in grid:
            model = nm.noise_from_config({"kind": args.noise_kind,
                                          "parameter": float(val)})
            dist = nm.distribution_from(model)
            q = fp.reduced_noisy_dejmps_fixed_point(dist)
            radius, _ = fp.jacobian_spectral_radius(rec.reduced_dejmps_map(dist), q)
            rows.append((val, q[0], radius))
    with _open_out(args.out) as fh:
        if args.emit == "csv":
            w = csv.writer(fh)
            w.writerow(header)
            for row in rows:
                w.writerow([_fmt(x) for x in row])
        else:
            emit_json({
                "protocol": args.protocol,
                "columns": list(header),
                "rows": [list(map(float, r)) for r in rows],
                "meta": {"grid": args.noise_grid,
                         "seed": resolve_seed(args, cfg)},
            }, fh)
    return 0


def _require(args, *names):
    missing = [n for n in names if getattr(args, n.replace("-", "_")) is None]
    if missing:
        raise ValueError(
            f"--{', --'.join(missing)} required for chain {args.chain!r}")


def _cmd_bounds(args, cfg) -> int:
    chain = args.chain
    if chain == "definetti":
        _require(args, "n", "k", "epsP")
        report = sb.bound_report(
            "definetti", {"n": args.n, "k": args.k, "epsilon_P": args.epsP},
            sb.definetti_bound(args.n, args.k, args.epsP))
    elif chain == "postselection":
        _require(args, "n", "epsP")
        report = sb.bound_report(
            "postselection", {"n": args.n, "epsilon_P": args.epsP},
            sb.postselection_bound(args.n, args.epsP))
        report["log_value"] = sb.postselection_bound_log(args.n, args.epsP)
    elif chain in ("leak", "localstates", "purification", "postselection-chain"):
        _require(args, "eps")
        fn = {"leak": sb.leak_bound, "localstates": sb.localstates_lift,
              "purification": sb.purification_lift,
              "postselection-chain": sb.postselection_chain}[chain]
        report = sb.bound_report(chain, {"epsilon": args.eps}, fn(args.eps))
    elif chain == "hoeffding":
        _require(args, "eta", "k")
        report = sb.bound_report("hoeffding", {"eta": args.eta, "k": args.k},
                                 sb.hoeffding_pe_abort(args.eta, args.k))
    elif chain == "robustness":
        _require(args, "beta", "f-min", "k", "M", "xi")
        inp = sb.RobustnessInput(args.beta, args.f_min, args.k, args.M, args.xi)
        res = sb.robustness_bound(inp)
        report = sb.bound_report(
            "robustness",
            {"beta": args.beta, "f_min": args.f_min, "k": args.k,
             "M": args.M, "xi": args.xi, "margin": res.margin,
             "undistillable": res.undistillable,
             "budget_consistent": res.budget_consistent},
            res.value, res.chain_terms)
    elif chain == "pair-budget":
        _require(args, "M", "xi")
        pb = sb.pair_budget(args.M, args.xi)
        report = {"bound_name": "pair-budget",
                  "inputs": {"M": args.M, "xi": args.xi},
                  "c": pb.c, "distillation_pairs": pb.distillation_pairs,
                  "k_exact": pb.k_exact, "k_ceil": pb.k_ceil,
                  "residual": pb.residual()}
    elif chain == "crossing-gap":
        _require(args, "f0")
        f0 = Decimal(args.f0)
        lam = fp.binary_lambda_max(f0)
        gap = sb.postselect_crossing_gap(lam)
        report = {"bound_name": "crossing-gap",
                  "inputs": {"f0": args.f0},
                  "lambda": float(lam), "gap_bits": gap,
                  "nontrivial": gap > 0}
    else:
        raise ValueError(f"unknown chain {chain!r}")
    with _open_out(args.out) as fh:
        emit_json(report, fh)
    return 0


def _random_density(rng, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / rho.trace().real


def _cmd_steering_audit(args, cfg) -> int:
    seed = resolve_seed(args, cfg)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    audits = []
    worst_slack = math.inf
    violations = 0
    for i in range(args.states):
        verdict = sv.product_form_check(_random_density(rng, 16),
                                        state_id=f"random-{i}")
        audits.append(verdict.as_audit_dict())
        worst_slack = min(worst_slack, verdict.slack)
        violations += 0 if verdict.holds else 1
    for i in range(args.states):
        rho = np.kron(_random_density(rng, 4), _random_density(rng, 4))
        verdict = sv.product_form_check(rho, state_id=f"product-{i}")
        audits.append(verdict.as_audit_dict())
        worst_slack = min(worst_slack, verdict.slack)
        violations += 0 if verdict.holds else 1
    payload = {
        "audits": audits,
        "summary": {"count": len(audits), "violations": violations,
                    "min_slack": worst_slack,
                    "t_inverse_norm": sv.t_inverse_norm(),
                    "constant": sv.steering_constant()},
        "meta": {"seed": seed, "states": args.states},
    }
    with _open_out(args.out) as fh:
        emit_json(payload, fh)
    return 0


def _mc_config(args, cfg) -> mc.ProtocolConfig:
    model = _resolve_noise(args, cfg)

    def from_cfg(opt, conv, fallback):
        if cfg.has_option("montecarlo", opt):
            return conv("montecarlo", opt)
        return fallback

    n_pairs = args.n_pairs if args.n_pairs is not None else from_cfg(
        "n_pairs", cfg.getint, None)
    beta = args.beta if args.beta is not None else from_cfg(
        "beta", cfg.getfloat, None)
    rounds = args.rounds if args.rounds is not None else from_cfg(
        "rounds", cfg.getint, None)
    trials = args.trials if args.trials is not None else from_cfg(
        "trials", cfg.getint, 1000)
    delta = args.delta if args.delta is not None else from_cfg(
        "delta", cfg.getfloat, None)
    if None in (n_pairs, beta, rounds):
        raise ValueError("--n-pairs, --beta and --rounds are required")
    f_min = args.f_min
    if f_min is None and cfg.has_option("montecarlo", "f_min"):
        f_min = cfg.get("montecarlo", "f_min")
    if f_min is None or f_min == "auto":
        if isinstance(model, nm.TwoQubitCorrelatedNoise):
            f_min = fp.bbpssw_two_qubit_fixed_points(model.f_tilde)[0]
        else:
            raise ValueError(
                "--f-min auto needs corr2 noise; give an explicit value")
    return mc.ProtocolConfig(n_pairs=n_pairs, beta=beta, noise=model,
                             rounds=rounds, f_min=float(f_min), delta=delta,
                             seed=resolve_seed(args, cfg), trials=trials)


def _cmd_montecarlo(args, cfg) -> int:
    config = _mc_config(args, cfg)
    check = mc.check_robustness(config)
    est, res = check.estimate, check.bound
    payload = {
        "config_hash": mc.config_hash(config),
        "trials": est.trials,
        "abort_rate": est.rate,
        "ci": [est.ci_low, est.ci_high],
        "bound": {"value": res.value, "vacuous": res.vacuous,
                  "undistillable": res.undistillable, "margin": res.margin,
                  "xi": check.xi},
        "seed": config.seed,
        "meta": {"config": config.as_dict()},
    }
    if args.emit == "csv":
        with _open_out(args.out) as fh:
            w = csv.writer(fh)
            w.writerow(["trial", "flag", "abort_stage", "rounds_completed",
                        "fidelity_estimate", "final_pairs"])
            for t in range(config.trials):
                o = mc.simulate_run(config, mc.trial_rng(config.seed, t))
                w.writerow([t, o.flag, o.abort_stage or "",
                            o.rounds_completed, _fmt(o.fidelity_estimate),
                            o.pair_counts[-1]])
        emit_json(payload, sys.stdout)
    else:
        with _open_out(args.out) as fh:
            emit_json(payload, fh)
    return 0


def _cmd_trace(args, cfg) -> int:
    if args.figure:
        with _open_out(args.out) as fh:
            emit_figure_data(args.figure, fh)
        return 0
    model = _resolve_noise(args, cfg)
    rmap, p0 = _protocol_map(args.protocol, model, full=args.full)
    if args.p0:
        p0 = np.array([float(x) for x in args.p0.split(",")])
        if p0.size != rmap.dim:
            raise ValueError(f"--p0 must have {rmap.dim} entries")
        if not (np.isfinite(p0).all() and p0.min() >= 0 and p0.sum() > 0):
            raise ValueError("--p0 entries must be finite and nonnegative"
                             " with a positive sum")
    with _open_out(args.out) as fh:
        rec.write_trace_csv(rmap, p0, args.rounds, fh)
    return 0


# ---------------------------------------------------------------------------
# figure data

def _reduced_series(f_values, kind, rounds):
    series = []
    for f in f_values:
        dist = nm.distribution_from(nm.noise_from_config(
            {"kind": kind, "parameter": f}))
        rmap = rec.reduced_dejmps_map(dist)
        q_fix = fp.reduced_noisy_dejmps_fixed_point(dist)
        q = np.array(_WERNER9)
        errs = []
        for _ in range(rounds):
            q, _n = rmap(q)
            errs.append(float(np.abs(q - q_fix).sum()))
        series.append(errs)
    return series


def _fig_dejmps_convergence(fh):
    fs = (0.97, 0.98, 0.99)
    rounds = 60
    series = _reduced_series(fs, "white", rounds)
    fh.write("# dejmps-convergence: 1-norm error to the reduced fixed point"
             " per round, single-qubit white noise\n")
    w = csv.writer(fh)
    w.writerow(["round"] + [f"err_f{f}" for f in fs])
    for r in range(rounds):
        w.writerow([r + 1] + [_fmt(series[i][r]) for i in range(len(fs))])


def _fig_lambda_max(fh):
    fh.write("# lambda-max: reduced-map spectral radius vs white-noise"
             " strength\n")
    w = csv.writer(fh)
    w.writerow(["one_minus_f", "spectral_radius"])
    for x in np.logspace(-4, -1, 25):
        dist = nm.distribution_from(nm.SingleQubitWhiteNoise(1.0 - x))
        q = fp.reduced_noisy_dejmps_fixed_point(dist)
        radius, _ = fp.jacobian_spectral_radius(rec.reduced_dejmps_map(dist), q)
        w.writerow([_fmt(x), _fmt(radius)])


def _fig_p0000_fixed(fh):
    fh.write("# p0000-fixed: dominant fixed-point probability vs white-noise"
             " strength\n")
    w = csv.writer(fh)
    w.writerow(["one_minus_f", "p0000"])
    for x in np.logspace(-4, -1, 25):
        dist = nm.distribution_from(nm.SingleQubitWhiteNoise(1.0 - x))
        q = fp.reduced_noisy_dejmps_fixed_point(dist)
        w.writerow([_fmt(x), _fmt(q[0])])


def _fig_bbpssw_convergence(fh):
    fh.write("# bbpssw-convergence: noiseless error decay from p=0.75 and"
             " successive-ratio approach to 2/3\n")
    w = csv.writer(fh)
    w.writerow(["round", "error", "ratio"])
    p_fix = fp.bbpssw_fixed_point(1.0)
    p = 0.75
    prev = None
    for r in range(1, 41):
        p, _n = rec.bbpssw_step(p, 1.0)
        err = abs(p - p_fix)
        w.writerow([r, _fmt(err), _fmt(err / prev) if prev else ""])
        prev = err


def _fig_discriminant(fh):
    fh.write("# discriminant: worst-case cubic discriminant vs f_I; sign"
             " change marks the critical noise level\n")
    w = csv.writer(fh)
    w.writerow(["f_i", "discriminant"])
    for f_i in np.arange(0.9, 1.0 + 2.5e-4, 5e-4):
        w.writerow([_fmt(f_i), _fmt(fp.worstcase_discriminant(float(f_i)))])


def _fig_gfix(fh):
    fh.write("# gfix: real fixed points of the worst-case recurrence vs"
             " f_I\n")
    w = csv.writer(fh)
    w.writerow(["f_i", "num_roots", "root1", "root2", "root3"])
    for f_i in np.arange(0.9, 1.0 + 1e-3, 2e-3):
        roots = fp.worstcase_fixed_points(float(f_i))
        cells = [_fmt(r) for r in roots] + [""] * (3 - roots.size)
        w.writerow([_fmt(f_i), roots.size] + cells)


def _fig_worstcase_attractivity(fh):
    fh.write("# worstcase-attractivity: |map derivative| at each real fixed"
             " point vs f_I\n")
    w = csv.writer(fh)
    w.writerow(["f_i", "root", "abs_slope"])
    for f_i in np.arange(0.9, 1.0 + 1e-3, 2e-3):
        rmap = rec.worstcase_map(float(f_i))
        for root in fp.worstcase_fixed_points(float(f_i)):
            radius, _ = fp.jacobian_spectral_radius(rmap, np.array([root]))
            w.writerow([_fmt(f_i), _fmt(root), _fmt(radius)])


def _fig_binary_postselect(fh):
    fh.write("# binary-postselect: contraction exponent -log2|lambda|/4 vs"
             " the polynomial degree 15; positive gap means the"
             " post-selection bound eventually decreases\n")
    w = csv.writer(fh)
    w.writerow(["one_minus_f0", "quarter_log2_lambda", "degree", "gap_bits"])
    for e in range(-22, -15):
        one_minus = Decimal(10) ** e
        lam = fp.binary_lambda_max(Decimal(1) - one_minus)
        gap = sb.postselect_crossing_gap(lam)
        w.writerow([f"1e{e}", _fmt(gap + 15.0), _fmt(15.0), _fmt(gap)])


_FIGURES = {
    "dejmps-convergence": _fig_dejmps_convergence,
    "lambda-max": _fig_lambda_max,
    "p0000-fixed": _fig_p0000_fixed,
    "bbpssw-convergence": _fig_bbpssw_convergence,
    "discriminant": _fig_discriminant,
    "gfix": _fig_gfix,
    "worstcase-attractivity": _fig_worstcase_attractivity,
    "binary-postselect": _fig_binary_postselect,
}


def emit_figure_data(name: str, fh) -> None:
    """Write one figure's data series as commented CSV; deterministic."""
    if name not in _FIGURES:
        raise ValueError(f"unknown figure {name!r}; choose from "
                         + ", ".join(FIGURE_NAMES))
    _FIGURES[name](fh)


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdistill",
        description="entanglement distillation recurrence analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--config", default=None, help="INI config file")

    p = sub.add_parser("fixed-point", help="locate a fixed point and its stability")
    common(p)
    p.add_argument("--protocol", required=True,
                   choices=["dejmps", "bbpssw", "binary"])
    p.add_argument("--noise", default=None, help="kind:parameter")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--maxiter", type=int, default=10000)

    p = sub.add_parser("scan", help="fixed points across a noise grid")
    common(p)
    p.add_argument("--protocol", required=True,
                   choices=["dejmps", "bbpssw", "binary"])
    p.add_argument("--noise-grid", required=True, help="lo:hi:step")
    p.add_argument("--noise-kind", default="white", choices=["white", "corr2"])
    p.add_argument("--emit", default="csv", choices=["json", "csv"])

    p = sub.add_parser("bounds", help="bound arithmetic")
    common(p)
    p.add_argument("--chain", required=True,
                   choices=["definetti", "postselection", "leak",
                            "localstates", "purification",
                            "postselection-chain", "hoeffding", "robustness",
                            "pair-budget", "crossing-gap"])
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=float, default=None)
    p.add_argument("--epsP", type=float, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--f-min", type=float, default=None, dest="f_min")
    p.add_argument("--M", type=int, default=None)
    p.add_argument("--xi", type=float, default=None)
    p.add_argument("--f0", default=None,
                   help="binary noise parameter (decimal string)")

    p = sub.add_parser("steering-audit", help="product-form bound audit")
    common(p)
    p.add_argument("--states", type=int, default=20)

    p = sub.add_parser("montecarlo", help="abort-rate campaign")
    common(p)
    p.add_argument("--n-pairs", type=int, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--noise", default=None)
    p.add_argument("--rounds", type=int, default=None)
    p.add_argument("--f-min", default=None, dest="f_min",
                   help="number or 'auto' (corr2 noise only)")
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--emit", default="json", choices=["json", "csv"])

    p = sub.add_parser("trace", help="per-round trajectory or figure data")
    common(p)
    p.add_argument("--protocol", default="dejmps",
                   choices=["dejmps", "bbpssw", "binary"])
    p.add_argument("--noise", default=None)
    p.add_argument("--rounds", type=int, default=20)
    p.add_argument("--p0", default=None, help="comma-separated start vector")
    p.add_argument("--full", action="store_true",
                   help="trace the 16-variable map instead of the reduced one")
    p.add_argument("--figure", default=None, choices=list(FIGURE_NAMES))

    return parser


_DISPATCH = {
    "fixed-point": _cmd_fixed_point,
    "scan": _cmd_scan,
    "bounds": _cmd_bounds,
    "steering-audit": _cmd_steering_audit,
    "montecarlo": _cmd_montecarlo,
    "trace": _cmd_trace,
}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _load_config(args.config)
        return _DISPATCH[args.command](args, cfg)
    except (fp.NonConvergenceError, rec.DegenerateStepError) as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 3
    except (ValueError, configparser.Error, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

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
from decimal import Decimal, InvalidOperation
from functools import cache

import numpy as np

from . import fixed_point as fp
from . import montecarlo as mc
from . import noise_models as nm
from . import recurrence as rec
from . import security_bounds as sb
from . import steering_verify as sv
from .quantum_core import CORRELATED_SUPPORT, _kron_stack


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
            p0[CORRELATED_SUPPORT] = fp.DEJMPS_START
            return rec.noisy_dejmps_map(dist), p0
        return rec.reduced_dejmps_map(dist), np.array(fp.DEJMPS_START)
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
        "noise": nm.noise_to_config(model),
        "location": list(report.location),
        "residual": report.residual,
        "attracting": report.attracting,
        "lambda_max": report.lambda_max,
        "iterations_used": report.iterations_used,
        "newton_steps": report.newton_steps,
        "meta": {"seed": resolve_seed(args, cfg), "tol": args.tol,
                 "maxiter": args.maxiter},
    }
    with _open_out(args.out) as fh:
        emit_json(payload, fh)
    if not report.converged:
        print("fixed-point iteration did not converge", file=sys.stderr)
        return 3
    return 0


#: Most points a --noise-grid may hold; each point is one solve.
_MAX_GRID_POINTS = 10_000


def _parse_grid(spec: str) -> np.ndarray:
    """Noise parameters lo, lo + step, ... up to hi, all in [0, 1].

    np.arange's lo + i * step may land a rounding error past hi: a point at
    most step * 1e-6 past hi still counts, and one past 1 is set to 1."""
    try:
        lo, hi, step = (float(x) for x in spec.split(":"))
    except ValueError:
        raise ValueError(f"grid {spec!r} must look like lo:hi:step") from None
    if not 0 <= lo <= hi <= 1:
        raise ValueError("grid needs finite bounds with 0 <= lo <= hi <= 1")
    if not 0 < step < math.inf:
        raise ValueError("grid needs a finite step > 0")
    # np.arange's length, before it rounds up to a whole number of points.
    count = (hi + step / 2 - lo) / step
    if count > _MAX_GRID_POINTS:
        raise ValueError(
            f"grid {spec!r} has more than {_MAX_GRID_POINTS} points")
    grid = np.arange(lo, hi + step / 2, step)
    return np.minimum(grid[grid <= hi + step * 1e-6], 1.0)


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
            report = fp.reduced_noisy_dejmps_fixed_point(nm.distribution_from(
                nm.noise_from_config({"kind": args.noise_kind,
                                      "parameter": float(val)})))
            rows.append((val, report.location[0], report.lambda_max))
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


def _postselection_report(a) -> dict:
    report = sb.bound_report("postselection", {"n": a.n, "epsilon_P": a.epsP},
                             sb.postselection_bound(a.n, a.epsP))
    report["log_value"] = sb.postselection_bound_log(a.n, a.epsP)
    return report


def _lift_report(a, value) -> dict:
    return sb.bound_report(a.chain, {"epsilon": a.eps}, value)


def _robustness_report(a) -> dict:
    res = sb.robustness_bound(
        sb.RobustnessInput(a.beta, a.f_min, a.k, a.M, a.xi))
    return sb.bound_report(
        "robustness",
        {"beta": a.beta, "f_min": a.f_min, "k": a.k, "M": a.M, "xi": a.xi,
         "margin": res.margin, "undistillable": res.undistillable,
         "budget_consistent": res.budget_consistent},
        res.value, res.chain_terms)


def _pair_budget_report(a) -> dict:
    pb = sb.pair_budget(a.M, a.xi)
    return {"bound_name": "pair-budget", "inputs": {"M": a.M, "xi": a.xi},
            "c": pb.c, "distillation_pairs": pb.distillation_pairs,
            "k_exact": pb.k_exact, "k_ceil": pb.k_ceil,
            "residual": pb.residual()}


def _crossing_gap_report(a) -> dict:
    try:
        f0 = Decimal(a.f0)
    except InvalidOperation:
        raise ValueError(f"--f0 {a.f0!r} is not a decimal number") from None
    lam = fp.binary_lambda_max(f0)
    gap = sb.postselect_crossing_gap(lam)
    return {"bound_name": "crossing-gap", "inputs": {"f0": a.f0},
            "lambda": float(lam), "gap_bits": gap, "nontrivial": gap > 0}


# chain -> (required flags, report builder).  The builders look each bound
# function up on ``sb`` at call time, so wrappers installed on the module
# (perfbench's tracer) see every call.
_BOUNDS = {
    "definetti": (("n", "k", "epsP"), lambda a: sb.bound_report(
        "definetti", {"n": a.n, "k": a.k, "epsilon_P": a.epsP},
        sb.definetti_bound(a.n, a.k, a.epsP))),
    "postselection": (("n", "epsP"), _postselection_report),
    "leak": (("eps",), lambda a: _lift_report(a, sb.leak_bound(a.eps))),
    "localstates": (("eps",),
                    lambda a: _lift_report(a, sb.localstates_lift(a.eps))),
    "purification": (("eps",),
                     lambda a: _lift_report(a, sb.purification_lift(a.eps))),
    "postselection-chain": (
        ("eps",), lambda a: _lift_report(a, sb.postselection_chain(a.eps))),
    "hoeffding": (("eta", "k"), lambda a: sb.bound_report(
        "hoeffding", {"eta": a.eta, "k": a.k},
        sb.hoeffding_pe_abort(a.eta, a.k))),
    "robustness": (("beta", "f-min", "k", "M", "xi"), _robustness_report),
    "pair-budget": (("M", "xi"), _pair_budget_report),
    "crossing-gap": (("f0",), _crossing_gap_report),
}


def _cmd_bounds(args, cfg) -> int:
    flags, build = _BOUNDS[args.chain]
    missing = [f for f in flags if getattr(args, f.replace("-", "_")) is None]
    if missing:
        raise ValueError(
            f"--{', --'.join(missing)} required for chain {args.chain!r}")
    report = build(args)
    with _open_out(args.out) as fh:
        emit_json(report, fh)
    return 0


def _random_densities(rng, shape: tuple, dim: int) -> np.ndarray:
    """Ginibre density matrices of ``dim`` for each index of ``shape``,
    each drawn as one real then one imaginary Gaussian block."""
    g = rng.standard_normal(shape + (2, dim, dim))
    g = g[..., 0, :, :] + 1j * g[..., 1, :, :]
    rho = g @ g.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


def _random_products(rng, n: int) -> np.ndarray:
    """``n`` products rho_A ⊗ rho_B of two-qubit Ginibre states, each
    drawn rho_A first."""
    pairs = _random_densities(rng, (n, 2), 4)
    return _kron_stack(pairs[:, 0], pairs[:, 1])


#: Most states a steering audit draws of each kind, random and product;
#: each one is a product-form check.
_MAX_AUDIT_STATES = 10_000

#: States drawn and audited together; bounds the memory a large audit holds
#: beyond its verdicts.
_AUDIT_CHUNK = 256


def _cmd_steering_audit(args, cfg) -> int:
    if args.states < 1:
        raise ValueError("--states must be at least 1")
    if args.states > _MAX_AUDIT_STATES:
        raise ValueError(f"--states must be at most {_MAX_AUDIT_STATES}")
    seed = resolve_seed(args, cfg)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    k = args.states
    ids = [f"{kind}-{i}" for kind in ("random", "product") for i in range(k)]
    verdicts = []
    for start in range(0, 2 * k, _AUDIT_CHUNK):
        stop = min(start + _AUDIT_CHUNK, 2 * k)
        # All random states first, then all products: the order of the draws.
        n_random = max(0, min(stop, k) - start)
        states = np.concatenate([_random_densities(rng, (n_random,), 16),
                                 _random_products(rng, stop - start - n_random)])
        verdicts += sv.product_form_batch(states, state_ids=ids[start:stop])
    payload = {
        "audits": [v.as_audit_dict() for v in verdicts],
        "summary": {"count": len(verdicts),
                    "violations": sum(not v.holds for v in verdicts),
                    "min_slack": min(v.slack for v in verdicts),
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
            done = config.rounds + 1
            names = ["parameter_estimation"] + [
                f"round {m}" for m in range(1, done)] + [""]
            t = 0
            for f_hat, stage, pairs in mc.sample_campaign(config):
                for f, s, k in zip(f_hat.tolist(), stage.tolist(),
                                   pairs.tolist()):
                    w.writerow([t, "ok" if s == done else "fail", names[s],
                                max(s - 1, 0), _fmt(f), k])
                    t += 1
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
    if args.rounds < 0:
        raise ValueError("--rounds must be nonnegative")
    if args.full and args.protocol != "dejmps":
        raise ValueError("--full applies to --protocol dejmps only")
    model = _resolve_noise(args, cfg)
    rmap, p0 = _protocol_map(args.protocol, model, full=args.full)
    if args.p0:
        p0 = np.array([float(x) for x in args.p0.split(",")])
        if p0.size != rmap.dim:
            raise ValueError(f"--p0 must have {rmap.dim} entries")
        if not (np.isfinite(p0).all() and p0.min() >= 0 and p0.sum() > 0):
            raise ValueError("--p0 entries must be finite and nonnegative"
                             " with a positive sum")
        if rmap.dim == 1 and p0[0] > 1:
            raise ValueError("--p0 of a one-variable map must be at most 1")
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
        q_fix = fp.reduced_noisy_dejmps_fixed_point(dist).location
        q = np.array(fp.DEJMPS_START)
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


@cache
def _white_noise_solutions() -> tuple:
    """(1 - f, q00 of the fixed point, spectral radius) of the reduced map
    at 25 white-noise strengths, shared by the lambda-max and p0000
    figures."""
    rows = []
    for x in np.logspace(-4, -1, 25):
        report = fp.reduced_noisy_dejmps_fixed_point(
            nm.distribution_from(nm.SingleQubitWhiteNoise(1.0 - x)))
        rows.append((x, report.location[0], report.lambda_max))
    return tuple(rows)


def _fig_lambda_max(fh):
    fh.write("# lambda-max: reduced-map spectral radius vs white-noise"
             " strength\n")
    w = csv.writer(fh)
    w.writerow(["one_minus_f", "spectral_radius"])
    for x, _q00, radius in _white_noise_solutions():
        w.writerow([_fmt(x), _fmt(radius)])


def _fig_p0000_fixed(fh):
    fh.write("# p0000-fixed: dominant fixed-point probability vs white-noise"
             " strength\n")
    w = csv.writer(fh)
    w.writerow(["one_minus_f", "p0000"])
    for x, q00, _radius in _white_noise_solutions():
        w.writerow([_fmt(x), _fmt(q00)])


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
            radius = fp.jacobian_spectral_radius(rmap, np.array([root]))
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

FIGURE_NAMES = tuple(_FIGURES)


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
    p.add_argument("--chain", required=True, choices=list(_BOUNDS))
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


@cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process for :func:`run`; ``parse_args`` builds a
    fresh Namespace on each call, so sharing it is safe."""
    return build_parser()


_DISPATCH = {
    "fixed-point": _cmd_fixed_point,
    "scan": _cmd_scan,
    "bounds": _cmd_bounds,
    "steering-audit": _cmd_steering_audit,
    "montecarlo": _cmd_montecarlo,
    "trace": _cmd_trace,
}


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
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

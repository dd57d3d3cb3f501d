"""Command-line surface.

Six subcommands: fixed-point, scan, bounds, steering-audit, montecarlo,
trace.  JSON for single results, CSV for series, every float serialized
with 17 significant digits so outputs round-trip doubles losslessly.
Exit codes: 0 success, 2 validation/usage error, 3 numerical
non-convergence.

Every setting is resolved by one rule: its flag, then the DISTILL_SEED
environment variable (the seed only), then its option in the flat INI
config file ([run] seed; [montecarlo] n_pairs, beta, rounds, f_min, delta,
trials), then its default in the grammar table; a seed must fit in 64
bits.  A [noise] section (kind, parameter) stands in for --noise.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import math
import os
import sys
from contextlib import contextmanager
from decimal import Decimal, InvalidOperation
from functools import cache, lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

import numpy as np

from . import fixed_point as fp
from . import montecarlo as mc
from . import noise_models as nm
from . import recurrence as rec
from . import security_bounds as sb
from . import steering_verify as sv
from .quantum_core import BellDiagonalState, LabeledEnsembleState, _kron_stack


# ---------------------------------------------------------------------------
# serialization

def _fmt(x) -> str:
    return format(float(x), ".17g")


#: The tokens of the three strings ``_fmt`` gives a non-finite float.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(x) -> str:
    s = _fmt(x)
    return _NON_FINITE.get(s, s)


def _json_dict(obj) -> str:
    return "{" + ", ".join(
        f"{encode_basestring_ascii(str(k))}: {_json_token(v)}"
        for k, v in obj.items()) + "}"


def _json_seq(obj) -> str:
    return "[" + ", ".join(map(_json_token, obj)) + "]"


#: Encoders of the exact built-in types, and of numpy's float64, the one
#: numpy scalar the outputs hold often.
_JSON_BY_TYPE = {
    type(None): lambda _: "null",
    bool: lambda b: "true" if b else "false",
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _json_float,
    np.float64: _json_float,
    dict: _json_dict,
    list: _json_seq,
    tuple: _json_seq,
}

#: Encoders of every other type, tested in order.  bool and None cannot be
#: subclassed, so the exact types above catch all of them.
_JSON_BY_CLASS = (
    (str, encode_basestring_ascii),
    ((int, np.integer), lambda i: str(int(i))),
    ((float, np.floating), _json_float),
    (dict, _json_dict),
    ((list, tuple, np.ndarray), _json_seq),
)


def _json_token(obj) -> str:
    # Nearly every value in an output is a built-in None, bool, str, int,
    # float, dict, list or tuple, or a float64, and one dict lookup on its
    # exact type finds its encoder; a chain of isinstance tests costs up to
    # six calls a value.  Other numpy scalars, arrays and subclasses fall
    # through to that chain and reach the same encoders, so the bytes do
    # not depend on the path taken.
    encode = _JSON_BY_TYPE.get(type(obj))
    if encode is None:
        for cls, encode in _JSON_BY_CLASS:
            if isinstance(obj, cls):
                break
        else:
            raise TypeError(f"cannot serialize {type(obj)!r}")
    return encode(obj)


def emit_json(obj, fh) -> None:
    """JSON with floats at 17 significant digits (bit-exact round trip)."""
    fh.write(_json_token(obj))
    fh.write("\n")


def _write_table(fh, header, rows, caption=None) -> None:
    """One CSV table: an optional ``# caption`` line, the header, the rows.
    Cells arrive formatted: the caller puts each float through
    :func:`_fmt`."""
    if caption:
        fh.write(f"# {caption}\n")
    writer = csv.writer(fh)
    writer.writerow(header)
    writer.writerows(rows)


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


#: The parser of every request without --config; shared, so never written.
_NO_CONFIG = configparser.ConfigParser()


def _load_config(path):
    if not path:
        return _NO_CONFIG
    cfg = configparser.ConfigParser()
    if not cfg.read(path):
        raise ValueError(f"config file {path!r} not found or unreadable")
    return cfg


def _setting(args, cfg, section, name, conv, env=None):
    """Setting ``name``: its flag, then the ``env`` variable, then option
    ``name`` of config ``section``, each if named; ``conv`` of the first
    one given, or None.  A ValueError of ``conv`` names that source."""
    value, source = getattr(args, name, None), None
    if value is None and env is not None:
        value, source = os.environ.get(env), env
    if value is None and section is not None:
        value = cfg.get(section, name, fallback=None)
        source = f"[{section}] {name}"
    try:
        return None if value is None else conv(value)
    except ValueError as exc:
        source = source or "--" + name.replace("_", "-")
        raise ValueError(f"{source}: {exc}") from None


def _seed(value) -> int:
    """A seed of numpy's SeedSequence: a U64."""
    seed = int(value)
    if not 0 <= seed < 2 ** 64:
        raise ValueError("seed must fit in 64 bits")
    return seed


def _resolve_noise(args, cfg):
    if getattr(args, "noise", None):
        return parse_noise(args.noise)
    if cfg.has_section("noise"):
        kind, parameter = (_setting(args, cfg, "noise", name, conv)
                           for name, conv in (("kind", str),
                                              ("parameter", float)))
        if None in (kind, parameter):
            raise ValueError("[noise] needs both kind and parameter")
        return nm.noise_from_config({"kind": kind, "parameter": parameter})
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
            p0 = LabeledEnsembleState.from_bell_diagonal(
                BellDiagonalState(fp.DEJMPS_START)).p
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
        "meta": {"seed": args.seed, "tol": args.tol,
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
    most step * 1e-6 past hi still counts, and one past 1 is set to 1.  A
    step too small to move hi leaves np.arange empty when lo == hi; that
    grid is lo alone."""
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
    grid = np.arange(lo, hi + step / 2, step) if count > 0 else np.array([lo])
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
        header = (args.noise_kind + "_parameter", "q00_fixed", "spectral_radius",
                  "iterations", "newton_steps", "residual")
        for val in grid:
            report = fp.reduced_noisy_dejmps_fixed_point(nm.distribution_from(
                nm.noise_from_config({"kind": args.noise_kind,
                                      "parameter": float(val)})))
            rows.append((val, report.location[0], report.lambda_max,
                         report.iterations_used, report.newton_steps,
                         report.residual))
    with _open_out(args.out) as fh:
        if args.emit == "csv":
            _write_table(fh, header, ([_fmt(x) for x in r] for r in rows))
        else:
            emit_json({
                "protocol": args.protocol,
                "columns": list(header),
                "rows": [list(r) for r in rows],
                "meta": {"grid": args.noise_grid,
                         "seed": args.seed},
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
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(args.seed)))
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
        "meta": {"seed": args.seed, "states": args.states},
    }
    with _open_out(args.out) as fh:
        emit_json(payload, fh)
    return 0


def _f_min(value):
    """``--f-min``: a number, or "auto"."""
    return value if value == "auto" else float(value)


def _mc_config(args, cfg) -> mc.ProtocolConfig:
    model = _resolve_noise(args, cfg)
    if None in (args.n_pairs, args.beta, args.rounds):
        raise ValueError("--n-pairs, --beta and --rounds are required")
    f_min = args.f_min
    if f_min == "auto":
        if not isinstance(model, nm.TwoQubitCorrelatedNoise):
            raise ValueError(
                "--f-min auto needs corr2 noise; give an explicit value")
        f_min = float(fp.bbpssw_two_qubit_fixed_points(model.f_tilde)[0])
    return mc.ProtocolConfig(n_pairs=args.n_pairs, beta=args.beta,
                             noise=model, rounds=args.rounds, f_min=f_min,
                             delta=args.delta, seed=args.seed,
                             trials=args.trials)


@lru_cache(maxsize=8)
class _EstimateCells(dict):
    """The F-hat cells of one mpp by win count, formatted when first
    written and kept for later requests: at most 4096, however large mpp."""

    def __init__(self, mpp: int):
        self.mpp = mpp

    def __missing__(self, wins: int) -> str:
        if len(self) >= 4096:
            self.clear()
        text = self[wins] = _fmt(mc._fidelity_estimate(wins, self.mpp))
        return text


def _cmd_montecarlo(args, cfg) -> int:
    config = _mc_config(args, cfg)
    csv_out = args.emit == "csv"

    def write_trials(blocks):
        # With --emit csv the trials go to --out as the estimate counts
        # them, in one pass, and the JSON goes to stdout.  A row's middle
        # cells follow from its stage and its estimate from its win count,
        # in cells that requests of the same mpp share, so a block is one
        # write; no cell needs CSV quoting (a number, a stage name or empty).
        lead = ["fail,parameter_estimation,0"] + [
            f"fail,round {m},{m - 1}" for m in range(1, config.rounds + 1)
        ] + [f"ok,,{config.rounds}"]
        text = _EstimateCells(math.isqrt(config.n_pairs) // 2)
        first = 0
        with _open_out(args.out) as fh:
            _write_table(fh, ["trial", "flag", "abort_stage",
                              "rounds_completed", "fidelity_estimate",
                              "final_pairs"], ())
            for wins, stage, pairs in blocks:
                fh.write("".join([
                    f"{t},{lead[s]},{text[w]},{k}\r\n" for t, s, w, k in zip(
                        range(first, first + stage.size), stage.tolist(),
                        wins.tolist(), pairs.tolist())]))
                first += stage.size

    check = mc.check_robustness(config, write_trials if csv_out else None)
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
    with _open_out(None if csv_out else args.out) as fh:
        emit_json(payload, fh)
    return 0


def _cmd_trace(args, cfg) -> int:
    if args.figure:
        # a figure reads no option of the trace it replaces
        ignored = [f"--{name}" for name in
                   ("protocol", "noise", "rounds", "p0", "full")
                   if name in args.given]
        if ignored:
            raise ValueError(f"--figure takes no {', '.join(ignored)}")
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
        if rmap.dim == 1:
            # a one-variable start is a fidelity or a Werner parameter
            if not 0 <= p0[0] <= 1:
                raise ValueError("--p0 of a one-variable map must be finite,"
                                 " at least 0 and at most 1")
        else:
            try:  # correctly rounded, so a vector that sums to 1 stays as is
                total = math.fsum(p0)
            except (OverflowError, ValueError):  # overflow, or inf - inf
                total = math.nan
            if not (np.isfinite(p0).all() and p0.min() >= 0
                    and 0 < total < math.inf):
                raise ValueError("--p0 entries must be finite and nonnegative"
                                 " with a positive finite sum")
            # A table map is homogeneous: scaled to sum 1, its start gives
            # the same update, and no step over- or underflows.
            p0 = p0 / total
    rows = ([r] + [_fmt(x) for x in p] + [_fmt(n)] for r, (p, n)
            in enumerate(rec.trajectory(rmap, p0, args.rounds), 1))
    with _open_out(args.out) as fh:
        _write_table(fh, ["round"] + [f"p{i}" for i in range(rmap.dim)] + ["N"],
                     chain([[0] + [_fmt(x) for x in p0] + [""]], rows))
    return 0


# ---------------------------------------------------------------------------
# figure data

#: White-noise strengths f of the dejmps-convergence figure.
_CONVERGENCE_F = (0.97, 0.98, 0.99)


def _dejmps_convergence_rows():
    series = []
    for f in _CONVERGENCE_F:
        dist = nm.distribution_from(nm.SingleQubitWhiteNoise(f))
        q_fix = fp.reduced_noisy_dejmps_fixed_point(dist).location
        series.append([_fmt(np.abs(q - q_fix).sum()) for q, _n in rec.trajectory(
            rec.reduced_dejmps_map(dist), fp.DEJMPS_START, 60)])
    return [(r, *errs) for r, errs in enumerate(zip(*series), 1)]


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


def _bbpssw_convergence_rows():
    p_fix = fp.bbpssw_fixed_point(1.0)
    errs = [abs(p[0] - p_fix)
            for p, _n in rec.trajectory(rec.bbpssw_map(1.0), [0.75], 40)]
    return [(r, _fmt(err), _fmt(err / prev) if prev else "")
            for r, (prev, err) in enumerate(zip([None] + errs, errs), 1)]


def _gfix_rows():
    for f_i in np.arange(0.9, 1.0 + 1e-3, 2e-3):
        roots = fp.worstcase_fixed_points(float(f_i))
        yield ([_fmt(f_i), roots.size] + [_fmt(r) for r in roots]
               + [""] * (3 - roots.size))


def _worstcase_attractivity_rows():
    for f_i in np.arange(0.9, 1.0 + 1e-3, 2e-3):
        rmap = rec.worstcase_map(float(f_i))
        for root in fp.worstcase_fixed_points(float(f_i)):
            radius = fp.jacobian_spectral_radius(rmap, np.array([root]))
            yield _fmt(f_i), _fmt(root), _fmt(radius)


def _binary_postselect_rows():
    for e in range(-22, -15):
        lam = fp.binary_lambda_max(Decimal(1) - Decimal(10) ** e)
        gap = sb.postselect_crossing_gap(lam)
        yield f"1e{e}", _fmt(gap + 15.0), _fmt(15.0), _fmt(gap)


# name -> (caption, header, rows function)
_FIGURES = {
    "dejmps-convergence": (
        "1-norm error to the reduced fixed point per round, single-qubit"
        " white noise", ["round"] + [f"err_f{f}" for f in _CONVERGENCE_F],
        _dejmps_convergence_rows),
    "lambda-max": (
        "reduced-map spectral radius vs white-noise strength",
        ["one_minus_f", "spectral_radius"],
        lambda: [(_fmt(x), _fmt(radius))
                 for x, _q00, radius in _white_noise_solutions()]),
    "p0000-fixed": (
        "dominant fixed-point probability vs white-noise strength",
        ["one_minus_f", "p0000"],
        lambda: [(_fmt(x), _fmt(q00))
                 for x, q00, _radius in _white_noise_solutions()]),
    "bbpssw-convergence": (
        "noiseless error decay from p=0.75 and successive-ratio approach"
        " to 2/3", ["round", "error", "ratio"], _bbpssw_convergence_rows),
    "discriminant": (
        "worst-case cubic discriminant vs f_I; sign change marks the"
        " critical noise level", ["f_i", "discriminant"],
        lambda: [(_fmt(f_i), _fmt(fp.worstcase_discriminant(float(f_i))))
                 for f_i in np.arange(0.9, 1.0 + 2.5e-4, 5e-4)]),
    "gfix": (
        "real fixed points of the worst-case recurrence vs f_I",
        ["f_i", "num_roots", "root1", "root2", "root3"], _gfix_rows),
    "worstcase-attractivity": (
        "|map derivative| at each real fixed point vs f_I",
        ["f_i", "root", "abs_slope"], _worstcase_attractivity_rows),
    "binary-postselect": (
        "contraction exponent -log2|lambda|/4 vs the polynomial degree 15;"
        " positive gap means the post-selection bound eventually decreases",
        ["one_minus_f0", "quarter_log2_lambda", "degree", "gap_bits"],
        _binary_postselect_rows),
}

FIGURE_NAMES = tuple(_FIGURES)


def emit_figure_data(name: str, fh) -> None:
    """Write one figure's data series as commented CSV; deterministic."""
    if name not in _FIGURES:
        raise ValueError(f"unknown figure {name!r}; choose from "
                         + ", ".join(FIGURE_NAMES))
    caption, header, rows = _FIGURES[name]
    _write_table(fh, header, rows(), caption=f"{name}: {caption}")


# ---------------------------------------------------------------------------
# parser

class _Flag(NamedTuple):
    """One flag of a subcommand: its type (``bool``: it takes no value and
    stores True), its default or :data:`REQUIRED`, its choices, its help
    text, the config ``section`` that may also give it, the ``env`` variable
    read before that, and the ``convert`` of its value (its type if None)."""
    type: type = str
    default: object = None
    choices: tuple | None = None
    help: str | None = None
    section: str | None = None
    env: str | None = None
    convert: object = None


#: The default of a flag that every request of its subcommand must give.
REQUIRED = object()

_INT, _FLOAT = _Flag(int), _Flag(float)
_MC_INT, _MC_FLOAT = (_Flag(t, section="montecarlo") for t in (int, float))
_EMIT = ("json", "csv")
_PROTOCOL = _Flag(default=REQUIRED, choices=("dejmps", "bbpssw", "binary"))

#: The flags of every subcommand, ahead of its own.
_COMMON = {"--out": _Flag(help="output path (default stdout)"),
           "--seed": _Flag(int, 0, section="run", env="DISTILL_SEED",
                           convert=_seed),
           "--config": _Flag(help="INI config file")}

#: The command line: each subcommand's help line, its flags, in the order
#: its help lists them, and the function that runs it.  The argparse
#: parser (:func:`build_parser`), the plain-request reader
#: (:func:`_plain_parse`) and the settings :func:`_dispatch` fills in are
#: all built from it.  A flag's attribute is its name without the leading
#: dashes, each inner dash an underscore, as argparse derives it.
_GRAMMAR = {
    "fixed-point": ("locate a fixed point and its stability", {
        **_COMMON, "--protocol": _PROTOCOL,
        "--noise": _Flag(help="kind:parameter"),
        "--tol": _Flag(float, 1e-12), "--maxiter": _Flag(int, 10000)},
        _cmd_fixed_point),
    "scan": ("fixed points across a noise grid", {
        **_COMMON, "--protocol": _PROTOCOL,
        "--noise-grid": _Flag(default=REQUIRED, help="lo:hi:step"),
        "--noise-kind": _Flag(default="white", choices=("white", "corr2")),
        "--emit": _Flag(default="csv", choices=_EMIT)}, _cmd_scan),
    "bounds": ("bound arithmetic", {
        **_COMMON, "--chain": _Flag(default=REQUIRED, choices=tuple(_BOUNDS)),
        "--n": _INT, "--k": _FLOAT, "--epsP": _FLOAT, "--eps": _FLOAT,
        "--eta": _FLOAT, "--beta": _FLOAT, "--f-min": _FLOAT, "--M": _INT,
        "--xi": _FLOAT,
        "--f0": _Flag(help="binary noise parameter (decimal string)")},
        _cmd_bounds),
    "steering-audit": ("product-form bound audit",
                       {**_COMMON, "--states": _Flag(int, 20)},
                       _cmd_steering_audit),
    "montecarlo": ("abort-rate campaign", {
        **_COMMON, "--n-pairs": _MC_INT, "--beta": _MC_FLOAT,
        "--noise": _Flag(), "--rounds": _MC_INT,
        "--f-min": _Flag(default="auto", section="montecarlo", convert=_f_min,
                         help="number or 'auto' (corr2 noise only)"),
        "--delta": _MC_FLOAT, "--trials": _MC_INT._replace(default=1000),
        "--emit": _Flag(default="json", choices=_EMIT)}, _cmd_montecarlo),
    "trace": ("per-round trajectory or figure data", {
        **_COMMON, "--protocol": _PROTOCOL._replace(default="dejmps"),
        "--noise": _Flag(), "--rounds": _Flag(int, 20),
        "--p0": _Flag(help="comma-separated start vector"),
        "--full": _Flag(bool, help="trace the 16-variable map instead of"
                        " the reduced one"),
        "--figure": _Flag(choices=FIGURE_NAMES)}, _cmd_trace),
}


def build_parser() -> argparse.ArgumentParser:
    """A fresh argparse parser of :data:`_GRAMMAR`; it applies no default."""
    parser = argparse.ArgumentParser(
        prog="qdistill",
        description="entanglement distillation recurrence analysis")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, flags, _) in _GRAMMAR.items():
        p = sub.add_parser(command, help=help_line)
        for flag, spec in flags.items():
            if spec.type is bool:
                p.add_argument(flag, action="store_true", help=spec.help)
                continue
            p.add_argument(flag, type=spec.type, choices=spec.choices,
                           required=spec.default is REQUIRED, help=spec.help)
    return parser


#: One parser per process for :func:`run`; each parse builds a fresh
#: Namespace, so sharing it is safe.
_parser = cache(build_parser)


@cache
def _table(command: str):
    """What a subcommand's readers take from :data:`_GRAMMAR`, once per
    process: ``lookup`` maps each flag that takes a value to its attribute,
    type and choices; ``values`` holds the command and each attribute as an
    absent flag leaves it; ``required`` the required attributes; and
    ``settings`` ``(attribute, convert, env, section, default)`` of each
    flag with a section or a default."""
    lookup, values, required, settings = {}, {"command": command}, [], []
    for flag, spec in _GRAMMAR[command][1].items():
        dest = flag[2:].replace("-", "_")
        values[dest] = False if spec.type is bool else None
        if spec.type is not bool:
            lookup[flag] = dest, spec.type, spec.choices
        if spec.default is REQUIRED:
            required.append(dest)
        elif spec.section is not None or spec.default is not None:
            settings.append((dest, spec.convert or spec.type, spec.env,
                             spec.section, spec.default))
    return lookup, values, required, settings


def _plain_parse(argv):
    """The Namespace that ``build_parser().parse_args(argv)`` gives a request
    of the form ``COMMAND (--flag VALUE)*``, each flag spelled in full,
    read from :data:`_GRAMMAR`, with no default applied.  None
    for every other request, and for any that argparse would reject: an
    unknown or abbreviated flag, ``--flag=value``, ``--``, ``-h``, a flag
    without a value, a value that is empty or starts with ``-``, a failed
    conversion, a bad choice or a missing required flag."""
    if len(argv) % 2 == 0 or argv[0] not in _GRAMMAR:
        return None
    lookup, start, required, _ = _table(argv[0])
    args = argparse.Namespace()
    values = vars(args)
    values.update(start)
    pairs = iter(argv[1:])
    for flag, value in zip(pairs, pairs):
        entry = lookup.get(flag)
        if entry is None or not value or value[0] == "-":
            return None
        dest, convert, choices = entry
        try:
            value = convert(value)
        except ValueError:
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    return None if any(values[dest] is None for dest in required) else args


def run(argv=None) -> int:
    """Serve one request; returns its exit code.

    The request is parsed once, by one of two readers of the grammar table
    :data:`_GRAMMAR`.  A request of the plain form ``COMMAND (--flag
    VALUE)*`` is read from the table directly, which gives the Namespace
    argparse would (:func:`_plain_parse`); any other request goes to the
    argparse parser built from the table, which also prints its usage,
    help and errors.  Neither applies a default; :func:`_dispatch` fills
    in each setting left out (flag, then DISTILL_SEED for the seed, then
    ``[section] option``, then the grammar default)."""
    argv = sys.argv[1:] if argv is None else argv
    args = _plain_parse(argv)
    if args is None:
        try:
            args = _parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    return _dispatch(args)


def _dispatch(args) -> int:
    """Run the parsed request ``args``; returns its exit code.  First each
    setting its flag left out is filled in: from DISTILL_SEED (the seed
    only), then its ``[section] option`` in the config file, then its
    grammar default.  Each is converted as a flag's value is, so a bad
    one stops every command before it writes anything.  ``args.given``
    keeps the attributes the request gave."""
    try:
        cfg = _load_config(args.config)
        args.given = {name for name, value in vars(args).items()
                      if value is not None and value is not False}
        for name, convert, env, section, default in _table(args.command)[3]:
            value = _setting(args, cfg, section, name, convert, env)
            setattr(args, name, default if value is None else value)
        return _GRAMMAR[args.command][2](args, cfg)
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

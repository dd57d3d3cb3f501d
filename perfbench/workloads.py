"""The four benchmark workloads and the checks on their outputs.

Each workload is a closed loop: one client sends its next ``qdistill``
request only after the previous one returned, in one process and one
thread.  A workload turns the benchmark seed into an endless, deterministic
stream of requests (``Workload.requests``); the same seed gives the same
stream.  Its checker judges every output and returns a failure reason or
None.  A protocol abort is a correct result, never a failure.

The request schedules repeat in cycles of 5, 7, 9 or 15 requests.  Latency
percentiles are pooled over many requests, and the cost of a request
depends on its place in the cycle; with these cycle lengths p50 and p90 fall
inside one request type's share of the samples rather than on the edge
between two types, where the pooled percentile would jump from run to run.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from itertools import count
from typing import Callable, Iterator

import numpy as np

from qdistill import fixed_point as fp
from qdistill import montecarlo as mc
from qdistill import noise_models as nm
from qdistill import recurrence as rec
from qdistill import security_bounds as sb


@dataclass(frozen=True)
class Request:
    """One ``qdistill`` invocation.  ``cell`` keys the per-cell checks and
    references; ``ops`` counts the operations the request completes."""

    argv: tuple
    cell: tuple
    ops: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    params: dict
    cycle: int
    trace_cycles: int
    requests: Callable[[int], Iterator[Request]]
    checker: Callable[[], "Checker"]


class Checker:
    """Judges outputs of one pass; keeps the per-pass tallies."""

    def __init__(self):
        self.trials = 0
        self.aborts = 0

    def expect(self, req: Request) -> None:
        """Compute (and cache) what ``check`` compares against.  Called
        outside timed and traced regions."""

    def check(self, req: Request, rc, out: str, err: str) -> str | None:
        """None if the output is right, else the reason.  May raise
        KeyError, IndexError, TypeError or ValueError on malformed output."""
        raise NotImplementedError

    def finish(self) -> list:
        """Run-level failures, each a reason string."""
        return []


def _seed64(rng: random.Random) -> int:
    return rng.getrandbits(64)


def _mc_argv(n_pairs, beta, f_tilde, rounds, trials, seed, emit) -> tuple:
    return ("montecarlo", "--n-pairs", str(n_pairs), "--beta", repr(beta),
            "--noise", f"corr2:{f_tilde!r}", "--rounds", str(rounds),
            "--f-min", "auto", "--trials", str(trials), "--seed", str(seed),
            "--emit", emit)


def _mc_config(req: Request, seed: int) -> mc.ProtocolConfig:
    n_pairs, beta, f_tilde, rounds, trials = req.cell
    return mc.ProtocolConfig(
        n_pairs=n_pairs, beta=beta, noise=nm.TwoQubitCorrelatedNoise(f_tilde),
        rounds=rounds, f_min=fp.bbpssw_two_qubit_fixed_points(f_tilde)[0],
        seed=seed, trials=trials)


def _request_seed(req: Request) -> int:
    return int(req.argv[req.argv.index("--seed") + 1])


def _failed_exit(rc, err) -> str | None:
    if rc != 0:
        return f"exit {rc}: {err.strip()[-200:]}"
    return None


# ---------------------------------------------------------------------------
# mc-campaign

CAMPAIGN = {"n_pairs": 2 ** 14, "rounds": 4, "trials": 100,
            "betas": (0.95, 0.98, 1.0), "f_tildes": (0.99, 0.999, 1.0),
            "noise": "corr2", "f_min": "auto", "emit": "json"}


def _campaign_requests(seed: int) -> Iterator[Request]:
    rng = random.Random(seed)
    cells = [(CAMPAIGN["n_pairs"], b, f, CAMPAIGN["rounds"], CAMPAIGN["trials"])
             for b in CAMPAIGN["betas"] for f in CAMPAIGN["f_tildes"]]
    for i in count():
        cell = cells[i % len(cells)]
        argv = _mc_argv(*cell, _seed64(rng), "json")
        yield Request(argv, cell, CAMPAIGN["trials"])


class CampaignChecker(Checker):
    """Criterion-10 rule per request: abort_rate <= bound + 3 se, with the
    bound recomputed here; the config hash is recomputed from the request."""

    def __init__(self):
        super().__init__()
        self._bound = {}
        self._hash = {}

    def expect(self, req):
        if req.cell not in self._bound:
            n_pairs, beta, f_tilde, rounds, _ = req.cell
            xi = (n_pairs - math.isqrt(n_pairs)) / 2 ** (2 * rounds + 2)
            f_min = fp.bbpssw_two_qubit_fixed_points(f_tilde)[0]
            self._bound[req.cell] = sb.robustness_bound(sb.RobustnessInput(
                beta, f_min, n_pairs, rounds, xi)).value
        if req.argv not in self._hash:
            self._hash[req.argv] = mc.config_hash(
                _mc_config(req, _request_seed(req)))

    def check(self, req, rc, out, err):
        bad = _failed_exit(rc, err)
        if bad:
            return bad
        self.expect(req)
        payload = json.loads(out)
        trials = payload.get("trials")
        if trials != req.cell[4]:
            return f"trials {trials!r} != {req.cell[4]}"
        rate = payload["abort_rate"]
        self.trials += trials
        self.aborts += round(rate * trials)
        se = math.sqrt(max(rate * (1 - rate), 0.0) / trials)
        if not rate <= self._bound[req.cell] + 3 * se:
            return f"abort_rate {rate} above bound {self._bound[req.cell]} + 3 se"
        if payload.get("config_hash") != self._hash.pop(req.argv):
            return "config_hash differs from montecarlo.config_hash"
        return None


# ---------------------------------------------------------------------------
# mc-aborts

ABORTS = {"n_pairs": (256, 1024), "betas": (0.6, 0.65, 0.7), "f_tilde": 0.99,
          "rounds": 4, "trials": 100, "noise": "corr2", "f_min": "auto",
          "emit": "csv", "band_tail": 1e-9}

_STAGES = {"parameter_estimation"} | {
    f"round {m}" for m in range(1, ABORTS["rounds"] + 1)}


def _aborts_requests(seed: int) -> Iterator[Request]:
    rng = random.Random(seed)
    cells = [(n, b, ABORTS["f_tilde"], ABORTS["rounds"], ABORTS["trials"])
             for n in ABORTS["n_pairs"] for b in ABORTS["betas"]]
    # Seven requests per cycle: 256/0.6, the cell with round aborts as well,
    # runs twice (see the module docstring on cycle lengths).
    cells.append(cells[0])
    for i in count():
        cell = cells[i % len(cells)]
        argv = _mc_argv(*cell, _seed64(rng), "csv")
        yield Request(argv, cell, ABORTS["trials"])


def pe_abort_probability(mpp: int, q: float, threshold: float) -> float:
    """Exact P[estimation abort]: wins ~ Binom(mpp, q) and the trial aborts
    when (3 sqrt(wins/mpp) - 1)/2 falls below the threshold."""
    return sum(math.comb(mpp, w) * q ** w * (1 - q) ** (mpp - w)
               for w in range(mpp + 1)
               if (3.0 * math.sqrt(w / mpp) - 1.0) / 2.0 < threshold)


def binomial_band(trials: int, p: float, tail: float) -> tuple:
    """Smallest [lo, hi] with P[X < lo] <= tail and P[X > hi] <= tail for
    X ~ Binom(trials, p)."""
    pmf = [math.comb(trials, k) * p ** k * (1 - p) ** (trials - k)
           for k in range(trials + 1)]
    lo, below = 0, 0.0
    while below + pmf[lo] <= tail:
        below += pmf[lo]
        lo += 1
    hi, above = trials, 0.0
    while above + pmf[hi] <= tail:
        above += pmf[hi]
        hi -= 1
    return lo, hi


class AbortsChecker(Checker):
    """Per request: parse the per-trial CSV, hold the estimation-abort count
    to a wide band around the exact binomial, and require the JSON
    abort_rate to equal the CSV's non-ok fraction exactly.  Per run: every
    cell shows at least one estimation abort."""

    def __init__(self):
        super().__init__()
        self._band = {}
        self.pe_aborts = {}

    def expect(self, req):
        if req.cell not in self._band:
            cfg = _mc_config(req, 0)
            p = cfg.channel_state().p
            mpp = math.isqrt(cfg.n_pairs) // 2
            prob = pe_abort_probability(mpp, (p[0] + p[2]) * (p[0] + p[3]),
                                        cfg.threshold)
            self._band[req.cell] = binomial_band(cfg.trials, prob,
                                                 ABORTS["band_tail"])

    def check(self, req, rc, out, err):
        bad = _failed_exit(rc, err)
        if bad:
            return bad
        self.expect(req)
        self.pe_aborts.setdefault(req.cell, 0)
        lines = out.splitlines()
        payload = json.loads(lines[-1])
        rows = list(csv.DictReader(lines[:-1]))
        trials = req.cell[4]
        if [r.get("trial") for r in rows] != [str(t) for t in range(trials)]:
            return f"CSV has {len(rows)} trial rows, expected {trials}"
        pe = not_ok = 0
        for r in rows:
            flag, stage = r.get("flag"), r.get("abort_stage")
            if flag == "ok" and stage == "":
                continue
            if flag != "fail" or stage not in _STAGES:
                return f"trial {r['trial']}: flag {flag!r} with stage {stage!r}"
            not_ok += 1
            pe += stage == "parameter_estimation"
        self.trials += trials
        self.aborts += not_ok
        self.pe_aborts[req.cell] += pe
        if payload.get("trials") != trials:
            return f"JSON trials {payload.get('trials')!r} != {trials}"
        if payload.get("abort_rate") != not_ok / trials:
            return (f"JSON abort_rate {payload.get('abort_rate')!r} != CSV "
                    f"non-ok fraction {not_ok}/{trials}")
        lo, hi = self._band[req.cell]
        if not lo <= pe <= hi:
            return f"{pe} estimation aborts outside [{lo}, {hi}]"
        return None

    def finish(self):
        return [f"cell {cell}: no estimation abort"
                for cell, pe in self.pe_aborts.items() if pe == 0]


# ---------------------------------------------------------------------------
# stability-scan

# Scan segments: (noise kind, lowest start, step, start jitter).  Three
# points each; the seed draws each start from [lo, lo + jitter).
SCAN_SEGMENTS = (
    ("white", 0.9, 0.0005, 0.0005),   # just above the attractivity boundary
    ("white", 0.905, 0.005, 0.001),
    ("white", 0.93, 0.02, 0.002),     # far from it, few steps
    ("white", 0.88, 0.004, 0.002),    # maximally mixed basin, q00 = 1/4
    ("corr2", 0.83, 0.002, 0.001),    # just above the boundary
    ("corr2", 0.79, 0.005, 0.002),    # maximally mixed basin
    ("corr2", 0.86, 0.045, 0.002),
)
# Fixed-point requests: the six criterion-6 points, unjittered, plus one
# near-boundary point per noise kind.
CRITERION6 = (("white", 0.99), ("white", 0.999), ("white", 0.9999),
              ("corr2", 0.85), ("corr2", 0.9), ("corr2", 0.99))
FIXED_POINT_NEAR = (("white", 0.9, 0.0005), ("corr2", 0.83, 0.001))
STABILITY = {"scan_segments": SCAN_SEGMENTS, "criterion6": CRITERION6,
             "fixed_point_near": FIXED_POINT_NEAR, "points_per_segment": 3,
             "protocol": "dejmps", "q00_tol": 1e-8,
             "reference": "plain iteration of reduced_dejmps_map from "
                          "(0.9, 1/30, 1/30, 1/30) to 1-norm step < 1e-13"}
_WERNER9 = (0.9, 1 / 30, 1 / 30, 1 / 30)


def _stability_requests(seed: int) -> Iterator[Request]:
    rng = random.Random(seed)
    cycle = []
    for kind, lo, step, jitter in SCAN_SEGMENTS:
        start = round(lo + jitter * rng.random(), 7)
        points = tuple(round(start + i * step, 9) for i in range(3))
        grid = f"{start!r}:{points[-1]!r}:{step!r}"
        argv = ("scan", "--protocol", "dejmps", "--noise-kind", kind,
                "--noise-grid", grid, "--emit", "json")
        cycle.append(Request(argv, ("scan", kind, points), 3))
    near = [(kind, round(lo + jitter * rng.random(), 7))
            for kind, lo, jitter in FIXED_POINT_NEAR]
    for kind, value in CRITERION6 + tuple(near):
        argv = ("fixed-point", "--protocol", "dejmps",
                "--noise", f"{kind}:{value!r}")
        cycle.append(Request(argv, ("fixed-point", kind, (value,)), 1))
    for i in count():
        yield cycle[i % len(cycle)]


def reference_q00(kind: str, value: float) -> float:
    """q00 of the reduced fixed point by plain iteration, untimed."""
    dist = nm.distribution_from(nm.noise_from_config(
        {"kind": kind, "parameter": value}))
    rmap = rec.reduced_dejmps_map(dist)
    q = np.array(_WERNER9)
    for _ in range(200000):
        nxt, _ = rmap(q)
        if np.abs(nxt - q).sum() < 1e-13:
            return float(nxt[0])
        q = nxt
    raise RuntimeError(f"reference iteration for {kind}:{value} did not converge")


class StabilityChecker(Checker):
    """q00 against a plain-iteration reference, the radius below 1 on the
    criterion-6 points, and each fixed-point residual within its tol."""

    def __init__(self):
        super().__init__()
        self._q00 = {}

    def expect(self, req):
        _, kind, points = req.cell
        for v in points:
            if (kind, v) not in self._q00:
                self._q00[(kind, v)] = reference_q00(kind, v)

    def _q00_error(self, kind, value, q00):
        ref = self._q00[(kind, value)]
        if not abs(q00 - ref) <= STABILITY["q00_tol"]:
            return f"{kind}:{value} q00 {q00!r} != reference {ref!r}"
        return None

    def check(self, req, rc, out, err):
        bad = _failed_exit(rc, err)
        if bad:
            return bad
        self.expect(req)
        payload = json.loads(out)
        what, kind, points = req.cell
        if what == "scan":
            rows = payload["rows"]
            if len(rows) != len(points):
                return f"scan returned {len(rows)} rows, expected {len(points)}"
            col = payload["columns"].index
            for row, v in zip(rows, points):
                value, q00 = row[col(f"{kind}_parameter")], row[col("q00_fixed")]
                if abs(value - v) > 1e-12:
                    return f"scan row at {value!r}, expected {v!r}"
                bad = self._q00_error(kind, v, q00)
                if bad:
                    return bad
            return None
        value = points[0]
        if not payload["residual"] <= payload["meta"]["tol"]:
            return f"{kind}:{value} residual {payload['residual']!r} above tol"
        if (kind, value) in CRITERION6 and not (
                payload.get("attracting") is True and payload["lambda_max"] < 1):
            return f"{kind}:{value} radius {payload.get('lambda_max')!r} not < 1"
        return self._q00_error(kind, value, payload["location"][0])


# ---------------------------------------------------------------------------
# steering-audit

STEERING = {"states_cycle": (2, 4, 8, 4, 4), "t_inverse_norm": 16.0,
            "constant": 65536}


def _steering_requests(seed: int) -> Iterator[Request]:
    rng = random.Random(seed)
    ks = STEERING["states_cycle"]
    for i in count():
        k = ks[i % len(ks)]
        argv = ("steering-audit", "--states", str(k), "--seed", str(_seed64(rng)))
        yield Request(argv, (k,), 2 * k)


class SteeringChecker(Checker):
    """No violations, one audit row per state, positive minimum slack, and
    the two tomographic constants."""

    def check(self, req, rc, out, err):
        bad = _failed_exit(rc, err)
        if bad:
            return bad
        payload = json.loads(out)
        k = req.cell[0]
        s = payload["summary"]
        ids = [a["state_id"] for a in payload["audits"]]
        expected = ([f"random-{i}" for i in range(k)]
                    + [f"product-{i}" for i in range(k)])
        if ids != expected or s["count"] != 2 * k:
            return f"{len(ids)} audit rows (count {s['count']}), expected {2 * k}"
        if s["violations"] != 0:
            return f"{s['violations']} violations"
        if not (s["min_slack"] > 0
                and s["min_slack"] == min(a["slack"] for a in payload["audits"])):
            return f"min_slack {s['min_slack']!r}"
        if abs(s["t_inverse_norm"] - STEERING["t_inverse_norm"]) > 1e-10:
            return f"t_inverse_norm {s['t_inverse_norm']!r}"
        if s["constant"] != STEERING["constant"]:
            return f"constant {s['constant']!r}"
        return None


WORKLOADS = {w.name: w for w in (
    Workload(
        "mc-campaign",
        "The hot path: criterion 10's grid, where a trial is dominated by the "
        "full rng.permutation(n_pairs) in simulate_run and nothing aborts.",
        CAMPAIGN, 9, 4, _campaign_requests, CampaignChecker),
    Workload(
        "mc-aborts",
        "Small ensembles near the distillability threshold: the only "
        "workload on the early-abort branch; per-trial RNG and channel_state "
        "dominate, not the permutation; CSV output simulates every trial twice.",
        ABORTS, 7, 8, _aborts_requests, AbortsChecker),
    Workload(
        "stability-scan",
        "Reduced fixed-point solves and finite-difference Jacobians of the "
        "noisy DEJMPS map, near the attractivity boundary, far from it and in "
        "the maximally mixed basin; no Monte Carlo, no steering.",
        STABILITY, 15, 3, _stability_requests, StabilityChecker),
    Workload(
        "steering-audit",
        "The only workload that reaches steering_verify and the dense-matrix "
        "half of quantum_core; the audit JSON grows with the state count; no "
        "recurrence runs.",
        STEERING, 5, 10, _steering_requests, SteeringChecker),
)}

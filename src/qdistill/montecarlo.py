"""Seeded simulation of the honest-distributor protocol.

One trial: transmit pairs through the depolarizing channel, symmetrize by
an explicit random permutation, sacrifice ~sqrt(n) pairs for correlation
measurements (sigma_x ⊗ sigma_x on the first pair of each pair-of-pairs,
sigma_z ⊗ sigma_z on the second), abort if the fidelity estimate is below
F_min + delta, then run M distillation rounds with per-pair-of-pairs
Bernoulli attrition at the round's true success probability.

All randomness flows from counter-based per-trial streams derived from the
64-bit seed, so results are reproducible and order-independent across
parallel execution.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .quantum_core import BellDiagonalState, LabeledEnsembleState
from .noise_models import apply_channel_phi, distribution_from, noise_to_config
from .recurrence import dejmps_noisy_step
from .fixed_point import reduced_noisy_dejmps_fixed_point
from .security_bounds import RobustnessInput, RobustnessResult, robustness_bound

__all__ = [
    "ProtocolConfig",
    "RunOutcome",
    "AbortEstimate",
    "RobustnessCheck",
    "TrajectoryRow",
    "config_hash",
    "trial_rng",
    "simulate_run",
    "estimate_abort_probability",
    "check_robustness",
    "fidelity_trajectory",
]

# 99% two-sided normal quantile, used by the Wilson interval.
_Z99 = 2.5758293035489004


@dataclass(frozen=True)
class ProtocolConfig:
    """Parameters of one protocol campaign.

    ``noise`` is a noise model accepted by
    :func:`qdistill.noise_models.distribution_from`; ``delta`` of None
    resolves to the default max(0.01, (3 beta - 4 f_min - 1)/4 + 0.01),
    the proof's lower bound on the estimation margin clamped to stay
    positive when that bound is vacuous.
    """

    n_pairs: int
    beta: float
    noise: object
    rounds: int
    f_min: float
    delta: float | None = None
    seed: int = 0
    trials: int = 1000

    def __post_init__(self):
        if self.n_pairs < 4:
            raise ValueError("n_pairs must be at least 4")
        if not 0 <= self.beta <= 1:
            raise ValueError("beta must lie in [0, 1]")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if not 0 <= self.f_min <= 1:
            raise ValueError("f_min must lie in [0, 1]")
        if self.resolved_delta <= 0:
            raise ValueError("delta must be positive")
        if self.threshold > 1:
            raise ValueError("f_min + delta must not exceed 1")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")

    @property
    def resolved_delta(self) -> float:
        if self.delta is not None:
            return self.delta
        return max(0.01, (3 * self.beta - 4 * self.f_min - 1) / 4 + 0.01)

    @property
    def threshold(self) -> float:
        return self.f_min + self.resolved_delta

    def channel_state(self) -> BellDiagonalState:
        """Bell-diagonal state of each transmitted pair after the channel."""
        return apply_channel_phi(BellDiagonalState(np.array([1.0, 0, 0, 0])),
                                 self.beta)

    def as_dict(self) -> dict:
        return {
            "n_pairs": self.n_pairs,
            "beta": self.beta,
            "noise": noise_to_config(self.noise),
            "rounds": self.rounds,
            "f_min": self.f_min,
            "delta": self.resolved_delta,
            "seed": self.seed,
            "trials": self.trials,
        }


def config_hash(config: ProtocolConfig) -> str:
    """sha256 over the canonical serialized config (resolved delta, sorted
    keys, 17-significant-digit floats)."""

    def canon(x):
        if isinstance(x, float):
            return format(x, ".17g")
        if isinstance(x, dict):
            return {k: canon(v) for k, v in sorted(x.items())}
        return x

    blob = json.dumps(canon(config.as_dict()), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent counter-based stream for one trial."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class RunOutcome:
    """Result of one simulated protocol execution.

    ``pair_counts`` starts with the post-estimation pool and appends the
    survivor count after each completed round.  ``final_state`` is the
    Bell-diagonal description of the surviving pairs after round M (None
    on abort).
    """

    flag: str
    abort_stage: str | None
    rounds_completed: int
    pair_counts: tuple
    fidelity_estimate: float
    final_state: np.ndarray | None

    @property
    def ok(self) -> bool:
        return self.flag == "ok"


def _round_trajectory(config: ProtocolConfig):
    """Deterministic ensemble evolution: (marginals, success probabilities)
    for rounds 1..M, shared by every trial of a campaign."""
    return _trajectory(config.beta, config.noise, config.rounds)


@lru_cache(maxsize=64)
def _trajectory(beta: float, noise, rounds: int):
    dist = distribution_from(noise)
    state = LabeledEnsembleState.from_bell_diagonal(
        apply_channel_phi(BellDiagonalState(np.array([1.0, 0, 0, 0])), beta),
        flags="zero")
    marginals = [state.bell_marginal().p]
    successes = []
    for _ in range(rounds):
        state, n = dejmps_noisy_step(state, dist)
        marginals.append(state.bell_marginal().p)
        successes.append(n)
    return tuple(marginals), tuple(successes)


def simulate_run(config: ProtocolConfig, rng=None, trial: int = 0) -> RunOutcome:
    """Execute one trial; aborts are recorded in the outcome, not raised."""
    if rng is None:
        rng = trial_rng(config.seed, trial)

    # Symmetrization: a real permutation of pair indices; its head is the
    # estimation subset.
    perm = rng.permutation(config.n_pairs)
    m_est = math.isqrt(config.n_pairs)
    est_pairs = perm[:m_est]
    k_d = config.n_pairs - m_est

    # Parameter estimation on floor(m/2) pairs-of-pairs.  Both correlation
    # measurements return +1 on |B00>; on a Bell-diagonal pair the first
    # succeeds with probability p00+p01' (phase bit 0) and the second with
    # p00+p10' (amplitude bit 0), independent across the two pairs.
    p = config.channel_state().p
    p_x = p[0] + p[2]
    p_z = p[0] + p[3]
    mpp = est_pairs.size // 2
    wins = int(rng.binomial(mpp, p_x * p_z)) if mpp else 0
    xbar = wins / mpp if mpp else 0.0
    f_hat = (3.0 * math.sqrt(xbar) - 1.0) / 2.0
    if f_hat < config.threshold:
        return RunOutcome("fail", "parameter_estimation", 0, (k_d,), f_hat, None)

    marginals, successes = _round_trajectory(config)
    counts = [k_d]
    for m in range(1, config.rounds + 1):
        cpp = counts[-1] // 2
        if cpp == 0:
            return RunOutcome("fail", f"round {m}", m - 1, tuple(counts),
                              f_hat, None)
        kept = int(rng.binomial(cpp, successes[m - 1]))
        counts.append(kept)
        if kept == 0:
            return RunOutcome("fail", f"round {m}", m - 1, tuple(counts),
                              f_hat, None)
    return RunOutcome("ok", None, config.rounds, tuple(counts), f_hat,
                      marginals[config.rounds])


def _wilson_interval(successes: int, trials: int, z: float = _Z99) -> tuple:
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / trials
                                   + z * z / (4 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class AbortEstimate:
    trials: int
    aborts: int
    rate: float
    ci_low: float
    ci_high: float

    @property
    def ci(self) -> tuple:
        return self.ci_low, self.ci_high


def estimate_abort_probability(config: ProtocolConfig) -> AbortEstimate:
    """Abort frequency over ``config.trials`` independent trials with a
    99% Wilson interval; deterministic in the seed."""
    if config.trials < 100:
        raise ValueError("need at least 100 trials for a rate estimate")
    aborts = 0
    for t in range(config.trials):
        if not simulate_run(config, trial_rng(config.seed, t)).ok:
            aborts += 1
    lo, hi = _wilson_interval(aborts, config.trials)
    return AbortEstimate(config.trials, aborts, aborts / config.trials, lo, hi)


@dataclass(frozen=True)
class RobustnessCheck:
    """A campaign's abort estimate beside the robustness bound at its pair
    budget xi = (k - sqrt(k)) / 2^(2M+2), k = n_pairs."""

    estimate: AbortEstimate
    xi: float
    bound: RobustnessResult

    @property
    def se(self) -> float:
        """Binomial standard error of the abort rate."""
        rate = self.estimate.rate
        return math.sqrt(max(rate * (1 - rate), 0.0) / self.estimate.trials)

    @property
    def holds(self) -> bool:
        """The abort rate is at most the bound plus 3 standard errors."""
        return self.estimate.rate <= self.bound.value + 3 * self.se


def check_robustness(config: ProtocolConfig) -> RobustnessCheck:
    """Run the campaign and set its abort rate beside the robustness bound."""
    k = config.n_pairs
    xi = (k - math.sqrt(k)) / 2 ** (2 * config.rounds + 2)
    bound = robustness_bound(RobustnessInput(config.beta, config.f_min, k,
                                             config.rounds, xi))
    return RobustnessCheck(estimate_abort_probability(config), xi, bound)


@dataclass(frozen=True)
class TrajectoryRow:
    round_index: int
    marginal: np.ndarray
    success_probability: float | None
    pairs: int
    distance_to_fixed_point: float


def fidelity_trajectory(config: ProtocolConfig, rng=None) -> list:
    """Deterministic per-round Bell-diagonal evolution joined with one
    trial's stochastic pair counts.

    The distance column is ||q_m - q_inf||_1 against the reduced noisy
    fixed point (for Bell-diagonal states this equals the trace-norm
    distance).  Rows stop at the abort round if the trial failed.
    """
    outcome = simulate_run(config, rng)
    marginals, successes = _round_trajectory(config)
    q_fix = reduced_noisy_dejmps_fixed_point(distribution_from(config.noise))
    rows = []
    for m, pairs in enumerate(outcome.pair_counts):
        rows.append(TrajectoryRow(
            m, marginals[m], successes[m - 1] if m else None, int(pairs),
            float(np.abs(marginals[m] - q_fix).sum())))
    return rows

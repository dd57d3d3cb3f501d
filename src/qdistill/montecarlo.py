"""Seeded simulation of the honest-distributor protocol.

One trial: transmit pairs through the depolarizing channel, sacrifice
~sqrt(n) pairs for correlation measurements (sigma_x ⊗ sigma_x on the first
pair of each pair-of-pairs, sigma_z ⊗ sigma_z on the second), abort if the
fidelity estimate is below F_min + delta, then run M distillation rounds
with per-pair-of-pairs Bernoulli attrition at the round's true success
probability.  Symmetrization is implicit: the simulated pairs are i.i.d.
and hence exchangeable, so only the size of the estimation subset matters,
never which pairs it holds.

A campaign simulates all its trials together, one stage at a time, each
stage drawing from its own counter-based stream: stage 0 (estimation) and
round m draw from Philox seeded by numpy's ``SeedSequence(seed,
spawn_key=(stage,))``.  Stage 0 draws one binomial per trial; round m
draws one per trial in trial order, of size zero for a trial that has
already aborted, and numpy draws nothing for a binomial of size zero.  The
trials run in fixed blocks, and each stage's stream carries on from block
to block, so the outputs depend on the seed and the config alone and
memory does not grow with the number of trials.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .quantum_core import BellDiagonalState, LabeledEnsembleState
from .noise_models import apply_channel_phi, distribution_from, noise_to_config
from .recurrence import dejmps_noisy_step
from .security_bounds import (MAX_ROUNDS, RobustnessInput, RobustnessResult,
                              robustness_bound)

__all__ = [
    "ProtocolConfig",
    "AbortEstimate",
    "RobustnessCheck",
    "config_hash",
    "sample_campaign",
    "estimate_abort_probability",
    "check_robustness",
]

# 99% two-sided normal quantile, used by the Wilson interval.
_Z99 = 2.5758293035489004

# Trials simulated per array pass, so the per-trial arrays stay small
# however many trials a campaign runs.
_BLOCK = 1 << 16


@dataclass(frozen=True)
class ProtocolConfig:
    """Parameters of one protocol campaign.

    ``noise`` must be a noise model that
    :func:`qdistill.noise_models.distribution_from` expands into a Pauli
    mixture (white, corr2 or binary), else ValueError; ``delta`` of None
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
        if not 4 <= self.n_pairs < 2 ** 63:
            raise ValueError("n_pairs must lie in [4, 2**63): a binomial's"
                             " sample size is a 64-bit signed integer")
        if not 0 <= self.beta <= 1:
            raise ValueError("beta must lie in [0, 1]")
        if not 1 <= self.rounds <= MAX_ROUNDS:
            raise ValueError(f"rounds must lie in [1, {MAX_ROUNDS}]: the"
                             " pair budget 2**(2*rounds+2) must be a finite"
                             " double")
        if not 0 <= self.f_min <= 1:
            raise ValueError("f_min must lie in [0, 1]")
        if not 0 < self.resolved_delta < math.inf:
            raise ValueError("delta must be finite and positive")
        if self.threshold > 1:
            raise ValueError("f_min + delta must not exceed 1")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.trials >= 2 ** 32:
            raise ValueError("trials must be below 2**32")
        try:
            distribution_from(self.noise)
        except TypeError:
            raise ValueError(f"{type(self.noise).__name__} has no Pauli-mixture"
                             " expansion; use white, corr2 or binary noise") from None

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


@lru_cache(maxsize=64)
def _trajectory(beta: float, noise, rounds: int):
    """Deterministic ensemble evolution: (marginals, success probabilities)
    for rounds 1..M, shared by every trial of a campaign."""
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


def sample_campaign(config: ProtocolConfig) -> Iterator[tuple]:
    """Simulate the campaign's trials in order, a block at a time.

    Yields ``(fidelity_estimate, stage, final_pairs)`` arrays for each
    block of up to 65 536 trials.  ``stage`` is where the trial aborted:
    0 in parameter estimation, m in round m, and ``rounds + 1`` for a trial
    that completed every round.  ``final_pairs`` is the pair count after
    the trial's last stage: the post-estimation pool on an estimation
    abort, 0 when a round kept no pair, and 1 when a round started with
    one pair and so could not form a pair-of-pairs.
    """
    # The trajectory's round-0 marginal is the channel state.
    marginals, successes = _trajectory(config.beta, config.noise,
                                       config.rounds)
    # Parameter estimation on floor(m/2) pairs-of-pairs.  Both correlation
    # measurements return +1 on |B00>; on a Bell-diagonal pair the first
    # succeeds with probability p00+p01' (phase bit 0) and the second with
    # p00+p10' (amplitude bit 0), independent across the two pairs.
    p = marginals[0]
    q = (p[0] + p[2]) * (p[0] + p[3])
    m_est = math.isqrt(config.n_pairs)
    mpp = m_est // 2                 # >= 1, since n_pairs >= 4
    done = config.rounds + 1
    rngs = [np.random.Generator(np.random.Philox(
        np.random.SeedSequence(config.seed, spawn_key=(s,))))
        for s in range(done)]
    for first in range(0, config.trials, _BLOCK):
        size = min(_BLOCK, config.trials - first)
        wins = rngs[0].binomial(mpp, q, size)
        f_hat = (3.0 * np.sqrt(wins / mpp) - 1.0) / 2.0
        stage = np.where(f_hat < config.threshold, 0, done)
        pairs = np.full(size, config.n_pairs - m_est, dtype=np.int64)
        for m in range(1, done):
            alive = stage == done
            cpp = np.where(alive, pairs // 2, 0)
            kept = rngs[m].binomial(cpp, successes[m - 1])
            stage[alive & (kept == 0)] = m
            pairs = np.where(cpp > 0, kept, pairs)
        yield f_hat, stage, pairs


def _wilson_interval(successes: int, trials: int, z: float = _Z99) -> tuple:
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / trials
                                   + z * z / (4 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class AbortEstimate:
    """Abort count and rate of a campaign with its 99% Wilson interval;
    ``stage_aborts`` holds the aborts in parameter estimation and then in
    each round."""

    trials: int
    aborts: int
    rate: float
    ci_low: float
    ci_high: float
    stage_aborts: tuple

    @property
    def ci(self) -> tuple:
        return self.ci_low, self.ci_high


def estimate_abort_probability(config: ProtocolConfig) -> AbortEstimate:
    """Abort frequency over ``config.trials`` trials with a 99% Wilson
    interval; deterministic in the seed."""
    if config.trials < 100:
        raise ValueError("need at least 100 trials for a rate estimate")
    counts = np.zeros(config.rounds + 2, dtype=np.int64)
    for _, stage, _ in sample_campaign(config):
        counts += np.bincount(stage, minlength=config.rounds + 2)
    stage_aborts = tuple(int(c) for c in counts[:-1])
    aborts = sum(stage_aborts)
    lo, hi = _wilson_interval(aborts, config.trials)
    return AbortEstimate(config.trials, aborts, aborts / config.trials, lo, hi,
                         stage_aborts)


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

"""Seeded simulation of the honest-distributor protocol.

One trial: transmit pairs through the depolarizing channel, sacrifice
~sqrt(n) pairs for correlation measurements (sigma_x ⊗ sigma_x on the first
pair of each pair-of-pairs, sigma_z ⊗ sigma_z on the second), abort if the
fidelity estimate is below F_min + delta, then run M distillation rounds
with per-pair-of-pairs Bernoulli attrition at the round's true success
probability.  Symmetrization is implicit: the simulated pairs are i.i.d.
and hence exchangeable, so only the size of the estimation subset matters,
never which pairs it holds.  The channel is the honest depolarizing one,
which sends a Werner state: there both measurements succeed with
probability q = ((2F + 1)/3)^2, which the estimate (3 sqrt(w/mpp) - 1)/2
from w successes in mpp pairs-of-pairs inverts exactly.  On other
Bell-diagonal inputs it does not.  The estimate never falls as w grows,
so the abort verdict is a cut on w (``_estimation_cut``).

A campaign simulates all its trials together, one stage at a time, each
stage drawing from its own counter-based stream: stage 0 (estimation) and
round m draw from Philox keyed by numpy's ``SeedSequence(seed,
spawn_key=(stage,))``.  Philox's stream is fixed by its 128-bit key, so
only the key is computed: from the pool of the parent ``SeedSequence(seed)``,
taken once, with the stage's spawn word mixed in and the result hashed
into two 64-bit words the way numpy does it.  The key equals
``SeedSequence(seed, spawn_key=(stage,)).generate_state(2, np.uint64)``
for every seed below 2**64, so every stream is numpy's own, bit for bit,
and no output moved when the key stopped being built by a full
``SeedSequence`` per stage.  Stage 0 draws one binomial per trial; round m
draws one per running trial in trial order, and none for a trial whose
round starts with one pair: numpy draws nothing for a size of zero.  The
trials run in fixed blocks, and each stage's stream carries on from block
to block, so the outputs depend on the seed and the config alone and
memory does not grow with the number of trials.
"""

from __future__ import annotations

import hashlib
import json
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import Iterator

import numpy as np

from .quantum_core import BellDiagonalState, LabeledEnsembleState
from .noise_models import (PAULI_MIXTURES, apply_channel_phi,
                           distribution_from, noise_to_config)
from .recurrence import noisy_dejmps_map, trajectory
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
        if not isinstance(self.noise, PAULI_MIXTURES):
            raise ValueError(f"{type(self.noise).__name__} has no Pauli-mixture"
                             " expansion; use white, corr2 or binary noise")

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
        return BellDiagonalState(
            _trajectory(self.beta, self.noise, self.rounds)[0])

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


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


def _hash_constants(init: int, mult: int, first: int, count: int) -> tuple:
    """The (xor, multiplier) pairs of ``count`` successive hashes from the
    ``first``-th on: a hash xors in the running constant init * mult**k mod
    2**32, steps it once and multiplies by the new value."""
    consts = [init]
    for _ in range(first + count):
        consts.append(consts[-1] * mult & _MASK32)
    return tuple(zip(consts[first:-1], consts[first + 1:]))


def _hashmix(value: int, xor: int, mult: int) -> int:
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> _XSHIFT


# A seed below 2**64 fills at most two of the pool's four slots, and numpy
# pads it to four words whether or not a spawn key follows, so the pool
# costs 16 hashes and a one-word spawn key takes the 17th to 20th, whose
# constants no seed moves.  generate_state hashes the four mixed slots
# with a running constant of its own, from INIT_B.
_SPAWN_HASH = _hash_constants(_INIT_A, _MULT_A, 16, 4)
_OUT_HASH = _hash_constants(_INIT_B, _MULT_B, 0, 4)


@cache
def _spawn_words(stage: int) -> tuple:
    """The four hashes of spawn word ``stage`` that mix into the pool."""
    return tuple(_hashmix(stage, xor, mult) for xor, mult in _SPAWN_HASH)


def _stage_keys(seed: int, stages) -> np.ndarray:
    """The Philox key of each of ``stages``, one row per stage: for a seed
    below 2**64 and stage s, ``SeedSequence(seed, spawn_key=(s,))
    .generate_state(2, np.uint64)``."""
    pool = np.random.SeedSequence(seed).pool.tolist()
    words = []
    for s in stages:
        for x, h, (xor, mult) in zip(pool, _spawn_words(s), _OUT_HASH):
            # numpy's mix(x, h), then generate_state's hash of the slot
            m = (_MIX_MULT_L * x - _MIX_MULT_R * h) & _MASK32
            words.append(_hashmix(m ^ m >> _XSHIFT, xor, mult))
    return np.array(words, "<u4").view("<u8").reshape(-1, 2)


@cache
def _philox_key_type() -> type:
    """An ``ISeedSequence`` that hands Philox a precomputed key: Philox asks
    it once for ``generate_state(2, np.uint64)``.  ``Philox(key=)`` would
    still draw OS entropy for a sequence it never reads.  Built on first
    use, because naming ``np.random`` imports it, and the subcommands that
    draw nothing should not pay for that at import."""

    class PhiloxKey(np.random.bit_generator.ISeedSequence):
        def __init__(self, key: np.ndarray):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            return self.key

    return PhiloxKey


@lru_cache(maxsize=64)
def _trajectory(beta: float, noise, rounds: int):
    """The deterministic part shared by every trial of a campaign: the
    Bell marginal of the channel state (round 0) and the success
    probabilities of rounds 1..M."""
    channel = apply_channel_phi(BellDiagonalState(np.array([1.0, 0, 0, 0])),
                                beta)
    p0 = LabeledEnsembleState.from_bell_diagonal(channel, flags="zero").p
    successes = tuple(n for _p, n in trajectory(
        noisy_dejmps_map(distribution_from(noise)), p0, rounds))
    return channel.p, successes


def _fidelity_estimate(wins: int, mpp: int) -> float:
    """F-hat from ``wins`` successes in ``mpp`` pairs-of-pairs."""
    return (3.0 * math.sqrt(wins / mpp) - 1.0) / 2.0


def _estimation_cut(mpp: int, threshold: float) -> int:
    """The fewest successes w <= mpp whose estimate is not below
    ``threshold`` (mpp + 1 if none), by bisection: each step of the
    estimate rounds monotonically, so estimation passes iff w >= cut."""
    return bisect_left(range(mpp + 1), True,
                       key=lambda w: _fidelity_estimate(w, mpp) >= threshold)


def sample_campaign(config: ProtocolConfig) -> Iterator[tuple]:
    """Simulate the campaign's trials in order, a block at a time.

    Yields ``(wins, stage, final_pairs)`` arrays for each block of up to
    65 536 trials.  ``wins`` counts estimation successes, whose F-hat is
    :func:`_fidelity_estimate`.  ``stage`` is where the trial aborted: 0
    in parameter estimation, m in round m, and ``rounds + 1`` for a trial
    that completed every round.  ``final_pairs`` is the pair count after
    the trial's last stage: the post-estimation pool on an estimation
    abort, 0 when a round kept no pair, and 1 when a round started with
    one pair and so could not form a pair-of-pairs.
    """
    p, successes = _trajectory(config.beta, config.noise, config.rounds)
    # Parameter estimation on floor(m/2) pairs-of-pairs.  Both correlation
    # measurements return +1 on |B00>; on a Bell-diagonal pair the first
    # succeeds with probability p00+p01' (phase bit 0) and the second with
    # p00+p10' (amplitude bit 0), independent across the two pairs.
    q = (p[0] + p[2]) * (p[0] + p[3])
    m_est = math.isqrt(config.n_pairs)
    mpp = m_est // 2                 # >= 1, since n_pairs >= 4
    cut = _estimation_cut(mpp, config.threshold)
    done = config.rounds + 1
    key_seq = _philox_key_type()
    rngs = [np.random.Generator(np.random.Philox(key_seq(key)))
            for key in _stage_keys(config.seed, range(done))]
    for first in range(0, config.trials, _BLOCK):
        size = min(_BLOCK, config.trials - first)
        wins = rngs[0].binomial(mpp, q, size)
        stage = np.where(wins < cut, 0, done)
        held = config.n_pairs - m_est
        pairs = np.full(size, held, dtype=np.int64)
        # Only the live trials draw; all start round 1 with `held` pairs.
        live = np.flatnonzero(stage)
        for m in range(1, done):
            kept = rngs[m].binomial(held // 2, successes[m - 1], live.size)
            if not kept.all():
                out = kept == 0
                stage[live[out]] = m
                pairs[live[out]] = np.where(held > 1, kept, held)[out]
                live, kept = live[~out], kept[~out]
            held = kept
        pairs[live] = held
        yield wins, stage, pairs


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


def estimate_abort_probability(config: ProtocolConfig,
                               sink=None) -> AbortEstimate:
    """Abort frequency over ``config.trials`` trials with a 99% Wilson
    interval; deterministic in the seed.  A ``sink`` that writes the trials
    out gets the iterator of :func:`sample_campaign` blocks and must exhaust
    it: the stages are counted as the blocks pass, in one pass."""
    if config.trials < 100:
        raise ValueError("need at least 100 trials for a rate estimate")
    tallies = []

    def counted():
        for block in sample_campaign(config):
            tallies.append(np.bincount(block[1], minlength=config.rounds + 2))
            yield block

    if sink is None:
        for _ in counted():
            pass
    else:
        sink(counted())
    stage_aborts = tuple(int(c) for c in sum(tallies)[:-1])
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


def check_robustness(config: ProtocolConfig, sink=None) -> RobustnessCheck:
    """Run the campaign and set its abort rate beside the robustness bound;
    ``sink`` as in :func:`estimate_abort_probability`."""
    k = config.n_pairs
    xi = (k - math.sqrt(k)) / 2 ** (2 * config.rounds + 2)
    bound = robustness_bound(RobustnessInput(config.beta, config.f_min, k,
                                             config.rounds, xi))
    return RobustnessCheck(estimate_abort_probability(config, sink), xi,
                           bound)

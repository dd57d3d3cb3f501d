"""Seeded simulation of the honest-distributor protocol.

One trial: transmit pairs through the depolarizing channel, sacrifice
~sqrt(n) pairs for correlation measurements (sigma_x ⊗ sigma_x on the first
pair of each pair-of-pairs, sigma_z ⊗ sigma_z on the second), abort if the
fidelity estimate is below F_min + delta, then run M distillation rounds
with per-pair-of-pairs Bernoulli attrition at the round's true success
probability.  Symmetrization is implicit: the simulated pairs are i.i.d.
and hence exchangeable, so only the size of the estimation subset matters,
never which pairs it holds.

All randomness flows from counter-based per-trial streams derived from the
64-bit seed, so results are reproducible and order-independent across
parallel execution.  Trial t draws from Philox at counter 0 under the key
numpy's ``SeedSequence(entropy=seed, spawn_key=(t,))`` generates.  A
campaign derives its trials' keys in vectorized passes and re-keys one
generator before each trial, which yields the same stream as building a
seed sequence and a generator per trial.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .quantum_core import BellDiagonalState, LabeledEnsembleState
from .noise_models import apply_channel_phi, distribution_from, noise_to_config
from .recurrence import dejmps_noisy_step
from .security_bounds import RobustnessInput, RobustnessResult, robustness_bound

__all__ = [
    "ProtocolConfig",
    "RunOutcome",
    "AbortEstimate",
    "RobustnessCheck",
    "config_hash",
    "trial_rng",
    "simulate_run",
    "estimate_abort_probability",
    "check_robustness",
]

# 99% two-sided normal quantile, used by the Wilson interval.
_Z99 = 2.5758293035489004

# Constants of numpy's SeedSequence hash (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875    # entropy into the pool
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED    # pool into generated words
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# Trials keyed per vectorized pass, so the key arrays stay small however
# many trials a campaign runs.
_KEY_BLOCK = 1 << 16


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
        if self.n_pairs < 4:
            raise ValueError("n_pairs must be at least 4")
        if not 0 <= self.beta <= 1:
            raise ValueError("beta must lie in [0, 1]")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
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
            raise ValueError("trials must be below 2**32: a trial index is"
                             " one 32-bit word of its stream's key")
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


def _hash(value, const: int, mult: int):
    """One hash step of numpy's SeedSequence on 32-bit words (Python ints
    or wrapping uint32 arrays): the hashed value and the next constant."""
    nxt = const * mult & _MASK32
    value = (value ^ const) * nxt & _MASK32
    return value ^ value >> 16, nxt


def _mix(x, y):
    """numpy's SeedSequence mix of two 32-bit words; y may be an array."""
    r = ((_MIX_L * x & _MASK32) - _MIX_R * y) & _MASK32
    return r ^ r >> 16


@lru_cache(maxsize=64)
def _seed_pool(seed: int) -> tuple:
    """numpy's SeedSequence pool after hashing in the seed's two 32-bit
    words, zero-padded to the 4-word pool, and the next hash constant."""
    const = _INIT_A
    pool = []
    for i in range(4):
        word, const = _hash(seed >> 32 * i & _MASK32, const, _MULT_A)
        pool.append(word)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                word, const = _hash(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], word)
    return tuple(pool), const


def _trial_keys(seed: int, t) -> np.ndarray:
    """Philox key of trial t, or of each trial in a uint32 array t: a
    uint64 array of shape t.shape + (2,).

    The key of trial t equals ``SeedSequence(entropy=seed,
    spawn_key=(t,)).generate_state(2, np.uint64)``.  The entropy words are
    the seed's two 32-bit words, zero-padded to the 4-word pool, then t;
    numpy hashes them into the pool and the pool into four output words.
    Everything before the word t is the same for every trial, so it runs
    once per seed (:func:`_seed_pool`), and the rest runs on t's type.
    """
    pool, const = _seed_pool(seed)
    pool = list(pool)
    for dst in range(4):
        word, const = _hash(t, const, _MULT_A)
        pool[dst] = _mix(pool[dst], word)
    const = _INIT_B
    words = []
    for word in pool:
        word, const = _hash(word, const, _MULT_B)
        words.append(word)
    # numpy pairs the words as little-endian uint64s on every platform.
    return np.asarray(words, dtype="<u4").T.copy().view("<u8").astype(np.uint64)


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent counter-based stream for one trial."""
    if not 0 <= trial < 2 ** 32:
        raise ValueError("trial must lie in [0, 2**32): the index is one"
                         " 32-bit word of its stream's key")
    return np.random.Generator(np.random.Philox(key=_trial_keys(seed, trial)))


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


def simulate_run(config: ProtocolConfig, rng=None, trial: int = 0) -> RunOutcome:
    """Execute one trial; aborts are recorded in the outcome, not raised."""
    if rng is None:
        rng = trial_rng(config.seed, trial)

    # Symmetrization is implicit: the pairs are exchangeable, so the
    # estimation subset may be any m_est of them; only its size matters.
    m_est = math.isqrt(config.n_pairs)
    k_d = config.n_pairs - m_est

    # Parameter estimation on floor(m/2) pairs-of-pairs.  Both correlation
    # measurements return +1 on |B00>; on a Bell-diagonal pair the first
    # succeeds with probability p00+p01' (phase bit 0) and the second with
    # p00+p10' (amplitude bit 0), independent across the two pairs.  The
    # trajectory's round-0 marginal is the channel state.
    marginals, successes = _trajectory(config.beta, config.noise,
                                       config.rounds)
    p = marginals[0]
    p_x = p[0] + p[2]
    p_z = p[0] + p[3]
    mpp = m_est // 2                 # >= 1, since n_pairs >= 4
    wins = int(rng.binomial(mpp, p_x * p_z))
    f_hat = (3.0 * math.sqrt(wins / mpp) - 1.0) / 2.0
    if f_hat < config.threshold:
        return RunOutcome("fail", "parameter_estimation", 0, (k_d,), f_hat, None)

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
    """Abort count and rate of a campaign with its 99% Wilson interval;
    ``outcomes`` holds the simulated trials in order."""

    trials: int
    aborts: int
    rate: float
    ci_low: float
    ci_high: float
    outcomes: tuple = field(default=(), repr=False, compare=False)

    @property
    def ci(self) -> tuple:
        return self.ci_low, self.ci_high


def estimate_abort_probability(config: ProtocolConfig) -> AbortEstimate:
    """Abort frequency over ``config.trials`` independent trials with a
    99% Wilson interval; deterministic in the seed."""
    if config.trials < 100:
        raise ValueError("need at least 100 trials for a rate estimate")
    bitgen = np.random.Philox(key=0)
    rng = np.random.Generator(bitgen)
    # Counter 0 and an empty output buffer; only the key changes per trial.
    # The Generator caches binomial set-up constants keyed by (n, p) alone.
    state = bitgen.state
    outcomes = []
    for first in range(0, config.trials, _KEY_BLOCK):
        t = np.arange(first, min(first + _KEY_BLOCK, config.trials),
                      dtype=np.uint32)
        for key in _trial_keys(config.seed, t):
            state["state"]["key"] = key
            bitgen.state = state
            outcomes.append(simulate_run(config, rng))
    outcomes = tuple(outcomes)
    aborts = sum(not o.ok for o in outcomes)
    lo, hi = _wilson_interval(aborts, config.trials)
    return AbortEstimate(config.trials, aborts, aborts / config.trials, lo, hi,
                         outcomes)


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

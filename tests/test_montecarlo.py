"""Seeded protocol simulation: reproducibility, estimator calibration,
abort statistics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qdistill.fixed_point as fp
import qdistill.montecarlo as mc
import qdistill.noise_models as nm
from qdistill.quantum_core import LabeledEnsembleState
from qdistill.recurrence import dejmps_noisy_step


def make_config(**kw):
    base = dict(n_pairs=4096, beta=0.98,
                noise=nm.SingleQubitWhiteNoise(0.99), rounds=2,
                f_min=0.7, seed=20240817, trials=100)
    base.update(kw)
    return mc.ProtocolConfig(**base)


# ------------------------------------------------------------------ config

def test_config_validation():
    with pytest.raises(ValueError):
        make_config(n_pairs=2)               # too few pairs to estimate
    with pytest.raises(ValueError):
        make_config(beta=1.2)
    with pytest.raises(ValueError):
        make_config(rounds=0)
    with pytest.raises(ValueError):
        make_config(f_min=1.5)
    with pytest.raises(ValueError):
        make_config(seed=2 ** 64)
    with pytest.raises(ValueError):
        make_config(trials=0)
    with pytest.raises(ValueError):
        make_config(delta=0.0)               # abort margin must be positive
    with pytest.raises(ValueError):
        make_config(f_min=0.999, delta=0.01)  # threshold above 1


def test_config_trials_fit_the_trial_key():
    # a trial index is one 32-bit word of its stream's key
    with pytest.raises(ValueError, match=r"below 2\*\*32"):
        make_config(trials=2 ** 32)
    assert make_config(trials=2 ** 32 - 1).trials == 2 ** 32 - 1


@pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_delta(delta):
    # a NaN threshold never compares below the estimate, so estimation
    # would never abort
    with pytest.raises(ValueError, match="delta must be finite and positive"):
        make_config(delta=delta)


def test_delta_default_clamps_to_positive():
    # the proof margin (3 beta - 4 f_min - 1)/4 is negative here; the
    # default must still give a usable positive abort margin
    cfg = make_config(beta=0.95, f_min=0.52, delta=None)
    assert cfg.resolved_delta == pytest.approx(0.01)
    wide = make_config(beta=1.0, f_min=0.25, delta=None)
    assert wide.resolved_delta == pytest.approx((3 - 2) / 4 + 0.01)


def test_config_hash_is_stable_and_sensitive():
    a = make_config()
    b = make_config()
    assert mc.config_hash(a) == mc.config_hash(b)
    assert len(mc.config_hash(a)) == 64          # sha256 hex
    c = make_config(beta=0.981)
    assert mc.config_hash(c) != mc.config_hash(a)
    d = make_config(noise=nm.SingleQubitWhiteNoise(0.991))
    assert mc.config_hash(d) != mc.config_hash(a)


def test_config_as_dict_roundtrips_noise():
    cfg = make_config()
    d = cfg.as_dict()
    assert d["noise"] == {"kind": "white", "parameter": 0.99}
    assert d["n_pairs"] == 4096
    assert d["delta"] == cfg.resolved_delta


def test_config_rejects_noise_without_pauli_mixture():
    with pytest.raises(ValueError, match="Pauli-mixture"):
        make_config(noise=nm.WorstCaseNoise(0.97))


@pytest.mark.parametrize("beta", [0.0, 0.3, 0.6, 0.65, 0.7, 0.9, 0.98, 1.0])
def test_trajectory_starts_at_channel_state(beta):
    # simulate_run estimates from the trajectory's round-0 marginal instead
    # of rebuilding the channel state; the two must agree bit for bit
    cfg = make_config(beta=beta, f_min=0.0)
    marginals, _ = mc._trajectory(cfg.beta, cfg.noise, cfg.rounds)
    assert np.array_equal(marginals[0], cfg.channel_state().p)


def test_channel_state_is_isotropic_mix():
    cfg = make_config(beta=0.9)
    p = cfg.channel_state().p
    assert p[0] == pytest.approx(0.9 + 0.1 / 4, abs=1e-15)
    assert np.allclose(p[1:], 0.025, atol=1e-15)


# ----------------------------------------------------------- reproducibility

def test_same_seed_same_outcome():
    cfg = make_config()
    a = mc.simulate_run(cfg, mc.trial_rng(cfg.seed, 3), trial=3)
    b = mc.simulate_run(cfg, mc.trial_rng(cfg.seed, 3), trial=3)
    assert a.flag == b.flag
    assert a.pair_counts == b.pair_counts
    assert a.fidelity_estimate == b.fidelity_estimate


def test_different_trials_decorrelate():
    cfg = make_config()
    outs = {mc.simulate_run(cfg, mc.trial_rng(cfg.seed, t)).fidelity_estimate
            for t in range(8)}
    assert len(outs) > 1


def test_trial_rng_is_spawn_keyed():
    a = mc.trial_rng(123, 0).integers(0, 2 ** 32, 4)
    b = mc.trial_rng(123, 1).integers(0, 2 ** 32, 4)
    c = mc.trial_rng(123, 0).integers(0, 2 ** 32, 4)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, c)


# ------------------------------------------------------------------- physics

def test_fidelity_estimator_is_calibrated():
    # estimator (3 sqrt(mean) - 1)/2 inverts the double-win probability of
    # correlation checks on isotropic pairs: mean -> ((1 + beta)/2)^2
    beta = 0.98
    cfg = make_config(n_pairs=2 ** 16, beta=beta, f_min=0.5, trials=400)
    ests = []
    for t in range(400):
        out = mc.simulate_run(cfg, mc.trial_rng(cfg.seed, t))
        assert out.flag == "ok"
        ests.append(out.fidelity_estimate)
    target = (3 * beta + 1) / 4
    mean = float(np.mean(ests))
    se = float(np.std(ests, ddof=1)) / math.sqrt(len(ests))
    assert abs(mean - target) < 4 * se + 1e-4


def test_pair_counts_halve_each_round():
    cfg = make_config(rounds=3)
    out = mc.simulate_run(cfg, mc.trial_rng(cfg.seed, 0))
    counts = out.pair_counts
    assert counts[0] == cfg.n_pairs - math.isqrt(cfg.n_pairs)
    for before, after in zip(counts, counts[1:]):
        assert 0 <= after <= before // 2


def test_perfect_protocol_never_aborts_and_halves_exactly():
    cfg = mc.ProtocolConfig(n_pairs=4096, beta=1.0,
                            noise=nm.SingleQubitWhiteNoise(1.0), rounds=2,
                            f_min=0.9, seed=7, trials=100)
    out = mc.simulate_run(cfg)
    assert out.ok
    assert out.pair_counts == (4032, 2016, 1008)
    assert out.fidelity_estimate == 1.0
    assert np.allclose(out.final_state, [1, 0, 0, 0], atol=1e-12)


def test_low_beta_always_aborts_in_estimation():
    # F = 0.625 sits ~6 standard errors below the 0.91 threshold at this
    # estimation sample size, so every trial aborts before distilling
    cfg = make_config(n_pairs=2 ** 16, beta=0.5, f_min=0.9, trials=100)
    for t in range(50):
        out = mc.simulate_run(cfg, mc.trial_rng(cfg.seed, t))
        assert out.flag == "fail"
        assert out.abort_stage == "parameter_estimation"
        assert out.rounds_completed == 0


def test_tiny_ensembles_abort_in_distillation():
    cfg = mc.ProtocolConfig(n_pairs=4, beta=1.0,
                            noise=nm.SingleQubitWhiteNoise(1.0), rounds=2,
                            f_min=0.9, seed=7, trials=100)
    out = mc.simulate_run(cfg)
    assert out.flag == "fail"
    assert out.abort_stage == "round 2"      # 2 pairs -> 1 pair -> starved
    assert out.rounds_completed == 1


# ------------------------------------------------------------- random stream

def reference_run(cfg, t):
    """simulate_run rebuilt by hand: (flag, abort_stage, rounds_completed,
    pair_counts, fidelity_estimate) from the first draws of the trial's
    stream, one binomial for estimation, then one per round."""
    rng = mc.trial_rng(cfg.seed, t)
    p = cfg.channel_state().p
    m_est = math.isqrt(cfg.n_pairs)
    mpp = m_est // 2
    wins = int(rng.binomial(mpp, (p[0] + p[2]) * (p[0] + p[3])))
    f_hat = (3.0 * math.sqrt(wins / mpp) - 1.0) / 2.0
    counts = [cfg.n_pairs - m_est]
    if f_hat < cfg.threshold:
        return "fail", "parameter_estimation", 0, tuple(counts), f_hat
    state = LabeledEnsembleState.from_bell_diagonal(cfg.channel_state(),
                                                    flags="zero")
    dist = nm.distribution_from(cfg.noise)
    for m in range(1, cfg.rounds + 1):
        state, success = dejmps_noisy_step(state, dist)
        if counts[-1] // 2 == 0:
            return "fail", f"round {m}", m - 1, tuple(counts), f_hat
        counts.append(int(rng.binomial(counts[-1] // 2, success)))
        if counts[-1] == 0:
            return "fail", f"round {m}", m - 1, tuple(counts), f_hat
    return "ok", None, cfg.rounds, tuple(counts), f_hat


STREAM_CELLS = {
    "ok": make_config(n_pairs=4096, beta=0.9,
                      noise=nm.TwoQubitCorrelatedNoise(0.99), f_min=0.52),
    "estimation": make_config(n_pairs=256, beta=0.6, rounds=4,
                              noise=nm.TwoQubitCorrelatedNoise(0.99),
                              f_min=0.52),
    "rounds": make_config(n_pairs=16, beta=0.95, rounds=4,
                          noise=nm.TwoQubitCorrelatedNoise(0.99), f_min=0.52),
}

# Outcomes of chosen trials under the current stream.  A change to the
# stream (draw order, generator, seeding) must update these on purpose and
# say so, because it moves every seeded Monte Carlo output.
PINNED_OUTCOMES = [
    ("ok", 0, ("ok", None, 2, (4032, 1812, 821), 0.9763764763772147)),
    ("ok", 1, ("ok", None, 2, (4032, 1827, 814), 0.9523687548277815)),
    ("estimation", 0, ("ok", None, 4, (240, 78, 28, 8, 3), 0.799038105676658)),
    ("estimation", 25, ("fail", "parameter_estimation", 0, (240,),
                        0.4185586535436917)),
    ("estimation", 76, ("fail", "round 4", 3, (240, 71, 14, 1),
                        0.799038105676658)),
    ("rounds", 0, ("fail", "round 4", 3, (12, 6, 3, 1), 1.0)),
    ("rounds", 9, ("fail", "round 3", 2, (12, 5, 1), 1.0)),
]


def outcome_key(o):
    return o.flag, o.abort_stage, o.rounds_completed, o.pair_counts, \
        o.fidelity_estimate


@pytest.mark.parametrize("cell,trial,expected", PINNED_OUTCOMES)
def test_pinned_outcomes(cell, trial, expected):
    cfg = STREAM_CELLS[cell]
    assert outcome_key(mc.simulate_run(cfg, trial=trial)) == expected
    assert reference_run(cfg, trial) == expected


@pytest.mark.parametrize("cell,stages", [
    ("ok", {None}),
    ("estimation", {"parameter_estimation"}),
    ("rounds", {"round 3", "round 4"}),
])
def test_simulate_run_matches_hand_rebuilt_stream(cell, stages):
    cfg = STREAM_CELLS[cell]
    seen = set()
    for t in range(100):
        out = mc.simulate_run(cfg, mc.trial_rng(cfg.seed, t))
        assert outcome_key(out) == reference_run(cfg, t)
        seen.add(out.abort_stage)
    assert stages <= seen                    # the cell reaches its stage


KEY_SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1] + [
    int(s) for s in np.random.default_rng(1610).integers(
        0, 2 ** 64, 6, dtype=np.uint64)]


def seed_sequence_rng(seed, t):
    """The per-trial stream as numpy builds it from a spawned seed sequence."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(t,))
    return np.random.Generator(np.random.Philox(ss))


@pytest.mark.parametrize("seed", KEY_SEEDS)
def test_trial_keys_match_seed_sequence(seed):
    keys = mc._trial_keys(seed, np.arange(1001, dtype=np.uint32))
    assert keys.shape == (1001, 2) and keys.dtype == np.uint64
    for t in range(1001):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(t,))
        assert np.array_equal(keys[t], ss.generate_state(2, np.uint64)), t
    # one index at a time, up to the last 32-bit one
    for t in (0, 1000, 2 ** 31, 2 ** 32 - 1):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(t,))
        key = mc._trial_keys(seed, t)
        assert key.dtype == np.uint64
        assert np.array_equal(key, ss.generate_state(2, np.uint64)), t
    assert np.array_equal(mc.trial_rng(seed, 7).integers(0, 2 ** 63, 9),
                          seed_sequence_rng(seed, 7).integers(0, 2 ** 63, 9))


@pytest.mark.parametrize("trial", [-1, 2 ** 32])
def test_trial_rng_rejects_indices_beyond_32_bits(trial):
    # the key function takes the index as one 32-bit word
    with pytest.raises(ValueError, match="trial must lie in"):
        mc.trial_rng(0, trial)


@pytest.mark.parametrize("cell,stages", [
    ("ok", {None}),
    ("estimation", {"parameter_estimation"}),
    ("rounds", {"round 3", "round 4"}),
])
@pytest.mark.parametrize("block", [mc._KEY_BLOCK, 7])
def test_estimate_matches_a_seed_sequence_per_trial(cell, stages, block,
                                                    monkeypatch):
    # the campaign re-keys one generator per trial, keying the trials a
    # block at a time; the stream must be the one a fresh seed sequence
    # and generator per trial would give
    monkeypatch.setattr(mc, "_KEY_BLOCK", block)
    cfg = STREAM_CELLS[cell]
    est = mc.estimate_abort_probability(cfg)
    ref = [mc.simulate_run(cfg, seed_sequence_rng(cfg.seed, t))
           for t in range(cfg.trials)]
    assert [outcome_key(o) for o in est.outcomes] == [outcome_key(o)
                                                      for o in ref]
    for got, want in zip(est.outcomes, ref):
        assert (got.final_state is None) == (want.final_state is None)
        if got.final_state is not None:
            assert np.array_equal(got.final_state, want.final_state)
    assert stages <= {o.abort_stage for o in ref}


def pe_abort_probability(mpp, q, threshold):
    """Exact P[estimation abort]: wins ~ Binom(mpp, q) and the trial aborts
    when (3 sqrt(wins/mpp) - 1)/2 falls below the threshold."""
    return sum(math.comb(mpp, w) * q ** w * (1 - q) ** (mpp - w)
               for w in range(mpp + 1)
               if (3.0 * math.sqrt(w / mpp) - 1.0) / 2.0 < threshold)


def binomial_band(trials, p, tail):
    """Smallest [lo, hi] with P[X < lo] <= tail and P[X > hi] <= tail for
    X ~ Binom(trials, p)."""
    pmf = [math.comb(trials, k) * p ** k * (1 - p) ** (trials - k)
           for k in range(trials + 1)]
    cdf = np.cumsum(pmf)                     # P[X <= k]
    sf = np.cumsum(pmf[::-1])[::-1]          # P[X >= k]
    return int(np.argmax(cdf > tail)), int(np.nonzero(sf > tail)[0][-1])


@pytest.mark.parametrize("n_pairs", [256, 1024])
@pytest.mark.parametrize("beta", [0.6, 0.65, 0.7])
def test_estimation_aborts_follow_exact_binomial(n_pairs, beta):
    # the estimation sample is floor(isqrt(n)/2) pairs-of-pairs; a wrong
    # size moves the abort probability far outside this band
    cfg = mc.ProtocolConfig(
        n_pairs=n_pairs, beta=beta, noise=nm.TwoQubitCorrelatedNoise(0.99),
        rounds=4, f_min=fp.bbpssw_two_qubit_fixed_points(0.99)[0],
        seed=20240817, trials=1000)
    p = cfg.channel_state().p
    prob = pe_abort_probability(math.isqrt(n_pairs) // 2,
                                (p[0] + p[2]) * (p[0] + p[3]), cfg.threshold)
    lo, hi = binomial_band(cfg.trials, prob, 1e-9)
    est = mc.estimate_abort_probability(cfg)
    pe = sum(o.abort_stage == "parameter_estimation" for o in est.outcomes)
    assert lo <= pe <= hi


# ---------------------------------------------------------------- aggregates

def test_estimate_abort_probability_requires_enough_trials():
    with pytest.raises(ValueError):
        mc.estimate_abort_probability(make_config(trials=50))


def test_abort_estimate_wilson_interval():
    cfg = make_config(n_pairs=2 ** 16, beta=0.5, f_min=0.9, trials=120)
    est = mc.estimate_abort_probability(cfg)
    assert est.trials == 120
    assert est.aborts == 120
    assert est.rate == 1.0
    lo, hi = est.ci
    assert lo <= est.rate <= hi + 1e-12
    assert hi == pytest.approx(1.0, abs=1e-12)
    assert 0.9 < lo < 1.0


def test_abort_estimate_keeps_the_trials_in_order():
    cfg = mc.ProtocolConfig(n_pairs=256, beta=0.65,
                            noise=nm.TwoQubitCorrelatedNoise(0.99), rounds=4,
                            f_min=0.5, seed=5, trials=100)
    est = mc.estimate_abort_probability(cfg)
    again = [mc.simulate_run(cfg, mc.trial_rng(cfg.seed, t))
             for t in range(cfg.trials)]
    assert len(est.outcomes) == cfg.trials
    assert [(o.flag, o.abort_stage, o.pair_counts, o.fidelity_estimate)
            for o in est.outcomes] == [
        (o.flag, o.abort_stage, o.pair_counts, o.fidelity_estimate)
        for o in again]
    assert est.aborts == sum(not o.ok for o in again)
    assert 0 < est.aborts < cfg.trials


def test_abort_estimate_zero_rate_interval():
    cfg = mc.ProtocolConfig(n_pairs=4096, beta=1.0,
                            noise=nm.SingleQubitWhiteNoise(1.0), rounds=2,
                            f_min=0.9, seed=7, trials=150)
    est = mc.estimate_abort_probability(cfg)
    assert est.rate == 0.0
    assert est.ci_low < 1e-12
    assert 0 < est.ci_high < 0.06


# ---------------------------------------------------------------- trajectory

def test_fidelity_trajectory_tracks_deterministic_marginals():
    # beta = 2/3 gives the F = 3/4 isotropic state; one ideal round must
    # reproduce the exact rational one-round output
    cfg = mc.ProtocolConfig(n_pairs=2 ** 14, beta=2 / 3,
                            noise=nm.SingleQubitWhiteNoise(1.0), rounds=3,
                            f_min=0.5, seed=11, trials=100)
    marginals, successes = mc._trajectory(cfg.beta, cfg.noise, cfg.rounds)
    assert len(marginals) == cfg.rounds + 1
    assert len(successes) == cfg.rounds
    assert np.allclose(marginals[0], [0.75, 1 / 12, 1 / 12, 1 / 12],
                       atol=1e-12)
    assert np.allclose(marginals[1], [41 / 52, 1 / 52, 1 / 52, 9 / 52],
                       atol=1e-12)
    assert successes[0] == pytest.approx(13 / 18, abs=1e-12)
    # fidelity climbs toward the fixed point, distances shrink
    q_fix = fp.reduced_noisy_dejmps_fixed_point(
        nm.distribution_from(cfg.noise)).location
    dists = [np.abs(m - q_fix).sum() for m in marginals]
    assert all(d2 < d1 for d1, d2 in zip(dists, dists[1:]))
    fids = [m[0] for m in marginals]
    assert all(f2 > f1 for f1, f2 in zip(fids, fids[1:]))
    # a seeded run follows the trajectory while its pair counts halve
    outcome = mc.simulate_run(cfg)
    assert outcome.ok
    assert np.array_equal(outcome.final_state, marginals[cfg.rounds])
    counts = outcome.pair_counts
    assert counts[0] == cfg.n_pairs - math.isqrt(cfg.n_pairs)
    assert all(after <= before // 2 for before, after in zip(counts, counts[1:]))

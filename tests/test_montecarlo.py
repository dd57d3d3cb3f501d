"""Seeded protocol simulation: reproducibility, estimator calibration,
abort statistics against their exact law."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import qdistill.fixed_point as fp
import qdistill.montecarlo as mc
import qdistill.noise_models as nm
import qdistill.recurrence as rc
from qdistill.quantum_core import BellDiagonalState, LabeledEnsembleState
from qdistill.security_bounds import MAX_ROUNDS

from conftest import STREAM_CELLS, campaign, make_config


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
    # the cap on a campaign's size
    with pytest.raises(ValueError, match=r"below 2\*\*32"):
        make_config(trials=2 ** 32)
    assert make_config(trials=2 ** 32 - 1).trials == 2 ** 32 - 1


def test_config_rounds_keep_the_pair_budget_finite():
    # xi = (k - sqrt k) / 2^(2M+2) needs 2^(2M+2) as a double
    with pytest.raises(ValueError, match=r"rounds must lie in \[1, 510\]"):
        make_config(rounds=511)
    cfg = make_config(rounds=510, trials=100)
    assert mc.check_robustness(cfg).xi > 0


def test_config_n_pairs_fit_a_binomial_sample_size():
    # numpy's binomial takes its sample size as a 64-bit signed integer
    with pytest.raises(ValueError, match=r"n_pairs must lie in \[4, 2\*\*63\)"):
        make_config(n_pairs=2 ** 63)
    f_hat, stage, pairs = campaign(make_config(n_pairs=2 ** 63 - 1, rounds=3))
    assert (stage == 4).all()
    assert (pairs < 2 ** 60).all() and (f_hat > 0.98).all()


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
    # the channel state is built once, as the trajectory's round 0, and
    # both are the depolarizing channel applied to |B00>, bit for bit
    cfg = make_config(beta=beta, f_min=0.0)
    p0, _ = mc._trajectory(cfg.beta, cfg.noise, cfg.rounds)
    want = nm.apply_channel_phi(BellDiagonalState(np.array([1.0, 0, 0, 0])),
                                beta).p
    assert np.array_equal(p0, want)
    assert np.array_equal(cfg.channel_state().p, want)


def test_channel_state_is_isotropic_mix():
    cfg = make_config(beta=0.9)
    p = cfg.channel_state().p
    assert p[0] == pytest.approx(0.9 + 0.1 / 4, abs=1e-15)
    assert np.allclose(p[1:], 0.025, atol=1e-15)


# ----------------------------------------------------------- reproducibility

def test_same_seed_same_outcome():
    cfg = make_config()
    for a, b in zip(campaign(cfg), campaign(cfg)):
        assert np.array_equal(a, b)


def test_different_trials_decorrelate():
    f_hat, _, pairs = campaign(make_config())
    assert len(set(f_hat[:8].tolist())) > 1
    assert len(set(pairs[:8].tolist())) > 1


def test_stage_keys_are_numpys_spawned_seed_sequences():
    # each stage's Philox key is derived from the parent pool; it must be
    # the key numpy's SeedSequence(seed, spawn_key=(stage,)) generates
    rng = np.random.default_rng(27)
    seeds = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1]
    seeds += rng.integers(0, 2 ** 64, 2000, dtype=np.uint64).tolist()
    seeds += (rng.integers(0, 2 ** 32, 500, dtype=np.uint64)
              >> rng.integers(0, 32, 500, dtype=np.uint64)).tolist()
    fixed = [0, 1, 4, MAX_ROUNDS + 1]
    for seed in seeds:
        stages = fixed + rng.integers(0, MAX_ROUNDS + 2, 2).tolist()
        want = [np.random.SeedSequence(seed, spawn_key=(s,)).generate_state(
            2, np.uint64) for s in stages]
        assert np.array_equal(mc._stage_keys(seed, stages), want), seed


def test_stage_generators_draw_numpys_spawned_streams():
    keys = mc._stage_keys(2 ** 64 - 59, range(5))
    for stage, key in enumerate(keys):
        got = np.random.Generator(np.random.Philox(mc._philox_key_type()(key)))
        want = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(2 ** 64 - 59, spawn_key=(stage,))))
        assert np.array_equal(got.integers(0, 2 ** 63, 64),
                              want.integers(0, 2 ** 63, 64))


@pytest.mark.parametrize("cell", list(STREAM_CELLS))
def test_a_campaign_prefix_is_the_shorter_campaign(cell):
    # each stage's stream runs through the trials in order, so adding
    # trials leaves the earlier ones alone
    cfg = dataclasses.replace(STREAM_CELLS[cell], trials=10 ** 4)
    short = campaign(dataclasses.replace(cfg, trials=1000))
    for long_column, short_column in zip(campaign(cfg), short):
        assert np.array_equal(long_column[:1000], short_column)


@pytest.mark.parametrize("cell", list(STREAM_CELLS))
def test_block_size_changes_no_output(cell, monkeypatch):
    # each stage's generator carries on from block to block
    cfg = dataclasses.replace(STREAM_CELLS[cell], trials=1000)
    want = campaign(cfg)
    est = mc.estimate_abort_probability(cfg)
    monkeypatch.setattr(mc, "_BLOCK", 7)
    assert len(list(mc.sample_campaign(cfg))) == -(-1000 // 7)
    for got, ref in zip(campaign(cfg), want):
        assert np.array_equal(got, ref)
    assert mc.estimate_abort_probability(cfg) == est


@pytest.mark.parametrize("cell", list(STREAM_CELLS))
def test_sink_sees_the_pass_the_estimate_counts(cell, monkeypatch):
    # a caller that writes the trials out gets the one sampled pass
    cfg = dataclasses.replace(STREAM_CELLS[cell], trials=1000)
    want = list(mc.sample_campaign(cfg))
    est = mc.estimate_abort_probability(cfg)
    calls = []
    sample = mc.sample_campaign
    monkeypatch.setattr(mc, "sample_campaign",
                        lambda c: calls.append(c) or sample(c))
    seen = []
    assert mc.estimate_abort_probability(cfg, seen.extend) == est
    assert len(calls) == 1
    assert len(seen) == len(want)
    for got, ref in zip(seen, want):
        for a, b in zip(got, ref, strict=True):
            assert np.array_equal(a, b)


def test_campaign_memory_does_not_grow_with_trials():
    # the trials run in blocks and the estimate keeps counts per stage,
    # not per trial
    cfg = make_config(n_pairs=2 ** 14, beta=0.98,
                      noise=nm.TwoQubitCorrelatedNoise(0.99), rounds=4,
                      f_min=fp.bbpssw_two_qubit_fixed_points(0.99)[0],
                      trials=400_000)
    mc._trajectory(cfg.beta, cfg.noise, cfg.rounds)
    tracemalloc.start()
    try:
        est = mc.estimate_abort_probability(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est.trials == 400_000
    assert peak < 16 * 2 ** 20


# ------------------------------------------------------------------- physics

def bell_marginals(cfg):
    """Bell marginals of the campaign's deterministic ensemble after rounds
    0..M, from the zero-flag embedding of the channel state."""
    p0 = LabeledEnsembleState.from_bell_diagonal(cfg.channel_state(),
                                                 flags="zero").p
    states = [p0] + [p for p, _ in rc.trajectory(
        rc.noisy_dejmps_map(nm.distribution_from(cfg.noise)), p0, cfg.rounds)]
    return [LabeledEnsembleState(p).bell_marginal().p for p in states]


def test_fidelity_estimator_is_calibrated():
    # estimator (3 sqrt(mean) - 1)/2 inverts the double-win probability of
    # correlation checks on isotropic pairs: mean -> ((1 + beta)/2)^2
    beta = 0.98
    cfg = make_config(n_pairs=2 ** 16, beta=beta, f_min=0.5, trials=400)
    ests, stage, _ = campaign(cfg)
    assert (stage == cfg.rounds + 1).all()
    target = (3 * beta + 1) / 4
    mean = float(np.mean(ests))
    se = float(np.std(ests, ddof=1)) / math.sqrt(len(ests))
    assert abs(mean - target) < 4 * se + 1e-4


@pytest.mark.parametrize("mpp", [1, 2, 3, 8, 16, 64, 1024, 2 ** 20])
def test_estimation_cut_is_the_float_verdict(mpp):
    # a trial passes estimation with w wins exactly when its float
    # estimate is not below the threshold, at every attained estimate and
    # at its neighbours; at 2^20 on a sample of thresholds, checked on a
    # window around the cut, since the estimate never falls as w grows
    w = np.arange(mpp + 1)
    f = (3.0 * np.sqrt(w / mpp) - 1.0) / 2.0
    assert (np.diff(f) >= 0).all() and f[-1] == 1.0
    if mpp <= 1024:
        attained = np.unique(f)
    else:
        rng = np.random.default_rng(34)
        attained = f[np.concatenate([[0, 1, mpp - 1, mpp],
                                     rng.integers(0, mpp + 1, 40)])]
    for t in np.concatenate([np.nextafter(attained, -np.inf), attained,
                             np.nextafter(attained, np.inf)]).tolist():
        cut = mc._estimation_cut(mpp, t)
        assert 0 <= cut <= mpp + 1
        near = slice(max(cut - 64, 0), cut + 64)
        assert np.array_equal(w[near] >= cut, ~(f[near] < t))
        if mpp <= 1024:
            assert np.array_equal(w >= cut, ~(f < t))
    assert [mc._fidelity_estimate(x, mpp) for x in w[:1025].tolist()] \
        == f[:1025].tolist()


def test_pair_counts_halve_each_round():
    # round m draws from the same stream whatever M is, so an m-round
    # campaign's final pairs are a longer campaign's counts after round m
    counts = [campaign(make_config(rounds=m))[2] for m in (1, 2, 3)]
    k_d = 4096 - math.isqrt(4096)
    assert (counts[0] <= k_d // 2).all()
    for before, after in zip(counts, counts[1:]):
        assert (0 <= after).all() and (after <= before // 2).all()


def test_perfect_protocol_never_aborts_and_halves_exactly():
    cfg = mc.ProtocolConfig(n_pairs=4096, beta=1.0,
                            noise=nm.SingleQubitWhiteNoise(1.0), rounds=2,
                            f_min=0.9, seed=7, trials=100)
    f_hat, stage, pairs = campaign(cfg)
    assert (stage == 3).all()
    assert (pairs == 1008).all()             # 4032 -> 2016 -> 1008
    assert (f_hat == 1.0).all()
    assert np.allclose(bell_marginals(cfg)[-1], [1, 0, 0, 0], atol=1e-12)


def test_low_beta_always_aborts_in_estimation():
    # F = 0.625 sits ~6 standard errors below the 0.91 threshold at this
    # estimation sample size, so every trial aborts before distilling
    cfg = make_config(n_pairs=2 ** 16, beta=0.5, f_min=0.9, trials=100)
    _, stage, pairs = campaign(cfg)
    assert (stage == 0).all()
    assert (pairs == 2 ** 16 - 2 ** 8).all()


def test_tiny_ensembles_abort_in_distillation():
    cfg = mc.ProtocolConfig(n_pairs=4, beta=1.0,
                            noise=nm.SingleQubitWhiteNoise(1.0), rounds=2,
                            f_min=0.9, seed=7, trials=100)
    _, stage, pairs = campaign(cfg)
    assert (stage == 2).all()                # 2 pairs -> 1 pair -> starved
    assert (pairs == 1).all()


# ------------------------------------------------------------- random stream

# (stage, final_pairs, fidelity_estimate) of chosen trials under the
# current stream.  A change to the stream (draw order, generator, seeding)
# must update these on purpose and say so, because it moves every seeded
# Monte Carlo output.
PINNED_OUTCOMES = [
    ("ok", 0, (3, 811, 0.9763764763772147)),
    ("ok", 1, (3, 834, 0.9523687548277815)),
    ("estimation", 0, (5, 4, 0.799038105676658)),
    ("estimation", 25, (0, 240, 0.4185586535436917)),
    ("estimation", 76, (5, 3, 0.799038105676658)),
    ("rounds", 0, (4, 1, 1.0)),
    ("rounds", 9, (4, 1, 1.0)),
    ("rounds", 12, (3, 1, 1.0)),
]


@pytest.mark.parametrize("cell,trial,expected", PINNED_OUTCOMES)
def test_pinned_outcomes(cell, trial, expected):
    f_hat, stage, pairs = campaign(STREAM_CELLS[cell])
    assert (int(stage[trial]), int(pairs[trial]), float(f_hat[trial])) \
        == expected


# ------------------------------------------------------------- exact law

def pe_abort_probability(mpp, q, threshold):
    """Exact P[estimation abort]: wins ~ Binom(mpp, q) and the trial aborts
    when (3 sqrt(wins/mpp) - 1)/2 falls below the threshold."""
    return sum(math.comb(mpp, w) * q ** w * (1 - q) ** (mpp - w)
               for w in range(mpp + 1)
               if (3.0 * math.sqrt(w / mpp) - 1.0) / 2.0 < threshold)


def log_factorials(n):
    return np.array([math.lgamma(k + 1) for k in range(n + 1)])


def binomial_pmf(n, p, log_fact):
    """P[Binom(n, p) = k] for k = 0..n."""
    if p in (0.0, 1.0):
        return np.eye(n + 1)[int(p) * n]
    k = np.arange(n + 1)
    return np.exp(log_fact[n] - log_fact[k] - log_fact[n - k]
                  + k * math.log(p) + (n - k) * math.log1p(-p))


def stage_abort_probabilities(cfg):
    """Exact P[abort] in estimation and in each round, from a dense
    dynamic program over the pair count of the trials still running.  A
    round aborts a trial that holds one pair or keeps none; mass below
    1e-300 is dropped."""
    p = cfg.channel_state().p
    m_est = math.isqrt(cfg.n_pairs)
    law = [pe_abort_probability(m_est // 2, (p[0] + p[2]) * (p[0] + p[3]),
                                cfg.threshold)]
    k_d = cfg.n_pairs - m_est
    log_fact = log_factorials(k_d // 2)
    mass = np.zeros(k_d + 1)
    mass[k_d] = 1.0 - law[0]
    q = LabeledEnsembleState.from_bell_diagonal(cfg.channel_state(),
                                                flags="zero").p
    step = rc.noisy_dejmps_map(nm.distribution_from(cfg.noise))
    for _ in range(cfg.rounds):
        q, success = step(q)
        kept = np.zeros(len(mass) // 2 + 1)
        abort = mass[1]
        for c in np.nonzero(mass[2:] > 1e-300)[0] + 2:
            pmf = binomial_pmf(c // 2, success, log_fact)
            abort += mass[c] * pmf[0]
            kept[1:len(pmf)] += mass[c] * pmf[1:]
        law.append(float(abort))
        mass = kept
    return law


def binomial_band(trials, p, tail):
    """Smallest [lo, hi] with P[X < lo] <= tail and P[X > hi] <= tail for
    X ~ Binom(trials, p)."""
    pmf = binomial_pmf(trials, p, log_factorials(trials))
    cdf = np.cumsum(pmf)                     # P[X <= k]
    sf = np.cumsum(pmf[::-1])[::-1]          # P[X >= k]
    return int(np.argmax(cdf > tail)), int(np.nonzero(sf > tail)[0][-1])


def aborts_cell(n_pairs, beta, trials):
    """A campaign of the benchmark's small-ensemble grid."""
    return mc.ProtocolConfig(
        n_pairs=n_pairs, beta=beta, noise=nm.TwoQubitCorrelatedNoise(0.99),
        rounds=4, f_min=fp.bbpssw_two_qubit_fixed_points(0.99)[0],
        seed=20240817, trials=trials)


def test_stage_law_sums_to_the_trial_fate():
    # the dynamic program conserves probability: what does not abort
    # completes, and a perfect protocol loses nothing
    cfg = STREAM_CELLS["estimation"]
    law = stage_abort_probabilities(cfg)
    assert len(law) == cfg.rounds + 1 and min(law) >= 0
    assert sum(law) < 1
    perfect = make_config(beta=1.0, noise=nm.SingleQubitWhiteNoise(1.0),
                          f_min=0.9)
    assert stage_abort_probabilities(perfect) == [0.0, 0.0, 0.0]
    tiny = make_config(n_pairs=4, beta=1.0,
                       noise=nm.SingleQubitWhiteNoise(0.99), f_min=0.9)
    law = stage_abort_probabilities(tiny)
    assert law[0] == 0.0 and sum(law) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("n_pairs", [256, 1024])
@pytest.mark.parametrize("beta", [0.6, 0.65, 0.7])
def test_estimation_aborts_follow_exact_binomial(n_pairs, beta):
    # the estimation sample is floor(isqrt(n)/2) pairs-of-pairs; a wrong
    # size moves the abort probability far outside this band
    cfg = aborts_cell(n_pairs, beta, 1000)
    p = cfg.channel_state().p
    prob = pe_abort_probability(math.isqrt(n_pairs) // 2,
                                (p[0] + p[2]) * (p[0] + p[3]), cfg.threshold)
    lo, hi = binomial_band(cfg.trials, prob, 1e-9)
    est = mc.estimate_abort_probability(cfg)
    assert lo <= est.stage_aborts[0] <= hi


LAW_CELLS = {**{name: dataclasses.replace(cfg, trials=10 ** 4)
                for name, cfg in STREAM_CELLS.items()},
             **{f"{n}-{beta}": aborts_cell(n, beta, 10 ** 4)
                for n in (256, 1024) for beta in (0.6, 0.65, 0.7)}}


@pytest.mark.parametrize("cell", list(LAW_CELLS))
def test_stage_aborts_follow_exact_law(cell):
    # every stage's abort count, not only the total, lies in the two-sided
    # band around its exact probability
    cfg = LAW_CELLS[cell]
    est = mc.estimate_abort_probability(cfg)
    law = stage_abort_probabilities(cfg)
    assert len(est.stage_aborts) == len(law)
    for stage, (count, prob) in enumerate(zip(est.stage_aborts, law)):
        lo, hi = binomial_band(cfg.trials, prob, 1e-9)
        assert lo <= count <= hi, (stage, count, prob)


def test_exact_law_reaches_round_aborts():
    # at least one cell checks the round branch where it matters
    worst = max(max(stage_abort_probabilities(cfg)[1:])
                for cfg in LAW_CELLS.values())
    assert worst >= 1e-3


# ---------------------------------------------------------------- aggregates

def test_estimate_abort_probability_requires_enough_trials():
    with pytest.raises(ValueError):
        mc.estimate_abort_probability(make_config(trials=50))


def test_abort_estimate_wilson_interval():
    cfg = make_config(n_pairs=2 ** 16, beta=0.5, f_min=0.9, trials=120)
    est = mc.estimate_abort_probability(cfg)
    assert est.trials == 120
    assert est.aborts == 120
    assert est.stage_aborts == (120, 0, 0)
    assert est.rate == 1.0
    lo, hi = est.ci
    assert lo <= est.rate <= hi + 1e-12
    assert hi == pytest.approx(1.0, abs=1e-12)
    assert 0.9 < lo < 1.0


def test_abort_estimate_keeps_the_trials_in_order():
    # the estimate counts the campaign's own trials, stage by stage
    cfg = mc.ProtocolConfig(n_pairs=256, beta=0.65,
                            noise=nm.TwoQubitCorrelatedNoise(0.99), rounds=4,
                            f_min=0.5, seed=5, trials=100)
    est = mc.estimate_abort_probability(cfg)
    _, stage, _ = campaign(cfg)
    assert len(stage) == cfg.trials
    assert est.stage_aborts == tuple(np.bincount(stage, minlength=6)[:5])
    assert est.aborts == sum(est.stage_aborts) == int((stage < 5).sum())
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
    p0, successes = mc._trajectory(cfg.beta, cfg.noise, cfg.rounds)
    marginals = bell_marginals(cfg)
    assert np.array_equal(marginals[0], p0)
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
    # the seeded campaign completes every round while its pairs halve
    _, stage, pairs = campaign(cfg)
    assert (stage == cfg.rounds + 1).all()
    k_d = cfg.n_pairs - math.isqrt(cfg.n_pairs)
    assert (pairs <= k_d >> cfg.rounds).all()

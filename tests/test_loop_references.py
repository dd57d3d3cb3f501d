"""The index table, the steps it drives, the ensemble embeddings, the
batched product-form audit and the Monte Carlo sampler against the
explicit loops and closed forms they are computed without.

Each reference below is the plain loop version of a vectorised function,
or the hand-written closed form of a step that the one table evaluator
now computes.  Where the arithmetic is unchanged the results must be
equal; where the summation order changed (``cross_mass``, the steps) a
tolerance of a few units in the last place of a unit-sum float64 vector
applies, and the exact ``Fraction`` paths must agree exactly.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

import qdistill.noise_models as nm
import qdistill.recurrence as rc
import qdistill.steering_verify as sv
from qdistill.quantum_core import (
    BELL_ORDER,
    BellDiagonalState,
    LabeledEnsembleState,
    bell_basis,
    bell_vector,
    CORRELATED_SUPPORT,
    ensemble_purification,
    partial_trace,
    trace_norm,
)

from conftest import STREAM_CELLS, campaign, dyadic_state, ginibre_density

idx = LabeledEnsembleState.index
BITS = (0, 1)


def loop_index_table(u):
    OUT, F, A, B = [], [], [], []
    for d0 in BITS:
        for d1 in BITS:
            for g0 in BITS:
                for g1 in BITS:
                    for i1 in BITS:
                        j1, i2, j2 = d1 ^ i1, d0 ^ i1, d0 ^ d1 ^ i1
                        for k1 in BITS:
                            for l1 in BITS:
                                for k2 in BITS:
                                    for l2 in BITS:
                                        if tuple(u(k1, l1, k2, l2)) != (g0, g1):
                                            continue
                                        for a1 in BITS:
                                            for b1 in BITS:
                                                for a2 in BITS:
                                                    for b2 in BITS:
                                                        OUT.append(idx(d0, d1, g0, g1))
                                                        F.append(idx(a1, b1, a2, b2))
                                                        A.append(idx(i1 ^ a1, j1 ^ b1,
                                                                     k1 ^ a1, l1 ^ b1))
                                                        B.append(idx(i2 ^ a2, j2 ^ b2,
                                                                     k2 ^ a2, l2 ^ b2))
    return OUT, F, A, B


def noiseless_raw(v):
    """Unnormalized noiseless DEJMPS update in BELL_ORDER (00, 11, 01, 10):
    [p00^2 + p11^2, 2 p01 p10, p01^2 + p10^2, 2 p00 p11]."""
    return [v[0] * v[0] + v[1] * v[1], 2 * v[2] * v[3],
            v[2] * v[2] + v[3] * v[3], 2 * v[0] * v[1]]


def binary_raw(p, f0):
    """Unnormalized binary-pair update over (j, l) = 00, 01, 10, 11."""
    f1 = 1 - f0
    p00, p01, p10, p11 = p
    r00 = (f0 * f0 * (p00 * p00 + 2 * p00 * p01)
           + f1 * f1 * (p11 * p11 + 2 * p10 * p11)
           + 2 * f0 * f1 * (p11 * p00 + p10 * p00 + p11 * p01))
    r01 = f0 * f0 * p01 * p01 + 2 * f0 * f1 * p10 * p01 + f1 * f1 * p10 * p10
    r10 = (f0 * f0 * (p10 * p10 + 2 * p10 * p11)
           + f1 * f1 * (p01 * p01 + 2 * p00 * p01)
           + 2 * f0 * f1 * (p01 * p10 + p00 * p10 + p01 * p11))
    r11 = f0 * f0 * p11 * p11 + 2 * f0 * f1 * p00 * p11 + f1 * f1 * p00 * p00
    return [r00, r01, r10, r11]


def normalized(raw):
    n = sum(raw)
    return [r / n for r in raw], n


def embedded_reduced_step(q, noise, u):
    """The reduced map as the embed-step-restrict it is defined by: embed q
    on the correlated support, run the 16-dim step, keep the support and
    renormalize; N is the full success probability times the kept share."""
    p = np.zeros(16)
    p[CORRELATED_SUPPORT] = q
    out16, n_full = rc.dejmps_noisy_step(p, noise, u)
    raw = out16[CORRELATED_SUPPORT]
    s = raw.sum()
    return raw / s, n_full * s


def restricted_loop_table(u, support):
    pos = {label: i for i, label in enumerate(support)}
    return [[pos[o], f, pos[a], pos[b]]
            for o, f, a, b in zip(*loop_index_table(u))
            if o in pos and a in pos and b in pos]


def loop_cross_mass(p):
    total = 0.0
    for i in BITS:
        for j in BITS:
            for k in BITS:
                for l in BITS:
                    if (i, j) != (k, l):
                        total += p[idx(i, j, k, l)]
    return total


def loop_to_density_matrix(p):
    basis = bell_basis()
    mat = np.zeros((16, 16), dtype=complex)
    for i in BITS:
        for j in BITS:
            b = basis[:, BELL_ORDER.index((i, j))]
            bb = np.outer(b, b.conj())
            for k in BITS:
                for l in BITS:
                    w = p[idx(i, j, k, l)]
                    if w == 0.0:
                        continue
                    flag = np.zeros((4, 4), dtype=complex)
                    flag[2 * k + l, 2 * k + l] = 1.0
                    mat += w * np.kron(bb, flag)
    return mat


def loop_ensemble_purification(p):
    psi = np.zeros(256, dtype=complex)
    for i in BITS:
        for j in BITS:
            b = bell_vector(i, j)
            for k in BITS:
                for l in BITS:
                    w = p[idx(i, j, k, l)]
                    if w == 0.0:
                        continue
                    lv = np.zeros(4)
                    lv[2 * k + l] = 1.0
                    ev = np.zeros(16)
                    ev[idx(i, j, k, l)] = 1.0
                    psi += np.sqrt(w) * np.kron(np.kron(b, lv), ev)
    return psi


def noisy_trajectory(steps=5):
    dist = nm.distribution_from(nm.SingleQubitWhiteNoise(0.99))
    state = LabeledEnsembleState.from_bell_diagonal(
        BellDiagonalState.werner(0.9), flags="correlated")
    states = [state]
    for _ in range(steps):
        state, _ = rc.dejmps_noisy_step(state, dist)
        states.append(state)
    return states


def ensembles():
    rng = np.random.default_rng(20240817)
    dirichlet = [LabeledEnsembleState(rng.dirichlet(np.ones(16)))
                 for _ in range(8)]
    return dirichlet + noisy_trajectory()


@pytest.mark.parametrize("u", [rc.default_flag_update(),
                               rc.conjunctive_flag_update()],
                         ids=lambda u: u.name)
def test_index_table_matches_loop(u):
    arrays, lists = rc._index_table(u)
    ref = loop_index_table(u)
    assert len(ref[0]) == 2048
    for got, got_list, want in zip(arrays, lists, ref):
        assert got.dtype == np.intp
        assert np.array_equal(got, want)
        assert got_list == want


def test_cross_mass_matches_loop():
    for s in ensembles():
        assert abs(s.cross_mass() - loop_cross_mass(s.p)) <= 1e-15


def test_to_density_matrix_matches_loop():
    for s in ensembles():
        assert np.array_equal(s.to_density_matrix().mat,
                              loop_to_density_matrix(s.p))


def test_ensemble_purification_matches_loop():
    for s in ensembles():
        assert np.array_equal(ensemble_purification(s),
                              loop_ensemble_purification(s.p))


BINARY_SUPPORT = [idx(0, j, 0, l) for j in BITS for l in BITS]
RESTRICTIONS = [(rc.default_flag_update(), CORRELATED_SUPPORT, 128),
                (rc.conjunctive_flag_update(), BINARY_SUPPORT, 32)]


@pytest.mark.parametrize("u,support,size", RESTRICTIONS,
                         ids=["xor-correlated", "and-binary"])
def test_restricted_table_matches_filtered_loop(u, support, size):
    arrays, lists = rc._index_table(u, support)
    want = restricted_loop_table(u, list(support))
    assert len(want) == size
    assert [list(t) for t in zip(*lists)] == want
    for got, got_list in zip(arrays, lists):
        assert got.dtype == np.intp
        assert got.tolist() == got_list
        assert not got.flags.writeable
    assert rc._index_table(u, support) is rc._index_table(u, tuple(support))


def test_xor_restriction_drops_no_weight():
    # Under XOR every full-table term with A and B on the correlated
    # support writes onto it, so the 128 kept terms are all of them.
    (OUT, _F, A, B), _ = rc._index_table(rc.default_flag_update())
    on = np.isin(A, CORRELATED_SUPPORT) & np.isin(B, CORRELATED_SUPPORT)
    assert on.sum() == 128
    assert np.isin(OUT[on], CORRELATED_SUPPORT).all()


def test_noiseless_step_matches_closed_form_exactly():
    rng = np.random.default_rng(11)
    for _ in range(8):
        v = [Fraction(int(x), 97) for x in rng.integers(0, 40, 4)]
        v[0] += 1
        out, n = rc.dejmps_noiseless_step(v)
        assert (out, n) == normalized(noiseless_raw(v))


def test_noiseless_step_matches_closed_form_in_floats():
    rng = np.random.default_rng(12)
    for _ in range(50):
        v = rng.dirichlet(np.ones(4))
        want, n_want = normalized(noiseless_raw(v))
        out, n = rc.dejmps_noiseless_step(v)
        assert np.abs(out - np.array(want)).max() <= 1e-15
        assert abs(n - n_want) <= 1e-15


@pytest.mark.parametrize("f0", [Fraction(1), Fraction(9, 10), Fraction(3, 4),
                                Fraction(1, 3), Fraction(0)])
def test_binary_step_matches_closed_form_exactly(f0):
    rng = np.random.default_rng(13)
    for _ in range(6):
        p = [Fraction(int(x), 89) for x in rng.integers(0, 30, 4)]
        p[0] += 1
        out, n = rc.binary_step(p, f0)
        assert (out, n) == normalized(binary_raw(p, f0))


def test_binary_step_matches_closed_form_in_floats():
    rng = np.random.default_rng(14)
    for f0 in (1.0, 0.99, 0.9, 0.75, 0.5, 0.2):
        for _ in range(20):
            p = rng.dirichlet(np.ones(4))
            want, n_want = normalized(binary_raw(p, f0))
            out, n = rc.binary_step(p, f0)
            assert np.abs(out - np.array(want)).max() <= 1e-15
            assert abs(n - n_want) <= 1e-15


@pytest.mark.parametrize("u", [rc.default_flag_update(),
                               rc.conjunctive_flag_update()],
                         ids=lambda u: u.name)
def test_reduced_map_matches_embedded_step(u):
    # A non-XOR update writes off the support; dropping those terms is the
    # embedded step restricted and renormalized, with N scaled by the share.
    rng = np.random.default_rng(15)
    noise = nm.distribution_from(nm.TwoQubitCorrelatedNoise(0.9))
    rmap = rc.reduced_dejmps_map(noise, u)
    for _ in range(20):
        q = rng.dirichlet(np.ones(4))
        want, n_want = embedded_reduced_step(q, noise, u)
        out, n = rmap(q)
        assert np.abs(out - want).max() <= 1e-15
        assert abs(n - n_want) <= 1e-15


# ------------------------------------------------------------ steering audit

def loop_steer_rotate(mat):
    rho_a = partial_trace(mat, [0, 1], (2, 2, 2, 2)).mat
    w, v = np.linalg.eigh(rho_a)
    kmax = int(np.argmax(w))
    order = [kmax] + [k for k in range(4) if k != kmax]
    u = v[:, order].conj().T
    big = np.kron(u, np.eye(4))
    return u, big @ mat @ big.conj().T


def loop_discrepancy(mat, threshold):
    rho4 = mat.reshape(4, 4, 4, 4)
    rho_b = partial_trace(mat, [2, 3], (2, 2, 2, 2)).mat
    best = None
    for proj in sv._tset(2):
        cond = np.einsum("ab,biaj->ij", proj, rho4)
        p = cond.trace().real
        if p < threshold or p <= 0.0:
            continue
        d = trace_norm(cond / p, rho_b)
        best = d if best is None else max(best, d)
    return best


def loop_product_form(mat):
    """(epsilon, lhs) of the rotated state, one outcome at a time."""
    _, mat = loop_steer_rotate(mat)
    disc = loop_discrepancy(mat, 1 / 16)
    rho_a = partial_trace(mat, [0, 1], (2, 2, 2, 2)).mat
    rho_b = partial_trace(mat, [2, 3], (2, 2, 2, 2)).mat
    return disc, trace_norm(mat, np.kron(rho_a, rho_b))


def test_batched_audit_matches_loop():
    # Same arithmetic per state: rotations and discrepancies are equal, the
    # lhs is allowed a few units in the last place of an O(1) trace norm.
    rng = np.random.default_rng(16)
    stack = np.stack(
        [ginibre_density(rng, 16) for _ in range(8)]
        + [np.kron(ginibre_density(rng, 4), ginibre_density(rng, 4))
           for _ in range(4)]
        + [np.kron(dyadic_state(rng), dyadic_state(rng)) for _ in range(4)])
    u, rotated = sv.steer_rotate(stack)
    verdicts = sv.product_form_batch(stack)
    for i, mat in enumerate(stack):
        u_ref, rot_ref = loop_steer_rotate(mat)
        assert np.array_equal(u[i], u_ref)
        assert np.array_equal(rotated[i], rot_ref)
        eps, lhs = loop_product_form(mat)
        assert verdicts[i].epsilon == eps
        assert abs(verdicts[i].lhs - lhs) < 1e-14
    raw = sv.steering_discrepancy(stack, threshold=1 / 16)
    assert raw.tolist() == [loop_discrepancy(m, 1 / 16) for m in stack]


# ---------------------------------------------------------------- Monte Carlo

def loop_campaign(cfg):
    """The campaign one trial at a time: (stage, final_pairs,
    fidelity_estimate) per trial.  Stage s draws from Philox seeded by
    SeedSequence(seed, spawn_key=(s,)), one binomial for each trial that
    reaches it, in trial order."""
    streams = [np.random.Generator(np.random.Philox(
        np.random.SeedSequence(cfg.seed, spawn_key=(s,))))
        for s in range(cfg.rounds + 1)]
    state = LabeledEnsembleState.from_bell_diagonal(cfg.channel_state(),
                                                    flags="zero")
    dist = nm.distribution_from(cfg.noise)
    successes = []
    for _ in range(cfg.rounds):
        state, success = rc.dejmps_noisy_step(state, dist)
        successes.append(success)
    p = cfg.channel_state().p
    m_est = math.isqrt(cfg.n_pairs)
    mpp = m_est // 2
    rows = []
    for _ in range(cfg.trials):
        wins = int(streams[0].binomial(mpp, (p[0] + p[2]) * (p[0] + p[3])))
        f_hat = (3.0 * math.sqrt(wins / mpp) - 1.0) / 2.0
        pairs = cfg.n_pairs - m_est
        if f_hat < cfg.threshold:
            rows.append((0, pairs, f_hat))
            continue
        stage = cfg.rounds + 1
        for m in range(1, cfg.rounds + 1):
            if pairs // 2 == 0:
                stage = m
                break
            pairs = int(streams[m].binomial(pairs // 2, successes[m - 1]))
            if pairs == 0:
                stage = m
                break
        rows.append((stage, pairs, f_hat))
    return rows


@pytest.mark.parametrize("cell,stages", [
    ("ok", {3}),
    ("estimation", {0, 5}),
    ("rounds", {3, 4}),
])
def test_sampler_matches_scalar_loop(cell, stages):
    # numpy draws nothing for a binomial of size zero, so giving an aborted
    # trial size zero leaves each stage's stream to the trials that reach it
    cfg = dataclasses.replace(STREAM_CELLS[cell], trials=1000)
    f_hat, stage, pairs = campaign(cfg)
    rows = loop_campaign(cfg)
    assert list(zip(stage.tolist(), pairs.tolist(), f_hat.tolist())) == rows
    assert stages <= {s for s, _, _ in rows}   # the cell reaches its stages

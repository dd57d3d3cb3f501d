"""The index table and the ensemble embeddings against the explicit loops
they are computed without.

Each reference below is the plain loop version of a vectorised function.
Where the arithmetic is unchanged the results must be equal; where the
summation order changed (``cross_mass``) a tolerance of a few units in the
last place of a unit-sum float64 vector applies.
"""

import numpy as np
import pytest

import qdistill.noise_models as nm
import qdistill.recurrence as rc
from qdistill.quantum_core import (
    BELL_ORDER,
    BellDiagonalState,
    LabeledEnsembleState,
    asymptotic_state,
    bell_basis,
    bell_vector,
    ensemble_purification,
)

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


def loop_asymptotic_bell_diagonal(q):
    basis = bell_basis()
    mat = np.zeros((16, 16), dtype=complex)
    for pos, (i, j) in enumerate(BELL_ORDER):
        b = basis[:, pos]
        flag = np.zeros((4, 4), dtype=complex)
        flag[2 * i + j, 2 * i + j] = 1.0
        mat += q[pos] * np.kron(np.outer(b, b.conj()), flag)
    return mat


def loop_asymptotic_labeled(p):
    basis = bell_basis()
    mat = np.zeros((256, 256), dtype=complex)
    for i in BITS:
        for j in BITS:
            b = basis[:, BELL_ORDER.index((i, j))]
            bb = np.outer(b, b.conj())
            for k in BITS:
                for l in BITS:
                    w = p[idx(i, j, k, l)]
                    if w == 0.0:
                        continue
                    lflag = np.zeros((4, 4), dtype=complex)
                    lflag[2 * k + l, 2 * k + l] = 1.0
                    eflag = np.zeros((16, 16), dtype=complex)
                    eflag[idx(i, j, k, l), idx(i, j, k, l)] = 1.0
                    mat += w * np.kron(np.kron(bb, lflag), eflag)
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


def test_asymptotic_state_matches_loop():
    rng = np.random.default_rng(7)
    for _ in range(8):
        q = BellDiagonalState(rng.dirichlet(np.ones(4)))
        assert np.array_equal(asymptotic_state(q).mat,
                              loop_asymptotic_bell_diagonal(q.p))
    for s in ensembles():
        assert np.array_equal(asymptotic_state(s).mat,
                              loop_asymptotic_labeled(s.p))


def test_ensemble_purification_matches_loop():
    for s in ensembles():
        assert np.array_equal(ensemble_purification(s),
                              loop_ensemble_purification(s.p))

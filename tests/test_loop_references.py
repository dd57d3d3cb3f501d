"""The index table, the maps it drives, the ensemble embeddings, the
batched product-form audit, the Monte Carlo sampler and its per-trial
table against the explicit loops and closed forms they are computed
without.

Each reference below is the plain loop version of a vectorised function,
or the hand-written closed form of a map that the one table evaluator
now computes.  Where the arithmetic is unchanged the results must be
equal; where the summation order changed (``cross_mass``, the maps) a
tolerance of a few units in the last place of a unit-sum float64 vector
applies, and the exact ``Fraction`` paths must agree exactly.
"""

import csv
import dataclasses
import io
import math
from fractions import Fraction

import numpy as np
import pytest

import qdistill.cli as cli
import qdistill.fixed_point as fp
import qdistill.montecarlo as mc
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
    trace_norm,
    _trace_norms,
)

from conftest import (STREAM_CELLS, campaign, dyadic_state, ginibre_density,
                      partial_trace, plain_fixed_point)

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


def loop_step(table, p, f, dim):
    """One step of a table map, its terms summed one by one in the entries'
    own arithmetic (Fraction, Decimal, sympy): (raw / N, N) as lists, with
    N = sum raw.  The oracle of the maps' coefficient tensor."""
    pv, fv = np.asarray(p).tolist(), np.asarray(f).tolist()
    raw = [0] * dim
    for o, x, a, b in zip(*(t.tolist() for t in table)):
        raw[o] += fv[x] * pv[a] * pv[b]
    n = sum(raw)
    return [r / n for r in raw], n


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


def bbpssw_closed(p, f):
    """BBPSSW on the Werner parameter: (b(p), N) with
    b(p) = (4p^2f^2 + 2pf)/(3p^2f^2 + 3) and N = (1 + p^2f^2)/2."""
    pf = p * f
    return (4 * pf * pf + 2 * pf) / (3 * pf * pf + 3), (1 + pf * pf) / 2


def fidelity_closed(F, a, c, c2):
    """(F', N) of F' = (a (F^2 + r^2) + c) / N,
    N = a (F^2 + 2Fr + 5r^2) + c2, r = (1 - F)/3."""
    r = (1 - F) / 3
    den = a * (F * F + 2 * F * r + 5 * r * r) + c2
    return (a * (F * F + r * r) + c) / den, den


def two_qubit_closed(F, f_tilde):
    a = f_tilde * f_tilde
    return fidelity_closed(F, a, (1 - a) / 8, (1 - a) / 2)


def worstcase_closed(F, f_i):
    return fidelity_closed(F, f_i, 0, 1 - f_i)


def normalized(raw):
    n = sum(raw)
    return [r / n for r in raw], n


def embedded_reduced_step(q, noise, u):
    """The reduced map as the embed-step-restrict it is defined by: embed q
    on the correlated support, run the 16-dim step, keep the support and
    renormalize; N is the full success probability times the kept share."""
    p = np.zeros(16)
    p[CORRELATED_SUPPORT] = q
    out16, n_full = rc.noisy_dejmps_map(noise, u)(p)
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
    return [state] + [LabeledEnsembleState(p) for p, _ in rc.trajectory(
        rc.noisy_dejmps_map(dist), state.p, steps)]


def ensembles():
    rng = np.random.default_rng(20240817)
    dirichlet = [LabeledEnsembleState(rng.dirichlet(np.ones(16)))
                 for _ in range(8)]
    return dirichlet + noisy_trajectory()


@pytest.mark.parametrize("u", [rc.default_flag_update(),
                               rc.conjunctive_flag_update()],
                         ids=lambda u: u.name)
def test_index_table_matches_loop(u):
    ref = loop_index_table(u)
    assert len(ref[0]) == 2048
    for got, want in zip(rc._index_table(u), ref):
        assert got.dtype == np.intp
        assert np.array_equal(got, want)


def test_cross_mass_matches_loop():
    for s in ensembles():
        assert abs(s.cross_mass() - loop_cross_mass(s.p)) <= 1e-15


def test_to_density_matrix_matches_loop():
    for s in ensembles():
        assert np.array_equal(s.to_density_matrix(),
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
    arrays = rc._index_table(u, support)
    want = restricted_loop_table(u, list(support))
    assert len(want) == size
    assert [list(t) for t in zip(*(a.tolist() for a in arrays))] == want
    for got in arrays:
        assert got.dtype == np.intp
        assert not got.flags.writeable
    assert rc._index_table(u, support) is rc._index_table(u, tuple(support))


def test_xor_restriction_drops_no_weight():
    # Under XOR every full-table term with A and B on the correlated
    # support writes onto it, so the 128 kept terms are all of them: the
    # full map fixes the embedding of a reduced fixed point, which is why
    # the reduced solver needs no full-map check.  Under AND, 96 leave.
    for u, leaving in [(rc.default_flag_update(), 0),
                       (rc.conjunctive_flag_update(), 96)]:
        OUT, _F, A, B = rc._index_table(u)
        on = np.isin(A, CORRELATED_SUPPORT) & np.isin(B, CORRELATED_SUPPORT)
        assert on.sum() == 128
        assert (~np.isin(OUT[on], CORRELATED_SUPPORT)).sum() == leaving


def test_noiseless_step_matches_closed_form_exactly():
    rng = np.random.default_rng(11)
    for _ in range(8):
        v = [Fraction(int(x), 97) for x in rng.integers(0, 40, 4)]
        v[0] += 1
        out, n = rc.noiseless_dejmps_map()(v)
        assert (out.tolist(), n) == normalized(noiseless_raw(v))


def test_noiseless_step_matches_closed_form_in_floats():
    rng = np.random.default_rng(12)
    for _ in range(50):
        v = rng.dirichlet(np.ones(4))
        want, n_want = normalized(noiseless_raw(v))
        out, n = rc.noiseless_dejmps_map()(v)
        assert np.abs(out - np.array(want)).max() <= 1e-15
        assert abs(n - n_want) <= 1e-15


@pytest.mark.parametrize("f0", [Fraction(1), Fraction(9, 10), Fraction(3, 4),
                                Fraction(1, 3), Fraction(0)])
def test_binary_step_matches_closed_form_exactly(f0):
    rng = np.random.default_rng(13)
    for _ in range(6):
        p = [Fraction(int(x), 89) for x in rng.integers(0, 30, 4)]
        p[0] += 1
        out, n = rc.binary_map(f0)(p)
        assert (out.tolist(), n) == normalized(binary_raw(p, f0))


def test_binary_step_matches_closed_form_in_floats():
    rng = np.random.default_rng(14)
    for f0 in (1.0, 0.99, 0.9, 0.75, 0.5, 0.2):
        for _ in range(20):
            p = rng.dirichlet(np.ones(4))
            want, n_want = normalized(binary_raw(p, f0))
            out, n = rc.binary_map(f0)(p)
            assert np.abs(out - np.array(want)).max() <= 1e-15
            assert abs(n - n_want) <= 1e-15


# Each scalar map with its closed form, checked at the points of its sympy
# slope check and then at seeded random ones.
SCALAR_CLOSED_FORMS = {
    "bbpssw": (rc.bbpssw_map, bbpssw_closed),
    "bbpssw2q": (rc.bbpssw_two_qubit_map, two_qubit_closed),
    "worstcase": (rc.worstcase_map, worstcase_closed),
}


@pytest.mark.parametrize("name", SCALAR_CLOSED_FORMS)
def test_scalar_map_matches_closed_form_exactly(name):
    make_map, closed = SCALAR_CLOSED_FORMS[name]
    rng = np.random.default_rng(17)
    points = [(Fraction(3, 4), Fraction(97, 100)),
              (Fraction(1, 5), Fraction(19, 20)),
              (Fraction(9, 10), Fraction(1)), (Fraction(0), Fraction(24, 25))]
    points += [(Fraction(int(x), 97), Fraction(int(a), 97))
               for x, a in rng.integers(0, 98, (12, 2))]
    for x, param in points:
        (out,), n = make_map(param)([x])
        assert (out, n) == closed(x, param)


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


# ----------------------------------------------------------- fixed-point loop

def loop_distance(a, b):
    return sum(np.abs(a - b).tolist())


def loop_radius(rmap, p):
    return float(np.abs(np.linalg.eigvals(rmap.jac(p))).max())


def loop_report(rmap, p, steps, lam=None, newton=0):
    return fp.FixedPointReport(p, loop_distance(rmap(p)[0], p),
                               None if lam is None else lam < 1.0, lam,
                               steps, newton)


def loop_newton(rmap, x, tol, budget, done):
    eye = np.eye(x.size)
    for step in range(1, budget + 1):
        g = rmap(x)[0]
        if loop_distance(g, x) < tol:
            lam = loop_radius(rmap, g)
            return loop_report(rmap, g, done + step, lam, step) if lam < 1 else None
        try:
            x = x + np.linalg.solve(eye - rmap.jac(x), g - x)
        except np.linalg.LinAlgError:
            break
    return None


def loop_iterate(rmap, p0, tol=1e-13, maxiter=20000):
    """The fixed-point loop with the close trigger alone: plain iteration
    until a step falls below 1e-4, then at most 20 Newton steps, each
    evaluating the map and its Jacobian apart, with no clip at 0.  The
    oracle of the loop that also starts Newton when iteration is slow."""
    q = g = np.asarray(p0, dtype=float)
    polish = True
    for step in range(1, maxiter + 1):
        g = rmap(q)[0]
        diff = loop_distance(g, q)
        if diff < tol:
            return loop_report(rmap, g, step, loop_radius(rmap, g))
        if polish and diff < 1e-4:
            polish = False
            report = loop_newton(rmap, g, tol, min(20, maxiter - step), step)
            if report is not None:
                return report
        q = g
    return loop_report(rmap, g, maxiter)


# The grids of the pinned dejmps scans, 31 points across each fold (white
# 0.898311, corr2 0.827935), and a wide grid from the maximally mixed basin
# to f = 1.
FOLD_GRIDS = {
    "white": [*cli._parse_grid("0.88:1:0.02"),
              *np.linspace(0.89825, 0.8990, 31), *np.linspace(0.85, 1, 127)],
    "corr2": [*cli._parse_grid("0.8:1:0.02"),
              *np.linspace(0.82788, 0.8286, 31), *np.linspace(0.76, 1, 127)],
}


@pytest.mark.parametrize("kind", FOLD_GRIDS)
def test_reduced_solve_matches_the_close_trigger_loop(kind):
    # Both loops stop once a step is below tol = 1e-13, so each location
    # is within about tol / (1 - lambda) of the fixed point: near a fold
    # that is ~1e-11, and there the two differ by up to ~3e-12, either one
    # the closer (against a 40-digit Newton solve).  So the locations must
    # agree within the sum of the two bounds, and the distillation-branch
    # radii, which move ~1.2x the location, within 1e-12 / (1 - lambda).
    # (In the maximally mixed basin the radius is eigvals' rounding of a
    # nilpotent Jacobian.)  q00 is that of plain iteration: no polish left
    # the start's basin.
    for value in FOLD_GRIDS[kind]:
        dist = nm.distribution_from(nm.noise_from_config(
            {"kind": kind, "parameter": float(value)}))
        rmap = rc.reduced_dejmps_map(dist)
        got = fp.reduced_noisy_dejmps_fixed_point(dist)
        want = loop_iterate(rmap, fp.DEJMPS_START)
        assert want.converged, (kind, value)
        gap = 1 - got.lambda_max
        assert loop_distance(got.location, want.location) < 2e-13 / gap, (
            kind, value)
        if got.location[0] > 0.5:
            assert abs(got.lambda_max - want.lambda_max) < 1e-12 / gap, (
                kind, value)
        assert got.location.min() >= 0 and got.residual < 1e-13
        ref = plain_fixed_point(rmap)
        assert abs(got.location[0] - ref[0]) < 1e-8, (kind, value)


# ------------------------------------------------------------ steering audit

def loop_steer_rotate(mat):
    rho_a = partial_trace(mat, [0, 1], (2, 2, 2, 2))
    w, v = np.linalg.eigh(rho_a)
    kmax = int(np.argmax(w))
    order = [kmax] + [k for k in range(4) if k != kmax]
    u = v[:, order].conj().T
    big = np.kron(u, np.eye(4))
    return u, big @ mat @ big.conj().T


def loop_discrepancy(mat, threshold):
    rho4 = mat.reshape(4, 4, 4, 4)
    rho_b = partial_trace(mat, [2, 3], (2, 2, 2, 2))
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
    rho_a = partial_trace(mat, [0, 1], (2, 2, 2, 2))
    rho_b = partial_trace(mat, [2, 3], (2, 2, 2, 2))
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


@pytest.mark.parametrize("size", [1, 16, 17, 40])
def test_conditional_states_match_einsum_across_blocks(size):
    # The reduce runs 16 states at a time: 17 and 40 cross a block edge.
    rng = np.random.default_rng(26 + size)
    kinds = (lambda: ginibre_density(rng, 16),
             lambda: np.kron(ginibre_density(rng, 4), ginibre_density(rng, 4)),
             lambda: np.kron(dyadic_state(rng), dyadic_state(rng)))
    stack = np.stack([kinds[i % 3]() for i in range(size)])
    got = sv._conditional_states(stack).view(float)
    want = np.einsum("kab,sbiaj->skij", sv._tset(2),
                     stack.reshape(-1, 4, 4, 4, 4)).view(float)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    raw = sv.steering_discrepancy(stack, threshold=1 / 16)
    assert raw.tolist() == [loop_discrepancy(m, 1 / 16) for m in stack]
    eps = [v.epsilon for v in sv.product_form_batch(stack)]
    assert eps == [loop_product_form(m)[0] for m in stack]


def all_outcome_discrepancies(mats, rho_b, threshold):
    """_discrepancies with every outcome eigensolved: the maximum of all 16
    trace norms, the reference of the skip rule."""
    cond = sv._conditional_states(mats)
    p = np.trace(cond, axis1=-2, axis2=-1).real
    kept = (p >= threshold) & (p > 0.0)
    diff = cond / np.where(kept, p, 1.0)[..., None, None] - rho_b[:, None]
    return np.where(kept, _trace_norms(diff), -np.inf).max(axis=1)


def _pruned_and_reference(mats, threshold, rho_b=None):
    if rho_b is None:
        rho_b, = sv._marginals(mats, sv._KEEP_B)
    got = sv._discrepancies(mats, rho_b, threshold)
    want = all_outcome_discrepancies(mats, rho_b, threshold)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    return got.tolist(), want.tolist()


def _count_eigensolves(monkeypatch):
    """Record the number of 4x4 matrices each _trace_norms call gets."""
    solved = []

    def counting(stack):
        if stack.shape[-1] == 4:
            solved.append(stack.size // 16)
        return _trace_norms(stack)

    monkeypatch.setattr(sv, "_trace_norms", counting)
    return solved


def _products(rng, size):
    return np.stack([np.kron(ginibre_density(rng, 4), ginibre_density(rng, 4))
                     for _ in range(size)])


# (1 - t) product + t Ginibre: t = 0 is a product stack, t = 1 a Ginibre one
MIXTURE_T = [0.0, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0]


@pytest.mark.parametrize("rotate", [True, False])
@pytest.mark.parametrize("t", MIXTURE_T)
def test_skip_rule_keeps_the_all_outcome_maximum(t, rotate):
    rng = np.random.default_rng(32)
    ginibre = np.stack([ginibre_density(rng, 16) for _ in range(64)])
    stack = (1 - t) * _products(rng, 64) + t * ginibre
    mats = sv.steer_rotate(stack)[1] if rotate else stack
    got, want = _pruned_and_reference(mats, 1 / 16)
    assert got == want                   # bitwise


def test_skip_rule_with_a_threshold_that_drops_outcomes():
    rng = np.random.default_rng(33)
    stack = np.stack([ginibre_density(rng, 16) for _ in range(64)])
    p = np.trace(sv._conditional_states(stack), axis1=-2, axis2=-1).real
    threshold = 0.2
    dropped = (p < threshold).sum()
    assert 0 < dropped and (p >= threshold).any(axis=1).all()
    got, want = _pruned_and_reference(stack, threshold)
    assert got == want


def test_skip_rule_keeps_exact_zero_for_dyadic_products():
    rng = np.random.default_rng(34)
    stack = np.stack([np.kron(dyadic_state(rng), dyadic_state(rng))
                      for _ in range(32)])
    got, want = _pruned_and_reference(stack, 1 / 16)
    assert got == want == [0.0] * 32


def test_skip_rule_eigensolves_every_outcome_of_a_tie(monkeypatch):
    # Every conditional state of rho_A ⊗ sigma is exactly sigma, so against
    # another state tau all 16 differences are one matrix: no outcome falls
    # below the bound, and each is eigensolved.
    rng = np.random.default_rng(35)
    stack = np.stack([np.kron(dyadic_state(rng), dyadic_state(rng))
                      for _ in range(8)])
    tau = np.stack([dyadic_state(rng) for _ in range(8)])
    cond = sv._conditional_states(stack)
    p = np.trace(cond, axis1=-2, axis2=-1).real
    diff = cond / p[..., None, None] - tau[:, None]
    assert (p > 0).all() and (diff == diff[:, :1]).all()
    solved = _count_eigensolves(monkeypatch)
    got, want = _pruned_and_reference(stack, 0.0, rho_b=tau)
    assert got == want and min(got) > 0
    assert sum(solved) == 16 * 8


def _faint_correlations(scale, rng):
    """|0000><0000| plus correlations and populations of size ``scale``,
    with dyadic coefficients: every conditional state differs from the B
    marginal by a multiple of ``scale``."""
    rho = np.eye(16, dtype=complex) * scale
    rho[0, 0] = 1.0
    x = (rng.integers(-2, 3, 15) + 1j * rng.integers(-2, 3, 15)) / 4
    rho[0, 1:] = scale * x
    rho[1:, 0] = scale * x.conj()
    return rho


@pytest.mark.parametrize("scale, solved", [(2.0 ** -100, 1), (2.0 ** -530, 16)],
                         ids=["normal", "subnormal"])
def test_skip_rule_keeps_every_outcome_once_the_squares_underflow(
        monkeypatch, scale, solved):
    # At 2^-100 one outcome bounds the other 15.  At 2^-530 the squares are
    # subnormal, where rounding is no longer relative, and none is skipped.
    rng = np.random.default_rng(37)
    stack = np.stack([_faint_correlations(scale, rng) for _ in range(8)])
    solved_counts = _count_eigensolves(monkeypatch)
    got, want = _pruned_and_reference(stack, 1 / 16)
    assert got == want and min(got) > 0
    assert sum(solved_counts) == 8 * solved


def test_skip_rule_eigensolves_under_half_the_outcomes(monkeypatch):
    rng = np.random.default_rng(36)
    rotated = sv.steer_rotate(
        np.stack([ginibre_density(rng, 16) for _ in range(64)]))[1]
    want = sv.steering_discrepancy(rotated, 1 / 16).tolist()
    solved = _count_eigensolves(monkeypatch)
    assert sv.steering_discrepancy(rotated, 1 / 16).tolist() == want
    assert sum(solved) < 16 * 64 / 2


# ---------------------------------------------------------------- Monte Carlo

def campaign_inputs(cfg):
    """Each stage's generator, Philox seeded by SeedSequence(seed,
    spawn_key=(stage,)), the estimation success probability and the
    success probability of each round."""
    streams = [np.random.Generator(np.random.Philox(
        np.random.SeedSequence(cfg.seed, spawn_key=(s,))))
        for s in range(cfg.rounds + 1)]
    q = LabeledEnsembleState.from_bell_diagonal(cfg.channel_state(),
                                                flags="zero").p
    step = rc.noisy_dejmps_map(nm.distribution_from(cfg.noise))
    successes = []
    for _ in range(cfg.rounds):
        q, success = step(q)
        successes.append(success)
    p = cfg.channel_state().p
    return streams, (p[0] + p[2]) * (p[0] + p[3]), successes


def loop_campaign(cfg):
    """The campaign one trial at a time: (stage, final_pairs,
    fidelity_estimate) per trial.  Stage s draws one binomial for each
    trial that reaches it, in trial order."""
    streams, q_est, successes = campaign_inputs(cfg)
    m_est = math.isqrt(cfg.n_pairs)
    mpp = m_est // 2
    rows = []
    for _ in range(cfg.trials):
        wins = int(streams[0].binomial(mpp, q_est))
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


def array_campaign(cfg, block=1 << 16):
    """The campaign as arrays over every trial of a block, each stage
    drawing one binomial per trial, of size 0 for a trial that has
    aborted, and the estimation verdict taken on the float estimate.
    Yields (wins, fidelity_estimate, stage, final_pairs) per block."""
    streams, q_est, successes = campaign_inputs(cfg)
    m_est = math.isqrt(cfg.n_pairs)
    mpp = m_est // 2
    done = cfg.rounds + 1
    for first in range(0, cfg.trials, block):
        size = min(block, cfg.trials - first)
        wins = streams[0].binomial(mpp, q_est, size)
        f_hat = (3.0 * np.sqrt(wins / mpp) - 1.0) / 2.0
        stage = np.where(f_hat < cfg.threshold, 0, done)
        pairs = np.full(size, cfg.n_pairs - m_est, dtype=np.int64)
        for m in range(1, done):
            alive = stage == done
            cpp = np.where(alive, pairs // 2, 0)
            kept = streams[m].binomial(cpp, successes[m - 1])
            stage[alive & (kept == 0)] = m
            pairs = np.where(cpp > 0, kept, pairs)
        yield wins, f_hat, stage, pairs


def _cell(base, **changes):
    return dataclasses.replace(STREAM_CELLS[base], **changes)


ARRAY_CELLS = {
    # a round starts with one pair (final_pairs 1)
    **{f"n{n}-M{rounds}": _cell("rounds", n_pairs=n, rounds=rounds,
                                trials=300)
       for n in range(4, 10) for rounds in range(2, 7)},
    # every trial aborts in estimation and no round draws
    "beta-0.4": _cell("estimation", beta=0.4, f_min=0.9),
    # criterion 10's nine cells
    **{f"c10-{beta}-{f}": mc.ProtocolConfig(
        n_pairs=2 ** 14, beta=beta, noise=nm.TwoQubitCorrelatedNoise(f),
        rounds=4, f_min=fp.bbpssw_two_qubit_fixed_points(f)[0],
        seed=20240817, trials=10 ** 4)
       for beta in (0.95, 0.98, 1.0) for f in (0.99, 0.999, 1.0)},
    # two blocks of up to 65 536 trials
    "two-blocks": _cell("estimation", trials=65_537),
}


def test_sampler_matches_array_reference():
    # the sampler draws for the live trials only and takes the verdict on
    # the win count; its blocks are the all-trials array sampler's, bit
    # for bit, and its counts give that sampler's estimates
    finals, stages = set(), {}
    for name, cfg in ARRAY_CELLS.items():
        mpp = math.isqrt(cfg.n_pairs) // 2
        got = list(mc.sample_campaign(cfg))
        want = list(array_campaign(cfg))
        assert len(got) == len(want), name
        for (wins, stage, pairs), (w_wins, f_hat, w_stage, w_pairs) \
                in zip(got, want):
            for a, b in ((wins, w_wins), (stage, w_stage), (pairs, w_pairs)):
                assert a.dtype == b.dtype and np.array_equal(a, b), name
            assert [mc._fidelity_estimate(w, mpp) for w in wins.tolist()] \
                == f_hat.tolist(), name
            finals.update(pairs[(stage > 0) & (stage <= cfg.rounds)].tolist())
        stages[name] = set(np.concatenate([b[1] for b in got]).tolist())
    # the cells reach what they are there for
    assert {0, 1} <= finals
    assert stages["beta-0.4"] == {0}
    assert ARRAY_CELLS["two-blocks"].trials > mc._BLOCK
    assert {0, 5} <= stages["two-blocks"]


def loop_trial_table(cfg):
    """The ``montecarlo --emit csv`` table written one row at a time by
    ``csv.writer``, from the sampler's arrays."""
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow(["trial", "flag", "abort_stage", "rounds_completed",
                     "fidelity_estimate", "final_pairs"])
    names = ["parameter_estimation"] + [
        f"round {m}" for m in range(1, cfg.rounds + 1)] + [""]
    f_hat, stage, pairs = campaign(cfg)
    for t, (f, s, k) in enumerate(zip(f_hat.tolist(), stage.tolist(),
                                      pairs.tolist())):
        writer.writerow([t, "ok" if s == cfg.rounds + 1 else "fail",
                         names[s], max(s - 1, 0), format(f, ".17g"), k])
    return fh.getvalue(), set(zip(stage.tolist(), pairs.tolist()))


TABLE_CELLS = {
    # 70 000 trials: two sampler blocks of up to 65 536
    "two-blocks": dataclasses.replace(STREAM_CELLS["estimation"],
                                      trials=70_000),
    # estimation aborts, round aborts with 0 and 1 pairs left, completions
    "every-stage": dataclasses.replace(STREAM_CELLS["rounds"], beta=0.9,
                                       rounds=3, trials=500),
}


@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
@pytest.mark.parametrize("cell", TABLE_CELLS)
def test_trial_table_matches_row_writer(cell, to_file, tmp_path, capsys):
    # the table is written a block at a time, without csv.writer; its bytes,
    # \r\n line ends included, are those of the row-at-a-time writer
    cfg = TABLE_CELLS[cell]
    want, ends = loop_trial_table(cfg)
    if cell == "every-stage":
        assert {(0, 12), (2, 0), (3, 0), (3, 1), (4, 1)} <= ends
    argv = ["montecarlo", "--n-pairs", str(cfg.n_pairs), "--beta",
            repr(cfg.beta), "--noise", f"corr2:{cfg.noise.f_tilde!r}",
            "--rounds", str(cfg.rounds), "--f-min", repr(cfg.f_min),
            "--trials", str(cfg.trials), "--seed", str(cfg.seed)]
    assert cli.run(argv) == 0
    payload = capsys.readouterr().out
    out = tmp_path / "trials.csv"
    assert cli.run(argv + ["--emit", "csv"]
                   + (["--out", str(out)] if to_file else [])) == 0
    printed = capsys.readouterr().out
    if to_file:
        assert out.read_bytes() == want.encode()
        assert printed == payload
    else:  # as bytes, whose mismatch pytest reports without a line diff
        assert printed.encode() == (want + payload).encode()

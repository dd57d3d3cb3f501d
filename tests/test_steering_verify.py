"""Local tomography, steering discrepancy, and the product-form audit."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import qdistill.steering_verify as sv
from qdistill.quantum_core import pauli_decompose, partial_trace, trace_norm

from conftest import dyadic_state, ginibre_density


# ------------------------------------------------------------ building blocks

def test_single_qubit_block_is_integer_pattern():
    b = sv.single_qubit_block()
    expect = np.array([[1, 1, 0, 0],
                       [1, 0, 0, 1],
                       [1, 0, 1, 0],
                       [1, -1, 0, 0]], dtype=float)
    # probabilities come out of exact dyadic projector entries: bit-exact
    assert np.array_equal(2 * b, 2 * expect) or np.array_equal(b, expect)
    assert np.array_equal(b, expect)


def test_projectors_are_exact_idempotents():
    for p in sv.SINGLE_QUBIT_PROJECTORS:
        assert np.array_equal(p @ p, p)          # bitwise, no tolerance
        assert np.array_equal(p.conj().T, p)
        assert np.trace(p) == 1.0


def test_block_inverse_exact_rows():
    inv = sv.block_inverse_exact()
    h = Fraction(1, 2)
    assert inv == [
        [h, 0, 0, h],
        [h, 0, 0, -h],
        [-h, 0, 1, -h],
        [-h, 1, 0, -h],
    ]
    assert sv.block_inverse_norm_exact() == Fraction(2)


def test_block_inverse_is_really_the_inverse():
    b = sv.single_qubit_block()
    inv = np.array([[float(x) for x in row] for row in sv.block_inverse_exact()])
    assert np.abs(inv @ b - np.eye(4)).max() < 1e-15


def test_t_matrix_is_kron_power_of_block():
    b = sv.single_qubit_block()
    t2 = sv.build_t_matrix(2)
    assert np.abs(t2 - np.kron(b, b)).max() < 1e-14
    t4 = sv.build_t_matrix(4)
    assert np.abs(t4 - np.kron(np.kron(b, b), np.kron(b, b))).max() < 1e-14


def test_t_inverse_norm_reference():
    # induced 1-norm of the 4-qubit inverse: 2^4 from the exact block norm
    assert abs(sv.t_inverse_norm(4) - 16.0) < 1e-10
    assert abs(sv.t_inverse_norm(1) - 2.0) < 1e-12


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_t_inverse_norm_against_full_inverse(q):
    # the formula ||B^-1||^q against the inverse of the whole 4^q matrix
    full = np.linalg.inv(sv.build_t_matrix(q))
    assert sv.t_inverse_norm(q) == 2.0 ** q
    assert abs(np.abs(full).sum(axis=0).max() - sv.t_inverse_norm(q)) < 1e-10


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_recovery_against_full_solve(rng, q):
    for _ in range(3):
        probs = sv.tomographic_probabilities(ginibre_density(rng, 2 ** q), q)
        full = 2 ** q * np.linalg.solve(sv.build_t_matrix(q), probs)
        rec = sv.recover_pauli_coefficients(probs, q)
        assert np.abs(rec - full).max() < 1e-12


def test_recovery_rejects_wrong_length():
    with pytest.raises(ValueError, match="expected 256 probabilities"):
        sv.recover_pauli_coefficients(np.ones(64) / 64)


def test_steering_constant():
    # 2^q * 4^q * 2^q over the q = n + m = 4 qubits
    assert sv.steering_constant(2, 2) == 65536
    assert sv.steering_constant(1, 1) == 2 ** 2 * 4 ** 2 * 2 ** 2


# ------------------------------------------------------------------- recovery

@given(st.integers(0, 2 ** 32 - 1))
def test_pauli_coefficient_recovery(seed):
    rng = np.random.default_rng(seed)
    rho = ginibre_density(rng, 16)
    probs = sv.tomographic_probabilities(rho)
    rec = sv.recover_pauli_coefficients(probs)
    direct = pauli_decompose(rho)
    assert np.abs(rec - direct).max() < 1e-10


def test_recovery_error_propagation(rng):
    # || a - a' ||_1 <= 2^q ||T^-1|| * || p - p' ||_1
    factor = 16 * sv.t_inverse_norm(4)
    for _ in range(20):
        a = ginibre_density(rng, 16)
        b = ginibre_density(rng, 16)
        pa = sv.tomographic_probabilities(a)
        pb = sv.tomographic_probabilities(b)
        ca = sv.recover_pauli_coefficients(pa)
        cb = sv.recover_pauli_coefficients(pb)
        lhs = np.abs(ca - cb).sum()
        rhs = factor * np.abs(pa - pb).sum()
        assert lhs <= rhs + 1e-10


# ------------------------------------------------------------------- rotation

def test_steer_rotate_minimum_probability_floor(rng):
    for _ in range(50):
        u, rotated = sv.steer_rotate(ginibre_density(rng, 16))
        assert sv.min_outcome_probability(rotated.mat) >= 1 / 16 - 1e-12


def test_steer_rotate_pure_marginal(rng):
    # A-marginal |00><00|: the rotation keeps the dominant eigenvector
    # first, and every A-side outcome has probability >= 1/4
    e0 = np.zeros(4)
    e0[0] = 1.0
    rho = np.kron(np.outer(e0, e0), ginibre_density(rng, 4))
    u, rotated = sv.steer_rotate(rho)
    assert np.abs(np.abs(u[0, :]) - np.abs(e0)).max() < 1e-12
    assert sv.min_outcome_probability(rotated.mat) >= 0.25 - 1e-12


def test_steer_rotate_maximally_mixed_marginal(rng):
    rho = np.kron(np.eye(4) / 4, ginibre_density(rng, 4))
    _, rotated = sv.steer_rotate(rho)
    # every local projector pair has trace-1 factors: outcome mass 1/4
    assert sv.min_outcome_probability(rotated.mat) == pytest.approx(
        0.25, abs=1e-12)


def test_steer_rotate_is_a_local_unitary(rng):
    rho = ginibre_density(rng, 16)
    u, rotated = sv.steer_rotate(rho)
    assert np.abs(u @ u.conj().T - np.eye(4)).max() < 1e-12
    big = np.kron(u, np.eye(4))
    assert np.abs(big @ rho @ big.conj().T - rotated.mat).max() < 1e-12


# ---------------------------------------------------------------- discrepancy

def test_discrepancy_zero_for_exact_product_states(rng):
    for _ in range(25):
        rho = np.kron(dyadic_state(rng), dyadic_state(rng))
        d = sv.steering_discrepancy(rho, threshold=1 / 16)
        assert d == 0.0          # bitwise: dyadic entries, exact projectors


def test_discrepancy_positive_for_ghz():
    # 4-qubit GHZ split 2|2: conditioning on A fully reveals B
    psi = np.zeros(16)
    psi[0] = psi[15] = 1 / np.sqrt(2)
    rho = np.outer(psi, psi)
    assert sv.steering_discrepancy(rho) == pytest.approx(1.0, abs=1e-12)


def test_discrepancy_threshold_exhaustion():
    psi = np.zeros(16)
    psi[0] = psi[15] = 1 / np.sqrt(2)
    rho = np.outer(psi, psi)
    with pytest.raises(ValueError):
        sv.steering_discrepancy(rho, threshold=0.9)   # no outcome that likely


# ----------------------------------------------------------------- audit flow

def test_product_form_check_random_states(rng):
    for i in range(50):
        verdict = sv.product_form_check(ginibre_density(rng, 16),
                                        state_id=f"s{i}")
        assert verdict.holds
        assert verdict.lhs <= verdict.rhs
        assert verdict.slack >= 0
        d = verdict.as_audit_dict()
        assert d["state_id"] == f"s{i}"
        assert set(d) == {"state_id", "epsilon", "lhs", "rhs", "slack"}


def test_product_form_check_exact_zero_for_dyadic_products(rng):
    for _ in range(25):
        rho = np.kron(dyadic_state(rng), dyadic_state(rng))
        verdict = sv.product_form_check(rho, rotate=False, threshold=1 / 16)
        assert verdict.epsilon == 0.0
        assert verdict.lhs == 0.0    # exactly: nothing to distinguish
        assert verdict.holds


def test_product_form_check_epsilon_precondition(rng):
    psi = np.zeros(16)
    psi[0] = psi[15] = 1 / np.sqrt(2)
    rho = np.outer(psi, psi)
    with pytest.raises(ValueError):
        sv.product_form_check(rho, epsilon=1e-6)   # discrepancy is ~1


def test_product_form_bound_scales_with_constant(rng):
    verdict = sv.product_form_check(ginibre_density(rng, 16))
    assert verdict.rhs == pytest.approx(
        2 * sv.steering_constant() * verdict.epsilon, rel=1e-12)


def test_product_form_lhs_measures_marginal_product_distance(rng):
    rho = ginibre_density(rng, 16)
    verdict = sv.product_form_check(rho, rotate=False)
    ra = partial_trace(rho, [0], [4, 4]).mat
    rb = partial_trace(rho, [1], [4, 4]).mat
    assert verdict.lhs == pytest.approx(
        trace_norm(rho, np.kron(ra, rb)), abs=1e-12)


@pytest.mark.parametrize("epsilon", [np.nan, np.inf, -np.inf])
def test_product_form_check_rejects_non_finite_epsilon(rng, epsilon):
    # nan once gave holds=False with rhs=nan, inf a vacuous holds=True
    with pytest.raises(ValueError, match="epsilon must be finite"):
        sv.product_form_check(ginibre_density(rng, 16), epsilon=epsilon)


# ---------------------------------------------------------------------- batch

def _mixed_stack(rng):
    """Ginibre states, products of Ginibre states and dyadic products."""
    return np.stack(
        [ginibre_density(rng, 16) for _ in range(6)]
        + [np.kron(ginibre_density(rng, 4), ginibre_density(rng, 4))
           for _ in range(5)]
        + [np.kron(dyadic_state(rng), dyadic_state(rng)) for _ in range(5)])


@pytest.mark.parametrize("rotate", [True, False])
def test_batch_matches_one_state_at_a_time(rng, rotate):
    stack = _mixed_stack(rng)
    ids = [f"s{i}" for i in range(len(stack))]
    batch = sv.product_form_batch(stack, rotate=rotate, state_ids=ids)
    assert [v.state_id for v in batch] == ids
    for rho, sid, v in zip(stack, ids, batch):
        one = sv.product_form_check(rho, rotate=rotate, state_id=sid)
        assert v.epsilon == one.epsilon          # bitwise
        assert v.discrepancy == one.discrepancy
        assert abs(v.lhs - one.lhs) < 1e-14
        assert v.holds and one.holds
        assert v.rhs == 2 * sv.steering_constant() * v.epsilon


def test_batch_keeps_exact_zero_for_dyadic_products(rng):
    stack = np.stack([np.kron(dyadic_state(rng), dyadic_state(rng))
                      for _ in range(25)])
    assert not sv.steering_discrepancy(stack, threshold=1 / 16).any()
    for v in sv.product_form_batch(stack, rotate=False):
        assert v.epsilon == 0.0 and v.lhs == 0.0 and v.holds


def test_batch_explicit_epsilon_is_shared(rng):
    stack = _mixed_stack(rng)
    eps = 2 * max(v.epsilon for v in sv.product_form_batch(stack))
    for v in sv.product_form_batch(stack, epsilon=eps):
        assert v.epsilon == eps and v.holds
    psi = np.zeros(16)
    psi[0] = psi[15] = 1 / np.sqrt(2)
    with pytest.raises(ValueError, match="exceeds the claimed epsilon"):
        sv.product_form_batch(np.stack([stack[0], np.outer(psi, psi)]),
                              epsilon=eps)


def test_batch_needs_one_id_per_state(rng):
    stack = _mixed_stack(rng)
    with pytest.raises(ValueError, match="state ids"):
        sv.product_form_batch(stack, state_ids=["only-one"])
    with pytest.raises(ValueError, match="two-pair"):
        sv.product_form_batch(stack[:, :8, :8])


@pytest.mark.parametrize("rotate", [True, False])
def test_batch_rejects_nan_outside_both_marginals(rng, rotate):
    # entry (0, 5) is |00><01| ⊗ |00><01|: no partial trace reads it, so
    # only the check of the whole state can catch it
    stack = _mixed_stack(rng)
    stack[3, 0, 5] = np.nan
    with pytest.raises(ValueError, match="not finite"):
        sv.product_form_batch(stack, rotate=rotate)

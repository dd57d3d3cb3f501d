"""Bell-basis conventions, state containers, and the metric/twirl layer."""

import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qdistill.quantum_core import (
    BELL_ORDER,
    PAULI,
    PAULI_ORDER,
    BellDiagonalState,
    DensityMatrix,
    LabeledEnsembleState,
    bell_basis,
    bell_vector,
    ensemble_purification,
    partial_trace,
    pauli_decompose,
    pauli_string,
    secret_twirl,
    trace_norm,
    _check_states,
)

from conftest import ginibre_density


# ---------------------------------------------------------------- conventions

def test_bell_order_is_phi_plus_psi_minus_psi_plus_phi_minus():
    assert BELL_ORDER == ((0, 0), (1, 1), (0, 1), (1, 0))


def test_bell_vectors_orthonormal():
    basis = bell_basis()   # columns are the Bell kets in BELL_ORDER
    gram = basis.conj().T @ basis
    assert np.allclose(gram, np.eye(4), atol=1e-15)


def test_bell_vector_phase_convention():
    # |B_ij> = (1 ⊗ X^j Z^i) |B_00>
    b00 = np.array([1, 0, 0, 1]) / np.sqrt(2)
    x = np.array([[0, 1], [1, 0]])
    z = np.array([[1, 0], [0, -1]])
    for (i, j) in BELL_ORDER:
        op = np.kron(np.eye(2), np.linalg.matrix_power(x, j)
                     @ np.linalg.matrix_power(z, i))
        assert np.allclose(bell_vector(i, j), op @ b00, atol=1e-15)


def test_pauli_order_and_sigma_map():
    # (0,0)->I (0,1)->X (1,0)->Z (1,1)->Y
    assert PAULI_ORDER == ((0, 0), (0, 1), (1, 0), (1, 1))
    y = PAULI[(1, 1)]
    assert np.allclose(y, np.array([[0, -1j], [1j, 0]]))
    assert np.allclose(PAULI[(0, 1)], np.array([[0, 1], [1, 0]]))
    assert np.allclose(PAULI[(1, 0)], np.diag([1, -1]))


def test_pauli_strings_orthogonal_under_hs_inner_product():
    # labels index PAULI_ORDER: 0=I 1=X 2=Z 3=Y
    labels = [(0, 0), (1, 3), (2, 2), (3, 0)]
    for a in labels:
        for b in labels:
            ip = np.trace(pauli_string(a).conj().T @ pauli_string(b)).real
            assert ip == pytest.approx(4.0 if a == b else 0.0, abs=1e-14)


# ------------------------------------------------------------------ BellDiag

def test_werner_state_components():
    w = BellDiagonalState.werner(0.75)
    assert w.p[0] == pytest.approx(0.75)
    assert np.allclose(w.p[1:], 1 / 12)
    assert w.fidelity == pytest.approx(0.75)


def test_bell_diagonal_rejects_bad_mass():
    with pytest.raises(ValueError):
        BellDiagonalState([0.5, 0.2, 0.2, 0.2])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_state_probabilities_reject_non_finite_entries(bad):
    with pytest.raises(ValueError, match="finite"):
        BellDiagonalState([bad, 0, 0, 0])
    with pytest.raises(ValueError, match="finite"):
        LabeledEnsembleState([bad] + [0] * 15)


def test_state_probabilities_clip_tiny_negatives():
    s = BellDiagonalState([1.0, -5e-13, 0.0, 0.0])
    assert s.p[1] == 0.0
    t = LabeledEnsembleState([1.0, -5e-13] + [0.0] * 14)
    assert t.p[1] == 0.0
    with pytest.raises(ValueError, match="negative"):
        BellDiagonalState([1.0 + 2e-10, -2e-10, 0.0, 0.0])


@given(st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4))
def test_bell_diagonal_density_matrix_diagonal_in_bell_basis(raw):
    p = np.array(raw) / sum(raw)
    rho = BellDiagonalState(p).to_density_matrix()
    basis = bell_basis()
    back = basis.conj().T @ rho.mat @ basis
    off = back - np.diag(np.diag(back))
    assert np.abs(off).max() < 1e-14
    assert np.allclose(np.diag(back).real, p, atol=1e-14)


# ----------------------------------------------------------- labeled ensemble

def test_labeled_index_layout():
    s = LabeledEnsembleState.from_bell_diagonal(
        BellDiagonalState.werner(0.75), flags="correlated")
    # correlated lift: flag bits copy the Bell bits, all mass on (i,j,i,j)
    for (i, j) in BELL_ORDER:
        idx = LabeledEnsembleState.index(i, j, i, j)
        assert s.p[idx] > 0
    assert s.cross_mass() == 0.0


def test_labeled_zero_flag_lift_marginals():
    w = BellDiagonalState.werner(0.9)
    s = LabeledEnsembleState.from_bell_diagonal(w, flags="zero")
    assert np.allclose(s.bell_marginal().p, w.p, atol=1e-16)


def test_bell_marginal_sums_over_flags(rng):
    p = rng.random(16)
    p /= p.sum()
    s = LabeledEnsembleState(p)
    m = s.bell_marginal().p
    # the marginal must simply re-bin the 16 weights by (i, j); the reshape
    # axis is lexicographic in (i, j): 00, 01, 10, 11
    by_ij = p.reshape(4, 4).sum(axis=1)
    bell_to_lex = [0, 3, 1, 2]
    assert np.allclose(m, by_ij[bell_to_lex], atol=1e-15)


# ------------------------------------------------------------------- metrics

def test_trace_norm_of_orthogonal_pure_states():
    a = np.zeros((4, 4))
    a[0, 0] = 1.0
    b = np.zeros((4, 4))
    b[3, 3] = 1.0
    assert trace_norm(a, b) == pytest.approx(2.0, abs=1e-14)


@given(st.integers(0, 2 ** 32 - 1))
def test_trace_norm_symmetry_and_identity(seed):
    rng = np.random.default_rng(seed)
    a = ginibre_density(rng, 4)
    b = ginibre_density(rng, 4)
    assert trace_norm(a, b) == pytest.approx(trace_norm(b, a), abs=1e-12)
    assert trace_norm(a, a) == pytest.approx(0.0, abs=1e-13)


@given(st.integers(0, 2 ** 32 - 1))
def test_trace_norm_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (ginibre_density(rng, 4) for _ in range(3))
    assert trace_norm(a, c) <= trace_norm(a, b) + trace_norm(b, c) + 1e-12


@given(st.integers(0, 2 ** 32 - 1))
def test_partial_trace_is_contractive_for_trace_norm(seed):
    rng = np.random.default_rng(seed)
    a = ginibre_density(rng, 16)
    b = ginibre_density(rng, 16)
    ra = partial_trace(a, keep=[0], dims=[4, 4])
    rb = partial_trace(b, keep=[0], dims=[4, 4])
    assert trace_norm(ra, rb) <= trace_norm(a, b) + 1e-12


def test_partial_trace_of_product_state(rng):
    a = ginibre_density(rng, 4)
    b = ginibre_density(rng, 4)
    joint = np.kron(a, b)
    assert np.allclose(partial_trace(joint, [0], [4, 4]).mat, a, atol=1e-13)
    assert np.allclose(partial_trace(joint, [1], [4, 4]).mat, b, atol=1e-13)


# ----------------------------------------------------------- pauli transform

@given(st.integers(0, 2 ** 32 - 1))
def test_pauli_decompose_roundtrip(seed):
    rng = np.random.default_rng(seed)
    rho = ginibre_density(rng, 16)
    coeffs = pauli_decompose(rho)
    # rho = 2^-4 sum_a alpha_a sigma_a, strings in lexicographic label order
    strings = np.stack([pauli_string(a) for a in np.ndindex(4, 4, 4, 4)])
    back = np.einsum("a,aij->ij", coeffs, strings) / 16
    assert np.abs(back - rho).max() < 1e-13


def test_pauli_decompose_identity_component(rng):
    rho = ginibre_density(rng, 16)
    coeffs = pauli_decompose(rho)
    # trace component: tr(I rho) = 1
    assert coeffs[0] == pytest.approx(1.0, abs=1e-13)


# -------------------------------------------------------------------- twirls

def test_secret_twirl_is_idempotent(rng):
    rho = ginibre_density(rng, 16)
    t1 = secret_twirl(rho)
    t2 = secret_twirl(t1.mat)
    assert np.abs(t1.mat - t2.mat).max() < 1e-13


# -------------------------------------------------------------- purification

def test_ensemble_purification_has_correct_marginal():
    state = LabeledEnsembleState.from_bell_diagonal(
        BellDiagonalState.werner(0.85), flags="correlated")
    psi = ensemble_purification(state)
    assert psi.shape == (256,)
    assert np.vdot(psi, psi).real == pytest.approx(1.0, abs=1e-14)
    full = np.outer(psi, psi.conj())
    red = partial_trace(full, [0], [16, 16])
    assert np.abs(red.mat - state.to_density_matrix().mat).max() < 1e-13


# ------------------------------------------------------------- density guard

def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.6], [0.4, 0.5]]))   # not hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([0.7, 0.7]))                  # trace != 1
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]))                 # negative eigval


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_density_matrix_rejects_non_finite_entries(bad):
    # a non-finite entry is a ValueError, raised before any arithmetic on
    # it (inf - inf warns) and before eigvalsh's LinAlgError
    with pytest.raises(ValueError, match="not finite"):
        DensityMatrix(np.full((16, 16), bad))


def test_state_stack_checks_every_matrix(rng):
    good = np.stack([ginibre_density(rng, 4) for _ in range(3)])
    _check_states(good)
    for bad_value in (np.nan, np.inf):
        bad = good.copy()
        bad[1, 0, 0] = bad_value
        with pytest.raises(ValueError,
                           match=re.escape(f"entry {complex(bad_value)!r} is")):
            _check_states(bad)
    bad = good.copy()
    bad[2] *= 1.5
    with pytest.raises(ValueError, match="not 1"):
        _check_states(bad)
    bad = good.copy()
    bad[0] = np.diag([1.5, -0.5, 0.0, 0.0])
    with pytest.raises(ValueError, match="eigenvalue below"):
        _check_states(bad)

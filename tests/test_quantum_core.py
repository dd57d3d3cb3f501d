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
    LabeledEnsembleState,
    bell_basis,
    bell_vector,
    ensemble_purification,
    pauli_decompose,
    secret_twirl,
    trace_norm,
    _check_states,
    _trace_norms,
)
from qdistill.steering_verify import tomographic_probabilities

from conftest import ginibre_density, partial_trace, pauli_string


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
    back = basis.conj().T @ rho @ basis
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


def hermitian_stack(rng, kind, dim, size=64):
    """``size`` random Hermitian dim x dim matrices of one kind."""
    g = rng.normal(size=(size, dim, dim)) + 1j * rng.normal(size=(size, dim, dim))
    gh = g.conj().swapaxes(-1, -2)
    if kind == "psd":
        return g @ gh
    if kind == "rank-deficient":   # rank dim/2, eigenvalues of both signs
        signs = np.where(np.arange(dim // 2) % 2, -1.0, 1.0)
        return (g[..., :dim // 2] * signs) @ gh[..., :dim // 2, :]
    h = g + gh
    if kind == "indefinite":
        return h
    # traceless, like the conditional-state differences of the audit
    return h - np.trace(h, axis1=-2, axis2=-1)[:, None, None] * np.eye(dim) / dim


@pytest.mark.parametrize("dim", [4, 16])
@pytest.mark.parametrize("kind", ["psd", "indefinite", "rank-deficient",
                                  "traceless"])
def test_trace_norms_match_singular_value_sums(rng, kind, dim):
    stack = hermitian_stack(rng, kind, dim)
    want = np.linalg.svd(stack, compute_uv=False).sum(axis=-1)
    got = _trace_norms(stack)
    assert got.shape == want.shape
    assert (np.abs(got - want) <= 1e-12 * want).all()


@pytest.mark.parametrize("dim", [4, 16])
def test_trace_norms_are_exactly_zero_on_zero(rng, dim):
    assert _trace_norms(np.zeros((3, dim, dim), dtype=complex)).tolist() == [0.0] * 3
    rho = ginibre_density(rng, dim)
    assert trace_norm(rho, rho.copy()) == 0.0


def test_trace_norm_rejects_non_hermitian_difference(rng):
    # A nilpotent difference: its trace norm is 1, its eigenvalues all 0.
    rho = ginibre_density(rng, 4)
    bump = np.zeros((4, 4))
    bump[0, 3] = 1.0
    with pytest.raises(ValueError, match="not Hermitian"):
        trace_norm(rho + bump, rho)


def test_trace_norm_rejects_non_finite_entries(rng):
    # a NaN once failed the Hermiticity test and was reported as such
    with pytest.raises(ValueError, match=re.escape("entry (nan+0j) is not finite")):
        trace_norm(np.eye(2) / 2, [[np.nan, 0], [0, 1]])
    with pytest.raises(ValueError, match="not finite"):
        trace_norm(np.full((4, 4), np.nan), ginibre_density(rng, 4))


@pytest.mark.parametrize("shape", [(), (4,), (2, 4, 4), (2, 4), (0, 0)],
                         ids=["0-d", "1-d", "3-d", "non-square", "empty"])
def test_trace_norm_rejects_all_but_one_square_matrix(shape):
    # a 0-d pair once reached the eigensolver, which raised LinAlgError
    a = np.zeros(shape)
    with pytest.raises(ValueError, match=re.escape(
            f"expected one square matrix, got shape {shape}")):
        trace_norm(a, a.copy())


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
    assert np.allclose(partial_trace(joint, [0], [4, 4]), a, atol=1e-13)
    assert np.allclose(partial_trace(joint, [1], [4, 4]), b, atol=1e-13)


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
    t2 = secret_twirl(t1)
    assert np.abs(t1 - t2).max() < 1e-13


def test_density_matrices_are_checked_and_read_only(rng):
    state = LabeledEnsembleState(np.full(16, 1 / 16))
    for mat in (state.bell_marginal().to_density_matrix(),
                state.to_density_matrix(), secret_twirl(ginibre_density(rng, 16))):
        with pytest.raises(ValueError, match="read-only"):
            mat[0, 0] = 1.0
    # the twirl keeps the trace, and it keeps this diagonal indefinite
    for diag, message in (([0.7, 0, 0, 0], "not 1"), ([1.5, -0.5, 0, 0], "below")):
        with pytest.raises(ValueError, match=message):
            secret_twirl(np.diag(diag))


SIZED = [pauli_decompose, tomographic_probabilities, secret_twirl]


@pytest.mark.parametrize("fn", SIZED, ids=lambda f: f.__name__)
@pytest.mark.parametrize("shape", [(), (0, 0), (1, 1), (2, 3), (3, 3), (12, 12)],
                         ids=["0-d", "0x0", "1x1", "2x3", "3x3", "12x12"])
def test_sizes_come_from_square_power_of_two_matrices(fn, shape):
    # a 1x1 input was once broadcast against all 4^q strings or projectors
    with pytest.raises(ValueError, match=re.escape(
            f"not a square power-of-two matrix: {shape}")):
        fn(np.ones(shape))


@pytest.mark.parametrize("fn", SIZED[:2], ids=lambda f: f.__name__)
def test_coefficients_reject_non_hermitian_input(fn):
    # .real once dropped the imaginary sy coefficient of this matrix
    with pytest.raises(ValueError, match="not Hermitian within 1e-12"):
        fn(np.array([[0.5, 1.0], [0.0, 0.5]]))


# -------------------------------------------------------------- purification

def test_ensemble_purification_has_correct_marginal():
    state = LabeledEnsembleState.from_bell_diagonal(
        BellDiagonalState.werner(0.85), flags="correlated")
    psi = ensemble_purification(state)
    assert psi.shape == (256,)
    assert np.vdot(psi, psi).real == pytest.approx(1.0, abs=1e-14)
    full = np.outer(psi, psi.conj())
    red = partial_trace(full, [0], [16, 16])
    assert np.abs(red - state.to_density_matrix()).max() < 1e-13


# ------------------------------------------------------------- density guard

def test_state_stack_checks_every_matrix(rng):
    for n in (2, 4, 16):
        good = np.stack([ginibre_density(rng, n) for _ in range(3)])
        _check_states(good)
        # a non-finite entry, or a whole matrix of them, is caught before
        # any arithmetic on it (inf - inf warns)
        for bad_value in (np.nan, np.inf):
            for where in ((1, 0, 0), 1):
                bad = good.copy()
                bad[where] = bad_value
                with pytest.raises(ValueError, match=re.escape(
                        f"entry {complex(bad_value)!r} is not finite")):
                    _check_states(bad)
        for where, corner, message in ((1, [[0.5, 0.6], [0.4, 0.5]], "not Hermitian"),
                                       (2, [[0.7, 0], [0, 0.7]], "not 1"),
                                       (0, [[1.5, 0], [0, -0.5]], "eigenvalue below")):
            bad = good.copy()
            bad[where] = 0.0
            bad[where, :2, :2] = corner
            with pytest.raises(ValueError, match=message):
                _check_states(bad)


def test_state_stack_rejects_empty_matrices():
    # a stacked 0-d matrix has shape (1,); a 1x1 matrix has no qubit
    for stack in (np.zeros((3, 0, 0)), np.zeros((1, 0, 0)), np.ones(1),
                  np.ones((1, 1, 1))):
        with pytest.raises(ValueError, match=re.escape(
                f"not a square power-of-two matrix: {stack.shape[1:]}")):
            _check_states(stack)


def _with_min_eigenvalue(rng, n, lam):
    """Unit-trace Hermitian n x n matrix in a random eigenbasis whose least
    eigenvalue is ``lam``."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    w = rng.uniform(0.5, 1.5, n)
    w[0] = 0.0
    w *= (1.0 - lam) / w.sum()
    w[0] = lam
    mat = (q * w) @ q.conj().T
    return (mat + mat.conj().T) / 2


@pytest.mark.parametrize("n", [4, 16])
@pytest.mark.parametrize("where", [0, 2, 4], ids=["first", "middle", "last"])
def test_state_stack_eigenvalue_floor(rng, n, where):
    # The floor sits 1e-12 from each matrix; rounding is ~1e-15.
    for lam, ok in ((-0.99e-10, True), (-1.01e-10, False)):
        stack = np.stack([ginibre_density(rng, n) for _ in range(5)])
        stack[where] = _with_min_eigenvalue(rng, n, lam)
        assert abs(np.linalg.eigvalsh(stack[where])[0] - lam) < 1e-14
        if ok:
            _check_states(stack)
        else:
            with pytest.raises(ValueError,
                               match=re.escape("eigenvalue below -1e-10")):
                _check_states(stack)

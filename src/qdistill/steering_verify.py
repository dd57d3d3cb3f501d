"""Tomographic steering checks on two-pair (4-qubit) states.

The tomographic questions are products of the four single-qubit states
|+>, |+i>, |0>, |->; the linear map T from Pauli coefficients to outcome
probabilities factors as a tensor power of one 4x4 integer block whose
inverse has induced 1-norm exactly 2.  On top of that sit the conditional
state ("steering") discrepancy, the marginal-eigenbasis rotation that
keeps every outcome probability at or above 1/16, and the product-form
bound ||rho_AB - rho_A ⊗ rho_B||_1 <= 2 C eps with C = 4^8.

The single-qubit projectors are stored with exact dyadic entries (halves
and quarters), so on states whose entries are themselves dyadic the whole
discrepancy pipeline runs in exact float arithmetic and a true product
state reports a discrepancy of exactly 0.0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce

import numpy as np

from .quantum_core import (DensityMatrix, _as_matrix, _pauli_strings, partial_trace,
                           trace_norm)

__all__ = [
    "TMatrix",
    "ProductFormVerdict",
    "single_qubit_block",
    "block_inverse_exact",
    "block_inverse_norm_exact",
    "build_t_matrix",
    "t_inverse_norm",
    "steering_constant",
    "tomographic_probabilities",
    "recover_pauli_coefficients",
    "min_outcome_probability",
    "steering_discrepancy",
    "steer_rotate",
    "product_form_check",
]

_ISQ2 = 1.0 / np.sqrt(2.0)

#: Single-qubit tomographic kets, order (|+>, |+i>, |0>, |->).
SINGLE_QUBIT_KETS = (
    np.array([_ISQ2, _ISQ2], dtype=complex),
    np.array([_ISQ2, 1j * _ISQ2], dtype=complex),
    np.array([1.0, 0.0], dtype=complex),
    np.array([_ISQ2, -_ISQ2], dtype=complex),
)

# The corresponding projectors, written out with exact dyadic entries
# rather than via outer products of the kets (1/sqrt(2) squared rounds).
SINGLE_QUBIT_PROJECTORS = (
    np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex),
    np.array([[0.5, -0.5j], [0.5j, 0.5]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),
    np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex),
)


@cache
def _tset(num_qubits: int) -> np.ndarray:
    """All 4^q product projectors on q qubits, shape (4^q, 2^q, 2^q),
    lexicographic in the per-qubit state index."""
    idx = np.indices((4,) * num_qubits).reshape(num_qubits, -1).T
    projs = np.stack([
        reduce(np.kron, (SINGLE_QUBIT_PROJECTORS[s] for s in row))
        for row in idx
    ])
    projs.flags.writeable = False
    return projs


@dataclass(frozen=True)
class TMatrix:
    """T[k, a] = <phi_k| sigma_a |phi_k>, outcomes k and Pauli strings a
    both lexicographic; probabilities are p = 2^{-q} T alpha for the
    coefficients alpha of rho = 2^{-q} sum alpha_a sigma_a."""

    num_qubits: int
    mat: np.ndarray

    def inverse(self) -> np.ndarray:
        return np.linalg.inv(self.mat)

    def inverse_induced_norm(self) -> float:
        """Induced 1-norm (maximum absolute column sum) of T^{-1}."""
        return float(np.abs(self.inverse()).sum(axis=0).max())


def single_qubit_block() -> np.ndarray:
    """The 4x4 block B[s, a] = tr(phi_s sigma_a), states ordered
    (+, +i, 0, -), Paulis (id, sx, sz, sy); entries are integers."""
    return build_t_matrix(1).mat


# A plain function around a cached one, so that perfbench's tracer, which
# wraps plain functions only, still sees each call.
def build_t_matrix(num_qubits: int = 4) -> TMatrix:
    return TMatrix(num_qubits, _t_mat(num_qubits))


@cache
def _t_mat(num_qubits: int) -> np.ndarray:
    _, strings = _pauli_strings(num_qubits)
    mat = np.einsum("kij,aji->ka", _tset(num_qubits), strings).real
    mat.flags.writeable = False
    return mat


def block_inverse_exact() -> list:
    """Exact inverse of the single-qubit block by Fraction Gaussian
    elimination (the block is integer-valued)."""
    b = single_qubit_block()
    n = 4
    aug = [[Fraction(int(round(b[r, c]))) for c in range(n)]
           + [Fraction(1 if c == r else 0) for c in range(n)] for r in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def block_inverse_norm_exact() -> Fraction:
    """Induced 1-norm of the exact block inverse; equals 2."""
    inv = block_inverse_exact()
    return max(sum(abs(inv[r][c]) for r in range(4)) for c in range(4))


def t_inverse_norm(num_qubits: int = 4) -> float:
    """Induced 1-norm of T^{-1}; 2^q by the tensor-product structure
    (16 for the two-pair case)."""
    return build_t_matrix(num_qubits).inverse_induced_norm()


def steering_constant(n: int = 2, m: int = 2) -> int:
    """The product-form constant C = ||T^{-1}|| * 4^{n+m} * 2^{n+m} for an
    n-qubit | m-qubit split, using the exact inverse norm 2^{n+m}.

    Only the n = m = 2 instance (C = 4^8 = 65536) is exercised by the
    verification suite; other sizes follow the same formula.
    """
    q = n + m
    return (2 ** q) * (4 ** q) * (2 ** q)


def tomographic_probabilities(rho, num_qubits: int = 4) -> np.ndarray:
    """Outcome probabilities p_k = tr(phi_k rho) over the product set."""
    mat = _as_matrix(rho)
    projs = _tset(num_qubits)
    return np.einsum("kij,ji->k", projs, mat).real


def recover_pauli_coefficients(probs, num_qubits: int = 4) -> np.ndarray:
    """Invert p = 2^{-q} T alpha; output matches pauli_decompose ordering."""
    tinv = build_t_matrix(num_qubits).inverse()
    return (2 ** num_qubits) * (tinv @ np.asarray(probs, dtype=float))


def min_outcome_probability(rho) -> float:
    """Minimum over the 16 A-side tomographic projectors of p_A(phi)."""
    mat = _as_matrix(rho)
    rho_a = partial_trace(mat, [0, 1], (2, 2, 2, 2)).mat
    return float(min(np.einsum("ab,ba->", p, rho_a).real
                     for p in _tset(2)))


def steering_discrepancy(rho, threshold: float = 0.0) -> float:
    """max_phi || rho_B^phi - rho_B ||_1 over A-side tomographic outcomes
    with p_A(phi) >= threshold.

    rho_B^phi = tr_A[(phi ⊗ id) rho] / p_A(phi) is the state conditioned
    on outcome phi on the first pair.  Outcomes rarer than the threshold
    are skipped (their conditional states are unconstrained); if every
    outcome is below threshold — impossible after steer_rotate at 1/16 —
    a ValueError is raised.
    """
    if not 0 <= threshold < 1:
        raise ValueError("threshold must lie in [0, 1)")
    mat = _as_matrix(rho)
    if mat.shape != (16, 16):
        raise ValueError("expected a two-pair (16-dimensional) state")
    rho4 = mat.reshape(4, 4, 4, 4)
    rho_b = partial_trace(mat, [2, 3], (2, 2, 2, 2)).mat
    best = None
    for proj in _tset(2):
        cond = np.einsum("ab,biaj->ij", proj, rho4)
        p = cond.trace().real
        if p < threshold or p <= 0.0:
            continue
        d = trace_norm(cond / p, rho_b)
        if best is None or d > best:
            best = d
    if best is None:
        raise ValueError("all tomographic outcomes fall below the threshold")
    return best


def steer_rotate(rho):
    """Rotate the A marginal into its eigenbasis, largest eigenvalue first.

    Returns (U, rotated) with rotated = (U ⊗ id) rho (U ⊗ id)^dagger.  U
    maps the maximal-eigenvalue eigenvector of rho_A to |00>, so every
    A-side tomographic outcome then has probability at least
    lambda_max * 1/4 >= 1/16.  Eigenvalue ties break to the first
    maximizing index of the ascending eigensolver ordering.
    """
    mat = _as_matrix(rho)
    if mat.shape != (16, 16):
        raise ValueError("expected a two-pair (16-dimensional) state")
    rho_a = partial_trace(mat, [0, 1], (2, 2, 2, 2)).mat
    w, v = np.linalg.eigh(rho_a)
    kmax = int(np.argmax(w))
    order = [kmax] + [k for k in range(4) if k != kmax]
    u = v[:, order].conj().T
    big = np.kron(u, np.eye(4))
    return u, DensityMatrix(big @ mat @ big.conj().T)


@dataclass(frozen=True)
class ProductFormVerdict:
    """Both sides of ||rho_AB - rho_A ⊗ rho_B||_1 <= 2 C eps."""

    epsilon: float
    discrepancy: float
    lhs: float
    rhs: float
    holds: bool
    state_id: str | None = None

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    def as_audit_dict(self) -> dict:
        return {
            "state_id": self.state_id,
            "epsilon": self.epsilon,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
        }


def product_form_check(rho, epsilon: float | None = None, rotate: bool = True,
                       threshold: float = 1.0 / 16.0,
                       state_id: str | None = None) -> ProductFormVerdict:
    """Check ||rho_AB - rho_A ⊗ rho_B||_1 <= 2 * 4^8 * eps.

    With rotate=True (the default) the state is first passed through
    steer_rotate so the threshold 1/16 is guaranteed; local rotation of A
    changes neither side of the inequality.  rotate=False audits the raw
    state — the right choice when the state is already well conditioned
    and exact (dyadic) arithmetic should be preserved.  If epsilon is
    omitted, the measured discrepancy itself is used; an explicit epsilon
    smaller than the measured discrepancy violates the precondition.
    """
    mat = _as_matrix(rho)
    if rotate:
        mat = steer_rotate(mat)[1].mat
    disc = steering_discrepancy(mat, threshold)
    eps = disc if epsilon is None else float(epsilon)
    if disc > eps:
        raise ValueError(
            f"measured discrepancy {disc:.3e} exceeds the claimed epsilon {eps:.3e}")
    rho_a = partial_trace(mat, [0, 1], (2, 2, 2, 2)).mat
    rho_b = partial_trace(mat, [2, 3], (2, 2, 2, 2)).mat
    lhs = trace_norm(mat, np.kron(rho_a, rho_b))
    rhs = 2.0 * steering_constant() * eps
    return ProductFormVerdict(eps, disc, lhs, rhs, lhs <= rhs, state_id)

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

The steering functions take one 16x16 state or an (S, 16, 16) stack and
treat a stack in one array pass, with the same arithmetic per state:
``product_form_check`` is the one-state case of ``product_form_batch``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce

import numpy as np

from .quantum_core import (DensityMatrix, _as_matrix, _check_states, _kron_stack,
                           _pauli_strings, partial_trace)

__all__ = [
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
    "product_form_batch",
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


def single_qubit_block() -> np.ndarray:
    """The 4x4 block B[s, a] = tr(phi_s sigma_a), states ordered
    (+, +i, 0, -), Paulis (id, sx, sz, sy); entries are integers."""
    return build_t_matrix(1)


# A plain function around a cached one, so that perfbench's tracer, which
# wraps plain functions only, still sees each call.
def build_t_matrix(num_qubits: int = 4) -> np.ndarray:
    """T[k, a] = <phi_k| sigma_a |phi_k>, outcomes k and Pauli strings a
    both lexicographic; probabilities are p = 2^{-q} T alpha for the
    coefficients alpha of rho = 2^{-q} sum alpha_a sigma_a.  The returned
    array is shared and read-only."""
    return _t_mat(num_qubits)


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


@cache
def _block_inverse() -> np.ndarray:
    """The exact block inverse as floats (its entries are 0, ±1/2, 1)."""
    inv = np.array(block_inverse_exact(), dtype=float)
    inv.flags.writeable = False
    return inv


def t_inverse_norm(num_qubits: int = 4) -> float:
    """Induced 1-norm (maximum absolute column sum) of T^{-1}.

    T^{-1} = (B^{-1})^{⊗q} and this norm is multiplicative under ⊗, so it
    is ||B^{-1}||^q = 2^q (16 for the two-pair case).
    """
    return float(np.abs(_block_inverse()).sum(axis=0).max()) ** num_qubits


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
    """Invert p = 2^{-q} T alpha; output matches pauli_decompose ordering.

    T^{-1} = (B^{-1})^{⊗q} is applied one factor at a time: each pass
    multiplies the leading index by B^{-1} and moves it to the back, so
    after q passes the indices are in their original order again.
    """
    x = np.asarray(probs, dtype=float)
    if x.shape != (4 ** num_qubits,):
        raise ValueError(
            f"expected {4 ** num_qubits} probabilities, got shape {x.shape}")
    for _ in range(num_qubits):
        x = (_block_inverse() @ x.reshape(4, -1)).T.reshape(-1)
    return (2 ** num_qubits) * x


def min_outcome_probability(rho) -> float:
    """Minimum over the 16 A-side tomographic projectors of p_A(phi)."""
    mat = _as_matrix(rho)
    rho_a = partial_trace(mat, [0, 1], (2, 2, 2, 2)).mat
    return float(min(np.einsum("ab,ba->", p, rho_a).real
                     for p in _tset(2)))


# einsum subscripts of the partial traces of an (S, 16, 16) stack viewed as
# (S, A, B, A', B'): keep pair A (trace B against B') or keep pair B.
_KEEP_A = "sabcb->sac"
_KEEP_B = "sabad->sbd"


def _two_pair_stack(rho) -> tuple[np.ndarray, bool]:
    """The input as an (S, 16, 16) stack, and whether it was one state."""
    mats = _as_matrix(rho)
    single = mats.ndim == 2
    if single:
        mats = mats[None]
    if mats.ndim != 3 or mats.shape[1:] != (16, 16):
        raise ValueError("expected a two-pair (16-dimensional) state")
    return mats, single


def _marginal(mats: np.ndarray, spec: str) -> np.ndarray:
    """The validated reduced state of one pair for every state of the stack."""
    red = np.einsum(spec, mats.reshape(-1, 4, 4, 4, 4))
    _check_states(red)
    return red


def _discrepancies(mats: np.ndarray, rho_b: np.ndarray,
                   threshold: float) -> np.ndarray:
    """steering_discrepancy of each state of a stack, given its B marginals."""
    if not 0 <= threshold < 1:
        raise ValueError("threshold must lie in [0, 1)")
    # All 16 unnormalized conditional states of every state at once; the
    # trace of cond[s, k] is p_A(phi_k).
    cond = np.einsum("kab,sbiaj->skij", _tset(2), mats.reshape(-1, 4, 4, 4, 4))
    p = np.trace(cond, axis1=-2, axis2=-1).real
    kept = (p >= threshold) & (p > 0.0)
    if not kept.any(axis=1).all():
        raise ValueError("all tomographic outcomes fall below the threshold")
    diff = cond / np.where(kept, p, 1.0)[..., None, None] - rho_b[:, None]
    dist = np.linalg.svd(diff, compute_uv=False).sum(axis=-1)
    return np.where(kept, dist, -np.inf).max(axis=1)


def steering_discrepancy(rho, threshold: float = 0.0):
    """max_phi || rho_B^phi - rho_B ||_1 over A-side tomographic outcomes
    with p_A(phi) >= threshold.

    rho_B^phi = tr_A[(phi ⊗ id) rho] / p_A(phi) is the state conditioned
    on outcome phi on the first pair.  Outcomes rarer than the threshold
    are skipped (their conditional states are unconstrained); if every
    outcome of a state is below threshold — impossible after steer_rotate
    at 1/16 — a ValueError is raised.  One state gives a float, an
    (S, 16, 16) stack an array of S discrepancies.
    """
    mats, single = _two_pair_stack(rho)
    best = _discrepancies(mats, _marginal(mats, _KEEP_B), threshold)
    return float(best[0]) if single else best


def steer_rotate(rho):
    """Rotate the A marginal into its eigenbasis, largest eigenvalue first.

    Returns (U, rotated) with rotated = (U ⊗ id) rho (U ⊗ id)^dagger.  U
    maps the maximal-eigenvalue eigenvector of rho_A to |00>, so every
    A-side tomographic outcome then has probability at least
    lambda_max * 1/4 >= 1/16.  Eigenvalue ties break to the first
    maximizing index of the ascending eigensolver ordering.  One state
    gives a 4x4 U and a DensityMatrix; an (S, 16, 16) stack gives the
    (S, 4, 4) rotations and the validated (S, 16, 16) rotated states.
    """
    mats, single = _two_pair_stack(rho)
    w, v = np.linalg.eigh(_marginal(mats, _KEEP_A))
    kmax = np.argmax(w, axis=1)
    rest = np.arange(3)
    order = np.column_stack([kmax, rest + (rest >= kmax[:, None])])
    u = np.take_along_axis(v, order[:, None, :], axis=2).conj().swapaxes(1, 2)
    big = _kron_stack(u, np.eye(4))
    rotated = big @ mats @ big.conj().swapaxes(1, 2)
    if single:
        return u[0], DensityMatrix(rotated[0])
    _check_states(rotated)
    return u, rotated


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


def product_form_batch(states, epsilon: float | None = None, rotate: bool = True,
                       threshold: float = 1.0 / 16.0,
                       state_ids=None) -> list[ProductFormVerdict]:
    """Check ||rho_AB - rho_A ⊗ rho_B||_1 <= 2 * 4^8 * eps for every state
    of an (S, 16, 16) stack (one 16x16 state counts as a stack of one).

    With rotate=True (the default) each state is first passed through
    steer_rotate so the threshold 1/16 is guaranteed; local rotation of A
    changes neither side of the inequality.  rotate=False audits the raw
    states — the right choice when they are already well conditioned and
    exact (dyadic) arithmetic should be preserved.  If epsilon is omitted,
    each state's measured discrepancy is used; an explicit epsilon, shared
    by all states, must be finite, and a state whose measured discrepancy
    exceeds it violates the precondition.  ``state_ids``, one per state,
    label the verdicts.
    """
    mats, _ = _two_pair_stack(states)
    if epsilon is not None:
        epsilon = float(epsilon)
        if not math.isfinite(epsilon):
            raise ValueError("epsilon must be finite")
    if state_ids is None:
        state_ids = [None] * len(mats)
    elif len(state_ids) != len(mats):
        raise ValueError(f"{len(state_ids)} state ids for {len(mats)} states")
    if rotate:
        mats = steer_rotate(mats)[1]
    else:
        _check_states(mats)
    rho_a, rho_b = _marginal(mats, _KEEP_A), _marginal(mats, _KEEP_B)
    disc = _discrepancies(mats, rho_b, threshold)
    eps = disc if epsilon is None else np.full(len(mats), epsilon)
    over = np.flatnonzero(disc > eps)
    if over.size:
        raise ValueError(f"measured discrepancy {disc[over[0]]:.3e} exceeds "
                         f"the claimed epsilon {epsilon:.3e}")
    lhs = np.linalg.svd(mats - _kron_stack(rho_a, rho_b),
                        compute_uv=False).sum(axis=-1)
    rhs = 2.0 * steering_constant() * eps
    return [ProductFormVerdict(e, d, l, r, l <= r, sid)
            for e, d, l, r, sid in zip(eps.tolist(), disc.tolist(), lhs.tolist(),
                                       rhs.tolist(), state_ids)]


def product_form_check(rho, epsilon: float | None = None, rotate: bool = True,
                       threshold: float = 1.0 / 16.0,
                       state_id: str | None = None) -> ProductFormVerdict:
    """The product-form check of one state: ``product_form_batch`` on a
    stack of one."""
    return product_form_batch(rho, epsilon, rotate, threshold, [state_id])[0]

"""Tomographic steering checks on two-pair (4-qubit) states.

The tomographic questions are products of the four single-qubit states
|+>, |+i>, |0>, |->; the linear map T from Pauli coefficients to outcome
probabilities factors as a tensor power of one 4x4 integer block whose
inverse has induced 1-norm exactly 2.  On top of that sit the conditional
state ("steering") discrepancy, the marginal-eigenbasis rotation that
keeps every outcome probability at or above 1/16, and the product-form
bound ||rho_AB - rho_A ⊗ rho_B||_1 <= 2 C eps with C = 4^8.  A trace norm
is the sum of |eigenvalues| of a Hermitian difference.

The discrepancy is the largest of up to 16 such norms, one per outcome,
and only the outcomes that can set it are eigensolved.  A 4x4 Hermitian
H has ||H||_F <= ||H||_1 <= 2 ||H||_F (Bhatia, Matrix Analysis, ch. IV).
So the outcome with the largest F = ||H||_F is eigensolved first, giving
a norm t, and every outcome with 4.00004 F^2 < t^2 is skipped: its norm
lies below t, since the margin covers the eigensolver's backward error
(~1e-13 relative).  A NaN fails the test and is kept, and so is every
outcome of a state whose t^2 lies outside [2^-1000, inf), where squares
lose their relative accuracy to underflow or overflow.  The rest are
eigensolved together, each norm with the bits an all-outcome pass gives
it, so the maximum has the bits of the maximum over all 16 norms.
Ginibre states keep about 4 of their 16 outcomes, products about 6, and
a tie keeps all 16.

The single-qubit projectors are stored with exact dyadic entries (halves
and quarters), so on states whose entries are themselves dyadic the whole
discrepancy pipeline runs in exact float arithmetic and a true product
state reports a discrepancy of exactly 0.0.

The steering functions take an (S, 16, 16) stack of two-pair states, one
state being a stack of one, and treat it in one array pass with the same
arithmetic per state.  The 16 conditional states of each come from an
add.reduce over a leading (a, b) axis, in blocks of at most 16 states (at
most 1 MB of products).  It adds the terms in the order the plain einsum
does, so the bits are the same; a BLAS matmul would sum in another order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from .quantum_core import (_check_hermitian, _check_states, _kron_stack, _num_qubits,
                           _pauli_strings, _tensor_powers, _trace_norms)

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
]

#: Single-qubit tomographic projectors onto |+>, |+i>, |0> and |->, in
#: that order, written out with exact dyadic entries (an outer product of
#: kets with entries 1/sqrt(2) would round).
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
    return _tensor_powers(SINGLE_QUBIT_PROJECTORS, num_qubits)


@cache
def _tset_by_entry() -> np.ndarray:
    """C[4a + b, k] = _tset(2)[k, a, b], a read-only view."""
    return _tset(2).reshape(16, 16).T


def single_qubit_block() -> np.ndarray:
    """The 4x4 block B[s, a] = tr(phi_s sigma_a), states ordered
    (+, +i, 0, -), Paulis (id, sx, sz, sy); entries are integers."""
    return build_t_matrix(1)


@cache
def build_t_matrix(num_qubits: int = 4) -> np.ndarray:
    """T[k, a] = <phi_k| sigma_a |phi_k>, outcomes k and Pauli strings a
    both lexicographic; probabilities are p = 2^{-q} T alpha for the
    coefficients alpha of rho = 2^{-q} sum alpha_a sigma_a.  The returned
    array is shared and read-only."""
    mat = np.einsum("kij,aji->ka", _tset(num_qubits),
                    _pauli_strings(num_qubits)).real
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


def tomographic_probabilities(rho) -> np.ndarray:
    """Outcome probabilities p_k = tr(phi_k rho) over the product set, for
    a 2^q x 2^q ``rho`` Hermitian within 1e-12."""
    mat = np.asarray(rho, dtype=complex)
    q = _num_qubits(mat.shape)
    _check_hermitian(mat)
    return np.einsum("kij,ji->k", _tset(q), mat).real


def recover_pauli_coefficients(probs) -> np.ndarray:
    """Invert p = 2^{-q} T alpha for 4^q probabilities, q >= 1; output
    matches pauli_decompose ordering.

    T^{-1} = (B^{-1})^{⊗q} is applied one factor at a time: each pass
    multiplies the leading index by B^{-1} and moves it to the back, so
    after q passes the indices are in their original order again.
    """
    x = np.asarray(probs, dtype=float)
    q = (x.size.bit_length() - 1) // 2
    if q < 1 or x.shape != (4 ** q,):
        raise ValueError(
            f"expected 4^q probabilities, q >= 1, got shape {x.shape}")
    for _ in range(q):
        x = (_block_inverse() @ x.reshape(4, -1)).T.reshape(-1)
    return (2 ** q) * x


# einsum subscripts of the partial traces of an (S, 16, 16) stack viewed as
# (S, A, B, A', B'): keep pair A (trace B against B') or keep pair B.
_KEEP_A = "sabcb->sac"
_KEEP_B = "sabad->sbd"


def _two_pair_stack(states) -> np.ndarray:
    """The input as an (S, 16, 16) complex stack of two-pair states."""
    mats = np.asarray(states, dtype=complex)
    if mats.ndim != 3 or mats.shape[1:] != (16, 16):
        raise ValueError("expected an (S, 16, 16) stack of two-pair states, "
                         f"got shape {mats.shape}")
    return mats


def _marginals(mats: np.ndarray, *specs: str) -> list[np.ndarray]:
    """The reduced states named by ``specs`` of every state, checked at once."""
    red = [np.einsum(spec, mats.reshape(-1, 4, 4, 4, 4)) for spec in specs]
    _check_states(np.concatenate(red))
    return red


def _conditional_states(mats: np.ndarray) -> np.ndarray:
    """cond[s, k] = tr_A[(phi_k ⊗ id) rho_s], summed term by term over (a, b)
    in lexicographic order, as np.einsum("kab,sbiaj->skij") sums them."""
    m = mats.reshape(-1, 4, 4, 4, 4).transpose(3, 1, 0, 2, 4).reshape(16, -1, 1, 4, 4)
    coef = _tset_by_entry()[:, None, :, None, None]
    cond = np.empty((m.shape[1], 16, 4, 4), dtype=complex)
    for lo in range(0, len(cond), 16):
        np.add.reduce(coef * m[:, lo:lo + 16], axis=0, out=cond[lo:lo + 16])
    return cond


#: Weights of the squared real and imaginary parts of a flattened 4x4
#: matrix: 1 on the diagonal, 2 below it, 0 above.  The weighted sum is the
#: squared Frobenius norm of the Hermitian matrix eigvalsh reads from the
#: lower triangle, plus the squared imaginary parts of the diagonal, which
#: eigvalsh ignores: a bound from above either way.
_LOWER_WEIGHTS = np.repeat((np.tri(4, k=-1) * 2 + np.eye(4)).ravel(), 2)
_LOWER_WEIGHTS.flags.writeable = False

#: ||H||_1 <= 2 ||H||_F for a 4x4 Hermitian H; the 1e-5 margin on 2^2
#: covers the eigensolver's backward error (~1e-13 relative) and the
#: rounding of F^2.  A fixed proof constant, not a setting.
_SKIP_FACTOR = 4.00004


def _discrepancies(mats: np.ndarray, rho_b: np.ndarray,
                   threshold: float) -> np.ndarray:
    """steering_discrepancy of each state of a stack, given its B marginals."""
    if not 0 <= threshold < 1:
        raise ValueError("threshold must lie in [0, 1)")
    cond = _conditional_states(mats)  # the trace of cond[s, k] is p_A(phi_k)
    p = np.trace(cond, axis1=-2, axis2=-1).real
    kept = (p >= threshold) & (p > 0.0)
    if not kept.any(axis=1).all():
        raise ValueError("all tomographic outcomes fall below the threshold")
    diff = cond / np.where(kept, p, 1.0)[..., None, None] - rho_b[:, None]
    # F^2 of the matrix eigvalsh reads; an outcome that cannot reach the
    # largest norm yet found is never eigensolved (module docstring).
    sq = diff.view(float).reshape(*kept.shape, 32)
    fro2 = np.where(kept, (sq * sq) @ _LOWER_WEIGHTS, -np.inf)
    rows = np.arange(len(diff))
    first = fro2.argmax(axis=1)
    norms = np.full(kept.shape, -np.inf)
    norms[rows, first] = top = _trace_norms(diff[rows, first])
    # Squares keep the relative accuracy the margin needs only well inside
    # the normal range; a state whose top square leaves it keeps all.
    top2 = top * top
    top2[~((top2 >= 2.0 ** -1000) & (top2 < np.inf))] = 0.0
    rest = ~(_SKIP_FACTOR * fro2 < top2[:, None])  # NaN keeps
    rest[rows, first] = False
    norms[rest] = _trace_norms(diff[rest])
    return norms.max(axis=1)


def min_outcome_probability(states) -> np.ndarray:
    """Minimum over the 16 A-side tomographic projectors of p_A(phi), for
    each state of an (S, 16, 16) stack."""
    mats = _two_pair_stack(states)
    _check_states(mats)
    rho_a, = _marginals(mats, _KEEP_A)
    return np.einsum("kab,sba->sk", _tset(2), rho_a).real.min(axis=1)


def steering_discrepancy(states, threshold: float = 0.0) -> np.ndarray:
    """max_phi || rho_B^phi - rho_B ||_1 over A-side tomographic outcomes
    with p_A(phi) >= threshold, for each state of an (S, 16, 16) stack.

    rho_B^phi = tr_A[(phi ⊗ id) rho] / p_A(phi) is the state conditioned
    on outcome phi on the first pair.  Outcomes rarer than the threshold
    are skipped (their conditional states are unconstrained); if every
    outcome of a state is below threshold — impossible after steer_rotate
    at 1/16 — a ValueError is raised.  Outcomes whose Frobenius bound
    cannot reach the largest norm are never eigensolved (module
    docstring); the result has the bits of the maximum over all norms.
    """
    mats = _two_pair_stack(states)
    _check_states(mats)
    return _discrepancies(mats, _marginals(mats, _KEEP_B)[0], threshold)


def steer_rotate(states):
    """Rotate the A marginal into its eigenbasis, largest eigenvalue first.

    Returns (U, rotated), an (S, 4, 4) and a validated (S, 16, 16) stack,
    both read-only, with rotated = (U ⊗ id) rho (U ⊗ id)^dagger for each
    state rho.  U maps the maximal-eigenvalue eigenvector of rho_A to
    |00>, so every A-side tomographic outcome then has probability at
    least lambda_max * 1/4 >= 1/16.  Eigenvalue ties break to the first
    maximizing index of the ascending eigensolver ordering.
    """
    mats = _two_pair_stack(states)
    w, v = np.linalg.eigh(_marginals(mats, _KEEP_A)[0])
    kmax = np.argmax(w, axis=1)
    rest = np.arange(3)
    order = np.column_stack([kmax, rest + (rest >= kmax[:, None])])
    u = np.take_along_axis(v, order[:, None, :], axis=2).conj().swapaxes(1, 2)
    big = _kron_stack(u, np.eye(4))
    rotated = big @ mats @ big.conj().swapaxes(1, 2)
    _check_states(rotated)
    u.flags.writeable = rotated.flags.writeable = False
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
    of an (S, 16, 16) stack.

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
    mats = _two_pair_stack(states)
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
    rho_a, rho_b = _marginals(mats, _KEEP_A, _KEEP_B)
    disc = _discrepancies(mats, rho_b, threshold)
    eps = disc if epsilon is None else np.full(len(mats), epsilon)
    over = np.flatnonzero(disc > eps)
    if over.size:
        raise ValueError(f"measured discrepancy {disc[over[0]]:.3e} exceeds "
                         f"the claimed epsilon {epsilon:.3e}")
    lhs = _trace_norms(mats - _kron_stack(rho_a, rho_b))
    rhs = 2.0 * steering_constant() * eps
    return [ProductFormVerdict(e, d, l, r, l <= r, sid)
            for e, d, l, r, sid in zip(eps.tolist(), disc.tolist(), lhs.tolist(),
                                       rhs.tolist(), state_ids)]

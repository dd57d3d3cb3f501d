"""Exact low-dimensional quantum state arithmetic.

Bell-diagonal and labeled-ensemble representations, Pauli decomposition,
trace norm, the secret twirl and the labeled-ensemble purification used by
the distillation analysis.

Conventions fixed here and imported everywhere else:

* Bell labels are ordered ``(00, 11, 01, 10)`` (see ``BELL_ORDER``), i.e.
  (phi+, psi-, psi+, phi-).  ``|B_ij> = (id ⊗ sx^j sz^i)|B_00>``.
* Pauli labels are ordered ``(id, sx, sz, sy)`` (see ``PAULI_ORDER``), with
  ``sigma_(0,0)=id, sigma_(0,1)=sx, sigma_(1,0)=sz, sigma_(1,1)=sy``.

Matrices are plain ndarrays whose size is read from their shape (2^q x 2^q
on q qubits); the density matrices returned are checked by ``_check_states``
and read-only.  All operations are pure functions; the value types are
immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

__all__ = [
    "BELL_ORDER",
    "PAULI_ORDER",
    "PAULI",
    "BellDiagonalState",
    "LabeledEnsembleState",
    "CORRELATED_SUPPORT",
    "bell_vector",
    "bell_basis",
    "trace_norm",
    "pauli_decompose",
    "secret_twirl",
    "ensemble_purification",
]

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10

#: Bell labels (i, j) in the fixed presentation order (00, 11, 01, 10).
BELL_ORDER = ((0, 0), (1, 1), (0, 1), (1, 0))

#: Pauli labels (alpha, beta) in the order (id, sx, sz, sy).
PAULI_ORDER = ((0, 0), (0, 1), (1, 0), (1, 1))

_ID = np.eye(2, dtype=complex)
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)

#: sigma_(alpha, beta) keyed by label; sigma_(1,1) is sy itself (no phase).
PAULI = {(0, 0): _ID, (0, 1): _SX, (1, 0): _SZ, (1, 1): _SY}
_PAULI_LIST = [PAULI[lbl] for lbl in PAULI_ORDER]


def bell_vector(i: int, j: int) -> np.ndarray:
    """Return |B_ij> = (id ⊗ sx^j sz^i)|B_00> as a length-4 vector."""
    op = np.linalg.matrix_power(_SX, j) @ np.linalg.matrix_power(_SZ, i)
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2.0)  # |00> + |11>
    return (np.kron(_ID, op) @ v)


def bell_basis() -> np.ndarray:
    """4x4 unitary whose columns are the Bell vectors in ``BELL_ORDER``."""
    return np.column_stack([bell_vector(i, j) for (i, j) in BELL_ORDER])


def _tensor_powers(factors, num_qubits: int) -> np.ndarray:
    """All 4^q Kronecker products of q of the four single-qubit ``factors``,
    shape (4^q, 2^q, 2^q), lexicographic in the per-qubit factor index;
    read-only.  Entry for entry the products ``reduce(np.kron, ...)`` forms."""
    out = base = np.asarray(factors, dtype=complex)
    for _ in range(num_qubits - 1):
        out = _kron_stack(out[:, None], base)
        out = out.reshape((-1,) + out.shape[-2:])
    out.flags.writeable = False
    return out


@cache
def _pauli_strings(num_qubits: int) -> np.ndarray:
    """All 4^q Pauli strings on q qubits, lexicographic in ``PAULI_ORDER``."""
    return _tensor_powers(_PAULI_LIST, num_qubits)


def _probabilities(p, size: int, floor: float = -1e-10) -> np.ndarray:
    """Validated read-only copy of a probability vector of ``size`` entries.

    Every entry must be finite and at least ``floor``; entries between the
    floor and zero are clipped to zero, and the sum must then be one within
    ``TRACE_TOL``.
    """
    p = np.array(p, dtype=float)
    if p.shape != (size,):
        raise ValueError(f"expected {size} probabilities, got shape {p.shape}")
    total = p.sum()
    # A NaN or infinite entry makes the sum NaN or infinite.
    if not math.isfinite(total):
        raise ValueError("probabilities must be finite")
    low = p.min()
    if low < floor:
        raise ValueError(f"negative probability {low:.3e}")
    if low < 0:
        p[p < 0] = 0.0
        total = p.sum()
    if abs(total - 1.0) > TRACE_TOL:
        raise ValueError(f"probabilities sum to {total!r}, not 1")
    p.flags.writeable = False
    return p


@dataclass(frozen=True)
class BellDiagonalState:
    """Two-qubit state diagonal in the Bell basis.

    ``p`` holds the four probabilities in ``BELL_ORDER``; entries must be
    nonnegative and sum to one within 1e-12.
    """

    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", _probabilities(self.p, 4))

    @property
    def fidelity(self) -> float:
        """Overlap with |B_00>."""
        return float(self.p[0])

    @classmethod
    def werner(cls, f: float) -> "BellDiagonalState":
        """Werner state with fidelity ``f``: (f, (1-f)/3, (1-f)/3, (1-f)/3)."""
        rest = (1.0 - f) / 3.0
        return cls(np.array([f, rest, rest, rest]))

    def to_density_matrix(self) -> np.ndarray:
        basis = bell_basis()
        return _frozen_state((basis * self.p) @ basis.conj().T)


@dataclass(frozen=True)
class LabeledEnsembleState:
    """16 probabilities p_{ijkl} over Bell label (i,j) x demon flag (k,l).

    Stored flat in lexicographic order of (i, j, k, l); these are the moduli
    squared of the purified-ensemble amplitudes, which is all the recurrence
    analysis consumes.
    """

    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", _probabilities(self.p, 16))

    @staticmethod
    def index(i: int, j: int, k: int, l: int) -> int:
        return ((i * 2 + j) * 2 + k) * 2 + l

    @classmethod
    def from_bell_diagonal(cls, state: BellDiagonalState,
                           flags: str = "correlated") -> "LabeledEnsembleState":
        """Embed a Bell-diagonal state with a chosen flag initialization.

        ``flags="correlated"`` sets p_{ij,ij} = p_ij (the demon's register
        already reflects the Bell label); ``flags="zero"`` sets
        p_{ij,00} = p_ij (fresh register, nothing recorded yet).
        """
        if flags == "correlated":
            support = CORRELATED_SUPPORT
        elif flags == "zero":
            support = [cls.index(i, j, 0, 0) for (i, j) in BELL_ORDER]
        else:
            raise ValueError(f"unknown flag initialization {flags!r}")
        p = np.zeros(16)
        p[support] = state.p
        return cls(p)

    def bell_marginal(self) -> BellDiagonalState:
        """Trace out the flag register."""
        q = self.p.reshape(2, 2, 4).sum(axis=2)
        return BellDiagonalState(np.array([q[i, j] for (i, j) in BELL_ORDER]))

    def cross_mass(self) -> float:
        """Total weight on labels with (i,j) != (k,l)."""
        return float(self.p.reshape(4, 4)[~np.eye(4, dtype=bool)].sum())

    def to_density_matrix(self) -> np.ndarray:
        """Bell-diagonal pair ⊗ computational flag register (dim 16)."""
        blocks = zip(_bell_projectors(), self.p.reshape(4, 4))
        return _frozen_state(sum(np.kron(bb, np.diag(w)) for bb, w in blocks))


#: Flat indices of p_{ij,ij} for (i, j) in ``BELL_ORDER``: the correlated
#: support, on which the demon's flag equals the Bell label.
CORRELATED_SUPPORT = np.array([LabeledEnsembleState.index(i, j, i, j)
                               for (i, j) in BELL_ORDER])
CORRELATED_SUPPORT.flags.writeable = False

# Bell-label row 2i+j and flag column 2k+l of each flat index
# ``LabeledEnsembleState.index(i, j, k, l)``.
_LABEL, _FLAG = np.divmod(np.arange(16), 4)


def _bell_vectors() -> np.ndarray:
    """|B_ij> stacked in lexicographic (i, j) order, the row order of
    ``LabeledEnsembleState.p.reshape(4, 4)``."""
    return np.array([bell_vector(i, j) for i in (0, 1) for j in (0, 1)])


def _bell_projectors() -> np.ndarray:
    """|B_ij><B_ij| stacked in lexicographic (i, j) order."""
    v = _bell_vectors()
    return v[:, :, None] * v.conj()[:, None, :]


def _num_qubits(shape: tuple) -> int:
    """q of a square 2^q x 2^q matrix ``shape``, q >= 1."""
    n = shape[0] if len(shape) == 2 and shape[0] == shape[1] else 0
    if n < 2 or n & (n - 1):
        raise ValueError(f"not a square power-of-two matrix: {shape}")
    return n.bit_length() - 1


def _check_hermitian(mats: np.ndarray) -> None:
    """Every entry finite, checked before any arithmetic on them, and every
    matrix of the (..., n, n) stack Hermitian within 1e-12."""
    finite = np.isfinite(mats)
    if not finite.all():
        raise ValueError(f"matrix entry {complex(mats[~finite][0])!r} is not finite")
    if not (np.abs(mats - mats.conj().swapaxes(-1, -2)) <= HERMITICITY_TOL).all():
        raise ValueError("matrix is not Hermitian within 1e-12")


def _check_states(mats: np.ndarray) -> None:
    """Check that every matrix of an (S, 2^q, 2^q) stack, q >= 1, is a
    density matrix: finite, Hermitian within 1e-12, of trace one within
    1e-12, and with no eigenvalue below -1e-10.  The floor is decided last,
    by a Cholesky factorization of rho + 1e-10 * I; states out of
    floating-point channel applications are renormalized by the caller,
    never clipped past it."""
    n = 2 ** _num_qubits(mats.shape[1:])
    _check_hermitian(mats)
    tr = np.trace(mats, axis1=-2, axis2=-1)
    bad = ~((abs(tr.real - 1.0) <= TRACE_TOL) & (abs(tr.imag) <= TRACE_TOL))
    if bad.any():
        raise ValueError(f"trace is {tr[bad][0]!r}, not 1")
    try:
        np.linalg.cholesky(mats - EIGENVALUE_FLOOR * np.eye(n))
    except np.linalg.LinAlgError:
        raise ValueError("matrix has an eigenvalue below -1e-10") from None


def _frozen_state(mat: np.ndarray) -> np.ndarray:
    """A freshly computed density matrix, checked and made read-only."""
    _check_states(mat[None])
    mat.flags.writeable = False
    return mat


def _kron_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of the matching matrices of two broadcastable stacks,
    (..., m, m) and (..., n, n) -> (..., mn, mn), entry by entry the same
    products."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    mn = a.shape[-1] * b.shape[-1]
    return out.reshape(out.shape[:-4] + (mn, mn))


def _trace_norms(stack: np.ndarray) -> np.ndarray:
    """Trace norm of each matrix of an (..., n, n) Hermitian stack, as the
    sum of its |eigenvalues|; only the lower triangles are read."""
    return np.abs(np.linalg.eigvalsh(stack)).sum(axis=-1)


def trace_norm(a, b) -> float:
    """Trace norm of the difference, ||a - b||_1 = sum of |eigenvalues| of
    the Hermitian difference.

    Parameters
    ----------
    a, b : array_like
        Square matrices of equal shape; a - b must be Hermitian within
        1e-12.

    Returns
    -------
    float
        Nonnegative; zero iff the inputs are equal; symmetric in (a, b).
    """
    ma, mb = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    if ma.shape != mb.shape:
        raise ValueError(f"dimension mismatch: {ma.shape} vs {mb.shape}")
    if ma.ndim != 2 or ma.shape[0] != ma.shape[1] or not ma.size:
        raise ValueError(f"expected one square matrix, got shape {ma.shape}")
    diff = ma - mb
    _check_hermitian(diff)
    return float(_trace_norms(diff))


def pauli_decompose(rho) -> np.ndarray:
    """Coefficients alpha with rho = 2^{-q} sum_a alpha_a sigma_a.

    The coefficient vector is ordered lexicographically over per-qubit Pauli
    indices in ``PAULI_ORDER`` (id, sx, sz, sy); the all-identity coefficient
    equals the trace (1 for a state).  ``rho`` must be Hermitian within
    1e-12, so that every coefficient is real.
    """
    mat = np.asarray(rho, dtype=complex)
    q = _num_qubits(mat.shape)
    _check_hermitian(mat)
    return np.einsum("aij,ji->a", _pauli_strings(q), mat).real


def secret_twirl(rho) -> np.ndarray:
    """Average over {id, K1, K2, K1K2} on the first pair, K1=sx⊗sx, K2=sz⊗sz.

    The pair occupies the first two qubits; anything else is left untouched.
    The output commutes with K1⊗id and K2⊗id, and its Bell-basis off-diagonal
    blocks vanish — measured on the pair, the result is Bell-diagonal with the
    environment classically correlated to the Bell label.  The result must
    be a density matrix (see ``_check_states``).
    """
    mat = np.asarray(rho, dtype=complex)
    q = _num_qubits(mat.shape)
    if q < 2:
        raise ValueError("dimension must be a multiple of 4 (pair ⊗ rest)")
    d_env = 2 ** (q - 2)
    k1 = np.kron(np.kron(_SX, _SX), np.eye(d_env))
    k2 = np.kron(np.kron(_SZ, _SZ), np.eye(d_env))
    out = mat + k1 @ mat @ k1 + k2 @ mat @ k2 + (k1 @ k2) @ mat @ (k1 @ k2).conj().T
    return _frozen_state(out / 4.0)


def ensemble_purification(state: LabeledEnsembleState) -> np.ndarray:
    """Purify a labeled ensemble on pair ⊗ demon ⊗ label (dimension 256).

    |Psi> = sum_ijkl sqrt(p_ijkl) |B_ij> ⊗ |kl>_L ⊗ |ijkl>_E.  Tracing the
    label register E recovers the classically-correlated pair/demon state;
    the pair subsystem occupies the first two qubits, as
    :func:`secret_twirl` expects.
    """
    amplitudes = np.sqrt(state.p)[:, None] * _bell_vectors()[_LABEL]
    psi = np.zeros((4, 4, 16), dtype=complex)  # axes (pair, L, E)
    psi[:, _FLAG, np.arange(16)] = amplitudes.T
    return psi.reshape(256)

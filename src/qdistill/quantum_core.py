"""Exact low-dimensional quantum state arithmetic.

Density matrices, Bell-diagonal and labeled-ensemble representations,
Pauli decomposition, trace norm, partial trace, the secret twirl and the
labeled-ensemble purification used by the distillation analysis.

Conventions fixed here and imported everywhere else:

* Bell labels are ordered ``(00, 11, 01, 10)`` (see ``BELL_ORDER``), i.e.
  (phi+, psi-, psi+, phi-).  ``|B_ij> = (id ⊗ sx^j sz^i)|B_00>``.
* Pauli labels are ordered ``(id, sx, sz, sy)`` (see ``PAULI_ORDER``), with
  ``sigma_(0,0)=id, sigma_(0,1)=sx, sigma_(1,0)=sz, sigma_(1,1)=sy``.

All operations are pure functions; the value types are immutable after
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, reduce

import numpy as np

__all__ = [
    "BELL_ORDER",
    "PAULI_ORDER",
    "PAULI",
    "BellDiagonalState",
    "LabeledEnsembleState",
    "CORRELATED_SUPPORT",
    "DensityMatrix",
    "bell_vector",
    "bell_basis",
    "pauli_string",
    "trace_norm",
    "partial_trace",
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


def pauli_string(labels) -> np.ndarray:
    """Tensor product of single-qubit Paulis, ``labels`` a tuple of indices
    into ``PAULI_ORDER`` (0=id, 1=sx, 2=sz, 3=sy)."""
    return reduce(np.kron, (_PAULI_LIST[k] for k in labels))


@cache
def _pauli_strings(num_qubits: int):
    """All 4^q Pauli strings for q qubits, cached per qubit count."""
    idx = np.indices((4,) * num_qubits).reshape(num_qubits, -1).T
    return (
        [tuple(row) for row in idx],
        np.stack([pauli_string(tuple(row)) for row in idx]),
    )


def _as_matrix(state) -> np.ndarray:
    if isinstance(state, DensityMatrix):
        return state.mat
    if isinstance(state, (BellDiagonalState, LabeledEnsembleState)):
        return state.to_density_matrix().mat
    return np.asarray(state, dtype=complex)


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

    def to_density_matrix(self) -> "DensityMatrix":
        basis = bell_basis()
        mat = (basis * self.p) @ basis.conj().T
        return DensityMatrix(mat)


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

    def to_density_matrix(self) -> "DensityMatrix":
        """Bell-diagonal pair ⊗ computational flag register (dim 16)."""
        blocks = zip(_bell_projectors(), self.p.reshape(4, 4))
        return DensityMatrix(sum(np.kron(bb, np.diag(w)) for bb, w in blocks))


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


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian PSD complex matrix with unit trace, dimension a power of two.

    Hermiticity is required within 1e-12, trace within 1e-12 of one, and the
    minimum eigenvalue must not fall below -1e-10 (states coming out of
    floating-point channel applications are renormalized by the caller, never
    silently clipped past that floor).
    """

    mat: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.mat, dtype=complex).copy()
        n = mat.shape[0]
        if mat.ndim != 2 or mat.shape[1] != n or n & (n - 1):
            raise ValueError(f"not a square power-of-two matrix: {mat.shape}")
        _check_states(mat[None])
        mat.flags.writeable = False
        object.__setattr__(self, "mat", mat)


def _check_states(mats: np.ndarray) -> None:
    """The ``DensityMatrix`` checks on every matrix of an (S, n, n) stack.

    Non-finite entries are rejected first, before any arithmetic on them.
    """
    finite = np.isfinite(mats)
    if not finite.all():
        raise ValueError(f"matrix entry {complex(mats[~finite][0])!r} is not finite")
    herm = np.abs(mats - mats.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    if not (herm <= HERMITICITY_TOL).all():
        raise ValueError("matrix is not Hermitian within 1e-12")
    tr = np.trace(mats, axis1=-2, axis2=-1)
    bad = ~((abs(tr.real - 1.0) <= TRACE_TOL) & (abs(tr.imag) <= TRACE_TOL))
    if bad.any():
        raise ValueError(f"trace is {tr[bad][0]!r}, not 1")
    if not (np.linalg.eigvalsh(mats).min(axis=-1) >= EIGENVALUE_FLOOR).all():
        raise ValueError("matrix has an eigenvalue below -1e-10")


def _kron_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of the matching matrices of two broadcastable stacks,
    (..., m, m) and (..., n, n) -> (..., mn, mn), entry by entry the same
    products."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    mn = a.shape[-1] * b.shape[-1]
    return out.reshape(out.shape[:-4] + (mn, mn))


def trace_norm(a, b) -> float:
    """Trace norm of the difference, ||a - b||_1 = sum of singular values.

    Parameters
    ----------
    a, b : DensityMatrix or array_like
        States of equal dimension.

    Returns
    -------
    float
        Nonnegative; zero iff the inputs are equal; symmetric in (a, b).
    """
    ma, mb = _as_matrix(a), _as_matrix(b)
    if ma.shape != mb.shape:
        raise ValueError(f"dimension mismatch: {ma.shape} vs {mb.shape}")
    return float(np.linalg.svd(ma - mb, compute_uv=False).sum())


def partial_trace(rho, keep, dims) -> DensityMatrix:
    """Trace out all subsystems not listed in ``keep``.

    Parameters
    ----------
    rho : DensityMatrix or array_like
    keep : iterable of int
        Indices (into ``dims``) of the subsystems to retain, in ascending
        order of their original position.
    dims : sequence of int
        Subsystem dimensions; their product must equal the dimension of rho.
    """
    mat = _as_matrix(rho)
    dims = tuple(int(d) for d in dims)
    keep = sorted(set(int(k) for k in keep))
    if int(np.prod(dims)) != mat.shape[0]:
        raise ValueError(f"dims {dims} do not multiply to {mat.shape[0]}")
    if any(k < 0 or k >= len(dims) for k in keep):
        raise ValueError(f"keep indices {keep} out of range")
    n = len(dims)
    tensor = mat.reshape(dims + dims)
    # Row/column axes of traced subsystems share an einsum index.
    row = list(range(n))
    col = [i + n if i in keep else i for i in range(n)]
    out = [i for i in keep] + [i + n for i in keep]
    reduced = np.einsum(tensor, row + col, out)
    d_keep = int(np.prod([dims[k] for k in keep])) if keep else 1
    return DensityMatrix(reduced.reshape(d_keep, d_keep))


def pauli_decompose(rho) -> np.ndarray:
    """Coefficients alpha with rho = 2^{-q} sum_a alpha_a sigma_a.

    The coefficient vector is ordered lexicographically over per-qubit Pauli
    indices in ``PAULI_ORDER`` (id, sx, sz, sy); the all-identity coefficient
    equals the trace (1 for a state).
    """
    mat = _as_matrix(rho)
    q = mat.shape[0].bit_length() - 1
    _, strings = _pauli_strings(q)
    return np.einsum("aij,ji->a", strings, mat).real


def secret_twirl(rho) -> DensityMatrix:
    """Average over {id, K1, K2, K1K2} on the first pair, K1=sx⊗sx, K2=sz⊗sz.

    The pair occupies the first two qubits; anything else is left untouched.
    The output commutes with K1⊗id and K2⊗id, and its Bell-basis off-diagonal
    blocks vanish — measured on the pair, the result is Bell-diagonal with the
    environment classically correlated to the Bell label.
    """
    mat = _as_matrix(rho)
    if mat.shape[0] % 4:
        raise ValueError("dimension must be a multiple of 4 (pair ⊗ rest)")
    d_env = mat.shape[0] // 4
    k1 = np.kron(np.kron(_SX, _SX), np.eye(d_env))
    k2 = np.kron(np.kron(_SZ, _SZ), np.eye(d_env))
    out = mat + k1 @ mat @ k1 + k2 @ mat @ k2 + (k1 @ k2) @ mat @ (k1 @ k2).conj().T
    return DensityMatrix(out / 4.0)


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

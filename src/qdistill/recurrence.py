"""One-round distillation update maps.

Implements the noiseless DEJMPS recurrence, the fully general noisy DEJMPS
recurrence on the 16 ensemble probabilities p_{ijkl} (Bell label x demon
flag), its binary (bit-flip-only) specialization, the three BBPSSW
recurrences, and the reduced 4-variable map on the correlated support,
each as a :class:`RecurrenceMap` with its exact Jacobian.

Bell labels follow ``quantum_core.BELL_ORDER`` = (00, 11, 01, 10).  One
distillation step consumes two pairs; a step on post-noise Bell labels
(i1,j1), (i2,j2) succeeds iff j1^j2 = i1^i2 and keeps the label
(i1^i2, i1^j1).  The demon's two flag bits per pair combine through a flag
update function u(k1,l1,k2,l2) -> (g0,g1).

Two flag updates are provided.  ``default_flag_update`` mirrors the Bell
label combination, u = (k1^k2, k1^l1); it is the unique XOR-linear choice
under which flag-Bell correlation (p_{ijkl} = 0 unless (i,j) = (k,l)) is
preserved exactly, for every noise distribution.  ``conjunctive_flag_update``
is u = (k1&k2, l1&l2); restricted to the binary support it reproduces the
binary-pair closed formulas term by term.  The two agree on correlated
inputs.

Every map is one quadratic update raw_o = sum f[F] p[A] p[B] over a table
of (OUT, F, A, B) terms, normalized by N = sum raw: the noisy map runs the
full 2048-term table; the reduced, noiseless (identity noise) and binary
maps run its restriction to their support.  A BBPSSW round is the reduced
round on a Werner input followed by the twirl back to Werner form, so the
three BBPSSW maps run the reduced table at the Werner embedding (the worst
case with 48 more terms for its error branch) and read their slope off the
table's Jacobian.  The closed forms live in the tests, as references.  A
map folds table and noise into one coefficient tensor when it is built,
2S = T + T^T in the noise's own dtype, symmetric in its last two axes, with
raw_o = sum_ab S[o,a,b] p_a p_b.  A step is one contraction 2M = 2S p, then
2 raw = 2M p, and the exact Jacobian is read off the same 2M (d raw / dp =
2M), so ``linearize`` gives step and Jacobian from one contraction.  Every
arithmetic runs that contraction: numpy's promotion of tensor and input
picks it, so exact noise and input entries (Fraction, Decimal, sympy) give
exact steps and Jacobians, halved in their own arithmetic.
``trajectory`` runs any map round by round.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, Iterator

import numpy as np

from .quantum_core import CORRELATED_SUPPORT, LabeledEnsembleState
from .noise_models import NoiseDistribution

__all__ = [
    "DegenerateStepError",
    "FlagUpdateFunction",
    "RecurrenceMap",
    "default_flag_update",
    "conjunctive_flag_update",
    "noiseless_dejmps_map",
    "noisy_dejmps_map",
    "reduced_dejmps_map",
    "binary_map",
    "bbpssw_map",
    "bbpssw_two_qubit_map",
    "worstcase_map",
    "trajectory",
]


class DegenerateStepError(ValueError):
    """Raised when a step's success probability N is zero (the post-selected
    state is undefined)."""


@dataclass(frozen=True)
class FlagUpdateFunction:
    """Deterministic total map u: {0,1}^4 -> {0,1}^2 combining demon flags."""

    name: str
    fn: Callable[[int, int, int, int], tuple]

    def __call__(self, k1, l1, k2, l2):
        return self.fn(k1, l1, k2, l2)

    def truth_table(self) -> tuple:
        return tuple(
            self.fn(k1, l1, k2, l2)
            for k1 in (0, 1) for l1 in (0, 1) for k2 in (0, 1) for l2 in (0, 1)
        )


def default_flag_update() -> FlagUpdateFunction:
    """u(k1,l1,k2,l2) = (k1^k2, k1^l1), mirroring the Bell-label rule."""
    return FlagUpdateFunction("xor", lambda k1, l1, k2, l2: (k1 ^ k2, k1 ^ l1))


def conjunctive_flag_update() -> FlagUpdateFunction:
    """u(k1,l1,k2,l2) = (k1&k2, l1&l2); matches the binary-pair formulas."""
    return FlagUpdateFunction("and", lambda k1, l1, k2, l2: (k1 & k2, l1 & l2))


def _index_table(u: FlagUpdateFunction, support=None):
    """Precomputed summation table for the 16-dim noisy recurrence.

    For each output label (d0,d1,g0,g1) the contributing terms are indexed by
    a free bit i1 (fixing j1 = d1^i1, i2 = d0^i1, j2 = d0^d1^i1 through the
    keep rule), the preimage of (g0,g1) under u, and the 16 noise labels;
    noise (a,b) shifts both the Bell and flag bits of the stored index.
    2048 terms total.  Returned as read-only (OUT, F, A, B) int arrays.

    With ``support`` (a sequence of labels) only the terms whose A, B and
    OUT all lie on it are kept, those three renumbered to positions in
    ``support``.  Cached on the truth table rather than on ``u``: every
    :func:`default_flag_update` call builds a new function object.
    """
    return _table_for(u.truth_table(),
                      None if support is None else tuple(map(int, support)))


@cache
def _table_for(truth_table: tuple, support: tuple | None = None):
    if support is None:
        bits = np.indices((2,) * 13).reshape(13, -1)
        d0, d1, g0, g1, i1, k1, l1, k2, l2, a1, b1, a2, b2 = bits
        idx = LabeledEnsembleState.index
        u = np.array(truth_table)[idx(k1, l1, k2, l2)]
        keep = (u[:, 0] == g0) & (u[:, 1] == g1)
        j1, i2, j2 = d1 ^ i1, d0 ^ i1, d0 ^ d1 ^ i1
        arrays = tuple(x[keep].astype(np.intp) for x in (
            idx(d0, d1, g0, g1),
            idx(a1, b1, a2, b2),
            idx(i1 ^ a1, j1 ^ b1, k1 ^ a1, l1 ^ b1),
            idx(i2 ^ a2, j2 ^ b2, k2 ^ a2, l2 ^ b2),
        ))
    else:
        OUT, F, A, B = _table_for(truth_table)
        pos = np.full(16, -1, dtype=np.intp)
        pos[list(support)] = np.arange(len(support))
        keep = (pos[OUT] >= 0) & (pos[A] >= 0) & (pos[B] >= 0)
        arrays = (pos[OUT][keep], F[keep], pos[A][keep], pos[B][keep])
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _coefficients(table, f, dim: int) -> np.ndarray:
    """2S = T + T^T under noise f, in f's own dtype: the terms' weights f[F]
    added into zeros, not halved, so integer and exact noise stay exact.
    Returned as a (dim^2, dim) matrix, rows (o, a): numpy contracts that
    with p several times faster than a 3-axis tensor."""
    OUT, F, A, B = table
    f = np.asarray(f)
    t = np.zeros(dim ** 3, dtype=f.dtype)
    np.add.at(t, (OUT * dim + A) * dim + B, f[F])
    t = t.reshape(dim, dim, dim)
    return (t + t.transpose(0, 2, 1)).reshape(dim * dim, dim)


def _contract(s, p):
    """(2M, 2raw, 2N) at p from 2S as :func:`_coefficients` returns it:
    2M = 2S p, 2raw = 2M p and 2N = sum 2raw, in the arithmetic numpy
    promotes tensor and input to."""
    m = s.dot(p).reshape(p.size, -1)
    raw = m.dot(p)
    n = sum(raw.tolist())
    if n == 0:
        raise DegenerateStepError("success probability is zero")
    return m, raw, n


def _linearize(s, p):
    """(p', J) at p from one contraction: p' = raw / N and its exact
    Jacobian.  raw = M p is a symmetric quadratic form, so J_R = 2M and
    J = (J_R - p' 1^T J_R) / N, in the arithmetic of the contraction."""
    m, raw, n = _contract(s, np.asarray(p))
    out = raw / n
    return out, (m - np.outer(out, m.sum(axis=0))) / (n / 2)


# Tables of the two fixed-update restrictions, looked up without rebuilding
# a truth table per step, and the binary pair (Bell amplitude bit j, flag
# bit l) as labels (0, j, 0, l).
_XOR = default_flag_update().truth_table()
_AND = conjunctive_flag_update().truth_table()
_CORRELATED = tuple(map(int, CORRELATED_SUPPORT))
_BINARY_SUPPORT = tuple(LabeledEnsembleState.index(0, j, 0, l)
                        for j in (0, 1) for l in (0, 1))


def _per_pair(g) -> list:
    """The same per-pair noise g over (id, sx, sz, sy) on both pairs, as
    the 16-vector of products; exact on Fractions."""
    return [x * y for x in g for y in g]


@cache
def _worstcase_table():
    """The reduced XOR table plus the worst case's error branch on a 17th
    noise slot: 48 terms raw_o += f[16] p_a p_b, for each label o but B00
    and every a, b.  The branch passes with certainty, (sum p)^2 = 1."""
    o, a, b = np.indices((3, 4, 4)).reshape(3, -1)
    arrays = tuple(np.concatenate(pair).astype(np.intp) for pair in zip(
        _table_for(_XOR, _CORRELATED), (o + 1, np.full(48, 16), a, b)))
    for x in arrays:
        x.flags.writeable = False
    return arrays


@dataclass(frozen=True)
class RecurrenceMap:
    """A pure one-round update map p -> (p', N) with its exact Jacobian.

    The input passes through to ``fn`` unchanged, and the map's tensor
    contracts it in the arithmetic numpy promotes the two to: under exact
    noise, ``Fraction``, ``Decimal`` or sympy entries give exact object
    arrays, floats give floats.  The table maps are homogeneous: a raw
    nonnegative input gives the normalized update, well defined on rays,
    and N is the pre-normalization sum, the success probability for a
    normalized input.  The scalar maps are not homogeneous: their variable
    is a Werner parameter or a fidelity.  ``linearize`` gives the update
    p' and its exact ``dim`` x ``dim`` Jacobian at p, both from one
    contraction; ``jac`` is that Jacobian alone.
    """

    dim: int
    fn: Callable
    linearize: Callable

    def __call__(self, p):
        return self.fn(p)

    def jac(self, p):
        return self.linearize(p)[1]


def _table_map(dim, table, f) -> RecurrenceMap:
    """The map that runs one bilinear table under noise f, a vector or a
    NoiseDistribution, on the table's coefficient tensor, built once here.
    The tensor and each input set the call's arithmetic: exact noise and
    input give exact results, float noise gives floats."""
    s = _coefficients(table, f.f if isinstance(f, NoiseDistribution) else f,
                      dim)

    def fn(p):
        _, raw, n = _contract(s, np.asarray(p))
        return raw / n, n / 2

    return RecurrenceMap(dim, fn, lambda p: _linearize(s, p))


def noiseless_dejmps_map() -> RecurrenceMap:
    """Noiseless DEJMPS on a Bell-diagonal 4-vector, with
    N = (p00+p11)^2 + (p01+p10)^2: the reduced map under identity noise."""
    return _table_map(4, _table_for(_XOR, _CORRELATED),
                      _per_pair((1, 0, 0, 0)))


def noisy_dejmps_map(noise, u: FlagUpdateFunction | None = None) -> RecurrenceMap:
    """Noisy DEJMPS on the 16 ensemble probabilities p_{ijkl}; ``noise`` is
    a NoiseDistribution or a raw 16-vector, ``u`` the flag update (default
    XOR)."""
    return _table_map(16, _table_for(_XOR) if u is None else _index_table(u),
                      noise)


def reduced_dejmps_map(noise, u: FlagUpdateFunction | None = None) -> RecurrenceMap:
    """The noisy DEJMPS map restricted to the correlated support
    p_{ijkl} = q_{ij} delta_{(ij),(kl)} -- the four-equations-in-four-unknowns
    reduction.  Terms that write off the support are dropped, so N is the
    success probability with the output post-selected onto the support.
    Under the XOR flag update the support is exactly invariant, nothing is
    dropped and N equals the full-map success probability; fixed points and
    Jacobian spectra of this map are the ones the stability analysis quotes.
    """
    table = (_table_for(_XOR, _CORRELATED) if u is None
             else _index_table(u, CORRELATED_SUPPORT))
    return _table_map(4, table, noise)


def binary_map(f0) -> RecurrenceMap:
    """A binary pair: 4-vector over (Bell amplitude bit j, flag bit l) in
    order (p00, p01, p10, p11).  The general map with the conjunctive flag
    update, restricted to the binary support, under independent bit flips
    (f0, f1) on both pairs; N = (f0^2+f1^2)((p00+p01)^2+(p10+p11)^2)
    + 4 f0 f1 (p00+p01)(p10+p11)."""
    return _table_map(4, _table_for(_AND, _BINARY_SUPPORT),
                      _per_pair((f0, 1 - f0, 0, 0)))


def _werner_map(table, f, werner_parameter=False) -> RecurrenceMap:
    """A BBPSSW round as a one-variable map: the 4-label table under noise
    f at the Werner embedding e(F) = (F, r, r, r), r = (1 - F)/3, read back
    as F'.  The variable is F or, with ``werner_parameter``, p with
    F = 1 - 3(1 - p)/4 and p' = 1 - 4(1 - F')/3; either way its slope is
    J[0] . e'(F) = J[0] . (1, -1/3, -1/3, -1/3), with J the table's exact
    Jacobian at e(F), from the table's one linearization.  An exact J takes
    the thirds in its own arithmetic, so the slope stays exact."""
    rmap = _table_map(4, table, f)

    def embed(x):
        F = 1 - 3 * (1 - x[0]) / 4 if werner_parameter else x[0]
        return [F] + [(1 - F) / 3] * 3

    def fn(x, step=rmap.fn):
        (F, *_), n_or_jac = step(embed(x))
        F = 1 - 4 * (1 - F) / 3 if werner_parameter else F
        return np.array([F]), n_or_jac

    def linearize(x):
        out, (j, *_) = fn(x, rmap.linearize)
        slope = (j @ (1, -1 / 3, -1 / 3, -1 / 3) if j.dtype != object
                 else j[0] - (j[1] + j[2] + j[3]) / 3)
        return out, np.array([[slope]])

    return RecurrenceMap(1, fn, linearize)


def bbpssw_map(f) -> RecurrenceMap:
    """BBPSSW on the Werner parameter p under white noise f (per-pair
    identity weight (3f + 1)/4): b(p) = (4p^2f^2 + 2pf)/(3p^2f^2 + 3), with
    N = (1 + p^2f^2)/2, the denominator over 6.  N lies in [1/2, 1]: p = 0
    gives exactly 1/2, which floats may miss by a rounding or two
    (0.49999999999999989 at f = 0.99).  At f = 1 N is the two-pair
    coincidence probability (1 + p^2)/2, so analytic iteration and Monte
    Carlo pair attrition agree."""
    g = ((3 * f + 1) / 4,) + ((1 - f) / 4,) * 3
    return _werner_map(_table_for(_XOR, _CORRELATED), _per_pair(g),
                       werner_parameter=True)


def bbpssw_two_qubit_map(f_tilde) -> RecurrenceMap:
    """BBPSSW on the fidelity F under two-qubit correlated noise f~ (the
    corr2 vector at a = f~^2): F' = (a (F^2 + r^2) + (1 - a)/8) / N with
    r = (1 - F)/3 and N = a (F^2 + 2Fr + 5r^2) + (1 - a)/2, the round's
    coincidence probability."""
    a = f_tilde * f_tilde
    rest = (1 - a) / 16
    return _werner_map(_table_for(_XOR, _CORRELATED), [a + rest] + [rest] * 15)


def worstcase_map(f_i) -> RecurrenceMap:
    """Worst-case BBPSSW on the fidelity F (equality case of the bound):
    F' = f_I (F^2 + r^2) / N, N = f_I (F^2 + 2Fr + 5r^2) + 1 - f_I.  The
    error branch, of weight 1 - f_I, passes the parity check but carries
    no B00 weight; at f_I = 1 this is the noiseless recurrence."""
    return _werner_map(_worstcase_table(),
                       [f_i] + [0] * 15 + [(1 - f_i) / 3])


def trajectory(rmap: RecurrenceMap, p0, rounds: int) -> Iterator[tuple]:
    """Yield (p, N) after each of ``rounds`` rounds of ``rmap`` from p0.

    Lazy: a round runs only when its result is asked for, so a long trace
    streams in constant memory and an early stop costs nothing further.
    The start keeps its own arithmetic: an exact start under exact noise
    gives exact rounds, as one call of the map does.
    """
    p = np.asarray(p0)
    for _ in range(rounds):
        p, n = rmap(p)
        yield p, n

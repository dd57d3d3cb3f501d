"""One-round distillation update maps.

Implements the noiseless DEJMPS recurrence, the fully general noisy DEJMPS
recurrence on the 16 ensemble probabilities p_{ijkl} (Bell label x demon
flag), its binary (bit-flip-only) specialization, the three BBPSSW
recurrences, and the reduced 4-variable map on the correlated support.
Each map carries its exact Jacobian; the scalar BBPSSW maps take the
quotient-rule derivative of their step, which is exact on Fractions too.

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

Every DEJMPS-type step is one quadratic update raw_o = sum f[F] p[A] p[B]
over a table of (OUT, F, A, B) terms, normalized by N = sum raw, and one
evaluator serves them all: the noisy step runs the full 2048-term table;
the reduced, noiseless (identity noise) and binary steps run its
restriction to their support.  The closed forms of the noiseless and
binary steps live in the tests, as references.  Floats/ndarrays take a
vectorised path; ``fractions.Fraction`` entries take an exact path that
sums the same terms in rational arithmetic, for exact test oracles.
``trajectory`` runs any map round by round.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
    "dejmps_noiseless_step",
    "dejmps_noisy_step",
    "binary_step",
    "bbpssw_step",
    "bbpssw_success",
    "bbpssw_two_qubit_step",
    "bbpssw_worstcase_step",
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
    2048 terms total.  Returned as (OUT, F, A, B) int arrays plus list form
    for the exact-arithmetic path.

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
        (OUT, F, A, B), _ = _table_for(truth_table)
        pos = np.full(16, -1, dtype=np.intp)
        pos[list(support)] = np.arange(len(support))
        keep = (pos[OUT] >= 0) & (pos[A] >= 0) & (pos[B] >= 0)
        arrays = (pos[OUT][keep], F[keep], pos[A][keep], pos[B][keep])
    for a in arrays:
        a.flags.writeable = False
    return arrays, tuple(a.tolist() for a in arrays)


def _bilinear_step(table, p, f, dim: int):
    """raw_o = sum over the table's terms of f[F] p[A] p[B]; returns
    (raw / N, N) with N = sum raw.  Fraction entries in ``p`` or ``f`` (an
    object array once numpy holds them) take the exact path."""
    (OUT, F, A, B), lists = table
    pv, fv = np.asarray(p), np.asarray(f)
    if pv.dtype == object or fv.dtype == object:
        pv, fv = pv.tolist(), fv.tolist()
        raw = [Fraction(0)] * dim
        for o, x, a, b in zip(*lists):
            w = fv[x] * pv[a] * pv[b]
            if w:
                raw[o] += w
        n = sum(raw)
        if n == 0:
            raise DegenerateStepError("success probability is zero")
        return [r / n for r in raw], n
    pv, fv = pv.astype(float, copy=False), fv.astype(float, copy=False)
    raw = np.bincount(OUT, weights=fv[F] * pv[A] * pv[B], minlength=dim)
    n = raw.sum()
    if n == 0:
        raise DegenerateStepError("success probability is zero")
    return raw / n, float(n)


def _bilinear_jacobian(table, p, f, dim: int):
    """Exact Jacobian of p -> raw / N (the float path of
    :func:`_bilinear_step`): J = (J_R - g 1^T J_R) / N with g = raw / N and
    J_R[o, c] = d raw_o / d p_c, read off the same table as two bincounts."""
    (OUT, F, A, B), _ = table
    pv, fv = np.asarray(p, dtype=float), np.asarray(f, dtype=float)[F]
    jr = (np.bincount(OUT * dim + A, weights=fv * pv[B], minlength=dim * dim)
          + np.bincount(OUT * dim + B, weights=fv * pv[A], minlength=dim * dim)
          ).reshape(dim, dim)
    raw = jr @ pv / 2  # Euler's identity: raw is homogeneous of degree 2
    n = raw.sum()
    if n == 0:
        raise DegenerateStepError("success probability is zero")
    return (jr - np.outer(raw / n, jr.sum(axis=0))) / n


# Tables of the two fixed-update restrictions, looked up without rebuilding
# a truth table per step; noise label (0,0,0,0) with certainty; and the
# binary pair (Bell amplitude bit j, flag bit l) as labels (0, j, 0, l).
_XOR = default_flag_update().truth_table()
_AND = conjunctive_flag_update().truth_table()
_CORRELATED = tuple(map(int, CORRELATED_SUPPORT))
_NO_NOISE = np.array([1] + [0] * 15)
_BINARY_SUPPORT = tuple(LabeledEnsembleState.index(0, j, 0, l)
                        for j in (0, 1) for l in (0, 1))


def dejmps_noiseless_step(p):
    """One noiseless DEJMPS round on a Bell-diagonal 4-vector.

    Returns (updated 4-vector, success probability N) with
    N = (p00+p11)^2 + (p01+p10)^2; Fraction entries take the exact path.
    This is the reduced map under identity noise.
    """
    return _bilinear_step(_table_for(_XOR, _CORRELATED), p, _NO_NOISE, 4)


def _noise_vector(noise):
    return noise.f if isinstance(noise, NoiseDistribution) else noise


def dejmps_noisy_step(p, noise, u: FlagUpdateFunction | None = None):
    """One noisy DEJMPS round on the 16 ensemble probabilities p_{ijkl}.

    ``noise`` is a NoiseDistribution (or a raw 16-vector; Fraction entries
    select exact arithmetic), ``u`` the flag update (default XOR).  Returns
    (updated 16-vector, success N) where N is the pre-normalization sum.
    """
    return _bilinear_step(_index_table(u or default_flag_update()), p,
                          _noise_vector(noise), 16)


def binary_step(p, f0):
    """One round on a binary pair: 4-vector over (Bell amplitude bit j,
    flag bit l) in order (p00, p01, p10, p11), bit-flip noise f0.

    The general map with the conjunctive flag update, restricted to the
    binary support, under independent bit flips (f0, f1) on both pairs;
    N = (f0^2+f1^2)((p00+p01)^2+(p10+p11)^2) + 4 f0 f1 (p00+p01)(p10+p11).
    Fraction inputs take the exact path.
    """
    return _bilinear_step(_table_for(_AND, _BINARY_SUPPORT), p,
                          _binary_noise(f0), 4)


def _binary_noise(f0) -> list:
    """Independent bit flips (f0, 1 - f0) on both pairs as a 16-vector."""
    flip = (f0, 1 - f0, 0, 0)
    return [x * y for x in flip for y in flip]


def bbpssw_success(p, f):
    """Success probability of one BBPSSW round at Werner parameter p.

    The recurrence denominator is 3 p^2 f^2 + 3; scaled by 1/6 it lies in
    (1/2, 1] and at f = 1 equals the exact two-pair coincidence probability
    (1 + p^2)/2, which is the convention used here so that analytic
    iteration and Monte Carlo pair attrition agree.
    """
    return (3 * p * p * f * f + 3) / 6


def bbpssw_step(p, f):
    """One BBPSSW round on the Werner parameter: b(p) = (4p^2f^2+2pf)/(3p^2f^2+3).

    Returns (b(p), success) with success as in :func:`bbpssw_success`.
    """
    num = 4 * p * p * f * f + 2 * p * f
    den = 3 * p * p * f * f + 3
    return num / den, bbpssw_success(p, f)


def _bbpssw_slope(p, f):
    """b'(p) = 2f(1 + 4pf - p^2f^2) / (3(1 + p^2f^2)^2); exact on Fractions."""
    pf = p * f
    d = 1 + pf * pf
    return 2 * f * (1 + 4 * pf - pf * pf) / (3 * d * d)


def _fidelity(F, a, c, c2):
    """(F', den, dF'/dF) of F' = num / den, num = a (F^2 + r^2) + c,
    den = a (F^2 + 2 F r + 5 r^2) + c2, r = (1 - F)/3; exact on Fractions."""
    rest = (1 - F) / 3
    num = a * (F * F + rest * rest) + c
    den = a * (F * F + 2 * F * rest + 5 * rest * rest) + c2
    # quotient rule with num' = 2a(3F - r)/3 and den' = 4a(F - r)/3
    slope = a * (2 * (3 * F - rest) * den - 4 * (F - rest) * num) / (3 * den * den)
    return num / den, den, slope


def _two_qubit(F, f_tilde):
    ft2 = f_tilde * f_tilde
    return _fidelity(F, ft2, (1 - ft2) / 8, (1 - ft2) / 2)


def bbpssw_two_qubit_step(F, f_tilde):
    """BBPSSW fidelity recurrence under two-qubit correlated noise f~.

    Returns (F', success) where success is the denominator (the coincidence
    probability of the round).
    """
    return _two_qubit(F, f_tilde)[:2]


def bbpssw_worstcase_step(F, f_i):
    """Worst-case BBPSSW fidelity recurrence (equality case of the bound).

    The error branch contributes only to the denominator (it passes the
    parity check but carries no B00 weight).  At f_i = 1 this is identically
    the noiseless fidelity recurrence.
    """
    return _fidelity(F, f_i, 0, 1 - f_i)[:2]


@dataclass(frozen=True)
class RecurrenceMap:
    """A pure one-round update map p -> (p', N) with its exact Jacobian.

    ``fn`` maps a float vector of length ``dim`` to the update and N.  The
    table maps are homogeneous: a raw nonnegative input gives the
    normalized update, well defined on rays, and N is the pre-normalization
    sum, the success probability for a normalized input.  The scalar maps
    are not homogeneous: their variable is a Werner parameter or a fidelity.
    ``jac`` gives the exact ``dim`` x ``dim`` Jacobian of the update at p.
    """

    dim: int
    fn: Callable
    jac: Callable

    def __call__(self, p):
        return self.fn(np.asarray(p, dtype=float))


def _table_map(dim, table, f) -> RecurrenceMap:
    """The map that runs one bilinear table under noise vector f, with the
    table's exact Jacobian."""
    return RecurrenceMap(dim, lambda p: _bilinear_step(table, p, f, dim),
                         lambda p: _bilinear_jacobian(table, p, f, dim))


def noiseless_dejmps_map() -> RecurrenceMap:
    return _table_map(4, _table_for(_XOR, _CORRELATED), _NO_NOISE)


def noisy_dejmps_map(noise, u: FlagUpdateFunction | None = None) -> RecurrenceMap:
    return _table_map(16, _index_table(u or default_flag_update()), _noise_vector(noise))


def reduced_dejmps_map(noise, u: FlagUpdateFunction | None = None) -> RecurrenceMap:
    """The noisy DEJMPS map restricted to the correlated support
    p_{ijkl} = q_{ij} delta_{(ij),(kl)} -- the four-equations-in-four-unknowns
    reduction.  Terms that write off the support are dropped, so N is the
    success probability with the output post-selected onto the support.
    Under the XOR flag update the support is exactly invariant, nothing is
    dropped and N equals the full-map success probability; fixed points and
    Jacobian spectra of this map are the ones the stability analysis quotes.
    """
    return _table_map(4, _index_table(u or default_flag_update(),
                                      CORRELATED_SUPPORT), _noise_vector(noise))


def binary_map(f0) -> RecurrenceMap:
    return _table_map(4, _table_for(_AND, _BINARY_SUPPORT), _binary_noise(f0))


def _scalar_map(step, slope) -> RecurrenceMap:
    """The map of step x -> (x', N) with derivative slope(x), at float x."""
    def fn(p):
        out, n = step(float(np.ravel(p)[0]))
        return np.array([out]), n
    return RecurrenceMap(
        1, fn, lambda p: np.array([[float(slope(float(np.ravel(p)[0])))]]))


def bbpssw_map(f) -> RecurrenceMap:
    return _scalar_map(lambda p: bbpssw_step(p, f), lambda p: _bbpssw_slope(p, f))


def bbpssw_two_qubit_map(f_tilde) -> RecurrenceMap:
    return _scalar_map(lambda F: bbpssw_two_qubit_step(F, f_tilde),
                       lambda F: _two_qubit(F, f_tilde)[2])


def worstcase_map(f_i) -> RecurrenceMap:
    return _scalar_map(lambda F: bbpssw_worstcase_step(F, f_i),
                       lambda F: _fidelity(F, f_i, 0, 1 - f_i)[2])


def trajectory(rmap: RecurrenceMap, p0, rounds: int) -> Iterator[tuple]:
    """Yield (p, N) after each of ``rounds`` rounds of ``rmap`` from p0.

    Lazy: a round runs only when its result is asked for, so a long trace
    streams in constant memory and an early stop costs nothing further.
    """
    p = np.asarray(p0, dtype=float)
    for _ in range(rounds):
        p, n = rmap(p)
        yield p, n

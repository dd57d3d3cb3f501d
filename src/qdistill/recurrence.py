"""One-round distillation update maps.

Implements the noiseless DEJMPS recurrence, the fully general noisy DEJMPS
recurrence on the 16 ensemble probabilities p_{ijkl} (Bell label x demon
flag), its binary (bit-flip-only) specialization, the three BBPSSW
recurrences, and the reduced 4-variable map on the correlated support.

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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from typing import Callable

import numpy as np

from .quantum_core import CORRELATED_SUPPORT, BellDiagonalState, LabeledEnsembleState
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
    "write_trace_csv",
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

    Returns (updated state, success probability N) with
    N = (p00+p11)^2 + (p01+p10)^2.  Accepts a BellDiagonalState or a raw
    4-vector (Fraction entries take the exact path).  This is the reduced
    map under identity noise.
    """
    wrap = isinstance(p, BellDiagonalState)
    out, n = _bilinear_step(_table_for(_XOR, _CORRELATED), p.p if wrap else p,
                            _NO_NOISE, 4)
    return (BellDiagonalState(out), n) if wrap else (out, n)


def _noise_vector(noise):
    return noise.f if isinstance(noise, NoiseDistribution) else noise


def dejmps_noisy_step(p, noise, u: FlagUpdateFunction | None = None):
    """One noisy DEJMPS round on the 16 ensemble probabilities p_{ijkl}.

    ``noise`` is a NoiseDistribution (or a raw 16-vector; Fraction entries
    select exact arithmetic), ``u`` the flag update (default XOR).  Returns
    (updated probabilities, success N) where N is the pre-normalization sum.
    """
    wrap = isinstance(p, LabeledEnsembleState)
    out, n = _bilinear_step(_index_table(u or default_flag_update()),
                            p.p if wrap else p, _noise_vector(noise), 16)
    return (LabeledEnsembleState(out), n) if wrap else (out, n)


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


def bbpssw_two_qubit_step(F, f_tilde):
    """BBPSSW fidelity recurrence under two-qubit correlated noise f~.

    Returns (F', success) where success is the denominator (the coincidence
    probability of the round).
    """
    ft2 = f_tilde * f_tilde
    rest = (1 - F) / 3
    num = ft2 * (F * F + rest * rest) + (1 - ft2) / 8
    den = ft2 * (F * F + 2 * F * rest + 5 * rest * rest) + (1 - ft2) / 2
    return num / den, den


def bbpssw_worstcase_step(F, f_i):
    """Worst-case BBPSSW fidelity recurrence (equality case of the bound).

    The error branch contributes only to the denominator (it passes the
    parity check but carries no B00 weight).  At f_i = 1 this is identically
    the noiseless fidelity recurrence.
    """
    rest = (1 - F) / 3
    num = f_i * (F * F + rest * rest)
    den = f_i * (F * F + 2 * F * rest + 5 * rest * rest) + (1 - f_i)
    return num / den, den


@dataclass(frozen=True)
class RecurrenceMap:
    """A pure one-round update map p -> (p', N).

    ``fn`` accepts a raw (not necessarily normalized) nonnegative vector of
    length ``dim`` and returns the normalized update plus the
    pre-normalization sum N; all provided maps are homogeneous, so the
    normalized output is well defined on rays.  N is the round's success
    probability when the input is normalized.  ``jac``, when set, gives the
    exact Jacobian of the normalized update at a raw float vector; the table
    maps set it, the scalar maps leave it None.
    """

    variant: str
    dim: int
    fn: Callable
    params: dict = field(default_factory=dict)
    jac: Callable | None = None

    def __call__(self, p):
        return self.fn(np.asarray(p, dtype=float))


def _table_map(variant, dim, table, f, params=None) -> RecurrenceMap:
    """The map that runs one bilinear table under noise vector f, with the
    table's exact Jacobian."""
    return RecurrenceMap(variant, dim, lambda p: _bilinear_step(table, p, f, dim),
                         params or {}, lambda p: _bilinear_jacobian(table, p, f, dim))


def noiseless_dejmps_map() -> RecurrenceMap:
    return _table_map("dejmps", 4, _table_for(_XOR, _CORRELATED), _NO_NOISE)


def noisy_dejmps_map(noise, u: FlagUpdateFunction | None = None) -> RecurrenceMap:
    u = u or default_flag_update()
    return _table_map("dejmps-noisy", 16, _index_table(u), _noise_vector(noise),
                      {"u": u.name})


def reduced_dejmps_map(noise, u: FlagUpdateFunction | None = None) -> RecurrenceMap:
    """The noisy DEJMPS map restricted to the correlated support
    p_{ijkl} = q_{ij} delta_{(ij),(kl)} -- the four-equations-in-four-unknowns
    reduction.  Terms that write off the support are dropped, so N is the
    success probability with the output post-selected onto the support.
    Under the XOR flag update the support is exactly invariant, nothing is
    dropped and N equals the full-map success probability; fixed points and
    Jacobian spectra of this map are the ones the stability analysis quotes.
    """
    u = u or default_flag_update()
    return _table_map("dejmps-reduced", 4, _index_table(u, CORRELATED_SUPPORT),
                      _noise_vector(noise), {"u": u.name})


def binary_map(f0) -> RecurrenceMap:
    return _table_map("binary", 4, _table_for(_AND, _BINARY_SUPPORT),
                      _binary_noise(f0), {"f0": f0})


def _scalar_map(variant, step, **params) -> RecurrenceMap:
    def fn(p):
        out, n = step(float(np.asarray(p).reshape(-1)[0]))
        return np.array([out]), n
    return RecurrenceMap(variant, 1, fn, params)


def bbpssw_map(f) -> RecurrenceMap:
    return _scalar_map("bbpssw", lambda p: bbpssw_step(p, f), f=f)


def bbpssw_two_qubit_map(f_tilde) -> RecurrenceMap:
    return _scalar_map("bbpssw2q", lambda F: bbpssw_two_qubit_step(F, f_tilde),
                       f_tilde=f_tilde)


def worstcase_map(f_i) -> RecurrenceMap:
    return _scalar_map("worstcase", lambda F: bbpssw_worstcase_step(F, f_i), f_i=f_i)


def write_trace_csv(rmap: RecurrenceMap, p0, rounds: int, fh) -> None:
    """Emit per-round (round, p-vector, N) rows as CSV to an open file.

    Round 0 is the input state (N left empty).
    """
    import csv

    p = np.asarray(p0, dtype=float)
    writer = csv.writer(fh)
    writer.writerow(["round"] + [f"p{i}" for i in range(rmap.dim)] + ["N"])
    writer.writerow([0] + [format(x, ".17g") for x in p] + [""])
    for r in range(1, rounds + 1):
        p, n = rmap(p)
        writer.writerow([r] + [format(x, ".17g") for x in p]
                        + [format(n, ".17g")])

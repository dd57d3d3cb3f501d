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
binary-pair closed formulas of :func:`binary_step` term by term.  The two
agree on correlated inputs.

Every step function accepts either floats/ndarrays (fast path) or
``fractions.Fraction`` entries (exact path, same formulas evaluated in
rational arithmetic), so test oracles can avoid floating-point ambiguity.
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


def _index_table(u: FlagUpdateFunction):
    """Precomputed summation table for the 16-dim noisy recurrence.

    For each output label (d0,d1,g0,g1) the contributing terms are indexed by
    a free bit i1 (fixing j1 = d1^i1, i2 = d0^i1, j2 = d0^d1^i1 through the
    keep rule), the preimage of (g0,g1) under u, and the 16 noise labels;
    noise (a,b) shifts both the Bell and flag bits of the stored index.
    2048 terms total.  Returned as (OUT, F, A, B) int arrays plus list form
    for the exact-arithmetic path.

    Cached on the truth table rather than on ``u``: every
    :func:`default_flag_update` call builds a new function object.
    """
    return _table_for(u.truth_table())


@cache
def _table_for(truth_table: tuple):
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
    for a in arrays:
        a.flags.writeable = False
    return arrays, tuple(a.tolist() for a in arrays)


def _is_exact(*arrays) -> bool:
    for a in arrays:
        if isinstance(a, np.ndarray) and a.dtype == object:
            return True
        if isinstance(a, (list, tuple)) and any(isinstance(x, Fraction) for x in a):
            return True
        if isinstance(a, Fraction):
            return True
    return False


def dejmps_noiseless_step(p):
    """One noiseless DEJMPS round on a Bell-diagonal 4-vector.

    Returns (updated state, success probability N) with
    N = (p00+p11)^2 + (p01+p10)^2.  Accepts a BellDiagonalState or a raw
    4-vector (Fraction entries take the exact path).
    """
    wrap = isinstance(p, BellDiagonalState)
    vec = p.p if wrap else p
    if _is_exact(vec):
        v = list(vec)
        raw = [v[0] * v[0] + v[1] * v[1], 2 * v[2] * v[3],
               v[2] * v[2] + v[3] * v[3], 2 * v[0] * v[1]]
        n = sum(raw)
        if n == 0:
            raise DegenerateStepError("success probability is zero")
        return [r / n for r in raw], n
    v = np.asarray(vec, dtype=float)
    raw = np.array([v[0] ** 2 + v[1] ** 2, 2 * v[2] * v[3],
                    v[2] ** 2 + v[3] ** 2, 2 * v[0] * v[1]])
    n = raw.sum()
    if n == 0:
        raise DegenerateStepError("success probability is zero")
    out = raw / n
    return (BellDiagonalState(out), float(n)) if wrap else (out, float(n))


def dejmps_noisy_step(p, noise, u: FlagUpdateFunction | None = None):
    """One noisy DEJMPS round on the 16 ensemble probabilities p_{ijkl}.

    ``noise`` is a NoiseDistribution (or a raw 16-vector; Fraction entries
    select exact arithmetic), ``u`` the flag update (default XOR).  Returns
    (updated probabilities, success N) where N is the pre-normalization sum.
    """
    if u is None:
        u = default_flag_update()
    wrap = isinstance(p, LabeledEnsembleState)
    pvec = p.p if wrap else p
    fvec = noise.f if isinstance(noise, NoiseDistribution) else noise
    (OUT, F, A, B), lists = _index_table(u)
    if _is_exact(pvec, fvec):
        pv, fv = list(pvec), list(fvec)
        acc = [Fraction(0)] * 16
        lo, lf, la, lb = lists
        for t in range(len(lo)):
            w = fv[lf[t]] * pv[la[t]] * pv[lb[t]]
            if w:
                acc[lo[t]] += w
        n = sum(acc)
        if n == 0:
            raise DegenerateStepError("success probability is zero")
        return [a / n for a in acc], n
    pv = np.asarray(pvec, dtype=float)
    fv = np.asarray(fvec, dtype=float)
    raw = np.bincount(OUT, weights=fv[F] * pv[A] * pv[B], minlength=16)
    n = raw.sum()
    if n == 0:
        raise DegenerateStepError("success probability is zero")
    out = raw / n
    return (LabeledEnsembleState(out), float(n)) if wrap else (out, float(n))


def binary_step(p, f0):
    """One round on a binary pair: 4-vector over (Bell amplitude bit j,
    flag bit l) in order (p00, p01, p10, p11), bit-flip noise f0.

    Implements the closed-form update with
    N = (f0^2+f1^2)((p00+p01)^2+(p10+p11)^2) + 4 f0 f1 (p00+p01)(p10+p11);
    equivalent to the general map on the binary support with the conjunctive
    flag update.  Fraction inputs take the exact path.
    """
    exact = _is_exact(p, f0)
    v = list(p) if exact else np.asarray(p, dtype=float)
    f1 = (1 - f0) if exact else 1.0 - float(f0)
    p00, p01, p10, p11 = v[0], v[1], v[2], v[3]
    r00 = (f0 * f0 * (p00 * p00 + 2 * p00 * p01)
           + f1 * f1 * (p11 * p11 + 2 * p10 * p11)
           + 2 * f0 * f1 * (p11 * p00 + p10 * p00 + p11 * p01))
    r01 = f0 * f0 * p01 * p01 + 2 * f0 * f1 * p10 * p01 + f1 * f1 * p10 * p10
    r10 = (f0 * f0 * (p10 * p10 + 2 * p10 * p11)
           + f1 * f1 * (p01 * p01 + 2 * p00 * p01)
           + 2 * f0 * f1 * (p01 * p10 + p00 * p10 + p01 * p11))
    r11 = f0 * f0 * p11 * p11 + 2 * f0 * f1 * p00 * p11 + f1 * f1 * p00 * p00
    if exact:
        n = r00 + r01 + r10 + r11
        if n == 0:
            raise DegenerateStepError("success probability is zero")
        return [r00 / n, r01 / n, r10 / n, r11 / n], n
    raw = np.array([r00, r01, r10, r11])
    n = raw.sum()
    if n == 0:
        raise DegenerateStepError("success probability is zero")
    return raw / n, float(n)


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
    probability when the input is normalized.
    """

    variant: str
    dim: int
    fn: Callable
    params: dict = field(default_factory=dict)

    def __call__(self, p):
        return self.fn(np.asarray(p, dtype=float))


def noiseless_dejmps_map() -> RecurrenceMap:
    return RecurrenceMap("dejmps", 4, lambda p: dejmps_noiseless_step(p))


def noisy_dejmps_map(noise, u: FlagUpdateFunction | None = None) -> RecurrenceMap:
    u = u or default_flag_update()
    return RecurrenceMap("dejmps-noisy", 16,
                         lambda p: dejmps_noisy_step(p, noise, u), {"u": u.name})


def reduced_dejmps_map(noise, u: FlagUpdateFunction | None = None) -> RecurrenceMap:
    """The noisy DEJMPS map restricted to the correlated support
    p_{ijkl} = q_{ij} delta_{(ij),(kl)} -- the four-equations-in-four-unknowns
    reduction.  Under the XOR flag update the support is exactly invariant
    and the returned N equals the full-map success probability; fixed points
    and Jacobian spectra of this map are the ones the stability analysis
    quotes.
    """
    u = u or default_flag_update()

    def fn(q):
        p = np.zeros(16)
        p[CORRELATED_SUPPORT] = q
        out16, n_full = dejmps_noisy_step(p, noise, u)
        raw = out16[CORRELATED_SUPPORT]
        s = raw.sum()
        if s == 0:
            raise DegenerateStepError("no weight remains on the correlated support")
        # out16 is already normalized; s is the kept fraction of it, so the
        # success probability of the reduced step is N_full * s.
        return raw / s, float(n_full * s)

    return RecurrenceMap("dejmps-reduced", 4, fn, {"u": u.name})


def binary_map(f0) -> RecurrenceMap:
    return RecurrenceMap("binary", 4, lambda p: binary_step(p, f0), {"f0": f0})


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

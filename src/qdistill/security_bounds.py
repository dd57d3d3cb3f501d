"""Confidentiality, reduction, and robustness bound arithmetic.

Every function here is pure arithmetic on published bound formulas:
symmetric-subspace reductions, the post-selection chain, leak and
purification lifts, Hoeffding parameter-estimation aborts, and the
two-term abort-probability bound with its per-round Chernoff chain.

Bounds are reported raw: values above 1 are not clamped, they are flagged
as vacuous.  Where inputs admit exact arithmetic (integers, Fractions)
the result stays exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

__all__ = [
    "DEFINETTI_CONSTANT",
    "RobustnessInput",
    "RobustnessResult",
    "PairBudget",
    "symmetric_subspace_dimension",
    "definetti_bound",
    "postselection_bound",
    "postselection_bound_log",
    "leak_bound",
    "localstates_lift",
    "purification_lift",
    "postselection_chain",
    "hoeffding_pe_abort",
    "robustness_bound",
    "robustness_chain_terms",
    "pair_budget",
    "postselect_crossing_gap",
    "bound_report",
]

# 34 * 4**8 + 1, kept as an exact integer.
DEFINETTI_CONSTANT = 34 * 4 ** 8 + 1

_LN2 = math.log(2.0)
_LOG_FLOAT_MAX = math.log(float.fromhex("0x1.fffffffffffffp+1023"))


def symmetric_subspace_dimension(n: int) -> int:
    """C(n+15, n): dimension of the symmetric subspace of n copies of a
    two-pair (16-dimensional) system, exact integer."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return math.comb(n + 15, n)


def definetti_bound(n, k, epsilon_P):
    """(34*4^8 + 1) * (64 k / n + eps_P(k)), with eps_P(k) given as a number.

    Integer/Fraction inputs give an exact Fraction.  eps_P is a trace
    distance, so it must lie in [0, 2].
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if not 0 <= epsilon_P <= 2:
        raise ValueError("epsilon_P must lie in [0, 2]")
    if (isinstance(epsilon_P, (int, Fraction)) and isinstance(n, int)
            and isinstance(k, int)):
        return DEFINETTI_CONSTANT * (Fraction(64 * k, n) + Fraction(epsilon_P))
    return DEFINETTI_CONSTANT * (64.0 * k / n + float(epsilon_P))


def postselection_bound_log(n, epsilon_P) -> float:
    """Natural log of 4*sqrt(2) * C(n+15, n) * eps_P(n)^(1/4); -inf at
    eps_P = 0.  Always finite otherwise (the binomial log is computed on
    the exact integer).  eps_P is a trace distance, so it must lie in
    [0, 2]."""
    if n < 1:
        raise ValueError("n must be >= 1")
    eps = float(epsilon_P)
    if not 0 <= eps <= 2:
        raise ValueError("epsilon_P must lie in [0, 2]")
    if eps == 0:
        return -math.inf
    return (math.log(4.0) + 0.5 * _LN2
            + math.log(symmetric_subspace_dimension(n))
            + 0.25 * math.log(eps))


def postselection_bound(n, epsilon_P) -> float:
    """4*sqrt(2) * C(n+15, n) * eps_P(n)^(1/4).

    Direct product arithmetic for n <= 1e4; beyond that the degree-15
    binomial factor can overflow doubles, so the value is assembled in the
    log domain (inf if it exceeds float range).  eps_P must lie in [0, 2].
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    eps = float(epsilon_P)
    if not 0 <= eps <= 2:
        raise ValueError("epsilon_P must lie in [0, 2]")
    if n > 10_000:
        lv = postselection_bound_log(n, eps)
        if lv == -math.inf:
            return 0.0
        return math.exp(lv) if lv <= _LOG_FLOAT_MAX else math.inf
    return 4.0 * math.sqrt(2.0) * symmetric_subspace_dimension(n) * eps ** 0.25


def leak_bound(epsilon) -> float:
    """2 sqrt(eps): confidentiality degradation from a leaky apparatus."""
    if not 0 <= epsilon < math.inf:
        raise ValueError("epsilon must be finite and nonnegative")
    return 2.0 * math.sqrt(epsilon)


def localstates_lift(epsilon) -> float:
    """4 sqrt(eps): lift from shared-purification closeness to joint-state
    closeness."""
    if not 0 <= epsilon < math.inf:
        raise ValueError("epsilon must be finite and nonnegative")
    return 4.0 * math.sqrt(epsilon)


def purification_lift(epsilon) -> float:
    """sqrt(eps): purifications of eps-close states are sqrt(eps)-close."""
    if not 0 <= epsilon < math.inf:
        raise ValueError("epsilon must be finite and nonnegative")
    return math.sqrt(epsilon)


def postselection_chain(epsilon) -> float:
    """The composed lift localstates_lift(2 * purification_lift(eps)) =
    4 sqrt(2) eps^(1/4), the per-copy factor of the post-selection bound."""
    return localstates_lift(2.0 * purification_lift(epsilon))


def hoeffding_pe_abort(eta, k) -> float:
    """exp(-eta^2 sqrt(k) / 2): probability that honest parameter estimation
    misses by more than eta.

    This is also the default model for the otherwise unspecified
    exp(-O(sqrt(n))) estimation-abort probability; callers may substitute
    their own value wherever one is consumed.
    """
    if not 0 < eta < math.inf:
        raise ValueError("eta must be finite and positive")
    if not 1 <= k < math.inf:
        raise ValueError("k must be finite and >= 1")
    return math.exp(-eta * eta * math.sqrt(k) / 2.0)


@dataclass(frozen=True)
class RobustnessInput:
    """Parameters of the abort-probability bound.

    beta: depolarizing channel parameter; f_min: minimal distillable
    fidelity of the noise regime; k: pairs available after estimation;
    M: target distillation rounds; xi: budget multiplier.

    The budget relation k - sqrt(k) = xi * 2^(2M+2) is reported as a
    consistency flag, not enforced: the bound is meaningful for any k.
    """

    beta: float
    f_min: float
    k: float
    M: int
    xi: float

    def __post_init__(self):
        if not 0 <= self.beta <= 1:
            raise ValueError("beta must lie in [0, 1]")
        if not 0 <= self.f_min <= 1:
            raise ValueError("f_min must lie in [0, 1]")
        if not 1 <= self.k < math.inf:
            raise ValueError("k must be finite and >= 1")
        if not 1 <= self.M < math.inf:
            raise ValueError("M must be finite and >= 1")
        if not 0 < self.xi < math.inf:
            raise ValueError("xi must be finite and positive")

    @property
    def budget_consistent(self) -> bool:
        target = self.xi * 2 ** (2 * self.M + 2)
        return abs(self.k - math.sqrt(self.k) - target) <= max(1.0, 1e-9 * self.k)

    @property
    def margin(self) -> float:
        """3 beta - 4 f_min - 1, the squared quantity in the estimation term.

        Often negative at realistic parameters; the bound still evaluates
        as long as the channel fidelity (3 beta + 1)/4 exceeds f_min.
        """
        return 3.0 * self.beta - 4.0 * self.f_min - 1.0

    @property
    def distillable(self) -> bool:
        return self.beta > (4.0 * self.f_min - 1.0) / 3.0


def robustness_chain_terms(M: int, xi: float) -> tuple:
    """Per-round abort terms exp(-c * 2^(M - 2m - 2)), m = 1..M, with
    c = xi * 2^(M+2); the last term is exactly exp(-xi) and the sum is
    bounded by M * exp(-xi)."""
    c = xi * 2 ** (M + 2)
    return tuple(math.exp(-c * 2.0 ** (M - 2 * m - 2)) for m in range(1, M + 1))


@dataclass(frozen=True)
class RobustnessResult:
    value: float
    margin: float
    chain_terms: tuple
    vacuous: bool
    undistillable: bool
    budget_consistent: bool


def robustness_bound(inp: RobustnessInput) -> RobustnessResult:
    """exp(-(3 beta - 4 f_min - 1)^2 sqrt(k) / 128) + M exp(-xi), plus the
    per-round chain.

    Below the distillability threshold beta <= (4 f_min - 1)/3 estimation
    aborts with certainty and no nontrivial bound exists; the result is the
    trivial value 1 with the undistillable flag set.
    """
    if not inp.distillable:
        return RobustnessResult(1.0, inp.margin, (), True, True,
                                inp.budget_consistent)
    value = (math.exp(-inp.margin ** 2 * math.sqrt(inp.k) / 128.0)
             + inp.M * math.exp(-inp.xi))
    return RobustnessResult(value, inp.margin,
                            robustness_chain_terms(inp.M, inp.xi),
                            value >= 1.0, False, inp.budget_consistent)


@dataclass(frozen=True)
class PairBudget:
    """Pair accounting for an M-round run: c = xi * 2^(M+2), distillation
    pairs c * 2^M, and the total k solving k - sqrt(k) = c * 2^M (quadratic
    in sqrt(k), exact positive branch)."""

    c: float
    distillation_pairs: float
    k_exact: float
    k_ceil: int

    def residual(self) -> float:
        return self.k_exact - math.sqrt(self.k_exact) - self.distillation_pairs


def pair_budget(M: int, xi) -> PairBudget:
    if not 1 <= M < math.inf:
        raise ValueError("M must be finite and >= 1")
    if not 0 < xi < math.inf:
        raise ValueError("xi must be finite and positive")
    c = xi * 2 ** (M + 2)
    pairs = c * 2 ** M
    sqrt_k = (1.0 + math.sqrt(1.0 + 4.0 * pairs)) / 2.0
    k = sqrt_k + pairs  # k = sqrt(k) + pairs, avoiding the squaring error
    return PairBudget(c, pairs, k, math.ceil(k))


def postselect_crossing_gap(lambda_abs) -> float:
    """Exponent margin (in bits per halving) by which a per-round
    contraction |lambda| beats the post-selection polynomial.

    eps_P after n rounds on N = 2^n pairs scales as N^(log2|lambda|), so
    the N^15 eps_P^(1/4) bound decreases iff -log2|lambda|/4 > 15.  Returns
    -log2|lambda|/4 - 15: positive means the bound is eventually
    nontrivial.  Decimal input is honored (needed when 1 - |lambda|
    underflows doubles).
    """
    if isinstance(lambda_abs, Decimal):
        with localcontext() as ctx:
            ctx.prec = 50
            lam = abs(lambda_abs)
            if lam == 0:
                return math.inf
            if lam >= 1:
                raise ValueError("need |lambda| < 1")
            log2lam = lam.ln() / Decimal(2).ln()
            return float(-log2lam / 4 - 15)
    lam = abs(float(lambda_abs))
    if lam == 0:
        return math.inf
    if lam >= 1:
        raise ValueError("need |lambda| < 1")
    return -math.log2(lam) / 4.0 - 15.0


def bound_report(bound_name: str, inputs: dict, value, chain_terms=()) -> dict:
    """JSON-ready record {bound_name, inputs, value, vacuous_flag,
    chain_terms}; the vacuous flag marks values >= 1 (trivially true for a
    probability / trace-distance bound)."""
    v = float(value)
    return {
        "bound_name": bound_name,
        "inputs": inputs,
        "value": v,
        "vacuous_flag": bool(v >= 1.0),
        "chain_terms": [float(t) for t in chain_terms],
    }

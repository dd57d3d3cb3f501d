"""Confidentiality/abort bound arithmetic.

Reference numbers were computed with exact rational or high-precision
arithmetic before being frozen into assertions.
"""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import qdistill.security_bounds as sb
from qdistill.quantum_core import trace_norm

from conftest import ginibre_density, partial_trace


def test_definetti_constant_exact():
    assert sb.DEFINETTI_CONSTANT == 34 * 4 ** 8 + 1 == 2228225


def test_symmetric_subspace_dimension_small_values():
    # dimension of the symmetric subspace of n copies of a 16-dim system
    assert sb.symmetric_subspace_dimension(1) == 16
    assert sb.symmetric_subspace_dimension(2) == 136
    assert sb.symmetric_subspace_dimension(4) == 3876


@given(st.integers(1, 1000))
def test_symmetric_subspace_dimension_multiplicative_oracle(n):
    prod = Fraction(1)
    for i in range(1, 16):
        prod *= Fraction(n + i, i)
    assert sb.symmetric_subspace_dimension(n) == prod


# ------------------------------------------------------------------ definetti

def test_definetti_bound_exact_fraction():
    val = sb.definetti_bound(10 ** 6, 10 ** 3, Fraction(1, 10000))
    assert val == Fraction(57131689, 400)
    # closed form: (34*4^8+1) * (64 k / n + eps)
    assert val == sb.DEFINETTI_CONSTANT * (
        Fraction(64 * 10 ** 3, 10 ** 6) + Fraction(1, 10000))


@given(st.integers(1, 10 ** 6), st.floats(0, 1e-3))
def test_definetti_bound_monotone_in_k(n, eps):
    k1 = max(1, n // 4)
    k2 = max(1, n // 2)
    b1 = sb.definetti_bound(n, k1, eps)
    b2 = sb.definetti_bound(n, k2, eps)
    assert b1 <= b2 + 1e-12


def test_definetti_input_validation():
    with pytest.raises(ValueError):
        sb.definetti_bound(10, 11, 0.0)      # k > n
    with pytest.raises(ValueError):
        sb.definetti_bound(10, 0, 0.0)       # k < 1
    with pytest.raises(ValueError):
        sb.definetti_bound(10, 1, 2.5)       # trace distance above 2
    with pytest.raises(ValueError):
        sb.definetti_bound(10, 1, -0.1)


# --------------------------------------------------------------- postselection

def test_postselection_direct_and_log_agree():
    for n in (10, 100, 9_999):
        eps = 1e-12
        direct = sb.postselection_bound(n, eps)
        logv = sb.postselection_bound_log(n, eps)
        assert math.log(direct) == pytest.approx(logv, rel=1e-12)


def test_postselection_log_domain_large_n():
    # beyond the direct-product range the value is assembled from logs;
    # lgamma is an independent (slightly less accurate) oracle
    logv = sb.postselection_bound_log(10 ** 8, 1e-40)
    expect = (math.log(4) + 0.5 * math.log(2)
              + math.lgamma(10 ** 8 + 16) - math.lgamma(10 ** 8 + 1)
              - math.lgamma(16) + 0.25 * math.log(1e-40))
    assert logv == pytest.approx(expect, rel=1e-6)
    assert sb.postselection_bound(10 ** 8, 1e-40) == pytest.approx(
        math.exp(logv), rel=1e-12)
    # the degree-15 binomial eventually overflows even the log-domain exp
    assert sb.postselection_bound(10 ** 22, 1.0) == math.inf


def test_postselection_zero_epsilon():
    assert sb.postselection_bound(100, 0.0) == 0.0
    assert sb.postselection_bound_log(100, 0.0) == -math.inf


@pytest.mark.parametrize("bound", [sb.postselection_bound,
                                   sb.postselection_bound_log])
def test_postselection_rejects_trace_distance_outside_zero_two(bound):
    # eps_P is a trace distance
    for eps in (2.5, -0.1, math.nan):
        with pytest.raises(ValueError, match=r"\[0, 2\]"):
            bound(100, eps)
    with pytest.raises(ValueError, match=r"\[0, 2\]"):
        bound(20_000, 2.5)                   # the log-domain branch too
    assert math.isfinite(bound(100, 2.0))


# --------------------------------------------------------------------- lifts

@given(st.floats(0, 1))
def test_lift_factors(eps):
    assert sb.leak_bound(eps) == pytest.approx(2 * math.sqrt(eps))
    assert sb.localstates_lift(eps) == pytest.approx(4 * math.sqrt(eps))
    assert sb.purification_lift(eps) == pytest.approx(math.sqrt(eps))


@pytest.mark.parametrize("lift", [sb.leak_bound, sb.localstates_lift,
                                  sb.purification_lift, sb.postselection_chain])
@pytest.mark.parametrize("eps", [math.nan, math.inf, -1e-3])
def test_lifts_reject_non_finite_or_negative_epsilon(lift, eps):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        lift(eps)


def _psd_sqrt(mat):
    w, v = np.linalg.eigh(mat)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def closest_purifications(rho, sigma):
    """Purifications vec(sqrt(.)) of rho and sigma on system ⊗ ancilla,
    sigma's ancilla rotated by the SVD-optimal unitary so that |<psi|phi>|
    is the Uhlmann fidelity."""
    ra, rb = _psd_sqrt(rho), _psd_sqrt(sigma)
    v, _, wh = np.linalg.svd(ra @ rb)
    u_t = wh.conj().T @ v.conj().T  # maximizes Re tr(ra rb U^T)
    return ra.reshape(-1), (rb @ u_t).reshape(-1)


@given(st.floats(1e-6, 0.05))
def test_close_states_have_close_purifications(eps):
    # The purification lift, realized: states d apart in trace norm have
    # purifications within 2 * purification_lift(d) of each other.
    rng = np.random.default_rng(1234)
    rho = ginibre_density(rng, 4)
    pert = ginibre_density(rng, 4)
    sigma = (1 - eps / 2) * rho + (eps / 2) * pert
    d = trace_norm(rho, sigma)
    assert d <= eps + 1e-12
    psi, phi = closest_purifications(rho, sigma)
    for vec, state in ((psi, rho), (phi, sigma)):
        marginal = partial_trace(np.outer(vec, vec.conj()), [0], [4, 4])
        assert np.abs(marginal - state).max() < 1e-12
    lhs = trace_norm(np.outer(psi, psi.conj()), np.outer(phi, phi.conj()))
    assert lhs <= 2 * sb.purification_lift(d) + 1e-8


def test_postselection_chain_reference():
    # 4 sqrt(2) eps^(1/4) at eps = 1e-8
    val = sb.postselection_chain(1e-8)
    assert val == pytest.approx(0.0565685424949238, abs=1e-15)
    assert val == sb.localstates_lift(2 * sb.purification_lift(1e-8))


@given(st.floats(1e-30, 1.0))
def test_postselection_chain_closed_form(eps):
    assert sb.postselection_chain(eps) == pytest.approx(
        4 * math.sqrt(2) * eps ** 0.25, rel=1e-14)


# ------------------------------------------------------------------ hoeffding

def test_hoeffding_pe_abort_reference():
    assert sb.hoeffding_pe_abort(0.05, 160000) == pytest.approx(
        math.exp(-0.5), abs=1e-15)
    assert sb.hoeffding_pe_abort(0.05, 160000) == pytest.approx(
        0.6065306597126333, abs=1e-15)


@given(st.floats(0.001, 0.5), st.integers(100, 10 ** 8))
def test_hoeffding_pe_abort_decreases_with_k(eta, k):
    assert sb.hoeffding_pe_abort(eta, 4 * k) <= sb.hoeffding_pe_abort(eta, k)


@pytest.mark.parametrize("eta,k", [(math.nan, 100), (math.inf, 100),
                                   (0.1, math.nan), (0.1, math.inf)])
def test_hoeffding_pe_abort_rejects_non_finite_inputs(eta, k):
    with pytest.raises(ValueError, match="must be finite"):
        sb.hoeffding_pe_abort(eta, k)


# ----------------------------------------------------------------- robustness

def test_robustness_bound_reference():
    inp = sb.RobustnessInput(0.98, 0.52, 10 ** 6, 5, 20)
    res = sb.robustness_bound(inp)
    assert res.value == pytest.approx(0.8580224726057945, abs=1e-14)
    assert not res.vacuous
    assert not res.undistillable
    assert res.margin == pytest.approx(3 * 0.98 - 4 * 0.52 - 1, abs=1e-15)
    assert res.chain_terms[-1] == math.exp(-20)


def test_robustness_chain_terms_reference():
    terms = sb.robustness_chain_terms(4, 7.0)
    expect = (2.7294309215942424e-195, 2.2856936767186716e-49,
              6.914400106940203e-13, 0.0009118819655545162)
    for t, e in zip(terms, expect):
        assert t == pytest.approx(e, rel=1e-12)
    # the final hybrid-argument term is always exp(-xi)
    assert sb.robustness_chain_terms(6, 3.5)[-1] == math.exp(-3.5)


def test_robustness_undistillable_channel_is_flagged_not_fatal():
    # beta at or below (4 F_min - 1)/3 means no distillable entanglement:
    # the bound is vacuous but must still evaluate
    inp = sb.RobustnessInput(0.3, 0.52, 10 ** 6, 5, 20)
    res = sb.robustness_bound(inp)
    assert res.undistillable
    assert res.vacuous
    assert res.value == 1.0
    assert res.chain_terms == ()


def test_robustness_negative_margin_still_evaluates():
    # distillable but below the proof margin: value may exceed 1 (vacuous)
    inp = sb.RobustnessInput(0.95, 0.5239929919377719, 16384, 4, 15.875)
    res = sb.robustness_bound(inp)
    assert res.margin < 0
    assert not res.undistillable
    assert 0 < res.value


def test_robustness_budget_consistency():
    # k - sqrt(k) = xi * 2^(2M+2) exactly at k = 2^14, M = 4, xi = 15.875
    inp = sb.RobustnessInput(0.95, 0.52, 16384, 4, 15.875)
    assert inp.budget_consistent
    off = sb.RobustnessInput(0.95, 0.52, 16384, 4, 14.0)
    assert not off.budget_consistent


def test_robustness_input_validation():
    with pytest.raises(ValueError):
        sb.RobustnessInput(1.2, 0.5, 100, 2, 1.0)    # beta out of range
    with pytest.raises(ValueError):
        sb.RobustnessInput(0.9, 0.5, 0, 2, 1.0)      # k < 1
    with pytest.raises(ValueError):
        sb.RobustnessInput(0.9, 0.5, 100, 0, 1.0)    # no rounds
    with pytest.raises(ValueError):
        sb.RobustnessInput(0.9, 0.5, 100, 2, -1.0)   # negative xi


@pytest.mark.parametrize("field,value", [
    ("k", math.nan), ("k", math.inf), ("M", math.nan), ("M", math.inf),
    ("xi", math.nan), ("xi", math.inf)])
def test_robustness_input_rejects_non_finite_values(field, value):
    args = dict(beta=0.9, f_min=0.5, k=100, M=2, xi=1.0)
    args[field] = value
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        sb.RobustnessInput(**args)


@pytest.mark.parametrize("M,xi", [(math.nan, 1.0), (math.inf, 1.0),
                                  (2, math.nan), (2, math.inf)])
def test_pair_budget_rejects_non_finite_values(M, xi):
    with pytest.raises(ValueError, match="must be finite"):
        sb.pair_budget(M, xi)


# ---------------------------------------------------------------- pair budget

def test_pair_budget_reference():
    b = sb.pair_budget(3, 5)
    assert b.c == 160.0
    assert b.distillation_pairs == 1280.0
    assert b.k_exact == pytest.approx(1316.2805813256298, abs=1e-10)
    assert b.k_ceil == 1317
    assert abs(b.residual()) < 1e-9


@given(st.integers(1, 12), st.floats(0.5, 100))
def test_pair_budget_solves_consistency_equation(m, xi):
    b = sb.pair_budget(m, xi)
    # k - sqrt(k) returns the distillation-pair budget
    assert b.k_exact - math.sqrt(b.k_exact) == pytest.approx(
        b.distillation_pairs, rel=1e-12)
    assert b.k_ceil >= b.k_exact > b.k_ceil - 1


# ---------------------------------------------------------------- crossing gap

def test_crossing_gap_float_path():
    # -log2(lam)/4 - 15 bits
    assert sb.postselect_crossing_gap(0.25) == pytest.approx(-14.5)
    assert sb.postselect_crossing_gap(0.0) == math.inf


def test_crossing_gap_decimal_reference():
    import qdistill.fixed_point as fp
    lam19 = abs(fp.binary_lambda_max(Decimal(1) - Decimal(10) ** -19))
    lam18 = abs(fp.binary_lambda_max(Decimal(1) - Decimal(10) ** -18))
    assert sb.postselect_crossing_gap(lam19) == pytest.approx(
        0.5291584507149711, abs=1e-12)
    assert sb.postselect_crossing_gap(lam18) == pytest.approx(
        -0.30132357300686946, abs=1e-12)
    # the sign flips between 1e-18 and 1e-19: the crossing sits between


def test_crossing_gap_rejects_expanding_rates():
    with pytest.raises(ValueError):
        sb.postselect_crossing_gap(1.5)
    with pytest.raises(ValueError):
        sb.postselect_crossing_gap(Decimal("1.5"))


# --------------------------------------------------------------------- report

def test_bound_report_shape():
    rep = sb.bound_report("leak", {"epsilon": 1e-8}, sb.leak_bound(1e-8))
    assert set(rep) == {"bound_name", "inputs", "value", "vacuous_flag",
                        "chain_terms"}
    assert rep["bound_name"] == "leak"
    assert rep["vacuous_flag"] is False
    big = sb.bound_report("postselection", {"n": 10}, 2.5)
    assert big["vacuous_flag"] is True

"""Fixed-point solvers, closed forms, and local stability estimates.

Closed-form reference values below were computed independently (exact
algebra or high-precision arithmetic) before being frozen here.
"""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import qdistill.fixed_point as fp
import qdistill.noise_models as nm
import qdistill.recurrence as rc

from conftest import plain_fixed_point


# ------------------------------------------------------------ binary closed

def test_binary_fixed_point_reference_value():
    # p00 = 1/2 + sqrt(4 f0 - 3) / (4 f0 - 2) at f0 = 0.9
    q = fp.binary_fixed_point(0.9)
    assert q.shape == (4,)
    assert q[0] == pytest.approx(0.9841229182759271, abs=1e-15)
    assert q[1] == q[2] == 0.0
    assert q[0] + q[3] == pytest.approx(1.0, abs=1e-15)


def test_binary_fixed_point_domain():
    with pytest.raises(ValueError):
        fp.binary_fixed_point(0.7)


@given(st.floats(0.7501, 1.0))
def test_binary_fixed_point_is_fixed(f0):
    q = fp.binary_fixed_point(f0)
    out, _ = rc.binary_map(f0)(q)
    assert np.abs(np.asarray(out) - q).max() < 1e-12


def test_binary_lambda_max_reference_values():
    assert fp.binary_lambda_max(0.9) == pytest.approx(
        -0.2535787471033311, abs=1e-15)
    # the boundary of the attraction criterion: |lambda| = 3/2 at f0 = 3/4
    assert fp.binary_lambda_max(0.75) == pytest.approx(-1.5, abs=1e-12)


def test_binary_lambda_max_decimal_path():
    lam = fp.binary_lambda_max(Decimal("0.9"))
    assert isinstance(lam, Decimal)
    assert float(lam) == pytest.approx(-0.2535787471033311, abs=1e-15)
    # tiny-gap regime that underflows double precision inputs
    lam19 = fp.binary_lambda_max(Decimal(1) - Decimal(10) ** -19)
    assert lam19 < 0
    assert Decimal("1.9e-19") < -lam19 < Decimal("2.1e-19")


@pytest.mark.parametrize("f0", [1.5, 1 + 2 ** -52, math.inf, math.nan,
                                Decimal("1.0000000000000000001"), Decimal(2),
                                Decimal("Infinity"), Decimal("NaN"),
                                Decimal("sNaN")], ids=str)
def test_binary_lambda_max_rejects_weights_above_one(f0):
    # f0 is a bit-flip weight; both paths once returned a value above 1
    # (the Decimal path raised InvalidOperation on NaN instead)
    with pytest.raises(ValueError, match="finite and at most 1"):
        fp.binary_lambda_max(f0)
    assert fp.binary_lambda_max(1.0) == 0.0
    assert fp.binary_lambda_max(Decimal(1)) == 0


@pytest.mark.parametrize("closed_form", [
    fp.binary_fixed_point, fp.bbpssw_fixed_point, fp.bbpssw_fixed_point_slope,
    fp.bbpssw_two_qubit_fixed_points], ids=lambda f: f.__name__)
@pytest.mark.parametrize("weight", [1.5, 1 + 2 ** -52, math.inf, -math.inf,
                                    math.nan], ids=str)
def test_closed_forms_reject_weights_above_one(closed_form, weight):
    # each once returned a value for a noise weight above 1 (bbpssw 1.333
    # and slope 0.2 at 1.5, F_max 1.362 at 1.5) or NaN for NaN
    with pytest.raises(ValueError, match="finite and at most 1"):
        closed_form(weight)
    closed_form(1.0)


@pytest.mark.parametrize("closed_form", [
    fp.bbpssw_fixed_point, fp.bbpssw_fixed_point_slope,
    fp.bbpssw_two_qubit_fixed_points], ids=lambda f: f.__name__)
@pytest.mark.parametrize("weight", [0.0, -0.0, -1.0, -3.0], ids=str)
def test_bbpssw_closed_forms_reject_weights_at_most_zero(closed_form, weight):
    # 0 once divided by zero; -3 gave a fixed point 1.0 and slope 0.4, and
    # -1 the two-qubit pair (0.5, 1.0)
    with pytest.raises(ValueError, match="domain|no distillation"):
        closed_form(weight)


@given(st.floats(0.78, 1.0))
def test_binary_lambda_matches_finite_difference(f0):
    lam = fp.binary_lambda_max(f0)
    q = fp.binary_fixed_point(f0)
    rad = fp.jacobian_spectral_radius(rc.binary_map(f0), q)
    assert rad == pytest.approx(abs(lam), abs=1e-6)


# ------------------------------------------------------------ bbpssw closed

def test_bbpssw_fixed_point_reference():
    assert fp.bbpssw_fixed_point(0.99) == pytest.approx(
        0.9789823198735413, abs=1e-15)
    assert fp.bbpssw_fixed_point(1.0) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        fp.bbpssw_fixed_point(0.9)     # radicand negative


@given(st.floats(0.965, 1.0))
def test_bbpssw_fixed_point_is_fixed(f):
    q = fp.bbpssw_fixed_point(f)
    (out,), _ = rc.bbpssw_map(f)([q])
    assert out == pytest.approx(q, abs=1e-12)


def test_bbpssw_slope_reference():
    assert fp.bbpssw_fixed_point_slope(1.0) == pytest.approx(
        2 / 3, abs=1e-15)


@given(st.floats(0.97, 1.0))
def test_bbpssw_slope_matches_exact_jacobian(f):
    slope = fp.bbpssw_fixed_point_slope(f)
    q = np.array([fp.bbpssw_fixed_point(f)])
    rad = fp.jacobian_spectral_radius(rc.bbpssw_map(f), q)
    assert rad == pytest.approx(abs(slope), abs=1e-14)


def test_bbpssw_two_qubit_fixed_points():
    lo, hi = fp.bbpssw_two_qubit_fixed_points(0.95)
    assert lo == pytest.approx(0.7083910834188376, abs=1e-15)
    assert hi == pytest.approx(0.7916089165811624, abs=1e-15)
    assert fp.bbpssw_two_qubit_fixed_points(1.0) == (0.5, 1.0)
    with pytest.raises(ValueError):
        fp.bbpssw_two_qubit_fixed_points(0.94)   # below 3/sqrt(10)


# ---------------------------------------------------------------- worstcase

def test_worstcase_fixed_points_reference():
    roots = fp.worstcase_fixed_points(0.97)
    assert np.allclose(roots, [0.21618681, 0.66719655, 0.86661664],
                       atol=1e-8)
    # every root really is fixed under the one-round map
    for r in roots:
        (out,), _ = rc.worstcase_map(0.97)([r])
        assert out == pytest.approx(r, abs=1e-10)


def test_worstcase_fixed_points_ideal_noise():
    roots = fp.worstcase_fixed_points(1.0)
    assert np.allclose(sorted(roots), [0.25, 0.5, 1.0], atol=1e-10)


def test_worstcase_discriminant_exact_at_one():
    assert fp.worstcase_discriminant(Fraction(1)) == 36


def test_worstcase_discriminant_changes_sign_at_critical():
    assert fp.worstcase_discriminant(0.96) < 0
    assert fp.worstcase_discriminant(0.97) > 0


def test_critical_noise_reference():
    fc = fp.critical_noise()
    assert fc == pytest.approx(0.9640615849807093, abs=1e-10)
    assert 0.9640 <= fc <= 0.9642


# ----------------------------------------------------- generic iteration

def test_iterate_to_fixed_point_report_fields():
    rep = fp.iterate_to_fixed_point(
        rc.binary_map(0.9), np.array([0.95, 0.0, 0.0, 0.05]))
    assert rep.converged
    assert rep.attracting is True
    assert rep.location[0] == pytest.approx(0.9841229182759271, abs=1e-11)
    assert rep.residual < 1e-12
    assert rep.lambda_max == pytest.approx(0.2535787471033311, abs=1e-6)
    assert rep.iterations_used > 0


def test_iterate_to_fixed_point_nonconvergence_report():
    rep = fp.iterate_to_fixed_point(
        rc.binary_map(0.9), np.array([0.95, 0.0, 0.0, 0.05]), maxiter=2)
    assert not rep.converged
    assert rep.attracting is None
    assert rep.lambda_max is None


@pytest.mark.parametrize("kw", [dict(tol=float("nan")), dict(tol=float("inf")),
                                dict(tol=0.0), dict(maxiter=0),
                                dict(maxiter=-1)])
def test_iterate_to_fixed_point_rejects_bad_tol_and_maxiter(kw):
    with pytest.raises(ValueError):
        fp.iterate_to_fixed_point(
            rc.binary_map(0.9), np.array([0.95, 0.0, 0.0, 0.05]), **kw)


def test_nonconvergence_error_is_runtime_error():
    assert issubclass(fp.NonConvergenceError, RuntimeError)


def test_jacobian_radius_rejects_non_fixed_point():
    with pytest.raises(ValueError):
        fp.jacobian_spectral_radius(
            rc.binary_map(0.9), np.array([0.7, 0.0, 0.0, 0.3]))


@pytest.mark.parametrize("rmap,p", [
    (rc.reduced_dejmps_map(nm.distribution_from(nm.SingleQubitWhiteNoise(0.99))),
     fp.DEJMPS_START),
    (rc.bbpssw_map(0.97), [0.75]),
], ids=["reduced", "bbpssw"])
def test_jacobian_radius_rejects_non_fixed_point_of_each_kind(rmap, p):
    with pytest.raises(ValueError, match="residual"):
        fp.jacobian_spectral_radius(rmap, np.array(p))


def test_iterate_reports_newton_steps():
    rep = fp.iterate_to_fixed_point(
        rc.binary_map(0.9), np.array([0.95, 0.0, 0.0, 0.05]))
    assert 0 < rep.newton_steps < rep.iterations_used
    scalar = fp.iterate_to_fixed_point(
        rc.bbpssw_map(0.97), np.array([0.75]))
    assert scalar.converged and 0 < scalar.newton_steps < scalar.iterations_used


def _plain_steps_to_polish(rmap, p0):
    """(map evaluations, trigger) of plain iteration until the loop starts
    its polish: a step below NEWTON_START ("close"), or a step below
    NEWTON_SLOW that is more than half the step before ("slow")."""
    q = np.asarray(p0, dtype=float)
    prev = math.inf
    for step in range(1, 100000):
        g, _ = rmap(q)
        diff = np.abs(g - q).sum()
        if diff < fp.NEWTON_START:
            return step, "close"
        if prev / 2 < diff < fp.NEWTON_SLOW:
            return step, "slow"
        prev, q = diff, g
    raise AssertionError("plain iteration never started the polish")


def test_maxiter_too_small_for_the_polish_is_not_converged():
    # Near the white-noise fold plain iteration is slow; at 0.99 it halves
    # its step each time and reaches NEWTON_START: both triggers are held.
    for value, trigger in [(0.9002, "slow"), (0.99, "close")]:
        rmap = rc.reduced_dejmps_map(
            nm.distribution_from(nm.SingleQubitWhiteNoise(value)))
        start, how = _plain_steps_to_polish(rmap, fp.DEJMPS_START)
        assert how == trigger
        rep = fp.iterate_to_fixed_point(rmap, fp.DEJMPS_START,
                                        maxiter=start + 1)
        assert rep.attracting is None
        assert rep.lambda_max is None
        assert rep.iterations_used == start + 1
        full = fp.iterate_to_fixed_point(rmap, fp.DEJMPS_START)
        assert full.attracting is True
        assert full.iterations_used == start + full.newton_steps
        assert 0 < full.newton_steps <= 20


# ------------------------------------------------- reduced noisy fixed point

REDUCED_CASES = [
    # (model, q00, spectral radius)
    (nm.SingleQubitWhiteNoise(1 - 1e-2), 0.9929341423481515, 0.146330620788),
    (nm.SingleQubitWhiteNoise(1 - 1e-3), None, 0.039691988688),
    (nm.SingleQubitWhiteNoise(1 - 1e-4), None, 0.011874249685),
    (nm.TwoQubitCorrelatedNoise(0.85), 0.842993379964, 0.745199905733),
    (nm.TwoQubitCorrelatedNoise(0.90), 0.917969992545, 0.499059517239),
    (nm.TwoQubitCorrelatedNoise(0.99), 0.993611674119, 0.113103900495),
]


@pytest.mark.parametrize("model,q00,radius", REDUCED_CASES)
def test_reduced_noisy_fixed_point_reference(model, q00, radius):
    dist = nm.distribution_from(model)
    report = fp.reduced_noisy_dejmps_fixed_point(dist)
    if q00 is not None:
        assert report.location[0] == pytest.approx(q00, abs=1e-10)
    rad = fp.jacobian_spectral_radius(rc.reduced_dejmps_map(dist),
                                      report.location)
    assert report.lambda_max == rad
    assert rad == pytest.approx(radius, abs=1e-9)
    assert rad < 1.0
    assert report.attracting is True


@pytest.mark.parametrize("kind,lo", [("white", 0.75), ("corr2", 0.70)])
def test_polished_solve_matches_plain_iteration(kind, lo):
    for value in np.linspace(lo, 1.0, 201):
        dist = nm.distribution_from(nm.noise_from_config(
            {"kind": kind, "parameter": float(value)}))
        q = fp.reduced_noisy_dejmps_fixed_point(dist).location
        ref = plain_fixed_point(rc.reduced_dejmps_map(dist))
        assert np.abs(q - ref).sum() < 1e-10, (kind, value)


def test_maximally_mixed_basin_fixed_point():
    dist = nm.distribution_from(nm.SingleQubitWhiteNoise(0.88))
    q = fp.reduced_noisy_dejmps_fixed_point(dist).location
    assert np.abs(q - 0.25).max() < 1e-12
    rad = fp.jacobian_spectral_radius(rc.reduced_dejmps_map(dist), q)
    assert rad < 1e-7


def test_full_map_transverse_direction_is_expanding():
    # The 16-dim map linearized at the correlated fixed point has spectral
    # radius 2: flag-conditional perturbations grow, only the Bell marginal
    # contracts.  This pins why stability claims quote the reduced map.
    dist = nm.distribution_from(nm.SingleQubitWhiteNoise(0.99))
    q = fp.reduced_noisy_dejmps_fixed_point(dist).location
    p16 = np.zeros(16)
    for pos, (i, j) in enumerate(((0, 0), (1, 1), (0, 1), (1, 0))):
        p16[((i * 2 + j) * 2 + i) * 2 + j] = q[pos]
    rad = fp.jacobian_spectral_radius(rc.noisy_dejmps_map(dist), p16)
    assert rad == pytest.approx(2.0, abs=1e-5)


# ------------------------------------------------------------ rate fitting

def test_convergence_exponent_binary():
    fit = fp.convergence_exponent(
        rc.binary_map(0.9), np.array([0.95, 0.0, 0.0, 0.05]), rounds=40,
        p_fix=fp.binary_fixed_point(0.9))
    lam = abs(fp.binary_lambda_max(0.9))
    assert fit.slope == pytest.approx(np.log(lam), rel=0.02)
    assert fit.r_squared > 0.999
    assert fit.n_used >= 10


def test_convergence_exponent_requires_enough_rounds():
    with pytest.raises(ValueError):
        fp.convergence_exponent(
            rc.binary_map(0.9), np.array([0.95, 0.0, 0.0, 0.05]), rounds=4,
            p_fix=fp.binary_fixed_point(0.9))

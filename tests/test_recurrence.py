"""Single-round maps: 4-dim noiseless, 16-dim noisy, binary and Werner
variants, plus the correlated-support reduction used by the stability
analysis."""

from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
import sympy
from hypothesis import given, strategies as st

import qdistill.noise_models as nm
import qdistill.recurrence as rc
from qdistill.quantum_core import (
    BELL_ORDER,
    CORRELATED_SUPPORT,
    BellDiagonalState,
    LabeledEnsembleState,
)

from test_loop_references import loop_step

WHITE98 = nm.distribution_from(nm.SingleQubitWhiteNoise(0.98))
NOISELESS = rc.noiseless_dejmps_map()

probs4 = st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4).map(
    lambda v: np.array(v) / sum(v))


# ------------------------------------------------------------- noiseless step

def test_noiseless_step_werner_three_quarters_exact():
    p = [Fraction(3, 4)] + [Fraction(1, 12)] * 3
    out, n = NOISELESS(p)
    assert out.tolist() == [Fraction(41, 52), Fraction(1, 52),
                            Fraction(1, 52), Fraction(9, 52)]
    assert n == Fraction(13, 18)


def test_noiseless_step_float_matches_exact():
    p = [Fraction(3, 4)] + [Fraction(1, 12)] * 3
    exact, n_exact = NOISELESS(p)
    approx, n_float = NOISELESS([float(x) for x in p])
    assert np.allclose(approx, [float(x) for x in exact], atol=1e-15)
    assert n_float == pytest.approx(float(n_exact), abs=1e-15)


@given(probs4)
def test_noiseless_step_output_is_distribution(p):
    out, n = NOISELESS(p)
    assert np.all(np.asarray(out) >= 0)
    assert np.sum(out) == pytest.approx(1.0, abs=1e-12)
    # success probability (a^2 + b^2 with a + b = 1) is always in [1/2, 1]
    assert 0.5 - 1e-12 <= n <= 1.0 + 1e-12


@given(st.floats(0.51, 0.999))
def test_noiseless_step_improves_werner_fidelity(f):
    out, _ = NOISELESS(BellDiagonalState.werner(f).p)
    assert out[0] > f


# ----------------------------------------------------------------- noisy step

def test_noisy_step_reduces_to_noiseless_at_unit_fidelity(rng):
    ideal = rc.noisy_dejmps_map(
        nm.distribution_from(nm.SingleQubitWhiteNoise(1.0)))
    for _ in range(20):
        q = rng.random(4)
        q /= q.sum()
        s = LabeledEnsembleState.from_bell_diagonal(
            BellDiagonalState(q), flags="correlated")
        full, n_full = ideal(s.p)
        marg = LabeledEnsembleState(full).bell_marginal().p
        clean, n_clean = NOISELESS(q)
        assert np.abs(marg - np.asarray(clean)).max() < 1e-14
        assert n_full == pytest.approx(n_clean, abs=1e-14)


def test_noisy_step_preserves_correlated_support(rng):
    step = rc.noisy_dejmps_map(WHITE98)
    for _ in range(20):
        q = rng.random(4)
        q /= q.sum()
        s = LabeledEnsembleState.from_bell_diagonal(
            BellDiagonalState(q), flags="correlated")
        full, _ = step(s.p)
        assert LabeledEnsembleState(full).cross_mass() == 0.0


OFF_SUPPORT = np.setdiff1d(np.arange(16), CORRELATED_SUPPORT)


@pytest.mark.parametrize("noise", [
    [1] + [0] * 15, [Fraction(31, 32)] + [Fraction(1, 480)] * 15],
    ids=["noiseless", "noisy"])
def test_xor_map_keeps_correlated_support_exactly(noise):
    # Cross mass == 0 in Fractions, round after round, under noise on every
    # label: the support invariance that criterion 5 observes in floats.
    step = rc.noisy_dejmps_map(noise)
    p = np.zeros(16, dtype=object)
    p[CORRELATED_SUPPORT] = [Fraction(6, 10), Fraction(2, 10),
                             Fraction(1, 10), Fraction(1, 10)]
    for _ in range(3):
        p, n = step(p)
        assert isinstance(n, Fraction) and sum(p.tolist()) == 1
        assert sum(p[OFF_SUPPORT].tolist()) == 0


def test_zero_flag_start_converges_to_uniform_flags():
    # From a fresh (all-zero) demon register the iteration does not return
    # to the correlated support: the limit is (reduced fixed point) x
    # (uniform flags), with cross mass exactly 3/4.  The Bell marginal is
    # autonomous, so it still lands on the reduced fixed point.
    import qdistill.fixed_point as fp

    dist = nm.distribution_from(nm.SingleQubitWhiteNoise(0.99))
    p = LabeledEnsembleState.from_bell_diagonal(
        BellDiagonalState.werner(0.9), flags="zero").p
    for p, _ in rc.trajectory(rc.noisy_dejmps_map(dist), p, 60):
        pass
    s = LabeledEnsembleState(p)
    assert s.cross_mass() == pytest.approx(0.75, abs=1e-12)
    target = fp.reduced_noisy_dejmps_fixed_point(dist).location
    assert np.abs(s.bell_marginal().p - target).max() < 1e-12
    grid = np.asarray(p).reshape(4, 4)
    assert np.abs(grid - grid.sum(axis=1, keepdims=True) / 4).max() < 1e-15


def test_bell_marginal_is_autonomous_under_default_flags(rng):
    # two ensembles with the same Bell marginal but different flag
    # conditionals produce the same output marginal
    step = rc.noisy_dejmps_map(WHITE98)
    for _ in range(10):
        q = rng.random(4)
        q /= q.sum()
        a = np.zeros(16)
        b = np.zeros(16)
        for pos, (i, j) in enumerate(BELL_ORDER):
            wa = rng.random(4)
            wa /= wa.sum()
            wb = rng.random(4)
            wb /= wb.sum()
            for t, (k, l) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
                a[LabeledEnsembleState.index(i, j, k, l)] = q[pos] * wa[t]
                b[LabeledEnsembleState.index(i, j, k, l)] = q[pos] * wb[t]
        fa, na = step(a)
        fb, nb = step(b)
        ma = LabeledEnsembleState(fa).bell_marginal().p
        mb = LabeledEnsembleState(fb).bell_marginal().p
        assert np.abs(ma - mb).max() < 1e-14
        assert na == pytest.approx(nb, abs=1e-14)


def test_reduced_map_matches_embedded_marginal(rng):
    red = rc.reduced_dejmps_map(WHITE98)
    full_map = rc.noisy_dejmps_map(WHITE98)
    for _ in range(100):
        q = rng.random(4)
        q /= q.sum()
        s = LabeledEnsembleState.from_bell_diagonal(
            BellDiagonalState(q), flags="correlated")
        full, n_full = full_map(s.p)
        marg = LabeledEnsembleState(full).bell_marginal().p
        r, n_red = red(q)
        assert np.abs(marg - r).max() < 1e-14
        assert n_red == pytest.approx(n_full, abs=1e-14)


def test_noisy_step_zero_noise_vector_is_degenerate():
    p = np.zeros(16)
    p[0] = 1.0
    with pytest.raises(rc.DegenerateStepError):
        rc.noisy_dejmps_map(np.zeros(16))(p)


def test_degenerate_step_error_is_a_value_error():
    assert issubclass(rc.DegenerateStepError, ValueError)


# -------------------------------------------------------------------- binary

def test_binary_step_equals_general_map_on_binary_support():
    p4 = [Fraction(6, 10), Fraction(1, 10), Fraction(1, 10), Fraction(2, 10)]
    f0 = Fraction(9, 10)
    f1 = 1 - f0
    fvec = [Fraction(0)] * 16
    fvec[0], fvec[1], fvec[4], fvec[5] = f0 * f0, f0 * f1, f1 * f0, f1 * f1
    p16 = [Fraction(0)] * 16
    for j in (0, 1):
        for l in (0, 1):
            p16[LabeledEnsembleState.index(0, j, 0, l)] = p4[2 * j + l]
    full, n_full = rc.noisy_dejmps_map(
        fvec, rc.conjunctive_flag_update())(p16)
    back = [full[LabeledEnsembleState.index(0, j, 0, l)]
            for j in (0, 1) for l in (0, 1)]
    out, n = rc.binary_map(f0)(p4)
    assert out.tolist() == back          # exact Fraction equality
    assert n == n_full
    assert sum(full) - sum(back) == 0   # support exactly preserved


@given(probs4, st.floats(0.0, 1.0))
def test_binary_step_output_is_distribution(p, f0):
    out, n = rc.binary_map(f0)(p)
    assert np.all(np.asarray(out) >= -1e-15)
    assert np.sum(out) == pytest.approx(1.0, abs=1e-12)
    assert 0 < n <= 1 + 1e-12


def test_binary_step_noiseless_reduces_to_squares():
    # f0 = 1: flags and amplitudes decouple, r = (p00+p01)^2-type masses
    p = [0.6, 0.1, 0.1, 0.2]
    out, n = rc.binary_map(1.0)(p)
    a, b = p[0] + p[1], p[2] + p[3]
    assert n == pytest.approx(a * a + b * b, abs=1e-15)


# -------------------------------------------------------------------- bbpssw

def test_bbpssw_success_convention():
    # scaled so that at f = 1 it equals the two-pair coincidence (1 + p^2)/2
    step = rc.bbpssw_map(1.0)
    assert step([1.0])[1] == pytest.approx(1.0)
    for p in (0.2, 0.5, 0.9):
        assert step([p])[1] == pytest.approx((1 + p * p) / 2)
    p, f = Fraction(1, 3), Fraction(9, 10)
    assert rc.bbpssw_map(f)([p])[1] == (1 + p * p * f * f) / 2


@given(st.floats(0.0, 1.0), st.floats(0.8, 1.0))
def test_bbpssw_step_stays_in_unit_interval(p, f):
    (out,), n = rc.bbpssw_map(f)([p])
    assert -1e-12 <= out <= 1 + 1e-12
    assert 0 < n <= 1 + 1e-12


def test_worstcase_step_unit_noise_fixed_points():
    for fpt in (0.25, 0.5, 1.0):
        (out,), _ = rc.worstcase_map(1.0)([fpt])
        assert out == pytest.approx(fpt, abs=1e-12)


# ------------------------------------------------------------ map containers

def test_recurrence_map_metadata_and_call():
    m = rc.binary_map(0.9)
    assert m.dim == 4
    out, n0 = m(np.array([0.7, 0.1, 0.1, 0.1]))
    out2, n = m(np.array([0.7, 0.1, 0.1, 0.1]))
    assert np.allclose(out, out2)
    assert n0 == n
    assert 0 < n <= 1


def test_trajectory_is_lazy():
    calls = []
    m = rc.noiseless_dejmps_map()
    counted = rc.RecurrenceMap(4, lambda p: calls.append(p) or m.fn(p),
                               m.linearize)
    p, n = next(rc.trajectory(counted, BellDiagonalState.werner(0.75).p,
                              10 ** 12))
    assert len(calls) == 1
    assert p[0] == pytest.approx(41 / 52, abs=1e-15)
    assert n == pytest.approx(13 / 18, abs=1e-15)


def test_trajectory_repeats_the_map():
    m = rc.binary_map(0.9)
    p = np.array([0.7, 0.1, 0.1, 0.1])
    steps = list(rc.trajectory(m, p, 5))
    assert len(steps) == 5
    for q, n in steps:
        p, n_ref = m(p)
        assert np.array_equal(q, p) and n == n_ref
    assert list(rc.trajectory(m, p, 0)) == []


def test_trajectory_keeps_an_exact_start_exact():
    m = rc.reduced_dejmps_map([Fraction(31, 32)] + [Fraction(1, 480)] * 15)
    p, n = next(rc.trajectory(m, [Fraction(1, 4)] * 4, 1))
    assert all(type(x) is Fraction for x in p.tolist()) and type(n) is Fraction
    q = [Fraction(6, 10), Fraction(2, 10), Fraction(1, 10), Fraction(1, 10)]
    steps = list(rc.trajectory(m, q, 3))
    for got, n in steps:
        q, n_ref = m(q)
        assert got.tolist() == q.tolist() and n == n_ref
    assert all(type(x) is Fraction for x in q.tolist())


# ------------------------------------------------------------ exact Jacobian

# A white-noise-like vector with every noise label present, so every term
# of each table carries weight.
JAC_NOISE = [Fraction(31, 32)] + [Fraction(1, 480)] * 15
JAC_TABLES = {
    # name: (table, dim, noise, columns checked against sympy)
    "reduced": (rc._index_table(rc.default_flag_update(), CORRELATED_SUPPORT),
                4, JAC_NOISE, range(4)),
    "binary": (rc._table_for(rc._AND, rc._BINARY_SUPPORT), 4,
               rc._per_pair((Fraction(9, 10), Fraction(1, 10), 0, 0)), range(4)),
    "worstcase": (rc._worstcase_table(), 4,
                  [Fraction(24, 25)] + [0] * 15 + [Fraction(1, 75)], range(4)),
    # Two columns on the correlated support and two off it: the symbolic
    # 2048-term step costs ~0.3 s per column.
    "noisy16": (rc._index_table(rc.default_flag_update()), 16, JAC_NOISE,
                (0, 3, 5, 12)),
}


def jac_point(dim):
    return [Fraction(i + 1, dim * (dim + 1) // 2) for i in range(dim)]


@cache
def sympy_jacobian_columns(name):
    """The checked columns of the Jacobian at :func:`jac_point` of table
    ``name``'s term-by-term step, as Fractions: sympy differentiates the
    test-side loop along each coordinate direction."""
    table, dim, f, columns = JAC_TABLES[name]
    t = sympy.Symbol("t")
    cols = []
    for c in columns:
        p = np.array(jac_point(dim), dtype=object)
        p[c] = p[c] + t
        g, _ = loop_step(table, p, f, dim)
        cols.append([Fraction(str(sympy.diff(gi, t).subs(t, 0))) for gi in g])
    return np.array(cols, dtype=object).T


@pytest.mark.parametrize("name", JAC_TABLES)
def test_bilinear_jacobian_matches_sympy_derivative(name):
    table, dim, f, columns = JAC_TABLES[name]
    exact = sympy_jacobian_columns(name).astype(float)
    jac = rc._table_map(dim, table, np.array(f, dtype=float)).jac(
        np.array(jac_point(dim), dtype=float))
    assert np.abs(jac[:, list(columns)] - exact).max() < 1e-14


@pytest.mark.parametrize("name", JAC_TABLES)
def test_exact_jacobian_equals_sympy_derivative(name):
    # Fraction noise at a Fraction point: the Jacobian read off the same
    # tensor contraction is exact, entry for entry.
    table, dim, f, columns = JAC_TABLES[name]
    jac = rc._table_map(dim, table, f).jac(jac_point(dim))
    assert jac.shape == (dim, dim)
    assert all(type(x) is Fraction for x in jac.ravel().tolist())
    assert jac[:, list(columns)].tolist() == sympy_jacobian_columns(name).tolist()


def dec(x):
    return Decimal(x.numerator) / x.denominator


def test_decimal_jacobian_matches_fraction_jacobian():
    point = jac_point(4)
    want = rc.reduced_dejmps_map(JAC_NOISE).jac(point)
    with localcontext() as ctx:
        ctx.prec = 50
        jac = rc.reduced_dejmps_map([dec(x) for x in JAC_NOISE]).jac(
            [dec(x) for x in point])
        assert all(type(x) is Decimal for x in jac.ravel().tolist())
        scale = max(abs(x) for x in want.ravel().tolist())
        err = max(abs(got - dec(ref)) for got, ref in zip(
            jac.ravel().tolist(), want.ravel().tolist()))
        assert err <= Decimal("1e-40") * dec(scale)


# Every table with its noise, the worst case with its 17th noise slot.
FORM_TABLES = {
    "noiseless": (rc._table_for(rc._XOR, rc._CORRELATED), 4,
                  rc._per_pair((1, 0, 0, 0))),
    "reduced": JAC_TABLES["reduced"][:3],
    "binary": JAC_TABLES["binary"][:3],
    "worstcase": JAC_TABLES["worstcase"][:3],
    "noisy16-xor": JAC_TABLES["noisy16"][:3],
    "noisy16-and": (rc._index_table(rc.conjunctive_flag_update()), 16,
                    JAC_NOISE),
}


@pytest.mark.parametrize("name", FORM_TABLES)
def test_coefficient_tensor_matches_exact_step(name, rng):
    # The map on its tensor against the test-side loop summing the table's
    # terms: exactly on exact noise, and to the last place on float noise
    # (dyadic points, the float noise read back exactly).
    table, dim, f = FORM_TABLES[name]
    f = np.array(f, dtype=float)
    s = rc._coefficients(table, f, dim).reshape(dim, dim, dim)
    assert np.array_equal(s, s.transpose(0, 2, 1))
    float_map = rc._table_map(dim, table, f)
    exact_f = [Fraction(x) for x in f]
    exact_map = rc._table_map(dim, table, exact_f)
    for _ in range(5):
        p = [Fraction(int(x), 64) for x in rng.integers(1, 64, dim)]
        want, n_want = loop_step(table, p, exact_f, dim)
        got, n_got = exact_map(p)
        assert (got.tolist(), n_got) == (want, n_want)
        out, n = float_map(np.array(p, dtype=float))
        want = np.array(want, dtype=float)
        assert np.all(np.abs(out - want) <= 1e-15 * want)
        assert abs(n - float(n_want)) <= 1e-15 * float(n_want)


def test_exact_step_takes_decimals():
    # 50-digit Decimal arithmetic through the same tensor as Fraction.
    point = [Fraction(1, 10), Fraction(2, 10), Fraction(3, 10), Fraction(4, 10)]
    want, n_want = rc.reduced_dejmps_map(JAC_NOISE)(point)
    with localcontext() as ctx:
        ctx.prec = 50
        out, n = rc.reduced_dejmps_map([dec(x) for x in JAC_NOISE])(
            [dec(x) for x in point])
        for got, ref in zip([*out, n], [*want, n_want]):
            assert isinstance(got, Decimal)
            assert abs(got - dec(ref)) <= Decimal("1e-40") * dec(ref)


def _fd_jacobian(rmap, p, h=1e-6):
    """Central finite-difference Jacobian of the map at p: an independent
    reference for each map's exact ``jac``."""
    return np.array([(rmap(p + d)[0] - rmap(p - d)[0]) / (2 * h)
                     for d in h * np.eye(p.size)]).T


MAPS = {
    "dejmps-{}": rc.noiseless_dejmps_map(),
    "binary-{'f0': 0.9}": rc.binary_map(0.9),
    "binary-{'f0': 0.6}": rc.binary_map(0.6),
    "dejmps-reduced-{'u': 'xor'}": rc.reduced_dejmps_map(WHITE98),
    "dejmps-noisy-{'u': 'xor'}": rc.noisy_dejmps_map(WHITE98),
    "dejmps-noisy-{'u': 'and'}": rc.noisy_dejmps_map(
        WHITE98, rc.conjunctive_flag_update()),
    "bbpssw-{'f': 0.97}": rc.bbpssw_map(0.97),
    "bbpssw2q-{'f_tilde': 0.95}": rc.bbpssw_two_qubit_map(0.95),
    "worstcase-{'f_i': 0.97}": rc.worstcase_map(0.97),
}


@pytest.mark.parametrize("name", MAPS)
def test_map_jacobian_matches_central_difference(name, rng):
    rmap = MAPS[name]
    for _ in range(5):
        p = rng.random(rmap.dim) + 0.05
        p /= p.sum() if rmap.dim > 1 else 1.1  # a scalar variable in (0, 1)
        assert np.abs(rmap.jac(p) - _fd_jacobian(rmap, p)).max() < 1e-7


@pytest.mark.parametrize("name", MAPS)
def test_linearize_is_the_step_and_the_jacobian(name, rng):
    # the step half is the map's own step, bit for bit; the Jacobian half
    # is held to central differences above
    rmap = MAPS[name]
    for _ in range(3):
        p = rng.random(rmap.dim) + 0.05
        out, jac = rmap.linearize(p)
        assert np.array_equal(out, rmap(p)[0])
        assert jac.shape == (rmap.dim, rmap.dim)


# The scalar maps at the points of their sympy slope check: (variable,
# parameter) pairs, each map differentiated through its own exact path.
SCALAR_MAPS = {"bbpssw": rc.bbpssw_map, "bbpssw2q": rc.bbpssw_two_qubit_map,
               "worstcase": rc.worstcase_map}
SCALAR_POINTS = [(Fraction(3, 4), Fraction(97, 100)),
                 (Fraction(1, 5), Fraction(19, 20)),
                 (Fraction(9, 10), Fraction(1)),
                 (Fraction(0), Fraction(24, 25))]


@pytest.mark.parametrize("name", SCALAR_MAPS)
def test_scalar_jacobian_matches_sympy_derivative(name):
    make_map = SCALAR_MAPS[name]
    x = sympy.Symbol("x")
    for x0, param in SCALAR_POINTS:
        (out,), _ = make_map(sympy.Rational(param))([x])
        exact = sympy.diff(out, x).subs(x, x0)
        assert exact.is_Rational
        jac = make_map(float(param)).jac(np.array([float(x0)]))
        assert jac.shape == (1, 1)
        assert abs(jac[0, 0] - float(exact)) <= 1e-15 * abs(float(exact))
        # Fraction noise at a Fraction point: the slope itself is exact
        (slope,), = make_map(param).jac([x0]).tolist()
        assert type(slope) is Fraction and slope == Fraction(str(exact))


def test_bilinear_jacobian_degenerate_step():
    rmap = rc.noisy_dejmps_map(np.zeros(16))
    for call in (rmap, rmap.jac):
        with pytest.raises(rc.DegenerateStepError):
            call(np.eye(16)[0])

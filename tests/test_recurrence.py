"""Single-round maps: 4-dim noiseless, 16-dim noisy, binary and Werner
variants, plus the correlated-support reduction used by the stability
analysis."""

import io
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, strategies as st

import qdistill.noise_models as nm
import qdistill.recurrence as rc
from qdistill.fixed_point import _fd_jacobian
from qdistill.quantum_core import (
    BELL_ORDER,
    CORRELATED_SUPPORT,
    BellDiagonalState,
    LabeledEnsembleState,
)

WHITE98 = nm.distribution_from(nm.SingleQubitWhiteNoise(0.98))

probs4 = st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4).map(
    lambda v: np.array(v) / sum(v))


# ------------------------------------------------------------- noiseless step

def test_noiseless_step_werner_three_quarters_exact():
    p = [Fraction(3, 4)] + [Fraction(1, 12)] * 3
    out, n = rc.dejmps_noiseless_step(p)
    assert out == [Fraction(41, 52), Fraction(1, 52),
                   Fraction(1, 52), Fraction(9, 52)]
    assert n == Fraction(13, 18)


def test_noiseless_step_float_matches_exact():
    p = [Fraction(3, 4)] + [Fraction(1, 12)] * 3
    exact, n_exact = rc.dejmps_noiseless_step(p)
    approx, n_float = rc.dejmps_noiseless_step([float(x) for x in p])
    assert np.allclose(approx, [float(x) for x in exact], atol=1e-15)
    assert n_float == pytest.approx(float(n_exact), abs=1e-15)


@given(probs4)
def test_noiseless_step_output_is_distribution(p):
    out, n = rc.dejmps_noiseless_step(p)
    assert np.all(np.asarray(out) >= 0)
    assert np.sum(out) == pytest.approx(1.0, abs=1e-12)
    # success probability (a^2 + b^2 with a + b = 1) is always in [1/2, 1]
    assert 0.5 - 1e-12 <= n <= 1.0 + 1e-12


@given(st.floats(0.51, 0.999))
def test_noiseless_step_improves_werner_fidelity(f):
    out, _ = rc.dejmps_noiseless_step(BellDiagonalState.werner(f).p)
    assert out[0] > f


# ----------------------------------------------------------------- noisy step

def test_noisy_step_reduces_to_noiseless_at_unit_fidelity(rng):
    ideal = nm.distribution_from(nm.SingleQubitWhiteNoise(1.0))
    for _ in range(20):
        q = rng.random(4)
        q /= q.sum()
        s = LabeledEnsembleState.from_bell_diagonal(
            BellDiagonalState(q), flags="correlated")
        full, n_full = rc.dejmps_noisy_step(s.p, ideal)
        marg = LabeledEnsembleState(full).bell_marginal().p
        clean, n_clean = rc.dejmps_noiseless_step(q)
        assert np.abs(marg - np.asarray(clean)).max() < 1e-14
        assert n_full == pytest.approx(n_clean, abs=1e-14)


def test_noisy_step_preserves_correlated_support(rng):
    for _ in range(20):
        q = rng.random(4)
        q /= q.sum()
        s = LabeledEnsembleState.from_bell_diagonal(
            BellDiagonalState(q), flags="correlated")
        full, _ = rc.dejmps_noisy_step(s.p, WHITE98)
        assert LabeledEnsembleState(full).cross_mass() == 0.0


def test_zero_flag_start_converges_to_uniform_flags():
    # From a fresh (all-zero) demon register the iteration does not return
    # to the correlated support: the limit is (reduced fixed point) x
    # (uniform flags), with cross mass exactly 3/4.  The Bell marginal is
    # autonomous, so it still lands on the reduced fixed point.
    import qdistill.fixed_point as fp

    dist = nm.distribution_from(nm.SingleQubitWhiteNoise(0.99))
    p = LabeledEnsembleState.from_bell_diagonal(
        BellDiagonalState.werner(0.9), flags="zero").p
    for _ in range(60):
        p, _ = rc.dejmps_noisy_step(p, dist)
    s = LabeledEnsembleState(np.asarray(p))
    assert s.cross_mass() == pytest.approx(0.75, abs=1e-12)
    target = fp.reduced_noisy_dejmps_fixed_point(dist).location
    assert np.abs(s.bell_marginal().p - target).max() < 1e-12
    grid = np.asarray(p).reshape(4, 4)
    assert np.abs(grid - grid.sum(axis=1, keepdims=True) / 4).max() < 1e-15


def test_bell_marginal_is_autonomous_under_default_flags(rng):
    # two ensembles with the same Bell marginal but different flag
    # conditionals produce the same output marginal
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
        fa, na = rc.dejmps_noisy_step(a, WHITE98)
        fb, nb = rc.dejmps_noisy_step(b, WHITE98)
        ma = LabeledEnsembleState(fa).bell_marginal().p
        mb = LabeledEnsembleState(fb).bell_marginal().p
        assert np.abs(ma - mb).max() < 1e-14
        assert na == pytest.approx(nb, abs=1e-14)


def test_reduced_map_matches_embedded_marginal(rng):
    red = rc.reduced_dejmps_map(WHITE98)
    for _ in range(100):
        q = rng.random(4)
        q /= q.sum()
        s = LabeledEnsembleState.from_bell_diagonal(
            BellDiagonalState(q), flags="correlated")
        full, n_full = rc.dejmps_noisy_step(s.p, WHITE98)
        marg = LabeledEnsembleState(full).bell_marginal().p
        r, n_red = red(q)
        assert np.abs(marg - r).max() < 1e-14
        assert n_red == pytest.approx(n_full, abs=1e-14)


def test_noisy_step_zero_noise_vector_is_degenerate():
    p = np.zeros(16)
    p[0] = 1.0
    with pytest.raises(rc.DegenerateStepError):
        rc.dejmps_noisy_step(p, np.zeros(16))


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
    full, n_full = rc.dejmps_noisy_step(
        p16, fvec, rc.conjunctive_flag_update())
    back = [full[LabeledEnsembleState.index(0, j, 0, l)]
            for j in (0, 1) for l in (0, 1)]
    out, n = rc.binary_step(p4, f0)
    assert out == back          # exact Fraction equality
    assert n == n_full
    assert sum(full) - sum(back) == 0   # support exactly preserved


@given(probs4, st.floats(0.0, 1.0))
def test_binary_step_output_is_distribution(p, f0):
    out, n = rc.binary_step(p, f0)
    assert np.all(np.asarray(out) >= -1e-15)
    assert np.sum(out) == pytest.approx(1.0, abs=1e-12)
    assert 0 < n <= 1 + 1e-12


def test_binary_step_noiseless_reduces_to_squares():
    # f0 = 1: flags and amplitudes decouple, r = (p00+p01)^2-type masses
    p = [0.6, 0.1, 0.1, 0.2]
    out, n = rc.binary_step(p, 1.0)
    a, b = p[0] + p[1], p[2] + p[3]
    assert n == pytest.approx(a * a + b * b, abs=1e-15)


# -------------------------------------------------------------------- bbpssw

def test_bbpssw_success_convention():
    # scaled so that at f = 1 it equals the two-pair coincidence (1 + p^2)/2
    assert rc.bbpssw_success(1.0, 1.0) == pytest.approx(1.0)
    for p in (0.2, 0.5, 0.9):
        assert rc.bbpssw_success(p, 1.0) == pytest.approx((1 + p * p) / 2)


@given(st.floats(0.0, 1.0), st.floats(0.8, 1.0))
def test_bbpssw_step_stays_in_unit_interval(p, f):
    out, n = rc.bbpssw_step(p, f)
    assert -1e-12 <= out <= 1 + 1e-12
    assert 0 < n <= 1 + 1e-12


def test_worstcase_step_unit_noise_fixed_points():
    for fpt in (0.25, 0.5, 1.0):
        out, _ = rc.bbpssw_worstcase_step(fpt, 1.0)
        assert out == pytest.approx(fpt, abs=1e-12)


# ------------------------------------------------------------ map containers

def test_recurrence_map_metadata_and_call():
    m = rc.binary_map(0.9)
    assert m.variant == "binary"
    assert m.dim == 4
    assert m.params["f0"] == 0.9
    out, n0 = m(np.array([0.7, 0.1, 0.1, 0.1]))
    out2, n = m(np.array([0.7, 0.1, 0.1, 0.1]))
    assert np.allclose(out, out2)
    assert n0 == n
    assert 0 < n <= 1


def test_write_trace_csv_layout():
    m = rc.noiseless_dejmps_map()
    buf = io.StringIO()
    rc.write_trace_csv(m, BellDiagonalState.werner(0.75).p, 3, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0].startswith("round,")
    assert len(lines) == 5          # header + round 0 (input) + 3 rounds
    r0 = lines[1].split(",")
    assert r0[0] == "0"
    assert float(r0[1]) == pytest.approx(0.75)
    assert r0[-1] == ""             # no success probability before round 1
    r1 = lines[2].split(",")
    assert float(r1[1]) == pytest.approx(41 / 52, abs=1e-15)
    assert float(r1[-1]) == pytest.approx(13 / 18, abs=1e-15)
    # 17 significant digits: the printed text reproduces the stored float
    s = r1[1]
    assert "%.17g" % float(s) == s


# ------------------------------------------------------------ exact Jacobian

# A white-noise-like vector with every noise label present, so every term
# of each table carries weight.
JAC_NOISE = [Fraction(31, 32)] + [Fraction(1, 480)] * 15
JAC_TABLES = {
    # name: (table, dim, noise, columns checked against sympy)
    "reduced": (rc._index_table(rc.default_flag_update(), CORRELATED_SUPPORT),
                4, JAC_NOISE, range(4)),
    "binary": (rc._table_for(rc._AND, rc._BINARY_SUPPORT), 4,
               rc._binary_noise(Fraction(9, 10)), range(4)),
    # Two columns on the correlated support and two off it: the symbolic
    # 2048-term step costs ~0.3 s per column.
    "noisy16": (rc._index_table(rc.default_flag_update()), 16, JAC_NOISE,
                (0, 3, 5, 12)),
}


def sympy_jacobian_columns(table, point, f, dim, columns):
    """Columns of the Jacobian of the exact rational step at ``point``:
    sympy differentiates the step along each coordinate direction."""
    t = sympy.Symbol("t")
    cols = []
    for c in columns:
        p = np.array(point, dtype=object)
        p[c] = p[c] + t
        g, _ = rc._bilinear_step(table, p, np.array(f, dtype=object), dim)
        cols.append([float(sympy.diff(gi, t).subs(t, 0)) for gi in g])
    return np.array(cols).T


@pytest.mark.parametrize("name", JAC_TABLES)
def test_bilinear_jacobian_matches_sympy_derivative(name):
    table, dim, f, columns = JAC_TABLES[name]
    point = [Fraction(i + 1, dim * (dim + 1) // 2) for i in range(dim)]
    exact = sympy_jacobian_columns(table, point, f, dim, columns)
    jac = rc._bilinear_jacobian(table, np.array(point, dtype=float),
                                np.array(f, dtype=float), dim)
    assert np.abs(jac[:, list(columns)] - exact).max() < 1e-14


@pytest.mark.parametrize("rmap", [
    rc.noiseless_dejmps_map(), rc.binary_map(0.9), rc.binary_map(0.6),
    rc.reduced_dejmps_map(WHITE98), rc.noisy_dejmps_map(WHITE98),
    rc.noisy_dejmps_map(WHITE98, rc.conjunctive_flag_update()),
], ids=lambda m: f"{m.variant}-{m.params}")
def test_map_jacobian_matches_central_difference(rmap, rng):
    for _ in range(5):
        p = rng.random(rmap.dim) + 0.05
        p /= p.sum()
        assert np.abs(rmap.jac(p) - _fd_jacobian(rmap, p)).max() < 1e-7


def test_bilinear_jacobian_degenerate_step():
    table = rc._index_table(rc.default_flag_update())
    with pytest.raises(rc.DegenerateStepError):
        rc._bilinear_jacobian(table, np.eye(16)[0], np.zeros(16), 16)

"""Pauli-mixture noise layers and the depolarizing transmission channel."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import qdistill.noise_models as nm
from qdistill.quantum_core import BellDiagonalState


def test_white_noise_distribution_values():
    d = nm.distribution_from(nm.SingleQubitWhiteNoise(0.97))
    assert d.f.shape == (16,)
    assert d.f[0] == pytest.approx(0.97 ** 2, abs=1e-15)
    # single-flip weight: f * (1-f)/3 on each of the six single-qubit errors
    single = [d.f[a2] for a2 in (1, 2, 3)] + [d.f[4 * a1] for a1 in (1, 2, 3)]
    assert np.allclose(single, 0.97 * 0.01, atol=1e-15)
    # double-flip weight ((1-f)/3)^2 on the remaining nine
    assert d.f[5] == pytest.approx(0.01 ** 2, abs=1e-16)
    assert d.f.sum() == pytest.approx(1.0, abs=1e-14)


@given(st.floats(0.0, 1.0))
def test_white_noise_factorizes(f):
    d = nm.distribution_from(nm.SingleQubitWhiteNoise(f))
    marg = np.array([f] + [(1 - f) / 3] * 3)
    assert np.allclose(d.f.reshape(4, 4), np.outer(marg, marg), atol=1e-14)


@given(st.floats(0.0, 1.0))
def test_corr2_noise_form(ft):
    d = nm.distribution_from(nm.TwoQubitCorrelatedNoise(ft))
    assert d.f[0] == pytest.approx(ft + (1 - ft) / 16, abs=1e-14)
    assert np.allclose(d.f[1:], (1 - ft) / 16, atol=1e-14)


@given(st.floats(0.0, 1.0))
def test_binary_noise_supported_on_ix_pairs(f0):
    d = nm.distribution_from(nm.BinaryNoise(f0))
    f1 = 1 - f0
    # support only on {id, sx} x {id, sx}: indices 4*a1 + a2, a in {0, 1}
    expect = np.zeros(16)
    expect[0], expect[1], expect[4], expect[5] = (
        f0 * f0, f0 * f1, f1 * f0, f1 * f1)
    assert np.allclose(d.f, expect, atol=1e-14)


def test_distribution_normalization_and_negativity_guard():
    with pytest.raises(ValueError):
        nm.NoiseDistribution(np.array([0.5] + [0.0] * 15))
    with pytest.raises(ValueError):
        bad = np.zeros(16)
        bad[0], bad[1] = 1.5, -0.5
        nm.NoiseDistribution(bad)
    with pytest.raises(ValueError, match="negative"):
        nm.NoiseDistribution(np.array([1.0, -5e-13] + [0.0] * 14))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_distribution_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match="finite"):
        nm.NoiseDistribution(np.array([bad] + [0.0] * 15))


def test_worstcase_noise_has_no_pauli_mixture():
    with pytest.raises(TypeError):
        nm.distribution_from(nm.WorstCaseNoise(0.97))


# ---------------------------------------------------------------- channel phi

@given(st.floats(0.0, 1.0))
def test_channel_phi_on_perfect_singlet(beta):
    out = nm.apply_channel_phi(BellDiagonalState([1.0, 0, 0, 0]), beta)
    assert out.p[0] == pytest.approx(beta + (1 - beta) / 4, abs=1e-14)
    assert np.allclose(out.p[1:], (1 - beta) / 4, atol=1e-14)


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_channel_phi_composes_multiplicatively(b1, b2):
    s = BellDiagonalState([0.7, 0.1, 0.05, 0.15])
    once = nm.apply_channel_phi(nm.apply_channel_phi(s, b1), b2)
    joint = nm.apply_channel_phi(s, b1 * b2)
    assert np.abs(once.p - joint.p).max() < 1e-14


# -------------------------------------------------------------- config i/o

@pytest.mark.parametrize("model", [
    nm.SingleQubitWhiteNoise(0.97),
    nm.TwoQubitCorrelatedNoise(0.85),
    nm.BinaryNoise(0.9),
    nm.WorstCaseNoise(0.97),
])
def test_noise_config_roundtrip(model):
    cfg = nm.noise_to_config(model)
    assert set(cfg) == {"kind", "parameter"}
    back = nm.noise_from_config(cfg)
    assert type(back) is type(model)
    assert nm.noise_to_config(back) == cfg


def test_noise_from_config_rejects_unknown_kind():
    with pytest.raises(ValueError):
        nm.noise_from_config({"kind": "pink", "parameter": 0.5})


@pytest.mark.parametrize("cls,lo,hi", [
    (nm.SingleQubitWhiteNoise, -0.1, 1.1),
    (nm.TwoQubitCorrelatedNoise, -0.1, 1.1),
    (nm.BinaryNoise, -0.1, 1.1),
    (nm.WorstCaseNoise, -0.1, 1.1),
])
def test_parameter_range_validation(cls, lo, hi):
    with pytest.raises(ValueError):
        cls(lo)
    with pytest.raises(ValueError):
        cls(hi)

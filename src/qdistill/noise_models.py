"""Noise parameterizations for the distillation recurrences.

Five models:

* ``SingleQubitWhiteNoise`` — independent white noise on each of Alice's two
  qubits, identity with probability f, each other Pauli with (1-f)/3.
* ``TwoQubitCorrelatedNoise`` — perfect two-qubit operation with probability
  f~, uniform two-pair Pauli otherwise.
* ``BinaryNoise`` — identity/sigma_x only (bit-flip channel per pair).
* ``WorstCaseNoise`` — ideal step with probability f_I, a fixed adversarial
  constant-output map otherwise.
* ``ChannelBeta`` — the transmission depolarizing channel
  rho -> beta*rho + (1-beta)*I/4.

Noise acts on Alice's register only; by Bell-state symmetry this loses no
generality.  Mixtures over Pauli labels are applied as CPTP maps (classical
mixtures), never as coherent controlled unitaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quantum_core import BellDiagonalState, DensityMatrix, _probabilities, bell_vector

__all__ = [
    "NoiseDistribution",
    "SingleQubitWhiteNoise",
    "TwoQubitCorrelatedNoise",
    "BinaryNoise",
    "WorstCaseNoise",
    "ChannelBeta",
    "WorstCaseChannel",
    "distribution_from",
    "apply_channel_phi",
    "standard_form_fidelity",
    "worstcase_map_check",
    "noise_to_config",
    "noise_from_config",
]


def _check_unit_interval(value: float, name: str) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return value


@dataclass(frozen=True)
class NoiseDistribution:
    """16 probabilities f~_{a1 b1 a2 b2} over two-pair Pauli labels.

    Index order is lexicographic over (a1, b1, a2, b2), the flat order of
    :meth:`qdistill.quantum_core.LabeledEnsembleState.index`; the per-pair
    label (a, b) follows the fixed Pauli order (id, sx, sz, sy) =
    (00, 01, 10, 11).
    """

    f: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "f", _probabilities(self.f, 16, floor=0.0))


@dataclass(frozen=True)
class SingleQubitWhiteNoise:
    f: float

    def __post_init__(self):
        object.__setattr__(self, "f", _check_unit_interval(self.f, "f"))

    def single_pair_vector(self) -> np.ndarray:
        rest = (1.0 - self.f) / 3.0
        return np.array([self.f, rest, rest, rest])


@dataclass(frozen=True)
class TwoQubitCorrelatedNoise:
    f_tilde: float

    def __post_init__(self):
        object.__setattr__(self, "f_tilde", _check_unit_interval(self.f_tilde, "f_tilde"))


@dataclass(frozen=True)
class BinaryNoise:
    """Identity with probability f0, sigma_x with 1 - f0, independently per pair."""

    f0: float

    def __post_init__(self):
        object.__setattr__(self, "f0", _check_unit_interval(self.f0, "f0"))

    def single_pair_vector(self) -> np.ndarray:
        # support only on the beta-flip labels (0,0) and (0,1)
        return np.array([self.f0, 1.0 - self.f0, 0.0, 0.0])


@dataclass(frozen=True)
class WorstCaseNoise:
    """Ideal distillation step with probability f_I, adversarial map otherwise."""

    f_i: float

    def __post_init__(self):
        object.__setattr__(self, "f_i", _check_unit_interval(self.f_i, "f_i"))


@dataclass(frozen=True)
class ChannelBeta:
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "beta", _check_unit_interval(self.beta, "beta"))


def distribution_from(model) -> NoiseDistribution:
    """Expand a noise model into the 16-entry two-pair Pauli distribution.

    Single-qubit white noise and binary noise factorize as a product of two
    identical per-pair 4-vectors; correlated two-qubit noise places
    f~ + (1-f~)/16 on the identity label and (1-f~)/16 elsewhere.
    """
    if isinstance(model, (SingleQubitWhiteNoise, BinaryNoise)):
        g = model.single_pair_vector()
        return NoiseDistribution(np.kron(g, g))
    if isinstance(model, TwoQubitCorrelatedNoise):
        f = np.full(16, (1.0 - model.f_tilde) / 16.0)
        f[0] += model.f_tilde
        return NoiseDistribution(f)
    raise TypeError(f"no Pauli-mixture expansion for {type(model).__name__}")


def apply_channel_phi(state, beta: float):
    """Depolarizing transmission channel rho -> beta*rho + (1-beta)*I/4.

    Accepts a BellDiagonalState (acts on the 4 probabilities) or a two-qubit
    DensityMatrix; returns the same type.  Linear, trace preserving, and
    multiplicative under composition: Phi_b1 after Phi_b2 = Phi_{b1*b2}.
    """
    beta = _check_unit_interval(beta, "beta")
    if isinstance(state, BellDiagonalState):
        return BellDiagonalState(beta * state.p + (1.0 - beta) / 4.0)
    if isinstance(state, DensityMatrix):
        if state.dim != 4:
            raise ValueError("channel acts on two-qubit states")
        return DensityMatrix(beta * state.mat + (1.0 - beta) * np.eye(4) / 4.0)
    raise TypeError(f"unsupported state type {type(state).__name__}")


def standard_form_fidelity(x: float) -> float:
    """Lower bound 1 - 17x on the gate fidelity after depolarization to
    standard form, valid for gate infidelity x <= 1/17."""
    if x < 0:
        raise ValueError(f"infidelity must be nonnegative, got {x!r}")
    if x > 1.0 / 17.0:
        raise ValueError("standard form not guaranteed useful (x > 1/17)")
    return 1.0 - 17.0 * x


@dataclass(frozen=True)
class WorstCaseChannel:
    """CP decomposition E = f_I * E_ideal + (1 - f_I) * E_error where the
    error branch ignores its input and outputs |B01><B01| (x) |B00><B00|."""

    f_i: float

    def error_state(self) -> DensityMatrix:
        b01 = bell_vector(0, 1)
        b00 = bell_vector(0, 0)
        out = np.kron(np.outer(b01, b01.conj()), np.outer(b00, b00.conj()))
        return DensityMatrix(out)

    def apply_error_branch(self, rho) -> DensityMatrix:
        mat = rho.mat if isinstance(rho, DensityMatrix) else np.asarray(rho)
        if mat.shape != (16, 16):
            raise ValueError("worst-case branch acts on two pairs (4 qubits)")
        return self.error_state()


def worstcase_map_check(f_i: float) -> WorstCaseChannel:
    """Return the worst-case CP-map decomposition as a channel object.

    The error branch is the constant map onto |B01><B01| (x) |B00><B00|; the
    recurrence module consumes only f_i, but the explicit channel makes the
    constant-output property checkable.
    """
    return WorstCaseChannel(_check_unit_interval(f_i, "f_i"))


_CONFIG_KINDS = {
    "white": (SingleQubitWhiteNoise, "f"),
    "corr2": (TwoQubitCorrelatedNoise, "f_tilde"),
    "binary": (BinaryNoise, "f0"),
    "worst": (WorstCaseNoise, "f_i"),
    "channel": (ChannelBeta, "beta"),
}


def noise_to_config(model) -> dict:
    """Serialize a noise model to the flat {kind, parameter} form."""
    for kind, (cls, field) in _CONFIG_KINDS.items():
        if isinstance(model, cls):
            return {"kind": kind, "parameter": getattr(model, field)}
    raise TypeError(f"unknown noise model {type(model).__name__}")


def noise_from_config(cfg: dict):
    """Inverse of :func:`noise_to_config` (also accepts string parameters)."""
    kind = cfg["kind"]
    if kind not in _CONFIG_KINDS:
        raise ValueError(f"unknown noise kind {kind!r}")
    cls, _ = _CONFIG_KINDS[kind]
    return cls(float(cfg["parameter"]))

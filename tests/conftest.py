import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import settings, HealthCheck

import qdistill.fixed_point as fp
import qdistill.montecarlo as mc
import qdistill.noise_models as nm
from qdistill.quantum_core import PAULI, PAULI_ORDER

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


def ginibre_density(rng, dim):
    """Random full-rank density matrix (Ginibre ensemble)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def dyadic_hermitian(rng, dim=4, denom=64):
    """Hermitian zero-trace perturbation whose entries are small dyadic
    rationals, so kron products and partial traces stay bit-exact."""
    re = rng.integers(-2, 3, size=(dim, dim)).astype(float)
    im = rng.integers(-2, 3, size=(dim, dim)).astype(float)
    k = (re + re.T) / 2 + 1j * (im - im.T) / 2
    np.fill_diagonal(k, 0.0)
    return k / denom


def dyadic_state(rng, dim=4):
    """Random density matrix with exactly-representable dyadic entries."""
    for _ in range(64):
        rho = np.eye(dim) / dim + dyadic_hermitian(rng, dim)
        if np.linalg.eigvalsh(rho).min() >= 0:
            return rho
    raise RuntimeError("failed to draw a PSD dyadic state")


def partial_trace(rho, keep, dims):
    """Reference partial trace: the subsystems of sizes ``dims`` listed in
    ``keep`` remain, in their original order; the others are traced out."""
    n, keep = len(dims), sorted(set(keep))
    # Row and column axes of a traced subsystem share an einsum index.
    col = [i + n if i in keep else i for i in range(n)]
    reduced = np.einsum(np.reshape(rho, 2 * tuple(dims)), [*range(n), *col],
                        keep + [i + n for i in keep])
    d = math.prod(dims[k] for k in keep)
    return reduced.reshape(d, d)


def pauli_string(labels):
    """Reference tensor product of single-qubit Paulis, ``labels`` indexing
    ``PAULI_ORDER`` (0=id, 1=sx, 2=sz, 3=sy)."""
    return reduce(np.kron, (PAULI[PAULI_ORDER[k]] for k in labels))


def make_config(**kw):
    base = dict(n_pairs=4096, beta=0.98,
                noise=nm.SingleQubitWhiteNoise(0.99), rounds=2,
                f_min=0.7, seed=20240817, trials=100)
    base.update(kw)
    return mc.ProtocolConfig(**base)


# One campaign per kind of ending: every trial completes, some abort in
# estimation (and a few in round 4), most run out of pairs in a round.
STREAM_CELLS = {
    "ok": make_config(n_pairs=4096, beta=0.9,
                      noise=nm.TwoQubitCorrelatedNoise(0.99), f_min=0.52),
    "estimation": make_config(n_pairs=256, beta=0.6, rounds=4,
                              noise=nm.TwoQubitCorrelatedNoise(0.99),
                              f_min=0.52),
    "rounds": make_config(n_pairs=16, beta=0.95, rounds=4,
                          noise=nm.TwoQubitCorrelatedNoise(0.99), f_min=0.52),
}


def campaign(cfg):
    """The campaign's (fidelity_estimate, stage, final_pairs) arrays over
    all its trials, the estimate taken from each trial's win count."""
    blocks = list(mc.sample_campaign(cfg))
    wins, stage, pairs = (np.concatenate(column) for column in zip(*blocks))
    mpp = math.isqrt(cfg.n_pairs) // 2
    f_hat = np.array([mc._fidelity_estimate(w, mpp) for w in wins.tolist()])
    return f_hat, stage, pairs


def plain_fixed_point(rmap):
    """Plain iteration from DEJMPS_START until a 1-norm step < 1e-13: the
    reference the benchmark's stability check uses."""
    q = np.array(fp.DEJMPS_START)
    for _ in range(200000):
        g, _ = rmap(q)
        if np.abs(g - q).sum() < 1e-13:
            return g
        q = g
    raise AssertionError("plain iteration did not converge")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# One line per acceptance criterion, filled in by tests/test_acceptance.py
# and echoed after the test summary so the verdicts survive output capture.
ACCEPTANCE_REPORT: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_REPORT:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_REPORT:
            terminalreporter.line(line)

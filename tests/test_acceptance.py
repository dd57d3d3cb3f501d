"""End-to-end acceptance gate.

Each test checks one published claim at its stated tolerance and runtime
budget, and prints a single machine-readable pass/fail line (written to the
real stdout so it survives pytest capture).
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import qdistill.fixed_point as fp
import qdistill.montecarlo as mc
import qdistill.noise_models as nm
import qdistill.recurrence as rc
import qdistill.security_bounds as sb
import qdistill.steering_verify as sv
from qdistill.quantum_core import (
    BellDiagonalState,
    LabeledEnsembleState,
    bell_basis,
    ensemble_purification,
    pauli_decompose,
    secret_twirl,
)

from conftest import ACCEPTANCE_REPORT, dyadic_state, ginibre_density


def report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    line = f"criterion {num:2d} {tag} - {name}{extra}"
    ACCEPTANCE_REPORT.append(line)
    print(line, flush=True)


def test_criterion_01_bbpssw_noiseless_convergence():
    step = rc.bbpssw_map(1.0)
    t0 = time.perf_counter()
    p = 0.75
    errs = [abs(p - 1.0)]
    for _ in range(16):
        (p,), _ = step([p])
        errs.append(abs(p - 1.0))
    ratio = errs[15] / errs[14]
    elapsed = time.perf_counter() - t0
    ok = abs(ratio - 2 / 3) / (2 / 3) < 0.01 and elapsed < 1e-3
    report(1, "bbpssw noiseless error ratio -> 2/3", ok,
           f"ratio={ratio:.6f}, {elapsed * 1e3:.3f} ms")
    assert abs(ratio - 2 / 3) / (2 / 3) < 0.01
    assert elapsed < 1e-3


def test_criterion_02_binary_closed_forms():
    t0 = time.perf_counter()
    worst_fix = 0.0
    worst_rad = 0.0
    for f0 in np.linspace(0.78, 1.0, 50):
        target = fp.binary_fixed_point(f0)
        m = rc.binary_map(f0)
        x = np.array([0.95, 0.0, 0.0, 0.05])
        for _ in range(4000):
            nxt, _ = m(x)
            if np.abs(nxt - x).max() < 1e-15:
                x = nxt
                break
            x = nxt
        worst_fix = max(worst_fix, np.abs(x - target).max())
        rad = fp.jacobian_spectral_radius(m, target)
        worst_rad = max(worst_rad, abs(rad - abs(fp.binary_lambda_max(f0))))
    elapsed = time.perf_counter() - t0
    ok = worst_fix < 1e-10 and worst_rad < 1e-14 and elapsed < 1.0
    report(2, "binary fixed point + lambda closed forms", ok,
           f"fix dev={worst_fix:.2e}, radius dev={worst_rad:.2e}, "
           f"{elapsed:.2f} s")
    assert worst_fix < 1e-10
    assert worst_rad < 1e-14
    assert elapsed < 1.0


def test_criterion_03_bbpssw_fixed_points():
    worst = 0.0
    for f in np.linspace(0.96, 1.0, 41):
        q = fp.bbpssw_fixed_point(f)
        (out,), _ = rc.bbpssw_map(f)([q])
        worst = max(worst, abs(out - q))
    pair = fp.bbpssw_two_qubit_fixed_points(1.0)
    pair_dev = max(abs(pair[0] - 0.5), abs(pair[1] - 1.0))
    ok = worst < 1e-12 and pair_dev < 1e-14
    report(3, "bbpssw fixed-point identities", ok,
           f"b(p)-p dev={worst:.2e}, two-qubit dev={pair_dev:.2e}")
    assert worst < 1e-12
    assert pair_dev < 1e-14


def test_criterion_04_worstcase_critical_noise():
    fc = fp.critical_noise()
    roots = np.sort(fp.worstcase_fixed_points(1.0))
    root_dev = np.abs(roots - np.array([0.25, 0.5, 1.0])).max()
    disc = fp.worstcase_discriminant(Fraction(1))
    ok = 0.9640 <= fc <= 0.9642 and root_dev < 1e-10 and disc == 36
    report(4, "worst-case critical noise and ideal roots", ok,
           f"f_crit={fc:.10f}, root dev={root_dev:.2e}, disc={disc}")
    assert 0.9640 <= fc <= 0.9642
    assert root_dev < 1e-10
    assert disc == 36


def test_criterion_05_cross_probability_decay():
    t0 = time.perf_counter()
    dist = nm.distribution_from(nm.SingleQubitWhiteNoise(0.99))
    state = LabeledEnsembleState.from_bell_diagonal(
        BellDiagonalState.werner(0.9), flags="correlated")
    for p, _ in rc.trajectory(rc.noisy_dejmps_map(dist), state.p, 200):
        pass
    final = LabeledEnsembleState(p)
    cross = final.cross_mass()
    target = fp.reduced_noisy_dejmps_fixed_point(dist).location
    limit_dev = np.abs(final.bell_marginal().p - target).max()
    elapsed = time.perf_counter() - t0
    ok = cross < 1e-8 and limit_dev < 1e-8 and elapsed < 10.0
    # The start has cross mass exactly 0, and the XOR map never writes off
    # the flag-correlated support: this checks that invariance, not a decay
    # of cross mass that was ever positive.
    report(5, "noisy map keeps the flag-correlated support invariant", ok,
           f"cross={cross:.2e} from a correlated start, "
           f"limit dev={limit_dev:.2e}, "
           f"{elapsed * 1e3:.0f} ms")
    assert cross < 1e-8
    assert limit_dev < 1e-8
    assert elapsed < 10.0


def test_criterion_06_attractivity_windows():
    cases = ([nm.SingleQubitWhiteNoise(1 - e) for e in (1e-2, 1e-3, 1e-4)]
             + [nm.TwoQubitCorrelatedNoise(ft) for ft in (0.85, 0.9, 0.99)])
    radii = []
    for model in cases:
        dist = nm.distribution_from(model)
        radii.append(fp.reduced_noisy_dejmps_fixed_point(dist).lambda_max)
    ok = all(r < 1.0 for r in radii)
    report(6, "attractivity windows (reduced-map radius < 1)", ok,
           "radii=" + ",".join(f"{r:.3f}" for r in radii))
    assert all(r < 1.0 for r in radii)


def test_criterion_07_tomography_constants():
    t0 = time.perf_counter()
    norm_dev = abs(sv.t_inverse_norm() - 16.0)
    block_norm = sv.block_inverse_norm_exact()
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(50):
        rho = ginibre_density(rng, 16)
        rec = sv.recover_pauli_coefficients(sv.tomographic_probabilities(rho))
        worst = max(worst, np.abs(rec - pauli_decompose(rho)).max())
    elapsed = time.perf_counter() - t0
    ok = (norm_dev < 1e-10 and block_norm == Fraction(2)
          and worst < 1e-10 and elapsed < 5.0)
    report(7, "tomography constants and recovery", ok,
           f"norm dev={norm_dev:.1e}, block={block_norm}, "
           f"recovery dev={worst:.2e}, {elapsed:.2f} s")
    assert norm_dev < 1e-10
    assert block_norm == Fraction(2)
    assert worst < 1e-10
    assert elapsed < 5.0


def test_criterion_08_steering_audit():
    rng = np.random.default_rng(20240817)
    randoms = np.stack([ginibre_density(rng, 16) for _ in range(100)])
    products = np.stack([np.kron(dyadic_state(rng), dyadic_state(rng))
                         for _ in range(100)])
    holds = sum(v.holds for v in sv.product_form_batch(randoms))
    d = sv.steering_discrepancy(products, threshold=1 / 16)
    exact_zero = int((d == 0.0).sum())
    min_prob = min(sv.min_outcome_probability(sv.steer_rotate(s)[1]).min()
                   for s in (randoms, products))
    ok = (holds == 100 and exact_zero == 100
          and min_prob >= 1 / 16 - 1e-12)
    report(8, "steering audit", ok,
           f"holds={holds}/100, exact zeros={exact_zero}/100, "
           f"min outcome prob={min_prob:.4f}")
    assert holds == 100
    assert exact_zero == 100
    assert min_prob >= 1 / 16 - 1e-12


def test_criterion_09_bound_arithmetic():
    const_ok = sb.DEFINETTI_CONSTANT == 2228225
    oracle_ok = True
    for n in range(1, 1001):
        prod = Fraction(1)
        for i in range(1, 16):
            prod *= Fraction(n + i, i)
        if sb.symmetric_subspace_dimension(n) != prod:
            oracle_ok = False
            break
    worst = 0.0
    for n in (10, 100, 1000, 9999):
        g = sb.symmetric_subspace_dimension(n)
        for eps in (1e-16, 1e-12, 1e-8, 1e-4, 0.5):
            direct = sb.postselection_bound(n, eps)
            composed = g * sb.localstates_lift(2 * sb.purification_lift(eps))
            worst = max(worst, abs(direct - composed) / direct)
    lifts_ok = (sb.leak_bound(1e-8) == 2 * math.sqrt(1e-8)
                and worst < 5e-16)
    ok = const_ok and oracle_ok and lifts_ok
    report(9, "bound arithmetic", ok,
           f"constant={sb.DEFINETTI_CONSTANT}, chain rel dev={worst:.1e}")
    assert const_ok
    assert oracle_ok
    assert lifts_ok


def test_criterion_09_footnote_postselection_crossing_sign():
    # headline tolerable-noise scale: at f0 = 1 - 1e-19 the contraction
    # rate beats the post-selection cost by a positive per-round bit gap,
    # at 1 - 1e-18 it does not (log-domain arithmetic throughout)
    from decimal import Decimal
    lam19 = abs(fp.binary_lambda_max(Decimal(1) - Decimal(10) ** -19))
    lam18 = abs(fp.binary_lambda_max(Decimal(1) - Decimal(10) ** -18))
    gap19 = sb.postselect_crossing_gap(lam19)
    gap18 = sb.postselect_crossing_gap(lam18)
    ok = gap19 > 0 > gap18
    report(9, "postselect crossing sign (footnote)", ok,
           f"gap(1e-19)={gap19:+.4f} bits, gap(1e-18)={gap18:+.4f} bits")
    assert gap19 > 0
    assert gap18 < 0


def test_criterion_10_robustness_dominance():
    t0 = time.perf_counter()
    n_pairs, rounds, trials = 2 ** 14, 4, 10 ** 4
    lines = []
    ok = True
    for beta in (0.95, 0.98, 1.0):
        for f in (0.99, 0.999, 1.0):
            cfg = mc.ProtocolConfig(
                n_pairs=n_pairs, beta=beta,
                noise=nm.TwoQubitCorrelatedNoise(f), rounds=rounds,
                f_min=fp.bbpssw_two_qubit_fixed_points(f)[0], seed=20240817,
                trials=trials)
            check = mc.check_robustness(cfg)
            rate, bound = check.estimate.rate, check.bound.value
            cell_ok = check.holds    # rate <= bound + 3 standard errors
            ok = ok and cell_ok
            lines.append(f"b={beta} f={f}: rate={rate:.4f} "
                         f"bound={bound:.4f}")
            assert cell_ok, lines[-1]
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    report(10, "robustness bound dominates abort rate", ok,
           f"9 cells, {elapsed:.1f} s")
    assert elapsed < 120.0


def test_criterion_11_secret_twirl_decoupling():
    dist = nm.distribution_from(nm.SingleQubitWhiteNoise(0.99))
    state = LabeledEnsembleState.from_bell_diagonal(
        BellDiagonalState.werner(0.9), flags="correlated")
    for p, _ in rc.trajectory(rc.noisy_dejmps_map(dist), state.p, 5):
        pass
    psi = ensemble_purification(LabeledEnsembleState(p))
    rho = np.outer(psi, psi.conj())
    twirled = secret_twirl(rho)
    basis = np.kron(bell_basis(), np.eye(64))
    blocks = basis.conj().T @ twirled @ basis
    off = 0.0
    for i in range(4):
        for j in range(4):
            if i != j:
                block = blocks[64 * i:64 * (i + 1), 64 * j:64 * (j + 1)]
                off = max(off, np.abs(block).max())
    ok = off < 1e-12
    report(11, "secret twirl decouples the record", ok,
           f"max off-diagonal block magnitude={off:.2e}")
    assert off < 1e-12

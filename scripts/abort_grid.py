#!/usr/bin/env python3
"""Empirical abort rates vs the robustness bound on a (beta, f) grid.

Runs the finite-ensemble simulation for every grid cell and prints one row
per cell: the Wilson interval for the abort rate next to the analytic bound.
A row is flagged if the rate exceeds bound + 3 binomial standard errors.
"""

import argparse

import qdistill.fixed_point as fp
import qdistill.montecarlo as mc
import qdistill.noise_models as nm


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--betas", nargs="*", type=float,
                    default=[0.95, 0.98, 1.0])
    ap.add_argument("--fidelities", nargs="*", type=float,
                    default=[0.99, 0.999, 1.0])
    ap.add_argument("--n-pairs", type=int, default=2 ** 14)
    ap.add_argument("--rounds", type=int, default=4)
    ap.add_argument("--trials", type=int, default=10 ** 4)
    ap.add_argument("--seed", type=int, default=20240817)
    args = ap.parse_args()

    print(f"{'beta':>6} {'f':>7} {'rate':>8} {'ci_high':>9} "
          f"{'bound':>9}  verdict")
    for beta in args.betas:
        for f in args.fidelities:
            cfg = mc.ProtocolConfig(
                n_pairs=args.n_pairs, beta=beta,
                noise=nm.TwoQubitCorrelatedNoise(f), rounds=args.rounds,
                f_min=fp.bbpssw_two_qubit_fixed_points(f)[0], seed=args.seed,
                trials=args.trials)
            check = mc.check_robustness(cfg)
            est = check.estimate
            print(f"{beta:>6.3f} {f:>7.4f} {est.rate:>8.5f} "
                  f"{est.ci_high:>9.5f} {min(check.bound.value, 1.0):>9.5f}  "
                  f"{'ok' if check.holds else 'VIOLATED'}")


if __name__ == "__main__":
    main()

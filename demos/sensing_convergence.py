"""Convergence race on a planted matrix-sensing instance.

Generates a noiseless rank-r* sensing problem, starts every solver from
the same perturbed-optimum factor, and prints epochs-to-threshold plus
final accuracy for full, stochastic, and variance-reduced gradient
descent.  The variance-reduced runs converge linearly at a fixed step;
the plain stochastic run needs a decaying step and slows down; full
gradient descent takes the most epochs but each epoch is one exact pass.

Run:  python demos/sensing_convergence.py [--p 40] [--n 400] [--seed 0]
"""

import argparse
import math
import time

import numpy as np

from factored_sdp.init import init_perturbed_optimum
from factored_sdp.objective import estimate_smoothness, probe_pairs, sensing_generate
from factored_sdp.solvers import SolverConfig, epochs_to, run_fgd, run_sfgd, run_svrg
from factored_sdp.stepsize import fixed, sbb


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--p", type=int, default=40)
    ap.add_argument("--r", type=int, default=3)
    ap.add_argument("--n", type=int, default=400)
    ap.add_argument("--epochs", type=int, default=60)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    prob = sensing_generate(args.p, args.r, args.n, args.seed)
    L_hat, mu_hat = estimate_smoothness(
        prob, probe_pairs(args.p, args.r, seed=args.seed + 1))
    sigma1 = float(np.linalg.eigvalsh(prob.Xstar).max())
    base = 1.0 / (L_hat * sigma1)
    root_n = math.sqrt(prob.n)

    print(f"sensing p={args.p} r={args.r} n={args.n}: "
          f"L_hat={L_hat:.3f} mu_hat={mu_hat:.3f} sigma_1={sigma1:.1f}")
    print(f"step base 1/(L sigma_1) = {base:.2e}; stochastic steps shrink "
          f"by sqrt(n) = {root_n:.1f}\n")

    U0 = init_perturbed_optimum(prob.Ustar, 0.3 * math.sqrt(sigma1), args.seed + 7)
    runs = [
        ("fgd", run_fgd,
         SolverConfig(algorithm="fgd", r=args.r, epochs=8 * args.epochs,
                      seed=args.seed, eta=0.25 * base)),
        ("sfgd", run_sfgd,
         SolverConfig(algorithm="sfgd", r=args.r, epochs=2 * args.epochs,
                      seed=args.seed, eta0=0.25 * base / root_n, t0=10.0 * prob.n)),
        ("svrg-fixed", run_svrg,
         SolverConfig(algorithm="svrg-fixed", r=args.r, epochs=args.epochs,
                      seed=args.seed, m=prob.n,
                      schedule=fixed(0.25 * base / root_n))),
        ("svrg-sbb", run_svrg,
         SolverConfig(algorithm="svrg-sbb", r=args.r, epochs=args.epochs,
                      seed=args.seed, m=prob.n,
                      schedule=sbb(20.0 * L_hat, prob.n,
                                   eta0=0.1 * base / root_n))),
    ]

    print(f"{'algorithm':<12} {'epochs':>6} {'to 1e-4':>8} {'to 1e-6':>8} "
          f"{'final error_X':>14} {'wall s':>7}")
    for name, runner, cfg in runs:
        t0 = time.perf_counter()
        rec = runner(prob, cfg, U0, X_ref=prob.Xstar, U_ref=prob.Ustar)
        dt = time.perf_counter() - t0
        rows = rec.rows
        print(f"{name:<12} {cfg.epochs:>6} {epochs_to(rows, 1e-4):>8} "
              f"{epochs_to(rows, 1e-6):>8} {rows[-1].error_X:>14.3e} {dt:>7.2f}")

    print("\nepoch cost: one full pass for fgd/sfgd, one pass plus m inner "
          "steps for svrg, so equal epoch counts are not equal work.")


if __name__ == "__main__":
    main()

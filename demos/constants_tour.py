"""A tour of the convergence constants and the a-priori rate bound.

Measures smoothness and strong convexity on probe pairs, samples the
local region statistics around the rank-r reference factor, assembles
the full constant set (attraction radii, step ceilings, contraction
factors), and then checks the predicted error sequence against the
empirical mean over seeded runs.  Everything printed here is computable
before running a single solver epoch, except the last table's empirical
column.
"""

import argparse
import math

import numpy as np

from factored_sdp.init import init_perturbed_optimum
from factored_sdp.linalg import truncated_approx
from factored_sdp.objective import estimate_smoothness, probe_pairs, sensing_generate
from factored_sdp.solvers import SolverConfig, run_svrg
from factored_sdp.stepsize import fixed
from factored_sdp.theory import (
    compute_constants,
    estimate_region_stats,
    region_gamma0,
    theorem1_rate,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--p", type=int, default=40)
    ap.add_argument("--r", type=int, default=3)
    ap.add_argument("--n", type=int, default=400)
    ap.add_argument("--epochs", type=int, default=12)
    ap.add_argument("--trials", type=int, default=10)
    args = ap.parse_args()

    obj = sensing_generate(args.p, args.r, args.n, 0)
    _, Ur = truncated_approx(obj.Xstar, args.r)
    L, mu = estimate_smoothness(obj, probe_pairs(args.p, args.r, seed=1))
    kappa = L / mu
    stats = estimate_region_stats(obj, Ur, region_gamma0(L, mu), n_samples=64, seed=0)
    c = compute_constants(L, mu, obj.Xstar, args.r, stats)

    print(f"instance: sensing p={args.p} r={args.r} n={args.n}")
    print(f"measured  L={L:.4f}  mu={mu:.4f}  kappa={kappa:.3f}\n")
    print("constants:")
    for name in ("gamma_l", "gamma_u", "gamma_l_tilde", "gamma_u_tilde",
                 "gamma0", "eta_max", "eta_bar_max", "eta_bar", "xi", "kappa"):
        print(f"  {name:<14} {getattr(c, name):.6e}")
    eta = 0.9 * c.eta_bar_max
    m = obj.n
    print(f"\nat eta = 0.9 eta_bar_max = {eta:.3e}, m = {m}:")
    print(f"  per-pass contraction rho       = {c.rho(eta):.6f}")
    print(f"  variance-reduced rho_tilde(m)  = {c.rho_tilde(eta, m):.6f}")

    radius = 0.5 * math.sqrt(c.gamma_u_tilde)
    sq_dists = []
    for seed in range(args.trials):
        U0 = init_perturbed_optimum(Ur, radius, 1_000_003 + seed)
        cfg = SolverConfig(algorithm="svrg-fixed", r=args.r, epochs=args.epochs,
                           seed=seed, m=m, schedule=fixed(eta))
        rec = run_svrg(obj, cfg, U0, X_ref=obj.Xstar, U_ref=Ur)
        sq_dists.append([row.error_U ** 2 for row in rec.rows])
    emp = np.mean(np.asarray(sq_dists), axis=0)

    print(f"\n{'k':>3} {'predicted bound':>16} {'empirical mean':>15} {'ratio':>7}")
    for k in range(args.epochs + 1):
        bound = theorem1_rate(c, eta, m, k, emp[0])
        print(f"{k:>3} {bound:>16.3e} {emp[k]:>15.3e} {emp[k] / bound:>7.3f}")

    halving = math.log(0.5) / math.log(c.rho_tilde(eta, m))
    print(f"\nratios stay below 1, so the certificate holds; note how "
          f"loose it is.\nAt the guaranteed step the bound halves only "
          f"every ~{halving:,.0f} outer passes.\nPractical runs (see the "
          f"other demos) use steps orders of magnitude larger than\n"
          f"eta_bar_max and converge in tens of epochs; the guarantee is "
          f"a certificate of\nstability, not a forecast of speed.")


if __name__ == "__main__":
    main()

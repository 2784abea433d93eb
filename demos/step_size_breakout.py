"""Secant step breakout and how the stabilizer contains it.

The adaptive schedule sets eta_k from a secant quotient of snapshot
differences.  With the inner-loop length m tied to the sample size, that
quotient has a hard floor of 1/(m L) no matter how small eta0 is, and on
a sensing instance whose stable step sits below the floor the plain
schedule (eps = 0) walks straight off the cliff.  The stabilized
schedule adds eps to the denominator, which caps the step at 1/(m eps):
choose eps so the cap is under the stability edge and the run survives.

The table sweeps eps upward from zero and reports what happened.
"""

import argparse

from factored_sdp.init import init_perturbed_optimum
from factored_sdp.objective import estimate_smoothness, probe_pairs, sensing_generate
from factored_sdp.solvers import DivergedError, SolverConfig, run_svrg
from factored_sdp.stepsize import sbb, sbb_upper_bound


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--p", type=int, default=40)
    ap.add_argument("--n", type=int, default=400)
    ap.add_argument("--epochs", type=int, default=25)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    r = 3
    prob = sensing_generate(args.p, r, args.n, args.seed)
    m = prob.n
    L_hat, mu_hat = estimate_smoothness(
        prob, probe_pairs(args.p, r, seed=args.seed + 1))

    print(f"sensing p={args.p} n={args.n}, m = n = {m}")
    print(f"measured curvature: L_hat={L_hat:.3f} mu_hat={mu_hat:.3f}")
    print(f"secant bracket: [{1.0 / (m * L_hat):.2e}, {1.0 / (m * mu_hat):.2e}]")
    print(f"plain secant floor 1/(m L_hat) = {1.0 / (m * L_hat):.2e}\n")

    U0 = init_perturbed_optimum(prob.Ustar, 0.5, args.seed + 7)
    print(f"{'eps':>12} {'cap 1/(m eps)':>14} {'outcome':<22} {'max eta seen':>13}")
    for eps in (0.0, 0.5 * L_hat, 5.0 * L_hat, 50.0 * L_hat):
        cap = sbb_upper_bound(eps, m)
        cfg = SolverConfig(
            algorithm="svrg-sbb0" if eps == 0.0 else "svrg-sbb",
            r=r, epochs=args.epochs, seed=args.seed, m=m,
            schedule=sbb(eps, m, eta0=0.01 / (m * L_hat)),
        )
        try:
            rec = run_svrg(prob, cfg, U0, X_ref=prob.Xstar)
            rows = rec.rows
            outcome = f"finished, error_X {rows[-1].error_X:.1e}"
        except DivergedError as err:
            rows = err.record.rows
            outcome = f"DIVERGED at epoch {err.record.diverged_epoch}"
        # skip the eta0 row and the final-row sentinel eta = 0.0
        etas = [row.eta for row in rows[1:] if row.eta > 0.0]
        max_eta = max(etas) if etas else float("nan")
        cap_txt = f"{cap:.2e}" if cap != float("inf") else "none"
        print(f"{eps:>12.3f} {cap_txt:>14} {outcome:<22} {max_eta:>13.2e}")

    print("\nthe eps = 0 run ignores eta0 after the first outer step; the "
          "secant takes over and the floor does the rest.")


if __name__ == "__main__":
    main()

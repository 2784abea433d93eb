"""Ordinal embedding from planted triplet comparisons.

Plants low-dimensional points, draws noisy "item i is closer to j than
to k" comparisons, holds out a test split, and fits a Gram matrix by
minimizing the logistic triplet loss plus a trace penalty.  Prints the
held-out violation rate as training proceeds for the adaptive
variance-reduced solver and the plain stochastic baseline.
"""

import argparse

from factored_sdp.init import init_scheme3
from factored_sdp.objective import (
    TripletProblem,
    estimate_smoothness,
    planted_triplets,
    probe_pairs,
    split_triplets,
    test_error,
)
from factored_sdp.solvers import SolverConfig, run_sfgd, run_svrg
from factored_sdp.stepsize import sbb


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--p", type=int, default=50, help="number of items")
    ap.add_argument("--dim", type=int, default=2, help="planted dimension")
    ap.add_argument("--count", type=int, default=4000)
    ap.add_argument("--noise", type=float, default=0.05)
    ap.add_argument("--epochs", type=int, default=40)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    _, triplets = planted_triplets(args.p, args.dim, args.count, args.seed,
                                   noise=args.noise)
    train, test = split_triplets(triplets, 0.8, args.seed + 1)
    obj = TripletProblem(args.p, train, lam=1e-2)
    print(f"{args.p} items in {args.dim}-d, {len(train)} train / "
          f"{len(test)} test triplets, label noise {args.noise:.0%}")

    U0 = init_scheme3(args.p, args.dim, 1.0, args.seed + 7)
    metric = lambda X: test_error(X, test)

    L_hat, _ = estimate_smoothness(
        obj, probe_pairs(args.p, args.dim, seed=args.seed + 2))

    records = {}
    cfg = SolverConfig(algorithm="svrg-sbb", r=args.dim, epochs=args.epochs,
                       seed=args.seed, m=obj.n,
                       schedule=sbb(0.02 * L_hat, obj.n, eta0=1.0))
    records["svrg-sbb"] = run_svrg(obj, cfg, U0, metric=metric)
    cfg = SolverConfig(algorithm="sfgd", r=args.dim, epochs=args.epochs,
                       seed=args.seed, eta0=2.0, t0=float(obj.n))
    records["sfgd"] = run_sfgd(obj, cfg, U0, metric=metric)

    print(f"\n{'epoch':>5}  {'svrg-sbb':>9}  {'sfgd':>9}   (held-out violation rate)")
    stride = max(1, args.epochs // 10)
    rows = {name: {row.epoch: row for row in rec.rows}
            for name, rec in records.items()}
    for epoch in list(range(0, args.epochs, stride)) + [args.epochs]:
        a = rows["svrg-sbb"][epoch].metric
        b = rows["sfgd"][epoch].metric
        print(f"{epoch:>5}  {a:>9.3f}  {b:>9.3f}")

    print(f"\nchance level is ~0.5; the label-noise floor is {args.noise:.3f}. "
          "Both runs recover the\nordering well below chance, the "
          "variance-reduced one in fewer epochs; the trace\npenalty that "
          "keeps the adaptive step stable also biases distances, so the "
          "floor\nitself stays out of reach.  Shrinking lam below ~3e-3 "
          "hands the secant step a\nsaturated loss and it breaks out "
          "(see step_size_breakout.py).")


if __name__ == "__main__":
    main()

"""Workload definitions, shared by run.py and workloads.py.

Plain data and argv builders only: run.py imports this module and must
stay small, because a child started from it inherits its peak RSS.

The criterion instances are fixed (dataset seed 0, as in the acceptance
suite); the workload seed selects the trial seeds, i.e. the init
direction, the train/test split and the solvers' sampling.
"""

import os

WORKLOADS = ("sensing-p100", "embed-p50", "cli-sensing")
INSTANCE_SEED = 0
SENSING_TARGET = 3e-6

# Trials are (algorithm, solver parameters, check level).  Schedules are
# ("fixed", eta), ("sbb", eps, eta0) or ("sbb_cap", cap): eta0 = cap and
# eps = 1 / (m cap), so the stabilized step never exceeds cap.
# Sensing runs the criterion-01 epoch counts and steps.  Embed runs the
# criterion-10 sfgd and fgd steps and its epoch counts as caps; each embed
# trial stops at its target.  Its svrg-sbb is capped at 0.5, a fixed step
# that reached the target on every init tried: the criterion's eta0 = 1
# with eps = 0.02 L_hat diverged on 10 of 150 trial seeds.
SPECS = {
    "sensing-p100": {
        "full": {
            "p": 100, "r": 5, "n": 1000, "radius": 0.5345, "probes": 8,
            "region_samples": 64, "target": SENSING_TARGET, "seeds_per_round": 2,
            "trials": [
                ("svrg-sbb", {"epochs": 56, "schedule": ("sbb", 50.0, 1e-5)}, 1e-6),
                ("svrg-fixed", {"epochs": 62, "schedule": ("fixed", 1.75e-5)}, 1e-6),
                ("sfgd", {"epochs": 88, "eval_every": 2, "eta0": 4e-5, "t0": 1e4}, 3e-6),
                ("fgd", {"epochs": 176, "eta": 5e-3}, 3e-6),
                ("projgd", {"epochs": 20, "eta_per_L": 0.5}, 1e3),
            ],
        },
        "tiny": {
            "p": 12, "r": 2, "n": 120, "radius": 0.1, "probes": 8,
            "region_samples": 4, "target": SENSING_TARGET, "seeds_per_round": 1,
            "trials": [
                ("svrg-sbb", {"epochs": 3, "schedule": ("sbb", 50.0, 1e-5)}, 1e-6),
                ("svrg-fixed", {"epochs": 3, "schedule": ("fixed", 1.75e-5)}, 1e-6),
                ("sfgd", {"epochs": 4, "eval_every": 2, "eta0": 4e-5, "t0": 1e4}, 3e-6),
                ("fgd", {"epochs": 3, "eta": 5e-3}, 3e-6),
                ("projgd", {"epochs": 3, "eta_per_L": 0.5}, 1e3),
            ],
        },
    },
    "embed-p50": {
        "full": {
            "p": 50, "dim": 2, "count": 4000, "lam": 1e-2, "split": 0.8,
            "probes": 8, "target": 0.1, "seeds_per_round": 10, "trials": [
                ("svrg-sbb", {"epochs": 40, "schedule": ("sbb_cap", 0.5)}, 0.1),
                ("sfgd", {"epochs": 60, "eta0": 2.0, "t0": 3200.0}, None),
                ("fgd", {"epochs": 60, "eta": 40.0}, None),
            ],
        },
        "tiny": {
            "p": 15, "dim": 2, "count": 400, "lam": 1e-2, "split": 0.8,
            "probes": 8, "target": 0.1, "seeds_per_round": 1, "trials": [
                ("svrg-sbb", {"epochs": 3, "schedule": ("sbb_cap", 0.5)}, 0.1),
                ("sfgd", {"epochs": 3, "eta0": 2.0, "t0": 3200.0}, None),
                ("fgd", {"epochs": 3, "eta": 40.0}, None),
            ],
        },
    },
    "cli-sensing": {
        "full": {"p": 60, "r": 4, "seeds": 4, "epochs": 40, "eps": 30,
                 "algos": "svrg-fixed,svrg-sbb,fgd", "jobs": 2},
        "tiny": {"p": 12, "r": 2, "seeds": 2, "epochs": 3, "eps": 30,
                 "algos": "svrg-fixed,svrg-sbb,fgd", "jobs": 2},
    },
}


def trial_seed(seed, index):
    """Trial seed ``index`` of workload seed ``seed``; rounds never share one."""
    return 1000 * seed + index


def cli_jobs(spec):
    """Concurrent trials, capped so that trials x BLAS threads (1) <= nproc."""
    return min(spec["jobs"], len(os.sched_getaffinity(0)))


def cli_argv(spec, seed, index, out, jobs=None):
    """``factored-sdp sensing`` flags of round ``index``."""
    return [
        "sensing", "--out", str(out), "--p", str(spec["p"]), "--r", str(spec["r"]),
        "--instance-seed", str(INSTANCE_SEED),
        "--seeds", str(spec["seeds"]),
        "--seed-base", str(trial_seed(seed, spec["seeds"] * index)),
        "--epochs", str(spec["epochs"]), "--algos", spec["algos"],
        "--eps", str(spec["eps"]), "--jobs", str(jobs or cli_jobs(spec)),
    ]


def constants_argv(spec):
    """``factored-sdp constants`` with the same instance flags: the set-up chain alone."""
    return ["constants", "--p", str(spec["p"]), "--r", str(spec["r"]),
            "--instance-seed", str(INSTANCE_SEED)]

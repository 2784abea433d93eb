"""One round of a benchmark workload, run in a fresh process by run.py.

A round builds its inputs from the workload seed, runs the set-up chain
and the solver trials through the factored_sdp public API, checks each
trial, and writes one JSON object to ``--result``.  With ``--trace 1``
the calls into each module are timed by perfbench.tracing and the
per-layer figures are added.  run.py is the entry point; the command
line here is internal:

    python3 perfbench/workloads.py --workload sensing-p100 --seed 0 \\
        --round 0 --trace 0 --scale full --result OUT.json [--setup-only]
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

_T_IMPORT = time.perf_counter()
import factored_sdp.cli as cli  # noqa: E402

CLI_IMPORT_S = time.perf_counter() - _T_IMPORT

from factored_sdp import linalg, objective, solvers, stepsize, theory  # noqa: E402
from factored_sdp import init as inits  # noqa: E402

from tracing import Tracer, TracedObjective, operand_mb  # noqa: E402

if Path(cli.__file__).resolve().parent.parent != SRC:
    raise SystemExit(f"factored_sdp imported from {cli.__file__}, not {SRC}")

from specs import INSTANCE_SEED, SPECS, cli_argv, trial_seed  # noqa: E402

# Init seeds are offset as in the CLI and the test suite, so trial 0 of
# seed 0 starts where the acceptance suite's trial 0 does.
INIT_SEED_OFFSET = 1_000_003
SOLVER_ALGOS = ("svrg-sbb", "svrg-fixed", "sfgd", "fgd", "projgd")


def make_schedule(desc, m):
    kind, *vals = desc
    if kind == "fixed":
        return stepsize.fixed(vals[0])
    if kind == "sbb_cap":
        return stepsize.sbb(1.0 / (m * vals[0]), m, eta0=vals[0])
    return stepsize.sbb(vals[0], m, eta0=vals[1])


class TargetReached(Exception):
    """Raised from the metric callback to stop an embed trial at its target."""


# ---------------------------------------------------------------------------
# inputs (the acceptance suite's generators, so round 0 of seed 0 is its
# trial 0)


def probe_pairs(p, r, seed, n_pairs):
    rng = np.random.default_rng(seed)
    return [
        (linalg.gram(rng.standard_normal((p, r))), linalg.gram(rng.standard_normal((p, r))))
        for _ in range(n_pairs)
    ]


def planted_triplets(p, dim, count, seed):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((p, dim))
    out = []
    while len(out) < count:
        i, j, k = rng.integers(0, p, size=3)
        if i == j or i == k or j == k:
            continue
        dij = float(np.sum((pts[i] - pts[j]) ** 2))
        dik = float(np.sum((pts[i] - pts[k]) ** 2))
        if dij == dik:
            continue
        out.append((i, j, k) if dij < dik else (i, k, j))
    return np.asarray(out, dtype=int)


def split_triplets(triplets, split, seed):
    total = triplets.shape[0]
    n_train = min(max(int(round(split * total)), 1), total)
    perm = np.random.default_rng(seed).permutation(total)
    return triplets[perm[:n_train]], triplets[perm[n_train:]]


# ---------------------------------------------------------------------------
# layers


class Layers:
    """Module entry points, wrapped in spans when a tracer is given."""

    def __init__(self, tracer=None):
        self.tracer = tracer

    def __call__(self, name, fn):
        return fn if self.tracer is None else self.tracer.wrap(name, fn)

    def objective(self, obj):
        return obj if self.tracer is None else TracedObjective(obj, self.tracer)

    def schedule(self, sched):
        if self.tracer is not None:
            sched.next_step = self.tracer.wrap("stepsize.next_step", sched.next_step)
        return sched


def solver_span(obj, config, *args, **kwargs):
    return f"solvers.{config.algorithm}"


SOLVER_FNS = {"sfgd": "run_sfgd", "fgd": "run_fgd", "projgd": "run_projgd"}


def run_trial(layer, obj, algo, params, check, U0, seed, L, target, X_ref=None,
              U_ref=None, test=None):
    """One solver call, timed, checked and summarized; never raises on failure."""
    stamps, values = [], []
    early_stop = test is not None

    def metric(X):
        value = cli.test_error(X, test) if early_stop else 0.0
        stamps.append(time.perf_counter())
        values.append(value)
        if early_stop and value <= target:
            raise TargetReached
        return value

    config = solvers.SolverConfig(
        algorithm=algo, r=U0.shape[1], epochs=params["epochs"], seed=seed,
        eval_every=params.get("eval_every", 1),
        m=obj.n if algo.startswith("svrg") else None,
        schedule=(layer.schedule(make_schedule(params["schedule"], obj.n))
                  if "schedule" in params else None),
        eta=params["eta_per_L"] / L if "eta_per_L" in params else params.get("eta"),
        eta0=params.get("eta0"), t0=params.get("t0"),
    )
    fn = getattr(solvers, SOLVER_FNS.get(algo, "run_svrg"))
    fn = layer(solver_span, fn)
    traced_metric = layer("metric", metric)
    rows, diverged, stopped = None, False, False
    start = time.perf_counter()
    try:
        if algo == "projgd":
            rec = fn(obj, config, linalg.gram(U0), X_ref=X_ref, metric=traced_metric)
        else:
            rec = fn(obj, config, U0, X_ref=X_ref, U_ref=U_ref, metric=traced_metric)
        rows = rec.rows
    except TargetReached:
        stopped = True
    except solvers.DivergedError as err:
        rows, diverged = err.record.rows, True
    solver_s = time.perf_counter() - start

    if stopped:
        epochs_run = len(stamps) - 1
        sample_grads = epochs_run * solvers.epoch_cost(algo, obj.n, config.m)
        levels = values
    else:
        epochs_run = rows[-1].epoch
        sample_grads = rows[-1].sample_grads
        levels = [row.metric if early_stop else row.error_X for row in rows]
    hit = next((j for j, v in enumerate(levels) if v is not None and v <= target), None)
    has_target = algo != "projgd"
    if has_target and hit is not None:
        ttt = stamps[hit] - start
        epochs_to = hit if early_stop else rows[hit].epoch
    else:
        ttt, epochs_to = solver_s, epochs_run

    why = None
    if diverged:
        why = f"diverged at epoch {epochs_run}"
    elif algo == "projgd":
        fs = [row.f for row in rows]
        if not all(math.isfinite(f) for f in fs) or fs[-1] > fs[0] / check:
            why = f"f fell from {fs[0]:.3e} to {fs[-1]:.3e}, less than {check:g}x"
    elif check is not None and algo.startswith("svrg") and not early_stop:
        if not levels[-1] <= check:
            why = f"final error_X {levels[-1]:.3e} > {check:g}"
    elif check is not None and not any(v is not None and v <= check for v in levels):
        why = f"never reached {check:g}"
    final = levels[-1] if levels else float("nan")
    return {
        "algo": algo, "seed": seed, "solver_s": solver_s, "has_target": has_target,
        "ttt_s": ttt, "epochs_to_target": epochs_to,
        "epochs_run": epochs_run, "m": config.m, "sample_grads": sample_grads,
        "final_error": final if final is None or math.isfinite(final) else None,
        "diverged": diverged, "ok": why is None, "why": why,
    }


# ---------------------------------------------------------------------------
# library rounds


def sensing_round(spec, seed, index, layer, setup_only=False):
    p, r = spec["p"], spec["r"]
    prob = layer("objective.generate", objective.sensing_generate)(
        p, r, spec["n"], INSTANCE_SEED)
    _, U_r = linalg.truncated_approx(prob.Xstar, r)
    L, mu = layer("objective.smoothness", objective.estimate_smoothness)(
        prob, probe_pairs(p, r, INSTANCE_SEED + 1, spec["probes"]))
    gamma0 = 2.0 * (math.sqrt(2.0) - 1.0) / (3.0 * (L / mu))
    stats = layer("theory.region_stats", theory.estimate_region_stats)(
        prob, U_r, gamma0, n_samples=spec["region_samples"], seed=INSTANCE_SEED)
    layer("theory.constants", theory.compute_constants)(L, mu, prob.Xstar, r, stats)
    obj = layer.objective(prob)
    trials, setup_s = [], None
    k = spec["seeds_per_round"]
    for j in range(k):
        tseed = trial_seed(seed, k * index + j)
        U0 = layer("init", inits.init_perturbed_optimum)(
            prob.Ustar, spec["radius"], INIT_SEED_OFFSET + tseed)
        if setup_s is None:
            setup_s = time.perf_counter() - _T0
            if setup_only:
                return {"setup_s": setup_s}
        trials += [
            run_trial(layer, obj, algo, params, check, U0, tseed, L, spec["target"],
                      X_ref=prob.Xstar, U_ref=prob.Ustar)
            for algo, params, check in spec["trials"]
        ]
    return {"setup_s": setup_s, "trials": trials, "operand_mb": operand_mb(prob),
            "shape": [p, r]}


def embed_round(spec, seed, index, layer, setup_only=False):
    p, dim, lam = spec["p"], spec["dim"], spec["lam"]
    T = planted_triplets(p, dim, spec["count"], INSTANCE_SEED)
    full = layer("objective.generate", objective.TripletProblem)(p, T, lam)
    L, _ = layer("objective.smoothness", objective.estimate_smoothness)(
        full, probe_pairs(p, dim, INSTANCE_SEED + 1, spec["probes"]))
    trials, setup_s = [], None
    k = spec["seeds_per_round"]
    for j in range(k):
        # split j is the acceptance suite's trial-j split; init and sampling vary
        tseed = trial_seed(seed, k * index + j)
        train, test = split_triplets(T, spec["split"], j)
        prob = layer("objective.generate", objective.TripletProblem)(p, train, lam)
        U0 = layer("init", inits.init_scheme3)(p, dim, 1.0, INIT_SEED_OFFSET + tseed)
        if setup_s is None:
            setup_s = time.perf_counter() - _T0
            if setup_only:
                return {"setup_s": setup_s}
        obj = layer.objective(prob)
        trials += [
            run_trial(layer, obj, algo, params, check, U0, tseed, L, spec["target"],
                      test=test)
            for algo, params, check in spec["trials"]
        ]
    return {"setup_s": setup_s, "trials": trials, "operand_mb": operand_mb(prob),
            "shape": [p, dim]}


LIBRARY_ROUNDS = {"sensing-p100": sensing_round, "embed-p50": embed_round}


# ---------------------------------------------------------------------------
# traced CLI run


def cli_traced(spec, seed, out, tracer):
    """``factored-sdp sensing`` in this process with its module calls traced.

    Returns the exit code, one summary per solver call and the operand size.
    """
    log = []

    def note(config, rec):
        last = rec.rows[-1]
        log.append({"algo": config.algorithm, "m": config.m, "epochs_run": last.epoch,
                    "sample_grads": last.sample_grads, "diverged": rec.diverged})

    def logged(fn):
        def run(obj, config, *args, **kwargs):
            try:
                rec = fn(obj, config, *args, **kwargs)
            except solvers.DivergedError as err:
                note(config, err.record)
                raise
            note(config, rec)
            return rec
        return run

    operand = []

    def generate(*args, **kwargs):
        prob = tracer.wrap("objective.generate", objective.sensing_generate)(*args, **kwargs)
        operand.append(operand_mb(prob))
        return TracedObjective(prob, tracer)

    def schedule(*args, **kwargs):
        sched = stepsize.StepSchedule(*args, **kwargs)
        sched.next_step = tracer.wrap("stepsize.next_step", sched.next_step)
        return sched

    patches = {
        "sensing_generate": generate,
        "estimate_smoothness": tracer.wrap("objective.smoothness", cli.estimate_smoothness),
        "estimate_region_stats": tracer.wrap("theory.region_stats", cli.estimate_region_stats),
        "compute_constants": tracer.wrap("theory.constants", cli.compute_constants),
        "init_perturbed_optimum": tracer.wrap("init", cli.init_perturbed_optimum),
        "StepSchedule": schedule,
    }
    for name in ("run_svrg", "run_fgd", "run_sfgd", "run_projgd"):
        patches[name] = logged(tracer.wrap(solver_span, getattr(cli, name)))
    saved = {name: getattr(cli, name) for name in patches}
    try:
        for name, fn in patches.items():
            setattr(cli, name, fn)
        code = cli.main(cli_argv(spec, seed, 0, out))
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)
    return code, log, sum(operand)


# ---------------------------------------------------------------------------
# per-layer figures


def _median_time(fn, calls, batches=5):
    times = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - start) / calls)
    return sorted(times)[batches // 2]


def linalg_costs(p, r):
    """Standalone per-call cost of the linalg kernels on a workload's shapes."""
    rng = np.random.default_rng(0)
    U, V = rng.standard_normal((p, r)), rng.standard_normal((p, r))
    M = linalg.symmetrize(rng.standard_normal((p, p)))
    return {
        "linalg.gram.us_per_call": 1e6 * _median_time(lambda: linalg.gram(U), 400),
        "linalg.procrustes_dist.us_per_call":
            1e6 * _median_time(lambda: linalg.procrustes_dist(U, V), 200),
        "linalg.proj_psd.ms_per_call": 1e3 * _median_time(lambda: linalg.proj_psd(M), 10),
    }


SOLVE_CATEGORIES = ("objective.full_pass", "objective.eval_full",
                    "objective.sample_grad", "stepsize.next_step", "metric")


def layer_metrics(tracer, runs, solver_wall_s):
    """Per-layer figures from the tracer's totals and the solver-call summaries.

    ``solver_wall_s`` is the solver time measured outside the spans; the
    consistency error compares it with objective + stepsize + metric +
    solver self time.
    """
    totals, edges = tracer.totals(), tracer.edges()

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def busy(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def per_call(name, scale):
        return scale * busy(name) / calls(name) if calls(name) else 0.0

    out = {
        "objective.full_pass.calls": calls("objective.full_pass"),
        "objective.full_pass.busy_s": busy("objective.full_pass"),
        "objective.full_pass.ms_per_call": per_call("objective.full_pass", 1e3),
        "objective.sample_grad.calls": calls("objective.sample_grad"),
        "objective.sample_grad.busy_s": busy("objective.sample_grad"),
        "objective.sample_grad.us_per_call": per_call("objective.sample_grad", 1e6),
        "objective.eval_full.calls": calls("objective.eval_full"),
        "objective.eval_full.busy_s": busy("objective.eval_full"),
        "objective.generate.busy_s": busy("objective.generate"),
        "objective.smoothness.busy_s": busy("objective.smoothness"),
        "stepsize.next_step.calls": calls("stepsize.next_step"),
        "stepsize.next_step.busy_s": busy("stepsize.next_step"),
        "metric.calls": calls("metric"),
        "metric.busy_s": busy("metric"),
        "init.busy_s": busy("init"),
        "theory.region_stats.busy_s": busy("theory.region_stats"),
        "theory.constants.busy_s": busy("theory.constants"),
        "cli.import_s": CLI_IMPORT_S,
    }
    self_total = 0.0
    for algo in SOLVER_ALGOS:
        name = f"solvers.{algo}"
        _, algo_busy, child = totals.get(name, (0, 0.0, 0.0))
        epochs = sum(run["epochs_run"] for run in runs if run["algo"] == algo)
        self_total += algo_busy - child
        out[f"{name}.busy_s"] = algo_busy
        out[f"{name}.self_s"] = algo_busy - child
        out[f"{name}.epoch_ms"] = 1e3 * algo_busy / epochs if epochs else 0.0
    # inner loop = svrg span time outside its full pass, evaluation, step and metric
    svrg = [a for a in SOLVER_ALGOS if a.startswith("svrg")]
    inner_s = sum(
        busy(f"solvers.{a}")
        - sum(edges.get((f"solvers.{a}", c), 0.0) for c in SOLVE_CATEGORIES
              if c != "objective.sample_grad")
        for a in svrg
    )
    steps = sum(run["epochs_run"] * run["m"] for run in runs if run["algo"] in svrg)
    out["solvers.svrg.inner_step_us"] = 1e6 * inner_s / steps if steps else 0.0
    out["solvers.sample_grads"] = sum(run["sample_grads"] for run in runs)
    out["solvers.diverged"] = sum(run["diverged"] for run in runs)
    accounted = sum(busy(c) for c in SOLVE_CATEGORIES) + self_total
    out["trace.consistency_err"] = (
        abs(solver_wall_s - accounted) / solver_wall_s if solver_wall_s else 0.0)
    out["trace.span_violations"] = tracer.violations()
    return out


# ---------------------------------------------------------------------------
# entry point


def machine():
    """numpy and BLAS versions, and one streaming read of a sensing-sized operand."""
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError, AttributeError):
        pass
    A = np.ones((1000, 100, 100))
    A.sum()
    reads = []
    for _ in range(7):
        start = time.perf_counter()
        A.sum()
        reads.append(time.perf_counter() - start)
    return {"numpy": np.__version__, "blas": blas,
            "stream_read_ms": 1e3 * sorted(reads)[3],
            "stream_read_note": f"{A.nbytes / 1e6:.0f} MB summed once, median of 7; "
                                "may be cache-resident when the LLC is larger"}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--result", required=True, help="file for the JSON result")
    parser.add_argument("--out", help="output directory of the traced CLI run")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--machine", action="store_true",
                        help="write the machine block instead of running a round")
    args = parser.parse_args(argv)
    if args.machine:
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump(machine(), fh)
        return 0
    spec = SPECS[args.workload][args.scale]
    tracer = Tracer() if args.trace else None

    if args.workload == "cli-sensing":
        code, runs, operand = cli_traced(spec, args.seed, args.out, tracer)
        # the solver spans are the outermost solver timing available in-process
        wall = sum(tracer.totals().get(f"solvers.{a}", (0, 0.0))[1] for a in SOLVER_ALGOS)
        result = {"exit_code": code, "layers": layer_metrics(tracer, runs, wall)}
        result["layers"].update(linalg_costs(spec["p"], spec["r"]))
        result["layers"]["objective.operand_mb"] = operand
    else:
        layer = Layers(tracer)
        result = LIBRARY_ROUNDS[args.workload](
            spec, args.seed, args.round, layer, setup_only=args.setup_only)
        if tracer is not None:
            wall = sum(t["solver_s"] for t in result["trials"])
            result["layers"] = layer_metrics(tracer, result["trials"], wall)
            result["layers"].update(linalg_costs(*result["shape"]))
            result["layers"]["objective.operand_mb"] = result["operand_mb"]
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Closed-loop batch benchmark of the factored_sdp solvers.

One client, one process at a time: every round of a workload runs in a
fresh child process and the next starts only after it exits.  Rounds
repeat while one more round of the mean length so far fits in
``--seconds``; there is always at least one.  With
``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` an
untraced and a traced round give the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 perfbench/run.py --workload sensing-p100 --seed 0 --seconds 20 --trace 0

Run it from any directory of a checkout; it builds nothing and imports
the package from the checkout's ``src``.  See perfbench/README.md.
"""

import argparse
import csv
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from specs import SENSING_TARGET, SPECS, WORKLOADS, cli_argv, cli_jobs, constants_argv

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
# One BLAS thread per trial: the library workloads are one client in one
# thread, and cli-sensing runs `jobs` trial threads, so the thread total
# is jobs x 1 <= nproc.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
CLI_MAIN = "import sys; from factored_sdp.cli import entrypoint; entrypoint()"

# name: (unit, better); the order is the print order.
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "time_to_target_s": ("s", "lower"),
    "sample_grads_per_s": ("1/s", "higher"),
    "epochs_to_target": ("count", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
ALGOS = ("svrg-sbb", "svrg-fixed", "sfgd", "fgd", "projgd")
PER_LAYER = {
    "machine.stream_read_ms": ("ms", "lower"),
    "objective.full_pass.calls": ("count", "lower"),
    "objective.full_pass.busy_s": ("s", "lower"),
    "objective.full_pass.ms_per_call": ("ms", "lower"),
    "objective.full_pass.floor_ratio": ("ratio", "lower"),
    "objective.sample_grad.calls": ("count", "lower"),
    "objective.sample_grad.busy_s": ("s", "lower"),
    "objective.sample_grad.us_per_call": ("us", "lower"),
    "objective.eval_full.calls": ("count", "lower"),
    "objective.eval_full.busy_s": ("s", "lower"),
    "objective.operand_mb": ("MB", "lower"),
    "objective.generate.busy_s": ("s", "lower"),
    "objective.smoothness.busy_s": ("s", "lower"),
    **{f"solvers.{a}.{k}": (u, "lower") for a in ALGOS
       for k, u in (("epoch_ms", "ms"), ("busy_s", "s"), ("self_s", "s"))},
    "solvers.svrg.inner_step_us": ("us", "lower"),
    "solvers.sample_grads": ("count", "higher"),
    "solvers.diverged": ("count", "lower"),
    "stepsize.next_step.calls": ("count", "lower"),
    "stepsize.next_step.busy_s": ("s", "lower"),
    "metric.calls": ("count", "lower"),
    "metric.busy_s": ("s", "lower"),
    "linalg.gram.us_per_call": ("us", "lower"),
    "linalg.procrustes_dist.us_per_call": ("us", "lower"),
    "linalg.proj_psd.ms_per_call": ("ms", "lower"),
    "init.busy_s": ("s", "lower"),
    "theory.region_stats.busy_s": ("s", "lower"),
    "theory.constants.busy_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.output_bytes": ("bytes", "lower"),
    "cli.jobs1_wall_s": ("s", "lower"),
    "cli.jobs_speedup": ("ratio", "higher"),
    "trace.overhead_s": ("s", "lower"),
    "trace.span_violations": ("count", "lower"),
    "trace.consistency_err": ("ratio", "lower"),
}
# Traced-run bounds: spans nest, and objective + stepsize + metric +
# solver self time account for the solver wall measured outside them.
MAX_CONSISTENCY_ERR = 0.01


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed trial)."""


# ---------------------------------------------------------------------------
# child processes


def child_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(argv, deadline):
    """Run a child to completion; returns (exit code, wall s, peak RSS MB)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget spent before the next child")
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                            stdout=subprocess.DEVNULL, stdin=subprocess.DEVNULL)
    timer = threading.Timer(remaining, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if time.monotonic() >= deadline:
        raise BenchError(f"child {argv[1:3]} ran past the time budget")
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def library_child(args, index, tmp, deadline, trace=0, setup_only=False):
    result = tmp / f"round{index}-{trace}-{int(setup_only)}.json"
    argv = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--round", str(index), "--trace", str(trace),
            "--scale", args.scale, "--result", str(result)]
    if setup_only:
        argv.append("--setup-only")
    code, wall, rss = spawn(argv, deadline)
    if code != 0:
        raise BenchError(f"workload child exited {code}")
    with open(result, encoding="utf-8") as fh:
        out = json.load(fh)
    out.update(wall_s=wall, peak_rss_mb=rss)
    return out


def cli_child(cli_args, deadline):
    return spawn([sys.executable, "-c", CLI_MAIN] + cli_args, deadline)


# ---------------------------------------------------------------------------
# machine block


def machine_block(args, tmp, deadline):
    """Provenance of a result; numpy, BLAS and the stream read come from a child."""
    out = tmp / "machine.json"
    code, _, _ = spawn([sys.executable, str(HERE / "workloads.py"), "--workload",
                        args.workload, "--seed", str(args.seed), "--machine",
                        "--result", str(out)], deadline)
    if code != 0:
        raise BenchError(f"machine probe exited {code}")
    with open(out, encoding="utf-8") as fh:
        block = json.load(fh)
    llc = None
    try:
        levels = sorted(
            (int((d / "level").read_text()), (d / "size").read_text().strip())
            for d in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
        llc = levels[-1][1] if levels else None
    except (OSError, ValueError):
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    block.update({
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "child_thread_env": THREAD_ENV,
        "llc": llc,
        "git_commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
    })
    return block


# ---------------------------------------------------------------------------
# per-round figures


def library_figures(rnd):
    trials = rnd["trials"]
    targeted = [t for t in trials if t["has_target"]]
    solver_s = sum(t["solver_s"] for t in trials)
    finals = [t["final_error"] for t in trials if t["algo"].startswith("svrg")]
    return {
        "wall_s": rnd["wall_s"],
        "time_to_target_s": sum(t["ttt_s"] for t in targeted),
        "sample_grads_per_s": sum(t["sample_grads"] for t in trials) / solver_s,
        "epochs_to_target": sum(t["epochs_to_target"] for t in targeted),
        "peak_rss_mb": rnd["peak_rss_mb"],
        "final_error": None if None in finals else max(finals),
    }


def read_cli_outputs(out_dir, spec, wall_s, setup_s, code):
    """Figures and checks of one ``factored-sdp sensing`` run from its CSVs."""
    attempted = len(spec["algos"].split(",")) * spec["seeds"]
    if not (out_dir / "summary.csv").is_file():
        raise BenchError(f"factored-sdp sensing wrote no summary (exit code {code})")
    curves = {}
    with open(out_dir / "curves.csv", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            curves.setdefault((row["algorithm"], row["seed"]), []).append(row)
    grads_total = grads_to = epochs_to = 0
    for rows in curves.values():
        rows.sort(key=lambda row: int(row["epoch"]))
        hit = next((row for row in rows if float(row["error_X"]) <= SENSING_TARGET), rows[-1])
        grads_total += int(rows[-1]["sample_grads"])
        grads_to += int(hit["sample_grads"])
        epochs_to += int(hit["epoch"])
    failed, why, finals = 0, [], []
    with open(out_dir / "summary.csv", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            if not row["algorithm"].startswith("svrg"):
                continue
            finals.append(float(row["median_final_error_X"]))
            missed = int(row["seeds_total"]) - int(row["seeds_reached"])
            if missed:
                failed += missed
                why.append(f"{row['algorithm']}: {missed} seeds missed {SENSING_TARGET:g}")
    if code != 0:
        failed, why = attempted, why + [f"exit code {code}: every trial counts as failed"]
    solver_s = wall_s - setup_s
    figures = {
        "wall_s": wall_s,
        "time_to_target_s": solver_s * grads_to / grads_total,
        "sample_grads_per_s": grads_total / solver_s,
        "epochs_to_target": epochs_to,
        "final_error": max(finals) if finals else None,
        "output_bytes": sum(f.stat().st_size for f in out_dir.iterdir() if f.is_file()),
    }
    return figures, attempted, failed, why


# ---------------------------------------------------------------------------
# runs


def another_round(done, start, seconds):
    """True for the first round, then while one more mean-length round fits."""
    elapsed = time.perf_counter() - start
    return done == 0 or elapsed + elapsed / done <= seconds


def library_run(args, tmp, deadline):
    rounds, start = [], time.perf_counter()
    while another_round(len(rounds), start, args.seconds):
        rounds.append(library_child(args, len(rounds), tmp, deadline))
    setups = [r["setup_s"] for r in rounds]
    while len(setups) < SETUP_SAMPLES:
        setups.append(library_child(args, len(setups), tmp, deadline, setup_only=True)["setup_s"])
    figures = [library_figures(r) for r in rounds]
    trials = [t for r in rounds for t in r["trials"]]
    return figures, setups, trials


def library_trace(args, tmp, deadline, stream_ms):
    plain = library_child(args, 0, tmp, deadline)
    traced = library_child(args, 0, tmp, deadline, trace=1)
    layers = traced["layers"]
    layers.update({
        "machine.stream_read_ms": stream_ms,
        "objective.full_pass.floor_ratio": layers["objective.full_pass.ms_per_call"] / stream_ms,
        "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
        "cli.output_bytes": 0, "cli.jobs1_wall_s": 0.0, "cli.jobs_speedup": 0.0,
    })
    return layers, plain["trials"] + traced["trials"]


def cli_run(args, spec, tmp, deadline):
    figures, setups, attempted, failed, why = [], [], 0, 0, []
    start = time.perf_counter()
    while another_round(len(figures), start, args.seconds):
        index = len(figures)
        _, setup_s, _ = cli_child(constants_argv(spec), deadline)
        out = tmp / f"cli{index}"
        code, wall, rss = cli_child(cli_argv(spec, args.seed, index, out), deadline)
        fig, n, bad, msgs = read_cli_outputs(out, spec, wall, setup_s, code)
        attempted, failed, why = attempted + n, failed + bad, why + msgs
        fig["peak_rss_mb"] = rss
        figures.append(fig)
        setups.append(setup_s)
        shutil.rmtree(out, ignore_errors=True)
    return figures, setups, attempted, failed, why


def cli_trace(args, spec, tmp, deadline, stream_ms):
    jobs = cli_jobs(spec)
    out = tmp / "plain"
    code, wall, _ = cli_child(cli_argv(spec, args.seed, 0, out, jobs), deadline)
    fig, attempted, failed, why = read_cli_outputs(out, spec, wall, 0.0, code)
    code1, wall1, _ = cli_child(cli_argv(spec, args.seed, 0, tmp / "jobs1", 1), deadline)
    result = tmp / "traced.json"
    code_t, wall_t, _ = spawn(
        [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--trace", "1", "--scale", args.scale,
         "--result", str(result), "--out", str(tmp / "traced")], deadline)
    if code_t != 0:
        raise BenchError(f"traced child exited {code_t}")
    with open(result, encoding="utf-8") as fh:
        traced = json.load(fh)
    for label, c in (("jobs 1 run", code1), ("traced run", traced["exit_code"])):
        attempted += 1
        if c != 0:
            failed, why = failed + 1, why + [f"{label}: exit code {c}"]
    layers = traced["layers"]
    layers.update({
        "machine.stream_read_ms": stream_ms,
        "objective.full_pass.floor_ratio": layers["objective.full_pass.ms_per_call"] / stream_ms,
        "trace.overhead_s": wall_t - wall,
        "cli.output_bytes": fig["output_bytes"],
        "cli.jobs1_wall_s": wall1,
        "cli.jobs_speedup": wall1 / wall,
    })
    return layers, attempted, failed, why


# ---------------------------------------------------------------------------
# report


def summarize(figures, setups):
    """Median of each end-to-end figure over rounds; setup over its samples."""
    out = {}
    for name in END_TO_END:
        values = setups if name == "setup_s" else [f[name] for f in figures]
        out[name] = {"value": statistics.median(values), "unit": END_TO_END[name][0],
                     "n": len(values), "min": min(values), "max": max(values)}
    finals = [f["final_error"] for f in figures]
    out["final_error"] = {"value": None if None in finals else max(finals), "unit": "ratio",
                          "n": len(finals)}
    return out


def per_layer_metrics(layers):
    return {k: {"value": layers[k], "unit": PER_LAYER[k][0]} for k in PER_LAYER}


def trial_checks(trials):
    failed = [t for t in trials if not t["ok"]]
    return len(trials), len(failed), [f"{t['algo']} seed {t['seed']}: {t['why']}" for t in failed]


def trace_ok(layers):
    return (layers["trace.span_violations"] == 0
            and layers["trace.consistency_err"] <= MAX_CONSISTENCY_ERR)


def emit(args, machine, attempted, failed, why, metrics, extra=None, traced_ok=True):
    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"scale={args.scale}")
    print("machine " + json.dumps(machine, sort_keys=True))
    if extra:
        print("detail " + json.dumps(extra, sort_keys=True))
    for name, m in metrics.items():
        value = m["value"]
        spread = f"  n={m['n']} min={m['min']:.6g} max={m['max']:.6g}" if "min" in m else ""
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:40s} {shown:>14s} {m['unit']:<6s}{spread}")
    print(f"{'failed_frac':40s} {failed / attempted:>14.6g} ratio   "
          f"({failed} of {attempted} trials failed their check)")
    for line in why:
        print(f"  failed: {line}")
    if not traced_ok:
        print("  trace check failed: a child span outlasted its parent, or objective + "
              "stepsize + metric + solver self time missed the solver wall by more than "
              f"{MAX_CONSISTENCY_ERR:.0%}")
    gated = END_TO_END if args.trace == 0 else PER_LAYER
    result = {
        "correct": failed == 0 and traced_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k]["value"], "unit": metrics[k]["unit"]}
                    for k in gated},
    }
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (0 by default; 1 is the second seed)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="start rounds while the next is expected to end within this")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "factored_sdp" / "__init__.py").is_file():
        print(f"error: no factored_sdp package under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        machine = machine_block(args, tmp, deadline)
        stream_ms = machine["stream_read_ms"]
        spec = SPECS[args.workload][args.scale]
        if args.workload == "cli-sensing":
            jobs = cli_jobs(spec)
            machine["cli_threads"] = {"jobs": jobs, "blas_threads": 1, "threads_total": jobs}
        if args.workload == "cli-sensing" and args.trace == 0:
            figures, setups, attempted, failed, why = cli_run(args, spec, tmp, deadline)
            emit(args, machine, attempted, failed, why, summarize(figures, setups))
        elif args.workload == "cli-sensing":
            layers, attempted, failed, why = cli_trace(args, spec, tmp, deadline, stream_ms)
            emit(args, machine, attempted, failed, why, per_layer_metrics(layers),
                 traced_ok=trace_ok(layers))
        elif args.trace == 0:
            figures, setups, trials = library_run(args, tmp, deadline)
            attempted, failed, why = trial_checks(trials)
            emit(args, machine, attempted, failed, why, summarize(figures, setups),
                 {"trials": trials})
        else:
            layers, trials = library_trace(args, tmp, deadline, stream_ms)
            attempted, failed, why = trial_checks(trials)
            emit(args, machine, attempted, failed, why, per_layer_metrics(layers),
                 traced_ok=trace_ok(layers))
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line harness around the solvers.

Subcommands: ``sensing`` (synthetic matrix-sensing benchmark), ``embed``
(ordinal embedding from a triplet file), ``gen-triplets`` (plant a
synthetic triplet dataset), ``constants`` (audit the convergence
constants of a sensing instance), and ``replay`` (re-run a saved
``run.json`` manifest).  Every run directory gets a manifest whose
``replay_argv`` reproduces the CSVs byte-for-byte: all derived defaults
(step sizes, inner-loop lengths, ranks) are resolved to explicit flag
values before the manifest is written, and output bytes never depend on
--jobs or the output path.  The manifest lists every option of the
subcommand's parser except --out and --jobs, in parser order; for the
solver commands it also carries a ``timing`` block (the job count, the
pool used and each trial's seconds, and for sensing the threads its
snapshots split over) that replay ignores.  With --jobs above 1 the
(algorithm, seed) trials run in forked worker processes that share the
operand copy-on-write; where the platform cannot fork they run serially.
The rules that build an experiment (planted triplets, the
train/test split, the held-out test error, the smoothness probe pairs)
live in ``objective``, and epochs-to-threshold and the algorithm table in
``solvers``, so the CLI, the tests and the demos build the same instances.

Exit codes: 0 success; 3 solver divergence (partial CSVs are still written,
the divergence row marked by NaN metrics); 2 bad input, with one ``error:``
line: a usage error or flag range (``argument --flag: ...``, from the parser,
also when replaying), a check between flags (before any instance is drawn), a
malformed triplet file or manifest, an ``embed --split`` leaving no test
triplet, an overflowing init radius, a secant denominator of exactly zero, an
array too large for the machine's memory (``MemoryError``), or a forked trial
worker that died without a result.
"""

import argparse
import csv
import json
import math
import os
import re
import statistics
import sys
import time

import numpy as np

from .init import init_perturbed_optimum, init_scheme3
from .linalg import truncated_approx
from .objective import (
    TripletProblem,
    estimate_smoothness,
    planted_triplets,
    probe_pairs,
    sensing_generate,
    snapshot_threads,
    split_triplets,
    test_error,
    train_size,
)
from .solvers import (
    ALGORITHMS,
    DivergedError,
    SolverConfig,
    epochs_to,
    run,
    run_fgd,
    run_projgd,
    run_sfgd,
    run_svrg,
)
from .stepsize import FIXED, StallError, StepSchedule
from .theory import (
    compute_constants,
    constants_report_text,
    constants_rows,
    estimate_region_stats,
    region_gamma0,
)

# Trial inits draw from their own seed stream. Offsetting keeps trial seed
# s from replaying the dataset seed's generator: with a shared seed the
# random init would reproduce the planted factor draw (same shape, same
# stream) and trial 0 would start at the solution.
INIT_SEED_OFFSET = 1_000_003


class CliError(ValueError):
    """Bad flag combination or input content, or a dead trial worker; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise CliError; subparsers inherit it."""

    def error(self, message):
        raise CliError(message)


class TripletFormatError(CliError):
    """Malformed triplet file; ``line_no`` is None for a whole-file fault."""

    def __init__(self, line_no, message):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")


def read_triplets(path, p=None):
    """Parse the triplet file format: ``i j k`` per line, ``#`` comments.

    Returns (triplets array, p).  When ``p`` is None it is inferred as
    max index + 1.  An index is ASCII decimal digits, ``-?[0-9]+``.
    Malformed lines raise TripletFormatError carrying the 1-based line
    number, and a file that is not UTF-8 one naming it.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise TripletFormatError(None, f"{path}: not a UTF-8 text file")
    triplets = []
    for line_no, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        parts = text.split()
        if len(parts) != 3:
            raise TripletFormatError(
                line_no, f"expected three indices, got {len(parts)} fields"
            )
        if not all(re.fullmatch(r"-?[0-9]+", part) for part in parts):
            raise TripletFormatError(line_no, f"non-integer index in {text!r}")
        i, j, k = (int(part) for part in parts)
        if min(i, j, k) < 0:
            raise TripletFormatError(line_no, "negative index")
        if max(i, j, k) > np.iinfo(np.int_).max:
            raise TripletFormatError(line_no, f"index {max(i, j, k)} is too large")
        if p is not None and max(i, j, k) >= p:
            raise TripletFormatError(
                line_no, f"index {max(i, j, k)} out of range for p={p}"
            )
        if i == j or i == k or j == k:
            raise TripletFormatError(line_no, "indices must be pairwise distinct")
        triplets.append((i, j, k))
    if not triplets:
        raise TripletFormatError(None, f"{path}: no triplets in file")
    T = np.asarray(triplets, dtype=int)
    return T, (p if p is not None else int(T.max()) + 1)


# ---------------------------------------------------------------------------
# output helpers


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def _write_manifest(args, timing=None):
    """Write run.json, whose replay_argv repeats every option of ``args.parser``.

    Options but --out/--jobs follow parser order with the value the command
    resolved onto ``args``; one still unset (None) is left out.  Floats are
    written by ``repr``, per-algorithm maps as comma lists in --algos order.
    ``timing``, when given, is stored under its own key.
    """
    argv = [args.command]
    for action in args.parser._actions:
        value = getattr(args, action.dest, None)
        if value is None or action.dest in ("out", "jobs"):
            continue
        if isinstance(value, dict):
            value = ",".join(repr(value[a]) for a in args.algos)
        elif isinstance(value, list):
            value = ",".join(value)
        argv += [action.option_strings[0], _cell(value)]
    manifest = {"command": args.command, "replay_argv": argv}
    if timing is not None:
        manifest["timing"] = timing
    with open(os.path.join(args.out, "run.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True))
        fh.write("\n")


def _write_plot_script(out_dir, algos, ylabel, logscale, column):
    lines = [
        "# gnuplot script for the curves.csv in this directory (data-only output;",
        "# render with: gnuplot -p plot.gp)",
        'set datafile separator ","',
        "set key outside",
        'set xlabel "epoch"',
        f'set ylabel "{ylabel}"',
    ]
    if logscale:
        lines.append("set logscale y")
    lines.append(f'algos = "{" ".join(algos)}"')
    lines.append(
        'plot for [i=1:words(algos)] "curves.csv" skip 1 \\\n'
        f"  using 3:(strcol(1) eq word(algos,i) ? column({column}) : 1/0) \\\n"
        "  with points pt 7 ps 0.4 title word(algos,i)"
    )
    with open(os.path.join(out_dir, "plot.gp"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# The trial closures of the open worker pool, by index.  They hold the
# objective and, under an outside tracer, wrapped callables, so they cannot
# be pickled: a forked worker inherits this list, and the operand with it,
# copy-on-write.  The executor forks every worker at the first submit,
# before it starts its own threads.
_FORKED_TRIALS = []


def _timed(trial):
    """The trial's record and its seconds."""
    start = time.perf_counter()
    record = trial()
    return record, time.perf_counter() - start


def _forked_trial(index):
    return _timed(_FORKED_TRIALS[index])


def _run_parallel(trials, jobs):
    """Run the trial closures; return their records in input order and the timing.

    With more than one job and more than one trial they run in forked worker
    processes through ``Executor.map``, else (or where the platform cannot
    fork) serially.  The first failing trial's exception is raised here; a
    worker that ends without a result (killed, say, by the out-of-memory
    killer) raises CliError.  ``timing`` is the run.json block: ``jobs``,
    the ``pool`` used and each trial's ``solver_s``.
    """
    # Imported here, so that importing this module for its helpers alone
    # loads no process-pool machinery.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    if jobs == 1 or len(trials) <= 1 or \
            "fork" not in multiprocessing.get_all_start_methods():
        pool, results = "serial", [_timed(trial) for trial in trials]
    else:
        pool = "fork"
        _FORKED_TRIALS[:] = trials
        try:
            with ProcessPoolExecutor(
                    max_workers=min(jobs, len(trials)),
                    mp_context=multiprocessing.get_context("fork")) as executor:
                results = list(executor.map(_forked_trial, range(len(trials))))
        except BrokenProcessPool as err:
            raise CliError(f"trial worker died: {err}") from None
        finally:
            _FORKED_TRIALS.clear()
    timing = {"jobs": jobs, "pool": pool, "trials": [
        {"algorithm": rec.algorithm, "seed": rec.seed, "solver_s": seconds}
        for rec, seconds in results]}
    return [rec for rec, _ in results], timing


# ---------------------------------------------------------------------------
# shared run machinery


def _parse_algos(text):
    algos = [a.strip() for a in text.split(",") if a.strip()]
    if not algos:
        raise argparse.ArgumentTypeError("needs at least one algorithm")
    for a in algos:
        if a not in ALGORITHMS:
            raise argparse.ArgumentTypeError(
                f"unknown algorithm {a!r}; choose from {', '.join(ALGORITHMS)}"
            )
    if len(set(algos)) != len(algos):
        raise argparse.ArgumentTypeError("contains duplicates")
    return algos


def _per_algo_values(values, algos, flag):
    """The parsed ``flag`` list as a map over ``algos``: one value broadcast, or one each."""
    if values is None:
        return {}
    if len(values) == 1:
        values = values * len(algos)
    if len(values) != len(algos):
        raise CliError(f"argument {flag}: needs one value or {len(algos)} "
                       "comma-separated values")
    return dict(zip(algos, values))


def _resolve_steps(args, defaults, n):
    """Fill --m and --t0 with the sample size ``n``; --eta's steps win over ``defaults``."""
    if args.m is None:
        args.m = n
    if args.t0 is None:
        args.t0 = float(n)
    args.eta = {**defaults, **args.eta}


def _checked(fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, its ValueError (a library range check) as CliError."""
    try:
        return fn(*args, **kwargs)
    except ValueError as err:
        raise CliError(str(err))


def _trial(args, algo, seed, obj, U0, X_ref=None, U_ref=None, metric=None):
    """The (algorithm, seed) trial, a ``solvers.run`` closure returning its record.

    Config and schedule are built now, from the ``ALGORITHMS`` row, so a derived default
    outside their range is a CliError before any trial runs.  A diverged run returns its record.
    """
    row_runner, needs, reads, rule = ALGORITHMS[algo]
    eta = args.eta[algo]
    fields = dict(eta=eta, eta0=eta, t0=args.t0, m=args.m)
    if rule:
        steps = dict(eta=eta) if rule["kind"] == FIXED else dict(eps=args.eps, m=args.m, eta0=eta)
        fields["schedule"] = _checked(StepSchedule, **{**steps, **rule})
    config = _checked(SolverConfig, algorithm=algo, r=U0.shape[1], epochs=args.epochs, seed=seed,
                      eval_every=args.eval_every, **{k: fields[k] for k in needs + reads})

    def trial():
        # perfbench's traced run patches run_* here; the benchmark revision can drop the map
        runner = dict(run_svrg=run_svrg, run_fgd=run_fgd, run_sfgd=run_sfgd, run_projgd=run_projgd)
        try:
            return run(obj, config, U0, X_ref, U_ref, metric, runner[row_runner.__name__])
        except DivergedError as err:
            return err.record

    return trial


def _write_run(args, records, timing, columns, summary_header, summary, ylabel,
               logscale):
    """Write curves.csv, summary.csv, plot.gp and run.json; return the exit code.

    ``columns`` maps the curves.csv columns between ``f`` and ``sample_grads``
    to the Row fields they print; plot.gp plots the first of them, else ``f``.
    The code is 3 if a trial diverged, else 0; each diverged trial is named
    on one stderr line, with its epoch and step.
    """
    curves = [[rec.algorithm, rec.seed, row.epoch, row.eta, row.f,
               *(getattr(row, field) for field in columns.values()), row.sample_grads]
              for rec in records for row in rec.rows]
    curves.sort(key=lambda r: (r[0], r[1], r[2]))
    header = ["algorithm", "seed", "epoch", "eta", "f", *columns, "sample_grads"]
    os.makedirs(args.out, exist_ok=True)
    _write_csv(os.path.join(args.out, "curves.csv"), header, curves)
    _write_csv(os.path.join(args.out, "summary.csv"), summary_header, summary)
    column = header.index(next(iter(columns), "f")) + 1  # gnuplot counts from 1
    _write_plot_script(args.out, args.algos, ylabel, logscale, column)
    _write_manifest(args, timing)
    diverged = [r for r in records if r.diverged]
    for r in diverged:
        print(f"diverged: {r.algorithm} seed {r.seed} at epoch {r.diverged_epoch}, "
              f"step {r.diverged_eta!r}", file=sys.stderr)
    return 3 if diverged else 0


def _median(values):
    return float(statistics.median(values)) if values else None


# ---------------------------------------------------------------------------
# sensing


def _sensing_setup(args):
    """The sensing instance, its rank-r reference factor and its ConvergenceConstants.

    Fills the --r-star and --n defaults and rejects ranks outside [1, p] and
    a solver rank above the planted one, before the instance is drawn.
    """
    if args.r_star is None:
        args.r_star = args.r
    if args.n is None:
        args.n = 10 * args.p
    if not (1 <= args.r <= args.p and 1 <= args.r_star <= args.p):
        raise CliError("need 1 <= r <= p and 1 <= r_star <= p")
    if args.r > args.r_star:
        raise CliError(f"--r {args.r} above --r-star {args.r_star}: a solver rank above "
                       "the planted rank is unsupported (ROADMAP: over-parameterized rank)")
    obj = sensing_generate(args.p, args.r_star, args.n, args.instance_seed)
    _, U_ref = truncated_approx(obj.Xstar, args.r)
    L_hat, mu_hat = estimate_smoothness(
        obj, probe_pairs(obj.p, args.r, seed=args.instance_seed + 1))
    stats = estimate_region_stats(obj, U_ref, region_gamma0(L_hat, mu_hat),
                                  n_samples=args.region_samples, seed=args.instance_seed)
    return obj, U_ref, compute_constants(L_hat, mu_hat, obj.Xstar, args.r, stats)


def cmd_sensing(args):
    """Run the sensing trials; default steps read constants.csv's L and sigma_1_Xr.

    ``base`` is the stability ceiling 1/(L sigma_1) of factored gradient steps.
    Stochastic algorithms shrink it by sqrt(n), their per-sample directions
    being that much larger than the averaged gradient.  ``eps = 1/(m * default
    svrg-fixed step)`` caps svrg-sbb's step, at most ``1/(m eps)``, at that step.
    """
    args.eta = _per_algo_values(args.eta, args.algos, "--eta")
    obj, U_ref, constants = _sensing_setup(args)
    base = 1.0 / (constants.L * max(constants.sigma_1_Xr, 1e-12))
    stochastic = 0.25 * base / math.sqrt(obj.n)
    adaptive = 0.1 * base / math.sqrt(obj.n)
    _resolve_steps(args, {"fgd": 0.25 * base, "projgd": 0.5 / constants.L, "sfgd": stochastic,
                          "svrg-fixed": stochastic, "svrg-sbb0": adaptive, "svrg-sbb": adaptive},
                   obj.n)
    if args.eps is None:
        args.eps = 1.0 / (args.m * stochastic)
    if args.init_radius is None:
        if math.isfinite(constants.gamma_u):
            args.init_radius = 0.5 * math.sqrt(constants.gamma_u)
        else:
            args.init_radius = 0.05 * float(np.linalg.norm(U_ref))

    trials = [
        _trial(args, algo, seed, obj,
               _checked(init_perturbed_optimum, U_ref, args.init_radius,
                        INIT_SEED_OFFSET + seed),
               X_ref=obj.Xstar, U_ref=U_ref)
        for algo in args.algos
        for seed in range(args.seed_base, args.seed_base + args.seeds)
    ]
    records, timing = _run_parallel(trials, args.jobs)
    timing["snapshot_threads"] = snapshot_threads(obj.A.nbytes)

    summary = []
    for algo in sorted(args.algos):
        recs = [r for r in records if r.algorithm == algo]
        hits = [epochs_to(r.rows, args.threshold) for r in recs]
        reached = [h for h in hits if h < math.inf]
        finals = [r.rows[-1].error_X for r in recs]
        finals = [e for e in finals if math.isfinite(e)]
        summary.append([
            algo, args.threshold, len(reached), len(recs),
            _median(reached), _median(finals),
        ])
    code = _write_run(
        args, records, timing, {"error_X": "error_X", "error_U": "error_U"},
        ["algorithm", "threshold", "seeds_reached", "seeds_total",
         "median_epochs_to_threshold", "median_final_error_X"],
        summary, "relative error ||X - X*||_F", True)
    _write_csv(os.path.join(args.out, "constants.csv"), ["name", "value"],
               constants_rows(constants))
    return code


# ---------------------------------------------------------------------------
# embedding


def cmd_embed(args):
    """Run the embedding trials at the --eta steps; svrg-sbb's --eps defaults to 1/(m * its --eta)."""
    if args.eta is None:
        raise CliError("argument --eta: embed takes every step from it: one value, "
                       "or one per --algos entry")
    args.eta = _per_algo_values(args.eta, args.algos, "--eta")
    triplets, args.p = read_triplets(args.triplets, args.p)
    args.triplets = os.path.abspath(args.triplets)
    n_train = train_size(args.split, len(triplets))
    has_test = args.split < 1.0
    if has_test and n_train == len(triplets):
        raise CliError(f"--split {args.split!r} leaves no triplet for the test set")
    _resolve_steps(args, {}, n_train)
    if args.eps is None and "svrg-sbb" in args.eta:
        # its secant step, at most 1/(m eps), never exceeds its initial step
        args.eps = 1.0 / (args.m * args.eta["svrg-sbb"])

    trials = []
    for seed in range(args.seed_base, args.seed_base + args.seeds):
        train, test = split_triplets(triplets, args.split, seed)
        obj = TripletProblem(args.p, train, args.lam)
        metric = (lambda X, t=test: test_error(X, t)) if has_test else None
        U0 = init_scheme3(args.p, args.dim, args.init_scale, INIT_SEED_OFFSET + seed)
        trials += [_trial(args, algo, seed, obj, U0, metric=metric)
                   for algo in args.algos]
    records, timing = _run_parallel(trials, args.jobs)

    columns = {"test_error": "metric"} if has_test else {}
    summary = sorted(
        ([rec.algorithm, rec.seed, rec.rows[-1].f,
          *(getattr(rec.rows[-1], name) for name in columns.values())]
         for rec in records),
        key=lambda r: (r[0], r[1]))
    return _write_run(
        args, records, timing, columns,
        ["algorithm", "seed", "final_f", *("final_" + c for c in columns)],
        summary, "test error" if has_test else "training loss", False)


# ---------------------------------------------------------------------------
# triplet generation


def cmd_gen_triplets(args):
    points, triplets = planted_triplets(args.p, args.dim, args.count, args.seed,
                                        noise=args.noise, scale=args.scale)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "triplets.txt"), "w", encoding="utf-8") as fh:
        fh.write(
            f"# planted triplets: p={args.p} dim={args.dim} count={args.count} "
            f"noise={repr(args.noise)} seed={args.seed} scale={repr(args.scale)}\n"
        )
        fh.write("\n".join(f"{i} {j} {k}" for i, j, k in triplets) + "\n")
    _write_csv(
        os.path.join(args.out, "points.csv"),
        [f"x{d}" for d in range(args.dim)],
        [list(map(float, row)) for row in points],
    )
    _write_manifest(args)
    return 0


# ---------------------------------------------------------------------------
# constants audit


def cmd_constants(args):
    constants = _sensing_setup(args)[2]
    sys.stdout.write(constants_report_text(constants))
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        _write_csv(os.path.join(args.out, "constants.csv"), ["name", "value"],
                   constants_rows(constants))
        _write_manifest(args)
    return 0


# ---------------------------------------------------------------------------
# replay


def cmd_replay(args):
    try:
        with open(args.manifest, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except ValueError as err:  # not UTF-8, or not JSON
        raise CliError(f"manifest {args.manifest!r} is not a JSON file: {err}")
    argv = manifest.get("replay_argv") if isinstance(manifest, dict) else None
    if (
        not isinstance(argv, list)
        or not argv
        or not all(isinstance(a, str) for a in argv)
        or argv[0] == "replay"
    ):
        raise CliError(f"manifest {args.manifest!r} has no usable replay_argv")
    replayed = build_parser().parse_args(argv + ["--out", args.out])
    replayed.jobs = args.jobs  # read by sensing and embed only
    return replayed.func(replayed)


# ---------------------------------------------------------------------------
# parser


def _ranged(kind, ok, rule):
    """An argparse ``type=``: ``kind(text)``, rejected as "must be <rule>" unless ``ok``.

    Every ``ok`` is a comparison that NaN fails.  argparse reports a ValueError as
    "invalid <name> value", so ``parse`` takes the name of ``kind``.
    """
    def parse(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}")
        return value

    parse.__name__ = kind.__name__
    return parse


_COUNT = _ranged(int, lambda v: v >= 1, "at least 1")
_NONNEG_INT = _ranged(int, lambda v: v >= 0, "at least 0")
_FINITE_NONNEG = _ranged(float, lambda v: 0 <= v < math.inf, "finite and at least 0")
_FINITE_POSITIVE = _ranged(float, lambda v: 0 < v < math.inf, "finite and above 0")
_NONNEG = _ranged(float, lambda v: v >= 0, "at least 0")


def _comma_list(kind):
    """An argparse ``type=``: a comma list of ``kind`` values, each checked by ``kind``."""
    def parse(text):
        return [kind(part) for part in text.split(",")]

    parse.__name__ = kind.__name__
    return parse


def _add_common(sub, algos):
    """Flags of the solver commands; ``algos`` is the --algos default."""
    sub.add_argument("--out", required=True, help="output directory")
    sub.add_argument("--algos", type=_parse_algos, default=algos,
                     help=f"comma list from: {', '.join(ALGORITHMS)} "
                          "(default: %(default)s)")
    sub.add_argument("--seeds", type=_COUNT, default=1, help="number of trial seeds")
    sub.add_argument("--seed-base", type=_NONNEG_INT, default=0,
                     help="first trial seed; trial i uses seed-base + i")
    sub.add_argument("--jobs", type=_COUNT, default=1, help="concurrent trial processes")
    sub.add_argument("--epochs", type=_COUNT, default=100)
    sub.add_argument("--eval-every", type=_COUNT, default=1,
                     help="record metrics every this many epochs")
    sub.add_argument("--eta", type=_comma_list(_FINITE_POSITIVE), default=None,
                     help="step: the fixed step of fgd, projgd and svrg-fixed, "
                          "the initial step of sfgd, svrg-sbb0 and svrg-sbb; "
                          "one value or a comma list per --algos (sensing default: "
                          "from the measured curvature; embed requires it)")
    sub.add_argument("--eps", type=_FINITE_NONNEG, default=None,
                     help="stabilizer for svrg-sbb (default: sensing "
                          "1/(m * default svrg-fixed step), embed 1/(m * its --eta))")
    sub.add_argument("--m", type=_COUNT, default=None,
                     help="inner-loop length (default: sample size)")
    sub.add_argument("--t0", type=_ranged(float, lambda v: v > 0, "above 0"),
                     default=None, help="sfgd decay horizon (default: sample size; inf "
                          "freezes the step at its --eta)")


def _add_instance(sub):
    """Flags of the sensing instance that both sensing and constants build."""
    sub.add_argument("--p", type=int, default=100)
    sub.add_argument("--r", type=int, default=5, help="solver rank")
    sub.add_argument("--r-star", type=int, default=None,
                     help="planted rank (default: same as --r)")
    sub.add_argument("--n", type=_COUNT, default=None,
                     help="number of measurements (default 10p)")
    sub.add_argument("--instance-seed", type=_NONNEG_INT, default=0)
    sub.add_argument("--region-samples", type=_NONNEG_INT, default=64)


def build_parser():
    parser = _Parser(
        prog="factored-sdp",
        description="Low-rank factored solvers for stochastic semidefinite programs.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sensing = subs.add_parser("sensing", help="synthetic matrix-sensing benchmark")
    _add_common(sensing, "svrg-fixed,svrg-sbb")
    _add_instance(sensing)
    sensing.add_argument("--init-radius", type=_FINITE_NONNEG, default=None,
                         help="Frobenius radius of the perturbed-optimum init")
    sensing.add_argument("--threshold", type=_NONNEG, default=3e-6,
                         help="error_X level for the epochs-to-threshold summary")
    sensing.set_defaults(func=cmd_sensing, parser=sensing)

    embed = subs.add_parser("embed", help="ordinal embedding from a triplet file")
    _add_common(embed, "svrg-sbb,sfgd,fgd")
    embed.add_argument("--triplets", required=True, help="triplet file path")
    embed.add_argument("--p", type=int, default=None,
                       help="number of points (default: max index + 1)")
    embed.add_argument("--dim", "--r", type=_COUNT, default=2,
                       help="embedding dimension (default 2); --r is the same as --dim")
    embed.add_argument("--lambda", dest="lam", type=_FINITE_NONNEG, default=1e-2,
                       help="trace regularization weight")
    embed.add_argument("--split", type=_ranged(float, lambda v: 0 < v <= 1, "in (0, 1]"),
                       default=0.8, help="train fraction; 1.0 disables the test columns")
    embed.add_argument("--init-scale", type=_ranged(
        float, lambda v: 0 < v and v * v < math.inf, "above 0 with a finite square"),
        default=1.0)
    embed.set_defaults(func=cmd_embed, parser=embed)

    gen = subs.add_parser("gen-triplets", help="plant a synthetic triplet dataset")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--p", type=_ranged(int, lambda v: v >= 3, "at least 3"), default=50,
                     help="number of points")
    gen.add_argument("--dim", type=_COUNT, default=2)
    gen.add_argument("--count", type=_COUNT, default=4000)
    gen.add_argument("--noise", type=_ranged(float, lambda v: 0 <= v <= 1, "in [0, 1]"),
                     default=0.0, help="probability a triplet is emitted flipped")
    gen.add_argument("--seed", type=_NONNEG_INT, default=0)
    gen.add_argument("--scale", type=_FINITE_POSITIVE, default=1.0)
    gen.set_defaults(func=cmd_gen_triplets, parser=gen)

    consts = subs.add_parser("constants",
                             help="convergence-constant audit for a sensing instance")
    consts.add_argument("--out", default=None,
                        help="optional directory for constants.csv")
    _add_instance(consts)
    consts.set_defaults(func=cmd_constants, parser=consts)

    replay = subs.add_parser("replay", help="re-run a saved run.json manifest")
    replay.add_argument("manifest", help="path to a run.json")
    replay.add_argument("--out", required=True, help="fresh output directory")
    replay.add_argument("--jobs", type=_COUNT, default=1)
    replay.set_defaults(func=cmd_replay)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (CliError, OSError, StallError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def entrypoint():
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()

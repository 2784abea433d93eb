"""Acceptance checklist for the factored solver suite.

One test per headline behavior, each on a frozen deterministic
configuration: convergence quality and epoch ordering on synthetic
sensing, exact recovery at matched rank, monotone expected decay, the
a-priori rate bound, the adaptive-step bracket and its hard cap, the
stabilizer's defense against secant-step breakout, the supporting matrix
inequalities at 10^4-trial scale, gradient correctness, direction
unbiasedness, the triplet-embedding pipeline, and byte-level replay of
CLI runs.

Criterion 1 is expected to fail on one sub-check and the failure message
explains the mechanism: with the inner-loop length pinned to the sample
size, the plain secant step on the benchmark instance is forced an order
of magnitude above the stable-step ceiling, so the unstabilized adaptive
runs diverge.  That is a real property of the method, not a bug in the
suite, and it is reported rather than hidden.
"""

import json
import math
import time

import numpy as np
import pytest

from factored_sdp.cli import INIT_SEED_OFFSET, main
from factored_sdp.init import init_perturbed_optimum, init_scheme3
from factored_sdp.linalg import gram, truncated_approx
from factored_sdp.objective import (
    TripletProblem,
    estimate_smoothness,
    planted_triplets,
    probe_pairs,
    sensing_generate,
    split_triplets,
)
from factored_sdp.objective import test_error as triplet_test_error
from factored_sdp.solvers import (
    DivergedError,
    SolverConfig,
    epochs_to,
    run,
    run_svrg,
)
from factored_sdp.stepsize import fixed, sbb
from factored_sdp.theory import (
    compute_constants,
    estimate_region_stats,
    lemma_dist_bounds,
    lemma_feasibility,
    lemma_spectral_bounds,
    lemma_trace_bound,
    region_gamma0,
    theorem1_rate,
)
from helpers import basis_sensing, fd_gradient, kernel_direction, sample_objective


# ---------------------------------------------------------------------------
# shared helpers


def affine_r2(xs, ys):
    """R^2 of the least-squares line through (xs, ys)."""
    coef = np.polyfit(xs, ys, 1)
    resid = ys - np.polyval(coef, xs)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    return 1.0 - ss_res / ss_tot


def rel_err(approx, exact):
    denom = max(float(np.linalg.norm(exact)), float(np.linalg.norm(approx)), 1e-12)
    return float(np.linalg.norm(approx - exact)) / denom


# ---------------------------------------------------------------------------
# criterion 1: sensing benchmark


@pytest.mark.slow
def test_criterion_01_sensing_convergence_and_ordering():
    """Sensing benchmark: accuracy, epoch ordering, log-linear decay.

    Ten perturbed-optimum trials at p=100, r=r*=5, n=10p, m=n.  Checks
    (i) every variance-reduced variant drives error_X to 1e-6, (ii) the
    median epochs to 3e-6 order svrg < sfgd < fgd strictly, and (iii)
    the fixed-step median error curve is affine in log scale with
    R^2 >= 0.99 across the post-transient stretch from 1e-3 down to
    1e-5.  The whole bundle must finish inside two minutes.
    """
    start = time.perf_counter()
    prob = sensing_generate(100, 5, 1000, 0)
    U_ref, X_ref = prob.Ustar, prob.Xstar
    m = prob.n
    # A quarter of the square root of the measured attraction radius
    # gamma_u for this instance; recomputing it here would spend several
    # seconds of the runtime budget on region sampling for the same
    # frozen number.
    radius = 0.5345
    # The stabilizer for svrg-sbb puts the step cap 1/(m*eps) = 2e-5
    # just under the measured stable-step ceiling ~2.5e-5; any much
    # smaller eps leaves the cap above the stability edge and the run
    # blows up exactly like the plain secant step does.
    eps_stab = 50.0

    schedules = {
        "svrg-fixed": fixed(1.75e-5),
        "svrg-sbb0": sbb(0.0, m, eta0=1e-5),
        "svrg-sbb": sbb(eps_stab, m, eta0=1e-5),
    }
    epochs = {"svrg-fixed": 62, "svrg-sbb0": 80, "svrg-sbb": 56,
              "sfgd": 88, "fgd": 176}
    eval_every = {"sfgd": 2}

    curves = {algo: [] for algo in epochs}
    diverged = {algo: [] for algo in epochs}
    for algo in epochs:
        for seed in range(10):
            U0 = init_perturbed_optimum(U_ref, radius, INIT_SEED_OFFSET + seed)
            cfg = SolverConfig(
                algorithm=algo, r=5, epochs=epochs[algo], seed=seed,
                m=m if algo.startswith("svrg") else None,
                eval_every=eval_every.get(algo, 1),
                schedule=schedules.get(algo),
                eta=5e-3 if algo == "fgd" else None,
                eta0=4e-5 if algo == "sfgd" else None,
                t0=1e4 if algo == "sfgd" else None,
            )
            try:
                rec = run(prob, cfg, U0, X_ref=X_ref, U_ref=U_ref)
                curves[algo].append(rec.rows)
            except DivergedError as err:
                curves[algo].append(err.record.rows)
                diverged[algo].append(seed)

    failures = []

    # (i) all variance-reduced variants reach error_X <= 1e-6
    for algo in ("svrg-fixed", "svrg-sbb0", "svrg-sbb"):
        if diverged[algo]:
            failures.append(
                f"(i) {algo} diverged on seeds {diverged[algo]}: with m = n "
                "the plain secant step is bounded below by 1/(m L) ~ 4e-4 "
                "on this instance, an order of magnitude above the measured "
                "stable-step ceiling ~2.5e-5, so the iterates leave the "
                "representable range; only a stabilizer whose cap 1/(m eps) "
                "sits under that ceiling survives"
            )
            continue
        finals = [rows[-1].error_X for rows in curves[algo]]
        if max(finals) > 1e-6:
            failures.append(f"(i) {algo} worst final error_X {max(finals):.3e} > 1e-6")

    # (ii) strict ordering of median epochs to 3e-6
    med = {
        algo: float(np.median([epochs_to(rows, 3e-6) for rows in curves[algo]]))
        for algo in ("svrg-fixed", "sfgd", "fgd")
    }
    if not med["svrg-fixed"] < med["sfgd"] < med["fgd"]:
        failures.append(f"(ii) median epochs to 3e-6 not ordered: {med}")

    # (iii) log-linearity of the fixed-step median curve, fitted on the
    # stretch after the init transient has died out
    grid = np.asarray(
        [[row.error_X for row in rows] for rows in curves["svrg-fixed"]]
    )
    median_curve = np.median(grid, axis=0)
    seg = [k for k, v in enumerate(median_curve) if 1e-5 <= v <= 1e-3]
    span = math.log10(median_curve[seg[0]] / median_curve[seg[-1]])
    r2 = affine_r2(np.asarray(seg, dtype=float), np.log10(median_curve[seg]))
    if span < 1.0:
        failures.append(f"(iii) fit segment spans only {span:.2f} decades")
    if r2 < 0.99:
        failures.append(f"(iii) log error fit R^2 {r2:.4f} < 0.99")

    elapsed = time.perf_counter() - start
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds the 120s budget")

    assert not failures, "\n".join(failures)


# ---------------------------------------------------------------------------
# criterion 2: exact recovery at matched rank


def test_criterion_02_exact_recovery():
    """Noiseless data and matched rank drive error_X below 1e-9."""
    start = time.perf_counter()
    obj = sensing_generate(50, 3, 500, 0)
    _, Ur = truncated_approx(obj.Xstar, 3)
    L, mu = estimate_smoothness(obj, probe_pairs(50, 3, seed=1))
    stats = estimate_region_stats(obj, Ur, region_gamma0(L, mu), n_samples=64, seed=0)
    c = compute_constants(L, mu, obj.Xstar, 3, stats)
    radius = 0.5 * math.sqrt(c.gamma_u)
    assert radius**2 < c.gamma_u

    U0 = init_perturbed_optimum(Ur, radius, INIT_SEED_OFFSET)
    cfg = SolverConfig(
        algorithm="svrg-fixed", r=3, epochs=120, seed=0, m=500,
        schedule=fixed(4e-5),
    )
    rec = run_svrg(obj, cfg, U0, X_ref=obj.Xstar, U_ref=Ur)
    final = rec.rows[-1].error_X
    elapsed = time.perf_counter() - start
    assert final <= 1e-9, f"final error_X {final:.3e} above 1e-9"
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds the 30s budget"


# ---------------------------------------------------------------------------
# criterion 3: monotone decay of the expected squared factor error


def test_criterion_03_monotone_expected_decay():
    """20-seed mean of error_U^2 never rises by more than one part in 1e3."""
    start = time.perf_counter()
    obj = sensing_generate(30, 2, 300, 0)
    _, Ur = truncated_approx(obj.Xstar, 2)
    L, mu = estimate_smoothness(obj, probe_pairs(30, 2, seed=1))
    stats = estimate_region_stats(obj, Ur, region_gamma0(L, mu), n_samples=64, seed=0)
    c = compute_constants(L, mu, obj.Xstar, 2, stats)
    radius = 0.5 * math.sqrt(c.gamma_u)

    curves = []
    for seed in range(20):
        U0 = init_perturbed_optimum(Ur, radius, INIT_SEED_OFFSET + seed)
        cfg = SolverConfig(
            algorithm="svrg-fixed", r=2, epochs=30, seed=seed, m=300,
            schedule=fixed(5e-5),
        )
        rec = run_svrg(obj, cfg, U0, X_ref=obj.Xstar, U_ref=Ur)
        curves.append([row.error_U**2 for row in rec.rows])
    mean = np.mean(np.asarray(curves), axis=0)

    upticks = [
        (k, float(mean[k + 1] / mean[k] - 1.0))
        for k in range(len(mean) - 1)
        if mean[k + 1] > mean[k] * (1.0 + 1e-3)
    ]
    elapsed = time.perf_counter() - start
    assert not upticks, f"relative upticks beyond 1e-3: {upticks}"
    assert mean[-1] < mean[0]
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds the 60s budget"


# ---------------------------------------------------------------------------
# criterion 4: rate bound dominates the observed mean


def test_criterion_04_rate_bound_dominates():
    """Predicted error sequence upper-bounds the 20-seed mean at every k."""
    start = time.perf_counter()
    obj = sensing_generate(40, 3, 400, 0)
    _, Ur = truncated_approx(obj.Xstar, 3)
    L, mu = estimate_smoothness(obj, probe_pairs(40, 3, seed=1))
    assert L / mu <= 3.0, f"instance condition estimate {L / mu:.2f} above 3"
    stats = estimate_region_stats(obj, Ur, region_gamma0(L, mu), n_samples=64, seed=0)
    c = compute_constants(L, mu, obj.Xstar, 3, stats)

    eta = 0.9 * c.eta_bar_max
    radius = 0.5 * math.sqrt(c.gamma_u_tilde)
    epochs = 12
    curves = []
    for seed in range(20):
        U0 = init_perturbed_optimum(Ur, radius, INIT_SEED_OFFSET + seed)
        cfg = SolverConfig(
            algorithm="svrg-fixed", r=3, epochs=epochs, seed=seed, m=400,
            schedule=fixed(eta),
        )
        rec = run_svrg(obj, cfg, U0, X_ref=obj.Xstar, U_ref=Ur)
        curves.append([row.error_U**2 for row in rec.rows])
    emp = np.mean(np.asarray(curves), axis=0)

    D0 = float(emp[0])
    bound = np.asarray(
        [theorem1_rate(c, [eta] * k, 400, D0) for k in range(epochs + 1)]
    )
    ratio = emp / bound
    elapsed = time.perf_counter() - start
    assert ratio.max() <= 1.10, (
        f"empirical mean exceeds the bound with 10% slack: "
        f"max ratio {ratio.max():.4f} at k={int(ratio.argmax())}"
    )
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds the 60s budget"


# ---------------------------------------------------------------------------
# criterion 5: adaptive-step bracket


def test_criterion_05_adaptive_step_bracket():
    """Secant steps sit in [1/(m(L+eps)), 1/(m(mu+eps))] and under the cap.

    On the coordinate-basis instance the measured moduli coincide, the
    bracket collapses to a point, and every recorded step must equal it
    to within 5%.  Row 0 carries the priming step eta0 and the last row
    is the final-evaluation sentinel, so the bracket applies to the rows
    between them.
    """
    p, r = 6, 2
    obj = basis_sensing(p, r=r, seed=0)
    L, mu = estimate_smoothness(obj, probe_pairs(p, r, seed=1))
    np.testing.assert_allclose([L, mu], 1.0 / p**2, rtol=1e-12)

    m = 20 * p * p
    _, Ur = truncated_approx(obj.Xstar, r)
    U0 = init_perturbed_optimum(Ur, 0.3, INIT_SEED_OFFSET)
    for eps in (0.0, 0.05):
        cfg = SolverConfig(
            algorithm="svrg-sbb", r=r, epochs=12, seed=0, m=m,
            schedule=sbb(eps, m, eta0=0.5 * p * p / m),
        )
        rec = run_svrg(obj, cfg, U0, X_ref=obj.Xstar, U_ref=Ur)
        etas = [row.eta for row in rec.rows[1:-1]]
        assert etas, "run recorded no adaptive steps"
        lo = 1.0 / (m * (L + eps))
        hi = 1.0 / (m * (mu + eps))
        outside = [e for e in etas if not lo / 1.05 <= e <= hi * 1.05]
        assert not outside, (
            f"eps={eps}: steps outside [{lo:.4e}, {hi:.4e}] with 5% slack: "
            f"{outside}"
        )
        if eps > 0.0:
            cap = 1.0 / (m * eps)
            assert all(e <= cap for e in etas), (
                f"step exceeds the hard cap 1/(m*eps)={cap:.4e}"
            )


# ---------------------------------------------------------------------------
# criterion 6: the stabilizer prevents secant breakout


@pytest.mark.slow
def test_criterion_06_stabilizer_prevents_breakout():
    """Plain secant steps break out on saturated triplets; eps holds them.

    Strongly separated planted points saturate the logistic losses, the
    secant denominator collapses, and the plain adaptive step shoots
    past ten times the bracket's upper end (or diverges outright).  The
    stabilized run with eps = 0.02 L caps its step at 1/(m*eps) and
    finishes every epoch finite.
    """
    p, dim = 10, 2
    _, T = planted_triplets(p, dim, 60, 0)
    obj = TripletProblem(p, T, lam=0.0)
    L, mu = estimate_smoothness(obj, probe_pairs(p, dim, seed=1))
    m = 6000
    breakout_level = 10.0 / (m * mu)

    def run_with(eps):
        U0 = init_scheme3(p, dim, 4.0, INIT_SEED_OFFSET)
        cfg = SolverConfig(
            algorithm="svrg-sbb", r=dim, epochs=30, seed=0, m=m,
            schedule=sbb(eps, m, eta0=0.1),
        )
        try:
            rec = run_svrg(obj, cfg, U0)
            return rec, max(row.eta for row in rec.rows[1:-1])
        except DivergedError as err:
            finite = [row.eta for row in err.record.rows[1:] if math.isfinite(row.eta)]
            return err.record, max(finite, default=math.inf)

    plain_rec, plain_max = run_with(0.0)
    assert plain_rec.diverged or plain_max > breakout_level, (
        f"plain secant steps stayed at or under 10x the bracket top "
        f"({plain_max:.3e} <= {breakout_level:.3e}) and the run finished"
    )

    stab_rec, stab_max = run_with(0.02 * L)
    assert not stab_rec.diverged
    assert stab_rec.rows[-1].epoch == 30
    assert all(math.isfinite(row.f) for row in stab_rec.rows)
    assert stab_max <= 1.0 / (m * 0.02 * L) * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# criterion 7: matrix inequality suites at scale


def test_criterion_07_matrix_inequality_suites():
    """10^4 randomized trials per inequality family, zero violations.

    The checkers themselves allow -1e-10 of floating-point slack; the
    suites count strict check failures.
    """
    trials = 10_000
    rng = np.random.default_rng(7)

    bad_dist = 0
    for _ in range(trials):
        Ur = rng.standard_normal((5, 2))
        sr = float(np.linalg.svd(Ur, compute_uv=False)[-1])
        H = rng.standard_normal((5, 2))
        H *= 0.9 * sr * rng.uniform() / np.linalg.norm(H)
        upper_ok, lower_ok, applicable = lemma_dist_bounds(Ur + H, Ur)
        if not (upper_ok and applicable and lower_ok):
            bad_dist += 1
    assert bad_dist == 0, f"{bad_dist} distance-bound violations"

    bad_spec = 0
    for _ in range(trials):
        Ur = rng.standard_normal((6, 3))
        sr = float(np.linalg.svd(Ur, compute_uv=False)[-1])
        gamma = rng.uniform(0.05, 0.95)
        H = rng.standard_normal((6, 3))
        H *= gamma * sr * rng.uniform() / np.linalg.norm(H)
        x_ok, s_ok = lemma_spectral_bounds(Ur + H, Ur, gamma)
        if not (x_ok and s_ok):
            bad_spec += 1
    assert bad_spec == 0, f"{bad_spec} spectral-bound violations"

    # feasibility runs on column-space-preserving perturbations so all
    # three reported properties are in play, projection included
    obj = basis_sensing(6, r=2, seed=4)
    Ur = obj.Ustar
    L = 1.0 / 36.0
    c = compute_constants(
        L, L, obj.Xstar, 2,
        estimate_region_stats(obj, Ur, region_gamma0(L, L), n_samples=100),
    )
    sr2 = float(np.linalg.svd(Ur, compute_uv=False)[-1] ** 2)
    bad_feas = 0
    done = 0
    while done < trials:
        E = rng.standard_normal((2, 2))
        E *= 0.2 * rng.uniform() / np.linalg.norm(E)
        U = Ur @ (np.eye(2) + E)
        if float(np.linalg.norm(U - Ur)) ** 2 >= c.gamma0 * sr2:
            continue
        rep = lemma_feasibility(U, Ur, obj, c.eta_bar, L, c.gamma0)
        if not (rep.bounded_gradient_ok and rep.psd_ok and rep.projection_ok):
            bad_feas += 1
        done += 1
    assert bad_feas == 0, f"{bad_feas} feasibility violations"

    bad_trace = 0
    for _ in range(trials):
        A = gram(rng.standard_normal((4, 4))) + 0.1 * np.eye(4)
        B = gram(rng.standard_normal((4, 2)))
        if not lemma_trace_bound(A, B):
            bad_trace += 1
    assert bad_trace == 0, f"{bad_trace} trace-bound violations"


# ---------------------------------------------------------------------------
# criterion 8: gradient correctness


def test_criterion_08_gradient_checks():
    """Central differences confirm sample and factored gradients to 1e-5."""
    probes = 100

    prob = sensing_generate(5, 2, 12, seed=30)
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(probes):
        i = int(rng.integers(prob.n))
        X = gram(rng.standard_normal((5, 3)))
        f_i = sample_objective(prob, i)
        G_fd = fd_gradient(f_i.eval_full, X)
        worst = max(worst, rel_err(G_fd, f_i.grad_full(X)))
    assert worst <= 1e-5, f"sensing sample gradient off by {worst:.2e}"

    trip = TripletProblem(
        7, [(0, 1, 2), (1, 3, 4), (2, 4, 0), (5, 6, 1), (3, 0, 6)], lam=0.03
    )
    rng = np.random.default_rng(32)
    worst = 0.0
    for _ in range(probes):
        i = int(rng.integers(trip.n))
        X = gram(rng.standard_normal((7, 2)))
        f_i = sample_objective(trip, i)
        G_fd = fd_gradient(f_i.eval_full, X)
        worst = max(worst, rel_err(G_fd, f_i.grad_full(X)))
    assert worst <= 1e-5, f"triplet sample gradient off by {worst:.2e}"

    # the factored gradient carries the chain-rule factor of two
    for obj, p, r, seed in ((prob, 5, 2, 33), (trip, 7, 2, 34)):
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(probes):
            U = rng.standard_normal((p, r))
            analytic = 2.0 * obj.grad_full(gram(U)) @ U
            fd = fd_gradient(lambda V: obj.eval_full(gram(V)), U)
            worst = max(worst, rel_err(fd, analytic))
        assert worst <= 1e-5, f"factored gradient off by {worst:.2e}"


# ---------------------------------------------------------------------------
# criterion 9: direction unbiasedness


def test_criterion_09_direction_unbiasedness():
    """Sample directions average exactly to the full ones, both families.

    Checked at arbitrary states for the raw gradients, those of the
    one-sample objectives, and for the variance-reduced factor direction
    the solvers step along, whose anchor terms must cancel in the mean:
    for sensing built from ``grad_sample_times_factor``, for triplets one
    kernel step at eta = 1.  Tolerance is 1e-10 in Frobenius norm,
    absolute.
    """
    sensing = sensing_generate(6, 2, 15, seed=40)
    _, T = planted_triplets(7, 2, 20, seed=41)
    triplet = TripletProblem(7, T, lam=0.05)

    rng = np.random.default_rng(42)
    for obj, p in ((sensing, 6), (triplet, 7)):
        for _ in range(5):
            X = gram(rng.standard_normal((p, 3)))
            mean = np.mean([sample_objective(obj, i).grad_full(X) for i in range(obj.n)],
                           axis=0)
            full = obj.grad_full(X)
            assert float(np.linalg.norm(mean - full)) <= 1e-10

            U = rng.standard_normal((p, 2))
            Ut = rng.standard_normal((p, 2))
            anchor = obj.grad_full(gram(Ut)) @ Ut
            if obj is triplet:
                vr_mean = np.mean([kernel_direction(obj, i, U, anchor=obj.snapshot(Ut))
                                   for i in range(obj.n)], axis=0)
            else:
                vr_mean = np.mean(
                    [
                        obj.grad_sample_times_factor(i, U) - obj.grad_sample_times_factor(i, Ut)
                        for i in range(obj.n)
                    ],
                    axis=0,
                ) + anchor
            full_dir = obj.grad_full(gram(U)) @ U
            assert float(np.linalg.norm(vr_mean - full_dir)) <= 1e-10


# ---------------------------------------------------------------------------
# criterion 10: embedding pipeline


@pytest.mark.slow
def test_criterion_10_embedding_pipeline():
    """Planted 2-D embedding: adaptive runs generalize first.

    4000 noiseless triplets on 50 points, 80/20 split, ten trials.  The
    adaptive variance-reduced runs must push test error to 0.1 within
    100 epochs and reach that threshold in no more epochs (median) than
    either the diminishing-step stochastic or full-gradient baselines.
    """
    start = time.perf_counter()
    p, dim, lam = 50, 2, 1e-2
    _, T = planted_triplets(p, dim, 4000, 0)
    L, _ = estimate_smoothness(
        TripletProblem(p, T, lam), probe_pairs(p, dim, seed=1)
    )
    threshold = 0.1

    crossings = {}
    finals = {}
    for algo, epochs in (("svrg-sbb", 40), ("sfgd", 60), ("fgd", 60)):
        cross, final = [], []
        for seed in range(10):
            train, test = split_triplets(T, 0.8, seed)
            obj = TripletProblem(p, train, lam)
            metric = lambda X: triplet_test_error(X, test)
            U0 = init_scheme3(p, dim, 1.0, INIT_SEED_OFFSET + seed)
            steps = {
                "svrg-sbb": dict(m=obj.n, schedule=sbb(0.02 * L, obj.n, eta0=1.0)),
                "sfgd": dict(eta0=2.0, t0=3200.0),
                "fgd": dict(eta=40.0),
            }
            cfg = SolverConfig(algorithm=algo, r=dim, epochs=epochs, seed=seed,
                               **steps[algo])
            rec = run(obj, cfg, U0, metric=metric)
            cross.append(epochs_to(rec.rows, threshold, field="metric"))
            final.append(rec.rows[-1].metric)
        crossings[algo] = cross
        finals[algo] = final

    assert max(crossings["svrg-sbb"]) <= 100, (
        f"adaptive run missed test error 0.1 inside 100 epochs: "
        f"{crossings['svrg-sbb']}"
    )
    med = {algo: float(np.median(c)) for algo, c in crossings.items()}
    elapsed = time.perf_counter() - start
    assert med["svrg-sbb"] <= med["sfgd"], f"medians to {threshold}: {med}"
    assert med["svrg-sbb"] <= med["fgd"], f"medians to {threshold}: {med}"
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds the 60s budget"


# ---------------------------------------------------------------------------
# criterion 11: manifest replay


def test_criterion_11_manifest_replay(tmp_path):
    """Replaying any run manifest reproduces the data files byte for byte."""

    def tree_bytes(root, skip=("run.json",)):
        return {
            path.name: path.read_bytes()
            for path in sorted(root.iterdir())
            if path.name not in skip
        }

    gen = tmp_path / "gen"
    assert main(["gen-triplets", "--out", str(gen), "--p", "15",
                 "--count", "400", "--noise", "0.1", "--seed", "3"]) == 0
    gen_rep = tmp_path / "gen-rep"
    assert main(["replay", str(gen / "run.json"), "--out", str(gen_rep)]) == 0
    assert tree_bytes(gen) == tree_bytes(gen_rep)

    sensing = tmp_path / "sensing"
    assert main(["sensing", "--out", str(sensing), "--p", "12", "--r", "2",
                 "--n", "90", "--epochs", "4", "--seeds", "2",
                 "--algos", "fgd,svrg-fixed"]) == 0
    sens_rep = tmp_path / "sensing-rep"
    assert main(["replay", str(sensing / "run.json"), "--out", str(sens_rep),
                 "--jobs", "2"]) == 0
    assert tree_bytes(sensing) == tree_bytes(sens_rep)

    embed = tmp_path / "embed"
    assert main(["embed", "--triplets", str(gen / "triplets.txt"),
                 "--out", str(embed), "--dim", "2", "--epochs", "4",
                 "--seeds", "2", "--algos", "svrg-sbb,fgd"]) == 0
    embed_rep = tmp_path / "embed-rep"
    assert main(["replay", str(embed / "run.json"), "--out", str(embed_rep)]) == 0
    assert tree_bytes(embed) == tree_bytes(embed_rep)

    manifest = json.loads((sensing / "run.json").read_text(encoding="utf-8"))
    replayed = json.loads((sens_rep / "run.json").read_text(encoding="utf-8"))
    assert manifest["replay_argv"] == replayed["replay_argv"]

import dataclasses
import math

import numpy as np
import pytest

from factored_sdp.cli import INIT_SEED_OFFSET
from factored_sdp.init import init_perturbed_optimum, init_scheme3
from factored_sdp.linalg import gram, symmetrize
from factored_sdp.objective import (
    SensingProblem,
    TripletProblem,
    estimate_smoothness,
    planted_triplets,
    probe_pairs,
    sensing_generate,
    split_triplets,
)
from factored_sdp.solvers import (
    DivergedError,
    Row,
    RunRecord,
    SolverConfig,
    epoch_cost,
    epochs_to,
    run_fgd,
    run_projgd,
    run_sfgd,
    run_svrg,
)
from factored_sdp.stepsize import StallError, fixed, sbb
from helpers import LinearObjective, ReferenceTriplets


def constant_objective(p, n=4):
    """f(X) = 2 with an exactly-zero gradient: zero measurements, b_i = 2."""
    return SensingProblem(np.zeros((n, p, p)), np.full(n, 2.0))


def assert_diverges_with_partial_record(algo):
    """A huge step makes ``algo`` diverge; check the marked partial record."""
    prob = sensing_generate(5, 2, 10, seed=21)
    U0 = np.random.default_rng(22).standard_normal((5, 2))
    base = dict(algorithm=algo, r=2, epochs=50, seed=0)
    if algo == "svrg":
        run = lambda: run_svrg(prob, SolverConfig(**base, m=10, schedule=fixed(1e6)), U0,
                               X_ref=prob.Xstar, U_ref=prob.Ustar)
    elif algo == "sfgd":
        run = lambda: run_sfgd(prob, SolverConfig(**base, eta0=1e6), U0,
                               X_ref=prob.Xstar, U_ref=prob.Ustar)
    elif algo == "projgd":
        run = lambda: run_projgd(prob, SolverConfig(**base, eta=1e6), gram(U0),
                                 X_ref=prob.Xstar)
    else:
        run = lambda: run_fgd(prob, SolverConfig(**base, eta=1e6), U0, X_ref=prob.Xstar)
    with pytest.raises(DivergedError) as info:
        run()
    err = info.value
    assert isinstance(err.record, RunRecord)
    assert err.record.diverged
    assert err.record.diverged_epoch == err.epoch
    assert 1 <= err.epoch <= 50
    last = err.record.rows[-1]
    assert last.epoch == err.epoch
    assert np.isnan(last.f)
    assert np.isnan(last.error_X)
    grads = [row.sample_grads for row in err.record.rows]
    assert grads == sorted(grads)
    if algo == "projgd":
        # X-space run: no factor, and final_X is the step before projection
        assert last.error_U is None
        assert err.record.final_U is None
        X = symmetrize(gram(U0))
        if err.epoch > 1:
            X = run_projgd(prob, SolverConfig(**{**base, "epochs": err.epoch - 1},
                                              eta=1e6), gram(U0)).final_X
        np.testing.assert_array_equal(err.record.final_X, X - 1e6 * prob.grad_full(X))
    else:
        assert err.record.final_X is None
        assert err.record.final_U.shape == (5, 2)
    return err


@pytest.mark.parametrize("algo", ["svrg", "sfgd", "projgd"])
def test_divergence_partial_record_other_runners(algo):
    """Every runner shares fgd's divergence report (TestFgd covers fgd)."""
    err = assert_diverges_with_partial_record(algo)
    if algo != "projgd":
        assert np.isnan(err.record.rows[-1].error_U)


def svrg_config(**kw):
    base = dict(algorithm="svrg-fixed", r=2, epochs=3, seed=0, m=5,
                schedule=fixed(0.01))
    base.update(kw)
    return SolverConfig(**base)


class TestSolverConfig:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            SolverConfig(algorithm="fgd", r=0, epochs=1, seed=0)
        with pytest.raises(ValueError):
            SolverConfig(algorithm="fgd", r=1, epochs=0, seed=0)
        with pytest.raises(ValueError):
            SolverConfig(algorithm="svrg-fixed", r=1, epochs=1, seed=0, m=0)
        with pytest.raises(ValueError):
            SolverConfig(algorithm="fgd", r=1, epochs=1, seed=0, eval_every=0)
        nan, inf = float("nan"), float("inf")
        for bad in ({"eta": -1.0}, {"eta": nan}, {"eta": inf}, {"eta0": 0.0},
                    {"eta0": nan}, {"t0": 0.0}, {"t0": nan}):
            with pytest.raises(ValueError):
                SolverConfig(algorithm="fgd", r=1, epochs=1, seed=0, **bad)
        SolverConfig(algorithm="sfgd", r=1, epochs=1, seed=0, eta0=1.0, t0=inf)

    def test_rejects_schedule_with_another_inner_loop_length(self):
        """The secant step divides by the schedule's m, the loop runs config.m steps."""
        with pytest.raises(ValueError, match="differs from m=5"):
            svrg_config(m=5, schedule=sbb(0.1, 6))
        svrg_config(m=5, schedule=sbb(0.1, 5))
        svrg_config(m=7, schedule=fixed(0.1))

    def test_rejects_factor_shape_mismatch(self):
        prob = sensing_generate(4, 2, 8, seed=0)
        with pytest.raises(ValueError):
            run_fgd(prob, SolverConfig(algorithm="fgd", r=2, epochs=1, seed=0,
                                       eta=0.1), np.zeros((4, 3)))


class TestEpochCost:
    def test_known_counts(self):
        assert epoch_cost("svrg-sbb", 100, 100) == 200
        assert epoch_cost("fgd", 100) == 100
        assert epoch_cost("sfgd", 100) == 100
        assert epoch_cost("projgd", 100) == 100

    def test_svrg_requires_m(self):
        with pytest.raises(ValueError):
            epoch_cost("svrg-fixed", 100)

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            epoch_cost("sgd", 100)

    def test_counts_recorded_in_rows(self):
        prob = sensing_generate(4, 2, 8, seed=1)
        rng = np.random.default_rng(2)
        U0 = rng.standard_normal((4, 2))
        rec = run_svrg(prob, svrg_config(epochs=4, m=3), U0)
        for row in rec.rows:
            assert row.sample_grads == row.epoch * (8 + 3)


class TestSvrg:
    def test_zero_gradient_fixed_point(self):
        obj = constant_objective(3)
        U0 = np.random.default_rng(3).standard_normal((3, 2))
        rec = run_svrg(obj, svrg_config(epochs=4), U0)
        np.testing.assert_array_equal(rec.final_U, U0)
        assert all(row.f == 2.0 for row in rec.rows)

    def test_first_inner_step_ignores_sampling(self):
        # with m=1 the stochastic terms cancel at t=0, so one outer
        # iteration is the deterministic anchor step no matter the seed
        prob = sensing_generate(4, 2, 10, seed=4)
        U0 = np.random.default_rng(5).standard_normal((4, 2))
        eta = 0.01
        outs = []
        for seed in (0, 1, 2):
            cfg = svrg_config(epochs=1, m=1, seed=seed, schedule=fixed(eta))
            outs.append(run_svrg(prob, cfg, U0).final_U)
        X0 = gram(U0)
        expected = U0 - eta * (prob.grad_full(X0) @ U0)
        for out in outs:
            assert np.abs(out - expected).max() <= 1e-12

    @pytest.mark.parametrize("family", ["sensing", "triplet"])
    def test_one_step_epoch_is_one_fgd_step_bitwise(self, family):
        # the inner step starts at the snapshot, where the two sample terms
        # come from the one oracle on equal factors and cancel exactly, so
        # the direction is the full one to the bit; the triplet case runs
        # the per-step loop
        if family == "sensing":
            obj = sensing_generate(6, 2, 30, seed=44)
        else:
            _, T = planted_triplets(12, 2, 400, 0)
            obj = ReferenceTriplets(12, T, 0.1)
        eta = 0.01
        for seed in range(20):
            U0 = np.random.default_rng(seed).standard_normal((obj.p, 2))
            svrg = run_svrg(obj, svrg_config(epochs=1, m=1, seed=seed,
                                             schedule=fixed(eta)), U0)
            fgd = run_fgd(obj, SolverConfig(algorithm="fgd", r=2, epochs=1, seed=seed,
                                            eta=eta), U0)
            assert np.array_equal(svrg.final_U, fgd.final_U), f"seed {seed}"

    def test_single_sample_matches_fgd(self):
        # n=1 collapses the variance-reduced direction to the full
        # gradient, so m inner steps replay m FGD iterations
        rng = np.random.default_rng(6)
        Ustar = rng.standard_normal((4, 2))
        A = symmetrize(rng.standard_normal((4, 4)))[None, :, :]
        b = np.array([np.vdot(A[0], gram(Ustar))])
        from factored_sdp.objective import SensingProblem

        prob = SensingProblem(A, b)
        U0 = rng.standard_normal((4, 2))
        eta = 0.02
        svrg = run_svrg(prob, svrg_config(epochs=2, m=3, schedule=fixed(eta)), U0)
        fgd = run_fgd(prob, SolverConfig(algorithm="fgd", r=2, epochs=6, seed=0,
                                         eta=eta), U0)
        assert np.abs(svrg.final_U - fgd.final_U).max() <= 1e-12

    def test_direction_unbiased(self):
        prob = sensing_generate(5, 2, 30, seed=7)
        rng = np.random.default_rng(8)
        Utilde = rng.standard_normal((5, 2))
        U = rng.standard_normal((5, 2))
        g_anchor = prob.grad_full(gram(Utilde)) @ Utilde
        mean = np.zeros_like(U)
        for i in range(prob.n):
            cur = prob.grad_sample_times_factor(i, U)
            anc = prob.grad_sample_times_factor(i, Utilde)
            mean += cur - anc + g_anchor
        mean /= prob.n
        full = prob.grad_full(gram(U)) @ U
        assert np.abs(mean - full).max() <= 1e-10

    def test_deterministic_per_seed(self):
        prob = sensing_generate(5, 2, 12, seed=9)
        U0 = np.random.default_rng(10).standard_normal((5, 2))
        a = run_svrg(prob, svrg_config(seed=42, schedule=sbb(0.1, 5, eta0=0.01)),
                     U0, X_ref=prob.Xstar, U_ref=prob.Ustar)
        b = run_svrg(prob, svrg_config(seed=42, schedule=sbb(0.1, 5, eta0=0.01)),
                     U0, X_ref=prob.Xstar, U_ref=prob.Ustar)
        assert a.rows == b.rows
        np.testing.assert_array_equal(a.final_U, b.final_U)

    def test_stall_propagates(self):
        obj = LinearObjective(np.diag([1.0, 2.0, 3.0]))
        U0 = np.random.default_rng(11).standard_normal((3, 2))
        cfg = svrg_config(epochs=3, schedule=sbb(0.0, 5, eta0=1e-3))
        with pytest.raises(StallError):
            run_svrg(obj, cfg, U0)

    def test_decreases_error_toward_planted_optimum(self):
        prob = sensing_generate(8, 2, 80, seed=12)
        rng = np.random.default_rng(13)
        G = rng.standard_normal(prob.Ustar.shape)
        U0 = prob.Ustar + 0.05 * G / np.linalg.norm(G)
        cfg = svrg_config(epochs=8, m=80, schedule=fixed(0.002), r=2)
        rec = run_svrg(prob, cfg, U0, X_ref=prob.Xstar, U_ref=prob.Ustar)
        errs = [row.error_U for row in rec.rows]
        assert errs[-1] < errs[0] * 1e-2

    def test_mean_error_curve_monotone(self):
        # seed-averaged distance to the planted factor is nonincreasing
        # for a well-conditioned instance started near the optimum
        prob = sensing_generate(6, 2, 40, seed=14)
        rng = np.random.default_rng(15)
        G = rng.standard_normal(prob.Ustar.shape)
        U0 = prob.Ustar + 0.1 * G / np.linalg.norm(G)
        curves = []
        for seed in range(20):
            cfg = svrg_config(epochs=6, m=40, seed=seed, schedule=fixed(0.004))
            rec = run_svrg(prob, cfg, U0, U_ref=prob.Ustar)
            curves.append([row.error_U for row in rec.rows])
        mean = np.mean(np.array(curves), axis=0)
        for a, b in zip(mean, mean[1:]):
            assert b <= a * (1 + 1e-3)

    def test_runs_sharing_a_schedule_are_independent(self):
        """One sbb schedule serves two seeds as two fresh schedules would."""
        prob = sensing_generate(20, 2, 200, seed=0)
        m = prob.n
        cfg = SolverConfig(algorithm="svrg-sbb", r=2, epochs=15, seed=0, m=m,
                           schedule=sbb(30.0, m, eta0=1e-4))

        def rows(config):
            U0 = init_perturbed_optimum(prob.Ustar, 0.5, INIT_SEED_OFFSET + config.seed)
            return run_svrg(prob, config, U0, X_ref=prob.Xstar, U_ref=prob.Ustar).rows

        shared = [rows(dataclasses.replace(cfg, seed=s)) for s in (0, 1)]
        fresh = [rows(dataclasses.replace(cfg, seed=s, schedule=sbb(30.0, m, eta0=1e-4)))
                 for s in (0, 1)]
        assert shared == fresh
        assert shared[1][0].eta == 1e-4


class TestFgd:
    def test_zero_step_is_constant(self):
        prob = sensing_generate(4, 2, 8, seed=16)
        U0 = np.random.default_rng(17).standard_normal((4, 2))
        rec = run_fgd(prob, SolverConfig(algorithm="fgd", r=2, epochs=3, seed=0,
                                         eta=0.0), U0)
        np.testing.assert_array_equal(rec.final_U, U0)

    def test_zero_gradient_is_constant(self):
        obj = constant_objective(4)
        U0 = np.random.default_rng(18).standard_normal((4, 2))
        rec = run_fgd(obj, SolverConfig(algorithm="fgd", r=2, epochs=3, seed=0,
                                        eta=0.5), U0)
        np.testing.assert_array_equal(rec.final_U, U0)

    def test_descent_with_small_step(self):
        prob = sensing_generate(6, 2, 40, seed=19)
        U0 = np.random.default_rng(20).standard_normal((6, 2))
        rec = run_fgd(prob, SolverConfig(algorithm="fgd", r=2, epochs=30, seed=0,
                                         eta=0.003), U0)
        fs = [row.f for row in rec.rows]
        for a, b in zip(fs, fs[1:]):
            assert b <= a + 1e-12

    def test_divergence_reported_with_partial_record(self):
        assert_diverges_with_partial_record("fgd")


class TestSfgd:
    def test_single_sample_fixed_step_matches_fgd(self):
        rng = np.random.default_rng(23)
        Ustar = rng.standard_normal((4, 2))
        A = symmetrize(rng.standard_normal((4, 4)))[None, :, :]
        b = np.array([np.vdot(A[0], gram(Ustar))])
        from factored_sdp.objective import SensingProblem

        prob = SensingProblem(A, b)
        U0 = rng.standard_normal((4, 2))
        import math

        sfgd = run_sfgd(prob, SolverConfig(algorithm="sfgd", r=2, epochs=5, seed=0,
                                           eta0=0.02, t0=math.inf), U0)
        fgd = run_fgd(prob, SolverConfig(algorithm="fgd", r=2, epochs=5, seed=0,
                                         eta=0.02), U0)
        assert np.abs(sfgd.final_U - fgd.final_U).max() <= 1e-12

    def test_expected_direction_is_full_gradient(self):
        prob = sensing_generate(5, 2, 25, seed=24)
        U = np.random.default_rng(25).standard_normal((5, 2))
        mean = np.zeros_like(U)
        for i in range(prob.n):
            mean += prob.grad_sample_times_factor(i, U)
        mean /= prob.n
        assert np.abs(mean - prob.grad_full(gram(U)) @ U).max() <= 1e-10

    def test_deterministic_per_seed(self):
        prob = sensing_generate(5, 2, 15, seed=26)
        U0 = np.random.default_rng(27).standard_normal((5, 2))
        cfg = dict(algorithm="sfgd", r=2, epochs=4, seed=7, eta0=0.01)
        a = run_sfgd(prob, SolverConfig(**cfg), U0, U_ref=prob.Ustar)
        b = run_sfgd(prob, SolverConfig(**cfg), U0, U_ref=prob.Ustar)
        assert a.rows == b.rows
        np.testing.assert_array_equal(a.final_U, b.final_U)

    def test_recorded_step_decays_per_epoch(self):
        prob = sensing_generate(4, 2, 6, seed=28)
        U0 = 0.01 * np.random.default_rng(29).standard_normal((4, 2))
        rec = run_sfgd(prob, SolverConfig(algorithm="sfgd", r=2, epochs=3, seed=0,
                                          eta0=0.1), U0)
        # t0 defaults to n, so the first step of epoch k uses 0.1 / (1 + k)
        etas = [row.eta for row in rec.rows[:3]]
        np.testing.assert_allclose(etas, [0.1, 0.05, 0.1 / 3.0], rtol=1e-12)
        assert rec.rows[-1].eta == 0.0


class TestSensingInnerLoop:
    """The per-step SVRG and SFGD updates, pinned bit for bit on sensing.

    Each reference is the update rule written out, on the solver's own
    ``rng.integers`` draws; a reordered sum or product changes the bits.
    """

    def test_svrg_epoch_is_the_update_rule(self):
        prob = sensing_generate(5, 2, 20, seed=40)
        U0 = np.random.default_rng(41).standard_normal((5, 2))
        eta, m, seed = 0.003, 30, 9
        rec = run_svrg(prob, svrg_config(epochs=1, m=m, seed=seed,
                                         schedule=fixed(eta)), U0)
        gstf = prob.grad_sample_times_factor
        Ut = U0.copy()
        g = prob.value_and_grad_full(gram(Ut))[1] @ Ut
        U = Ut.copy()
        for i in np.random.default_rng(seed).integers(0, prob.n, size=m).tolist():
            U = U - eta * (gstf(i, U) - gstf(i, Ut) + g)
        assert np.array_equal(rec.final_U, U)

    def test_two_sfgd_epochs_are_the_update_rule(self):
        prob = sensing_generate(5, 2, 20, seed=42)
        U0 = np.random.default_rng(43).standard_normal((5, 2))
        eta0, t0, seed = 0.004, 7.0, 11
        rec = run_sfgd(prob, SolverConfig(algorithm="sfgd", r=2, epochs=2, seed=seed,
                                          eta0=eta0, t0=t0), U0)
        rng = np.random.default_rng(seed)
        U, t = U0.copy(), 0
        for _ in range(2):
            for i in rng.integers(0, prob.n, size=prob.n).tolist():
                U = U - eta0 / (1.0 + t / t0) * prob.grad_sample_times_factor(i, U)
                t += 1
        assert np.array_equal(rec.final_U, U)


class TestProjGd:
    def test_zero_gradient_nearly_constant(self):
        obj = constant_objective(4)
        X0 = gram(np.random.default_rng(30).standard_normal((4, 2)))
        cfg = SolverConfig(algorithm="projgd", r=1, epochs=3, seed=0, eta=0.5)
        rec = run_projgd(obj, cfg, X0)
        assert np.abs(rec.final_X - X0).max() <= 1e-12 * max(1, np.abs(X0).max())

    def test_iterates_stay_psd(self):
        prob = sensing_generate(4, 2, 20, seed=31)
        X0 = symmetrize(np.random.default_rng(32).standard_normal((4, 4)))
        assert np.linalg.eigvalsh(X0).min() < 0
        cfg = SolverConfig(algorithm="projgd", r=1, epochs=1, seed=0, eta=0.01)
        rec = run_projgd(prob, cfg, X0)
        assert np.linalg.eigvalsh(rec.final_X).min() >= -1e-10

    def test_descent_on_convex_instance(self):
        prob = sensing_generate(5, 2, 30, seed=33)
        X0 = gram(np.random.default_rng(34).standard_normal((5, 2)))
        cfg = SolverConfig(algorithm="projgd", r=1, epochs=25, seed=0, eta=0.01)
        rec = run_projgd(prob, cfg, X0, X_ref=prob.Xstar)
        fs = [row.f for row in rec.rows]
        for a, b in zip(fs, fs[1:]):
            assert b <= a + 1e-12
        assert all(row.error_U is None for row in rec.rows)


class TestRowLayout:
    def test_eval_every_thins_rows(self):
        prob = sensing_generate(4, 2, 8, seed=35)
        U0 = np.random.default_rng(36).standard_normal((4, 2))
        cfg = SolverConfig(algorithm="fgd", r=2, epochs=10, seed=0, eta=0.001,
                           eval_every=3)
        rec = run_fgd(prob, cfg, U0)
        assert [row.epoch for row in rec.rows] == [0, 3, 6, 9, 10]

    def test_epochs_to_reads_the_named_field(self):
        rows = [Row(epoch, 0.1, 1.0, error, None, metric, 0) for epoch, error, metric
                in ((0, 1.0, 0.5), (1, None, 0.2), (2, 1e-3, 0.05))]
        assert epochs_to(rows, 1e-2) == 2
        assert epochs_to(rows, 0.2, field="metric") == 1
        assert epochs_to(rows, 1e-9) == math.inf

    @pytest.mark.parametrize("runner,fields", [
        (run_svrg, dict(m=5, schedule=fixed(0.01))), (run_sfgd, dict(eta0=0.01)),
        (run_fgd, dict(eta=0.01))])
    def test_factored_run_keeps_only_its_factor(self, runner, fields):
        prob = sensing_generate(4, 2, 8, seed=37)
        U0 = np.random.default_rng(38).standard_normal((4, 2))
        config = SolverConfig(algorithm="factored", r=2, epochs=2, seed=0, **fields)
        rec = runner(prob, config, U0)
        assert rec.final_X is None and rec.final_U.shape == (4, 2)

    def test_last_row_is_final_state_with_zero_eta(self):
        prob = sensing_generate(4, 2, 8, seed=37)
        U0 = np.random.default_rng(38).standard_normal((4, 2))
        rec = run_svrg(prob, svrg_config(epochs=3), U0, X_ref=prob.Xstar,
                       U_ref=prob.Ustar)
        assert [row.epoch for row in rec.rows] == [0, 1, 2, 3]
        assert rec.rows[-1].eta == 0.0
        assert all(row.eta > 0 for row in rec.rows[:-1])

    def test_exact_recovery_smoke(self):
        prob = sensing_generate(10, 2, 120, seed=39)
        rng = np.random.default_rng(40)
        G = rng.standard_normal(prob.Ustar.shape)
        U0 = prob.Ustar + 0.05 * G / np.linalg.norm(G)
        cfg = svrg_config(epochs=40, m=120, schedule=fixed(0.002), r=2)
        rec = run_svrg(prob, cfg, U0, X_ref=prob.Xstar)
        assert rec.rows[-1].error_X < 1e-9


# ---------------------------------------------------------------------------
# the triplet inner-loop kernel against the per-step loop over one-sample
# objectives


class CountingTriplets(TripletProblem):
    """A TripletProblem with a counted per-sample oracle next to its kernel."""

    calls = 0

    def grad_sample_times_factor(self, i, U):
        self.calls += 1
        return ReferenceTriplets.grad_sample_times_factor(self, i, U)


def kernel_and_reference(algo, p, triplets, lam, U0, **fields):
    """The records of one run through the kernel and through the reference.

    ``fields`` go to SolverConfig.  A diverged run's record is returned as
    it stands.
    """
    records = []
    config = SolverConfig(algorithm=algo, r=U0.shape[1], seed=0, **fields)
    for cls in (TripletProblem, ReferenceTriplets):
        run = run_sfgd if algo == "sfgd" else run_svrg
        try:
            records.append(run(cls(p, triplets, lam), config, U0))
        except DivergedError as err:
            records.append(err.record)
    return records


def rel_diff(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


@pytest.fixture(scope="module")
def criterion_10():
    """Trial 0 of the acceptance embedding instance: p, train, lam, L, U0."""
    p, dim, lam = 50, 2, 1e-2
    _, T = planted_triplets(p, dim, 4000, 0)
    L, _ = estimate_smoothness(TripletProblem(p, T, lam), probe_pairs(p, dim, seed=1))
    train, _ = split_triplets(T, 0.8, 0)
    return p, train, lam, L, init_scheme3(p, dim, 1.0, INIT_SEED_OFFSET)


@pytest.fixture(scope="module")
def small_triplets():
    p = 12
    _, T = planted_triplets(p, 2, 400, 0)
    return p, T, init_scheme3(p, 2, 1.0, INIT_SEED_OFFSET)


class TestTripletKernel:
    """TripletProblem.factor_steps is the per-step loop up to rounding.

    The reference steps along the one-sample objective's gradient times U.

    SFGD at eta0 = 2 is chaotic: per-step agreement near 1e-17 grows to
    about 1e-5 relative after one 3200-step epoch and to O(1) after two,
    so at that step the iterates are pinned over 200 steps only.
    """

    def test_solvers_call_the_kernel(self, small_triplets):
        p, T, U0 = small_triplets
        obj = CountingTriplets(p, T, 0.1)
        run_svrg(obj, svrg_config(m=30), U0)
        run_sfgd(obj, SolverConfig(algorithm="sfgd", r=2, epochs=2, seed=0,
                                   eta0=0.1), U0)
        assert obj.calls == 0

    def test_svrg_epoch_at_criterion_10_steps(self, criterion_10):
        p, train, lam, L, U0 = criterion_10
        m = len(train)
        kernel, ref = kernel_and_reference(
            "svrg-sbb", p, train, lam, U0, epochs=1, m=m,
            schedule=sbb(0.02 * L, m, eta0=1.0))
        assert rel_diff(kernel.final_U, ref.final_U) <= 1e-10

    def test_sfgd_epochs_at_a_small_step(self, criterion_10):
        p, train, lam, _, U0 = criterion_10
        kernel, ref = kernel_and_reference("sfgd", p, train, lam, U0, epochs=3,
                                           eta0=0.05, t0=3200.0)
        assert rel_diff(kernel.final_U, ref.final_U) <= 1e-10

    def test_sfgd_200_steps_at_the_criterion_10_step(self, criterion_10):
        p, train, lam, _, U0 = criterion_10
        kernel, ref = kernel_and_reference("sfgd", p, train[:200], lam, U0,
                                           epochs=1, eta0=2.0, t0=3200.0)
        assert rel_diff(kernel.final_U, ref.final_U) <= 1e-10

    @pytest.mark.parametrize("algo,lam,eta,m", [
        ("svrg", 0.0, 0.1, 600),    # a = 1, the path criterion 06 takes
        ("svrg", 0.5, 2.0, 200),    # eta lam = 1: a = 0
        ("svrg", 0.5, 3.0, 200),    # eta lam > 1: a < 0
        ("svrg", 0.5, 1.0, 3200),   # the running product 0.5^t underflows
        ("sfgd", 0.0, 0.1, None),
        # a = -0.5: the product, and the iterate with it, shrinks past 1e-100
        ("sfgd", 0.5, 3.0, None),
    ])
    def test_edge_steps(self, small_triplets, algo, lam, eta, m):
        p, T, U0 = small_triplets
        if algo == "svrg":
            fields = dict(epochs=2, m=m, schedule=fixed(eta))
        else:
            fields = dict(epochs=2, eta0=eta, t0=math.inf)
        kernel, ref = kernel_and_reference(algo, p, T, lam, U0, **fields)
        assert not ref.diverged
        assert rel_diff(kernel.final_U, ref.final_U) <= 1e-10

    @pytest.mark.parametrize("algo", ["svrg", "sfgd"])
    @pytest.mark.parametrize("start", ["nan", "overflow"])
    def test_non_finite_iterate_diverges_as_the_reference(self, small_triplets,
                                                          algo, start):
        p, T, U0 = small_triplets
        U0 = U0.copy()
        if start == "nan":
            U0[3, 1], eta = math.nan, 0.1
        else:
            eta = 1e6
        if algo == "svrg":
            fields = dict(epochs=3, m=60, schedule=fixed(eta))
        else:
            fields = dict(epochs=3, eta0=eta, t0=math.inf)
        kernel, ref = kernel_and_reference(algo, p, T, 1e-2, U0, **fields)
        assert ref.diverged and kernel.diverged
        assert kernel.diverged_epoch == ref.diverged_epoch
        assert repr(kernel.rows[-1]) == repr(ref.rows[-1])
        assert len(kernel.rows) == len(ref.rows)

import dataclasses
import math

import numpy as np
import pytest

from factored_sdp.cli import INIT_SEED_OFFSET
from factored_sdp.init import init_perturbed_optimum, init_scheme3
from factored_sdp.linalg import gram, symmetrize
from factored_sdp.objective import (
    SampleObjective,
    SensingProblem,
    TripletProblem,
    _kernel,
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
    assert 1 <= err.record.diverged_epoch <= 50
    # the step in force is the one the row before the marker records
    assert err.record.diverged_eta == err.record.rows[-2].eta
    assert str(err) == \
        f"iterate diverged at epoch {err.record.diverged_epoch}, step {err.record.diverged_eta!r}"
    last = err.record.rows[-1]
    assert last.epoch == err.record.diverged_epoch
    assert np.isnan(last.f)
    assert np.isnan(last.error_X)
    grads = [row.sample_grads for row in err.record.rows]
    assert grads == sorted(grads)
    if algo == "projgd":
        # X-space run: no factor, and final_X is the step before projection
        assert last.error_U is None
        assert err.record.final_U is None
        X = symmetrize(gram(U0))
        if err.record.diverged_epoch > 1:
            X = run_projgd(prob, SolverConfig(**{**base, "epochs": err.record.diverged_epoch - 1},
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


def tiny_run(runner, start, **fields):
    """Call ``runner`` on a p=4 sensing instance with a rank-2 config of ``fields``."""
    prob = sensing_generate(4, 2, 8, seed=0)
    config = SolverConfig(algorithm="run", r=2, epochs=1, seed=0, **fields)
    return lambda: runner(prob, config, start)


@pytest.mark.parametrize("call, message", [
    (lambda: SolverConfig(algorithm="", r=1, epochs=1, seed=0),
     "algorithm label must be a nonempty string"),
    (tiny_run(run_svrg, np.zeros((4, 2)), m=3), "run_svrg needs config.schedule"),
    (tiny_run(run_svrg, np.zeros((4, 2)), schedule=fixed(0.1)),
     "run_svrg needs config.m"),
    (tiny_run(run_fgd, np.zeros((4, 2))), "run_fgd needs config.eta"),
    (tiny_run(run_projgd, np.zeros((4, 4))), "run_projgd needs config.eta"),
    (tiny_run(run_sfgd, np.zeros((4, 2))), "run_sfgd needs config.eta0"),
    (tiny_run(run_projgd, np.zeros((3, 3)), eta=0.1),
     "initial matrix must have shape (4, 4)"),
], ids=["empty-label", "svrg-schedule", "svrg-m", "fgd-eta", "projgd-eta",
        "sfgd-eta0", "projgd-shape"])
def test_input_check_raises_its_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError
    assert str(info.value) == message


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -0.5])
    def test_step_not_finite_and_positive_ends_the_run_at_its_epoch(self, bad):
        class StepAt:
            """0.01 at every epoch but epoch 2, which gets ``bad``."""

            m = 5

            def next_step(self, state, snap):
                k = 0 if state is None else state + 1
                return (bad if k == 2 else 0.01), k

        class Counting(SensingProblem):
            steps = 0

            def factor_steps(self, U, idx, etas, anchor=None):
                self.steps += len(idx)
                return super().factor_steps(U, idx, etas, anchor)

        base = sensing_generate(5, 2, 20, seed=31)
        prob = Counting(base.A, base.b)
        U0 = np.random.default_rng(32).standard_normal((5, 2))
        with pytest.raises(DivergedError) as info:
            run_svrg(prob, svrg_config(epochs=5, schedule=StepAt()), U0)
        err = info.value
        # two epochs of m = 5 steps ran; epoch 2 ran none
        assert prob.steps == 2 * 5
        assert err.record.diverged_epoch == 2
        assert repr(err.record.diverged_eta) == repr(bad)
        assert str(err) == f"iterate diverged at epoch 2, step {bad!r}"
        assert [row.epoch for row in err.record.rows] == [0, 1, 2]
        assert math.isnan(err.record.rows[-1].f)
        two = run_svrg(base, svrg_config(epochs=2, schedule=fixed(0.01)), U0)
        np.testing.assert_array_equal(err.record.final_U, two.final_U)

    def test_schedule_gets_snapshots_without_anchor_terms(self):
        """The anchor table goes to the inner loop; the schedule never sees it."""
        class Recording:
            m = 5

            def __init__(self):
                self.seen = []

            def next_step(self, state, snap):
                self.seen.append(snap)
                return 0.01, state

        class Anchors(SensingProblem):
            def factor_steps(self, U, idx, etas, anchor=None):
                assert anchor.terms is not None
                return super().factor_steps(U, idx, etas, anchor)

        base = sensing_generate(5, 2, 20, seed=33)
        schedule = Recording()
        run_svrg(Anchors(base.A, base.b), svrg_config(epochs=3, schedule=schedule),
                 np.random.default_rng(34).standard_normal((5, 2)))
        assert len(schedule.seen) == 3
        assert all(snap.terms is None and snap.g is not None for snap in schedule.seen)


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

    @pytest.mark.parametrize("eta0,t0", [(0.05, None), (2.0, 3200.0), (0.1, 7.0),
                                         (1e-3, math.inf), (0.3, 600.0), (3.0, 1e4)])
    def test_epoch_steps_are_the_scalar_formula(self, eta0, t0):
        """Each epoch's steps equal eta0 / (1 + t / t0) in Python floats, bit for bit."""

        class Steps(LinearObjective):
            def factor_steps(self, U, idx, etas, anchor=None):
                self.etas.append(etas)
                return U

        obj = Steps(np.eye(3))
        obj.n, obj.etas = 3200, []
        run_sfgd(obj, SolverConfig(algorithm="sfgd", r=2, epochs=4, seed=0,
                                   eta0=eta0, t0=t0), np.ones((3, 2)))
        t0 = float(obj.n) if t0 is None else t0
        for k, etas in enumerate(obj.etas):
            expected = [eta0 / (1.0 + t / t0) for t in range(k * obj.n, (k + 1) * obj.n)]
            assert etas == expected
            assert all(type(eta) is float for eta in etas)
        assert len(obj.etas) == 4

    def test_divergence_names_the_step_of_an_unrecorded_epoch(self):
        """f(X) = -tr X grows U by (1 + eta_k) per one-sample epoch, eta_k = 1e6 / (1 + k).

        The diverging epoch is not a multiple of eval_every, so its row is
        not written; its step is still the one the record names.
        """
        obj = LinearObjective(-np.eye(3))
        U0 = np.random.default_rng(30).standard_normal((3, 2))
        with pytest.raises(DivergedError) as info:
            run_sfgd(obj, SolverConfig(algorithm="sfgd", r=2, epochs=100, seed=0,
                                       eta0=1e6, t0=1.0, eval_every=7), U0)
        k = info.value.record.diverged_epoch - 1
        assert k % 7
        assert k not in [row.epoch for row in info.value.record.rows]
        assert info.value.record.diverged_eta == 1e6 / (1.0 + k)


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
        g = prob.snapshot(Ut).g
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


class ReferenceSensing(SensingProblem):
    """A SensingProblem without its kernel: the base class's per-step loop."""

    factor_steps = SampleObjective.factor_steps


class TestSensingKernel:
    """SensingProblem.factor_steps is the base class's per-step loop, bit for bit.

    m is below, at and above n = 2p, so that samples repeat within a call
    and the anchor terms computed at their first draw are reused.
    """

    @pytest.mark.parametrize("m_per_n", [0.75, 1, 3])
    @pytest.mark.parametrize("r", [1, 2, 4])
    @pytest.mark.parametrize("p", [5, 12])
    def test_loop_is_the_reference(self, p, r, m_per_n):
        prob = sensing_generate(p, 2, 2 * p, seed=50 + p)
        rng = np.random.default_rng(51 + 10 * r)
        U0 = rng.standard_normal((p, r))
        Ut = U0 + 0.1 * rng.standard_normal((p, r))
        anchor = prob.snapshot(Ut)
        m = int(m_per_n * prob.n)
        idx = rng.integers(0, prob.n, size=m)
        assert len(set(idx.tolist())) < m
        eta0 = 0.05 / p**2
        fixed_steps = [eta0] * m
        decaying = (eta0 / (1.0 + np.arange(m) / (prob.n / 2))).tolist()
        for etas in (fixed_steps, decaying):
            for a in (None, anchor):
                kernel = prob.factor_steps(U0, idx, etas, a)
                ref = SampleObjective.factor_steps(prob, U0, idx, etas, a)
                assert np.array_equal(kernel, ref, equal_nan=True)
                assert not np.array_equal(kernel, U0)

    @pytest.mark.parametrize("algo", ["svrg", "sfgd"])
    @pytest.mark.parametrize("start", ["nan", "overflow"])
    def test_non_finite_iterate_diverges_as_the_reference(self, algo, start):
        prob = sensing_generate(5, 2, 20, seed=52)
        U0 = np.random.default_rng(53).standard_normal((5, 2))
        if start == "nan":
            U0[3, -1], eta = math.nan, 1e-3
        else:
            eta = 1e6
        if algo == "svrg":
            run, config = run_svrg, svrg_config(epochs=3, m=40, schedule=fixed(eta))
        else:
            run, config = run_sfgd, SolverConfig(algorithm="sfgd", r=2, epochs=3, seed=0,
                                                 eta0=eta)
        records = []
        for obj in (prob, ReferenceSensing(prob.A, prob.b)):
            with pytest.raises(DivergedError) as info:
                run(obj, config, U0)
            records.append(info.value.record)
        kernel, ref = records
        assert kernel.diverged_epoch == ref.diverged_epoch
        assert repr(kernel.rows) == repr(ref.rows)
        assert np.array_equal(kernel.final_U, ref.final_U, equal_nan=True)


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
    """||a - b|| / ||b||; a zero b asks for a equal to it."""
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


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


EDGE_STEPS = [
    ("svrg", 0.0, 0.1, 600),    # a = 1, the path criterion 06 takes
    ("svrg", 0.5, 2.0, 200),    # eta lam = 1: a = 0
    ("svrg", 0.5, 3.0, 200),    # eta lam > 1: a < 0
    ("svrg", 0.5, 1.0, 3200),   # the running product 0.5^t underflows
    ("sfgd", 0.0, 0.1, None),
    # a = -0.5: the product, and the iterate with it, shrinks past 1e-100
    ("sfgd", 0.5, 3.0, None),
    # a = 0 on the path that divides by a; the rows collapse to 0 within a
    # few steps, so test_a_zero_writes_the_reference_rows checks the values
    ("sfgd", 0.5, 2.0, None),
]


def assert_edge_step_matches(p, T, U0, algo, lam, eta, m):
    """Two epochs at an edge step of ``EDGE_STEPS`` agree with the reference."""
    if algo == "svrg":
        fields = dict(epochs=2, m=m, schedule=fixed(eta))
    else:
        fields = dict(epochs=2, eta0=eta, t0=math.inf)
    kernel, ref = kernel_and_reference(algo, p, T, lam, U0, **fields)
    assert not ref.diverged
    assert rel_diff(kernel.final_U, ref.final_U) <= 1e-10


def assert_diverges_as_the_reference(p, T, U0, algo, start):
    """A NaN entry or an overflowing step diverges at the reference's epoch and row."""
    U0 = U0.copy()
    if start == "nan":
        U0[3, -1], eta = math.nan, 0.1
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


def assert_large_rows_match(p, T, algo, r):
    """One epoch at a = 0.5 from rows near 1e140 agrees with the reference.

    The kernel's scale P = 0.5^t reaches the restart bound 1e-100 at step
    333 of the 400.  Just before, the reference's rows are still about
    1e63 (SFGD, which shrinks them) or 1e139 (SVRG, whose anchor holds
    them), so the stored rows u / P are near 1e163 or 1e239: squared
    unscaled, their differences would overflow, though the actual margins
    do not.
    """
    U0 = 1e140 * init_scheme3(p, r, 1.0, INIT_SEED_OFFSET)
    if algo == "svrg":
        fields = dict(epochs=1, m=len(T), schedule=fixed(1.0))
    else:
        fields = dict(epochs=1, eta0=1.0, t0=math.inf)
    kernel, ref = kernel_and_reference(algo, p, T, 0.5, U0, **fields)
    assert kernel.diverged == ref.diverged
    if not ref.diverged:
        assert np.abs(ref.final_U).max() >= 1e40
        assert rel_diff(kernel.final_U, ref.final_U) <= 1e-10


class TestTripletKernel:
    """TripletProblem.factor_steps is the per-step loop up to rounding.

    The reference steps along the one-sample objective's gradient times U.

    SFGD at eta0 = 2 is chaotic: per-step agreement near 1e-16 grows to
    about 4e-6 relative after one 3200-step epoch and to O(1) after two,
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

    @pytest.mark.parametrize("r", [1, 3])
    @pytest.mark.parametrize("algo", ["svrg", "sfgd"])
    def test_epoch_at_other_ranks(self, criterion_10, algo, r):
        # At the criterion-10 SVRG step 1.0, rounding grows over the epoch to
        # 3.5e-10 relative at r = 3 (8e-12 at r = 2); at 0.5 it stays near 2e-15.
        p, train, lam, _, _ = criterion_10
        U0 = init_scheme3(p, r, 1.0, INIT_SEED_OFFSET)
        if algo == "svrg":
            fields = dict(epochs=1, m=len(train), schedule=fixed(0.5))
        else:
            fields = dict(epochs=1, eta0=0.05, t0=3200.0)
        kernel, ref = kernel_and_reference(algo, p, train, lam, U0, **fields)
        assert rel_diff(kernel.final_U, ref.final_U) <= 1e-10

    @pytest.mark.parametrize("algo,lam,eta,m", EDGE_STEPS)
    def test_edge_steps(self, small_triplets, algo, lam, eta, m):
        assert_edge_step_matches(*small_triplets, algo, lam, eta, m)

    @pytest.mark.parametrize("r", [1, 3])
    @pytest.mark.parametrize("algo,lam,eta,m", EDGE_STEPS)
    def test_edge_steps_at_other_ranks(self, small_triplets, algo, lam, eta, m, r):
        p, T, _ = small_triplets
        U0 = init_scheme3(p, r, 1.0, INIT_SEED_OFFSET)
        assert_edge_step_matches(p, T, U0, algo, lam, eta, m)

    @pytest.mark.parametrize("algo", ["svrg", "sfgd"])
    @pytest.mark.parametrize("start", ["nan", "overflow"])
    def test_non_finite_iterate_diverges_as_the_reference(self, small_triplets,
                                                          algo, start):
        assert_diverges_as_the_reference(*small_triplets, algo, start)

    @pytest.mark.parametrize("r", [1, 3])
    @pytest.mark.parametrize("algo", ["svrg", "sfgd"])
    @pytest.mark.parametrize("start", ["nan", "overflow"])
    def test_non_finite_iterate_at_other_ranks(self, small_triplets, algo, start, r):
        p, T, _ = small_triplets
        assert_diverges_as_the_reference(p, T, init_scheme3(p, r, 1.0, INIT_SEED_OFFSET),
                                         algo, start)

    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("algo", ["svrg", "sfgd"])
    def test_large_rows_near_the_restart_bound(self, small_triplets, algo, r):
        p, T, _ = small_triplets
        assert_large_rows_match(p, T, algo, r)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_a_zero_writes_the_reference_rows(self, small_triplets, r):
        """SFGD at eta lam = 1 over a few steps, before the rows collapse.

        At a = 0 a step zeroes every row off its triplet, so the steps run
        along a chain of triplets, each sharing a row with the one before.
        """
        p, T, _ = small_triplets
        chain = [0]
        for c in range(1, len(T)):
            if len(chain) < 4 and set(T[c].tolist()) & set(T[chain[-1]].tolist()):
                chain.append(c)
        idx, etas = np.array(chain), [2.0] * len(chain)
        U0 = init_scheme3(p, r, 1.0, INIT_SEED_OFFSET)
        kernel = TripletProblem(p, T, 0.5).factor_steps(U0, idx, etas)
        ref = ReferenceTriplets(p, T, 0.5).factor_steps(U0, idx, etas)
        assert np.abs(ref).max() > 0
        assert rel_diff(kernel, ref) <= 1e-10

    def test_kernel_is_compiled_once_per_rank_and_anchor(self):
        assert _kernel(3, True) is _kernel(3, True)
        assert _kernel(3, False) is not _kernel(3, True)


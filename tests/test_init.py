import numpy as np
import pytest

from factored_sdp.init import (
    DegenerateCurvature,
    init_perturbed_optimum,
    init_scheme1,
    init_scheme2,
    init_scheme3,
)
from factored_sdp.linalg import gram
from factored_sdp.objective import (
    SampleObjective,
    SensingProblem,
    estimate_smoothness,
    probe_pairs,
    sensing_generate,
)


class ConstantObjective(SampleObjective):
    def __init__(self, p):
        self.p = p
        self.n = 1

    def eval_sample(self, i, X):
        return 0.0

    def grad_sample(self, i, X):
        return np.zeros((self.p, self.p))


class TestScheme1:
    def test_warm_start_lands_near_optimum(self):
        prob = sensing_generate(8, 2, 80, seed=0)
        L_hat, _ = estimate_smoothness(prob, probe_pairs(8, 2, seed=1, n_pairs=10))
        U0 = init_scheme1(prob, 2, warm_epochs=200, eta=0.5 / L_hat)
        err = np.linalg.norm(gram(U0) - prob.Xstar) / max(1, np.linalg.norm(prob.Xstar))
        assert err < 0.1

    def test_zero_gradient_stays_at_zero(self):
        U0 = init_scheme1(ConstantObjective(5), 2, warm_epochs=3, eta=0.1)
        np.testing.assert_array_equal(U0, np.zeros((5, 2)))

    def test_deterministic(self):
        prob = sensing_generate(5, 2, 20, seed=2)
        a = init_scheme1(prob, 2, warm_epochs=10, eta=0.01)
        b = init_scheme1(prob, 2, warm_epochs=10, eta=0.01)
        np.testing.assert_array_equal(a, b)

    def test_rejects_zero_epochs(self):
        prob = sensing_generate(4, 1, 8, seed=3)
        with pytest.raises(ValueError):
            init_scheme1(prob, 1, warm_epochs=0, eta=0.01)


class TestScheme2:
    def test_identity_measurement_hand_values(self):
        # single measurement <I, X> with target 1: the gradient at zero is
        # -I, the probe gradient is 0, so X0 = I / sqrt(p)
        prob = SensingProblem(np.eye(2)[None, :, :], np.array([1.0]))
        U0 = init_scheme2(prob, 2)
        np.testing.assert_allclose(gram(U0), np.eye(2) / np.sqrt(2.0), atol=1e-12)

    def test_negative_definite_gradient_gives_zero(self):
        prob = SensingProblem(np.eye(3)[None, :, :], np.array([-1.0]))
        U0 = init_scheme2(prob, 2)
        np.testing.assert_array_equal(U0, np.zeros((3, 2)))

    def test_output_psd_and_low_rank(self):
        prob = sensing_generate(6, 3, 40, seed=4)
        U0 = init_scheme2(prob, 2)
        assert U0.shape == (6, 2)
        w = np.linalg.eigvalsh(gram(U0))
        assert w.min() >= -1e-12
        assert (w > 1e-12).sum() <= 2

    def test_scale_equivariant(self):
        prob = sensing_generate(5, 2, 25, seed=5)

        class Scaled(SampleObjective):
            n = prob.n
            p = prob.p

            def eval_sample(self, i, X):
                return 7.0 * prob.eval_sample(i, X)

            def grad_sample(self, i, X):
                return 7.0 * prob.grad_sample(i, X)

            def grad_full(self, X):
                return 7.0 * prob.grad_full(X)

        a = init_scheme2(prob, 2)
        b = init_scheme2(Scaled(), 2)
        np.testing.assert_allclose(gram(a), gram(b), atol=1e-12)

    def test_flat_objective_raises(self):
        with pytest.raises(DegenerateCurvature):
            init_scheme2(ConstantObjective(4), 2)


class TestScheme3:
    def test_expected_norm_matches_scale(self):
        scale = 1.7
        sq = [
            np.linalg.norm(init_scheme3(4, 2, scale, seed)) ** 2
            for seed in range(1000)
        ]
        assert np.mean(sq) == pytest.approx(scale**2, rel=0.05)

    def test_deterministic_per_seed(self):
        np.testing.assert_array_equal(init_scheme3(5, 3, 1.0, 9),
                                      init_scheme3(5, 3, 1.0, 9))
        assert np.abs(init_scheme3(5, 3, 1.0, 9) - init_scheme3(5, 3, 1.0, 10)).max() > 0

    def test_rejects_zero_scale(self):
        for bad in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                init_scheme3(4, 2, bad, 0)


class TestPerturbedOptimum:
    def test_zero_radius_copies(self):
        U = np.random.default_rng(11).standard_normal((4, 2))
        out = init_perturbed_optimum(U, 0.0, seed=0)
        np.testing.assert_array_equal(out, U)
        assert out is not U

    def test_exact_radius(self):
        U = np.random.default_rng(12).standard_normal((6, 3))
        for radius in (1e-3, 0.5, 2.0):
            out = init_perturbed_optimum(U, radius, seed=13)
            assert np.linalg.norm(out - U) == pytest.approx(radius, rel=1e-12)

    def test_deterministic_per_seed(self):
        U = np.random.default_rng(14).standard_normal((4, 2))
        np.testing.assert_array_equal(init_perturbed_optimum(U, 0.3, 5),
                                      init_perturbed_optimum(U, 0.3, 5))

    def test_rejects_negative_radius(self):
        for bad in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                init_perturbed_optimum(np.eye(3), bad, 0)

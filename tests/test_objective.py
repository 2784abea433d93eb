import numpy as np
import pytest

from factored_sdp.linalg import gram, symmetrize
from factored_sdp.objective import (
    FULL,
    NoProbes,
    SampleObjective,
    SensingProblem,
    TripletProblem,
    estimate_smoothness,
    factored_gradient,
    planted_triplets,
    probe_pairs,
    sensing_generate,
    ste_grad_sample,
    ste_loss,
)


def fd_gradient(fun, X, h=1e-5):
    """Central finite differences of a scalar function of a matrix."""
    G = np.zeros_like(X)
    for a in range(X.shape[0]):
        for b in range(X.shape[1]):
            Xp = X.copy()
            Xm = X.copy()
            Xp[a, b] += h
            Xm[a, b] -= h
            G[a, b] = (fun(Xp) - fun(Xm)) / (2 * h)
    return G


def basis_sensing(p, seed=0):
    """Sensing instance whose Hessian action is exactly D / p^2.

    Measurements are the p^2 symmetrized coordinate matrices, so the
    curvature ratio of any probe pair is the constant 1/p^2.
    """
    A = np.zeros((p * p, p, p))
    idx = 0
    for a in range(p):
        for b in range(p):
            E = np.zeros((p, p))
            E[a, b] = 1.0
            A[idx] = (E + E.T) / 2.0
            idx += 1
    rng = np.random.default_rng(seed)
    Ustar = rng.standard_normal((p, 2))
    Xstar = gram(Ustar)
    b = np.einsum("kij,ij->k", A, Xstar)
    return SensingProblem(A, b, Xstar=Xstar, Ustar=Ustar)


class LinearObjective(SampleObjective):
    """f(X) = <C, X>: constant gradient, zero curvature."""

    def __init__(self, C):
        self.C = symmetrize(C)
        self.p = C.shape[0]
        self.n = 1

    def eval_sample(self, i, X):
        return float(np.vdot(self.C, X))

    def grad_sample(self, i, X):
        return self.C.copy()


class TestSensingGenerate:
    def test_deterministic_per_seed(self):
        a = sensing_generate(2, 1, 3, seed=7)
        b = sensing_generate(2, 1, 3, seed=7)
        np.testing.assert_array_equal(a.A, b.A)
        np.testing.assert_array_equal(a.b, b.b)
        np.testing.assert_array_equal(a.Ustar, b.Ustar)

    def test_noiseless_optimum_value(self):
        prob = sensing_generate(6, 2, 30, seed=1)
        assert abs(prob.eval_full(prob.Xstar)) <= 1e-18 * prob.n

    def test_gradient_vanishes_at_optimum(self):
        prob = sensing_generate(20, 3, 200, seed=1)
        assert np.linalg.norm(prob.grad_full(prob.Xstar)) <= 1e-9

    def test_measurements_symmetric(self):
        prob = sensing_generate(5, 2, 10, seed=3)
        for A_i, _ in prob.measurements:
            assert np.array_equal(A_i, A_i.T)


class TestSensingGradients:
    def test_identity_measurement(self):
        prob = SensingProblem(np.eye(2)[None, :, :], np.array([0.0]))
        np.testing.assert_allclose(prob.grad_sample(0, np.eye(2)), 2.0 * np.eye(2))

    def test_zero_at_optimum(self):
        prob = sensing_generate(5, 2, 12, seed=2)
        for i in range(prob.n):
            assert np.abs(prob.grad_sample(i, prob.Xstar)).max() <= 1e-12

    def test_matches_finite_differences(self):
        prob = sensing_generate(4, 2, 6, seed=4)
        rng = np.random.default_rng(5)
        X = symmetrize(rng.standard_normal((4, 4)))
        for i in range(prob.n):
            G = prob.grad_sample(i, X)
            G_fd = fd_gradient(lambda Y: prob.eval_sample(i, Y), X)
            assert np.abs(G - G_fd).max() <= 1e-6

    def test_full_is_sample_mean(self):
        prob = sensing_generate(5, 2, 17, seed=6)
        rng = np.random.default_rng(7)
        X = symmetrize(rng.standard_normal((5, 5)))
        mean = sum(prob.grad_sample(i, X) for i in range(prob.n)) / prob.n
        assert np.linalg.norm(prob.grad_full(X) - mean) <= 1e-10
        vals = sum(prob.eval_sample(i, X) for i in range(prob.n)) / prob.n
        assert abs(prob.eval_full(X) - vals) <= 1e-10 * (1 + abs(vals))

    def test_convexity_probe(self):
        prob = sensing_generate(5, 2, 20, seed=8)
        rng = np.random.default_rng(9)
        for _ in range(50):
            X = gram(rng.standard_normal((5, 3)))
            Y = gram(rng.standard_normal((5, 3)))
            gap = np.vdot(prob.grad_full(X) - prob.grad_full(Y), X - Y)
            assert gap >= -1e-12


def rel_err(a, b):
    return float(np.linalg.norm(np.subtract(a, b)) / np.linalg.norm(b))


def x_layouts(p, seed):
    """One nonsymmetric p-by-p matrix in C order, Fortran order and as a strided view."""
    X = np.random.default_rng(seed).standard_normal((p, p))
    wide = np.zeros((p, 2 * p))
    wide[:, ::2] = X
    return {"C": X, "F": np.asfortranarray(X), "strided": wide[:, ::2]}


class TestSensingGemvOracle:
    """The (n, p^2)-view full-batch oracles against the per-sample base loops.

    Nonsymmetric A_i and X make a transposed flattening of X visible: with
    symmetric A_i, <A_i, X^T> = <A_i, X> would hide it.
    """

    P = 7

    def problem(self):
        rng = np.random.default_rng(21)
        A = rng.standard_normal((40, self.P, self.P))
        return SensingProblem(A, rng.standard_normal(40))

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_full_batch_oracles_match_sample_loops(self, layout):
        prob = self.problem()
        X = x_layouts(self.P, 22)[layout]
        f_ref = SampleObjective.eval_full(prob, X)
        G_ref = SampleObjective.grad_full(prob, X)
        assert abs(prob.eval_full(X) - f_ref) <= 1e-12 * abs(f_ref)
        assert rel_err(prob.grad_full(X), G_ref) <= 1e-12
        f, G = prob.value_and_grad_full(X)
        assert abs(f - f_ref) <= 1e-12 * abs(f_ref)
        assert rel_err(G, G_ref) <= 1e-12
        sq_ref = SampleObjective.mean_grad_sample_sqnorm(prob, X)
        assert abs(prob.mean_grad_sample_sqnorm(X) - sq_ref) <= 1e-12 * sq_ref

    def test_grad_full_is_symmetric(self):
        prob = sensing_generate(30, 3, 200, seed=23)
        U = np.random.default_rng(24).standard_normal((30, 3))
        G = prob.grad_full(gram(U))
        assert np.abs(G - G.T).max() <= 1e-15 * np.abs(G).max()

    @pytest.mark.parametrize("contiguous", [True, False])
    def test_view_shares_the_one_operand(self, contiguous):
        A = np.random.default_rng(25).standard_normal((12, self.P, self.P))
        if not contiguous:
            A = np.transpose(A, (0, 2, 1))
        prob = SensingProblem(A, np.zeros(12))
        assert prob.A.flags.c_contiguous
        assert prob._A2.shape == (12, self.P * self.P)
        assert np.shares_memory(prob.A, prob._A2)
        np.testing.assert_array_equal(prob.A, A)
        assert np.shares_memory(prob.A, A) == contiguous


class TestSteLoss:
    def test_all_equal_distances(self):
        assert ste_loss((0, 1, 2), np.eye(4)) == pytest.approx(np.log(2.0))

    def test_strongly_satisfied_triplet(self):
        # points on a line: d2_ij = 0, d2_ik = 20, so the loss is -log sigma(20)
        coords = np.array([[0.0], [0.0], [np.sqrt(20.0)]])
        X = coords @ coords.T
        assert ste_loss((0, 1, 2), X) == pytest.approx(np.log1p(np.exp(-20.0)), rel=1e-12)

    def test_nonnegative_and_log2_iff_tie(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            X = symmetrize(rng.standard_normal((5, 5)))
            val = ste_loss((0, 1, 2), X)
            assert val >= 0.0
            d2ij = X[0, 0] + X[1, 1] - X[0, 1] - X[1, 0]
            d2ik = X[0, 0] + X[2, 2] - X[0, 2] - X[2, 0]
            if abs(val - np.log(2.0)) <= 1e-12:
                assert abs(d2ij - d2ik) <= 1e-10
            if abs(d2ij - d2ik) <= 1e-14:
                assert abs(val - np.log(2.0)) <= 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        X = symmetrize(rng.standard_normal((5, 5)))
        G = ste_grad_sample((0, 2, 4), X, lam=0.0)
        G_fd = fd_gradient(lambda Y: ste_loss((0, 2, 4), Y), X)
        assert np.abs(G - G_fd).max() <= 1e-6


class TestSteGradSample:
    def test_sparsity_pattern_at_identity(self):
        p = 6
        i, j, k = 1, 3, 5
        G = ste_grad_sample((i, j, k), np.eye(p), lam=0.0)
        # sigma(0) - 1 = -1/2 weights
        assert G[k, k] == pytest.approx(-0.5)
        assert G[j, j] == pytest.approx(0.5)
        assert G[i, j] == pytest.approx(-0.5)
        assert G[j, i] == pytest.approx(-0.5)
        assert G[i, k] == pytest.approx(0.5)
        assert G[k, i] == pytest.approx(0.5)
        assert G[i, i] == 0.0
        mask = np.zeros((p, p), dtype=bool)
        mask[np.ix_([i, j, k], [i, j, k])] = True
        assert np.all(G[~mask] == 0.0)

    def test_pure_regularizer_when_loss_saturated(self):
        # hugely satisfied triplet: the logistic weight underflows to ~0
        coords = np.zeros((4, 1))
        coords[3, 0] = 40.0
        X = coords @ coords.T
        G = ste_grad_sample((0, 1, 3), X, lam=0.1)
        np.testing.assert_allclose(G, 0.1 * np.eye(4), atol=1e-40)

    def test_matches_finite_differences_with_lambda(self):
        rng = np.random.default_rng(12)
        X = symmetrize(rng.standard_normal((5, 5)))
        G = ste_grad_sample((1, 0, 3), X, lam=0.05)
        G_fd = fd_gradient(lambda Y: ste_loss((1, 0, 3), Y) + 0.05 * np.trace(Y), X)
        assert np.abs(G - G_fd).max() <= 1e-6

    def test_exact_symmetry_both_families(self):
        rng = np.random.default_rng(13)
        sens = sensing_generate(5, 2, 8, seed=14)
        trip = TripletProblem(6, [(0, 1, 2), (3, 4, 5), (1, 5, 0)], lam=0.01)
        X5 = symmetrize(rng.standard_normal((5, 5)))
        X6 = symmetrize(rng.standard_normal((6, 6)))
        for i in range(sens.n):
            G = sens.grad_sample(i, X5)
            assert np.array_equal(G, G.T)
        for i in range(trip.n):
            G = trip.grad_sample(i, X6)
            assert np.array_equal(G, G.T)


class TestTripletProblem:
    def test_trace_term_slope(self):
        triplets = [(0, 1, 2), (2, 3, 0)]
        rng = np.random.default_rng(15)
        X = gram(rng.standard_normal((4, 2)))
        f1 = TripletProblem(4, triplets, lam=0.1).eval_full(X)
        f2 = TripletProblem(4, triplets, lam=0.7).eval_full(X)
        assert f2 - f1 == pytest.approx(0.6 * np.trace(X), rel=1e-12)

    def test_rejects_bad_triplets(self):
        with pytest.raises(ValueError):
            TripletProblem(3, [(0, 1, 3)])
        with pytest.raises(ValueError):
            TripletProblem(3, [(0, 1, 1)])

    def test_full_gradient_is_sample_mean(self):
        trip = TripletProblem(5, [(0, 1, 2), (1, 3, 4), (2, 4, 0), (3, 0, 1)], lam=0.02)
        rng = np.random.default_rng(16)
        X = gram(rng.standard_normal((5, 2)))
        mean = sum(trip.grad_sample(i, X) for i in range(trip.n)) / trip.n
        assert np.linalg.norm(trip.grad_full(X) - mean) <= 1e-10


class TestPlantedTriplets:
    @pytest.mark.parametrize("kw", [
        {"p": 2}, {"count": 0}, {"noise": 1.5}, {"noise": float("nan")},
        {"dim": 0}, {"scale": 0.0}, {"scale": float("inf")}, {"seed": -1},
    ])
    def test_rejects_bad_parameters(self, kw):
        """p < 3 would leave no distinct triple to draw, so it must raise."""
        args = {"p": 5, "dim": 2, "count": 4, "seed": 0, **kw}
        with pytest.raises(ValueError):
            planted_triplets(**args)


class TestFactoredGradient:
    def test_zero_gradient_gives_zero_factor(self):
        obj = LinearObjective(np.zeros((4, 4)))
        U = np.random.default_rng(17).standard_normal((4, 2))
        np.testing.assert_array_equal(factored_gradient(obj, FULL, U), np.zeros((4, 2)))

    def test_factor_two_against_finite_differences(self):
        prob = sensing_generate(4, 2, 10, seed=18)
        rng = np.random.default_rng(19)
        U = rng.standard_normal((4, 2))
        analytic = 2.0 * factored_gradient(prob, FULL, U)
        fd = fd_gradient(lambda V: prob.eval_full(gram(V)), U)
        assert np.abs(analytic - fd).max() <= 1e-6

    def test_product_path_matches_materialized(self):
        prob = sensing_generate(5, 2, 9, seed=20)
        trip = TripletProblem(5, [(0, 1, 2), (1, 3, 4), (2, 4, 0)], lam=0.03)
        rng = np.random.default_rng(21)
        U = rng.standard_normal((5, 2))
        X = gram(U)
        for obj in (prob, trip):
            for i in range(obj.n):
                direct = factored_gradient(obj, i, U)
                via_x = obj.grad_sample_times_factor(i, X, U)
                via_u = obj.grad_sample_times_factor(i, None, U)
                assert np.linalg.norm(direct - via_x) <= 1e-12
                assert np.linalg.norm(direct - via_u) <= 1e-12

    def test_unbiasedness_both_families(self):
        prob = sensing_generate(5, 2, 40, seed=22)
        trip = TripletProblem(6, [(0, 1, 2), (3, 4, 5), (1, 5, 0), (2, 3, 1)], lam=0.01)
        rng = np.random.default_rng(23)
        for obj, p in ((prob, 5), (trip, 6)):
            U = rng.standard_normal((p, 2))
            mean = sum(factored_gradient(obj, i, U) for i in range(obj.n)) / obj.n
            full = factored_gradient(obj, FULL, U)
            assert np.linalg.norm(mean - full) <= 1e-10


class TestEstimateSmoothness:
    def test_constant_curvature_on_basis_instance(self):
        prob = basis_sensing(3)
        pairs = probe_pairs(3, 2, seed=24, n_pairs=10)
        L_hat, mu_hat = estimate_smoothness(prob, pairs)
        assert L_hat == pytest.approx(1.0 / 9.0, rel=1e-9)
        assert mu_hat == pytest.approx(1.0 / 9.0, rel=1e-9)

    def test_linear_objective_has_zero_modulus(self):
        obj = LinearObjective(np.diag([1.0, 2.0, 3.0]))
        L_hat, mu_hat = estimate_smoothness(obj, probe_pairs(3, 1, seed=25, n_pairs=5))
        assert L_hat == 0.0
        assert mu_hat == 0.0

    def test_scaling_homogeneity(self):
        prob = sensing_generate(4, 2, 12, seed=26)

        class Scaled(SampleObjective):
            n = prob.n
            p = prob.p

            def eval_sample(self, i, X):
                return 3.0 * prob.eval_sample(i, X)

            def grad_sample(self, i, X):
                return 3.0 * prob.grad_sample(i, X)

            def grad_full(self, X):
                return 3.0 * prob.grad_full(X)

        pairs = probe_pairs(4, 2, seed=27, n_pairs=6)
        L1, m1 = estimate_smoothness(prob, pairs)
        L3, m3 = estimate_smoothness(Scaled(), pairs)
        assert L3 == pytest.approx(3.0 * L1, rel=1e-12)
        assert m3 == pytest.approx(3.0 * m1, rel=1e-12)

    def test_all_pairs_coincident(self):
        prob = sensing_generate(3, 1, 5, seed=28)
        X = gram(np.ones((3, 1)))
        with pytest.raises(NoProbes):
            estimate_smoothness(prob, [(X, X.copy()), (X, X.copy())])

import tracemalloc

import numpy as np
import pytest

from factored_sdp.linalg import gram, symmetrize
from factored_sdp.objective import (
    SYMMETRIZE_BLOCK_BYTES,
    NoProbes,
    SensingProblem,
    TripletProblem,
    estimate_smoothness,
    planted_triplets,
    probe_pairs,
    sensing_generate,
)
from helpers import (
    LinearObjective,
    basis_sensing,
    fd_gradient,
    kernel_direction,
    sample_objective,
)


def random_triplets(p, n, seed):
    """n uniform triplets over p points with pairwise distinct indices."""
    T = np.random.default_rng(seed).integers(0, p, size=(2 * n, 3))
    distinct = (T[:, 0] != T[:, 1]) & (T[:, 0] != T[:, 2]) & (T[:, 1] != T[:, 2])
    return T[distinct][:n]


def traced_bytes(build):
    """``build()``'s result and the bytes it still holds, with the peak, under tracemalloc."""
    tracemalloc.start()
    try:
        out = build()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, held, peak


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
        for A_i in prob.A:
            assert np.array_equal(A_i, A_i.T)

    def test_in_place_blocks_equal_whole_array_symmetrization(self):
        """A is bitwise (G + G^T)/2 of the same draws, across a partial last block."""
        p, r, n, seed = 60, 4, 100, 11
        step = SYMMETRIZE_BLOCK_BYTES // (8 * p * p)
        assert 1 < step < n and n % step != 0
        rng = np.random.default_rng(seed)
        Ustar = rng.standard_normal((p, r))
        G = rng.standard_normal((n, p, p))
        A = (G + np.transpose(G, (0, 2, 1))) / 2.0
        prob = sensing_generate(p, r, n, seed)
        assert np.array_equal(prob.Ustar, Ustar)
        assert np.array_equal(prob.A, A)
        assert np.array_equal(prob.b, np.einsum("kij,ij->k", A, gram(Ustar)))

    def test_holds_one_operand_while_generating(self):
        """Peak allocation stays near one (n, p, p) array, not two."""
        prob, _, peak = traced_bytes(lambda: sensing_generate(60, 4, 600, 0))
        assert peak < 1.25 * prob.A.nbytes


class TestSensingGradients:
    def test_identity_measurement(self):
        prob = SensingProblem(np.eye(2)[None, :, :], np.array([0.0]))
        np.testing.assert_allclose(prob.grad_full(np.eye(2)), 2.0 * np.eye(2))

    def test_zero_at_optimum(self):
        prob = sensing_generate(5, 2, 12, seed=2)
        for i in range(prob.n):
            assert np.abs(sample_objective(prob, i).grad_full(prob.Xstar)).max() <= 1e-12

    def test_matches_finite_differences(self):
        prob = sensing_generate(4, 2, 6, seed=4)
        rng = np.random.default_rng(5)
        X = symmetrize(rng.standard_normal((4, 4)))
        for i in range(prob.n):
            f_i = sample_objective(prob, i)
            G_fd = fd_gradient(f_i.eval_full, X)
            assert np.abs(f_i.grad_full(X) - G_fd).max() <= 1e-6

    def test_full_is_sample_mean(self):
        prob = sensing_generate(5, 2, 17, seed=6)
        rng = np.random.default_rng(7)
        X = symmetrize(rng.standard_normal((5, 5)))
        samples = [sample_objective(prob, i) for i in range(prob.n)]
        mean = sum(f_i.grad_full(X) for f_i in samples) / prob.n
        assert np.linalg.norm(prob.grad_full(X) - mean) <= 1e-10
        vals = sum(f_i.eval_full(X) for f_i in samples) / prob.n
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


def sample_moment(obj, X):
    """(1/n) sum_i ||grad f_i(X)||_F^2 as a loop over the one-sample objectives."""
    return sum(float(np.linalg.norm(sample_objective(obj, i).grad_full(X)) ** 2)
               for i in range(obj.n)) / obj.n


class TestSensingGemvOracle:
    """The (n, p^2)-view full-batch oracles against per-sample loops.

    Nonsymmetric A_i and X make a transposed flattening of X visible: with
    symmetric A_i, <A_i, X^T> = <A_i, X> would hide it.  A one-sample
    objective flattens X the same way, so the reference is written out
    with ``np.vdot``.
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
        resid = [np.vdot(A_i, X) - b_i for A_i, b_i in zip(prob.A, prob.b)]
        f_ref = sum(0.5 * r * r for r in resid) / prob.n
        G_ref = sum(r * A_i for r, A_i in zip(resid, prob.A)) / prob.n
        assert abs(prob.eval_full(X) - f_ref) <= 1e-12 * abs(f_ref)
        assert rel_err(prob.grad_full(X), G_ref) <= 1e-12
        f, G = prob.value_and_grad_full(X)
        assert abs(f - f_ref) <= 1e-12 * abs(f_ref)
        assert rel_err(G, G_ref) <= 1e-12

    def test_grad_full_is_symmetric(self):
        prob = sensing_generate(30, 3, 200, seed=23)
        U = np.random.default_rng(24).standard_normal((30, 3))
        G = prob.grad_full(gram(U))
        assert np.abs(G - G.T).max() <= 1e-15 * np.abs(G).max()

    @staticmethod
    def stacks(p, seed, S=5):
        """One (S, p, p) stack of nonsymmetric matrices in C order, Fortran order,
        as a strided view, and as a list of matrices."""
        Xs = np.random.default_rng(seed).standard_normal((S, p, p))
        wide = np.zeros((2 * S, p, 2 * p))
        wide[::2, :, ::2] = Xs
        return {"C": Xs, "F": np.asfortranarray(Xs), "strided": wide[::2, :, ::2],
                "list": list(Xs)}

    @pytest.mark.parametrize("layout", ["C", "F", "strided", "list"])
    def test_batched_oracles_match_per_matrix(self, layout):
        prob = self.problem()
        Xs = self.stacks(self.P, 26)[layout]
        G = prob.grad_full_many(Xs)
        G2, moments = prob.grad_moments_many(Xs)
        assert G.shape == G2.shape == (len(Xs), self.P, self.P)
        assert moments.shape == (len(Xs),)
        for s, X in enumerate(Xs):
            G_ref = prob.grad_full(X)
            assert rel_err(G[s], G_ref) <= 1e-12
            assert rel_err(G2[s], G_ref) <= 1e-12
            sq_ref = sample_moment(prob, X)
            assert abs(moments[s] - sq_ref) <= 1e-12 * sq_ref

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


def one_triplet(c, p, lam=0.0):
    """The objective of the single triplet c over p points."""
    return TripletProblem(p, [c], lam)


class TestSteLoss:
    def test_all_equal_distances(self):
        assert one_triplet((0, 1, 2), 4).eval_full(np.eye(4)) == pytest.approx(np.log(2.0))

    def test_strongly_satisfied_triplet(self):
        # points on a line: d2_ij = 0, d2_ik = 20, so the loss is -log sigma(20)
        coords = np.array([[0.0], [0.0], [np.sqrt(20.0)]])
        X = coords @ coords.T
        assert one_triplet((0, 1, 2), 3).eval_full(X) == pytest.approx(np.log1p(np.exp(-20.0)), rel=1e-12)

    def test_nonnegative_and_log2_iff_tie(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            X = symmetrize(rng.standard_normal((5, 5)))
            val = one_triplet((0, 1, 2), 5).eval_full(X)
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
        prob = one_triplet((0, 2, 4), 5)
        G = prob.grad_full(X)
        G_fd = fd_gradient(prob.eval_full, X)
        assert np.abs(G - G_fd).max() <= 1e-6


class TestSteGradSample:
    def test_sparsity_pattern_at_identity(self):
        p = 6
        i, j, k = 1, 3, 5
        G = one_triplet((i, j, k), p).grad_full(np.eye(p))
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
        G = one_triplet((0, 1, 3), 4, lam=0.1).grad_full(X)
        np.testing.assert_allclose(G, 0.1 * np.eye(4), atol=1e-40)

    def test_matches_finite_differences_with_lambda(self):
        rng = np.random.default_rng(12)
        X = symmetrize(rng.standard_normal((5, 5)))
        prob = one_triplet((1, 0, 3), 5, lam=0.05)
        G = prob.grad_full(X)
        G_fd = fd_gradient(prob.eval_full, X)
        assert np.abs(G - G_fd).max() <= 1e-6

    def test_exact_symmetry_both_families(self):
        rng = np.random.default_rng(13)
        sens = sensing_generate(5, 2, 8, seed=14)
        trip = TripletProblem(6, [(0, 1, 2), (3, 4, 5), (1, 5, 0)], lam=0.01)
        X5 = symmetrize(rng.standard_normal((5, 5)))
        X6 = symmetrize(rng.standard_normal((6, 6)))
        for obj, X in ((sens, X5), (trip, X6)):
            for i in range(obj.n):
                G = sample_objective(obj, i).grad_full(X)
                assert np.array_equal(G, G.T)


class TestTripletProblem:
    def test_holds_a_small_multiple_of_its_index_array(self):
        """No per-triplet Python list: the arrays built are about 2.3x the triplets."""
        T = random_triplets(20_000, 200_000, seed=31)
        assert len(T) == 200_000
        _, held, _ = traced_bytes(lambda: TripletProblem(20_000, T, 1e-2))
        assert held <= 3 * T.nbytes

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
        mean = sum(sample_objective(trip, i).grad_full(X) for i in range(trip.n)) / trip.n
        assert np.linalg.norm(trip.grad_full(X) - mean) <= 1e-10

    @pytest.mark.parametrize("lam", [0.0, 1e-2])
    def test_full_gradient_equals_add_at_scatters_bitwise(self, lam):
        """The one bincount sums each cell in the order of six add.at scatters."""
        _, T = planted_triplets(50, 2, 3200, seed=0)
        trip = TripletProblem(50, T, lam)
        X = gram(np.random.default_rng(17).standard_normal((50, 2)))
        I, J, K = T[:, 0], T[:, 1], T[:, 2]
        z = X[K, K] - X[J, J] - X[I, K] - X[K, I] + X[I, J] + X[J, I]
        w = -1.0 / (1.0 + np.exp(np.clip(z, -700.0, 700.0)))
        G = np.zeros((50, 50))
        np.add.at(G, (K, K), w)
        np.add.at(G, (J, J), -w)
        np.add.at(G, (I, J), w)
        np.add.at(G, (J, I), w)
        np.add.at(G, (I, K), -w)
        np.add.at(G, (K, I), -w)
        G = (G + G.T) / 2.0
        G /= trip.n
        if lam:
            G += lam * np.eye(50)
        assert np.array_equal(trip.grad_full(X), G)

    def test_batched_gradient_stacks_grad_full(self):
        _, T = planted_triplets(12, 2, 200, seed=1)
        trip = TripletProblem(12, T, 1e-2)
        rng = np.random.default_rng(18)
        Xs = [gram(rng.standard_normal((12, 2))) for _ in range(3)]
        G = trip.grad_full_many(Xs)
        for s, X in enumerate(Xs):
            assert np.array_equal(G[s], trip.grad_full(X))

    @pytest.mark.parametrize("lam", [0.0, 1e-2])
    def test_stacked_and_fused_oracles_match_per_point(self, lam):
        """Stacked and fused oracles repeat the one-point ones bitwise.

        The second moments match the loop over one-sample objectives.
        """
        _, T = planted_triplets(12, 2, 200, seed=2)
        trip = TripletProblem(12, T, lam)
        rng = np.random.default_rng(19)
        Xs = np.stack([gram(rng.standard_normal((12, 2))) for _ in range(3)])
        G = trip.grad_full_many(Xs)
        G2, moments = trip.grad_moments_many(Xs)
        assert np.array_equal(G2, G)
        for s, X in enumerate(Xs):
            assert np.array_equal(G[s], trip.grad_full(X))
            f, G1 = trip.value_and_grad_full(X)
            assert f == trip.eval_full(X)
            assert np.array_equal(G1, trip.grad_full(X))
            ref = sample_moment(trip, X)
            assert abs(moments[s] - ref) <= 1e-12 * ref


class TestDerivedOracles:
    def test_moments_with_a_trace_term_and_a_trace_carrying_operator(self):
        """||A_1 + lam I||^2 has the cross term 2 lam tr(A_1); triplet A_c have none."""
        obj = LinearObjective(np.diag([1.0, 2.0, 3.0]))
        obj.lam = 0.5
        G, moments = obj.grad_moments_many([np.eye(3)])
        assert np.array_equal(G[0], np.diag([1.5, 2.5, 3.5]))
        assert moments[0] == pytest.approx(1.5**2 + 2.5**2 + 3.5**2, rel=1e-14)


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
        np.testing.assert_array_equal(obj.grad_full(gram(U)) @ U, np.zeros((4, 2)))
        np.testing.assert_array_equal(obj.grad_sample_times_factor(0, U),
                                      np.zeros((4, 2)))

    def test_factor_two_against_finite_differences(self):
        prob = sensing_generate(4, 2, 10, seed=18)
        rng = np.random.default_rng(19)
        U = rng.standard_normal((4, 2))
        analytic = 2.0 * (prob.grad_full(gram(U)) @ U)
        fd = fd_gradient(lambda V: prob.eval_full(gram(V)), U)
        assert np.abs(analytic - fd).max() <= 1e-6

    @staticmethod
    def sample_direction(obj, i, U):
        """The per-sample factor direction the solvers step along.

        Sensing supplies ``grad_sample_times_factor``; triplets step along
        their kernel, read here as one step at eta = 1.
        """
        if isinstance(obj, TripletProblem):
            return kernel_direction(obj, i, U)
        return obj.grad_sample_times_factor(i, U)

    def test_product_path_matches_materialized(self):
        prob = sensing_generate(5, 2, 9, seed=20)
        trip = TripletProblem(5, [(0, 1, 2), (1, 3, 4), (2, 4, 0)], lam=0.03)
        rng = np.random.default_rng(21)
        U = rng.standard_normal((5, 2))
        X = gram(U)
        for obj in (prob, trip):
            for i in range(obj.n):
                direct = sample_objective(obj, i).grad_full(X) @ U
                via_u = self.sample_direction(obj, i, U)
                assert np.linalg.norm(direct - via_u) <= 1e-12

    def test_unbiasedness_both_families(self):
        prob = sensing_generate(5, 2, 40, seed=22)
        trip = TripletProblem(6, [(0, 1, 2), (3, 4, 5), (1, 5, 0), (2, 3, 1)], lam=0.01)
        rng = np.random.default_rng(23)
        for obj, p in ((prob, 5), (trip, 6)):
            U = rng.standard_normal((p, 2))
            mean = sum(self.sample_direction(obj, i, U)
                       for i in range(obj.n)) / obj.n
            full = obj.grad_full(gram(U)) @ U
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
        # sqrt(3) A and sqrt(3) b scale every f_i by 3
        scaled = SensingProblem(np.sqrt(3.0) * prob.A, np.sqrt(3.0) * prob.b)
        pairs = probe_pairs(4, 2, seed=27, n_pairs=6)
        L1, m1 = estimate_smoothness(prob, pairs)
        L3, m3 = estimate_smoothness(scaled, pairs)
        assert L3 == pytest.approx(3.0 * L1, rel=1e-12)
        assert m3 == pytest.approx(3.0 * m1, rel=1e-12)

    def test_coincident_pairs_are_dropped_before_the_batched_call(self):
        prob = sensing_generate(4, 2, 12, seed=29)
        pairs = probe_pairs(4, 2, seed=30, n_pairs=3)
        X = pairs[0][0]
        seen = []

        class Counting(SensingProblem):
            def grad_full_many(self, Xs):
                seen.append(len(Xs))
                return super().grad_full_many(Xs)

        counting = Counting(prob.A, prob.b)
        L, mu = estimate_smoothness(counting, [(X, X.copy()), *pairs])
        assert seen == [6]
        L_ref, mu_ref = estimate_smoothness(prob, pairs)
        assert (L, mu) == (L_ref, mu_ref)

    def test_peak_holds_no_list_of_differences(self):
        """The gradient stack of the 16 probe points, with a few p-by-p temporaries."""
        p = 400
        obj = TripletProblem(p, random_triplets(p, 20 * p, seed=32), 1e-2)
        pairs = probe_pairs(p, 2, seed=33)
        _, _, peak = traced_bytes(lambda: estimate_smoothness(obj, pairs))
        assert peak <= 22 * p * p * 8

    def test_all_pairs_coincident(self):
        prob = sensing_generate(3, 1, 5, seed=28)
        X = gram(np.ones((3, 1)))
        with pytest.raises(NoProbes):
            estimate_smoothness(prob, [(X, X.copy()), (X, X.copy())])

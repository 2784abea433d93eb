import numpy as np
import pytest

from factored_sdp.linalg import (
    EigFail,
    NotPSD,
    ShapeError,
    eig_sym,
    gram,
    proj_psd,
    procrustes_dist,
    symmetrize,
    tol_psd,
    truncated_approx,
)


def random_sym(rng, p):
    return symmetrize(rng.standard_normal((p, p)))


class TestGram:
    def test_rank_one_outer_product(self):
        U = np.array([[1.0], [0.0]])
        np.testing.assert_array_equal(gram(U), np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_identity_factor(self):
        np.testing.assert_array_equal(gram(np.eye(3)), np.eye(3))

    def test_hand_multiplied_2x2(self):
        # [[1,2],[3,4]] times its transpose, multiplied out by hand
        U = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(gram(U), np.array([[5.0, 11.0], [11.0, 25.0]]))

    def test_exactly_symmetric_and_near_psd(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = int(rng.integers(1, 9))
            r = int(rng.integers(1, p + 1))
            G = gram(rng.standard_normal((p, r)))
            assert np.array_equal(G, G.T)
            assert np.linalg.eigvalsh(G).min() >= -tol_psd(G)


class TestEigSym:
    def test_diagonal_input_sorted_descending(self):
        w, _ = eig_sym(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(w, [3.0, 2.0, 1.0])

    def test_identity(self):
        w, _ = eig_sym(np.eye(4))
        np.testing.assert_allclose(w, np.ones(4))

    def test_reconstruction(self):
        rng = np.random.default_rng(1)
        M = random_sym(rng, 5)
        w, Q = eig_sym(M)
        R = Q @ np.diag(w) @ Q.T
        assert np.linalg.norm(R - M) <= 1e-10 * max(1.0, np.linalg.norm(M))
        assert np.linalg.norm(Q.T @ Q - np.eye(5)) <= 1e-10

    def test_deterministic_under_ties(self):
        M = np.diag([2.0, 2.0, 1.0, 1.0])
        wa, Qa = eig_sym(M)
        wb, Qb = eig_sym(M)
        np.testing.assert_array_equal(wa, wb)
        np.testing.assert_array_equal(Qa, Qb)

    def test_nonconvergence_raises_eigfail(self):
        M = np.array([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(EigFail):
            eig_sym(M)


class TestTruncatedApprox:
    def test_diagonal_truncation(self):
        M_r, F = truncated_approx(np.diag([4.0, 1.0, 0.0]), 1)
        np.testing.assert_allclose(M_r, np.diag([4.0, 0.0, 0.0]))
        np.testing.assert_allclose(np.abs(F), np.array([[2.0], [0.0], [0.0]]))
        np.testing.assert_allclose(F @ F.T, M_r)

    def test_full_rank_keeps_all(self):
        rng = np.random.default_rng(2)
        M = gram(rng.standard_normal((5, 5)))
        M_r, F = truncated_approx(M, 5)
        np.testing.assert_allclose(M_r, M, atol=1e-10)
        np.testing.assert_allclose(F @ F.T, M, atol=1e-10)

    def test_recovers_known_rank_two(self):
        rng = np.random.default_rng(3)
        M = gram(rng.standard_normal((6, 2)))
        M_r, F = truncated_approx(M, 2)
        assert np.linalg.norm(M - M_r) <= 1e-9
        assert np.linalg.norm(M - F @ F.T) <= 1e-9

    def test_indefinite_input_rejected(self):
        with pytest.raises(NotPSD):
            truncated_approx(np.diag([1.0, -1.0]), 1)

    def test_optimality_among_random_rank_r_competitors(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            p = int(rng.integers(2, 9))
            r = int(rng.integers(1, p + 1))
            M = gram(rng.standard_normal((p, p)))
            M_r, _ = truncated_approx(M, r)
            best = np.linalg.norm(M - M_r)
            for _ in range(200):
                B = gram(rng.standard_normal((p, r)))
                assert best <= np.linalg.norm(M - B) + 1e-12


class TestProjPsd:
    def test_eigenvalue_clamping(self):
        np.testing.assert_allclose(proj_psd(np.diag([2.0, -3.0])), np.diag([2.0, 0.0]), atol=1e-12)

    def test_idempotent_on_cone(self):
        rng = np.random.default_rng(5)
        M = gram(rng.standard_normal((4, 4)))
        np.testing.assert_allclose(proj_psd(M), M, atol=1e-9 * max(1.0, np.linalg.norm(M)))

    def test_offdiagonal_example(self):
        # eigenpairs (1, -1) with vectors (1, +-1)/sqrt(2); keeping the +1 part
        M = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(proj_psd(M), np.full((2, 2), 0.5), atol=1e-12)

    def test_nearest_psd_among_random_competitors(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            p = int(rng.integers(2, 7))
            M = random_sym(rng, p)
            P = proj_psd(M)
            best = np.linalg.norm(M - P)
            for _ in range(200):
                B = gram(rng.standard_normal((p, p)))
                assert best <= np.linalg.norm(M - B) + 1e-12


class TestProcrustes:
    def test_zero_on_equal(self):
        rng = np.random.default_rng(7)
        U = rng.standard_normal((5, 2))
        assert procrustes_dist(U, U) <= 1e-12

    def test_rotation_invariance(self):
        rng = np.random.default_rng(8)
        U = rng.standard_normal((6, 3))
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        assert procrustes_dist(U, U @ Q) <= 1e-10

    def test_axis_scaling_example(self):
        # min over 2x2 rotations/reflections is attained at R = I, distance 1
        U = np.eye(2)
        V = np.diag([2.0, 1.0])
        assert abs(procrustes_dist(U, V) - 1.0) <= 1e-12

    def test_never_exceeds_plain_distance(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            p = int(rng.integers(1, 8))
            r = int(rng.integers(1, p + 1))
            U = rng.standard_normal((p, r))
            V = rng.standard_normal((p, r))
            assert procrustes_dist(U, V) <= np.linalg.norm(U - V) + 1e-12

    def test_equality_when_cross_gram_is_spd(self):
        # same orthonormal column span, positive diagonal scalings:
        # V^T U is diagonal positive, so the optimal rotation is I
        rng = np.random.default_rng(10)
        Q, _ = np.linalg.qr(rng.standard_normal((7, 3)))
        U = Q * np.array([1.0, 2.0, 3.0])
        V = Q * np.array([0.5, 1.5, 2.5])
        assert abs(procrustes_dist(U, V) - np.linalg.norm(U - V)) <= 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            procrustes_dist(np.eye(3), np.eye(2))


def eigh_fails(monkeypatch):
    def fail(M):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(np.linalg, "eigh", fail)
    return eig_sym(np.eye(3))


@pytest.mark.parametrize("call, error, message", [
    (lambda mp: truncated_approx(np.eye(3), 0), ShapeError,
     "rank 0 out of range for a 3x3 matrix"),
    (lambda mp: truncated_approx(np.eye(3), 4), ShapeError,
     "rank 4 out of range for a 3x3 matrix"),
    (eigh_fails, EigFail, "Eigenvalues did not converge"),
], ids=["rank-0", "rank-above-p", "eigh"])
def test_input_check_raises_its_message(monkeypatch, call, error, message):
    with pytest.raises(error) as info:
        call(monkeypatch)
    assert type(info.value) is error
    assert str(info.value) == message

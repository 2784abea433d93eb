import math
import tracemalloc

import numpy as np
import pytest

from factored_sdp import theory
from factored_sdp.linalg import gram, symmetrize, truncated_approx
from factored_sdp.objective import Snapshot, sensing_generate
from factored_sdp.stepsize import StepSchedule
from factored_sdp.theory import (
    CONSTANT_FIELDS,
    GRAD_NORM_ROUNDOFF_ULPS,
    REGION_CHUNK_BYTES,
    REGION_KEYS,
    HypothesisError,
    NotApplicable,
    _assumption2,
    compute_constants,
    constants_report_text,
    constants_rows,
    estimate_region_stats,
    grad_norm_floor,
    lemma_dist_bounds,
    lemma_feasibility,
    lemma_spectral_bounds,
    lemma_trace_bound,
    region_gamma0,
    sbb_inner_count_bound,
    theorem1_rate,
)
from helpers import basis_sensing, sample_objective

SQRT2M1 = math.sqrt(2.0) - 1.0

# Shared hand instance: L=2, mu=1, optimum diag(4, 1, 0, 0) at rank 2.
# All frozen values below were derived from the defining formulas with
# plain scalar arithmetic, independently of the module.
REGION = {"calB": 5.0, "B0": 3.0, "B1": 2.0, "grad_norm_at_Xr": 0.5}


def rank2_constants():
    return compute_constants(2.0, 1.0, np.diag([4.0, 1.0, 0.0, 0.0]), 2, REGION)


def near_rank2_constants():
    """Same instance with a 0.02 trailing eigenvalue, so gamma_l_tilde > 0."""
    return compute_constants(2.0, 1.0, np.diag([4.0, 1.0, 0.02, 0.0]), 2, REGION)


class ZeroObjective:
    """f identically zero: the gradient vanishes everywhere."""

    def __init__(self, p):
        self.p = p
        self.n = 1

    def grad_full(self, X):
        return np.zeros_like(X)


def rotation(r, angle, axes=(0, 1)):
    R = np.eye(r)
    a, b = axes
    R[a, a] = R[b, b] = math.cos(angle)
    R[a, b] = -math.sin(angle)
    R[b, a] = math.sin(angle)
    return R


class TestCheckAssumption2:
    """The rank-r approximation-error condition behind the ``assumption2_*`` fields."""

    @staticmethod
    def report(spectrum, r, kappa, xi):
        """(lhs, rhs, holds) on a decreasing spectrum truncated at rank r."""
        tail = np.asarray(spectrum[r:], dtype=float)
        return _assumption2(float(np.sqrt(np.sum(tail**2))), spectrum[r - 1], kappa, xi)

    def test_exact_rank_always_holds(self):
        """Zero tail beats any positive threshold."""
        lhs, rhs, holds = self.report([4.0, 1.0, 0.0], 2, kappa=2.0, xi=0.3)
        assert holds
        assert lhs == 0.0
        assert rhs > 0.0

    def test_identity_one_rank_down_fails(self):
        """Dropping one direction of the identity leaves a unit tail."""
        lhs, rhs, holds = self.report([1.0] * 5, 4, kappa=1.0, xi=0.5)
        assert not holds
        np.testing.assert_allclose(lhs, 1.0, rtol=1e-12)
        assert rhs < 1.0

    def test_cubic_decay_tail_too_heavy(self):
        """sigma_i = i^-3 truncated at r=3 violates the condition."""
        lhs, rhs, holds = self.report(
            [float(i) ** -3 for i in range(1, 9)], 3, kappa=1.5, xi=0.3)
        assert not holds
        np.testing.assert_allclose(lhs, 0.018490231272904178, rtol=1e-10)
        np.testing.assert_allclose(rhs, 0.00323421801192889, rtol=1e-10)

    def test_tiny_tail_passes(self):
        """A 1e-6-scale tail sits far below the threshold."""
        lhs, _, holds = self.report([4.0, 1.0, 1e-6, 1e-7], 2, kappa=1.5, xi=0.3)
        assert holds
        np.testing.assert_allclose(lhs, math.sqrt(1e-12 + 1e-14), rtol=1e-10)


class TestComputeConstants:
    def test_frozen_hand_instance(self):
        """Every derived constant matches the independent scalar derivation."""
        c = rank2_constants()
        expected = {
            "kappa": 2.0,
            "sigma_r_Xr": 1.0,
            "sigma_1_Xr": 4.0,
            "tau_Ur": 2.0,
            "tau_Xr": 4.0,
            "Xr_norm": math.sqrt(17.0),
            "approx_err": 0.0,
            "gamma0": 0.1380711874576984,
            "eta_bar": 0.19623377788531596,
            "xi": 0.1769799300937442,
            "Delta": 0.0004478323080081199,
            "Delta_tilde": 0.0005971097440108265,
            "gamma_l": 0.0032737803374308337,
            "gamma_u": 0.04559787787101659,
            "gamma_u_tilde": 0.048871658208447424,
            "B2": 1479.6969000988258,
            "delta": 0.04559787787101659,
            "theta": 79992.12743300098,
            "zeta1_a": 0.0016003768855752964,
            "zeta2": 4.128519344500838e-06,
            "eta_max": 4.128519344500838e-06,
            "eta_bar_max": 4.128519344500838e-06,
        }
        for name, value in expected.items():
            np.testing.assert_allclose(
                getattr(c, name), value, rtol=1e-12, err_msg=name
            )
        # exact rank-2 optimum: the inner lower radius collapses to zero
        assert abs(c.gamma_l_tilde) <= 1e-15
        assert c.violated == ()
        assert c.assumption2_holds

    def test_frozen_near_rank2_instance(self):
        """A 0.02 tail shrinks the annulus but keeps it open."""
        c = near_rank2_constants()
        np.testing.assert_allclose(c.gamma_l, 0.005018302588968935, rtol=1e-10)
        np.testing.assert_allclose(c.gamma_u, 0.04385335561947848, rtol=1e-10)
        np.testing.assert_allclose(
            c.gamma_l_tilde, 0.001494212509630187, rtol=1e-10
        )
        np.testing.assert_allclose(
            c.gamma_u_tilde, 0.04737744569881723, rtol=1e-10
        )
        np.testing.assert_allclose(c.theta, 74310.43135780406, rtol=1e-10)
        assert c.assumption2_holds

    def test_radius_sum_identity(self):
        """gamma_l + gamma_u equals twice the annulus center."""
        for c in (rank2_constants(), near_rank2_constants()):
            center2 = 4.0 * SQRT2M1 * c.xi * c.sigma_r_Xr / (3.0 * c.kappa)
            np.testing.assert_allclose(c.gamma_l + c.gamma_u, center2, rtol=1e-12)
            np.testing.assert_allclose(
                c.gamma_l_tilde + c.gamma_u_tilde, center2, rtol=1e-12
            )

    def test_radius_ordering(self):
        """Nested radii: tilde_l < l < u < tilde_u <= gamma0 sigma_r."""
        c = near_rank2_constants()
        assert (
            c.gamma_l_tilde
            < c.gamma_l
            < c.gamma_u
            < c.gamma_u_tilde
            <= c.gamma0 * c.sigma_r_Xr
        )

    def test_xi_range(self):
        """xi = eta_bar (1 - eta_bar/2) lands in (0, 1/2]."""
        for c in (rank2_constants(), near_rank2_constants()):
            assert 0.0 < c.xi <= 0.5
            assert 0.0 < c.eta_bar <= 1.0

    def test_theta_groupings_agree(self):
        """Both published forms of theta evaluate to the same number."""
        c = rank2_constants()
        assert c.theta_forms_agree
        np.testing.assert_allclose(c.theta, c.theta_alt, rtol=1e-9)
        np.testing.assert_allclose(c.zeta1_a, c.zeta1_b, rtol=1e-12)
        assert c.zeta1 == min(c.zeta1_a, c.zeta1_b)

    def test_heavy_tail_marks_discriminants(self):
        """An un-approximable optimum yields NaN radii, not an exception."""
        c = compute_constants(1.0, 1.0, np.eye(5), 4, REGION)
        assert c.violated == ("Delta", "Delta_tilde")
        for name in ("gamma_l", "gamma_u", "gamma_l_tilde", "gamma_u_tilde",
                     "delta", "theta", "eta_max", "eta_bar_max"):
            assert math.isnan(getattr(c, name)), name
        assert not c.assumption2_holds
        with pytest.raises(HypothesisError, match="negative"):
            c.require_assumption2()

    def test_rejects_bad_inputs(self):
        X = np.diag([4.0, 1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="L >= mu"):
            compute_constants(1.0, 2.0, X, 2, REGION)
        with pytest.raises(ValueError, match="L >= mu"):
            compute_constants(1.0, 0.0, X, 2, REGION)
        with pytest.raises(ValueError, match="calB"):
            compute_constants(2.0, 1.0, X, 2, {"B0": 1.0})
        with pytest.raises(ValueError, match="positive eigenvalue"):
            compute_constants(2.0, 1.0, X, 4, REGION)


class TestContractionFactors:
    def test_frozen_values(self):
        """rho and rho_tilde at eta_max/2, m=10 on the hand instance."""
        c = rank2_constants()
        eta = 2.064259672250419e-06
        np.testing.assert_allclose(c.eta_max / 2.0, eta, rtol=1e-12)
        np.testing.assert_allclose(c.rho(eta), 0.9999999618152594, rtol=1e-14)
        np.testing.assert_allclose(
            c.rho_tilde(eta, 10), 0.9999996812050196, rtol=1e-14
        )

    def test_inside_unit_interval(self):
        """Both factors stay in (0, 1) across the admissible step range."""
        c = near_rank2_constants()
        for frac in np.linspace(0.02, 0.98, 25):
            eta = frac * c.eta_max
            rho = c.rho(eta)
            rt = c.rho_tilde(eta, 20)
            assert 0.0 < rho < 1.0
            assert 0.0 < rt < 1.0
            assert rt > rho**20

    def test_outer_factor_identity(self):
        """rho_tilde is exactly rho^m + (1 - rho^m) eta theta."""
        c = near_rank2_constants()
        eta = 0.7 * c.eta_max
        rm = c.rho(eta) ** 6
        assert c.rho_tilde(eta, 6) == rm + (1.0 - rm) * eta * c.theta


class TestSbbInnerCountBound:
    def test_frozen_counts(self):
        assert sbb_inner_count_bound(1.0, 0.0, 0.01) == 101
        assert sbb_inner_count_bound(0.5, 0.5, 0.02) == 51

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            sbb_inner_count_bound(0.0, 0.0, 0.01)
        with pytest.raises(ValueError):
            sbb_inner_count_bound(1.0, 0.0, 0.0)

    def test_keeps_adaptive_step_under_target(self):
        """On constant curvature 1/p^2 the resulting step stays below target."""
        p = 3
        obj = basis_sensing(p)
        mu = 1.0 / p**2
        eps, target = 0.5, 0.05
        m = sbb_inner_count_bound(mu, eps, target)
        sched = StepSchedule("sbb", eps=eps, m=m, eta0=1e-3)
        rng = np.random.default_rng(7)
        X = symmetrize(rng.standard_normal((p, p)))
        _, state = sched.next_step(None, Snapshot(X=X, G=obj.grad_full(X)))
        for _ in range(3):
            X = X + symmetrize(rng.standard_normal((p, p)))
            eta, state = sched.next_step(state, Snapshot(X=X, G=obj.grad_full(X)))
            assert 0.0 < eta < target


class TestTheorem1Rate:
    def test_zero_steps_returns_initial_error(self):
        c = near_rank2_constants()
        d0 = 0.5 * (c.gamma_l + c.gamma_u)
        assert theorem1_rate(c, [], 8, d0) == d0

    def test_constant_step_closed_form(self):
        """Matches gbar + rho_tilde^k (D0 - gbar) with gbar = gtl/(1 - theta eta)."""
        c = near_rank2_constants()
        eta, m, k = c.eta_max / 2.0, 8, 7
        d0 = 0.5 * (c.gamma_l + c.gamma_u)
        out = theorem1_rate(c, [eta] * k, m, d0)
        gbar = c.gamma_l_tilde / (1.0 - c.theta * eta)
        closed = gbar + c.rho_tilde(eta, m) ** k * (d0 - gbar)
        np.testing.assert_allclose(out, closed, rtol=1e-12)
        np.testing.assert_allclose(out, 0.024435784924438302, rtol=1e-10)

    def test_matches_unrolled_recursion(self):
        """Varying steps agree with E <- rho_tilde E + gtl (1 - rho^m)."""
        c = near_rank2_constants()
        m, k = 5, 9
        etas = np.linspace(0.3, 0.9, k) * c.eta_max
        d0 = 0.8 * c.gamma_u
        out = theorem1_rate(c, etas, m, d0)
        E = d0
        for eta in etas:
            E = c.rho_tilde(eta, m) * E + c.gamma_l_tilde * (1.0 - c.rho(eta) ** m)
        np.testing.assert_allclose(out, E, rtol=1e-12)

    def test_bound_nonincreasing(self):
        """The predicted error never rises along the outer iterations."""
        c = rank2_constants()
        eta, m = c.eta_max / 2.0, 30
        d0 = 0.5 * (c.gamma_l + c.gamma_u)
        values = [theorem1_rate(c, [eta] * k, m, d0) for k in range(51)]
        diffs = np.diff(values)
        assert np.all(diffs <= 1e-15)
        assert values[50] < values[0]

    def test_hypothesis_violations_raise(self):
        c = near_rank2_constants()
        d0 = 0.5 * (c.gamma_l + c.gamma_u)
        with pytest.raises(HypothesisError, match="step size"):
            theorem1_rate(c, [0.0] * 3, 8, d0)
        with pytest.raises(HypothesisError, match="step size"):
            theorem1_rate(c, [c.eta_max] * 3, 8, d0)
        with pytest.raises(HypothesisError, match="initial squared error"):
            theorem1_rate(c, [c.eta_max / 2.0] * 3, 8, c.gamma_l)
        with pytest.raises(HypothesisError, match="initial squared error"):
            theorem1_rate(c, [c.eta_max / 2.0] * 3, 8, 2.0 * c.gamma_u)

    def test_rejects_empty_inner_loop(self):
        c = near_rank2_constants()
        with pytest.raises(ValueError, match="m >= 1"):
            theorem1_rate(c, [c.eta_max / 2.0] * 3, 0, 0.5 * (c.gamma_l + c.gamma_u))

    def test_unmet_assumption_blocks_evaluation(self):
        c = compute_constants(1.0, 1.0, np.eye(5), 4, REGION)
        with pytest.raises(HypothesisError):
            theorem1_rate(c, [1e-6] * 3, 8, 0.01)


class TestLemmaDistBounds:
    def test_coincident_factors(self):
        upper_ok, lower_ok, applicable = lemma_dist_bounds(
            np.eye(4, 2), np.eye(4, 2)
        )
        assert upper_ok and lower_ok and applicable

    def test_rotated_factor_satisfies_lower_bound(self):
        """A rotation changes U but not X; alignment keeps the bound valid."""
        rng = np.random.default_rng(3)
        Ur = rng.standard_normal((6, 3))
        U = Ur @ rotation(3, 0.3)
        upper_ok, lower_ok, applicable = lemma_dist_bounds(U, Ur)
        assert applicable
        assert upper_ok and lower_ok

    def test_random_nearby_pairs(self):
        """Both directions hold over random perturbations inside the ball."""
        rng = np.random.default_rng(11)
        for _ in range(2000):
            Ur = rng.standard_normal((5, 2))
            sr = np.linalg.svd(Ur, compute_uv=False)[-1]
            H = rng.standard_normal((5, 2))
            H *= 0.9 * sr * rng.uniform() / np.linalg.norm(H)
            upper_ok, lower_ok, applicable = lemma_dist_bounds(Ur + H, Ur)
            assert upper_ok
            assert applicable
            assert lower_ok

    def test_upper_bound_for_arbitrary_pairs(self):
        rng = np.random.default_rng(12)
        for _ in range(2000):
            U = rng.standard_normal((4, 2)) * rng.uniform(0.1, 3.0)
            Ur = rng.standard_normal((4, 2))
            upper_ok, _, _ = lemma_dist_bounds(U, Ur)
            assert upper_ok

    def test_far_pair_not_applicable(self):
        Ur = np.eye(3, 2)
        _, lower_ok, applicable = lemma_dist_bounds(10.0 * Ur, Ur)
        assert not applicable
        assert lower_ok is None

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            lemma_dist_bounds(np.eye(3, 2), np.eye(4, 2))


class TestLemmaSpectralBounds:
    def test_coincident_factors(self):
        assert lemma_spectral_bounds(np.eye(4, 2), np.eye(4, 2), 0.5) == (
            True,
            True,
        )

    def test_scalar_tight_case(self):
        """In one dimension the shrunk factor meets both bounds exactly."""
        gamma = 0.4
        U = np.array([[1.0 - gamma]])
        Ur = np.array([[1.0]])
        x_ok, s_ok = lemma_spectral_bounds(U, Ur, gamma)
        assert x_ok and s_ok

    def test_random_pairs_in_ball(self):
        """Bounds hold and the smallest singular value obeys Weyl's inequality."""
        rng = np.random.default_rng(21)
        for _ in range(2000):
            Ur = rng.standard_normal((6, 3))
            s = np.linalg.svd(Ur, compute_uv=False)
            gamma = rng.uniform(0.05, 0.95)
            H = rng.standard_normal((6, 3))
            H *= gamma * s[-1] * rng.uniform() / np.linalg.norm(H)
            U = Ur + H
            x_ok, s_ok = lemma_spectral_bounds(U, Ur, gamma)
            assert x_ok and s_ok
            d = np.linalg.norm(H)
            su = np.linalg.svd(U, compute_uv=False)
            assert abs(su[-1] - s[-1]) <= d + 1e-12

    def test_gamma_out_of_range(self):
        with pytest.raises(NotApplicable):
            lemma_spectral_bounds(np.eye(3, 2), np.eye(3, 2), 0.0)
        with pytest.raises(NotApplicable):
            lemma_spectral_bounds(np.eye(3, 2), np.eye(3, 2), 1.0)

    def test_perturbation_too_large(self):
        with pytest.raises(NotApplicable, match="exceeds"):
            lemma_spectral_bounds(3.0 * np.eye(3, 2), np.eye(3, 2), 0.5)


class TestLemmaFeasibility:
    def test_zero_gradient_objective(self):
        """With no gradient the step is the identity and everything holds."""
        rng = np.random.default_rng(5)
        Ur = rng.standard_normal((5, 2))
        E = 0.01 * rng.standard_normal((2, 2))
        U = Ur @ (np.eye(2) + E)
        rep = lemma_feasibility(U, Ur, ZeroObjective(5), 0.5, 1.0, 0.2)
        assert rep.bounded_gradient_ok
        assert rep.psd_ok
        assert rep.projection_ok
        assert rep.grad_norm == 0.0
        assert rep.grad_bound > 0.0

    def test_sensing_column_space_preserving(self):
        """All three properties hold near a planted optimum."""
        p = 6
        obj = basis_sensing(p, r=2, seed=4)
        Ur = obj.Ustar
        L = 1.0 / p**2
        c = compute_constants(
            L, L, obj.Xstar, 2,
            estimate_region_stats(obj, Ur, region_gamma0(L, L), n_samples=100),
        )
        rng = np.random.default_rng(6)
        sr2 = np.linalg.svd(Ur, compute_uv=False)[-1] ** 2
        for _ in range(300):
            E = rng.standard_normal((2, 2))
            E *= 0.2 * rng.uniform() / np.linalg.norm(E)
            U = Ur @ (np.eye(2) + E)
            if np.linalg.norm(U - Ur) ** 2 >= c.gamma0 * sr2:
                continue
            rep = lemma_feasibility(U, Ur, obj, c.eta_bar, L, c.gamma0)
            assert rep.bounded_gradient_ok
            assert rep.psd_ok
            assert rep.projection_ok
            assert rep.projection_residual <= 1e-8

    def test_sensing_generic_perturbation(self):
        """Gradient and PSD properties hold off the optimum's column space."""
        p = 6
        obj = basis_sensing(p, r=2, seed=9)
        Ur = obj.Ustar
        L = 1.0 / p**2
        gamma0 = region_gamma0(L, L)
        rng = np.random.default_rng(10)
        sr2 = np.linalg.svd(Ur, compute_uv=False)[-1] ** 2
        radius = math.sqrt(gamma0 * sr2)
        for _ in range(300):
            H = rng.standard_normal((p, 2))
            H *= 0.95 * radius * rng.uniform() / np.linalg.norm(H)
            rep = lemma_feasibility(Ur + H, Ur, obj, 0.5, L, gamma0)
            assert rep.bounded_gradient_ok
            assert rep.psd_ok

    def test_far_factor_not_applicable(self):
        Ur = np.eye(4, 2)
        with pytest.raises(NotApplicable):
            lemma_feasibility(5.0 * Ur, Ur, ZeroObjective(4), 0.5, 1.0, 0.2)


class TestLemmaTraceBound:
    def test_diagonal_hand_case(self):
        assert lemma_trace_bound(np.diag([2.0, 5.0]), np.eye(2))

    def test_detects_indefinite_violation(self):
        """An indefinite B can push the trace product below the bound."""
        assert not lemma_trace_bound(
            np.diag([2.0, 5.0]), np.diag([1.0, -1.0])
        )

    def test_random_psd_pairs(self):
        rng = np.random.default_rng(31)
        for _ in range(500):
            A = gram(rng.standard_normal((4, 4))) + 0.1 * np.eye(4)
            B = gram(rng.standard_normal((4, 2)))
            assert lemma_trace_bound(A, B)


class TestEstimateRegionStats:
    def test_keys_and_bounds(self):
        """Maxima dominate the center values and respect the ball radius."""
        p = 4
        obj = basis_sensing(p, r=2, seed=1)
        Ur = obj.Ustar
        gamma0 = 0.2
        stats = estimate_region_stats(obj, Ur, gamma0, n_samples=200, seed=3)
        assert set(stats) == set(REGION_KEYS)
        Xr = gram(Ur)
        assert stats["calB"] >= np.linalg.norm(Xr)
        sr2 = np.linalg.svd(Ur, compute_uv=False)[-1] ** 2
        radius = math.sqrt(gamma0 * sr2)
        assert stats["calB"] <= (np.linalg.norm(Ur) + radius) ** 2
        assert stats["B0"] >= 0.0
        assert stats["B1"] >= stats["grad_norm_at_Xr"] ** 2
        # planted noiseless optimum: the center gradient vanishes
        assert stats["grad_norm_at_Xr"] <= 1e-9

    def test_deterministic(self):
        obj = basis_sensing(4, r=2, seed=1)
        a = estimate_region_stats(obj, obj.Ustar, 0.2, n_samples=50, seed=5)
        b = estimate_region_stats(obj, obj.Ustar, 0.2, n_samples=50, seed=5)
        assert a == b

    def test_rejects_negative_sample_count(self):
        obj = basis_sensing(4, r=2, seed=1)
        with pytest.raises(ValueError):
            estimate_region_stats(obj, obj.Ustar, 0.2, n_samples=-1)

    @staticmethod
    def per_matrix_stats(obj, Ur, gamma0, n_samples, seed):
        """The per-matrix loop: one grad_full and one second moment per sample.

        The second moment loops over the one-sample objectives f_i.
        """
        p, r = Ur.shape
        samples = [sample_objective(obj, i) for i in range(obj.n)]
        radius = math.sqrt(gamma0 * float(np.linalg.svd(Ur, compute_uv=False)[-1] ** 2))
        rng = np.random.default_rng(seed)
        grad_norm_at_Xr = float(np.linalg.norm(obj.grad_full(gram(Ur))))
        calB, B0, B1 = 0.0, -math.inf, 0.0
        for s in range(n_samples + 1):
            if s == 0:
                U = Ur
            else:
                G = rng.standard_normal((p, r))
                G *= radius * rng.uniform() ** (1.0 / (p * r)) / np.linalg.norm(G)
                U = Ur + G
            X = gram(U)
            calB = max(calB, float(np.linalg.norm(X)))
            full_sq = float(np.linalg.norm(obj.grad_full(X))) ** 2
            second = sum(float(np.linalg.norm(f_i.grad_full(X))) ** 2
                         for f_i in samples) / obj.n
            B0 = max(B0, second - full_sq)
            B1 = max(B1, full_sq)
        return {"calB": calB, "B0": max(B0, 0.0), "B1": B1,
                "grad_norm_at_Xr": grad_norm_at_Xr}

    @pytest.mark.parametrize("n_samples", [0, 1, 25])
    def test_batched_chunks_match_the_per_matrix_loop(self, monkeypatch, n_samples):
        """Same draws, same suprema; 25 samples span several 4-sample chunks.

        The rank-2 center of a rank-3 optimum has a gradient well above
        round-off, so grad_norm_at_Xr is compared relatively too.
        """
        obj = sensing_generate(8, 3, 60, seed=12)
        _, Ur = truncated_approx(obj.Xstar, 2)
        monkeypatch.setattr(theory, "REGION_CHUNK_BYTES", 4 * 16 * (8 * 8 + 60))
        got = estimate_region_stats(obj, Ur, 0.15, n_samples=n_samples, seed=13)
        ref = self.per_matrix_stats(obj, Ur, 0.15, n_samples, seed=13)
        assert got["calB"] == ref["calB"]
        for key in ("B0", "B1", "grad_norm_at_Xr"):
            assert ref[key] > 0.0
            assert abs(got[key] - ref[key]) <= 1e-12 * ref[key], key
        assert got["B1"] >= got["grad_norm_at_Xr"] ** 2

    def test_memory_stays_within_the_chunk_budget(self):
        """2001 samples at p = 30 would need about 38 MB in one stack."""
        obj = sensing_generate(30, 2, 300, seed=0)
        _, Ur = truncated_approx(obj.Xstar, 2)
        assert 2001 * 16 * (30 * 30 + 300) > 4 * REGION_CHUNK_BYTES
        tracemalloc.start()
        try:
            estimate_region_stats(obj, Ur, 0.1, n_samples=2000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * REGION_CHUNK_BYTES


class TestReporting:
    # the audit CSV's rows, in order: the record's fields less zeta1_a,
    # zeta1_b and violated
    ROW_NAMES = [
        "L", "mu", "kappa", "r", "sigma_r_Xr", "sigma_1_Xr", "tau_Ur", "tau_Xr",
        "Xr_norm", "approx_err", "grad_norm_at_Xr", "gamma0", "eta_bar", "xi",
        "Delta", "Delta_tilde", "gamma_l", "gamma_u", "gamma_l_tilde",
        "gamma_u_tilde", "calB", "B0", "B1", "B2", "delta", "theta", "theta_alt",
        "zeta1", "zeta2", "eta_max", "eta_bar_max", "theta_forms_agree",
        "assumption2_lhs", "assumption2_rhs", "assumption2_holds",
    ]

    def test_rows_cover_all_fields(self):
        rows = constants_rows(rank2_constants())
        names = [name for name, _ in rows]
        for field in CONSTANT_FIELDS:
            assert field in names
        assert "assumption2_holds" in names
        assert len(names) == len(set(names))

    def test_rows_are_the_record_fields_in_order(self):
        c = rank2_constants()
        rows = constants_rows(c)
        assert [name for name, _ in rows] == self.ROW_NAMES
        assert list(CONSTANT_FIELDS) == self.ROW_NAMES
        values = dict(rows)
        assert values["r"] == 2 and isinstance(values["r"], int)
        for name in ("theta_forms_agree", "assumption2_holds"):
            assert values[name] == 1.0 and type(values[name]) is float
        assert values["assumption2_lhs"] == c.assumption2_lhs == c.approx_err
        assert values["assumption2_rhs"] == c.assumption2_rhs

    def test_report_text_mentions_sources(self):
        text = constants_report_text(rank2_constants())
        assert "under-estimates" in text
        assert "eta_max" in text

    def test_grad_norm_below_the_roundoff_floor_reads_zero(self):
        c = rank2_constants()
        floor = GRAD_NORM_ROUNDOFF_ULPS * np.finfo(float).eps * c.L * c.Xr_norm
        assert grad_norm_floor(c) == floor
        for measured, shown in [(0.5 * floor, 0.0), (2.0 * floor, 2.0 * floor)]:
            stats = dict(REGION, grad_norm_at_Xr=measured)
            c = compute_constants(2.0, 1.0, np.diag([4.0, 1.0, 0.0, 0.0]), 2, stats)
            assert c.grad_norm_at_Xr == measured
            assert dict(constants_rows(c))["grad_norm_at_Xr"] == shown
            text = constants_report_text(c)
            assert ("round-off floor" in text) == (shown == 0.0)

    def test_grad_norm_row_is_the_same_on_both_paths(self):
        """At a planted optimum the per-matrix and batched round-off both read 0."""
        obj = sensing_generate(12, 2, 120, seed=0)
        _, Ur = truncated_approx(obj.Xstar, 2)
        rows = []
        for stats in (
            TestEstimateRegionStats.per_matrix_stats(obj, Ur, 0.15, 4, seed=0),
            estimate_region_stats(obj, Ur, 0.15, n_samples=4, seed=0),
        ):
            assert 0.0 < stats["grad_norm_at_Xr"]
            c = compute_constants(1.5, 0.8, obj.Xstar, 2, stats)
            rows.append(dict(constants_rows(c))["grad_norm_at_Xr"])
        assert rows == [0.0, 0.0]

    def test_report_text_flags_violations(self):
        c = compute_constants(1.0, 1.0, np.eye(5), 4, REGION)
        assert "negative discriminants" in constants_report_text(c)


@pytest.mark.parametrize("L, X, r, message", [
    (1.0, np.eye(5), 4,
     "rank-r approximation error too large: Delta, Delta_tilde negative"),
    (2.0, np.diag([4.0, 1.0, 0.055, 0.0]), 2,
     "rank-r approximation error too large: Delta negative"),
], ids=["both", "Delta"])
def test_input_check_raises_its_message(L, X, r, message):
    """Negative discriminants fail Assumption 2 by name."""
    constants = compute_constants(L, 1.0, X, r, REGION)
    with pytest.raises(HypothesisError) as info:
        constants.require_assumption2()
    assert type(info.value) is HypothesisError
    assert str(info.value) == message

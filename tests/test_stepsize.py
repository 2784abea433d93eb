import math

import numpy as np
import pytest

from factored_sdp.linalg import symmetrize
from factored_sdp.stepsize import StallError, fixed, sbb, sbb_upper_bound


def rand_sym(rng, p):
    return symmetrize(rng.standard_normal((p, p)))


def quad_grad(X):
    """Gradient of a quadratic whose curvature is 1 off-diagonal, 4 on it."""
    return X + 3.0 * np.diag(np.diag(X))


class TestFixed:
    def test_constant(self):
        sched = fixed(0.05)
        rng = np.random.default_rng(0)
        for k in range(5):
            assert sched.next_step(k, rand_sym(rng, 3), rand_sym(rng, 3)) == 0.05

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fixed(0.0)
        with pytest.raises(ValueError):
            fixed(-1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                fixed(bad)


class TestAdaptive:
    def test_first_call_returns_eta0(self):
        sched = sbb(0.1, 20, eta0=0.007)
        rng = np.random.default_rng(1)
        assert sched.next_step(0, rand_sym(rng, 4), rand_sym(rng, 4)) == 0.007

    def test_eta0_defaults(self):
        rng = np.random.default_rng(2)
        X, g = rand_sym(rng, 3), rand_sym(rng, 3)
        assert sbb(0.0, 10).next_step(0, X, g) == 1e-3

    def test_proportional_secant(self):
        # dg = c * dX collapses the formula to 1 / (m * (c + eps))
        c, m, eps = 3.0, 10, 0.5
        sched = sbb(eps, m, eta0=1.0)
        rng = np.random.default_rng(3)
        X0, X1 = rand_sym(rng, 4), rand_sym(rng, 4)
        sched.next_step(0, X0, c * X0)
        eta = sched.next_step(1, X1, c * X1)
        assert eta == pytest.approx(1.0 / 35.0, rel=1e-12)

    def test_quadratic_bracket(self):
        # curvature eigenvalues are exactly {1, 4}, so every adaptive step
        # must land in [1/(m(4+eps)), 1/(m(1+eps))]
        m, eps = 10, 0.25
        sched = sbb(eps, m, eta0=1.0)
        rng = np.random.default_rng(4)
        X = rand_sym(rng, 5)
        sched.next_step(0, X, quad_grad(X))
        for k in range(1, 12):
            X = rand_sym(rng, 5)
            eta = sched.next_step(k, X, quad_grad(X))
            assert 1.0 / (m * (4.0 + eps)) - 1e-15 <= eta
            assert eta <= 1.0 / (m * (1.0 + eps)) + 1e-15

    def test_monotone_in_eps(self):
        rng = np.random.default_rng(6)
        inputs = [(rand_sym(rng, 4), rand_sym(rng, 4)) for _ in range(8)]
        etas = {}
        for eps in (0.01, 0.5, 2.0):
            sched = sbb(eps, 5, eta0=1.0)
            etas[eps] = [sched.next_step(k, X, g) for k, (X, g) in enumerate(inputs)]
        for k in range(1, len(inputs)):
            assert etas[2.0][k] <= etas[0.5][k] <= etas[0.01][k]

    def test_scale_covariance_exact_for_doubling(self):
        rng = np.random.default_rng(7)
        inputs = [(rand_sym(rng, 4), rand_sym(rng, 4)) for _ in range(6)]
        base = sbb(0.25, 5, eta0=1.0)
        scaled = sbb(0.5, 5, eta0=0.5)
        for k, (X, g) in enumerate(inputs):
            eta1 = base.next_step(k, X, g)
            eta2 = scaled.next_step(k, X, 2.0 * g)
            if k > 0:
                assert eta2 == eta1 / 2.0

    def test_stall_raises_only_without_stabilizer(self):
        rng = np.random.default_rng(8)
        X0, X1 = rand_sym(rng, 3), rand_sym(rng, 3)
        g = rand_sym(rng, 3)
        plain = sbb(0.0, 5, eta0=1.0)
        plain.next_step(0, X0, g)
        with pytest.raises(StallError):
            plain.next_step(1, X1, g.copy())
        stab = sbb(0.1, 5, eta0=1.0)
        stab.next_step(0, X0, g)
        eta = stab.next_step(1, X1, g.copy())
        assert eta == pytest.approx(1.0 / (5 * 0.1))

    def test_repeated_iterate_keeps_step_and_anchor(self):
        m = 4
        sched = sbb(0.0, m, eta0=0.123)
        rng = np.random.default_rng(9)
        X0 = rand_sym(rng, 3)
        g0 = 2.0 * X0
        sched.next_step(0, X0, g0)
        # identical iterate: previous step comes back, state stays put
        assert sched.next_step(1, X0.copy(), rand_sym(rng, 3)) == 0.123
        # the next real step must difference against X0, not the repeat
        X2 = rand_sym(rng, 3)
        eta = sched.next_step(2, X2, 2.0 * X2)
        assert eta == pytest.approx(1.0 / (m * 2.0), rel=1e-12)

    def test_positive_whenever_iterate_moves(self):
        sched = sbb(0.3, 6, eta0=0.5)
        rng = np.random.default_rng(10)
        for k in range(20):
            eta = sched.next_step(k, rand_sym(rng, 4), rand_sym(rng, 4))
            assert eta > 0.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            sbb(-0.1, 10)
        with pytest.raises(ValueError):
            sbb(0.1, 0)
        with pytest.raises(ValueError):
            sbb(0.1, 10, eta0=0.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                sbb(bad, 10)
            with pytest.raises(ValueError):
                sbb(0.1, 10, eta0=bad)


class TestUpperBound:
    def test_arithmetic(self):
        assert sbb_upper_bound(0.02, 100) == pytest.approx(0.5)

    def test_zero_eps_unbounded(self):
        assert sbb_upper_bound(0.0, 100) == math.inf

    def test_trajectory_never_exceeds(self):
        eps, m = 0.02, 100
        cap = sbb_upper_bound(eps, m)
        sched = sbb(eps, m, eta0=cap / 2)
        rng = np.random.default_rng(11)
        for k in range(50):
            eta = sched.next_step(k, rand_sym(rng, 4), rand_sym(rng, 4))
            assert eta <= cap * (1 + 1e-12)

    def test_rejects_negative_eps(self):
        with pytest.raises(ValueError):
            sbb_upper_bound(-1.0, 10)

import math

import numpy as np
import pytest

from factored_sdp.linalg import gram, symmetrize
from factored_sdp.objective import Snapshot, sensing_generate
from factored_sdp.stepsize import StallError, StepSchedule, fixed, sbb, sbb_upper_bound


def rand_sym(rng, p):
    return symmetrize(rng.standard_normal((p, p)))


def quad_grad(X):
    """Gradient of a quadratic whose curvature is 1 off-diagonal, 4 on it."""
    return X + 3.0 * np.diag(np.diag(X))


def point(X, g):
    """The snapshot of an objective with gradient ``g`` at X, as the schedule reads it."""
    return Snapshot(X=X, G=g)


def steps(sched, inputs):
    """The steps of one run that meets the outer iterates and gradients ``inputs``."""
    etas, state = [], None
    for X, g in inputs:
        eta, state = sched.next_step(state, point(X, g))
        etas.append(eta)
    return etas


class TestFixed:
    def test_constant(self):
        sched = fixed(0.05)
        rng = np.random.default_rng(0)
        inputs = [(rand_sym(rng, 3), rand_sym(rng, 3)) for _ in range(5)]
        assert steps(sched, inputs) == [0.05] * 5

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
        assert sched.next_step(None, point(rand_sym(rng, 4), rand_sym(rng, 4)))[0] == 0.007

    def test_eta0_defaults(self):
        rng = np.random.default_rng(2)
        X, g = rand_sym(rng, 3), rand_sym(rng, 3)
        assert sbb(0.0, 10).next_step(None, point(X, g))[0] == 1e-3

    def test_proportional_secant(self):
        # dg = c * dX collapses the formula to 1 / (m * (c + eps))
        c, m, eps = 3.0, 10, 0.5
        sched = sbb(eps, m, eta0=1.0)
        rng = np.random.default_rng(3)
        X0, X1 = rand_sym(rng, 4), rand_sym(rng, 4)
        _, eta = steps(sched, [(X0, c * X0), (X1, c * X1)])
        assert eta == pytest.approx(1.0 / 35.0, rel=1e-12)

    def test_quadratic_bracket(self):
        # curvature eigenvalues are exactly {1, 4}, so every adaptive step
        # must land in [1/(m(4+eps)), 1/(m(1+eps))]
        m, eps = 10, 0.25
        sched = sbb(eps, m, eta0=1.0)
        rng = np.random.default_rng(4)
        iterates = [rand_sym(rng, 5) for _ in range(12)]
        for eta in steps(sched, [(X, quad_grad(X)) for X in iterates])[1:]:
            assert 1.0 / (m * (4.0 + eps)) - 1e-15 <= eta
            assert eta <= 1.0 / (m * (1.0 + eps)) + 1e-15

    def test_monotone_in_eps(self):
        rng = np.random.default_rng(6)
        inputs = [(rand_sym(rng, 4), rand_sym(rng, 4)) for _ in range(8)]
        etas = {}
        for eps in (0.01, 0.5, 2.0):
            etas[eps] = steps(sbb(eps, 5, eta0=1.0), inputs)
        for k in range(1, len(inputs)):
            assert etas[2.0][k] <= etas[0.5][k] <= etas[0.01][k]

    def test_scale_covariance_exact_for_doubling(self):
        rng = np.random.default_rng(7)
        inputs = [(rand_sym(rng, 4), rand_sym(rng, 4)) for _ in range(6)]
        base = steps(sbb(0.25, 5, eta0=1.0), inputs)
        scaled = steps(sbb(0.5, 5, eta0=0.5), [(X, 2.0 * g) for X, g in inputs])
        for eta1, eta2 in zip(base[1:], scaled[1:]):
            assert eta2 == eta1 / 2.0

    def test_stall_raises_only_without_stabilizer(self):
        rng = np.random.default_rng(8)
        X0, X1 = rand_sym(rng, 3), rand_sym(rng, 3)
        g = rand_sym(rng, 3)
        with pytest.raises(StallError):
            steps(sbb(0.0, 5, eta0=1.0), [(X0, g), (X1, g.copy())])
        _, eta = steps(sbb(0.1, 5, eta0=1.0), [(X0, g), (X1, g.copy())])
        assert eta == pytest.approx(1.0 / (5 * 0.1))

    def test_repeated_iterate_keeps_step_and_anchor(self):
        m = 4
        sched = sbb(0.0, m, eta0=0.123)
        rng = np.random.default_rng(9)
        X0 = rand_sym(rng, 3)
        g0 = 2.0 * X0
        _, state = sched.next_step(None, point(X0, g0))
        # identical iterate: previous step comes back, state stays put
        eta, repeat = sched.next_step(state, point(X0.copy(), rand_sym(rng, 3)))
        assert eta == 0.123 and repeat is state
        # the next real step must difference against X0, not the repeat
        X2 = rand_sym(rng, 3)
        eta, _ = sched.next_step(repeat, point(X2, 2.0 * X2))
        assert eta == pytest.approx(1.0 / (m * 2.0), rel=1e-12)

    def test_steps_from_measurements_are_the_x_space_steps(self):
        """Sensing snapshots carry no G; their secant gives the X-space steps to 1e-12."""
        prob = sensing_generate(10, 2, 100, seed=12)
        rng = np.random.default_rng(13)
        Us = [prob.Ustar + 0.3 * rng.standard_normal((10, 2)) for _ in range(6)]
        sched = sbb(0.01, 100, eta0=1e-3)
        etas, state = [], None
        for U in Us:
            snap = prob.snapshot(U)
            assert snap.G is None
            eta, state = sched.next_step(state, snap)
            etas.append(eta)
        x_space = steps(sched, [(X, prob.grad_full(X)) for X in map(gram, Us)])
        assert etas[0] == x_space[0]
        for eta, ref in zip(etas[1:], x_space[1:]):
            assert abs(eta - ref) <= 1e-12 * ref

    def test_positive_whenever_iterate_moves(self):
        rng = np.random.default_rng(10)
        inputs = [(rand_sym(rng, 4), rand_sym(rng, 4)) for _ in range(20)]
        assert min(steps(sbb(0.3, 6, eta0=0.5), inputs)) > 0.0

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
        rng = np.random.default_rng(11)
        inputs = [(rand_sym(rng, 4), rand_sym(rng, 4)) for _ in range(50)]
        assert max(steps(sbb(eps, m, eta0=cap / 2), inputs)) <= cap * (1 + 1e-12)

    def test_rejects_negative_eps(self):
        with pytest.raises(ValueError):
            sbb_upper_bound(-1.0, 10)

    def test_rejects_nan_eps(self):
        with pytest.raises(ValueError):
            sbb_upper_bound(math.nan, 10)


@pytest.mark.parametrize("call, message", [
    (lambda: StepSchedule("newton"), "unknown schedule kind: 'newton'"),
    (lambda: sbb_upper_bound(0.1, 0), "m must be a positive integer"),
], ids=["schedule-kind", "upper-bound-m"])
def test_input_check_raises_its_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError
    assert str(info.value) == message

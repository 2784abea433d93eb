"""Test doubles and references shared by the test modules.

pytest puts this directory on ``sys.path``, so a test module imports them
with ``from helpers import ...``.
"""

import numpy as np

from factored_sdp.linalg import gram, symmetrize
from factored_sdp.objective import SampleObjective, SensingProblem, TripletProblem


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


def basis_sensing(p, r=2, seed=0):
    """Sensing instance over all p^2 symmetrized coordinate matrices.

    The quadratic's Hessian action is exactly identity / p^2, so the
    measured smoothness and curvature moduli coincide at 1/p^2 and every
    secant quotient is the same number.  That makes the adaptive-step
    bracket a single point, which pins the step sequence exactly.
    """
    A = np.zeros((p * p, p, p))
    idx = 0
    for a in range(p):
        for b in range(p):
            E = np.zeros((p, p))
            E[a, b] = 1.0
            A[idx] = (E + E.T) / 2.0
            idx += 1
    Ustar = np.random.default_rng(seed).standard_normal((p, r))
    Xstar = gram(Ustar)
    b = np.einsum("kij,ij->k", A, Xstar)
    return SensingProblem(A, b, Xstar=Xstar, Ustar=Ustar)


class LinearObjective(SampleObjective):
    """f(X) = <C, X>: one sample with phi(z) = z and A_1 = C.

    Constant gradient, zero curvature; the full-batch oracles are the
    base class's, derived from the primitives below.
    """

    def __init__(self, C):
        self.C = symmetrize(C)
        self.p = C.shape[0]
        self.n = 1
        self._A_sqnorms = np.array([np.vdot(self.C, self.C)])

    def _measure(self, Xs):
        return np.reshape(Xs, (-1, self.p * self.p)) @ self.C.reshape(-1, 1)

    def _value(self, z):
        return float(z[0])

    def _slope(self, Z):
        return np.ones_like(Z)

    def _adjoint(self, W):
        return W @ self.C.reshape(1, -1)

    def grad_sample_times_factor(self, i, U):
        return self.C @ U


def sample_objective(obj, i):
    """f_i as the one-sample objective of obj's family."""
    if isinstance(obj, TripletProblem):
        return TripletProblem(obj.p, obj.triplets[[i]], obj.lam)
    return SensingProblem(obj.A[[i]], obj.b[[i]])


class ReferenceTriplets(TripletProblem):
    """A TripletProblem without its kernel, the kernel's reference.

    The solvers then take the per-step loop, stepping along the
    one-sample objective's gradient times U.
    """

    factor_steps = None

    def grad_sample_times_factor(self, i, U):
        return sample_objective(self, i).grad_full(gram(U)) @ U


def kernel_direction(obj, i, U, anchor=None):
    """The direction of one kernel step at sample i and step 1: U - U_next.

    ``anchor`` is passed on to ``factor_steps``: without it this is the
    SFGD direction, with it the SVRG one.
    """
    return U - obj.factor_steps(U, [i], [1.0], anchor)

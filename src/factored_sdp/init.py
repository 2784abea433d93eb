"""Initialization schemes for the factored solvers.

Scheme I warm-starts with a few projected-gradient epochs and truncates.
Scheme II builds a one-shot spectral guess from the gradient at zero,
scaled by a curvature probe along e1 e1^T.  Scheme III is plain random
initialization.  A fourth helper perturbs a known optimum by an exact
radius, which is how local-convergence experiments are seeded.
"""

import numpy as np

from .linalg import proj_psd, truncated_approx
from .solvers import SolverConfig, run_projgd


class DegenerateCurvature(RuntimeError):
    """The gradient probe pair coincides, so the spectral scale is undefined."""


def init_scheme1(obj, r, warm_epochs, eta):
    """Rank-r truncated factor of a short projected-gradient warm start from 0."""
    if warm_epochs < 1:
        raise ValueError("warm_epochs must be at least 1")
    cfg = SolverConfig(algorithm="projgd", r=r, epochs=warm_epochs, seed=0,
                       eta=eta, eval_every=warm_epochs)
    rec = run_projgd(obj, cfg, np.zeros((obj.p, obj.p)))
    _, F = truncated_approx(rec.final_X, r)
    return F


def init_scheme2(obj, r):
    """Scaled PSD projection of the negated gradient at zero, truncated to rank r.

    The scale is the reciprocal of ``||grad f(0) - grad f(e1 e1^T)||_F``,
    a one-probe curvature estimate.
    """
    p = obj.p
    g0 = obj.grad_full(np.zeros((p, p)))
    E = np.zeros((p, p))
    E[0, 0] = 1.0
    g1 = obj.grad_full(E)
    denom = float(np.linalg.norm(g0 - g1))
    if denom <= 1e-14:
        raise DegenerateCurvature(
            "gradient is unchanged between 0 and e1 e1^T; cannot set the scale"
        )
    X0 = proj_psd(-g0) / denom
    _, F = truncated_approx(X0, r)
    return F


def init_scheme3(p, r, scale, seed):
    """i.i.d. normal entries scaled so that E ||U||_F^2 = scale^2."""
    if not 0 < scale < np.inf:
        raise ValueError("scale must be finite and positive")
    rng = np.random.default_rng(seed)
    return rng.standard_normal((p, r)) * (scale / np.sqrt(p * r))


def init_perturbed_optimum(U_ref, radius, seed):
    """U_ref plus a Gaussian direction of exact Frobenius length ``radius``.

    A result that is not finite (the radius overflows) raises ValueError.
    """
    if not 0 <= radius < np.inf:
        raise ValueError("radius must be finite and nonnegative")
    if radius == 0:
        return np.array(U_ref, dtype=float, copy=True)
    rng = np.random.default_rng(seed)
    G = rng.standard_normal(np.shape(U_ref))
    with np.errstate(over="ignore", invalid="ignore"):
        U = np.asarray(U_ref, dtype=float) + radius * G / np.linalg.norm(G)
    if not np.isfinite(U).all():
        raise ValueError(f"radius {radius!r} overflows the initial factor")
    return U

"""Convergence constants and the inequality predicates behind them.

``compute_constants`` turns (L, mu, the optimum, the rank, and sampled
region statistics) into every constant the linear-convergence guarantee
needs: the step ceiling eta_max, the attraction annulus (gamma_l,
gamma_u), and the per-iteration contraction factors rho / rho_tilde.
``theorem1_rate`` evaluates the resulting error bound.  The lemma_*
functions check the supporting matrix inequalities numerically, and
``estimate_region_stats`` samples the neighborhood suprema (calB, B0,
B1) that no closed form exists for.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import eig_sym, gram, procrustes_dist, symmetrize, tol_psd

SQRT2M1 = math.sqrt(2.0) - 1.0

REGION_KEYS = ("calB", "B0", "B1", "grad_norm_at_Xr")


class NotApplicable(RuntimeError):
    """The inequality's precondition fails on these inputs."""


class HypothesisError(RuntimeError):
    """A convergence-guarantee hypothesis is not met; the message names it."""


@dataclass
class AssumptionReport:
    """Rank-r approximation error check: lhs < rhs required."""

    holds_approx_error: bool
    lhs: float
    rhs: float
    margin: float


@dataclass
class FeasibilityReport:
    bounded_gradient_ok: bool
    psd_ok: bool
    projection_ok: bool
    grad_norm: float
    grad_bound: float
    min_eig: float
    projection_residual: float


@dataclass
class ConvergenceConstants:
    L: float
    mu: float
    kappa: float
    r: int
    sigma_r_Xr: float
    sigma_1_Xr: float
    tau_Ur: float
    tau_Xr: float
    Xr_norm: float
    approx_err: float
    grad_norm_at_Xr: float
    gamma0: float
    eta_bar: float
    xi: float
    Delta: float
    Delta_tilde: float
    gamma_l: float
    gamma_u: float
    gamma_l_tilde: float
    gamma_u_tilde: float
    calB: float
    B0: float
    B1: float
    B2: float
    delta: float
    theta: float
    theta_alt: float
    theta_forms_agree: bool
    zeta1: float
    zeta1_a: float
    zeta1_b: float
    zeta2: float
    eta_max: float
    eta_bar_max: float
    assumption2: AssumptionReport
    violated: tuple = ()

    def rho(self, eta):
        """Inner-loop contraction factor for step size eta."""
        return 1.0 - eta * SQRT2M1**2 * self.xi * self.mu * self.sigma_r_Xr**2 / (
            18.0 * self.kappa * self.delta
        )

    def rho_tilde(self, eta, m):
        """Outer-loop contraction factor for step size eta and m inner steps."""
        rm = self.rho(eta) ** m
        return rm + (1.0 - rm) * eta * self.theta

    def require_assumption2(self):
        if self.violated:
            raise HypothesisError(
                "rank-r approximation error too large: "
                + ", ".join(self.violated)
                + " negative"
            )
        if not self.assumption2.holds_approx_error:
            raise HypothesisError(
                "rank-r approximation error too large: "
                f"{self.assumption2.lhs:.6g} >= {self.assumption2.rhs:.6g}"
            )


def _assumption2(lhs, sigma_r, kappa, xi):
    """The rank-r approximation-error condition: tail norm ``lhs`` against sigma_r."""
    rhs = SQRT2M1 / math.sqrt(3.0) * math.sqrt(xi) / kappa * sigma_r
    return AssumptionReport(
        holds_approx_error=lhs < rhs, lhs=lhs, rhs=rhs, margin=rhs - lhs
    )


def region_gamma0(L, mu):
    """gamma0 = 2(sqrt(2) - 1) / (3 kappa), with kappa = L / mu.

    The region the constants are computed over is the ball
    ||U - Ur||_F^2 <= gamma0 sigma_r(Xr).
    """
    return 2.0 * SQRT2M1 / (3.0 * (L / mu))


def compute_constants(L, mu, Xstar, r, region_stats):
    """All convergence constants for the factored solver on this instance.

    ``region_stats`` carries the sampled neighborhood statistics
    (:data:`REGION_KEYS`); see :func:`estimate_region_stats`.  Constants
    are always populated; if the rank-r approximation error is too large
    the discriminants go negative, the gamma radii become NaN, and the
    ``violated`` tuple names the negative discriminants instead of
    raising.
    """
    if not (L >= mu > 0):
        raise ValueError("need L >= mu > 0")
    missing = [key for key in REGION_KEYS if key not in region_stats]
    if missing:
        raise ValueError(f"region_stats missing keys: {missing}")
    calB = float(region_stats["calB"])
    B0 = float(region_stats["B0"])
    B1 = float(region_stats["B1"])
    grad_norm = float(region_stats["grad_norm_at_Xr"])

    w, _ = eig_sym(symmetrize(np.asarray(Xstar, dtype=float)))
    if r < 1 or r > len(w) or w[r - 1] <= 0:
        raise ValueError("r must index a strictly positive eigenvalue of the optimum")
    sigma_r = float(w[r - 1])
    sigma_1 = float(w[0])
    Xr_norm = float(np.sqrt(np.sum(w[:r] ** 2)))
    approx_err = float(np.sqrt(np.sum(w[r:] ** 2)))
    tau_Xr = sigma_1 / sigma_r
    tau_Ur = math.sqrt(tau_Xr)

    kappa = L / mu
    gamma0 = region_gamma0(L, mu)
    eta_bar = min(
        (1.0 - math.sqrt(gamma0)) ** 2
        / (grad_norm / (L * sigma_r) + (2.0 * math.sqrt(gamma0) + gamma0) * tau_Ur),
        1.0,
    )
    xi = eta_bar * (1.0 - eta_bar / 2.0)

    Delta = SQRT2M1**2 * xi**2 * sigma_r**2 / (3.0 * kappa**2) - xi * approx_err**2
    Delta_tilde = (
        4.0 * SQRT2M1**2 * xi**2 * sigma_r**2 / (9.0 * kappa**2) - xi * approx_err**2
    )
    center = 2.0 * SQRT2M1 * xi * sigma_r / (3.0 * kappa)

    violated = []
    nan = float("nan")
    if Delta >= 0:
        gamma_l, gamma_u = center - math.sqrt(Delta), center + math.sqrt(Delta)
    else:
        gamma_l = gamma_u = nan
        violated.append("Delta")
    if Delta_tilde >= 0:
        gamma_l_tilde = center - math.sqrt(Delta_tilde)
        gamma_u_tilde = center + math.sqrt(Delta_tilde)
    else:
        gamma_l_tilde = gamma_u_tilde = nan
        violated.append("Delta_tilde")

    B2 = 4.0 * (2.0 * L**2 * calB * (calB + Xr_norm) + B0 + B1)
    if not violated:
        delta = math.sqrt(Delta_tilde) + math.sqrt(Delta)
        theta = 18.0 * B2 * kappa * delta / (SQRT2M1**2 * xi * mu * sigma_r**2)
        root_gap = math.sqrt(Delta_tilde) - math.sqrt(Delta)
        theta_alt = 2.0 * xi * B2 / (L * root_gap) if root_gap > 0 else nan
        agree = math.isfinite(theta_alt) and math.isclose(
            theta, theta_alt, rel_tol=1e-6
        )
    else:
        delta = theta = theta_alt = nan
        agree = False

    zeta1_a = 1.0 / (
        12.0 * (2.0 * L * kappa * calB + (B0 + B1) / (SQRT2M1 * mu * sigma_r))
    )
    zeta1_b = (
        SQRT2M1 * mu * sigma_r
        / (12.0 * (2.0 * SQRT2M1 * sigma_r * L**2 * calB + B0 + B1))
    )
    zeta1 = min(zeta1_a, zeta1_b)
    zeta2 = SQRT2M1 * mu * xi * sigma_r / (12.0 * B2)
    eta_max = min(zeta1, zeta2, 1.0 / (2.0 * theta)) if not violated else nan
    eta_bar_max = (
        min(L * gamma_u / (2.0 * B2 * xi), eta_max) if not violated else nan
    )

    return ConvergenceConstants(
        L=float(L), mu=float(mu), kappa=kappa, r=int(r),
        sigma_r_Xr=sigma_r, sigma_1_Xr=sigma_1, tau_Ur=tau_Ur, tau_Xr=tau_Xr,
        Xr_norm=Xr_norm, approx_err=approx_err, grad_norm_at_Xr=grad_norm,
        gamma0=gamma0, eta_bar=eta_bar, xi=xi,
        Delta=Delta, Delta_tilde=Delta_tilde,
        gamma_l=gamma_l, gamma_u=gamma_u,
        gamma_l_tilde=gamma_l_tilde, gamma_u_tilde=gamma_u_tilde,
        calB=calB, B0=B0, B1=B1, B2=B2, delta=delta,
        theta=theta, theta_alt=theta_alt, theta_forms_agree=agree,
        zeta1=zeta1, zeta1_a=zeta1_a, zeta1_b=zeta1_b, zeta2=zeta2,
        eta_max=eta_max, eta_bar_max=eta_bar_max,
        assumption2=_assumption2(approx_err, sigma_r, kappa, xi),
        violated=tuple(violated),
    )


# Bytes ``estimate_region_stats`` sizes one chunk of samples to: the chunk's
# points and gradients (p^2 floats each) and two n-float rows per sample for
# the objective's residuals.  Its memory is O(this), whatever the sample count.
REGION_CHUNK_BYTES = 8 << 20


def estimate_region_stats(obj, Ur, gamma0, n_samples=500, seed=0):
    """Empirical suprema over the ball ||U - Ur||_F^2 <= gamma0 sigma_r(Xr).

    Sample 0 is the center Ur.  Each further sample draws a Gaussian
    direction and then a uniform u for the radius r_max * u^(1/(p r)), so
    it is uniform in the ball; the draws come in that order, sample by
    sample.  Empirical maxima under-estimate the true suprema, which
    loosens eta_max; reports that source it.  Also returns the
    full-gradient norm at the center, read off sample 0, so that
    B1 >= grad_norm_at_Xr^2 holds exactly.

    The samples are evaluated in chunks, one ``obj.grad_moments_many``
    call per chunk (for sensing, two gemms that read the operand once for
    the whole chunk).  A chunk is sized to ``REGION_CHUNK_BYTES``.
    """
    if n_samples < 0:
        raise ValueError("n_samples must be nonnegative")
    Ur = np.asarray(Ur, dtype=float)
    p, r = Ur.shape
    sigma_r_Xr = float(np.linalg.svd(Ur, compute_uv=False)[-1] ** 2)
    radius = math.sqrt(gamma0 * sigma_r_Xr)
    rng = np.random.default_rng(seed)
    chunk = max(1, REGION_CHUNK_BYTES // (16 * (p * p + obj.n)))

    calB = 0.0
    B0 = -math.inf
    B1 = 0.0
    for start in range(0, n_samples + 1, chunk):
        Xs = np.empty((min(chunk, n_samples + 1 - start), p, p))
        for j in range(len(Xs)):
            if start + j == 0:
                U = Ur
            else:
                G = rng.standard_normal((p, r))
                G *= radius * rng.uniform() ** (1.0 / (p * r)) / np.linalg.norm(G)
                U = Ur + G
            Xs[j] = gram(U)
            calB = max(calB, float(np.linalg.norm(Xs[j])))
        grads, moments = obj.grad_moments_many(Xs)
        norms = [float(np.linalg.norm(full)) for full in grads]
        del grads  # so that no two chunks' gradients are held at once
        if start == 0:
            grad_norm_at_Xr = norms[0]
        for norm, moment in zip(norms, moments):
            B0 = max(B0, float(moment) - norm**2)
            B1 = max(B1, norm**2)
    return {
        "calB": calB,
        "B0": max(B0, 0.0),
        "B1": B1,
        "grad_norm_at_Xr": grad_norm_at_Xr,
    }


def sbb_inner_count_bound(mu, eps, eta_max):
    """Smallest inner-loop length guaranteeing the adaptive step stays under eta_max."""
    if mu + eps <= 0 or eta_max <= 0:
        raise ValueError("need mu + eps > 0 and eta_max > 0")
    return math.ceil(1.0 / ((mu + eps) * eta_max)) + 1


def theorem1_rate(constants, etas, m, init_err):
    """Predicted bound on the expected squared factor error after steps ``etas``.

    ``etas`` holds one step per outer step, ``[eta] * k`` for k constant
    steps; outer step t maps the bound E to
    ``rho_tilde(eta_t, m) E + gamma_l_tilde (1 - rho(eta_t)^m)``, starting
    from ``init_err``.  ``m < 1`` raises ValueError.
    Hypotheses (every step inside (0, eta_max); initial squared error
    inside (gamma_l, gamma_u)) are enforced and violations raise
    :class:`HypothesisError` naming the failed one.
    """
    if m < 1:
        raise ValueError(f"need m >= 1 inner steps, got m={m}")
    constants.require_assumption2()
    etas = [float(e) for e in etas]
    for i, eta in enumerate(etas):
        if not (0.0 < eta < constants.eta_max):
            raise HypothesisError(
                f"step size eta_{i}={eta:.6g} outside (0, eta_max={constants.eta_max:.6g})"
            )
    if not (constants.gamma_l < init_err < constants.gamma_u):
        raise HypothesisError(
            f"initial squared error {init_err:.6g} outside "
            f"(gamma_l={constants.gamma_l:.6g}, gamma_u={constants.gamma_u:.6g})"
        )
    E = float(init_err)
    for eta in etas:
        E = (constants.rho_tilde(eta, m) * E
             + constants.gamma_l_tilde * (1.0 - constants.rho(eta) ** m))
    return E


def lemma_dist_bounds(U, Ur):
    """Check the two-sided bound between matrix and factor distances.

    The factor distance is measured after optimally rotating U onto Ur:
    the factorization only determines U up to rotation, and the lower
    bound is false for rotation-direction perturbations if the raw
    difference is used.  Returns (upper_ok, lower_ok, applicable); the
    lower bound needs the aligned distance below sigma_r(Ur) and
    lower_ok is None when that fails.
    """
    U = np.asarray(U, dtype=float)
    Ur = np.asarray(Ur, dtype=float)
    if U.shape != Ur.shape:
        raise ValueError("factor shapes differ")
    d = procrustes_dist(U, Ur)
    X = gram(U)
    Xr = gram(Ur)
    lhs = float(np.linalg.norm(X - Xr)) ** 2
    upper_ok = (
        2.0 * (np.linalg.norm(X) + np.linalg.norm(Xr)) * d**2 - lhs >= -1e-10
    )
    sigma_r_Ur = float(np.linalg.svd(Ur, compute_uv=False)[-1])
    applicable = d < sigma_r_Ur
    lower_ok = None
    if applicable:
        lower_ok = lhs - 2.0 * SQRT2M1 * sigma_r_Ur**2 * d**2 >= -1e-10
    return upper_ok, lower_ok, applicable


def lemma_spectral_bounds(U, Ur, gamma):
    """Check the matrix-distance and smallest-singular-value bounds at level gamma.

    Requires ||U - Ur||_F <= gamma sigma_r(Ur) with 0 < gamma < 1 (plain
    difference; both conclusions are direction-insensitive).  Returns
    (x_dist_ok, sigma_ok).
    """
    U = np.asarray(U, dtype=float)
    Ur = np.asarray(Ur, dtype=float)
    if not (0.0 < gamma < 1.0):
        raise NotApplicable(f"gamma={gamma} outside (0, 1)")
    s = np.linalg.svd(Ur, compute_uv=False)
    sigma_1, sigma_r = float(s[0]), float(s[-1])
    d = float(np.linalg.norm(U - Ur))
    if d > gamma * sigma_r * (1.0 + 1e-12):
        raise NotApplicable(
            f"||U-Ur||={d:.6g} exceeds gamma*sigma_r={gamma * sigma_r:.6g}"
        )
    tau_Ur = sigma_1 / sigma_r
    x_dist = float(np.linalg.norm(gram(U) - gram(Ur)))
    x_dist_ok = (2.0 * gamma + gamma**2) * tau_Ur * sigma_r**2 - x_dist >= -1e-10
    sigma_r_U = float(np.linalg.svd(U, compute_uv=False)[-1])
    sigma_ok = sigma_r_U - (1.0 - gamma) * sigma_r >= -1e-10
    return x_dist_ok, sigma_ok


def lemma_feasibility(U, Ur, obj, eta_bar, L, gamma0):
    """Check the three neighborhood-feasibility properties at U.

    (a) the full-gradient norm is bounded by its value at the rank-r
    optimum plus a curvature term, (b) one projected-gradient-like step
    ``X - (eta_bar/L) P_U grad f(X) P_U`` stays PSD, and (c) the column
    space of U captures the rank-r optimum.  (c) holds when U preserves
    the optimum's column space; it is reported honestly either way.
    """
    U = np.asarray(U, dtype=float)
    Ur = np.asarray(Ur, dtype=float)
    sigma_r_Xr = float(np.linalg.svd(Ur, compute_uv=False)[-1] ** 2)
    d2 = float(np.linalg.norm(U - Ur)) ** 2
    if d2 >= gamma0 * sigma_r_Xr:
        raise NotApplicable(
            f"||U-Ur||^2={d2:.6g} not inside gamma0*sigma_r={gamma0 * sigma_r_Xr:.6g}"
        )
    X = gram(U)
    Xr = gram(Ur)
    G = obj.grad_full(X)
    grad_norm = float(np.linalg.norm(G))
    s = np.linalg.svd(Ur, compute_uv=False)
    tau_Ur = float(s[0] / s[-1])
    grad_bound = float(np.linalg.norm(obj.grad_full(Xr))) + (
        2.0 * math.sqrt(gamma0) + gamma0
    ) * L * tau_Ur * sigma_r_Xr
    bounded_gradient_ok = grad_norm <= grad_bound + 1e-10

    Q, sv, _ = np.linalg.svd(U, full_matrices=False)
    cols = sv > (sv.max() * 1e-12 if sv.size and sv.max() > 0 else np.inf)
    Q = Q[:, cols]
    P = Q @ Q.T
    Xbar = symmetrize(X - (eta_bar / L) * (P @ G @ P))
    min_eig = float(np.linalg.eigvalsh(Xbar).min())
    psd_ok = min_eig >= -tol_psd(Xbar)

    residual = float(np.linalg.norm(Xr - P @ Xr))
    projection_ok = residual <= 1e-8
    return FeasibilityReport(
        bounded_gradient_ok=bounded_gradient_ok,
        psd_ok=psd_ok,
        projection_ok=projection_ok,
        grad_norm=grad_norm,
        grad_bound=grad_bound,
        min_eig=min_eig,
        projection_residual=residual,
    )


def lemma_trace_bound(A, B):
    """tr(A B) >= sigma_min(A) tr(B) for full-rank PSD A and PSD B."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    sigma_min = float(np.linalg.eigvalsh(symmetrize(A)).min())
    return float(np.trace(A @ B)) - sigma_min * float(np.trace(B)) >= -1e-10


CONSTANT_FIELDS = (
    "L", "mu", "kappa", "r", "sigma_r_Xr", "sigma_1_Xr", "tau_Ur", "tau_Xr",
    "Xr_norm", "approx_err", "grad_norm_at_Xr", "gamma0", "eta_bar", "xi",
    "Delta", "Delta_tilde", "gamma_l", "gamma_u", "gamma_l_tilde",
    "gamma_u_tilde", "calB", "B0", "B1", "B2", "delta", "theta", "theta_alt",
    "zeta1", "zeta2", "eta_max", "eta_bar_max",
)


# The full gradient at a noiseless planted optimum is zero; what is
# measured there is the round-off of the residuals, 3 to 11 eps L ||Xr||_F
# on the sensing instances from p = 12 to p = 100.  Reports print a
# measured grad_norm_at_Xr below this many eps L ||Xr||_F as 0, so that the
# audit files do not change with the summation order.
GRAD_NORM_ROUNDOFF_ULPS = 64


def grad_norm_floor(constants):
    """The round-off floor ``GRAD_NORM_ROUNDOFF_ULPS * eps * L * ||Xr||_F``."""
    return GRAD_NORM_ROUNDOFF_ULPS * np.finfo(float).eps * constants.L * constants.Xr_norm


def constants_rows(constants):
    """(name, value) pairs for the audit CSV.

    ``grad_norm_at_Xr`` reads 0 when below :func:`grad_norm_floor`; every
    other value is the constant as computed.
    """
    rows = [(name, getattr(constants, name)) for name in CONSTANT_FIELDS]
    if constants.grad_norm_at_Xr < grad_norm_floor(constants):
        rows[CONSTANT_FIELDS.index("grad_norm_at_Xr")] = ("grad_norm_at_Xr", 0.0)
    rows.append(("theta_forms_agree", float(constants.theta_forms_agree)))
    rows.append(("assumption2_lhs", constants.assumption2.lhs))
    rows.append(("assumption2_rhs", constants.assumption2.rhs))
    rows.append(
        ("assumption2_holds", float(constants.assumption2.holds_approx_error))
    )
    return rows


def constants_report_text(constants):
    """Human-readable audit report of every constant."""
    lines = ["convergence constants (calB/B0/B1 are sampled maxima, under-estimates):"]
    for name, value in constants_rows(constants):
        lines.append(f"  {name:>20s} = {value:.12g}")
    if constants.grad_norm_at_Xr < grad_norm_floor(constants):
        lines.append(f"  grad_norm_at_Xr reads 0 below its round-off floor "
                     f"{GRAD_NORM_ROUNDOFF_ULPS} eps L ||Xr||_F = "
                     f"{grad_norm_floor(constants):.3g}")
    if constants.violated:
        lines.append(f"  negative discriminants: {', '.join(constants.violated)}")
    return "\n".join(lines) + "\n"

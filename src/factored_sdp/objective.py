"""Per-sample objective oracles.

An objective is an average f(X) = (1/n) sum_i f_i(X) over the PSD cone,
queried through per-sample value/gradient oracles plus full-batch versions.
Two concrete families live here: noiseless matrix sensing and logistic
triplet (ordinal-embedding) losses with trace regularization.  So do the
rules that build their experiments: planted instances, the train/test
split of a triplet set, the held-out test error and the smoothness probes.
"""

import math

import numpy as np

from .linalg import gram

# Selector for the full-batch direction in factored_gradient.
FULL = "full"


class NoProbes(Exception):
    """All probe pairs were coincident; nothing to estimate from."""


class SampleObjective:
    """Oracle bundle for f(X) = (1/n) sum_i f_i(X).

    Subclasses set `n` and `p` and implement `eval_sample` and
    `grad_sample`.  The full-batch oracles, the fused `value_and_grad_full`
    and the factor product `grad_sample_times_factor` are derived from
    those; subclasses override them with faster versions, the factor
    product to skip the p-by-p per-sample gradient.  Instances are
    read-only after construction and safe to share.
    """

    n = None
    p = None

    def eval_sample(self, i, X):
        raise NotImplementedError

    def grad_sample(self, i, X):
        raise NotImplementedError

    def eval_full(self, X):
        return sum(self.eval_sample(i, X) for i in range(self.n)) / self.n

    def grad_full(self, X):
        G = np.zeros((self.p, self.p))
        for i in range(self.n):
            G += self.grad_sample(i, X)
        return G / self.n

    def grad_sample_times_factor(self, i, X, U):
        """grad f_i(X) @ U, with X = U U^T when X is None."""
        return self.grad_sample(i, gram(U) if X is None else X) @ U

    def value_and_grad_full(self, X):
        return self.eval_full(X), self.grad_full(X)

    def mean_grad_sample_sqnorm(self, X):
        """(1/n) sum_i ||grad f_i(X)||_F^2 (used for variance statistics)."""
        return sum(float(np.linalg.norm(self.grad_sample(i, X)) ** 2) for i in range(self.n)) / self.n


class SensingProblem(SampleObjective):
    """Noiseless matrix sensing: f_i(X) = (1/2)(b_i - <A_i, X>)^2.

    Measurement matrices are exactly symmetric; b_i = <A_i, X*> so the
    planted optimum interpolates every sample. Ground truth (X*, U*) is
    retained for error reporting.

    The measurements are held once, as the C-contiguous (n, p, p) array
    ``A``.  The full-batch oracles read it through ``_A2``, an (n, p^2)
    view of the same memory, as two matrix-vector products: the residuals
    ``A2 @ vec(X) - b`` and the gradient ``vec^-1(resid @ A2) / n``.  Each
    is one streaming read of ``A``; no second copy of the operand is made.
    """

    def __init__(self, A, b, Xstar=None, Ustar=None):
        A = np.ascontiguousarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        if A.ndim != 3 or A.shape[1] != A.shape[2] or b.shape != (A.shape[0],):
            raise ValueError("A must be (n, p, p) and b (n,)")
        self.A = A
        self.b = b
        self.n = A.shape[0]
        self.p = A.shape[1]
        self.Xstar = Xstar
        self.Ustar = Ustar
        self._A2 = A.reshape(self.n, self.p * self.p)
        self._A_sqnorms = np.einsum("kij,kij->k", A, A)

    @property
    def measurements(self):
        return [(self.A[i], self.b[i]) for i in range(self.n)]

    def eval_sample(self, i, X):
        return 0.5 * float(self.b[i] - np.vdot(self.A[i], X)) ** 2

    def grad_sample(self, i, X):
        return (np.vdot(self.A[i], X) - self.b[i]) * self.A[i]

    def _residuals(self, X):
        """<A_i, X> - b_i for every sample, as one gemv over the (n, p^2) view."""
        return self._A2 @ np.ravel(X) - self.b

    def eval_full(self, X):
        resid = self._residuals(X)
        return 0.5 * float(resid @ resid) / self.n

    def grad_full(self, X):
        return self.value_and_grad_full(X)[1]

    def value_and_grad_full(self, X):
        resid = self._residuals(X)
        G = (resid @ self._A2).reshape(self.p, self.p) / self.n
        return 0.5 * float(resid @ resid) / self.n, G

    def grad_sample_times_factor(self, i, X, U):
        AU = self.A[i] @ U
        if X is None:
            inner = float(np.vdot(U, AU))
        else:
            inner = float(np.vdot(self.A[i], X))
        return (inner - self.b[i]) * AU

    def mean_grad_sample_sqnorm(self, X):
        resid = self._residuals(X)
        return float((resid**2) @ self._A_sqnorms) / self.n


def sensing_generate(p, r_star, n, seed):
    """Plant a rank-r* optimum and draw n symmetrized Gaussian measurements.

    U* has i.i.d. standard normal entries, X* = U* U*^T, each A_i is a
    standard normal matrix symmetrized as (A + A^T)/2, and b_i = <A_i, X*>
    exactly (no noise). Deterministic for a fixed seed.
    """
    if r_star > p or n < 1:
        raise ValueError("need r_star <= p and n >= 1")
    rng = np.random.default_rng(seed)
    Ustar = rng.standard_normal((p, r_star))
    Xstar = gram(Ustar)
    G = rng.standard_normal((n, p, p))
    A = (G + np.transpose(G, (0, 2, 1))) / 2.0
    b = np.einsum("kij,ij->k", A, Xstar)
    return SensingProblem(A, b, Xstar=Xstar, Ustar=Ustar)


def ste_loss(c, X):
    """Logistic triplet loss -log sigma(d2_ik - d2_ij) for one triplet.

    Squared distances are read off the Gram matrix as
    d2_ab = X_aa + X_bb - X_ab - X_ba (the symmetric form, identical to
    X_aa + X_bb - 2 X_ab on symmetric X). Computed through logaddexp so
    the value stays finite for any finite X.
    """
    i, j, k = c
    z = X[k, k] - X[j, j] - X[i, k] - X[k, i] + X[i, j] + X[j, i]
    return float(np.logaddexp(0.0, -z))


def ste_grad_sample(c, X, lam):
    """Analytic gradient of ste_loss(c, X) + lam * tr(X).

    Symmetric; the loss part touches only rows/columns {i, j, k}.
    """
    i, j, k = c
    p = X.shape[0]
    z = X[k, k] - X[j, j] - X[i, k] - X[k, i] + X[i, j] + X[j, i]
    # d/dz of logaddexp(0, -z) is sigma(z) - 1 = -1/(1 + e^z), overflow-safe
    w = -np.exp(-z) / (1.0 + np.exp(-z)) if z >= 0 else -1.0 / (1.0 + np.exp(z))
    G = np.zeros((p, p))
    G[k, k] = w
    G[j, j] = -w
    G[i, j] = G[j, i] = w
    G[i, k] = G[k, i] = -w
    if lam:
        G += lam * np.eye(p)
    return G


class TripletProblem(SampleObjective):
    """Ordinal embedding objective f(X) = (1/|C|) sum_c l_c(X) + lam tr(X).

    X is the Gram matrix of the embedded points. Each sample is one triplet
    constraint (i, j, k) meaning d2_ij <= d2_ik; the trace term is folded
    into every f_i so that f = (1/n) sum_i f_i exactly.
    """

    def __init__(self, p, triplets, lam=0.0):
        T = np.asarray(triplets, dtype=int)
        if T.ndim != 2 or T.shape[1] != 3 or T.shape[0] < 1:
            raise ValueError("triplets must be a nonempty (n, 3) index array")
        if T.min() < 0 or T.max() >= p:
            raise ValueError("triplet index out of range")
        if (
            (T[:, 0] == T[:, 1]).any()
            or (T[:, 0] == T[:, 2]).any()
            or (T[:, 1] == T[:, 2]).any()
        ):
            raise ValueError("triplet indices must be pairwise distinct")
        self.p = p
        self.triplets = T
        self.lam = float(lam)
        self.n = T.shape[0]
        self._I = T[:, 0]
        self._J = T[:, 1]
        self._K = T[:, 2]

    def _margins(self, X):
        I, J, K = self._I, self._J, self._K
        return X[K, K] - X[J, J] - X[I, K] - X[K, I] + X[I, J] + X[J, I]

    def eval_sample(self, i, X):
        return ste_loss(self.triplets[i], X) + self.lam * float(np.trace(X))

    def grad_sample(self, i, X):
        return ste_grad_sample(self.triplets[i], X, self.lam)

    def eval_full(self, X):
        z = self._margins(X)
        return float(np.mean(np.logaddexp(0.0, -z))) + self.lam * float(np.trace(X))

    def grad_full(self, X):
        z = self._margins(X)
        w = -1.0 / (1.0 + np.exp(np.clip(z, -700.0, 700.0)))
        I, J, K = self._I, self._J, self._K
        G = np.zeros((self.p, self.p))
        np.add.at(G, (K, K), w)
        np.add.at(G, (J, J), -w)
        np.add.at(G, (I, J), w)
        np.add.at(G, (J, I), w)
        np.add.at(G, (I, K), -w)
        np.add.at(G, (K, I), -w)
        # mirror entries accumulate in different orders; make symmetry exact
        G = (G + G.T) / 2.0
        G /= self.n
        if self.lam:
            G += self.lam * np.eye(self.p)
        return G

    def grad_sample_times_factor(self, i, X, U):
        ti, tj, tk = self.triplets[i]
        if X is None:
            dik = U[ti] - U[tk]
            dij = U[ti] - U[tj]
            z = float(dik @ dik) - float(dij @ dij)
        else:
            z = X[tk, tk] - X[tj, tj] - X[ti, tk] - X[tk, ti] + X[ti, tj] + X[tj, ti]
        w = -np.exp(-z) / (1.0 + np.exp(-z)) if z >= 0 else -1.0 / (1.0 + np.exp(z))
        out = self.lam * U if self.lam else np.zeros_like(U)
        out[ti] += w * (U[tj] - U[tk])
        out[tj] += w * (U[ti] - U[tj])
        out[tk] += w * (U[tk] - U[ti])
        return out


def planted_triplets(p, dim, count, seed, noise=0.0, scale=1.0):
    """Plant p points in ``dim`` dimensions and draw ``count`` triplets.

    Points are i.i.d. standard normal times ``scale``.  Each triplet
    (i, j, k) has pairwise distinct indices, is ordered so that
    d2_ij < d2_ik (exact ties are redrawn) and is then flipped with
    probability ``noise``.  Returns (points, triplets array); a parameter
    out of range raises ValueError.
    """
    if p < 3:
        raise ValueError("p must be at least 3")
    if count < 1:
        raise ValueError("count must be at least 1")
    if not (0.0 <= noise <= 1.0):
        raise ValueError("noise must be in [0, 1]")
    if dim < 1 or not 0 < scale < math.inf:
        raise ValueError("need dim >= 1 and a finite scale > 0")
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((p, dim)) * scale
    triplets = []
    while len(triplets) < count:
        i, j, k = rng.integers(0, p, size=3)
        if i == j or i == k or j == k:
            continue
        d2_ij = float(np.sum((points[i] - points[j]) ** 2))
        d2_ik = float(np.sum((points[i] - points[k]) ** 2))
        if d2_ij == d2_ik:
            continue
        if d2_ij > d2_ik:
            j, k = k, j
        if noise > 0.0 and rng.uniform() < noise:
            j, k = k, j
        triplets.append((i, j, k))
    return points, np.asarray(triplets, dtype=int)


def train_size(split, total):
    """Triplets in the train part of a ``split`` partition of ``total``."""
    return min(max(int(round(split * total)), 1), total)


def split_triplets(triplets, split, seed):
    """Disjoint train/test partition with sizes within 1 of the ratio."""
    perm = np.random.default_rng(seed).permutation(len(triplets))
    n_train = train_size(split, len(perm))
    return triplets[perm[:n_train]], triplets[perm[n_train:]]


class EmptyTestSet(RuntimeError):
    """test_error was asked to score an empty triplet set."""


def test_error(X, triplets):
    """Fraction of triplets (i, j, k) whose ordering d2_ij <= d2_ik fails.

    Ties count as violations, so the all-equal-distances Gram matrix
    (the identity) scores 1.0.
    """
    T = np.asarray(triplets, dtype=int)
    if T.ndim != 2 or T.shape[1] != 3 or T.shape[0] == 0:
        raise EmptyTestSet("need a nonempty (n, 3) triplet array")
    X = np.asarray(X, dtype=float)
    I, J, K = T[:, 0], T[:, 1], T[:, 2]
    d2_ij = X[I, I] + X[J, J] - X[I, J] - X[J, I]
    d2_ik = X[I, I] + X[K, K] - X[I, K] - X[K, I]
    return float(np.mean(d2_ij >= d2_ik))


def factored_gradient(obj, which, U):
    """grad f_i(U U^T) @ U, or grad f(U U^T) @ U when which is FULL.

    This is the solver-facing direction (the paper-side factor of 2 in the
    derivative of g(U) = f(U U^T) is absorbed by the update rules; gradient
    checks of g itself should compare against twice this value).
    """
    X = gram(U)
    if which is FULL or (isinstance(which, str) and which == FULL):
        return obj.grad_full(X) @ U
    return obj.grad_sample(which, X) @ U


def probe_pairs(p, r, seed, n_pairs=8):
    """``n_pairs`` pairs of random rank-r p-by-p Gram matrices.

    The probes ``estimate_smoothness`` reads its moduli from.
    """
    rng = np.random.default_rng(seed)
    return [
        (gram(rng.standard_normal((p, r))), gram(rng.standard_normal((p, r))))
        for _ in range(n_pairs)
    ]


def estimate_smoothness(obj, pairs):
    """Empirical Lipschitz / strong-convexity moduli from probe pairs.

    L_hat is the max of ||grad f(X) - grad f(Y)||_F / ||X - Y||_F over the
    pairs; mu_hat is the min of <grad f(X) - grad f(Y), X - Y> / ||X - Y||_F^2,
    meaningful as a restricted-curvature estimate when the probes are rank-r.
    Coincident pairs (||X - Y||_F < 1e-14) are skipped.

    Raises
    ------
    NoProbes
        if every pair was skipped.
    """
    l_vals, mu_vals = [], []
    for X, Y in pairs:
        D = X - Y
        nd = float(np.linalg.norm(D))
        if nd < 1e-14:
            continue
        Gd = obj.grad_full(X) - obj.grad_full(Y)
        l_vals.append(float(np.linalg.norm(Gd)) / nd)
        mu_vals.append(float(np.vdot(Gd, D)) / nd**2)
    if not l_vals:
        raise NoProbes("all probe pairs coincident")
    return max(l_vals), min(mu_vals)

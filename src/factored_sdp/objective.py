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

    def grad_sample_times_factor(self, i, U):
        """grad f_i(U U^T) @ U.

        This is the solver-facing direction: the factor of 2 in the
        derivative of g(U) = f(U U^T) is absorbed by the update rules, so a
        gradient check of g compares against twice this value.
        """
        return self.grad_sample(i, gram(U)) @ U

    def value_and_grad_full(self, X):
        return self.eval_full(X), self.grad_full(X)

    def grad_full_many(self, Xs):
        """``grad_full`` at each of S points, stacked as an (S, p, p) array."""
        return np.stack([self.grad_full(X) for X in Xs])

    def grad_moments_many(self, Xs):
        """``grad_full_many(Xs)`` and the second moments at each point.

        Returns the (S, p, p) gradient stack and the (S,) values
        (1/n) sum_i ||grad f_i(X_s)||_F^2 (used for variance statistics).
        """
        moments = [sum(float(np.linalg.norm(self.grad_sample(i, X)) ** 2)
                       for i in range(self.n)) / self.n for X in Xs]
        return self.grad_full_many(Xs), np.array(moments)


class SensingProblem(SampleObjective):
    """Noiseless matrix sensing: f_i(X) = (1/2)(b_i - <A_i, X>)^2.

    Measurement matrices are exactly symmetric; b_i = <A_i, X*> so the
    planted optimum interpolates every sample. Ground truth (X*, U*) is
    retained for error reporting.

    The measurements are held once, as the C-contiguous (n, p, p) array
    ``A``, and read through ``_A2``, an (n, p^2) view of the same memory;
    no second copy of the operand is made.  Every full-batch oracle reads
    S points, an (S, p, p) stack read as (S, p^2), through one residual
    block ``R = Xs @ A2^T - b`` of shape (S, n); a single point is the
    block at S = 1.  The gradients are ``R @ A2 / n`` and the per-sample
    second moments come from the same ``R``.  Each of the two products
    reads ``A`` once for all S points: at S = 1 numpy runs them as
    matrix-vector products, above it as matrix-matrix products.
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

    def eval_sample(self, i, X):
        return 0.5 * float(self.b[i] - np.vdot(self.A[i], X)) ** 2

    def grad_sample(self, i, X):
        return (np.vdot(self.A[i], X) - self.b[i]) * self.A[i]

    def grad_sample_times_factor(self, i, U):
        AU = self.A[i] @ U
        return (float(np.vdot(U, AU)) - self.b[i]) * AU

    def _residuals(self, Xs):
        """The (S, n) residual block <A_i, X_s> - b_i of one point (S = 1) or a stack."""
        R = np.reshape(Xs, (-1, self.p * self.p)) @ self._A2.T
        R -= self.b
        return R

    def _grads(self, R):
        """The (S, p, p) gradient stack of the residual block R."""
        G = R @ self._A2
        G /= self.n
        return G.reshape(len(R), self.p, self.p)

    def eval_full(self, X):
        resid = self._residuals(X)[0]
        return 0.5 * float(resid @ resid) / self.n

    def grad_full(self, X):
        return self._grads(self._residuals(X))[0]

    def value_and_grad_full(self, X):
        R = self._residuals(X)
        return 0.5 * float(R[0] @ R[0]) / self.n, self._grads(R)[0]

    def grad_full_many(self, Xs):
        return self._grads(self._residuals(Xs))

    def grad_moments_many(self, Xs):
        R = self._residuals(Xs)
        return self._grads(R), (R**2) @ self._A_sqnorms / self.n


# Bytes of the transposed copy ``sensing_generate`` symmetrizes one block with.
SYMMETRIZE_BLOCK_BYTES = 1 << 20


def sensing_generate(p, r_star, n, seed):
    """Plant a rank-r* optimum and draw n symmetrized Gaussian measurements.

    U* has i.i.d. standard normal entries, X* = U* U*^T, each A_i is a
    standard normal matrix symmetrized as (A + A^T)/2, and b_i = <A_i, X*>
    exactly (no noise). Deterministic for a fixed seed.

    The draws are symmetrized in place, a block of about
    ``SYMMETRIZE_BLOCK_BYTES`` at a time, so the instance never holds a
    second (n, p, p) array; the result is bit-identical to (A + A^T)/2.
    """
    if r_star > p or n < 1:
        raise ValueError("need r_star <= p and n >= 1")
    rng = np.random.default_rng(seed)
    Ustar = rng.standard_normal((p, r_star))
    Xstar = gram(Ustar)
    A = rng.standard_normal((n, p, p))
    step = max(1, SYMMETRIZE_BLOCK_BYTES // A[0].nbytes)
    for start in range(0, n, step):
        blk = A[start:start + step]
        blk += blk.transpose(0, 2, 1).copy()
        blk *= 0.5
    b = np.einsum("kij,ij->k", A, Xstar)
    return SensingProblem(A, b, Xstar=Xstar, Ustar=Ustar)


def _margin(X, i, j, k):
    """d2_ik - d2_ij for triplet (i, j, k), read off the Gram matrix X.

    Index arrays i, j, k give the margins of all their triplets at once.

    Squared distances are d2_ab = X_aa + X_bb - X_ab - X_ba (the symmetric
    form, identical to X_aa + X_bb - 2 X_ab on symmetric X).
    """
    return X[k, k] - X[j, j] - X[i, k] - X[k, i] + X[i, j] + X[j, i]


def _logistic_weight(z):
    """d/dz of logaddexp(0, -z), that is sigma(z) - 1 = -1/(1 + e^z), overflow-safe."""
    return -np.exp(-z) / (1.0 + np.exp(-z)) if z >= 0 else -1.0 / (1.0 + np.exp(z))


class TripletProblem(SampleObjective):
    """Ordinal embedding objective f(X) = (1/|C|) sum_c l_c(X) + lam tr(X).

    X is the Gram matrix of the embedded points. Each sample is one triplet
    constraint (i, j, k) meaning d2_ij <= d2_ik, with the logistic loss
    l_c(X) = -log sigma(d2_ik - d2_ij), computed through logaddexp so that
    it stays finite for any finite X.  The trace term is folded into every
    f_i so that f = (1/n) sum_i f_i exactly.  The oracles of X read their
    margins d2_ik - d2_ij through ``_margin``, the full-batch ones for all
    triplets at once; the factor oracles read them off the rows of U.

    ``factor_steps`` runs a whole SVRG or SFGD inner loop with lazy dense
    updates, which the solvers use in place of their per-step loop.  It
    matches that loop up to rounding: one SVRG epoch at the criterion-10
    steps agrees to about 1e-11 relative, and SFGD at eta0 = 0.05 over
    several epochs to about 1e-15.  SFGD at eta0 = 2 is chaotic, so its
    1e-17 per-step differences grow to about 1e-5 relative after one
    3200-step epoch and to O(1) after two; there the two paths agree as
    runs (same test-error crossings on the criterion-10 trials), not as
    iterates.
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
        self._triplet_rows = T.tolist()
        # flat cells (K,K), (J,J), (I,J), (J,I), (I,K), (K,I) of every
        # triplet, in that order: grad_full's one scatter-add target
        I, J, K = self._I, self._J, self._K
        self._cells = np.concatenate([K * p + K, J * p + J, I * p + J,
                                      J * p + I, I * p + K, K * p + I])

    def eval_sample(self, i, X):
        z = _margin(X, *self._triplet_rows[i])
        return float(np.logaddexp(0.0, -z)) + self.lam * float(np.trace(X))

    def grad_sample(self, i, X):
        """Symmetric; the loss part touches only rows/columns {i, j, k}."""
        ti, tj, tk = self._triplet_rows[i]
        w = _logistic_weight(_margin(X, ti, tj, tk))
        G = np.zeros((self.p, self.p))
        G[tk, tk] = w
        G[tj, tj] = -w
        G[ti, tj] = G[tj, ti] = w
        G[ti, tk] = G[tk, ti] = -w
        if self.lam:
            G += self.lam * np.eye(self.p)
        return G

    def eval_full(self, X):
        z = _margin(X, self._I, self._J, self._K)
        return float(np.mean(np.logaddexp(0.0, -z))) + self.lam * float(np.trace(X))

    def grad_full(self, X):
        z = _margin(X, self._I, self._J, self._K)
        w = -1.0 / (1.0 + np.exp(np.clip(z, -700.0, 700.0)))
        # one scatter-add over the six cells of every triplet, summed per
        # cell in the order of _cells
        G = np.bincount(self._cells, np.concatenate([w, -w, w, w, -w, -w]),
                        minlength=self.p * self.p).reshape(self.p, self.p)
        # mirror entries accumulate in different orders; make symmetry exact
        G = (G + G.T) / 2.0
        G /= self.n
        if self.lam:
            G += self.lam * np.eye(self.p)
        return G

    def grad_sample_times_factor(self, i, U):
        ti, tj, tk = self._triplet_rows[i]
        dik = U[ti] - U[tk]
        dij = U[ti] - U[tj]
        w = _logistic_weight(float(dik @ dik) - float(dij @ dij))
        out = self.lam * U if self.lam else np.zeros_like(U)
        out[ti] += w * (U[tj] - U[tk])
        out[tj] += w * (U[ti] - U[tj])
        out[tk] += w * (U[tk] - U[ti])
        return out

    def factor_steps(self, U, idx, etas, anchor=None):
        """Run a whole inner loop from U and return the final factor.

        U is a (p, r) array, ``idx`` and ``etas`` equally long lists of
        sample indices and steps; step t is ``U <- U - etas[t] * d_t`` for
        sample ``i = idx[t]``.  Without ``anchor``, d_t is the SFGD
        direction ``grad f_i(U U^T) @ U``.  With ``anchor = (Ut, g)``, a
        snapshot factor and the full direction ``grad f(Ut Ut^T) @ Ut``,
        d_t is the SVRG direction
        ``grad f_i(U U^T) @ U - grad f_i(Ut Ut^T) @ Ut + g``; the anchor's
        margins are read off the rows of Ut, so no p-by-p matrix is formed.

        The result equals the per-step loop over ``grad_sample_times_factor``
        up to rounding, at a fraction of its cost.  A step's loss part moves
        only the three rows of its triplet; the rest of the step is the
        affine map ``u <- a_t u + eta_t c`` on every row, with
        ``a_t = 1 - eta_t lam`` and ``c = lam Ut - g`` (``c = 0`` without an
        anchor).  That map is applied lazily (Bottou 2012): the loop keeps
        the running composition ``u -> P u + R c`` of all maps so far, each
        row remembers the ``(P, R)`` at which it was last brought up to
        date, and a row is caught up in closed form only when a step
        touches it, and once more at the end.  When ``|P|`` leaves
        ``[1e-100, 1e100]`` (say ``eta lam`` near 1, or a long loop at a
        large step) every row is caught up and the composition restarts, so
        no ratio of products underflows.  Rows are Python float lists; a
        step makes no numpy call.
        """
        lam = self.lam
        T = self._triplet_rows
        rows = U.tolist()
        p = len(rows)
        if anchor is None:
            c = None
        else:
            Ut, g = anchor
            tilde = Ut.tolist()
            c = (lam * Ut - g).tolist()
            with np.errstate(over="ignore", invalid="ignore"):
                dik = Ut[self._I] - Ut[self._K]
                dij = Ut[self._I] - Ut[self._J]
                z = np.einsum("tr,tr->t", dik, dik) - np.einsum("tr,tr->t", dij, dij)
                e = np.exp(-np.abs(z))
                w_anchor = np.where(z >= 0, -e / (1.0 + e), -1.0 / (1.0 + e)).tolist()
        P, R = 1.0, 0.0
        row_P, row_R = [1.0] * p, [0.0] * p

        def current(q):
            """Row q brought up to date under the composition (P, R)."""
            ratio = P / row_P[q]
            if c is None:
                return [ratio * x for x in rows[q]]
            shift = R - ratio * row_R[q]
            return [ratio * x + shift * y for x, y in zip(rows[q], c[q])]

        for s, eta in zip(idx, etas):
            i, j, k = T[s]
            ui, uj, uk = current(i), current(j), current(k)
            dk, dj = math.dist(ui, uk), math.dist(ui, uj)
            z = dk * dk - dj * dj
            w = -math.exp(-z) / (1.0 + math.exp(-z)) if z >= 0 else -1.0 / (1.0 + math.exp(z))
            a, ew = 1.0 - eta * lam, eta * w
            if c is None:
                rows[i] = [a * x - ew * (y - v) for x, y, v in zip(ui, uj, uk)]
                rows[j] = [a * y - ew * (x - y) for x, y in zip(ui, uj)]
                rows[k] = [a * v - ew * (v - x) for x, v in zip(ui, uk)]
            else:
                # the anchor's loss part, grad f_i(Ut Ut^T) @ Ut, on the same rows
                ti, tj, tk = tilde[i], tilde[j], tilde[k]
                ea = eta * w_anchor[s]
                rows[i] = [a * x + eta * ci - ew * (y - v) + ea * (sj - sk)
                           for x, y, v, ci, sj, sk in zip(ui, uj, uk, c[i], tj, tk)]
                rows[j] = [a * y + eta * cj - ew * (x - y) + ea * (si - sj)
                           for x, y, cj, si, sj in zip(ui, uj, c[j], ti, tj)]
                rows[k] = [a * v + eta * ck - ew * (v - x) + ea * (sk - si)
                           for x, v, ck, si, sk in zip(ui, uk, c[k], ti, tk)]
            P, R = a * P, a * R + eta
            if 1e-100 <= abs(P) <= 1e100:
                row_P[i] = row_P[j] = row_P[k] = P
                row_R[i] = row_R[j] = row_R[k] = R
            else:
                for q in range(p):
                    if q not in (i, j, k):
                        rows[q] = current(q)
                P, R = 1.0, 0.0
                row_P, row_R = [1.0] * p, [0.0] * p
        return np.array([current(q) for q in range(p)])


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
    Coincident pairs (||X - Y||_F < 1e-14) are dropped first; the gradients
    at the 2K points of the K pairs kept come from one
    ``obj.grad_full_many`` call on the stack [X_1, Y_1, ..., X_K, Y_K].

    Raises
    ------
    NoProbes
        if every pair was dropped.
    """
    kept = []
    for X, Y in pairs:
        D = X - Y
        nd = float(np.linalg.norm(D))
        if nd < 1e-14:
            continue
        kept.append((X, Y, D, nd))
    if not kept:
        raise NoProbes("all probe pairs coincident")
    grads = obj.grad_full_many([M for X, Y, _, _ in kept for M in (X, Y)])
    l_vals, mu_vals = [], []
    for k, (_, _, D, nd) in enumerate(kept):
        Gd = grads[2 * k] - grads[2 * k + 1]
        l_vals.append(float(np.linalg.norm(Gd)) / nd)
        mu_vals.append(float(np.vdot(Gd, D)) / nd**2)
    return max(l_vals), min(mu_vals)

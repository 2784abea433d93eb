"""Objective oracles.

An objective is f(X) = (1/n) sum_i phi_i(<A_i, X>) + lam tr(X) over the
PSD cone: a linear measurement map, a scalar loss per sample and a trace
term.  ``SampleObjective`` derives every full-batch oracle from those
pieces once.  Two concrete families live here: noiseless matrix sensing
and logistic triplet (ordinal-embedding) losses with trace
regularization.  So do the rules that build their experiments: planted
instances, the train/test split of a triplet set, the held-out test
error and the smoothness probes.
"""

import math

import numpy as np

from .linalg import gram


class NoProbes(Exception):
    """All probe pairs were coincident; nothing to estimate from."""


class SampleObjective:
    """Oracle bundle for f(X) = (1/n) sum_i phi_i(<A_i, X>) + lam tr(X).

    A family sets ``n``, ``p`` and ``lam`` and supplies five primitives:

    * ``_measure(Xs)``: the (S, n) block ``z_si = <A_i, X_s>`` of an
      (S, p, p) stack or a list of S points;
    * ``_value(z)``: the mean loss ``(1/n) sum_i phi_i(z_i)`` of one point;
    * ``_slope(Z)``: the block of ``phi_i'(z_si)``;
    * ``_adjoint(W)``: the (S, p^2) rows ``sum_i W_si vec(A_i)``, fresh;
    * ``_A_sqnorms``: the (n,) array of ``||A_i||_F^2``.

    The full-batch oracles below are derived from them here, once.  A
    per-sample oracle is the full-batch oracle of the one-sample objective
    of the same family.  The solvers' per-sample direction reads U without
    forming a p-by-p matrix, so each family writes its own: either
    ``grad_sample_times_factor`` (sensing) or the inner-loop kernel
    ``factor_steps`` (triplets).  Instances are read-only after
    construction and safe to share.
    """

    n = None
    p = None
    lam = 0.0

    def grad_sample_times_factor(self, i, U):
        """grad f_i(U U^T) @ U.

        This is the solver-facing direction: the factor of 2 in the
        derivative of g(U) = f(U U^T) is absorbed by the update rules, so a
        gradient check of g compares against twice this value.
        """
        raise NotImplementedError

    def _f(self, z, X):
        """f(X) from the measurements z of X."""
        return self._value(z) + self.lam * float(np.trace(X))

    def _grads(self, W):
        """The (S, p, p) gradient stack ``adjoint(W) / n + lam I`` of the slope block W."""
        G = self._adjoint(W)
        G /= self.n
        G[:, :: self.p + 1] += self.lam
        return G.reshape(len(W), self.p, self.p)

    def eval_full(self, X):
        return self._f(self._measure(X[None])[0], X)

    def grad_full(self, X):
        return self._grads(self._slope(self._measure(X[None])))[0]

    def value_and_grad_full(self, X):
        Z = self._measure(X[None])
        return self._f(Z[0], X), self._grads(self._slope(Z))[0]

    def grad_full_many(self, Xs):
        """``grad_full`` at each of S points, stacked as an (S, p, p) array."""
        return self._grads(self._slope(self._measure(Xs)))

    def grad_moments_many(self, Xs):
        """``grad_full_many(Xs)`` and the second moments at each point.

        Returns the (S, p, p) gradient stack and the (S,) values
        (1/n) sum_i ||grad f_i(X_s)||_F^2 (used for variance statistics).
        With grad f_i = w_i A_i + lam I, that square is
        w_i^2 ||A_i||^2 + 2 lam w_i tr(A_i) + lam^2 p, and the mean of
        w_i tr(A_i) is tr(grad f(X_s)) - lam p.
        """
        W = self._slope(self._measure(Xs))
        G = self._grads(W)
        moments = (W**2) @ self._A_sqnorms / self.n
        moments += self.lam * (2.0 * np.trace(G, axis1=1, axis2=2) - self.lam * self.p)
        return G, moments


class SensingProblem(SampleObjective):
    """Noiseless matrix sensing: f_i(X) = (1/2)(b_i - <A_i, X>)^2.

    Measurement matrices are exactly symmetric; b_i = <A_i, X*> so the
    planted optimum interpolates every sample. Ground truth (X*, U*) is
    retained for error reporting.

    The measurements are held once, as the C-contiguous (n, p, p) array
    ``A``, and read through ``_A2``, an (n, p^2) view of the same memory;
    no second copy of the operand is made.  The measurement map of S
    points, an (S, p, p) stack read as (S, p^2), is the block
    ``Xs @ A2^T`` of shape (S, n), and the adjoint is ``W @ A2``: each
    reads ``A`` once for all S points.  At S = 1 numpy runs them as
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

    def grad_sample_times_factor(self, i, U):
        AU = self.A[i] @ U
        return (float(np.vdot(U, AU)) - self.b[i]) * AU

    def _measure(self, Xs):
        return np.reshape(Xs, (-1, self.p * self.p)) @ self._A2.T

    def _value(self, z):
        resid = z - self.b
        return 0.5 * float(resid @ resid) / self.n

    def _slope(self, Z):
        return Z - self.b

    def _adjoint(self, W):
        return W @ self._A2


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


class TripletProblem(SampleObjective):
    """Ordinal embedding objective f(X) = (1/|C|) sum_c l_c(X) + lam tr(X).

    X is the Gram matrix of the embedded points. Each sample is one triplet
    constraint (i, j, k) meaning d2_ij <= d2_ik, with the logistic loss
    l_c(X) = -log sigma(d2_ik - d2_ij), computed through logaddexp so that
    it stays finite for any finite X.  The measurement of a triplet is its
    margin z = d2_ik - d2_ij = <A_c, X>, where A_c has +1 at (k, k), (i, j)
    and (j, i) and -1 at (j, j), (i, k) and (k, i), so ||A_c||_F^2 = 6; the
    trace term is folded into every f_i so that f = (1/n) sum_i f_i
    exactly.  The full-batch oracles read all margins off X at once; the
    kernel reads them off the rows of U.

    The family's one per-sample direction is the kernel ``factor_steps``:
    it runs a whole SVRG or SFGD inner loop with lazy dense updates, which
    the solvers use in place of their per-step loop.  It matches the
    per-step loop over the one-sample objectives up to rounding: one SVRG
    epoch at the criterion-10 steps agrees to about 1e-11 relative, and
    SFGD at eta0 = 0.05 over several epochs to about 1e-15.  SFGD at
    eta0 = 2 is chaotic, so its 1e-17 per-step differences grow to about
    1e-5 relative after one 3200-step epoch and to O(1) after two; there
    the two paths agree as runs (same test-error crossings on the
    criterion-10 trials), not as iterates.
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
        self._A_sqnorms = np.full(self.n, 6.0)
        # flat cells (K,K), (J,J), (I,J), (J,I), (I,K), (K,I) of every
        # triplet, in that order: the adjoint's one scatter-add target
        I, J, K = self._I, self._J, self._K
        self._cells = np.concatenate([K * p + K, J * p + J, I * p + J,
                                      J * p + I, I * p + K, K * p + I])

    def _measure(self, Xs):
        """Margins d2_ik - d2_ij, with d2_ab = X_aa + X_bb - X_ab - X_ba.

        The symmetric form equals X_aa + X_bb - 2 X_ab on symmetric X.
        Each point of the stack is read in place.
        """
        I, J, K = self._I, self._J, self._K
        return np.array([X[K, K] - X[J, J] - X[I, K] - X[K, I] + X[I, J] + X[J, I]
                         for X in Xs])

    def _value(self, z):
        return float(np.mean(np.logaddexp(0.0, -z)))

    def _slope(self, Z):
        return -1.0 / (1.0 + np.exp(np.clip(Z, -700.0, 700.0)))

    def _adjoint(self, W):
        """Per row one scatter-add over the six cells of every triplet.

        Mirror entries accumulate in different orders, so each row is
        symmetrized to make its symmetry exact.
        """
        p = self.p
        out = np.empty((len(W), p * p))
        for w, row in zip(W, out):
            G = np.bincount(self._cells, np.concatenate([w, -w, w, w, -w, -w]),
                            minlength=p * p).reshape(p, p)
            sym = row.reshape(p, p)
            np.add(G, G.T, out=sym)
            sym /= 2.0
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

        The result equals the per-step loop over the one-sample objectives,
        ``d_t = TripletProblem(p, triplets[[i]], lam).grad_full(U U^T) @ U``,
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
        no ratio of products underflows.  Rows are Python float lists, and
        the sampled triplets are gathered from the index array once per
        call; a step makes no numpy call.
        """
        lam = self.lam
        sampled = self.triplets[idx].tolist()
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

        for s, (i, j, k), eta in zip(idx, sampled, etas):
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
    Each difference X - Y is formed again after that call, one pair at a
    time, so no list of K differences sits beside the gradient stack.

    Raises
    ------
    NoProbes
        if every pair was dropped.
    """
    kept = []
    for X, Y in pairs:
        nd = float(np.linalg.norm(X - Y))
        if nd < 1e-14:
            continue
        kept.append((X, Y, nd))
    if not kept:
        raise NoProbes("all probe pairs coincident")
    grads = obj.grad_full_many([M for X, Y, _ in kept for M in (X, Y)])
    l_vals, mu_vals = [], []
    for k, (X, Y, nd) in enumerate(kept):
        D = X - Y
        Gd = grads[2 * k] - grads[2 * k + 1]
        l_vals.append(float(np.linalg.norm(Gd)) / nd)
        mu_vals.append(float(np.vdot(Gd, D)) / nd**2)
    return max(l_vals), min(mu_vals)

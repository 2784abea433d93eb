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

import contextvars
import functools
import math
import os
from typing import NamedTuple

import numpy as np

from .linalg import gram


class NoProbes(Exception):
    """All probe pairs were coincident; nothing to estimate from."""


class Snapshot(NamedTuple):
    """The objective at a factor U and its Gram matrix X = U U^T.

    ``SampleObjective.snapshot(U)`` computes one, X included.  ``f`` is
    f(X) and ``g`` the (p, r) direction ``grad f(X) @ U``.  ``G`` is the
    p-by-p gradient where the family forms it; where it does not, ``z``
    and ``W`` are the (n,) measurements ``<A_i, X>`` and their slopes
    ``phi_i'(z_i)``.  ``terms`` is what the family's inner-loop kernel
    reads from an SVRG anchor.  Every field defaults to None, so a test
    can build a point from X and G alone.
    """

    U: np.ndarray | None = None
    X: np.ndarray | None = None
    f: float | None = None
    z: np.ndarray | None = None
    W: np.ndarray | None = None
    g: np.ndarray | None = None
    G: np.ndarray | None = None
    terms: np.ndarray | None = None

    def secant(self, prev, dX):
        """``<dX, grad f(X) - grad f(prev.X)>``, where the caller formed ``dX = X - prev.X``.

        With G, the X-space product.  Without it, ``mean(dz * dW)`` over the
        measurements: ``grad f = (1/n) sum_i W_i A_i + lam I`` and
        ``dz_i = <A_i, dX>``, so the two agree to rounding, at O(n) and with
        no p-by-p gradient.  A family that forms G keeps the X-space form,
        whose rounding also decides when the difference is exactly zero.
        """
        if self.G is None:
            return float(np.mean((self.z - prev.z) * (self.W - prev.W)))
        return float(np.vdot(dX, self.G - prev.G))


class SampleObjective:
    """Oracle bundle for f(X) = (1/n) sum_i phi_i(<A_i, X>) + lam tr(X).

    A family sets ``n``, ``p`` and ``lam`` and supplies five primitives:

    * ``_measure(Xs)``: the (S, n) block ``z_si = <A_i, X_s>`` of an
      (S, p, p) stack or a list of S points;
    * ``_value(z)``: the mean loss ``(1/n) sum_i phi_i(z_i)`` of one point;
    * ``_slope(Z)``: the block of ``phi_i'(z_si)``;
    * ``_adjoint(W)``: the (S, p^2) rows ``sum_i W_si vec(A_i)``, fresh;
    * ``_A_sqnorms``: the (n,) array of ``||A_i||_F^2``.

    The full-batch oracles ``eval_full``, ``grad_full``, ``value_and_grad_full``
    and ``grad_moments_many`` (at S points) are derived from them here, once;
    a per-sample oracle is that of the one-sample objective of the family.
    The factored solvers read X = U U^T, f and ``grad f(X) @ U`` from one
    ``snapshot(U)`` per iterate: here ``value_and_grad_full``, which a
    family may replace with one read off U.  They hand a whole inner loop to
    ``factor_steps``: here the per-step loop along
    ``grad_sample_times_factor``, the reference, which each family overrides
    with a kernel that forms no p-by-p matrix.  Instances are read-only.
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

    def factor_steps(self, U, idx, etas, anchor=None):
        """Run a whole SVRG or SFGD inner loop from U and return the final factor.

        U is a (p, r) array, ``idx`` an integer array of sample indices and
        ``etas`` an equally long list of float steps; step t is
        ``U <- U - etas[t] * d_t`` for sample ``i = idx[t]``.  Without
        ``anchor``, d_t is the SFGD direction ``grad f_i(U U^T) @ U``.  With
        ``anchor``, this objective's ``snapshot(Ut)`` with full direction
        ``g = grad f(Ut Ut^T) @ Ut``, d_t is the SVRG direction
        ``grad f_i(U U^T) @ U - grad f_i(Ut Ut^T) @ Ut + g``, whose sample
        terms cancel exactly at U = Ut.

        This is the per-step loop along ``grad_sample_times_factor``: the
        reference that each family's kernel is tested against.  The update
        is applied in place on fresh oracle outputs.
        """
        gstf = self.grad_sample_times_factor
        U = U.copy()
        for i, eta in zip(idx.tolist(), etas):
            d = gstf(i, U)
            if anchor is not None:
                d -= gstf(i, anchor.U)
                d += anchor.g
            d *= eta
            U -= d
        return U

    def snapshot(self, U):
        """The objective at U and ``X = gram(U)`` as a ``Snapshot``.

        Here ``value_and_grad_full(X)`` and ``g = G @ U``; ``z``, ``W`` and
        ``terms`` are None.
        """
        X = gram(U)
        f, G = self.value_and_grad_full(X)
        return Snapshot(U=U, X=X, f=f, g=G @ U, G=G)

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

    def grad_moments_many(self, Xs):
        """``grad_full`` at each of S points, as an (S, p, p) stack, and the (S,)
        second moments (1/n) sum_i ||grad f_i(X_s)||_F^2 (variance statistics).

        With grad f_i = w_i A_i + lam I, that square is
        w_i^2 ||A_i||^2 + 2 lam w_i tr(A_i) + lam^2 p, and the mean of
        w_i tr(A_i) is tr(grad f(X_s)) - lam p.
        """
        W = self._slope(self._measure(Xs))
        G = self._grads(W)
        moments = (W**2) @ self._A_sqnorms / self.n
        moments += self.lam * (2.0 * np.trace(G, axis1=1, axis2=2) - self.lam * self.p)
        return G, moments


# Operand bytes from which ``SensingProblem.snapshot`` splits its samples
# over two threads.  On a 2-vCPU VM under OpenBLAS's default two threads,
# whole FGD runs at n = 10p ran slower split up to p=70 (27 MB) and
# faster from p=80 (41 MB) on.
SPLIT_SNAPSHOT_BYTES = 32 << 20


def snapshot_threads(nbytes):
    """The threads a sensing snapshot over an operand of ``nbytes`` splits over.

    Two where the operand holds at least ``SPLIT_SNAPSHOT_BYTES`` and this
    process may run on two or more CPUs, else one.
    """
    if nbytes < SPLIT_SNAPSHOT_BYTES:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return min(2, len(os.sched_getaffinity(0)))
    return min(2, os.cpu_count() or 1)


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

    The factored solvers read ``A`` once per snapshot, and neither
    ``snapshot`` nor the inner loop forms a p-by-p gradient.  Products with
    U are taken in its transposed, (r, p) layout, ``U^T A_i``, everywhere:
    a slice of the batched product is bitwise the per-sample product, which
    ``(A_i U)^T`` is not.
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
        V = U.T.copy()
        VA = V @ self.A[i]
        return ((float(np.vdot(V, VA)) - self.b[i]) * VA).T

    def snapshot(self, U):
        """The ``Snapshot`` at U and ``X = gram(U)`` from one batched product.

        ``T = U^T A`` is the (n, r, p) stack of ``U^T A_i``.  Then
        ``z_i = <U^T, T_i>`` is one dot per row, ``W = z - b``, sample i's
        anchor term is ``W_i T_i`` (``terms`` is T, scaled in place) and
        ``g`` is the mean of the terms, transposed: O(n p r) beyond the
        read of ``A``.  Each slice and row dot is bitwise the per-sample
        oracle's, so the anchor terms are too.

        All but the mean is per sample, so the samples are cut into
        ``snapshot_threads(A.nbytes)`` contiguous blocks: with two, a helper
        thread started for this call runs the first block's product, row
        dots, slopes and scaling while the calling thread runs the second
        (numpy releases the GIL in all four), and is joined before the
        mean.  A block's rows are bitwise the whole stack's, so no field
        depends on the split.  The batched product is a loop of small gemms
        that even a threaded BLAS runs on one core, so the second core
        speeds it up, but only past ``SPLIT_SNAPSHOT_BYTES``: below, the
        thread's start and OpenBLAS's idle worker, which spins on the
        second core for about 0.1 s after a threaded BLAS call, cost more
        than that core gives.  The mean is one numpy sum on the
        calling thread, not a BLAS matrix-vector product: at p=100 that
        product took 8 ms under OpenBLAS with two threads, against 0.2 ms
        with one.
        """
        n, X = self.n, gram(U)
        A = self.A
        V = U.T.copy()
        T = np.empty((n,) + V.shape)
        z, W = np.empty(n), np.empty(n)

        def block(lo, hi):
            np.matmul(V, A[lo:hi], out=T[lo:hi])
            np.matmul(T[lo:hi].reshape(hi - lo, 1, V.size), V.reshape(-1),
                      out=z[lo:hi, None])
            W[lo:hi] = self._slope(z[lo:hi], slice(lo, hi))
            T[lo:hi] *= W[lo:hi, None, None]

        if snapshot_threads(A.nbytes) == 1:
            block(0, n)
        else:
            from concurrent.futures import ThreadPoolExecutor
            # The helper runs in a copy of this context, so under the caller's
            # np.errstate, and the ``with`` joins it: no thread is left for a fork.
            with ThreadPoolExecutor(1) as helper:
                first = helper.submit(contextvars.copy_context().run, block, 0, n // 2)
                block(n // 2, n)
            first.result()
        g = T.sum(axis=0)
        g /= n
        return Snapshot(U=U, X=X, f=self._f(z, X), z=z, W=W, g=g.T, terms=T)

    def factor_steps(self, U, idx, etas, anchor=None):
        """The loop of ``SampleObjective.factor_steps``, bit for bit, with fewer products.

        A step makes the float operations of the per-step loop in its
        order, on the transposed iterate ``V = U^T``.  It looks ``A[i]`` up
        once, writes ``V A_i`` into one product buffer with ``ndarray.dot``
        and scales that buffer in place by ``<V, V A_i> - b_i``, then by
        the step.  ``v`` and ``va`` are flat views of V and the buffer, so
        ``v.dot(va)`` is the ddot that ``np.vdot`` makes.  The anchor's
        sample terms come from its snapshot's table, so the loop makes one
        product per step with an anchor or without.
        """
        A, b = self.A, self.b.tolist()
        V = U.T.copy()
        VA = np.empty_like(V)
        v, va = V.reshape(-1), VA.reshape(-1)
        if anchor is not None:
            terms, gT = anchor.terms, anchor.g.T
        for i, eta in zip(idx.tolist(), etas):
            V.dot(A[i], out=VA)
            VA *= float(v.dot(va)) - b[i]
            if anchor is not None:
                VA -= terms[i]
                VA += gT
            VA *= eta
            V -= VA
        return V.T.copy()

    def _measure(self, Xs):
        return np.reshape(Xs, (-1, self.p * self.p)) @ self._A2.T

    def _value(self, z):
        resid = z - self.b
        return 0.5 * float(resid @ resid) / self.n

    def _slope(self, Z, rows=slice(None)):
        """The slopes ``Z - b``; with ``rows``, Z holds those samples' columns only."""
        return Z - self.b[rows]

    def _adjoint(self, W):
        return W @ self._A2


def sensing_generate(p, r_star, n, seed):
    """Plant a rank-r* optimum and draw n symmetrized Gaussian measurements.

    U* has i.i.d. standard normal entries, X* = U* U*^T, each A_i is a
    standard normal matrix symmetrized as (A + A^T)/2, and b_i = <A_i, X*>
    exactly (no noise). Deterministic for a fixed seed.

    The draws are symmetrized in place, one measurement at a time, so the
    instance never holds a second (n, p, p) array; the result is
    bit-identical to (A + A^T)/2.
    """
    if not (1 <= r_star <= p and n >= 1):
        raise ValueError("need 1 <= r_star <= p and n >= 1")
    rng = np.random.default_rng(seed)
    Ustar = rng.standard_normal((p, r_star))
    Xstar = gram(Ustar)
    A = rng.standard_normal((n, p, p))
    for Ai in A:
        Ai += Ai.T.copy()
        Ai *= 0.5
    b = np.einsum("kij,ij->k", A, Xstar)
    return SensingProblem(A, b, Xstar=Xstar, Ustar=Ustar)


def _triplet_indices(triplets):
    """``triplets`` as an int array; an index not an integer value (0.5, NaN) raises."""
    T = np.asarray(triplets)
    if T.dtype.kind not in "biu":
        T = np.asarray(T, dtype=float)
        if not np.all(np.isfinite(T) & (T == np.trunc(T)) & (abs(T) < 2.0**63)):
            raise ValueError("triplet indices must be integer values")
    return T.astype(int, copy=False)


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

    The family's one per-sample direction is its kernel ``factor_steps``:
    it runs a whole SVRG or SFGD inner loop with its dense part kept in one
    shared frame.  Its reference is the base class's per-step loop over
    the one-sample objectives (the family has no
    ``grad_sample_times_factor`` of its own), which the kernel matches up
    to rounding, not bit for bit: one SVRG epoch at the criterion-10
    steps agrees to about 1e-11 relative, and SFGD at eta0 = 0.05 over
    several epochs to about 1e-15.  SFGD at eta0 = 2 is chaotic, so its
    per-step differences near 1e-16 grow to about 4e-6 relative after one
    3200-step epoch and to O(1) after two; there the two paths agree as
    runs (same test-error crossings on the criterion-10 trials), not as
    iterates.
    """

    def __init__(self, p, triplets, lam=0.0):
        T = _triplet_indices(triplets)
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
        """The loop of ``SampleObjective.factor_steps``, up to rounding.

        The kernel reads the anchor snapshot's factor Ut and direction g;
        the anchor's margins are read off the rows of Ut, so no p-by-p
        matrix is formed.

        The result equals the per-step loop over the one-sample objectives,
        ``d_t = TripletProblem(p, triplets[[i]], lam).grad_full(U U^T) @ U``,
        up to rounding, at a fraction of its cost.  A step's loss part moves
        only the three rows of its triplet; the rest of the step is the
        affine map ``u <- a_t u + eta_t c`` on every row, with
        ``a_t = 1 - eta_t lam`` and ``c = lam Ut - g`` (``c = 0`` without an
        anchor).  That map is never applied row by row (Bottou 2012;
        Shalev-Shwartz, Singer and Srebro 2007): every row lives in one
        shared frame, the running composition ``u -> P u + R c`` of the
        maps so far, and is stored as ``s`` with ``u = P s + R c``.  A step
        reads only its three rows, takes the margin from their differences
        at actual scale, and writes each as ``s <- s + D / P'``, where D is
        the row's loss part (plus the anchor's) and ``P'`` the new scale.
        When ``|P'|`` leaves ``[1e-100, 1e100]`` (``a_t = 0``, ``eta lam``
        near 1, or a long loop at a large step) that step is taken in
        actual coordinates on every row and the frame restarts, so no
        scale under- or overflows.  The sampled triplets are gathered from
        the three index columns once per call; each row is an r-tuple, and
        the loop that steps them is written out for the rank by ``_kernel``
        and compiled once per ``(r, anchored)``, so a step makes no numpy
        call.
        """
        lam = self.lam
        columns = (self._I[idx].tolist(), self._J[idx].tolist(), self._K[idx].tolist())
        rows = U.tolist()
        if anchor is None:
            return np.array(_kernel(U.shape[1], False)(rows, *columns, etas, lam))
        Ut, g = anchor.U, anchor.g
        tilde = Ut.tolist()
        c = (lam * Ut - g).tolist()
        with np.errstate(over="ignore", invalid="ignore"):
            dik = Ut[self._I] - Ut[self._K]
            dij = Ut[self._I] - Ut[self._J]
            z = np.einsum("tr,tr->t", dik, dik) - np.einsum("tr,tr->t", dij, dij)
            e = np.exp(-np.abs(z))
            w_anchor = np.where(z >= 0, -e / (1.0 + e), -1.0 / (1.0 + e))[idx].tolist()
        return np.array(_kernel(U.shape[1], True)(rows, *columns, etas, lam,
                                                  c, tilde, w_anchor))


@functools.lru_cache(maxsize=None)
def _kernel(r, anchored):
    """The loop of ``TripletProblem.factor_steps`` at rank r, compiled once.

    Every per-column expression is written out over locals: ``sx0..``,
    ``sy0..`` and ``sv0..`` hold the stored rows of i, j and k in the
    shared frame; with an anchor, ``cx0..``, ``cy0..``, ``cv0..`` hold
    their rows of c, ``ti0..``, ``tj0..``, ``tk0..`` those of Ut, and
    ``x0..``, ``y0..``, ``v0..`` their actual values.  So a step builds no
    list and calls no comprehension.  Without an anchor ``c = 0``: the
    frame is the scale P alone, no actual row is formed, and the update
    ``s <- s + D / P'`` reads ``s_i <- s_i - (eta w / a)(s_j - s_k)``, and
    likewise for j and k.  The margin is still summed from differences at
    actual scale, ``P (s_i - s_k)`` and ``P (s_i - s_j)``, so it overflows
    where the per-step loop's does.  A restart writes every row at its
    actual value, ``P' s + R' c``, plus D on the three rows of the step.
    The source is built from the fixed templates below and the integer r
    alone.
    """

    def each(template):
        """``template`` once per column, ``#`` replaced by the column, comma-ended."""
        return "".join(template.replace("#", str(col)) + ", " for col in range(r))

    def per_column(template, indent):
        """One line of ``template`` per column, ``#`` replaced by the column."""
        return [" " * indent + template.replace("#", str(col)) for col in range(r)]

    if anchored:
        src = ["def steps(rows, I, J, K, etas, lam, c, tilde, w_anchor):",
               "    p = len(rows)",
               "    P, R = 1.0, 0.0",
               "    for i, j, k, eta, wa in zip(I, J, K, etas, w_anchor):"]
        for q, name in (("i", "x"), ("j", "y"), ("k", "v")):
            src += [f"        {each('s' + name + '#')}= rows[{q}]",
                    f"        {each('c' + name + '#')}= c[{q}]"]
            src += per_column(f"{name}# = P * s{name}# + R * c{name}#", 8)
        src += per_column("mv# = x# - v#", 8) + per_column("my# = x# - y#", 8)
    else:
        src = ["def steps(rows, I, J, K, etas, lam):",
               "    p = len(rows)",
               "    P = 1.0",
               "    for i, j, k, eta in zip(I, J, K, etas):"]
        src += [f"        {each('s' + name + '#')}= rows[{q}]"
                for q, name in (("i", "x"), ("j", "y"), ("k", "v"))]
        src += per_column("dv# = sx# - sv#", 8) + per_column("dy# = sx# - sy#", 8)
        src += per_column("mv# = P * dv#", 8) + per_column("my# = P * dy#", 8)
    # the margin from the differences at actual scale, mv# and my#
    squares = [" + ".join(f"m{d}{col} * m{d}{col}" for col in range(r)) for d in "vy"]
    src += [f"        z = ({squares[0]}) - ({squares[1]})",
            "        if z >= 0:",
            "            e = exp(-z)",
            "            w = -e / (1.0 + e)",
            "        else:",
            "            w = -1.0 / (1.0 + exp(z))",
            "        a = 1.0 - eta * lam",
            "        Q = a * P"]
    # each row's loss part D, written for its columns as "+ D" over the
    # weights g (and ga); the frame stores D / Q, actual coordinates D
    if anchored:
        # the anchor's loss part, grad f_i(Ut Ut^T) @ Ut, on the same rows
        src += [f"        {each('t' + q + '#')}= tilde[{q}]" for q in "ijk"]
        src += ["        R = a * R + eta"]
        loss = {"x": "- g * (y# - v#) + ga * (tj# - tk#)",
                "y": "- g * my# + ga * (ti# - tj#)",
                "v": "+ g * mv# + ga * (tk# - ti#)"}
        in_frame = ["g = eta * w / Q", "ga = eta * wa / Q"]
        actual = ["g = eta * w", "ga = eta * wa"]
    else:
        loss = {"x": "- g * (sy# - sv#)", "y": "- g * dy#", "v": "+ g * dv#"}
        in_frame, actual = ["g = eta * w / a"], ["g = eta * w * P"]

    def value(name, scale):
        """The actual value of the stored row ``s<name>`` at the frame's ``scale``."""
        return f"{scale} * s{name}#" + (f" + R * c{name}#" if anchored else "")

    src += ["        if 1e-100 <= abs(Q) <= 1e100:"]
    src += ["            " + line for line in in_frame]
    src += [f"            rows[{q}] = ({each(f's{name}# {loss[name]}')})"
            for q, name in zip("ijk", "xyv")]
    src += ["            P = Q",
            "        else:",
            "            for q in range(p):",
            "                if q != i and q != j and q != k:",
            f"                    {each('sq#')}= rows[q]"]
    if anchored:
        src += [f"                    {each('cq#')}= c[q]"]
    src += [f"                    rows[q] = ({each(value('q', 'Q'))})"]
    src += ["            " + line for line in actual]
    src += [f"            rows[{q}] = ({each(value(name, 'Q') + ' ' + loss[name])})"
            for q, name in zip("ijk", "xyv")]
    if anchored:
        src += ["            P, R = 1.0, 0.0",
                f"    return [({each(value('q', 'P'))}) "
                f"for ({each('sq#')}), ({each('cq#')}) in zip(rows, c)]"]
    else:
        src += ["            P = 1.0",
                f"    return [({each(value('q', 'P'))}) for ({each('sq#')}) in rows]"]
    namespace = {"exp": math.exp}
    exec(compile("\n".join(src) + "\n", f"<factor_steps r={r}>", "exec"), namespace)
    return namespace["steps"]


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
    (the identity) scores 1.0; a non-integer index raises ValueError.
    """
    T = _triplet_indices(triplets)
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
    at the 2K points of the K pairs kept come from one ``grad_moments_many``
    call on [X_1, Y_1, ..., X_K, Y_K], whose moments go unread.  Each
    X - Y is formed again after that call, one pair at a time, so no list
    of K differences sits beside the gradient stack.

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
    grads = obj.grad_moments_many([M for X, Y, _ in kept for M in (X, Y)])[0]
    l_vals, mu_vals = [], []
    for k, (X, Y, nd) in enumerate(kept):
        D = X - Y
        Gd = grads[2 * k] - grads[2 * k + 1]
        l_vals.append(float(np.linalg.norm(Gd)) / nd)
        mu_vals.append(float(np.vdot(Gd, D)) / nd**2)
    return max(l_vals), min(mu_vals)

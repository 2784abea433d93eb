"""Iterative solvers over a SampleObjective.

Four algorithms share the RunRecord trace format:

* ``run_svrg``    variance-reduced stochastic gradient on the factor U,
                  with a fresh full-gradient anchor every outer iteration
* ``run_fgd``     full factored gradient descent (one iteration per epoch)
* ``run_sfgd``    stochastic factored gradient descent with a diminishing
                  step (n sampled steps per epoch)
* ``run_projgd``  projected gradient descent in X-space (baseline)

SVRG and SFGD share one inner loop, ``_inner_loop``: SFGD is the SVRG
loop without an anchor and with a decaying step.  An objective family
supplies either the per-sample direction ``grad_sample_times_factor``
(sensing), which the loop steps along, or the kernel ``factor_steps``
(triplets), which runs the whole loop itself on the same samples and
steps (TripletProblem's docstring says how closely it matches the
per-step loop).  Epoch accounting follows sample-gradient
counts: FGD, SFGD, and ProjGD spend n sample gradients per epoch, SVRG
spends n + m per outer iteration.  Metric evaluations are not counted.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import gram, procrustes_dist, proj_psd, symmetrize

DIVERGE_LIMIT = 1e150


class DivergedError(RuntimeError):
    """Iterate left the representable range; carries the partial record."""

    def __init__(self, message, epoch, record):
        super().__init__(message)
        self.epoch = epoch
        self.record = record


@dataclass
class SolverConfig:
    algorithm: str
    r: int
    epochs: int
    seed: int
    m: int | None = None
    eval_every: int = 1
    schedule: object | None = None
    eta: float | None = None
    eta0: float | None = None
    t0: float | None = None

    def __post_init__(self):
        if not self.algorithm:
            raise ValueError("algorithm label must be a nonempty string")
        if self.r < 1:
            raise ValueError("rank r must be at least 1")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.m is not None and self.m < 1:
            raise ValueError("inner-loop length m must be at least 1")
        if self.eval_every < 1:
            raise ValueError("eval_every must be at least 1")
        # written so that NaN fails every range
        if self.eta is not None and not 0 <= self.eta < math.inf:
            raise ValueError("eta must be finite and >= 0")
        if self.eta0 is not None and not 0 < self.eta0 < math.inf:
            raise ValueError("eta0 must be finite and > 0")
        if self.t0 is not None and not self.t0 > 0:
            raise ValueError("t0 must be positive (inf freezes the step)")
        # the secant step divides by the schedule's m; the loop runs self.m steps
        m = getattr(self.schedule, "m", self.m)
        if m != self.m:
            raise ValueError(f"schedule inner-loop length {m} differs from m={self.m}")


@dataclass
class Row:
    epoch: int
    eta: float
    f: float
    error_X: float | None
    error_U: float | None
    metric: float | None
    sample_grads: int


@dataclass
class RunRecord:
    """Rows and last iterate: ``final_U`` of a factored run, ``final_X`` of ProjGD."""

    algorithm: str
    seed: int
    rows: list = field(default_factory=list)
    diverged: bool = False
    diverged_epoch: int | None = None
    final_U: np.ndarray | None = None
    final_X: np.ndarray | None = None


def epochs_to(rows, threshold, field="error_X"):
    """First recorded epoch whose ``field`` is at or below threshold, else inf."""
    for row in rows:
        value = getattr(row, field)
        if value is not None and value <= threshold:
            return row.epoch
    return math.inf


def epoch_cost(algorithm, n, m=None):
    """Sample gradients spent per epoch of the named algorithm."""
    if algorithm.startswith("svrg"):
        if m is None or m < 1:
            raise ValueError("svrg epoch cost needs the inner-loop length m")
        return n + m
    if algorithm in ("fgd", "sfgd", "projgd"):
        return n
    raise ValueError(f"unknown algorithm: {algorithm!r}")


def _check_factor(obj, config, U0):
    U = np.array(U0, dtype=float)
    if U.ndim != 2 or U.shape != (obj.p, config.r):
        raise ValueError(f"initial factor must have shape ({obj.p}, {config.r}), "
                         f"got {U.shape}")
    return U


class _Recorder:
    """The rows, divergence marker and final state of one run.

    ``kind`` prices an epoch through ``epoch_cost``.  ``U`` is the factor,
    or None for the X-space solver, which has no factor error; ``X``
    defaults to ``gram(U)``.  A row computes its metrics before any
    objective value it still has to evaluate.
    """

    def __init__(self, obj, config, kind, X_ref, U_ref, metric):
        self.obj, self.cost = obj, epoch_cost(kind, obj.n, config.m)
        self.epochs, self.eval_every = config.epochs, config.eval_every
        self.X_ref, self.U_ref, self.metric = X_ref, U_ref, metric
        self.record = RunRecord(config.algorithm, config.seed)

    def row(self, k, eta, U, X=None, f=None):
        """Record epoch k if due (every eval_every epochs, and the last).

        ``f`` defaults to ``eval_full(X)``.
        """
        if k % self.eval_every and k != self.epochs:
            return
        if X is None:
            X = gram(U)
        error_X = None if self.X_ref is None else float(
            np.linalg.norm(X - self.X_ref) / max(1.0, np.linalg.norm(self.X_ref)))
        error_U = (None if U is None or self.U_ref is None
                   else procrustes_dist(U, self.U_ref))
        mval = None if self.metric is None else float(self.metric(X))
        if f is None:
            f = self.obj.eval_full(X)
        self.record.rows.append(
            Row(k, eta, float(f), error_X, error_U, mval, k * self.cost))

    def check(self, epoch, U, X=None):
        """Raise DivergedError after a NaN row unless the new iterate is in range.

        The factor ``U`` is checked, or ``X`` when ``U`` is None.
        """
        M = X if U is None else U
        if np.isfinite(M).all() and float(np.abs(M).max()) <= DIVERGE_LIMIT:
            return
        nan = float("nan")
        has = (self.X_ref is not None, U is not None and self.U_ref is not None,
               self.metric is not None)
        self.record.rows.append(
            Row(epoch, 0.0, nan, *(nan if h else None for h in has), epoch * self.cost))
        self.record.diverged, self.record.diverged_epoch = True, epoch
        self.record.final_U, self.record.final_X = U, X
        raise DivergedError(f"iterate diverged at epoch {epoch}", epoch, self.record)

    def finish(self, U, X=None):
        """Append the final row (step 0.0) and return the record."""
        self.row(self.epochs, 0.0, U, X)
        self.record.final_U, self.record.final_X = U, X
        return self.record


def _inner_loop(obj, U, idx, etas, anchor=None):
    """Step ``U <- U - etas[t] * d_t`` for sample ``i = idx[t]``; return the factor.

    d_t is ``grad f_i(U U^T) @ U``, the SFGD direction, or with ``anchor =
    (Ut, g)``, a snapshot and ``g = grad f(Ut Ut^T) @ Ut``, the SVRG direction
    ``grad f_i(U U^T) @ U - grad f_i(Ut Ut^T) @ Ut + g``, whose sample terms
    cancel exactly at U = Ut.  The objective supplies either
    ``grad_sample_times_factor`` (sensing), stepped along here, or
    ``factor_steps`` (triplets), which runs the whole loop itself.  The
    update is applied in place on fresh oracle outputs; the loop runs n+
    times per epoch and per-step temporaries dominate its cost otherwise.
    """
    steps = getattr(obj, "factor_steps", None)
    if steps is not None:
        return steps(U, idx, etas, anchor=anchor)
    gstf = obj.grad_sample_times_factor
    Ut, g = anchor if anchor is not None else (None, None)
    U = U.copy()
    for i, eta in zip(idx, etas):
        d = gstf(i, U)
        if anchor is not None:
            d -= gstf(i, Ut)
            d += g
        d *= eta
        U -= d
    return U


def run_svrg(obj, config, U0, X_ref=None, U_ref=None, metric=None):
    """Variance-reduced solver on the factor, Option-I outer update.

    Every outer iteration recomputes the anchor gradient ``grad f_i`` at
    the stored snapshot instead of caching the n per-sample gradients, and
    consults the step schedule once with the snapshot and its full matrix
    gradient.  The schedule's state lives in this call, not the schedule.
    """
    if config.schedule is None:
        raise ValueError("run_svrg needs config.schedule")
    if config.m is None:
        raise ValueError("run_svrg needs config.m")
    Utilde = _check_factor(obj, config, U0)
    rng = np.random.default_rng(config.seed)
    rec = _Recorder(obj, config, "svrg", X_ref, U_ref, metric)
    state = None
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(config.epochs):
            Xt = gram(Utilde)
            f, G = obj.value_and_grad_full(Xt)
            eta, state = config.schedule.next_step(state, Xt, G)
            rec.row(k, eta, Utilde, Xt, f)
            idx = rng.integers(0, obj.n, size=config.m).tolist()
            Utilde = _inner_loop(obj, Utilde, idx, [eta] * config.m,
                                 anchor=(Utilde, G @ Utilde))
            rec.check(k + 1, Utilde)
        return rec.finish(Utilde)


def run_fgd(obj, config, U0, X_ref=None, U_ref=None, metric=None):
    """Full factored gradient descent; one iteration is one epoch."""
    if config.eta is None:
        raise ValueError("run_fgd needs config.eta")
    U = _check_factor(obj, config, U0)
    rec = _Recorder(obj, config, "fgd", X_ref, U_ref, metric)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(config.epochs):
            X = gram(U)
            f, G = obj.value_and_grad_full(X)
            rec.row(k, config.eta, U, X, f)
            U = U - config.eta * (G @ U)
            rec.check(k + 1, U)
        return rec.finish(U)


def run_sfgd(obj, config, U0, X_ref=None, U_ref=None, metric=None):
    """Stochastic factored gradient descent with a diminishing step.

    The step at global inner step t is ``eta0 / (1 + t / t0)`` with t
    counted across epochs; t0 defaults to the sample size, and
    ``t0 = math.inf`` degenerates to a fixed step.  One epoch is n
    sampled steps.  The row for epoch k records the step used at the
    first inner step of that epoch.
    """
    if config.eta0 is None:
        raise ValueError("run_sfgd needs config.eta0")
    t0 = float(config.t0) if config.t0 is not None else float(obj.n)
    U = _check_factor(obj, config, U0)
    rng = np.random.default_rng(config.seed)
    rec = _Recorder(obj, config, "sfgd", X_ref, U_ref, metric)
    n = obj.n
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(config.epochs):
            etas = [config.eta0 / (1.0 + t / t0) for t in range(k * n, (k + 1) * n)]
            rec.row(k, etas[0], U)
            idx = rng.integers(0, n, size=n).tolist()
            U = _inner_loop(obj, U, idx, etas)
            rec.check(k + 1, U)
        return rec.finish(U)


def run_projgd(obj, config, X0, X_ref=None, metric=None):
    """Projected gradient descent in X-space; one iteration is one epoch.

    Divergence is judged on the unprojected step, which a diverged
    record keeps as ``final_X``.
    """
    if config.eta is None:
        raise ValueError("run_projgd needs config.eta")
    X = symmetrize(np.array(X0, dtype=float))
    if X.shape != (obj.p, obj.p):
        raise ValueError(f"initial matrix must have shape ({obj.p}, {obj.p})")
    rec = _Recorder(obj, config, "projgd", X_ref, None, metric)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(config.epochs):
            f, G = obj.value_and_grad_full(X)
            rec.row(k, config.eta, None, X, f)
            raw = X - config.eta * G
            rec.check(k + 1, None, raw)
            X = proj_psd(raw)
        return rec.finish(None, X)

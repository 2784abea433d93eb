"""Iterative solvers over a SampleObjective.

The six names of the ``ALGORITHMS`` table run on four runners, which
share the RunRecord trace format:

* ``run_svrg``    variance-reduced stochastic gradient on the factor U,
                  with a fresh full-gradient anchor every outer iteration
* ``run_fgd``     full factored gradient descent (one iteration per epoch)
* ``run_sfgd``    stochastic factored gradient descent with a diminishing
                  step (n sampled steps per epoch)
* ``run_projgd``  projected gradient descent in X-space (baseline)

Each SVRG name runs the step rule its row fixes: svrg-fixed the fixed
step, svrg-sbb0 the Barzilai-Borwein secant step (eps = 0) and svrg-sbb
the stabilized secant step at any eps >= 0.  SVRG and SFGD share one
inner loop, the objective's ``factor_steps``: SFGD is the SVRG loop
without an anchor and with a decaying step.  The runners draw the
samples and steps and hand the loop to it whole, where each family runs
a kernel tested against the per-step reference.  An SVRG snapshot and
an FGD iterate are each one ``obj.snapshot(U)`` (see
``objective.Snapshot``).  Epoch accounting follows sample-gradient
counts: FGD, SFGD, and ProjGD spend n sample gradients per epoch, SVRG
spends n + m per outer iteration.  Metric evaluations are not counted.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import gram, procrustes_dist, proj_psd, symmetrize
from .stepsize import FIXED, SBB

DIVERGE_LIMIT = 1e150


class DivergedError(RuntimeError):
    """Iterate left the representable range; ``record`` is the partial run."""

    def __init__(self, message, record):
        super().__init__(message)
        self.record = record


@dataclass
class SolverConfig:
    """One run's settings: only the step fields and step rule its ``ALGORITHMS`` row allows."""

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
        _, needs, reads, rule = _row(self.algorithm)
        for name in ("m", "schedule", "eta", "eta0", "t0"):
            if getattr(self, name) is None and name in needs:
                raise ValueError(f"{self.algorithm} needs {name}")
            if getattr(self, name) is not None and name not in needs + reads:
                raise ValueError(f"{self.algorithm} does not read {name}")
        # a schedule without the rule's fields (a test double, say) is not checked
        if any(getattr(self.schedule, k, v) != v for k, v in (rule or {}).items()):
            raise ValueError(f"{self.algorithm} does not run {self.schedule!r}")
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
    """Rows and last iterate: ``final_U`` of a factored run, ``final_X`` of ProjGD.

    A diverged run records the epoch whose iterate left the range and, as
    ``diverged_eta``, the step of the epoch that took it there: the step
    that epoch's row records, whether or not ``eval_every`` wrote the row.
    An SVRG step that is not finite and positive stops the run at its own
    epoch, before that epoch runs, and is the step the record names.
    """

    algorithm: str
    seed: int
    rows: list = field(default_factory=list)
    diverged: bool = False
    diverged_epoch: int | None = None
    diverged_eta: float | None = None
    final_U: np.ndarray | None = None
    final_X: np.ndarray | None = None


def epochs_to(rows, threshold, field="error_X"):
    """First recorded epoch whose ``field`` is at or below threshold, else inf."""
    for row in rows:
        value = getattr(row, field)
        if value is not None and value <= threshold:
            return row.epoch
    return math.inf


def _row(algorithm):
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; choose from {', '.join(ALGORITHMS)}")
    return ALGORITHMS[algorithm]


def epoch_cost(algorithm, n, m=None):
    """Sample gradients spent per epoch of the named algorithm: n, plus m if it reads m."""
    if "m" not in _row(algorithm)[1]:
        return n
    if m is None or m < 1:
        raise ValueError(f"{algorithm} epoch cost needs the inner-loop length m")
    return n + m


def _check_factor(obj, config, U0):
    U = np.array(U0, dtype=float)
    if U.ndim != 2 or U.shape != (obj.p, config.r):
        raise ValueError(f"initial factor must have shape ({obj.p}, {config.r}), "
                         f"got {U.shape}")
    return U


class _Recorder:
    """The rows, divergence marker and final state of one run.

    ``runner``, the recording runner's name, must be the config's.  ``U`` is the factor,
    or None for the X-space solver, which has no factor error; ``X``
    defaults to ``gram(U)``.  A row computes its metrics before any
    objective value it still has to evaluate.  ``eta`` is the step of the
    last epoch begun, recorded or not.
    """

    def __init__(self, runner, obj, config, X_ref, U_ref, metric):
        if ALGORITHMS[config.algorithm][0].__name__ != runner:
            raise ValueError(f"{runner} does not run {config.algorithm}")
        self.obj, self.cost = obj, epoch_cost(config.algorithm, obj.n, config.m)
        self.epochs, self.eval_every = config.epochs, config.eval_every
        self.X_ref, self.U_ref, self.metric = X_ref, U_ref, metric
        self.X_scale = None if X_ref is None else max(1.0, np.linalg.norm(X_ref))
        self.record = RunRecord(config.algorithm, config.seed)

    def row(self, k, eta, U, X=None, f=None):
        """Record epoch k if due (every eval_every epochs, and the last).

        ``f`` defaults to ``eval_full(X)``.
        """
        self.eta = eta
        if k % self.eval_every and k != self.epochs:
            return
        if X is None:
            X = gram(U)
        error_X = None if self.X_ref is None else float(
            np.linalg.norm(X - self.X_ref) / self.X_scale)
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
        self._diverge(epoch, U, X)

    def check_step(self, epoch, eta, U):
        """Raise DivergedError at ``epoch``, before it runs, unless ``eta`` is finite and > 0.

        The epoch's one row is then the NaN marker, and ``eta`` the step
        the record names.
        """
        if not 0 < eta < math.inf:  # written so that NaN fails
            self.eta = eta
            self._diverge(epoch, U, None)

    def _diverge(self, epoch, U, X):
        """Append the NaN marker row at ``epoch`` and raise DivergedError."""
        nan = float("nan")
        has = (self.X_ref is not None, U is not None and self.U_ref is not None,
               self.metric is not None)
        self.record.rows.append(
            Row(epoch, 0.0, nan, *(nan if h else None for h in has), epoch * self.cost))
        self.record.diverged, self.record.diverged_epoch = True, epoch
        self.record.diverged_eta = self.eta
        self.record.final_U, self.record.final_X = U, X
        raise DivergedError(f"iterate diverged at epoch {epoch}, step {self.eta!r}",
                            self.record)

    def finish(self, U, X=None):
        """Append the final row (step 0.0) and return the record."""
        self.row(self.epochs, 0.0, U, X)
        self.record.final_U, self.record.final_X = U, X
        return self.record


def run_svrg(obj, config, U0, X_ref=None, U_ref=None, metric=None):
    """Variance-reduced solver on the factor, Option-I outer update.

    Every outer iteration takes one ``obj.snapshot`` of the stored factor,
    consults the step schedule once with it, less its anchor ``terms``, and
    hands it to the objective's ``factor_steps`` as the anchor; no anchor
    table outlives its epoch.  The schedule's state lives in this call,
    not the schedule.  A step that is not finite and positive ends the run
    at its epoch, before the inner loop runs, as a DivergedError naming
    that step.
    """
    Utilde = _check_factor(obj, config, U0)
    rng = np.random.default_rng(config.seed)
    rec = _Recorder("run_svrg", obj, config, X_ref, U_ref, metric)
    state = None
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(config.epochs):
            snap = obj.snapshot(Utilde)
            eta, state = config.schedule.next_step(state, snap._replace(terms=None))
            rec.check_step(k, eta, Utilde)
            rec.row(k, eta, Utilde, snap.X, snap.f)
            idx = rng.integers(0, obj.n, size=config.m)
            Utilde = obj.factor_steps(Utilde, idx, [eta] * config.m, anchor=snap)
            del snap  # its anchor terms go before the next snapshot's are made
            rec.check(k + 1, Utilde)
        return rec.finish(Utilde)


def run_fgd(obj, config, U0, X_ref=None, U_ref=None, metric=None):
    """Full factored gradient descent; one iteration is one epoch.

    Each iterate's X, f and direction ``grad f(X) @ U`` come from one
    ``obj.snapshot``, as an SVRG anchor's do.
    """
    U = _check_factor(obj, config, U0)
    rec = _Recorder("run_fgd", obj, config, X_ref, U_ref, metric)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(config.epochs):
            snap = obj.snapshot(U)
            rec.row(k, config.eta, U, snap.X, snap.f)
            U = U - config.eta * snap.g
            del snap  # as in run_svrg: one snapshot's table alive at a time
            rec.check(k + 1, U)
        return rec.finish(U)


def run_sfgd(obj, config, U0, X_ref=None, U_ref=None, metric=None):
    """Stochastic factored gradient descent with a diminishing step.

    The step at global inner step t is ``eta0 / (1 + t / t0)`` with t
    counted across epochs; t0 defaults to the sample size, and
    ``t0 = math.inf`` degenerates to a fixed step.  One epoch is n
    sampled steps, whose steps are computed at once in numpy with the
    same float operations.  The row for epoch k records the step used at
    the first inner step of that epoch.
    """
    t0 = float(config.t0) if config.t0 is not None else float(obj.n)
    U = _check_factor(obj, config, U0)
    rng = np.random.default_rng(config.seed)
    rec = _Recorder("run_sfgd", obj, config, X_ref, U_ref, metric)
    n = obj.n
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(config.epochs):
            etas = (config.eta0 / (1.0 + np.arange(k * n, (k + 1) * n) / t0)).tolist()
            rec.row(k, etas[0], U)
            idx = rng.integers(0, n, size=n)
            U = obj.factor_steps(U, idx, etas)
            rec.check(k + 1, U)
        return rec.finish(U)


def run_projgd(obj, config, X0, X_ref=None, metric=None):
    """Projected gradient descent in X-space; one iteration is one epoch.

    Divergence is judged on the unprojected step, which a diverged
    record keeps as ``final_X``.
    """
    X = symmetrize(np.array(X0, dtype=float))
    if X.shape != (obj.p, obj.p):
        raise ValueError(f"initial matrix must have shape ({obj.p}, {obj.p})")
    rec = _Recorder("run_projgd", obj, config, X_ref, None, metric)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(config.epochs):
            f, G = obj.value_and_grad_full(X)
            rec.row(k, config.eta, None, X, f)
            raw = X - config.eta * G
            rec.check(k + 1, None, raw)
            X = proj_psd(raw)
        return rec.finish(None, X)


# name: (runner, the step fields it needs, the optional ones it reads, and its
# step rule: the schedule fields the name fixes; svrg-sbb leaves eps free)
ALGORITHMS = {
    "fgd": (run_fgd, ("eta",), (), None),
    "sfgd": (run_sfgd, ("eta0",), ("t0",), None),
    "projgd": (run_projgd, ("eta",), (), None),
    "svrg-fixed": (run_svrg, ("m", "schedule"), (), {"kind": FIXED}),
    "svrg-sbb0": (run_svrg, ("m", "schedule"), (), {"kind": SBB, "eps": 0.0}),
    "svrg-sbb": (run_svrg, ("m", "schedule"), (), {"kind": SBB}),
}


def run(obj, config, U0, X_ref=None, U_ref=None, metric=None, runner=None):
    """Run ``config`` from the factor U0 on its ``ALGORITHMS`` runner; the record.

    ProjGD starts from ``gram(U0)`` and takes no ``U_ref``.  ``runner``,
    given, is called in place of the row's runner, which it wraps (a
    tracer's timing wrapper, say).
    """
    row_runner = ALGORITHMS[config.algorithm][0]
    runner = runner or row_runner
    if row_runner is run_projgd:
        return runner(obj, config, gram(U0), X_ref=X_ref, metric=metric)
    return runner(obj, config, U0, X_ref=X_ref, U_ref=U_ref, metric=metric)

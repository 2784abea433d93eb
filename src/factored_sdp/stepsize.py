"""Step-size schedules for the variance-reduced solver.

Three flavors: a fixed step, the Barzilai-Borwein step computed from
successive outer iterates, and the stabilized variant that adds
``eps * ||dX||_F^2`` to the BB denominator so vanishing curvature cannot
blow the step up.  Plain BB is the ``eps = 0`` special case.
"""

import math

import numpy as np

FIXED = "fixed"
SBB = "sbb"


class StallError(RuntimeError):
    """BB denominator is exactly zero and no stabilizer term is set."""


class StepSchedule:
    """Step-size rule of the variance-reduced solver; it holds no run state.

    Build instances through :func:`fixed` or :func:`sbb`.  The run keeps
    the adaptive rule's previous iterate in the ``state`` that
    :meth:`next_step` takes and returns, so one schedule serves any
    number of runs.
    """

    def __init__(self, kind, *, eta=None, eps=None, m=None, eta0=None):
        if kind not in (FIXED, SBB):
            raise ValueError(f"unknown schedule kind: {kind!r}")
        self.kind = kind
        if kind == FIXED:
            if eta is None or not 0 < eta < math.inf:
                raise ValueError("fixed schedule requires a finite eta > 0")
            self.eta = float(eta)
        else:
            if eps is None or not 0 <= eps < math.inf:
                raise ValueError("adaptive schedule requires a finite eps >= 0")
            if m is None or int(m) < 1:
                raise ValueError("adaptive schedule requires a positive inner-loop length m")
            self.eps = float(eps)
            self.m = int(m)
            self.eta0 = 1e-3 if eta0 is None else float(eta0)
            if not 0 < self.eta0 < math.inf:
                raise ValueError("eta0 must be finite and positive")

    def __repr__(self):
        fields = ("eta",) if self.kind == FIXED else ("eps", "m", "eta0")
        return f"{self.kind}({', '.join(f'{k}={getattr(self, k)!r}' for k in fields)})"

    def next_step(self, state, snap):
        """Return ``(eta, state)``: the step at an outer snapshot, and the next state.

        Parameters
        ----------
        state : tuple or None
            The previous call's state, None at a run's first call.  The
            adaptive rule's is ``(snap, eta)`` of the last snapshot that
            moved, as it was handed in.
        snap : objective.Snapshot
            The objective at the current outer iterate: its symmetric
            (p, p) ``X`` and what its ``secant`` reads.  ``run_svrg``
            hands it in without the anchor ``terms``.

        Returns
        -------
        (float, tuple or None)
            The step and the state for the next call.  The fixed rule
            returns ``eta``; the adaptive rule ``eta0`` at state None, else

                ||dX||_F^2 / (m * (|<dX, dG>| + eps * ||dX||_F^2))

            with dX and dG the differences to the state's iterate and
            gradient.  ``<dX, dG>`` is ``snap.secant``: the X-space product
            where the objective forms the p-by-p gradient, else the mean
            of ``dz * dW`` over the measurements and their slopes.

        Raises
        ------
        StallError
            If the denominator is exactly zero, which requires eps = 0
            and an unchanged gradient across distinct iterates.
        """
        if self.kind == FIXED:
            return self.eta, state
        if state is None:
            return self.eta0, (snap, self.eta0)
        prev, prev_eta = state
        dX = snap.X - prev.X
        dx2 = float(np.vdot(dX, dX))
        if dx2 == 0.0:
            # outer iterate exactly repeated: keep the previous step and
            # leave the state's snapshot alone rather than freezing at 0
            return prev_eta, state
        denom = abs(snap.secant(prev, dX)) + self.eps * dx2
        if denom == 0.0:
            raise StallError(
                "BB denominator is zero: gradient unchanged across distinct "
                "outer iterates and eps = 0"
            )
        eta = dx2 / (self.m * denom)
        return eta, (snap, eta)


def fixed(eta):
    """Schedule that returns ``eta`` unconditionally."""
    return StepSchedule(FIXED, eta=eta)


def sbb(eps, m, eta0=None):
    """Stabilized BB schedule; ``eps = 0`` is plain BB, ``eta0`` defaults to 1e-3."""
    return StepSchedule(SBB, eps=eps, m=m, eta0=eta0)


def sbb_upper_bound(eps, m):
    """Largest step the stabilized schedule can emit: ``1 / (m * eps)``.

    With ``eps = 0`` the step is unbounded and ``math.inf`` is returned.
    """
    if not eps >= 0:
        raise ValueError("eps must be nonnegative")
    if int(m) < 1:
        raise ValueError("m must be a positive integer")
    if eps == 0:
        return math.inf
    return 1.0 / (m * eps)

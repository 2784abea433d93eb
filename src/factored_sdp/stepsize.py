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
    """Mutable step-size state machine owned by a single solver run.

    Build instances through :func:`fixed` or :func:`sbb`.
    The adaptive schedules keep the previous outer iterate and its full
    gradient; the first call returns ``eta0`` and only primes that state.
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
            self._prev_X = self._prev_g = self._prev_eta = None

    def next_step(self, k, X, g):
        """Return the step size for outer iteration ``k``.

        Parameters
        ----------
        k : int
            Outer iteration index (informational; the decision is driven
            by whether previous-iterate state exists).
        X : ndarray
            Current outer iterate, symmetric (p, p).
        g : ndarray
            Full gradient of the objective at ``X``.

        Returns
        -------
        float
            The step size.  For the adaptive schedules this is

                ||dX||_F^2 / (m * (|<dX, dg>| + eps * ||dX||_F^2))

            with dX and dg the differences to the stored previous outer
            iterate and gradient.

        Raises
        ------
        StallError
            If the denominator is exactly zero, which requires eps = 0
            and an unchanged gradient across distinct iterates.
        """
        if self.kind == FIXED:
            return self.eta
        if self._prev_X is None:
            self._prev_X = X.copy()
            self._prev_g = g.copy()
            self._prev_eta = self.eta0
            return self.eta0
        dX = X - self._prev_X
        dx2 = float(np.vdot(dX, dX))
        if dx2 == 0.0:
            # outer iterate exactly repeated: keep the previous step and
            # leave the anchor pair alone rather than freezing at 0
            return self._prev_eta
        dg = g - self._prev_g
        denom = abs(float(np.vdot(dX, dg))) + self.eps * dx2
        if denom == 0.0:
            raise StallError(
                "BB denominator is zero: gradient unchanged across distinct "
                "outer iterates and eps = 0"
            )
        eta = dx2 / (self.m * denom)
        self._prev_X = X.copy()
        self._prev_g = g.copy()
        self._prev_eta = eta
        return eta


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

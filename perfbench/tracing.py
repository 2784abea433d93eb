"""Span tracing around calls into the factored_sdp modules, from outside.

A ``Tracer`` wraps module functions, the objective's oracle methods, the
step schedule and the metric callback, so the package itself runs
unchanged.  Each span has a name, a start, an end and a parent (the span
open on the same thread when it started).  The inner loops make hundreds
of thousands of oracle calls, so instead of one record per span the
tracer keeps, per name, the call count, the inclusive busy seconds and
the seconds covered by direct children, plus busy seconds per
(parent, child) edge.  Self time is busy minus direct-children time.
"""

import threading
import time

import numpy as np


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            # stack of open frames [name, child_seconds]; per-thread tables
            state = ([], {}, {}, [0])
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def wrap(self, name, fn):
        """``fn`` timed as a span; ``name`` may be a function of the call's args."""
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack, totals, edges, violations = self._state()
            label = name(*args, **kwargs) if callable(name) else name
            frame = [label, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if frame[1] > dur:
                    violations[0] += 1
                parent = stack[-1][0] if stack else None
                if stack:
                    stack[-1][1] += dur
                tot = totals.get(label)
                if tot is None:
                    tot = totals[label] = [0, 0.0, 0.0]
                tot[0] += 1
                tot[1] += dur
                tot[2] += frame[1]
                edges[(parent, label)] = edges.get((parent, label), 0.0) + dur

        traced.__wrapped__ = fn
        return traced

    def totals(self):
        """Merged ``{name: (calls, busy_s, child_s)}`` over all threads."""
        out = {}
        with self._lock:
            for _, totals, _, _ in self._threads:
                for label, (calls, busy, child) in totals.items():
                    c0, b0, ch0 = out.get(label, (0, 0.0, 0.0))
                    out[label] = (c0 + calls, b0 + busy, ch0 + child)
        return out

    def edges(self):
        """Merged ``{(parent, child): busy_s}`` over all threads."""
        out = {}
        with self._lock:
            for _, _, edges, _ in self._threads:
                for key, busy in edges.items():
                    out[key] = out.get(key, 0.0) + busy
        return out

    def violations(self):
        """Spans whose direct children covered more time than the span itself."""
        with self._lock:
            return sum(v[0] for _, _, _, v in self._threads)


class TracedObjective:
    """Delegates to an objective, timing the oracles the solvers call."""

    def __init__(self, obj, tracer):
        self._obj = obj
        self.value_and_grad_full = tracer.wrap(
            "objective.full_pass", obj.value_and_grad_full)
        self.eval_full = tracer.wrap("objective.eval_full", obj.eval_full)
        gstf = obj.grad_sample_times_factor
        self.grad_sample_times_factor = (
            None if gstf is None else tracer.wrap("objective.sample_grad", gstf))

    def __getattr__(self, attr):
        return getattr(self._obj, attr)


def operand_mb(obj):
    """Megabytes held by the objective's own arrays (computed, not measured)."""
    total = sum(
        v.nbytes for v in vars(obj).values()
        if isinstance(v, np.ndarray) and v.base is None
    )
    return total / 1e6

"""Layer spans for the traced benchmark run.

A ``Tracer`` aggregates spans as they close: per span name it keeps the call
count, the inclusive time (outermost span of that name only, so recursion is
not counted twice) and the self time, which is the span's duration minus the
durations of the spans it directly contains.  Spans are opened and closed in
strict nesting order because the benchmark runs a single thread.

``install`` wraps driftflow's public callables for the duration of a ``with``
block.  A function is replaced at every driftflow module that holds it by
name (``flow`` imports ``drift_laplacian`` from ``spectral``, so both module
attributes are wrapped); a class has its ``__init__`` wrapped in place, which
catches every construction wherever the class is looked up.  The acceptance
criteria are wrapped inside ``acceptance.CRITERIA``, which ``run_all`` reads
on every call.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from collections import defaultdict

# (module, attribute) of every traced callable; the span name is
# "<module>.<attribute>".
TRACED = (
    ("geometry", "discretize"),
    ("geometry", "DiscreteWeightedManifold"),
    ("axes", "CircleAxis"),
    ("axes", "HermiteLineAxis"),
    ("axes", "lowpass"),
    ("axes", "mode_amplitudes"),
    ("flow", "run_flow"),
    ("flow", "gram_schmidt_frame"),
    ("flow", "functional_residuals"),
    ("spectral", "drift_laplacian"),
    ("spectral", "partials"),
    ("spectral", "hessian_norm_sq"),
    ("spectral", "drift_divergence"),
    ("spectral", "assemble_forms"),
    ("spectral", "lowest_eigenpairs"),
    ("comparison", "eigenvalue_bound"),
    ("oracles", "integrate_equality_ode"),
    ("oracles", "dense_spectrum"),
    ("splitting", "detect_splitting"),
    ("runner", "execute"),
)


class Tracer:
    """Aggregates nested spans into per-name calls, inclusive and self time."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = defaultdict(float)
        self._open = []  # [name, start, time of direct children]
        self._depth = defaultdict(int)

    def enter(self, name: str) -> None:
        self._depth[name] += 1
        self._open.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, children = self._open.pop()
        duration = self.clock() - start
        self._depth[name] -= 1
        self.calls[name] += 1
        self.self_time[name] += duration - children
        if self._depth[name] == 0:
            self.inclusive[name] += duration
        if self._open:
            self._open[-1][2] += duration

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] += amount

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return traced

    def totals(self) -> dict:
        """Flat ``{"<span>.calls"|".s"|".self_s": value, "<counter>": value}``."""
        out = dict(self.counters)
        for name, calls in self.calls.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = self.inclusive[name]
            out[f"{name}.self_s"] = self.self_time[name]
        return out


def _traced_execute(tracer: Tracer, execute):
    """Span for ``runner.execute`` that also counts the artifact bytes."""
    traced = tracer.wrap("runner.execute", execute)

    @functools.wraps(execute)
    def run(*args, **kwargs):
        result = traced(*args, **kwargs)
        tracer.add(
            "runner.bytes_written",
            sum(os.path.getsize(os.path.join(result.out_dir, f)) for f in result.files),
        )
        return result

    return run


@contextlib.contextmanager
def install(tracer: Tracer):
    """Wrap the traced driftflow callables; undo every patch on exit.

    Every driftflow submodule that should be wrapped must already be imported.
    """
    import driftflow.acceptance as acceptance

    modules = [m for n, m in list(sys.modules.items()) if n == "driftflow" or n.startswith("driftflow.")]
    undo = []

    def patch(owner, attr, value):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    criteria = list(acceptance.CRITERIA)
    try:
        for mod_name, attr in TRACED:
            original = getattr(sys.modules[f"driftflow.{mod_name}"], attr)
            name = f"{mod_name}.{attr}"
            if isinstance(original, type):
                patch(original, "__init__", tracer.wrap(name, original.__init__))
                continue
            wrapped = _traced_execute(tracer, original) if name == "runner.execute" else tracer.wrap(name, original)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    patch(mod, attr, wrapped)
        acceptance.CRITERIA[:] = [tracer.wrap(f"acceptance.C{i:02d}", fn) for i, fn in enumerate(criteria, 1)]
        yield tracer
    finally:
        acceptance.CRITERIA[:] = criteria
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

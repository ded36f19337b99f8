"""Spans for the traced benchmark run, recorded from outside the program.

The traced run replaces the layers' public functions at the module
attributes through which the program calls them with wrappers that open a
span around each call; nothing inside ``src/`` changes.  A span records a
name, a start, an end and its parent span.  Spans stay in memory and are
written out when the run ends.  A span's self time is its duration minus
the durations of its child spans (calls nest, one thread).
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager

from vplandau import diagnostics, dynamics, initial, landau, poisson, weights
from vplandau import state as state_mod

# (owner, attribute, span name).  The owner is the module or class whose
# attribute the program looks up at the call: ``grid.v_derivative_trailing``
# is imported by name into dynamics and weights and aliased in landau, so it
# is wrapped in all three.
WRAPPED = (
    (landau, "build_kernel_tables", "landau.tables"),
    (landau.LandauKernelTables, "measure_epsilon_op", "landau.epsilon_op"),
    (landau, "convolve_tables", "landau.convolve"),
    (landau, "q_from_convolutions", "landau.assemble"),
    (landau.ConservativeCorrector, "apply", "landau.correct"),
    (landau, "apply_linearized_collision", "landau.linearized"),
    (dynamics, "advance", "dynamics.advance"),
    (dynamics, "transport_step", "dynamics.transport"),
    (dynamics, "field_step", "dynamics.field"),
    (dynamics, "_linearized_field_step", "dynamics.field"),
    (dynamics, "collision_step", "dynamics.collision"),
    (dynamics, "collision_spectral_radius", "dynamics.spectral_radius"),
    (dynamics, "v_derivative_trailing", "grid.v_derivative"),
    (landau, "_v_derivative", "grid.v_derivative"),
    (weights, "v_derivative_trailing", "grid.v_derivative"),
    (poisson, "solve_potential", "poisson.solve"),
    (diagnostics, "project_P", "state.project_P"),
    (state_mod, "save_checkpoint", "state.checkpoint"),
    (state_mod, "load_checkpoint", "state.resume"),
    (weights, "functional_E_k", "weights.E_k"),
    (weights, "functional_D_k", "weights.D_k"),
    (weights, "mixed_derivatives", "weights.mixed_derivatives"),
    (weights, "anisotropic_gradient", "weights.anisotropic_gradient"),
    (diagnostics.Recorder, "record_state", "diagnostics.record"),
    (diagnostics, "projection_split_norms", "diagnostics.projection"),
    (diagnostics, "moment_balance_residual", "diagnostics.balance"),
    (diagnostics.Recorder, "to_csv", "diagnostics.csv"),
    (initial, "make_initial_condition", "initial.condition"),
)


class Tracer:
    """In-memory span log: ``[name, start, end, parent]`` per span."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextmanager
    def installed(self):
        """Wrap every entry of ``WRAPPED``; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name in WRAPPED:
                fn = owner.__dict__[attr]
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, name))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


def _phase(spans, idx, cache):
    """Which part of the run a span belongs to, from its ancestors."""
    if idx in cache:
        return cache[idx]
    name, _, _, parent = spans[idx]
    if name in ("bench.setup", "bench.sink", "bench.record",
                "bench.checkpoint", "bench.check"):
        phase = name[len("bench."):]
    else:
        phase = "solve" if parent < 0 else _phase(spans, parent, cache)
        if phase == "solve" and name == "dynamics.advance":
            phase = "step"
    cache[idx] = phase
    return phase


def summarize(spans):
    """Per (phase, name): [self seconds, total seconds, calls]."""
    child = defaultdict(float)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    cache = {}
    out = defaultdict(lambda: [0.0, 0.0, 0])
    for idx, (name, start, end, _) in enumerate(spans):
        acc = out[(_phase(spans, idx, cache), name)]
        acc[0] += end - start - child[idx]
        acc[1] += end - start
        acc[2] += 1
    return out

"""Workloads of the vplandau benchmark: inputs, set-up and timed solves.

A workload drives the solver only through its public API, with the calls
``experiments.nonlinear_run`` and ``vplandau linearized`` make:
``landau.build_kernel_tables``, ``initial.make_initial_condition``,
``dynamics.advance`` with a sink around a ``diagnostics.Recorder`` (or the
linearized experiment's records), ``Recorder.to_csv`` and
``state.save_checkpoint``.

One *solve* is a run of the program from the set-up state to a fixed final
time ``steps * dt``: records, checkpoints and the CSV included.  A benchmark
run repeats whole solves until its time is up, so every run attempts whole
rounds of the same operations.
"""

from __future__ import annotations

import csv
import math
import os
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from vplandau import diagnostics, dynamics, initial, landau, weights
from vplandau import state as state_mod
from vplandau.errors import PicardConvergenceError
from vplandau.grid import PhaseGrid, SpatialGrid, VelocityGrid

# Errors a step can raise on a bad state; anything else is a fault of the
# benchmark and propagates.
STEP_ERRORS = (FloatingPointError, PicardConvergenceError)


@dataclass(frozen=True)
class Workload:
    name: str
    n_x: int
    n_v: int
    scheme: str
    dt: float
    steps: int              # steps per solve
    record_every: int
    checkpoint_every: int   # 0: the solve writes no checkpoint
    workers: int            # FFT workers handed to the stepper
    linearized: bool = False
    profile: str = "maxwellian"
    modes: tuple = (1,)
    setup_reps: int = 2     # set-ups per round (see run.py)
    cutoff: float = 8.0
    gamma: float = -3.0
    k: float = 10.0
    amplitude: float = 1e-3


# Why each workload is in the benchmark: BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="nonlinear-default",
            n_x=16, n_v=16, scheme="strang_rk4", dt=0.005, steps=4,
            record_every=1, checkpoint_every=2, workers=1, setup_reps=3),
        Workload(
            name="picard-large",
            n_x=8, n_v=32, scheme="picard_implicit", dt=0.05, steps=4,
            record_every=4, checkpoint_every=4, workers=2, setup_reps=1),
        Workload(
            name="linearized-decay",
            n_x=4, n_v=16, scheme="strang_rk4", dt=0.05, steps=20,
            record_every=2, checkpoint_every=0, workers=1, linearized=True,
            profile="weighted_maxwellian", modes=(0,)),
    )
}

# Tiny grids that take every workload's code path and every check in
# seconds.  Picard's box is narrowed and its dt raised so that dt * rho still
# selects the RKC path.
SMOKE = {
    "nonlinear-default": dict(n_x=4, n_v=8, steps=3, setup_reps=1),
    "picard-large": dict(n_x=4, n_v=16, cutoff=6.0, dt=0.15, steps=2,
                         record_every=2, checkpoint_every=2, setup_reps=1),
    "linearized-decay": dict(n_x=4, n_v=8, steps=4, setup_reps=1),
}


def get_workload(name, smoke=False):
    w = WORKLOADS[name]
    return replace(w, **SMOKE[name]) if smoke else w


def make_inputs(w, seed):
    """The workload's inputs from ``seed``: same seed, same inputs.

    The amplitude varies by up to 10% around the workload's nominal value,
    a range in which the positivity halvings and the Picard iteration count
    do not change; the initial-condition seed is drawn as well.
    """
    rng = np.random.default_rng(seed)
    return {"amplitude": w.amplitude * (1.0 + 0.1 * float(rng.random())),
            "ic_seed": int(rng.integers(2**31))}


@dataclass
class Setup:
    grid: PhaseGrid
    spec: weights.WeightSpec
    tables: landau.LandauKernelTables
    state: state_mod.SystemState
    halvings: int


def set_up(w, inputs):
    """Tables (with calibration and epsilon_op), initial state, lazy caches.

    The Maxwellian convolutions and derivatives and, where the collision
    step asks for it, the spectral-radius estimate are cached on the tables
    by their first use; they are filled here so that every solve repeats the
    same work.
    """
    grid = PhaseGrid(SpatialGrid(1, w.n_x), VelocityGrid(w.n_v, w.cutoff))
    tables = landau.build_kernel_tables(w.gamma, grid.velocity)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        state = initial.make_initial_condition(
            grid, family="single_mode", amplitude=inputs["amplitude"],
            modes=w.modes, profile=w.profile, tail_power=4.0,
            species="opposite", seed=inputs["ic_seed"])
    halvings = sum("halving" in str(c.message) for c in caught)
    if w.linearized:
        # the linearized experiment starts from data with Pi f = 0
        pi_p, pi_m = state_mod.project_Pi(state)
        state = state.with_fields(state.f_plus - pi_p, state.f_minus - pi_m)
    landau.mu_convolutions(tables)
    landau.mu_derivatives(tables)
    if w.linearized or w.scheme == "picard_implicit":
        dynamics.collision_spectral_radius(tables)
    spec = weights.WeightSpec("landau", w.gamma, w.k)
    return Setup(grid, spec, tables, state, halvings)


@dataclass
class SolveResult:
    run_s: float = 0.0
    step_s: list = field(default_factory=list)
    record_s: list = field(default_factory=list)
    infos: list = field(default_factory=list)
    rows: list = field(default_factory=list)   # recorded rows, initial first
    steps_failed: int = 0
    records_failed: int = 0
    error: str = ""
    final: state_mod.SystemState | None = None


def checkpoint_path(out_dir, step):
    return os.path.join(out_dir, f"checkpoint_{step:06d}.npz")


def _finite(row):
    return all(math.isfinite(float(v)) for v in row)


def solve(w, setup, out_dir, span):
    """One timed solve; ``span(name)`` is a context manager that opens a
    trace span when the solve is traced and does nothing otherwise."""
    clock = time.perf_counter
    cfg = dynamics.TimeStepConfig(dt=w.dt, scheme=w.scheme,
                                  linearized=w.linearized, workers=w.workers)
    t_final = w.steps * w.dt
    res = SolveResult()
    t_start = clock()
    if w.linearized:
        def snap(s):
            n_p, n_i = diagnostics.projection_split_norms(s)
            row = (s.time, n_i, n_p, weights.functional_E_k(s, setup.spec))
            res.rows.append(row)
            return row

        snap(setup.state)
    else:
        recorder = diagnostics.Recorder(
            setup.spec, setup.state.clone(), cadence=w.record_every,
            epsilon_op=setup.tables.epsilon_op)
        res.rows.append(recorder.records[0].row())

    last = clock()

    def sink(s, info):
        nonlocal last
        t_in = clock()
        res.step_s.append(t_in - last)
        res.infos.append(info)
        with span("bench.sink"):
            if info.step % w.record_every == 0:
                with span("bench.record"):
                    if w.linearized:
                        row = snap(s)
                    else:
                        recorder(s, info)
                        row = recorder.records[-1].row()
                        res.rows.append(row)
                res.record_s.append(clock() - t_in)
                if not _finite(row):
                    res.records_failed += 1
            if w.checkpoint_every and info.step % w.checkpoint_every == 0:
                with span("bench.checkpoint"):
                    state_mod.save_checkpoint(
                        checkpoint_path(out_dir, info.step), s)
        last = clock()

    try:
        res.final = dynamics.advance(setup.state, t_final, cfg, setup.tables,
                                     sink=sink)
    except STEP_ERRORS as exc:
        res.error = f"{type(exc).__name__}: {exc}"
        res.steps_failed = w.steps - len(res.infos)
    csv_path = os.path.join(out_dir, "series.csv")
    if w.linearized:
        with span("diagnostics.csv"):
            _write_linearized_csv(csv_path, res.rows)
    else:
        recorder.to_csv(csv_path)
    res.run_s = clock() - t_start
    return res


def _write_linearized_csv(path, rows):
    """The series file ``vplandau linearized`` writes."""
    with open(path, "w", newline="") as fh:
        fh.write("time,micro_norm,macro_norm,e_k\n")
        for t, mi, ma, ek in rows:
            fh.write(f"{t!r},{mi!r},{ma!r},{ek!r}\n")


def records_per_solve(w):
    return w.steps // w.record_every


def read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]

"""Experiment drivers binding the library together.

Three modes share the RunConfig surface:

* ``operator_test``: the checks of :mod:`vplandau.verify`, composed:
  collision FFT-vs-oracle agreement, the weight
  inequality suite (including the corrupted-r counterexample), the
  projection algebra suite and the collision invariant moments.  No time
  evolution; the instantaneous entropy production of a random positive
  state is reported as the H-theorem monitor.  It reads a config written
  for ``nonlinear`` too, and lists the evolution-only keys set away from
  their defaults as ``ignored_keys``.
* ``nonlinear``: full system evolution with per-step diagnostics, decay
  fits and conservation drifts.
* ``linearized``: the linearized large-time decay experiment.

Each mode returns ``(body, passed)``.  :func:`run_experiment` is the one
pipeline around them: it makes the output directory, picks the mode from
``MODES``, adds ``schema_version``, ``mode``, ``config`` and ``passed`` to
the body and writes the JSON summary.  The evolution modes share their
set-up (:func:`_set_up`) and write a CSV time series; ``nonlinear`` also
writes the optional checkpoints.  Exit status doubles as the pass/fail
signal of each mode's built-in assertions.
"""

from __future__ import annotations

import os
from dataclasses import asdict

import numpy as np

from . import diagnostics, dynamics, initial, landau, verify
from .config import defaults
from .errors import FitError
from .grid import PhaseGrid, SpatialGrid, VelocityGrid
from .state import check_conservation, maxwellian, save_checkpoint

SCHEMA_VERSION = 1

# thresholds of the nonlinear and linearized modes; the operator checks'
# thresholds live in vplandau.verify
CONSERVATION_TOL = 1e-8
LINEARIZED_DRIFT_TOL = 1e-9

# the keys that operator_test and run_experiment read; the evolution modes
# alone read the others
OPERATOR_KEYS = (
    "model.model", "model.gamma", "model.s", "model.k", "grid.n_v",
    "grid.cutoff", "initial.seed", "output.directory", "output.summary",
    "flags.mode")


def operator_test(cfg):
    """Operator-level verification; returns (body, passed)."""
    ve = VelocityGrid(cfg.n_v, cfg.cutoff)
    rng = np.random.default_rng(cfg.seed)
    tables = {gam: landau.build_kernel_tables(gam, ve)
              for gam in sorted({cfg.gamma, -3.0, -1.0, 0.0, 1.0})}
    eps_ops = {f"{gam:g}": t.epsilon_op for gam, t in tables.items()}
    pair_errors = {f"{gam:g}": verify.oracle_error(t, rng, 5)
                   for gam, t in tables.items()}
    fft_oracle_max = max(pair_errors.values())
    mass_moment = verify.mass_moment_error(tables[cfg.gamma], rng, 6)

    # weight suite at the configured spec plus the corrupted-r counterexample
    spec = cfg.weight_spec()
    pts = rng.uniform(-cfg.cutoff, cfg.cutoff, size=(1000, 3))
    n_checked, n_failed = verify.weight_suite_failures([spec], pts)
    corrupted_floor_failures = verify.corrupted_floor_failures(spec, pts)

    # projection algebra on a truncation-clean grid
    defects = verify.projection_defects(
        PhaseGrid(SpatialGrid(1, 8), VelocityGrid(32, 10.0)), rng, 5)

    # conservative correction of the collision output at the configured gamma
    corr = landau.ConservativeCorrector(ve)
    sgrid = PhaseGrid(SpatialGrid(1, 4), ve)
    ic = initial.make_initial_condition(sgrid, amplitude=1e-3, seed=cfg.seed)
    rhs_p, rhs_m = landau.apply_collision_field(
        ic, tables[cfg.gamma], conservative=True, corrector=corr)
    corrected_max = verify.corrected_moment_error(corr, rhs_p, rhs_m)

    # instantaneous entropy production of a positive random state
    full_p = maxwellian(sgrid.velocity) + ic.f_plus
    full_m = maxwellian(sgrid.velocity) + ic.f_minus
    ds = 0.0
    for full, rhs in ((full_p, rhs_p), (full_m, rhs_m)):
        ds += float(np.sum(np.log(np.maximum(full, 1e-300)) * rhs)) \
            * sgrid.cell_volume
    body = {
        "fft_oracle_rel_error": pair_errors,
        "fft_oracle_max_rel_error": fft_oracle_max,
        "epsilon_op": eps_ops,
        "weight_suite": {"checked": n_checked, "failed": n_failed},
        "corrupted_r_floor_failures": corrupted_floor_failures,
        "projection_defects": defects,
        "collision_mass_moment_rel": mass_moment,
        "corrected_moment_max": corrected_max,
        "entropy_production": ds,
        "ignored_keys": [dotted for dotted, value in defaults().items()
                         if dotted not in OPERATOR_KEYS
                         and getattr(cfg, dotted.partition(".")[2]) != value],
    }
    passed = (
        fft_oracle_max <= verify.FFT_ORACLE_TOL
        and n_failed == 0
        and corrupted_floor_failures > 0
        and max(defects.values()) <= verify.PROJECTION_TOL
        and mass_moment <= verify.MASS_MOMENT_TOL
        and corrected_max <= verify.CORRECTED_MOMENT_TOL
    )
    return body, passed


def _set_up(cfg):
    """The weight spec, the kernel tables, the configured initial state and
    the summary of its positivity rescue: what the evolution modes share."""
    grid = cfg.phase_grid()
    tables = landau.build_kernel_tables(cfg.gamma, grid.velocity)
    state, halvings = initial.initial_condition_and_halvings(
        grid, family=cfg.family, amplitude=cfg.amplitude, modes=cfg.modes,
        profile=cfg.profile, tail_power=cfg.tail_power, species=cfg.species,
        seed=cfg.seed)
    rescue = {"requested_amplitude": cfg.amplitude,
              "effective_amplitude": cfg.amplitude / 2**halvings,
              "halvings": halvings}
    return cfg.weight_spec(), tables, state, rescue


def nonlinear_run(cfg):
    """Full-system evolution with diagnostics; returns (body, passed)."""
    spec, tables, state, rescue = _set_up(cfg)
    recorder = diagnostics.Recorder(spec, state,
                                    cadence=cfg.record_every,
                                    epsilon_op=tables.epsilon_op)
    tcfg = dynamics.TimeStepConfig(
        dt=cfg.dt, scheme=cfg.scheme, picard_tol=cfg.picard_tol,
        picard_max_iters=cfg.picard_max_iters,
        conservative_correction=cfg.conservative_correction)

    def sink(s, info):
        recorder(s, info)
        if cfg.checkpoint_every and info.step % cfg.checkpoint_every == 0:
            save_checkpoint(os.path.join(
                cfg.directory, f"checkpoint_{info.step:06d}.npz"), s)

    final = dynamics.advance(state, cfg.t_final, tcfg, tables, sink=sink)
    report = check_conservation(final, recorder.reference)
    recorder.to_csv(os.path.join(cfg.directory, cfg.csv))

    times = recorder.times()
    eks = recorder.series("e_k")
    fits = {}
    flags = {"conservation": report.max_relative_drift() <= CONSERVATION_TOL}
    modes = (["exponential"] if cfg.gamma >= 0 else
             ["exponential", "polynomial"])
    for mode in modes:
        try:
            fits[mode] = asdict(diagnostics.fit_decay(
                times, eks, mode, transient_fraction=cfg.transient_fraction))
        except FitError as exc:  # short or non-finite series: advisory here
            fits[mode] = {"error": str(exc)}
    if cfg.gamma >= 0 and "exponential" in fits and "rate" in fits["exponential"]:
        flags["decay"] = (fits["exponential"]["rate"] > 0
                          and fits["exponential"]["r_squared"] >= 0.99)
    min_pos = min(recorder.series("min_fplus").min(),
                  recorder.series("min_fminus").min())
    body = {
        "conservation": {
            "mass_plus": report.rel_mass_plus,
            "mass_minus": report.rel_mass_minus,
            "momentum": report.rel_momentum,
            "energy": report.rel_energy,
            "max_relative_drift": report.max_relative_drift(),
        },
        "fits": fits,
        "epsilon_op": tables.epsilon_op,
        "min_full_distribution": float(min_pos),
        "positivity_maintained": bool(min_pos > 0),
        "records": len(recorder.records),
        "final_time": final.time,
        "flags": flags,
        "positivity_rescue": rescue,
    }
    return body, all(flags.values())


def linearized_run(cfg):
    """Linearized decay experiment; returns (body, passed)."""
    spec, tables, state, rescue = _set_up(cfg)
    result = diagnostics.linearized_decay_experiment(
        state, tables, spec, cfg.dt, cfg.t_final, cadence=cfg.record_every,
        transient_fraction=cfg.transient_fraction,
        conservative_correction=cfg.conservative_correction,
        scheme=cfg.scheme)
    with open(os.path.join(cfg.directory, cfg.csv), "w") as fh:
        fh.write("time,micro_norm,macro_norm,e_k\n")
        for row in zip(result.times, result.micro_norms, result.macro_norms,
                       result.e_k_series):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    # decay is read from the fitted envelope: on locally Maxwellian data the
    # first ||(I-P) f||^2 is round-off, so first against last says nothing
    flags = {
        "conservation": result.conservation_max_drift <= LINEARIZED_DRIFT_TOL,
        "decayed": bool(result.fit_exponential.rate > 0),
    }
    body = {
        "fit_exponential": asdict(result.fit_exponential),
        "fit_polynomial": asdict(result.fit_polynomial),
        "subexponential": result.fit_polynomial.r_squared
        > result.fit_exponential.r_squared,
        "conservation_max_drift": result.conservation_max_drift,
        "flags": flags,
        "positivity_rescue": rescue,
    }
    return body, all(flags.values())


MODES = {"operator_test": operator_test, "nonlinear": nonlinear_run,
         "linearized": linearized_run}


def run_experiment(cfg):
    """Run the configured mode and write its summary; returns (summary,
    passed)."""
    if cfg.mode not in MODES:
        raise ValueError(f"unknown mode {cfg.mode!r}")
    os.makedirs(cfg.directory, exist_ok=True)
    body, passed = MODES[cfg.mode](cfg)
    summary = {"schema_version": SCHEMA_VERSION, "mode": cfg.mode, **body,
               "config": cfg.echo(), "passed": passed}
    diagnostics.summary_to_json(os.path.join(cfg.directory, cfg.summary),
                                summary)
    return summary, passed

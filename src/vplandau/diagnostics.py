"""Per-step measurement and post-run analysis.

The recorder computes, per step: conserved quantities and their drifts,
weighted energy/dissipation functionals, macroscopic/microscopic projection
sizes, positivity of the full distribution, the H^3 field norm, and the
continuity-equation residual between consecutive states.  Post-run analysis
fits exponential or algebraic decay envelopes to the energy series.

CSV layout: one row per record, one column per :class:`DiagnosticsRecord`
field, in field order (``CSV_COLUMNS``).  Floats are written with ``repr``
(shortest round-trip), so outputs are byte-identical for identical runs.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, fields

import numpy as np

from . import weights
from .errors import FitError
from .grid import axis_derivative, l2_norm
from .state import (
    ConservedQuantities,
    check_conservation,
    integrate_v,
    maxwellian,
    project_P,
    project_Pi,
)

FIT_MIN_SAMPLES = 20


@dataclass
class DiagnosticsRecord:
    time: float
    mass_plus: float
    mass_minus: float
    momentum_1: float
    momentum_2: float
    momentum_3: float
    energy_total: float
    e_k: float
    d_k: float
    norm_pf: float
    norm_ipf: float
    min_fplus: float
    min_fminus: float
    grad_phi_h3: float
    balance_plus: float
    balance_minus: float
    picard_iterations: int = 0
    epsilon_op: float = 0.0

    def row(self):
        # floats as their shortest round-trip plain repr
        return [repr(float(v)) if isinstance(v, (float, np.floating))
                else str(v) for v in vars(self).values()]


CSV_COLUMNS = [f.name for f in fields(DiagnosticsRecord)]


def positivity_monitor(state):
    """Minimum of ``mu + f_pm`` over the grid and its flat-index location."""
    mu = maxwellian(state.grid.velocity)
    out = {}
    for label, f in (("plus", state.f_plus), ("minus", state.f_minus)):
        full = mu + f
        idx = int(np.argmin(full))
        out[label] = (float(full.reshape(-1)[idx]),
                      np.unravel_index(idx, full.shape))
    return out


def projection_split_norms(state):
    """(||P f||, ||(I-P) f||) in L^2_{x,v} over the species pair."""
    p_plus, p_minus = project_P(state)
    g = state.grid
    n_p = math.sqrt(l2_norm(g, p_plus) ** 2 + l2_norm(g, p_minus) ** 2)
    n_i = math.sqrt(
        l2_norm(g, state.f_plus - p_plus) ** 2
        + l2_norm(g, state.f_minus - p_minus) ** 2)
    return n_p, n_i


def moment_balance_residual(state_prev, state_next, dt):
    """L^2_x residual of the continuity equation per species.

    ``d_t a_pm + div_x int v f_pm dv = 0`` with the time derivative by
    finite difference and the flux divergence spectral, time-centered so
    the residual is O(dt^2) for smooth evolution.
    """
    g = state_prev.grid
    out = []
    for fp, fn in ((state_prev.f_plus, state_next.f_plus),
                   (state_prev.f_minus, state_next.f_minus)):
        a_prev = integrate_v(g, fp)
        a_next = integrate_v(g, fn)
        dd = (a_next - a_prev) / dt
        div = np.zeros_like(dd)
        half = 0.5 * (fp + fn)
        for axis in range(g.dim_x):
            va = g.velocity.coordinate(axis)
            flux = integrate_v(g, va * half)
            div += axis_derivative(g.spatial, flux, axis)
        out.append(l2_norm(g, dd + div, "x"))
    return tuple(out)


class Recorder:
    """Diagnostics sink for :func:`vplandau.dynamics.advance`.

    Appends a :class:`DiagnosticsRecord` every ``cadence`` steps (plus an
    initial record for the starting state); heavier functionals (E_k, D_k)
    are evaluated only on recorded steps.  With ``compute_d_k`` they come
    from one pass per species that splits the spatial nodes over the
    ``VPLANDAU_THREADS`` threads (:func:`vplandau.weights.energy_dissipation`);
    without, ``E_k`` alone runs on the calling thread.

    The recorder keeps the last state it was handed, not a copy, as the
    left end of the next moment-balance residual.  That is safe because
    :func:`vplandau.dynamics.advance` never changes a state after handing
    it to the sink; a caller that mutates a recorded state in place must
    pass a copy.
    """

    def __init__(self, spec, reference_state, cadence=1, epsilon_op=0.0,
                 compute_d_k=True):
        self.spec = spec
        self.cadence = int(cadence)
        if self.cadence < 1:
            raise ValueError(f"cadence must be at least 1, got {cadence}")
        self.epsilon_op = epsilon_op
        self.compute_d_k = compute_d_k
        self.records = []
        self.reference = reference_state
        self._prev = reference_state
        self.record_state(reference_state, picard_iterations=0)

    def record_state(self, state, picard_iterations=0):
        q = ConservedQuantities.of(state)
        e_k, d_k, h3 = weights.energy_dissipation(
            state, self.spec,
            with_d_k=self.compute_d_k and self.spec.model == "landau")
        n_p, n_i = projection_split_norms(state)
        pos = positivity_monitor(state)
        if state.time == self._prev.time:
            bal = (0.0, 0.0)
        else:
            dt = state.time - self._prev.time
            bal = moment_balance_residual(self._prev, state, dt)
        rec = DiagnosticsRecord(
            time=state.time,
            mass_plus=q.mass_plus,
            mass_minus=q.mass_minus,
            momentum_1=q.momentum[0],
            momentum_2=q.momentum[1],
            momentum_3=q.momentum[2],
            energy_total=q.energy,
            e_k=e_k,
            d_k=d_k,
            norm_pf=n_p,
            norm_ipf=n_i,
            min_fplus=pos["plus"][0],
            min_fminus=pos["minus"][0],
            grad_phi_h3=h3,
            balance_plus=bal[0],
            balance_minus=bal[1],
            picard_iterations=picard_iterations,
            epsilon_op=self.epsilon_op,
        )
        self.records.append(rec)
        self._prev = state
        return rec

    def __call__(self, state, info):
        if info.step % self.cadence == 0:
            self.record_state(state, picard_iterations=info.picard_iterations)

    def times(self):
        return np.array([r.time for r in self.records])

    def series(self, name):
        return np.array([getattr(r, name) for r in self.records])

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for rec in self.records:
                writer.writerow(rec.row())


def read_series_csv(path):
    """Load a series CSV into a dict of numpy arrays, one per header column.

    Reads the recorder's CSV and the one ``vplandau linearized`` writes.
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    return {col: np.array([float(r[col]) for r in rows])
            for col in reader.fieldnames}


# ---- decay fitting -------------------------------------------------------------


@dataclass
class DecayFit:
    mode: str  # 'exponential' or 'polynomial'
    rate: float  # lambda for exponential, slope for polynomial
    window: tuple
    r_squared: float
    n_samples: int


def fit_decay(times, values, mode, window=None, transient_fraction=0.1):
    """Least-squares decay fit on a positive time series.

    Exponential mode regresses ``log E`` on ``t`` and reports
    ``rate = -slope`` (positive for decay); polynomial mode regresses
    ``log E`` on ``log(1 + t)`` and reports the slope itself (negative for
    decay).  The fit window excludes the initial transient (first 10% of the
    span by default) unless an explicit ``window`` is given, and must hold
    at least ``FIT_MIN_SAMPLES`` samples, all finite and positive; otherwise
    :class:`~vplandau.errors.FitError` is raised.
    """
    t = np.asarray(times, dtype=float)
    e = np.asarray(values, dtype=float)
    if window is None:
        t0 = t[0] + transient_fraction * (t[-1] - t[0])
        window = (t0, t[-1])
    mask = (t >= window[0]) & (t <= window[1])
    t, e = t[mask], e[mask]
    if t.size < FIT_MIN_SAMPLES:
        raise FitError(
            f"need >= {FIT_MIN_SAMPLES} samples in window, got {t.size}")
    if not np.all(np.isfinite(e)):
        raise FitError("non-finite values in fit window")
    if np.any(e <= 0):
        raise FitError("non-positive values in fit window")
    y = np.log(e)
    if mode == "exponential":
        x = t
    elif mode == "polynomial":
        x = np.log1p(t)
    else:
        raise ValueError(f"unknown fit mode {mode!r}")
    design = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    slope = float(coef[0])
    rate = -slope if mode == "exponential" else slope
    return DecayFit(mode=mode, rate=rate, window=(float(window[0]),
                                                  float(window[1])),
                    r_squared=r2, n_samples=int(t.size))


# ---- linearized evolution experiment --------------------------------------------


@dataclass
class LinearizedResult:
    # fits of the recorded microscopic energy ||(I-P) f||^2 (the
    # experiment's E); the FitError instead where the series cannot be fitted
    fit_exponential: DecayFit | FitError
    fit_polynomial: DecayFit | FitError
    times: np.ndarray
    micro_norms: np.ndarray  # ||(I-P) f||
    macro_norms: np.ndarray  # ||P f||
    e_k_series: np.ndarray
    conservation_max_drift: float


def linearized_decay_experiment(initial_state, tables, spec, dt, t_final,
                                cadence=1, transient_fraction=0.1,
                                conservative_correction=True,
                                scheme="picard_implicit"):
    """Evolve the linearized system and fit the decay of its energy.

    The dynamics drop every nonlinear term: transport, the field source
    ``-+ grad(phi) . v mu`` and the linearized collision operator remain.
    Initial data is projected so that the global kernel component vanishes
    (``Pi f0 = 0``).  Returns fits of both envelopes (exponential and
    algebraic) of ``||(I-P) f||^2`` over the post-transient window, the
    recorded series, ``E_k`` included, and the largest relative drift of the
    linearized system's invariants (species masses, momentum and kinetic
    energy; see :func:`check_conservation`).  A fit that raises
    :class:`~vplandau.errors.FitError` (too short a series, say) is returned
    in place of its result, so the series are never lost.
    """
    from . import dynamics

    pi_p, pi_m = project_Pi(initial_state)
    state = initial_state.with_fields(initial_state.f_plus - pi_p,
                                      initial_state.f_minus - pi_m)
    cfg = dynamics.TimeStepConfig(
        dt=dt, scheme=scheme, linearized=True,
        conservative_correction=conservative_correction)
    times = [state.time]
    micro = []
    macro = []
    eks = []

    def snap(s):
        n_p, n_i = projection_split_norms(s)
        macro.append(n_p)
        micro.append(n_i)
        eks.append(weights.functional_E_k(s, spec))

    snap(state)

    def sink(s, info):
        if info.step % cadence == 0:
            times.append(s.time)
            snap(s)

    final = dynamics.advance(state, t_final, cfg, tables, sink=sink)
    report = check_conservation(final, state, linearized=True)
    t = np.array(times)
    micro_energy = np.array(micro) ** 2
    fits = []
    for mode in ("exponential", "polynomial"):
        try:
            fits.append(fit_decay(t, micro_energy, mode,
                                  transient_fraction=transient_fraction))
        except FitError as exc:
            fits.append(exc)
    return LinearizedResult(
        fit_exponential=fits[0], fit_polynomial=fits[1], times=t,
        micro_norms=np.array(micro), macro_norms=np.array(macro),
        e_k_series=np.array(eks),
        conservation_max_drift=report.max_relative_drift())


def summary_to_json(path, payload):
    """Write an analysis summary (fits, drifts, flags) as JSON.

    The payload holds plain Python values only (dicts, lists, strings,
    numbers, booleans, ``None``); anything else raises ``TypeError``.
    """
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)

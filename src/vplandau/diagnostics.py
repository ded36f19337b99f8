"""Per-step measurement and post-run analysis.

The recorder computes, per step: conserved quantities and their drifts,
weighted energy/dissipation functionals, macroscopic/microscopic projection
sizes, positivity of the full distribution, the H^3 field norm, and the
continuity-equation residual between consecutive states.  Post-run analysis
fits exponential or algebraic decay envelopes to the energy series.

CSV layout (one row per record, fixed column order):

    time, mass_plus, mass_minus, momentum_1..3, energy_total, e_k, d_k,
    norm_pf, norm_ipf, min_fplus, min_fminus, grad_phi_h3,
    balance_plus, balance_minus, picard_iterations, epsilon_op

Floats are written with ``repr`` (shortest round-trip), so outputs are
byte-identical for identical runs.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import weights
from .errors import FitError
from .grid import l2_norm, spectral_derivative
from .state import (
    ConservedQuantities,
    check_conservation,
    extract_moments,
    integrate_v,
    maxwellian,
    project_P,
    project_Pi,
)

CSV_COLUMNS = [
    "time", "mass_plus", "mass_minus", "momentum_1", "momentum_2",
    "momentum_3", "energy_total", "e_k", "d_k", "norm_pf", "norm_ipf",
    "min_fplus", "min_fminus", "grad_phi_h3", "balance_plus",
    "balance_minus", "picard_iterations", "epsilon_op",
]


@dataclass
class DiagnosticsRecord:
    time: float
    mass_plus: float
    mass_minus: float
    momentum: tuple
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
        vals = [self.time, self.mass_plus, self.mass_minus,
                *self.momentum, self.energy_total, self.e_k, self.d_k,
                self.norm_pf, self.norm_ipf, self.min_fplus, self.min_fminus,
                self.grad_phi_h3, self.balance_plus, self.balance_minus,
                self.picard_iterations, self.epsilon_op]
        out = []
        for v in vals:
            if isinstance(v, (float, np.floating)):
                out.append(repr(float(v)))  # shortest round-trip plain float
            else:
                out.append(str(v))
        return out


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
            div += _spatial_derivative(g, flux, axis)
        out.append(l2_norm(g, dd + div, "x"))
    return tuple(out)


def _spatial_derivative(grid, field_x, axis):
    import scipy.fft as sfft

    hat = sfft.fft(field_x, axis=axis, norm="forward")
    k = grid.spatial.axis_wavenumbers()
    mult = 1j * k
    mult[grid.spatial.n_x // 2] = 0.0
    shape = [1] * field_x.ndim
    shape[axis] = k.size
    hat *= mult.reshape(shape)
    return sfft.ifft(hat, axis=axis, norm="forward").real


def entropy(state):
    """``integral F log F`` of the full distribution, or nan if F <= 0 anywhere."""
    mu = maxwellian(state.grid.velocity)
    total = 0.0
    for f in (state.f_plus, state.f_minus):
        full = mu + f
        if np.any(full <= 0):
            return float("nan")
        total += float(np.sum(full * np.log(full))) * state.grid.cell_volume
    return total


class Recorder:
    """Diagnostics sink for :func:`vplandau.dynamics.advance`.

    Appends a :class:`DiagnosticsRecord` every ``cadence`` steps (plus an
    initial record for the starting state); heavier functionals (E_k, D_k)
    are evaluated only on recorded steps.
    """

    def __init__(self, spec, reference_state, ladder=None, cadence=1,
                 epsilon_op=0.0, compute_d_k=True):
        self.spec = spec
        self.ladder = ladder or weights.WeightLadderConstants()
        self.cadence = max(1, int(cadence))
        self.epsilon_op = epsilon_op
        self.compute_d_k = compute_d_k
        self.records = []
        self.reference = reference_state
        self._prev = reference_state
        self._prev_time = reference_state.time
        self.record_state(reference_state, picard_iterations=0)

    def record_state(self, state, picard_iterations=0):
        q = ConservedQuantities.of(state)
        e_k = weights.functional_E_k(state, self.spec, self.ladder)
        if self.compute_d_k and self.spec.model == "landau":
            d_k = weights.functional_D_k(state, self.spec)
        else:
            d_k = 0.0
        n_p, n_i = projection_split_norms(state)
        pos = positivity_monitor(state)
        if state.time == self._prev_time:
            bal = (0.0, 0.0)
        else:
            dt = state.time - self._prev_time
            bal = moment_balance_residual(self._prev, state, dt)
        rec = DiagnosticsRecord(
            time=state.time,
            mass_plus=q.mass_plus,
            mass_minus=q.mass_minus,
            momentum=tuple(q.momentum),
            energy_total=q.energy,
            e_k=e_k,
            d_k=d_k,
            norm_pf=n_p,
            norm_ipf=n_i,
            min_fplus=pos["plus"][0],
            min_fminus=pos["minus"][0],
            grad_phi_h3=weights.h3_grad_norm_sq(state.grid.spatial, state.phi),
            balance_plus=bal[0],
            balance_minus=bal[1],
            picard_iterations=picard_iterations,
            epsilon_op=self.epsilon_op,
        )
        self.records.append(rec)
        self._prev = state.clone()
        self._prev_time = state.time
        return rec

    def __call__(self, state, info):
        if info.step % self.cadence == 0:
            self.record_state(state, picard_iterations=info.picard_iterations)

    def times(self):
        return np.array([r.time for r in self.records])

    def series(self, name):
        return np.array([getattr(r, name) for r in self.records])

    def conservation_report(self, state):
        return check_conservation(state, self.reference)

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for rec in self.records:
                writer.writerow(rec.row())


def read_series_csv(path):
    """Load a recorder CSV back into a dict of numpy arrays."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    out = {}
    for col in CSV_COLUMNS:
        out[col] = np.array([float(r[col]) for r in rows])
    return out


# ---- decay fitting -------------------------------------------------------------


@dataclass
class DecayFit:
    mode: str  # 'exponential' or 'polynomial'
    rate: float  # lambda for exponential, slope for polynomial
    window: tuple
    r_squared: float
    n_samples: int


def fit_decay(times, values, mode, window=None, transient_fraction=0.1,
              min_samples=20):
    """Least-squares decay fit on a positive time series.

    Exponential mode regresses ``log E`` on ``t`` and reports
    ``rate = -slope`` (positive for decay); polynomial mode regresses
    ``log E`` on ``log(1 + t)`` and reports the slope itself (negative for
    decay).  The fit window excludes the initial transient (first 10% of the
    span by default) unless an explicit ``window`` is given.
    """
    t = np.asarray(times, dtype=float)
    e = np.asarray(values, dtype=float)
    if window is None:
        t0 = t[0] + transient_fraction * (t[-1] - t[0])
        window = (t0, t[-1])
    mask = (t >= window[0]) & (t <= window[1])
    t, e = t[mask], e[mask]
    if t.size < min_samples:
        raise FitError(f"need >= {min_samples} samples in window, got {t.size}")
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
    fit: DecayFit
    fit_exponential: DecayFit      # fits of the recorded microscopic energy
    fit_polynomial: DecayFit       # ||(I-P) f||^2 (the experiment's E)
    ek_fit_exponential: DecayFit | None
    ek_fit_polynomial: DecayFit | None
    times: np.ndarray
    micro_norms: np.ndarray  # ||(I-P) f||
    macro_norms: np.ndarray  # ||P f||
    e_k_series: np.ndarray
    conservation_max_drift: float


def linearized_decay_experiment(initial_state, tables, spec, dt, t_final,
                                fit_mode="exponential", cadence=1,
                                transient_fraction=0.1,
                                conservative_correction=True,
                                scheme="picard_implicit"):
    """Evolve the linearized system and fit the decay of its energy.

    The dynamics drop every nonlinear term: transport, the field source
    ``-+ grad(phi) . v mu`` and the linearized collision operator remain.
    Initial data is projected so that the global kernel component vanishes
    (``Pi f0 = 0``).  Returns fits of both envelopes (exponential and
    algebraic) over the post-transient window plus the recorded series.
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
    report = check_conservation(final, state)
    t = np.array(times)
    e_series = np.array(eks)
    micro_energy = np.array(micro) ** 2
    fit_exp = fit_decay(t, micro_energy, "exponential",
                        transient_fraction=transient_fraction)
    fit_poly = fit_decay(t, micro_energy, "polynomial",
                         transient_fraction=transient_fraction)
    # the weighted E_k series is recorded as well; its fits are advisory
    # (at desk scale the huge corner weights put a noise floor under it)
    try:
        ek_exp = fit_decay(t, e_series, "exponential",
                           transient_fraction=transient_fraction)
        ek_poly = fit_decay(t, e_series, "polynomial",
                            transient_fraction=transient_fraction)
    except FitError:
        ek_exp = ek_poly = None
    fit = fit_exp if fit_mode == "exponential" else fit_poly
    return LinearizedResult(
        fit=fit, fit_exponential=fit_exp, fit_polynomial=fit_poly,
        ek_fit_exponential=ek_exp, ek_fit_polynomial=ek_poly,
        times=t, micro_norms=np.array(micro), macro_norms=np.array(macro),
        e_k_series=e_series, conservation_max_drift=report.max_relative_drift())


def summary_to_json(path, payload):
    """Write an analysis summary (fits, drifts, flags) as JSON."""

    def default(obj):
        if isinstance(obj, (np.floating, np.integer)):
            return obj.item()
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        if hasattr(obj, "__dict__"):
            return obj.__dict__
        raise TypeError(f"not JSON serializable: {type(obj)}")

    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=default)

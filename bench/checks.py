"""Correctness checks of the benchmark, run after the timed region.

Each check either recomputes a quantity apart from the program (the
invariants and the Poisson residual are summed here with numpy from the
state arrays, never through ``vplandau.state``) or tests a property the
method must have (bit-exact resume, Picard contraction, corrected collision
moments, decay of the microscopic energy).  None compares against stored
output.
"""

from __future__ import annotations

import math
import os

import numpy as np

from vplandau import dynamics, landau
from vplandau import state as state_mod

from workloads import checkpoint_path

CONSERVATION_TOL = 1e-8
LINEARIZED_DRIFT_TOL = 1e-9
ORACLE_TOL = 1e-8
POISSON_TOL = 1e-10
CORRECTED_MOMENT_TOL = 1e-12
PI_TOL = 1e-12


def _velocity_axes(grid):
    v = grid.velocity.axis_nodes()
    return v[:, None, None], v[None, :, None], v[None, None, :]


def _spatial_k2(grid):
    sp = grid.spatial
    k = 2.0 * math.pi / sp.length * np.fft.fftfreq(sp.n_x, 1.0 / sp.n_x)
    return k**2  # dim_x = 1 in every workload


def invariants(st):
    """Species masses, total momentum and energy, summed here.

    The field energy ``int |grad phi|^2 dx`` is taken from the charge
    density by Parseval, ``vol * sum |rho_hat|^2 / |xi|^2`` over the modes
    the program's first derivative keeps (mean and Nyquist dropped).
    """
    g = st.grid
    w = g.velocity.node_weight * g.spatial.cell_volume
    v1, v2, v3 = _velocity_axes(g)
    s = st.f_plus + st.f_minus
    mom = [float(np.sum(s * vj)) * w for vj in (v1, v2, v3)]
    kinetic = float(np.sum(s * (v1**2 + v2**2 + v3**2))) * w
    rho = (st.f_plus - st.f_minus).sum(axis=(-3, -2, -1)) \
        * g.velocity.node_weight
    rho_hat = np.fft.fft(rho) / rho.size
    k2 = _spatial_k2(g)
    keep = k2 > 0
    keep[g.spatial.n_x // 2] = False
    field = float(np.sum(np.abs(rho_hat[keep]) ** 2 / k2[keep])) \
        * g.spatial.volume
    return {"mass_plus": float(np.sum(st.f_plus)) * w,
            "mass_minus": float(np.sum(st.f_minus)) * w,
            "momentum": mom, "energy": kinetic + field}


def conservation_drift(start, final):
    """Largest relative drift, normalized by the magnitudes of F = mu."""
    a, b = invariants(start), invariants(final)
    volx = start.grid.spatial.volume
    return max(
        abs(b["mass_plus"] - a["mass_plus"]) / volx,
        abs(b["mass_minus"] - a["mass_minus"]) / volx,
        max(abs(y - x) for x, y in zip(a["momentum"], b["momentum"]))
        / (2.0 * volx),
        abs(b["energy"] - a["energy"]) / (6.0 * volx))


def poisson_residual(st):
    """Relative L2 residual of ``-phi'' = rho - mean(rho)`` by numpy FFT."""
    rho = (st.f_plus - st.f_minus).sum(axis=(-3, -2, -1)) \
        * st.grid.velocity.node_weight
    rho0 = rho - rho.mean()
    lap = np.fft.ifft(_spatial_k2(st.grid) * np.fft.fft(st.phi)).real
    return float(np.linalg.norm(lap - rho0) / max(np.linalg.norm(rho0),
                                                 1e-300))


def oracle_error(st, tables, nodes=2):
    """Largest relative gap of the FFT collision operator to the dense oracle.

    ``Q(f+ + f-, f+)`` at ``nodes`` spatial nodes of ``st``.
    """
    worst = 0.0
    n_x = st.grid.spatial.n_x
    for x in sorted({i * n_x // nodes for i in range(nodes)}):
        g = st.f_plus[x] + st.f_minus[x]
        f = st.f_plus[x]
        qf = landau.q_landau_fft(g, f, tables)
        qd = landau.q_landau_direct(g, f, tables.gamma, st.grid.velocity)
        worst = max(worst, float(np.linalg.norm(qf - qd) / np.linalg.norm(qd)))
    return worst


def corrected_moments(st, tables, workers):
    """Largest species-summed momentum/energy moment of the corrected RHS."""
    rp, rm = landau.apply_collision_field(st, tables, conservative=True,
                                          workers=workers)
    v1, v2, v3 = _velocity_axes(st.grid)
    w = st.grid.velocity.node_weight
    s = rp + rm
    return max(float(np.max(np.abs(np.sum(s * psi, axis=(-3, -2, -1)) * w)))
               for psi in (v1, v2, v3, v1**2 + v2**2 + v3**2))


def pi_defect(st):
    """Global kernel moments of ``f`` relative to ``int (1 + |v|^2)|f|``.

    Zero exactly when ``Pi f = 0``: Pi's coefficients are these moments.
    """
    g = st.grid
    w = g.velocity.node_weight * g.spatial.cell_volume
    v1, v2, v3 = _velocity_axes(g)
    sp2 = v1**2 + v2**2 + v3**2
    s = st.f_plus + st.f_minus
    moments = [np.sum(st.f_plus), np.sum(st.f_minus),
               np.sum(v1 * s), np.sum(v2 * s), np.sum(v3 * s),
               np.sum((sp2 - 3.0) * s)]
    scale = float(np.sum((1.0 + sp2) * (np.abs(st.f_plus)
                                        + np.abs(st.f_minus))))
    return max(abs(float(m)) for m in moments) * w / max(scale * w, 1e-300)


def resume_from_checkpoint(w, setup, final, out_dir):
    """Reload the last checkpoint before the end and redo the last steps.

    A solve whose only checkpoint is its last state gets a round trip of
    that file instead.  Returns (bit_exact, steps_redone).
    """
    step = (w.steps - 1) // w.checkpoint_every * w.checkpoint_every
    if step == 0:
        step = w.steps
    resumed = state_mod.load_checkpoint(checkpoint_path(out_dir, step))
    if step < w.steps:
        cfg = dynamics.TimeStepConfig(dt=w.dt, scheme=w.scheme,
                                      linearized=w.linearized,
                                      workers=w.workers)
        resumed = dynamics.advance(resumed, w.steps * w.dt, cfg, setup.tables)
    exact = (np.array_equal(resumed.f_plus, final.f_plus)
             and np.array_equal(resumed.f_minus, final.f_minus)
             and resumed.time == final.time)
    return exact, w.steps - step


def run_checks(w, setup, res, out_dir):
    """All checks of workload ``w`` on the last solve ``res``.

    Returns a list of ``(name, value, limit, ok)``.
    """
    final = res.final
    out = []

    def add(name, value, limit, ok):
        out.append((name, value, limit, bool(ok)))

    t_final = w.steps * w.dt
    add("final_time", final.time, t_final, final.time == t_final)
    tol = LINEARIZED_DRIFT_TOL if w.linearized else CONSERVATION_TOL
    drift = conservation_drift(setup.state, final)
    add("conservation_drift", drift, tol, drift <= tol)
    if w.name == "nonlinear-default":
        err = oracle_error(final, setup.tables)
        add("oracle_rel_error", err, ORACLE_TOL, err <= ORACLE_TOL)
        resid = poisson_residual(final)
        add("poisson_residual", resid, POISSON_TOL, resid <= POISSON_TOL)
    if w.checkpoint_every:
        exact, redone = resume_from_checkpoint(w, setup, final, out_dir)
        add("resume_bit_exact", redone, "steps redone", exact)
    if w.scheme == "picard_implicit" and not w.linearized:
        ratios = [r for info in res.infos for r in info.picard_ratios]
        worst = max(ratios, default=0.0)
        add("picard_max_ratio", worst, 1.0, bool(ratios) and worst < 1.0)
        iters = [info.picard_iterations for info in res.infos]
        cap = dynamics.TimeStepConfig().picard_max_iters
        add("picard_iterations", max(iters), cap,
            all(1 <= i <= cap for i in iters))
        mom = corrected_moments(final, setup.tables, w.workers)
        add("corrected_moments", mom, CORRECTED_MOMENT_TOL,
            mom <= CORRECTED_MOMENT_TOL)
    if w.linearized:
        first, last = res.rows[0][1] ** 2, res.rows[-1][1] ** 2
        add("micro_energy_ratio", last / first, 1.0, last < first)
        pi = pi_defect(final)
        add("pi_defect", pi, PI_TOL, pi <= PI_TOL)
    return out


def remove_checkpoints(out_dir):
    for name in os.listdir(out_dir):
        if name.startswith("checkpoint_") and name.endswith(".npz"):
            os.remove(os.path.join(out_dir, name))

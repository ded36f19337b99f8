"""Time integration of the perturbation system by Strang splitting.

One step of :func:`advance` composes

    transport dt/2 -> field dt/2 -> collision dt -> field dt/2 -> transport dt/2

with the potential refreshed after every substep that changes the charge
density (transport; the field and collision substeps leave the density
invariant node by node).  Transport is exact in the mixed representation:
spatial Fourier modes acquire the phase ``exp(-i xi . v dt)`` per velocity
node.  The field substep advances the frozen-potential Vlasov terms with
classical RK4 and spectral velocity derivatives.  The collision substep is
either an explicit RK4 on the full collision right-hand side or a Picard
iteration on the frozen-coefficient linear problem (the first argument of
every collision operator, and the potential in the Vlasov term, are held at
the previous iterate).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft

from . import landau
from .errors import PicardConvergenceError
from .grid import l2_norm, v_derivative_trailing
from .state import maxwellian


@dataclass
class TimeStepConfig:
    dt: float = 1e-2
    scheme: str = "strang_rk4"  # or "picard_implicit"
    picard_tol: float = 1e-10
    picard_max_iters: int = 25
    conservative_correction: bool = True
    collision_enabled: bool = True
    field_enabled: bool = True
    linearized: bool = False
    workers: int | None = None

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.picard_tol <= 0:
            raise ValueError("picard_tol must be positive")
        if self.scheme not in ("strang_rk4", "picard_implicit"):
            raise ValueError(f"unknown scheme {self.scheme!r}")


@dataclass
class StepInfo:
    """Per-step metadata handed to the diagnostics sink."""

    step: int
    dt: float
    picard_iterations: int = 0
    picard_ratios: tuple = ()
    cfl_warning: bool = False


# ---- substeps ----------------------------------------------------------------


def transport_phase(grid, dt):
    """The exact free-streaming multiplier exp(-i xi . v dt)."""
    dot = np.zeros(grid.shape)
    for a in range(grid.dim_x):
        xi = grid.spatial.axis_wavenumbers()
        shape = [1] * (grid.dim_x + 3)
        shape[a] = grid.spatial.n_x
        va = grid.velocity.axis_nodes()
        vshape = [1] * (grid.dim_x + 3)
        vshape[grid.dim_x + a] = grid.velocity.n_v
        dot = dot + xi.reshape(shape) * va.reshape(vshape)
    return np.exp(-1j * dt * dot)


def transport_step(state, dt, phase=None):
    """Exact free streaming: f(x, v) -> f(x - v dt, v) on the grid."""
    g = state.grid
    if phase is None:
        phase = transport_phase(g, dt)
    axes = g.x_axes
    out = []
    for f in (state.f_plus, state.f_minus):
        hat = sfft.fftn(f, axes=axes, norm="forward")
        hat *= phase
        out.append(sfft.ifftn(hat, axes=axes, norm="forward").real)
    return state.with_fields(out[0], out[1], time=state.time + dt)


def _field_rhs(grid, grad_phi, f_plus, f_minus, v_mu_source):
    """RHS of d_t f_pm = +-grad(phi).grad_v f_pm -+ grad(phi).v mu."""
    dp = np.zeros_like(f_plus)
    dm = np.zeros_like(f_minus)
    for a in range(grid.dim_x):
        ga = grad_phi[a][(...,) + (None, None, None)]
        dp += ga * v_derivative_trailing(grid.velocity, f_plus, a)
        dm -= ga * v_derivative_trailing(grid.velocity, f_minus, a)
    dp -= v_mu_source
    dm += v_mu_source
    return dp, dm


def field_step(state, dt, grad_phi=None, advance_time=False):
    """Frozen-potential Vlasov substep via classical RK4.

    ``grad_phi`` (a tuple of spatial arrays) may be supplied to force an
    external potential gradient; by default the state's own consistent
    potential is used and is held frozen across the RK stages.
    """
    g = state.grid
    if grad_phi is None:
        grad_phi = tuple(-e for e in state.e_field)
    mu = maxwellian(g.velocity)
    src = np.zeros(g.shape)
    for a in range(g.dim_x):
        va = g.velocity.coordinate(a)
        src = src + grad_phi[a][(...,) + (None, None, None)] * (va * mu)
    fp, fm = state.f_plus, state.f_minus
    k1 = _field_rhs(g, grad_phi, fp, fm, src)
    k2 = _field_rhs(g, grad_phi, fp + 0.5 * dt * k1[0], fm + 0.5 * dt * k1[1], src)
    k3 = _field_rhs(g, grad_phi, fp + 0.5 * dt * k2[0], fm + 0.5 * dt * k2[1], src)
    k4 = _field_rhs(g, grad_phi, fp + dt * k3[0], fm + dt * k3[1], src)
    new_p = fp + dt / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
    new_m = fm + dt / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    if not (np.all(np.isfinite(new_p)) and np.all(np.isfinite(new_m))):
        raise FloatingPointError(
            f"field step produced non-finite values at t={state.time:.6g} "
            f"(max |grad phi| = {max(np.max(np.abs(gp)) for gp in grad_phi):.3e})"
        )
    return state.with_fields(new_p, new_m,
                             time=state.time + dt if advance_time else None)


def _linearized_field_step(state, dt):
    """Exact source substep of the linearized system: f -> f -+ dt grad(phi).v mu.

    The source has zero velocity integral, so the density and the potential
    are unchanged during the substep and the update is exact.
    """
    g = state.grid
    grad_phi = tuple(-e for e in state.e_field)
    mu = maxwellian(g.velocity)
    src = np.zeros(g.shape)
    for a in range(g.dim_x):
        va = g.velocity.coordinate(a)
        src = src + grad_phi[a][(...,) + (None, None, None)] * (va * mu)
    return state.with_fields(state.f_plus - dt * src, state.f_minus + dt * src)


def _rk4_pair(rhs, fp, fm, dt):
    k1 = rhs(fp, fm)
    k2 = rhs(fp + 0.5 * dt * k1[0], fm + 0.5 * dt * k1[1])
    k3 = rhs(fp + 0.5 * dt * k2[0], fm + 0.5 * dt * k2[1])
    k4 = rhs(fp + dt * k3[0], fm + dt * k3[1])
    return (fp + dt / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]),
            fm + dt / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]))


def rkc_coefficients(s, eps=2.0 / 13.0):
    """Coefficients of the s-stage second-order Runge-Kutta-Chebyshev scheme.

    Stability polynomial ``R(z) = a_s + b_s T_s(w0 + w1 z)`` with damping
    ``eps``; the real stability interval grows like ``~0.65 s^2``.  Returns
    (mu_tilde_1, and per-stage (mu_j, nu_j, mu_tilde_j, gamma_tilde_j)).
    """
    import numpy.polynomial.chebyshev as cheb

    w0 = 1.0 + eps / s**2

    def t(j, x):
        c = np.zeros(j + 1)
        c[j] = 1.0
        return cheb.chebval(x, c)

    def dt_(j, x):
        c = np.zeros(j + 1)
        c[j] = 1.0
        return cheb.chebval(x, cheb.chebder(c))

    def ddt(j, x):
        c = np.zeros(j + 1)
        c[j] = 1.0
        return cheb.chebval(x, cheb.chebder(c, 2))

    w1 = dt_(s, w0) / ddt(s, w0)
    b = np.zeros(s + 1)
    for j in range(2, s + 1):
        b[j] = ddt(j, w0) / dt_(j, w0) ** 2
    b[0] = b[2]
    b[1] = b[2]
    mu_t1 = b[1] * w1
    stages = []
    for j in range(2, s + 1):
        mu_j = 2.0 * b[j] * w0 / b[j - 1]
        nu_j = -b[j] / b[j - 2]
        mu_tj = 2.0 * b[j] * w1 / b[j - 1]
        a_jm1 = 1.0 - b[j - 1] * t(j - 1, w0)
        gamma_tj = -a_jm1 * mu_tj
        stages.append((mu_j, nu_j, mu_tj, gamma_tj))
    return mu_t1, stages


def rkc_step_pair(rhs, fp, fm, dt, s):
    """One second-order RKC step with ``s`` stages on a species pair.

    Used as the inner integrator of the frozen-coefficient (Picard)
    collision solve, where the stiff part of the collision operator makes
    classical RK4 stability-limited; the Chebyshev scheme covers a real
    spectrum interval ~0.65 s^2 per step at s right-hand-side evaluations.
    """
    mu_t1, stages = rkc_coefficients(s)
    f0 = rhs(fp, fm)
    y_prev = (fp, fm)
    y_cur = (fp + mu_t1 * dt * f0[0], fm + mu_t1 * dt * f0[1])
    for (mu_j, nu_j, mu_tj, gamma_tj) in stages:
        f_cur = rhs(y_cur[0], y_cur[1])
        nxt = tuple(
            (1.0 - mu_j - nu_j) * base + mu_j * cur + nu_j * prev
            + mu_tj * dt * fc + gamma_tj * dt * f0c
            for base, cur, prev, fc, f0c in zip(
                (fp, fm), y_cur, y_prev, f_cur, f0)
        )
        y_prev, y_cur = y_cur, nxt
    return y_cur


def rkc_real_stability(s, eps=2.0 / 13.0):
    """Exact real-axis stability bound of the s-stage RKC scheme.

    The stability polynomial is ``a_s + b_s T_s(w0 + w1 z)``; it stays in
    [-1, 1] exactly while the Chebyshev argument does, i.e. for
    ``z >= -(1 + w0)/w1`` (asymptotically ~0.65 s^2).
    """
    import numpy.polynomial.chebyshev as cheb

    w0 = 1.0 + eps / s**2
    c = np.zeros(s + 1)
    c[s] = 1.0
    w1 = cheb.chebval(w0, cheb.chebder(c)) / cheb.chebval(w0, cheb.chebder(c, 2))
    return (1.0 + w0) / w1


def rkc_stages_for(dt, spectral_radius, safety=0.9):
    """Smallest stage count covering ``dt * spectral_radius`` on the real axis."""
    target = dt * spectral_radius / safety
    s = 2
    while rkc_real_stability(s) < target:
        s += 1
    return s


def collision_spectral_radius(tables):
    """Power-iteration estimate of the linearized collision spectral radius.

    Cached on the tables; the linear part ``Q(2 mu + S, .)`` dominates the
    stiffness (diffusion-like with coefficient growing as ``|v|^{gamma+2}``),
    so the estimate carries a safety margin when used for stage selection.
    """
    if getattr(tables, "_rho_estimate", None) is None:
        rng = np.random.default_rng(1234)
        f = rng.standard_normal(tables.velocity_grid.shape)
        f /= np.linalg.norm(f)
        lam = 1.0
        for _ in range(15):
            lp, _ = landau.apply_linearized_collision(f, f, tables)
            lam = float(np.linalg.norm(lp))
            if lam == 0.0:
                break
            f = lp / lam
        tables._rho_estimate = lam
    return tables._rho_estimate


def collision_step(state, dt, cfg, tables, corrector=None):
    """Collision substep; returns (state, picard_iterations, ratios).

    Every right-hand side comes from :func:`landau.frozen_collision`; the
    step makes two choices:

    * the integrator: classical RK4 (conditionally stable: ``dt * rho <=
      2.78`` with ``rho`` the collision spectral radius), or, for
      ``picard_implicit`` with ``dt * rho > 2.5``, a stabilized Chebyshev
      step whose stage count covers ``dt * rho``, so the step size is
      unconstrained by collision stiffness;
    * what the first collision argument is frozen at: ``f+ + f-`` of each
      stage (``strang_rk4``, and every linearized run, whose operator is
      itself the frozen problem), or the previous iterate of the Picard
      iteration of the approximation scheme (nonlinear ``picard_implicit``).
    """
    if not cfg.conservative_correction:
        corrector = None
    elif corrector is None:
        corrector = landau.ConservativeCorrector(state.grid.velocity)
    stages = 0
    if cfg.scheme == "picard_implicit":
        rho = collision_spectral_radius(tables) * 1.25
        if dt * rho > 2.5:
            stages = rkc_stages_for(dt, rho)

    def frozen(s):
        return landau.frozen_collision(tables, s, cfg.linearized, corrector,
                                       cfg.workers)

    def integrate(rhs):
        if stages:
            return rkc_step_pair(rhs, state.f_plus, state.f_minus, dt, stages)
        return _rk4_pair(rhs, state.f_plus, state.f_minus, dt)

    if cfg.scheme == "strang_rk4" or cfg.linearized:
        new_p, new_m = integrate(lambda fp, fm: frozen(fp + fm)(fp, fm))
        return state.with_fields(new_p, new_m), 0, ()

    # Picard mode: solve d_tau u_pm = Q(S_g, mu) + Q(2 mu + S_g, u_pm) over
    # [0, dt] with the coefficient fields S_g frozen at the previous iterate,
    # iterating until successive solutions differ by less than picard_tol.
    g = state.grid
    prev_p, prev_m = state.f_plus, state.f_minus
    prev_diff = None
    ratios = []
    for it in range(1, cfg.picard_max_iters + 1):
        new_p, new_m = integrate(frozen(prev_p + prev_m))
        diff = math.sqrt(
            l2_norm(g, new_p - prev_p) ** 2 + l2_norm(g, new_m - prev_m) ** 2
        )
        if prev_diff is not None and prev_diff > 0:
            ratios.append(diff / prev_diff)
        if diff < cfg.picard_tol:
            return state.with_fields(new_p, new_m), it, tuple(ratios)
        prev_p, prev_m, prev_diff = new_p, new_m, diff
    raise PicardConvergenceError(
        f"Picard iteration did not reach tol={cfg.picard_tol:g} in "
        f"{cfg.picard_max_iters} iterations", residual=prev_diff)


# ---- driver -------------------------------------------------------------------


def suggest_dt(state):
    """Stability-guided step for the field-step RK4 (advisory)."""
    eta_max = float(np.max(np.abs(state.grid.velocity.axis_wavenumbers())))
    gp_max = max(float(np.max(np.abs(e))) for e in state.e_field)
    if gp_max * eta_max == 0.0:
        return math.inf
    return 0.5 / (gp_max * eta_max)


def cfl_advisory(state, dt):
    """True (with a warning) if dt exceeds the field-step stability guide.

    Transport is exact, so this only guards the RK4 field substep.
    """
    g = state.grid
    vmax = float(np.max(np.abs(g.velocity.axis_nodes())))
    ximax = float(np.max(np.abs(g.spatial.axis_wavenumbers())))
    if dt * vmax * ximax > math.pi:
        warnings.warn(
            f"dt={dt:g} exceeds the advisory bound pi/(max|v| max|xi|)="
            f"{math.pi / (vmax * ximax):g}; transport stays exact but the "
            "field substep may be under-resolved", RuntimeWarning,
            stacklevel=2)
        return True
    return False


def step_schedule(t0, t_final, dt):
    """Whole steps and remainder covering ``[t0, t_final]`` at step ``dt``.

    Returns ``(n, rem)``: ``n`` steps of exactly ``dt``, then one step of
    ``rem`` if ``rem > 0``.  A horizon within round-off (``1e-12`` relative
    to the time scale) of ``n * dt`` is whole, so the schedule depends only
    on ``t_final - t0`` and never on a time accumulated step by step.
    """
    horizon = t_final - t0
    n = round(horizon / dt)
    tol = 1e-12 * max(abs(t0), abs(t_final), dt)
    if n >= 1 and abs(horizon - n * dt) <= tol:
        return n, 0.0
    n = math.floor(horizon / dt)
    return n, horizon - n * dt


def advance(state, t_final, cfg, tables=None, sink=None):
    """Advance to ``t_final`` by Strang steps, emitting diagnostics per step.

    Steps follow :func:`step_schedule`: step ``k`` of size ``cfg.dt`` ends at
    ``t0 + k * cfg.dt`` and the last step ends at ``t_final`` exactly, so a
    run resumed from a checkpoint with the same ``dt`` repeats the straight
    run bit for bit.  ``tables`` (the run's kernel tables) may be omitted
    only when ``cfg.collision_enabled`` is false.
    """
    if t_final <= state.time:
        raise ValueError("t_final must exceed the state's current time")
    if tables is None and cfg.collision_enabled:
        raise ValueError("advance needs kernel tables for the collision "
                         "substep (landau.build_kernel_tables)")
    corrector = landau.ConservativeCorrector(state.grid.velocity)
    t0 = state.time
    n_whole, rem = step_schedule(t0, t_final, cfg.dt)
    steps = [(cfg.dt, transport_phase(state.grid, 0.5 * cfg.dt))] * n_whole
    if rem > 0.0:
        steps.append((rem, transport_phase(state.grid, 0.5 * rem)))
    cfl_flag = cfl_advisory(state, cfg.dt)
    for step, (dt, phase) in enumerate(steps, start=1):
        if step % 10 == 1 and step > 1:
            cfl_flag = cfl_advisory(state, dt)

        state = transport_step(state, 0.5 * dt, phase)
        if cfg.field_enabled:
            if cfg.linearized:
                state = _linearized_field_step(state, 0.5 * dt)
            else:
                state = field_step(state, 0.5 * dt)
        iters, ratios = 0, ()
        if cfg.collision_enabled:
            state, iters, ratios = collision_step(state, dt, cfg, tables,
                                                  corrector)
        if cfg.field_enabled:
            if cfg.linearized:
                state = _linearized_field_step(state, 0.5 * dt)
            else:
                state = field_step(state, 0.5 * dt)
        state = transport_step(state, 0.5 * dt, phase)
        state.time = t_final if step == len(steps) else t0 + step * cfg.dt
        if sink is not None:
            sink(state, StepInfo(step=step, dt=dt, picard_iterations=iters,
                                 picard_ratios=ratios, cfl_warning=cfl_flag))
    return state

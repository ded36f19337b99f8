"""Time integration of the perturbation system by Strang splitting.

One step of :func:`advance` composes

    transport dt/2 -> field dt/2 -> collision dt -> field dt/2 -> transport dt/2

with the potential refreshed after every substep that changes the charge
density (transport; the field and collision substeps leave the density
invariant node by node).  Transport is exact in the mixed representation:
spatial Fourier modes acquire the phase ``exp(-i xi . v dt)`` per velocity
node.  The field substep is exact in the same way: with the potential
frozen, velocity Fourier modes acquire a phase ``exp(+-i dt k_v . grad phi)``
and the source adds its Duhamel integral.  The collision substep is either
an explicit RK4 on the full collision right-hand side or a Picard iteration
on the frozen-coefficient linear problem (the first argument of every
collision operator is held at the previous iterate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as cheb

from . import landau
from .errors import PicardConvergenceError
from .grid import (
    along,
    derivative_multiplier,
    l2_norm,
    split_nodes,
    v_derivative_trailing,
)
from .state import invariants

RKC_DAMPING = 2.0 / 13.0  # eps of the damped Chebyshev argument w0
RKC_SAFETY = 0.9  # share of the real stability interval a step may use


@dataclass
class TimeStepConfig:
    dt: float = 1e-2
    scheme: str = "strang_rk4"  # or "picard_implicit"
    picard_tol: float = 1e-10
    picard_max_iters: int = 25
    conservative_correction: bool = True
    linearized: bool = False
    # threads over which the collision substep splits the spatial nodes,
    # None for VPLANDAU_THREADS; each node block runs the whole integrator
    # (grid.split_nodes)
    workers: int | None = None

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not 0 < self.picard_tol < math.inf:
            raise ValueError("picard_tol must be positive and finite, "
                             f"got {self.picard_tol}")
        if self.picard_max_iters < 1:
            raise ValueError("picard_max_iters must be at least 1")
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be None or at least 1")
        if self.scheme not in ("strang_rk4", "picard_implicit"):
            raise ValueError(f"unknown scheme {self.scheme!r}")


@dataclass
class StepInfo:
    """Per-step metadata handed to the diagnostics sink."""

    step: int
    dt: float
    picard_iterations: int = 0
    picard_ratios: tuple = ()


# ---- substeps ----------------------------------------------------------------


def _check_finite(substep, time, fields):
    """Raise ``FloatingPointError`` naming the substep if it left inf/nan."""
    if not all(np.all(np.isfinite(f)) for f in fields):
        raise FloatingPointError(
            f"{substep} step produced non-finite values at t={time:.6g}")


def transport_phase(grid, dt):
    """The free-streaming multiplier exp(-i xi . v dt) on the ``rfftn`` modes.

    The real transform keeps ``n_x // 2 + 1`` modes of the last x axis, and
    the multiplier there is the Hermitian part ``(P[k] + conj(P[-k]))/2`` of
    the full ``P``.  It equals ``P`` off the Nyquist planes; on them it
    averages the two signs of the Nyquist wavenumber.  The substep is then
    ``Re ifftn(P fftn f)`` at every ``dim_x``; with the plain half of ``P``
    it is not, once ``dim_x > 1``.
    """
    d = grid.dim_x
    nd = d + 3
    xi = grid.spatial.axis_wavenumbers()
    v = grid.velocity.axis_nodes()
    half = xi.size // 2 + 1
    phase = 0.0
    for ks in (xi, -np.roll(xi[::-1], 1)):  # xi[k] and -xi[-k]
        dot = sum(along(ks[:half] if a == d - 1 else ks, a, nd)
                  * along(v, d + a, nd) for a in range(d))
        phase = phase + 0.5 * np.exp(-1j * dt * dot)
    return phase


def transport_step(state, dt, phase=None):
    """Exact free streaming: f(x, v) -> f(x - v dt, v) on the grid."""
    g = state.grid
    if phase is None:
        phase = transport_phase(g, dt)
    axes = g.x_axes
    out = []
    for f in (state.f_plus, state.f_minus):
        hat = np.fft.rfftn(f, axes=axes, norm="forward")
        hat *= phase
        out.append(np.fft.irfftn(hat, s=f.shape[:g.dim_x], axes=axes,
                                 norm="forward"))
    _check_finite("transport", state.time, out)
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


def _field_source(grid, grad_phi):
    """The source ``grad(phi) . v mu`` of the field substep."""
    v_mu = invariants(grid.velocity)[1][1:4]
    src = np.zeros(grid.shape)
    for a in range(grid.dim_x):
        src = src + grad_phi[a][(...,) + (None, None, None)] * v_mu[a]
    return src


def field_step(state, dt, grad_phi=None):
    """Exact frozen-potential Vlasov substep in the velocity Fourier modes.

    With ``theta = dt grad(phi) . k_v`` over the first ``dim_x`` velocity
    axes (``k_v`` from :func:`derivative_multiplier`, Nyquist entry zero),
    the semi-discrete equations of :func:`_field_rhs` integrate to

        f_pm^ -> exp(+-i theta) f_pm^ -+ dt exp(+-i theta/2) sinc(theta/2pi) s^

    with ``s`` the source ``grad(phi) . v mu``.  ``grad_phi`` (a tuple of
    spatial arrays) may be supplied to force an external potential
    gradient; by default the state's own consistent potential is used.
    """
    g = state.grid
    if grad_phi is None:
        grad_phi = tuple(-e for e in state.e_field)
    d = g.dim_x
    axes = tuple(range(d, 2 * d))
    k = derivative_multiplier(g.velocity, 1).imag
    ks = [k] * (d - 1) + [k[: k.size // 2 + 1]]  # rfftn halves the last axis
    theta = dt * sum(gp[(...,) + (None,) * 3] * along(ka, d + a, d + 3)
                     for a, (gp, ka) in enumerate(zip(grad_phi, ks)))
    rot = np.exp(1j * theta)
    duhamel = dt * np.exp(0.5j * theta) * np.sinc(theta / (2.0 * math.pi))
    src = np.fft.rfftn(_field_source(g, grad_phi), axes=axes, norm="forward")
    out = []
    for f, r, w in ((state.f_plus, rot, -duhamel),
                    (state.f_minus, rot.conj(), duhamel.conj())):
        hat = np.fft.rfftn(f, axes=axes, norm="forward")
        hat *= r
        hat += w * src
        out.append(np.fft.irfftn(hat, s=f.shape[d:2 * d], axes=axes,
                                 norm="forward"))
    _check_finite("field", state.time, out)
    return state.with_fields(out[0], out[1])


def _linearized_field_step(state, dt):
    """Exact source substep of the linearized system: f -> f -+ dt grad(phi).v mu.

    The source has zero velocity integral, so the density and the potential
    are unchanged during the substep and the update is exact.
    """
    src = _field_source(state.grid, tuple(-e for e in state.e_field))
    new_p, new_m = state.f_plus - dt * src, state.f_minus + dt * src
    _check_finite("field", state.time, (new_p, new_m))
    return state.with_fields(new_p, new_m)


def _rk4_pair(rhs, fp, fm, dt):
    # rhs returns fresh arrays, so k1's arrays take the sum
    # k1 + 2 k2 + 2 k3 + k4, added in that order
    k = total = rhs(fp, fm)
    for c, w in ((0.5, 2.0), (0.5, 2.0), (1.0, 1.0)):
        k = rhs(fp + c * dt * k[0], fm + c * dt * k[1])
        for t, ks in zip(total, k):
            t += w * ks
    return fp + dt / 6.0 * total[0], fm + dt / 6.0 * total[1]


def _chebyshev(j, x, order=0):
    """The ``order``-th derivative of the Chebyshev polynomial ``T_j`` at x."""
    c = np.zeros(j + 1)
    c[j] = 1.0
    return cheb.chebval(x, cheb.chebder(c, order))


def _rkc_arguments(s):
    """``(w0, w1)`` of the s-stage scheme's Chebyshev argument ``w0 + w1 z``."""
    w0 = 1.0 + RKC_DAMPING / s**2
    return w0, _chebyshev(s, w0, 1) / _chebyshev(s, w0, 2)


def rkc_coefficients(s):
    """Coefficients of the s-stage second-order Runge-Kutta-Chebyshev scheme.

    Stability polynomial ``R(z) = a_s + b_s T_s(w0 + w1 z)`` with damping
    ``RKC_DAMPING``; the real stability interval grows like ``~0.65 s^2``.
    Returns (mu_tilde_1, and per-stage (mu_j, nu_j, mu_tilde_j,
    gamma_tilde_j)).
    """
    w0, w1 = _rkc_arguments(s)
    b = np.zeros(s + 1)
    for j in range(2, s + 1):
        b[j] = _chebyshev(j, w0, 2) / _chebyshev(j, w0, 1) ** 2
    b[0] = b[2]
    b[1] = b[2]
    mu_t1 = b[1] * w1
    stages = []
    for j in range(2, s + 1):
        mu_j = 2.0 * b[j] * w0 / b[j - 1]
        nu_j = -b[j] / b[j - 2]
        mu_tj = 2.0 * b[j] * w1 / b[j - 1]
        a_jm1 = 1.0 - b[j - 1] * _chebyshev(j - 1, w0)
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


def rkc_real_stability(s):
    """Exact real-axis stability bound of the s-stage RKC scheme.

    The stability polynomial is ``a_s + b_s T_s(w0 + w1 z)``; it stays in
    [-1, 1] exactly while the Chebyshev argument does, i.e. for
    ``z >= -(1 + w0)/w1`` (asymptotically ~0.65 s^2).
    """
    w0, w1 = _rkc_arguments(s)
    return (1.0 + w0) / w1


def rkc_stages_for(dt, spectral_radius):
    """Smallest stage count covering ``dt * spectral_radius / RKC_SAFETY``."""
    target = dt * spectral_radius / RKC_SAFETY
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
    if tables._rho_estimate is None:
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

    Either way each spatial node is its own ODE, so one integration splits
    the nodes once over ``cfg.workers`` threads, or the ``VPLANDAU_THREADS``
    ones when it is ``None`` (:func:`grid.split_nodes`), and each block
    integrates its nodes; the finiteness check and the Picard norm run on
    the joined arrays.
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
    shape = state.f_plus.shape

    def nodes(f):
        return f.reshape((-1,) + shape[-3:])

    def integrate(frozen_at=None):
        # frozen_at: f+ + f- of the previous Picard iterate, or None to
        # freeze each stage at its own f+ + f-
        def block(part):
            fp, fm = (nodes(f)[part] for f in (state.f_plus, state.f_minus))
            if frozen_at is None:
                def rhs(a, b):
                    return landau.frozen_collision(
                        tables, a + b, cfg.linearized, corrector)(a, b)
            else:
                rhs = landau.frozen_collision(
                    tables, nodes(frozen_at)[part], corrector=corrector)
            if stages:
                return rkc_step_pair(rhs, fp, fm, dt, stages)
            return _rk4_pair(rhs, fp, fm, dt)

        blocks = split_nodes(len(nodes(state.f_plus)), cfg.workers, block)
        out = [np.concatenate(f).reshape(shape) for f in zip(*blocks)]
        _check_finite("collision", state.time, out)
        return out

    if cfg.scheme == "strang_rk4" or cfg.linearized:
        new_p, new_m = integrate()
        return state.with_fields(new_p, new_m), 0, ()

    # Picard mode: solve d_tau u_pm = Q(S_g, mu) + Q(2 mu + S_g, u_pm) over
    # [0, dt] with the coefficient fields S_g frozen at the previous iterate,
    # iterating until successive solutions differ by less than picard_tol.
    g = state.grid
    prev_p, prev_m = state.f_plus, state.f_minus
    prev_diff = None
    ratios = []
    for it in range(1, cfg.picard_max_iters + 1):
        new_p, new_m = integrate(prev_p + prev_m)
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
    run bit for bit.  ``tables`` are the run's kernel tables.
    """
    if t_final <= state.time:
        raise ValueError("t_final must exceed the state's current time")
    if tables is None:
        raise ValueError("advance needs kernel tables for the collision "
                         "substep (landau.build_kernel_tables)")
    field = _linearized_field_step if cfg.linearized else field_step
    corrector = landau.ConservativeCorrector(state.grid.velocity)
    t0 = state.time
    n_whole, rem = step_schedule(t0, t_final, cfg.dt)
    steps = [(cfg.dt, transport_phase(state.grid, 0.5 * cfg.dt))] * n_whole
    if rem > 0.0:
        steps.append((rem, transport_phase(state.grid, 0.5 * rem)))
    for step, (dt, phase) in enumerate(steps, start=1):
        state = transport_step(state, 0.5 * dt, phase)
        state = field(state, 0.5 * dt)
        state, iters, ratios = collision_step(state, dt, cfg, tables,
                                              corrector)
        state = field(state, 0.5 * dt)
        state = transport_step(state, 0.5 * dt, phase)
        state.time = t_final if step == len(steps) else t0 + step * cfg.dt
        if sink is not None:
            sink(state, StepInfo(step=step, dt=dt, picard_iterations=iters,
                                 picard_ratios=ratios))
    return state

"""Two-species perturbation state, reference Maxwellian, moments, projections.

The state holds the perturbations ``f_plus, f_minus`` of both species around
the global Maxwellian ``mu(v) = (2 pi)^{-3/2} exp(-|v|^2/2)`` together with
the self-consistent potential.  The potential is never set by callers: it is
recomputed from the charge density on every construction, so a stale-phi
state cannot be built through the public interface.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import poisson
from .grid import (
    PhaseGrid,
    SpatialGrid,
    VelocityGrid,
    integrate_v,
    integrate_x,
    l2_norm,
)

_CHECKPOINT_FORMAT = 1


def maxwellian(velocity_grid):
    """The reference Maxwellian sampled on the velocity nodes."""
    return (2.0 * math.pi) ** (-1.5) * np.exp(-0.5 * velocity_grid.speed_squared())


class SystemState:
    """Both species plus the self-consistent potential at one time."""

    __slots__ = ("grid", "f_plus", "f_minus", "phi", "e_field", "time")

    def __init__(self, grid, f_plus, f_minus, time=0.0):
        grid.check_shape(f_plus, "xv")
        grid.check_shape(f_minus, "xv")
        self.grid = grid
        self.f_plus = np.asarray(f_plus, dtype=np.float64)
        self.f_minus = np.asarray(f_minus, dtype=np.float64)
        self.time = float(time)
        rho = integrate_v(grid, self.f_plus - self.f_minus)
        res = poisson.solve_potential(grid.spatial, rho)
        self.phi = res.phi
        self.e_field = res.e_field

    @classmethod
    def zero(cls, grid, time=0.0):
        z = np.zeros(grid.shape)
        return cls(grid, z, z.copy(), time)

    def charge_density(self):
        return integrate_v(self.grid, self.f_plus - self.f_minus)

    def clone(self):
        return SystemState(self.grid, self.f_plus.copy(), self.f_minus.copy(),
                           self.time)

    def with_fields(self, f_plus, f_minus, time=None):
        return SystemState(self.grid, f_plus, f_minus,
                           self.time if time is None else time)

    def consistency_residual(self):
        """Relative residual of ``-laplace(phi) = integral (f+ - f-) dv``."""
        rho = self.charge_density()
        scale = max(l2_norm_x(self.grid, rho), 1e-300)
        return poisson.residual(self.grid.spatial, self.phi, rho) / scale


def l2_norm_x(grid, field_x):
    return l2_norm(grid, field_x, "x")


# ---- moments and projections ----------------------------------------------


@dataclass
class MacroMoments:
    """Spatial fields (a+, a-, b, c) of the kernel decomposition."""

    a_plus: np.ndarray
    a_minus: np.ndarray
    b: np.ndarray  # shape (3,) + x-shape
    c: np.ndarray


def extract_moments(state):
    """Macroscopic moments a+- = int f dv, b = (1/2) int v (f+ + f-) dv,
    c = int (|v|^2 - 3)/12 (f+ + f-) dv, each as a spatial field."""
    g = state.grid
    ve = g.velocity
    s = state.f_plus + state.f_minus
    a_plus = integrate_v(g, state.f_plus)
    a_minus = integrate_v(g, state.f_minus)
    b = np.stack([0.5 * integrate_v(g, ve.coordinate(j) * s) for j in range(3)])
    w = (ve.speed_squared() - 3.0) / 12.0
    c = integrate_v(g, w * s)
    return MacroMoments(a_plus=a_plus, a_minus=a_minus, b=b, c=c)


def assemble_kernel_field(grid, a, b, c):
    """``(a + v.b + (|v|^2-3) c) mu`` for spatial coefficient fields."""
    ve = grid.velocity
    mu = maxwellian(ve)
    # spatial fields broadcast against trailing velocity axes
    xpad = (slice(None),) * grid.dim_x + (None, None, None)
    out = a[xpad] * mu
    for j in range(3):
        out = out + b[j][xpad] * (ve.coordinate(j) * mu)
    out = out + c[xpad] * ((ve.speed_squared() - 3.0) * mu)
    return out


def project_P(state):
    """Projection onto the local kernel span per species; returns (P f+, P f-)."""
    m = extract_moments(state)
    g = state.grid
    p_plus = assemble_kernel_field(g, m.a_plus, m.b, m.c)
    p_minus = assemble_kernel_field(g, m.a_minus, m.b, m.c)
    return p_plus, p_minus


def project_Pi(state):
    """Global projection: same kernel basis with x-averaged coefficients.

    Coefficients are the volume-normalized spatial averages of the local
    moments, which makes the operator idempotent on the discrete grid.
    """
    m = extract_moments(state)
    g = state.grid
    volx = g.spatial.volume
    a_p = integrate_x(g, m.a_plus) / volx
    a_m = integrate_x(g, m.a_minus) / volx
    b = np.array([integrate_x(g, m.b[j]) / volx for j in range(3)])
    c = integrate_x(g, m.c) / volx
    xshape = g.spatial.shape
    const = lambda val: np.full(xshape, val)
    pi_plus = assemble_kernel_field(g, const(a_p), [const(bj) for bj in b],
                                    const(c))
    pi_minus = assemble_kernel_field(g, const(a_m), [const(bj) for bj in b],
                                     const(c))
    return pi_plus, pi_minus


def projection_upper_constant(grid, k):
    """Explicit discrete constant C_k of the weighted norm equivalence.

    Guarantees ``||P f||^2_k + ||(I-P) f||^2_k <= C_k ||f||^2_k`` on the
    grid, via ``||(I-P) f|| <= ||f|| + ||P f||`` and the exact operator norm
    of the pair projection from the weighted space to itself:
    ``C_k = 2 + 3 B_k^2`` with ``B_k^2 = lambda_max(Gamma N)``, where ``N``
    is the Gram matrix of the synthesis fields in ``L^2(<v>^{2k})`` and
    ``Gamma`` that of the analysis functionals in ``L^2(<v>^{-2k})``.
    """
    ve = grid.velocity
    mu = maxwellian(ve)
    vs = [ve.coordinate(j) for j in range(3)]
    zero = np.zeros_like(mu)
    e2 = (ve.speed_squared() - 3.0) * mu
    synth = [(mu, zero), (zero, mu)]
    synth += [(vs[j] * mu, vs[j] * mu) for j in range(3)]
    synth += [(e2, e2)]
    one = np.ones_like(mu)
    ana = [(one, zero), (zero, one)]
    ana += [(0.5 * vs[j], 0.5 * vs[j]) for j in range(3)]
    ana += [((ve.speed_squared() - 3.0) / 12.0,) * 2]
    w2k = (1.0 + ve.speed_squared()) ** k
    wv = ve.node_weight
    n = len(synth)
    gram_n = np.zeros((n, n))
    gram_g = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            gram_n[i, j] = sum(
                float(np.sum(w2k * a * b)) for a, b in zip(synth[i], synth[j])
            ) * wv
            gram_g[i, j] = sum(
                float(np.sum(a * b / w2k)) for a, b in zip(ana[i], ana[j])
            ) * wv
    b_sq = float(np.max(np.real(np.linalg.eigvals(gram_g @ gram_n))))
    return 2.0 + 3.0 * b_sq


# ---- conservation ----------------------------------------------------------


@dataclass
class ConservedQuantities:
    mass_plus: float
    mass_minus: float
    momentum: np.ndarray  # 3-vector
    energy: float  # kinetic (both species) + field

    @classmethod
    def of(cls, state):
        g = state.grid
        s = state.f_plus + state.f_minus
        ve = g.velocity
        mass_p = integrate_x(g, integrate_v(g, state.f_plus))
        mass_m = integrate_x(g, integrate_v(g, state.f_minus))
        mom = np.array([
            integrate_x(g, integrate_v(g, ve.coordinate(j) * s))
            for j in range(3)
        ])
        kinetic = integrate_x(g, integrate_v(g, ve.speed_squared() * s))
        field = poisson.field_energy(g.spatial, state.phi)
        return cls(mass_p, mass_m, mom, kinetic + field)


@dataclass
class ConservationReport:
    """Absolute values and drifts of the (conse2)-type invariants.

    For perturbation data the conserved quantities are all zero, so the
    relative drifts are normalized by the corresponding magnitude of the
    full reference distribution F = mu: per-species mass ``vol_x``, thermal
    momentum ``2 vol_x`` per component, and kinetic energy ``6 vol_x``.
    """

    values: ConservedQuantities
    reference: ConservedQuantities
    drift_mass_plus: float
    drift_mass_minus: float
    drift_momentum: np.ndarray
    drift_energy: float
    rel_mass_plus: float
    rel_mass_minus: float
    rel_momentum: float
    rel_energy: float

    def max_relative_drift(self):
        return max(self.rel_mass_plus, self.rel_mass_minus,
                   self.rel_momentum, self.rel_energy)


def check_conservation(state, reference):
    if state.grid.shape != reference.grid.shape:
        raise ValueError("states live on different grids")
    cur = ConservedQuantities.of(state)
    ref = ConservedQuantities.of(reference)
    volx = state.grid.spatial.volume
    d_mp = cur.mass_plus - ref.mass_plus
    d_mm = cur.mass_minus - ref.mass_minus
    d_mom = cur.momentum - ref.momentum
    d_en = cur.energy - ref.energy
    return ConservationReport(
        values=cur,
        reference=ref,
        drift_mass_plus=d_mp,
        drift_mass_minus=d_mm,
        drift_momentum=d_mom,
        drift_energy=d_en,
        rel_mass_plus=abs(d_mp) / volx,
        rel_mass_minus=abs(d_mm) / volx,
        rel_momentum=float(np.max(np.abs(d_mom))) / (2.0 * volx),
        rel_energy=abs(d_en) / (6.0 * volx),
    )


# ---- checkpointing ---------------------------------------------------------


def save_checkpoint(path, state):
    """Self-describing binary checkpoint with bit-exact round trip.

    Stores the grid ``header``, the ``time`` and the real-space species
    arrays ``f_plus`` and ``f_minus``; reloading reproduces the state bit for
    bit, and the potential is recomputed from the charge density.
    """
    g = state.grid
    header = {
        "format": _CHECKPOINT_FORMAT,
        "dim_x": g.dim_x,
        "n_x": g.spatial.n_x,
        "length": g.spatial.length,
        "n_v": g.velocity.n_v,
        "cutoff_L": g.velocity.cutoff_L,
    }
    np.savez(
        path,
        header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
        time=np.float64(state.time),
        f_plus=state.f_plus,
        f_minus=state.f_minus,
    )


def load_checkpoint(path):
    with np.load(path) as data:
        header = json.loads(bytes(data["header"]).decode())
        if header["format"] != _CHECKPOINT_FORMAT:
            raise ValueError(f"unknown checkpoint format {header['format']}")
        grid = PhaseGrid(
            SpatialGrid(header["dim_x"], header["n_x"], header["length"]),
            VelocityGrid(header["n_v"], header["cutoff_L"]),
        )
        state = SystemState(grid, data["f_plus"], data["f_minus"],
                            float(data["time"]))
    return state

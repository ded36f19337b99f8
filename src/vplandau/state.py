"""Two-species perturbation state, reference Maxwellian, moments, projections.

The state holds the perturbations ``f_plus, f_minus`` of both species around
the global Maxwellian ``mu(v) = (2 pi)^{-3/2} exp(-|v|^2/2)`` together with
the self-consistent potential.  The potential is never set by callers: it is
recomputed from the charge density on every construction, so a stale-phi
state cannot be built through the public interface.
"""

from __future__ import annotations

import functools
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
)

_CHECKPOINT_FORMAT = 1
_V_AXES = (-3, -2, -1)


def maxwellian(velocity_grid):
    """The reference Maxwellian sampled on the velocity nodes."""
    return (2.0 * math.pi) ** (-1.5) * np.exp(-0.5 * velocity_grid.speed_squared())


@functools.lru_cache(maxsize=None)
def invariants(velocity_grid):
    """The collision invariants ``psi = 1, v_1, v_2, v_3, |v|^2`` and
    ``psi mu``, each stacked on a leading axis; cached per grid, read-only.
    """
    ve = velocity_grid
    psi = np.stack([np.ones(ve.shape), *(ve.coordinate(j) for j in range(3)),
                    ve.speed_squared()])
    psi_mu = psi * maxwellian(ve)
    psi.flags.writeable = psi_mu.flags.writeable = False
    return psi, psi_mu


def invariant_moments(velocity_grid, f):
    """``int psi f dv`` for the collision invariants, stacked on a new
    leading axis.

    The integrals reduce over the trailing three (velocity) axes of ``f``, so
    a phase-space field gives one spatial field per invariant.
    """
    psi = invariants(velocity_grid)[0]
    moments = [np.sum(f, axis=_V_AXES)]  # psi_0 = 1 needs no product
    moments += [np.sum(f * p, axis=_V_AXES) for p in psi[1:]]
    return np.stack(moments) * velocity_grid.node_weight


def conserved_moments(velocity_grid, f_plus, f_minus):
    """Velocity integrals of the pair's conserved densities, as a list.

    The mass of each species, then the momentum and energy moments of
    ``f_plus + f_minus``; each reduces over the trailing velocity axes.
    """
    w = velocity_grid.node_weight
    both = invariant_moments(velocity_grid, f_plus + f_minus)
    return [np.sum(f_plus, axis=_V_AXES) * w,
            np.sum(f_minus, axis=_V_AXES) * w, *both[1:]]


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

    def clone(self):
        return SystemState(self.grid, self.f_plus.copy(), self.f_minus.copy(),
                           self.time)

    def with_fields(self, f_plus, f_minus, time=None):
        return SystemState(self.grid, f_plus, f_minus,
                           self.time if time is None else time)


# ---- moments and projections ----------------------------------------------


def _coefficient_map():
    """Per species, the 6x5 map from the invariant moments ``int psi f dv``
    to the kernel coefficients ``(a+, a-, b_1, b_2, b_3, c)``:
    ``a+- = int f+- dv``, ``b = (1/2) int v (f+ + f-) dv`` and
    ``c = int (|v|^2 - 3)/12 (f+ + f-) dv``.
    """
    a = np.zeros((2, 6, 5))
    for s in range(2):
        a[s, s, 0] = 1.0
        a[s, 2:5, 1:4] = 0.5 * np.eye(3)
        a[s, 5, 0], a[s, 5, 4] = -3.0 / 12.0, 1.0 / 12.0
    a.flags.writeable = False
    return a


_COEFFICIENT_MAP = _coefficient_map()


def kernel_coefficients(velocity_grid, f_plus, f_minus):
    """Coefficients ``(a+, a-, b_1, b_2, b_3, c)`` of the kernel decomposition,
    stacked on a leading axis (see ``_coefficient_map``).
    """
    return sum(np.tensordot(a, invariant_moments(velocity_grid, f), 1)
               for a, f in zip(_COEFFICIENT_MAP, (f_plus, f_minus)))


def kernel_fields(velocity_grid, coef):
    """``(a+- + v.b + (|v|^2 - 3) c) mu`` for both species, from the
    coefficients ``(a+, a-, b_1, b_2, b_3, c)`` on the leading axis of
    ``coef``; its other axes land ahead of the velocity axes.

    ``kernel_fields(ve, np.eye(6))`` is the six-pair basis ``(mu, 0)``,
    ``(0, mu)``, ``(v_j mu, v_j mu)`` and ``((|v|^2 - 3) mu, same)``.
    """
    psi, psi_mu = invariants(velocity_grid)
    shared = [*psi_mu[1:4], (psi[4] - 3.0) * psi_mu[0]]

    def field(a):
        out = np.multiply.outer(a, psi_mu[0])
        for c, basis in zip(coef[2:], shared):
            out += np.multiply.outer(c, basis)
        return out

    return field(coef[0]), field(coef[1])


def project_P_pair(velocity_grid, f_plus, f_minus):
    """Projection of a species pair onto the local kernel span."""
    return kernel_fields(velocity_grid,
                         kernel_coefficients(velocity_grid, f_plus, f_minus))


def project_Pi_pair(velocity_grid, f_plus, f_minus):
    """Global projection of a species pair: the kernel fields of the
    x-averaged coefficients.

    Averaging the local coefficients over the grid nodes makes the operator
    idempotent on the discrete grid.
    """
    coef = kernel_coefficients(velocity_grid, f_plus, f_minus)
    mean = coef.mean(axis=tuple(range(1, coef.ndim)), keepdims=True)
    return kernel_fields(velocity_grid, np.broadcast_to(mean, coef.shape))


def project_P(state):
    """Projection onto the local kernel span per species; returns (P f+, P f-)."""
    return project_P_pair(state.grid.velocity, state.f_plus, state.f_minus)


def project_Pi(state):
    """Global projection of the state's pair; returns (Pi f+, Pi f-)."""
    return project_Pi_pair(state.grid.velocity, state.f_plus, state.f_minus)


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
    psi = invariants(ve)[0]
    synth = np.stack(kernel_fields(ve, np.eye(6)))  # (species, field, v)
    ana = np.einsum("sij,jabc->siabc", _COEFFICIENT_MAP, psi)
    w2k = (1.0 + psi[4]) ** k
    wv = ve.node_weight
    gram_n = np.einsum("siabc,sjabc,abc->ij", synth, synth, w2k) * wv
    gram_g = np.einsum("siabc,sjabc,abc->ij", ana, ana, 1.0 / w2k) * wv
    b_sq = float(np.max(np.real(np.linalg.eigvals(gram_g @ gram_n))))
    return 2.0 + 3.0 * b_sq


# ---- conservation ----------------------------------------------------------


@dataclass
class ConservedQuantities:
    mass_plus: float
    mass_minus: float
    momentum: np.ndarray  # 3-vector
    energy: float  # kinetic (both species) + field
    kinetic: float  # kinetic (both species)

    @classmethod
    def of(cls, state):
        g = state.grid
        m = [integrate_x(g, x) for x in conserved_moments(
            g.velocity, state.f_plus, state.f_minus)]
        field = poisson.field_energy(g.spatial, state.phi)
        return cls(m[0], m[1], np.array(m[2:5]), m[5] + field, m[5])


@dataclass
class ConservationReport:
    """Relative drifts of the (conse2)-type invariants.

    For perturbation data the conserved quantities are all zero, so the
    relative drifts are normalized by the corresponding magnitude of the
    full reference distribution F = mu: per-species mass ``vol_x``, thermal
    momentum ``2 vol_x`` per component, and kinetic energy ``6 vol_x``.
    """

    rel_mass_plus: float
    rel_mass_minus: float
    rel_momentum: float
    rel_energy: float

    def max_relative_drift(self):
        return max(self.rel_mass_plus, self.rel_mass_minus,
                   self.rel_momentum, self.rel_energy)


def check_conservation(state, reference, linearized=False):
    """Drifts of ``state``'s invariants from ``reference``'s.

    The nonlinear system conserves the total energy, kinetic plus field.
    With ``linearized=True`` the energy checked is the kinetic energy alone:
    the linearized field source ``-+ grad(phi) . v mu`` has no ``|v|^2``
    moment and the nonlinear term that balances the field energy is dropped,
    so the linearized system conserves the species masses, the momentum and
    the kinetic energy, but not the field energy.
    """
    if state.grid.shape != reference.grid.shape:
        raise ValueError("states live on different grids")
    cur = ConservedQuantities.of(state)
    ref = ConservedQuantities.of(reference)
    volx = state.grid.spatial.volume
    d_en = (cur.kinetic - ref.kinetic if linearized
            else cur.energy - ref.energy)
    return ConservationReport(
        rel_mass_plus=abs(cur.mass_plus - ref.mass_plus) / volx,
        rel_mass_minus=abs(cur.mass_minus - ref.mass_minus) / volx,
        rel_momentum=float(np.max(np.abs(cur.momentum - ref.momentum)))
        / (2.0 * volx),
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

"""Initial-condition families.

Every constructed state is post-processed the same way:

1. project out the offending global moments so the perturbation satisfies
   the conservation constraints (zero species masses, zero total momentum,
   kinetic energy balancing the field energy) -- the corrections are
   x-homogeneous kernel fields, which leave the potential untouched;
2. verify positivity of the full distribution ``mu + f``; if violated, halve
   the amplitude (with a warning) up to ten times before giving up.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from . import poisson
from .errors import InitialConditionError
from .grid import integrate_v, integrate_x
from .state import SystemState, conserved_moments, kernel_fields, maxwellian
from .weights import bracket

MAX_HALVINGS = 10


def _velocity_profile(grid, profile, tail_power):
    ve = grid.velocity
    mu = maxwellian(ve)
    if profile == "maxwellian":
        return mu
    if profile == "vmu":
        return ve.coordinate(0) * mu
    if profile == "weighted_maxwellian":
        # pushes content to moderate speeds, spreading collision rates
        return bracket(ve) ** tail_power * mu
    if profile == "hermite":
        return (ve.speed_squared() - 3.0) * mu
    if profile == "offdiag":
        # purely microscopic direction (orthogonal to the kernel basis)
        return ve.coordinate(0) * ve.coordinate(1) * mu
    raise InitialConditionError(f"unknown velocity profile {profile!r}")


def _spatial_pattern(grid, family, modes, rng):
    sp = grid.spatial
    xs = [sp.coordinate(a) for a in range(sp.dim_x)]
    two_pi_over_l = 2.0 * math.pi / sp.length

    def mode_for_axis(a):
        return modes[a] if a < len(modes) else 0

    if family == "single_mode":
        pattern = np.ones(sp.shape)
        for a, x in enumerate(xs):
            m = mode_for_axis(a)
            if m:
                pattern = pattern * np.cos(m * two_pi_over_l * x)
        return np.broadcast_to(pattern, sp.shape).copy()
    if family == "two_mode":
        m1 = modes[0] if modes else 1
        m2 = modes[1] if len(modes) > 1 else m1 + 1
        pattern = (np.cos(m1 * two_pi_over_l * xs[0])
                   + 0.5 * np.sin(m2 * two_pi_over_l * xs[0]))
        return np.broadcast_to(pattern, sp.shape).copy()
    if family == "random_bandlimited":
        mmax = max(1, max(abs(m) for m in modes) if modes else 1)
        pattern = np.zeros(sp.shape)
        for a, x in enumerate(xs):
            for m in range(1, mmax + 1):
                c = rng.standard_normal()
                s_coef = rng.standard_normal()
                pattern = pattern + c * np.cos(m * two_pi_over_l * x) \
                    + s_coef * np.sin(m * two_pi_over_l * x)
        scale = np.max(np.abs(pattern))
        return pattern / (scale if scale > 0 else 1.0)
    raise InitialConditionError(f"unknown family {family!r}")


def project_conservation(grid, f_plus, f_minus):
    """Conservation-compatible state from raw perturbation fields.

    Subtracts an x-homogeneous kernel-pair field so that both species
    masses, the total momentum and the kinetic-plus-field energy of the
    perturbation vanish on the grid.  The subtraction is constant in x and
    changes only the mean of the charge density, so the field energy is that
    of the potential of the charge density with its mean removed.
    """
    ve = grid.velocity
    # constraint matrix: functionals of each (x-homogeneous) basis pair, one
    # column per pair
    basis = kernel_fields(ve, np.eye(6))
    mat = np.array(conserved_moments(ve, *basis)) * grid.spatial.volume
    rho = integrate_v(grid, f_plus - f_minus)
    phi = poisson.solve_potential(grid.spatial, rho - np.mean(rho)).phi
    target = np.array([integrate_x(grid, m)
                       for m in conserved_moments(ve, f_plus, f_minus)])
    target[5] += poisson.field_energy(grid.spatial, phi)
    corr_p, corr_m = kernel_fields(ve, np.linalg.solve(mat, target))
    return SystemState(grid, f_plus - corr_p, f_minus - corr_m)


def make_initial_condition(grid, **options):
    """Construct a conservation-compatible, positivity-checked initial state.

    Takes the keyword arguments of :func:`initial_condition_and_halvings`.
    """
    return initial_condition_and_halvings(grid, **options)[0]


def initial_condition_and_halvings(grid, family="single_mode", amplitude=1e-3,
                                   modes=(1,), profile="maxwellian",
                                   tail_power=4.0, species="opposite", seed=0):
    """The initial state and how often its amplitude was halved.

    The effective amplitude is ``amplitude / 2**halvings``.
    """
    if amplitude == 0.0:
        return SystemState.zero(grid), 0
    rng = np.random.default_rng(seed)
    pattern = _spatial_pattern(grid, family, modes, rng)
    prof = _velocity_profile(grid, profile, tail_power)
    if species not in ("opposite", "same"):
        raise InitialConditionError(f"unknown species layout {species!r}")
    sign_minus = -1.0 if species == "opposite" else 1.0
    mu = maxwellian(grid.velocity)
    xpad = (...,) + (None, None, None)
    amp = float(amplitude)
    for attempt in range(MAX_HALVINGS + 1):
        f_plus = amp * pattern[xpad] * prof
        f_minus = sign_minus * amp * pattern[xpad] * prof
        state = project_conservation(grid, f_plus, f_minus)
        min_full = min(float(np.min(mu + state.f_plus)),
                       float(np.min(mu + state.f_minus)))
        if min_full > 0.0:
            return state, attempt
        if attempt < MAX_HALVINGS:
            warnings.warn(
                f"initial data violates positivity (min mu+f = {min_full:.3e});"
                f" halving amplitude to {amp / 2:g}", RuntimeWarning,
                stacklevel=2)
            amp *= 0.5
    raise InitialConditionError(
        f"positivity could not be restored within {MAX_HALVINGS} halvings")

"""Operator checks shared by ``vplandau operator-test`` and the test suite.

Each check takes its inputs (and, where it draws random data, an ``rng``)
and returns the measured defect; the caller decides what passes.  The
thresholds below are the ones ``operator-test`` enforces.  Random velocity
fields come from :func:`vplandau.oracle.random_bandlimited_v`, so a seed
fixes every draw.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import l2_norm
from .landau import q_landau_direct, q_landau_fft
from .oracle import random_bandlimited_v
from .state import (
    invariant_moments,
    maxwellian,
    project_P_pair,
    project_Pi_pair,
)
from .weights import weight_inequality_suite

FFT_ORACLE_TOL = 1e-8
MASS_MOMENT_TOL = 1e-12
CORRECTED_MOMENT_TOL = 1e-12
PROJECTION_TOL = 1e-11


def _vnorm(velocity_grid, f):
    return math.sqrt(float(np.sum(f**2)) * velocity_grid.node_weight)


def oracle_error(tables, rng, pairs):
    """Worst relative L^2 gap between the FFT path and the direct oracle.

    ``pairs`` random band-limited ``(g, f)`` pairs; the oracle evaluates
    ``Q(g, f)`` at ``tables.gamma`` by direct summation.
    """
    ve = tables.velocity_grid
    worst = 0.0
    for _ in range(pairs):
        g = random_bandlimited_v(rng, ve)
        f = random_bandlimited_v(rng, ve)
        qf = q_landau_fft(g, f, tables)
        qd = q_landau_direct(g, f, tables.gamma, ve)
        worst = max(worst, _vnorm(ve, qf - qd) / _vnorm(ve, qd))
    return worst


def mass_moment_error(tables, rng, pairs):
    """Worst ``|int Q(g, f) dv| / int |Q(g, f)| dv`` over random pairs.

    The divergence form makes the mass moment vanish up to the round-off
    of summing ``Q``, which scales with ``Q`` itself, not with the inputs.
    """
    ve = tables.velocity_grid
    worst = 0.0
    for _ in range(pairs):
        g = random_bandlimited_v(rng, ve)
        f = random_bandlimited_v(rng, ve)
        q = q_landau_fft(g, f, tables)
        worst = max(worst, abs(float(np.sum(q))) / float(np.sum(np.abs(q))))
    return worst


def corrected_moment_error(corrector, rhs_plus, rhs_minus):
    """Largest species-summed momentum/energy moment of corrected output."""
    ve = corrector.velocity_grid
    mom = invariant_moments(ve, rhs_plus) + invariant_moments(ve, rhs_minus)
    return float(np.max(np.abs(mom[1:])))


def weight_suite_failures(specs, points):
    """(instances checked, instances failed) of the weight suite per spec."""
    checked = failed = 0
    for spec in specs:
        suite = weight_inequality_suite(spec, points)
        checked += len(suite)
        failed += sum(0 if r.passed else 1 for r in suite)
    return checked, failed


def corrupted_floor_failures(spec, points):
    """Failing floor instances with ``r = 2q``; the theory predicts > 0."""
    corrupted = weight_inequality_suite(spec, points, r_override=2.0 * spec.q)
    return sum(1 for r in corrupted
               if r.name.startswith("floor") and not r.passed)


def projection_defects(grid, rng, samples):
    """Worst relative defects of ``P^2 = P``, ``Pi^2 = Pi`` and ``Pi(I-P) = 0``.

    Each sample is a species pair of Maxwellian-times-polynomial fields
    with random coefficients and a cosine/sine modulation in x.  The
    projections act on the raw pairs, which need not be charge neutral.
    """
    mu = maxwellian(grid.velocity)
    ve = grid.velocity
    x = grid.spatial.coordinate(0)[:, None, None, None]
    worst = {"p_idempotent": 0.0, "pi_idempotent": 0.0, "pi_of_micro": 0.0}

    def update(key, pair, scale):
        worst[key] = max(worst[key], max(
            l2_norm(grid, pair[i]) for i in range(2)) / scale)

    for _ in range(samples):
        c = rng.standard_normal(5)
        f1 = (1 + 0.4 * c[0] * np.cos(x)) * mu * (
            c[1] + 0.2 * c[2] * ve.coordinate(0) + 0.1 * ve.speed_squared())
        f2 = (1 - 0.3 * np.sin(x) * c[3]) * mu * (
            1 + 0.2 * c[4] * ve.coordinate(1) * ve.coordinate(2))
        scale = max(l2_norm(grid, f1), l2_norm(grid, f2))
        p1 = project_P_pair(ve, f1, f2)
        p2 = project_P_pair(ve, *p1)
        update("p_idempotent", (p2[0] - p1[0], p2[1] - p1[1]), scale)
        q1 = project_Pi_pair(ve, f1, f2)
        q2 = project_Pi_pair(ve, *q1)
        update("pi_idempotent", (q2[0] - q1[0], q2[1] - q1[1]), scale)
        update("pi_of_micro",
               project_Pi_pair(ve, f1 - p1[0], f2 - p1[1]), scale)
    return worst

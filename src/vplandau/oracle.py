"""Independent brute-force references used by the test suite.

Everything here is deliberately slow and algorithmically independent of the
fast paths it validates: finite differences instead of spectral derivatives,
re-sampled high-resolution quadrature instead of the production grid, and
closed-form Gaussian moments.  Oracles accept analytically specified inputs
(callables) wherever re-sampling is required, so interpolation never enters.
The seeded random velocity fields of the operator checks are drawn here
too, so the CLI's ``operator_test`` and the test suite share one generator.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import UnsupportedOrderError
from .grid import (PhaseGrid, SpatialGrid, VelocityGrid, axis_derivative,
                   l2_norm)

# integral |v|^(2n) mu dv for n = 0..3; the recursion multiplies by (2n+1).
GAUSSIAN_EVEN_MOMENTS = (1.0, 3.0, 15.0, 105.0)


def random_bandlimited_v(rng, velocity_grid):
    """Random real trigonometric polynomial on the velocity box, peak 1.

    30 complex coefficients at wavenumbers ``|m_j| <= 3`` drawn from
    ``rng``; the shared random input of the operator checks.
    """
    n = velocity_grid.n_v
    c = np.zeros((n, n, n), dtype=complex)
    for _ in range(30):
        m = rng.integers(-3, 4, size=3)
        c[m[0] % n, m[1] % n, m[2] % n] += (rng.standard_normal()
                                            + 1j * rng.standard_normal())
    f = np.fft.ifftn(c).real
    peak = np.max(np.abs(f))
    return f / (peak if peak > 0 else 1.0)


def fd_derivative(fn, velocity_grid, axis, order=1, levels=3):
    """Central-difference derivative with a Richardson order estimate.

    ``fn`` is a callable ``fn(v1, v2, v3)`` so it can be evaluated at
    staggered points; the derivative is returned on the nodes of
    ``velocity_grid`` at the finest level together with the estimated
    convergence order.
    """
    if order not in (1, 2):
        raise UnsupportedOrderError(f"order must be 1 or 2, got {order}")
    coords = [velocity_grid.coordinate(j).astype(float) for j in range(3)]

    def central(h):
        shifted_p = list(coords)
        shifted_m = list(coords)
        shifted_p[axis] = coords[axis] + h
        shifted_m[axis] = coords[axis] - h
        if order == 1:
            return (fn(*shifted_p) - fn(*shifted_m)) / (2.0 * h)
        return (fn(*shifted_p) - 2.0 * fn(*coords) + fn(*shifted_m)) / h**2

    h0 = velocity_grid.spacing
    approx = [central(h0 / 2**lev) for lev in range(max(levels, 3))]
    finest = approx[levels - 1] if levels <= len(approx) else approx[-1]
    orders = []
    for lev in range(len(approx) - 2):
        d1 = np.max(np.abs(approx[lev] - approx[lev + 1]))
        d2 = np.max(np.abs(approx[lev + 1] - approx[lev + 2]))
        if d1 > 0 and d2 > 0:
            orders.append(math.log2(d1 / d2))
    est = float(np.mean(orders)) if orders else float("nan")
    return finest, est


def refined_phase_grid(grid, factor):
    """The same physical phase space sampled ``factor`` times finer."""
    if factor not in (2, 4):
        raise ValueError("refinement factor must be 2 or 4")
    sp = grid.spatial
    ve = grid.velocity
    return PhaseGrid(
        SpatialGrid(sp.dim_x, sp.n_x * factor, sp.length),
        VelocityGrid(ve.n_v * factor, ve.cutoff_L),
    )


def highres_norm(fn, grid, weight_fn, alpha_order, beta_orders, factor=2):
    """Weighted derivative norm evaluated on a ``factor``-refined grid.

    ``fn(x_coords, v1, v2, v3)`` analytically specifies the field (so it can
    be re-sampled), ``weight_fn(v1, v2, v3)`` the velocity weight.
    ``alpha_order`` is a tuple of per-spatial-axis derivative orders and
    ``beta_orders`` per-velocity-axis orders; derivatives are spectral on the
    refined grid, which is an independent resolution from the fast path.
    """
    fine = refined_phase_grid(grid, factor)
    xs = [fine.spatial.coordinate(j) for j in range(fine.dim_x)]
    vs = [fine.velocity.coordinate(j) for j in range(3)]
    # broadcast spatial (x-shape) and velocity (v-shape) blocks to phase shape
    xs_b = [x.reshape(x.shape + (1, 1, 1)) for x in xs]
    values = np.broadcast_to(fn(xs_b, *vs), fine.shape).astype(float).copy()
    for axis, o in enumerate(tuple(alpha_order) + tuple(beta_orders)):
        for _ in range(o):
            values = axis_derivative(fine.axis_grid(axis), values, axis)
    w = weight_fn(*vs)
    return l2_norm(fine, values * w, "xv")

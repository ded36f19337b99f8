"""Brute-force reference implementations used by the other test modules."""

import math

import numpy as np
import pytest

from vplandau.grid import (
    PhaseGrid,
    SpatialGrid,
    VelocityGrid,
    axis_derivative,
)
from vplandau.oracle import (
    GAUSSIAN_EVEN_MOMENTS,
    fd_derivative,
    highres_norm,
    refined_phase_grid,
)
from vplandau.state import maxwellian


class TestGaussianMoments:
    def test_table_values(self):
        assert GAUSSIAN_EVEN_MOMENTS == (1.0, 3.0, 15.0, 105.0)

    def test_recursion(self):
        # m_{n+1} = (2n + 3) m_n for moments of |v|^{2n} against mu
        for n in range(3):
            assert GAUSSIAN_EVEN_MOMENTS[n + 1] == pytest.approx(
                (2 * n + 3) * GAUSSIAN_EVEN_MOMENTS[n])

    def test_against_quadrature(self):
        ve = VelocityGrid(32, 10.0)
        mu = maxwellian(ve)
        sp2 = ve.speed_squared()
        for n in range(4):
            grid_val = float(np.sum(sp2**n * mu)) * ve.node_weight
            assert grid_val == pytest.approx(GAUSSIAN_EVEN_MOMENTS[n],
                                             rel=1e-10)


class TestFiniteDifferences:
    def test_single_mode_order_two(self):
        ve = VelocityGrid(16, 8.0)
        fn = lambda v1, v2, v3: np.sin(math.pi / 8.0 * v1)
        d, order = fd_derivative(fn, ve, axis=0, order=1, levels=4)
        assert order == pytest.approx(2.0, abs=0.1)
        exact = math.pi / 8.0 * np.cos(math.pi / 8.0 * ve.coordinate(0))
        h = ve.spacing / 2**3
        assert np.max(np.abs(d - exact)) <= 1.0 * h**2

    def test_constant_field(self):
        ve = VelocityGrid(16, 8.0)
        d, _ = fd_derivative(lambda v1, v2, v3: np.ones_like(v1), ve, 0)
        assert np.max(np.abs(d)) == 0.0

    def test_fd_vs_spectral_converges(self):
        # compare on mu * v1 at two fd refinements: difference shrinks
        g = PhaseGrid(SpatialGrid(1, 4), VelocityGrid(16, 8.0))
        ve = g.velocity
        mu = maxwellian(ve)
        field = np.broadcast_to(ve.coordinate(0) * mu, g.shape).copy()
        spec = axis_derivative(g.axis_grid(1), field, 1, 1)[0]

        def fn(v1, v2, v3):
            return (v1 * (2 * math.pi) ** -1.5
                    * np.exp(-0.5 * (v1**2 + v2**2 + v3**2)))

        d1, _ = fd_derivative(fn, ve, 0, levels=1)
        d3, _ = fd_derivative(fn, ve, 0, levels=3)
        err1 = np.max(np.abs(d1 - spec))
        err3 = np.max(np.abs(d3 - spec))
        assert err3 < err1 / 4.0


class TestHighresNorm:
    def test_zero_field(self, desk_grid):
        val = highres_norm(lambda xs, v1, v2, v3: 0.0 * v1, desk_grid,
                           lambda v1, v2, v3: np.ones_like(v1), (0,),
                           (0, 0, 0), factor=2)
        assert val == 0.0

    def test_refinement_stability(self, desk_grid):
        # band-limited analytic field: factor-2 and factor-4 values agree
        def fn(xs, v1, v2, v3):
            return np.cos(xs[0]) * np.exp(-0.5 * (v1**2 + v2**2 + v3**2))

        def w(v1, v2, v3):
            return (1.0 + v1**2 + v2**2 + v3**2) ** 2

        v2_ = highres_norm(fn, desk_grid, w, (1,), (0, 1, 0), factor=2)
        v4_ = highres_norm(fn, desk_grid, w, (1,), (0, 1, 0), factor=4)
        assert abs(v2_ - v4_) <= 1e-8 * abs(v4_)

    def test_refined_grid_shape(self, desk_grid):
        fine = refined_phase_grid(desk_grid, 2)
        assert fine.spatial.n_x == 32 and fine.velocity.n_v == 32
        with pytest.raises(ValueError):
            refined_phase_grid(desk_grid, 3)

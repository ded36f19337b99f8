"""Spectral grid primitives: derivatives, quadrature, error budgets."""

import math

import numpy as np
import pytest
import scipy.fft as sfft

from vplandau.errors import GridMismatchError, UnsupportedOrderError
from vplandau.grid import (
    PhaseGrid,
    SpatialGrid,
    VelocityGrid,
    along,
    axis_derivative,
    derivative_matrix,
    derivative_multiplier,
    integrate_v,
    integrate_x,
    l2_norm,
    resolution_tolerance,
    truncation_tolerance,
)
from vplandau.state import maxwellian

from conftest import random_bandlimited_v


def fft_derivative(axis_grid, values, axis, order):
    """Reference derivative by transforms: ``rfft``, the first ``n // 2 + 1``
    entries of :func:`derivative_multiplier`, ``irfft``; a complex field
    is differentiated part by part."""
    if np.iscomplexobj(values):
        return (fft_derivative(axis_grid, values.real, axis, order)
                + 1j * fft_derivative(axis_grid, values.imag, axis, order))
    n = values.shape[axis]
    mult = derivative_multiplier(axis_grid, order)[: n // 2 + 1]
    hat = sfft.rfft(values, axis=axis, norm="forward")
    hat *= along(mult, axis, values.ndim)
    return sfft.irfft(hat, n=n, axis=axis, norm="forward")


class TestGridConstruction:
    def test_power_of_two_enforced(self):
        with pytest.raises(ValueError):
            SpatialGrid(1, 12)
        with pytest.raises(ValueError):
            VelocityGrid(2, 8.0)
        with pytest.raises(ValueError):
            SpatialGrid(4, 16)

    @pytest.mark.parametrize("size", [0.0, -1.0, math.nan, math.inf])
    def test_sizes_must_be_positive_and_finite(self, size):
        with pytest.raises(ValueError, match="cutoff_L must be positive and"):
            VelocityGrid(16, size)
        with pytest.raises(ValueError, match="length must be positive and"):
            SpatialGrid(1, 16, size)

    def test_wavenumbers_are_scaled_integers(self):
        sp = SpatialGrid(1, 16)
        k = sp.axis_wavenumbers()
        assert np.allclose(np.sort(k), np.arange(-8, 8))
        ve = VelocityGrid(16, 8.0)
        eta = ve.axis_wavenumbers()
        assert np.allclose(np.sort(eta), np.arange(-8, 8) * math.pi / 8.0)

    def test_velocity_nodes_and_weight(self):
        ve = VelocityGrid(16, 8.0)
        nodes = ve.axis_nodes()
        assert nodes[0] == -8.0
        assert np.allclose(np.diff(nodes), 1.0)
        assert ve.node_weight == pytest.approx(1.0)

    def test_maxwellian_mass_within_truncation(self):
        ve = VelocityGrid(16, 8.0)
        mass = float(np.sum(maxwellian(ve))) * ve.node_weight
        assert abs(mass - 1.0) <= truncation_tolerance(8.0, 16, 0)


class TestTransforms:
    def test_shape_mismatch_raises(self, desk_grid):
        with pytest.raises(GridMismatchError):
            integrate_v(desk_grid, np.ones((3, 3)))

    def test_parseval(self, desk_grid, rng):
        vals = rng.standard_normal(desk_grid.shape)
        a = l2_norm(desk_grid, vals)
        # forward-normalized coefficients: Parseval with the box volume
        vol = (desk_grid.spatial.volume
               * (2.0 * desk_grid.velocity.cutoff_L) ** 3)
        coeffs = np.fft.fftn(vals, norm="forward")
        b = math.sqrt(vol * float(np.sum(np.abs(coeffs) ** 2)))
        assert abs(a - b) <= 1e-12 * a


def derivative(grid, values, axis, order=1):
    """The spectral derivative along flat array ``axis`` of a phase field."""
    return axis_derivative(grid.axis_grid(axis), values, axis, order)


def integrate_xv(grid, values):
    """The phase-space integral of a field, by the package's quadratures."""
    return integrate_x(grid, integrate_v(grid, values))


class TestDerivatives:
    def test_cosine_derivative(self, desk_grid):
        x = desk_grid.spatial.coordinate(0)[:, None, None, None]
        vals = np.broadcast_to(np.cos(x), desk_grid.shape).copy()
        d = derivative(desk_grid, vals, 0)
        assert np.max(np.abs(d + np.sin(x) * np.ones_like(vals))) < 1e-12

    def test_gaussian_velocity_derivative(self, desk_grid):
        mu = maxwellian(desk_grid.velocity)
        vals = np.broadcast_to(mu, desk_grid.shape).copy()
        d = derivative(desk_grid, vals, 1)
        v1 = desk_grid.velocity.coordinate(0)
        # limited by the Maxwellian's own spectral resolution at this h
        tol = resolution_tolerance(8.0, 16, 1) * np.max(mu)
        assert np.max(np.abs(d + v1 * mu)) <= tol

    def test_second_derivative_composes(self, desk_grid, rng):
        f = random_bandlimited_v(rng, desk_grid.velocity)
        vals = np.broadcast_to(f, desk_grid.shape).copy()
        twice = derivative(desk_grid, derivative(desk_grid, vals, 2), 2)
        once = derivative(desk_grid, vals, 2, 2)
        assert np.max(np.abs(twice - once)) <= 1e-12 * np.max(np.abs(vals))

    def test_unsupported_order(self, desk_grid):
        with pytest.raises(UnsupportedOrderError):
            derivative(desk_grid, np.zeros(desk_grid.shape), 1, 3)

    def test_second_spatial_axis(self):
        grid = PhaseGrid(SpatialGrid(2, 8), VelocityGrid(8, 8.0))
        x2 = grid.spatial.coordinate(1)[..., None, None, None]
        vals = np.broadcast_to(np.sin(2 * x2), grid.shape).copy()
        d1 = derivative(grid, vals, 1)
        d2 = derivative(grid, vals, 1, 2)
        assert np.max(np.abs(d1 - 2 * np.cos(2 * x2))) < 1e-12
        assert np.max(np.abs(d2 + 4 * np.sin(2 * x2))) < 1e-12
        assert np.max(np.abs(derivative(grid, vals, 0))) < 1e-14

    @pytest.mark.parametrize("axis_grid", [SpatialGrid(2, 8),
                                           VelocityGrid(8, 4.0)])
    def test_multiplier_nyquist_rule(self, axis_grid):
        k = axis_grid.axis_wavenumbers()
        m1 = derivative_multiplier(axis_grid, 1)
        m2 = derivative_multiplier(axis_grid, 2)
        # odd order: the Nyquist alias is zeroed; even order: kept, -k^2
        assert m1[4] == 0.0 and k[4] != 0.0
        assert np.array_equal(np.delete(m1, 4), np.delete(1j * k, 4))
        assert np.array_equal(m2, -k**2)
        assert m2[4] == -k[4] ** 2 != 0.0

    def test_multiplier_cached_read_only(self):
        m = derivative_multiplier(VelocityGrid(8, 8.0), 1)
        assert m is derivative_multiplier(VelocityGrid(8, 8.0), 1)
        with pytest.raises(ValueError):
            m[1] = 0.0
        with pytest.raises(UnsupportedOrderError):
            derivative_multiplier(VelocityGrid(8, 8.0), 3)
        d = derivative_matrix(VelocityGrid(8, 8.0), 2)
        assert d is derivative_matrix(VelocityGrid(8, 8.0), 2)
        with pytest.raises(ValueError):
            d[0, 0] = 0.0
        with pytest.raises(UnsupportedOrderError):
            derivative_matrix(VelocityGrid(8, 8.0), 3)

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("axis", range(5))
    def test_matches_the_transform_derivative(self, rng, axis, order, dtype):
        grid = PhaseGrid(SpatialGrid(2, 8), VelocityGrid(8, 4.0))
        vals = rng.standard_normal(grid.shape).astype(dtype)
        if dtype is complex:
            vals += 1j * rng.standard_normal(grid.shape)
        ag = grid.axis_grid(axis)
        got = axis_derivative(ag, vals, axis, order)
        ref = fft_derivative(ag, vals, axis, order)
        assert got.dtype == ref.dtype
        assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("axis", range(5))
    def test_real_path_matches_complex_path(self, rng, axis, order):
        # real input takes the real matrix product, complex input the
        # complex one; each line is a real signal, so the real parts agree
        grid = PhaseGrid(SpatialGrid(2, 8), VelocityGrid(8, 4.0))
        vals = rng.standard_normal(grid.shape)
        ag = grid.axis_grid(axis)
        real = axis_derivative(ag, vals, axis, order)
        ref = axis_derivative(ag, vals.astype(complex), axis, order).real
        assert real.dtype == np.float64
        assert (np.linalg.norm(real - ref)
                <= 1e-14 * np.linalg.norm(ref))

    def test_complex_input_stays_complex(self, rng):
        ve = VelocityGrid(8, 4.0)
        vals = rng.standard_normal(ve.shape) + 1j * rng.standard_normal(ve.shape)
        d = axis_derivative(ve, vals, 1)
        assert np.iscomplexobj(d)
        # linear over the real and imaginary parts, each a real signal
        want = (axis_derivative(ve, vals.real, 1)
                + 1j * axis_derivative(ve, vals.imag, 1))
        assert np.max(np.abs(d - want)) <= 1e-14 * np.max(np.abs(want))

    def test_derivative_integrates_to_zero(self, desk_grid, rng):
        vals = rng.standard_normal(desk_grid.shape)
        d = derivative(desk_grid, vals, 0)
        integral = integrate_xv(desk_grid, d)
        assert abs(integral) <= 1e-12 * l2_norm(desk_grid, vals)


class TestQuadrature:
    def test_gaussian_moments(self, desk_grid):
        ve = desk_grid.velocity
        mu = np.broadcast_to(maxwellian(ve), desk_grid.shape).copy()
        volx = desk_grid.spatial.volume
        m0 = integrate_xv(desk_grid, mu) / volx
        assert abs(m0 - 1.0) <= truncation_tolerance(8.0, 16, 0)
        sp2 = ve.speed_squared()
        m2 = integrate_xv(desk_grid, sp2 * mu) / volx
        assert abs(m2 - 3.0) <= truncation_tolerance(8.0, 16, 2)
        m4 = integrate_xv(desk_grid, sp2**2 * mu) / volx
        assert abs(m4 - 15.0) <= truncation_tolerance(8.0, 16, 4)

    def test_v_integral_returns_spatial_field(self, desk_grid, rng):
        vals = rng.standard_normal(desk_grid.shape)
        out = integrate_v(desk_grid, vals)
        assert out.shape == desk_grid.spatial.shape

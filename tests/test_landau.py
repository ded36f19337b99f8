"""Landau collision operator: kernels, FFT path, direct oracle, correction."""

import math

import numpy as np
import pytest

from vplandau.errors import CostGuardError, GridMismatchError, ParameterError
from vplandau.grid import VelocityGrid, PhaseGrid, SpatialGrid, integrate_v
from vplandau.landau import (
    ConservativeCorrector,
    apply_collision_field,
    apply_linearized_collision,
    build_kernel_tables,
    q_landau_direct,
    q_landau_fft,
)
from vplandau.state import SystemState, maxwellian

from conftest import random_bandlimited_v


def vnorm(ve, f):
    return math.sqrt(float(np.sum(f**2)) * ve.node_weight)


class TestKernelTables:
    def test_gamma_range_guard(self):
        with pytest.raises(ParameterError):
            build_kernel_tables(-3.5, VelocityGrid(16, 8.0))
        with pytest.raises(ParameterError):
            build_kernel_tables(1.5, VelocityGrid(16, 8.0))

    def test_projector_values_gamma0(self):
        # phi^{11}(1,0,0) = 0, phi^{22}(1,0,0) = 1 for gamma = 0
        ve = VelocityGrid(16, 8.0)
        tables = build_kernel_tables(0.0, ve, measure=False)
        off, phis, derivs = tables.sampled_kernels()
        i = int(np.argmin(np.abs(off - 1.0)))
        z = int(np.argmin(np.abs(off)))
        assert phis[0][i, z, z] == pytest.approx(0.0, abs=1e-14)
        assert phis[1][i, z, z] == pytest.approx(1.0, rel=1e-14)

    def test_projector_values_coulomb(self):
        # |u|^{-1} projector at u = (2,0,0): phi^{11} = 0, phi^{22} = 1/2
        ve = VelocityGrid(16, 8.0)
        tables = build_kernel_tables(-3.0, ve, measure=False)
        off, phis, derivs = tables.sampled_kernels()
        i = int(np.argmin(np.abs(off - 2.0)))
        z = int(np.argmin(np.abs(off)))
        assert phis[0][i, z, z] == pytest.approx(0.0, abs=1e-14)
        assert phis[1][i, z, z] == pytest.approx(0.5, rel=1e-14)

    def test_derivative_identity_gamma0(self):
        # d_j phi^{1j}(u) = -2 |u|^0 u_1 = -2 at u = (1,1,0)
        ve = VelocityGrid(16, 8.0)
        tables = build_kernel_tables(0.0, ve, measure=False)
        off, phis, derivs = tables.sampled_kernels()
        i = int(np.argmin(np.abs(off - 1.0)))
        z = int(np.argmin(np.abs(off)))
        assert derivs[0][i, i, z] == pytest.approx(-2.0, rel=1e-14)

    def test_projection_property_pointwise(self):
        # phi^{ij}(u) u_j = 0 at every sampled u != 0, corrections included
        ve = VelocityGrid(8, 4.0)
        for gamma in (-3.0, -1.0, 0.5):
            tables = build_kernel_tables(gamma, ve, measure=False)
            off, phis, derivs = tables.sampled_kernels()
            u = [off[:, None, None], off[None, :, None], off[None, None, :]]
            order = {(0, 0): 0, (1, 1): 1, (2, 2): 2,
                     (0, 1): 3, (0, 2): 4, (1, 2): 5}
            for i in range(3):
                dot = sum(
                    phis[order[(min(i, j), max(i, j))]] * u[j]
                    for j in range(3))
                center = len(off) // 2
                dot[center, center, center] = 0.0
                assert np.max(np.abs(dot)) < 1e-12

    def test_positive_semidefinite_sampled(self):
        ve = VelocityGrid(8, 4.0)
        tables = build_kernel_tables(-3.0, ve, measure=False)
        off, phis, _ = tables.sampled_kernels()
        n1 = off.size
        mat = np.zeros((n1, n1, n1, 3, 3))
        order = {(0, 0): 0, (1, 1): 1, (2, 2): 2,
                 (0, 1): 3, (0, 2): 4, (1, 2): 5}
        for (i, j), k in order.items():
            mat[..., i, j] = phis[k]
            mat[..., j, i] = phis[k]
        eigs = np.linalg.eigvalsh(mat)
        assert eigs.min() >= -1e-12

    def test_epsilon_op_measured_and_decreasing(self):
        eps = {}
        for nv in (16, 32):
            tables = build_kernel_tables(-1.0, VelocityGrid(nv, 8.0))
            eps[nv] = tables.epsilon_op
        assert eps[16] < 0.1
        assert eps[32] < eps[16] / 4.0


class TestQEvaluation:
    def test_equilibrium_annihilation(self):
        ve = VelocityGrid(16, 8.0)
        mu = maxwellian(ve)
        for gamma in (-3.0, 0.0):
            tables = build_kernel_tables(gamma, ve, measure=False)
            q = q_landau_fft(mu, mu, tables)
            assert vnorm(ve, q) / vnorm(ve, mu) < 0.2

    def test_shifted_maxwellian_annihilation(self):
        # all Maxwellians annihilate Q; residual stays at the eps_op scale
        ve = VelocityGrid(16, 8.0)
        tables = build_kernel_tables(-1.0, ve)
        v = [ve.coordinate(j) for j in range(3)]
        shift = np.exp(-0.5 * ((v[0] - 0.3) ** 2 + v[1] ** 2 + v[2] ** 2))
        shift *= (2 * math.pi) ** -1.5
        q = q_landau_fft(shift, shift, tables)
        assert vnorm(ve, q) / vnorm(ve, shift) <= 5.0 * tables.epsilon_op

    def test_zero_first_argument(self, rng):
        ve = VelocityGrid(16, 8.0)
        tables = build_kernel_tables(-2.0, ve, measure=False)
        f = random_bandlimited_v(rng, ve)
        q = q_landau_fft(np.zeros(ve.shape), f, tables)
        assert np.max(np.abs(q)) == 0.0

    def test_bilinearity(self, rng):
        ve = VelocityGrid(16, 8.0)
        tables = build_kernel_tables(-1.0, ve, measure=False)
        g = random_bandlimited_v(rng, ve)
        f = random_bandlimited_v(rng, ve)
        q = q_landau_fft(g, f, tables)
        q_scaled = q_landau_fft(2.0 * g, -3.0 * f, tables)
        assert np.max(np.abs(q_scaled + 6.0 * q)) <= 1e-12 * np.max(np.abs(q))

    def test_fft_matches_direct_oracle(self, rng):
        ve = VelocityGrid(16, 8.0)
        for gamma in (-3.0, 1.0):
            tables = build_kernel_tables(gamma, ve, measure=False)
            g = random_bandlimited_v(rng, ve)
            f = random_bandlimited_v(rng, ve)
            qf = q_landau_fft(g, f, tables)
            qd = q_landau_direct(g, f, gamma, ve)
            assert vnorm(ve, qf - qd) <= 1e-8 * vnorm(ve, qd)

    def test_oracle_cost_guard(self, rng):
        ve = VelocityGrid(32, 8.0)
        g = np.zeros(ve.shape)
        with pytest.raises(CostGuardError):
            q_landau_direct(g, g, -1.0, ve)

    def test_grid_mismatch(self, rng):
        ve = VelocityGrid(16, 8.0)
        tables = build_kernel_tables(0.0, ve, measure=False)
        with pytest.raises(GridMismatchError):
            q_landau_fft(np.zeros((8, 8, 8)), np.zeros((8, 8, 8)), tables)

    def test_mass_moment_vanishes(self, rng):
        ve = VelocityGrid(16, 8.0)
        tables = build_kernel_tables(-3.0, ve, measure=False)
        g = random_bandlimited_v(rng, ve)
        f = random_bandlimited_v(rng, ve)
        q = q_landau_fft(g, f, tables)
        mass = abs(float(np.sum(q)) * ve.node_weight)
        assert mass <= 1e-12 * vnorm(ve, g) * vnorm(ve, f)

    def test_momentum_energy_shrink_under_refinement(self):
        # weak-form symmetry: moments of Q(f, f) vanish as the grid refines
        vals = {}
        for nv in (16, 32):
            ve = VelocityGrid(nv, 8.0)
            tables = build_kernel_tables(-1.0, ve, measure=False)
            v1 = ve.coordinate(0)
            mu = maxwellian(ve)
            f = (1.0 + 0.3 * v1) * mu
            q = q_landau_fft(f, f, tables)
            mom = abs(float(np.sum(v1 * q)) * ve.node_weight)
            en = abs(float(np.sum(ve.speed_squared() * q)) * ve.node_weight)
            vals[nv] = max(mom, en)
        assert vals[32] < vals[16] / 4.0

    def test_literal_derivative_placement_converges(self, rng):
        # the (g_* d_j f - f d_j g_*) form with spectral d_j g agrees with
        # the kernel-identity form only up to a quadrature defect that
        # shrinks under refinement
        defects = {}
        for nv in (8, 16):
            ve = VelocityGrid(nv, 8.0)
            mu = maxwellian(ve)
            g = (1.0 + 0.2 * ve.coordinate(0)) * mu
            f = (1.0 - 0.1 * ve.speed_squared() / 10.0) * mu
            qk = q_landau_direct(g, f, -1.0, ve, derivative_on="kernel")
            ql = q_landau_direct(g, f, -1.0, ve, derivative_on="g")
            defects[nv] = vnorm(ve, qk - ql) / max(vnorm(ve, qk), 1e-300)
        assert defects[16] < defects[8]


class TestConservativeCorrection:
    def test_corrected_moments_vanish(self, rng, small_grid):
        from vplandau.initial import make_initial_condition

        tables = build_kernel_tables(-3.0, small_grid.velocity, measure=False)
        state = make_initial_condition(small_grid, amplitude=2e-3, seed=5)
        corr = ConservativeCorrector(small_grid.velocity)
        rp, rm = apply_collision_field(state, tables, conservative=True,
                                       corrector=corr)
        moments = corr.moments(rp) + corr.moments(rm)
        # momentum and energy moments exactly zero; mass stays exact anyway
        assert np.max(np.abs(moments[1:])) <= 1e-12
        assert np.max(np.abs(moments[0])) <= 1e-12

    def test_mass_moment_pointwise_in_x(self, small_grid):
        from vplandau.initial import make_initial_condition

        tables = build_kernel_tables(-1.0, small_grid.velocity, measure=False)
        state = make_initial_condition(small_grid, amplitude=2e-3, seed=6)
        rp, rm = apply_collision_field(state, tables, conservative=False)
        scale = math.sqrt(float(np.sum(state.f_plus**2))
                          * small_grid.cell_volume)
        for r in (rp, rm):
            mass_x = integrate_v(small_grid, r)
            assert np.max(np.abs(mass_x)) <= 1e-12 * max(scale, 1e-300)


class TestCollisionField:
    def test_zero_state_is_fixed_point(self, small_grid):
        tables = build_kernel_tables(-3.0, small_grid.velocity, measure=False)
        state = SystemState.zero(small_grid)
        rp, rm = apply_collision_field(state, tables)
        assert np.max(np.abs(rp)) == 0.0 and np.max(np.abs(rm)) == 0.0

    def test_scaled_maxwellian_family(self, small_grid):
        # f_pm = eps mu: RHS = Q(2 eps mu, mu) + Q((2 + 2 eps) mu, eps mu)
        # vanishes up to the measured equilibrium residual scale
        tables = build_kernel_tables(-3.0, small_grid.velocity)
        mu = maxwellian(small_grid.velocity)
        eps = 1e-2
        f = eps * np.broadcast_to(mu, small_grid.shape).copy()
        state = SystemState(small_grid, f, f.copy())
        rp, _ = apply_collision_field(state, tables, conservative=False)
        ve = small_grid.velocity
        scale = eps * vnorm(ve, mu)
        # RHS is a bilinear combination ~ 4 eps Q-type terms of size eps_op
        assert vnorm(ve, rp[0]) <= 10.0 * tables.epsilon_op * scale


class TestLinearizedCollision:
    @pytest.mark.parametrize("gamma", [-3.0, 0.0])
    def test_full_minus_linearized_is_quadratic_part(self, rng, small_grid,
                                                     gamma):
        # [Q(S, mu) + Q(2 mu + S, f)] - [Q(S, mu) + Q(2 mu, f)] = Q(S, f)
        ve = small_grid.velocity
        mu = maxwellian(ve)
        x = small_grid.spatial.coordinate(0)[:, None, None, None]
        fp = 1e-2 * np.cos(x) * random_bandlimited_v(rng, ve) * mu
        fm = 1e-2 * np.sin(x) * random_bandlimited_v(rng, ve) * mu
        state = SystemState(small_grid, fp, fm)
        tables = build_kernel_tables(gamma, ve, measure=False)
        full = apply_collision_field(state, tables, conservative=False)
        lin = apply_linearized_collision(fp, fm, tables)
        for f, r_full, r_lin in zip((fp, fm), full, lin):
            quad = q_landau_fft(fp + fm, f, tables)
            scale = np.linalg.norm(r_full)
            assert np.linalg.norm(quad) > 1e-6 * scale
            assert np.linalg.norm(r_full - r_lin - quad) <= 1e-12 * scale

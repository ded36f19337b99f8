"""Landau collision operator: kernels, fast path, direct oracle, correction."""

import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest

from vplandau import landau
from vplandau.errors import CostGuardError, GridMismatchError, ParameterError
from vplandau.grid import (
    PhaseGrid,
    SpatialGrid,
    VelocityGrid,
    integrate_v,
    v_derivative_trailing,
)
from vplandau.landau import (
    ConservativeCorrector,
    LandauKernelTables,
    apply_collision_field,
    apply_linearized_collision,
    build_kernel_tables,
    convolve_tables,
    q_landau_direct,
    q_landau_fft,
)
from vplandau.state import SystemState, invariant_moments, maxwellian

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


    def test_kernel_data_read_only_and_caches_declared(self):
        # the Maxwellian's convolutions and derivatives are built with the
        # tables, read-only; the stiffness estimate is the one lazy cache
        ve = VelocityGrid(8, 6.0)
        tables = build_kernel_tables(0.0, ve, measure=False)
        assert tables.kappa.shape == (9, 16, 16, 16)
        assert tables.kappa.dtype == np.float64
        phi_mu, der_mu = tables.mu_conv
        assert (len(phi_mu), len(der_mu), len(tables.mu_derivs)) == (6, 3, 3)
        for data in (tables.kappa, *phi_mu, *der_mu, *tables.mu_derivs):
            assert not data.flags.writeable
            with pytest.raises(ValueError):
                data[0, 0, 0] = 1.0
        mu = maxwellian(ve)
        want = convolve_tables(tables, mu)
        assert all(np.array_equal(a, b) for a, b in
                   zip(phi_mu + der_mu, want[0] + want[1]))
        assert all(np.array_equal(d, landau._v_derivative(ve, mu, j))
                   for j, d in enumerate(tables.mu_derivs))
        assert landau.mu_convolutions(tables) is tables.mu_conv
        assert landau.mu_derivatives(tables) is tables.mu_derivs
        declared = {f.name for f in dataclasses.fields(LandauKernelTables)}
        assert "_rho_estimate" in declared
        assert not {"_mu_conv", "_mu_derivs"} & declared

    @pytest.mark.parametrize("nv", [8, 16])
    @pytest.mark.parametrize("gamma", [-3.0, -1.0, 0.0, 1.0])
    def test_samples_mirror_with_recorded_parity(self, gamma, nv):
        # the tables are built from one octant of samples; that is exact
        # only if every kernel is even or odd along each axis as recorded
        tables = build_kernel_tables(gamma, VelocityGrid(nv, 8.0),
                                     measure=False)
        _, phis, derivs = tables.sampled_kernels()
        for kernel, parity in zip(phis + derivs, landau._PARITY):
            for axis, odd in enumerate(parity):
                mirrored = np.flip(kernel, axis)
                assert np.array_equal(mirrored, -kernel if odd else kernel)


def halfline_moment(a, sigma):
    """int_0^inf r^a exp(-r^2 / (2 sigma^2)) dr."""
    return (2.0 ** ((a - 1.0) / 2.0) * sigma ** (a + 1.0)
            * math.gamma((a + 1.0) / 2.0))


class TestCalibration:
    @pytest.mark.parametrize("nv", [8, 16, 32])
    @pytest.mark.parametrize("gamma", [-3.0, -1.0, -0.5])
    def test_corrected_samples_reproduce_gaussian_moments(self, gamma, nv):
        # the three even and three odd probes are solved for; the fourth
        # even probe (u1 u2 W on phi^12) holds as an identity
        ve = VelocityGrid(nv, 8.0)
        tables = build_kernel_tables(gamma, ve, measure=False)
        off, phis, derivs = tables.sampled_kernels()
        u1, u2, u3 = off[:, None, None], off[None, :, None], off[None, None, :]
        usq = u1**2 + u2**2 + u3**2
        sigma = max(2.0, 1.5 * ve.spacing)
        gauss = np.exp(-usq / (2.0 * sigma**2))
        c4 = (8.0 * math.pi / 3.0) * halfline_moment(gamma + 4.0, sigma)
        c6 = (8.0 * math.pi / 3.0) * halfline_moment(gamma + 6.0, sigma)
        probes = [  # (kernel, probe, exact moment)
            (phis[0], gauss, c4),
            (phis[0], usq * gauss, c6),
            (phis[0], (u1**2 - u2**2) * gauss, -c6 / 5.0),
            (phis[3], u1 * u2 * gauss, -c6 / 10.0),
            (derivs[0], u1 * gauss, -c4),
            (derivs[0], u1 * usq * gauss, -c6),
            (derivs[0], u1 * (u1**2 - 3.0 * u2**2) * gauss, 0.0),
        ]
        for kernel, probe, exact in probes:
            lattice = float(np.sum(kernel * probe)) * ve.node_weight
            assert abs(lattice - exact) <= 1e-13 * (abs(exact) or c6)

    @pytest.fixture
    def fresh_calibration(self):
        landau._calibration.cache_clear()
        yield
        landau._calibration.cache_clear()

    def test_broken_fourth_probe_identity_raises(self, monkeypatch,
                                                 fresh_calibration):
        inplane = landau._inplane_parts

        def skewed(*args):
            parts = inplane(*args)
            parts[3] = 1.01 * parts[3]   # phi^12 in-plane part on the face
            return parts

        monkeypatch.setattr(landau, "_inplane_parts", skewed)
        with pytest.raises(ParameterError,
                           match=r"fourth.*gamma=-3, n_v=16, L=8"):
            build_kernel_tables(-3.0, VelocityGrid(16, 8.0), measure=False)

    def test_singular_system_raises(self, monkeypatch, fresh_calibration):
        shells = landau._shell_masks

        def no_face(*args):
            masks = shells(*args)
            masks["face"] = np.zeros_like(masks["face"])
            masks["face_i"] = [np.zeros_like(m) for m in masks["face_i"]]
            return masks

        monkeypatch.setattr(landau, "_shell_masks", no_face)
        with pytest.raises(ParameterError,
                           match=r"even .*singular.*gamma=-3, n_v=16, L=8"):
            build_kernel_tables(-3.0, VelocityGrid(16, 8.0), measure=False)


def padded_reference(tables, g):
    """Nine convolutions by explicitly zero-padded full FFTs of the samples.

    The centred ``(2n-1)^3`` kernel samples are wrapped onto the ``2n``
    lattice (offset ``-n`` never reaches the kept corner and stays 0), the
    field is padded to ``2n`` per axis, and the ``n^3`` corner of the
    circular convolution is scaled by ``h^3``.
    """
    n = tables.velocity_grid.n_v
    h = tables.velocity_grid.spacing
    _, phis, derivs = tables.sampled_kernels()
    wrapped = np.r_[0:n, n + 1:2 * n]   # lattice index of offsets 0.., -(n-1)..
    centred = np.r_[n - 1:2 * n - 1, 0:n - 1]
    pad = [(0, 0)] * (g.ndim - 3) + [(0, n)] * 3
    g_hat = np.fft.rfftn(np.pad(g, pad), axes=(-3, -2, -1))
    out = []
    for k in phis + derivs:
        kp = np.zeros((2 * n,) * 3)
        kp[np.ix_(wrapped, wrapped, wrapped)] = k[np.ix_(centred, centred,
                                                        centred)]
        full = np.fft.irfftn(g_hat * np.fft.rfftn(kp), s=(2 * n,) * 3,
                             axes=(-3, -2, -1))
        out.append(full[..., :n, :n, :n] * h**3)
    return out


class TestConvolution:
    @pytest.mark.parametrize("gamma", [-3.0, -1.0, 0.0, 1.0])
    @pytest.mark.parametrize("leading", [(), (2, 3)])
    def test_matches_padded_reference(self, rng, gamma, leading):
        for ve in (VelocityGrid(8, 6.0), VelocityGrid(16, 8.0)):
            tables = build_kernel_tables(gamma, ve, measure=False)
            g = rng.standard_normal(leading + ve.shape)
            phi_conv, deriv_conv = convolve_tables(tables, g)
            ref = padded_reference(tables, g)
            for got, want in zip(phi_conv + deriv_conv, ref):
                assert got.shape == g.shape
                assert (np.max(np.abs(got - want))
                        <= 1e-13 * np.max(np.abs(want)))

    def test_workers_bit_identical(self, rng):
        ve = VelocityGrid(16, 8.0)
        tables = build_kernel_tables(-3.0, ve, measure=False)
        g = rng.standard_normal((4,) + ve.shape)
        one = convolve_tables(tables, g, workers=1)
        two = convolve_tables(tables, g, workers=2)
        for a, b in zip(one[0] + one[1], two[0] + two[1]):
            assert np.array_equal(a, b)

    def test_more_threads_than_cores_bit_identical(self, rng):
        # three threads (two nodes each) on a short switch interval write
        # disjoint nodes of one output array
        ve = VelocityGrid(8, 6.0)
        tables = build_kernel_tables(-1.0, ve, measure=False)
        g = rng.standard_normal((2, 3) + ve.shape)
        one = convolve_tables(tables, g, workers=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            many = convolve_tables(tables, g, workers=8)
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(one[0] + one[1], many[0] + many[1]):
            assert np.array_equal(a, b)

    def test_peak_memory_a_few_padded_products(self, rng):
        ve = VelocityGrid(16, 8.0)
        tables = build_kernel_tables(-3.0, ve, measure=False)
        g = rng.standard_normal((4,) + ve.shape)
        convolve_tables(tables, g)  # warm up
        # the nine outputs and one node's scratch (its two padded (2n)^3
        # buffers and two smaller ones), whatever the number of nodes
        out_bytes = 9 * g.nbytes
        scratch_bytes = sum(a.nbytes for a in landau._scratch(ve.n_v))
        tracemalloc.start()
        try:
            convolve_tables(tables, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * (out_bytes + scratch_bytes)


class TestDerivativeMemory:
    def test_peak_is_about_the_output(self, rng):
        # one matrix product per call: no transformed copy of the field
        ve = VelocityGrid(32, 8.0)
        f = rng.standard_normal((2, 8) + ve.shape)
        for axis in range(3):
            v_derivative_trailing(ve, f, axis)  # warm up
            tracemalloc.start()
            try:
                v_derivative_trailing(ve, f, axis)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.25 * f.nbytes


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

    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_direct_convolve_is_the_pair_sum(self, parity):
        # column b of the dense node-pair matrix, read off with the unit
        # field at b, is kernel[a - b + n - 1] at every node a
        n = 4
        ve = VelocityGrid(n, 4.0)
        phis, derivs = landau._kernel_components(
            -1.0, landau._centred_lattice(ve), ve)
        kernel = phis[0] if parity == "even" else derivs[0]
        nodes = list(np.ndindex(n, n, n))
        for b in nodes:
            unit = np.zeros(ve.shape)
            unit[b] = 1.0
            ref = np.zeros(ve.shape)
            for a in nodes:
                ref[a] = kernel[tuple(np.subtract(a, b) + n - 1)] * 0.5
            assert np.array_equal(landau._direct_convolve(kernel, unit, 0.5),
                                  ref)

    def test_oracle_convolves_each_kernel_once(self, rng, monkeypatch):
        ve = VelocityGrid(4, 4.0)
        calls = []
        convolve = landau._direct_convolve

        def counted(kernel, g, weight):
            calls.append(kernel)
            return convolve(kernel, g, weight)

        monkeypatch.setattr(landau, "_direct_convolve", counted)
        g = random_bandlimited_v(rng, ve)
        q_landau_direct(g, g, -3.0, ve)
        assert len(calls) == 9

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


class TestConservativeCorrection:
    def test_corrected_moments_vanish(self, rng, small_grid):
        from vplandau.initial import make_initial_condition

        tables = build_kernel_tables(-3.0, small_grid.velocity, measure=False)
        state = make_initial_condition(small_grid, amplitude=2e-3, seed=5)
        corr = ConservativeCorrector(small_grid.velocity)
        rp, rm = apply_collision_field(state, tables, conservative=True,
                                       corrector=corr)
        moments = (invariant_moments(small_grid.velocity, rp)
                   + invariant_moments(small_grid.velocity, rm))
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


class TestFrozenCollision:
    @pytest.fixture
    def setup(self, rng):
        ve = VelocityGrid(8, 6.0)
        tables = build_kernel_tables(-3.0, ve, measure=False)
        s = rng.standard_normal((3,) + ve.shape)
        fp = rng.standard_normal((3,) + ve.shape)
        return tables, s, fp, s - fp

    def test_one_divergence_per_right_hand_side(self, setup, monkeypatch):
        tables, s, fp, fm = setup
        calls = []
        derivative = landau._v_derivative

        def counted(*args, **kwargs):
            calls.append(args[2])
            return derivative(*args, **kwargs)

        monkeypatch.setattr(landau, "_v_derivative", counted)
        rhs = landau.frozen_collision(tables, s)
        assert calls == []
        rhs(fp, fm)
        # d_j f for the stacked pair, then one divergence of the summed flux
        assert calls == [0, 1, 2, 0, 1, 2]

    def test_sum_of_both_operators(self, setup):
        # Q(s, mu) + Q(2 mu + s, f_pm), each assembled on its own
        tables, s, fp, fm = setup
        mu = maxwellian(tables.velocity_grid)
        rp, rm = landau.frozen_collision(tables, s)(fp, fm)
        q_s_mu = q_landau_fft(s, np.broadcast_to(mu, s.shape), tables)
        for got, f in ((rp, fp), (rm, fm)):
            want = q_s_mu + q_landau_fft(2.0 * mu + s, f, tables)
            assert (np.linalg.norm(got - want)
                    <= 1e-13 * np.linalg.norm(want))

    def test_threads_take_no_more_memory(self, rng):
        # the blocks of apply_collision_field together allocate what the
        # whole field does on one thread
        grid = PhaseGrid(SpatialGrid(1, 8), VelocityGrid(16, 8.0))
        ve = grid.velocity
        tables = build_kernel_tables(-3.0, ve, measure=False)
        fp = rng.standard_normal(grid.shape)
        state = SystemState(grid, fp, fp)
        corrector = ConservativeCorrector(ve)
        peaks = []
        for w in (1, 2):
            apply_collision_field(state, tables, corrector=corrector,
                                  workers=w)
            tracemalloc.start()
            try:
                apply_collision_field(state, tables, corrector=corrector,
                                      workers=w)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]


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

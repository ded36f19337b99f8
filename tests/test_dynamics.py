"""Time integration: transport, field and collision substeps, the driver."""

import math

import numpy as np
import pytest

from vplandau import landau
from vplandau.dynamics import (
    TimeStepConfig,
    advance,
    cfl_advisory,
    collision_step,
    field_step,
    rkc_real_stability,
    rkc_step_pair,
    suggest_dt,
    transport_step,
)
from vplandau.errors import PicardConvergenceError
from vplandau.grid import PhaseGrid, SpatialGrid, VelocityGrid, integrate_v, integrate_x, l2_norm
from vplandau.initial import make_initial_condition
from vplandau.state import SystemState, check_conservation, maxwellian


def single_mode_state(grid, amp=1e-3, opposite=True):
    mu = maxwellian(grid.velocity)
    x = grid.spatial.coordinate(0)[:, None, None, None]
    f = amp * np.cos(x) * mu
    return SystemState(grid, f, -f if opposite else f.copy())


class TestTransport:
    def test_exact_single_mode(self, small_grid):
        st = single_mode_state(small_grid)
        dt = 0.37
        out = transport_step(st, dt)
        x = small_grid.spatial.coordinate(0)[:, None, None, None]
        v1 = small_grid.velocity.coordinate(0)
        mu = maxwellian(small_grid.velocity)
        exact = 1e-3 * np.cos(x - v1 * dt) * mu
        assert np.max(np.abs(out.f_plus - exact)) < 1e-15

    def test_homogeneous_unchanged(self, small_grid):
        mu = maxwellian(small_grid.velocity)
        f = 1e-3 * np.broadcast_to(mu, small_grid.shape).copy()
        st = SystemState(small_grid, f, f.copy())
        out = transport_step(st, 0.5)
        assert np.array_equal(out.f_plus, st.f_plus)

    def test_halves_compose_exactly(self, small_grid):
        st = single_mode_state(small_grid)
        once = transport_step(st, 0.2)
        twice = transport_step(transport_step(st, 0.1), 0.1)
        assert np.max(np.abs(once.f_plus - twice.f_plus)) < 1e-16

    def test_mass_exact(self, small_grid):
        st = single_mode_state(small_grid)
        out = transport_step(st, 0.31)
        m0 = integrate_x(small_grid, integrate_v(small_grid, st.f_plus))
        m1 = integrate_x(small_grid, integrate_v(small_grid, out.f_plus))
        assert abs(m1 - m0) <= 1e-15


class TestFieldStep:
    def test_zero_gradient_identity(self, small_grid):
        mu = maxwellian(small_grid.velocity)
        f = 1e-3 * np.broadcast_to(mu, small_grid.shape).copy()
        st = SystemState(small_grid, f, f.copy())  # same signs: rho = 0
        out = field_step(st, 0.1)
        assert np.max(np.abs(out.f_plus - st.f_plus)) < 1e-16

    def test_source_term_first_order(self, small_grid):
        # f = 0 with a forced external phi: one step leaves
        # f_pm = -+ dt grad(phi) . v mu + O(dt^2); Richardson in dt
        x = small_grid.spatial.coordinate(0)
        grad_phi = (np.sin(x),)
        mu = maxwellian(small_grid.velocity)
        v1 = small_grid.velocity.coordinate(0)
        src = grad_phi[0][:, None, None, None] * (v1 * mu)

        def defect(dt):
            st = SystemState.zero(small_grid)
            out = field_step(st, dt, grad_phi=grad_phi)
            return l2_norm(small_grid, out.f_plus + dt * src)

        d1, d2 = defect(0.1), defect(0.05)
        assert 2.5 <= d1 / d2 <= 6.0  # O(dt^2) remainder

    def test_species_sign_symmetry(self, small_grid, rng):
        # swapping species labels and negating phi maps the step onto itself
        mu = maxwellian(small_grid.velocity)
        x = small_grid.spatial.coordinate(0)[:, None, None, None]
        f1 = 1e-3 * (1 + 0.3 * np.cos(x)) * mu
        f2 = 1e-3 * (1 - 0.2 * np.sin(x)) * mu
        g = (np.cos(small_grid.spatial.coordinate(0)),)
        neg = (-g[0],)
        a = field_step(SystemState(small_grid, f1, f2), 0.05, grad_phi=g)
        b = field_step(SystemState(small_grid, f2, f1), 0.05, grad_phi=neg)
        assert np.max(np.abs(a.f_plus - b.f_minus)) < 1e-15
        assert np.max(np.abs(a.f_minus - b.f_plus)) < 1e-15

    def test_mass_exact(self, small_grid):
        st = single_mode_state(small_grid)
        out = field_step(st, 0.05)
        for before, after in ((st.f_plus, out.f_plus),
                              (st.f_minus, out.f_minus)):
            m0 = integrate_x(small_grid, integrate_v(small_grid, before))
            m1 = integrate_x(small_grid, integrate_v(small_grid, after))
            assert abs(m1 - m0) <= 1e-14

    def test_nan_detection(self, small_grid):
        st = single_mode_state(small_grid)
        huge = (1e308 * np.ones(small_grid.spatial.shape),)
        with pytest.raises(FloatingPointError):
            field_step(st, 1.0, grad_phi=huge)


class TestCollisionStep:
    def test_zero_fixed_point(self, small_grid):
        tables = landau.build_kernel_tables(-3.0, small_grid.velocity,
                                            measure=False)
        cfg = TimeStepConfig(dt=1e-2)
        st = SystemState.zero(small_grid)
        out, _, _ = collision_step(st, 1e-2, cfg, tables)
        assert np.max(np.abs(out.f_plus)) == 0.0

    def test_rk4_self_convergence_order(self):
        # dt -> dt/2 halving: error ratio ~ 2^4 (Richardson against dt/4)
        grid = PhaseGrid(SpatialGrid(1, 4), VelocityGrid(16, 8.0))
        tables = landau.build_kernel_tables(-3.0, grid.velocity, measure=False)
        st = make_initial_condition(grid, amplitude=5e-3, seed=2)
        cfg = TimeStepConfig(dt=1.0)  # dt passed per call below

        def solve(dt, n):
            cur = st
            for _ in range(n):
                cur, _, _ = collision_step(cur, dt, cfg, tables)
            return cur

        dt = 0.08
        a = solve(dt, 1)
        b = solve(dt / 2, 2)
        c = solve(dt / 4, 4)
        e1 = l2_norm(grid, a.f_plus - c.f_plus)
        e2 = l2_norm(grid, b.f_plus - c.f_plus)
        # (dt^4 - (dt/4)^4) vs ((dt/2)^4 - (dt/4)^4) gives ratio ~ 16 within
        # the contamination of the next order; accept a generous window
        ratio = e1 / e2
        assert 10.0 <= ratio <= 26.0

    def test_picard_converges_with_contraction(self):
        grid = PhaseGrid(SpatialGrid(1, 4), VelocityGrid(16, 8.0))
        tables = landau.build_kernel_tables(-1.0, grid.velocity, measure=False)
        st = make_initial_condition(grid, amplitude=1e-3, seed=3)
        cfg = TimeStepConfig(dt=1e-2, scheme="picard_implicit",
                             picard_tol=1e-12, picard_max_iters=10)
        out, iters, ratios = collision_step(st, 1e-2, cfg, tables)
        assert iters <= 10
        assert all(r < 1.0 for r in ratios)

    def test_picard_budget_error(self):
        grid = PhaseGrid(SpatialGrid(1, 4), VelocityGrid(16, 8.0))
        tables = landau.build_kernel_tables(-1.0, grid.velocity, measure=False)
        st = make_initial_condition(grid, amplitude=1e-3, seed=3)
        cfg = TimeStepConfig(dt=1e-2, scheme="picard_implicit",
                             picard_tol=1e-300, picard_max_iters=2)
        with pytest.raises(PicardConvergenceError) as err:
            collision_step(st, 1e-2, cfg, tables)
        assert err.value.residual > 0

    def test_rkc_matches_rk4_on_nonstiff_problem(self):
        grid = PhaseGrid(SpatialGrid(1, 4), VelocityGrid(16, 8.0))
        tables = landau.build_kernel_tables(-3.0, grid.velocity, measure=False)
        st = make_initial_condition(grid, amplitude=1e-3, seed=4)
        out_rk4, _, _ = collision_step(
            st, 5e-3, TimeStepConfig(dt=5e-3), tables)
        out_pic, _, _ = collision_step(
            st, 5e-3, TimeStepConfig(dt=5e-3, scheme="picard_implicit",
                                     picard_tol=1e-13), tables)
        diff = l2_norm(grid, out_rk4.f_plus - out_pic.f_plus)
        assert diff <= 1e-8 * max(l2_norm(grid, st.f_plus), 1e-300)


class TestAdvance:
    def test_pure_transport_analytic(self, small_grid):
        st = single_mode_state(small_grid)
        cfg = TimeStepConfig(dt=0.05, collision_enabled=False,
                             field_enabled=False)
        out = advance(st, 1.0, cfg)
        x = small_grid.spatial.coordinate(0)[:, None, None, None]
        v1 = small_grid.velocity.coordinate(0)
        mu = maxwellian(small_grid.velocity)
        exact = 1e-3 * np.cos(x - v1 * 1.0) * mu
        assert np.max(np.abs(out.f_plus - exact)) <= 1e-10

    def test_collision_needs_tables(self, small_grid):
        st = single_mode_state(small_grid)
        with pytest.raises(ValueError, match="kernel tables"):
            advance(st, 0.1, TimeStepConfig(dt=0.05))

    def test_zero_stays_zero(self, small_grid):
        tables = landau.build_kernel_tables(-3.0, small_grid.velocity,
                                            measure=False)
        st = SystemState.zero(small_grid)
        out = advance(st, 0.1, TimeStepConfig(dt=0.05), tables)
        assert np.max(np.abs(out.f_plus)) == 0.0
        assert out.time == pytest.approx(0.1)

    def test_short_run_conserves(self, small_grid):
        tables = landau.build_kernel_tables(-3.0, small_grid.velocity,
                                            measure=False)
        st = make_initial_condition(small_grid, amplitude=1e-3, seed=9)
        out = advance(st, 0.1, TimeStepConfig(dt=5e-3), tables)
        rep = check_conservation(out, st)
        assert rep.max_relative_drift() <= 1e-9

    def test_step_count_and_sink(self, small_grid):
        tables = landau.build_kernel_tables(-3.0, small_grid.velocity,
                                            measure=False)
        st = make_initial_condition(small_grid, amplitude=1e-4, seed=1)

        def run(state, t_final, dt):
            seen = []
            out = advance(state, t_final, TimeStepConfig(dt=dt), tables,
                          sink=lambda s, info: seen.append(
                              (info.step, info.dt, s.time)))
            return out, seen

        # a true remainder gets its own shorter last step
        out, seen = run(st.clone(), 0.05, 0.02)
        assert [s for s, _, _ in seen] == [1, 2, 3]
        assert [d for _, d, _ in seen][:2] == [0.02, 0.02]
        assert seen[-1][1] == pytest.approx(0.01)
        assert seen[-1][2] == out.time == 0.05

        # a whole multiple of dt takes whole steps only, and ends on t_final
        out, seen = run(st.clone(), 0.03, 0.01)
        assert [s for s, _, _ in seen] == [1, 2, 3]
        assert [d for _, d, _ in seen] == [0.01, 0.01, 0.01]
        assert out.time == 0.03

        # the schedule counts from the start time, as a checkpoint resume
        # needs: 0.03 -> 0.06 is three whole steps, although a time summed
        # step by step reaches 0.05 with 0.06 - 0.05 = 0.009999999999999995
        out, seen = run(out, 0.06, 0.01)
        assert [s for s, _, _ in seen] == [1, 2, 3]
        assert [d for _, d, _ in seen] == [0.01, 0.01, 0.01]
        assert [t for _, _, t in seen] == [0.03 + 0.01, 0.03 + 2 * 0.01, 0.06]
        assert out.time == 0.06

    def test_cfl_advisory_warns(self, small_grid):
        st = single_mode_state(small_grid, amp=1e-2)
        with pytest.warns(RuntimeWarning):
            flagged = cfl_advisory(st, 10.0)
        assert flagged
        assert suggest_dt(st) > 0


class TestRKC:
    def test_stability_polynomial_within_bound(self):
        for s in (2, 5, 9, 14):
            beta = rkc_real_stability(s)
            zs = np.linspace(-beta, -1e-9, 200)
            for z in zs[:: max(1, len(zs) // 50)]:
                def rhs(a, b):
                    return (z * a, z * b)

                up, _ = rkc_step_pair(rhs, np.array(1.0), np.array(1.0),
                                      1.0, s)
                assert abs(float(up)) <= 1.0 + 1e-9

    def test_second_order_accuracy(self):
        z = -0.3

        def rhs(a, b):
            return (z * a, z * b)

        errs = []
        for dt in (0.1, 0.05):
            up = np.array(1.0)
            um = np.array(1.0)
            for _ in range(int(round(0.4 / dt))):
                up, um = rkc_step_pair(rhs, up, um, dt, 5)
            errs.append(abs(float(up) - math.exp(z * 0.4)))
        order = math.log2(errs[0] / errs[1])
        assert order >= 1.8


class TestPositivityThroughRun:
    def test_small_data_keeps_positivity(self):
        # meaningful only where min(mu) on the grid clears dynamics roundoff:
        # on [-4,4)^3 min mu ~ 2e-12, so amplitude <= 0.01 min mu is
        # representable and the full distribution stays positive over t = 1
        grid = PhaseGrid(SpatialGrid(1, 4), VelocityGrid(8, 4.0))
        mu = maxwellian(grid.velocity)
        amp = 0.01 * float(mu.min())
        st = make_initial_condition(grid, amplitude=amp, seed=8)
        tables = landau.build_kernel_tables(-3.0, grid.velocity,
                                            measure=False)
        out = advance(st, 1.0, TimeStepConfig(dt=0.05), tables)
        assert float(np.min(mu + out.f_plus)) > 0.0
        assert float(np.min(mu + out.f_minus)) > 0.0

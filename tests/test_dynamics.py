"""Time integration: transport, field and collision substeps, the driver."""

import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from vplandau import grid as grid_mod
from vplandau import landau
from vplandau.dynamics import (
    TimeStepConfig,
    _field_rhs,
    _field_source,
    _linearized_field_step,
    _rk4,
    advance,
    collision_step,
    field_step,
    rkc_real_stability,
    rkc_step,
    transport_step,
)
from vplandau.errors import PicardConvergenceError
from vplandau.grid import (PhaseGrid, SpatialGrid, VelocityGrid, along,
                           integrate_v, integrate_x, l2_norm)
from vplandau.initial import make_initial_condition
from vplandau.state import SystemState, check_conservation, maxwellian


def single_mode_state(grid, amp=1e-3, opposite=True):
    mu = maxwellian(grid.velocity)
    x = grid.spatial.coordinate(0)[:, None, None, None]
    f = amp * np.cos(x) * mu
    return SystemState(grid, f, -f if opposite else f.copy())


def field_case(dim_x):
    """Amplitude-0.1 data and a gradient with a component along every x axis.

    The velocity spacing is 1 at every ``dim_x``; the box shrinks to 8^3
    nodes for ``dim_x > 1`` to keep the phase grids small.
    """
    velocity = VelocityGrid(16, 8.0) if dim_x == 1 else VelocityGrid(8, 4.0)
    grid = PhaseGrid(SpatialGrid(dim_x, 8 if dim_x == 1 else 4), velocity)
    st = make_initial_condition(grid, amplitude=0.1, seed=3)
    xs = [grid.spatial.coordinate(a) for a in range(dim_x)]
    grad_phi = tuple(np.sin(xs[a] + 0.5 * a) + 0.3 * np.cos(sum(xs))
                     for a in range(dim_x))
    return st, grad_phi


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

    def test_non_finite_names_transport_substep(self, small_grid):
        f = np.zeros(small_grid.shape)
        f[0, 8, 8, 8] = np.inf
        with np.errstate(all="ignore"):
            st = SystemState(small_grid, f, np.zeros(small_grid.shape),
                             time=0.25)
            with pytest.raises(FloatingPointError,
                               match=r"transport step .* at t=0\.25"):
                transport_step(st, 0.1)

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

    @pytest.mark.parametrize("dim_x", [1, 2, 3])
    def test_matches_complex_shift(self, rng, dim_x):
        # random data fills every mode, the Nyquist planes included; the
        # real transform must reproduce Re ifftn(P fftn f) of the full phase
        grid = PhaseGrid(SpatialGrid(dim_x, 4), VelocityGrid(8, 4.0))
        f = rng.standard_normal(grid.shape)
        dt = 0.37
        nd = dim_x + 3
        xi = grid.spatial.axis_wavenumbers()
        v = grid.velocity.axis_nodes()
        dot = sum(along(xi, a, nd) * along(v, dim_x + a, nd)
                  for a in range(dim_x))
        axes = grid.x_axes
        ref = np.fft.ifftn(np.exp(-1j * dt * dot) * np.fft.fftn(f, axes=axes),
                           axes=axes).real
        out = transport_step(SystemState(grid, f, f.copy()), dt)
        assert np.max(np.abs(out.f_plus - ref)) <= 1e-14
        assert np.max(np.abs(out.f_minus - ref)) <= 1e-14


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

    def test_non_finite_names_linearized_field_substep(self, small_grid):
        f = np.zeros(small_grid.shape)
        f[0, 8, 8, 8] = np.inf
        with np.errstate(all="ignore"):
            st = SystemState(small_grid, f, np.zeros(small_grid.shape),
                             time=0.25)
            with pytest.raises(FloatingPointError,
                               match=r"field step .* at t=0\.25"):
                _linearized_field_step(st, 0.1)

    @pytest.mark.parametrize("dim_x", [1, 2, 3])
    def test_matches_converged_rk4(self, dim_x):
        # the exact substep against 256 RK4 substeps of the semi-discrete
        # right-hand side it solves
        st, grad_phi = field_case(dim_x)
        g = st.grid
        src = _field_source(g, grad_phi)

        def rhs(f):
            return np.stack(_field_rhs(g, grad_phi, f[0], f[1], src))

        for dt in (0.025, 0.1):
            out = field_step(st, dt, grad_phi=grad_phi)
            f = np.stack([st.f_plus, st.f_minus])
            n = 256
            for _ in range(n):
                f = _rk4(rhs, f, dt / n)
            fp, fm = f
            for before, exact, ref in ((st.f_plus, out.f_plus, fp),
                                       (st.f_minus, out.f_minus, fm)):
                increment = l2_norm(g, ref - before)
                assert l2_norm(g, exact - ref) <= 1e-12 * increment

    @pytest.mark.parametrize("dim_x", [1, 2])
    def test_halves_compose_exactly(self, dim_x):
        st, grad_phi = field_case(dim_x)
        g = st.grid
        once = field_step(st, 0.1, grad_phi=grad_phi)
        twice = field_step(field_step(st, 0.05, grad_phi=grad_phi), 0.05,
                           grad_phi=grad_phi)
        for before, a, b in ((st.f_plus, once.f_plus, twice.f_plus),
                             (st.f_minus, once.f_minus, twice.f_minus)):
            increment = l2_norm(g, a - before)
            assert l2_norm(g, a - b) <= 1e-13 * increment


class TestCollisionStep:
    def test_zero_fixed_point(self, small_grid):
        tables = landau.build_kernel_tables(-3.0, small_grid.velocity,
                                            measure=False)
        cfg = TimeStepConfig(dt=1e-2)
        st = SystemState.zero(small_grid)
        out, _, _ = collision_step(st, 1e-2, cfg, tables)
        assert np.max(np.abs(out.f_plus)) == 0.0

    def test_non_finite_names_collision_substep(self, small_grid):
        tables = landau.build_kernel_tables(-3.0, small_grid.velocity,
                                            measure=False)
        f = np.zeros(small_grid.shape)
        f[0, 8, 8, 8] = np.inf
        st = SystemState(small_grid, f, np.zeros(small_grid.shape), time=0.25)
        with np.errstate(all="ignore"), pytest.raises(
                FloatingPointError, match=r"collision step .* at t=0\.25"):
            collision_step(st, 1e-2, TimeStepConfig(dt=1e-2), tables)

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


class TestWorkers:
    """The collision substep splits the spatial nodes across workers once,
    and each block runs the whole integrator; results must not move.  On
    n_x = 4, three workers make two blocks of two nodes (a block keeps two
    nodes or more); on n_x = 8 they make blocks of 3, 3 and 2."""

    WORKERS = (2, 3)

    @pytest.fixture
    def state(self):
        grid = PhaseGrid(SpatialGrid(1, 4), VelocityGrid(16, 8.0))
        return make_initial_condition(grid, amplitude=1e-3, seed=5)

    # at dt = 0.3 the Picard step takes the Chebyshev (RKC) integrator
    SCHEMES = pytest.mark.parametrize("scheme, dt", [("strang_rk4", 1e-2),
                                                     ("picard_implicit", 0.3)])

    @staticmethod
    def assert_identical(one, two):
        assert np.array_equal(one.f_plus, two.f_plus)
        assert np.array_equal(one.f_minus, two.f_minus)

    @SCHEMES
    def test_advance(self, scheme, dt):
        grid = PhaseGrid(SpatialGrid(1, 4), VelocityGrid(8, 4.0))
        st = make_initial_condition(grid, amplitude=1e-3, seed=6)
        tables = landau.build_kernel_tables(-3.0, grid.velocity,
                                            measure=False)
        one, *more = (advance(st.clone(), 2 * dt, TimeStepConfig(
            dt=dt, scheme=scheme, workers=w), tables)
            for w in (1,) + self.WORKERS)
        for other in more:
            self.assert_identical(one, other)

    @SCHEMES
    def test_collision(self, state, scheme, dt):
        tables = landau.build_kernel_tables(-3.0, state.grid.velocity,
                                            measure=False)
        one, *more = (
            collision_step(state, dt, TimeStepConfig(
                dt=dt, scheme=scheme, workers=w), tables)[0]
            for w in (1,) + self.WORKERS)
        for other in more:
            self.assert_identical(one, other)

    @SCHEMES
    def test_linearized_collision(self, state, scheme, dt):
        tables = landau.build_kernel_tables(-3.0, state.grid.velocity,
                                            measure=False)
        one, *more = (
            collision_step(state, dt, TimeStepConfig(
                dt=dt, scheme=scheme, linearized=True, workers=w), tables)[0]
            for w in (1,) + self.WORKERS)
        for other in more:
            self.assert_identical(one, other)

    @pytest.fixture
    def uneven(self):
        grid = PhaseGrid(SpatialGrid(1, 8), VelocityGrid(8, 4.0))
        st = make_initial_condition(grid, amplitude=1e-3, seed=7)
        tables = landau.build_kernel_tables(-3.0, grid.velocity,
                                            measure=False)
        return st, tables

    @staticmethod
    def on_short_switch_interval(run):
        # a 1 us switch interval interleaves the blocks' threads finely
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            return run()
        finally:
            sys.setswitchinterval(interval)

    @SCHEMES
    @pytest.mark.parametrize("linearized", [False, True])
    def test_uneven_blocks(self, uneven, scheme, dt, linearized):
        st, tables = uneven
        one, three = (self.on_short_switch_interval(lambda: collision_step(
            st, dt, TimeStepConfig(dt=dt, scheme=scheme,
                                   linearized=linearized, workers=w),
            tables)[0]) for w in (1, 3))
        self.assert_identical(one, three)

    def test_uneven_blocks_collision_field(self, uneven):
        st, tables = uneven
        corrector = landau.ConservativeCorrector(st.grid.velocity)
        one, three = (self.on_short_switch_interval(
            lambda: landau.apply_collision_field(
                st, tables, corrector=corrector, workers=w))
            for w in (1, 3))
        assert all(np.array_equal(a, b) for a, b in zip(one, three))
        assert one[0].shape == st.f_plus.shape

    @pytest.fixture
    def square(self):
        # dim_x = 2: a block flattens its share of the 4 x 4 nodes to one
        # axis; three workers make blocks of 6, 5 and 5 nodes
        grid = PhaseGrid(SpatialGrid(2, 4), VelocityGrid(8, 4.0))
        st = make_initial_condition(grid, amplitude=1e-3, seed=9)
        tables = landau.build_kernel_tables(-3.0, grid.velocity,
                                            measure=False)
        return st, tables

    @SCHEMES
    @pytest.mark.parametrize("linearized", [False, True])
    def test_two_dimensional_blocks(self, square, scheme, dt, linearized):
        st, tables = square
        one, three = (self.on_short_switch_interval(lambda: collision_step(
            st, dt, TimeStepConfig(dt=dt, scheme=scheme,
                                   linearized=linearized, workers=w),
            tables)[0]) for w in (1, 3))
        assert one.f_plus.tobytes().hex() == three.f_plus.tobytes().hex()
        assert one.f_minus.tobytes().hex() == three.f_minus.tobytes().hex()

    def test_two_dimensional_blocks_collision_field(self, square):
        st, tables = square
        corrector = landau.ConservativeCorrector(st.grid.velocity)
        one, three = (self.on_short_switch_interval(
            lambda: landau.apply_collision_field(
                st, tables, corrector=corrector, workers=w))
            for w in (1, 3))
        assert [q.tobytes().hex() for q in one] == [
            q.tobytes().hex() for q in three]
        assert one[0].shape == st.f_plus.shape

    @SCHEMES
    def test_one_fork_join_per_integration(self, state, scheme, dt,
                                           monkeypatch):
        # one pool per RK4 substep, one per Picard iteration
        pools = []

        class Counted(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(grid_mod, "ThreadPoolExecutor", Counted)
        tables = landau.build_kernel_tables(-3.0, state.grid.velocity,
                                            measure=False)
        _, iterations, _ = collision_step(state, dt, TimeStepConfig(
            dt=dt, scheme=scheme, workers=2), tables)
        assert len(pools) == (iterations if scheme == "picard_implicit"
                              else 1)

    @SCHEMES
    def test_thread_count_from_environment(self, uneven, scheme, dt,
                                           monkeypatch):
        # with no count in TimeStepConfig the collision substep takes
        # VPLANDAU_THREADS: one pool per RK4 substep or Picard iteration,
        # each started on the calling thread with one thread.  On 8 nodes a
        # second split inside a block (4 nodes) would start more pools.
        st, tables = uneven
        pools = []

        class Counted(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(threading.current_thread())
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(grid_mod, "ThreadPoolExecutor", Counted)
        monkeypatch.setenv("VPLANDAU_THREADS", "2")
        out, iterations, _ = collision_step(st, dt, TimeStepConfig(dt=dt,
                                            scheme=scheme), tables)
        assert len(pools) == (iterations if scheme == "picard_implicit"
                              else 1)
        assert all(t is threading.main_thread() for t in pools)
        monkeypatch.delenv("VPLANDAU_THREADS")
        one = collision_step(st, dt, TimeStepConfig(dt=dt, scheme=scheme),
                             tables)[0]
        self.assert_identical(out, one)

    def test_no_thread_outlives_advance(self):
        grid = PhaseGrid(SpatialGrid(1, 4), VelocityGrid(8, 4.0))
        st = make_initial_condition(grid, amplitude=1e-3, seed=6)
        tables = landau.build_kernel_tables(-3.0, grid.velocity,
                                            measure=False)
        before = threading.active_count()
        advance(st, 0.02, TimeStepConfig(dt=1e-2, workers=2), tables)
        assert threading.active_count() == before


class TestTimeStepConfig:
    @pytest.mark.parametrize("name, value", [
        ("dt", 0.0), ("picard_tol", 0.0), ("scheme", "euler"),
        ("dt", math.nan), ("dt", math.inf), ("picard_tol", math.nan),
        ("picard_tol", math.inf),
        ("picard_max_iters", 0), ("workers", 0), ("workers", -1)])
    def test_rejects(self, name, value):
        with pytest.raises(ValueError, match=name):
            TimeStepConfig(**{name: value})

    @pytest.mark.parametrize("workers", [None, 1, 3])
    def test_accepts_workers(self, workers):
        assert TimeStepConfig(workers=workers).workers == workers


class TestAdvance:
    def test_pure_transport_analytic(self, small_grid):
        out = single_mode_state(small_grid)
        for _ in range(20):
            out = transport_step(out, 0.05)
        x = small_grid.spatial.coordinate(0)[:, None, None, None]
        v1 = small_grid.velocity.coordinate(0)
        mu = maxwellian(small_grid.velocity)
        exact = 1e-3 * np.cos(x - v1 * 1.0) * mu
        assert np.max(np.abs(out.f_plus - exact)) <= 1e-10

    def test_transport_output_owns_its_memory(self, small_grid):
        # a view into the complex transform would keep twice its bytes
        out = transport_step(single_mode_state(small_grid), 0.05)
        assert out.f_plus.base is None and out.f_minus.base is None

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


class TestRKC:
    def test_stability_polynomial_within_bound(self):
        for s in (2, 5, 9, 14):
            beta = rkc_real_stability(s)
            zs = np.linspace(-beta, -1e-9, 200)
            for z in zs[:: max(1, len(zs) // 50)]:
                def rhs(f):
                    return z * f

                up = rkc_step(rhs, np.array(1.0), 1.0, s)
                assert abs(float(up)) <= 1.0 + 1e-9

    def test_second_order_accuracy(self):
        z = -0.3

        def rhs(f):
            return z * f

        errs = []
        for dt in (0.1, 0.05):
            up = np.array(1.0)
            for _ in range(int(round(0.4 / dt))):
                up = rkc_step(rhs, up, dt, 5)
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

"""Diagnostics: decay fits, balance residuals, positivity, recorder."""

import math
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from vplandau import grid as grid_mod
from vplandau import landau, poisson, weights
from vplandau.diagnostics import (
    CSV_COLUMNS,
    Recorder,
    fit_decay,
    moment_balance_residual,
    positivity_monitor,
    projection_split_norms,
    read_series_csv,
)
from vplandau.dynamics import TimeStepConfig, advance, transport_step
from vplandau.errors import FitError
from vplandau.grid import PhaseGrid, SpatialGrid, VelocityGrid, l2_norm
from vplandau.initial import make_initial_condition
from vplandau.state import SystemState, maxwellian, project_P


class TestFitDecay:
    def test_exact_exponential(self):
        t = np.linspace(0, 5, 200)
        fit = fit_decay(t, np.exp(-2.0 * t), "exponential")
        assert fit.rate == pytest.approx(2.0, abs=1e-6)
        assert fit.r_squared > 1 - 1e-12

    def test_exact_polynomial(self):
        t = np.linspace(0, 20, 300)
        fit = fit_decay(t, (1 + t) ** -3.0, "polynomial")
        assert fit.rate == pytest.approx(-3.0, abs=1e-6)
        assert fit.r_squared > 1 - 1e-12

    def test_oscillating_envelope(self):
        t = np.linspace(0, 20, 400)
        e = np.exp(-t) * (2.0 + np.cos(t))
        fit = fit_decay(t, e, "exponential", window=(2.0, 20.0))
        assert 0.9 <= fit.rate <= 1.1
        assert fit.r_squared >= 0.99

    def test_scaling_invariance(self):
        t = np.linspace(0, 5, 100)
        e = np.exp(-1.3 * t) * (1.5 + 0.1 * np.sin(3 * t))
        f1 = fit_decay(t, e, "exponential")
        f2 = fit_decay(t, 7.5 * e, "exponential")
        assert f1.rate == pytest.approx(f2.rate, rel=1e-12)
        assert f1.r_squared == pytest.approx(f2.r_squared, rel=1e-12)

    def test_error_paths(self):
        t = np.linspace(0, 1, 10)
        with pytest.raises(FitError):
            fit_decay(t, np.exp(-t), "exponential")  # too few samples
        t = np.linspace(0, 1, 50)
        vals = np.exp(-t)
        vals[30] = -1.0
        with pytest.raises(FitError):
            fit_decay(t, vals, "exponential")

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_refused(self, bad):
        t = np.linspace(0, 5, 50)
        vals = np.exp(-t)
        vals[-1] = bad
        with pytest.raises(FitError, match="non-finite"):
            fit_decay(t, vals, "exponential")

    def test_transient_exclusion_default(self):
        t = np.linspace(0, 10, 200)
        fit = fit_decay(t, np.exp(-t), "exponential")
        assert fit.window[0] == pytest.approx(1.0)


class TestMomentBalance:
    def test_stationary_zero(self, small_grid):
        st = SystemState.zero(small_grid)
        r = moment_balance_residual(st, st, 0.1)
        assert max(r) == 0.0

    def test_transport_residual_second_order(self, small_grid):
        mu = maxwellian(small_grid.velocity)
        x = small_grid.spatial.coordinate(0)[:, None, None, None]
        f = 1e-3 * np.cos(x) * mu
        st = SystemState(small_grid, f, -f)

        def residual(dt):
            nxt = transport_step(st, dt)
            return max(moment_balance_residual(st, nxt, dt))

        r1, r2 = residual(0.1), residual(0.05)
        # time-difference error only; at least O(dt^2) (the centered form
        # actually superconverges at dt^3 on this symmetric case)
        assert r1 / r2 >= 3.5
        assert r2 <= 1e-6

    def test_transport_residual_two_dimensional(self):
        grid = PhaseGrid(SpatialGrid(2, 8), VelocityGrid(16, 8.0))
        mu = maxwellian(grid.velocity)
        # a plane wave along x1 - x2, so the two axes' flux terms differ
        x = grid.spatial.coordinate(0) - grid.spatial.coordinate(1)
        f = 1e-3 * np.cos(x)[..., None, None, None] * mu
        st = SystemState(grid, f, -f)
        r1, r2 = (max(moment_balance_residual(st, transport_step(st, dt), dt))
                  for dt in (0.1, 0.05))
        assert r1 / r2 >= 3.5
        assert r2 <= 1e-6

    def test_full_run_residual_small(self, small_grid):
        tables = landau.build_kernel_tables(-3.0, small_grid.velocity,
                                            measure=False)
        st = make_initial_condition(small_grid, amplitude=1e-3, seed=2)
        nxt = advance(st.clone(), 5e-3, TimeStepConfig(dt=5e-3), tables)
        r = moment_balance_residual(st, nxt, 5e-3)
        scale = l2_norm(small_grid, st.f_plus)
        assert max(r) <= 1e-4 * scale  # dt^2-dominated


class TestPositivity:
    def test_zero_state_minimum_at_far_corner(self, small_grid):
        st = SystemState.zero(small_grid)
        mon = positivity_monitor(st)
        val, loc = mon["plus"]
        mu = maxwellian(small_grid.velocity)
        assert val == pytest.approx(float(mu.min()))
        # the minimum sits at the largest-|v| node (the -L corner)
        assert loc[-3:] == (0, 0, 0)

    def test_negative_state_flagged(self, small_grid):
        mu = maxwellian(small_grid.velocity)
        f = -2.0 * np.broadcast_to(mu, small_grid.shape).copy()
        st = SystemState(small_grid, f, f.copy())
        mon = positivity_monitor(st)
        assert mon["plus"][0] < 0


class TestProjectionSplit:
    def test_near_orthogonality_weighted(self, clean_grid, rng):
        # P is the spectral projection of the linearized operator: it is
        # orthogonal in the mu^{-1}-weighted inner product (not in plain
        # L^2, where the cross term is O(1) already in the continuum), so
        # Pythagoras holds there up to quadrature truncation only.
        g = clean_grid
        mu = maxwellian(g.velocity)
        x = g.spatial.coordinate(0)[:, None, None, None]
        ve = g.velocity
        f1 = (1 + 0.3 * np.cos(x)) * mu * (1 + 0.2 * ve.coordinate(0) ** 2)
        f2 = (1 - 0.2 * np.sin(x)) * mu * (1 + 0.1 * ve.coordinate(1))
        st = SystemState(g, f1, f2)
        pp, pm = project_P(st)
        inv_mu = 1.0 / mu
        w = g.cell_volume

        def wdot(a, b):
            return float(np.sum(a * b * inv_mu)) * w

        total = wdot(f1, f1) + wdot(f2, f2)
        cross = 2.0 * (wdot(pp, f1 - pp) + wdot(pm, f2 - pm))
        assert abs(cross) <= 1e-10 * total


class TestRecorder:
    def test_records_and_csv_roundtrip(self, small_grid, tmp_path):
        tables = landau.build_kernel_tables(-3.0, small_grid.velocity)
        spec = weights.WeightSpec("landau", -3.0, 10.0)
        st = make_initial_condition(small_grid, amplitude=1e-4, seed=5)
        rec = Recorder(spec, st.clone(), cadence=1,
                       epsilon_op=tables.epsilon_op, compute_d_k=False)
        advance(st, 0.02, TimeStepConfig(dt=0.01), tables, sink=rec)
        assert len(rec.records) == 3  # initial + 2 steps
        times = rec.times()
        assert np.all(np.diff(times) > 0)
        for r in rec.records:
            assert np.isfinite(r.e_k) and np.isfinite(r.energy_total)
        path = tmp_path / "series.csv"
        rec.to_csv(path)
        data = read_series_csv(path)
        assert list(data) == CSV_COLUMNS
        assert np.array_equal(data["time"], times)
        assert np.array_equal(data["e_k"], rec.series("e_k"))
        assert np.array_equal(data["mass_plus"], rec.series("mass_plus"))

    @pytest.mark.parametrize("cadence", [0, -2])
    def test_cadence_below_one_refused(self, small_grid, cadence):
        spec = weights.WeightSpec("landau", -3.0, 10.0)
        st = SystemState.zero(small_grid)
        with pytest.raises(ValueError, match="cadence"):
            Recorder(spec, st, cadence=cadence, compute_d_k=False)

    def test_same_time_record_has_zero_balance(self, small_grid):
        spec = weights.WeightSpec("landau", -3.0, 10.0)
        st = make_initial_condition(small_grid, amplitude=1e-4, seed=5)
        rec = Recorder(spec, st.clone(), compute_d_k=False)
        moved = transport_step(st, 0.01)
        rec.record_state(moved)
        assert rec.records[-1].balance_plus > 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            again = rec.record_state(moved.clone())
        assert again.balance_plus == 0.0 and again.balance_minus == 0.0

    def test_record_solves_no_poisson_problem(self, small_grid,
                                              monkeypatch):
        # the recorder keeps the state it is handed; a copy would solve
        # the copy's potential again
        spec = weights.WeightSpec("landau", -3.0, 10.0)
        st = make_initial_condition(small_grid, amplitude=1e-4, seed=5)
        rec = Recorder(spec, st, compute_d_k=False)
        moved = transport_step(st, 0.01)
        solves = []
        solve = poisson.solve_potential

        def counted(spatial, rho):
            solves.append(rho)
            return solve(spatial, rho)

        monkeypatch.setattr(poisson, "solve_potential", counted)
        rec.record_state(moved)
        assert solves == []
        assert rec.records[-1].balance_plus > 0.0

    @pytest.mark.parametrize("compute_d_k", [True, False])
    def test_one_transform_per_species_and_record(self, small_grid,
                                                  monkeypatch, compute_d_k):
        # E_k, D_k and the H^3 field norm share one set of mixed
        # derivatives per species, whether the D_k pass runs on one thread
        # or on two; on two it starts one pool per species
        spec = weights.WeightSpec("landau", -3.0, 10.0)
        st = make_initial_condition(small_grid, amplitude=1e-4, seed=5)
        moved = transport_step(st, 0.01)
        calls = []
        derivatives = weights.mixed_derivatives

        def counted(grid, values, indices):
            calls.append(values)
            return derivatives(grid, values, indices)

        monkeypatch.setattr(weights, "mixed_derivatives", counted)
        pools = []

        class Counted(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(grid_mod, "ThreadPoolExecutor", Counted)
        d_ks = []
        for threads in ("1", "2"):
            monkeypatch.setenv("VPLANDAU_THREADS", threads)
            rec = Recorder(spec, st.clone(), compute_d_k=compute_d_k)
            calls.clear()
            pools.clear()
            rec.record_state(moved)
            assert len(calls) == 2
            assert len(pools) == (2 * (int(threads) - 1) if compute_d_k
                                  else 0)
            d_ks.append(rec.records[-1].d_k)
        assert (d_ks[0] > 0.0) == compute_d_k
        assert d_ks[0] == d_ks[1]

    @pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5"])
    def test_bad_thread_count_refused(self, small_grid, monkeypatch, value):
        # the first record's D_k pass splits the nodes, and so does every
        # collision substep: both read the variable there
        tables = landau.build_kernel_tables(-3.0, small_grid.velocity,
                                            measure=False)
        monkeypatch.setenv("VPLANDAU_THREADS", value)
        spec = weights.WeightSpec("landau", -3.0, 10.0)
        with pytest.raises(ValueError, match="VPLANDAU_THREADS"):
            Recorder(spec, SystemState.zero(small_grid), compute_d_k=True)
        with pytest.raises(ValueError, match="VPLANDAU_THREADS"):
            advance(SystemState.zero(small_grid), 0.01,
                    TimeStepConfig(dt=0.01), tables)

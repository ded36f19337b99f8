"""Two-species state: Maxwellian, moments, projections, conservation, checkpoints."""

import json
import math
import warnings

import numpy as np
import pytest

from vplandau import poisson
from vplandau.grid import (
    PhaseGrid,
    SpatialGrid,
    VelocityGrid,
    integrate_v,
    integrate_x,
    l2_norm,
    truncation_tolerance,
)
from vplandau.landau import ConservativeCorrector
from vplandau.state import (
    SystemState,
    check_conservation,
    invariants,
    kernel_coefficients,
    kernel_fields,
    load_checkpoint,
    maxwellian,
    project_P,
    project_Pi,
    save_checkpoint,
)


def broadcast_pair(grid, vp, vm):
    return (np.broadcast_to(vp, grid.shape).copy(),
            np.broadcast_to(vm, grid.shape).copy())


class TestMaxwellian:
    def test_value_at_origin(self, clean_grid):
        mu = maxwellian(clean_grid.velocity)
        n = clean_grid.velocity.n_v
        center = (n // 2,) * 3  # node v = 0
        assert mu[center] == pytest.approx((2 * math.pi) ** -1.5, rel=1e-14)
        assert mu[center] == pytest.approx(0.0634936359, abs=1e-9)

    def test_normalization(self, desk_grid):
        ve = desk_grid.velocity
        mass = float(np.sum(maxwellian(ve))) * ve.node_weight
        assert abs(mass - 1.0) <= truncation_tolerance(ve.cutoff_L, ve.n_v, 0)

    def test_odd_moment_nearly_vanishes(self, desk_grid):
        ve = desk_grid.velocity
        mu = maxwellian(ve)
        for j in range(3):
            m = float(np.sum(ve.coordinate(j) * mu)) * ve.node_weight
            # only the unpaired node at -L contributes: ~ L exp(-L^2/2)
            assert abs(m) <= 1e-13


class TestInvariantTable:
    def test_cached_and_read_only(self, clean_grid):
        ve = clean_grid.velocity
        psi, psi_mu = invariants(ve)
        assert invariants(ve) is invariants(ve)
        assert psi.shape == psi_mu.shape == (5,) + ve.shape
        for table in (psi, psi_mu):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0, 0, 0] = 1.0

    def test_basis_pairs(self, desk_grid):
        ve = desk_grid.velocity
        mu = maxwellian(ve)
        zero = np.zeros_like(mu)
        e = (ve.speed_squared() - 3.0) * mu
        pairs = [(mu, zero), (zero, mu)]
        pairs += [(ve.coordinate(j) * mu,) * 2 for j in range(3)]
        pairs += [(e, e)]
        plus, minus = kernel_fields(ve, np.eye(6))
        assert plus.shape == minus.shape == (6,) + ve.shape
        for i, (bp, bm) in enumerate(pairs):
            assert np.max(np.abs(plus[i] - bp)) <= 1e-15 * np.max(mu)
            assert np.max(np.abs(minus[i] - bm)) <= 1e-15 * np.max(mu)

    def test_corrector_basis(self, desk_grid):
        ve = desk_grid.velocity
        mu = maxwellian(ve)
        psi = [ve.coordinate(j) for j in range(3)] + [ve.speed_squared()]
        expected = np.stack([mu] + [p * mu for p in psi])
        assert np.array_equal(ConservativeCorrector(ve).basis, expected)


class TestMoments:
    def test_reference_moments(self, clean_grid):
        mu = maxwellian(clean_grid.velocity)
        coef = kernel_coefficients(clean_grid.velocity,
                                   *broadcast_pair(clean_grid, mu, mu))
        tol = truncation_tolerance(10.0, 32, 4)
        assert np.max(np.abs(coef[0] - 1.0)) <= tol
        assert np.max(np.abs(coef[2:5])) <= tol
        assert np.max(np.abs(coef[5])) <= tol

    def test_energy_mode(self, clean_grid):
        ve = clean_grid.velocity
        e = (ve.speed_squared() - 3.0) * maxwellian(ve)
        coef = kernel_coefficients(ve, *broadcast_pair(clean_grid, e, e))
        # c = (int |v|^4 mu - 6 int |v|^2 mu + 9)/6 = (15 - 18 + 9)/6 = 1
        tol = truncation_tolerance(10.0, 32, 4)
        assert np.max(np.abs(coef[5] - 1.0)) <= tol
        assert np.max(np.abs(coef[0])) <= truncation_tolerance(10.0, 32, 2)

    def test_momentum_mode(self, clean_grid):
        ve = clean_grid.velocity
        vmu = ve.coordinate(0) * maxwellian(ve)
        coef = kernel_coefficients(ve, *broadcast_pair(clean_grid, vmu, vmu))
        tol = truncation_tolerance(10.0, 32, 3)
        # b1 = (1/2) int v1^2 (f+ + f-) = int v1^2 mu = 1 by isotropy
        assert np.max(np.abs(coef[2] - 1.0)) <= tol
        assert np.max(np.abs(coef[3])) <= tol
        assert np.max(np.abs(coef[5])) <= tol

    def test_moment_reconstruction_idempotent(self, clean_grid, rng):
        mu = maxwellian(clean_grid.velocity)
        ve = clean_grid.velocity
        x = clean_grid.spatial.coordinate(0)[:, None, None, None]
        f1 = (1 + 0.5 * np.cos(x)) * mu * (1 + 0.3 * ve.coordinate(1))
        f2 = (1 - 0.5 * np.sin(x)) * mu
        coef = kernel_coefficients(ve, f1, f2)
        coef2 = kernel_coefficients(ve, *kernel_fields(ve, coef))
        for a, b in zip(coef, coef2):
            assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(a)))


class TestProjections:
    def _random_state(self, grid, rng):
        mu = maxwellian(grid.velocity)
        ve = grid.velocity
        x = grid.spatial.coordinate(0)[:, None, None, None]
        f1 = (1 + 0.4 * np.cos(x)) * mu * (
            rng.standard_normal() + 0.2 * ve.coordinate(0)
            + 0.1 * ve.speed_squared())
        f2 = (1 - 0.3 * np.sin(2 * x)) * mu * (
            rng.standard_normal() + 0.1 * ve.coordinate(2))
        return SystemState(grid, f1, f2)

    def test_p_fixes_kernel_data(self, clean_grid):
        g = clean_grid
        mu = maxwellian(g.velocity)
        ve = g.velocity
        x = g.spatial.coordinate(0)[:, None, None, None]
        a = 1 + 0.2 * np.cos(x)
        f = a * mu * np.ones(g.shape)
        st = SystemState(g, f, f.copy())
        pp, pm = project_P(st)
        scale = l2_norm(g, f)
        assert l2_norm(g, pp - f) <= 1e-11 * scale

    def test_p_kills_offdiagonal(self, clean_grid):
        g = clean_grid
        ve = g.velocity
        od = ve.coordinate(0) * ve.coordinate(1) * maxwellian(ve)
        st = SystemState(g, *broadcast_pair(g, od, od))
        pp, pm = project_P(st)
        scale = l2_norm(g, np.broadcast_to(od, g.shape))
        assert l2_norm(g, pp) <= truncation_tolerance(10.0, 32, 4) * scale

    def test_p_idempotent_on_random_state(self, clean_grid, rng):
        st = self._random_state(clean_grid, rng)
        p1 = project_P(st)
        p2 = project_P(st.with_fields(*p1))
        scale = max(l2_norm(clean_grid, st.f_plus), 1e-300)
        defect = max(l2_norm(clean_grid, p2[0] - p1[0]),
                     l2_norm(clean_grid, p2[1] - p1[1]))
        assert defect <= 1e-11 * scale

    def test_pi_equals_p_for_homogeneous(self, clean_grid):
        g = clean_grid
        mu = maxwellian(g.velocity)
        e = (g.velocity.speed_squared() - 3.0) * mu
        st = SystemState(g, *broadcast_pair(g, 0.5 * mu, 0.1 * e))
        pp = project_P(st)
        qq = project_Pi(st)
        scale = max(l2_norm(g, st.f_plus), 1e-300)
        assert max(l2_norm(g, pp[0] - qq[0]),
                   l2_norm(g, pp[1] - qq[1])) <= 1e-12 * scale

    def test_pi_annihilates_microscopic_part(self, clean_grid, rng):
        st = self._random_state(clean_grid, rng)
        pp, pm = project_P(st)
        micro = st.with_fields(st.f_plus - pp, st.f_minus - pm)
        rp, rm = project_Pi(micro)
        scale = max(l2_norm(clean_grid, st.f_plus), 1e-300)
        assert max(l2_norm(clean_grid, rp),
                   l2_norm(clean_grid, rm)) <= 1e-11 * scale

    def test_pi_idempotent(self, clean_grid, rng):
        st = self._random_state(clean_grid, rng)
        q1 = project_Pi(st)
        q2 = project_Pi(st.with_fields(*q1))
        scale = max(l2_norm(clean_grid, st.f_plus), 1e-300)
        assert max(l2_norm(clean_grid, q2[0] - q1[0]),
                   l2_norm(clean_grid, q2[1] - q1[1])) <= 1e-11 * scale

    def test_pi_of_zero(self, clean_grid):
        st = SystemState.zero(clean_grid)
        rp, rm = project_Pi(st)
        assert np.max(np.abs(rp)) == 0.0 and np.max(np.abs(rm)) == 0.0


class TestStateInvariants:
    def test_phi_consistency(self, desk_grid):
        mu = maxwellian(desk_grid.velocity)
        x = desk_grid.spatial.coordinate(0)[:, None, None, None]
        f = 1e-3 * np.cos(x) * mu
        st = SystemState(desk_grid, f, -f)
        rho = integrate_v(desk_grid, st.f_plus - st.f_minus)
        res = poisson.residual(desk_grid.spatial, st.phi, rho)
        assert res <= 1e-11 * l2_norm(desk_grid, rho, "x")
        assert abs(float(np.mean(st.phi))) < 1e-15

    def test_clone_independent(self, desk_grid, rng):
        st = SystemState(desk_grid, rng.standard_normal(desk_grid.shape),
                         rng.standard_normal(desk_grid.shape))
        cl = st.clone()
        cl.f_plus[0] = 999.0
        assert st.f_plus[0, 0, 0, 0] != 999.0


class TestConservation:
    def test_self_comparison_zero_drift(self, desk_grid, rng):
        mu = maxwellian(desk_grid.velocity)
        st = SystemState(desk_grid, 1e-3 * mu * np.ones(desk_grid.shape),
                         1e-3 * mu * np.ones(desk_grid.shape))
        rep = check_conservation(st, st)
        assert rep.max_relative_drift() == 0.0

    def test_projected_state_satisfies_invariants(self, desk_grid, rng):
        from vplandau.initial import make_initial_condition

        st = make_initial_condition(desk_grid, amplitude=1e-3, seed=7)
        zero = SystemState.zero(desk_grid)
        rep = check_conservation(st, zero)
        assert rep.max_relative_drift() <= 1e-11

    def test_neutral_data_sets_up_without_charge_warnings(self):
        # criterion 7's data: neutral in x, but each unprojected attempt
        # carries a charge the projection removes; only the positivity
        # halvings may warn
        from vplandau.initial import make_initial_condition

        grid = PhaseGrid(SpatialGrid(1, 4), VelocityGrid(16, 8.0))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            st = make_initial_condition(
                grid, family="single_mode", amplitude=1e-3, modes=(0,),
                profile="weighted_maxwellian", tail_power=4.0, seed=11)
        messages = [str(w.message) for w in caught]
        assert not [m for m in messages if "charge density" in m]
        assert any("halving amplitude" in m for m in messages)
        rho = integrate_v(grid, st.f_plus - st.f_minus)
        assert np.max(np.abs(rho)) <= 1e-17


class TestCheckpoint:
    def test_bit_exact_roundtrip(self, desk_grid, rng, tmp_path):
        st = SystemState(desk_grid, rng.standard_normal(desk_grid.shape),
                         rng.standard_normal(desk_grid.shape), time=1.375)
        path = tmp_path / "chk.npz"
        save_checkpoint(path, st)
        back = load_checkpoint(path)
        assert back.time == st.time
        assert np.array_equal(back.f_plus, st.f_plus)
        assert np.array_equal(back.f_minus, st.f_minus)
        assert np.array_equal(back.phi, st.phi)
        assert back.grid.shape == st.grid.shape
        with np.load(path) as data:
            assert set(data.files) == {"header", "time", "f_plus", "f_minus"}

    def test_unknown_format_refused(self, desk_grid, tmp_path):
        path = tmp_path / "chk.npz"
        save_checkpoint(path, SystemState.zero(desk_grid))
        with np.load(path) as data:
            payload = dict(data)
        header = json.loads(bytes(payload["header"]).decode())
        header["format"] = 99
        payload["header"] = np.frombuffer(json.dumps(header).encode(),
                                          dtype=np.uint8)
        np.savez(path, **payload)
        with pytest.raises(ValueError, match="unknown checkpoint format 99"):
            load_checkpoint(path)

"""Weight algebra, the inequality suite, and the weighted functionals."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from vplandau.errors import ParameterError
from vplandau.grid import (
    PhaseGrid,
    SpatialGrid,
    VelocityGrid,
    l2_norm,
)
from vplandau.oracle import highres_norm
from vplandau.state import SystemState, maxwellian, project_P, projection_upper_constant
from vplandau.weights import (
    WeightLadderConstants,
    WeightSpec,
    anisotropic_gradient,
    bracket,
    exp_weight_field,
    functional_D_k,
    functional_E_k,
    h3_grad_norm_sq,
    landau_D_norm,
    mixed_indices,
    norm_L2k,
    norm_X_k,
    norm_Y_k,
    weight_A,
    weight_exponent,
    weight_field,
    weight_inequality_suite,
)


class TestWeightSpec:
    def test_landau_exponents(self):
        spec = WeightSpec("landau", -3.0, 10.0)
        assert (spec.q, spec.p, spec.r) == (7.0, 3.0, 20.0)
        assert weight_exponent(spec, 0, 0) == 30.0
        assert weight_exponent(spec, 2, 0) == 24.0
        assert weight_exponent(spec, 0, 2) == 16.0 == spec.k + 6.0

    def test_landau_hard_exponent(self):
        spec = WeightSpec("landau", 1.0, 10.0)
        assert spec.q == 3.0 and spec.r == 12.0
        assert weight_exponent(spec, 1, 1) == 16.0

    def test_boltzmann_exponents(self):
        spec = WeightSpec("boltzmann", 0.0, 17.0, s=0.5)
        assert (spec.q, spec.p, spec.r) == (6.0, 5.0, 18.0)
        assert weight_exponent(spec, 0, 0) == 35.0

    def test_parameter_guards(self):
        with pytest.raises(ParameterError):
            WeightSpec("landau", -3.5, 10.0)
        with pytest.raises(ParameterError):
            WeightSpec("boltzmann", -3.0, 17.0, s=0.75)  # open interval
        with pytest.raises(ParameterError):
            WeightSpec("boltzmann", 0.0, 17.0, s=0.4)
        with pytest.raises(ParameterError):
            WeightSpec("boltzmann", -2.0, 17.0, s=0.5)  # gamma + 2s <= -1
        with pytest.raises(ParameterError):
            weight_exponent(WeightSpec("landau", 0.0, 10.0), 2, 1)

    def test_every_broken_constraint_is_named(self):
        broken = WeightSpec.violations("boltzmann", -3.0, -1.0, s=0.25)
        assert [v.split(":")[0] for v in broken] == [
            "gamma range", "s range", "gamma+2s", "k range"]
        with pytest.raises(ParameterError, match="s range.*gamma\\+2s"):
            WeightSpec("boltzmann", -2.0, 17.0, s=0.4)
        assert WeightSpec.violations("maxwell", 0.0, 10.0) == [
            "model name: unknown model 'maxwell'"]
        assert WeightSpec.violations("landau", 1.0, 0.0) == []

    def test_weight_at_least_one(self, rng):
        pts = rng.uniform(-8, 8, size=(200, 3))
        br = np.sqrt(1 + np.sum(pts**2, axis=1))
        for gamma in (-3.0, 0.0, 1.0):
            spec = WeightSpec("landau", gamma, 0.0)
            for a in range(3):
                for b in range(3 - a):
                    w = br ** weight_exponent(spec, a, b)
                    assert np.all(w >= 1.0 - 1e-12)


class TestInequalitySuite:
    def test_landau_all_pass(self, rng):
        pts = rng.uniform(-8, 8, size=(1000, 3))
        spec = WeightSpec("landau", -3.0, 10.0)
        results = weight_inequality_suite(spec, pts)
        assert all(r.passed for r in results)

    def test_boltzmann_all_pass(self, rng):
        pts = rng.uniform(-8, 8, size=(1000, 3))
        spec = WeightSpec("boltzmann", -1.0, 20.0, s=0.75)
        results = weight_inequality_suite(spec, pts)
        assert all(r.passed for r in results)

    def test_corrupted_r_fails_floor(self, rng):
        pts = rng.uniform(-8, 8, size=(1000, 3))
        spec = WeightSpec("landau", -3.0, 10.0)
        results = weight_inequality_suite(spec, pts, r_override=2.0 * spec.q)
        floor = [r for r in results if r.name.startswith("floor")]
        assert any(not r.passed for r in floor)
        # the failing cases are exactly the beta-heavy corners of the family
        failing = {r.name for r in floor if not r.passed}
        assert "floor[0,2]" in failing

    def test_ladder_order_relations(self):
        ladder = WeightLadderConstants(ratio=100.0)
        assert ladder.check_order_relations()
        assert ladder.value(1, 1) / ladder.value(1, 0) >= 100.0
        assert ladder.value(2, 0) / ladder.value(1, 1) >= 100.0


class TestExpWeight:
    def test_phi_zero_gives_one(self, small_grid):
        spec = WeightSpec("landau", -3.0, 10.0)
        field = exp_weight_field(spec, small_grid, 0, 0,
                                 np.zeros(small_grid.spatial.shape))
        assert np.max(np.abs(field - 1.0)) == 0.0

    def test_gradient_identity_constant(self):
        # grad_v(w^2) = A v <v>^{-2} w^2 with A = 2 x exponent; verified with
        # high-order finite differences of the analytic weight (the weight is
        # far from band-limited, so a spectral check cannot resolve it)
        spec = WeightSpec("landau", -3.0, 10.0)
        a_const = weight_A(spec, 0, 1)
        expo = weight_exponent(spec, 0, 1)
        rng = np.random.default_rng(3)
        pts = rng.uniform(-4, 4, size=(50, 3))
        h = 1e-3

        def w2(v):
            return (1.0 + np.sum(v**2, axis=-1)) ** expo

        for j in range(3):
            e = np.zeros(3)
            e[j] = 1.0
            # fourth-order central difference
            num = (-w2(pts + 2 * h * e) + 8 * w2(pts + h * e)
                   - 8 * w2(pts - h * e) + w2(pts - 2 * h * e)) / (12 * h)
            br2 = 1.0 + np.sum(pts**2, axis=-1)
            exact = a_const * pts[:, j] / br2 * w2(pts)
            assert np.max(np.abs(num - exact) / np.abs(w2(pts))) < 1e-6

    def test_pointwise_bound_small_phi(self, small_grid):
        # |e^{A phi/<v>^2} - 1| <= A ||phi|| e^{A ||phi||} / <v>^2 (mean value
        # theorem with the exact exponential factor; the bare A ||phi|| bound
        # fails for positive exponents)
        spec = WeightSpec("landau", -3.0, 10.0)
        phi = 1e-4 * np.cos(small_grid.spatial.coordinate(0))
        a_const = weight_A(spec, 0, 0)
        field = exp_weight_field(spec, small_grid, 0, 0, phi)
        sup = a_const * np.max(np.abs(phi))
        br2 = 1.0 + small_grid.velocity.speed_squared()
        bound = sup * math.exp(sup) / br2
        assert np.all(np.abs(field - 1.0) <= bound + 1e-15)


class TestDissipationNorm:
    def test_zero(self):
        ve = VelocityGrid(16, 8.0)
        assert landau_D_norm(np.zeros(ve.shape), ve, -3.0) == 0.0

    def test_radial_reduction_oracle(self):
        # radial data: the anisotropic part collapses to the radial
        # derivative; cross-check against 1-D radial quadrature
        ve = VelocityGrid(32, 8.0)
        gamma = -3.0
        f = np.exp(-0.5 * ve.speed_squared())
        val = landau_D_norm(f, ve, gamma)
        i1 = quad(lambda r: 4 * math.pi * r**2
                  * (math.exp(-r * r / 2) * (1 + r * r) ** (gamma / 4)) ** 2,
                  0, 14, limit=200)[0]
        i2 = quad(lambda r: 4 * math.pi * r**2
                  * (r * math.exp(-r * r / 2) * (1 + r * r) ** (gamma / 4)) ** 2,
                  0, 14, limit=200)[0]
        exact = math.sqrt(i1) + math.sqrt(i2)
        assert val == pytest.approx(exact, rel=1e-5)

    def test_splitting_immaterial_at_origin(self):
        ve = VelocityGrid(16, 8.0)
        rng = np.random.default_rng(0)
        f = np.exp(-0.5 * ve.speed_squared()) * (1 + 0.1 * ve.coordinate(1))
        from vplandau.grid import v_derivative_trailing

        tilde = anisotropic_gradient(ve, f)
        plain = [v_derivative_trailing(ve, f, a) for a in range(3)]
        c = ve.n_v // 2
        for a in range(3):
            assert tilde[a][c, c, c] == pytest.approx(plain[a][c, c, c],
                                                      abs=1e-14)

    def test_one_value_per_spatial_node(self, small_grid):
        # a phase-space field reduces over the velocity axes only, exactly
        # as slice by slice
        rng = np.random.default_rng(5)
        f = rng.standard_normal(small_grid.shape)
        ve = small_grid.velocity
        vals = landau_D_norm(f, ve, -3.0)
        assert vals.shape == (small_grid.spatial.n_x,)
        assert np.array_equal(
            vals, [landau_D_norm(f[i], ve, -3.0) for i in range(len(vals))])


class TestFunctionals:
    def _state(self, grid, scale=1e-3):
        mu = maxwellian(grid.velocity)
        x = grid.spatial.coordinate(0)[:, None, None, None]
        f = scale * (1 + 0.5 * np.cos(x)) * mu
        return SystemState(grid, f, -f)

    def test_zero_state(self, small_grid):
        spec = WeightSpec("landau", -3.0, 10.0)
        st = SystemState.zero(small_grid)
        assert norm_X_k(st, spec) == 0.0
        assert functional_E_k(st, spec) == 0.0
        assert functional_D_k(st, spec) == 0.0

    def test_x_k_single_shell_against_highres(self, desk_grid):
        # f = mu with a modest weight index: compare the (0,0) term against
        # the same norm on a refined grid (the oracle defines the accuracy)
        spec = WeightSpec("landau", -3.0, 2.0)
        mu = np.broadcast_to(maxwellian(desk_grid.velocity),
                             desk_grid.shape).copy()
        st = SystemState(desk_grid, mu * 1e-3, mu * 1e-3)
        expo = weight_exponent(spec, 0, 0)

        def fn(xs, v1, v2, v3):
            g = (2 * math.pi) ** -1.5 * np.exp(-0.5 * (v1**2 + v2**2 + v3**2))
            return 1e-3 * (1.0 + 0.0 * xs[0]) * g

        def wfun(v1, v2, v3):
            return (1.0 + v1**2 + v2**2 + v3**2) ** (expo / 2.0)

        ref2 = highres_norm(fn, desk_grid, wfun, (0,), (0, 0, 0), factor=2)
        ref4 = highres_norm(fn, desk_grid, wfun, (0,), (0, 0, 0), factor=4)
        # the oracle itself is refinement-converged ...
        assert ref2 == pytest.approx(ref4, rel=1e-8)
        wf = weight_field(spec, desk_grid.velocity, 0, 0)
        val = l2_norm(desk_grid, wf * st.f_plus)
        # ... and pins the desk grid's quadrature error for this wide
        # weighted integrand (measured ~3e-4 at h = 1)
        assert val == pytest.approx(ref4, rel=2e-3)

    def test_x_k_quadratic_scaling(self, small_grid):
        spec = WeightSpec("landau", -3.0, 10.0)
        st = self._state(small_grid)
        st2 = small_grid and st.with_fields(2 * st.f_plus, 2 * st.f_minus)
        phi = st.phi
        a = norm_X_k(st, spec, phi_override=phi)
        b = norm_X_k(st2, spec, phi_override=phi)
        assert b == pytest.approx(4.0 * a, rel=1e-12)

    def test_h3_grad_norm_closed_form(self):
        # phi = cos(x1): sum over j<=3 of ||grad d^j phi||^2 = 4 pi (dim 1)
        sp = SpatialGrid(1, 16)
        phi = np.cos(sp.axis_nodes())
        assert h3_grad_norm_sq(sp, phi) == pytest.approx(4.0 * math.pi,
                                                         rel=1e-12)

    def test_e_k_forced_phi_only(self, small_grid):
        spec = WeightSpec("landau", -3.0, 10.0)
        st = SystemState.zero(small_grid)
        # E_k of a zero state is zero; forcing phi externally only shows up
        # through the H^3 term, which the closed form above pins
        assert functional_E_k(st, spec) == 0.0

    def test_monotone_under_shell_truncation(self, small_grid):
        spec = WeightSpec("landau", -3.0, 10.0)
        st = self._state(small_grid)
        full = norm_X_k(st, spec)
        indices1 = [ab for ab in mixed_indices(small_grid.dim_x)
                    if sum(ab[0]) + sum(ab[1]) <= 1]
        # recompute with the order-2 shell dropped
        from vplandau.weights import mixed_derivatives, WeightLadderConstants
        ladder = WeightLadderConstants()
        partial = 0.0
        br2 = 1.0 + small_grid.velocity.speed_squared()
        for sign, f in ((+1, st.f_plus), (-1, st.f_minus)):
            ders = mixed_derivatives(small_grid, f, indices1)
            for (al, be), der in ders.items():
                a, b = sum(al), sum(be)
                wf = weight_field(spec, small_grid.velocity, a, b)
                ew = np.exp(sign * weight_A(spec, a, b)
                            * st.phi[(...,) + (None,) * 3] / br2)
                partial += ladder.value(a, b) * l2_norm(
                    small_grid, ew * wf * der) ** 2
        assert partial <= full

    def test_y_k_zero_and_boltzmann_guard(self, small_grid):
        spec = WeightSpec("landau", -3.0, 10.0)
        st = SystemState.zero(small_grid)
        assert norm_Y_k(st, spec) == 0.0
        bspec = WeightSpec("boltzmann", -1.0, 17.0, s=0.75)
        with pytest.raises(ParameterError):
            norm_Y_k(st, bspec)


class TestNormEquivalence:
    def test_explicit_constants_on_random_fields(self, clean_grid, rng):
        k = 4.0
        g = clean_grid
        mu = maxwellian(g.velocity)
        upper = projection_upper_constant(g, k)
        for _ in range(10):
            x = g.spatial.coordinate(0)[:, None, None, None]
            f1 = (1 + 0.3 * rng.standard_normal() * np.cos(x)) * mu \
                * (1 + 0.2 * rng.standard_normal() * g.velocity.coordinate(0))
            f2 = mu * rng.standard_normal() * np.exp(
                -0.1 * g.velocity.speed_squared()) * np.ones(g.shape)
            st = SystemState(g, f1, f2)
            pp, pm = project_P(st)
            total = norm_L2k(g, st.f_plus, k) ** 2 \
                + norm_L2k(g, st.f_minus, k) ** 2
            split = (norm_L2k(g, pp, k) ** 2 + norm_L2k(g, pm, k) ** 2
                     + norm_L2k(g, st.f_plus - pp, k) ** 2
                     + norm_L2k(g, st.f_minus - pm, k) ** 2)
            assert split >= 0.5 * total * (1 - 1e-12)
            assert split <= upper * total * (1 + 1e-12)

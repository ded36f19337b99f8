"""Weight algebra, the inequality suite, and the weighted functionals."""

import math
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy.fft as sfft
from scipy.integrate import quad

import vplandau
from vplandau import grid as grid_mod
from vplandau import landau
from vplandau.dynamics import TimeStepConfig, advance
from vplandau.errors import ParameterError
from vplandau.grid import (
    PhaseGrid,
    SpatialGrid,
    VelocityGrid,
    along,
    derivative_multiplier,
    l2_norm,
)
from vplandau.initial import make_initial_condition
from vplandau.oracle import highres_norm
from vplandau.state import (
    SystemState,
    maxwellian,
    project_P_pair,
    projection_upper_constant,
)
from vplandau.weights import (
    LADDER_RATIO,
    WeightSpec,
    anisotropic_gradient,
    bracket,
    energy_dissipation,
    exp_weight_field,
    functional_D_k,
    functional_E_k,
    h3_grad_norm_sq,
    ladder_constant,
    landau_D_norm,
    mixed_derivatives,
    mixed_indices,
    norm_L2k,
    spatial_derivatives,
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

    @pytest.mark.parametrize("k", [math.nan, math.inf, -1.0])
    def test_k_must_be_finite_and_nonnegative(self, k):
        with pytest.raises(ParameterError, match="k range"):
            WeightSpec("landau", -3.0, k)

    def test_ladder_order_relations(self):
        assert LADDER_RATIO == 100.0
        c = ladder_constant
        for a in range(3):
            for b in range(3 - a):
                for b1 in range(b):
                    assert c(a, b) >= LADDER_RATIO * c(a, b1)
                if b >= 1:
                    assert c(a + 1, b - 1) == LADDER_RATIO * c(a, b)
        assert c(1, 1) / c(1, 0) >= 100.0
        assert c(2, 0) / c(1, 1) >= 100.0


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
        # charge-free data (f+ = f-): phi = 0, so E_k is X_k alone, with
        # the same unit exponential weight at both amplitudes
        spec = WeightSpec("landau", -3.0, 10.0)
        f = self._state(small_grid).f_plus
        st = SystemState(small_grid, f, f)
        st2 = st.with_fields(2 * f, 2 * f)
        assert np.max(np.abs(st.phi)) == 0.0 == np.max(np.abs(st2.phi))
        a, _, h3 = energy_dissipation(st, spec, with_d_k=False)
        b, _, h3_2 = energy_dissipation(st2, spec, with_d_k=False)
        assert h3 == 0.0 == h3_2
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
        e_k, _, h3 = energy_dissipation(st, spec, with_d_k=False)
        # recompute with the order-2 shell dropped
        partial = 0.0
        br2 = 1.0 + small_grid.velocity.speed_squared()
        nodes = [slice(0, small_grid.spatial.n_x)]
        for sign, f in ((+1, st.f_plus), (-1, st.f_minus)):
            ders = _walked_derivatives(small_grid, f, nodes)
            for (al, be), der in ders.items():
                a, b = sum(al), sum(be)
                if a + b > 1:
                    continue
                wf = weight_field(spec, small_grid.velocity, a, b)
                ew = np.exp(sign * weight_A(spec, a, b)
                            * st.phi[(...,) + (None,) * 3] / br2)
                partial += ladder_constant(a, b) * l2_norm(
                    small_grid, ew * wf * der) ** 2
        assert partial + h3 <= e_k

    def test_y_k_zero_and_boltzmann_guard(self, small_grid):
        spec = WeightSpec("landau", -3.0, 10.0)
        st = SystemState.zero(small_grid)
        assert functional_D_k(st, spec) == 0.0
        bspec = WeightSpec("boltzmann", -1.0, 17.0, s=0.75)
        with pytest.raises(ParameterError):
            functional_D_k(st, bspec)


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
            # the pairs are not charge neutral: project them directly
            pp, pm = project_P_pair(g.velocity, f1, f2)
            total = norm_L2k(g, f1, k) ** 2 + norm_L2k(g, f2, k) ** 2
            split = (norm_L2k(g, pp, k) ** 2 + norm_L2k(g, pm, k) ** 2
                     + norm_L2k(g, f1 - pp, k) ** 2
                     + norm_L2k(g, f2 - pm, k) ** 2)
            assert split >= 0.5 * total * (1 - 1e-12)
            assert split <= upper * total * (1 + 1e-12)


# ---- the shared pass against the per-pair formula it replaced ---------------


def _complex_derivative(grid, values, al, be):
    """``d^alpha_beta`` through complex ``fftn``/``ifftn``."""
    hat = sfft.fftn(values, norm="forward")
    nd = values.ndim
    for axis, o in enumerate(al + be):
        if o:
            hat = hat * along(derivative_multiplier(grid.axis_grid(axis), o),
                              axis, nd)
    return sfft.ifftn(hat, norm="forward").real


def _walked_derivatives(grid, values, parts):
    """Every pair's ``d^alpha_beta`` on the whole grid, from one walk of
    :func:`mixed_derivatives` per block of spatial nodes in ``parts``."""
    x_ders = spatial_derivatives(grid, values)
    nodes = math.prod(grid.spatial.shape)
    work = np.empty((4, nodes) + grid.velocity.shape)
    out = {}
    for part in parts:
        for pair, der in mixed_derivatives(grid, x_ders, part, work[:, part]):
            out.setdefault(pair, np.empty_like(work[0]))[part] = der
    return {pair: der.reshape(grid.shape) for pair, der in out.items()}


def _oracle_D_norm(values, velocity_grid, gamma):
    """Landau dissipation norm from the vector anisotropic gradient."""
    axes = (-3, -2, -1)
    w = velocity_grid.node_weight
    br_g = bracket(velocity_grid) ** (0.5 * gamma)
    first = np.sqrt(np.sum((values * br_g) ** 2, axis=axes) * w)
    tilde = anisotropic_gradient(velocity_grid, values)
    second = np.sqrt(sum(np.sum((t * br_g) ** 2, axis=axes) for t in tilde)
                     * w)
    return first + second


def _oracle_functionals(state, spec):
    """``(E_k, D_k)`` pair by pair: complex transforms, the vector
    anisotropic gradient and fresh weight fields for every pair."""
    g = state.grid
    x_k = y_k = 0.0
    for sign, f in ((+1, state.f_plus), (-1, state.f_minus)):
        for al, be in mixed_indices(g.dim_x):
            der = _complex_derivative(g, f, al, be)
            a, b = sum(al), sum(be)
            wf = weight_field(spec, g.velocity, a, b)
            ew = exp_weight_field(spec, g, a, b, state.phi, sign)
            x_k += ladder_constant(a, b) * l2_norm(g, ew * wf * der) ** 2
            d_norm = _oracle_D_norm(wf * der, g.velocity, spec.gamma)
            y_k += float(np.sum(d_norm**2)) * g.spatial.cell_volume
    h3 = h3_grad_norm_sq(g.spatial, state.phi)
    return x_k + h3, y_k + h3


def _evolve(grid, seed):
    """The state after two steps of ``dt = 0.005``, per collision gamma."""
    start = make_initial_condition(grid, amplitude=1e-3, seed=seed)
    out = {}
    for gamma in (-3.0, 0.0):
        tables = landau.build_kernel_tables(gamma, grid.velocity)
        out[gamma] = advance(start.clone(), 0.01, TimeStepConfig(dt=0.005),
                             tables)
    return out


@pytest.fixture(scope="module")
def evolved():
    """The README run's state after two steps, per collision gamma."""
    return _evolve(PhaseGrid(SpatialGrid(1, 16), VelocityGrid(16, 8.0)), 1234)


@pytest.fixture(scope="module")
def evolved_2d():
    """A 4x4-node, 8^3 state after two steps, per collision gamma: 21
    index pairs, and spatial derivatives along two axes."""
    return _evolve(PhaseGrid(SpatialGrid(2, 4), VelocityGrid(8, 8.0)), 5)


def _rel(new, ref):
    return abs(new - ref) / abs(ref)


def _assert_per_pair_formula(state, spec):
    # measured 1e-14 (1-D) and 4e-14 (2-D) at gamma = 0, whose states'
    # tails sit far above the transforms' round-off
    e_k, d_k, h3 = energy_dissipation(state, spec)
    e_ref, d_ref = _oracle_functionals(state, spec)
    assert _rel(e_k, e_ref) <= 1e-12
    assert _rel(d_k, d_ref) <= 1e-12
    assert h3 == h3_grad_norm_sq(state.grid.spatial, state.phi)
    assert functional_E_k(state, spec) == e_k
    assert functional_D_k(state, spec) == d_k
    assert energy_dissipation(state, spec, with_d_k=False) == (e_k, 0.0, h3)


def _assert_within_round_off_spread(state, spec):
    # E_k and D_k sit on a round-off floor here (README, Known
    # limitations): the bound is twice the largest change that a 1e-16
    # relative perturbation of f+ makes in the per-pair formula
    e_ref, d_ref = _oracle_functionals(state, spec)
    spread_e = spread_d = 0.0
    for seed in range(8):
        z = np.random.default_rng(seed).standard_normal(state.grid.shape)
        z *= 1e-16 * np.linalg.norm(state.f_plus) / np.linalg.norm(z)
        e, d = _oracle_functionals(
            state.with_fields(state.f_plus + z, state.f_minus), spec)
        spread_e = max(spread_e, _rel(e, e_ref))
        spread_d = max(spread_d, _rel(d, d_ref))
    assert spread_e > 0.0 and spread_d > 0.0
    e_k, d_k, _ = energy_dissipation(state, spec)
    assert _rel(e_k, e_ref) <= 2.0 * spread_e
    assert _rel(d_k, d_ref) <= 2.0 * spread_d


def _assert_bit_identical_across_workers(state, spec, monkeypatch):
    # e_k, d_k and h3 at VPLANDAU_THREADS 1, 2 and 3: the per-node terms
    # reduce in node order either way; the D_k pass starts one pool per
    # species, the E_k-only pass none
    pools = []

    class Counted(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(grid_mod, "ThreadPoolExecutor", Counted)
    # a 1 us switch interval interleaves the blocks' threads finely
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    results = []
    try:
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("VPLANDAU_THREADS", threads)
            results.append(energy_dissipation(state, spec))
    finally:
        sys.setswitchinterval(interval)
    one, two, three = results
    assert one[1] > 0.0
    assert [x.hex() for x in one] == [x.hex() for x in two] \
        == [x.hex() for x in three]
    assert len(pools) == 4
    assert energy_dissipation(state, spec, with_d_k=False) \
        == (one[0], 0.0, one[2])
    assert len(pools) == 4  # the E_k-only pass starts no thread


class TestSharedPass:
    def test_matches_the_per_pair_formula_at_gamma_0(self, evolved):
        _assert_per_pair_formula(evolved[0.0], WeightSpec("landau", 0.0, 10.0))

    def test_within_the_round_off_spread_at_gamma_minus_3(self, evolved):
        _assert_within_round_off_spread(evolved[-3.0],
                                        WeightSpec("landau", -3.0, 10.0))

    def test_two_spatial_dimensions_match_the_per_pair_formula(
            self, evolved_2d):
        _assert_per_pair_formula(evolved_2d[0.0],
                                 WeightSpec("landau", 0.0, 10.0))

    def test_bit_identical_across_workers(self, small_grid, monkeypatch):
        # at VPLANDAU_THREADS 1, 2 and 3 the pass splits the 8 nodes into
        # 1, 2 and 3 blocks, once per species
        monkeypatch.delenv("VPLANDAU_THREADS", raising=False)
        tables = landau.build_kernel_tables(-3.0, small_grid.velocity,
                                            measure=False)
        state = advance(
            make_initial_condition(small_grid, amplitude=1e-3, seed=5),
            0.005, TimeStepConfig(dt=0.005), tables)
        _assert_bit_identical_across_workers(
            state, WeightSpec("landau", -3.0, 10.0), monkeypatch)

    @pytest.mark.parametrize("gamma", [-3.0, 0.0])
    def test_two_spatial_dimensions_bit_identical_across_workers(
            self, evolved_2d, monkeypatch, gamma):
        # 16 nodes in 1, 2 and 3 blocks (6, 5 and 5 nodes at 3 threads)
        _assert_bit_identical_across_workers(
            evolved_2d[gamma], WeightSpec("landau", gamma, 10.0), monkeypatch)

    @pytest.mark.parametrize("with_d_k", [True, False])
    def test_peak_memory_of_one_pass(self, small_grid, monkeypatch,
                                     with_d_k):
        # a pair-by-pair walk holds the spatial derivatives (2 at dim_x = 1)
        # and a workspace of 8 arrays shaped like f+ (5 without D_k): 10
        # such arrays, with room for numpy's temporaries under 16.  A pass
        # that keeps every pair's derivative on the whole grid holds 15
        # for them alone, and fails.
        monkeypatch.setenv("VPLANDAU_THREADS", "1")
        state = make_initial_condition(small_grid, amplitude=1e-3, seed=5)
        spec = WeightSpec("landau", -3.0, 10.0)
        energy_dissipation(state, spec, with_d_k)  # fill the read-only caches
        tracemalloc.start()
        try:
            energy_dissipation(state, spec, with_d_k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * state.f_plus.nbytes

    @pytest.mark.parametrize("gamma", [-3.0, 0.0, 1.0])
    def test_closed_form_of_the_anisotropic_gradient(self, small_grid, rng,
                                                     gamma):
        # <v>^2 |grad u|^2 - (v . grad u)^2 = sum_a grad_tilde(u)_a^2
        u = rng.standard_normal(small_grid.shape)
        ve = small_grid.velocity
        got = landau_D_norm(u, ve, gamma)
        want = _oracle_D_norm(u, ve, gamma)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want)

    @pytest.mark.parametrize("dim_x", [1, 2])
    def test_real_transforms_match_complex_ones(self, rng, dim_x):
        # the spatial derivatives on the whole grid, the velocity ones per
        # block of nodes: two blocks give the bits of one
        g = PhaseGrid(SpatialGrid(dim_x, 8), VelocityGrid(8, 6.0))
        f = rng.standard_normal(g.shape)
        nodes = 8**dim_x
        ders = _walked_derivatives(g, f, [slice(0, nodes)])
        assert len(ders) == len(mixed_indices(dim_x))
        for (al, be), der in ders.items():
            want = _complex_derivative(g, f, al, be)
            assert np.max(np.abs(der - want)) <= 1e-13 * np.max(np.abs(want))
        halves = _walked_derivatives(g, f, [slice(0, 3), slice(3, nodes)])
        assert all(np.array_equal(halves[ab], der) for ab, der in ders.items())
        zero = ((0,) * dim_x, (0, 0, 0))
        x_ders = spatial_derivatives(g, f)
        first, der = next(mixed_derivatives(g, x_ders, slice(0, nodes),
                                            np.empty((4, nodes, 8, 8, 8))))
        assert first == zero
        assert np.shares_memory(der, f) and np.array_equal(
            der, f.reshape(der.shape))

    @pytest.mark.parametrize("dim_x, pairs", [(1, 15), (2, 21), (3, 28)])
    def test_mixed_index_order(self, dim_x, pairs):
        # X_k sums over the pairs in this order: alpha by total order, then
        # lexicographically, and within one alpha the same rule for beta
        got = mixed_indices(dim_x)
        assert len(set(got)) == len(got) == pairs
        assert all(sum(al) + sum(be) <= 2 for al, be in got)
        assert got == sorted(got, key=lambda ab: (sum(ab[0]), ab[0],
                                                  sum(ab[1]), ab[1]))


# ---- outputs do not depend on the BLAS thread count ---------------------------

_THREAD_PROBE = """
import hashlib
import numpy as np
from vplandau import landau
from vplandau.dynamics import TimeStepConfig, advance
from vplandau.grid import (PhaseGrid, SpatialGrid, VelocityGrid,
                           v_derivative_trailing)
from vplandau.initial import make_initial_condition
from vplandau.weights import WeightSpec, energy_dissipation

h = hashlib.sha256()
ve = VelocityGrid(32, 8.0)
f = np.random.default_rng(3).standard_normal((2, 8) + ve.shape)
for a in range(3):
    h.update(v_derivative_trailing(ve, f, a).tobytes())
h.update(landau.convolve_tables(
    landau.build_kernel_tables(-3.0, ve, measure=False), f[0]).tobytes())
grid = PhaseGrid(SpatialGrid(1, 8), VelocityGrid(16, 8.0))
tables = landau.build_kernel_tables(-3.0, grid.velocity, measure=False)
state = advance(make_initial_condition(grid, amplitude=1e-3, seed=7), 0.02,
                TimeStepConfig(dt=0.01), tables)
h.update(state.f_plus.tobytes() + state.f_minus.tobytes())
ed = energy_dissipation(state, WeightSpec("landau", -3.0, 10.0))
h.update(np.array(ed).tobytes())
print(h.hexdigest())
"""


def test_outputs_byte_identical_across_blas_threads():
    # the derivatives and convolutions are BLAS matrix products; their
    # threads split the output, never a sum, so every thread count gives
    # the same bytes
    src = str(Path(vplandau.__file__).resolve().parent.parent)
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", _THREAD_PROBE],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert digests[0] == digests[1]

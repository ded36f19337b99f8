"""Polynomial weight algebra and the weighted energy/dissipation functionals.

The weight attached to a mixed derivative of orders (|alpha|, |beta|) is
``<v>^(k - p|alpha| - q|beta| + r)`` with model-dependent (q, p) and
``r = 2q + 6``:

* Landau:     q = 3 - (gamma - 1),  p = 3
* Boltzmann:  q = 6s - 3(gamma - 1),  p = q + gamma - 1

The ``r = 2q + 6`` choice makes ``<v>^{k+6}`` the exact minimum of the
weight family over ``|alpha| + |beta| <= 2`` (attained at (0, 2)); the
alternative ``r = 2q`` breaks that lower bound, which the inequality suite
can demonstrate through ``r_override``.

Energy-type quantities follow the same convention as their definitions: the
``X_k``/``Y_k`` "norms" are sums of squared weighted derivative norms (so
they scale quadratically), and the Landau dissipation norm of a velocity
field is ``||f m <v>^{gamma/2}|| + ||grad_tilde(m f) <v>^{gamma/2}||`` with
the anisotropic gradient ``grad_tilde = P_v grad + <v> (I - P_v) grad``,
``P_v`` the radial projector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from types import MappingProxyType

import numpy as np

from .errors import ParameterError
from .grid import (
    along,
    axis_derivative,
    l2_norm,
    split_nodes,
    v_derivative_trailing,
    wavenumber_squared,
)
from .poisson import grad

WEIGHT_MAX_ORDER = 2
MODELS = ("landau", "boltzmann")


@dataclass(frozen=True)
class WeightSpec:
    """Model, exponents and weight index for the polynomial weight family."""

    model: str  # one of MODELS
    gamma: float
    k: float
    s: float | None = None

    def __post_init__(self):
        broken = self.violations(self.model, self.gamma, self.k, self.s)
        if broken:
            raise ParameterError("; ".join(broken))

    @staticmethod
    def violations(model, gamma, k, s=None):
        """Every model constraint that ``(model, gamma, k, s)`` breaks.

        Each message starts with the constraint's name: ``model name``,
        ``gamma range``, ``s range``, ``gamma+2s`` or ``k range``.
        """
        if model not in MODELS:
            return [f"model name: unknown model {model!r}"]
        out = []
        if model == "landau":
            if not (-3.0 <= gamma <= 1.0):
                out.append(f"gamma range: Landau requires gamma in [-3, 1], "
                           f"got {gamma}")
        else:
            if not (-3.0 < gamma <= 1.0):
                out.append(f"gamma range: Boltzmann requires gamma in "
                           f"(-3, 1], got {gamma}")
            if s is None:
                out.append("s range: Boltzmann weights require s")
            else:
                if not (0.5 <= s < 1.0):
                    out.append(f"s range: s must lie in [1/2, 1), got {s}")
                if gamma + 2.0 * s <= -1.0:
                    out.append(
                        f"gamma+2s: must exceed -1, got {gamma + 2.0 * s}")
        if not 0.0 <= k < np.inf:
            out.append(f"k range: k must be finite and nonnegative, got {k}")
        return out

    @property
    def q(self):
        if self.model == "landau":
            return 3.0 - (self.gamma - 1.0)
        return 6.0 * self.s - 3.0 * (self.gamma - 1.0)

    @property
    def p(self):
        if self.model == "landau":
            return 3.0
        return self.q + self.gamma - 1.0

    @property
    def r(self):
        return 2.0 * self.q + 6.0


def weight_exponent(spec, a_order, b_order, r_override=None):
    """Exponent ``k - p|alpha| - q|beta| + r`` of the bracket weight."""
    if a_order + b_order > WEIGHT_MAX_ORDER:
        raise ParameterError(
            f"|alpha|+|beta| <= {WEIGHT_MAX_ORDER} required, "
            f"got {a_order}+{b_order}")
    r = spec.r if r_override is None else r_override
    return spec.k - spec.p * a_order - spec.q * b_order + r


def bracket(velocity_grid):
    """Japanese bracket ``<v> = sqrt(1 + |v|^2)`` on the velocity nodes."""
    return np.sqrt(1.0 + velocity_grid.speed_squared())


def weight_field(spec, velocity_grid, a_order, b_order):
    """``<v>^(weight exponent)`` sampled on the velocity grid."""
    return bracket(velocity_grid) ** weight_exponent(spec, a_order, b_order)


def weight_A(spec, a_order, b_order):
    """Constant A with grad_v(w^2) = A v <v>^{-2} w^2; equals twice the exponent."""
    return 2.0 * weight_exponent(spec, a_order, b_order)


def exp_weight_field(spec, grid, a_order, b_order, phi, sign=+1):
    """Space-velocity weight ``exp(sign * A phi(x) / <v>^2)`` on the phase grid."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    a_const = weight_A(spec, a_order, b_order)
    br2 = 1.0 + grid.velocity.speed_squared()
    xpad = (...,) + (None, None, None)
    return np.exp(sign * a_const * np.asarray(phi)[xpad] / br2)


# ladder ratio R: the constants ``C[a][b] = R^(2a+b)`` order the derivative
# shells, ``C_{a,b} / C_{a,b1} >= R`` for b1 < b and
# ``C_{a+1,b-1} / C_{a,b} = R``; the analysis only demands R large enough
LADDER_RATIO = 100.0


def ladder_constant(a_order, b_order):
    """``C[a][b] = R^(2a+b)``, the ladder constant of the ``(a, b)`` shell."""
    return LADDER_RATIO ** (2 * a_order + b_order)


# ---- pointwise inequality suite ---------------------------------------------


@dataclass
class InequalityResult:
    name: str
    n_checked: int
    n_failed: int
    worst_margin: float  # min over samples of (rhs - lhs); negative = violated

    @property
    def passed(self):
        return self.n_failed == 0


def _order_pairs():
    return [(a, b) for a in range(WEIGHT_MAX_ORDER + 1)
            for b in range(WEIGHT_MAX_ORDER + 1 - a)]


def weight_inequality_suite(spec, sample_points, r_override=None):
    """Check the weight-family inequalities pointwise at sampled velocities.

    ``sample_points`` is an (N, 3) array.  Returns a list of
    :class:`InequalityResult`, one per inequality instance.  ``r_override``
    substitutes a different additive constant r (e.g. ``2q`` without the +6)
    to exhibit how the lower-bound inequality fails.  An instance fails when
    ``lhs`` exceeds ``rhs`` by more than ``1e-12`` of the larger of the two.
    """
    pts = np.atleast_2d(np.asarray(sample_points, dtype=float))
    br = np.sqrt(1.0 + np.sum(pts**2, axis=1))

    def w(a, b):
        return br ** weight_exponent(spec, a, b, r_override)

    results = []

    def record(name, lhs, rhs):
        margin = rhs - lhs
        tol = 1e-12 * np.maximum(np.abs(lhs), np.abs(rhs))
        failed = int(np.sum(margin < -tol))
        results.append(InequalityResult(name, lhs.size, failed,
                                        float(np.min(margin))))

    step = br ** (3.0 if spec.model == "landau" else 6.0 * spec.s)
    for (a, b) in _order_pairs():
        for b1 in range(b):
            record(f"descent_beta[{a},{b}->{a},{b1}]", w(a, b) * step, w(a, b1))
        for a1 in range(a):
            record(f"descent_alpha[{a},{b}->{a1},{b}]", w(a, b) * step, w(a1, b))
    for (a, b) in _order_pairs():
        if b >= 1:
            record(f"transfer[{a},{b}]", w(a, b),
                   br ** (spec.gamma - 1.0) * w(a + 1, b - 1))
    for (a, b) in _order_pairs():
        record(f"floor[{a},{b}]", br ** (spec.k + 6.0), w(a, b))
    if spec.model == "boltzmann":
        for (a, b) in _order_pairs():
            if a >= 1 and (a - 1) + (b + 1) <= WEIGHT_MAX_ORDER:
                record(
                    f"interpolation[{a},{b}]", w(a, b),
                    w(a - 1, b) ** spec.s * w(a - 1, b + 1) ** (1.0 - spec.s)
                    * br**spec.gamma,
                )
    kappa = 2.0 if spec.model == "landau" else 4.0 * spec.s
    shell1 = np.maximum(w(1, 0), w(0, 1)) ** 2
    record("corollary_shell1", shell1 * br**kappa, w(0, 0) * w(1, 0))
    shell2 = np.maximum.reduce([w(2, 0), w(1, 1), w(0, 2)]) ** 2
    record("corollary_shell2", shell2 * br**kappa, w(1, 0) * w(2, 0))
    shell2b = np.maximum(w(1, 1), w(0, 2)) ** 2
    record("corollary_shell2_beta", shell2b * br**kappa, w(0, 1) * w(1, 1))
    record("corollary_shell2_chain", shell2 * br**kappa,
           w(2, 0) ** 2 * br**kappa)
    record("corollary_linfty", w(2, 0) ** 2 * br**kappa,
           w(1, 0) ** 0.8 * w(2, 0) ** 1.2)
    return results


# ---- anisotropic dissipation norm ---------------------------------------------


def anisotropic_gradient(velocity_grid, values):
    """``grad_tilde = P_v grad + <v> (I - P_v) grad`` on trailing v axes.

    At the origin node the radial direction is taken as zero, which makes
    ``grad_tilde = <0> grad = grad`` there (the splitting is immaterial at
    v = 0 since the bracket equals one).  :func:`landau_D_norm` uses the
    closed form of its square instead.
    """
    gradv = [v_derivative_trailing(velocity_grid, values, a) for a in range(3)]
    vs = [velocity_grid.coordinate(a) for a in range(3)]
    speed = np.sqrt(velocity_grid.speed_squared())
    inv = np.where(speed > 0, 1.0 / np.where(speed > 0, speed, 1.0), 0.0)
    vhat = [v * inv for v in vs]
    radial = sum(g * vh for g, vh in zip(gradv, vhat))
    br = bracket(velocity_grid)
    return [radial * vh + br * (g - radial * vh)
            for g, vh in zip(gradv, vhat)]


@lru_cache(maxsize=None)
def _dissipation_factors(velocity_grid, gamma):
    """Read-only ``<v>^gamma``, ``<v>^(gamma+2)`` and the velocity axes."""
    br2 = 1.0 + velocity_grid.speed_squared()
    br_g = br2 ** (0.5 * gamma)
    out = (br_g, br2 * br_g) + tuple(
        along(velocity_grid.axis_nodes(), a, 3) for a in range(3))
    for arr in out:
        arr.setflags(write=False)
    return out


def _v_sum(a, b, weight):
    """``sum_v a b weight`` over the trailing three axes, in one pass."""
    return np.einsum("...ijk,...ijk,ijk->...", a, b, weight)


def landau_D_norm(values, velocity_grid, gamma, work=None):
    """Landau dissipation norm ``||f <v>^{g/2}|| + ||grad_tilde f <v>^{g/2}||``.

    The norms reduce over the trailing three (velocity) axes, so a
    phase-space field gives one value per spatial node.  The anisotropic
    gradient enters through its square,
    ``|grad_tilde f|^2 = <v>^2 |grad f|^2 + (1 - <v>^2) (v_hat . grad f)^2
    = <v>^2 |grad f|^2 - (v . grad f)^2``, from the plain gradient, taken
    one axis at a time.  ``work``, two C-contiguous arrays shaped like
    ``values`` (or one array of both), holds that gradient and
    ``v . grad f``; it is allocated when omitted.  The diagnostics record
    calls this per block of spatial nodes, on the ``VPLANDAU_THREADS``
    threads (:func:`_weighted_sums`).
    """
    w = velocity_grid.node_weight
    br_g, br_g2, *vs = _dissipation_factors(velocity_grid, gamma)
    first = np.sqrt(_v_sum(values, values, br_g) * w)
    if work is None:
        work = np.empty((2,) + values.shape)
    grad_a, radial = work
    tilde2 = 0.0
    for a in range(3):
        v_derivative_trailing(velocity_grid, values, a, out=grad_a)
        tilde2 = tilde2 + _v_sum(grad_a, grad_a, br_g2)
        if a == 0:
            np.multiply(grad_a, vs[0], out=radial)
        else:
            radial += np.multiply(grad_a, vs[a], out=grad_a)
    second = np.sqrt((tilde2 - _v_sum(radial, radial, br_g)) * w)
    return first + second


# ---- mixed-derivative machinery ----------------------------------------------


def mixed_indices(dim_x):
    """All (alpha, beta) multi-index pairs with |alpha| + |beta| <=
    ``WEIGHT_MAX_ORDER``, each of alpha and beta ordered by total order,
    then lexicographically."""
    alphas, betas = (sorted(product(range(WEIGHT_MAX_ORDER + 1), repeat=n),
                            key=sum) for n in (dim_x, 3))
    return [(al, be) for al in alphas for be in betas
            if sum(al) + sum(be) <= WEIGHT_MAX_ORDER]


def mixed_derivatives(grid, values, indices):
    """Spectral ``d^alpha_beta`` (``|alpha| + |beta| <= 2``) per index pair.

    A pure derivative is one :func:`axis_derivative` of its order (the
    order-2 matrix keeps the Nyquist entry); a mixed one differentiates the
    first-order derivative along its first axis along its second.  The
    ``(0, 0)`` pair is ``values`` itself.
    """
    grid.check_shape(values, "xv")

    @lru_cache(maxsize=None)
    def pure(axis, order):
        return axis_derivative(grid.axis_grid(axis), values, axis, order)

    out = {}
    for al, be in indices:
        axes = [a for a, o in enumerate(al + be) for _ in range(o)]
        if not axes:
            out[(al, be)] = values
        elif len(set(axes)) == 1:
            out[(al, be)] = pure(axes[0], len(axes))
        else:
            a, b = axes
            out[(al, be)] = axis_derivative(grid.axis_grid(b), pure(a, 1), b)
    return out


# ---- energy and dissipation functionals ----------------------------------------


@lru_cache(maxsize=None)
def _weight_fields(velocity_grid, spec):
    """Read-only :func:`weight_field` for each ``(|alpha|, |beta|)``."""
    out = {}
    for a, b in _order_pairs():
        out[(a, b)] = weight_field(spec, velocity_grid, a, b)
        out[(a, b)].setflags(write=False)
    return MappingProxyType(out)


def _dissipation_norms(pairs, velocity_grid, gamma, work, norms, part):
    """:func:`landau_D_norm` of ``wf * der`` per ``(wf, der)`` of ``pairs``
    on the spatial nodes ``part``, into ``norms[pair, node]``.

    ``work`` holds ``wf * der``, the gradient and ``v . grad`` of every node;
    the block uses its slice.
    """
    u = work[0, part]
    for p, (wf, der) in enumerate(pairs):
        np.multiply(der[part], wf, out=u)
        norms[p, part] = landau_D_norm(u, velocity_grid, gamma,
                                       work[1:, part])


def _weighted_sums(state, spec, with_y):
    """``(X_k, Y_k)`` from one walk of the index pairs per species.

    Each species is transformed once, on the calling thread; every
    ``(alpha, beta)`` derivative adds its ``X_k`` term there.  With
    ``with_y`` the ``Y_k`` terms follow in one pass per block of spatial
    nodes, on the ``VPLANDAU_THREADS`` threads (:func:`split_nodes`), which
    write the per-node dissipation norms; their squares reduce pair by pair
    in node order, so ``Y_k`` does not depend on the thread count.  Else
    ``Y_k`` is 0.0.
    """
    g = state.grid
    if with_y and spec.model != "landau":
        raise ParameterError(
            "Y_k dissipation norm is implemented for the Landau model only")
    wfs = _weight_fields(g.velocity, spec)
    indices = mixed_indices(g.dim_x)
    wx = g.spatial.cell_volume
    if with_y:
        # wf * der, a gradient and v . grad per node; the norms per pair
        nodes = math.prod(g.spatial.shape)
        work = np.empty((3, nodes) + g.velocity.shape)
        norms = np.empty((len(indices), nodes))
    x_total = y_total = 0.0
    for sign, f in ((+1, state.f_plus), (-1, state.f_minus)):
        # ladder constant times the squared weight of each X_k term
        x_weights = {
            ab: ladder_constant(*ab)
            * (exp_weight_field(spec, g, *ab, state.phi, sign) * wf) ** 2
            for ab, wf in wfs.items()}
        pairs = []
        for (al, be), der in mixed_derivatives(g, f, indices).items():
            ab = (sum(al), sum(be))
            d = der.ravel()
            x_total += float(np.einsum("i,i,i->", d, d,
                                       x_weights[ab].ravel())) * g.cell_volume
            if with_y:
                pairs.append((wfs[ab], der.reshape(work.shape[1:])))
        if with_y:
            split_nodes(nodes, None, lambda part: _dissipation_norms(
                pairs, g.velocity, spec.gamma, work, norms, part))
            del pairs  # free this species' derivatives before the next's
            for d_norm in norms:
                y_total += float(np.sum(d_norm**2)) * wx
    return x_total, y_total


def h3_grad_norm_sq(spatial, phi):
    """``||grad phi||^2`` in H^3 of x via the multiplier sum_{j<=3} |xi|^{2j}."""
    g = grad(spatial, phi)
    total = 0.0
    k2 = wavenumber_squared(spatial)
    mult = 1.0 + k2 + k2**2 + k2**3
    for comp in g:
        hat = np.fft.fftn(comp, norm="forward")
        total += float(np.sum(mult * np.abs(hat) ** 2)) * spatial.volume
    return total


def functional_E_k(state, spec):
    """Instant energy functional ``E_k = X_k + ||grad phi||^2_{H^3}``."""
    return energy_dissipation(state, spec, with_d_k=False)[0]


def functional_D_k(state, spec):
    """Dissipation functional ``D_k = Y_k + ||grad phi||^2_{H^3}``."""
    return energy_dissipation(state, spec)[1]


def energy_dissipation(state, spec, with_d_k=True):
    """``(E_k, D_k, ||grad phi||^2_{H^3})`` from one transform per species.

    ``D_k`` is 0.0 unless ``with_d_k``; its per-node pass splits the spatial
    nodes over the ``VPLANDAU_THREADS`` threads, with the same result for any
    count.
    """
    h3 = h3_grad_norm_sq(state.grid.spatial, state.phi)
    x_k, y_k = _weighted_sums(state, spec, with_d_k)
    return x_k + h3, (y_k + h3 if with_d_k else 0.0), h3


def norm_L2k(grid, values, k):
    """Plain weighted norm ``||<v>^k f||_{L^2}`` of a phase-space field."""
    return l2_norm(grid, bracket(grid.velocity) ** k * values)

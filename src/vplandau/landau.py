"""Bilinear Landau collision operator via FFT convolutions plus a direct oracle.

The operator in divergence form, with the derivative moved off the second
argument through the kernel identity ``d_j phi^{ij}(u) = -2 |u|^gamma u_i``:

    Q(g, f) = d_i [ (phi^{ij} * g) d_j f + 2 ((|u|^gamma u_i) * g) f ]

where ``*`` is velocity convolution, ``phi^{ij}(u) = |u|^{gamma+2}
(delta_ij - u_i u_j / |u|^2)`` and all derivatives are spectral on the
velocity box.  Both evaluation paths share the sampled kernel tables and the
origin regularization; they differ in how the convolution sums are computed:

* fast path: zero-padded FFTs on the doubled box (no wrap-around aliasing),
* oracle: dense O(N^2) summation over node pairs (no FFT machinery at all).

Kernels are sampled on the difference lattice covering ``[-2L, 2L)``; for
``gamma < 0`` the weights near the singular origin are calibrated so the
lattice sums reproduce closed-form Gaussian moments (:func:`_calibration`).
The odd derivative kernels vanish at the origin by symmetry.

The collision right-hand side of the perturbation system,
``Q(S, mu) + Q(2 mu + S, f_pm)`` with ``S = f+ + f-``, is assembled only in
:func:`frozen_collision`, which freezes the first argument at a given ``S``;
:func:`apply_collision_field`, :func:`apply_linearized_collision` and the
collision substeps of :mod:`vplandau.dynamics` all go through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.fft as sfft

from .errors import CostGuardError, GridMismatchError, ParameterError
from .grid import v_derivative_trailing
from .state import maxwellian

_SYM_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))


def _difference_lattice(velocity_grid):
    """Offsets of the padded (size 2 n_v) circular difference lattice.

    Index ``m`` holds the physical offset ``((m + n) mod 2n - n) * h``, i.e.
    the lattice covers ``[-2L, 2L)`` in FFT-wrapped order, so a circular
    convolution of zero-padded fields against it is the exact linear
    convolution on the original box.
    """
    n = velocity_grid.n_v
    h = velocity_grid.spacing
    m = np.arange(2 * n)
    return (((m + n) % (2 * n)) - n) * h


def _base_kernel_components(gamma, u1, u2, u3, origin_diag):
    """Sampled phi^{ij} (6 entries) and -2|u|^gamma u_i (3 entries).

    ``u1, u2, u3`` broadcast to the sampling lattice.  The diagonal phi
    components take ``origin_diag`` at ``u = 0``; off-diagonal and odd
    kernels get 0 there (their symmetric average).
    """
    usq = u1**2 + u2**2 + u3**2
    at_origin = usq == 0.0
    usq_safe = np.where(at_origin, 1.0, usq)
    r2 = np.power(usq_safe, 0.5 * (gamma + 2.0))  # |u|^{gamma+2}
    r0 = np.power(usq_safe, 0.5 * gamma)          # |u|^{gamma}
    uc = (u1, u2, u3)
    phis = []
    for (i, j) in _SYM_PAIRS:
        delta = 1.0 if i == j else 0.0
        comp = r2 * (delta - uc[i] * uc[j] / usq_safe)
        comp = np.where(at_origin, origin_diag if i == j else 0.0, comp)
        phis.append(comp)
    derivs = []
    for i in range(3):
        comp = -2.0 * r0 * uc[i]
        comp = np.where(at_origin, 0.0, comp)
        derivs.append(comp)
    return phis, derivs


_calibration_cache = {}


def _halfline_gaussian_moment(a, sigma):
    """integral_0^inf r^a exp(-r^2/(2 sigma^2)) dr, closed form."""
    return 2.0 ** ((a - 1.0) / 2.0) * sigma ** (a + 1.0) * math.gamma((a + 1.0) / 2.0)


def _shell_masks(u1, u2, u3, h):
    """Node masks of the correction shells on a sampling lattice.

    axis:  +-h e_i;  face: two coordinates at +-h, one zero;  axis2:
    +-2h e_i;  mixed: one coordinate zero, the others at (+-h, +-2h).
    """
    uc = (u1, u2, u3)
    at_h = [np.abs(np.abs(c) - h) < 0.25 * h for c in uc]
    at_2h = [np.abs(np.abs(c) - 2 * h) < 0.25 * h for c in uc]
    zero = [np.abs(c) < 0.25 * h for c in uc]
    axis = face = axis2 = mixed = None
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        ax_i = at_h[i] & zero[j] & zero[k]
        ax2_i = at_2h[i] & zero[j] & zero[k]
        fc_i = zero[i] & at_h[j] & at_h[k]
        mx_i = zero[i] & ((at_h[j] & at_2h[k]) | (at_2h[j] & at_h[k]))
        axis = ax_i if axis is None else (axis | ax_i)
        axis2 = ax2_i if axis2 is None else (axis2 | ax2_i)
        face = fc_i if face is None else (face | fc_i)
        mixed = mx_i if mixed is None else (mixed | mx_i)
    return {"at_h": at_h, "at_2h": at_2h, "zero": zero, "axis": axis,
            "face": face, "axis2": axis2, "mixed": mixed}


def _inplane_parts(gamma, u1, u2, u3, masks, h, phis):
    """In-plane projector parts of phi on the face and mixed shells.

    At a shell node with zero coordinate w the tensor splits as
    ``|u|^{gamma+2} (I - u u^T/|u|^2) = (in-plane part) + |u|^{gamma+2}
    e_w e_w^T``; scaling either part preserves the projector property and
    positive semi-definiteness.  Returns per-component in-plane arrays for
    both shells.
    """
    zero = masks["zero"]
    c_face = (2.0 * h**2) ** (0.5 * (gamma + 2.0))
    c_mix = (5.0 * h**2) ** (0.5 * (gamma + 2.0))
    in_face, in_mix = [], []
    for k, (i, j) in enumerate(_SYM_PAIRS):
        if i == j:
            out_f = np.where(masks["face"] & zero[i], c_face, 0.0)
            out_m = np.where(masks["mixed"] & zero[i], c_mix, 0.0)
        else:
            out_f = out_m = 0.0
        in_face.append(np.where(masks["face"], phis[k], 0.0) - out_f)
        in_mix.append(np.where(masks["mixed"], phis[k], 0.0) - out_m)
    return in_face, in_mix


def _calibration(gamma, velocity_grid):
    """Quadrature-defect corrections for the singular kernels, gamma < 0.

    The plain lattice sum of a ``|u|^s``-singular kernel against a smooth
    field carries algebraic defects ``h^{s+3+k} x (lattice constant) x
    (k-th derivative of the field at the output node)``; for the Landau
    kernels all defects through ``O(h^{gamma+7})`` span seven independent
    structures (even: value, isotropic / deviatoric / off-diagonal second
    order; odd: gradient and two third-order structures).  They are removed
    by corrected quadrature weights near the origin, chosen so the corrected
    lattice sums reproduce closed-form Gaussian probe moments exactly:

    * even part: origin value ``w0`` of the diagonal phi components plus
      tensor re-scalings of the nearest axis shell (``th_axis``) and of the
      in-plane projector parts on the face-diagonal and mixed shells
      (``th_face``, ``th_mixed``) -- all projector- and PSD-preserving;
    * odd part: antisymmetric ``sign(u_i)`` weights on the derivative
      kernels at the nearest axis, face-diagonal and second axis shells.

    Both evaluation paths (padded FFT and direct summation) consume the same
    corrected samples, so the correction never splits the dual route.
    """
    key = (float(gamma), velocity_grid.n_v, float(velocity_grid.cutoff_L))
    if key in _calibration_cache:
        return _calibration_cache[key]
    n = velocity_grid.n_v
    h = velocity_grid.spacing
    off = (np.arange(2 * n - 1) - (n - 1)) * h
    u1 = off[:, None, None]
    u2 = off[None, :, None]
    u3 = off[None, None, :]
    usq = u1**2 + u2**2 + u3**2
    phis, derivs = _base_kernel_components(gamma, u1, u2, u3, 0.0)
    w = h**3
    sigma = max(2.0, 1.5 * h)
    gauss = np.exp(-usq / (2.0 * sigma**2))
    m4 = _halfline_gaussian_moment(gamma + 4.0, sigma)
    m6 = _halfline_gaussian_moment(gamma + 6.0, sigma)
    masks = _shell_masks(u1, u2, u3, h)
    in_face, in_mix = _inplane_parts(gamma, u1, u2, u3, masks, h, phis)

    # Even system: probes (W, |u|^2 W, (u1^2 - u2^2) W) on component 11 and
    # (u1 u2 W) on component 12 against unknowns (w0, th_axis, th_face,
    # th_mixed).  Exact moments: angular averages of the projector give
    # (2/3) delta_ij, <(1 - uh1^2)(uh1^2 - uh2^2)> = -2/15 and
    # <uh1^2 uh2^2> = 1/15.
    probes_11 = (gauss, usq * gauss, (u1**2 - u2**2) * gauss)
    exact_11 = (
        (8.0 * math.pi / 3.0) * m4,
        (8.0 * math.pi / 3.0) * m6,
        -(8.0 * math.pi / 15.0) * m6,
    )
    resp = np.zeros((4, 4))
    rhs = np.zeros(4)
    for row, p in enumerate(probes_11):
        resp[row, 0] = w if row == 0 else 0.0
        resp[row, 1] = float(np.sum(np.where(masks["axis"], phis[0] * p, 0.0))) * w
        resp[row, 2] = float(np.sum(in_face[0] * p)) * w
        resp[row, 3] = float(np.sum(in_mix[0] * p)) * w
        rhs[row] = exact_11[row] - float(np.sum(phis[0] * p)) * w
    p12 = u1 * u2 * gauss
    resp[3, 2] = float(np.sum(in_face[3] * p12)) * w
    resp[3, 3] = float(np.sum(in_mix[3] * p12)) * w
    rhs[3] = -(4.0 * math.pi / 15.0) * m6 - float(np.sum(phis[3] * p12)) * w
    even = _solve_calibration(resp, rhs)

    # Odd system: probes (u1 W, u1 |u|^2 W, u1 (u1^2 - 3 u2^2) W) against
    # (d_axis, d_face, d_axis2) with sign pattern sign(u1); the isotropic
    # kernel has no ell=3 angular content, so the third exact moment is 0.
    axis1 = masks["at_h"][0] & masks["zero"][1] & masks["zero"][2]
    face1 = masks["face"] & masks["at_h"][0]
    axis2_1 = masks["at_2h"][0] & masks["zero"][1] & masks["zero"][2]
    sgn = np.sign(u1)
    probes_d = (u1 * gauss, u1 * usq * gauss,
                u1 * (u1**2 - 3.0 * u2**2) * gauss)
    exact_d = (-(8.0 * math.pi / 3.0) * m4, -(8.0 * math.pi / 3.0) * m6, 0.0)
    resp_o = np.zeros((3, 3))
    rhs_o = np.zeros(3)
    for row, p in enumerate(probes_d):
        resp_o[row, 0] = float(np.sum(np.where(axis1, sgn * p, 0.0))) * w
        resp_o[row, 1] = float(np.sum(np.where(face1, sgn * p, 0.0))) * w
        resp_o[row, 2] = float(np.sum(np.where(axis2_1, sgn * p, 0.0))) * w
        rhs_o[row] = exact_d[row] - float(np.sum(derivs[0] * p)) * w
    odd = _solve_calibration(resp_o, rhs_o)
    _calibration_cache[key] = (tuple(float(x) for x in even),
                               tuple(float(x) for x in odd))
    return _calibration_cache[key]


def _solve_calibration(resp, rhs):
    """Solve a calibration system, dropping trailing unknowns if singular."""
    k = resp.shape[0]
    while k > 1:
        sub = resp[:k, :k]
        if np.linalg.cond(sub) < 1e12:
            sol = np.zeros(resp.shape[0])
            sol[:k] = np.linalg.solve(sub, rhs[:k])
            return sol
        k -= 1
    sol = np.zeros(resp.shape[0])
    sol[0] = rhs[0] / resp[0, 0]
    return sol


def _kernel_components(gamma, u1, u2, u3, velocity_grid):
    """Corrected kernel samples shared by the FFT path and the oracle.

    For ``gamma >= 0`` the kernels are continuous (value 0 at the origin by
    the limit) and need no correction.  For ``gamma < 0`` the calibrated
    corrections of :func:`_calibration` are applied near the origin.
    """
    h = velocity_grid.spacing
    if gamma >= 0:
        return _base_kernel_components(gamma, u1, u2, u3, 0.0)
    even, odd = _calibration(gamma, velocity_grid)
    w0, th_axis, th_face, th_mixed = even
    d_axis, d_face, d_axis2 = odd
    phis, derivs = _base_kernel_components(gamma, u1, u2, u3, w0)
    masks = _shell_masks(u1, u2, u3, h)
    in_face, in_mix = _inplane_parts(gamma, u1, u2, u3, masks, h, phis)
    for k in range(len(_SYM_PAIRS)):
        phis[k] = (
            phis[k]
            + th_axis * np.where(masks["axis"], phis[k], 0.0)
            + th_face * in_face[k]
            + th_mixed * in_mix[k]
        )
    uc = (u1, u2, u3)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        axis_i = masks["at_h"][i] & masks["zero"][j] & masks["zero"][k]
        face_i = masks["face"] & masks["at_h"][i]
        axis2_i = masks["at_2h"][i] & masks["zero"][j] & masks["zero"][k]
        sgn_i = np.sign(uc[i])
        derivs[i] = derivs[i] + (
            d_axis * axis_i + d_face * face_i + d_axis2 * axis2_i
        ) * sgn_i
    return phis, derivs


@dataclass
class LandauKernelTables:
    """Spectral tables of the truncated collision kernels for one grid.

    ``phi_hat`` holds the padded-box FFTs of the six symmetric components of
    phi^{ij} in the order (11, 22, 33, 12, 13, 23); ``deriv_hat`` the three
    components of d_j phi^{ij} = -2 |u|^gamma u_i.  Tables are immutable
    after construction and shareable across threads.
    """

    gamma: float
    velocity_grid: object
    phi_hat: list
    deriv_hat: list
    epsilon_op: float | None = None
    _mu_conv: tuple | None = field(default=None, repr=False)
    _mu_derivs: list | None = field(default=None, repr=False)

    def pair_index(self, i, j):
        key = (min(i, j), max(i, j))
        return _SYM_PAIRS.index(key)

    def sampled_kernels(self):
        """Real-space kernel samples on the centered difference lattice.

        Returns (offsets, phis, derivs) where offsets is the 1-D array of
        ``2 n_v - 1`` physical offsets and the kernel arrays have shape
        ``(2 n_v - 1,)*3``.  Used by the direct oracle.
        """
        n = self.velocity_grid.n_v
        h = self.velocity_grid.spacing
        off = (np.arange(2 * n - 1) - (n - 1)) * h
        u1 = off[:, None, None]
        u2 = off[None, :, None]
        u3 = off[None, None, :]
        phis, derivs = _kernel_components(self.gamma, u1, u2, u3,
                                          self.velocity_grid)
        return off, phis, derivs

    def measure_epsilon_op(self):
        """Equilibrium residual ||Q(mu, mu)|| / ||mu||, measured not assumed."""
        mu = maxwellian(self.velocity_grid)
        q = q_landau_fft(mu, mu, self)
        w = self.velocity_grid.node_weight
        num = math.sqrt(float(np.sum(q**2)) * w)
        den = math.sqrt(float(np.sum(mu**2)) * w)
        self.epsilon_op = num / den
        return self.epsilon_op


def build_kernel_tables(gamma, velocity_grid, measure=True):
    """Build the padded-FFT kernel tables for ``gamma`` on ``velocity_grid``."""
    if not (-3.0 <= gamma <= 1.0):
        raise ParameterError(f"gamma must lie in [-3, 1], got {gamma}")
    off = _difference_lattice(velocity_grid)
    u1 = off[:, None, None]
    u2 = off[None, :, None]
    u3 = off[None, None, :]
    phis, derivs = _kernel_components(gamma, u1, u2, u3, velocity_grid)
    phi_hat = [sfft.rfftn(p) for p in phis]
    deriv_hat = [sfft.rfftn(d) for d in derivs]
    tables = LandauKernelTables(gamma=gamma, velocity_grid=velocity_grid,
                                phi_hat=phi_hat, deriv_hat=deriv_hat)
    if measure:
        tables.measure_epsilon_op()
    return tables


# ---- FFT convolution path --------------------------------------------------


def _pad_forward(tables, g, workers=None):
    """Real FFT of the zero-padded field(s); velocity axes are the trailing three."""
    n = tables.velocity_grid.n_v
    pad = [(0, 0)] * (g.ndim - 3) + [(0, n)] * 3
    gp = np.pad(g, pad)
    return sfft.rfftn(gp, axes=(-3, -2, -1), workers=workers)


def convolve_tables(tables, g, workers=None):
    """All nine kernel convolutions of ``g`` at once.

    ``g`` may carry leading (spatial) axes; the convolution acts on the
    trailing three velocity axes.  Returns (phi_conv, deriv_conv): lists of
    arrays shaped like ``g``, scaled by the quadrature weight so that each
    entry approximates ``integral kernel(v - v') g(v') dv'``.  All nine
    inverse transforms run in one batched real-FFT call.
    """
    n = tables.velocity_grid.n_v
    w = tables.velocity_grid.node_weight
    g = np.asarray(g, dtype=float)
    ghat = _pad_forward(tables, g, workers)
    kernels = tables.phi_hat + tables.deriv_hat
    prods = np.stack([ghat * kh for kh in kernels])
    full = sfft.irfftn(prods, s=(2 * n, 2 * n, 2 * n), axes=(-3, -2, -1),
                       workers=workers)
    sliced = full[(Ellipsis, slice(0, n), slice(0, n), slice(0, n))] * w
    return list(sliced[:6]), list(sliced[6:])


_v_derivative = v_derivative_trailing


def q_from_convolutions(tables, phi_conv, deriv_conv, f, df=None):
    """Assemble Q given precomputed convolutions of the first argument.

    flux_i = sum_j (phi^{ij} * g) d_j f  -  (D_i * g) f, with the tables
    storing D_i = d_j phi^{ij} = -2 |u|^gamma u_i, then Q = d_i flux_i.
    ``df`` may supply precomputed velocity derivatives of ``f``.
    """
    ve = tables.velocity_grid
    if df is None:
        df = [_v_derivative(ve, f, j) for j in range(3)]
    out = None
    for i in range(3):
        flux = -deriv_conv[i] * f
        for j in range(3):
            flux = flux + phi_conv[tables.pair_index(i, j)] * df[j]
        term = _v_derivative(ve, flux, i)
        out = term if out is None else out + term
    return out


def mu_derivatives(tables):
    """Cached spectral velocity derivatives of the reference Maxwellian."""
    if tables._mu_derivs is None:
        mu = maxwellian(tables.velocity_grid)
        tables._mu_derivs = [_v_derivative(tables.velocity_grid, mu, j)
                             for j in range(3)]
    return tables._mu_derivs


def q_landau_fft(g, f, tables, workers=None):
    """Q(g, f) on the tables' velocity grid via zero-padded FFT convolution.

    ``g`` and ``f`` are velocity fields (possibly with leading spatial axes,
    evaluated slice-wise).
    """
    g = np.asarray(g, dtype=float)
    f = np.asarray(f, dtype=float)
    if g.shape[-3:] != tables.velocity_grid.shape or g.shape != f.shape:
        raise GridMismatchError(
            f"velocity shapes {g.shape} / {f.shape} do not match grid "
            f"{tables.velocity_grid.shape}"
        )
    phi_conv, deriv_conv = convolve_tables(tables, g, workers)
    return q_from_convolutions(tables, phi_conv, deriv_conv, f)


# ---- direct-quadrature oracle -----------------------------------------------

_DENSE_ORACLE_MAX = 16
_ORACLE_MAX = 24
_flat_index_cache = {}


def _pair_flat_index(n):
    """Flat index of ``v_a - v_b`` into the (2n-1)^3 kernel cube, cached."""
    if n in _flat_index_cache:
        return _flat_index_cache[n]
    m = 2 * n - 1
    idx = np.arange(n, dtype=np.int32)
    off = idx[:, None] - idx[None, :] + np.int32(n - 1)  # (n, n), 0..2n-2
    a1, a2, a3 = np.unravel_index(np.arange(n**3), (n, n, n))
    flat = off[a1[:, None], a1[None, :]].astype(np.int32)
    flat *= m
    flat += off[a2[:, None], a2[None, :]]
    flat *= m
    flat += off[a3[:, None], a3[None, :]]
    _flat_index_cache[n] = flat
    return flat


def _direct_convolve(kernel_cube, g, weight):
    """Exact direct-summation convolution, no FFTs anywhere.

    ``out[a] = sum_b kernel((v_a - v_b)) g[b] * weight`` with the kernel
    sampled on the centered (2n-1)^3 difference cube.  Dense node-pair
    matrices are used up to n=16; above that a C-implemented sliding-window
    sum takes over.
    """
    n = g.shape[0]
    if n <= _DENSE_ORACLE_MAX:
        flat = _pair_flat_index(n)
        mat = kernel_cube.ravel()[flat]
        return (mat @ g.ravel()).reshape(g.shape) * weight
    from scipy import ndimage

    return ndimage.convolve(g, kernel_cube, mode="constant", cval=0.0) * weight


def q_landau_direct(g, f, gamma, velocity_grid, derivative_on="kernel"):
    """O(N^2) direct-quadrature evaluation of Q(g, f) (test oracle).

    Shares the sampled kernels and the origin regularization with the fast
    path but computes every convolution by direct summation over node pairs.
    ``derivative_on='kernel'`` (default) uses the analytic identity
    ``d_j phi^{ij} = -2|u|^gamma u_i``, matching the fast path's formula;
    ``derivative_on='g'`` keeps the derivative on the second slot of the
    integrand (``g_* d_j f - f d_j g_*``) with a spectral ``d_j g``.  The two
    placements agree only up to a quadrature defect that vanishes under
    refinement, so the default is the identity form.
    """
    g = np.asarray(g, dtype=float)
    f = np.asarray(f, dtype=float)
    if g.shape != velocity_grid.shape or f.shape != velocity_grid.shape:
        raise GridMismatchError("oracle accepts single velocity fields only")
    if velocity_grid.n_v > _ORACLE_MAX:
        raise CostGuardError(
            f"direct oracle limited to n_v <= {_ORACLE_MAX}, "
            f"got {velocity_grid.n_v}"
        )
    if not (-3.0 <= gamma <= 1.0):
        raise ParameterError(f"gamma must lie in [-3, 1], got {gamma}")
    h = velocity_grid.spacing
    off = (np.arange(2 * velocity_grid.n_v - 1) - (velocity_grid.n_v - 1)) * h
    u1 = off[:, None, None]
    u2 = off[None, :, None]
    u3 = off[None, None, :]
    phis, derivs = _kernel_components(gamma, u1, u2, u3, velocity_grid)
    w = velocity_grid.node_weight
    df = [_v_derivative(velocity_grid, f, j) for j in range(3)]
    if derivative_on == "g":
        dg = [_v_derivative(velocity_grid, g, j) for j in range(3)]
    out = np.zeros_like(f)
    pair_order = {pair: k for k, pair in enumerate(_SYM_PAIRS)}
    for i in range(3):
        flux = np.zeros_like(f)
        for j in range(3):
            kernel = phis[pair_order[(min(i, j), max(i, j))]]
            flux += _direct_convolve(kernel, g, w) * df[j]
            if derivative_on == "g":
                flux -= _direct_convolve(kernel, dg[j], w) * f
        if derivative_on == "kernel":
            flux -= _direct_convolve(derivs[i], g, w) * f
        out += _v_derivative(velocity_grid, flux, i)
    return out


# ---- conservative correction ------------------------------------------------


class ConservativeCorrector:
    """Moment-matched projection zeroing the discrete collision invariants.

    Subtracts from each species' collision output the same correction field
    ``c = sum_k alpha_k psi_k mu`` (``psi_k in {1, v_j, |v|^2}``), with the
    coefficients chosen so that, at every spatial node,

    * the per-species mass moment of the correction is zero (mass is already
      conserved exactly by the divergence form), and
    * the species-summed momentum and energy moments of the corrected output
      vanish identically.

    The 5x5 Gram system uses grid quadrature, so the corrected moments are
    zero to roundoff on the grid, not merely up to truncation error.
    """

    def __init__(self, velocity_grid):
        ve = velocity_grid
        mu = maxwellian(ve)
        vs = [ve.coordinate(j) for j in range(3)]
        psi = [np.ones(ve.shape), vs[0], vs[1], vs[2], ve.speed_squared()]
        basis = [p * mu for p in psi]
        w = ve.node_weight
        gram = np.array([
            [float(np.sum(pm * bk)) * w for bk in basis] for pm in psi
        ])
        self.velocity_grid = ve
        self.psi = psi
        self.basis = np.stack(basis)  # (5, n, n, n)
        self.gram_inv = np.linalg.inv(gram)

    def moments(self, field):
        """Collision-invariant moments of a (possibly x-carrying) field."""
        w = self.velocity_grid.node_weight
        return np.stack([
            np.sum(field * p, axis=(-3, -2, -1)) * w for p in self.psi
        ])

    def apply(self, rhs_plus, rhs_minus):
        defect = self.moments(rhs_plus) + self.moments(rhs_minus)
        target = 0.5 * defect
        target[0] = 0.0  # keep per-species mass untouched (already exact)
        alpha = np.tensordot(self.gram_inv, target, axes=(1, 0))
        # contract the basis index; spatial axes (if any) land ahead of the
        # velocity axes, matching the field layout
        corr = np.tensordot(alpha, self.basis, axes=(0, 0))
        return rhs_plus - corr, rhs_minus - corr


# ---- assembled collision right-hand side -------------------------------------


def mu_convolutions(tables):
    """Cached kernel convolutions of the reference Maxwellian."""
    if tables._mu_conv is None:
        mu = maxwellian(tables.velocity_grid)
        tables._mu_conv = convolve_tables(tables, mu)
    return tables._mu_conv


def frozen_collision(tables, s, linearized=False, corrector=None,
                     workers=None):
    """Collision right-hand side with its first argument frozen at ``s``.

    Convolves ``s`` once and returns the closure
    ``rhs(f+, f-) = Q(s, mu) + Q(2 mu + s, f_pm)`` (the convolution is linear
    in its first argument, and the Maxwellian convolutions are cached).  With
    ``linearized=True`` the closure is ``Q(s, mu) + Q(2 mu, f_pm)``, the
    linearized operator when ``s = f+ + f-``.  A ``corrector`` is applied to
    every output.  This is the only place the collision right-hand side is
    assembled.
    """
    mu = maxwellian(tables.velocity_grid)
    phi_s, der_s = convolve_tables(tables, s, workers)
    q_s_mu = q_from_convolutions(tables, phi_s, der_s, mu,
                                 df=mu_derivatives(tables))
    # convolutions of the first argument of Q(., f_pm): 2 mu + s, or 2 mu
    phi_m, der_m = mu_convolutions(tables)
    phi_tot = [(2.0 * m if linearized else 2.0 * m + c)[None]
               for m, c in zip(phi_m, phi_s)]
    der_tot = [(2.0 * m if linearized else 2.0 * m + c)[None]
               for m, c in zip(der_m, der_s)]

    def rhs(f_plus, f_minus):
        q_pair = q_from_convolutions(tables, phi_tot, der_tot,
                                     np.stack([f_plus, f_minus]))
        rp, rm = q_s_mu + q_pair[0], q_s_mu + q_pair[1]
        if corrector is not None:
            rp, rm = corrector.apply(rp, rm)
        return rp, rm

    return rhs


def apply_collision_field(state, tables, conservative=True, corrector=None,
                          workers=None):
    """Collision right-hand side of the perturbation system for both species.

    ``Q(f+ + f-, mu) + Q(2 mu + f+ + f-, f_pm)`` at every spatial node.  With
    ``conservative=True`` the moment-matched correction is applied so the
    discrete invariants of the assembled output vanish exactly.
    """
    if tables.velocity_grid.shape != state.grid.velocity.shape:
        raise GridMismatchError("tables built for a different velocity grid")
    if not conservative:
        corrector = None
    elif corrector is None:
        corrector = ConservativeCorrector(state.grid.velocity)
    rhs = frozen_collision(tables, state.f_plus + state.f_minus,
                           corrector=corrector, workers=workers)
    return rhs(state.f_plus, state.f_minus)


def apply_linearized_collision(f_plus, f_minus, tables, workers=None):
    """Linearized collision operator L f = Q(f+ + f-, mu) + 2 Q(mu, f_pm)."""
    rhs = frozen_collision(tables, f_plus + f_minus, linearized=True,
                           workers=workers)
    return rhs(f_plus, f_minus)

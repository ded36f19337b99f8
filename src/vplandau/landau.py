"""Bilinear Landau collision operator via real BLAS convolutions and an oracle.

The operator in divergence form, with the derivative moved off the second
argument through the kernel identity ``d_j phi^{ij}(u) = -2 |u|^gamma u_i``:

    Q(g, f) = d_i [ (phi^{ij} * g) d_j f + 2 ((|u|^gamma u_i) * g) f ]

where ``*`` is velocity convolution, ``phi^{ij}(u) = |u|^{gamma+2}
(delta_ij - u_i u_j / |u|^2)`` and all derivatives are spectral on the
velocity box.  Both evaluation paths share the kernel samples and the
origin regularization; they differ in how the convolution sums are computed:

* fast path: real matrix products in a cos/sin basis of the doubled box (no
  wrap-around aliasing; see :func:`convolve_tables`),
* oracle: dense O(N^2) summation over node pairs on the full centred
  difference lattice (no transforms at all).

Kernels are sampled at the lattice offsets between velocity nodes; for
``gamma < 0`` the weights near the singular origin are calibrated so the
lattice sums reproduce closed-form Gaussian moments (:func:`_calibration`).
The odd derivative kernels vanish at the origin by symmetry.  Every kernel is
even or odd along each velocity axis (``_PARITY``), so the octant of
non-negative offsets fixes it and its table in the cos/sin basis is real:
:func:`build_kernel_tables` samples that octant only.  The oracle samples
the whole lattice, so its agreement with the fast path checks the parity.

The collision right-hand side of the perturbation system,
``Q(S, mu) + Q(2 mu + S, f_pm)`` with ``S = f+ + f-``, is assembled only in
:func:`frozen_collision`, which freezes the first argument at a given ``S``;
:func:`apply_collision_field`, :func:`apply_linearized_collision` and the
collision substeps of :mod:`vplandau.dynamics` all go through it.  Two data
sets travel as one array each: the species pair ``f`` as ``(2, nodes, n_v,
n_v, n_v)``, which the collision right-hand side and the corrector take and
return, and the nine kernel convolutions of a field as ``(9, ...)``, which
:func:`convolve_tables` returns and the flux assembly indexes.

The operator acts in ``v`` alone, so threads split the spatial nodes into
blocks, through :func:`vplandau.grid.split_nodes`, which reads
``VPLANDAU_THREADS`` when its caller gives no count.  The collision substep
calls it once per RK4 substep or Picard iteration, and each block runs the
whole integrator on its nodes through a single-threaded
:func:`frozen_collision`; :func:`convolve_tables` and
:func:`apply_collision_field` split their nodes through it too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import CostGuardError, GridMismatchError, ParameterError
from .grid import split_nodes, v_derivative_trailing
from .state import invariant_moments, invariants, maxwellian

_SYM_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
# Table index of phi^{ij} for every ordered pair (i, j).
_PAIR_INDEX = {(i, j): _SYM_PAIRS.index((min(i, j), max(i, j)))
               for i in range(3) for j in range(3)}
# Parity of each kernel along the velocity axes (1: odd): phi^{ii} is even,
# phi^{ij} odd along i and j, D_i odd along i.
_PARITY = tuple(tuple(int(i != j and a in (i, j)) for a in range(3))
                for i, j in _SYM_PAIRS) + tuple(
    tuple(int(a == i) for a in range(3)) for i in range(3))


def _centred_lattice(velocity_grid):
    """Offsets ``(m - n_v + 1) h``, m < 2 n_v - 1, of the centred lattice."""
    n = velocity_grid.n_v
    return (np.arange(2 * n - 1) - (n - 1)) * velocity_grid.spacing


def _axes(off):
    """The 1-D offsets ``off`` laid along each lattice axis, broadcastable."""
    return off[:, None, None], off[None, :, None], off[None, None, :]


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


def _halfline_gaussian_moment(a, sigma):
    """integral_0^inf r^a exp(-r^2/(2 sigma^2)) dr, closed form."""
    return 2.0 ** ((a - 1.0) / 2.0) * sigma ** (a + 1.0) * math.gamma((a + 1.0) / 2.0)


def _shell_masks(u1, u2, u3, h):
    """Node masks of the correction shells on a sampling lattice.

    axis:  +-h e_i;  face: two coordinates at +-h, one zero.  Per axis i:
    ``axis_i`` is +-h e_i, ``face_i`` the face nodes with u_i = +-h and
    ``axis2_i`` is +-2h e_i.
    """
    uc = (u1, u2, u3)
    at_h = [np.abs(np.abs(c) - h) < 0.25 * h for c in uc]
    at_2h = [np.abs(np.abs(c) - 2 * h) < 0.25 * h for c in uc]
    zero = [np.abs(c) < 0.25 * h for c in uc]
    axis_i, axis2_i, face_w = [], [], []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        axis_i.append(at_h[i] & zero[j] & zero[k])
        axis2_i.append(at_2h[i] & zero[j] & zero[k])
        face_w.append(zero[i] & at_h[j] & at_h[k])
    face = face_w[0] | face_w[1] | face_w[2]
    return {"zero": zero, "axis": axis_i[0] | axis_i[1] | axis_i[2],
            "face": face, "axis_i": axis_i, "axis2_i": axis2_i,
            "face_i": [face & at_h[i] for i in range(3)]}


def _inplane_parts(gamma, masks, h, phis):
    """In-plane projector parts of phi on the face shell.

    At a face node with zero coordinate w the tensor splits as
    ``|u|^{gamma+2} (I - u u^T/|u|^2) = (in-plane part) + |u|^{gamma+2}
    e_w e_w^T``; scaling the in-plane part preserves the projector property
    and positive semi-definiteness.  Returns per-component arrays.
    """
    zero = masks["zero"]
    c_face = (2.0 * h**2) ** (0.5 * (gamma + 2.0))
    in_face = []
    for k, (i, j) in enumerate(_SYM_PAIRS):
        out = np.where(masks["face"] & zero[i], c_face, 0.0) if i == j else 0.0
        in_face.append(np.where(masks["face"], phis[k], 0.0) - out)
    return in_face


@lru_cache(maxsize=None)
def _calibration(gamma, velocity_grid):
    """Quadrature-defect corrections for the singular kernels, gamma < 0.

    The plain lattice sum of a ``|u|^s``-singular kernel against a smooth
    field carries algebraic defects ``h^{s+3+k} x (lattice constant) x
    (k-th derivative of the field at the output node)``; for the Landau
    kernels all defects through ``O(h^{gamma+7})`` span six independent
    structures (even: value, isotropic and deviatoric second order; odd:
    gradient and two third-order structures).  They are removed by
    corrected quadrature weights near the origin, chosen so the corrected
    lattice sums reproduce closed-form Gaussian probe moments exactly:

    * even part: origin value ``w0`` of the diagonal phi components plus
      tensor re-scalings of the nearest axis shell (``th_axis``) and of the
      in-plane projector part on the face-diagonal shell (``th_face``) --
      all projector- and PSD-preserving;
    * odd part: antisymmetric ``sign(u_i)`` weights on the derivative
      kernels at the nearest axis, face-diagonal and second axis shells.

    The fourth even probe (``u1 u2 W`` on phi^{12}) is not an unknown: by
    the lattice's cubic symmetry its equation is ``-(P2 + 2 P3) / 6`` of
    the isotropic (P2) and deviatoric (P3) ones, so it is checked as an
    identity.  A singular system or a broken identity raises.

    Both evaluation paths (doubled-box products and direct summation) use
    the same corrected samples, so the correction never splits the dual
    route.
    """
    where = (f"gamma={gamma:g}, n_v={velocity_grid.n_v}, "
             f"L={velocity_grid.cutoff_L:g}")

    def solve(resp, rhs, part):
        cond = np.linalg.cond(resp)
        if not cond < 1e12:
            raise ParameterError(f"{part} calibration system is singular at "
                                 f"{where}: condition number {cond:.3g}")
        return tuple(float(x) for x in np.linalg.solve(resp, rhs))

    def lattice(kernel, probe):
        return float(np.sum(kernel * probe)) * w

    h = velocity_grid.spacing
    u1, u2, u3 = _axes(_centred_lattice(velocity_grid))
    usq = u1**2 + u2**2 + u3**2
    phis, derivs = _base_kernel_components(gamma, u1, u2, u3, 0.0)
    w = h**3
    sigma = max(2.0, 1.5 * h)
    gauss = np.exp(-usq / (2.0 * sigma**2))
    m4 = _halfline_gaussian_moment(gamma + 4.0, sigma)
    m6 = _halfline_gaussian_moment(gamma + 6.0, sigma)
    masks = _shell_masks(u1, u2, u3, h)
    in_face = _inplane_parts(gamma, masks, h, phis)

    # Even system: probes (W, |u|^2 W, (u1^2 - u2^2) W) on component 11
    # against unknowns (w0, th_axis, th_face).  Exact moments: angular
    # averages of the projector give (2/3) delta_ij,
    # <(1 - uh1^2)(uh1^2 - uh2^2)> = -2/15 and <uh1^2 uh2^2> = 1/15.
    probes_11 = (gauss, usq * gauss, (u1**2 - u2**2) * gauss)
    exact_11 = ((8.0 * math.pi / 3.0) * m4, (8.0 * math.pi / 3.0) * m6,
                -(8.0 * math.pi / 15.0) * m6)
    axis_phi = np.where(masks["axis"], phis[0], 0.0)
    even = solve([[w if row == 0 else 0.0, lattice(axis_phi, p),
                   lattice(in_face[0], p)] for row, p in enumerate(probes_11)],
                 [e - lattice(phis[0], p) for e, p in zip(exact_11, probes_11)],
                 "even")

    # The fourth probe sees th_face only: the origin and the axis shell
    # carry no off-diagonal part.
    p12 = u1 * u2 * gauss
    exact_12 = (4.0 * math.pi / 15.0) * m6
    residual = abs(even[2] * lattice(in_face[3], p12) + lattice(phis[3], p12)
                   + exact_12) / exact_12
    if not residual <= 1e-12:
        raise ParameterError(f"fourth even calibration probe misses its "
                             f"moment at {where}: residual {residual:.3g}")

    # Odd system: probes (u1 W, u1 |u|^2 W, u1 (u1^2 - 3 u2^2) W) against
    # (d_axis, d_face, d_axis2) with sign pattern sign(u1); the isotropic
    # kernel has no ell=3 angular content, so the third exact moment is 0.
    sgn = [np.where(shell, np.sign(u1), 0.0) for shell in
           (masks["axis_i"][0], masks["face_i"][0], masks["axis2_i"][0])]
    probes_d = (u1 * gauss, u1 * usq * gauss,
                u1 * (u1**2 - 3.0 * u2**2) * gauss)
    exact_d = (-(8.0 * math.pi / 3.0) * m4, -(8.0 * math.pi / 3.0) * m6, 0.0)
    return even, solve(
        [[lattice(shell, p) for shell in sgn] for p in probes_d],
        [e - lattice(derivs[0], p) for e, p in zip(exact_d, probes_d)], "odd")


def _kernel_components(gamma, off, velocity_grid):
    """Corrected kernel samples shared by the fast path and the oracle.

    The samples sit on the lattice with offsets ``off`` along each axis.
    For ``gamma >= 0`` the kernels are continuous (value 0 at the origin by
    the limit) and need no correction.  For ``gamma < 0`` the calibrated
    corrections of :func:`_calibration` are applied near the origin.
    """
    h = velocity_grid.spacing
    u1, u2, u3 = _axes(off)
    if gamma >= 0:
        return _base_kernel_components(gamma, u1, u2, u3, 0.0)
    (w0, th_axis, th_face), (d_axis, d_face, d_axis2) = _calibration(
        gamma, velocity_grid)
    phis, derivs = _base_kernel_components(gamma, u1, u2, u3, w0)
    masks = _shell_masks(u1, u2, u3, h)
    in_face = _inplane_parts(gamma, masks, h, phis)
    for k in range(len(_SYM_PAIRS)):
        phis[k] = (phis[k] + th_axis * np.where(masks["axis"], phis[k], 0.0)
                   + th_face * in_face[k])
    for i, u in enumerate((u1, u2, u3)):
        derivs[i] = derivs[i] + (
            d_axis * masks["axis_i"][i] + d_face * masks["face_i"][i]
            + d_axis2 * masks["axis2_i"][i]
        ) * np.sign(u)
    return phis, derivs


@dataclass
class LandauKernelTables:
    """Real doubled-box tables of the truncated collision kernels for one grid.

    ``kappa[k]`` is ``i^{|p|}`` times the doubled-box transform of kernel
    ``k`` (``p`` its parity per axis, ``_PARITY``), computed in real
    arithmetic from the kernel's octant (:func:`build_kernel_tables`), shape
    ``(9, 2 n_v, 2 n_v, 2 n_v)``: phi^{ij} in the order (11, 22, 33, 12, 13,
    23), then d_j phi^{ij} = -2 |u|^gamma u_i.  Along each axis, index ``0..n``
    holds frequency ``q = 0..n`` (the cos part of the basis) and index
    ``n + 1..2n - 1`` holds ``q = 1..n - 1`` (the sin part).  Construction
    also computes, once, the nine kernel convolutions of the reference
    Maxwellian ``mu`` (``mu_conv``, one ``(9, n_v, n_v, n_v)`` array in the
    order of ``kappa``) and its three velocity derivatives (``mu_derivs``).
    These arrays and ``kappa`` are read-only: kernel data are immutable
    after construction and shareable across threads; ``_rho_estimate`` is a
    lazy cache.
    """

    gamma: float
    velocity_grid: object
    kappa: np.ndarray
    mu_conv: np.ndarray = field(init=False, repr=False)
    mu_derivs: tuple = field(init=False, repr=False)
    epsilon_op: float | None = None
    _rho_estimate: float | None = field(default=None, repr=False)

    def __post_init__(self):
        ve = self.velocity_grid
        mu = maxwellian(ve)
        self.mu_conv = _read_only(convolve_tables(self, mu, 1))
        self.mu_derivs = tuple(_read_only(_v_derivative(ve, mu, j))
                               for j in range(3))

    def sampled_kernels(self):
        """Real-space kernel samples on the centered difference lattice.

        Returns (offsets, phis, derivs) where offsets is the 1-D array of
        ``2 n_v - 1`` physical offsets and the kernel arrays have shape
        ``(2 n_v - 1,)*3``.  These are the samples the direct oracle sums
        against; the tables come from their octant of non-negative offsets.
        """
        off = _centred_lattice(self.velocity_grid)
        phis, derivs = _kernel_components(self.gamma, off, self.velocity_grid)
        return off, phis, derivs

    def measure_epsilon_op(self):
        """Equilibrium residual ||Q(mu, mu)|| / ||mu||, measured not assumed."""
        mu = maxwellian(self.velocity_grid)
        q = q_from_convolutions(self, self.mu_conv, mu)
        w = self.velocity_grid.node_weight
        num = math.sqrt(float(np.sum(q**2)) * w)
        den = math.sqrt(float(np.sum(mu**2)) * w)
        self.epsilon_op = num / den
        return self.epsilon_op


def build_kernel_tables(gamma, velocity_grid, measure=True):
    """Real doubled-box kernel tables for ``gamma`` on ``velocity_grid``.

    Each kernel is sampled on the octant of offsets ``m h``, m < n_v, which
    fixes the whole doubled-box lattice by its parity (the ``+-2L`` planes
    never reach the kept ``n^3`` corner and count as zero).  Its table is
    three products with the table matrices of :func:`_basis`, applied along
    the axes as :func:`_convolve_nodes` applies ``forward``; ``measure``
    also sets ``epsilon_op``.
    """
    if not (-3.0 <= gamma <= 1.0):
        raise ParameterError(f"gamma must lie in [-3, 1], got {gamma}")
    n = velocity_grid.n_v
    phis, derivs = _kernel_components(
        gamma, np.arange(n) * velocity_grid.spacing, velocity_grid)
    table = _basis(velocity_grid)[4]
    kappa = np.empty((len(_PARITY), 2 * n, 4 * n * n))
    for kernel, (p1, p2, p3), out in zip(phis + derivs, _PARITY, kappa):
        narrow = kernel.reshape(n * n, n) @ table[p3].T
        wide = table[p2] @ narrow.reshape(n, n, 2 * n)
        np.matmul(table[p1], wide.reshape(n, 4 * n * n), out=out)
    kappa = kappa.reshape((len(_PARITY),) + (2 * n,) * 3)
    kappa.flags.writeable = False
    tables = LandauKernelTables(gamma=gamma, velocity_grid=velocity_grid,
                                kappa=kappa)
    if measure:
        tables.measure_epsilon_op()
    return tables


# ---- convolution path -------------------------------------------------------


@lru_cache(maxsize=None)
def _basis(velocity_grid):
    """Matrices of the cos/sin basis of the doubled box, read-only.

    Returns ``(forward_t, forward, inverse, last_t, table)``.  ``forward``
    (2n x n) has rows ``cos(pi q m / n)``, q = 0..n, then
    ``sin(pi q m / n)``, q = 1..n-1; ``forward_t`` is its transpose.
    ``inverse[p]`` (n x 2n) maps back along an axis of parity ``p``:
    ``[C | S]`` when even, ``[S' | -C']`` when odd, with entries ``cos`` or
    ``sin(pi q m / n)`` weighted ``w_q / 2n`` (``w_0 = w_n = 1``, else 2).
    ``last_t[p]`` is ``inverse[p]`` transposed with the quadrature weight
    folded in.  ``table[p]`` (2n x n, rows q = 0..n, 1..n-1) maps a kernel's
    samples at offsets ``m h``, m < n, to its table along an axis of parity
    ``p``: ``w_m cos(pi q m / n)`` (``w_0 = 1``, else 2) when even,
    ``2 sin(pi q m / n)`` when odd -- ``i^p`` times the doubled-box transform
    of a kernel mirrored about the origin.
    """
    n = velocity_grid.n_v
    q = np.r_[0:n + 1, 1:n]
    angle = (np.pi / n) * (np.outer(q, np.arange(n)) % (2 * n))
    cos, sin = np.cos(angle), np.sin(angle)
    forward = np.concatenate([cos[:n + 1], sin[n + 1:]])
    scale = np.where((q == 0) | (q == n), 1.0, 2.0)[None, :] / (2 * n)
    inverse = (forward.T * scale,
               np.concatenate([sin[:n + 1], -cos[n + 1:]]).T * scale)
    table = (cos * np.where(np.arange(n) == 0, 1.0, 2.0), 2.0 * sin)
    return (_read_only(forward.T), _read_only(forward),
            tuple(_read_only(m) for m in inverse),
            tuple(_read_only(m.T * velocity_grid.node_weight)
                  for m in inverse),
            tuple(_read_only(m) for m in table))


def _read_only(m):
    """``m`` as a contiguous array that refuses writes."""
    m = np.ascontiguousarray(m)
    m.flags.writeable = False
    return m


def _scratch(n):
    """One node's scratch of :func:`_convolve_nodes`: two ``(2n)^3`` and two
    smaller buffers."""
    return (np.empty((2 * n, 4 * n * n)), np.empty((2 * n, 4 * n * n)),
            np.empty((n, 2 * n, 2 * n)), np.empty((n, n, 2 * n)))


def _convolve_nodes(tables, nodes, out, part, scratch):
    """Convolutions of the velocity fields ``nodes[b]``, b in slice ``part``.

    Per node: three forward products into the ``(2n)^3`` coefficients, then
    per kernel the real product with its table and three inverse products,
    the last writing ``out[k, b]``.  ``scratch`` (:func:`_scratch`) holds
    one node, so its size does not grow with the share of the nodes.
    """
    n = tables.velocity_grid.n_v
    forward_t, forward, inverse, last_t, _ = _basis(tables.velocity_grid)
    kappa = tables.kappa.reshape(len(tables.kappa), 2 * n, 4 * n * n)
    coef, prod, wide, narrow = scratch
    for b in range(part.start, part.stop):
        np.matmul(nodes[b].reshape(n * n, n), forward_t,
                  out=narrow.reshape(n * n, 2 * n))
        np.matmul(forward, narrow, out=wide)
        np.matmul(forward, wide.reshape(n, 4 * n * n), out=coef)
        for k, (p1, p2, p3) in enumerate(_PARITY):
            np.multiply(coef, kappa[k], out=prod)
            np.matmul(inverse[p1], prod, out=wide.reshape(n, 4 * n * n))
            np.matmul(inverse[p2], wide, out=narrow)
            np.matmul(narrow.reshape(n * n, 2 * n), last_t[p3],
                      out=out[k, b].reshape(n * n, n))


def convolve_tables(tables, g, workers=None):
    """All nine kernel convolutions of ``g``, by real matrix products.

    ``g`` may carry leading (spatial) axes; the convolution acts on the
    trailing three velocity axes.  Returns one array of shape ``(9,) +
    g.shape``, the kernels in the order of ``tables.kappa`` (phi^{ij}, then
    D_i), scaled by the quadrature weight so that each entry approximates
    ``integral kernel(v - v') g(v') dv'``.

    The zero-padded circular convolution on the doubled box is diagonal in
    its Fourier basis; a kernel's parity folds the frequencies ``q`` and
    ``2n - q`` together, so it runs in the real cos/sin basis of
    :func:`_basis` (Martucci, IEEE Trans. Signal Process. 42, 1994): a
    field's ``n`` values per axis map to ``2n`` coefficients, each kernel
    multiplies them by its real table ``kappa`` and the inverse products
    return the ``n^3`` corner.  The spatial nodes split over ``workers``
    threads, ``VPLANDAU_THREADS`` when ``None`` (:func:`split_nodes`).
    """
    n = tables.velocity_grid.n_v
    g = np.asarray(g, dtype=float)
    nodes = g.reshape((-1,) + (n,) * 3)
    out = np.empty((len(tables.kappa), len(nodes)) + (n,) * 3)
    split_nodes(len(nodes), workers, lambda part: _convolve_nodes(
        tables, nodes, out, part, _scratch(n)))
    return out.reshape((len(tables.kappa),) + g.shape)


_v_derivative = v_derivative_trailing


def _flux(conv, f, df, i, out, tmp):
    """Flux ``i`` of Q(g, f) into ``out``: sum_j (phi^{ij} * g) d_j f -
    (D_i * g) f, with ``conv`` the nine convolutions of ``g``; ``tmp`` takes
    one product at a time."""
    np.negative(np.multiply(conv[6 + i], f, out=out), out=out)
    for j in range(3):
        out += np.multiply(conv[_PAIR_INDEX[i, j]], df[j], out=tmp)
    return out


def q_from_convolutions(tables, conv, f, add_flux=None):
    """Assemble Q given precomputed convolutions of the first argument.

    ``conv`` holds the nine convolutions of ``g`` as :func:`convolve_tables`
    returns them, each broadcasting against ``f``.  flux_i = sum_j (phi^{ij}
    * g) d_j f  -  (D_i * g) f, with the tables storing D_i = d_j phi^{ij} =
    -2 |u|^gamma u_i, then Q = d_i flux_i.  ``add_flux`` may supply three
    fluxes (broadcasting against ``f``) added before the divergence, which
    then yields the sum of both operators.  Allocates six arrays shaped
    like ``f``, the output among them.
    """
    ve = tables.velocity_grid
    *df, flux, tmp, out = [np.empty(f.shape) for _ in range(6)]
    for j in range(3):
        _v_derivative(ve, f, j, out=df[j])
    for i in range(3):
        _flux(conv, f, df, i, flux, tmp)
        if add_flux is not None:
            flux += add_flux[i]
        if i == 0:
            _v_derivative(ve, flux, i, out=out)
        else:
            out += _v_derivative(ve, flux, i, out=tmp)
    return out


def mu_derivatives(tables):
    """Spectral velocity derivatives of the reference Maxwellian."""
    return tables.mu_derivs


def q_landau_fft(g, f, tables):
    """Q(g, f) on the tables' velocity grid via the doubled-box convolution.

    ``g`` and ``f`` are velocity fields (possibly with leading spatial axes,
    evaluated slice-wise).  The convolutions are the real cos/sin-basis
    products of :func:`convolve_tables`: the zero-padded FFT convolution,
    computed in real arithmetic.
    """
    g = np.asarray(g, dtype=float)
    f = np.asarray(f, dtype=float)
    if g.shape[-3:] != tables.velocity_grid.shape or g.shape != f.shape:
        raise GridMismatchError(
            f"velocity shapes {g.shape} / {f.shape} do not match grid "
            f"{tables.velocity_grid.shape}"
        )
    return q_from_convolutions(tables, convolve_tables(tables, g), f)


# ---- direct-quadrature oracle -----------------------------------------------

_ORACLE_MAX = 16


def _direct_convolve(kernel_cube, g, weight):
    """Exact direct-summation convolution, no FFTs anywhere.

    ``out[a] = sum_b kernel((v_a - v_b)) g[b] * weight`` with the kernel
    sampled on the centered (2n-1)^3 difference cube, as one dense
    node-pair matrix: the n^3-windows of the reversed cube, reversed back
    along the window offsets, hold ``kernel[a - b + n - 1]`` at ``(a, b)``.
    """
    n = g.shape[0]
    windows = np.lib.stride_tricks.sliding_window_view(
        kernel_cube[::-1, ::-1, ::-1], (n, n, n))
    mat = windows[::-1, ::-1, ::-1].reshape(n**3, n**3)
    return (mat @ g.ravel()).reshape(g.shape) * weight


def q_landau_direct(g, f, gamma, velocity_grid):
    """O(N^2) direct-quadrature evaluation of Q(g, f) (test oracle).

    Shares the sampled kernels and the origin regularization with the fast
    path but computes every convolution by direct summation over node pairs.
    The drift uses the analytic identity ``d_j phi^{ij} = -2|u|^gamma u_i``,
    matching the fast path's formula.
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
    phis, derivs = _kernel_components(gamma, _centred_lattice(velocity_grid),
                                      velocity_grid)
    w = velocity_grid.node_weight
    phi_conv = [_direct_convolve(k, g, w) for k in phis]
    df = [_v_derivative(velocity_grid, f, j) for j in range(3)]
    out = np.zeros_like(f)
    for i in range(3):
        flux = np.zeros_like(f)
        for j in range(3):
            flux += phi_conv[_PAIR_INDEX[i, j]] * df[j]
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
        self.velocity_grid = ve
        self.basis = invariants(ve)[1]  # psi mu, (5, n, n, n)
        # gram[m, k]: the m-th invariant moment of the k-th basis field
        self.gram_inv = np.linalg.inv(invariant_moments(ve, self.basis))

    def apply(self, q):
        """Correct the species pair ``q``, shaped ``(2, ...)``, in place."""
        ve = self.velocity_grid
        target = 0.5 * (invariant_moments(ve, q[0])
                        + invariant_moments(ve, q[1]))
        target[0] = 0.0  # keep per-species mass untouched (already exact)
        alpha = np.tensordot(self.gram_inv, target, axes=(1, 0))
        # contract the basis index; spatial axes (if any) land ahead of the
        # velocity axes, matching the field layout
        q -= np.tensordot(alpha, self.basis, axes=(0, 0))


# ---- assembled collision right-hand side -------------------------------------


def mu_convolutions(tables):
    """Kernel convolutions of the reference Maxwellian."""
    return tables.mu_conv


def frozen_collision(tables, s, linearized=False, corrector=None):
    """Collision right-hand side with its first argument frozen at ``s``.

    ``s`` holds velocity fields on a leading axis of spatial nodes.
    Convolves ``s`` once and returns the closure ``rhs(f) = Q(s, mu) + Q(2 mu
    + s, f)`` (the convolution is linear in its first argument, and the
    tables hold the Maxwellian's) on the species pair ``f``, shaped ``(2,) +
    s.shape``; it returns the pair in a fresh array of that shape.  With
    ``linearized=True`` the closure is ``Q(s, mu) + Q(2 mu, f)``, the
    linearized operator when ``s = f+ + f-``.  The fluxes of ``Q(s, mu)``
    are built once, from the tables' Maxwellian derivatives, and added to
    the pair's fluxes, so each call takes a single divergence.  A
    ``corrector`` corrects every output in place.  This is the only place
    the collision right-hand side is assembled; it runs on the calling
    thread, since its callers already split the nodes.
    """
    mu = maxwellian(tables.velocity_grid)
    conv = convolve_tables(tables, s, 1)
    flux_s_mu = np.empty((3,) + s.shape)
    tmp = np.empty(s.shape)
    for i in range(3):
        _flux(conv, mu, tables.mu_derivs, i, flux_s_mu[i], tmp)
    # convolutions of the first argument of Q(., f): 2 mu, or 2 mu + s
    # built in place on the fresh s convolutions
    if linearized:
        conv = 2.0 * tables.mu_conv
    else:
        conv += 2.0 * tables.mu_conv[:, None]

    def rhs(f):
        q = q_from_convolutions(tables, conv, f, add_flux=flux_s_mu)
        if corrector is not None:
            corrector.apply(q)
        return q

    return rhs


def apply_collision_field(state, tables, conservative=True, corrector=None,
                          workers=None):
    """Collision right-hand side of the perturbation system for both species.

    ``Q(f+ + f-, mu) + Q(2 mu + f+ + f-, f_pm)`` at every spatial node, the
    nodes split over ``workers`` threads, ``VPLANDAU_THREADS`` when ``None``
    (:func:`split_nodes`), each block stacking its pair.  With
    ``conservative=True`` the moment-matched correction is applied so the
    discrete invariants of the assembled output vanish exactly.  Returns the
    pair ``(rhs_plus, rhs_minus)``.
    """
    ve = state.grid.velocity
    if tables.velocity_grid.shape != ve.shape:
        raise GridMismatchError("tables built for a different velocity grid")
    if not conservative:
        corrector = None
    elif corrector is None:
        corrector = ConservativeCorrector(ve)
    fp, fm = (f.reshape((-1,) + ve.shape) for f in (state.f_plus,
                                                      state.f_minus))

    def block(part):
        f = np.stack([fp[part], fm[part]])
        return frozen_collision(tables, f[0] + f[1], corrector=corrector)(f)

    blocks = split_nodes(len(fp), workers, block)
    return tuple(np.concatenate(q).reshape(state.f_plus.shape)
                 for q in zip(*blocks))


def apply_linearized_collision(f_plus, f_minus, tables):
    """Linearized collision operator L f = Q(f+ + f-, mu) + 2 Q(mu, f_pm).

    Returns the pair as one array of shape ``(2,) + f_plus.shape``.
    """
    f = np.stack([f_plus, f_minus])
    nodes = f.reshape((2, -1) + tables.velocity_grid.shape)
    q = frozen_collision(tables, nodes[0] + nodes[1], linearized=True)(nodes)
    return q.reshape(f.shape)

"""Discrete phase space and spectral primitives.

Conventions used throughout the package:

* The spatial domain is a periodic box ``[0, length)^dim_x`` (default period
  ``2*pi`` per axis), sampled on ``n_x`` uniform points per axis.  Spatial
  wavenumbers are integers scaled by ``2*pi/length`` in the standard FFT
  layout (the Nyquist mode sits at ``-n_x/2``; it is an alias of ``+n_x/2``
  and is zeroed whenever an odd-order derivative is taken).
* The velocity domain is the truncated box ``[-L, L)^3`` sampled on ``n_v``
  uniform points per axis and treated as a ``2L``-periodic torus for all
  spectral operations.  Velocity wavenumbers are ``(pi/L) * m`` for integer
  ``m`` in FFT layout.
* Every spectral derivative -- phase-space, velocity-only, spatial, the
  Poisson gradient and the weighted mixed derivatives -- is built from
  :func:`derivative_multiplier`, the one place the Nyquist rule lives.  The
  Poisson gradient multiplies Fourier coefficients by it; every other
  derivative is one matrix product along its axis with
  :func:`derivative_matrix`, the multiplier's dense ``n x n`` real-space
  form (on the short axes used here a BLAS product is faster than a
  transform pair).  The BLAS splits a product's output, never its sums,
  so results do not depend on its thread count.
* Phase-space arrays carry spatial axes first, velocity axes last:
  ``shape = (n_x,)*dim_x + (n_v, n_v, n_v)``.
* Transforms are ``numpy.fft`` calls, made where they are needed, with the
  ``norm="forward"`` DFT: the forward transform divides by the number of
  points, so coefficients are discrete Fourier-series coefficients (a
  constant field has a single coefficient at frequency zero equal to its
  value).  Parseval then reads ``integral |f|^2 = box_volume * sum |fhat|^2``:
  the quadrature L2 norm below and the coefficient norm agree up to
  roundoff.
* Operators that act in ``v`` alone split the spatial nodes over threads
  in one helper, :func:`split_nodes`: the collision substep and the ``D_k``
  pass of the diagnostics record.  It is the one place in a run that reads
  ``VPLANDAU_THREADS`` (:func:`threads_from_env`).
* Quadrature is the uniform-weight (trapezoid-equivalent on a periodic grid)
  sum: cell volume ``(length/n_x)^dim_x * (2L/n_v)^3``.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import GridMismatchError, UnsupportedOrderError

_TWO_PI = 2.0 * math.pi


def _check_power_of_two(n, name):
    if n < 4 or (n & (n - 1)) != 0:
        raise ValueError(f"{name} must be a power of two >= 4, got {n}")


@dataclass(frozen=True)
class SpatialGrid:
    """Periodic spatial grid: ``dim_x`` axes, ``n_x`` points per axis."""

    dim_x: int = 1
    n_x: int = 16
    length: float = _TWO_PI

    def __post_init__(self):
        if self.dim_x not in (1, 2, 3):
            raise ValueError(f"dim_x must be in {{1,2,3}}, got {self.dim_x}")
        _check_power_of_two(self.n_x, "n_x")
        if not 0 < self.length < math.inf:
            raise ValueError(
                f"length must be positive and finite, got {self.length}")

    @property
    def spacing(self):
        return self.length / self.n_x

    @property
    def cell_volume(self):
        return self.spacing**self.dim_x

    @property
    def volume(self):
        return self.length**self.dim_x

    def axis_nodes(self):
        """1-D node array, shared by every spatial axis."""
        return np.arange(self.n_x) * self.spacing

    def axis_wavenumbers(self):
        """1-D wavenumber array in FFT layout (rad per unit length)."""
        return _TWO_PI / self.length * np.fft.fftfreq(self.n_x, 1.0 / self.n_x)

    def coordinate(self, axis):
        """Node coordinates of spatial axis ``axis`` broadcast to x-shape."""
        return along(self.axis_nodes(), axis, self.dim_x)

    @property
    def shape(self):
        return (self.n_x,) * self.dim_x


@dataclass(frozen=True)
class VelocityGrid:
    """Truncated velocity box ``[-L, L)^3`` on a uniform grid."""

    n_v: int = 16
    cutoff_L: float = 8.0

    def __post_init__(self):
        _check_power_of_two(self.n_v, "n_v")
        if not 0 < self.cutoff_L < math.inf:
            raise ValueError(
                f"cutoff_L must be positive and finite, got {self.cutoff_L}")

    @property
    def spacing(self):
        return 2.0 * self.cutoff_L / self.n_v

    @property
    def node_weight(self):
        """Quadrature weight per node, ``(2L/n_v)^3``."""
        return self.spacing**3

    def axis_nodes(self):
        return -self.cutoff_L + self.spacing * np.arange(self.n_v)

    def axis_wavenumbers(self):
        period = 2.0 * self.cutoff_L
        return _TWO_PI / period * np.fft.fftfreq(self.n_v, 1.0 / self.n_v)

    def coordinate(self, axis):
        """Node coordinates of velocity axis ``axis`` as a (n_v,n_v,n_v) view."""
        return np.broadcast_to(along(self.axis_nodes(), axis, 3), self.shape)

    def speed_squared(self):
        v = self.axis_nodes()
        return (
            v[:, None, None] ** 2 + v[None, :, None] ** 2 + v[None, None, :] ** 2
        )

    @property
    def shape(self):
        return (self.n_v,) * 3


@dataclass(frozen=True)
class PhaseGrid:
    """Product of a spatial and a velocity grid, with axis bookkeeping."""

    spatial: SpatialGrid = field(default_factory=SpatialGrid)
    velocity: VelocityGrid = field(default_factory=VelocityGrid)

    # ---- shapes and axis bookkeeping -------------------------------------

    @property
    def shape(self):
        return self.spatial.shape + self.velocity.shape

    @property
    def dim_x(self):
        return self.spatial.dim_x

    @property
    def x_axes(self):
        return tuple(range(self.dim_x))

    @property
    def v_axes(self):
        return tuple(range(self.dim_x, self.dim_x + 3))

    @property
    def cell_volume(self):
        return self.spatial.cell_volume * self.velocity.node_weight

    def axis_grid(self, axis):
        """The spatial or velocity grid that a flat array axis samples."""
        return self.spatial if axis < self.dim_x else self.velocity

    def check_shape(self, values, domain="xv"):
        expected = {"xv": self.shape, "x": self.spatial.shape}[domain]
        if np.shape(values) != expected:
            raise GridMismatchError(
                f"array shape {np.shape(values)} does not match grid shape "
                f"{expected} (domain {domain!r})"
            )


def along(k, axis, ndim):
    """The 1-D array ``k`` reshaped to lie along ``axis`` of ``ndim`` axes."""
    shape = [1] * ndim
    shape[axis] = k.size
    return k.reshape(shape)


@lru_cache(maxsize=None)
def derivative_multiplier(axis_grid, order):
    """Read-only ``(i k)^order`` of a spatial or velocity grid's axis.

    The Nyquist mode is zeroed for odd orders so that real fields map to
    real fields; it is kept for the (real) second-order multiplier.
    """
    if order not in (1, 2):
        raise UnsupportedOrderError(f"order must be 1 or 2, got {order}")
    k = axis_grid.axis_wavenumbers()
    mult = (1j * k) ** order
    if order % 2 == 1:
        mult[k.size // 2] = 0.0
    mult.setflags(write=False)
    return mult


def wavenumber_squared(axis_grid):
    """``|k|^2`` over every axis of ``axis_grid``."""
    k = axis_grid.axis_wavenumbers()
    ndim = len(axis_grid.shape)
    return sum(along(k, a, ndim) ** 2 for a in range(ndim))


@lru_cache(maxsize=None)
def derivative_matrix(axis_grid, order):
    """Read-only real ``n x n`` matrix of the spectral derivative of an axis.

    Column ``j`` is the derivative of the ``j``-th unit vector, taken
    through ``rfft``/``irfft`` with the first ``n // 2 + 1`` entries of
    :func:`derivative_multiplier`, so the Nyquist rule is the multiplier's.
    """
    mult = derivative_multiplier(axis_grid, order)
    n = mult.size
    hat = np.fft.rfft(np.eye(n), axis=0, norm="forward")
    hat *= mult[: n // 2 + 1, None]
    mat = np.fft.irfft(hat, n=n, axis=0, norm="forward")
    mat.setflags(write=False)
    return mat


def axis_derivative(axis_grid, values, axis, order=1, out=None):
    """Spectral derivative along array ``axis``, sampled by ``axis_grid``.

    One matrix product with :func:`derivative_matrix`: ``(pre, n) @ D^T``
    when ``axis`` is last, else ``D @ (pre, n, post)`` on the input
    reshaped around the axis.  Real input gives real output, complex input
    complex output.  ``out``, a C-contiguous array shaped like ``values``,
    takes the result in place of a new array.
    """
    mat = derivative_matrix(axis_grid, order)
    axis %= values.ndim
    shape = values.shape
    n = shape[axis]
    post = math.prod(shape[axis + 1:])
    if post == 1:
        a, b, rows = values.reshape(-1, n), mat.T, (-1, n)
    else:
        a, b, rows = mat, values.reshape(-1, n, post), (-1, n, post)
    return np.matmul(a, b, out=None if out is None
                     else out.reshape(rows)).reshape(shape)


def integrate_v(grid, values):
    """Velocity integral of a phase field; returns the spatial field."""
    grid.check_shape(values, "xv")
    return values.sum(axis=grid.v_axes) * grid.velocity.node_weight


def integrate_x(grid, values_x):
    """Integral of a spatial field over the periodic box."""
    grid.check_shape(values_x, "x")
    return float(values_x.sum()) * grid.spatial.cell_volume


def l2_norm(grid, values, domain="xv"):
    """L2 norm by quadrature (equals the Parseval coefficient norm)."""
    if domain == "xv":
        grid.check_shape(values, "xv")
        w = grid.cell_volume
    elif domain == "x":
        grid.check_shape(values, "x")
        w = grid.spatial.cell_volume
    else:
        raise ValueError(f"unknown domain {domain!r}")
    return math.sqrt(float(np.sum(np.abs(values) ** 2)) * w)


def v_derivative_trailing(velocity_grid, values, axis, out=None):
    """Spectral d/dv_axis acting on the trailing three (velocity) axes.

    Works for velocity-only fields and for phase-space fields alike;
    ``out`` as in :func:`axis_derivative`.
    """
    return axis_derivative(velocity_grid, values, values.ndim - 3 + axis,
                           out=out)


# ---- threads over spatial nodes -------------------------------------------


def threads_from_env():
    """The thread count ``VPLANDAU_THREADS`` sets, ``None`` when it is unset
    or blank.

    Raises ``ValueError``, naming the variable, for anything but a positive
    integer.
    """
    text = os.environ.get("VPLANDAU_THREADS", "").strip()
    if not text:
        return None
    try:
        count = int(text)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(
            f"VPLANDAU_THREADS: positive integer required, got {text!r}")
    return count


def split_nodes(count, workers, job):
    """Run ``job(part)`` per contiguous block of ``count`` spatial nodes.

    ``workers`` is the thread count, ``None`` for the one
    ``VPLANDAU_THREADS`` sets (:func:`threads_from_env`, one thread when it
    is unset).  The nodes split as ``np.array_split`` splits them into
    ``min(workers, count // 2)`` blocks (one at least), ``part`` the block's
    slice.  A block keeps two nodes or more: OpenBLAS takes a product with
    one row through gemv, whose sums round differently from gemm's, and the
    corrector's products have a row per node.  The calling thread runs the
    first block and a thread pool the others.  Every node runs the same
    operations either way, so results do not depend on ``workers``.  Jobs
    that find the derivative matrices' cache empty may each fill it; every
    fill computes the same values.  Returns the jobs' results in node order.
    """
    if workers is None:
        workers = threads_from_env()
    k = max(1, min(workers or 1, count // 2))
    size, extra = divmod(count, k)
    edges = [b * size + min(b, extra) for b in range(k + 1)]
    first, *rest = [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]
    if not rest:
        return [job(first)]
    with ThreadPoolExecutor(len(rest)) as pool:
        running = [pool.submit(job, part) for part in rest]
        return [job(first)] + [done.result() for done in running]


# ---- truncation / aliasing tolerance -------------------------------------


def truncation_tolerance(cutoff_L, n_v, moment_order=0):
    """Conservative bound on the error of a Gaussian velocity moment.

    Estimates the uniform-grid quadrature error of
    ``integral |v|^p mu(v) dv`` restricted to the box ``[-L, L)^3``.  Two
    sources: aliasing (Poisson summation; decays like exp(-2 pi^2/h^2)) and
    tail truncation (decays like exp(-L^2/2)).  A safety factor of 10 and a
    roundoff floor are applied; the bound is intentionally loose.
    """
    h = 2.0 * cutoff_L / n_v
    p = moment_order
    alias = 6.0 * (1.0 + (_TWO_PI / h) ** p) * math.exp(-2.0 * math.pi**2 / h**2)
    tail = 6.0 * (1.0 + cutoff_L ** (p + 1)) * math.exp(-(cutoff_L**2) / 2.0)
    return max(10.0 * (alias + tail), 1e-12)


def resolution_tolerance(cutoff_L, n_v, order=1):
    """Bound on the pointwise spectral-representation error of the Maxwellian.

    Distinct from :func:`truncation_tolerance`: moments of ``mu`` alias at
    ``exp(-2 pi^2/h^2)`` (Poisson summation of the Gaussian), while pointwise
    reconstruction and spectral derivatives are limited by the spectral tail
    of ``mu`` beyond the grid's Nyquist frequency ``pi/h``, which only decays
    like ``exp(-pi^2/(2 h^2))``.  Derivatives pick up an extra factor of the
    Nyquist frequency per order.  Relative to the peak of the field.
    """
    h = 2.0 * cutoff_L / n_v
    eta = math.pi / h
    tail = math.exp(-0.5 * eta**2) * (1.0 + eta) ** order
    box = (1.0 + cutoff_L**order) * math.exp(-(cutoff_L**2) / 2.0)
    return max(10.0 * (tail + box), 1e-13)

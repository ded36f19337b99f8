"""Zero-mean Poisson solve coupling charge density to the potential.

Solves ``-laplace(phi) = rho - mean(rho)`` on the periodic spatial box with
``integral phi dx = 0`` by diagonal division in Fourier space.  A nonzero
mean of ``rho`` (possible transiently through quadrature error) is projected
out; callers are warned through the returned report so the conservation
diagnostics can pick it up.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .grid import along, derivative_multiplier, wavenumber_squared


@dataclass
class PoissonResult:
    phi: np.ndarray
    e_field: tuple  # components of E = -grad phi
    mean_charge: float
    mean_projected: bool


def solve_potential(spatial, rho):
    """Solve the zero-mean periodic Poisson problem for ``phi`` and ``E``.

    Returns a :class:`PoissonResult`.  ``phi_hat(xi) = rho_hat(xi)/|xi|^2``
    for ``xi != 0`` and ``phi_hat(0) = 0``; the solve is spectrally exact.
    A mean above ``1e-8`` of the density's L^2 norm is flagged and warned.
    """
    rho = np.asarray(rho, dtype=float)
    if rho.shape != spatial.shape:
        raise ValueError(f"rho shape {rho.shape} != spatial shape {spatial.shape}")
    rho_hat = np.fft.fftn(rho, norm="forward")
    mean = float(rho_hat[(0,) * spatial.dim_x].real)
    rho_scale = math.sqrt(float(np.sum(rho**2)) * spatial.cell_volume)
    # absolute floor keeps roundoff-level means of near-zero densities quiet
    flagged = abs(mean) > max(1e-8 * rho_scale, 1e-13)
    if flagged:
        warnings.warn(
            f"charge density has nonzero mean {mean:.3e}; projecting it out",
            RuntimeWarning,
            stacklevel=2,
        )
    k2 = wavenumber_squared(spatial)
    k2 = np.where(k2 == 0.0, 1.0, k2)
    phi_hat = rho_hat / k2
    phi_hat[(0,) * spatial.dim_x] = 0.0
    phi = np.fft.ifftn(phi_hat, norm="forward").real
    e_field = [-g for g in _gradient(spatial, phi_hat)]
    return PoissonResult(phi=phi, e_field=tuple(e_field), mean_charge=mean,
                         mean_projected=flagged)


def _gradient(spatial, phi_hat):
    """Spectral gradient, one array per axis, from the coefficients of phi."""
    m1 = derivative_multiplier(spatial, 1)
    return [np.fft.ifftn(along(m1, axis, spatial.dim_x) * phi_hat,
                         norm="forward").real
            for axis in range(spatial.dim_x)]


def grad(spatial, phi):
    """Spectral gradient of a spatial field, one array per axis."""
    phi_hat = np.fft.fftn(np.asarray(phi, dtype=float), norm="forward")
    return _gradient(spatial, phi_hat)


def field_energy(spatial, phi):
    """``integral |grad phi|^2 dx`` over the periodic box (Parseval-exact)."""
    g = grad(spatial, phi)
    total = sum(float(np.sum(c**2)) for c in g)
    return total * spatial.cell_volume


def residual(spatial, phi, rho):
    """L2 norm of ``-laplace(phi) - (rho - mean rho)`` (spectral Laplacian)."""
    phi_hat = np.fft.fftn(np.asarray(phi, dtype=float), norm="forward")
    lap = np.fft.ifftn(-wavenumber_squared(spatial) * phi_hat,
                       norm="forward").real
    rho0 = rho - float(np.mean(rho))
    r = -lap - rho0
    return math.sqrt(float(np.sum(r**2)) * spatial.cell_volume)

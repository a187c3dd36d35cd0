"""Free-space Coulomb convolution on the periodic grid.

The kernel 1/|x| truncated at radius T has the closed-form spectral symbol
4 pi (1 - cos(T |k|)) / |k|^2 with limit value 2 pi T^2 at k = 0.  As long
as the density support has diameter at most T the periodic convolution with
this symbol reproduces the free-space convolution; the default T = L/2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import fft as _fft

from .errors import ConfigurationError
from .fields import Field
from .grid import Grid


def _symbol(k_sq: np.ndarray, truncation_radius: float) -> np.ndarray:
    if truncation_radius <= 0:
        raise ConfigurationError(
            f"truncation radius must be positive, got {truncation_radius}"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        symbol = 4.0 * np.pi * (1.0 - np.cos(truncation_radius * np.sqrt(k_sq))) / k_sq
    symbol[0, 0, 0] = 2.0 * np.pi * truncation_radius**2
    return symbol


def truncated_kernel_symbol(grid: Grid, truncation_radius: float) -> np.ndarray:
    """Spectral symbol of the radius-T truncation of 1/|x|, one value per mode."""
    return _symbol(grid.k_sq, truncation_radius)


@dataclass(frozen=True)
class CoulombKernel:
    """Truncated Coulomb kernel bound to one grid.

    ``half_symbol`` is the symbol on the half spectrum kz >= 0 (it drives
    Phi), ``double_integral_weight`` the same times the Hermitian plane
    weights (it drives D); ``symbol`` is the full array, built on demand.
    """

    grid: Grid
    truncation_radius: float
    half_symbol: np.ndarray = field(repr=False)
    double_integral_weight: np.ndarray = field(repr=False)

    @property
    def symbol(self) -> np.ndarray:
        T = self.truncation_radius
        return self.grid.cached(
            ("coulomb_symbol", T), lambda: truncated_kernel_symbol(self.grid, T)
        )


def coulomb_kernel(grid: Grid, truncation_radius: float | None = None) -> CoulombKernel:
    """Kernel for ``grid``; symbols are cached per (grid, T)."""
    if truncation_radius is None:
        truncation_radius = grid.box_length / 2.0
    T = float(truncation_radius)

    def build():
        half = _symbol(grid.wave_sq(half=True), T)
        return half, half * grid.hermitian_weight

    half, weight = grid.cached(("coulomb_half_symbol", T), build)
    return CoulombKernel(grid, T, half, weight)


def _potential_values(
    density_fft: np.ndarray, kernel: CoulombKernel
) -> np.ndarray:
    """Phi from ``density_fft = rfftn(density)`` of a real density.

    The density and Phi are real, so both transforms run on the half
    spectrum kz >= 0.
    """
    return _fft.irfftn(kernel.half_symbol * density_fft, s=kernel.grid.shape)


def _double_integral_from_density_fft(
    density_fft: np.ndarray, kernel: CoulombKernel
) -> float:
    """sum_k symbol(k) |rho_hat(k)|^2 from the half spectrum ``rfftn(density)``,
    with the Hermitian plane weights (see ``grid``)."""
    power = density_fft.real**2 + density_fft.imag**2
    return float(np.sum(kernel.double_integral_weight * power))


def _density_fft(u: Field) -> np.ndarray:
    return _fft.rfftn(u.density())


def hartree_potential(u: Field, kernel: CoulombKernel | None = None) -> Field:
    """Coulomb potential Phi = (1/|x|) * |u|^2 of the density of ``u``.

    Aliasing from pointwise squaring and kernel-truncation error are the
    caller's responsibility (box-size rule of thumb: L at least 8 times the
    field's effective radius).
    """
    u.require_finite("hartree_potential input")
    if kernel is None:
        kernel = coulomb_kernel(u.grid)
    return Field.of_parts(u.grid, (_potential_values(_density_fft(u), kernel),))


def hartree_double_integral(u: Field, kernel: CoulombKernel | None = None) -> float:
    """The quartic Coulomb self-interaction D(u) = int Phi |u|^2 dx.

    Evaluated spectrally as sum_k symbol(k) |rho_hat(k)|^2; equal to the
    physical-space quadrature h^3 sum Phi |u|^2 up to rounding, and
    nonnegative because the symbol is.
    """
    u.require_finite("hartree_double_integral input")
    if kernel is None:
        kernel = coulomb_kernel(u.grid)
    return _double_integral_from_density_fft(_density_fft(u), kernel)

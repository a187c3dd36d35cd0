"""Free-space Coulomb convolution on the periodic grid.

The kernel 1/|x| truncated at radius T has the closed-form spectral symbol
4 pi (1 - cos(T |k|)) / |k|^2 with limit value 2 pi T^2 at k = 0.  As long
as the density support has diameter at most T the periodic convolution with
this symbol reproduces the free-space convolution; the default T = L/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import fft as _fft

from .errors import ConfigurationError
from .fields import Field
from .grid import Grid


def truncated_kernel_symbol(grid: Grid, truncation_radius: float) -> np.ndarray:
    """Spectral symbol of the radius-T truncation of 1/|x|, one value per mode."""
    if truncation_radius <= 0:
        raise ConfigurationError(
            f"truncation radius must be positive, got {truncation_radius}"
        )
    k = grid.k_abs
    with np.errstate(divide="ignore", invalid="ignore"):
        symbol = 4.0 * np.pi * (1.0 - np.cos(truncation_radius * k)) / grid.k_sq
    symbol[0, 0, 0] = 2.0 * np.pi * truncation_radius**2
    return symbol


@dataclass(frozen=True)
class CoulombKernel:
    """Truncated Coulomb kernel bound to one grid."""

    grid: Grid
    truncation_radius: float
    symbol: np.ndarray

    def __post_init__(self) -> None:
        if self.symbol.shape != self.grid.shape:
            raise ConfigurationError("kernel symbol shape does not match grid")


def coulomb_kernel(grid: Grid, truncation_radius: float | None = None) -> CoulombKernel:
    """Kernel for ``grid``; symbols are cached per (grid, T)."""
    if truncation_radius is None:
        truncation_radius = grid.box_length / 2.0
    key = ("coulomb_symbol", float(truncation_radius))
    if key not in grid._cache:
        grid._cache[key] = truncated_kernel_symbol(grid, truncation_radius)
    return CoulombKernel(grid, float(truncation_radius), grid._cache[key])


def _potential_values(
    density_fft: np.ndarray, kernel: CoulombKernel
) -> np.ndarray:
    """Phi from ``density_fft = rfftn(density)`` of a real density.

    The density and Phi are real, so both transforms run on the half
    spectrum kz >= 0, where the symbol is the leading slice of the full one.
    """
    half = kernel.symbol[..., : density_fft.shape[-1]]
    return _fft.irfftn(half * density_fft, s=kernel.grid.shape)


def _double_integral_from_density_fft(
    density_fft: np.ndarray, kernel: CoulombKernel
) -> float:
    """sum_k symbol(k) |rho_hat(k)|^2 from the half spectrum ``rfftn(density)``.

    Hermitian weights: each interior plane 0 < kz < n/2 also stands for its
    mirror image -kz; the kz = 0 and Nyquist planes appear once.
    """
    terms = kernel.symbol[..., : density_fft.shape[-1]] * (
        density_fft.real**2 + density_fft.imag**2
    )
    total = (
        2.0 * np.sum(terms[..., 1:-1]) + np.sum(terms[..., 0]) + np.sum(terms[..., -1])
    )
    return float(total * kernel.grid.fourier_weight)


def hartree_potential(u: Field, kernel: CoulombKernel | None = None) -> Field:
    """Coulomb potential Phi = (1/|x|) * |u|^2 of the density of ``u``.

    Aliasing from pointwise squaring and kernel-truncation error are the
    caller's responsibility (box-size rule of thumb: L at least 8 times the
    field's effective radius).
    """
    u.require_finite("hartree_potential input")
    if kernel is None:
        kernel = coulomb_kernel(u.grid)
    density_fft = _fft.rfftn(np.abs(u.values) ** 2)
    return Field(u.grid, _potential_values(density_fft, kernel))


def hartree_double_integral(u: Field, kernel: CoulombKernel | None = None) -> float:
    """The quartic Coulomb self-interaction D(u) = int Phi |u|^2 dx.

    Evaluated spectrally as sum_k symbol(k) |rho_hat(k)|^2; equal to the
    physical-space quadrature h^3 sum Phi |u|^2 up to rounding, and
    nonnegative because the symbol is.
    """
    u.require_finite("hartree_double_integral input")
    if kernel is None:
        kernel = coulomb_kernel(u.grid)
    density_fft = _fft.rfftn(np.abs(u.values) ** 2)
    return _double_integral_from_density_fft(density_fft, kernel)

"""Free-space Coulomb convolution on the periodic grid.

The kernel 1/|x| truncated at radius T has the closed-form spectral symbol
4 pi (1 - cos(T |k|)) / |k|^2 with limit value 2 pi T^2 at k = 0.  As long
as the density support has diameter at most T the periodic convolution with
this symbol reproduces the free-space convolution.  T = L/2 is fixed: each
grid holds one kernel, built on first use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
# perfbench/tracing.py replaces this alias by attribute on this module
from scipy import fft as _fft  # noqa: F401

from .fields import REDUCTION_BLOCK, blocked_sum, irfftn_consuming
from .grid import Grid


def _symbol(k_sq: np.ndarray, truncation_radius: float) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        symbol = 4.0 * np.pi * (1.0 - np.cos(truncation_radius * np.sqrt(k_sq))) / k_sq
    symbol[0, 0, 0] = 2.0 * np.pi * truncation_radius**2
    return symbol


@dataclass(frozen=True)
class CoulombKernel:
    """Truncated Coulomb kernel bound to one grid.

    ``half_symbol`` is the symbol on the half spectrum kz >= 0 (it drives
    Phi), ``double_integral_weight`` the same times the Hermitian plane
    weights (it drives D).  No full-spectrum symbol is kept.
    """

    grid: Grid
    truncation_radius: float
    half_symbol: np.ndarray = field(repr=False)
    double_integral_weight: np.ndarray = field(repr=False)


def coulomb_kernel(grid: Grid) -> CoulombKernel:
    """The kernel of ``grid``, T = L/2, built once per grid and kept in its
    cache (a grid and its kernel refer to each other, so a dropped grid is
    freed by the cycle collector)."""

    def build():
        T = grid.box_length / 2.0
        half = _symbol(grid.wave_sq(half=True), T)
        return CoulombKernel(grid, T, half, half * grid.hermitian_weight)

    return grid.cached("coulomb_kernel", build)


def _potential_values(
    density_fft: np.ndarray, kernel: CoulombKernel
) -> np.ndarray:
    """Phi from ``density_fft = rfftn(density)`` of a real density.

    The density and Phi are real, so both transforms run on the half
    spectrum kz >= 0; the inverse consumes the product
    ``half_symbol * density_fft`` (``fields.irfftn_consuming``), so
    ``density_fft`` is left as it was.
    """
    return irfftn_consuming(kernel.half_symbol * density_fft, kernel.grid.shape)


def _double_integral_from_density_fft(
    density_fft: np.ndarray, kernel: CoulombKernel
) -> float:
    """sum_k symbol(k) |rho_hat(k)|^2 from the half spectrum ``rfftn(density)``,
    with the Hermitian plane weights (see ``grid``).  The squared imaginary
    part of every block goes to one buffer of this call."""
    imag_sq = np.empty(min(density_fft.size, REDUCTION_BLOCK))

    def weighted_power(weight, z, out=None):
        power = np.square(z.real, out=out)
        power += np.square(z.imag, out=imag_sq[: z.size].reshape(z.shape))
        power *= weight
        return power

    return float(blocked_sum(weighted_power, kernel.double_integral_weight, density_fft))

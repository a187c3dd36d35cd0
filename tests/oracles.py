"""Independent oracles the test suite checks library paths against.

Nothing here may call back into the code paths under test: the kernel is
tabulated by explicit DFT matrix products (no FFT), the convolution is the
literal O(N^2) periodic double sum, and derivatives come from central
differences of plain energy evaluations.
"""

from __future__ import annotations

import numpy as np

from spslab import Field, Params, energy


def dft_matrix(n: int, box_length: float) -> np.ndarray:
    """W[d, m] = exp(i k_m d h): phases of displacement d h under the signed
    wavenumbers k_m in FFT storage order."""
    h = box_length / n
    x = h * np.arange(n)
    m = np.fft.fftfreq(n, d=1.0 / n)  # signed integer mode numbers
    k = 2.0 * np.pi * m / box_length
    return np.exp(1j * np.outer(x, k))


def kernel_table_slow(grid, symbol: np.ndarray) -> np.ndarray:
    """Displacement-indexed kernel kappa[d] = (1/L^3) sum_m symbol(k_m)
    e^{i k_m d h} built with explicit DFT matrices along each axis (no FFT);
    the index d is the periodic grid displacement of a point pair."""
    w = dft_matrix(grid.n, grid.box_length)
    out = np.tensordot(w, symbol.astype(np.complex128), axes=(1, 0))
    out = np.tensordot(w, out.transpose(1, 0, 2), axes=(1, 0)).transpose(1, 0, 2)
    out = np.tensordot(w, out.transpose(2, 0, 1), axes=(1, 0)).transpose(1, 2, 0)
    kappa = out / grid.box_length**3
    assert np.max(np.abs(kappa.imag)) < 1e-10 * (1 + np.max(np.abs(kappa.real)))
    return kappa.real


def direct_sum_potential(grid, density: np.ndarray, kappa: np.ndarray) -> np.ndarray:
    """Phi[j] = h^3 sum_l kappa[(j - l) mod n] density[l], brute force."""
    n = grid.n
    phi = np.empty((n, n, n))
    for j0 in range(n):
        for j1 in range(n):
            for j2 in range(n):
                shifted = np.roll(kappa, (j0, j1, j2), axis=(0, 1, 2))
                # kappa is even, so kappa[(l - j) mod n] = kappa[(j - l) mod n]
                phi[j0, j1, j2] = np.sum(shifted * density)
    return phi * grid.cell_volume


def direct_sum_double_integral(grid, density: np.ndarray, kappa: np.ndarray) -> float:
    phi = direct_sum_potential(grid, density, kappa)
    return float(np.sum(phi * density) * grid.cell_volume)


def directional_derivative_fd(
    u: Field,
    direction: Field,
    params: Params,
    eps: float = 1.0e-4,
) -> float:
    """Central difference (E(u + eps v) - E(u - eps v)) / (2 eps)."""
    plus = Field(u.grid, u.values + eps * direction.values)
    minus = Field(u.grid, u.values - eps * direction.values)
    e_plus = energy(plus, params).total
    e_minus = energy(minus, params).total
    return (e_plus - e_minus) / (2.0 * eps)


def smooth_random_field(grid, seed: int, k_cut_fraction: float = 0.3) -> Field:
    """Band-limited random field with decaying envelope; independent of the
    library's random_field so oracle tests do not share its construction."""
    rng = np.random.default_rng(seed)
    spectrum = np.zeros(grid.shape, dtype=np.complex128)
    k1 = grid.wavenumbers
    k_abs = np.sqrt(k1[:, None, None] ** 2 + k1[None, :, None] ** 2 + k1[None, None, :] ** 2)
    mask = k_abs <= k_cut_fraction * np.max(k_abs)
    count = int(np.sum(mask))
    spectrum[mask] = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    values = np.fft.ifftn(spectrum)
    envelope = np.exp(-grid.radius_sq() / (2.0 * (grid.box_length / 7.0) ** 2))
    return Field(grid, values * envelope)

"""Norms, kinetic operators, energies, and the L2 energy gradient.

The energy of a field u with couplings (alpha, beta, p) is

    E(u) = kinetic(u) + alpha D(u) - beta ||u||_p^p,

with kinetic(u) = 1/2 ||u||^2 in H^{1/2} (inhomogeneous variant, multiplier
sqrt(1 + |k|^2)) or in the homogeneous seminorm (multiplier |k|), and D the
Coulomb double integral.  Its unconstrained L2 gradient is

    grad E(u) = sqrt(1 - Lap) u + 4 alpha Phi u - beta p |u|^{p-2} u

(|D| u in the homogeneous variant), so that d/dt E(u + t v)|_0
= Re <grad E(u), v>.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import fft as _fft

from .coulomb import (
    CoulombKernel,
    _double_integral_from_density_fft,
    _potential_values,
    coulomb_kernel,
)
from .fields import Field
from .params import Params, check_variant


@dataclass(frozen=True)
class NormSet:
    """The five norms entering the energies and identities.

    ``l2_sq`` and ``lp_p`` are physical-space quadratures; the three Sobolev
    quantities are Plancherel sums with multipliers sqrt(1 + |k|^2)^{+-1}
    and |k|.
    """

    l2_sq: float
    lp_p: float
    h_half_sq: float
    hdot_half_sq: float
    h_minus_half_sq: float

    def to_dict(self) -> dict:
        return {
            "l2_sq": self.l2_sq,
            "lp_p": self.lp_p,
            "h_half_sq": self.h_half_sq,
            "hdot_half_sq": self.hdot_half_sq,
            "h_minus_half_sq": self.h_minus_half_sq,
        }


@dataclass(frozen=True)
class EnergyBreakdown:
    """The three energy terms plus the norms they were assembled from.

    ``hartree`` is alpha * ``d_value``; ``total`` is exactly
    kinetic + hartree - potential as computed.
    """

    kinetic: float
    hartree: float
    potential: float
    total: float
    norms: NormSet
    d_value: float

    def to_dict(self) -> dict:
        return {
            "kinetic": self.kinetic,
            "hartree": self.hartree,
            "potential": self.potential,
            "total": self.total,
            "d_value": self.d_value,
            "norms": self.norms.to_dict(),
        }


def _norm_set(
    grid, abs_u: np.ndarray, density: np.ndarray, p: float, spectrum_sq: np.ndarray
) -> NormSet:
    """The five norms from |u|, |u|^2 and the power spectrum |fftn(u)|^2."""
    w = grid.fourier_weight
    mult = grid.half_wave_multiplier
    return NormSet(
        l2_sq=float(np.sum(density) * grid.cell_volume),
        lp_p=float(np.sum(abs_u**p) * grid.cell_volume),
        h_half_sq=float(np.sum(mult * spectrum_sq) * w),
        hdot_half_sq=float(np.sum(grid.k_abs * spectrum_sq) * w),
        h_minus_half_sq=float(np.sum(spectrum_sq / mult) * w),
    )


def norms(u: Field, p: float) -> NormSet:
    """All five norms of ``u`` (``lp_p`` is ||u||_p^p for the given p)."""
    u.require_finite("norms input")
    abs_u = np.abs(u.values)
    f = _fft.fftn(u.values)
    return _norm_set(u.grid, abs_u, abs_u**2, p, f.real**2 + f.imag**2)


def apply_half_wave(u: Field) -> Field:
    """Apply sqrt(1 - Laplacian): Fourier multiplier sqrt(1 + |k|^2)."""
    u.require_finite("apply_half_wave input")
    f = _fft.fftn(u.values)
    return Field(u.grid, _fft.ifftn(u.grid.half_wave_multiplier * f))


def apply_homogeneous_half_wave(u: Field) -> Field:
    """Apply |D|: Fourier multiplier |k| (the homogeneous kinetic operator)."""
    u.require_finite("apply_homogeneous_half_wave input")
    f = _fft.fftn(u.values)
    return Field(u.grid, _fft.ifftn(u.grid.k_abs * f))


def power_term(values: np.ndarray, p: float) -> np.ndarray:
    """|u|^{p-2} u; continuous through u = 0 because p > 2."""
    return np.abs(values) ** (p - 2.0) * values


@dataclass
class Evaluation:
    """Energy (and optionally gradient) of one field, with the transforms
    every other quantity of that field is read from.

    ``u_fft`` is fftn(u), ``spectrum_sq`` its power spectrum |u_fft|^2 and
    ``density_fft`` the half spectrum rfftn(|u|^2) of the real density.
    """

    breakdown: EnergyBreakdown
    u_fft: np.ndarray
    spectrum_sq: np.ndarray
    density_fft: np.ndarray
    gradient: np.ndarray | None = None


def evaluate(
    u: Field,
    params: Params,
    variant: str = "inhomogeneous",
    kernel: CoulombKernel | None = None,
    with_gradient: bool = False,
) -> Evaluation:
    """Shared evaluation path: one forward transform of u and one of |u|^2
    serve the norms, the energy, and (optionally) the gradient."""
    check_variant(variant)
    grid = u.grid
    if kernel is None:
        kernel = coulomb_kernel(grid)
    v = u.values
    abs_u = np.abs(v)
    density = abs_u**2
    f = _fft.fftn(v)
    spectrum_sq = f.real**2 + f.imag**2
    ns = _norm_set(grid, abs_u, density, params.p, spectrum_sq)
    del abs_u
    density_fft = _fft.rfftn(density)
    del density
    d_value = _double_integral_from_density_fft(density_fft, kernel)

    kinetic = 0.5 * (ns.h_half_sq if variant == "inhomogeneous" else ns.hdot_half_sq)
    hartree = params.alpha * d_value
    potential = params.beta * ns.lp_p
    breakdown = EnergyBreakdown(
        kinetic=kinetic,
        hartree=hartree,
        potential=potential,
        total=kinetic + hartree - potential,
        norms=ns,
        d_value=d_value,
    )
    ev = Evaluation(breakdown, f, spectrum_sq, density_fft)
    if with_gradient:
        mult = grid.half_wave_multiplier if variant == "inhomogeneous" else grid.k_abs
        kinetic_part = _fft.ifftn(mult * f)
        potential_values = _potential_values(density_fft, kernel)
        grad = kinetic_part + (4.0 * params.alpha) * potential_values * v
        if params.beta != 0.0:
            grad = grad - (params.beta * params.p) * power_term(v, params.p)
        ev.gradient = grad
    return ev


def energy(
    u: Field,
    params: Params,
    variant: str = "inhomogeneous",
    kernel: CoulombKernel | None = None,
) -> EnergyBreakdown:
    """Energy breakdown of ``u``; only the kinetic term depends on the variant."""
    u.require_finite("energy input")
    return evaluate(u, params, variant, kernel=kernel).breakdown


def gradient(
    u: Field,
    params: Params,
    variant: str = "inhomogeneous",
    kernel: CoulombKernel | None = None,
) -> Field:
    """Unconstrained L2 gradient of the energy at ``u``."""
    u.require_finite("gradient input")
    ev = evaluate(u, params, variant, kernel=kernel, with_gradient=True)
    return Field(u.grid, ev.gradient)


def inner(a: Field, b: Field) -> complex:
    """Discrete L2 inner product <a, b> = h^3 sum a conj(b)."""
    return complex(np.sum(a.values * np.conj(b.values)) * a.grid.cell_volume)

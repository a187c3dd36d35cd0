"""Norms, kinetic operators, energies, and the L2 energy gradient.

The energy of a field u with couplings (alpha, beta, p) is

    E(u) = kinetic(u) + alpha D(u) - beta ||u||_p^p,

with kinetic(u) = 1/2 ||u||^2 in H^{1/2} (inhomogeneous variant, multiplier
sqrt(1 + |k|^2)) or in the homogeneous seminorm (multiplier |k|), and D the
Coulomb double integral.  Its unconstrained L2 gradient is

    grad E(u) = sqrt(1 - Lap) u + 4 alpha Phi u - beta p |u|^{p-2} u

(|D| u in the homogeneous variant), so that d/dt E(u + t v)|_0
= Re <grad E(u), v>.

A field is held as its real components (``Field.parts``): every term is
real-linear in u or depends on |u| only, so each component takes one
real-to-complex transform and the gradient one complex-to-real transform
per component.
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


def _spectra(parts: tuple[np.ndarray, ...]) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Half spectra ``rfftn`` of the components and their summed power
    spectrum, which is the half of |fftn(u)|^2 that the Hermitian weights
    complete."""
    parts_fft = tuple(_fft.rfftn(c) for c in parts)
    spectrum_sq = parts_fft[0].real ** 2
    spectrum_sq += parts_fft[0].imag ** 2
    for f in parts_fft[1:]:
        spectrum_sq += f.real**2
        spectrum_sq += f.imag**2
    return parts_fft, spectrum_sq


def _norm_set(grid, density: np.ndarray, lp_p: float, spectrum_sq: np.ndarray) -> NormSet:
    """The five norms from |u|^2, ||u||_p^p and the half power spectrum."""
    # pairwise sums (not BLAS dots): the flow's Armijo test compares
    # energies, and their rounding sets the smallest gradient it can reach
    h_half, hdot_half, h_minus_half = np.sum(
        grid.plancherel_weights * spectrum_sq.ravel(), axis=1
    )
    return NormSet(
        l2_sq=float(np.sum(density) * grid.cell_volume),
        lp_p=lp_p,
        h_half_sq=float(h_half),
        hdot_half_sq=float(hdot_half),
        h_minus_half_sq=float(h_minus_half),
    )


def norms(u: Field, p: float) -> NormSet:
    """All five norms of ``u`` (``lp_p`` is ||u||_p^p for the given p)."""
    u.require_finite("norms input")
    density = u.density()
    lp_p = float(np.sum(density ** (0.5 * p)) * u.grid.cell_volume)
    return _norm_set(u.grid, density, lp_p, _spectra(u.parts)[1])


def _apply_kinetic(u: Field, variant: str) -> Field:
    mult = u.grid.kinetic_symbol(variant)
    parts = tuple(_fft.irfftn(mult * _fft.rfftn(c), s=u.grid.shape) for c in u.parts)
    return Field.of_parts(u.grid, parts)


def apply_half_wave(u: Field) -> Field:
    """Apply sqrt(1 - Laplacian): Fourier multiplier sqrt(1 + |k|^2)."""
    u.require_finite("apply_half_wave input")
    return _apply_kinetic(u, "inhomogeneous")


def apply_homogeneous_half_wave(u: Field) -> Field:
    """Apply |D|: Fourier multiplier |k| (the homogeneous kinetic operator)."""
    u.require_finite("apply_homogeneous_half_wave input")
    return _apply_kinetic(u, "homogeneous")


@dataclass
class Evaluation:
    """Energy (and optionally gradient) of one field, with the transforms
    every other quantity of that field is read from.

    ``u`` is the field, ``parts_fft`` the half spectra ``rfftn`` of its
    real components, ``spectrum_sq`` the summed half power spectrum and
    ``density_fft`` the half spectrum ``rfftn(|u|^2)``.  ``gradient`` has
    one real array per component.
    """

    breakdown: EnergyBreakdown
    u: Field
    parts_fft: tuple[np.ndarray, ...]
    spectrum_sq: np.ndarray
    density_fft: np.ndarray
    gradient: tuple[np.ndarray, ...] | None = None


def evaluate(
    u: Field,
    params: Params,
    variant: str = "inhomogeneous",
    kernel: CoulombKernel | None = None,
    with_gradient: bool = False,
) -> Evaluation:
    """Shared evaluation path: one ``rfftn`` per real component of u and one
    of |u|^2 serve the norms, the energy, and (optionally) the gradient,
    which adds one ``irfftn`` per component and one for Phi."""
    check_variant(variant)
    grid = u.grid
    if kernel is None:
        kernel = coulomb_kernel(grid)
    density = u.density()
    # |u|^{p-2}: the Lp term is its pairing with the density
    power = density ** (0.5 * (params.p - 2.0))
    lp_p = float(np.sum(power * density) * grid.cell_volume)
    parts_fft, spectrum_sq = _spectra(u.parts)
    ns = _norm_set(grid, density, lp_p, spectrum_sq)
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
    ev = Evaluation(breakdown, u, parts_fft, spectrum_sq, density_fft)
    if with_gradient:
        # grad_j = K c_j + (4 alpha Phi - beta p |u|^{p-2}) c_j per component
        mult = grid.kinetic_symbol(variant)
        local = _potential_values(density_fft, kernel)
        local *= 4.0 * params.alpha
        if params.beta != 0.0:
            power *= params.beta * params.p
            local -= power
        del power
        gradient = []
        for c, f in zip(u.parts, parts_fft):
            g = _fft.irfftn(mult * f, s=grid.shape)
            g += local * c
            gradient.append(g)
        ev.gradient = tuple(gradient)
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
    return Field.of_parts(u.grid, ev.gradient)


def inner(a: Field, b: Field) -> complex:
    """Discrete L2 inner product <a, b> = h^3 sum a conj(b)."""
    return complex(np.sum(a.values * np.conj(b.values)) * a.grid.cell_volume)

"""Norms, energies, and the L2 energy gradient of a field.

The energy of a field u with couplings (alpha, beta, p) is

    E(u) = kinetic(u) + alpha D(u) - beta ||u||_p^p,

with kinetic(u) = 1/2 ||u||^2 in H^{1/2} (``params.variant``
"inhomogeneous", multiplier sqrt(1 + |k|^2)) or in the homogeneous seminorm
("homogeneous", multiplier |k|), and D the Coulomb double integral.  Its
unconstrained L2 gradient is

    grad E(u) = sqrt(1 - Lap) u + 4 alpha Phi u - beta p |u|^{p-2} u

(|D| u in the homogeneous variant), so that d/dt E(u + t v)|_0
= Re <grad E(u), v>.

A field is held as its real components (``Field.parts``): every term is
real-linear in u or depends on |u| only, so each component takes one
real-to-complex transform, and an evaluation's gradient one of its local
term per component, as half spectra; the residual |g - omega u| is a
Hermitian-weighted sum over them, and omega is read off the energy terms.
The grid form of the gradient is built on request (``gradient``, the
best-constant ascent).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
from scipy import fft as _fft

from .coulomb import _double_integral_from_density_fft, _potential_values, coulomb_kernel
from . import fields
from .fields import Field, blocked_sum, dot, irfftn_consuming, power_sum
from .params import P_CRITICAL, Params


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
        return asdict(self)


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
        return asdict(self)


def _norm_set(u: Field, lp_p: float, parts_fft: tuple[np.ndarray, ...]) -> NormSet:
    """The five norms of u from ||u||_p^p and the half spectra of its parts."""
    # pairwise sums (not BLAS dots): the flow's Armijo test compares
    # energies, and their rounding sets the smallest gradient it can reach
    h_half, hdot_half, h_minus_half = power_sum(u.grid.plancherel_weights, parts_fft)
    return NormSet(
        l2_sq=u.mass(),
        lp_p=lp_p,
        h_half_sq=float(h_half),
        hdot_half_sq=float(hdot_half),
        h_minus_half_sq=float(h_minus_half),
    )


@dataclass
class Evaluation:
    """Energy (and optionally gradient) of one field, with the transforms
    every other quantity of that field is read from.

    ``u`` is the field, ``parts_fft`` the half spectra ``rfftn`` of its
    real components and ``density_fft`` the half spectrum ``rfftn(|u|^2)``,
    which the gradient consumes: it is ``None`` once ``gradient_fft`` is
    built.  No power spectrum is kept; the norms form |f|^2 block by block
    inside their sums.  ``gradient_fft`` holds the half spectra of the
    gradient's components, or with ``with_gradient="grid"`` the components.
    """

    breakdown: EnergyBreakdown
    u: Field
    parts_fft: tuple[np.ndarray, ...]
    density_fft: np.ndarray | None
    gradient_fft: tuple[np.ndarray, ...] | None = None


def evaluate(
    u: Field,
    params: Params,
    *,
    with_gradient: bool | str = False,
    parts_fft: tuple[np.ndarray, ...] | None = None,
    density: np.ndarray | None = None,
) -> Evaluation:
    """Shared evaluation path: one ``rfftn`` per real component of u and one
    of |u|^2 serve the norms, the energy, and (optionally) the gradient.
    The kinetic term is the norm of ``params.variant``.

    ``with_gradient`` adds the gradient's half spectra (``gradient_fft``:
    one inverse for Phi and one ``rfftn`` per component), or with
    ``"grid"`` its grid components (one inverse each).  Every inverse is
    of a freshly built product, which ``fields.irfftn_consuming`` takes in
    place.  ``parts_fft``,
    the half spectra of u's components when the caller already holds them,
    replaces their transforms, and ``density``, the density |u|^2 when
    the caller has built it, its build; it is freed after its transform
    only once the caller has let go of it (see ``energy``).
    """
    grid = u.grid
    kernel = coulomb_kernel(grid)
    if density is None:
        density = u.density()
    # |u|^{p-2} pairs with the density in the Lp term; kept only for the
    # gradient, which is handed the one reference so that it can free it
    if with_gradient:
        powers = [_lp_power(density, params.p)]
        lp_sum = blocked_sum(np.multiply, powers[0], density)
    else:
        def lp_terms(d, out=None):
            power = _lp_power(d, params.p, out=out)
            power *= d
            return power

        lp_sum = blocked_sum(lp_terms, density)
    lp_p = float(lp_sum * grid.cell_volume)
    # every array is freed after its last read: the density once
    # transformed, before the parts are
    density_fft = _fft.rfftn(density)
    del density
    d_value = _double_integral_from_density_fft(density_fft, kernel)
    if parts_fft is None:
        parts_fft = tuple(_fft.rfftn(c) for c in u.parts)
    ns = _norm_set(u, lp_p, parts_fft)

    kinetic = 0.5 * (ns.h_half_sq if params.variant == "inhomogeneous" else ns.hdot_half_sq)
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
    ev = Evaluation(breakdown, u, parts_fft, density_fft)
    del density_fft  # the evaluation's is the one reference the gradient consumes
    if with_gradient:
        ev.gradient_fft = _gradient(ev, params, powers.pop(),
                                    spectral=with_gradient != "grid")
    return ev


def _lp_power(density: np.ndarray, p: float, out: np.ndarray | None = None) -> np.ndarray:
    """|u|^{p-2} from the density |u|^2: its cube root at p = 8/3, the
    critical exponent, and ``np.power`` otherwise."""
    if p == P_CRITICAL:
        return np.cbrt(density, out=out)
    return np.power(density, 0.5 * (p - 2.0), out=out)


def _gradient(ev: Evaluation, params: Params, power: np.ndarray,
              spectral: bool = False) -> tuple[np.ndarray, ...]:
    """L2 energy gradient at ``ev.u`` from its transforms, one real array per
    component (K c + local c), or with ``spectral`` their half spectra
    (K f + rfftn(local c)); ``power`` is |u|^{p-2}, and is overwritten.
    Phi is the inverse of ``half_symbol * ev.density_fft`` formed in place,
    so ``ev.density_fft`` is spent and set to ``None``; the grid form's
    kinetic terms K c are inverses of fresh products.  Both inverses are
    taken by ``fields.irfftn_consuming``."""
    u = ev.u
    # grad_j = K c_j + (4 alpha Phi - beta p |u|^{p-2}) c_j per component
    mult = u.grid.kinetic_symbol(params.variant)
    local = _potential_values(ev.density_fft, coulomb_kernel(u.grid))
    ev.density_fft = None
    local *= 4.0 * params.alpha
    if params.beta != 0.0:
        power *= params.beta * params.p
        local -= power
    # each product local * c_j goes into an array that is dead after it,
    # and is freed once read: ``power`` for Re u of a complex field, then
    # ``local`` itself
    outs = [power, local][2 - len(u.parts) :]
    del power
    gradient = []
    for c, f in zip(u.parts, ev.parts_fft):
        if spectral:
            g = _fft.rfftn(np.multiply(local, c, out=outs.pop(0)))
            _add_product(g, mult, f)
        else:
            g = irfftn_consuming(mult * f, u.grid.shape)
            g += np.multiply(local, c, out=outs.pop(0))
        gradient.append(g)
    return tuple(gradient)


def _add_product(g: np.ndarray, mult: np.ndarray, f: np.ndarray) -> None:
    """``g += mult * f`` on half spectra, a slab of planes of at most one
    reduction block at a time, so that no full-size product is built; the
    bits are those of the one-piece sum."""
    step = min(len(f), max(1, fields.REDUCTION_BLOCK // f[0].size))
    product = np.empty((step,) + f.shape[1:], dtype=f.dtype)
    for start in range(0, len(f), step):
        slab = slice(start, start + step)
        g[slab] += np.multiply(mult[slab], f[slab], out=product[: len(f[slab])])


def _spectral_weight(grid) -> np.ndarray:
    """The Hermitian weights on the float view of a half spectrum, each
    twice (real and imaginary part), cached per grid and reduction block:
    the full table when the view fits in one block, else the row of n + 2
    weights tiled over one block plus one row (see ``blocked_sum``)."""
    block = fields.REDUCTION_BLOCK

    def build():
        row = np.repeat(grid.hermitian_weight, 2)
        if grid.n**2 * row.size <= block:
            return np.broadcast_to(row, grid.shape[:2] + row.shape).copy()
        return np.resize(row, block + row.size)

    return grid.cached(("spectral_weight", block), build)


def _weighted_product(weight, a, b, out=None):
    out = np.multiply(weight, a, out=out)
    out *= b
    return out


def _spectral_dot(weight: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Re <a, b> of two real arrays given by their half spectra, with
    ``_spectral_weight``."""
    return float(blocked_sum(_weighted_product, weight, a.view(np.float64), b.view(np.float64)))


def _rayleigh_quotient(ev: Evaluation, p: float, mass: float | None = None) -> float:
    """omega = Re <grad E(u), u> / ||u||_2^2 of an evaluation at exponent
    ``p``, read off its breakdown: the kinetic term is homogeneous of degree
    2 in u, the Hartree term of degree 4 and the potential of degree p, so
    Re <grad E(u), u> = 2 kinetic + 4 hartree - p potential.  ``mass`` given
    (the flow's rho) replaces ||u||_2^2."""
    b = ev.breakdown
    return (2.0 * b.kinetic + 4.0 * b.hartree - p * b.potential) / (
        b.norms.l2_sq if mass is None else mass
    )


def _tangential_sq(ev: Evaluation, coeff: float) -> float:
    """||g - coeff u||^2 of a gradient evaluation, from the half spectra of
    g and u, summed block by block without building g - coeff u."""

    def residual_sq(w, g, f, out=None):
        out = np.multiply(f, -coeff, out=out)
        out += g
        out *= out
        out *= w
        return out

    weight = _spectral_weight(ev.u.grid)
    return float(sum(
        blocked_sum(residual_sq, weight, g.view(np.float64), f.view(np.float64))
        for g, f in zip(ev.gradient_fft, ev.parts_fft)
    ))


def norms(u: Field, p: float) -> NormSet:
    """All five norms of ``u`` (``lp_p`` is ||u||_p^p for the given p, which
    must lie in (2, 8/3]), read off one evaluation with zero couplings."""
    u.require_finite("norms input")
    return evaluate(u, Params(0.0, 0.0, p, 1.0)).breakdown.norms


def energy(u: Field, params: Params,
           density: list[np.ndarray] | None = None) -> EnergyBreakdown:
    """Energy breakdown of ``u``; only the kinetic term depends on the variant.
    ``density`` is a one-item list holding |u|^2 when the caller has built
    it: the evaluation takes it out of the list, so that it is freed after
    its transform."""
    u.require_finite("energy input")
    return evaluate(u, params, density=density.pop() if density else None).breakdown


def gradient(u: Field, params: Params) -> Field:
    """Unconstrained L2 gradient of the energy at ``u``."""
    u.require_finite("gradient input")
    return Field.of_parts(u.grid, evaluate(u, params, with_gradient="grid").gradient_fft)


def hartree_potential(u: Field) -> Field:
    """Coulomb potential Phi = (1/|x|) * |u|^2 of the density of ``u``.

    Aliasing from pointwise squaring and kernel-truncation error are the
    caller's responsibility (box-size rule of thumb: L at least 8 times the
    field's effective radius).
    """
    u.require_finite("hartree_potential input")
    density_fft = _fft.rfftn(u.density())
    return Field.of_parts(u.grid, (_potential_values(density_fft, coulomb_kernel(u.grid)),))


def hartree_double_integral(u: Field) -> float:
    """The quartic Coulomb self-interaction D(u) = int Phi |u|^2 dx.

    Evaluated spectrally as sum_k symbol(k) |rho_hat(k)|^2; equal to the
    physical-space quadrature h^3 sum Phi |u|^2 up to rounding, and
    nonnegative because the symbol is.
    """
    u.require_finite("hartree_double_integral input")
    density_fft = _fft.rfftn(u.density())
    return _double_integral_from_density_fft(density_fft, coulomb_kernel(u.grid))


def inner(a: Field, b: Field) -> complex:
    """Discrete L2 inner product <a, b> = h^3 sum a conj(b), summed on the
    parts: Re = a_r b_r + a_i b_i and Im = a_i b_r - a_r b_i."""
    h3 = a.grid.cell_volume
    imag = dot(a.parts[1:], b.parts[:1]) - dot(a.parts[:1], b.parts[1:])
    return complex(dot(a.parts, b.parts) * h3, imag * h3)

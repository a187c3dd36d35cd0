"""Stationarity identities evaluated as residuals at a candidate field.

Every constrained minimizer v of mass rho with multiplier omega satisfies

* the dilation identity
  1/2 ||v||^2_{H^{1/2}} - 1/2 ||v||^2_{H^{-1/2}} + alpha D(v)
  - beta (3p - 6)/2 ||v||_p^p = 0
  (stationarity under the mass-preserving rescale theta^{3/2} v(theta x));
* the Euler-Lagrange equation grad E(v) = omega v.

The virial residual  2 alpha D(v) - beta (p - 2) ||v||_p^p  is the
derivative of E(u)/||u||_2^2 under the amplitude scaling u -> theta u,
which leaves the mass sphere.  At a constrained minimizer it equals
omega rho - 2 E(v) = 2 rho^2 d/drho [I(rho)/rho], so it vanishes only at
stationary masses of the ratio curve I(rho)/rho, not at every minimizer.

Each residual is reported raw together with a positive magnitude scale so
tolerances are dimensionless.  The zero field reports residual 0, scale 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# perfbench/tracing.py replaces this alias by attribute on this module
from scipy import fft as _fft  # noqa: F401

from .coulomb import CoulombKernel
# perfbench/tracing.py wraps these two by attribute on this module
from .coulomb import coulomb_kernel, hartree_double_integral  # noqa: F401
from .energy import Evaluation, _spectra, evaluate
from .errors import DegenerateFieldError
from .fields import Field, dot
from .params import Params, check_variant


@dataclass(frozen=True)
class IdentityReport:
    """Machine-checkable certificate for one candidate field."""

    virial_residual: float
    virial_scale: float
    pohozaev_residual: float
    pohozaev_scale: float
    el_residual_rel: float
    f_prime_at_1: float
    g_prime_at_1: float

    @property
    def virial_rel(self) -> float:
        return abs(self.virial_residual) / self.virial_scale

    @property
    def pohozaev_rel(self) -> float:
        return abs(self.pohozaev_residual) / self.pohozaev_scale

    def to_dict(self) -> dict:
        return {
            "virial_residual": self.virial_residual,
            "virial_scale": self.virial_scale,
            "virial_rel": self.virial_rel,
            "pohozaev_residual": self.pohozaev_residual,
            "pohozaev_scale": self.pohozaev_scale,
            "pohozaev_rel": self.pohozaev_rel,
            "el_residual_rel": self.el_residual_rel,
            "f_prime_at_1": self.f_prime_at_1,
            "g_prime_at_1": self.g_prime_at_1,
        }


def _scale(*terms: float) -> float:
    s = max(abs(t) for t in terms)
    return s if s > 0 else 1.0


# each residual reads one evaluation, so a full report costs one ``evaluate``


def _virial(ev: Evaluation, params: Params) -> tuple[float, float]:
    coulomb_term = 2.0 * params.alpha * ev.breakdown.d_value
    power_term = params.beta * (params.p - 2.0) * ev.breakdown.norms.lp_p
    return coulomb_term - power_term, _scale(coulomb_term, power_term)


def _dilation_kinetic(grid, spectrum_sq: np.ndarray, variant: str) -> float:
    """From the summed half power spectrum of the components."""
    return 0.5 * float(np.sum(grid.dilation_weight(variant) * spectrum_sq))


def _pohozaev(ev: Evaluation, params: Params, variant: str) -> tuple[float, float]:
    kinetic_term = _dilation_kinetic(ev.u.grid, ev.spectrum_sq, variant)
    coulomb_term = params.alpha * ev.breakdown.d_value
    power_term = params.beta * (3.0 * params.p - 6.0) / 2.0 * ev.breakdown.norms.lp_p
    residual = kinetic_term + coulomb_term - power_term
    return residual, _scale(kinetic_term, coulomb_term, power_term)


def _omega(ev: Evaluation) -> float:
    """Rayleigh quotient Re<grad E(v), v> / ||v||_2^2 of a gradient evaluation."""
    overlap = dot(ev.gradient, ev.u.parts) * ev.u.grid.cell_volume
    return overlap / ev.breakdown.norms.l2_sq


def _el_rel(ev: Evaluation, omega: float) -> float:
    resid = tuple(g - omega * c for g, c in zip(ev.gradient, ev.u.parts))
    num = dot(resid, resid) * ev.u.grid.cell_volume
    return float(np.sqrt(num / ev.breakdown.norms.l2_sq))


def virial_residual(
    v: Field, params: Params, kernel: CoulombKernel | None = None
) -> tuple[float, float]:
    """(residual, scale) of 2 alpha D(v) - beta (p - 2) ||v||_p^p."""
    v.require_finite("virial_residual input")
    if v.is_zero():
        return 0.0, 1.0
    return _virial(evaluate(v, params, kernel=kernel), params)


def pohozaev_kinetic_term(v: Field, variant: str = "inhomogeneous") -> float:
    """Dilation derivative of the kinetic term.

    Inhomogeneous: 1/2 * (2 pi)^-3 int |k|^2 / sqrt(1 + |k|^2) |v_hat|^2 dk,
    which equals 1/2 (||v||^2_{H^{1/2}} - ||v||^2_{H^{-1/2}}) identically in
    exact arithmetic.  Homogeneous: 1/2 ||v||^2 in the homogeneous seminorm.
    """
    check_variant(variant)
    spectrum_sq = _spectra(v.parts)[1]
    return _dilation_kinetic(v.grid, spectrum_sq, variant)


def pohozaev_residual(
    v: Field,
    params: Params,
    variant: str = "inhomogeneous",
    kernel: CoulombKernel | None = None,
) -> tuple[float, float]:
    """(residual, scale) of the mass-preserving dilation identity."""
    v.require_finite("pohozaev_residual input")
    if v.is_zero():
        return 0.0, 1.0
    return _pohozaev(evaluate(v, params, variant, kernel), params, variant)


def el_residual(
    v: Field,
    params: Params,
    omega: float,
    variant: str = "inhomogeneous",
    kernel: CoulombKernel | None = None,
) -> float:
    """Relative L2 residual ||grad E(v) - omega v||_2 / ||v||_2."""
    v.require_finite("el_residual input")
    if v.is_zero():
        raise DegenerateFieldError("el_residual needs a nonzero field")
    return _el_rel(evaluate(v, params, variant, kernel, True), omega)


def lagrange_multiplier(
    v: Field,
    params: Params,
    variant: str = "inhomogeneous",
    kernel: CoulombKernel | None = None,
) -> float:
    """Rayleigh-quotient multiplier omega = Re<grad E(v), v> / ||v||_2^2."""
    v.require_finite("lagrange_multiplier input")
    if v.is_zero():
        raise DegenerateFieldError("lagrange_multiplier needs a nonzero field")
    return _omega(evaluate(v, params, variant, kernel, True))


def scaling_derivative_check(
    v: Field,
    params: Params,
    variant: str = "inhomogeneous",
    kernel: CoulombKernel | None = None,
) -> tuple[float, float]:
    """Analytic derivatives at theta = 1 of the two scaling families.

    ``f_prime_at_1``: derivative of E(theta v)/||theta v||_2^2, equal to the
    virial residual divided by the mass (same arithmetic).
    ``g_prime_at_1``: derivative of E(theta^{3/2} v(theta x)), equal to the
    dilation-identity residual.  Only ``g_prime_at_1`` vanishes at every
    constrained minimizer; ``f_prime_at_1`` equals
    2 rho d/drho [I(rho)/rho] there and vanishes only at stationary masses
    of the ratio curve.
    """
    v.require_finite("scaling_derivative_check input")
    if v.is_zero():
        raise DegenerateFieldError("scaling_derivative_check needs a nonzero field")
    ev = evaluate(v, params, variant, kernel)
    vres, _ = _virial(ev, params)
    pres, _ = _pohozaev(ev, params, variant)
    return vres / ev.breakdown.norms.l2_sq, pres


def identity_report(
    v: Field,
    params: Params,
    omega: float | None = None,
    variant: str = "inhomogeneous",
    kernel: CoulombKernel | None = None,
) -> IdentityReport:
    """Full report from one gradient evaluation of ``v``; extracts omega by
    Rayleigh quotient when not supplied."""
    v.require_finite("identity_report input")
    if v.is_zero():
        return IdentityReport(0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0)
    return _report(evaluate(v, params, variant, kernel, True), params, omega, variant)


def _report(
    ev: Evaluation, params: Params, omega: float | None, variant: str
) -> IdentityReport:
    """``identity_report`` of a nonzero field from its gradient evaluation ``ev``."""
    if omega is None:
        omega = _omega(ev)
    vres, vscale = _virial(ev, params)
    pres, pscale = _pohozaev(ev, params, variant)
    return IdentityReport(
        virial_residual=vres,
        virial_scale=vscale,
        pohozaev_residual=pres,
        pohozaev_scale=pscale,
        el_residual_rel=_el_rel(ev, omega),
        f_prime_at_1=vres / ev.breakdown.norms.l2_sq,
        g_prime_at_1=pres,
    )

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

``identity_report`` is the one read: every residual is arithmetic on one
gradient evaluation of the field (``energy.evaluate``).  Omega, the virial
and the dilation residual are read off its energy breakdown, the kinetic
dilation term as 1/2 ||v||^2_{H^{1/2}} - 1/2 ||v||^2_{H^{-1/2}} (1/2 the
homogeneous seminorm).  Only the Euler-Lagrange residual reads the half
spectra, in the sum shared with the flow's stop.
Each residual is reported raw together with a positive magnitude scale so
tolerances are dimensionless.  The zero field reports residual 0, scale 1.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
# perfbench/tracing.py replaces this alias by attribute on this module
from scipy import fft as _fft  # noqa: F401

from .energy import Evaluation, _rayleigh_quotient, _tangential_sq, evaluate
# perfbench/tracing.py wraps these two by attribute on this module
from .coulomb import coulomb_kernel  # noqa: F401
from .energy import hartree_double_integral  # noqa: F401
from .fields import Field
from .params import Params


@dataclass(frozen=True)
class IdentityReport:
    """Machine-checkable certificate for one candidate field.

    ``f_prime_at_1`` is the derivative at theta = 1 of E(theta v) /
    ||theta v||_2^2, the virial residual over the mass; ``g_prime_at_1``
    that of E(theta^{3/2} v(theta x)), the dilation residual.  Only
    ``g_prime_at_1`` vanishes at every constrained minimizer.
    """

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
        return {**asdict(self), "virial_rel": self.virial_rel, "pohozaev_rel": self.pohozaev_rel}


def _scale(*terms: float) -> float:
    s = max(abs(t) for t in terms)
    return s if s > 0 else 1.0


def identity_report(
    v: Field,
    params: Params,
    omega: float | None = None,
) -> IdentityReport:
    """Full report from one gradient evaluation of ``v``; extracts omega by
    Rayleigh quotient when not supplied."""
    v.require_finite("identity_report input")
    if v.is_zero():
        return IdentityReport(0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0)
    return _report(evaluate(v, params, with_gradient=True), params, omega)


def _report(ev: Evaluation, params: Params, omega: float | None) -> IdentityReport:
    """``identity_report`` of a nonzero field from its gradient evaluation
    ``ev``: omega, the virial and the dilation residual are arithmetic on its
    breakdown, and the Euler-Lagrange residual one sum over its half
    spectra."""
    d_value, ns = ev.breakdown.d_value, ev.breakdown.norms
    if omega is None:
        omega = _rayleigh_quotient(ev, params.p)

    # virial: 2 alpha D - beta (p - 2) ||v||_p^p
    v_coulomb = 2.0 * params.alpha * d_value
    v_power = params.beta * (params.p - 2.0) * ns.lp_p
    virial = v_coulomb - v_power

    # dilation: the kinetic term's derivative 1/2 sum |k|^2 / sqrt(1 + |k|^2)
    # |v_hat|^2 (|k| homogeneous) is a difference of two norms, since
    # sqrt(1 + |k|^2) - 1 / sqrt(1 + |k|^2) = |k|^2 / sqrt(1 + |k|^2)
    if params.variant == "inhomogeneous":
        kinetic = 0.5 * (ns.h_half_sq - ns.h_minus_half_sq)
    else:
        kinetic = 0.5 * ns.hdot_half_sq
    coulomb = params.alpha * d_value
    power = params.beta * (3.0 * params.p - 6.0) / 2.0 * ns.lp_p
    pohozaev = kinetic + coulomb - power

    el_sq = _tangential_sq(ev, omega)
    return IdentityReport(
        virial_residual=virial,
        virial_scale=_scale(v_coulomb, v_power),
        pohozaev_residual=pohozaev,
        pohozaev_scale=_scale(kinetic, coulomb, power),
        el_residual_rel=float(np.sqrt(el_sq / ns.l2_sq)),
        f_prime_at_1=virial / ns.l2_sq,
        g_prime_at_1=pohozaev,
    )

"""Blow-up and blow-down dilation experiments at the critical exponent.

Under the mass-preserving rescale phi_theta = theta^{3/2} phi(theta x) the
homogeneous energy scales exactly linearly, E_hom(phi_theta)
= theta * E_hom(phi).  Two regimes follow:

* blow-up (theta -> infinity): if E_hom(phi) < 0 the full energy
  E(phi_theta) = theta * E_hom(phi) + o(1) diverges to -infinity, with the
  o(1) term the shrinking gap between the two kinetic norms;
* blow-down (theta -> 0): for small mass E_hom stays positive and tends to
  0 while the homogeneous seminorm vanishes, an infimizing family with no
  nonzero limit.

Each experiment evaluates the rescaled family along a theta schedule,
resampling analytically when the base field has a known Gaussian profile
and by trilinear interpolation (``rescale.scale_mass_preserving``)
otherwise, and emits one table row per theta with the method recorded.
The base field is evaluated once: that evaluation gives the seed's
homogeneous energy and, when the schedule holds theta = 1, its row.
"""

from __future__ import annotations

import warnings
from dataclasses import astuple, dataclass

import numpy as np

from .energy import energy
from .errors import ConfigurationError, ResolutionWarning
from .fields import Field, GaussianProfile
from .params import P_CRITICAL, Params
from .rescale import scale_mass_preserving

# resolvability window for analytic Gaussian resampling: at least this many
# grid spacings per width, at most this fraction of the box per width
MIN_WIDTH_SPACINGS = 2.0
MAX_WIDTH_FRACTION = 1.0 / 6.0

TABLE_COLUMNS = (
    "theta",
    "energy",
    "energy_tilde",
    "hdot_half",
    "mass",
    "kinetic_gap",
    "method",
)


@dataclass(frozen=True)
class ScalingRow:
    """One theta of the schedule.

    ``kinetic_gap`` is half the difference between the inhomogeneous and
    homogeneous squared kinetic norms: the o(1) engine of the blow-up law.
    """

    theta: float
    energy: float
    energy_tilde: float
    hdot_half: float
    mass: float
    kinetic_gap: float
    method: str

    def to_list(self) -> list:
        return list(astuple(self))


@dataclass(frozen=True)
class ScalingExperimentResult:
    kind: str  # "blowup" | "blowdown"
    e_tilde_base: float
    proceeded: bool
    rows: tuple[ScalingRow, ...]
    truncated: bool
    skipped_thetas: tuple[float, ...]

    def to_document(self) -> dict:
        return {
            "kind": self.kind,
            "e_tilde_base": self.e_tilde_base,
            "proceeded": self.proceeded,
            "truncated": self.truncated,
            "skipped_thetas": list(self.skipped_thetas),
            "columns": list(TABLE_COLUMNS),
            "rows": [r.to_list() for r in self.rows],
        }


def _check_critical(params: Params) -> None:
    """The experiments' problem: p = 8/3 and the inhomogeneous norm, whose
    energy each row reads beside the homogeneous one."""
    if abs(params.p - P_CRITICAL) > 1.0e-12:
        raise ConfigurationError(
            f"scaling experiments require p = 8/3, got p = {params.p}"
        )
    if params.variant != "inhomogeneous":
        raise ConfigurationError(
            f"scaling experiments require the inhomogeneous variant, got {params.variant!r}"
        )


def _profile_resolvable(profile: GaussianProfile, grid, theta: float) -> bool:
    width = profile.width / theta
    return (
        width >= MIN_WIDTH_SPACINGS * grid.spacing
        and width <= MAX_WIDTH_FRACTION * grid.box_length
    )


def _rescaled_field(
    phi: Field, theta: float, profile: GaussianProfile | None
) -> tuple[Field | None, str]:
    """Rescaled field and the method used; (None, reason) when unresolvable."""
    grid = phi.grid
    if profile is not None:
        if not _profile_resolvable(profile, grid, theta):
            return None, "unresolvable"
        return profile.mass_preserving_rescaled(theta).sample(grid), "analytic"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResolutionWarning)
        rescaled = scale_mass_preserving(phi, theta)
    if any(issubclass(w.category, ResolutionWarning) for w in caught):
        return None, "unresolvable"
    return rescaled, "trilinear"


def _evaluate_row(field: Field, params: Params, theta: float, method: str) -> ScalingRow:
    breakdown = energy(field, params)
    ns = breakdown.norms
    e_tilde = 0.5 * ns.hdot_half_sq + breakdown.hartree - breakdown.potential
    return ScalingRow(
        theta=theta,
        energy=breakdown.total,
        energy_tilde=e_tilde,
        hdot_half=float(np.sqrt(ns.hdot_half_sq)),
        mass=ns.l2_sq,
        kinetic_gap=0.5 * (ns.h_half_sq - ns.hdot_half_sq),
        method=method,
    )


def _validated_thetas(thetas, increasing: bool) -> list[float]:
    thetas = [float(t) for t in thetas]
    if not thetas:
        raise ConfigurationError("theta schedule must be non-empty")
    if any(t <= 0 for t in thetas):
        raise ConfigurationError("theta values must be positive")
    ordered = sorted(thetas) if increasing else sorted(thetas, reverse=True)
    if thetas != ordered:
        kind = "increasing" if increasing else "decreasing"
        raise ConfigurationError(f"theta schedule must be {kind}, got {thetas}")
    return thetas


def _experiment(
    kind: str,
    phi: Field,
    params: Params,
    thetas,
    profile: GaussianProfile | None,
) -> ScalingExperimentResult:
    _check_critical(params)
    phi.require_finite(f"{kind}_experiment input")
    thetas = _validated_thetas(thetas, increasing=kind == "blowup")
    # both resampling paths return phi itself at theta = 1, so phi's row is
    # the theta = 1 row; its energy_tilde is the homogeneous energy
    base = _evaluate_row(phi, params, 1.0, "trilinear" if profile is None else "analytic")
    e_tilde = base.energy_tilde
    # blow-up needs a negative seed; a nonnegative one stops at the sign report
    proceeded = kind == "blowdown" or e_tilde < 0
    rows: list[ScalingRow] = []
    skipped: list[float] = []
    for theta in thetas if proceeded else ():
        if theta == 1.0 and (profile is None or _profile_resolvable(profile, phi.grid, theta)):
            rows.append(base)
            continue
        rescaled, method = _rescaled_field(phi, theta, profile)
        if rescaled is None:
            skipped.append(theta)
            warnings.warn(
                f"{kind}: theta = {theta} dropped, rescaled field exceeds the "
                "grid resolution or the box",
                ResolutionWarning,
                stacklevel=3,
            )
            continue
        rows.append(_evaluate_row(rescaled, params, theta, method))
    return ScalingExperimentResult(
        kind=kind,
        e_tilde_base=e_tilde,
        proceeded=proceeded,
        rows=tuple(rows),
        truncated=bool(skipped),
        skipped_thetas=tuple(skipped),
    )


def blowup_experiment(
    phi: Field,
    params: Params,
    thetas,
    profile: GaussianProfile | None = None,
) -> ScalingExperimentResult:
    """Follow theta -> infinity from a negative homogeneous-energy seed.

    When E_hom(phi) >= 0 the experiment reports the sign and stops: the
    divergence mechanism needs a negative seed.
    """
    return _experiment("blowup", phi, params, thetas, profile)


def blowdown_experiment(
    phi: Field,
    params: Params,
    thetas,
    profile: GaussianProfile | None = None,
) -> ScalingExperimentResult:
    """Follow theta -> 0: mass stays fixed while the homogeneous energy and
    seminorm shrink linearly, exhibiting the nonattainment mechanism."""
    return _experiment("blowdown", phi, params, thetas, profile)

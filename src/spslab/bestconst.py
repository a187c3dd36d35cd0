"""Lower bounds for the best constant of the L^{8/3} interpolation bound.

Every field phi gives the scale-invariant quotient

    Q(phi) = ||phi||_{8/3} / ( ||phi||_{hom H^{1/2}}^{1/2} * D(phi)^{1/8} ),

and sup Q equals the best constant S of the inequality.  Maximizing Q over
grid fields therefore yields certified lower bounds s_lower <= S; the other
direction is out of reach of this estimator by design.

The boundedness threshold compares (27 alpha / beta^3)^{1/8} against
sqrt(2) S: strictly below certifies that some mass makes the p = 8/3
infimum -infinity.  With only a lower bound for S in hand the classifier
can certify the unbounded side and must otherwise return indeterminate.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
from scipy import fft as _fft

from .energy import Evaluation, _gradient, evaluate
# perfbench/tracing.py wraps these two by attribute on this module
from .coulomb import coulomb_kernel  # noqa: F401
from .energy import hartree_double_integral  # noqa: F401
from .errors import (
    ConfigurationError,
    DegenerateFieldError,
    NumericalFailureError,
)
from .fields import (
    Field,
    _onto_sphere,
    boundary_mass_fraction,
    dot,
    gaussian_field,
    random_field,
)
from .grid import Grid
from .params import P_CRITICAL, Params

# Q reads ||phi||_{8/3}, the homogeneous seminorm and D off one
# homogeneous-variant evaluation; couplings and mass do not enter it
_QUOTIENT_PARAMS = Params(alpha=1.0, beta=1.0, p=P_CRITICAL, rho=1.0)


def _quotient(ev: Evaluation) -> float:
    ns = ev.breakdown.norms
    d_value = ev.breakdown.d_value
    if ns.hdot_half_sq <= 0 or d_value <= 0:
        raise DegenerateFieldError(
            "weinstein_quotient needs nonzero seminorm and Coulomb energy"
        )
    return float(ns.lp_p ** (3.0 / 8.0) / (ns.hdot_half_sq**0.25 * d_value**0.125))


def weinstein_quotient(phi: Field) -> float:
    """Q(phi); invariant under amplitude scaling and dilation."""
    phi.require_finite("weinstein_quotient input").require_nonzero("weinstein_quotient input")
    return _quotient(evaluate(phi, _QUOTIENT_PARAMS, "homogeneous"))


@dataclass(frozen=True)
class AscentConfig:
    """Budget and gauge choices of the quotient ascent."""

    steps: int = 200
    step_size: float = 0.5
    seed: int = 0
    init_kind: str = "gaussian"  # "gaussian" or "random"
    init_width: float | None = None

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ConfigurationError(f"ascent budget must be >= 1, got {self.steps}")
        if self.step_size <= 0:
            raise ConfigurationError(
                f"ascent step size must be positive, got {self.step_size}"
            )
        if self.init_kind not in ("gaussian", "random"):
            raise ConfigurationError(
                f"ascent init must be gaussian or random, got {self.init_kind!r}"
            )


@dataclass(frozen=True)
class BestConstantEstimate:
    """Certified lower bound with the trial field achieving it."""

    s_lower: float
    maximizer: Field
    ascent_trace: tuple[tuple[int, float], ...]
    grid_meta: dict

    def to_document(self, config: AscentConfig | None = None) -> dict:
        doc = {
            "s_lower": self.s_lower,
            "grid": self.grid_meta,
            "ascent_trace": [list(t) for t in self.ascent_trace],
        }
        if config is not None:
            doc["ascent_config"] = asdict(config)
        return doc


def _log_quotient_gradient(ev: Evaluation) -> tuple[np.ndarray, ...]:
    """L2 gradient of log Q at ``ev.u`` from its quotient evaluation, one real
    array per component.  log Q = 3/8 log ||phi||_{8/3}^{8/3} - 1/4 log hdot
    - 1/8 log D, so it is -grad E / (2 hdot) for the homogeneous energy at
    alpha = hdot / (4 D), beta = 3 hdot / (4 ||phi||_{8/3}^{8/3}), p = 8/3."""
    ns = ev.breakdown.norms
    hdot = ns.hdot_half_sq
    params = Params(hdot / (4.0 * ev.breakdown.d_value), 0.75 * hdot / ns.lp_p, P_CRITICAL, 1.0)
    gradient = _gradient(ev, params, "homogeneous")
    for g in gradient:
        g *= -0.5 / hdot
    return gradient


def _dilation_generator(
    phi: Field, parts_fft: tuple[np.ndarray, ...]
) -> tuple[np.ndarray, ...]:
    """Generator 3/2 phi + x . grad phi of the mass-preserving dilation,
    per component, from the half spectra ``parts_fft``."""
    grid = phi.grid
    k1 = grid.wavenumbers
    kz = k1[: grid.n // 2 + 1]
    x, y, z = np.meshgrid(grid.axis, grid.axis, grid.axis, indexing="ij", sparse=True)
    out = []
    for c, f in zip(phi.parts, parts_fft):
        g = 1.5 * c
        g += x * _fft.irfftn(1j * k1[:, None, None] * f, s=grid.shape)
        g += y * _fft.irfftn(1j * k1[None, :, None] * f, s=grid.shape)
        g += z * _fft.irfftn(1j * kz[None, None, :] * f, s=grid.shape)
        out.append(g)
    return tuple(out)


def _gauge_fixed_direction(
    phi: Field, raw: tuple[np.ndarray, ...], parts_fft: tuple[np.ndarray, ...]
) -> tuple[np.ndarray, ...]:
    """Remove the flat directions of Q from the ascent direction.

    On the continuum Q is invariant under amplitude scaling and dilation, so
    the true gradient has no component along phi or along the dilation
    generator; on a periodic box the broken dilation invariance plus the
    zero mode (constants have vanishing seminorm, making Q unbounded) give
    the raw gradient spurious components that drag iterates toward the flat
    degenerate family.  Projecting those directions out keeps the ascent on
    localized shapes, where the discrete quotient is a meaningful lower
    bound for the continuum constant.
    """
    direction = tuple(r - np.mean(r) for r in raw)  # no pumping of the uniform mode
    for flat in (phi.parts, _dilation_generator(phi, parts_fft)):
        overlap = dot(direction, flat)
        norm_sq = dot(flat, flat)
        if norm_sq > 0:
            direction = tuple(d - (overlap / norm_sq) * f for d, f in zip(direction, flat))
    return direction


def _is_localized(phi: Field) -> bool:
    """Boundary-shell mass small: the quotient of a box-filling field is a
    torus artifact and must not be certified."""
    return not phi.is_zero() and boundary_mass_fraction(phi) < 1.0e-4


def estimate_best_constant(grid: Grid, config: AscentConfig | None = None) -> BestConstantEstimate:
    """Gauge-fixed gradient ascent on log Q with unit-mass renormalization.

    A trial is accepted only when it raises Q and is localized (see
    ``_is_localized``), so every accepted iterate is certified: the trace
    holds the start (when localized) and each accepted quotient, the last
    one is the bound, and the bound can only improve with budget.  A
    non-finite quotient aborts with the trace attached.
    """
    if config is None:
        config = AscentConfig()
    width = config.init_width if config.init_width else grid.box_length / 10.0
    phi = gaussian_field(grid, width)
    if config.init_kind == "random":
        noise = random_field(grid, config.seed)
        scale = np.max(np.abs(noise.values)) or 1.0
        phi = Field(grid, phi.values * (1.0 + 0.3 * noise.values / scale))
    phi, _ = _onto_sphere(grid, phi.parts, 1.0)

    try:
        ev = evaluate(phi, _QUOTIENT_PARAMS, "homogeneous")
        q = _quotient(ev)
    except DegenerateFieldError as exc:
        raise NumericalFailureError(f"ascent init degenerate: {exc}", []) from exc
    if not np.isfinite(q):
        raise NumericalFailureError("non-finite quotient at ascent init", [])
    trace = [(0, q)] if _is_localized(phi) else []
    step = config.step_size
    direction = None
    for it in range(1, config.steps + 1):
        # built once per accepted phi, from the transforms of the evaluation
        # that accepted it, whose seminorm and D ``_quotient`` checked; unit
        # mass makes lp_p > 0
        if direction is None:
            direction = _gauge_fixed_direction(
                phi, _log_quotient_gradient(ev), ev.parts_fft
            )
        projected = _onto_sphere(
            grid, tuple(c + step * d for c, d in zip(phi.parts, direction)), 1.0
        )
        if projected is None:
            step *= 0.5
            continue
        trial, _ = projected
        try:
            trial_ev = evaluate(trial, _QUOTIENT_PARAMS, "homogeneous")
            trial_q = _quotient(trial_ev)
        except DegenerateFieldError:
            step *= 0.5
            continue
        if not np.isfinite(trial_q):
            raise NumericalFailureError(
                f"non-finite quotient at ascent step {it}", trace
            )
        if trial_q > q and _is_localized(trial):
            phi, q, ev, direction = trial, trial_q, trial_ev, None
            step = min(step * 1.25, 10.0 * config.step_size)
            trace.append((it, q))
        else:
            step *= 0.5
            if step < 1.0e-14:
                break
    if not trace:
        raise NumericalFailureError(
            "no localized iterate encountered; the bound cannot be certified",
            trace,
        )
    return BestConstantEstimate(
        s_lower=q,
        maximizer=phi,
        ascent_trace=tuple(trace),
        grid_meta=grid.describe(),
    )


@dataclass(frozen=True)
class ThresholdVerdict:
    """One-sided classification of (alpha, beta) against the threshold."""

    lhs: float
    rhs_lower: float
    verdict: str  # "unbounded_certified" | "indeterminate"


def classify_boundedness(
    alpha: float, beta: float, estimate: BestConstantEstimate | float
) -> ThresholdVerdict:
    """Compare (27 alpha / beta^3)^{1/8} with sqrt(2) * s_lower.

    Strictly below certifies the unbounded regime (s_lower underestimates
    S, so the true threshold is even further right).  Equality or above is
    indeterminate: a lower bound cannot certify boundedness.
    """
    if alpha <= 0 or beta <= 0:
        raise ConfigurationError(
            f"alpha and beta must be positive, got alpha={alpha}, beta={beta}"
        )
    s_lower = estimate.s_lower if isinstance(estimate, BestConstantEstimate) else float(estimate)
    lhs = (27.0 * alpha / beta**3) ** 0.125
    rhs_lower = np.sqrt(2.0) * s_lower
    verdict = "unbounded_certified" if lhs < rhs_lower else "indeterminate"
    return ThresholdVerdict(lhs=float(lhs), rhs_lower=float(rhs_lower), verdict=verdict)

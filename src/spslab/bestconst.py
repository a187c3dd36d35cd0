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
# perfbench/tracing.py replaces this alias by attribute on this module
from scipy import fft as _fft  # noqa: F401

from .energy import Evaluation, _gradient, _lp_power, evaluate
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
    blocked_sum,
    boundary_mass_fraction,
    gaussian_field,
    irfftn_consuming,
    random_field,
)
from .grid import Grid
from .params import P_CRITICAL, Params

# Q reads ||phi||_{8/3}, the homogeneous seminorm and D off one
# homogeneous-variant evaluation; couplings and mass do not enter it
_QUOTIENT_PARAMS = Params(alpha=1.0, beta=1.0, p=P_CRITICAL, rho=1.0, variant="homogeneous")


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
    return _quotient(evaluate(phi, _QUOTIENT_PARAMS))


@dataclass(frozen=True)
class AscentConfig:
    """Budget and gauge choices of the quotient ascent.  ``init_kind``
    "gaussian" starts from the centered Gaussian of width ``init_width``
    (L/10 when unset); "random" multiplies it by the modulus
    |1 + 0.3 noise / max|noise||, noise the ``random_field`` of the
    nonnegative ``seed``, so both starts are real."""

    steps: int = 200
    step_size: float = 0.5
    seed: int = 0
    init_kind: str = "gaussian"  # "gaussian" or "random"
    init_width: float | None = None

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ConfigurationError(f"ascent budget must be >= 1, got {self.steps}")
        if self.seed < 0:
            raise ConfigurationError(f"ascent seed must be >= 0, got {self.seed}")
        if self.step_size <= 0:
            raise ConfigurationError(
                f"ascent step size must be positive, got {self.step_size}"
            )
        if self.init_kind not in ("gaussian", "random"):
            raise ConfigurationError(
                f"ascent init must be gaussian or random, got {self.init_kind!r}"
            )
        if self.init_width is not None and self.init_width <= 0:
            raise ConfigurationError(
                f"init_width must be positive, got {self.init_width}"
            )


@dataclass(frozen=True)
class BestConstantEstimate:
    """Certified lower bound with the trial field achieving it."""

    s_lower: float
    maximizer: Field
    ascent_trace: tuple[tuple[int, float], ...]
    grid_meta: dict

    def to_document(self, config: AscentConfig) -> dict:
        return {
            "s_lower": self.s_lower,
            "grid": self.grid_meta,
            "ascent_trace": [list(t) for t in self.ascent_trace],
            "ascent_config": asdict(config),
        }


def _log_quotient_gradient(ev: Evaluation, density: np.ndarray) -> np.ndarray:
    """L2 gradient of log Q at the real field ``ev.u`` from its quotient
    evaluation.  log Q = 3/8 log ||phi||_{8/3}^{8/3} - 1/4 log hdot
    - 1/8 log D, so it is -grad E / (2 hdot) for the homogeneous energy at
    alpha = hdot / (4 D), beta = 3 hdot / (4 ||phi||_{8/3}^{8/3}), p = 8/3.
    ``density`` is phi^2, and is overwritten by the gradient's
    |phi|^{2/3}."""
    ns = ev.breakdown.norms
    hdot = ns.hdot_half_sq
    params = Params(hdot / (4.0 * ev.breakdown.d_value), 0.75 * hdot / ns.lp_p, P_CRITICAL, 1.0,
                    variant="homogeneous")
    (gradient,) = _gradient(ev, params, _lp_power(density, P_CRITICAL, out=density))
    gradient *= -0.5 / hdot
    return gradient


def _dilation_generator(phi: Field, f: np.ndarray) -> np.ndarray:
    """Generator 3/2 phi + x . grad phi of the mass-preserving dilation at
    the real field ``phi``, from its half spectrum ``f``.  Each derivative's
    spectrum i k_j f is built in one reused buffer, which its inverse
    (``fields.irfftn_consuming``) consumes, and is then multiplied by its
    coordinate in place."""
    grid = phi.grid
    k1 = grid.wavenumbers
    kz = k1[: grid.n // 2 + 1]
    coords = np.meshgrid(grid.axis, grid.axis, grid.axis, indexing="ij", sparse=True)
    symbols = (1j * k1[:, None, None], 1j * k1[None, :, None], 1j * kz[None, None, :])
    spectrum = np.empty_like(f)
    generator = 1.5 * phi.parts[0]
    for x, ik in zip(coords, symbols):
        derivative = irfftn_consuming(np.multiply(ik, f, out=spectrum), grid.shape)
        derivative *= x
        generator += derivative
    return generator


def _gauge_fixed_direction(phi: Field, direction: np.ndarray, f: np.ndarray) -> None:
    """Remove the flat directions of Q from the ascent direction, in place on
    the fresh gradient ``direction`` at the real field ``phi`` of half
    spectrum ``f``: its mean, then its components along phi and along the
    dilation generator.

    On the continuum Q is invariant under amplitude scaling and dilation, so
    the true gradient has no component along phi or along the dilation
    generator; on a periodic box the broken dilation invariance plus the
    zero mode (constants have vanishing seminorm, making Q unbounded) give
    the raw gradient spurious components that drag iterates toward the flat
    degenerate family.  Projecting those directions out keeps the ascent on
    localized shapes, where the discrete quotient is a meaningful lower
    bound for the continuum constant.
    """
    direction -= np.mean(direction)  # no pumping of the uniform mode
    for flat in (phi.parts[0], _dilation_generator(phi, f)):
        overlap = blocked_sum(np.multiply, direction, flat)
        norm_sq = blocked_sum(np.multiply, flat, flat)
        if norm_sq > 0:
            direction -= (overlap / norm_sq) * flat


def _is_localized(phi: Field, density: np.ndarray | None = None) -> bool:
    """Boundary-shell mass small: the quotient of a box-filling field is a
    torus artifact and must not be certified.  ``density`` is |phi|^2 when
    the caller holds it."""
    return not phi.is_zero() and boundary_mass_fraction(phi, density) < 1.0e-4


def estimate_best_constant(grid: Grid, config: AscentConfig | None = None) -> BestConstantEstimate:
    """Gauge-fixed gradient ascent on log Q with unit-mass renormalization.

    The ascent runs on one real component.  Q(|phi|) >= Q(phi), since
    ||phi||_{8/3} and D read |phi| only and the seminorm does not rise
    under phi -> |phi|, so a random start enters as its modulus; the
    gradient, the gauge projection and the retraction of a real field are
    real, and an accepted step costs two rfftn and five inverse transforms.
    The inverses (Phi, the kinetic term and the generator's three
    derivatives) are of freshly built products, which
    ``fields.irfftn_consuming`` takes in place, and the direction is built
    in place on the fresh gradient (``_gauge_fixed_direction``).

    A trial is accepted only when it raises Q and is localized (see
    ``_is_localized``), so every accepted iterate is certified: the trace
    holds the start (when localized) and each accepted quotient, the last
    one is the bound, and the bound can only improve with budget.  A
    non-finite quotient aborts with the trace attached.
    """
    if config is None:
        config = AscentConfig()
    width = grid.box_length / 10.0 if config.init_width is None else config.init_width
    (start,) = gaussian_field(grid, width).parts
    if config.init_kind == "random":
        # |gaussian (1 + 0.3 noise / scale)|, as the Gaussian is positive
        noise = random_field(grid, config.seed).values
        scale = np.max(np.abs(noise)) or 1.0
        start *= np.abs(1.0 + 0.3 * noise / scale)
    phi, _ = _onto_sphere(grid, (start,), 1.0)

    try:
        ev = evaluate(phi, _QUOTIENT_PARAMS)
        q = _quotient(ev)
    except DegenerateFieldError as exc:
        raise NumericalFailureError(f"ascent init degenerate: {exc}", []) from exc
    if not np.isfinite(q):
        raise NumericalFailureError("non-finite quotient at ascent init", [])
    # the accepted phi's density serves its localization test, then its
    # cube root serves the gradient
    density = phi.density()
    trace = [(0, q)] if _is_localized(phi, density) else []
    step = config.step_size
    direction = None
    for it in range(1, config.steps + 1):
        # built once per accepted phi, from the transforms of the evaluation
        # that accepted it, whose seminorm and D ``_quotient`` checked; unit
        # mass makes lp_p > 0
        if direction is None:
            # each array is freed once spent: the gauge projection is the
            # ascent's memory peak
            direction = _log_quotient_gradient(ev, density)
            density = None
            _gauge_fixed_direction(phi, direction, ev.parts_fft[0])
        projected = _onto_sphere(grid, (phi.parts[0] + step * direction,), 1.0)
        if projected is None:
            step *= 0.5
            continue
        trial, _ = projected
        try:
            trial_ev = evaluate(trial, _QUOTIENT_PARAMS)
            trial_q = _quotient(trial_ev)
        except DegenerateFieldError:
            step *= 0.5
            continue
        if not np.isfinite(trial_q):
            raise NumericalFailureError(
                f"non-finite quotient at ascent step {it}", trace
            )
        if trial_q > q:
            density = trial.density()
            if _is_localized(trial, density):
                phi, q, ev, direction = trial, trial_q, trial_ev, None
                step = min(step * 1.25, 10.0 * config.step_size)
                trace.append((it, q))
                continue
            density = None
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


def classify_boundedness(alpha: float, beta: float, s_lower: float) -> ThresholdVerdict:
    """Compare (27 alpha / beta^3)^{1/8} with sqrt(2) * s_lower.

    Strictly below certifies the unbounded regime (s_lower underestimates
    S, so the true threshold is even further right).  Equality or above is
    indeterminate: a lower bound cannot certify boundedness.
    """
    if alpha <= 0 or beta <= 0:
        raise ConfigurationError(
            f"alpha and beta must be positive, got alpha={alpha}, beta={beta}"
        )
    lhs = (27.0 * alpha / beta**3) ** 0.125
    rhs_lower = np.sqrt(2.0) * s_lower
    verdict = "unbounded_certified" if lhs < rhs_lower else "indeterminate"
    return ThresholdVerdict(lhs=float(lhs), rhs_lower=float(rhs_lower), verdict=verdict)

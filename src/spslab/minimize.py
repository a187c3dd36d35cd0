"""Constrained minimization over the mass sphere by projected gradient flow.

One step: form the tangential gradient g - (Re<g, u>/rho) u, move against
it, retract onto the sphere by mass projection, and accept the step under
an Armijo decrease test.  The accepted energy sequence is therefore
non-increasing by construction, and every iterate carries mass rho exactly
up to rounding.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .coulomb import coulomb_kernel
from .energy import EnergyBreakdown, evaluate
from .errors import (
    ConfigurationError,
    DegenerateFieldError,
    NumericalFailureError,
    UnboundedEnergyError,
)
from .fields import (
    Field,
    boundary_mass_fraction,
    dot,
    gaussian_field,
    load_snapshot,
    random_field,
)
from .grid import Grid
from .identities import IdentityReport, _report
# perfbench/tracing.py wraps this by attribute on this module
from .identities import identity_report  # noqa: F401
from .params import Params, check_variant

# line search gives up once the step underflows this value
MIN_STEP = 1.0e-18


@dataclass(frozen=True)
class MinimizeConfig:
    """Knobs of the normalized gradient flow.

    ``grad_tol`` is relative: the flow stops once the tangential gradient's
    L2 norm falls below grad_tol * sqrt(rho).  ``init_kind`` selects the
    starting field: a centered real Gaussian (default width L/8), a seeded
    smooth random field, or a snapshot file.  ``energy_floor`` converts an
    energy collapse into an ``UnboundedEnergyError`` instead of iterating
    toward -infinity.  ``recenter_every`` = 0 means recenter only at output.
    """

    max_iters: int = 5000
    grad_tol: float = 1.0e-8
    initial_step: float = 0.1
    backtrack_factor: float = 0.5
    armijo_c: float = 1.0e-4
    init_kind: str = "gaussian"
    init_width: float | None = None
    init_seed: int = 0
    init_path: str | None = None
    recenter_every: int = 0
    energy_floor: float = -1.0e6
    variant: str = "inhomogeneous"

    def __post_init__(self) -> None:
        if self.max_iters < 0:
            raise ConfigurationError(f"max_iters must be >= 0, got {self.max_iters}")
        if self.grad_tol <= 0:
            raise ConfigurationError(f"grad_tol must be positive, got {self.grad_tol}")
        if self.initial_step <= 0:
            raise ConfigurationError(
                f"initial_step must be positive, got {self.initial_step}"
            )
        if not 0.0 < self.backtrack_factor < 1.0:
            raise ConfigurationError(
                f"backtrack_factor must lie in (0, 1), got {self.backtrack_factor}"
            )
        if not 0.0 < self.armijo_c < 1.0:
            raise ConfigurationError(
                f"armijo_c must lie in (0, 1), got {self.armijo_c}"
            )
        if self.init_kind not in ("gaussian", "random", "from_file"):
            raise ConfigurationError(
                f"init_kind must be gaussian, random, or from_file, got {self.init_kind!r}"
            )
        if self.init_kind == "from_file" and not self.init_path:
            raise ConfigurationError("init_kind 'from_file' requires init_path")
        if self.init_width is not None and self.init_width <= 0:
            raise ConfigurationError(
                f"init_width must be positive, got {self.init_width}"
            )
        if self.recenter_every < 0:
            raise ConfigurationError(
                f"recenter_every must be >= 0, got {self.recenter_every}"
            )
        check_variant(self.variant)


@dataclass(frozen=True)
class TracePoint:
    iteration: int
    energy: float
    grad_norm: float

    def to_list(self) -> list:
        return [self.iteration, self.energy, self.grad_norm]


@dataclass(frozen=True)
class GroundStateResult:
    """Converged (or budget-exhausted) minimizer candidate with certificate."""

    field: Field
    energy: EnergyBreakdown
    omega: float
    residuals: IdentityReport
    iterations: int
    converged: bool
    trace: tuple[TracePoint, ...]
    stagnated: bool
    imag_mass_fraction: float
    variant: str

    def to_document(self, params: Params, config: MinimizeConfig) -> dict:
        return {
            "params": params.to_dict(),
            "config": asdict(config),
            "grid": self.field.grid.describe(),
            "variant": self.variant,
            "converged": self.converged,
            "stagnated": self.stagnated,
            "iterations": self.iterations,
            "omega": self.omega,
            "energy": self.energy.to_dict(),
            "residuals": self.residuals.to_dict(),
            "imag_mass_fraction": self.imag_mass_fraction,
            "boundary_mass_fraction": boundary_mass_fraction(self.field),
            "trace": [t.to_list() for t in self.trace],
        }


def project_mass(u: Field, rho: float) -> Field:
    """Scale ``u`` onto the mass sphere: sqrt(rho / ||u||_2^2) u."""
    if rho <= 0:
        raise ConfigurationError(f"rho must be positive, got {rho}")
    mass = u.mass()
    if mass == 0.0:
        raise DegenerateFieldError("cannot project the zero field onto the mass sphere")
    scale = np.sqrt(rho / mass)
    return Field.of_parts(u.grid, tuple(c * scale for c in u.parts))


def _centering_shifts(density: np.ndarray) -> tuple[int, ...]:
    """Circular shifts moving the density centroid to the box center.

    The centroid is computed in displacements unwrapped around the density
    maximum, so densities leaning across the periodic seam recenter
    correctly.
    """
    n = density.shape[0]
    jmax = np.unravel_index(int(np.argmax(density)), density.shape)
    total = float(np.sum(density))
    shifts = []
    for axis in range(3):
        idx = np.arange(n)
        disp = (idx - jmax[axis] + n // 2) % n - n // 2
        axis_mass = np.sum(density, axis=tuple(a for a in range(3) if a != axis))
        centroid = float(np.sum(axis_mass * disp)) / total + jmax[axis]
        shifts.append(int(np.round(n // 2 - centroid)))
    return tuple(shifts)


def recenter(u: Field) -> Field:
    """Circularly shift so the density centroid sits at the box center.

    Translations are exact isometries here: mass and every functional in
    this package are unchanged to rounding.
    """
    u.require_nonzero("recenter input")
    shifts = _centering_shifts(u.density())
    if not any(shifts):
        return u
    rolled = tuple(np.roll(c, shifts, axis=(0, 1, 2)) for c in u.parts)
    return Field.of_parts(u.grid, rolled)


def _initial_field(grid: Grid, params: Params, config: MinimizeConfig) -> Field:
    if config.init_kind == "gaussian":
        width = config.init_width if config.init_width else grid.box_length / 8.0
        start = gaussian_field(grid, width)
    elif config.init_kind == "random":
        start = random_field(grid, config.init_seed)
    else:
        start = load_snapshot(config.init_path).require_finite("initial snapshot")
        if start.grid != grid:
            raise ConfigurationError(
                "snapshot grid does not match the run grid: "
                f"{start.grid.describe()} vs {grid.describe()}"
            )
    return project_mass(start, params.rho)


def _best_global_phase(values: np.ndarray) -> tuple[np.ndarray, float]:
    """Rotate by the global phase maximizing the real part's mass; returns
    the rotated values and the remaining imaginary mass fraction."""
    a = values.real
    b = values.imag
    saa = float(np.sum(a * a))
    sbb = float(np.sum(b * b))
    sab = float(np.sum(a * b))
    if saa + sbb == 0.0:
        return values, 0.0
    theta = 0.5 * np.arctan2(-2.0 * sab, saa - sbb)
    candidates = [theta, theta + 0.5 * np.pi]
    best = None
    best_real = -np.inf
    for t in candidates:
        rotated = values * np.exp(1j * t)
        real_mass = float(np.sum(rotated.real**2))
        if real_mass > best_real:
            best_real = real_mass
            best = rotated
    imag_fraction = float(np.sum(best.imag**2) / (saa + sbb))
    return best, imag_fraction


def minimize(
    grid: Grid,
    params: Params,
    config: MinimizeConfig | None = None,
    initial: Field | None = None,
) -> GroundStateResult:
    """Run the normalized gradient flow for one starting point.

    ``initial`` overrides the configured starting field (used to warm-start
    mass sweeps from a neighboring minimizer); it is projected onto the
    sphere first.  The flow runs on the start's real components: one when
    its imaginary part is exactly zero, so a real start stays real.  Raises
    ``UnboundedEnergyError`` when the energy passes below
    ``config.energy_floor`` (the signature of an unbounded regime).  A line search that cannot find a decreasing step
    at machine precision sets the stagnation flag and returns with
    ``converged=False``; a non-finite trial energy (other than -inf) raises
    ``NumericalFailureError`` with the trace attached.
    """
    if config is None:
        config = MinimizeConfig()
    variant = config.variant
    kernel = coulomb_kernel(grid)
    rho = params.rho
    sqrt_rho = np.sqrt(rho)
    h3 = grid.cell_volume
    if initial is not None:
        if initial.grid != grid:
            raise ConfigurationError("initial field lives on a different grid")
        u = project_mass(initial.require_finite("initial field"), rho)
    else:
        u = _initial_field(grid, params, config)

    ev = evaluate(u, params, variant, kernel, True)
    trace: list[TracePoint] = []
    tau = config.initial_step
    converged = False
    stagnated = False
    iterations = 0

    for iteration in range(config.max_iters):
        grad = ev.gradient
        overlap = dot(grad, u.parts) * h3
        tangential = tuple(g - (overlap / rho) * c for g, c in zip(grad, u.parts))
        grad_norm = float(np.sqrt(dot(tangential, tangential) * h3))
        trace.append(TracePoint(iteration, ev.breakdown.total, grad_norm))
        if grad_norm <= config.grad_tol * sqrt_rho:
            converged = True
            iterations = iteration
            break

        # Armijo backtracking on E(project(u - tau * tangential)); the step
        # grows again each iteration so the stiff kinetic term cannot pin it.
        tau = min(2.0 * tau, config.initial_step)
        current = ev.breakdown.total
        accepted = False
        while tau >= MIN_STEP:
            trial_parts = tuple(c - tau * t for c, t in zip(u.parts, tangential))
            trial_mass = dot(trial_parts, trial_parts) * h3
            if trial_mass > 0:
                scale = np.sqrt(rho / trial_mass)
                for c in trial_parts:
                    c *= scale
                trial = Field.of_parts(grid, trial_parts)
                trial_ev = evaluate(trial, params, variant, kernel, True)
                trial_energy = trial_ev.breakdown.total
                if trial_energy == -np.inf:
                    raise UnboundedEnergyError(
                        "energy diverged to -inf during line search",
                        trace=[t.to_list() for t in trace],
                    )
                if not np.isfinite(trial_energy):
                    raise NumericalFailureError(
                        f"non-finite trial energy {trial_energy} at iteration "
                        f"{iteration}, step {tau:.3g}",
                        trace=[t.to_list() for t in trace],
                    )
                if trial_energy <= current - config.armijo_c * tau * grad_norm**2:
                    u = trial
                    ev = trial_ev
                    accepted = True
                    break
            tau *= config.backtrack_factor
        iterations = iteration + 1
        if not accepted:
            stagnated = True
            break
        if ev.breakdown.total < config.energy_floor:
            trace.append(
                TracePoint(iterations, ev.breakdown.total, float("nan"))
            )
            raise UnboundedEnergyError(
                f"energy {ev.breakdown.total:.6g} fell below the floor "
                f"{config.energy_floor:.6g}; unbounded regime detected",
                trace=[t.to_list() for t in trace],
            )
        if config.recenter_every and (iteration + 1) % config.recenter_every == 0:
            u = recenter(u)
            ev = evaluate(u, params, variant, kernel, True)
    else:
        iterations = config.max_iters

    # output normalization: translation then global phase, both exact
    # isometries of the energy; a real iterate needs no rotation.
    u = recenter(u)
    if len(u.parts) == 1:
        v, imag_fraction = u, 0.0
    else:
        rotated, imag_fraction = _best_global_phase(u.values)
        v = Field(grid, rotated)
    del u, ev

    final_ev = evaluate(v, params, variant, kernel, True)
    omega = dot(final_ev.gradient, final_ev.u.parts) * h3 / rho
    residuals = _report(final_ev, params, omega, variant)
    return GroundStateResult(
        field=v,
        energy=final_ev.breakdown,
        omega=omega,
        residuals=residuals,
        iterations=iterations,
        converged=converged,
        trace=tuple(trace),
        stagnated=stagnated,
        imag_mass_fraction=imag_fraction,
        variant=variant,
    )

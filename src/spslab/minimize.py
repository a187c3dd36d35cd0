"""Constrained minimization over the mass sphere by a kinetic-preconditioned
projected gradient flow.

One step: precondition the L2 gradient g with P = (K(k) + c)^-1, K the
kinetic symbol of ``params.variant``: P = K^-1, the Riesz map of the energy
space H^1/2, for the inhomogeneous K = sqrt(1 + |k|^2), and c = 1/2 for the
homogeneous K = |k|, which vanishes at k = 0.  Take the direction
d = P(g - beta u) with beta = <Pg, u>/<Pu, u>, so that d is tangent to the
sphere (Sobolev-gradient preconditioning, Danaila & Kazemi, SIAM J. Sci.
Comput. 2010).  Move against d, retract onto the sphere by mass
projection, and accept the step under an Armijo decrease test with slope
<g - beta u, d>.  P removes the stiffness of the kinetic operator, so
steps up to the variant's cap ``STEP_CAP[params.variant]`` are accepted at
every resolution.  The accepted energy sequence is non-increasing by
construction, every iterate carries mass rho exactly up to rounding, and
the stopping test reads the L2 norm of the tangential gradient
g - (Re<g, u>/rho) u.

The flow runs on one real array: a complex start enters as its modulus,
since E(|u|) <= E(u) (D and the L^p term read |u| only, and the kinetic
form does not rise under u -> |u|).  The iterate u is held with its half
spectrum f = rfftn(u), and the gradient as its half spectrum
K f + rfftn((4 alpha Phi - beta p |u|^{p-2}) u), so that beta, the slope
and the tangential norm are Hermitian-weighted half-spectrum sums;
Re<g, u> is read off the energy terms (``energy._rayleigh_quotient``).  A
trial s (u - tau d) has the half spectrum s (f - tau d^), d^ that of d, so
an iteration whose first trial is accepted costs four real transforms (the
direction's irfftn, then rfftn(|u|^2), Phi's irfftn and the local term's
rfftn).  The output evaluation transforms from the grid.  A trial that
Armijo accepts with the current energy and the current iterate's exact bits
is a floating-point fixed point: the flow stops there with ``stagnated``
set.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
from scipy import fft as _fft

from .energy import EnergyBreakdown, _rayleigh_quotient, _spectral_dot
from .energy import _tangential_sq, evaluate
from .errors import (
    ConfigurationError,
    DegenerateFieldError,
    NumericalFailureError,
    UnboundedEnergyError,
)
from .fields import (
    Field,
    GaussianProfile,
    _onto_sphere,
    boundary_mass_fraction,
    gaussian_field,
    load_snapshot,
    random_field,
)
from .grid import Grid
from .identities import IdentityReport, _report
# perfbench/tracing.py wraps these two by attribute on this module
from .coulomb import coulomb_kernel  # noqa: F401
from .identities import identity_report  # noqa: F401
from .params import Params

# line search gives up once the step underflows this value
MIN_STEP = 1.0e-18
# the textbook Armijo constant and backtracking factor (Nocedal & Wright,
# Numerical Optimization, section 3.1)
ARMIJO_C = 1.0e-4
BACKTRACK_FACTOR = 0.5
# shift c of the flow's preconditioner (K(k) + c)^-1 per variant: the
# inhomogeneous symbol sqrt(1 + |k|^2) is at least 1, so P is the H^1/2
# Riesz map K^-1; the homogeneous |k| needs c > 0 to bound P at k = 0
PRECONDITIONER_SHIFT = {"inhomogeneous": 0.0, "homogeneous": 0.5}
# step cap per variant: with the Riesz map the preconditioned kinetic
# Hessian is the identity, and a step of 2 is the largest that amplifies
# no mode; the shifted homogeneous P is not the Riesz map
STEP_CAP = {"inhomogeneous": 2.0, "homogeneous": 1.0}


@dataclass(frozen=True)
class MinimizeConfig:
    """Knobs of the kinetic-preconditioned gradient flow.

    ``grad_tol`` is relative: the flow stops once the tangential gradient's
    L2 norm, read on the half spectrum, falls below grad_tol * sqrt(rho).
    The step along the preconditioned direction is capped at
    ``STEP_CAP[params.variant]`` (2 for the inhomogeneous Riesz-map flow, 1
    for the homogeneous one): it starts at the cap, doubles after each
    accepted iteration up to the cap and is cut by ``BACKTRACK_FACTOR``
    until the Armijo test with constant ``ARMIJO_C`` holds.  The stopping
    test reads every iterate, the last allowed step's included, so a run
    that ends at ``max_iters`` has ``max_iters + 1`` trace points.  Below
    the flow's rounding floor a tolerance may not be reached:
    the flow then ends ``stagnated`` when no step passes the test or an
    accepted step leaves the iterate bitwise unchanged, and otherwise at
    ``max_iters``.  ``init_kind``
    selects the starting field: a centered real Gaussian (default width
    L/8), the modulus of the smooth random field of the nonnegative
    ``init_seed``, or a snapshot file (its modulus when it is complex).
    ``energy_floor`` converts an energy collapse into an
    ``UnboundedEnergyError`` instead of iterating toward -infinity.  The
    output is recentered once, after the flow.
    """

    max_iters: int = 5000
    grad_tol: float = 1.0e-8
    init_kind: str = "gaussian"
    init_width: float | None = None
    init_seed: int = 0
    init_path: str | None = None
    energy_floor: float = -1.0e6

    def __post_init__(self) -> None:
        if self.max_iters < 0:
            raise ConfigurationError(f"max_iters must be >= 0, got {self.max_iters}")
        if self.grad_tol <= 0:
            raise ConfigurationError(f"grad_tol must be positive, got {self.grad_tol}")
        if self.init_seed < 0:
            raise ConfigurationError(f"init_seed must be >= 0, got {self.init_seed}")
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


@dataclass(frozen=True)
class TracePoint:
    """One iterate of the flow.  ``grad_norm`` is None on the point that
    crossed the energy floor, whose gradient norm is never computed; JSON
    writes it as null."""

    iteration: int
    energy: float
    grad_norm: float | None

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

    def to_document(self, params: Params, config: MinimizeConfig) -> dict:
        return {
            "params": params.to_dict(),
            "config": asdict(config),
            "grid": self.field.grid.describe(),
            "converged": self.converged,
            "stagnated": self.stagnated,
            "iterations": self.iterations,
            "omega": self.omega,
            "energy": self.energy.to_dict(),
            "residuals": self.residuals.to_dict(),
            "boundary_mass_fraction": boundary_mass_fraction(self.field),
            "trace": [t.to_list() for t in self.trace],
        }


def project_mass(u: Field, rho: float) -> Field:
    """Scale ``u`` onto the mass sphere: sqrt(rho / ||u||_2^2) u."""
    if rho <= 0:
        raise ConfigurationError(f"rho must be positive, got {rho}")
    projected = _onto_sphere(u.grid, tuple(c.copy() for c in u.parts), rho)
    if projected is None:
        raise DegenerateFieldError("cannot project the zero field onto the mass sphere")
    return projected[0]


def _checked_start(initial: Field, grid: Grid) -> Field:
    """``initial`` as a start on ``grid``: it must lie on ``grid`` and be
    finite."""
    if initial.grid != grid:
        raise ConfigurationError(f"snapshot grid {initial.grid.describe()} does not match "
                                 f"the run grid {grid.describe()}")
    return initial.require_finite("snapshot")


def _start_field(grid: Grid, rho: float, kind: str, width: float | None = None, seed: int = 0,
                 initial: Field | None = None) -> tuple[Field, GaussianProfile | None]:
    """The starting field on the mass sphere ``rho``, with its Gaussian
    profile when it has one: the ``initial`` field when there is one, which
    the caller has passed through ``_checked_start``; else by ``kind`` the
    centered Gaussian of ``width`` (default L/8), which its profile samples
    bit for bit, or the random field of ``seed``."""
    if initial is not None:
        return project_mass(initial, rho), None
    if kind == "gaussian":
        width = grid.box_length / 8.0 if width is None else width
        # the centre sample is exactly 1, so the mass is positive
        start, scale = _onto_sphere(grid, gaussian_field(grid, width).parts, rho)
        return start, GaussianProfile(width=width, amplitude=scale)
    return project_mass(random_field(grid, seed), rho), None


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


def _flow_weights(grid: Grid, variant: str) -> tuple[np.ndarray, np.ndarray]:
    """The flow's preconditioner P = (K(k) + c)^-1 on the half spectrum, with
    the variant's ``PRECONDITIONER_SHIFT`` c: the Riesz map K^-1 of H^1/2 for
    the inhomogeneous variant and (|k| + 1/2)^-1 for the homogeneous one.
    Returned with P times the Hermitian plane weights, each entry twice on
    the float view of a half spectrum, so that <a, P b> is one
    ``_spectral_dot``; cached per grid."""

    def build():
        precond = 1.0 / (grid.kinetic_symbol(variant) + PRECONDITIONER_SHIFT[variant])
        return precond, np.repeat(precond * grid.hermitian_weight, 2, axis=-1)

    return grid.cached(("flow_preconditioner", variant), build)


def minimize(
    grid: Grid,
    params: Params,
    config: MinimizeConfig | None = None,
    initial: Field | None = None,
) -> GroundStateResult:
    """Run the preconditioned gradient flow for one starting point.

    ``initial`` overrides the configured starting field (used to warm-start
    mass sweeps from a neighboring minimizer); a ``from_file`` config loads
    its snapshot into it.  Either must lie on ``grid`` and be finite, and
    is projected onto the sphere first.  A complex start is then replaced
    by its modulus, projected again; a real start keeps its sign, so the
    flow runs on one real component.  Raises
    ``UnboundedEnergyError`` when the energy passes below
    ``config.energy_floor`` (the signature of an unbounded regime).  A line
    search that cannot find a decreasing step at machine precision, or
    whose accepted step leaves the iterate bitwise unchanged, sets the
    stagnation flag and returns with ``converged=False``; a non-finite
    trial energy (other than -inf) raises ``NumericalFailureError`` with the
    trace attached.
    """
    if config is None:
        config = MinimizeConfig()
    rho = params.rho
    sqrt_rho = np.sqrt(rho)
    if initial is None and config.init_kind == "from_file":
        initial = load_snapshot(config.init_path)
    if initial is not None:
        initial = _checked_start(initial, grid)
    u, _ = _start_field(grid, rho, config.init_kind, config.init_width, config.init_seed, initial)
    if len(u.parts) > 1:
        # E(|u|) <= E(u): the modulus, back on the sphere, is a real start
        u, _ = _onto_sphere(grid, (np.sqrt(u.density()),), rho)

    precond, precond_weight = _flow_weights(grid, params.variant)
    ev = evaluate(u, params, with_gradient=True)
    trace: list[TracePoint] = []
    tau = step_cap = STEP_CAP[params.variant]
    converged = False
    stagnated = False

    # the last turn only tests the iterate of the last allowed step
    for iteration in range(config.max_iters + 1):
        # the iterate is u with its half spectra f, the gradient its half
        # spectra g; the stopping test reads |g - (<g, u>/rho) u| on them,
        # with <g, u> from the energy terms
        grad_norm = float(np.sqrt(_tangential_sq(ev, _rayleigh_quotient(ev, params.p, rho))))
        trace.append(TracePoint(iteration, ev.breakdown.total, grad_norm))
        iterations = iteration
        if grad_norm <= config.grad_tol * sqrt_rho:
            converged = True
            break
        if iteration == config.max_iters:
            break

        # d = P(g - beta u) with <d, u> = 0: the residual r = g - beta u,
        # then the direction's half spectrum overwrites the gradient's
        (f,), (direction_fft,) = ev.parts_fft, ev.gradient_fft
        beta = _spectral_dot(precond_weight, direction_fft, f) / _spectral_dot(
            precond_weight, f, f
        )
        direction_fft -= beta * f
        slope = _spectral_dot(precond_weight, direction_fft, direction_fft)
        direction_fft *= precond
        direction = _fft.irfftn(direction_fft, s=grid.shape)

        # Armijo backtracking on E(project(u - tau * d)); the step grows
        # again each iteration up to the cap.
        tau = min(2.0 * tau, step_cap)
        current = ev.breakdown.total
        accepted = fixed_point = False
        while tau >= MIN_STEP:
            projected = _onto_sphere(grid, (u.parts[0] - tau * direction,), rho)
            if projected is not None:
                # the trial's half spectrum is the same combination s (f - tau d^)
                trial, scale = projected
                trial_f = np.multiply(direction_fft, -tau)
                trial_f += f
                trial_f *= scale
                trial_ev = evaluate(trial, params, with_gradient=True, parts_fft=(trial_f,))
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
                if trial_energy <= current - ARMIJO_C * tau * slope:
                    # a step that leaves the iterate bitwise unchanged is a
                    # floating-point fixed point: the flow cannot move on
                    fixed_point = trial_energy == current and np.array_equal(
                        trial.parts[0], u.parts[0]
                    )
                    u = trial
                    ev = trial_ev
                    accepted = True
                    break
            tau *= BACKTRACK_FACTOR
        if not accepted or fixed_point:
            # a failed line search took no step; a fixed point took one
            iterations = iteration + accepted
            stagnated = True
            break
        if ev.breakdown.total < config.energy_floor:
            trace.append(TracePoint(iteration + 1, ev.breakdown.total, None))
            raise UnboundedEnergyError(
                f"energy {ev.breakdown.total:.6g} fell below the floor "
                f"{config.energy_floor:.6g}; unbounded regime detected",
                trace=[t.to_list() for t in trace],
            )

    # output normalization: a translation, an exact isometry of the energy
    v = recenter(u)
    del u, ev

    # omega and the residuals are the ones ``identity_report`` reads off v
    final_ev = evaluate(v, params, with_gradient=True)
    omega = _rayleigh_quotient(final_ev, params.p)
    residuals = _report(final_ev, params, omega)
    return GroundStateResult(
        field=v,
        energy=final_ev.breakdown,
        omega=omega,
        residuals=residuals,
        iterations=iterations,
        converged=converged,
        trace=tuple(trace),
        stagnated=stagnated,
    )

"""Pseudo-spectral ground states of semi-relativistic
Schrodinger-Poisson-Slater energies on the mass sphere.

The package computes constrained minimizers of

    E(u) = 1/2 ||u||^2_{H^{1/2}} + alpha D(u) - beta ||u||_p^p,
    D(u) = int int |u(x)|^2 |u(y)|^2 / |x - y| dx dy,

over fields with prescribed L2 mass, certifies candidates against the
virial / dilation / Euler-Lagrange identities, estimates the best constant
of the associated interpolation inequality from below, and drives the
blow-up / blow-down scaling experiments of the critical exponent p = 8/3.
"""

from .bestconst import (
    AscentConfig,
    BestConstantEstimate,
    ThresholdVerdict,
    classify_boundedness,
    estimate_best_constant,
    weinstein_quotient,
)
from .coulomb import CoulombKernel, coulomb_kernel
from .energy import EnergyBreakdown, NormSet, energy, gradient, inner, norms
from .energy import hartree_double_integral, hartree_potential
from .errors import (
    ConfigurationError,
    DegenerateFieldError,
    NumericalFailureError,
    NumericalInputError,
    ResolutionWarning,
    SnapshotFormatError,
    SpsLabError,
    UnboundedEnergyError,
)
from .experiments import (
    ScalingExperimentResult,
    ScalingRow,
    blowdown_experiment,
    blowup_experiment,
)
from .fields import (
    Field,
    GaussianProfile,
    boundary_mass_fraction,
    constant_field,
    export_abs_slice,
    gaussian_field,
    load_snapshot,
    random_field,
    save_snapshot,
    zero_field,
)
from .grid import Grid, make_grid
from .identities import IdentityReport, identity_report
from .minimize import (
    GroundStateResult,
    MinimizeConfig,
    TracePoint,
    minimize,
    project_mass,
    recenter,
)
from .params import Params
from .rescale import scale_mass_preserving

__version__ = "0.1.0"

__all__ = [
    "AscentConfig",
    "BestConstantEstimate",
    "ConfigurationError",
    "CoulombKernel",
    "DegenerateFieldError",
    "EnergyBreakdown",
    "Field",
    "GaussianProfile",
    "Grid",
    "GroundStateResult",
    "IdentityReport",
    "MinimizeConfig",
    "NormSet",
    "NumericalFailureError",
    "NumericalInputError",
    "Params",
    "ResolutionWarning",
    "ScalingExperimentResult",
    "ScalingRow",
    "SnapshotFormatError",
    "SpsLabError",
    "ThresholdVerdict",
    "TracePoint",
    "UnboundedEnergyError",
    "blowdown_experiment",
    "blowup_experiment",
    "boundary_mass_fraction",
    "classify_boundedness",
    "constant_field",
    "coulomb_kernel",
    "energy",
    "estimate_best_constant",
    "export_abs_slice",
    "gaussian_field",
    "gradient",
    "hartree_double_integral",
    "hartree_potential",
    "identity_report",
    "inner",
    "load_snapshot",
    "make_grid",
    "minimize",
    "norms",
    "project_mass",
    "random_field",
    "recenter",
    "save_snapshot",
    "scale_mass_preserving",
    "weinstein_quotient",
    "zero_field",
]

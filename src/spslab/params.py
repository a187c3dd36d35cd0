"""Problem parameters selecting one constrained minimization problem."""

from __future__ import annotations

import typing
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from .errors import ConfigurationError

# the critical exponent: the largest p, and the p of the best-constant
# quotient and the scaling experiments
P_CRITICAL = 8.0 / 3.0

# kinetic-term variants: "inhomogeneous" uses sqrt(1 - Laplacian),
# "homogeneous" the multiplier |k|.
VARIANTS = ("inhomogeneous", "homogeneous")


@dataclass(frozen=True)
class Params:
    """Couplings, mass and kinetic norm (alpha, beta, p, rho, variant).

    The theory lives at alpha, beta > 0; zero couplings are accepted so the
    linear regime can be used as an exact diagnostic (the kinetic operator
    alone has known eigenpairs).  ``variant`` is one of ``VARIANTS``: the
    paper's inhomogeneous H^{1/2} norm, or the homogeneous seminorm of the
    p = 8/3 noncompactness problem.
    """

    alpha: float
    beta: float
    p: float
    rho: float
    variant: str = "inhomogeneous"

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "p", "rho"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
        if self.alpha < 0:
            raise ConfigurationError(f"alpha must be nonnegative, got {self.alpha}")
        if self.beta < 0:
            raise ConfigurationError(f"beta must be nonnegative, got {self.beta}")
        if not (2.0 < self.p <= P_CRITICAL + 1e-12):
            raise ConfigurationError(f"p must lie in (2, 8/3], got {self.p}")
        if self.rho <= 0:
            raise ConfigurationError(f"rho must be positive, got {self.rho}")
        if self.variant not in VARIANTS:
            raise ConfigurationError(
                f"variant must be one of {VARIANTS}, got {self.variant!r}"
            )

    def to_dict(self) -> dict:
        return asdict(self)


def _integral(value) -> int:
    if type(value) is float and value.is_integer():
        return int(value)
    if type(value) is not int:
        raise TypeError("expected an integer")
    return value


def _number(value) -> float:
    if type(value) not in (int, float):
        raise TypeError("expected a number")
    if not np.isfinite(value):
        raise ValueError("expected a finite number")
    return float(value)


# a bool or a string is never a number, NaN and Infinity (which JSON
# readers accept) are not numbers a config may give, and an int field takes
# only integral numbers; any other type takes only values of that JSON type
_CONVERTERS = {int: _integral, float: _number}


def read_value(value, kind: type, key: str):
    """``value`` as a ``kind``; anything else is a ``ConfigurationError``."""
    try:
        if kind in _CONVERTERS:
            return _CONVERTERS[kind](value)
        if type(value) is not kind:
            raise TypeError(f"expected a {kind.__name__}")
        return value
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad {key} {value!r}: {exc}") from exc


def read_list(values, kind: type, key: str) -> list:
    return [read_value(v, kind, key) for v in read_value(values, list, key)]


def read_block(cls, block, name: str, make=None, **fixed):
    """Build ``cls`` (through ``make`` when given) from the JSON object
    ``block``.

    Every key must be a public field of the dataclass ``cls``; each value is
    converted by the field's annotation (``X | None`` also takes null).
    ``fixed`` values override the block's and are taken as they are.
    """
    block = read_value(block, dict, name)
    hints = typing.get_type_hints(cls)
    public = [f for f in fields(cls) if not f.name.startswith("_")]
    unknown = set(block) - {f.name for f in public}
    if unknown:
        raise ConfigurationError(f"unknown {name} config keys: {sorted(unknown)}")
    values = {}
    for f in public:
        if f.name in fixed:
            continue
        if f.name in block:
            value = block[f.name]
            kinds = typing.get_args(hints[f.name]) or (hints[f.name],)  # X | None: (X, None)
            if value is not None or type(None) not in kinds:
                value = read_value(value, kinds[0], f"{name}.{f.name}")
            values[f.name] = value
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigurationError(f"{name} block is missing the key {f.name!r}")
    return (make or cls)(**values, **fixed)

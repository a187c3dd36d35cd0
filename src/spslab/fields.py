"""Fields on a grid: constructors, snapshot file format, exports.

Snapshot format (binary, little-endian): the 5-byte magic ``SPSF1``,
then n and L as IEEE-754 doubles, then n^3 complex doubles in row-major
order with the x index varying fastest.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    ConfigurationError,
    DegenerateFieldError,
    NumericalInputError,
    SnapshotFormatError,
)
from .grid import Grid, make_grid

SNAPSHOT_MAGIC = b"SPSF1"


@dataclass(frozen=True, init=False, eq=False)
class Field:
    """Samples u(x_j) on a grid, held as real components: ``parts`` is
    ``(Re u,)`` when the imaginary part is exactly zero and ``(Re u, Im u)``
    otherwise, each a C-contiguous float64 array.

    Every term of the energy is real-linear in u or depends on |u| only, so
    every operator acts on the parts one at a time; a real field costs one
    real array and real (r2c/c2r) transforms.  Treated as immutable:
    operations return new fields and never write into ``parts``.
    """

    grid: Grid
    parts: tuple[np.ndarray, ...]

    def __init__(self, grid: Grid, values: np.ndarray) -> None:
        """Split a real or complex array into its parts, copying it."""
        v = np.asarray(values)
        if v.shape != grid.shape:
            raise ConfigurationError(
                f"field shape {v.shape} does not match grid {grid.shape}"
            )
        parts = (np.array(v.real, dtype=np.float64, order="C"),)
        if np.iscomplexobj(v) and np.any(v.imag):
            parts += (np.array(v.imag, dtype=np.float64, order="C"),)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "parts", parts)

    @classmethod
    def of_parts(cls, grid: Grid, parts: tuple[np.ndarray, ...]) -> "Field":
        """The field with these components, which it takes without copying."""
        field = cls.__new__(cls)
        object.__setattr__(field, "grid", grid)
        object.__setattr__(field, "parts", tuple(parts))
        return field

    @cached_property
    def values(self) -> np.ndarray:
        """The complex samples, assembled from ``parts`` on first read.

        Read-only: a write would leave ``parts``, which every operator
        reads, unchanged.
        """
        values = np.empty(self.grid.shape, dtype=np.complex128)
        values.real = self.parts[0]
        values.imag = self.parts[1] if len(self.parts) > 1 else 0.0
        values.flags.writeable = False
        return values

    def require_finite(self, context: str = "field") -> "Field":
        if not all(np.all(np.isfinite(c)) for c in self.parts):
            raise NumericalInputError(f"{context} contains NaN or Inf")
        return self

    def require_nonzero(self, context: str = "field") -> "Field":
        if self.is_zero():
            raise DegenerateFieldError(f"{context} is identically zero")
        return self

    def density(self) -> np.ndarray:
        """|u|^2 at every grid point, the sum of the squared parts."""
        density = self.parts[0] ** 2
        for c in self.parts[1:]:
            density += c**2
        return density

    def mass(self) -> float:
        """Discrete L2 mass h^3 sum |u|^2."""
        return float(np.sum(self.density()) * self.grid.cell_volume)

    def is_zero(self) -> bool:
        return not any(np.any(c) for c in self.parts)


def dot(a: tuple[np.ndarray, ...], b: tuple[np.ndarray, ...]) -> float:
    """sum_j Re(a_j conj(b_j)) of two fields given by their components."""
    return float(sum(np.sum(x * y) for x, y in zip(a, b)))


def zero_field(grid: Grid) -> Field:
    return Field.of_parts(grid, (np.zeros(grid.shape),))


def boundary_mass_fraction(field: Field, shell_fraction: float = 0.1) -> float:
    """Fraction of |u|^2 in the outer shell of the box.

    Diagnostic for domain truncation: values near zero mean the periodic
    box holds the state; order-one values mean the field feels the box.
    """
    if not 0.0 < shell_fraction < 0.5:
        raise ConfigurationError(
            f"shell_fraction must lie in (0, 0.5), got {shell_fraction}"
        )
    n = field.grid.n
    shell = max(1, int(round(shell_fraction * n)))
    density = field.density()
    total = float(np.sum(density))
    if total == 0.0:
        return 0.0
    interior = density[shell:-shell, shell:-shell, shell:-shell]
    return (total - float(np.sum(interior))) / total


def constant_field(grid: Grid, value: complex) -> Field:
    return Field(grid, np.full(grid.shape, value, dtype=np.complex128))


@dataclass(frozen=True)
class GaussianProfile:
    """Closed-form Gaussian amplitude * exp(-|x - center|^2 / (2 width^2)).

    Scaling experiments resample rescaled fields analytically whenever the
    base field has a known profile, so the scaling laws are not polluted by
    interpolation error.
    """

    width: float
    amplitude: float = 1.0
    center: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ConfigurationError(f"gaussian width must be positive, got {self.width}")

    def sample(self, grid: Grid) -> Field:
        if self.center == (0.0, 0.0, 0.0):
            r_sq = grid.radius_sq()
        else:
            x, y, z = grid.meshgrid()
            cx, cy, cz = self.center
            r_sq = (x - cx) ** 2 + (y - cy) ** 2 + (z - cz) ** 2
        values = self.amplitude * np.exp(-r_sq / (2.0 * self.width**2))
        return Field.of_parts(grid, (values,))

    def mass_preserving_rescaled(self, theta: float) -> "GaussianProfile":
        """Profile of theta^{3/2} u(theta x): width / theta, amplitude * theta^{3/2}."""
        if theta <= 0:
            raise ConfigurationError(f"theta must be positive, got {theta}")
        cx, cy, cz = self.center
        return GaussianProfile(
            width=self.width / theta,
            amplitude=self.amplitude * theta**1.5,
            center=(cx / theta, cy / theta, cz / theta),
        )

    def dilated(self, theta: float) -> "GaussianProfile":
        """Profile of u(theta x): width / theta, amplitude unchanged."""
        if theta <= 0:
            raise ConfigurationError(f"theta must be positive, got {theta}")
        cx, cy, cz = self.center
        return GaussianProfile(
            width=self.width / theta,
            amplitude=self.amplitude,
            center=(cx / theta, cy / theta, cz / theta),
        )


def gaussian_field(
    grid: Grid,
    width: float,
    amplitude: float = 1.0,
    center: tuple[float, float, float] = (0.0, 0.0, 0.0),
) -> Field:
    return GaussianProfile(width=width, amplitude=amplitude, center=center).sample(grid)


def random_field(grid: Grid, seed: int, k_cut_fraction: float = 0.25) -> Field:
    """Smooth random complex field: white noise low-pass filtered at a
    fraction of the maximal wavenumber, then windowed by a broad Gaussian
    envelope so the density decays inside the box."""
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    k_max = np.max(grid.k_abs)
    mask = grid.k_abs <= k_cut_fraction * k_max
    smooth = np.fft.ifftn(np.fft.fftn(noise) * mask)
    envelope = np.exp(-grid.radius_sq() / (2.0 * (grid.box_length / 6.0) ** 2))
    return Field(grid, smooth * envelope)


def save_snapshot(field: Field, path: str | Path) -> None:
    """Write the binary snapshot: magic, n and L as doubles, then the
    complex samples with the x index varying fastest."""
    path = Path(path)
    header = np.array([float(field.grid.n), field.grid.box_length], dtype="<f8")
    # internal layout is values[ix, iy, iz]; the stream wants x fastest
    payload = np.ascontiguousarray(field.values.transpose(2, 1, 0)).astype("<c16")
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(header.tobytes())
        fh.write(payload.tobytes())
    tmp.replace(path)


def load_snapshot(path: str | Path) -> Field:
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise SnapshotFormatError(f"cannot read snapshot {path}: {exc}") from exc
    if len(raw) < len(SNAPSHOT_MAGIC) + 16:
        raise SnapshotFormatError(f"snapshot {path} is too short")
    if raw[: len(SNAPSHOT_MAGIC)] != SNAPSHOT_MAGIC:
        raise SnapshotFormatError(f"snapshot {path} has bad magic")
    header = np.frombuffer(raw, dtype="<f8", count=2, offset=len(SNAPSHOT_MAGIC))
    n_float, box_length = float(header[0]), float(header[1])
    if not math.isfinite(n_float) or not n_float.is_integer():
        raise SnapshotFormatError(f"snapshot {path} has non-integer grid size {n_float}")
    n = int(n_float)
    # the payload must match the header before the grid is built: a huge n
    # would otherwise allocate its grid first
    offset = len(SNAPSHOT_MAGIC) + 16
    payload = len(raw) - offset
    if payload != 16 * n**3:
        raise SnapshotFormatError(
            f"snapshot {path} holds {payload} payload bytes, grid size {n} "
            "needs 16 n^3"
        )
    try:
        grid = make_grid(n, box_length)
    except ConfigurationError as exc:
        raise SnapshotFormatError(f"snapshot {path} header invalid: {exc}") from exc
    data = np.frombuffer(raw, dtype="<c16", offset=offset)
    # one transpose pass to the internal layout, then the split into parts
    values = np.ascontiguousarray(data.reshape((n, n, n)).transpose(2, 1, 0))
    return Field(grid, values)


def export_abs_slice(
    field: Field, path: str | Path, axis: str = "z", index: int | None = None
) -> None:
    """Lossy text export: CSV of |u| on one axis-normal plane.

    Columns are the in-plane coordinates and |u|; intended for plotting,
    not for round-tripping fields.
    """
    axes = {"x": 0, "y": 1, "z": 2}
    if axis not in axes:
        raise ConfigurationError(f"slice axis must be one of x, y, z, got {axis!r}")
    ax = axes[axis]
    n = field.grid.n
    if index is None:
        index = n // 2
    if not 0 <= index < n:
        raise ConfigurationError(f"slice index {index} outside [0, {n})")
    plane = np.abs(np.take(field.values, index, axis=ax))
    others = [name for name in ("x", "y", "z") if name != axis]
    coords = field.grid.axis
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([others[0], others[1], "abs_u"])
        for i in range(n):
            for j in range(n):
                writer.writerow([f"{coords[i]:.17g}", f"{coords[j]:.17g}", f"{plane[i, j]:.17g}"])

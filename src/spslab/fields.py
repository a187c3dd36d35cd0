"""Fields on a grid: constructors, snapshot file format, exports.

Snapshot format (binary, little-endian): the 5-byte magic ``SPSF1``,
then n and L as IEEE-754 doubles, then n^3 complex doubles in row-major
order with the x index varying fastest.  The format is unchanged: a write
fills one buffer in file order, a read maps the file and copies it once.
"""

from __future__ import annotations

import math
import mmap
import struct
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
from .reporting import atomic_open

SNAPSHOT_MAGIC = b"SPSF1"
# ``boundary_mass_fraction`` reads the outer shell of this fraction of n
SHELL_FRACTION = 0.1
# ``random_field`` keeps wavenumbers up to this fraction of the largest
RANDOM_K_CUT = 0.25


def _complex(parts: tuple[np.ndarray, ...]) -> np.ndarray:
    """The complex array whose real (and imaginary) parts are ``parts``."""
    values = np.empty(parts[0].shape, dtype=np.complex128)
    values.real = parts[0]
    values.imag = parts[1] if len(parts) > 1 else 0.0
    return values


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
        values = _complex(self.parts)
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
        """Discrete L2 mass h^3 sum |u|^2, summed as ``dot(parts, parts)``."""
        return dot(self.parts, self.parts) * self.grid.cell_volume

    def is_zero(self) -> bool:
        return not any(np.any(c) for c in self.parts)


# reductions read their operands in blocks of this many elements, so each
# block's product is summed while it is still in cache
REDUCTION_BLOCK = 2**15


def blocked_sum(product, *operands):
    """Pairwise sum of the elementwise ``product(*operands)``.

    The operands are flattened, except a leading 2-D stack of weight rows
    over the flattened grid, which gives one sum per row.  An array of at
    most one block is summed in one piece, exactly as by ``np.sum``; beyond
    that ``product`` writes each block into a reused scratch buffer passed
    as ``out``, and the block sums are summed pairwise.
    """
    # np.add.reduce is np.sum's pairwise sum without its Python dispatch
    size = operands[-1].size
    if size <= REDUCTION_BLOCK:
        terms = product(*operands)
        return np.add.reduce(terms, axis=-1 if terms.ndim == 2 else None)
    views = [op if op.ndim == 2 else op.reshape(-1) for op in operands]
    rows = views[0].shape[:-1]
    scratch = np.empty(rows + (REDUCTION_BLOCK,))
    starts = range(0, size, REDUCTION_BLOCK)
    sums = np.empty(rows + (len(starts),))
    for i, start in enumerate(starts):
        block = slice(start, start + REDUCTION_BLOCK)
        out = scratch[..., : min(REDUCTION_BLOCK, size - start)]
        terms = product(*(v[..., block] for v in views), out=out)
        sums[..., i] = np.add.reduce(terms, axis=-1)
    return np.add.reduce(sums, axis=-1)


def dot(a: tuple[np.ndarray, ...], b: tuple[np.ndarray, ...]) -> float:
    """sum_j Re(a_j conj(b_j)) of two fields given by their components."""
    return float(sum(blocked_sum(np.multiply, x, y) for x, y in zip(a, b)))


def _onto_sphere(
    grid: Grid, parts: tuple[np.ndarray, ...], rho: float
) -> tuple[Field, float] | None:
    """The field of the freshly built ``parts``, scaled in place onto mass
    ``rho``, and the scale; None unless its mass ``dot(parts, parts) h^3``
    is positive and finite."""
    mass = dot(parts, parts) * grid.cell_volume
    if not 0.0 < mass < np.inf:
        return None
    scale = np.sqrt(rho / mass)
    for c in parts:
        c *= scale
    return Field.of_parts(grid, parts), scale


def zero_field(grid: Grid) -> Field:
    return Field.of_parts(grid, (np.zeros(grid.shape),))


def boundary_mass_fraction(field: Field) -> float:
    """Fraction of |u|^2 in the outer shell of the box (``SHELL_FRACTION``
    of n cells deep).

    Diagnostic for domain truncation: values near zero mean the periodic
    box holds the state; order-one values mean the field feels the box.
    """
    n = field.grid.n
    shell = max(1, int(round(SHELL_FRACTION * n)))
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
    """Closed-form centered Gaussian amplitude * exp(-|x|^2 / (2 width^2)).

    Scaling experiments resample rescaled fields analytically whenever the
    base field has a known profile, so the scaling laws are not polluted by
    interpolation error.
    """

    width: float
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ConfigurationError(f"gaussian width must be positive, got {self.width}")

    def sample(self, grid: Grid) -> Field:
        values = self.amplitude * np.exp(-grid.radius_sq() / (2.0 * self.width**2))
        return Field.of_parts(grid, (values,))

    def mass_preserving_rescaled(self, theta: float) -> "GaussianProfile":
        """Profile of theta^{3/2} u(theta x): width / theta, amplitude * theta^{3/2}."""
        if theta <= 0:
            raise ConfigurationError(f"theta must be positive, got {theta}")
        return GaussianProfile(width=self.width / theta, amplitude=self.amplitude * theta**1.5)

    def dilated(self, theta: float) -> "GaussianProfile":
        """Profile of u(theta x): width / theta, amplitude unchanged."""
        if theta <= 0:
            raise ConfigurationError(f"theta must be positive, got {theta}")
        return GaussianProfile(width=self.width / theta, amplitude=self.amplitude)


def gaussian_field(grid: Grid, width: float, amplitude: float = 1.0) -> Field:
    return GaussianProfile(width=width, amplitude=amplitude).sample(grid)


def random_field(grid: Grid, seed: int) -> Field:
    """Smooth random complex field: white noise low-pass filtered at
    ``RANDOM_K_CUT`` of the maximal wavenumber, then windowed by a broad
    Gaussian envelope so the density decays inside the box."""
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    k_abs = np.sqrt(grid.wave_sq())
    mask = k_abs <= RANDOM_K_CUT * np.max(k_abs)
    smooth = np.fft.ifftn(np.fft.fftn(noise) * mask)
    envelope = np.exp(-grid.radius_sq() / (2.0 * (grid.box_length / 6.0) ** 2))
    return Field(grid, smooth * envelope)


def save_snapshot(field: Field, path: str | Path) -> None:
    """Write the binary snapshot: magic, n and L as doubles, then the
    complex samples with the x index varying fastest."""
    header = np.array([float(field.grid.n), field.grid.box_length], dtype="<f8")
    # internal layout is parts[ix, iy, iz]; the stream wants x fastest, so
    # each part goes transposed into its plane of one (z, y, x, re/im) buffer
    payload = np.zeros(field.grid.shape + (2,), dtype="<f8")
    for k, c in enumerate(field.parts):
        payload[..., k] = c.T
    with atomic_open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(header.tobytes())
        fh.write(memoryview(payload).cast("B"))


def load_snapshot(path: str | Path) -> Field:
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            try:
                raw = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            except ValueError:  # mmap refuses an empty file
                raise SnapshotFormatError(f"snapshot {path} is too short") from None
    except OSError as exc:
        raise SnapshotFormatError(f"cannot read snapshot {path}: {exc}") from exc
    with raw:
        if len(raw) < len(SNAPSHOT_MAGIC) + 16:
            raise SnapshotFormatError(f"snapshot {path} is too short")
        if raw[: len(SNAPSHOT_MAGIC)] != SNAPSHOT_MAGIC:
            raise SnapshotFormatError(f"snapshot {path} has bad magic")
        n_float, box_length = struct.unpack_from("<2d", raw, len(SNAPSHOT_MAGIC))
        if not math.isfinite(n_float) or not n_float.is_integer():
            raise SnapshotFormatError(f"snapshot {path} has non-integer grid size {n_float}")
        n = int(n_float)
        # the payload must match the header before the grid is built: a huge
        # n would otherwise allocate its grid first
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
        data = np.frombuffer(raw, dtype="<c16", offset=offset).reshape((n, n, n)).T
        # one transpose pass to the internal layout: of the real plane alone
        # when the imaginary one is zero, else of the complex samples, whose
        # planes are then split off without a second scan
        if np.any(data.imag):
            values = np.ascontiguousarray(data)
            planes = (values.real, values.imag)
        else:
            planes = (data.real,)
        parts = tuple(np.array(c, dtype=np.float64, order="C") for c in planes)
        del data, planes  # the map closes only once no view of it is left
    return Field.of_parts(grid, parts)


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
    # the plane alone is assembled from the parts, never the whole field
    plane = np.abs(_complex(tuple(np.take(c, index, axis=ax) for c in field.parts)))
    others = [name for name in ("x", "y", "z") if name != axis]
    coords = [f"{c:.17g}" for c in field.grid.axis.tolist()]
    # one joined string per plane row, in csv.writer's dialect: no field
    # needs quoting, and every line ends in \r\n
    with atomic_open(path, "w", newline="") as fh:
        fh.write(f"{others[0]},{others[1]},abs_u\r\n")
        for x, row in zip(coords, plane.tolist()):
            fh.write("".join([f"{x},{y},{a:.17g}\r\n" for y, a in zip(coords, row)]))

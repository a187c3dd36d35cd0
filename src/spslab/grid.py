"""Periodic cubic grid and its Fourier-space metadata.

All operators in this package are diagonal in the discrete Fourier basis of
a periodic box [-L/2, L/2)^3 sampled at n points per axis.  The grid owns
the wavenumber lattice and the derived multiplier arrays so they are built
once per resolution, on first use.

Fields enter the transforms as their real components (``Field.parts``),
so the operators work on the ``rfftn`` half spectrum kz >= 0, of shape
(n, n, n/2 + 1).  A sum over the full spectrum of m(k) |fftn(c)(k)|^2 for a
real c and an even m is the half-spectrum sum with Hermitian weights: each
interior plane 0 < kz < n/2 also stands for its mirror -kz, and the kz = 0
and Nyquist planes appear once.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

# grids kept by ``make_grid``; a repeated (n, L) returns the kept grid and
# its cached spectral arrays
GRID_MEMO_SIZE = 4


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on a cube of side ``box_length``.

    Parameters
    ----------
    n : int
        Points per axis; must be a power of two, at least 8.
    box_length : float
        Physical side length L of the box.

    Derived attributes (set in ``__post_init__``):
    ``spacing`` (h = L/n), ``axis`` (1-D physical coordinates, cell-centered
    at -L/2 + j h) and ``wavenumbers`` (1-D angular wavenumbers
    (2 pi / L) * {-n/2, ..., n/2 - 1} in FFT storage order).  The
    half-spectrum multiplier and weight arrays the operators read are built
    on first use and cached; ``wave_sq`` builds |k|^2 uncached.  Equality
    and the hash read the (n, L) pair alone.
    """

    n: int
    box_length: float
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)) or isinstance(self.n, bool):
            raise ConfigurationError(f"grid size must be an integer, got {self.n!r}")
        if self.n < 8 or not _is_power_of_two(int(self.n)):
            raise ConfigurationError(
                f"grid size must be a power of two >= 8, got {self.n}"
            )
        if not np.isfinite(self.box_length) or self.box_length <= 0:
            raise ConfigurationError(
                f"box length must be positive and finite, got {self.box_length}"
            )
        n = int(self.n)
        L = float(self.box_length)
        h = L / n
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "box_length", L)
        object.__setattr__(self, "spacing", h)
        object.__setattr__(self, "axis", -L / 2 + h * np.arange(n))
        object.__setattr__(self, "wavenumbers", 2.0 * np.pi * np.fft.fftfreq(n, d=h))

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.n, self.n, self.n)

    @property
    def cell_volume(self) -> float:
        """Quadrature weight h^3 of the rectangle rule."""
        return self.spacing**3

    @property
    def fourier_weight(self) -> float:
        """Weight turning sum_k m(k) |fftn(u)|^2 into (2 pi)^-3 int m |u_hat|^2 dk."""
        return self.box_length**3 / self.n**6

    def cached(self, key, build):
        """``build()`` once per grid, kept under ``key``."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def wave_sq(self, half: bool = False) -> np.ndarray:
        """|k|^2 on the full spectrum, or on the half spectrum kz >= 0
        (uncached)."""
        k1 = self.wavenumbers
        kz = k1[: self.n // 2 + 1] if half else k1
        return k1[:, None, None] ** 2 + k1[None, :, None] ** 2 + kz[None, None, :] ** 2

    @property
    def hermitian_weight(self) -> np.ndarray:
        """Per-plane weight of the half spectrum, times ``fourier_weight``:
        2 on the interior planes, 1 on kz = 0 and on the Nyquist plane."""

        def build():
            w = np.full(self.n // 2 + 1, 2.0 * self.fourier_weight)
            w[0] = w[-1] = self.fourier_weight
            return w

        return self.cached("hermitian_weight", build)

    def kinetic_symbol(self, variant: str) -> np.ndarray:
        """Half-spectrum multiplier of the kinetic operator: sqrt(1 + |k|^2)
        (inhomogeneous) or |k| (homogeneous)."""
        shift = 1.0 if variant == "inhomogeneous" else 0.0
        return self.cached(
            ("kinetic_symbol", variant),
            lambda: np.sqrt(shift + self.wave_sq(half=True)),
        )

    @property
    def plancherel_weights(self) -> np.ndarray:
        """(3, N) weights over the flattened half spectrum: the row sums of
        their product with a summed power spectrum are the squared H^{1/2},
        homogeneous H^{1/2} and H^{-1/2} norms."""

        def build():
            k_sq = self.wave_sq(half=True)
            mult = np.sqrt(1.0 + k_sq)
            rows = np.stack([mult, np.sqrt(k_sq), 1.0 / mult])
            rows *= self.hermitian_weight
            return rows.reshape(3, -1)

        return self.cached("plancherel_weights", build)

    def dilation_weight(self, variant: str) -> np.ndarray:
        """Weighted half-spectrum multiplier of the kinetic term's dilation
        derivative: |k|^2 / sqrt(1 + |k|^2) (inhomogeneous) or |k|."""

        def build():
            k_sq = self.wave_sq(half=True)
            if variant == "inhomogeneous":
                mult = k_sq / np.sqrt(1.0 + k_sq)
            else:
                mult = np.sqrt(k_sq)
            mult *= self.hermitian_weight
            return mult

        return self.cached(("dilation_weight", variant), build)

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return np.meshgrid(self.axis, self.axis, self.axis, indexing="ij")

    def radius_sq(self) -> np.ndarray:
        """|x|^2 on the grid, cached (used by every Gaussian constructor)."""

        def build():
            x, y, z = self.meshgrid()
            return x**2 + y**2 + z**2

        return self.cached("radius_sq", build)

    def describe(self) -> dict:
        return {"n": self.n, "box_length": self.box_length, "spacing": self.spacing}


_grids: OrderedDict[tuple[int, float], Grid] = OrderedDict()


def make_grid(n: int, box_length: float) -> Grid:
    """Validated grid; rejects non-power-of-two n and nonpositive L.

    The last ``GRID_MEMO_SIZE`` distinct (n, L) pairs are kept, and a
    repeated pair returns the kept grid with the spectral arrays it has
    already built.
    """
    grid = Grid(n=n, box_length=box_length)
    key = (grid.n, grid.box_length)
    kept = _grids.get(key)
    if kept is not None:
        _grids.move_to_end(key)
        return kept
    _grids[key] = grid
    if len(_grids) > GRID_MEMO_SIZE:
        _grids.popitem(last=False)
    return grid

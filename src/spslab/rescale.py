"""Mass-preserving dilation of sampled fields by trilinear resampling.

The sample points theta * x_j of a dilation form a tensor product of one
1-D schedule per axis, so the trilinear interpolant is three 1-D linear
passes, one per axis, each reading the lower and upper neighbour of every
sample.  The passes run on the field's real components: a real field
interpolates one real array.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ConfigurationError, ResolutionWarning
from .fields import Components, Field

# relative mass drift beyond this flags the rescale as under-resolved;
# routine order-1 interpolation error on well-resolved fields sits below it
MASS_DRIFT_WARN = 1.0e-2


def _linear_pass(
    values: np.ndarray, lower: np.ndarray, weights: tuple[np.ndarray, np.ndarray], axis: int
) -> np.ndarray:
    """Linear interpolation of ``values`` along ``axis`` between the nodes
    ``lower`` and ``lower + 1``, with the weights of each node."""
    shape = [1, 1, 1]
    shape[axis] = -1
    out = np.take(values, lower, axis=axis)
    out *= weights[0].reshape(shape)
    upper = np.take(values, lower + 1, axis=axis)
    upper *= weights[1].reshape(shape)
    out += upper
    return out


def _trilinear(values: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Trilinear interpolant of the real cube ``values`` at the points
    (index[i], index[j], index[k]), in node units.

    ``index`` increases and has a point in [0, n - 1], so the points inside
    that span form one block; the rest read zero.  A point on the first or
    last node reads that node.  This is ``scipy.ndimage.map_coordinates``
    with ``order=1, mode="constant", cval=0`` on a tensor grid.
    """
    n = values.shape[0]
    inside = np.flatnonzero((index >= 0.0) & (index <= n - 1))
    block = (slice(inside[0], inside[-1] + 1),) * 3
    at = index[inside]
    # the last node is read as the upper end of the last interval
    lower = np.minimum(np.floor(at), n - 2).astype(np.intp)
    weights = (1.0 - (at - lower), at - lower)
    for axis in range(3):
        values = _linear_pass(values, lower, weights, axis)
    out = np.zeros((index.size,) * 3)
    out[block] = values
    return out


def scale_mass_preserving(u: Field, theta: float, warn: bool = True) -> Field:
    """Return theta^{3/2} u(theta x) resampled onto the same grid.

    Interpolation is trilinear on the grid nodes.  A sample point theta * x_j
    outside the span of the nodes reads as zero, and one on the first or
    last node reads that node.  The L2 mass is preserved up to interpolation
    error; a ``ResolutionWarning`` is issued when the drift exceeds
    ``MASS_DRIFT_WARN`` (compression past the grid scale or expansion past
    the box both show up this way).
    """
    u.require_finite("scale_mass_preserving input")
    if not np.isfinite(theta) or theta <= 0:
        raise ConfigurationError(f"theta must be positive, got {theta}")
    if theta == 1.0:
        return Field(u.grid, u.values.copy())
    grid = u.grid
    # fractional index of the sample point theta * x_j on the original grid;
    # it increases with j and is n/2 at x = 0
    index = (theta * grid.axis + grid.box_length / 2.0) / grid.spacing
    parts = tuple(_trilinear(c, index) for c in Components.of(u).parts)
    for part in parts:
        part *= theta**1.5
    result = Components(grid, parts).field()
    if warn:
        mass_in = u.mass()
        if mass_in > 0:
            drift = abs(result.mass() - mass_in) / mass_in
            if drift > MASS_DRIFT_WARN:
                warnings.warn(
                    f"mass drift {drift:.3e} after rescale by theta={theta}: "
                    "the rescaled field no longer fits the grid/box",
                    ResolutionWarning,
                    stacklevel=2,
                )
    return result

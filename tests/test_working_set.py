"""The evaluation path's working set: ``tracemalloc``'s peak during one
call, counted in real planes (n^3 float64), with every per-grid cache warm
and the caller's field allocated before the count starts.

Each array of an evaluation is freed after its last read: the density once
transformed, rho_hat once Phi is formed from it, |u|^{p-2} once its
product with Re u is transformed, and no power spectrum or full-size K f
product is ever built."""

import tracemalloc

import numpy as np
import pytest
import scipy.fft as fft

import spslab as sl
from spslab import coulomb, fields
from spslab.energy import _spectral_weight, evaluate
from spslab.minimize import _preconditioner
from oracles import smooth_random_field

PARAMS = sl.Params(1.0, 1.0, 2.5, 1.0)


@pytest.fixture(scope="module")
def fields64(grid64):
    u = smooth_random_field(grid64, 3)
    return {"complex": u, "real": sl.Field(grid64, u.values.real)}


def _traced_peak_planes(call, grid) -> float:
    call()  # builds every cached kernel, symbol and weight of the grid
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (grid.n**3 * 8)


@pytest.mark.parametrize(
    "call, kind, bound",
    [
        ("identity_report", "complex", 6.0),
        ("identity_report", "real", 4.6),
        ("evaluate", "complex", 4.2),
        ("evaluate", "real", 3.0),
    ],
)
def test_traced_peak_in_planes(fields64, grid64, call, kind, bound):
    # at 64^3, before the arrays were freed after their last read, these
    # read 8.77, 5.71, 4.61 and 3.58 planes
    u = fields64[kind]
    if call == "identity_report":
        run = lambda: sl.identity_report(u, PARAMS)  # noqa: E731
    else:
        run = lambda: evaluate(u, PARAMS)  # noqa: E731
    assert _traced_peak_planes(run, grid64) <= bound


@pytest.mark.parametrize("with_gradient", [True, "grid"])
def test_gradient_consumes_the_density_spectrum(fields64, with_gradient):
    ev = evaluate(fields64["complex"], PARAMS, with_gradient=with_gradient)
    assert ev.density_fft is None and ev.gradient_fft is not None
    assert not hasattr(ev, "spectrum_sq")


def test_potential_values_consume_their_argument(grid32):
    u = smooth_random_field(grid32, 5)
    kernel = sl.coulomb_kernel(grid32)
    density_fft = fft.rfftn(u.density())
    kept = density_fft.copy()
    phi = coulomb._potential_values(density_fft, kernel)
    assert not np.array_equal(density_fft, kept)  # spent by the inverse
    assert phi.tobytes() == fft.irfftn(kernel.half_symbol * kept, s=grid32.shape).tobytes()


@pytest.mark.parametrize("n", [64, 128])
def test_no_cached_array_repeats_the_plane_weights(n):
    # the Hermitian plane weights on the float view of a half spectrum are
    # cached as one row tiled over a block, not as an (n, n, n + 2) table;
    # the flow caches its preconditioner P alone, not P times them
    grid = sl.Grid(n, 24.0)
    sl.identity_report(sl.gaussian_field(grid, 1.0), PARAMS)
    sl.minimize(grid, PARAMS, sl.MinimizeConfig(max_iters=2))
    assert any(a is _preconditioner(grid, PARAMS.variant) for a in grid._cache.values())
    arrays = [a for a in grid._cache.values() if isinstance(a, np.ndarray)]
    assert all(a.shape != (n, n, n + 2) for a in arrays)
    weight = _spectral_weight(grid)
    assert any(a is weight for a in arrays)
    assert weight.size <= fields.REDUCTION_BLOCK + n + 2

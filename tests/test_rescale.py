"""Mass-preserving rescale: exactness at theta=1, mass drift, scaling laws."""

import warnings

import numpy as np
import pytest
from scipy.ndimage import map_coordinates

import spslab as sl
from conftest import relerr
from spslab.rescale import _trilinear


@pytest.fixture(scope="module")
def wide_gauss(grid64):
    return sl.gaussian_field(grid64, 1.5)


def test_identity_at_theta_one(grid32):
    u = sl.gaussian_field(grid32, 1.2, amplitude=0.7)
    out = sl.scale_mass_preserving(u, 1.0)
    assert np.array_equal(out.values, u.values)


# order-1 interpolation undershoots peaks by O((h/width)^2); at 64^3 with a
# width-1.5 Gaussian that is ~7e-3, so the drift bound reflects the scheme,
# not a looser contract
@pytest.mark.parametrize("theta", [0.5, 0.8, 1.25, 2.0])
def test_mass_preservation(wide_gauss, theta):
    out = sl.scale_mass_preserving(wide_gauss, theta)
    assert abs(out.mass() - wide_gauss.mass()) / wide_gauss.mass() < 1e-2


def test_mass_exact_when_samples_hit_nodes(wide_gauss):
    # theta = 2 maps every sample point onto a grid node: no interpolation
    out = sl.scale_mass_preserving(wide_gauss, 2.0)
    assert abs(out.mass() - wide_gauss.mass()) / wide_gauss.mass() < 1e-12


@pytest.mark.parametrize("theta,tol", [(0.5, 5e-2), (2.0, 1e-3)])
def test_homogeneous_energy_scaling(grid64, theta, tol):
    # at the critical exponent the homogeneous energy is linear in theta;
    # widening (theta < 1) pays both interpolation error and the coarse
    # k-quadrature of the |k| seminorm, narrowing with node-aligned theta
    # is nearly exact
    params = sl.Params(alpha=1.0, beta=1.0, p=8.0 / 3.0, rho=1.0, variant="homogeneous")
    u = sl.gaussian_field(grid64, 1.5)
    base = sl.energy(u, params).total
    out = sl.scale_mass_preserving(u, theta)
    scaled = sl.energy(out, params).total
    assert relerr(scaled, theta * base) < tol


def test_warns_when_leaving_box(grid32):
    u = sl.gaussian_field(grid32, 3.0)
    with pytest.warns(sl.ResolutionWarning):
        sl.scale_mass_preserving(u, 0.2)  # width 15 on a 16-box


def test_warns_below_resolution(grid32):
    u = sl.gaussian_field(grid32, 1.0)
    with pytest.warns(sl.ResolutionWarning):
        sl.scale_mass_preserving(u, 12.0)  # width < h/5


def test_no_warning_in_safe_range(grid64):
    u = sl.gaussian_field(grid64, 1.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sl.scale_mass_preserving(u, 1.5)


def _oracle(values, index):
    """scipy's order-1 constant-mode interpolant at the tensor points of
    ``index``, one real part at a time."""
    points = np.stack([g.ravel() for g in np.meshgrid(index, index, index, indexing="ij")])
    shape = (index.size,) * 3

    def interpolate(part):
        return map_coordinates(part, points, order=1, mode="constant", cval=0.0).reshape(shape)

    return interpolate(values.real) + 1j * interpolate(values.imag)


class TestSeparableOracle:
    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("complex_field", [False, True])
    @pytest.mark.parametrize("theta", [0.25, 0.5, 0.8, 1.3, 2.0, 3.0])
    def test_matches_map_coordinates(self, n, complex_field, theta):
        grid = sl.make_grid(n, 8.0)
        rng = np.random.default_rng([n, int(complex_field)])
        values = rng.standard_normal(grid.shape)
        if complex_field:
            values = values + 1j * rng.standard_normal(grid.shape)
        u = sl.Field(grid, values)
        with warnings.catch_warnings():
            # white noise drifts in mass; the warning is not under test here
            warnings.simplefilter("ignore", sl.ResolutionWarning)
            out = sl.scale_mass_preserving(u, theta)
        index = (theta * grid.axis + grid.box_length / 2.0) / grid.spacing
        expected = theta**1.5 * _oracle(u.values, index)
        assert np.max(np.abs(out.values - expected)) <= 1e-14 * np.max(np.abs(values))
        if not complex_field:
            assert np.all(out.values.imag == 0.0)

    @pytest.mark.parametrize("n", [16, 32])
    def test_edges_follow_constant_mode(self, n):
        # just outside either end reads zero, exactly on an end node reads it
        rng = np.random.default_rng(n)
        values = rng.standard_normal((n, n, n))
        index = np.array([-1e-12, 0.0, 0.5, n / 2 - 0.25, n - 1.5, n - 1.0, n - 1 + 1e-12])
        out = _trilinear(values, index)
        expected = _oracle(values, index).real
        assert np.max(np.abs(out - expected)) <= 1e-14 * np.max(np.abs(values))
        assert np.all(out[[0, -1], :, :] == 0.0)
        assert np.array_equal(out[1, 1, 1], values[0, 0, 0])
        assert np.array_equal(out[5, 5, 5], values[-1, -1, -1])
        assert np.array_equal(out[1, 5, 1], values[0, -1, 0])


def test_rejects_bad_theta(grid16):
    u = sl.gaussian_field(grid16, 1.0)
    with pytest.raises(sl.ConfigurationError):
        sl.scale_mass_preserving(u, 0.0)
    with pytest.raises(sl.ConfigurationError):
        sl.scale_mass_preserving(u, -1.0)


class TestGaussianProfile:
    def test_sample_matches_formula(self, grid16):
        prof = sl.GaussianProfile(width=1.0, amplitude=2.0)
        f = prof.sample(grid16)
        x, y, z = grid16.meshgrid()
        expected = 2.0 * np.exp(-(x**2 + y**2 + z**2) / 2.0)
        assert np.max(np.abs(f.values - expected)) < 1e-14

    def test_mass_preserving_rescale_keeps_mass(self, grid64):
        prof = sl.GaussianProfile(width=1.0, amplitude=0.5)
        m0 = prof.sample(grid64).mass()
        m2 = prof.mass_preserving_rescaled(2.0).sample(grid64).mass()
        assert relerr(m0, m2) < 1e-10

    def test_analytic_vs_trilinear_rescale(self, grid64):
        prof = sl.GaussianProfile(width=1.5)
        base = prof.sample(grid64)
        analytic = prof.mass_preserving_rescaled(1.5).sample(grid64)
        interp = sl.scale_mass_preserving(base, 1.5)
        err = np.max(np.abs(analytic.values - interp.values))
        assert err < 2e-2 * np.max(np.abs(analytic.values))

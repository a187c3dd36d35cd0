"""Energy assembly and the L2 gradient against finite differences."""

import importlib
from dataclasses import replace

import numpy as np
import pytest
from scipy import fft

import spslab as sl
from conftest import GAUSS_D, GAUSS_HDOT_SQ, GAUSS_LP_83, GAUSS_WIDTH, relerr
from oracles import directional_derivative_fd, smooth_random_field
from spslab.params import P_CRITICAL

energy_module = importlib.import_module("spslab.energy")


@pytest.fixture(scope="module")
def params():
    return sl.Params(alpha=1.0, beta=1.0, p=8.0 / 3.0, rho=0.1)


class TestEnergy:
    def test_zero_field(self, grid32, params):
        eb = sl.energy(sl.zero_field(grid32), params)
        assert eb.total == 0 and eb.kinetic == 0 and eb.hartree == 0 and eb.potential == 0

    def test_gaussian_homogeneous_value(self, gauss64, params):
        eb = sl.energy(gauss64, replace(params, variant="homogeneous"))
        expected = 0.5 * GAUSS_HDOT_SQ + GAUSS_D - GAUSS_LP_83
        assert relerr(eb.total, expected) < 1e-3

    def test_total_assembly_exact(self, grid32, params):
        u = smooth_random_field(grid32, 2)
        eb = sl.energy(u, params)
        assert eb.total == eb.kinetic + eb.hartree - eb.potential
        assert eb.hartree == params.alpha * eb.d_value

    def test_variant_changes_only_kinetic(self, grid32, params):
        u = smooth_random_field(grid32, 3)
        inhom = sl.energy(u, replace(params, variant="inhomogeneous"))
        hom = sl.energy(u, replace(params, variant="homogeneous"))
        assert inhom.hartree == hom.hartree
        assert inhom.potential == hom.potential
        assert inhom.kinetic == 0.5 * inhom.norms.h_half_sq
        assert hom.kinetic == 0.5 * hom.norms.hdot_half_sq

    def test_invalid_variant(self, params):
        with pytest.raises(sl.ConfigurationError):
            replace(params, variant="mixed")


class TestGradient:
    def test_zero_field(self, grid16, params):
        g = sl.gradient(sl.zero_field(grid16), params)
        assert np.max(np.abs(g.values)) == 0

    def test_linear_regime_is_half_wave(self, grid32):
        free = sl.Params(alpha=0.0, beta=0.0, p=2.5, rho=1.0)
        u = smooth_random_field(grid32, 4)
        g = sl.gradient(u, free)
        # sqrt(1 - Laplacian) u as a full-spectrum c2c multiplier
        hw = np.fft.ifftn(np.sqrt(1.0 + grid32.wave_sq()) * np.fft.fftn(u.values))
        assert np.max(np.abs(g.values - hw)) < 1e-12 * np.max(np.abs(hw))

    @pytest.mark.parametrize(
        "variant, complex_valued",
        [("inhomogeneous", False), ("homogeneous", False), ("homogeneous", True)],
        ids=["inhomogeneous", "homogeneous", "complex"],
    )
    def test_finite_difference_gaussian(self, grid64, params, variant, complex_valued):
        # the solvers run on real fields; the complex point checks the
        # gradient of the complex snapshots that ``energy`` and ``verify`` read
        if complex_valued:
            u = smooth_random_field(grid64, 8)
            assert len(u.parts) == 2
        else:
            u = sl.gaussian_field(grid64, GAUSS_WIDTH)
        params = replace(params, variant=variant)
        g = sl.gradient(u, params)
        rng = np.random.default_rng(0)
        for trial in range(10):
            direction = smooth_random_field(grid64, 1000 + trial)
            fd = directional_derivative_fd(u, direction, params, eps=1e-4)
            analytic = sl.inner(g, direction).real
            assert abs(fd - analytic) / abs(analytic) < 1e-5

    def test_finite_difference_p_52(self, grid32):
        params = sl.Params(alpha=0.7, beta=1.3, p=2.5, rho=0.1)
        u = sl.gaussian_field(grid32, 1.0, amplitude=0.8)
        g = sl.gradient(u, params)
        for trial in range(5):
            direction = smooth_random_field(grid32, 2000 + trial)
            fd = directional_derivative_fd(u, direction, params, eps=1e-4)
            analytic = sl.inner(g, direction).real
            assert abs(fd - analytic) / abs(analytic) < 1e-5

    def test_zero_safe_power(self, grid16):
        # field vanishing on half the box: |u|^{p-2} u must stay finite
        params = sl.Params(alpha=0.0, beta=1.0, p=2.5, rho=1.0)
        values = np.zeros(grid16.shape, dtype=np.complex128)
        values[: grid16.n // 2] = 1.0 + 0.5j
        g = sl.gradient(sl.Field(grid16, values), params)
        assert np.all(np.isfinite(g.values.real))
        assert np.all(np.isfinite(g.values.imag))


class TestLpPower:
    """|u|^{p-2} comes from one helper: a cube root at p = 8/3, where it
    moves the numbers by rounding only, and ``np.power`` elsewhere."""

    @staticmethod
    def _with_np_power(monkeypatch):
        def reference(density, p, out=None):
            return np.power(density, 0.5 * (p - 2.0), out=out)

        monkeypatch.setattr(energy_module, "_lp_power", reference)

    @staticmethod
    def _read(u, params):
        ev = energy_module.evaluate(u, replace(params, variant="homogeneous"), with_gradient=True)
        return ev.breakdown, sl.gradient(u, params).parts

    @pytest.mark.parametrize("n", [16, 64])
    def test_critical_exponent_matches_np_power(self, monkeypatch, n):
        grid = sl.make_grid(n, 16.0)
        u = smooth_random_field(grid, 5)
        params = sl.Params(alpha=0.5, beta=1.5, p=P_CRITICAL, rho=1.0)
        breakdown, grad = self._read(u, params)
        no_grad = energy_module.energy(u, params)
        self._with_np_power(monkeypatch)
        ref_breakdown, ref_grad = self._read(u, params)
        ref_no_grad = energy_module.energy(u, params)
        assert relerr(breakdown.norms.lp_p, ref_breakdown.norms.lp_p) < 1e-14
        assert relerr(no_grad.norms.lp_p, ref_no_grad.norms.lp_p) < 1e-14
        assert relerr(breakdown.total, ref_breakdown.total) < 1e-14
        assert relerr(no_grad.total, ref_no_grad.total) < 1e-14
        for g, ref in zip(grad, ref_grad):
            assert np.max(np.abs(g - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_other_exponents_bit_identical(self, monkeypatch, grid32, kind):
        u = smooth_random_field(grid32, 6)
        if kind == "real":
            u = sl.Field.of_parts(grid32, u.parts[:1])
        params = sl.Params(alpha=1.0, beta=1.0, p=2.5, rho=1.0)
        breakdown, grad = self._read(u, params)
        no_grad = energy_module.energy(u, params)
        self._with_np_power(monkeypatch)
        ref_breakdown, ref_grad = self._read(u, params)
        assert breakdown == ref_breakdown
        assert no_grad == energy_module.energy(u, params)
        assert all(np.array_equal(g, ref) for g, ref in zip(grad, ref_grad))

    def test_gradient_builds_density_and_power_once(self, monkeypatch, grid16):
        u = smooth_random_field(grid16, 7)
        params = sl.Params(alpha=1.0, beta=1.0, p=2.5, rho=1.0)
        calls = {"power": 0, "density": 0}
        power, density = energy_module._lp_power, sl.Field.density

        def counted_power(*args, **kwargs):
            calls["power"] += 1
            return power(*args, **kwargs)

        def counted_density(self):
            calls["density"] += 1
            return density(self)

        monkeypatch.setattr(energy_module, "_lp_power", counted_power)
        monkeypatch.setattr(sl.Field, "density", counted_density)
        grad = sl.gradient(u, params)
        assert calls == {"power": 1, "density": 1}
        # and the grid gradient is the half spectra's, transformed back
        spectral = energy_module.evaluate(u, params, with_gradient=True).gradient_fft
        for g, g_hat in zip(grad.parts, spectral):
            assert np.allclose(g, fft.irfftn(g_hat, s=grid16.shape), rtol=0, atol=1e-13)

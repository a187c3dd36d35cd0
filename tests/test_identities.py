"""Identity residuals: zero conventions, algebraic equivalences, FD checks."""

import importlib
from collections import Counter

import numpy as np
import pytest
import scipy.fft

import spslab as sl
from conftest import relerr
from oracles import smooth_random_field


@pytest.fixture(scope="module")
def params():
    return sl.Params(alpha=1.0, beta=1.0, p=2.5, rho=0.1)


class TestZeroConventions:
    def test_virial_zero_field(self, grid16, params):
        res, scale = sl.virial_residual(sl.zero_field(grid16), params)
        assert res == 0.0 and scale == 1.0

    def test_pohozaev_zero_field(self, grid16, params):
        res, scale = sl.pohozaev_residual(sl.zero_field(grid16), params)
        assert res == 0.0 and scale == 1.0

    def test_el_zero_field_rejected(self, grid16, params):
        with pytest.raises(sl.DegenerateFieldError):
            sl.el_residual(sl.zero_field(grid16), params, omega=1.0)

    def test_report_zero_field(self, grid16, params):
        report = sl.identity_report(sl.zero_field(grid16), params)
        assert report.virial_residual == 0 and report.virial_scale == 1.0
        assert report.el_residual_rel == 0


class TestEigenmodeCases:
    def test_constant_field_el_exact(self, grid16):
        free = sl.Params(alpha=0.0, beta=0.0, p=2.5, rho=1.0)
        c = sl.constant_field(grid16, 1.0)
        assert sl.el_residual(c, free, omega=1.0) < 1e-13
        assert abs(sl.lagrange_multiplier(c, free) - 1.0) < 1e-13

    def test_single_mode_multiplier(self, grid16):
        free = sl.Params(alpha=0.0, beta=0.0, p=2.5, rho=1.0)
        k0 = 2 * np.pi / grid16.box_length * np.array([1.0, 2.0, 0.0])
        x, y, z = grid16.meshgrid()
        mode = sl.Field(grid16, np.exp(1j * (k0[0] * x + k0[1] * y)))
        omega = sl.lagrange_multiplier(mode, free)
        assert relerr(omega, np.sqrt(1 + np.dot(k0, k0))) < 1e-12

    def test_omega_perturbation_moves_el_linearly(self, grid16):
        free = sl.Params(alpha=0.0, beta=0.0, p=2.5, rho=1.0)
        c = sl.constant_field(grid16, 2.0)
        assert abs(sl.el_residual(c, free, omega=1.1) - 0.1) < 1e-12


class TestAlgebraicEquivalences:
    def test_pohozaev_multiplier_form_vs_two_norm_difference(self, grid32):
        for seed in range(5):
            u = smooth_random_field(grid32, seed + 10)
            kin = sl.pohozaev_kinetic_term(u)
            ns = sl.norms(u, p=2.5)
            two_norm = 0.5 * (ns.h_half_sq - ns.h_minus_half_sq)
            assert relerr(kin, two_norm) < 1e-10

    def test_f_prime_is_virial_over_mass(self, grid32, params):
        u = smooth_random_field(grid32, 17)
        f_prime, g_prime = sl.scaling_derivative_check(u, params)
        vres, _ = sl.virial_residual(u, params)
        assert f_prime == vres / u.mass()
        pres, _ = sl.pohozaev_residual(u, params)
        assert g_prime == pres

    def test_homogeneous_pohozaev_equals_energy_at_critical_p(self, grid32):
        # degree-one homogeneity: the dilation derivative of the homogeneous
        # energy at p = 8/3 is the energy itself
        params = sl.Params(alpha=1.0, beta=1.0, p=8.0 / 3.0, rho=1.0)
        u = smooth_random_field(grid32, 23)
        pres, _ = sl.pohozaev_residual(u, params, variant="homogeneous")
        e_tilde = sl.energy(u, params, variant="homogeneous").total
        assert relerr(pres, e_tilde) < 1e-12


class TestFiniteDifferenceChecks:
    def test_f_prime_against_amplitude_fd(self, grid64, params):
        u = sl.gaussian_field(grid64, 1.5, amplitude=0.3)
        f_prime, _ = sl.scaling_derivative_check(u, params)
        mass = u.mass()
        delta = 1e-4

        def j_of(theta):
            scaled = sl.Field(u.grid, theta * u.values)
            return sl.energy(scaled, params).total / (theta**2 * mass)

        fd = (j_of(1 + delta) - j_of(1 - delta)) / (2 * delta)
        assert abs(fd - f_prime) / abs(f_prime) < 1e-5

    def test_g_prime_against_resampled_fd(self, grid64, params):
        # the resampled finite difference carries the derivative of the
        # order-1 interpolation error, which moves on the theta-scale h/|x|;
        # 5e-2 is the measured accuracy of this cross-check at 64^3
        u = sl.gaussian_field(grid64, 1.5, amplitude=0.3)
        _, g_prime = sl.scaling_derivative_check(u, params)
        delta = 0.02

        def e_of(theta):
            return sl.energy(sl.scale_mass_preserving(u, theta), params).total

        fd = (e_of(1 + delta) - e_of(1 - delta)) / (2 * delta)
        assert g_prime != 0
        assert abs(fd - g_prime) / abs(g_prime) < 5e-2


def test_discrimination_off_minimizer(grid32, params):
    # a mass-projected Gaussian far from stationarity must light up
    u = sl.project_mass(sl.gaussian_field(grid32, 1.0), params.rho)
    _, vscale = sl.virial_residual(u, params)
    vres, _ = sl.virial_residual(u, params)
    assert abs(vres) / vscale > 1e-2


class TestSharedEvaluation:
    """``identity_report`` reads every residual off one gradient evaluation."""

    @pytest.mark.parametrize("variant", ["inhomogeneous", "homogeneous"])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_report_agrees_with_components(self, grid32, params, variant, kind):
        u = smooth_random_field(grid32, 31)
        if kind == "real":
            u = sl.Field(grid32, u.values.real)
        rayleigh = sl.lagrange_multiplier(u, params, variant)
        for omega in (None, 0.3):
            report = sl.identity_report(u, params, omega=omega, variant=variant)
            el_omega = rayleigh if omega is None else omega
            assert (report.virial_residual, report.virial_scale) == sl.virial_residual(u, params)
            assert (report.pohozaev_residual, report.pohozaev_scale) == sl.pohozaev_residual(
                u, params, variant
            )
            assert report.el_residual_rel == sl.el_residual(u, params, el_omega, variant)
            assert (report.f_prime_at_1, report.g_prime_at_1) == sl.scaling_derivative_check(
                u, params, variant
            )

    def test_report_is_one_evaluation_of_four_transforms(self, grid32, params, monkeypatch):
        counts = Counter()

        class CountingFft:
            def __getattr__(self, name):
                def counted(*args, **kwargs):
                    counts[name] += 1
                    return getattr(scipy.fft, name)(*args, **kwargs)

                return counted

        for name in ("energy", "coulomb", "identities"):
            monkeypatch.setattr(importlib.import_module(f"spslab.{name}"), "_fft", CountingFft())
        identities = importlib.import_module("spslab.identities")
        evaluate = identities.evaluate
        calls = []

        def counted_evaluate(*args, **kwargs):
            calls.append(args[4] if len(args) > 4 else kwargs.get("with_gradient", False))
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(identities, "evaluate", counted_evaluate)
        u = smooth_random_field(grid32, 37)
        for omega in (None, 0.3):
            calls.clear()
            counts.clear()
            sl.identity_report(u, params, omega=omega)
            assert calls == [True]
            # fftn(u), rfftn(|u|^2) and the two inverse transforms of the gradient
            assert counts == {"fftn": 1, "rfftn": 1, "ifftn": 1, "irfftn": 1}

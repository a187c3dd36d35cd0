"""Identity residuals, all read off ``identity_report``: zero conventions,
algebraic equivalences, FD checks."""

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


def free(p=2.5):
    """Zero couplings: the energy is the kinetic term alone."""
    return sl.Params(alpha=0.0, beta=0.0, p=p, rho=1.0)


def rayleigh(u, params, variant="inhomogeneous"):
    """Test-side multiplier Re<grad E(u), u> / ||u||_2^2."""
    return sl.inner(sl.gradient(u, params, variant), u).real / u.mass()


class TestZeroConventions:
    def test_virial_zero_field(self, grid16, params):
        report = sl.identity_report(sl.zero_field(grid16), params)
        assert report.virial_residual == 0.0 and report.virial_scale == 1.0
        assert report.f_prime_at_1 == 0.0

    def test_pohozaev_zero_field(self, grid16, params):
        report = sl.identity_report(sl.zero_field(grid16), params, variant="homogeneous")
        assert report.pohozaev_residual == 0.0 and report.pohozaev_scale == 1.0
        assert report.g_prime_at_1 == 0.0

    def test_report_zero_field(self, grid16, params):
        report = sl.identity_report(sl.zero_field(grid16), params)
        assert report.virial_residual == 0 and report.virial_scale == 1.0
        assert report.el_residual_rel == 0


class TestEigenmodeCases:
    def test_constant_field_el_exact(self, grid16):
        c = sl.constant_field(grid16, 1.0)
        assert sl.identity_report(c, free(), omega=1.0).el_residual_rel < 1e-13
        assert abs(rayleigh(c, free()) - 1.0) < 1e-13
        # the report's own multiplier is the Rayleigh quotient
        assert sl.identity_report(c, free()).el_residual_rel < 1e-13

    def test_single_mode_multiplier(self, grid16):
        k0 = 2 * np.pi / grid16.box_length * np.array([1.0, 2.0, 0.0])
        x, y, z = grid16.meshgrid()
        mode = sl.Field(grid16, np.exp(1j * (k0[0] * x + k0[1] * y)))
        omega = rayleigh(mode, free())
        assert relerr(omega, np.sqrt(1 + np.dot(k0, k0))) < 1e-12
        assert sl.identity_report(mode, free()).el_residual_rel < 1e-12

    def test_omega_perturbation_moves_el_linearly(self, grid16):
        c = sl.constant_field(grid16, 2.0)
        assert abs(sl.identity_report(c, free(), omega=1.1).el_residual_rel - 0.1) < 1e-12


class TestAlgebraicEquivalences:
    def test_pohozaev_multiplier_form_vs_two_norm_difference(self, grid32):
        for seed in range(5):
            u = smooth_random_field(grid32, seed + 10)
            # with zero couplings the dilation residual is the kinetic term
            kin = sl.identity_report(u, free()).pohozaev_residual
            ns = sl.norms(u, p=2.5)
            two_norm = 0.5 * (ns.h_half_sq - ns.h_minus_half_sq)
            assert relerr(kin, two_norm) < 1e-10

    def test_f_prime_is_virial_over_mass(self, grid32, params):
        u = smooth_random_field(grid32, 17)
        report = sl.identity_report(u, params)
        assert report.f_prime_at_1 == report.virial_residual / u.mass()
        assert report.g_prime_at_1 == report.pohozaev_residual

    def test_homogeneous_pohozaev_equals_energy_at_critical_p(self, grid32):
        # degree-one homogeneity: the dilation derivative of the homogeneous
        # energy at p = 8/3 is the energy itself
        params = sl.Params(alpha=1.0, beta=1.0, p=8.0 / 3.0, rho=1.0)
        u = smooth_random_field(grid32, 23)
        pres = sl.identity_report(u, params, variant="homogeneous").pohozaev_residual
        e_tilde = sl.energy(u, params, variant="homogeneous").total
        assert relerr(pres, e_tilde) < 1e-12


class TestFiniteDifferenceChecks:
    def test_f_prime_against_amplitude_fd(self, grid64, params):
        u = sl.gaussian_field(grid64, 1.5, amplitude=0.3)
        f_prime = sl.identity_report(u, params).f_prime_at_1
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
        g_prime = sl.identity_report(u, params).g_prime_at_1
        delta = 0.02

        def e_of(theta):
            return sl.energy(sl.scale_mass_preserving(u, theta), params).total

        fd = (e_of(1 + delta) - e_of(1 - delta)) / (2 * delta)
        assert g_prime != 0
        assert abs(fd - g_prime) / abs(g_prime) < 5e-2


def test_discrimination_off_minimizer(grid32, params):
    # a mass-projected Gaussian far from stationarity must light up
    u = sl.project_mass(sl.gaussian_field(grid32, 1.0), params.rho)
    assert sl.identity_report(u, params).virial_rel > 1e-2


class TestSharedEvaluation:
    """``identity_report`` reads every residual off one gradient evaluation."""

    @pytest.mark.parametrize("variant", ["inhomogeneous", "homogeneous"])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_report_agrees_with_components(self, grid32, params, variant, kind):
        # each residual against its terms, rebuilt from the energy breakdown,
        # the free-coupling report (the kinetic dilation term) and the gradient
        u = smooth_random_field(grid32, 31)
        if kind == "real":
            u = sl.Field(grid32, u.values.real)
        e = sl.energy(u, params, variant)
        lp_p, d_value = e.norms.lp_p, e.d_value
        kinetic = sl.identity_report(u, free(), variant=variant).pohozaev_residual
        grad = sl.gradient(u, params, variant)
        for omega in (None, 0.3):
            report = sl.identity_report(u, params, omega=omega, variant=variant)
            v_terms = (2.0 * params.alpha * d_value, params.beta * (params.p - 2.0) * lp_p)
            assert report.virial_residual == v_terms[0] - v_terms[1]
            assert report.virial_scale == max(abs(t) for t in v_terms)
            p_power = params.beta * (3.0 * params.p - 6.0) / 2.0 * lp_p
            p_terms = (kinetic, params.alpha * d_value, p_power)
            assert report.pohozaev_residual == p_terms[0] + p_terms[1] - p_terms[2]
            assert report.pohozaev_scale == max(abs(t) for t in p_terms)
            assert report.f_prime_at_1 == report.virial_residual / e.norms.l2_sq
            assert report.g_prime_at_1 == report.pohozaev_residual
            el_omega = rayleigh(u, params, variant) if omega is None else omega
            resid = sl.Field(grid32, grad.values - el_omega * u.values)
            assert relerr(report.el_residual_rel, np.sqrt(resid.mass() / u.mass())) < 1e-12

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
            calls.append(kwargs.get("with_gradient", False))
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(identities, "evaluate", counted_evaluate)
        u = smooth_random_field(grid32, 37)
        for field, n_parts in ((sl.Field(grid32, u.values.real), 1), (u, 2)):
            for omega in (None, 0.3):
                calls.clear()
                counts.clear()
                sl.identity_report(field, params, omega=omega)
                assert calls == [True]
                # rfftn of each real component, of |u|^2 and of each
                # gradient component's local term, irfftn of Phi: 3 + 1
                # real, 5 + 1 complex
                assert counts == {"rfftn": 2 * n_parts + 1, "irfftn": 1}

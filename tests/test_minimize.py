"""Projected gradient flow: projection, descent, certificates, edge cases."""

import dataclasses
import importlib

import numpy as np
import pytest

import spslab as sl
from spslab.cli import DEFAULT_VERIFY_TOLERANCES
from conftest import relerr
from oracles import smooth_random_field


@pytest.fixture(scope="module")
def bump_grid():
    # wide enough that the rho = 0.1 minimizer is localized, coarse enough
    # to keep unit runs at seconds
    return sl.make_grid(16, 32.0)


@pytest.fixture(scope="module")
def bump_params():
    return sl.Params(alpha=1.0, beta=1.0, p=2.5, rho=0.1)


@pytest.fixture(scope="module")
def bump_result(bump_grid, bump_params):
    cfg = sl.MinimizeConfig(max_iters=6000, grad_tol=1e-7, init_width=2.5)
    return sl.minimize(bump_grid, bump_params, cfg)


class TestProjectMass:
    def test_identity_on_sphere(self, grid16):
        u = sl.gaussian_field(grid16, 1.0)
        rho = u.mass()
        out = sl.project_mass(u, rho)
        assert np.max(np.abs(out.values - u.values)) < 1e-14

    def test_scaling(self, grid16):
        u = sl.gaussian_field(grid16, 1.0)
        out = sl.project_mass(u, 4.0 * u.mass())
        assert np.max(np.abs(out.values - 2.0 * u.values)) < 1e-13

    def test_zero_field_rejected(self, grid16):
        with pytest.raises(sl.DegenerateFieldError):
            sl.project_mass(sl.zero_field(grid16), 1.0)


class TestRecenter:
    def test_centered_gaussian_unchanged(self, grid32):
        u = sl.gaussian_field(grid32, 1.0)
        out = sl.recenter(u)
        assert out.values is u.values  # zero shift short-circuits

    def test_shifted_gaussian_comes_back(self, grid32):
        u = sl.gaussian_field(grid32, 1.0)
        shifted = sl.Field(grid32, np.roll(u.values, (8, -5, 3), axis=(0, 1, 2)))
        back = sl.recenter(shifted)
        assert np.max(np.abs(back.values - u.values)) < 1e-12

    def test_energy_invariant(self, grid32):
        params = sl.Params(alpha=1.0, beta=1.0, p=2.5, rho=0.1)
        u = smooth_random_field(grid32, 31)
        e0 = sl.energy(u, params).total
        e1 = sl.energy(sl.recenter(u), params).total
        assert relerr(e0, e1) < 1e-12

    def test_wrap_around_seam(self, grid32):
        # density leaning across the periodic boundary must recenter cleanly
        u = sl.gaussian_field(grid32, 1.0)
        shifted = sl.Field(grid32, np.roll(u.values, 16, axis=0))  # onto the seam
        back = sl.recenter(shifted)
        assert np.max(np.abs(back.values - u.values)) < 1e-12

    def test_zero_field_rejected(self, grid16):
        with pytest.raises(sl.DegenerateFieldError):
            sl.recenter(sl.zero_field(grid16))


class TestFreeRegime:
    def test_constant_is_fixed_point(self, grid16):
        # alpha = beta = 0: energy 1/2 ||u||_{H^{1/2}}^2, minimized by the
        # zero mode with E = rho / 2
        params = sl.Params(alpha=0.0, beta=0.0, p=2.5, rho=0.3)
        cfg = sl.MinimizeConfig(max_iters=200, grad_tol=1e-10, init_width=4.0)
        start = sl.project_mass(sl.constant_field(grid16, 1.0), params.rho)
        res = sl.minimize(grid16, params, cfg, initial=start)
        assert res.converged and res.iterations == 0
        assert relerr(res.energy.total, params.rho / 2.0) < 1e-12
        assert relerr(res.omega, 1.0) < 1e-12

    def test_flow_reaches_zero_mode_energy(self, grid16):
        # grad_tol must sit above the floating-point gradient floor
        # sqrt(2 lambda eps E) that Armijo-gated descent cannot cross
        params = sl.Params(alpha=0.0, beta=0.0, p=2.5, rho=0.3)
        cfg = sl.MinimizeConfig(max_iters=3000, grad_tol=1e-7, init_width=2.0)
        res = sl.minimize(grid16, params, cfg)
        assert res.converged
        assert abs(res.energy.total - params.rho / 2.0) < 1e-6


class TestConvergedCertificate:
    def test_converged_with_monotone_trace(self, bump_result):
        assert bump_result.converged and not bump_result.stagnated
        energies = [t.energy for t in bump_result.trace]
        assert all(b <= a for a, b in zip(energies, energies[1:]))

    def test_mass_on_sphere(self, bump_result, bump_params):
        assert relerr(bump_result.field.mass(), bump_params.rho) < 1e-12

    def test_el_residual_matches_stopping_rule(self, bump_result):
        assert bump_result.residuals.el_residual_rel < 1e-6

    def test_stationarity_certificate(self, bump_result, bump_params):
        # ||grad - omega v||_2 <= 10 * grad_tol * sqrt(rho) * (1 + |omega|)
        gnorm = bump_result.residuals.el_residual_rel * np.sqrt(bump_params.rho)
        bound = 10 * 1e-7 * np.sqrt(bump_params.rho) * (1 + abs(bump_result.omega))
        assert gnorm <= bound

    def test_pohozaev_small_at_minimizer(self, bump_result):
        assert bump_result.residuals.pohozaev_rel < 5e-3

    def test_discriminates_from_gaussian_probe(self, bump_grid, bump_params):
        probe = sl.project_mass(sl.gaussian_field(bump_grid, 1.0), bump_params.rho)
        pres, pscale = sl.pohozaev_residual(probe, bump_params)
        assert abs(pres) / pscale > 1e-2

    def test_energy_below_half_rho(self, bump_result, bump_params):
        assert bump_result.energy.total / bump_params.rho < 0.5

    def test_imag_remainder_negligible_for_real_init(self, bump_result):
        assert bump_result.imag_mass_fraction < 1e-20

    def test_determinism(self, bump_grid, bump_params, bump_result):
        cfg = sl.MinimizeConfig(max_iters=6000, grad_tol=1e-7, init_width=2.5)
        again = sl.minimize(bump_grid, bump_params, cfg)
        assert np.array_equal(again.field.values, bump_result.field.values)
        assert again.energy.total == bump_result.energy.total


class TestSmallBoxArtifact:
    def test_small_box_drains_to_torus_constant(self):
        # on a box too small for the physical minimizer the flow lands on
        # the torus-constant state; its energy obeys the closed flat-state
        # formula and the identity certificate rejects it
        grid = sl.make_grid(16, 16.0)
        params = sl.Params(alpha=1.0, beta=1.0, p=2.5, rho=0.1)
        cfg = sl.MinimizeConfig(max_iters=6000, grad_tol=1e-6, init_width=2.0)
        res = sl.minimize(grid, params, cfg)
        L, rho, p = grid.box_length, params.rho, params.p
        flat = (
            0.5 * rho
            + params.alpha * rho**2 * 2 * np.pi * (L / 2) ** 2 / L**3
            - params.beta * (rho / L**3) ** (p / 2) * L**3
        )
        assert res.converged
        assert relerr(res.energy.total, flat) < 1e-3
        assert res.residuals.virial_rel > 1e-2
        assert res.residuals.pohozaev_rel > DEFAULT_VERIFY_TOLERANCES["pohozaev_rel"]


class TestEdgeCases:
    def test_zero_budget(self, grid16):
        params = sl.Params(alpha=1.0, beta=1.0, p=2.5, rho=0.1)
        cfg = sl.MinimizeConfig(max_iters=0)
        res = sl.minimize(grid16, params, cfg)
        assert not res.converged and res.iterations == 0
        assert relerr(res.field.mass(), params.rho) < 1e-12

    def test_unbounded_regime_detected(self):
        grid = sl.make_grid(16, 8.0)
        params = sl.Params(alpha=1.0, beta=40.0, p=8.0 / 3.0, rho=40.0)
        cfg = sl.MinimizeConfig(max_iters=500, grad_tol=1e-8, init_width=1.0,
                                energy_floor=-200.0)
        with pytest.raises(sl.UnboundedEnergyError) as excinfo:
            sl.minimize(grid, params, cfg)
        assert len(excinfo.value.trace) > 0

    def test_nan_trial_energy_fails_loudly(self, grid16, monkeypatch):
        # a NaN trial must not backtrack down to MIN_STEP and end "stagnated"
        minimize_module = importlib.import_module("spslab.minimize")
        evaluate = minimize_module.evaluate
        calls = []

        def nan_on_second_trial(*args, **kwargs):
            ev = evaluate(*args, **kwargs)
            calls.append(ev)
            if len(calls) == 3:  # initial evaluation, accepted trial, this trial
                ev.breakdown = dataclasses.replace(ev.breakdown, total=float("nan"))
            return ev

        monkeypatch.setattr(minimize_module, "evaluate", nan_on_second_trial)
        params = sl.Params(alpha=1.0, beta=1.0, p=2.5, rho=0.1)
        with pytest.raises(sl.NumericalFailureError, match="non-finite trial energy") as info:
            sl.minimize(grid16, params, sl.MinimizeConfig(max_iters=20))
        assert len(calls) == 3
        assert [point[0] for point in info.value.trace] == [0, 1]
        assert all(np.isfinite(point[1]) for point in info.value.trace)

    def test_random_init_seeded(self, grid16):
        params = sl.Params(alpha=1.0, beta=1.0, p=2.5, rho=0.1)
        cfg = sl.MinimizeConfig(max_iters=5, init_kind="random", init_seed=7)
        r1 = sl.minimize(grid16, params, cfg)
        r2 = sl.minimize(grid16, params, cfg)
        assert np.array_equal(r1.field.values, r2.field.values)

    def test_initial_field_on_wrong_grid_rejected(self, grid16, grid32):
        params = sl.Params(alpha=1.0, beta=1.0, p=2.5, rho=0.1)
        with pytest.raises(sl.ConfigurationError):
            sl.minimize(grid16, params, sl.MinimizeConfig(max_iters=1),
                        initial=sl.gaussian_field(grid32, 1.0))

    def test_config_validation(self):
        with pytest.raises(sl.ConfigurationError):
            sl.MinimizeConfig(max_iters=-1)
        with pytest.raises(sl.ConfigurationError):
            sl.MinimizeConfig(backtrack_factor=1.0)
        with pytest.raises(sl.ConfigurationError):
            sl.MinimizeConfig(init_kind="from_file")
        with pytest.raises(sl.ConfigurationError):
            sl.MinimizeConfig(variant="other")

    def test_lagrange_multiplier_consistency(self, bump_result, bump_params):
        omega = sl.lagrange_multiplier(bump_result.field, bump_params)
        assert relerr(omega, bump_result.omega) < 1e-12

    def test_perturbed_omega_moves_el_residual_by_perturbation(
        self, bump_result, bump_params
    ):
        res = sl.el_residual(
            bump_result.field, bump_params, omega=bump_result.omega + 0.1
        )
        assert abs(res - 0.1) < 1e-3

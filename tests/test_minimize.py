"""Preconditioned projected gradient flow: projection, descent, certificates,
edge cases."""

import dataclasses
import importlib
import json

import numpy as np
import pytest

import spslab as sl
from spslab.cli import DEFAULT_VERIFY_TOLERANCES, EXIT_OK, run
from spslab.minimize import STEP_CAP, _flow_weights, _start_field
from conftest import log_transforms, relerr
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
        assert sl.identity_report(probe, bump_params).pohozaev_rel > 1e-2

    def test_energy_below_half_rho(self, bump_result, bump_params):
        assert bump_result.energy.total / bump_params.rho < 0.5

    def test_determinism(self, bump_grid, bump_params, bump_result):
        cfg = sl.MinimizeConfig(max_iters=6000, grad_tol=1e-7, init_width=2.5)
        again = sl.minimize(bump_grid, bump_params, cfg)
        assert np.array_equal(again.field.values, bump_result.field.values)
        assert again.energy.total == bump_result.energy.total


class TestRealPath:
    """A real start runs on one real component and stays real; a complex
    start enters the flow as its modulus, since E(|u|) <= E(u)."""

    # the C4 problem at 16^3 (L = 40, rho = 0.1, grad_tol 5e-7, width 2.0);
    # energy of the complex-transform flow that preceded the component path
    C4_ENERGY_16 = 0.04493641968786588

    def test_c4_solve_stays_real(self):
        params = sl.Params(alpha=1.0, beta=1.0, p=2.5, rho=0.1)
        cfg = sl.MinimizeConfig(max_iters=8000, grad_tol=5e-7, init_width=2.0)
        res = sl.minimize(sl.make_grid(16, 40.0), params, cfg)
        assert res.converged
        assert not np.any(res.field.values.imag)
        assert relerr(res.energy.total, self.C4_ENERGY_16) <= 1e-10
        energies = [t.energy for t in res.trace]
        assert all(b <= a for a, b in zip(energies, energies[1:]))

    # the C4 problem at 32^3 from random seeds 0 and 1: energies of the
    # complex flow that preceded the modulus start
    C4_RANDOM_ENERGY_32 = {0: 0.0449362921899782, 1: 0.04493629218997036}

    def test_complex_start_ends_with_one_component(self, grid16):
        params = sl.Params(alpha=1.0, beta=1.0, p=2.5, rho=0.1)
        cfg = sl.MinimizeConfig(max_iters=5, init_kind="random", init_seed=3)
        assert len(sl.random_field(grid16, 3).parts) == 2
        res = sl.minimize(grid16, params, cfg)
        assert len(res.field.parts) == 1
        report = sl.identity_report(res.field, params, omega=res.omega)
        assert report == res.residuals

    @pytest.mark.parametrize("seed", [0, 1])
    def test_c4_random_start_reaches_the_complex_flow_state(self, seed):
        params = sl.Params(alpha=1.0, beta=1.0, p=2.5, rho=0.1)
        cfg = sl.MinimizeConfig(max_iters=8000, grad_tol=5e-7, init_kind="random",
                                init_seed=seed)
        res = sl.minimize(sl.make_grid(32, 40.0), params, cfg)
        assert res.converged and len(res.field.parts) == 1
        assert relerr(res.energy.total, self.C4_RANDOM_ENERGY_32[seed]) <= 1e-10


class TestPreconditionedFlow:
    """The kinetic-preconditioned flow reaches the states of the L2 flow it
    replaced, on the C4 problem at 16^3 (L = 40, rho = 0.1, width 2.0,
    grad_tol 5e-7), in a fraction of its iterations."""

    # the L2 flow's answers: 2,021 and 899 iterations
    C4_ENERGY_16 = 0.044936419687865874
    C4_POHOZAEV_16 = 2.1413e-4
    HOM_ENERGY_16 = -7.676981266227939e-4

    @staticmethod
    def _solve(variant, p):
        params = sl.Params(alpha=1.0, beta=1.0, p=p, rho=0.1, variant=variant)
        cfg = sl.MinimizeConfig(max_iters=8000, grad_tol=5e-7, init_width=2.0)
        return sl.minimize(sl.make_grid(16, 40.0), params, cfg)

    def test_c4_parity(self):
        res = self._solve("inhomogeneous", 2.5)
        assert res.converged and res.iterations <= 500
        assert relerr(res.energy.total, self.C4_ENERGY_16) <= 1e-10
        assert abs(res.residuals.pohozaev_rel - self.C4_POHOZAEV_16) <= 1e-6

    def test_homogeneous_parity(self):
        res = self._solve("homogeneous", 8.0 / 3.0)
        assert res.converged and res.iterations <= 100
        assert relerr(res.energy.total, self.HOM_ENERGY_16) <= 1e-10

    def test_riesz_map_iterations(self):
        # P = K^-1 takes 109 iterations at its step cap 2 and took 223 at
        # the cap 1; (K + 1/2)^-1 took 324
        res = self._solve("inhomogeneous", 2.5)
        assert res.converged and res.iterations <= 120
        assert relerr(res.energy.total, self.C4_ENERGY_16) <= 1e-10
        assert abs(res.residuals.pohozaev_rel - self.C4_POHOZAEV_16) <= 1e-6

    # the README floor starts: every mass and start width of the table
    @pytest.mark.parametrize("width", [1.9, 2.0, 2.5, 3.0, 4.0, 5.0])
    @pytest.mark.parametrize("rho", [0.05, 0.1, 0.25])
    def test_floor_start_converges(self, rho, width):
        params = sl.Params(alpha=1.0, beta=1.0, p=2.5, rho=rho)
        cfg = sl.MinimizeConfig(max_iters=2000, grad_tol=1e-8, init_width=width)
        res = sl.minimize(sl.make_grid(16, 40.0), params, cfg)
        assert res.converged
        energies = [t.energy for t in res.trace]
        assert all(b <= a for a, b in zip(energies, energies[1:]))

    def test_preconditioner_per_variant(self):
        grid = sl.make_grid(16, 40.0)
        riesz = _flow_weights(grid, "inhomogeneous")[0]
        assert np.array_equal(riesz, 1.0 / grid.kinetic_symbol("inhomogeneous"))
        shifted = _flow_weights(grid, "homogeneous")[0]
        assert np.array_equal(shifted, 1.0 / (np.sqrt(grid.wave_sq(half=True)) + 0.5))


class TestStepCap:
    """The flow's step cap is ``STEP_CAP[params.variant]``: 2 for the
    Riesz-map flow, whose preconditioned kinetic Hessian is the identity,
    and 1 for the shifted homogeneous preconditioner."""

    def test_default_per_variant(self):
        assert STEP_CAP == {"inhomogeneous": 2.0, "homogeneous": 1.0}

    def test_explicit_step_is_the_cap(self, monkeypatch):
        # at the old cap 1 the C4 flow takes 223 iterations, at its default 2
        # 109; both reach the same state
        params = sl.Params(alpha=1.0, beta=1.0, p=2.5, rho=0.1)
        grid = sl.make_grid(16, 40.0)
        config = sl.MinimizeConfig(max_iters=8000, grad_tol=5e-7, init_width=2.0)
        with monkeypatch.context() as patch:
            patch.setitem(STEP_CAP, "inhomogeneous", 1.0)
            capped = sl.minimize(grid, params, config)
        default = sl.minimize(grid, params, config)
        assert capped.converged and default.converged
        assert default.iterations < capped.iterations
        assert relerr(default.energy.total, capped.energy.total) <= 1e-10

    @pytest.mark.parametrize("block, expected", [
        ({}, 2.0),
        ({"variant": "inhomogeneous"}, 2.0),
        ({"variant": "homogeneous"}, 1.0),
    ])
    def test_result_echoes_resolved_step(self, tmp_path, block, expected):
        # the result echoes the variant its cap follows, in the params block
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "grid": {"n": 16, "box_length": 20.0},
            "params": {"alpha": 1.0, "beta": 1.0, "p": 2.5, "rho": 0.1, **block},
            "minimize": {"max_iters": 3},
        }))
        out = tmp_path / "out"
        assert run(["minimize", "--config", str(config), "--out", str(out)]) == EXIT_OK
        doc = json.loads((out / "result.json").read_text())
        assert STEP_CAP[doc["params"]["variant"]] == expected
        assert "initial_step" not in doc["config"] and "variant" not in doc["config"]


class TestSpectralIterate:
    """The flow carries the half spectra of its iterate and its gradient, so
    an iteration whose first trial is accepted costs the direction's
    inverse transform and the trial's density, Phi and local-term
    transforms: 4, from a real start and from a complex one, which enters
    as its modulus."""

    @staticmethod
    def _transforms_per_iteration(monkeypatch, grid, config):
        events = []
        for name in ("energy", "coulomb", "minimize"):
            log_transforms(monkeypatch, (name,), events, label=name)
        minimize_module = importlib.import_module("spslab.minimize")

        def logged(*args, _evaluate=minimize_module.evaluate, **kwargs):
            events.append("evaluate")
            return _evaluate(*args, **kwargs)

        monkeypatch.setattr(minimize_module, "evaluate", logged)
        params = sl.Params(alpha=1.0, beta=1.0, p=2.5, rho=0.1)
        res = sl.minimize(grid, params, config)
        # an iteration opens with the direction's inverse transforms, the
        # only transforms minimize makes itself; the last one also holds the
        # output evaluation
        iterations = []
        for previous, event in zip([None] + events, events):
            if event == "minimize" and previous != "minimize":
                iterations.append([])
            if iterations:
                iterations[-1].append(event)
        assert len(iterations) == res.iterations
        return [
            len(it) - 1 for it in iterations[:-1] if it.count("evaluate") == 1
        ]

    @pytest.mark.parametrize("kind", ["gaussian", "random"])
    def test_iteration_takes_four_transforms(self, grid16, monkeypatch, kind):
        config = sl.MinimizeConfig(max_iters=20, init_kind=kind, init_seed=3)
        counts = self._transforms_per_iteration(monkeypatch, grid16, config)
        assert len(counts) >= 10
        assert set(counts) == {4}

    def test_carried_energy_matches_fresh_evaluation(self):
        # the trace reads energies off the carried spectra; the output
        # evaluation transforms the recentered field afresh
        params = sl.Params(alpha=1.0, beta=1.0, p=2.5, rho=0.1)
        cfg = sl.MinimizeConfig(max_iters=8000, grad_tol=5e-7, init_width=2.0)
        res = sl.minimize(sl.make_grid(16, 40.0), params, cfg)
        assert res.converged
        assert relerr(res.trace[-1].energy, res.energy.total) <= 1e-12

    def test_floating_point_fixed_point_stops(self):
        # C10's homogeneous flow reaches the flat-state floor within about
        # 50 iterations; a step that no longer moves the iterate ends it
        grid = sl.make_grid(32, 16.0)
        params = sl.Params(alpha=1.0, beta=1.0, p=8.0 / 3.0, rho=0.05, variant="homogeneous")
        cfg = sl.MinimizeConfig(max_iters=1500, grad_tol=1e-12, init_width=1.0)
        res = sl.minimize(grid, params, cfg)
        assert res.stagnated and not res.converged
        assert res.iterations < 200
        L, rho, p = grid.box_length, params.rho, params.p
        flat = (params.alpha * rho**2 * 2 * np.pi * (L / 2) ** 2 / L**3
                - params.beta * (rho / L**3) ** (p / 2) * L**3)
        assert relerr(res.energy.total, flat) <= 1e-10
        energies = [t.energy for t in res.trace]
        assert all(b <= a for a, b in zip(energies, energies[1:]))


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


class TestFinalIterate:
    """The stopping test reads the iterate of the last allowed step too."""

    def test_last_allowed_step_is_tested(self):
        grid = sl.make_grid(16, 40.0)
        params = sl.Params(alpha=1.0, beta=1.0, p=2.5, rho=0.1)
        cfg = sl.MinimizeConfig(max_iters=8000, grad_tol=5e-7, init_width=2.0)
        full = sl.minimize(grid, params, cfg)
        assert full.converged and full.iterations > 1
        capped = sl.minimize(grid, params, dataclasses.replace(cfg, max_iters=full.iterations))
        assert capped.converged and capped.iterations == full.iterations
        assert capped.trace == full.trace
        short = sl.minimize(grid, params, dataclasses.replace(cfg, max_iters=full.iterations - 1))
        assert not short.converged and short.iterations == full.iterations - 1
        assert short.trace == full.trace[:-1]
        again = sl.minimize(grid, params, dataclasses.replace(cfg, max_iters=0),
                            initial=full.field)
        assert again.converged and again.iterations == 0
        assert len(again.trace) == 1
        assert again.trace[0].grad_norm <= cfg.grad_tol * np.sqrt(params.rho)


class TestEdgeCases:
    def test_zero_budget(self, grid16):
        params = sl.Params(alpha=1.0, beta=1.0, p=2.5, rho=0.1)
        cfg = sl.MinimizeConfig(max_iters=0)
        res = sl.minimize(grid16, params, cfg)
        assert not res.converged and res.iterations == 0
        assert relerr(res.field.mass(), params.rho) < 1e-12

    def test_output_field_evaluated_once(self, grid16, monkeypatch):
        # the start and the output field: omega, the energy and the
        # certificate all read the output's one evaluation
        calls = []
        for name in ("spslab.minimize", "spslab.identities"):
            module = importlib.import_module(name)

            def counted(*args, _evaluate=module.evaluate, **kwargs):
                calls.append(args[0])
                return _evaluate(*args, **kwargs)

            monkeypatch.setattr(module, "evaluate", counted)
        params = sl.Params(alpha=1.0, beta=1.0, p=2.5, rho=0.1)
        res = sl.minimize(grid16, params, sl.MinimizeConfig(max_iters=0))
        assert len(calls) == 2
        assert calls[1] is res.field
        report = sl.identity_report(res.field, params, omega=res.omega)
        assert report == res.residuals

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

    def test_snapshot_on_wrong_grid_names_both_grids(self, tmp_path, grid16, grid32):
        path = tmp_path / "start.spsf"
        sl.save_snapshot(sl.gaussian_field(grid32, 1.0), path)
        config = sl.MinimizeConfig(max_iters=1, init_kind="from_file", init_path=str(path))
        with pytest.raises(sl.ConfigurationError) as info:
            sl.minimize(grid16, sl.Params(alpha=1.0, beta=1.0, p=2.5, rho=0.1), config)
        assert str(info.value) == (
            f"snapshot grid {grid32.describe()} does not match the run grid {grid16.describe()}"
        )

    def test_initial_field_on_wrong_grid_rejected(self, grid16, grid32):
        params = sl.Params(alpha=1.0, beta=1.0, p=2.5, rho=0.1)
        with pytest.raises(sl.ConfigurationError) as info:
            sl.minimize(grid16, params, sl.MinimizeConfig(max_iters=1),
                        initial=sl.gaussian_field(grid32, 1.0))
        assert str(info.value) == (
            f"snapshot grid {grid32.describe()} does not match the run grid {grid16.describe()}"
        )

    def test_nan_initial_field_is_numerical_input_error(self, grid16):
        values = sl.gaussian_field(grid16, 1.0).values.copy()
        values[3, 4, 5] = np.nan
        params = sl.Params(alpha=1.0, beta=1.0, p=2.5, rho=0.1)
        with pytest.raises(sl.NumericalInputError):
            sl.minimize(grid16, params, sl.MinimizeConfig(max_iters=1),
                        initial=sl.Field(grid16, values))

    def test_config_validation(self):
        with pytest.raises(sl.ConfigurationError):
            sl.MinimizeConfig(max_iters=-1)
        with pytest.raises(sl.ConfigurationError):
            sl.MinimizeConfig(init_kind="from_file")
        with pytest.raises(sl.ConfigurationError):
            sl.Params(alpha=1.0, beta=1.0, p=2.5, rho=0.1, variant="other")

    def test_lagrange_multiplier_consistency(self, bump_result, bump_params):
        v = bump_result.field
        omega = sl.inner(sl.gradient(v, bump_params), v).real / v.mass()
        assert relerr(omega, bump_result.omega) < 1e-12

    def test_perturbed_omega_moves_el_residual_by_perturbation(
        self, bump_result, bump_params
    ):
        report = sl.identity_report(
            bump_result.field, bump_params, omega=bump_result.omega + 0.1
        )
        assert abs(report.el_residual_rel - 0.1) < 1e-3


class TestStartField:
    """The one builder of a run's starting field."""

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("width", [None, 1.7], ids=["default-width", "width"])
    def test_gaussian_is_the_projected_gaussian_and_its_profile(self, n, width):
        grid = sl.make_grid(n, 12.0)
        start, profile = _start_field(grid, 0.3, "gaussian", width)
        expected = sl.project_mass(sl.gaussian_field(grid, width or 12.0 / 8.0), 0.3)
        assert profile.width == (width or 1.5)
        assert len(start.parts) == 1
        assert start.parts[0].tobytes() == expected.parts[0].tobytes()
        assert start.parts[0].tobytes() == profile.sample(grid).parts[0].tobytes()

    def test_random_is_the_projected_random_field(self, grid16):
        start, profile = _start_field(grid16, 0.3, "random", seed=5)
        expected = sl.project_mass(sl.random_field(grid16, 5), 0.3)
        assert profile is None
        assert all(a.tobytes() == b.tobytes() for a, b in zip(start.parts, expected.parts))

    @pytest.mark.parametrize("source", ["initial", "from_file"])
    def test_minimize_starts_from_the_projected_given_field(
        self, tmp_path, monkeypatch, grid16, source
    ):
        # a warm start and a from_file snapshot take the same path: the
        # flow's first evaluation is of the modulus of project_mass(x),
        # projected again, bit for bit
        x = smooth_random_field(grid16, 4)
        minimize_module = importlib.import_module("spslab.minimize")
        evaluate = minimize_module.evaluate
        evaluated = []

        def record(u, *args, **kwargs):
            evaluated.append(u)
            return evaluate(u, *args, **kwargs)

        monkeypatch.setattr(minimize_module, "evaluate", record)
        params = sl.Params(alpha=1.0, beta=1.0, p=2.5, rho=0.3)
        if source == "initial":
            sl.minimize(grid16, params, sl.MinimizeConfig(max_iters=0), initial=x)
        else:
            path = tmp_path / "start.spsf"
            sl.save_snapshot(x, path)
            config = sl.MinimizeConfig(max_iters=0, init_kind="from_file", init_path=str(path))
            sl.minimize(grid16, params, config)
        start = sl.project_mass(x, params.rho)
        assert len(start.parts) == 2
        expected = sl.project_mass(sl.Field(grid16, np.sqrt(start.density())), params.rho)
        assert len(evaluated[0].parts) == 1
        assert evaluated[0].parts[0].tobytes() == expected.parts[0].tobytes()

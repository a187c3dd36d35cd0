"""Blow-up / blow-down scaling tables at the critical exponent."""

from dataclasses import replace

import numpy as np
import pytest

import spslab as sl
from conftest import relerr
from spslab import experiments


def _mass_matched_profile(grid, width, rho):
    m = sl.GaussianProfile(width=width).sample(grid).mass()
    return sl.GaussianProfile(width=width, amplitude=np.sqrt(rho / m))


@pytest.fixture(scope="module")
def negative_seed(grid64):
    # strong local coupling makes the homogeneous energy of this seed
    # negative: the blow-up regime
    params = sl.Params(alpha=1.0, beta=40.0, p=8.0 / 3.0, rho=40.0)
    profile = _mass_matched_profile(grid64, 2.0, params.rho)
    return grid64, params, profile


class TestBlowup:
    def test_positive_seed_sign_report(self, grid64):
        params = sl.Params(alpha=1.0, beta=1.0, p=8.0 / 3.0, rho=0.05)
        profile = _mass_matched_profile(grid64, 1.0, params.rho)
        res = sl.blowup_experiment(profile.sample(grid64), params, [1.0, 2.0],
                                   profile=profile)
        assert not res.proceeded
        assert res.e_tilde_base > 0
        assert res.rows == ()

    def test_negative_seed_table(self, negative_seed):
        grid, params, profile = negative_seed
        res = sl.blowup_experiment(profile.sample(grid), params, [1.0, 2.0, 4.0],
                                   profile=profile)
        assert res.proceeded and res.e_tilde_base < 0
        assert [r.theta for r in res.rows] == [1.0, 2.0, 4.0]
        energies = [r.energy for r in res.rows]
        assert energies[2] < energies[1] < energies[0]
        ratios = [r.energy_tilde / r.theta for r in res.rows]
        spread = (max(ratios) - min(ratios)) / abs(ratios[0])
        assert spread < 1e-2
        # the kinetic gap is the o(1) engine: positive and decreasing
        gaps = [r.kinetic_gap for r in res.rows]
        assert all(g > 0 for g in gaps)
        assert gaps[2] < gaps[1] < gaps[0]
        assert all(r.method == "analytic" for r in res.rows)

    def test_schedule_must_increase(self, negative_seed):
        grid, params, profile = negative_seed
        with pytest.raises(sl.ConfigurationError):
            sl.blowup_experiment(profile.sample(grid), params, [2.0, 1.0],
                                 profile=profile)

    def test_non_critical_p_rejected(self, grid32):
        params = sl.Params(alpha=1.0, beta=1.0, p=2.5, rho=0.1)
        u = sl.gaussian_field(grid32, 1.0)
        with pytest.raises(sl.ConfigurationError):
            sl.blowup_experiment(u, params, [1.0, 2.0])

    def test_resolution_truncation(self, negative_seed):
        grid, params, profile = negative_seed
        with pytest.warns(sl.ResolutionWarning):
            res = sl.blowup_experiment(
                profile.sample(grid), params, [1.0, 2.0, 4.0, 64.0], profile=profile
            )
        assert res.truncated
        assert res.skipped_thetas == (64.0,)
        assert len(res.rows) == 3


class TestBlowdown:
    def test_small_mass_table(self, grid64):
        params = sl.Params(alpha=1.0, beta=1.0, p=8.0 / 3.0, rho=0.05)
        profile = _mass_matched_profile(grid64, 0.65, params.rho)
        res = sl.blowdown_experiment(profile.sample(grid64), params,
                                     [1.0, 0.5], profile=profile)
        assert res.proceeded
        assert all(r.energy_tilde > 0 for r in res.rows)
        assert all(relerr(r.mass, params.rho) < 1e-6 for r in res.rows)
        ratios = [r.energy_tilde / r.theta for r in res.rows]
        assert (max(ratios) - min(ratios)) / ratios[0] < 1e-2
        assert res.rows[1].hdot_half < res.rows[0].hdot_half

    def test_theta_one_row_matches_direct_evaluation(self, grid64):
        params = sl.Params(alpha=1.0, beta=1.0, p=8.0 / 3.0, rho=0.05)
        profile = _mass_matched_profile(grid64, 0.65, params.rho)
        phi = profile.sample(grid64)
        res = sl.blowdown_experiment(phi, params, [1.0, 0.5], profile=profile)
        direct = sl.energy(phi, replace(params, variant="homogeneous")).total
        assert relerr(res.rows[0].energy_tilde, direct) < 1e-12

    def test_schedule_must_decrease(self, grid64):
        params = sl.Params(alpha=1.0, beta=1.0, p=8.0 / 3.0, rho=0.05)
        profile = _mass_matched_profile(grid64, 0.65, params.rho)
        with pytest.raises(sl.ConfigurationError):
            sl.blowdown_experiment(profile.sample(grid64), params, [0.5, 1.0],
                                   profile=profile)

    def test_trilinear_fallback_without_profile(self, grid64):
        params = sl.Params(alpha=1.0, beta=1.0, p=8.0 / 3.0, rho=0.05)
        profile = _mass_matched_profile(grid64, 1.5, params.rho)
        phi = profile.sample(grid64)
        res = sl.blowdown_experiment(phi, params, [1.0, 0.8])
        assert [r.method for r in res.rows] == ["trilinear", "trilinear"]
        ratios = [r.energy_tilde / r.theta for r in res.rows]
        assert (max(ratios) - min(ratios)) / ratios[0] < 5e-2


class TestSingleEvaluation:
    """phi is evaluated once: its row gives e_tilde_base and the theta = 1 row."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = []
        energy = experiments.energy

        def counting(*args, **kwargs):
            calls.append(args[0])
            return energy(*args, **kwargs)

        monkeypatch.setattr(experiments, "energy", counting)
        return calls

    @pytest.fixture(scope="class")
    def seeds(self, grid64):
        # a negative homogeneous energy (blow-up proceeds) and a positive one
        negative = sl.Params(alpha=1.0, beta=40.0, p=8.0 / 3.0, rho=40.0)
        positive = sl.Params(alpha=1.0, beta=1.0, p=8.0 / 3.0, rho=0.05)
        return {
            "blowup": (negative, _mass_matched_profile(grid64, 2.0, negative.rho)),
            "blowdown": (positive, _mass_matched_profile(grid64, 1.5, positive.rho)),
        }

    @pytest.mark.parametrize(
        "kind, thetas",
        [
            ("blowup", [1.0, 1.5, 2.0]),
            ("blowup", [1.5, 2.0]),
            ("blowdown", [1.0, 0.8]),
            ("blowdown", [0.9, 0.8]),
        ],
    )
    @pytest.mark.parametrize("analytic", [True, False])
    def test_one_evaluation_of_phi(self, grid64, seeds, counted, kind, thetas, analytic):
        params, profile = seeds[kind]
        phi = profile.sample(grid64)
        follow = sl.blowup_experiment if kind == "blowup" else sl.blowdown_experiment
        res = follow(phi, params, thetas, profile=profile if analytic else None)
        assert res.proceeded and not res.truncated
        assert [r.theta for r in res.rows] == thetas
        assert len(counted) == 1 + sum(t != 1.0 for t in thetas)
        assert counted[0] is phi
        homogeneous = sl.energy(phi, replace(params, variant="homogeneous")).total
        assert res.e_tilde_base == homogeneous
        method = "analytic" if analytic else "trilinear"
        assert all(r.method == method for r in res.rows)
        if thetas[0] == 1.0:
            assert res.rows[0] == experiments._evaluate_row(phi, params, 1.0, method)

    def test_unresolvable_theta_one_still_skipped(self, grid64, counted):
        # width 0.3 is below two grid spacings (h = 0.25) at theta = 1
        params = sl.Params(alpha=1.0, beta=1.0, p=8.0 / 3.0, rho=0.05)
        profile = _mass_matched_profile(grid64, 0.3, params.rho)
        with pytest.warns(sl.ResolutionWarning):
            res = sl.blowdown_experiment(profile.sample(grid64), params, [1.0, 0.5],
                                         profile=profile)
        assert res.skipped_thetas == (1.0,)
        assert [r.theta for r in res.rows] == [0.5]
        assert len(counted) == 2

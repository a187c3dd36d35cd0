"""Weinstein quotient, ascent lower bounds, boundedness threshold."""

from collections import Counter

import numpy as np
import pytest

import spslab as sl
from conftest import GAUSS_WEINSTEIN, log_transforms, relerr
from spslab import bestconst
from spslab.bestconst import (
    _QUOTIENT_PARAMS,
    _dilation_generator,
    _gauge_fixed_direction,
    _is_localized,
    _log_quotient_gradient,
)
from spslab.energy import evaluate
from spslab.fields import _onto_sphere, dot


class TestQuotient:
    def test_amplitude_invariance(self, grid32):
        u = sl.gaussian_field(grid32, 1.2)
        q1 = sl.weinstein_quotient(u)
        q2 = sl.weinstein_quotient(sl.Field(grid32, 3.0 * u.values))
        assert relerr(q1, q2) < 1e-12

    def test_gaussian_value(self, gauss64):
        assert relerr(sl.weinstein_quotient(gauss64), GAUSS_WEINSTEIN) < 1e-2

    def test_zero_field_rejected(self, grid16):
        with pytest.raises(sl.DegenerateFieldError):
            sl.weinstein_quotient(sl.zero_field(grid16))

    def test_dilation_ingredient_exponents(self, grid64):
        # phi_theta(x) = phi(theta x): the three quotient ingredients scale
        # with exponents (-9/8, -2, -5) and the quotient is invariant
        theta = 1.5
        base_prof = sl.GaussianProfile(width=1.0)
        dil_prof = base_prof.dilated(theta)
        base = base_prof.sample(grid64)
        dilated = dil_prof.sample(grid64)
        ns_b = sl.norms(base, p=8.0 / 3.0)
        ns_d = sl.norms(dilated, p=8.0 / 3.0)
        lp_b = ns_b.lp_p ** (3.0 / 8.0)
        lp_d = ns_d.lp_p ** (3.0 / 8.0)
        assert relerr(lp_d, theta ** (-9.0 / 8.0) * lp_b) < 1e-3
        assert relerr(ns_d.hdot_half_sq, theta**-2.0 * ns_b.hdot_half_sq) < 1e-3
        d_b = sl.hartree_double_integral(base)
        d_d = sl.hartree_double_integral(dilated)
        assert relerr(d_d, theta**-5.0 * d_b) < 1e-3
        q_b = sl.weinstein_quotient(base)
        q_d = sl.weinstein_quotient(dilated)
        assert relerr(q_b, q_d) < 1e-3


def _modulated_gaussian(grid, signed):
    """A localized real field that is no Gaussian: a Gaussian times
    1 + 0.3 of smooth real noise, or times the noise itself, which makes
    about half the samples negative."""
    noise = sl.random_field(grid, 5).values
    noise = noise.real / np.max(np.abs(noise))
    modulation = noise if signed else 1.0 + 0.3 * noise
    return sl.Field(grid, sl.gaussian_field(grid, 1.6).values * modulation)


class TestLogQuotientGradient:
    @pytest.mark.parametrize("signed", [False, True], ids=["real", "signed"])
    def test_central_difference(self, grid32, signed):
        phi = _modulated_gaussian(grid32, signed)
        ev = evaluate(phi, _QUOTIENT_PARAMS)
        grad = _log_quotient_gradient(ev, phi.density())
        assert grad.shape == grid32.shape
        v = sl.random_field(grid32, 11).parts[0]
        v = v / np.max(np.abs(v))

        def log_q(t):
            moved = sl.Field.of_parts(grid32, (phi.parts[0] + t * v,))
            return np.log(sl.weinstein_quotient(moved))

        eps = 1.0e-4
        central = (log_q(eps) - log_q(-eps)) / (2.0 * eps)
        assert relerr(central, dot((grad,), (v,)) * grid32.cell_volume) < 1e-6

    @pytest.mark.parametrize("signed", [False, True], ids=["real", "signed"])
    def test_orthogonal_to_amplitude(self, grid32, signed):
        # Q is invariant under amplitude scaling, so the gradient has no
        # component along phi
        phi = _modulated_gaussian(grid32, signed)
        ev = evaluate(phi, _QUOTIENT_PARAMS)
        grad = (_log_quotient_gradient(ev, phi.density()),)
        scale = np.sqrt(dot(grad, grad) * dot(phi.parts, phi.parts))
        assert abs(dot(grad, phi.parts)) < 1e-12 * scale


class TestGaugeFixing:
    @pytest.mark.parametrize("width, tol", [(1.0, 1e-7), (1.6, 1e-4)])
    def test_dilation_generator_of_gaussian(self, grid32, width, tol):
        # d/dtheta theta^{3/2} phi(theta x) at theta = 1 is
        # (3/2 - |x|^2 / w^2) phi for a Gaussian of width w; the wider one
        # feels the torus edge
        phi = sl.gaussian_field(grid32, width)
        ev = evaluate(phi, _QUOTIENT_PARAMS)
        generator = _dilation_generator(phi, ev.parts_fft[0])
        expected = (1.5 - grid32.radius_sq() / width**2) * phi.parts[0]
        assert np.max(np.abs(generator - expected)) < tol * np.max(np.abs(expected))

    @pytest.mark.parametrize("signed", [False, True], ids=["real", "signed"])
    def test_direction_orthogonal_to_flat_directions(self, grid32, signed):
        phi = _modulated_gaussian(grid32, signed)
        ev = evaluate(phi, _QUOTIENT_PARAMS)
        (f,) = ev.parts_fft
        direction = _log_quotient_gradient(ev, phi.density())
        _gauge_fixed_direction(phi, direction, f)

        def cosine(a, b):
            return abs(np.vdot(a, b)) / np.sqrt(np.vdot(a, a) * np.vdot(b, b))

        # the generator's projection is the last, so it is removed to
        # rounding; phi's is undone only by the generator's small overlap
        assert cosine(direction, _dilation_generator(phi, f)) < 1e-12
        assert cosine(direction, phi.parts[0]) < 1e-9


class TestAscent:
    def test_defaults_certify_the_path(self, grid32):
        # at the default step a trial is accepted only when localized, so
        # the certified trace moves past the start
        est = sl.estimate_best_constant(grid32, sl.AscentConfig(steps=60))
        assert len(est.ascent_trace) > 1
        assert _is_localized(est.maximizer)
        assert est.s_lower == est.ascent_trace[-1][1]

    def test_gaussian_init_bound(self, grid32):
        est = sl.estimate_best_constant(
            grid32, sl.AscentConfig(steps=1, init_kind="gaussian")
        )
        # one step cannot fall below the seed's own quotient
        seed_q = sl.weinstein_quotient(
            sl.gaussian_field(grid32, grid32.box_length / 10.0)
        )
        assert est.s_lower >= seed_q - 1e-14
        assert est.s_lower > 0.68

    def test_trace_monotone(self, grid32):
        est = sl.estimate_best_constant(
            grid32, sl.AscentConfig(steps=100, seed=3, init_kind="random")
        )
        values = [q for _, q in est.ascent_trace]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_budget_monotone(self, grid32):
        short = sl.estimate_best_constant(
            grid32, sl.AscentConfig(steps=50, seed=0, init_kind="random")
        )
        long = sl.estimate_best_constant(
            grid32, sl.AscentConfig(steps=200, seed=0, init_kind="random")
        )
        assert long.s_lower >= short.s_lower

    def test_seed_agreement(self, grid32):
        # flat-maximum diagnostic: distinct seeds land on the same plateau
        values = [
            sl.estimate_best_constant(
                grid32, sl.AscentConfig(steps=150, seed=s, init_kind="random")
            ).s_lower
            for s in (0, 1)
        ]
        assert abs(values[0] - values[1]) < 1e-2

    def test_s_lower_matches_stored_maximizer(self, grid32):
        est = sl.estimate_best_constant(
            grid32, sl.AscentConfig(steps=40, init_kind="gaussian")
        )
        assert relerr(est.s_lower, sl.weinstein_quotient(est.maximizer)) < 1e-10

    def test_direction_built_once_per_accepted_iterate(self, grid32, monkeypatch):
        # a rejected trial halves the step along the same direction, so the
        # direction is built for the start and after each accepted step only
        builds, trials = [], []

        def counted_direction(*args, _build=bestconst._gauge_fixed_direction):
            builds.append(args[0])
            return _build(*args)

        def counted_evaluate(*args, _evaluate=bestconst.evaluate, **kwargs):
            trials.append(args[0])
            return _evaluate(*args, **kwargs)

        monkeypatch.setattr(bestconst, "_gauge_fixed_direction", counted_direction)
        monkeypatch.setattr(bestconst, "evaluate", counted_evaluate)
        est = sl.estimate_best_constant(grid32, sl.AscentConfig(steps=120))
        accepted = sum(1 for it, _ in est.ascent_trace if it > 0)
        assert est.ascent_trace[-1][0] < 120  # the run ends on rejected trials
        assert len(builds) <= accepted + 1
        assert len(trials) - 1 > len(builds)
        assert builds[-1] is est.maximizer

    def test_grid_refinement_soundness(self, grid32, grid64):
        coarse = sl.estimate_best_constant(
            grid32, sl.AscentConfig(steps=60, init_kind="gaussian")
        )
        fine = sl.estimate_best_constant(
            grid64, sl.AscentConfig(steps=60, init_kind="gaussian")
        )
        assert coarse.s_lower <= fine.s_lower + 1e-2


class TestModulusStart:
    """Q(|phi|) >= Q(phi): ||phi||_{8/3} and D read |phi| only, and the
    seminorm does not rise under phi -> |phi|, so the random start enters
    the ascent as its modulus and every iterate is real."""

    @pytest.mark.parametrize("seed", range(4))
    def test_random_start_is_its_modulus(self, grid32, seed):
        noise = sl.random_field(grid32, seed).values
        gaussian = sl.gaussian_field(grid32, grid32.box_length / 10.0).values
        complex_start = sl.Field(grid32, gaussian * (1.0 + 0.3 * noise / np.max(np.abs(noise))))
        modulus, _ = _onto_sphere(grid32, (np.abs(complex_start.values),), 1.0)
        est = sl.estimate_best_constant(
            grid32, sl.AscentConfig(steps=3, seed=seed, init_kind="random")
        )
        start_it, start_q = est.ascent_trace[0]
        assert start_it == 0
        assert relerr(start_q, sl.weinstein_quotient(modulus)) < 1e-12
        assert start_q >= sl.weinstein_quotient(complex_start)
        assert len(est.maximizer.parts) == 1

    def test_modulus_does_not_raise_the_seminorm(self, grid32):
        # the grid-level inequality behind Q(|phi|) >= Q(phi), for the
        # homogeneous seminorm the quotient reads
        rng = np.random.default_rng(2301)
        for _ in range(20):
            w = rng.standard_normal(grid32.shape) + 1j * rng.standard_normal(grid32.shape)
            ns_w = sl.norms(sl.Field(grid32, w), p=8.0 / 3.0)
            ns_abs = sl.norms(sl.Field(grid32, np.abs(w)), p=8.0 / 3.0)
            assert ns_abs.hdot_half_sq <= ns_w.hdot_half_sq + 1e-10

    def test_accepted_step_takes_seven_transforms(self, grid32, monkeypatch):
        # an evaluation opens each step: the trial's rfftn of phi and of
        # |phi|^2, then the next direction's irfftn of Phi, of the gradient's
        # kinetic term and of the dilation generator's three derivatives
        events = []
        log_transforms(monkeypatch, ("energy", "coulomb", "bestconst"), events)

        def logged(*args, _evaluate=bestconst.evaluate, **kwargs):
            events.append("evaluate")
            return _evaluate(*args, **kwargs)

        monkeypatch.setattr(bestconst, "evaluate", logged)
        steps = 12
        est = sl.estimate_best_constant(
            grid32,
            sl.AscentConfig(steps=steps, seed=2, init_kind="random", init_width=1.6,
                            step_size=0.005),
        )
        assert [it for it, _ in est.ascent_trace] == list(range(steps + 1))
        chunks = []
        for event in events:
            if event == "evaluate":
                chunks.append([])
            else:
                chunks[-1].append(event)
        assert len(chunks) == steps + 1
        per_step = [Counter(c) for c in chunks[:-1]]
        assert per_step == [{"rfftn": 2, "irfftn": 5}] * steps
        assert chunks[-1] == ["rfftn", "rfftn"]


class TestThreshold:
    def test_lhs_arithmetic(self):
        v = sl.classify_boundedness(1.0, 3.0, 0.9)
        assert v.lhs == 1.0
        assert v.verdict == "unbounded_certified"

    def test_indeterminate_when_bound_too_small(self):
        v = sl.classify_boundedness(1.0, 3.0, 0.69)
        assert v.verdict == "indeterminate"

    def test_one_sided_large_alpha(self):
        v = sl.classify_boundedness(1.0e6, 1.0, 0.73)
        assert v.lhs > 8.0
        assert v.verdict == "indeterminate"

    def test_exact_equality_is_indeterminate(self):
        # 27 * 16 / 27 = 16 exactly; 16^{1/8} = sqrt(2) = sqrt(2) * 1.0
        v = sl.classify_boundedness(16.0, 3.0, 1.0)
        assert v.lhs == v.rhs_lower
        assert v.verdict == "indeterminate"

    def test_never_certifies_bounded(self):
        for alpha, beta, s in [(1, 1, 0.1), (100, 1, 0.7), (16, 3, 1.0)]:
            v = sl.classify_boundedness(alpha, beta, s)
            assert v.verdict in ("unbounded_certified", "indeterminate")

    def test_rejects_nonpositive_couplings(self):
        with pytest.raises(sl.ConfigurationError):
            sl.classify_boundedness(0.0, 1.0, 0.7)
        with pytest.raises(sl.ConfigurationError):
            sl.classify_boundedness(1.0, -2.0, 0.7)

    def test_accepts_estimate_object(self, grid16):
        est = sl.BestConstantEstimate(
            s_lower=0.9,
            maximizer=sl.gaussian_field(grid16, 1.0),
            ascent_trace=((0, 0.9),),
            grid_meta=grid16.describe(),
        )
        assert sl.classify_boundedness(1.0, 3.0, est.s_lower).verdict == "unbounded_certified"

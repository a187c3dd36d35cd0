"""Norms, operators, Coulomb machinery against frozen values and oracles."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
import scipy.fft as fft

import spslab as sl
from spslab import coulomb
from spslab.energy import evaluate
from conftest import (
    GAUSS_D,
    GAUSS_HDOT_SQ,
    GAUSS_HHALF_SQ,
    GAUSS_HMINUS_SQ,
    GAUSS_L2_SQ,
    GAUSS_LP_52,
    GAUSS_LP_83,
    GAUSS_PHI0,
    GAUSS_WIDTH,
    log_transforms,
    relerr,
)
from oracles import (
    direct_sum_double_integral,
    direct_sum_potential,
    kernel_table_slow,
    smooth_random_field,
)


class TestNorms:
    def test_zero_field(self, grid32):
        ns = sl.norms(sl.zero_field(grid32), p=2.5)
        assert ns.l2_sq == 0 and ns.lp_p == 0
        assert ns.h_half_sq == 0 and ns.hdot_half_sq == 0 and ns.h_minus_half_sq == 0

    def test_gaussian_closed_forms(self, gauss64):
        ns = sl.norms(gauss64, p=8.0 / 3.0)
        assert relerr(ns.l2_sq, GAUSS_L2_SQ) < 1e-10
        assert relerr(ns.hdot_half_sq, GAUSS_HDOT_SQ) < 1e-3
        assert relerr(ns.h_half_sq, GAUSS_HHALF_SQ) < 1e-3
        assert relerr(ns.h_minus_half_sq, GAUSS_HMINUS_SQ) < 1e-3
        assert relerr(ns.lp_p, GAUSS_LP_83) < 1e-10

    def test_gaussian_lp_52(self, gauss64):
        ns = sl.norms(gauss64, p=2.5)
        assert relerr(ns.lp_p, GAUSS_LP_52) < 1e-10

    def test_norm_orderings_random(self, grid32):
        for seed in range(5):
            u = smooth_random_field(grid32, seed)
            ns = sl.norms(u, p=2.5)
            assert ns.h_half_sq >= ns.l2_sq
            assert ns.h_half_sq >= ns.hdot_half_sq
            assert ns.h_minus_half_sq <= ns.l2_sq
            assert ns.h_half_sq - ns.h_minus_half_sq >= 0

    def test_plancherel_consistency(self, grid32):
        for seed in range(3):
            u = smooth_random_field(grid32, seed)
            ns = sl.norms(u, p=2.5)
            fourier = float(
                np.sum(np.abs(fft.fftn(u.values)) ** 2) * grid32.fourier_weight
            )
            assert relerr(ns.l2_sq, fourier) < 1e-10

    def test_scaling_homogeneity(self, grid32):
        u = smooth_random_field(grid32, 11)
        lam = 1.7
        ns1 = sl.norms(u, p=2.5)
        ns2 = sl.norms(sl.Field(grid32, lam * u.values), p=2.5)
        assert relerr(ns2.l2_sq, lam**2 * ns1.l2_sq) < 1e-12
        assert relerr(ns2.lp_p, lam**2.5 * ns1.lp_p) < 1e-12
        assert relerr(ns2.h_half_sq, lam**2 * ns1.h_half_sq) < 1e-12
        assert relerr(ns2.hdot_half_sq, lam**2 * ns1.hdot_half_sq) < 1e-12

    def test_nonfinite_rejected(self, grid16):
        values = np.zeros(grid16.shape, dtype=np.complex128)
        values[0, 0, 0] = np.nan
        with pytest.raises(sl.NumericalInputError):
            sl.norms(sl.Field(grid16, values), p=2.5)

    def test_modulus_inequality(self, grid32):
        # 20 random complex fields; pointwise white noise is the harshest case
        rng = np.random.default_rng(7)
        for _ in range(20):
            w = rng.standard_normal(grid32.shape) + 1j * rng.standard_normal(grid32.shape)
            ns_w = sl.norms(sl.Field(grid32, w), p=2.5)
            ns_abs = sl.norms(sl.Field(grid32, np.abs(w).astype(complex)), p=2.5)
            assert ns_abs.h_half_sq <= ns_w.h_half_sq + 1e-10


# with zero couplings the energy gradient is the kinetic operator alone
FREE = sl.Params(alpha=0.0, beta=0.0, p=2.5, rho=1.0)


def half_wave(u, variant="inhomogeneous"):
    """sqrt(1 - Laplacian) u, or |D| u in the homogeneous variant."""
    return sl.gradient(u, replace(FREE, variant=variant))


class TestHalfWave:
    def test_constant_is_fixed(self, grid16):
        c = sl.constant_field(grid16, 3.5 - 1.0j)
        out = half_wave(c)
        assert np.max(np.abs(out.values - c.values)) < 1e-13

    def test_single_mode_eigenvalue(self, grid16):
        k0 = 2 * np.pi / grid16.box_length * np.array([2.0, -1.0, 3.0])
        x, y, z = grid16.meshgrid()
        mode = np.exp(1j * (k0[0] * x + k0[1] * y + k0[2] * z))
        out = half_wave(sl.Field(grid16, mode))
        expected = np.sqrt(1 + np.dot(k0, k0)) * mode
        assert np.max(np.abs(out.values - expected)) < 1e-11

    def test_pairing_equals_h_half_norm(self, grid32):
        u = smooth_random_field(grid32, 5)
        ns = sl.norms(u, p=2.5)
        pairing = sl.inner(half_wave(u), u)
        assert abs(pairing.imag) < 1e-12 * abs(pairing.real)
        assert relerr(pairing.real, ns.h_half_sq) < 1e-10

    def test_self_adjoint(self, grid32):
        u = smooth_random_field(grid32, 8)
        v = smooth_random_field(grid32, 9)
        lhs = sl.inner(half_wave(u), v)
        rhs = sl.inner(u, half_wave(v))
        assert abs(lhs - rhs) / abs(lhs) < 1e-10

    def test_homogeneous_operator_kills_constants(self, grid16):
        c = sl.constant_field(grid16, 1.0)
        out = half_wave(c, "homogeneous")
        assert np.max(np.abs(out.values)) < 1e-13


class TestCoulomb:
    def test_kernel_symbol_nonnegative(self, grid32):
        kern = sl.coulomb_kernel(grid32)
        assert np.all(kern.symbol >= 0)
        assert kern.symbol[0, 0, 0] == 2 * np.pi * (grid32.box_length / 2) ** 2

    def test_zero_density(self, grid16):
        phi = sl.hartree_potential(sl.zero_field(grid16))
        assert np.max(np.abs(phi.values)) == 0
        assert sl.hartree_double_integral(sl.zero_field(grid16)) == 0

    def test_gaussian_potential_at_origin(self, gauss64):
        phi = sl.hartree_potential(gauss64)
        i0 = gauss64.grid.n // 2
        assert relerr(phi.values[i0, i0, i0].real, GAUSS_PHI0) < 1e-3

    def test_gaussian_double_integral(self, gauss64):
        assert relerr(sl.hartree_double_integral(gauss64), GAUSS_D) < 1e-4

    def test_quartic_homogeneity(self, grid32):
        u = smooth_random_field(grid32, 13)
        d1 = sl.hartree_double_integral(u)
        d2 = sl.hartree_double_integral(sl.Field(grid32, 2.0 * u.values))
        assert relerr(d2, 16.0 * d1) < 1e-12

    def test_positivity_and_definiteness(self, grid16):
        for seed in range(4):
            u = smooth_random_field(grid16, seed + 40)
            assert sl.hartree_double_integral(u) > 0

    def test_physical_equals_spectral_sum(self, grid32):
        u = smooth_random_field(grid32, 21)
        d_spectral = sl.hartree_double_integral(u)
        phi = sl.hartree_potential(u)
        density = np.abs(u.values) ** 2
        d_physical = float(np.sum(phi.values.real * density) * grid32.cell_volume)
        assert relerr(d_spectral, d_physical) < 1e-12

    def test_direct_sum_oracle_16(self, grid16):
        kern = sl.coulomb_kernel(grid16)
        kappa = kernel_table_slow(grid16, kern.symbol)
        for seed in range(2):
            u = smooth_random_field(grid16, seed + 100)
            density = np.abs(u.values) ** 2
            phi_fft = sl.hartree_potential(u).values.real
            phi_direct = direct_sum_potential(grid16, density, kappa)
            scale = np.max(np.abs(phi_direct))
            assert np.max(np.abs(phi_fft - phi_direct)) / scale < 1e-6
            d_direct = direct_sum_double_integral(grid16, density, kappa)
            assert relerr(sl.hartree_double_integral(u), d_direct) < 1e-6

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_density_reads_take_one_transform(self, grid32, kind, monkeypatch):
        # D and Phi need only rfftn(|u|^2), and equal what an evaluation reads
        u = smooth_random_field(grid32, 41)
        if kind == "real":
            u = sl.Field(grid32, u.values.real)
        ev = evaluate(u, sl.Params(1.0, 1.0, 2.5, 1.0))
        phi_ev = coulomb._potential_values(ev.density_fft, sl.coulomb_kernel(grid32))
        events = []
        log_transforms(monkeypatch, ("energy", "coulomb"), events)
        d_value = sl.hartree_double_integral(u)
        assert Counter(events) == {"rfftn": 1}
        events.clear()
        phi = sl.hartree_potential(u)
        assert Counter(events) == {"rfftn": 1, "irfftn": 1}
        assert d_value == ev.breakdown.d_value
        assert len(phi.parts) == 1 and np.array_equal(phi.parts[0], phi_ev)


class TestRealTransforms:
    """Fields enter the transforms as real components (one for a real field,
    two for a complex one) on the r2c/c2r half spectrum; every norm, D, Phi
    and the gradient must match the full c2c computation."""

    @staticmethod
    def _fields(grid):
        alt = (-1.0) ** np.arange(grid.n)
        rng = np.random.default_rng(5)
        # energy on the kz = n/2 plane and on the corner mode (-1)^(x+y+z)
        nyquist = np.broadcast_to(
            1.0 + 0.5 * alt[None, None, :] + 0.3 * alt[:, None, None] * alt[None, None, :],
            grid.shape,
        )
        corner = np.broadcast_to(
            0.2 + 0.7 * alt[None, :, None] * alt[None, None, :]
            + 0.4 * alt[:, None, None] * alt[None, :, None] * alt[None, None, :],
            grid.shape,
        )
        white = rng.standard_normal((2,) + grid.shape)
        smooth = smooth_random_field(grid, 3).values
        return [
            ("white", white[0], white[1]),
            ("nyquist", nyquist, corner),
            ("smooth", smooth.real, smooth.imag),
        ]

    def test_r2c_matches_c2c_including_nyquist_plane(self, grid16):
        kern = sl.coulomb_kernel(grid16)
        params = sl.Params(alpha=1.0, beta=1.0, p=2.5, rho=1.0)
        fw = grid16.fourier_weight
        k_sq = grid16.wave_sq()
        k_abs, mult = np.sqrt(k_sq), np.sqrt(1.0 + k_sq)
        nyq = grid16.n // 2
        cases = [(kind, *f) for kind in ("real", "complex") for f in self._fields(grid16)]
        for kind, name, re, im in cases:
            values = re + 1j * im if kind == "complex" else re.astype(complex)
            u = sl.Field(grid16, values)
            u_fft = fft.fftn(values)
            if name != "smooth":
                assert np.max(np.abs(u_fft[..., nyq])) > 1e-3 * np.max(np.abs(u_fft)), name
            density = np.abs(values) ** 2
            density_fft = fft.fftn(density)
            assert np.max(np.abs(density_fft[..., nyq])) > 1e-3 * np.abs(density_fft[0, 0, 0])

            spec = np.abs(u_fft) ** 2
            ns = sl.norms(u, p=2.5)
            assert relerr(ns.h_half_sq, float(np.sum(mult * spec) * fw)) <= 1e-13
            assert relerr(ns.hdot_half_sq, float(np.sum(k_abs * spec) * fw)) <= 1e-13
            assert relerr(ns.h_minus_half_sq, float(np.sum(spec / mult) * fw)) <= 1e-13
            assert relerr(ns.l2_sq, float(np.sum(density) * grid16.cell_volume)) <= 1e-13
            lp = float(np.sum(np.abs(values) ** 2.5) * grid16.cell_volume)
            assert relerr(ns.lp_p, lp) <= 1e-13
            dilation = 0.5 * float(np.sum(k_sq / mult * spec) * fw)
            kinetic = sl.identity_report(u, FREE).pohozaev_residual
            assert relerr(kinetic, dilation) <= 1e-13

            phi_c2c = fft.ifftn(kern.symbol * density_fft).real
            d_c2c = float(np.sum(kern.symbol * np.abs(density_fft) ** 2) * fw)
            phi = sl.hartree_potential(u).values
            assert np.max(np.abs(phi - phi_c2c)) <= 1e-13 * np.max(np.abs(phi_c2c))
            assert relerr(sl.hartree_double_integral(u), d_c2c) <= 1e-13
            assert relerr(sl.energy(u, params).d_value, d_c2c) <= 1e-13
            for variant, m in (("inhomogeneous", mult), ("homogeneous", k_abs)):
                grad_c2c = (
                    fft.ifftn(m * u_fft)
                    + 4.0 * phi_c2c * values
                    - 2.5 * np.abs(values) ** 0.5 * values
                )
                grad = sl.gradient(u, replace(params, variant=variant)).values
                assert np.max(np.abs(grad - grad_c2c)) <= 1e-13 * np.max(np.abs(grad_c2c))
                if kind == "real":
                    assert not np.any(grad.imag)

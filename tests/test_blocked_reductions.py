"""Blocked reductions against the full-array expressions they replace."""

import csv
import io
import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
import scipy.fft as fft

import spslab as sl
from spslab import fields
from spslab.coulomb import _double_integral_from_density_fft, coulomb_kernel
from spslab.energy import _rayleigh_quotient, _spectral_dot, _spectral_weight, _tangential_sq
from spslab.energy import _weighted_product, evaluate
from spslab.identities import identity_report
from oracles import smooth_random_field

PARAMS = sl.Params(1.0, 1.0, 2.5, 1.0)
VARIANTS = ("inhomogeneous", "homogeneous")


def _field(grid, kind):
    u = smooth_random_field(grid, 7)
    if kind == "real":
        return sl.Field(grid, u.values.real)
    return u


def _full_array_terms(u, params):
    """Every reduction of one evaluation, each as one full-array product
    and one ``np.sum``, in the order the evaluation computes it."""
    grid = u.grid
    h3 = grid.cell_volume
    kernel = coulomb_kernel(grid)
    density = u.density()
    power = density ** (0.5 * (params.p - 2.0))
    lp_p = float(np.sum(power * density) * h3)
    spectrum_sq = 0.0
    for c in u.parts:
        c_hat = fft.rfftn(c)
        spectrum_sq = spectrum_sq + c_hat.real**2
        spectrum_sq = spectrum_sq + c_hat.imag**2
    h_half, hdot_half, h_minus_half = np.sum(
        grid.plancherel_weights * spectrum_sq.ravel(), axis=1
    )
    rho_hat = fft.rfftn(density)
    d_value = float(
        np.sum(kernel.double_integral_weight * (rho_hat.real**2 + rho_hat.imag**2))
    )
    # the gradient and the field pair up on their half spectra, each
    # complex entry as two floats with its Hermitian plane weight
    ev = evaluate(u, params, with_gradient=True)
    weight = np.repeat(
        np.broadcast_to(grid.hermitian_weight, rho_hat.shape), 2, axis=-1
    )
    views = [
        (g.view(np.float64), f.view(np.float64)) for g, f in zip(ev.gradient_fft, ev.parts_fft)
    ]
    dot = float(sum(np.sum(weight * g * f) for g, f in views))
    l2_sq = float(np.sum(density) * h3)
    # omega and the kinetic dilation term from the norms: the energy terms'
    # degrees of homogeneity, and sqrt(1 + |k|^2) - 1 / sqrt(1 + |k|^2)
    # = |k|^2 / sqrt(1 + |k|^2)
    if params.variant == "inhomogeneous":
        kinetic = 0.5 * float(h_half)
        dilation = 0.5 * (float(h_half) - float(h_minus_half))
    else:
        kinetic = 0.5 * float(hdot_half)
        dilation = 0.5 * float(hdot_half)
    omega = (
        2.0 * kinetic + 4.0 * (params.alpha * d_value) - params.p * (params.beta * lp_p)
    ) / l2_sq
    el_sq = float(sum(np.sum(weight * (g - omega * f) ** 2) for g, f in views))
    return {
        "lp_p": lp_p,
        "h_half_sq": float(h_half),
        "hdot_half_sq": float(hdot_half),
        "h_minus_half_sq": float(h_minus_half),
        "d_value": d_value,
        "dot": dot,
        "omega": omega,
        "pohozaev_residual": dilation
        + params.alpha * d_value
        - params.beta * (3.0 * params.p - 6.0) / 2.0 * lp_p,
        "el_residual_rel": float(np.sqrt(el_sq / l2_sq)),
    }


def _blocked_terms(u, params):
    ev = evaluate(u, params, with_gradient=True)
    ns = ev.breakdown.norms
    weight = _spectral_weight(u.grid)
    dot = sum(_spectral_dot(weight, g, f) for g, f in zip(ev.gradient_fft, ev.parts_fft))
    report = identity_report(u, params)
    return {
        "lp_p": ns.lp_p,
        "h_half_sq": ns.h_half_sq,
        "hdot_half_sq": ns.hdot_half_sq,
        "h_minus_half_sq": ns.h_minus_half_sq,
        "d_value": ev.breakdown.d_value,
        "dot": dot,
        "omega": _rayleigh_quotient(ev, params.p),
        "pohozaev_residual": report.pohozaev_residual,
        "el_residual_rel": report.el_residual_rel,
    }


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_many_blocks_match_full_arrays(grid16, monkeypatch, kind, variant):
    # 16^3 = 4096 grid points and 2304 half-spectrum points span many
    # blocks of 500, the last one partial
    monkeypatch.setattr(fields, "REDUCTION_BLOCK", 500)
    u = _field(grid16, kind)
    params = replace(PARAMS, variant=variant)
    full = _full_array_terms(u, params)
    blocked = _blocked_terms(u, params)
    for name, value in full.items():
        assert abs(blocked[name] - value) <= 1e-14 * abs(value), name


def test_blocked_sum_rows_and_partial_block(monkeypatch):
    monkeypatch.setattr(fields, "REDUCTION_BLOCK", 7)
    rng = np.random.default_rng(0)
    weights, x = rng.random((3, 50)), rng.random(50)
    rows = fields.blocked_sum(np.multiply, weights, x)
    assert rows.shape == (3,)
    np.testing.assert_allclose(rows, np.sum(weights * x, axis=1), rtol=1e-15)
    cube = rng.random((4, 4, 4))
    assert abs(fields.blocked_sum(np.multiply, cube, cube) - np.sum(cube * cube)) <= 1e-14


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_one_block_is_bit_identical(grid16, kind, variant):
    assert grid16.n**3 <= fields.REDUCTION_BLOCK
    u = _field(grid16, kind)
    params = replace(PARAMS, variant=variant)
    assert _blocked_terms(u, params) == _full_array_terms(u, params)
    # the gradient assembly is the full-array expression too, on the half
    # spectrum (what an evaluation carries) and on the grid (``gradient``)
    ev = evaluate(u, params, with_gradient=True)
    kernel = coulomb_kernel(grid16)
    density = u.density()
    local = fft.irfftn(kernel.half_symbol * fft.rfftn(density), s=grid16.shape)
    local *= 4.0 * PARAMS.alpha
    local -= density ** (0.5 * (PARAMS.p - 2.0)) * (PARAMS.beta * PARAMS.p)
    mult = grid16.kinetic_symbol(variant)
    grid_form = sl.gradient(u, params).parts
    assert len(ev.gradient_fft) == len(grid_form) == len(u.parts)
    for g_hat, g, c in zip(ev.gradient_fft, grid_form, u.parts):
        assert np.array_equal(g_hat, fft.rfftn(local * c) + mult * fft.rfftn(c))
        assert np.array_equal(g, fft.irfftn(mult * fft.rfftn(c), s=grid16.shape) + local * c)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_slice_export_bytes_and_no_full_field(grid16, tmp_path, kind):
    u = _field(grid16, kind)
    path = tmp_path / "slice.csv"
    fields.export_abs_slice(u, path)
    assert "values" not in u.__dict__
    # the direct formula: |u| of the complex field on the mid z-plane
    plane = np.abs(u.values[:, :, grid16.n // 2])
    coords = grid16.axis
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["x", "y", "abs_u"])
    for i in range(grid16.n):
        for j in range(grid16.n):
            writer.writerow([f"{coords[i]:.17g}", f"{coords[j]:.17g}", f"{plane[i, j]:.17g}"])
    assert path.read_bytes() == expected.getvalue().encode()


@pytest.mark.parametrize("seed", [1, 3])
def test_one_mass_beyond_one_block(seed):
    # 128^3 spans 64 blocks; the mass, the retraction's sum and ``l2_sq``
    # are one sum, so they agree to the bit
    grid = sl.make_grid(128, 24.0)
    u = smooth_random_field(grid, seed)
    assert len(u.parts) == 2
    mass = u.mass()
    assert mass == fields.dot(u.parts, u.parts) * grid.cell_volume
    assert mass == sl.norms(u, 2.5).l2_sq


@pytest.mark.parametrize("n", [32, 64])
def test_inner_on_parts_matches_complex_sum(n):
    grid = sl.make_grid(n, 20.0)
    complex_a, complex_b = smooth_random_field(grid, 11), smooth_random_field(grid, 12)
    real_a = sl.Field(grid, complex_a.values.real)
    real_b = sl.Field(grid, complex_b.values.imag)
    for a in (real_a, complex_a):
        for b in (real_b, complex_b):
            expected = np.sum(a.values * np.conj(b.values)) * grid.cell_volume
            product = sl.inner(a, b)
            assert abs(product - expected) <= 1e-13 * abs(expected)
            assert product == sl.inner(b, a).conjugate()


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("n", [32, 64, 128])
def test_tiled_weight_sums_equal_the_full_table(n, kind):
    # past one block the Hermitian weights are one row tiled over a block;
    # 32^3 spans two blocks, the second read from phase 32768 % 34 = 26
    grid = sl.make_grid(n, 24.0)
    ev = evaluate(_field(grid, kind), PARAMS, with_gradient=True)
    weight = _spectral_weight(grid)
    assert weight.shape == (fields.REDUCTION_BLOCK + n + 2,)
    half_shape = grid.shape[:2] + (n // 2 + 1,)
    table = np.repeat(np.broadcast_to(grid.hermitian_weight, half_shape), 2, axis=-1)
    omega = _rayleigh_quotient(ev, PARAMS.p)

    def residual_sq(w, g, f, out=None):
        out = np.multiply(f, -omega, out=out)
        out += g
        out *= out
        out *= w
        return out

    pairs = list(zip(ev.gradient_fft, ev.parts_fft))
    views = [(g.view(np.float64), f.view(np.float64)) for g, f in pairs]
    assert _tangential_sq(ev, omega) == float(
        sum(fields.blocked_sum(residual_sq, table, g, f) for g, f in views)
    )
    for (g, f), (g_view, f_view) in zip(pairs, views):
        expected = float(fields.blocked_sum(_weighted_product, table, g_view, f_view))
        assert _spectral_dot(weight, g, f) == expected


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("n", [32, 64, 128])
def test_double_integral_is_the_per_block_power_sum(n, kind):
    # D is the power sum of rho_hat; the reference is the weighted |z|^2
    # that each block once formed on its own
    grid = sl.make_grid(n, 24.0)
    u = _field(grid, kind)
    density_fft = fft.rfftn(u.density())
    imag_sq = np.empty(fields.REDUCTION_BLOCK)

    def weighted_power(w, z, out=None):
        power = np.square(z.real, out=out)
        power += np.square(z.imag, out=imag_sq[: z.size].reshape(z.shape))
        power *= w
        return power

    weight = coulomb_kernel(grid).double_integral_weight
    expected = float(fields.blocked_sum(weighted_power, weight, density_fft))
    assert sl.hartree_double_integral(u) == expected


def _reference_blocked_sum(product, *operands):
    """The blocked sum with fresh arrays for every block's terms."""
    views = [op if op.ndim == 2 else op.reshape(-1) for op in operands]
    block = fields.REDUCTION_BLOCK
    sums = [
        np.add.reduce(product(*(v[..., s : s + block] for v in views)), axis=-1)
        for s in range(0, views[-1].shape[-1], block)
    ]
    return np.add.reduce(np.stack(sums, axis=-1), axis=-1)


def _interleaved_sums(order):
    """In ``order``, the 3-row Plancherel stack, a 1-row ``dot``, the
    no-gradient Lp sum and D of one real 64^3 field (8 and 5 blocks): for
    each, its blocked sums and the per-block formulas they replace, as
    float hex."""
    grid = sl.make_grid(64, 24.0)
    u = sl.Field(grid, smooth_random_field(grid, 3).values.real)
    c = u.parts[0]
    c_hat = fft.rfftn(c)
    spectrum_sq = (c_hat.real**2 + c_hat.imag**2).ravel()
    density = u.density()
    density_fft = fft.rfftn(density)
    kernel = coulomb_kernel(grid)
    exponent = 0.5 * (PARAMS.p - 2.0)
    weights = grid.plancherel_weights
    sums = {
        "plancherel": (
            lambda: fields.blocked_sum(np.multiply, weights, spectrum_sq),
            lambda: _reference_blocked_sum(np.multiply, weights, spectrum_sq),
        ),
        "dot": (
            lambda: fields.dot((c,), (c,)),
            lambda: _reference_blocked_sum(np.multiply, c, c),
        ),
        "lp": (
            lambda: sl.norms(u, PARAMS.p).lp_p,
            lambda: _reference_blocked_sum(lambda d: d**exponent * d, density)
            * grid.cell_volume,
        ),
        "d": (
            lambda: _double_integral_from_density_fft(density_fft, kernel),
            lambda: _reference_blocked_sum(
                lambda w, z: w * (z.real**2 + z.imag**2),
                kernel.double_integral_weight,
                density_fft,
            ),
        ),
    }
    return [
        (name, *([float(x).hex() for x in np.atleast_1d(f())] for f in sums[name]))
        for name in order
    ]


def test_interleaved_blocked_sums_are_bit_identical():
    # multi-block sums of 3 rows and of 1 row, one after another
    order = ("plancherel", "dot", "lp", "d", "dot", "plancherel", "d", "lp")
    interleaved = {}
    for name, blocked, reference in _interleaved_sums(order):
        assert blocked == reference, name
        assert interleaved.setdefault(name, blocked) == blocked, name
    # each as the first blocked sum of a fresh process
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    for name, blocked in interleaved.items():
        code = (
            "import json, test_blocked_reductions as t; "
            f"print(json.dumps(t._interleaved_sums([{name!r}])[0][1]))"
        )
        fresh = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert json.loads(fresh.stdout) == blocked, name

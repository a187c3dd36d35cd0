"""``fields.irfftn_consuming`` against ``scipy.fft.irfftn``, bit for bit."""

import importlib

import numpy as np
import pytest
import scipy.fft as fft

import spslab as sl
from spslab import fields
from conftest import LoggedFft
from oracles import smooth_random_field


def _symbols(grid):
    """Every multiplier whose product the library inverts: the Coulomb and
    kinetic symbols and the three derivatives i k_j."""
    k1 = grid.wavenumbers
    kz = k1[: grid.n // 2 + 1]
    return {
        "coulomb": sl.coulomb_kernel(grid).half_symbol,
        "inhomogeneous": grid.kinetic_symbol("inhomogeneous"),
        "homogeneous": grid.kinetic_symbol("homogeneous"),
        "d_x": 1j * k1[:, None, None],
        "d_y": 1j * k1[None, :, None],
        "d_z": 1j * kz[None, None, :],
    }


@pytest.mark.parametrize("n", [16, 32, 64, 128])
def test_matches_irfftn_bit_for_bit(n):
    grid = sl.make_grid(n, 16.0)
    rng = np.random.default_rng(n)
    envelope = sl.gaussian_field(grid, 3.0).parts[0]
    spectrum = fft.rfftn(envelope * (1.0 + rng.standard_normal(grid.shape)))
    for name, symbol in _symbols(grid).items():
        expected = fft.irfftn(symbol * spectrum, s=grid.shape)
        got = fields.irfftn_consuming(symbol * spectrum, grid.shape)
        assert got.dtype == expected.dtype and got.shape == expected.shape, name
        assert got.flags.c_contiguous, name
        assert got.tobytes() == expected.tobytes(), name


@pytest.mark.parametrize("n, calls", [(16, ["irfftn"]), (32, ["ifftn", "irfft"])],
                         ids=["16", "32"])
def test_one_irfftn_call_up_to_one_block(n, calls, monkeypatch):
    # a 16^3 spectrum (4,608 floats) makes the one irfftn call; a 32^3 one
    # (34,816 floats) runs ifftn over the first two axes, then irfft
    grid = sl.make_grid(n, 16.0)
    events = []
    monkeypatch.setattr(fields, "_fft", LoggedFft(fft, events))
    spectrum = fft.rfftn(sl.gaussian_field(grid, 2.0).parts[0])
    fields.irfftn_consuming(spectrum, grid.shape)
    assert events == calls


def _ascent_and_report_bytes(grid):
    est = sl.estimate_best_constant(
        grid, sl.AscentConfig(steps=6, seed=1, init_kind="random", step_size=0.005)
    )
    u = smooth_random_field(grid, 19)
    report = sl.identity_report(u, sl.Params(1.0, 1.0, 2.5, 0.1))
    return (
        [c.tobytes() for c in est.maximizer.parts],
        [list(t) for t in est.ascent_trace],
        report,
    )


def test_ascent_and_report_match_plain_irfftn(grid32, monkeypatch):
    # the ascent inverts the three derivative spectra, the grid-form kinetic
    # term and Phi; the report inverts Phi
    shipped = _ascent_and_report_bytes(grid32)
    for name in ("bestconst", "coulomb", "energy"):
        monkeypatch.setattr(importlib.import_module(f"spslab.{name}"), "irfftn_consuming",
                            lambda spectrum, shape: fft.irfftn(spectrum, s=shape))
    assert _ascent_and_report_bytes(grid32) == shipped

import numpy as np
import pytest

import spslab as sl
from spslab.errors import ConfigurationError, SnapshotFormatError


class TestMakeGrid:
    def test_spacing_and_wavenumbers_8(self):
        g = sl.make_grid(8, 8.0)
        assert g.spacing == 1.0
        k = np.sort(g.wavenumbers)
        expected = 2 * np.pi / 8.0 * np.arange(-4, 4)
        assert np.allclose(k, np.sort(expected))

    def test_spacing_64(self):
        g = sl.make_grid(64, 16.0)
        assert g.spacing == 0.25

    @pytest.mark.parametrize("n", [10, 12, 7, 0, -8, 4])
    def test_rejects_bad_n(self, n):
        with pytest.raises(ConfigurationError):
            sl.make_grid(n, 8.0)

    @pytest.mark.parametrize("length", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_bad_length(self, length):
        with pytest.raises(ConfigurationError):
            sl.make_grid(16, length)

    def test_repeated_grid_is_kept_with_its_arrays(self, tmp_path):
        g = sl.make_grid(16, 12.0)
        weights = g.plancherel_weights
        kinetic = g.kinetic_symbol("inhomogeneous")
        kernel = sl.coulomb_kernel(g)
        again = sl.make_grid(16, 12)
        assert again is g
        assert again.plancherel_weights is weights
        assert again.kinetic_symbol("inhomogeneous") is kinetic
        again_kernel = sl.coulomb_kernel(again)
        assert again_kernel.half_symbol is kernel.half_symbol
        assert again_kernel.double_integral_weight is kernel.double_integral_weight
        # a snapshot on the same (n, L) reads into the kept grid
        sl.save_snapshot(sl.gaussian_field(g, 1.0), tmp_path / "g.spsf")
        assert sl.load_snapshot(tmp_path / "g.spsf").grid is g

    def test_grid_memo_is_bounded(self):
        from spslab.grid import GRID_MEMO_SIZE

        first = sl.make_grid(8, 1.0)
        for i in range(GRID_MEMO_SIZE):
            sl.make_grid(8, 2.0 + i)
        assert sl.make_grid(8, 1.0) is not first

    def test_half_spectrum_arrays(self):
        g = sl.make_grid(16, 8.0)
        half = (16, 16, 9)
        assert g.kinetic_symbol("homogeneous").shape == half
        assert np.array_equal(g.kinetic_symbol("inhomogeneous"), g.half_wave_multiplier[..., :9])
        assert np.array_equal(g.kinetic_symbol("homogeneous"), g.k_abs[..., :9])
        w = g.hermitian_weight / g.fourier_weight
        assert w[0] == w[-1] == 1.0 and np.all(w[1:-1] == 2.0)

    def test_wavenumber_count_and_range(self):
        g = sl.make_grid(16, 8.0)
        assert g.wavenumbers.shape == (16,)
        assert g.wavenumbers.min() == -2 * np.pi / 8.0 * 8
        assert g.wavenumbers.max() == 2 * np.pi / 8.0 * 7


class TestParams:
    def test_valid(self):
        p = sl.Params(alpha=1.0, beta=2.0, p=2.5, rho=0.1)
        assert p.alpha == 1.0

    @pytest.mark.parametrize(
        "kw",
        [
            {"alpha": -1.0},
            {"beta": -0.5},
            {"p": 2.0},
            {"p": 2.7},
            {"p": 3.0},
            {"rho": 0.0},
            {"rho": -1.0},
        ],
    )
    def test_invalid(self, kw):
        base = {"alpha": 1.0, "beta": 1.0, "p": 2.5, "rho": 0.1}
        with pytest.raises(ConfigurationError):
            sl.Params(**{**base, **kw})

    def test_zero_couplings_allowed(self):
        sl.Params(alpha=0.0, beta=0.0, p=2.5, rho=1.0)

    def test_critical_exponent_allowed(self):
        sl.Params(alpha=1.0, beta=1.0, p=8.0 / 3.0, rho=1.0)


class TestSnapshotRoundTrip:
    def test_roundtrip(self, tmp_path, grid16):
        rng = np.random.default_rng(3)
        values = rng.standard_normal(grid16.shape) + 1j * rng.standard_normal(grid16.shape)
        field = sl.Field(grid16, values)
        path = tmp_path / "f.spsf"
        sl.save_snapshot(field, path)
        back = sl.load_snapshot(path)
        assert back.grid == grid16
        assert np.array_equal(back.values, field.values)

    def test_header_layout(self, tmp_path, grid16):
        path = tmp_path / "f.spsf"
        sl.save_snapshot(sl.zero_field(grid16), path)
        raw = path.read_bytes()
        assert raw[:5] == b"SPSF1"
        n, L = np.frombuffer(raw, dtype="<f8", count=2, offset=5)
        assert n == 16.0 and L == 8.0
        assert len(raw) == 5 + 16 + 16 * 16**3

    def test_x_fastest_order(self, tmp_path, grid16):
        # mark one point at ix=1, iy=0, iz=0: with x fastest it is sample #1
        values = np.zeros(grid16.shape, dtype=np.complex128)
        values[1, 0, 0] = 3.0 + 4.0j
        path = tmp_path / "f.spsf"
        sl.save_snapshot(sl.Field(grid16, values), path)
        raw = path.read_bytes()
        data = np.frombuffer(raw, dtype="<c16", offset=21)
        assert data[1] == 3.0 + 4.0j
        assert np.count_nonzero(data) == 1

    def test_truncated_file_rejected(self, tmp_path, grid16):
        path = tmp_path / "f.spsf"
        sl.save_snapshot(sl.zero_field(grid16), path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(SnapshotFormatError):
            sl.load_snapshot(path)

    def test_bad_magic_rejected(self, tmp_path, grid16):
        path = tmp_path / "f.spsf"
        sl.save_snapshot(sl.zero_field(grid16), path)
        raw = bytearray(path.read_bytes())
        raw[:5] = b"NOPE!"
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotFormatError):
            sl.load_snapshot(path)


def test_abs_slice_export(tmp_path, grid16):
    field = sl.gaussian_field(grid16, 1.0)
    path = tmp_path / "slice.csv"
    sl.export_abs_slice(field, path, axis="z")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,y,abs_u"
    assert len(lines) == 1 + 16 * 16


class TestBoundaryMassFraction:
    def test_localized_field_near_zero(self, grid32):
        frac = sl.boundary_mass_fraction(sl.gaussian_field(grid32, 1.0))
        assert frac < 1e-12

    def test_box_filling_field_order_one(self, grid32):
        frac = sl.boundary_mass_fraction(sl.constant_field(grid32, 1.0))
        assert frac > 0.3

    def test_zero_field(self, grid16):
        assert sl.boundary_mass_fraction(sl.zero_field(grid16)) == 0.0

    def test_bad_shell_fraction(self, grid16):
        with pytest.raises(sl.ConfigurationError):
            sl.boundary_mass_fraction(sl.gaussian_field(grid16, 1.0), 0.7)

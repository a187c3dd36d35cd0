import os

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

    @pytest.mark.parametrize(
        "a, b", [((16, 8.0), (np.int64(16), 8.0)), ((8, 8), (8, 8.0))], ids=["int64-n", "int-L"]
    )
    def test_same_pair_is_equal_and_hashes_alike(self, a, b):
        g, h = sl.Grid(*a), sl.Grid(*b)
        g.kinetic_symbol("inhomogeneous")  # a filled cache does not enter equality
        assert g is not h
        assert g == h and hash(g) == hash(h)
        assert len({g, h}) == 1

    def test_other_length_or_type_is_unequal(self):
        g = sl.Grid(16, 8.0)
        assert g != sl.Grid(16, 8.5)
        assert g != sl.Grid(32, 8.0)
        assert g != "grid"

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
        k_sq = g.wave_sq()
        assert np.array_equal(g.kinetic_symbol("inhomogeneous"), np.sqrt(1.0 + k_sq)[..., :9])
        assert np.array_equal(g.kinetic_symbol("homogeneous"), np.sqrt(k_sq)[..., :9])
        w = g.hermitian_weight / g.fourier_weight
        assert w[0] == w[-1] == 1.0 and np.all(w[1:-1] == 2.0)

    @pytest.mark.parametrize("n", [16, 32])
    def test_radius_sq_is_the_dense_sum_and_uncached(self, n):
        g = sl.make_grid(n, 8.0)
        x, y, z = g.meshgrid()
        r2 = g.radius_sq()
        assert r2.tobytes() == (x**2 + y**2 + z**2).tobytes()
        assert r2.flags.c_contiguous and r2.flags.writeable
        assert g.radius_sq() is not r2

    @pytest.mark.parametrize("width, amplitude", [(1.0, 1.0), (0.7, 2.5), (3.0, 1e-3)])
    def test_gaussian_sample_bit_for_bit(self, width, amplitude):
        g = sl.make_grid(32, 8.0)
        x, y, z = g.meshgrid()
        expected = amplitude * np.exp(-(x**2 + y**2 + z**2) / (2.0 * width**2))
        (got,) = sl.GaussianProfile(width, amplitude).sample(g).parts
        assert got.tobytes() == expected.tobytes()

    def test_random_field_envelope_bit_for_bit(self):
        g = sl.make_grid(16, 8.0)
        rng = np.random.default_rng(7)
        noise = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        k_abs = np.sqrt(g.wave_sq())
        smooth = np.fft.ifftn(np.fft.fftn(noise) * (k_abs <= 0.25 * np.max(k_abs)))
        x, y, z = g.meshgrid()
        envelope = np.exp(-(x**2 + y**2 + z**2) / (2.0 * (g.box_length / 6.0) ** 2))
        assert sl.random_field(g, 7).values.tobytes() == (smooth * envelope).tobytes()

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

    @pytest.mark.parametrize(
        "n_header", [float("nan"), float("inf"), float("-inf"), 16.5, 2.0**44, -16.0, 8.0]
    )
    def test_bad_grid_size_header_rejected(self, tmp_path, grid16, n_header):
        # the header is checked against the payload before any grid is built,
        # so a huge n is rejected without allocating its grid
        path = tmp_path / "f.spsf"
        sl.save_snapshot(sl.zero_field(grid16), path)
        raw = bytearray(path.read_bytes())
        raw[5:13] = np.array([n_header], dtype="<f8").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotFormatError):
            sl.load_snapshot(path)

    def test_overlong_payload_rejected(self, tmp_path, grid16):
        path = tmp_path / "f.spsf"
        sl.save_snapshot(sl.zero_field(grid16), path)
        path.write_bytes(path.read_bytes() + bytes(16))
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


def _reference_snapshot_bytes(field):
    """The snapshot as written by assembling, transposing and converting
    the complex samples."""
    header = np.array([float(field.grid.n), field.grid.box_length], dtype="<f8")
    payload = np.ascontiguousarray(field.values.transpose(2, 1, 0)).astype("<c16")
    return b"SPSF1" + header.tobytes() + payload.tobytes()


def _reference_snapshot_read(raw, grid):
    """The field of a snapshot's bytes, by one complex transpose pass."""
    data = np.frombuffer(raw, dtype="<c16", offset=21)
    return sl.Field(grid, np.ascontiguousarray(data.reshape(grid.shape).transpose(2, 1, 0)))


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


class TestSnapshotCopies:
    """Reads map the file and writes fill one buffer; the bytes and the
    parts are those of a plain read-and-transpose reference."""

    @staticmethod
    def _values(grid, kind):
        rng = np.random.default_rng(11)
        values = rng.standard_normal(grid.shape)
        values[0, 1, 2] = -0.0
        if kind == "complex":
            values = values + 1j * rng.standard_normal(grid.shape)
        elif kind == "negative_zero_imag":
            values = values + 1j * np.full(grid.shape, -0.0)
        return values

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_write_bytes_unchanged(self, tmp_path, grid16, kind):
        field = sl.Field(grid16, self._values(grid16, kind))
        sl.save_snapshot(field, tmp_path / "f.spsf")
        assert (tmp_path / "f.spsf").read_bytes() == _reference_snapshot_bytes(field)

    @pytest.mark.parametrize("kind", ["real", "complex", "negative_zero_imag"])
    def test_read_parts_bit_identical(self, tmp_path, grid16, kind):
        values = self._values(grid16, kind)
        # written by hand, so that the -0.0 imaginary plane reaches the file
        raw = (b"SPSF1" + np.array([16.0, 8.0], dtype="<f8").tobytes()
               + np.ascontiguousarray(values.transpose(2, 1, 0)).astype("<c16").tobytes())
        (tmp_path / "f.spsf").write_bytes(raw)
        back = sl.load_snapshot(tmp_path / "f.spsf")
        expected = _reference_snapshot_read(raw, grid16)
        assert len(back.parts) == len(expected.parts) == (2 if kind == "complex" else 1)
        for part, ref in zip(back.parts, expected.parts):
            assert part.dtype == np.float64 and part.flags.c_contiguous
            assert np.array_equal(part.view(np.uint64), ref.view(np.uint64))

    @pytest.mark.parametrize("size", [0, 4, 20])
    def test_short_file_rejected(self, tmp_path, size):
        # mmap raises ValueError on an empty file; the reader reports it
        path = tmp_path / "f.spsf"
        path.write_bytes((b"SPSF1" + np.array([16.0, 8.0], dtype="<f8").tobytes())[:size])
        with pytest.raises(SnapshotFormatError, match="too short"):
            sl.load_snapshot(path)

    def test_no_descriptor_left_open(self, tmp_path, grid16):
        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("no /proc/self/fd to count descriptors in")
        good = tmp_path / "good.spsf"
        sl.save_snapshot(sl.gaussian_field(grid16, 1.0), good)
        bad = {name: tmp_path / f"{name}.spsf" for name in ("empty", "short", "magic", "size")}
        bad["empty"].write_bytes(b"")
        bad["short"].write_bytes(good.read_bytes()[:12])
        bad["magic"].write_bytes(b"NOPE!" + good.read_bytes()[5:])
        bad["size"].write_bytes(good.read_bytes()[:-16])
        before = _open_fds()
        kept = []
        for path in [good, *bad.values(), tmp_path / "missing.spsf"] * 2:
            if path is good:
                kept.append(sl.load_snapshot(path))
                continue
            with pytest.raises(SnapshotFormatError) as excinfo:
                sl.load_snapshot(path)
            kept.append(excinfo)  # its traceback keeps the reader's locals
        assert _open_fds() == before


class TestField:
    def test_real_and_zero_imaginary_give_one_part(self, grid16):
        real = np.random.default_rng(5).standard_normal(grid16.shape)
        assert len(sl.Field(grid16, real).parts) == 1
        assert len(sl.Field(grid16, real.astype(np.complex128)).parts) == 1

    def test_complex_gives_two_parts(self, grid16):
        rng = np.random.default_rng(6)
        values = rng.standard_normal(grid16.shape) + 1j * rng.standard_normal(grid16.shape)
        field = sl.Field(grid16, values)
        assert len(field.parts) == 2
        assert np.array_equal(field.parts[0], values.real)
        assert np.array_equal(field.parts[1], values.imag)

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_parts_are_contiguous_float64_copies(self, grid16, kind):
        rng = np.random.default_rng(7)
        values = rng.standard_normal(grid16.shape)
        if kind == "complex":
            values = values + 1j * rng.standard_normal(grid16.shape)
        field = sl.Field(grid16, values)
        for part in field.parts:
            assert part.dtype == np.float64
            assert part.flags.c_contiguous
            assert not np.shares_memory(part, values)
        before = [part.copy() for part in field.parts]
        values *= 2.0
        assert all(np.array_equal(a, b) for a, b in zip(field.parts, before))

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_values_round_trip(self, grid16, kind):
        rng = np.random.default_rng(8)
        values = rng.standard_normal(grid16.shape)
        if kind == "complex":
            values = values * np.exp(1j * rng.standard_normal(grid16.shape))
        field = sl.Field(grid16, values)
        assert field.values.dtype == np.complex128
        assert np.array_equal(field.values, values)
        assert field.values is field.values  # assembled once
        with pytest.raises(ValueError):
            field.values[0, 0, 0] = 1.0

    def test_of_parts_does_not_copy(self, grid16):
        re = np.ones(grid16.shape)
        im = np.zeros(grid16.shape)
        field = sl.Field.of_parts(grid16, (re, im))
        assert field.parts[0] is re and field.parts[1] is im

    def test_shape_mismatch_rejected(self, grid16):
        with pytest.raises(ConfigurationError):
            sl.Field(grid16, np.zeros((8, 8, 8)))

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_loaded_snapshot_parts_are_contiguous(self, tmp_path, grid16, kind):
        u = sl.gaussian_field(grid16, 1.0)
        if kind == "complex":
            x, _, _ = grid16.meshgrid()
            u = sl.Field(grid16, u.values * np.exp(0.5j * x))
        path = tmp_path / "f.spsf"
        sl.save_snapshot(u, path)
        back = sl.load_snapshot(path)
        assert len(back.parts) == len(u.parts)
        for part, expected in zip(back.parts, u.parts):
            assert part.dtype == np.float64 and part.flags.c_contiguous
            assert np.array_equal(part, expected)


def test_abs_slice_export(tmp_path, grid16):
    field = sl.gaussian_field(grid16, 1.0)
    path = tmp_path / "slice.csv"
    sl.export_abs_slice(field, path)
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

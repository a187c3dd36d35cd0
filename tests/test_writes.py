"""Result files: every write is atomic, and every file a run writes gets the
permissions a plain ``open`` gives under the process umask."""

import errno
import json
import os
import stat

import numpy as np
import pytest

import spslab as sl
from spslab import reporting
from spslab.cli import EXIT_OK, run

GRID16 = {"n": 16, "box_length": 8.0}
PARAMS = {"alpha": 1.0, "beta": 1.0, "p": 2.5, "rho": 0.1}
CRITICAL = {"alpha": 1.0, "beta": 1.0, "p": 8.0 / 3.0, "rho": 0.05}
# a umask that differs from the usual 022 in every digit a file mode reads
UMASK = 0o037


@pytest.fixture
def umask():
    previous = os.umask(UMASK)
    try:
        yield UMASK
    finally:
        os.umask(previous)


def _runs(snapshot: str) -> dict:
    """One small config for each command."""
    return {
        "minimize": {"grid": GRID16, "params": PARAMS, "minimize": {"max_iters": 5}},
        "curve": {
            "grid": GRID16,
            "params": {k: v for k, v in PARAMS.items() if k != "rho"},
            "rhos": [0.1, 0.2],
            "minimize": {"max_iters": 3},
            "save_fields": True,
        },
        "energy": {"snapshot": snapshot, "params": PARAMS},
        "verify": {
            "snapshot": snapshot,
            "params": PARAMS,
            "tolerances": {"pohozaev_rel": 1e3, "el_rel": 1e3},
        },
        "scaling": {
            "grid": GRID16,
            "params": CRITICAL,
            "experiment": "blowdown",
            "thetas": [1.0, 0.8],
            "init": {"kind": "from_file", "path": snapshot},
        },
        "best-constant": {"grid": GRID16, "ascent": {"steps": 2}, "pairs": [[1.0, 1.0]]},
    }


# the 16^3 blowdown drops its theta < 1 row, which is beside the point here
@pytest.mark.filterwarnings("ignore::spslab.ResolutionWarning")
@pytest.mark.parametrize(
    "command", ["minimize", "curve", "energy", "verify", "scaling", "best-constant"]
)
def test_cli_files_have_the_umask_mode(tmp_path, umask, command):
    snapshot = tmp_path / "input.spsf"
    sl.save_snapshot(sl.gaussian_field(sl.make_grid(16, 8.0), 1.0, amplitude=0.3), snapshot)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_runs(str(snapshot))[command]))
    out = tmp_path / "out"
    assert run([command, "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    written = sorted(out.iterdir())
    assert "manifest.json" in [p.name for p in written] and len(written) > 1
    assert not [p.name for p in written if p.suffix == ".tmp"]
    plain = tmp_path / "plain"
    with open(plain, "w"):
        pass
    mode = stat.S_IMODE(plain.stat().st_mode)
    assert mode == 0o666 & ~umask
    assert {p.name: stat.S_IMODE(p.stat().st_mode) for p in written} == {
        p.name: mode for p in written
    }


class _HalfWrite:
    """A file whose every write stores half its data, then fails as a full
    disk would."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def _field():
    return sl.gaussian_field(sl.make_grid(8, 4.0), 1.0)


WRITERS = {
    "write_json": lambda path: reporting.write_json(path, {"a": 1.0}),
    "write_table": lambda path: reporting.write_table(path, "t", ("a",), [[1.0]]),
    "save_snapshot": lambda path: sl.save_snapshot(_field(), path),
    "export_abs_slice": lambda path: sl.export_abs_slice(_field(), path),
}


@pytest.mark.parametrize("writer", WRITERS)
def test_failed_write_keeps_the_old_file(tmp_path, monkeypatch, writer):
    target = tmp_path / "result"
    target.write_bytes(b"old")
    monkeypatch.setattr(
        reporting, "open", lambda *a, **k: _HalfWrite(open(*a, **k)), raising=False
    )
    with pytest.raises(OSError, match="No space left"):
        WRITERS[writer](target)
    assert target.read_bytes() == b"old"
    assert sorted(tmp_path.iterdir()) == [target]


def test_block_that_raises_leaves_no_file(tmp_path):
    target = tmp_path / "result.bin"
    with pytest.raises(ValueError):
        with reporting.atomic_open(target, "wb") as fh:
            fh.write(np.arange(4.0).tobytes())
            raise ValueError("stop")
    assert list(tmp_path.iterdir()) == []

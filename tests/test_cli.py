"""Command-line surface: configs, exit codes, persisted files, manifests."""

import dataclasses
import errno
import importlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

import spslab as sl
from spslab.cli import (
    COMMANDS,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_UNBOUNDED,
    EXIT_VERIFY,
    run,
)
from spslab.reporting import read_table


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def make_gaussian_snapshot(tmp_path, grid, width=1.0, amplitude=1.0):
    field = sl.gaussian_field(grid, width, amplitude=amplitude)
    path = tmp_path / "field.spsf"
    sl.save_snapshot(field, path)
    return str(path), field


GRID16 = {"n": 16, "box_length": 8.0}


class TestEnergyCommand:
    def test_zero_snapshot_all_zeros(self, tmp_path, capsys):
        grid = sl.make_grid(16, 8.0)
        path = tmp_path / "zero.spsf"
        sl.save_snapshot(sl.zero_field(grid), path)
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {"snapshot": str(path), "params": {"alpha": 1, "beta": 1, "p": 2.5}},
        )
        code = run(["energy", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "out" / "energy.json").read_text())
        assert doc["energy"]["total"] == 0.0

    def test_gaussian_matches_library(self, tmp_path):
        grid = sl.make_grid(16, 8.0)
        snap, field = make_gaussian_snapshot(tmp_path, grid)
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {"snapshot": snap, "params": {"alpha": 1, "beta": 1, "p": 2.5}},
        )
        out = tmp_path / "out"
        assert run(["energy", "--config", cfg, "--out", str(out)]) == EXIT_OK
        doc = json.loads((out / "energy.json").read_text())
        params = sl.Params(alpha=1, beta=1, p=2.5, rho=field.mass())
        expected = sl.energy(field, params)
        assert doc["energy"]["total"] == pytest.approx(expected.total, rel=1e-14)

    @pytest.mark.parametrize("amplitude", [0.7, 0.0], ids=["gaussian", "zero"])
    def test_absent_rho_is_the_snapshot_mass(self, tmp_path, amplitude):
        grid = sl.make_grid(16, 8.0)
        snap, _ = make_gaussian_snapshot(tmp_path, grid, amplitude=amplitude)
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {"snapshot": snap, "params": {"alpha": 1, "beta": 1, "p": 2.5}},
        )
        assert run(["energy", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
        doc = json.loads((tmp_path / "out" / "energy.json").read_text())
        mass = sl.load_snapshot(snap).mass()
        assert (mass > 0) == (amplitude > 0)
        assert doc["params"]["rho"] == (mass if amplitude else 1.0)

    def test_truncated_snapshot_is_config_error(self, tmp_path):
        grid = sl.make_grid(16, 8.0)
        snap, _ = make_gaussian_snapshot(tmp_path, grid)
        raw = Path(snap).read_bytes()
        Path(snap).write_bytes(raw[: len(raw) // 3])
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {"snapshot": snap, "params": {"alpha": 1, "beta": 1, "p": 2.5}},
        )
        assert run(["energy", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG


    def test_huge_grid_size_header_is_config_error(self, tmp_path):
        grid = sl.make_grid(16, 8.0)
        snap, _ = make_gaussian_snapshot(tmp_path, grid)
        raw = bytearray(Path(snap).read_bytes())
        raw[5:13] = np.array([2.0**44], dtype="<f8").tobytes()
        Path(snap).write_bytes(bytes(raw))
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {"snapshot": snap, "params": {"alpha": 1, "beta": 1, "p": 2.5}},
        )
        assert run(["energy", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def snapshot_config(command, path):
    """A config of ``command`` that reads the snapshot at ``path``: as its
    input (``energy``, ``verify``) or as its ``from_file`` start."""
    start = {"init_kind": "from_file", "init_path": str(path), "max_iters": 2}
    if command == "minimize":
        return {"grid": GRID16, "params": {**PARAMS}, "minimize": start}
    if command == "curve":
        params = {"alpha": 1.0, "beta": 1.0, "p": 2.5}
        return {"grid": GRID16, "params": params, "rhos": [0.1, 0.2], "minimize": start}
    if command == "scaling":
        return {
            "grid": GRID16,
            "params": {"alpha": 1.0, "beta": 1.0, "p": 8.0 / 3.0, "rho": 0.5},
            "experiment": "blowdown",
            "thetas": [1.0, 0.5],
            "init": {"kind": "from_file", "path": str(path)},
        }
    return {"snapshot": str(path), "params": {"alpha": 1, "beta": 1, "p": 2.5}}


class TestNonFiniteSnapshot:
    """A snapshot holding NaN or Inf is a numerical input error for every
    command that reads one, raised before the manifest is written."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("command", ["energy", "verify", "scaling", "minimize", "curve"])
    def test_exit_code_and_no_manifest(self, tmp_path, capsys, command, bad):
        grid = sl.make_grid(16, 8.0)
        values = sl.gaussian_field(grid, 1.0).values.copy()
        values[3, 4, 5] = bad
        path = tmp_path / "bad.spsf"
        sl.save_snapshot(sl.Field(grid, values), path)
        cfg = write_config(tmp_path, "cfg.json", snapshot_config(command, path))
        out = tmp_path / "o"
        assert run([command, "--config", cfg, "--out", str(out)]) == EXIT_NUMERICAL
        assert "snapshot contains NaN or Inf" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()


def missing_snapshot(tmp_path):
    return tmp_path / "missing.spsf"


def truncated_snapshot(tmp_path):
    path = tmp_path / "short.spsf"
    path.write_bytes(b"SPSF")
    return path


def wrong_grid_snapshot(tmp_path):
    path = tmp_path / "n32.spsf"
    sl.save_snapshot(sl.gaussian_field(sl.make_grid(32, 8.0), 1.0), path)
    return path


@pytest.mark.parametrize(
    "make_snapshot, message",
    [
        (missing_snapshot, "cannot read snapshot"),
        (truncated_snapshot, "is too short"),
        (wrong_grid_snapshot, "does not match the run grid"),
    ],
    ids=["missing", "truncated", "wrong-grid"],
)
@pytest.mark.parametrize("command", ["minimize", "curve"])
def test_rejected_snapshot_start_leaves_no_output(tmp_path, capsys, command, make_snapshot,
                                                 message):
    # the from_file start is read and checked before the manifest
    cfg = write_config(tmp_path, "cfg.json", snapshot_config(command, make_snapshot(tmp_path)))
    out = tmp_path / "o"
    assert run([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


class TestMinimizeCommand:
    def test_short_run_writes_files(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "grid": GRID16,
                "params": {"alpha": 0.0, "beta": 0.0, "p": 2.5, "rho": 0.3},
                "minimize": {"max_iters": 800, "grad_tol": 1e-7, "init_width": 2.0},
            },
        )
        out = tmp_path / "run"
        assert run(["minimize", "--config", cfg, "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "minimize"
        assert manifest["wall_time_s"] is not None
        assert manifest["grid"]["n"] == 16
        result = json.loads((out / "result.json").read_text())
        assert result["energy"]["total"] == pytest.approx(0.15, abs=1e-6)
        field = sl.load_snapshot(out / "field.spsf")
        assert field.grid.n == 16

    def test_zero_budget_valid_files(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "grid": GRID16,
                "params": {"alpha": 1.0, "beta": 1.0, "p": 2.5, "rho": 0.1},
                "minimize": {"max_iters": 0},
            },
        )
        out = tmp_path / "run"
        assert run(["minimize", "--config", cfg, "--out", str(out)]) == EXIT_OK
        result = json.loads((out / "result.json").read_text())
        assert result["converged"] is False and result["iterations"] == 0
        assert (out / "field.spsf").exists()

    def test_unbounded_regime_exit_code(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "grid": GRID16,
                "params": {"alpha": 1.0, "beta": 40.0, "p": 8.0 / 3.0, "rho": 40.0},
                "minimize": {
                    "max_iters": 500,
                    "init_width": 1.0,
                    "energy_floor": -200.0,
                },
            },
        )
        out = tmp_path / "run"
        assert run(["minimize", "--config", cfg, "--out", str(out)]) == EXIT_UNBOUNDED

        def refuse(name):
            raise ValueError(f"{name} is not JSON (RFC 8259)")

        with open(out / "unbounded.json") as fh:
            report = json.load(fh, parse_constant=refuse)
        # the gradient norm of the point past the floor is never computed
        assert report["trace"][-1][2] is None
        assert all(point[2] is not None for point in report["trace"][:-1])
        manifest = json.loads((out / "manifest.json").read_text())
        assert isinstance(manifest["wall_time_s"], float)

    @pytest.mark.parametrize("seeds", [[], [0, 1]], ids=["single", "multistart"])
    def test_unbounded_report_written_before_the_manifest_is_finalized(
        self, tmp_path, monkeypatch, seeds
    ):
        cli = importlib.import_module("spslab.cli")
        write_json = cli.write_json
        written = []

        def record(path, document):
            written.append(Path(path).name)
            write_json(path, document)

        def collapse(*args, **kwargs):
            raise sl.UnboundedEnergyError("energy fell below the floor", trace=[[0, -1.0, 0.0]])

        monkeypatch.setattr(cli, "write_json", record)
        monkeypatch.setattr(cli, "minimize", collapse)
        payload = {"grid": GRID16, "params": PARAMS, "minimize": {"init_kind": "random"}}
        if seeds:
            payload["seeds"] = seeds
        cfg = write_config(tmp_path, "cfg.json", payload)
        assert run(["minimize", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_UNBOUNDED
        reports = ["multistart.json"] if seeds else []
        assert written == ["manifest.json", *reports, "unbounded.json", "manifest.json"]

    def test_nan_trial_energy_exit_code(self, tmp_path, monkeypatch):
        minimize_module = importlib.import_module("spslab.minimize")
        evaluate = minimize_module.evaluate
        calls = []

        def nan_after_start(*args, **kwargs):
            ev = evaluate(*args, **kwargs)
            calls.append(ev)
            if len(calls) > 1:
                ev.breakdown = dataclasses.replace(ev.breakdown, total=float("nan"))
            return ev

        monkeypatch.setattr(minimize_module, "evaluate", nan_after_start)
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "grid": GRID16,
                "params": {"alpha": 1.0, "beta": 1.0, "p": 2.5, "rho": 0.1},
                "minimize": {"max_iters": 20},
            },
        )
        out = tmp_path / "run"
        assert run(["minimize", "--config", cfg, "--out", str(out)]) == EXIT_NUMERICAL
        assert not (out / "result.json").exists()
        # a run that raises after its manifest leaves it without a wall time
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
        assert json.loads((out / "manifest.json").read_text())["wall_time_s"] is None

    @pytest.mark.parametrize("max_iters", [0, 3])
    def test_nan_snapshot_start_exit_code(self, tmp_path, capsys, max_iters):
        grid = sl.make_grid(16, 8.0)
        values = sl.gaussian_field(grid, 1.0).values.copy()
        values[3, 4, 5] = np.nan
        path = tmp_path / "nan.spsf"
        sl.save_snapshot(sl.Field(grid, values), path)
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "grid": GRID16,
                "params": {"alpha": 1.0, "beta": 1.0, "p": 2.5, "rho": 0.1},
                "minimize": {
                    "max_iters": max_iters,
                    "init_kind": "from_file",
                    "init_path": str(path),
                },
            },
        )
        out = tmp_path / "run"
        assert run(["minimize", "--config", cfg, "--out", str(out)]) == EXIT_NUMERICAL
        assert "NaN or Inf" in capsys.readouterr().err
        assert not (out / "result.json").exists()

    def test_multistart_requires_random(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "grid": GRID16,
                "params": {"alpha": 1.0, "beta": 1.0, "p": 2.5, "rho": 0.1},
                "minimize": {"max_iters": 2},
                "seeds": [0, 1],
            },
        )
        assert run(["minimize", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_multistart_picks_best(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "grid": GRID16,
                "params": {"alpha": 1.0, "beta": 1.0, "p": 2.5, "rho": 0.1},
                "minimize": {"max_iters": 30, "init_kind": "random"},
                "seeds": [0, 1, 2],
            },
        )
        out = tmp_path / "run"
        assert run(["minimize", "--config", cfg, "--out", str(out)]) == EXIT_OK
        summaries = json.loads((out / "multistart.json").read_text())["seeds"]
        assert len(summaries) == 3
        best = min(s["energy"] for s in summaries)
        result = json.loads((out / "result.json").read_text())
        assert result["energy"]["total"] == best

    def test_integral_floats_are_read_as_ints(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "grid": {"n": 16.0, "box_length": 8.0},
                "params": {"alpha": 1.0, "beta": 1.0, "p": 2.5, "rho": 0.1},
                "minimize": {"max_iters": 3.0},
            },
        )
        out = tmp_path / "run"
        assert run(["minimize", "--config", cfg, "--out", str(out)]) == EXIT_OK
        result = json.loads((out / "result.json").read_text())
        grid, mconfig = result["grid"], result["config"]
        assert type(grid["n"]) is int and grid["n"] == 16
        assert type(mconfig["max_iters"]) is int and mconfig["max_iters"] == 3


class TestCurveCommand:
    def test_two_point_curve(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "grid": {"n": 16, "box_length": 32.0},
                "params": {"alpha": 1.0, "beta": 1.0, "p": 2.5},
                "rhos": [0.05, 0.1],
                "minimize": {"max_iters": 4000, "grad_tol": 1e-5, "init_width": 2.5},
            },
        )
        out = tmp_path / "run"
        assert run(["curve", "--config", cfg, "--out", str(out)]) == EXIT_OK
        meta, columns, rows = read_table(out / "curve.csv")
        assert meta["kind"] == "curve"
        assert columns[0] == "rho" and "ratio" in columns
        assert len(rows) == 2
        rhos = [float(r[0]) for r in rows]
        assert rhos == sorted(rhos)
        for row in rows:
            assert float(row[2]) == pytest.approx(float(row[1]) / float(row[0]), rel=1e-15)
        verdicts = json.loads((out / "verdicts.json").read_text())
        assert verdicts["converged"] is True
        assert verdicts["all_ratios_below_half"] is True

    def test_single_point_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "grid": GRID16,
                "params": {"alpha": 1.0, "beta": 1.0, "p": 2.5},
                "rhos": [0.1],
            },
        )
        assert run(["curve", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_saved_fields_one_file_per_rho(self, tmp_path):
        config = {
            "grid": GRID16,
            "params": {"alpha": 1.0, "beta": 1.0, "p": 2.5},
            "rhos": [0.05, 0.1],
            "minimize": {"max_iters": 2},
            "save_fields": True,
        }
        out = tmp_path / "run"
        cfg = write_config(tmp_path, "cfg.json", config)
        assert run(["curve", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert sorted(p.name for p in out.glob("*.spsf")) == [
            "field_rho_0.05.spsf",
            "field_rho_0.1.spsf",
        ]

    def test_colliding_snapshot_names_rejected(self, tmp_path, capsys):
        # 0.1 and 0.1000001 both format as "0.1": one snapshot would
        # overwrite the other
        config = {
            "grid": GRID16,
            "params": {"alpha": 1.0, "beta": 1.0, "p": 2.5},
            "rhos": [0.1, 0.1000001],
            "minimize": {"max_iters": 2},
            "save_fields": True,
        }
        out = tmp_path / "run"
        cfg = write_config(tmp_path, "cfg.json", config)
        assert run(["curve", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert "bad rhos" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()
        # without snapshots the same masses are a valid sweep
        config["save_fields"] = False
        cfg = write_config(tmp_path, "cfg.json", config)
        assert run(["curve", "--config", cfg, "--out", str(out)]) == EXIT_OK

    def test_unconverged_marks_verdicts_unavailable(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "grid": GRID16,
                "params": {"alpha": 1.0, "beta": 1.0, "p": 2.5},
                "rhos": [0.05, 0.1],
                "minimize": {"max_iters": 3},
            },
        )
        out = tmp_path / "run"
        assert run(["curve", "--config", cfg, "--out", str(out)]) == EXIT_OK
        verdicts = json.loads((out / "verdicts.json").read_text())
        assert verdicts["converged"] is False
        assert verdicts["all_ratios_below_half"] is None
        assert (out / "curve.csv").exists()


class TestBestConstantCommand:
    def test_estimate_and_verdicts(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "grid": GRID16,
                "ascent": {"steps": 5, "seed": 0},
                "pairs": [[1.0, 3.0], [16.0, 3.0]],
            },
        )
        out = tmp_path / "run"
        assert run(["best-constant", "--config", cfg, "--out", str(out)]) == EXIT_OK
        est = json.loads((out / "estimate.json").read_text())
        assert est["s_lower"] > 0.6
        meta, columns, rows = read_table(out / "verdicts.csv")
        assert columns == ["alpha", "beta", "lhs", "rhs_lower", "verdict"]
        assert len(rows) == 2
        assert (out / "maximizer.spsf").exists()

    def test_no_pairs_no_verdict_table(self, tmp_path):
        cfg = write_config(
            tmp_path, "cfg.json", {"grid": GRID16, "ascent": {"steps": 2}}
        )
        out = tmp_path / "run"
        assert run(["best-constant", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert not (out / "verdicts.csv").exists()


class TestScalingCommand:
    def test_blowdown_table(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "grid": {"n": 32, "box_length": 16.0},
                "experiment": "blowdown",
                "params": {"alpha": 1.0, "beta": 1.0, "p": 8.0 / 3.0, "rho": 0.05},
                "thetas": [1.0, 0.5],
                "init": {"kind": "gaussian", "width": 1.2},
            },
        )
        out = tmp_path / "run"
        assert run(["scaling", "--config", cfg, "--out", str(out)]) == EXIT_OK
        meta, columns, rows = read_table(out / "table.csv")
        assert meta["kind"] == "scaling-blowdown"
        assert len(rows) == 2
        summary = json.loads((out / "summary.json").read_text())
        assert summary["proceeded"] is True

    def test_snapshot_on_wrong_grid_is_config_error(self, tmp_path, capsys):
        snap, _ = make_gaussian_snapshot(tmp_path, sl.make_grid(32, 8.0))
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "grid": GRID16,
                "experiment": "blowdown",
                "params": {"alpha": 1.0, "beta": 1.0, "p": 8.0 / 3.0, "rho": 0.05},
                "thetas": [1.0, 0.5],
                "init": {"kind": "from_file", "path": snap},
            },
        )
        out = tmp_path / "run"
        assert run(["scaling", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        snap_grid, run_grid = sl.make_grid(32, 8.0).describe(), sl.make_grid(16, 8.0).describe()
        assert (
            f"snapshot grid {snap_grid} does not match the run grid {run_grid}"
            in capsys.readouterr().err
        )
        assert not (out / "manifest.json").exists()

    def test_blowup_sign_report(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "grid": {"n": 32, "box_length": 16.0},
                "experiment": "blowup",
                "params": {"alpha": 1.0, "beta": 1.0, "p": 8.0 / 3.0, "rho": 0.05},
                "thetas": [1.0, 2.0],
                "init": {"kind": "gaussian", "width": 1.2},
            },
        )
        out = tmp_path / "run"
        assert run(["scaling", "--config", cfg, "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["proceeded"] is False
        assert summary["e_tilde_base"] > 0

    def test_truncated_schedule_has_warning_rows(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "grid": {"n": 32, "box_length": 16.0},
                "experiment": "blowdown",
                "params": {"alpha": 1.0, "beta": 1.0, "p": 8.0 / 3.0, "rho": 0.05},
                "thetas": [1.0, 0.5, 0.01],
                "init": {"kind": "gaussian", "width": 1.2},
            },
        )
        out = tmp_path / "run"
        with pytest.warns(sl.ResolutionWarning):
            assert run(["scaling", "--config", cfg, "--out", str(out)]) == EXIT_OK
        meta, columns, rows = read_table(out / "table.csv")
        skipped = [r for r in rows if r[-1] == "skipped"]
        assert len(skipped) == 1 and float(skipped[0][0]) == 0.01
        summary = json.loads((out / "summary.json").read_text())
        assert summary["truncated"] is True


class TestVerifyCommand:
    def test_zero_field_passes_by_convention(self, tmp_path):
        grid = sl.make_grid(16, 8.0)
        path = tmp_path / "zero.spsf"
        sl.save_snapshot(sl.zero_field(grid), path)
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {"snapshot": str(path), "params": {"alpha": 1, "beta": 1, "p": 2.5}},
        )
        assert run(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK

    def test_exact_eigenpair_passes(self, tmp_path):
        grid = sl.make_grid(16, 8.0)
        path = tmp_path / "const.spsf"
        sl.save_snapshot(sl.constant_field(grid, 1.0), path)
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "snapshot": str(path),
                "params": {"alpha": 0.0, "beta": 0.0, "p": 2.5},
                "omega": 1.0,
            },
        )
        out = tmp_path / "o"
        assert run(["verify", "--config", cfg, "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is True

    def test_converged_minimizer_passes(self, tmp_path):
        # the README example at 32^3: a true minimizer whose virial residual
        # is 0.109 of its scale, which the default tolerances do not gate
        params = {"alpha": 1.0, "beta": 1.0, "p": 2.5, "rho": 0.1}
        cfg = write_config(
            tmp_path,
            "run.json",
            {
                "grid": {"n": 32, "box_length": 40.0},
                "params": params,
                "minimize": {"max_iters": 8000, "grad_tol": 5e-7, "init_width": 2.0},
            },
        )
        run_dir = tmp_path / "gs"
        assert run(["minimize", "--config", cfg, "--out", str(run_dir)]) == EXIT_OK
        assert json.loads((run_dir / "result.json").read_text())["converged"]
        verify_cfg = write_config(
            tmp_path,
            "verify.json",
            {"snapshot": str(run_dir / "field.spsf"), "params": params},
        )
        out = tmp_path / "v"
        assert run(["verify", "--config", verify_cfg, "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is True
        assert report["report"]["virial_rel"] > 1e-2
        # opting in to the virial gate rejects the same state; a misspelled
        # gate or a malformed block is a configuration error, not ignored
        for name, tolerances, code in (
            ("strict", {"virial_rel": 1e-4}, EXIT_VERIFY),
            ("typo", {"virial": 1e-4}, EXIT_CONFIG),
            ("list", [1e-4], EXIT_CONFIG),
            ("text", {"el_rel": "tight"}, EXIT_CONFIG),
        ):
            cfg = write_config(
                tmp_path,
                f"{name}.json",
                {
                    "snapshot": str(run_dir / "field.spsf"),
                    "params": params,
                    "tolerances": tolerances,
                },
            )
            assert run(["verify", "--config", cfg, "--out", str(tmp_path / name)]) == code

    def test_verify_reproduces_minimize_residuals(self, tmp_path):
        # the C4 problem at 16^3: verify of a run's own field, with omega
        # left to the report, is the certificate the run wrote, to the bit
        params = {"alpha": 1.0, "beta": 1.0, "p": 2.5, "rho": 0.05}
        cfg = write_config(
            tmp_path,
            "run.json",
            {
                "grid": {"n": 16, "box_length": 40.0},
                "params": params,
                "minimize": {"max_iters": 8000, "grad_tol": 5e-7, "init_width": 2.0},
            },
        )
        run_dir = tmp_path / "gs"
        assert run(["minimize", "--config", cfg, "--out", str(run_dir)]) == EXIT_OK
        result = json.loads((run_dir / "result.json").read_text())
        assert result["converged"]
        # at 16^3 the dilation residual sits near 1.6e-4, above the default
        # 1e-4 gate, so the gate is set to what this resolution reaches
        verify_cfg = write_config(
            tmp_path,
            "verify.json",
            {
                "snapshot": str(run_dir / "field.spsf"),
                "params": params,
                "tolerances": {"pohozaev_rel": 1e-3},
            },
        )
        out = tmp_path / "v"
        assert run(["verify", "--config", verify_cfg, "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())["report"]
        for key in ("virial_rel", "pohozaev_rel", "el_residual_rel"):
            assert report[key] == result["residuals"][key], key

    def test_params_variant_round_trips(self, tmp_path):
        # the kinetic variant is written where it is read, in the params
        # block: a run's own params block gives energy and verify its problem
        cfg = write_config(
            tmp_path,
            "run.json",
            {
                "grid": {"n": 16, "box_length": 16.0},
                "params": {"alpha": 1.0, "beta": 1.0, "p": 8.0 / 3.0, "rho": 0.05,
                           "variant": "homogeneous"},
                "minimize": {"max_iters": 20, "init_width": 2.0},
            },
        )
        run_dir = tmp_path / "gs"
        assert run(["minimize", "--config", cfg, "--out", str(run_dir)]) == EXIT_OK
        result = json.loads((run_dir / "result.json").read_text())
        assert result["params"]["variant"] == "homogeneous"
        assert "variant" not in result and "variant" not in result["config"]
        assert "initial_step" not in result["config"]
        inputs = {"snapshot": str(run_dir / "field.spsf"), "params": result["params"]}
        energy_cfg = write_config(tmp_path, "energy.json", inputs)
        assert run(["energy", "--config", energy_cfg, "--out", str(tmp_path / "e")]) == EXIT_OK
        energy_doc = json.loads((tmp_path / "e" / "energy.json").read_text())
        assert energy_doc["params"] == result["params"] and "variant" not in energy_doc
        assert energy_doc["energy"] == result["energy"]
        verify_cfg = write_config(
            tmp_path, "verify.json",
            {**inputs, "tolerances": {"pohozaev_rel": 1e9, "el_rel": 1e9}},
        )
        assert run(["verify", "--config", verify_cfg, "--out", str(tmp_path / "v")]) == EXIT_OK
        report_doc = json.loads((tmp_path / "v" / "report.json").read_text())
        assert report_doc["params"] == result["params"] and "variant" not in report_doc
        for key in ("virial_rel", "pohozaev_rel", "el_residual_rel"):
            assert report_doc["report"][key] == result["residuals"][key], key

    def test_off_minimizer_fails(self, tmp_path):
        grid = sl.make_grid(16, 8.0)
        snap, _ = make_gaussian_snapshot(tmp_path, grid)
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {"snapshot": snap, "params": {"alpha": 1.0, "beta": 1.0, "p": 2.5}},
        )
        out = tmp_path / "o"
        assert run(["verify", "--config", cfg, "--out", str(out)]) == EXIT_VERIFY
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is False


class TestConfigErrors:
    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run(["minimize", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_missing_config_file(self, tmp_path):
        assert (
            run(["minimize", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
            == EXIT_CONFIG
        )

    def test_out_of_range_parameter(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {"grid": GRID16, "params": {"alpha": 1.0, "beta": 1.0, "p": 3.5, "rho": 0.1}},
        )
        assert run(["minimize", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_unknown_minimize_key(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "grid": GRID16,
                "params": {"alpha": 1.0, "beta": 1.0, "p": 2.5, "rho": 0.1},
                "minimize": {"max_iter": 10},
            },
        )
        assert run(["minimize", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    @staticmethod
    def assert_one_line_config_error(capsys):
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_config_is_a_directory(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run(["minimize", "--config", str(tmp_path), "--out", str(out)]) == EXIT_CONFIG
        self.assert_one_line_config_error(capsys)
        assert not out.exists()

    def test_out_is_an_existing_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", {"grid": GRID16, "ascent": {"steps": 2}})
        out = tmp_path / "taken"
        out.write_text("kept")
        assert run(["best-constant", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        self.assert_one_line_config_error(capsys)
        assert out.read_text() == "kept"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "taken"]

    def test_out_below_a_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", {"grid": GRID16, "ascent": {"steps": 2}})
        parent = tmp_path / "taken"
        parent.write_text("kept")
        assert run(["best-constant", "--config", cfg, "--out", str(parent / "o")]) == EXIT_CONFIG
        self.assert_one_line_config_error(capsys)
        assert parent.read_text() == "kept"

    def test_config_not_utf8(self, tmp_path, capsys):
        # a UTF-16 byte-order mark: JSON text is UTF-8 (RFC 8259)
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        out = tmp_path / "o"
        assert run(["energy", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        self.assert_one_line_config_error(capsys)
        assert not out.exists()

    def test_unreadable_config(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path, "cfg.json", {"grid": GRID16, "ascent": {"steps": 2}})

        def denied(path, *args, **kwargs):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)

        # the module global shadows the builtin for the config read alone
        monkeypatch.setattr(importlib.import_module("spslab.cli"), "open", denied, raising=False)
        out = tmp_path / "o"
        assert run(["best-constant", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        self.assert_one_line_config_error(capsys)
        assert not out.exists()

    def test_out_cannot_be_made(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path, "cfg.json", {"grid": GRID16, "ascent": {"steps": 2}})

        def denied(self, *args, **kwargs):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(self))

        monkeypatch.setattr(Path, "mkdir", denied)
        out = tmp_path / "o"
        assert run(["best-constant", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        self.assert_one_line_config_error(capsys)
        assert not out.exists()


PARAMS ={"alpha": 1.0, "beta": 1.0, "p": 2.5, "rho": 0.1}


def malformed_configs(snap):
    """A valid config per command, to be broken one key at a time."""
    return {
        "energy": {"snapshot": snap, "params": {**PARAMS}},
        "scaling": {
            "grid": {**GRID16},
            "params": {**PARAMS, "p": 8.0 / 3.0},
            "experiment": "blowdown",
            "thetas": [1.0, 0.5],
            "init": {"kind": "gaussian", "width": 1.0},
        },
        "scaling from_file": {
            "grid": {**GRID16},
            "params": {**PARAMS, "p": 8.0 / 3.0},
            "experiment": "blowdown",
            "thetas": [1.0, 0.5],
            "init": {"kind": "from_file", "path": snap},
        },
        "curve": {"grid": {**GRID16}, "params": {**PARAMS}, "rhos": [0.1, 0.2]},
        "best-constant": {"grid": {**GRID16}, "ascent": {"steps": 2}, "pairs": [[1.0, 1.0]]},
        "verify": {"snapshot": snap, "params": {**PARAMS}, "omega": 1.0, "tolerances": {}},
        "minimize": {
            "grid": {**GRID16},
            "params": {**PARAMS},
            "minimize": {"init_kind": "random"},
            "seeds": [0, 1],
        },
    }


# run_malformed deletes a key set to this
ABSENT = object()


def run_rejected(tmp_path, command, config):
    """Run ``command`` on ``config``: it must exit 2 and leave no output
    directory."""
    cfg = write_config(tmp_path, "cfg.json", config)
    out = tmp_path / "o"
    assert run([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


def run_malformed(tmp_path, command, key, bad):
    """Set the dotted ``key`` of ``command``'s valid config to ``bad`` (or
    delete it, for ``ABSENT``) and run it through ``run_rejected``.  A word
    after the command picks one of its config variants
    (``"scaling from_file"``)."""
    snap, _ = make_gaussian_snapshot(tmp_path, sl.make_grid(16, 8.0))
    config = malformed_configs(snap)[command]
    block, _, leaf = key.rpartition(".")
    parent = config[block] if block else config
    if bad is ABSENT:
        del parent[leaf]
    else:
        parent[leaf] = bad
    run_rejected(tmp_path, command.split()[0], config)


@pytest.mark.parametrize(
    "command, key, bad",
    [
        ("scaling", "thetas", ["x"]),
        ("scaling", "init.width", "wide"),
        ("curve", "rhos", [0.1, "y"]),
        ("best-constant", "pairs", [[1.0, "z"]]),
        ("verify", "omega", "w"),
        ("minimize", "seeds", [0, "v"]),
        ("minimize", "params.alpha", "x"),
        ("minimize", "params.rho", True),
        ("minimize", "minimize.max_iters", "2"),
        ("minimize", "minimize.max_iters", 2.7),
        ("minimize", "minimize.grad_tol", None),
        ("minimize", "minimize.init_width", "w"),
        ("minimize", "grid.n", 16.5),
        ("best-constant", "ascent.steps", 2.5),
        ("best-constant", "pairs", [[1.0, 2.0, 3.0]]),
        ("curve", "save_fields", "no"),
        ("verify", "tolerances.el_rel", True),
        ("energy", "snapshot", 5),
        # NaN and Infinity parse as JSON numbers but are not finite
        ("scaling", "thetas", [float("nan")]),
        ("scaling from_file", "thetas", [float("nan")]),
        ("best-constant", "pairs", [[float("nan"), 1.0]]),
        ("verify", "omega", float("inf")),
        ("verify", "tolerances.el_rel", float("nan")),
        # nonpositive couplings are refused before the ascent runs
        ("best-constant", "pairs", [[0, 1]]),
        ("best-constant", "pairs", [[1, -2]]),
    ],
)
def test_non_numeric_config_number_is_config_error(tmp_path, capsys, command, key, bad):
    run_malformed(tmp_path, command, key, bad)
    assert f"bad {key}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, key, bad",
    [
        ("minimize", "variant", "homogeneous"),
        ("energy", "grid", GRID16),
        ("curve", "seeds", [0, 1]),
        ("minimize", "grid.m", 1),
        ("scaling", "params.gamma", 1.0),
        ("scaling", "init.widht", 1.0),
        ("minimize", "params", [1]),
        ("best-constant", "ascent", [1]),
        ("scaling", "grid", 16),
        ("scaling", "init", "gaussian"),
        # the flow's Armijo constants and its in-loop recentering are fixed
        ("minimize", "minimize.backtrack_factor", 0.5),
        ("minimize", "minimize.armijo_c", 1e-4),
        ("minimize", "minimize.recenter_every", 0),
        # the kinetic variant is a params key and the step cap follows it
        ("minimize", "minimize.variant", "homogeneous"),
        ("energy", "variant", "homogeneous"),
        ("verify", "variant", "homogeneous"),
    ],
)
def test_unknown_key_or_non_object_block_is_config_error(
    tmp_path, capsys, command, key, bad
):
    run_malformed(tmp_path, command, key, bad)
    err = capsys.readouterr().err
    assert ("unknown" in err and key.rpartition(".")[2] in err) or f"bad {key}" in err


@pytest.mark.parametrize(
    "key, bad",
    [
        ("params.p", 2.5),
        ("thetas", []),
        ("thetas", [1.0, 0.0]),
        ("thetas", [1.0, -0.5]),
        ("thetas", [0.5, 1.0]),
    ],
)
def test_scaling_range_error_leaves_no_manifest(tmp_path, capsys, key, bad):
    # p != 8/3, and an empty, non-positive or (for blow-down) increasing
    # schedule, are refused before any file is written
    run_malformed(tmp_path, "scaling", key, bad)
    err = capsys.readouterr().err
    assert ("p = 8/3" in err) if key == "params.p" else ("theta" in err)


RANGE_ERRORS = [
    # a non-positive ascent start width is refused before the output
    # directory is made: 0.0 is not read as unset (L/10), and -1.0 does not
    # fail inside the ascent
    ("best-constant", "ascent.init_width", 0.0, "init_width must be positive"),
    ("best-constant", "ascent.init_width", -1.0, "init_width must be positive"),
    ("best-constant", "ascent.steps", 0, "ascent budget must be >= 1"),
    ("best-constant", "ascent.step_size", 0.0, "ascent step size must be positive"),
    ("best-constant", "ascent.init_kind", "flat", "ascent init must be gaussian or random"),
    ("minimize", "minimize.grad_tol", 0.0, "grad_tol must be positive"),
    # the step cap is STEP_CAP[params.variant], no longer a minimize key
    ("minimize", "minimize.initial_step", 0.0, "unknown minimize config keys: ['initial_step']"),
    # a negative seed is refused before np.random.default_rng sees it
    ("minimize", "minimize.init_seed", -1, "init_seed must be >= 0"),
    ("minimize", "seeds", [0, -1], "each seed must be >= 0"),
    ("best-constant", "ascent.seed", -2, "ascent seed must be >= 0"),
    ("verify", "tolerances.pohozaev_rel", -1.0, "tolerances.pohozaev_rel must be positive"),
    ("minimize", "params.variant", "mixed", "variant must be one of"),
    ("scaling", "params.variant", "homogeneous", "require the inhomogeneous variant"),
    ("minimize", "minimize.init_kind", "flat", "init_kind must be gaussian, random"),
    ("minimize", "minimize.init_width", 0.0, "init_width must be positive"),
    ("minimize", "grid", ABSENT, "run config is missing the key 'grid'"),
    ("minimize", "params.alpha", ABSENT, "params block is missing the key 'alpha'"),
    ("scaling", "init.kind", "random", "scaling init kind must be gaussian or from_file"),
    ("scaling", "init.kind", "from_file", "scaling init config is missing the key 'path'"),
    ("scaling", "experiment", "sideways", "experiment must be blowup or blowdown"),
    # every point's Params is built before the manifest
    ("curve", "rhos", [0.1, -0.1], "rho must be positive"),
]


@pytest.mark.parametrize(
    "command, key, bad, message",
    RANGE_ERRORS,
    ids=[f"{c}-{k}-{'absent' if b is ABSENT else b}" for c, k, b, _ in RANGE_ERRORS],
)
def test_range_error_leaves_no_output(tmp_path, capsys, command, key, bad, message):
    run_malformed(tmp_path, command, key, bad)
    assert message in capsys.readouterr().err


def test_non_object_config_root_leaves_no_output(tmp_path, capsys):
    snap, _ = make_gaussian_snapshot(tmp_path, sl.make_grid(16, 8.0))
    run_rejected(tmp_path, "minimize", [malformed_configs(snap)["minimize"]])
    assert "config root must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag",
    # no command takes a flag other than --config and --out
    [(c, "--seed") for c in COMMANDS] + [(c, "--workers") for c in COMMANDS],
)
def test_unread_flags_are_rejected(tmp_path, command, flag):
    argv = [command, "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "o")]
    with pytest.raises(SystemExit) as info:
        run([*argv, flag, "2"])
    assert info.value.code == 2
    assert not (tmp_path / "o").exists()


class TestReproducibility:
    def test_identical_configs_identical_results(self, tmp_path):
        payload = {
            "grid": GRID16,
            "params": {"alpha": 1.0, "beta": 1.0, "p": 2.5, "rho": 0.1},
            "minimize": {"max_iters": 40, "grad_tol": 1e-7, "init_width": 2.0},
        }
        cfg = write_config(tmp_path, "cfg.json", payload)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run(["minimize", "--config", cfg, "--out", str(out1)]) == EXIT_OK
        assert run(["minimize", "--config", cfg, "--out", str(out2)]) == EXIT_OK
        r1 = json.loads((out1 / "result.json").read_text())
        r2 = json.loads((out2 / "result.json").read_text())
        assert r1 == r2
        assert (out1 / "field.spsf").read_bytes() == (out2 / "field.spsf").read_bytes()
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        m1.pop("wall_time_s"), m2.pop("wall_time_s")
        assert m1 == m2

"""Command-line driver: config-file runs with persisted, reproducible output.

Subcommands: ``energy``, ``minimize``, ``curve``, ``best-constant``,
``scaling``, ``verify``.  Every run takes a JSON config (``--config``) and
an output directory (``--out``), and no other flag; the multi-start seeds
of ``minimize`` run one after another in the command's process.  A command
first reads and checks its whole input, a snapshot start included; only
then does it write ``manifest.json`` (config echo, code version, grid
metadata), before its result documents, tables, and field snapshots.  The
manifest closes itself with ``wall_time_s`` when the command returns, and
keeps it null when the command raises.  A config that is rejected leaves
no output directory.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 unbounded regime detected, 5 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .bestconst import AscentConfig, classify_boundedness, estimate_best_constant
from .energy import energy as energy_of
from .errors import (
    ConfigurationError,
    DegenerateFieldError,
    NumericalFailureError,
    NumericalInputError,
    SnapshotFormatError,
    SpsLabError,
    UnboundedEnergyError,
)
from .experiments import (
    TABLE_COLUMNS,
    _check_critical,
    _validated_thetas,
    blowdown_experiment,
    blowup_experiment,
)
from .fields import (
    Field,
    boundary_mass_fraction,
    export_abs_slice,
    load_snapshot,
    save_snapshot,
)
from .grid import Grid, make_grid
from .identities import identity_report
from .minimize import GroundStateResult, MinimizeConfig, _checked_start, _start_field, minimize
# perfbench/tracing.py wraps this by attribute on this module
from .minimize import project_mass  # noqa: F401
from .params import Params, read_block, read_list, read_value
from .reporting import write_json, write_table

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_UNBOUNDED = 4
EXIT_VERIFY = 5


@dataclass(frozen=True)
class _Tolerances:
    """``verify`` gates on the relative residuals.

    At a constrained minimizer the virial residual equals
    2 rho^2 d/drho [I(rho)/rho], nonzero away from stationary masses of the
    ratio curve, so ``virial_rel`` is gated only when a config sets it.
    """

    pohozaev_rel: float = 1.0e-4
    el_rel: float = 1.0e-6
    virial_rel: float | None = None

    def __post_init__(self) -> None:
        for key, tol in self.gates().items():
            if tol <= 0:
                raise ConfigurationError(f"tolerances.{key} must be positive, got {tol}")

    def gates(self) -> dict:
        return {key: tol for key, tol in asdict(self).items() if tol is not None}


DEFAULT_VERIFY_TOLERANCES = _Tolerances().gates()


@dataclass(frozen=True)
class _ScalingInit:
    """``scaling`` starting field: a Gaussian (width default L/8) or a
    snapshot file."""

    kind: str = "gaussian"
    width: float | None = None
    path: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("gaussian", "from_file"):
            raise ConfigurationError(
                f"scaling init kind must be gaussian or from_file, got {self.kind!r}"
            )
        if self.kind == "from_file" and self.path is None:
            raise ConfigurationError("scaling init config is missing the key 'path'")


CURVE_COLUMNS = (
    "rho",
    "i_rho",
    "ratio",
    "converged",
    "iterations",
    "virial_rel",
    "pohozaev_rel",
    "el_rel",
    "h_half_sq",
)

VERDICT_COLUMNS = ("alpha", "beta", "lhs", "rhs_lower", "verdict")


class _Manifest:
    """The run manifest, opened once a command's input is read and checked.

    Making it makes ``--out`` and writes ``manifest.json`` before any result
    file.  As a context manager around the command's computation, writes
    and summary, it writes the manifest again with ``wall_time_s`` when the
    block returns, and leaves ``wall_time_s`` null when the block raises.
    """

    def __init__(self, out_dir: Path, command: str, config: dict, grid: Grid):
        self.path = out_dir / "manifest.json"
        self.started = time.monotonic()
        # the first write of a run: an --out that cannot be made is a
        # configuration error, a failed write later on is not
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError(f"--out {out_dir}: {exc.strerror}") from exc
        self.document = {
            "command": command,
            "config": config,
            "version": __version__,
            "grid": grid.describe(),
            "wall_time_s": None,
        }
        write_json(self.path, self.document)

    def __enter__(self) -> "_Manifest":
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        if exc_type is None:
            self.document["wall_time_s"] = time.monotonic() - self.started
            write_json(self.path, self.document)


def _require(config: dict, key: str, context: str):
    if key not in config:
        raise ConfigurationError(f"{context} config is missing the key {key!r}")
    return config[key]


def _grid_from_config(config: dict) -> Grid:
    return read_block(Grid, _require(config, "grid", "run"), "grid", make=make_grid)


def _params_from_config(config: dict, rho_fallback: float | None = None) -> Params:
    """The ``params`` block; ``rho_fallback`` stands in for an absent or
    null ``rho``."""
    block = _require(config, "params", "run")
    if rho_fallback is None or (isinstance(block, dict) and block.get("rho") is not None):
        return read_block(Params, block, "params")
    return read_block(Params, block, "params", rho=rho_fallback)


def _minimize_config(config: dict) -> MinimizeConfig:
    return read_block(MinimizeConfig, config.get("minimize", {}), "minimize")


def _snapshot_inputs(config: dict) -> tuple[Field, Params]:
    """The field and params of ``energy`` and ``verify``.

    NaN or Inf samples are a numerical input error, raised before any
    output is written.  rho does not enter the energy; an absent one is the
    snapshot's mass.
    """
    field = load_snapshot(read_value(_require(config, "snapshot", "run"), str, "snapshot"))
    field.require_finite("snapshot")
    params = _params_from_config(config, rho_fallback=field.mass() or 1.0)
    return field, params


def _snapshot_start(kind: str, path: str | None, grid: Grid) -> Field | None:
    """The start of a ``from_file`` ``kind`` (None for any other): the
    snapshot at ``path``, read and checked to lie on ``grid`` and be finite
    before any output is written."""
    return _checked_start(load_snapshot(path), grid) if kind == "from_file" else None


def _result_files(out: Path, result: GroundStateResult, params: Params,
                  config: MinimizeConfig) -> None:
    write_json(out / "result.json", result.to_document(params, config))
    save_snapshot(result.field, out / "field.spsf")
    export_abs_slice(result.field, out / "slice.csv")


def cmd_energy(config: dict, out: Path) -> int:
    field, params = _snapshot_inputs(config)
    with _Manifest(out, "energy", config, field.grid):
        # one density serves the shell fraction and the energy, which
        # frees it after its transform
        density = [field.density()]
        fraction = boundary_mass_fraction(field, density[0])
        breakdown = energy_of(field, params, density)
        document = {
            "params": params.to_dict(),
            "grid": field.grid.describe(),
            "energy": breakdown.to_dict(),
            "boundary_mass_fraction": fraction,
        }
        write_json(out / "energy.json", document)
        export_abs_slice(field, out / "slice.csv")
        print(json.dumps(document["energy"], indent=2, sort_keys=True))
        return EXIT_OK


def _run_seed(
    grid: Grid, params: Params, config: MinimizeConfig
) -> tuple[dict, GroundStateResult | None]:
    """One start of a multi-start run: (summary, result or None if unbounded)."""
    seed = config.init_seed
    try:
        result = minimize(grid, params, config)
    except UnboundedEnergyError as exc:
        return {"seed": seed, "unbounded": True, "error": str(exc)}, None
    summary = {
        "seed": seed,
        "unbounded": False,
        "energy": result.energy.total,
        "converged": result.converged,
        "iterations": result.iterations,
    }
    return summary, result


def cmd_minimize(config: dict, out: Path) -> int:
    grid = _grid_from_config(config)
    params = _params_from_config(config)
    mconfig = _minimize_config(config)
    seeds = read_list(config.get("seeds", []), int, "seeds")
    if seeds and mconfig.init_kind != "random":
        raise ConfigurationError("multi-start 'seeds' requires init_kind 'random'")
    if any(s < 0 for s in seeds):
        raise ConfigurationError(f"bad seeds {seeds!r}: each seed must be >= 0")
    initial = _snapshot_start(mconfig.init_kind, mconfig.init_path, grid)

    with _Manifest(out, "minimize", config, grid):
        if seeds:
            outcomes = [_run_seed(grid, params, replace(mconfig, init_seed=s)) for s in seeds]
            summaries = [summary for summary, _ in outcomes]
            write_json(out / "multistart.json", {"seeds": summaries})
            finished = [(s["energy"], s["seed"], r) for s, r in outcomes if r is not None]
            if not finished:
                # all seeds collapsed: the unbounded signature
                write_json(out / "unbounded.json", {"seeds": summaries})
                print("unbounded regime detected on every start")
                return EXIT_UNBOUNDED
            _, best_seed, result = min(finished, key=lambda item: item[:2])
            best_config = replace(mconfig, init_seed=best_seed)
        else:
            try:
                result = minimize(grid, params, mconfig, initial=initial)
            except UnboundedEnergyError as exc:
                write_json(out / "unbounded.json", {"message": str(exc), "trace": exc.trace})
                print(f"unbounded regime detected: {exc}")
                return EXIT_UNBOUNDED
            best_config = mconfig

        _result_files(out, result, params, best_config)
        print(
            f"energy {result.energy.total:.10g}  omega {result.omega:.10g}  "
            f"converged {result.converged}  iterations {result.iterations}"
        )
        return EXIT_OK


def cmd_curve(config: dict, out: Path) -> int:
    grid = _grid_from_config(config)
    rhos = read_list(_require(config, "rhos", "curve"), float, "rhos")
    if len(rhos) < 2:
        raise ConfigurationError("curve needs at least 2 rho values")
    base = _require(config, "params", "curve")
    mconfig = _minimize_config(config)
    save_fields = read_value(config.get("save_fields", False), bool, "save_fields")
    snapshot_names = [f"field_rho_{rho:g}.spsf" for rho in rhos]
    if save_fields and len(set(snapshot_names)) < len(rhos):
        raise ConfigurationError(
            f"bad rhos {rhos!r}: with save_fields two of them would write the same "
            "snapshot file name (field_rho_<rho:g>.spsf)"
        )
    # every point's parameters are validated before any computation starts
    sweep = [(rho, read_block(Params, base, "params", rho=rho)) for rho in rhos]
    # a from_file start is the first point's warm start
    warm = _snapshot_start(mconfig.init_kind, mconfig.init_path, grid)

    with _Manifest(out, "curve", config, grid):
        points = []
        for (rho, params), name in zip(sweep, snapshot_names):
            result = minimize(grid, params, mconfig, initial=warm)
            warm = result.field
            points.append((rho, params, result))
            if save_fields:
                save_snapshot(result.field, out / name)

        points.sort(key=lambda item: item[0])
        rows = []
        for rho, params, result in points:
            rows.append(
                [
                    rho,
                    result.energy.total,
                    result.energy.total / rho,
                    result.converged,
                    result.iterations,
                    result.residuals.virial_rel,
                    result.residuals.pohozaev_rel,
                    result.residuals.el_residual_rel,
                    result.energy.norms.h_half_sq,
                ]
            )
        write_table(out / "curve.csv", "curve", CURVE_COLUMNS, rows)

        # the ratio verdicts are None unless every point converged
        converged = all(result.converged for _, _, result in points)
        ratios = [row[2] for row in rows]  # sorted by increasing rho
        verdicts = {
            "all_ratios_below_half": all(r < 0.5 for r in ratios) if converged else None,
            "ratios_increase_as_rho_decreases": all(
                ratios[i] > ratios[i + 1] for i in range(len(ratios) - 1)
            ) if converged else None,
            "converged": converged,
        }
        write_json(out / "verdicts.json", verdicts)
        print(json.dumps(verdicts, indent=2, sort_keys=True))
        return EXIT_OK


def cmd_best_constant(config: dict, out: Path) -> int:
    grid = _grid_from_config(config)
    ascent = read_block(AscentConfig, config.get("ascent", {}), "ascent")
    pairs = [read_list(p, float, "pairs") for p in read_list(config.get("pairs", []), list, "pairs")]
    if any(len(pair) != 2 for pair in pairs):
        raise ConfigurationError(f"bad pairs {pairs!r}: each pair is [alpha, beta]")
    # checked before the ascent, as ``classify_boundedness`` would after it
    if any(a <= 0 or b <= 0 for a, b in pairs):
        raise ConfigurationError(f"bad pairs {pairs!r}: alpha and beta must be positive")

    with _Manifest(out, "best-constant", config, grid):
        estimate = estimate_best_constant(grid, ascent)
        write_json(out / "estimate.json", estimate.to_document(ascent))
        save_snapshot(estimate.maximizer, out / "maximizer.spsf")

        if pairs:
            rows = []
            for alpha, beta in pairs:
                verdict = classify_boundedness(alpha, beta, estimate.s_lower)
                rows.append([alpha, beta, verdict.lhs, verdict.rhs_lower, verdict.verdict])
            write_table(out / "verdicts.csv", "threshold", VERDICT_COLUMNS, rows)
        print(f"s_lower {estimate.s_lower:.10g}  ({len(pairs)} verdicts)")
        return EXIT_OK


def cmd_scaling(config: dict, out: Path) -> int:
    grid = _grid_from_config(config)
    params = _params_from_config(config)
    experiment = _require(config, "experiment", "scaling")
    if experiment not in ("blowup", "blowdown"):
        raise ConfigurationError(
            f"experiment must be blowup or blowdown, got {experiment!r}"
        )
    thetas = read_list(_require(config, "thetas", "scaling"), float, "thetas")
    _check_critical(params)
    thetas = _validated_thetas(thetas, increasing=experiment == "blowup")
    init = read_block(_ScalingInit, config.get("init", {}), "init")
    snapshot = _snapshot_start(init.kind, init.path, grid)
    field, profile = _start_field(grid, params.rho, init.kind, init.width, initial=snapshot)

    with _Manifest(out, "scaling", config, grid):
        follow = blowup_experiment if experiment == "blowup" else blowdown_experiment
        result = follow(field, params, thetas, profile=profile)

        rows = [r.to_list() for r in result.rows]
        for theta in result.skipped_thetas:
            rows.append([theta, np.nan, np.nan, np.nan, np.nan, np.nan, "skipped"])
        write_table(out / "table.csv", f"scaling-{experiment}", TABLE_COLUMNS, rows)
        write_json(out / "summary.json", result.to_document())
        if not result.proceeded:
            print(
                f"homogeneous energy of the seed is {result.e_tilde_base:.6g} >= 0; "
                "blow-up needs a negative seed (sign report written)"
            )
        else:
            print(
                f"{experiment}: {len(result.rows)} rows, base homogeneous energy "
                f"{result.e_tilde_base:.6g}"
                + (", schedule truncated" if result.truncated else "")
            )
        return EXIT_OK


def cmd_verify(config: dict, out: Path) -> int:
    field, params = _snapshot_inputs(config)
    omega = config.get("omega")
    if omega is not None:
        omega = read_value(omega, float, "omega")
    tolerances = read_block(_Tolerances, config.get("tolerances", {}), "tolerances").gates()

    with _Manifest(out, "verify", config, field.grid):
        report = identity_report(field, params, omega=omega)
        measured = {
            "virial_rel": report.virial_rel,
            "pohozaev_rel": report.pohozaev_rel,
            "el_rel": report.el_residual_rel,
        }
        passed = all(measured[key] <= tol for key, tol in tolerances.items())
        document = {
            "params": params.to_dict(),
            "tolerances": tolerances,
            "report": report.to_dict(),
            "passed": passed,
        }
        write_json(out / "report.json", document)
        print(json.dumps(document["report"], indent=2, sort_keys=True))
        return EXIT_OK if passed else EXIT_VERIFY


# each command with the top-level config keys it reads
COMMANDS = {
    "energy": (cmd_energy, ("snapshot", "params")),
    "minimize": (cmd_minimize, ("grid", "params", "minimize", "seeds")),
    "curve": (cmd_curve, ("grid", "params", "rhos", "minimize", "save_fields")),
    "best-constant": (cmd_best_constant, ("grid", "ascent", "pairs")),
    "scaling": (cmd_scaling, ("grid", "params", "experiment", "thetas", "init")),
    "verify": (cmd_verify, ("snapshot", "params", "omega", "tolerances")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spslab",
        description="Ground states and scaling experiments for "
        "semi-relativistic Schrodinger-Poisson-Slater energies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="JSON run configuration")
        cmd.add_argument("--out", default="runs", help="output directory")
    return parser


def _load_config(path: str) -> dict:
    """The JSON object in the config file ``path``, read as UTF-8 (RFC
    8259); a file that cannot be read or decoded is a configuration error."""
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"--config {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"--config {path}: not UTF-8 ({exc.reason})") from exc
    if not isinstance(config, dict):
        raise ConfigurationError("config root must be a JSON object")
    return config


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        command, keys = COMMANDS[args.command]
        unknown = set(config) - set(keys)
        if unknown:
            raise ConfigurationError(
                f"unknown top-level keys {sorted(unknown)}: {args.command} reads {list(keys)}"
            )
        return command(config, Path(args.out))
    except (ConfigurationError, SnapshotFormatError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except UnboundedEnergyError as exc:
        # commands that expect this handle it themselves; reaching here means
        # a component signalled collapse outside a minimize run
        print(f"unbounded regime detected: {exc}", file=sys.stderr)
        return EXIT_UNBOUNDED
    except (NumericalFailureError, NumericalInputError, DegenerateFieldError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except SpsLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

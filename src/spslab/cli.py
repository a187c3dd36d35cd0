"""Command-line driver: config-file runs with persisted, reproducible output.

Subcommands: ``energy``, ``minimize``, ``curve``, ``best-constant``,
``scaling``, ``verify``.  Every run takes a JSON config (``--config``) and
an output directory (``--out``); it writes ``manifest.json`` (config echo,
code version, grid metadata, wall time) before any result file, then its
result documents, tables, and field snapshots.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 unbounded regime detected, 5 verification failure.
"""

from __future__ import annotations

import argparse
import json
import pickle
import sys
import time
from concurrent.futures import ProcessPoolExecutor
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
from .experiments import TABLE_COLUMNS, blowdown_experiment, blowup_experiment
from .fields import (
    Field,
    GaussianProfile,
    boundary_mass_fraction,
    export_abs_slice,
    load_snapshot,
    save_snapshot,
)
from .grid import Grid, make_grid
from .identities import identity_report
from .minimize import GroundStateResult, MinimizeConfig, minimize, project_mass
from .params import Params, check_variant
from .reporting import write_json, write_table

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_UNBOUNDED = 4
EXIT_VERIFY = 5

# At a constrained minimizer the virial residual equals
# 2 rho^2 d/drho [I(rho)/rho], nonzero away from stationary masses of the
# ratio curve, so "virial_rel" is gated only when a config sets it.
DEFAULT_VERIFY_TOLERANCES = {
    "pohozaev_rel": 1.0e-4,
    "el_rel": 1.0e-6,
}
VERIFY_TOLERANCE_KEYS = ("virial_rel", "pohozaev_rel", "el_rel")

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
    """Run manifest written before results and finalized with the wall time."""

    def __init__(self, out_dir: Path, command: str, config: dict, grid: Grid | None):
        self.path = out_dir / "manifest.json"
        self.started = time.monotonic()
        self.document = {
            "command": command,
            "config": config,
            "version": __version__,
            "grid": grid.describe() if grid is not None else None,
            "wall_time_s": None,
        }
        write_json(self.path, self.document)

    def finalize(self) -> None:
        self.document["wall_time_s"] = time.monotonic() - self.started
        write_json(self.path, self.document)


def _require(config: dict, key: str, context: str):
    if key not in config:
        raise ConfigurationError(f"{context} config is missing the key {key!r}")
    return config[key]


def _convert(key: str, value, convert):
    """``convert(value)``; a value it rejects is a configuration error."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad {key} {value!r}: {exc}") from exc


def _float_list(values) -> list[float]:
    return [float(v) for v in values]


def _grid_from_config(config: dict) -> Grid:
    block = _require(config, "grid", "run")
    try:
        return make_grid(int(block["n"]), float(block["box_length"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad grid block {block!r}: {exc}") from exc


def _params_from_config(config: dict, rho_fallback: float | None = None) -> Params:
    block = dict(_require(config, "params", "run"))
    if block.get("rho") is None and rho_fallback is not None:
        block["rho"] = rho_fallback
    return Params.from_dict(block)


def _minimize_config(config: dict, seed_override: int | None) -> MinimizeConfig:
    block = dict(config.get("minimize", {}))
    if seed_override is not None:
        block["init_seed"] = seed_override
    return MinimizeConfig.from_dict(block)


def _variant(config: dict) -> str:
    return check_variant(config.get("variant", "inhomogeneous"))


def _load_snapshot_field(config: dict) -> Field:
    path = _require(config, "snapshot", "run")
    return load_snapshot(path)


def _result_files(out: Path, result: GroundStateResult, params: Params,
                  config: MinimizeConfig) -> None:
    write_json(out / "result.json", result.to_document(params, config))
    save_snapshot(result.field, out / "field.spsf")
    export_abs_slice(result.field, out / "slice.csv")


def cmd_energy(config: dict, out: Path, workers: int, seed: int | None) -> int:
    field = _load_snapshot_field(config)
    params = _params_from_config(config, rho_fallback=field.mass() or 1.0)
    variant = _variant(config)
    manifest = _Manifest(out, "energy", config, field.grid)
    breakdown = energy_of(field, params, variant=variant)
    document = {
        "params": params.to_dict(),
        "variant": variant,
        "grid": field.grid.describe(),
        "energy": breakdown.to_dict(),
        "boundary_mass_fraction": boundary_mass_fraction(field),
    }
    write_json(out / "energy.json", document)
    export_abs_slice(field, out / "slice.csv")
    manifest.finalize()
    print(json.dumps(document["energy"], indent=2, sort_keys=True))
    return EXIT_OK


def _run_seed(task: tuple) -> tuple[int, dict, bytes | None]:
    """Worker for multi-start runs; returns (seed, summary, pickled result)."""
    n, box_length, params_dict, config_dict, seed = task
    grid = make_grid(n, box_length)
    params = Params.from_dict(params_dict)
    config = MinimizeConfig.from_dict({**config_dict, "init_seed": seed})
    try:
        result = minimize(grid, params, config)
    except UnboundedEnergyError as exc:
        return seed, {"seed": seed, "unbounded": True, "error": str(exc)}, None
    summary = {
        "seed": seed,
        "unbounded": False,
        "energy": result.energy.total,
        "converged": result.converged,
        "iterations": result.iterations,
    }
    return seed, summary, pickle.dumps(result)


def cmd_minimize(config: dict, out: Path, workers: int, seed: int | None) -> int:
    grid = _grid_from_config(config)
    params = _params_from_config(config)
    mconfig = _minimize_config(config, seed)
    seeds = config.get("seeds")
    if seeds:
        seeds = _convert("seeds", seeds, lambda ss: [int(s) for s in ss])
    manifest = _Manifest(out, "minimize", config, grid)

    if seeds:
        if mconfig.init_kind != "random":
            raise ConfigurationError(
                "multi-start 'seeds' requires init_kind 'random'"
            )
        tasks = [
            (grid.n, grid.box_length, params.to_dict(), mconfig.to_dict(), s)
            for s in seeds
        ]
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                outcomes = list(pool.map(_run_seed, tasks))
        else:
            outcomes = [_run_seed(t) for t in tasks]
        summaries = [o[1] for o in outcomes]
        write_json(out / "multistart.json", {"seeds": summaries})
        finished = [
            (o[1]["energy"], o[0], o[2]) for o in outcomes if o[2] is not None
        ]
        if not finished:
            # all seeds collapsed: the unbounded signature
            manifest.finalize()
            write_json(out / "unbounded.json", {"seeds": summaries})
            print("unbounded regime detected on every start")
            return EXIT_UNBOUNDED
        finished.sort(key=lambda item: (item[0], item[1]))
        result = pickle.loads(finished[0][2])
        best_config = MinimizeConfig.from_dict(
            {**mconfig.to_dict(), "init_seed": finished[0][1]}
        )
    else:
        try:
            result = minimize(grid, params, mconfig)
        except UnboundedEnergyError as exc:
            write_json(
                out / "unbounded.json",
                {"message": str(exc), "trace": exc.trace},
            )
            manifest.finalize()
            print(f"unbounded regime detected: {exc}")
            return EXIT_UNBOUNDED
        best_config = mconfig

    _result_files(out, result, params, best_config)
    manifest.finalize()
    print(
        f"energy {result.energy.total:.10g}  omega {result.omega:.10g}  "
        f"converged {result.converged}  iterations {result.iterations}"
    )
    return EXIT_OK


def cmd_curve(config: dict, out: Path, workers: int, seed: int | None) -> int:
    grid = _grid_from_config(config)
    rhos = _convert("rhos", _require(config, "rhos", "curve"), _float_list)
    if len(rhos) < 2:
        raise ConfigurationError("curve needs at least 2 rho values")
    if any(r <= 0 for r in rhos):
        raise ConfigurationError("curve rho values must be positive")
    base = dict(_require(config, "params", "curve"))
    mconfig = _minimize_config(config, seed)
    save_fields = bool(config.get("save_fields", False))
    # every point's parameters are validated before any computation starts
    sweep = [(rho, Params.from_dict({**base, "rho": rho})) for rho in rhos]
    manifest = _Manifest(out, "curve", config, grid)

    points = []
    warm: Field | None = None
    for rho, params in sweep:
        result = minimize(grid, params, mconfig, initial=warm)
        warm = result.field
        points.append((rho, params, result))
        if save_fields:
            save_snapshot(result.field, out / f"field_rho_{rho:g}.spsf")

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

    all_converged = all(result.converged for _, _, result in points)
    if all_converged:
        ratios = [row[2] for row in rows]  # sorted by increasing rho
        verdicts = {
            "all_ratios_below_half": all(r < 0.5 for r in ratios),
            "ratios_increase_as_rho_decreases": all(
                ratios[i] > ratios[i + 1] for i in range(len(ratios) - 1)
            ),
            "converged": True,
        }
    else:
        verdicts = {
            "all_ratios_below_half": None,
            "ratios_increase_as_rho_decreases": None,
            "converged": False,
        }
    write_json(out / "verdicts.json", verdicts)
    manifest.finalize()
    print(json.dumps(verdicts, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_best_constant(config: dict, out: Path, workers: int, seed: int | None) -> int:
    grid = _grid_from_config(config)
    ascent_block = dict(config.get("ascent", {}))
    if seed is not None:
        ascent_block["seed"] = seed
    known = {f.name for f in AscentConfig.__dataclass_fields__.values()}  # type: ignore[attr-defined]
    unknown = set(ascent_block) - known
    if unknown:
        raise ConfigurationError(f"unknown ascent config keys: {sorted(unknown)}")
    ascent = AscentConfig(**ascent_block)
    pairs = _convert(
        "pairs",
        config.get("pairs", []),
        lambda ps: [(float(a), float(b)) for a, b in ps],
    )
    manifest = _Manifest(out, "best-constant", config, grid)

    estimate = estimate_best_constant(grid, ascent)
    write_json(out / "estimate.json", estimate.to_document(ascent))
    save_snapshot(estimate.maximizer, out / "maximizer.spsf")

    if pairs:
        rows = []
        for alpha, beta in pairs:
            verdict = classify_boundedness(alpha, beta, estimate)
            rows.append([alpha, beta, verdict.lhs, verdict.rhs_lower, verdict.verdict])
        write_table(out / "verdicts.csv", "threshold", VERDICT_COLUMNS, rows)
    manifest.finalize()
    print(f"s_lower {estimate.s_lower:.10g}  ({len(pairs)} verdicts)")
    return EXIT_OK


def _scaling_inputs(config: dict, grid: Grid, params: Params):
    init = dict(config.get("init", {"kind": "gaussian", "width": grid.box_length / 8.0}))
    kind = init.get("kind", "gaussian")
    if kind == "gaussian":
        width = _convert("init.width", init.get("width", grid.box_length / 8.0), float)
        profile = GaussianProfile(width=width)
        sampled = profile.sample(grid)
        mass = sampled.mass()
        if mass <= 0:
            raise ConfigurationError("gaussian init has zero mass")
        profile = GaussianProfile(width=width, amplitude=np.sqrt(params.rho / mass))
        return profile.sample(grid), profile
    if kind == "from_file":
        field = load_snapshot(_require(init, "path", "scaling init"))
        if field.grid != grid:
            raise ConfigurationError("snapshot grid does not match the run grid")
        return project_mass(field, params.rho), None
    raise ConfigurationError(f"scaling init kind must be gaussian or from_file, got {kind!r}")


def cmd_scaling(config: dict, out: Path, workers: int, seed: int | None) -> int:
    grid = _grid_from_config(config)
    params = _params_from_config(config)
    experiment = _require(config, "experiment", "scaling")
    thetas = _convert("thetas", _require(config, "thetas", "scaling"), _float_list)
    field, profile = _scaling_inputs(config, grid, params)
    manifest = _Manifest(out, "scaling", config, grid)

    if experiment == "blowup":
        result = blowup_experiment(field, params, thetas, profile=profile)
    elif experiment == "blowdown":
        result = blowdown_experiment(field, params, thetas, profile=profile)
    else:
        raise ConfigurationError(
            f"experiment must be blowup or blowdown, got {experiment!r}"
        )

    rows = [r.to_list() for r in result.rows]
    for theta in result.skipped_thetas:
        rows.append([theta, np.nan, np.nan, np.nan, np.nan, np.nan, "skipped"])
    write_table(out / "table.csv", f"scaling-{experiment}", TABLE_COLUMNS, rows)
    write_json(out / "summary.json", result.to_document())
    manifest.finalize()
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


def _verify_tolerances(config: dict) -> dict:
    block = config.get("tolerances", {})
    if not isinstance(block, dict) or not set(block) <= set(VERIFY_TOLERANCE_KEYS):
        raise ConfigurationError(
            f"tolerances must map keys of {VERIFY_TOLERANCE_KEYS} to numbers, got {block!r}"
        )
    custom = _convert(
        "tolerances block", block, lambda b: {k: float(v) for k, v in b.items()}
    )
    return {**DEFAULT_VERIFY_TOLERANCES, **custom}


def cmd_verify(config: dict, out: Path, workers: int, seed: int | None) -> int:
    field = _load_snapshot_field(config)
    params = _params_from_config(config, rho_fallback=field.mass() or 1.0)
    variant = _variant(config)
    omega = config.get("omega")
    if omega is not None:
        omega = _convert("omega", omega, float)
    tolerances = _verify_tolerances(config)
    manifest = _Manifest(out, "verify", config, field.grid)

    report = identity_report(field, params, omega=omega, variant=variant)
    measured = {
        "virial_rel": report.virial_rel,
        "pohozaev_rel": report.pohozaev_rel,
        "el_rel": report.el_residual_rel,
    }
    passed = all(measured[key] <= tol for key, tol in tolerances.items())
    document = {
        "params": params.to_dict(),
        "variant": variant,
        "tolerances": tolerances,
        "report": report.to_dict(),
        "passed": passed,
    }
    write_json(out / "report.json", document)
    manifest.finalize()
    print(json.dumps(document["report"], indent=2, sort_keys=True))
    return EXIT_OK if passed else EXIT_VERIFY


COMMANDS = {
    "energy": cmd_energy,
    "minimize": cmd_minimize,
    "curve": cmd_curve,
    "best-constant": cmd_best_constant,
    "scaling": cmd_scaling,
    "verify": cmd_verify,
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
        cmd.add_argument("--workers", type=int, default=1, help="parallel workers")
        cmd.add_argument("--seed", type=int, default=None, help="seed override")
    return parser


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ConfigurationError("config root must be a JSON object")
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](config, out, args.workers, args.seed)
    except (ConfigurationError, SnapshotFormatError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FileNotFoundError, json.JSONDecodeError) as exc:
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

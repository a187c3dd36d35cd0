"""Workload definitions: the grid each workload sets up, and the ops of one
round generated from a seed.

Every input is a pure function of the seed slot ``seed % SLOTS``; the
answer references in ``refs/`` hold one entry per slot.  Generating the
inputs (configs, snapshots) happens in its own process before the timed
worker starts, so it stays out of every metric.
"""

from __future__ import annotations

import json
from pathlib import Path

SLOTS = 16

# problem constants
GS_GRID = (16, 40.0)
GS_RHOS = (0.05, 0.1, 0.25)
GS_MINIMIZE = {"grad_tol": 5.0e-7, "max_iters": 8000}
BC_GRID = (64, 16.0)
BC_STEPS = 20
# a narrow start and a small first step keep every iterate localized, so
# each of the BC_STEPS steps is certified and s_lower depends on all of
# them; at the default step of 0.5 only the starting field is certified
BC_ASCENT = {"steps": BC_STEPS, "step_size": 0.005, "init_width": 0.8}
CERT_GRID = (128, 24.0)
CERT_RHO = 0.05
CERT_THETAS = [1.0, 0.5, 0.25]
CRITICAL_P = 8.0 / 3.0


# the grid each workload's set-up builds; its ops build their own
GRIDS = {
    "ground_state": GS_GRID,
    "best_constant": BC_GRID,
    "certify": CERT_GRID,
}


def slot_of(seed: int) -> int:
    return seed % SLOTS


def _write_config(work: Path, name: str, config: dict) -> str:
    path = work / f"{name}.json"
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    return str(path)


def _op(work: Path, op_id: str, command: str, config: dict) -> dict:
    return {
        "id": op_id,
        "command": command,
        "config": _write_config(work, op_id, config),
        "out": str(work / "out" / op_id),
    }


def _grid_block(grid: tuple[int, float]) -> dict:
    return {"n": grid[0], "box_length": grid[1]}


def generate(workload: str, slot: int, work: Path) -> list[dict]:
    """Write the inputs of one round into ``work`` and return its ops."""
    import numpy as np

    work.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([slot, sorted(GRIDS).index(workload)])
    if workload == "ground_state":
        ops = []
        for rho in GS_RHOS:
            width = 2.0 + rng.uniform(-0.1, 0.1)
            config = {
                "grid": _grid_block(GS_GRID),
                "params": {"alpha": 1.0, "beta": 1.0, "p": 2.5, "rho": rho},
                "minimize": {**GS_MINIMIZE, "init_width": width},
            }
            ops.append(_op(work, f"minimize-rho{rho:g}", "minimize", config))
        return ops
    if workload == "best_constant":
        config = {
            "grid": _grid_block(BC_GRID),
            "ascent": {**BC_ASCENT, "init_kind": "random", "seed": slot},
        }
        return [_op(work, "best-constant", "best-constant", config)]
    if workload == "certify":
        return _generate_certify(rng, work)
    raise KeyError(workload)


def _generate_certify(rng, work: Path) -> list[dict]:
    import numpy as np
    from spslab.fields import Field, save_snapshot
    from spslab.grid import make_grid

    grid = make_grid(*CERT_GRID)
    x, y, z = grid.meshgrid()
    # localized real snapshot: an off-center Gaussian with a smooth,
    # seeded low-mode modulation
    width = 1.0 + rng.uniform(-0.1, 0.1)
    cx, cy, cz = rng.uniform(-0.5, 0.5, size=3)
    r_sq = (x - cx) ** 2 + (y - cy) ** 2 + (z - cz) ** 2
    kx, ky, kz = rng.uniform(0.5, 1.5, size=3)
    modulation = 1.0 + 0.2 * np.cos(kx * x) * np.cos(ky * y) * np.cos(kz * z)
    real = np.exp(-r_sq / (2.0 * width**2)) * modulation
    real *= np.sqrt(CERT_RHO / (np.sum(real**2) * grid.cell_volume))
    # the same snapshot times a seeded smooth phase
    k = rng.uniform(-0.5, 0.5, size=3)
    curvature = rng.uniform(0.05, 0.15)
    phase = k[0] * x + k[1] * y + k[2] * z + curvature * r_sq
    snapshots = {
        "real": Field(grid, real),
        "complex": Field(grid, real * np.exp(1j * phase)),
    }
    del x, y, z, r_sq, modulation, phase

    params = {"alpha": 1.0, "beta": 1.0, "p": CRITICAL_P}
    ops = []
    for label, field in snapshots.items():
        path = work / f"snapshot-{label}.spsf"
        save_snapshot(field, path)
        config = {"snapshot": str(path), "params": params}
        ops.append(_op(work, f"energy-{label}", "energy", config))
        ops.append(_op(work, f"verify-{label}", "verify", config))
    scaling = {
        "grid": _grid_block(CERT_GRID),
        "params": {**params, "rho": CERT_RHO},
        "experiment": "blowdown",
        "thetas": CERT_THETAS,
    }
    gaussian = {"kind": "gaussian", "width": 0.38 + rng.uniform(0.0, 0.04)}
    from_file = {"kind": "from_file", "path": str(work / "snapshot-real.spsf")}
    ops.append(_op(work, "scaling-analytic", "scaling", {**scaling, "init": gaussian}))
    ops.append(_op(work, "scaling-trilinear", "scaling", {**scaling, "init": from_file}))
    return ops

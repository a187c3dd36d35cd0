"""Answer fingerprints of CLI ops and their comparison with references.

A fingerprint is read from the files an op wrote, after the op has been
timed.  References were recorded per seed slot at the commit that defined
this benchmark (``run.py --record-refs``).

Gates:

* exit codes are equal (``verify`` on a non-stationary snapshot exits 5,
  and that is the expected answer);
* energies, scaling-table numbers and the ``verify`` residuals agree within
  ``REL_TOL`` relative, the ROADMAP bar for new numerics;
* for ``minimize`` the answer is the state the solver stops in, so omega
  (relative) and the Pohozaev and Euler-Lagrange residuals (absolute) are
  gated at ``SOLVER_TOL``, twice the workload's ``grad_tol`` of 5e-7, and
  ``converged`` must stay equal;
* ``s_lower`` may not fall by more than ``REL_TOL`` relative; a higher
  bound passes when its maximizer is localized.

Iterations and the virial residual are recorded and never gated: solver
changes move the first, and clause C4 documents the second as nonzero by
design.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

REL_TOL = 1.0e-10
SOLVER_TOL = 1.0e-6

# recorded for the trace metrics and the notes; s_lower gates the ascent
UNGATED = {"iterations", "virial_rel", "certified_steps"}
SOLVER_GATED = {"omega", "pohozaev_rel", "el_rel"}


def _load(path: Path) -> dict:
    return json.loads(path.read_text())


def fingerprint(command: str, out: Path, exit_code: int) -> dict:
    """Read the answer of one op from its output directory."""
    fp: dict = {"exit": exit_code}
    if command == "minimize":
        doc = _load(out / "result.json")
        res = doc["residuals"]
        fp.update(
            energy=doc["energy"]["total"],
            omega=doc["omega"],
            virial_rel=res["virial_rel"],
            pohozaev_rel=res["pohozaev_rel"],
            el_rel=res["el_residual_rel"],
            converged=doc["converged"],
            iterations=doc["iterations"],
        )
    elif command == "energy":
        fp["energy"] = _load(out / "energy.json")["energy"]["total"]
    elif command == "verify":
        doc = _load(out / "report.json")
        rep = doc["report"]
        fp.update(
            virial_rel=rep["virial_rel"],
            pohozaev_rel=rep["pohozaev_rel"],
            el_rel=rep["el_residual_rel"],
            passed=doc["passed"],
        )
    elif command == "scaling":
        with open(out / "table.csv", newline="") as fh:
            rows = list(csv.reader(line for line in fh if not line.startswith("#")))
        fp["rows"] = [[_cell(c) for c in row] for row in rows[1:]]
    elif command == "best-constant":
        from spslab.bestconst import _is_localized
        from spslab.fields import load_snapshot

        doc = _load(out / "estimate.json")
        fp.update(
            s_lower=doc["s_lower"],
            certified_steps=[int(t[0]) for t in doc["ascent_trace"]],
            localized=_is_localized(load_snapshot(out / "maximizer.spsf")),
        )
    return fp


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _close(a: float, b: float, rel: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _rows_match(have: list, want: list) -> bool:
    if len(have) != len(want) or any(len(a) != len(b) for a, b in zip(have, want)):
        return False
    for x, y in zip(sum(have, []), sum(want, [])):
        if isinstance(y, float) and isinstance(x, float):
            if not _close(x, y, REL_TOL):
                return False
        elif x != y:
            return False
    return True


def compare(command: str, ref: dict, got: dict) -> list[str]:
    """Mismatches of ``got`` against ``ref``; empty when the answer holds."""
    if got.get("exit") != ref.get("exit"):
        return [f"exit {got.get('exit')} != {ref.get('exit')}"]
    problems = []
    for key, want in ref.items():
        have = got.get(key)
        if key in UNGATED:
            continue
        if key == "s_lower":
            if have < want * (1.0 - REL_TOL):
                problems.append(f"s_lower fell: {have!r} < {want!r}")
            elif have > want * (1.0 + REL_TOL) and not got.get("localized"):
                problems.append(f"s_lower rose to {have!r} on a non-localized maximizer")
        elif key == "rows":
            if not _rows_match(have, want):
                problems.append("scaling table differs")
        elif isinstance(want, bool) or not isinstance(want, float):
            if have != want:
                problems.append(f"{key} {have!r} != {want!r}")
        elif command == "minimize" and key in SOLVER_GATED:
            scale = abs(want) if key == "omega" else 1.0
            if not abs(have - want) <= SOLVER_TOL * scale:
                problems.append(f"{key} {have!r} vs {want!r}")
        elif not _close(have, want, REL_TOL):
            problems.append(f"{key} {have!r} vs {want!r}")
    return problems

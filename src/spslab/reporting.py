"""Result persistence: JSON documents, versioned CSV tables, run manifests.

Every result file, snapshots and slice exports included, is written by
``atomic_open``: into a temporary file beside the target, which replaces
the target on success and is deleted on failure, so no reader sees a
partial file.  Files get the mode a plain ``open`` gives under the umask.
CSV tables start with a schema comment line; the column order is part of
the contract and only changes together with the schema version.
"""

from __future__ import annotations

import csv
import io
import json
import os
import secrets
from contextlib import contextmanager
from pathlib import Path

CSV_SCHEMA_VERSION = 1


@contextmanager
def atomic_open(path: str | Path, mode: str = "w", **kwargs):
    """``open(path, mode)`` for writing, made atomic: the block writes a new
    temporary file beside ``path``, which replaces ``path`` when the block
    ends and is deleted if it raises."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(4)}.tmp")
    # exclusive creation: a name already taken is never written or deleted
    fh = open(tmp, mode.replace("w", "x"), **kwargs)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, document: dict) -> None:
    with atomic_open(path) as fh:
        fh.write(json.dumps(document, indent=2, sort_keys=True) + "\n")


def write_table(path: str | Path, kind: str, columns, rows) -> None:
    """CSV with a leading schema comment line and one header row."""
    lines = [f"# spslab-table schema={CSV_SCHEMA_VERSION} kind={kind}"]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_format_cell(c) for c in row])
    lines.append(buf.getvalue())
    with atomic_open(path) as fh:
        fh.write("\n".join(lines))


def _format_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def read_table(path: str | Path) -> tuple[dict, list[str], list[list[str]]]:
    """Parse a versioned CSV back into (meta, columns, string rows)."""
    path = Path(path)
    with open(path, newline="") as fh:
        first = fh.readline().strip()
        meta: dict = {}
        if first.startswith("#"):
            for token in first.lstrip("# ").split():
                if "=" in token:
                    key, _, value = token.partition("=")
                    meta[key] = value
        reader = csv.reader(fh)
        columns = next(reader)
        rows = [row for row in reader]
    return meta, columns, rows

"""Deterministic CSV/JSON run records.

CSV files are the interchange format: mandatory header, UTF-8, '.' decimal,
floats in scientific notation with 17 significant digits (lossless float
round-trip), written atomically (temp file + rename).  Re-running a
subcommand with an identical config and seed yields byte-identical CSVs;
timestamps live only in the JSON records.  JSON has no NaN or infinity, so
non-finite floats are written there as null.
"""
from __future__ import annotations

import json
import math
import os
import tempfile
from datetime import datetime, timezone

from . import __version__

SCHEMA_VERSION = "1"


class RecordError(ValueError):
    pass


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17e")
    return str(v)


def atomic_write_text(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp_", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
        # mkstemp creates 0600; give the output the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, columns, rows) -> None:
    lines = [",".join(columns)]
    for row in rows:
        if len(row) != len(columns):
            raise RecordError("row length does not match header")
        lines.append(",".join(format_value(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_csv(path: str):
    """Returns (columns, rows) with cell values kept as strings."""
    with open(path, encoding="utf-8") as f:
        lines = [ln.rstrip("\n") for ln in f if ln.strip()]
    if not lines:
        raise RecordError(f"{path}: empty CSV")
    columns = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(columns):
            raise RecordError(f"{path}: ragged row")
        rows.append(cells)
    return columns, rows


def _json_safe(v):
    if isinstance(v, float) and not math.isfinite(v):
        return None
    if isinstance(v, dict):
        return {k: _json_safe(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_safe(x) for x in v]
    return v


def write_record(subcommand: str, params: dict, columns, rows, out: str, fmt: str = "csv",
                 seed=None) -> None:
    """Write the primary output file plus (for csv format) a JSON sidecar."""
    text = json.dumps(
        _json_safe({
            "schema_version": SCHEMA_VERSION,
            "config": {"subcommand": subcommand, "params": params, "seed": seed, "out": out,
                       "fmt": fmt, "artifact_version": __version__,
                       "schema_version": SCHEMA_VERSION},
            "columns": columns,
            "rows": rows,
            "created_at": datetime.now(timezone.utc).isoformat(),
        }),
        indent=2, sort_keys=True, allow_nan=False,
    ) + "\n"
    if fmt == "json":
        atomic_write_text(out, text)
    else:
        write_csv(out, columns, rows)
        atomic_write_text(out + ".meta.json", text)

"""Run configuration and result records with deterministic CSV/JSON output.

CSV files are the interchange format: mandatory header, UTF-8, '.' decimal,
floats in scientific notation with 17 significant digits (lossless float
round-trip), written atomically (temp file + rename).  Re-running a
subcommand with an identical config and seed yields byte-identical CSVs;
timestamps live only in the JSON result records.
"""
from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from dataclasses import dataclass, field
from datetime import datetime, timezone

from . import __version__

SCHEMA_VERSION = "1"


class RecordError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    params: dict
    seed: int | None = None
    out: str | None = None
    fmt: str = "csv"

    def to_dict(self) -> dict:
        return {**dataclasses.asdict(self), "artifact_version": __version__,
                "schema_version": SCHEMA_VERSION}


@dataclass
class ResultRecord:
    config: RunConfig
    columns: list
    rows: list
    created_at: str = field(default_factory=lambda: datetime.now(timezone.utc).isoformat())

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema_version": SCHEMA_VERSION,
                "config": self.config.to_dict(),
                "columns": self.columns,
                "rows": self.rows,
                "created_at": self.created_at,
            },
            indent=2,
            sort_keys=True,
        )


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


def write_record(record: ResultRecord) -> None:
    """Write the primary output file plus (for csv format) a JSON sidecar."""
    out = record.config.out
    if out is None:
        raise RecordError("record has no output path")
    if record.config.fmt == "json":
        atomic_write_text(out, record.to_json() + "\n")
    else:
        write_csv(out, record.columns, record.rows)
        atomic_write_text(out + ".meta.json", record.to_json() + "\n")

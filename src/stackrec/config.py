"""Service configuration: the library's data files, how their tables are read,
and the recommendation radius, from JSON."""

from __future__ import annotations

import csv
import json
from collections.abc import Iterator
from dataclasses import dataclass, fields
from pathlib import Path

# Each data-file field of ServiceConfig, in config order, and its file name in a
# generated library.
DATA_FILES = {
    "catalog": "catalog.csv",
    "stackmap": "stackmap.csv",
    "outline": "outline.tsv",
    "circulation": "circulation.csv",
    "articles": "articles.csv",
    "databases": "databases.csv",
    "beacons": "beacons.csv",
}


@dataclass
class ServiceConfig:
    catalog: str | Path
    stackmap: str | Path
    outline: str | Path
    circulation: str | Path | None = None
    articles: str | Path | None = None
    databases: str | Path | None = None
    beacons: str | Path | None = None
    radius: float | None = None           # None -> 1.5 shelf-widths, derived from the map

    @classmethod
    def from_json(cls, path: str | Path) -> "ServiceConfig":
        path = Path(path)
        raw = json.loads(path.read_text(encoding="utf-8"))
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
        cfg = cls(**raw)
        # Relative data paths resolve against the config file's directory.
        for name in DATA_FILES:
            value = getattr(cfg, name)
            if value is not None and not Path(value).is_absolute():
                setattr(cfg, name, str(path.parent / value))
        return cfg


def read_table(
    path: str | Path, columns: tuple[str, ...]
) -> Iterator[tuple[int, dict[str, str]]]:
    """Yield (line number, row dict) for each row of a CSV table.

    The line number counts from 1 at the header, blank lines (which are
    skipped) included; for a row with a quoted field that spans lines, it is
    the row's last line.  Columns may come in any order, and blanks around a
    header name are ignored.  A short row reads as blanks, not None.  Raises
    ValueError when the header lacks one of columns.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh, restval="")
        reader.fieldnames = [name.strip() for name in reader.fieldnames or ()]
        if not set(columns) <= set(reader.fieldnames):
            raise ValueError(f"{path}: expected columns {','.join(columns)}")
        for row in reader:
            yield reader.line_num, row

"""Service configuration: the library's data files, how their tables are read
and written, and the recommendation radius, from JSON."""

from __future__ import annotations

import csv
import json
import sys
from collections.abc import Iterator
from dataclasses import MISSING, dataclass, fields
from operator import itemgetter
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
        """Raises ValueError naming the file, and the key when one is at fault."""
        path = Path(path)
        raw = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: a service config is a JSON object, not {type(raw).__name__}")
        known = {f.name: f for f in fields(cls)}
        unknown = set(raw) - set(known)
        if unknown:
            raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
        for name in DATA_FILES:
            value = raw.get(name)
            if value is None:
                if known[name].default is MISSING:
                    raise ValueError(f"{path}: {name} is required")
            elif not isinstance(value, str):
                raise ValueError(f"{path}: {name} must be a path string, not {value!r}")
            elif not Path(value).is_absolute():  # resolves against the config's directory
                raw[name] = str(path.parent / value)
        radius = raw.get("radius")
        # A bool is an int, and NaN fails every comparison.
        if radius is not None and (isinstance(radius, bool) or not isinstance(radius, (int, float))
                                   or not 0 <= radius <= sys.float_info.max):
            raise ValueError(f"{path}: radius must be a finite number >= 0, not {radius!r}")
        return cls(**raw)


def quoted(value: str) -> str:
    """value as one quoted CSV field, any inner quote doubled (RFC 4180)."""
    return '"' + value.replace('"', '""') + '"'


def csv_field(value: str) -> str:
    """value as one CSV field, quoted only when it holds a comma, a quote or a line break."""
    return quoted(value) if any(c in value for c in ',"\r\n') else value


def read_table(
    path: str | Path, columns: tuple[str, ...], optional: tuple[str, ...] = ()
) -> Iterator[tuple[int, tuple[str, ...]]]:
    """Yield (line number, values) for each row of a CSV table.

    values is a tuple of the row's values in the order of columns, then of
    optional, even for a single column.  The line number counts from 1 at the
    header, blank lines (which are skipped) included; for a row with a quoted
    field that spans lines, it is the row's last line.  Columns may come in
    any order, and blanks around a header name are ignored.  A short row reads
    as blanks, and so does an optional column that the header lacks.  Raises
    ValueError when the header lacks one of columns, or when the file is not
    UTF-8 or not CSV.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = [name.strip() for name in next(reader, ())]
            if not set(columns) <= set(header):
                raise ValueError(f"{path}: expected columns {','.join(columns)}")
            # A repeated name reads its last column.  An absent optional column
            # reads the field just past the header's, which every row has blank.
            index = {name: i for i, name in enumerate(header)}
            spare = len(header)
            picks = [index.get(name, spare) for name in columns + optional]
            pick = itemgetter(*picks)
            if len(picks) == 1:  # itemgetter of one index returns the bare value
                pick = lambda row, get=pick: (get(row),)
            width = max(picks) + 1
            for row in reader:
                if not row:
                    continue
                if len(row) < width:
                    row += [""] * (width - len(row))
                if width > spare:  # an absent optional column reads row[spare]
                    row[spare] = ""
                yield reader.line_num, pick(row)
    except UnicodeDecodeError as exc:  # the decoder reads ahead of the rows, so no row is named
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:  # a field over the csv module's size limit, say
        raise ValueError(f"{path}: {exc}") from None

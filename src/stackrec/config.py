"""Service configuration: data file paths plus the recommendation radius, from JSON."""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path


@dataclass
class ServiceConfig:
    catalog: str
    stackmap: str
    outline: str
    circulation: str | None = None
    articles: str | None = None
    databases: str | None = None
    beacons: str | None = None
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
        for name in ("catalog", "stackmap", "outline", "circulation", "articles",
                     "databases", "beacons"):
            value = getattr(cfg, name)
            if value is not None and not Path(value).is_absolute():
                setattr(cfg, name, str(path.parent / value))
        return cfg

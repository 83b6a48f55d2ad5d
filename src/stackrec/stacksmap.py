"""Physical stack map: shelf rectangles bound to call-number ranges.

Answers two questions: where does a call number live, and which ranges are
near a point on the floor.  All geometry is axis-aligned in one real-valued
"map unit" frame.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

from . import lccn
from .lccn import CallNumber, CallNumberRange

log = logging.getLogger(__name__)

Point = tuple[float, float]


@dataclass(frozen=True)
class Rect:
    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError(f"degenerate rectangle {self}")

    @property
    def center(self) -> Point:
        return ((self.x_min + self.x_max) / 2, (self.y_min + self.y_max) / 2)

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    def contains(self, p: Point) -> bool:
        return self.x_min <= p[0] <= self.x_max and self.y_min <= p[1] <= self.y_max

    def distance_to(self, p: Point) -> float:
        # 0 iff p is inside or on the boundary
        dx = max(self.x_min - p[0], 0.0, p[0] - self.x_max)
        dy = max(self.y_min - p[1], 0.0, p[1] - self.y_max)
        return math.hypot(dx, dy)


@dataclass(frozen=True)
class Shelf:
    shelf_number: int
    bounds: Rect
    range: CallNumberRange

    def __post_init__(self):
        if self.shelf_number <= 0:
            raise ValueError("shelf_number must be positive")


@dataclass
class StackMap:
    shelves: list[Shelf]
    background: str | None = None
    diagnostics: list[str] = field(default_factory=list)

    @property
    def map_extent(self) -> Rect:
        xs_min = min(s.bounds.x_min for s in self.shelves)
        ys_min = min(s.bounds.y_min for s in self.shelves)
        xs_max = max(s.bounds.x_max for s in self.shelves)
        ys_max = max(s.bounds.y_max for s in self.shelves)
        return Rect(xs_min, ys_min, xs_max, ys_max)

    def __len__(self) -> int:
        return len(self.shelves)


class StackMapLoadError(ValueError):
    pass


_HEADER = ["shelf_number", "x_min", "y_min", "x_max", "y_max", "range_start", "range_end"]


def load_stackmap(path: str | Path, background: str | None = None) -> StackMap:
    """Load a shelf CSV and validate the structural invariants.

    Duplicate shelf numbers and overlapping call-number ranges are structural
    violations and abort the load; individually malformed rows are reported
    and skipped.
    """
    shelves: list[Shelf] = []
    diagnostics: list[str] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != _HEADER:
            raise StackMapLoadError(f"{path}: expected header {','.join(_HEADER)}")
        for row_no, row in enumerate(reader, start=2):
            try:
                shelf = Shelf(
                    shelf_number=int(row["shelf_number"]),
                    bounds=Rect(
                        float(row["x_min"]),
                        float(row["y_min"]),
                        float(row["x_max"]),
                        float(row["y_max"]),
                    ),
                    range=lccn.parse_range(row["range_start"], row["range_end"]),
                )
            except (ValueError, lccn.ParseError) as exc:
                diagnostics.append(f"row {row_no}: {exc}")
                continue
            shelves.append(shelf)

    numbers = [s.shelf_number for s in shelves]
    dupes = sorted({n for n in numbers if numbers.count(n) > 1})
    if dupes:
        raise StackMapLoadError(f"{path}: duplicate shelf numbers {dupes}")
    for i, a in enumerate(shelves):
        for b in shelves[i + 1 :]:
            if lccn.ranges_overlap(a.range, b.range):
                raise StackMapLoadError(
                    f"{path}: shelves {a.shelf_number} and {b.shelf_number} have overlapping ranges"
                )
    if not shelves:
        raise StackMapLoadError(f"{path}: no valid shelves")
    for msg in diagnostics:
        log.warning("stackmap %s: %s", path, msg)
    return StackMap(shelves=shelves, background=background, diagnostics=diagnostics)


def shelf_for_call(cn: CallNumber, m: StackMap) -> Shelf | None:
    """The unique shelf whose range contains cn, or None (not in open stacks)."""
    for shelf in m.shelves:
        if lccn.in_range(cn, shelf.range):
            return shelf
    return None


def ranges_for_location(p: Point, m: StackMap, radius: float) -> list[CallNumberRange]:
    """Ranges of shelves within `radius` of p, nearest first.

    radius=0 degenerates to "shelves whose rectangle contains p".
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    near = [s for s in m.shelves if s.bounds.distance_to(p) <= radius]
    near.sort(key=lambda s: (s.bounds.distance_to(p), s.shelf_number))
    return [s.range for s in near]


def default_radius(m: StackMap, shelf_widths: float = 1.5) -> float:
    """Recommendation radius as a multiple of the median shelf short side."""
    sides = sorted(min(s.bounds.width, s.bounds.height) for s in m.shelves)
    return shelf_widths * sides[len(sides) // 2]

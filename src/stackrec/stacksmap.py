"""Physical stack map: shelf rectangles bound to call-number ranges.

Answers two questions: where does a call number live, and which ranges are
near a point on the floor.  All geometry is axis-aligned in one real-valued
"map unit" frame.
"""

from __future__ import annotations

import csv
import logging
import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path

import numpy as np

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


def _start_key(shelf: Shelf) -> tuple:
    return shelf.range.start.sort_key()


@dataclass
class StackMap:
    shelves: list[Shelf]
    diagnostics: list[str] = field(default_factory=list)
    # Lookup indexes, built once from `shelves`: the shelves ordered by range
    # start, and the bounds as rows x_min, y_min, x_max, y_max with one column
    # per entry of `shelves`.
    _by_start: list[Shelf] = field(init=False, repr=False, compare=False)
    _bounds: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._by_start = sorted(self.shelves, key=_start_key)
        self._bounds = np.array(
            [[s.bounds.x_min for s in self.shelves], [s.bounds.y_min for s in self.shelves],
             [s.bounds.x_max for s in self.shelves], [s.bounds.y_max for s in self.shelves]],
            dtype=float,
        )

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


def load_stackmap(path: str | Path) -> StackMap:
    """Load a shelf CSV and validate the structural invariants.

    Duplicate shelf numbers and overlapping call-number ranges are structural
    violations and abort the load; individually malformed rows are reported
    and skipped.  Overlap is checked between neighbours in range-start order
    only: if any two ranges overlap, some adjacent pair in that order does.
    """
    shelves: list[Shelf] = []
    diagnostics: list[str] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh, restval="")  # a short row reads as blanks, not None
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

    counts = Counter(s.shelf_number for s in shelves)
    dupes = sorted(n for n, c in counts.items() if c > 1)
    if dupes:
        raise StackMapLoadError(f"{path}: duplicate shelf numbers {dupes}")
    m = StackMap(shelves=shelves, diagnostics=diagnostics)
    for a, b in zip(m._by_start, m._by_start[1:]):
        if lccn.ranges_overlap(a.range, b.range):
            raise StackMapLoadError(
                f"{path}: shelves {a.shelf_number} and {b.shelf_number} have overlapping ranges"
            )
    if not shelves:
        raise StackMapLoadError(f"{path}: no valid shelves")
    for msg in diagnostics:
        log.warning("stackmap %s: %s", path, msg)
    return m


def shelf_for_call(cn: CallNumber, m: StackMap) -> Shelf | None:
    """The unique shelf whose range contains cn, or None (not in open stacks).

    Bisects the map's shelves in range-start order and tests one candidate:
    the last shelf starting at or before cn.  That relies on shelf ranges not
    overlapping, which load_stackmap enforces; every earlier shelf then ends
    before the candidate starts.
    """
    i = bisect_right(m._by_start, cn.sort_key(), key=_start_key) - 1
    if i >= 0 and lccn.in_range(cn, m._by_start[i].range):
        return m._by_start[i]
    return None


def ranges_for_location(p: Point, m: StackMap, radius: float) -> list[CallNumberRange]:
    """Ranges of shelves within `radius` of p, nearest first, ties by shelf number.

    radius=0 degenerates to "shelves whose rectangle contains p".  The map's
    bounds array screens out, in one vectorized pass, every shelf that is
    farther than radius along x or y alone; only the rest get the exact
    Rect.distance_to test.  The screen computes the same float differences
    as distance_to, and a distance is never below either of its components,
    so it never drops a shelf the exact test keeps.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    x, y = p
    x_min, y_min, x_max, y_max = m._bounds
    screen = (x_min - x <= radius) & (x - x_max <= radius)
    screen &= (y_min - y <= radius) & (y - y_max <= radius)
    near = []
    for i in np.flatnonzero(screen).tolist():
        shelf = m.shelves[i]
        d = shelf.bounds.distance_to(p)
        if d <= radius:
            near.append((d, shelf.shelf_number, shelf))
    near.sort(key=itemgetter(0, 1))
    return [shelf.range for _, _, shelf in near]


def default_radius(m: StackMap) -> float:
    """Recommendation radius: 1.5 times the median shelf short side."""
    sides = sorted(min(s.bounds.width, s.bounds.height) for s in m.shelves)
    return 1.5 * sides[len(sides) // 2]

"""Physical stack map: shelf rectangles bound to call-number ranges.

Answers two questions: where does a call number live, and which ranges are
near a point on the floor.  All geometry is axis-aligned in one real-valued
"map unit" frame.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path

from . import lccn
from .config import read_table
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
        if not all(map(math.isfinite, (self.x_min, self.y_min, self.x_max, self.y_max))):
            raise ValueError(f"unbounded rectangle {self}")

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
    # Lookup indexes, built once from `shelves`.  _by_start: the shelves in
    # range-start order.  A uniform grid over the map: _xs and _ys are the
    # cell edges along x and y, and cell (i, j) is number i * rows + j.  Each
    # shelf is listed under every cell its rectangle touches, edges included:
    # _members holds the indexes into `shelves` cell by cell, and the cell
    # numbered c holds _members[_starts[c]:_starts[c + 1]].  Two flat lists,
    # not an object per cell: per-cell objects kept alive moved the cyclic
    # garbage collector's passes into the loaders of a process that reloads
    # its maps.
    _by_start: list[Shelf] = field(init=False, repr=False, compare=False)
    _xs: list[float] = field(init=False, repr=False, compare=False)
    _ys: list[float] = field(init=False, repr=False, compare=False)
    _starts: list[int] = field(init=False, repr=False, compare=False)
    _members: list[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._by_start = sorted(self.shelves, key=_start_key)
        self._xs, self._ys, self._starts, self._members = [], [], [], []
        if not self.shelves:
            return
        extent = self.map_extent
        # The median shelf long side, doubled while the grid would have more
        # than 4 cells per shelf (only a map of tiny shelves far apart does).
        sides = sorted(max(s.bounds.width, s.bounds.height) for s in self.shelves)
        cell = sides[len(sides) // 2]
        while (extent.width / cell + 1) * (extent.height / cell + 1) > 4 * len(self.shelves):
            cell *= 2
        xs = self._xs = _edges(extent.x_min, extent.x_max, cell)
        ys = self._ys = _edges(extent.y_min, extent.y_max, cell)
        rows = len(ys) - 1
        cells: list[list[int]] = [[] for _ in range((len(xs) - 1) * rows)]
        for k, s in enumerate(self.shelves):
            r = s.bounds
            j0, j1 = bisect_right(ys, r.y_min) - 1, bisect_right(ys, r.y_max)
            for i in range(bisect_right(xs, r.x_min) - 1, bisect_right(xs, r.x_max)):
                for c in range(i * rows + j0, i * rows + j1):
                    cells[c].append(k)
        self._starts = list(accumulate(map(len, cells), initial=0))
        self._members = [k for listed in cells for k in listed]

    @property
    def map_extent(self) -> Rect:
        xs_min = min(s.bounds.x_min for s in self.shelves)
        ys_min = min(s.bounds.y_min for s in self.shelves)
        xs_max = max(s.bounds.x_max for s in self.shelves)
        ys_max = max(s.bounds.y_max for s in self.shelves)
        return Rect(xs_min, ys_min, xs_max, ys_max)

    def __len__(self) -> int:
        return len(self.shelves)


def _edges(lo: float, hi: float, cell: float) -> list[float]:
    """Cell edges lo, lo + cell, lo + 2*cell, ..., up to the first edge past hi."""
    edges = [lo]
    while edges[-1] <= hi:
        edges.append(lo + len(edges) * cell)
    return edges


class StackMapLoadError(ValueError):
    pass


_COLUMNS = ("shelf_number", "x_min", "y_min", "x_max", "y_max", "range_start", "range_end")


def load_stackmap(path: str | Path) -> StackMap:
    """Load a shelf CSV and validate the structural invariants.

    Duplicate shelf numbers and overlapping call-number ranges are structural
    violations and abort the load; individually malformed rows are reported
    and skipped.  Overlap is checked between neighbours in range-start order
    only: if any two ranges overlap, some adjacent pair in that order does.
    """
    shelves: list[Shelf] = []
    diagnostics: list[str] = []
    for row_no, (number, x_min, y_min, x_max, y_max, start, end) in read_table(path, _COLUMNS):
        try:
            shelf = Shelf(
                shelf_number=int(number),
                bounds=Rect(float(x_min), float(y_min), float(x_max), float(y_max)),
                range=lccn.parse_range(start, end),
            )
        except ValueError as exc:
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


def _window(edges: list[float], c: float, radius: float) -> tuple[int, int]:
    """First and last cell along one axis that may hold a shelf within radius of c.

    Exact, in floats: a shelf the exact test keeps has c - hi <= radius for
    its high side hi, computed as in distance_to, since a distance is never
    below either of its components.  The edge after its last cell is past hi,
    and rounding is monotonic, so that edge passes the same test.  The low
    end is moved down until the cell below it fails the test on that edge,
    so it is at or below every such last cell; the high end likewise.  Both
    ends are clamped to the grid, so no radius, even an infinite one, and no
    point far off the map makes the window larger than the map.
    """
    last = len(edges) - 2
    lo = max(bisect_right(edges, c - radius) - 1, 0)
    while lo > 0 and c - edges[lo] <= radius:
        lo -= 1
    hi = min(bisect_right(edges, c + radius) - 1, last)
    while hi < last and edges[hi + 1] - c <= radius:
        hi += 1
    return lo, hi


def ranges_for_location(p: Point, m: StackMap, radius: float) -> list[CallNumberRange]:
    """Ranges of shelves within `radius` of p, nearest first, ties by shelf number.

    radius=0 degenerates to "shelves whose rectangle contains p".  Only the
    shelves listed in the map's grid cells that meet the square of side
    2*radius around p get the exact Rect.distance_to test, each at most once;
    _window says why no shelf the test keeps lies outside those cells.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if not m.shelves:
        return []
    i0, i1 = _window(m._xs, p[0], radius)
    j0, j1 = _window(m._ys, p[1], radius)
    rows, starts = len(m._ys) - 1, m._starts
    found: set[int] = set()
    for i in range(i0 * rows, (i1 + 1) * rows, rows):  # cells j0..j1 of column i are adjacent
        found.update(m._members[starts[i + j0] : starts[i + j1 + 1]])
    near = []
    for k in found:
        shelf = m.shelves[k]
        d = shelf.bounds.distance_to(p)
        if d <= radius:
            near.append((d, shelf.shelf_number, k))
    near.sort()  # a tie in distance and shelf number keeps the order of m.shelves
    return [m.shelves[k].range for _, _, k in near]


def default_radius(m: StackMap) -> float:
    """Recommendation radius: 1.5 times the median shelf short side."""
    sides = sorted(min(s.bounds.width, s.bounds.height) for s in m.shelves)
    return 1.5 * sides[len(sides) // 2]

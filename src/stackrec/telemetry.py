"""Batch analytics over the gateway's transaction logs.

Parse the JSON-lines logs, join recommended/wayfound bib ids to call numbers
and subjects, then aggregate: floor heat maps, subject rank-frequency
distributions with a power-law fit, per-module identifier traces, query text
mining, and monthly request series.
"""

from __future__ import annotations

import logging
import math
import string
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from pathlib import Path

from . import lccn, stacksmap
from .config import csv_field, quoted
from .corpus import CorpusStore
from .gateway import MODULES, ApiLogEntry
from .lccn import ClassificationOutline, Unclassified
from .stacksmap import StackMap

log = logging.getLogger(__name__)

UNKNOWN = "unknown"
TOP_WORDS = 5  # length of mine_queries' top list


class TooFewRanks(ValueError):
    pass


@dataclass
class ParsedLogs:
    entries: list[ApiLogEntry]
    malformed: list[tuple[str, int, str]] = field(default_factory=list)  # (path, line_no, reason)


def parse_logs(paths: list[str | Path]) -> ParsedLogs:
    """Parse one or more log files; malformed lines are counted, not dropped silently.

    A line is malformed when it is not UTF-8, not JSON, not a JSON object, or
    not an entry with fields of the right types (see ``ApiLogEntry.parse``).
    So is a line nested too deep for the JSON decoder, and a line with a lone
    surrogate escape in any string, which could not be written back as UTF-8.

    Entries are ordered by instant (``ApiLogEntry.instant``), then file, then
    line: the sort is stable, so multi-file input is a stable merge.
    """
    entries: list[ApiLogEntry] = []
    malformed: list[tuple[str, int, str]] = []
    for path in paths:
        with open(path, "rb") as fh:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    entries.append(ApiLogEntry.parse(line.decode("utf-8")))
                except (ValueError, KeyError) as exc:  # UnicodeDecodeError is a ValueError
                    malformed.append((str(path), line_no, str(exc)))
    entries.sort(key=attrgetter("instant"))
    if malformed:
        log.warning("parse_logs: %d malformed line(s)", len(malformed))
    return ParsedLogs(entries, malformed)


def request_point(params: dict[str, str]) -> tuple[float, float] | None:
    """The x/y request params as a point; None unless both are present and finite."""
    try:
        x, y = float(params["x"]), float(params["y"])
    except (KeyError, ValueError):
        return None
    return (x, y) if math.isfinite(x) and math.isfinite(y) else None


@dataclass(frozen=True, slots=True)
class BibAnnotation:
    bib_id: str
    call_number: str | None     # canonical text, None when the bib is unknown
    subject: str                # UNKNOWN when unresolvable


@dataclass(frozen=True, slots=True)
class AnnotatedEntry:
    entry: ApiLogEntry
    annotations: tuple[BibAnnotation, ...]
    x: float | None = None
    y: float | None = None
    shelf_number: int | None = None


def annotate(
    entries: list[ApiLogEntry],
    corpus_: CorpusStore,
    outline: ClassificationOutline,
    stackmap_: StackMap | None = None,
) -> list[AnnotatedEntry]:
    """Join each entry's bib ids to call numbers and subject labels.

    x/y come from the request params when present (recommendation requests),
    and stay None unless both are finite numbers; otherwise, when a stack map
    is given, from the shelf target of the first bib id (wayfinding requests).
    Unknown bib ids annotate as "unknown" and never fail the batch.
    """
    out: list[AnnotatedEntry] = []
    unknown_bibs = 0
    for entry in entries:
        annotations = []
        for bib_id in entry.bib_ids:
            record = corpus_.records.get(bib_id)
            if record is None:
                unknown_bibs += 1
                annotations.append(BibAnnotation(bib_id, None, UNKNOWN))
                continue
            try:
                subject = outline.classify(record.call_number)
            except Unclassified:
                subject = UNKNOWN
            annotations.append(
                BibAnnotation(bib_id, lccn.canonical_format(record.call_number), subject)
            )
        x = y = None
        shelf_number = None
        if "x" in entry.params and "y" in entry.params:
            x, y = request_point(entry.params) or (None, None)
        elif stackmap_ is not None and entry.bib_ids:
            record = corpus_.records.get(entry.bib_ids[0])
            if record is not None:
                shelf = stacksmap.shelf_for_call(record.call_number, stackmap_)
                if shelf is not None:
                    cx, cy = shelf.bounds.center
                    x, y = cx, cy
                    shelf_number = shelf.shelf_number
        out.append(AnnotatedEntry(entry, tuple(annotations), x, y, shelf_number))
    if unknown_bibs:
        log.warning("annotate: %d bib id occurrence(s) not in catalog", unknown_bibs)
    return out


# Far above any real map: the 20,000-record map at cell size 20 is about 2,500
# cells.  A grid of this many 8-byte cells takes 80 MB.
MAX_GRID_CELLS = 10_000_000


@dataclass(frozen=True)
class GridSpec:
    origin_x: float
    origin_y: float
    cell_size: float
    width: int
    height: int

    def __post_init__(self):
        if self.cell_size <= 0 or self.width < 1 or self.height < 1:
            raise ValueError("grid must have positive cell size and dimensions")

    @classmethod
    def covering(cls, extent: stacksmap.Rect, cell_size: float, margin: float = 0.0) -> "GridSpec":
        """The grid of cell_size cells over extent widened by margin on each side.

        Raises ValueError when the grid would have more than MAX_GRID_CELLS
        cells, or a side too long to count.
        """
        if not cell_size > 0:
            raise ValueError(f"cell size must be > 0: {cell_size}")
        x0, y0 = extent.x_min - margin, extent.y_min - margin
        across = (extent.x_max + margin - x0) / cell_size
        down = (extent.y_max + margin - y0) / cell_size
        if math.isfinite(across) and math.isfinite(down):
            width, height = max(1, math.ceil(across)), max(1, math.ceil(down))
            if width * height <= MAX_GRID_CELLS:
                return cls(x0, y0, cell_size, width, height)
        raise ValueError(f"a grid of {across:.6g} x {down:.6g} cells is more than {MAX_GRID_CELLS:,} cells")


class GridRows(list):
    """A grid's rows, each an ``array("d")`` of floats: 8 bytes a cell, whatever it holds.

    ``tolist`` answers the one caller written for a numpy array,
    ``perfbench/worker.py``; it goes once ROADMAP item 1 changes that call.
    """

    def tolist(self) -> list[list[float]]:
        return [list(row) for row in self]


@dataclass
class DensityGrid:
    spec: GridSpec
    values: GridRows                # height rows of width floats, row 0 at origin_y
    out_of_extent: int = 0

    @property
    def total_mass(self) -> float:
        return math.fsum(chain.from_iterable(self.values))


def _cell_of(spec: GridSpec, x: float, y: float) -> tuple[int, int] | None:
    col = math.floor((x - spec.origin_x) / spec.cell_size)
    row = math.floor((y - spec.origin_y) / spec.cell_size)
    # points on the far edge fold into the last cell
    if col == spec.width and x == spec.origin_x + spec.width * spec.cell_size:
        col -= 1
    if row == spec.height and y == spec.origin_y + spec.height * spec.cell_size:
        row -= 1
    if 0 <= col < spec.width and 0 <= row < spec.height:
        return row, col
    return None


def heatmap_points(
    points: list[tuple[float, float]],
    spec: GridSpec,
    mode: str = "bin",
    sigma: float | None = None,
) -> DensityGrid:
    """Density grid from raw points.

    bin mode: each point increments its cell.  gaussian mode: each point
    spreads a kernel truncated at 3 sigma, renormalized over in-grid cells so
    every in-extent point contributes exactly mass 1.
    """
    values = GridRows(array("d", [0.0]) * spec.width for _ in range(spec.height))
    out_of_extent = 0
    if mode == "bin":
        for x, y in points:
            cell = _cell_of(spec, x, y)
            if cell is None:
                out_of_extent += 1
            else:
                row, col = cell
                values[row][col] += 1.0
    elif mode == "gaussian":
        if sigma is None or sigma <= 0:
            raise ValueError("gaussian mode requires sigma > 0")
        reach = int(math.ceil(3.0 * sigma / spec.cell_size))
        two_var, cutoff = 2.0 * sigma * sigma, (3.0 * sigma) ** 2
        for x, y in points:
            cell = _cell_of(spec, x, y)
            if cell is None:
                out_of_extent += 1
                continue
            row, col = cell
            r0, r1 = max(0, row - reach), min(spec.height - 1, row + reach)
            c0, c1 = max(0, col - reach), min(spec.width - 1, col + reach)
            # squared offsets of the cell centres from the point, per column and per row
            dx2 = [(d := spec.origin_x + (c + 0.5) * spec.cell_size - x) * d for c in range(c0, c1 + 1)]
            dy2 = [(d := spec.origin_y + (r + 0.5) * spec.cell_size - y) * d for r in range(r0, r1 + 1)]
            # (target row, column, weight) of each cell within 3 sigma; cells
            # beyond weigh 0 and are left out, whole rows of them first
            kernel = [(target, c, math.exp(-d2 / two_var))
                      for target, b in zip(values[r0 : r1 + 1], dy2) if b <= cutoff
                      for c, a in enumerate(dx2, start=c0) if (d2 := a + b) <= cutoff]
            total = math.fsum([k for _, _, k in kernel])
            if total <= 0.0:
                values[row][col] += 1.0
            else:
                for target, c, k in kernel:
                    target[c] += k / total
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if out_of_extent:
        log.warning("heatmap: %d point(s) outside the grid extent", out_of_extent)
    return DensityGrid(spec, values, out_of_extent)


def heatmap(
    entries: list[AnnotatedEntry],
    spec: GridSpec,
    mode: str = "bin",
    sigma: float | None = None,
) -> DensityGrid:
    points = [(e.x, e.y) for e in entries if e.x is not None and e.y is not None]
    return heatmap_points(points, spec, mode, sigma)


@dataclass
class SubjectDistribution:
    items: list[tuple[str, int]]        # descending count, ties alphabetical
    unknown: int = 0

    @property
    def total(self) -> int:
        return sum(count for _, count in self.items)

    def counts(self) -> list[int]:
        return [count for _, count in self.items]


def subject_distribution(
    annotated: list[AnnotatedEntry], per_request: bool = False
) -> SubjectDistribution:
    """Counts per subject over all annotated bib id occurrences.

    per_request counts each subject at most once per log entry instead of
    once per recommended item.
    """
    counter: Counter = Counter()
    unknown = 0
    for e in annotated:
        subjects = [a.subject for a in e.annotations]
        if per_request:
            subjects = sorted(set(subjects))
        for subject in subjects:
            if subject == UNKNOWN:
                unknown += 1
            else:
                counter[subject] += 1
    items = sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))
    return SubjectDistribution(items, unknown)


@dataclass(frozen=True)
class PowerLawFit:
    exponent: float
    r_squared: float


def fit_power_law(dist: SubjectDistribution | list[int] | list[float]) -> PowerLawFit:
    """Least-squares line on (log rank, log count); slope is the exponent.

    Counts are taken in rank order (largest first); zero counts are dropped.
    Needs at least 3 nonzero ranks.
    """
    counts = dist.counts() if isinstance(dist, SubjectDistribution) else list(dist)
    counts = sorted((c for c in counts if c > 0), reverse=True)
    if len(counts) < 3:
        raise TooFewRanks(f"need >= 3 nonzero ranks, got {len(counts)}")
    n = len(counts)
    log_r = [math.log(rank) for rank in range(1, n + 1)]
    # log counts relative to the largest: the slope and both sums of squares
    # are the same, but equal counts centre to exact zeros and near-equal
    # ones keep their digits
    top = math.log(counts[0])
    log_c = [math.log(count) - top for count in counts]
    mean_r, mean_c = math.fsum(log_r) / n, math.fsum(log_c) / n
    dev_r = [v - mean_r for v in log_r]
    dev_c = [v - mean_c for v in log_c]
    slope = math.fsum(a * b for a, b in zip(dev_r, dev_c)) / math.fsum(a * a for a in dev_r)
    intercept = mean_c - slope * mean_r
    residuals = [c - (slope * r + intercept) for r, c in zip(log_r, log_c)]
    ss_res = math.fsum(e * e for e in residuals)
    ss_tot = math.fsum(d * d for d in dev_c)
    r_squared = 1.0 if ss_tot < 1e-30 else 1.0 - ss_res / ss_tot
    return PowerLawFit(slope, r_squared)


def trace_identifier(bib_id: str, entries: list[ApiLogEntry]) -> dict[str, int]:
    """Per-module count of entries whose bib id list contains the target."""
    counts = {module: 0 for module in MODULES}
    for entry in entries:
        if bib_id in entry.bib_ids:
            counts[entry.module] += 1
    return counts


@dataclass
class TextStats:
    total_words: int
    unique_forms: int
    top: list[tuple[str, int]]


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip punctuation from token edges."""
    tokens = []
    for raw in text.lower().split():
        token = raw.strip(string.punctuation)
        if token:
            tokens.append(token)
    return tokens


def mine_queries(entries: list[ApiLogEntry], module: str) -> TextStats:
    """Word stats over the `q` params of one module's entries.

    total_words sums every occurrence of every word; unique_forms counts
    distinct tokens once.  Top list is count-descending, ties alphabetical.
    """
    counter: Counter = Counter()
    for entry in entries:
        if entry.module != module:
            continue
        query = entry.params.get("q")
        if query:
            counter.update(tokenize(query))
    top = sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))[:TOP_WORDS]
    return TextStats(sum(counter.values()), len(counter), top)


def time_series(entries: list[ApiLogEntry], module: str) -> list[tuple[str, int]]:
    """Per-calendar-month request counts of one module, zero-filled over its entries' span.

    Each stamp counts in its own calendar month, in the offset it was stamped with.
    """
    counter = Counter(e.timestamp.year * 12 + e.timestamp.month - 1
                      for e in entries if e.module == module)
    if not counter:
        return []
    return [(f"{month // 12:04d}-{month % 12 + 1:02d}", counter[month])
            for month in range(min(counter), max(counter) + 1)]


# --- report output helpers -------------------------------------------------

def write_grid_csv(grid: DensityGrid, path: str | Path) -> None:
    header = (
        f"# origin={grid.spec.origin_x},{grid.spec.origin_y}"
        f" cell_size={grid.spec.cell_size}"
        f" out_of_extent={grid.out_of_extent}\n"
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        for row in grid.values:
            fh.write(",".join(f"{v:.9g}" for v in row) + "\n")


def write_grid_pgm(grid: DensityGrid, path: str | Path) -> None:
    """8-bit grayscale PGM, brightest cell = highest density."""
    peak = max(map(max, grid.values))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"P2\n{grid.spec.width} {grid.spec.height}\n255\n")
        for row in reversed(grid.values):  # row 0 of the grid is the bottom of the image
            scaled = (0 for _ in row) if peak <= 0 else (round(v / peak * 255) for v in row)
            fh.write(" ".join(map(str, scaled)) + "\n")


def write_wayfinder_table(annotated: list[AnnotatedEntry], path: str | Path) -> None:
    """Wayfinding table: uri, hit count, shelf target, call number (one row per uri)."""
    groups: dict[str, list[AnnotatedEntry]] = {}
    for e in annotated:
        if e.entry.module != "wayfinder" or not e.entry.uri.startswith("/api/wayfinder/map_data/"):
            continue
        groups.setdefault(e.entry.uri, []).append(e)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("uri,sum-records,X,Y,shelf-number,call-number\n")
        for uri, entries in groups.items():
            hit = next((e for e in entries if e.x is not None), entries[0])
            call = next((a.call_number for a in hit.annotations if a.call_number), "")
            x = "" if hit.x is None else str(round(hit.x))
            y = "" if hit.y is None else str(round(hit.y))
            shelf = "" if hit.shelf_number is None else str(hit.shelf_number)
            fh.write(f"{quoted(uri)},{len(entries)},{x},{y},{shelf},{quoted(call)}\n")


def write_recommend_table(annotated: list[AnnotatedEntry], path: str | Path) -> None:
    """Recommendation table: uri plus one bib-id column per returned item."""
    rows = [
        e for e in annotated
        if e.entry.module == "recommend" and 200 <= e.entry.status < 300
    ]
    max_ids = max((len(e.entry.bib_ids) for e in rows), default=0)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("uri" + ",bib-id" * max_ids + "\n")
        for e in rows:
            ids = list(e.entry.bib_ids) + [""] * (max_ids - len(e.entry.bib_ids))
            fh.write(quoted(e.entry.uri) + "".join("," + csv_field(i) for i in ids) + "\n")


def write_distribution_csv(dist: SubjectDistribution, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("subject,count\n")
        for subject, count in dist.items:
            fh.write(f"{quoted(subject)},{count}\n")
        if dist.unknown:
            fh.write(f"{quoted(UNKNOWN)},{dist.unknown}\n")

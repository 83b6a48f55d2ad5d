"""Batch analytics over the gateway's transaction logs.

Parse the JSON-lines logs, join recommended/wayfound bib ids to call numbers
and subjects, then aggregate: floor heat maps, subject rank-frequency
distributions with a power-law fit, per-module identifier traces, query text
mining, and monthly request series.  ``study`` is the study report's analysis:
all of these over the logs it is given, with the choices fixed below, and
``write_study`` writes it as the report's files.
"""

from __future__ import annotations

import json
import logging
import math
import string
from array import array
from collections import Counter
from dataclasses import asdict, dataclass, field
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

# The study's analysis: the heat-map cell and Gaussian smoothing width, in map
# units; how many walked bib ids it traces; the modules whose queries it mines
# and those it counts by month.
CELL_SIZE = 20.0
GAUSSIAN_SIGMA = 30.0
TRACED_BIBS = 20
MINED_MODULES = ("catalog", "journal")
COUNTED_MODULES = ("catalog", "journal", "recommend", "wayfinder")


class TooFewRanks(ValueError):
    pass


@dataclass
class ParsedLogs:
    entries: list[ApiLogEntry]
    malformed: list[tuple[str, int, str]] = field(default_factory=list)  # (path, line_no, reason)


def parse_logs(paths: list[str | Path]) -> ParsedLogs:
    """Parse one or more log files; malformed lines are listed, not dropped silently.

    A line is malformed when it is not UTF-8, not JSON, not a JSON object, or
    not an entry with fields of the right types (see ``ApiLogEntry.parse``).
    So is a line nested too deep for the JSON decoder, and a line with a lone
    surrogate escape in any string, which could not be written back as UTF-8.
    Each is listed in ``malformed`` as (path, line number, reason) and not
    logged: the caller reports it or refuses the logs.

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

        Raises ValueError when the cell size is not finite, when the margin
        widens a side of the extent past the largest float, or when the grid
        would have more than MAX_GRID_CELLS cells or a side too long to count.
        """
        if not (cell_size > 0 and math.isfinite(cell_size)):
            raise ValueError(f"cell size must be > 0 and finite: {cell_size}")
        x0, y0 = extent.x_min - margin, extent.y_min - margin
        wide, high = extent.x_max + margin - x0, extent.y_max + margin - y0
        sides = (extent.x_max - extent.x_min, extent.y_max - extent.y_min)
        if all(map(math.isfinite, sides)) and not all(map(math.isfinite, (wide, high))):
            raise ValueError(
                f"cell size {cell_size:g} with margin {margin:g} widens the extent past the largest float"
            )
        across, down = wide / cell_size, high / cell_size
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
        # 3 * sigma * 3 * sigma is inf where (3.0 * sigma) ** 2 would raise OverflowError
        if sigma is None or not (sigma > 0 and math.isfinite(3.0 * sigma * 3.0 * sigma)):
            raise ValueError(f"gaussian mode requires sigma > 0 with (3 sigma)^2 finite: sigma={sigma}")
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


def subject_distribution(annotated: list[AnnotatedEntry]) -> SubjectDistribution:
    """Counts per subject over all annotated bib id occurrences."""
    counter = Counter(a.subject for e in annotated for a in e.annotations)
    unknown = counter.pop(UNKNOWN, 0)
    items = sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))
    return SubjectDistribution(items, unknown)


@dataclass(frozen=True)
class PowerLawFit:
    exponent: float
    r_squared: float


def fit_power_law(dist: SubjectDistribution) -> PowerLawFit:
    """Least-squares line on (log rank, log count); slope is the exponent.

    Counts are taken in rank order (largest first); zero counts are dropped.
    Needs at least 3 nonzero ranks.
    """
    counts = sorted((c for _, c in dist.items if c > 0), reverse=True)
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


@dataclass
class Study:
    annotated: list[AnnotatedEntry]     # the gateway entries
    recommend: list[AnnotatedEntry]     # those of the recommend module
    grid: DensityGrid                   # recommend points, binned
    smooth: DensityGrid                 # recommend points, Gaussian-smoothed
    subjects: SubjectDistribution       # of the recommended items
    fit: PowerLawFit
    traces: dict[str, dict[str, int]]   # first TRACED_BIBS walked bib ids
    mining: dict[str, TextStats]        # by MINED_MODULES
    monthly: dict[str, list[tuple[str, int]]]  # by COUNTED_MODULES


def study(gateway_entries: list[ApiLogEntry], module_entries: list[ApiLogEntry],
          corpus_: CorpusStore, outline: ClassificationOutline, stackmap_: StackMap) -> Study:
    """The study's analysis of the gateway's entries and the other modules' entries.

    The heat maps and subjects cover the recommend entries, annotated against
    the library; the traces follow the bib ids the gateway returned, over all
    entries, as do the query mining and the monthly series.  Writes no file.
    """
    annotated = annotate(gateway_entries, corpus_, outline, stackmap_)
    recommend = [a for a in annotated if a.entry.module == "recommend"]
    spec = GridSpec.covering(stackmap_.map_extent, CELL_SIZE, margin=CELL_SIZE)
    subjects = subject_distribution(recommend)
    # Every use of these is a count, so their order does not matter.
    entries = gateway_entries + module_entries
    walked = sorted({b for e in gateway_entries for b in e.bib_ids})
    return Study(
        annotated=annotated,
        recommend=recommend,
        grid=heatmap(recommend, spec, mode="bin"),
        smooth=heatmap(recommend, spec, mode="gaussian", sigma=GAUSSIAN_SIGMA),
        subjects=subjects,
        fit=fit_power_law(subjects),
        traces={bib: trace_identifier(bib, entries) for bib in walked[:TRACED_BIBS]},
        mining={module: mine_queries(entries, module) for module in MINED_MODULES},
        monthly={module: time_series(entries, module) for module in COUNTED_MODULES},
    )


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


def write_study(result: Study, out_dir: str | Path) -> dict:
    """Write a study as the report's files under out_dir; return its summary.

    The files are the wayfinder and recommend tables, the bin grid as CSV and
    PGM, the smoothed grid, the subject distribution, one monthly series per
    COUNTED_MODULES, and the summary as summary.json.  The request counts are
    those of the gateway entries the study was given.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_wayfinder_table(result.annotated, out / "wayfinder_table.csv")
    write_recommend_table(result.annotated, out / "recommend_table.csv")
    write_grid_csv(result.grid, out / "heatmap_grid.csv")
    write_grid_pgm(result.grid, out / "heatmap.pgm")
    write_grid_csv(result.smooth, out / "heatmap_smooth.csv")
    write_distribution_csv(result.subjects, out / "subject_distribution.csv")
    for module, series in result.monthly.items():
        rows = "".join(f"{month},{count}\n" for month, count in series)
        (out / f"monthly_{module}.csv").write_text("month,count\n" + rows, encoding="utf-8")
    summary = {
        "requests": len(result.annotated),
        "recommend_requests": len(result.recommend),
        "wayfind_requests": len(result.annotated) - len(result.recommend),
        "heatmap_mass": result.grid.total_mass,
        "heatmap_out_of_extent": result.grid.out_of_extent,
        "subject_distribution": result.subjects.items,
        "subject_unknown": result.subjects.unknown,
        "power_law": {"exponent": result.fit.exponent, "r_squared": result.fit.r_squared},
        "traces": result.traces,
        "text_mining": {module: asdict(stats) for module, stats in result.mining.items()},
        "monthly": result.monthly,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True), encoding="utf-8")
    return summary

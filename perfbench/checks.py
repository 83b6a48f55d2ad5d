"""Correctness checkers, computed apart from the program.

Every checker reads the generated fixtures and the raw outputs (HTTP bodies,
log lines, report files) and recomputes the expected answer with its own
code: call numbers are ordered by a component tuple with right-padded digit
strings, not by ``CallNumber.sort_key``.  Each checker returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import json
import math
import re
import string
from collections import Counter
from pathlib import Path

# --- fixtures -----------------------------------------------------------------

_CALL_RE = re.compile(
    r"^(?P<letters>[A-Z]{1,3})(?P<int>[0-9]+)(?:\.(?P<frac>[0-9]+))?"
    r"(?P<cutters>(?: \.?[A-Z][0-9]+)*)(?: (?P<year>[0-9]{4}))?(?: (?P<suffix>.+))?$"
)


def _pad(digits: str) -> str:
    return (digits + "0" * 30)[:30]


def call_key(text: str) -> tuple:
    """Shelf-order key of a canonical call-number string."""
    m = _CALL_RE.match(text)
    if m is None:
        raise ValueError(f"not a canonical call number: {text!r}")
    cutters = tuple((c.lstrip(".")[0], _pad(c.lstrip(".")[1:])) for c in m["cutters"].split())
    year = m["year"]
    return (
        m["letters"],
        int(m["int"]),
        _pad(m["frac"] or ""),
        cutters,
        (0, 0) if year is None else (1, int(year)),
        m["suffix"] or "",
    )


def _is_class_prefix(key: tuple) -> bool:
    return not key[3] and key[4] == (0, 0) and not key[5]


def key_in_range(key: tuple, start: tuple, end: tuple) -> bool:
    """Closed range; an end without cutters, year or suffix covers its whole class number."""
    if key < start:
        return False
    if _is_class_prefix(end):
        return key[:3] <= end[:3]
    return key <= end


class Library:
    """The generated fixture set, read with the csv module only."""

    def __init__(self, root: str | Path):
        root = Path(root)
        self.records: dict[str, dict] = {}
        with open(root / "catalog.csv", newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                self.records[row["bib_id"]] = {
                    "bib_id": row["bib_id"],
                    "call_number": row["call_number"],
                    "key": call_key(row["call_number"]),
                    "format": row["format"],
                }
        self.charges: Counter = Counter()
        with open(root / "circulation.csv", newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                self.charges[row["bib_id"]] += 1
        self.shelves: dict[int, dict] = {}
        with open(root / "stackmap.csv", newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                number = int(row["shelf_number"])
                self.shelves[number] = {
                    "number": number,
                    "rect": tuple(float(row[k]) for k in ("x_min", "y_min", "x_max", "y_max")),
                    "start": row["range_start"],
                    "end": row["range_end"],
                    "start_key": call_key(row["range_start"]),
                    "end_key": call_key(row["range_end"]),
                }
        self.beacons: dict[str, tuple[float, float, float]] = {}
        with open(root / "beacons.csv", newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                self.beacons[row["beacon_id"]] = (float(row["x"]), float(row["y"]), float(row["tx_power"]))
        sides = sorted(min(r[2] - r[0], r[3] - r[1]) for r in (s["rect"] for s in self.shelves.values()))
        self.radius = 1.5 * sides[len(sides) // 2]

    @property
    def extent(self) -> tuple[float, float, float, float]:
        rects = [s["rect"] for s in self.shelves.values()]
        return (min(r[0] for r in rects), min(r[1] for r in rects),
                max(r[2] for r in rects), max(r[3] for r in rects))


def _rect_distance(rect, x: float, y: float) -> float:
    dx = max(rect[0] - x, 0.0, x - rect[2])
    dy = max(rect[1] - y, 0.0, y - rect[3])
    return math.hypot(dx, dy)


# --- patron requests ----------------------------------------------------------

def check_map_data(lib: Library, bib_id: str, status: int, body: dict) -> list[str]:
    """The named shelf's range holds the item; x/y are that shelf's rounded centre."""
    record = lib.records[bib_id]
    if status != 200:
        return [f"map_data {bib_id}: status {status}"]
    shelf = lib.shelves.get(body.get("shelf_number"))
    if shelf is None:
        return [f"map_data {bib_id}: unknown shelf {body.get('shelf_number')}"]
    problems = []
    if not key_in_range(record["key"], shelf["start_key"], shelf["end_key"]):
        problems.append(f"map_data {bib_id}: {record['call_number']} not on shelf {shelf['number']}")
    r = shelf["rect"]
    if (body.get("x"), body.get("y")) != (round((r[0] + r[2]) / 2), round((r[1] + r[3]) / 2)):
        problems.append(f"map_data {bib_id}: x/y {body.get('x')},{body.get('y')} not the shelf centre")
    if body.get("call_number") != record["call_number"]:
        problems.append(f"map_data {bib_id}: call number {body.get('call_number')!r}")
    return problems


def expected_popular_near(lib: Library, x: float, y: float, max_items: int = 5, max_ebooks: int = 3):
    """Brute force: nearby shelves, top circulated prints, first e-books in shelf order."""
    near = sorted(
        (s for s in lib.shelves.values() if _rect_distance(s["rect"], x, y) <= lib.radius),
        key=lambda s: (_rect_distance(s["rect"], x, y), s["number"]),
    )
    held = [
        rec for rec in lib.records.values()
        if any(key_in_range(rec["key"], s["start_key"], s["end_key"]) for s in near)
    ]
    prints = sorted(
        ((rec, lib.charges[rec["bib_id"]]) for rec in held
         if rec["format"] == "print" and lib.charges[rec["bib_id"]] > 0),
        key=lambda pair: (-pair[1], pair[0]["bib_id"]),
    )[:max_items]
    ebooks = sorted(
        (rec for rec in held if rec["format"] == "ebook"),
        key=lambda rec: (rec["key"], rec["bib_id"]),
    )[:max_ebooks]
    return (
        [(s["start"], s["end"]) for s in near],
        [(rec["bib_id"], float(n)) for rec, n in prints],
        [(rec["bib_id"], float(lib.charges[rec["bib_id"]])) for rec in ebooks],
    )


def check_popular_near(lib: Library, x: float, y: float, status: int, body: dict) -> list[str]:
    if status != 200:
        return [f"popularnear {x},{y}: status {status}"]
    ranges, prints, ebooks = expected_popular_near(lib, x, y)
    got_ranges = [(r["start"], r["end"]) for r in body.get("ranges", [])]
    items = body.get("items", [])
    got_prints = [(i["bib_id"], i["score"]) for i in items if i["kind"] == "print"]
    got_ebooks = [(i["bib_id"], i["score"]) for i in items if i["kind"] == "ebook"]
    problems = []
    if got_ranges != ranges:
        problems.append(f"popularnear {x},{y}: ranges {got_ranges} != {ranges}")
    if got_prints != prints:
        problems.append(f"popularnear {x},{y}: prints {got_prints} != {prints}")
    if got_ebooks != ebooks:
        problems.append(f"popularnear {x},{y}: ebooks {got_ebooks} != {ebooks}")
    return problems


def expected_position(lib: Library, observations: list[dict], k: int = 3, n: float = 2.0):
    """1/d-weighted centroid of the k strongest known beacons (log-distance ranges)."""
    known = sorted(
        (o for o in observations if o["beacon_id"] in lib.beacons),
        key=lambda o: (-o["rssi"], o["beacon_id"]),
    )[:k]
    sw = sx = sy = sd = 0.0
    for o in known:
        bx, by, tx = lib.beacons[o["beacon_id"]]
        d = max(10.0 ** ((tx - o["rssi"]) / (10.0 * n)), 1e-9)
        sw += 1.0 / d
        sx += bx / d
        sy += by / d
        sd += 1.0
    return sx / sw, sy / sw, sd / sw


def check_locate(lib: Library, observations: list[dict], status: int, body: dict) -> list[str]:
    if status != 200:
        return [f"locate: status {status}"]
    want = expected_position(lib, observations)
    got = (body.get("x"), body.get("y"), body.get("confidence_radius"))
    if any(g is None or not math.isclose(g, w, rel_tol=1e-9, abs_tol=1e-9) for g, w in zip(got, want)):
        return [f"locate: {got} != {want}"]
    return []


# --- logs -----------------------------------------------------------------------

def read_log(path: str | Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def bin_grid(points, extent, cell: float) -> tuple[list[list[float]], int]:
    """Count grid over extent plus one cell of margin; far edges fold into the last cell."""
    x0, y0 = extent[0] - cell, extent[1] - cell
    width = max(1, math.ceil((extent[2] + cell - x0) / cell))
    height = max(1, math.ceil((extent[3] + cell - y0) / cell))
    grid = [[0.0] * width for _ in range(height)]
    outside = 0
    for x, y in points:
        col, row = int((x - x0) // cell), int((y - y0) // cell)
        col -= col == width and x == x0 + width * cell
        row -= row == height and y == y0 + height * cell
        if 0 <= col < width and 0 <= row < height:
            grid[row][col] += 1.0
        else:
            outside += 1
    return grid, outside


def _tokens(text: str) -> list[str]:
    return [t for t in (raw.strip(string.punctuation) for raw in text.lower().split()) if t]


def check_year_pass(lines: list[dict], extent, cell: float, out: dict) -> list[str]:
    """One analytics pass against recounts over the raw log lines."""
    problems = []
    recommend = [e for e in lines if e["module"] == "recommend"]
    points = [(float(e["params"]["x"]), float(e["params"]["y"])) for e in recommend]
    grid, outside = bin_grid(points, extent, cell)
    if out["bin_grid"] != grid or out["bin_out_of_extent"] != outside:
        problems.append("bin heat map differs from the recount")
    if abs(out["gaussian_mass"] - (len(points) - outside)) > 1e-6:
        problems.append(f"gaussian mass {out['gaussian_mass']} != {len(points) - outside} points")
    occurrences = sum(len(e["bib_ids"]) for e in recommend)
    if sum(n for _, n in out["subjects"]) + out["subject_unknown"] != occurrences:
        problems.append("subject counts do not add up to the bib occurrences")
    for bib, counts in out["traces"].items():
        want = Counter(e["module"] for e in lines if bib in e["bib_ids"])
        if {m: n for m, n in counts.items() if n} != dict(want):
            problems.append(f"trace {bib}: {counts} != {dict(want)}")
    for module, stats in out["mining"].items():
        words = Counter(t for e in lines if e["module"] == module for t in _tokens(e["params"].get("q", "")))
        top = sorted(words.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
        if (stats["total_words"], stats["unique_forms"], [tuple(t) for t in stats["top"]]) != (
            sum(words.values()), len(words), top
        ):
            problems.append(f"mine_queries {module} differs from the recount")
    for module, series in out["monthly"].items():
        months = Counter(e["timestamp"][:7] for e in lines if e["module"] == module)
        if {m: n for m, n in series if n} != dict(months) or sum(n for _, n in series) != sum(months.values()):
            problems.append(f"monthly {module} differs from the recount")
    return problems


# --- study report ---------------------------------------------------------------

def _read_grid_csv(path: Path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        values = [[float(v) for v in line.split(",")] for line in fh if line.strip()]
    m = re.match(r"# origin=(\S+),(\S+) cell_size=(\S+) out_of_extent=(\d+)", header)
    return (float(m[1]), float(m[2]), float(m[3]), int(m[4])), values


def _least_squares_fit(counts: list[int]) -> tuple[float, float]:
    """Slope and R² of log(count) on log(rank), counts in descending order."""
    counts = sorted((c for c in counts if c > 0), reverse=True)
    xs = [math.log(rank) for rank in range(1, len(counts) + 1)]
    ys = [math.log(c) for c in counts]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
    ss_res = sum((y - my - slope * (x - mx)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - my) ** 2 for y in ys)
    return slope, 1.0 - ss_res / ss_tot


def check_report(report_dir: str | Path, expected_requests: int) -> list[str]:
    report_dir = Path(report_dir)
    problems = []
    lines = read_log(report_dir / "gateway.jsonl")
    if len(lines) != expected_requests:
        problems.append(f"report: {len(lines)} log lines for {expected_requests} requests")
    recommend = [e for e in lines if e["module"] == "recommend"]
    (ox, oy, cell, outside), values = _read_grid_csv(report_dir / "heatmap_grid.csv")
    mass = sum(map(sum, values))
    if mass != len(recommend):
        problems.append(f"report: heat-map mass {mass} != {len(recommend)} recommend requests")
    x1, y1 = ox + cell * len(values[0]), oy + cell * len(values)
    strays = [
        e["params"] for e in recommend
        if not (ox <= float(e["params"]["x"]) <= x1 and oy <= float(e["params"]["y"]) <= y1)
    ]
    if outside or strays:
        problems.append(f"report: {outside} points outside the heat map, {len(strays)} by recount")
    summary = json.loads((report_dir / "summary.json").read_text(encoding="utf-8"))
    occurrences = sum(len(e["bib_ids"]) for e in recommend)
    counts = [n for _, n in summary["subject_distribution"]]
    if sum(counts) + summary["subject_unknown"] != occurrences:
        problems.append(f"report: subject counts do not add up to {occurrences} bib occurrences")
    slope, r2 = _least_squares_fit(counts)
    fit = summary["power_law"]
    if not (math.isclose(fit["exponent"], slope, abs_tol=1e-9) and math.isclose(fit["r_squared"], r2, abs_tol=1e-9)):
        problems.append(f"report: power law {fit} != least squares ({slope}, {r2})")
    return problems


def study_outcome(report_dir: str | Path) -> dict:
    """The paper's long-tail result as the report states it: top subjects and the fit."""
    summary = json.loads((Path(report_dir) / "summary.json").read_text(encoding="utf-8"))
    return {
        "top_subjects": [label for label, _ in summary["subject_distribution"][:2]],
        "exponent": summary["power_law"]["exponent"],
        "r_squared": summary["power_law"]["r_squared"],
    }

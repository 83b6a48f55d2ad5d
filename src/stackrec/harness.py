"""Synthetic-world generator and end-to-end report driver.

Builds a desk-scale library (catalog, circulation skew, shelves, beacons) and
patron walks over it.  ``run_report`` reproduces the study in named stages: it
generates a library, loads it into a gateway and walks it; ``replay`` sends
the walk's requests to the live gateway, and ``analyze`` runs the analytics
suite over the gateway's log.  Everything is deterministic per seed; walk
timestamps come from a simulated clock, so a year-long study window replays
in seconds.
"""

from __future__ import annotations

import json
import logging
import random
import shutil
import urllib.parse
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from datetime import datetime, timedelta
from importlib import resources
from itertools import accumulate
from pathlib import Path
from typing import ClassVar, Iterator

from . import corpus, lccn, locate, stacksmap, telemetry
from .config import DATA_FILES, ServiceConfig, quoted
from .gateway import ApiLogEntry, Gateway, GatewayServer

log = logging.getLogger(__name__)

STUDY_START = datetime(2016, 9, 1)
STUDY_END = datetime(2017, 8, 31, 23, 59)

# (class letters, low class number, high class number, draw weight)
CLASS_SPECS = [
    ("PS", 1, 3626, 100),
    ("PR", 1, 8308, 55),
    ("PZ", 5, 90, 30),
    ("PN", 1, 1990, 30),
    ("HD", 28, 9999, 25),
    ("ML", 1, 3930, 24),
    ("QA", 1, 939, 24),
    ("QH", 1, 705, 23),
    ("ND", 25, 3416, 23),
    ("GV", 1, 1860, 17),
    ("SF", 1, 1100, 13),
    ("E", 151, 889, 12),
    ("TX", 1, 1110, 12),
    ("B", 1, 5802, 9),
    ("BF", 1, 990, 6),
]

_TITLE_WORDS = [
    "studies", "history", "introduction", "reader", "companion", "essays",
    "survey", "perspectives", "handbook", "anthology", "notes", "guide",
]

# Circulation skew: the most-charged ranks go to the head classes, and the
# charges of rank r fall as a Zipf law, CHARGE_SCALE / r ** ZIPF_EXPONENT.
HEAD_CLASSES = ("PS", "PR")
CHARGE_SCALE = 4000             # charges of the rank-1 item
ZIPF_EXPONENT = 1.0
EBOOK_SHARE = 0.12
N_BEACONS = 12                  # in 4 columns of 3, over the floor

# Patron walks: draw weights of the near-shelf, aisle and entrance zones, extra
# idle steps as a fraction of requests, and the requests' wayfinding share.
ZONE_WEIGHTS = (0.62, 0.18, 0.20)
IDLE_SHARE = 0.10
WAYFIND_SHARE = 1 / 3

# The replay's wayfinding collection, and the report's heat-map cell and
# Gaussian smoothing width, in map units.
COLLECTION = "uiu_undergrad"
CELL_SIZE = 20.0
GAUSSIAN_SIGMA = 30.0

_QUERY_WORDS = [
    "fish", "google", "math", "test", "hiv", "history", "poetry", "novel",
    "physics", "music", "film", "statistics", "shakespeare", "chemistry",
    "economics", "biology", "painting", "cooking", "psychology", "games",
]


def packaged_outline_path() -> Path:
    return Path(str(resources.files("stackrec").joinpath("data/lcc_outline.tsv")))


@dataclass(kw_only=True)
class FixtureSet(ServiceConfig):
    """A generated library: its data files, named as in DATA_FILES, under root."""

    root: Path


def _random_call_number(rng: random.Random, letters: str, lo: int, hi: int) -> lccn.CallNumber:
    number = rng.randint(lo, hi)
    frac = ""
    if rng.random() < 0.25:
        frac = str(rng.randint(1, 99)).rstrip("0") or "5"
    cutter_letter = chr(ord("A") + rng.randrange(26))
    digits = str(rng.randint(1, 9999)).rstrip("0") or "5"
    cutters = [lccn.Cutter(cutter_letter, digits)]
    if rng.random() < 0.3:
        second = chr(ord("A") + rng.randrange(26))
        second_digits = str(rng.randint(1, 999)).rstrip("0") or "5"
        cutters.append(lccn.Cutter(second, second_digits))
    year = rng.randint(1950, 2017) if rng.random() < 0.6 else None
    return lccn.CallNumber(letters, number, frac, tuple(cutters), year)


def gen_corpus(
    seed: int,
    n_records: int,
    out_dir: str | Path = "fixtures",
    n_shelves: int = 40,
) -> FixtureSet:
    """Write a deterministic synthetic fixture set under out_dir.

    The catalog spreads over the configured classes; circulation follows a
    Zipf(ZIPF_EXPONENT) rank-frequency law with the head ranks concentrated in
    HEAD_CLASSES.
    """
    if n_records < 10:
        raise ValueError("n_records must be >= 10")
    rng = random.Random(seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    fixtures = FixtureSet(root=out, **{name: out / file for name, file in DATA_FILES.items()})

    letters_pool = [spec[0] for spec in CLASS_SPECS]
    weights = [spec[3] for spec in CLASS_SPECS]
    spans = {spec[0]: (spec[1], spec[2]) for spec in CLASS_SPECS}

    seen: set[str] = set()
    records = []  # (bib_id, title, call_number, format, class_letters)
    while len(records) < n_records:
        letters = rng.choices(letters_pool, weights=weights)[0]
        lo, hi = spans[letters]
        cn = _random_call_number(rng, letters, lo, hi)
        canonical = lccn.canonical_format(cn)
        if canonical in seen:
            continue
        seen.add(canonical)
        idx = len(records) + 1
        fmt = "ebook" if rng.random() < EBOOK_SHARE else "print"
        prefix = "hat" if fmt == "ebook" else "uiu"
        title = f"{letters} {rng.choice(_TITLE_WORDS)} {idx}"
        records.append((f"{prefix}_{1000000 + idx}", title, cn, fmt, letters))

    with open(fixtures.catalog, "w", encoding="utf-8", newline="") as fh:
        fh.write("bib_id,title,call_number,format\n")
        for bib_id, title, cn, fmt, _ in records:
            fh.write(f"{bib_id},{quoted(title)},{quoted(lccn.canonical_format(cn))},{fmt}\n")

    # Popularity ranks: head classes first (shuffled within), then the rest.
    prints = [r for r in records if r[3] == "print"]
    head = [r for r in prints if r[4] in HEAD_CLASSES]
    tail = [r for r in prints if r[4] not in HEAD_CLASSES]
    rng.shuffle(head)
    rng.shuffle(tail)
    ranked = head + tail
    window_minutes = int((STUDY_END - STUDY_START).total_seconds() // 60)
    with open(fixtures.circulation, "w", encoding="utf-8", newline="") as fh:
        fh.write("bib_id,charge_date\n")
        for rank, (bib_id, *_rest) in enumerate(ranked, start=1):
            count = max(1, round(CHARGE_SCALE / rank ** ZIPF_EXPONENT))
            for _ in range(count):
                at = STUDY_START + timedelta(minutes=rng.randrange(window_minutes))
                fh.write(f"{bib_id},{at.isoformat()}\n")

    # One dominant journal per class subject plus minor noise journals.
    outline = lccn.load_outline(packaged_outline_path())
    with open(fixtures.articles, "w", encoding="utf-8", newline="") as fh:
        fh.write("journal_title,article_title,subject\n")
        for letters, lo, _hi, _w in CLASS_SPECS:
            label = outline.classify(lccn.parse(f"{letters}{lo}"))
            rows = [(f"Journal of {label}", f"Survey article {letters} 1")]
            rows += [(f"Journal of {label}", f"Topical article {letters} {i}") for i in range(2, 6)]
            rows.append((f"Annals of {letters}", f"Minor note {letters}"))
            for journal, title in rows:
                fh.write(f"{quoted(journal)},{quoted(title)},{quoted(label)}\n")

    with open(fixtures.databases, "w", encoding="utf-8", newline="") as fh:
        fh.write("name,range_start,range_end\n")
        fh.write("Literature Online,PR1,PS3626\n")
        fh.write("America: History and Life,E151,E889\n")

    # Shelves: contiguous slices of the shelf-ordered catalog, laid out on a
    # grid of stack ranges with aisles between columns.
    ordered = sorted(records, key=lambda r: (r[2].sort_key(), r[0]))
    n_shelves = min(n_shelves, len(ordered))
    per_shelf = len(ordered) / n_shelves
    cols = 8
    rows = (n_shelves + cols - 1) // cols
    shelf_w, shelf_h, aisle = 80.0, 30.0, 40.0
    with open(fixtures.stackmap, "w", encoding="utf-8", newline="") as fh:
        fh.write("shelf_number,x_min,y_min,x_max,y_max,range_start,range_end\n")
        for i in range(n_shelves):
            lo_idx = round(i * per_shelf)
            hi_idx = min(len(ordered), round((i + 1) * per_shelf)) - 1
            if hi_idx < lo_idx:
                continue
            start = lccn.canonical_format(ordered[lo_idx][2])
            end = lccn.canonical_format(ordered[hi_idx][2])
            col, row = i % cols, i // cols
            x0 = 60.0 + col * (shelf_w + aisle)
            y0 = 120.0 + row * (shelf_h + aisle)
            fh.write(f"{i + 1},{x0},{y0},{x0 + shelf_w},{y0 + shelf_h},"
                     f"{quoted(start)},{quoted(end)}\n")

    with open(fixtures.beacons, "w", encoding="utf-8", newline="") as fh:
        fh.write("beacon_id,x,y,tx_power\n")
        for i in range(N_BEACONS):
            bx = 80.0 + (i % 4) * 260.0
            by = 100.0 + (i // 4) * 160.0
            fh.write(f"b{i + 1:02d},{bx},{by},{locate.DEFAULT_TX_POWER}\n")

    shutil.copyfile(packaged_outline_path(), fixtures.outline)
    # A ``stackrec serve --config`` file naming the other files by relative path.
    (out / "service.json").write_text(json.dumps(DATA_FILES, indent=2) + "\n", encoding="utf-8")
    return fixtures


@dataclass(frozen=True)
class WalkStep:
    x: float
    y: float
    action: str                     # "wayfind" | "recommend" | "idle"
    dwell: float                    # simulated seconds
    bib_id: str | None = None


@dataclass
class WalkScript:
    seed: int
    steps: list[WalkStep]

    @property
    def request_count(self) -> int:
        return sum(1 for s in self.steps if s.action != "idle")

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "steps": [
                    {"x": s.x, "y": s.y, "action": s.action, "dwell": s.dwell,
                     **({"bib_id": s.bib_id} if s.bib_id else {})}
                    for s in self.steps
                ],
            },
            indent=2,
        )


def gen_walk(
    seed: int,
    stackmap_: stacksmap.StackMap,
    n_requests: int,
    corpus_: corpus.CorpusStore | None = None,
) -> WalkScript:
    """A deterministic patron walk: near-shelf, aisle, and entrance-zone points.

    Near-shelf points pick a class by the configured draw weights (topical
    interest), then a point just outside that class's stack; wayfinding steps,
    WAYFIND_SHARE of the requests, target circulation-weighted items when a
    corpus is supplied.  The remaining requests are recommendations.
    """
    if n_requests < 0:
        raise ValueError("n_requests must be >= 0")
    rng = random.Random(seed)
    extent = stackmap_.map_extent
    margin = 25.0

    by_class: dict[str, list[stacksmap.Shelf]] = {}
    for shelf in stackmap_.shelves:
        by_class.setdefault(shelf.range.start.class_letters, []).append(shelf)
    class_pool = [spec[0] for spec in CLASS_SPECS if spec[0] in by_class]
    class_weights = [spec[3] for spec in CLASS_SPECS if spec[0] in by_class]

    wayfind_bibs: list[str] = []
    wayfind_weights: list[int] = []
    if corpus_ is not None:
        for rec in corpus_.records.values():
            if rec.format == "print":
                wayfind_bibs.append(rec.bib_id)
                wayfind_weights.append(corpus_.circulation_count(rec.bib_id) + 1)
    # random.choices would rebuild this from the weights on each draw; the draws are the same
    wayfind_cum_weights = list(accumulate(wayfind_weights))

    def clamp(x: float, y: float) -> tuple[float, float]:
        return (
            min(max(x, extent.x_min), extent.x_max),
            min(max(y, extent.y_min), extent.y_max),
        )

    def sample_point() -> tuple[float, float]:
        zone = rng.choices(("near_shelf", "aisle", "entrance"), weights=ZONE_WEIGHTS)[0]
        if zone == "near_shelf" and class_pool:
            letters = rng.choices(class_pool, weights=class_weights)[0]
            shelf = rng.choice(by_class[letters])
            b = shelf.bounds
            return clamp(
                rng.uniform(b.x_min - 15.0, b.x_max + 15.0),
                rng.uniform(b.y_min - 15.0, b.y_max + 15.0),
            )
        if zone == "aisle":
            return (rng.uniform(extent.x_min, extent.x_max),
                    rng.uniform(extent.y_min, extent.y_max))
        # entrance zone: a strip along the bottom edge of the map
        return clamp(
            rng.uniform(extent.x_min, extent.x_min + 0.3 * extent.width),
            rng.uniform(extent.y_min, extent.y_min + 10.0),
        )

    total_seconds = (STUDY_END - STUDY_START).total_seconds()
    n_idle = round(n_requests * IDLE_SHARE)
    n_steps = n_requests + n_idle
    mean_dwell = total_seconds / max(1, n_steps)

    actions = ["idle"] * n_idle
    n_wayfind = round(n_requests * WAYFIND_SHARE) if wayfind_bibs else 0
    actions += ["wayfind"] * n_wayfind + ["recommend"] * (n_requests - n_wayfind)
    rng.shuffle(actions)

    steps: list[WalkStep] = []
    for action in actions:
        x, y = sample_point()
        dwell = rng.uniform(0.2, 1.8) * mean_dwell
        bib_id = None
        if action == "wayfind":
            bib_id = rng.choices(wayfind_bibs, cum_weights=wayfind_cum_weights)[0]
        steps.append(WalkStep(x, y, action, dwell, bib_id))
    return WalkScript(seed, steps)


@dataclass
class ReportConfig:
    """Where a study report goes and its seed; the study's sizes are constants."""

    out_dir: str = "report"
    seed: int = 7
    records: ClassVar[int] = 500
    requests: ClassVar[int] = 600
    wayfind_requests: ClassVar[int] = round(requests * WAYFIND_SHARE)  # as gen_walk splits them
    recommend_requests: ClassVar[int] = requests - wayfind_requests
    catalog_searches: ClassVar[int] = 600
    journal_searches: ClassVar[int] = 200


class ReportError(RuntimeError):
    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(message)


def _synthesize_module_log(
    rng: random.Random,
    path: Path,
    walked_bibs: list[str],
    n_catalog: int,
    n_journal: int,
) -> None:
    """Fixture logs for the surrounding app modules (search, display, reserves...).

    These exercise identifier tracing, query mining, and monthly series; only
    the wayfinder/recommend modules are actually served.
    """
    window_minutes = int((STUDY_END - STUDY_START).total_seconds() // 60)
    zipf_weights = [1.0 / (i + 1) for i in range(len(_QUERY_WORDS))]
    entries: list[ApiLogEntry] = []

    def stamp() -> datetime:
        return STUDY_START + timedelta(minutes=rng.randrange(window_minutes))

    for module, count in (("catalog", n_catalog), ("journal", n_journal)):
        for _ in range(count):
            n_words = rng.choices((1, 2, 3), weights=(5, 3, 1))[0]
            q = " ".join(rng.choices(_QUERY_WORDS, weights=zipf_weights, k=n_words))
            entries.append(
                ApiLogEntry(
                    timestamp=stamp(),
                    module=module,
                    uri=f"/api/{module}/search?q={urllib.parse.quote_plus(q)}",
                    params={"q": q},
                    status=200,
                )
            )
    if walked_bibs:
        for module, count in (
            ("display", 120), ("hoot", 25), ("account", 30), ("topicspace", 20), ("citation", 15)
        ):
            for _ in range(count):
                bib = rng.choice(walked_bibs)
                entries.append(
                    ApiLogEntry(
                        timestamp=stamp(),
                        module=module,
                        uri=f"/api/{module}/item/{bib}",
                        params={"bib_id": bib},
                        status=200,
                        bib_ids=(bib,),
                    )
                )
    entries.sort(key=lambda e: e.timestamp)
    with open(path, "w", encoding="utf-8") as fh:
        for entry in entries:
            fh.write(entry.to_json() + "\n")


@contextmanager
def _stage(name: str) -> Iterator[None]:
    """Run one report stage: an error in it becomes ReportError(name, message).

    A ReportError raised within, by an inner stage, passes through unchanged.
    """
    try:
        yield
    except ReportError:
        raise
    except Exception as exc:
        raise ReportError(name, str(exc)) from exc


def replay(gateway: Gateway, walk: WalkScript, clock: dict[str, datetime]) -> None:
    """Send the walk's requests to the gateway over HTTP, one ``urlopen`` each.

    Each step first advances the simulated clock, ``clock["now"]``, by its dwell.
    The HTTP client is imported here: it loads ``http.client``, ``ssl`` and
    ``email``, which no other stage needs.
    """
    import urllib.request

    with GatewayServer(gateway) as server:
        for step in walk.steps:
            clock["now"] += timedelta(seconds=step.dwell)
            if step.action == "idle":
                continue
            if step.action == "wayfind":
                path = f"/api/wayfinder/map_data/{COLLECTION}/{step.bib_id}"
            else:
                path = f"/api/recommend/popularnear?x={step.x:.6f}&y={step.y:.6f}"
            with urllib.request.urlopen(server.base_url + path, timeout=10) as resp:
                resp.read()


def analyze(config: ReportConfig, gateway: Gateway, walk: WalkScript) -> dict:
    """Run the analytics over the replayed gateway's closed log and write the report.

    Reads the gateway's log once, writes modules.jsonl from the bib ids it
    names, and returns the summary, also written to summary.json.
    """
    out = Path(config.out_dir)
    with _stage("parse_logs"):
        parsed = telemetry.parse_logs([gateway.txn_log.path])
        if parsed.malformed:
            raise ValueError(f"{len(parsed.malformed)} malformed lines")
        if len(parsed.entries) != walk.request_count:
            raise ValueError(
                f"{len(parsed.entries)} logged entries != {walk.request_count} requests"
            )

    with _stage("telemetry"):
        walked_bibs = sorted({b for e in parsed.entries for b in e.bib_ids})
        modules_log = out / "modules.jsonl"
        _synthesize_module_log(
            random.Random(config.seed + 2), modules_log, walked_bibs,
            config.catalog_searches, config.journal_searches,
        )
        # Every use of these is a count, so their order does not matter.
        all_entries = parsed.entries + telemetry.parse_logs([modules_log]).entries

        stack = gateway.stackmap
        annotated = telemetry.annotate(parsed.entries, gateway.corpus, gateway.outline, stack)
        telemetry.write_wayfinder_table(annotated, out / "wayfinder_table.csv")
        telemetry.write_recommend_table(annotated, out / "recommend_table.csv")
        rec_annotated = [a for a in annotated if a.entry.module == "recommend"]

        with _stage("heatmap"):
            spec = telemetry.GridSpec.covering(stack.map_extent, CELL_SIZE, margin=CELL_SIZE)
            grid = telemetry.heatmap(rec_annotated, spec, mode="bin")
            telemetry.write_grid_csv(grid, out / "heatmap_grid.csv")
            telemetry.write_grid_pgm(grid, out / "heatmap.pgm")
            smooth = telemetry.heatmap(rec_annotated, spec, mode="gaussian", sigma=GAUSSIAN_SIGMA)
            telemetry.write_grid_csv(smooth, out / "heatmap_smooth.csv")
            if grid.out_of_extent != 0:
                raise ValueError(f"{grid.out_of_extent} points fell outside the grid")
            if abs(grid.total_mass - len(rec_annotated)) > 1e-9:
                raise ValueError(
                    f"grid mass {grid.total_mass} != {len(rec_annotated)} recommend requests"
                )

        with _stage("subjects"):
            dist = telemetry.subject_distribution(rec_annotated)
            telemetry.write_distribution_csv(dist, out / "subject_distribution.csv")
            if dist.total + dist.unknown != sum(len(a.annotations) for a in rec_annotated):
                raise ValueError("distribution counts do not conserve occurrences")
            fit = telemetry.fit_power_law(dist)

        traces = {bib: telemetry.trace_identifier(bib, all_entries) for bib in walked_bibs[:20]}
        mining = {
            module: asdict(telemetry.mine_queries(all_entries, module))
            for module in ("catalog", "journal")
        }
        monthly = {
            module: telemetry.time_series(all_entries, module)
            for module in ("catalog", "journal", "recommend", "wayfinder")
        }
        for module, series in monthly.items():
            rows = "".join(f"{month},{count}\n" for month, count in series)
            (out / f"monthly_{module}.csv").write_text("month,count\n" + rows, encoding="utf-8")

    summary = {
        "requests": walk.request_count,
        "recommend_requests": len(rec_annotated),
        "wayfind_requests": walk.request_count - len(rec_annotated),
        "heatmap_mass": grid.total_mass,
        "heatmap_out_of_extent": grid.out_of_extent,
        "subject_distribution": dist.items,
        "subject_unknown": dist.unknown,
        "power_law": {"exponent": fit.exponent, "r_squared": fit.r_squared},
        "traces": traces,
        "text_mining": mining,
        "monthly": monthly,
    }
    text = json.dumps(summary, indent=2, sort_keys=True)
    (out / "summary.json").write_text(text, encoding="utf-8")
    return summary


def run_report(config: ReportConfig) -> dict:
    """Generate a library, load it, walk it, replay the walk over HTTP, analyze the log.

    Returns the summary (also written to summary.json); raises ReportError
    naming the failing stage.
    """
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with _stage("gen_corpus"):
        fixtures = gen_corpus(config.seed, config.records, out_dir=out / "fixtures")

    clock = {"now": STUDY_START}
    with _stage("load"):
        (out / "gateway.jsonl").unlink(missing_ok=True)
        gw = Gateway.from_config(fixtures, out / "gateway.jsonl", clock=lambda: clock["now"])
    try:
        with _stage("walk"):
            walk = gen_walk(config.seed + 1, gw.stackmap, config.requests, corpus_=gw.corpus)
            (out / "walk.json").write_text(walk.to_json(), encoding="utf-8")
        with _stage("replay"):
            replay(gw, walk, clock)
    finally:
        gw.txn_log.close()

    summary = analyze(config, gw, walk)
    log.info("report written to %s", out)
    return summary

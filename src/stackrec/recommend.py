"""Location-based recommendation pipeline.

Given a point on the floor: find nearby shelf ranges, pull in-range print
candidates, keep the most-circulated ones, merge in e-books that would shelve
nearby, then append journal/database suggestions derived from the subject of
each range.

The in-range work is done once per range: the first request that needs a
range summarizes it into the recommendations it can contribute (its top
prints, its first e-books, its dominant journal) and the curated databases it
overlaps, and every request merges the ready items of its nearby ranges.
Merging is exact: the first k of a union, in any total order, lie within the
union of each part's first k.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from . import lccn, stacksmap
from .corpus import BibRecord, CorpusStore
from .lccn import CallNumber, CallNumberRange, ClassificationOutline, Unclassified
from .stacksmap import Point, StackMap

SCHEMA_VERSION = 1

MAX_ITEMS = 5               # print items per answer, most-circulated first
MAX_EBOOKS = 3              # e-books per answer, in call-number order
MAJORITY_THRESHOLD = 0.5    # share of a subject's articles a journal must exceed


@dataclass(frozen=True, slots=True)
class Recommendation:
    kind: str                       # "print" | "ebook" | "database"
    title: str
    score: float
    bib_id: str | None = None
    call_number: CallNumber | None = None
    name: str | None = None         # database kind only

    def __post_init__(self):
        if self.kind in ("print", "ebook") and (self.bib_id is None or self.call_number is None):
            raise ValueError(f"{self.kind} recommendation requires bib_id and call_number")

    def to_dict(self) -> dict:
        d: dict = {"kind": self.kind, "title": self.title, "score": self.score}
        if self.bib_id is not None:
            d["bib_id"] = self.bib_id
        if self.call_number is not None:
            d["call_number"] = lccn.canonical_format(self.call_number)
        if self.name is not None:
            d["name"] = self.name
        return d


def _item(kind: str, rec: BibRecord, count: int) -> Recommendation:
    return Recommendation(kind=kind, title=rec.title, score=float(count),
                          bib_id=rec.bib_id, call_number=rec.call_number)


def _by_count(item: Recommendation) -> tuple:
    return -item.score, item.bib_id


def _by_shelf(item: Recommendation) -> tuple:
    return item.call_number.sort_key(), item.bib_id


@dataclass(frozen=True, slots=True)
class RangeSummary:
    """The recommendations one shelf range can contribute, built once per range.

    ``prints`` holds the range's MAX_ITEMS most-circulated prints (count
    above 0), in ``_by_count`` order; ``ebooks`` its first MAX_EBOOKS e-books
    in call-number order, each scored by its count.  ``journal`` is the
    dominant journal of the range's subject query when its share is above
    MAJORITY_THRESHOLD, else None.  ``databases`` holds the indexes into
    ``CorpusStore.databases`` of the curated entries whose subject ranges
    overlap the range; it is a tuple, not a set, because there is one summary
    per shelf, most overlap no database, and the empty tuple costs no memory.
    """

    prints: tuple[Recommendation, ...]
    ebooks: tuple[Recommendation, ...]
    journal: Recommendation | None
    databases: tuple[int, ...]


@dataclass
class RecommendationSet:
    location: Point                 # the point asked about
    ranges_used: list[CallNumberRange]
    items: list[Recommendation]

    @property
    def bib_ids(self) -> list[str]:
        return [item.bib_id for item in self.items if item.bib_id is not None]

    def to_dict(self) -> dict:
        return {
            "v": SCHEMA_VERSION,
            "location": {"x": self.location[0], "y": self.location[1]},
            "ranges": [
                {"start": lccn.canonical_format(r.start), "end": lccn.canonical_format(r.end)}
                for r in self.ranges_used
            ],
            "items": [item.to_dict() for item in self.items],
        }


def subject_query_from_range(r: CallNumberRange, outline: ClassificationOutline) -> str | None:
    """Head term of the range's subject label, or None when unclassified.

    "Philosophy (General)" -> "Philosophy"; "English literature: Provincial,
    local, etc." -> "English literature".
    """
    try:
        label = outline.classify(r.start)
    except Unclassified:
        return None
    head = label
    for stop in (".", ":", "("):
        idx = head.find(stop)
        if idx != -1:
            head = head[:idx]
    head = head.strip()
    return head or None


class Recommender:
    def __init__(
        self,
        stackmap_: StackMap,
        corpus_: CorpusStore,
        outline: ClassificationOutline,
        radius: float | None = None,
    ):
        self.stackmap = stackmap_
        self.corpus = corpus_
        self.outline = outline
        self.radius = radius if radius is not None else stacksmap.default_radius(stackmap_)
        # range -> its summary; see _summary
        self._summaries: dict[CallNumberRange, RangeSummary] = {}
        # one suggestion per curated database, in CorpusStore.databases order
        self._curated = [
            Recommendation(kind="database", title=entry.name, score=1.0, name=entry.name)
            for entry in corpus_.databases
        ]

    def recommend_near(self, p: Point) -> RecommendationSet:
        """Full pipeline for one point; empty ranges/items is a normal outcome."""
        ranges = stacksmap.ranges_for_location(p, self.stackmap, self.radius)
        if not ranges:
            return RecommendationSet(p, [], [])
        summaries = [self._summary(r) for r in ranges]
        items = sorted((i for s in summaries for i in s.prints), key=_by_count)[:MAX_ITEMS]
        items += sorted((i for s in summaries for i in s.ebooks), key=_by_shelf)[:MAX_EBOOKS]
        items += self._database_items(summaries)
        return RecommendationSet(p, ranges, items)

    def _summary(self, r: CallNumberRange) -> RangeSummary:
        """The summary of r, built the first time any request asks for it.

        The stores and the outline never change, and recommend_near asks only
        about the stack map's ranges, so the memo holds about one entry per
        shelf.  Two threads may both build a missing entry; they store equal
        values.
        """
        summary = self._summaries.get(r)
        if summary is None:
            summary = self._summaries[r] = self._summarize(r)
        return summary

    def _summarize(self, r: CallNumberRange) -> RangeSummary:
        records = self.corpus.books_in_range(r)  # in (call number, bib_id) order
        count = self.corpus.circulation_count
        ranked = sorted(
            ((rec, n) for rec in records if rec.format == "print" and (n := count(rec.bib_id)) > 0),
            key=lambda pair: (-pair[1], pair[0].bib_id),
        )
        ebooks = [rec for rec in records if rec.format == "ebook"][:MAX_EBOOKS]
        return RangeSummary(
            prints=tuple(_item("print", rec, n) for rec, n in ranked[:MAX_ITEMS]),
            ebooks=tuple(_item("ebook", rec, count(rec.bib_id)) for rec in ebooks),
            journal=self._dominant_journal(r),
            databases=tuple(
                i for i, entry in enumerate(self.corpus.databases)
                if any(lccn.ranges_overlap(r, sr) for sr in entry.subject_ranges)
            ),
        )

    def _database_items(self, summaries: list[RangeSummary]) -> list[Recommendation]:
        """The summaries' journals, then their curated databases, each name once.

        A range's journal is the one that holds a strict majority of the
        article results for its subject query; a curated database is included
        whenever its subject ranges overlap the range.
        """
        out: list[Recommendation] = []
        seen: set[str] = set()
        for s in summaries:
            if s.journal is not None and s.journal.name not in seen:
                seen.add(s.journal.name)
                out.append(s.journal)
        for i in sorted({i for s in summaries for i in s.databases}):
            entry = self._curated[i]
            if entry.name not in seen:
                seen.add(entry.name)
                out.append(entry)
        return out

    def _dominant_journal(self, r: CallNumberRange) -> Recommendation | None:
        """The journal with most article hits for r's subject query, scored by its share.

        None when r is unclassified, its query finds nothing, or the journal's
        share is not above MAJORITY_THRESHOLD.
        """
        query = subject_query_from_range(r, self.outline)
        results = self.corpus.article_search(query) if query is not None else []
        if not results:
            return None
        shares = Counter(a.journal_title for a in results)
        journal, hits = max(shares.items(), key=lambda kv: (kv[1], kv[0]))
        share = hits / len(results)
        if share <= MAJORITY_THRESHOLD:
            return None
        return Recommendation(kind="database", title=journal, score=share, name=journal)

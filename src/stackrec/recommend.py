"""Location-based recommendation pipeline.

Given a point on the floor: find nearby shelf ranges, pull in-range print
candidates, keep the most-circulated ones, merge in e-books that would shelve
nearby, then append journal/database suggestions derived from the subject of
each range.

The in-range work is done once per range: the first request that needs a
range summarizes it (its shortlist of candidates, its dominant journal, the
curated databases it overlaps), and every request merges the summaries of its
nearby ranges.  Merging shortlists is exact: the first k of a union, in any
total order, lie within the union of each part's first k.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from . import lccn, stacksmap
from .corpus import BibRecord, CorpusStore
from .lccn import CallNumber, CallNumberRange, ClassificationOutline, Unclassified
from .locate import PatronLocation
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


@dataclass(frozen=True, slots=True)
class RangeSummary:
    """What recommend_near needs of one shelf range, computed once per range.

    ``shortlist`` holds the range's MAX_ITEMS most-circulated prints (count
    above 0, by descending count then bib_id) and then its first MAX_EBOOKS
    e-books in call-number order.  ``journal`` is the dominant journal of
    the range's subject query and its share of the hits, or None.
    ``databases`` holds the indexes into ``CorpusStore.databases`` of the
    curated entries whose subject ranges overlap the range; it is a tuple, not
    a set, because there is one summary per shelf, most overlap no database,
    and the empty tuple costs no memory.
    """

    shortlist: tuple[BibRecord, ...]
    journal: tuple[str, float] | None
    databases: tuple[int, ...]


@dataclass
class RecommendationSet:
    location: PatronLocation
    ranges_used: list[CallNumberRange]
    items: list[Recommendation]

    @property
    def bib_ids(self) -> list[str]:
        return [item.bib_id for item in self.items if item.bib_id is not None]

    def to_dict(self) -> dict:
        return {
            "v": SCHEMA_VERSION,
            "location": {"x": self.location.x, "y": self.location.y},
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

    def recommend_near(self, p: Point) -> RecommendationSet:
        """Full pipeline for one point; empty ranges/items is a normal outcome."""
        ranges = stacksmap.ranges_for_location(p, self.stackmap, self.radius)
        location = PatronLocation(p[0], p[1])
        if not ranges:
            return RecommendationSet(location, [], [])
        summaries = [self._summary(r) for r in ranges]
        candidates = [rec for s in summaries for rec in s.shortlist]
        items = self.popular_books(candidates)
        items.extend(self.ebook_suggestions(candidates))
        items.extend(self.database_suggestions(ranges))
        return RecommendationSet(location, ranges, items)

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
        ebooks = [rec for rec in records if rec.format == "ebook"][:MAX_EBOOKS]
        return RangeSummary(
            shortlist=tuple([rec for rec, _ in self._ranked_prints(records)] + ebooks),
            journal=self._dominant_journal(r),
            databases=tuple(
                i for i, entry in enumerate(self.corpus.databases)
                if any(lccn.ranges_overlap(r, sr) for sr in entry.subject_ranges)
            ),
        )

    def _ranked_prints(self, candidates: list[BibRecord]) -> list[tuple[BibRecord, int]]:
        """The MAX_ITEMS most-circulated prints and their counts, by (-count, bib_id).

        Prints with no charges drop out.
        """
        count = self.corpus.circulation_count
        prints = [
            (rec, n) for rec in candidates
            if rec.format == "print" and (n := count(rec.bib_id)) > 0
        ]
        prints.sort(key=lambda pair: (-pair[1], pair[0].bib_id))
        return prints[:MAX_ITEMS]

    def popular_books(self, candidates: list[BibRecord]) -> list[Recommendation]:
        """Print candidates by descending circulation; zero-count items drop out."""
        return [
            Recommendation(
                kind="print",
                title=rec.title,
                score=float(n),
                bib_id=rec.bib_id,
                call_number=rec.call_number,
            )
            for rec, n in self._ranked_prints(candidates)
        ]

    def ebook_suggestions(self, candidates: list[BibRecord]) -> list[Recommendation]:
        """E-book candidates in call-number order.

        Shelf ranges do not overlap (load_stackmap enforces it), so the
        candidates of the nearby ranges hold each record at most once.
        """
        ordered = sorted(
            (rec for rec in candidates if rec.format == "ebook"),
            key=lambda rec: (rec.call_number.sort_key(), rec.bib_id),
        )
        return [
            Recommendation(
                kind="ebook",
                title=rec.title,
                score=float(self.corpus.circulation_count(rec.bib_id)),
                bib_id=rec.bib_id,
                call_number=rec.call_number,
            )
            for rec in ordered[:MAX_EBOOKS]
        ]

    def database_suggestions(self, ranges: list[CallNumberRange]) -> list[Recommendation]:
        """Journal titles that dominate a subject search, plus curated databases.

        A journal is suggested only when it holds a strict majority of the
        article results for the range's subject query; its score is that
        share.  Curated database entries whose subject ranges intersect any
        nearby range are always included.
        """
        summaries = [self._summary(r) for r in ranges]
        out: list[Recommendation] = []
        seen: set[str] = set()
        for s in summaries:
            if s.journal is None:
                continue
            journal, share = s.journal
            if share > MAJORITY_THRESHOLD and journal not in seen:
                seen.add(journal)
                out.append(Recommendation(kind="database", title=journal, score=share, name=journal))
        near = {i for s in summaries for i in s.databases}
        for i, entry in enumerate(self.corpus.databases):
            if i in near and entry.name not in seen:
                seen.add(entry.name)
                out.append(
                    Recommendation(kind="database", title=entry.name, score=1.0, name=entry.name)
                )
        return out

    def _dominant_journal(self, r: CallNumberRange) -> tuple[str, float] | None:
        """The journal with most article hits for r's subject query, and its share.

        None when r is unclassified or its query finds nothing.
        """
        query = subject_query_from_range(r, self.outline)
        results = self.corpus.article_search(query) if query is not None else []
        if not results:
            return None
        shares = Counter(a.journal_title for a in results)
        journal, hits = max(shares.items(), key=lambda kv: (kv[1], kv[0]))
        return journal, hits / len(results)

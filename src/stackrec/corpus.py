"""File-backed catalog, circulation, article, and database stores.

These stand in for the live catalog, ILS circulation reports, and the article
search service: CSV files loaded once into an immutable indexed store.
"""

from __future__ import annotations

import logging
import re
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from . import lccn
from .config import read_table
from .lccn import CallNumber, CallNumberRange

log = logging.getLogger(__name__)

BIB_ID_RE = re.compile(r"[a-z]+_[0-9]+")
FORMATS = ("print", "ebook")


class CorpusLoadError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class BibRecord:
    bib_id: str
    title: str
    call_number: CallNumber
    format: str  # "print" | "ebook"

    def __post_init__(self):
        if not BIB_ID_RE.fullmatch(self.bib_id):
            raise ValueError(f"bib_id must match prefix_digits: {self.bib_id!r}")
        if self.format not in FORMATS:
            raise ValueError(f"format must be one of {FORMATS}: {self.format!r}")


def _shelf_key(record: BibRecord) -> tuple:
    return record.call_number.sort_key()


@dataclass(frozen=True)
class ArticleResult:
    journal_title: str
    article_title: str


@dataclass(frozen=True)
class DatabaseEntry:
    name: str
    subject_ranges: tuple[CallNumberRange, ...]


@dataclass
class CorpusStore:
    records: dict[str, BibRecord]
    charges: Counter
    articles: list[tuple[str, str, str]]        # (journal_title, article_title, subject)
    databases: list[DatabaseEntry]
    diagnostics: list[str] = field(default_factory=list)
    _sorted: list[BibRecord] = field(default_factory=list, repr=False)

    def __post_init__(self):
        self._sorted = sorted(self.records.values(), key=lambda r: (_shelf_key(r), r.bib_id))

    def books_in_range(self, r: CallNumberRange) -> list[BibRecord]:
        """All records whose call number falls in r, in call-number order, ties by bib_id.

        Bisects the records in call-number order at both ends and slices: the
        records in r are exactly those keyed from r.start's key up to r.upper.
        """
        lo = bisect_left(self._sorted, r.start.sort_key(), key=_shelf_key)
        hi = bisect_right(self._sorted, r.upper, lo, key=_shelf_key)
        return self._sorted[lo:hi]

    def circulation_count(self, bib_id: str) -> int:
        return self.charges.get(bib_id, 0)

    def article_search(self, subject_query: str) -> list[ArticleResult]:
        """Case-insensitive whole-word match on the subject column."""
        if not subject_query.strip():
            return []
        pattern = re.compile(rf"\b{re.escape(subject_query)}\b", re.IGNORECASE)
        hits = [
            ArticleResult(journal, article)
            for journal, article, subject in self.articles
            if pattern.search(subject)
        ]
        hits.sort(key=lambda a: (a.journal_title, a.article_title))
        return hits


def load_corpus(
    catalog_path: str | Path,
    circulation_path: str | Path | None = None,
    articles_path: str | Path | None = None,
    databases_path: str | Path | None = None,
) -> CorpusStore:
    """Load the catalog plus optional circulation, article, and database files.

    Rows with unparseable call numbers are skipped and reported; a duplicate
    bib_id is fatal.  Circulation is aggregated to per-bib charge counts at
    load; a bib with no charge rows counts 0.
    """
    diagnostics: list[str] = []
    records: dict[str, BibRecord] = {}
    rows = read_table(catalog_path, ("bib_id", "title", "call_number", "format"))
    for row_no, (bib_id, title, call_number, fmt) in rows:
        bib_id = bib_id.strip()
        if bib_id in records:
            raise CorpusLoadError(f"{catalog_path} row {row_no}: duplicate bib_id {bib_id!r}")
        try:
            records[bib_id] = BibRecord(
                bib_id=bib_id,
                title=title.strip(),
                call_number=lccn.parse(call_number.strip()),
                format=fmt.strip(),
            )
        except ValueError as exc:
            diagnostics.append(f"{catalog_path} row {row_no}: {exc}")

    charges: Counter = Counter()
    if circulation_path is not None:
        charges.update(
            bib_id.strip()
            for _, (bib_id, _date) in read_table(circulation_path, ("bib_id", "charge_date"))
        )

    articles: list[tuple[str, str, str]] = []
    if articles_path is not None:
        rows = read_table(articles_path, ("journal_title", "article_title", "subject"))
        for _, (journal, article, subject) in rows:
            articles.append((journal.strip(), article.strip(), subject.strip()))

    databases: list[DatabaseEntry] = []
    if databases_path is not None:
        by_name: dict[str, list[CallNumberRange]] = {}
        rows = read_table(databases_path, ("name", "range_start", "range_end"))
        for row_no, (name, start, end) in rows:
            name = name.strip()
            try:
                rng = lccn.parse_range(start, end)
            except ValueError as exc:
                diagnostics.append(f"{databases_path} row {row_no}: {exc}")
                continue
            by_name.setdefault(name, []).append(rng)
        databases = [DatabaseEntry(name, tuple(ranges)) for name, ranges in by_name.items()]

    for msg in diagnostics:
        log.warning("corpus: %s", msg)
    log.info(
        "corpus loaded: %d records (%d rejected), %d charged bibs, %d articles, %d databases",
        len(records), len(diagnostics), len(charges), len(articles), len(databases),
    )
    return CorpusStore(
        records=records,
        charges=charges,
        articles=articles,
        databases=databases,
        diagnostics=diagnostics,
    )

"""Library of Congress call numbers: parsing, canonical text, shelf order, subjects.

A call number like ``PN1995 .C655 2015`` breaks into class letters, a decimal
class number, zero or more cutters, an optional year, and an optional trailing
suffix (volume/copy designators).  Everything else in the package keys off the
total order defined here.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

log = logging.getLogger(__name__)


class ParseError(ValueError):
    """Raised when text cannot be read as a call number."""

    def __init__(self, text: str, offset: int, reason: str):
        self.text = text
        self.offset = offset
        self.reason = reason
        super().__init__(f"{reason} at offset {offset} in {text!r}")


class Unclassified(LookupError):
    """Raised when no outline range contains a call number."""


def _decimal_fraction(digits: str) -> Fraction:
    # "62" -> 62/100; "6" -> 6/10.  Exact, so "79835" < "8" compares correctly.
    if not digits:
        return Fraction(0)
    return Fraction(int(digits), 10 ** len(digits))


@dataclass(frozen=True)
class Cutter:
    letter: str
    digits: str

    def __post_init__(self):
        if not re.fullmatch(r"[A-Z]", self.letter):
            raise ValueError(f"cutter letter must be one uppercase letter: {self.letter!r}")
        if not re.fullmatch(r"[0-9]+", self.digits) or int(self.digits) == 0:
            raise ValueError(f"cutter digits must be nonzero decimals: {self.digits!r}")

    @property
    def fraction(self) -> Fraction:
        return _decimal_fraction(self.digits)


@dataclass(frozen=True)
class CallNumber:
    class_letters: str
    class_int: int
    class_frac: str = ""          # fractional digits of the class number, "" if none
    cutters: tuple[Cutter, ...] = ()
    year: int | None = None
    suffix: str | None = None

    def __post_init__(self):
        if not re.fullmatch(r"[A-Z]{1,3}", self.class_letters):
            raise ValueError(f"class letters must match [A-Z]{{1,3}}: {self.class_letters!r}")
        if self.class_int < 0:
            raise ValueError("class number must be non-negative")
        if self.class_frac and not re.fullmatch(r"[0-9]+", self.class_frac):
            raise ValueError(f"bad class fraction: {self.class_frac!r}")

    def sort_key(self):
        year_key = (0, 0) if self.year is None else (1, self.year)
        return (
            self.class_letters,
            self.class_int,
            _decimal_fraction(self.class_frac),
            tuple((c.letter, c.fraction) for c in self.cutters),
            year_key,
            self.suffix or "",
        )

    def __str__(self) -> str:
        return canonical_format(self)


_CLASS_RE = re.compile(r"\s*([A-Za-z]{1,3})")
_NUMBER_RE = re.compile(r"\s*([0-9]+)(?:\.([0-9]+))?")
_CUTTER_RE = re.compile(r"([A-Za-z])([0-9]+)")
_YEAR_RE = re.compile(r"([0-9]{4})(?![0-9.])")


def parse(text: str, strict: bool = False) -> CallNumber:
    """Parse text into a CallNumber.

    Whitespace and the dot before the first cutter are interchangeable on
    input; canonical_format() produces one normal form.  In lenient mode
    (default) unrecognized trailing tokens land in ``suffix``; strict mode
    raises instead.
    """
    if not text or not text.strip():
        raise ParseError(text, 0, "no class letters")
    m = _CLASS_RE.match(text)
    if not m:
        raise ParseError(text, 0, "no class letters")
    letters = m.group(1).upper()
    pos = m.end()
    m = _NUMBER_RE.match(text, pos)
    if not m:
        raise ParseError(text, pos, "missing class number")
    class_int = int(m.group(1))
    class_frac = (m.group(2) or "").rstrip("0")
    pos = m.end()

    cutters: list[Cutter] = []
    year: int | None = None
    suffix: str | None = None
    while pos < len(text):
        if text[pos] in " .\t":
            pos += 1
            continue
        if year is None:
            m = _YEAR_RE.match(text, pos)
            if m:
                year = int(m.group(1))
                pos = m.end()
                continue
            m = _CUTTER_RE.match(text, pos)
            if m:
                digits = m.group(2)
                if int(digits) == 0:
                    raise ParseError(text, pos, "malformed cutter: zero digits")
                cutters.append(Cutter(m.group(1).upper(), digits.rstrip("0") or digits[:1]))
                pos = m.end()
                continue
        rest = text[pos:].strip()
        if strict:
            reason = "malformed cutter" if rest[:1].isalpha() else "trailing garbage"
            raise ParseError(text, pos, f"{reason}: {rest!r}")
        suffix = rest
        break

    return CallNumber(letters, class_int, class_frac, tuple(cutters), year, suffix)


def canonical_format(cn: CallNumber) -> str:
    """One normal rendering: ``LETTERS NUMBER .C1 C2 YEAR SUFFIX``.

    The dot appears only before the first cutter; segments are single-space
    separated; trailing zeros in decimal fractions are dropped so that
    parse(canonical_format(cn)) equals cn by value.
    """
    frac = cn.class_frac.rstrip("0")
    head = f"{cn.class_letters}{cn.class_int}" + (f".{frac}" if frac else "")
    parts = [head]
    for i, c in enumerate(cn.cutters):
        digits = c.digits.rstrip("0") or c.digits[:1]
        parts.append(("." if i == 0 else "") + f"{c.letter}{digits}")
    if cn.year is not None:
        parts.append(str(cn.year))
    if cn.suffix:
        parts.append(cn.suffix)
    return " ".join(parts)


def compare(a: CallNumber, b: CallNumber) -> int:
    """Total shelf order; returns negative, zero, or positive.

    Class letters lexicographic, class number numeric, then cutter by cutter
    (letter, then digits as a decimal fraction; a prefix cutter list files
    first), then year (absent first), then suffix.
    """
    ka, kb = a.sort_key(), b.sort_key()
    return -1 if ka < kb else (1 if ka > kb else 0)


@dataclass(frozen=True)
class CallNumberRange:
    """Closed interval of call numbers.

    An end with no cutters, year, or suffix is a class prefix: it covers every
    call number whose class letters + number do not exceed it (so B1-B5802
    contains B5802.X9, matching how shelf labels and outline rows are read).
    """

    start: CallNumber
    end: CallNumber

    def __post_init__(self):
        if not _le_end(self.start, self.end):
            raise ValueError(
                f"range start {canonical_format(self.start)} after end {canonical_format(self.end)}"
            )

    def __str__(self) -> str:
        return f"{canonical_format(self.start)} - {canonical_format(self.end)}"


def _le_end(cn: CallNumber, end: CallNumber) -> bool:
    if not end.cutters and end.year is None and not end.suffix:
        return (cn.class_letters, cn.class_int, _decimal_fraction(cn.class_frac)) <= (
            end.class_letters,
            end.class_int,
            _decimal_fraction(end.class_frac),
        )
    return compare(cn, end) <= 0


def in_range(cn: CallNumber, r: CallNumberRange) -> bool:
    return compare(r.start, cn) <= 0 and _le_end(cn, r.end)


def ranges_overlap(a: CallNumberRange, b: CallNumberRange) -> bool:
    return _le_end(a.start, b.end) and _le_end(b.start, a.end)


def parse_range(start_text: str, end_text: str) -> CallNumberRange:
    return CallNumberRange(parse(start_text), parse(end_text))


# Upper sort bound for a prefix-style range end, used to rank range narrowness.
_KEY_MAX = (("￿", Fraction(0)),)


def end_upper_key(end: CallNumber):
    """The largest sort key a range ending at `end` contains.

    cn.sort_key() <= end_upper_key(end) exactly when cn files at or before
    end in the sense of CallNumberRange (a class-prefix end covers its class).
    """
    if not end.cutters and end.year is None and not end.suffix:
        return (
            end.class_letters,
            end.class_int,
            _decimal_fraction(end.class_frac),
            _KEY_MAX,
            (2, 0),
            "￿",
        )
    return end.sort_key()


@dataclass(frozen=True)
class OutlineEntry:
    range: CallNumberRange
    label: str
    line_no: int = 0


@dataclass
class ClassificationOutline:
    """Call-number ranges mapped to subject labels; narrowest containing range wins."""

    entries: list[OutlineEntry] = field(default_factory=list)
    diagnostics: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    def classify(self, cn: CallNumber) -> str:
        candidates = [e for e in self.entries if in_range(cn, e.range)]
        if not candidates:
            raise Unclassified(canonical_format(cn))
        best_start = max(e.range.start.sort_key() for e in candidates)
        candidates = [e for e in candidates if e.range.start.sort_key() == best_start]
        best_end = min(end_upper_key(e.range.end) for e in candidates)
        candidates = [e for e in candidates if end_upper_key(e.range.end) == best_end]
        return min(candidates, key=lambda e: e.line_no).label


class OutlineLoadError(ValueError):
    pass


def load_outline(path: str | Path) -> ClassificationOutline:
    """Load a tab-separated ``START<TAB>END<TAB>LABEL`` outline file.

    Bad lines are reported in the outline's diagnostics and skipped; a file
    yielding zero valid entries is an error.  When two entries carry the same
    range, the first one in the file wins and a warning is recorded.
    """
    outline = ClassificationOutline()
    seen_ranges: dict[tuple, int] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                outline.diagnostics.append(f"line {line_no}: expected 3 tab-separated fields")
                continue
            try:
                rng = parse_range(fields[0].strip(), fields[1].strip())
            except (ParseError, ValueError) as exc:
                outline.diagnostics.append(f"line {line_no}: {exc}")
                continue
            key = (rng.start.sort_key(), end_upper_key(rng.end))
            if key in seen_ranges:
                outline.diagnostics.append(
                    f"line {line_no}: duplicate range (first defined at line {seen_ranges[key]}); ignored"
                )
                continue
            seen_ranges[key] = line_no
            outline.entries.append(OutlineEntry(rng, fields[2].strip(), line_no))
    if not outline.entries:
        raise OutlineLoadError(f"no valid outline entries in {path}")
    for msg in outline.diagnostics:
        log.warning("outline %s: %s", path, msg)
    log.info("outline %s: %d entries", path, len(outline.entries))
    return outline

"""Library of Congress call numbers: parsing, canonical text, shelf order, subjects.

A call number like ``PN1995 .C655 2015`` breaks into class letters, a decimal
class number, zero or more cutters, an optional year, and an optional trailing
suffix (volume/copy designators).  Everything else in the package keys off the
total order defined here.

Each CallNumber builds its shelf key once, at construction, and
``sort_key()`` returns it: a tuple of class letters, class integer, class
fraction, a tuple of ``(letter, digits)`` per cutter, year (absent first), and
suffix.  The class fraction and each cutter's digits are kept as digit strings
with trailing zeros stripped.  Compared as strings these order exactly as the
decimal fractions they spell ("79835" < "8", "6" < "62"), at any length.
A CallNumber hashes its key, and a CallNumberRange its start key and upper
key: equal fields give equal keys, so the hash agrees with ``==``.

``parse`` reads the class letters, number and fraction with one compiled
regex, then cutters up to an optional year with one token regex; whatever
follows is the suffix.  Text that fails the first regex is matched again for
its class letters alone, which give its ParseError's offset and reason.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
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


_LETTER = re.compile(r"[A-Z]")
_CLASS_LETTERS = re.compile(r"[A-Z]{1,3}")
_DIGITS = re.compile(r"[0-9]+")


@dataclass(frozen=True, slots=True)
class Cutter:
    letter: str
    digits: str

    def __post_init__(self):
        if not _LETTER.fullmatch(self.letter):
            raise ValueError(f"cutter letter must be one uppercase letter: {self.letter!r}")
        if not _DIGITS.fullmatch(self.digits) or int(self.digits) == 0:
            raise ValueError(f"cutter digits must be nonzero decimals: {self.digits!r}")


@dataclass(frozen=True, slots=True)
class CallNumber:
    class_letters: str
    class_int: int
    class_frac: str = ""          # fractional digits of the class number, "" if none
    cutters: tuple[Cutter, ...] = ()
    year: int | None = None
    suffix: str | None = None
    _key: tuple = field(init=False, compare=False, repr=False)
    _text: str | None = field(init=False, compare=False, repr=False)  # see canonical_format

    def __post_init__(self):
        if not _CLASS_LETTERS.fullmatch(self.class_letters):
            raise ValueError(f"class letters must match [A-Z]{{1,3}}: {self.class_letters!r}")
        if self.class_int < 0:
            raise ValueError("class number must be non-negative")
        if self.class_frac and not _DIGITS.fullmatch(self.class_frac):
            raise ValueError(f"bad class fraction: {self.class_frac!r}")
        object.__setattr__(self, "_key", (
            self.class_letters,
            self.class_int,
            self.class_frac.rstrip("0"),
            tuple([(c.letter, c.digits.rstrip("0")) for c in self.cutters]),
            (0, 0) if self.year is None else (1, self.year),
            self.suffix or "",
        ))
        object.__setattr__(self, "_text", None)

    def __hash__(self) -> int:
        return hash(self._key)

    def sort_key(self) -> tuple:
        return self._key

    def __str__(self) -> str:
        return canonical_format(self)


# The class letters, then the class number and fraction.
_HEAD_RE = re.compile(r"\s*([A-Za-z]{1,3})\s*([0-9]+)(?:\.([0-9]+))?")
_CLASS_RE = re.compile(r"\s*([A-Za-z]{1,3})")
# After separators (blank, dot, tab): a year, or a cutter (letter and digits).
_TOKEN_RE = re.compile(r"[ .\t]*(?:([0-9]{4})(?![0-9.])|([A-Za-z])([0-9]+))")


def parse(text: str) -> CallNumber:
    """Parse text into a CallNumber.

    Whitespace and the dot before the first cutter are interchangeable on
    input; canonical_format() produces one normal form.  Unrecognized
    trailing tokens land in ``suffix``.
    """
    m = _HEAD_RE.match(text or "")
    if m is None:  # the class letters alone say where the text goes wrong
        m = _CLASS_RE.match(text) if text else None
        if m is None:
            raise ParseError(text, 0, "no class letters")
        raise ParseError(text, m.end(), "missing class number")
    letters, number, frac = m.groups()
    class_int = int(number)
    pos = m.end()

    # Cutters until the year; the first text that is neither ends the tokens.
    cutters: list[Cutter] = []
    year: int | None = None
    while m := _TOKEN_RE.match(text, pos):
        pos = m.end()
        year_digits, letter, digits = m.groups()
        if year_digits:
            year = int(year_digits)
            break
        if int(digits) == 0:
            raise ParseError(text, m.start(2), "malformed cutter: zero digits")
        cutters.append(Cutter(letter.upper(), digits.rstrip("0")))
    rest = text[pos:].lstrip(" .\t")
    return CallNumber(
        letters.upper(), class_int, (frac or "").rstrip("0"), tuple(cutters), year,
        rest.strip() if rest else None,
    )


def canonical_format(cn: CallNumber) -> str:
    """One normal rendering: ``LETTERS NUMBER .C1 C2 YEAR SUFFIX``.

    The dot appears only before the first cutter; segments are single-space
    separated; trailing zeros in decimal fractions are dropped so that
    parse(canonical_format(cn)) equals cn by value.  Each call number is
    formatted at most once; its text is kept on it for the next call.
    """
    if cn._text is None:
        object.__setattr__(cn, "_text", _format(cn))
    return cn._text


def _format(cn: CallNumber) -> str:
    frac = cn.class_frac.rstrip("0")
    head = f"{cn.class_letters}{cn.class_int}" + (f".{frac}" if frac else "")
    parts = [head]
    for i, c in enumerate(cn.cutters):
        digits = c.digits.rstrip("0")  # never empty: a Cutter refuses all-zero digits
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


@dataclass(frozen=True, slots=True)
class CallNumberRange:
    """Closed interval of call numbers.

    An end with no cutters, year, or suffix is a class prefix: it covers every
    call number whose class letters + number do not exceed it (so B1-B5802
    contains B5802.X9, matching how shelf labels and outline rows are read).
    ``upper`` is the largest sort key the range contains.
    """

    start: CallNumber
    end: CallNumber
    upper: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "upper", _end_upper_key(self.end))
        if not self.start.sort_key() <= self.upper:
            raise ValueError(
                f"range start {canonical_format(self.start)} after end {canonical_format(self.end)}"
            )

    def __hash__(self) -> int:
        return hash((self.start._key, self.upper))

    def __str__(self) -> str:
        return f"{canonical_format(self.start)} - {canonical_format(self.end)}"


def in_range(cn: CallNumber, r: CallNumberRange) -> bool:
    return r.start.sort_key() <= cn.sort_key() <= r.upper


def ranges_overlap(a: CallNumberRange, b: CallNumberRange) -> bool:
    return a.start.sort_key() <= b.upper and b.start.sort_key() <= a.upper


def parse_range(start_text: str, end_text: str) -> CallNumberRange:
    return CallNumberRange(parse(start_text), parse(end_text))


# Files after every cutter list, so a class-prefix end covers its whole class.
_CUTTERS_MAX = (("\uffff", ""),)


def _end_upper_key(end: CallNumber) -> tuple:
    """The largest sort key a range ending at `end` contains.

    cn.sort_key() <= _end_upper_key(end) exactly when cn files at or before
    end in the sense of CallNumberRange (a class-prefix end covers its class).
    """
    key = end.sort_key()
    if not end.cutters and end.year is None and not end.suffix:
        return key[:3] + (_CUTTERS_MAX, (2, 0), "\uffff")
    return key


@dataclass(frozen=True)
class OutlineEntry:
    range: CallNumberRange
    label: str
    line_no: int = 0


@dataclass
class ClassificationOutline:
    """Call-number ranges mapped to subject labels; narrowest containing range wins.

    load_outline sorts ``entries`` narrowest-first (latest start, then
    earliest upper key, then earliest line), so the first entry that contains
    a call number is its subject.
    """

    entries: list[OutlineEntry] = field(default_factory=list)
    diagnostics: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    def classify(self, cn: CallNumber) -> str:
        for e in self.entries:
            if in_range(cn, e.range):
                return e.label
        raise Unclassified(canonical_format(cn))


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
    try:
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
                except ValueError as exc:
                    outline.diagnostics.append(f"line {line_no}: {exc}")
                    continue
                key = (rng.start.sort_key(), rng.upper)
                if key in seen_ranges:
                    outline.diagnostics.append(
                        f"line {line_no}: duplicate range (first defined at line {seen_ranges[key]}); ignored"
                    )
                    continue
                seen_ranges[key] = line_no
                outline.entries.append(OutlineEntry(rng, fields[2].strip(), line_no))
    except UnicodeDecodeError as exc:  # the decoder reads ahead of the lines, so no line is named
        raise OutlineLoadError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not outline.entries:
        raise OutlineLoadError(f"no valid outline entries in {path}")
    outline.entries.sort(key=lambda e: (e.range.upper, e.line_no))
    outline.entries.sort(key=lambda e: e.range.start.sort_key(), reverse=True)
    for msg in outline.diagnostics:
        log.warning("outline %s: %s", path, msg)
    log.info("outline %s: %d entries", path, len(outline.entries))
    return outline

"""Library of Congress call numbers: parsing, canonical text, shelf order, subjects.

A call number like ``PN1995 .C655 2015`` breaks into class letters, a decimal
class number, zero or more cutters, an optional year, and an optional trailing
suffix (volume/copy designators).  Everything else in the package keys off the
total order defined here: compare two call numbers' ``sort_key()``s.  Class
letters order lexicographically and class numbers numerically, then cutter by
cutter (letter, then digits as a decimal fraction; a prefix cutter list files
first), then year (absent first), then suffix.

A CallNumber is its shelf key, plus its canonical text once formatted.  The
key is one flat tuple::

    (letters, class_int, frac, L1, D1, ..., Ln, Dn, "", has_year, year, suffix)

``PN1995 .C655 D84 2015`` is ``("PN", 1995, "", "C", "655", "D", "84", "",
1, 2015, "")``; with no year, ``has_year`` and ``year`` are both 0, so an
absent year files first.  ``sort_key()`` returns the key, and the class
letters, number, fraction, cutters, year and suffix are read-only properties
that read it back.  The ``""`` after the last cutter sorts before every
cutter letter, so a prefix cutter list files first.  Until two keys first
differ, letters meet letters and digits meet digits, so no string is ever
compared with an integer.  The class fraction and each cutter's digits are
kept as digit strings with trailing zeros stripped.  Compared as strings
these order exactly as the decimal fractions they spell ("79835" < "8",
"6" < "62"), at any length.

Equality follows the key, so ``parse("PZ7.50") == parse("PZ7.5")`` and
``parse("PZ7 .R80") == parse("PZ7.R8")``.  Two call numbers that file at one
shelf position are equal, hash alike, and format to one canonical text.  A
CallNumberRange hashes its start key and upper key.

``parse`` reads the class letters, number and fraction with one compiled
regex, then cutters up to an optional year with one token regex; whatever
follows is the suffix.  Text that fails the first regex is matched again for
its class letters alone, which give its ParseError's offset and reason.
What the regexes matched needs no second check, so ``parse`` builds the key
itself and makes the CallNumber from it.  ``parse`` is the only constructor:
code that makes a call number from its parts writes its text and parses it.

A loaded collection repeats a few values across thousands of call numbers, so
``parse`` gives each of them one shared object:

- the class letters are interned strings, at most 26 + 26**2 + 26**3 =
  18,278 of them;
- each cutter letter is an interned string, at most 26;
- each cutter's digit string and each class fraction is interned.  The
  grammar does not bound their length, so these grow with the distinct
  digit strings parsed: at most one per cutter and fraction of the call
  numbers loaded;
- each year's ``int`` comes from a memo keyed by the four year digits, at
  most 10,000 entries.

No request parses a call number; loads do, so the interned strings are the
parts of the call numbers the process loads.  CPython 3.10, 3.11 and 3.13
free an interned string when the last call number holding it goes.  CPython
3.12 makes every interned string immortal, so there the set grows with the
distinct parts of every call number the process ever loads, reloads
included.  A process that frees one library and loads another interns
anew, and the interpreter's table of interned strings keeps the size that
churn left it: about 1 MB more after repeated study reports.

The class number is ``int(number)`` in each parse: a memo keyed by its
digits raised a served library's peak memory instead of lowering it.
"""

from __future__ import annotations

import logging
import re
import sys
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


class CallNumber:
    """A call number, held as its shelf key and its canonical text once formatted.

    ``parse`` makes every CallNumber; the class letters, number, fraction,
    cutters, year and suffix are read-only properties that read the key back.
    """

    __slots__ = ("_key", "_text")  # _text: see canonical_format

    def __init__(self, *args, **kwargs):
        # parse makes call numbers through object.__new__, as copy and pickle do.
        raise TypeError("a CallNumber is made by lccn.parse(text)")

    @property
    def class_letters(self) -> str:
        return self._key[0]

    @property
    def class_int(self) -> int:
        return self._key[1]

    @property
    def class_frac(self) -> str:
        """The class number's fractional digits, trailing zeros stripped; "" if none."""
        return self._key[2]

    @property
    def cutters(self) -> tuple[tuple[str, str], ...]:
        """``(letter, digits)`` pairs, each cutter's digits with trailing zeros stripped."""
        flat = self._key[3:-4]  # letter, digits, letter, digits, ...
        return tuple(zip(flat[::2], flat[1::2]))

    @property
    def year(self) -> int | None:
        return self._key[-2] if self._key[-3] else None

    @property
    def suffix(self) -> str | None:
        return self._key[-1] or None

    def __eq__(self, other) -> bool:
        if not isinstance(other, CallNumber):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def sort_key(self) -> tuple:
        return self._key

    def __str__(self) -> str:
        return canonical_format(self)

    def __repr__(self) -> str:
        return f"CallNumber({canonical_format(self)!r})"


# The class letters, then the class number and fraction.
_HEAD_RE = re.compile(r"\s*([A-Za-z]{1,3})\s*([0-9]+)(?:\.([0-9]+))?")
_CLASS_RE = re.compile(r"\s*([A-Za-z]{1,3})")
# Separators: any whitespace (str.isspace) and dots.
_SEPARATORS_RE = re.compile(r"[\s.]*")
# After separators: a year, or a cutter (letter and digits).
_TOKEN_RE = re.compile(r"[\s.]*(?:([0-9]{4})(?![0-9.])|([A-Za-z])([0-9]+))")

_YEARS: dict[str, int] = {}  # four year digits -> the year's one shared int


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
    frac = sys.intern(frac.rstrip("0")) if frac else ""
    key: list = [sys.intern(letters.upper()), int(number), frac]  # the shelf key, built in order
    pos = m.end()

    # Cutters until the year; the first text that is neither ends the tokens.
    has_year = year = 0
    while m := _TOKEN_RE.match(text, pos):
        pos = m.end()
        year_digits, letter, digits = m.groups()
        if year_digits:
            has_year, year = 1, _YEARS.setdefault(year_digits, int(year_digits))
            break
        if int(digits) == 0:
            raise ParseError(text, m.start(2), "malformed cutter: zero digits")
        key += sys.intern(letter.upper()), sys.intern(digits.rstrip("0"))
    key += "", has_year, year, text[_SEPARATORS_RE.match(text, pos).end():].rstrip()
    cn = object.__new__(CallNumber)
    cn._key = tuple(key)
    cn._text = None
    return cn


def canonical_format(cn: CallNumber) -> str:
    """One normal rendering: ``LETTERS NUMBER .C1 C2 YEAR SUFFIX``.

    The dot appears only before the first cutter; segments are single-space
    separated; decimal fractions have no trailing zeros and the year has four
    digits, so that parse(canonical_format(cn)) == cn.  Each call number is
    formatted at most once; its text is kept on it for the next call.
    """
    if cn._text is None:
        letters, number, frac, *cutters, _, has_year, year, suffix = cn._key
        parts = [f"{letters}{number}.{frac}" if frac else f"{letters}{number}"]
        for i in range(0, len(cutters), 2):  # letter, digits, letter, digits, ...
            parts.append(("." if i == 0 else "") + cutters[i] + cutters[i + 1])
        if has_year:
            parts.append(f"{year:04d}")
        if suffix:
            parts.append(suffix)
        cn._text = " ".join(parts)
    return cn._text


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


def _end_upper_key(end: CallNumber) -> tuple:
    """The largest sort key a range ending at `end` contains.

    cn.sort_key() <= _end_upper_key(end) exactly when cn files at or before
    end in the sense of CallNumberRange (a class-prefix end covers its class).
    """
    key = end.sort_key()
    if key[3:] == ("", 0, 0, ""):  # no cutters, year or suffix
        return key[:3] + ("\uffff",)  # files after every cutter letter and ""
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

import random
import re
from pathlib import Path

import pytest
from hypothesis import strategies as st

from stackrec import corpus, lccn, locate, stacksmap
from stackrec.recommend import Recommender

FIXTURES = Path(__file__).parent / "fixtures"
REFERENCE = FIXTURES / "reference"


def pytest_configure(config):
    # An unclosed file fails this suite.  The filters are set here, not in
    # pyproject.toml, because there they would also apply to perfbench/tests,
    # whose gateway fixture leaves its transaction log open.
    config.addinivalue_line("filterwarnings", "error::ResourceWarning")
    config.addinivalue_line("filterwarnings", "error::pytest.PytestUnraisableExceptionWarning")


# Hand-verified call numbers in expected shelf order.
KNOWN_SORT_ORDER = [
    "B105.E9 G63 1974",
    "E154.N38",
    "E669.F37",
    "GV1469.62.D84",
    "PN1991.75 A24",
    "PN1995 .C655 2015",
    "PR85.C45",
    "PR9619.4.Z87",
    "PS94.B5",
    "PZ7.R79835",
    "SF446 .C763 2014",
]

# call number text -> expected subject label (PZ7 appears in two textual forms)
KNOWN_SUBJECTS = [
    ("B105.E9 G63 1974", "Philosophy (General)"),
    ("GV1469.62.D84", "Computer games. Video games. Fantasy games"),
    ("PR9619.4.Z87", "English literature: Provincial, local, etc."),
    ("PZ7.R79835", "Fiction and juvenile belles lettres"),
    ("PZ7 .R79835", "Fiction and juvenile belles lettres"),
    ("PN1991.75 A24", "Radio broadcasts"),
    ("PR85.C45", "English literature"),
    ("PS94.B5", "American literature"),
    ("E669.F37", "History of the Americas. United States"),
    ("E154.N38", "History of the Americas. United States"),
]


@pytest.fixture(scope="session")
def ref_outline():
    return lccn.load_outline(REFERENCE / "outline.tsv")


@pytest.fixture(scope="session")
def ref_stackmap():
    return stacksmap.load_stackmap(REFERENCE / "stackmap.csv")


@pytest.fixture(scope="session")
def ref_corpus():
    return corpus.load_corpus(
        REFERENCE / "catalog.csv",
        REFERENCE / "circulation.csv",
        REFERENCE / "articles.csv",
        REFERENCE / "databases.csv",
    )


@pytest.fixture(scope="session")
def ref_beacons():
    return locate.load_beacons(REFERENCE / "beacons.csv")


@pytest.fixture(scope="session")
def ref_recommender(ref_stackmap, ref_corpus, ref_outline):
    return Recommender(ref_stackmap, ref_corpus, ref_outline, radius=25.0)


def oracle_call_number_key(cn: lccn.CallNumber):
    """Component-tuple comparison oracle, independent of CallNumber.sort_key.

    Decimal fractions compare as digit strings right-padded with zeros to 30
    places, so it holds for the short fractions the tests draw; the package
    key strips trailing zeros instead and needs no pad width.
    """

    def pad(digits: str) -> str:
        return (digits + "0" * 30)[:30]

    return (
        cn.class_letters,
        cn.class_int,
        pad(cn.class_frac),
        [(c.letter, pad(c.digits)) for c in cn.cutters],
        (0, 0) if cn.year is None else (1, cn.year),
        cn.suffix or "",
    )


def oracle_upper_key(end: lccn.CallNumber):
    """The largest oracle key a range ending at `end` contains.

    An end with no cutters, year or suffix is a class prefix and covers every
    call number in its class; "~" files after every cutter letter A-Z.
    """
    key = oracle_call_number_key(end)
    if end.cutters or end.year is not None or end.suffix:
        return key
    return key[:3] + ([("~", "")], (2, 0), "")


def oracle_in_range(cn: lccn.CallNumber, r: lccn.CallNumberRange) -> bool:
    return oracle_call_number_key(r.start) <= oracle_call_number_key(cn) <= oracle_upper_key(r.end)


def oracle_ranges_overlap(a: lccn.CallNumberRange, b: lccn.CallNumberRange) -> bool:
    return (
        oracle_call_number_key(a.start) <= oracle_upper_key(b.end)
        and oracle_call_number_key(b.start) <= oracle_upper_key(a.end)
    )


def oracle_classify(rows, cn: lccn.CallNumber) -> str | None:
    """The narrowest-range rule over outline rows ``(range, label, line_no)``.

    Of the rows whose range holds cn: the latest start, then the earliest
    upper key, then the earliest line.  A duplicate range therefore keeps its
    first line's label.  None when no row holds cn.
    """
    candidates = [row for row in rows if oracle_in_range(cn, row[0])]
    if not candidates:
        return None
    best_start = max(oracle_call_number_key(r.start) for r, _, _ in candidates)
    candidates = [row for row in candidates if oracle_call_number_key(row[0].start) == best_start]
    best_end = min(oracle_upper_key(r.end) for r, _, _ in candidates)
    candidates = [row for row in candidates if oracle_upper_key(row[0].end) == best_end]
    return min(candidates, key=lambda row: row[2])[1]


# The call-number parser as it stood before its one-regex head and token loop,
# copied verbatim: the oracle that lccn.parse must agree with on every input.
_REF_CLASS_RE = re.compile(r"\s*([A-Za-z]{1,3})")
_REF_NUMBER_RE = re.compile(r"\s*([0-9]+)(?:\.([0-9]+))?")
_REF_CUTTER_RE = re.compile(r"([A-Za-z])([0-9]+)")
_REF_YEAR_RE = re.compile(r"([0-9]{4})(?![0-9.])")


def reference_parse(text: str) -> lccn.CallNumber:
    if not text or not text.strip():
        raise lccn.ParseError(text, 0, "no class letters")
    m = _REF_CLASS_RE.match(text)
    if not m:
        raise lccn.ParseError(text, 0, "no class letters")
    letters = m.group(1).upper()
    pos = m.end()
    m = _REF_NUMBER_RE.match(text, pos)
    if not m:
        raise lccn.ParseError(text, pos, "missing class number")
    class_int = int(m.group(1))
    class_frac = (m.group(2) or "").rstrip("0")
    pos = m.end()

    cutters: list[lccn.Cutter] = []
    year: int | None = None
    suffix: str | None = None
    while pos < len(text):
        if text[pos] in " .\t":
            pos += 1
            continue
        if year is None:
            m = _REF_YEAR_RE.match(text, pos)
            if m:
                year = int(m.group(1))
                pos = m.end()
                continue
            m = _REF_CUTTER_RE.match(text, pos)
            if m:
                digits = m.group(2)
                if int(digits) == 0:
                    raise lccn.ParseError(text, pos, "malformed cutter: zero digits")
                cutters.append(lccn.Cutter(m.group(1).upper(), digits.rstrip("0") or digits[:1]))
                pos = m.end()
                continue
        suffix = text[pos:].strip()
        break

    return lccn.CallNumber(letters, class_int, class_frac, tuple(cutters), year, suffix)


def random_call_number(rng: random.Random) -> lccn.CallNumber:
    letters = "".join(
        rng.choice("ABCDEFGHIJKLMNOPQRSTUVWXYZ") for _ in range(rng.randint(1, 3))
    )
    frac = ""
    if rng.random() < 0.4:
        frac = str(rng.randint(1, 999)).rstrip("0") or "5"
    cutters = []
    for _ in range(rng.randint(0, 3)):
        digits = str(rng.randint(1, 99999)).rstrip("0") or "5"
        cutters.append(lccn.Cutter(rng.choice("ABCDEFGHIJKLMNOPQRSTUVWXYZ"), digits))
    year = rng.randint(1500, 2025) if rng.random() < 0.5 else None
    suffix = rng.choice([None, None, None, "v.2", "c.3", "suppl"])
    return lccn.CallNumber(
        letters, rng.randint(0, 9999), frac, tuple(cutters), year, suffix
    )


# Call numbers from a few neighbouring classes, so that random ranges, shelves
# and records share classes and class-prefix range ends cut between them.
CALL_NUMBERS = st.builds(
    lccn.CallNumber,
    class_letters=st.sampled_from(["B", "BF", "P", "PS"]),
    class_int=st.integers(1, 40),
    class_frac=st.sampled_from(["", "5", "25"]),
    cutters=st.lists(
        st.builds(lccn.Cutter, st.sampled_from("ACX"), st.sampled_from(["1", "15", "2", "9"])),
        max_size=2,
    ).map(tuple),
    year=st.none() | st.integers(1990, 1992),
    suffix=st.none() | st.just("v.2"),
)


@st.composite
def call_number_ranges(draw):
    """A valid range over CALL_NUMBERS; half of them end at a class prefix (B1-B5802 style)."""
    a, b = draw(CALL_NUMBERS), draw(CALL_NUMBERS)
    if oracle_call_number_key(a) > oracle_call_number_key(b):
        a, b = b, a
    if draw(st.booleans()):
        b = lccn.CallNumber(b.class_letters, b.class_int, b.class_frac)
    return lccn.CallNumberRange(a, b)


def count_calls(monkeypatch, owner, name: str) -> list[int]:
    """Wrap owner.name for the test; the returned one-item list counts its calls."""
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls

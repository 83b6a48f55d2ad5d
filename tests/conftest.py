import math
import random
import re
from datetime import timedelta
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

from stackrec import corpus, harness, lccn, locate, stacksmap
from stackrec.recommend import Recommender
from stackrec.telemetry import GridSpec, PowerLawFit, SubjectDistribution, TooFewRanks

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
        [(letter, pad(digits)) for letter, digits in cn.cutters],
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


# The call-number parser as it stood before its one-regex head and token loop:
# the oracle that lccn.parse must agree with on every input.  It is copied
# verbatim but for its separators, a dot or any whitespace (str.isspace), and
# for returning its parts where it made a CallNumber.
_REF_CLASS_RE = re.compile(r"\s*([A-Za-z]{1,3})")
_REF_NUMBER_RE = re.compile(r"\s*([0-9]+)(?:\.([0-9]+))?")
_REF_CUTTER_RE = re.compile(r"([A-Za-z])([0-9]+)")
_REF_YEAR_RE = re.compile(r"([0-9]{4})(?![0-9.])")


def reference_parse(text: str) -> tuple:
    """text's parts: (letters, class_int, class_frac, cutters, year, suffix)."""
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

    cutters: list[tuple[str, str]] = []
    year: int | None = None
    suffix: str | None = None
    while pos < len(text):
        if text[pos] == "." or text[pos].isspace():
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
                cutters.append((m.group(1).upper(), digits.rstrip("0") or digits[:1]))
                pos = m.end()
                continue
        suffix = text[pos:].strip()
        break

    return letters, class_int, class_frac, tuple(cutters), year, suffix


# The shelf key as CallNumber's checked constructor built it from its parts,
# before parse became the only way to make a call number: the oracle for the
# key that parse builds.  cutters are (letter, digits) pairs.
def reference_key(letters: str, class_int: int, frac: str, cutters, year: int | None,
                  suffix: str | None) -> tuple:
    return (
        letters,
        class_int,
        frac.rstrip("0"),
        *[part for letter, digits in cutters for part in (letter, digits.rstrip("0"))],
        "",
        *((0, 0) if year is None else (1, year)),
        suffix or "",
    )


# A charge's stamp as gen_corpus wrote it before it read stamps from tables:
# the oracle for harness._stamp_tables.
def reference_stamp(minute: int) -> str:
    return (harness.STUDY_START + timedelta(minutes=minute)).isoformat()


def call_number(letters: str, class_int: int, frac: str = "", cutters=(),
                year: int | None = None, suffix: str | None = None) -> lccn.CallNumber:
    """The call number with these parts, parsed from its text and checked against reference_key.

    The parts are written as canonical text but for the fraction's and the
    cutters' digits, which keep any trailing zeros they are given.
    """
    text = f"{letters}{class_int}" + (f".{frac}" if frac else "")
    for i, (letter, digits) in enumerate(cutters):
        text += (" ." if i == 0 else " ") + letter + digits
    if year is not None:
        text += f" {year:04d}"
    if suffix:
        text += f" {suffix}"
    cn = lccn.parse(text)
    assert cn.sort_key() == reference_key(letters, class_int, frac, cutters, year, suffix), text
    return cn


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
        cutters.append((rng.choice("ABCDEFGHIJKLMNOPQRSTUVWXYZ"), digits))
    year = rng.randint(1500, 2025) if rng.random() < 0.5 else None
    suffix = rng.choice([None, None, None, "v.2", "c.3", "suppl"])
    return call_number(letters, rng.randint(0, 9999), frac, tuple(cutters), year, suffix)


# Call numbers from a few neighbouring classes, so that random ranges, shelves
# and records share classes and class-prefix range ends cut between them.
CALL_NUMBERS = st.builds(
    call_number,
    letters=st.sampled_from(["B", "BF", "P", "PS"]),
    class_int=st.integers(1, 40),
    frac=st.sampled_from(["", "5", "25"]),
    cutters=st.lists(
        st.tuples(st.sampled_from("ACX"), st.sampled_from(["1", "15", "2", "9"])),
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
        b = call_number(b.class_letters, b.class_int, b.class_frac)
    return lccn.CallNumberRange(a, b)


def distribution_of(counts: list[int] | list[float]) -> SubjectDistribution:
    """A subject distribution with these counts, in this order, under made-up labels."""
    return SubjectDistribution([(f"subject {i}", count) for i, count in enumerate(counts)])


def count_calls(monkeypatch, owner, name: str) -> list[int]:
    """Wrap owner.name for the test; the returned one-item list counts its calls."""
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


# The heat map, power-law fit and PGM scaling as they stood on numpy: the
# oracles that telemetry's standard-library versions must agree with.  They are
# copied verbatim but for three things: numpy is imported where they run, so
# that only the tests that call them need it; the heat map returns its array
# and out-of-extent count, not a DensityGrid; and the PGM scaling takes the
# grid's rows and returns its own, top of the image first, instead of writing
# them.
def reference_cell_of(spec: GridSpec, x: float, y: float) -> tuple[int, int] | None:
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


def reference_heatmap_points(
    points: list[tuple[float, float]],
    spec: GridSpec,
    mode: str = "bin",
    sigma: float | None = None,
):
    import numpy as np

    values = np.zeros((spec.height, spec.width))
    out_of_extent = 0
    if mode == "bin":
        for x, y in points:
            cell = reference_cell_of(spec, x, y)
            if cell is None:
                out_of_extent += 1
            else:
                values[cell] += 1.0
    elif mode == "gaussian":
        if sigma is None or sigma <= 0:
            raise ValueError("gaussian mode requires sigma > 0")
        reach = int(math.ceil(3.0 * sigma / spec.cell_size))
        for x, y in points:
            cell = reference_cell_of(spec, x, y)
            if cell is None:
                out_of_extent += 1
                continue
            row, col = cell
            r0, r1 = max(0, row - reach), min(spec.height - 1, row + reach)
            c0, c1 = max(0, col - reach), min(spec.width - 1, col + reach)
            rows = np.arange(r0, r1 + 1)
            cols = np.arange(c0, c1 + 1)
            cy = spec.origin_y + (rows + 0.5) * spec.cell_size
            cx = spec.origin_x + (cols + 0.5) * spec.cell_size
            d2 = (cx[None, :] - x) ** 2 + (cy[:, None] - y) ** 2
            kernel = np.exp(-d2 / (2.0 * sigma * sigma))
            kernel[d2 > (3.0 * sigma) ** 2] = 0.0
            total = kernel.sum()
            if total <= 0.0:
                values[row, col] += 1.0
            else:
                values[r0 : r1 + 1, c0 : c1 + 1] += kernel / total
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return values, out_of_extent


def reference_fit_power_law(counts: list[int]) -> PowerLawFit:
    import numpy as np

    counts = sorted((c for c in counts if c > 0), reverse=True)
    if len(counts) < 3:
        raise TooFewRanks(f"need >= 3 nonzero ranks, got {len(counts)}")
    ranks = np.arange(1, len(counts) + 1, dtype=float)
    log_r = np.log(ranks)
    log_c = np.log(np.asarray(counts, dtype=float))
    slope, intercept = np.polyfit(log_r, log_c, 1)
    predicted = slope * log_r + intercept
    ss_res = float(np.sum((log_c - predicted) ** 2))
    ss_tot = float(np.sum((log_c - log_c.mean()) ** 2))
    r_squared = 1.0 if ss_tot < 1e-30 else 1.0 - ss_res / ss_tot
    return PowerLawFit(float(slope), r_squared)


def reference_pgm_rows(values: list[list[float]]) -> list[list[int]]:
    import numpy as np

    values = np.asarray(values, dtype=float)
    peak = values.max()
    scaled = np.zeros_like(values, dtype=int) if peak <= 0 else np.rint(
        values / peak * 255
    ).astype(int)
    return scaled[::-1].tolist()  # row 0 of the grid is the bottom of the image


def exact_fit_power_law(counts: list[int]) -> PowerLawFit:
    """The least-squares line on (log rank, log count), in exact rationals.

    The logs are the floats math.log gives; everything after them is exact, so
    this is the fit that a float implementation can only round.
    """
    counts = sorted((c for c in counts if c > 0), reverse=True)
    n = len(counts)
    log_r = [Fraction(math.log(rank)) for rank in range(1, n + 1)]
    log_c = [Fraction(math.log(count)) for count in counts]
    mean_r, mean_c = sum(log_r) / n, sum(log_c) / n
    slope = (sum((r - mean_r) * (c - mean_c) for r, c in zip(log_r, log_c))
             / sum((r - mean_r) ** 2 for r in log_r))
    intercept = mean_c - slope * mean_r
    ss_res = sum((c - (slope * r + intercept)) ** 2 for r, c in zip(log_r, log_c))
    ss_tot = sum((c - mean_c) ** 2 for c in log_c)
    return PowerLawFit(float(slope), 1.0 if ss_tot < 1e-30 else float(1 - ss_res / ss_tot))

import copy
import csv
import dataclasses
import pickle
import random
import string
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stackrec import lccn
from stackrec.lccn import (
    CallNumber,
    CallNumberRange,
    ParseError,
    Unclassified,
    canonical_format,
    in_range,
    parse,
    parse_range,
    ranges_overlap,
)

from conftest import (
    CALL_NUMBERS,
    KNOWN_SORT_ORDER,
    KNOWN_SUBJECTS,
    REFERENCE,
    call_number,
    call_number_ranges,
    oracle_call_number_key,
    oracle_classify,
    oracle_in_range,
    oracle_ranges_overlap,
    oracle_upper_key,
    random_call_number,
    reference_key,
    reference_parse,
)


# --- parsing ---------------------------------------------------------------

def test_parse_shelving_exemplar():
    cn = parse("PN1995 .C655 2015")
    assert cn.class_letters == "PN"
    assert cn.class_int == 1995
    assert cn.class_frac == ""
    assert cn.cutters == (("C", "655"),)
    assert cn.year == 2015
    assert cn.suffix is None


def test_parse_double_cutter():
    cn = parse("B105.E9 G63 1974")
    assert (cn.class_letters, cn.class_int) == ("B", 105)
    assert cn.cutters == (("E", "9"), ("G", "63"))
    assert cn.year == 1974


def test_parse_fractional_class_number():
    cn = parse("GV1469.62.D84")
    assert cn.class_int == 1469
    assert cn.class_frac == "62"
    assert cn.cutters == (("D", "84"),)
    assert cn.year is None


def test_parse_dot_and_space_cutter_forms_agree():
    assert parse("PZ7.R79835") == parse("PZ7 .R79835")
    assert canonical_format(parse("PZ7.R79835")) == canonical_format(parse("PZ7 .R79835"))


def test_parse_errors_carry_offset_and_reason():
    with pytest.raises(ParseError) as exc:
        parse("1234")
    assert exc.value.offset == 0
    assert "class letters" in exc.value.reason

    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("PN")


def test_trailing_garbage_lands_in_suffix():
    assert parse("PN1995 .C655 2015 ???").suffix == "???"


def test_suffix_captures_volume_designators():
    cn = parse("QA76.73 .P98 2001 v.2")
    assert cn.suffix == "v.2"


def _parts(cn: CallNumber) -> tuple:
    return cn.class_letters, cn.class_int, cn.class_frac, cn.cutters, cn.year, cn.suffix


def _parsed(text):
    cn = parse(text)
    return _parts(cn), cn.sort_key()


def _reference_parsed(text):
    parts = reference_parse(text)
    return parts, reference_key(*parts)


def _parse_outcome(parser, text):
    """What parser makes of text: its call number's parts and key, or the error it raises."""
    try:
        parts, key = parser(text)
    except ParseError as exc:
        return "ParseError", exc.text, exc.offset, exc.reason
    except ValueError as exc:
        return "ValueError", str(exc)
    return "parsed", parts, key


# ASCII letters and digits, the separators (a dot and some whitespace), and
# non-ASCII digits and letters.
PARSE_ALPHABET = string.ascii_letters + string.digits + " .\t\n\x0b\u3000-/²٠é"
# Runs of call-number parts, so that most texts get past the class number.
PARSE_PARTS = ["PN", "b", "QA", "ABCD", "1995", "76.73", "76.730", "7", "0", "00", ".", " ", "\t",
               "\n", "\r\n", "\u3000", ".C655", "R79835", "R798350", "x0", "2015", "1974.", "20155",
               "v.2", "-", "/", "²", "٠", "é"]
PARSE_TEXT = st.text(PARSE_ALPHABET, max_size=30) | st.lists(
    st.sampled_from(PARSE_PARTS), max_size=10).map("".join)


@settings(max_examples=1000, deadline=None)
@given(PARSE_TEXT)
@example("")  # no class letters at offset 0
@example("PN" + "1" * 5000)  # a class number past int()'s digit limit: ValueError
@example("PN1 .C" + "9" * 5000)
@example("PN1 .C" + "0" * 5000)
@example("PN1995\n")  # the newline separates like a space: no suffix
@example("PN1995 .C655\t")  # separators to the end: no suffix
@example("PN1995 2015 .\t")
def test_parse_agrees_with_the_reference_parser(text):
    assert _parse_outcome(_parsed, text) == _parse_outcome(_reference_parsed, text)


def test_parse_agrees_with_the_reference_parser_on_every_fixture_cell():
    cells = set()
    for path in REFERENCE.iterdir():
        if path.suffix in (".csv", ".tsv"):
            with open(path, newline="", encoding="utf-8") as fh:
                for row in csv.reader(fh, delimiter="\t" if path.suffix == ".tsv" else ","):
                    cells.update(row)
    cells.update(cell.strip() for cell in list(cells))
    assert {"PN1995 .C655 2015", "PR80", "B5802"} <= cells
    for text in sorted(cells):
        assert _parse_outcome(_parsed, text) == _parse_outcome(_reference_parsed, text), text


# --- canonical form --------------------------------------------------------

def test_canonical_form_of_double_cutter():
    cn = parse("b105.E90  g63\t1974")
    assert canonical_format(cn) == "B105 .E9 G63 1974"


@pytest.mark.parametrize("text", KNOWN_SORT_ORDER + [
    "PZ7 .R79835",
    # whitespace other than a space separates like one
    "P1\n1990", "P1 .C5 \n C6", "P1 .A5\x0bB7", "P1 .A5\x0c1990", "PS3545 .I345\r\nZ5 1990",
])
def test_round_trip_preserves_value(text):
    cn = parse(text)
    assert parse(canonical_format(cn)) == cn
    # canonical_format . parse is idempotent on text
    assert canonical_format(parse(canonical_format(cn))) == canonical_format(cn)


# --- ordering --------------------------------------------------------------

def test_compare_reflexive():
    cn = parse("PN1995 .C655 2015")
    assert cn.sort_key() == cn.sort_key()


def test_fractional_class_number_orders_numerically():
    assert parse("PN1991.75 A24").sort_key() < parse("PN1995 .C655 2015").sort_key()


def test_cutter_digits_compare_as_decimal_fraction():
    # 0.79835 < 0.8
    assert parse("PZ7.R79835").sort_key() < parse("PZ7.R8").sort_key()


def test_prefix_cutter_list_sorts_first():
    assert parse("PR85").sort_key() < parse("PR85.C45").sort_key()


def test_missing_year_sorts_before_year():
    assert parse("PZ7.R79835").sort_key() < parse("PZ7.R79835 1950").sort_key()


def test_known_call_numbers_sort_order():
    shuffled = [parse(t) for t in KNOWN_SORT_ORDER]
    random.Random(42).shuffle(shuffled)
    ordered = sorted(shuffled, key=lambda c: c.sort_key())
    assert [canonical_format(c) for c in ordered] == [
        canonical_format(parse(t)) for t in KNOWN_SORT_ORDER
    ]


def test_compare_agrees_with_component_oracle_bulk():
    rng = random.Random(2024)
    values = [random_call_number(rng) for _ in range(1200)]
    for _ in range(4000):
        a, b = rng.choice(values), rng.choice(values)
        expected = (oracle_call_number_key(a) > oracle_call_number_key(b)) - (
            oracle_call_number_key(a) < oracle_call_number_key(b)
        )
        assert _sign(a.sort_key(), b.sort_key()) == expected, f"{canonical_format(a)} vs {canonical_format(b)}"


call_numbers = st.builds(
    random_call_number, st.integers(min_value=0, max_value=2**32).map(random.Random)
)


@given(call_numbers, call_numbers)
def test_order_antisymmetry(a, b):
    assert _sign(a.sort_key(), b.sort_key()) == -_sign(b.sort_key(), a.sort_key())


@given(call_numbers, call_numbers, call_numbers)
def test_order_transitivity(a, b, c):
    xs = sorted([a, b, c], key=lambda cn: cn.sort_key())
    assert xs[0].sort_key() <= xs[1].sort_key() <= xs[2].sort_key()
    assert xs[0].sort_key() <= xs[2].sort_key()


@settings(max_examples=200)
@given(call_numbers)
def test_canonical_round_trip_property(cn):
    reparsed = parse(canonical_format(cn))
    assert reparsed.sort_key() == cn.sort_key()
    assert canonical_format(reparsed) == canonical_format(cn)


# Whitespace other than a space or a tab: controls, Unicode's line and
# paragraph separators, a no-break space and an ideographic space.
OTHER_WHITESPACE = "\n\r\x0b\x0c\x1c\x85\u00a0\u2028\u3000"


@settings(max_examples=500, deadline=None)
@given(call_numbers, st.lists(st.text(OTHER_WHITESPACE + " ", min_size=1, max_size=3),
                              min_size=7, max_size=7))
def test_any_whitespace_separates_the_parts(cn, spaces):
    first, *rest = canonical_format(cn).split(" ")  # at most 6 parts, none with a space
    text = spaces[0] + first + "".join(space + part for space, part in zip(spaces[1:], rest))
    assert parse(text) == cn
    assert parse(canonical_format(parse(text))) == parse(text)


@given(call_numbers, call_numbers)
def test_compare_matches_oracle_property(a, b):
    expected = (oracle_call_number_key(a) > oracle_call_number_key(b)) - (
        oracle_call_number_key(a) < oracle_call_number_key(b)
    )
    assert _sign(a.sort_key(), b.sort_key()) == expected


# Mostly texts that parse: canonical forms, spelled in lower case with the
# first cutter's dot run on, and the reference parser's draw.
PARSEABLE_TEXT = (
    call_numbers.map(canonical_format)
    | call_numbers.map(lambda cn: canonical_format(cn).lower().replace(" .", "."))
    | PARSE_TEXT
)


@settings(max_examples=1000, deadline=None)
@given(PARSEABLE_TEXT)
@example("PN1995 .C655 2015")
@example("pz7.r798350 1950 v.2")
@example("GV1469.620 .D840")
@example("B105.E9 G63")
def test_parse_builds_the_reference_key_of_its_parts(text):
    try:
        cn = parse(text)
    except ValueError:
        return
    # the properties read back the parts the key was built from
    assert cn.sort_key() == reference_key(*_parts(cn))
    assert _parts(cn) == reference_parse(text)
    # the parts written out as text parse to the same call number
    rebuilt = call_number(*_parts(cn))
    assert rebuilt == cn and rebuilt.sort_key() == cn.sort_key() and hash(rebuilt) == hash(cn)
    assert canonical_format(rebuilt) == canonical_format(cn)


def _sign(a, b) -> int:
    return (a > b) - (a < b)


DIGITS = st.text("0123456789", min_size=1, max_size=40)


@given(DIGITS, DIGITS)
def test_digit_strings_order_as_decimal_fractions(a, b):
    # The strings run past the oracle's 30-place pad; exact fractions decide.
    expected = _sign(Fraction(int(a), 10 ** len(a)), Fraction(int(b), 10 ** len(b)))
    assert _sign(call_number("P", 1, a).sort_key(), call_number("P", 1, b).sort_key()) == expected
    if int(a) and int(b):
        ka = call_number("P", 1, "", (("R", a),)).sort_key()
        kb = call_number("P", 1, "", (("R", b),)).sort_key()
        assert _sign(ka, kb) == expected


def test_trailing_zeros_tie_with_stripped_forms():
    assert parse("PZ7 .R80").sort_key() == parse("PZ7.R8").sort_key()
    assert parse("PZ7.50").sort_key() == parse("PZ7.5").sort_key()


def test_sort_key_is_built_once():
    cn = parse("PZ7.R79835 1950")
    assert cn.sort_key() is cn.sort_key()


def test_value_classes_are_slotted_frozen_and_hashable():
    cn = parse("PN1995 .C655 2015")
    r = parse_range("PN1990", "PN1999")
    frozen = dataclasses.FrozenInstanceError
    for value, name, error in ((cn, "year", AttributeError), (r, "end", frozen)):
        assert not hasattr(value, "__dict__")
        with pytest.raises(error):
            setattr(value, name, None)
    assert cn == parse("PN1995.C655 2015") and hash(cn) == hash(parse("PN1995.C655 2015"))
    assert r == parse_range("PN1990", "PN1999") and len({r, parse_range("PN1990", "PN1999")}) == 1
    assert "_key" not in repr(cn) and "upper" not in repr(r)


def test_a_call_number_holds_only_its_key_and_text():
    cn = parse("PN1995 .C655 D84 2015")
    assert not hasattr(cn, "__dict__") and CallNumber.__slots__ == ("_key", "_text")
    assert cn.cutters == (("C", "655"), ("D", "84"))
    assert repr(cn) == "CallNumber('PN1995 .C655 D84 2015')"


def test_only_parse_makes_a_call_number():
    for args in ((), ("PZ", 7)):
        with pytest.raises(TypeError, match=r"lccn\.parse"):
            CallNumber(*args)
    cn = parse("PN1995 .C655 D84 2015")
    for copied in (copy.copy(cn), copy.deepcopy(cn),
                   *(pickle.loads(pickle.dumps(cn, protocol)) for protocol in range(2, 6))):
        assert copied == cn and copied.sort_key() == cn.sort_key() and repr(copied) == repr(cn)


def test_equality_follows_the_shelf_key():
    assert parse("PZ7.50") == parse("PZ7.5")
    assert hash(parse("PZ7.50")) == hash(parse("PZ7.5"))
    assert parse("PZ7 .R80") == parse("PZ7.R8")
    assert parse("PZ7 ") == parse("PZ7") == parse("PZ7\n")
    assert parse("PZ7") != "PZ7"


@given(CALL_NUMBERS, CALL_NUMBERS)
def test_equal_exactly_when_keys_are_equal(a, b):
    assert (a == b) == (a.sort_key() == b.sort_key())
    if a == b:
        assert hash(a) == hash(b)
    # trailing zeros on the fractions file at the same place, so they compare equal
    padded = call_number(a.class_letters, a.class_int, a.class_frac + "0",
                         tuple((letter, digits + "00") for letter, digits in a.cutters), a.year, a.suffix)
    assert padded == a and hash(padded) == hash(a) and canonical_format(padded) == canonical_format(a)


def test_years_below_1000_keep_four_digits_and_round_trip():
    for year in range(1000):
        cn = parse(f"P1 {year:04d}")
        assert cn.year == year and canonical_format(cn) == f"P1 {year:04d}"
        assert parse(canonical_format(cn)).sort_key() == cn.sort_key()
        assert cn.sort_key() == reference_key("P", 1, "", (), year, None)


@settings(max_examples=300, deadline=None)
@given(
    letters=st.text("ABCDEFGHIJKLMNOPQRSTUVWXYZ", min_size=1, max_size=3),
    class_int=st.integers(0, 10**6),
    frac=st.text("0123456789", max_size=4),
    cutters=st.lists(
        st.tuples(st.sampled_from(string.ascii_uppercase),
                  st.from_regex(r"0{0,2}[1-9][0-9]{0,3}", fullmatch=True)),
        max_size=3,
    ).map(tuple),
    year=st.none() | st.integers(0, 9999),
    suffix=st.sampled_from([None, "v.2", "c.3", "suppl"]),
)
@example(letters="P", class_int=1, frac="", cutters=(), year=0, suffix=None)
@example(letters="P", class_int=1, frac="", cutters=(), year=9999, suffix=None)
def test_drawn_parts_parse_to_the_reference_key_and_round_trip(letters, class_int, frac, cutters,
                                                                year, suffix):
    cn = call_number(letters, class_int, frac, cutters, year, suffix)
    assert cn.sort_key() == reference_key(letters, class_int, frac, cutters, year, suffix)
    stripped = tuple((letter, digits.rstrip("0")) for letter, digits in cutters)
    assert _parts(cn) == (letters, class_int, frac.rstrip("0"), stripped, year, suffix)
    assert parse(canonical_format(cn)) == cn


def _copy(cn: CallNumber) -> CallNumber:
    return call_number(*_parts(cn))


@settings(max_examples=300, deadline=None)
@given(a=CALL_NUMBERS, b=CALL_NUMBERS, r=call_number_ranges(), q=call_number_ranges())
def test_equal_values_hash_equal(a, b, r, q):
    # the small draw space makes equal pairs common
    if a == b:
        assert hash(a) == hash(b)
    if r == q:
        assert hash(r) == hash(q)
    for cn in (a, b):
        assert _copy(cn) == cn and hash(_copy(cn)) == hash(cn)
        assert hash(parse(canonical_format(cn))) == hash(cn)
    same = CallNumberRange(_copy(r.start), _copy(r.end))
    assert same == r and hash(same) == hash(r)


@settings(max_examples=200, deadline=None)
@given(cn=CALL_NUMBERS)
def test_canonical_format_is_the_same_before_and_after_its_cache_fills(cn):
    fresh = _copy(cn)
    first = canonical_format(cn)        # fills cn's cache
    assert canonical_format(cn) is first  # formatted once, then read back
    assert canonical_format(_copy(cn)) == first
    # the cached text is invisible to ==, hash and repr
    assert cn == fresh and hash(cn) == hash(fresh) and repr(cn) == repr(fresh)
    assert canonical_format(fresh) == first


# --- ranges ----------------------------------------------------------------

def test_in_range_closed_at_start():
    r = parse_range("PN1990", "PN1999")
    assert in_range(r.start, r)


def test_in_range_table_examples():
    r = parse_range("PN1990", "PN1999")
    assert in_range(parse("PN1995 .C655 2015"), r)
    assert not in_range(parse("SF446 .C763 2014"), r)


def test_prefix_end_covers_cuttered_numbers():
    r = parse_range("GV1469.15", "GV1469.62")
    assert in_range(parse("GV1469.62.D84"), r)
    assert not in_range(parse("GV1469.63"), r)


def test_inverted_range_rejected():
    with pytest.raises(ValueError):
        parse_range("PN1999", "PN1990")


@given(call_numbers, call_numbers, call_numbers)
def test_in_range_consistent_with_sort_position(a, b, c):
    lo, mid, hi = sorted([a, b, c], key=lambda cn: cn.sort_key())
    r = CallNumberRange(lo, hi)
    assert in_range(mid, r)


@given(CALL_NUMBERS, CALL_NUMBERS)
def test_range_accepts_exactly_the_oracle_valid_ends(a, b):
    if oracle_call_number_key(a) <= oracle_upper_key(b):
        CallNumberRange(a, b)
    else:
        with pytest.raises(ValueError):
            CallNumberRange(a, b)


@given(call_number_ranges(), CALL_NUMBERS)
def test_in_range_matches_oracle(r, cn):
    assert in_range(cn, r) == oracle_in_range(cn, r)
    assert in_range(r.start, r)


@given(call_number_ranges(), call_number_ranges())
def test_ranges_overlap_matches_oracle(a, b):
    assert ranges_overlap(a, b) == ranges_overlap(b, a) == oracle_ranges_overlap(a, b)


# --- classification --------------------------------------------------------

@pytest.mark.parametrize("text,label", KNOWN_SUBJECTS)
def test_classify_known_labels(text, label, ref_outline):
    assert ref_outline.classify(parse(text)) == label


def test_classify_prefers_narrowest_range(ref_outline):
    # nested under the broad recreation range
    assert (
        ref_outline.classify(parse("GV1469.62.D84"))
        == "Computer games. Video games. Fantasy games"
    )
    # broad entry still wins outside the nested one
    assert ref_outline.classify(parse("GV1400")) == "Recreation. Leisure"


def test_classify_unclassified_raises(ref_outline):
    with pytest.raises(Unclassified):
        ref_outline.classify(parse("ZZ999"))


def test_classify_is_deterministic(ref_outline):
    cn = parse("PR9619.4.Z87")
    assert ref_outline.classify(cn) == ref_outline.classify(cn)


# --- outline loading -------------------------------------------------------

def test_load_outline_single_entry(tmp_path):
    path = tmp_path / "mini.tsv"
    path.write_text("B1\tB5802\tPhilosophy (General)\n", encoding="utf-8")
    outline = lccn.load_outline(path)
    assert len(outline.entries) == 1
    assert outline.classify(parse("B105.E9 G63 1974")) == "Philosophy (General)"


def test_load_outline_empty_file_errors(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(lccn.OutlineLoadError):
        lccn.load_outline(path)


def test_load_outline_reports_bad_lines(tmp_path):
    path = tmp_path / "partial.tsv"
    path.write_text(
        "# comment\nB1\tB5802\tPhilosophy (General)\nnot-a-range\n", encoding="utf-8"
    )
    outline = lccn.load_outline(path)
    assert len(outline.entries) == 1
    assert len(outline.diagnostics) == 1


def test_load_outline_duplicate_range_first_wins(tmp_path):
    path = tmp_path / "dupe.tsv"
    path.write_text(
        "B1\tB5802\tPhilosophy (General)\nB1\tB5802\tSomething else\n", encoding="utf-8"
    )
    outline = lccn.load_outline(path)
    assert outline.classify(parse("B105")) == "Philosophy (General)"
    assert any("duplicate" in d for d in outline.diagnostics)


def _class_prefix(cn: CallNumber) -> CallNumber:
    return call_number(cn.class_letters, cn.class_int, cn.class_frac)


@st.composite
def outline_ranges(draw):
    """Random outline rows: nested and overlapping ranges, exact duplicates,
    and ranges that share a start with another row but end at its class."""
    ranges = draw(st.lists(call_number_ranges(), min_size=1, max_size=10))
    ranges += draw(st.lists(st.sampled_from(ranges), max_size=3))
    ranges += [
        CallNumberRange(r.start, _class_prefix(r.start))
        for r in draw(st.lists(st.sampled_from(ranges), max_size=3))
    ]
    return draw(st.permutations(ranges))


@settings(max_examples=200, deadline=None)
@given(outline_ranges(), st.lists(CALL_NUMBERS, max_size=20))
def test_classify_matches_oracle(ranges, points):
    rows = [(r, f"label {i}", i) for i, r in enumerate(ranges, start=1)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "outline.tsv"
        path.write_text(
            "".join(f"{r.start}\t{r.end}\t{label}\n" for r, label, _ in rows), encoding="utf-8"
        )
        outline = lccn.load_outline(path)
    # the range ends are points too; points outside every range stay Unclassified
    points += [cn for r in ranges for cn in (r.start, r.end)]
    points.append(parse("Z1"))
    for cn in points:
        try:
            got = outline.classify(cn)
        except Unclassified:
            got = None
        assert got == oracle_classify(rows, cn), canonical_format(cn)

import math
import random
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stackrec import lccn, stacksmap
from stackrec.stacksmap import (
    Rect,
    Shelf,
    StackMap,
    StackMapLoadError,
    load_stackmap,
    ranges_for_location,
    shelf_for_call,
)

from conftest import CALL_NUMBERS, REFERENCE, call_number_ranges, count_calls


def _write_map(tmp_path, rows):
    path = tmp_path / "map.csv"
    lines = ["shelf_number,x_min,y_min,x_max,y_max,range_start,range_end"]
    lines += [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_load_two_disjoint_shelves(tmp_path):
    path = _write_map(
        tmp_path,
        [(1, 0, 0, 10, 10, "PN1990", "PN1999"), (2, 20, 0, 30, 10, "SF440", "SF450")],
    )
    assert len(load_stackmap(path).shelves) == 2


def test_load_rejects_overlapping_ranges(tmp_path):
    path = _write_map(
        tmp_path,
        [(1, 0, 0, 10, 10, "PN1990", "PN1999"), (2, 20, 0, 30, 10, "PN1995", "PN2000")],
    )
    with pytest.raises(StackMapLoadError, match="overlapping"):
        load_stackmap(path)


def test_load_rejects_duplicate_shelf_numbers(tmp_path):
    path = _write_map(
        tmp_path,
        [(7, 0, 0, 10, 10, "PN1990", "PN1999"), (7, 20, 0, 30, 10, "SF440", "SF450")],
    )
    with pytest.raises(StackMapLoadError, match="duplicate"):
        load_stackmap(path)


def test_load_skips_malformed_rows(tmp_path):
    path = _write_map(
        tmp_path,
        [(1, 0, 0, 10, 10, "PN1990", "PN1999"), (2, 20, 0, 5, 10, "SF440", "SF450")],
    )
    m = load_stackmap(path)
    assert len(m.shelves) == 1
    assert len(m.diagnostics) == 1


def test_load_skips_short_rows(tmp_path):
    m = load_stackmap(_write_map(tmp_path, [(1, 0, 0, 10, 10, "PN1990", "PN1999"), (2, 20, 0)]))
    assert [s.shelf_number for s in m.shelves] == [1]
    (message,) = m.diagnostics
    assert message.startswith("row 3: ")


def test_known_shelves_resolve_call_numbers(ref_stackmap):
    shelf = shelf_for_call(lccn.parse("PN1995 .C655 2015"), ref_stackmap)
    assert shelf.shelf_number == 30
    assert tuple(round(v) for v in shelf.bounds.center) == (337, 128)

    shelf = shelf_for_call(lccn.parse("SF446 .C763 2014"), ref_stackmap)
    assert shelf.shelf_number == 51
    assert tuple(round(v) for v in shelf.bounds.center) == (92, 304)


def test_shelf_for_call_not_found(ref_stackmap):
    assert shelf_for_call(lccn.parse("QA76.73"), ref_stackmap) is None


def test_point_inside_shelf_ranks_first(ref_stackmap):
    ranges = ranges_for_location((337, 128), ref_stackmap, radius=10)
    assert ranges
    assert lccn.in_range(lccn.parse("PN1995"), ranges[0])


def test_equidistant_tie_broken_by_shelf_number(tmp_path):
    path = _write_map(
        tmp_path,
        [(2, 20, 0, 30, 10, "SF440", "SF450"), (1, 0, 0, 10, 10, "PN1990", "PN1999")],
    )
    m = load_stackmap(path)
    by_number = {s.shelf_number: s for s in m.shelves}
    # (15, 5) is 5 units from both shelves
    ranges = ranges_for_location((15, 5), m, radius=10)
    assert ranges == [by_number[1].range, by_number[2].range]


def _synthetic_map(n=10):
    shelves = []
    for i in range(n):
        x0 = 50.0 * i
        shelves.append(
            Shelf(
                shelf_number=i + 1,
                bounds=Rect(x0, 0.0, x0 + 20.0, 10.0),
                range=lccn.parse_range(f"PS{100 * (i + 1)}", f"PS{100 * (i + 1) + 50}"),
            )
        )
    return StackMap(shelves=shelves)


def test_ranges_for_location_matches_brute_force():
    m = _synthetic_map()
    rng = random.Random(5)
    for _ in range(50):
        p = (rng.uniform(-50, 550), rng.uniform(-50, 60))
        radius = rng.uniform(1, 200)
        expected = sorted(
            (s for s in m.shelves if s.bounds.distance_to(p) <= radius),
            key=lambda s: (s.bounds.distance_to(p), s.shelf_number),
        )
        assert ranges_for_location(p, m, radius) == [s.range for s in expected]


def test_radius_covering_three_shelves():
    m = _synthetic_map()
    # center of shelf 5 spans (200, 220); radius reaching shelves 4..6 only
    p = (210.0, 5.0)
    ranges = ranges_for_location(p, m, radius=45.0)
    assert len(ranges) == 3
    assert ranges[0] == m.shelves[4].range


def test_radius_zero_returns_containing_shelves():
    m = _synthetic_map()
    inside = (5.0, 5.0)
    assert ranges_for_location(inside, m, 0.0) == [m.shelves[0].range]
    outside = (25.0, 5.0)
    assert ranges_for_location(outside, m, 0.0) == []


def test_radius_infinity_returns_all():
    m = _synthetic_map()
    assert len(ranges_for_location((0, 0), m, math.inf)) == len(m.shelves)


def test_shelf_for_call_iff_in_range(ref_stackmap):
    for cn_text in ("PN1995 .C655 2015", "PS94.B5", "PR85.C45", "E669.F37"):
        cn = lccn.parse(cn_text)
        shelf = shelf_for_call(cn, ref_stackmap)
        assert shelf is not None
        assert lccn.in_range(cn, shelf.range)
        others = [s for s in ref_stackmap.shelves if s is not shelf]
        assert not any(lccn.in_range(cn, s.range) for s in others)


@given(
    st.floats(-100, 400, allow_nan=False),
    st.floats(-100, 400, allow_nan=False),
)
def test_rectangle_distance_zero_iff_inside(x, y):
    rect = Rect(0.0, 0.0, 100.0, 50.0)
    d = rect.distance_to((x, y))
    assert (d == 0.0) == (0.0 <= x <= 100.0 and 0.0 <= y <= 50.0)
    assert d >= 0.0


# --- the lookup indexes against brute-force oracles ----------------------------

def _shelves(ranges) -> list[Shelf]:
    return [Shelf(i + 1, Rect(10.0 * i, 0.0, 10.0 * i + 5.0, 5.0), r) for i, r in enumerate(ranges)]


def _pairwise_overlap(shelves) -> bool:
    return any(
        lccn.ranges_overlap(a.range, b.range) for i, a in enumerate(shelves) for b in shelves[i + 1 :]
    )


def _disjoint(ranges) -> list:
    kept = []
    for r in ranges:
        if not any(lccn.ranges_overlap(r, k) for k in kept):
            kept.append(r)
    return kept


# before every shelf class (B..PS), and after every one
_OUTSIDE = [lccn.parse("A1"), lccn.parse("AZ9999 .X9 2020"), lccn.parse("PT1"), lccn.parse("Z9999")]


@settings(max_examples=200, deadline=None)
@given(ranges=st.lists(call_number_ranges(), max_size=12), probes=st.lists(CALL_NUMBERS, max_size=20))
def test_shelf_for_call_matches_linear_scan(ranges, probes):
    shelves = _shelves(_disjoint(ranges))
    m = StackMap(shelves=shelves)
    # the shelf edges, the gaps between shelves (random probes), and both sides of the map
    for cn in probes + _OUTSIDE + [c for s in shelves for c in (s.range.start, s.range.end)]:
        containing = [s for s in shelves if lccn.in_range(cn, s.range)]
        assert len(containing) <= 1
        assert shelf_for_call(cn, m) is (containing[0] if containing else None)


def test_shelf_for_call_before_between_and_after_shelves():
    m = StackMap(shelves=_shelves([
        lccn.parse_range("B20", "B30"),   # a class-prefix end: holds B30 .X9 too
        lccn.parse_range("PS100", "PS200 .C5"),
    ]))
    first, second = m.shelves
    for text, expected in [
        ("A5", None), ("B19 .X9", None), ("B20", first), ("B30 .X9 1990", first), ("B31", None),
        ("PS99.5", None), ("PS150 .A1", second), ("PS200 .C5", second), ("PS200 .C6", None),
        ("PS201", None), ("Z1", None),
    ]:
        assert shelf_for_call(lccn.parse(text), m) is expected, text


@settings(max_examples=150, deadline=None)
@given(ranges=st.lists(call_number_ranges(), max_size=10))
def test_sorted_overlap_check_matches_pairwise(ranges):
    shelves = _shelves(ranges)
    rows = [
        (s.shelf_number, s.bounds.x_min, s.bounds.y_min, s.bounds.x_max, s.bounds.y_max,
         lccn.canonical_format(s.range.start), lccn.canonical_format(s.range.end))
        for s in shelves
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = _write_map(Path(tmp), rows)
        if _pairwise_overlap(shelves):
            with pytest.raises(StackMapLoadError, match="overlapping"):
                load_stackmap(path)
        elif not shelves:
            with pytest.raises(StackMapLoadError, match="no valid shelves"):
                load_stackmap(path)
        else:
            assert load_stackmap(path).shelves == shelves


def test_sorted_overlap_check_names_an_overlapping_pair(tmp_path):
    path = _write_map(tmp_path, [
        (1, 0, 0, 10, 10, "PS100", "PS200"),
        (2, 20, 0, 30, 10, "B1", "B9"),
        (3, 40, 0, 50, 10, "PS150 .A1", "PS150 .A9"),
    ])
    with pytest.raises(StackMapLoadError, match="shelves 1 and 3 have overlapping ranges"):
        load_stackmap(path)


_COORD = st.floats(-1000, 1000, allow_nan=False) | st.integers(-60, 60).map(float)


@st.composite
def _rects(draw):
    x, y = draw(_COORD), draw(_COORD)
    w, h = draw(st.floats(0.001, 300)), draw(st.floats(0.001, 300))
    return Rect(x, y, x + w, y + h)


def _scan(shelves, p, radius) -> list:
    """The all-shelves oracle of ranges_for_location."""
    kept = sorted(
        (s for s in shelves if s.bounds.distance_to(p) <= radius),
        key=lambda s: (s.bounds.distance_to(p), s.shelf_number),
    )
    return [s.range for s in kept]


# far off any map drawn here (its shelves lie within 1,300 of the origin), out to 1e300
_FAR = st.sampled_from([-1.0, 1.0]).flatmap(lambda sign: st.floats(2e3, 1e300).map(sign.__mul__))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_ranges_for_location_matches_all_shelves_scan(data):
    rects = data.draw(st.lists(_rects(), min_size=1, max_size=15))
    numbers = data.draw(st.permutations(range(1, len(rects) + 1)))
    shelves = [
        Shelf(n, rect, lccn.parse_range(f"PS{n}", f"PS{n}")) for n, rect in zip(numbers, rects)
    ]
    m = StackMap(shelves=shelves)
    anchor = data.draw(st.sampled_from(rects))
    # anywhere, level with a shelf so that one distance component is 0, on a
    # grid cell edge, or far outside the map on one side or both
    p = data.draw(
        st.tuples(_COORD, _COORD)
        | st.tuples(st.floats(anchor.x_min, anchor.x_max), _COORD)
        | st.tuples(_COORD, st.floats(anchor.y_min, anchor.y_max))
        | st.tuples(st.sampled_from(m._xs), st.sampled_from(m._ys))
        | st.tuples(_FAR, _COORD | _FAR)
        | st.tuples(_COORD, _FAR)
    )
    # a radius exactly at the anchor shelf's distance keeps that shelf; one
    # from p to a cell edge ends the query's window exactly on that edge
    radius = data.draw(
        st.floats(0, 3000)
        | st.just(anchor.distance_to(p))
        | st.sampled_from(m._xs).map(lambda edge: abs(edge - p[0]))
        | st.sampled_from(m._ys).map(lambda edge: abs(edge - p[1]))
        | st.sampled_from([0.0, math.inf])
    )
    assert ranges_for_location(p, m, radius) == _scan(shelves, p, radius)


def _tiled_map(cols=4, rows=3, w=30.0, h=10.0) -> StackMap:
    """Equal shelves edge to edge, so that the shared edges lie on cell edges."""
    return StackMap(shelves=[
        Shelf(1 + i + cols * j, Rect(w * i, h * j, w * (i + 1), h * (j + 1)),
              lccn.parse_range(f"PS{1 + i + cols * j}", f"PS{1 + i + cols * j}"))
        for i in range(cols) for j in range(rows)
    ])


def test_radius_zero_on_a_shared_edge_returns_both_shelves():
    m = _tiled_map()
    assert any(x in m._xs for x in (30.0, 60.0, 90.0))  # a shared edge is a cell edge
    for x in (0.0, 15.0, 30.0, 45.0, 60.0, 90.0, 120.0):
        for y in (0.0, 5.0, 10.0, 20.0, 30.0):
            inside = [s for s in m.shelves
                      if s.bounds.x_min <= x <= s.bounds.x_max and s.bounds.y_min <= y <= s.bounds.y_max]
            assert ranges_for_location((x, y), m, 0.0) == _scan(m.shelves, (x, y), 0.0)
            assert len(ranges_for_location((x, y), m, 0.0)) == len(inside)
    by_number = {s.shelf_number: s for s in m.shelves}
    # the corner that shelves 1, 2, 5 and 6 share
    assert ranges_for_location((30.0, 10.0), m, 0.0) == [by_number[n].range for n in (1, 2, 5, 6)]


@pytest.mark.parametrize("first, x", [
    # ends one float below the cell edge at 1.0; 1000 - radius rounds to that edge
    (Rect(0.0, 0.0, math.nextafter(1.0, 0.0), 1.0), 1000.0),
    # starts one float above 1.0, the first cell edge; -1000 + radius rounds to 1.0
    (Rect(math.nextafter(1.0, 2.0), 0.0, 2.0, 1.0), -1000.0),
])
def test_window_keeps_a_shelf_kept_by_rounding(first, x):
    second = Rect(first.x_max, 0.0, first.x_max + 1.0, 1.0)
    shelves = [Shelf(n, rect, lccn.parse_range(f"PS{n}", f"PS{n}")) for n, rect in ((1, first), (2, second))]
    m = StackMap(shelves=shelves)
    radius = first.distance_to((x, 0.5))
    assert radius == round(radius)  # the float past the edge rounded away
    assert ranges_for_location((x, 0.5), m, radius) == _scan(shelves, (x, 0.5), radius)
    assert shelves[0].range in ranges_for_location((x, 0.5), m, radius)


def test_empty_map_builds_and_finds_nothing():
    m = StackMap(shelves=[])
    assert ranges_for_location((0.0, 0.0), m, math.inf) == []


def test_tiny_shelves_far_apart_get_a_coarser_grid():
    m = StackMap(shelves=[
        Shelf(n, Rect(x, y, x + 0.001, y + 0.001), lccn.parse_range(f"PS{n}", f"PS{n}"))
        for n, (x, y) in enumerate([(0.0, 0.0), (1000.0, 0.0), (0.0, 1000.0)], start=1)
    ])
    assert len(m._starts) - 1 <= 4 * len(m.shelves)
    assert ranges_for_location((1000.0, 0.0), m, 0.0) == [m.shelves[1].range]


@pytest.mark.parametrize("x_min, x_max", [("20", "inf"), ("-inf", "30")])
def test_load_skips_unbounded_shelves(tmp_path, x_min, x_max):
    m = load_stackmap(_write_map(
        tmp_path, [(1, 0, 0, 10, 10, "PN1990", "PN1999"), (2, x_min, 0, x_max, 10, "SF440", "SF450")]
    ))
    assert [s.shelf_number for s in m.shelves] == [1]
    (message,) = m.diagnostics
    assert message.startswith("row 3: unbounded rectangle")


# --- complexity guards: counted calls, not wall time ----------------------------

def test_load_stackmap_checks_only_adjacent_pairs(monkeypatch):
    calls = count_calls(monkeypatch, lccn, "ranges_overlap")
    m = load_stackmap(REFERENCE / "stackmap.csv")
    assert 0 < calls[0] <= len(m.shelves) - 1


def test_shelf_for_call_tests_at_most_one_range(monkeypatch, ref_stackmap, ref_corpus):
    calls = count_calls(monkeypatch, lccn, "in_range")
    probes = [rec.call_number for rec in ref_corpus.records.values()] + _OUTSIDE
    found = 0
    for cn in probes:
        calls[0] = 0
        found += shelf_for_call(cn, ref_stackmap) is not None
        assert calls[0] <= 1
    assert found


def _multi_cell_map() -> StackMap:
    """Small shelves, and long ones that each span several grid cells."""
    small = [Rect(20.0 * i, 0.0, 20.0 * i + 10.0, 10.0) for i in range(6)]
    long = [Rect(20.0 * i + 5.0, 20.0, 20.0 * i + 15.0, 100.0) for i in range(3)]
    return StackMap(shelves=[
        Shelf(n, rect, lccn.parse_range(f"PS{n}", f"PS{n}"))
        for n, rect in enumerate(small + long, start=1)
    ])


def test_one_query_tests_each_shelf_at_most_once(monkeypatch):
    m = _multi_cell_map()
    listed = Counter(m._members)
    assert max(listed.values()) >= 3  # some shelf is listed under three cells or more
    calls = count_calls(monkeypatch, Rect, "distance_to")
    assert len(ranges_for_location((50.0, 50.0), m, math.inf)) == len(m.shelves)
    assert calls[0] == len(m.shelves)
    for p in [(10.0, 60.0), (10.0, 20.0), (m._xs[1], m._ys[2]), (200.0, 200.0)]:
        for radius in (0.0, 7.5, 40.0):
            calls[0] = 0
            ranges_for_location(p, m, radius)
            assert calls[0] <= len(m.shelves)


def test_query_off_the_map_tests_no_shelf(monkeypatch, ref_stackmap):
    calls = count_calls(monkeypatch, Rect, "distance_to")
    extent = ref_stackmap.map_extent
    radius = 10.0
    # farther from the map than the radius plus one grid cell, which may reach past the map
    gap = radius + (ref_stackmap._xs[1] - ref_stackmap._xs[0]) + 1.0
    off = [
        (extent.x_min - gap, extent.y_min - gap),
        (extent.x_min - gap, (extent.y_min + extent.y_max) / 2),
        ((extent.x_min + extent.x_max) / 2, extent.y_max + gap),
        (extent.x_max + gap, extent.y_max + gap),
        (-1e300, 1e300),
    ]
    for p in off:
        assert ranges_for_location(p, ref_stackmap, radius) == []
    assert calls[0] == 0

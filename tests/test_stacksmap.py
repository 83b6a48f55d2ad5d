import math
import random

import pytest
from hypothesis import given
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
    assert len(load_stackmap(path)) == 2


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
    assert len(m) == 1
    assert len(m.diagnostics) == 1


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
    assert (d == 0.0) == rect.contains((x, y))
    assert d >= 0.0

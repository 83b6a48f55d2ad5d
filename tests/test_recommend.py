import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stackrec import lccn, stacksmap
from stackrec.corpus import BibRecord, CorpusStore, load_corpus
from stackrec.lccn import ClassificationOutline
from stackrec.recommend import (
    MAX_EBOOKS, MAX_ITEMS, Recommendation, Recommender, subject_query_from_range,
)
from stackrec.stacksmap import Rect, Shelf, StackMap

from conftest import REFERENCE, call_number, count_calls

HOTSPOT = (4362.047852, 3160.110596)
HOTSPOT_BIBS = ["uiu_8378456", "uiu_7072382", "hat_817483", "uiu_7277188", "uiu_8375583"]


def test_far_from_all_shelves_is_empty(ref_recommender):
    result = ref_recommender.recommend_near((2000.0, 2000.0))
    assert result.items == []
    assert result.ranges_used == []


def test_hotspot_row_reproduced(ref_recommender):
    result = ref_recommender.recommend_near(HOTSPOT)
    prints = [i for i in result.items if i.kind == "print"]
    assert [i.bib_id for i in prints] == HOTSPOT_BIBS
    # descending circulation scores
    scores = [i.score for i in prints]
    assert scores == sorted(scores, reverse=True)


def test_print_items_capped_at_five(ref_recommender):
    result = ref_recommender.recommend_near(HOTSPOT)
    prints = [i for i in result.items if i.kind == "print"]
    assert len(prints) == 5
    # uiu_9000001 (count 2) is in range but displaced by the cap
    assert "uiu_9000001" not in [i.bib_id for i in prints]


def test_range_soundness(ref_recommender):
    result = ref_recommender.recommend_near(HOTSPOT)
    for item in result.items:
        if item.call_number is not None:
            assert any(lccn.in_range(item.call_number, r) for r in result.ranges_used)


def test_database_suggestions_appended_after_books(ref_recommender):
    result = ref_recommender.recommend_near(HOTSPOT)
    kinds = [i.kind for i in result.items]
    assert kinds == sorted(kinds, key=lambda k: {"print": 0, "ebook": 1, "database": 2}[k])
    names = {i.name for i in result.items if i.kind == "database"}
    # majority journal for "American literature" plus the curated PS-range database
    assert "American Literary History" in names
    assert "Literature Online" in names


def test_majority_journal_share_scores(ref_recommender):
    result = ref_recommender.recommend_near(HOTSPOT)
    journal = next(i for i in result.items if i.name == "American Literary History")
    assert journal.score == pytest.approx(6 / 8)


def test_exact_half_share_is_not_a_majority(ref_corpus, ref_outline):
    # Philosophy articles split 5/10, 3/10, 2/10 across journals
    rec, centre = _one_shelf(ref_corpus, ref_outline, "B100", "B110")
    items = [i for i in rec.recommend_near(centre).items if i.kind == "database"]
    assert [i for i in items if i.name not in ("Literature Online", "America: History and Life")] == []


def test_unanimous_journal_scores_one(ref_outline, tmp_path):
    articles = tmp_path / "articles.csv"
    articles.write_text(
        "journal_title,article_title,subject\n"
        'Only Journal,"A","American literature"\n'
        'Only Journal,"B","American literature"\n',
        encoding="utf-8",
    )
    store = load_corpus(REFERENCE / "catalog.csv", articles_path=articles)
    rec, centre = _one_shelf(store, ref_outline, "PS3500", "PS3540")
    journal = next(i for i in rec.recommend_near(centre).items if i.name == "Only Journal")
    assert journal.score == 1.0


def test_ebook_shelved_nearby_is_suggested(ref_recommender):
    # PR85.C45 e-book surfaces for a patron at the PR shelf
    result = ref_recommender.recommend_near((155.0, 50.0))
    ebooks = [i for i in result.items if i.kind == "ebook"]
    assert "hat_606736" in [i.bib_id for i in ebooks]


def _one_shelf(store, outline, start, end):
    """A recommender over one shelf holding start..end, and the shelf's centre."""
    shelf = Shelf(1, Rect(0.0, 0.0, 10.0, 5.0), lccn.parse_range(start, end))
    return Recommender(StackMap([shelf]), store, outline, radius=0.0), shelf.bounds.center


def _store(rows):
    """A CorpusStore of (bib_id, call number, format, circulation count) rows."""
    recs = [BibRecord(bib_id, bib_id, lccn.parse(cn), fmt) for bib_id, cn, fmt, _ in rows]
    charges = Counter({bib_id: n for bib_id, _, _, n in rows if n})
    return CorpusStore({r.bib_id: r for r in recs}, charges, [], [])


def test_no_ebooks_in_range_is_empty(ref_corpus, ref_outline):
    rec, centre = _one_shelf(ref_corpus, ref_outline, "PZ5", "PZ90")
    kinds = [i.kind for i in rec.recommend_near(centre).items]
    assert "print" in kinds and "ebook" not in kinds


def test_ebook_suggestions_keep_only_ebooks(ref_outline):
    store = _store([
        ("uiu_1", "B4", "ebook", 9), ("uiu_2", "B2", "print", 3), ("uiu_3", "B3 .A1", "ebook", 0),
        ("uiu_4", "B1", "ebook", 2), ("uiu_5", "B3", "ebook", 0), ("uiu_6", "B5", "print", 1),
    ])
    rec, centre = _one_shelf(store, ref_outline, "B1", "B5")
    ebooks = [(i.bib_id, i.score) for i in rec.recommend_near(centre).items if i.kind == "ebook"]
    assert ebooks == [("uiu_4", 2.0), ("uiu_5", 0.0), ("uiu_3", 0.0)]


def test_popular_books_tie_break_and_zero_exclusion(ref_outline):
    store = _store([
        ("uiu_3", "B1", "print", 2), ("uiu_1", "B2", "print", 0), ("uiu_2", "B3", "print", 2),
        ("uiu_4", "B4", "print", 5), ("uiu_5", "B5", "ebook", 7),
    ])
    rec, centre = _one_shelf(store, ref_outline, "B1", "B5")
    prints = [(i.bib_id, i.score) for i in rec.recommend_near(centre).items if i.kind == "print"]
    assert prints == [("uiu_4", 5.0), ("uiu_2", 2.0), ("uiu_3", 2.0)]


def test_subject_query_head_term_reduction(ref_outline):
    assert subject_query_from_range(lccn.parse_range("B105", "B200"), ref_outline) == "Philosophy"
    assert (
        subject_query_from_range(lccn.parse_range("PR85", "PR90"), ref_outline)
        == "English literature"
    )
    assert (
        subject_query_from_range(lccn.parse_range("GV1469.15", "GV1469.62"), ref_outline)
        == "Computer games"
    )
    assert subject_query_from_range(lccn.parse_range("ZZ1", "ZZ9"), ref_outline) is None


def test_determinism_identical_bytes(ref_recommender):
    a = json.dumps(ref_recommender.recommend_near(HOTSPOT).to_dict(), sort_keys=True)
    b = json.dumps(ref_recommender.recommend_near(HOTSPOT).to_dict(), sort_keys=True)
    assert a == b


def test_wire_schema_shape(ref_recommender):
    payload = ref_recommender.recommend_near(HOTSPOT).to_dict()
    assert payload["v"] == 1
    assert set(payload["location"]) == {"x", "y"}
    assert all(set(r) == {"start", "end"} for r in payload["ranges"])
    for item in payload["items"]:
        assert item["kind"] in ("print", "ebook", "database")
        if item["kind"] in ("print", "ebook"):
            assert "bib_id" in item and "call_number" in item


# --- synthetic-store oracle equivalence ------------------------------------

def _synthetic_world(tmp_path, seed=17, n_records=500, n_shelves=25):
    from conftest import random_call_number

    rng = random.Random(seed)
    rows = ["bib_id,title,call_number,format"]
    records = []
    seen = set()
    while len(records) < n_records:
        cn = random_call_number(rng)
        if cn.suffix:
            continue
        text = lccn.canonical_format(cn)
        if text in seen:
            continue
        seen.add(text)
        idx = len(records) + 1
        fmt = "ebook" if rng.random() < 0.15 else "print"
        records.append((f"uiu_{idx}", cn, fmt))
        rows.append(f'uiu_{idx},"Title {idx}","{text}",{fmt}')
    catalog = tmp_path / "catalog.csv"
    catalog.write_text("\n".join(rows) + "\n", encoding="utf-8")

    circ_rows = ["bib_id,charge_date"]
    counts = {}
    for bib_id, _cn, fmt in records:
        if fmt == "print" and rng.random() < 0.7:
            n = rng.randint(1, 30)
            counts[bib_id] = n
            circ_rows += [f"{bib_id},2017-01-01T00:00:00"] * n
    circulation = tmp_path / "circulation.csv"
    circulation.write_text("\n".join(circ_rows) + "\n", encoding="utf-8")
    store = load_corpus(catalog, circulation)

    ordered = sorted(records, key=lambda r: r[1].sort_key())
    per = len(ordered) // n_shelves
    shelves = []
    for i in range(n_shelves):
        chunk = ordered[i * per : (i + 1) * per]
        if not chunk:
            continue
        x0 = (i % 5) * 60.0
        y0 = (i // 5) * 40.0
        shelves.append(
            Shelf(
                shelf_number=i + 1,
                bounds=Rect(x0, y0, x0 + 30.0, y0 + 15.0),
                range=lccn.CallNumberRange(chunk[0][1], chunk[-1][1]),
            )
        )
    return store, StackMap(shelves=shelves)


def _brute_force(store, stack, radius, p):
    """Independent pipeline: brute-force distances, full catalog scan, count
    sort, cap.  The nearby ranges, then (bib_id, score) of the prints and of
    the e-books."""
    near = sorted(
        (s for s in stack.shelves if s.bounds.distance_to(p) <= radius),
        key=lambda s: (s.bounds.distance_to(p), s.shelf_number),
    )
    ranges = [s.range for s in near]
    in_any = [
        r for r in store.records.values() if any(lccn.in_range(r.call_number, rr) for rr in ranges)
    ]
    prints = [
        (r.bib_id, float(store.circulation_count(r.bib_id)))
        for r in in_any
        if r.format == "print" and store.circulation_count(r.bib_id) > 0
    ]
    prints.sort(key=lambda pair: (-pair[1], pair[0]))
    ebooks = sorted(
        (r for r in in_any if r.format == "ebook"),
        key=lambda r: (r.call_number.sort_key(), r.bib_id),
    )
    return ranges, prints[:5], [(r.bib_id, float(store.circulation_count(r.bib_id))) for r in ebooks[:3]]


def _answered(result):
    """(bib_id, score) of the prints and of the e-books in a RecommendationSet."""
    return tuple(
        [(i.bib_id, i.score) for i in result.items if i.kind == kind] for kind in ("print", "ebook")
    )


def test_recommend_near_matches_brute_force_pipeline(tmp_path, ref_outline):
    store, stack = _synthetic_world(tmp_path)
    radius = 35.0
    rec = Recommender(stack, store, ref_outline, radius=radius)
    rng = random.Random(3)

    for _ in range(50):
        p = (rng.uniform(-30, 330), rng.uniform(-30, 230))
        result = rec.recommend_near(p)
        ranges, prints, ebooks = _brute_force(store, stack, radius, p)
        assert result.ranges_used == ranges
        assert _answered(result) == (prints, ebooks)


# Records for a row of adjacent shelves: few distinct call numbers, so that
# records share call numbers and circulation counts tie, and as many e-books
# as prints.  Every call number has a year, so no range end is a class prefix
# and cutting the sorted records between distinct call numbers gives ranges
# that do not overlap.
_TIED_RECORDS = st.lists(
    st.tuples(
        st.builds(
            call_number,
            letters=st.just("B"),
            class_int=st.integers(1, 4),
            cutters=st.sampled_from([(), (("A", "1"),), (("C", "2"),)]),
            year=st.integers(1990, 1991),
        ),
        st.sampled_from(["print", "ebook"]),
        st.integers(0, 2),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=60, deadline=None)
@given(
    records=_TIED_RECORDS,
    cuts=st.sets(st.integers(1, 15)),
    radius=st.sampled_from([0.0, 3.0, 12.0, 25.0]),
    points=st.lists(st.tuples(st.floats(-20, 180), st.floats(-10, 15)), min_size=1, max_size=12),
)
def test_warmed_recommender_matches_brute_force_with_ties(records, cuts, radius, points, ref_outline):
    recs = [BibRecord(f"uiu_{i}", f"T{i}", cn, fmt) for i, (cn, fmt, _) in enumerate(records)]
    charges = Counter({f"uiu_{i}": n for i, (_, _, n) in enumerate(records) if n})
    store = CorpusStore({r.bib_id: r for r in recs}, charges, [], [])
    keys = sorted({r.call_number.sort_key(): r.call_number for r in recs}.items())
    bounds = [0] + sorted(c for c in cuts if c < len(keys)) + [len(keys)]
    shelves = [
        Shelf(n + 1, Rect(n * 10.0, 0.0, n * 10.0 + 8.0, 5.0),
              lccn.CallNumberRange(keys[lo][1], keys[hi - 1][1]))
        for n, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
    ]
    stack = StackMap(shelves)
    rec = Recommender(stack, store, ref_outline, radius=radius)
    for p in points + points:  # the second pass answers from summaries built in the first
        ranges, prints, ebooks = _brute_force(store, stack, radius, p)
        result = rec.recommend_near(p)
        assert result.ranges_used == ranges
        assert _answered(result) == (prints, ebooks)


def test_monotone_popularity(tmp_path, ref_outline):
    store, stack = _synthetic_world(tmp_path, seed=23)
    rec = Recommender(stack, store, ref_outline, radius=35.0)
    rng = random.Random(8)
    for _ in range(20):
        p = (rng.uniform(0, 300), rng.uniform(0, 200))
        before = rec.recommend_near(p)
        prints = [i for i in before.items if i.kind == "print"]
        if not prints:
            continue
        target = prints[-1]
        boosted = CorpusStore(
            records=store.records,
            charges=store.charges + type(store.charges)({target.bib_id: 100}),
            articles=store.articles,
            databases=store.databases,
        )
        rec2 = Recommender(stack, boosted, ref_outline, radius=35.0)
        after = rec2.recommend_near(p)
        after_prints = [i.bib_id for i in after.items if i.kind == "print"]
        assert target.bib_id in after_prints
        assert after_prints.index(target.bib_id) <= [
            i.bib_id for i in prints
        ].index(target.bib_id)


# --- the per-range journal memo ------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_warmed_recommender_answers_as_a_fresh_one(data, ref_stackmap, ref_corpus, ref_outline):
    centers = [s.bounds.center for s in ref_stackmap.shelves] + [HOTSPOT]
    extent = ref_stackmap.map_extent
    point = st.sampled_from(centers) | st.tuples(
        st.floats(extent.x_min - 50, extent.x_max + 50), st.floats(extent.y_min - 50, extent.y_max + 50)
    )
    warm_up = data.draw(st.lists(point, max_size=20))
    probes = data.draw(st.lists(point, min_size=1, max_size=10))
    warmed = Recommender(ref_stackmap, ref_corpus, ref_outline, radius=25.0)
    for p in warm_up + probes:
        warmed.recommend_near(p)
    for p in probes:
        fresh = Recommender(ref_stackmap, ref_corpus, ref_outline, radius=25.0)
        assert warmed.recommend_near(p).to_dict() == fresh.recommend_near(p).to_dict()


def test_recommend_near_scans_each_range_once(monkeypatch, tmp_path, ref_outline):
    store, stack = _synthetic_world(tmp_path)
    scanned = count_calls(monkeypatch, CorpusStore, "books_in_range")
    rec = Recommender(stack, store, ref_outline, radius=35.0)
    rng = random.Random(5)
    points = [(rng.uniform(-30, 330), rng.uniform(-30, 230)) for _ in range(30)]
    seen = set()
    sizes = []
    for p in points:
        before = scanned[0]
        ranges = rec.recommend_near(p).ranges_used
        assert scanned[0] - before == len(set(ranges) - seen)
        seen.update(ranges)
        sizes.append(len(ranges))
    assert max(sizes) > 1
    assert scanned[0] == len(seen)
    for p in points:
        rec.recommend_near(p)
    assert scanned[0] == len(seen)


def test_second_request_at_a_point_classifies_nothing(monkeypatch, ref_stackmap, ref_corpus, ref_outline):
    classified = count_calls(monkeypatch, ClassificationOutline, "classify")
    searched = count_calls(monkeypatch, CorpusStore, "article_search")
    rec = Recommender(ref_stackmap, ref_corpus, ref_outline, radius=25.0)
    first = rec.recommend_near(HOTSPOT)
    assert classified[0] > 0 and searched[0] > 0
    classified[0] = searched[0] = 0
    assert rec.recommend_near(HOTSPOT).to_dict() == first.to_dict()
    assert classified[0] == searched[0] == 0


def test_warmed_recommend_near_builds_and_counts_nothing(monkeypatch, ref_stackmap, ref_corpus,
                                                          ref_outline):
    rec = Recommender(ref_stackmap, ref_corpus, ref_outline, radius=25.0)
    points = [s.bounds.center for s in ref_stackmap.shelves] + [HOTSPOT]
    first = [rec.recommend_near(p).to_dict() for p in points]
    built = count_calls(monkeypatch, Recommendation, "__init__")
    counted = count_calls(monkeypatch, CorpusStore, "circulation_count")
    assert [rec.recommend_near(p).to_dict() for p in points] == first
    assert built[0] == counted[0] == 0


def test_summaries_stay_bounded_by_the_map(ref_stackmap, ref_corpus, ref_outline):
    rec = Recommender(ref_stackmap, ref_corpus, ref_outline, radius=25.0)
    for shelf in ref_stackmap.shelves:
        rec.recommend_near(shelf.bounds.center)
    assert set(rec._summaries) <= {s.range for s in ref_stackmap.shelves}
    for summary in rec._summaries.values():
        assert len(summary.prints) <= MAX_ITEMS and len(summary.ebooks) <= MAX_EBOOKS

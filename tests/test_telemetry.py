import csv
import json
import math
import random
import tempfile
from collections import Counter
from datetime import datetime, timedelta, timezone
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stackrec import telemetry
from stackrec.gateway import MODULES, ApiLogEntry, Gateway, TransactionLog
from stackrec.stacksmap import Rect
from stackrec.telemetry import (
    GridSpec,
    SubjectDistribution,
    TooFewRanks,
    annotate,
    fit_power_law,
    heatmap_points,
    mine_queries,
    parse_logs,
    subject_distribution,
    time_series,
    tokenize,
    trace_identifier,
)

from conftest import (
    exact_fit_power_law,
    reference_fit_power_law,
    reference_heatmap_points,
    reference_pgm_rows,
)


def _entry(module="recommend", uri="/api/recommend/popularnear?x=1&y=2", ts="2016-09-01T10:00:00",
           params=None, status=200, bib_ids=()):
    return ApiLogEntry(
        timestamp=datetime.fromisoformat(ts), module=module, uri=uri,
        params=params if params is not None else {"x": "1", "y": "2"},
        status=status, bib_ids=tuple(bib_ids),
    )


# --- parse_logs ------------------------------------------------------------

def test_parse_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    parsed = parse_logs([path])
    assert parsed.entries == []
    assert parsed.malformed == []


def test_parse_reports_corrupt_lines(tmp_path):
    path = tmp_path / "log.jsonl"
    lines = [_entry(ts=f"2016-09-01T10:00:{i:02d}").to_json() for i in range(10)]
    lines.insert(5, "{corrupt")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    parsed = parse_logs([path])
    assert len(parsed.entries) == 10
    assert len(parsed.malformed) == 1
    assert parsed.malformed[0][1] == 6


def test_parse_round_trips_gateway_log(ref_stackmap, ref_corpus, ref_outline, tmp_path):
    txn_log = TransactionLog(tmp_path / "api.jsonl")
    gw = Gateway(ref_stackmap, ref_corpus, ref_outline, txn_log)
    gw.handle_map_data("uiu_undergrad", "uiu_8127460")
    gw.handle_popular_near("4362.047852", "3160.110596")
    txn_log.close()
    parsed = parse_logs([txn_log.path])
    assert len(parsed.entries) == 2
    assert not parsed.malformed
    assert parsed.entries[0].module is MODULES[0]  # the constant, not a copy per line


def test_parse_merges_ordered_by_timestamp(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    a.write_text(_entry(ts="2016-10-01T00:00:00").to_json() + "\n", encoding="utf-8")
    b.write_text(_entry(ts="2016-09-01T00:00:00").to_json() + "\n", encoding="utf-8")
    parsed = parse_logs([a, b])
    assert [e.timestamp.isoformat() for e in parsed.entries] == [
        "2016-09-01T00:00:00", "2016-10-01T00:00:00",
    ]


def test_parse_orders_naive_and_offset_stamps_by_instant(tmp_path):
    # the simulated clock writes naive stamps, read as UTC; the live clock writes offsets
    simulated = ["2016-09-01T10:00:00", "2016-09-01T12:00:00"]
    live = ["2016-09-01T11:30:00+02:00", "2016-09-01T11:00:00+00:00", "2016-09-01T07:30:00-05:00"]
    for name, stamps in (("sim.jsonl", simulated), ("live.jsonl", live)):
        (tmp_path / name).write_text(
            "".join(_entry(ts=ts).to_json() + "\n" for ts in stamps), encoding="utf-8"
        )
    parsed = parse_logs([tmp_path / "sim.jsonl", tmp_path / "live.jsonl"])
    assert [e.timestamp.isoformat() for e in parsed.entries] == [
        "2016-09-01T11:30:00+02:00",   # 09:30 UTC
        "2016-09-01T10:00:00",
        "2016-09-01T11:00:00+00:00",
        "2016-09-01T12:00:00",
        "2016-09-01T07:30:00-05:00",   # 12:30 UTC
    ]


_ZONES = st.sampled_from([None, timezone.utc, timezone(timedelta(hours=2)), timezone(timedelta(hours=-5))])
_STAMPS = st.datetimes(
    min_value=datetime(2016, 8, 30), max_value=datetime(2016, 9, 2), timezones=_ZONES
).map(datetime.isoformat)


@settings(max_examples=100, deadline=None)
@given(files=st.lists(st.lists(_STAMPS, max_size=6), min_size=1, max_size=3))
def test_parse_merge_is_ordered_by_instant_then_file_then_line(files):
    def since_epoch(stamp: str) -> timedelta:  # a naive stamp is UTC
        moment = datetime.fromisoformat(stamp)
        offset = moment.utcoffset() or timedelta(0)
        return moment.replace(tzinfo=None) - offset - datetime(1970, 1, 1)

    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, stamps in enumerate(files):
            paths.append(Path(tmp) / f"{i}.jsonl")
            paths[-1].write_text(
                "".join(_entry(ts=ts, uri=f"/f{i}/l{n}").to_json() + "\n" for n, ts in enumerate(stamps)),
                encoding="utf-8",
            )
        parsed = parse_logs(paths)
    expected = sorted(
        ((since_epoch(ts), i, n) for i, stamps in enumerate(files) for n, ts in enumerate(stamps))
    )
    assert [e.uri for e in parsed.entries] == [f"/f{i}/l{n}" for _, i, n in expected]


@pytest.mark.parametrize(
    "line",
    ["[1]", "null", '"s"', "3.5", '{"timestamp": 5, "module": "recommend", "uri": "/x", "status": 200}',
     '{"timestamp": "2016-09-01T10:00:00", "module": "catalog", "uri": "/x", "status": 200, '
     '"params": {"q": 5}}',
     '{"timestamp": "2016-09-01T10:00:00", "module": "recommend", "uri": "/x", "status": "200"}',
     '{"timestamp": "last tuesday", "module": "recommend", "uri": "/x", "status": 200}',
     '{"timestamp": "2016-09-01T10:00:00", "module": "display", "uri": "/x", "status": 200, '
     '"bib_ids": "uiu_1"}',
     pytest.param("[" * 50_000, id="nested-past-the-recursion-limit"),
     # a lone surrogate, which no writer can encode as UTF-8, in a uri, a param and a bib id
     r'{"timestamp": "2016-09-01T10:00:00", "module": "wayfinder", '
     r'"uri": "/api/wayfinder/map_data/uiu_undergrad/\ud800", "status": 404}',
     r'{"timestamp": "2016-09-01T10:00:00", "module": "catalog", "uri": "/x", "status": 200, '
     r'"params": {"q": "\udc00x"}}',
     r'{"timestamp": "2016-09-01T10:00:00", "module": "wayfinder", "uri": "/x", "status": 200, '
     r'"bib_ids": ["uiu_\uDBFF"]}'],
)
def test_parse_counts_non_entry_json_as_malformed(tmp_path, line):
    path = tmp_path / "log.jsonl"
    path.write_text(_entry().to_json() + "\n" + line + "\n", encoding="utf-8")
    parsed = parse_logs([path])
    assert len(parsed.entries) == 1
    assert [line_no for _, line_no, _ in parsed.malformed] == [2]


def test_parse_keeps_an_escaped_surrogate_pair(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text(
        r'{"timestamp": "2016-09-01T10:00:00", "module": "catalog", "uri": "/x", "status": 200, '
        r'"params": {"q": "\ud83d\ude00"}}' + "\n", encoding="utf-8")
    parsed = parse_logs([path])
    assert not parsed.malformed
    assert parsed.entries[0].params == {"q": "\U0001f600"}


def test_parse_counts_undecodable_line_as_malformed(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_bytes(b'{"timestamp": "\xff"}\n' + _entry().to_json().encode() + b"\n")
    parsed = parse_logs([path])
    assert len(parsed.entries) == 1
    assert parsed.malformed[0][1] == 1


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
# text that may hold lone surrogates, which json.dumps writes as \ud800-style escapes
_TEXT = st.text(
    st.characters(blacklist_categories=())
    | st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF, blacklist_categories=()),
    max_size=6,
)
_FIELDS = st.fixed_dictionaries({
    "timestamp": st.datetimes().map(lambda d: d.isoformat()),
    "module": st.sampled_from(["recommend", "wayfinder", "catalog"]),
    "uri": st.just("/api/x"),
    "params": st.dictionaries(st.sampled_from(["x", "y", "q"]), _TEXT, max_size=3),
    "status": st.just(200),
    "bib_ids": st.lists(st.sampled_from(["uiu_8127460", "uiu_0"]) | _TEXT, max_size=3),
})
# a well-formed entry with one field replaced by any JSON value, or dropped
_MUTATED = st.builds(
    lambda fields, name, value, drop: {
        **{k: v for k, v in fields.items() if not (drop and k == name)},
        **({} if drop else {name: value}),
    },
    _FIELDS,
    st.sampled_from(["timestamp", "module", "uri", "params", "status", "bib_ids"]),
    _JSON,
    st.booleans(),
)
_LINE = st.one_of(
    _FIELDS.map(json.dumps),
    _MUTATED.map(json.dumps),
    _JSON.map(json.dumps),
    st.text(alphabet=st.characters(blacklist_characters="\n", blacklist_categories=("Cs",)), max_size=30),
).map(str.encode) | st.binary(max_size=30).map(lambda b: b.replace(b"\n", b""))


@settings(max_examples=100, deadline=None)
@given(st.lists(_LINE, max_size=8))
def test_fuzz_parse_logs_never_raises_and_accounts_for_every_line(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.jsonl"
        path.write_bytes(b"".join(line + b"\n" for line in lines))
        parsed = parse_logs([path])
    assert len(parsed.entries) + len(parsed.malformed) == sum(1 for line in lines if line.strip())
    for e in parsed.entries:  # every string an entry holds can be written as UTF-8
        "".join([e.module, e.uri, *e.params, *e.params.values(), *e.bib_ids]).encode("utf-8")
    # what parsed cleanly flows through the batch analyses
    for module in MODULES:
        time_series(parsed.entries, module)
    mine_queries(parsed.entries, "catalog")
    trace_identifier("uiu_8127460", parsed.entries)
    heatmap_points(
        [p for e in parsed.entries if (p := telemetry.request_point(e.params))],
        GridSpec(0.0, 0.0, 10.0, 4, 4),
    )


# --- annotate --------------------------------------------------------------

def test_annotate_joins_call_numbers_and_subjects(ref_corpus, ref_outline):
    entries = [_entry(bib_ids=["uiu_8127460", "uiu_7734446"])]
    annotated = annotate(entries, ref_corpus, ref_outline)
    a = annotated[0].annotations
    assert a[0].call_number == "PN1995 .C655 2015"
    assert a[1].subject == "Computer games. Video games. Fantasy games"


def test_entries_and_annotations_have_no_dict(ref_corpus, ref_outline):
    annotated = annotate([_entry(bib_ids=["uiu_8127460"])], ref_corpus, ref_outline)[0]
    for value in (annotated, annotated.entry, annotated.annotations[0]):
        assert not hasattr(value, "__dict__")


def test_annotate_unknown_bib(ref_corpus, ref_outline):
    annotated = annotate([_entry(bib_ids=["uiu_0"])], ref_corpus, ref_outline)
    assert annotated[0].annotations[0].subject == telemetry.UNKNOWN
    assert annotated[0].annotations[0].call_number is None


def test_annotate_no_bibs_empty_annotations(ref_corpus, ref_outline):
    annotated = annotate([_entry(bib_ids=[])], ref_corpus, ref_outline)
    assert annotated[0].annotations == ()


def test_annotate_xy_from_params(ref_corpus, ref_outline):
    annotated = annotate([_entry(params={"x": "12.5", "y": "7.25"})], ref_corpus, ref_outline)
    assert (annotated[0].x, annotated[0].y) == (12.5, 7.25)


@pytest.mark.parametrize("x, y", [("nan", "1"), ("1", "inf"), ("-Infinity", "2"), ("abc", "2")])
def test_annotate_skips_point_that_is_not_finite(ref_corpus, ref_outline, x, y):
    annotated = annotate([_entry(params={"x": x, "y": y})], ref_corpus, ref_outline)
    assert (annotated[0].x, annotated[0].y) == (None, None)
    grid = telemetry.heatmap(annotated, GridSpec(0.0, 0.0, 10.0, 2, 2))
    assert grid.total_mass == 0 and grid.out_of_extent == 0


def test_annotate_xy_from_shelf_target(ref_corpus, ref_outline, ref_stackmap):
    entry = _entry(
        module="wayfinder",
        uri="/api/wayfinder/map_data/uiu_undergrad/uiu_8127460",
        params={"collection": "uiu_undergrad", "bib_id": "uiu_8127460"},
        bib_ids=["uiu_8127460"],
    )
    annotated = annotate([entry], ref_corpus, ref_outline, ref_stackmap)
    assert (round(annotated[0].x), round(annotated[0].y)) == (337, 128)
    assert annotated[0].shelf_number == 30


# --- heatmap ---------------------------------------------------------------

def test_bin_mode_identical_points():
    spec = GridSpec(0, 0, 10, 5, 5)
    grid = heatmap_points([(12, 12)] * 3, spec, "bin")
    assert grid.values[1][1] == 3
    assert grid.total_mass == 3


def test_mass_conservation_both_modes():
    rng = random.Random(1)
    points = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(200)]
    spec = GridSpec(0, 0, 5, 20, 20)
    assert heatmap_points(points, spec, "bin").total_mass == 200
    smooth = heatmap_points(points, spec, "gaussian", sigma=7.0)
    assert smooth.total_mass == pytest.approx(200, abs=1e-9)


def test_bin_mode_matches_counting_oracle():
    rng = random.Random(2)
    points = [(rng.uniform(-10, 110), rng.uniform(-10, 110)) for _ in range(200)]
    spec = GridSpec(0, 0, 10, 10, 10)
    grid = heatmap_points(points, spec, "bin")
    expected = [[0] * 10 for _ in range(10)]
    outside = 0
    for x, y in points:
        col, row = int(math.floor(x / 10)), int(math.floor(y / 10))
        if 0 <= col < 10 and 0 <= row < 10:
            expected[row][col] += 1
        else:
            outside += 1
    assert grid.values.tolist() == expected
    assert grid.out_of_extent == outside
    assert grid.total_mass + outside == 200


def test_translation_equivariance():
    rng = random.Random(3)
    points = [(rng.uniform(0, 50), rng.uniform(0, 50)) for _ in range(100)]
    dx, dy = 1000.0, -500.0
    a = heatmap_points(points, GridSpec(0, 0, 5, 10, 10), "bin")
    b = heatmap_points(
        [(x + dx, y + dy) for x, y in points], GridSpec(dx, dy, 5, 10, 10), "bin"
    )
    assert a.values == b.values


def test_gaussian_requires_sigma():
    with pytest.raises(ValueError):
        heatmap_points([(1, 1)], GridSpec(0, 0, 1, 5, 5), "gaussian")


@pytest.mark.parametrize("cell_size", [0, -1.0, float("nan")])
def test_covering_rejects_a_cell_size_not_positive(cell_size):
    with pytest.raises(ValueError, match="cell size must be > 0"):
        GridSpec.covering(Rect(0, 0, 10, 10), cell_size)


def _extent(x_min, y_min, x_max, y_max):
    # As cli.cmd_heatmap sizes a grid from logged points: no Rect checks.
    return SimpleNamespace(x_min=x_min, y_min=y_min, x_max=x_max, y_max=y_max)


@pytest.mark.parametrize("extent, cell_size", [
    (_extent(-1.7e308, 0, 1.7e308, 10), 10),  # a side too long to count
    (_extent(0, 0, 1e7, 1e7), 10),  # 10**12 cells
    (_extent(0, 0, 10, 10), 1e-300),
], ids=["infinite-side", "span-1e7", "cell-1e-300"])
def test_covering_refuses_a_grid_too_big_to_hold(extent, cell_size):
    with pytest.raises(ValueError, match=r"cells is more than 10,000,000 cells"):
        GridSpec.covering(extent, cell_size, margin=cell_size)


def test_covering_allows_exactly_the_largest_grid():
    assert telemetry.MAX_GRID_CELLS == 10_000_000
    spec = GridSpec.covering(Rect(0, 0, 10_000, 1_000), 1)
    assert spec.width * spec.height == telemetry.MAX_GRID_CELLS
    with pytest.raises(ValueError, match="of 10000.1 x 1000 cells"):
        GridSpec.covering(Rect(0, 0, 10_000.1, 1_000), 1)


# --- subject distribution --------------------------------------------------

def test_subject_distribution_counts(ref_corpus, ref_outline):
    # 3 American-lit + 2 English-lit + 1 games item
    entries = [
        _entry(bib_ids=["uiu_8378456", "uiu_7072382", "hat_817483"]),
        _entry(bib_ids=["hat_606736", "uiu_5180498"]),
        _entry(bib_ids=["uiu_7734446"]),
    ]
    dist = subject_distribution(annotate(entries, ref_corpus, ref_outline))
    assert dist.items == [
        ("American literature", 3),
        ("Computer games. Video games. Fantasy games", 1),
        ("English literature", 1),
        ("English literature: Provincial, local, etc.", 1),
    ]


def test_subject_distribution_empty():
    assert subject_distribution([]).items == []


def test_subject_distribution_conservation(ref_corpus, ref_outline):
    entries = [
        _entry(bib_ids=["uiu_8378456", "uiu_0", "uiu_7734446"]),
        _entry(bib_ids=["uiu_999999"]),
    ]
    annotated = annotate(entries, ref_corpus, ref_outline)
    dist = subject_distribution(annotated)
    occurrences = sum(len(a.annotations) for a in annotated)
    assert dist.total + dist.unknown == occurrences
    assert dist.unknown == 2


def test_subject_distribution_per_request(ref_corpus, ref_outline):
    entries = [_entry(bib_ids=["uiu_8378456", "uiu_7072382"])]
    annotated = annotate(entries, ref_corpus, ref_outline)
    assert subject_distribution(annotated).items == [("American literature", 2)]
    assert subject_distribution(annotated, per_request=True).items == [
        ("American literature", 1)
    ]


# --- power-law fit ---------------------------------------------------------

def test_fit_analytic_power_law():
    counts = [100.0 * r ** -1.0 for r in range(1, 11)]
    fit = fit_power_law(counts)
    assert fit.exponent == pytest.approx(-1.0, abs=1e-6)
    assert fit.r_squared >= 0.999999


def test_fit_uniform_counts():
    fit = fit_power_law([7, 7, 7, 7])
    assert fit.exponent == pytest.approx(0.0, abs=1e-9)
    assert fit.r_squared == 1.0


def test_fit_too_few_ranks():
    with pytest.raises(TooFewRanks):
        fit_power_law([5, 3])


def test_fit_scale_invariance():
    counts = [90, 44, 31, 22, 18, 11, 9, 6, 4, 2]
    a = fit_power_law(counts)
    b = fit_power_law([c * 17 for c in counts])
    assert a.exponent == pytest.approx(b.exponent)
    assert a.r_squared == pytest.approx(b.r_squared)


def test_fit_accepts_distribution_object():
    dist = SubjectDistribution([("a", 100), ("b", 50), ("c", 33), ("d", 25)])
    fit = fit_power_law(dist)
    assert fit.exponent < 0


# --- identifier tracing ----------------------------------------------------

def test_trace_absent_everywhere():
    counts = trace_identifier("uiu_1", [_entry(bib_ids=["uiu_2"])])
    assert set(counts.values()) == {0}


def test_trace_counts_per_module():
    entries = [
        _entry(module="wayfinder", uri="/w", params={}, bib_ids=["uiu_1"]),
        _entry(module="wayfinder", uri="/w", params={}, bib_ids=["uiu_1", "uiu_2"]),
        _entry(module="display", uri="/d", params={}, bib_ids=["uiu_1"]),
    ]
    counts = trace_identifier("uiu_1", entries)
    assert counts["wayfinder"] == 2
    assert counts["display"] == 1
    assert counts["recommend"] == 0


def test_trace_matches_scan_oracle():
    rng = random.Random(4)
    modules = ["catalog", "display", "wayfinder", "recommend", "hoot", "account", "citation", "topicspace"]
    entries = [
        _entry(
            module=rng.choice(modules),
            uri="/m",
            params={},
            bib_ids=[f"uiu_{rng.randint(1, 5)}" for _ in range(rng.randint(0, 3))],
        )
        for _ in range(300)
    ]
    for bib in ("uiu_1", "uiu_3", "uiu_9"):
        expected = Counter(e.module for e in entries if bib in e.bib_ids)
        got = trace_identifier(bib, entries)
        assert all(got[m] == expected.get(m, 0) for m in got)


# --- query mining ----------------------------------------------------------

def test_mine_definition_example():
    entries = [_entry(module="journal", uri="/j", params={"q": "fish fish google"})]
    stats = mine_queries(entries, "journal")
    assert stats.total_words == 3
    assert stats.unique_forms == 2
    assert stats.top == [("fish", 2), ("google", 1)]


def test_mine_empty_module():
    stats = mine_queries([_entry(module="catalog", uri="/c", params={"q": "x"})], "journal")
    assert (stats.total_words, stats.unique_forms, stats.top) == (0, 0, [])


def test_tokenize_strips_edge_punctuation_and_lowercases():
    assert tokenize('Fish, "GOOGLE!" (math)') == ["fish", "google", "math"]


def test_mine_matches_counting_oracle():
    rng = random.Random(12)
    words = ["fish", "google", "math", "test", "hiv", "trio", "focus"]
    entries = []
    oracle = Counter()
    for _ in range(1000):
        q = " ".join(rng.choices(words, k=rng.randint(1, 4)))
        oracle.update(q.split())
        entries.append(_entry(module="catalog", uri="/c", params={"q": q}))
    stats = mine_queries(entries, "catalog")
    assert stats.total_words == sum(oracle.values())
    assert stats.unique_forms == len(oracle)
    assert stats.top == sorted(oracle.items(), key=lambda kv: (-kv[1], kv[0]))[:5]


# --- monthly series --------------------------------------------------------

def test_single_month_bucket():
    entries = [_entry(module="catalog", uri="/c", params={}, ts="2016-09-10T00:00:00")] * 3
    assert time_series(entries, "catalog") == [("2016-09", 3)]


def test_study_window_spans_twelve_buckets():
    entries = [
        _entry(module="catalog", uri="/c", params={}, ts="2016-09-01T00:00:00"),
        _entry(module="catalog", uri="/c", params={}, ts="2017-08-31T23:00:00"),
    ]
    series = time_series(entries, "catalog")
    assert len(series) == 12
    assert series[0] == ("2016-09", 1)
    assert series[-1] == ("2017-08", 1)
    assert all(count == 0 for _, count in series[1:-1])


def test_monthly_matches_calendar_oracle():
    rng = random.Random(13)
    entries = []
    oracle = Counter()
    for _ in range(300):
        month = rng.randint(1, 12)
        day = rng.randint(1, 28)
        ts = f"2017-{month:02d}-{day:02d}T12:00:00"
        oracle[f"2017-{month:02d}"] += 1
        entries.append(_entry(module="journal", uri="/j", params={}, ts=ts))
    series = dict(time_series(entries, "journal"))
    assert series == {f"2017-{m:02d}": oracle.get(f"2017-{m:02d}", 0) for m in
                      range(min(int(k[5:]) for k in oracle), max(int(k[5:]) for k in oracle) + 1)}


def test_empty_module_slice_is_empty_series():
    assert time_series([], "catalog") == []


_MONTH_STAMPS = st.one_of(
    st.datetimes(min_value=datetime(2014, 11, 1), max_value=datetime(2018, 2, 28), timezones=_ZONES),
    # within hours of a month's start, where its UTC instant may fall in another month
    st.builds(lambda year, month, zone, hours: datetime(year, month, 1, tzinfo=zone) + timedelta(hours=hours),
              st.integers(2015, 2017), st.integers(1, 12), _ZONES, st.integers(-6, 6)),
).map(datetime.isoformat)


@settings(max_examples=200, deadline=None)
@given(st.lists(_MONTH_STAMPS, max_size=30))
def test_time_series_counts_each_stamp_in_its_own_calendar_month(stamps):
    # oracle: the stamp text's YYYY-MM, counted, then zero-filled from first to last month
    counts = Counter(stamp[:7] for stamp in stamps)
    expected = []
    if counts:
        year, month = map(int, min(counts).split("-"))
        while (label := f"{year:04d}-{month:02d}") <= max(counts):
            expected.append((label, counts[label]))
            year, month = (year + 1, 1) if month == 12 else (year, month + 1)
    entries = [_entry(module="catalog", uri="/c", params={}, ts=stamp) for stamp in stamps]
    entries += [_entry(module="journal", uri="/j", params={})]  # another module's entry counts nowhere
    assert time_series(entries, "catalog") == expected


# --- output writers --------------------------------------------------------

def test_grid_csv_and_pgm_outputs(tmp_path):
    grid = heatmap_points([(5, 5), (5, 5), (25, 25)], GridSpec(0, 0, 10, 3, 3), "bin")
    csv_path = tmp_path / "grid.csv"
    pgm_path = tmp_path / "grid.pgm"
    telemetry.write_grid_csv(grid, csv_path)
    telemetry.write_grid_pgm(grid, pgm_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("#")
    assert len(lines) == 4
    pgm = pgm_path.read_text().splitlines()
    assert pgm[0] == "P2"
    assert pgm[1] == "3 3"


def test_annotated_tables_mirror_wire_shapes(ref_corpus, ref_outline, ref_stackmap, tmp_path):
    way = _entry(
        module="wayfinder",
        uri="/api/wayfinder/map_data/uiu_undergrad/uiu_8127460",
        params={"collection": "uiu_undergrad", "bib_id": "uiu_8127460"},
        bib_ids=["uiu_8127460"],
    )
    rec = _entry(
        uri="/api/recommend/popularnear?x=4362.047852&y=3160.110596",
        params={"x": "4362.047852", "y": "3160.110596"},
        bib_ids=["uiu_8378456", "uiu_7072382", "hat_817483", "uiu_7277188", "uiu_8375583"],
    )
    annotated = annotate([way, way, rec], ref_corpus, ref_outline, ref_stackmap)
    t1 = tmp_path / "wayfinder.csv"
    t2 = tmp_path / "recommend.csv"
    telemetry.write_wayfinder_table(annotated, t1)
    telemetry.write_recommend_table(annotated, t2)

    lines = t1.read_text().splitlines()
    assert lines[0] == "uri,sum-records,X,Y,shelf-number,call-number"
    assert lines[1] == (
        '"/api/wayfinder/map_data/uiu_undergrad/uiu_8127460",2,337,128,30,"PN1995 .C655 2015"'
    )

    lines = t2.read_text().splitlines()
    assert lines[0] == "uri,bib-id,bib-id,bib-id,bib-id,bib-id"
    assert lines[1] == (
        '"/api/recommend/popularnear?x=4362.047852&y=3160.110596",'
        "uiu_8378456,uiu_7072382,hat_817483,uiu_7277188,uiu_8375583"
    )


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_wayfinder_table_reads_back_a_uri_with_quote_and_comma(
    ref_corpus, ref_outline, ref_stackmap, tmp_path
):
    txn_log = TransactionLog(tmp_path / "api.jsonl")
    gw = Gateway(ref_stackmap, ref_corpus, ref_outline, txn_log)
    assert gw.handle_map_data("c", 'a"b,x')[0] == 404
    txn_log.close()
    annotated = annotate(parse_logs([txn_log.path]).entries, ref_corpus, ref_outline, ref_stackmap)
    table = tmp_path / "wayfinder.csv"
    telemetry.write_wayfinder_table(annotated, table)
    assert _read_csv(table)[1] == ['/api/wayfinder/map_data/c/a"b,x', "1", "", "", "", ""]


def test_recommend_table_reads_back_a_uri_with_quote_and_comma(ref_corpus, ref_outline, tmp_path):
    uri = '/api/recommend/popularnear?x=1&y=2&q="a,b"'
    annotated = annotate([_entry(uri=uri, bib_ids=["uiu_8378456"])], ref_corpus, ref_outline)
    table = tmp_path / "recommend.csv"
    telemetry.write_recommend_table(annotated, table)
    assert _read_csv(table) == [["uri", "bib-id"], [uri, "uiu_8378456"]]


def test_recommend_table_reads_back_bib_ids_with_quote_and_comma(ref_corpus, ref_outline, tmp_path):
    uri = "/api/recommend/popularnear?x=1&y=2"
    annotated = annotate([_entry(uri=uri, bib_ids=["a,b", 'c"d', "uiu_8378456"])],
                         ref_corpus, ref_outline)
    table = tmp_path / "recommend.csv"
    telemetry.write_recommend_table(annotated, table)
    assert _read_csv(table) == [["uri"] + ["bib-id"] * 3, [uri, "a,b", 'c"d', "uiu_8378456"]]
    # only a bib id that needs quotes gets them
    assert table.read_text(encoding="utf-8").splitlines()[1].endswith(',"a,b","c""d",uiu_8378456')


def test_distribution_csv_reads_back_a_subject_with_quote_and_comma(tmp_path):
    dist = SubjectDistribution(items=[('Say "hi", world', 3), ("Plain", 1)], unknown=2)
    path = tmp_path / "subjects.csv"
    telemetry.write_distribution_csv(dist, path)
    assert _read_csv(path) == [
        ["subject", "count"], ['Say "hi", world', "3"], ["Plain", "1"], [telemetry.UNKNOWN, "2"]
    ]
    assert path.read_text(encoding="utf-8").splitlines()[2:] == ['"Plain",1', '"unknown",2']


# --- properties ------------------------------------------------------------

@settings(max_examples=50)
@given(
    st.lists(
        st.tuples(st.floats(0, 99.999), st.floats(0, 99.999)), min_size=0, max_size=60
    )
)
def test_bin_mass_equals_point_count(points):
    spec = GridSpec(0, 0, 10, 10, 10)
    grid = heatmap_points(points, spec, "bin")
    assert grid.total_mass == len(points)
    assert grid.out_of_extent == 0


# --- numpy oracles -----------------------------------------------------------

@pytest.fixture(scope="module")
def numpy_oracle():
    return pytest.importorskip("numpy")


@st.composite
def grid_cases(draw):
    """A small grid and points in and around it, some on cell edges."""
    cell = draw(st.sampled_from([0.5, 1, 2.5, 7.0, 10, 33.3]))
    spec = GridSpec(draw(st.integers(-500, 500)), draw(st.floats(-500, 500)), cell,
                    draw(st.integers(1, 12)), draw(st.integers(1, 12)))

    def coord(origin, cells):
        return st.one_of(st.floats(origin - cell, origin + (cells + 1) * cell),
                         st.integers(-1, cells + 1).map(lambda i: origin + i * cell))

    points = draw(st.lists(st.tuples(coord(spec.origin_x, spec.width), coord(spec.origin_y, spec.height)),
                           max_size=25))
    return spec, points


def _pgm_rows(grid) -> list[list[int]]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "grid.pgm"
        telemetry.write_grid_pgm(grid, path)
        lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[:3] == ["P2", f"{grid.spec.width} {grid.spec.height}", "255"]
    return [[int(v) for v in line.split()] for line in lines[3:]]


@settings(max_examples=150, deadline=None)
@given(grid_cases())
def test_bin_grid_and_pgm_rows_equal_numpys(numpy_oracle, case):
    spec, points = case
    grid = heatmap_points(points, spec, "bin")
    want, outside = reference_heatmap_points(points, spec, "bin")
    assert grid.values.tolist() == want.tolist()
    assert grid.out_of_extent == outside
    assert _pgm_rows(grid) == reference_pgm_rows(want)


@settings(max_examples=150, deadline=None)
@given(grid_cases(), st.floats(0.2, 60))
def test_gaussian_cells_and_pgm_rows_agree_with_numpys(numpy_oracle, case, sigma):
    spec, points = case
    grid = heatmap_points(points, spec, "gaussian", sigma=sigma)
    want, outside = reference_heatmap_points(points, spec, "gaussian", sigma=sigma)
    assert grid.out_of_extent == outside
    for got_row, want_row in zip(grid.values, want.tolist(), strict=True):
        for got, wanted in zip(got_row, want_row, strict=True):
            assert math.isclose(got, wanted, rel_tol=1e-12, abs_tol=0.0), (got, wanted)
    assert _pgm_rows(grid) == reference_pgm_rows(grid.values)


rank_counts = st.lists(st.integers(1, 100_000), min_size=3, max_size=60)


@settings(max_examples=200, deadline=None)
@given(rank_counts)
def test_fit_is_exact_least_squares_rounded(counts):
    got, exact = fit_power_law(counts), exact_fit_power_law(counts)
    assert math.isclose(got.exponent, exact.exponent, rel_tol=1e-12), (got, exact)
    assert math.isclose(got.r_squared, exact.r_squared, rel_tol=1e-12), (got, exact)


@settings(max_examples=200, deadline=None)
@given(rank_counts)
def test_fit_agrees_with_numpys(numpy_oracle, counts):
    """Where they differ beyond a relative 1e-12, numpy is the one further from
    exact least squares: np.polyfit loses digits on counts that are nearly equal,
    and gives R^2 below 1 for some equal counts."""
    got, want = fit_power_law(counts), reference_fit_power_law(counts)
    exact = exact_fit_power_law(counts)
    for name in ("exponent", "r_squared"):
        ours, numpys, truth = getattr(got, name), getattr(want, name), getattr(exact, name)
        assert math.isclose(ours, numpys, rel_tol=1e-12) or abs(ours - truth) <= abs(numpys - truth), (
            name, got, want, exact)

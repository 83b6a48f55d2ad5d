import csv
import gc
import hashlib
import json
import random
from dataclasses import asdict
from datetime import datetime
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stackrec import corpus, harness, lccn, locate, stacksmap, telemetry
from stackrec.config import ServiceConfig
from stackrec.gateway import Gateway
from stackrec.harness import (
    ZIPF_EXPONENT,
    FixtureSet,
    ReportConfig,
    ReportError,
    gen_corpus,
    gen_walk,
    run_report,
)

from conftest import count_calls, distribution_of, reference_key, reference_stamp


def _digest(fixtures: FixtureSet) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(fixtures.root.iterdir())
    }


def test_gen_corpus_deterministic(tmp_path):
    a = gen_corpus(5, 200, out_dir=tmp_path / "a")
    b = gen_corpus(5, 200, out_dir=tmp_path / "b")
    assert _digest(a) == _digest(b)


def test_gen_corpus_seed_changes_output(tmp_path):
    a = gen_corpus(5, 200, out_dir=tmp_path / "a")
    b = gen_corpus(6, 200, out_dir=tmp_path / "b")
    assert _digest(a) != _digest(b)


def test_small_corpus_loads_cleanly(tmp_path):
    fixtures = gen_corpus(3, 10, out_dir=tmp_path, n_shelves=4)
    store = corpus.load_corpus(
        fixtures.catalog, fixtures.circulation, fixtures.articles, fixtures.databases
    )
    assert len(store.records) == 10
    assert not store.diagnostics
    stack = stacksmap.load_stackmap(fixtures.stackmap)
    assert 1 <= len(stack.shelves) <= 4
    assert len(locate.load_beacons(fixtures.beacons)) == 12
    lccn.load_outline(fixtures.outline)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32), spec=st.sampled_from(harness.CLASS_SPECS))
def test_random_call_number_is_in_its_class_and_reads_back_from_its_text(seed, spec):
    letters, lo, hi, _ = spec
    cn = harness._random_call_number(random.Random(seed), letters, lo, hi)
    assert lccn.parse(lccn.canonical_format(cn)) == cn
    assert cn.class_letters == letters and lo <= cn.class_int <= hi
    assert len(cn.cutters) in (1, 2)
    assert cn.year is None or 1950 <= cn.year <= 2017
    assert cn.suffix is None
    parts = (cn.class_letters, cn.class_int, cn.class_frac, cn.cutters, cn.year, cn.suffix)
    assert cn.sort_key() == reference_key(*parts)


def test_generated_shelves_cover_catalog(tmp_path):
    fixtures = gen_corpus(11, 300, out_dir=tmp_path)
    store = corpus.load_corpus(fixtures.catalog)
    stack = stacksmap.load_stackmap(fixtures.stackmap)
    unshelved = [
        r.bib_id
        for r in store.records.values()
        if stacksmap.shelf_for_call(r.call_number, stack) is None
    ]
    assert unshelved == []


def test_circulation_follows_configured_skew(tmp_path):
    fixtures = gen_corpus(7, 500, out_dir=tmp_path)
    store = corpus.load_corpus(fixtures.catalog, fixtures.circulation)
    counts = sorted(
        (store.circulation_count(b) for b in store.records), reverse=True
    )
    counts = [c for c in counts if c > 0]
    fit = telemetry.fit_power_law(distribution_of(counts))
    assert fit.exponent == pytest.approx(-ZIPF_EXPONENT, abs=0.1)
    assert fit.r_squared > 0.95


def test_loaders_parse_each_call_number_once(tmp_path, monkeypatch):
    """lccn.parse runs once per catalog row and twice per database and shelf row:
    the benchmark's lccn.parse_calls, 624 for a report's default library."""
    fixtures = gen_corpus(ReportConfig().seed, ReportConfig.records, out_dir=tmp_path)

    def rows(path) -> int:
        with open(path, newline="", encoding="utf-8") as fh:
            return sum(1 for row in csv.reader(fh) if row) - 1

    calls = count_calls(monkeypatch, lccn, "parse")
    corpus.load_corpus(fixtures.catalog, fixtures.circulation, fixtures.articles, fixtures.databases)
    assert calls[0] == rows(fixtures.catalog) + 2 * rows(fixtures.databases)
    calls[0] = 0
    stacksmap.load_stackmap(fixtures.stackmap)
    assert calls[0] == 2 * rows(fixtures.stackmap)
    calls[0] = 0
    outline = lccn.load_outline(fixtures.outline)
    assert calls[0] == 2 * len(outline.entries)
    assert rows(fixtures.catalog) + 2 * (
        rows(fixtures.databases) + rows(fixtures.stackmap) + len(outline.entries)) == 624


def test_head_circulation_lands_in_head_classes(tmp_path):
    fixtures = gen_corpus(7, 500, out_dir=tmp_path)
    store = corpus.load_corpus(fixtures.catalog, fixtures.circulation)
    top = sorted(store.records.values(), key=lambda r: -store.circulation_count(r.bib_id))[:10]
    assert all(r.call_number.class_letters in ("PS", "PR") for r in top)


def test_gen_corpus_rejects_tiny_n(tmp_path):
    for n_records, n_shelves in ((5, 40), (10, 0), (10, -3)):
        out = tmp_path / f"r{n_records}s{n_shelves}"
        with pytest.raises(ValueError):
            gen_corpus(1, n_records, out_dir=out, n_shelves=n_shelves)
        assert not out.exists()


def test_stamp_tables_write_the_datetime_stamp_of_every_window_minute():
    days, times = harness._stamp_tables()
    assert len(times) == 1440
    for m in range(harness._WINDOW_MINUTES):
        assert days[m // 1440] + times[m % 1440] == reference_stamp(m), m


# --- walks ------------------------------------------------------------------

@pytest.fixture(scope="module")
def world(tmp_path_factory):
    root = tmp_path_factory.mktemp("world")
    fixtures = gen_corpus(9, 300, out_dir=root)
    store = corpus.load_corpus(fixtures.catalog, fixtures.circulation)
    return store, stacksmap.load_stackmap(fixtures.stackmap)


def test_gen_walk_deterministic(world):
    store, stack = world
    a = gen_walk(4, stack, 100, corpus_=store)
    b = gen_walk(4, stack, 100, corpus_=store)
    assert a.to_json() == b.to_json()


def test_gen_walk_request_count_and_bounds(world):
    store, stack = world
    walk = gen_walk(4, stack, 150, corpus_=store)
    assert walk.request_count == 150
    ext = stack.map_extent
    for step in walk.steps:
        assert ext.x_min <= step.x <= ext.x_max
        assert ext.y_min <= step.y <= ext.y_max
        assert step.dwell > 0
        if step.action == "wayfind":
            assert step.bib_id in store.records


def test_walk_without_corpus_has_no_wayfinds(world):
    _, stack = world
    walk = gen_walk(4, stack, 50)
    assert all(s.action != "wayfind" for s in walk.steps)


def test_gen_walk_rejects_a_negative_request_count(world):
    store, stack = world
    assert gen_walk(4, stack, 0, corpus_=store).request_count == 0
    with pytest.raises(ValueError, match="n_requests must be >= 0"):
        gen_walk(4, stack, -1, corpus_=store)


# --- end-to-end report ------------------------------------------------------

def test_report_config_sets_only_where_and_which_seed():
    config = ReportConfig(out_dir="r", seed=8)
    assert (config.out_dir, config.seed) == ("r", 8)
    with pytest.raises(TypeError):
        ReportConfig(records=100)
    # the study's sizes stay readable from an instance
    assert config.recommend_requests + config.wayfind_requests == 600


def test_run_report_small(tmp_path):
    summary = run_report(ReportConfig(out_dir=str(tmp_path)))
    assert summary["requests"] == 600
    # the walk splits its requests by the one wayfinding share
    assert summary["wayfind_requests"] == ReportConfig.wayfind_requests
    assert summary["recommend_requests"] == ReportConfig.recommend_requests
    assert summary["heatmap_mass"] == summary["recommend_requests"]
    assert summary["heatmap_out_of_extent"] == 0
    for name in (
        "summary.json", "walk.json", "gateway.jsonl", "modules.jsonl",
        "wayfinder_table.csv", "recommend_table.csv",
        "heatmap_grid.csv", "heatmap.pgm", "heatmap_smooth.csv",
        "subject_distribution.csv", "monthly_catalog.csv",
    ):
        assert (tmp_path / name).exists()
    on_disk = json.loads((tmp_path / "summary.json").read_text())
    assert on_disk["power_law"] == summary["power_law"]


def test_run_report_rerun_is_identical(tmp_path):
    a = run_report(ReportConfig(out_dir=str(tmp_path / "a")))
    b = run_report(ReportConfig(out_dir=str(tmp_path / "b")))
    sa = (tmp_path / "a" / "summary.json").read_text()
    sb = (tmp_path / "b" / "summary.json").read_text()
    assert sa == sb
    assert a["subject_distribution"] == b["subject_distribution"]


# Seed-7 report outputs of the default ReportConfig.  A change that only makes
# the program faster leaves them as they are; one that changes an answer on
# purpose records them anew.
GOLDEN_SUMMARY = Path(__file__).parent / "fixtures" / "golden" / "seed7_summary.json"
# The digest of every file but summary.json.  heatmap_smooth.csv goes through
# math.exp and is written to nine significant digits, so the same Python on
# any numpy, or none, writes the same bytes.  summary.json holds the fit to
# every bit and is compared to GOLDEN_SUMMARY to a relative 1e-9.
GOLDEN_SHA256 = {
    "fixtures/articles.csv": "24054092f3810a95995513d6ab985dc362a9a340a49b25d3a44ee83e0db32770",
    "fixtures/beacons.csv": "6425d43cc9f6fe3f7a56c19200c57a198a55e55b445561645189695cb059c425",
    "fixtures/catalog.csv": "4bb374538090e2c523a1c65b6d192b583c22e7cb6b31ed2a8cd4e6f73f776f7b",
    "fixtures/circulation.csv": "e9d85c261cc1d4e190b2c5ef2ac35fbc8ec875a992cb5b7fc6873f8c90c1a958",
    "fixtures/databases.csv": "cdd10c99f32fd642444c2eb19a34a40f0d55897e1d9c959245dc38fa383139e7",
    "fixtures/outline.tsv": "79c708009f3dcc83e496599d76942e1ee655ac895cc8405b7535e5a538867524",
    "fixtures/service.json": "e18b4bb5e322d799cc51ee59b19565c851256e9f09ca5f852727dc5823fa4d27",
    "fixtures/stackmap.csv": "7815f2acd3e45f11ff121e7b3e56c8b9df9cef4fcadd65a365a3ace04fc8b080",
    "gateway.jsonl": "1b8d775afc55ba25ef5406cabe3a260d0df702a9d4c57d9fd199bd91f0e4a90d",
    "heatmap.pgm": "5400b464afe4d4aef82adf30c234fd670d076c7c757def36bf80d26a20ca8635",
    "heatmap_grid.csv": "16f3b4f996fb6fd8d72d6d925b85d4059aadbaf00aa945f83ad6e4a66f181325",
    "heatmap_smooth.csv": "f79e898855059b1c3acb107aec3cb59def0ae946eece7b2e920123190cb78975",
    "modules.jsonl": "1f0423147b5b4c866d22be8a3e7a647035a3005c5f62e52581413e201088adbd",
    "monthly_catalog.csv": "d25793b5decba7884899f5e41e4b5916ecaa99112b6e41aeb66c17f559672f16",
    "monthly_journal.csv": "1d530e2f772b3ea8b6201c6dd3eb1bd9722eb8199f40d27c52ba6021be7747c6",
    "monthly_recommend.csv": "983f6e99e88fc788f5dddea202d09c823cf6406e4cbb7ef102bf67b4705041d0",
    "monthly_wayfinder.csv": "6de6e499ebd2c49cb1413e3682e7d5c0f09d93598ee7bc111cea1488bdc55ba7",
    "recommend_table.csv": "7d970a915a436ef6a496accb19039f38aa3669a3a001118616ff2c82522e8064",
    "subject_distribution.csv": "b55623e533c035731860b2ed90b91a9ee7d6d9d529593f2fa1c396707f60f8e1",
    "walk.json": "0750eb2ab0061c8633d8d0e07f0f5f472fc322c29a8272d10bf8cbb22e63cba4",
    "wayfinder_table.csv": "e418c2e18b120cf618b721b19e82fae48902ec8272ad5de6aef999e1e0a21a31",
}


def _assert_json_close(got, want, where="summary"):
    """Equal JSON values, floats to a relative 1e-9."""
    if isinstance(want, float):
        assert isinstance(got, float) and got == pytest.approx(want, rel=1e-9), where
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for key in want:
            _assert_json_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_json_close(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, where


def test_seed7_report_matches_golden_outputs(tmp_path):
    run_report(ReportConfig(out_dir=str(tmp_path), seed=7))
    written = {p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file()}
    assert written == set(GOLDEN_SHA256) | {"summary.json"}
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN_SHA256
    }
    assert digests == GOLDEN_SHA256
    _assert_json_close(
        json.loads((tmp_path / "summary.json").read_text(encoding="utf-8")),
        json.loads(GOLDEN_SUMMARY.read_text(encoding="utf-8")),
    )


def test_study_of_the_seed7_logs_writes_no_file_and_gives_the_golden_figures(tmp_path, monkeypatch):
    report = tmp_path / "report"
    run_report(ReportConfig(out_dir=str(report), seed=7))
    gateway_entries = telemetry.parse_logs([report / "gateway.jsonl"]).entries
    module_entries = telemetry.parse_logs([report / "modules.jsonl"]).entries
    fixtures = report / "fixtures"
    store = corpus.load_corpus(fixtures / "catalog.csv")
    outline = lccn.load_outline(fixtures / "outline.tsv")
    stack = stacksmap.load_stackmap(fixtures / "stackmap.csv")
    before = sorted(tmp_path.rglob("*"))
    empty = tmp_path / "empty"
    empty.mkdir()
    monkeypatch.chdir(empty)

    result = telemetry.study(gateway_entries, module_entries, store, outline, stack)

    assert list(empty.iterdir()) == []
    assert sorted(p for p in tmp_path.rglob("*") if p != empty) == before
    got = json.loads(json.dumps({
        "recommend_requests": len(result.recommend),
        "heatmap_mass": result.grid.total_mass,
        "heatmap_out_of_extent": result.grid.out_of_extent,
        "subject_distribution": result.subjects.items,
        "subject_unknown": result.subjects.unknown,
        "power_law": {"exponent": result.fit.exponent, "r_squared": result.fit.r_squared},
        "traces": result.traces,
        "text_mining": {module: asdict(stats) for module, stats in result.mining.items()},
        "monthly": result.monthly,
    }, sort_keys=True))
    golden = json.loads(GOLDEN_SUMMARY.read_text(encoding="utf-8"))
    _assert_json_close(got, {key: golden[key] for key in got})
    # the smoothed grid spreads each recommend point's unit mass
    assert result.smooth.total_mass == pytest.approx(len(result.recommend), rel=1e-12)


def test_refused_requests_and_locate_posts_leave_the_seed7_study_as_it_is(tmp_path):
    """Two refused popularnear, a refused map_data, and an answered and a
    refused locate post, added to the seed-7 logs: the study writes the
    report's own files, byte for byte."""
    report = tmp_path / "report"
    run_report(ReportConfig(out_dir=str(report), seed=7))
    extra = tmp_path / "extra.jsonl"
    gw = Gateway.from_config(ServiceConfig.from_json(report / "fixtures" / "service.json"), extra,
                             clock=lambda: datetime(2017, 3, 1, 12))
    try:
        assert gw.handle_popular_near("nan", "200")[0] == 400
        assert gw.handle_popular_near("200", None)[0] == 400
        assert gw.handle_map_data("uiu_undergrad", "uiu_0")[0] == 404
        assert gw.handle_locate({"observations": [{"beacon_id": "b01", "rssi": -60}]})[0] == 200
        assert gw.handle_locate([])[0] == 400
    finally:
        gw.txn_log.close()
    assert len(telemetry.parse_logs([extra]).entries) == 5
    fixtures = report / "fixtures"
    result = telemetry.study(
        telemetry.parse_logs([report / "gateway.jsonl", extra]).entries,
        telemetry.parse_logs([report / "modules.jsonl"]).entries,
        corpus.load_corpus(fixtures / "catalog.csv"), lccn.load_outline(fixtures / "outline.tsv"),
        stacksmap.load_stackmap(fixtures / "stackmap.csv"),
    )
    out = tmp_path / "study"
    telemetry.write_study(result, out)
    written = sorted(p.name for p in out.iterdir())
    assert len(written) == 11
    for name in written:
        assert (out / name).read_bytes() == (report / name).read_bytes(), name


def test_report_parses_a_log_once(tmp_path, monkeypatch):
    """The gateway's log is parsed once; the module entries are kept from the writing."""
    calls = count_calls(monkeypatch, telemetry, "parse_logs")
    run_report(ReportConfig(out_dir=str(tmp_path)))
    assert calls[0] == 1


def test_synthesized_module_log_returns_the_entries_it_writes(tmp_path):
    path = tmp_path / "modules.jsonl"
    entries = harness._synthesize_module_log(random.Random(9), path, ["uiu_1", "hat_2"], 50, 20)
    assert len(entries) == 50 + 20 + 210  # searches, then item views of walked bibs
    assert entries == telemetry.parse_logs([path]).entries


def test_report_error_names_stage(tmp_path):
    (tmp_path / "fixtures").write_text("a file where the fixtures directory goes")
    with pytest.raises(ReportError) as exc:
        run_report(ReportConfig(out_dir=str(tmp_path)))
    assert exc.value.stage == "gen_corpus"


def test_report_load_failure_names_stage_and_opens_no_log(tmp_path, monkeypatch):
    def broken_loader(*args, **kwargs):
        raise ValueError("unreadable stack map")

    monkeypatch.setattr(stacksmap, "load_stackmap", broken_loader)
    with pytest.raises(ReportError, match="unreadable stack map") as exc:
        run_report(ReportConfig(out_dir=str(tmp_path)))
    assert exc.value.stage == "load"
    # a TransactionLog creates its file on opening, so no file means no open log
    assert not (tmp_path / "gateway.jsonl").exists()


def test_report_walk_failure_names_stage_and_closes_the_log(tmp_path, monkeypatch):
    def broken_walk(*args, **kwargs):
        raise ValueError("no walk today")

    monkeypatch.setattr(harness, "gen_walk", broken_walk)
    with pytest.raises(ReportError, match="no walk today") as exc:
        run_report(ReportConfig(out_dir=str(tmp_path)))
    assert exc.value.stage == "walk"
    # The error's traceback holds the gateway; once it is collected, a log left
    # open warns, and conftest's ResourceWarning filter fails the test.
    del exc
    gc.collect()


def test_report_walk_file_replayable(tmp_path):
    run_report(ReportConfig(out_dir=str(tmp_path)))
    steps = json.loads((tmp_path / "walk.json").read_text())["steps"]
    assert sum(1 for step in steps if step["action"] != "idle") == 600


def test_report_monthly_series_spans_study_window(tmp_path):
    run_report(ReportConfig(out_dir=str(tmp_path)))
    lines = (tmp_path / "monthly_catalog.csv").read_text().splitlines()[1:]
    months = [line.split(",")[0] for line in lines]
    assert months[0].startswith("2016-")
    assert len(months) >= 10

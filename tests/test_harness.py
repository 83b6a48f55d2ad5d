import csv
import hashlib
import json
from pathlib import Path

import pytest

from stackrec import corpus, lccn, locate, stacksmap, telemetry
from stackrec.harness import (
    ZIPF_EXPONENT,
    FixtureSet,
    ReportConfig,
    ReportError,
    WalkScript,
    gen_corpus,
    gen_walk,
    run_report,
)

from conftest import count_calls


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
    fit = telemetry.fit_power_law(counts)
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
    assert calls[0] == 2 * len(outline)
    assert rows(fixtures.catalog) + 2 * (
        rows(fixtures.databases) + rows(fixtures.stackmap) + len(outline)) == 624


def test_head_circulation_lands_in_head_classes(tmp_path):
    fixtures = gen_corpus(7, 500, out_dir=tmp_path)
    store = corpus.load_corpus(fixtures.catalog, fixtures.circulation)
    top = sorted(store.records.values(), key=lambda r: -store.circulation_count(r.bib_id))[:10]
    assert all(r.call_number.class_letters in ("PS", "PR") for r in top)


def test_gen_corpus_rejects_tiny_n(tmp_path):
    with pytest.raises(ValueError):
        gen_corpus(1, 5, out_dir=tmp_path)


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


def test_walk_script_round_trips(world):
    store, stack = world
    walk = gen_walk(4, stack, 50, corpus_=store)
    assert WalkScript.from_json(walk.to_json()).to_json() == walk.to_json()


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
GOLDEN_SHA256 = {
    "recommend_table.csv": "7d970a915a436ef6a496accb19039f38aa3669a3a001118616ff2c82522e8064",
    "wayfinder_table.csv": "e418c2e18b120cf618b721b19e82fae48902ec8272ad5de6aef999e1e0a21a31",
    "gateway.jsonl": "1b8d775afc55ba25ef5406cabe3a260d0df702a9d4c57d9fd199bd91f0e4a90d",
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
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN_SHA256
    }
    assert digests == GOLDEN_SHA256
    _assert_json_close(
        json.loads((tmp_path / "summary.json").read_text(encoding="utf-8")),
        json.loads(GOLDEN_SUMMARY.read_text(encoding="utf-8")),
    )


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


def test_report_walk_file_replayable(tmp_path):
    run_report(ReportConfig(out_dir=str(tmp_path)))
    walk = WalkScript.from_json((tmp_path / "walk.json").read_text())
    assert walk.request_count == 600


def test_report_monthly_series_spans_study_window(tmp_path):
    run_report(ReportConfig(out_dir=str(tmp_path)))
    lines = (tmp_path / "monthly_catalog.csv").read_text().splitlines()[1:]
    months = [line.split(",")[0] for line in lines]
    assert months[0].startswith("2016-")
    assert len(months) >= 10

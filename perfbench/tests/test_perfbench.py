"""The benchmark's own tests: smoke runs of every workload, and checkers that
must reject a planted wrong answer.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

from stackrec import corpus, harness, lccn, locate, stacksmap  # noqa: E402
from stackrec.gateway import Gateway, TransactionLog  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run_is_correct_and_complete(workload):
    result = _bench(workload, 0)
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    expected_failed = result["attempted"] // (run.ROUND_STEPS + 1) if workload == "patron_walk" else 0
    assert result["failed"] == expected_failed


# per-layer metrics of the layers a workload leaves idle; every other one must be measured
IDLE = {
    "patron_walk": {"lccn.in_range_calls_per_entry", "harness.gen_corpus_s", "harness.gen_walk_s",
                    "harness.replay_s"} | {m["name"] for m in BENCHMARK["per_layer"]
                                           if m["name"].startswith("telemetry.")},
    "study_report": {"gateway.handle_locate_us", "locate.estimate_position_us"},
    "year_analytics": {"lccn.in_range_calls_per_request", "stacksmap.ranges_for_location_us",
                       "corpus.books_in_range_us", "corpus.article_search_us", "locate.estimate_position_us"}
    | {m["name"] for m in BENCHMARK["per_layer"] if m["name"].split(".")[0] in ("gateway", "harness", "recommend")},
}


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_run_prints_every_per_layer_metric(workload):
    result = _bench(workload, 1)
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert {name for name, m in result["metrics"].items() if m["value"] == 0} == IDLE[workload]


def test_missing_sources_exit_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "patron_walk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


# --- checkers ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def world(tmp_path_factory):
    root = tmp_path_factory.mktemp("world")
    fixtures = harness.gen_corpus(5, 800, out_dir=root / "fixtures", n_shelves=40)
    store = corpus.load_corpus(fixtures.catalog, fixtures.circulation, fixtures.articles, fixtures.databases)
    stack = stacksmap.load_stackmap(fixtures.stackmap)
    gw = Gateway(stack, store, lccn.load_outline(fixtures.outline), TransactionLog(root / "gw.jsonl"),
                 beacons=locate.load_beacons(fixtures.beacons))
    return checks.Library(fixtures.root), gw, stack


def test_call_key_orders_like_the_program(world):
    lib, gw, _ = world
    by_key = sorted(lib.records, key=lambda b: (lib.records[b]["key"], b))
    by_program = sorted(lib.records, key=lambda b: (gw.corpus.records[b].call_number.sort_key(), b))
    assert by_key == by_program


def _busy_point(lib, gw):
    for shelf in lib.shelves.values():
        x, y = shelf["rect"][0] - 5.0, shelf["rect"][1] - 5.0
        status, body = gw.handle_popular_near(str(x), str(y))
        if sum(1 for i in body["items"] if i["kind"] == "print") >= 2:
            return x, y, status, body
    raise AssertionError("no point with two print recommendations")


def test_popular_near_swapped_items_rejected(world):
    lib, gw, _ = world
    x, y, status, body = _busy_point(lib, gw)
    assert checks.check_popular_near(lib, x, y, status, body) == []
    items = body["items"]
    items[0], items[1] = items[1], items[0]
    assert checks.check_popular_near(lib, x, y, status, body)


def test_map_data_neighbouring_shelf_rejected(world):
    lib, gw, _ = world
    bib = next(b for b, r in lib.records.items() if r["format"] == "print")
    status, body = gw.handle_map_data("uiu_undergrad", bib)
    assert checks.check_map_data(lib, bib, status, body) == []
    number = body["shelf_number"]
    neighbour = lib.shelves[number + 1 if number + 1 in lib.shelves else number - 1]
    r = neighbour["rect"]
    body.update(shelf_number=neighbour["number"], x=round((r[0] + r[2]) / 2), y=round((r[1] + r[3]) / 2))
    assert checks.check_map_data(lib, bib, status, body)


def test_locate_moved_estimate_rejected(world):
    lib, gw, _ = world
    obs = run._observations(lib, 300.0, 200.0)
    status, body = gw.handle_locate({"observations": obs})
    assert checks.check_locate(lib, obs, status, body) == []
    body["x"] += 0.5
    assert checks.check_locate(lib, obs, status, body)


def test_missing_log_line_rejected(world, tmp_path):
    lib, gw, _ = world
    bib = next(b for b, r in lib.records.items() if r["format"] == "print")
    status, body = gw.handle_map_data("uiu_undergrad", bib)
    request = ("map_data", "GET", "", None, bib)
    sent = [(request, status, json.dumps(body).encode(), 0.001)] * 2
    log = tmp_path / "gw.jsonl"
    line = json.dumps({"module": "wayfinder", "bib_ids": [bib]}) + "\n"
    log.write_text(line * 2)
    assert run._check_patron(lib, [(sent, log)], seed=1) == []
    log.write_text(line)
    assert run._check_patron(lib, [(sent, log)], seed=1)


@pytest.fixture(scope="module")
def year(tmp_path_factory):
    root = tmp_path_factory.mktemp("year")
    fixtures = harness.gen_corpus(5, 800, out_dir=root / "fixtures", n_shelves=40)
    logs = run._year_logs(root, fixtures, 5, run.SIZES["smoke"]["year_analytics"])
    out = worker.analytics_pass({"logs": logs}, worker.load_library(fixtures.root))
    lines = [e for p in logs for e in checks.read_log(p)]
    return lines, checks.Library(fixtures.root).extent, json.loads(json.dumps(out))


def test_year_pass_is_accepted(year):
    lines, extent, out = year
    assert checks.check_year_pass(lines, extent, worker.CELL_SIZE, out) == []


@pytest.mark.parametrize("plant", ["moved_point", "gaussian_mass", "subjects", "trace", "mining", "monthly"])
def test_year_pass_planted_error_rejected(year, plant):
    lines, extent, out = year
    out = json.loads(json.dumps(out))
    if plant == "moved_point":
        grid = out["bin_grid"]
        row, col = next((r, c) for r, cells in enumerate(grid) for c, v in enumerate(cells) if v)
        grid[row][col] -= 1.0
        grid[row][col + 1] += 1.0
    elif plant == "gaussian_mass":
        out["gaussian_mass"] += 1e-3
    elif plant == "subjects":
        out["subject_unknown"] += 1
    elif plant == "trace":
        bib = next(iter(out["traces"]))
        out["traces"][bib]["display"] += 1
    elif plant == "mining":
        out["mining"]["catalog"]["total_words"] -= 1
    else:
        month, count = out["monthly"]["catalog"][0]
        out["monthly"]["catalog"][0] = [month, count + 1]
    assert checks.check_year_pass(lines, extent, worker.CELL_SIZE, out)


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    root = tmp_path_factory.mktemp("report")
    harness.run_report(harness.ReportConfig(out_dir=str(root / "a")))
    return root / "a"


def test_report_is_accepted(report):
    assert checks.check_report(report, 600) == []


@pytest.mark.parametrize("plant", ["lost_point", "subjects", "exponent", "log_line"])
def test_report_planted_error_rejected(report, tmp_path, plant):
    bad = tmp_path / "bad"
    shutil.copytree(report, bad)
    if plant == "lost_point":
        grid = (bad / "heatmap_grid.csv").read_text().splitlines()
        row = next(i for i, line in enumerate(grid[1:], 1) if any(float(v) for v in line.split(",")))
        cells = [float(v) for v in grid[row].split(",")]
        cells[next(i for i, v in enumerate(cells) if v)] -= 1
        grid[row] = ",".join(f"{v:.9g}" for v in cells)
        (bad / "heatmap_grid.csv").write_text("\n".join(grid) + "\n")
    elif plant in ("subjects", "exponent"):
        summary = json.loads((bad / "summary.json").read_text())
        if plant == "subjects":
            summary["subject_distribution"][1][1] -= 1
        else:
            summary["power_law"]["exponent"] += 1e-6
        (bad / "summary.json").write_text(json.dumps(summary))
    else:
        lines = (bad / "gateway.jsonl").read_text().splitlines(keepends=True)
        (bad / "gateway.jsonl").write_text("".join(lines[:-1]))
    assert checks.check_report(bad, 600)


def test_layer_metrics_self_time_and_transport():
    spans = [
        [1, "gateway.handle_popular_near", None, 0.0, 0.010, None, {"lccn.in_range": 30}],
        [2, "recommend.recommend_near", 1, 0.001, 0.009, None, {"lccn.in_range": 30}],
        [3, "corpus.books_in_range", 2, 0.002, 0.005, None, {"lccn.in_range": 30}],
    ]
    metrics = tracing.layer_metrics([spans], [([0.012], 1)])
    assert metrics["recommend.recommend_near_self_us"]["value"] == pytest.approx(5000)
    assert metrics["gateway.transport_us"]["value"] == pytest.approx(2000)
    assert metrics["lccn.in_range_calls_per_request"]["value"] == 30
    assert metrics["gateway.connections_per_request"]["value"] == 1
    assert metrics["telemetry.annotate_s"]["value"] == 0.0


def test_layer_metrics_rejects_unpaired_requests():
    spans = [[1, "gateway.handle_map_data", None, 0.0, 0.010, None, {}]]
    with pytest.raises(ValueError):
        tracing.layer_metrics([spans], [([0.012, 0.011], 2)])

import json
import os
import select
import shutil
import signal
import socket
import subprocess
import sys
import urllib.request
from datetime import datetime
from pathlib import Path

import pytest

import stackrec
from stackrec import cli
from stackrec.config import ServiceConfig
from stackrec.gateway import ApiLogEntry, Gateway

from conftest import REFERENCE


def test_harness_gen_writes_a_service_config_that_serves(tmp_path, capsys):
    out = tmp_path / "generated"
    assert cli.main(["harness", "gen", "--seed", "3", "--records", "60", "--out", str(out)]) == 0
    assert str(out) in capsys.readouterr().out
    # the config names its files by relative path, so the directory can move
    moved = shutil.copytree(out, tmp_path / "moved")
    shutil.rmtree(out)
    cfg = ServiceConfig.from_json(moved / "service.json")
    assert cfg.catalog == str(moved / "catalog.csv")

    gw = Gateway.from_config(cfg, tmp_path / "api.jsonl")
    try:
        assert len(gw.corpus.records) == 60
        assert len(gw.beacons) == 12
        assert gw.stackmap.shelves
        bib_id = next(r.bib_id for r in gw.corpus.records.values() if r.format == "print")
        status, body = gw.handle_map_data("uiu_undergrad", bib_id)
        assert status == 200
        assert gw.stackmap.map_extent.contains((body["x"], body["y"]))
    finally:
        gw.txn_log.close()


def _write_point_log(path):
    lines = [
        ApiLogEntry(
            timestamp=datetime(2016, 9, 1, 10), module="recommend",
            uri=f"/api/recommend/popularnear?x={x}&y={y}", params={"x": x, "y": y},
        ).to_json()
        for x, y in (("nan", "1"), ("1", "inf"), ("15", "5"), ("5", "15"))
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_heatmap_skips_points_that_are_not_finite(tmp_path, capsys):
    log = tmp_path / "api.jsonl"
    _write_point_log(log)
    grid = tmp_path / "grid.csv"
    code = cli.main(["telemetry", "heatmap", "--logs", str(log), "--cell-size", "10",
                     "--out", str(grid)])
    assert code == 0
    assert "2 points, mass 2" in capsys.readouterr().out
    assert grid.exists()


@pytest.mark.parametrize("argv, message", [
    (["telemetry", "heatmap", "--cell-size", "10", "--mode", "gaussian:0", "--logs", "{log}"],
     "gaussian mode requires sigma > 0"),
    (["harness", "gen", "--seed", "1", "--records", "5"], "n_records must be >= 10"),
    (["telemetry", "heatmap", "--cell-size", "0", "--logs", "{log}"], "cell size must be > 0"),
])
def test_bad_numeric_argument_is_one_stderr_line_and_status_2(tmp_path, capsys, argv, message):
    log = tmp_path / "api.jsonl"
    _write_point_log(log)
    out = tmp_path / "out"
    argv = [arg.format(log=log) for arg in argv] + ["--out", str(out)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"error: {message}")
    assert not out.exists()


def test_walk_with_negative_request_count_is_one_stderr_line_and_status_2(tmp_path, capsys):
    out = tmp_path / "walk.json"
    argv = ["harness", "walk", "--seed", "1", "--requests", "-3",
            "--stackmap", str(REFERENCE / "stackmap.csv"), "--out", str(out)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line == "error: n_requests must be >= 0"
    assert not out.exists()


_REF_ARGS = {
    "catalog": ["--catalog", str(REFERENCE / "catalog.csv")],
    "outline": ["--outline", str(REFERENCE / "outline.tsv")],
}


@pytest.mark.parametrize("argv", [
    ["telemetry", "annotate", *_REF_ARGS["catalog"], *_REF_ARGS["outline"], "--out", "{out}"],
    ["telemetry", "heatmap", "--cell-size", "10", "--out", "{out}"],
    ["telemetry", "subjects", *_REF_ARGS["catalog"], *_REF_ARGS["outline"], "--out", "{out}"],
    ["telemetry", "trace", "--bib-id", "uiu_8127460"],
    ["telemetry", "mine", "--module", "catalog"],
    ["telemetry", "monthly", "--module", "wayfinder"],
    ["serve", "--port", "0", "--log", "{out}"],
], ids=lambda argv: "-".join(argv[:2]) if argv[0] == "telemetry" else argv[0])
def test_missing_input_file_is_one_stderr_line_and_status_2(tmp_path, capsys, argv):
    missing = tmp_path / "missing.jsonl"
    out = tmp_path / "out"
    argv = [arg.format(out=out) for arg in argv]
    argv += ["--config", str(missing)] if argv[0] == "serve" else ["--logs", str(missing)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and str(missing) in line
    assert not out.exists()


_SERVICE_WITH_BAD_BEACONS = json.dumps({
    "catalog": str(REFERENCE / "catalog.csv"),
    "stackmap": str(REFERENCE / "stackmap.csv"),
    "outline": str(REFERENCE / "outline.tsv"),
    "beacons": "beacons.csv",
})


@pytest.mark.parametrize("argv, files, message", [
    (["telemetry", "subjects", "--logs", "{log}", "--catalog", "{dir}/catalog.csv",
      *_REF_ARGS["outline"], "--out", "{out}"],
     {"catalog.csv": "id,name\n1,x\n"}, "expected columns"),
    (["telemetry", "heatmap", "--logs", "{log}", "--stackmap", "{dir}/stackmap.csv",
      "--cell-size", "10", "--out", "{out}"],
     {"stackmap.csv": "shelf,x\n1,2\n"}, "expected columns"),
    (["serve", "--config", "{dir}/service.json", "--port", "0", "--log", "{log}"],
     {"service.json": _SERVICE_WITH_BAD_BEACONS, "beacons.csv": "id,x,y\nb1,0,0\n"},
     "expected columns beacon_id"),
    (["serve", "--config", "{dir}/service.json", "--port", "0", "--log", "{log}"],
     {"service.json": _SERVICE_WITH_BAD_BEACONS, "beacons.csv": "beacon_id,x,y\nb1,0\n"},
     "could not convert"),
    (["serve", "--config", "{dir}/service.json", "--port", "0", "--log", "{log}"],
     {"service.json": _SERVICE_WITH_BAD_BEACONS, "beacons.csv": "beacon_id,x,y\nb1,0,0\nb2,zero,0\n"},
     "beacons.csv row 3: could not convert string to float: 'zero'"),
], ids=["telemetry-subjects", "telemetry-heatmap", "serve", "serve-short-row",
        "serve-bad-number"])
def test_malformed_input_file_is_one_stderr_line_and_status_2(tmp_path, capsys, argv, files, message):
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    log = tmp_path / "api.jsonl"
    _write_point_log(log)
    out = tmp_path / "out"
    assert cli.main([arg.format(dir=tmp_path, log=log, out=out) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and message in line
    assert not out.exists()


def test_serve_that_fails_to_load_leaves_no_log(tmp_path, capsys):
    (tmp_path / "service.json").write_text(_SERVICE_WITH_BAD_BEACONS, encoding="utf-8")
    (tmp_path / "beacons.csv").write_text("beacon_id,x,y\nb1,0\n", encoding="utf-8")
    log = tmp_path / "new.jsonl"
    argv = ["serve", "--config", str(tmp_path / "service.json"), "--port", "0", "--log", str(log)]
    assert cli.main(argv) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ")
    assert not log.exists()


def test_serve_on_a_busy_port_is_one_error_line_and_leaves_no_log(tmp_path, capsys):
    log = tmp_path / "new.jsonl"
    with socket.create_server(("127.0.0.1", 0)) as busy:
        port = busy.getsockname()[1]
        argv = ["serve", "--config", str(REFERENCE / "config.json"), "--port", str(port),
                "--log", str(log)]
        assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ")
    assert not log.exists()


def test_heatmap_with_no_points_and_no_stackmap_is_one_error_line_and_status_2(tmp_path, capsys):
    log = tmp_path / "api.jsonl"
    log.write_text("", encoding="utf-8")
    out = tmp_path / "grid.csv"
    argv = ["telemetry", "heatmap", "--logs", str(log), "--cell-size", "10", "--out", str(out)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line == "error: no points and no --stackmap to size the grid"
    assert not out.exists()


def test_serve_with_a_config_that_is_not_json_is_one_stderr_line_and_status_2(tmp_path, capsys):
    config = tmp_path / "service.json"
    config.write_text("{not json", encoding="utf-8")
    log = tmp_path / "api.jsonl"
    assert cli.main(["serve", "--config", str(config), "--port", "0", "--log", str(log)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ")
    assert not log.exists()


def _service(**changes) -> str:
    service = {name: str(REFERENCE / file) for name, file in (
        ("catalog", "catalog.csv"), ("stackmap", "stackmap.csv"), ("outline", "outline.tsv"))}
    service.update(changes)
    return json.dumps({k: v for k, v in service.items() if v is not ...})


@pytest.mark.parametrize("text, message", [
    ("[]", "a service config is a JSON object, not list"),
    ("null", "a service config is a JSON object, not NoneType"),
    (_service(stackmap=..., outline=...), "stackmap is required"),
    (_service(outline=None), "outline is required"),
    (_service(catalog=5), "catalog must be a path string, not 5"),
    (_service(beacons=["beacons.csv"]), "beacons must be a path string"),
    (_service(radius="25"), "radius must be a finite number >= 0, not '25'"),
    (_service(radius=-1), "radius must be a finite number >= 0, not -1"),
    (_service(radius=True), "radius must be a finite number >= 0, not True"),
    (_service(radius=float("nan")), "radius must be a finite number >= 0, not nan"),
    (_service(radius=float("inf")), "radius must be a finite number >= 0, not inf"),
    (_service(radius=10 ** 400), "radius must be a finite number >= 0"),
], ids=["list", "null", "no-stackmap-or-outline", "null-outline", "number-path", "list-path",
        "radius-string", "radius-negative", "radius-bool", "radius-nan", "radius-inf",
        "radius-past-float"])
def test_serve_with_a_malformed_config_is_one_stderr_line_and_status_2(tmp_path, capsys, monkeypatch,
                                                                     text, message):
    """Each is refused before the library loads, so no server starts on a config
    whose requests it could not answer."""
    def loaded(*args, **kwargs):
        raise AssertionError("the config was accepted")

    monkeypatch.setattr(Gateway, "from_config", loaded)
    config = tmp_path / "service.json"
    config.write_text(text, encoding="utf-8")
    log = tmp_path / "api.jsonl"
    assert cli.main(["serve", "--config", str(config), "--port", "0", "--log", str(log)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"error: {config}: {message}")
    assert not log.exists()


def test_a_service_config_radius_may_be_zero_or_a_whole_number(tmp_path):
    config = tmp_path / "service.json"
    for radius in (0, 25, 12.5):
        config.write_text(_service(radius=radius), encoding="utf-8")
        assert ServiceConfig.from_json(config).radius == radius


@pytest.mark.parametrize("x", ["20000000", "1e25"])
def test_heatmap_without_a_stackmap_sizes_its_grid_from_far_points(tmp_path, capsys, x):
    log = tmp_path / "api.jsonl"
    log.write_text(ApiLogEntry(
        timestamp=datetime(2016, 9, 1, 10), module="recommend",
        uri=f"/api/recommend/popularnear?x={x}&y=5", params={"x": x, "y": "5"},
    ).to_json() + "\n", encoding="utf-8")
    grid = tmp_path / "grid.csv"
    code = cli.main(["telemetry", "heatmap", "--logs", str(log), "--cell-size", "10",
                     "--out", str(grid)])
    assert code == 0
    assert "1 points, mass 1, 0 out of extent" in capsys.readouterr().out
    header, *rows = grid.read_text(encoding="utf-8").splitlines()
    assert header.endswith("out_of_extent=0")
    assert 1 <= len(rows) <= 3 and all(1 <= len(row.split(",")) <= 3 for row in rows)


@pytest.mark.parametrize("xs, cell_size", [
    (("-1.7e308", "1.7e308"), "10"),  # the span overflows to infinity
    (("5", "15"), "1e-300"),  # 10**301 cells a side
], ids=["x-1.7e308", "cell-1e-300"])
def test_heatmap_too_big_to_hold_is_one_error_line_and_status_2(tmp_path, capsys, xs, cell_size):
    log = tmp_path / "api.jsonl"
    log.write_text("".join(ApiLogEntry(
        timestamp=datetime(2016, 9, 1, 10), module="recommend",
        uri=f"/api/recommend/popularnear?x={x}&y=5", params={"x": x, "y": "5"},
    ).to_json() + "\n" for x in xs), encoding="utf-8")
    grid = tmp_path / "grid.csv"
    argv = ["telemetry", "heatmap", "--logs", str(log), "--cell-size", cell_size, "--out", str(grid)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: a grid of ") and line.endswith(" cells is more than 10,000,000 cells")
    assert not grid.exists()


def test_harness_report_seed_sets_the_study_seed(tmp_path, capsys):
    out = tmp_path / "report"
    assert cli.main(["harness", "report", "--seed", "8", "--out", str(out)]) == 0
    assert f"report in {out}: 600 requests" in capsys.readouterr().out
    # the walk's seed follows the library's
    assert json.loads((out / "walk.json").read_text(encoding="utf-8"))["seed"] == 9


def test_harness_report_that_fails_at_a_stage_is_one_stderr_line_and_status_1(tmp_path, capsys):
    (tmp_path / "fixtures").write_text("a file where the fixtures directory goes")
    assert cli.main(["harness", "report", "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("report failed at stage gen_corpus: ")
    assert "[gen_corpus]" not in lines[0]  # the stage is named once


_SERVE_IMPORTS = """
import contextlib, io, json, socket, sys
from stackrec import cli
from stackrec.config import ServiceConfig
from stackrec.gateway import Gateway, GatewayServer

config, log, library = sys.argv[1:]
gw = Gateway.from_config(ServiceConfig.from_json(config), log)
with GatewayServer(gw) as server, socket.create_connection(server.server_address[:2], timeout=10) as sock:
    sock.sendall(b"GET /api/recommend/popularnear?x=337&y=128 HTTP/1.1\\r\\nConnection: close\\r\\n\\r\\n")
    answer = b""
    while chunk := sock.recv(65536):
        answer += chunk
gw.txn_log.close()
def loaded(*names):
    return [m for m in names if m in sys.modules]
serving = {"numpy": "numpy" in sys.modules, "status": int(answer.split()[1]),
           "stdlib": loaded("http.server", "http.client", "ssl", "email"),
           "stackrec": sorted(m for m in sys.modules if m.startswith("stackrec."))}
with contextlib.redirect_stdout(io.StringIO()):
    generated = cli.main(["harness", "gen", "--seed", "7", "--records", "30", "--out", library])
generating = {"status": generated, "numpy": "numpy" in sys.modules,
              "client": loaded("urllib.request", "http.client", "ssl", "email")}
code = cli.main(["telemetry", "monthly", "--logs", log, "--module", "recommend"])
print(json.dumps({"serving": serving, "generating": generating, "monthly": code,
                  "numpy_after": "numpy" in sys.modules,
                  "client_after": loaded("urllib.request", "http.client", "ssl", "email")}))
"""


def test_serving_and_telemetry_import_no_numpy(tmp_path):
    """Serving a request over a socket leaves numpy, http.server, http.client, ssl
    and email unloaded, and neither generating a library nor a telemetry
    command loads numpy or an HTTP client (urllib.request, http.client, ssl,
    email): only the report's replay sends requests."""
    env = {**os.environ, "PYTHONPATH": str(Path(stackrec.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", _SERVE_IMPORTS, str(REFERENCE / "config.json"),
         str(tmp_path / "api.jsonl"), str(tmp_path / "library")],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    *printed, result = done.stdout.splitlines()
    result = json.loads(result)
    assert result["serving"] == {
        "numpy": False, "status": 200, "stdlib": [],
        "stackrec": [f"stackrec.{name}" for name in (
            "cli", "config", "corpus", "gateway", "lccn", "locate", "recommend", "stacksmap")],
    }
    assert result["generating"] == {"status": 0, "numpy": False, "client": []}
    assert result["monthly"] == 0
    (month,) = printed  # the one logged popularnear request, in the month it was made
    assert month.endswith("\t1")
    assert not result["numpy_after"]
    assert result["client_after"] == []


@pytest.fixture
def small_logs(tmp_path):
    """A gateway log of served reference requests, and a module log of two searches."""
    gateway_log = tmp_path / "gateway.jsonl"
    gw = Gateway.from_config(ServiceConfig.from_json(REFERENCE / "config.json"), gateway_log,
                             clock=lambda: datetime(2016, 9, 1, 10))
    try:
        assert gw.handle_map_data("uiu_undergrad", "uiu_8127460")[0] == 200
        for x, y in (("337", "128"), ("155", "50"), ("205", "50"), ("92", "304")):
            assert gw.handle_popular_near(x, y)[0] == 200
    finally:
        gw.txn_log.close()
    modules_log = tmp_path / "modules.jsonl"
    modules_log.write_text("".join(
        ApiLogEntry(timestamp=datetime(2016, 10, 3, 9), module="catalog",
                    uri=f"/api/catalog/search?q={q}", params={"q": q}).to_json() + "\n"
        for q in ("film", "film history")
    ), encoding="utf-8")
    return [str(gateway_log), str(modules_log)]


_TABLES = [*_REF_ARGS["catalog"], *_REF_ARGS["outline"]]


@pytest.mark.parametrize("argv, written, printed", [
    (["annotate", *_TABLES, "--stackmap", str(REFERENCE / "stackmap.csv"), "--out", "{out}/wayfinder.csv"],
     ["wayfinder.csv", "wayfinder_recommend.csv"], "(7 entries)"),
    (["subjects", *_TABLES, "--fit", "--out", "{out}/subjects.csv"],
     ["subjects.csv"], "power-law fit: exponent"),
    (["heatmap", "--cell-size", "10", "--stackmap", str(REFERENCE / "stackmap.csv"),
      "--out", "{out}/grid.csv,{out}/grid.pgm"], ["grid.csv", "grid.pgm"], "4 points, mass 4"),
    (["trace", "--bib-id", "uiu_8127460"], [], "wayfinder\t1"),
    (["mine", "--module", "catalog"], [], "total words\t3"),
    (["monthly", "--module", "catalog"], [], "2016-10\t2"),
], ids=["annotate", "subjects", "heatmap", "trace", "mine", "monthly"])
def test_each_telemetry_command_runs_on_reference_tables(tmp_path, capsys, small_logs,
                                                         argv, written, printed):
    out = tmp_path / "out"
    out.mkdir()
    argv = ["telemetry", *(arg.format(out=out) for arg in argv), "--logs", *small_logs]
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert printed in captured.out
    assert sorted(p.name for p in out.iterdir()) == sorted(written)
    for name in written:
        assert (out / name).stat().st_size > 0


def test_serve_stops_on_sigterm_with_status_0_and_a_closed_log(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(stackrec.__file__).parents[1])}
    log = tmp_path / "api.jsonl"
    # leaving the with block closes the pipes
    with subprocess.Popen(
        [sys.executable, "-m", "stackrec.cli", "serve", "--config", str(REFERENCE / "config.json"),
         "--port", "0", "--log", str(log)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as proc:
        try:
            assert select.select([proc.stdout], [], [], 30)[0], "no output within 30 s"
            line = proc.stdout.readline()
            assert line.startswith("serving on http://"), line + proc.stderr.read()
            url = line.split()[2].rstrip(",")
            with urllib.request.urlopen(url + "/api/recommend/popularnear?x=337&y=128",
                                        timeout=10) as resp:
                assert resp.status == 200
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=10) == 0, proc.stderr.read()
        finally:
            proc.kill()
            proc.wait()
    assert len(log.read_text(encoding="utf-8").splitlines()) == 1

import email.utils
import http.client
import io
import itertools
import json
import logging
import math
import os
import random
import re
import socket
import string
import struct
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone
from http.server import BaseHTTPRequestHandler
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stackrec import telemetry
from stackrec.config import ServiceConfig
from stackrec.gateway import (
    MAX_BLANK_LINES,
    MAX_BODY_BYTES,
    MAX_HEAD_LINES,
    MAX_LINE_BYTES,
    READ_TIMEOUT_S,
    ApiLogEntry,
    Gateway,
    GatewayServer,
    TransactionLog,
    read_headers,
)

from conftest import REFERENCE

MAP_DATA_URI = "/api/wayfinder/map_data/uiu_undergrad/uiu_8127460"
POPULAR_URI = "/api/recommend/popularnear?x=4362.047852&y=3160.110596"


@pytest.fixture()
def gateway(ref_stackmap, ref_corpus, ref_outline, ref_beacons, tmp_path):
    txn_log = TransactionLog(tmp_path / "api.jsonl")
    gw = Gateway(
        ref_stackmap,
        ref_corpus,
        ref_outline,
        txn_log,
        beacons=ref_beacons,
        radius=25.0,
    )
    yield gw
    txn_log.close()


def _log_entries(gw):
    return telemetry.parse_logs([gw.txn_log.path]).entries


def test_map_data_known_row_pn(gateway):
    status, body = gateway.handle_map_data("uiu_undergrad", "uiu_8127460")
    assert status == 200
    assert body["x"] == 337
    assert body["y"] == 128
    assert body["shelf_number"] == 30
    assert body["call_number"] == "PN1995 .C655 2015"


def test_map_data_known_row_sf(gateway):
    status, body = gateway.handle_map_data("uiu_undergrad", "uiu_7419985")
    assert status == 200
    assert (body["x"], body["y"], body["shelf_number"]) == (92, 304, 51)
    assert body["call_number"] == "SF446 .C763 2014"


def test_map_data_unknown_bib_404_logged(gateway):
    status, _ = gateway.handle_map_data("uiu_undergrad", "uiu_0")
    assert status == 404
    entries = _log_entries(gateway)
    assert entries[-1].status == 404
    assert entries[-1].bib_ids == ()


def test_map_data_uri_matches_wire_format(gateway):
    gateway.handle_map_data("uiu_undergrad", "uiu_8127460")
    entry = _log_entries(gateway)[-1]
    assert entry.uri == MAP_DATA_URI
    assert entry.module == "wayfinder"
    assert entry.bib_ids == ("uiu_8127460",)


def test_popular_near_logs_bib_ids_in_order(gateway):
    status, body = gateway.handle_popular_near("4362.047852", "3160.110596")
    assert status == 200
    prints = [i["bib_id"] for i in body["items"] if i["kind"] == "print"]
    assert len(prints) == 5
    entry = _log_entries(gateway)[-1]
    assert entry.uri == POPULAR_URI
    assert entry.bib_ids[: len(prints)] == tuple(prints)


def test_popular_near_missing_param_400(gateway):
    status, _ = gateway.handle_popular_near("4362.0", None)
    assert status == 400
    assert _log_entries(gateway)[-1].status == 400


def test_popular_near_unparseable_400(gateway):
    status, _ = gateway.handle_popular_near("abc", "1.0")
    assert status == 400


@pytest.mark.parametrize("handler, args, status, uri, params", [
    ("handle_popular_near", ("1\ud800", "2"), 400,
     "/api/recommend/popularnear?x=1%5Cud800&y=2", {"x": "1\\ud800", "y": "2"}),
    ("handle_popular_near", (None, "\u00e9\udfff"), 400,
     "/api/recommend/popularnear?y=%C3%A9%5Cudfff", {"y": "\u00e9\\udfff"}),
    ("handle_map_data", ("uiu_undergrad", "uiu_\ud800"), 404,
     "/api/wayfinder/map_data/uiu_undergrad/uiu_\\ud800",
     {"collection": "uiu_undergrad", "bib_id": "uiu_\\ud800"}),
    ("handle_map_data", ("uiu_\udcff", "uiu_8127460"), 200,
     "/api/wayfinder/map_data/uiu_\\udcff/uiu_8127460",
     {"collection": "uiu_\\udcff", "bib_id": "uiu_8127460"}),
], ids=["popularnear-x", "popularnear-y-only", "map-data-bib-id", "map-data-collection"])
def test_a_lone_surrogate_is_answered_and_logged_as_its_escape(gateway, handler, args, status,
                                                               uri, params):
    assert getattr(gateway, handler)(*args)[0] == status
    parsed = telemetry.parse_logs([gateway.txn_log.path])
    assert parsed.malformed == []
    (entry,) = parsed.entries
    assert (entry.status, entry.uri, entry.params) == (status, uri, params)


def test_popular_near_far_point_is_200_empty(gateway):
    status, body = gateway.handle_popular_near("2000", "2000")
    assert status == 200
    assert body["items"] == []
    assert _log_entries(gateway)[-1].bib_ids == ()


def test_locate_endpoint(gateway):
    status, body = gateway.handle_locate(
        {"observations": [{"beacon_id": "b1", "rssi": -60}, {"beacon_id": "b2", "rssi": -60}]}
    )
    assert status == 200
    assert body["x"] == pytest.approx(5.0)
    assert body["y"] == pytest.approx(0.0)


def test_locate_no_known_beacons_404(gateway):
    status, _ = gateway.handle_locate({"observations": [{"beacon_id": "ghost", "rssi": -60}]})
    assert status == 404


def test_one_request_one_line(gateway):
    gateway.handle_map_data("uiu_undergrad", "uiu_8127460")
    assert len(_log_entries(gateway)) == 1


def test_log_entry_round_trips():
    entry = ApiLogEntry(
        timestamp=datetime(2016, 9, 1, 12, 0, tzinfo=timezone.utc),
        module="recommend",
        uri=POPULAR_URI,
        params={"x": "4362.047852", "y": "3160.110596"},
        status=200,
        bib_ids=("uiu_8378456", "uiu_7072382"),
    )
    assert ApiLogEntry.parse(entry.to_json()) == entry


def test_non_2xx_with_bib_ids_rejected():
    with pytest.raises(ValueError):
        ApiLogEntry(
            timestamp=datetime(2016, 9, 1),
            module="recommend",
            uri="/x",
            status=404,
            bib_ids=("uiu_1",),
        )


def test_log_concatenation_is_valid_log(gateway, tmp_path):
    gateway.handle_map_data("uiu_undergrad", "uiu_8127460")
    gateway.handle_popular_near("4362.047852", "3160.110596")
    doubled = tmp_path / "doubled.jsonl"
    content = gateway.txn_log.path.read_text(encoding="utf-8")
    doubled.write_text(content + content, encoding="utf-8")
    parsed = telemetry.parse_logs([doubled])
    assert len(parsed.entries) == 4
    assert not parsed.malformed


def test_appends_after_a_torn_last_line_are_whole_lines(tmp_path, caplog):
    path = tmp_path / "api.jsonl"
    torn = ApiLogEntry(datetime(2024, 1, 1), "recommend", "/torn").to_json()[:30]
    path.write_text(torn, encoding="utf-8")  # a crash cut the last line short
    txn_log = TransactionLog(path)
    appended = [ApiLogEntry(datetime(2024, 1, 1, 0, minute), "recommend", f"/after/{minute}")
                for minute in (1, 2)]
    for entry in appended:
        txn_log.append(entry)
    txn_log.close()
    parsed = telemetry.parse_logs([path])
    assert parsed.entries == appended
    assert [line_no for _, line_no, _ in parsed.malformed] == [1]  # the torn line alone
    assert any(str(path) in r.getMessage() for r in caplog.records if r.levelno == logging.WARNING)


def test_reopening_a_whole_log_adds_nothing(tmp_path):
    path = tmp_path / "api.jsonl"
    for _ in range(2):
        txn_log = TransactionLog(path)
        txn_log.append(ApiLogEntry(datetime(2024, 1, 1), "recommend", "/x"))
        txn_log.close()
    assert path.read_text(encoding="utf-8").count("\n") == 2
    assert len(telemetry.parse_logs([path]).entries) == 2


class _FailingFile:
    def write(self, line):
        raise OSError("disk full")

    def close(self):
        pass


class _YieldingCountLog(TransactionLog):
    """A log whose error count lets other threads run between its read and its write,
    so that a count taken outside the log's lock loses increments."""

    @property
    def write_errors(self):
        count = self._count
        time.sleep(0)
        return count

    @write_errors.setter
    def write_errors(self, value):
        self._count = value


def test_concurrent_failing_appends_are_each_counted(tmp_path, caplog):
    n_threads, n_appends = 8, 50
    txn_log = _YieldingCountLog(tmp_path / "api.jsonl")
    txn_log._fh.close()
    txn_log._fh = _FailingFile()
    entry = ApiLogEntry(datetime(2024, 1, 1), "recommend", "/x")
    caplog.set_level(logging.CRITICAL, logger="stackrec.gateway")  # no traceback per failure
    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        list(pool.map(lambda _: [txn_log.append(entry) for _ in range(n_appends)],
                      range(n_threads)))
    assert txn_log.write_errors == n_threads * n_appends


_APPENDS_UNDER_A_LIMIT = """
import json, resource, sys
from datetime import datetime
from stackrec.gateway import ApiLogEntry, TransactionLog

path, appends, lowered, restored = sys.argv[1], *map(int, sys.argv[2:])
entries = [ApiLogEntry(datetime(2024, 1, 1, 0, i), "recommend", f"/x/{i:02d}") for i in range(appends)]
line_bytes = len(entries[0].to_json()) + 1
soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
txn_log = TransactionLog(path)
for i, entry in enumerate(entries):
    if i == lowered:  # the file may grow to the middle of this append's line
        resource.setrlimit(resource.RLIMIT_FSIZE, (int((lowered + 0.5) * line_bytes), hard))
    if i == restored:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
    txn_log.append(entry)
txn_log.close()
print(json.dumps({"write_errors": txn_log.write_errors}))
"""


@pytest.mark.parametrize("appends, lowered, restored", [(15, 5, 10), (6, 3, 6)],
                         ids=["limit-raised-again", "limit-still-set-at-close"])
def test_appends_under_a_file_size_limit_count_exactly_the_lines_lost(tmp_path, appends, lowered,
                                                                      restored):
    """A process lowers its own RLIMIT_FSIZE to the middle of a line: the append
    there is cut, those after it fail, and the close is clean.  CPython ignores
    SIGXFSZ, so each write past the limit raises or stops short."""
    pytest.importorskip("resource")
    path = tmp_path / "api.jsonl"
    env = {**os.environ, "PYTHONPATH": str(Path(telemetry.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", _APPENDS_UNDER_A_LIMIT, str(path), str(appends), str(lowered), str(restored)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    write_errors = json.loads(done.stdout)["write_errors"]
    parsed = telemetry.parse_logs([path])
    assert len(parsed.entries) + write_errors == appends
    kept = [*range(lowered), *range(restored, appends)]
    assert [e.uri for e in parsed.entries] == [f"/x/{i:02d}" for i in kept]
    assert [line_no for _, line_no, _ in parsed.malformed] == [lowered + 1]  # the cut line alone


class _ShortFile:
    """A log file whose writes store the first bytes of what they are given, or raise.

    Each outcome is a count of bytes to store, a count less than a whole write
    when negative (-1 stops just before the newline), or None to raise.
    """

    def __init__(self, content: bytes, outcomes):
        self.content = bytearray(content)
        self.outcomes = iter(outcomes)

    def write(self, data):
        outcome = next(self.outcomes)
        if outcome is None:
            raise OSError("disk full")
        written = min(outcome, len(data)) if outcome >= 0 else len(data) + outcome
        self.content += data[:written]
        return written

    def close(self):
        pass


_START = ApiLogEntry(datetime(2024, 1, 1), "recommend", "/start").to_json()


@settings(max_examples=300, deadline=None)
@given(start=st.sampled_from(["", _START + "\n", _START[:30], _START]),
       outcomes=st.lists(st.none() | st.integers(-3, 160), max_size=12))
def test_lines_that_parse_plus_write_errors_equal_the_appends(start, outcomes):
    """Whether the file starts whole, cut inside a line or cut just before a
    newline, and whatever each write stores, the appended lines that parse are
    the appends in order less write_errors of them, and a malformed line is the
    start's cut line or one that a write cut."""
    appended = [ApiLogEntry(datetime(2024, 1, 1), "recommend", f"/x/{i}") for i in range(len(outcomes))]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "api.jsonl"
        path.write_text(start, encoding="utf-8")
        txn_log = TransactionLog(path)
        txn_log._fh.close()
        txn_log._fh = fake = _ShortFile(start.encode("utf-8"), outcomes)
        logging.disable(logging.CRITICAL)  # no traceback per failure
        try:
            for entry in appended:
                txn_log.append(entry)
        finally:
            logging.disable(logging.NOTSET)
        txn_log.close()
        path.write_bytes(fake.content)
        parsed = telemetry.parse_logs([path])
    after_start = [e for e in parsed.entries if e.uri != "/start"]
    assert len(after_start) + txn_log.write_errors == len(appended)
    uris = {e.uri for e in after_start}
    assert after_start == [e for e in appended if e.uri in uris]  # in the order appended
    # the start's whole line, ended by its own newline or by the next line's
    assert len(parsed.entries) - len(after_start) == (start in (_START, _START + "\n"))
    assert len(parsed.malformed) <= (start == _START[:30]) + txn_log.write_errors


# --- live HTTP -------------------------------------------------------------

def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=10) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def test_http_endpoints_end_to_end(gateway):
    with GatewayServer(gateway) as server:
        status, body = _get(server.base_url + MAP_DATA_URI)
        assert status == 200
        assert (body["x"], body["y"], body["shelf_number"]) == (337, 128, 30)

        status, body = _get(server.base_url + POPULAR_URI)
        assert status == 200
        assert [i["bib_id"] for i in body["items"] if i["kind"] == "print"] == [
            "uiu_8378456", "uiu_7072382", "hat_817483", "uiu_7277188", "uiu_8375583",
        ]

        status, _ = _get(server.base_url + "/api/recommend/popularnear?x=1")
        assert status == 400

        status, _ = _get(server.base_url + "/nope")
        assert status == 404

        req = urllib.request.Request(
            server.base_url + "/api/locate",
            data=json.dumps(
                {"observations": [{"beacon_id": "b1", "rssi": -59}]}
            ).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(req, timeout=10) as resp:
            body = json.loads(resp.read())
        assert body["x"] == pytest.approx(0.0)

        for connection in (None, "close"):
            conn = http.client.HTTPConnection(urllib.parse.urlsplit(server.base_url).netloc, timeout=10)
            conn.request("GET", MAP_DATA_URI, headers={"Connection": connection} if connection else {})
            resp = conn.getresponse()
            resp.read()
            conn.close()
            assert [name for name, _ in resp.getheaders()] == (
                ["Server", "Date", "Content-Type", "Content-Length"] + (["Connection"] if connection else [])
            )
            assert resp.getheader("Server") == BaseHTTPRequestHandler.version_string(BaseHTTPRequestHandler)
            sent = email.utils.parsedate_to_datetime(resp.getheader("Date"))
            assert abs((sent - datetime.now(timezone.utc)).total_seconds()) < 60
            assert resp.getheader("Connection") == connection

    entries = _log_entries(gateway)
    # unknown route is not a module transaction
    assert len(entries) == 6


# The epoch, the first and last second of the leap day 2000-02-29, the last
# second of 2016 and the first of 2017, a second with a fraction, and 2**31.
DATE_INSTANTS = [0, 951782400, 951868799, 1483228799, 1483228800, 1700000000.7, 2**31]


def test_date_header_text_matches_the_email_package(monkeypatch):
    server = GatewayServer(None)
    try:
        for instant in DATE_INSTANTS:
            monkeypatch.setattr(time, "time", lambda: instant)
            assert server.http_date() == email.utils.formatdate(instant, usegmt=True)
            assert server.http_date() == email.utils.formatdate(instant, usegmt=True)  # kept for the second
    finally:
        server.server_close()


def test_concurrent_requests_yield_atomic_lines(gateway):
    n = 100
    with GatewayServer(gateway) as server:
        url = server.base_url + POPULAR_URI
        with ThreadPoolExecutor(max_workers=16) as pool:
            statuses = list(pool.map(lambda _: _get(url)[0], range(n)))
    assert statuses == [200] * n
    parsed = telemetry.parse_logs([gateway.txn_log.path])
    assert not parsed.malformed
    assert len(parsed.entries) == n
    assert all(e.uri == POPULAR_URI for e in parsed.entries)


def test_from_config_matches_hand_wired_gateway(gateway, tmp_path):
    configured = Gateway.from_config(
        ServiceConfig.from_json(REFERENCE / "config.json"), tmp_path / "configured.jsonl"
    )
    ext = gateway.stackmap.map_extent
    points = [("4362.047852", "3160.110596")] + [
        (f"{ext.x_min + i * ext.width / 6:.3f}", f"{ext.y_min + j * ext.height / 6:.3f}")
        for i in range(7) for j in range(7)
    ]
    try:
        for bib_id in sorted(gateway.corpus.records) + ["uiu_0"]:
            assert json.dumps(configured.handle_map_data("uiu_undergrad", bib_id)) == json.dumps(
                gateway.handle_map_data("uiu_undergrad", bib_id)
            )
        for x, y in points:
            assert json.dumps(configured.handle_popular_near(x, y)) == json.dumps(
                gateway.handle_popular_near(x, y)
            )
    finally:
        configured.txn_log.close()


@pytest.mark.parametrize("key, value", [
    ("background", "floor.png"),
    ("default_tx_power", -59.0),
    # settings the service once read; their values are now constants
    ("max_items", 5),
    ("max_ebooks", 3),
    ("majority_threshold", 0.5),
    ("path_loss_exponent", 2.0),
    ("k_nearest_beacons", 3),
])
def test_config_rejects_keys_nothing_reads(tmp_path, key, value):
    raw = json.loads((REFERENCE / "config.json").read_text(encoding="utf-8"))
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**raw, key: value}), encoding="utf-8")
    with pytest.raises(ValueError, match=f"unknown config keys \\['{key}'\\]"):
        ServiceConfig.from_json(path)


# --- one answer and one log line for every request ---------------------------

def _log_lines(gw) -> list[dict]:
    return [json.loads(line) for line in gw.txn_log.path.read_text(encoding="utf-8").splitlines()]


def _post_locate(base_url: str, body: bytes, content_length: str | None = None):
    """POST body to /api/locate; with content_length, send that header and no body."""
    conn = http.client.HTTPConnection(urllib.parse.urlsplit(base_url).netloc, timeout=10)
    try:
        conn.putrequest("POST", "/api/locate")
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Content-Length", str(len(body)) if content_length is None else content_length)
        conn.endheaders(body if content_length is None else None)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


BAD_LOCATE_POSTS = [  # (body, Content-Length sent instead of the body's, expected status)
    (b"[1]", None, 400),
    (b"null", None, 400),
    (b'"observations"', None, 400),
    (b"{bad", None, 400),
    (b"\xff\xfe{}", None, 400),
    (b"[" * 50_000, None, 400),
    (b'{"observations": [{"beacon_id": "b1", "rssi": 1e999}]}', None, 400),
    (b'{"observations": [{"beacon_id": ["b1"], "rssi": -60}]}', None, 400),
    (b'{"observations": [{"beacon_id": "b1", "rssi": 1' + b"0" * 400 + b"}]}", None, 400),
    (b"", "abc", 400),
    (b"", "-1", 400),
    (b"", str(MAX_BODY_BYTES + 1), 413),
]


def test_bad_locate_posts_get_4xx_and_one_log_line_each(gateway):
    with GatewayServer(gateway) as server:
        answers = [_post_locate(server.base_url, body, length) for body, length, _ in BAD_LOCATE_POSTS]
    assert [status for status, _ in answers] == [status for _, _, status in BAD_LOCATE_POSTS]
    assert all("error" in payload for _, payload in answers)
    assert [(line["module"], line["uri"], line["status"]) for line in _log_lines(gateway)] == [
        ("wayfinder", "/api/locate", status) for _, _, status in BAD_LOCATE_POSTS
    ]


def _recv_all(sock: socket.socket) -> bytes:
    """Every byte the server sends before it closes."""
    data = b""
    try:
        while chunk := sock.recv(65536):
            data += chunk
    except ConnectionResetError:  # a close with unread input resets, after what was sent
        pass
    return data


def _read_responses(sock: socket.socket) -> list[tuple[int, dict[str, str], bytes]]:
    """(status, lower-cased headers, body) of each response sent before the server closes."""
    data = _recv_all(sock)
    responses = []
    while data:
        head, _, data = data.partition(b"\r\n\r\n")
        status_line, *lines = head.decode("latin-1").split("\r\n")
        headers = {k.strip().lower(): v.strip() for k, _, v in (line.partition(":") for line in lines)}
        length = int(headers["content-length"])
        assert len(data) >= length, "response body cut short"
        responses.append((int(status_line.split()[1]), headers, data[:length]))
        data = data[length:]
    return responses


def _get_request(uri: str) -> bytes:
    return f"GET {uri} HTTP/1.1\r\nHost: localhost\r\n\r\n".encode()


def _locate_request(body: bytes) -> bytes:
    return (
        b"POST /api/locate HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\n"
        b"Content-Length: %d\r\n\r\n" % len(body)
    ) + body


def _pipeline(server, raw: bytes) -> list[tuple[int, dict[str, str], bytes]]:
    """Send raw on one connection, end the client's side, and read every answer."""
    with socket.create_connection(server.server_address[:2], timeout=READ_TIMEOUT_S + 10) as sock:
        sock.sendall(raw)
        sock.shutdown(socket.SHUT_WR)
        return _read_responses(sock)


def test_short_body_gets_408_and_one_log_line_within_read_timeout(gateway):
    with GatewayServer(gateway) as server:
        with socket.create_connection(server.server_address[:2], timeout=READ_TIMEOUT_S + 10) as sock:
            sock.sendall(
                _get_request(MAP_DATA_URI)
                + b"POST /api/locate HTTP/1.1\r\nHost: localhost\r\n"
                b"Content-Type: application/json\r\nContent-Length: 10\r\n\r\n{}"
            )
            sent = time.monotonic()
            answers = _read_responses(sock)  # the server closes after the 408
            waited = time.monotonic() - sent
    assert [status for status, _, _ in answers] == [200, 408]
    assert answers[1][1]["connection"] == "close"
    assert "error" in json.loads(answers[1][2])
    assert waited < READ_TIMEOUT_S + 5
    assert [(line["module"], line["uri"], line["status"]) for line in _log_lines(gateway)] == [
        ("wayfinder", MAP_DATA_URI, 200), ("wayfinder", "/api/locate", 408)
    ]


# --- persistent connections ---------------------------------------------------

def test_idle_keep_alive_connection_closes_unanswered_and_unlogged(gateway):
    with GatewayServer(gateway) as server:
        address = server.server_address[:2]
        with socket.create_connection(address, timeout=READ_TIMEOUT_S + 10) as silent, \
                socket.create_connection(address, timeout=READ_TIMEOUT_S + 10) as idle:
            idle.sendall(_get_request(MAP_DATA_URI))
            sent = time.monotonic()
            answers = _read_responses(idle)  # one answer, then the idle wait times out
            waited = time.monotonic() - sent
            assert silent.recv(1) == b""  # a connection that never sent a request
    assert [(status, headers.get("connection")) for status, headers, _ in answers] == [(200, None)]
    assert READ_TIMEOUT_S - 0.5 < waited < READ_TIMEOUT_S + 5
    assert [(line["uri"], line["status"]) for line in _log_lines(gateway)] == [(MAP_DATA_URI, 200)]


def test_client_reset_closes_quietly_and_leaves_whole_log_lines(gateway, monkeypatch, caplog):
    errors = []
    monkeypatch.setattr(GatewayServer, "handle_error", lambda self, request, address: errors.append(address))
    caplog.set_level(logging.DEBUG, logger="stackrec.gateway")
    with GatewayServer(gateway) as server:
        for _ in range(3):
            sock = socket.create_connection(server.server_address[:2], timeout=READ_TIMEOUT_S + 10)
            # linger 0: close() resets the connection instead of ending it in order
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            sock.sendall(_get_request(POPULAR_URI) * 200)
            assert sock.recv(1) == b"H"  # the first answer has begun
            sock.close()
    assert errors == []
    assert any("connection lost" in r.getMessage() for r in caplog.records)
    parsed = telemetry.parse_logs([gateway.txn_log.path])
    assert parsed.malformed == []
    assert len(parsed.entries) >= 3  # each connection's first answer was sent
    assert {(e.module, e.uri, e.status) for e in parsed.entries} == {("recommend", POPULAR_URI, 200)}


HIDDEN_URI = "/api/recommend/popularnear?x=1.5&y=2.5"
HIDDEN = _get_request(HIDDEN_URI)
CHUNKED_HIDDEN = b"%x\r\n" % len(HIDDEN) + HIDDEN + b"\r\n0\r\n\r\n"

UNREAD_BODY_REQUESTS = [  # (request line, framing headers, body, status, logged uri or None)
    ("POST /api/locate", f"Content-Length: {MAX_BODY_BYTES + 1}", HIDDEN, 413, "/api/locate"),
    ("POST /nope", f"Content-Length: {len(HIDDEN)}", HIDDEN, 404, None),
    (f"GET {POPULAR_URI}", f"Content-Length: {len(HIDDEN)}", HIDDEN, 200, POPULAR_URI),
    (f"DELETE {POPULAR_URI}", f"Content-Length: {len(HIDDEN)}", HIDDEN, 501, None),
    ("POST /api/locate", "Transfer-Encoding: chunked", CHUNKED_HIDDEN, 411, "/api/locate"),
    (f"GET {MAP_DATA_URI}", "Transfer-Encoding: chunked", CHUNKED_HIDDEN, 200, MAP_DATA_URI),
    ("POST /api/locate", "Content-Length: 1_0", HIDDEN, 400, "/api/locate"),
    ("POST /api/locate", f"Content-Length: 2\r\nContent-Length: {2 + len(HIDDEN)}", b"{}" + HIDDEN,
     400, "/api/locate"),
    # a header line that is not a field line: refused, not read as the end of the head
    (f"GET {POPULAR_URI}", f"Bad Line\r\nContent-Length: {len(HIDDEN)}", HIDDEN, 400, None),
    (f"GET {POPULAR_URI}", f"Content-Length : {len(HIDDEN)}", HIDDEN, 400, None),
    (f"GET {POPULAR_URI}", f"X-Note: a\r\n folded\r\nContent-Length: {len(HIDDEN)}", HIDDEN, 400, None),
]


def _unread_body_request(case) -> bytes:
    request_line, framing, body, _, _ = case
    return f"{request_line} HTTP/1.1\r\nHost: localhost\r\n{framing}\r\n\r\n".encode() + body


@pytest.mark.parametrize("case", UNREAD_BODY_REQUESTS, ids=lambda case: f"{case[0]}-{case[3]}")
def test_unread_body_gets_one_answer_and_closes(gateway, case):
    *_, status, logged_uri = case
    with GatewayServer(gateway) as server:
        answers = _pipeline(server, _get_request(MAP_DATA_URI) + _unread_body_request(case))
    assert [(s, headers.get("connection")) for s, headers, _ in answers] == [
        (200, None), (status, "close"),
    ]
    logged = [(line["uri"], line["status"]) for line in _log_lines(gateway)]
    assert logged == [(MAP_DATA_URI, 200)] + ([(logged_uri, status)] if logged_uri else [])


REFUSED_HEADS = [  # request head without its blank line, status
    pytest.param("GARBAGE", 400, id="one-word"),
    pytest.param("GET /", 400, id="http-0.9"),
    pytest.param(f"GET {POPULAR_URI} HTTP/1.1 extra", 400, id="four-words"),
    pytest.param(f"GET {POPULAR_URI} HTTP/1", 400, id="version-without-minor"),
    pytest.param(f"GET {POPULAR_URI} HTTP/x.1", 400, id="version-not-digits"),
    pytest.param(f"GET {POPULAR_URI} HTTP/2.0", 505, id="version-2"),
    pytest.param("GET /" + "a" * MAX_LINE_BYTES + " HTTP/1.1", 414, id="long-request-line"),
    pytest.param("\r\nGET /" + "a" * MAX_LINE_BYTES + " HTTP/1.1", 414, id="long-request-line-after-empty-line"),
    pytest.param(f"GET {POPULAR_URI} HTTP/1.1\r\nX-Long: " + "a" * MAX_LINE_BYTES, 431, id="long-header-line"),
    pytest.param(f"GET {POPULAR_URI} HTTP/1.1" + "\r\nX-Many: 1" * MAX_HEAD_LINES, 431, id="100-header-lines"),
    pytest.param(f"DELETE {POPULAR_URI} HTTP/1.1", 501, id="unsupported-method"),
]


@pytest.mark.parametrize("head, status", REFUSED_HEADS)
def test_refused_head_gets_one_json_answer_and_closes(gateway, head, status):
    with GatewayServer(gateway) as server:
        answers = _pipeline(server, f"{head}\r\n\r\n".encode() + _get_request(MAP_DATA_URI))
    assert [(s, headers.get("connection")) for s, headers, _ in answers] == [(status, "close")]
    assert list(json.loads(answers[0][2])) == ["error"]
    assert _log_lines(gateway) == []


def _http10_request(uri: str, connection: str = "") -> bytes:
    return f"GET {uri} HTTP/1.0\r\n{connection}\r\n".encode()


@pytest.mark.parametrize("connection", [
    pytest.param("Connection: TE, close\r\nTE: trailers\r\n", id="option-list"),
    pytest.param("Connection: keep-alive\r\nConnection: close\r\n", id="second-line"),
    pytest.param("Connection:keep-alive ,CLOSE \r\n", id="spaced-upper-case"),
])
def test_close_among_the_connection_options_closes_after_the_answer(gateway, connection):
    # RFC 9110 7.6.1: Connection is a list of options, over any number of lines
    raw = f"GET {MAP_DATA_URI} HTTP/1.1\r\nHost: localhost\r\n{connection}\r\n".encode()
    with GatewayServer(gateway) as server:
        with socket.create_connection(server.server_address[:2], timeout=READ_TIMEOUT_S + 10) as sock:
            sock.sendall(raw)  # the client's side stays open: only the server can end the input
            started = time.monotonic()
            answers = _read_responses(sock)
            waited = time.monotonic() - started
    assert [(s, headers.get("connection")) for s, headers, _ in answers] == [(200, "close")]
    assert waited < READ_TIMEOUT_S / 2  # closed after the answer, not at the read timeout
    assert len(_log_lines(gateway)) == 1


def test_http10_keep_alive_among_the_connection_options_keeps_the_connection(gateway):
    keep = _http10_request(MAP_DATA_URI, "Connection: Keep-Alive, TE\r\nTE: trailers\r\n")
    with GatewayServer(gateway) as server:
        answers = _pipeline(server, keep + _http10_request(MAP_DATA_URI) + _get_request(MAP_DATA_URI))
    assert [(s, headers.get("connection")) for s, headers, _ in answers] == [
        (200, None), (200, "close"),
    ]


LOCATE_BODY = b'{"observations": [{"beacon_id": "b1", "rssi": -59}]}'

WIRE_CASES = [  # (id, raw requests sent on one connection before the client ends its side)
    ("keep-alive-pipelined", _get_request(MAP_DATA_URI) + _get_request(POPULAR_URI)
     + _get_request("/api/recommend/popularnear?x=1") + _get_request("/api/wayfinder/map_data/c/uiu_0")
     + _get_request("/api/recommend/popularnear?x=2000&y=2000")),
    ("connection-close", f"GET {MAP_DATA_URI} HTTP/1.1\r\nConnection: close\r\n\r\n".encode()
     + _get_request(MAP_DATA_URI)),
    ("http-1.0", _http10_request(MAP_DATA_URI) + _get_request(MAP_DATA_URI)),
    ("http-1.0-keep-alive", _http10_request(MAP_DATA_URI, "Connection: keep-alive\r\n")
     + _http10_request(MAP_DATA_URI) + _get_request(MAP_DATA_URI)),
    ("expect-100-continue", _locate_request(LOCATE_BODY).replace(
        b"\r\n\r\n", b"\r\nExpect: 100-continue\r\n\r\n", 1) + _get_request(MAP_DATA_URI)),
    ("locate-and-bad-json", _locate_request(LOCATE_BODY) + _locate_request(b"{bad")
     + _get_request(MAP_DATA_URI)),
    ("double-slash-path", _get_request("/" + MAP_DATA_URI)),
    ("get-404", _get_request("/nope") + _get_request(MAP_DATA_URI)),
    ("post-404", b"POST /nope HTTP/1.1\r\nHost: localhost\r\n\r\n"
     + b"POST /nope HTTP/1.1\r\nHost: localhost\r\nContent-Length: 2\r\n\r\n{}"
     + _get_request(MAP_DATA_URI)),
    ("locate-411", b"POST /api/locate HTTP/1.1\r\nHost: localhost\r\nTransfer-Encoding: chunked\r\n\r\n"
     + b"2\r\n{}\r\n0\r\n\r\n"),
    ("locate-413", b"POST /api/locate HTTP/1.1\r\nHost: localhost\r\nContent-Length: %d\r\n\r\n{}"
     % (MAX_BODY_BYTES + 1)),
    ("locate-400-bad-length", b"POST /api/locate HTTP/1.1\r\nHost: localhost\r\nContent-Length: abc\r\n\r\n{}"),
] + [
    (f"refused-{param.id}", f"{param.values[0]}\r\n\r\n".encode() + _get_request(MAP_DATA_URI))
    for param in REFUSED_HEADS
]
WIRE_ANSWERS = Path(__file__).parent / "fixtures" / "golden" / "wire_answers.json"


def _wire_answers(server, raw: bytes) -> str:
    """Every byte answered to raw on one connection, with the Date value masked."""
    split = urllib.parse.urlsplit(server.base_url)
    with socket.create_connection((split.hostname, split.port), timeout=READ_TIMEOUT_S + 10) as sock:
        sock.sendall(raw)
        sock.shutdown(socket.SHUT_WR)
        data = _recv_all(sock)
    server_header = f"\r\nServer: BaseHTTP/0.6 Python/{sys.version.split()[0]}\r\n"
    text = data.decode("latin-1").replace(server_header, "\r\nServer: BaseHTTP/0.6 Python/<version>\r\n")
    return re.sub("\r\nDate: [^\r\n]*\r\n", "\r\nDate: <masked>\r\n", text)


def test_raw_answers_are_byte_exact(gateway):
    # The answers in WIRE_ANSWERS were recorded from the http.server-based
    # gateway this loop replaced; the wire contract is theirs, byte for byte.
    with GatewayServer(gateway) as server:
        answers = {case: _wire_answers(server, raw) for case, raw in WIRE_CASES}
    assert answers == json.loads(WIRE_ANSWERS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("empty, answered", [
    pytest.param(b"\r\n", 2, id="crlf"),
    pytest.param(b"\n", 2, id="lf"),
    pytest.param(b"\r\n" * MAX_BLANK_LINES, 2, id="most-skipped"),
    pytest.param(b"\r\n" * (MAX_BLANK_LINES + 1), 1, id="one-more-closes"),
])
def test_empty_lines_between_pipelined_requests_are_skipped(gateway, empty, answered):
    with GatewayServer(gateway) as server:
        answers = _pipeline(server, _get_request(MAP_DATA_URI) + empty + _get_request(MAP_DATA_URI))
    assert [status for status, _, _ in answers] == [200] * answered
    assert [(line["uri"], line["status"]) for line in _log_lines(gateway)] == [(MAP_DATA_URI, 200)] * answered


_TOKEN = st.text(alphabet="!#$%&'*+-.^_`|~" + string.ascii_letters + string.digits, min_size=1, max_size=12)
_CASES = st.sampled_from([str, str.lower, str.upper, str.swapcase, str.title])
_VALUE = st.text(alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E) | st.just("\t"), max_size=16)


@st.composite
def _header_block(draw) -> tuple[list[str], bytes]:
    """Distinct field names and a head that sends them, repeated and in mixed case."""
    names = draw(st.lists(_TOKEN, min_size=1, max_size=4, unique_by=str.lower))
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        name = draw(_CASES)(draw(st.sampled_from(names)))
        space = draw(st.sampled_from(["", " ", "  ", "\t"]))
        lines.append(f"{name}:{space}{draw(_VALUE)}\r\n")
    return names, ("".join(lines) + "\r\n").encode("ascii")


@settings(max_examples=300, deadline=None)
@given(block=_header_block())
def test_read_headers_matches_the_stdlib_parser(block):
    names, head = block
    ours = read_headers(io.BytesIO(head))
    oracle = http.client.parse_headers(io.BytesIO(head))
    for name in names:
        assert ours.get(name.lower(), [None])[0] == oracle.get(name)
        assert ours.get(name.lower(), []) == oracle.get_all(name, [])


class _CountingConnection(http.client.HTTPConnection):
    connects = 0

    def connect(self):
        self.connects += 1
        super().connect()


def test_sequential_requests_on_one_connection_do_not_stall(gateway):
    # A response sent as two writes waits on the client's delayed ACK, about
    # 40 ms, so the 50 requests below would take 2 s or more.
    with GatewayServer(gateway) as server:
        conn = _CountingConnection(urllib.parse.urlsplit(server.base_url).netloc, timeout=10)
        started = time.monotonic()
        statuses = []
        for i in range(50):
            conn.request("GET", POPULAR_URI if i % 2 else MAP_DATA_URI)
            resp = conn.getresponse()
            resp.read()
            statuses.append(resp.status)
        took = time.monotonic() - started
        conn.close()
    assert statuses == [200] * 50
    assert conn.connects == 1
    assert took < 1.0


def test_concurrent_keep_alive_clients_are_served_and_closed_at_exit(gateway):
    n_clients, n_requests = 8, 10
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with GatewayServer(gateway) as server:

            def client(_):  # leaves its connection open for the server to close
                conn = _CountingConnection(urllib.parse.urlsplit(server.base_url).netloc, timeout=10)
                statuses = []
                for _ in range(n_requests):
                    conn.request("GET", POPULAR_URI)
                    resp = conn.getresponse()
                    resp.read()
                    statuses.append(resp.status)
                return conn, statuses

            with ThreadPoolExecutor(max_workers=n_clients) as pool:
                results = list(pool.map(client, range(n_clients)))
    finally:
        sys.setswitchinterval(interval)
    for conn, statuses in results:
        try:
            assert statuses == [200] * n_requests
            assert conn.connects == 1
            conn.sock.settimeout(0.1)
            assert conn.sock.recv(1) == b""  # closed by the time the server stopped
        finally:
            conn.close()
    assert len(_log_lines(gateway)) == n_clients * n_requests


def test_exit_does_not_wait_for_an_idle_keep_alive_connection(gateway):
    with GatewayServer(gateway) as server:
        conn = http.client.HTTPConnection(urllib.parse.urlsplit(server.base_url).netloc, timeout=10)
        conn.request("GET", MAP_DATA_URI)
        conn.getresponse().read()
        exiting = time.monotonic()
    took = time.monotonic() - exiting
    try:
        conn.sock.settimeout(0.1)
        assert conn.sock.recv(1) == b""  # already closed by the server
    finally:
        conn.close()
    assert took < READ_TIMEOUT_S / 5
    assert len(_log_lines(gateway)) == 1


def test_exit_returns_promptly_after_a_request(gateway):
    with GatewayServer(gateway) as server:
        assert _get(server.base_url + MAP_DATA_URI)[0] == 200
        exiting = time.monotonic()
    assert time.monotonic() - exiting < 0.2  # shutdown wakes the accept loop through its socket pair


def test_twenty_exits_in_a_row_take_under_half_a_second(gateway):
    took = 0.0
    for _ in range(20):
        with GatewayServer(gateway) as server:
            assert _get(server.base_url + MAP_DATA_URI)[0] == 200
            exiting = time.monotonic()
        took += time.monotonic() - exiting
    assert took < 0.5  # an accept loop that polled every 0.05 s would take 1 s in the polls alone


@pytest.fixture()
def started(monkeypatch):
    """Each thread started from now on, with the thread that started it."""
    started = []
    start = threading.Thread.start

    def recording(thread):
        started.append((threading.current_thread(), thread))
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording)
    return started


def _connection_threads(server, started) -> list[threading.Thread]:
    return [thread for starter, thread in started if starter is server.thread]


def _idle_threads(server) -> int:
    with server._lock:
        return server._idle


def test_sequential_connections_reuse_the_connection_threads(gateway, started):
    with GatewayServer(gateway) as server:
        for n in range(30):
            if n:  # connect only once the previous connection's thread waits again
                deadline = time.monotonic() + 5
                while _idle_threads(server) != 1 and time.monotonic() < deadline:
                    time.sleep(0.001)
                assert _idle_threads(server) == 1
            assert _get(server.base_url + MAP_DATA_URI)[0] == 200  # one connection each
    assert len(_connection_threads(server, started)) == 1
    assert len(_log_lines(gateway)) == 30


def test_threads_beyond_the_open_connections_end_after_read_timeout(gateway, started, monkeypatch):
    monkeypatch.setattr("stackrec.gateway.READ_TIMEOUT_S", 0.2)
    with GatewayServer(gateway) as server:
        socks = [socket.create_connection(server.server_address[:2], timeout=10) for _ in range(8)]
        for sock in socks:
            sock.sendall(_get_request(MAP_DATA_URI))
        for sock in socks:
            assert sock.recv(1) == b"H"  # answered, and held open by its own thread
        burst = _connection_threads(server, started)
        assert len(burst) == 8
        for sock in socks:
            sock.close()
        deadline = time.monotonic() + 5
        while any(thread.is_alive() for thread in burst) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not any(thread.is_alive() for thread in burst)
        assert _get(server.base_url + MAP_DATA_URI)[0] == 200  # served by a new thread
    assert len(_connection_threads(server, started)) == 9
    assert len(_log_lines(gateway)) == 9


def test_each_request_gets_one_answer_while_threads_come_and_go(gateway, monkeypatch):
    monkeypatch.setattr("stackrec.gateway.READ_TIMEOUT_S", 0.01)
    n_clients, n_requests = 4, 25
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with GatewayServer(gateway) as server:

            def client(seed):  # one connection per request, some just before a thread ends
                rng = random.Random(seed)
                statuses = []
                for _ in range(n_requests):
                    time.sleep(rng.choice((0, 0, 0.005, 0.01, 0.015)))
                    answers = _pipeline(server, _get_request(MAP_DATA_URI))
                    statuses.append([status for status, _, _ in answers])
                return statuses

            with ThreadPoolExecutor(max_workers=n_clients) as pool:
                results = list(pool.map(client, range(n_clients)))
            results.append(client(n_clients))  # and alone, one after another
    finally:
        sys.setswitchinterval(interval)
    assert results == [[[200]] * n_requests] * (n_clients + 1)
    assert len(_log_lines(gateway)) == (n_clients + 1) * n_requests


def test_a_connection_that_raises_does_not_stop_the_next(gateway, started, monkeypatch):
    errors = []
    monkeypatch.setattr(GatewayServer, "handle_error", lambda self, request, address: errors.append(address))
    handle, calls = Gateway.handle_map_data, itertools.count()

    def failing_first(self, *args):
        if next(calls) == 0:
            raise RuntimeError("handler fault")
        return handle(self, *args)

    monkeypatch.setattr(Gateway, "handle_map_data", failing_first)
    with GatewayServer(gateway) as server:
        assert _pipeline(server, _get_request(MAP_DATA_URI)) == []  # closed unanswered
        for _ in range(3):
            assert [status for status, _, _ in _pipeline(server, _get_request(MAP_DATA_URI))] == [200]
        assert _connection_threads(server, started)[0].is_alive()  # back to waiting, not ended
    assert len(errors) == 1
    assert len(_log_lines(gateway)) == 3


def test_expect_100_continue_is_answered_before_the_body(gateway):
    body = json.dumps({"observations": [{"beacon_id": "b1", "rssi": -59}]}).encode()
    head, _, _ = _locate_request(body).partition(b"\r\n\r\n")
    with GatewayServer(gateway) as server:
        with socket.create_connection(server.server_address[:2], timeout=READ_TIMEOUT_S / 2) as sock:
            sock.sendall(head + b"\r\nExpect: 100-continue\r\n\r\n")
            interim = sock.recv(4096)  # times out if the interim answer is never flushed
            sock.sendall(body)
            sock.shutdown(socket.SHUT_WR)
            answers = _read_responses(sock)
    assert interim.startswith(b"HTTP/1.1 100 ")
    assert [status for status, _, _ in answers] == [200]
    assert json.loads(answers[0][2])["x"] == pytest.approx(0.0)


@pytest.mark.parametrize("x, y", [("nan", "1"), ("1", "inf"), ("-Infinity", "2"), ("1e999", "3")])
def test_popular_near_non_finite_400_logged(gateway, x, y):
    status, body = gateway.handle_popular_near(x, y)
    assert status == 400
    assert "finite" in body["error"]
    entry = _log_entries(gateway)[-1]
    assert (entry.module, entry.status, entry.params) == ("recommend", 400, {"x": x, "y": y})


@pytest.mark.parametrize("query", ["x=1", "y=2", ""])
def test_popular_near_logs_only_the_parameters_sent(gateway, query):
    uri = "/api/recommend/popularnear" + (f"?{query}" if query else "")
    with GatewayServer(gateway) as server:
        status, _ = _get(server.base_url + uri)
    assert status == 400
    assert _log_lines(gateway)[-1]["uri"] == uri


def test_popular_near_logs_a_refused_value_quoted_so_no_valid_request_shares_its_uri(gateway):
    with GatewayServer(gateway) as server:
        status, _ = _get(server.base_url + "/api/recommend/popularnear?x=1%26y%3D2")
    assert status == 400
    line = _log_lines(gateway)[-1]
    assert (line["uri"], line["params"]) == ("/api/recommend/popularnear?x=1%26y%3D2", {"x": "1&y=2"})


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
_OBSERVATION = st.fixed_dictionaries({
    "beacon_id": st.sampled_from(["b1", "b2", "b3", "ghost"]) | _JSON,
    "rssi": st.floats(-130, 10) | _JSON,
})
_LOCATE_BODY = st.fixed_dictionaries({"observations": st.lists(_OBSERVATION | _JSON, max_size=4)})


def _is_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


_BAD_LENGTH = (
    st.text(alphabet="0123456789abc.-+_eE", max_size=6).filter(lambda t: not _is_int(t))
    | st.integers(max_value=-1).map(str)
    | st.integers(min_value=MAX_BODY_BYTES + 1, max_value=10**12).map(str)
)


def test_fuzz_locate_posts_one_answer_one_log_line(gateway):
    answers = []
    with GatewayServer(gateway) as server:

        @settings(max_examples=150, deadline=None)
        @given(
            body=st.binary(max_size=64)
            | (_JSON | _LOCATE_BODY).map(lambda v: json.dumps(v).encode()),
            content_length=st.none() | _BAD_LENGTH,
        )
        def post(body, content_length):
            status, payload = _post_locate(server.base_url, body, content_length)
            answers.append(status)
            last = _log_lines(gateway)[-1]
            assert len(_log_lines(gateway)) == len(answers)
            assert (last["module"], last["uri"], last["status"]) == ("wayfinder", "/api/locate", status)
            assert status in (200, 400, 404, 413)
            assert (status == 200) == ("error" not in payload)
            if content_length is not None:
                assert status == (400 if not _is_int(content_length) or int(content_length) < 0 else 413)

        post()
    assert len(_log_lines(gateway)) == len(answers)


def _finite(value: str | None) -> bool:
    try:
        return value is not None and math.isfinite(float(value))
    except ValueError:
        return False


_QUERY_VALUE = (
    st.none()
    | st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=10)
    | st.floats().map(repr)
    | st.sampled_from(["nan", "-inf", "Infinity", "1e999", " 12.5 ", "4362.047852"])
)


def test_fuzz_popular_near_one_answer_one_log_line(gateway):
    answers = []
    with GatewayServer(gateway) as server:

        @settings(max_examples=150, deadline=None)
        @given(x=_QUERY_VALUE, y=_QUERY_VALUE)
        def get(x, y):
            params = {k: v for k, v in (("x", x), ("y", y)) if v is not None}
            status, _ = _get(
                f"{server.base_url}/api/recommend/popularnear?{urllib.parse.urlencode(params)}"
            )
            answers.append(status)
            lines = _log_lines(gateway)
            assert len(lines) == len(answers)
            assert (lines[-1]["module"], lines[-1]["status"], lines[-1]["params"]) == (
                "recommend", status, params,
            )
            assert status == (200 if _finite(x) and _finite(y) else 400)

        get()
    assert len(_log_lines(gateway)) == len(answers)


_PIPELINED = st.lists(
    st.tuples(_QUERY_VALUE, _QUERY_VALUE).map(lambda xy: ("popularnear", xy))
    | (st.binary(max_size=64) | (_JSON | _LOCATE_BODY).map(lambda v: json.dumps(v).encode())).map(
        lambda body: ("locate", body)),
    min_size=1,
    max_size=6,
)


def _refuse_constant(name: str):
    """A json.loads parse_constant hook: NaN and Infinity are not JSON (RFC 8259)."""
    raise AssertionError(f"answer body holds {name}")


_EMPTY_LINES = st.sampled_from([b"", b"", b"\r\n", b"\n", b"\r\n\n", b"\r\n" * MAX_BLANK_LINES])


def test_fuzz_pipelined_requests_answered_in_order_one_log_line_each(gateway):
    logged_total = 0
    with GatewayServer(gateway) as server:

        @settings(max_examples=60, deadline=None)
        @given(requests=_PIPELINED, unread=st.none() | st.sampled_from(UNREAD_BODY_REQUESTS),
               empty=st.lists(_EMPTY_LINES, min_size=8, max_size=8))
        def pipeline(requests, unread, empty):
            nonlocal logged_total
            sent, expected = [], []  # (logged uri or None, status or None, echoed location or None)
            for kind, value in requests:
                if kind == "locate":
                    sent.append(_locate_request(value))
                    expected.append(("/api/locate", None, None))
                    continue
                x, y = value
                params = {k: v for k, v in (("x", x), ("y", y)) if v is not None}
                sent.append(_get_request(f"/api/recommend/popularnear?{urllib.parse.urlencode(params)}"))
                ok = _finite(x) and _finite(y)
                query = "&".join(f"{k}={urllib.parse.quote(v, safe='')}" for k, v in params.items())
                uri = "/api/recommend/popularnear" + (f"?{query}" if query else "")
                expected.append((uri, 200 if ok else 400,
                                 {"x": float(x), "y": float(y)} if ok else None))
            if unread is not None:  # its answer closes the connection: the GET after it goes unread
                sent += [_unread_body_request(unread), _get_request(MAP_DATA_URI)]
                expected.append((unread[4], unread[3], None))
            # stray empty lines before each request, which the server skips
            raw = b"".join(lines + request for lines, request in zip(empty, sent))
            before = len(_log_lines(gateway))
            answers = _pipeline(server, raw)
            lines = _log_lines(gateway)[before:]

            assert len(answers) == len(expected)
            for (status, _, body), (_, want, location) in zip(answers, expected):
                assert status == want if want is not None else status in (200, 400, 404)
                decoded = json.loads(body, parse_constant=_refuse_constant)
                if location is not None:
                    assert decoded["location"] == location
            logged = [(uri, status) for (status, _, _), (uri, _, _) in zip(answers, expected) if uri]
            assert [(line["uri"], line["status"]) for line in lines] == logged
            logged_total += len(logged)

        pipeline()
    assert len(_log_lines(gateway)) == logged_total

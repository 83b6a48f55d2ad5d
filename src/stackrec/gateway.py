"""HTTP middleware: wayfinding and recommendation endpoints plus transaction logs.

Two wire-attested endpoints:

    GET /api/wayfinder/map_data/{collection}/{bib_id}
    GET /api/recommend/popularnear?x=<real>&y=<real>

plus POST /api/locate for clients without their own positioning.  Every
handled request appends exactly one JSON line to the transaction log; that
log is the input to the telemetry module.
"""

from __future__ import annotations

import json
import logging
import math
import re
import socket
import threading
from dataclasses import dataclass, field
from datetime import datetime, timezone
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable
from urllib.parse import parse_qsl, urlsplit

from . import corpus, lccn, locate, stacksmap
from .config import ServiceConfig
from .corpus import CorpusStore
from .lccn import ClassificationOutline
from .locate import Beacon, BeaconObservation, NoKnownBeacons
from .recommend import Recommender
from .stacksmap import StackMap

log = logging.getLogger(__name__)

MODULES = (
    "wayfinder",
    "recommend",
    "catalog",
    "journal",
    "display",
    "hoot",
    "topicspace",
    "account",
    "citation",
)


@dataclass(frozen=True)
class ApiLogEntry:
    timestamp: str                      # ISO 8601
    module: str
    uri: str
    params: dict[str, str] = field(default_factory=dict)
    status: int = 200
    bib_ids: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.uri:
            raise ValueError("uri must be non-empty")
        if self.module not in MODULES:
            raise ValueError(f"unknown module {self.module!r}")
        if not (200 <= self.status < 300) and self.bib_ids:
            raise ValueError("bib_ids must be empty on non-2xx entries")

    def to_json(self) -> str:
        return json.dumps(
            {
                "timestamp": self.timestamp,
                "module": self.module,
                "uri": self.uri,
                "params": self.params,
                "status": self.status,
                "bib_ids": list(self.bib_ids),
            },
            sort_keys=False,
        )

    @classmethod
    def from_json(cls, line: str) -> "ApiLogEntry":
        """One log line as an entry; ValueError or KeyError when it is not one."""
        return cls.parse(line)[0]

    @classmethod
    def parse(cls, line: str) -> tuple["ApiLogEntry", datetime]:
        """One log line as an entry and the instant it is stamped with.

        A stamp without a UTC offset is read as UTC, so instants from naive
        (simulated-clock) and offset-aware (live-clock) stamps compare.
        ValueError or KeyError when the line is not an entry.
        """
        raw = json.loads(line)
        if not isinstance(raw, dict):
            raise ValueError(f"log line is a JSON {type(raw).__name__}, not an object")
        timestamp, status = raw["timestamp"], raw["status"]
        params, bib_ids = raw.get("params", {}), raw.get("bib_ids", [])
        if not (
            isinstance(timestamp, str) and isinstance(raw["module"], str)
            and isinstance(raw["uri"], str) and type(status) is int
            and isinstance(params, dict) and all(isinstance(v, str) for v in params.values())
            and isinstance(bib_ids, list) and all(isinstance(b, str) for b in bib_ids)
        ):
            raise ValueError("log line has a field of the wrong type")
        stamped = datetime.fromisoformat(timestamp)  # ValueError unless ISO 8601
        if stamped.tzinfo is None:
            stamped = stamped.replace(tzinfo=timezone.utc)
        return cls(timestamp, raw["module"], raw["uri"], params, status, tuple(bib_ids)), stamped


class TransactionLog:
    """Append-only JSON Lines sink with line-atomic writes."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._fh = open(self.path, "a", encoding="utf-8")
        self.write_errors = 0

    def append(self, entry: ApiLogEntry) -> None:
        line = entry.to_json() + "\n"
        try:
            with self._lock:
                self._fh.write(line)
                self._fh.flush()
        except OSError:
            self.write_errors += 1
            log.exception("transaction log write failed")

    def close(self) -> None:
        with self._lock:
            self._fh.close()


def _utc_now() -> datetime:
    return datetime.now(timezone.utc)


class Gateway:
    """Request handlers over immutable stores; logging is the only mutation."""

    def __init__(
        self,
        stackmap_: StackMap,
        corpus_: CorpusStore,
        outline: ClassificationOutline,
        txn_log: TransactionLog,
        beacons: list[Beacon] | None = None,
        radius: float | None = None,
        clock: Callable[[], datetime] | None = None,
    ):
        self.stackmap = stackmap_
        self.corpus = corpus_
        self.outline = outline
        self.txn_log = txn_log
        self.beacons = beacons or []
        self.recommender = Recommender(stackmap_, corpus_, outline, radius)
        self.clock = clock or _utc_now

    @classmethod
    def from_config(
        cls,
        cfg: ServiceConfig,
        log_path: str | Path,
        clock: Callable[[], datetime] | None = None,
    ) -> "Gateway":
        """Load the data files cfg names and wire a gateway over them.

        The transaction log at log_path is opened only once every file has
        loaded, so a failed load leaves no log behind.  The caller closes
        ``txn_log``.
        """
        store = corpus.load_corpus(cfg.catalog, cfg.circulation, cfg.articles, cfg.databases)
        stack, outline = stacksmap.load_stackmap(cfg.stackmap), lccn.load_outline(cfg.outline)
        beacons = locate.load_beacons(cfg.beacons) if cfg.beacons else []
        return cls(stack, store, outline, TransactionLog(log_path),
                   beacons=beacons, radius=cfg.radius, clock=clock)

    def _timestamp(self) -> str:
        return self.clock().isoformat()

    def _log(self, module: str, uri: str, params: dict[str, str], status: int,
             bib_ids: tuple[str, ...] = ()) -> None:
        self.txn_log.append(
            ApiLogEntry(
                timestamp=self._timestamp(),
                module=module,
                uri=uri,
                params=params,
                status=status,
                bib_ids=bib_ids if 200 <= status < 300 else (),
            )
        )

    def refuse(self, module: str, uri: str, params: dict[str, str], status: int,
               message: str) -> tuple[int, dict]:
        """Log a refused request and return its error answer."""
        self._log(module, uri, params, status)
        return status, {"error": message}

    def handle_map_data(self, collection: str, bib_id: str) -> tuple[int, dict]:
        uri = f"/api/wayfinder/map_data/{collection}/{bib_id}"
        params = {"collection": collection, "bib_id": bib_id}
        record = self.corpus.records.get(bib_id)
        if record is None:
            return self.refuse("wayfinder", uri, params, 404, f"unknown bib_id {bib_id!r}")
        shelf = stacksmap.shelf_for_call(record.call_number, self.stackmap)
        if shelf is None:
            return self.refuse("wayfinder", uri, params, 404,
                               f"call number not in open stacks: {record.call_number}")
        cx, cy = shelf.bounds.center
        self._log("wayfinder", uri, params, 200, (bib_id,))
        return 200, {
            "v": 1,
            "x": round(cx),
            "y": round(cy),
            "shelf_number": shelf.shelf_number,
            "call_number": lccn.canonical_format(record.call_number),
        }

    def handle_popular_near(self, x_raw: str | None, y_raw: str | None) -> tuple[int, dict]:
        uri = f"/api/recommend/popularnear?x={x_raw}&y={y_raw}"
        params = {k: v for k, v in (("x", x_raw), ("y", y_raw)) if v is not None}
        try:
            if x_raw is None or y_raw is None:
                raise ValueError("x and y are required")
            x, y = float(x_raw), float(y_raw)
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError("x and y must be finite")
        except ValueError as exc:
            return self.refuse("recommend", uri, params, 400, str(exc))
        result = self.recommender.recommend_near((x, y))
        self._log("recommend", uri, params, 200, tuple(result.bib_ids))
        return 200, result.to_dict()

    def handle_locate(self, body: object) -> tuple[int, dict]:
        """Position from a decoded JSON body; anything but an observations object is a 400."""
        uri = "/api/locate"
        if not isinstance(body, dict):
            return self.refuse("wayfinder", uri, {}, 400, "body must be a JSON object")
        try:
            observations = []
            for o in body.get("observations", []):
                if not isinstance(o["beacon_id"], str):
                    raise TypeError("beacon_id must be a string")
                observations.append(BeaconObservation(o["beacon_id"], float(o["rssi"])))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            return self.refuse("wayfinder", uri, {}, 400, f"bad observation payload: {exc}")
        try:
            loc = locate.estimate_position(observations, self.beacons)
        except NoKnownBeacons as exc:
            return self.refuse("wayfinder", uri, {}, 404, str(exc))
        self._log("wayfinder", uri, {}, 200)
        return 200, {"v": 1, "x": loc.x, "y": loc.y, "confidence_radius": loc.confidence_radius}


_MAP_DATA_RE = re.compile(r"^/api/wayfinder/map_data/([^/]+)/([^/]+)$")
_DIGITS = re.compile(r"[0-9]+")

# Largest POST body read; a beacon scan with hundreds of readings is a few KB.
MAX_BODY_BYTES = 64 * 1024
# Longest wait for any one read or write on a client's socket.  A request whose
# body stops short of its Content-Length is answered 408 once a read waits this
# long; a connection that sends no further request is closed unanswered.
READ_TIMEOUT_S = 5.0


class _Handler(BaseHTTPRequestHandler):
    """HTTP/1.1 with persistent connections.

    A connection stays open between requests until the client closes it, sends
    ``Connection: close``, or sends no request for READ_TIMEOUT_S.  The server
    closes it after any answer whose request body it did not read in full, so
    that no unread body is ever parsed as a next request.
    """

    gateway: Gateway  # set on the server class
    protocol_version = "HTTP/1.1"
    timeout = READ_TIMEOUT_S  # socket timeout, set on each connection by StreamRequestHandler
    # Buffer each response so that handle_one_request's flush sends its headers
    # and body in one write.  Sent as two, the body waits for the client's
    # delayed ACK of the headers (Nagle), some 40 ms a request.
    wbufsize = -1

    def _send(self, status: int, body: dict) -> None:
        payload = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(payload)

    def handle_expect_100(self) -> bool:
        proceed = super().handle_expect_100()
        self.wfile.flush()  # the client waits for the interim answer before it sends the body
        return proceed

    def _body_length(self) -> int | None:
        """The declared body length: 0 for none, None unless it is one Content-Length of digits."""
        lengths = self.headers.get_all("Content-Length", [])
        if "Transfer-Encoding" in self.headers or len(lengths) > 1:
            return None
        if not lengths:
            return 0
        text = lengths[0].strip(" \t")
        return int(text) if _DIGITS.fullmatch(text) else None

    def _close_if_body(self) -> None:
        """Close after this answer if the request carries a body that is left unread."""
        if self._body_length() != 0:
            self.close_connection = True

    def do_GET(self):  # noqa: N802 (BaseHTTPRequestHandler API)
        self._close_if_body()
        split = urlsplit(self.path)
        m = _MAP_DATA_RE.match(split.path)
        if m:
            status, body = self.gateway.handle_map_data(m.group(1), m.group(2))
            self._send(status, body)
            return
        if split.path == "/api/recommend/popularnear":
            q = dict(parse_qsl(split.query, keep_blank_values=True))
            status, body = self.gateway.handle_popular_near(q.get("x"), q.get("y"))
            self._send(status, body)
            return
        self._send(404, {"error": "no such endpoint"})

    def do_POST(self):  # noqa: N802
        if urlsplit(self.path).path != "/api/locate":
            self._close_if_body()
            self._send(404, {"error": "no such endpoint"})
            return
        self._send(*self._locate())

    def _locate(self) -> tuple[int, dict]:
        def refuse(status: int, message: str) -> tuple[int, dict]:
            self.close_connection = True  # the unread rest would be read as the next request
            return self.gateway.refuse("wayfinder", "/api/locate", {}, status, message)

        if "Transfer-Encoding" in self.headers:
            return refuse(411, "send the body with a Content-Length, not a Transfer-Encoding")
        length = self._body_length()
        if length is None:
            return refuse(400, "Content-Length must be one non-negative integer")
        if length > MAX_BODY_BYTES:
            return refuse(413, f"body over {MAX_BODY_BYTES} bytes")
        try:
            raw = self.rfile.read(length)
        except TimeoutError:
            return refuse(408, f"body shorter than Content-Length after {READ_TIMEOUT_S:g} s")
        if len(raw) < length:
            return refuse(400, "connection closed before the body's Content-Length")
        try:
            body = json.loads(raw or b"{}")
        except (ValueError, RecursionError):  # malformed JSON, bad UTF-8, or nested too deep
            # read in full, so the connection stays open
            return self.gateway.refuse("wayfinder", "/api/locate", {}, 400, "body must be JSON")
        return self.gateway.handle_locate(body)

    def log_message(self, fmt, *args):
        log.debug("http: " + fmt, *args)


class _Server(ThreadingHTTPServer):
    """A thread per connection, with the open connections kept for shutdown."""

    daemon_threads = False  # server_close joins every connection's thread

    def __init__(self, *args):
        super().__init__(*args)
        self._lock = threading.Lock()
        self._connections: set[socket.socket] = set()

    def process_request(self, request, client_address):
        with self._lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self._lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def end_reads(self) -> None:
        """End input on every open connection.

        Each handler finishes the request it is answering, then reads end of
        input instead of waiting READ_TIMEOUT_S for a next request.
        """
        with self._lock:
            for sock in self._connections:
                try:
                    sock.shutdown(socket.SHUT_RD)
                except OSError:  # the client has already gone
                    pass


class GatewayServer:
    """A gateway served on a background thread; usable as a context manager."""

    def __init__(self, gateway: Gateway, host: str = "127.0.0.1", port: int = 0):
        handler = type("GatewayHandler", (_Handler,), {"gateway": gateway})
        self.httpd = _Server((host, port), handler)
        # shutdown() returns once serve_forever next wakes, at most a poll interval later
        self.thread = threading.Thread(
            target=self.httpd.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )

    @property
    def base_url(self) -> str:
        host, port = self.httpd.server_address[:2]
        return f"http://{host}:{port}"

    def __enter__(self) -> "GatewayServer":
        self.thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self.httpd.shutdown()
        self.httpd.end_reads()
        self.httpd.server_close()  # returns once every connection is answered and closed
        self.thread.join(timeout=5)

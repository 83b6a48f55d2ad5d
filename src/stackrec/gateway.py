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
import os
import re
import selectors
import socket
import socketserver
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable
from urllib.parse import parse_qsl, quote, urlsplit
from wsgiref.handlers import format_date_time

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
# A parsed entry's module is the MODULES string itself, not a copy per line.
_MODULE_NAMES = {m: m for m in MODULES}


@dataclass(frozen=True, slots=True)
class ApiLogEntry:
    timestamp: datetime                 # as stamped: naive or offset-aware
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

    @property
    def instant(self) -> datetime:
        """The stamp as an instant; a stamp without a UTC offset is read as UTC,
        so naive (simulated-clock) and offset-aware (live-clock) stamps compare."""
        stamp = self.timestamp
        return stamp if stamp.tzinfo is not None else stamp.replace(tzinfo=timezone.utc)

    def to_json(self) -> str:
        return json.dumps(
            {
                "timestamp": self.timestamp.isoformat(),
                "module": self.module,
                "uri": self.uri,
                "params": self.params,
                "status": self.status,
                "bib_ids": list(self.bib_ids),
            },
            sort_keys=False,
        )

    @classmethod
    def parse(cls, line: str) -> "ApiLogEntry":
        """One log line as an entry; ValueError or KeyError when it is not one.

        A line nested too deep for the decoder, or with a lone UTF-16
        surrogate escape (``\\ud800``) in any string, is not an entry: no
        writer could encode it as UTF-8.
        """
        try:
            raw = json.loads(line)
            if "\\ud" in line or "\\uD" in line:  # only an escape decodes to a surrogate
                json.dumps(raw, ensure_ascii=False).encode("utf-8")  # UnicodeEncodeError is a ValueError
        except RecursionError:
            raise ValueError("log line is nested too deep") from None
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
        module = _MODULE_NAMES.get(raw["module"], raw["module"])
        return cls(stamped, module, raw["uri"], params, status, tuple(bib_ids))


class TransactionLog:
    """Append-only JSON Lines sink: each line is one unbuffered write.

    Nothing waits in a buffer, so there is nothing to flush and ``close``
    can neither lose a line nor fail on one.  While the file ends inside a
    line, cut short by a crash or by a write that stopped short, the next
    line is written with a newline in front, so that the cut line alone is
    malformed.  A line cut just before its own newline is whole once that
    newline ends it.  ``write_errors`` counts the lines that did not reach
    the file whole, so the lines that parse plus ``write_errors`` equal the
    appends.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()  # guards the count, the flag and the order of lines
        self._fh = open(self.path, "a+b", buffering=0)
        size = self._fh.seek(0, os.SEEK_END)
        self._fh.seek(max(size - 1, 0))
        self._inside_line = self._fh.read(1) not in (b"", b"\n")
        if self._inside_line:
            log.warning("transaction log %s ends inside a line; the next line starts a new one", self.path)
        self.write_errors = 0

    def append(self, entry: ApiLogEntry) -> None:
        line = (entry.to_json() + "\n").encode("utf-8")
        with self._lock:
            data = b"\n" + line if self._inside_line else line
            try:
                written = self._fh.write(data)  # one system call: it may stop short
            except OSError:
                written = 0
                log.exception("transaction log write failed")
            if written:  # after a failed or empty write the file ends where it did
                self._inside_line = data[written - 1] != ord("\n")
            if written < len(data) - 1:
                self.write_errors += 1  # counted under the lock, so no concurrent count is lost

    def close(self) -> None:
        with self._lock:
            self._fh.close()


def _loggable(text: str) -> str:
    """text with each lone surrogate written as its backslash escape, so a log line can hold it."""
    return text if text.isascii() else text.encode("utf-8", "backslashreplace").decode("utf-8")


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

    def _log(self, module: str, uri: str, params: dict[str, str], status: int,
             bib_ids: tuple[str, ...] = ()) -> None:
        self.txn_log.append(
            ApiLogEntry(
                timestamp=self.clock(),
                module=module,
                uri=uri,
                params=params,
                status=status,
                bib_ids=bib_ids,
            )
        )

    def refuse(self, module: str, uri: str, params: dict[str, str], status: int,
               message: str) -> tuple[int, dict]:
        """Log a refused request and return its error answer."""
        self._log(module, uri, params, status)
        return status, {"error": message}

    def handle_map_data(self, collection: str, bib_id: str) -> tuple[int, dict]:
        params = {"collection": _loggable(collection), "bib_id": _loggable(bib_id)}
        uri = f"/api/wayfinder/map_data/{params['collection']}/{params['bib_id']}"
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
        params = {k: _loggable(v) for k, v in (("x", x_raw), ("y", y_raw)) if v is not None}
        query = "&".join(f"{k}={quote(v, safe='')}" for k, v in params.items())
        uri = "/api/recommend/popularnear" + (f"?{query}" if query else "")
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
_VERSION = re.compile(r"HTTP/([0-9]{1,10})\.([0-9]{1,10})")
# The Server header's value: what the standard library's http.server sends,
# and what this service has always sent.
SERVER_HEADER = f"BaseHTTP/0.6 Python/{sys.version.split()[0]}"
# The reason phrase of each status the gateway answers with.  Fixed here, not
# read from http.HTTPStatus, whose phrases for 413 and 414 changed in Python 3.13.
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    408: "Request Timeout",
    411: "Length Required",
    413: "Request Entity Too Large",
    414: "Request-URI Too Long",
    431: "Request Header Fields Too Large",
    501: "Not Implemented",
    505: "HTTP Version Not Supported",
}
# name ":" OWS value, the value without CR, LF or NUL (RFC 9112 §5, RFC 9110 §5.5).
# A line that starts with whitespace (an obs-fold continuation), has whitespace
# before its colon, or has no colon does not match.
_FIELD_LINE = re.compile(r"([!#$%&'*+.^_`|~0-9A-Za-z-]+):[ \t]*([^\r\n\x00]*)\r?\n?")

# Largest POST body read; a beacon scan with hundreds of readings is a few KB.
MAX_BODY_BYTES = 64 * 1024
# Longest request line or header line (a longer one is answered 414 or 431), and
# most lines in a request head after its request line, the blank line that ends
# the head included (more are answered 431).
MAX_LINE_BYTES = 65536
MAX_HEAD_LINES = 100
# Most empty lines skipped before a request line, as RFC 9112 §2.2 asks of a
# server (a client may send a stray CRLF after a request); one more closes
# the connection unanswered.
MAX_BLANK_LINES = 8
# Longest wait for any one read or write on a client's socket.  A request whose
# body stops short of its Content-Length is answered 408 once a read waits this
# long; a connection that sends no further request is closed unanswered.
READ_TIMEOUT_S = 5.0


class BadHead(Exception):
    """A request head that is refused; args are the answer's status and message."""


def read_headers(rfile) -> dict[str, list[str]]:
    """The header fields of a request head, read from rfile up to its blank line.

    Maps each lower-cased field name to its values in the order sent, each with
    its leading whitespace removed.  Raises BadHead for a line that is not a
    field line, a line over MAX_LINE_BYTES, or more than MAX_HEAD_LINES lines.
    """
    headers: dict[str, list[str]] = {}
    for _ in range(MAX_HEAD_LINES):
        line = rfile.readline(MAX_LINE_BYTES + 1)
        if len(line) > MAX_LINE_BYTES:
            raise BadHead(431, "Line too long")
        if line in (b"\r\n", b"\n", b""):
            return headers
        text = str(line, "iso-8859-1")
        field = _FIELD_LINE.fullmatch(text)
        if field is None:
            raise BadHead(400, f"Bad header line ({text[:80].rstrip()!r})")
        name, value = field.groups()
        headers.setdefault(name.lower(), []).append(value)
    raise BadHead(431, f"More than {MAX_HEAD_LINES - 1} header lines")


def _body_length(headers: dict[str, list[str]]) -> int | None:
    """The declared body length: 0 for none, None unless it is one Content-Length of digits."""
    lengths = headers.get("content-length", ())
    if "transfer-encoding" in headers or len(lengths) > 1:
        return None
    if not lengths:
        return 0
    text = lengths[0].strip(" \t")
    return int(text) if _DIGITS.fullmatch(text) else None


def _refused(status: int, message: str) -> tuple[int, dict, bool]:
    """A refused request's answer, which closes the connection."""
    return status, {"error": message}, True


class _Handler(socketserver.StreamRequestHandler):
    """HTTP/1.1 with persistent connections.

    A connection stays open between requests until the client closes it, sends
    ``Connection: close``, or sends no request for READ_TIMEOUT_S.  The server
    closes it after any answer whose request body it did not read in full, and
    after any refused request head, so that no unread body is ever parsed as a
    next request.
    """

    server: GatewayServer
    timeout = READ_TIMEOUT_S  # socket timeout, set on each connection by StreamRequestHandler

    def handle(self) -> None:
        """Answer requests on this connection until one of them closes it."""
        try:
            while True:
                line = self.rfile.readline(MAX_LINE_BYTES + 1)
                for _ in range(MAX_BLANK_LINES):
                    if line not in (b"\r\n", b"\n"):
                        break
                    line = self.rfile.readline(MAX_LINE_BYTES + 1)
                if len(line) > MAX_LINE_BYTES:
                    requestline, answer = "", _refused(414, _REASONS[414])
                else:
                    requestline = str(line, "iso-8859-1").rstrip("\r\n")
                    answer = self._answer(requestline)
                if answer is None:
                    return
                log.debug('http: "%s" %s -', requestline, answer[0])
                if not self._send(*answer):
                    return
        except TimeoutError as exc:  # a read or a write waited READ_TIMEOUT_S: close unanswered
            log.debug("http: request timed out: %r", exc)
        except ConnectionError as exc:  # the client reset or closed its end: nobody to answer
            log.debug("http: connection lost: %r", exc)

    def _answer(self, requestline: str) -> tuple[int, dict, bool] | None:
        """Read the rest of the request and answer it: (status, body, whether to close
        after it), or None to close unanswered at end of input or too many empty lines."""
        words = requestline.split()
        if not words:
            return None
        if len(words) != 3:
            return _refused(400, f"Bad request syntax ({requestline!r})")
        method, target, version_text = words
        numbers = _VERSION.fullmatch(version_text)
        if numbers is None:
            return _refused(400, f"Bad request version ({version_text!r})")
        version = int(numbers[1]), int(numbers[2])
        if version >= (2, 0):
            return _refused(505, f"Invalid HTTP version ({version_text[5:]})")
        # a path that starts with // would read as a host to a client (gh-87389)
        path = "/" + target.lstrip("/") if target.startswith("//") else target
        try:
            headers = read_headers(self.rfile)
        except BadHead as exc:
            return _refused(*exc.args)

        # Connection holds comma-separated options, on any number of lines (RFC 9110 §7.6.1)
        options = {option.strip(" \t").lower()
                   for value in headers.get("connection", ()) for option in value.split(",")}
        close = "close" in options or (version < (1, 1) and "keep-alive" not in options)
        if version >= (1, 1) and headers.get("expect", ("",))[0].lower() == "100-continue":
            # the client waits for this interim answer before it sends the body
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        if method == "POST" and urlsplit(path).path == "/api/locate":
            status, body, unread = self._locate(headers)
            return status, body, close or unread
        if method == "GET":
            status, body = self._get(path)
        elif method == "POST":
            status, body = 404, {"error": "no such endpoint"}
        else:
            return _refused(501, f"Unsupported method ({method!r})")
        # a body left unread would be read as the next request
        return status, body, close or _body_length(headers) != 0

    def _get(self, path: str) -> tuple[int, dict]:
        split = urlsplit(path)
        m = _MAP_DATA_RE.match(split.path)
        if m:
            return self.server.gateway.handle_map_data(m.group(1), m.group(2))
        if split.path == "/api/recommend/popularnear":
            q = dict(parse_qsl(split.query, keep_blank_values=True))
            return self.server.gateway.handle_popular_near(q.get("x"), q.get("y"))
        return 404, {"error": "no such endpoint"}

    def _locate(self, headers: dict[str, list[str]]) -> tuple[int, dict, bool]:
        """The answer to a locate POST, and whether its body is left unread."""
        gateway = self.server.gateway

        def refuse(status: int, message: str) -> tuple[int, dict, bool]:
            return *gateway.refuse("wayfinder", "/api/locate", {}, status, message), True

        if "transfer-encoding" in headers:
            return refuse(411, "send the body with a Content-Length, not a Transfer-Encoding")
        length = _body_length(headers)
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
            return *gateway.refuse("wayfinder", "/api/locate", {}, 400, "body must be JSON"), False
        return *gateway.handle_locate(body), False

    def _send(self, status: int, body: dict, close: bool) -> bool:
        """Write one answer; True when the connection stays open for a next request."""
        payload = json.dumps(body).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_REASONS[status]}\r\n"
            f"Server: {SERVER_HEADER}\r\n"
            f"Date: {self.server.http_date()}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            + ("Connection: close\r\n\r\n" if close else "\r\n")
        )
        # One write (wfile is unbuffered): sent as two, the body would wait for
        # the client's delayed ACK of the head (Nagle), some 40 ms an answer.
        self.wfile.write(head.encode("latin-1") + payload)
        return not close


class GatewayServer(socketserver.TCPServer):
    """A gateway served on a background thread; usable as a context manager.

    Connections are served by a set of threads that grows with the number of
    open connections.  A thread whose connection closes waits for the next one
    the accept loop hands over, and ends once none comes within READ_TIMEOUT_S;
    a new thread starts only when no thread is waiting.  The open connections
    are kept for the exit, which finishes the requests being answered, closes
    idle connections and joins every thread the server started.
    """

    allow_reuse_address = True

    def __init__(self, gateway: Gateway | None, host: str = "127.0.0.1", port: int = 0):
        # shutdown() writes to _wake_w to wake the accept loop.  Made before the
        # bind, since a failed bind calls server_close(), which closes this pair.
        self._wake_r, self._wake_w = socket.socketpair()
        super().__init__((host, port), _Handler)
        self.gateway = gateway  # when None here, set before the server is entered
        self._lock = threading.Lock()
        self._handed = threading.Condition(self._lock)  # a connection is pending or closing is set
        self._pending: deque[tuple[socket.socket, object]] = deque()
        self._idle = 0  # threads waiting for a connection, less the connections pending
        self._closing = False
        self._threads: list[threading.Thread] = []
        self._connections: set[socket.socket] = set()
        # (second, its Date text), replaced whole so that no reader pairs one
        # second with another second's text; no second is -1, so that the
        # epoch's own second gets its text
        self._date = (-1, "")
        self.thread = threading.Thread(target=self.serve_forever, daemon=True)

    @property
    def base_url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def http_date(self) -> str:
        """The Date header's text for now, formatted at most once a second."""
        second, text = self._date
        now = int(time.time())
        if now != second:
            text = format_date_time(now)
            self._date = (now, text)
        return text

    def serve_forever(self) -> None:
        """Accept connections until shutdown(), which wakes this loop at once."""
        with selectors.DefaultSelector() as selector:
            selector.register(self.socket, selectors.EVENT_READ)
            selector.register(self._wake_r, selectors.EVENT_READ)
            while True:
                if any(key.fileobj is self._wake_r for key, _ in selector.select()):
                    return
                self._handle_request_noblock()

    def shutdown(self) -> None:
        """Stop accepting connections; returns once the accept loop has."""
        self._wake_w.send(b"\0")
        self.thread.join()

    def process_request(self, request, client_address):
        """Hand the connection to a waiting thread, or start a thread for it."""
        with self._lock:
            self._connections.add(request)
            if self._idle:
                self._idle -= 1
                self._pending.append((request, client_address))
                self._handed.notify()
                return
            thread = threading.Thread(target=self._serve_connections, args=(request, client_address))
            thread.start()
            self._threads = [t for t in self._threads if t.is_alive()] + [thread]

    def _serve_connections(self, request, client_address) -> None:
        """Serve this connection and each one handed over next, until none comes
        within READ_TIMEOUT_S or the server closes."""
        while True:
            try:
                self.finish_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)
            finally:
                self.shutdown_request(request)
            with self._handed:
                self._idle += 1
                self._handed.wait_for(lambda: self._pending or self._closing, READ_TIMEOUT_S)
                if not self._pending:
                    self._idle -= 1
                    return
                request, client_address = self._pending.popleft()

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

    def server_close(self) -> None:
        super().server_close()
        self._wake_r.close()
        self._wake_w.close()

    def __enter__(self) -> "GatewayServer":
        self.thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
        self.end_reads()
        with self._handed:
            self._closing = True
            self._handed.notify_all()
        for thread in self._threads:  # no thread starts once the accept loop has returned
            thread.join()
        self.server_close()

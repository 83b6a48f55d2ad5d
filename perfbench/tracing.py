"""Spans around the program's public functions, for the traced runs.

``Tracer.wrap`` replaces a module function or a class method with a wrapper
that records a span: name, start, end, parent span and an optional size.
Spans are kept in memory per process and written out once, at the end of the
run.  ``Tracer.count`` wraps a hot function with a cheaper counter that only
adds one to every span open on the calling thread.  ``layer_metrics`` turns
the recorded spans into the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
from pathlib import Path

# span fields, kept as a list per span
ID, NAME, PARENT, T0, T1, SIZE, COUNTS = range(7)

HANDLERS = ("gateway.handle_popular_near", "gateway.handle_map_data", "gateway.handle_locate")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, size: int | None = None, t0: float | None = None) -> list:
        stack = self._stack()
        span = [next(self._ids), name, stack[-1][ID] if stack else None,
                time.perf_counter() if t0 is None else t0, None, size, {}]
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[T1] = time.perf_counter()
        self._stack().remove(span)
        self.spans.append(span)

    def wrap(self, owner, attr: str, name, size=None) -> None:
        """name is a string or a function of (args, kwargs); size likewise, or None."""
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            span = self.begin(name if isinstance(name, str) else name(args, kwargs),
                              None if size is None else size(args, kwargs))
            try:
                return original(*args, **kwargs)
            finally:
                self.end(span)

        traced.__wrapped__ = original
        setattr(owner, attr, traced)

    def count(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)

        def counted(*args, **kwargs):
            for span in self._stack():
                span[COUNTS][name] = span[COUNTS].get(name, 0) + 1
            return original(*args, **kwargs)

        counted.__wrapped__ = original
        setattr(owner, attr, counted)

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.spans), encoding="utf-8")


def instrument(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are taken at."""
    import http.client
    import urllib.request

    from stackrec import corpus, gateway, harness, lccn, locate, recommend, stacksmap, telemetry

    for owner, attr, name in (
        (lccn, "parse", "lccn.parse"),
        (lccn.ClassificationOutline, "classify", "lccn.classify"),
        (stacksmap, "load_stackmap", "stacksmap.load_stackmap"),
        (stacksmap, "shelf_for_call", "stacksmap.shelf_for_call"),
        (stacksmap, "ranges_for_location", "stacksmap.ranges_for_location"),
        (corpus, "load_corpus", "corpus.load_corpus"),
        (lccn, "load_outline", "lccn.load_outline"),
        (locate, "load_beacons", "locate.load_beacons"),
        (corpus.CorpusStore, "books_in_range", "corpus.books_in_range"),
        (corpus.CorpusStore, "article_search", "corpus.article_search"),
        (recommend.Recommender, "recommend_near", "recommend.recommend_near"),
        (locate, "estimate_position", "locate.estimate_position"),
        (gateway.Gateway, "handle_popular_near", "gateway.handle_popular_near"),
        (gateway.Gateway, "handle_map_data", "gateway.handle_map_data"),
        (gateway.Gateway, "handle_locate", "gateway.handle_locate"),
        (gateway.TransactionLog, "append", "gateway.log_append"),
        (telemetry, "parse_logs", "telemetry.parse_logs"),
        (telemetry, "subject_distribution", "telemetry.subject_distribution"),
        (telemetry, "trace_identifier", "telemetry.trace_identifier"),
        (telemetry, "mine_queries", "telemetry.mine_queries"),
        (telemetry, "time_series", "telemetry.time_series"),
        (harness, "gen_corpus", "harness.gen_corpus"),
        (harness, "gen_walk", "harness.gen_walk"),
        (urllib.request, "urlopen", "client.urlopen"),
        (http.client.HTTPConnection, "connect", "client.connect"),
    ):
        tracer.wrap(owner, attr, name)
    tracer.wrap(telemetry, "annotate", "telemetry.annotate", size=lambda a, k: len(a[0]))
    tracer.wrap(telemetry, "heatmap",
                lambda a, k: "telemetry.heatmap_" + k.get("mode", a[2] if len(a) > 2 else "bin"))
    tracer.count(lccn, "in_range", "lccn.in_range")


# --- per-layer metrics --------------------------------------------------------

# stages reported as their total time within one operation ("op" span)
PER_OP = (
    "telemetry.parse_logs", "telemetry.annotate", "telemetry.heatmap_bin",
    "telemetry.heatmap_gaussian", "telemetry.subject_distribution",
    "telemetry.trace_identifier", "telemetry.mine_queries", "telemetry.time_series",
    "harness.gen_corpus", "harness.gen_walk",
)
# calls reported as the median duration of one call
PER_CALL_US = (
    "lccn.parse", "lccn.classify", "stacksmap.shelf_for_call", "stacksmap.ranges_for_location",
    "corpus.books_in_range", "corpus.article_search", "recommend.recommend_near",
    "locate.estimate_position", "gateway.handle_popular_near", "gateway.handle_map_data",
    "gateway.handle_locate", "gateway.log_append",
)
PER_CALL_S = ("stacksmap.load_stackmap", "corpus.load_corpus")
LOADERS = ("corpus.load_corpus", "stacksmap.load_stackmap", "lccn.load_outline", "locate.load_beacons")


def _dur(span) -> float:
    return span[T1] - span[T0]


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _within(spans, outer) -> list[list]:
    return [s for s in spans if outer[T0] <= s[T0] and s[T1] <= outer[T1]]


def _loader_parses(spans, by_name) -> list[int]:
    """Calls of lccn.parse made by the loaders, per top-level span that holds them.

    Loads inside gen_corpus write fixtures; they are input generation, not set-up.
    """
    by_id = {s[ID]: s for s in spans}
    per_root: dict[int, int] = {}
    for s in by_name.get("lccn.parse", []):
        names, root = set(), s
        while root[PARENT] in by_id:
            root = by_id[root[PARENT]]
            names.add(root[NAME])
        if names & set(LOADERS) and "harness.gen_corpus" not in names:
            per_root[root[ID]] = per_root.get(root[ID], 0) + 1
    return list(per_root.values())


def layer_metrics(span_sets: list[list[list]],
                  clients: list[tuple[list[float | None], int]] | None = None) -> dict[str, dict]:
    """Per-layer metrics from the spans of every traced process of one run.

    When the benchmark itself is the client, clients holds, for each span set,
    the client-observed latency of each request it sent to that process in
    send order (None for a request that got no response) and the number of
    connections it opened.  Otherwise the program's own ``urlopen`` and
    ``HTTPConnection.connect`` calls are the client.  Client requests are
    paired with handler spans in start order, so their counts must agree.
    A layer that did no work reads 0.
    """
    calls: dict[str, list[float]] = {}
    per_op: dict[str, list[float]] = {name: [] for name in PER_OP}
    handlers: list[list] = []
    self_times, transport, replays, setup_parses = [], [], [], []
    in_range_entries = entries = 0
    requests = connections = 0
    for index, spans in enumerate(span_sets):
        by_name: dict[str, list[list]] = {}
        child_time: dict[int, float] = {}
        for s in spans:
            by_name.setdefault(s[NAME], []).append(s)
            calls.setdefault(s[NAME], []).append(_dur(s))
            if s[PARENT] is not None:
                child_time[s[PARENT]] = child_time.get(s[PARENT], 0.0) + _dur(s)
        self_times += [_dur(s) - child_time.get(s[ID], 0.0)
                       for s in by_name.get("recommend.recommend_near", [])]
        served = sorted((s for name in HANDLERS for s in by_name.get(name, [])), key=lambda s: s[T0])
        handlers += served
        if clients is not None:
            latencies, connects = clients[index]
        else:
            latencies = [_dur(s) for s in sorted(by_name.get("client.urlopen", []), key=lambda s: s[T0])]
            connects = len(by_name.get("client.connect", []))
        if len(latencies) != len(served):
            raise ValueError(f"{len(latencies)} client requests cannot be paired with {len(served)} handler spans")
        requests += len(latencies)
        connections += connects
        transport += [c - _dur(h) for c, h in zip(latencies, served) if c is not None]
        for op in by_name.get("op", []):
            for name in PER_OP:
                per_op[name].append(sum(_dur(s) for s in _within(by_name.get(name, []), op)))
            inside = _within(served, op)
            if inside:
                replays.append(max(h[T1] for h in inside) - min(h[T0] for h in inside))
        setup_parses += _loader_parses(spans, by_name)
        for s in by_name.get("telemetry.annotate", []):
            in_range_entries += s[COUNTS].get("lccn.in_range", 0)
            entries += s[SIZE]

    metrics = {f"{name}_us": (_median(calls.get(name)) * 1e6, "us") for name in PER_CALL_US}
    metrics.update({f"{name}_s": (_median(calls.get(name)), "s") for name in PER_CALL_S})
    metrics.update({f"{name}_s": (_median(values), "s") for name, values in per_op.items()})
    metrics.update({
        "lccn.parse_calls": (_median(setup_parses), "calls/setup"),
        "lccn.in_range_calls_per_request": (
            sum(h[COUNTS].get("lccn.in_range", 0) for h in handlers) / len(handlers)
            if handlers else 0.0, "calls/request"),
        "lccn.in_range_calls_per_entry": (in_range_entries / entries if entries else 0.0, "calls/entry"),
        "recommend.recommend_near_self_us": (_median(self_times) * 1e6, "us"),
        "gateway.transport_us": (_median(transport) * 1e6, "us"),
        "gateway.connections_per_request": (connections / requests if requests else 0.0, "conn/request"),
        "harness.replay_s": (_median(replays), "s"),
    })
    return {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(metrics.items())}

"""Benchmark for the stackrec middleware and its bibliotelemetry.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see README.md):

- ``patron_walk``: a closed-loop client against ``stackrec serve`` in its own
  process (20k records, 800 shelves).
- ``study_report``: ``harness.run_report`` at its default size, one complete
  report per operation.
- ``year_analytics``: one bibliotelemetry pass per operation over a study
  year's gateway and module logs (5k records, 200 shelves), no HTTP.

Every output is checked after timing ends.  The last line of standard output
is the result: ``correct``, ``attempted``, ``failed`` and the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).  The line
before it holds workload-specific figures that are not metrics of the result.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from datetime import timedelta
from pathlib import Path

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "_runs"

WORKLOADS = ("patron_walk", "study_report", "year_analytics")

SIZES = {
    "full": {
        "patron_walk": {"records": 20000, "shelves": 800, "walk": 4000},
        "year_analytics": {"records": 5000, "shelves": 200, "requests": 600,
                           "catalog": 3000, "journal": 1000},
        "study_report": {},  # run_report at its defaults: 500 records, 40 shelves
    },
    "smoke": {
        "patron_walk": {"records": 1000, "shelves": 40, "walk": 200},
        "year_analytics": {"records": 600, "shelves": 40, "requests": 80,
                           "catalog": 200, "journal": 80},
        "study_report": {},
    },
}

SETUPS = 3              # servers per patron_walk run, each serving a third; setup_s is their median
ROUND_STEPS = 49        # walk requests per round, each round ends with one JSON-array locate post
BEACONS_HEARD = 4
COLLECTION = "uiu_undergrad"
POPULAR_SAMPLE = 40     # popularnear responses checked against the brute force per run


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _run_dir(args) -> Path:
    path = RUNS / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# --- patron_walk --------------------------------------------------------------

def _observations(lib, x: float, y: float) -> list[dict]:
    """Readings of the nearest beacons from (x, y), by the log-distance model (n = 2)."""
    heard = sorted(lib.beacons.items(), key=lambda kv: (math.hypot(kv[1][0] - x, kv[1][1] - y), kv[0]))
    return [
        {"beacon_id": bid,
         "rssi": round(max(tx - 20.0 * math.log10(max(math.hypot(bx - x, by - y), 1.0)), -119.99), 2)}
        for bid, (bx, by, tx) in heard[:BEACONS_HEARD]
    ]


def _patron_requests(walk, lib) -> list[tuple]:
    """(kind, method, path, body, check input) per walk step; idle steps post a locate."""
    requests = []
    for step in walk.steps:
        if step.action == "wayfind":
            requests.append(("map_data", "GET", f"/api/wayfinder/map_data/{COLLECTION}/{step.bib_id}",
                             None, step.bib_id))
        elif step.action == "recommend":
            x, y = f"{step.x:.6f}", f"{step.y:.6f}"
            requests.append(("popularnear", "GET", f"/api/recommend/popularnear?x={x}&y={y}",
                             None, (float(x), float(y))))
        else:
            obs = _observations(lib, step.x, step.y)
            requests.append(("locate", "POST", "/api/locate", json.dumps({"observations": obs}), obs))
    return requests


# A JSON array where the gateway expects an object: ``Gateway.handle_locate``
# calls ``body.get`` on it, so the connection drops with no response.
ARRAY_POST = ("locate_array", "POST", "/api/locate",
              json.dumps([{"beacon_id": "b01", "rssi": -60.0}]), None)


class _CountingConnection(http.client.HTTPConnection):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.connects = 0

    def connect(self):
        self.connects += 1
        super().connect()


class _Server:
    """One ``stackrec serve`` process started through perfbench/serve.py."""

    def __init__(self, run_dir: Path, index: int, trace: bool):
        self.log = run_dir / f"gateway_{index}.jsonl"
        self.spans = run_dir / f"spans_{index}.json" if trace else None
        self.stderr = run_dir / f"server_{index}.err"
        self.config = run_dir / "service.json"
        self.proc = None
        self.port = None

    def start(self) -> float:
        """Start the server; seconds from process start until it answered a request."""
        t0 = time.perf_counter()
        with open(self.stderr, "w") as err:
            self.proc = subprocess.Popen(
                [sys.executable, str(HERE / "serve.py"), str(self.spans or "-"), "serve",
                 "--config", str(self.config), "--port", "0", "--log", str(self.log)],
                stdout=subprocess.PIPE, stderr=err, text=True,
            )
        if not select.select([self.proc.stdout], [], [], 150)[0]:
            raise RuntimeError("server did not start within 150 s")
        line = self.proc.stdout.readline()
        if not line.startswith("serving on http://"):
            raise RuntimeError(f"server failed to start: {line!r}, see {self.stderr}")
        self.port = int(line.split()[2].rstrip(",").rsplit(":", 1)[1])
        probe = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            probe.request("GET", "/")
            probe.getresponse().read()
        finally:
            probe.close()
        return time.perf_counter() - t0

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def _serve_rounds(port: int, requests: list[tuple], seconds: float, first_round: int):
    """Closed loop: whole rounds of ROUND_STEPS walk requests plus one array post.

    Rounds take the walk cyclically, starting at round first_round.
    """
    conn = _CountingConnection("127.0.0.1", port, timeout=30)
    sent = []  # (request, status, body, latency); status None when no response came
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        first = (first_round + rounds) * ROUND_STEPS
        batch = [requests[(first + i) % len(requests)] for i in range(ROUND_STEPS)] + [ARRAY_POST]
        for req in batch:
            kind, method, path, body, _ = req
            headers = {"Content-Type": "application/json"} if body else {}
            t0 = time.perf_counter()
            try:
                conn.request(method, path, body=body, headers=headers)
                resp = conn.getresponse()
                data = resp.read()
                sent.append((req, resp.status, data, time.perf_counter() - t0))
            except ConnectionError:
                conn.close()
                sent.append((req, None, None, None))
        rounds += 1
    elapsed = time.perf_counter() - start
    conn.close()
    return sent, elapsed, rounds, conn.connects


def _check_patron(lib, served: list[tuple[list, Path]], seed: int) -> list[str]:
    """Check every server's answers, and its log against the requests it answered."""
    problems = []
    popular = []
    for sent, log_path in served:
        for (kind, _, _, _, expect), status, data, _ in sent:
            if status is None:
                if kind != "locate_array":
                    problems.append(f"{kind}: no response")
                continue
            if kind == "locate_array":
                if not 400 <= status < 500:
                    problems.append(f"array locate post answered {status}")
                continue
            body = json.loads(data)
            if kind == "map_data":
                problems += checks.check_map_data(lib, expect, status, body)
            elif kind == "locate":
                problems += checks.check_locate(lib, expect, status, body)
            else:
                popular.append((expect, status, body))
        answered = sum(1 for _, status, _, _ in sent if status is not None)
        logged = checks.read_log(log_path)
        if len(logged) != answered:
            problems.append(f"{len(logged)} log lines for {answered} answered requests")
    for (x, y), status, body in random.Random(seed).sample(popular, min(POPULAR_SAMPLE, len(popular))):
        problems += checks.check_popular_near(lib, x, y, status, body)
    return problems


def patron_walk(args, run_dir: Path, size: dict):
    from stackrec import corpus, harness, lccn, stacksmap

    fixtures = harness.gen_corpus(args.seed, size["records"], out_dir=run_dir / "fixtures",
                                  n_shelves=size["shelves"])
    (run_dir / "service.json").write_text(json.dumps({
        name: f"fixtures/{file}" for name, file in (
            ("catalog", "catalog.csv"), ("circulation", "circulation.csv"),
            ("articles", "articles.csv"), ("databases", "databases.csv"),
            ("stackmap", "stackmap.csv"), ("outline", "outline.tsv"), ("beacons", "beacons.csv"))
    }), encoding="utf-8")
    lib = checks.Library(fixtures.root)
    # the walk only needs shelf rectangles and circulation, not a validated stack map
    shelves = stacksmap.StackMap([
        stacksmap.Shelf(s["number"], stacksmap.Rect(*s["rect"]), lccn.parse_range(s["start"], s["end"]))
        for s in lib.shelves.values()
    ])
    store = corpus.load_corpus(fixtures.catalog, fixtures.circulation)
    requests = _patron_requests(harness.gen_walk(args.seed + 1, shelves, size["walk"], corpus_=store), lib)

    # Each server starts, serves an equal slice of the run and stops, so that
    # the set-up samples and the requests are spread over the same time.
    servers = [_Server(run_dir, i, args.trace) for i in range(SETUPS)]
    setups, served, clients, rss = [], [], [], []
    elapsed = rounds = 0
    try:
        for server in servers:
            setups.append(server.start())
            sent, took, ran, connects = _serve_rounds(server.port, requests, args.seconds / SETUPS, rounds)
            rss.append(server.peak_rss_mb())
            server.stop()
            served.append((sent, server.log))
            clients.append(([lat for _, _, _, lat in sent], connects))
            elapsed += took
            rounds += ran
    finally:
        for server in servers:
            server.stop()

    problems = _check_patron(lib, served, args.seed)
    sent = [s for batch, _ in served for s in batch]
    ok = [(req[0], lat) for req, status, _, lat in sent if status is not None]
    latencies = sorted(lat for _, lat in ok)
    p99 = statistics.quantiles(latencies, n=100)[98]

    def p50(kind: str) -> float:
        return statistics.median(lat for k, lat in ok if k == kind) * 1e3

    end_to_end = {
        "latency_p50_ms": _metric(statistics.median(latencies) * 1e3, "ms"),
        "throughput_per_s": _metric(len(ok) / elapsed, "1/s"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(max(rss), "MB"),
    }
    detail = {
        "throughput_rps": len(ok) / elapsed,
        "recommend_p50_ms": p50("popularnear"),
        "wayfind_p50_ms": p50("map_data"),
        "locate_p50_ms": p50("locate"),
        "latency_p99_ms": p99 * 1e3,
        "samples": len(latencies),
        "beyond_p99": sum(1 for lat in latencies if lat > p99),
        "connections_per_request": sum(c for _, c in clients) / len(sent),
        "setup_samples_s": setups,
    }
    per_layer = None
    if args.trace:
        span_sets = [json.loads(s.spans.read_text()) for s in servers]
        per_layer = tracing.layer_metrics(span_sets, clients)
    failed = sum(1 for _, status, _, _ in sent if status is None)
    return problems, len(sent), failed, end_to_end, per_layer, detail


# --- batch workloads ------------------------------------------------------------

def _year_logs(run_dir: Path, fixtures, seed: int, size: dict) -> list[Path]:
    """A study year of gateway traffic, replayed through the handlers on a simulated clock."""
    from stackrec import corpus, harness, lccn, locate, stacksmap
    from stackrec.gateway import Gateway, TransactionLog

    store = corpus.load_corpus(fixtures.catalog, fixtures.circulation, fixtures.articles, fixtures.databases)
    stack = stacksmap.load_stackmap(fixtures.stackmap)
    lib = checks.Library(fixtures.root)
    walk = harness.gen_walk(seed + 1, stack, size["requests"], corpus_=store)
    clock = {"now": harness.STUDY_START}
    gateway_log = run_dir / "gateway.jsonl"
    txn_log = TransactionLog(gateway_log)
    gw = Gateway(stack, store, lccn.load_outline(fixtures.outline), txn_log,
                 beacons=locate.load_beacons(fixtures.beacons), clock=lambda: clock["now"])
    try:
        for step in walk.steps:
            clock["now"] += timedelta(seconds=step.dwell)
            if step.action == "wayfind":
                gw.handle_map_data(COLLECTION, step.bib_id)
            elif step.action == "recommend":
                gw.handle_popular_near(f"{step.x:.6f}", f"{step.y:.6f}")
            else:
                gw.handle_locate({"observations": _observations(lib, step.x, step.y)})
    finally:
        txn_log.close()
    walked = sorted({b for e in checks.read_log(gateway_log) for b in e["bib_ids"]})
    module_log = run_dir / "modules.jsonl"
    # the module logs run_report writes: catalog and journal searches, item views of walked bibs
    harness._synthesize_module_log(random.Random(seed + 2), module_log, walked,
                                   size["catalog"], size["journal"])
    return [gateway_log, module_log]


def batch(args, run_dir: Path, size: dict):
    import worker

    from stackrec import harness

    year = args.workload == "year_analytics"
    job = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "min_rounds": 1 if year else 2,  # two reports at one seed must match byte for byte
        "trace": args.trace,
        "run_dir": str(run_dir),
        "result": str(run_dir / "result.json"),
        "spans": str(run_dir / "spans.json"),
    }
    if year:  # run_report generates its own library
        fixtures = harness.gen_corpus(args.seed, size["records"], out_dir=run_dir / "fixtures",
                                      n_shelves=size["shelves"])
        job["fixtures"] = str(fixtures.root)
        job["logs"] = [str(p) for p in _year_logs(run_dir, fixtures, args.seed, size)]
    (run_dir / "job.json").write_text(json.dumps(job), encoding="utf-8")
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(run_dir / "job.json")],
                   check=True, timeout=170)
    result = json.loads((run_dir / "result.json").read_text(encoding="utf-8"))
    ops, setups, outputs = result["op_s"], result["setup_s"], result["outputs"]

    problems = []
    if year:
        lines = [entry for path in job["logs"] for entry in checks.read_log(path)]
        extent = checks.Library(fixtures.root).extent
        for out in outputs:
            if out["entries"] != len(lines) or out["malformed"]:
                problems.append(f"pass parsed {out['entries']} entries of {len(lines)}")
            problems += checks.check_year_pass(lines, extent, worker.CELL_SIZE, out)
        work = sum(out["entries"] for out in outputs)
        detail = {"entries_per_s": work / sum(ops), "passes": len(ops), "entries_per_pass": len(lines)}
    else:
        config = harness.ReportConfig()
        summaries = set()
        for report_dir in outputs:
            problems += checks.check_report(report_dir, config.recommend_requests + config.wayfind_requests)
            summaries.add((Path(report_dir) / "summary.json").read_bytes())
        if len(summaries) != 1:
            problems.append(f"{len(outputs)} reports at one seed wrote {len(summaries)} distinct summaries")
        work = len(ops)
        detail = {"report_s": statistics.median(ops), "reports": len(ops),
                  "study_outcome": checks.study_outcome(outputs[0])}
    detail["setup_samples_s"] = setups

    end_to_end = {
        "latency_p50_ms": _metric(statistics.median(ops) * 1e3, "ms"),
        "throughput_per_s": _metric(work / sum(ops), "1/s"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(result["peak_rss_mb"], "MB"),
    }
    per_layer = None
    if args.trace:
        per_layer = tracing.layer_metrics([json.loads(Path(job["spans"]).read_text())])
    return problems, len(ops), 0, end_to_end, per_layer, detail


# --- entry point ------------------------------------------------------------------

def _pin_to_one_cpu() -> int:
    """Keep this process and every process it starts on one CPU.

    The client and the program hand every request back and forth.  On a
    virtual machine, waking the other virtual CPU for each hand-off costs a
    time that changes twofold from one minute to the next; on one CPU the
    hand-off is a local switch.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="smoke: a seconds-long run for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "stackrec" / "__init__.py").is_file():
        print(f"no stackrec sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))  # stackrec and worker.py are imported from here on

    cpu = _pin_to_one_cpu()
    run_dir = _run_dir(args)
    workload = patron_walk if args.workload == "patron_walk" else batch
    problems, attempted, failed, end_to_end, per_layer, detail = workload(
        args, run_dir, SIZES[args.size][args.workload])
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": per_layer if args.trace else end_to_end,
    }
    detail["cpu"] = cpu
    detail["end_to_end"] = {name: m["value"] for name, m in end_to_end.items()}
    print(json.dumps({"workload": args.workload, "seed": args.seed, "detail": detail}))
    print(json.dumps(result))
    with open(RUNS / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                             "size": args.size, "detail": detail, "result": result}) + "\n")
    if not problems:
        shutil.rmtree(run_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

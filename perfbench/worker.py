"""The process that runs the program for the batch workloads.

    python3 perfbench/worker.py JOB.json

Runs rounds until the job's seconds have passed (and at least ``min_rounds``
rounds ran), then writes the timings, every operation's outputs (for a report,
its directory) and this process's peak RSS to the job's result file.  A round
of ``year_analytics`` loads the library and then makes one analytics pass; a
round of ``study_report`` is one ``run_report``, which loads its own library.
The set-up time of a round is the time spent in the loaders on the run's
fixture files.  With ``trace`` set, spans around the program's layers go to
the job's span file.  Nothing here checks results: the parent process does,
after this one exits.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from stackrec import corpus, harness, lccn, locate, stacksmap, telemetry  # noqa: E402

from tracing import Tracer, instrument  # noqa: E402

CELL_SIZE = 20.0
SIGMA = 30.0
TRACED_BIBS = 20


LOADERS = ((corpus, "load_corpus"), (stacksmap, "load_stackmap"),
           (lccn, "load_outline"), (locate, "load_beacons"))


def time_loaders(run_dir: str) -> list[float]:
    """Make every loader call on a file under run_dir add its duration to the
    returned one-item list.  Calls on other files are not set-up: gen_corpus
    loads the packaged outline to write its fixtures."""
    spent = [0.0]
    for owner, attr in LOADERS:
        def timed(path, *args, _original=getattr(owner, attr), **kwargs):
            t0 = time.perf_counter()
            try:
                return _original(path, *args, **kwargs)
            finally:
                if str(path).startswith(run_dir):
                    spent[0] += time.perf_counter() - t0

        setattr(owner, attr, timed)
    return spent


def load_library(fixtures: Path):
    """The loaders a service runs before it can answer: corpus, shelves, outline, beacons."""
    store = corpus.load_corpus(
        fixtures / "catalog.csv", fixtures / "circulation.csv",
        fixtures / "articles.csv", fixtures / "databases.csv",
    )
    return (store, stacksmap.load_stackmap(fixtures / "stackmap.csv"),
            lccn.load_outline(fixtures / "outline.tsv"), locate.load_beacons(fixtures / "beacons.csv"))


def analytics_pass(job: dict, library) -> dict:
    """One bibliotelemetry pass over the gateway log and the module logs."""
    store, stack, outline, _ = library
    parsed = telemetry.parse_logs([Path(p) for p in job["logs"]])
    served = [e for e in parsed.entries if e.module in ("recommend", "wayfinder")]
    annotated = telemetry.annotate(served, store, outline, stack)
    recommend = [a for a in annotated if a.entry.module == "recommend"]
    spec = telemetry.GridSpec.covering(stack.map_extent, CELL_SIZE, margin=CELL_SIZE)
    grid = telemetry.heatmap(recommend, spec, mode="bin")
    smooth = telemetry.heatmap(recommend, spec, mode="gaussian", sigma=SIGMA)
    dist = telemetry.subject_distribution(recommend)
    fit = telemetry.fit_power_law(dist)
    walked = sorted({b for e in served for b in e.bib_ids})[:TRACED_BIBS]
    mining = {m: telemetry.mine_queries(parsed.entries, m) for m in ("catalog", "journal")}
    return {
        "entries": len(parsed.entries),
        "malformed": len(parsed.malformed),
        "bin_grid": grid.values.tolist(),
        "bin_out_of_extent": grid.out_of_extent,
        "gaussian_mass": smooth.total_mass,
        "subjects": dist.items,
        "subject_unknown": dist.unknown,
        "power_law": [fit.exponent, fit.r_squared],
        "traces": {bib: telemetry.trace_identifier(bib, parsed.entries) for bib in walked},
        "mining": {m: {"total_words": s.total_words, "unique_forms": s.unique_forms, "top": s.top}
                   for m, s in mining.items()},
        "monthly": {m: telemetry.time_series(parsed.entries, m)
                    for m in ("catalog", "journal", "recommend", "wayfinder", "display")},
    }


def study_report(job: dict, index: int) -> str:
    """One complete run_report, written to a fresh directory."""
    out_dir = Path(job["run_dir"]) / f"report_{index}"
    harness.run_report(harness.ReportConfig(out_dir=str(out_dir), seed=job["seed"]))
    return str(out_dir)


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    tracer = None
    if job["trace"]:
        tracer = Tracer()
        instrument(tracer)

    @contextmanager
    def span(name: str):
        opened = tracer.begin(name) if tracer else None
        try:
            yield
        finally:
            if opened:
                tracer.end(opened)

    year = job["workload"] == "year_analytics"
    spent = time_loaders(job["run_dir"])
    setups, ops, outputs = [], [], []
    start = time.perf_counter()
    while len(ops) < job["min_rounds"] or time.perf_counter() - start < job["seconds"]:
        spent[0] = 0.0
        if year:
            with span("setup"):
                library = load_library(Path(job["fixtures"]))
        t0 = time.perf_counter()
        with span("op"):
            if year:
                outputs.append(analytics_pass(job, library))
            else:
                outputs.append(study_report(job, len(ops)))
        ops.append(time.perf_counter() - t0)
        setups.append(spent[0])
    result = {
        "setup_s": setups,
        "op_s": ops,
        "outputs": outputs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    if tracer:
        tracer.dump(job["spans"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

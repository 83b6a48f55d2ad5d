"""Command-line front end: serve, telemetry subcommands, harness subcommands.

The telemetry and harness modules are imported only by the commands that use
them, so that ``stackrec serve`` loads only what it serves.  Likewise only
``harness report``'s replay imports the HTTP client, so no other command
loads ``urllib.request``, ``http.client``, ``ssl`` or ``email``.
"""

from __future__ import annotations

import argparse
import logging
import signal
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

from . import corpus, lccn, stacksmap
from .config import ServiceConfig
from .gateway import Gateway, GatewayServer


def cmd_serve(args) -> int:
    """Serve until SIGINT or SIGTERM; in-flight requests finish and the log closes.

    The port is bound before the log opens, so that a busy port, like a failed
    load, leaves no log behind.
    """
    cfg = ServiceConfig.from_json(args.config)
    server = GatewayServer(None, host=args.host, port=args.port)
    try:
        server.gateway = gw = Gateway.from_config(cfg, args.log)
    except BaseException:
        server.server_close()
        raise
    try:
        with server:
            previous = None
            if threading.current_thread() is threading.main_thread():  # else signal() raises
                previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
            try:
                print(f"serving on {server.base_url}, logging to {args.log}", flush=True)
                server.thread.join()
            except KeyboardInterrupt:
                pass
            finally:
                if previous is not None:
                    signal.signal(signal.SIGTERM, previous)
    finally:
        gw.txn_log.close()
    return 0


def _parsed_entries(args):
    from . import telemetry
    parsed = telemetry.parse_logs(args.logs)
    if parsed.malformed:
        print(f"warning: {len(parsed.malformed)} malformed log line(s)", file=sys.stderr)
        for path, line_no, reason in parsed.malformed[:10]:
            print(f"  {path}:{line_no}: {reason}", file=sys.stderr)
    return parsed.entries


def _annotated(args):
    from . import telemetry
    entries = _parsed_entries(args)
    store = corpus.load_corpus(args.catalog)
    outline = lccn.load_outline(args.outline)
    stack = stacksmap.load_stackmap(args.stackmap) if getattr(args, "stackmap", None) else None
    return telemetry.annotate(entries, store, outline, stack)


def cmd_annotate(args) -> int:
    from . import telemetry
    annotated = _annotated(args)
    out = Path(args.out)
    telemetry.write_wayfinder_table(annotated, out)
    recommend_out = out.with_name(out.stem + "_recommend" + out.suffix)
    telemetry.write_recommend_table(annotated, recommend_out)
    print(f"wrote {out} and {recommend_out} ({len(annotated)} entries)")
    return 0


def _parse_mode(text: str):
    if text == "bin":
        return "bin", None
    if text.startswith("gaussian:"):
        return "gaussian", float(text.split(":", 1)[1])
    raise argparse.ArgumentTypeError("mode must be 'bin' or 'gaussian:SIGMA'")


def cmd_heatmap(args) -> int:
    from . import telemetry
    points = [p for e in _parsed_entries(args) if (p := telemetry.request_point(e.params))]
    if args.stackmap:
        extent = stacksmap.load_stackmap(args.stackmap).map_extent
    elif points:
        # Far from the origin the widening is lost, which a Rect would refuse;
        # GridSpec.covering gives each side at least one cell.
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        extent = SimpleNamespace(x_min=min(xs), y_min=min(ys), x_max=max(xs) + 1e-9, y_max=max(ys) + 1e-9)
    else:
        print("error: no points and no --stackmap to size the grid", file=sys.stderr)
        return 2
    mode, sigma = args.mode
    spec = telemetry.GridSpec.covering(extent, args.cell_size, margin=args.cell_size)
    grid = telemetry.heatmap_points(points, spec, mode, sigma)
    outputs = args.out.split(",")
    telemetry.write_grid_csv(grid, outputs[0])
    written = [outputs[0]]
    if len(outputs) > 1:
        telemetry.write_grid_pgm(grid, outputs[1])
        written.append(outputs[1])
    print(
        f"wrote {', '.join(written)}: {len(points)} points, mass {grid.total_mass:g}, "
        f"{grid.out_of_extent} out of extent"
    )
    return 0


def cmd_subjects(args) -> int:
    from . import telemetry
    annotated = _annotated(args)
    dist = telemetry.subject_distribution(annotated, per_request=args.per_request)
    telemetry.write_distribution_csv(dist, args.out)
    print(f"wrote {args.out}: {len(dist.items)} subjects, {dist.total} items, {dist.unknown} unknown")
    if args.fit:
        try:
            fit = telemetry.fit_power_law(dist)
        except telemetry.TooFewRanks as exc:
            print(f"fit skipped: {exc}", file=sys.stderr)
            return 1
        print(f"power-law fit: exponent {fit.exponent:.4f}, R^2 {fit.r_squared:.4f}")
    return 0


def cmd_trace(args) -> int:
    from . import telemetry
    entries = _parsed_entries(args)
    counts = telemetry.trace_identifier(args.bib_id, entries)
    for module, count in counts.items():
        print(f"{module}\t{count}")
    return 0


def cmd_mine(args) -> int:
    from . import telemetry
    entries = _parsed_entries(args)
    stats = telemetry.mine_queries(entries, args.module)
    print(f"total words\t{stats.total_words}")
    print(f"unique forms\t{stats.unique_forms}")
    for word, count in stats.top:
        print(f"{word}\t{count}")
    return 0


def cmd_monthly(args) -> int:
    from . import telemetry
    entries = _parsed_entries(args)
    for month, count in telemetry.time_series(entries, args.module):
        print(f"{month}\t{count}")
    return 0


def cmd_gen(args) -> int:
    from . import harness
    fixtures = harness.gen_corpus(args.seed, args.records, args.out)
    print(f"fixtures written under {fixtures.root}")
    return 0


def cmd_walk(args) -> int:
    from . import harness
    stack = stacksmap.load_stackmap(args.stackmap)
    store = corpus.load_corpus(args.catalog, args.circulation) if args.catalog else None
    walk = harness.gen_walk(args.seed, stack, args.requests, corpus_=store)
    Path(args.out).write_text(walk.to_json(), encoding="utf-8")
    print(f"wrote {args.out}: {walk.request_count} requests, {len(walk.steps)} steps")
    return 0


def cmd_report(args) -> int:
    from . import harness
    config = harness.ReportConfig()
    if args.out:
        config.out_dir = args.out
    if args.seed is not None:
        config.seed = args.seed
    try:
        summary = harness.run_report(config)
    except harness.ReportError as exc:
        print(f"report failed at stage {exc.stage}: {exc}", file=sys.stderr)
        return 1
    fit = summary["power_law"]
    print(
        f"report in {config.out_dir}: {summary['requests']} requests, "
        f"{len(summary['subject_distribution'])} subjects, "
        f"exponent {fit['exponent']:.3f} (R^2 {fit['r_squared']:.3f})"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stackrec",
        description="Location-based stacks recommender middleware and log analytics",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("serve", help="run the HTTP middleware")
    p.add_argument("--config", required=True)
    p.add_argument("--port", type=int, default=8080)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--log", required=True)
    p.set_defaults(func=cmd_serve)

    tele = sub.add_parser("telemetry", help="batch log analytics").add_subparsers(
        dest="subcommand", required=True
    )

    p = tele.add_parser("annotate", help="join log bib ids to call numbers and subjects")
    p.add_argument("--logs", nargs="+", required=True)
    p.add_argument("--catalog", required=True)
    p.add_argument("--outline", required=True)
    p.add_argument("--stackmap")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_annotate)

    p = tele.add_parser("heatmap", help="density grid from logged x/y points")
    p.add_argument("--logs", nargs="+", required=True)
    p.add_argument("--cell-size", type=float, required=True)
    p.add_argument("--mode", type=_parse_mode, default=("bin", None))
    p.add_argument("--stackmap")
    p.add_argument("--out", required=True, help="grid.csv or grid.csv,image.pgm")
    p.set_defaults(func=cmd_heatmap)

    p = tele.add_parser("subjects", help="subject rank-frequency distribution")
    p.add_argument("--logs", nargs="+", required=True)
    p.add_argument("--catalog", required=True)
    p.add_argument("--outline", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--fit", action="store_true")
    p.add_argument("--per-request", action="store_true")
    p.set_defaults(func=cmd_subjects)

    p = tele.add_parser("trace", help="per-module occurrence counts for one bib id")
    p.add_argument("--logs", nargs="+", required=True)
    p.add_argument("--bib-id", required=True)
    p.set_defaults(func=cmd_trace)

    p = tele.add_parser("mine", help="query word statistics for one module")
    p.add_argument("--logs", nargs="+", required=True)
    p.add_argument("--module", required=True, choices=["catalog", "journal"])
    p.set_defaults(func=cmd_mine)

    p = tele.add_parser("monthly", help="per-month request counts for one module")
    p.add_argument("--logs", nargs="+", required=True)
    p.add_argument("--module", required=True)
    p.set_defaults(func=cmd_monthly)

    har = sub.add_parser("harness", help="synthetic fixtures and end-to-end report").add_subparsers(
        dest="subcommand", required=True
    )

    p = har.add_parser("gen", help="generate a synthetic fixture set")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--records", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = har.add_parser("walk", help="generate a deterministic patron walk")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--requests", type=int, required=True)
    p.add_argument("--stackmap", required=True)
    p.add_argument("--catalog")
    p.add_argument("--circulation")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_walk)

    p = har.add_parser("report", help="full end-to-end run: gen, replay, analyze")
    p.add_argument("--seed", type=int, help="seed of the study (default: ReportConfig.seed)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING)
    try:
        return args.func(args)
    # OSError: an input file that is missing or unreadable, an unwritable output.
    # ValueError: an input that is malformed, a config key nothing reads, a bad number.
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

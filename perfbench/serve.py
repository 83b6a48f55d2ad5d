"""Run ``stackrec serve`` in this process, as it is deployed.

    python3 perfbench/serve.py SPANS|- serve --config ... --port 0 --log ...

With a span file instead of ``-``, wraps the program's layers first and
writes the spans there when the server stops (on SIGINT).  The ``setup`` span
runs from process start until the server is listening.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main(spans_path: str, argv: list[str]) -> int:
    sys.stdout.reconfigure(line_buffering=True)
    tracer = None
    if spans_path != "-":
        from tracing import T1, Tracer, instrument

        from stackrec import gateway

        tracer = Tracer()
        setup = tracer.begin("setup", t0=STARTED)
        instrument(tracer)
        enter = gateway.GatewayServer.__enter__

        def entered(server):
            if setup[T1] is None:
                tracer.end(setup)
            return enter(server)

        gateway.GatewayServer.__enter__ = entered

    from stackrec import cli

    code = cli.main(argv)
    if tracer:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))

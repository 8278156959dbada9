"""``repro serve`` with the per-layer tracer installed.

Usage: ``python perfbench/serve_traced.py TRACE_DIR serve [serve args...]``

Installs the wrappers from :mod:`tracer`, then calls ``repro.cli.main`` with
the remaining arguments, so the served code path is the one the untraced
run takes.  Pool workers are forked from this process and inherit the
wrapped classes; each one writes its layer table to
``TRACE_DIR/worker-<pid>.layers.json`` when the pool stops it.  The server
writes ``TRACE_DIR/server.layers.json`` and the Chrome trace of its first
batch, ``TRACE_DIR/server.trace.json``, when it exits.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict

from tracer import Tracer


def _dump(table: Dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(table, handle)


def main() -> int:
    trace_dir, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()

    from repro.service import supervisor
    worker_main = supervisor._worker_main

    def traced_worker_main(conn: Any, heartbeat_interval: float) -> None:
        tracer.reset()
        tracer.end_job()    # workers keep aggregates only, no full spans
        try:
            worker_main(conn, heartbeat_interval)
        finally:
            _dump(tracer.layers(), os.path.join(
                trace_dir, f"worker-{os.getpid()}.layers.json"))

    # _spawn looks the worker target up in the module at each (re)spawn.
    supervisor._worker_main = traced_worker_main

    from repro.cli import main as repro_main
    try:
        return repro_main(argv)
    finally:
        _dump(tracer.layers(), os.path.join(trace_dir, "server.layers.json"))
        tracer.write_chrome_trace(os.path.join(trace_dir,
                                               "server.trace.json"))


if __name__ == "__main__":
    sys.exit(main())

"""Start ``repro serve`` for the benchmark, optionally with layer spans.

Usage::

    python3 perfbench/serve_launcher.py [--trace-out PATH] serve PROGRAM [serve options]

Without ``--trace-out`` this is exactly ``repro.cli.main``.  With it,
the same wrappers the in-process workloads use are installed first, and
the recorded spans are written to ``PATH`` when the server is stopped
with SIGTERM (or exits on its own).
"""

from __future__ import annotations

import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv):
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    tracer = None
    if trace_out is not None:
        from perfbench.spans import Tracer, install

        tracer = install(Tracer())

        def dump_and_exit(signum, frame):
            tracer.dump(trace_out)
            os._exit(0)

        signal.signal(signal.SIGTERM, dump_and_exit)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        if tracer is not None:
            tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Start ``repro serve`` in this process, optionally with tracing on.

Usage::

    python3 perfbench/serve_launcher.py REPORT [--trace] -- SERVE_ARGS...

Runs ``repro serve SERVE_ARGS`` exactly as the CLI would. With
``--trace`` the benchmark's layer wrappers are installed first, so the
server's own calls are timed in the server process. When the server
exits (SIGTERM drains it), the launcher writes ``REPORT``: the process's
peak RSS and, when traced, the span/counter export.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    split = argv.index("--")
    options, serve_args = argv[:split], argv[split + 1:]
    report_path = Path(options[0])
    traced = "--trace" in options[1:]

    from repro.cli import main as repro_main

    tracer = None
    if traced:
        from spans import Tracer, install

        tracer = Tracer()
        install(tracer)
    try:
        code = repro_main(["serve", *serve_args])
    finally:
        from workloads import stop_helpers

        stop_helpers()
    report = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "trace": tracer.export() if tracer is not None else None,
    }
    report_path.write_text(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

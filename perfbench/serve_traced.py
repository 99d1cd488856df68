"""Run ``rehearsal serve`` with span recording installed.

    python3 perfbench/serve_traced.py TRACE.json serve [serve flags...]

Installs the benchmark's span wrappers in this process, then hands the
remaining arguments to ``repro.core.cli.main`` unchanged.  When the
daemon shuts down (SIGTERM drains it and ``main`` returns) the spans
and counters are written to ``TRACE.json`` in Chrome trace-event
format, with the counters under the top-level ``counters`` key.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)


def main(argv) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    from spans import Recorder, chrome_trace

    import repro.core.cli as cli

    recorder = Recorder().install()
    try:
        code = cli.main(cli_args)
    finally:
        recorder.uninstall()
        trace = chrome_trace(recorder.finished())
        trace["counters"] = recorder.counters_json()
        with open(trace_path, "w", encoding="utf8") as handle:
            json.dump(trace, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

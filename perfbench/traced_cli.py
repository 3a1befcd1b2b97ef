"""The vessiot CLI with the benchmark's tracer installed.

    PERFBENCH_TRACE_OUT=summary.json PERFBENCH_SPANS=spans.jsonl PERFBENCH_ITEM=7 \\
        python3 perfbench/traced_cli.py compute --section FILE

Behaves like the ``vessiot`` console script (same stdout, same exit code) and,
at exit, writes the tracer summary and appends its spans.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from worker import import_engine  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    vessiot = import_engine()
    tracer = Tracer()
    tracer.item = int(os.environ.get("PERFBENCH_ITEM", "0"))
    try:
        with tracer.installed():
            code = vessiot.cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        with open(os.environ["PERFBENCH_TRACE_OUT"], "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)
        tracer.write_spans(os.environ["PERFBENCH_SPANS"], pid_tag=f"{os.getpid()}:")
    return code


if __name__ == "__main__":
    sys.exit(main())

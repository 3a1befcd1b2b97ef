"""In-process workload runner: one closed-loop client, no threads.

    python3 perfbench/worker.py PLAN.json RESULT.json

Started by ``run.py`` as a fresh interpreter whose only engine on the path is
the checkout's ``src/``.  Runs the plan's items in order, cycling, until the
time is up, timing each item (``closedloop.measure``); in trace mode untraced
chunks alternate with chunks run with the tracer installed.  Outputs are
written to RESULT.json and checked by ``run.py``, outside the timed loop.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from closedloop import measure  # noqa: E402
from gauge import reading  # noqa: E402


def import_engine():
    """Import vessiot from the checkout's src/ and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import vessiot.cli  # noqa: F401

    if not os.path.abspath(vessiot.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"vessiot imported from {vessiot.cli.__file__}, not {src}")
    return vessiot


def run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_jet(vessiot, item):
    lieops, jetcalc = vessiot.lieops, vessiot.jetcalc
    sec, _ = lieops.parse_section_text(item["text"])
    system = lieops.labeled_medolaghi(sec)
    prolonged = jetcalc.prolong(list(system.values()), 2)
    top = max(eq.order for eq in prolonged)
    dim = jetcalc.symbol_dimension(prolonged, top)
    residual = jetcalc.check_cc_identity(system, jetcalc.parse_cc_spec(item["cc"], sec.n))
    out = (f"equations {len(prolonged)}\ntop_order {top}\nsymbol_dim {dim}\n"
           f"cc_zero {residual.is_zero()}\ncc_residual {residual}\n")
    return 0, out, ""


def run_item(vessiot, item):
    if item["op"] == "jet":
        return run_jet(vessiot, item)
    return run_cli(vessiot.cli, item["argv"])


def main(argv) -> int:
    plan_path, result_path = argv[1], argv[2]
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    vessiot = import_engine()
    items = plan["items"]
    # warm-up: first calls pay lazy set-up (argparse, caches) once per process
    for item in items[: plan["warmup"]]:
        run_item(vessiot, item)

    def plain(item, number):
        return run_item(vessiot, item)

    if not plan["trace"]:
        result = measure(plain, items, plan["seconds"], plan["min_samples"], reading)
    else:
        from tracer import Tracer

        tracer = Tracer()

        def traced(item, number):
            tracer.item = number
            return run_item(vessiot, item)

        result = measure(plain, items, plan["seconds"], plan["min_samples"], reading,
                         traced, tracer.installed)
        result["trace"] = tracer.summary()
        tracer.write_spans(plan["spans_path"])
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

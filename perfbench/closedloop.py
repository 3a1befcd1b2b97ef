"""The benchmark's closed loop: one client, no threads, whole passes.

Both kinds of workload run through ``measure``: ``run.py`` passes a
`run_item` that spawns one ``vessiot`` process and a gauge that starts a bare
interpreter; ``worker.py`` passes one that calls the engine in-process and
the ``Fraction`` gauge.  So every workload counts samples, passes, gauge time
and traced chunks the same way.
"""

from __future__ import annotations

import contextlib
import hashlib
import time

from gauge import Gauge


def loop(run_item, items, seconds, min_samples, outputs, gauge, item_base=0):
    """Closed loop over items, in whole passes, until `seconds` passed and
    `min_samples` ran; returns (samples, busy seconds).

    `run_item(item, number)` returns (exit code, stdout, stderr); `number` is
    item_base + i, the item id of the spans it records.  The gauge reads the
    host speed between items; its time is not counted in the busy time.
    `outputs` keeps each item's first output, or its first exception."""
    samples = []
    n = len(items)
    start = time.perf_counter()
    gauge_before = gauge.spent
    i = 0
    while True:
        gauge.tick()
        idx = i % n
        t0 = time.perf_counter_ns()
        try:
            code, out, err = run_item(items[idx], item_base + i)
            error = None
        except Exception as exc:  # an unexpected exception is a failed item
            code, out, err, error = None, "", "", f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter_ns()
        data = out.encode()
        samples.append([idx, t1 - t0, code, hashlib.sha256(data).hexdigest(), len(data)])
        if idx not in outputs or (error and not outputs[idx]["error"]):
            outputs[idx] = {"code": code, "stdout": out, "stderr": err[-2000:], "error": error}
        i += 1
        elapsed = time.perf_counter() - start
        # whole passes over the plan, so every run weighs its items alike
        if elapsed >= seconds and i >= min_samples and i % n == 0:
            break
        if 0 < 3 * seconds <= elapsed:  # hard cap when items are slower than planned
            break
    return samples, time.perf_counter() - start - (gauge.spent - gauge_before)


def measure(run_item, items, seconds, min_samples, read, traced_item=None,
            traced_scope=contextlib.nullcontext):
    """One untraced loop, or, given `traced_item`, untraced and traced chunks
    of a quarter of `seconds` each, alternating so that host drift hits both
    sides alike.  `traced_scope()` is entered around every traced chunk.

    Returns samples, busy seconds, gauge readings and outputs, with the same
    keys prefixed ``traced_`` for the traced side."""
    if traced_item is None:
        gauge, outputs = Gauge(read), {}
        samples, elapsed = loop(run_item, items, seconds, min_samples, outputs, gauge)
        return {"samples": samples, "elapsed_s": elapsed, "gauge": gauge.readings,
                "outputs": outputs}
    gauges = {False: Gauge(read), True: Gauge(read)}
    result = {"samples": [], "elapsed_s": 0.0, "outputs": {},
              "traced_samples": [], "traced_elapsed_s": 0.0, "traced_outputs": {}}
    for traced in (False, True, False, True):
        prefix = "traced_" if traced else ""
        with traced_scope() if traced else contextlib.nullcontext():
            samples, elapsed = loop(traced_item if traced else run_item, items, seconds / 4,
                                    1, result[prefix + "outputs"], gauges[traced],
                                    len(result["traced_samples"]))
        result[prefix + "samples"] += samples
        result[prefix + "elapsed_s"] += elapsed
    result["gauge"], result["traced_gauge"] = gauges[False].readings, gauges[True].readings
    return result

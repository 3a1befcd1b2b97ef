"""vessiot benchmark: four seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S   # every workload
    python3 perfbench/run.py --record                              # rewrite digests

Run from anywhere inside a checkout; the engine is imported from the
checkout's ``src/`` only.  Prints one line per metric (name, value, unit,
sample count), a ``meta`` line, and as its last line one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` untraced and traced
chunks alternate and the metrics are the per-layer ones plus the tracing
overhead.  See perfbench/README.md for what each workload and metric
is for.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import closedloop  # noqa: E402
import corpus  # noqa: E402
import gauge as gauge_mod  # noqa: E402
import oracle  # noqa: E402
import tracer as tracer_mod  # noqa: E402

SETUP_PROBES = 11
MIN_SAMPLES = 100        # p90 needs ten samples beyond it
WORKER_TIMEOUT_S = 170
CALL_TIMEOUT_S = 60
PY = sys.executable


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------


def engine_env(extra=None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env.update(extra or {})
    return env


def spawn(argv, env, tag="call"):
    """Run one child to completion: (exit code, max RSS KB, stdout, stderr).

    posix_spawn + wait4 gives the child's own peak RSS; stdout and stderr go
    to files in the work directory."""
    out_path = os.path.join(corpus.WORK, f"{tag}.stdout")
    err_path = os.path.join(corpus.WORK, f"{tag}.stderr")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    fo, fe = os.open(out_path, flags, 0o644), os.open(err_path, flags, 0o644)
    fi = os.open(os.devnull, os.O_RDONLY)
    try:
        actions = [(os.POSIX_SPAWN_DUP2, fi, 0), (os.POSIX_SPAWN_DUP2, fo, 1),
                   (os.POSIX_SPAWN_DUP2, fe, 2)]
        pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
        pidfd = os.pidfd_open(pid)
        try:
            exited, _, _ = select.select([pidfd], [], [], CALL_TIMEOUT_S)
        finally:
            os.close(pidfd)
        if not exited:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        if not exited:
            raise SetupError(f"{' '.join(argv[-4:])} ran longer than {CALL_TIMEOUT_S} s")
    finally:
        for fd in (fo, fe, fi):
            os.close(fd)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss, stdout, stderr


def probe(code: str) -> float:
    """Wall seconds of one fresh interpreter running `code`."""
    start = time.perf_counter()
    status, _, _, err = spawn([PY, "-c", code], engine_env(), tag="probe")
    took = time.perf_counter() - start
    if status != 0:
        raise SetupError(f"probe {code!r} failed: {err.strip()[-300:]}")
    return took


def setup_probes(count: int, setup: dict) -> None:
    """Alternate bare interpreter starts (the process gauge) with imports."""
    for _ in range(count):
        setup["interpreter"].append(probe("pass"))
        setup["import"].append(probe("import vessiot.cli"))


CLI_BOOT = "import sys; from vessiot.cli import run; sys.argv[0] = 'vessiot'; run()"


def cli_argv(argv):
    """The console script `vessiot ARGS`, run with the checkout's src/."""
    return [PY, "-c", CLI_BOOT] + list(argv)


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


def measure_cli(items, seconds, min_samples, trace=False, spans_path=None):
    """cli_corpus through the shared closed loop: one process per item, a bare
    interpreter start as the gauge.  Adds the peak RSS of the untraced
    children and, when traced, the tracer summary of every traced process."""
    peak, summaries = [0], []

    def plain(item, number):
        code, rss, out, err = spawn(cli_argv(item["argv"]), engine_env())
        peak[0] = max(peak[0], rss)
        return code, out, err

    def traced(item, number):
        summary_path = os.path.join(corpus.WORK, "trace-summary.json")
        env = engine_env({"PERFBENCH_TRACE_OUT": summary_path,
                          "PERFBENCH_SPANS": spans_path, "PERFBENCH_ITEM": str(number)})
        code, _, out, err = spawn([PY, os.path.join(HERE, "traced_cli.py")] + item["argv"],
                                  env)
        with open(summary_path, encoding="utf-8") as fh:
            summaries.append(json.load(fh))
        return code, out, err

    result = closedloop.measure(plain, items, seconds, min_samples, lambda: probe("pass"),
                                traced if trace else None)
    result["peak_kb"] = peak[0]
    if trace:
        result["trace"] = tracer_mod.merge(summaries)
    return result


def run_defects():
    """The robustness defects recorded in ROADMAP.md: (label, ok, detail)."""
    out = []
    for label, argv, expect in corpus.DEFECT_CALLS:
        code, _, stdout, stderr = spawn(cli_argv(argv), engine_env(), tag="defect")
        try:
            oracle.check_cli({"expect": expect}, code, stdout, stderr)
            out.append((label, True, f"exit {code}"))
        except (oracle.Mismatch, ValueError, KeyError, ArithmeticError) as exc:
            out.append((label, False, f"exit {code}: {exc}"))
    return out


def run_worker(workload, items, seconds, trace, min_samples, spans_path):
    plan_path = os.path.join(corpus.WORK, f"plan-{workload}.json")
    result_path = os.path.join(corpus.WORK, f"result-{workload}.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump({"items": items, "seconds": seconds, "trace": trace,
                   "min_samples": min_samples, "warmup": min(3, len(items)),
                   "spans_path": spans_path}, fh)
    if os.path.exists(result_path):
        os.remove(result_path)
    proc = subprocess.run([PY, os.path.join(HERE, "worker.py"), plan_path, result_path],
                          cwd=ROOT, env=engine_env(), capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise SetupError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-800:]}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# checking
# ----------------------------------------------------------------------


def check_samples(items, samples, outputs, digests, pool_oracle, failures):
    """Count failed samples: bad exit, exception, digest or answer mismatch.

    Each item's kept output is checked against the oracle; every sample of it
    must then exit with that output's code and match the committed digest."""
    bad_items, checked_code = {}, {}
    for idx_text, rec in outputs.items():
        idx = int(idx_text)
        item = items[idx]
        checked_code[idx] = rec["code"]
        try:
            if rec["error"]:
                raise oracle.Mismatch(f"exception {rec['error']}")
            if item["op"] == "cli":
                oracle.check_cli(item, rec["code"], rec["stdout"], rec["stderr"])
            else:
                pool_oracle.check(item, rec["code"], rec["stdout"])
        except (oracle.Mismatch, ValueError, KeyError, TypeError, ArithmeticError) as exc:
            bad_items[idx] = f"answer: {type(exc).__name__}: {exc}"
    failed = 0
    for sample in samples:
        idx, code, digest = sample[0], sample[2], sample[3]
        key = items[idx]["key"]
        reason = bad_items.get(idx)
        if reason is None and code is None:
            reason = "exception"
        if reason is None and code != checked_code[idx]:
            reason = f"exit {code}, but the checked output exited {checked_code[idx]}"
        if reason is None and digests.get(key) != digest:
            reason = "report digest differs from corpus/digests.json"
        if reason is not None:
            failed += 1
            failures.setdefault(key, reason)
    return failed


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


def timing_metrics(samples, elapsed, factor):
    """p50, p90 and rate, rescaled to the gauge's reference host speed."""
    ms = [s[1] / 1e6 * factor for s in samples]
    n = len(ms)
    p90 = statistics.quantiles(ms, n=10)[8] if n >= 2 else ms[0]
    return {"item_ms_p50": (statistics.median(ms), "ms", n),
            "item_ms_p90": (p90, "ms", n),
            "items_per_s": (n / elapsed / factor, "1/s", n)}


def metadata(load_at_start):
    """Non-gating facts recorded with every result."""
    digest, counts = hashlib.sha256(), {}
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "vessiot", "*.py"))):
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(data)
        counts[os.path.basename(path)[:-3]] = data.count(b"\n")
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "src_lines": counts, "src_lines_total": sum(counts.values()),
            "python": f"{platform.python_implementation()} {platform.python_version()}",
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "loadavg_start": load_at_start, "machine": platform.machine()}


def collect(workload, items, seconds, trace, spans_path):
    """Run the workload's items; returns the raw measurements."""
    if workload == "cli_corpus":
        run = measure_cli(items, seconds, MIN_SAMPLES, trace, spans_path)
        run.update(reference=gauge_mod.REFERENCE_PROCESS_S, defects=run_defects())
    else:
        run = run_worker(workload, items, seconds, trace, MIN_SAMPLES, spans_path)
        run.update(peak_kb=run["maxrss_kb"], reference=gauge_mod.REFERENCE_S, defects=[])
    run.setdefault("traced_samples", None)
    return run


def run_workload(workload, seed, seconds, trace):
    """Run one workload; returns (result dict, lines to print)."""
    # set-up probes come half before and half after the workload, so they see
    # the same host as the items do
    setup = {"import": [], "interpreter": []}
    setup_probes(SETUP_PROBES // 2 + 1, setup)
    pool = corpus.load_pool()
    items = corpus.plan(workload, seed, pool)
    spans_path = os.path.join(corpus.WORK, f"spans-{workload}-{seed}.jsonl")
    if os.path.exists(spans_path):
        os.remove(spans_path)
    run = collect(workload, items, seconds, trace, spans_path)
    setup_probes(SETUP_PROBES // 2, setup)

    digests, pool_oracle, failures = corpus.load_digests(), oracle.Oracle(pool), {}
    samples, traced_samples = run["samples"], run["traced_samples"]
    attempted = len(samples)
    failed = check_samples(items, samples, run["outputs"], digests, pool_oracle, failures)
    if traced_samples is not None:
        attempted += len(traced_samples)
        failed += check_samples(items, traced_samples, run["traced_outputs"], digests,
                                pool_oracle, failures)
    defects = run["defects"]
    defect_failed = sum(1 for _, ok, _ in defects if not ok)

    factor = gauge_mod.factor(run["gauge"], run["reference"])
    setup_factor = gauge_mod.factor(setup["interpreter"], gauge_mod.REFERENCE_PROCESS_S)
    metrics, notes = {}, {"host_factor": factor, "setup_host_factor": setup_factor}
    if not trace:
        metrics.update(timing_metrics(samples, run["elapsed_s"], factor))
        metrics["setup_s"] = (statistics.median(setup["import"]) * setup_factor, "s",
                              len(setup["import"]))
        metrics["peak_rss_mb"] = (run["peak_kb"] / 1024, "MB",
                                  len(samples) if workload == "cli_corpus" else 1)
        raw = timing_metrics(samples, run["elapsed_s"], 1.0)
        notes.update({f"raw_{k}": v for k, (v, _, _) in raw.items()})
        notes["raw_setup_s"] = statistics.median(setup["import"])
    else:
        traced_factor = gauge_mod.factor(run["traced_gauge"], run["reference"])
        layers = tracer_mod.layer_metrics(run["trace"], len(traced_samples))
        for name, (value, unit) in layers.items():
            if unit == "ms/item":
                value *= traced_factor
            metrics[name] = (value, unit, len(traced_samples))
        interp = statistics.median(setup["interpreter"]) * 1000
        imported = statistics.median(setup["import"]) * 1000
        metrics["process.interpreter_ms"] = (interp, "ms", len(setup["interpreter"]))
        metrics["process.import_ms"] = (imported - interp, "ms", len(setup["import"]))
        metrics["cli.report_bytes"] = (
            statistics.fmean(s[4] for s in samples), "bytes/item", len(samples))
        untraced_ips = len(samples) / run["elapsed_s"] / factor
        traced_ips = len(traced_samples) / run["traced_elapsed_s"] / traced_factor
        metrics["trace.overhead_pct"] = ((untraced_ips / traced_ips - 1) * 100, "%",
                                         len(traced_samples))
        notes.update(items_per_s_untraced=untraced_ips, items_per_s_traced=traced_ips,
                     traced_host_factor=traced_factor,
                     spans_file=os.path.relpath(spans_path, ROOT),
                     spans_kept=run["trace"]["spans"])

    all_attempted = attempted + len(defects)
    failed_share = (failed + defect_failed) / all_attempted
    lines = [f"{workload} {name} = {value:.6g} {unit} (n={n})"
             for name, (value, unit, n) in metrics.items()]
    lines.append(f"{workload} failed_share = {failed_share:.6g} "
                 f"({failed + defect_failed} of {all_attempted}; "
                 f"{defect_failed} of {len(defects)} known-defect cases)")
    for label, ok, detail in defects:
        lines.append(f"{workload} known-defect {'pass' if ok else 'FAIL'}: {label} ({detail})")
    for key, reason in sorted(failures.items()):
        lines.append(f"{workload} FAILED {key}: {reason}")
    lines += [f"{workload} {key} = {value:.6g}" if isinstance(value, float)
              else f"{workload} {key} = {value}" for key, value in notes.items()]
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "setup_s": setup, "gauge_s": run["gauge"],
            "attempted": attempted, "failed": failed, "failed_share": failed_share,
            "known_defects": [{"case": label, "ok": ok, "detail": detail}
                              for label, ok, detail in defects],
            "failures": failures, "notes": notes,
            "metrics": {k: {"value": v, "unit": u, "samples": n}
                        for k, (v, u, n) in metrics.items()}}, lines


# ----------------------------------------------------------------------
# digest recording
# ----------------------------------------------------------------------


def record_digests() -> int:
    """Run every item any seed can draw once, check it against the oracle,
    and write corpus/digests.json.  Refuses if any answer is wrong."""
    pool = corpus.load_pool()
    pool_oracle = oracle.Oracle(pool)
    digests, failures = {}, {}
    for workload in corpus.WORKLOADS:
        items = corpus.all_items(workload, pool)
        if workload == "cli_corpus":
            result = measure_cli(items, 0, len(items))
        else:
            result = run_worker(workload, items, 0, False, len(items), "")
        samples, outputs = result["samples"], result["outputs"]
        # no reference digests yet: check answers only
        reference = {items[s[0]]["key"]: s[3] for s in samples}
        check_samples(items, samples, outputs, reference, pool_oracle, failures)
        digests.update(reference)
        print(f"{workload}: {len(items)} items, {len(failures)} failures so far")
    for key, reason in sorted(failures.items()):
        print(f"FAILED {key}: {reason}")
    if failures:
        return 1
    with open(corpus.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {os.path.relpath(corpus.DIGESTS_PATH, ROOT)}")
    return 0


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def check_checkout() -> None:
    for rel in ("src/vessiot/cli.py", "sections/product_flat.section",
                "perfbench/corpus/pool.json"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            raise SetupError(f"{rel} not found under {ROOT}: run from a vessiot checkout")


def main() -> int:
    parser = argparse.ArgumentParser(description="vessiot benchmark")
    parser.add_argument("--workload", choices=corpus.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite corpus/digests.json from the current engine")
    args = parser.parse_args()
    if not args.record and args.workload is None:
        parser.error("--workload is required")
    load_at_start = list(os.getloadavg())
    try:
        check_checkout()
        os.chdir(ROOT)
        os.makedirs(corpus.WORK, exist_ok=True)
        corpus.write_sections(corpus.load_pool())
        if args.record:
            return record_digests()
        workloads = corpus.WORKLOADS if args.workload == "all" else (args.workload,)
        results = []
        for workload in workloads:
            result, lines = run_workload(workload, args.seed, args.seconds, args.trace)
            results.append(result)
            for line in lines:
                print(line)
    except (SetupError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    meta = metadata(load_at_start)
    print("meta " + json.dumps(meta, sort_keys=True))
    results_dir = os.path.join(HERE, "results")
    os.makedirs(results_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results_dir, name), "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "results": results}, fh, indent=1)
    single = len(results) == 1
    final = {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(k if single else f"{r['workload']}.{k}"): {"value": m["value"],
                                                                "unit": m["unit"]}
                    for r in results for k, m in r["metrics"].items()},
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

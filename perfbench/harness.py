"""Closed-loop runner, metrics, run digest and machine line for one run.

A run sets the workload up several times (each time from empty library
caches) and keeps the last set-up.  The timed phase then runs rounds of the
workload's task mix back to back, one task at a time, until ``seconds`` of
task time have passed, at least ``MIN_TASKS`` tasks are done and the digest
rounds are complete.  Rounds are generated outside the timed windows.

Every run times a host-speed reference block (``refspeed``) about every
``REF_EVERY_S`` seconds of task time and around each set-up step, and scales
the end-to-end times and the trace overhead to the reference speed; the raw
wall-clock figures are printed in the report lines.

End-to-end metrics (untraced runs only, all at reference speed):
  setup_s      import time + median set-up time over ``SETUP_REPEATS``
  tasks_per_s  tasks done / summed task time
  task_p50_ms, task_p90_ms   task latency quantiles over all tasks
  peak_rss_mb  ru_maxrss of this process (not scaled)

A traced run sets up and runs the digest rounds twice, once plain and once
under ``layers.LayerTracer``, and reports the per-layer metrics; both
digests must agree.
"""

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import time
import traceback

import numpy as np
import sympy

import carnot
from carnot import algebra, bch, catalog, cli, curves, io, linalg, metric, \
    morphism, pdiff, subgroups

import refspeed
from layers import LayerTracer
from workloads import WORKLOADS

MODULES = {m.__name__.split(".")[-1]: m for m in (
    linalg, algebra, bch, catalog, morphism, subgroups, metric, curves, pdiff,
    io, cli)}
SETUP_REPEATS = 3
TRACE_PAIRS = 3
MIN_TASKS = 100
REF_EVERY_S = 0.05
FLOAT_LAW_NOTE = ("curves, metric and pdiff open-code the float group law through "
                  "the private bch._bch_terms, which is not wrapped: its cost shows in "
                  "algebra.bracket_float.* and in the calling function's self time, "
                  "not in bch")


def read_steal():
    """Steal jiffies of the whole machine (read-only)."""
    try:
        with open("/proc/stat") as f:
            return int(f.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def machine_line(steal_before):
    try:
        from sympy.external.gmpy import GROUND_TYPES
    except ImportError:
        GROUND_TYPES = "unknown"
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "sympy": sympy.__version__,
            "sympy_ground_types": GROUND_TYPES,
            "blas_threads": {v: os.environ.get(v) for v in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "steal_jiffies": [steal_before, read_steal()]}


def clear_caches():
    """Empty the library's memo tables, and sympy's, so every set-up pays
    them."""
    sympy.core.cache.clear_cache()
    for mod in MODULES.values():
        for obj in list(vars(mod).values()):
            for target in (obj, getattr(obj, "__wrapped__", None)):
                clear = getattr(target, "cache_clear", None)
                if callable(clear):
                    clear()


def set_up(workload, seed, workdir):
    clear_caches()
    t0 = time.perf_counter()
    state = workload.setup(seed, workdir)
    return state, time.perf_counter() - t0


def run_rounds(workload, state, seconds, max_rounds=None, tracer=None):
    """Closed loop over the workload's rounds; returns the raw record.  A
    reference block is timed before the first task, after every
    ``REF_EVERY_S`` of task time and after the last task, and ``scaled``
    holds each task's time at reference speed."""
    clock = time.perf_counter
    latencies, segment, refs, outputs, failures = [], [], [], [], []
    timed, since_ref, rnd, task_id = 0.0, 0.0, 0, 0
    gc.collect()
    refs.append(refspeed.ref_time())
    while True:
        tasks = workload.round_tasks(state, rnd)
        for task in tasks:
            if tracer is not None:
                tracer.begin_task(task_id, task.kind)
            t0 = clock()
            try:
                out = task.fn()
            except Exception as exc:  # a failing task is counted, never fatal
                out = None
                where = traceback.extract_tb(exc.__traceback__)[-1]
                failures.append("%s: %s: %s (%s:%d)" % (
                    task.kind, type(exc).__name__, exc,
                    os.path.basename(where.filename), where.lineno))
            dt = clock() - t0
            if tracer is not None:
                tracer.end_task()
            latencies.append(dt)
            segment.append(len(refs) - 1)
            timed += dt
            since_ref += dt
            if since_ref >= REF_EVERY_S:
                refs.append(refspeed.ref_time())
                since_ref = 0.0
            if rnd < workload.digest_rounds:
                outputs.append("%s=%s" % (task.kind, "FAILED" if out is None else out))
            task_id += 1
        rnd += 1
        if max_rounds is not None:
            if rnd >= max_rounds:
                break
        elif timed >= seconds and rnd >= workload.digest_rounds \
                and len(latencies) >= MIN_TASKS:
            break
    refs.append(refspeed.ref_time())
    factors = [refspeed.scale(a, b) for a, b in zip(refs, refs[1:])]
    scaled = [dt * factors[j] for dt, j in zip(latencies, segment)]
    checks = workload.finish(state)
    for name, ok, message in checks:
        if not ok:
            failures.append("%s: %s" % (name, message))
        outputs.append("%s=%s" % (name, ok))
    return {"latencies": latencies, "scaled": scaled, "refs": refs,
            "timed_s": timed, "rounds": rnd, "failures": failures,
            "attempted": len(latencies) + len(checks),
            "digest": hashlib.sha256("\n".join(outputs).encode()).hexdigest()[:16]}


def _latency_metrics(latencies):
    lat_ms = [1e3 * x for x in latencies]
    p90 = statistics.quantiles(lat_ms, n=10, method="inclusive")[8]
    return len(lat_ms) / (1e-3 * sum(lat_ms)), statistics.median(lat_ms), p90, \
        sum(1 for x in lat_ms if x > p90)


def _plain(workload, seed, seconds, workdir, import_s, import_scaled, max_rounds):
    ref = refspeed.ref_time(3)
    refs = [ref]
    setups, setups_scaled = [], []
    for _ in range(SETUP_REPEATS):
        state, dt = set_up(workload, seed, workdir)
        ref_after = refspeed.ref_time(3)
        setups.append(dt)
        setups_scaled.append(dt * refspeed.scale(ref, ref_after))
        refs.append(ref_after)
        ref = ref_after
    rec = run_rounds(workload, state, seconds, max_rounds=max_rounds)
    per_s, p50, p90, beyond = _latency_metrics(rec["scaled"])
    raw_per_s, raw_p50, raw_p90, _ = _latency_metrics(rec["latencies"])
    metrics = {
        "setup_s": {"value": import_scaled + statistics.median(setups_scaled),
                    "unit": "s"},
        "tasks_per_s": {"value": per_s, "unit": "1/s"},
        "task_p50_ms": {"value": p50, "unit": "ms"},
        "task_p90_ms": {"value": p90, "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "unit": "MiB"},
    }
    run_refs = [1e3 * r for r in rec["refs"]]
    tasks, failed = len(rec["latencies"]), len(rec["failures"])
    lines = [
        "inputs: %s" % _json(workload.inputs(state)),
        "set-up: import %.3f s, builds %s s (wall clock); import %.3f s, "
        "builds %s s (reference speed)"
        % (import_s, ", ".join("%.3f" % s for s in setups), import_scaled,
           ", ".join("%.3f" % s for s in setups_scaled)),
        "timed: %d tasks in %d rounds over %.2f s; p90 has %d of %d samples "
        "beyond it; fail_ratio %.4g (%d/%d)"
        % (tasks, rec["rounds"], rec["timed_s"], beyond, tasks,
           failed / rec["attempted"], failed, rec["attempted"]),
        "wall clock: %.6g tasks/s, p50 %.6g ms, p90 %.6g ms, set-up %.6g s"
        % (raw_per_s, raw_p50, raw_p90, import_s + statistics.median(setups)),
        "reference block (%.1f ms at reference speed): set-up %s ms; timed phase "
        "%d blocks, quartiles %s ms"
        % (refspeed.REF_MS, ", ".join("%.2f" % (1e3 * r) for r in refs),
           len(run_refs), ", ".join("%.2f" % q for q in
                                    statistics.quantiles(run_refs, n=4))),
    ]
    return metrics, rec["attempted"], rec["failures"], [rec["digest"]], lines


def _traced(workload, seed, workdir, max_rounds):
    """The digest rounds untraced and then traced, each from a fresh set-up,
    ``TRACE_PAIRS`` times.  The overhead ratio is the median of the pairs'
    traced / untraced task times at reference speed (the first pair also
    pays the process's lazy imports); the per-layer metrics come from the
    last traced pass."""
    rounds = max_rounds or workload.digest_rounds
    ratios, failures, attempted, digests = [], [], 0, []
    for _ in range(TRACE_PAIRS):
        state, _ = set_up(workload, seed, workdir)
        plain = run_rounds(workload, state, 0.0, max_rounds=rounds)
        tracer = LayerTracer(MODULES)
        tracer.install(carnot)
        try:
            state, _ = set_up(workload, seed, workdir)
            traced = run_rounds(workload, state, 0.0, max_rounds=rounds, tracer=tracer)
        finally:
            tracer.uninstall()
        ratios.append(sum(traced["scaled"]) / sum(plain["scaled"]))
        for rec in (plain, traced):
            failures += rec["failures"]
            attempted += rec["attempted"]
            digests.append(rec["digest"])
    if len(set(digests)) != 1:
        failures.append("untraced and traced digests differ: %s" % " ".join(digests))
    overhead = statistics.median(ratios)
    metrics = tracer.metrics(overhead)
    inputs = dict(workload.inputs(state))
    for key in ("bch.repeat_pair_share", "algebra.bracket_float.rows_per_call"):
        inputs[key] = round(metrics[key]["value"], 4)
    spans_path = os.path.join(os.path.dirname(workdir), "spans-%s-seed%d.jsonl"
                              % (workload.name, seed))
    nspans = tracer.write_spans(spans_path)
    lines = [
        "inputs: %s" % _json(inputs),
        "trace: %d rounds, overhead %.3f (pairs %s), %d spans in %s"
        % (rounds, overhead, ", ".join("%.3f" % r for r in ratios), nspans,
           os.path.relpath(spans_path)),
        "trace counts: %s" % _json(
            {k: v for k, v in tracer.counts_digest().items() if v}),
        "note: " + FLOAT_LAW_NOTE,
    ]
    return metrics, attempted, failures, digests[-2:], lines


def run(name, seed, seconds, trace, workdir, import_s=0.0, import_scaled=0.0,
        max_rounds=None):
    """One benchmark run; returns (result dict, report lines)."""
    workload = WORKLOADS[name]
    steal0 = read_steal()
    os.makedirs(workdir, exist_ok=True)
    if trace:
        metrics, attempted, failures, digests, lines = _traced(
            workload, seed, workdir, max_rounds)
    else:
        metrics, attempted, failures, digests, lines = _plain(
            workload, seed, seconds, workdir, import_s, import_scaled, max_rounds)
    lines.insert(0, "machine: %s" % _json(machine_line(steal0)))
    lines += ["FAILED %s" % message for message in failures[:10]]
    lines.append("digest: %s" % " ".join(digests))
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    return result, lines


def _json(obj):
    return json.dumps(obj, sort_keys=True)

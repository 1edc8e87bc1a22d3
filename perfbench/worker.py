"""One benchmark process: set up a workload, then time it in a closed loop.

Usage: python worker.py CONFIG.json SPAWN_TIME

SPAWN_TIME is the parent's `time.monotonic()` just before it started this
interpreter (CLOCK_MONOTONIC is shared by all processes), so the reported
`setup_s` covers interpreter start, imports and the first, untimed op.
In "setup" mode the worker stops there.  In "run" mode it then times
whole units of ops until the configured seconds have passed, finishing
the unit in progress; with tracing on, units alternate untraced/traced
and the traced ones record spans.  The last line of stdout is a JSON
object with the raw samples.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import tracing
import workloads


def _threads() -> int | None:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def _cpu(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    with open(sys.argv[1]) as fh:
        cfg = json.load(fh)
    spawned = float(sys.argv[2])
    name = cfg["workload"]
    spec = workloads.WORKLOADS[name]
    if spec["in_process"]:
        op_cls = {"degree1-m2048": workloads.Degree1Op,
                  "degree-d-m256": workloads.DegreeDOp}[name]
        op = op_cls(cfg["items"], cfg["workdir"])
    else:
        op = workloads.ColdCliOp(cfg["items"], cfg["workdir"], cfg["cli_env"],
                                 cfg["deadline"], cfg["traced_cli"])

    attempted, failed, problems, residuals = 0, 0, [], []

    def run(i, traced):
        nonlocal attempted, failed
        t0 = time.perf_counter()
        try:
            dt, probs, res = op(i, traced)
        except Exception as exc:   # a raising op is a failed op; keep timing
            dt = time.perf_counter() - t0
            probs, res = [f"op {i} raised {exc!r}"], None
        attempted += 1
        if probs:
            failed += 1
            problems.extend(probs[:3])
        if res is not None:
            residuals.append(res)
        return dt

    run(0, False)                         # the first, untimed op
    setup_s = time.monotonic() - spawned
    out = {"setup_s": setup_s, "threads": _threads()}
    if cfg["mode"] == "run":
        out.update(_timed_loop(cfg, spec, op, run))
    out.update(attempted=attempted, failed=failed, problems=problems[:20],
               worst_residual=max(residuals) if residuals else None,
               peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               child_peak_rss_kb=resource.getrusage(
                   resource.RUSAGE_CHILDREN).ru_maxrss)
    print(json.dumps(out))
    return 0


def _timed_loop(cfg, spec, op, run) -> dict:
    tracer = tracing.Tracer() if cfg["trace"] else None
    unit = spec["unit"]
    times = {False: [], True: []}
    cpu0 = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    i, units = 0, 0
    min_units = 2 if tracer else 1
    while True:
        # finish the unit in progress rather than stop early: a slow run
        # that lost a whole cli-cold round would lose its tail percentile
        if units >= min_units and time.perf_counter() - start >= cfg["seconds"]:
            break
        traced = tracer is not None and units % 2 == 1
        if traced and spec["in_process"]:
            tracer.install()
        try:
            for _ in range(unit):
                if tracer is not None:
                    tracer.op = i
                times[traced].append(run(i, traced))
                if traced and not spec["in_process"]:
                    tracer.extend(op.last_spans or [], i)
                i += 1
        finally:
            if traced and spec["in_process"]:
                tracer.uninstall()
        units += 1
    wall = time.perf_counter() - start
    cpu = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN) - cpu0
    out = {"op_s": times[False], "wall_s": wall, "cpu_s": cpu,
           "timed_ops": i}
    if tracer is not None:
        tracer.dump(cfg["spans_out"])
        out.update(op_s_traced=times[True], traced_ops=len(times[True]),
                   layers=tracing.summarize(tracer.spans))
    return out


if __name__ == "__main__":
    sys.exit(main())

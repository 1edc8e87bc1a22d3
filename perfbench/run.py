"""foldedmaps benchmark driver.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in workloads.py and declared with their metrics in
BENCHMARK.json.  The package is imported from ./src; nothing is installed.
Every op runs in a fresh worker interpreter (worker.py), in a closed loop
with one client.  With --trace 0 the run reports the end-to-end metrics;
with --trace 1 it reports the per-layer metrics of a traced run.  The last
line of stdout is {"correct", "attempted", "failed", "metrics"}; the full
result with every layer, the raw samples and provenance is written to
.perfbench-out/results/, and the spans of a traced run to
.perfbench-out/spans/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

BUDGET_S = 170            # every run ends within the 180 s the caller allows
SETUP_SAMPLES = 3         # fresh interpreters per run; setup_s is their median
IMPORTTIME_SAMPLES = 3
IMPORT_LAYERS = ("foldedmaps.cli", "scipy.integrate")
OUT_DIR = ".perfbench-out"

PROBE = r"""
import json, os, sys
import numpy as np, scipy
a = np.random.default_rng(0).random((256, 256))
a @ a                       # start the BLAS thread pool before counting
try:
    threads = len(os.listdir("/proc/self/task"))
except OSError:
    threads = None
blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
print(json.dumps({"python": sys.version.split()[0], "numpy": np.__version__,
                  "scipy": scipy.__version__, "blas": blas,
                  "threads_after_blas_call": threads}))
"""


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# subprocesses


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"run exceeded its {BUDGET_S} s budget")
    return left


def _run(cmd, env, deadline, **kw) -> subprocess.CompletedProcess:
    try:
        return subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=_remaining(deadline), **kw)
    except subprocess.TimeoutExpired as exc:   # run() has killed and reaped it
        raise BenchError(f"timed out: {cmd[:4]}") from exc


def _worker(cfg: dict, mode: str, env, deadline) -> dict:
    path = os.path.join(cfg["workdir"], f"worker-{mode}.json")
    with open(path, "w") as fh:
        json.dump(dict(cfg, mode=mode), fh)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), path]
    proc = _run(cmd + [repr(time.monotonic())], env, deadline)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed ({proc.returncode}): "
                         f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def _import_seconds(env, deadline) -> float:
    t0 = time.perf_counter()
    proc = _run([sys.executable, "-c", "import foldedmaps.cli"], env, deadline)
    if proc.returncode != 0:
        raise BenchError(f"import foldedmaps.cli failed: {proc.stderr[-2000:]}")
    return time.perf_counter() - t0


def _importtime(env, deadline) -> dict[str, float]:
    proc = _run([sys.executable, "-X", "importtime", "-c",
                 "import foldedmaps.cli"], env, deadline)
    cumulative = tracing.parse_importtime(proc.stderr)
    missing = [m for m in IMPORT_LAYERS if m not in cumulative]
    if proc.returncode != 0 or missing:
        raise BenchError(f"importtime lacks {missing}: {proc.stderr[-500:]}")
    return {m: cumulative[m] for m in IMPORT_LAYERS}


# ---------------------------------------------------------------------------
# provenance


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _git_commit(root: str) -> str | None:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    head = _read(os.path.join(root, ".git", "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = _read(os.path.join(root, ".git", ref))
    if sha is None:
        for line in (_read(os.path.join(root, ".git", "packed-refs")) or
                     "").splitlines():
            if line.endswith(" " + ref):
                sha = line.split()[0]
    return sha


def _hardware() -> dict:
    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for idx in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{idx}/"
        level, kind = _read(base + "level"), _read(base + "type")
        if level is None:
            break
        if kind != "Instruction":
            caches[f"L{level}"] = _read(base + "size")
    return {"cpu_model": model or platform.processor(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "caches_per_instance": caches,
            "machine": platform.machine()}


def _working_set(name: str) -> dict:
    res = workloads.WORKLOADS[name]["resolution"]
    sizes = {f"ladder_M{res}_bytes": workloads.ladder_bytes(res)}
    if name == "cli-cold":     # compactify runs at its default M = 256
        sizes["ladder_M256_bytes"] = workloads.ladder_bytes(256)
    sizes["note"] = (f"computed: {workloads.LADDER_RINGS} rings x M x 2 "
                     "complex128; each op holds two ladders (v_plus, v_minus)")
    return sizes


# ---------------------------------------------------------------------------
# metrics


def tail(samples: list[float], pct: float) -> tuple[float, float]:
    """(value, percentile) of the op-time tail at percentile `pct`.

    The percentile is lowered until at least ten samples lie above the
    returned one; with ten samples or fewer the maximum is returned at
    percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    pct = min(pct, 100.0 * (n - 10) / n)
    return xs[math.ceil(pct * n / 100.0 - 1e-9) - 1], pct


def end_to_end(name: str, worker: dict, setup: list[float]) -> dict:
    ops = worker["op_s"]
    value, pct = tail(ops, workloads.WORKLOADS[name]["tail_pct"])
    rss_kb = worker["child_peak_rss_kb"] if name == "cli-cold" \
        else worker["peak_rss_kb"]
    worst = max(worker["worst_residual"], 1e-300)
    attempted = worker["attempted"]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "op_s.p50": (statistics.median(ops), "s"),
        "op_s.tail": (value, "s"),
        "ops_per_s": (worker["timed_ops"] / worker["wall_s"], "1/s"),
        "cpu_s_per_op": (worker["cpu_s"] / worker["timed_ops"], "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "accuracy_digits": (-math.log10(worst), "digits"),
        "passed_ratio": ((attempted - worker["failed"]) / attempted, "ratio"),
    }, {"tail_percentile": pct, "samples": len(ops)}


def per_layer(worker: dict, imports: list[dict]) -> dict:
    n = worker["traced_ops"]
    out = {}
    for layer, row in sorted(worker["layers"].items()):
        out[f"{layer}.calls"] = (row["calls"] / n, "count")
        out[f"{layer}.s"] = (row["s"] / n, "s")
        out[f"{layer}.self_s"] = (row["self_s"] / n, "s")
    # layers the workload never reached read zero
    for module, attrs in tracing.TARGETS.items():
        for attr in attrs:
            layer = tracing.layer_name(module, attr)
            for field, unit in (("calls", "count"), ("s", "s"),
                                ("self_s", "s")):
                out.setdefault(f"{layer}.{field}", (0.0, unit))
    for module in IMPORT_LAYERS:
        out[f"import.{module}.s"] = (
            statistics.median(i[module] for i in imports), "s")
    out["trace.overhead_ratio"] = (
        statistics.median(worker["op_s_traced"])
        / statistics.median(worker["op_s"]), "ratio")
    return out


# ---------------------------------------------------------------------------


def run(args, root: str) -> tuple[dict, dict]:
    deadline = time.monotonic() + BUDGET_S
    src = os.path.join(root, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out_dir = os.path.join(root, OUT_DIR)
    for sub in ("results", "spans"):
        os.makedirs(os.path.join(out_dir, sub), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    tag = f"{args.workload}-seed{args.seed}"
    try:
        items = workloads.make_inputs(args.workload, args.seed, workdir)
        cfg = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": bool(args.trace),
               "items": items, "workdir": workdir, "cli_env": env,
               "deadline": deadline,
               "traced_cli": os.path.join(HERE, "cli_traced.py"),
               "spans_out": os.path.join(out_dir, "spans", tag + ".json")}
        probe = _run([sys.executable, "-c", PROBE], env, deadline)
        if probe.returncode != 0:
            raise BenchError(f"probe failed: {probe.stderr[-2000:]}")
        in_process = workloads.WORKLOADS[args.workload]["in_process"]
        # set-up-only workers; their first ops are checked like any other
        setup_workers = [] if args.trace or not in_process else [
            _worker(cfg, "setup", env, deadline)
            for _ in range(SETUP_SAMPLES - 1)]
        worker = _worker(cfg, "run", env, deadline)
        workers = setup_workers + [worker]
        if args.trace:
            setup = []
        elif in_process:
            setup = [w["setup_s"] for w in workers]
        else:
            setup = [_import_seconds(env, deadline)
                     for _ in range(SETUP_SAMPLES)]
        attempted = sum(w["attempted"] for w in workers)
        failed = sum(w["failed"] for w in workers)
        problems = [p for w in workers for p in w["problems"]]
        if args.trace:
            imports = [_importtime(env, deadline)
                       for _ in range(IMPORTTIME_SAMPLES)]
            metrics = per_layer(worker, imports)
            detail = {"traced_ops": worker["traced_ops"],
                      "untraced_ops": len(worker["op_s"]),
                      "spans_file": os.path.relpath(cfg["spans_out"], root)}
        else:
            metrics, detail = end_to_end(args.workload, worker, setup)
            detail["setup_samples_s"] = setup
        degrees = sorted({it["degree"] for it in items if "degree" in it})
        full = {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "attempted": attempted, "failed": failed,
            "problems": problems[:20],
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
            "detail": dict(detail, op_s=worker["op_s"],
                           op_s_traced=worker.get("op_s_traced"),
                           curve_degrees=degrees or [1],
                           loop="closed, one client, one process"),
            "provenance": {
                "seed": args.seed, "git_commit": _git_commit(root),
                **json.loads(probe.stdout.strip().splitlines()[-1]),
                "worker_threads": worker["threads"],
                "env_threads": {k: os.environ.get(k) for k in (
                    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")},
                **_hardware(),
                "ring_ladder_working_set": _working_set(args.workload),
            },
        }
        path = os.path.join(out_dir, "results",
                            f"{tag}-trace{int(args.trace)}.json")
        with open(path, "w") as fh:
            json.dump(full, fh, indent=1)
        return full, metrics
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def declared(root: str, trace: bool) -> list[str]:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "foldedmaps", "cli.py")):
        print("perfbench: no src/foldedmaps in the current directory; run "
              "from the root of a foldedmaps checkout", file=sys.stderr)
        return 2
    try:
        names = declared(root, bool(args.trace))
        full, metrics = run(args, root)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    missing = [n for n in names if n not in metrics]
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 1
    for p in full["problems"]:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": full["failed"] == 0, "attempted": full["attempted"],
        "failed": full["failed"],
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]}
                    for n in names}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

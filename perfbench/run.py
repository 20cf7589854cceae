"""catlink benchmark: time catlink CLI commands end to end, or trace them
layer by layer.

Usage, from the root of a catlink source tree::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

Every timed execution is a fresh process running one ``catlink`` command (see
``child.py``).  With ``--trace 0`` the run first starts
``MIN_SETUP_SAMPLES - 1`` set-up-only probes, which also warm the file cache,
then repeats the command while one more execution is expected to end within
``S`` seconds (always at least once), and reports the median of each
end-to-end metric.  With ``--trace 1`` it runs the command once untraced and
once under ``layers.Tracer``, checks that both wrote byte-identical outputs
and that the traced run entered exactly the layers the workload predicts,
and reports the per-layer metrics.  Every execution's outputs must pass the
workload's acceptance check.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record, with
the environment, goes to ``perfbench/out/records/``.  ``--all`` runs every
workload and prints each metric by name and unit, ``failed_frac`` included.
"""

from __future__ import annotations

import argparse
import compileall
import filecmp
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from layers import per_layer_metrics, summarize
from workloads import WORKLOADS, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# One BLAS thread on both sides of every comparison: with the default (one
# thread per core) wall times on a shared 2-core machine spread wider, and
# CPU time counts spin-waiting BLAS threads.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
MIN_SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {"busy_s": "s", "self_s": "s", "calls": "count", "rhs_evals": "count",
                   "us_per_rhs": "us", "iterations": "count", "s_per_iteration": "s",
                   "cap_hit_frac": "frac", "trials_per_s": "1/s", "gap_evals": "count",
                   "bytes": "B", "overhead_s": "s"}


@dataclass
class Execution:
    ok: bool
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    setup_s: float | None
    out_dir: str
    record: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def execute(workload: Workload, seed: int, work_dir: str, tag: str,
            trace: bool = False, setup_only: bool = False) -> Execution:
    """Run one child process and check what it wrote."""
    out_root = os.path.join(work_dir, tag)
    record_path = out_root + ".json"
    log_path = out_root + ".log"
    argv = [sys.executable, os.path.join(HERE, "child.py"), "--src", SRC,
            "--record", record_path]
    argv += ["--trace"] * trace + ["--setup-only"] * setup_only
    argv += ["--", *workload.argv(seed, out_root)]
    with open(log_path, "w") as log:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL)
        killer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)

    problems = []
    record: dict = {}
    if proc.returncode != 0:
        problems.append(f"{tag}: exit code {proc.returncode}, see {log_path}")
    else:
        with open(record_path) as fh:
            record = json.load(fh)
    setup = record["entered_monotonic"] - start if "entered_monotonic" in record else None
    if not problems and setup is None:
        problems.append(f"{tag}: the {workload.command} command was never entered")
    out_dir = os.path.join(out_root, workload.command)
    if not problems and not setup_only:
        problems += [f"{tag}: {p}" for p in workload.check(out_dir)]
    return Execution(ok=not problems, wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                     peak_rss_mb=usage.ru_maxrss / 1024.0, setup_s=setup,
                     out_dir=out_dir, record=record, problems=problems)


def another_fits(walls: list[float], elapsed: float, seconds: float) -> bool:
    """Whether to start another execution: always a first one, then only
    while one more of median length is expected to end inside the window."""
    return not walls or elapsed + statistics.median(walls) <= seconds


def run_untraced(workload: Workload, seed: int, seconds: float, work_dir: str):
    # set-up-only probes first: they add set-up samples and, untimed for
    # wall_s, warm the file cache for the timed executions
    probes = [execute(workload, seed, work_dir, f"p{i}", setup_only=True)
              for i in range(MIN_SETUP_SAMPLES - 1)]
    start = time.monotonic()
    runs: list[Execution] = []
    while another_fits([r.wall_s for r in runs], time.monotonic() - start, seconds):
        runs.append(execute(workload, seed, work_dir, f"e{len(runs)}"))
    setups = [r.setup_s for r in probes + runs if r.setup_s is not None]
    metrics = {
        "wall_s": statistics.median(r.wall_s for r in runs),
        "setup_s": statistics.median(setups) if setups else 0.0,
        "cpu_s": statistics.median(r.cpu_s for r in runs),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
    }
    return probes + runs, metrics, []


def _same_outputs(a: str, b: str) -> list[str]:
    names = sorted(os.listdir(a))
    if names != sorted(os.listdir(b)):
        return [f"traced run wrote {sorted(os.listdir(b))}, untraced {names}"]
    _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    return [f"traced output {n} differs from the untraced one" for n in mismatch + errors]


def span_problems(workload: Workload, spans: list[dict]) -> list[str]:
    entered = set(summarize(spans))
    return ([f"predicted layer {n} was not entered" for n in workload.uses if n not in entered]
            + [f"layer {n} was entered, predicted bypassed" for n in workload.bypasses
               if n in entered])


def run_traced(workload: Workload, seed: int, work_dir: str):
    plain = execute(workload, seed, work_dir, "untraced")
    traced = execute(workload, seed, work_dir, "traced", trace=True)
    problems = []
    metrics: dict[str, float] = {}
    if plain.ok and traced.ok:
        problems += _same_outputs(plain.out_dir, traced.out_dir)
        spans = traced.record["spans"]
        problems += span_problems(workload, spans)
        metrics = per_layer_metrics(spans, traced.record["counters"],
                                    traced.record["import_s"])
        metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
    return [plain, traced], metrics, problems


def environment() -> dict:
    """Machine and software the numbers were measured on."""
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    blas = {name: mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            for name, mod in (("numpy", numpy), ("scipy", scipy))}
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: f"{v.get('name')} {v.get('version')}" for k, v in blas.items()},
        "blas_threads": THREAD_ENV,
        "git_commit": commit,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    work_dir = os.path.join(OUT, "work", f"{name}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    if trace:
        executions, metrics, problems = run_traced(workload, seed, work_dir)
        units = {k: PER_LAYER_UNITS[k.rsplit(".", 1)[1]] for k in metrics}
    else:
        executions, metrics, problems = run_untraced(workload, seed, seconds, work_dir)
        units = END_TO_END_UNITS
    for e in executions:
        problems += e.problems
    failed = sum(not e.ok for e in executions)
    correct = not problems and failed == 0
    result = {"correct": correct, "attempted": len(executions), "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    env = environment()
    print("environment: " + json.dumps(env))
    record = {"workload": name, "command": workload.argv(seed, "<out>"), "seed": seed,
              "seeded": workload.seeded, "seconds": seconds, "trace": trace,
              "environment": env, "problems": problems,
              "executions": [{"wall_s": e.wall_s, "cpu_s": e.cpu_s,
                              "peak_rss_mb": e.peak_rss_mb, "setup_s": e.setup_s,
                              "ok": e.ok} for e in executions],
              "result": result}
    os.makedirs(os.path.join(OUT, "records"), exist_ok=True)
    with open(os.path.join(OUT, "records", f"{name}-seed{seed}-trace{int(trace)}.json"),
              "w") as fh:
        json.dump(record, fh, indent=2)
    if correct:
        shutil.rmtree(work_dir)
    for p in problems:
        print(f"{name}: {p}", file=sys.stderr)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    if not os.path.isfile(os.path.join(SRC, "catlink", "cli.py")):
        print(f"error: no catlink sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    # compile once, outside every timed interval, as an installed package is
    compileall.compile_dir(os.path.join(SRC, "catlink"), quiet=1)

    if args.workload:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0

    combined = {}
    for name in WORKLOADS:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        result["metrics"]["failed_frac"] = {"value": result["failed"] / result["attempted"],
                                            "unit": "frac"}
        for metric, m in result["metrics"].items():
            print(f"{name:10s} {metric:45s} {m['value']:14.6g} {m['unit']}")
        combined[name] = result
    print(json.dumps(combined))
    return 0 if all(r["correct"] for r in combined.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

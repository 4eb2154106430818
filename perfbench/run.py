"""Benchmark of ptshannon: run one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload sim-stream --seed 1 --seconds 25 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory.  With ``--trace 0`` the workload runs untraced in eight worker
processes one after another, each for an eighth of ``--seconds`` and at
least one pass, and the end-to-end metrics are printed: ``setup_s`` (median
over the eight process starts), ``run_s`` (wall time of one pass over the
workload's operations, each operation taken at its median over all passes
of all workers) and ``peak_rss_mib`` (median over the workers).  With ``--trace 1`` one worker
alternates traced and untraced passes and the per-layer metrics are printed
instead.  Every run checks the outputs (``checks.py``) and reports how many
operations it attempted and how many failed.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

# Many short worker processes rather than one long one: on a shared host the
# speed of a process varies by several percent from one process to the next,
# and pooling passes over processes averages that out.  A CLI user, too, runs
# each pass in a fresh process.
MEASURING_WORKERS = 8
RUN_LIMIT_S = 170.0         # a worker still running this long after the start is killed
OUT_DIR = os.path.join(ROOT, "perfbench-out")
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "NUMEXPR_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class WorkerFailed(RuntimeError):
    pass


def start_worker(args, seconds: float, deadline: float) -> dict:
    """Run worker.py in a fresh interpreter, wait for it until ``deadline``
    (CLOCK_MONOTONIC), return its report."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), **PINNED)
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--trace", str(args.trace),
           "--spawned-at", repr(spawned_at), "--out-dir", OUT_DIR]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - spawned_at, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"run exceeded {RUN_LIMIT_S:.0f} s") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited {proc.returncode}:\n{err[-2000:]}")
    return json.loads(lines[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(ROOT, "src", "ptshannon", "__init__.py")):
        print(f"no package source at {os.path.join(ROOT, 'src', 'ptshannon')}", file=sys.stderr)
        return 2

    import checks

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so workers are stopped
    deadline = time.clock_gettime(time.CLOCK_MONOTONIC) + RUN_LIMIT_S
    try:
        if args.trace:
            reports = [start_worker(args, args.seconds, deadline)]
        else:
            reports = [start_worker(args, args.seconds / MEASURING_WORKERS, deadline)
                       for _ in range(MEASURING_WORKERS)]
    except WorkerFailed as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1
    report = reports[0]

    specs = workloads.build(args.workload, args.seed)
    problems = checks.verify(specs, report["results"])
    mismatched = sum(rep["mismatched_passes"] for rep in reports) + \
        sum(rep["results"] != report["results"] for rep in reports[1:])
    if mismatched:
        problems.append(f"{mismatched} passes gave outputs that differ from the first pass")
    passes = sum(rep["passes"] for rep in reports)
    attempted = passes * report["ops"]
    failed = sum(rep["failed"] for rep in reports)
    print(f"workload {args.workload}, seed {args.seed}: {passes} passes of {report['ops']} "
          f"operations in {len(reports)} processes; attempted {attempted}, failed {failed}")
    for i, result in enumerate(report["results"]):
        if "error" in result:
            print(f"  op {i} failed: {result['error']}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")

    if args.trace:
        import tracing

        metrics = {name: metric(report["per_layer"][name], unit)
                   for name, unit in tracing.PER_LAYER.items()}
        untraced = statistics.median(report["pass_s"])
        traced = statistics.median(report["traced_pass_s"])
        metrics["trace.overhead_ratio"] = metric(traced / untraced, "ratio")
        print(f"  traced pass {traced:.4f} s, untraced {untraced:.4f} s: tracing overhead "
              f"{traced / untraced - 1:+.1%}; spans in {report['trace_file']}")
        if report["absent"]:
            print(f"  absent helpers: {', '.join(report['absent'])}")
    else:
        op_s = [times for rep in reports for times in rep["op_s"]]
        setups = [rep["setup_s"] for rep in reports]
        metrics = {"setup_s": metric(statistics.median(setups), "s"),
                   "run_s": metric(sum(statistics.median(t) for t in zip(*op_s)), "s"),
                   "peak_rss_mib": metric(statistics.median(rep["peak_rss_mib"]
                                                            for rep in reports), "MiB")}
        print(f"  run_s sums each operation's median over {len(op_s)} passes "
              f"(median pass {statistics.median(sum(t) for t in op_s):.4f} s); setup_s is "
              f"the median of {len(setups)} process starts")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload in one process: set up, run whole passes, report as JSON.

Started by ``run.py`` with the package's ``src`` directory on PYTHONPATH
and BLAS threads pinned to one.  Set-up time runs from the moment the parent
started this process (``--spawned-at``, CLOCK_MONOTONIC) to the first
operation: interpreter start, ``import ptshannon`` and building the inputs.
A pass runs every operation of the workload once; passes repeat until
``--seconds`` is used up (at least one untraced pass).  The last line of
standard output is one JSON object with the time of every operation in
every pass, the first pass's outputs and the counts.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

MIN_PASSES = 1


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def make_call(spec: dict, out_dir: str):
    """A closure that makes one public call of the package and returns its
    output as plain data.  Package functions are looked up at call time, so
    the tracer's wrappers take effect."""
    import numpy as np
    import ptshannon as pt

    kind = spec["op"]
    if kind == "channel":
        channel = pt.Channel(np.array(spec["channel"]))
        p_in = pt.Distribution(np.array(spec["input"]))

        def call():
            rep = pt.simulate_channel_coding(channel, p_in, spec["rate"], spec["n"],
                                             spec["trials"], spec["decoder"],
                                             pt.RngStream(spec["seed"]), method=spec["method"])
            return {"successes": rep.successes, "trials": rep.trials}
    elif kind == "source":
        setup = pt.SourceCodingSetup(pt.Distribution(np.array(spec["source"])), spec["rate"],
                                     spec["n"], spec["mode"])

        def call():
            rep = pt.simulate_source_coding(setup, spec["trials"], pt.RngStream(spec["seed"]))
            return {"successes": rep.successes, "trials": rep.trials}
    elif kind == "rd":
        source = pt.Distribution(np.array(spec["source"]))
        test_channel = pt.Channel(np.array(spec["test_channel"]))
        d = np.array(spec["d"])

        def call():
            rep = pt.simulate_rate_distortion(source, test_channel, d, spec["D"], spec["rate"],
                                              spec["n"], spec["trials"],
                                              pt.RngStream(spec["seed"]), method=spec["method"])
            return {"successes": rep.successes, "trials": rep.trials}
    elif kind == "capacity":
        channel = pt.Channel(np.array(spec["channel"]))

        def call():
            res = pt.capacity(channel)
            return {"capacity": res.capacity_nats, "input": res.optimal_input.probs.tolist(),
                    "iterations": res.iterations, "gap": res.gap_bound}
    elif kind == "rate-distortion":
        source = pt.Distribution(np.array(spec["source"]))
        d = np.array(spec["d"])

        def call():
            point = pt.rate_distortion(source, d, spec["D"])
            return {"rate": point.rate_nats, "distortion": point.distortion}
    elif kind == "exact":
        setup = pt.SourceCodingSetup(pt.Distribution(np.array(spec["source"])), spec["rate"],
                                     spec["n"], spec["mode"])

        def call():
            return {"p": pt.source_coding_exact_psuc(setup)}
    elif kind == "cli-claims":
        import ptshannon.cli as cli

        csv_path = os.path.join(out_dir, "claims.csv")
        config_path = os.path.join(out_dir, "claims.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump({"kind": "claims", "parameters": {}, "output_path": csv_path,
                       "seed": spec["seed"]}, fh)

        def call():
            code = cli.main(["claims", "--config", config_path])
            with open(csv_path, encoding="utf-8") as fh:
                return {"exit": code, "csv": fh.read()}
    else:
        raise ValueError(f"unknown operation {kind!r}")
    return call


def run_pass(calls) -> tuple[list, list, int]:
    """Every operation once: (outputs, seconds per operation, failures)."""
    results, seconds, failed = [], [], 0
    for call in calls:
        t0 = clock()
        try:
            results.append(call())
        except Exception as exc:  # an operation that fails is counted, not fatal
            results.append({"error": f"{type(exc).__name__}: {exc}"})
            failed += 1
        seconds.append(clock() - t0)
    return results, seconds, failed


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()

    import ptshannon

    src = os.path.join(os.path.dirname(HERE), "src")
    if not os.path.abspath(ptshannon.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"ptshannon was imported from {ptshannon.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    os.makedirs(args.out_dir, exist_ok=True)
    specs = workloads.build(args.workload, args.seed)
    calls = [make_call(spec, args.out_dir) for spec in specs]
    setup_s = clock() - args.spawned_at

    tracer = None
    if args.trace:
        from tracing import Tracer, layer_metrics
        tracer = Tracer()

    first, pass_s, op_s, traced_s, layers = None, [], [], [], []
    passes = failed = mismatched = 0
    start = clock()
    traced_next = False
    warm_up = tracer is not None  # traced and untraced passes then compare warm to warm
    while True:
        gc.collect()
        if traced_next:
            tracer.reset()
            tracer.install()
        t0 = clock()
        try:
            results, seconds, n_failed = run_pass(calls)
        finally:
            elapsed = clock() - t0
            if traced_next:
                tracer.uninstall()
        if traced_next:
            traced_s.append(elapsed)
            layers.append(layer_metrics(tracer.spans))
        elif not warm_up:
            pass_s.append(elapsed)
            op_s.append(seconds)
        passes += 1
        failed += n_failed
        if first is None:
            first = results
        elif results != first:
            mismatched += 1
        if warm_up:
            warm_up = False
        elif tracer is not None:
            traced_next = not traced_next
        done = clock() - start
        enough = len(pass_s) >= MIN_PASSES and (tracer is None or traced_s)
        if enough and done + elapsed > args.seconds:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = {"setup_s": setup_s, "op_s": op_s, "pass_s": pass_s, "passes": passes,
              "ops": len(calls), "failed": failed, "mismatched_passes": mismatched,
              "results": first, "peak_rss_mib": peak_rss_mib}
    if tracer is not None:
        trace_path = os.path.join(args.out_dir, f"trace-{args.workload}-seed{args.seed}.npz")
        tracer.write(trace_path)
        per_layer = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        report.update(traced_pass_s=traced_s, per_layer=per_layer, absent=tracer.absent,
                      trace_file=os.path.relpath(trace_path, os.path.dirname(HERE)))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

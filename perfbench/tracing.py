"""Spans around the package's layers, recorded from the benchmark's side.

``Tracer.install`` replaces, wherever the loaded ``ptshannon`` modules hold
them, the public functions and methods of each module, plus the stage
helpers of ``simulate`` and ``cli`` named in ``HELPERS``, with wrappers that
record one span per call: name, parent span, start, duration and the time
its child spans cover.  Generator functions get one span per generator,
whose duration is the time spent inside it.  A helper that is not there is
reported as absent.  Spans stay in memory; ``write`` saves them once the
run ends, and ``layer_metrics`` turns them into the per-layer numbers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
import time

import numpy as np

MODULES = ("alphabet", "coding", "info_measures", "type_classes", "polytope", "saddle",
           "claims", "cli", "simulate")
HELPERS = {
    "simulate": ("_channel_conditional", "_channel_materialized", "_rd_conditional",
                 "_rd_materialized", "_composition_lattice", "_fold", "_rd_fail_probability",
                 "_ChannelConditional.lattice", "_DistortionConditional.law",
                 "_Lattice.__init__", "_Lattice.log_tail_geq", "_Lattice.log_tail_gt",
                 "_Lattice.log_mass_eq"),
    "cli": ("_load_config", "_validate_common", "_write_csv"),
}

STREAM = {"alphabet.RngStream.substream", "alphabet.RngStream.generator"}
SIMULATORS = {"simulate.simulate_source_coding", "simulate.simulate_channel_coding",
              "simulate.simulate_rate_distortion"}
MATERIALIZE = {"simulate._channel_materialized", "simulate._rd_materialized"}
KERNEL = SIMULATORS | MATERIALIZE | {"simulate._channel_conditional", "simulate._rd_conditional"}
REQUEST = {"simulate._ChannelConditional.lattice", "simulate._DistortionConditional.law"}
BUILD = {"simulate._composition_lattice", "simulate._fold", "simulate._Lattice.__init__"}
LOOKUP = {"simulate._Lattice.log_tail_geq", "simulate._Lattice.log_tail_gt",
          "simulate._Lattice.log_mass_eq"}

# per-layer metric -> unit, in the order of the report
PER_LAYER = {
    "alphabet.streams": "count",
    "alphabet.stream_s": "s",
    "simulate.trial_us": "us",
    "simulate.lattice_builds": "count",
    "simulate.lattice_points": "count",
    "simulate.lattice_hit_ratio": "ratio",
    "simulate.lattice_build_s": "s",
    "simulate.lattice_lookup_s": "s",
    "simulate.rd_fail_s": "s",
    "simulate.codebook_symbols": "count",
    "simulate.materialize_s": "s",
    "info_measures.capacity_iterations": "count",
    "info_measures.capacity_s": "s",
    "info_measures.rd_s": "s",
    "coding.exact_types": "count",
    "coding.exact_s": "s",
    "type_classes.types_enumerated": "count",
    "type_classes.s": "s",
    "polytope.s": "s",
    "saddle.s": "s",
    "claims.s": "s",
    "cli.config_s": "s",
    "cli.csv_bytes": "bytes",
    "cli.csv_write_s": "s",
}


def codebook_rows(rate: float, n: int) -> int:
    return int(math.floor(math.exp(min(n * rate, 700.0)) * (1.0 + 1e-12)))


def _simulator_hook(fn):
    signature = inspect.signature(fn)

    def hook(args, kwargs, out):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        info = {"trials": a["trials"], "symbols": 0}
        if a.get("method") == "materialize":
            info["symbols"] = codebook_rows(a["rate"], a["n"]) * a["n"] * a["trials"]
        return info
    return hook


def _lattice_points(args, kwargs, out):
    values = out[0] if isinstance(out, tuple) else out.values
    return int(values.size)


HOOKS = {
    "info_measures.capacity": lambda args, kwargs, out: out.iterations,
    "coding.source_coding_exact_psuc":
        lambda args, kwargs, out: math.comb(args[0].n + args[0].source.alphabet_size - 1,
                                            args[0].source.alphabet_size - 1),
    "simulate._ChannelConditional.lattice": _lattice_points,
    "simulate._DistortionConditional.law": _lattice_points,
    "cli._write_csv": lambda args, kwargs, out: os.path.getsize(args[0]["output_path"]),
}
HOOK_ERRORS = (AttributeError, IndexError, KeyError, TypeError, OSError)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, parent, start, duration, child_time, info]
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._generators: set[str] = set()
        self.absent: list[str] = []

    # --- wrappers -------------------------------------------------------------

    def _wrap_call(self, name, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, parent, 0.0, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                span[2], span[3] = start, duration
                if parent >= 0:
                    spans[parent][4] += duration
            if hook is not None:
                try:
                    span[5] = hook(args, kwargs, out)
                except HOOK_ERRORS:
                    span[5] = None
            return out
        return wrapper

    def _wrap_generator(self, name, fn):
        spans, stack, clock, generators = self.spans, self._stack, time.perf_counter, self._generators

        def drive(inner, index):
            span = spans[index]
            while True:
                stack.append(index)
                start = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    span[3] += elapsed
                    if stack:
                        spans[stack[-1]][4] += elapsed
                span[5] += 1
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            if stack and spans[stack[-1]][0] in generators:
                return inner    # nested enumeration: counted by the outer generator
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0.0, 0.0, 0])
            return drive(inner, index)
        return wrapper

    # --- patching -------------------------------------------------------------

    def _targets(self):
        for short in MODULES:
            module = importlib.import_module(f"ptshannon.{short}")
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield module, name, f"{short}.{name}", obj
                elif inspect.isclass(obj):
                    for attr, member in list(vars(obj).items()):
                        if not attr.startswith("_") and inspect.isfunction(member):
                            yield obj, attr, f"{short}.{name}.{attr}", member
            for dotted in HELPERS.get(short, ()):
                owner, attr = module, dotted
                if "." in dotted:
                    owner_name, attr = dotted.split(".")
                    owner = getattr(module, owner_name, None)
                member = vars(owner).get(attr) if owner is not None else None
                if inspect.isfunction(member):
                    yield owner, attr, f"{short}.{dotted}", member
                else:
                    self.absent.append(f"{short}.{dotted}")

    def install(self) -> None:
        self.absent.clear()
        wrappers = {}
        for owner, attr, name, fn in self._targets():
            if inspect.isgeneratorfunction(fn):
                self._generators.add(name)
                wrapper = self._wrap_generator(name, fn)
            else:
                hook = HOOKS.get(name)
                if name in SIMULATORS:
                    hook = _simulator_hook(fn)
                wrapper = self._wrap_call(name, fn, hook)
            wrappers[id(fn)] = (fn, wrapper)
            if inspect.isclass(owner):
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
        # every module-level reference, including names imported elsewhere
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "ptshannon" and not mod_name.startswith("ptshannon."):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()

    def write(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        np.savez_compressed(
            path, names=np.array(names),
            name=np.array([index[s[0]] for s in self.spans], dtype=np.int32),
            parent=np.array([s[1] for s in self.spans], dtype=np.int64),
            start=np.array([s[2] for s in self.spans]),
            duration=np.array([s[3] for s in self.spans]),
            child_time=np.array([s[4] for s in self.spans]))


def layer_metrics(spans: list[list]) -> dict:
    """Per-layer numbers of one traced pass.  Self time is a span's duration
    minus the time its child spans cover."""
    total = {}
    own = {}
    count = {}
    for name, _parent, _start, duration, child, _info in spans:
        total[name] = total.get(name, 0.0) + duration
        own[name] = own.get(name, 0.0) + duration - child
        count[name] = count.get(name, 0) + 1

    def info_sum(names, key=None):
        out = 0
        for s in spans:
            if s[0] in names and s[5] is not None:
                out += s[5][key] if key else s[5]
        return out

    def by_prefix(table, prefix):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    # a lattice request is a build when a build step ran inside it; build
    # steps outside any request (the rate-distortion split) count as builds too
    built = set()
    loose_build_s = 0.0
    for i, s in enumerate(spans):
        if s[0] not in BUILD:
            continue
        p = s[1]
        while p >= 0 and spans[p][0] not in REQUEST and spans[p][0] not in BUILD:
            p = spans[p][1]
        if p >= 0 and spans[p][0] in REQUEST:
            built.add(p)
        elif p < 0:
            loose_build_s += s[3]
    requests = [i for i, s in enumerate(spans) if s[0] in REQUEST]
    build_s = sum(spans[i][3] for i in built) + loose_build_s
    hit_s = sum(spans[i][3] for i in requests if i not in built)
    points = sum(spans[i][5] or 0 for i in built)
    trials = info_sum(SIMULATORS, "trials")

    def pick(table, names):
        return sum(table.get(n, 0) for n in names)

    return {
        "alphabet.streams": pick(count, STREAM),
        "alphabet.stream_s": pick(own, STREAM),
        "simulate.trial_us": pick(own, KERNEL) / trials * 1e6 if trials else 0.0,
        "simulate.lattice_builds": len(built),
        "simulate.lattice_points": points,
        "simulate.lattice_hit_ratio": (len(requests) - len(built)) / len(requests)
        if requests else 0.0,
        "simulate.lattice_build_s": build_s,
        "simulate.lattice_lookup_s": hit_s + pick(total, LOOKUP),
        "simulate.rd_fail_s": own.get("simulate._rd_fail_probability", 0.0),
        "simulate.codebook_symbols": info_sum(SIMULATORS, "symbols"),
        "simulate.materialize_s": pick(total, MATERIALIZE),
        "info_measures.capacity_iterations": info_sum({"info_measures.capacity"}),
        "info_measures.capacity_s": total.get("info_measures.capacity", 0.0),
        "info_measures.rd_s": total.get("info_measures.rate_distortion", 0.0),
        "coding.exact_types": info_sum({"coding.source_coding_exact_psuc"}),
        "coding.exact_s": total.get("coding.source_coding_exact_psuc", 0.0),
        "type_classes.types_enumerated": sum(s[5] for s in spans
                                             if s[0].startswith("type_classes.")
                                             and isinstance(s[5], int)),
        "type_classes.s": by_prefix(own, "type_classes."),
        "polytope.s": by_prefix(own, "polytope."),
        "saddle.s": by_prefix(own, "saddle."),
        "claims.s": by_prefix(own, "claims."),
        "cli.config_s": pick(total, ("cli._load_config", "cli._validate_common")),
        "cli.csv_bytes": info_sum({"cli._write_csv"}),
        "cli.csv_write_s": total.get("cli._write_csv", 0.0),
    }

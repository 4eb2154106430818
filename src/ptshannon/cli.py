"""Batch front-end: claim-verification suites and protocol sweeps driven by
JSON configs, emitting deterministic CSV.

Config layout:
    {"kind": "<kind>", "parameters": {...}, "output_path": "out.csv",
     "seed": 12345}

Kinds and the ``parameters`` keys each accepts (any other key is a config
error):

    claims           partition_max_n, chain_rule_max_n, delta_n, delta_eps
    integrals        delta_n, delta_eps
    capacity         channel, tol
    rd-curve         source, d, D_grid
    source-coding    n_grid, rate_grid, trials, source, mode
    channel-coding   n_grid, rate_grid, trials, channel, input, decoder
    rate-distortion  n_grid, rate_grid, trials, source, d, D

The first four kinds run under the subcommand of the same name, the last
three under ``sweep``.  ``--bits`` (rates in bits instead of nats) applies
to capacity, rd-curve and sweep.
Outputs start with a comment line recording the config hash and seed, so a
run is fully reproducible from its config file; repeated runs are
byte-identical.  Exit codes: 0 all checks pass, 1 a check failed, 2 config
or runtime error.  Every parameter is parsed before any work, and any
malformed value (a wrong type, a value out of range, a non-numeric or ragged
array, a missing required key) exits 2 with a message naming
``parameters.<key>``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import sys

import numpy as np

from . import claims as claims_mod
from .alphabet import Channel, Distribution, RngStream
from .coding import (
    SourceCodingSetup,
    channel_coding_prediction,
    source_coding_asymptote,
)
from .errors import ConfigInvalid, IoFailure
from .info_measures import CAPACITY_TOL, capacity, rate_distortion, rate_distortion_curve
from .simulate import (
    simulate_channel_coding,
    simulate_rate_distortion,
    simulate_source_coding,
)

LN2 = math.log(2.0)
SWEEP_KINDS = ("source-coding", "channel-coding", "rate-distortion")


def _number(kind, ok, what):
    """Parser of one JSON number, as ``kind`` (float or int), for which ``ok``
    holds; a bool (an int to Python) fails, and for int a non-integral value."""
    def parse(value):
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or (kind is int and value % 1) or not ok(value)):
            raise ValueError(f"{value!r} is not {what}")
        return kind(value)
    return parse


_real = _number(float, lambda x: not math.isnan(x), "a number")
_positive = _number(float, lambda x: x > 0, "a positive number")
_count = _number(int, lambda x: x >= 1, "an integer >= 1")
_natural = _number(int, lambda x: x >= 0, "an integer >= 0")
_blocklength = _number(int, lambda x: 1 <= x < 2**63, "an integer in [1, 2**63)")


def _array(value) -> np.ndarray:
    """A JSON array of numbers, nested to any depth, as a float array
    (numpy rejects ragged nesting); its shape is the consumer's to check."""
    if not isinstance(value, list):
        raise ValueError(f"{value!r} is not an array")
    return np.array([_array(v) if isinstance(v, list) else _real(v) for v in value])


def _grid(entry):
    def parse(value):
        if not isinstance(value, list) or not value:
            raise ValueError(f"{value!r} is not a non-empty array")
        return [entry(v) for v in value]
    return parse


def _choice(*options):
    def parse(value):
        if value not in options:
            raise ValueError(f"{value!r} is not one of {options}")
        return value
    return parse


def _of(cls):
    """Parser of a JSON array of numbers into ``cls``, whose constructor
    checks it."""
    return lambda value: cls(_array(value))


# Every parameter key of each kind, with its parser.  A key the config omits
# takes its default where it is used, unless it is in _REQUIRED.
_SWEEP = {"n_grid": _grid(_blocklength), "rate_grid": _grid(_positive), "trials": _count}
PARAMETERS = {
    "claims": {"partition_max_n": _natural, "chain_rule_max_n": _natural,
               "delta_n": _count, "delta_eps": _real},
    "integrals": {"delta_n": _count, "delta_eps": _real},
    "capacity": {"channel": _of(Channel), "tol": _positive},
    "rd-curve": {"source": _of(Distribution), "d": _array, "D_grid": _grid(_real)},
    "source-coding": _SWEEP | {"source": _of(Distribution),
                               "mode": _choice("source-dependent", "universal")},
    "channel-coding": _SWEEP | {"channel": _of(Channel), "input": _of(Distribution),
                                "decoder": _choice("threshold", "ml")},
    "rate-distortion": _SWEEP | {"source": _of(Distribution), "d": _array,
                                 "D": _number(float, lambda x: x >= 0, "a number >= 0")},
}
_REQUIRED = {"channel", "source", "d", "D", "D_grid", "n_grid", "rate_grid"}


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _load_config(path: str, seed_override, out_override) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigInvalid("config must be a JSON object")
    if seed_override is not None:
        doc["seed"] = seed_override
    if out_override is not None:
        doc["output_path"] = out_override
    # hash covers the experiment identity, not where it is written
    ident = {"kind": doc.get("kind"), "parameters": doc.get("parameters", {}),
             "seed": doc.get("seed", 0)}
    doc["_sha256"] = hashlib.sha256(
        json.dumps(ident, sort_keys=True).encode()).hexdigest()
    return doc


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigInvalid(msg)


def _validate_common(doc: dict, kinds) -> dict:
    """Check the config's kind, output path and seed, and return its
    parameters, each parsed by the kind's table; any failure names its key."""
    _require(doc.get("kind") in kinds, f"kind must be one of {kinds}")
    _require(isinstance(doc.get("output_path"), str) and doc["output_path"],
             "output_path is required")
    params = doc.get("parameters", {})
    _require(isinstance(params, dict), "parameters must be an object")
    table = PARAMETERS[doc["kind"]]
    unknown = sorted(set(params) - set(table))
    _require(not unknown, f"unknown parameters for kind {doc['kind']}: {unknown}")
    seed = doc.get("seed", 0)
    _require(isinstance(seed, int) and not isinstance(seed, bool) and 0 <= seed < 2**64,
             "seed must be a u64")
    parsed = {}
    for key, parse in table.items():
        if key not in params:
            _require(key not in _REQUIRED, f"parameters.{key} is required")
            continue
        try:
            parsed[key] = parse(params[key])
        except (TypeError, ValueError, OverflowError) as exc:  # PtShannonError is a ValueError
            raise ConfigInvalid(f"parameters.{key}: {exc}") from exc
    return parsed


def _write_csv(doc: dict, header: list[str], rows: list[list]) -> None:
    path = doc["output_path"]
    lines = [f"# config_sha256={doc['_sha256']} seed={doc.get('seed', 0)}"]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(c) for c in row))
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _maybe_bits(value: float, bits: bool) -> float:
    return value / LN2 if bits else value


# --- subcommand bodies ---------------------------------------------------------

def run_claims(doc: dict, appendix_only: bool = False) -> int:
    params = _validate_common(doc, ("integrals",) if appendix_only else ("claims",))
    rows = claims_mod.run_all(RngStream(doc.get("seed", 0)), appendix_only, **params)
    header = ["check", "detail", "value", "reference", "error", "tolerance", "status"]
    _write_csv(doc, header, [list(r) for r in rows])
    return 1 if any(r[6] == "fail" for r in rows) else 0


def run_capacity(doc: dict, bits: bool) -> int:
    params = _validate_common(doc, ("capacity",))
    ch = params["channel"]
    res = capacity(ch, params.get("tol", CAPACITY_TOL))
    unit = "bits" if bits else "nats"
    header = [f"capacity_{unit}", "gap_bound", "iterations"] + [
        f"p_input_{i}" for i in range(ch.input_size)]
    row = [_maybe_bits(res.capacity_nats, bits), res.gap_bound, res.iterations] + \
        list(res.optimal_input.probs)
    _write_csv(doc, header, [row])
    return 0


def run_rd_curve(doc: dict, bits: bool) -> int:
    params = _validate_common(doc, ("rd-curve",))
    grid = params["D_grid"]
    points = rate_distortion_curve(params["source"], params["d"], grid)
    unit = "bits" if bits else "nats"
    header = ["D", f"rate_{unit}"]
    rows = [[D, _maybe_bits(pt.rate_nats, bits)] for D, pt in zip(grid, points)]
    _write_csv(doc, header, rows)
    return 0


def run_sweep(doc: dict, bits: bool) -> int:
    """One row per (n, rate) of the grid, each from its own substream: the
    kind supplies the simulator run and the predictor value."""
    params = _validate_common(doc, SWEEP_KINDS)
    kind = doc["kind"]
    trials = params.get("trials", 1000)
    if kind == "source-coding":
        def point(n, rate, rng):
            setup = SourceCodingSetup(params["source"], rate, n,
                                      params.get("mode", "source-dependent"))
            return (simulate_source_coding(setup, trials, rng),
                    float(source_coding_asymptote(setup)))
    elif kind == "channel-coding":
        ch = params["channel"]
        input_dist = params["input"] if "input" in params else capacity(ch).optimal_input
        decoder = params.get("decoder", "threshold")

        def point(n, rate, rng):
            return (simulate_channel_coding(ch, input_dist, rate, n, trials, decoder, rng),
                    channel_coding_prediction(ch, input_dist, rate, n).p_suc_erfc)
    else:  # rate-distortion: the predictor is the step at R(D)
        source, d, D = params["source"], params["d"], params["D"]
        target = rate_distortion(source, d, D)

        def point(n, rate, rng):
            return (simulate_rate_distortion(source, target.optimal_test_channel, d, D,
                                             rate, n, trials, rng),
                    float(rate > target.rate_nats))
    base = RngStream(doc.get("seed", 0))
    rows = []
    for idx, (n, rate) in enumerate(itertools.product(params["n_grid"], params["rate_grid"])):
        rep, predicted = point(n, rate, base.substream(idx))
        rows.append([n, _maybe_bits(rate, bits), trials, rep.p_hat, rep.ci95_halfwidth,
                     predicted])
    _write_csv(doc, ["n", "rate", "trials", "p_hat", "ci95", "predictor_value"], rows)
    return 0


# --- entry point -----------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ptshannon",
        description="claim-verification suites and coding-protocol sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("claims", "run the counting/integral claim checks"),
        ("sweep", "run a simulator sweep against its predictor"),
        ("capacity", "compute channel capacity"),
        ("rd-curve", "trace a rate-distortion curve"),
        ("integrals", "run the polytope-integral checks only"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="override config output_path")
        if name in ("sweep", "capacity", "rd-curve"):
            p.add_argument("--bits", action="store_true",
                           help="emit rates/entropies in bits instead of nats")

    args = parser.parse_args(argv)
    try:
        doc = _load_config(args.config, args.seed, args.out)
        if args.command == "claims":
            return run_claims(doc)
        if args.command == "integrals":
            return run_claims(doc, appendix_only=True)
        if args.command == "capacity":
            return run_capacity(doc, args.bits)
        if args.command == "rd-curve":
            return run_rd_curve(doc, args.bits)
        return run_sweep(doc, args.bits)
    except (ValueError, OverflowError) as exc:  # PtShannonError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

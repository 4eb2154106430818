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
or runtime error.
"""

from __future__ import annotations

import argparse
import hashlib
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
from .errors import ConfigInvalid, IoFailure, PtShannonError
from .info_measures import capacity, rate_distortion, rate_distortion_curve
from .simulate import (
    simulate_channel_coding,
    simulate_rate_distortion,
    simulate_source_coding,
)

LN2 = math.log(2.0)
SWEEP_KINDS = ("source-coding", "channel-coding", "rate-distortion")
_SWEEP_KEYS = {"n_grid", "rate_grid", "trials"}
PARAMETER_KEYS = {
    "claims": {"partition_max_n", "chain_rule_max_n", "delta_n", "delta_eps"},
    "integrals": {"delta_n", "delta_eps"},
    "capacity": {"channel", "tol"},
    "rd-curve": {"source", "d", "D_grid"},
    "source-coding": _SWEEP_KEYS | {"source", "mode"},
    "channel-coding": _SWEEP_KEYS | {"channel", "input", "decoder"},
    "rate-distortion": _SWEEP_KEYS | {"source", "d", "D"},
}


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


def _validate_common(doc: dict, kinds) -> None:
    _require(doc.get("kind") in kinds, f"kind must be one of {kinds}")
    _require(isinstance(doc.get("output_path"), str) and doc["output_path"],
             "output_path is required")
    params = doc.get("parameters", {})
    _require(isinstance(params, dict), "parameters must be an object")
    unknown = sorted(set(params) - PARAMETER_KEYS[doc["kind"]])
    _require(not unknown, f"unknown parameters for kind {doc['kind']}: {unknown}")
    seed = doc.get("seed", 0)
    _require(isinstance(seed, int) and 0 <= seed < 2**64, "seed must be a u64")


def _grid(params: dict, key: str, kind=float) -> list:
    val = params.get(key)
    _require(isinstance(val, list) and val, f"parameters.{key} must be a non-empty list")
    try:
        return [kind(v) for v in val]
    except (TypeError, ValueError):
        raise ConfigInvalid(f"parameters.{key} entries must be {kind.__name__}")


def _distribution(params: dict, key: str) -> Distribution:
    val = params.get(key)
    _require(isinstance(val, list) and val, f"parameters.{key} must be a probability list")
    try:
        return Distribution(np.asarray(val, dtype=float))
    except PtShannonError as exc:
        raise ConfigInvalid(f"parameters.{key}: {exc}") from exc


def _channel(params: dict, key: str = "channel") -> Channel:
    val = params.get(key)
    _require(isinstance(val, list) and val, f"parameters.{key} must be a row-stochastic matrix")
    try:
        return Channel(np.asarray(val, dtype=float))
    except PtShannonError as exc:
        raise ConfigInvalid(f"parameters.{key}: {exc}") from exc


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
    _validate_common(doc, ("integrals",) if appendix_only else ("claims",))
    rows = claims_mod.run_all(doc.get("parameters", {}), RngStream(doc.get("seed", 0)),
                              appendix_only=appendix_only)
    header = ["check", "detail", "value", "reference", "error", "tolerance", "status"]
    _write_csv(doc, header, [list(r) for r in rows])
    failed = [r for r in rows if r[6] == "fail"]
    return 1 if failed else 0


def run_capacity(doc: dict, bits: bool) -> int:
    _validate_common(doc, ("capacity",))
    params = doc["parameters"]
    ch = _channel(params)
    tol = float(params.get("tol", 1e-9))
    _require(tol > 0, "tol must be positive")
    res = capacity(ch, tol)
    unit = "bits" if bits else "nats"
    header = [f"capacity_{unit}", "gap_bound", "iterations"] + [
        f"p_input_{i}" for i in range(ch.input_size)]
    row = [_maybe_bits(res.capacity_nats, bits), res.gap_bound, res.iterations] + \
        list(res.optimal_input.probs)
    _write_csv(doc, header, [row])
    return 0


def run_rd_curve(doc: dict, bits: bool) -> int:
    _validate_common(doc, ("rd-curve",))
    params = doc["parameters"]
    source = _distribution(params, "source")
    d = np.asarray(params.get("d", []), dtype=float)
    _require(d.ndim == 2 and d.size > 0, "parameters.d must be a distortion matrix")
    grid = _grid(params, "D_grid")
    points = rate_distortion_curve(source, d, grid)
    unit = "bits" if bits else "nats"
    header = ["D", f"rate_{unit}"]
    rows = [[D, _maybe_bits(pt.rate_nats, bits)] for D, pt in zip(grid, points)]
    _write_csv(doc, header, rows)
    return 0


def run_sweep(doc: dict, bits: bool) -> int:
    _validate_common(doc, SWEEP_KINDS)
    kind = doc["kind"]
    params = doc["parameters"]
    trials = params.get("trials", 1000)
    _require(isinstance(trials, int) and trials >= 1, "parameters.trials must be >= 1")
    n_grid = _grid(params, "n_grid", int)
    rate_grid = _grid(params, "rate_grid")
    _require(all(n >= 1 for n in n_grid), "n_grid entries must be >= 1")
    _require(all(r > 0 for r in rate_grid), "rate_grid entries must be positive")
    base = RngStream(doc.get("seed", 0))

    rows = []
    if kind == "source-coding":
        source = _distribution(params, "source")
        mode = params.get("mode", "source-dependent")
        _require(mode in ("source-dependent", "universal"),
                 "mode must be source-dependent or universal")
        for idx, (n, rate) in enumerate((n, r) for n in n_grid for r in rate_grid):
            setup = SourceCodingSetup(source, rate, n, mode)
            rep = simulate_source_coding(setup, trials, base.substream(idx))
            rows.append([n, _maybe_bits(rate, bits), trials, rep.p_hat,
                         rep.ci95_halfwidth, float(source_coding_asymptote(setup))])
    elif kind == "channel-coding":
        ch = _channel(params)
        if "input" in params:
            input_dist = _distribution(params, "input")
        else:
            input_dist = capacity(ch, 1e-9).optimal_input
        decoder = params.get("decoder", "threshold")
        _require(decoder in ("threshold", "ml"), "decoder must be threshold or ml")
        for idx, (n, rate) in enumerate((n, r) for n in n_grid for r in rate_grid):
            pred = channel_coding_prediction(ch, input_dist, rate, n)
            rep = simulate_channel_coding(ch, input_dist, rate, n, trials,
                                          decoder, base.substream(idx))
            rows.append([n, _maybe_bits(rate, bits), trials, rep.p_hat,
                         rep.ci95_halfwidth, pred.p_suc_erfc])
    else:  # rate-distortion
        source = _distribution(params, "source")
        d = np.asarray(params.get("d", []), dtype=float)
        _require(d.ndim == 2 and d.size > 0, "parameters.d must be a distortion matrix")
        D = params.get("D")
        _require(isinstance(D, (int, float)) and D >= 0, "parameters.D must be >= 0")
        point = rate_distortion(source, d, float(D))
        threshold = point.rate_nats
        for idx, (n, rate) in enumerate((n, r) for n in n_grid for r in rate_grid):
            rep = simulate_rate_distortion(source, point.optimal_test_channel, d,
                                           float(D), rate, n, trials,
                                           base.substream(idx))
            rows.append([n, _maybe_bits(rate, bits), trials, rep.p_hat,
                         rep.ci95_halfwidth, float(rate > threshold)])
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
    except PtShannonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

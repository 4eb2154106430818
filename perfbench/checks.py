"""Output checks: each operation's output against its exact target.

Simulated success counts are gated by an exact binomial test against the
finite-n success probability from ``oracles.py``; ML must beat threshold
within noise on the same draws; solver outputs meet closed forms or their
optimality certificate; the exact sum matches an independent sum; the CLI's
CSV passes its own checks and two recomputed ones.  Nothing is compared with
a stored copy of earlier output.
"""

from __future__ import annotations

import math

import oracles

CAPACITY_TOL = 1e-8          # the solver certifies a gap below 1e-9
RD_TOL = 1e-7                # the solver's own rate tolerance
EXACT_REL_TOL = 1e-9
CSV_REL_TOL = 1e-11          # the CLI writes 12 significant digits
CLAIMS_HEADER = ["check", "detail", "value", "reference", "error", "tolerance", "status"]


def _channel_target(spec: dict, cache: dict) -> float:
    key = (spec["family"], repr(spec["channel"]), repr(spec["input"]), spec["rate"], spec["n"],
           spec["decoder"])
    if key not in cache:
        if spec["family"] == "bsc":
            exact = oracles.bsc_success(spec["n"], spec["rate"], spec["channel"][0][1])
        else:
            exact = oracles.dmc_success(spec["channel"], spec["input"], spec["rate"], spec["n"],
                                        decoders=(spec["decoder"],))
        cache[key] = exact[spec["decoder"]]
    return cache[key]


def _gate(label: str, result: dict, p_exact: float, problems: list) -> None:
    ok, tail = oracles.binomial_gate(result["successes"], result["trials"], p_exact)
    if not ok:
        problems.append(f"{label}: {result['successes']}/{result['trials']} successes "
                        f"against exact p = {p_exact:.6g} (tail {tail:.2e})")


def _check_claims(result: dict, problems: list) -> None:
    """The claims CSV: exit 0, every row passes or is info, and two families
    of rows recomputed here.  Its detail field holds unquoted commas
    ("N=2,n=1"), so a row is split from both ends."""
    if result["exit"] != 0:
        problems.append(f"cli claims exited {result['exit']}")
    lines = [ln for ln in result["csv"].splitlines() if not ln.startswith("#")]
    if not lines or lines[0].split(",") != CLAIMS_HEADER:
        problems.append("cli claims: unexpected CSV header")
        return
    if len(lines) < 2:
        problems.append("cli claims: no rows")
    for line in lines[1:]:
        fields = line.split(",")
        check, detail, value, status = fields[0], ",".join(fields[1:-5]), fields[-5], fields[-1]
        if status not in ("pass", "info"):
            problems.append(f"cli claims: {check} {detail} has status {status}")
        params = dict(kv.split("=", 1) for kv in detail.split(",") if "=" in kv)
        if check == "type_partition_count":
            n_sym, n = int(params["N"]), int(params["n"])
            if float(value) != float(n_sym ** n):
                problems.append(f"cli claims: {detail} counts {value} sequences, not {n_sym ** n}")
        elif check == "dirichlet_all_ones":
            exact = 1.0 / math.factorial(int(params["N"]) - 1)
            if abs(float(value) - exact) > CSV_REL_TOL * exact:
                problems.append(f"cli claims: {detail} Dirichlet integral {value} != {exact}")


def verify(specs: list, results: list) -> list[str]:
    """Problems found in one pass's outputs; empty when all checks hold.
    Operations that raised are counted as failed elsewhere and skipped."""
    problems: list[str] = []
    targets: dict = {}
    pairs: dict = {}
    for i, (spec, result) in enumerate(zip(specs, results)):
        if "error" in result:
            continue
        kind = spec["op"]
        label = f"op {i} ({kind}"
        if kind == "channel":
            label += f" {spec['family']} n={spec['n']} rate={spec['rate']:.4f} " \
                     f"{spec['decoder']} {spec['method']})"
            _gate(label, result, _channel_target(spec, targets), problems)
            pairs.setdefault((spec["family"], spec["n"], spec["rate"], spec["method"]),
                             {})[spec["decoder"]] = result
        elif kind == "source":
            label += f" n={spec['n']} {spec['mode']})"
            _gate(label, result, oracles.source_success(spec["source"], spec["rate"], spec["n"],
                                                        spec["mode"]), problems)
        elif kind == "rd":
            label += f" n={spec['n']} rate={spec['rate']} {spec['method']})"
            _gate(label, result,
                  oracles.rd_binary_uniform_success(spec["n"], spec["D"], spec["rate"]), problems)
        elif kind == "capacity":
            label += f" {spec['family']})"
            lower, upper = oracles.capacity_kkt_bounds(spec["channel"], result["input"])
            c = result["capacity"]
            if upper - lower > CAPACITY_TOL or abs(c - lower) > CAPACITY_TOL:
                problems.append(f"{label}: C = {c!r} outside its KKT bounds [{lower!r}, {upper!r}]")
            if spec["family"] != "kkt":
                exact = oracles.capacity_closed_form(spec["family"], spec["param"])
                if abs(c - exact) > CAPACITY_TOL:
                    problems.append(f"{label}: C = {c!r}, closed form {exact!r}")
        elif kind == "rate-distortion":
            label += f" p={spec['source']} D={spec['D']})"
            exact = oracles.rd_hamming_closed_form(spec["source"], spec["D"])
            if abs(result["rate"] - exact) > RD_TOL:
                problems.append(f"{label}: R = {result['rate']!r}, closed form {exact!r}")
            if result["distortion"] > spec["D"] + RD_TOL:
                problems.append(f"{label}: achieved distortion {result['distortion']!r}")
        elif kind == "exact":
            label += f" N={len(spec['source'])} n={spec['n']} {spec['mode']})"
            low, high = oracles.source_success_bracket(spec["source"], spec["rate"], spec["n"],
                                                       spec["mode"])
            slack = EXACT_REL_TOL * max(high, 1e-300) + 1e-300
            if not low - slack <= result["p"] <= high + slack:
                problems.append(f"{label}: p = {result['p']!r}, exact sum in [{low!r}, {high!r}]")
        elif kind == "cli-claims":
            _check_claims(result, problems)
    for key, by_decoder in pairs.items():
        if len(by_decoder) == 2:
            ml, thr = by_decoder["ml"], by_decoder["threshold"]
            if not oracles.dominance_gate(ml["successes"] / ml["trials"],
                                          thr["successes"] / thr["trials"], ml["trials"]):
                problems.append(f"{key}: ML {ml['successes']} below threshold {thr['successes']}")
    return problems

"""Config-driven CLI: validation, CSV schema, determinism, exit codes."""

import json
import math

import pytest

from ptshannon.cli import main
from ptshannon.polytope import BOUNDARY_SIGMAS


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def test_missing_output_path_rejected_before_compute(tmp_path):
    cfg = write_config(tmp_path / "c.json",
                       {"kind": "claims", "parameters": {}, "seed": 1})
    assert main(["claims", "--config", cfg]) == 2


def test_unknown_kind_rejected(tmp_path):
    cfg = write_config(tmp_path / "c.json",
                       {"kind": "nonsense", "parameters": {},
                        "output_path": str(tmp_path / "o.csv")})
    assert main(["sweep", "--config", cfg]) == 2


def test_malformed_json_rejected(tmp_path):
    p = tmp_path / "c.json"
    p.write_text("{not json")
    assert main(["claims", "--config", str(p)]) == 2


def test_instance_too_large_surfaced(tmp_path, capsys):
    """n = 400: the ternary partition rows would sum count_types(4, 400) - 1
    = 1.09e7 types, over the enumeration guard."""
    cfg = write_config(tmp_path / "c.json",
                       {"kind": "claims", "parameters": {"partition_max_n": 400},
                        "output_path": str(tmp_path / "o.csv"), "seed": 1})
    assert main(["claims", "--config", cfg]) == 2
    assert "type_partition" in capsys.readouterr().err


def test_partition_guard_counts_the_types_summed(tmp_path):
    """n = 15 sums 815 ternary types: it runs and passes, though its 3^15
    sequences times its types once counted as over the guard."""
    cfg = write_config(tmp_path / "c.json",
                       {"kind": "claims", "parameters": {"partition_max_n": 15},
                        "output_path": str(tmp_path / "o.csv"), "seed": 1})
    assert main(["claims", "--config", cfg]) == 0
    assert "type_partition_count,N=3,n=15," in (tmp_path / "o.csv").read_text()


def test_conditional_class_guard_checked_before_compute(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json",
                       {"kind": "claims", "parameters": {"chain_rule_max_n": 40},
                        "output_path": str(tmp_path / "o.csv"), "seed": 1})
    assert main(["claims", "--config", cfg]) == 2
    assert "conditional_class_count" in capsys.readouterr().err


@pytest.mark.parametrize("key, check", [("partition_max_n", "type_partition"),
                                        ("chain_rule_max_n", "conditional_class_count")])
def test_absurd_claims_size_fails_its_guard_at_once(tmp_path, capsys, key, check):
    """n = 10^30 fails the enumeration guard without first building N^n."""
    cfg = write_config(tmp_path / "c.json",
                       {"kind": "claims", "parameters": {key: 10**30},
                        "output_path": str(tmp_path / "o.csv"), "seed": 1})
    assert main(["claims", "--config", cfg]) == 2
    assert check in capsys.readouterr().err


def test_unknown_parameter_rejected(tmp_path, capsys):
    """A misspelt key (delta_N for delta_n) is a config error, not a silent
    run at the default."""
    out = tmp_path / "o.csv"
    cfg = write_config(tmp_path / "c.json",
                       {"kind": "claims", "parameters": {"delta_N": 50},
                        "output_path": str(out), "seed": 1})
    assert main(["claims", "--config", cfg]) == 2
    assert "delta_N" in capsys.readouterr().err
    assert not out.exists()
    # claims keys are not integrals keys, so each subcommand takes only its own kind
    cfg = write_config(tmp_path / "c.json",
                       {"kind": "claims", "parameters": {"partition_max_n": 6},
                        "output_path": str(out), "seed": 1})
    assert main(["integrals", "--config", cfg]) == 2


def test_bits_flag_only_where_it_applies(tmp_path):
    cfg = write_config(tmp_path / "c.json",
                       {"kind": "integrals", "parameters": {},
                        "output_path": str(tmp_path / "o.csv"), "seed": 1})
    for command in ("claims", "integrals"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg, "--bits"])
        assert exc.value.code == 2


def test_capacity_subcommand(tmp_path):
    out = tmp_path / "cap.csv"
    cfg = write_config(tmp_path / "c.json",
                       {"kind": "capacity",
                        "parameters": {"channel": [[0.89, 0.11], [0.11, 0.89]],
                                       "tol": 1e-10},
                        "output_path": str(out), "seed": 1})
    assert main(["capacity", "--config", cfg]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config_sha256=")
    assert lines[1].split(",")[:2] == ["capacity_nats", "gap_bound"]
    cap = float(lines[2].split(",")[0])
    hb = -(0.11 * math.log(0.11) + 0.89 * math.log(0.89))
    assert cap == pytest.approx(math.log(2) - hb, abs=1e-9)


def test_capacity_bits_flag(tmp_path):
    out_nats = tmp_path / "nats.csv"
    out_bits = tmp_path / "bits.csv"
    doc = {"kind": "capacity",
           "parameters": {"channel": [[1.0, 0.0], [0.0, 1.0]]},
           "output_path": str(out_nats), "seed": 1}
    cfg = write_config(tmp_path / "c.json", doc)
    assert main(["capacity", "--config", cfg]) == 0
    assert main(["capacity", "--config", cfg, "--out", str(out_bits), "--bits"]) == 0
    nats = float(out_nats.read_text().splitlines()[2].split(",")[0])
    bits = float(out_bits.read_text().splitlines()[2].split(",")[0])
    assert nats == pytest.approx(math.log(2), abs=1e-9)
    assert bits == pytest.approx(1.0, abs=1e-9)
    assert "capacity_bits" in out_bits.read_text()


def test_rd_curve_subcommand(tmp_path):
    out = tmp_path / "rd.csv"
    cfg = write_config(tmp_path / "c.json",
                       {"kind": "rd-curve",
                        "parameters": {"source": [0.5, 0.5], "d": [[0, 1], [1, 0]],
                                       "D_grid": [0.1, 0.2, 0.3]},
                        "output_path": str(out), "seed": 1})
    assert main(["rd-curve", "--config", cfg]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "D,rate_nats"
    rates = [float(l.split(",")[1]) for l in lines[2:]]
    assert rates == sorted(rates, reverse=True)


def test_rd_curve_infeasible_distortion_exits_2(tmp_path, capsys):
    out = tmp_path / "rd.csv"
    doc = {"kind": "rd-curve",
           "parameters": {"source": [0.5, 0.5], "d": [[0.1, 2.0, 1.5], [2.0, 1.0, 1.5]],
                          "D_grid": [0.3, 0.8]},
           "output_path": str(out), "seed": 1}
    assert main(["rd-curve", "--config", write_config(tmp_path / "c.json", doc)]) == 2
    assert "D = 0.3" in capsys.readouterr().err
    doc["parameters"]["D_grid"] = [0.8]
    assert main(["rd-curve", "--config", write_config(tmp_path / "c.json", doc)]) == 0
    rate = float(out.read_text().splitlines()[2].split(",")[1])
    assert math.isfinite(rate) and rate > 0


def test_sweep_deterministic_and_seed_sensitive(tmp_path):
    out1, out2, out3 = (tmp_path / f"s{i}.csv" for i in range(3))
    doc = {"kind": "source-coding",
           "parameters": {"source": [0.9, 0.1], "mode": "source-dependent",
                          "n_grid": [100], "rate_grid": [0.3, 0.35],
                          "trials": 400},
           "output_path": str(out1), "seed": 77}
    cfg = write_config(tmp_path / "c.json", doc)
    assert main(["sweep", "--config", cfg]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert main(["sweep", "--config", cfg, "--out", str(out3), "--seed", "78"]) == 0
    assert out1.read_text().splitlines()[1] == out3.read_text().splitlines()[1]
    assert out1.read_bytes() != out3.read_bytes()


def test_sweep_schema_and_predictor_column(tmp_path):
    out = tmp_path / "ch.csv"
    cfg = write_config(tmp_path / "c.json",
                       {"kind": "channel-coding",
                        "parameters": {"channel": [[0.89, 0.11], [0.11, 0.89]],
                                       "decoder": "ml", "n_grid": [16],
                                       "rate_grid": [0.2, 0.3, 0.4],
                                       "trials": 200},
                        "output_path": str(out), "seed": 5})
    assert main(["sweep", "--config", cfg]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "n,rate,trials,p_hat,ci95,predictor_value"
    preds = [float(l.split(",")[5]) for l in lines[2:]]
    assert preds == sorted(preds, reverse=True)  # erfc column falls with rate


def test_rate_distortion_sweep(tmp_path):
    out = tmp_path / "rd.csv"
    cfg = write_config(tmp_path / "c.json",
                       {"kind": "rate-distortion",
                        "parameters": {"source": [0.5, 0.5], "d": [[0, 1], [1, 0]],
                                       "D": 0.2, "n_grid": [60],
                                       "rate_grid": [0.15, 0.6], "trials": 200},
                        "output_path": str(out), "seed": 9})
    assert main(["sweep", "--config", cfg]) == 0
    rows = [l.split(",") for l in out.read_text().splitlines()[2:]]
    assert [float(r[5]) for r in rows] == [0.0, 1.0]  # threshold step predictor


def test_rate_distortion_sweep_at_rate_zero(tmp_path):
    """At D >= D_max = 1/2, R(D) = 0 and the test channel sends every source
    symbol to one reproduction: the sweep runs, one row per grid point, and
    each row's step predictor reads 1."""
    out = tmp_path / "rd.csv"
    cfg = write_config(tmp_path / "c.json",
                       {"kind": "rate-distortion",
                        "parameters": {"source": [0.5, 0.5], "d": [[0, 1], [1, 0]],
                                       "D": 0.6, "n_grid": [10, 21],
                                       "rate_grid": [0.3, 0.5], "trials": 200},
                        "output_path": str(out), "seed": 1})
    assert main(["sweep", "--config", cfg]) == 0
    rows = [l.split(",") for l in out.read_text().splitlines()[2:]]
    assert [(r[0], r[1]) for r in rows] == [("10", "0.3"), ("10", "0.5"), ("21", "0.3"),
                                            ("21", "0.5")]
    assert all(0 < float(r[3]) < 1 and float(r[5]) == 1.0 for r in rows)


def test_claims_run_passes_and_reports_info(tmp_path):
    out = tmp_path / "claims.csv"
    cfg = write_config(tmp_path / "c.json",
                       {"kind": "claims",
                        "parameters": {"partition_max_n": 8, "delta_n": 150},
                        "output_path": str(out), "seed": 321})
    assert main(["claims", "--config", cfg]) == 0
    text = out.read_text()
    lines = text.splitlines()
    assert lines[1] == "check,detail,value,reference,error,tolerance,status"
    assert ",fail" not in text
    row = next(ln for ln in lines if ln.startswith("smoothed_delta_sequence_sum,"))
    assert row.endswith(",pass")


def test_integrals_subcommand(tmp_path):
    out = tmp_path / "ints.csv"
    cfg = write_config(tmp_path / "c.json",
                       {"kind": "integrals", "parameters": {},
                        "output_path": str(out), "seed": 321})
    assert main(["integrals", "--config", cfg]) == 0
    text = out.read_text()
    assert "dirichlet_all_ones" in text
    assert "type_partition_count" not in text


def test_delta_eps_bound_is_the_boundary_check(tmp_path, capsys):
    """``delta_eps`` parses exactly where polytope's boundary check passes:
    at 1/6, three widths fill the reference type's gap of 1/2 and the
    integrals run; one float above, the config exits 2 naming the key."""
    edge = 0.5 / BOUNDARY_SIGMAS
    for eps, code in ((edge, 0), (math.nextafter(edge, 1.0), 2)):
        cfg = write_config(tmp_path / "c.json",
                           {"kind": "integrals", "parameters": {"delta_eps": eps},
                            "output_path": str(tmp_path / "o.csv"), "seed": 1})
        assert main(["integrals", "--config", cfg]) == code
    assert "parameters.delta_eps" in capsys.readouterr().err


# A valid config of each kind, and a malformed value for one of its keys.
VALID = {
    "claims": {"partition_max_n": 4},
    "integrals": {},
    "capacity": {"channel": [[0.89, 0.11], [0.11, 0.89]]},
    "rd-curve": {"source": [0.5, 0.5], "d": [[0, 1], [1, 0]], "D_grid": [0.1]},
    "source-coding": {"source": [0.9, 0.1], "n_grid": [10], "rate_grid": [0.3],
                      "trials": 10},
    "channel-coding": {"channel": [[0.89, 0.11], [0.11, 0.89]], "n_grid": [10],
                       "rate_grid": [0.3], "trials": 10},
    "rate-distortion": {"source": [0.5, 0.5], "d": [[0, 1], [1, 0]], "D": 0.2,
                        "n_grid": [10], "rate_grid": [0.3], "trials": 10},
}
MALFORMED = [
    ("capacity", "tol", "abc"),
    ("capacity", "tol", [1]),
    ("capacity", "channel", [["a", "b"], [0.1, 0.9]]),
    ("capacity", "channel", [[0.9, 0.1], [1.0]]),
    ("rd-curve", "d", [[0, 1], [1]]),
    ("rd-curve", "d", "x"),
    ("channel-coding", "input", [0.5, "x"]),
    ("claims", "partition_max_n", "big"),
    ("claims", "delta_eps", None),
    ("source-coding", "n_grid", [10.7]),
    ("source-coding", "n_grid", [10**30]),
    ("source-coding", "trials", True),
    ("source-coding", "trials", 10**30),
    ("claims", "delta_n", 201),
    ("integrals", "delta_n", 3),
    ("claims", "delta_eps", 2.0),
    ("claims", "delta_eps", 0.2),
    ("integrals", "delta_eps", 0.3),
    ("integrals", "delta_eps", 1e-200),
    ("integrals", "delta_eps", 1e-160),
    ("rate-distortion", "D", True),
    ("rate-distortion", "d", [[0, math.inf], [1, 0]]),
    ("rd-curve", "d", [[0, 1], [-math.inf, 0]]),
    ("rd-curve", "D_grid", [math.inf]),
    ("channel-coding", "rate_grid", [math.inf]),
    ("capacity", "tol", math.inf),
    ("rate-distortion", "D", math.inf),
]


def _command(kind: str) -> str:
    return kind if kind in ("claims", "integrals", "capacity", "rd-curve") else "sweep"


@pytest.mark.parametrize("kind, key, value", MALFORMED,
                         ids=[f"{kind}-{key}-{value!r}" for kind, key, value in MALFORMED])
def test_malformed_parameter_exits_2_naming_its_key(tmp_path, capsys, kind, key, value):
    """A malformed value is a config error (exit 2, no traceback, no output)
    that names its key, never a check failure (exit 1) or a silent run."""
    out = tmp_path / "o.csv"
    cfg = write_config(tmp_path / "c.json",
                       {"kind": kind, "parameters": {**VALID[kind], key: value},
                        "output_path": str(out), "seed": 1})
    assert main([_command(kind), "--config", cfg]) == 2
    assert f"parameters.{key}" in capsys.readouterr().err
    assert not out.exists()


# Grid points that parse one key at a time but that a simulator rejects.
BAD_POINTS = [
    ("channel-coding", {"n_grid": [1]}, "at least 2 rows"),
    ("rate-distortion", {"n_grid": [1]}, "at least 2 rows"),
]


@pytest.mark.parametrize("kind, params, message", BAD_POINTS,
                         ids=["channel-coding-n1", "rate-distortion-n1"])
def test_rejected_grid_point_exits_2(tmp_path, capsys, kind, params, message):
    """A grid point the simulator rejects is a runtime error: exit 2 with
    ``error: ...``, never a traceback (exit 1 is kept for a failed check)."""
    cfg = write_config(tmp_path / "c.json",
                       {"kind": kind, "parameters": {**VALID[kind], **params},
                        "output_path": str(tmp_path / "o.csv"), "seed": 1})
    assert main(["sweep", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_integral_float_blocklength_accepted(tmp_path):
    """n_grid 10.0 runs at n = 10: every line but the config hash matches."""
    texts = []
    for n in (10, 10.0):
        out = tmp_path / f"n{n}.csv"
        cfg = write_config(tmp_path / "c.json",
                           {"kind": "source-coding",
                            "parameters": {**VALID["source-coding"], "n_grid": [n]},
                            "output_path": str(out), "seed": 1})
        assert main(["sweep", "--config", cfg]) == 0
        texts.append(out.read_text().splitlines()[1:])
    assert texts[0] == texts[1] and texts[0][1].startswith("10,")

"""The four workloads as plain data, built from the benchmark seed.

Each workload is a list of operation specs: dicts of numbers, lists and
strings that name one public call of ``ptshannon`` and its inputs.  The
worker turns them into calls; ``checks.py`` turns them into exact targets.
Nothing here imports the package, so the targets never depend on it.

The seed reaches the program only through the inputs: it keys every
simulation's ``RngStream`` and draws the random channels and sources of the
``analytic`` workload.  Sizes, rates and trial counts are fixed, so one pass
costs about the same on every seed.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

BSC_FLIP = 0.11
# Generic channels: the ratios of entries within a column involve distinct
# primes, so two different joint types never tie exactly in score, and the
# channels do not merge into a single per-n lattice.
CHANNEL_3X3 = [[0.73, 0.17, 0.10], [0.13, 0.79, 0.08], [0.29, 0.23, 0.48]]
INPUT_3X3 = [0.6, 0.3, 0.1]
CHANNEL_BAC = [[0.93, 0.07], [0.19, 0.81]]
INPUT_BAC = [0.55, 0.45]
TERNARY_SOURCE = [0.5, 0.3, 0.2]
RD_D = 0.1
HAMMING_2 = [[0.0, 1.0], [1.0, 0.0]]
HAMMING_3 = [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]


def stream_seed(seed: int, workload: str, key: str) -> int:
    """Seed of one operation's RngStream: a hash of the benchmark seed, the
    workload and the operation's configuration.  The two decoders of one
    configuration share it, so they see the same draws."""
    digest = hashlib.sha256(f"{seed}/{workload}/{key}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def info_moments(rows, p_in) -> tuple[float, float]:
    """Mean and variance of the log information ratio ln W(y|x)/P_Y(y)."""
    rows = np.asarray(rows, dtype=float)
    p_in = np.asarray(p_in, dtype=float)
    joint = p_in[:, None] * rows
    ratio = np.log(rows / (p_in @ rows)[None, :])
    mean = float((joint * ratio).sum())
    return mean, float((joint * ratio ** 2).sum()) - mean ** 2


def _bsc(flip: float) -> list:
    return [[1.0 - flip, flip], [flip, 1.0 - flip]]


def _channel_ops(workload, seed, family, rows, p_in, configs, trials, method):
    ops = []
    for n, rate, decoders in configs:
        key = f"{family}/{n}/{rate!r}/{method}"
        for decoder in decoders:
            ops.append({"op": "channel", "family": family, "channel": rows, "input": p_in,
                        "rate": rate, "n": n, "trials": trials, "decoder": decoder,
                        "method": method, "seed": stream_seed(seed, workload, key)})
    return ops


def _rd_ops(workload, seed, configs, trials, method):
    return [{"op": "rd", "family": "binary-uniform-hamming", "source": [0.5, 0.5],
             "test_channel": _bsc(RD_D), "d": HAMMING_2, "D": RD_D, "rate": rate, "n": n,
             "trials": trials, "method": method,
             "seed": stream_seed(seed, workload, f"rd/{n}/{rate!r}/{method}")}
            for n, rate in configs]


BOTH = ("threshold", "ml")


def sim_stream(seed: int) -> list:
    """Per-trial kernel: BSC sweeps (one merged lattice per n) and source
    coding, where each trial costs O(n) and lattices are cache hits."""
    cap, var = info_moments(_bsc(BSC_FLIP), [0.5, 0.5])
    configs = [(n, cap + z * math.sqrt(var / n), BOTH)
               for n in (250, 500, 1000, 1800) for z in (-1.0, 0.5)]
    ops = _channel_ops("sim-stream", seed, "bsc", _bsc(BSC_FLIP), [0.5, 0.5], configs,
                       trials=500, method="conditional")
    # short blocks above capacity, where ties between equally distant words
    # move ML success by 0.14 (0.52 with uniform tie-break, 0.66 if ties won)
    ops += _channel_ops("sim-stream", seed, "bsc", _bsc(BSC_FLIP), [0.5, 0.5],
                        [(30, 0.4, BOTH)], trials=1000, method="conditional")
    p = np.asarray(TERNARY_SOURCE)
    h = float(-(p * np.log(p)).sum())
    v = float((p * np.log(p) ** 2).sum()) - h ** 2
    for n in (200, 800):
        for mode in ("source-dependent", "universal"):
            rate = h + 0.5 * math.sqrt(v / n)
            ops.append({"op": "source", "source": TERNARY_SOURCE, "rate": rate, "n": n,
                        "mode": mode, "trials": 1500,
                        "seed": stream_seed(seed, "sim-stream", f"source/{n}/{mode}")})
    return ops


def sim_lattice(seed: int) -> list:
    """Lattice build: every distinct output or source type builds a new
    score lattice (asymmetric channels do not merge)."""
    i3, _ = info_moments(CHANNEL_3X3, INPUT_3X3)
    ib, vb = info_moments(CHANNEL_BAC, INPUT_BAC)
    ops = _channel_ops("sim-lattice", seed, "dmc", CHANNEL_3X3, INPUT_3X3,
                       [(16, i3 - 0.05, BOTH), (20, i3 + 0.05, BOTH),
                        (24, i3 - 0.05, ("threshold",))],
                       trials=150, method="conditional")
    # n = 400 keeps this channel's lattice cache (one lattice per distinct
    # output type) below the 3x3 run's, so the peak memory is set by the
    # steadier of the two; at n = 1000 each lattice takes about 6 MB and the
    # number of distinct types drawn varies by about 7 % from seed to seed
    ops += _channel_ops("sim-lattice", seed, "dmc", CHANNEL_BAC, INPUT_BAC,
                        [(400, ib - 0.5 * math.sqrt(vb / 400), BOTH)],
                        trials=150, method="conditional")
    ops += _rd_ops("sim-lattice", seed, [(60, 0.39), (120, 0.38), (240, 0.375)],
                   trials=150, method="conditional")
    return ops


def sim_codebook(seed: int) -> list:
    """Literal protocol: every trial draws an N_m x n codebook; no lattice.
    The 3x3 configurations repeat those of sim-lattice, so both paths are
    gated against the same exact value."""
    i3, _ = info_moments(CHANNEL_3X3, INPUT_3X3)
    ops = _channel_ops("sim-codebook", seed, "bsc", _bsc(BSC_FLIP), [0.5, 0.5],
                       [(16, 0.30, BOTH), (24, 0.30, BOTH)], trials=300, method="materialize")
    ops += _channel_ops("sim-codebook", seed, "dmc", CHANNEL_3X3, INPUT_3X3,
                        [(16, i3 - 0.05, BOTH), (20, i3 + 0.05, BOTH)],
                        trials=300, method="materialize")
    ops += _rd_ops("sim-codebook", seed, [(16, 0.4), (20, 0.4)], trials=100,
                   method="materialize")
    return ops


def analytic(seed: int) -> list:
    """Solvers, exact sums and the CLI: capacity, R(D), exact source-coding
    success and the claims battery."""
    gen = np.random.default_rng(stream_seed(seed, "analytic", "inputs"))
    ops = [{"op": "cli-claims", "seed": stream_seed(seed, "analytic", "claims")}]
    for _ in range(2):
        flip = float(gen.uniform(0.02, 0.3))
        erase = float(gen.uniform(0.05, 0.5))
        z = float(gen.uniform(0.05, 0.5))
        rows3 = gen.dirichlet([2.0, 2.0, 2.0], size=3)
        rows3 = (rows3 / rows3.sum(axis=1, keepdims=True)).tolist()
        ops += [{"op": "capacity", "family": "bsc", "param": flip, "channel": _bsc(flip)},
                {"op": "capacity", "family": "bec", "param": erase,
                 "channel": [[1.0 - erase, erase, 0.0], [0.0, erase, 1.0 - erase]]},
                {"op": "capacity", "family": "z", "param": z,
                 "channel": [[1.0, 0.0], [z, 1.0 - z]]},
                {"op": "capacity", "family": "kkt", "param": None, "channel": rows3}]
    for source, d, grid in (([0.5, 0.5], HAMMING_2, (0.05, 0.11, 0.2, 0.3)),
                            ([0.7, 0.3], HAMMING_2, (0.1, 0.2)),
                            (TERNARY_SOURCE, HAMMING_3, (0.05, 0.15, 0.25, 0.3))):
        ops += [{"op": "rate-distortion", "source": source, "d": d, "D": D} for D in grid]
    for n_sym, n, mode in ((3, 600, "source-dependent"), (4, 100, "universal")):
        p = gen.dirichlet([4.0] * n_sym)
        p = (p / p.sum()).tolist()
        h = float(-(np.asarray(p) * np.log(p)).sum())
        ops.append({"op": "exact", "source": p, "rate": h, "n": n, "mode": mode})
    return ops


WORKLOADS = {"sim-stream": sim_stream, "sim-lattice": sim_lattice,
             "sim-codebook": sim_codebook, "analytic": analytic}


def build(name: str, seed: int) -> list:
    return WORKLOADS[name](seed)

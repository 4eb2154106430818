"""Check each oracle of ``oracles.py`` against brute force at tiny sizes.

    python3 perfbench/selftest.py

Block-coding oracles are compared with a literal enumeration of every
codebook, message block and channel output (or source block) at n = 3..7,
weighting each by its probability.  Closed forms for capacity and R(D) are
compared with a search over input distributions or test channels.  Needs
only numpy and scipy; the package is not imported.  Exits 1 on a mismatch.
"""

from __future__ import annotations

import itertools
import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402

FAILURES: list[str] = []


def expect(label: str, got: float, want: float, tol: float) -> None:
    ok = abs(got - want) <= tol
    print(f"{'ok  ' if ok else 'FAIL'} {label}: oracle {got:.15g}, brute force {want:.15g}")
    if not ok:
        FAILURES.append(label)


def brute_channel(rows, p_in, rate: float, n: int) -> dict:
    """Literal random coding: every codebook of N_m words, sent word 0 (all
    messages are alike), every output block."""
    rows = np.asarray(rows, dtype=float)
    p_in = np.asarray(p_in, dtype=float)
    n_m = oracles.codebook_size(rate, n)
    k_in, m_out = rows.shape
    log_w = np.log(rows)
    log_p_out = np.log(p_in @ rows)
    books = np.array(list(itertools.product(range(k_in), repeat=n * n_m))).reshape(-1, n_m, n)
    p_book = np.prod(p_in[books], axis=(1, 2))
    thr = ml = 0.0
    for y in itertools.product(range(m_out), repeat=n):
        y = np.array(y)
        scores = log_w[books, y[None, None, :]].sum(axis=2)          # (books, N_m)
        p_y = np.prod(rows[books[:, 0, :], y], axis=1)
        weight = p_book * p_y
        ratio = scores - log_p_out[y].sum()
        passes = ratio > n * rate
        thr += weight[passes[:, 0] & ~passes[:, 1:].any(axis=1)].sum()
        best = scores[:, 1:].max(axis=1)
        ties = (np.isclose(scores[:, 1:], scores[:, :1], rtol=0, atol=1e-12)).sum(axis=1)
        win = np.where(scores[:, 0] > best + 1e-12, 1.0,
                       np.where(scores[:, 0] >= best - 1e-12, 1.0 / (1 + ties), 0.0))
        ml += (weight * win).sum()
    return {"threshold": thr, "ml": ml}


def brute_source(probs, rate: float, n: int, mode: str) -> float:
    p = np.asarray(probs, dtype=float)
    total = 0.0
    for seq in itertools.product(range(p.size), repeat=n):
        counts = np.bincount(seq, minlength=p.size)
        t = counts / n
        if mode == "source-dependent":
            cost = float(-(t * np.log(p)).sum())
        else:
            cost = float(-sum(v * math.log(v) for v in t if v > 0))
        if cost <= rate:
            total += float(np.prod(p[list(seq)]))
    return total


def brute_rd_binary(n: int, D: float, rate: float) -> float:
    """The covering protocol's own rule with test channel BSC(D): some word
    meets the budget and out-scores every non-meeting word minus n*rate."""
    n_m = oracles.codebook_size(rate, n)
    g = np.log(np.array([[1 - D, D], [D, 1 - D]]))     # ln P(x | x_hat), uniform marginals
    books = np.array(list(itertools.product((0, 1), repeat=n * n_m))).reshape(-1, n_m, n)
    total = 0.0
    for x in itertools.product((0, 1), repeat=n):
        x = np.array(x)
        scores = g[books, x[None, None, :]].sum(axis=2)
        dist = (books != x[None, None, :]).sum(axis=2)
        meets = dist <= n * D + 1e-9
        best_meet = np.where(meets, scores, -np.inf).max(axis=1)
        best_not = np.where(~meets, scores, -np.inf).max(axis=1)
        ok = meets.any(axis=1) & (best_meet > best_not - n * rate)
        total += ok.mean() * 0.5 ** n
    return total


def grid_capacity(rows, points: int = 200_001) -> float:
    rows = np.asarray(rows, dtype=float)
    a = np.linspace(0.0, 1.0, points)
    r = np.stack([a, 1 - a], axis=1)
    q = r @ rows
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(rows[None] > 0, rows[None] * np.log(rows[None] / q[:, None, :]), 0.0)
    return float((r * np.nan_to_num(terms).sum(axis=2)).sum(axis=1).max())


def grid_rd_binary(p: float, D: float, points: int = 1501) -> float:
    """min I(X; X_hat) over forward test channels (a, b) with E d <= D."""
    a, b = np.meshgrid(np.linspace(0, 1, points), np.linspace(0, 1, points), indexing="ij")
    joint = np.stack([np.stack([p * (1 - a), p * a], -1),
                      np.stack([(1 - p) * b, (1 - p) * (1 - b)], -1)], -2)  # x=1 first
    feasible = p * a + (1 - p) * b <= D
    px = joint.sum(axis=-1, keepdims=True)
    pq = joint.sum(axis=-2, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        info = np.where(joint > 0, joint * np.log(joint / (px * pq)), 0.0).sum(axis=(-1, -2))
    return float(info[feasible].min())


def ternary_rd_checks(probs, D: float, samples: int = 200_000) -> None:
    """Achievability: the backward channel P(x | x_hat) = 1-D on the diagonal,
    D/2 off it, with its output law solved from p, reaches the closed form.
    Converse side: no random feasible test channel does better."""
    p = np.asarray(probs, dtype=float)
    closed = oracles.rd_hamming_closed_form(p, D)
    back = np.full((3, 3), D / 2) + (1 - 3 * D / 2) * np.eye(3)
    r = np.linalg.solve(back.T, p)
    joint = r[:, None] * back                    # (x_hat, x)
    info = float((joint * np.log(joint / (r[:, None] * p[None, :]))).sum())
    expect(f"ternary R(D) achieved, D={D}", closed, info, 1e-12)
    gen = np.random.default_rng(7)
    forward = gen.dirichlet([0.3, 0.3, 0.3], size=(samples, 3))
    forward = 0.7 * forward + 0.3 * np.eye(3)[None]
    joint = p[None, :, None] * forward           # (s, x, x_hat)
    dist = (joint * (1 - np.eye(3))[None]).sum(axis=(1, 2))
    q = joint.sum(axis=1, keepdims=True)
    infos = (joint * np.log(joint / (p[None, :, None] * q))).sum(axis=(1, 2))
    best = float(infos[dist <= D].min())
    ok = best >= closed - 1e-9
    print(f"{'ok  ' if ok else 'FAIL'} ternary R(D) converse, D={D}: closed form {closed:.9f}, "
          f"best of {int((dist <= D).sum())} feasible random test channels {best:.9f}")
    if not ok:
        FAILURES.append(f"ternary R(D) converse D={D}")


def main() -> int:
    for flip, n in ((0.2, 4), (0.11, 5)):
        rate = math.log(3.5) / n
        got = oracles.bsc_success(n, rate, flip)
        want = brute_channel([[1 - flip, flip], [flip, 1 - flip]], [0.5, 0.5], rate, n)
        for dec in ("threshold", "ml"):
            expect(f"bsc_success flip={flip} n={n} N_m=3 {dec}", got[dec], want[dec], 1e-12)
    for rows, p_in, n in (([[0.73, 0.17, 0.10], [0.13, 0.79, 0.08], [0.29, 0.23, 0.48]],
                           [0.6, 0.3, 0.1], 3),
                          ([[0.93, 0.07], [0.19, 0.81]], [0.55, 0.45], 5)):
        rate = math.log(3.5) / n
        got = oracles.dmc_success(rows, p_in, rate, n)
        want = brute_channel(rows, p_in, rate, n)
        for dec in ("threshold", "ml"):
            expect(f"dmc_success {len(rows)}x{len(rows[0])} n={n} N_m=3 {dec}", got[dec],
                   want[dec], 1e-12)
    for mode, rate in (("source-dependent", 1.08), ("universal", 0.93)):
        expect(f"source_success ternary n=7 {mode}",
               oracles.source_success([0.5, 0.3, 0.2], rate, 7, mode),
               brute_source([0.5, 0.3, 0.2], rate, 7, mode), 1e-12)
    for n, D in ((4, 0.25), (5, 0.2)):
        rate = math.log(3.5) / n
        expect(f"rd_binary_uniform_success n={n} D={D} N_m=3",
               oracles.rd_binary_uniform_success(n, D, rate), brute_rd_binary(n, D, rate), 1e-12)
    for family, param, rows in (("bsc", 0.11, [[0.89, 0.11], [0.11, 0.89]]),
                                ("bec", 0.3, [[0.7, 0.3, 0.0], [0.0, 0.3, 0.7]]),
                                ("z", 0.2, [[1.0, 0.0], [0.2, 0.8]])):
        expect(f"capacity closed form {family}({param})",
               oracles.capacity_closed_form(family, param), grid_capacity(rows), 1e-9)
    rows = [[0.6, 0.3, 0.1], [0.05, 0.25, 0.7]]
    lower, upper = oracles.capacity_kkt_bounds(rows, [0.5, 0.5])
    c = grid_capacity(rows)
    ok = lower <= c + 1e-12 and c <= upper + 1e-12
    print(f"{'ok  ' if ok else 'FAIL'} KKT bounds at a non-optimal input: "
          f"{lower:.9f} <= C = {c:.9f} <= {upper:.9f}")
    if not ok:
        FAILURES.append("KKT bounds")
    for p, D in ((0.5, 0.11), (0.3, 0.1)):
        expect(f"binary R(D) p={p} D={D}", oracles.rd_hamming_closed_form([p, 1 - p], D),
               grid_rd_binary(p, D), 2e-4)
    for D in (0.1, 0.3):
        ternary_rd_checks([0.5, 0.3, 0.2], D)
    print("selftest:", "FAILED " + ", ".join(FAILURES) if FAILURES else "all oracles agree")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())

"""Exact finite-n targets for the benchmark's output checks.

Every value here is computed from integer counts, binomial and multinomial
sums and closed forms, written apart from the package: nothing imports
``ptshannon``.  ``selftest.py`` checks each oracle against brute-force
enumeration of the literal protocol at tiny n.

All probabilities that enter a power with an astronomically large codebook
size are carried in log scale, and ln(1 - e^x) is taken as ln(-expm1(x)), so
no power (1 - eps)^N rounds through 1.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import gammaln, logsumexp
from scipy.stats import binom

LN2 = math.log(2.0)
GATE_ALPHA = 1e-7       # two-sided binomial tail that fails a simulated p-hat
YTYPE_LOG_FLOOR = math.log(1e-17)   # output types rarer than this are skipped
BOUNDARY_TOL = 1e-9     # decision statistics this close to a threshold are ambiguous


class AmbiguousInput(ValueError):
    """A decision statistic sits on its threshold, where float rounding in the
    program and in the oracle could legitimately disagree."""


def codebook_size(rate: float, n: int) -> int:
    """floor(exp(n * rate)): the codebook size the protocols are defined with
    (the same one-ulp nudge as the program, for n*rate = ln k exactly)."""
    if n * rate > 700.0:
        raise AmbiguousInput("n*rate above 700 lies outside the protocol's codebook-size range")
    return int(math.floor(math.exp(n * rate) * (1.0 + 1e-12)))


# --- log-scale helpers --------------------------------------------------------

def log1mexp(x):
    """ln(1 - e^x) for x <= 0, elementwise."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        return np.where(x < 0.0, np.log(-np.expm1(np.minimum(x, 0.0))), -np.inf)


def log_pow_one_minus(log_p, big_n: float):
    """ln((1 - p)^N) from ln p, elementwise; exact for tiny p and huge N."""
    log_p = np.asarray(log_p, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        tiny = -np.exp(math.log(big_n) + np.minimum(log_p, -30.0))
        direct = big_n * log1mexp(np.minimum(log_p, -1e-300))
    out = np.where(log_p < -30.0, tiny, direct)
    out = np.where(log_p == -np.inf, 0.0, out)
    return np.where(log_p >= 0.0, -np.inf, out)


def log_ml_win(log_gt, log_eq, n_m: int):
    """ln P(the sent word wins maximum likelihood with uniform tie-break)
    against N_m - 1 i.i.d. rivals, each strictly better with probability a and
    tied with probability b:
        [(1 - a)^N - (1 - a - b)^N] / (N b),  N = N_m,
    which tends to (1 - a)^(N - 1) as N b -> 0."""
    log_gt = np.asarray(log_gt, dtype=float)
    log_eq = np.asarray(log_eq, dtype=float)
    log_n = math.log(n_m)
    log_not_gt = log1mexp(log_gt)
    pow_not_gt = log_pow_one_minus(log_gt, float(n_m))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        no_tie = pow_not_gt - log_not_gt
        log_q = log_eq - log_not_gt
        tied_fraction = -np.expm1(log_pow_one_minus(np.minimum(log_q, 0.0), float(n_m)))
        with_tie = pow_not_gt + np.log(tied_fraction) - (log_n + log_eq)
    out = np.where((log_eq == -np.inf) | (log_n + log_q < -700.0), no_tie, with_tie)
    return np.where(pow_not_gt == -np.inf, -np.inf, out)


def log_multinomial(counts: np.ndarray) -> np.ndarray:
    """ln(m! / prod c!) for each row of a count matrix."""
    counts = np.asarray(counts, dtype=float)
    return gammaln(counts.sum(axis=-1) + 1.0) - gammaln(counts + 1.0).sum(axis=-1)


@lru_cache(maxsize=None)
def compositions(n: int, parts: int) -> np.ndarray:
    """All count vectors of `parts` non-negative integers summing to n, one
    per row (read-only)."""
    if parts == 1:
        out = np.array([[n]], dtype=np.int64)
    elif parts == 2:
        first = np.arange(n + 1)
        out = np.column_stack([first, n - first])
    else:
        blocks = []
        for first in range(n + 1):
            rest = compositions(n - first, parts - 1)
            blocks.append(np.column_stack([np.full(rest.shape[0], first), rest]))
        out = np.vstack(blocks)
    out.setflags(write=False)
    return out


def _binomial_log_pmf(n: int, p: float) -> np.ndarray:
    k = np.arange(n + 1)
    with np.errstate(divide="ignore"):
        return (gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)
                + k * np.log(p) + (n - k) * np.log1p(-p))


def _check_boundary(stat: np.ndarray, threshold: float, scale: float) -> None:
    finite = stat[np.isfinite(stat)]
    if finite.size and np.min(np.abs(finite - threshold)) < BOUNDARY_TOL * max(1.0, scale):
        raise AmbiguousInput(f"a decision statistic lies within {BOUNDARY_TOL:g} of {threshold!r}")


# --- channel coding -------------------------------------------------------------

def bsc_success(n: int, rate: float, flip: float) -> dict:
    """Exact annealed success of random coding over BSC(flip) with uniform
    input, both decoders, by binomial sums.

    A word at Hamming distance K from the output has information ratio
    (n-K) ln(2(1-flip)) + K ln(2 flip).  For the sent word K ~ Bin(n, flip);
    for each of the N_m - 1 rivals, independently, K ~ Bin(n, 1/2).
    ``threshold``: success iff the sent word's ratio exceeds n*rate and no
    rival's does.  ``ml``: the sent word has the fewest disagreements, ties
    broken uniformly.
    """
    n_m = codebook_size(rate, n)
    k = np.arange(n + 1)
    log_sent = _binomial_log_pmf(n, flip)
    log_rival = _binomial_log_pmf(n, 0.5)
    ratio = (n - k) * math.log(2 * (1 - flip)) + k * math.log(2 * flip)
    _check_boundary(ratio, n * rate, n * rate)
    passes = ratio > n * rate
    if passes.any():
        log_rival_pass = logsumexp(log_rival[passes])
        thr = float(np.exp(logsumexp(log_sent[passes])
                           + log_pow_one_minus(log_rival_pass, float(n_m - 1))))
    else:
        thr = 0.0
    # rivals strictly closer than the sent word's distance j: K < j
    prefix = np.concatenate([[-np.inf], np.logaddexp.accumulate(log_rival)[:-1]])
    ml = float(np.exp(logsumexp(log_sent + log_ml_win(prefix, log_rival, n_m))))
    return {"threshold": thr, "ml": ml}


def _group_laws(rows, p_in, m):
    """Per output symbol y with m[y] > 0: the scores sum_x c[x] ln W(y|x) of
    every composition c of m[y], and the log-probabilities of c under a
    rival (i.i.d. input law) and under the sent word (P(x|y))."""
    log_w = np.log(rows)
    log_p_in = np.log(p_in)
    log_post = np.log(p_in[:, None] * rows / (p_in @ rows)[None, :])
    groups = []
    for y, count in enumerate(m):
        if count == 0:
            continue
        comps = compositions(int(count), rows.shape[0])
        lm = log_multinomial(comps)
        groups.append((comps @ log_w[:, y], lm + comps @ log_p_in, lm + comps @ log_post[:, y]))
    return groups


def _outer(groups):
    score, log_rival, log_sent = np.zeros(1), np.zeros(1), np.zeros(1)
    for g_score, g_rival, g_sent in groups:
        score = (score[:, None] + g_score).ravel()
        log_rival = (log_rival[:, None] + g_rival).ravel()
        log_sent = (log_sent[:, None] + g_sent).ravel()
    return score, log_rival, log_sent


def _log_pass(groups, threshold: float) -> tuple[float, float]:
    """(ln P_rival(score > t), ln P_sent(score > t)) given the output type.
    All groups but the last are enumerated jointly; the last is sorted and
    searched, so the cost is that of the smaller product."""
    head_score, head_rival, head_sent = _outer(groups[:-1])
    last_score, last_rival, last_sent = groups[-1]
    order = np.argsort(last_score, kind="stable")
    last_score = last_score[order]
    suffix_rival = np.append(np.logaddexp.accumulate(last_rival[order][::-1])[::-1], -np.inf)
    suffix_sent = np.append(np.logaddexp.accumulate(last_sent[order][::-1])[::-1], -np.inf)
    need = threshold - head_score
    idx = np.searchsorted(last_score, need, side="right")
    nearest = np.minimum(np.abs(last_score[np.minimum(idx, last_score.size - 1)] - need),
                         np.abs(last_score[np.maximum(idx - 1, 0)] - need))
    if nearest.min() < BOUNDARY_TOL * max(1.0, abs(threshold)):
        raise AmbiguousInput(f"a codeword score lies within {BOUNDARY_TOL:g} of the threshold")
    return (float(logsumexp(head_rival + suffix_rival[idx])),
            float(logsumexp(head_sent + suffix_sent[idx])))


def _log_ml(groups, n_m: int) -> float:
    """ln P(ML success) given the output type: every joint type is scored and
    sorted; equal scores are ties.  Rival tails are summed in the linear
    domain from the top score down, so small tails keep their precision."""
    score, log_rival, log_sent = _outer(groups)
    order = np.argsort(-score)
    score, rival, log_sent = score[order], np.exp(log_rival[order]), log_sent[order]
    starts = np.flatnonzero(np.concatenate([[True], score[1:] != score[:-1]]))
    eq = np.add.reduceat(rival, starts)
    gt = np.concatenate([[0.0], np.cumsum(eq)[:-1]])
    log_sent_g = np.logaddexp.reduceat(log_sent, starts)
    keep = log_sent_g > log_sent_g.max() - 45.0
    with np.errstate(divide="ignore"):
        log_win = log_ml_win(np.log(gt[keep]), np.log(eq[keep]), n_m)
    return float(logsumexp(log_sent_g[keep] + log_win))


def dmc_success(rows, p_in, rate: float, n: int, decoders=("threshold", "ml")) -> dict:
    """Exact annealed success of random coding over a discrete memoryless
    channel by a sum over joint types.

    Given the output type m, the sent word's joint counts c[x, y] are
    independent multinomials over each output symbol's positions with
    P(x|y), and each rival's with the input law; a word's score is
    sum c[x, y] ln W(y|x).  ``threshold``: the sent word's score exceeds
    n*rate + sum_y m[y] ln P_Y(y) and no rival's does.  ``ml``: highest
    score wins, ties broken uniformly.  Output types with probability below
    1e-17 are skipped.
    """
    rows = np.asarray(rows, dtype=float)
    p_in = np.asarray(p_in, dtype=float)
    if np.any(rows <= 0) or np.any(p_in <= 0):
        raise ValueError("dmc_success needs a channel and an input with full support")
    n_m = codebook_size(rate, n)
    log_p_out = np.log(p_in @ rows)
    ytypes = compositions(n, rows.shape[1])
    log_py = log_multinomial(ytypes) + ytypes @ log_p_out
    terms = {d: [] for d in decoders}
    for m, log_p_m in zip(ytypes, log_py):
        if log_p_m < YTYPE_LOG_FLOOR:
            continue
        groups = _group_laws(rows, p_in, m)
        if "threshold" in terms:
            log_rival, log_sent = _log_pass(groups, n * rate + float(m @ log_p_out))
            terms["threshold"].append(log_p_m + log_sent
                                      + float(log_pow_one_minus(log_rival, float(n_m - 1))))
        if "ml" in terms:
            terms["ml"].append(log_p_m + _log_ml(groups, n_m))
    return {d: float(np.exp(logsumexp(t))) for d, t in terms.items()}


# --- source coding --------------------------------------------------------------

def source_success_bracket(probs, rate: float, n: int, mode: str) -> tuple[float, float]:
    """Exact success of the fixed-rate set encoder by a multinomial sum over
    types T: the block is encodable iff sum_x T(x) ln(1/p(x)) <= rate
    (``source-dependent``) or H(T) <= rate (``universal``).

    Returns (low, high): types whose cost lies within BOUNDARY_TOL of the
    rate count only in ``high``, since float rounding may put them on
    either side; the two agree when no type is that close."""
    p = np.asarray(probs, dtype=float)
    if np.any(p <= 0):
        raise ValueError("source_success needs a source with full support")
    counts = compositions(n, p.size)
    t = counts / n
    if mode == "source-dependent":
        cost = t @ -np.log(p)
    elif mode == "universal":
        with np.errstate(divide="ignore", invalid="ignore"):
            cost = -np.where(t > 0, t * np.log(t), 0.0).sum(axis=1)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    log_prob = log_multinomial(counts) + counts @ np.log(p)
    tol = BOUNDARY_TOL * max(1.0, rate)

    def mass(member):
        return float(np.exp(logsumexp(log_prob[member]))) if member.any() else 0.0

    return mass(cost <= rate - tol), mass(cost <= rate + tol)


def source_success(probs, rate: float, n: int, mode: str) -> float:
    """source_success_bracket for an input with no type on the boundary."""
    low, high = source_success_bracket(probs, rate, n, mode)
    if low != high:
        raise AmbiguousInput(f"a type's cost lies within {BOUNDARY_TOL:g} of the rate")
    return low


# --- rate-distortion ------------------------------------------------------------

def rd_binary_uniform_success(n: int, D: float, rate: float) -> float:
    """Success of the covering protocol for a uniform binary source, Hamming
    distortion and test channel BSC(D): 1 - (1 - P(Bin(n, 1/2) <= floor(nD)))^N_m.

    With that test channel a codeword's score falls with its Hamming
    distance, so the best budget-meeting word always clears the margin and
    success is "some codeword is within floor(nD)"; each codeword's
    distance is Bin(n, 1/2) independently."""
    n_m = codebook_size(rate, n)
    budget = math.floor(n * D + 1e-9 * max(1.0, n * D))
    log_close = logsumexp(_binomial_log_pmf(n, 0.5)[:budget + 1])
    return float(-np.expm1(log_pow_one_minus(log_close, float(n_m))))


# --- information measures -------------------------------------------------------

def binary_entropy(p: float) -> float:
    return -p * math.log(p) - (1 - p) * math.log(1 - p)


def entropy(probs) -> float:
    p = np.asarray(probs, dtype=float)
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def capacity_closed_form(family: str, param: float) -> float:
    """Capacity in nats of the binary symmetric, binary erasure and Z channels."""
    if family == "bsc":
        return LN2 - binary_entropy(param)
    if family == "bec":
        return (1.0 - param) * LN2
    if family == "z":
        # input 0 is received noiselessly; input 1 turns into 0 with prob. param
        return math.log1p((1.0 - param) * param ** (param / (1.0 - param)))
    raise ValueError(f"unknown channel family {family!r}")


def capacity_kkt_bounds(rows, input_probs) -> tuple[float, float]:
    """(I(r), max_x D(W_x || r W)) for an input r: the capacity lies between
    them, and they meet exactly at a capacity-achieving input."""
    rows = np.asarray(rows, dtype=float)
    r = np.asarray(input_probs, dtype=float)
    q = r @ rows
    with np.errstate(divide="ignore", invalid="ignore"):
        kl = np.where(rows > 0, rows * np.log(rows / q[None, :]), 0.0).sum(axis=1)
    return float(r @ kl), float(kl.max())


def rd_hamming_closed_form(probs, D: float) -> float:
    """R(D) in nats for Hamming distortion on N symbols,
    H(p) - h(D) - D ln(N - 1), valid for D < (N - 1) * min(p)."""
    p = np.asarray(probs, dtype=float)
    n_sym = p.size
    if not 0.0 < D < (n_sym - 1) * p.min():
        raise ValueError("closed form holds only for 0 < D < (N-1) min p")
    return entropy(p) - binary_entropy(D) - D * math.log(n_sym - 1)


# --- gates ----------------------------------------------------------------------

def binomial_gate(successes: int, trials: int, p_exact: float) -> tuple[bool, float]:
    """Two-sided exact binomial test of `successes` out of `trials` against
    p_exact; fails only below GATE_ALPHA, about 5.3 sigma, so a correct
    change of random draws does not trip it.  Returns (ok, tail)."""
    lower = float(binom.cdf(successes, trials, p_exact))
    upper = float(binom.sf(successes - 1, trials, p_exact))
    tail = min(lower, upper)
    return tail >= GATE_ALPHA / 2.0, tail


def dominance_gate(ml_hat: float, thr_hat: float, trials: int) -> bool:
    """p_ml >= p_threshold within noise: a threshold success implies an ML
    success on the same draws."""
    var = ml_hat * (1 - ml_hat) + thr_hat * (1 - thr_hat)
    return ml_hat >= thr_hat - 5.3 * math.sqrt(var / trials) - 1.0 / trials

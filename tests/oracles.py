"""Independent oracles shared by the simulator, polytope and acceptance
tests: closed forms, integer counts and binomial sums, never the package's
score lattices or type arrays, and a Monte Carlo integral over the simplex.
The last section keeps the simulator's rival-power law as it was computed
one scalar at a time, as the reference for the array versions."""

import bisect
import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.special import gammaln

from ptshannon import RngStream, codebook_size
from ptshannon.coding import MAX_LOG_CODEBOOK

LN2 = math.log(2.0)


def bsc_exact_success(n: int, rate: float, flip: float, decoder: str) -> float:
    """Exact annealed success probability of random coding over a BSC with
    uniform input, by binomial sums.

    A codeword at Hamming distance K from the output block has information
    ratio (n-K) ln(2(1-flip)) + K ln(2 flip).  For a rival K ~ Bin(n, 1/2)
    independently of the output block; for the sent word K is the number of
    channel flips J ~ Bin(n, flip).

    ``threshold``: a word passes iff its information ratio exceeds n*rate;
    success iff the sent word passes and none of the N_m - 1 rivals does.
    ``ml``: the sent word has the fewest disagreements, ties broken uniformly.
    With g = P(a rival has fewer) and e = P(a rival ties) that is
    (1-g)^(N_m-1) (1 - (1-q)^N_m) / (N_m q), q = e / (1-g), as in
    `dmc_exact_success`; the difference of powers ((1-g)^N_m - (1-g-e)^N_m)
    / (N_m e) would cancel once N_m e is tiny.
    """
    n_m = codebook_size(rate, n)
    j = np.arange(n + 1)
    log_binom = gammaln(n + 1) - gammaln(j + 1) - gammaln(n - j + 1)
    log_pj = log_binom + j * math.log(flip) + (n - j) * math.log(1 - flip)
    log_bk = log_binom - n * LN2

    if decoder == "threshold":
        passes = (n - j) * math.log(2 * (1 - flip)) + j * math.log(2 * flip) > n * rate
        if not passes.any():
            return 0.0
        p_rival = float(np.exp(np.logaddexp.reduce(log_bk[passes])))
        log_none_pass = (n_m - 1) * math.log1p(-p_rival) if p_rival < 1 else -math.inf
        return float(np.exp(log_pj[passes]).sum() * math.exp(log_none_pass))

    suffix = np.logaddexp.accumulate(log_bk[::-1])[::-1]

    def p_ge(t: int) -> float:
        if t <= 0:
            return 1.0
        if t > n:
            return 0.0
        return float(np.exp(suffix[t]))

    total = 0.0
    for jj in range(n + 1):
        g, e = p_ge(n - jj + 1), float(np.exp(log_bk[n - jj]))
        if g < 1.0:
            q = e / (1.0 - g)
            covered = -math.expm1(n_m * math.log1p(-q)) if q < 1.0 else 1.0
            tie_factor = covered / (n_m * q) if q > 0 else 1.0
            total += float(np.exp(log_pj[jj])) * math.exp((n_m - 1) * math.log1p(-g)) * tie_factor
    return total


def smoothed_delta_sequence_sum(n: int, eps: float, alphabet_size: int) -> float:
    """Sequence-level smoothed-delta sum around the uniform type.

    Near the uniform type the class-size ratio sqrt(d_class/d_ref) is
    exp(-(n N/4)|T - T_ref|^2), which adds to the Gaussian's curvature
    lam0 = 1/eps^2; the lattice sum divided by V_(n*eps) is then
    (lam0 / (lam0 + n N/4))^((N-1)/2).  It tends to 1 only as n eps^2 -> 0.
    """
    lam0 = 1.0 / eps ** 2
    return (lam0 / (lam0 + n * alphabet_size / 4.0)) ** ((alphabet_size - 1) / 2.0)


def parallel_resistance_gaussian(lam) -> float:
    """Gaussian integral over the simplex with diagonal curvatures lam, in its
    closed form sqrt(pi^(N-1) / (prod lam * sum 1/lam)): along the simplex the
    curvatures combine like resistors in parallel."""
    lam = np.asarray(lam, dtype=float)
    return math.sqrt(math.pi ** (lam.size - 1) / (float(np.prod(lam)) * float(np.sum(1.0 / lam))))


def simplex_uniform_sample(dim: int, size: int, rng: RngStream) -> np.ndarray:
    """Uniform points on the (dim-1)-simplex via normalized exponential draws."""
    gen = rng.generator()
    e = gen.standard_exponential(size=(size, dim))
    return e / e.sum(axis=1, keepdims=True)


def simplex_mc_integral(f, dim: int, samples: int, rng: RngStream) -> tuple[float, float]:
    """Monte Carlo estimate of int DP f(P) with its standard error.

    Uniform sampling has density (dim-1)! relative to the DP measure, so the
    estimate is mean(f)/ (dim-1)!.
    """
    pts = simplex_uniform_sample(dim, samples, rng)
    vals = np.asarray(f(pts), dtype=float)
    scale = math.factorial(dim - 1)
    est = float(vals.mean()) / scale
    se = float(vals.std(ddof=1)) / math.sqrt(samples) / scale
    return est, se


def binary_rd_success(n: int, D: float, rate: float) -> float:
    """Exact success probability of rate-distortion coding of the uniform
    binary source with Hamming distortion and the BSC test channel.

    The reproduction marginal is uniform and a codeword's score falls with
    its Hamming distance K from the block, so the best word within the
    budget always clears the pairwise margin.  Success iff one of the N_m
    i.i.d. words lies within floor(nD): 1 - (1 - q)^N_m with
    q = P(Bin(n, 1/2) <= floor(nD)).  The power is taken in log scale: q can
    be so small that 1 - q rounds to 1 and a plain power gives 0.
    """
    n_m = codebook_size(rate, n)
    q = sum(math.comb(n, k) for k in range(math.floor(n * D + 1e-9) + 1)) / 2 ** n
    return -math.expm1(n_m * math.log1p(-q))


def source_coding_success(probs, rate: float, n: int, mode: str) -> tuple[float, float]:
    """Exact success probability of the fixed-rate set encoder by a plain
    loop over count vectors, and the smallest |cost - rate| over the types
    the source can emit (types that close to the rate may fall either way
    under rounding).

    Cost is sum_x T(x) ln(1/p(x)) (``source-dependent``) or H(T)
    (``universal``); the probability of a type is its multinomial class size
    times p^counts.
    """
    terms, gap = [], math.inf
    for head in itertools.product(range(n + 1), repeat=len(probs) - 1):
        if sum(head) > n:
            continue
        counts = head + (n - sum(head),)
        if any(c > 0 and p == 0 for c, p in zip(counts, probs)):
            continue
        if mode == "source-dependent":
            cost = sum(c * -math.log(p) for c, p in zip(counts, probs) if c > 0) / n
        else:
            cost = -sum(c / n * math.log(c / n) for c in counts if c > 0)
        gap = min(gap, abs(cost - rate))
        if cost <= rate:
            terms.append(math.exp(
                math.lgamma(n + 1)
                + sum(c * math.log(p) - math.lgamma(c + 1)
                      for c, p in zip(counts, probs) if c > 0)))
    return math.fsum(terms), gap


def stars_and_bars(parts: int, n: int) -> np.ndarray:
    """Every composition of n into `parts` non-negative parts as one
    (rows, parts) int64 array, in lexicographic order.  The parts - 1 bar
    positions among n + parts - 1 slots, taken in lexicographic order, fix
    the counts as the gaps between consecutive bars, with a bar before the
    first slot and after the last: the reference for `type_array`, which
    gathers the same array one part at a time."""
    slots, rows = n + parts - 1, math.comb(n + parts - 1, parts - 1)
    edges = np.empty((rows, parts + 1), dtype=np.int64)
    edges[:, 0] = -1
    edges[:, -1] = slots
    edges[:, 1:-1] = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(slots), parts - 1)),
        dtype=np.int64, count=rows * (parts - 1),
    ).reshape(rows, parts - 1)
    return np.diff(edges, axis=1) - 1


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def dmc_exact_success(rows, p_in, rate: float, n: int, decoder: str) -> float:
    """Exact annealed success probability of random coding over any DMC, by a
    sum over the sent word's joint (input, output) type.

    Channel entries are read as exact decimals, so a word's likelihood of
    the output block is an integer over a common denominator D^n, and ties
    between the sent word and a rival are decided exactly.  Given the output
    type (m_y), a rival's conditional type C has probability
    prod_y m_y!/prod_x C[x,y]! prod_x p(x)^C[x,y], whatever the sent word;
    the sent word's joint type J has probability
    n!/prod J[x,y]! prod (p(x) W(y|x))^J[x,y].

    ``threshold``: a word passes iff ln P(y|x) - ln P_Y(y) > n*rate; success
    iff the sent word passes and none of the N_m - 1 rivals does.
    ``ml``: the sent word has the largest likelihood, ties broken uniformly.
    With g = P(a rival beats it) and e = P(a rival ties it) that is
    sum_k C(N_m-1, k) e^k (1-g-e)^(N_m-1-k) / (k+1)
      = (1-g)^(N_m-1) (1 - (1-q)^N_m) / (N_m q),  q = e / (1-g).
    """
    W = [[Fraction(str(float(w))) for w in row] for row in rows]
    denom = math.lcm(*(w.denominator for row in W for w in row))
    w_int = [[int(w * denom) for w in row] for row in W]
    p = [float(v) for v in p_in]
    k, m = len(W), len(W[0])
    log_py = [math.log(sum(p[x] * float(W[x][y]) for x in range(k))) for y in range(m)]
    n_m = codebook_size(rate, n)
    terms = []
    for y_counts in _compositions(n, m):
        # per output symbol: (likelihood factor, rival log-prob, sent log-prob)
        columns = []
        for y, m_y in enumerate(y_counts):
            options = []
            for c in _compositions(m_y, k):
                if any(c[x] and p[x] == 0 for x in range(k)):
                    continue
                log_multi = math.lgamma(m_y + 1) - sum(math.lgamma(ci + 1) for ci in c)
                rival = log_multi + sum(ci * math.log(p[x]) for x, ci in enumerate(c) if ci)
                sent = (rival + sum(ci * math.log(W[x][y]) for x, ci in enumerate(c) if ci)
                        if all(W[x][y] or not c[x] for x in range(k)) else -math.inf)
                options.append((math.prod(w_int[x][y] ** ci for x, ci in enumerate(c)),
                                rival, sent))
            columns.append(options)
        log_head = math.lgamma(n + 1) - sum(math.lgamma(m_y + 1) for m_y in y_counts)
        rival_mass, sent_mass = {}, {}
        for combo in itertools.product(*columns):
            lik = math.prod(o[0] for o in combo)
            rival_mass.setdefault(lik, []).append(math.exp(sum(o[1] for o in combo)))
            sent = sum(o[2] for o in combo)
            if sent > -math.inf:
                sent_mass.setdefault(lik, []).append(math.exp(log_head + sent))
        liks = sorted(rival_mass, reverse=True)
        # a word passes iff ln(lik) > t
        t = n * rate + n * math.log(denom) + sum(m_y * l for m_y, l in zip(y_counts, log_py))
        if decoder == "threshold":
            gaps = [abs(math.log(lik) - t) for lik in liks if lik]
            if gaps and min(gaps) < 1e-9:
                raise ValueError("a likelihood lies within 1e-9 of the threshold")
            p_pass = math.fsum(math.fsum(rival_mass[lik]) for lik in liks
                               if lik and math.log(lik) > t)
            if p_pass < 1.0:
                win = math.exp((n_m - 1) * math.log1p(-p_pass))
                terms += [win * math.fsum(mass) for lik, mass in sent_mass.items()
                          if math.log(lik) > t]
            continue
        g = 0.0  # rival mass of strictly larger likelihoods
        for lik in liks:
            e = math.fsum(rival_mass[lik])
            if lik in sent_mass and g < 1.0:
                q = e / (1.0 - g)
                covered = -math.expm1(n_m * math.log1p(-q)) if q < 1.0 else 1.0
                win = math.exp((n_m - 1) * math.log1p(-g)) * covered / (n_m * q)
                terms.append(win * math.fsum(sent_mass[lik]))
            g += e
    return math.fsum(terms)


def binary_input_capacity(rows) -> float:
    """Capacity of a binary-input channel by golden-section search over the
    input law (r, 1 - r).  The mutual information is concave in r, so the
    search brackets the maximum; 80 steps shrink the bracket below 1e-16."""
    rows = np.asarray(rows, dtype=float)

    def mi(r: float) -> float:
        joint = np.array([[r], [1.0 - r]]) * rows
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = joint * np.log(rows / joint.sum(axis=0))
        return float(np.where(joint > 0, terms, 0.0).sum())

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = 0.0, 1.0
    for _ in range(80):
        c, e = b - inv_phi * (b - a), a + inv_phi * (b - a)
        if mi(c) < mi(e):
            a = c
        else:
            b = e
    return max(mi(a), mi(b), mi(0.5 * (a + b)))


# --- scalar references for the rival-power law ----------------------------------
# The power (1 - eps)^M, the ML win probability and the rate-distortion
# failure sum, one scalar at a time.  The failure sum sorts the lattice and
# sums its tails on its own, in plain Python.

def log_pow_one_minus(log_eps: float, log_m: float) -> float:
    """ln((1 - eps)^M) from ln(eps) and ln(M), with log1mexp split at
    eps = 1/2 and -M eps below eps = e^-30; -inf once the power is 0 to
    double precision."""
    if log_eps == -math.inf:
        return 0.0
    if log_eps >= 0.0:
        return -math.inf
    if log_eps > -30.0:
        if log_m > MAX_LOG_CODEBOOK:
            return -math.inf
        if log_eps > -LN2:
            return math.exp(log_m) * math.log(-math.expm1(log_eps))
        return math.exp(log_m) * math.log1p(-math.exp(log_eps))
    return -math.exp(log_m + log_eps) if log_m + log_eps <= MAX_LOG_CODEBOOK else -math.inf


def ml_win_probability(log_gt: float, log_eq: float, log_nm: float,
                       log_rivals: float) -> float:
    """(1-g)^(N_m-1) (1 - (1-q)^N_m) / (N_m q), q = e / (1-g), from ln g and
    ln e; the tie factor is 1 once N_m q < e^-30."""
    log_win = log_pow_one_minus(log_gt, log_rivals)
    if log_win == -math.inf:
        return 0.0
    log_q = log_eq - log_pow_one_minus(log_gt, 0.0)
    if log_nm + log_q < -30.0:
        return math.exp(log_win)
    covered = -math.expm1(log_pow_one_minus(log_q, log_nm))
    return math.exp(log_win + math.log(covered) - log_nm - log_q)


def _log_add(a: float, b: float) -> float:
    """ln(e^a + e^b) for scalars, -inf included."""
    top = max(a, b)
    return top if top == -math.inf else top + math.log1p(math.exp(min(a, b) - top))


def _tail_table(points) -> tuple[list, list]:
    """Scores of (score, ln mass) points in ascending order, and the ln mass
    at or above each position with -inf appended: position
    ``bisect_left(scores, t)`` holds ln P(score >= t), ``bisect_right`` ln
    P(score > t)."""
    points = sorted(points)
    tail = [-math.inf]
    for _, log_mass in reversed(points):
        tail.append(_log_add(tail[-1], log_mass))
    return [score for score, _ in points], tail[::-1]


def rd_fail_probability(values, log_pmf, dist_totals, budget: float, margin: float,
                        log_nm: float) -> float:
    """sum_v [G(v)^N_m - G(v-)^N_m] over the distinct non-meeting scores v,
    in ascending order, two scalar powers per v, each (1 - eps)^N_m of a
    complement: 1 - G(v-) is the mass of non-meeting points scoring >= v or
    meeting points scoring > v - margin, and 1 - G(v) the same with > v."""
    points = list(zip(values.tolist(), log_pmf.tolist(), (dist_totals <= budget).tolist()))
    not_scores, not_tail = _tail_table([(s, lp) for s, lp, meets in points if not meets])
    meet_scores, meet_tail = _tail_table([(s, lp) for s, lp, meets in points if meets])
    p_fail = 0.0
    for v in sorted(set(not_scores)):
        meet_above = meet_tail[bisect.bisect_right(meet_scores, v - margin)]
        e1 = _log_add(not_tail[bisect.bisect_right(not_scores, v)], meet_above)
        e0 = _log_add(not_tail[bisect.bisect_left(not_scores, v)], meet_above)
        p_fail += math.exp(log_pow_one_minus(e1, log_nm)) \
            - math.exp(log_pow_one_minus(e0, log_nm))
    return min(max(p_fail, 0.0), 1.0)

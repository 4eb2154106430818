"""Independent closed-form oracles shared by the simulator, polytope and
acceptance tests.  They use only integer counts and binomial sums, never the
package's score lattices or type arrays."""

import itertools
import math

import numpy as np
from scipy.special import gammaln

from ptshannon import codebook_size

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
        w = float(np.exp(log_pj[jj]))
        p_gt = p_ge(n - jj + 1)
        p_eq = float(np.exp(log_bk[n - jj]))
        p_less = max(1.0 - p_gt - p_eq, 0.0)
        if p_eq > 0:
            total += w * ((1 - p_gt) ** n_m - p_less ** n_m) / (n_m * p_eq)
        else:
            total += w * p_less ** (n_m - 1)
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

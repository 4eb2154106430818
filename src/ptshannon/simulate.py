"""Seeded Monte Carlo simulators of the three coding protocols.

All three draw fresh random structure per trial (annealed averaging): the
source simulator draws a source block and tests set membership; the channel
simulator draws a codebook, sends one codeword, and decodes with either the
information-ratio threshold decoder or maximum likelihood; the rate-distortion
simulator draws a reproduction codebook and asks whether some codeword both
clears the pairwise score margin and meets the distortion budget.

Codebooks have floor(exp(n*rate)) rows.  When that is small enough the
protocol is simulated literally; beyond the operation guard the simulators
switch to an exact conditional form: given the transmitted block, the
competing codewords are i.i.d., so the conditional success probability is a
computable function of the block's type, and one Bernoulli draw per trial
reproduces the protocol's success distribution without materializing the
codebook.  Both paths are deterministic given (config, seed) and agree in
distribution.

The conditional paths and the source simulator share one trial kernel
(:func:`_type_trials`): a trial depends on its block only through the
block's type, so the kernel draws types directly by multinomial sampling,
computes each distinct type's success probability once, and spends one
uniform per trial.  Trials run in blocks of ``TRIAL_BLOCK``: block b draws
from substream b, always a full block, so trial i's outcome depends only on
(seed, i), not on the trial count or on how blocks are scheduled.  The
materialize paths draw a literal codebook per trial from substream i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .alphabet import Channel, Distribution, RngStream
from .coding import (
    MAX_LOG_CODEBOOK,
    SOURCE_DEPENDENT,
    SourceCodingSetup,
    codebook_size,
    log_codebook_size,
)
from .errors import CodebookTooLarge, DegenerateMarginal, DimensionMismatch
from .info_measures import _validate_distortion_matrix
from .type_classes import count_types, type_array

OPS_GUARD = 10**9
LATTICE_GUARD = 4 * 10**6
TRIAL_BLOCK = 1024
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class TrialReport:
    successes: int
    trials: int
    p_hat: float
    ci95_halfwidth: float
    seed: int


def _report(successes: int, trials: int, rng: RngStream) -> TrialReport:
    p = successes / trials
    half = 1.96 * math.sqrt(max(p * (1 - p), 0.0) / trials)
    return TrialReport(int(successes), trials, p, half, rng.seed)


def _sample_rows(rows: np.ndarray, x: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """One draw from rows[x_j] for each position j."""
    cum = np.cumsum(rows, axis=1)
    u = gen.random(x.size)
    return (u[:, None] > cum[x]).sum(axis=1)


def _masked_dot(counts: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Row-wise sum of counts*values skipping zero counts, so absent -inf
    values do not poison the result.  Both lattice construction and
    transmitted-block scoring go through here, keeping floats bit-identical."""
    with np.errstate(invalid="ignore"):
        terms = np.where(counts > 0, counts * values[None, :], 0.0)
    return terms.sum(axis=1)


def _type_trials(trials: int, rng: RngStream, draw_types, p_success) -> TrialReport:
    """The one conditional trial loop: block of types -> success probability
    per distinct type -> one Bernoulli per trial.

    ``draw_types(gen, size)`` returns ``size`` block types, one integer array
    per trial; ``p_success(key)`` maps a type, flattened to a tuple of ints,
    to the trial's success probability and is called once per distinct type.
    Block b draws TRIAL_BLOCK types and then TRIAL_BLOCK uniforms from
    substream b and keeps the first rows it needs, so trial i's outcome
    depends only on (seed, i).
    """
    memo: dict[tuple, float] = {}
    successes = 0
    for b in range(-(-trials // TRIAL_BLOCK)):
        gen = rng.substream(b).generator()
        types = draw_types(gen, TRIAL_BLOCK).reshape(TRIAL_BLOCK, -1)
        u = gen.random(TRIAL_BLOCK)
        take = min(TRIAL_BLOCK, trials - b * TRIAL_BLOCK)
        distinct, inverse = np.unique(types[:take], axis=0, return_inverse=True)
        p = np.empty(len(distinct))
        for j, key in enumerate(map(tuple, distinct.tolist())):
            if key not in memo:
                memo[key] = p_success(key)
            p[j] = memo[key]
        successes += int(np.count_nonzero(u[:take] < p[inverse.reshape(-1)]))
    return _report(successes, trials, rng)


# --- source coding ------------------------------------------------------------

def simulate_source_coding(setup: SourceCodingSetup, trials: int, rng: RngStream) -> TrialReport:
    """Draw block types from the source; success iff the type lies in the
    fixed-rate acceptance set."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p = setup.source.probs
    with np.errstate(divide="ignore"):
        neglog = np.where(p > 0, -np.log(p), np.inf)

    def accepted(key: tuple) -> float:
        counts = np.array(key)
        if setup.mode == SOURCE_DEPENDENT:
            cost = float(np.where(counts > 0, counts * neglog, 0.0).sum()) / setup.n
        else:
            t = counts[counts > 0] / setup.n
            cost = float(-(t * np.log(t)).sum())
        return float(cost <= setup.rate)

    return _type_trials(trials, rng, lambda gen, size: gen.multinomial(setup.n, p, size=size),
                        accepted)


# --- score lattices -------------------------------------------------------------

class _Lattice:
    """Distribution of one random codeword's score, sorted, with log-scale
    tail lookups."""

    def __init__(self, values: np.ndarray, log_pmf: np.ndarray):
        order = np.argsort(values, kind="stable")
        self.values = values[order]
        self.log_pmf = log_pmf[order]
        with np.errstate(divide="ignore"):
            self._suffix = np.logaddexp.accumulate(self.log_pmf[::-1])[::-1]

    def log_tail_geq(self, t: float) -> float:
        i = np.searchsorted(self.values, t, side="left")
        return float(self._suffix[i]) if i < self.values.size else -math.inf

    def log_tail_gt(self, t: float) -> float:
        i = np.searchsorted(self.values, t, side="right")
        return float(self._suffix[i]) if i < self.values.size else -math.inf

    def log_mass_eq(self, t: float) -> float:
        lo = np.searchsorted(self.values, t, side="left")
        hi = np.searchsorted(self.values, t, side="right")
        if hi == lo:
            return -math.inf
        return float(np.logaddexp.reduce(self.log_pmf[lo:hi]))


def _composition_lattice(m: int, col_values: np.ndarray, col_logp: np.ndarray,
                         companion: np.ndarray | None = None):
    """Distribution of the sum of m i.i.d. draws from a finite value set,
    enumerated over occupancy vectors with multinomial weights.  The size
    is checked against the guard before any vector is built."""
    k = col_values.size
    if count_types(k, m) > LATTICE_GUARD:
        raise CodebookTooLarge("per-group composition lattice exceeds the guard")
    counts = type_array(k, m)
    with np.errstate(invalid="ignore"):
        logw = np.where(counts > 0, counts * col_logp[None, :], 0.0)
    log_pmf = (gammaln(m + 1) - gammaln(counts + 1).sum(axis=1)) + logw.sum(axis=1)
    values = _masked_dot(counts, col_values)
    if companion is None:
        return values, log_pmf
    return values, log_pmf, counts @ companion


def _fold(values_a, logp_a, values_b, logp_b, extra_a=None, extra_b=None):
    """Outer sum of two independent lattices (values add, log-probs add)."""
    if values_a.size * values_b.size > LATTICE_GUARD:
        raise CodebookTooLarge(
            "conditional score lattice exceeds the guard; materialize instead"
        )
    v = (values_a[:, None] + values_b[None, :]).ravel()
    lp = (logp_a[:, None] + logp_b[None, :]).ravel()
    if extra_a is None:
        return v, lp
    e = (extra_a[:, None] + extra_b[None, :]).ravel()
    return v, lp, e


def _log_pow_one_minus(log_eps: float, log_m: float) -> float:
    """ln((1 - eps)^M) from ln(eps) and ln(M); exact for tiny eps even when
    M is far beyond integer range.  ln(1 - eps) splits at eps = 1/2
    (log1mexp, Maechler 2012) so eps within an ulp of 1 stays finite.  When
    M > e^MAX_LOG_CODEBOOK with eps > e^-30, or M*eps > e^MAX_LOG_CODEBOOK,
    the power is 0 to double precision and the result is -inf, where
    exp(log_m) would overflow."""
    if log_eps == -math.inf:
        return 0.0
    if log_eps >= 0.0:
        return -math.inf
    if log_eps > -30.0:
        if log_m > MAX_LOG_CODEBOOK:
            return -math.inf
        if log_eps > -_LN2:
            return math.exp(log_m) * math.log(-math.expm1(log_eps))
        return math.exp(log_m) * math.log1p(-math.exp(log_eps))
    return -math.exp(log_m + log_eps) if log_m + log_eps <= MAX_LOG_CODEBOOK else -math.inf


# --- channel coding -------------------------------------------------------------

def _column_signature(col: np.ndarray, probs: np.ndarray) -> tuple:
    return tuple(sorted((float(v), float(p)) for v, p in zip(col, probs) if p > 0))


class _ChannelConditional:
    """Per-output-type cache of the competitor score distribution.

    Scores are summed log likelihoods ln P(y|x).  The output-marginal term
    ln P_Y(y) of the information ratio is common to all codewords, so the
    threshold decoder adds it to its threshold instead.  When every output
    symbol induces the same score law on a random input symbol (true for
    symmetric channels with their capacity input), the per-output groups pool
    into a single lattice of size O(n).
    """

    def __init__(self, channel: Channel, input_dist: Distribution):
        self.rows = channel.rows
        self.p_in = input_dist.probs
        with np.errstate(divide="ignore"):
            self.g = np.where(self.rows > 0, np.log(self.rows), -np.inf)
            self.log_p_in = np.where(self.p_in > 0, np.log(self.p_in), -np.inf)
            self.log_p_out = np.log(self.p_in @ self.rows)
        sig0 = _column_signature(self.g[:, 0], self.p_in)
        self.mergeable = all(
            _column_signature(self.g[:, y], self.p_in) == sig0
            for y in range(1, self.rows.shape[1])
        )
        self._cache: dict[tuple, _Lattice] = {}

    def lattice(self, y_counts: tuple[int, ...]) -> _Lattice:
        key = ("merged", sum(y_counts)) if self.mergeable else y_counts
        if key in self._cache:
            return self._cache[key]
        if self.mergeable:
            v, lp = _composition_lattice(sum(y_counts), self.g[:, 0], self.log_p_in)
        else:
            v, lp = np.zeros(1), np.zeros(1)
            for y, m in enumerate(y_counts):
                if m == 0:
                    continue
                gv, glp = _composition_lattice(m, self.g[:, y], self.log_p_in)
                v, lp = _fold(v, lp, gv, glp)
        lat = _Lattice(v, lp)
        self._cache[key] = lat
        return lat

    def true_score(self, joint_counts: np.ndarray) -> float:
        """Transmitted codeword's score, computed with the same count-vector
        arithmetic as the lattice so exact-equality lookups are meaningful."""
        if self.mergeable:
            base = self.g[:, 0]
            total = np.zeros(base.size)
            for y in range(self.rows.shape[1]):
                col = self.g[:, y]
                for x in range(self.rows.shape[0]):
                    c = int(joint_counts[x, y])
                    if c == 0:
                        continue
                    total[int(np.nonzero(base == col[x])[0][0])] += c
            return float(_masked_dot(total[None, :], base)[0])
        score = 0.0
        for y in range(self.rows.shape[1]):
            counts = joint_counts[:, y].astype(float)
            if counts.sum() == 0:
                continue
            score += float(_masked_dot(counts[None, :], self.g[:, y])[0])
        return score


def simulate_channel_coding(channel: Channel, input_dist: Distribution, rate: float,
                            n: int, trials: int, decoder: str = "threshold",
                            rng: RngStream | None = None, *,
                            fresh_codebook: bool = True,
                            method: str = "auto",
                            ops_guard: int = OPS_GUARD) -> TrialReport:
    """Random-coding Monte Carlo through a memoryless channel.

    decoder:
      ``threshold``: an index passes iff its information ratio
      ln P(y|x_m) - ln P_Y(y) exceeds n*rate, with P_Y the output marginal
      of the input distribution through the channel.  The transmitted index
      succeeds iff it passes and no other index does (Feinstein's rule).
      ``ml``: argmax log likelihood with uniform tie-break.

    method ``auto`` materializes codebooks while N_m*n*trials fits the guard,
    otherwise switches to the exact conditional form (fresh codebooks only).
    """
    if rng is None:
        raise ValueError("an RngStream is required")
    if decoder not in ("threshold", "ml"):
        raise ValueError("decoder must be 'threshold' or 'ml'")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if channel.input_size != input_dist.alphabet_size:
        raise DimensionMismatch("input distribution does not match the channel")
    log_m = log_codebook_size(rate, n)
    if log_m < _LN2:
        raise ValueError("codebook needs at least 2 rows; raise rate or n")

    if _resolve_method(method, log_m, n, trials, ops_guard) == "materialize":
        return _channel_materialized(channel, input_dist, rate, n, trials,
                                     decoder, rng, fresh_codebook, codebook_size(rate, n))
    if not fresh_codebook:
        raise CodebookTooLarge("fixed-codebook runs require materialization")
    return _channel_conditional(channel, input_dist, rate, n, trials, decoder, rng, log_m)


def _resolve_method(method: str, log_m: float, n: int, trials: int, ops_guard: int) -> str:
    """``materialize`` or ``conditional``.  A materialized run costs
    N_m*n*trials operations; that count is compared with the guard in log
    space, so N_m need not exist as a number."""
    budget = ops_guard / (n * trials)
    fits = budget > 0 and log_m <= math.log(budget)
    if method == "auto":
        return "materialize" if fits else "conditional"
    if method == "materialize" and not fits:
        raise CodebookTooLarge(
            f"materialized run needs ~e^{log_m + math.log(n * trials):.1f} operations"
            f" (guard {ops_guard:.0e})"
        )
    if method not in ("materialize", "conditional"):
        raise ValueError("method must be 'auto', 'materialize', or 'conditional'")
    return method


def _channel_materialized(channel, input_dist, rate, n, trials, decoder, rng,
                          fresh_codebook, n_m) -> TrialReport:
    rows = channel.rows
    p_in = input_dist.probs
    with np.errstate(divide="ignore"):
        log_rows = np.where(rows > 0, np.log(rows), -np.inf)
        log_p_out = np.log(p_in @ rows)
    fixed_words = None
    if not fresh_codebook:
        fixed_words = rng.substream(2**31).generator().choice(
            p_in.size, size=(n_m, n), p=p_in)
    successes = 0
    for i in range(trials):
        gen = rng.substream(i).generator()
        words = fixed_words if fixed_words is not None else gen.choice(
            p_in.size, size=(n_m, n), p=p_in)
        m = int(gen.integers(n_m))
        y = _sample_rows(rows, words[m], gen)
        picked = log_rows[words, y[None, :]]
        with np.errstate(invalid="ignore"):
            scores = np.where(np.isneginf(picked).any(axis=1), -np.inf,
                              np.where(np.isfinite(picked), picked, 0.0).sum(axis=1))
        s_true = scores[m]
        others = np.delete(scores, m)
        top = others.max() if others.size else -math.inf
        if not np.isfinite(s_true):
            continue
        if decoder == "threshold":
            thresh = n * rate + float(log_p_out[y].sum())
            successes += bool(s_true > thresh and not top > thresh)
        else:
            if s_true > top:
                successes += 1
            elif s_true == top:
                ties = 1 + int(np.count_nonzero(others == top))
                successes += bool(gen.random() < 1.0 / ties)
    return _report(successes, trials, rng)


def _channel_conditional(channel, input_dist, rate, n, trials, decoder, rng, log_m) -> TrialReport:
    cond = _ChannelConditional(channel, input_dist)
    # ln(N_m - 1) rivals, from the integer size wherever it exists
    log_rivals = (math.log(codebook_size(rate, n) - 1) if n * rate <= MAX_LOG_CODEBOOK
                  else log_m)
    rows = channel.rows
    p_in = input_dist.probs

    def draw(gen, size):
        # input type, then each input row's outputs: the joint (x, y) type
        return gen.multinomial(gen.multinomial(n, p_in, size=size), rows)

    def p_win(key: tuple) -> float:
        joint_counts = np.array(key).reshape(rows.shape)
        y_counts = joint_counts.sum(axis=0)
        lat = cond.lattice(tuple(int(c) for c in y_counts))
        s_true = cond.true_score(joint_counts)
        if decoder == "ml":
            return _ml_win_probability(lat, s_true, log_m, log_rivals)
        # the sent word passes, and none of the N_m - 1 rivals does
        thresh = n * rate + float(_masked_dot(y_counts[None, :], cond.log_p_out)[0])
        if not s_true > thresh:
            return 0.0
        return math.exp(_log_pow_one_minus(lat.log_tail_gt(thresh), log_rivals))

    return _type_trials(trials, rng, draw, p_win)


def _ml_win_probability(lat: _Lattice, s_true: float, log_nm: float,
                        log_rivals: float) -> float:
    """Chance that the transmitted word wins the argmax with uniform
    tie-break against N_m - 1 rivals.  With g = P(a rival scores higher) and
    e = P(a rival ties), summing over the number k of tying rivals,

        sum_k C(N_m-1, k) e^k (1-g-e)^(N_m-1-k) / (k+1)
          = (1-g)^(N_m-1) (1 - (1-q)^N_m) / (N_m q),   q = e / (1-g).

    The last factor is 1 - O(N_m q), so it is 1 to double precision once
    N_m q < e^-30; above that both of its parts are computed from ln q
    without cancellation."""
    log_gt = lat.log_tail_gt(s_true)
    log_win = _log_pow_one_minus(log_gt, log_rivals)
    if log_win == -math.inf:
        return 0.0
    log_q = lat.log_mass_eq(s_true) - _log_pow_one_minus(log_gt, 0.0)
    if log_nm + log_q < -30.0:
        return math.exp(log_win)
    covered = -math.expm1(_log_pow_one_minus(log_q, log_nm))
    return math.exp(log_win + math.log(covered) - log_nm - log_q)


# --- rate-distortion --------------------------------------------------------------

class _DistortionConditional:
    """One random codeword's (score, distortion) law given the source type."""

    def __init__(self, source: Distribution, test_channel: Channel, d: np.ndarray):
        if test_channel.input_size != source.alphabet_size:
            raise DimensionMismatch("test channel does not match the source")
        self.q_hat = source.probs @ test_channel.rows
        if np.any(self.q_hat <= 0):
            raise DegenerateMarginal("reproduction marginal has a zero entry")
        joint = source.probs[:, None] * test_channel.rows  # (x, x_hat)
        with np.errstate(divide="ignore"):
            # score of reproduction symbol against source symbol; the common
            # source-block terms cancel in pairwise comparisons
            self.g = np.where(joint.T > 0,
                              np.log(joint.T) - np.log(self.q_hat)[:, None],
                              -np.inf)  # (x_hat, x)
            self.log_q_hat = np.log(self.q_hat)
        self.d = np.asarray(d, dtype=float)

    def law(self, x_counts: tuple[int, ...]):
        v, lp, dist = np.zeros(1), np.zeros(1), np.zeros(1)
        for x, m in enumerate(x_counts):
            if m == 0:
                continue
            gv, glp, gd = _composition_lattice(m, self.g[:, x], self.log_q_hat,
                                               companion=self.d[x, :])
            v, lp, dist = _fold(v, lp, gv, glp, extra_a=dist, extra_b=gd)
        return v, lp, dist


def _rd_fail_probability(values, log_pmf, dist_totals, budget: float,
                         margin: float, log_nm: float) -> float:
    """P(no codeword both meets the budget and clears the pairwise margin).

    Success happens iff the best budget-meeting codeword scores above the
    best non-meeting codeword minus the margin.  Failure decomposes over the
    location v of the non-meeting maximum:
      P(fail) = sum_v [ G(v)^Nm - G(v-)^Nm ],
    where G(v) is the per-codeword chance of landing in
    (non-meeting, score <= v) or (meeting, score <= v - margin), and G(v-)
    uses a strict inequality at v.  Complement masses are accumulated in log
    scale so powers with astronomically large Nm stay exact.
    """
    meet = dist_totals <= budget
    if not np.any(~meet):
        return 0.0  # every codeword meets the budget; the top one passes
    lat_meet = _Lattice(values[meet], log_pmf[meet]) if np.any(meet) else None
    lat_not = _Lattice(values[~meet], log_pmf[~meet])

    def meet_above(t: float) -> float:
        return lat_meet.log_tail_gt(t) if lat_meet is not None else -math.inf

    p_fail = 0.0
    for v in np.unique(lat_not.values):
        log_meet_gt = meet_above(v - margin)
        eps1 = np.logaddexp(lat_not.log_tail_gt(v), log_meet_gt)
        eps0 = np.logaddexp(lat_not.log_tail_geq(v), log_meet_gt)
        p_fail += math.exp(_log_pow_one_minus(eps1, log_nm)) \
            - math.exp(_log_pow_one_minus(eps0, log_nm))
    return min(max(p_fail, 0.0), 1.0)


def simulate_rate_distortion(source: Distribution, test_channel: Channel, d, D: float,
                             rate: float, n: int, trials: int,
                             rng: RngStream | None = None, *,
                             method: str = "auto",
                             ops_guard: int = OPS_GUARD) -> TrialReport:
    """Covering Monte Carlo for distortion coding.

    Each trial draws a source block and a fresh codebook i.i.d. from the
    reproduction marginal of source * test_channel.  The trial succeeds iff
    some codeword passes the pairwise score margins at the given rate and its
    average distortion against the block is at most D.
    """
    if rng is None:
        raise ValueError("an RngStream is required")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    d = _validate_distortion_matrix(source, d)
    if D < 0:
        raise ValueError("D must be non-negative")
    cond = _DistortionConditional(source, test_channel, d)
    log_m = log_codebook_size(rate, n)
    if log_m < _LN2:
        raise ValueError("codebook needs at least 2 rows; raise rate or n")
    budget = n * D + 1e-9 * max(1.0, n * D)
    margin = n * rate

    if _resolve_method(method, log_m, n, trials, ops_guard) == "materialize":
        return _rd_materialized(source, cond, d, budget, margin, n, trials, rng,
                                codebook_size(rate, n))
    return _rd_conditional(source, cond, budget, margin, n, trials, rng, log_m)


def _rd_materialized(source, cond, d, budget, margin, n, trials, rng, n_m) -> TrialReport:
    p = source.probs
    successes = 0
    for i in range(trials):
        gen = rng.substream(i).generator()
        x = gen.choice(p.size, size=n, p=p)
        words = gen.choice(cond.q_hat.size, size=(n_m, n), p=cond.q_hat)
        picked = cond.g[words, x[None, :]]
        with np.errstate(invalid="ignore"):
            scores = np.where(np.isneginf(picked).any(axis=1), -np.inf,
                              np.where(np.isfinite(picked), picked, 0.0).sum(axis=1))
        dists = d[x[None, :], words].sum(axis=1)
        meets = dists <= budget
        if not np.any(meets):
            continue
        s_w = scores[meets].max()
        s_n = scores[~meets].max() if np.any(~meets) else -math.inf
        if s_n == -math.inf:
            successes += bool(s_w > -math.inf)
        else:
            successes += bool(s_w > s_n - margin)
    return _report(successes, trials, rng)


def _rd_conditional(source, cond, budget, margin, n, trials, rng, log_m) -> TrialReport:
    def p_cover(key: tuple) -> float:
        return 1.0 - _rd_fail_probability(*cond.law(key), budget, margin, log_m)

    return _type_trials(trials, rng,
                        lambda gen, size: gen.multinomial(n, source.probs, size=size), p_cover)

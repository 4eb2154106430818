"""Protocol simulators: against exact oracles, across both execution paths,
and for reproducibility."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ptshannon import (
    Channel,
    RngStream,
    SourceCodingSetup,
    binary_symmetric_channel,
    capacity,
    codebook_size,
    entropy,
    hamming_distortion,
    make_distribution,
    rate_distortion,
    simulate_channel_coding,
    simulate_rate_distortion,
    simulate_source_coding,
    source_coding_exact_psuc,
    uniform_distribution,
)
from ptshannon import simulate
from ptshannon.coding import log_info_ratio
from ptshannon.errors import (
    CodebookTooLarge,
    InfeasibleDistortion,
    InvalidParameter,
    PtShannonError,
)
from ptshannon.simulate import (
    LATTICE_GUARD,
    TRIAL_BLOCK,
    _LOW,
    _TAIL,
    _cdf,
    _Codebook,
    _largest_lattice,
    _log_mass,
    _log_pow_one_minus,
    _rd_fail_probability,
    _resolve_method,
    _Sampler,
    _ScoreLaw,
    _sorted_tail,
    _win_probability,
)
from ptshannon.type_classes import _masked_dot, count_types, type_array

import oracles
from oracles import binary_rd_success, bsc_exact_success, dmc_exact_success

# Z channel: input 0 is received intact, so ln W holds -inf
Z_ROWS = [[1.0, 0.0], [0.3, 0.7]]
BEC_ROWS = [[0.8, 0.2, 0.0], [0.0, 0.2, 0.8]]
# asymmetric channel whose output marginal is far from uniform
ASYM_ROWS = [[0.8, 0.15, 0.05], [0.2, 0.7, 0.1], [0.3, 0.3, 0.4]]
ASYM_INPUT = [0.6, 0.3, 0.1]
TERNARY_SYMMETRIC_ROWS = [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]]
# the benchmark's asymmetric 3x3 channel
CHANNEL_3X3 = [[0.73, 0.17, 0.10], [0.13, 0.79, 0.08], [0.29, 0.23, 0.48]]
# (channel, input, largest n drawn) for the property tests
SMALL_CHANNELS = {
    "bsc": (binary_symmetric_channel(0.11), uniform_distribution(2), 30),
    "3x3": (Channel(np.array(ASYM_ROWS)), make_distribution(ASYM_INPUT), 12),
}


@st.composite
def small_channel_runs(draw, rates: int = 1):
    """A small channel, a block length, ``rates`` sorted rates with at least
    two codewords each, and a seed."""
    ch, p_in, n_max = SMALL_CHANNELS[draw(st.sampled_from(sorted(SMALL_CHANNELS)))]
    n = draw(st.integers(4, n_max))
    rate_list = sorted(draw(st.lists(st.floats(0.7 / n, 0.6), min_size=rates,
                                     max_size=rates)))
    return ch, p_in, n, rate_list, draw(st.integers(0, 2**32))


@st.composite
def circulant_rows(draw):
    """Rows of a circulant channel on 2 to 7 symbols: row k is row 0 rolled
    by k, and row 0 a Dirichlet draw with some entries set to 0."""
    m = draw(st.integers(2, 7))
    w = np.random.default_rng(draw(st.integers(0, 2**32))).dirichlet(np.ones(m))
    w[draw(st.lists(st.integers(0, m - 1), max_size=m - 1))] = 0.0
    w /= w.sum()
    return np.array([np.roll(w, k) for k in range(m)])


class _Built(Exception):
    """Carries the score law a simulator built, out of the simulator."""


def _law_of(run) -> _ScoreLaw:
    """The score law ``run()`` builds, taken before any work is done with it."""
    def build(*args):
        raise _Built(_ScoreLaw(*args))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_ScoreLaw", build)
        with pytest.raises(_Built) as built:
            run()
    return built.value.args[0]


# --- source coding ------------------------------------------------------------------

def test_source_simulation_saturates():
    src = make_distribution([0.9, 0.1])
    rate = -math.log(0.1) + 0.01  # above the costliest block
    rep = simulate_source_coding(SourceCodingSetup(src, rate, 40), 500, RngStream(1))
    assert rep.p_hat == 1.0 and rep.successes == rep.trials == 500


def test_source_simulation_deterministic():
    setup = SourceCodingSetup(make_distribution([0.9, 0.1]), 0.33, 200)
    a = simulate_source_coding(setup, 1500, RngStream(99))
    b = simulate_source_coding(setup, 1500, RngStream(99))
    assert a == b
    c = simulate_source_coding(setup, 1500, RngStream(100))
    assert c.successes != a.successes or c.p_hat == a.p_hat


def test_source_simulation_tracks_exact():
    setup = SourceCodingSetup(make_distribution([0.9, 0.1]), 0.5, 400)
    exact = source_coding_exact_psuc(setup)
    rep = simulate_source_coding(setup, 10_000, RngStream(42))
    sigma = max(rep.ci95_halfwidth / 1.96, 1e-4)
    assert abs(rep.p_hat - exact) <= 3 * sigma


def test_source_simulation_universal_mode():
    src = make_distribution([0.9, 0.1])
    setup = SourceCodingSetup(src, entropy(src) + 0.05, 300, "universal")
    exact = source_coding_exact_psuc(setup)
    rep = simulate_source_coding(setup, 6000, RngStream(7))
    assert abs(rep.p_hat - exact) <= 3 * rep.ci95_halfwidth / 1.96 + 1e-3


def test_source_simulation_calibration():
    """|p_hat - exact| within 3 reported CI half-widths in >= 95 of 100
    seeded repetitions."""
    setup = SourceCodingSetup(make_distribution([0.9, 0.1]), 0.33, 50)
    exact = source_coding_exact_psuc(setup)
    hits = 0
    for rep_idx in range(100):
        rep = simulate_source_coding(setup, 1000, RngStream(1234 + rep_idx))
        hits += abs(rep.p_hat - exact) <= 3 * rep.ci95_halfwidth
    assert hits >= 95


# --- channel coding --------------------------------------------------------------------

def test_channel_paths_match_exact_oracle():
    ch = binary_symmetric_channel(0.11)
    u = uniform_distribution(2)
    n, rate, trials = 18, 0.35, 6000
    for decoder in ("threshold", "ml"):
        oracle = bsc_exact_success(n, rate, 0.11, decoder)
        for method in ("materialize", "conditional"):
            rep = simulate_channel_coding(ch, u, rate, n, trials, decoder,
                                          RngStream(17), method=method)
            sigma = math.sqrt(max(oracle * (1 - oracle), 1e-6) / trials)
            assert abs(rep.p_hat - oracle) <= 4 * sigma, (decoder, method)


class _RawBits:
    """Generator stub: its raw Philox words are ``words`` and then all ones,
    its sent index is 0 and its every uniform (2^53 - 1) 2^-53, the largest.
    ``drawn`` counts the raw words read."""

    def __init__(self, words=()):
        self.bit_generator = self
        self.words = np.asarray(words, dtype=np.uint64)
        self.drawn = 0

    def random_raw(self, size):
        out = np.full(size, 2**64 - 1, dtype=np.uint64)
        served = self.words[self.drawn:self.drawn + size]
        out[:served.size] = served
        self.drawn += size
        return out

    def integers(self, high):
        return 0

    def random(self):
        return 1 - 2.0**-53


def _packed(prefix: np.ndarray) -> np.ndarray:
    """The raw words whose 16-bit prefixes, four to a word, low bits first,
    are ``prefix`` in row order."""
    flat = np.asarray(prefix, dtype="<u2").reshape(-1)
    return np.pad(flat, (0, -flat.size % 4)).view("<u8").astype(np.uint64)


def _raw_words_of(k: np.ndarray, cdf: np.ndarray) -> tuple:
    """The raw words from which the sampler reads the 53-bit uniforms ``k``
    under one law: their prefixes, then the tail of each entry whose prefix
    is the prefix of a cut with low bits, in order; and those entries."""
    cuts = np.ceil(np.ldexp(cdf, 53)).astype(np.int64)
    tops = cuts[cuts & _LOW != 0] >> _TAIL
    straddling = np.flatnonzero(np.isin(k >> _TAIL, tops))
    tails = (k[straddling] & _LOW).astype(np.uint64) << np.uint64(64 - _TAIL)
    return np.concatenate([_packed(k >> _TAIL), tails]), straddling


@given(st.lists(st.floats(0, 1) | st.just(0.0), min_size=1, max_size=6)
       .filter(lambda w: sum(w) > 0),
       st.integers(1, 12), st.integers(0, 2**32))
@example([0.0, 1.0, 0.0], 7, 0)
@example([1.0], 6, 0)
def test_draw_equals_generator_choice_at_the_same_uniforms(weights, n, seed):
    """Fed the 53-bit k that ``Generator.choice`` reads, u = k 2^-53, the
    sampler draws choice's symbols, zero-mass symbols included, with the
    same dtype, reading exactly its prefixes and one tail per straddling
    entry."""
    p = make_distribution(weights).probs
    want = RngStream(seed).generator().choice(p.size, size=n, p=p)
    k = (RngStream(seed).generator().bit_generator.random_raw(n) >> np.uint64(11)).astype(np.int64)
    words, straddling = _raw_words_of(k, _cdf(p))
    bits = _RawBits(words)
    got = _Sampler(_cdf(p)).draw(bits, n)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert bits.drawn == words.size


# the thresholds of the laws whose every prefix the exact-law test walks
EXACT_LAW_CDFS = {
    "zero-mass": [0.3, 0.3],  # (0.3, 0, 0.7): equal thresholds
    "cdf-0": [0.0, 0.5],  # (0, 0.5, 0.5)
    "cdf-1": [0.5, 1.0],  # (0.5, 0.5, 0): K = 2^53, which no k reaches
    "dyadic": [0.25, 0.5, 0.75],
    # one ulp on either side of the prefix boundaries at 1/2 and at 1, and a
    # threshold below the first boundary, 2^-16
    "ulp": [1e-12, np.nextafter(0.5, 0), np.nextafter(0.5, 1), np.nextafter(1, 0)],
    "0.6-0.3-0.1": _cdf(np.array([0.6, 0.3, 0.1])).tolist(),
}


@pytest.mark.parametrize("name", sorted(EXACT_LAW_CDFS))
def test_sampler_law_is_generator_choice_law(name):
    """For every 16-bit prefix, at both ends of its window of k and at
    K - 1 and K for every cut K inside it, the sampler's symbol is the count
    of thresholds at or below u = k 2^-53, as ``Generator.choice`` counts
    them.  The sampler's symbol is a monotone step function of k that steps
    only at window starts and cuts, and so is choice's, so the two agree at
    all 2^53 values of k and the laws are equal.  Checked for block draws under one law
    and under one law per position, and for a codebook word and its score.
    A law of dyadic cuts reads no tail; every straddling entry reads one."""
    cdf = np.array(EXACT_LAW_CDFS[name])
    cuts = np.ceil(np.ldexp(cdf, 53)).astype(np.int64)
    starts = np.arange(2**16, dtype=np.int64) << _TAIL
    inside = cuts[cuts < 2**53]
    k = np.unique(np.concatenate([starts, starts + _LOW, inside, inside[inside > 0] - 1]))
    want = np.searchsorted(cdf, k * 2.0**-53, side="right")
    words, straddling = _raw_words_of(k, cdf)
    assert (straddling.size == 0) == (name in ("cdf-0", "cdf-1", "dyadic"))
    per_position = _Sampler(np.repeat(cdf[None], 2, axis=0))
    for sampler, given in ((_Sampler(cdf), None), (per_position, k % 2)):
        bits = _RawBits(words)
        assert np.array_equal(sampler.draw(bits, k.size, given), want), given
        assert bits.drawn == words.size
    levels = np.arange(cdf.size + 1.0)  # symbol a scores a, so a word scores its symbol sum
    law = _ScoreLaw(levels[:, None], np.zeros(cdf.size + 1))
    book = _Codebook(law, _Sampler(cdf), 1, k.size)
    bits = _RawBits(words)
    book.draw(bits)
    assert bits.drawn == words.size
    assert np.array_equal(book.word(0), want)
    assert book.sums(np.zeros(k.size, dtype=np.int64))[0][0] == want.sum()


def _masked_scores(g: np.ndarray, words: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Reference literal scores: -inf where a term is, else the sum of the
    finite terms."""
    picked = g[words, block[None, :]]
    return np.where(np.isneginf(picked).any(axis=1), -np.inf,
                    np.where(np.isfinite(picked), picked, 0.0).sum(axis=1))


def _codebook(rows, p_in, prefix: np.ndarray) -> _Codebook:
    """The literal channel codebook on input law ``p_in`` whose uniforms have
    the 16-bit prefixes ``prefix``, and every tail of all ones."""
    with np.errstate(divide="ignore"):
        law = _ScoreLaw(np.log(rows), np.log(p_in))
    book = _Codebook(law, _Sampler(_cdf(p_in)), *prefix.shape)
    book.draw(_RawBits(_packed(prefix)))
    return book


@pytest.mark.parametrize("rows", [Z_ROWS, BEC_ROWS], ids=["z", "bec"])
def test_literal_scores_equal_masked_sum(rows):
    """The atom-count scores are -inf exactly where the masked reference is
    and agree with it elsewhere, on channels whose ln W holds -inf.  The
    block is the channel's output for the first word, so that word scores
    finite, and most rivals -inf."""
    rows = np.array(rows)
    with np.errstate(divide="ignore"):
        g = np.log(rows)
    k = rows.shape[0]
    gen = RngStream(3).generator()
    for n in (1, 5, 17):
        words = gen.integers(k, size=(300, n))
        block = np.array([gen.choice(rows.shape[1], p=rows[x]) for x in words[0]])
        want = _masked_scores(g, words, block)
        # the prefixes mid-way through each word symbol's share of a uniform input
        book = _codebook(rows, np.full(k, 1 / k), (2 * words + 1) * 2**15 // k)
        assert np.array_equal([book.word(m) for m in range(300)], words)
        got = book.sums(block)[0]
        assert np.array_equal(np.isneginf(got), np.isneginf(want))
        finite = np.isfinite(want)
        assert got[finite] == pytest.approx(want[finite], rel=1e-12, abs=0)
        assert finite[0] and not finite.all(), n


def test_literal_scores_of_equally_likely_words_tie_exactly():
    """On BSC(0.11) with y = 0^24, the words with ones at {0, 1} and at
    {22, 23} are equally likely.  Summed in position order their scores
    differ in the last bit (-6.978293784010376 against -6.978293784010375),
    which would break an ML tie by rounding; from atom counts they are the
    same float."""
    n = 24
    prefix = np.full((2, n), 0x4000)  # symbol 0 below the threshold 1/2, 1 above
    prefix[0, [0, 1]] = prefix[1, [22, 23]] = 0xC000
    book = _codebook(np.array(BSC_11), np.array([0.5, 0.5]), prefix)
    a, b = book.sums(np.zeros(n, np.int64))[0]
    assert a == b == pytest.approx(2 * math.log(0.11) + 22 * math.log(0.89), rel=1e-15)


def test_literal_z_channel_matches_exact_oracle():
    """The literal path on a Z channel, where ln W holds -inf, against the
    exact joint-type sum; a numpy warning on the way fails the test."""
    n, rate, trials = 12, 0.3, 2000
    for decoder in ("threshold", "ml"):
        exact = dmc_exact_success(Z_ROWS, [0.5, 0.5], rate, n, decoder)
        assert 0.2 < exact < 0.8
        rep = simulate_channel_coding(Channel(np.array(Z_ROWS)), uniform_distribution(2), rate,
                                      n, trials, decoder, RngStream(19), method="materialize")
        assert abs(rep.p_hat - exact) <= 3 * math.sqrt(exact * (1 - exact) / trials), decoder


def test_channel_threshold_paths_agree_with_nonuniform_output():
    """Asymmetric channel whose output marginal is far from uniform, so the
    ln P_Y(y) term of the information ratio moves the threshold per block."""
    ch = Channel(np.array(ASYM_ROWS))
    p_in = make_distribution(ASYM_INPUT)
    a, b = (simulate_channel_coding(ch, p_in, 0.2, 12, 2000, "threshold",
                                    RngStream(5), method=method)
            for method in ("materialize", "conditional"))
    noise = 3 * math.hypot(a.ci95_halfwidth, b.ci95_halfwidth) / 1.96
    assert abs(a.p_hat - b.p_hat) <= noise
    assert 0.2 < a.p_hat < 0.8  # the threshold decides a real fraction


def test_dmc_oracle_reduces_to_bsc_oracle():
    """(100, 0.15) is past the point where N_m P(tie) is tiny, where a plain
    difference of powers in the binomial ML sum cancels to 0.54 of 0.9999."""
    for n, rate in ((10, 0.3), (18, 0.35), (100, 0.15)):
        for decoder in ("threshold", "ml"):
            assert dmc_exact_success([[0.89, 0.11], [0.11, 0.89]], [0.5, 0.5], rate, n,
                                     decoder) == pytest.approx(
                bsc_exact_success(n, rate, 0.11, decoder), rel=1e-12)


def test_conditional_ml_past_tie_cutoff_matches_exact_oracle(monkeypatch):
    """ML on the conditional path over BSC(0.11) at n = 1000, near capacity,
    against the exact binomial sum.  Many of the decoder's questions there
    have N_m q < e^-30 (q = P(tie) / (1 - P(beaten))), where
    `_win_probability` drops its tie factor; the test checks that this
    branch and the other one are both taken, over the entries of its
    array calls."""
    below = []

    def spy(log_gt, log_eq, log_nm, log_rivals):
        below.extend((log_nm + log_eq - _log_pow_one_minus(log_gt, 0.0) < -30.0).tolist())
        return _win_probability(log_gt, log_eq, log_nm, log_rivals)

    monkeypatch.setattr(simulate, "_win_probability", spy)
    n, rate, trials = 1000, 0.3259, 10_000
    exact = bsc_exact_success(n, rate, 0.11, "ml")
    rep = simulate_channel_coding(binary_symmetric_channel(0.11), uniform_distribution(2),
                                  rate, n, trials, "ml", RngStream(23), method="conditional")
    assert abs(rep.p_hat - exact) <= 3 * math.sqrt(exact * (1 - exact) / trials)
    assert any(below) and not all(below)


def test_channel_paths_match_exact_dmc_oracle():
    """Both paths of both decoders on the asymmetric channel, against the
    exact joint-type sum."""
    ch, p_in = Channel(np.array(ASYM_ROWS)), make_distribution(ASYM_INPUT)
    n, rate, trials = 12, 0.2, 2000
    for decoder in ("threshold", "ml"):
        exact = dmc_exact_success(ASYM_ROWS, ASYM_INPUT, rate, n, decoder)
        assert 0.2 < exact < 0.8
        sigma = math.sqrt(exact * (1 - exact) / trials)
        for method in ("materialize", "conditional"):
            rep = simulate_channel_coding(ch, p_in, rate, n, trials, decoder,
                                          RngStream(5), method=method)
            assert abs(rep.p_hat - exact) <= 3 * sigma, (decoder, method)


@pytest.mark.parametrize("rows, p_in", [
    ([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]], [1 / 3, 1 / 3, 1 / 3]),
    ([[0.8, 0.2, 0.0], [0.0, 0.2, 0.8]], [0.5, 0.5]),
], ids=["ternary-symmetric", "bec"])
def test_pooled_channels_match_exact_dmc_oracle(rows, p_in):
    """Channels whose output symbols pool: a ternary symmetric channel (one
    group of 2 atoms) and BEC(0.2) (the erasure column has one atom, the
    other two pool into one group with a -inf atom).  Both decoders on the
    conditional path, against the exact joint-type sum."""
    n, rate, trials = 12, 0.3, 3000
    for decoder in ("threshold", "ml"):
        exact = dmc_exact_success(rows, p_in, rate, n, decoder)
        rep = simulate_channel_coding(Channel(np.array(rows)), make_distribution(p_in), rate,
                                      n, trials, decoder, RngStream(13), method="conditional")
        assert abs(rep.p_hat - exact) <= 3 * math.sqrt(exact * (1 - exact) / trials), decoder


@pytest.mark.parametrize("rows", [TERNARY_SYMMETRIC_ROWS, ASYM_ROWS],
                         ids=["ternary-symmetric", "3x3"])
def test_sent_score_is_a_lattice_point(rows):
    """For every joint type at n = 5, all scored in one call, the sent
    word's score is one of the rival lattice's own points, bit for bit, so
    ML finds its tie mass.  The ternary symmetric channel repeats ln 0.1
    within each column; that value is one atom, summed once."""
    rows = np.array(rows)
    law = _ScoreLaw(np.log(rows), np.log(np.full(3, 1 / 3)))
    joints = type_array(9, 5).reshape(-1, 3, 3)
    for joint, score in zip(joints, law.score(joints), strict=True):
        values, log_pmf = law.lattice(law.key(joint.sum(axis=0)))
        assert _log_mass(log_pmf, values == score) > -math.inf


def _score_per_type(law: _ScoreLaw, joint: np.ndarray) -> float:
    """Reference score of one joint type: group by group, each group's
    atom counts by a weighted bincount, the scores added from 0.0 with the
    empty groups skipped."""
    score = 0.0
    for j, m in enumerate(law.key(joint.sum(axis=0))):
        if m:
            cols = law.group == j
            values = law.atoms[j][0]
            counts = np.bincount(law.atom[:, cols].ravel(), weights=joint[:, cols].ravel(),
                                 minlength=values.size)
            score += float(_masked_dot(counts[None, :], values)[0])
    return score


# (channel rows, input) whose score laws the batched score is checked on;
# Z and BEC hold -inf atoms
SCORED_CHANNELS = {
    "3x3": (ASYM_ROWS, ASYM_INPUT),
    "ternary-symmetric": (TERNARY_SYMMETRIC_ROWS, [1 / 3, 1 / 3, 1 / 3]),
    "z": (Z_ROWS, [0.5, 0.5]),
    "bec": (BEC_ROWS, [0.5, 0.5]),
}


@given(st.sampled_from(sorted(SCORED_CHANNELS)), st.data())
def test_batched_score_equals_per_type_reference(name, data):
    """One batched call scores a stack of joint types bit for bit as the
    per-type reference does, -inf scores included (counts on cells where
    ln W is -inf)."""
    rows, p_in = (np.array(x) for x in SCORED_CHANNELS[name])
    with np.errstate(divide="ignore"):
        law = _ScoreLaw(np.log(rows), np.log(p_in))
    cells = st.lists(st.integers(0, 12), min_size=rows.size, max_size=rows.size)
    joints = np.array(data.draw(st.lists(cells, min_size=1, max_size=12))).reshape(-1, *rows.shape)
    want = np.array([_score_per_type(law, joint) for joint in joints])
    got = law.score(joints)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [16, 20, 287])
def test_literal_threshold_is_the_conditional_threshold(n, monkeypatch):
    """On the 3x3 benchmark channel with input (0.6, 0.3, 0.1), the threshold
    decoder's ratio score of one joint type alone is bit for bit its row of
    a batch, for 2 000 random (word, block) pairs; summed in position order
    it differs from the batch on a good share of them.  A literal run scores
    each of its words against the one block of its trial bit for bit as
    ``law.score`` scores their joint types, and both paths compare that
    score with the same n*rate, so a literal word passes the threshold iff
    its joint type does."""
    rows, p_in = np.array(CHANNEL_3X3), np.array([0.6, 0.3, 0.1])
    channel, fed = Channel(rows), make_distribution(p_in)
    table = log_info_ratio(channel, fed)[0]
    law = _ScoreLaw(table, np.log(p_in))
    gen = RngStream(8).generator()
    outputs = _Sampler(_cdf(rows))
    words = _Sampler(_cdf(p_in)).draw(gen, 2000 * n).reshape(2000, n)
    blocks = np.stack([outputs.draw(gen, n, word) for word in words])
    joint = np.zeros((2000, *rows.shape), dtype=np.int64)
    np.add.at(joint, (np.arange(2000)[:, None], words, blocks), 1)
    batch = law.score(joint)
    alone = [law.score(one[None])[0] for one in joint]
    assert np.array(alone).tobytes() == batch.tobytes()
    positional = np.array([table[x, y].sum() for x, y in zip(words, blocks)])
    assert np.count_nonzero(positional != batch) > 100

    asked = []
    sums = _Codebook.sums

    def spy(book, block):
        got = sums(book, block)
        asked.append((block, got[0].copy(), book.law.score(_joint_types(book, block, rows.shape))))
        return got

    monkeypatch.setattr(simulate._Codebook, "sums", spy)
    simulate_channel_coding(channel, fed, 0.1, 16, 20, "threshold", RngStream(2),
                            method="materialize")
    assert len(asked) == 20
    assert all(block.size == 16 and got.tobytes() == want.tobytes() for block, got, want in asked)


# nine inputs into two outputs, every entry distinct: under a uniform input
# each output column is a group of 9 atoms, past the 8 contiguous terms that
# numpy starts to sum pairwise
WIDE_ROWS = np.random.default_rng(5).dirichlet([1.0, 1.0], size=9).tolist()
# and the threshold decoder's information-ratio law on the 3x3 benchmark
# channel, whose output marginal is far from uniform
RATIO_LAWS = {"3x3-ratio": (CHANNEL_3X3, [0.6, 0.3, 0.1])}
LITERAL_CHANNELS = {**SCORED_CHANNELS, "wide": (WIDE_ROWS, [1 / 9] * 9), **RATIO_LAWS}


def _joint_types(book: _Codebook, block: np.ndarray, shape: tuple) -> np.ndarray:
    """The joint (codeword, block) type of every word of a literal codebook."""
    words = np.array([book.word(m) for m in range(book.shape[0])])
    joint = np.zeros((words.shape[0], *shape), dtype=np.int64)
    np.add.at(joint, (np.arange(words.shape[0])[:, None], words, block[None, :]), 1)
    return joint


@pytest.mark.parametrize("name", sorted(LITERAL_CHANNELS))
def test_literal_word_scores_are_the_scores_of_their_joint_types(name):
    """Every literal word's score is bit for bit ``law.score`` of its joint
    type, -inf included: on laws of one and of three groups, on laws with
    -inf atoms, on one with groups of 9 atoms and on the threshold decoder's
    ratio law.  Both paths compare a threshold score with n*rate, so a
    literal word's threshold decision is its joint type's, bit for bit.
    The block is the channel's output for the first word, so that word
    scores finite."""
    rows, p_in = (np.array(x) for x in LITERAL_CHANNELS[name])
    with np.errstate(divide="ignore"):
        table = (log_info_ratio(Channel(rows), make_distribution(p_in))[0]
                 if name in RATIO_LAWS else np.log(rows))
        law = _ScoreLaw(table, np.log(p_in))
    gen = RngStream(5).generator()
    for n in (1, 6, 23):
        book = _Codebook(law, _Sampler(_cdf(p_in)), 300, n)
        book.draw(gen)
        block = _Sampler(_cdf(rows)).draw(gen, n, book.word(0))
        got = book.sums(block)[0]
        assert got.tobytes() == law.score(_joint_types(book, block, rows.shape)).tobytes()
        assert np.isfinite(got[0])


def test_literal_rd_words_are_lattice_points():
    """On the ternary Hamming source with ``rate_distortion``'s own test
    channel, every literal word's (score, distortion) equals a point of the
    lattice of the block's pooled type exactly."""
    src, d = make_distribution([0.5, 0.3, 0.2]), hamming_distortion(3)
    tc = rate_distortion(src, d, 0.15).optimal_test_channel
    ratio, q_hat = log_info_ratio(tc, src)
    law = _ScoreLaw(ratio.T, np.log(q_hat), d.T)
    gen = RngStream(6).generator()
    for n in (5, 12, 24):
        block = _Sampler(_cdf(src.probs)).draw(gen, n)
        book = _Codebook(law, _Sampler(_cdf(q_hat)), 200, n)
        book.draw(gen)
        values, _, dists = law.lattice(law.key(np.bincount(block, minlength=3)))
        points = set(zip(values.tolist(), dists.tolist()))
        words = list(zip(*(x.tolist() for x in book.sums(block))))
        assert sum(word not in points for word in words) == 0, n


def test_one_word_scores_alone_as_in_a_batch():
    """On the law with groups of 9 atoms, a word scored alone, by
    ``law.score`` or as a one-word codebook, gets the float it gets in a
    batch of 200.  Every fifth column's prefix straddles a cut, so those
    entries' counts move to the symbol their tail draws."""
    rows, p_in = (np.array(x) for x in LITERAL_CHANNELS["wide"])
    law = _ScoreLaw(np.log(rows), np.log(p_in))
    gen = RngStream(7).generator()
    n = 40
    prefix = gen.integers(2**16, size=(200, n))
    tops = _Sampler(_cdf(p_in)).tops
    prefix[:, ::5] = gen.choice(tops[tops >= 0], size=(200, n // 5))
    book = _codebook(rows, p_in, prefix)
    block = gen.integers(2, size=n)
    joints = _joint_types(book, block, rows.shape)
    assert law.score(joints).tobytes() == book.sums(block)[0].tobytes()
    for row, joint, score in zip(prefix, joints, book.sums(block)[0]):
        alone = _codebook(rows, p_in, row[None])
        assert (alone.sums(block)[0].tobytes() == law.score(joint[None]).tobytes()
                == score.tobytes())


def _sorted_tails(values: np.ndarray, log_pmf: np.ndarray, t: float) -> tuple:
    """Reference for ln P(score > t) and ln P(score >= t): sort the lattice
    stably, accumulate log masses from the top, look t up by bisection."""
    order = np.argsort(values, kind="stable")
    suffix = np.append(np.logaddexp.accumulate(log_pmf[order][::-1])[::-1], -np.inf)
    return (suffix[np.searchsorted(values[order], t, side="right")],
            suffix[np.searchsorted(values[order], t, side="left")])


@given(st.data())
def test_log_mass_matches_sorted_suffix(data):
    """Masked log-sum-exp tails equal the sorted suffix sums on lattices
    with repeated and -inf scores, single points, and masses spread over
    far more than e^745, so one shift for the whole lattice would
    underflow; the tie mass is -inf exactly when no point equals t."""
    size = data.draw(st.integers(1, 40))
    pool = data.draw(st.lists(st.floats(-50, 50) | st.just(-math.inf), min_size=1, max_size=6))
    values = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size)))
    log_pmf = np.array(data.draw(st.lists(st.floats(-1500, 0), min_size=size, max_size=size)))
    t = data.draw(st.sampled_from(pool) | st.floats(-60, 60) | st.just(-math.inf))
    want_gt, want_geq = _sorted_tails(values, log_pmf, t)
    assert _log_mass(log_pmf, values > t) == pytest.approx(want_gt, abs=1e-12)
    assert _log_mass(log_pmf, values >= t) == pytest.approx(want_geq, abs=1e-12)
    assert (_log_mass(log_pmf, values == t) == -math.inf) == (not np.any(values == t))


def test_log_mass_of_no_mass_is_minus_inf():
    """An empty selection, or one whose points all have mass 0, has log
    mass -inf, with no warning from shifting -inf by -inf."""
    log_pmf = np.array([-np.inf, -np.inf, 0.0])
    assert _log_mass(log_pmf, np.zeros(3, dtype=bool)) == -math.inf
    assert _log_mass(log_pmf, np.array([True, True, False])) == -math.inf
    assert _log_mass(log_pmf, np.ones(3, dtype=bool)) == 0.0


@given(st.data())
def test_sorted_tail_is_one_point_per_distinct_score(data):
    """The table holds each distinct score once, ascending, and its suffix
    entry is the mass at or above that score, against a brute-force fsum
    log-sum-exp, on scores from a small pool (many exact ties, -inf among
    them) with masses spread over far more than e^745 and some of mass 0.
    The tolerance is rel 1e-13, with abs 1e-14 where a total mass near 1
    makes its log cancel to near 0."""
    size = data.draw(st.integers(0, 40))
    pool = data.draw(st.lists(st.floats(-50, 50) | st.just(-math.inf), min_size=1, max_size=4))
    values = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size)),
                      dtype=float)
    log_pmf = np.array(data.draw(st.lists(st.floats(-1500, 0) | st.just(-math.inf),
                                          min_size=size, max_size=size)), dtype=float)
    distinct, suffix = _sorted_tail(values, log_pmf)
    assert distinct.tolist() == sorted(set(values.tolist()))
    assert suffix.size == distinct.size + 1 and suffix[-1] == -math.inf
    for v, got in zip(distinct.tolist(), suffix.tolist()):
        x = log_pmf[values >= v].tolist()
        top = max(x)
        want = -math.inf if top == -math.inf else top + math.log(
            math.fsum(math.exp(lp - top) for lp in x))
        assert got == pytest.approx(want, rel=1e-13, abs=1e-14), v


def test_sorted_tail_of_no_points():
    distinct, suffix = _sorted_tail(np.array([]), np.array([]))
    assert distinct.tolist() == [] and suffix.tolist() == [-math.inf]


@st.composite
def score_laws(draw, name: str):
    """A score law: Z or BEC (ln W holds -inf); a random ``channel`` of 2-3
    inputs and outputs with zero entries allowed, under a random input law;
    or a random score ``table`` with positive, tied and -inf entries and a
    companion, as rate-distortion's laws have."""
    fixed = {"z": (Z_ROWS, [0.5, 0.5]), "bec": (BEC_ROWS, [0.5, 0.5])}
    if name in fixed:
        rows, p_in = (np.array(x) for x in fixed[name])
    else:
        k, l = draw(st.integers(2, 3)), draw(st.integers(2, 3))
        p_in = np.array(draw(st.lists(st.integers(1, 4), min_size=k, max_size=k)), dtype=float)
        p_in /= p_in.sum()
    if name == "table":
        entry = st.sampled_from([-math.inf, -1.5, -0.25, 0.0, 0.5, 2.0])
        g = np.array(draw(st.lists(st.lists(entry, min_size=l, max_size=l),
                                   min_size=k, max_size=k)))
        extra = np.array(draw(st.lists(st.lists(st.integers(0, 2), min_size=l, max_size=l),
                                       min_size=k, max_size=k)), dtype=float)
        return _ScoreLaw(g, np.log(p_in), extra)
    if name == "channel":
        row = st.lists(st.integers(0, 5), min_size=l, max_size=l).map(lambda r: r if any(r)
                                                                      else [1] * l)
        rows = np.array(draw(st.lists(row, min_size=k, max_size=k)), dtype=float)
        rows /= rows.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore"):
        return _ScoreLaw(np.log(rows), np.log(p_in))


@pytest.mark.parametrize("name", ["channel", "table", "z", "bec"])
@given(st.data())
def test_pruned_lattice_is_the_full_lattice_above_its_floor(name, data):
    """A lattice folded with a floor is the full lattice masked by
    score >= floor, on every component and in the same order, and answers
    every tail question at or above the floor bit for bit as the full
    lattice does.  The floors are -inf, up to 13 lattice points from the
    lowest to the top, the values halfway between them, and one above the
    top; pooled counts are random."""
    law = data.draw(score_laws(name))
    groups = len(law.atoms)
    key = data.draw(st.lists(st.integers(0, 5), min_size=groups, max_size=groups))
    key[data.draw(st.integers(0, groups - 1))] += 1
    full = law.lattice(key)
    values = full[0]
    points = np.unique(values)
    points = np.unique(np.append(points[::-(-points.size // 12)], points[-1]))
    floors = [-math.inf, *points, *(points[:-1] + points[1:]) / 2, points[-1] + 1.0]
    for floor in floors:
        pruned = law.lattice(key, floor)
        keep = values >= floor
        assert len(pruned) == len(full)
        for got, want in zip(pruned, full):
            assert np.array_equal(got, want[keep])
        for q in (q for q in floors if q >= floor):
            for where in (np.greater, np.equal):
                assert (_log_mass(pruned[1], where(pruned[0], q))
                        == _log_mass(full[1], where(values, q)))


# BSC(0.11) capacity and dispersion, for a rate one standard deviation below
# capacity at n = 1800
BSC_CAPACITY = math.log(2) + 0.11 * math.log(0.11) + (1 - 0.11) * math.log(1 - 0.11)
BSC_DISPERSION = 0.11 * (1 - 0.11) * math.log((1 - 0.11) / 0.11) ** 2
# (channel rows, input, rate, n, trials, seed) -> successes (threshold, ml)
PINNED_CHANNEL_RUNS = [
    ([[0.89, 0.11], [0.11, 0.89]], [0.5, 0.5], 0.3, 250, 1000, 101, (857, 915)),
    ([[0.73, 0.17, 0.10], [0.13, 0.79, 0.08], [0.29, 0.23, 0.48]], [0.6, 0.3, 0.1],
     0.25, 16, 500, 102, (189, 339)),
    ([[0.93, 0.07], [0.19, 0.81]], [0.55, 0.45], 0.3, 40, 500, 103, (266, 366)),
    ([[0.73, 0.17, 0.10], [0.13, 0.79, 0.08], [0.29, 0.23, 0.48]], [0.6, 0.3, 0.1],
     0.25, 20, 400, 105, (151, 246)),
    ([[0.73, 0.17, 0.10], [0.13, 0.79, 0.08], [0.29, 0.23, 0.48]], [0.6, 0.3, 0.1],
     0.25, 24, 400, 106, (150, 257)),
    ([[0.93, 0.07], [0.19, 0.81]], [0.55, 0.45], 0.3, 400, 400, 107, (274, 320)),
    # the runs below span three trial blocks, so the kernel's per-run memo
    # and the lattice cache carry over from block to block
    ([[0.89, 0.11], [0.11, 0.89]], [0.5, 0.5],
     BSC_CAPACITY - math.sqrt(BSC_DISPERSION / 1800), 1800, 2500, 109, (2067, 2176)),
    # above capacity at n = 30, where ML success is dominated by ties
    ([[0.89, 0.11], [0.11, 0.89]], [0.5, 0.5], 0.4, 30, 2500, 110, (787, 1301)),
    # every output pools into one group whose atoms repeat ln 0.1
    (TERNARY_SYMMETRIC_ROWS, [1 / 3, 1 / 3, 1 / 3], 0.4, 30, 2500, 111, (1499, 1968)),
    # multi-group lattices pruned to the lowest score asked of them, over
    # several trial blocks; ml refolds pooled counts that a later block asks
    # below their cached floor
    ([[0.73, 0.17, 0.10], [0.13, 0.79, 0.08], [0.29, 0.23, 0.48]], [0.6, 0.3, 0.1],
     0.2, 12, 5000, 9, (2461, 3814)),
    ([[0.73, 0.17, 0.10], [0.13, 0.79, 0.08], [0.29, 0.23, 0.48]], [0.6, 0.3, 0.1],
     0.27, 20, 5000, 9, (1642, 2916)),
    ([[0.93, 0.07], [0.19, 0.81]], [0.55, 0.45], 0.3, 400, 3000, 4, (2067, 2335)),
]


@pytest.mark.parametrize("rows, p_in, rate, n, trials, seed, want", PINNED_CHANNEL_RUNS,
                         ids=["bsc", "3x3", "binary-asymmetric", "3x3-n20", "3x3-n24",
                              "binary-asymmetric-n400", "bsc-n1800-blocks", "bsc-n30-ties",
                              "ternary-symmetric-n30", "3x3-n12-blocks", "3x3-n20-blocks",
                              "binary-asymmetric-n400-blocks"])
def test_conditional_channel_counts_pinned(rows, p_in, rate, n, trials, seed, want):
    """Success counts for fixed seeds, exactly: a change to the score
    lattice that moves any draw or decision shows here."""
    got = tuple(simulate_channel_coding(Channel(np.array(rows)), make_distribution(p_in), rate,
                                        n, trials, decoder, RngStream(seed),
                                        method="conditional").successes
                for decoder in ("threshold", "ml"))
    assert got == want


def test_conditional_rd_count_pinned():
    """Binary rate-distortion, BSC(0.1) test channel, D = 0.1, n = 60: the
    success count for a fixed seed, exactly."""
    rep = simulate_rate_distortion(uniform_distribution(2), binary_symmetric_channel(0.1),
                                   hamming_distortion(2), 0.1, 0.39, 60, 1000, RngStream(104),
                                   method="conditional")
    assert rep.successes == 472


def test_conditional_rd_ternary_count_pinned():
    """Ternary source (0.5, 0.3, 0.2), Hamming distortion, the optimal test
    channel at D = 0.15, rate 0.55, n = 20: no two source symbols share an
    atom law, so nothing pools and every source type has its own lattice.
    The success count for a fixed seed, exactly."""
    src = make_distribution([0.5, 0.3, 0.2])
    d = hamming_distortion(3)
    rep = simulate_rate_distortion(src, rate_distortion(src, d, 0.15).optimal_test_channel, d,
                                   0.15, 0.55, 20, 500, RngStream(108), method="conditional")
    assert rep.successes == 264


def test_conditional_rd_ternary_count_pinned_over_two_blocks():
    """The ternary point of the test above at n = 24 over two trial blocks,
    where later types recur and read the run's memo: 1 100 trials, exactly."""
    src = make_distribution([0.5, 0.3, 0.2])
    d = hamming_distortion(3)
    rep = simulate_rate_distortion(src, rate_distortion(src, d, 0.15).optimal_test_channel, d,
                                   0.15, 0.55, 24, 1100, RngStream(108), method="conditional")
    assert rep.successes == 315


def test_each_type_computed_once_per_run(monkeypatch):
    """The per-run memos carry across trial blocks, over runs of three
    blocks: each (group, count) composition lattice is built once per run;
    on a ternary rate-distortion run (nothing pools) no pooled count folds
    its lattice twice; on a 3x3 channel run a pooled count is refolded only
    at a strictly lower floor than it was folded at, and no joint type is
    scored twice, though types recur from block to block."""
    trials = 2 * TRIAL_BLOCK + 7
    seen = {"part": [], "lattice": [], "score": []}
    composition, lattice, score = simulate._composition_lattice, _ScoreLaw.lattice, _ScoreLaw.score

    def composition_spy(m, log_mass, terms):
        # a law keeps one terms list per group for the run, so its id names the group
        seen["part"].append((m, id(terms)))
        return composition(m, log_mass, terms)

    def lattice_spy(self, key, floor=-math.inf):
        seen["lattice"].append((tuple(key), floor))
        return lattice(self, key, floor)

    def score_spy(self, joint):
        seen["score"] += map(tuple, joint.reshape(joint.shape[0], -1).tolist())
        return score(self, joint)

    def run(simulator, *args, **kwargs) -> dict:
        for built in seen.values():
            built.clear()
        simulator(*args, **kwargs)
        assert 0 < len(seen["part"]) == len(set(seen["part"]))
        return {name: list(built) for name, built in seen.items()}

    monkeypatch.setattr(simulate, "_composition_lattice", composition_spy)
    monkeypatch.setattr(_ScoreLaw, "lattice", lattice_spy)
    monkeypatch.setattr(_ScoreLaw, "score", score_spy)
    src = make_distribution([0.5, 0.3, 0.2])
    d = hamming_distortion(3)
    rd = run(simulate_rate_distortion, src, rate_distortion(src, d, 0.15).optimal_test_channel,
             d, 0.15, 0.55, 12, trials, RngStream(108), method="conditional")
    keys = [key for key, floor in rd["lattice"] if floor == -math.inf]
    assert 0 < len(keys) == len(set(keys)) == len(rd["lattice"]) < trials
    channel = run(simulate_channel_coding, Channel(np.array(CHANNEL_3X3)),
                  make_distribution(ASYM_INPUT), 0.25, 6, trials, "ml", RngStream(102),
                  method="conditional")
    floors = {}
    for key, floor in channel["lattice"]:
        floors.setdefault(key, []).append(floor)
    assert 0 < len(floors) < len(channel["lattice"])  # some pooled count is refolded
    assert all(a > b for asked in floors.values() for a, b in itertools.pairwise(asked))
    assert 0 < len(channel["score"]) == len(set(channel["score"])) < trials


BSC_11 = [[0.89, 0.11], [0.11, 0.89]]
# (channel rows, input, rate, n) -> successes (threshold, ml) at seeds 1..5,
# 200 trials each.  BSC ML decodes many exact ties (words at the sent word's
# Hamming distance), each broken by a uniform draw.
PINNED_LITERAL_CHANNEL_RUNS = [
    (BSC_11, [0.5, 0.5], 0.30, 24,
     ([128, 117, 118, 125, 115], [155, 156, 151, 160, 148])),
    (CHANNEL_3X3, [0.6, 0.3, 0.1], 0.25, 20,
     ([69, 79, 86, 79, 73], [119, 130, 135, 124, 119])),
]


@pytest.mark.parametrize("rows, p_in, rate, n, want", PINNED_LITERAL_CHANNEL_RUNS,
                         ids=["bsc-n24", "3x3-n20"])
def test_literal_channel_counts_pinned(rows, p_in, rate, n, want):
    """Literal-codebook success counts for seeds 1-5, exactly: a change to
    how codewords are drawn or scored that moves any draw shows here."""
    got = tuple([simulate_channel_coding(Channel(np.array(rows)), make_distribution(p_in), rate,
                                         n, 200, decoder, RngStream(seed),
                                         method="materialize").successes
                 for seed in range(1, 6)] for decoder in ("threshold", "ml"))
    assert got == want


def test_literal_rd_counts_pinned():
    """Binary rate-distortion on the literal path, BSC(0.1) test channel,
    D = 0.1, rate 0.4, n = 20: success counts for seeds 1-5, exactly."""
    got = [simulate_rate_distortion(uniform_distribution(2), binary_symmetric_channel(0.1),
                                    hamming_distortion(2), 0.1, 0.4, 20, 100, RngStream(seed),
                                    method="materialize").successes for seed in range(1, 6)]
    assert got == [42, 50, 47, 49, 44]


def test_literal_one_symbol_codebook_ties_every_word():
    """With one input symbol every word is the same, so ML ties all N_m of
    them and wins with probability 1/N_m; the codebook has no threshold to
    compare, and every word's counts are the block's."""
    n, rate, trials = 10, 0.3, 2000
    rep = simulate_channel_coding(Channel(np.array([[0.3, 0.7]])), uniform_distribution(1),
                                  rate, n, trials, "ml", RngStream(4), method="materialize")
    p = 1 / codebook_size(rate, n)
    assert abs(rep.p_hat - p) <= 4 * math.sqrt(p * (1 - p) / trials)


@pytest.mark.parametrize("protocol", ["channel", "rd"])
def test_literal_peak_memory_is_two_codebook_buffers(protocol):
    """A literal run holds the codebook's (N_m, n) 16-bit prefixes, a
    quarter of an (N_m, n) float buffer, and one float comparison buffer,
    reused across trials; with its small temporaries it reads 1.6 (channel)
    and 1.8 (rd) such float buffers, and its traced peak stays under 2.2,
    so no per-trial temporary of the codebook's float size (a word array,
    gathered scores, float uniforms) comes back."""
    if protocol == "channel":
        n, rate = 24, 0.3

        def run():
            simulate_channel_coding(binary_symmetric_channel(0.11), _U2, rate, n, 5, "ml",
                                    RngStream(1), method="materialize")
    else:
        n, rate = 20, 0.4

        def run():
            simulate_rate_distortion(_U2, _BSC, hamming_distortion(2), 0.1, rate, n, 5,
                                     RngStream(1), method="materialize")
    run()  # imports and caches outside the traced run
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.2 * codebook_size(rate, n) * n * 8


@given(small_channel_runs())
def test_channel_ml_dominates_threshold_on_same_draws(run):
    """Both decoders see the same types and uniforms, and a type that the
    threshold decoder gets right is won by ML, so the counts are ordered."""
    ch, p_in, n, (rate,), seed = run
    thr, ml = (simulate_channel_coding(ch, p_in, rate, n, 300, decoder, RngStream(seed),
                                       method="conditional")
               for decoder in ("threshold", "ml"))
    assert ml.successes >= thr.successes


@given(small_channel_runs(rates=3))
def test_channel_ml_successes_never_increase_with_rate(run):
    """The draws do not depend on the rate, and more rivals never help ML.
    (The threshold decoder has no such order: its threshold rises too.)"""
    ch, p_in, n, rates, seed = run
    counts = [simulate_channel_coding(ch, p_in, rate, n, 300, "ml", RngStream(seed),
                                      method="conditional").successes for rate in rates]
    assert counts == sorted(counts, reverse=True)


def _run_kind(kind: str, trials: int, seed: int):
    if kind == "source":
        setup = SourceCodingSetup(make_distribution([0.5, 0.3, 0.2]), 1.0, 30)
        return simulate_source_coding(setup, trials, RngStream(seed))
    if kind == "channel":
        return simulate_channel_coding(binary_symmetric_channel(0.11), uniform_distribution(2),
                                       0.3, 16, trials, "ml", RngStream(seed),
                                       method="conditional")
    return simulate_rate_distortion(uniform_distribution(2), binary_symmetric_channel(0.15),
                                    hamming_distortion(2), 0.15, 0.28, 20, trials,
                                    RngStream(seed), method="conditional")


@given(st.sampled_from(("source", "channel", "rd")), st.integers(1, 2 * TRIAL_BLOCK),
       st.integers(0, 2**32))
@example("source", TRIAL_BLOCK, 0)
@example("channel", TRIAL_BLOCK, 0)
@example("rd", TRIAL_BLOCK, 0)
def test_trial_outcome_fixed_by_seed_and_index(kind, trials, seed):
    """Trial i's outcome is fixed by (seed, i), so one more trial changes the
    count by that trial's own outcome only, also across a block boundary."""
    step = (_run_kind(kind, trials + 1, seed).successes
            - _run_kind(kind, trials, seed).successes)
    assert step in (0, 1)


def test_channel_noiseless_collision_rate():
    """Noiseless channel at modest rate: failures are codeword collisions.
    Success probability is (1 - 2^-n)^(N_m - 1) for a uniform input."""
    ident = Channel(np.eye(2))
    u = uniform_distribution(2)
    n, rate = 12, 0.3
    n_m = codebook_size(rate, n)
    oracle = (1 - 2.0 ** -n) ** (n_m - 1)
    rep = simulate_channel_coding(ident, u, rate, n, 4000, "threshold", RngStream(3))
    assert oracle > 0.99
    assert abs(rep.p_hat - oracle) <= 3 * math.sqrt(oracle * (1 - oracle) / 4000) + 1e-3


def test_channel_above_capacity_fails():
    ch = binary_symmetric_channel(0.11)
    u = uniform_distribution(2)
    c = capacity(ch).capacity_nats
    rep = simulate_channel_coding(ch, u, c + 0.1, 500, 400, "threshold", RngStream(4))
    assert rep.p_hat <= 0.05
    rep = simulate_channel_coding(ch, u, c + 0.1, 500, 400, "ml", RngStream(5))
    assert rep.p_hat <= 0.05


def test_channel_ml_dominates_threshold():
    ch = binary_symmetric_channel(0.11)
    u = uniform_distribution(2)
    for n, rate in ((18, 0.3), (18, 0.35), (250, 0.25), (500, 0.2)):
        t = simulate_channel_coding(ch, u, rate, n, 1500, "threshold", RngStream(6))
        m = simulate_channel_coding(ch, u, rate, n, 1500, "ml", RngStream(7))
        noise = 3 * math.hypot(t.ci95_halfwidth, m.ci95_halfwidth) / 1.96
        assert m.p_hat >= t.p_hat - noise


def test_channel_monotone_in_rate():
    ch = binary_symmetric_channel(0.11)
    u = uniform_distribution(2)
    rates = (0.16, 0.22, 0.3, 0.42)
    reps = [simulate_channel_coding(ch, u, r, 100, 1200, "ml", RngStream(8))
            for r in rates]
    for a, b in zip(reps, reps[1:]):
        assert b.p_hat <= a.p_hat + 3 * math.hypot(a.ci95_halfwidth, b.ci95_halfwidth) / 1.96


def test_channel_deterministic_and_seed_sensitive():
    ch = binary_symmetric_channel(0.11)
    u = uniform_distribution(2)
    a = simulate_channel_coding(ch, u, 0.3, 40, 800, "ml", RngStream(9))
    b = simulate_channel_coding(ch, u, 0.3, 40, 800, "ml", RngStream(9))
    assert a == b


def test_channel_materialize_guard():
    ch = binary_symmetric_channel(0.11)
    u = uniform_distribution(2)
    with pytest.raises(CodebookTooLarge):
        simulate_channel_coding(ch, u, 0.3, 400, 1000, "threshold", RngStream(11),
                                method="materialize")
    # auto mode transparently switches to the conditional path instead
    rep = simulate_channel_coding(ch, u, 0.3, 400, 50, "threshold", RngStream(11))
    assert rep.trials == 50


def test_channel_lattice_guard_checked_before_enumeration():
    """Cyclic 4-ary channel (rows are the cyclic shifts of (0.4, 0.3, 0.2,
    0.1)), uniform input: every output symbol has the same 4 atoms, so all
    outputs pool into one lattice of C(n+3, 3) points, 4 022 880 at n = 287,
    over LATTICE_GUARD.  The guard raises before any point is built."""
    rows = np.array([np.roll([0.4, 0.3, 0.2, 0.1], s) for s in range(4)])
    tracemalloc.start()
    try:
        with pytest.raises(CodebookTooLarge):
            simulate_channel_coding(Channel(rows), uniform_distribution(4), 1.0, 287,
                                    5, "ml", RngStream(1), method="conditional")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


@pytest.mark.parametrize("rows, n", [
    (ASYM_ROWS, 7),
    (BEC_ROWS, 9),
    ([[0.89, 0.11], [0.11, 0.89]], 11),
    ([[0.5, 0.3, 0.2, 0.0], [0.1, 0.1, 0.1, 0.7]], 6),
], ids=["3x3", "bec", "bsc", "2x4"])
def test_largest_lattice_is_the_largest_composition(rows, n):
    """The greedy largest lattice equals the maximum of the product of the
    groups' type counts over every composition of n into the groups."""
    with np.errstate(divide="ignore"):
        law = _ScoreLaw(np.log(np.array(rows)), np.log(np.full(len(rows), 1 / len(rows))))
    sizes = [atoms[0].size for atoms in law.atoms]
    brute = max(math.prod(count_types(k, m) for k, m in zip(sizes, key))
                for key in itertools.product(range(n + 1), repeat=len(sizes)) if sum(key) == n)
    assert _largest_lattice(law, n) == brute


@pytest.mark.parametrize("rows, method", [
    (ASYM_ROWS, "materialize"),
    ([[0.89, 0.11], [0.11, 0.89]], "conditional"),
], ids=["3x3", "bsc"])
def test_auto_lattice_check_is_small_at_large_n(rows, method):
    """At n = 10**6 a short literal run fits the operation guard, so ``auto``
    sizes the largest lattice: over the guard for the 3x3 channel, 10**6 + 1
    points for the BSC.  The check works on the groups alone, not on
    arrays of length n, so it allocates under 1 MiB."""
    law = _ScoreLaw(np.log(np.array(rows)), np.log(np.full(len(rows), 1 / len(rows))))
    tracemalloc.start()
    try:
        chosen = _resolve_method("auto", 0.1, 10**6, 10, law)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chosen == method
    assert peak < 2**20


def test_auto_prefers_the_conditional_path():
    """A run that fits both paths takes the conditional one, for channels
    and rate-distortion alike."""
    ch, u = binary_symmetric_channel(0.11), uniform_distribution(2)
    for decoder in ("threshold", "ml"):
        assert (simulate_channel_coding(ch, u, 0.35, 18, 500, decoder, RngStream(3))
                == simulate_channel_coding(ch, u, 0.35, 18, 500, decoder, RngStream(3),
                                           method="conditional"))
    args = (u, binary_symmetric_channel(0.2), hamming_distortion(2), 0.2, 0.15, 60, 200)
    assert (simulate_rate_distortion(*args, RngStream(4))
            == simulate_rate_distortion(*args, RngStream(4), method="conditional"))


def test_auto_materializes_when_the_lattice_is_over_its_guard():
    """The cyclic 4-ary channel at n = 287 pools into one lattice of
    4 022 880 points, over LATTICE_GUARD; a codebook of 17 words fits the
    operation guard, so ``auto`` draws it literally."""
    rows = np.array([np.roll([0.4, 0.3, 0.2, 0.1], s) for s in range(4)])
    law = _ScoreLaw(np.log(rows), np.log(np.full(4, 0.25)))
    assert _largest_lattice(law, 287) == count_types(4, 287) > LATTICE_GUARD
    args = (Channel(rows), uniform_distribution(4), 0.01, 287, 5, "ml")
    assert (simulate_channel_coding(*args, RngStream(1))
            == simulate_channel_coding(*args, RngStream(1), method="materialize"))


@given(circulant_rows())
def test_circulant_threshold_law_pools_as_the_ml_law(rows):
    """Under a uniform input every output column of a circulant channel holds
    the same products, so their sorted sums, the marginal entries, are
    bit-equal: the threshold decoder's ratio law has as many groups as the
    ML law's ln W, one."""
    m = rows.shape[0]
    laws = [_law_of(lambda: simulate_channel_coding(Channel(rows), uniform_distribution(m),
                                                    0.3, 8, 1, decoder, RngStream(0)))
            for decoder in ("threshold", "ml")]
    assert [len(law.atoms) for law in laws] == [1, 1]


@given(circulant_rows())
def test_circulant_rd_law_is_one_group(rows):
    """Under a uniform source with Hamming distortion, every source symbol of
    a circulant test channel sees the same (ratio, distortion) atoms with
    bit-equal masses, so the rate-distortion law is one group and its
    lattices grow as O(n).  With the marginal as a matrix product they
    split on many such channels."""
    m = rows.shape[0]
    law = _law_of(lambda: simulate_rate_distortion(
        uniform_distribution(m), Channel(rows), hamming_distortion(m), 0.5, 0.3, 8, 1,
        RngStream(0)))
    assert len(law.atoms) == 1


def test_circulant_rd_runs_conditionally_past_the_split_lattice():
    """A circulant test channel on 4 symbols at n = 30 whose source symbols
    a matrix-product marginal splits: its largest lattice was then over the
    guard, ``conditional`` raised and ``auto`` ran it literally.  Pooled into
    one group it runs conditionally under ``auto`` too, and agrees with the
    literal run within 3 sigma."""
    w = np.random.default_rng(4).dirichlet(np.ones(4))
    args = (uniform_distribution(4), Channel(np.array([np.roll(w, k) for k in range(4)])),
            hamming_distortion(4), 0.5, 0.2, 30, 1000, RngStream(5))
    conditional = simulate_rate_distortion(*args, method="conditional")
    assert simulate_rate_distortion(*args) == conditional
    literal = simulate_rate_distortion(*args, method="materialize")
    p = conditional.p_hat
    assert abs(p - literal.p_hat) <= 3 * math.sqrt(p * (1 - p) * 2 / 1000)


def test_channel_noiseless_pools_to_two_atoms():
    """Noiseless 4-ary channel, uniform input, n = 287: each output column
    has 2 atoms (the matching input, or -inf), so the lattice has n + 1
    points.  Rivals tie the sent word with chance q = 4^-n and never beat
    it, so ML success is (1 - (1 - q)^N_m) / (N_m q), here with
    N_m q ~ e^0.5."""
    n = 287
    rate = math.log(4) + 0.5 / n
    n_m = codebook_size(rate, n)
    q = 4.0 ** -n
    n_q = n_m * q
    exact = -math.expm1(n_m * math.log1p(-q)) / n_q
    assert n_q == pytest.approx(math.exp(0.5), rel=1e-6)
    trials = 2000
    rep = simulate_channel_coding(Channel(np.eye(4)), uniform_distribution(4), rate, n,
                                  trials, "ml", RngStream(2), method="conditional")
    assert abs(rep.p_hat - exact) <= 3 * math.sqrt(exact * (1 - exact) / trials)


def test_channel_codebook_beyond_float_range():
    """Noiseless ternary channel, uniform input, rate 1.12 > C = ln 3: the
    sent word ties each rival with chance 3^-n, N_m 3^-n = e^(n(R - ln 3))
    grows, and ML success is about e^(-n(R - ln 3)) < 3e-6 on both sides of
    n*rate = 700, where N_m no longer fits a float."""
    for n in (600, 700):
        rep = simulate_channel_coding(Channel(np.eye(3)), uniform_distribution(3), 1.12, n,
                                      20, "ml", RngStream(1), method="conditional")
        assert rep.p_hat == 0.0, n


# --- rate-distortion ---------------------------------------------------------------------

def test_rd_zero_distortion_reduces_to_lossless_coding():
    """With the identity test channel and D = 0 the encoder succeeds exactly
    when the codebook covers the block, tracking the lossless step."""
    src = make_distribution([0.9, 0.1])
    ident = Channel(np.eye(2))
    d = hamming_distortion(2)
    for n, rate in ((60, 0.42), (60, 0.475), (120, 0.45)):
        rd = simulate_rate_distortion(src, ident, d, 0.0, rate, n, 4000, RngStream(5))
        exact_lossless = source_coding_exact_psuc(SourceCodingSetup(src, rate, n))
        assert abs(rd.p_hat - exact_lossless) <= 0.05


def test_rd_achievability_and_converse():
    u = uniform_distribution(2)
    d = hamming_distortion(2)
    point = rate_distortion(u, d, 0.1)
    thr = point.rate_nats
    hi = simulate_rate_distortion(u, point.optimal_test_channel, d, 0.1, thr + 0.1,
                                  200, 800, RngStream(21))
    lo = simulate_rate_distortion(u, point.optimal_test_channel, d, 0.1, thr - 0.1,
                                  200, 800, RngStream(22))
    assert hi.p_hat >= 0.9
    assert lo.p_hat <= 0.1


def test_rd_paths_agree():
    u = uniform_distribution(2)
    d = hamming_distortion(2)
    tc = Channel(np.array([[0.85, 0.15], [0.15, 0.85]]))
    reps = {}
    for method in ("materialize", "conditional"):
        reps[method] = simulate_rate_distortion(u, tc, d, 0.15, 0.28, 30, 1500,
                                                RngStream(23), method=method)
    a, b = reps["materialize"], reps["conditional"]
    noise = 3 * math.hypot(a.ci95_halfwidth, b.ci95_halfwidth) / 1.96
    assert abs(a.p_hat - b.p_hat) <= noise


def test_rd_conditional_rival_mass_within_an_ulp_of_one():
    """At n = 100 some source types leave a per-codeword mass within an ulp
    of 1 in the failure sum, where ln(1 - eps) must not round eps to 1."""
    u = uniform_distribution(2)
    n, D, rate, trials = 100, 0.1, 0.4, 2000
    rep = simulate_rate_distortion(u, binary_symmetric_channel(0.1), hamming_distortion(2),
                                   D, rate, n, trials, RngStream(1), method="conditional")
    exact = binary_rd_success(n, D, rate)
    assert exact == pytest.approx(0.97282, abs=1e-5)
    assert abs(rep.p_hat - exact) <= 3 * math.sqrt(exact * (1 - exact) / trials)


def test_log_pow_one_minus_edges():
    """ln((1 - eps)^M) stays finite for eps within an ulp of 1, and is -inf,
    not an overflow, once the power is 0 to double precision.  The same
    entries as one array give the same values, with ln eps = 2.2e-16 (a
    total mass that rounded one step above 1) at -inf and eps = 0 at 0."""
    assert _log_pow_one_minus(-5e-17, 0.0) == pytest.approx(math.log(5e-17), rel=1e-12)
    assert _log_pow_one_minus(-0.1, 2.0) == pytest.approx(
        math.exp(2.0) * math.log1p(-math.exp(-0.1)), rel=1e-12)
    assert _log_pow_one_minus(-1.0, 800.0) == -math.inf
    assert _log_pow_one_minus(-40.0, 800.0) == -math.inf
    assert _log_pow_one_minus(-1000.0, 800.0) == -math.exp(-200.0)
    log_eps = np.array([-5e-17, -0.1, -1.0, -40.0, -1000.0, np.finfo(float).eps, -math.inf])
    log_m = np.array([0.0, 2.0, 800.0, 800.0, 800.0, 3.0, 3.0])
    expected = [float(_log_pow_one_minus(e, m)) for e, m in zip(log_eps, log_m)]
    assert expected[-2:] == [-math.inf, 0.0]
    assert _log_pow_one_minus(log_eps, log_m).tolist() == expected


# ln eps anywhere, with the branch points, eps = 0 and ln eps a rounding
# step above 0 (eps = 1)
LOG_EPS = st.floats(-1000.0, 0.0) | st.sampled_from(
    [-math.inf, 0.0, float(np.finfo(float).eps), -30.0, -math.log(2.0)])


@given(st.lists(st.tuples(LOG_EPS, st.floats(0.0, 800.0)), min_size=1, max_size=40))
@example([(-5e-17, 0.0), (-29.0, 705.0), (-30.5, 750.0), (-1000.0, 800.0)])
def test_log_pow_one_minus_matches_scalar_reference(pairs):
    """The array power against the scalar reference it replaced, entry by
    entry, where a cap on ln M made the reference -inf."""
    log_eps, log_m = map(np.array, zip(*pairs))
    want = [math.exp(oracles.log_pow_one_minus(e, m)) for e, m in pairs]
    assert np.exp(_log_pow_one_minus(log_eps, log_m)).tolist() == pytest.approx(
        want, rel=1e-11, abs=1e-15)


@given(st.lists(st.tuples(LOG_EPS, st.floats(-80.0, 0.0) | st.just(-math.inf)),
                min_size=1, max_size=40),
       st.floats(math.log(2.0), 800.0))
@example([(-1.0, -40.0), (0.0, -math.inf), (-50.0, 0.0), (-0.5, -31.0)], math.log(2.0))
def test_win_probability_matches_scalar_reference(tails, log_nm):
    """The array win law against the scalar ML reference it replaced, for
    rivals beaten with chance g and tied with chance r (1 - g); and with no
    tie mass it is exactly the threshold decoder's (1 - g)^(N_m - 1)."""
    log_rivals = log_nm + math.log1p(-math.exp(-log_nm))
    log_gt = np.array([g for g, _ in tails])
    log_eq = np.array([r + oracles.log_pow_one_minus(g, 0.0) if g < 0 else -math.inf
                       for g, r in tails])
    want = [oracles.ml_win_probability(g, e, log_nm, log_rivals)
            for g, e in zip(log_gt, log_eq)]
    assert _win_probability(log_gt, log_eq, log_nm, log_rivals).tolist() == pytest.approx(
        want, rel=1e-11, abs=1e-15)
    no_ties = _win_probability(log_gt, np.full(log_gt.size, -math.inf), log_nm, log_rivals)
    assert no_ties.tolist() == np.exp(_log_pow_one_minus(log_gt, log_rivals)).tolist()


@given(st.lists(st.tuples(st.integers(-6, 6), st.floats(0.01, 1.0), st.integers(0, 4)),
                min_size=1, max_size=40),
       st.integers(0, 4), st.floats(0.0, 4.0), st.floats(math.log(2.0), 800.0))
def test_rd_fail_probability_matches_scalar_reference(atoms, budget, margin, log_nm):
    """The array failure sum against the scalar loop it replaced, on a
    random lattice of (score, mass, distortion) points with repeated scores
    on both sides of the budget.  The sum is not clamped, and it is a
    probability as it stands."""
    values, mass, dist = map(np.array, zip(*atoms))
    values, log_pmf = 0.75 * values, np.log(mass / mass.sum())
    want = oracles.rd_fail_probability(values, log_pmf, dist, budget, margin, log_nm)
    got = _rd_fail_probability(values, log_pmf, dist, budget, margin, log_nm)
    assert got == pytest.approx(want, rel=1e-12)
    assert 0.0 <= got <= 1.0


def test_rd_fail_probability_matches_scalar_reference_on_ternary_lattices():
    """Every pooled source type's lattice of the ternary rate-distortion
    point at n = 12 (nothing pools there), against the scalar loop."""
    src, d = make_distribution([0.5, 0.3, 0.2]), hamming_distortion(3)
    tc = rate_distortion(src, d, 0.15).optimal_test_channel
    ratio, q_hat = log_info_ratio(tc, src)
    law = _ScoreLaw(ratio.T, np.log(q_hat), d.T)
    n, rate = 12, 0.55
    args = (n * 0.15 * (1 + 1e-9), n * rate, math.log(codebook_size(rate, n)))
    for key in map(tuple, law.key(type_array(3, n)).tolist()):
        lattice = law.lattice(key)
        assert _rd_fail_probability(*lattice, *args) == pytest.approx(
            oracles.rd_fail_probability(*lattice, *args), rel=1e-12), key


def _tie_tails(g: float, e: float) -> tuple:
    """Rival scores 0, 1, 2 with masses 1 - g - e, e, g: a sent score of 1
    is beaten with probability g and tied with probability e.  Returns the
    lattice's (ln P(score > 1), ln P(score == 1))."""
    values, log_pmf = np.array([0.0, 1.0, 2.0]), np.log([1.0 - g - e, e, g])
    return _log_mass(log_pmf, values > 1.0), _log_mass(log_pmf, values == 1.0)


def _ml_win_sum(n_m: int, g: float, e: float) -> float:
    """sum_k C(N_m-1, k) e^k (1-g-e)^(N_m-1-k) / (k+1) over the number k of
    tying rivals; the terms past k = 3 are below 1e-40 here."""
    return math.fsum(math.comb(n_m - 1, k) * e**k * (1 - g - e) ** (n_m - 1 - k) / (k + 1)
                     for k in range(min(n_m, 4)))


def test_ml_win_probability_counts_rivals_not_codewords():
    """With ties negligible the sent word wins iff none of its N_m - 1
    rivals scores higher: (1 - g)^(N_m - 1) = 1/2 here, not (1 - g)^N_m."""
    log_gt, log_eq = _tie_tails(0.5, math.exp(-40.0))
    win = _win_probability(np.array([log_gt]), np.array([log_eq]), math.log(2), 0.0)
    assert win[0] == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("n_m, g", [(2, 0.5), (1000, 1e-3)])
def test_ml_win_probability_continuous_at_tie_cutoff(n_m, g):
    """The tie factor is dropped once N_m e / (1 - g) < e^-30; just above
    and just below that switch the win probability agrees with itself and
    with the direct sum over tying rivals."""
    vals = []
    for step in (-1e-9, 1e-9):
        e = (1 - g) * math.exp(-30.0 + step) / n_m
        log_gt, log_eq = _tie_tails(g, e)
        val = _win_probability(np.array([log_gt]), np.array([log_eq]), math.log(n_m),
                               math.log(n_m - 1))[0]
        assert val == pytest.approx(_ml_win_sum(n_m, g, e), rel=1e-12)
        vals.append(val)
    assert vals[0] == pytest.approx(vals[1], rel=1e-9)


def test_rd_margin_sensitive_regime_paths_agree():
    """Small codebook with a slightly anti-correlated test channel: the
    pairwise margin decides a real fraction of trials."""
    u = uniform_distribution(2)
    d = hamming_distortion(2)
    tc = Channel(np.array([[0.45, 0.55], [0.55, 0.45]]))
    a = simulate_rate_distortion(u, tc, d, 0.5, 0.07, 24, 8000, RngStream(41),
                                 method="materialize")
    b = simulate_rate_distortion(u, tc, d, 0.5, 0.07, 24, 8000, RngStream(41),
                                 method="conditional")
    noise = 3 * math.hypot(a.ci95_halfwidth, b.ci95_halfwidth) / 1.96
    assert abs(a.p_hat - b.p_hat) <= noise
    assert 0.9 < a.p_hat < 1.0  # genuinely in between


def test_rd_deterministic():
    u = uniform_distribution(2)
    d = hamming_distortion(2)
    tc = Channel(np.array([[0.9, 0.1], [0.1, 0.9]]))
    a = simulate_rate_distortion(u, tc, d, 0.1, 0.45, 80, 600, RngStream(31))
    b = simulate_rate_distortion(u, tc, d, 0.1, 0.45, 80, 600, RngStream(31))
    assert a == b


def test_rd_nan_distortion_rejected():
    """A NaN distortion entry is rejected up front, as a negative one is,
    instead of giving a report."""
    d = np.array([[0.0, np.nan], [1.0, 0.0]])
    with pytest.raises(InfeasibleDistortion):
        simulate_rate_distortion(uniform_distribution(2), binary_symmetric_channel(0.1), d,
                                 0.1, 0.4, 20, 10, RngStream(1))
    with pytest.raises(InfeasibleDistortion):
        rate_distortion(uniform_distribution(2), d, 0.1)


@pytest.mark.parametrize("method", ["materialize", "conditional"])
def test_rd_infinite_distortion_rejected(method):
    """An infinite distortion entry is rejected up front on both paths: the
    conditional path would otherwise sum 0 * inf = NaN into every companion
    score and report 0 successes where the literal protocol succeeds."""
    d = np.array([[0.0, np.inf], [1.0, 0.0]])
    with pytest.raises(InfeasibleDistortion, match="finite"):
        simulate_rate_distortion(uniform_distribution(2), binary_symmetric_channel(0.1), d,
                                 0.1, 0.4, 20, 300, RngStream(1), method=method)


def test_nan_rate_and_distortion_rejected():
    """A NaN rate or distortion budget raises the error an out-of-range
    one raises, instead of a float-to-int error or a report of 0 successes."""
    u, bsc = uniform_distribution(2), binary_symmetric_channel(0.1)
    for rate in (-0.1, math.nan):
        with pytest.raises(ValueError, match="rate must be positive"):
            simulate_channel_coding(bsc, u, rate, 20, 10, "ml", RngStream(1))
    for D in (-0.1, math.nan):
        with pytest.raises(ValueError, match="D must be non-negative"):
            simulate_rate_distortion(u, bsc, hamming_distortion(2), D, 0.4, 20, 10,
                                     RngStream(1))


@pytest.mark.parametrize("method", ["materialize", "conditional"])
def test_rd_zero_mass_reproductions_are_never_drawn(method):
    """At D >= D_max = 1/2, ``rate_distortion``'s test channel sends both
    source symbols to one reproduction, so the other has no mass.  Every
    codeword is then that one word, and a trial succeeds iff the block has
    at most floor(nD) symbols off it: P(Bin(n, 1/2) <= floor(nD)) exactly.
    A source of one symbol through the identity channel is always covered."""
    u, d, trials = uniform_distribution(2), hamming_distortion(2), 3000
    for D, n in itertools.product((0.5, 0.6), (10, 21)):
        tc = rate_distortion(u, d, D).optimal_test_channel
        assert sorted(u.probs @ tc.rows) == [0.0, 1.0]
        rep = simulate_rate_distortion(u, tc, d, D, 0.3, n, trials, RngStream(7),
                                       method=method)
        exact = sum(math.comb(n, j) for j in range(math.floor(n * D) + 1)) / 2**n
        assert abs(rep.p_hat - exact) <= 3 * math.sqrt(exact * (1 - exact) / trials), (D, n)
    rep = simulate_rate_distortion(make_distribution([1.0, 0.0]), Channel(np.eye(2)), d,
                                   0.1, 0.4, 20, 10, RngStream(1), method=method)
    assert rep.p_hat == 1.0


_U2, _BSC = uniform_distribution(2), binary_symmetric_channel(0.1)
REJECTED_RUNS = {
    "channel-decoder": lambda: simulate_channel_coding(_BSC, _U2, 0.4, 20, 10, "x",
                                                       RngStream(1)),
    "channel-trials": lambda: simulate_channel_coding(_BSC, _U2, 0.4, 20, 0, "ml",
                                                      RngStream(1)),
    "channel-input": lambda: simulate_channel_coding(_BSC, uniform_distribution(3), 0.4, 20,
                                                     10, "ml", RngStream(1)),
    "channel-method": lambda: simulate_channel_coding(_BSC, _U2, 0.4, 20, 10, "ml",
                                                      RngStream(1), method="x"),
    "rd-trials": lambda: simulate_rate_distortion(_U2, _BSC, hamming_distortion(2), 0.1, 0.4,
                                                  20, 0, RngStream(1)),
    "rd-test-channel": lambda: simulate_rate_distortion(
        _U2, Channel(np.full((3, 2), 0.5)), hamming_distortion(2), 0.1, 0.4, 20, 10,
        RngStream(1)),
    "rd-d-columns-wide": lambda: simulate_rate_distortion(
        _U2, _BSC, np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0]]), 0.1, 0.4, 20, 10,
        RngStream(1)),
    "rd-d-columns-narrow": lambda: simulate_rate_distortion(
        _U2, _BSC, np.array([[0.0], [1.0]]), 0.1, 0.4, 20, 10, RngStream(1)),
    "rd-method": lambda: simulate_rate_distortion(_U2, _BSC, hamming_distortion(2), 0.1, 0.4,
                                                  20, 10, RngStream(1), method="x"),
    "source-trials": lambda: simulate_source_coding(SourceCodingSetup(_U2, 0.5, 10), 0,
                                                    RngStream(1)),
    # n and trials are integers, as the CLI reads them: no float, however
    # integral, and no bool
    "channel-n-float": lambda: simulate_channel_coding(_BSC, _U2, 0.4, 20.5, 10, "ml",
                                                       RngStream(1)),
    "channel-trials-float": lambda: simulate_channel_coding(_BSC, _U2, 0.4, 20, 10.0, "ml",
                                                            RngStream(1)),
    "channel-trials-bool": lambda: simulate_channel_coding(_BSC, _U2, 0.4, 20, True, "ml",
                                                           RngStream(1)),
    "rd-n-float": lambda: simulate_rate_distortion(_U2, _BSC, hamming_distortion(2), 0.1, 0.4,
                                                   20.0, 10, RngStream(1)),
    "rd-trials-float": lambda: simulate_rate_distortion(_U2, _BSC, hamming_distortion(2), 0.1,
                                                        0.4, 20, 10.0, RngStream(1)),
    "source-n-float": lambda: simulate_source_coding(SourceCodingSetup(_U2, 1.0, 2.5), 10,
                                                     RngStream(1)),
    "source-n-bool": lambda: source_coding_exact_psuc(SourceCodingSetup(_U2, 1.0, True)),
    "source-trials-float": lambda: simulate_source_coding(SourceCodingSetup(_U2, 0.5, 10), 10.0,
                                                          RngStream(1)),
    "source-trials-bool": lambda: simulate_source_coding(SourceCodingSetup(_U2, 0.5, 10), True,
                                                         RngStream(1)),
}


@pytest.mark.parametrize("run", REJECTED_RUNS.values(), ids=REJECTED_RUNS.keys())
def test_simulator_rejection_is_typed(run):
    """Every argument a simulator rejects raises a PtShannonError."""
    with pytest.raises(PtShannonError):
        run()


@pytest.mark.parametrize("kind", ["channel", "rd"])
def test_unknown_method_rejected_before_any_work(kind, monkeypatch):
    """An unknown method raises InvalidParameter before the score law is
    built."""
    def no_law(*args):
        pytest.fail("_ScoreLaw built for an unknown method")

    monkeypatch.setattr(simulate, "_ScoreLaw", no_law)
    with pytest.raises(InvalidParameter):
        REJECTED_RUNS[f"{kind}-method"]()


def test_literal_output_draw_stays_in_the_alphabet(monkeypatch):
    """Channel rows summing to 1 - 5e-13 pass Channel's check.  A uniform
    above that sum still draws an output symbol of the alphabet: each row's
    thresholds are normalized by its own total, as for every literal draw."""
    rows = np.array([[0.3, 0.7 - 5e-13], [0.7 - 5e-13, 0.3]])
    blocks = []
    sums = _Codebook.sums

    def spy(self, block):
        blocks.append(block)
        return sums(self, block)

    monkeypatch.setattr(RngStream, "substream_generators",
                        lambda self, count: (_RawBits() for _ in range(count)))
    monkeypatch.setattr(_Codebook, "sums", spy)
    simulate_channel_coding(Channel(rows), _U2, 0.3, 10, 3, "ml", RngStream(1),
                            method="materialize")
    assert len(blocks) == 3
    assert all(block.min() >= 0 and block.max() < 2 for block in blocks)

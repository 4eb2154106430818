"""Finite-blocklength coding predictions."""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from ptshannon import (
    Channel,
    Distribution,
    RngStream,
    SourceCodingSetup,
    binary_entropy,
    binary_symmetric_channel,
    channel_coding_prediction,
    codebook_size,
    entropy,
    hamming_distortion,
    info_ratio,
    joint_from,
    make_distribution,
    rate_distortion_prediction,
    simulate_channel_coding,
    source_coding_asymptote,
    source_coding_exact_psuc,
    uniform_distribution,
)
from ptshannon.coding import (
    SOURCE_DEPENDENT,
    UNIVERSAL,
    log_codebook_size,
    log_info_ratio,
)
from ptshannon.errors import (
    CodebookTooLarge,
    DimensionMismatch,
    InstanceTooLarge,
    InvalidDistribution,
    InvalidParameter,
)

from oracles import source_coding_success

LN2 = math.log(2.0)


def test_codebook_size_convention():
    assert codebook_size(0.5, 10) == int(math.floor(math.exp(5.0)))
    assert codebook_size(LN2, 4) == 16
    with pytest.raises(ValueError):
        codebook_size(-0.1, 10)
    # the integer size is built only while it exists; its log is carried at
    # every size, without a cap
    assert log_codebook_size(0.5, 10) == math.log(codebook_size(0.5, 10))
    assert log_codebook_size(LN2, 4) == math.log(16)
    assert log_codebook_size(1.12, 700) == 1.12 * 700
    assert log_codebook_size(2.0, 1000) == 2000.0
    with pytest.raises(CodebookTooLarge):
        codebook_size(1.12, 700)


@pytest.mark.parametrize("n", [2.5, True, 0, -1])
def test_prediction_side_rejects_non_integer_n(n):
    """The codebook size, its log (past n*rate = 700 too) and the channel
    prediction take only an integer n >= 1, as the simulators do."""
    ch, u = binary_symmetric_channel(0.11), uniform_distribution(2)
    for call in (lambda: codebook_size(0.5, n), lambda: log_codebook_size(0.5, n),
                 lambda: log_codebook_size(1000.0, n),
                 lambda: channel_coding_prediction(ch, u, 0.3, n)):
        with pytest.raises(InvalidParameter, match="n must be an integer"):
            call()


def test_nan_rate_rejected_as_non_positive():
    """A NaN rate raises the error a non-positive rate raises, in the
    codebook size and in the source-coding set-up alike."""
    for rate in (0.0, math.nan):
        with pytest.raises(ValueError, match="rate must be positive"):
            codebook_size(rate, 10)
        with pytest.raises(ValueError, match="rate must be positive"):
            SourceCodingSetup(make_distribution([0.9, 0.1]), rate, 10)


# --- source coding -------------------------------------------------------------

def test_exact_psuc_saturates_when_every_block_is_encodable():
    src = make_distribution([0.9, 0.1])
    # universal acceptance costs are capped at ln 2
    p = source_coding_exact_psuc(SourceCodingSetup(src, LN2 + 0.01, 64, "universal"))
    assert p == pytest.approx(1.0, abs=1e-11)
    # source-dependent costs are capped at ln(1/min p)
    p = source_coding_exact_psuc(
        SourceCodingSetup(src, -math.log(0.1) + 0.01, 64))
    assert p == pytest.approx(1.0, abs=1e-11)
    # uniform source: both caps coincide at ln(alphabet size)
    for mode in ("source-dependent", "universal"):
        p = source_coding_exact_psuc(
            SourceCodingSetup(uniform_distribution(2), LN2 + 0.01, 64, mode))
        assert p == pytest.approx(1.0, abs=1e-11)


def test_exact_psuc_empty_below_min_cost():
    src = make_distribution([0.9, 0.1])
    rate = float(-np.log(0.9)) - 0.01  # below the cheapest block
    assert source_coding_exact_psuc(SourceCodingSetup(src, rate, 50)) == 0.0


def test_exact_psuc_above_entropy_is_near_one():
    src = make_distribution([0.9, 0.1])
    p = source_coding_exact_psuc(SourceCodingSetup(src, 0.5, 400))
    assert p >= 0.99


def test_exact_psuc_matches_direct_binomial_oracle():
    """Membership is a binomial tail: cost <= R iff enough heavy symbols."""
    from scipy.stats import binom

    src = make_distribution([0.9, 0.1])
    n, rate = 150, 0.4
    # cost(k) = -(k ln .9 + (n-k) ln .1)/n <= rate  <=>  k >= kmin
    c0, c1 = -math.log(0.9), -math.log(0.1)
    kmin = math.ceil((c1 - rate) * n / (c1 - c0) - 1e-12)
    oracle = float(binom.sf(kmin - 1, n, 0.9))
    assert source_coding_exact_psuc(SourceCodingSetup(src, rate, n)) == pytest.approx(
        oracle, abs=1e-12)


def test_exact_psuc_three_letter_alphabet():
    src = make_distribution([0.6, 0.3, 0.1])
    p = source_coding_exact_psuc(SourceCodingSetup(src, entropy(src) + 0.15, 60))
    assert 0.5 < p <= 1.0


@given(weights=st.lists(st.integers(0, 9), min_size=2, max_size=4).filter(any),
       n=st.integers(1, 24), rate=st.floats(0.01, 1.6),
       mode=st.sampled_from([SOURCE_DEPENDENT, UNIVERSAL]))
def test_exact_psuc_matches_per_type_loop(weights, n, rate, mode):
    """The array sum over `type_array` equals a plain loop over count
    vectors, for N = 2, 3, 4, sources with zero entries, both modes."""
    src = make_distribution(weights)
    expected, gap = source_coding_success(tuple(src.probs), rate, n, mode)
    assume(gap > 1e-9)
    got = source_coding_exact_psuc(SourceCodingSetup(src, rate, n, mode))
    assert got == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_exact_psuc_pinned_large_sums():
    """Two large exact sums pinned to the last bit: an enumerator that
    reorders the type rows moves them."""
    ternary = make_distribution([0.5, 0.3, 0.2])
    setup = SourceCodingSetup(ternary, entropy(ternary) + 0.02, 600, SOURCE_DEPENDENT)
    assert source_coding_exact_psuc(setup) == 0.9096162863641636
    quaternary = make_distribution([0.4, 0.3, 0.2, 0.1])
    setup = SourceCodingSetup(quaternary, 1.25, 100, UNIVERSAL)
    assert source_coding_exact_psuc(setup) == 0.34262379846627466


def test_exact_psuc_source_with_zero_entry():
    """A symbol the source never emits leaves the types over the others:
    here a ternary source is the binary one with an unused third letter."""
    binary = make_distribution([0.7, 0.3])
    ternary = make_distribution([0.7, 0.3, 0.0])
    for mode in (SOURCE_DEPENDENT, UNIVERSAL):
        want = source_coding_exact_psuc(SourceCodingSetup(binary, 0.65, 40, mode))
        got = source_coding_exact_psuc(SourceCodingSetup(ternary, 0.65, 40, mode))
        assert 0.5 < want < 1.0
        assert got == pytest.approx(want, rel=1e-12)
    point = make_distribution([0.0, 1.0])
    assert source_coding_exact_psuc(SourceCodingSetup(point, 1.0, 1)) == 1.0


def test_exact_psuc_guard():
    src = uniform_distribution(4)
    with pytest.raises(InstanceTooLarge):
        source_coding_exact_psuc(SourceCodingSetup(src, 0.5, 5000))


def test_asymptote_step_with_inclusive_tie():
    src = make_distribution([0.9, 0.1])
    h = entropy(src)
    assert source_coding_asymptote(SourceCodingSetup(src, h + 0.01, 10)) == 1
    assert source_coding_asymptote(SourceCodingSetup(src, h - 0.01, 10)) == 0
    assert source_coding_asymptote(SourceCodingSetup(src, h, 10)) == 1
    assert source_coding_asymptote(
        SourceCodingSetup(uniform_distribution(3), math.log(3), 10)) == 1


def test_exact_psuc_converges_to_step():
    src = make_distribution([0.9, 0.1])
    h = entropy(src)
    for mode in ("source-dependent", "universal"):
        hi = source_coding_exact_psuc(SourceCodingSetup(src, h + 0.05, 800, mode))
        lo = source_coding_exact_psuc(SourceCodingSetup(src, h - 0.05, 800, mode))
        assert hi >= 0.98
        assert lo <= 0.02


def test_universal_and_source_dependent_share_the_step():
    """No ordering is asserted between the two modes at finite n; both must
    converge to the same step at the source entropy."""
    src = make_distribution([0.9, 0.1])
    h = entropy(src)
    for mode in ("source-dependent", "universal"):
        vals = [source_coding_exact_psuc(SourceCodingSetup(src, h + 0.05, n, mode))
                for n in (200, 400, 800, 1600)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 0.99
        lows = [source_coding_exact_psuc(SourceCodingSetup(src, h - 0.05, n, mode))
                for n in (200, 800)]
        assert lows[-1] < 0.02


# --- channel coding -------------------------------------------------------------

CHANNEL_3X3 = [[0.73, 0.17, 0.10], [0.13, 0.79, 0.08], [0.29, 0.23, 0.48]]
# (channel rows, input): with zero cells, an unused input and an output no
# input reaches
RATIO_TABLES = {
    "bsc": ([[0.89, 0.11], [0.11, 0.89]], [0.5, 0.5]),
    "z": ([[1.0, 0.0], [0.3, 0.7]], [0.4, 0.6]),
    "3x3": (CHANNEL_3X3, [0.6, 0.3, 0.1]),
    "unused-input": (CHANNEL_3X3, [0.7, 0.3, 0.0]),
    "unreached-output": ([[0.5, 0.5, 0.0], [0.2, 0.8, 0.0]], [0.5, 0.5]),
}


@pytest.mark.parametrize("name", sorted(RATIO_TABLES))
def test_log_info_ratio_is_ln_info_ratio(name):
    """Cell by cell, the table is ln ``info_ratio`` of the joint on its
    support and -inf off it, with no floating-point warning; the marginal is
    the joint's output marginal."""
    rows, p_in = RATIO_TABLES[name]
    ch, fed = Channel(np.array(rows)), make_distribution(p_in)
    with np.errstate(all="raise"):
        ratio, marginal = log_info_ratio(ch, fed)
    joint = joint_from(ch, fed)
    for (a, b), value in np.ndenumerate(ratio):
        if joint.probs[a, b] > 0:
            assert value == pytest.approx(math.log(info_ratio(joint, a, b)), abs=1e-13)
        else:
            assert value == -math.inf
    assert marginal == pytest.approx(joint.marginal_y().probs, abs=1e-15)


def test_log_info_ratio_takes_laws_whose_joint_is_out_of_tolerance():
    """A channel and an input each within the normalization tolerance can
    make a joint that is not.  The table, and the simulator built on it,
    take them; a shape mismatch is still rejected."""
    eps = 9e-13
    ch = Channel(np.array([[0.9 + eps, 0.1], [0.1, 0.9 + eps]]))
    fed = Distribution(np.array([0.5 + eps, 0.5]))
    with pytest.raises(InvalidDistribution):
        joint_from(ch, fed)
    assert np.isfinite(log_info_ratio(ch, fed)[0]).all()
    assert simulate_channel_coding(ch, fed, 0.3, 10, 50, "threshold", RngStream(1)).trials == 50
    with pytest.raises(DimensionMismatch):
        log_info_ratio(ch, uniform_distribution(3))


def test_prediction_at_rate_equal_mi_is_half():
    ch = binary_symmetric_channel(0.11)
    u = uniform_distribution(2)
    a = channel_coding_prediction(ch, u, 0.3, 500).a
    pred = channel_coding_prediction(ch, u, a, 500)  # exact tie
    assert pred.p_suc_erfc == pytest.approx(0.5, abs=1e-12)
    assert pred.p_suc_step == 0  # strict comparison at the tie


def test_prediction_noiseless_channel_degenerates_to_step():
    pred = channel_coding_prediction(Channel(np.eye(2)), uniform_distribution(2), 0.5, 100)
    assert pred.b == 0.0
    assert pred.p_suc_erfc == pred.p_suc_step == 1
    pred = channel_coding_prediction(Channel(np.eye(2)), uniform_distribution(2), 0.8, 100)
    assert pred.p_suc_erfc == pred.p_suc_step == 0


def test_prediction_moments_match_direct_sums():
    ch = binary_symmetric_channel(0.11)
    u = uniform_distribution(2)
    pred = channel_coding_prediction(ch, u, 0.3, 250)
    v_same, v_diff = math.log(2 * 0.89), math.log(2 * 0.11)
    a = 0.89 * v_same + 0.11 * v_diff
    b = 0.89 * v_same**2 + 0.11 * v_diff**2 - a * a
    assert pred.a == pytest.approx(a, abs=1e-12)
    assert pred.b == pytest.approx(b, abs=1e-12)
    assert pred.b >= 0
    expected = 0.5 * math.erfc(math.sqrt(250 / (2 * b)) * (0.3 - a))
    assert pred.p_suc_erfc == pytest.approx(expected, abs=1e-12)


def test_prediction_b_nonnegative_random_channels():
    gen = np.random.default_rng(21)
    for _ in range(25):
        rows = gen.random((3, 3)) + 0.02
        rows /= rows.sum(1, keepdims=True)
        w = gen.random(3) + 0.05
        pred = channel_coding_prediction(Channel(rows), make_distribution(w), 0.2, 50)
        assert pred.b >= 0


def test_prediction_monotonicity():
    ch = binary_symmetric_channel(0.11)
    u = uniform_distribution(2)
    rates = np.linspace(0.05, 0.6, 40)
    vals = [channel_coding_prediction(ch, u, float(r), 300).p_suc_erfc for r in rates]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
    a = channel_coding_prediction(ch, u, 0.3, 1).a
    below = [channel_coding_prediction(ch, u, 0.3, n).p_suc_erfc
             for n in (100, 200, 400, 800)]
    assert 0.3 < a
    assert all(b >= x for x, b in zip(below, below[1:]))


# --- rate-distortion -------------------------------------------------------------

def test_rd_prediction_zero_distortion():
    src = make_distribution([0.9, 0.1])
    pred = rate_distortion_prediction(src, hamming_distortion(2), 0.0, 0.4)
    assert pred.threshold == pytest.approx(entropy(src), abs=1e-7)
    assert pred.succeeds


def test_rd_prediction_large_distortion():
    src = make_distribution([0.9, 0.1])
    pred = rate_distortion_prediction(src, hamming_distortion(2), 0.9, 0.01)
    assert pred.threshold == 0.0
    assert pred.succeeds


def test_rd_prediction_binary_hamming():
    pred = rate_distortion_prediction(uniform_distribution(2), hamming_distortion(2),
                                      0.1, 0.5)
    assert pred.threshold == pytest.approx(LN2 - binary_entropy(0.1), abs=1e-6)
    assert pred.succeeds
    pred_lo = rate_distortion_prediction(uniform_distribution(2), hamming_distortion(2),
                                         0.1, 0.3)
    assert not pred_lo.succeeds

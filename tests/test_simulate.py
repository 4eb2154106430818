"""Protocol simulators: against exact oracles, across both execution paths,
and for reproducibility."""

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
from ptshannon.errors import CodebookTooLarge, DegenerateMarginal
from ptshannon.simulate import (
    TRIAL_BLOCK,
    _Lattice,
    _log_pow_one_minus,
    _ml_win_probability,
    _ScoreLaw,
)
from ptshannon.type_classes import type_array

from oracles import binary_rd_success, bsc_exact_success, dmc_exact_success

# asymmetric channel whose output marginal is far from uniform
ASYM_ROWS = [[0.8, 0.15, 0.05], [0.2, 0.7, 0.1], [0.3, 0.3, 0.4]]
ASYM_INPUT = [0.6, 0.3, 0.1]
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
    for n, rate in ((10, 0.3), (18, 0.35)):
        for decoder in ("threshold", "ml"):
            assert dmc_exact_success([[0.89, 0.11], [0.11, 0.89]], [0.5, 0.5], rate, n,
                                     decoder) == pytest.approx(
                bsc_exact_success(n, rate, 0.11, decoder), rel=1e-12)


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


@pytest.mark.parametrize("rows", [
    [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]],
    ASYM_ROWS,
], ids=["ternary-symmetric", "3x3"])
def test_sent_score_is_a_lattice_point(rows):
    """For every joint type at n = 5 the sent word's score is one of the
    rival lattice's own points, bit for bit, so ML finds its tie mass.  The
    ternary symmetric channel repeats ln 0.1 within each column; that value
    is one atom, summed once."""
    rows = np.array(rows)
    law = _ScoreLaw(np.log(rows), np.log(np.full(3, 1 / 3)), np.zeros(rows.shape))
    for joint in type_array(9, 5).reshape(-1, 3, 3):
        lat = _Lattice(*law.lattice(law.key(joint.sum(axis=0)))[:2])
        assert lat.log_mass_eq(law.score(joint)) > -math.inf


# (channel rows, input, rate, n, trials, seed) -> successes (threshold, ml)
PINNED_CHANNEL_RUNS = [
    ([[0.89, 0.11], [0.11, 0.89]], [0.5, 0.5], 0.3, 250, 1000, 101, (857, 915)),
    ([[0.73, 0.17, 0.10], [0.13, 0.79, 0.08], [0.29, 0.23, 0.48]], [0.6, 0.3, 0.1],
     0.25, 16, 500, 102, (189, 339)),
    ([[0.93, 0.07], [0.19, 0.81]], [0.55, 0.45], 0.3, 40, 500, 103, (266, 366)),
]


@pytest.mark.parametrize("rows, p_in, rate, n, trials, seed, want", PINNED_CHANNEL_RUNS,
                         ids=["bsc", "3x3", "binary-asymmetric"])
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


def test_channel_fixed_codebook_mode():
    ch = binary_symmetric_channel(0.05)
    u = uniform_distribution(2)
    rep = simulate_channel_coding(ch, u, 0.25, 30, 500, "ml", RngStream(10),
                                  fresh_codebook=False)
    assert 0.0 <= rep.p_hat <= 1.0
    with pytest.raises(CodebookTooLarge):
        simulate_channel_coding(ch, u, 0.25, 400, 500, "ml", RngStream(10),
                                fresh_codebook=False)


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
    not an overflow, once the power is 0 to double precision."""
    assert _log_pow_one_minus(-5e-17, 0.0) == pytest.approx(math.log(5e-17), rel=1e-12)
    assert _log_pow_one_minus(-0.1, 2.0) == pytest.approx(
        math.exp(2.0) * math.log1p(-math.exp(-0.1)), rel=1e-12)
    assert _log_pow_one_minus(-1.0, 800.0) == -math.inf
    assert _log_pow_one_minus(-40.0, 800.0) == -math.inf
    assert _log_pow_one_minus(-1000.0, 800.0) == -math.exp(-200.0)


def _tie_lattice(g: float, e: float) -> _Lattice:
    """Rival scores 0, 1, 2 with masses 1 - g - e, e, g: a sent score of 1
    is beaten with probability g and tied with probability e."""
    return _Lattice(np.array([0.0, 1.0, 2.0]), np.log([1.0 - g - e, e, g]))


def _ml_win_sum(n_m: int, g: float, e: float) -> float:
    """sum_k C(N_m-1, k) e^k (1-g-e)^(N_m-1-k) / (k+1) over the number k of
    tying rivals; the terms past k = 3 are below 1e-40 here."""
    return math.fsum(math.comb(n_m - 1, k) * e**k * (1 - g - e) ** (n_m - 1 - k) / (k + 1)
                     for k in range(min(n_m, 4)))


def test_ml_win_probability_counts_rivals_not_codewords():
    """With ties negligible the sent word wins iff none of its N_m - 1
    rivals scores higher: (1 - g)^(N_m - 1) = 1/2 here, not (1 - g)^N_m."""
    lat = _tie_lattice(0.5, math.exp(-40.0))
    assert _ml_win_probability(lat, 1.0, math.log(2), 0.0) == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("n_m, g", [(2, 0.5), (1000, 1e-3)])
def test_ml_win_probability_continuous_at_tie_cutoff(n_m, g):
    """The tie factor is dropped once N_m e / (1 - g) < e^-30; just above
    and just below that switch the win probability agrees with itself and
    with the direct sum over tying rivals."""
    vals = []
    for step in (-1e-9, 1e-9):
        e = (1 - g) * math.exp(-30.0 + step) / n_m
        val = _ml_win_probability(_tie_lattice(g, e), 1.0, math.log(n_m), math.log(n_m - 1))
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


def test_rd_degenerate_marginal_rejected():
    src = make_distribution([1.0, 0.0])
    tc = Channel(np.eye(2))
    with pytest.raises(DegenerateMarginal):
        simulate_rate_distortion(src, tc, hamming_distortion(2), 0.1, 0.4, 20, 10,
                                 RngStream(1))

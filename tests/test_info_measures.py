"""Entropies, divergences, capacity, and the rate-distortion solver."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import xlogy

from ptshannon import (
    Channel,
    Distribution,
    JointDistribution,
    binary_entropy,
    binary_symmetric_channel,
    capacity,
    conditional_entropy,
    conditional_mutual_information,
    entropy,
    hamming_distortion,
    joint_from,
    make_distribution,
    mutual_information,
    rate_distortion,
    relative_information,
    uniform_distribution,
)
from ptshannon.errors import DimensionMismatch, InfeasibleDistortion, InvalidDistribution
from ptshannon.info_measures import _xlogx, joint_entropy

from oracles import binary_input_capacity

LN2 = math.log(2.0)


# --- entropy family -----------------------------------------------------------

def test_entropy_examples():
    assert entropy(uniform_distribution(2)) == pytest.approx(LN2, abs=1e-12)
    assert entropy(Distribution(np.array([1.0, 0.0]))) == 0.0
    # direct evaluation of -sum p ln p
    assert entropy(make_distribution([0.9, 0.1])) == pytest.approx(
        -(0.9 * math.log(0.9) + 0.1 * math.log(0.1)), abs=1e-15)
    assert entropy(make_distribution([0.9, 0.1])) == pytest.approx(0.325083, abs=1e-6)


def test_conditional_entropy_examples():
    prod = JointDistribution(np.outer([0.3, 0.7], [0.4, 0.6]))
    assert conditional_entropy(prod) == pytest.approx(
        entropy(prod.marginal_y()), abs=1e-12)
    diag = JointDistribution(np.diag([0.5, 0.5]))
    assert conditional_entropy(diag) == pytest.approx(0.0, abs=1e-12)
    bsc = joint_from(binary_symmetric_channel(0.1), uniform_distribution(2))
    assert conditional_entropy(bsc) == pytest.approx(binary_entropy(0.1), abs=1e-12)
    assert binary_entropy(0.1) == pytest.approx(0.325083, abs=1e-6)


def test_xlogx_matches_xlogy():
    gen = np.random.default_rng(5)
    x = np.concatenate([[0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 0.5, 1.0, 3.0],
                        gen.random(10**4), 10.0 ** gen.uniform(-320, 0, 10**4)])
    np.testing.assert_allclose(_xlogx(x), xlogy(x, x), rtol=1e-15, atol=0)
    assert _xlogx(0.0) == 0.0
    assert _xlogx(np.zeros((2, 3))).shape == (2, 3)


def test_binary_entropy_rejects_out_of_range():
    assert binary_entropy(0.0) == 0.0 and binary_entropy(1.0) == 0.0
    for p in (-0.1, 1.5, math.nan):
        with pytest.raises(InvalidDistribution):
            binary_entropy(p)


def test_conditional_entropy_is_chain_rule():
    gen = np.random.default_rng(1)
    m = gen.random((3, 5))
    j = JointDistribution(m / m.sum())
    assert conditional_entropy(j) == pytest.approx(
        joint_entropy(j) - entropy(j.marginal_x()), abs=1e-12)


def test_mutual_information_examples():
    prod = JointDistribution(np.outer([0.3, 0.7], [0.4, 0.6]))
    assert mutual_information(prod) == pytest.approx(0.0, abs=1e-12)
    diag = JointDistribution(np.diag([0.5, 0.5]))
    assert mutual_information(diag) == pytest.approx(LN2, abs=1e-12)
    # direct sum over the 4 cells as an independent oracle
    j = joint_from(binary_symmetric_channel(0.11), uniform_distribution(2))
    cells = j.probs
    px = cells.sum(1, keepdims=True)
    py = cells.sum(0, keepdims=True)
    oracle = float((cells * np.log(cells / (px * py))).sum())
    assert mutual_information(j) == pytest.approx(oracle, abs=1e-12)
    assert mutual_information(j) == pytest.approx(LN2 - binary_entropy(0.11), abs=1e-12)


def test_mutual_information_identity():
    gen = np.random.default_rng(2)
    m = gen.random((4, 3))
    j = JointDistribution(m / m.sum())
    assert mutual_information(j) == pytest.approx(
        entropy(j.marginal_x()) + entropy(j.marginal_y()) - joint_entropy(j), abs=1e-12)
    assert mutual_information(j) >= 0


def test_conditional_mutual_information():
    # mutually independent triple
    p = np.einsum("i,j,k->ijk", [0.3, 0.7], [0.5, 0.5], [0.2, 0.8])
    assert conditional_mutual_information(p) == pytest.approx(0.0, abs=1e-12)
    # constant conditioner reduces to plain mutual information
    j = joint_from(binary_symmetric_channel(0.2), make_distribution([0.6, 0.4]))
    p = j.probs[:, :, None] * np.array([1.0])[None, None, :]
    assert conditional_mutual_information(p) == pytest.approx(
        mutual_information(j), abs=1e-12)
    # x = y = lambda uniform binary: conditioning removes all correlation
    p = np.zeros((2, 2, 2))
    p[0, 0, 0] = p[1, 1, 1] = 0.5
    assert conditional_mutual_information(p) == pytest.approx(0.0, abs=1e-12)


def test_conditional_mutual_information_rejects_nan():
    """A NaN entry is no probability: it fails the check as a negative one
    does, where p < 0 alone would pass it and return nan."""
    p = np.full((2, 2, 2), 0.125)
    p[0, 0, 0] = np.nan
    with pytest.raises(DimensionMismatch):
        conditional_mutual_information(p)


def test_rate_distortion_rejects_empty_distortion_matrix():
    """A matrix with no reproduction column is a shape error, not an empty
    minimum further on."""
    with pytest.raises(DimensionMismatch):
        rate_distortion(Distribution(np.array([1.0])), np.zeros((1, 0)), 0.1)


def test_relative_information():
    p = make_distribution([0.3, 0.7])
    assert relative_information(p, p) == 0.0
    point = Distribution(np.array([1.0, 0.0]))
    assert relative_information(point, uniform_distribution(2)) == pytest.approx(LN2)
    assert relative_information(uniform_distribution(2), point) == math.inf
    q = make_distribution([0.6, 0.4])
    assert relative_information(p, q) > 0


def test_subadditivity_random_joints():
    gen = np.random.default_rng(3)
    for _ in range(20):
        m = gen.random((3, 3))
        j = JointDistribution(m / m.sum())
        assert joint_entropy(j) <= entropy(j.marginal_x()) + entropy(j.marginal_y()) + 1e-12


def _product_extension_joint(channel: Channel, block_input: np.ndarray, n: int):
    """Joint of (x^n, y^n) for a DMC given an arbitrary input law on blocks.

    block_input is indexed by the base-|X| encoding of x^n.
    """
    nx, ny = channel.input_size, channel.output_size
    jx = block_input
    probs = np.zeros((nx**n, ny**n))
    for xi in range(nx**n):
        xs = [(xi // nx**k) % nx for k in range(n)]
        for yi in range(ny**n):
            ys = [(yi // ny**k) % ny for k in range(n)]
            probs[xi, yi] = jx[xi] * math.prod(channel.rows[a, b] for a, b in zip(xs, ys))
    return JointDistribution(probs)


def test_dmc_mutual_information_independence_bound():
    """Brute-force block MI is at most the sum of per-letter MIs, with
    equality exactly when the input letters are independent."""
    ch = binary_symmetric_channel(0.2)
    for n in (2, 3, 4):
        # independent letters: equality
        p = make_distribution([0.3, 0.7]).probs
        block = np.ones(2**n)
        for xi in range(2**n):
            block[xi] = math.prod(p[(xi // 2**k) % 2] for k in range(n))
        j_big = _product_extension_joint(ch, block, n)
        per_letter = mutual_information(joint_from(ch, make_distribution(p)))
        assert mutual_information(j_big) == pytest.approx(n * per_letter, abs=1e-10)
        # strongly correlated letters: strict inequality
        block = np.zeros(2**n)
        block[0] = 0.55
        block[-1] = 0.45
        j_big = _product_extension_joint(ch, block, n)
        marg = mutual_information(joint_from(ch, make_distribution([0.55, 0.45])))
        assert mutual_information(j_big) < n * marg - 1e-6


# --- capacity -------------------------------------------------------------------

def test_capacity_identity_channel():
    res = capacity(Channel(np.eye(2)))
    assert res.capacity_nats == pytest.approx(LN2, abs=1e-9)
    assert np.allclose(res.optimal_input.probs, [0.5, 0.5], atol=1e-6)
    assert res.gap_bound <= 1e-9


def test_capacity_nan_tol_rejected():
    """A NaN tolerance raises as a zero one does, before any step."""
    for tol in (0.0, math.nan):
        with pytest.raises(ValueError, match="tol must be positive"):
            capacity(binary_symmetric_channel(0.1), tol=tol)


def test_capacity_useless_channel():
    res = capacity(Channel(np.array([[0.3, 0.7], [0.3, 0.7]])))
    assert res.capacity_nats == pytest.approx(0.0, abs=1e-12)


def test_capacity_ignores_unreached_outputs():
    rows = np.array([[0.9, 0.1], [0.2, 0.8]])
    res = capacity(Channel(rows))
    padded = capacity(Channel(np.array([[0.9, 0.0, 0.1], [0.2, 0.0, 0.8]])))
    assert padded.capacity_nats == res.capacity_nats
    assert padded.iterations == res.iterations
    assert padded.gap_bound <= 1e-9


def test_capacity_bsc_closed_form():
    res = capacity(binary_symmetric_channel(0.11), tol=1e-10)
    assert res.capacity_nats == pytest.approx(LN2 - binary_entropy(0.11), abs=1e-9)


def test_capacity_upper_bounds_any_input():
    gen = np.random.default_rng(4)
    ch = Channel(np.array([[0.7, 0.2, 0.1], [0.1, 0.6, 0.3]]))
    c = capacity(ch, 1e-10)
    assert c.capacity_nats <= math.log(2) + 1e-12  # ln(min(in, out))
    for _ in range(100):
        w = gen.random(2)
        mi = mutual_information(joint_from(ch, make_distribution(w)))
        assert c.capacity_nats >= mi - 1e-9


@given(st.lists(st.lists(st.integers(0, 9), min_size=4, max_size=4).filter(any),
                min_size=2, max_size=2),
       st.integers(2, 4))
def test_capacity_gap_bounds_error_binary_input(weights, outputs):
    rows = np.array(weights, dtype=float)[:, :outputs]
    rows[:, 0] += 1.0  # every row keeps some mass
    rows /= rows.sum(axis=1, keepdims=True)
    res = capacity(Channel(rows))
    # the 1e-12 is rounding in the two independent evaluations
    assert abs(res.capacity_nats - binary_input_capacity(rows)) <= res.gap_bound + 1e-12


# --- rate-distortion ---------------------------------------------------------------

def test_rate_distortion_zero_distortion_is_entropy():
    src = make_distribution([0.9, 0.1])
    pt = rate_distortion(src, hamming_distortion(2), 0.0)
    assert pt.rate_nats == pytest.approx(entropy(src), abs=1e-7)
    # a symbol the source never emits has no part in the rate
    pt = rate_distortion(make_distribution([0.9, 0.1, 0.0]), hamming_distortion(3), 0.0)
    assert pt.rate_nats == pytest.approx(entropy(src), abs=1e-7)
    assert pt.distortion == 0.0


def test_rate_distortion_large_d_is_zero_rate():
    src = make_distribution([0.9, 0.1])
    pt = rate_distortion(src, hamming_distortion(2), 0.5)
    assert pt.rate_nats == 0.0
    assert pt.distortion <= 0.5


def test_rate_distortion_binary_hamming_closed_form():
    u = uniform_distribution(2)
    pt = rate_distortion(u, hamming_distortion(2), 0.1)
    assert pt.rate_nats == pytest.approx(LN2 - binary_entropy(0.1), abs=1e-6)
    # returned channel is consistent: meets the budget and realizes the rate
    j = joint_from(pt.optimal_test_channel, u)
    assert float((j.probs * hamming_distortion(2)).sum()) <= 0.1 + 1e-7
    assert mutual_information(j) == pytest.approx(pt.rate_nats, abs=1e-9)


def test_rate_distortion_reports_iterations():
    u, d = uniform_distribution(2), hamming_distortion(2)
    loose = rate_distortion(u, d, 0.1, tol=1e-6)
    tight = rate_distortion(u, d, 0.1, tol=1e-12)
    assert 1 <= loose.iterations <= tight.iterations
    assert tight.gap_bound <= 1e-12
    assert rate_distortion(u, d, 0.5).iterations == 0  # rate zero: no loop


def test_rate_distortion_monotone_and_convex():
    u = uniform_distribution(2)
    d = hamming_distortion(2)
    grid = np.linspace(0.02, 0.4, 12)
    rates = [rate_distortion(u, d, float(D)).rate_nats for D in grid]
    for a, b in zip(rates, rates[1:]):
        assert b <= a + 1e-9
    for i in range(len(grid) - 2):
        for lam in (0.25, 0.5, 0.75):
            dm = lam * grid[i + 2] + (1 - lam) * grid[i]
            rm = rate_distortion(u, d, float(dm)).rate_nats
            assert rm <= lam * rates[i + 2] + (1 - lam) * rates[i] + 1e-7


def test_rate_distortion_lower_bounds_admissible_joints():
    """R(E_Q[d]) <= I(Q) for any joint Q with the right source marginal."""
    gen = np.random.default_rng(6)
    src = make_distribution([0.6, 0.4])
    # Hamming, and two non-square matrices, one with no zero in a row; their
    # Q lean toward low distortion, so E_Q[d] falls below the rate-zero point
    for d, lean in ((hamming_distortion(2), 0.0),
                    (np.array([[0.1, 2.0, 1.5], [2.0, 1.0, 1.5]]), 2.0),
                    (np.array([[0.0, 1.0, 0.4], [1.0, 0.0, 0.4]]), 2.0)):
        for _ in range(20):
            rows = (gen.random(d.shape) + 0.05) * np.exp(-lean * d)
            rows /= rows.sum(1, keepdims=True)
            j = joint_from(Channel(rows), src)
            dq = float((j.probs * d).sum())
            pt = rate_distortion(src, d, dq)
            assert math.isfinite(pt.rate_nats)
            assert pt.rate_nats <= mutual_information(j) + 1e-6


def test_rate_distortion_below_least_distortion_raises():
    src = uniform_distribution(2)
    d = np.array([[1.0, 2.0, 1.5], [2.0, 1.0, 1.5]])  # least distortion 1.0
    with pytest.raises(InfeasibleDistortion, match="D = 0.3"):
        rate_distortion(src, d, 0.3)
    with pytest.raises(InfeasibleDistortion):
        rate_distortion(src, hamming_distortion(2), -0.1)
    # the boundary itself is met exactly, by the zero-excess cells
    pt = rate_distortion(src, d, 1.0)
    assert pt.distortion == pytest.approx(1.0, abs=1e-12)
    assert pt.rate_nats == pytest.approx(LN2, abs=1e-9)


def test_rate_distortion_nan_parameters_rejected():
    """A NaN distortion is infeasible, as a negative one is, and a NaN
    tolerance raises as a zero one does, before any step."""
    src, d = uniform_distribution(2), hamming_distortion(2)
    with pytest.raises(InfeasibleDistortion):
        rate_distortion(src, d, math.nan)
    for tol in (0.0, math.nan):
        with pytest.raises(ValueError, match="tol must be positive"):
            rate_distortion(src, d, 0.1, tol=tol)


def test_rate_distortion_infinite_distortion_rejected():
    """An infinite entry is rejected before any step, instead of running the
    loop to its step cap."""
    d = np.array([[0.0, math.inf], [1.0, 0.0]])
    with pytest.raises(InfeasibleDistortion, match="finite"):
        rate_distortion(uniform_distribution(2), d, 0.1)


def test_rate_distortion_at_vanishing_reproduction():
    """D = (N-1) p_min, where the optimal reproduction law loses a symbol."""
    p = np.array([0.5, 0.3, 0.2])
    D = 0.4
    closed = float(-(p * np.log(p)).sum()) - binary_entropy(D) - D * math.log(2)
    pt = rate_distortion(Distribution(p), hamming_distortion(3), D, tol=1e-7)
    assert abs(pt.rate_nats - closed) <= pt.gap_bound <= 1e-7
    j = joint_from(pt.optimal_test_channel, Distribution(p))
    assert float((j.probs * hamming_distortion(3)).sum()) <= D + 1e-12
    assert mutual_information(j) == pytest.approx(pt.rate_nats, abs=1e-12)


@given(st.lists(st.integers(1, 9), min_size=2, max_size=3),
       st.lists(st.lists(st.integers(1, 8), min_size=4, max_size=4), min_size=3, max_size=3),
       st.integers(2, 4))
def test_rate_distortion_non_increasing_and_convex(weights, entries, reproductions):
    src = make_distribution(weights)
    d = np.array(entries, dtype=float)[:len(weights), :reproductions] / 4.0
    if d.shape[0] == d.shape[1]:
        np.fill_diagonal(d, 0.0)
    least = float(src.probs @ d.min(axis=1))
    rate_zero = float((src.probs @ d).min())
    grid = least + (rate_zero - least) * np.arange(7) / 6.0
    pts = [rate_distortion(src, d, float(D), tol=1e-8) for D in grid]
    r = [pt.rate_nats for pt in pts]
    gap = [pt.gap_bound for pt in pts]
    # each reported rate lies within its gap above R(D), so these are the
    # certified forms of R(D) non-increasing and convex; 1e-12 is rounding
    for k in range(1, len(grid)):
        assert r[k] <= r[k - 1] + gap[k] + 1e-12
    for k in range(1, len(grid) - 1):
        assert r[k] - gap[k] <= 0.5 * (r[k - 1] + r[k + 1]) + 1e-12


@given(st.lists(st.integers(2, 9), min_size=2, max_size=4), st.integers(1, 9))
def test_rate_distortion_gap_bounds_hamming_closed_form(weights, tenths):
    src = make_distribution(weights)
    n_sym = src.alphabet_size
    D = tenths / 10.0 * (n_sym - 1) * float(src.probs.min())
    closed = entropy(src) - binary_entropy(D) - D * math.log(n_sym - 1)
    pt = rate_distortion(src, hamming_distortion(n_sym), D)
    assert abs(pt.rate_nats - closed) <= pt.gap_bound + 1e-12



"""Type extraction, class sizes, enumeration, and the counting identities."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import gammaln

from ptshannon import (
    JointSequenceType,
    SequenceType,
    class_size,
    class_size_int,
    conditional_class_size,
    conditional_type,
    count_types,
    enumerate_types,
    iid_type_probability,
    joint_type_of,
    make_distribution,
    type_count_identity_check,
    type_of,
    uniform_distribution,
)
from ptshannon import type_classes
from ptshannon.errors import (
    DimensionMismatch,
    InstanceTooLarge,
    SupportViolation,
    SymbolOutOfAlphabet,
)
from ptshannon.type_classes import (
    ENUMERATION_GUARD,
    conditional_class_size_int,
    log_factorial,
    log_multinomial,
    multinomial_int,
    type_array,
    type_density_estimate,
)

from oracles import _compositions


# --- type extraction -----------------------------------------------------------

def test_type_of_counts():
    t = type_of([0, 0, 1], 2)  # "aab"
    assert t.counts == (2, 1) and t.n == 3
    assert type_of([1, 1, 1, 1], 2).counts == (0, 4)


def test_type_of_permutation_invariance():
    base = [0, 0, 1, 1]
    types = {type_of(list(p), 2).counts for p in itertools.permutations(base)}
    assert types == {(2, 2)}


def test_type_of_rejects_foreign_symbols():
    with pytest.raises(SymbolOutOfAlphabet):
        type_of([0, 2], 2)


@pytest.mark.parametrize("x, y", [([], []), ([[0, 1], [1, 0]], [[0, 0], [1, 1]])],
                         ids=["empty", "2-D"])
def test_joint_type_of_rejects_empty_or_non_1d(x, y):
    with pytest.raises(DimensionMismatch):
        joint_type_of(x, y, 2, 2)


def test_type_as_distribution():
    t = SequenceType((3, 1), 4)
    assert np.allclose(t.as_distribution().probs, [0.75, 0.25])


def test_diagonal_embedding():
    """Pairing a sequence with itself concentrates the joint type on the
    diagonal: T(x, y) = delta(x, y) T(x)."""
    seq = [0, 1, 1, 0, 1]
    jt = joint_type_of(seq, seq, 2, 2)
    m = jt.matrix()
    assert m[0, 1] == m[1, 0] == 0
    assert tuple(np.diag(m)) == type_of(seq, 2).counts


# --- class sizes ------------------------------------------------------------------

def test_class_size_small_binary_by_enumeration():
    members = sum(
        1 for bits in itertools.product([0, 1], repeat=4)
        if type_of(list(bits), 2).counts == (2, 2)
    )
    assert members == 6
    assert class_size_int(SequenceType((2, 2), 4)) == 6
    assert class_size(SequenceType((2, 2), 4)).exact_log == pytest.approx(math.log(6))


def test_class_size_constant_sequence():
    assert class_size_int(SequenceType((5, 0), 5)) == 1
    assert class_size(SequenceType((5, 0), 5)).exact_log == 0.0


def test_stirling_estimate_balanced_binary():
    errs = []
    for n in range(20, 201, 20):
        cs = class_size(SequenceType((n // 2, n // 2), n))
        errs.append(abs(math.expm1(cs.stirling_log - cs.exact_log)))
    assert errs[4] < 0.01  # n = 100
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_multinomial_int_matches_log_gamma():
    counts = (5, 3, 2)
    assert multinomial_int(counts) == math.factorial(10) // (
        math.factorial(5) * math.factorial(3) * math.factorial(2))
    assert log_multinomial(counts) == pytest.approx(math.log(multinomial_int(counts)))


def test_log_factorial_matches_gammaln():
    # math.lgamma and gammaln differ in the last bits here (up to ~1e-9 absolute)
    k = np.arange(2 * 10**5 + 1)
    np.testing.assert_allclose(log_factorial(k), gammaln(k + 1.0), rtol=1e-12, atol=0)
    assert log_factorial(0) == 0.0 and log_factorial(1) == 0.0
    assert log_factorial(np.zeros((0, 3), dtype=np.int64)).shape == (0, 3)


def test_log_factorial_rejects_negative():
    with pytest.raises(DimensionMismatch):
        log_factorial([3, -1])


def test_log_multinomial_row_wise_matches_gammaln():
    gen = np.random.default_rng(11)
    for shape, top in (((2000, 3), 600), ((50, 5), 2 * 10**5), ((7, 1), 10)):
        counts = gen.integers(0, top, size=shape)
        ref = gammaln(counts.sum(axis=1) + 1.0) - gammaln(counts + 1.0).sum(axis=1)
        rows = log_multinomial(counts)
        np.testing.assert_allclose(rows, ref, rtol=1e-12, atol=1e-12)
        assert all(log_multinomial(c) == r for c, r in zip(counts, rows))
    assert isinstance(log_multinomial((5, 3, 2)), float)
    assert log_multinomial(np.zeros((0, 3), dtype=np.int64)).shape == (0,)


# --- enumeration ------------------------------------------------------------------

def test_enumerate_types_counts():
    assert sum(1 for _ in enumerate_types(2, 10)) == 11
    assert count_types(2, 10) == 11
    assert sum(1 for _ in enumerate_types(1, 7)) == 1
    assert count_types(3, 4) == 15
    assert sum(1 for _ in enumerate_types(3, 4)) == 15


def test_enumerate_types_is_lexicographic_and_reproducible():
    first = [t.counts for t in enumerate_types(3, 3)]
    assert first == sorted(first)
    assert first == [t.counts for t in enumerate_types(3, 3)]


def test_enumerate_types_guard_checked_before_any_work(monkeypatch):
    """Over the guard, enumeration fails at its first step without building
    the type array."""
    assert count_types(4, 400) > ENUMERATION_GUARD

    def unreachable(*args):
        raise AssertionError("type_array built past the guard")

    monkeypatch.setattr(type_classes, "type_array", unreachable)
    with pytest.raises(InstanceTooLarge):
        next(enumerate_types(4, 400))


@given(parts=st.integers(1, 5), n=st.integers(0, 12))
def test_type_array_matches_compositions(parts, n):
    """The stars-and-bars array holds the recursive oracle's vectors, in its
    order."""
    arr = type_array(parts, n)
    assert arr.dtype == np.int64
    assert arr.shape == (count_types(parts, n), parts)
    assert [tuple(row) for row in arr.tolist()] == list(_compositions(n, parts))


@given(parts=st.integers(1, 4), n=st.integers(0, 9))
def test_type_array_partitions_sequence_space(parts, n):
    """The classes of type_array(N, n) tile N^n: distinct rows, each summing
    to n, count_types of them, and multinomial sizes adding up to N^n."""
    arr = type_array(parts, n)
    rows = [tuple(row) for row in arr.tolist()]
    assert len(set(rows)) == len(rows) == count_types(parts, n)
    assert all(sum(row) == n for row in rows)
    assert sum(multinomial_int(row) for row in rows) == parts**n


def test_type_array_rejects_empty_alphabet():
    with pytest.raises(DimensionMismatch):
        type_array(0, 3)
    with pytest.raises(DimensionMismatch):
        type_array(2, -1)


@pytest.mark.parametrize("count", [count_types, type_density_estimate])
@pytest.mark.parametrize("alphabet_size, n", [(0, 3), (-1, 3), (2, -1)])
def test_type_counts_reject_empty_alphabet_and_negative_n(count, alphabet_size, n):
    """As type_array does: not math's bare ValueError for an empty alphabet,
    nor a count of 0 (or -1.0) at n = -1."""
    with pytest.raises(DimensionMismatch):
        count(alphabet_size, n)


def test_type_density_asymptotic():
    for N in (2, 3):
        for n in (50, 100, 200):
            ratio = count_types(N, n) / type_density_estimate(N, n)
            assert 1.0 <= ratio <= 1.0 + 3.0 * N / n
    # the binary ratio is (n+1)/n exactly
    assert count_types(2, 64) / type_density_estimate(2, 64) == pytest.approx(65 / 64)


# --- sequence probabilities ---------------------------------------------------------

def test_iid_type_probability_examples():
    point = make_distribution([1.0, 0.0])
    assert iid_type_probability(SequenceType((6, 0), 6), point) == 0.0
    u = uniform_distribution(2)
    assert iid_type_probability(SequenceType((3, 7), 10), u) == pytest.approx(
        -10 * math.log(2))
    with pytest.raises(SupportViolation):
        iid_type_probability(SequenceType((5, 1), 6), point)


def test_partition_identity_exact():
    """Class sizes tile the sequence space and normalize any i.i.d. law."""
    q = make_distribution([0.9, 0.1])
    for n in (5, 12):
        total = 0
        prob = 0.0
        for t in enumerate_types(2, n):
            size = class_size_int(t)
            total += size
            prob += size * math.exp(iid_type_probability(t, q))
        assert total == 2**n
        assert prob == pytest.approx(1.0, abs=1e-12)
    q3 = make_distribution([0.5, 0.3, 0.2])
    total = sum(class_size_int(t) for t in enumerate_types(3, 9))
    assert total == 3**9


# --- conditional types ----------------------------------------------------------------

def test_conditional_type_examples():
    ident = conditional_type(JointSequenceType(((2, 0), (0, 2)), 4))
    assert np.allclose(ident, np.eye(2))
    unif = conditional_type(JointSequenceType(((1, 1), (1, 1)), 4))
    assert np.allclose(unif, 0.5)
    partial = conditional_type(JointSequenceType(((3, 1), (0, 0)), 4))
    assert np.allclose(partial[0], [0.75, 0.25])
    assert np.all(np.isnan(partial[1]))


def test_conditional_type_reconstructs_joint():
    jt = JointSequenceType(((3, 1), (2, 2)), 8)
    cond = conditional_type(jt)
    marg = jt.marginal_x().as_distribution().probs
    assert np.allclose(cond * marg[:, None], jt.matrix() / jt.n)


def test_conditional_class_size_examples():
    assert conditional_class_size(JointSequenceType(((1, 0), (0, 1)), 2)) == pytest.approx(0.0)
    # deterministic y = x: one conditional sequence per x-sequence
    for counts in (((3, 0), (0, 5)), ((2, 0), (0, 2))):
        jt = JointSequenceType(counts, sum(map(sum, counts)))
        assert conditional_class_size(jt) == pytest.approx(0.0, abs=1e-12)
    jt = JointSequenceType(((2, 1), (1, 0)), 4)
    assert conditional_class_size_int(jt) == 3
    assert conditional_class_size(jt) == pytest.approx(math.log(3))


def test_conditional_class_size_matches_enumeration():
    """The log-gamma conditional class size is the log of the exact integer
    count; the claims row conditional_class_count checks that count against
    a brute-force enumeration of every y-sequence."""
    for n in (4, 6, 8):
        for jt_counts in (((2, 1), (1, n - 4)), ((1, 1), (1, n - 3)), ((0, 2), (2, n - 4))):
            if min(min(r) for r in jt_counts) < 0:
                continue
            jt = JointSequenceType(jt_counts, n)
            assert conditional_class_size(jt) == pytest.approx(
                math.log(conditional_class_size_int(jt)), abs=1e-12)


def test_chain_rule_identities_small():
    rep = type_count_identity_check(2, 2, 3)
    assert rep.lhs_class_count == rep.rhs_class_count
    assert rep.lhs_sequence_count == rep.rhs_sequence_count
    assert rep.rhs_sequence_count == 64
    rep6 = type_count_identity_check(2, 2, 6)
    assert rep6.lhs_class_count == rep6.rhs_class_count
    assert rep6.lhs_sequence_count == rep6.rhs_sequence_count


def test_chain_rule_reduces_for_trivial_x():
    rep = type_count_identity_check(1, 3, 5)
    assert rep.lhs_class_count == count_types(3, 5)
    assert rep.lhs_class_count == rep.rhs_class_count


def test_chain_rule_guard():
    with pytest.raises(InstanceTooLarge):
        type_count_identity_check(4, 4, 400)

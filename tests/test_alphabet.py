"""Probability containers and RNG streams."""

import numpy as np
import pytest

from ptshannon import (
    Channel,
    Distribution,
    JointDistribution,
    RngStream,
    binary_symmetric_channel,
    info_ratio,
    joint_from,
    make_distribution,
    uniform_distribution,
)
from ptshannon.errors import (
    AllZero,
    DimensionMismatch,
    InvalidDistribution,
    NegativeWeight,
    SymbolOutOfAlphabet,
    ZeroMarginal,
)


def test_make_distribution_normalizes():
    assert np.allclose(make_distribution([1, 1]).probs, [0.5, 0.5])
    assert np.allclose(make_distribution([9, 1]).probs, [0.9, 0.1])


def test_make_distribution_rejects_bad_weights():
    with pytest.raises(AllZero):
        make_distribution([0, 0])
    with pytest.raises(NegativeWeight):
        make_distribution([1, -0.5])


def test_distribution_invariants_enforced():
    with pytest.raises(InvalidDistribution):
        Distribution(np.array([0.5, 0.4]))
    with pytest.raises(NegativeWeight):
        Distribution(np.array([1.2, -0.2]))
    d = Distribution(np.array([0.25, 0.75]))
    with pytest.raises(ValueError):
        d.probs[0] = 1.0  # frozen storage


def test_channel_rows_validated():
    with pytest.raises(InvalidDistribution):
        Channel(np.array([[0.5, 0.4], [0.5, 0.5]]))
    ch = binary_symmetric_channel(0.1)
    assert ch.input_size == ch.output_size == 2



def test_distribution_rejects_nan():
    """NaN is no probability: it fails as a negative entry does, where
    abs(sum - 1) > tol alone would pass it (every comparison with NaN is
    False)."""
    with pytest.raises(NegativeWeight):
        Distribution(np.array([np.nan, np.nan]))


def test_channel_rejects_nan():
    with pytest.raises(NegativeWeight):
        Channel(np.array([[np.nan, np.nan], [0.5, 0.5]]))


def test_joint_distribution_rejects_nan():
    with pytest.raises(NegativeWeight):
        JointDistribution(np.array([[np.nan, 0.5], [0.25, 0.25]]))


def test_make_distribution_rejects_nan():
    with pytest.raises(NegativeWeight):
        make_distribution([np.nan, 1.0])

def test_joint_from_identity_channel():
    ident = Channel(np.eye(2))
    j = joint_from(ident, uniform_distribution(2))
    assert np.allclose(j.probs, np.diag([0.5, 0.5]))


def test_joint_from_uniform_rows_gives_product():
    ch = Channel(np.full((2, 3), 1.0 / 3))
    src = make_distribution([2, 1])
    j = joint_from(ch, src)
    assert np.allclose(j.probs, np.outer(src.probs, np.full(3, 1 / 3)))


def test_joint_from_bsc_entries():
    j = joint_from(binary_symmetric_channel(0.1), make_distribution([0.7, 0.3]))
    assert np.allclose(j.probs, [[0.63, 0.07], [0.03, 0.27]])


def test_joint_from_marginal_roundtrip():
    ch = Channel(np.array([[0.2, 0.5, 0.3], [0.6, 0.1, 0.3]]))
    src = make_distribution([0.35, 0.65])
    j = joint_from(ch, src)
    assert np.allclose(j.marginal_x().probs, src.probs, atol=1e-12)


def test_joint_from_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        joint_from(binary_symmetric_channel(0.1), uniform_distribution(3))


def test_info_ratio_values():
    prod = JointDistribution(np.outer([0.3, 0.7], [0.4, 0.6]))
    assert info_ratio(prod, 0, 1) == pytest.approx(1.0)
    diag = JointDistribution(np.diag([0.5, 0.5]))
    assert info_ratio(diag, 0, 0) == pytest.approx(2.0)
    assert info_ratio(diag, 0, 1) == 0.0


def test_info_ratio_zero_marginal_rejected():
    j = JointDistribution(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ZeroMarginal):
        info_ratio(j, 1, 0)


@pytest.mark.parametrize("x, y", [(-1, 0), (2, 0), (0, -1), (0, 2)])
def test_info_ratio_rejects_foreign_symbols(x, y):
    """A negative symbol is not read by wraparound as the last one."""
    with pytest.raises(SymbolOutOfAlphabet):
        info_ratio(joint_from(binary_symmetric_channel(0.1), uniform_distribution(2)), x, y)


@pytest.mark.parametrize("n", [0, -1])
def test_uniform_distribution_rejects_empty_alphabet(n):
    with pytest.raises(DimensionMismatch):
        uniform_distribution(n)


def test_info_ratio_expectations_are_one():
    gen = np.random.default_rng(5)
    for _ in range(10):
        m = gen.random((3, 4))
        j = JointDistribution(m / m.sum())
        r = j.probs / (j.probs.sum(1, keepdims=True) * j.probs.sum(0, keepdims=True))
        # E_x P(x:y) = 1 at every y, and E_y P(x:y) = 1 at every x
        ex = (j.probs.sum(axis=1)[:, None] * r).sum(axis=0)
        ey = (j.probs.sum(axis=0)[None, :] * r).sum(axis=1)
        assert np.allclose(ex, 1.0, atol=1e-12)
        assert np.allclose(ey, 1.0, atol=1e-12)


def test_rng_stream_substreams_differ_and_reproduce():
    base = RngStream(7)
    a, b = base.substream(0), base.substream(1)
    assert a != b
    assert np.array_equal(a.generator().random(8), base.substream(0).generator().random(8))
    assert not np.array_equal(a.generator().random(8), b.generator().random(8))



def _trial_draws(gen: np.random.Generator, i: int) -> tuple:
    """A literal trial's draws (a codebook's uniforms, a sent index, a
    tie-break uniform) and an odd number of 32-bit draws, which leave half a
    64-bit word buffered."""
    return (gen.random((i % 5 + 1, 3)), gen.integers(1000 + i), gen.random(),
            gen.integers(2**20, size=2 * (i % 3) + 1, dtype=np.int32))


def test_substream_generators_replay_each_substream():
    """Walking substreams 0..63 with one re-keyed Philox draws what a fresh
    generator per substream draws, so no state carries over from one
    substream to the next."""
    base = RngStream(2**63 + 5, 7)
    assert sum(1 for _ in base.substream_generators(64)) == 64
    for i, gen in enumerate(base.substream_generators(64)):
        want = _trial_draws(base.substream(i).generator(), i)
        got = _trial_draws(gen, i)
        assert all(np.array_equal(a, b) for a, b in zip(got, want)), i

"""Core probability objects over finite alphabets.

Symbols are integers ``0 .. N-1``.  All containers are immutable after
construction and validate their normalization invariants eagerly, so
downstream numerics never have to re-check them.  Randomness flows through
:class:`RngStream`, a counter-based (Philox) stream keyed by
``(seed, stream_index)``: the same key always reproduces the same draws, and
substreams derived by index are independent of scheduling, which keeps
parallel Monte Carlo runs reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AllZero,
    DimensionMismatch,
    InvalidDistribution,
    InvalidParameter,
    NegativeWeight,
    SymbolOutOfAlphabet,
    ZeroMarginal,
)

NORM_TOL = 1e-12


def _as_float_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise DimensionMismatch(f"{name} must be a non-empty 1-D array")
    return arr


def _check_probs(p: np.ndarray, name: str) -> None:
    if np.any(~(p >= 0)):
        raise NegativeWeight(f"{name} has a negative or NaN entry")
    if abs(float(p.sum()) - 1.0) > NORM_TOL:
        raise InvalidDistribution(f"{name} entries sum to {p.sum()!r}, not 1")


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=float, copy=True)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Distribution:
    """Probability vector over a finite alphabet."""

    probs: np.ndarray

    def __post_init__(self):
        p = _as_float_vector(self.probs, "probs")
        _check_probs(p, "Distribution")
        object.__setattr__(self, "probs", _freeze(p))

    @property
    def alphabet_size(self) -> int:
        return self.probs.size

    def __eq__(self, other) -> bool:
        return isinstance(other, Distribution) and np.array_equal(self.probs, other.probs)

    def __hash__(self):
        return hash(self.probs.tobytes())


@dataclass(frozen=True)
class JointDistribution:
    """Joint probability matrix over a pair alphabet, entry (x, y)."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 2 or p.size == 0:
            raise DimensionMismatch("joint probs must be a 2-D matrix")
        _check_probs(p, "JointDistribution")
        object.__setattr__(self, "probs", _freeze(p))
        # both marginals must themselves be valid Distributions
        self.marginal_x()
        self.marginal_y()

    def marginal_x(self) -> Distribution:
        return Distribution(self.probs.sum(axis=1))

    def marginal_y(self) -> Distribution:
        return Distribution(self.probs.sum(axis=0))


@dataclass(frozen=True)
class Channel:
    """Row-stochastic matrix; row x holds P(y|x)."""

    rows: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rows, dtype=float)
        if r.ndim != 2 or r.size == 0:
            raise DimensionMismatch("channel rows must form a 2-D matrix")
        for i, row in enumerate(r):
            _check_probs(row, f"channel row {i}")
        object.__setattr__(self, "rows", _freeze(r))

    @property
    def input_size(self) -> int:
        return self.rows.shape[0]

    @property
    def output_size(self) -> int:
        return self.rows.shape[1]


def _splitmix64(x: int) -> int:
    """Avalanche mix of a 64-bit integer (splitmix64 finalizer)."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream: (seed, stream_index) fixes all draws.

    ``generator()`` returns a fresh Philox generator positioned at the start
    of the stream, so two calls with the same key replay the same sequence.
    ``substream(i)`` derives an independent child stream deterministically.
    The simulators key each unit of work by index: a block of trials draws
    from ``substream(b)`` for block index b (a literal-codebook trial from
    ``substream(i)`` for trial index i), always in full, so trial i's outcome
    depends only on (seed, i) and runs stay reproducible under any worker
    scheduling.  A literal trial reads its symbols from raw Philox words,
    four 16-bit prefixes to a word and one more word for each symbol whose
    prefix leaves it undecided, and its sent index and ML tie-break through
    the generator's own methods.  ``substream_generators(k)`` walks
    substreams 0..k-1 in order without seeding a Philox per substream.
    """

    seed: int
    stream_index: int = 0

    def __post_init__(self):
        if not (0 <= int(self.seed) < 2**64):
            raise InvalidParameter("seed must be a 64-bit unsigned integer")
        if int(self.stream_index) < 0:
            raise InvalidParameter("stream_index must be non-negative")

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream_index], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def substream(self, index: int) -> "RngStream":
        if index < 0:
            raise InvalidParameter("substream index must be non-negative")
        return RngStream(self.seed, self._child_index(index))

    def substream_generators(self, count: int):
        """The generators of ``substream(0)`` .. ``substream(count - 1)`` in
        order, each drawing what ``substream(i).generator()`` draws.  One
        Philox is seeded per call and re-keyed, counter and buffer reset, per
        substream, which costs about a tenth of seeding a new one; so every
        item is the same generator object, valid until the next is taken."""
        bitgen = np.random.Philox(key=np.array([self.seed, 0], dtype=np.uint64))
        gen = np.random.Generator(bitgen)
        fresh = bitgen.state  # counter 0, buffer empty
        for index in range(count):
            fresh["state"]["key"] = np.array([self.seed, self._child_index(index)],
                                             dtype=np.uint64)
            bitgen.state = fresh
            yield gen

    def _child_index(self, index: int) -> int:
        return _splitmix64((int(self.stream_index) * 0x9E3779B97F4A7C15 + index + 1)
                           & 0xFFFFFFFFFFFFFFFF)


# --- constructors and basic operations --------------------------------------

def make_distribution(weights) -> Distribution:
    """Normalize non-negative weights into a Distribution."""
    w = _as_float_vector(weights, "weights")
    if np.any(~(w >= 0)):
        raise NegativeWeight("weights must be non-negative numbers")
    total = float(w.sum())
    if total <= 0:
        raise AllZero("at least one weight must be positive")
    return Distribution(w / total)


def uniform_distribution(n: int) -> Distribution:
    if n < 1:
        raise DimensionMismatch("alphabet size must be >= 1")
    return Distribution(np.full(n, 1.0 / n))


def binary_symmetric_channel(crossover: float) -> Channel:
    """Binary channel flipping each symbol with the given probability."""
    if not 0.0 <= crossover <= 1.0:
        raise InvalidDistribution("crossover must lie in [0, 1]")
    return Channel(np.array([[1 - crossover, crossover], [crossover, 1 - crossover]]))


def joint_from(channel: Channel, input_dist: Distribution) -> JointDistribution:
    """Joint (x, y) distribution of an input pushed through a channel."""
    if channel.input_size != input_dist.alphabet_size:
        raise DimensionMismatch(
            f"channel expects {channel.input_size} input symbols, "
            f"distribution has {input_dist.alphabet_size}"
        )
    return JointDistribution(input_dist.probs[:, None] * channel.rows)


def info_ratio(joint: JointDistribution, x: int, y: int) -> float:
    """P(x, y) / (P(x) P(y)) for one symbol pair."""
    if not (0 <= x < joint.probs.shape[0] and 0 <= y < joint.probs.shape[1]):
        raise SymbolOutOfAlphabet(f"symbol pair ({x}, {y}) lies outside the joint alphabet")
    px = float(joint.probs[x, :].sum())
    py = float(joint.probs[:, y].sum())
    if px <= 0 or py <= 0:
        raise ZeroMarginal(f"marginal mass vanishes at x={x} (P={px}) or y={y} (P={py})")
    return float(joint.probs[x, y]) / (px * py)

"""Exact combinatorics of sequence types (empirical distributions).

A length-n sequence over an alphabet of size N has an occurrence-count vector
(its type); sequences sharing a type form a class whose size is the
multinomial coefficient n! / prod(counts!).  This module provides exact
class sizes (big-integer, and logs gathered from one log-factorial table), the
Stirling-based asymptotic size estimate, type enumeration, conditional types,
and the exact counting identities that tie them together.

Types are enumerated once, in lexicographic order: `type_array` gathers
every count vector into one row of an int64 array, one part at a time, for
numeric sums over the type lattice, and `enumerate_types` yields its rows
as `SequenceType` objects.  The identities checked here:

  * the classes partition the sequence space: sum of sizes = N^n;
  * conditional class size = joint class size / marginal class size;
  * summing conditional classes over marginal classes enumerates joint classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .alphabet import Distribution
from .errors import (
    DimensionMismatch,
    InstanceTooLarge,
    SupportViolation,
    SymbolOutOfAlphabet,
)

ENUMERATION_GUARD = 10**7

# ln k! for k < len(_LOG_FACTORIAL), extended by `log_factorial` on demand.
# Entries are a pure function of their index, so sharing the table is safe.
_LOG_FACTORIAL = np.zeros(2)


@dataclass(frozen=True)
class SequenceType:
    """Occurrence counts of each symbol in a length-n sequence."""

    counts: tuple
    n: int

    def __post_init__(self):
        counts = tuple(int(c) for c in self.counts)
        if any(c < 0 for c in counts):
            raise DimensionMismatch("counts must be non-negative")
        if sum(counts) != self.n:
            raise DimensionMismatch(f"counts sum to {sum(counts)}, expected n={self.n}")
        if self.n < 1:
            raise DimensionMismatch("n must be positive")
        object.__setattr__(self, "counts", counts)

    @property
    def alphabet_size(self) -> int:
        return len(self.counts)

    def as_distribution(self) -> Distribution:
        return Distribution(np.asarray(self.counts, dtype=float) / self.n)


@dataclass(frozen=True)
class JointSequenceType:
    """Occurrence counts over symbol pairs (x, y) for paired sequences."""

    counts: tuple  # tuple of row tuples
    n: int

    def __post_init__(self):
        rows = tuple(tuple(int(c) for c in row) for row in self.counts)
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise DimensionMismatch("joint counts must be rectangular")
        flat = [c for row in rows for c in row]
        if any(c < 0 for c in flat):
            raise DimensionMismatch("counts must be non-negative")
        if sum(flat) != self.n:
            raise DimensionMismatch("joint counts must sum to n")
        object.__setattr__(self, "counts", rows)

    def matrix(self) -> np.ndarray:
        return np.asarray(self.counts, dtype=np.int64)

    def marginal_x(self) -> SequenceType:
        return SequenceType(tuple(int(s) for s in self.matrix().sum(axis=1)), self.n)


@dataclass(frozen=True)
class ClassSize:
    """Exact and Stirling-approximate log class size."""

    exact_log: float
    stirling_log: float


# --- type extraction ----------------------------------------------------------

def type_of(seq: Sequence[int], alphabet_size: int) -> SequenceType:
    """Count symbol occurrences; invariant under permutations of seq."""
    arr = np.asarray(seq, dtype=np.int64)
    if arr.ndim != 1 or arr.size == 0:
        raise DimensionMismatch("sequence must be non-empty and 1-D")
    if arr.min() < 0 or arr.max() >= alphabet_size:
        raise SymbolOutOfAlphabet(
            f"symbols must lie in 0..{alphabet_size - 1}"
        )
    counts = np.bincount(arr, minlength=alphabet_size)
    return SequenceType(tuple(int(c) for c in counts), int(arr.size))


def joint_type_of(seq_x: Sequence[int], seq_y: Sequence[int],
                  nx: int, ny: int) -> JointSequenceType:
    x = np.asarray(seq_x, dtype=np.int64)
    y = np.asarray(seq_y, dtype=np.int64)
    if x.ndim != 1 or x.size == 0 or x.shape != y.shape:
        raise DimensionMismatch("paired sequences must be non-empty, 1-D and of equal length")
    if x.min() < 0 or x.max() >= nx or y.min() < 0 or y.max() >= ny:
        raise SymbolOutOfAlphabet("symbols out of declared alphabets")
    counts = np.zeros((nx, ny), dtype=np.int64)
    np.add.at(counts, (x, y), 1)
    return JointSequenceType(tuple(tuple(int(c) for c in row) for row in counts), int(x.size))


# --- class sizes ----------------------------------------------------------------

def multinomial_int(counts: Sequence[int]) -> int:
    """Exact big-integer multinomial coefficient n! / prod(counts!)."""
    total, out = 0, 1
    for c in counts:
        total += c
        out *= math.comb(total, c)
    return out


def log_factorial(k) -> np.ndarray:
    """ln k! for every entry of a non-negative integer array, gathered from a
    table of math.lgamma(i + 1) that grows to the largest k asked for."""
    global _LOG_FACTORIAL
    k = np.asarray(k, dtype=np.int64)
    if k.size and k.min() < 0:
        raise DimensionMismatch("log_factorial needs non-negative integers")
    table = _LOG_FACTORIAL
    top = int(k.max(initial=0))
    if top >= table.size:
        size, new = table.size, max(top + 1, 2 * table.size)
        grown = np.fromiter((math.lgamma(i + 1) for i in range(size, new)), dtype=float,
                            count=new - size)
        table = _LOG_FACTORIAL = np.concatenate([table, grown])
    return table[k]


def log_multinomial(counts):
    """ln of the multinomial coefficient n! / prod(counts!) of each row of
    counts, with n the row sum: a float for one count vector, an array for a
    2-D array of them."""
    counts = np.asarray(counts, dtype=np.int64)
    out = log_factorial(counts.sum(axis=-1)) - log_factorial(counts).sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def _masked_dot(counts: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Row-wise sum of counts*values skipping zero counts, so absent -inf
    values do not poison the result; values is one vector, or one row per
    row of counts.  Lattice weights and scores, transmitted block scores,
    exact lattice sums and the source encoder's cost all go through here,
    keeping floats bit-identical."""
    with np.errstate(invalid="ignore"):
        terms = np.where(counts > 0, counts * values, 0.0)
    return terms.sum(axis=1)


def class_size(t: SequenceType) -> ClassSize:
    """Exact log size next to the Stirling estimate.

    The estimate is exp(n H(T)) / ((2 pi n)^{(K-1)/2} sqrt(prod T)) with the
    product restricted to symbols of positive count (K of them); boundary
    types with zero counts are outside the estimate's validity domain and are
    handled by dropping the absent dimensions.
    """
    exact = log_multinomial(t.counts)
    counts = np.asarray(t.counts, dtype=float)
    pos = counts[counts > 0]
    T = pos / t.n
    k = pos.size
    h = float(-(T * np.log(T)).sum())
    stirling = t.n * h - 0.5 * (k - 1) * math.log(2 * math.pi * t.n) - 0.5 * float(np.log(T).sum())
    return ClassSize(exact, stirling)


def class_size_int(t: SequenceType) -> int:
    return multinomial_int(t.counts)


# --- enumeration -----------------------------------------------------------------

def type_array(parts: int, n: int) -> np.ndarray:
    """Every composition of n into `parts` non-negative parts as one
    C-contiguous (count_types(parts, n), parts) int64 array, in lexicographic
    order, built one part at a time from the 2-part array [c, n - c].

    The k-part rows with first count c are the last count_types(k - 1, n - c)
    rows of the (k - 1)-part array, c taken off their first count, so one
    repeat/arange index gathers every column; block sizes are the suffix sums
    of the last level's.  `count_types` checks the arguments; callers compare
    it with a guard first."""
    out = np.empty((count_types(parts, n), parts), dtype=np.int64)
    first = np.arange(n + 1)
    cols = [first, n - first] if parts > 1 else [n]
    sizes = np.ones(n + 1, dtype=np.int64)  # sizes[c] = count_types(k - 1, n - c)
    for _ in range(3, parts + 1):
        sizes = sizes[::-1].cumsum()[::-1]
        ends = sizes.cumsum()
        idx = np.arange(ends[-1]) + np.repeat(sizes[0] - ends, sizes)
        c = np.repeat(first, sizes)
        cols = [c, cols[0][idx] - c, *(col[idx] for col in cols[1:])]
    for j, col in enumerate(cols):
        out[:, j] = col
    return out


def enumerate_types(alphabet_size: int, n: int) -> Iterator[SequenceType]:
    """Every type with blocklength n, lexicographic in the count vector.  The
    whole `type_array` is built at the first step, after the size guard."""
    if alphabet_size < 1 or n < 1:
        raise DimensionMismatch("alphabet_size and n must be positive")
    if count_types(alphabet_size, n) > ENUMERATION_GUARD:
        raise InstanceTooLarge("type count exceeds the enumeration guard")
    for counts in type_array(alphabet_size, n).tolist():
        yield SequenceType(tuple(counts), n)


def count_types(alphabet_size: int, n: int) -> int:
    """Number of types: C(n + N - 1, N - 1) (stars and bars)."""
    if alphabet_size < 1 or n < 0:
        raise DimensionMismatch("alphabet_size must be positive and n non-negative")
    return math.comb(n + alphabet_size - 1, alphabet_size - 1)


def type_density_estimate(alphabet_size: int, n: int) -> float:
    """Leading-order type count n^{N-1} / (N-1)!."""
    if alphabet_size < 1 or n < 0:
        raise DimensionMismatch("alphabet_size must be positive and n non-negative")
    return float(n) ** (alphabet_size - 1) / math.factorial(alphabet_size - 1)


def iid_type_probability(t: SequenceType, q: Distribution) -> float:
    """log probability of any single sequence of type t under an i.i.d. source:
    n * sum_x T(x) ln q(x)."""
    if t.alphabet_size != q.alphabet_size:
        raise DimensionMismatch("type and distribution alphabets differ")
    counts = np.asarray(t.counts, dtype=float)
    mask = counts > 0
    if np.any(q.probs[mask] == 0):
        raise SupportViolation("type has counts where the source has zero mass")
    return float(np.sum(counts[mask] * np.log(q.probs[mask])))


# --- conditional types -----------------------------------------------------------

def conditional_type(joint: JointSequenceType) -> np.ndarray:
    """Row-normalized joint counts; rows with zero count come back as NaN
    (undefined marker) rather than numbers."""
    m = joint.matrix().astype(float)
    row_sums = m.sum(axis=1)
    if not np.any(row_sums > 0):
        raise DimensionMismatch("at least one row must have positive count")
    with np.errstate(invalid="ignore", divide="ignore"):
        out = m / row_sums[:, None]
    out[row_sums == 0, :] = np.nan
    return out


def conditional_class_size(joint: JointSequenceType) -> float:
    """log of the number of y-sequences pairing with a fixed x-sequence to
    realize this joint type: log d_joint - log d_x."""
    flat = [c for row in joint.counts for c in row]
    return log_multinomial(flat) - log_multinomial(joint.marginal_x().counts)


def conditional_class_size_int(joint: JointSequenceType) -> int:
    """Exact count: product over x of multinomial(N(x); row counts)."""
    return math.prod(multinomial_int(row) for row in joint.counts)


@dataclass(frozen=True)
class TypeCountReport:
    """Exact integers behind the chain-rule counting identities."""

    n: int
    nx: int
    ny: int
    lhs_class_count: int        # sum over x-classes of conditional-class tallies
    rhs_class_count: int        # number of joint classes
    lhs_sequence_count: int     # sum over x-classes of d_x * sum of d_{y|x}
    rhs_sequence_count: int     # (nx * ny)^n


def type_count_identity_check(nx: int, ny: int, n: int) -> TypeCountReport:
    """Verify the chain-rule counting identities by exact enumeration.

    For each x-type, conditional classes correspond to choices of per-row
    compositions; tallying them reproduces the joint-class count, and
    weighting by exact class sizes reproduces the full sequence count.
    """
    if count_types(nx, n) * count_types(ny, n) > ENUMERATION_GUARD:
        raise InstanceTooLarge("type grid exceeds the enumeration guard")
    lhs_classes = 0
    lhs_sequences = 0
    for counts in type_array(nx, n).tolist():
        d_x = multinomial_int(counts)
        cond_classes = 1
        cond_size_total = 1
        for cnt in counts:
            cond_classes *= count_types(ny, cnt)
            cond_size_total *= sum(map(multinomial_int, type_array(ny, cnt).tolist()))
        lhs_classes += cond_classes
        lhs_sequences += d_x * cond_size_total
    rhs_classes = count_types(nx * ny, n)
    rhs_sequences = (nx * ny) ** n
    return TypeCountReport(n, nx, ny, lhs_classes, rhs_classes,
                           lhs_sequences, rhs_sequences)

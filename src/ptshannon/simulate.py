"""Seeded Monte Carlo simulators of the three coding protocols.

All three draw fresh random structure per trial (annealed averaging): the
source simulator draws a source block and tests set membership; the channel
simulator draws a codebook, sends one codeword, and decodes it by maximum
likelihood (summed ln W) or by Feinstein's threshold: a word passes iff its
summed information ratio ln W(y|x) - ln P(y), from the one table of
:func:`~ptshannon.coding.log_info_ratio`, exceeds n*rate.  The
rate-distortion simulator draws a reproduction codebook from the marginal
q-hat = P of that table for the test channel, scores codewords by the table
transposed, and asks whether some codeword both clears the pairwise score
margin and meets the distortion budget.

Codebooks have floor(exp(n*rate)) rows.  A protocol can be simulated
literally (the materialize paths, which draw a codebook per trial from
substream i) or in an exact conditional form: given the block, the
competing codewords are i.i.d., so the trial's success probability is a
computable function of the block's type, and one Bernoulli draw per trial
reproduces the protocol's success distribution without materializing the
codebook.  Both paths are deterministic given (config, seed) and agree in
distribution.  ``method="auto"`` takes the conditional path unless its
largest score lattice is over ``LATTICE_GUARD`` while the literal run fits
``OPS_GUARD``.

Every word is scored through one score law, :class:`_ScoreLaw`: block
symbols that induce the same law on a codeword symbol pool into a group, and
a word's score (and, for rate-distortion, its distortion) depends on the
block only through its count on each atom of each group.  The law's one
table puts each (codeword, block) cell on its atom, and its one sum,
:func:`_atom_sums`, turns atom counts into scores, alike for the rival
lattice's points, the sent word and every literal codebook word
(:class:`_Codebook`).  The sum adds in an order that does not depend on how
many words are scored at once, so a word's score is bit for bit a point of
its lattice and every tie is exact; literal ML breaks ties by a uniform
draw.  A lattice folds one composition lattice per group, memoized per run
by (group, count).

Every literal symbol (codeword, channel output or source symbol) is drawn
by one sampler, :class:`_Sampler`, with ``Generator.choice``'s law exactly:
choice's uniform is u = k 2^-53 for a 53-bit k, and the sampler reads k
lazily.  Each raw Philox word, read little-endian, gives the 16-bit
prefixes of four symbols' k, which decide the symbol unless the prefix is
that of a cut (an integer threshold on k) with low bits, about once in 2^16
per such cut; only then does the symbol read one more raw word, whose top
37 bits complete its k.  So a literal codebook costs a quarter of a Philox
word per symbol, and the decoder's comparisons read 16-bit prefixes.

The channel decoder asks only whether a rival scores above, or ties, the
threshold or the sent word's score.  So a channel lattice keeps just the
points at or above the lowest question asked of it so far, pruned fold by
fold with a bound float rounding cannot break (its answers are bit for bit
the full lattice's; a block that asks lower refolds it), is kept across
trial blocks, and answers each distinct question of a block once by a
log-sum-exp over the points above or equal (:func:`_log_mass`).  It is never
sorted, as a block asks it few questions: on a 2-core container, sorting
each lattice once made the benchmark's ``sim-lattice`` runs 22 % slower,
and dropping the kept lattices made a 3x3 channel at n = 24 take 1.6 s,
not 1.3 s, with ML and twice as long with the threshold decoder.  The
rate-distortion failure sum reads every point: it folds in full and reads
each side of the budget from one distinct-score table with suffix log
masses (:func:`_sorted_tail`).  The win law and the failure sum are one
array expression per block and per lattice.

The conditional paths and the source simulator share one trial kernel
(:func:`_type_trials`): it draws types directly by multinomial sampling
and spends one uniform per trial.  It owns the run's one memo: each distinct
type's success probability is computed once per run, when the type is
first drawn, and every later trial of that type reads it.  A type is what
the probability depends on: the block type for source coding, the joint
(codeword, output) type for the channel, and the pooled count per group for
rate-distortion.  Trials run in blocks of ``TRIAL_BLOCK``: block b draws
from substream b, always a full block, so trial i's outcome depends only on
(seed, i), not on the trial count or on how blocks are scheduled.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .alphabet import Channel, Distribution, RngStream
from .coding import (
    MAX_LOG_CODEBOOK,
    SourceCodingSetup,
    _check_count,
    codebook_size,
    log_codebook_size,
    log_info_ratio,
)
from .errors import CodebookTooLarge, DimensionMismatch, InvalidParameter
from .info_measures import _validate_distortion_matrix
from .type_classes import _masked_dot, count_types, log_multinomial, type_array

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
    half = 1.96 * math.sqrt(p * (1 - p) / trials)
    return TrialReport(int(successes), trials, p, half, rng.seed)


def _cdf(p: np.ndarray) -> np.ndarray:
    """The thresholds ``Generator.choice`` compares a uniform with: the
    cumulative sum of p along its last axis divided by its last entry, which
    is dropped."""
    cdf = np.cumsum(p, axis=-1)
    cdf /= cdf[..., -1:]
    return cdf[..., :-1]


_TAIL = 37  # the bits of a 53-bit uniform below its 16-bit prefix
_LOW = (1 << _TAIL) - 1
_NONE = np.empty(0, dtype=np.int64)


def _prefixes(gen: np.random.Generator, size: int) -> np.ndarray:
    """The 16-bit prefixes of ``size`` fresh 53-bit uniforms: each raw Philox
    word, read little-endian on every platform, holds four, its low 16 bits
    first."""
    raw = gen.bit_generator.random_raw(-(-size // 4))
    return raw.astype("<u8", copy=False).view("<u2")[:size]


class _Sampler:
    """Literal symbols of one law, or of one law per row of ``cdf``, each
    the one ``Generator.choice`` draws from a uniform u = k 2^-53, with k a
    lazy 53-bit uniform.

    ``choice`` counts the thresholds c of :func:`_cdf` at or below u, and
    u >= c iff k >= K = ceil(c 2^53), exactly, as c 2^53 is a float; no k
    reaches the cut K = 2^53 of c = 1.  A symbol reads the 16-bit prefix of
    its k first, and k >= K iff prefix >= K >> 37, the cut's own prefix,
    unless the two are equal and K has low bits.  An entry with such a
    prefix straddles the cut and reads the top 37 bits of one more raw word
    to complete its k (:meth:`complete`): about one entry in 2^16 per such
    cut, and none when every cut is a multiple of 2^37.  Each symbol is a
    monotone step function of k, so the law is ``choice``'s exactly, at a
    quarter of its Philox output.

    ``cuts``, ``heads`` (each cut's prefix) and ``tops`` (the prefix that
    leaves a cut undecided, -1 for none, which no prefix is) hold a row per
    cut and a column per law."""

    def __init__(self, cdf: np.ndarray):
        self.cuts = np.ceil(np.ldexp(np.atleast_2d(cdf), 53)).astype(np.int64).T
        self.heads = self.cuts >> _TAIL
        self.tops = np.where(self.cuts & _LOW, self.heads, -1)

    def complete(self, gen: np.random.Generator, prefix: np.ndarray, at: np.ndarray,
                 laws) -> np.ndarray:
        """The symbols of the straddling entries ``at`` (flat indices of
        ``prefix``, in order) under their ``laws`` (columns), each k
        completed by one more raw word."""
        tail = gen.bit_generator.random_raw(at.size) >> np.uint64(64 - _TAIL)
        k = prefix.reshape(-1)[at].astype(np.int64) << _TAIL | tail.astype(np.int64)
        return (k >= self.cuts[:, laws]).sum(axis=0)

    def draw(self, gen: np.random.Generator, n: int, given=None) -> np.ndarray:
        """A block of n symbols: under the one law, or position i under law
        ``given[i]``.  It reads n prefixes, then one raw word per straddling
        entry.  The literal paths draw their source blocks and channel
        outputs here, so none lands outside its alphabet or on a zero-mass
        symbol, and :class:`_Codebook` its words the same way."""
        heads, tops = ((self.heads, self.tops) if given is None else
                       (self.heads.take(given, axis=1), self.tops.take(given, axis=1)))
        prefix = _prefixes(gen, n).astype(np.int64)  # an int64 compare leaves fewer casts
        words = (prefix >= heads).sum(axis=0)
        hit = prefix == tops
        if hit.any():
            at = np.flatnonzero(hit.any(axis=0))
            words[at] = self.complete(gen, prefix, at, slice(None) if given is None else given[at])
        return words


def _type_trials(trials: int, rng: RngStream, draw_types, p_new) -> TrialReport:
    """The one conditional trial loop: block of types -> success probability
    per type -> one Bernoulli per trial.

    ``draw_types(gen, size)`` returns ``size`` block types, one integer array
    per trial.  The run's one memo maps each type drawn so far to its
    success probability: each block's unseen types go to ``p_new`` once, in
    first-seen order, as the rows of one int array, and every trial reads
    its p from the memo.  Block b draws TRIAL_BLOCK types and then
    TRIAL_BLOCK uniforms from substream b and keeps the first rows it needs,
    so trial i's outcome depends only on (seed, i).
    """
    memo: dict[tuple, float] = {}
    successes = 0
    for b, gen in enumerate(rng.substream_generators(-(-trials // TRIAL_BLOCK))):
        types = draw_types(gen, TRIAL_BLOCK).reshape(TRIAL_BLOCK, -1)
        u = gen.random(TRIAL_BLOCK)
        take = min(TRIAL_BLOCK, trials - b * TRIAL_BLOCK)
        keys = list(map(tuple, types[:take].tolist()))
        new = [key for key in dict.fromkeys(keys) if key not in memo]
        if new:
            memo.update(zip(new, p_new(np.array(new))))
        p = np.fromiter(map(memo.__getitem__, keys), float, count=take)
        successes += int(np.count_nonzero(u[:take] < p))
    return _report(successes, trials, rng)


# --- source coding ------------------------------------------------------------

def simulate_source_coding(setup: SourceCodingSetup, trials: int, rng: RngStream) -> TrialReport:
    """Draw block types from the source; success iff the type lies in the
    fixed-rate acceptance set."""
    _check_count(trials, "trials")
    return _type_trials(trials, rng,
                        lambda gen, size: gen.multinomial(setup.n, setup.source.probs, size=size),
                        setup.encodable)


# --- score lattices -------------------------------------------------------------

def _composition_lattice(m: int, log_mass: np.ndarray, terms: list):
    """(score, log-probability, companion if any) of the sum of m i.i.d.
    draws from atoms with ``terms``, enumerated over occupancy vectors with
    multinomial weights.  Its caller checks the size against the guard."""
    counts = type_array(log_mass.size, m)
    log_pmf = log_multinomial(counts) + _masked_dot(counts, log_mass)
    score, *companion = _atom_sums(np.ascontiguousarray(counts.T), terms, 1)
    return (score, log_pmf, *companion)


def _terms(*components: np.ndarray) -> list:
    """Per component (score first), what :func:`_atom_sums` multiplies counts
    by: the values as a column, -inf as 0.0, and the atoms of value -inf."""
    return [(np.where(v > -np.inf, v, 0.0)[:, None], np.flatnonzero(v == -np.inf))
            for v in components]


def _atom_sums(counts: np.ndarray, terms: list, groups: int) -> list:
    """Per component of ``terms``, each word's sum_k count_k * value_k, where
    ``counts`` has a row per atom slot (:class:`_ScoreLaw`) and a column per
    word.  A group's atoms add in order, then the groups in order from 0.0,
    as :func:`_fold` adds them, each addition one elementwise add across
    words, so a word gets the same float alone as in a batch (numpy sums 8
    or more contiguous terms pairwise).  -inf where a -inf atom has a count."""
    sums = []
    for column, dead in terms:
        x = counts * column
        part = x[:groups]  # slot 0 of every group, then each further slot adds
        for k in range(groups, x.shape[0], groups):
            part += x[k:k + groups]
        total = part[0] + 0.0
        for j in range(1, groups):
            total += part[j]
        if dead.size:
            total[counts[dead].any(axis=0)] = -np.inf
        sums.append(total)
    return sums


def _fold(a: tuple, b: tuple) -> tuple:
    """Outer sum of two independent lattices, given as parallel arrays:
    every component adds."""
    return tuple((x[:, None] + y[None, :]).ravel() for x, y in zip(a, b))


def _log_mass(log_pmf: np.ndarray, where: np.ndarray) -> float:
    """ln of the summed mass of the lattice points where ``where`` holds: a
    log-sum-exp over just those points, shifted by their own maximum, so
    exp runs only on the selected points and no mass underflows relative to
    another part of the lattice.  -inf when no point is selected."""
    x = log_pmf[where]
    top = x.max(initial=-np.inf)
    if top == -np.inf:
        return -math.inf
    return float(top + np.log(np.exp(x - top).sum()))


class _ScoreLaw:
    """One random codeword's score law given the block's type, with an
    optional companion summed alongside the score.

    ``g[a, b]`` scores codeword symbol a against block symbol b and may be
    -inf; ``log_p[a]`` is the codewords' symbol law and ``extra[a, b]``, if
    given, the companion (the distortion, for rate-distortion).  Against
    block symbol b a random codeword symbol lands on an atom, one distinct
    (g[a, b], extra[a, b]) pair over the symbols a with p > 0, carrying
    their summed mass.  Block symbols with the same atom law pool into one
    group: given the block's type, a codeword's score is a sum over groups
    of that group's pooled count of i.i.d. atom draws (the method of types,
    Csiszar, IEEE TIT 44(6), 1998).  A symmetric channel with its capacity
    input, or the binary rate-distortion protocol with a BSC test channel,
    pools into one group and an O(n) lattice; a noiseless or erasure column
    has 2 atoms or 1.

    One table and one sum score every word, lattice point, sent word or
    literal word alike.  The atoms of all groups make one slot-major axis
    (atom i of group j at i * groups + j; spare slots count nothing),
    ``onehot[a, b]`` puts cell (a, b) on its atom, and :func:`_atom_sums`
    scores the counts with ``terms`` in an order no batch size changes.

    A lattice is the unsorted fold of the groups' composition lattices:
    parallel arrays (score, log-probability, companion if any).  A law is
    made once per run and memoizes each part by (group, count); a lattice
    may keep only the points at or above a floor (see :meth:`lattice`).
    """

    def __init__(self, g: np.ndarray, log_p: np.ndarray, extra: np.ndarray | None = None):
        live = np.flatnonzero(log_p > -np.inf)
        parts = (g,) if extra is None else (g, extra)
        self.group = np.empty(g.shape[1], dtype=np.int64)  # block symbol -> group
        self.atom = np.zeros(g.shape, dtype=np.int64)  # (a, b) -> atom of b's group
        self.atoms: list[tuple] = []  # per group: (values, log_mass, companion if any)
        groups: dict[tuple, tuple] = {}  # atom law -> (group, its atom order)
        for b in range(g.shape[1]):
            pairs = [tuple(float(x[a, b]) for x in parts) for a in live]
            atoms = list(dict.fromkeys(pairs))
            log_mass = [float(np.logaddexp.reduce(log_p[live[[q == atom for q in pairs]]]))
                        for atom in atoms]
            law = tuple(sorted(zip(atoms, log_mass)))
            if law not in groups:
                groups[law] = (len(self.atoms), atoms)
                values, *companion = map(np.array, zip(*atoms))
                self.atoms.append((values, np.array(log_mass), *companion))
            self.group[b], order = groups[law]
            self.atom[live, b] = [order.index(q) for q in pairs]
        self.member = np.eye(len(self.atoms), dtype=np.int64)[self.group]
        # per component, the value of every atom slot: (slots, groups)
        table = np.zeros((len(parts), max(a[0].size for a in self.atoms), len(self.atoms)))
        for j, (values, _, *companion) in enumerate(self.atoms):
            table[:, :values.size, j] = values, *companion
        self.onehot = np.eye(table[0].size)[self.atom * len(self.atoms) + self.group]
        self.terms = _terms(*table.reshape(len(parts), -1))
        self.group_terms = [_terms(v, *c) for v, _, *c in self.atoms]  # for lattice parts
        self.parts: dict[tuple[int, int], tuple] = {}  # (group, count) -> composition lattice

    def key(self, col_counts: np.ndarray) -> np.ndarray:
        """Pooled count per group of each block type (the last axis runs
        over block symbols)."""
        return col_counts @ self.member

    def lattice(self, key: tuple[int, ...], floor: float = -math.inf) -> tuple:
        """(score, log-probability, companion if any) of one random
        codeword, unsorted: one composition lattice per group with a
        positive count, folded, keeping just the points that score at least
        ``floor``.

        The full lattice's size, the product of its parts' sizes, is checked
        against the guard before any part is built.  On the first part and
        after each fold, the rows whose upper bound is below the floor are
        dropped and the rest kept in order; a row's bound is its score plus
        the later parts' top scores, added in fold order.  Float addition is
        monotone, so no point of a dropped row reaches the floor, and the
        kept points are exactly the full lattice's points at or above it,
        with the same values in the same order: any log mass above or at a
        score q >= floor is bit for bit the full lattice's."""
        counts = [(j, m) for j, m in enumerate(key) if m]
        if math.prod(count_types(self.atoms[j][0].size, m) for j, m in counts) > LATTICE_GUARD:
            raise CodebookTooLarge(
                "conditional score lattice exceeds the guard; materialize instead"
            )
        for j, m in counts:
            if (j, m) not in self.parts:
                self.parts[j, m] = _composition_lattice(m, self.atoms[j][1], self.group_terms[j])
        parts = [self.parts[c] for c in counts]
        tops = [part[0].max() for part in parts]
        folded = parts[0]
        for i, part in enumerate(parts):
            if i:
                folded = _fold(folded, part)
            if floor > -math.inf:
                bound = folded[0]
                for top in tops[i + 1:]:
                    bound = bound + top
                keep = bound >= floor
                folded = tuple(x[keep] for x in folded)
        return folded

    def score(self, joint: np.ndarray) -> np.ndarray:
        """Scores of a stack of words, one per joint (codeword, block) type
        along the first axis: their atom counts through the one table, summed."""
        cells = joint.reshape(joint.shape[0], -1)
        counts = self.onehot.reshape(cells.shape[1], -1).T @ cells.T
        return _atom_sums(counts, self.terms[:1], len(self.atoms))[0]


def _largest_lattice(law: _ScoreLaw, n: int) -> int:
    """Points in the largest lattice ``law`` can build for blocks of length
    n: the most, over compositions (m_j) of n into its groups, of
    prod_j count_types(k_j, m_j) for a group of k_j atoms.  Raising m_j by
    one multiplies a factor by 1 + (k_j - 1)/(m_j + 1), which falls with m_j,
    so the n largest of these steps over all groups make the largest
    product.  With K = sum_j (k_j - 1), the steps with
    (k_j - 1)/(m_j + 1) >= K/n are floor(n (k_j - 1)/K) per group; the
    fewer than one per group left go one at a time to the largest next
    step.  A one-atom group is a factor of 1 and takes no step.  Distinct
    ratios a/b, c/d differ by 1/(bd), over an ulp at any n the guards allow."""
    sizes = [atoms[0].size for atoms in law.atoms if atoms[0].size > 1]
    if not sizes:
        return 1
    total = sum(sizes) - len(sizes)
    taken = [n * (k - 1) // total for k in sizes]
    for _ in range(n - sum(taken)):
        j = max(range(len(sizes)), key=lambda j: (sizes[j] - 1) / (taken[j] + 1))
        taken[j] += 1
    return math.prod(count_types(k, m) for k, m in zip(sizes, taken))


class _Codebook:
    """A literal codebook: N_m words of length n drawn i.i.d. from the one
    law of ``sampler``, kept as the 16-bit prefixes of their uniforms, and
    scored by ``law``'s one table and one sum.

    With the table O[a, b] (``law.onehot``), word symbol a is 0 plus the
    number of cuts at or below its k, so
    O[word_j, b] = O[0, b] + sum_a [k_j >= K_a] (O[a+1, b] - O[a, b]),
    and summed over positions the atom counts of all words (a column per
    word) are

        O[0]^T bincount(block) + sum_a (O[a+1] - O[a])[block]^T [k >= K_a]^T,

    one comparison into a reused float buffer and one product per cut,
    exact small integers as floats.  The comparison reads the prefix alone,
    prefix >= K_a >> 37, which is [k >= K_a] at every entry but the few that
    straddle a cut (:class:`_Sampler`); their counts then move from the
    symbol their prefix presumes to the one their k draws.  The cut 2^53
    adds nothing, and a zero-mass symbol's cuts are equal, so its one-hot
    rows cancel."""

    def __init__(self, law: _ScoreLaw, sampler: _Sampler, n_m: int, n: int):
        self.law = law
        self.sampler = sampler
        self.shape = (n_m, n)
        # as ints, so each comparison with the prefixes runs in uint16
        self._heads = [h for h in sampler.heads[:, 0].tolist() if h <= 0xFFFF]
        self._tops = np.unique(sampler.tops[sampler.tops >= 0]).tolist()
        self._below = np.empty((n_m, n))  # [prefix >= head], as floats
        # atom-major, so a word's counts are a column: (atoms, block symbols)
        self._cell0 = law.onehot[0].T
        self._steps = np.diff(law.onehot, axis=0).transpose(0, 2, 1).copy()

    def draw(self, gen: np.random.Generator) -> None:
        """The next codebook: N_m * n prefixes in row order, then one raw word
        per straddling entry, in the same order."""
        self.prefix = _prefixes(gen, self.shape[0] * self.shape[1]).reshape(self.shape)
        self._rows = self._cols = self._presumed = self._drawn = _NONE
        hit = np.zeros(self.shape, dtype=bool)
        for t in self._tops:  # one (N_m, n) comparison at a time, whatever their number
            hit |= self.prefix == t
        if hit.any():
            at = np.flatnonzero(hit)
            self._rows, self._cols = np.divmod(at, self.shape[1])
            self._presumed = (self.prefix.reshape(-1)[at] >= self.sampler.heads).sum(axis=0)
            self._drawn = self.sampler.complete(gen, self.prefix, at, slice(None))

    def word(self, m: int) -> np.ndarray:
        """The symbols of word m."""
        words = (self.prefix[m] >= self.sampler.heads).sum(axis=0)
        if self._rows.size:
            mine = self._rows == m
            words[self._cols[mine]] = self._drawn[mine]
        return words

    def sums(self, block: np.ndarray) -> list:
        """Every word's score against the block, and its companion if any."""
        base = self._cell0 @ np.bincount(block, minlength=self._cell0.shape[1])
        counts = base[:, None].repeat(self.shape[0], axis=1)
        for h, step in zip(self._heads, np.take(self._steps, block, axis=2)):
            np.greater_equal(self.prefix, h, out=self._below)
            counts += step @ self._below.T
        if self._rows.size:
            cells = block[self._cols]
            np.add.at(counts.T, self._rows, self.law.onehot[self._drawn, cells]
                      - self.law.onehot[self._presumed, cells])
        return _atom_sums(counts, self.law.terms, len(self.law.atoms))


def _log_pow_one_minus(log_eps, log_m) -> np.ndarray:
    """ln((1 - eps)^M) from ln(eps) and ln(M), elementwise over arrays; exact
    for tiny eps even when M is far beyond integer range.  ln(1 - eps) splits
    at eps = 1/2 (log1mexp, Maechler 2012), so eps within an ulp of 1 stays
    finite; below eps = e^-30 it is -eps to double precision.  A power that
    is 0 to double precision overflows to -inf on its own, and eps >= 1
    gives -inf."""
    log_eps = np.minimum(log_eps, 0.0)
    # the branch np.where drops may overflow, or meet ln 0 or inf * 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log1m = np.where(log_eps > -_LN2, np.log(-np.expm1(log_eps)),
                         np.log1p(-np.exp(log_eps)))
        return np.where(log_eps > -30.0, np.exp(log_m) * log1m, -np.exp(log_m + log_eps))


# --- channel coding -------------------------------------------------------------

def simulate_channel_coding(channel: Channel, input_dist: Distribution, rate: float,
                            n: int, trials: int, decoder: str, rng: RngStream, *,
                            method: str = "auto") -> TrialReport:
    """Random-coding Monte Carlo through a memoryless channel.

    decoder:
      ``threshold``: an index passes iff its information ratio, the sum over
      positions of ln W(y_i|x_i) - ln P(y_i) with P the output marginal of
      the input through the channel (:func:`~ptshannon.coding.log_info_ratio`),
      exceeds n*rate.  The transmitted index succeeds iff it passes and no
      other index does (Feinstein's rule).
      ``ml``: argmax of the summed ln W(y_i|x_i), with uniform tie-break.

    method ``auto`` takes the exact conditional form unless its score
    lattice would be over the lattice guard while the literal run,
    N_m*n*trials operations, fits the operation guard.
    """
    if decoder not in ("threshold", "ml"):
        raise InvalidParameter("decoder must be 'threshold' or 'ml'")
    log_m = _front_door(method, trials, channel, input_dist, rate, n)
    with np.errstate(divide="ignore"):
        # ML keeps ln W: the ratio's sum splits words of equal exact likelihood
        # that the ln W sum keeps bit-equal (rivals 2 and 52 of trial 0 of the
        # 9-ary CI sweep at rate 0.55, which moves one of its 500 trials)
        table = (log_info_ratio(channel, input_dist)[0] if decoder == "threshold"
                 else np.log(channel.rows))
        law = _ScoreLaw(table, np.log(input_dist.probs))
    if _resolve_method(method, log_m, n, trials, law) == "materialize":
        return _channel_materialized(channel, input_dist, law, rate, n, trials,
                                     decoder, rng, codebook_size(rate, n))
    return _channel_conditional(channel, input_dist, law, rate, n, trials, decoder, rng, log_m)


def _front_door(method: str, trials: int, channel: Channel, fed: Distribution,
                rate: float, n: int, d=None) -> float:
    """ln N_m, after the checks both codebook simulators make before any
    work, in order: method, integer trials and n, shapes (``fed`` is the law
    on the channel's inputs, ``d`` inputs x outputs) and at least 2 rows."""
    if method not in ("auto", "materialize", "conditional"):
        raise InvalidParameter("method must be 'auto', 'materialize', or 'conditional'")
    _check_count(trials, "trials")
    _check_count(n, "n")
    if channel.input_size != fed.alphabet_size or (
            d is not None and np.shape(d) != channel.rows.shape):
        raise DimensionMismatch("the law fed to the channel, or d, does not match its shape")
    log_m = log_codebook_size(rate, n)
    if log_m < _LN2:
        raise InvalidParameter("codebook needs at least 2 rows; raise rate or n")
    return log_m


def _resolve_method(method: str, log_m: float, n: int, trials: int, law: _ScoreLaw) -> str:
    """``materialize`` or ``conditional``, for a method that passed
    :func:`_front_door`.  A materialized run costs N_m*n*trials
    operations; that count is compared with the guard in log space, so N_m
    need not exist as a number.  ``auto`` takes the exact conditional path
    unless its largest lattice is over ``LATTICE_GUARD`` while the literal
    run fits ``OPS_GUARD``."""
    budget = OPS_GUARD / (n * trials)
    fits = budget > 0 and log_m <= math.log(budget)
    if method == "auto":
        literal = fits and _largest_lattice(law, n) > LATTICE_GUARD
        return "materialize" if literal else "conditional"
    if method == "materialize" and not fits:
        raise CodebookTooLarge(
            f"materialized run needs ~e^{log_m + math.log(n * trials):.1f} operations"
            f" (guard {OPS_GUARD:.0e})"
        )
    return method


def _channel_materialized(channel, input_dist, law, rate, n, trials, decoder, rng,
                          n_m) -> TrialReport:
    """Trial i draws from substream i, in this order: the codebook
    (:meth:`_Codebook.draw`), the sent index, the channel outputs
    (:meth:`_Sampler.draw`) and, for an ML tie, one tie-break uniform.  Every
    word's score is bit for bit its joint type's, and the threshold decoder
    compares it with n*rate, as the conditional path does, so a literal word
    is decided as its joint type is."""
    threshold = n * rate
    outputs = _Sampler(_cdf(channel.rows))
    book = _Codebook(law, _Sampler(_cdf(input_dist.probs)), n_m, n)
    successes = 0
    for gen in rng.substream_generators(trials):
        book.draw(gen)
        m = int(gen.integers(n_m))
        y = outputs.draw(gen, n, book.word(m))
        scores, = book.sums(y)
        s_true = scores[m]
        scores[m] = -np.inf  # the rivals' best is the maximum of the rest
        top = scores.max()
        if decoder == "threshold":
            successes += bool(s_true > threshold and not top > threshold)
        else:
            if s_true > top:
                successes += 1
            elif s_true == top:
                ties = 1 + int(np.count_nonzero(scores == top))
                successes += bool(gen.random() < 1.0 / ties)
    return _report(successes, trials, rng)


def _channel_conditional(channel, input_dist, law, rate, n, trials, decoder, rng,
                         log_m) -> TrialReport:
    """Scores are the law's: the information ratio, which the threshold
    decoder compares with n*rate, or ln W, whose ML question for the rivals
    is the sent word's score.

    Each block's new joint types are scored in one batched pass and grouped
    by pooled output count, then by the decoder's question; each distinct
    (lattice, question) is looked up once, its tails are scattered back to
    the types that asked it, and one call of the win law answers them all."""
    rows = channel.rows
    p_in = input_dist.probs
    # pooled output count -> (floor, its lattice's points at or above the floor)
    lattices: dict[tuple, tuple] = {}
    # ln(N_m - 1) rivals, from the integer size wherever it exists
    log_rivals = (math.log(codebook_size(rate, n) - 1) if n * rate <= MAX_LOG_CODEBOOK
                  else log_m)

    def draw(gen, size):
        # input type, then each input row's outputs: the joint (x, y) type
        return gen.multinomial(gen.multinomial(n, p_in, size=size), rows)

    def p_win(joint_types: np.ndarray) -> np.ndarray:
        """Win probability of each new joint type (a flattened row of
        ``joint_types``).  The question is the threshold for ``threshold``
        and the sent word's score for ``ml``; a lattice keeps only the
        points at or above the lowest question asked of it so far, all that
        any answer reads, and a block that asks lower refolds it."""
        joint = joint_types.reshape(-1, *rows.shape)
        y_counts = joint.sum(axis=1)
        t = law.score(joint)
        asked = np.arange(t.size)
        if decoder == "threshold":
            asked = np.flatnonzero(t > n * rate)  # the others fail their own threshold
            t = np.full(t.size, n * rate)
        log_tails = np.empty((asked.size, 2))  # ln P(rival > t), ln P(rival == t)
        keys, key_of = np.unique(law.key(y_counts[asked]), axis=0, return_inverse=True)
        for k, pooled in enumerate(map(tuple, keys.tolist())):
            mine = np.flatnonzero(key_of.reshape(-1) == k)
            questions, question_of = np.unique(t[asked[mine]], return_inverse=True)
            floor, lattice = lattices.get(pooled, (math.inf, None))
            if questions[0] < floor:  # refold down to this block's lowest question
                floor = float(questions[0])
                lattice = law.lattice(pooled, floor)
                lattices[pooled] = floor, lattice
            values, log_pmf = lattice
            tails = [(_log_mass(log_pmf, values > q),  # a threshold has no ties
                      _log_mass(log_pmf, values == q) if decoder == "ml" else -math.inf)
                     for q in questions.tolist()]
            log_tails[mine] = np.array(tails)[question_of.reshape(-1)]
        p = np.zeros(t.size)
        p[asked] = _win_probability(*log_tails.T, log_m, log_rivals)
        return p

    return _type_trials(trials, rng, draw, p_win)


def _win_probability(log_gt, log_eq, log_nm: float, log_rivals: float) -> np.ndarray:
    """Chance that the transmitted word wins the argmax with uniform
    tie-break against N_m - 1 rivals, elementwise from ln g = ``log_gt``
    and ln e = ``log_eq``, where g = P(a rival scores higher) and
    e = P(a rival ties).  Summing over the number k of tying rivals,

        sum_k C(N_m-1, k) e^k (1-g-e)^(N_m-1-k) / (k+1)
          = (1-g)^(N_m-1) (1 - (1-q)^N_m) / (N_m q),   q = e / (1-g).

    The last factor is 1 - O(N_m q), so it is exactly 1 once N_m q < e^-30,
    and with no tie mass (e = 0, the threshold decoder's case); above that
    both of its parts are computed from ln q without cancellation."""
    with np.errstate(invalid="ignore"):  # g = 1 with e = 0: nan, which never ties
        log_q = log_eq - _log_pow_one_minus(log_gt, 0.0)
    tied = log_nm + log_q >= -30.0
    log_tie = np.zeros(log_q.shape)
    q = log_q[tied]
    log_tie[tied] = np.log(-np.expm1(_log_pow_one_minus(q, log_nm))) - log_nm - q
    return np.exp(_log_pow_one_minus(log_gt, log_rivals) + log_tie)


# --- rate-distortion --------------------------------------------------------------

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
    scale so powers with astronomically large Nm stay exact.  Each side is
    one distinct-score table (:func:`_sorted_tail`): the non-meeting one's
    scores are the v, with ln P(score > v) and ln P(score >= v) as adjacent
    entries, and the meeting one is bisected once for all v.
    """
    meet = dist_totals <= budget
    v, log_not_tail = _sorted_tail(values[~meet], log_pmf[~meet])
    meet_values, log_meet_tail = _sorted_tail(values[meet], log_pmf[meet])
    log_meet_above = log_meet_tail[np.searchsorted(meet_values, v - margin, side="right")]
    eps = np.logaddexp(np.stack([log_not_tail[1:], log_not_tail[:-1]]), log_meet_above)
    power = np.exp(_log_pow_one_minus(eps, log_nm))
    return float(np.sum(power[0] - power[1]))


def _sorted_tail(values: np.ndarray, log_pmf: np.ndarray) -> tuple:
    """The distinct values ascending, and ln P(score >= each) with -inf
    appended: entries i and i + 1 are ln P(score >= v) and ln P(score > v)
    for the i-th distinct score v.  A score's ln mass is a log-sum-exp over
    its points, shifted by their own maximum and summed in lattice order, so
    no order among equal scores reaches the result."""
    distinct, of = np.unique(values, return_inverse=True)
    top = np.full(distinct.size, -np.inf)
    np.maximum.at(top, of, log_pmf)
    top = np.where(top > -np.inf, top, 0.0)  # a score of no mass sums zeros
    with np.errstate(divide="ignore"):
        mass = top + np.log(np.bincount(of, np.exp(log_pmf - top[of]), distinct.size))
        suffix = np.logaddexp.accumulate(mass[::-1])[::-1]
    return distinct, np.append(suffix, -np.inf)


def simulate_rate_distortion(source: Distribution, test_channel: Channel, d, D: float,
                             rate: float, n: int, trials: int, rng: RngStream, *,
                             method: str = "auto") -> TrialReport:
    """Covering Monte Carlo for distortion coding.

    Each trial draws a source block and a fresh codebook i.i.d. from the
    reproduction marginal q-hat of source * test_channel.  A codeword scores
    its summed ratio ln W(x-hat|x) - ln q-hat(x-hat) (the ln P(x) of the
    joint is common to all), and the trial succeeds iff some codeword meets
    the budget n*D and scores above every one that does not, less n*rate.

    A reproduction symbol of no mass is never drawn, so the rate-zero test
    channel of D >= D_max, one reproduction for all, takes the general path.
    """
    log_m = _front_door(method, trials, test_channel, source, rate, n, d)
    d = _validate_distortion_matrix(source, d)
    if not D >= 0:
        raise InvalidParameter("D must be non-negative")
    ratio, q_hat = log_info_ratio(test_channel, source)
    budget = n * D + 1e-9 * max(1.0, n * D)
    margin = n * rate
    with np.errstate(divide="ignore"):
        law = _ScoreLaw(ratio.T, np.log(q_hat), d.T)
    if _resolve_method(method, log_m, n, trials, law) == "materialize":
        return _rd_materialized(source, q_hat, law, budget, margin, n, trials, rng,
                                codebook_size(rate, n))
    return _rd_conditional(source, law, budget, margin, n, trials, rng, log_m)


def _rd_materialized(source, q_hat, law, budget, margin, n, trials, rng, n_m) -> TrialReport:
    """Trial i draws the source block and then the codebook from substream
    i; a word's score and distortion come from the same counts."""
    blocks = _Sampler(_cdf(source.probs))
    book = _Codebook(law, _Sampler(_cdf(q_hat)), n_m, n)
    successes = 0
    for gen in rng.substream_generators(trials):
        x = blocks.draw(gen, n)
        book.draw(gen)
        scores, dists = book.sums(x)
        meets = dists <= budget
        successes += bool(scores[meets].max(initial=-np.inf)
                          > scores[~meets].max(initial=-np.inf) - margin)
    return _report(successes, trials, rng)


def _rd_conditional(source, law, budget, margin, n, trials, rng, log_m) -> TrialReport:
    """The cover probability depends on the block's type only through its
    pooled count per group, so that is the type the kernel draws and
    memoizes."""
    return _type_trials(
        trials, rng, lambda gen, size: law.key(gen.multinomial(n, source.probs, size=size)),
        lambda pooled: [1.0 - _rd_fail_probability(*law.lattice(key), budget, margin, log_m)
                        for key in pooled.tolist()])

"""Seeded Monte Carlo simulators of the three coding protocols.

All three draw fresh random structure per trial (annealed averaging): the
source simulator draws a source block and tests set membership; the channel
simulator draws a codebook, sends one codeword, and decodes with either the
information-ratio threshold decoder or maximum likelihood; the rate-distortion
simulator draws a reproduction codebook and asks whether some codeword both
clears the pairwise score margin and meets the distortion budget.

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

The literal paths draw every symbol as ``Generator.choice`` would, from
uniforms compared with normalized cumulative sums (:func:`_symbols`), so no
draw lands outside its alphabet or on a zero-mass symbol.  A codebook stays
the uniforms of one reused (N_m, n) buffer (:class:`_Codebook`): a word's
likelihood depends on the block only through how often it lands on each
atom of :class:`_ScoreLaw`, so each trial counts those with one
compare-and-count pass over the buffer and scores every word from its
counts, elementwise in atom order (:meth:`_Codebook.sums`).  Words with
equal counts get the same float, so the ML decoder meets every exact tie
and breaks it by a uniform draw.

Both conditional paths use one score law, :class:`_ScoreLaw`: a rival
codeword's score (and, for rate-distortion, its distortion) is a sum of
i.i.d. per-symbol draws whose law depends on the block symbol.  Block
symbols that induce the same law on a codeword symbol pool into a group,
and the law is one composition lattice per group, built once per run,
memoized by (group, count) and folded; the sent word's score goes through
the same arithmetic, so ties are found by exact equality.  Symmetric
channels and binary rate-distortion pool into one O(n) lattice.

The channel decoder asks only whether a rival scores above, or ties, the
threshold or the sent word's score.  So a channel lattice keeps just the
points at or above the lowest question asked of it so far, pruned fold by
fold with a bound float rounding cannot break (its answers are bit for bit
the full lattice's; a block that asks lower refolds it), is kept across
trial blocks, and answers each distinct question of a block once by a
log-sum-exp over the points above or equal (:func:`_log_mass`).  It is never
sorted, as a block asks it few questions.  On a 2-core container, sorting
each lattice once made the benchmark's ``sim-lattice`` runs 22 % slower and
a sort-free bucketed reader threshold runs 20-30 % slower; without the
kept lattices 20 000 trials on a 3x3 channel at n = 24 took 1.6 s, not
1.3 s, with ML and 0.40 s, not 0.20 s, with the threshold decoder.  The
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
    codebook_size,
    log_codebook_size,
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


def _symbols(u: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """The symbol each uniform draws under the law with thresholds ``cdf``
    (from :func:`_cdf`): the count of thresholds at or below it, which is
    what ``Generator.choice``'s ``searchsorted(side="right")`` returns.  Each
    threshold may also be an array, one per uniform."""
    words = np.zeros(u.shape, dtype=np.int64)
    for c in cdf:
        words += u >= c
    return words


def _draw(gen: np.random.Generator, cdf: np.ndarray, shape) -> np.ndarray:
    """A block of symbols of the law with thresholds ``cdf``, the same draws
    as ``Generator.choice`` with that law, the stream advanced by the same
    ``gen.random(shape)``.  The literal paths draw their source blocks and
    channel outputs here, so no draw lands outside its alphabet or on a
    zero-mass symbol; their codebooks stay uniforms (:class:`_Codebook`)."""
    return _symbols(gen.random(shape), cdf)


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
    if trials < 1:
        raise InvalidParameter("trials must be >= 1")
    return _type_trials(trials, rng,
                        lambda gen, size: gen.multinomial(setup.n, setup.source.probs, size=size),
                        setup.encodable)


# --- score lattices -------------------------------------------------------------

def _composition_lattice(m: int, values: np.ndarray, log_mass: np.ndarray, *companions):
    """(score, log-probability, *companions) of the sum of m i.i.d. draws
    from a finite atom set, enumerated over occupancy vectors with
    multinomial weights.  Its caller checks the size against the guard."""
    counts = type_array(values.size, m)
    log_pmf = log_multinomial(counts) + _masked_dot(counts, log_mass)
    return (_masked_dot(counts, values), log_pmf, *(counts @ c for c in companions))


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
        # per group: its block symbols, and a one-hot map from the group's
        # (codeword symbol, block symbol) cells, flattened, to its atoms
        self.cells = []
        for j, (values, *_) in enumerate(self.atoms):
            cols = np.flatnonzero(self.group == j)
            onehot = np.eye(values.size, dtype=np.int64)[self.atom[:, cols].ravel()]
            self.cells.append((cols, onehot))
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
                self.parts[j, m] = _composition_lattice(m, *self.atoms[j])
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
        along the first axis, all in one batched pass.  Each group's atom
        counts come from one product with its one-hot map and are scored by
        :func:`_masked_dot`, the lattice's own arithmetic, and the groups
        add in order from 0.0, as the lattice folds them (a group with no
        count adds 0.0), so exact-equality lookups in the lattice are
        meaningful."""
        score = np.zeros(joint.shape[0])
        for (values, *_), (cols, onehot) in zip(self.atoms, self.cells):
            score += _masked_dot(joint[:, :, cols].reshape(joint.shape[0], -1) @ onehot, values)
        return score


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
    """A literal codebook: N_m words of length n drawn i.i.d. from the law
    with thresholds ``cdf``, kept as the uniforms of one (N_m, n) buffer
    reused across trials, and scored against a block through ``law``'s atoms.

    A word's score (and companion) depends on the block only through how
    often the word lands on each atom (the method of types), so every word's
    atom counts are found in one compare-and-count pass over the uniforms:
    with the cell -> atom one-hot table O[a, b] (atoms of all groups in
    order), word symbol a is 0 plus the number of thresholds at or below its
    uniform, so O[word_j, b] = O[0, b] + sum_a [u_j >= cdf[a]] (O[a+1, b] -
    O[a, b]), and summed over positions the counts of all words (a column
    per word) are

        O[0]^T bincount(block) + sum_a (O[a+1] - O[a])[block]^T [u >= cdf[a]]^T,

    one comparison into a reused float buffer and one product per threshold,
    exact small integers as floats.  A zero-mass symbol's thresholds are
    equal, so its one-hot rows cancel."""

    def __init__(self, law: _ScoreLaw, cdf: np.ndarray, n_m: int, n: int):
        self.cdf = cdf
        self.u = np.empty((n_m, n))
        self._below = np.empty((n_m, n))  # [u >= cdf[a]], as floats
        offset = np.cumsum([0] + [atoms[0].size for atoms in law.atoms[:-1]])
        onehot = np.eye(offset[-1] + law.atoms[-1][0].size)[offset[law.group] + law.atom]
        # atom-major, so a word's counts are a column: (atoms, block symbols)
        self._cell0 = onehot[0].T
        self._steps = np.diff(onehot, axis=0).transpose(0, 2, 1).copy()
        # the score, and the companion if any, per atom of all groups in
        # order: a column with -inf as 0.0, and the atoms of value -inf
        self._terms = [(np.where(values > -np.inf, values, 0.0)[:, None],
                        np.flatnonzero(values == -np.inf))
                       for values in map(np.concatenate,
                                         zip(*(atoms[:1] + atoms[2:] for atoms in law.atoms)))]

    def draw(self, gen: np.random.Generator) -> None:
        """Fill the buffer: the same stream as ``gen.random((N_m, n))``."""
        gen.random(out=self.u)

    def word(self, m: int) -> np.ndarray:
        return _symbols(self.u[m], self.cdf)

    def counts(self, block: np.ndarray) -> np.ndarray:
        """(atoms, N_m) counts of every word against the block."""
        base = self._cell0 @ np.bincount(block, minlength=self._cell0.shape[1])
        counts = base[:, None].repeat(self.u.shape[0], axis=1)
        for c, step in zip(self.cdf, self._steps[:, :, block]):
            np.greater_equal(self.u, c, out=self._below)
            counts += step @ self._below.T
        return counts

    def sums(self, block: np.ndarray) -> list:
        """Every word's score against the block, and its companion if the
        law has one: sum_k count_k * value_k per word.  The atom axis is the
        outer one, so numpy adds the atoms' terms in order, elementwise over
        the words: every word's sum is the same sequence of float additions,
        and words with equal counts get bit-identical sums (a sum along a
        word's own row, or a BLAS dot, need not be).  -inf wherever an atom
        of value -inf has a count; an atom with no count adds nothing."""
        counts = self.counts(block)
        sums = []
        for column, dead in self._terms:
            total = np.add.reduce(counts * column, axis=0)
            if dead.size:
                total[counts[dead].any(axis=0)] = -np.inf
            sums.append(total)
        return sums


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
      ``threshold``: an index passes iff its information ratio
      ln P(y|x_m) - ln P_Y(y) exceeds n*rate, with P_Y the output marginal
      of the input distribution through the channel.  The transmitted index
      succeeds iff it passes and no other index does (Feinstein's rule).
      ``ml``: argmax log likelihood with uniform tie-break.

    method ``auto`` takes the exact conditional form unless its score
    lattice would be over the lattice guard while the literal run,
    N_m*n*trials operations, fits the operation guard.
    """
    if decoder not in ("threshold", "ml"):
        raise InvalidParameter("decoder must be 'threshold' or 'ml'")
    log_m = _front_door(method, trials, channel, input_dist, rate, n)
    with np.errstate(divide="ignore"):
        law = _ScoreLaw(np.log(channel.rows), np.log(input_dist.probs))
    if _resolve_method(method, log_m, n, trials, law) == "materialize":
        return _channel_materialized(channel, input_dist, law, rate, n, trials,
                                     decoder, rng, codebook_size(rate, n))
    return _channel_conditional(channel, input_dist, law, rate, n, trials, decoder, rng, log_m)


def _front_door(method: str, trials: int, channel: Channel, fed: Distribution,
                rate: float, n: int, d=None) -> float:
    """ln N_m, after the checks both codebook simulators make before any
    work, in order: method, trials, shapes (``fed`` is the law on the
    channel's inputs, ``d`` inputs x outputs) and at least 2 rows."""
    if method not in ("auto", "materialize", "conditional"):
        raise InvalidParameter("method must be 'auto', 'materialize', or 'conditional'")
    if trials < 1:
        raise InvalidParameter("trials must be >= 1")
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
    """Trial i draws from substream i, in this order: the codebook's
    uniforms, the sent index, the channel outputs and, for an ML tie, one
    tie-break uniform."""
    with np.errstate(divide="ignore"):
        log_p_out = np.log(input_dist.probs @ channel.rows)
    cdf_rows = _cdf(channel.rows)
    book = _Codebook(law, _cdf(input_dist.probs), n_m, n)
    successes = 0
    for gen in rng.substream_generators(trials):
        book.draw(gen)
        m = int(gen.integers(n_m))
        y = _draw(gen, cdf_rows[book.word(m)].T, n)
        scores, = book.sums(y)
        s_true = scores[m]
        scores[m] = -np.inf  # the rivals' best is the maximum of the rest
        top = scores.max()
        if decoder == "threshold":
            thresh = n * rate + float(log_p_out[y].sum())
            successes += bool(s_true > thresh and not top > thresh)
        else:
            if s_true > top:
                successes += 1
            elif s_true == top:
                ties = 1 + int(np.count_nonzero(scores == top))
                successes += bool(gen.random() < 1.0 / ties)
    return _report(successes, trials, rng)


def _channel_conditional(channel, input_dist, law, rate, n, trials, decoder, rng,
                         log_m) -> TrialReport:
    """Scores are summed log likelihoods ln P(y|x).  The output-marginal term
    ln P_Y(y) of the information ratio is common to all codewords, so the
    threshold decoder adds it to its threshold instead.

    Each block's new joint types are scored in one batched pass and grouped
    by pooled output count, then by the decoder's question; each distinct
    (lattice, question) is looked up once, its tails are scattered back to
    the types that asked it, and one call of the win law answers them all."""
    rows = channel.rows
    p_in = input_dist.probs
    with np.errstate(divide="ignore"):
        log_p_out = np.log(p_in @ rows)
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
            thresholds = n * rate + _masked_dot(y_counts, log_p_out)
            asked = np.flatnonzero(t > thresholds)  # the others fail their own threshold
            t = thresholds
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
    return min(max(float(np.sum(power[0] - power[1])), 0.0), 1.0)


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
    reproduction marginal of source * test_channel.  The trial succeeds iff
    some codeword passes the pairwise score margins at the given rate and its
    average distortion against the block is at most D.

    A reproduction symbol of no mass is never drawn, so the rate-zero test
    channel of D >= D_max, one reproduction for all, takes the general path.
    """
    log_m = _front_door(method, trials, test_channel, source, rate, n, d)
    d = _validate_distortion_matrix(source, d)
    if not D >= 0:
        raise InvalidParameter("D must be non-negative")
    q_hat = source.probs @ test_channel.rows
    with np.errstate(divide="ignore"):
        log_q = np.log(q_hat)
        # score of reproduction symbol x_hat against source symbol x; the common
        # source-block terms cancel pairwise.  A symbol of no mass keeps -inf, not nan
        g = np.log(source.probs[:, None] * test_channel.rows).T
    g[log_q > -np.inf] -= log_q[log_q > -np.inf, None]
    budget = n * D + 1e-9 * max(1.0, n * D)
    margin = n * rate
    law = _ScoreLaw(g, log_q, d.T)
    if _resolve_method(method, log_m, n, trials, law) == "materialize":
        return _rd_materialized(source, q_hat, law, budget, margin, n, trials, rng,
                                codebook_size(rate, n))
    return _rd_conditional(source, law, budget, margin, n, trials, rng, log_m)


def _rd_materialized(source, q_hat, law, budget, margin, n, trials, rng, n_m) -> TrialReport:
    """Trial i draws the source block and then the codebook's uniforms from
    substream i; a word's score and distortion come from the same counts."""
    cdf_source = _cdf(source.probs)
    book = _Codebook(law, _cdf(q_hat), n_m, n)
    successes = 0
    for gen in rng.substream_generators(trials):
        x = _draw(gen, cdf_source, n)
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

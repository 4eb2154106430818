"""Closed-form finite-blocklength predictions for the three coding protocols:
fixed-rate source coding, random channel coding with an information-ratio
threshold decoder, and rate-distortion coding.

Each protocol has an asymptotic step-function prediction whose threshold is
an information quantity (source entropy, channel mutual information /
capacity, rate-distortion function), and channel coding additionally carries
a finite-n complementary-error-function refinement driven by the variance of
the log information ratio: the normal approximation of the chance that the
sent word's information ratio exceeds n*rate.  Where enumeration is
tractable the exact success probability is computed from the type lattice.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .alphabet import Channel, Distribution, joint_from
from .errors import CodebookTooLarge, DimensionMismatch, InstanceTooLarge, InvalidParameter
from .info_measures import entropy, rate_distortion
from .type_classes import _masked_dot, count_types, log_multinomial, type_array

EXACT_TYPE_GUARD = 2 * 10**6
MAX_LOG_CODEBOOK = 700.0


def _check_count(value, what: str) -> None:
    """Raise InvalidParameter unless ``value`` is an integer >= 1, of any type
    ``operator.index`` takes but bool."""
    try:
        if not isinstance(value, bool) and operator.index(value) >= 1:
            return
    except TypeError:
        pass
    raise InvalidParameter(f"{what} must be an integer >= 1, not {value!r}")


def codebook_size(rate: float, n: int) -> int:
    """Integer codebook size floor(exp(n * rate)); the predictions and the
    simulators share this convention.  A one-ulp nudge keeps rates that hit
    an integer exactly (e.g. n*rate = k ln 2) from flooring through it.
    Beyond n*rate = 700 no codebook can be materialized and the size is not
    built: `log_codebook_size` carries it there."""
    if not rate > 0:
        raise InvalidParameter("rate must be positive")
    _check_count(n, "n")
    if n * rate > MAX_LOG_CODEBOOK:
        raise CodebookTooLarge(
            f"codebook of e^{n * rate:.1f} rows; use log_codebook_size"
        )
    return int(math.floor(math.exp(n * rate) * (1.0 + 1e-12)))


def log_codebook_size(rate: float, n: int) -> float:
    """ln floor(exp(n * rate)) at any size: the log of `codebook_size` while
    the integer exists, n*rate beyond, where the floor moves the log by less
    than e^-700."""
    _check_count(n, "n")
    if n * rate > MAX_LOG_CODEBOOK:
        return n * rate
    return math.log(codebook_size(rate, n))


# --- source coding ------------------------------------------------------------

SOURCE_DEPENDENT = "source-dependent"
UNIVERSAL = "universal"


@dataclass(frozen=True)
class SourceCodingSetup:
    source: Distribution
    rate: float
    n: int
    mode: str = SOURCE_DEPENDENT

    def __post_init__(self):
        if not self.rate > 0:
            raise InvalidParameter("rate must be positive")
        _check_count(self.n, "n")
        if self.mode not in (SOURCE_DEPENDENT, UNIVERSAL):
            raise InvalidParameter(f"unknown mode {self.mode!r}")

    def encodable(self, counts: np.ndarray) -> np.ndarray:
        """Whether the set encoder accepts a block of each type, one type per
        row of counts: sum_x T(x) ln(1/Q(x)) <= R, with Q the source
        (source-dependent mode) or T itself (universal mode, H(T) <= R).  A
        count on a symbol the source never emits costs +inf in
        source-dependent mode."""
        types = np.asarray(counts) / self.n
        with np.errstate(divide="ignore"):
            log_q = np.log(self.source.probs if self.mode == SOURCE_DEPENDENT else types)
        return -_masked_dot(types, log_q) <= self.rate


def source_coding_exact_psuc(setup: SourceCodingSetup) -> float:
    """Exact success probability of the fixed-rate set encoder.

    A sequence is encodable iff its type passes `SourceCodingSetup.encodable`.
    The success probability is the exact lattice sum of class_size *
    sequence probability over the encodable types, taken over the count
    vectors of `type_array`.  The number of types is compared with
    EXACT_TYPE_GUARD before any is enumerated.
    """
    p = setup.source.probs
    n = setup.n
    n_types = count_types(p.size, n)
    if n_types > EXACT_TYPE_GUARD:
        raise InstanceTooLarge(f"{n_types} types exceeds the enumeration guard")

    counts = type_array(p.size, n)
    counts = counts[setup.encodable(counts)]
    log_binom = log_multinomial(counts)
    with np.errstate(divide="ignore"):
        log_p = np.log(p)
    # a type with a count off the source's support has probability 0
    return float(np.exp(log_binom + _masked_dot(counts, log_p)).sum())


def source_coding_asymptote(setup: SourceCodingSetup) -> int:
    """Large-n step: 1 iff rate >= source entropy (ties succeed)."""
    return 1 if setup.rate >= entropy(setup.source) else 0


# --- channel coding -------------------------------------------------------------

@dataclass(frozen=True)
class ChannelCodingPrediction:
    a: float            # mutual information of the operating joint, nats
    b: float            # variance of the log information ratio, nats^2
    rate: float
    n: int
    p_suc_step: int
    p_suc_erfc: float


def log_info_ratio(channel: Channel, fed: Distribution) -> tuple[np.ndarray, np.ndarray]:
    """The information-ratio table of ``fed`` pushed through ``channel``:
    ln W(b|a) - ln P(b) on the support of fed(a) W(b|a), -inf off it, and
    the output marginal P.  Each P(b) sums its column of products
    fed(a) W(b|a) in ascending order, so columns with the same multiset of
    products get bit-equal entries, and the score laws pool them.  The joint
    is not validated: each law within its normalization tolerance may make
    one that is not, which the simulators take."""
    if channel.input_size != fed.alphabet_size:
        raise DimensionMismatch("the law fed to the channel does not match its inputs")
    joint = fed.probs[:, None] * channel.rows
    marginal = np.sort(joint, axis=0).sum(axis=0)
    ratio = np.full(joint.shape, -np.inf)
    on = np.nonzero(joint)
    ratio[on] = np.log(channel.rows[on]) - np.log(marginal[on[1]])
    return ratio, marginal


def channel_coding_prediction(channel: Channel, input_dist: Distribution,
                              rate: float, n: int) -> ChannelCodingPrediction:
    """Step and erfc predictions for random coding at the given input.

    a is the mutual information of the operating joint and b the variance of
    its log ratio, both over the table of :func:`log_info_ratio`.  The refined
    prediction is (1/2) erfc(sqrt(n/2b) (R - a)), the normal approximation of
    P(sum_j ln P(x_j:y_j) > nR), degenerating to the step when b = 0.
    """
    _check_count(n, "n")
    p = joint_from(channel, input_dist).probs
    v = np.where(p > 0, log_info_ratio(channel, input_dist)[0], 0.0)
    a = float(np.sum(p * v))
    b = float(np.sum(p * (v - a) ** 2))
    step = 1 if rate < a else 0
    if b > 0:
        p_erfc = 0.5 * math.erfc(math.sqrt(n / (2.0 * b)) * (rate - a))
    else:
        p_erfc = float(step)
    return ChannelCodingPrediction(a, b, rate, n, step, p_erfc)


# --- rate-distortion -------------------------------------------------------------

@dataclass(frozen=True)
class RateDistortionPrediction:
    distortion_bound: float
    rate: float
    threshold: float
    succeeds: bool


def rate_distortion_prediction(source: Distribution, d, D: float,
                               rate: float) -> RateDistortionPrediction:
    """Step prediction for distortion coding: success iff R exceeds the
    rate-distortion function at D.  At D = 0 the threshold is the source
    entropy, recovering the lossless criterion."""
    threshold = rate_distortion(source, d, D).rate_nats
    return RateDistortionPrediction(D, rate, threshold, rate > threshold)

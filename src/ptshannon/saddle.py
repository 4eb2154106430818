"""Steepest-descent evaluation of type-lattice sums.

Sums of the form sum_types class_size * exp(n * sum_x T(x) ln w(x)) turn into
simplex integrals of exp(n L(T)) with L(T) = sum_x T(x) ln(w(x)/T(x)).  With
the normalization constraint adjoined through a Lagrange multiplier, the
stationary point is T ~ w, the second variation is -n * diag(1/T), and the
Gaussian fluctuation factor comes from the closed-form simplex integral.
Constrained variants maximize L over a half-space boundary via exponential
tilting of the weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .alphabet import Distribution
from .errors import DimensionMismatch, InvalidParameter, NonPositiveWeight
from .info_measures import _meeting_slope
from .polytope import simplex_gaussian_integral


@dataclass(frozen=True)
class SaddleResult:
    """Stationary point and leading order of one type-lattice sum."""

    tilde_point: Distribution
    log_value: float
    second_variation: np.ndarray
    n: int


def saddle_of_weights(w, n: int) -> SaddleResult:
    """Stationary point of L(T) = sum T ln(w/T) on the simplex.

    The vanishing first variation forces T ~ w; normalizing gives
    T(x) = w(x)/sum(w), the maximum value is n ln(sum w), and the second
    variation is the diagonal -n/T(x).
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 1 or w.size == 0 or np.any(w <= 0):
        raise NonPositiveWeight("weights must be strictly positive")
    if n < 1:
        raise InvalidParameter("n must be >= 1")
    total = float(w.sum())
    tilde = w / total
    second = -n * np.diag(1.0 / tilde)
    return SaddleResult(Distribution(tilde), n * math.log(total), second, n)


def constrained_sum_estimate(q_source: Distribution, indicator_halfspace, n: int) -> float:
    """Estimate (1/n) ln sum over sequences with sum_x T(x) c(x) <= R of P(x^n).

    If the unconstrained stationary point T = q already satisfies the
    constraint, the sum is exponentially trivial and the estimate is 0.
    Otherwise the maximum of sum T ln(q/T) on the boundary sum T c = R is
    reached by exponential tilting T_s ~ q * exp(-s (c - c_min)), with the
    slope s >= 0 from the one-row case of ``info_measures._meeting_slope``,
    giving the large-deviations value s (R - c_min) + ln sum q exp(-s (c - c_min)),
    the Legendre form of rate_distortion's lower bound.  R = c_min is the
    s = inf limit: the log mass of q on the symbols of least cost.
    """
    c, R = indicator_halfspace
    c = np.asarray(c, dtype=float)
    q = q_source.probs
    if np.any(q <= 0):
        raise NonPositiveWeight("source must be strictly positive")
    if c.shape != q.shape:
        raise DimensionMismatch("constraint vector must match the alphabet")

    if float(q @ c) <= R:
        return 0.0
    c_min = float(c.min())
    if R < c_min:
        return -math.inf
    budget = R - c_min
    s, tilt = _meeting_slope(np.ones(1), (c - c_min)[None, :], q, budget, 0.0)
    return (s * budget if budget else 0.0) + math.log(tilt[0] @ q)


def gaussian_correction(result: SaddleResult) -> float:
    """Log of the Gaussian fluctuation factor around the stationary point.

    The quadratic piece exp(delta2 L / 2) has the diagonal curvature matrix
    A = -delta2 L / 2 = diag(n / (2 T(x))); the closed-form simplex Gaussian
    then gives (2 pi / n)^((N-1)/2) sqrt(prod T).  Composed with the lattice density
    n^(N-1) and the entropy-free class-size prefactor, the saddle estimate of
    the normalization sum collapses to exactly 1, which is the
    self-consistency that fixes the lattice density.
    """
    curvature = -result.second_variation / 2.0
    value = simplex_gaussian_integral(result.tilde_point, curvature)
    return float(np.log(value))


def saddle_normalization_estimate(q: Distribution, n: int) -> float:
    """Saddle estimate of sum_types class_size * iid_prob (exactly 1 by the
    partition identity): density * class-size prefactor * exp(L) * Gaussian.

    Returned in log scale; 0 means perfect agreement.
    """
    res = saddle_of_weights(q.probs, n)
    t = res.tilde_point.probs
    k = t.size
    log_prefactor = -0.5 * (k - 1) * math.log(2 * math.pi * n) - 0.5 * float(np.log(t).sum())
    log_density = (k - 1) * math.log(n)
    return log_density + log_prefactor + res.log_value + gaussian_correction(res)

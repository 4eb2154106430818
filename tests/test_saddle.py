"""Saddle-point evaluation of type-lattice sums."""

import math

import numpy as np
import pytest

from ptshannon import (
    SourceCodingSetup,
    constrained_sum_estimate,
    entropy,
    gaussian_correction,
    make_distribution,
    saddle_of_weights,
    source_coding_exact_psuc,
)
from ptshannon.errors import DimensionMismatch, NonPositiveWeight, PeakNearBoundary
from ptshannon.saddle import saddle_normalization_estimate


def test_saddle_of_distribution_is_fixed_point():
    q = make_distribution([0.6, 0.4])
    res = saddle_of_weights(q.probs, 25)
    assert np.allclose(res.tilde_point.probs, q.probs)
    assert res.log_value == pytest.approx(0.0, abs=1e-12)


def test_saddle_scaling_rule():
    q = make_distribution([0.6, 0.4])
    res = saddle_of_weights(3.0 * q.probs, 7)
    assert np.allclose(res.tilde_point.probs, q.probs)
    assert res.log_value == pytest.approx(7 * math.log(3.0))


def test_saddle_normalization_example():
    res = saddle_of_weights([2.0, 1.0, 1.0], 10)
    assert np.allclose(res.tilde_point.probs, [0.5, 0.25, 0.25])
    assert res.log_value == pytest.approx(10 * math.log(4.0))
    # second variation is the diagonal -n/T on the simplex tangent space
    assert np.allclose(np.diag(res.second_variation), -10 / res.tilde_point.probs)
    tangent = np.array([1.0, -1.0, 0.0])
    assert tangent @ res.second_variation @ tangent < 0


def test_saddle_rejects_nonpositive_weights():
    with pytest.raises(NonPositiveWeight):
        saddle_of_weights([1.0, 0.0], 5)


# --- constrained estimates -----------------------------------------------------------

def test_constrained_estimate_success_regime():
    q = make_distribution([0.9, 0.1])
    c = -np.log(q.probs)
    assert constrained_sum_estimate(q, (c, entropy(q) + 0.04), 100) == 0.0


def test_constrained_estimate_infeasible():
    q = make_distribution([0.9, 0.1])
    c = -np.log(q.probs)
    assert constrained_sum_estimate(q, (c, float(c.min()) - 0.01), 100) == -math.inf


def test_constrained_estimate_vertex_value():
    """R = min c is the s = inf limit of the tilt: the log mass of q on the
    least-cost symbols, returned without a warning."""
    q = make_distribution([0.9, 0.1])
    c = -np.log(q.probs)
    assert constrained_sum_estimate(q, (c, float(c.min())), 100) == math.log(0.9)


def test_constrained_estimate_rejects_wrong_length_constraint():
    q = make_distribution([0.9, 0.1])
    with pytest.raises(DimensionMismatch):
        constrained_sum_estimate(q, (np.array([1.0, 2.0, 3.0]), 1.5), 100)


def test_constrained_estimate_binary_exact_oracle():
    """On two symbols the boundary T . c = R holds one type T*, so the
    estimate is exactly -D(T* || q).  R runs from one ulp above min c, where
    the tilt slope is largest, up to near q . c."""
    rng = np.random.default_rng(16)
    for _ in range(1000):
        a = rng.uniform(0.01, 0.99)
        q = make_distribution([a, 1.0 - a])
        c = rng.uniform(0.0, 3.0, 2)
        lo, hi = float(c.min()), float(q.probs @ c)
        top = int(np.argmax(c))
        for R in (np.nextafter(lo, hi), lo + (hi - lo) * 1e-12, lo + (hi - lo) * 1e-6,
                  lo + (hi - lo) * rng.uniform(0.0, 0.999)):
            t = np.empty(2)
            t[top] = (R - lo) / (c[top] - lo)
            t[1 - top] = 1.0 - t[top]
            ref = -float(t @ np.log(t / q.probs))
            val = constrained_sum_estimate(q, (c, float(R)), 10)
            assert abs(val - ref) <= 1e-12 * abs(ref) + 1e-15, (a, c, R)


def test_constrained_estimate_monotone_in_rate():
    q = make_distribution([0.8, 0.15, 0.05])
    c = -np.log(q.probs)
    grid = np.linspace(float(c.min()) + 0.01, entropy(q) + 0.2, 25)
    vals = [constrained_sum_estimate(q, (c, float(r)), 50) for r in grid]
    for a, b in zip(vals, vals[1:]):
        assert b >= a - 1e-12
    assert vals[-1] == 0.0


def test_constrained_estimate_vs_exact_enumeration():
    """Large-deviations regime at n = 400: the boundary maximum tracks the
    exact lattice sum to within 0.02 nats per symbol."""
    q = make_distribution([0.9, 0.1])
    c = -np.log(q.probs)
    rate = entropy(q) - 0.05
    est = constrained_sum_estimate(q, (c, rate), 400)
    exact = source_coding_exact_psuc(SourceCodingSetup(q, rate, 400))
    assert abs(est - math.log(exact) / 400) <= 0.02


def test_exponential_tightness_error_shrinks():
    q = make_distribution([0.9, 0.1])
    c = -np.log(q.probs)
    rate = entropy(q) - 0.08
    errs = []
    for n in (100, 200, 400, 800):
        est = constrained_sum_estimate(q, (c, rate), n)
        exact = source_coding_exact_psuc(SourceCodingSetup(q, rate, n))
        errs.append(abs(est - math.log(exact) / n))
    # |error| <= C ln(n)/n with a stable constant
    consts = [e * n / math.log(n) for e, n in zip(errs, (100, 200, 400, 800))]
    assert max(consts) <= 1.0
    assert errs[-1] < errs[0]


# --- Gaussian correction ---------------------------------------------------------------

def test_gaussian_correction_closes_the_identity():
    """Density * entropy-free class prefactor * exp(L) * fluctuation = 1."""
    for n in (50, 100, 200):
        q = make_distribution([0.52, 0.48])
        assert math.exp(saddle_normalization_estimate(q, n)) == pytest.approx(
            1.0, abs=1e-10)


def test_gaussian_correction_against_quadrature():
    """The continuous integral the saddle value approximates is within 2% of
    the exact lattice sum (which is exactly 1) at n = 100, binary."""
    n = 100
    q = make_distribution([0.5, 0.5])
    t = np.linspace(1e-9, 1 - 1e-9, 200_001)
    L = n * (t * np.log(q.probs[0] / t) + (1 - t) * np.log(q.probs[1] / (1 - t)))
    pref = n / np.sqrt(2 * math.pi * n * t * (1 - t))
    val = float(np.trapezoid(pref * np.exp(L), t))
    assert val == pytest.approx(1.0, abs=0.02)


def test_gaussian_correction_dimension_scaling():
    """Fluctuation factors scale by sqrt(pi)*... per extra dimension: the
    closed form ratio between N=3 and N=2 at matched n matches quadrature."""
    n = 400
    res2 = saddle_of_weights(np.array([0.5, 0.5]), n)
    res3 = saddle_of_weights(np.array([1.0, 1.0, 1.0]) / 3, n)
    ratio_closed = math.exp(gaussian_correction(res3) - gaussian_correction(res2))
    # oracle: direct quadrature of both fluctuation integrals
    u = np.linspace(-0.4, 0.4, 2001)
    q2 = float(np.trapezoid(np.exp(-n * (u**2 / 0.5 + u**2 / 0.5) / 2), u))
    h = 0.4
    g = np.linspace(-h, h, 801)
    A, B = np.meshgrid(g, g, indexing="ij")
    C = -(A + B)
    form = (A**2 + B**2 + C**2) / (1.0 / 3)
    q3 = float(np.exp(-n * form / 2).sum() * (g[1] - g[0]) ** 2)
    assert ratio_closed == pytest.approx(q3 / q2, rel=1e-3)


def test_gaussian_correction_boundary_guard():
    res = saddle_of_weights([0.97, 0.03], 50)
    with pytest.raises(PeakNearBoundary):
        gaussian_correction(res)

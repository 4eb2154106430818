"""Simplex integrals, smoothed deltas, and rank-one matrix identities."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ptshannon import (
    Distribution,
    RngStream,
    SequenceType,
    SmoothedDelta,
    conditional_simplex_gaussian_integral,
    det_first_order,
    dirichlet_integral,
    sherman_morrison,
    simplex_gaussian_integral,
    smoothed_delta_normalization,
    uniform_distribution,
)
from ptshannon.errors import (
    InstanceTooLarge,
    InvalidParameter,
    LambdaTooSmall,
    NonPositiveExponent,
    PeakNearBoundary,
    SingularMatrix,
    SingularUpdate,
)
from ptshannon.claims import _gaussian_quadrature
from ptshannon.polytope import simplex_patch_volume

from oracles import (
    parallel_resistance_gaussian,
    simplex_mc_integral,
    smoothed_delta_sequence_sum,
)


# --- Dirichlet ------------------------------------------------------------------

def test_dirichlet_examples():
    assert dirichlet_integral([1.0, 1.0]) == 1.0
    assert dirichlet_integral([1.0, 1.0, 1.0]) == 0.5
    assert dirichlet_integral([2.0, 3.0]) == pytest.approx(1 / 12, abs=1e-15)


def test_dirichlet_all_ones_exact():
    for n in range(2, 7):
        assert dirichlet_integral(np.ones(n)) == 1.0 / math.factorial(n - 1)
    # per-row independence: a stack of nx rows integrates to the product
    for nx, ny in ((2, 3), (3, 2)):
        assert dirichlet_integral(np.ones(ny)) ** nx == pytest.approx(
            (1.0 / math.factorial(ny - 1)) ** nx)


def test_dirichlet_beta_vs_monte_carlo():
    # int_0^1 t (1-t)^2 dt over the 1-simplex
    est, se = simplex_mc_integral(
        lambda pts: pts[:, 0] * pts[:, 1] ** 2, 2, 200_000, RngStream(11))
    assert abs(est - 1 / 12) <= 3 * se


@pytest.mark.parametrize("exponents, want", [
    ([0.5, 0.5], math.pi),
    ([0.5, 1.5, 2.0], math.pi / 12),
    ([100.0, 100.0], math.exp(2 * math.lgamma(100.0) - math.lgamma(200.0))),
], ids=["half-half", "half-three-halves-two", "integers-past-170"])
def test_dirichlet_lgamma_branch(exponents, want):
    """Non-integer exponents, or integers whose sum passes 170 (the largest
    n with a finite float n!), take the log-gamma form: Gamma(1/2)^2 = pi,
    Gamma(1/2) Gamma(3/2) Gamma(2) / Gamma(4) = pi/12, and B(100, 100)."""
    assert dirichlet_integral(exponents) == pytest.approx(want, rel=1e-12)


def test_dirichlet_rejects_nonpositive():
    with pytest.raises(NonPositiveExponent):
        dirichlet_integral([1.0, 0.0])


# --- Gaussian on the simplex -------------------------------------------------------

def test_gaussian_symmetric_binary_closed_form():
    for L in (100.0, 1000.0):
        assert simplex_gaussian_integral(uniform_distribution(2), np.diag([L, L])) == pytest.approx(
            math.sqrt(math.pi / (2 * L)), rel=1e-12)


def test_gaussian_vs_quadrature_binary():
    lam = np.array([1000.0, 1300.0])
    center = Distribution(np.array([0.48, 0.52]))
    closed = simplex_gaussian_integral(center, np.diag(lam))
    t = np.linspace(0, 1, 400_001)
    vals = np.exp(-lam[0] * (t - 0.48) ** 2 - lam[1] * ((1 - t) - 0.52) ** 2)
    quad = float(np.trapezoid(vals, t))
    assert closed == pytest.approx(quad, rel=1e-3)


def test_gaussian_vs_monte_carlo_interior_configs():
    """Closed form within 3 Monte Carlo standard errors for 20 random
    interior configurations with lambda >= 100."""
    gen = np.random.default_rng(321)
    checked = 0
    while checked < 20:
        n = int(gen.integers(2, 5))
        lam = gen.uniform(160.0, 500.0, size=n)
        center = uniform_distribution(n)
        closed = simplex_gaussian_integral(center, np.diag(lam))

        def f(pts, lam=lam, c=center.probs):
            return np.exp(-np.sum(lam[None, :] * (pts - c[None, :]) ** 2, axis=1))

        est, se = simplex_mc_integral(f, n, 120_000, RngStream(1000 + checked))
        assert abs(est - closed) <= 3 * se
        checked += 1


def test_gaussian_matrix_form_matches_diagonal():
    lam = np.array([150.0, 90.0, 220.0])
    center = uniform_distribution(3)
    a = parallel_resistance_gaussian(lam)
    b = simplex_gaussian_integral(center, np.diag(lam))
    assert b == pytest.approx(a, rel=1e-12)
    # diagonal case of the grand-sum formula is the parallel combination
    assert np.linalg.det(np.diag(lam)) * np.sum(1 / lam) == pytest.approx(
        np.prod(lam) * np.sum(1 / lam))


@given(st.integers(2, 6).flatmap(lambda N: st.tuples(
    st.lists(st.floats(2e3, 1e9), min_size=N, max_size=N),
    st.lists(st.floats(1.0, 2.0), min_size=N, max_size=N))))
def test_gaussian_diagonal_is_parallel_resistance(case):
    """At any interior peak with diagonal curvatures the one closed form is
    the parallel-resistance formula (each center coordinate is at least
    1/(2N) >= 3/sqrt(2e3), clear of the boundary guard)."""
    lam, weights = map(np.array, case)
    center = Distribution(weights / weights.sum())
    got = simplex_gaussian_integral(center, np.diag(lam))
    assert got == pytest.approx(parallel_resistance_gaussian(lam), rel=1e-12)


@given(st.integers(2, 4).flatmap(lambda N: st.tuples(
    st.floats(200.0, 5e3), st.lists(st.floats(1.0, 2.0), min_size=N, max_size=N))))
def test_claims_quadrature_is_parallel_resistance(case):
    """The claims battery's Riemann sum over DP reproduces the diagonal
    closed form at a uniform peak, every lam_x in [200, 1e4].  The curvatures
    lie within a factor 2 of each other, so one grid resolves every axis: it
    reaches 6/sqrt(lam_min) from the peak (or the simplex's edge) with a
    spacing below 0.4/sqrt(lam_max).  What remains is the Gaussian mass
    outside the simplex, about 4e-8 of the value at N = 4, lam = 200."""
    scale, ratios = case
    lam = scale * np.array(ratios)
    N = lam.size
    quad = _gaussian_quadrature(np.diag(lam), np.full((1, N), 1.0 / N),
                                min(1.0 / N, 6.0 / math.sqrt(lam.min())), 45)
    assert quad == pytest.approx(parallel_resistance_gaussian(lam), rel=1e-6)


def test_claims_quadrature_of_a_block_diagonal_stack_is_the_block_product():
    """On a block-diagonal A the stacked grid is the product of the blocks'
    grids, so the sum over two conditional rows is the product of the two
    one-row sums; both agree with the closed forms."""
    gen = np.random.default_rng(16)
    blocks = [B @ B.T + 400 * np.eye(2) for B in gen.normal(size=(2, 2, 2))]
    A = np.zeros((4, 4))
    A[:2, :2], A[2:, 2:] = blocks
    center = np.array([[0.45, 0.55], [0.6, 0.4]])
    stacked = _gaussian_quadrature(A, center, 0.3, 121)
    parts = [_gaussian_quadrature(blk, row[None, :], 0.3, 121) for blk, row in zip(blocks, center)]
    assert stacked == pytest.approx(parts[0] * parts[1], rel=1e-12)
    closed = [simplex_gaussian_integral(Distribution(row), blk) for blk, row in zip(blocks, center)]
    assert parts == pytest.approx(closed, rel=1e-12)
    assert stacked == pytest.approx(
        conditional_simplex_gaussian_integral(A, 2, 2, center_rows=center), rel=1e-12)


def test_gaussian_matrix_form_vs_quadrature_offdiagonal():
    """The constraint direction is all-ones, so the grand sum of A^-1 (not
    its trace) must appear in the closed form; quadrature decides."""
    A = np.array([[300.0, 80.0], [80.0, 240.0]])
    center = uniform_distribution(2)
    closed = simplex_gaussian_integral(center, A)
    t = np.linspace(-0.5, 0.5, 400_001)
    q = A[0, 0] - 2 * A[0, 1] + A[1, 1]  # form along (u, -u)
    quad = float(np.trapezoid(np.exp(-q * t**2), t))
    assert closed == pytest.approx(quad, rel=1e-6)
    trace_version = math.sqrt(math.pi / (np.linalg.det(A) * np.trace(np.linalg.inv(A))))
    assert abs(trace_version - quad) / quad > 0.05  # the trace form is wrong here


def test_gaussian_guards():
    with pytest.raises(LambdaTooSmall):
        simplex_gaussian_integral(uniform_distribution(2), np.diag([5.0, 50.0]))
    with pytest.raises(PeakNearBoundary):
        simplex_gaussian_integral(Distribution(np.array([0.02, 0.98])),
                                  np.diag([100.0, 100.0]))
    with pytest.raises(SingularMatrix):
        simplex_gaussian_integral(uniform_distribution(2),
                                  np.array([[100.0, 0.0], [0.0, -5.0]]))


# --- conditional Gaussian -----------------------------------------------------------

def test_conditional_gaussian_single_block_reduction():
    gen = np.random.default_rng(9)
    B = gen.normal(size=(3, 3))
    A = B @ B.T + 150 * np.eye(3)
    center = uniform_distribution(3)
    ones = np.ones(3)
    plain = math.sqrt(math.pi ** 2 / (np.linalg.det(A) * (ones @ np.linalg.solve(A, ones))))
    cond = conditional_simplex_gaussian_integral(A, 1, 3, center_rows=center.probs[None, :])
    assert cond == pytest.approx(plain, rel=1e-12)


def test_conditional_gaussian_identity_blocks():
    lam = 400.0
    A = lam * np.eye(4)
    val = conditional_simplex_gaussian_integral(A, 2, 2, center_rows=np.full((2, 2), 0.5))
    assert val == pytest.approx(math.pi / (2 * lam), rel=1e-12)


def test_conditional_gaussian_block_diagonal_product():
    gen = np.random.default_rng(10)
    vals = []
    blocks = []
    for _ in range(2):
        B = gen.normal(size=(2, 2))
        blk = B @ B.T + 200 * np.eye(2)
        blocks.append(blk)
        vals.append(simplex_gaussian_integral(uniform_distribution(2), blk))
    A = np.zeros((4, 4))
    A[:2, :2], A[2:, 2:] = blocks
    cond = conditional_simplex_gaussian_integral(A, 2, 2, center_rows=np.full((2, 2), 0.5))
    assert cond == pytest.approx(vals[0] * vals[1], rel=1e-12)


def test_conditional_gaussian_vs_quadrature():
    gen = np.random.default_rng(12)
    B = gen.normal(size=(4, 4))
    A = B @ B.T + 3000 * np.eye(4)
    cond = conditional_simplex_gaussian_integral(A, 2, 2, center_rows=np.full((2, 2), 0.5))
    u = np.linspace(-0.5, 0.5, 1501)
    du = u[1] - u[0]
    U0, U1 = np.meshgrid(u, u, indexing="ij")
    v0 = np.array([1.0, -1.0, 0.0, 0.0])
    v1 = np.array([0.0, 0.0, 1.0, -1.0])
    form = (v0 @ A @ v0) * U0**2 + 2 * (v0 @ A @ v1) * U0 * U1 + (v1 @ A @ v1) * U1**2
    quad = float(np.exp(-form).sum() * du * du)
    assert cond == pytest.approx(quad, rel=1e-2)


def test_conditional_gaussian_rejects_indefinite():
    with pytest.raises(SingularMatrix):
        conditional_simplex_gaussian_integral(-np.eye(4), 2, 2, center_rows=np.full((2, 2), 0.5))


# --- smoothed deltas -----------------------------------------------------------------

def test_smoothed_delta_continuous_normalization():
    rep = smoothed_delta_normalization(
        SmoothedDelta(0.01, SequenceType((100, 100), 200)), uniform_distribution(2))
    assert rep.continuous_value == pytest.approx(1.0, abs=1e-6)


def test_smoothed_delta_guard_near_corner():
    with pytest.raises(PeakNearBoundary):
        smoothed_delta_normalization(
            SmoothedDelta(0.2, SequenceType((195, 5), 200)), uniform_distribution(2))


@pytest.mark.parametrize("eps", [0.0, 1.0, 1e-200, 1e-160])
def test_smoothed_delta_rejects_eps_without_finite_curvature(eps):
    """eps outside (0, 1), or so small that eps^2 underflows to 0 (1e-200)
    or to a subnormal whose reciprocal overflows (1e-160): a typed error,
    not a ZeroDivisionError or a math domain error from the closed form."""
    with pytest.raises(InvalidParameter, match="curvature"):
        SmoothedDelta(eps, SequenceType((100, 100), 200))


def test_smoothed_delta_type_guard_checked_before_enumeration():
    """Reference (20,)*6 at n = 120, eps = 0.05: the peak clears the
    boundary (3 sigma = 0.106 < 1/6), but the lattice has C(125, 5) ~ 2.3e8
    types, over the enumeration guard, so the call raises before any is
    built."""
    assert 3 * 0.05 / math.sqrt(2) < 1 / 6
    with pytest.raises(InstanceTooLarge):
        smoothed_delta_normalization(
            SmoothedDelta(0.05, SequenceType((20,) * 6, 120)), uniform_distribution(6))


def test_smoothed_delta_discrete_sums():
    """Characterize both lattice sums at n=200, eps=0.05: the Riemann
    discretization of the continuous identity is 1, while the sequence-level
    sum carries the class-size ratio and matches its closed form (~0.894)."""
    rep = smoothed_delta_normalization(
        SmoothedDelta(0.05, SequenceType((100, 100), 200)), uniform_distribution(2))
    assert rep.type_sum == pytest.approx(1.0, abs=1e-6)
    assert rep.sequence_sum == pytest.approx(smoothed_delta_sequence_sum(200, 0.05, 2),
                                             rel=1e-3)


def test_patch_volume_formula():
    assert simplex_patch_volume(1.0, 2) == pytest.approx(math.sqrt(math.pi / 2))
    assert simplex_patch_volume(2.0, 3) == pytest.approx(4 * math.pi / math.sqrt(3))


# --- rank-one identities --------------------------------------------------------------

def test_sherman_morrison_rank_one_on_identity():
    e1 = np.zeros(3)
    e1[0] = 1.0
    inv, det = sherman_morrison(np.eye(3), 1.0, e1, e1)
    assert np.allclose(inv, np.diag([0.5, 1.0, 1.0]))
    assert det == pytest.approx(2.0)


def test_sherman_morrison_zero_update():
    gen = np.random.default_rng(13)
    E = gen.normal(size=(4, 4)) + 4 * np.eye(4)
    Ei = np.linalg.inv(E)
    inv, det = sherman_morrison(Ei, float(np.linalg.det(E)), np.zeros(4), gen.normal(size=4))
    assert np.allclose(inv, Ei)
    assert det == pytest.approx(np.linalg.det(E))


def test_sherman_morrison_random_instances():
    gen = np.random.default_rng(14)
    for _ in range(100):
        n = int(gen.integers(2, 6))
        E = gen.normal(size=(n, n)) + n * np.eye(n)
        p, q = gen.normal(size=n), gen.normal(size=n)
        inv, det = sherman_morrison(np.linalg.inv(E), float(np.linalg.det(E)), p, q)
        A = E + np.outer(p, q)
        assert np.max(np.abs(inv @ A - np.eye(n))) <= 1e-12
        assert det == pytest.approx(np.linalg.det(A), rel=1e-10)


def test_sherman_morrison_singular_update():
    # q^T E^-1 p = -1 makes the update singular
    E = np.eye(2)
    p = np.array([1.0, 0.0])
    q = np.array([-1.0, 0.0])
    with pytest.raises(SingularUpdate):
        sherman_morrison(E, 1.0, p, q)


def test_det_first_order_diagonal_and_traceless():
    n, eps = 4, 1e-3
    assert det_first_order(np.eye(n), eps) == pytest.approx(1 + n * eps)
    traceless = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert det_first_order(traceless, eps) == 1.0


def test_det_first_order_error_quadratic_in_eps():
    gen = np.random.default_rng(15)
    A = gen.normal(size=(4, 4))
    eps = 1e-3
    e1 = abs(np.linalg.det(np.eye(4) + eps * A) - det_first_order(A, eps))
    e2 = abs(np.linalg.det(np.eye(4) + eps / 2 * A) - det_first_order(A, eps / 2))
    assert 3.5 <= e1 / e2 <= 4.5

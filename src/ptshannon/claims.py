"""Claim-verification battery: exact counting identities, asymptotic size
estimates, polytope-integral oracles and saddle fidelity, each reported as
one CSV row (check, detail, value, reference, error, tolerance, status).

This module is the only implementation of acceptance criteria A01-A06 and
A08: the CLI ``claims`` and ``integrals`` subcommands write its rows, and
``tests/test_acceptance.py`` asserts on the same rows by check name
(its ``CLAIM_ROWS`` maps every check to exactly one criterion):

  A01 type_partition_*          A04 chain_rule_*, conditional_class_count
  A02 stirling_*                A05 dirichlet_*, simplex_gaussian_*,
  A03 type_density_ratio            conditional_gaussian_*, sherman_morrison_*,
  A06a smoothed_delta_continuous    matrix_determinant_lemma, det_first_order_*
  A06b smoothed_delta_type_sum, smoothed_delta_sequence_sum
  A08 saddle_* (three self-consistency checks and saddle_fidelity)

Status is ``pass`` or ``fail``: every row is gated against the value the
method defines at the given parameters, with its finite-n corrections where
the method has them, so an approximation-regime mismatch shows as a failure.
"""

from __future__ import annotations

import math

import numpy as np

from .alphabet import Distribution, RngStream, uniform_distribution
from .coding import SourceCodingSetup, source_coding_exact_psuc
from .errors import InstanceTooLarge
from .info_measures import entropy
from .polytope import (
    SimplexGaussian,
    SmoothedDelta,
    conditional_simplex_gaussian_integral,
    det_first_order,
    dirichlet_integral,
    sherman_morrison,
    simplex_gaussian_integral,
    smoothed_delta_normalization,
)
from .saddle import constrained_sum_estimate, saddle_normalization_estimate
from .type_classes import (
    ENUMERATION_GUARD,
    JointSequenceType,
    SequenceType,
    class_size,
    class_size_int,
    conditional_class_size_int,
    count_types,
    enumerate_types,
    iid_type_probability,
    type_array,
    type_count_identity_check,
    type_density_estimate,
)

Row = tuple


def _row(check, detail, value, reference, tol, status=None) -> Row:
    err = abs(value - reference) if np.isfinite(value) and np.isfinite(reference) else math.inf
    if status is None:
        status = "pass" if err <= tol else "fail"
    return (check, detail, value, reference, err, tol, status)


# --- counting identities ---------------------------------------------------------

def partition_rows(max_n: int) -> list[Row]:
    """Type classes partition the sequence space: exact size sum and the
    probability normalization sum over the lattice."""
    rows = []
    q_by_size = {2: Distribution(np.array([0.9, 0.1])),
                 3: Distribution(np.array([0.5, 0.3, 0.2]))}
    for N in (2, 3):
        q = q_by_size[N]
        for n in range(1, max_n + 1):
            total = 0
            prob_sum = 0.0
            for t in enumerate_types(N, n):
                size = class_size_int(t)
                total += size
                prob_sum += size * math.exp(iid_type_probability(t, q))
            rows.append(_row("type_partition_count", f"N={N},n={n}",
                             float(total), float(N**n), 0.0))
            rows.append(_row("type_partition_prob", f"N={N},n={n}",
                             prob_sum, 1.0, 1e-12))
    return rows


def stirling_rows() -> list[Row]:
    """Asymptotic class-size estimate at the balanced binary type: relative
    error below 1% by n=100 and strictly decreasing in n."""
    rows = []
    errors = []
    for n in range(20, 201, 20):
        cs = class_size(SequenceType((n // 2, n // 2), n))
        rel = abs(math.expm1(cs.stirling_log - cs.exact_log))
        errors.append(rel)
        if n == 100:
            rows.append(_row("stirling_rel_error", f"n={n}", rel, 0.0, 1e-2))
    decreasing = all(a > b for a, b in zip(errors, errors[1:]))
    rows.append(_row("stirling_monotone_decrease", "n=20..200 step 20",
                     float(decreasing), 1.0, 0.0))
    return rows


def density_rows() -> list[Row]:
    """Exact type count vs the leading-order density n^(N-1)/(N-1)!:
    the ratio lies in [1, 1 + 3N/n]."""
    rows = []
    for N in (2, 3):
        for n in (50, 80, 100, 200, 400, 1000):
            ratio = count_types(N, n) / type_density_estimate(N, n)
            ok = 1.0 <= ratio <= 1.0 + 3.0 * N / n
            rows.append(_row("type_density_ratio", f"N={N},n={n}",
                             ratio, 1.0, 3.0 * N / n,
                             status="pass" if ok else "fail"))
    return rows


def chain_rule_rows(max_n: int) -> list[Row]:
    """Conditional-class counting identities, binary x binary, exact integers."""
    rows = []
    for n in range(2, max_n + 1):
        rep = type_count_identity_check(2, 2, n)
        rows.append(_row("chain_rule_class_count", f"n={n}",
                         float(rep.lhs_class_count), float(rep.rhs_class_count), 0.0))
        rows.append(_row("chain_rule_sequence_count", f"n={n}",
                         float(rep.lhs_sequence_count), float(rep.rhs_sequence_count), 0.0))
    return rows


def conditional_class_rows(max_n: int) -> list[Row]:
    """Conditional class sizes, binary x binary, against a brute-force count:
    against x = 0^k 1^(n-k), y realizes the joint type ((k-b, b), (n-k-d, d))
    with b, d its ones in the first k and last n-k places.  Every y in
    {0,1}^n is tallied by (k, b, d); each row sums one n's counts and passes
    only if every joint type's tally is its `conditional_class_size_int`."""
    rows = []
    for n in range(2, max_n + 1):
        bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
        b = np.pad(np.cumsum(bits, axis=1), ((0, 0), (1, 0)))  # ones in the first k places
        tally = np.zeros((n + 1,) * 3, dtype=np.int64)
        np.add.at(tally, (np.arange(n + 1), b, b[:, -1:] - b), 1)
        joint = type_array(4, n)  # rows (a, b, c, d) = ((a, b), (c, d))
        brute = tally[joint[:, 0] + joint[:, 1], joint[:, 1], joint[:, 3]].tolist()
        exact = [conditional_class_size_int(JointSequenceType((row[:2], row[2:]), n))
                 for row in joint.tolist()]
        rows.append(_row("conditional_class_count", f"n={n}", float(sum(brute)),
                         float(sum(exact)), 0.0,
                         status="pass" if brute == exact else "fail"))
    return rows


# --- polytope integrals ------------------------------------------------------------

def dirichlet_rows() -> list[Row]:
    rows = []
    for N in range(2, 7):
        val = dirichlet_integral(np.ones(N))
        rows.append(_row("dirichlet_all_ones", f"N={N}", val,
                         1.0 / math.factorial(N - 1), 0.0))
    rows.append(_row("dirichlet_beta", "a=(2,3)", dirichlet_integral([2.0, 3.0]),
                     1.0 / 12.0, 1e-14))
    return rows


def gaussian_rows(rng: RngStream) -> list[Row]:
    rows = []
    # N=2 closed form vs quadrature
    t = np.linspace(0.0, 1.0, 400_001)
    for lam, c in (((1000.0, 1500.0), 0.45), ((1000.0, 1000.0), 0.5)):
        center = Distribution(np.array([c, 1.0 - c]))
        closed = simplex_gaussian_integral(SimplexGaussian(center, lambdas=np.array(lam)))
        integrand = np.exp(-lam[0] * (t - c) ** 2 - lam[1] * ((1 - t) - (1 - c)) ** 2)
        quad = float(np.trapezoid(integrand, t))
        rows.append(_row("simplex_gaussian_vs_quadrature",
                         f"N=2,lam={lam[0]:g}:{lam[1]:g},c={c}", closed / quad, 1.0, 1e-3))
    # N=3,4 closed form vs a Riemann sum over the simplex, on a uniform grid
    # of the first N-1 coordinates in [0, 2/N].  Outside that box and near
    # its edges the integrand is below e^(-lam_min/N^2) < e^-11, so the sum
    # converges spectrally.  The closed form integrates over the whole plane;
    # the Gaussian mass outside the simplex is about 1e-7 of the value at
    # worst (N=4, every lam=180).
    for idx, N in enumerate((3, 4)):
        gen = rng.substream(100 + idx).generator()
        # 3/sqrt(lam_min) must clear the 1/N interior margin for any draw
        lam = gen.uniform(180.0, 500.0, size=N)
        c = 1.0 / N
        closed = simplex_gaussian_integral(SimplexGaussian(uniform_distribution(N),
                                                           lambdas=lam))
        axis = np.linspace(0.0, 2 * c, 41)
        pts = np.stack(np.meshgrid(*[axis] * (N - 1), indexing="ij"), axis=-1)
        pts = pts.reshape(-1, N - 1)
        last = 1.0 - pts.sum(axis=1)
        expo = (lam[:-1] * (pts - c) ** 2).sum(axis=1) + lam[-1] * (last - c) ** 2
        quad = float(np.exp(-expo)[last >= 0].sum()) * (axis[1] - axis[0]) ** (N - 1)
        rows.append(_row("simplex_gaussian_vs_quadrature", f"N={N}", closed / quad,
                         1.0, 1e-5))
    # matrix form reduces to the diagonal form
    lam = np.array([130.0, 95.0, 250.0])
    center = uniform_distribution(3)
    diag_val = simplex_gaussian_integral(SimplexGaussian(center, lambdas=lam))
    mat_val = simplex_gaussian_integral(SimplexGaussian(center, matrix=np.diag(lam)))
    rows.append(_row("simplex_gaussian_matrix_diag", "N=3", mat_val, diag_val, 1e-12))
    return rows


def conditional_gaussian_rows(rng: RngStream) -> list[Row]:
    rows = []
    # single-block reduction: nx=1 conditional equals the matrix simplex form
    gen = rng.substream(300).generator()
    B = gen.normal(size=(3, 3))
    A = B @ B.T + 200.0 * np.eye(3)
    center = uniform_distribution(3)
    plain = simplex_gaussian_integral(SimplexGaussian(center, matrix=A))
    cond = conditional_simplex_gaussian_integral(A, 1, 3,
                                                 center_rows=center.probs[None, :])
    rows.append(_row("conditional_gaussian_single_block", "nx=1,ny=3",
                     cond, plain, 1e-12 * plain))
    # block-diagonal across x factorizes
    gen = rng.substream(301).generator()
    blocks = []
    vals = []
    rows_c = np.full((2, 2), 0.5)
    for _ in range(2):
        B = gen.normal(size=(2, 2))
        blk = B @ B.T + 150.0 * np.eye(2)
        blocks.append(blk)
        vals.append(simplex_gaussian_integral(
            SimplexGaussian(uniform_distribution(2), matrix=blk)))
    A = np.zeros((4, 4))
    A[:2, :2] = blocks[0]
    A[2:, 2:] = blocks[1]
    cond = conditional_simplex_gaussian_integral(A, 2, 2, center_rows=rows_c)
    rows.append(_row("conditional_gaussian_block_product", "nx=2,ny=2",
                     cond, vals[0] * vals[1], 1e-12 * vals[0] * vals[1]))
    # random positive-definite A vs 2-D quadrature (one free variable per row)
    gen = rng.substream(302).generator()
    B = gen.normal(size=(4, 4))
    A = B @ B.T + 2000.0 * np.eye(4)
    cond = conditional_simplex_gaussian_integral(A, 2, 2, center_rows=rows_c)
    # the form is at least 4000 |u|^2 (A >= 2000 I, each row direction has
    # squared norm 2), so past |u| = 0.1 the integrand is below e^-40 of its
    # peak: the grid of spacing 1/1200 stops there
    u = np.arange(-120, 121) / 1200.0
    du = u[1] - u[0]
    U0, U1 = np.meshgrid(u, u, indexing="ij")
    # row deviations: (u, -u) per row
    v0 = np.array([1.0, -1.0, 0.0, 0.0])
    v1 = np.array([0.0, 0.0, 1.0, -1.0])
    q00 = v0 @ A @ v0
    q01 = v0 @ A @ v1
    q11 = v1 @ A @ v1
    integrand = np.exp(-(q00 * U0**2 + 2 * q01 * U0 * U1 + q11 * U1**2))
    quad = float(integrand.sum() * du * du)
    rows.append(_row("conditional_gaussian_vs_quadrature", "nx=2,ny=2",
                     cond / quad, 1.0, 1e-2))
    return rows


def rank_one_rows(rng: RngStream) -> list[Row]:
    instances = 100
    gen = rng.substream(400).generator()
    worst_inv = 0.0
    worst_det = 0.0
    for _ in range(instances):
        n = int(gen.integers(2, 7))
        E = gen.normal(size=(n, n)) + n * np.eye(n)
        p = gen.normal(size=n)
        q = gen.normal(size=n)
        Ei = np.linalg.inv(E)
        detE = float(np.linalg.det(E))
        Ai, detA = sherman_morrison(Ei, detE, p, q)
        A = E + np.outer(p, q)
        worst_inv = max(worst_inv, float(np.max(np.abs(Ai @ A - np.eye(n)))))
        ref_det = float(np.linalg.det(A))
        worst_det = max(worst_det, abs(detA - ref_det) / max(abs(ref_det), 1e-30))
    return [
        _row("sherman_morrison_inverse", f"{instances} instances", worst_inv, 0.0, 1e-12),
        _row("matrix_determinant_lemma", f"{instances} instances", worst_det, 0.0, 1e-10),
    ]


def det_expansion_rows(rng: RngStream) -> list[Row]:
    gen = rng.substream(500).generator()
    A = gen.normal(size=(4, 4))
    eps = 1e-3
    e1 = abs(np.linalg.det(np.eye(4) + eps * A) - det_first_order(A, eps))
    e2 = abs(np.linalg.det(np.eye(4) + 0.5 * eps * A) - det_first_order(A, 0.5 * eps))
    ratio = e1 / e2
    ok = 3.5 <= ratio <= 4.5
    return [_row("det_first_order_eps_halving", "4x4,eps=1e-3", ratio, 4.0, 0.5,
                 status="pass" if ok else "fail")]


def smoothed_delta_rows(n: int, eps: float) -> list[Row]:
    """Normalization of the smoothed type delta.

    The continuous form and its lattice discretization are both gated
    against 1 (the closed form makes the continuous form exactly 1).  The
    sequence-level sum carries the class-size ratio sqrt(d_class/d_ref),
    which near the reference type is exp(-(nN/4)|T - T_ref|^2) and adds to
    the Gaussian's curvature lam0 = 1/eps^2, so it is gated against
    (lam0 / (lam0 + nN/4))^((N-1)/2), not 1.
    """
    ref = SequenceType((n // 2, n // 2), n)
    rep = smoothed_delta_normalization(SmoothedDelta(eps, ref),
                                       Distribution(np.array([0.5, 0.5])))
    lam0 = 1.0 / eps ** 2
    target = math.sqrt(lam0 / (lam0 + n / 2.0))  # N = 2
    return [
        _row("smoothed_delta_continuous", f"n={n},eps={eps}",
             rep.continuous_value, 1.0, 1e-6),
        _row("smoothed_delta_type_sum", f"n={n},eps={eps}",
             rep.type_sum, 1.0, 1e-6),
        _row("smoothed_delta_sequence_sum", f"n={n},eps={eps}",
             rep.sequence_sum, target, 1e-3 * target),
    ]


def saddle_rows() -> list[Row]:
    """Saddle self-consistency: the closed-form composition is exactly 1 and
    the continuous integral it approximates converges at rate 1/n.  Saddle
    fidelity: the constrained estimate is within 0.02 nats of (1/n) ln of the
    exact sum it estimates, for source (0.9, 0.1) at R = H - 0.05."""
    rows = []
    q = Distribution(np.array([0.52, 0.48]))
    errs = []
    # continuous integral of the full integrand by quadrature:
    # sqrt(n / (2 pi t (1-t))) exp(n L(t)), with L(t) = sum T ln(q/T)
    t = np.linspace(1e-9, 1 - 1e-9, 400_001)
    L = t * np.log(q.probs[0] / t) + (1 - t) * np.log(q.probs[1] / (1 - t))
    pref = 1.0 / np.sqrt(2 * math.pi * t * (1 - t))
    for n in (50, 100, 200):
        est = saddle_normalization_estimate(q, n)
        rows.append(_row("saddle_composition_identity", f"n={n}",
                         math.exp(est), 1.0, 1e-10))
        val = math.sqrt(n) * float(np.trapezoid(pref * np.exp(n * L), t))
        errs.append(abs(val - 1.0))
        rows.append(_row("saddle_integral_vs_exact_sum", f"n={n}", val, 1.0, 2e-2))
    halves = all(errs[i + 1] <= 0.75 * errs[i] for i in range(len(errs) - 1))
    rows.append(_row("saddle_error_shrinks_with_n", "n=50,100,200",
                     float(halves), 1.0, 0.0))
    # the large-deviations estimate against the exact lossless-coding sum
    q = Distribution(np.array([0.9, 0.1]))
    n, rate = 400, entropy(q) - 0.05
    est = constrained_sum_estimate(q, (-np.log(q.probs), rate), n)
    exact = source_coding_exact_psuc(SourceCodingSetup(q, rate, n))
    rows.append(_row("saddle_fidelity", f"n={n},R=H-0.05", est, math.log(exact) / n, 0.02))
    return rows


def run_all(rng: RngStream, appendix_only: bool = False, *, partition_max_n: int = 14,
            chain_rule_max_n: int = 8, delta_n: int = 200,
            delta_eps: float = 0.05) -> list[Row]:
    """Every row, or only the polytope-integral rows with ``appendix_only``.
    The enumeration guards run before any row is computed."""
    rows: list[Row] = []
    if not appendix_only:
        # each power is capped at n = 64, far past its guard, so a huge n fails at once
        if count_types(3, partition_max_n) * 3**min(partition_max_n, 64) > 10**9:
            raise InstanceTooLarge(
                f"check type_partition: n={partition_max_n} exceeds the enumeration guard")
        if chain_rule_max_n * 2**min(chain_rule_max_n, 64) > ENUMERATION_GUARD:
            raise InstanceTooLarge(f"check conditional_class_count: n={chain_rule_max_n} "
                                   "exceeds the enumeration guard")
        rows += partition_rows(partition_max_n)
        rows += stirling_rows()
        rows += density_rows()
        rows += chain_rule_rows(chain_rule_max_n)
        rows += conditional_class_rows(chain_rule_max_n)
        rows += saddle_rows()
    rows += dirichlet_rows()
    rows += gaussian_rows(rng)
    rows += conditional_gaussian_rows(rng)
    rows += rank_one_rows(rng)
    rows += det_expansion_rows(rng)
    rows += smoothed_delta_rows(delta_n, delta_eps)
    return rows

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

The battery has one quadrature, `_simplex_riemann_sum`: a Riemann sum under
DP over a stack of simplices.  A05's Gaussian rows check the one
simplex-Gaussian closed form against it and against formulas written out in
the row, and A08's saddle_integral_vs_exact_sum integrates the saddle's
continuous integrand with it.  sherman_morrison_inverse and
matrix_determinant_lemma gate each instance against its own rounding bound,
and det_first_order_eps_halving against the exact finite-eps ratio, not
against a fixed window.
"""

from __future__ import annotations

import math

import numpy as np

from .alphabet import Distribution, RngStream, uniform_distribution
from .coding import SourceCodingSetup, source_coding_exact_psuc
from .errors import InstanceTooLarge
from .info_measures import entropy
from .polytope import (
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
    _masked_dot,
    class_size,
    conditional_class_size_int,
    count_types,
    multinomial_int,
    type_array,
    type_count_identity_check,
    type_density_estimate,
)

Row = tuple
EPS = float(np.finfo(float).eps)


def _row(check, detail, value, reference, tol, status=None) -> Row:
    err = abs(value - reference) if np.isfinite(value) and np.isfinite(reference) else math.inf
    if status is None:
        status = "pass" if err <= tol else "fail"
    return (check, detail, value, reference, err, tol, status)


# --- counting identities ---------------------------------------------------------

def partition_rows(max_n: int) -> list[Row]:
    """Type classes partition the sequence space: exact size sum and the
    probability normalization sum over each (N, n) type array."""
    rows = []
    for q in ([0.9, 0.1], [0.5, 0.3, 0.2]):
        N, log_q = len(q), np.log(q)
        for n in range(1, max_n + 1):
            counts = type_array(N, n)
            sizes = [multinomial_int(row) for row in counts.tolist()]
            prob_sum = 0.0
            for size, log_p in zip(sizes, _masked_dot(counts, log_q).tolist()):
                prob_sum += size * math.exp(log_p)
            rows.append(_row("type_partition_count", f"N={N},n={n}",
                             float(sum(sizes)), float(N**n), 0.0))
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


def _simplex_riemann_sum(log_f, center_rows, half_width: float, points: int) -> float:
    """The battery's one quadrature: a Riemann sum of exp(log_f(P)) under DP
    for a stack of nx simplices, one per row of the nx x ny P.  Each row's
    first ny-1 coordinates run over ``points`` uniform values within
    ``half_width`` of ``center_rows``, its last is 1 minus their sum, and
    points with a coordinate <= 0 are dropped; ``log_f`` gets the rest as one
    (points, nx, ny) array.  A smooth peak converges spectrally."""
    rows = np.asarray(center_rows, dtype=float)
    nx, ny = rows.shape
    offsets = np.linspace(-half_width, half_width, points)
    axes = [c + offsets for c in rows[:, :-1].ravel().tolist()]
    free = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, nx, ny - 1)
    P = np.concatenate([free, 1.0 - free.sum(axis=2, keepdims=True)], axis=2)
    P = P[(P > 0).all(axis=(1, 2))]
    return float(np.exp(log_f(P)).sum() * (offsets[1] - offsets[0]) ** (nx * (ny - 1)))


def _gaussian_quadrature(A, center_rows, half_width: float, points: int) -> float:
    """`_simplex_riemann_sum` of exp(-(P - Q)^T A (P - Q)), with P and the
    peak Q = ``center_rows`` flattened row by row."""
    def log_f(P):
        dev = P.reshape(len(P), -1) - np.ravel(center_rows)
        return -((dev @ A) * dev).sum(axis=1)
    return _simplex_riemann_sum(log_f, center_rows, half_width, points)


def gaussian_rows(rng: RngStream) -> list[Row]:
    # closed form vs quadrature at N=2: the curvature along the simplex is at
    # least 2000, so 0.2 from the peak the integrand is below e^-80
    cases = [(f"N=2,lam={a:g}:{b:g},c={c}", np.array([a, b]), np.array([c, 1.0 - c]),
              0.2, 201, 1e-3) for (a, b), c in (((1000.0, 1500.0), 0.45), ((1000.0, 1000.0), 0.5))]
    # and at N=3,4 over the first N-1 coordinates in [0, 2/N].  Outside that
    # box and near its edges the integrand is below e^(-lam_min/N^2) < e^-11.
    # The closed form integrates over the whole plane; the Gaussian mass
    # outside the simplex is about 1e-7 of the value at worst (N=4, every lam=180).
    for idx, N in enumerate((3, 4)):
        # 3/sqrt(lam_min) must clear the 1/N interior margin for any draw
        lam = rng.substream(100 + idx).generator().uniform(180.0, 500.0, size=N)
        cases.append((f"N={N}", lam, np.full(N, 1.0 / N), 1.0 / N, 41, 1e-5))
    rows = []
    for detail, lam, center, half_width, points, tol in cases:
        closed = simplex_gaussian_integral(Distribution(center), np.diag(lam))
        quad = _gaussian_quadrature(np.diag(lam), center[None, :], half_width, points)
        rows.append(_row("simplex_gaussian_vs_quadrature", detail, closed / quad, 1.0, tol))
    # diagonal A: the parallel-resistance form sqrt(pi^(N-1) / (prod lam * sum 1/lam))
    lam = np.array([130.0, 95.0, 250.0])
    mat_val = simplex_gaussian_integral(uniform_distribution(3), np.diag(lam))
    diag_val = math.sqrt(math.pi ** 2 / (float(np.prod(lam)) * float(np.sum(1.0 / lam))))
    rows.append(_row("simplex_gaussian_matrix_diag", "N=3", mat_val, diag_val, 1e-12))
    return rows


def conditional_gaussian_rows(rng: RngStream) -> list[Row]:
    rows = []
    # single block: sqrt(pi^(N-1) / (det A * 1^T A^-1 1)) from det and solve
    gen = rng.substream(300).generator()
    B = gen.normal(size=(3, 3))
    A = B @ B.T + 200.0 * np.eye(3)
    ones = np.ones(3)
    plain = math.sqrt(math.pi ** 2 / (np.linalg.det(A) * float(ones @ np.linalg.solve(A, ones))))
    cond = conditional_simplex_gaussian_integral(A, 1, 3, center_rows=np.full((1, 3), 1 / 3))
    rows.append(_row("conditional_gaussian_single_block", "nx=1,ny=3",
                     cond, plain, 1e-12 * plain))
    # block-diagonal across x factorizes
    gen = rng.substream(301).generator()
    blocks = [B @ B.T + 150.0 * np.eye(2) for B in gen.normal(size=(2, 2, 2))]
    vals = [simplex_gaussian_integral(uniform_distribution(2), blk) for blk in blocks]
    rows_c = np.full((2, 2), 0.5)
    A = np.zeros((4, 4))
    A[:2, :2], A[2:, 2:] = blocks
    cond = conditional_simplex_gaussian_integral(A, 2, 2, center_rows=rows_c)
    rows.append(_row("conditional_gaussian_block_product", "nx=2,ny=2",
                     cond, vals[0] * vals[1], 1e-12 * vals[0] * vals[1]))
    # random positive-definite A vs quadrature (one free coordinate per row):
    # the form is at least 4000 |u|^2 (A >= 2000 I, each row direction has
    # squared norm 2), so 0.1 from the peak the integrand is below e^-40.  Over
    # claims seeds 0-29999 the error stayed below 4.3e-15, while a closed form
    # with the trace of A^-1 in place of the grand sum was off by 3.4e-8 or more
    gen = rng.substream(302).generator()
    B = gen.normal(size=(4, 4))
    A = B @ B.T + 2000.0 * np.eye(4)
    cond = conditional_simplex_gaussian_integral(A, 2, 2, center_rows=rows_c)
    quad = _gaussian_quadrature(A, rows_c, 0.1, 41)
    rows.append(_row("conditional_gaussian_vs_quadrature", "nx=2,ny=2",
                     cond / quad, 1.0, 1e-10))
    return rows


def _rank_one_bounds(E, Ei, A, Ai, p, q) -> tuple[float, float]:
    """First-order rounding bounds for A = E + p q^T built from the computed
    E^-1, with u = E^-1 p, w = q^T E^-1, d = 1 + q^T u and infinity norms:
    on max |A^-1 A - I| for the Sherman-Morrison inverse,
    n eps (|E^-1||E| + |u|_1 |w|_1 |A| / |d| + |E^-1||A| + |u|_inf |q|_1 (|q|^T |u|) / |d|),
    and on the relative error of det E * d against np.linalg.det(A),
    n eps (|E||E^-1| + |A||A^-1| + |q|^T |u| / |d|).  The terms in
    |q|^T |u| / |d| are the rounding of d, which dominates when q^T u nearly
    cancels the 1."""
    u = Ei @ p
    d = abs(1.0 + float(q @ u))
    nE, nEi, nA, nAi = np.abs((E, Ei, A, Ai)).sum(axis=2).max(axis=1).tolist()
    # builtins on lists: these vectors have at most 6 entries
    au, aw, aq = np.abs((u, q @ Ei, q)).tolist()
    qu = sum(a * b for a, b in zip(aq, au))
    unit = p.size * EPS
    return (unit * (nEi * (nE + nA) + (sum(au) * sum(aw) * nA + max(au) * sum(aq) * qu) / d),
            unit * (nE * nEi + nA * nAi + qu / d))


def rank_one_rows(rng: RngStream) -> list[Row]:
    """Sherman-Morrison inverse and determinant lemma on random updates
    E + p q^T.  Each instance's inverse residual and relative determinant
    error are gated against their own rounding bounds (`_rank_one_bounds`)
    times 2, so one badly conditioned instance does not fail a row; each row
    reports the instance nearest its gate."""
    instances = 100
    gen = rng.substream(400).generator()
    worst_inv = worst_det = (-1.0, 0.0, 0.0)  # error / bound, error, bound
    for _ in range(instances):
        n = int(gen.integers(2, 7))
        E = gen.normal(size=(n, n)) + n * np.eye(n)
        p = gen.normal(size=n)
        q = gen.normal(size=n)
        Ei = np.linalg.inv(E)
        detE = float(np.linalg.det(E))
        Ai, detA = sherman_morrison(Ei, detE, p, q)
        A = E + np.outer(p, q)
        inv_bound, det_bound = _rank_one_bounds(E, Ei, A, Ai, p, q)
        resid = float(np.max(np.abs(Ai @ A - np.eye(n))))
        worst_inv = max(worst_inv, (resid / inv_bound, resid, inv_bound))
        ref_det = float(np.linalg.det(A))
        det_err = abs(detA - ref_det) / max(abs(ref_det), 1e-30)
        worst_det = max(worst_det, (det_err / det_bound, det_err, det_bound))
    # twice the bounds: over claims seeds 0-29999 (3e6 instances) no residual
    # passed 0.77 of its bound, and no determinant error 0.81 of its
    return [_row(name, f"{instances} instances", err, 0.0, 2.0 * bound)
            for name, (_, err, bound) in (("sherman_morrison_inverse", worst_inv),
                                          ("matrix_determinant_lemma", worst_det))]


def det_expansion_rows(rng: RngStream) -> list[Row]:
    """Halving eps divides the error of det(I + eps A) ~ 1 + eps tr A by the
    exact ratio R(eps) / R(eps/2), where R(eps) = sum_{k>=2} sigma_k(A) eps^k
    and sigma_k are the elementary symmetric sums of A's eigenvalues.  That
    ratio is near 4 only while sigma_3 eps is small next to sigma_2.  The
    tolerance is what 8 ulps of rounding in each determinant do to the ratio."""
    gen = rng.substream(500).generator()
    A = gen.normal(size=(4, 4))
    eps = 1e-3
    # np.poly(A) holds (-1)^k sigma_k; sigma_4, sigma_3, sigma_2 in polyval order
    tail = (np.poly(A) * (-1.0) ** np.arange(5))[:1:-1]
    errs, exact, rel_tol = [], [], 0.0
    for h in (eps, 0.5 * eps):
        det = np.linalg.det(np.eye(4) + h * A)
        errs.append(abs(det - det_first_order(A, h)))
        exact.append(float(np.polyval(tail, h)) * h * h)
        rel_tol += 8 * np.spacing(abs(det)) / abs(exact[-1])
    ratio = abs(exact[0] / exact[1])
    return [_row("det_first_order_eps_halving", "4x4,eps=1e-3", errs[0] / errs[1],
                 ratio, ratio * rel_tol)]


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

    # the continuous integral sqrt(n / (2 pi T_0 T_1)) exp(n L(T)), with
    # L(T) = sum T ln(q/T), on a grid from T_0 = 0 (dropped) past T_0 = 1
    def log_f(P, n):
        T = P[:, 0]
        return (0.5 * np.log(n / (2 * math.pi * T.prod(axis=1)))
                + n * (T * np.log(q.probs / T)).sum(axis=1))
    for n in (50, 100, 200):
        est = saddle_normalization_estimate(q, n)
        rows.append(_row("saddle_composition_identity", f"n={n}",
                         math.exp(est), 1.0, 1e-10))
        val = _simplex_riemann_sum(lambda P: log_f(P, n), q.probs[None, :], q.probs[0], 2001)
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
        # the ternary partition rows sum the types of every n <= partition_max_n,
        # sum_{n<=m} count_types(3, n) = count_types(4, m) - 1 of them
        if count_types(4, partition_max_n) - 1 > ENUMERATION_GUARD:
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

"""Integrals over the probability simplex and the matrix identities used to
evaluate them.

The integration operator is the delta-constrained product measure
DP = prod_x dP_x * delta(sum_x P_x - 1); its total volume is 1/(N-1)!.
Sharply peaked Gaussians on the simplex admit one closed form, evaluated for
a stack of conditional simplices; a single simplex and diagonal curvatures
are its special cases.  It holds as long as the peak stays away from the
boundary; guards enforce that regime rather than silently extrapolating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .alphabet import Distribution
from .errors import (
    DimensionMismatch,
    InstanceTooLarge,
    InvalidParameter,
    LambdaTooSmall,
    NonPositiveExponent,
    PeakNearBoundary,
    SingularMatrix,
    SingularUpdate,
)
from .type_classes import (
    ENUMERATION_GUARD,
    SequenceType,
    count_types,
    log_multinomial,
    type_array,
)

LAMBDA_MIN = 10.0
BOUNDARY_SIGMAS = 3.0


# --- Dirichlet ---------------------------------------------------------------

def dirichlet_integral(exponents) -> float:
    """Delta-constrained Dirichlet integral over the simplex:
    int DP prod_j P_j^(a_j - 1) = prod_j Gamma(a_j) / Gamma(sum_j a_j),
    with every simplex coordinate carrying an exponent.

    All-ones exponents over N coordinates give the simplex volume 1/(N-1)!.
    """
    a = np.asarray(exponents, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise DimensionMismatch("exponents must form a non-empty vector")
    if np.any(a <= 0):
        raise NonPositiveExponent("all Dirichlet exponents must be positive")
    ints = np.rint(a)
    if np.all(np.abs(a - ints) == 0) and ints.sum() <= 170:
        # integer exponents: exact big-integer factorials, then one rounding
        num = math.prod(math.factorial(int(k) - 1) for k in ints)
        return num / math.factorial(int(ints.sum()) - 1)
    return float(np.exp(sum(map(math.lgamma, a.tolist())) - math.lgamma(a.sum())))


# --- Gaussian on the simplex --------------------------------------------------

def _check_peak(center: np.ndarray, lam_min: float) -> None:
    if lam_min < LAMBDA_MIN:
        raise LambdaTooSmall(
            f"smallest curvature {lam_min:.3g} below the asymptotic guard {LAMBDA_MIN}"
        )
    margin = BOUNDARY_SIGMAS / math.sqrt(lam_min)
    if float(center.min()) < margin:
        raise PeakNearBoundary(
            f"peak coordinate {center.min():.4g} within {BOUNDARY_SIGMAS} sigma "
            f"({margin:.4g}) of the simplex boundary"
        )


def simplex_gaussian_integral(center: Distribution, matrix) -> float:
    """Closed form for the sharply peaked Gaussian exp(-(P-Q)^T A (P-Q)) on
    the simplex, with peak Q = ``center`` and A = ``matrix``: the one-row
    stack of `conditional_simplex_gaussian_integral`,
    sqrt(pi^(N-1) / (det A * 1^T A^-1 1)).

    For A = diag(lambda) this is the parallel-resistance combination
    sqrt(pi^(N-1) / (prod_x lambda_x * sum_x 1/lambda_x)).  Off the diagonal
    the grand sum of A^-1, not its trace, is what agrees with quadrature:
    the constraint direction is the all-ones vector, which a diagonalizing
    rotation moves.
    """
    q = center.probs
    return conditional_simplex_gaussian_integral(matrix, 1, q.size, q[None, :])


def conditional_simplex_gaussian_integral(A, nx: int, ny: int,
                                          center_rows: np.ndarray) -> float:
    """Gaussian integral over a stack of nx simplices (conditional rows).

    A is (nx*ny) x (nx*ny), indexed by flat (x, y) pairs with index x*ny + y,
    symmetric positive-definite; ``center_rows`` (nx x ny) holds the peak's
    conditional rows, each of which must stay clear of its simplex's
    boundary.  Returns
    sqrt(pi^(nx*ny - nx) / (det A * det M)) where
    M[x1, x2] = sum_{y1, y2} A^-1[(x1, y1), (x2, y2)].

    This is the package's one evaluation of the Gaussian-on-the-simplex
    closed form and the one place its inputs are checked: a single simplex
    is nx = 1, where M is the grand sum 1^T A^-1 1.
    """
    A = np.asarray(A, dtype=float)
    dim = nx * ny
    if A.shape != (dim, dim):
        raise DimensionMismatch("A must be (nx*ny) x (nx*ny)")
    if not np.allclose(A, A.T, atol=1e-10):
        raise SingularMatrix("A must be symmetric")
    eigs = np.linalg.eigvalsh(A)
    if eigs.min() <= 0:
        raise SingularMatrix("A must be positive-definite")
    rows = np.asarray(center_rows, dtype=float)
    if rows.shape != (nx, ny):
        raise DimensionMismatch("center_rows must be nx x ny")
    _check_peak(rows.min(axis=1), float(eigs.min()))
    inv = np.linalg.inv(A)
    blocks = inv.reshape(nx, ny, nx, ny)
    M = blocks.sum(axis=(1, 3))
    sign, logdet_m = np.linalg.slogdet(M)
    if sign <= 0:
        raise SingularMatrix("grand-sum block matrix is not positive-definite")
    log_val = 0.5 * ((dim - nx) * math.log(math.pi)
                     - float(np.log(eigs).sum()) - logdet_m)
    return float(np.exp(log_val))


# --- smoothed deltas ----------------------------------------------------------

def simplex_patch_volume(a: float, n: int) -> float:
    """V_a = a^(N-1) pi^((N-1)/2) / sqrt(N), the normalizer of the smoothed
    delta family at scale a."""
    return a ** (n - 1) * math.pi ** ((n - 1) / 2) / math.sqrt(n)


def finite_curvature(eps: float) -> bool:
    """Whether the smoothed delta's curvature 1/eps^2 is a finite float:
    eps^2 must neither underflow to 0 nor be so small that its reciprocal
    overflows (eps below about 7.5e-155)."""
    return eps ** 2 > 0 and 1.0 / eps ** 2 < math.inf


@dataclass(frozen=True)
class SmoothedDelta:
    """Gaussian surrogate exp(-|T - T_ref|^2 / eps^2) for matching types."""

    epsilon: float
    reference_class: SequenceType

    def __post_init__(self):
        if not (0 < self.epsilon < 1 and finite_curvature(self.epsilon)):
            raise InvalidParameter(
                f"epsilon {self.epsilon!r} must lie in (0, 1) with a finite curvature 1/eps^2")


@dataclass(frozen=True)
class SmoothedDeltaReport:
    """Normalization checks for one smoothed-delta configuration.

    continuous_value : closed-form Gaussian integral divided by V_eps
        (the continuous normalization; 1 in the sharp-peak regime).
    sequence_sum : sum over all length-n sequences of the smoothed sequence
        delta, evaluated by exact type enumeration.  The class-size ratio in
        the weight adds n*N/4 to the curvature lam0 = 1/eps^2 around a
        uniform reference, so the sum is close to
        (lam0/(lam0 + n*N/4))^((N-1)/2), not 1; it tends to 1 only as
        n*eps^2 -> 0.
    type_sum : Riemann sum over the type lattice approximating the continuous
        normalization integral.
    """

    n: int
    epsilon: float
    continuous_value: float
    sequence_sum: float
    type_sum: float


def smoothed_delta_normalization(delta: SmoothedDelta, q: Distribution) -> SmoothedDeltaReport:
    """Check both normalization identities of the smoothed delta family.

    The continuous check integrates exp(-|P - q|^2/eps^2)/V_eps over the
    simplex via the closed form at A = I/eps^2.  The discrete checks sum over
    the type lattice around the reference class: the sequence sum weights
    each class by sqrt(d_class/d_ref)/V_(n*eps) exactly as the sequence-level
    delta prescribes, while the type sum discretizes the continuous integral
    with lattice density n^(N-1).
    """
    ref = delta.reference_class
    n, N = ref.n, ref.alphabet_size
    n_types = count_types(N, n)
    if n_types > ENUMERATION_GUARD:
        raise InstanceTooLarge(f"{n_types} types exceeds the enumeration guard")
    eps = delta.epsilon
    sigma = eps / math.sqrt(2.0)
    if float(min(ref.as_distribution().probs.min(), q.probs.min())) < BOUNDARY_SIGMAS * sigma:
        raise PeakNearBoundary(
            "smoothed delta wider than the gap to the simplex boundary"
        )

    curvature = np.eye(q.alphabet_size) / eps ** 2
    continuous = simplex_gaussian_integral(q, curvature)
    continuous /= simplex_patch_volume(eps, q.alphabet_size)

    counts = type_array(N, n)
    t_ref = np.asarray(ref.counts, dtype=float) / n
    gauss = -((counts / n - t_ref) ** 2).sum(axis=1) / eps ** 2
    log_d = log_multinomial(counts)
    log_d_ref = log_multinomial(ref.counts)
    v_seq = simplex_patch_volume(n * eps, N)
    v_eps = simplex_patch_volume(eps, N)
    seq_sum = float(np.exp(0.5 * (log_d - log_d_ref) + gauss).sum()) / v_seq
    type_sum = float(np.exp(gauss).sum()) / (float(n) ** (N - 1) * v_eps)
    return SmoothedDeltaReport(n, eps, continuous, seq_sum, type_sum)


# --- rank-one updates and determinant expansions --------------------------------

def sherman_morrison(E_inverse, det_E: float, p, q) -> tuple[np.ndarray, float]:
    """Inverse and determinant of E + p q^T from those of E.

    A^-1 = E^-1 - (E^-1 p q^T E^-1) / (1 + q^T E^-1 p)
    det A = det E * (1 + q^T E^-1 p)
    """
    Ei = np.asarray(E_inverse, dtype=float)
    p = np.asarray(p, dtype=float).reshape(-1)
    q = np.asarray(q, dtype=float).reshape(-1)
    if Ei.ndim != 2 or Ei.shape[0] != Ei.shape[1] or Ei.shape[0] != p.size or p.size != q.size:
        raise DimensionMismatch("E_inverse must be square with matching vectors")
    u = Ei @ p
    w = q @ Ei
    denom = 1.0 + float(q @ u)
    if abs(denom) < 1e-14:
        raise SingularUpdate("rank-one update is singular: 1 + q^T E^-1 p ~ 0")
    return Ei - np.outer(u, w) / denom, float(det_E) * denom


def det_first_order(A, eps: float) -> float:
    """First-order determinant expansion det(I + eps A) ~ 1 + eps tr(A).

    Valid for |eps| * ||A|| << 1; the discarded term is O(eps^2).
    """
    A = np.asarray(A, dtype=float)
    return 1.0 + eps * float(np.trace(A))


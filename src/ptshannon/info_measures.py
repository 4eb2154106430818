"""Information measures in nats, plus the two variational quantities the
coding predictions need: channel capacity and the rate-distortion function.

Entropies follow the 0 ln 0 = 0 convention.  Capacity and rate-distortion are
solved by Blahut-Arimoto alternating minimization.  Each loop carries an upper
and a lower bound on its optimum and exits only when they are within its
tolerance, so every result reports a certified gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .alphabet import Channel, Distribution, JointDistribution
from .errors import (
    DimensionMismatch,
    InfeasibleDistortion,
    InvalidDistribution,
    NonConvergence,
)

ITERATION_CAP = 10**6
CAPACITY_TOL = 1e-9
RATE_DISTORTION_TOL = 1e-9


# --- entropies ----------------------------------------------------------------

def _xlogx(x) -> np.ndarray:
    """x ln x elementwise for x >= 0, with 0 ln 0 = 0."""
    x = np.asarray(x, dtype=float)
    return x * np.log(x, out=np.zeros_like(x), where=x > 0)


def entropy(dist: Distribution) -> float:
    """Plain entropy H = -sum p ln p, in nats."""
    return _entropy_raw(dist.probs)


def _entropy_raw(p: np.ndarray) -> float:
    return float(-_xlogx(p).sum())


def joint_entropy(joint: JointDistribution) -> float:
    return _entropy_raw(joint.probs)


def conditional_entropy(joint: JointDistribution) -> float:
    """H(y|x) = H(x, y) - H(x)."""
    return joint_entropy(joint) - entropy(joint.marginal_x())


def mutual_information(joint: JointDistribution) -> float:
    """H(y:x) = H(x) + H(y) - H(x, y); tiny negative rounding clamps to 0."""
    mi = entropy(joint.marginal_x()) + entropy(joint.marginal_y()) - joint_entropy(joint)
    return max(mi, 0.0) if mi > -1e-9 else mi


def conditional_mutual_information(triple: np.ndarray) -> float:
    """Conditional mutual information H(y:x|lam) of a 3-axis joint p[x, y, lam].

    The array is the flattened product-alphabet joint over (x, y, lam);
    it must be non-negative and sum to 1.
    """
    p = np.asarray(triple, dtype=float)
    if p.ndim != 3:
        raise DimensionMismatch("conditional MI needs a 3-axis joint p[x, y, lam]")
    if np.any(~(p >= 0)) or abs(p.sum() - 1.0) > 1e-12:
        raise DimensionMismatch("triple joint must be a normalized probability array")
    h_xl = _entropy_raw(p.sum(axis=1))
    h_yl = _entropy_raw(p.sum(axis=0))
    h_xyl = _entropy_raw(p)
    h_l = _entropy_raw(p.sum(axis=(0, 1)))
    cmi = h_xl + h_yl - h_xyl - h_l
    return max(cmi, 0.0) if cmi > -1e-9 else cmi


def relative_information(p: Distribution, q: Distribution) -> float:
    """D{P//Q} = sum p ln(p/q); +inf when p puts mass where q vanishes."""
    if p.alphabet_size != q.alphabet_size:
        raise DimensionMismatch("relative information needs a common alphabet")
    support = p.probs > 0
    if np.any(q.probs[support] == 0):
        return float("inf")
    ps, qs = p.probs[support], q.probs[support]
    d = float(np.sum(ps * (np.log(ps) - np.log(qs))))
    return max(d, 0.0)


# --- channel capacity ---------------------------------------------------------

@dataclass(frozen=True)
class CapacityResult:
    capacity_nats: float
    optimal_input: Distribution
    iterations: int
    gap_bound: float


def _row_kl(rows: np.ndarray, q_out: np.ndarray) -> np.ndarray:
    """KL(row_x || q_out) for every input x; rows with mass on q=0 give +inf."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = rows * np.log(rows) - rows * np.log(q_out)
    return np.where(rows > 0, terms, 0.0).sum(axis=1)


def capacity(channel: Channel, tol: float = CAPACITY_TOL) -> CapacityResult:
    """Channel capacity max_P H(y:x) with a certified gap bound.

    Standard Blahut-Arimoto ascent: for the current input r, the mutual
    information I(r) = sum_x r_x KL(row_x || q) is a lower bound on C and
    max_x KL(row_x || q) is an upper bound, so the loop exits exactly when the
    sandwich closes to ``tol``.  The rows never change, so their sums
    sum_y W ln W are taken once, over the outputs some input reaches; with
    every r_x > 0 the output law q is positive there.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    rows = channel.rows[:, channel.rows.any(axis=0)]
    h_rows = _xlogx(rows).sum(axis=1)
    r = np.full(channel.input_size, 1.0 / channel.input_size)
    for it in range(1, ITERATION_CAP + 1):
        d = h_rows - rows @ np.log(r @ rows)
        lower = float(r @ d)
        upper = float(d.max())
        if upper - lower <= tol:
            return CapacityResult(lower, Distribution(r), it, upper - lower)
        r = r * np.exp(d - d.max())
        r = r / r.sum()
    raise NonConvergence(
        f"capacity gap still above tol={tol} after {ITERATION_CAP} iterations"
    )


# --- rate-distortion ----------------------------------------------------------

@dataclass(frozen=True)
class RateDistortionPoint:
    distortion: float
    rate_nats: float
    optimal_test_channel: Channel
    gap_bound: float
    iterations: int


def _validate_distortion_matrix(source: Distribution, d: np.ndarray) -> np.ndarray:
    d = np.asarray(d, dtype=float)
    if d.ndim != 2 or d.shape[0] != source.alphabet_size or d.size == 0:
        raise DimensionMismatch("distortion matrix must be (source symbols) x (reproductions)")
    if np.any(~(d >= 0)):
        raise InfeasibleDistortion("distortion entries must be non-negative numbers")
    if d.shape[0] == d.shape[1] and np.any(np.diag(d) != 0):
        raise InfeasibleDistortion("d(x, x) must vanish on the diagonal")
    return d


def _meeting_slope(p: np.ndarray, excess: np.ndarray, q: np.ndarray, budget: float,
                   s: float) -> tuple[float, np.ndarray]:
    """The slope s >= 0 at which the channel W ∝ q exp(-s excess) spends
    exactly ``budget``, with its tilt exp(-s excess).

    This is the package's one exponential-tilt solver.  :func:`rate_distortion`
    calls it with one row per source symbol, and
    ``saddle.constrained_sum_estimate`` with one row (p = [1],
    excess = c - min c), where the spend is the tilted law's excess mean
    cost.  The spend sum_x p E_W[excess] falls with s at rate
    sum_x p Var_W(excess).  Newton steps start from the given s; a step
    that leaves the bracket the iterates have set bisects it, or doubles s
    while the bracket is open above.  budget = 0 is the s = inf limit: only
    zero-excess cells remain.
    """
    if budget == 0:
        return math.inf, (excess == 0).astype(float)
    lo, hi = 0.0, math.inf
    while True:
        tilt = np.exp(-s * excess)
        w = tilt * q
        w /= w.sum(axis=1, keepdims=True)
        mean = (w * excess).sum(axis=1)
        spend = float(p @ mean)
        if abs(spend - budget) <= 1e-14 * budget:
            return s, tilt
        if spend > budget:
            lo = s
        else:
            hi = s
        var = float(p @ ((w * excess**2).sum(axis=1) - mean**2))
        step = s + (spend - budget) / var if var > 0 else math.nan
        if not lo < step < hi:
            step = 2.0 * lo + 1.0 if hi == math.inf else 0.5 * (lo + hi)
        if step == s:
            return s, tilt
        s = step


def rate_distortion(source: Distribution, d, D: float,
                    tol: float = RATE_DISTORTION_TOL) -> RateDistortionPoint:
    """Rate-distortion function: minimum H(x_hat:x) over test channels with
    average distortion at most D, with a certified gap bound.

    With excess = d - d_least, d_least(x) = min d(x, .), the budget is
    D - E_p[d_least].  Each step tilts the output marginal q into the channel
    W ∝ q exp(-s excess) whose slope s spends the budget exactly.  W is
    feasible, so I(p, W) bounds R(D) above; Blahut's dual bound
    -s budget - E_p ln(q @ tilt) - ln max c bounds it below at any s and q.
    The loop exits when the two are within ``tol``; else q moves to p @ W.
    Symbols the source never emits keep their least-distortion reproduction.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    d = _validate_distortion_matrix(source, d)
    p = source.probs
    n_hat = d.shape[1]

    # Rate-zero regime: the best constant reproduction already meets D.
    col_dist = p @ d
    if D >= col_dist.min():
        rows = np.zeros((p.size, n_hat))
        rows[:, int(np.argmin(col_dist))] = 1.0
        return RateDistortionPoint(float(col_dist.min()), 0.0, Channel(rows), 0.0, 0)

    least = d.min(axis=1)
    least_avg = float(p @ least)
    if not D >= least_avg:
        raise InfeasibleDistortion(
            f"D = {D!r} is below the least achievable distortion {least_avg!r}")
    budget = D - least_avg
    live = p > 0
    p, excess = p[live], (d - least[:, None])[live]
    q = np.full(n_hat, 1.0 / n_hat)
    s = 0.0
    for it in range(1, ITERATION_CAP + 1):
        s, tilt = _meeting_slope(p, excess, q, budget, s)
        denom = tilt @ q
        w = tilt * q / denom[:, None]
        q_out = p @ w
        upper = float(p @ _row_kl(w, q_out))
        lower = (-(s * budget if budget else 0.0) - float(p @ np.log(denom))
                 - math.log(((p / denom) @ tilt).max()))
        if upper - lower <= tol:
            rows = np.eye(n_hat)[d.argmin(axis=1)]
            rows[live] = w
            return RateDistortionPoint(float(source.probs @ (rows * d).sum(axis=1)), upper,
                                       Channel(rows), upper - lower, it)
        q = q_out
    raise NonConvergence(
        f"rate-distortion gap still above tol={tol} after {ITERATION_CAP} iterations"
    )


def rate_distortion_curve(source: Distribution, d, grid) -> list[RateDistortionPoint]:
    """Evaluate the rate-distortion function on a grid of distortions."""
    return [rate_distortion(source, d, float(D)) for D in grid]


def hamming_distortion(n: int) -> np.ndarray:
    return 1.0 - np.eye(n)


def binary_entropy(p: float) -> float:
    """H_b(p) in nats."""
    if not 0.0 <= p <= 1.0:
        raise InvalidDistribution(f"binary entropy needs 0 <= p <= 1, got {p!r}")
    return _entropy_raw(np.array([p, 1.0 - p]))

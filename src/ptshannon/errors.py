"""Exception types raised by the toolkit.

Every exception derives from :class:`PtShannonError` (itself a ``ValueError``)
so callers can catch either the specific contract violation or anything the
library rejects.
"""

from __future__ import annotations


class PtShannonError(ValueError):
    """Base class for all toolkit errors."""


class InvalidParameter(PtShannonError):
    """A scalar argument lies outside its valid range or set of options."""


# --- probability objects ----------------------------------------------------
class NegativeWeight(PtShannonError):
    """A weight or probability entry is negative."""


class AllZero(PtShannonError):
    """Every weight is zero; nothing to normalize."""


class DimensionMismatch(PtShannonError):
    """Array shapes or alphabet sizes do not line up."""


class ZeroMarginal(PtShannonError):
    """Information ratio requested at a symbol with zero marginal mass."""


class InvalidDistribution(PtShannonError):
    """Entries do not form a probability vector within tolerance."""


# --- information measures ---------------------------------------------------
class NonConvergence(PtShannonError):
    """Alternating minimization hit the iteration cap before the gap closed."""


class InfeasibleDistortion(PtShannonError):
    """Requested average distortion is below the least achievable,
    E_p[min d(x, .)], or the distortion matrix is invalid."""


# --- method of types --------------------------------------------------------
class SymbolOutOfAlphabet(PtShannonError):
    """A sequence contains a symbol outside the declared alphabet."""


class SupportViolation(PtShannonError):
    """A type puts counts where the reference distribution has zero mass."""


class InstanceTooLarge(PtShannonError):
    """Exact enumeration was requested beyond the size guard."""


# --- polytope integrals -----------------------------------------------------
class NonPositiveExponent(PtShannonError):
    """Dirichlet exponents must be strictly positive."""


class LambdaTooSmall(PtShannonError):
    """Gaussian-on-simplex asymptotics need sharply peaked integrands."""


class PeakNearBoundary(PtShannonError):
    """Gaussian peak sits too close to the simplex boundary for the
    closed form to be trustworthy."""


class SingularMatrix(PtShannonError):
    """Matrix is not symmetric positive-definite where required."""


class SingularUpdate(PtShannonError):
    """Rank-one update would make the matrix singular (1 + q^T E^-1 p = 0)."""


# --- saddle point -----------------------------------------------------------
class NonPositiveWeight(PtShannonError):
    """Saddle-point weights must be strictly positive."""


# --- coding / simulation ----------------------------------------------------
class CodebookTooLarge(PtShannonError):
    """Simulation cost exceeds the run guard."""


# --- CLI --------------------------------------------------------------------
class ConfigInvalid(PtShannonError):
    """Experiment configuration failed schema validation."""


class IoFailure(PtShannonError):
    """Could not read a config or write an output file."""

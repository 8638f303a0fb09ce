"""Exception types shared across the library."""

import numpy as np


class PnumError(Exception):
    """Base class for all library-specific failures."""


class SingularGram(PnumError):
    """Gram matrix could not be factorized even after jitter escalation."""


class UnsortedNodes(PnumError):
    """Node sequence is not strictly increasing."""


class NoCandidates(PnumError):
    """Active node selection was given an empty candidate set."""


class NonPositiveEvaluation(PnumError):
    """A strictly-positive integrand returned a value <= 0."""


class Breakdown(PnumError):
    """Conjugate-direction step encountered <s, As> <= 0 (operator not SPD)."""


class DimensionMismatch(PnumError):
    """Vector or operator dimensions are inconsistent."""


class BeliefDimensionMismatch(DimensionMismatch):
    """Matrix belief dimension does not match the operator."""


class InsufficientTrace(PnumError):
    """Solve trace is too short for scale calibration."""


class NonFiniteField(PnumError):
    """Vector field returned NaN or Inf."""


class CovarianceBreakdown(PnumError):
    """Filter covariance lost positive semi-definiteness beyond repair."""


class ConfigError(PnumError):
    """Experiment configuration is malformed (CLI exit code 2)."""


def _require_finite(what: str, values) -> np.ndarray:
    """``values`` as floats; ValueError naming ``what`` and any non-finite entries."""
    arr = np.asarray(values, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} must be finite, got {arr[~np.isfinite(arr)].tolist()}")
    return arr

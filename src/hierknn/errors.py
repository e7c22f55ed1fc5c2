"""Exception types for data-level failures.

Programming-contract violations (bad argument shapes, k < 1, and the like)
raise plain ValueError instead.
"""
import numpy as np


class HierknnError(Exception):
    """Base class for errors caused by invalid input data."""


class TaxonomyError(HierknnError):
    """Malformed or inconsistent taxonomy configuration."""


class ManifestError(HierknnError):
    """Malformed line-delimited record stream."""


class BankError(HierknnError):
    """Invalid feature-bank content (duplicate ids, dim mismatch, ...)."""


class BankFormatError(BankError):
    """Malformed serialized bank (bad magic, truncation, digest mismatch)."""


class InferenceError(HierknnError):
    """Classification cannot produce a valid prediction for this input."""


class TrainingError(HierknnError):
    """Training aborted (divergence, unusable dataset)."""


class SynthError(HierknnError):
    """Synthetic dataset configuration that cannot be realized."""


def require_finite(**values) -> None:
    """Raise ValueError naming the first of ``values``, in order, that is not finite."""
    for name, v in values.items():
        if not np.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")

"""Exception taxonomy.

Every failure mode raised by this package derives from :class:`DsiLabError`,
so callers can catch one base class at an API boundary.  The concrete classes
are named after the violated precondition rather than the raising site.
"""


class DsiLabError(Exception):
    """Base class for all errors raised by dsi_lab."""


class BadBase(DsiLabError):
    """Scale base alpha must be strictly greater than 1."""


class BadIndex(DsiLabError):
    """A structural parameter (H, T, s) or a sample index is outside its
    domain, or a value that is not a real number."""


class NonIncreasingOffsets(DsiLabError):
    """Sampling offsets s must be strictly increasing."""


class OffsetOutOfRange(DsiLabError):
    """Sampling offsets must satisfy 1 <= s_0 and s_{q-1} < alpha**T."""


class NonPositivePoint(DsiLabError):
    """Self-similar-side grid points must be strictly positive."""


class RangeOverflow(DsiLabError):
    """A requested time or scale exceeds double-precision range."""


class NegativeKappa(DsiLabError):
    """Flat sample index kappa is outside the supported domain kappa >= 0."""


class InvalidModel(DsiLabError):
    """Covariance model summary violates a structural requirement."""


class ModelUnstable(DsiLabError):
    """Covariance model violates the strict stability bound needed for a
    summable spectral series, |ftilde(q-1)| < alpha**(T*H)."""


class ToleranceUnreachable(DsiLabError):
    """Series truncation could not certify the requested tolerance within
    the term budget."""


class GridTooCoarse(DsiLabError):
    """Frequency grid cannot resolve the requested covariance lags."""


class RangeTooSmall(DsiLabError):
    """Simulated index range or sample count is too small for the estimator."""


class BadInterval(DsiLabError):
    """A spectral input is malformed: a frequency that is not a finite
    number, a density or ``covfn(0)`` of the wrong shape, or no lags."""


class ConfigError(DsiLabError):
    """Run configuration is malformed (unknown key, bad value, bad usage)."""

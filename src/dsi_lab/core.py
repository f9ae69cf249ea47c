"""Sampling geometry for discretely scale-invariant processes.

A process observed on a geometric ladder of scale cycles is sampled at
``q`` offsets ``1 <= s_0 < s_1 < ... < s_{q-1} < alpha**T`` inside the base
cycle ``[1, alpha**T)``.  Cycle ``n`` (any integer) contains the points
``alpha**(n*T) * s_u``, and the flat sample index

    kappa = n*q + u,   0 <= u < q

enumerates all points in time order.  This module owns the index algebra
(splitting kappa into the cycle/offset pair and back) and the physical
time of each sample, plus validation of the scheme parameters.
:func:`sample_points` returns a whole index range as one
:class:`SampleGrid` of parallel arrays ``(kappa, n, u, times)``.

Floor division defines the split for negative kappa as well, so e.g.
kappa = -1 with q = 3 lives in cycle n = -1 at offset u = 2.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BadBase,
    BadIndex,
    NonIncreasingOffsets,
    OffsetOutOfRange,
    RangeOverflow,
)

# natural log of the largest finite double, about 709.78
_MAX_LOG = math.log(sys.float_info.max)


def log_abs(x: float) -> float:
    """Natural log of |x|, with -inf standing for zero."""
    return math.log(abs(x)) if x else -math.inf


def check_log_range(log_values: Iterable[float], what: str) -> None:
    """Raise RangeOverflow unless every value a computation forms is finite.

    log_values are the natural logs of the magnitudes of the values the
    computation forms, in evaluation order: each power on its own, then each
    partial product.  A log that rounds to ln(DBL_MAX) itself, such as
    1024 * ln 2, may belong to a value past the largest double, so it
    raises too, as does a NaN log (an input that already overflowed).
    """
    for x in log_values:
        if not x < _MAX_LOG:
            raise RangeOverflow(
                f"{what} has log magnitude {x:.1f}, outside double precision"
            )


@dataclass(frozen=True)
class SamplingScheme:
    """Validated sampling geometry.

    Attributes
    ----------
    H : float
        Self-similarity index, H > 0.
    alpha : float
        Scale base, alpha > 1.
    T : int
        Cycle width in log-scale units, T >= 1.  One cycle spans a factor
        ``l = alpha**T`` in physical time.
    q : int
        Number of sampling offsets per cycle, q >= 1.
    s : tuple of float
        Offsets, strictly increasing with 1 <= s[0] and s[-1] < alpha**T.

    Construction raises RangeOverflow when the cycle factor alpha**T is
    not a finite double.
    """

    H: float
    alpha: float
    T: int
    q: int
    s: tuple[float, ...]

    def __post_init__(self) -> None:
        if not (isinstance(self.T, int) and self.T >= 1):
            raise BadIndex(f"T must be an integer >= 1, got {self.T!r}")
        if not (isinstance(self.q, int) and self.q >= 1):
            raise BadIndex(f"q must be an integer >= 1, got {self.q!r}")
        if not (self.H > 0.0 and math.isfinite(self.H)):
            raise BadIndex(f"H must be finite and > 0, got {self.H!r}")
        if not (self.alpha > 1.0 and math.isfinite(self.alpha)):
            raise BadBase(f"alpha must be finite and > 1, got {self.alpha!r}")
        if len(self.s) != self.q:
            raise BadIndex(
                f"offset count {len(self.s)} does not match q = {self.q}"
            )
        for a, b in zip(self.s, self.s[1:]):
            if not (b > a):
                raise NonIncreasingOffsets(
                    f"offsets must be strictly increasing, got {self.s}"
                )
        check_log_range(
            (self.T * math.log(self.alpha),),
            f"cycle scale alpha**T (alpha = {self.alpha!r}, T = {self.T})",
        )
        if not (self.s[0] >= 1.0):
            raise OffsetOutOfRange(f"s[0] must be >= 1, got {self.s[0]!r}")
        if not (self.s[-1] < self.scale):
            raise OffsetOutOfRange(
                f"s[-1] must be < alpha**T = {self.scale!r}, got {self.s[-1]!r}"
            )

    @property
    def scale(self) -> float:
        """Cycle scale factor l = alpha**T."""
        return self.alpha ** self.T


def validate_scheme(
    H: float,
    alpha: float,
    T: int,
    s: Sequence[float],
    q: int | None = None,
) -> SamplingScheme:
    """Build a :class:`SamplingScheme` from raw values.

    ``q`` defaults to ``len(s)``; if given explicitly it must match.
    Raises BadIndex, BadBase, NonIncreasingOffsets or OffsetOutOfRange on
    the first violated requirement.
    """
    offsets = tuple(float(x) for x in s)
    if q is None:
        q = len(offsets)
    return SamplingScheme(H=float(H), alpha=float(alpha), T=int(T), q=int(q), s=offsets)


def split_index(kappa: int, q: int) -> tuple[int, int]:
    """Split a flat index into the (cycle, offset) pair, kappa = n*q + u.

    Uses floor division, so negative kappa maps to the unique pair with
    0 <= u < q (e.g. split_index(-1, 3) == (-1, 2)).
    """
    if q < 1:
        raise BadIndex(f"q must be >= 1, got {q}")
    n, u = divmod(int(kappa), int(q))
    return n, u


def embed_index(n: int, u: int, q: int) -> int:
    """Inverse of :func:`split_index`: kappa = n*q + u with 0 <= u < q."""
    if q < 1:
        raise BadIndex(f"q must be >= 1, got {q}")
    if not (0 <= u < q):
        raise OffsetOutOfRange(f"offset index u must satisfy 0 <= u < {q}, got {u}")
    return int(n) * int(q) + int(u)


@dataclass(frozen=True)
class SampleGrid:
    """Sample points as parallel arrays, in time order.

    Entry i is the sample kappa[i] = n[i]*q + u[i], 0 <= u[i] < q, at
    physical time times[i] = alpha**(n[i]*T) * s[u[i]].  kappa, n and u
    are integer arrays and times is float64; all are treated as immutable.
    """

    kappa: np.ndarray
    n: np.ndarray
    u: np.ndarray
    times: np.ndarray


def sample_time(scheme: SamplingScheme, kappa: int) -> float:
    """Physical time of sample kappa, t = alpha**(n*T) * s_u.

    Raises RangeOverflow when |log t| exceeds the log of the largest finite
    double (about 709.78), where t would silently overflow or flush towards
    zero.
    """
    n, u = split_index(kappa, scheme.q)
    log_t = n * scheme.T * math.log(scheme.alpha) + math.log(scheme.s[u])
    check_log_range((log_t, -log_t), f"sample time for kappa = {kappa}")
    return scheme.alpha ** (n * scheme.T) * scheme.s[u]


def sample_points(scheme: SamplingScheme, kappa_min: int, kappa_max: int) -> SampleGrid:
    """All sample points for kappa in [kappa_min, kappa_max], time-ordered.

    Times strictly increase with kappa, and one full cycle advances time by
    exactly the cycle factor: t(kappa + q) = alpha**T * t(kappa).  Each
    time is the float :func:`sample_time` returns, bit for bit.
    """
    if kappa_max < kappa_min:
        raise BadIndex(f"empty index range [{kappa_min}, {kappa_max}]")
    # times increase with kappa, so the end samples bound every log time
    sample_time(scheme, kappa_min)
    sample_time(scheme, kappa_max)
    kappa = np.arange(kappa_min, kappa_max + 1)
    n, u = np.divmod(kappa, scheme.q)
    # one Python float ** int per cycle, as in sample_time: numpy's
    # vectorised power can differ from it in the last bit
    cycles = range(kappa_min // scheme.q, kappa_max // scheme.q + 1)
    cycle_scale = np.array([scheme.alpha ** (m * scheme.T) for m in cycles])
    times = cycle_scale[n - cycles.start] * np.array(scheme.s)[u]
    return SampleGrid(kappa=kappa, n=n, u=u, times=times)

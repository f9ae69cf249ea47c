"""Quasi-Lamperti transform between stationary and scale-invariant frames.

A discretely scale-invariant process X on (0, inf) with index H and base
alpha corresponds to a periodically correlated (cyclostationary) process Y
on the log-scale axis through

    X(t) = t**H * Y(log_alpha t),        t > 0,
    Y(t) = alpha**(-t*H) * X(alpha**t),  t real.

The maps below act on sampled grids: a grid on the log axis maps to a grid
on the positive half-line and back, with values rescaled by the power-law
envelope.  They are exact inverses of each other up to floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import check_index_and_base, in_range, read_numbers
from .errors import BadIndex, NonPositivePoint


def _read_samples(grid, axis: str) -> np.ndarray:
    # store the axis and values as vectors of one length, the axis increasing
    x, values = (read_numbers(name, getattr(grid, name), BadIndex) for name in (axis, "values"))
    if x.ndim != 1 or x.shape != values.shape:
        raise BadIndex(f"need equal-length vectors {axis}, values; got {x.shape}, {values.shape}")
    if np.any(np.diff(x) <= 0):
        raise BadIndex(f"{axis} must be strictly increasing")
    object.__setattr__(grid, axis, x)
    object.__setattr__(grid, "values", values)
    return x


@dataclass(frozen=True)
class StationaryGrid:
    """Samples of a process on the log-scale axis.

    times must be strictly increasing; values has the same length.
    Arrays are float64 and treated as immutable.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        _read_samples(self, "times")


@dataclass(frozen=True)
class SelfSimilarGrid:
    """Samples of a process on the positive half-line.

    points must be strictly positive and strictly increasing.
    """

    points: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        points = _read_samples(self, "points")
        if points.size and points[0] <= 0.0:
            raise NonPositivePoint(f"points must be > 0, got {points[0]!r}")


def quasi_lamperti(y: StationaryGrid, H: float, alpha: float) -> SelfSimilarGrid:
    """Map a stationary-side grid to the self-similar side.

    Points become alpha**times and values pick up the envelope
    (alpha**times)**H, i.e. X(alpha**t) = alpha**(t*H) * Y(t).

    Raises RangeOverflow if a point, an envelope factor or a rescaled value
    leaves the double-precision range, or if a point or an envelope factor,
    positive by construction, has underflowed (see :func:`core.in_range`).
    """
    H, alpha = check_index_and_base(H, alpha)
    points = in_range("alpha**t", lambda: alpha ** y.times, positive=True)
    envelope = in_range("alpha**(H*t)", lambda: points ** H, positive=True)
    values = in_range("alpha**(H*t) * values", lambda: envelope * y.values)
    return SelfSimilarGrid(points=points, values=values)


def inverse_quasi_lamperti(x: SelfSimilarGrid, H: float, alpha: float) -> StationaryGrid:
    """Map a self-similar-side grid back to the stationary side.

    Times become log_alpha(points) and values lose the power-law envelope:
    Y(t) = alpha**(-t*H) * X(alpha**t).

    Raises RangeOverflow if a time, an envelope factor points**(-H) or a
    rescaled value leaves the double-precision range, as it does for tiny
    points.
    """
    H, alpha = check_index_and_base(H, alpha)
    times, values = in_range(
        "log_alpha(points) and points**(-H) * values",
        lambda: (np.log(x.points) / math.log(alpha), x.points ** (-H) * x.values),
    )
    return StationaryGrid(times=times, values=values)

"""Quasi-Lamperti transform between stationary and scale-invariant frames.

A discretely scale-invariant process X on (0, inf) with index H and base
alpha corresponds to a periodically correlated (cyclostationary) process Y
on the log-scale axis through

    X(t) = t**H * Y(log_alpha t),        t > 0,
    Y(t) = alpha**(-t*H) * X(alpha**t),  t real.

The maps below act on sampled grids: a grid on the log axis maps to a grid
on the positive half-line and back, with values rescaled by the power-law
envelope.  They are exact inverses of each other up to floating point.

:func:`embedded_to_stationary` specializes the inverse map to the flat
embedded sample sequence of a :class:`~dsi_lab.core.SamplingScheme`, whose
image lands on the uniform-in-log grid n*T + log_alpha(s_u).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SamplingScheme, check_log_range, sample_points
from .errors import BadBase, BadIndex, NonPositivePoint


def _as_float_vector(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise BadIndex(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class StationaryGrid:
    """Samples of a process on the log-scale axis.

    times must be strictly increasing; values has the same length.
    Arrays are float64 and treated as immutable.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        times = _as_float_vector(self.times, "times")
        values = _as_float_vector(self.values, "values")
        if times.shape != values.shape:
            raise BadIndex(
                f"times and values differ in length: {times.shape} vs {values.shape}"
            )
        if times.size and np.any(np.diff(times) <= 0):
            raise BadIndex("times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class SelfSimilarGrid:
    """Samples of a process on the positive half-line.

    points must be strictly positive and strictly increasing.
    """

    points: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        points = _as_float_vector(self.points, "points")
        values = _as_float_vector(self.values, "values")
        if points.shape != values.shape:
            raise BadIndex(
                f"points and values differ in length: {points.shape} vs {values.shape}"
            )
        if points.size and points[0] <= 0.0:
            raise NonPositivePoint(f"points must be > 0, got {points[0]!r}")
        if points.size and np.any(np.diff(points) <= 0):
            raise BadIndex("points must be strictly increasing")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "values", values)


def _check_transform_params(H: float, alpha: float) -> None:
    if not (alpha > 1.0 and math.isfinite(alpha)):
        raise BadBase(f"alpha must be finite and > 1, got {alpha!r}")
    if not (H > 0.0 and math.isfinite(H)):
        raise BadIndex(f"H must be finite and > 0, got {H!r}")


def quasi_lamperti(y: StationaryGrid, H: float, alpha: float) -> SelfSimilarGrid:
    """Map a stationary-side grid to the self-similar side.

    Points become alpha**times and values pick up the envelope
    (alpha**times)**H, i.e. X(alpha**t) = alpha**(t*H) * Y(t).

    Raises RangeOverflow if a point, an envelope factor or a rescaled value
    leaves the double-precision range.
    """
    _check_transform_params(H, alpha)
    log_alpha = math.log(alpha)
    if y.times.size:
        # logs of the largest point or envelope factor and of the largest
        # rescaled value; a zero value has log -inf
        worst = float(np.max(np.abs(y.times))) * log_alpha * max(1.0, H)
        with np.errstate(divide="ignore"):
            log_scaled = np.log(np.abs(y.values)) + H * log_alpha * y.times
        check_log_range((worst, float(np.max(log_scaled))), "alpha**(H*t) * values")
    points = alpha ** y.times
    values = points ** H * y.values
    return SelfSimilarGrid(points=points, values=values)


def inverse_quasi_lamperti(x: SelfSimilarGrid, H: float, alpha: float) -> StationaryGrid:
    """Map a self-similar-side grid back to the stationary side.

    Times become log_alpha(points) and values lose the power-law envelope:
    Y(t) = alpha**(-t*H) * X(alpha**t).

    Raises RangeOverflow if an envelope factor points**(-H) or a rescaled
    value leaves the double-precision range, as it does for tiny points.
    """
    _check_transform_params(H, alpha)
    if x.points.size:
        # logs of the largest envelope factor, at the smallest point, and
        # of the largest rescaled value; a zero value has log -inf
        with np.errstate(divide="ignore"):
            log_scaled = np.log(np.abs(x.values)) - H * np.log(x.points)
        check_log_range(
            (-H * math.log(x.points[0]), float(np.max(log_scaled))), "points**(-H) * values"
        )
    times = np.log(x.points) / math.log(alpha)
    values = x.points ** (-H) * x.values
    return StationaryGrid(times=times, values=values)


def embedded_to_stationary(
    values, scheme: SamplingScheme, kappa_start: int = 0
) -> StationaryGrid:
    """Strip the scale envelope from a flat embedded sample sequence.

    ``values[i]`` is the observed process at flat index kappa_start + i;
    the result carries the stationary-side samples

        eta(kappa) = t_kappa**(-H) * values[kappa]

    at log-axis times n*T + log_alpha(s_u), which repeat with period T.
    """
    vals = _as_float_vector(values, "values")
    if vals.size == 0:
        raise BadIndex("values must be non-empty")
    grid = sample_points(scheme, kappa_start, kappa_start + vals.size - 1)
    log_alpha = math.log(scheme.alpha)
    phase = np.array([math.log(s_u) / log_alpha for s_u in scheme.s])
    times = grid.n * scheme.T + phase[grid.u]
    envelope = grid.times ** (-scheme.H)
    return StationaryGrid(times=times, values=envelope * vals)

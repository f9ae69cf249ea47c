"""Sampling geometry for discretely scale-invariant processes.

A process observed on a geometric ladder of scale cycles is sampled at
``q`` offsets ``1 <= s_0 < s_1 < ... < s_{q-1} < alpha**T`` inside the base
cycle ``[1, alpha**T)``.  Cycle ``n`` (any integer) contains the points
``alpha**(n*T) * s_u``, and the flat sample index

    kappa = n*q + u,   0 <= u < q

enumerates all points in time order.  This module owns the index algebra
(splitting kappa into the cycle/offset pair) and the physical
time of each sample, plus the scheme record, which reads and checks its
own fields.
:func:`sample_points` returns a whole index range as one
:class:`SampleGrid` of parallel arrays ``(kappa, n, u, times)``.

Floor division defines the split for negative kappa as well, so e.g.
kappa = -1 with q = 3 lives in cycle n = -1 at offset u = 2.

Overflow policy, for the whole package: each closed form that can leave
double range is evaluated once, as the code computes it, through one
guard, :func:`in_range`, which raises RangeOverflow unless every value it
returns is finite and, for a form positive by construction, above
:data:`TINY`: the sample times, the reference summary's R0 and R1, and the
quasi-Lamperti points and envelope.  The exact reference covariance and the
spectral prefactor are positive too, but are guarded at the upper end only
(see ROADMAP).  The reference band factor lambda**(b H') is formed in one
place, :func:`band_factor`.  Reading policy: every numeric argument is read by
:func:`read_numbers` (an index through :func:`index_arrays`), so what is not
a number, a complex value where a real one is wanted included, raises a
DsiLabError and is never truncated.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

import numpy as np

from .errors import (
    BadBase,
    BadIndex,
    NonIncreasingOffsets,
    OffsetOutOfRange,
    RangeOverflow,
)

# values at or below the reciprocal of the largest double have no finite
# reciprocal: a positive form there has flushed towards zero
TINY = 1 / sys.float_info.max


def in_range(what: str, form: Callable[[], Any], positive: bool = False) -> Any:
    """Return ``form()``, a scalar, an array or a tuple of same-shape arrays;
    RangeOverflow names ``what`` unless every value is finite and, with
    ``positive``, above :data:`TINY`.

    The form is evaluated once with numpy's floating-point warnings off.  An
    overflow in a product of powers ends as inf or NaN, or as the
    OverflowError of float ``**`` or the ZeroDivisionError of ``0.0 ** -k``,
    so the result alone decides.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            value = form()
        except (OverflowError, ZeroDivisionError):
            value = math.inf
    if not np.isfinite(value).all():
        raise RangeOverflow(f"{what} is outside double precision range")
    if positive and not (np.asarray(value) > TINY).all():
        raise RangeOverflow(f"{what} flushes towards zero")
    return value


def powers(base: float, exponents) -> np.ndarray:
    """``base ** e`` for every entry e of ``exponents``, in their shape.

    One Python ``**`` per distinct exponent, because numpy's vectorised
    power differs from it in the last bit for about 5% of (alpha, k) pairs
    and the CSV bytes follow Python's.  Python's OverflowError, and the
    ZeroDivisionError of ``0.0 ** -k``, are left for :func:`in_range`.
    """
    base, exponents = float(base), np.asarray(exponents)
    flat = exponents.ravel().tolist()
    table = {e: base ** e for e in set(flat)}
    return np.array([table[e] for e in flat], dtype=float).reshape(exponents.shape)


def read_numbers(name: str, value, error: type, dtype: type = float) -> np.ndarray:
    """``value`` as a float64 array, complex128 for ``dtype=complex``, not
    copied where it already is one.  What is not a number (a string, None, a
    ragged list, a complex value where ``dtype`` is real) raises ``error``,
    an integer past double range RangeOverflow; domain checks stay with the
    caller."""
    number, kinds = (numbers.Complex, "biufc") if dtype is complex else (numbers.Real, "biuf")
    try:
        array = np.asarray(value)
    except (TypeError, ValueError):  # a ragged list, say
        array = np.asarray(None)
    # an object array holds integers past int64, or None (cast to NaN) and such
    kind = array.dtype.kind
    if not (kind in kinds or kind == "O" and all(isinstance(v, number) for v in array.flat)):
        raise error(f"{name} must hold {number.__name__.lower()} numbers")
    try:
        return array.astype(dtype, copy=False)
    except OverflowError:
        raise RangeOverflow(f"{name} is outside double precision range")


def index_arrays(name: str, T: int, /, **indices) -> tuple[str, tuple[np.ndarray, ...]]:
    """Return ``(what, arrays)``: ``name`` with each index's value or range,
    for one-line error messages, and the indices as broadcast int64 arrays.

    An entry that is not a number or not integral (an integral float counts
    as its value) or shapes that do not broadcast raise BadIndex.  An entry
    k with |k| * T >= 2**61 raises RangeOverflow, even where its value would
    be a double, so that sums of indices and twice n*T stay in int64.
    """
    limit = -(-(2 ** 61) // T)
    arrays, spans = [], []
    for key, value in indices.items():
        try:
            index = np.asarray(value)
        except (TypeError, ValueError):
            index = value  # a ragged list, say, which the reader refuses
        if not (isinstance(index, np.ndarray) and index.dtype.kind in "iu"):
            # floats, Python integers past int64, and what is not a number
            index = read_numbers(f"{name}: {key}", index, BadIndex)
            if not (np.isfinite(index) & (index == np.floor(index))).all():
                raise BadIndex(f"{name}: {key} must hold integers")
        if index.ndim:
            lo, hi = (index.min(), index.max()) if index.size else (0, 0)
            spans.append(f"{key} in [{lo}, {hi}]")
        else:
            lo = hi = index.item()
            spans.append(f"{key} = {lo}")
        if lo <= -limit or hi >= limit:
            raise RangeOverflow(f"{name}: {key} is outside |{key}| * T < 2**61")
        arrays.append(index.astype(np.int64))
    what = f"{name}({', '.join(spans)})"
    try:
        return what, np.broadcast_arrays(*arrays)
    except ValueError:
        raise BadIndex(f"{name}: index shapes do not broadcast together")


def check_index_and_base(H, alpha) -> tuple[float, float]:
    """H and alpha as floats: BadIndex unless H is one finite number > 0, then
    BadBase unless alpha is one > 1; the domain of every frame change."""
    h, a = read_numbers("H", H, BadIndex), read_numbers("alpha", alpha, BadIndex)
    if h.ndim or not (h > 0.0 and np.isfinite(h)):
        raise BadIndex(f"H must be finite and > 0, got {H!r}")
    if a.ndim or not (a > 1.0 and np.isfinite(a)):
        raise BadBase(f"alpha must be finite and > 1, got {alpha!r}")
    return h.item(), a.item()


def mirror_lower(matrices: np.ndarray) -> np.ndarray:
    """Overwrite the strict upper triangle of each trailing square matrix
    with the conjugate of its lower triangle, in place; return ``matrices``.

    The lower triangle u >= v is authoritative wherever a product form holds
    only there.  For a real array the conjugate is the values themselves.
    """
    iu, jv = np.triu_indices(matrices.shape[-1], k=1)
    matrices[..., iu, jv] = np.conj(matrices[..., jv, iu])
    return matrices


@dataclass(frozen=True)
class SamplingScheme:
    """Validated sampling geometry, read once at construction.

    Attributes
    ----------
    H : float
        Self-similarity index, H > 0.
    alpha : float
        Scale base, alpha > 1.
    T : int
        Cycle width in log-scale units, T >= 1.  One cycle spans a factor
        ``l = alpha**T`` in physical time.
    s : tuple of float
        The q >= 1 offsets, strictly increasing with 1 <= s[0] and
        s[-1] < alpha**T.

    Construction, :func:`dataclasses.replace` included, stores each field
    normalized, so equal schemes compare and hash equal: H and alpha as
    floats, T as an int by the integral rule of :func:`index_arrays` (1.5
    is refused) and s as a tuple of floats.  It raises BadIndex, BadBase,
    NonIncreasingOffsets or OffsetOutOfRange on the first violated
    requirement, BadIndex for a value that is not a number, and
    RangeOverflow when the cycle factor alpha**T is not a finite double.
    """

    H: float
    alpha: float
    T: int
    s: tuple[float, ...]

    def __post_init__(self) -> None:
        _, (T,) = index_arrays("SamplingScheme", 1, T=self.T)
        if T.ndim or not T >= 1:
            raise BadIndex(f"T must be an integer >= 1, got {self.T!r}")
        s = read_numbers("s", self.s, BadIndex)
        if s.ndim != 1 or not s.size:
            raise BadIndex(f"s must be a non-empty sequence of numbers, got shape {s.shape}")
        H, alpha = check_index_and_base(self.H, self.alpha)
        for name, value in (("H", H), ("alpha", alpha), ("T", T.item()), ("s", tuple(s.tolist()))):
            object.__setattr__(self, name, value)
        for a, b in zip(self.s, self.s[1:]):
            if not (b > a):
                raise NonIncreasingOffsets(
                    f"offsets must be strictly increasing, got {self.s}"
                )
        in_range(
            f"cycle scale alpha**T (alpha = {self.alpha!r}, T = {self.T})",
            lambda: self.alpha ** self.T,
        )
        if not (self.s[0] >= 1.0):
            raise OffsetOutOfRange(f"s[0] must be >= 1, got {self.s[0]!r}")
        if not (self.s[-1] < self.scale):
            raise OffsetOutOfRange(
                f"s[-1] must be < alpha**T = {self.scale!r}, got {self.s[-1]!r}"
            )

    @property
    def q(self) -> int:
        """Number of sampling offsets per cycle, ``len(s)``."""
        return len(self.s)

    @property
    def scale(self) -> float:
        """Cycle scale factor l = alpha**T."""
        return self.alpha ** self.T


# the scheme constructor under the name the package has always exported
validate_scheme = SamplingScheme


def band_factor(scheme: SamplingScheme, bands) -> np.ndarray:
    """The reference band factor lambda**(b * H'), lambda = alpha**T and
    H' = H - 1/2, for every entry b of ``bands``, by :func:`powers`."""
    return powers(scheme.scale, bands * (scheme.H - 0.5))


def split_index(kappa: int, q: int) -> tuple[int, int]:
    """Split a flat index into the (cycle, offset) pair, kappa = n*q + u.

    Uses floor division, so negative kappa maps to the unique pair with
    0 <= u < q (e.g. split_index(-1, 3) == (-1, 2)).  kappa and q are read
    by :func:`index_arrays`: a non-integral one raises BadIndex (an integral
    float counts as its value) and one with |k| >= 2**61 RangeOverflow.
    """
    what, (kappa, q) = index_arrays("split_index", 1, kappa=kappa, q=q)
    if kappa.ndim or q.ndim or q < 1:
        raise BadIndex(f"{what}: needs one kappa and one q >= 1")
    return divmod(kappa.item(), q.item())


class SampleGrid(NamedTuple):
    """Sample points as parallel arrays, in time order.

    Entry i is the sample kappa[i] = n[i]*q + u[i], 0 <= u[i] < q, at
    physical time times[i] = alpha**(n[i]*T) * s[u[i]].  kappa, n and u
    are integer arrays and times is float64; all are treated as immutable.
    """

    kappa: np.ndarray
    n: np.ndarray
    u: np.ndarray
    times: np.ndarray


def sample_time(scheme: SamplingScheme, kappa) -> np.ndarray:
    """Physical time of sample kappa, t = alpha**(n*T) * s_u.

    ``kappa`` is an integer or an integer array (see :func:`index_arrays`);
    the result has its shape, a ``numpy.float64`` for an integer.
    Raises RangeOverflow when a time is not a finite double, or when it has
    flushed towards zero, at or below the reciprocal of the largest double.
    The cycle power is formed first, so a time that is a double is refused
    when that power alone flushes: with alpha = 1e200, T = 1 and
    s = (1, 1e199), kappa = -3 has t = 1e-201, but alpha**(-2) is 0.0.
    """
    what, (kappa,) = index_arrays("sample_time", scheme.T, kappa=kappa)
    n, u = np.divmod(kappa, scheme.q)
    return in_range(
        what, lambda: powers(scheme.alpha, n * scheme.T) * np.array(scheme.s)[u], positive=True
    )


def sample_points(scheme: SamplingScheme, kappa_min: int, kappa_max: int) -> SampleGrid:
    """All sample points for kappa in [kappa_min, kappa_max], time-ordered.

    Times strictly increase with kappa, and one full cycle advances time by
    exactly the cycle factor: t(kappa + q) = alpha**T * t(kappa).  The times
    are those :func:`sample_time` returns for the index range.  A bound that
    is not integral (see :func:`index_arrays`), or an empty range, is a BadIndex.
    """
    _, (ends,) = index_arrays("sample_points", scheme.T, kappa=(kappa_min, kappa_max))
    kappa_min, kappa_max = ends.tolist()
    if kappa_max < kappa_min:
        raise BadIndex(f"empty index range [{kappa_min}, {kappa_max}]")
    # times increase with kappa, so the end samples bound every time
    sample_time(scheme, ends)
    kappa = np.arange(kappa_min, kappa_max + 1)
    n, u = np.divmod(kappa, scheme.q)
    return SampleGrid(kappa=kappa, n=n, u=u, times=sample_time(scheme, kappa))

"""Wide-sense Markov covariance engine on the embedded sample sequence.

Let W(kappa) be the flat embedded sequence of a discretely scale-invariant
process sampled on a :class:`~dsi_lab.core.SamplingScheme` (q offsets per
scale cycle).  When W is wide-sense Markov, its whole two-index covariance

    R_kappa(tau) = E[W(kappa + tau) W(kappa)]

is determined by 2q numbers: the per-offset variances R0[u] = R_u(0) and
the one-step products R1[u] = E[W(u+1) W(u)] for u = 0..q-1 (the last
entry wraps into the next cycle).  Writing f(j) = R1[j] / R0[j] and the
running product ftilde(r) = f(0) f(1) ... f(r) with ftilde(-1) = 1 and
periodic extension f(j + q) = f(j), the covariance factorizes as

    R_kappa(t*q + s) = ftilde(q-1)**t * ftilde(kappa+s-1) / ftilde(kappa-1)
                       * R_kappa(0),          0 <= s < q, t >= 0,

with the variance ladder R_kappa(0) = alpha**(2*n*T*H) * R0[u] for
kappa = n*q + u.  Negative lags follow from symmetry of the covariance,
R_kappa(-tau) = R_{kappa-tau}(tau).

The blocked view V(n) = (W(n*q), ..., W(n*q + q - 1)) is a q-dimensional
stationary-in-n sequence up to the deterministic scale factor: its lag
matrices satisfy Q(n, tau) = alpha**(2*n*T*H) * Q(0, tau).  For tau >= 1
the matrix is ftilde(q-1)**tau * A, with the rank-one factor
A[u, v] = ftilde(u-1) / ftilde(v-1) * R0[v]; at tau = 0 that form holds
only on the lower triangle u >= v, and the strict upper triangle is its
mirror (covariance matrices are symmetric: E[W(u) W(v)] carries the
smaller index's variance either way).

Everything is wide-sense: only second moments enter, no distributional
assumptions beyond finite variances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SamplingScheme, band_factor, in_range, index_arrays, mirror_lower, powers
from .core import read_numbers
from .errors import BadIndex, InvalidModel, ModelUnstable, NegativeKappa

# relative slack for the Cauchy-Schwarz admissibility check
_CS_SLACK = 1e-12


@dataclass(frozen=True)
class MarkovCovarianceModel:
    """Flattened covariance summary of a wide-sense Markov embedded sequence.

    Parameters
    ----------
    scheme : SamplingScheme
        Sampling geometry (supplies q, alpha, T, H).
    R0 : array of shape (q,)
        Per-offset variances R_u(0), all strictly positive.
    R1 : array of shape (q,)
        One-step covariance products E[W(u+1) W(u)].  The last entry is the
        wrap product E[W(q) W(q-1)] into the next cycle.  Entries must be
        nonzero (the factorization divides by their running products) and
        satisfy Cauchy-Schwarz against the neighbouring variances.

    Construction validates admissibility and the strict stability bound
    |ftilde(q-1)| < alpha**(T*H); on the boundary the spectral series does
    not converge and ModelUnstable is raised.  A scale ladder alpha**(T*H),
    or a rank-one factor ftilde(u-1) / ftilde(v-1) * R0[v], outside double
    range raises RangeOverflow.
    """

    scheme: SamplingScheme
    R0: np.ndarray
    R1: np.ndarray

    def __post_init__(self) -> None:
        q = self.scheme.q
        R0, R1 = (read_numbers(name, getattr(self, name), InvalidModel) for name in ("R0", "R1"))
        if R0.shape != (q,) or R1.shape != (q,):
            raise InvalidModel(f"R0 and R1 must have shape ({q},), got {R0.shape} and {R1.shape}")
        if not np.all(np.isfinite(R0)) or not np.all(np.isfinite(R1)):
            raise InvalidModel("R0 and R1 must be finite")
        if np.any(R0 <= 0.0):
            raise InvalidModel(f"variances R0 must be strictly positive, got {R0}")
        if np.any(R1 == 0.0):
            raise InvalidModel(
                "one-step products R1 must be nonzero (their running product "
                "is inverted in the covariance factorization)"
            )
        # the scale ladder alpha**(T*H) is the standard-deviation growth per
        # cycle; the stability ratio divides by it
        growth = in_range(
            "scale ladder alpha**(T*H)",
            lambda: self.scheme.alpha ** (self.scheme.T * self.scheme.H),
        )
        # Cauchy-Schwarz: |R1[j]| <= sqrt(R0[j] * Var(W(j+1))), in standard
        # deviations; the wrap neighbour's is alpha**(T*H) * sqrt(R0[0]).  A
        # bound past double range is inf, which every finite R1 meets.
        dev = np.sqrt(R0)
        with np.errstate(over="ignore"):
            next_dev = np.concatenate([dev[1:], [growth * dev[0]]])
            bound = dev * next_dev * math.sqrt(1.0 + _CS_SLACK)
        if np.any(np.abs(R1) > bound):
            j = int(np.argmax(np.abs(R1) / bound))
            raise InvalidModel(
                f"|R1[{j}]| = {float(abs(R1[j]))!r} exceeds the Cauchy-Schwarz bound "
                f"{float(bound[j])!r}"
            )
        object.__setattr__(self, "R0", R0)
        object.__setattr__(self, "R1", R1)

        # prefix[v] = ftilde(v-1) = f(0) ... f(v-1) with f = R1 / R0 and
        # prefix[0] = 1
        prefix = in_range(
            "running products ftilde of R1 / R0",
            lambda: np.concatenate([[1.0], np.cumprod(R1 / R0)]),
        )
        object.__setattr__(self, "_prefix", prefix)

        ratio = abs(prefix[q]) / growth
        if not ratio < 1.0:
            raise ModelUnstable(
                f"|ftilde(q-1)| = {float(abs(prefix[q]))!r} must be strictly below "
                f"alpha**(T*H) = {float(growth)!r}"
            )
        object.__setattr__(self, "_stability_ratio", float(ratio))
        # rank-one factor A[u, v] = ftilde(u-1) / ftilde(v-1) * R0[v] of every
        # lag matrix; an inner ftilde that underflowed to 0 has no inverse
        rank_one = in_range(
            "rank-one factor A", lambda: np.outer(prefix[:q], R0 / prefix[:q])
        )
        object.__setattr__(self, "_rank_one", rank_one)

    @property
    def ftilde_q(self) -> float:
        """Full-cycle product ftilde(q-1) = f(0) ... f(q-1)."""
        return float(self._prefix[self.scheme.q])

    @property
    def stability_ratio(self) -> float:
        """|ftilde(q-1)| / alpha**(T*H), strictly below 1 by construction.

        This is also the per-lag geometric decay ratio of the weighted
        spectral series terms."""
        return self._stability_ratio


def covariance_W(model: MarkovCovarianceModel, kappa, tau) -> np.ndarray:
    """Covariance R_kappa(tau) = E[W(kappa + tau) W(kappa)] of the flat sequence.

    ``kappa`` and ``tau`` are integers or integer arrays that broadcast
    together; the result has their shape, a ``numpy.float64`` for integers.
    Both sample indices must be >= 0 (kappa and kappa + tau), otherwise
    NegativeKappa is raised.  Negative lags are evaluated through the
    symmetry R_kappa(-tau) = R_{kappa - tau}(tau).  RangeOverflow is raised
    when a power, a partial product or a result leaves double range.
    """
    scheme, q = model.scheme, model.scheme.q
    what, (kappa, tau) = index_arrays("covariance_W", scheme.T, kappa=kappa, tau=tau)
    # the earlier sample and the lag from it to the later one
    lo = np.minimum(kappa, kappa + tau)
    if (lo < 0).any():
        raise NegativeKappa(f"{what}: kappa and kappa + tau must be >= 0")
    t, s = np.divmod(np.abs(tau), q)
    n, u = np.divmod(lo, q)
    m, v = np.divmod(lo + s, q)
    prefix = model._prefix
    # ftilde(q-1)**t * ftilde(lo+s-1) / ftilde(lo-1) * R_lo(0), the ratio
    # formed as prefix[q]**(m-n) * (prefix[v] / prefix[u])
    return in_range(
        what,
        lambda: powers(prefix[q], t)
        * (powers(prefix[q], m - n) * (prefix[v] / prefix[u]))
        * (powers(scheme.alpha, 2 * n * scheme.T * scheme.H) * model.R0[u]),
    )


def covariance_V(model: MarkovCovarianceModel, n, tau) -> np.ndarray:
    """Lag matrices Q(n, tau) of the blocked view, for integers n and tau >= 0.

    Entry [u, v] is E[V^u(n + tau) V^v(n)] with V^u(n) = W(n*q + u), and
    the exact scale ladder Q(n, tau) = alpha**(2*n*T*H) * Q(0, tau) holds.
    ``n`` and ``tau`` are integers or integer arrays that broadcast
    together, and the result has their shape + (q, q).  Built from the
    model's rank-one factor as ftilde(q-1)**tau * A[u, v], which holds
    entrywise for tau >= 1 and on the lower triangle u >= v at tau = 0; the
    strict upper triangle at tau = 0 is the symmetric mirror.  The result
    therefore always equals the entrywise assembly from :func:`covariance_W`.
    A negative tau raises BadIndex; a power, partial product or result
    outside double range raises RangeOverflow.
    """
    scheme = model.scheme
    what, (n, tau) = index_arrays("covariance_V", scheme.T, n=n, tau=tau)
    if (tau < 0).any():
        raise BadIndex(f"{what}: tau must be >= 0")
    ladder = 2 * n[..., None, None] * scheme.T * scheme.H
    matrix = in_range(
        what,
        lambda: powers(scheme.alpha, ladder)
        * (powers(model.ftilde_q, tau[..., None, None]) * model._rank_one),
    )
    lag_zero = tau == 0
    if lag_zero.any():
        matrix[lag_zero] = mirror_lower(matrix[lag_zero])
    return matrix


def model_from_sbm(scheme: SamplingScheme) -> MarkovCovarianceModel:
    """Covariance summary of the banded Brownian reference construction.

    The reference process rescales a Brownian motion by the constant
    lambda**(n*H') on the n-th scale cycle (lambda = alpha**T,
    H' = H - 1/2), giving the exact covariance
    E[X(t1) X(t2)] = lambda**((n1 + n2) * H') * min(t1, t2) for t_i in
    cycle n_i.  On the sampling grid this yields

        R0[u] = lambda**(2*H') * s_u
        R1[u] = lambda**(2*H') * s_u          (u < q-1)
        R1[q-1] = lambda**(3*H') * s_{q-1}    (wrap into the next cycle)

    and the model is always strictly stable: |ftilde(q-1)| = lambda**H'
    < lambda**H.  RangeOverflow is raised when an entry leaves double
    range, or underflows: every entry is positive by construction, so one
    that has flushed is refused (see :func:`core.in_range`).
    """
    R0 = in_range(
        "model_from_sbm R0", lambda: band_factor(scheme, 2) * np.array(scheme.s), positive=True
    )
    R1 = R0.copy()
    R1[-1] = in_range(
        f"model_from_sbm R1[{scheme.q - 1}]",
        lambda: band_factor(scheme, 3) * scheme.s[-1],
        positive=True,
    )
    return MarkovCovarianceModel(scheme=scheme, R0=R0, R1=R1)

"""Spectral density matrices of the blocked sample sequence.

The blocked view V(n) of a discretely scale-invariant process (q samples
per scale cycle, lag matrices Q(tau) at block n = 0) has a q x q spectral
density matrix on the unit circle,

    g[u, v](omega) = (s_u * s_v)**(-H) / (2 pi)
                     * sum_tau alpha**(-T*H*tau) * exp(-i omega tau) * Q[u, v](tau),

where the weight alpha**(-T*H*tau) removes the deterministic scale ladder
and the sum runs over all integer lags.  Negative lags carry
Q(-tau) = alpha**(-2 tau T H) * Q(tau)^T, so the summand pairs into a
Hermitian matrix function with real nonnegative diagonal.

For a wide-sense Markov model the series is geometric with per-lag ratio
|ftilde(q-1)| * alpha**(-T*H) < 1 and sums in closed form: with
a = ftilde(q-1) * alpha**(-T*H), C[u, v] = ftilde(u-1) / ftilde(v-1),

    g[u, v](omega) = (s_u s_v)**(-H) / (2 pi)
                     * ( C[u, v] R0[v] / (1 - a e^{-i omega})
                         - C[u, v]^{-1} R0[u] / (1 - e^{-i omega} / a) ),

valid as written for u >= v; the strict upper triangle is the conjugate
mirror (the lag-zero matrix that seeds the resummation is only given by
the product form on the lower triangle).  The banded Brownian reference
process specializes this with C = 1, a = alpha**(-T/2).

The inverse direction recovers lag matrices from a density sampled on a
uniform M-point frequency grid by the rectangle rule

    Q[u, v](tau) ~ alpha**(tau T H) (s_u s_v)**H * (2 pi / M)
                   * sum_k exp(i omega_k tau) g[u, v](omega_k),

and :func:`spectral_distribution_interval` integrates a scalar density
over [lo, hi) from its covariance Fourier coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import SamplingScheme
from .errors import (
    BadInterval,
    GridTooCoarse,
    ModelUnstable,
    ToleranceUnreachable,
)
from .markov_cov import MarkovCovarianceModel, covariance_V

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SeriesMeta:
    """Truncation record of a series evaluation: highest lag summed and the
    certified geometric tail bound (in density units, entrywise sup)."""

    n_terms: int
    tail_bound: float


@dataclass(frozen=True)
class SpectralEvaluation:
    """Density matrix sampled on a frequency grid.

    matrices[k] is the q x q complex density at omegas[k].  Hermitianity
    and a real nonnegative diagonal are mathematical properties of a valid
    density; :meth:`hermitian_defect` measures the numerical residue.
    """

    omegas: np.ndarray
    matrices: np.ndarray
    meta: SeriesMeta | None = None

    def __post_init__(self) -> None:
        omegas = np.asarray(self.omegas, dtype=float)
        matrices = np.asarray(self.matrices, dtype=complex)
        if omegas.ndim != 1:
            raise BadInterval(f"omegas must be one-dimensional, got {omegas.shape}")
        if matrices.ndim != 3 or matrices.shape[0] != omegas.size:
            raise BadInterval(
                f"matrices must have shape (len(omegas), q, q), got {matrices.shape}"
            )
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "matrices", matrices)

    def hermitian_defect(self) -> float:
        """max over the grid of the entrywise |g - g^H| residue."""
        return float(
            np.max(np.abs(self.matrices - np.conj(np.swapaxes(self.matrices, 1, 2))))
        )


def _prefactor(scheme: SamplingScheme) -> np.ndarray:
    s = np.asarray(scheme.s, dtype=float)
    return (np.outer(s, s)) ** (-scheme.H) / _TWO_PI


def spectral_series(
    covfn: Callable[[int], np.ndarray],
    scheme: SamplingScheme,
    omegas,
    tol: float,
    tail_ratio: float | None = None,
    max_terms: int = 1_000_000,
) -> SpectralEvaluation:
    """Sum the two-sided weighted Fourier series of a covariance sequence.

    Parameters
    ----------
    covfn : callable
        Maps an integer lag tau >= 0 to the q x q block covariance matrix
        Q(tau).  Only nonnegative lags are requested; negative-lag terms
        use the identity Q(-tau) = alpha**(-2 tau T H) * Q(tau)^T.
    scheme : SamplingScheme
        Supplies q, the offsets for the prefactor, and the series weight.
    omegas : array_like
        Frequencies to evaluate at.
    tol : float
        Target truncation accuracy, certified entrywise on the density via
        the geometric tail bound 2 * Kmax * m_N * r / (1 - r) < tol, where
        m_N is the weighted magnitude of the last summed term.
    tail_ratio : float, optional
        Known per-lag decay ratio in [0, 1) of the weighted terms (for a
        Markov model this is exactly its stability ratio).  When omitted
        the ratio is estimated conservatively from the trailing terms,
        which is sound for eventually-geometric sequences.
    max_terms : int
        Lag budget; exceeding it raises ToleranceUnreachable.

    Raises
    ------
    ModelUnstable
        If the weighted terms fail to decay (observed ratio >= 1).
    ToleranceUnreachable
        If the budget is exhausted before the tail bound certifies tol.
    """
    if tol <= 0.0:
        raise ToleranceUnreachable(f"tolerance must be > 0, got {tol}")
    if tail_ratio is not None and not (0.0 <= tail_ratio < 1.0):
        raise ModelUnstable(
            f"tail ratio must lie in [0, 1) for a summable series, got {tail_ratio}"
        )
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    q = scheme.q
    K = _prefactor(scheme)
    k_max = float(K.max())
    w = scheme.alpha ** (-scheme.T * scheme.H)

    Q0 = np.asarray(covfn(0), dtype=float)
    if Q0.shape != (q, q):
        raise BadInterval(f"covfn(0) must have shape ({q}, {q}), got {Q0.shape}")

    phase = np.exp(-1j * omegas)  # one-lag phase step
    acc = np.broadcast_to(Q0, (omegas.size, q, q)).astype(complex).copy()
    p = np.ones_like(phase)

    # trailing weighted magnitudes for the conservative ratio estimate
    history: list[float] = []
    m_prev = float(np.abs(Q0).max())
    zero_run = 0
    grow_run = 0
    tail = math.inf

    n_terms = 0
    for tau in range(1, max_terms + 1):
        Qt = np.asarray(covfn(tau), dtype=float)
        wt = w ** tau
        p = p * phase
        acc += wt * (
            p[:, None, None] * Qt + np.conj(p)[:, None, None] * Qt.T
        )
        n_terms = tau

        m = wt * float(np.abs(Qt).max())
        if m == 0.0:
            zero_run += 1
            if zero_run >= q:
                tail = 0.0
                break
            continue
        zero_run = 0

        if tail_ratio is not None:
            r = tail_ratio
        else:
            history.append(0.0 if m_prev == 0.0 else m / m_prev)
            history = history[-max(q, 3):]
            r = max(history)
        if m_prev > 0.0 and m / m_prev >= 1.0:
            grow_run += 1
            if grow_run >= 4 * q + 4:
                raise ModelUnstable(
                    f"weighted series terms are not decaying (ratio >= 1 at lag {tau})"
                )
        else:
            grow_run = 0
        m_prev = m

        # let at least one full block pass before trusting an estimated ratio
        if r < 1.0 and (tail_ratio is not None or tau > q):
            tail = 2.0 * k_max * m * r / (1.0 - r)
            if tail < tol:
                break
    else:
        raise ToleranceUnreachable(
            f"tail bound still {tail:.3e} after {max_terms} lags (target {tol:.3e})"
        )
    if not tail < tol:
        raise ToleranceUnreachable(
            f"tail bound {tail:.3e} did not reach the target {tol:.3e}"
        )

    return SpectralEvaluation(
        omegas=omegas,
        matrices=K[None, :, :] * acc,
        meta=SeriesMeta(n_terms=n_terms, tail_bound=float(tail)),
    )


def _mirror_upper(matrices: np.ndarray) -> np.ndarray:
    # overwrite the strict upper triangle with the conjugate of the lower:
    # the one-sided resummation is authoritative for u >= v only
    q = matrices.shape[-1]
    iu, jv = np.triu_indices(q, k=1)
    matrices[:, iu, jv] = np.conj(matrices[:, jv, iu])
    return matrices


def spectral_markov(model: MarkovCovarianceModel, omegas) -> SpectralEvaluation:
    """Closed-form density matrix of a stable wide-sense Markov model.

    Sums the geometric series exactly: for u >= v,

        g[u, v](w) = K[u, v] * ( A[u, v] / (1 - a e^{-iw})
                                 - B[u, v] / (1 - e^{-iw} / a) )

    with a = ftilde(q-1) * alpha**(-T*H), A[u, v] = C[u, v] * R0[v],
    B[u, v] = R0[u] / C[u, v], and conjugate-mirrored upper triangle.
    """
    scheme = model.scheme
    if not model.stability_ratio < 1.0:
        raise ModelUnstable(
            f"stability ratio {model.stability_ratio!r} must be < 1"
        )
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    q = scheme.q
    pref = model._prefix[:q]
    C = np.outer(pref, 1.0 / pref)
    A = C * model.R0[None, :]
    B = A.T  # B[u, v] = C[v, u] * R0[u]
    a = model.ftilde_q * scheme.alpha ** (-scheme.T * scheme.H)

    e = np.exp(-1j * omegas)
    d1 = 1.0 / (1.0 - a * e)
    d2 = 1.0 / (1.0 - e / a)
    K = _prefactor(scheme)
    mats = K[None, :, :] * (
        A[None, :, :] * d1[:, None, None] - B[None, :, :] * d2[:, None, None]
    )
    return SpectralEvaluation(omegas=omegas, matrices=_mirror_upper(mats))


def spectral_sbm(scheme: SamplingScheme, omegas) -> SpectralEvaluation:
    """Density matrix of the banded Brownian reference process.

    Specializes the Markov closed form (all cycle-interior ratios are 1):
    for u >= v, with lam = alpha**T and H' = H - 1/2,

        g[u, v](w) = (s_u s_v)**(-H) * lam**(2 H') / (2 pi)
                     * ( s_v / (1 - e^{-iw} alpha**(-T/2))
                         - s_u / (1 - e^{-iw} alpha**(T/2)) ),

    upper triangle conjugate-mirrored.
    """
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    s = np.asarray(scheme.s, dtype=float)
    lam = scheme.scale
    hp = scheme.H - 0.5
    a = scheme.alpha ** (-scheme.T / 2.0)

    e = np.exp(-1j * omegas)
    d1 = 1.0 / (1.0 - a * e)
    d2 = 1.0 / (1.0 - e / a)
    K = _prefactor(scheme) * lam ** (2 * hp)
    sv = np.broadcast_to(s[None, :], (scheme.q, scheme.q))
    su = sv.T
    mats = K[None, :, :] * (
        sv[None, :, :] * d1[:, None, None] - su[None, :, :] * d2[:, None, None]
    )
    return SpectralEvaluation(omegas=omegas, matrices=_mirror_upper(mats))


@dataclass(frozen=True)
class CovarianceRecovery:
    """Lag matrices recovered from a sampled density.

    matrices[i] is the real part of the rectangle-rule inversion at
    taus[i]; imag_residue is the largest imaginary magnitude discarded,
    a direct quality check of the grid and the density's Hermitianity.
    """

    taus: tuple[int, ...]
    matrices: np.ndarray
    imag_residue: float


def invert_spectrum(
    evaluation: SpectralEvaluation,
    scheme: SamplingScheme,
    taus: Sequence[int],
) -> CovarianceRecovery:
    """Recover block covariance matrices from a density on a uniform grid.

    The evaluation must sample omega_k = 2 pi k / M, k = 0..M-1, with
    M >= 4 * max|tau| so the rectangle rule resolves the requested lags
    (aliasing decays with the density's smoothness).  Returns

        Q(tau) = alpha**(tau T H) (s_u s_v)**H * (2 pi / M)
                 * sum_k e^{i omega_k tau} g(omega_k).
    """
    taus = tuple(int(t) for t in taus)
    if not taus:
        raise BadInterval("need at least one lag to invert")
    omegas = evaluation.omegas
    M = omegas.size
    expected = np.arange(M) * (_TWO_PI / M)
    if M < 2 or not np.allclose(omegas, expected, rtol=0.0, atol=1e-9):
        raise GridTooCoarse(
            "inversion needs the uniform grid omega_k = 2*pi*k/M, k = 0..M-1"
        )
    t_abs = max(abs(t) for t in taus)
    if M < 4 * max(t_abs, 1):
        raise GridTooCoarse(
            f"M = {M} frequency points cannot resolve lag {t_abs}; need M >= {4 * t_abs}"
        )

    s = np.asarray(scheme.s, dtype=float)
    su_sv = np.outer(s, s) ** scheme.H
    tau_arr = np.array(taus)
    # kernel[i, k] = e^{i omega_k tau_i} / M * 2 pi ... folded with weights
    kernel = np.exp(1j * np.outer(tau_arr, omegas)) * (_TWO_PI / M)
    raw = np.einsum("tk,kuv->tuv", kernel, evaluation.matrices)
    growth = scheme.alpha ** (tau_arr * scheme.T * scheme.H)
    full = growth[:, None, None] * su_sv[None, :, :] * raw
    return CovarianceRecovery(
        taus=taus,
        matrices=full.real.copy(),
        imag_residue=float(np.abs(full.imag).max()),
    )


def spectral_distribution_interval(b, lo: float, hi: float) -> complex:
    """Spectral mass of a scalar stationary sequence on the interval [lo, hi).

    ``b`` holds the covariance Fourier coefficients B(tau) for
    tau = -N..N (length 2N + 1, zero lag in the middle).  The mass is

        F = (hi - lo) / (2 pi) * B(0)
            + (1 / 2 pi) * sum_{tau != 0} B(tau) * (e^{-i hi tau} - e^{-i lo tau}) / (-i tau),

    which for a summable sequence converges to the integral of the density
    over the interval; the full circle [0, 2 pi) returns exactly B(0).
    Endpoints must satisfy 0 <= lo < hi <= 2 pi.
    """
    b = np.asarray(b)
    if b.ndim != 1 or b.size % 2 != 1 or b.size < 3:
        raise BadInterval(
            f"coefficients must be a one-dimensional odd-length array (tau = -N..N), "
            f"got shape {b.shape}"
        )
    if not (0.0 <= lo < hi <= _TWO_PI):
        raise BadInterval(
            f"interval must satisfy 0 <= lo < hi <= 2*pi, got [{lo}, {hi})"
        )
    N = b.size // 2
    tau = np.concatenate([np.arange(-N, 0), np.arange(1, N + 1)])
    coeff = np.concatenate([b[:N], b[N + 1:]])
    kernel = (np.exp(-1j * hi * tau) - np.exp(-1j * lo * tau)) / (-1j * tau)
    mass = (hi - lo) / _TWO_PI * b[N] + (coeff * kernel).sum() / _TWO_PI
    return complex(mass)


def markov_covfn(model: MarkovCovarianceModel) -> Callable[[int], np.ndarray]:
    """Block covariance callable tau -> Q(0, tau) of a Markov model, in the
    form :func:`spectral_series` consumes."""
    return lambda tau: covariance_V(model, 0, tau).matrix

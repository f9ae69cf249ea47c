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
|ftilde(q-1)| * alpha**(-T*H) < 1 and sums in closed form without dividing
by a = ftilde(q-1) * alpha**(-T*H): with d = 1 / (1 - a e^{-i omega}) and
the rank-one factor A[u, v] = ftilde(u-1) / ftilde(v-1) * R0[v],

    g[u, v](omega) = (s_u s_v)**(-H) / (2 pi)
                     * ( A[u, v] d + A[v, u] a conj(e^{-i omega} d) ),

valid as written for u >= v; the strict upper triangle is the conjugate
mirror (the lag-zero matrix that seeds the resummation is only given by
the product form on the lower triangle).  The banded Brownian reference
process specializes this with A[u, v] = R0[v], a = alpha**(-T/2).

The inverse direction recovers lag matrices from a density sampled on a
uniform M-point frequency grid by the rectangle rule

    Q[u, v](tau) ~ alpha**(tau T H) (s_u s_v)**H * (2 pi / M)
                   * sum_k exp(i omega_k tau) g[u, v](omega_k),

evaluated at every lag by one inverse FFT of the density.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import SamplingScheme, band_factor, in_range, index_arrays, mirror_lower, read_numbers
from .errors import BadInterval, GridTooCoarse, ModelUnstable, RangeOverflow
from .errors import ToleranceUnreachable
from .markov_cov import MarkovCovarianceModel, covariance_V

_TWO_PI = 2.0 * math.pi
_MAX_TERMS = 1_000_000  # spectral_series' lag budget


class SeriesMeta(NamedTuple):
    """Truncation record of a series evaluation: highest lag summed and the
    geometric tail bound that the stated decay ratio certifies (in density
    units, entrywise sup)."""

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
        omegas = read_numbers("omegas", self.omegas, BadInterval)
        matrices = read_numbers("matrices", self.matrices, BadInterval, complex)
        if omegas.ndim != 1 or matrices.ndim != 3 or matrices.shape[0] != omegas.size:
            raise BadInterval(
                f"need omegas (M,) and matrices (M, q, q), got {omegas.shape} and {matrices.shape}"
            )
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "matrices", matrices)

    def hermitian_defect(self) -> float:
        """max over the grid of the entrywise |g - g^H| residue."""
        return float(
            np.max(np.abs(self.matrices - np.conj(np.swapaxes(self.matrices, 1, 2))))
        )


def _frequencies(omegas) -> np.ndarray:
    """``omegas`` as a 1-d float64 array; BadInterval unless each is a finite number."""
    omegas = np.atleast_1d(read_numbers("omegas", omegas, BadInterval))
    if not np.isfinite(omegas).all():
        raise BadInterval("frequencies must be finite")
    return omegas


def _uniform_grid(M: int) -> np.ndarray:
    """The uniform grid omega_k = 2 pi k / M, k = 0..M-1, that inversion reads."""
    return np.arange(M) * (_TWO_PI / M)


def _prefactor(scheme: SamplingScheme) -> np.ndarray:
    # s_u * s_v may leave double range, but s**(-H) <= 1 cannot
    s_h = np.asarray(scheme.s, dtype=float) ** (-scheme.H)
    return np.outer(s_h, s_h) / _TWO_PI


def spectral_series(
    covfn: Callable[[int], np.ndarray],
    scheme: SamplingScheme,
    omegas,
    tol: float,
    tail_ratio: float,
) -> SpectralEvaluation:
    """Sum the two-sided weighted Fourier series of a covariance sequence.

    Parameters
    ----------
    covfn : callable
        Maps an integer lag tau >= 0 to the real q x q block covariance
        matrix Q(tau), read by ``core.read_numbers``.  Only lags tau >= 0 are
        requested; Q(-tau) = alpha**(-2 tau T H) * Q(tau)^T.
    scheme : SamplingScheme
        Supplies q, the offsets for the prefactor, and the series weight.
    omegas : array_like
        Frequencies to evaluate at, all finite.
    tol : float
        Target truncation accuracy, certified entrywise on the density via
        the geometric tail bound 2 * Kmax * m_N * r / (1 - r) < tol, where
        m_N is the weighted magnitude of the last summed term.
    tail_ratio : float
        The caller's bound r in [0, 1) on the lag-to-lag ratio of the
        weighted terms' magnitudes m_tau = alpha**(-T*H*tau) * max|Q(tau)|,
        m_(tau+1) <= r * m_tau at every lag tau >= 1 (for a Markov model
        this is exactly its stability ratio).  The sum stops at the first
        lag whose bound is below tol, so at the first weighted term that is
        exactly 0, and always by the last lag that the bound b_1 at lag 1
        sets, 3 + floor((log tol - log b_1) / log r): one past the lag by
        which a covfn that keeps ratio r has its bound below tol, for
        rounding (log b_1 sums its factors' logs where b_1 overflows).

    Raises
    ------
    BadInterval
        If a frequency is not a finite number, or a term of ``covfn`` is
        not a real q x q matrix.
    ModelUnstable
        If ``tail_ratio`` is not one number in [0, 1), or the bound is not
        below tol at the last lag: the weighted terms decay slower than r.
    RangeOverflow
        If a term of ``covfn`` is not finite (the message names its lag), or
        the density leaves double range.
    ToleranceUnreachable
        If ``tol`` is not one finite number > 0, or at lag 1 if the last
        lag lies past the budget of a million lags.
    """
    tol = read_numbers("tol", tol, ToleranceUnreachable)
    if tol.ndim or not 0.0 < tol < math.inf:
        raise ToleranceUnreachable(f"tolerance must be one finite number > 0, got {tol}")
    r = read_numbers("tail_ratio", tail_ratio, ModelUnstable)
    if r.ndim or not 0.0 <= r < 1.0:
        raise ModelUnstable(f"tail ratio must be one number in [0, 1), got {r}")
    omegas = _frequencies(omegas)
    q = scheme.q
    K = _prefactor(scheme)
    k_max = float(K.max())
    w = scheme.alpha ** (-scheme.T * scheme.H)

    def term(tau: int) -> np.ndarray:
        name = f"covfn({tau})"
        Q = read_numbers(name, covfn(tau), BadInterval)
        if Q.shape != (q, q):
            raise BadInterval(f"{name} must have shape ({q}, {q}), got {Q.shape}")
        # a NaN term would leave a NaN tail bound, whose log sets no last lag
        if not np.isfinite(Q).all():
            raise RangeOverflow(f"{name} is outside double precision range")
        return Q

    Q0 = term(0)
    n_terms = 0
    tail = math.inf

    def density():
        nonlocal n_terms, tail
        phase = np.exp(-1j * omegas)  # one-lag phase step
        acc = np.broadcast_to(Q0, (omegas.size, q, q)).astype(complex).copy()
        p = np.ones_like(phase)
        for tau in itertools.count(1):
            Qt = term(tau)
            wt = w ** tau
            p = p * phase
            acc += wt * (p[:, None, None] * Qt + np.conj(p)[:, None, None] * Qt.T)
            n_terms = tau

            m = wt * float(np.abs(Qt).max())
            tail = 2.0 * k_max * m * r / (1.0 - r)
            if tail < tol:
                return K[None, :, :] * acc
            if tau == 1:
                # logs apart: tol / tail can underflow to 0, tail overflow to inf
                log_b = math.log(tail) if tail < math.inf else (
                    math.log(2.0 * k_max * m * r) - math.log(1.0 - r))
                last = 3 + math.floor((math.log(tol) - log_b) / math.log(r))
                if last > _MAX_TERMS:
                    raise ToleranceUnreachable(
                        f"tail bound {tail:.3e} at lag 1 and ratio r = {r} set the last lag "
                        f"at {last}, past the budget of {_MAX_TERMS} lags (target {tol:.3e})"
                    )
            elif tau == last:
                raise ModelUnstable(
                    f"weighted series terms decay slower than the ratio r = {r} "
                    f"(tail bound {tail:.3e} at lag {tau}, target {tol:.3e})"
                )

    matrices = in_range("spectral_series density", density)
    return SpectralEvaluation(
        omegas=omegas,
        matrices=matrices,
        meta=SeriesMeta(n_terms=n_terms, tail_bound=float(tail)),
    )


def spectral_markov(model: MarkovCovarianceModel, omegas) -> SpectralEvaluation:
    """Closed-form density matrix of a stable wide-sense Markov model.

    Sums the geometric series exactly, without dividing by a: for u >= v,

        g[u, v](w) = K[u, v] * ( A[u, v] d + A[v, u] a conj(e^{-iw} d) ),

    with d = 1 / (1 - a e^{-iw}), a = ftilde(q-1) * alpha**(-T*H), the
    model's rank-one factor A[u, v] = ftilde(u-1) / ftilde(v-1) * R0[v] and
    conjugate-mirrored upper triangle.  An a that underflowed to 0 leaves
    the lag-zero density K * A.  Frequencies must be finite (BadInterval);
    a density entry outside double range, as for large variances with a
    stability ratio close to 1, raises RangeOverflow.
    """
    scheme = model.scheme
    omegas = _frequencies(omegas)
    A = model._rank_one
    a = model.ftilde_q * scheme.alpha ** (-scheme.T * scheme.H)

    def density():
        e = np.exp(-1j * omegas)
        d = 1.0 / (1.0 - a * e)
        # the second geometric sum, a * conj(e) / (1 - a * conj(e)) for real a
        d2 = a * np.conj(e * d)
        return _prefactor(scheme)[None, :, :] * (
            A[None, :, :] * d[:, None, None] + A.T[None, :, :] * d2[:, None, None]
        )

    mats = in_range("spectral_markov density", density)
    return SpectralEvaluation(omegas=omegas, matrices=mirror_lower(mats))


def spectral_sbm(scheme: SamplingScheme, omegas) -> SpectralEvaluation:
    """Density matrix of the banded Brownian reference process.

    Specializes the Markov closed form (all cycle-interior ratios are 1):
    for u >= v, with lam = alpha**T and H' = H - 1/2,

        g[u, v](w) = (s_u s_v)**(-H) * lam**(2 H') / (2 pi)
                     * ( s_v / (1 - e^{-iw} alpha**(-T/2))
                         - s_u / (1 - e^{-iw} alpha**(T/2)) ),

    upper triangle conjugate-mirrored.  Frequencies must be finite
    (BadInterval); a prefactor lam**(2 H') or density entry outside double
    range raises RangeOverflow.
    """
    omegas = _frequencies(omegas)

    def density():
        e = np.exp(-1j * omegas)
        d1 = 1.0 / (1.0 - scheme.alpha ** (-scheme.T / 2.0) * e)
        d2 = 1.0 / (1.0 - scheme.alpha ** (scheme.T / 2.0) * e)
        K = _prefactor(scheme) * band_factor(scheme, 2)
        sv = np.broadcast_to(np.array(scheme.s), (scheme.q, scheme.q))
        su = sv.T
        return K[None, :, :] * (
            sv[None, :, :] * d1[:, None, None] - su[None, :, :] * d2[:, None, None]
        )

    mats = in_range("spectral_sbm density", density)
    return SpectralEvaluation(omegas=omegas, matrices=mirror_lower(mats))


class CovarianceRecovery(NamedTuple):
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
    M >= 4 * max(max|tau|, 1) so the rectangle rule resolves the requested
    lags (aliasing decays with the density's smoothness).  The lags are read
    by ``core.index_arrays``, so a non-integral or non-finite one raises
    BadIndex.  Returns

        Q(tau) = alpha**(tau T H) (s_u s_v)**H * (2 pi / M)
                 * sum_k e^{i omega_k tau} g(omega_k),

    the sum being 2 pi * ifft(g)[tau mod M].  A rescaling factor or a
    recovered value outside double range raises RangeOverflow.  The factor
    is formed on its own, so a lag whose recovered value is a double is
    still refused when its factor is not: ``dsi-lab invert --T 700 --H 0.5
    --s 1,1e200`` fails at lag 4 (factor about e**1431), while
    ``dsi-lab covariance`` with the same flags writes values near 1e200.
    """
    _, (tau_arr,) = index_arrays("invert_spectrum", scheme.T, taus=taus)
    tau_arr = tau_arr.ravel()
    if not tau_arr.size:
        raise BadInterval("need at least one lag to invert")
    M = evaluation.omegas.size
    if M < 2 or not np.allclose(evaluation.omegas, _uniform_grid(M), rtol=0.0, atol=1e-9):
        raise GridTooCoarse("inversion needs the uniform grid omega_k = 2*pi*k/M, k = 0..M-1")
    t_abs = int(np.abs(tau_arr).max())
    need = 4 * max(t_abs, 1)
    if M < need:
        raise GridTooCoarse(
            f"M = {M} frequency points cannot resolve lag {t_abs}; need M >= {need}"
        )

    # log of the rescaling alpha**(tau T H) (s_u s_v)**H
    log_s = np.log(scheme.s)
    log_t = tau_arr * (scheme.T * math.log(scheme.alpha))
    log_scale = scheme.H * (log_t[:, None, None] + np.add.outer(log_s, log_s))
    # the rectangle-rule sums at all lags are one inverse FFT, read at tau mod M
    full = in_range(
        "invert_spectrum rescaled lag matrices",
        lambda: np.exp(log_scale)
        * (_TWO_PI * np.fft.ifft(evaluation.matrices, axis=0)[tau_arr % M]),
    )
    return CovarianceRecovery(
        taus=tuple(tau_arr.tolist()),
        matrices=full.real.copy(),
        imag_residue=float(np.abs(full.imag).max()),
    )


def markov_covfn(model: MarkovCovarianceModel) -> Callable[[int], np.ndarray]:
    """Block covariance callable tau -> Q(0, tau) of a Markov model, in the
    form :func:`spectral_series` consumes."""
    return lambda tau: covariance_V(model, 0, tau)

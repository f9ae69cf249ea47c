"""Banded Brownian reference process: exact covariance and Monte Carlo.

The reference construction pieces together a single Brownian motion B with
deterministic band coefficients: on scale cycle n (physical times in
[lambda**n, lambda**(n+1)), lambda = alpha**T) the process is

    X(t) = lambda**(b * H') * B(t),   b = n + 1,  H' = H - 1/2,

so its covariance is exactly

    E[X(t1) X(t2)] = lambda**((b1 + b2) * H') * min(t1, t2).

Restricted to a sampling scheme's grid this is a wide-sense Markov embedded
sequence whose flattened summary :func:`~dsi_lab.markov_cov.model_from_sbm`
produces, which makes it the natural ground truth for everything else in
this package: the exact covariance here validates the factorized engine,
and simulated ensembles validate both through plain moment estimators.

Simulation is reproducible by construction.  Path i of a run with seed s
draws from a counter-based Philox stream keyed by the pair (s, i).  Philox
output is a pure function of key and counter, so one generator re-keyed to
(s, i) with its counter and buffer reset yields exactly the draws of a
freshly built one: each path depends on (s, i) alone, and adding paths to
a run never changes the earlier ones.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import SamplingScheme, check_log_range, sample_points, sample_time
from .errors import BadIndex, NegativeKappa, RangeOverflow, RangeTooSmall

_SEED_BOUND = 2 ** 64


@dataclass(frozen=True)
class EstimateWithError:
    """Monte Carlo estimate with its standard error."""

    value: float
    std_error: float
    n_samples: int


@dataclass(frozen=True)
class MatrixEstimate:
    """Entrywise Monte Carlo estimate of one lag matrix."""

    tau: int
    value: np.ndarray
    std_error: np.ndarray
    n_samples: int

    def entry(self, u: int, v: int) -> EstimateWithError:
        return EstimateWithError(
            value=float(self.value[u, v]),
            std_error=float(self.std_error[u, v]),
            n_samples=self.n_samples,
        )


@dataclass(frozen=True)
class PathEnsemble:
    """Simulated sample paths of the reference process on the flat grid.

    paths[i, k] is path i observed at flat index kappa_min + k; times
    carries the matching physical sample times.
    """

    scheme: SamplingScheme
    kappa_min: int
    kappa_max: int
    times: np.ndarray
    paths: np.ndarray
    seed: int


def sbm_covariance_exact(scheme: SamplingScheme, kappa1: int, kappa2: int) -> float:
    """Exact covariance E[X(t_kappa1) X(t_kappa2)] of the reference process.

    Closed form lambda**((b1 + b2) * H') * min(t1, t2) with band indices
    b_i = floor(kappa_i / q) + 1.  Both indices must be >= 0.  RangeOverflow
    is raised when a sample time, the band power or the result leaves
    double range.
    """
    if kappa1 < 0 or kappa2 < 0:
        raise NegativeKappa(f"indices must be >= 0, got ({kappa1}, {kappa2})")
    lam = scheme.scale
    hp = scheme.H - 0.5
    t_min = min(sample_time(scheme, kappa1), sample_time(scheme, kappa2))
    bands = int(kappa1) // scheme.q + int(kappa2) // scheme.q + 2
    # logs of the band power and the result
    log_power = bands * hp * math.log(lam)
    check_log_range(
        (log_power, log_power + math.log(t_min)),
        f"sbm_covariance_exact(kappa1={kappa1}, kappa2={kappa2})",
    )
    return lam ** (bands * hp) * t_min


def _seed_value(seed) -> int:
    # integral values only: 1.5 must not truncate to 1, and True is no seed
    integral = not isinstance(seed, bool) and (
        isinstance(seed, numbers.Integral)
        or (
            isinstance(seed, numbers.Real)
            and math.isfinite(seed)
            and float(seed).is_integer()
        )
    )
    if not (integral and 0 <= int(seed) < _SEED_BOUND):
        raise BadIndex(f"seed must be a 64-bit unsigned integer, got {seed!r}")
    return int(seed)


def simulate_paths(
    scheme: SamplingScheme,
    kappa_range: tuple[int, int],
    P: int,
    seed: int,
) -> PathEnsemble:
    """Draw P independent paths of the reference process on the flat grid.

    Parameters
    ----------
    scheme : SamplingScheme
        Sampling geometry.
    kappa_range : (int, int)
        Inclusive flat index range; the lower end must be >= 0.
    P : int
        Number of paths, P >= 1.
    seed : int
        64-bit ensemble seed, an integral value in [0, 2**64).  Path i
        draws the first K standard normals of the Philox stream keyed by
        (seed, i), i.e. ``Philox(key=seed | i << 64)``.  One generator is
        re-keyed per path (counter 0, empty buffer), which gives exactly
        the draws of a freshly built one.  The underlying Brownian motion
        uses the increment representation
        B(t_k) = B(t_{k-1}) + sqrt(t_k - t_{k-1}) * z_k, B(t_0) = sqrt(t_0) * z_0.

    Raises
    ------
    RangeOverflow
        If a band factor or path value leaves double range.
    """
    kappa_min, kappa_max = int(kappa_range[0]), int(kappa_range[1])
    if kappa_min < 0:
        raise NegativeKappa(f"kappa range must start at >= 0, got {kappa_min}")
    if kappa_max < kappa_min:
        raise BadIndex(f"empty index range [{kappa_min}, {kappa_max}]")
    if P < 1:
        raise RangeTooSmall(f"need at least one path, got P = {P}")
    seed = _seed_value(seed)

    grid = sample_points(scheme, kappa_min, kappa_max)
    times = grid.times
    K = times.size
    lam = scheme.scale
    hp = scheme.H - 0.5
    # band b = n + 1, as in the covariance exponent above
    bands = grid.n + 1
    # Brownian increment scales, first one from the origin
    inc_std = np.sqrt(np.diff(times, prepend=0.0))

    bitgen = np.random.Philox(key=seed)
    gen = np.random.Generator(bitgen)
    # the state of a new Philox(key=seed | i << 64): key words (seed, i),
    # counter 0, empty output buffer; the setter copies it, so key[1] can
    # be rewritten for the next path
    key = np.array([seed, 0], dtype=np.uint64)
    fresh = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    z = np.empty((P, K), dtype=float)
    for i in range(P):
        key[1] = i
        bitgen.state = fresh
        gen.standard_normal(out=z[i])

    # in place: a temporary (P, K) array here measurably raises peak memory
    with np.errstate(over="ignore", invalid="ignore"):
        factors = lam ** (bands * hp)
        z *= inc_std
        np.cumsum(z, axis=1, out=z)
        z *= factors
    if not np.isfinite(z).all():
        raise RangeOverflow(
            f"paths over kappa in [{kappa_min}, {kappa_max}] with H = {scheme.H} "
            "leave double precision range"
        )

    return PathEnsemble(
        scheme=scheme,
        kappa_min=kappa_min,
        kappa_max=kappa_max,
        times=times,
        paths=z,
        seed=seed,
    )


def _column(ensemble: PathEnsemble, kappa: int) -> np.ndarray:
    if not (ensemble.kappa_min <= kappa <= ensemble.kappa_max):
        raise RangeTooSmall(
            f"ensemble covers kappa in [{ensemble.kappa_min}, {ensemble.kappa_max}], "
            f"estimator needs kappa = {kappa}"
        )
    return ensemble.paths[:, kappa - ensemble.kappa_min]


def _mean_with_error(products: np.ndarray) -> EstimateWithError:
    P = products.shape[0]
    return EstimateWithError(
        value=float(products.mean()),
        std_error=float(products.std(ddof=1) / math.sqrt(P)),
        n_samples=P,
    )


def estimate_R(
    ensemble: PathEnsemble,
) -> tuple[list[EstimateWithError], list[EstimateWithError]]:
    """Moment estimates of the flattened summary (R0, R1) from an ensemble.

    Returns per-offset lists (R0_hat, R1_hat) where R0_hat[j] estimates
    E[W(j)**2] and R1_hat[j] estimates E[W(j+1) W(j)].  Requires flat
    indices 0..q in the ensemble and at least two paths (the standard
    error uses the ddof=1 sample deviation of the per-path products).
    """
    if ensemble.paths.shape[0] < 2:
        raise RangeTooSmall("standard errors need at least two paths")
    q = ensemble.scheme.q
    r0 = [_mean_with_error(_column(ensemble, j) ** 2) for j in range(q)]
    r1 = [
        _mean_with_error(_column(ensemble, j + 1) * _column(ensemble, j))
        for j in range(q)
    ]
    return r0, r1


def estimate_Q(ensemble: PathEnsemble, tau_max: int) -> list[MatrixEstimate]:
    """Moment estimates of the blocked lag matrices Q(0, tau), tau = 0..tau_max.

    Entry (u, v) of lag tau averages W(tau*q + u) * W(v) over paths.
    Requires flat indices 0..(tau_max + 1)*q - 1 in the ensemble.
    """
    if tau_max < 0:
        raise BadIndex(f"tau_max must be >= 0, got {tau_max}")
    if ensemble.paths.shape[0] < 2:
        raise RangeTooSmall("standard errors need at least two paths")
    q = ensemble.scheme.q
    out = []
    for tau in range(tau_max + 1):
        value = np.empty((q, q))
        err = np.empty((q, q))
        for u in range(q):
            for v in range(q):
                prod = _column(ensemble, tau * q + u) * _column(ensemble, v)
                est = _mean_with_error(prod)
                value[u, v] = est.value
                err[u, v] = est.std_error
        out.append(
            MatrixEstimate(
                tau=tau, value=value, std_error=err, n_samples=ensemble.paths.shape[0]
            )
        )
    return out

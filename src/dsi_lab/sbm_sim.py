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

Simulation is reproducible by construction.  Paths are drawn in fixed
blocks of 4096: block b of a run with seed s holds paths 4096*b onwards
and draws from the counter-based Philox stream keyed by the pair (s, b),
filling its rows of K values in row-major order.  Philox output is a pure
function of key and counter, so path i is the K normals at positions
(i mod 4096)*K onwards of stream (s, i // 4096): it depends on s, i and K
alone, and adding paths to a run never changes the earlier ones.

An ensemble carries the :class:`~dsi_lab.core.SampleGrid` of its columns.
The moment estimator :func:`estimate_R` returns one (q,) record of arrays,
:class:`EstimateWithError`, per lag 0 and 1: every entry is the mean of
the per-path products with its standard error.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import SampleGrid, SamplingScheme, band_factor, in_range, index_arrays, read_numbers
from .core import sample_points, sample_time
from .errors import BadIndex, NegativeKappa, RangeTooSmall

_SEED_BOUND = 2 ** 64
# paths per random stream; part of the stream contract, so changing it
# changes every path beyond the first block
_BLOCK_PATHS = 4096


class EstimateWithError(NamedTuple):
    """Monte Carlo estimates with their standard errors, same-shape arrays."""

    value: np.ndarray
    std_error: np.ndarray


class PathEnsemble(NamedTuple):
    """Simulated sample paths of the reference process on the flat grid.

    paths[i, k] is path i observed at the sample grid.kappa[k], at the
    physical time grid.times[k].
    """

    scheme: SamplingScheme
    grid: SampleGrid
    paths: np.ndarray


def sbm_covariance_exact(scheme: SamplingScheme, kappa1, kappa2) -> np.ndarray:
    """Exact covariance E[X(t_kappa1) X(t_kappa2)] of the reference process.

    Closed form lambda**((b1 + b2) * H') * min(t1, t2) with band indices
    b_i = floor(kappa_i / q) + 1.  ``kappa1`` and ``kappa2`` are integers or
    integer arrays that broadcast together; the result has their shape, a
    ``numpy.float64`` for integers.  Both indices must be >= 0, otherwise
    NegativeKappa is raised.  RangeOverflow is raised when a sample time, a
    band power or a result leaves double range.
    """
    what, (kappa1, kappa2) = index_arrays(
        "sbm_covariance_exact", scheme.T, kappa1=kappa1, kappa2=kappa2
    )
    if (kappa1 < 0).any() or (kappa2 < 0).any():
        raise NegativeKappa(f"{what}: indices must be >= 0")
    t_min = np.minimum(sample_time(scheme, kappa1), sample_time(scheme, kappa2))
    bands = kappa1 // scheme.q + kappa2 // scheme.q + 2
    return in_range(what, lambda: band_factor(scheme, bands) * t_min)


def _seed_value(seed) -> int:
    # integral values only: 1.5 must not truncate to 1, and True is no seed
    value = read_numbers("seed", seed, BadIndex)
    if isinstance(seed, (bool, np.bool_)) or value.ndim or not (
        np.isfinite(value) and value == np.floor(value) and 0 <= int(seed) < _SEED_BOUND
    ):
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
        Inclusive flat index range of integral values, the lower end >= 0.
    P : int
        Number of paths, an integral value >= 1.
    seed : int
        64-bit ensemble seed, an integral value in [0, 2**64).  Paths
        come in blocks of 4096; block b draws from one Philox stream,
        ``Philox(key=seed | b << 64)``, with a single ``standard_normal``
        call that fills its rows in row-major order.  Path i therefore
        takes the K normals at positions (i mod 4096)*K onwards of stream
        (seed, i // 4096), so its draws depend on K, and adding paths
        never changes earlier ones.  The underlying Brownian motion
        uses the increment representation
        B(t_k) = B(t_{k-1}) + sqrt(t_k - t_{k-1}) * z_k, B(t_0) = sqrt(t_0) * z_0.

    Raises
    ------
    RangeOverflow
        If a band factor or path value leaves double range.
    """
    # read before the sign test: a very negative start is no RangeOverflow
    bounds = read_numbers("kappa_range", kappa_range, BadIndex)
    _, (P,) = index_arrays("simulate_paths", 1, P=P)
    if bounds.shape != (2,) or P.ndim:
        raise BadIndex(f"need a kappa_range pair and one P, got shapes {bounds.shape}, {P.shape}")
    kappa_min, kappa_max = kappa_range
    if kappa_min < 0:
        raise NegativeKappa(f"kappa range must start at >= 0, got {kappa_min}")
    if P < 1:
        raise RangeTooSmall(f"need at least one path, got P = {P}")
    P, seed = P.item(), _seed_value(seed)

    grid = sample_points(scheme, kappa_min, kappa_max)
    K = grid.times.size
    # Brownian increment scales, first one from the origin
    inc_std = np.sqrt(np.diff(grid.times, prepend=0.0))

    z = np.empty((P, K), dtype=float)
    # one stream per block of paths, keyed by (seed, block); each block's
    # rows are filled in row-major order by a single draw
    for b, lo in enumerate(range(0, P, _BLOCK_PATHS)):
        gen = np.random.Generator(np.random.Philox(key=seed | b << 64))
        gen.standard_normal(out=z[lo:lo + _BLOCK_PATHS])

    def synthesize():
        # in place: a temporary (P, K) array here measurably raises peak memory
        np.multiply(z, inc_std, out=z)
        np.cumsum(z, axis=1, out=z)
        # band b = n + 1, as in the covariance exponent above
        return np.multiply(z, band_factor(scheme, grid.n + 1), out=z)

    in_range(
        f"paths over kappa in [{kappa_min}, {kappa_max}] with H = {scheme.H}", synthesize
    )

    return PathEnsemble(scheme, grid, z)


def _product_moments(ensemble: PathEnsemble, k1, k2) -> EstimateWithError:
    # means of W(k1) W(k2) over paths, with their standard errors, for index
    # arrays k1 and k2 that broadcast together; one row of products is alive
    # at a time.  RangeOverflow where a product, a mean or a spread leaves
    # double range
    paths = ensemble.paths
    P = paths.shape[0]
    if P < 2:
        raise RangeTooSmall("standard errors need at least two paths")
    lo, hi = ensemble.grid.kappa[[0, -1]].tolist()
    what, (k1, k2) = index_arrays("moments", ensemble.scheme.T, k1=k1, k2=k2)
    first, last = min(k1.min(), k2.min()), max(k1.max(), k2.max())
    if first < lo or last > hi:
        raise RangeTooSmall(
            f"ensemble covers kappa in [{lo}, {hi}], estimator needs kappa in "
            f"[{first}, {last}]"
        )
    value, std_error = np.empty(k1.shape), np.empty(k1.shape)

    def moments():
        pairs = zip((k1 - lo).ravel().tolist(), (k2 - lo).ravel().tolist())
        for i, (c1, c2) in enumerate(pairs):
            products = paths[:, c1] * paths[:, c2]
            value.flat[i] = products.mean()
            std_error.flat[i] = products.std(ddof=1) / math.sqrt(P)
        return value, std_error

    return EstimateWithError(*in_range(f"{what} over {P} paths", moments))


def estimate_R(ensemble: PathEnsemble) -> tuple[EstimateWithError, EstimateWithError]:
    """Moment estimates of the flattened summary (R0, R1) from an ensemble.

    Returns (R0_hat, R1_hat), each holding (q,) arrays: R0_hat.value[j]
    estimates E[W(j)**2] and R1_hat.value[j] estimates E[W(j+1) W(j)].
    Requires flat indices 0..q in the ensemble and at least two paths (the
    standard error uses the ddof=1 sample deviation of the per-path
    products); RangeTooSmall is raised otherwise.  RangeOverflow is raised
    when a product, its mean or its deviation leaves double range.
    """
    j = np.arange(ensemble.scheme.q)
    return _product_moments(ensemble, j, j), _product_moments(ensemble, j + 1, j)

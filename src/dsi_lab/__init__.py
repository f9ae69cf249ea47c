"""Covariance and spectral toolkit for discretely scale-invariant processes
sampled on geometric grids.

The package is organized around one sampling geometry object
(:class:`~dsi_lab.core.SamplingScheme`) and three exact, mutually
validating views of the same second-order structure:

- factorized wide-sense Markov covariances (:mod:`dsi_lab.markov_cov`),
- closed-form and series spectral density matrices (:mod:`dsi_lab.spectral`),
- a banded Brownian reference process with known covariance and a
  reproducible Monte Carlo simulator (:mod:`dsi_lab.sbm_sim`),

plus the quasi-Lamperti change of frame (:mod:`dsi_lab.lamperti`) and a
command line front end (``dsi-lab``).

The public names below are imported on first use, so ``import dsi_lab``
loads neither the submodules nor numpy.
"""

import importlib
import os

__version__ = "0.1.0"

# module: the public names it defines
_PUBLIC = {
    "core": (
        "SampleGrid", "SamplingScheme", "sample_points", "sample_time",
        "split_index", "validate_scheme",
    ),
    "errors": (
        "BadBase", "BadIndex", "BadInterval", "ConfigError", "DsiLabError",
        "GridTooCoarse", "InvalidModel", "ModelUnstable", "NegativeKappa",
        "NonIncreasingOffsets", "NonPositivePoint", "OffsetOutOfRange",
        "RangeOverflow", "RangeTooSmall", "ToleranceUnreachable",
    ),
    "lamperti": (
        "SelfSimilarGrid", "StationaryGrid", "inverse_quasi_lamperti",
        "quasi_lamperti",
    ),
    "markov_cov": (
        "MarkovCovarianceModel", "covariance_V", "covariance_W", "model_from_sbm",
    ),
    "sbm_sim": (
        "EstimateWithError", "PathEnsemble", "estimate_R",
        "sbm_covariance_exact", "simulate_paths",
    ),
    "spectral": (
        "CovarianceRecovery", "SeriesMeta", "SpectralEvaluation",
        "invert_spectrum", "markov_covfn", "spectral_markov", "spectral_sbm",
        "spectral_series",
    ),
}
_OWNER = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    # PEP 562: import the owning module on first use, then cache the name
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def main() -> int:
    """The ``dsi-lab`` console script: ``cli.main`` with one OpenBLAS thread
    unless ``OPENBLAS_NUM_THREADS`` is set (see "Fork safety" in ``cli``).
    With a larger count, the idle workers sleep as in every process whose
    numpy ``cli`` loads (see "Idle BLAS workers" there)."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from . import cli

    return cli.main()

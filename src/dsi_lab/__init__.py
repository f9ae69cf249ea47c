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
"""

from .core import (
    SampleGrid,
    SamplingScheme,
    embed_index,
    sample_points,
    sample_time,
    split_index,
    validate_scheme,
)
from .errors import (
    BadBase,
    BadIndex,
    BadInterval,
    ConfigError,
    DsiLabError,
    GridTooCoarse,
    InvalidModel,
    ModelUnstable,
    NegativeKappa,
    NonIncreasingOffsets,
    NonPositivePoint,
    OffsetOutOfRange,
    RangeOverflow,
    RangeTooSmall,
    ToleranceUnreachable,
)
from .lamperti import (
    SelfSimilarGrid,
    StationaryGrid,
    embedded_to_stationary,
    inverse_quasi_lamperti,
    quasi_lamperti,
)
from .markov_cov import (
    MarkovCovarianceModel,
    covariance_V,
    covariance_W,
    doob_factorization,
    f_tilde,
    model_from_sbm,
)
from .sbm_sim import (
    EstimateWithError,
    PathEnsemble,
    estimate_Q,
    estimate_R,
    sbm_covariance_exact,
    simulate_paths,
)
from .spectral import (
    CovarianceRecovery,
    SeriesMeta,
    SpectralEvaluation,
    invert_spectrum,
    markov_covfn,
    spectral_distribution_interval,
    spectral_markov,
    spectral_sbm,
    spectral_series,
)

__version__ = "0.1.0"

__all__ = [
    "BadBase",
    "BadIndex",
    "BadInterval",
    "ConfigError",
    "CovarianceRecovery",
    "DsiLabError",
    "EstimateWithError",
    "GridTooCoarse",
    "InvalidModel",
    "MarkovCovarianceModel",
    "ModelUnstable",
    "NegativeKappa",
    "NonIncreasingOffsets",
    "NonPositivePoint",
    "OffsetOutOfRange",
    "PathEnsemble",
    "RangeOverflow",
    "RangeTooSmall",
    "SampleGrid",
    "SamplingScheme",
    "SelfSimilarGrid",
    "SeriesMeta",
    "SpectralEvaluation",
    "StationaryGrid",
    "ToleranceUnreachable",
    "covariance_V",
    "covariance_W",
    "doob_factorization",
    "embed_index",
    "embedded_to_stationary",
    "estimate_Q",
    "estimate_R",
    "f_tilde",
    "invert_spectrum",
    "inverse_quasi_lamperti",
    "markov_covfn",
    "model_from_sbm",
    "quasi_lamperti",
    "sample_points",
    "sample_time",
    "sbm_covariance_exact",
    "simulate_paths",
    "spectral_distribution_interval",
    "spectral_markov",
    "spectral_sbm",
    "spectral_series",
    "split_index",
    "validate_scheme",
]

"""The contract of the public surface, driven by ``dsi_lab.__all__``: give
one numeric argument of a public callable a hostile value, keep the others
valid, and the call returns finite values or raises a DsiLabError."""

import dataclasses
import math

import numpy as np
import pytest

import dsi_lab
from dsi_lab import DsiLabError, RangeOverflow

# a string, None, a ragged list, NaN, inf, a complex number, a complex array,
# an integer past int64 that a double holds exactly, an integer past double
# range, an empty list and a bool
HOSTILE = {
    "str": "x",
    "None": None,
    "ragged": [[1.0], [1.0, 2.0]],
    "nan": math.nan,
    "inf": math.inf,
    "complex": 3 + 2j,
    "complex_array": np.array([3 + 2j]),
    "huge": 2 ** 80,
    "past_double": 10 ** 400,
    "empty": [],
    "bool": True,
}

# Arguments that take one of the package's own records are left out: a
# scheme, a model, a density evaluation, a grid (y, x), an ensemble, a
# covariance callable or a series record (meta).  Each record is built by a
# public constructor, whose numeric arguments are covered here.
RECORDS = {"scheme", "model", "evaluation", "y", "x", "ensemble", "covfn", "meta"}

SCHEME = dsi_lab.SamplingScheme(H=1.0, alpha=2.0, T=1, s=(1.0, 1.5))
MODEL = dsi_lab.model_from_sbm(SCHEME)
GRID = np.arange(8) * (2.0 * math.pi / 8)

# one valid call of each public callable, by keyword; every parameter that is
# not a record is listed, so that each one is given the hostile values
VALID = {
    "SamplingScheme": dict(H=1.0, alpha=2.0, T=1, s=(1.0, 1.5)),
    "sample_points": dict(scheme=SCHEME, kappa_min=0, kappa_max=3),
    "sample_time": dict(scheme=SCHEME, kappa=3),
    "split_index": dict(kappa=5, q=2),
    "StationaryGrid": dict(times=[0.0, 1.0], values=[1.0, -1.0]),
    "SelfSimilarGrid": dict(points=[1.0, 2.0], values=[1.0, -1.0]),
    "quasi_lamperti": dict(y=dsi_lab.StationaryGrid([0.0, 1.0], [1.0, -1.0]), H=1.0, alpha=2.0),
    "inverse_quasi_lamperti": dict(
        x=dsi_lab.SelfSimilarGrid([1.0, 2.0], [1.0, -1.0]), H=1.0, alpha=2.0
    ),
    "MarkovCovarianceModel": dict(scheme=SCHEME, R0=MODEL.R0.tolist(), R1=MODEL.R1.tolist()),
    "covariance_V": dict(model=MODEL, n=1, tau=2),
    "covariance_W": dict(model=MODEL, kappa=2, tau=1),
    "model_from_sbm": dict(scheme=SCHEME),
    "sbm_covariance_exact": dict(scheme=SCHEME, kappa1=1, kappa2=2),
    "simulate_paths": dict(scheme=SCHEME, kappa_range=(0, 3), P=4, seed=0),
    "estimate_R": dict(ensemble=dsi_lab.simulate_paths(SCHEME, (0, 3), 4, 0)),
    "SpectralEvaluation": dict(
        omegas=GRID, matrices=dsi_lab.spectral_markov(MODEL, GRID).matrices
    ),
    "invert_spectrum": dict(
        evaluation=dsi_lab.spectral_markov(MODEL, GRID), scheme=SCHEME, taus=[0, 1]
    ),
    "markov_covfn": dict(model=MODEL),
    "spectral_markov": dict(model=MODEL, omegas=[0.0, 1.0]),
    "spectral_sbm": dict(scheme=SCHEME, omegas=[0.0, 1.0]),
    "spectral_series": dict(
        covfn=dsi_lab.markov_covfn(MODEL), scheme=SCHEME, omegas=[0.0, 1.0], tol=1e-8,
        tail_ratio=MODEL.stability_ratio,
    ),
}


def _public_callables() -> dict:
    # error classes are raised, not called, and the NamedTuple records
    # (SampleGrid, PathEnsemble, ...) store what they are given without
    # reading it; a name bound to an object already listed
    # (validate_scheme is SamplingScheme) is called once
    found = {}
    for name in dsi_lab.__all__:
        obj = getattr(dsi_lab, name)
        if isinstance(obj, type) and issubclass(obj, (BaseException, tuple)):
            continue
        if all(obj is not other for other in found.values()):
            found[name] = obj
    return found


CASES = [
    pytest.param(name, arg, hostile, id=f"{name}-{arg}-{hostile}")
    for name, kwargs in VALID.items()
    for arg in kwargs
    if arg not in RECORDS
    for hostile in HOSTILE
]


def _all_finite(value) -> bool:
    if dataclasses.is_dataclass(value):
        return all(_all_finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, tuple):
        return all(map(_all_finite, value))
    return value is None or callable(value) or bool(np.isfinite(value).all())


def test_every_public_callable_has_a_valid_call():
    callables = _public_callables()
    assert set(VALID) == set(callables)
    for name, kwargs in VALID.items():
        assert _all_finite(callables[name](**kwargs)), name


@pytest.mark.parametrize("name, arg, hostile", CASES)
def test_hostile_numeric_argument(name, arg, hostile):
    kwargs = dict(VALID[name], **{arg: HOSTILE[hostile]})
    try:
        result = getattr(dsi_lab, name)(**kwargs)
    except DsiLabError:
        return
    assert _all_finite(result)


@pytest.mark.parametrize(
    "call",
    [
        lambda: dsi_lab.MarkovCovarianceModel(SCHEME, R0=(10 ** 400, 1.0), R1=(0.5, 0.5)),
        lambda: dsi_lab.covariance_W(MODEL, 10 ** 400, 0),
        lambda: dsi_lab.SamplingScheme(H=10 ** 400, alpha=2.0, T=1, s=(1.0,)),
    ],
    ids=["model_R0", "covariance_W_kappa", "scheme_H"],
)
def test_integer_past_double_range_is_range_overflow(call):
    # README: an integer too large for a double raises RangeOverflow, not
    # merely some DsiLabError
    with pytest.raises(RangeOverflow):
        call()

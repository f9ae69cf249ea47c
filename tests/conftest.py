"""Shared fixtures: canonical schemes, random stable model generation and
wide-range hypothesis strategies."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st

import dsi_lab
from dsi_lab import DsiLabError, MarkovCovarianceModel, SamplingScheme, validate_scheme


@pytest.fixture
def canonical_scheme() -> SamplingScheme:
    """Two offsets per doubling cycle; the worked reference configuration."""
    return validate_scheme(H=1.0, alpha=2.0, T=1, s=(1.0, 1.5))


def make_scheme(H: float = 1.0, alpha: float = 2.0, T: int = 1, s=(1.0, 1.5)):
    return validate_scheme(H=H, alpha=alpha, T=T, s=s)


def random_scheme(rng: np.random.Generator, q: int) -> SamplingScheme:
    """Random valid geometry with comfortably separated offsets."""
    alpha = float(rng.uniform(1.3, 3.0))
    T = int(rng.integers(1, 3))
    H = float(rng.uniform(0.3, 1.5))
    L = alpha ** T
    gaps = rng.uniform(0.4, 1.0, size=q)
    pos = np.concatenate([[0.0], np.cumsum(gaps)[:-1]])
    frac = pos / (pos[-1] + gaps[-1])  # in [0, 1) with strict gaps
    s = 1.0 + frac * (L - 1.0) * 0.98
    return validate_scheme(H=H, alpha=alpha, T=T, s=s)


def random_stable_model(
    rng: np.random.Generator, q: int | None = None
) -> MarkovCovarianceModel:
    """Random admissible, strictly stable covariance summary.

    One-step products are parameterized by correlations rho in (-1, 1),
    which makes Cauchy-Schwarz automatic and gives
    |ftilde(q-1)| = prod|rho| * alpha**(T*H) strictly inside the
    stability bound.
    """
    if q is None:
        q = int(rng.integers(1, 6))
    scheme = random_scheme(rng, q)
    R0 = rng.uniform(0.5, 3.0, size=q)
    rho = rng.uniform(0.15, 0.9, size=q) * rng.choice([-1.0, 1.0], size=q)
    scale_var = scheme.alpha ** (2 * scheme.T * scheme.H)
    next_var = np.concatenate([R0[1:], [scale_var * R0[0]]])
    R1 = rho * np.sqrt(R0 * next_var)
    return MarkovCovarianceModel(scheme=scheme, R0=R0, R1=R1)


@pytest.fixture
def stable_model_factory():
    return random_stable_model


@st.composite
def wide_schemes(draw) -> SamplingScheme:
    """Valid schemes over wide ranges: H up to 5, alpha up to 1e300, T up to
    3000 with alpha**T in double range, and one to four offsets spread
    log-uniformly over the cycle."""
    H = draw(st.floats(min_value=0.01, max_value=5.0))
    T = draw(st.integers(min_value=1, max_value=3000))
    alpha = draw(
        st.floats(min_value=1.0, max_value=min(1e300, math.exp(709.0 / T)), exclude_min=True)
    )
    fracs = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
            max_size=3,
            unique=True,
        )
    )
    log_scale = T * math.log(alpha)
    s = [1.0] + sorted(math.exp(f * log_scale) for f in fracs)
    try:
        return validate_scheme(H=H, alpha=alpha, T=T, s=s)
    except DsiLabError:
        # offsets that collide or round onto alpha**T
        assume(False)


_near_one = st.tuples(
    st.sampled_from([-1.0, 1.0]), st.integers(min_value=1, max_value=15)
).map(lambda p: p[0] * (1.0 - 10.0 ** -p[1]))


@st.composite
def wide_models(draw) -> tuple[SamplingScheme, list[float], list[float]]:
    """Raw (scheme, R0, R1) summaries over wide ranges, for the model
    constructor to accept or reject.

    Variances span 1e-300..1e300.  One-step products sit at correlations
    in [-1, 1], all near +-1 (the stability boundary) in a share of the
    draws.  A product whose Cauchy-Schwarz bound is past double range is
    clamped to a large finite value, which that bound admits.
    """
    scheme = draw(wide_schemes())
    q = scheme.q
    log_r0 = [x * math.log(10.0) for x in draw(
        st.lists(st.floats(min_value=-300.0, max_value=300.0), min_size=q, max_size=q)
    )]
    rho = st.one_of(st.floats(min_value=-1.0, max_value=1.0), _near_one)
    if draw(st.booleans()):
        rho = _near_one
    rhos = draw(st.lists(rho, min_size=q, max_size=q))
    log_growth = scheme.T * scheme.H * math.log(scheme.alpha)
    log_next = log_r0[1:] + [2.0 * log_growth + log_r0[0]]
    R0 = [math.exp(x) for x in log_r0]
    R1 = [
        r * math.exp(min(0.5 * (a + b), 709.0))
        for r, a, b in zip(rhos, log_r0, log_next)
    ]
    return scheme, R0, R1


def wide_indices(min_value: int = -5000) -> st.SearchStrategy:
    """A sample index or a 1-D array of them, for the closed forms to accept
    or reject.

    Entries are integers in [min_value, 5000], integers up to +-2**70 (an
    array holding one past int64 is an object array), or floats: integral,
    fractional, infinite or NaN.
    """
    entries = st.one_of(
        st.integers(min_value=min_value, max_value=5000),
        st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
        st.floats(),
    )
    return st.one_of(entries, st.lists(entries, min_size=1, max_size=5).map(np.array))


def python_env(**env: str | None) -> dict[str, str]:
    """This environment for a fresh interpreter that imports this dsi_lab,
    with each ``env`` entry set, or removed where it is None."""
    child_env = dict(os.environ)
    src = str(Path(dsi_lab.__file__).resolve().parents[1])
    child_env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, child_env.get("PYTHONPATH")]))
    for key, value in env.items():
        if value is None:
            child_env.pop(key, None)
        else:
            child_env[key] = value
    return child_env


def run_python(code: str, *args: str, **env: str | None) -> str:
    """Run ``code`` with ``args`` in a fresh interpreter that imports this
    dsi_lab, its environment set by ``python_env(**env)``; return its
    stdout."""
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=python_env(**env), capture_output=True,
        text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout

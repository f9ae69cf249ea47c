"""The array closed forms against the scalar arithmetic they replaced.

``sample_time``, ``covariance_W`` and ``sbm_covariance_exact`` take integer
arrays and form their powers once per distinct exponent.  The reference
functions below are the scalar forms as they stood before that, one Python
float expression per index pair.  Every entry of an array call must equal
the reference under ``==``, and where a reference entry raises, the array
call must raise that class; the CSV bytes depend on both.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dsi_lab import (
    DsiLabError,
    NegativeKappa,
    RangeOverflow,
    covariance_W,
    model_from_sbm,
    sample_time,
    sbm_covariance_exact,
)
from dsi_lab.core import TINY
from conftest import random_stable_model, wide_schemes


def ref_in_range(form):
    try:
        value = form()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(value):
        raise RangeOverflow("reference value is outside double precision range")
    return value


def ref_sample_time(scheme, kappa):
    n, u = divmod(kappa, scheme.q)
    t = ref_in_range(lambda: scheme.alpha ** (n * scheme.T) * scheme.s[u])
    if not t > TINY:
        raise RangeOverflow("reference sample time flushes towards zero")
    return t


def ref_prefix(model):
    # ftilde(v-1) for v = 0..q as Python floats, as the model forms them
    return np.concatenate([[1.0], np.cumprod(model.R1 / model.R0)]).tolist()


def ref_f_tilde_ratio(model, a, b):
    q = model.scheme.q
    ma, va = divmod(a + 1, q)
    mb, vb = divmod(b + 1, q)
    prefix = ref_prefix(model)
    return prefix[q] ** (ma - mb) * (prefix[va] / prefix[vb])


def ref_covariance_W(model, kappa, tau):
    if kappa < 0 or kappa + tau < 0:
        raise NegativeKappa("reference indices must be >= 0")
    if tau < 0:
        kappa, tau = kappa + tau, -tau
    scheme = model.scheme
    t, s = divmod(tau, scheme.q)
    n, u = divmod(kappa, scheme.q)
    ladder = 2 * n * scheme.T * scheme.H
    return ref_in_range(
        lambda: model.ftilde_q ** t
        * ref_f_tilde_ratio(model, kappa + s - 1, kappa - 1)
        * (scheme.alpha ** ladder * float(model.R0[u]))
    )


def ref_sbm_covariance_exact(scheme, kappa1, kappa2):
    if kappa1 < 0 or kappa2 < 0:
        raise NegativeKappa("reference indices must be >= 0")
    lam = scheme.scale
    hp = scheme.H - 0.5
    t_min = min(ref_sample_time(scheme, kappa1), ref_sample_time(scheme, kappa2))
    bands = kappa1 // scheme.q + kappa2 // scheme.q + 2
    return ref_in_range(lambda: lam ** (bands * hp) * t_min)


def outcome(form, *args):
    try:
        return form(*args)
    except DsiLabError as exc:
        return type(exc)


def assert_matches_reference(form, reference, first, *indices):
    """``form(first, *indices)`` over broadcast index arrays equals the
    reference entry by entry, one call at a time and as one array call."""
    grids = np.broadcast_arrays(*indices)
    entries = list(zip(*(grid.ravel().tolist() for grid in grids)))
    want = [outcome(reference, first, *entry) for entry in entries]
    assert [outcome(form, first, *entry) for entry in entries] == want
    got = outcome(form, first, *indices)
    failures = {w for w in want if isinstance(w, type)}
    if failures:
        assert isinstance(got, type) and got in failures
    else:
        assert got.shape == grids[0].shape
        assert got.ravel().tolist() == want


KAPPA = np.arange(0, 16)[:, None]
TAU = np.arange(-20, 21)


def test_random_models_for_every_q():
    rng = np.random.default_rng(2024)
    for q in range(1, 6):
        for _ in range(2):
            model = random_stable_model(rng, q)
            scheme = model.scheme
            assert_matches_reference(covariance_W, ref_covariance_W, model, KAPPA, TAU)
            assert_matches_reference(sample_time, ref_sample_time, scheme, np.arange(-40, 41))
            assert_matches_reference(
                sbm_covariance_exact, ref_sbm_covariance_exact,
                scheme, np.arange(-2, 20)[:, None], np.arange(20),
            )


@settings(max_examples=60, deadline=None)
@given(
    scheme=wide_schemes(),
    kappa=st.integers(min_value=-5000, max_value=5000),
    tau=st.integers(min_value=-5000, max_value=5000),
)
def test_wide_schemes(scheme, kappa, tau):
    # small grids around a drawn corner, across the edges of double range
    kappas = abs(kappa) + np.arange(6)[:, None]
    lags = tau + np.arange(-3, 4)
    assert_matches_reference(sample_time, ref_sample_time, scheme, kappa + lags)
    assert_matches_reference(
        sbm_covariance_exact, ref_sbm_covariance_exact, scheme, kappas, kappas + lags
    )
    try:
        model = model_from_sbm(scheme)
    except DsiLabError:
        return
    assert_matches_reference(covariance_W, ref_covariance_W, model, kappas, lags)

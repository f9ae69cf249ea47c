"""Factorized covariance engine against the exact reference process."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsi_lab import (
    BadIndex,
    DsiLabError,
    InvalidModel,
    MarkovCovarianceModel,
    ModelUnstable,
    NegativeKappa,
    RangeOverflow,
    covariance_V,
    covariance_W,
    model_from_sbm,
    sbm_covariance_exact,
    validate_scheme,
)
from conftest import make_scheme, random_stable_model, wide_indices, wide_models, wide_schemes

SQRT2 = math.sqrt(2.0)


@pytest.fixture
def canonical_model(canonical_scheme):
    return model_from_sbm(canonical_scheme)


def build(drawn) -> MarkovCovarianceModel:
    scheme, R0, R1 = drawn
    return MarkovCovarianceModel(scheme=scheme, R0=R0, R1=R1)


class TestModelConstruction:
    def test_reference_model_cycle_product(self):
        for H in (0.5, 0.75, 1.0, 1.25):
            sch = make_scheme(H=H)
            model = model_from_sbm(sch)
            want = sch.scale ** (H - 0.5)
            assert model.ftilde_q == pytest.approx(want, rel=1e-14)
            # every ratio inside the cycle is 1: only the wrap carries growth
            assert (model.R1[:-1] / model.R0[:-1] == 1.0).all()

    def test_reference_summary_values(self, canonical_model):
        assert canonical_model.R0 == pytest.approx([2.0, 3.0])
        assert canonical_model.R1 == pytest.approx([2.0, 3.0 * SQRT2])

    def test_reference_summary_overflow(self):
        # R1[q-1] = lambda**(3/2) * s[-1] = 2**1050 * 1.5 leaves double range
        with pytest.raises(RangeOverflow):
            model_from_sbm(make_scheme(T=700))
        # R0[q-1] * Var(W(q)) = 1.5 * 2**2400: the admissibility bound is
        # past double range, which the finite R1 meets
        assert np.isfinite(model_from_sbm(make_scheme(T=600)).R1).all()
        # alpha**(T*H) = 2**1100 is no double
        with pytest.raises(RangeOverflow):
            MarkovCovarianceModel(
                scheme=make_scheme(H=5.5, T=200), R0=[1.0, 1.0], R1=[0.5, 0.5]
            )

    def test_reference_summary_underflow(self):
        # lambda = alpha**217 and H' = -0.49: R0 = lambda**(2 H') is about
        # 2.5e-230, but the wrap product lambda**(3 H') is about 4e-345 and
        # flushes to 0.0, which the model would call a zero product
        scheme = validate_scheme(H=0.01, alpha=12.013320440969263, T=217, s=(1.0,))
        with pytest.raises(RangeOverflow, match=r"^model_from_sbm R1\[0\] flushes towards zero$"):
            model_from_sbm(scheme)

    @pytest.mark.parametrize("s0, flushed", [(4.5, False), (4.0, True), (2.0, True)])
    def test_reference_summary_underflow_boundary(self, s0, flushed):
        # lambda = 2**912 and H' = -3/8: the wrap product lambda**(3 H') * s0
        # is s0 * 2**-1026, an exact subnormal, against 1 / DBL_MAX = 2**-1024
        scheme = validate_scheme(H=0.125, alpha=2.0, T=912, s=(s0,))
        if flushed:
            message = r"^model_from_sbm R1\[0\] flushes towards zero$"
            with pytest.raises(RangeOverflow, match=message):
                model_from_sbm(scheme)
        else:
            assert model_from_sbm(scheme).R1[0] == s0 * 2.0 ** -1026

    def test_rank_one_factor_past_double_range(self):
        # ftilde(1) = 1e-400 underflows to 0, so the factor entry
        # A[0, 2] = ftilde(-1) / ftilde(1) * R0[2] = 1e400 is no double
        sch = make_scheme(alpha=3.0, s=(1.0, 1.7, 2.2))
        with pytest.raises(RangeOverflow):
            MarkovCovarianceModel(scheme=sch, R0=[1.0] * 3, R1=[1e-200] * 3)
        # ftilde(1) = 1e-300: A[0, 2] = 1e300 still is
        model = MarkovCovarianceModel(scheme=sch, R0=[1.0] * 3, R1=[1e-150] * 3)
        for tau in (0, 1):
            assert np.isfinite(covariance_V(model, 0, tau)).all()

    def test_reference_model_admitted_at_the_offset_edge(self):
        # the wrap correlation of model_from_sbm is sqrt(s[q-1] / (lam s[0])),
        # within ulps of 1 when s[0] is 1 and s[q-1] sits just below lam =
        # alpha**T; admission may refuse such a model only for a band factor
        # outside double range, never as inadmissible
        rng = np.random.default_rng(1138)
        for _ in range(2000):
            alpha = rng.choice([2.0, 1.5, 10.0, 1.01, math.e, rng.uniform(1.001, 50.0)])
            T = int(rng.choice([1, 2, 3, 7]))
            q = int(rng.choice([1, 2, 3, 5]))
            H = rng.uniform(0.05, 2.5)
            lam = alpha ** T
            last = lam
            for _ in range(int(rng.integers(1, 5))):
                last = math.nextafter(last, 0.0)
            first = rng.choice([1.0, math.nextafter(1.0, 2.0)])
            inner = np.sort(rng.uniform(first, last, max(q - 2, 0))).tolist()
            s = (last,) if q == 1 else (first, *inner, last)
            scheme = validate_scheme(H=H, alpha=alpha, T=T, s=s)
            try:
                model_from_sbm(scheme)
            except RangeOverflow as exc:
                assert str(exc).startswith("model_from_sbm"), exc

    @settings(max_examples=100, deadline=None)
    @given(drawn=wide_models())
    def test_construction_finite_or_error(self, drawn):
        try:
            model = build(drawn)
        except DsiLabError:
            return
        assert 0.0 <= model.stability_ratio < 1.0
        assert np.isfinite(model._rank_one).all()

    @settings(max_examples=100, deadline=None)
    @given(scheme=wide_schemes())
    def test_reference_summary_finite_or_error(self, scheme):
        try:
            model = model_from_sbm(scheme)
        except DsiLabError:
            return
        assert np.isfinite(model.R0).all() and np.isfinite(model.R1).all()
        assert model.stability_ratio < 1.0

    def test_reference_summary_h_half(self):
        model = model_from_sbm(make_scheme(H=0.5))
        # H' = 0: no band growth, covariances reduce to min(t1, t2)
        assert model.R0 == pytest.approx([1.0, 1.5])
        assert model.R1 == pytest.approx([1.0, 1.5])

    def test_stability_ratio(self, canonical_model):
        sch = canonical_model.scheme
        want = sch.scale ** (sch.H - 0.5) / sch.alpha ** (sch.T * sch.H)
        assert canonical_model.stability_ratio == pytest.approx(want, rel=1e-14)
        assert canonical_model.stability_ratio < 1.0

    def test_rejects_wrong_shapes(self, canonical_scheme):
        with pytest.raises(InvalidModel):
            MarkovCovarianceModel(
                scheme=canonical_scheme, R0=np.array([1.0]), R1=np.array([1.0, 1.0])
            )

    def test_rejects_nonpositive_variance(self, canonical_scheme):
        with pytest.raises(InvalidModel):
            MarkovCovarianceModel(
                scheme=canonical_scheme,
                R0=np.array([1.0, 0.0]),
                R1=np.array([0.5, 0.5]),
            )

    def test_rejects_zero_one_step_product(self, canonical_scheme):
        with pytest.raises(InvalidModel):
            MarkovCovarianceModel(
                scheme=canonical_scheme,
                R0=np.array([1.0, 1.0]),
                R1=np.array([0.0, 0.5]),
            )

    def test_rejects_nan(self, canonical_scheme):
        # a complex R0 is refused, not truncated to its real part
        for R0 in (np.array([1.0, math.nan]), np.array([1.0, 1.0 + 1j])):
            with pytest.raises(InvalidModel):
                MarkovCovarianceModel(
                    scheme=canonical_scheme, R0=R0, R1=np.array([0.5, 0.5])
                )

    def test_rejects_cauchy_schwarz_violation(self, canonical_scheme):
        with pytest.raises(InvalidModel):
            MarkovCovarianceModel(
                scheme=canonical_scheme,
                R0=np.array([1.0, 1.0]),
                R1=np.array([1.1, 0.5]),
            )

    def test_boundary_correlation_is_unstable(self, canonical_scheme):
        # perfect correlation through the whole cycle passes Cauchy-Schwarz
        # with equality but sits exactly on |ftilde(q-1)| = alpha**(T*H)
        with pytest.raises(ModelUnstable):
            MarkovCovarianceModel(
                scheme=canonical_scheme,
                R0=np.array([1.0, 1.0]),
                R1=np.array([1.0, 2.0]),
            )


class TestCovarianceW:
    @pytest.mark.parametrize("H", [0.5, 0.75, 1.0])
    def test_against_exact_reference(self, H):
        sch = make_scheme(H=H)
        model = model_from_sbm(sch)
        for kappa in range(11):
            for tau in range(13):
                got = covariance_W(model, kappa, tau)
                want = sbm_covariance_exact(sch, kappa + tau, kappa)
                assert got == pytest.approx(want, rel=1e-10)

    def test_frozen_values(self, canonical_model):
        assert covariance_W(canonical_model, 0, 0) == pytest.approx(2.0)
        assert covariance_W(canonical_model, 0, 1) == pytest.approx(2.0)
        assert covariance_W(canonical_model, 0, 2) == pytest.approx(2.0 * SQRT2)
        assert covariance_W(canonical_model, 1, 0) == pytest.approx(3.0)
        # one full cycle up: variances scale by alpha**(2*T*H) = 4
        assert covariance_W(canonical_model, 2, 0) == pytest.approx(8.0)
        assert covariance_W(canonical_model, 3, 0) == pytest.approx(12.0)

    def test_variance_ladder(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            model = random_stable_model(rng)
            sch = model.scheme
            a2 = sch.alpha ** (2 * sch.T * sch.H)
            for kappa in range(3 * sch.q):
                n, u = divmod(kappa, sch.q)
                want = a2 ** n * model.R0[u]
                assert covariance_W(model, kappa, 0) == pytest.approx(want, rel=1e-12)

    def test_scale_invariance_whole_cycle(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            model = random_stable_model(rng)
            sch = model.scheme
            a2 = sch.alpha ** (2 * sch.T * sch.H)
            for kappa in range(8):
                for tau in range(9):
                    assert covariance_W(model, kappa + sch.q, tau) == pytest.approx(
                        a2 * covariance_W(model, kappa, tau), rel=1e-12
                    )

    def test_negative_lag_by_symmetry_vs_oracle(self, canonical_model):
        sch = canonical_model.scheme
        for kappa in range(2, 11):
            for tau in range(-min(kappa, 6), 0):
                got = covariance_W(canonical_model, kappa, tau)
                want = sbm_covariance_exact(sch, kappa + tau, kappa)
                assert got == pytest.approx(want, rel=1e-10)
                assert got == pytest.approx(
                    covariance_W(canonical_model, kappa + tau, -tau), rel=1e-14
                )

    def test_negative_lag_block_exponent_uses_cycle_not_width(self, canonical_model):
        # shifting a negative lag by whole blocks rescales by alpha**(2*T*H)
        # per block (q flat steps = one scale cycle of width alpha**T); an
        # exponent built from the block size q instead of the cycle width T
        # over-scales whenever q != T.  Here q = 2, T = 1, H = 1, t = 2 blocks.
        alpha = canonical_model.scheme.alpha
        got = covariance_W(canonical_model, 5, -3)
        shifted = covariance_W(canonical_model, 6, 3)
        assert got == pytest.approx(alpha ** (-2 * 2 * 1 * 1) * shifted, rel=1e-12)
        assert got != pytest.approx(alpha ** (-2 * 2 * 2 * 1) * shifted, rel=1e-3)

    def test_negative_kappa_rejected(self, canonical_model):
        with pytest.raises(NegativeKappa):
            covariance_W(canonical_model, -1, 2)
        with pytest.raises(NegativeKappa):
            covariance_W(canonical_model, 1, -2)

    def test_indices_are_never_truncated_or_wrapped(self, canonical_model):
        # an earlier form truncated 1.5 to 1 and returned R_1(0) = 3.0, and
        # 1 + 1j to 1; an int64 form without a bound wrapped 2**62 + 2**62 to
        # a negative index
        for kappa in (1.5, math.nan, [0, 0.5], np.array([1 + 1j])):
            with pytest.raises(BadIndex):
                covariance_W(canonical_model, kappa, 0)
        with pytest.raises(BadIndex):
            covariance_W(canonical_model, 0, -0.5)
        for kappa, tau in ((2 ** 62, 2 ** 62), (2 ** 70, 0), (0, -(2 ** 70))):
            with pytest.raises(RangeOverflow):
                covariance_W(canonical_model, kappa, tau)
        assert covariance_W(canonical_model, 1.0, 0) == 3.0

    def test_index_arrays_broadcast(self, canonical_model):
        got = covariance_W(canonical_model, np.arange(1, 5)[:, None], np.arange(-1, 3))
        assert got.shape == (4, 4)
        assert got[1].tolist() == [covariance_W(canonical_model, 2, t) for t in range(-1, 3)]
        assert type(covariance_W(canonical_model, 0, 0)) is np.float64
        with pytest.raises(BadIndex):
            covariance_W(canonical_model, [0, 1], [0, 1, 2])

    def test_overflow_raises_range_overflow(self, canonical_model):
        # cycle n = 511: variance 2**1022 * R0[0] = 2**1023 is the largest
        # power of two below the double limit
        assert covariance_W(canonical_model, 1022, 0) == 2.0 ** 1023
        # cycle n = 512: 2**1025 leaves double range
        with pytest.raises(RangeOverflow):
            covariance_W(canonical_model, 1024, 0)
        with pytest.raises(RangeOverflow):
            covariance_W(canonical_model, 1100, 0)
        with pytest.raises(RangeOverflow):
            covariance_W(canonical_model, 0, 100000)

    @settings(max_examples=75, deadline=None)
    @given(drawn=wide_models(), kappa=wide_indices(min_value=0), tau=wide_indices())
    def test_finite_or_error(self, drawn, kappa, tau):
        # an array kappa is a column, so that it broadcasts against tau
        kappa = kappa[:, None] if isinstance(kappa, np.ndarray) else kappa
        try:
            value = covariance_W(build(drawn), kappa, tau)
        except DsiLabError:
            return
        assert value.shape == np.broadcast_shapes(np.shape(kappa), np.shape(tau))
        assert np.isfinite(value).all()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
        kappa=st.integers(min_value=0, max_value=15),
        tau1=st.integers(min_value=0, max_value=10),
        tau2=st.integers(min_value=0, max_value=10),
    )
    def test_markov_product_rule(self, seed, kappa, tau1, tau2):
        # R_k(t1 + t2) * R_{k+t1}(0) = R_k(t1) * R_{k+t1}(t2): the one-step
        # factorization telescopes through any intermediate index
        model = random_stable_model(np.random.default_rng(seed))
        lhs = covariance_W(model, kappa, tau1 + tau2) * covariance_W(
            model, kappa + tau1, 0
        )
        rhs = covariance_W(model, kappa, tau1) * covariance_W(
            model, kappa + tau1, tau2
        )
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestCovarianceV:
    def test_lag_zero_is_true_symmetric_matrix(self, canonical_model):
        res = covariance_V(canonical_model, 0, 0)
        want = np.array([[2.0, 2.0], [2.0, 3.0]])
        assert np.allclose(res, want, rtol=1e-14)
        # cross-check every entry against the exact reference covariance
        sch = canonical_model.scheme
        for u in range(2):
            for v in range(2):
                assert res[u, v] == pytest.approx(
                    sbm_covariance_exact(sch, u, v), rel=1e-12
                )

    def test_lag_one_frozen(self, canonical_model):
        res = covariance_V(canonical_model, 0, 1)
        want = np.array(
            [[2.0 * SQRT2, 3.0 * SQRT2], [2.0 * SQRT2, 3.0 * SQRT2]]
        )
        assert np.allclose(res, want, rtol=1e-12)

    def test_assembly_from_flat_covariance(self):
        rng = np.random.default_rng(31)
        for _ in range(8):
            model = random_stable_model(rng)
            sch = model.scheme
            a2 = sch.alpha ** (2 * sch.T * sch.H)
            for n in range(-2, 3):
                for tau in range(7):
                    mat = covariance_V(model, n, tau)
                    for u in range(sch.q):
                        for v in range(sch.q):
                            want = a2 ** n * covariance_W(
                                model, v, tau * sch.q + u - v
                            )
                            assert mat[u, v] == pytest.approx(want, rel=1e-12)

    def test_scale_ladder_exact(self):
        rng = np.random.default_rng(37)
        for _ in range(8):
            model = random_stable_model(rng)
            sch = model.scheme
            a2 = sch.alpha ** (2 * sch.T * sch.H)
            for tau in range(5):
                base = covariance_V(model, 0, tau)
                for n in (-2, -1, 1, 2):
                    got = covariance_V(model, n, tau)
                    assert np.allclose(got, a2 ** n * base, rtol=1e-12)

    def test_rank_one_product_form_above_lag_zero(self):
        # the rank-one form ftilde(q-1)**tau * ftilde(u-1)/ftilde(v-1) * R0[v]
        # reproduces every entry for tau >= 1 but only the lower triangle at
        # tau = 0, where the upper triangle is the symmetric mirror
        rng = np.random.default_rng(41)
        for _ in range(8):
            model = random_stable_model(rng)
            q = model.scheme.q
            pref = np.concatenate([[1.0], np.cumprod(model.R1 / model.R0)])[:q]
            raw = np.outer(pref, model.R0 / pref)
            for tau in range(1, 5):
                got = covariance_V(model, 0, tau)
                assert np.allclose(got, model.ftilde_q ** tau * raw, rtol=1e-12)
            at_zero = covariance_V(model, 0, 0)
            lower = np.tril_indices(q)
            assert np.allclose(at_zero[lower], raw[lower], rtol=1e-12)
            assert np.allclose(at_zero, at_zero.T, rtol=1e-12)

    def test_negative_tau_rejected(self, canonical_model):
        with pytest.raises(BadIndex):
            covariance_V(canonical_model, 0, -1)
        with pytest.raises(BadIndex):
            covariance_V(canonical_model, 1.5, 0)

    def test_index_arrays_equal_scalar_calls(self):
        # the lag-zero mirror applies only to the tau = 0 entries of a grid
        rng = np.random.default_rng(5)
        n, tau = np.ix_(range(-3, 4), range(6))
        for q in range(1, 6):
            model = random_stable_model(rng, q)
            mats = covariance_V(model, n, tau)
            assert mats.shape == (7, 6, q, q)
            assert mats.tolist() == [
                [covariance_V(model, k, t).tolist() for t in range(6)] for k in range(-3, 4)
            ]

    def test_overflow_raises_range_overflow(self, canonical_model):
        # ftilde(q-1) = sqrt(2): tau = 2000 gives 2**1000, tau = 100000 overflows
        assert np.all(np.isfinite(covariance_V(canonical_model, 0, 2000)))
        # largest entry 2**1022 * R0[1] = 1.5 * 2**1023 is still finite
        assert np.all(np.isfinite(covariance_V(canonical_model, 511, 0)))
        with pytest.raises(RangeOverflow):
            covariance_V(canonical_model, 0, 100000)
        with pytest.raises(RangeOverflow):
            covariance_V(canonical_model, 550, 0)
        # a tiny scale factor does not hide an overflowing lag power
        with pytest.raises(RangeOverflow):
            covariance_V(canonical_model, -1000, 3000)

    def test_underflowed_cycle_product_is_in_range(self, canonical_scheme):
        # ftilde(q-1) = 1e-600 underflows to zero; the covariances are finite
        model = MarkovCovarianceModel(
            scheme=canonical_scheme, R0=[1.0, 1.0], R1=[1e-300, 1e-300]
        )
        assert model.ftilde_q == 0.0
        for tau in (0, 3):
            assert np.all(np.isfinite(covariance_V(model, 0, tau)))
        assert covariance_V(model, 0, 0)[1, 1] == pytest.approx(1.0)
        assert covariance_W(model, 1, 0) == 1.0
        assert covariance_W(model, 0, 5) == 0.0

    @settings(max_examples=75, deadline=None)
    @given(
        drawn=wide_models(),
        n=st.integers(min_value=-3000, max_value=3000),
        tau=st.integers(min_value=0, max_value=5000),
    )
    def test_finite_or_error(self, drawn, n, tau):
        try:
            matrix = covariance_V(build(drawn), n, tau)
        except DsiLabError:
            return
        assert np.isfinite(matrix).all()

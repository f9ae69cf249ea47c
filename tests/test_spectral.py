"""Spectral densities: series vs closed forms vs brute-force oracle, and
inversion round trips."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsi_lab import (
    BadIndex,
    BadInterval,
    DsiLabError,
    GridTooCoarse,
    MarkovCovarianceModel,
    ModelUnstable,
    RangeOverflow,
    SpectralEvaluation,
    ToleranceUnreachable,
    covariance_V,
    invert_spectrum,
    markov_covfn,
    model_from_sbm,
    sbm_covariance_exact,
    spectral_markov,
    spectral_sbm,
    spectral_series,
    validate_scheme,
)
from dsi_lab import spectral
from conftest import make_scheme, random_stable_model, wide_models, wide_schemes

TWO_PI = 2.0 * math.pi
EPS = np.finfo(float).eps

finite_omegas = st.lists(
    st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=4
)


def uniform_grid(M: int) -> np.ndarray:
    return np.arange(M) * (TWO_PI / M)


def oracle_block_cov(scheme, tau: int) -> np.ndarray:
    """Block lag matrix from the exact reference covariance only."""
    q = scheme.q
    return np.array(
        [
            [sbm_covariance_exact(scheme, tau * q + u, v) for v in range(q)]
            for u in range(q)
        ]
    )


def brute_force_density(scheme, omegas, n_lags: int) -> np.ndarray:
    """Bilateral weighted sum assembled purely from the exact covariance."""
    q = scheme.q
    s = np.asarray(scheme.s)
    K = np.outer(s, s) ** (-scheme.H) / TWO_PI
    w = scheme.alpha ** (-scheme.T * scheme.H)
    out = np.zeros((omegas.size, q, q), dtype=complex)
    out += oracle_block_cov(scheme, 0)[None, :, :]
    for tau in range(1, n_lags + 1):
        Q = oracle_block_cov(scheme, tau)
        phase = np.exp(-1j * omegas * tau)
        out += w ** tau * (
            phase[:, None, None] * Q[None] + np.conj(phase)[:, None, None] * Q.T[None]
        )
    return K[None, :, :] * out


def two_division_density(model, omegas) -> np.ndarray:
    """The closed form as first written, before its upper triangle is
    mirrored: K * (A / (1 - a e) - A^T / (1 - e / a)), with the factor
    A = C * R0 built from the running products ftilde(v-1)."""
    sch = model.scheme
    pref = np.concatenate([[1.0], np.cumprod(model.R1 / model.R0)])[:sch.q]
    A = np.outer(pref, 1.0 / pref) * model.R0[None, :]
    a = model.ftilde_q * sch.alpha ** (-sch.T * sch.H)
    K = np.outer(sch.s, sch.s) ** (-sch.H) / TWO_PI
    e = np.exp(-1j * np.asarray(omegas))[:, None, None]
    return K[None] * (A[None] / (1.0 - a * e) - A.T[None] / (1.0 - e / a))


def direct_inversion(ev, scheme, taus) -> np.ndarray:
    """Rectangle-rule inversion summed over an explicit (lags, M) kernel."""
    taus = np.asarray(taus)
    M = ev.omegas.size
    kernel = np.exp(1j * np.outer(taus, ev.omegas)) * (TWO_PI / M)
    raw = np.einsum("tk,kuv->tuv", kernel, ev.matrices)
    growth = scheme.alpha ** (taus * scheme.T * scheme.H)
    su_sv = np.outer(scheme.s, scheme.s) ** scheme.H
    return (growth[:, None, None] * su_sv[None] * raw).real


def assert_exact_mirror(matrices) -> None:
    """Each strict upper entry is the conjugate of its mirrored lower entry
    bit for bit, not to a tolerance: the CSV writer formats the upper
    entries from the text of the lower ones."""
    iu, jv = np.triu_indices(matrices.shape[-1], k=1)
    upper, lower = matrices[..., iu, jv], matrices[..., jv, iu]
    assert np.array_equal(upper.real.view(np.uint64), lower.real.view(np.uint64))
    sign_flipped = lower.imag.view(np.uint64) ^ np.uint64(1 << 63)
    assert np.array_equal(upper.imag.view(np.uint64), sign_flipped)


class TestAgainstBruteForceOracle:
    def test_block_scale_ladder_holds_for_oracle(self, canonical_scheme):
        # the negative-lag identity Q(-tau) = alpha**(-2 tau T H) Q(tau)^T
        # used by the series rests on the one-cycle ladder, which the
        # exact covariance satisfies on nonnegative indices
        sch = canonical_scheme
        a2 = sch.alpha ** (2 * sch.T * sch.H)
        for tau in range(4):
            base = oracle_block_cov(sch, tau)
            shifted = np.array(
                [
                    [
                        sbm_covariance_exact(sch, (tau + 1) * sch.q + u, sch.q + v)
                        for v in range(sch.q)
                    ]
                    for u in range(sch.q)
                ]
            )
            assert np.allclose(shifted, a2 * base, rtol=1e-12)

    @pytest.mark.parametrize("H", [0.5, 0.75, 1.0])
    def test_closed_form_matches_oracle_sum(self, H):
        sch = make_scheme(H=H)
        omegas = np.linspace(0.0, TWO_PI, 33)[:-1]
        oracle = brute_force_density(sch, omegas, n_lags=260)
        closed = spectral_markov(model_from_sbm(sch), omegas)
        assert np.max(np.abs(closed.matrices - oracle)) < 1e-10

    def test_series_matches_oracle_sum(self, canonical_scheme):
        omegas = np.linspace(0.0, TWO_PI, 17)[:-1]
        oracle = brute_force_density(canonical_scheme, omegas, n_lags=260)
        model = model_from_sbm(canonical_scheme)
        series = spectral_series(
            markov_covfn(model), canonical_scheme, omegas, tol=1e-10,
            tail_ratio=model.stability_ratio,
        )
        assert np.max(np.abs(series.matrices - oracle)) < 1e-8


class TestClosedForms:
    def test_reference_specialization_matches_markov(self):
        omegas = uniform_grid(256)
        for H in (0.5, 0.75, 1.0, 1.3):
            sch = make_scheme(H=H)
            a = spectral_sbm(sch, omegas)
            b = spectral_markov(model_from_sbm(sch), omegas)
            assert np.max(np.abs(a.matrices - b.matrices)) < 1e-12

    def test_spot_values_hand_computed(self, canonical_scheme):
        # diagonal entry at omega = 0 and pi from the scalar geometric sum:
        # (1/pi) * (1 / (1 -+ 2**-0.5) - 1 / (1 -+ 2**0.5))
        ev = spectral_sbm(canonical_scheme, [0.0, math.pi])
        a = 2.0 ** -0.5
        want0 = (1.0 / (1.0 - a) - 1.0 / (1.0 - 1.0 / a)) / math.pi
        wantpi = (1.0 / (1.0 + a) - 1.0 / (1.0 + 1.0 / a)) / math.pi
        assert ev.matrices[0][0, 0].real == pytest.approx(want0, rel=1e-12)
        assert ev.matrices[1][0, 0].real == pytest.approx(wantpi, rel=1e-12)
        assert want0 == pytest.approx(1.8552459747084786, rel=1e-14)
        assert wantpi == pytest.approx(0.05461334239426594, rel=1e-14)

    def test_series_vs_closed_random_models(self, stable_model_factory):
        # the series is within its certified tail bound of the closed form,
        # up to rounding: one eps per summed lag of the largest entry
        rng = np.random.default_rng(47)
        omegas = uniform_grid(128)
        for q in (1, 2, 3, 5):
            for _ in range(3):
                model = stable_model_factory(rng, q)
                closed = spectral_markov(model, omegas)
                scale = np.max(np.abs(closed.matrices))
                for tol in (1e-3, 1e-6, 1e-10):
                    series = spectral_series(
                        markov_covfn(model),
                        model.scheme,
                        omegas,
                        tol=tol,
                        tail_ratio=model.stability_ratio,
                    )
                    err = np.max(np.abs(closed.matrices - series.matrices))
                    rounding = EPS * (1 + series.meta.n_terms) * scale
                    assert series.meta.tail_bound < tol
                    assert err <= series.meta.tail_bound + rounding
                assert err < 1e-8  # at the last tolerance, 1e-10

    def test_division_free_form_matches_two_division_form(self):
        # the shipped form never divides by a; wherever 1/a is a double it
        # agrees with the two-division form to 1e-13 relative
        rng = np.random.default_rng(61)
        omegas = uniform_grid(64)
        for q in (1, 2, 3, 4):
            iu, jv = np.triu_indices(q, k=1)
            for _ in range(50):
                model = random_stable_model(rng, q)
                want = two_division_density(model, omegas)
                want[:, iu, jv] = np.conj(want[:, jv, iu])
                got = spectral_markov(model, omegas).matrices
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_diagonal_real_and_nonnegative(self, stable_model_factory):
        rng = np.random.default_rng(53)
        omegas = uniform_grid(64)
        for _ in range(10):
            model = stable_model_factory(rng)
            ev = spectral_markov(model, omegas)
            diag = np.diagonal(ev.matrices, axis1=1, axis2=2)
            assert np.max(np.abs(diag.imag)) < 1e-12
            assert np.min(diag.real) > -1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
        q=st.integers(min_value=1, max_value=4),
    )
    def test_positive_semidefinite_everywhere(self, seed, q):
        # a spectral density matrix is Hermitian positive semidefinite at
        # every frequency, not only on its diagonal
        model = random_stable_model(np.random.default_rng(seed), q)
        g = spectral_markov(model, uniform_grid(256)).matrices
        min_eig = np.min(np.linalg.eigvalsh(g))
        assert min_eig >= -1e-12 * np.max(np.abs(g))

    @pytest.mark.parametrize(
        "model",
        [
            pytest.param(
                lambda: MarkovCovarianceModel(
                    make_scheme(
                        H=2.697082815835922, alpha=1.9, T=243,
                        s=(1.0, 8.352046903897903e31, 6.778774511828643e32, 6.423896211973565e58),
                    ),
                    R0=(9.999999999999763e299, 1.9576176696589634e-35, 1.0000000000000004,
                        2.8488857391395945e121),
                    R1=(4.4240548885621644e132, -4.420072840957845e-18, 5.33749542302625e60,
                        8.218407461472789e307),
                ),
                id="subnormal_prefactor",
                marks=pytest.mark.xfail(
                    strict=True, raises=AssertionError,
                    reason="the prefactor (s_u s_v)**(-H) of offsets 2 and 3 is subnormal "
                    "(9.6e-319), so their correlation reads 1.000001; the exact matrix is PSD",
                ),
            ),
            pytest.param(
                lambda: MarkovCovarianceModel(
                    make_scheme(
                        H=1.6078848393880818, alpha=1.424920870348501, T=566,
                        s=(1.0, 4.286822846397192e77),
                    ),
                    R0=(7.317423890559759e240, 1.0),
                    R1=(-2.705073730805923e120, 2.462749919115495e260),
                ),
                id="admission_slack",
                marks=pytest.mark.xfail(
                    strict=True, raises=AssertionError,
                    reason="the Cauchy-Schwarz slack admits a wrap correlation whose exact "
                    "square exceeds 1 by 1.1e-13: the model is not a covariance",
                ),
            ),
        ],
    )
    def test_admitted_wide_models_are_positive_semidefinite(self, model):
        # the density scaled to unit diagonal, a correlation matrix at each
        # frequency, has no eigenvalue below round-off; the smallest reads
        # -9.7e-7 and -1.1e-3 for these two models
        g = spectral_markov(model(), np.array([0.0, 1.0, math.pi])).matrices
        d = np.sqrt(np.diagonal(g, axis1=1, axis2=2).real)
        scaled = g / d[:, :, None] / d[:, None, :]
        assert np.min(np.linalg.eigvalsh(scaled)) >= -16 * EPS

    def test_hermitian_everywhere(self, canonical_scheme, stable_model_factory):
        rng = np.random.default_rng(59)
        omegas = uniform_grid(64)
        evals = [spectral_sbm(canonical_scheme, omegas)]
        for _ in range(5):
            model = stable_model_factory(rng)
            evals.append(spectral_markov(model, omegas))
            evals.append(
                spectral_series(
                    markov_covfn(model), model.scheme, omegas, tol=1e-9,
                    tail_ratio=model.stability_ratio,
                )
            )
        for ev in evals:
            assert ev.hermitian_defect() < 1e-10

    def test_one_sided_closed_form_needs_hermitian_mirror(self, canonical_scheme):
        # evaluating the one-sided geometric resummation on the whole matrix
        # (instead of u >= v with a conjugate mirror) breaks Hermitianity:
        # the lag-zero seed of the resummation is only the covariance on the
        # lower triangle.  At omega = 0 the defect is exactly
        # K[0,1] * |A[0,1] - A[1,0]| = (3 - 2) / (3 pi) for this geometry.
        model = model_from_sbm(canonical_scheme)
        omegas = np.array([0.0, 1.0, 2.5])
        raw = two_division_density(model, omegas)
        defect = np.max(np.abs(raw - np.conj(np.swapaxes(raw, 1, 2))))
        assert defect > 0.1
        assert abs(raw[0, 0, 1] - raw[0, 1, 0]) == pytest.approx(
            1.0 / (3.0 * math.pi), rel=1e-12
        )
        # the shipped evaluation mirrors the lower triangle and is Hermitian
        ev = spectral_markov(model, omegas)
        assert ev.hermitian_defect() < 1e-14
        assert np.allclose(
            np.tril(ev.matrices[0]), np.tril(raw[0]), rtol=1e-14, atol=1e-16
        )


class TestSeriesTruncation:
    def test_tolerance_levels_agree(self, canonical_scheme):
        model = model_from_sbm(canonical_scheme)
        omegas = uniform_grid(32)
        covfn = markov_covfn(model)
        r = model.stability_ratio
        loose = spectral_series(covfn, canonical_scheme, omegas, tol=1e-4, tail_ratio=r)
        tight = spectral_series(covfn, canonical_scheme, omegas, tol=1e-10, tail_ratio=r)
        assert np.max(np.abs(loose.matrices - tight.matrices)) <= 2e-4
        assert loose.meta.n_terms < tight.meta.n_terms
        assert loose.meta.tail_bound < 1e-4
        assert tight.meta.tail_bound < 1e-10

    def test_finite_support_sums_exactly(self, canonical_scheme):
        q = canonical_scheme.q
        Q0 = np.array([[2.0, 0.3], [0.3, 1.0]])
        Q1 = np.array([[0.4, 0.1], [0.2, 0.3]])

        def covfn(tau):
            return (Q0, Q1)[tau] if tau <= 1 else np.zeros((q, q))

        omegas = uniform_grid(16)
        ev = spectral_series(covfn, canonical_scheme, omegas, tol=1e-12, tail_ratio=0.0)
        w = canonical_scheme.alpha ** (-canonical_scheme.T * canonical_scheme.H)
        K = np.outer(canonical_scheme.s, canonical_scheme.s) ** (
            -canonical_scheme.H
        ) / TWO_PI
        phase = np.exp(-1j * omegas)
        want = K[None] * (
            Q0[None]
            + w * (phase[:, None, None] * Q1[None]
                   + np.conj(phase)[:, None, None] * Q1.T[None])
        )
        assert np.max(np.abs(ev.matrices - want)) < 1e-14
        assert ev.meta.tail_bound == 0.0

    def test_budget_exhaustion_raises(self, canonical_scheme, monkeypatch):
        model = model_from_sbm(canonical_scheme)
        monkeypatch.setattr(spectral, "_MAX_TERMS", 3)
        with pytest.raises(ToleranceUnreachable):
            spectral_series(
                markov_covfn(model), canonical_scheme, uniform_grid(8),
                tol=1e-14, tail_ratio=model.stability_ratio,
            )

    def test_near_unit_ratio_refused_at_lag_one(self):
        # ratio 0.9999995: the bound at lag 1 sets the last lag near 7.3e7,
        # past the budget, so the sum is refused before it reads lag 2
        m = model_from_sbm(validate_scheme(H=1.0, alpha=1.000001, T=1, s=(1.0,)))
        covfn, lags = markov_covfn(m), []

        def counted(tau):
            lags.append(tau)
            return covfn(tau)

        with pytest.raises(ToleranceUnreachable, match=r"last lag at \d+, past the budget"):
            spectral_series(counted, m.scheme, [0.0], tol=1e-10, tail_ratio=m.stability_ratio)
        assert lags == [0, 1]

    @pytest.mark.parametrize(
        "is_bad, value, first",
        [
            (lambda tau: True, math.nan, 0),
            (lambda tau: tau >= 1, math.nan, 1),
            (lambda tau: tau == 0, math.nan, 0),
            (lambda tau: tau == 5, math.nan, 5),
            (lambda tau: tau == 1, math.inf, 1),
            (lambda tau: tau == 1, -math.inf, 1),
        ],
        ids=["nan_everywhere", "nan_from_1", "nan_at_0", "nan_at_5", "inf_at_1", "minus_inf_at_1"],
    )
    def test_non_finite_term_refused_at_its_lag(
        self, canonical_scheme, monkeypatch, is_bad, value, first
    ):
        # a NaN tail bound never drops below tol and sets no last lag, so the
        # term itself is refused, at the first lag that is not finite
        monkeypatch.setattr(spectral, "_MAX_TERMS", 1_000)
        covfn = markov_covfn(model_from_sbm(canonical_scheme))

        def hostile(tau):
            return np.full((2, 2), value) if is_bad(tau) else covfn(tau)

        with pytest.raises(RangeOverflow, match=rf"^covfn\({first}\) "):
            spectral_series(hostile, canonical_scheme, [0.0], tol=1e-8, tail_ratio=0.5)

    def test_growing_terms_raise_model_unstable(self, canonical_scheme):
        q = canonical_scheme.q

        def covfn(tau):
            return 3.0 ** tau * np.ones((q, q))

        with pytest.raises(ModelUnstable):
            spectral_series(covfn, canonical_scheme, uniform_grid(8), tol=1e-6, tail_ratio=0.5)

    def test_slower_decay_than_stated_ratio_is_refused(self, canonical_scheme):
        # weighted terms fall by 0.6 per lag against a stated 0.5: summed to
        # the bound's own stop, at lag 25, the density is 1.4e-6 from its
        # sum while the bound reads 9.0e-7
        q = canonical_scheme.q

        def covfn(tau):
            return 1.2 ** tau * np.ones((q, q))

        with pytest.raises(ModelUnstable, match="slower than the ratio"):
            spectral_series(covfn, canonical_scheme, uniform_grid(8), tol=1e-6, tail_ratio=0.5)

    def test_tolerance_at_a_lags_own_bound(self, stable_model_factory):
        # tol equal to the bound the loop computes at lag k: the sum stops at
        # lag k + 1, which rounding in the cutoff must not put past the last lag
        rng = np.random.default_rng(83)
        for _ in range(40):
            model = stable_model_factory(rng)
            scheme, r = model.scheme, model.stability_ratio
            k = int(rng.integers(2, 30))
            m = (scheme.alpha ** (-scheme.T * scheme.H)) ** k * float(
                np.abs(covariance_V(model, 0, k)).max()
            )
            tol = 2.0 * float(spectral._prefactor(scheme).max()) * m * r / (1.0 - r)
            ev = spectral_series(markov_covfn(model), scheme, [0.0], tol=tol, tail_ratio=r)
            assert ev.meta.n_terms == k + 1

    def test_zero_tail_ratio_for_white_blocks(self, canonical_scheme):
        # Q(tau) = 0 for tau >= 1: the weighted terms decay with ratio 0
        q = canonical_scheme.q
        Q0 = np.array([[2.0, 0.5], [0.5, 1.0]])

        def covfn(tau):
            return Q0 if tau == 0 else np.zeros((q, q))

        omegas = uniform_grid(8)
        ev = spectral_series(covfn, canonical_scheme, omegas, tol=1e-12, tail_ratio=0.0)
        K = np.outer(canonical_scheme.s, canonical_scheme.s) ** (
            -canonical_scheme.H
        ) / TWO_PI
        assert np.array_equal(ev.matrices, np.broadcast_to(K * Q0, (8, q, q)))
        assert ev.meta.tail_bound == 0.0

    @pytest.mark.parametrize(
        "term",
        [
            lambda Q, tau: Q * (1 + 1j),
            lambda Q, tau: "x",
            lambda Q, tau: [[1.0], [1.0, 2.0]],
            lambda Q, tau: Q if tau < 3 else np.ones((3, 3)),
            lambda Q, tau: Q if tau < 3 else 0.0,
        ],
        ids=["complex", "str", "ragged", "late_wrong_shape", "late_scalar"],
    )
    def test_every_term_read_as_real_matrix(self, canonical_scheme, term):
        # each covfn term, not only covfn(0), is a real q x q matrix: never
        # truncated to its real part, never broadcast
        model = model_from_sbm(canonical_scheme)
        covfn = markov_covfn(model)
        with pytest.raises(BadInterval):
            spectral_series(
                lambda tau: term(covfn(tau), tau), canonical_scheme, uniform_grid(8), tol=1e-8,
                tail_ratio=model.stability_ratio,
            )

    def test_bad_tail_ratio_rejected(self, canonical_scheme):
        # the ratio has no default: None is not a number, like any other
        model = model_from_sbm(canonical_scheme)
        for tail_ratio in (1.0, None):
            with pytest.raises(ModelUnstable):
                spectral_series(
                    markov_covfn(model), canonical_scheme, uniform_grid(8),
                    tol=1e-8, tail_ratio=tail_ratio,
                )


class TestInversion:
    def test_recovers_block_covariances(self, canonical_scheme):
        model = model_from_sbm(canonical_scheme)
        ev = spectral_markov(model, uniform_grid(16384))
        rec = invert_spectrum(ev, canonical_scheme, range(5))
        assert rec.imag_residue < 1e-8
        for i, tau in enumerate(rec.taus):
            want = covariance_V(model, 0, tau)
            rel = np.max(np.abs(rec.matrices[i] - want) / np.abs(want))
            assert rel < 1e-6

    def test_negative_lags_follow_the_ladder(self, canonical_scheme):
        sch = canonical_scheme
        model = model_from_sbm(sch)
        ev = spectral_markov(model, uniform_grid(8192))
        rec = invert_spectrum(ev, sch, [-2, 2])
        want_pos = covariance_V(model, 0, 2)
        want_neg = sch.alpha ** (-2 * 2 * sch.T * sch.H) * want_pos.T
        assert np.allclose(rec.matrices[1], want_pos, rtol=1e-6)
        assert np.allclose(rec.matrices[0], want_neg, rtol=1e-6)

    def test_density_covariance_density_roundtrip(self, canonical_scheme):
        sch = canonical_scheme
        model = model_from_sbm(sch)
        M = 4096
        omegas = uniform_grid(M)
        ev = spectral_markov(model, omegas)
        n_lags = 80
        rec = invert_spectrum(ev, sch, range(n_lags + 1))
        # re-sum the bilateral series from the recovered matrices
        K = np.outer(sch.s, sch.s) ** (-sch.H) / TWO_PI
        w = sch.alpha ** (-sch.T * sch.H)
        probe = np.linspace(0.0, TWO_PI, 41)[:-1]
        out = np.zeros((probe.size, sch.q, sch.q), dtype=complex)
        out += rec.matrices[0][None]
        for tau in range(1, n_lags + 1):
            Q = rec.matrices[tau]
            phase = np.exp(-1j * probe * tau)
            out += w ** tau * (
                phase[:, None, None] * Q[None]
                + np.conj(phase)[:, None, None] * Q.T[None]
            )
        resummed = K[None] * out
        direct = spectral_markov(model, probe)
        assert np.max(np.abs(resummed - direct.matrices)) < 1e-5

    @pytest.mark.parametrize(
        "taus, rel",
        [(range(5), 1e-13), (range(-32, 33), 1e-10)],
        ids=["lags_0_4", "lags_pm32"],
    )
    def test_fft_matches_direct_sum(self, canonical_scheme, taus, rel):
        # at lag 32 the canonical entries still stand well above the
        # round-off of either sum
        ev = spectral_markov(model_from_sbm(canonical_scheme), uniform_grid(16384))
        got = invert_spectrum(ev, canonical_scheme, taus).matrices
        want = direct_inversion(ev, canonical_scheme, taus)
        assert np.max(np.abs(got - want) / np.abs(want)) < rel

    def test_growth_past_double_range_raises(self):
        # alpha**(tau*T*H) = 2**1200 at lag 2; lags 0 and 1 are in range
        sch = make_scheme(T=600)
        ev = spectral_markov(model_from_sbm(sch), uniform_grid(64))
        assert np.isfinite(invert_spectrum(ev, sch, [0, 1]).matrices).all()
        with pytest.raises(RangeOverflow):
            invert_spectrum(ev, sch, [0, 2])

    @pytest.mark.xfail(strict=True, raises=RangeOverflow, reason="the lag factor alone overflows")
    def test_recovered_values_whose_factor_overflows(self):
        # the rescaling alpha**(tau*T*H) (s_u s_v)**H of entry (1, 1) is past
        # double range from lag 2 on (about e**945), while the recovered
        # entries stay at or below 1e200
        sch = make_scheme(H=0.5, T=700, s=(1.0, 1e200))
        model = model_from_sbm(sch)
        rec = invert_spectrum(spectral_markov(model, uniform_grid(16384)), sch, range(5))
        want = covariance_V(model, 0, np.arange(5))
        assert np.max(np.abs(rec.matrices - want) / np.abs(want)) < 1e-6

    @pytest.mark.parametrize("M", [64, 4096])
    @pytest.mark.parametrize(
        "model",
        [
            lambda: model_from_sbm(make_scheme()),
            lambda: model_from_sbm(make_scheme(H=0.7, alpha=3.0, T=2, s=(1.0, 2.0, 5.0))),
            lambda: MarkovCovarianceModel(
                make_scheme(H=0.8, alpha=2.5, T=1, s=(1.0, 1.4, 2.0)),
                R0=(1.0, 2.0, 1.5), R1=(-0.9, 1.2, 1.1),
            ),
        ],
        ids=["canonical", "sbm_q3", "negative_R1"],
    )
    def test_model_comes_back_from_its_density(self, model, M):
        # the paper's characterization as a round trip: {R0, R1} -> density
        # -> Q(0), Q(1) -> {R0, R1}.  The rectangle rule adds the aliases
        # alpha**(tau T H) sum_{j != 0} alpha**(-L T H) Q(L), L = tau + j M.
        # For L >= 1, Q(L) = ftilde(q-1)**(L-1) Q(1), so an alias is
        # a**(|L|-1) alpha**((tau-1) T H) Q(1) with a = ftilde(q-1)
        # alpha**(-T H), transposed for L < 0.  The canonical model's aliases
        # at M = 64 are about 0.707**64 = 2.3e-10 relative; the rest is
        # round-off.
        model = model()
        sch = model.scheme
        rec = invert_spectrum(spectral_markov(model, uniform_grid(M)), sch, [0, 1])
        a = model.ftilde_q * sch.alpha ** (-sch.T * sch.H)
        lag_one = covariance_V(model, 0, 1)
        aliases = [
            sum(
                sch.alpha ** ((tau - 1) * sch.T * sch.H)
                * (a ** (j * M + tau - 1) * lag_one + a ** (j * M - tau - 1) * lag_one.T)
                for j in (1, 2, 3)
            )
            for tau in (0, 1)
        ]

        def read_back(Q0, Q1):
            q = len(Q0)
            return np.diagonal(Q0), np.append(np.diagonal(Q0, offset=-1), Q1[0, q - 1])

        for got, alias, want in zip(
            read_back(*rec.matrices), read_back(*aliases), (model.R0, model.R1)
        ):
            assert np.all(np.abs(got - (want + alias)) <= 8 * EPS * np.abs(want))

    def test_grid_too_coarse(self, canonical_scheme):
        model = model_from_sbm(canonical_scheme)
        ev = spectral_markov(model, uniform_grid(16))
        with pytest.raises(GridTooCoarse):
            invert_spectrum(ev, canonical_scheme, [5])

    def test_non_uniform_grid_rejected(self, canonical_scheme):
        model = model_from_sbm(canonical_scheme)
        omegas = np.sort(np.random.default_rng(1).uniform(0, TWO_PI, 64))
        ev = spectral_markov(model, omegas)
        with pytest.raises(GridTooCoarse):
            invert_spectrum(ev, canonical_scheme, [1])

    def test_empty_grid_rejected(self, canonical_scheme):
        ev = SpectralEvaluation(np.zeros(0), np.zeros((0, 2, 2), dtype=complex))
        with pytest.raises(GridTooCoarse):
            invert_spectrum(ev, canonical_scheme, [0])

    def test_empty_lags_rejected(self, canonical_scheme):
        model = model_from_sbm(canonical_scheme)
        ev = spectral_markov(model, uniform_grid(64))
        with pytest.raises(BadInterval):
            invert_spectrum(ev, canonical_scheme, [])

    @pytest.mark.parametrize("tau", [1.5, math.nan], ids=["fraction", "nan"])
    def test_non_integral_lags_rejected(self, canonical_scheme, tau):
        # read by the one index rule, not truncated by int()
        model = model_from_sbm(canonical_scheme)
        ev = spectral_markov(model, uniform_grid(64))
        with pytest.raises(BadIndex):
            invert_spectrum(ev, canonical_scheme, [tau])

    def test_lags_come_back_as_python_ints(self, canonical_scheme):
        model = model_from_sbm(canonical_scheme)
        ev = spectral_markov(model, uniform_grid(64))
        taus = invert_spectrum(ev, canonical_scheme, [0, 2.0, np.int64(3)]).taus
        assert taus == (0, 2, 3)
        assert all(type(tau) is int for tau in taus)


class TestFrequencyAndRangeGuards:
    # a complex array is refused, not truncated to its real part
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.5 + 1j])
    def test_markov_rejects_non_finite_frequencies(self, canonical_scheme, bad):
        with pytest.raises(BadInterval):
            spectral_markov(model_from_sbm(canonical_scheme), np.array([0.5, bad]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.5 + 1j])
    def test_sbm_rejects_non_finite_frequencies(self, canonical_scheme, bad):
        with pytest.raises(BadInterval):
            spectral_sbm(canonical_scheme, np.array([bad]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.5 + 1j])
    def test_series_rejects_non_finite_frequencies(self, canonical_scheme, bad):
        model = model_from_sbm(canonical_scheme)
        with pytest.raises(BadInterval):
            spectral_series(
                markov_covfn(model), canonical_scheme, np.array([bad, 0.0]), tol=1e-8,
                tail_ratio=model.stability_ratio,
            )

    def test_underflowed_cycle_product_is_finite(self, canonical_scheme):
        # ftilde(q-1) = 1e-600 underflows to 0, so a = 0 and every lag past
        # zero vanishes: the density is the series' lag-zero term
        model = MarkovCovarianceModel(
            scheme=canonical_scheme, R0=[1.0, 1.0], R1=[1e-300, 1e-300]
        )
        omegas = uniform_grid(8)
        got = spectral_markov(model, omegas).matrices
        want = spectral_series(
            markov_covfn(model), canonical_scheme, omegas, tol=1e-12, tail_ratio=0.0
        ).matrices
        assert np.isfinite(got).all()
        np.testing.assert_array_equal(got, want)
        # a = 5e-301 is still a double: the density is finite as well
        model = MarkovCovarianceModel(
            scheme=canonical_scheme, R0=[1.0, 1.0], R1=[1e-150, 1e-150]
        )
        assert np.isfinite(spectral_markov(model, uniform_grid(8)).matrices).all()

    def test_offset_product_past_double_range(self):
        # s_u * s_v = 1e400 is not a double, (s_u * s_v)**(-1/2) = 1e-200 is
        sch = make_scheme(H=0.5, T=700, s=(1.0, 1e200))
        omegas = uniform_grid(8)
        markov = spectral_markov(model_from_sbm(sch), omegas).matrices
        ref = spectral_sbm(sch, omegas).matrices
        assert np.isfinite(markov).all() and np.isfinite(ref).all()
        assert np.max(np.abs(markov - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_markov_density_past_double_range(self, canonical_scheme):
        # admissible and strictly stable (ratio 0.99999999995), but at
        # omega = 0 the density is about 1e300 / 5e-11, past the largest double
        model = MarkovCovarianceModel(
            scheme=canonical_scheme, R0=[1e300, 1e300], R1=[1e300, 1.9999999999e300]
        )
        assert model.stability_ratio < 1.0
        with pytest.raises(RangeOverflow):
            spectral_markov(model, uniform_grid(8))

    def test_sbm_prefactor_past_double_range(self):
        # lam**(2 H') = 2**2000
        sch = validate_scheme(H=1.5, alpha=2.0, T=1000, s=(1.0, 1.5))
        with pytest.raises(RangeOverflow):
            spectral_sbm(sch, [0.0])

    def test_series_sum_past_double_range(self, canonical_scheme):
        # admissible and strictly stable, but the lag matrix at lag 28 leaves
        # double range, and the bound at lag 1 overflows: summed from its
        # factors' logs it sets the last lag near 9.1e11, past the budget,
        # so the sum is refused at lag 1
        model = MarkovCovarianceModel(
            scheme=canonical_scheme, R0=[1e300, 1e300], R1=[1e300, 1.9999999999e300]
        )
        covfn, lags = markov_covfn(model), []

        def counted(tau):
            lags.append(tau)
            return covfn(tau)

        with pytest.raises(ToleranceUnreachable, match=r"^tail bound inf at lag 1 .* 91200"):
            spectral_series(
                counted, canonical_scheme, [0.0, 1.0], tol=1e290,
                tail_ratio=model.stability_ratio,
            )
        assert lags == [0, 1]
        # every lag matrix is a double, their weighted sum is not
        with pytest.raises(RangeOverflow):
            spectral_series(
                lambda tau: np.full((2, 2), 1.7e308), canonical_scheme, [0.0],
                tol=1e-8, tail_ratio=0.5,
            )

    def test_series_nan_tolerance_sums_nothing(self, canonical_scheme):
        def covfn(tau):
            raise AssertionError("a NaN tolerance summed a term")

        with pytest.raises(ToleranceUnreachable):
            spectral_series(covfn, canonical_scheme, [0.0], tol=math.nan, tail_ratio=0.5)

    def test_series_infinite_tolerance_refused(self, canonical_scheme):
        # the last lag takes log tol, which an infinite tolerance has not
        def covfn(tau):
            raise AssertionError("an infinite tolerance summed a term")

        with pytest.raises(ToleranceUnreachable, match="one finite number > 0"):
            spectral_series(covfn, canonical_scheme, [0.0], tol=math.inf, tail_ratio=0.5)

    @settings(max_examples=50, deadline=None)
    @given(
        drawn=wide_models(),
        omegas=finite_omegas,
        tol=st.floats(min_value=1e-12, max_value=1e300),
    )
    def test_series_finite_or_error(self, drawn, omegas, tol):
        # a small lag budget: a ratio near 1 ends in ToleranceUnreachable.  A
        # Markov covfn keeps its own stability ratio, so the cutoff at the
        # last lag never refuses it.
        scheme, R0, R1 = drawn
        try:
            model = MarkovCovarianceModel(scheme=scheme, R0=R0, R1=R1)
        except DsiLabError:
            return
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral, "_MAX_TERMS", 2000)
            try:
                ev = spectral_series(
                    markov_covfn(model), scheme, omegas, tol=tol,
                    tail_ratio=model.stability_ratio,
                )
            except DsiLabError as exc:
                assert not isinstance(exc, ModelUnstable), exc
                return
        assert np.isfinite(ev.matrices).all()

    @settings(max_examples=75, deadline=None)
    @given(drawn=wide_models(), omegas=finite_omegas)
    def test_markov_finite_or_error(self, drawn, omegas):
        scheme, R0, R1 = drawn
        try:
            ev = spectral_markov(MarkovCovarianceModel(scheme=scheme, R0=R0, R1=R1), omegas)
        except DsiLabError:
            return
        assert np.isfinite(ev.matrices).all()
        assert_exact_mirror(ev.matrices)

    @settings(max_examples=75, deadline=None)
    @given(scheme=wide_schemes(), omegas=finite_omegas)
    def test_sbm_finite_or_error(self, scheme, omegas):
        try:
            ev = spectral_sbm(scheme, omegas)
        except DsiLabError:
            return
        assert np.isfinite(ev.matrices).all()
        assert_exact_mirror(ev.matrices)

    @settings(max_examples=75, deadline=None)
    @given(
        drawn=wide_models(),
        M=st.integers(min_value=4, max_value=64),
        taus=st.lists(st.integers(min_value=-16, max_value=16), min_size=1, max_size=4),
    )
    def test_inversion_finite_or_error(self, drawn, M, taus):
        scheme, R0, R1 = drawn
        try:
            model = MarkovCovarianceModel(scheme=scheme, R0=R0, R1=R1)
            rec = invert_spectrum(spectral_markov(model, uniform_grid(M)), scheme, taus)
        except DsiLabError:
            return
        assert np.isfinite(rec.matrices).all() and math.isfinite(rec.imag_residue)


class TestSpectralEvaluation:
    def test_shape_validation(self):
        with pytest.raises(BadInterval):
            SpectralEvaluation(omegas=np.zeros(3), matrices=np.zeros((2, 2, 2)))

    def test_hermitian_defect_measures_asymmetry(self):
        mats = np.zeros((1, 2, 2), dtype=complex)
        mats[0] = [[1.0, 2.0 + 1j], [2.0 - 1j, 3.0]]
        assert SpectralEvaluation(np.zeros(1), mats).hermitian_defect() == 0.0
        mats2 = mats.copy()
        mats2[0, 0, 1] += 0.25
        assert SpectralEvaluation(np.zeros(1), mats2).hermitian_defect() == (
            pytest.approx(0.25)
        )

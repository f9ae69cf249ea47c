"""Spectral densities: series vs closed forms vs brute-force oracle,
inversion round trips and interval masses."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsi_lab import (
    BadInterval,
    GridTooCoarse,
    ModelUnstable,
    SpectralEvaluation,
    ToleranceUnreachable,
    covariance_V,
    f_tilde,
    invert_spectrum,
    markov_covfn,
    model_from_sbm,
    sbm_covariance_exact,
    spectral_distribution_interval,
    spectral_markov,
    spectral_sbm,
    spectral_series,
)
from conftest import make_scheme, random_stable_model

TWO_PI = 2.0 * math.pi


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
            markov_covfn(model), canonical_scheme, omegas, tol=1e-10
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
        rng = np.random.default_rng(47)
        omegas = uniform_grid(128)
        for q in (1, 2, 3, 5):
            for _ in range(3):
                model = stable_model_factory(rng, q)
                closed = spectral_markov(model, omegas)
                series = spectral_series(
                    markov_covfn(model),
                    model.scheme,
                    omegas,
                    tol=1e-10,
                    tail_ratio=model.stability_ratio,
                )
                assert np.max(np.abs(closed.matrices - series.matrices)) < 1e-8

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
        sch = canonical_scheme
        model = model_from_sbm(sch)
        q = sch.q
        pref = np.array([f_tilde(model, v - 1) for v in range(q)])
        C = np.outer(pref, 1.0 / pref)
        A = C * model.R0[None, :]
        B = A.T
        a = model.ftilde_q * sch.alpha ** (-sch.T * sch.H)
        K = np.outer(sch.s, sch.s) ** (-sch.H) / TWO_PI
        omegas = np.array([0.0, 1.0, 2.5])
        e = np.exp(-1j * omegas)
        raw = K[None] * (
            A[None] / (1.0 - a * e[:, None, None])
            - B[None] / (1.0 - e[:, None, None] / a)
        )
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
        loose = spectral_series(covfn, canonical_scheme, omegas, tol=1e-4)
        tight = spectral_series(covfn, canonical_scheme, omegas, tol=1e-10)
        assert np.max(np.abs(loose.matrices - tight.matrices)) <= 2e-4
        assert loose.meta.n_terms < tight.meta.n_terms
        assert loose.meta.tail_bound < 1e-4
        assert tight.meta.tail_bound < 1e-10

    def test_estimated_ratio_matches_known_ratio(self, canonical_scheme):
        model = model_from_sbm(canonical_scheme)
        omegas = uniform_grid(32)
        covfn = markov_covfn(model)
        estimated = spectral_series(covfn, canonical_scheme, omegas, tol=1e-9)
        exact = spectral_series(
            covfn, canonical_scheme, omegas, tol=1e-9,
            tail_ratio=model.stability_ratio,
        )
        assert np.max(np.abs(estimated.matrices - exact.matrices)) < 1e-9

    def test_finite_support_sums_exactly(self, canonical_scheme):
        q = canonical_scheme.q
        Q0 = np.array([[2.0, 0.3], [0.3, 1.0]])
        Q1 = np.array([[0.4, 0.1], [0.2, 0.3]])

        def covfn(tau):
            return (Q0, Q1)[tau] if tau <= 1 else np.zeros((q, q))

        omegas = uniform_grid(16)
        ev = spectral_series(covfn, canonical_scheme, omegas, tol=1e-12)
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

    def test_budget_exhaustion_raises(self, canonical_scheme):
        model = model_from_sbm(canonical_scheme)
        with pytest.raises(ToleranceUnreachable):
            spectral_series(
                markov_covfn(model), canonical_scheme, uniform_grid(8),
                tol=1e-14, tail_ratio=model.stability_ratio, max_terms=3,
            )

    def test_growing_terms_raise_model_unstable(self, canonical_scheme):
        q = canonical_scheme.q

        def covfn(tau):
            return 3.0 ** tau * np.ones((q, q))

        with pytest.raises(ModelUnstable):
            spectral_series(covfn, canonical_scheme, uniform_grid(8), tol=1e-6)

    def test_zero_tail_ratio_for_white_blocks(self, canonical_scheme):
        # Q(tau) = 0 for tau >= 1: the weighted terms decay with ratio 0
        q = canonical_scheme.q
        Q0 = np.array([[2.0, 0.5], [0.5, 1.0]])

        def covfn(tau):
            return Q0 if tau == 0 else np.zeros((q, q))

        omegas = uniform_grid(8)
        ev = spectral_series(covfn, canonical_scheme, omegas, tol=1e-12, tail_ratio=0.0)
        unset = spectral_series(covfn, canonical_scheme, omegas, tol=1e-12)
        K = np.outer(canonical_scheme.s, canonical_scheme.s) ** (
            -canonical_scheme.H
        ) / TWO_PI
        assert np.array_equal(ev.matrices, np.broadcast_to(K * Q0, (8, q, q)))
        assert ev.meta == unset.meta
        assert ev.meta.tail_bound == 0.0

    def test_bad_tail_ratio_rejected(self, canonical_scheme):
        model = model_from_sbm(canonical_scheme)
        with pytest.raises(ModelUnstable):
            spectral_series(
                markov_covfn(model), canonical_scheme, uniform_grid(8),
                tol=1e-8, tail_ratio=1.0,
            )


class TestInversion:
    def test_recovers_block_covariances(self, canonical_scheme):
        model = model_from_sbm(canonical_scheme)
        ev = spectral_markov(model, uniform_grid(16384))
        rec = invert_spectrum(ev, canonical_scheme, range(5))
        assert rec.imag_residue < 1e-8
        for i, tau in enumerate(rec.taus):
            want = covariance_V(model, 0, tau).matrix
            rel = np.max(np.abs(rec.matrices[i] - want) / np.abs(want))
            assert rel < 1e-6

    def test_negative_lags_follow_the_ladder(self, canonical_scheme):
        sch = canonical_scheme
        model = model_from_sbm(sch)
        ev = spectral_markov(model, uniform_grid(8192))
        rec = invert_spectrum(ev, sch, [-2, 2])
        want_pos = covariance_V(model, 0, 2).matrix
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

    def test_empty_lags_rejected(self, canonical_scheme):
        model = model_from_sbm(canonical_scheme)
        ev = spectral_markov(model, uniform_grid(64))
        with pytest.raises(BadInterval):
            invert_spectrum(ev, canonical_scheme, [])


class TestDistributionInterval:
    @staticmethod
    def _diag_coefficients(scheme, entry: int, n_lags: int) -> np.ndarray:
        # stationary-side Fourier coefficients of the (entry, entry) density:
        # B(tau) = (alpha**(tau T) s**2)**(-H) * Q[entry, entry](tau), even in tau
        model = model_from_sbm(scheme)
        s2 = scheme.s[entry] ** 2
        pos = np.array(
            [
                (scheme.alpha ** (tau * scheme.T) * s2) ** (-scheme.H)
                * covariance_V(model, 0, tau).matrix[entry, entry]
                for tau in range(n_lags + 1)
            ]
        )
        return np.concatenate([pos[:0:-1], pos])

    def test_full_circle_mass_is_lag_zero_coefficient(self, canonical_scheme):
        b = self._diag_coefficients(canonical_scheme, 0, 120)
        mass = spectral_distribution_interval(b, 0.0, TWO_PI)
        assert mass.real == pytest.approx(b[120], rel=1e-12)
        assert abs(mass.imag) < 1e-12

    def test_subinterval_matches_density_quadrature(self, canonical_scheme):
        b = self._diag_coefficients(canonical_scheme, 0, 160)
        lo, hi = 0.7, 2.1
        mass = spectral_distribution_interval(b, lo, hi)
        grid = np.linspace(lo, hi, 20001)
        dens = spectral_markov(
            model_from_sbm(canonical_scheme), grid
        ).matrices[:, 0, 0].real
        quad = np.trapezoid(dens, grid)
        assert mass.real == pytest.approx(quad, abs=1e-4)
        assert abs(mass.imag) < 1e-10

    def test_second_diagonal_entry(self, canonical_scheme):
        b = self._diag_coefficients(canonical_scheme, 1, 160)
        lo, hi = 0.0, 1.0
        mass = spectral_distribution_interval(b, lo, hi)
        grid = np.linspace(lo, hi, 20001)
        dens = spectral_markov(
            model_from_sbm(canonical_scheme), grid
        ).matrices[:, 1, 1].real
        assert mass.real == pytest.approx(np.trapezoid(dens, grid), abs=1e-4)

    @pytest.mark.parametrize(
        "lo,hi",
        [(-0.1, 1.0), (0.0, TWO_PI + 0.1), (1.0, 1.0), (2.0, 1.0)],
    )
    def test_bad_interval(self, lo, hi):
        b = np.array([0.5, 1.0, 0.5])
        with pytest.raises(BadInterval):
            spectral_distribution_interval(b, lo, hi)

    def test_even_length_coefficients_rejected(self):
        with pytest.raises(BadInterval):
            spectral_distribution_interval(np.ones(4), 0.0, 1.0)


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

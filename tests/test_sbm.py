"""Reference process: exact covariance, reproducible simulation, estimators."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsi_lab import (
    BadIndex,
    DsiLabError,
    NegativeKappa,
    RangeOverflow,
    RangeTooSmall,
    covariance_V,
    covariance_W,
    estimate_R,
    model_from_sbm,
    sbm_covariance_exact,
    simulate_paths,
    validate_scheme,
)
from conftest import make_scheme, random_scheme, wide_indices, wide_schemes

SQRT2 = math.sqrt(2.0)


def exact_covariance(scheme, kappa1: int, kappa2: int) -> float:
    # lambda**((b1 + b2) H') * min(t1, t2) at 80 digits, from the double
    # inputs: alpha**(T (b1 + b2) (H - 1/2)) * alpha**(n T) * s_u
    with localcontext() as ctx:
        ctx.prec = 80
        alpha = Decimal(scheme.alpha)
        (n1, u1), (n2, u2) = divmod(kappa1, scheme.q), divmod(kappa2, scheme.q)
        t_min = min(
            alpha ** (n * scheme.T) * Decimal(scheme.s[u]) for n, u in ((n1, u1), (n2, u2))
        )
        exponent = scheme.T * (n1 + n2 + 2) * (Decimal(scheme.H) - Decimal("0.5"))
        return float((alpha.ln() * exponent).exp() * t_min)


def block_moments(ensemble, tau_max: int):
    # Q(tau)[u, v] as the mean of W(tau*q + u) W(v) over paths, with its
    # standard error std(ddof=1) / sqrt(P), for an ensemble from kappa = 0
    paths, q = ensemble.paths, ensemble.scheme.q
    shape = (tau_max + 1, q, q)
    value, std_error = np.empty(shape), np.empty(shape)
    for tau, u, v in np.ndindex(shape):
        products = paths[:, tau * q + u] * paths[:, v]
        value[tau, u, v] = products.mean()
        std_error[tau, u, v] = products.std(ddof=1) / math.sqrt(paths.shape[0])
    return value, std_error


class TestExactCovariance:
    def test_frozen_values(self, canonical_scheme):
        assert sbm_covariance_exact(canonical_scheme, 0, 0) == pytest.approx(2.0)
        assert sbm_covariance_exact(canonical_scheme, 1, 1) == pytest.approx(3.0)
        assert sbm_covariance_exact(canonical_scheme, 1, 0) == pytest.approx(2.0)
        # indices 1 and 2 straddle the cycle boundary: bands 1 and 2,
        # min time 1.5, so 2**1.5 * 1.5 = 3 sqrt 2
        assert sbm_covariance_exact(canonical_scheme, 1, 2) == pytest.approx(
            3.0 * SQRT2
        )
        assert sbm_covariance_exact(canonical_scheme, 2, 2) == pytest.approx(8.0)

    def test_symmetry(self, canonical_scheme):
        for k1 in range(6):
            for k2 in range(6):
                assert sbm_covariance_exact(
                    canonical_scheme, k1, k2
                ) == pytest.approx(
                    sbm_covariance_exact(canonical_scheme, k2, k1), rel=1e-15
                )

    def test_h_half_is_plain_brownian(self):
        sch = make_scheme(H=0.5)
        pts = {0: 1.0, 1: 1.5, 2: 2.0, 3: 3.0, 4: 4.0}
        for k1, t1 in pts.items():
            for k2, t2 in pts.items():
                assert sbm_covariance_exact(sch, k1, k2) == pytest.approx(
                    min(t1, t2), rel=1e-14
                )

    def test_summary_chain_identity(self):
        # the flattened model summary must be exactly the restriction of the
        # exact covariance to neighbouring indices
        rng = np.random.default_rng(61)
        for _ in range(10):
            sch = random_scheme(rng, int(rng.integers(1, 6)))
            model = model_from_sbm(sch)
            for j in range(sch.q):
                assert model.R0[j] == pytest.approx(
                    sbm_covariance_exact(sch, j, j), rel=1e-12
                )
                assert model.R1[j] == pytest.approx(
                    sbm_covariance_exact(sch, j + 1, j), rel=1e-12
                )

    def test_overflow_raises_range_overflow(self, canonical_scheme):
        # value 2**(2n + 1) * s_u at kappa = 2n + u: finite up to kappa = 1023
        assert sbm_covariance_exact(canonical_scheme, 1022, 1022) == 2.0 ** 1023
        assert sbm_covariance_exact(canonical_scheme, 1023, 1023) == 1.5 * 2.0 ** 1023
        for kappa in (1024, 1100):
            with pytest.raises(RangeOverflow):
                sbm_covariance_exact(canonical_scheme, kappa, kappa)

    @settings(max_examples=100, deadline=None)
    @given(
        scheme=wide_schemes(),
        kappa1=wide_indices(min_value=0),
        kappa2=wide_indices(min_value=0),
    )
    def test_finite_or_error(self, scheme, kappa1, kappa2):
        # an array kappa1 is a column, so that it broadcasts against kappa2
        kappa1 = kappa1[:, None] if isinstance(kappa1, np.ndarray) else kappa1
        try:
            value = sbm_covariance_exact(scheme, kappa1, kappa2)
        except DsiLabError:
            return
        assert value.shape == np.broadcast_shapes(np.shape(kappa1), np.shape(kappa2))
        assert np.isfinite(value).all()

    def test_exact_reference_agrees_in_the_normal_range(self):
        # the oracle of the pins below, where the closed form is right
        for scheme in (make_scheme(H=1.0), make_scheme(H=0.3, alpha=3.0, T=2)):
            kappa = np.arange(12)
            got = sbm_covariance_exact(scheme, kappa[:, None], kappa)
            want = [[exact_covariance(scheme, k1, k2) for k2 in range(12)] for k1 in range(12)]
            assert np.allclose(got, want, rtol=1e-13, atol=0.0)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="the band factor lam**(b H') is subnormal or flushed to zero "
        "before it multiplies the time",
    )
    @pytest.mark.parametrize(
        "H, alpha, T, s, kappa",
        [
            # returns 5.744807195140361e-16, 1.7e-5 relative off
            (0.01, 5.633447289561719, 29, (1.0, 1.0000000050132924), 29),
            # returns 0.0
            (0.01, 12.013320440969263, 217, (1.0,), 1),
        ],
    )
    def test_band_factor_below_normal_range(self, H, alpha, T, s, kappa):
        scheme = validate_scheme(H=H, alpha=alpha, T=T, s=s)
        want = exact_covariance(scheme, kappa, kappa)
        got = sbm_covariance_exact(scheme, kappa, kappa)
        assert abs(got - want) <= 1e-12 * want

    def test_negative_index_rejected(self, canonical_scheme):
        with pytest.raises(NegativeKappa):
            sbm_covariance_exact(canonical_scheme, -1, 0)
        with pytest.raises(NegativeKappa):
            sbm_covariance_exact(canonical_scheme, 0, -3)

    def test_indices_are_never_truncated_or_wrapped(self, canonical_scheme):
        with pytest.raises(BadIndex):
            sbm_covariance_exact(canonical_scheme, 1.5, 0)
        with pytest.raises(RangeOverflow):
            sbm_covariance_exact(canonical_scheme, 2 ** 62, 2 ** 62)


class TestSimulation:
    def test_shapes_and_metadata(self, canonical_scheme):
        ens = simulate_paths(canonical_scheme, (0, 9), 50, 7)
        assert ens.paths.shape == (50, 10)
        assert ens.grid.times.tolist() == [
            1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0,
        ]
        assert ens.grid.kappa.tolist() == list(range(10))
        assert ens.grid.n.tolist() == [k // 2 for k in range(10)]
        assert ens.grid.u.tolist() == [k % 2 for k in range(10)]

    def test_same_seed_bit_identical(self, canonical_scheme):
        a = simulate_paths(canonical_scheme, (0, 5), 64, 12345)
        b = simulate_paths(canonical_scheme, (0, 5), 64, 12345)
        assert np.array_equal(a.paths, b.paths)

    def test_different_seeds_differ(self, canonical_scheme):
        a = simulate_paths(canonical_scheme, (0, 5), 8, 1)
        b = simulate_paths(canonical_scheme, (0, 5), 8, 2)
        assert not np.array_equal(a.paths, b.paths)

    def test_prefix_property_of_path_streams(self, canonical_scheme):
        # extending the ensemble (more paths) must not disturb earlier paths,
        # also across the 4096-path block boundaries
        small = simulate_paths(canonical_scheme, (0, 5), 10, 4242)
        large = simulate_paths(canonical_scheme, (0, 5), 40, 4242)
        assert np.array_equal(large.paths[:10], small.paths)
        runs = [
            simulate_paths(canonical_scheme, (0, 5), P, 4242).paths
            for P in (4095, 4096, 4097, 8193)
        ]
        for shorter, longer in zip(runs, runs[1:]):
            assert np.array_equal(longer[: len(shorter)], shorter)

    def test_stream_regression_pins(self, canonical_scheme):
        # frozen first outputs of the keyed streams; regenerate if the
        # random-number backend family changes
        ens = simulate_paths(canonical_scheme, (0, 9), 2, 42)
        np.testing.assert_allclose(
            ens.paths[0, :4],
            [
                0.47739811818849237,
                -0.30475536025504907,
                -0.8779162886708496,
                -5.080346967860787,
            ],
            rtol=0.0,
            atol=0.0,
        )
        np.testing.assert_allclose(
            ens.paths[1, :4],
            [
                0.7490422497269823,
                -0.3124644718521266,
                0.16455868027681275,
                -2.4374751424132706,
            ],
            rtol=0.0,
            atol=0.0,
        )

    def test_band_factor_links_different_H(self, canonical_scheme):
        # same seed, same Brownian increments: changing H only rescales each
        # column by the deterministic band factor ladder
        sch_half = make_scheme(H=0.5)
        a = simulate_paths(canonical_scheme, (0, 7), 20, 5)
        b = simulate_paths(sch_half, (0, 7), 20, 5)
        lam = canonical_scheme.scale
        bands = np.array([k // canonical_scheme.q + 1 for k in range(8)])
        ratio = lam ** (bands * (canonical_scheme.H - 0.5))
        assert np.allclose(a.paths, ratio[None, :] * b.paths, rtol=1e-14)

    def test_invalid_inputs(self, canonical_scheme):
        with pytest.raises(NegativeKappa):
            simulate_paths(canonical_scheme, (-1, 5), 4, 0)
        with pytest.raises(BadIndex):
            simulate_paths(canonical_scheme, (5, 2), 4, 0)
        with pytest.raises(RangeTooSmall):
            simulate_paths(canonical_scheme, (0, 5), 0, 0)
        with pytest.raises(BadIndex):
            simulate_paths(canonical_scheme, (0, 5), 4, -1)
        with pytest.raises(BadIndex):
            simulate_paths(canonical_scheme, (0, 5), 4, 2 ** 64)
        # the range is read before the sign test: a bound that is not a
        # number, or a range that is not a pair, raises BadIndex, and a start
        # far below zero is still a NegativeKappa, not a RangeOverflow
        for kappa_range in (("x", 3), None, (0, 1, 2)):
            with pytest.raises(BadIndex):
                simulate_paths(canonical_scheme, kappa_range, 4, 0)
        with pytest.raises(NegativeKappa):
            simulate_paths(canonical_scheme, (-(2 ** 70), 3), 4, 0)
        # read, not truncated: (0, 3.7) was kappa 0..3 and (0.5, 3) started at 0
        for kappa_range, P in (((0, 3.7), 4), ((0.5, 3), 4), ((0, 3), 2.5)):
            with pytest.raises(BadIndex):
                simulate_paths(canonical_scheme, kappa_range, P, 0)
        # integral floats count as their values
        ens = simulate_paths(canonical_scheme, (0.0, 3.0), 4.0, 0)
        assert ens.grid.kappa.dtype.kind == "i" and ens.grid.kappa.tolist() == [0, 1, 2, 3]
        assert np.array_equal(ens.paths, simulate_paths(canonical_scheme, (0, 3), 4, 0).paths)

    def test_matches_freshly_built_streams(self):
        # block b of 4096 paths is one fresh Philox keyed by (seed, b), its
        # rows filled in row-major order; P spans three blocks, the last
        # one partial, and most paths start part-way through one of
        # Philox's four-word output blocks
        P = 2 * 4096 + 41
        sch = make_scheme(H=0.5)  # band factors are all exactly 1
        for seed in (0, 1, 2 ** 63 + 5, 2 ** 64 - 1):
            for K in (1, 2, 7, 10, 33):
                ens = simulate_paths(sch, (0, K - 1), P, seed)
                z = np.concatenate(
                    [
                        np.random.Generator(
                            np.random.Philox(key=seed | b << 64)
                        ).standard_normal((min(P - lo, 4096), K))
                        for b, lo in enumerate(range(0, P, 4096))
                    ]
                )
                inc_std = np.sqrt(np.diff(ens.grid.times, prepend=0.0))
                want = np.cumsum(inc_std * z, axis=1)
                assert np.array_equal(ens.paths, want), (seed, K)

    def test_non_integral_seeds_rejected(self, canonical_scheme):
        for seed in (1.5, -0.5, float("nan"), float("inf"), True, False, "3"):
            with pytest.raises(BadIndex):
                simulate_paths(canonical_scheme, (0, 3), 4, seed)
        # integral values of other numeric types are the same seed
        base = simulate_paths(canonical_scheme, (0, 3), 4, 3).paths
        for seed in (3.0, np.uint64(3), np.int32(3)):
            ens = simulate_paths(canonical_scheme, (0, 3), 4, seed)
            assert np.array_equal(ens.paths, base)

    @settings(max_examples=100, deadline=None)
    @given(
        scheme=wide_schemes(),
        kappa_min=st.integers(min_value=0, max_value=3000),
        span=st.integers(min_value=0, max_value=20),
        P=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2 ** 64 - 1),
    )
    def test_finite_or_error(self, scheme, kappa_min, span, P, seed):
        try:
            ens = simulate_paths(scheme, (kappa_min, kappa_min + span), P, seed)
        except DsiLabError:
            return
        assert ens.paths.shape == (P, span + 1)
        assert np.isfinite(ens.grid.times).all() and np.isfinite(ens.paths).all()

    def test_overflowing_paths_raise(self):
        # H = 3 puts band factors near lambda**(351 * 2.5) = 2**877 at kappa 700
        with pytest.raises(RangeOverflow):
            simulate_paths(make_scheme(H=3.0), (0, 700), 3, 0)
        ens = simulate_paths(make_scheme(H=3.0), (0, 100), 3, 0)
        assert np.isfinite(ens.paths).all()


class TestEstimators:
    @pytest.fixture(scope="class")
    @staticmethod
    def big_ensemble():
        return simulate_paths(make_scheme(H=1.0), (0, 9), 20000, 42)

    def test_moments_match_model_within_three_se(self, big_ensemble):
        model = model_from_sbm(big_ensemble.scheme)
        q = big_ensemble.scheme.q
        for lag, est in enumerate(estimate_R(big_ensemble)):
            assert est.value.shape == est.std_error.shape == (q,)
            want = covariance_W(model, np.arange(q), lag)
            assert (est.std_error > 0).all()
            assert (np.abs(est.value - want) <= 3.0 * est.std_error).all()

    def test_block_moments_within_four_se(self, big_ensemble):
        model = model_from_sbm(big_ensemble.scheme)
        value, std_error = block_moments(big_ensemble, 3)
        want = covariance_V(model, 0, range(4))
        assert value.shape == want.shape == (4, 2, 2)
        z = np.abs(value - want) / std_error
        assert np.max(z) <= 4.0

    def test_lag_zero_block_estimate_is_symmetric_target(self, big_ensemble):
        # the tau = 0 moment matrix estimates E[W(u) W(v)], which is the
        # symmetrized matrix, not the one-sided product form
        model = model_from_sbm(big_ensemble.scheme)
        value, std_error = (field[0] for field in block_moments(big_ensemble, 0))
        want = covariance_V(model, 0, 0)
        z = np.abs(value - want) / std_error
        assert np.max(z) <= 4.0
        assert want[0, 1] == want[1, 0]

    def test_coverage_requirements(self, canonical_scheme):
        narrow = simulate_paths(canonical_scheme, (0, 1), 16, 3)
        with pytest.raises(RangeTooSmall):
            estimate_R(narrow)
        single = simulate_paths(canonical_scheme, (0, 4), 1, 3)
        with pytest.raises(RangeTooSmall):
            estimate_R(single)

    def test_products_past_double_range_raise(self):
        # q = 1, lambda = 1e30, H = 5: the paths are finite (about 1e135 and
        # 1e285), their product at lag one is not
        ens = simulate_paths(make_scheme(H=5.0, alpha=1e30, s=(1.0,)), (0, 1), 4, 0)
        assert np.isfinite(ens.paths).all()
        with pytest.raises(RangeOverflow):
            estimate_R(ens)

    @settings(max_examples=100, deadline=None)
    @given(
        scheme=wide_schemes(),
        extra=st.integers(min_value=0, max_value=8),
        P=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=2 ** 64 - 1),
    )
    def test_finite_or_error(self, scheme, extra, P, seed):
        # an ensemble that covers what estimate_R needs
        try:
            ens = simulate_paths(scheme, (0, scheme.q + extra), P, seed)
        except DsiLabError:
            return
        try:
            estimates = estimate_R(ens)
        except DsiLabError:
            return
        for value, std_error in estimates:
            assert value.shape == std_error.shape
            assert np.isfinite(value).all() and np.isfinite(std_error).all()
            assert (std_error >= 0.0).all()

    @settings(max_examples=40, deadline=None)
    @given(
        q=st.integers(min_value=1, max_value=4),
        P=st.integers(min_value=2, max_value=50),
        seed=st.integers(min_value=0, max_value=2 ** 64 - 1),
    )
    def test_estimators_agree_with_per_entry_moments(self, q, P, seed):
        # R0 and R1 are the per-entry moments and standard errors of
        # W(j) W(j) and W(j+1) W(j), bit for bit
        sch = random_scheme(np.random.default_rng(seed % 2 ** 32), q)
        ens = simulate_paths(sch, (0, 2 * q - 1), P, seed)
        value, std_error = block_moments(ens, 1)
        r0, r1 = estimate_R(ens)
        j = np.arange(q)
        # R0[j] = Q(0)[j, j]; R1[j] = Q(0)[j+1, j] for j < q-1, and the wrap
        # R1[q-1] = Q(1)[0, q-1]
        for R, index in ((r0, (0, j, j)), (r1, ((j == q - 1) * 1, (j + 1) % q, j))):
            assert np.array_equal(R.value, value[index])
            assert np.array_equal(R.std_error, std_error[index])

    def test_calibration_across_seeds(self):
        # z-scores of repeated small ensembles behave like standard normals:
        # the overwhelming majority within two standard errors
        sch = make_scheme(H=0.75)
        model = model_from_sbm(sch)
        want = covariance_W(model, 0, 0)
        hits = 0
        n_runs = 40
        for seed in range(n_runs):
            ens = simulate_paths(sch, (0, 2), 400, seed)
            r0, _ = estimate_R(ens)
            if abs(r0.value[0] - want) <= 2.0 * r0.std_error[0]:
                hits += 1
        assert hits >= 33  # binomial(40, 0.95): falling below this is freak-rare

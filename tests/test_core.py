"""Index algebra, scheme validation and sample time geometry."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dsi_lab import (
    BadBase,
    BadIndex,
    NonIncreasingOffsets,
    OffsetOutOfRange,
    RangeOverflow,
    embed_index,
    sample_points,
    sample_time,
    split_index,
    validate_scheme,
)
from conftest import make_scheme, random_scheme


class TestSplitIndex:
    def test_nonnegative_examples(self):
        assert split_index(0, 2) == (0, 0)
        assert split_index(1, 2) == (0, 1)
        assert split_index(5, 2) == (2, 1)
        assert split_index(7, 1) == (7, 0)

    def test_negative_examples_floor_semantics(self):
        # frozen from brute-force search of the unique (n, u) with
        # n*q + u = kappa and 0 <= u < q
        assert split_index(-1, 3) == (-1, 2)
        assert split_index(-1, 2) == (-1, 1)
        assert split_index(-4, 3) == (-2, 2)
        assert split_index(-6, 3) == (-2, 0)

    @pytest.mark.parametrize("q", [1, 2, 3, 5, 8])
    def test_brute_force_oracle(self, q):
        for kappa in range(-50, 51):
            found = [
                (n, u)
                for n in range(-60, 61)
                for u in range(q)
                if n * q + u == kappa
            ]
            assert len(found) == 1
            assert split_index(kappa, q) == found[0]

    def test_rejects_bad_q(self):
        with pytest.raises(BadIndex):
            split_index(3, 0)


class TestEmbedIndex:
    def test_examples(self):
        assert embed_index(2, 1, 2) == 5
        assert embed_index(-1, 2, 3) == -1

    def test_rejects_offset_outside_block(self):
        with pytest.raises(OffsetOutOfRange):
            embed_index(0, 2, 2)
        with pytest.raises(OffsetOutOfRange):
            embed_index(0, -1, 2)

    @given(
        kappa=st.integers(min_value=-1000, max_value=1000),
        q=st.integers(min_value=1, max_value=8),
    )
    def test_bijection_with_split(self, kappa, q):
        n, u = split_index(kappa, q)
        assert 0 <= u < q
        assert embed_index(n, u, q) == kappa

    @given(
        n=st.integers(min_value=-500, max_value=500),
        u=st.integers(min_value=0, max_value=7),
        q=st.integers(min_value=1, max_value=8),
    )
    def test_split_inverts_embed(self, n, u, q):
        if u >= q:
            return
        assert split_index(embed_index(n, u, q), q) == (n, u)


class TestValidateScheme:
    def test_canonical(self):
        sch = validate_scheme(H=1.0, alpha=2.0, T=1, s=(1.0, 1.5))
        assert sch.q == 2
        assert sch.scale == 2.0
        assert sch.s == (1.0, 1.5)

    def test_single_offset(self):
        sch = validate_scheme(H=0.5, alpha=1.5, T=2, s=(1.2,))
        assert sch.q == 1

    def test_explicit_q_must_match(self):
        with pytest.raises(BadIndex):
            validate_scheme(H=1.0, alpha=2.0, T=1, s=(1.0, 1.5), q=3)

    @pytest.mark.parametrize("s", [(1.0, 1.0), (1.5, 1.0), (1.0, 1.2, 1.1)])
    def test_non_increasing_offsets(self, s):
        with pytest.raises(NonIncreasingOffsets):
            validate_scheme(H=1.0, alpha=2.0, T=1, s=s)

    @pytest.mark.parametrize("s", [(0.5, 1.5), (1.0, 2.0), (1.0, 2.5)])
    def test_offsets_outside_cycle(self, s):
        # cycle is [1, alpha**T) = [1, 2); the upper end is exclusive
        with pytest.raises(OffsetOutOfRange):
            validate_scheme(H=1.0, alpha=2.0, T=1, s=s)

    @pytest.mark.parametrize("alpha", [1.0, 0.5, -2.0, math.inf])
    def test_bad_base(self, alpha):
        with pytest.raises(BadBase):
            validate_scheme(H=1.0, alpha=alpha, T=1, s=(1.0,))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(H=0.0),
            dict(H=-0.3),
            dict(H=math.nan),
            dict(T=0),
            dict(T=-1),
        ],
    )
    def test_bad_structural_parameters(self, kwargs):
        base = dict(H=1.0, alpha=2.0, T=1, s=(1.0, 1.5))
        base.update(kwargs)
        with pytest.raises(BadIndex):
            validate_scheme(**base)


class TestSampleGeometry:
    def test_canonical_times(self, canonical_scheme):
        grid = sample_points(canonical_scheme, 0, 3)
        assert grid.times.tolist() == [1.0, 1.5, 2.0, 3.0]
        assert list(zip(grid.kappa.tolist(), grid.n.tolist(), grid.u.tolist())) == [
            (0, 0, 0),
            (1, 0, 1),
            (2, 1, 0),
            (3, 1, 1),
        ]

    def test_negative_cycle_times(self, canonical_scheme):
        grid = sample_points(canonical_scheme, -2, -1)
        assert grid.times.tolist() == [0.5, 0.75]

    def test_times_strictly_increasing(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            sch = random_scheme(rng, int(rng.integers(1, 6)))
            times = sample_points(sch, -8, 8).times
            assert np.all(np.diff(times) > 0)

    def test_cycle_advances_time_by_scale(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            sch = random_scheme(rng, int(rng.integers(1, 6)))
            for kappa in range(-6, 7):
                t0 = sample_time(sch, kappa)
                t1 = sample_time(sch, kappa + sch.q)
                assert t1 == pytest.approx(sch.scale * t0, rel=1e-12)

    def test_empty_range_rejected(self, canonical_scheme):
        with pytest.raises(BadIndex):
            sample_points(canonical_scheme, 3, 2)

    def test_range_overflow_far_future(self, canonical_scheme):
        # log(time) ~ 1050 * log 2 ~ 728 > 709
        with pytest.raises(RangeOverflow):
            sample_time(canonical_scheme, 2 * 1050)

    def test_range_overflow_near_zero(self, canonical_scheme):
        with pytest.raises(RangeOverflow):
            sample_time(canonical_scheme, -2 * 1050)

    def test_large_but_representable(self, canonical_scheme):
        t = sample_time(canonical_scheme, 2 * 1000)
        assert t == pytest.approx(2.0 ** 1000)

    def test_scheme_with_wide_cycle(self):
        sch = make_scheme(H=0.7, alpha=3.0, T=2, s=(1.0, 4.0, 8.5))
        grid = sample_points(sch, 0, 5)
        assert grid.times.tolist() == [1.0, 4.0, 8.5, 9.0, 36.0, 76.5]

    def test_grid_matches_scalar_functions(self):
        # bit for bit: the grid's times are the floats sample_time returns
        rng = np.random.default_rng(23)
        kappas = range(-40, 41)
        for _ in range(30):
            sch = random_scheme(rng, int(rng.integers(1, 6)))
            grid = sample_points(sch, -40, 40)
            assert grid.kappa.tolist() == list(kappas)
            assert list(zip(grid.n.tolist(), grid.u.tolist())) == [
                split_index(k, sch.q) for k in kappas
            ]
            assert grid.times.tolist() == [sample_time(sch, k) for k in kappas]

    @pytest.mark.parametrize("kappa_range", [(0, 2100), (-2100, 0)])
    def test_grid_range_overflow_at_either_end(self, canonical_scheme, kappa_range):
        with pytest.raises(RangeOverflow):
            sample_points(canonical_scheme, *kappa_range)

"""Index algebra, scheme validation and sample time geometry."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsi_lab import (
    BadBase,
    BadIndex,
    DsiLabError,
    NonIncreasingOffsets,
    OffsetOutOfRange,
    RangeOverflow,
    SamplingScheme,
    sample_points,
    sample_time,
    split_index,
    validate_scheme,
)
from conftest import make_scheme, random_scheme, run_python, wide_indices, wide_schemes


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

    @pytest.mark.parametrize(
        "kappa, q", [(1.5, 2), (2, 1.5), (math.nan, 2), (math.inf, 2), ("x", 2)]
    )
    def test_rejects_non_integral_index(self, kappa, q):
        # no truncation: split_index(1.5, 2) was (0, 1)
        with pytest.raises(BadIndex):
            split_index(kappa, q)

    def test_integral_float_counts_as_its_value(self):
        assert split_index(5.0, 2.0) == (2, 1)
        assert split_index(np.int64(-1), 3) == (-1, 2)

    def test_index_past_int64_range_is_range_overflow(self):
        # the index_arrays rule: |kappa| < 2**61, so that n*q + u stays in int64
        with pytest.raises(RangeOverflow):
            split_index(2 ** 70, 3)


def _offset_scheme(q: int):
    # q offsets in the base cycle [1, 2): the time of every cycle n in
    # [-1000, 1000] is a normal double
    return make_scheme(s=tuple(1.0 + u / q for u in range(q)))


class TestEmbedIndex:
    """The embedding kappa = n*q + u, 0 <= u < q, as sample_points lays it out."""

    def test_examples(self):
        grid = sample_points(_offset_scheme(2), 5, 5)
        assert (grid.n.tolist(), grid.u.tolist()) == ([2], [1])
        grid = sample_points(_offset_scheme(3), -1, -1)
        assert (grid.n.tolist(), grid.u.tolist()) == ([-1], [2])

    @given(
        kappa=st.integers(min_value=-1000, max_value=990),
        span=st.integers(min_value=0, max_value=10),
        q=st.integers(min_value=1, max_value=8),
    )
    def test_bijection_with_split(self, kappa, span, q):
        grid = sample_points(_offset_scheme(q), kappa, kappa + span)
        assert (grid.kappa == grid.n * q + grid.u).all()
        assert ((0 <= grid.u) & (grid.u < q)).all()
        for k, n, u in zip(grid.kappa.tolist(), grid.n.tolist(), grid.u.tolist()):
            assert split_index(k, q) == (n, u)

    @given(
        n=st.integers(min_value=-500, max_value=500),
        u=st.integers(min_value=0, max_value=7),
        q=st.integers(min_value=1, max_value=8),
    )
    def test_split_inverts_embed(self, n, u, q):
        if u >= q:
            return
        grid = sample_points(_offset_scheme(q), n * q + u, n * q + u)
        assert (grid.n.tolist(), grid.u.tolist()) == ([n], [u])


class TestValidateScheme:
    def test_canonical(self):
        sch = validate_scheme(H=1.0, alpha=2.0, T=1, s=(1.0, 1.5))
        assert sch.q == 2
        assert sch.scale == 2.0
        assert sch.s == (1.0, 1.5)

    def test_single_offset(self):
        sch = validate_scheme(H=0.5, alpha=1.5, T=2, s=(1.2,))
        assert sch.q == 1

    def test_one_constructor_derives_q(self):
        # q is len(s), not a field, and validate_scheme is the constructor
        assert [f.name for f in dataclasses.fields(SamplingScheme)] == ["H", "alpha", "T", "s"]
        sch = SamplingScheme(1.0, 2.0, 1, (1.0, 1.2, 1.5))
        assert sch.q == len(sch.s) == 3
        assert validate_scheme is SamplingScheme
        with pytest.raises(TypeError):
            validate_scheme(H=1.0, alpha=2.0, T=1, s=(1.0, 1.5), q=3)

    def test_fields_are_normalized(self, canonical_scheme):
        sch = SamplingScheme(H=1, alpha=2, T=1, s=[1, 1.5])
        assert sch == canonical_scheme
        assert type(sch.s) is tuple and type(sch.T) is int and type(sch.H) is float
        assert hash(sch) == hash(canonical_scheme)
        assert validate_scheme(H=1.0, alpha=2.0, T=2.0, s=(1.0, 1.5)).T == 2

    def test_replace_checks_again(self, canonical_scheme):
        with pytest.raises(BadIndex):
            dataclasses.replace(canonical_scheme, H=-1)

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
            # read, not truncated (T = 1.5 was T = 1) or a raw ValueError
            dict(T=1.5),
            dict(H="x"),
            dict(s=(1, "y")),
            dict(s=5.0),
            dict(s=()),
            # refused, not truncated to their real parts (1 and (1, 1.5))
            dict(T=np.array(1 + 1j)),
            dict(s=np.array([1.0, 1.5 + 0.5j])),
        ],
    )
    def test_bad_structural_parameters(self, kwargs):
        base = dict(H=1.0, alpha=2.0, T=1, s=(1.0, 1.5))
        base.update(kwargs)
        with pytest.raises(BadIndex):
            validate_scheme(**base)

    @pytest.mark.parametrize(
        "alpha, T", [(2.0, 1024), (2.0, 3000), (1e300, 2)], ids=["edge", "T", "alpha"]
    )
    def test_cycle_scale_overflow(self, alpha, T):
        # alpha**T past the largest double; 1024 * ln 2 rounds to ln(DBL_MAX)
        with pytest.raises(RangeOverflow):
            validate_scheme(H=1.0, alpha=alpha, T=T, s=(1.0, 1.5))
        assert validate_scheme(H=1.0, alpha=2.0, T=1023, s=(1.0, 1.5)).scale == 2.0 ** 1023


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

    def test_small_but_representable(self, canonical_scheme):
        # 2**-1023 is subnormal but above 1 / DBL_MAX, so it has not flushed
        assert sample_time(canonical_scheme, -2046) == 2.0 ** -1023

    @pytest.mark.xfail(strict=True, raises=RangeOverflow, reason="alpha**(n*T) alone flushes")
    def test_time_whose_cycle_power_flushes(self):
        # t = alpha**(-2) * s_1 = 1e-400 * 1e199 is a normal double, but the
        # cycle power is formed first and is 0.0
        scheme = validate_scheme(H=1.0, alpha=1e200, T=1, s=(1.0, 1e199))
        assert sample_time(scheme, -3) == pytest.approx(1e-201, rel=1e-14)

    @pytest.mark.parametrize("kappa", [2 ** 70, -(2 ** 70), 2 ** 62, 2 ** 64])
    def test_index_past_int64_arithmetic(self, canonical_scheme, kappa):
        with pytest.raises(RangeOverflow):
            sample_time(canonical_scheme, kappa)

    @pytest.mark.parametrize("kappa", [2.5, math.nan, math.inf, [0, 1.5]])
    def test_non_integral_index(self, canonical_scheme, kappa):
        with pytest.raises(BadIndex):
            sample_time(canonical_scheme, kappa)

    def test_array_of_times(self, canonical_scheme):
        # an integral float counts as its value; a scalar gives numpy.float64
        t = sample_time(canonical_scheme, 3.0)
        assert type(t) is np.float64 and t == 3.0
        times = sample_time(canonical_scheme, np.arange(-2, 4).reshape(2, 3))
        assert times.tolist() == [[0.5, 0.75, 1.0], [1.5, 2.0, 3.0]]

    @settings(max_examples=100, deadline=None)
    @given(scheme=wide_schemes(), kappa=wide_indices())
    def test_sample_time_finite_or_error(self, scheme, kappa):
        try:
            t = sample_time(scheme, kappa)
        except DsiLabError:
            return
        assert t.shape == np.shape(kappa)
        assert np.isfinite(t).all() and (t > 0.0).all()

    @settings(max_examples=100, deadline=None)
    @given(
        scheme=wide_schemes(),
        kappa_min=st.integers(min_value=-5000, max_value=5000),
        span=st.integers(min_value=0, max_value=40),
    )
    def test_sample_points_finite_or_error(self, scheme, kappa_min, span):
        try:
            grid = sample_points(scheme, kappa_min, kappa_min + span)
        except DsiLabError:
            return
        assert grid.times.size == span + 1
        assert np.isfinite(grid.times).all() and (grid.times > 0.0).all()

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


def test_star_import_resolves_every_public_name():
    import dsi_lab

    namespace: dict = {}
    exec("from dsi_lab import *", namespace)
    assert set(dsi_lab.__all__) <= namespace.keys()
    for name in dsi_lab.__all__:
        assert namespace[name] is getattr(dsi_lab, name)


@pytest.mark.parametrize(
    "name",
    [
        "embed_index",
        "spectral_distribution_interval",
        "estimate_Q",
        "doob_factorization",
        "embedded_to_stationary",
        "f_tilde",
    ],
)
def test_removed_names_are_gone(name):
    # the public surface is what the commands and checks use; split_index
    # stays while the benchmark still counts its calls
    import dsi_lab

    assert name not in dsi_lab.__all__
    with pytest.raises(AttributeError):
        getattr(dsi_lab, name)
    with pytest.raises(ImportError):
        exec(f"from dsi_lab import {name}", {})
    assert "split_index" in dsi_lab.__all__
    assert dsi_lab.split_index(5, 2) == (2, 1)


def test_import_is_lazy():
    # a bare import loads neither a submodule nor numpy; the first use of a
    # public name imports its module and caches the name in the package
    run_python(
        "import sys, dsi_lab\n"
        "assert 'numpy' not in sys.modules\n"
        "assert not [m for m in sys.modules if m.startswith('dsi_lab.')]\n"
        "dsi_lab.covariance_W\n"
        "assert 'numpy' in sys.modules and 'covariance_W' in vars(dsi_lab)\n"
    )


def test_unknown_name_is_attribute_error():
    import dsi_lab

    with pytest.raises(AttributeError, match="'nosuch'"):
        dsi_lab.nosuch

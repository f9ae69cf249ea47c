"""Frame changes between the stationary and self-similar views."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsi_lab import (
    BadBase,
    BadIndex,
    DsiLabError,
    NonPositivePoint,
    RangeOverflow,
    SelfSimilarGrid,
    StationaryGrid,
    inverse_quasi_lamperti,
    quasi_lamperti,
)


class TestGridTypes:
    def test_times_must_increase(self):
        with pytest.raises(BadIndex):
            StationaryGrid(times=[0.0, 0.0], values=[1.0, 1.0])

    def test_lengths_must_match(self):
        with pytest.raises(BadIndex):
            StationaryGrid(times=[0.0, 1.0], values=[1.0])

    def test_points_must_be_positive(self):
        with pytest.raises(NonPositivePoint):
            SelfSimilarGrid(points=[0.0, 1.0], values=[1.0, 1.0])
        with pytest.raises(NonPositivePoint):
            SelfSimilarGrid(points=[-1.0, 1.0], values=[1.0, 1.0])


class TestQuasiLamperti:
    def test_constant_input_picks_up_envelope(self):
        y = StationaryGrid(times=[0.0, 1.0, 2.0], values=[1.0, 1.0, 1.0])
        x = quasi_lamperti(y, H=1.0, alpha=2.0)
        assert x.points.tolist() == [1.0, 2.0, 4.0]
        assert x.values.tolist() == [1.0, 2.0, 4.0]

    def test_alternating_input(self):
        y = StationaryGrid(times=[0.0, 1.0], values=[1.0, -1.0])
        x = quasi_lamperti(y, H=0.5, alpha=4.0)
        assert x.points.tolist() == [1.0, 4.0]
        assert x.values.tolist() == [1.0, -2.0]

    def test_inverse_strips_envelope(self):
        x = SelfSimilarGrid(points=[1.0, 2.0, 4.0], values=[1.0, 2.0, 4.0])
        y = inverse_quasi_lamperti(x, H=1.0, alpha=2.0)
        assert y.times.tolist() == [0.0, 1.0, 2.0]
        assert y.values.tolist() == [1.0, 1.0, 1.0]

    def test_inverse_square_root_case(self):
        x = SelfSimilarGrid(points=[1.0, 4.0], values=[1.0, 2.0])
        y = inverse_quasi_lamperti(x, H=0.5, alpha=4.0)
        assert y.times.tolist() == [0.0, 1.0]
        assert y.values.tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("alpha", [1.0, 0.3])
    def test_bad_base(self, alpha):
        y = StationaryGrid(times=[0.0], values=[1.0])
        with pytest.raises(BadBase):
            quasi_lamperti(y, H=1.0, alpha=alpha)
        x = SelfSimilarGrid(points=[1.0], values=[1.0])
        with pytest.raises(BadBase):
            inverse_quasi_lamperti(x, H=1.0, alpha=alpha)

    def test_bad_index(self):
        # H is checked before alpha, as in SamplingScheme
        y = StationaryGrid(times=[0.0], values=[1.0])
        x = SelfSimilarGrid(points=[1.0], values=[1.0])
        for alpha in (2.0, 0.3):
            with pytest.raises(BadIndex):
                quasi_lamperti(y, H=0.0, alpha=alpha)
            with pytest.raises(BadIndex):
                inverse_quasi_lamperti(x, H=math.nan, alpha=alpha)

    def test_overflow_guard(self):
        y = StationaryGrid(times=[0.0, 1.5e3], values=[1.0, 1.0])
        with pytest.raises(RangeOverflow):
            quasi_lamperti(y, H=1.0, alpha=2.0)
        # a point 2**-1500, or an envelope (2**-400)**3, flushes towards zero
        for times, H in (([-1500.0, 0.0], 1.0), ([-400.0, 0.0], 3.0)):
            y = StationaryGrid(times=times, values=[1.0, 1.0])
            with pytest.raises(RangeOverflow):
                quasi_lamperti(y, H=H, alpha=2.0)

    @pytest.mark.parametrize(
        "t, H, flushed",
        [
            # a point 2**t against 1 / DBL_MAX = 2**-1024
            (-1023.0, 1.0, False),
            (-1024.0, 1.0, True),
            (-1075.0, 1.0, True),
            # an envelope (2**t)**2 against the same bound
            (-511.0, 2.0, False),
            (-512.0, 2.0, True),
            (-513.0, 2.0, True),
        ],
    )
    def test_overflow_guard_boundary(self, t, H, flushed):
        y = StationaryGrid(times=[t, 0.0], values=[1.0, 1.0])
        if flushed:
            with pytest.raises(RangeOverflow, match="flushes towards zero"):
                quasi_lamperti(y, H=H, alpha=2.0)
        else:
            x = quasi_lamperti(y, H=H, alpha=2.0)
            assert x.points[0] == 2.0 ** t
            assert x.values[0] == 2.0 ** (H * t)

    def test_value_overflow_guard(self):
        # the envelope 2**40 is in range, 2**40 * 1e300 is not
        y = StationaryGrid(times=[0.0, 40.0], values=[1.0, 1e300])
        with pytest.raises(RangeOverflow):
            quasi_lamperti(y, H=1.0, alpha=2.0)
        y = StationaryGrid(times=[0.0, 40.0], values=[0.0, 1e200])
        x = quasi_lamperti(y, H=1.0, alpha=2.0)
        assert x.values.tolist() == [0.0, 2.0 ** 40 * 1e200]

    @settings(max_examples=100, deadline=None)
    @given(
        times=st.lists(
            st.floats(min_value=-200.0, max_value=200.0), min_size=1, max_size=8, unique=True
        ),
        values=st.lists(
            st.floats(min_value=-1e300, max_value=1e300), min_size=8, max_size=8
        ),
        H=st.floats(min_value=0.05, max_value=3.0),
        alpha=st.floats(min_value=1.1, max_value=8.0),
    )
    def test_forward_finite_or_error(self, times, values, H, alpha):
        y = StationaryGrid(times=sorted(times), values=values[: len(times)])
        try:
            x = quasi_lamperti(y, H, alpha)
        except DsiLabError:
            return
        assert np.all(np.isfinite(x.points)) and np.all(np.isfinite(x.values))

    def test_inverse_overflow_guard(self):
        # 1e-320 ** -1 is about 1e320, past the largest double
        x = SelfSimilarGrid(points=[1e-320, 1.0], values=[1.0, 1.0])
        with pytest.raises(RangeOverflow):
            inverse_quasi_lamperti(x, H=1.0, alpha=2.0)
        # the envelope is in range, the rescaled value is not
        x = SelfSimilarGrid(points=[1e-308, 1.0], values=[10.0, 1.0])
        with pytest.raises(RangeOverflow):
            inverse_quasi_lamperti(x, H=1.0, alpha=2.0)
        x = SelfSimilarGrid(points=[1e-300, 1.0], values=[1.0, 1.0])
        y = inverse_quasi_lamperti(x, H=1.0, alpha=2.0)
        assert y.values.tolist() == pytest.approx([1e300, 1.0], rel=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(
        points=st.lists(
            st.floats(min_value=1e-320, max_value=1e300), min_size=1, max_size=8, unique=True
        ),
        values=st.lists(
            st.floats(min_value=-1e300, max_value=1e300), min_size=8, max_size=8
        ),
        H=st.floats(min_value=0.05, max_value=3.0),
        alpha=st.floats(min_value=1.1, max_value=8.0),
    )
    def test_inverse_finite_or_error(self, points, values, H, alpha):
        points = sorted(points)
        x = SelfSimilarGrid(points=points, values=values[: len(points)])
        try:
            y = inverse_quasi_lamperti(x, H, alpha)
        except DsiLabError:
            return
        assert np.all(np.isfinite(y.times)) and np.all(np.isfinite(y.values))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
        H=st.floats(min_value=0.05, max_value=3.0),
        alpha=st.floats(min_value=1.1, max_value=8.0),
    )
    def test_roundtrip_is_identity(self, seed, H, alpha):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        times = np.sort(rng.uniform(-20.0, 20.0, size=n))
        times = times[np.concatenate([[True], np.diff(times) > 1e-6])]
        values = rng.standard_normal(times.size)
        y = StationaryGrid(times=times, values=values)
        back = inverse_quasi_lamperti(quasi_lamperti(y, H, alpha), H, alpha)
        assert np.max(np.abs(back.times - y.times)) <= 1e-12 * (
            1.0 + np.max(np.abs(y.times))
        )
        assert np.max(np.abs(back.values - y.values)) <= 1e-12 * (
            1.0 + np.max(np.abs(y.values))
        )

    def test_roundtrip_other_direction(self):
        rng = np.random.default_rng(3)
        points = np.sort(rng.uniform(0.01, 50.0, size=25))
        x = SelfSimilarGrid(points=points, values=rng.standard_normal(25))
        back = quasi_lamperti(inverse_quasi_lamperti(x, 0.8, 3.0), 0.8, 3.0)
        assert np.max(np.abs(back.points - x.points)) <= 1e-12 * np.max(x.points)
        assert np.max(np.abs(back.values - x.values)) <= 1e-12 * (
            1.0 + np.max(np.abs(x.values))
        )

    def test_white_noise_covariance_transport(self):
        # iid unit-variance stationary input: the transformed process must
        # show E[X(t_i) X(t_j)] = (t_i t_j)**H * delta_ij
        H, alpha = 0.75, 2.0
        rng = np.random.default_rng(17)
        times = np.array([-1.0, 0.0, 0.5, 1.0])
        P = 5000
        X = np.empty((P, times.size))
        for i in range(P):
            y = StationaryGrid(times=times, values=rng.standard_normal(times.size))
            X[i] = quasi_lamperti(y, H, alpha).values
        emp = X.T @ X / P
        points = alpha ** times
        variances = (points ** 2) ** H
        want = np.diag(variances)
        se = np.sqrt(
            np.outer(variances, variances) * (1.0 + np.eye(times.size)) / P
        )
        z = (emp - want) / se
        assert np.max(np.abs(z)) < 5.0

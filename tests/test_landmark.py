import numpy as np
import pytest

from curveshift import (
    CurveSet,
    LandmarkConfig,
    landmark_shifts,
    max_location,
    smooth,
)
from curveshift.landmark import default_bandwidth

T = 2.0 * np.pi

# Smoothed-max accuracy on a noisy unit cosine (n = 51, sigma = 1,
# bandwidth 1.2): measured rate of landing within 3 grid steps of the true
# maximum was 0.935 over 200 replicates with the Philox seed below.
COSINE_RATE_SEED = 424242
COSINE_RATE_BOUND = 0.90


class TestSmooth:
    def test_constant_curve_unchanged(self):
        y = np.full(31, 4.25)
        out = smooth(y, T, LandmarkConfig(bandwidth=0.5))
        assert np.max(np.abs(out - y)) < 1e-12

    def test_tiny_bandwidth_reproduces_input(self):
        rng = np.random.default_rng(0)
        n = 41
        y = rng.normal(size=n)
        out = smooth(y, T, LandmarkConfig(bandwidth=T / (100 * n)))
        assert np.max(np.abs(out - y)) < 1e-6

    def test_linear_in_values(self):
        rng = np.random.default_rng(1)
        n = 25
        y1, y2 = rng.normal(size=n), rng.normal(size=n)
        cfg = LandmarkConfig(bandwidth=0.8)
        lhs = smooth(2.0 * y1 - 0.5 * y2, T, cfg)
        rhs = 2.0 * smooth(y1, T, cfg) - 0.5 * smooth(y2, T, cfg)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_bad_bandwidth_rejected(self):
        with pytest.raises(ValueError, match="bandwidth"):
            LandmarkConfig(bandwidth=0.0)
        with pytest.raises(ValueError, match="bandwidth"):
            LandmarkConfig(bandwidth=-1.0)

    def test_default_bandwidth_rule(self):
        assert default_bandwidth(101, T) == pytest.approx(T * 101 ** -0.2)


class TestMaxLocation:
    def test_flat_curve_undefined(self):
        with pytest.raises(ValueError, match="landmark undefined"):
            max_location(np.full(21, 1.0), T, LandmarkConfig(bandwidth=0.5))

    def test_two_equal_peaks_undefined(self):
        # Two exactly tied maxima far apart; the tiny bandwidth keeps the
        # smoother from breaking the tie.
        n = 21
        y = np.zeros(n)
        y[3] = y[12] = 1.0
        with pytest.raises(ValueError, match="landmark undefined"):
            max_location(y, T, LandmarkConfig(bandwidth=T / (100 * n)))

    def test_exact_peak_on_grid(self):
        n = 51
        t = np.arange(n) * T / n
        loc = max_location(np.cos(t - t[13]), T, LandmarkConfig(bandwidth=0.3))
        assert loc == pytest.approx(t[13], abs=1e-9)

    def test_noisy_cosine_rate(self):
        n = 51
        t = np.arange(n) * T / n
        rng = np.random.Generator(np.random.Philox(
            key=np.array([COSINE_RATE_SEED, 0], dtype=np.uint64)))
        cfg = LandmarkConfig(bandwidth=1.2)
        hits = 0
        for _ in range(200):
            y = np.cos(t) + rng.normal(size=n)
            loc = max_location(y, T, cfg)
            dist = abs((loc + T / 2) % T - T / 2)  # true max at t = 0
            hits += dist <= 3 * T / n
        assert hits / 200 >= COSINE_RATE_BOUND


def located_shifts(curves, config=None):
    """The shifts of `landmark_shifts`, after checking that every landmark is defined."""
    shifts, ok = landmark_shifts(curves, config)
    assert ok.all()
    return shifts


class TestLandmarkShifts:
    def test_grid_shifted_unimodal_exact(self):
        n = 101
        t = np.arange(n) * T / n
        base = np.exp(np.cos(t))  # one peak per period
        ks = [0, 7, -20, 33]
        rows = np.vstack([np.roll(base, k) for k in ks])
        shifts = located_shifts(CurveSet(samples=rows, period=T))
        expected = np.array([k * T / n for k in ks])
        expected[expected > T / 2] -= T
        assert np.allclose(shifts, expected, atol=1e-9)

    def test_identical_curves_zero(self):
        n = 51
        t = np.arange(n) * T / n
        rows = np.vstack([np.cos(t - 1.0)] * 3)
        shifts = located_shifts(CurveSet(samples=rows, period=T))
        assert np.array_equal(shifts, np.zeros(3))

    def test_constant_offset_invariance(self):
        spec_rng = np.random.default_rng(3)
        n = 51
        t = np.arange(n) * T / n
        rows = np.vstack([
            np.exp(np.cos(t)) + 0.05 * spec_rng.normal(size=n),
            np.exp(np.cos(t - 0.9)) + 0.05 * spec_rng.normal(size=n),
        ])
        cfg = LandmarkConfig(bandwidth=0.6)
        base = located_shifts(CurveSet(samples=rows, period=T), cfg)
        offset = located_shifts(CurveSet(samples=rows + 11.5, period=T), cfg)
        assert np.allclose(base, offset, atol=1e-12)

    def test_circular_shift_equivariance(self):
        rng = np.random.default_rng(4)
        n = 101
        t = np.arange(n) * T / n
        y1 = np.exp(np.cos(t)) + 0.02 * rng.normal(size=n)
        y2 = np.exp(np.cos(t - 1.3)) + 0.02 * rng.normal(size=n)
        cfg = LandmarkConfig(bandwidth=0.6)
        base = located_shifts(CurveSet(samples=np.vstack([y1, y2]), period=T), cfg)
        k = 9
        rolled = located_shifts(CurveSet(samples=np.vstack([y1, np.roll(y2, k)]), period=T), cfg)
        assert rolled[1] - base[1] == pytest.approx(k * T / n, abs=1e-9)

    def test_flat_member_flagged(self):
        n = 31
        t = np.arange(n) * T / n
        cfg = LandmarkConfig(bandwidth=0.4)
        rows = np.vstack([np.cos(t), np.zeros(n)])
        shifts, ok = landmark_shifts(CurveSet(samples=rows, period=T), cfg)
        assert ok.tolist() == [True, False]
        assert shifts[0] == 0.0 and np.isnan(shifts[1])
        # Only the flat curve is flagged; the rest are located.
        rows = np.vstack([np.cos(t), np.zeros(n), np.cos(t - 0.5)])
        shifts, ok = landmark_shifts(CurveSet(samples=rows, period=T), cfg)
        assert ok.tolist() == [True, False, True]
        assert shifts[0] == 0.0 and np.isnan(shifts[1])
        assert shifts[2] == pytest.approx(0.5, abs=0.05)
        # Shifts are relative to curve 1: if it is flat, none is defined.
        shifts, ok = landmark_shifts(CurveSet(samples=rows[[1, 0, 2]], period=T), cfg)
        assert ok.tolist() == [False, True, True]
        assert np.isnan(shifts).all()

    def test_first_entry_exactly_zero(self):
        n = 51
        t = np.arange(n) * T / n
        rows = np.vstack([np.exp(np.cos(t)), np.exp(np.cos(t - 0.4))])
        shifts = located_shifts(CurveSet(samples=rows, period=T), LandmarkConfig(bandwidth=0.5))
        assert shifts[0] == 0.0
        assert shifts[1] == pytest.approx(0.4, abs=0.05)

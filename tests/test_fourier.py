import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_dft
from curveshift import (
    CurveSet,
    SpectralTable,
    WeightScheme,
    forward_dft,
    inverse_dft,
    rephase,
    synthesize,
    transform,
)

T = 2.0 * np.pi


def table_from(samples, period=T):
    return transform(CurveSet(samples=samples, period=period))


class TestForwardDft:
    def test_constant_curve_keeps_only_zero_frequency(self):
        for n in (3, 11, 31):
            c = forward_dft(np.full(n, 7.0), T)
            L = (n - 1) // 2
            assert c[L] == pytest.approx(7.0, abs=1e-12)
            rest = np.delete(c, L)
            assert np.max(np.abs(rest)) < 1e-12

    def test_cosine_matches_defining_sum(self):
        n = 5
        t = np.arange(n) * T / n
        x = np.cos(2 * np.pi * t / T)
        got = forward_dft(x, T)
        oracle = brute_force_dft(x)
        assert np.max(np.abs(got - oracle)) < 1e-12
        L = n // 2
        assert abs(got[L + 1] - 0.5) < 1e-12
        assert abs(got[L - 1] - 0.5) < 1e-12

    def test_random_curve_matches_defining_sum(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=9)
        assert np.max(np.abs(forward_dft(x, T) - brute_force_dft(x))) < 1e-12

    def test_circular_shift_multiplies_by_phase(self):
        rng = np.random.default_rng(1)
        n = 5
        x = rng.normal(size=n)
        ls = np.arange(-(n // 2), n // 2 + 1)
        for k in (1, 2):
            shifted = forward_dft(np.roll(x, k), T)
            expected = np.exp(-2j * np.pi * k * ls / n) * forward_dft(x, T)
            assert np.max(np.abs(shifted - expected)) < 1e-12

    def test_even_n_rejected_with_truncation_hint(self):
        with pytest.raises(ValueError, match="[Tt]runcate"):
            forward_dft(np.zeros(10), T)
        with pytest.raises(ValueError, match="odd"):
            transform(CurveSet(samples=np.zeros((2, 8)) + 1.0, period=T))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            forward_dft(np.array([1.0, np.nan, 0.0]), T)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_round_trip_random_curves(self, half, seed):
        n = 2 * half + 1
        x = np.random.default_rng(seed).uniform(-100.0, 100.0, size=n)
        back = inverse_dft(forward_dft(x, T))
        scale = max(np.max(np.abs(x)), 1e-12)
        assert np.max(np.abs(back - x)) / scale < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_conjugate_symmetry(self, half, seed):
        n = 2 * half + 1
        x = np.random.default_rng(seed).normal(size=n)
        c = forward_dft(x, T)
        assert np.max(np.abs(c - np.conj(c[::-1]))) < 1e-12 * max(np.max(np.abs(x)), 1.0)


class TestRephase:
    def test_zero_phases_identity(self):
        rng = np.random.default_rng(2)
        table = table_from(rng.normal(size=(3, 11)))
        out = rephase(table, np.zeros(3))
        assert np.array_equal(out.coeffs, table.coeffs)

    def test_true_shifts_collapse_rows(self):
        # Band-limited pattern, continuous shifts: the model is exact.
        n = 21
        t = np.arange(n) * T / n
        shifts = np.array([0.0, 0.8, -1.1])
        rows = [np.cos(t - s) + 0.5 * np.sin(2 * (t - s)) for s in shifts]
        table = table_from(np.vstack(rows))
        out = rephase(table, shifts * (2 * np.pi / T))
        spread = np.max(np.abs(out.coeffs - out.coeffs[0]))
        assert spread < 1e-12

    def test_single_entry_half_pi(self):
        # exp(i * 2 * pi/2) * 1 = exp(i pi) = -1
        coeffs = np.zeros((2, 5), dtype=complex)
        coeffs[1, 4] = 1.0  # l = +2
        table = SpectralTable(coeffs=coeffs, period=T)
        out = rephase(table, np.array([0.0, np.pi / 2]))
        assert out.coeffs[1, 4] == pytest.approx(-1.0 + 0.0j, abs=1e-15)

    def test_modulus_preserved(self):
        rng = np.random.default_rng(4)
        table = table_from(rng.normal(size=(4, 15)))
        out = rephase(table, rng.uniform(-10, 10, 4))
        assert np.allclose(np.abs(out.coeffs), np.abs(table.coeffs), rtol=1e-14, atol=0)

    def test_rephase_then_unrephase_is_identity(self):
        rng = np.random.default_rng(5)
        table = table_from(rng.normal(size=(4, 15)))
        a = rng.uniform(-np.pi, np.pi, 4)
        back = rephase(rephase(table, a), -a)
        assert np.max(np.abs(back.coeffs - table.coeffs)) < 1e-14

    def test_round_trip_through_synthesize(self):
        rng = np.random.default_rng(6)
        curves = CurveSet(samples=rng.normal(size=(2, 13)), period=T)
        again = synthesize(transform(curves))
        assert np.max(np.abs(again.samples - curves.samples)) < 1e-12


class TestRephasedMean:
    def test_identical_rows_give_common_row(self):
        row = np.random.default_rng(7).normal(size=11)
        table = table_from(np.vstack([row, row, row]))
        mean = rephase(table, np.zeros(3)).coeffs.mean(axis=-2)
        assert np.max(np.abs(mean - table.coeffs[0])) < 1e-14

    def test_antipodal_rows_cancel(self):
        coeffs = np.zeros((2, 5), dtype=complex)
        coeffs[0, 3] = 1.0
        coeffs[1, 3] = np.exp(1j * np.pi)
        table = SpectralTable(coeffs=coeffs, period=T)
        mean = rephase(table, np.zeros(2)).coeffs.mean(axis=-2)
        assert abs(mean[3]) < 1e-15

    def test_noisy_mean_is_unbiased_for_pattern_coefficients(self):
        # At the true phases the mean rephased coefficient is the pattern
        # coefficient plus an averaged noise term; its Monte Carlo mean must
        # approach c_l at the parametric rate.
        rng = np.random.default_rng(8)
        J, n, reps = 4, 51, 10_000
        t = np.arange(n) * T / n
        theta = np.array([0.0, 0.5, -0.4, 1.2])
        clean = np.cos(t[None, :] - theta[:, None])
        alpha = theta.copy()
        c_true = forward_dft(np.cos(t), T)
        L = n // 2
        noise = rng.normal(size=(reps, J, n))
        coeffs = np.fft.fftshift(np.fft.fft(clean[None] + noise, axis=-1), axes=-1) / n
        phases = np.exp(1j * np.outer(alpha, np.arange(-L, L + 1)))
        means = (coeffs * phases[None]).mean(axis=1)  # (reps, 2L+1)
        avg = means.mean(axis=0)
        # per-component standard error for sigma = 1 (l = 0 puts all its
        # variance in the real part, hence the sqrt(2) allowance there)
        se = 1.0 / np.sqrt(2 * n * J * reps)
        off_zero = np.delete(np.arange(2 * L + 1), L)
        assert np.max(np.abs(avg.real[off_zero] - c_true.real[off_zero])) < 4 * se
        assert np.max(np.abs(avg.imag - c_true.imag)) < 4 * se
        assert abs(avg.real[L] - c_true.real[L]) < 4 * se * np.sqrt(2)


class TestWeightScheme:
    def test_zero_frequency_weight_forced(self):
        with pytest.raises(ValueError, match="zero-frequency"):
            WeightScheme.custom(np.ones(5))

    def test_symmetry_required(self):
        values = np.array([1.0, 2.0, 0.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="symmetric"):
            WeightScheme.custom(values)

    def test_negative_rejected(self):
        values = np.array([-1.0, 1.0, 0.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            WeightScheme.custom(values)

    def test_power_family_values(self):
        w = WeightScheme.power(1.3, 3)
        expected = np.array([3.0**-1.3, 2.0**-1.3, 1.0, 0.0, 1.0, 2.0**-1.3, 3.0**-1.3])
        assert np.allclose(w.values, expected, rtol=1e-15)
        assert w.fluctuation_warning is None

    def test_unit_weights_flagged(self):
        w = WeightScheme.unit(5)
        assert w.fluctuation_warning is not None
        assert "normality" in w.fluctuation_warning

    def test_shallow_power_flagged(self):
        assert WeightScheme.power(1.0, 5).fluctuation_warning is not None
        assert WeightScheme.power(1.26, 5).fluctuation_warning is None


class TestCurveSet:
    def test_needs_two_curves(self):
        with pytest.raises(ValueError, match="two curves"):
            CurveSet(samples=np.zeros((1, 5)), period=T)

    def test_needs_three_samples(self):
        with pytest.raises(ValueError, match="three samples"):
            CurveSet(samples=np.zeros((2, 2)), period=T)

    def test_rejects_nonfinite(self):
        samples = np.zeros((2, 5))
        samples[1, 3] = np.inf
        with pytest.raises(ValueError, match="finite"):
            CurveSet(samples=samples, period=T)

    def test_times_grid(self):
        curves = CurveSet(samples=np.zeros((2, 4 + 1)), period=10.0)
        assert np.allclose(curves.times, [0.0, 2.0, 4.0, 6.0, 8.0])

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_dft, full_coeffs
from curveshift import (
    CriterionContext,
    CurveSet,
    SpectralTable,
    WeightScheme,
    forward_dft,
    inverse_dft,
    rephase,
    smooth,
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
            assert c.shape == ((n + 1) // 2,)
            assert c[0] == pytest.approx(7.0, abs=1e-12)
            assert np.max(np.abs(c[1:])) < 1e-12

    def test_cosine_matches_defining_sum(self):
        n = 5
        t = np.arange(n) * T / n
        x = np.cos(2 * np.pi * t / T)
        got = forward_dft(x, T)
        oracle = brute_force_dft(x)
        assert np.max(np.abs(full_coeffs(got) - oracle)) < 1e-12
        L = n // 2
        assert abs(got[1] - 0.5) < 1e-12
        assert abs(oracle[L - 1] - 0.5) < 1e-12

    def test_random_curve_matches_defining_sum(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=9)
        assert np.max(np.abs(full_coeffs(forward_dft(x, T)) - brute_force_dft(x))) < 1e-12

    def test_circular_shift_multiplies_by_phase(self):
        rng = np.random.default_rng(1)
        n = 5
        x = rng.normal(size=n)
        ls = np.arange(n // 2 + 1)
        for k in (1, 2):
            shifted = forward_dft(np.roll(x, k), T)
            expected = np.exp(-2j * np.pi * k * ls / n) * forward_dft(x, T)
            assert np.max(np.abs(shifted - expected)) < 1e-12

    def test_even_n_is_the_real_fft(self):
        # Every n: rfft(x) / n, columns l = 0..n//2.  An even n's last column
        # is the Nyquist term, beyond L = (n-1)//2; below it the columns are
        # the defining sums.
        rng = np.random.default_rng(11)
        for n in (4, 10, 100):
            x = rng.normal(size=(2, n))
            c = forward_dft(x, T)
            assert c.shape == (2, n // 2 + 1)
            assert np.array_equal(c, np.fft.rfft(x) / n)
            table = transform(CurveSet(samples=x, period=T))
            assert (table.n_samples, table.max_frequency) == (n, n // 2 - 1)
            assert np.array_equal(table.frequencies, np.arange(n // 2 + 1))
            for row, coeffs in zip(x, c):
                assert np.max(np.abs(full_coeffs(coeffs[:n // 2]) - brute_force_dft(row))) < 1e-12

    def test_table_columns_must_match_n(self):
        # n//2 + 1 columns: 3 fit n = 4 and 5, and no other n.
        for n in (4, 5):
            assert SpectralTable(np.ones((2, 3)), T, n).n_samples == n
        for n in (3, 6, 7):
            with pytest.raises(ValueError, match="does not hold"):
                SpectralTable(np.ones((2, 3)), T, n)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            forward_dft(np.array([1.0, np.nan, 0.0]), T)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=3, max_value=101),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_round_trip_random_curves(self, n, seed):
        x = np.random.default_rng(seed).uniform(-100.0, 100.0, size=n)
        back = inverse_dft(forward_dft(x, T), n)
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
        # The l < 0 half that the table leaves out is the conjugate of its l > 0 half.
        full = np.fft.fftshift(np.fft.fft(x)) / n
        assert np.max(np.abs(full_coeffs(c) - full)) < 1e-12 * max(np.max(np.abs(x)), 1.0)

    @pytest.mark.parametrize("n", [3, 101, 401, 2001])
    def test_columns_equal_complex_fft(self, n):
        # One curve, a (J, n) set and an (R, J, n) stack: every column l = 0..L
        # is that of the complex FFT, and l = 0 has an exactly zero imaginary
        # part.  numpy's real and complex FFTs agree bit for bit at n = 3 and
        # 401; at n = 101 and 2001 they round differently, by at most 1.3e-16
        # on these draws.
        rng = np.random.default_rng(n)
        L = n // 2
        for shape in ((n,), (5, n), (3, 4, n)):
            x = rng.normal(size=shape)
            got = forward_dft(x, T)
            assert got.shape == shape[:-1] + (L + 1,)
            expected = np.fft.fft(x)[..., :L + 1] / n
            assert not np.any(got[..., 0].imag)
            assert np.max(np.abs(got - expected)) <= 4 * np.finfo(float).eps * np.max(np.abs(x))
            if n in (3, 401):
                assert np.array_equal(got[..., 1:].view(np.uint64),
                                      expected[..., 1:].view(np.uint64))
                assert np.array_equal(got[..., 0].real, expected[..., 0].real)


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

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="the reference needs an extended-precision long double")
    @pytest.mark.parametrize("alpha_shape, table_lead, n", [
        ((6,), (), 81),
        ((3, 6), (3,), 81),
        ((2, 3, 6), (2, 3), 81),
        ((4, 6), (), 81),
        ((5, 6), (), 100),
        ((2, 3), (), 20001),
    ], ids=["one-table", "stack", "stack-of-stacks", "broadcast", "even-n", "wide"])
    def test_within_rounding_of_exact_exponentials(self, alpha_shape, table_lead, n):
        # Against exp(i l a) computed in long double from the exact angle:
        # every phasor is within (|a| l + 1) eps, l = 0 is exactly 1, and
        # every modulus within 4 eps of 1, for negative, zero, +-pi and large
        # phases, one table, a stack, P phase vectors against one table, an
        # even n and up to 10001 columns.
        eps = np.finfo(float).eps
        rng = np.random.default_rng(n + len(alpha_shape))
        W = n // 2 + 1
        J = alpha_shape[-1]
        shape = table_lead + (J, W)
        table = SpectralTable(rng.normal(size=shape) + 1j * rng.normal(size=shape), T, n)
        a = rng.uniform(-4.0, 4.0, alpha_shape)
        a.reshape(-1)[:6] = [0.0, -0.0, np.pi, -np.pi, 1e6, -1e6][:a.size]
        ones = SpectralTable(np.full(shape, complex(1.0, -0.0)), T, n)
        got = rephase(ones, a).coeffs  # times 1 - 0i: the phasors themselves
        angles = a.astype(np.longdouble)[..., None] * np.arange(W, dtype=np.longdouble)
        err = np.hypot(got.real - np.cos(angles), got.imag - np.sin(angles))
        assert np.all(err <= (np.abs(a)[..., None] * np.arange(W) + 1.0) * eps)
        assert np.all(got[..., 0] == 1.0)
        modulus = np.hypot(got.real.astype(np.longdouble), got.imag.astype(np.longdouble))
        assert np.all(np.abs(modulus - 1) <= 4 * eps)
        out = rephase(table, a).coeffs
        assert np.all(np.abs(out - table.coeffs * got) <= 2 * eps * np.abs(table.coeffs))

    def test_single_entry_half_pi(self):
        # exp(i * 2 * pi/2) * 1 = exp(i pi) = -1
        coeffs = np.zeros((2, 3), dtype=complex)
        coeffs[1, 2] = 1.0  # l = +2
        table = SpectralTable(coeffs=coeffs, period=T, n_samples=5)
        out = rephase(table, np.array([0.0, np.pi / 2]))
        assert out.coeffs[1, 2] == pytest.approx(-1.0 + 0.0j, abs=1e-15)

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
        for n in (13, 12):
            curves = CurveSet(samples=rng.normal(size=(2, n)), period=T)
            again = synthesize(transform(curves))
            assert again.samples.shape == (2, n)
            assert np.max(np.abs(again.samples - curves.samples)) < 1e-12


    def test_nyquist_term_keeps_its_cosine(self):
        # x_m = (-1)^m is the Nyquist term alone; rephased by a it
        # synthesizes to cos((n/2) a) (-1)^m, the real part of exp(i (n/2) a).
        n = 8
        alternating = np.tile([1.0, -1.0], (2, n // 2))
        table = transform(CurveSet(samples=alternating, period=T))
        assert np.max(np.abs(table.coeffs[:, :-1])) < 1e-15
        a = np.array([0.0, 0.3])
        again = synthesize(rephase(table, a)).samples
        expected = np.cos(n // 2 * a)[:, None] * alternating
        assert np.max(np.abs(again - expected)) < 1e-14


class TestRephasedMean:
    def test_identical_rows_give_common_row(self):
        row = np.random.default_rng(7).normal(size=11)
        table = table_from(np.vstack([row, row, row]))
        mean = rephase(table, np.zeros(3)).coeffs.mean(axis=-2)
        assert np.max(np.abs(mean - table.coeffs[0])) < 1e-14

    def test_antipodal_rows_cancel(self):
        coeffs = np.zeros((2, 3), dtype=complex)
        coeffs[0, 1] = 1.0  # l = +1
        coeffs[1, 1] = np.exp(1j * np.pi)
        table = SpectralTable(coeffs=coeffs, period=T, n_samples=5)
        mean = rephase(table, np.zeros(2)).coeffs.mean(axis=-2)
        assert abs(mean[1]) < 1e-15

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
        coeffs = np.fft.fft(clean[None] + noise, axis=-1)[..., :L + 1] / n
        phases = np.exp(1j * np.outer(alpha, np.arange(L + 1)))
        means = (coeffs * phases[None]).mean(axis=1)  # (reps, L+1)
        avg = means.mean(axis=0)
        # per-component standard error for sigma = 1 (l = 0 puts all its
        # variance in the real part, hence the sqrt(2) allowance there)
        se = 1.0 / np.sqrt(2 * n * J * reps)
        assert np.max(np.abs(avg.real[1:] - c_true.real[1:])) < 4 * se
        assert np.max(np.abs(avg.imag - c_true.imag)) < 4 * se
        assert abs(avg.real[0] - c_true.real[0]) < 4 * se * np.sqrt(2)


class TestWeightScheme:
    def test_zero_frequency_weight_forced(self):
        with pytest.raises(ValueError, match="zero-frequency"):
            WeightScheme.custom(np.ones(5))

    def test_negative_rejected(self):
        values = np.array([0.0, 1.0, -1.0])
        with pytest.raises(ValueError, match="nonnegative"):
            WeightScheme.custom(values)

    def test_old_layout_fails_loudly(self):
        # A vector over l = -L..L is not read as delta_0..delta_2L: its first
        # entry is delta_-L, and where that is 0 its length no longer fits.
        with pytest.raises(ValueError, match="zero-frequency"):
            WeightScheme.custom(np.array([0.5, 1.0, 0.0, 1.0, 0.5]))
        table = transform(CurveSet(samples=np.ones((2, 5)), period=T))
        with pytest.raises(ValueError, match="frequency range"):
            CriterionContext(table, WeightScheme.custom(np.array([0.0, 1.0, 0.0, 1.0, 0.0])))

    def test_power_family_values(self):
        w = WeightScheme.power(1.3, 3)
        expected = np.array([0.0, 1.0, 2.0**-1.3, 3.0**-1.3])
        assert np.allclose(w.values, expected, rtol=1e-15)
        assert w.max_frequency == 3
        assert w.fluctuation_warning is None

    def test_unit_weights_flagged(self):
        w = WeightScheme.unit(5)
        assert w.fluctuation_warning is not None
        assert "normality" in w.fluctuation_warning

    def test_shallow_power_flagged(self):
        assert WeightScheme.power(1.0, 5).fluctuation_warning is not None
        assert WeightScheme.power(1.26, 5).fluctuation_warning is None

    def test_unit_warning_says_intervals_are_not_valid(self):
        warning = WeightScheme.unit(5).fluctuation_warning
        assert warning.startswith("unit weights violate")
        assert "standard errors and confidence intervals are not valid" in warning

    def test_custom_flagged_by_its_values(self):
        # Flagged where the weights reach l = L and decay no faster than
        # |l|^-1.25 from their first nonzero frequency l1.
        def flag(positive):  # delta_l for l = 1..L
            values = np.concatenate([[0.0], positive])
            return WeightScheme.custom(values).fluctuation_warning is not None

        L = 50
        ls = np.arange(1, L + 1, dtype=float)
        assert flag(WeightScheme.unit(L).values[1:])
        assert flag(ls**-1.0) and not flag(ls**-1.3)
        assert flag(np.where(ls >= 3, 1.0, 0.0))  # l1 = 3
        assert not flag(np.where(ls < L, 1.0, 0.0))  # delta_L = 0: as before
        assert not flag(np.zeros(L))
        # l1 = 2, L = 3: flagged where delta_3 3^1.25 >= 2^1.25, delta_3 >= 0.602
        assert flag([0.0, 1.0, 0.7]) and not flag([0.0, 1.0, 0.5])
        assert WeightScheme.custom(np.zeros(1)).fluctuation_warning is None


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


PERIOD_RULE = "period must be finite and positive"


@pytest.mark.parametrize("period", [np.inf, -np.inf, np.nan, 0.0, -1.0])
@pytest.mark.parametrize("make, message", [
    (lambda period: CurveSet(samples=np.ones((2, 5)), period=period), PERIOD_RULE),
    (lambda period: SpectralTable(coeffs=np.ones((2, 5)), period=period, n_samples=9),
     PERIOD_RULE),
    (lambda period: forward_dft(np.ones(5), period), PERIOD_RULE),
    (lambda period: smooth(np.ones(5), period), PERIOD_RULE),
    # `smooth` reads its curve through `forward_dft`, which checks the samples
    # before the period.
    (lambda period: smooth(np.array([1.0, np.nan, 1.0, 1.0]), period),
     "curve samples must be finite"),
], ids=["CurveSet", "SpectralTable", "forward_dft", "smooth", "smooth-nonfinite-curve"])
def test_period_must_be_finite_and_positive(make, message, period):
    # T = inf would give NaN and infinite shift estimates.
    with pytest.raises(ValueError, match=message):
        make(period)

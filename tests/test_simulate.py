import dataclasses
from collections import Counter

import numpy as np
import pytest
from scipy.integrate import simpson

from conftest import full_coeffs, full_weights

from curveshift import (
    PATTERNS,
    CriterionContext,
    CurveSet,
    LandmarkConfig,
    OptimizerConfig,
    SimulationSpec,
    WeightScheme,
    confidence_intervals,
    forward_dft,
    generate,
    grid_profile,
    inference,
    landmark_shifts,
    minimize,
    rephase,
    run_study,
    simulate,
    theoretical_gamma,
    transform,
    true_coefficients,
)
from curveshift import criterion, fourier, optimize
from curveshift.criterion import full_phases

T = 2.0 * np.pi


class TestPatterns:
    def test_sinc_value_at_origin_by_continuity(self):
        f = PATTERNS["sinc15"]
        assert f(0.0) == pytest.approx(15.0, abs=1e-12)
        assert f(1e-9) == pytest.approx(15.0, abs=1e-6)

    def test_sinc_periodic_extension(self):
        f = PATTERNS["sinc15"]
        t = np.linspace(-np.pi, np.pi, 101, endpoint=False)
        assert np.allclose(f(t), f(t + T), atol=1e-12)
        assert np.allclose(f(t), f(t - 3 * T), atol=1e-12)

    def test_cosine_single_frequency(self):
        c = forward_dft(PATTERNS["cosine"](np.arange(31) * T / 31), T)
        assert c.shape == (16,)
        assert abs(c[1] - 0.5) < 1e-12
        assert np.max(np.abs(np.delete(c, 1))) < 1e-12


class TestSpecValidation:
    def test_even_n_accepted(self):
        spec = SimulationSpec(pattern="cosine", n_samples=100)
        assert spec.max_frequency == 49
        assert np.array_equal(spec.weights.values, WeightScheme.power(1.3, 49).values)
        assert generate(spec, 0).curves.samples.shape == (10, 100)

    def test_unknown_pattern(self):
        with pytest.raises(ValueError, match="pattern"):
            SimulationSpec(pattern="sawtooth")

    def test_explicit_shifts_pin_first(self):
        with pytest.raises(ValueError, match="pinned"):
            SimulationSpec(pattern="cosine", n_curves=2, n_samples=11,
                           shifts=np.array([0.1, 0.0]))

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            SimulationSpec(pattern="cosine", sigma=-1.0)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, -np.inf])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="sigma must be finite"):
            SimulationSpec(pattern="cosine", sigma=sigma)

    @pytest.mark.parametrize("period", [-1.0, 0.0, np.nan, np.inf])
    def test_bad_period_rejected(self, period):
        with pytest.raises(ValueError, match="period"):
            SimulationSpec(pattern="cosine", period=period)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ValueError, match="64-bit"):
            SimulationSpec(pattern="cosine", seed=seed)

    def test_custom_pattern_length_checked(self):
        with pytest.raises(ValueError, match="one sample per grid point"):
            SimulationSpec(pattern=np.ones(7), n_samples=11)

    @pytest.mark.parametrize("shift", [np.nan, np.inf, -np.inf])
    def test_non_finite_shifts_rejected(self, shift):
        with pytest.raises(ValueError, match="explicit shifts must be finite"):
            SimulationSpec(pattern="cosine", n_curves=2, n_samples=11,
                           shifts=np.array([0.0, shift]))

    @pytest.mark.parametrize("kwargs, message", [
        ({"n_curves": 1}, "J >= 2"),
        ({"replicates": 0}, "at least one replicate"),
        ({"confidence": 0.0}, "confidence must lie in"),
        ({"confidence": 1.0}, "confidence must lie in"),
        ({"weights": WeightScheme.unit(4)}, "weight scheme does not match"),
        ({"n_samples": 10, "weights": WeightScheme.unit(5)}, "weight scheme does not match"),
        ({"n_curves": 3, "shifts": np.array([0.0, 0.5])}, "one value per curve"),
        *(({"n_samples": n}, "need n >= 3 samples") for n in (-3, 0, 1, 2)),
    ], ids=["one-curve", "no-replicates", "confidence-0", "confidence-1", "weights-size",
            "weights-size-even", "shifts-length", "n=-3", "n=0", "n=1", "n=2"])
    def test_out_of_range_parameters_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            SimulationSpec(pattern="cosine", **{"n_samples": 11, **kwargs})

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_custom_pattern_rejected(self, value):
        samples = np.ones(11)
        samples[3] = value
        with pytest.raises(ValueError, match="custom pattern samples must be finite"):
            SimulationSpec(pattern=samples, n_samples=11)


class TestGenerate:
    def test_noiseless_zero_shifts_replicates_pattern(self):
        spec = SimulationSpec(pattern="sinc15", n_curves=3, n_samples=101, sigma=0.0,
                              shifts=np.zeros(3), replicates=1)
        rep = generate(spec, 0)
        expected = PATTERNS["sinc15"](spec.times)
        assert np.array_equal(rep.curves.samples, np.vstack([expected] * 3))
        assert np.array_equal(rep.theta, np.zeros(3))

    def test_deterministic_per_replicate(self):
        spec = SimulationSpec(pattern="sinc15", n_curves=4, n_samples=51, sigma=2.0,
                              replicates=3, seed=11)
        a = generate(spec, 2)
        b = generate(spec, 2)
        assert np.array_equal(a.curves.samples, b.curves.samples)
        assert np.array_equal(a.theta, b.theta)
        c = generate(spec, 1)
        assert not np.array_equal(a.curves.samples, c.curves.samples)

    def test_shift_law_range_and_pinning(self):
        spec = SimulationSpec(pattern="cosine", n_curves=8, n_samples=31, sigma=0.0,
                              replicates=64, seed=21)
        for r in range(64):
            rep = generate(spec, r)
            assert rep.theta[0] == 0.0
            assert np.all(np.abs(rep.theta[1:]) <= np.pi / 4)
            assert np.array_equal(rep.alpha, rep.theta)  # T = 2 pi

    def test_noise_moments(self):
        spec = SimulationSpec(pattern="cosine", n_curves=10, n_samples=1001,
                              sigma=2.0, shifts=np.zeros(10), replicates=1, seed=33)
        rep = generate(spec, 0)
        clean = PATTERNS["cosine"](spec.times)
        noise = rep.curves.samples - clean[None, :]
        m = noise.size
        assert abs(noise.mean()) < 3 * 2.0 / np.sqrt(m)
        assert abs(noise.var() - 4.0) < 3 * 4.0 * np.sqrt(2.0 / m)

    def test_noise_is_standard_normal_of_the_stream(self):
        # Each replicate's stream gives its J - 1 shifts, then its (J, n)
        # standard normals; the noise is sigma times those, bit for bit.
        spec = SimulationSpec(pattern="sinc15", n_curves=4, n_samples=51, sigma=2.0,
                              replicates=3, seed=11)
        samples, theta, _ = simulate._draw(spec, range(3))
        clean, clean_theta, _ = simulate._draw(dataclasses.replace(spec, sigma=0.0), range(3))
        assert np.array_equal(theta, clean_theta)
        for r in range(3):
            rng = simulate._replicate_rng(spec.seed, r)
            rng.random(spec.n_curves - 1)
            noise = rng.standard_normal((spec.n_curves, spec.n_samples))
            assert np.array_equal(samples[r], clean[r] + spec.sigma * noise)

    def test_custom_pattern_spectral_shift(self):
        # A custom sampled pattern is shifted in the frequency domain; for a
        # band-limited sample vector and a grid shift this is a circular roll.
        for n in (31, 30):
            t = np.arange(n) * T / n
            base = np.cos(t) + 0.3 * np.sin(3 * t)
            spec = SimulationSpec(pattern=base, n_curves=2, n_samples=n, sigma=0.0,
                                  shifts=np.array([0.0, 4 * T / n]), replicates=1)
            rep = generate(spec, 0)
            assert np.allclose(rep.curves.samples[1], np.roll(base, 4), atol=1e-12)


def simpson_coefficients(pattern, L, period):
    """c_l, l = -L..L, of a named pattern by scipy's composite Simpson over the
    panels that `true_coefficients` uses, 64 frequency rows at a time."""
    t = np.linspace(0.0, period, max(16384, 64 * L) + 1)
    fvals = PATTERNS[pattern](t, period)
    ls = np.arange(-L, L + 1)
    coeffs = np.empty(2 * L + 1, dtype=complex)
    for start in range(0, ls.size, 64):
        chunk = ls[start:start + 64]
        integrand = fvals[None, :] * np.exp(-2j * np.pi * np.outer(chunk, t) / period)
        coeffs[start:start + 64] = simpson(integrand, x=t, axis=1) / period
    return coeffs


class TestTrueCoefficients:
    def test_cosine_exact(self):
        spec = SimulationSpec(pattern="cosine", n_curves=2, n_samples=101)
        c = full_coeffs(true_coefficients(spec))  # l = -L..L from l = 0..L
        L = 50
        assert abs(c[L + 1] - 0.5) < 1e-12
        assert abs(c[L - 1] - 0.5) < 1e-12
        others = np.delete(c, [L - 1, L + 1])
        assert np.max(np.abs(others)) < 1e-12

    def test_sinc_quadrature_matches_fine_fft(self):
        # Independent oracle: coefficients of the periodized pattern from a
        # 2^20-point transform, aliasing error far below the tolerance.
        N = 1 << 20
        tt = np.arange(N) * T / N
        fine = np.fft.fftshift(np.fft.fft(PATTERNS["sinc15"](tt))) / N
        for n in (101, 2001):
            c = full_coeffs(true_coefficients(SimulationSpec(pattern="sinc15", n_curves=2,
                                                             n_samples=n)))
            L = (n - 1) // 2
            assert np.max(np.abs(c - fine[N // 2 - L:N // 2 + L + 1])) < 1e-8, n

    @pytest.mark.parametrize("period", [T, 3.7], ids=["2pi", "3.7"])
    @pytest.mark.parametrize("n", [101, 401])
    @pytest.mark.parametrize("pattern", ["sinc15", "cosine"])
    def test_matches_chunked_simpson(self, pattern, n, period):
        # Oracle: scipy's composite Simpson over the same panels, over
        # l = -L..L; the l < 0 half is the conjugate of the l >= 0 half.
        spec = SimulationSpec(pattern=pattern, n_curves=2, n_samples=n, period=period)
        expected = simpson_coefficients(pattern, spec.max_frequency, period)
        assert np.max(np.abs(full_coeffs(true_coefficients(spec)) - expected)) < 1e-13

    def test_cached_result_is_not_shared(self):
        spec = SimulationSpec(pattern="sinc15", n_curves=2, n_samples=101, period=3.7)
        first = true_coefficients(spec)
        expected = first.copy()
        first[:] = 0.0
        assert np.array_equal(true_coefficients(spec), expected)
        assert np.array_equal(theoretical_gamma(spec), theoretical_gamma(spec))

    def test_custom_pattern_uses_own_transform(self):
        for n in (21, 20):
            base = np.cos(np.arange(n) * T / n)
            spec = SimulationSpec(pattern=base, n_curves=2, n_samples=n)
            # The table's own transform, without an even n's Nyquist column.
            own = forward_dft(base, T)[:spec.max_frequency + 1]
            assert np.array_equal(true_coefficients(spec), own)


class TestTheoreticalGamma:
    def test_cosine_scalar_two(self):
        spec = SimulationSpec(pattern="cosine", n_curves=5, n_samples=101,
                              weights=WeightScheme.power(1.3, 50))
        gamma = theoretical_gamma(spec)
        expected = 2.0 * (np.eye(4) + np.ones((4, 4)))
        assert np.allclose(gamma, expected, rtol=1e-10)

    @pytest.mark.parametrize("pattern", ["sinc15", "cosine", "custom"])
    def test_true_power_is_even(self, pattern):
        # A real pattern's |c_l|^2 over l = -L..L, from an oracle, is even in
        # l, so Gamma's sums over l = -L..L equal twice the l >= 0 halves that
        # theoretical_gamma reads.
        L = 50
        if pattern == "custom":
            pattern = np.random.default_rng(4).standard_normal(2 * L + 1)
            m = np.abs(np.fft.fft(pattern)[np.arange(-L, L + 1)] / pattern.size) ** 2
        else:
            m = np.abs(simpson_coefficients(pattern, L, T)) ** 2
        assert np.max(np.abs(m - m[::-1])) <= 1e-15 * np.max(m)
        spec = SimulationSpec(pattern=pattern, n_curves=3, n_samples=2 * L + 1)
        ls, w2 = np.arange(-L, L + 1), full_weights(spec.weights) ** 2
        scalar = np.sum(w2**2 * ls**2 * m) / np.sum(w2 * ls**2 * m) ** 2
        gamma = theoretical_gamma(spec)
        assert np.all(np.isfinite(gamma))
        assert gamma[0, 1] == pytest.approx(scalar, rel=1e-12)


class TestRunStudy:
    def test_unit_weight_runs_at_the_rounding_floor_converge(self):
        # Under the former absolute gradient tolerance (max|g| <= 1e-8) 9 of
        # these 20 replicates read non-converged: their runs stopped with no
        # lower value at the rounding floor of the unit-weight contrast, where
        # the gradient's own rounding level lies above 1e-8.  Their Newton
        # steps there are at most FINAL_STEP.
        spec = SimulationSpec(pattern="sinc15", n_curves=2, n_samples=101, sigma=7.0,
                              weights=WeightScheme.unit(50), replicates=20, seed=7)
        assert run_study(spec).nonconverged == 0

    def test_single_frequency_variance(self):
        # delta_1 (and delta_-1) = 1 only: Gamma = 2 (I + U), so for J = 2 the variance
        # of sqrt(n) alpha_2 errors is 4 sigma^2.
        values = np.zeros(51)
        values[1] = 1.0
        spec = SimulationSpec(pattern="cosine", n_curves=2, n_samples=101, sigma=0.1,
                              weights=WeightScheme.custom(values), replicates=500,
                              seed=77)
        summary = run_study(spec)
        expected = 4.0 * 0.1**2
        assert abs(summary.covariance[0, 0] - expected) / expected < 0.25

    def test_sinc_protocol_scatter_smoke(self):
        # Small-replicate version of the diagonal-scatter check; the full
        # 200-replicate run lives in the acceptance suite.
        spec = SimulationSpec(pattern="sinc15", n_curves=10, n_samples=101,
                              sigma=1.0, replicates=50, seed=20260809)
        summary = run_study(spec)
        maxerr = np.max(np.abs(summary.alpha_hat - summary.alpha_true), axis=1)
        assert np.mean(maxerr < 0.08) >= 0.90
        assert summary.rmse_estimator < summary.rmse_landmark

    def test_reproducible(self):
        spec = SimulationSpec(pattern="cosine", n_curves=3, n_samples=51, sigma=1.0,
                              replicates=8, seed=123)
        s1, s2 = run_study(spec), run_study(spec)
        assert np.array_equal(s1.alpha_hat, s2.alpha_hat)
        assert s1.as_dict() == s2.as_dict()

    def test_zero_noise_zero_bias_on_grid_shifts(self):
        n = 101
        spec = SimulationSpec(pattern="sinc15", n_curves=4, n_samples=n, sigma=0.0,
                              shifts=np.array([0, 12, -30, 5]) * T / n, replicates=1)
        summary = run_study(spec)
        assert np.max(np.abs(summary.bias)) < 1e-9
        assert summary.rmse_estimator < 1e-9

    def test_zero_noise_off_grid_bias_is_discretization_level(self):
        # The pattern is not band limited, so sampling a continuously
        # shifted copy aliases high harmonics and displaces the noiseless
        # minimum by a small amount; it must stay far below the noise scale.
        spec = SimulationSpec(pattern="sinc15", n_curves=4, n_samples=101, sigma=0.0,
                              replicates=1, seed=2)
        summary = run_study(spec)
        assert 0.0 < np.max(np.abs(summary.bias)) < 1e-5

    def test_weighted_grid_minimum_near_pi_third_at_high_noise(self):
        # At sigma = 7 the damped criterion's minimum on the 629-point grid
        # lies within 0.1 of the true phase difference pi/3 on 0.4725 of
        # replicate 0 of seeds 0..399 (measured with inverse-cdf noise); the
        # bound lies 4 binomial standard errors of this sample below that
        # rate.  A study reports its Newton optimum, not the grid profile, so
        # the replicates are drawn one by one.
        R, rate = 200, 0.4725
        spec = SimulationSpec(pattern="sinc15", n_curves=2, n_samples=101, sigma=7.0,
                              shifts=np.array([0.0, np.pi / 3]), replicates=R, seed=4)
        grid = np.linspace(-np.pi, np.pi, 629)
        near = np.mean([
            abs(grid[np.argmin(grid_profile(
                CriterionContext(transform(generate(spec, r).curves), spec.weights), grid))]
                - np.pi / 3) < 0.1
            for r in range(R)])
        assert near > rate - 4.0 * np.sqrt(rate * (1.0 - rate) / R)

    @staticmethod
    def _two_curve_coverage(shift, sigma, replicates):
        spec = SimulationSpec(pattern="sinc15", n_curves=2, n_samples=101, sigma=sigma,
                              shifts=np.array([0.0, shift]), replicates=replicates, seed=3)
        return run_study(spec).coverage[0]

    def test_coverage_is_scored_on_the_circle(self):
        # A shift one period on is the same truth, drawn with the same noise.
        # With 200 replicates at a true coverage near 0.958, coverage falls
        # to 0.9 or below with probability under 1e-3.
        near = self._two_curve_coverage(1.0, 0.5, 200)
        assert near > 0.9
        assert self._two_curve_coverage(1.0 + T, 0.5, 200) == near

    def test_coverage_near_half_period_as_near_zero(self):
        # Estimates of a truth near T/2 wrap to the other end of the circle.
        assert abs(self._two_curve_coverage(3.12, 2.0, 200)
                   - self._two_curve_coverage(0.5, 2.0, 200)) <= 0.04

    def test_rmse_reads_the_wrapped_errors_in_time_units(self):
        # The estimator's RMSE is the wrapped time error over curves 2..J.
        T3 = 3.0
        spec = SimulationSpec(pattern="sinc15", n_curves=4, n_samples=101, sigma=1.0,
                              replicates=12, seed=9, period=T3)
        s = run_study(spec)
        err = criterion.wrap_time(s.theta_hat[:, 1:] - s.theta_true[:, 1:], T3)
        assert s.rmse_estimator == pytest.approx(np.sqrt(np.mean(err**2)), rel=1e-12, abs=0)

    def test_covariance_matrices_symmetric_psd(self):
        spec = SimulationSpec(pattern="sinc15", n_curves=5, n_samples=101, sigma=1.0,
                              replicates=40, seed=171)
        s = run_study(spec)
        for mat in (s.covariance, s.theoretical_covariance):
            assert np.array_equal(mat, mat.T)
            assert np.min(np.linalg.eigvalsh(mat)) > -1e-12

    def test_sigma_doubling_doubles_std(self):
        # Error scale is linear in sigma at fixed n (variance remark).
        stds = []
        for sigma in (0.5, 1.0):
            spec = SimulationSpec(pattern="sinc15", n_curves=4, n_samples=401,
                                  sigma=sigma, replicates=150, seed=88)
            s = run_study(spec)
            err = s.alpha_hat - s.alpha_true
            stds.append(np.sqrt(np.mean(np.var(err, axis=0, ddof=1))))
        assert abs(stds[1] / stds[0] - 2.0) < 0.4  # within 20 percent of 2


class TestStackedStudy:
    """run_study stacks a cell's replicates; each must get its own single-table result."""

    @pytest.mark.parametrize("weights", [WeightScheme.power(1.3, 50), WeightScheme.unit(50)],
                             ids=["power1.3", "unit"])
    def test_study_equals_replicate_loop(self, weights):
        spec = SimulationSpec(pattern="sinc15", n_curves=4, n_samples=101, sigma=2.0,
                              weights=weights, replicates=12, seed=31)
        config = OptimizerConfig()
        summary = run_study(spec, config)
        covered = []
        for r in range(spec.replicates):
            rep = generate(spec, r)
            table = transform(rep.curves)
            res = minimize(CriterionContext(table, weights), config)
            assert np.array_equal(summary.alpha_true[r], rep.alpha[1:])
            assert np.allclose(summary.alpha_hat[r], res.alpha_hat.free, rtol=0, atol=1e-12)
            assert np.allclose(summary.theta_hat[r], res.theta_hat, rtol=0, atol=1e-12)
            assert abs(summary.criterion_values[r] - res.criterion_value) <= 1e-12
            shifts, ok = landmark_shifts(table)
            assert np.array_equal(summary.theta_hat_landmark[r], shifts, equal_nan=True)
            assert np.array_equal(summary.landmark_ok[r], ok)
            ci = confidence_intervals(res, table, weights, spec.confidence).intervals_alpha
            covered.append((ci[:, 0] <= rep.alpha[1:]) & (rep.alpha[1:] <= ci[:, 1]))
        assert summary.inference_failures == 0
        assert np.array_equal(summary.coverage, np.mean(covered, axis=0))

    @pytest.mark.parametrize("pattern, n", [("cosine", 401), ("sinc15", 101), ("sinc15", 100)])
    def test_landmarks_equal_per_replicate_landmark_shifts(self, pattern, n):
        # A study smooths from the block's table; each replicate's landmark
        # shifts are those of `landmark_shifts` on its curves, bit for bit.
        spec = SimulationSpec(pattern=pattern, n_curves=5, n_samples=n, sigma=0.5,
                              replicates=10, seed=12)
        for config in (None, LandmarkConfig(bandwidth=0.3)):
            summary = run_study(spec, landmark_config=config)
            for r in range(spec.replicates):
                shifts, ok = landmark_shifts(transform(generate(spec, r).curves), config)
                assert np.array_equal(summary.theta_hat_landmark[r], shifts, equal_nan=True)
                assert np.array_equal(summary.landmark_ok[r], ok)

    def test_blocks_give_the_same_study(self, monkeypatch):
        # 10 replicates fit one block by default; a block of 3 replicates
        # splits the study into 3 + 3 + 3 + 1.
        for weights in (WeightScheme.power(1.3, 50), WeightScheme.unit(50)):
            spec = SimulationSpec(pattern="sinc15", n_curves=4, n_samples=101, sigma=1.0,
                                  weights=weights, replicates=10, seed=5)
            assert spec.replicates * 4 * 101 <= simulate.STUDY_BLOCK
            whole = run_study(spec)
            with monkeypatch.context() as patch:
                patch.setattr(simulate, "STUDY_BLOCK", 3 * 4 * 101)
                blocked = run_study(spec)
            for field in dataclasses.fields(whole):
                a, b = getattr(whole, field.name), getattr(blocked, field.name)
                if isinstance(a, np.ndarray):
                    assert np.array_equal(a, b, equal_nan=True), field.name
                else:
                    assert a == b or (a != a and b != b), field.name

    @pytest.mark.parametrize("weights", [WeightScheme.power(1.3, 50), WeightScheme.unit(50)],
                             ids=["power1.3", "unit"])
    def test_intervals_read_from_the_optimum(self, monkeypatch, weights):
        # The half-widths come from the tables that the Newton engine holds
        # at each optimum, and equal those of a fresh rephase at alpha_hat
        # bit for bit.
        spec = SimulationSpec(pattern="sinc15", n_curves=4, n_samples=101, sigma=2.0,
                              weights=weights, replicates=12, seed=31)
        halves = []

        def recording(ct, n, w, level):
            halves.append(inference.interval_half_widths(ct, n, w, level))
            return halves[-1]

        monkeypatch.setattr(simulate, "interval_half_widths", recording)
        summary = run_study(spec)
        samples = simulate._draw(spec, range(spec.replicates))[0]
        table = transform(CurveSet(samples=samples, period=T))
        ct = rephase(table, full_phases(summary.alpha_hat, spec.n_curves)).coeffs
        expected = inference.interval_half_widths(ct, 101, weights, spec.confidence)
        assert len(halves) == 1
        assert np.array_equal(halves[0].view(np.uint64), expected.view(np.uint64))

    def test_rephases_only_in_the_engine(self, monkeypatch):
        # Blocks of 4, 4 and 2 replicates.  Each block rephases only inside
        # its `_minimize_tables` call: the intervals take no rephase of their own.
        counts = Counter()

        def counting(*args):
            counts["rephase"] += 1
            return fourier.rephase(*args)

        for module in (simulate, optimize, criterion, inference):
            monkeypatch.setattr(module, "rephase", counting)
        monkeypatch.setattr(simulate, "STUDY_BLOCK", 4 * 4 * 101)
        spec = SimulationSpec(pattern="sinc15", n_curves=4, n_samples=101, sigma=1.0,
                              replicates=10, seed=5)
        run_study(spec)
        study = counts["rephase"]
        counts.clear()
        for lo in range(0, spec.replicates, 4):
            samples = simulate._draw(spec, range(lo, min(spec.replicates, lo + 4)))[0]
            table = transform(CurveSet(samples=samples, period=T))
            optimize._minimize_tables(CriterionContext(table, spec.weights))
        assert study == counts["rephase"] > 0

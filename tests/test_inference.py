import numpy as np
import pytest
from scipy.special import ndtri

from curveshift import (
    CriterionContext,
    CurveSet,
    SimulationSpec,
    SpectralTable,
    WeightScheme,
    confidence_intervals,
    generate,
    minimize,
    run_study,
    transform,
)
from curveshift import fourier, inference, rephase
from curveshift.inference import gamma_from_power, interval_half_widths

T = 2.0 * np.pi


def cosine_table(alphas_full, n=101):
    t = np.arange(n) * T / n
    rows = np.vstack([np.cos(t - a) for a in alphas_full])
    return transform(CurveSet(samples=rows, period=T))


def noisy_table(n, period=T):
    """One noisy two-curve cosine table and its default weights."""
    spec = SimulationSpec(pattern="cosine", n_curves=2, n_samples=n, sigma=0.5,
                          shifts=np.array([0.0, 0.9 * period / T]), replicates=1, seed=5,
                          period=period)
    return transform(generate(spec, 0).curves), spec.weights


class TestNoiseVariance:
    def test_noiseless_gives_zero(self):
        a = np.array([0.0, 0.7, -0.3])
        report = confidence_intervals(a[1:], cosine_table(a), WeightScheme.unit(50))
        assert report.sigma2_hat == pytest.approx(0.0, abs=1e-25)

    def test_single_curve_rejected(self):
        coeffs = np.zeros((1, 5), dtype=complex)
        table = SpectralTable(coeffs=coeffs, period=T)
        with pytest.raises(ValueError, match="single curve"):
            confidence_intervals(np.zeros(0), table, WeightScheme.unit(2))

    @pytest.mark.parametrize("sigma", [1.0, 3.0])
    def test_monte_carlo_unbiased(self, sigma):
        # 500 replicates at the true phases; the estimator mean must sit
        # within 3 Monte Carlo standard errors of sigma^2.
        spec = SimulationSpec(pattern="sinc15", n_curves=10, n_samples=101,
                              sigma=sigma, replicates=500, seed=314)
        vals = np.empty(500)
        for r in range(500):
            rep = generate(spec, r)
            report = confidence_intervals(rep.alpha[1:], transform(rep.curves), spec.weights)
            vals[r] = report.sigma2_hat
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - sigma**2) < 3 * se


class TestGamma:
    def test_pure_cosine_scalar_two(self):
        # c_{+-1} = 1/2 and unit weights: scalar = (2/4) / (2/4)^2 = 2.
        for J in (2, 4):
            a = np.linspace(0.0, 1.0, J)
            table = cosine_table(a)
            gamma = confidence_intervals(a[1:], table, WeightScheme.unit(50)).gamma_hat
            k = J - 1
            expected = 2.0 * (np.eye(k) + np.ones((k, k)))
            assert np.max(np.abs(gamma - expected)) < 1e-10

    def test_two_curves_scalar_four(self):
        a = np.array([0.0, 0.9])
        gamma = confidence_intervals(a[1:], cosine_table(a), WeightScheme.unit(50)).gamma_hat
        assert gamma.shape == (1, 1)
        assert gamma[0, 0] == pytest.approx(4.0, abs=1e-10)

    def test_debiased_to_zero_raises(self):
        # Antipodal rows cancel in the mean at the evaluation point, so all
        # off-zero magnitudes debias to zero.
        n = 21
        t = np.arange(n) * T / n
        rows = np.vstack([np.cos(t), -np.cos(t)])
        table = transform(CurveSet(samples=rows, period=T))
        with pytest.raises(ValueError, match="indistinguishable from noise"):
            confidence_intervals(np.zeros(1), table, WeightScheme.unit(10))

    def test_eigenvalue_structure(self):
        # scalar (I + U) has eigenvalues scalar (J-2 times) and scalar * J.
        J = 6
        spec = SimulationSpec(pattern="sinc15", n_curves=J, n_samples=101,
                              sigma=1.0, replicates=1, seed=5)
        rep = generate(spec, 0)
        gamma = confidence_intervals(rep.alpha[1:], transform(rep.curves), spec.weights).gamma_hat
        eig = np.sort(np.linalg.eigvalsh(gamma))
        scalar = gamma[0, 1]
        assert np.allclose(eig[:-1], scalar, rtol=1e-10)
        assert eig[-1] == pytest.approx(scalar * J, rel=1e-10)

    def test_scale_equivariance(self):
        # Scaling the curves by lam scales sigma2 by lam^2 and Gamma by
        # 1/lam^2; the product sigma2 * Gamma is invariant.
        spec = SimulationSpec(pattern="sinc15", n_curves=5, n_samples=101,
                              sigma=1.0, replicates=1, seed=8)
        rep = generate(spec, 0)
        lam = 3.7
        scaled = CurveSet(samples=lam * rep.curves.samples, period=T)
        t1, t2 = transform(rep.curves), transform(scaled)
        a = rep.alpha[1:]
        r1, r2 = (confidence_intervals(a, t, spec.weights) for t in (t1, t2))
        s1, s2, g1, g2 = r1.sigma2_hat, r2.sigma2_hat, r1.gamma_hat, r2.gamma_hat
        assert s2 == pytest.approx(lam**2 * s1, rel=1e-12)
        assert np.allclose(g2, g1 / lam**2, rtol=1e-10)
        assert np.allclose(s2 * g2, s1 * g1, rtol=1e-10)

    def test_cauchy_schwarz_lower_bound(self):
        # For any weights, scalar >= 1 / sum l^2 m_l, with equality at unit
        # weights on the active set.
        rng = np.random.default_rng(9)
        L = 20
        ls = np.arange(-L, L + 1)
        for _ in range(20):
            m = rng.uniform(0.0, 1.0, 2 * L + 1)
            half = rng.uniform(0.1, 2.0, L)
            w = WeightScheme.custom(np.concatenate([half[::-1], [0.0], half]))
            scalar = gamma_from_power(m, w, 3)[0, 1]
            bound = 1.0 / np.sum(ls**2 * m)
            assert scalar >= bound * (1 - 1e-12)
        unit = WeightScheme.unit(L)
        m = rng.uniform(0.1, 1.0, 2 * L + 1)
        scalar = gamma_from_power(m, unit, 3)[0, 1]
        assert scalar == pytest.approx(1.0 / np.sum(ls**2 * m), rel=1e-12)


class TestConfidenceIntervals:
    def test_half_width_arithmetic(self):
        # Half width z_{0.975} sqrt(sigma2 gamma_11 / n) from the report's own
        # estimates, on noisy data so that both are positive.
        n = 101
        table, weights = noisy_table(n)
        res = minimize(CriterionContext(table, weights))
        report = confidence_intervals(res, table, weights, level=0.95)
        assert report.sigma2_hat > 0.0
        se = np.sqrt(report.sigma2_hat * report.gamma_hat[0, 0] / n)
        assert report.std_errors[0] == pytest.approx(se, rel=1e-12)
        half = 0.5 * (report.intervals_alpha[0, 1] - report.intervals_alpha[0, 0])
        assert half == pytest.approx(ndtri(0.975) * se, rel=1e-10)

    @pytest.mark.parametrize("level", [0.9, 0.95, 0.99])
    def test_z_is_ndtri(self, level):
        # Centered at zero, the interval ends are -z se and z se exactly, and
        # the stacked half widths are z times the same root.
        spec = SimulationSpec(pattern="sinc15", n_curves=3, n_samples=101, sigma=1.0,
                              replicates=12, seed=4)
        z = ndtri(0.5 * (1.0 + level))
        tables = [transform(generate(spec, r).curves) for r in range(spec.replicates)]
        for table in tables:
            report = confidence_intervals(np.zeros(2), table, spec.weights, level)
            assert np.array_equal(report.intervals_alpha[:, 1], z * report.std_errors)
            assert np.array_equal(report.intervals_alpha[:, 0], -(z * report.std_errors))
        ct = np.stack([t.coeffs for t in tables])
        sigma2 = inference._noise_variance(ct)
        scalar = inference._gamma_scalar(inference._debiased_power(ct, sigma2), spec.weights)
        expected = z * np.sqrt(sigma2 * (scalar * 2.0) / spec.n_samples)
        assert np.array_equal(interval_half_widths(ct, spec.weights, level), expected)

    def test_nominal_value_from_spec_arithmetic(self):
        # With n = 100 the half width is 1.96 * 2/10 = 0.392 (to 3 decimals);
        # checked through the formula rather than a full table because the
        # transform itself requires odd n.
        half = ndtri(0.975) * np.sqrt(1.0 * 4.0 / 100)
        assert half == pytest.approx(0.392, abs=5e-4)

    def test_zero_width_for_noiseless_data(self):
        from curveshift import OptimizerConfig

        # Identical curves: the estimate is exactly zero and the residual
        # dispersion vanishes identically, so intervals have zero width.
        t = np.arange(101) * T / 101
        table = transform(CurveSet(samples=np.vstack([np.cos(t)] * 2), period=T))
        res = minimize(CriterionContext(table, WeightScheme.unit(50)))
        report = confidence_intervals(res, table, WeightScheme.unit(50), level=0.99)
        assert report.sigma2_hat == 0.0
        assert np.array_equal(report.intervals_alpha[:, 0], report.intervals_alpha[:, 1])

        # Noiseless continuous shifts: widths shrink with the optimizer
        # tolerance (the tiny residual comes from the finite gradient stop).
        a = np.array([0.0, 0.4, -0.8])
        table = cosine_table(a)
        res = minimize(CriterionContext(table, WeightScheme.unit(50)),
                       OptimizerConfig(gradient_tolerance=1e-12))
        report = confidence_intervals(res, table, WeightScheme.unit(50), level=0.99)
        widths = report.intervals_alpha[:, 1] - report.intervals_alpha[:, 0]
        assert np.max(widths) < 1e-9
        assert np.all(report.intervals_alpha[:, 0] <= np.asarray(res.alpha_hat))
        assert np.all(np.asarray(res.alpha_hat) <= report.intervals_alpha[:, 1])

    def test_level_domain(self):
        a = np.array([0.0, 0.4])
        table = cosine_table(a)
        res = minimize(CriterionContext(table, WeightScheme.unit(50)))
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="level"):
                confidence_intervals(res, table, WeightScheme.unit(50), level=bad)

    def test_one_rephase_serves_both_estimates(self, monkeypatch):
        spec = SimulationSpec(pattern="sinc15", n_curves=6, n_samples=101, sigma=1.0,
                              replicates=1, seed=8)
        table = transform(generate(spec, 0).curves)
        res = minimize(CriterionContext(table, spec.weights))
        ct = rephase(table, res.alpha_hat.full()).coeffs
        sigma2 = float(inference._noise_variance(ct))
        gamma = gamma_from_power(inference._debiased_power(ct, sigma2), spec.weights, 6)
        calls = []
        original = fourier.rephase

        def counting(*args):
            calls.append(1)
            return original(*args)

        for module in (fourier, inference):  # every binding a rephase could go through
            monkeypatch.setattr(module, "rephase", counting)
        report = confidence_intervals(res, table, spec.weights)
        assert len(calls) == 1
        assert report.sigma2_hat == sigma2
        assert np.array_equal(report.gamma_hat, gamma)

    def test_stacked_half_widths_equal_single_reports(self):
        # The study's stacked inference gives each table the half width of its
        # own report; a NaN marks the table whose Gamma cannot be estimated.
        spec = SimulationSpec(pattern="sinc15", n_curves=3, n_samples=101, sigma=1.0,
                              replicates=4, seed=9)
        tables, centers = [], []
        for r in range(spec.replicates):
            table = transform(generate(spec, r).curves)
            tables.append(table)
            centers.append(minimize(CriterionContext(table, spec.weights)).alpha_hat)
        flat = np.zeros_like(tables[0].coeffs)  # Gamma undefined: no pattern power
        ct = np.stack([rephase(t, c.full()).coeffs for t, c in zip(tables, centers)] + [flat])
        half = interval_half_widths(ct, spec.weights, 0.9)
        for r, (table, center) in enumerate(zip(tables, centers)):
            ci = confidence_intervals(center, table, spec.weights, 0.9).intervals_alpha
            assert np.array_equal(ci[:, 1], center.free + half[r])
            assert np.array_equal(ci[:, 0], center.free - half[r])
        assert np.isnan(half[-1])

    def test_time_interval_scaling(self):
        n = 101
        table, weights = noisy_table(n, period=2.0)
        res = minimize(CriterionContext(table, weights))
        report = confidence_intervals(res, table, weights)
        se = np.sqrt(report.sigma2_hat * report.gamma_hat[0, 0] / n)
        half = 0.5 * (report.intervals_theta[0, 1] - report.intervals_theta[0, 0])
        assert half == pytest.approx(ndtri(0.975) * se / np.pi, rel=1e-10)
        assert np.allclose(report.intervals_theta,
                           report.intervals_alpha * (2.0 / (2 * np.pi)))


class TestSincFluctuations:
    def test_covariance_and_coverage_match_theory(self):
        # Scaled-error covariance versus sigma^2 Gamma with Gamma from the
        # exact pattern coefficients, plus CI coverage, on the noisy sinc
        # protocol.  Entrywise tolerance 25 percent; coverage in [0.90, 0.98].
        spec = SimulationSpec(pattern="sinc15", n_curves=10, n_samples=101,
                              sigma=1.0, replicates=500, seed=20260809)
        summary = run_study(spec)
        ratio = summary.covariance / summary.theoretical_covariance
        assert np.max(np.abs(ratio - 1.0)) < 0.25
        assert np.all(summary.coverage >= 0.90)
        assert np.all(summary.coverage <= 0.98)
        assert summary.inference_failures == 0

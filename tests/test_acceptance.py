"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible under `pytest -s`) with the
measured quantities, and enforces its runtime budget.
"""

import json
import time

import numpy as np
from scipy import stats

from conftest import (brute_force_criterion, finite_difference_gradient,
                      finite_difference_jacobian, full_coeffs, full_weights, random_instance)
from curveshift import (
    CriterionContext,
    CurveSet,
    SimulationSpec,
    WeightScheme,
    evaluate,
    generate,
    gradient,
    grid_profile,
    hessian,
    minimize,
    run_study,
    theoretical_gamma,
    transform,
    wrap_phase,
)
from curveshift.cli import main

T = 2.0 * np.pi

# Criterion 6 threshold, recalibrated from the plug-in standard error as the
# criterion instructs: se = sqrt(sigma^2 Gamma_jj / n) = 0.02443 rad for the
# noisy sinc protocol (Gamma_jj = 2 * 0.030133 from the exact pattern
# coefficients), so 0.08 = 3.3 se.  A 0.05 threshold is only 2.0 se and the
# max of nine correlated errors clears it in just ~79 percent of replicates
# (measured), versus ~99 percent for 0.08.
SINC_MAX_ERR_THRESHOLD = 0.08
SINC_PLUGIN_SE = 0.02443


def report(number: int, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(100):
        ctx, alpha = random_instance(rng, max_curves=6, max_samples=51)
        got = evaluate(ctx, alpha)
        oracle = brute_force_criterion(
            full_coeffs(ctx.table), full_weights(ctx.weights), np.concatenate([[0.0], alpha])
        )
        worst = max(worst, abs(got - oracle) / max(abs(oracle), 1e-300))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 5.0
    report(1, ok, f"max relative deviation {worst:.2e} over 100 instances, {elapsed:.2f}s")
    assert worst < 1e-10
    assert elapsed < 5.0


def test_criterion_2_derivative_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    worst_g = worst_h = 0.0
    for _ in range(50):
        ctx, alpha = random_instance(rng, max_curves=6, max_samples=51)
        g = gradient(ctx, alpha)
        g_fd = finite_difference_gradient(lambda a: evaluate(ctx, a), alpha, step=1e-6)
        worst_g = max(worst_g, np.max(np.abs(g - g_fd)) / max(np.max(np.abs(g_fd)), 1e-10))
        H = hessian(ctx, alpha)
        H_fd = finite_difference_jacobian(lambda a: gradient(ctx, a), alpha, step=1e-5)
        worst_h = max(worst_h, np.max(np.abs(H - H_fd)) / max(np.max(np.abs(H_fd)), 1e-10))
    elapsed = time.perf_counter() - start
    ok = worst_g < 1e-5 and worst_h < 1e-4 and elapsed < 10.0
    report(2, ok, f"gradient dev {worst_g:.2e}, hessian dev {worst_h:.2e}, {elapsed:.2f}s")
    assert worst_g < 1e-5
    assert worst_h < 1e-4
    assert elapsed < 10.0


def test_criterion_3_exact_recovery():
    start = time.perf_counter()
    rng = np.random.default_rng(1003)
    worst_single = 0.0
    n = 101
    t = np.arange(n) * T / n
    for J in (2, 3, 4, 6):
        for _ in range(3):
            alpha_true = rng.uniform(-0.97 * np.pi, 0.97 * np.pi, J - 1)
            rows = [np.cos(t)] + [np.cos(t - a) for a in alpha_true]
            ctx = CriterionContext(
                transform(CurveSet(samples=np.vstack(rows), period=T)),
                WeightScheme.unit((n - 1) // 2),
            )
            res = minimize(ctx)
            worst_single = max(
                worst_single, np.max(np.abs(wrap_phase(res.alpha_hat.free - alpha_true)))
            )
    ks = np.array([0, 5, -17, 30, 44, -2, 9, -33, 21, 12])
    spec = SimulationSpec(pattern="sinc15", n_curves=10, n_samples=n, sigma=0.0,
                          shifts=ks * T / n, replicates=1)
    rep = generate(spec, 0)
    ctx = CriterionContext(transform(rep.curves), spec.weights)
    res = minimize(ctx)
    worst_sinc = np.max(np.abs(wrap_phase(res.alpha_hat.free - rep.alpha[1:])))
    elapsed = time.perf_counter() - start
    ok = worst_single < 1e-6 and worst_sinc < 1e-8 and elapsed < 2.0
    report(3, ok, f"single-frequency err {worst_single:.2e}, grid sinc err "
                  f"{worst_sinc:.2e}, {elapsed:.2f}s")
    assert worst_single < 1e-6
    assert worst_sinc < 1e-8
    assert elapsed < 2.0


def _strict_local_minima(profile) -> int:
    """Strict local minima of a profile on a closed periodic grid.

    The last grid point repeats the first (-pi and pi are one phase), so it is
    dropped and neighbours wrap around.
    """
    q = np.asarray(profile)[:-1]
    return int(np.sum((q < np.roll(q, 1)) & (q < np.roll(q, -1))))


def test_criterion_4_weight_sweep_grid_minimum():
    # Weight-sweep reproduction on the grid profile, two sinc15 curves,
    # n = 101, true phase pi/3, 100 replicates per noise level.
    #
    # Scatter: the damped (power 1.3) grid argmin must scatter around pi/3 as
    # the asymptotic law says, se = sigma * sqrt(Gamma_11 / n) = sigma * 0.02443
    # rad (Gamma_11 = 0.060266 from theoretical_gamma), so its within-0.1 rate
    # must match the normal rate 2 Phi(0.1 / se) - 1 = 1.00/0.83/0.59/0.44 at
    # sigma = 1/3/5/7.  Both are held to the central 99.9 percent of their
    # Monte Carlo law over 100 replicates: chi-square(100) / 100 for the
    # variance ratio (0.60..1.53) and Binomial(100, p) for the rate.
    # This is the only check of the global minimum of the grid profile against
    # theory, and the only one up to sigma = 7, where spurious global minima of
    # the damped criterion would show.
    #
    # Roughness: unit weights make the criterion landscape rough (README), so
    # at sigma = 7 the unit-weight profile must have at least five times as
    # many strict local minima on the grid as the damped one.
    #
    # A rate of 0.95 at every sigma, or a unit/damped argmin-scatter ratio of
    # 5, is not asked: both exceed the Cramer-Rao bound.  For two curves the
    # known-pattern bound on the relative shift is the unit-weight scalar
    # 2 / sum_l l^2 |c_l|^2 = 0.014438, the least Gamma_11 over all weights
    # (test_cauchy_schwarz_lower_bound); even there the within-0.1 rate is only
    # 0.91 at sigma = 5 and 0.77 at sigma = 7, and asymptotically unit weights
    # scatter sqrt(0.014438 / 0.060266) = 0.49 times as much as the damped
    # ones, not 5 times more (0.89 times as much is measured at sigma = 7).
    start = time.perf_counter()
    grid = np.linspace(-np.pi, np.pi, 629)
    shifts = np.array([0.0, np.pi / 3])
    unit = WeightScheme.unit(50)
    level = 0.999
    var_lo, var_hi = np.divide(stats.chi2.interval(level, 100), 100)
    scatter = {}
    rates = {}
    scatter_ok = True
    minima_weighted_s7 = []
    minima_unit_s7 = []
    for sigma in (1.0, 3.0, 5.0, 7.0):
        spec = SimulationSpec(pattern="sinc15", n_curves=2, n_samples=101,
                              sigma=sigma, shifts=shifts, replicates=100, seed=9001)
        locs = np.empty(100)
        for r in range(100):
            rep = generate(spec, r)
            table = transform(rep.curves)
            prof = grid_profile(CriterionContext(table, spec.weights), grid)
            locs[r] = grid[int(np.argmin(prof))]
            if sigma == 7.0:
                prof_u = grid_profile(CriterionContext(table, unit), grid)
                minima_weighted_s7.append(_strict_local_minima(prof))
                minima_unit_s7.append(_strict_local_minima(prof_u))
        se = sigma * float(np.sqrt(theoretical_gamma(spec)[0, 0] / spec.n_samples))
        err = wrap_phase(locs - np.pi / 3)
        var_ratio = float(np.mean(err ** 2) / se ** 2)
        hits = int(np.sum(np.abs(err) < 0.1))
        p_normal = float(2.0 * stats.norm.cdf(0.1 / se) - 1.0)
        hits_lo, hits_hi = stats.binom.interval(level, 100, p_normal)
        scatter[sigma] = round(var_ratio, 3)
        rates[sigma] = (hits / 100, round(p_normal, 3))
        scatter_ok &= var_lo <= var_ratio <= var_hi and hits_lo <= hits <= hits_hi
    minima_ratio = float(np.mean(minima_unit_s7) / np.mean(minima_weighted_s7))
    elapsed = time.perf_counter() - start
    ok = scatter_ok and minima_ratio >= 5.0 and elapsed < 120.0
    report(4, ok, f"damped argmin variance / theory {scatter}, within-0.1 rate "
                  f"(observed, normal) {rates}, unit/damped local-minima ratio "
                  f"at sigma=7 {minima_ratio:.1f}, {elapsed:.1f}s")
    assert elapsed < 120.0
    assert scatter_ok, (
        "damped grid argmin does not scatter as theory says: variance ratio "
        f"to (sigma * 0.02443)^2 per sigma {scatter} (99.9% Monte Carlo range "
        f"{var_lo:.2f}..{var_hi:.2f}), within-0.1 rate vs normal rate {rates}"
    )
    assert minima_ratio >= 5.0, (
        "unit weights should make the profile rough: mean strict local minima "
        f"at sigma=7, unit {np.mean(minima_unit_s7):.1f} vs damped "
        f"{np.mean(minima_weighted_s7):.1f} (ratio {minima_ratio:.1f}, need >= 5)"
    )


def test_criterion_5_fluctuation_covariance_and_coverage():
    start = time.perf_counter()
    results = {}
    ok = True
    for J in (2, 5):
        spec = SimulationSpec(pattern="cosine", n_curves=J, n_samples=401,
                              sigma=0.5, replicates=500, seed=31415)
        s = run_study(spec)
        ratio = s.covariance / s.theoretical_covariance
        dev = float(np.max(np.abs(ratio - 1.0)))
        cov_lo, cov_hi = float(np.min(s.coverage)), float(np.max(s.coverage))
        results[J] = (dev, cov_lo, cov_hi)
        ok &= dev < 0.25 and cov_lo >= 0.90 and cov_hi <= 0.98
    elapsed = time.perf_counter() - start
    ok &= elapsed < 300.0
    report(5, ok, f"max entrywise deviation / coverage per J: {results}, {elapsed:.1f}s")
    for J, (dev, cov_lo, cov_hi) in results.items():
        assert dev < 0.25, f"J={J}"
        assert cov_lo >= 0.90 and cov_hi <= 0.98, f"J={J}"
    assert elapsed < 300.0


def test_criterion_6_sinc_study_accuracy_and_baseline():
    start = time.perf_counter()
    spec = SimulationSpec(pattern="sinc15", n_curves=10, n_samples=101, sigma=1.0,
                          replicates=200, seed=20260809)
    s = run_study(spec)
    maxerr = np.max(np.abs(s.alpha_hat - s.alpha_true), axis=1)
    rate = float(np.mean(maxerr < SINC_MAX_ERR_THRESHOLD))
    elapsed = time.perf_counter() - start
    ok = (rate >= 0.90 and s.rmse_estimator < s.rmse_landmark
          and s.landmark_failures == 0 and elapsed < 180.0)
    report(6, ok, f"P(max err < {SINC_MAX_ERR_THRESHOLD}) = {rate:.3f} "
                  f"(threshold = 3.3 x plug-in se {SINC_PLUGIN_SE}), "
                  f"rmse estimator {s.rmse_estimator:.4f} < landmark "
                  f"{s.rmse_landmark:.4f}, {elapsed:.1f}s")
    assert rate >= 0.90
    assert s.rmse_estimator < s.rmse_landmark
    assert elapsed < 180.0


def test_criterion_7_consistency_and_rate():
    start = time.perf_counter()
    medians, stds = [], []
    for n in (101, 401, 1601):
        spec = SimulationSpec(pattern="sinc15", n_curves=5, n_samples=n, sigma=1.0,
                              replicates=120, seed=5150)
        s = run_study(spec)
        err = s.alpha_hat - s.alpha_true
        medians.append(float(np.median(np.abs(err))))
        stds.append(float(np.sqrt(np.mean(np.var(err, axis=0, ddof=1)))))
    ratio_1 = stds[0] / stds[1] / 2.0
    ratio_2 = stds[1] / stds[2] / 2.0
    elapsed = time.perf_counter() - start
    monotone = medians[0] > medians[1] > medians[2]
    scaling = abs(ratio_1 - 1.0) < 0.30 and abs(ratio_2 - 1.0) < 0.30
    ok = monotone and scaling and elapsed < 300.0
    report(7, ok, f"medians {[f'{m:.4f}' for m in medians]}, std ratios vs "
                  f"doubling {2 * ratio_1:.3f}, {2 * ratio_2:.3f}, {elapsed:.1f}s")
    assert monotone
    assert scaling
    assert elapsed < 300.0


def test_criterion_8_simulate_determinism(tmp_path):
    start = time.perf_counter()
    args = ["simulate", "--curves", "5", "--samples", "51", "--sigma", "1",
            "--replicates", "5", "--seed", "42"]
    assert main(args + ["--output-dir", str(tmp_path / "a")]) == 0
    assert main(args + ["--output-dir", str(tmp_path / "b")]) == 0
    same = {}
    for name in ("summary.json", "replicates.csv"):
        same[name] = ((tmp_path / "a" / name).read_bytes()
                      == (tmp_path / "b" / name).read_bytes())
    payload = json.loads((tmp_path / "a" / "summary.json").read_text())
    elapsed = time.perf_counter() - start
    ok = all(same.values()) and payload["seed"] == 42 and elapsed < 60.0
    report(8, ok, f"byte-identical outputs {same}, {elapsed:.1f}s")
    assert all(same.values())
    assert elapsed < 60.0

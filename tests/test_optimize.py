import dataclasses
import sys

import numpy as np
import pytest

from curveshift import (
    CriterionContext,
    CurveSet,
    OptimizerConfig,
    SimulationSpec,
    SpectralTable,
    WeightScheme,
    generate,
    minimize,
    rephase,
    run_study,
    transform,
    wrap_phase,
)
from conftest import full_coeffs, full_weights
from curveshift import criterion, fourier, optimize
from curveshift.criterion import evaluate, gradient, grid_profile, hessian

T = 2.0 * np.pi

# Scan-start accuracy on the noisy sinc protocol (J = 10, n = 101,
# sigma = 1): measured share of per-curve scan starts within 2 pi / n of the
# true phase was 0.981 over 200 replicates (seed 20260809); the whole-vector
# rate was 0.905.  The unweighted n-point lag start measured 0.985 and 0.875.
INITIALIZER_RATE_BOUND = 0.95


def lag_start(table):
    """The unweighted n-point phase-correlation lag over l = -L..L of each curve
    against curve 1, as a per-curve loop independent of `optimize._correlation_argmax`."""
    n, L = table.n_samples, table.max_frequency
    start = np.zeros(table.n_curves - 1)
    full = full_coeffs(table.coeffs[:, :L + 1])  # l = -L..L
    for j in range(1, table.n_curves):
        p = np.zeros(n, dtype=complex)  # bins l mod n; an even n's Nyquist bin stays 0
        p[np.arange(-L, L + 1) % n] = full[j] * np.conj(full[0])
        k = int(np.argmax(np.fft.ifft(p).real))
        start[j - 1] = wrap_phase(2.0 * np.pi * (k - n if k > n // 2 else k) / n)
    return start


def cosine_curves(alphas_full, n=101):
    t = np.arange(n) * T / n
    return CurveSet(samples=np.vstack([np.cos(t - a) for a in alphas_full]), period=T)


def stack_of_one(ctx):
    """The context over ctx's table as a stack (1, J, L+1), as the engine takes it."""
    return CriterionContext(SpectralTable(ctx.table.coeffs[None], T, ctx.table.n_samples),
                            ctx.weights)


def start_rows(ctx):
    """The start rows of `optimize._starts` for one table."""
    return optimize._starts(stack_of_one(ctx))[0]


class TestStarts:
    def test_exact_on_grid_shifts(self):
        n = 101
        spec = SimulationSpec(
            pattern="sinc15",
            n_curves=4,
            n_samples=n,
            sigma=0.0,
            shifts=np.array([0.0, 5 * T / n, -17 * T / n, 30 * T / n]),
            replicates=1,
        )
        rep = generate(spec, 0)
        ctx = CriterionContext(transform(rep.curves), spec.weights)
        cand = start_rows(ctx)[0]
        assert np.max(np.abs(wrap_phase(cand - rep.alpha[1:]))) < 1e-12

    def test_degenerate_spectrum_gives_only_zero(self):
        # Flagged weights: scan, lag and zero starts, all zero and all kept.
        coeffs = np.zeros((2, 6), dtype=complex)
        coeffs[:, 0] = 3.0  # only l = 0 carries energy
        ctx = CriterionContext(SpectralTable(coeffs=coeffs, period=T, n_samples=11),
                               WeightScheme.unit(5))
        assert np.array_equal(start_rows(ctx), np.zeros((3, 1)))
        assert np.array_equal(minimize(ctx).alpha_hat.free, np.zeros(1))

    def test_noisy_sinc_candidate_rate(self):
        spec = SimulationSpec(
            pattern="sinc15", n_curves=10, n_samples=101, sigma=1.0, replicates=200,
            seed=20260809,
        )
        hits = total = 0
        for r in range(200):
            rep = generate(spec, r)
            ctx = CriterionContext(transform(rep.curves), spec.weights)
            cand = start_rows(ctx)[0]
            err = np.abs(wrap_phase(cand - rep.alpha[1:]))
            hits += int(np.sum(err <= 2 * np.pi / 101))
            total += err.size
        assert hits / total >= INITIALIZER_RATE_BOUND

    def test_scan_is_grid_argmin_for_two_curves(self):
        # For J = 2 the weighted correlation is a constant minus twice the
        # contrast, so the scan start is the contrast's argmin on its grid.
        m = 8 * 101
        grid = 2.0 * np.pi * np.arange(-m // 2, m // 2) / m
        for weights in (WeightScheme.power(1.3, 50), WeightScheme.unit(50)):
            spec = SimulationSpec(pattern="sinc15", n_curves=2, n_samples=101, sigma=5.0,
                                  shifts=np.array([0.0, np.pi / 3]), weights=weights,
                                  replicates=1, seed=7)
            ctx = CriterionContext(transform(generate(spec, 0).curves), weights)
            best = grid[int(np.argmin(grid_profile(ctx, grid)))]
            assert abs(wrap_phase(start_rows(ctx)[0][0] - best)) < 1e-12

    def test_scan_reads_both_halves_of_any_table(self):
        # A random table l = 0..L stands for real curves, whose l < 0 half is
        # its conjugate: the scan maximizes Re sum_l w2_l d_2l conj(d_1l)
        # exp(i l a) over l = -L..L, summed here on the full table.
        rng = np.random.default_rng(5)
        L, m = 6, 8 * 13
        coeffs = rng.normal(size=(2, L + 1)) + 1j * rng.normal(size=(2, L + 1))
        weights = WeightScheme.power(1.3, L)
        ctx = CriterionContext(SpectralTable(coeffs=coeffs, period=T, n_samples=13), weights)
        grid = 2.0 * np.pi * np.arange(m) / m
        ls = np.arange(-L, L + 1)
        full = full_coeffs(coeffs)
        p = full_weights(weights) ** 2 * full[1] * np.conj(full[0])
        corr = [np.real(np.sum(p * np.exp(1j * ls * a))) for a in grid]
        best = grid[int(np.argmax(corr))]
        assert abs(wrap_phase(start_rows(ctx)[0][0] - best)) < 1e-12

    def test_flagged_weights_add_lag_and_zero_starts(self):
        # At n = 100 the curves carry a strong Nyquist term of alternating
        # sign, which would pull a lag that read it onto odd sample steps.
        for n in (101, 100):
            spec = SimulationSpec(pattern="sinc15", n_curves=5, n_samples=n, sigma=1.0,
                                  replicates=1, seed=2)
            samples = generate(spec, 0).curves.samples
            if n % 2 == 0:
                samples = samples + 30.0 * np.outer([1, -1, 1, -1, 1], (-1.0) ** np.arange(n))
            table = transform(CurveSet(samples=samples, period=T))
            assert len(start_rows(CriterionContext(table, spec.weights))) == 1
            L = spec.max_frequency
            for weights in (WeightScheme.unit(L), WeightScheme.power(1.0, L)):
                starts = start_rows(CriterionContext(table, weights))
                assert len(starts) == 3
                assert np.array_equal(starts[1], lag_start(table))
                assert np.array_equal(starts[2], np.zeros(4))


class TestMinimize:
    def test_two_curve_cosine_recovery(self):
        a2 = np.pi / 3
        ctx = CriterionContext(
            transform(cosine_curves([0.0, a2])), WeightScheme.unit(50)
        )
        res = minimize(ctx)
        assert abs(res.alpha_hat.free[0] - a2) < 1e-6
        assert res.converged
        assert res.theta_hat[1] == pytest.approx(a2, abs=1e-6)  # T = 2 pi
        assert res.theta_hat[0] == 0.0

    def test_identical_curves_recover_zero(self):
        curves = cosine_curves([0.0, 0.0, 0.0])
        ctx = CriterionContext(transform(curves), WeightScheme.power(1.3, 50))
        res = minimize(ctx)
        assert np.array_equal(res.alpha_hat.free, np.zeros(2))
        assert res.criterion_value < 1e-25
        assert res.converged

    def test_monotone_descent_trace(self):
        spec = SimulationSpec(pattern="sinc15", n_curves=5, n_samples=101, sigma=2.0,
                              replicates=1, seed=12)
        rep = generate(spec, 0)
        ctx = CriterionContext(transform(rep.curves), spec.weights)
        res = minimize(ctx)
        # A run's path does not depend on the iteration cap (see
        # test_rows_stop_on_their_own), so the runs capped at 1..k iterations
        # trace the uncapped one.
        trace = [minimize(ctx, OptimizerConfig(max_iterations=k)).criterion_value
                 for k in range(1, res.iterations + 1)]
        assert len(trace) >= 2
        assert np.all(np.diff(trace) < 0.0)
        assert trace[-1] == res.criterion_value

    @pytest.mark.parametrize("weights", [WeightScheme.power(1.3, 50), WeightScheme.unit(50)],
                             ids=["power1.3", "unit"])
    def test_result_holds_the_table_rephased_at_alpha_hat(self, weights):
        # The table the engine rephased at the winning point is the one a
        # fresh rephase gives, bit for bit; under unit weights the winner is
        # one of three starts.
        spec = SimulationSpec(pattern="sinc15", n_curves=5, n_samples=101, sigma=2.0,
                              weights=weights, replicates=6, seed=12)
        for r in range(spec.replicates):
            table = transform(generate(spec, r).curves)
            res = minimize(CriterionContext(table, weights))
            fresh = rephase(table, res.alpha_hat.full())
            assert res.aligned.coeffs.tobytes() == fresh.coeffs.tobytes(), r
            assert res.aligned.period == table.period

    def test_agrees_with_grid_search_two_curves(self):
        grid = np.linspace(-np.pi, np.pi, 10_000)
        cell = grid[1] - grid[0]
        for seed in range(5):
            spec = SimulationSpec(pattern="sinc15", n_curves=2, n_samples=51,
                                  sigma=1.5, replicates=1, seed=seed)
            rep = generate(spec, 0)
            ctx = CriterionContext(transform(rep.curves), spec.weights)
            res = minimize(ctx)
            best = grid[int(np.argmin([evaluate(ctx, [g]) for g in grid]))]
            assert abs(res.alpha_hat.free[0] - best) <= cell

    def test_wrap_equivalence_single_frequency(self):
        # Data built from alpha and alpha + 2 pi k are identical, so the
        # minimizer must return identical wrapped results.
        a2 = 1.0
        curves_a = cosine_curves([0.0, a2])
        curves_b = cosine_curves([0.0, a2 + 2 * np.pi])
        w = WeightScheme.unit(50)
        res_a = minimize(CriterionContext(transform(curves_a), w))
        res_b = minimize(CriterionContext(transform(curves_b), w))
        assert np.allclose(res_a.alpha_hat.free, res_b.alpha_hat.free, atol=1e-12)

    def test_weighted_instance_near_pi_third(self):
        # The weight-sweep figure's event, as a rate over one study per noise
        # level: the estimate lies within 0.05 of pi/3.  `rate` is its share
        # over replicate 0 of seeds 0..399, measured with inverse-cdf noise;
        # the bound lies 4 binomial standard errors of this sample below it.
        R = 200
        for sigma, rate in ((1.0, 0.9675), (3.0, 0.51), (5.0, 0.3375)):
            spec = SimulationSpec(pattern="sinc15", n_curves=2, n_samples=101, sigma=sigma,
                                  shifts=np.array([0.0, np.pi / 3]), replicates=R, seed=4)
            near = np.mean(np.abs(run_study(spec).alpha_hat[:, 0] - np.pi / 3) <= 0.05)
            assert near > rate - 4.0 * np.sqrt(rate * (1.0 - rate) / R), sigma

    def test_all_zero_weights_rejected(self):
        curves = cosine_curves([0.0, 0.5])
        ctx = CriterionContext(transform(curves), WeightScheme.custom(np.zeros(51)))
        with pytest.raises(ValueError, match="identically zero"):
            minimize(ctx)

    def test_nonconvergence_is_flagged_not_raised(self):
        spec = SimulationSpec(pattern="sinc15", n_curves=6, n_samples=101, sigma=3.0,
                              replicates=1, seed=99)
        rep = generate(spec, 0)
        ctx = CriterionContext(transform(rep.curves), spec.weights)
        res = minimize(ctx, OptimizerConfig(max_iterations=1))
        assert not res.converged
        assert res.iterations <= 1

    def test_converges_where_conjugate_gradient_stalled(self):
        # Replicates on which a Polak-Ribiere conjugate-gradient descent stalls
        # at a 500-iteration cap (gradient max 1.1e-6, 1.2e-8, 5.4e-4, 6.7e-7).
        spec = SimulationSpec(pattern="sinc15", n_curves=10, n_samples=101, sigma=3.0,
                              replicates=40, seed=7)
        for r in (4, 13, 15, 20):
            ctx = CriterionContext(transform(generate(spec, r).curves), spec.weights)
            res = minimize(ctx)
            assert res.converged, r
            assert np.linalg.eigvalsh(hessian(ctx, res.alpha_hat.free))[0] > 0.0, r

    def test_one_rephase_per_criterion_value(self, monkeypatch):
        # Every point the optimizer tries costs one rephase, for its value;
        # an accepted point's gradient and Hessian reuse those coefficients.
        # Measured: 269 rephases for the 20 runs (13.45 per run); rephasing
        # separately for value, gradient and Hessian took 659.
        counts = {"rephase": 0, "value": 0}

        def counting(key, fn):
            def wrapped(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        for key, fn in (("rephase", fourier.rephase), ("value", criterion._value)):
            wrapper = counting(key, fn)
            for name, module in list(sys.modules.items()):
                if name.split(".")[0] != "curveshift":
                    continue
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, wrapper)
        spec = SimulationSpec(pattern="sinc15", n_curves=30, n_samples=401, sigma=1.0,
                              replicates=20, seed=3)
        tables = [transform(generate(spec, r).curves) for r in range(spec.replicates)]
        for table in tables:
            minimize(CriterionContext(table, spec.weights))
        assert counts["value"] > 0
        assert counts["rephase"] == counts["value"]
        assert counts["rephase"] <= 14 * spec.replicates

    def test_unit_weight_replicate_reaches_lowest_basin(self):
        # The sigma = 5, unit-weight cell of the simulate figure grid, at its
        # first replicate from 1 on where the unweighted lag and zero starts
        # both end above the lowest basin.  That basin is the argmin of a
        # 10,000-point profile, refined by Newton on alpha_2.
        spec = SimulationSpec(pattern="sinc15", n_curves=2, n_samples=101, sigma=5.0,
                              shifts=np.array([0.0, np.pi / 3]), weights=WeightScheme.unit(50),
                              replicates=13, seed=9)
        ctx = CriterionContext(transform(generate(spec, 12).curves), spec.weights)
        grid = np.linspace(-np.pi, np.pi, 10_000)
        low = grid[np.argmin(grid_profile(ctx, grid))]
        for _ in range(20):
            low -= gradient(ctx, [low])[0] / hessian(ctx, [low])[0, 0]
        f_low = evaluate(ctx, [low])
        lag_and_zero = CriterionContext(
            SpectralTable(np.repeat(ctx.table.coeffs[None], 2, axis=0), T, ctx.table.n_samples),
            ctx.weights)
        others = optimize._descend(lag_and_zero, start_rows(ctx)[1:], OptimizerConfig())
        assert np.all(others.f > f_low + 1e-6)
        res = minimize(ctx)
        assert res.criterion_value == pytest.approx(f_low, rel=1e-12)
        assert res.alpha_hat.free[0] == pytest.approx(low, abs=1e-7)

    def test_descents_per_minimize(self, monkeypatch):
        # `_descend` runs one Newton descent per row of its start array.
        counts = {"descents": 0}
        original = optimize._descend

        def counting(ctx, x0, *args, **kwargs):
            counts["descents"] += len(x0)
            return original(ctx, x0, *args, **kwargs)

        monkeypatch.setattr(optimize, "_descend", counting)
        spec = SimulationSpec(pattern="sinc15", n_curves=5, n_samples=101, sigma=1.0,
                              replicates=1, seed=2)
        table = transform(generate(spec, 0).curves)
        minimize(CriterionContext(table, spec.weights))
        assert counts["descents"] == 1
        minimize(CriterionContext(table, WeightScheme.unit(50)))
        assert counts["descents"] == 1 + 3

    @pytest.mark.parametrize("n_curves, sigma", [(10, 3.0), (10, 5.0), (2, 5.0), (2, 7.0)])
    def test_unit_weights_never_above_lag_and_zero_starts(self, monkeypatch, n_curves, sigma):
        # Under flagged weights the starts are a superset of the lag and zero
        # starts, so the minimum reached is never higher.  The iteration cap
        # only bounds the cost of slow runs; both sides use the same config.
        # A descent minimize already ran from the same start is not rerun:
        # `_descend` runs one descent per row of its start array, and each
        # row's value is recorded under that start.
        config = OptimizerConfig(max_iterations=50)
        original, runs = optimize._descend, {}

        def recording(ctx, x0, *args):
            out = original(ctx, x0, *args)
            runs.update((np.asarray(row).tobytes(), f) for row, f in zip(x0, out.f))
            return out

        def descent_value(ctx, x0):
            if x0.tobytes() not in runs:
                recording(stack_of_one(ctx), x0[None], config)
            return runs[x0.tobytes()]

        monkeypatch.setattr(optimize, "_descend", recording)
        shifts = np.array([0.0, np.pi / 3]) if n_curves == 2 else None
        spec = SimulationSpec(pattern="sinc15", n_curves=n_curves, n_samples=101, sigma=sigma,
                              shifts=shifts, weights=WeightScheme.unit(50), replicates=40,
                              seed=7)
        lower = 0
        for r in range(spec.replicates):
            runs.clear()
            ctx = CriterionContext(transform(generate(spec, r).curves), spec.weights)
            f = minimize(ctx, config).criterion_value
            two_start = min(descent_value(ctx, x0)
                            for x0 in (lag_start(ctx.table), np.zeros(n_curves - 1)))
            assert f <= two_start, r
            lower += f < two_start
        assert lower > 0  # measured 10-14 of 40 per setting

    def test_result_in_principal_box(self):
        for seed in range(3):
            spec = SimulationSpec(pattern="sinc15", n_curves=4, n_samples=51,
                                  sigma=5.0, replicates=1, seed=seed)
            rep = generate(spec, 0)
            ctx = CriterionContext(transform(rep.curves), spec.weights)
            res = minimize(ctx)
            assert np.all(np.abs(res.alpha_hat.free) <= np.pi)


def stacked_contexts(pattern, weights, n_curves, n_samples, sigma, replicates, seed):
    """One context over the stacked (R, J, n) table, and one context per replicate."""
    spec = SimulationSpec(pattern, n_curves=n_curves, n_samples=n_samples, sigma=sigma,
                          weights=weights, replicates=replicates, seed=seed)
    tables = [transform(generate(spec, r).curves) for r in range(replicates)]
    stacked = SpectralTable(coeffs=np.stack([t.coeffs for t in tables]), period=T,
                            n_samples=n_samples)
    return CriterionContext(stacked, weights), [CriterionContext(t, weights) for t in tables]


def assert_rows_equal(stacked, singles, weights):
    """Every field of a `_descend` or `_minimize_tables` record against one-run
    records: floats to 1e-12, stop reasons and work counts exactly.  Then the
    stop rule at each run's end point, from its rephased table: a run reads
    converged exactly where H is positive definite and the Newton step's
    max-norm is at most FINAL_STEP."""
    for p, alone in enumerate(singles):
        for field in dataclasses.fields(optimize.Descent):
            a, b = getattr(stacked, field.name)[p], getattr(alone, field.name)[0]
            if a.dtype.kind == "i":
                assert np.array_equal(a, b), (p, field.name)
            else:
                assert np.max(np.abs(a - b)) <= 1e-12, (p, field.name)
    n = 2 * weights.max_frequency + 1
    ctx = CriterionContext(SpectralTable(stacked.aligned, T, n), weights)
    H, g = criterion._hessian(ctx, stacked.aligned), criterion._gradient(ctx, stacked.aligned)
    step = np.max(np.abs(np.linalg.solve(H, g[..., None])[..., 0]), axis=-1)
    meets = (np.linalg.eigvalsh(H)[:, 0] > 0.0) & (step <= optimize.FINAL_STEP)
    assert np.array_equal(stacked.converged, meets)


class TestStackedEngine:
    """One stacked Newton pass gives each problem the run it would have alone."""

    @pytest.mark.parametrize("max_iterations", [None, 2])
    @pytest.mark.parametrize("weights", ["power:1.3", "unit", "power:1.0"])
    @pytest.mark.parametrize("pattern,n_curves,sigma", [("cosine", 4, 1.0), ("sinc15", 5, 3.0)])
    def test_stack_equals_one_replicate_at_a_time(self, pattern, n_curves, sigma, weights,
                                                  max_iterations):
        # Under unit and power:1.0 weights a budget of 2 iterations stops
        # most runs before they converge, so a table's winner is picked among
        # unfinished runs.
        scheme = (WeightScheme.unit(50) if weights == "unit"
                  else WeightScheme.power(float(weights.split(":")[1]), 50))
        stacked, singles = stacked_contexts(pattern, scheme, n_curves, 101, sigma, 8, 6)
        config = (OptimizerConfig() if max_iterations is None
                  else OptimizerConfig(max_iterations=max_iterations))
        out = optimize._minimize_tables(stacked, config)
        alone = [optimize._minimize_tables(stack_of_one(ctx), config) for ctx in singles]
        assert_rows_equal(out, alone, scheme)
        for ctx, run in zip(singles, alone):  # `minimize` reads the stack-of-one record
            res = minimize(ctx, config)
            assert (res.alpha_hat.free.tolist(), res.criterion_value, res.iterations,
                    res.converged, res.gradient_max) == (run.x[0].tolist(), run.f[0],
                    run.iterations[0], run.converged[0], run.gradient_max[0])
        # Scan, then under flagged weights lag and zero starts, for every table.
        assert optimize._starts(stacked).shape == (8, 1 if weights == "power:1.3" else 3,
                                                   n_curves - 1)

    def stack_with_slow_and_indefinite_rows(self):
        # Scan starts of six sinc15 tables converge in 2 iterations from a
        # positive definite Hessian.  On table 0 the zero start has an
        # indefinite Hessian and takes 5 iterations; on table 1 the start
        # (3, 3, -3) takes 10.
        stacked, singles = stacked_contexts("sinc15", WeightScheme.power(1.3, 50), 4, 101, 2.0,
                                            6, 3)
        x0 = np.vstack([optimize._starts(stacked)[:, 0], np.zeros(3), [3.0, 3.0, -3.0]])
        owner = np.r_[np.arange(6), 0, 1]
        table = SpectralTable(coeffs=stacked.table.coeffs[owner], period=T, n_samples=101)
        return CriterionContext(table, stacked.weights), [singles[r] for r in owner], x0

    @pytest.mark.parametrize("max_iterations", [3, 500])
    def test_rows_stop_on_their_own(self, max_iterations):
        ctx, singles, x0 = self.stack_with_slow_and_indefinite_rows()
        config = OptimizerConfig(max_iterations=max_iterations)
        out = optimize._descend(ctx, x0, config)
        alone = [optimize._descend(stack_of_one(single), x0[p:p + 1], config)
                 for p, single in enumerate(singles)]
        assert_rows_equal(out, alone, ctx.weights)
        iters, stop = out.iterations, out.stop
        assert np.all(stop[:6] == optimize.TOLERANCE) and np.all(iters[:6] == 2)
        if max_iterations == 3:
            assert np.array_equal(iters[6:], [3, 3])
            assert np.all(stop[6:] == optimize.ITERATION_CAP)
        else:
            assert np.array_equal(iters[6:], [5, 10]) and np.all(stop[6:] == optimize.TOLERANCE)
        # No search fails, so each direction gives one accepted step; the zero
        # start's indefinite Hessian gives at least one -g direction.
        assert np.array_equal(out.newton + out.steepest - iters, np.zeros(8))
        assert out.steepest[6] > 0 and np.all(out.steepest[:6] == 0)

    def test_indefinite_start_hessian_beside_definite_ones(self):
        ctx, singles, x0 = self.stack_with_slow_and_indefinite_rows()
        smallest = [np.linalg.eigvalsh(hessian(single, x))[0] for single, x in zip(singles, x0)]
        assert min(smallest[:6]) > 0.0 and max(smallest[6:]) < 0.0
        config = OptimizerConfig()
        assert_rows_equal(optimize._descend(ctx, x0, config),
                          [optimize._descend(stack_of_one(single), x0[p:p + 1], config)
                           for p, single in enumerate(singles)], ctx.weights)


def saddle_case():
    """Three in-phase cosines of amplitudes 1, 1/2 and 4 (n = 101, power:1.3)
    as a stack of one.  At alpha = (pi, pi) curve 2 lies along the sum of the
    others and curve 3 against it, so the gradient is zero up to rounding and
    H is indefinite."""
    t = np.arange(101) * T / 101
    curves = CurveSet(samples=np.outer([1.0, 0.5, 4.0], np.cos(t)), period=T)
    return stack_of_one(CriterionContext(transform(curves), WeightScheme.power(1.3, 50)))


class TestDescent:
    """The record `_descend` returns: stop reasons, work counts and the winner rule."""

    def test_every_stop_reason_is_reached(self):
        spec = SimulationSpec(pattern="sinc15", n_curves=5, n_samples=101, sigma=1.0,
                              replicates=1, seed=2)
        ctx = stack_of_one(CriterionContext(transform(generate(spec, 0).curves), spec.weights))
        x0 = optimize._starts(ctx)[0]
        run = optimize._descend(ctx, x0, OptimizerConfig())
        assert run.stop[0] == optimize.TOLERANCE and run.converged[0]
        run = optimize._descend(ctx, x0, OptimizerConfig(max_iterations=1))
        assert run.stop[0] == optimize.ITERATION_CAP and not run.converged[0]
        assert run.iterations[0] == 1 and run.gradient_max[0] > 1e-8
        run = optimize._descend(saddle_case(), np.array([[np.pi, np.pi]]), OptimizerConfig())
        assert run.stop[0] == optimize.NO_LOWER_VALUE and not run.converged[0]

    def test_no_move_stop_keeps_the_run(self):
        # sinc15 J = 10, n = 101, sigma 3, unit weights, seed 7: the scan
        # start of replicate 19 is the one run of that 100-replicate cell
        # that ends with no lower value.  Its last point has a positive
        # definite H whose Newton step, 1.58e-8 rad, is just longer than
        # FINAL_STEP, and no trial along it is lower.  The run keeps that
        # point, its value and its 34 iterations.  Its last search ends at the
        # first trial point that rounds to x, before 80 halvings (numpy's
        # loops round differently on some CPUs, hence the tolerance).
        spec = SimulationSpec(pattern="sinc15", n_curves=10, n_samples=101, sigma=3.0,
                              weights=WeightScheme.unit(50), replicates=20, seed=7)
        single = CriterionContext(transform(generate(spec, 19).curves), spec.weights)
        ctx = stack_of_one(single)
        x0 = optimize._starts(ctx)[0, :1]
        run = optimize._descend(ctx, x0, OptimizerConfig())
        assert run.x[0, 0] == pytest.approx(-0.10710432053081576, rel=1e-12)
        assert run.f[0] == pytest.approx(8.498114905205387, rel=1e-12)
        assert run.iterations[0] == 34 and run.stop[0] == optimize.NO_LOWER_VALUE
        assert run.rephased[0] == 1 + 34 + run.rejected[0]
        capped = optimize._descend(ctx, x0, OptimizerConfig(max_iterations=34))
        assert np.array_equal(capped.x, run.x) and capped.stop[0] == optimize.ITERATION_CAP
        assert 0 < run.rejected[0] - capped.rejected[0] < 80
        H = hessian(single, run.x[0])
        step = np.max(np.abs(np.linalg.solve(H, gradient(single, run.x[0]))))
        assert np.linalg.eigvalsh(H)[0] > 0.0 and step > optimize.FINAL_STEP

    def test_converged_run_takes_its_last_newton_step(self):
        # A study-cosine table: the scan start's first Newton step leaves the
        # run 4.1e-8 rad short of the minimum, a Newton step longer than
        # FINAL_STEP, so the run takes it as its second iteration.  It then
        # ends where further Newton steps leave it, to rounding.  A cap of one
        # iteration stops it before that step, unconverged; at a cap of two
        # the step test holds at the same point as the cap, and wins.
        spec = SimulationSpec(pattern="cosine", n_curves=5, n_samples=401, sigma=0.5,
                              replicates=1, seed=0)
        single = CriterionContext(transform(generate(spec, 0).curves), spec.weights)
        ctx = stack_of_one(single)
        x0 = optimize._starts(ctx)[0]
        one = optimize._descend(ctx, x0, OptimizerConfig(max_iterations=1))
        assert one.stop[0] == optimize.ITERATION_CAP and not one.converged[0]
        assert one.iterations[0] == 1
        run = optimize._descend(ctx, x0, OptimizerConfig())
        assert run.stop[0] == optimize.TOLERANCE and run.iterations[0] == 2
        two = optimize._descend(ctx, x0, OptimizerConfig(max_iterations=2))
        assert two.stop[0] == optimize.TOLERANCE and np.array_equal(two.x, run.x)
        x = run.x[0]
        for _ in range(3):
            x = x - np.linalg.solve(hessian(single, x), gradient(single, x))
        assert np.max(np.abs(run.x[0] - x)) <= 1e-15
        assert np.max(np.abs(run.x - one.x)) > optimize.FINAL_STEP

    def test_indefinite_hessian_is_never_converged(self):
        # At the saddle the gradient is 5e-17, far below any absolute
        # tolerance, but H is indefinite: the run takes -g, whose first
        # trial rounds to x, and stops unconverged where it started.
        ctx = saddle_case()
        run = optimize._descend(ctx, np.array([[np.pi, np.pi]]), OptimizerConfig())
        assert run.gradient_max[0] < 1e-16
        assert run.stop[0] == optimize.NO_LOWER_VALUE and not run.converged[0]
        assert run.iterations[0] == 0 and run.steepest[0] == 1 and run.rejected[0] == 1
        eigenvalues = np.linalg.eigvalsh(criterion._hessian(ctx, run.aligned)[0])
        assert eigenvalues[0] < 0.0 < eigenvalues[1]

    def test_zero_gradient_at_positive_definite_hessian_converges(self):
        # Two equal curves with real coefficients, started at 0: every
        # rephased coefficient is exact, so g is exactly zero.  Its Newton
        # step does not descend (g.d = 0) and `_newton_directions` marks it
        # steep, but the step's length, 0, meets the stop test at once.
        coeffs = np.array([[[0.0, 1.0, 0.5, 0.25]] * 2], dtype=complex)
        ctx = CriterionContext(SpectralTable(coeffs, T, 7), WeightScheme.power(1.3, 3))
        run = optimize._descend(ctx, np.zeros((1, 1)), OptimizerConfig())
        assert run.gradient_max[0] == 0.0
        assert run.stop[0] == optimize.TOLERANCE and run.converged[0]
        assert run.iterations[0] == 0 and run.newton[0] == run.steepest[0] == 0
        assert criterion._hessian(ctx, run.aligned)[0, 0, 0] > 0.0

    def test_amplitude_leaves_the_estimate_in_place(self):
        # The stop is a Newton step, in radians, so scaling the curves moves
        # alpha_hat only by rounding.  Under the former absolute gradient
        # tolerance this table's fit moved by 7.0e-7 rad at c = 1e-6 and 1e-3.
        spec = SimulationSpec(pattern="cosine", n_curves=5, n_samples=401, sigma=0.5,
                              replicates=1, seed=7)
        curves = generate(spec, 0).curves
        base = minimize(CriterionContext(transform(curves), spec.weights)).alpha_hat.free
        for c in (1e-6, 1e-3, 4.0, 100.0):
            scaled = CurveSet(samples=c * curves.samples, period=T)
            res = minimize(CriterionContext(transform(scaled), spec.weights))
            assert res.converged and np.max(np.abs(res.alpha_hat.free - base)) <= 1e-12, c

    def fake_winner(self, monkeypatch, f, x):
        # Two flagged-weight tables of three starts; the descent's record is
        # replaced by rows with the given values and end points, and each
        # row's `rejected` count holds its row number.
        P = len(f)
        fake = optimize.Descent(
            x=np.array(x, dtype=float)[:, None], f=np.array(f, dtype=float),
            iterations=np.zeros(P, dtype=int), gradient_max=np.zeros(P),
            aligned=np.zeros((P, 2, 2), dtype=complex), stop=np.full(P, optimize.TOLERANCE),
            newton=np.zeros(P, dtype=int), steepest=np.zeros(P, dtype=int),
            rejected=np.arange(P))
        monkeypatch.setattr(optimize, "_descend", lambda ctx, x0, config: fake)
        coeffs = np.ones((2, 2, 2), dtype=complex)
        ctx = CriterionContext(SpectralTable(coeffs, T, 3), WeightScheme.unit(1))
        return optimize._minimize_tables(ctx).rejected

    def test_winner_rule(self, monkeypatch):
        # Lowest f; an exact tie goes to the smaller x, then to the earlier
        # start; a value that is not finite never wins, -inf included.
        nan, inf = float("nan"), float("inf")
        assert np.array_equal(self.fake_winner(
            monkeypatch, [2.0, 1.0, 1.0, 1.0, 1.0, 1.0], [0.0, 0.5, -0.5, 0.3, 0.3, 0.3]), [2, 3])
        assert np.array_equal(self.fake_winner(
            monkeypatch, [-inf, nan, 5.0, inf, 7.0, nan], [-1.0, -1.0, 1.0, -1.0, 1.0, -1.0]),
            [2, 4])
        with pytest.raises(ValueError, match="no starting point produced a finite criterion"):
            self.fake_winner(monkeypatch, [1.0, 1.0, 1.0, nan, inf, -inf], [0.0] * 6)


def newton_direction(H, g):
    """`_newton_directions` on a stack of one."""
    d, gd, steep, length = optimize._newton_directions(H[None], g[None])
    return d[0], gd[0], steep[0], length[0]


def engine_hessians(pattern, n_curves, replicates):
    """H (R, J-1, J-1) and g (R, J-1) of a power:1.3 study block at its scan starts."""
    spec = SimulationSpec(pattern=pattern, n_curves=n_curves, n_samples=401, sigma=0.5,
                          replicates=replicates, seed=3)
    tables = [transform(generate(spec, r).curves) for r in range(replicates)]
    table = SpectralTable(np.stack([t.coeffs for t in tables]), T, 401)
    ctx = CriterionContext(table, spec.weights)
    x0 = optimize._starts(ctx)[:, 0]
    ct = rephase(table, criterion.full_phases(x0, n_curves)).coeffs
    return criterion._hessian(ctx, ct), criterion._gradient(ctx, ct)


def random_hessian(k):
    """A stack of one symmetric positive definite k x k matrix, and a gradient."""
    rng = np.random.default_rng(k)
    A = rng.standard_normal((k, k))
    H = A @ A.T / k + 0.1 * np.eye(k)
    return (H + H.T)[None] / 2.0, rng.standard_normal((1, k))


ENGINE_HESSIANS = {"cosine-J5-block": ("cosine", 5, 10), "sinc15-J30": ("sinc15", 30, 1)}


class TestNewtonDirection:
    @pytest.mark.parametrize("k", [1, 4, 29, 64, 65, 200, 999, *ENGINE_HESSIANS])
    def test_matches_cho_solve(self, k):
        # Random symmetric H, and the engine's own Hessians at the scan starts
        # of a study-cosine block and of a J = 30 table: those are symmetric
        # only up to rounding, and the solve reads all of H, yet it agrees
        # with a solve from H's upper triangle alone.
        from scipy.linalg import cho_factor, cho_solve

        engine = k in ENGINE_HESSIANS
        H, g = engine_hessians(*ENGINE_HESSIANS[k]) if engine else random_hessian(k)
        tol = 1e-12 if engine else 1e-13
        d, gd, steep, length = optimize._newton_directions(H, g)
        for Hr, gr, dr in zip(H, g, d):
            expected = -cho_solve(cho_factor(Hr, lower=False), gr)
            assert np.max(np.abs(dr - expected)) <= tol * np.max(np.abs(expected))
        assert np.array_equal(gd, np.einsum("pk,pk->p", g, d))
        assert np.all(gd < 0.0) and not steep.any()
        assert np.array_equal(length, np.max(np.abs(d), axis=-1))

    def test_steepest_descent_without_factor(self):
        g = np.array([1.0, -2.0, 3.0])
        for H in (np.diag([1.0, -1.0, 2.0]), np.zeros((3, 3))):
            d, gd, steep, length = newton_direction(H, g)
            assert np.array_equal(d, -g) and gd == -14.0 and steep
            assert length == np.inf

    @pytest.mark.parametrize("k", [1, 4, 29, 64, 65, 200])
    def test_stack_equals_rows(self, k):
        # Positive definite rows, then an indefinite one and a zero gradient
        # (a Newton step that does not descend).  One indefinite row sends
        # the stack to the row-by-row factorization; without it, all rows
        # are factored in one call.  Either way every row gets the direction
        # it gets alone, bit for bit.
        rng = np.random.default_rng(k)
        A = rng.standard_normal((4, k, k))
        H = A @ np.swapaxes(A, -1, -2) / k + 0.1 * np.eye(k)
        H[2] = -H[2]
        g = rng.standard_normal((4, k))
        g[3] = 0.0
        for rows in ([0, 1, 2, 3], [0, 1, 3], [0, 1]):
            d, gd, steep, length = optimize._newton_directions(H[rows], g[rows])
            for i, r in enumerate(rows):
                d1, gd1, steep1, length1 = newton_direction(H[r], g[r])
                assert np.array_equal(d[i], d1) and gd[i] == gd1 and steep[i] == steep1, (rows, r)
                assert length[i] == length1, (rows, r)
        d, gd, steep, length = optimize._newton_directions(H, g)
        assert np.array_equal(steep, [False, False, True, True])
        assert np.array_equal(d[2:], -g[2:]) and np.all(gd[:2] < 0.0)
        assert gd[2] == pytest.approx(-np.dot(g[2], g[2]), rel=1e-15) and gd[3] == 0.0
        # The zero gradient's Newton step does not descend, so it takes -g,
        # but its length, 0 at a positive definite H, is what the stop reads.
        assert np.array_equal(length[:2], np.max(np.abs(d[:2]), axis=-1))
        assert length[2] == np.inf and length[3] == 0.0


class TestOptimizerConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_iterations must be positive"):
            OptimizerConfig(max_iterations=0)

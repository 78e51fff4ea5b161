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
    transform,
    wrap_phase,
)
from curveshift import criterion, fourier, optimize
from curveshift.criterion import evaluate, grid_profile, hessian

T = 2.0 * np.pi

# Scan-start accuracy on the noisy sinc protocol (J = 10, n = 101,
# sigma = 1): measured share of per-curve scan starts within 2 pi / n of the
# true phase was 0.981 over 200 replicates (seed 20260809); the whole-vector
# rate was 0.905.  The unweighted n-point lag start measured 0.985 and 0.875.
INITIALIZER_RATE_BOUND = 0.95


def lag_start(table):
    """The unweighted n-point phase-correlation lag of each curve against curve 1,
    as a per-curve loop independent of `optimize._correlation_argmax`."""
    n = table.n_samples
    start = np.zeros(table.n_curves - 1)
    for j in range(1, table.n_curves):
        p = table.coeffs[j] * np.conj(table.coeffs[0])
        k = int(np.argmax(np.fft.ifft(np.fft.ifftshift(p)).real))
        start[j - 1] = wrap_phase(2.0 * np.pi * (k - n if k > n // 2 else k) / n)
    return start


def cosine_curves(alphas_full, n=101):
    t = np.arange(n) * T / n
    return CurveSet(samples=np.vstack([np.cos(t - a) for a in alphas_full]), period=T)


def start_rows(ctx):
    """The start rows of `optimize._starts` for one table."""
    return optimize._starts(ctx)[0]


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
        coeffs = np.zeros((2, 11), dtype=complex)
        coeffs[:, 5] = 3.0  # only l = 0 carries energy
        ctx = CriterionContext(SpectralTable(coeffs=coeffs, period=T), WeightScheme.unit(5))
        starts = start_rows(ctx)
        assert len(starts) == 1
        assert np.array_equal(starts[0], np.zeros(1))

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
        # A table that is not conjugate-symmetric (not from real curves):
        # the scan maximizes Re sum_l w2_l d_2l conj(d_1l) exp(i l a) over all l.
        rng = np.random.default_rng(5)
        L, m = 6, 8 * 13
        coeffs = rng.normal(size=(2, 2 * L + 1)) + 1j * rng.normal(size=(2, 2 * L + 1))
        weights = WeightScheme.power(1.3, L)
        ctx = CriterionContext(SpectralTable(coeffs=coeffs, period=T), weights)
        grid = 2.0 * np.pi * np.arange(m) / m
        ls = np.arange(-L, L + 1)
        p = weights.values**2 * coeffs[1] * np.conj(coeffs[0])
        corr = [np.real(np.sum(p * np.exp(1j * ls * a))) for a in grid]
        best = grid[int(np.argmax(corr))]
        assert abs(wrap_phase(start_rows(ctx)[0][0] - best)) < 1e-12

    def test_flagged_weights_add_lag_and_zero_starts(self):
        spec = SimulationSpec(pattern="sinc15", n_curves=5, n_samples=101, sigma=1.0,
                              replicates=1, seed=2)
        table = transform(generate(spec, 0).curves)
        assert len(start_rows(CriterionContext(table, spec.weights))) == 1
        for weights in (WeightScheme.unit(50), WeightScheme.power(1.0, 50)):
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
        res = minimize(ctx, keep_trace=True)
        trace = np.asarray(res.trace)
        assert trace.size >= 2
        assert np.all(np.diff(trace) <= 0.0)

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
        # One realization per noise level, as in the weight-sweep figure;
        # seed 4 chosen during development (the event has probability ~1/2
        # per replicate at sigma = 5).
        for sigma in (1.0, 3.0, 5.0):
            spec = SimulationSpec(pattern="sinc15", n_curves=2, n_samples=101,
                                  sigma=sigma, shifts=np.array([0.0, np.pi / 3]),
                                  replicates=1, seed=4)
            rep = generate(spec, 0)
            ctx = CriterionContext(transform(rep.curves), spec.weights)
            res = minimize(ctx)
            assert abs(res.alpha_hat.free[0] - np.pi / 3) <= 0.05

    def test_all_zero_weights_rejected(self):
        curves = cosine_curves([0.0, 0.5])
        ctx = CriterionContext(transform(curves), WeightScheme.custom(np.zeros(101)))
        with pytest.raises(ValueError, match="identically zero"):
            minimize(ctx)

    def test_nonconvergence_is_flagged_not_raised(self):
        spec = SimulationSpec(pattern="sinc15", n_curves=6, n_samples=101, sigma=3.0,
                              replicates=1, seed=99)
        rep = generate(spec, 0)
        ctx = CriterionContext(transform(rep.curves), spec.weights)
        res = minimize(ctx, OptimizerConfig(max_iterations=1, gradient_tolerance=1e-14))
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
        # The sigma = 5, unit-weight, replicate-1 cell of the simulate figure
        # grid: the unweighted lag and zero starts end at M = 12.9280
        # (alpha_2 = 1.0589); the lowest basin is M = 12.6226 at 0.8483.
        spec = SimulationSpec(pattern="sinc15", n_curves=2, n_samples=101, sigma=5.0,
                              shifts=np.array([0.0, np.pi / 3]), weights=WeightScheme.unit(50),
                              replicates=2, seed=9)
        ctx = CriterionContext(transform(generate(spec, 1).curves), spec.weights)
        res = minimize(ctx)
        assert res.criterion_value == pytest.approx(12.6226, abs=1e-4)
        assert res.alpha_hat.free[0] == pytest.approx(0.8483, abs=1e-4)

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
        # starts, so the minimum reached is never higher.  The iteration cap and
        # tolerance only bound the cost of runs that stall at the rounding
        # floor of the unit-weight gradient; both sides use the same config.
        # A descent minimize already ran from the same start is not rerun:
        # `_descend` runs one descent per row of its start array, and each
        # row's value is recorded under that start.
        config = OptimizerConfig(max_iterations=50, gradient_tolerance=1e-6)
        original, runs = optimize._descend, {}

        def recording(ctx, x0, *args):
            out = original(ctx, x0, *args)
            runs.update((np.asarray(row).tobytes(), f) for row, f in zip(x0, out[1]))
            return out

        def descent_value(ctx, x0):
            if x0.tobytes() not in runs:
                recording(ctx, x0[None], config, False)
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
    stacked = SpectralTable(coeffs=np.stack([t.coeffs for t in tables]), period=T)
    return CriterionContext(stacked, weights), [CriterionContext(t, weights) for t in tables]


def assert_rows_equal(stacked_out, single_outs):
    """`_descend` or `_minimize_tables` rows against one-row runs, to 1e-12."""
    x, f, iters, converged, gmax, traces = stacked_out
    for p, (xs, fs, its, cs, gs, ts) in enumerate(single_outs):
        assert np.max(np.abs(x[p] - xs[0])) <= 1e-12, p
        assert abs(f[p] - fs[0]) <= 1e-12, p
        assert iters[p] == its[0] and converged[p] == cs[0], p
        assert abs(gmax[p] - gs[0]) <= 1e-12, p
        if traces is not None:
            assert np.allclose(traces[p], ts[0], rtol=0, atol=1e-12), p


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
        alone = []
        for ctx in singles:
            res = minimize(ctx, config)
            alone.append(([res.alpha_hat.free], [res.criterion_value], [res.iterations],
                          [res.converged], [res.gradient_max], None))
        assert_rows_equal(out, alone)
        x0, owner = optimize._starts(stacked)
        rows_per_table = np.bincount(owner)
        assert rows_per_table.sum() == x0.shape[0]
        if weights == "power:1.3":
            assert np.all(rows_per_table == 1)
        else:  # scan, lag and zero starts, duplicates dropped
            assert np.all(rows_per_table >= 1)
            assert rows_per_table.max() == 3

    def stack_with_slow_and_indefinite_rows(self):
        # Scan starts of six sinc15 tables converge in 2 iterations from a
        # positive definite Hessian.  On table 0 the zero start has an
        # indefinite Hessian and takes 4 iterations; on table 1 the start
        # (3, 3, -3) takes 10.
        stacked, singles = stacked_contexts("sinc15", WeightScheme.power(1.3, 50), 4, 101, 2.0,
                                            6, 3)
        x0, owner = optimize._starts(stacked)
        x0 = np.vstack([x0, np.zeros(3), [3.0, 3.0, -3.0]])
        owner = np.concatenate([owner, [0, 1]])
        table = SpectralTable(coeffs=stacked.table.coeffs[owner], period=T)
        return CriterionContext(table, stacked.weights), [singles[r] for r in owner], x0

    @pytest.mark.parametrize("max_iterations", [3, 500])
    def test_rows_stop_on_their_own(self, max_iterations):
        ctx, singles, x0 = self.stack_with_slow_and_indefinite_rows()
        config = OptimizerConfig(max_iterations=max_iterations)
        out = optimize._descend(ctx, x0, config, True)
        alone = [optimize._descend(single, x0[p:p + 1], config, True)
                 for p, single in enumerate(singles)]
        assert_rows_equal(out, alone)
        iters, converged = out[2], out[3]
        assert np.all(converged[:6]) and np.all(iters[:6] == 2)
        if max_iterations == 3:
            assert np.array_equal(iters[6:], [3, 3]) and not np.any(converged[6:])
        else:
            assert np.array_equal(iters[6:], [4, 10]) and np.all(converged[6:])

    def test_indefinite_start_hessian_beside_definite_ones(self):
        ctx, singles, x0 = self.stack_with_slow_and_indefinite_rows()
        smallest = [np.linalg.eigvalsh(hessian(single, x))[0] for single, x in zip(singles, x0)]
        assert min(smallest[:6]) > 0.0 and max(smallest[6:]) < 0.0
        config = OptimizerConfig()
        assert_rows_equal(optimize._descend(ctx, x0, config, False),
                          [optimize._descend(single, x0[p:p + 1], config, False)
                           for p, single in enumerate(singles)])

    def test_shared_table_equals_copies(self):
        # minimize stacks its starts on one (J, 2L+1) table; a study stacks
        # one copy of the table per start.  Both give the same runs.
        ctx, singles, x0 = self.stack_with_slow_and_indefinite_rows()
        shared = singles[0]
        copies = CriterionContext(SpectralTable(np.stack([shared.table.coeffs] * len(x0)), T),
                                  shared.weights)
        config = OptimizerConfig()
        out = optimize._descend(shared, x0, config, True)
        again = optimize._descend(copies, x0, config, True)
        for a, b in zip(out[:5], again[:5]):
            assert np.array_equal(a, b)
        assert out[5] == again[5]


class TestOptimizerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(max_iterations=0)
        with pytest.raises(ValueError):
            OptimizerConfig(gradient_tolerance=0.0)

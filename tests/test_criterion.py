import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_criterion,
    finite_difference_gradient,
    finite_difference_jacobian,
    random_instance,
)
from curveshift import (
    ConstrainedShift,
    CriterionContext,
    CurveSet,
    SpectralTable,
    WeightScheme,
    check_identifiability,
    evaluate,
    gradient,
    grid_profile,
    hessian,
    rephase,
    transform,
)
from curveshift.criterion import _value

T = 2.0 * np.pi


def cosine_context(alpha2_true, n=101, n_curves=2, weights=None):
    """Noiseless unit cosines shifted by the given phases (curve 1 at zero)."""
    t = np.arange(n) * T / n
    full = np.concatenate([[0.0], np.atleast_1d(alpha2_true)])
    rows = [np.cos(t - a) for a in full[:n_curves]]
    table = transform(CurveSet(samples=np.vstack(rows), period=T))
    weights = weights or WeightScheme.unit((n - 1) // 2)
    return CriterionContext(table, weights)


class TestEvaluate:
    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(100)
        for _ in range(20):
            ctx, alpha = random_instance(rng)
            got = evaluate(ctx, alpha)
            oracle = brute_force_criterion(
                ctx.table.coeffs, ctx.weights.values, np.concatenate([[0.0], alpha])
            )
            assert got == pytest.approx(oracle, rel=1e-10)

    def test_noiseless_identical_curves_vanish(self):
        row = np.cos(np.arange(51) * T / 51)
        ctx = CriterionContext(
            transform(CurveSet(samples=np.vstack([row] * 4), period=T)),
            WeightScheme.power(1.3, 25),
        )
        assert evaluate(ctx, np.zeros(3)) < 1e-20

    def test_two_curve_closed_form(self):
        # Single active frequency: M reduces to sin(delta/2)^2 / 2 where
        # delta is the offset from the true phase difference.
        a2 = 0.6
        ctx = cosine_context(a2)
        for delta in (np.pi, np.pi / 2, 0.3, -1.2):
            got = evaluate(ctx, [a2 + delta])
            assert got == pytest.approx(np.sin(delta / 2.0) ** 2 / 2.0, abs=1e-12)
        assert evaluate(ctx, [a2 + np.pi]) == pytest.approx(0.5, abs=1e-12)

    def test_decomposition_identity(self):
        # sum_l w^2 [ mean_j |ct|^2 - |cbar|^2 ] equals the double sum.
        rng = np.random.default_rng(101)
        for _ in range(10):
            ctx, alpha = random_instance(rng)
            full = np.concatenate([[0.0], alpha])
            ls = ctx.table.frequencies
            ct = ctx.table.coeffs * np.exp(1j * np.outer(full, ls))
            cbar = ct.mean(axis=0)
            w2 = ctx.weights.values**2
            alt = float(np.sum(w2 * (np.mean(np.abs(ct) ** 2, axis=0) - np.abs(cbar) ** 2)))
            assert evaluate(ctx, alpha) == pytest.approx(alt, rel=1e-10)

    def test_nonnegative(self):
        rng = np.random.default_rng(102)
        for _ in range(30):
            ctx, alpha = random_instance(rng)
            assert evaluate(ctx, alpha) >= 0.0

    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_common_phase_invariance(self, shift, seed):
        rng = np.random.default_rng(seed)
        ctx, alpha = random_instance(rng, max_curves=5, max_samples=31)
        phases = np.concatenate([[0.0], alpha])
        v0, v1 = (float(_value(ctx, rephase(ctx.table, p).coeffs)) for p in (phases, phases + shift))
        assert v1 == pytest.approx(v0, rel=1e-10, abs=1e-12)

    def test_lattice_periodicity_single_frequency(self):
        # Only |l| = 2 active: the criterion repeats with period pi.
        n = 21
        t = np.arange(n) * T / n
        rows = np.vstack([np.cos(2 * t), np.cos(2 * (t - 0.7)), np.cos(2 * (t + 0.3))])
        ctx = CriterionContext(transform(CurveSet(samples=rows, period=T)), WeightScheme.unit(10))
        rng = np.random.default_rng(103)
        for _ in range(5):
            alpha = rng.uniform(-1.0, 1.0, 2)
            for k in range(2):
                bumped = alpha.copy()
                bumped[k] += np.pi
                assert evaluate(ctx, bumped) == pytest.approx(evaluate(ctx, alpha), rel=1e-10)

    def test_dimension_mismatch_rejected(self):
        ctx = cosine_context(0.5)
        with pytest.raises(ValueError, match="free phases"):
            evaluate(ctx, np.zeros(3))
        with pytest.raises(ValueError, match="frequency range"):
            CriterionContext(ctx.table, WeightScheme.unit(3))


class TestGradient:
    def test_zero_at_noiseless_truth(self):
        a_true = np.array([0.9, -1.4, 0.2])
        ctx = cosine_context(a_true, n_curves=4)
        assert np.max(np.abs(gradient(ctx, a_true))) < 1e-10

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(104)
        for _ in range(15):
            ctx, alpha = random_instance(rng)
            ana = gradient(ctx, alpha)
            fd = finite_difference_gradient(lambda a: evaluate(ctx, a), alpha, step=1e-6)
            scale = max(np.max(np.abs(fd)), 1e-8)
            assert np.max(np.abs(ana - fd)) / scale < 1e-5

    def test_two_curve_closed_form_derivative(self):
        # d/d delta of sin(delta/2)^2 / 2 = sin(delta)/4; at delta = pi/2
        # the single entry is 0.25.  (Cross-checked against finite
        # differences of the evaluated criterion.)
        a2 = 0.6
        ctx = cosine_context(a2)
        delta = np.pi / 2
        g = gradient(ctx, [a2 + delta])
        assert g[0] == pytest.approx(np.sin(delta) / 4.0, abs=1e-12)
        assert g[0] == pytest.approx(0.25, abs=1e-12)
        fd = finite_difference_gradient(lambda a: evaluate(ctx, a), np.array([a2 + delta]))
        assert g[0] == pytest.approx(fd[0], rel=1e-7)


class TestHessian:
    def test_symmetric(self):
        rng = np.random.default_rng(105)
        ctx, alpha = random_instance(rng)
        H = hessian(ctx, alpha)
        assert np.max(np.abs(H - H.T)) < 1e-14

    def test_matches_finite_differences_of_gradient(self):
        rng = np.random.default_rng(106)
        for _ in range(10):
            ctx, alpha = random_instance(rng)
            H = hessian(ctx, alpha)
            fd = finite_difference_jacobian(lambda a: gradient(ctx, a), alpha, step=1e-5)
            scale = max(np.max(np.abs(fd)), 1e-8)
            assert np.max(np.abs(H - fd)) / scale < 1e-4

    def test_noiseless_cosine_limit_matrix(self):
        # For a pure cosine with unit weights at the truth the finite-n
        # matrix already equals its population limit:
        # (2/J^2) * (1/2) * (J I - U), since sum w^2 l^2 |c_l|^2 = 1/2.
        for J in (2, 3, 5):
            a_true = np.linspace(-1.0, 1.0, J - 1)
            ctx = cosine_context(a_true, n_curves=J)
            H = hessian(ctx, a_true)
            k = J - 1
            expected = (2.0 / J**2) * 0.5 * (J * np.eye(k) - np.ones((k, k)))
            assert np.max(np.abs(H - expected)) < 1e-12

    def test_two_curve_second_derivative(self):
        # Second derivative of sin(delta/2)^2 / 2 is cos(delta)/4.
        a2 = 0.6
        ctx = cosine_context(a2)
        for delta in (0.0, 0.8, np.pi / 2):
            H = hessian(ctx, [a2 + delta])
            assert H[0, 0] == pytest.approx(np.cos(delta) / 4.0, abs=1e-12)
        assert hessian(ctx, [a2])[0, 0] == pytest.approx(0.25, abs=1e-12)


class TestGridProfile:
    def test_matches_pointwise_evaluate(self):
        rng = np.random.default_rng(107)
        ctx, alpha = random_instance(rng, max_curves=4)
        grid = np.linspace(-np.pi, np.pi, 17)
        for coord in range(alpha.size):
            prof = grid_profile(ctx, grid, coordinate=coord, base=alpha)
            direct = []
            for g in grid:
                a = alpha.copy()
                a[coord] = g
                direct.append(evaluate(ctx, a))
            assert np.allclose(prof, direct, rtol=1e-10, atol=1e-12)


class TestConstrainedShift:
    def test_bounds_enforced(self):
        with pytest.raises(ValueError, match="pi"):
            ConstrainedShift(free=np.array([3.5]))
        with pytest.raises(ValueError, match="finite"):
            ConstrainedShift(free=np.array([np.nan]))

    def test_full_prepends_zero(self):
        s = ConstrainedShift(free=np.array([0.3, -0.7]))
        assert np.array_equal(s.full(), [0.0, 0.3, -0.7])
        assert np.array_equal(np.asarray(s), [0.3, -0.7])


class TestIdentifiability:
    def test_cosine_active_pair_passes(self):
        ctx = cosine_context(0.5)
        check = check_identifiability(ctx)
        assert check.ok
        assert set(np.abs(check.active_frequencies)) == {1}

    def test_single_harmonic_pair_without_coprime_fails(self):
        n = 21
        t = np.arange(n) * T / n
        rows = np.vstack([np.cos(2 * t), np.cos(2 * (t - 0.7))])
        ctx = CriterionContext(transform(CurveSet(samples=rows, period=T)), WeightScheme.unit(10))
        check = check_identifiability(ctx)
        assert not check.ok
        assert "coprime" in check.message

    def test_gcd_one_without_coprime_pair_passes(self):
        # {6, 10, 15}: every pair shares a factor, but together their gcd is 1,
        # so no common sublattice period survives.
        n = 41
        t = np.arange(n) * T / n
        rows = np.vstack([sum(np.cos(l * (t - s)) for l in (6, 10, 15)) for s in (0.0, 0.4)])
        ctx = CriterionContext(transform(CurveSet(samples=rows, period=T)), WeightScheme.unit(20))
        check = check_identifiability(ctx)
        assert set(np.abs(check.active_frequencies)) == {6, 10, 15}
        assert check.ok

    def test_weights_mask_frequencies(self):
        # Two harmonics in the signal, but the weights keep only l = +-2,
        # leaving no coprime pair in the active set.
        n = 21
        t = np.arange(n) * T / n
        rows = np.vstack(
            [np.cos(t) + np.cos(2 * t), np.cos(t - 0.5) + np.cos(2 * (t - 0.5))]
        )
        table = transform(CurveSet(samples=rows, period=T))
        values = np.zeros(n)
        values[10 + 2] = values[10 - 2] = 1.0
        ctx = CriterionContext(table, WeightScheme.custom(values))
        check = check_identifiability(ctx)
        assert not check.ok
        assert set(np.abs(check.active_frequencies)) == {2}

    def test_explicit_threshold(self):
        coeffs = np.zeros((2, 7), dtype=complex)
        coeffs[:, 3 + 1] = coeffs[:, 3 - 1] = 0.5  # l = +-1
        coeffs[:, 3 + 2] = coeffs[:, 3 - 2] = 0.01
        table = SpectralTable(coeffs=coeffs, period=T)
        ctx = CriterionContext(table, WeightScheme.unit(3))
        strict = check_identifiability(ctx, threshold=0.1)
        assert strict.ok  # {-1, 1} is a coprime pair
        assert set(strict.active_frequencies) == {-1, 1}
        loose = check_identifiability(ctx, threshold=1e-3)
        assert loose.ok
        assert set(np.abs(loose.active_frequencies)) == {1, 2}

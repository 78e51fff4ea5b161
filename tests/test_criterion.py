import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_criterion,
    finite_difference_gradient,
    finite_difference_jacobian,
    full_coeffs,
    full_weights,
    random_instance,
    random_weights,
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
from curveshift.cli import _materialize_weights
from curveshift.criterion import _gradient, _hessian, _value

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
                full_coeffs(ctx.table), full_weights(ctx.weights), np.concatenate([[0.0], alpha])
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
            L = ctx.table.max_frequency
            ct = full_coeffs(ctx.table) * np.exp(1j * np.outer(full, np.arange(-L, L + 1)))
            cbar = ct.mean(axis=0)
            w2 = full_weights(ctx.weights) ** 2
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
        # alpha_2 runs over the grid; alpha_3..alpha_J stay at 0.
        rng = np.random.default_rng(107)
        grid = np.linspace(-np.pi, np.pi, 17)
        for J in (2, 3, 4):
            L = int(rng.integers(2, 26))
            curves = CurveSet(samples=rng.normal(size=(J, 2 * L + 1)), period=T)
            ctx = CriterionContext(transform(curves), random_weights(rng, L))
            direct = [evaluate(ctx, np.concatenate([[g], np.zeros(J - 2)])) for g in grid]
            assert np.allclose(grid_profile(ctx, grid), direct, rtol=1e-10, atol=1e-12), J


def full_table_derivatives(full, weight_values, alpha_full):
    """Gradient and Hessian in alpha_2..alpha_J as the module docstring writes
    them: sums over l = -L..L of a full table, one entry at a time."""
    J, width = full.shape
    L = width // 2
    ls = np.arange(-L, L + 1)
    w2 = weight_values**2
    ct = full * np.exp(1j * np.outer(alpha_full, ls))
    cb = ct.mean(axis=0)
    grad = np.array([2.0 / J * np.sum(w2 * ls * np.imag(ct[k] * np.conj(cb)))
                     for k in range(1, J)])
    H = np.empty((J - 1, J - 1))
    for k in range(1, J):
        for m in range(1, J):
            if k == m:
                others = sum(np.conj(ct[j]) for j in range(J) if j != k)
                H[k - 1, k - 1] = 2.0 / J**2 * np.sum(w2 * ls**2 * np.real(ct[k] * others))
            else:
                H[k - 1, m - 1] = -2.0 / J**2 * np.sum(w2 * ls**2
                                                       * np.real(ct[k] * np.conj(ct[m])))
    return grad, H


def oracle_weight_schemes(tmp_path, L):
    """Unit, power:1.3 and weight-file schemes up to L, the file listing each l with -l."""
    rng = np.random.default_rng(L)
    path = tmp_path / f"weights-{L}.csv"
    rows = [f"{s * l},{d!r}" for l, d in enumerate(rng.uniform(0.0, 2.0, L).tolist(), start=1)
            for s in (1, -1)]
    path.write_text("\n".join(["l,delta"] + rows) + "\n")
    return [WeightScheme.unit(L), WeightScheme.power(1.3, L),
            _materialize_weights(f"file:{path}", L)]


def max_relative(got, ref):
    return np.max(np.abs(np.asarray(got) - ref)) / np.max(np.abs(ref))


class TestFullTableOracle:
    """The half-table kernels against the contrast and its derivatives summed
    over l = -L..L of the full table built from it.  An even n's table holds
    one more column, the Nyquist term l = n/2, which the kernels weight by 0."""

    def random_tables(self, rng, R, J, n):
        # Real curves' tables, and random complex ones, which stand for the
        # real curves whose l = 0..n//2 coefficients they are.
        real = transform(CurveSet(samples=rng.normal(size=(R, J, n)), period=T))
        shape = (R, J, n // 2 + 1)
        coeffs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        return [real, SpectralTable(coeffs, T, n)]

    @pytest.mark.parametrize("J, L", [(2, 3), (5, 20), (7, 50)])
    def test_single_tables(self, tmp_path, J, L):
        rng = np.random.default_rng(10 * J + L)
        for n, weights in itertools.product((2 * L + 1, 2 * L + 2),
                                            oracle_weight_schemes(tmp_path, L)):
            for stack in self.random_tables(rng, 2, J, n):
                for coeffs in stack.coeffs:
                    ctx = CriterionContext(SpectralTable(coeffs, T, n), weights)
                    full = full_coeffs(coeffs[:, :L + 1])
                    alpha = rng.uniform(-np.pi, np.pi, J - 1)
                    alpha_full = np.concatenate([[0.0], alpha])
                    value = brute_force_criterion(full, full_weights(weights), alpha_full)
                    grad, H = full_table_derivatives(full, full_weights(weights), alpha_full)
                    assert evaluate(ctx, alpha) == pytest.approx(value, rel=1e-12)
                    assert max_relative(gradient(ctx, alpha), grad) <= 1e-12
                    assert max_relative(hessian(ctx, alpha), H) <= 1e-12
                    grid = np.linspace(-np.pi, np.pi, 9)
                    profile = [brute_force_criterion(full, full_weights(weights),
                                                     np.concatenate([[0.0, g], np.zeros(J - 2)]))
                               for g in grid]
                    assert max_relative(grid_profile(ctx, grid), profile) <= 1e-12

    @pytest.mark.parametrize("J, L", [(3, 10), (6, 40)])
    def test_stacks(self, tmp_path, J, L):
        # A stack (R, J, n//2+1) rephased at R phase vectors gives R values,
        # gradients and Hessians, each that of its own full table.
        rng = np.random.default_rng(J + L)
        R = 4
        for n, weights in itertools.product((2 * L + 1, 2 * L + 2),
                                            oracle_weight_schemes(tmp_path, L)):
            for stack in self.random_tables(rng, R, J, n):
                ctx = CriterionContext(stack, weights)
                alpha = np.concatenate([np.zeros((R, 1)), rng.uniform(-np.pi, np.pi, (R, J - 1))],
                                       axis=1)
                ct = rephase(stack, alpha).coeffs
                values, grads, hessians = _value(ctx, ct), _gradient(ctx, ct), _hessian(ctx, ct)
                for r in range(R):
                    full = full_coeffs(stack.coeffs[r, :, :L + 1])
                    grad, H = full_table_derivatives(full, full_weights(weights), alpha[r])
                    value = brute_force_criterion(full, full_weights(weights), alpha[r])
                    assert values[r] == pytest.approx(value, rel=1e-12)
                    assert max_relative(grads[r], grad) <= 1e-12
                    assert max_relative(hessians[r], H) <= 1e-12


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
        assert set(check.active_frequencies) == {1}

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
        assert set(check.active_frequencies) == {6, 10, 15}
        assert check.ok

    def test_weights_mask_frequencies(self):
        # Two harmonics in the signal, but the weights keep only l = 2 (and
        # -2), leaving no coprime pair in the active set.
        n = 21
        t = np.arange(n) * T / n
        rows = np.vstack(
            [np.cos(t) + np.cos(2 * t), np.cos(t - 0.5) + np.cos(2 * (t - 0.5))]
        )
        table = transform(CurveSet(samples=rows, period=T))
        values = np.zeros(11)
        values[2] = 1.0
        ctx = CriterionContext(table, WeightScheme.custom(values))
        check = check_identifiability(ctx)
        assert not check.ok
        assert set(check.active_frequencies) == {2}

    def test_cosine_passes_and_pure_second_harmonic_fails_with_their_messages(self):
        # The table holds l = 0..L, and each active l >= 1 stands for l and -l,
        # so a single harmonic is one active frequency.
        n = 101
        t = np.arange(n) * T / n
        weights = WeightScheme.power(1.3, 50)
        cosine = check_identifiability(CriterionContext(
            transform(CurveSet(samples=np.vstack([np.cos(t), np.cos(t - 0.4)]), period=T)),
            weights))
        assert cosine.ok
        assert cosine.message == "active frequencies are coprime (gcd 1)"
        assert np.array_equal(cosine.active_frequencies, [1])
        second = check_identifiability(CriterionContext(
            transform(CurveSet(samples=np.vstack([np.cos(2 * t), np.cos(2 * (t - 0.4))]),
                               period=T)),
            weights))
        assert not second.ok
        assert second.message == ("no coprime pair among active frequencies [2]; shifts are "
                                  "only identified up to a sublattice")
        assert np.array_equal(second.active_frequencies, [2])

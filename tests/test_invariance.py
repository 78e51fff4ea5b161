"""End-to-end invariances of `minimize` and `confidence_intervals` (property tests).

The data are noisy shifted copies of a pattern, under the damped weights
power:1.3 and power:2.  Flagged weights are left out: their multi-start
breaks exact ties between starts lexicographically, so relabelling the
curves can pick another winner.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from curveshift import (
    CriterionContext,
    CurveSet,
    SimulationSpec,
    WeightScheme,
    confidence_intervals,
    generate,
    minimize,
    synthesize,
    transform,
    wrap_phase,
)

T = 2.0 * np.pi

examples = settings(derandomize=True, deadline=None, max_examples=30, database=None)


@st.composite
def datasets(draw):
    """(samples (J, n), weights) for J in 2..6 and n in {51, 101, 201}."""
    n = draw(st.sampled_from([51, 101, 201]))
    spec = SimulationSpec(pattern=draw(st.sampled_from(["sinc15", "cosine"])),
                          n_curves=draw(st.integers(2, 6)), n_samples=n,
                          sigma=draw(st.floats(0.2, 3.0)),
                          weights=WeightScheme.power(draw(st.sampled_from([1.3, 2.0])),
                                                     (n - 1) // 2),
                          replicates=1, seed=draw(st.integers(0, 2**32 - 1)))
    return generate(spec, 0).curves.samples, spec.weights


def fit(samples, weights, period=T):
    table = transform(CurveSet(samples=samples, period=period))
    return minimize(CriterionContext(table, weights)), table


def phase_gap(a, b) -> float:
    return float(np.max(np.abs(wrap_phase(np.asarray(a) - np.asarray(b)))))


@examples
@given(datasets(), st.randoms(use_true_random=False))
def test_permuting_curves_permutes_the_estimates(data, rng):
    samples, weights = data
    order = list(range(1, len(samples)))
    rng.shuffle(order)
    base = fit(samples, weights)[0].alpha_hat.free
    permuted = fit(samples[[0] + order], weights)[0].alpha_hat.free
    assert phase_gap(permuted, base[np.array(order) - 1]) <= 1e-12


@examples
@given(datasets(), st.integers(1, 50))
def test_common_time_shift_leaves_the_estimates(data, k):
    samples, weights = data
    base = fit(samples, weights)[0].alpha_hat.free
    rolled = fit(np.roll(samples, k, axis=1), weights)[0].alpha_hat.free
    assert phase_gap(rolled, base) <= 1e-12


@examples
@given(datasets())
def test_period_rescales_theta(data):
    samples, weights = data
    base = fit(samples, weights)[0]
    other = fit(samples, weights, period=3.0)[0]
    assert phase_gap(other.alpha_hat.free, base.alpha_hat.free) <= 1e-12
    assert np.max(np.abs(other.theta_hat - base.theta_hat * (3.0 / T))) <= 1e-12


@examples
@given(datasets())
def test_amplitude_scales_sigma2(data):
    # A run stops on its Newton step, in radians, which scaling the contrast
    # by 16 leaves unchanged, so alpha_hat moves by rounding at most (it moved
    # by up to 1.1e-8 under the former absolute gradient stop).  The bound is
    # kept as it was.
    samples, weights = data
    base, table = fit(samples, weights)
    scaled, scaled_table = fit(4.0 * samples, weights)
    assert phase_gap(scaled.alpha_hat.free, base.alpha_hat.free) <= 1e-6
    sigma2 = confidence_intervals(base, table, weights).sigma2_hat
    sigma2_scaled = confidence_intervals(scaled, scaled_table, weights).sigma2_hat
    assert abs(sigma2_scaled - 16.0 * sigma2) <= 1e-6 * 16.0 * sigma2


@examples
@given(datasets())
def test_realigned_curves_have_no_shift(data):
    samples, weights = data
    base = fit(samples, weights)[0]
    again = fit(synthesize(base.aligned).samples, weights)[0]
    assert np.max(np.abs(again.alpha_hat.free)) <= 1e-7

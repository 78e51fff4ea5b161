"""Shared test helpers: independent brute-force oracles and instance factories.

The oracles below are deliberately written as literal loops over the defining
sums, independent of the vectorized library code they check.
"""

import numpy as np

from curveshift import CriterionContext, CurveSet, SpectralTable, WeightScheme, transform


def brute_force_dft(x):
    """Defining sum of the normalized transform, explicit double loop."""
    x = np.asarray(x, dtype=float)
    n = x.size
    L = (n - 1) // 2
    out = np.zeros(2 * L + 1, dtype=complex)
    for idx, l in enumerate(range(-L, L + 1)):
        acc = 0.0 + 0.0j
        for m in range(n):
            acc += x[m] * np.exp(-2j * np.pi * m * l / n)
        out[idx] = acc / n
    return out


def full_coeffs(table):
    """A table's coefficients over l = -L..L, from its columns l = 0..L.

    Real curves have d_{j,-l} = conj(d_{jl}); takes a `SpectralTable` or its
    coefficient array, with any leading stack axes.
    """
    c = table.coeffs if isinstance(table, SpectralTable) else np.asarray(table)
    return np.concatenate((np.conj(c[..., :0:-1]), c), axis=-1)


def full_weights(weights):
    """A `WeightScheme`'s delta_l over l = -L..L, from its values l = 0..L: delta_{-l} = delta_l."""
    return np.concatenate((weights.values[:0:-1], weights.values))


def brute_force_criterion(coeffs, weight_values, alpha_full):
    """Literal double sum of the weighted rephased-coefficient dispersion."""
    coeffs = np.asarray(coeffs)
    J, width = coeffs.shape
    L = (width - 1) // 2
    total = 0.0
    for j in range(J):
        for idx, l in enumerate(range(-L, L + 1)):
            ct_j = np.exp(1j * l * alpha_full[j]) * coeffs[j, idx]
            cbar = sum(
                np.exp(1j * l * alpha_full[k]) * coeffs[k, idx] for k in range(J)
            ) / J
            total += weight_values[idx] ** 2 * abs(ct_j - cbar) ** 2
    return total / J


def random_weights(rng, max_frequency):
    roll = rng.integers(0, 3)
    if roll == 0:
        return WeightScheme.unit(max_frequency)
    if roll == 1:
        return WeightScheme.power(float(rng.uniform(0.8, 2.0)), max_frequency)
    return WeightScheme.custom(np.concatenate([[0.0], rng.uniform(0.0, 2.0, max_frequency)]))


def random_instance(rng, max_curves=6, max_samples=51):
    """Random real-curve context plus a random interior phase point."""
    J = int(rng.integers(2, max_curves + 1))
    L = int(rng.integers(2, (max_samples - 1) // 2 + 1))
    n = 2 * L + 1
    curves = CurveSet(samples=rng.normal(size=(J, n)), period=2.0 * np.pi)
    ctx = CriterionContext(transform(curves), random_weights(rng, L))
    alpha = rng.uniform(-np.pi, np.pi, J - 1)
    return ctx, alpha


def finite_difference_gradient(func, alpha, step=1e-6):
    alpha = np.asarray(alpha, dtype=float)
    out = np.zeros_like(alpha)
    for k in range(alpha.size):
        e = np.zeros_like(alpha)
        e[k] = step
        out[k] = (func(alpha + e) - func(alpha - e)) / (2.0 * step)
    return out


def finite_difference_jacobian(func, alpha, step=1e-5):
    alpha = np.asarray(alpha, dtype=float)
    cols = []
    for k in range(alpha.size):
        e = np.zeros_like(alpha)
        e[k] = step
        cols.append((func(alpha + e) - func(alpha - e)) / (2.0 * step))
    return np.column_stack(cols)

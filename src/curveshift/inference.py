"""Plug-in asymptotic covariance and confidence intervals for the shifts.

For weights delta and true coefficient magnitudes |c_l|, the scaled
estimation errors sqrt(n)(alpha_hat - alpha*) are asymptotically centered
Gaussian with covariance sigma^2 Gamma, where

    Gamma = [ sum_l |delta_l|^4 l^2 |c_l|^2 / ( sum_l |delta_l|^2 l^2 |c_l|^2 )^2 ]
            * (I_{J-1} + U_{J-1}),

U being the all-ones matrix.  Neither sigma^2 nor the |c_l|^2 are known, so
both are replaced by moment estimators:

  * sigma2: the within-frequency dispersion of the rephased coefficients
    around their cross-curve mean has expectation (1 - 1/J) sigma^2 / n per
    curve and frequency, which fixes the scaling used below;
  * |c_l|^2: |mean rephased coefficient|^2 has expectation
    |c_l|^2 + sigma^2/(n J), so that amount is subtracted and the result
    floored at zero.

The plug-in Gamma keeps the exact scalar * (I + U) structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .criterion import ConstrainedShift, full_phases
from .fourier import SpectralTable, WeightScheme, rephase

__all__ = [
    "CovarianceReport",
    "estimate_noise_variance",
    "estimate_gamma",
    "gamma_from_power",
    "interval_half_widths",
    "confidence_intervals",
]

@dataclass(frozen=True)
class CovarianceReport:
    gamma_hat: np.ndarray  # (J-1, J-1), scalar * (I + U)
    sigma2_hat: float
    std_errors: np.ndarray  # (J-1,), sqrt(sigma2 * gamma_jj / n)
    intervals_alpha: np.ndarray  # (J-1, 2) radians
    intervals_theta: np.ndarray  # (J-1, 2) time units
    confidence_level: float


def _noise_variance(ct: np.ndarray):
    """sigma2_hat from coefficients rephased at alpha_hat, one per table of a stack."""
    J, n = ct.shape[-2], ct.shape[-1]
    resid = ct - ct.mean(axis=-2, keepdims=True)
    per_l = np.sum(np.abs(resid) ** 2, axis=-2)
    return n / (J - 1) * per_l.mean(axis=-1)


def _debiased_power(ct: np.ndarray, sigma2) -> np.ndarray:
    """|cb_l|^2 - sigma2/(n J), floored at zero, from coefficients rephased at alpha_hat."""
    J, n = ct.shape[-2], ct.shape[-1]
    bias = np.asarray(sigma2)[..., None] / (n * J)
    return np.maximum(np.abs(ct.mean(axis=-2)) ** 2 - bias, 0.0)


def _gamma_scalar(magnitudes_sq: np.ndarray, weights: WeightScheme):
    """The scalar of Gamma = scalar (I + U) for each row of |c_l|^2.

    NaN where no weighted frequency carries positive power.
    """
    L = weights.max_frequency
    ls = np.arange(-L, L + 1, dtype=float)
    w2 = weights.values**2
    denom = np.sum(w2 * ls**2 * magnitudes_sq, axis=-1)
    numer = np.sum(w2**2 * ls**2 * magnitudes_sq, axis=-1)
    # In Python floats: pow(d, 2) and numpy's d * d differ in the last bit
    # for about one d in a thousand.
    scalar = [u / d**2 if d > 0.0 else np.nan
              for u, d in zip(np.ravel(numer).tolist(), np.ravel(denom).tolist())]
    return np.reshape(scalar, np.shape(denom))


def estimate_noise_variance(table: SpectralTable, alpha_hat) -> float:
    """Noise variance from the within-frequency residual dispersion.

    At the true phases, E sum_j |ct_{jl} - cb_l|^2 = (J-1) sigma^2 / n for
    every l, so averaging over frequencies and scaling by n/(J-1) is
    unbiased.  Requires J >= 2; with a single curve the variance is
    confounded with the pattern.
    """
    if table.n_curves < 2:
        raise ValueError("noise variance is unidentifiable from a single curve")
    return float(_noise_variance(rephase(table, full_phases(alpha_hat, table.n_curves)).coeffs))


def gamma_from_power(magnitudes_sq, weights: WeightScheme, n_curves: int) -> np.ndarray:
    """Gamma matrix for given squared coefficient magnitudes |c_l|^2."""
    m = np.asarray(magnitudes_sq, dtype=float)
    if m.shape != weights.values.shape:
        raise ValueError("magnitude vector does not match the weight range")
    scalar = float(_gamma_scalar(m, weights))
    if np.isnan(scalar):
        raise ValueError(
            "signal energy indistinguishable from noise: no weighted frequency "
            "carries positive estimated pattern power"
        )
    k = n_curves - 1
    return scalar * (np.eye(k) + np.ones((k, k)))


def estimate_gamma(table: SpectralTable, weights: WeightScheme, alpha_hat, sigma2_hat: float) -> np.ndarray:
    """Plug-in Gamma with debiased squared magnitudes.

    |c_l|^2 is estimated by |cb_l(alpha_hat)|^2 - sigma2/(n J), floored at
    zero; the correction removes the noise contribution to the mean
    coefficient's modulus.
    """
    ct = rephase(table, full_phases(alpha_hat, table.n_curves)).coeffs
    return gamma_from_power(_debiased_power(ct, sigma2_hat), weights, table.n_curves)


def interval_half_widths(ct: np.ndarray, weights: WeightScheme, level: float):
    """Plug-in interval half-widths for a stack of tables rephased at their alpha_hat.

    `ct` is (R, J, 2L+1).  Gamma's diagonal is 2 * scalar for every shift, so
    one half-width z sqrt(sigma2 gamma_jj / n) serves all J-1 shifts of a
    table.  Returns (R,) half-widths, NaN where `gamma_from_power` would
    raise; the values are those of `confidence_intervals`.
    """
    sigma2 = _noise_variance(ct)
    scalar = _gamma_scalar(_debiased_power(ct, sigma2), weights)
    z = ndtri(0.5 * (1.0 + level))
    return z * np.sqrt(sigma2 * (scalar * 2.0) / ct.shape[-1])


def confidence_intervals(
    result,
    table: SpectralTable,
    weights: WeightScheme,
    level: float = 0.95,
) -> CovarianceReport:
    """Per-shift normal confidence intervals at the given level.

    Interval half-widths are z_{(1+level)/2} sqrt(sigma2 gamma_jj / n); time
    unit intervals rescale by T / 2 pi.  One rephase at alpha_hat serves both
    the sigma2 and the Gamma estimate.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("confidence level must lie in (0, 1)")
    if table.n_curves < 2:
        raise ValueError("noise variance is unidentifiable from a single curve")
    alpha_hat = getattr(result, "alpha_hat", result)
    if not isinstance(alpha_hat, ConstrainedShift):
        alpha_hat = ConstrainedShift(free=np.asarray(alpha_hat, dtype=float))
    ct = rephase(table, full_phases(alpha_hat, table.n_curves)).coeffs
    sigma2 = float(_noise_variance(ct))
    gamma = gamma_from_power(_debiased_power(ct, sigma2), weights, table.n_curves)
    n = table.n_samples
    se = np.sqrt(sigma2 * np.diag(gamma) / n)
    z = ndtri(0.5 * (1.0 + level))
    centers = alpha_hat.free
    ints_alpha = np.column_stack([centers - z * se, centers + z * se])
    scale = table.period / (2.0 * np.pi)
    return CovarianceReport(
        gamma_hat=gamma,
        sigma2_hat=sigma2,
        std_errors=se,
        intervals_alpha=ints_alpha,
        intervals_theta=ints_alpha * scale,
        confidence_level=level,
    )

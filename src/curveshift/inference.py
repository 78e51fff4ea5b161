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
from scipy.special import erfc

from .criterion import ConstrainedShift, full_phases
from .fourier import SpectralTable, WeightScheme, rephase

__all__ = [
    "CovarianceReport",
    "norm_ppf",
    "estimate_noise_variance",
    "estimate_gamma",
    "gamma_from_power",
    "interval_half_widths",
    "confidence_intervals",
]

# Rational approximation of the standard normal quantile (Acklam), relative
# error below 1.2e-9, then one Halley step against erfc.  Measured against
# 40-digit references, the step reaches rounding level on most of (0, 1) but
# not everywhere: near p = 0.5 the relative error stays up to 1.1e-9 (the
# absolute error there is below 1e-15), and above p = 1 - 1e-6 the cdf it
# corrects against cancels, so the absolute error grows to 8.4e-9 at
# 1 - p = 1e-13.  The lower tail stays below 2e-15.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)


def _polyval(coeffs, x):
    out = np.full_like(x, coeffs[0], dtype=float)
    for c in coeffs[1:]:
        out = out * x + c
    return out


def norm_ppf(p):
    """Standard normal quantile on (0, 1), to a relative error below 1.2e-9.

    Most values are within a few units in the last place; the exceptions are
    p near 0.5 and p above 1 - 1e-6 (see the note on the constants).
    """
    p = np.asarray(p, dtype=float)
    scalar = p.ndim == 0
    p = np.atleast_1d(p)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise ValueError("probabilities must lie strictly inside (0, 1)")
    x = np.empty_like(p)
    lo, hi = 0.02425, 1.0 - 0.02425
    tail_lo = p < lo
    tail_hi = p > hi
    center = ~(tail_lo | tail_hi)
    if np.any(center):
        q = p[center] - 0.5
        r = q * q
        x[center] = q * _polyval(_A, r) / (_polyval(_B, r) * r + 1.0)
    if np.any(tail_lo):
        q = np.sqrt(-2.0 * np.log(p[tail_lo]))
        x[tail_lo] = _polyval(_C, q) / (_polyval(_D, q) * q + 1.0)
    if np.any(tail_hi):
        q = np.sqrt(-2.0 * np.log1p(-p[tail_hi]))
        x[tail_hi] = -_polyval(_C, q) / (_polyval(_D, q) * q + 1.0)
    # Halley refinement against the exact cdf.
    err = 0.5 * erfc(-x / np.sqrt(2.0)) - p
    u = err * np.sqrt(2.0 * np.pi) * np.exp(0.5 * x * x)
    x = x - u / (1.0 + 0.5 * x * u)
    return float(x[0]) if scalar else x


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
    z = norm_ppf(0.5 * (1.0 + level))
    return z * np.sqrt(sigma2 * (scalar * 2.0) / ct.shape[-1])


def confidence_intervals(
    result,
    table: SpectralTable,
    weights: WeightScheme,
    level: float = 0.95,
    sigma2: float | None = None,
    gamma: np.ndarray | None = None,
) -> CovarianceReport:
    """Per-shift normal confidence intervals at the given level.

    Interval half-widths are z_{(1+level)/2} sqrt(sigma2 gamma_jj / n); time
    unit intervals rescale by T / 2 pi.  `sigma2` and `gamma` may be supplied
    to reuse precomputed values, otherwise they are estimated from the table.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("confidence level must lie in (0, 1)")
    alpha_hat = getattr(result, "alpha_hat", result)
    if not isinstance(alpha_hat, ConstrainedShift):
        alpha_hat = ConstrainedShift(free=np.asarray(alpha_hat, dtype=float))
    if sigma2 is None or gamma is None:  # one rephase serves both estimates
        if table.n_curves < 2:
            raise ValueError("noise variance is unidentifiable from a single curve")
        ct = rephase(table, full_phases(alpha_hat, table.n_curves)).coeffs
        if sigma2 is None:
            sigma2 = float(_noise_variance(ct))
        if gamma is None:
            gamma = gamma_from_power(_debiased_power(ct, sigma2), weights, table.n_curves)
    n = table.n_samples
    se = np.sqrt(sigma2 * np.diag(gamma) / n)
    z = norm_ppf(0.5 * (1.0 + level))
    centers = alpha_hat.free
    ints_alpha = np.column_stack([centers - z * se, centers + z * se])
    scale = table.period / (2.0 * np.pi)
    return CovarianceReport(
        gamma_hat=gamma,
        sigma2_hat=float(sigma2),
        std_errors=se,
        intervals_alpha=ints_alpha,
        intervals_theta=ints_alpha * scale,
        confidence_level=level,
    )

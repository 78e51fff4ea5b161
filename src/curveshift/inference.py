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

The plug-in Gamma keeps the exact scalar * (I + U) structure.  Its sums run
over l = -L..L, and as delta_{-l} = delta_l, |c_{-l}| = |c_l| and delta_0 = 0,
each is twice its half l = 0..L, the layout of the weights and of the
|c_l|^2 that `gamma_from_power` takes.  Both estimates read the table that
the optimizer rephased at alpha_hat, one (`confidence_intervals`) or a
study's stack (`interval_half_widths`), over its columns l = 0..L: an even
n's Nyquist column l = n/2 is left out, so sigma2 averages the 2L + 1 bins
l = -L..L and rescales them to n.

The normal quantile z is the standard library's
`statistics.NormalDist().inv_cdf`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criterion import ConstrainedShift, full_phases
from .fourier import SpectralTable, WeightScheme, rephase

__all__ = [
    "CovarianceReport",
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


def _gamma_scalar(magnitudes_sq: np.ndarray, weights: WeightScheme):
    """The scalar of Gamma = scalar (I + U) for each row of |c_l|^2, l = 0..L.

    NaN where no weighted frequency carries positive power.
    """
    ls = np.arange(weights.max_frequency + 1, dtype=float)
    w2 = weights.values**2
    denom = 2.0 * np.sum(w2 * ls**2 * magnitudes_sq, axis=-1)
    numer = 2.0 * np.sum(w2**2 * ls**2 * magnitudes_sq, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(denom > 0, numer / denom**2, np.nan)


def _gamma(scalar: float, n_curves: int) -> np.ndarray:
    """scalar * (I + U); a NaN scalar means that Gamma cannot be estimated."""
    if np.isnan(scalar):
        raise ValueError(
            "signal energy indistinguishable from noise: no weighted frequency "
            "carries positive estimated pattern power"
        )
    k = n_curves - 1
    return scalar * (np.eye(k) + np.ones((k, k)))


def gamma_from_power(magnitudes_sq, weights: WeightScheme, n_curves: int) -> np.ndarray:
    """Gamma matrix for squared coefficient magnitudes |c_l|^2, l = 0..L."""
    m = np.asarray(magnitudes_sq, dtype=float)
    if m.shape != weights.values.shape:
        raise ValueError("magnitude vector does not match the weight range")
    return _gamma(float(_gamma_scalar(m, weights)), n_curves)


def _plug_in(ct: np.ndarray, n: int, weights: WeightScheme, level: float):
    """(sigma2, Gamma scalar, se, z) per table of n-sample curves' coefficients
    rephased at alpha_hat.

    Gamma's diagonal is 2 * scalar, so one standard error sqrt(sigma2 gamma_jj / n)
    serves every shift of a table; scalar and se are NaN where Gamma is not estimable.
    With D_l = sum_j |ct_jl - mean_l|^2 over the bins l = -L..L,
    sigma2 = (D_0 + 2 sum_{l=1..L} D_l) / (J - 1) * n / (2L + 1); for odd n the factor is 1.
    """
    L = weights.max_frequency
    ct = ct[..., :L + 1]
    J = ct.shape[-2]
    mean = ct.mean(axis=-2, keepdims=True)
    D = np.sum(np.abs(ct - mean) ** 2, axis=-2)
    sigma2 = (D[..., 0] + 2.0 * D[..., 1:].sum(axis=-1)) / (J - 1) * (n / (2 * L + 1))
    power = np.maximum(np.abs(mean[..., 0, :]) ** 2 - np.asarray(sigma2)[..., None] / (n * J), 0.0)
    scalar = _gamma_scalar(power, weights)
    # Imported here: `statistics` pulls in `fractions` and `decimal`, a few ms
    # that every CLI launch would otherwise pay.
    from statistics import NormalDist

    z = NormalDist().inv_cdf(0.5 * (1.0 + level))
    return sigma2, scalar, np.sqrt(sigma2 * (scalar * 2.0) / n), z


def interval_half_widths(ct: np.ndarray, n: int, weights: WeightScheme, level: float):
    """(R,) half-widths z se of the intervals of `confidence_intervals`, for a stack
    (R, J, n//2+1) of n-sample tables rephased at their alpha_hat; NaN where it raises."""
    _, _, se, z = _plug_in(ct, n, weights, level)
    return z * se


def confidence_intervals(
    result,
    table: SpectralTable,
    weights: WeightScheme,
    level: float = 0.95,
) -> CovarianceReport:
    """Per-shift normal confidence intervals at the given level.

    `result` is an `EstimationResult` of `table`, or bare free phases
    alpha_hat (an array or a `ConstrainedShift`).  Interval half-widths are
    z_{(1+level)/2} sqrt(sigma2 gamma_jj / n); time unit intervals rescale by
    T / 2 pi.  Both sigma2 and Gamma come from the table rephased at
    alpha_hat: a result's `aligned` table, else one rephase of `table`.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("confidence level must lie in (0, 1)")
    if table.n_curves < 2:
        raise ValueError("noise variance is unidentifiable from a single curve")
    alpha_hat = getattr(result, "alpha_hat", result)
    if not isinstance(alpha_hat, ConstrainedShift):
        alpha_hat = ConstrainedShift(free=np.asarray(alpha_hat, dtype=float))
    J = table.n_curves
    aligned = getattr(result, "aligned", None) or rephase(table, full_phases(alpha_hat, J))
    sigma2, scalar, se, z = _plug_in(aligned.coeffs, table.n_samples, weights, level)
    gamma = _gamma(float(scalar), J)
    se = np.full(J - 1, se)
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

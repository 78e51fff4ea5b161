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

The plug-in Gamma keeps the exact scalar * (I + U) structure.  Both
estimates read the l = 0..L table that the optimizer rephased at alpha_hat,
one (`confidence_intervals`) or a study's stack (`interval_half_widths`).

The normal quantile z is `_ndtri`, a numpy port of the Cephes routine,
which `simulate` also uses to turn uniforms into Gaussian noise.
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

# Cephes ndtri: rational approximations of the inverse normal cdf on
# |p - 1/2| <= 1/2 - exp(-2) (P0/Q0), and in the tails on x = sqrt(-2 log p)
# for x < 8 (P1/Q1) and x >= 8 (P2/Q2).  Q coefficients omit the leading 1.
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242  # sqrt(2 pi)
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016)
_Q0 = (1.95448858338141759834, 4.67627912898881538453, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142)
_P1 = (4.05544892305962419923, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970, 6.91522889068984211695, 3.93881025292474443415,
       1.33303460815807542389, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255, 3.67983563856160859403, 1.37702099489081330271,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _horner(x: np.ndarray, coefs, monic: bool = False) -> np.ndarray:
    """Cephes polevl (coefs[0] leads), or p1evl when monic (an implicit leading 1).

    One new array; every later step is in place.
    """
    if monic:
        y, rest = x + coefs[0], coefs[1:]
    else:
        y, rest = x * coefs[0], coefs[2:]
        y += coefs[1]
    for c in rest:
        y *= x
        y += c
    return y


def _ndtri(p):
    """Inverse of the standard normal cdf, elementwise: Cephes ndtri in numpy.

    The branch tests, constants and evaluation order are those of Cephes, so
    the central branch (exp(-2) < p < 1 - exp(-2)) reproduces scipy's
    `special.ndtri` bit for bit.  The tails take numpy's `log`, which can
    differ from the C library's in the last bit; the difference x0 - x1 can
    grow that to a few ulps of the result.  Returns -inf at 0, inf at 1 and
    NaN outside [0, 1].
    """
    p = np.asarray(p, dtype=float)
    flat = p.ravel()
    upper = flat > 1.0 - _EXP_M2
    y = np.subtract(1.0, flat, out=flat.copy(), where=upper)
    tail = np.flatnonzero(~(y > _EXP_M2))
    with np.errstate(divide="ignore", invalid="ignore"):
        # The central formula, (c + c (c2 P0/Q0)) sqrt(2 pi), runs on every
        # entry, in place where it can: gathering the central entries and
        # allocating each temporary cost more.  Tail entries are overwritten.
        c = y - 0.5
        c2 = c * c
        out = _horner(c2, _P0)
        out *= c2
        out /= _horner(c2, _Q0, True)
        out *= c
        out += c
        out *= _S2PI
        x = np.sqrt(-2.0 * np.log(y[tail]))
        x0 = x - np.log(x) / x
        z = 1.0 / x
        x1 = z * _horner(z, _P1) / _horner(z, _Q1, True)
        far = ~(x < 8.0)  # p < exp(-32), or p at 0 or 1
        zf = z[far]
        x1[far] = zf * _horner(zf, _P2) / _horner(zf, _Q2, True)
    x = x0 - x1
    out[tail] = np.where(upper[tail], x, -x)
    out[flat == 0.0] = -np.inf
    out[flat == 1.0] = np.inf
    out[(flat < 0.0) | (flat > 1.0)] = np.nan
    return out.reshape(p.shape)[()]


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
    L = weights.max_frequency
    ls = np.arange(L + 1, dtype=float)
    w2 = weights.half_squared  # each sum over l = -L..L is twice its half, as delta_0 = 0
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
    """Gamma matrix for squared coefficient magnitudes |c_l|^2, l = -L..L, even in l."""
    m = np.asarray(magnitudes_sq, dtype=float)
    L = weights.max_frequency
    if m.shape != weights.values.shape:
        raise ValueError("magnitude vector does not match the weight range")
    if not np.allclose(m[:L], m[:L:-1], rtol=0.0, atol=1e-12 * np.max(np.abs(m))):
        raise ValueError("magnitudes are not even in l: |c_-l|^2 differs from |c_l|^2")
    return _gamma(float(_gamma_scalar(m[L:], weights)), n_curves)


def _plug_in(ct: np.ndarray, weights: WeightScheme, level: float):
    """(sigma2, Gamma scalar, se, z) per table of coefficients rephased at alpha_hat.

    Gamma's diagonal is 2 * scalar, so one standard error sqrt(sigma2 gamma_jj / n)
    serves every shift of a table; scalar and se are NaN where Gamma is not estimable.
    With D_l = sum_j |ct_jl - mean_l|^2, sigma2 = (D_0 + 2 sum_{l >= 1} D_l) / (J - 1).
    """
    J, n = ct.shape[-2], 2 * ct.shape[-1] - 1
    mean = ct.mean(axis=-2, keepdims=True)
    D = np.sum(np.abs(ct - mean) ** 2, axis=-2)
    sigma2 = (D[..., 0] + 2.0 * D[..., 1:].sum(axis=-1)) / (J - 1)
    power = np.maximum(np.abs(mean[..., 0, :]) ** 2 - np.asarray(sigma2)[..., None] / (n * J), 0.0)
    scalar = _gamma_scalar(power, weights)
    return sigma2, scalar, np.sqrt(sigma2 * (scalar * 2.0) / n), _ndtri(0.5 * (1.0 + level))


def interval_half_widths(ct: np.ndarray, weights: WeightScheme, level: float):
    """(R,) half-widths z se of the intervals of `confidence_intervals`, for a
    stack (R, J, L+1) of tables rephased at their alpha_hat; NaN where it raises."""
    _, _, se, z = _plug_in(ct, weights, level)
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
    sigma2, scalar, se, z = _plug_in(aligned.coeffs, weights, level)
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

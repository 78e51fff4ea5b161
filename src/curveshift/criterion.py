"""Empirical shift-estimation contrast and its analytic derivatives.

For a coefficient table d_{jl} and weights delta_l, the contrast evaluated at
candidate phases alpha (alpha_1 pinned to 0) is

    M(alpha) = (1/J) sum_j sum_l |delta_l|^2 |ct_{jl}(alpha) - cb_l(alpha)|^2,

where ct_{jl}(alpha) = exp(i l alpha_j) d_{jl} are the rephased coefficients
and cb_l(alpha) is their cross-curve mean.  M is nonnegative, exactly
2pi-periodic in each coordinate, and invariant under adding a common constant
to all J phases; pinning alpha_1 = 0 removes that degeneracy.

Closed forms for the derivatives, used by the optimizer and for inference:

    dM/dalpha_k      = (2/J)   sum_l |delta_l|^2 l   Im( ct_{kl} conj(cb_l) )
    d2M/dalpha_k^2   = (2/J^2) sum_l |delta_l|^2 l^2 Re( ct_{kl} sum_{j != k} conj(ct_{jl}) )
    d2M/dal_k dal_m  = -(2/J^2) sum_l |delta_l|^2 l^2 Re( ct_{kl} conj(ct_{ml}) )

for k, m in 2..J.  All three are computed from the rephased coefficients
ct = `fourier.rephase`(table, phases), the only rephasing in the package.
The curves are real, delta_{-l} = delta_l and delta_0 = 0, so each sum over
l = -L..L is twice its sum over the table's own columns l = 0..n//2, where an
even n's Nyquist column l = n/2 has weight 0.  The public functions take the
phases; the optimizer rephases once per point it tries and reuses that ct
for the gradient and Hessian once the point is accepted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fourier import SpectralTable, WeightScheme, rephase

__all__ = [
    "ConstrainedShift",
    "CriterionContext",
    "IdentifiabilityCheck",
    "wrap_phase",
    "wrap_time",
    "full_phases",
    "evaluate",
    "gradient",
    "hessian",
    "grid_profile",
    "check_identifiability",
]


def wrap_phase(x):
    """Wrap angles to the principal interval [-pi, pi)."""
    return np.mod(np.asarray(x, dtype=float) + np.pi, 2.0 * np.pi) - np.pi


def wrap_time(x, period: float):
    """Wrap time offsets to (-period/2, period/2]."""
    w = np.mod(x, period)
    return np.where(w > period / 2.0, w - period, w)


@dataclass(frozen=True)
class ConstrainedShift:
    """Phases (alpha_2, ..., alpha_J) with alpha_1 = 0 implied.

    Each coordinate lies in [-pi, pi]; use `wrap_phase` before construction
    for values produced by unconstrained arithmetic.
    """

    free: np.ndarray  # (J-1,) float

    def __post_init__(self):
        free = np.atleast_1d(np.asarray(self.free, dtype=float))
        object.__setattr__(self, "free", free)
        if free.ndim != 1 or free.size < 1:
            raise ValueError("free phases must be a vector of length J-1 >= 1")
        if not np.all(np.isfinite(free)):
            raise ValueError("phases must be finite")
        if np.any(np.abs(free) > np.pi):
            raise ValueError("phases must lie in [-pi, pi]")

    @property
    def n_curves(self) -> int:
        return self.free.size + 1

    def full(self) -> np.ndarray:
        """All J phases, with the pinned leading zero."""
        return full_phases(self.free, self.free.size + 1)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.free, dtype=dtype)


def full_phases(alpha, n_curves: int) -> np.ndarray:
    """All J phases, leading zero first, from J-1 free phases or a ConstrainedShift.

    Free phases stacked on leading axes, (..., J-1), give (..., J).
    """
    free = np.atleast_1d(np.asarray(alpha, dtype=float))
    if free.shape[-1:] != (n_curves - 1,):
        raise ValueError(
            f"expected {n_curves - 1} free phases for {n_curves} curves, "
            f"got shape {free.shape}"
        )
    return np.concatenate((np.zeros(free.shape[:-1] + (1,)), free), axis=-1)


@dataclass(frozen=True)
class CriterionContext:
    """Immutable pairing of a coefficient table with a weight scheme."""

    table: SpectralTable
    weights: WeightScheme
    w2: np.ndarray = field(init=False, repr=False, compare=False)  # |delta_l|^2, l = 0..n//2

    def __post_init__(self):
        L = self.weights.max_frequency
        if L != self.table.max_frequency:
            raise ValueError(
                "weight vector length does not match the table frequency range"
            )
        width = self.table.coeffs.shape[-1]  # L + 2 for even n: the Nyquist column gets 0
        object.__setattr__(self, "w2", np.pad(self.weights.values**2, (0, width - L - 1)))

    @property
    def n_curves(self) -> int:
        return self.table.n_curves


# The formulas on the rephased coefficients ct = rephase(table, phases), for a
# caller (the optimizer) that reuses one ct for value, gradient and Hessian.
# Each acts on the last two axes, so a stack (P, J, n//2+1) of rephased tables
# gives P values, P gradients and P Hessians.

def _value(ctx: CriterionContext, ct: np.ndarray):
    resid = ct - ct.mean(axis=-2, keepdims=True)
    return 2.0 * np.sum(ctx.w2 * np.mean(np.abs(resid) ** 2, axis=-2), axis=-1)


def _gradient(ctx: CriterionContext, ct: np.ndarray) -> np.ndarray:
    terms = ctx.w2 * ctx.table.frequencies * np.imag(ct * np.conj(ct.mean(axis=-2, keepdims=True)))
    return (4.0 / ct.shape[-2]) * np.sum(terms[..., 1:, :], axis=-1)


def _hessian(ctx: CriterionContext, ct: np.ndarray) -> np.ndarray:
    J = ct.shape[-2]
    # C[k, m] = sum_{l >= 0} w2 l^2 Re(ct_kl conj(ct_ml)) over all J curves.
    C = np.real((ct * (ctx.w2 * ctx.table.frequencies**2)) @ np.swapaxes(ct.conj(), -1, -2))
    H = -C[..., 1:, 1:]
    diag = C.sum(axis=-1) - np.diagonal(C, axis1=-2, axis2=-1)  # sum over j != k
    k = np.arange(J - 1)
    H[..., k, k] = diag[..., 1:]
    return (4.0 / J**2) * H


def evaluate(ctx: CriterionContext, alpha) -> float:
    """Contrast value at constrained phases (alpha_1 = 0).  Nonnegative."""
    return float(_value(ctx, rephase(ctx.table, full_phases(alpha, ctx.n_curves)).coeffs))


def gradient(ctx: CriterionContext, alpha) -> np.ndarray:
    """Derivative of the contrast in alpha_2..alpha_J."""
    return _gradient(ctx, rephase(ctx.table, full_phases(alpha, ctx.n_curves)).coeffs)


def hessian(ctx: CriterionContext, alpha) -> np.ndarray:
    """Second derivatives in alpha_2..alpha_J; symmetric (J-1) x (J-1)."""
    return _hessian(ctx, rephase(ctx.table, full_phases(alpha, ctx.n_curves)).coeffs)


def grid_profile(ctx: CriterionContext, grid) -> np.ndarray:
    """Contrast along alpha_2, vectorized over `grid`, with alpha_3..alpha_J at 0.

    Uses the decomposition

        M(alpha) = sum_l |delta_l|^2 [ (1/J) sum_j |ct_{jl}|^2 - |cb_l|^2 ],

    whose first part does not depend on alpha at all.
    """
    coeffs = ctx.table.coeffs
    grid = np.asarray(grid, dtype=float)
    others = coeffs.sum(axis=0) - coeffs[1]
    # Curve 2's row, one copy per grid value, each rephased by it.
    moving = np.broadcast_to(coeffs[1], grid.shape + coeffs[1].shape)
    table = SpectralTable(moving, ctx.table.period, ctx.table.n_samples)
    cbar = (others + rephase(table, grid).coeffs) / ctx.n_curves
    const_terms = ctx.w2 * np.mean(np.abs(coeffs) ** 2, axis=0)
    var_terms = ctx.w2 * np.abs(cbar) ** 2
    return 2.0 * (np.sum(const_terms) - np.sum(var_terms, axis=1))


@dataclass(frozen=True)
class IdentifiabilityCheck:
    """Outcome of the coprime-frequency plausibility check."""

    ok: bool
    active_frequencies: np.ndarray  # the active l >= 1; -l is active with l
    threshold: float
    message: str


def check_identifiability(ctx: CriterionContext) -> IdentifiabilityCheck:
    """Check that the weighted active frequencies are coprime (their gcd is 1).

    Uniqueness of the population contrast minimum needs the active frequency
    set {l : delta_l |c_l| != 0} to have greatest common divisor 1; with gcd
    g > 1 the contrast is 2pi/g-periodic in every phase, so the candidate
    shifts are only identified on a sublattice of the circle.  The
    true |c_l| are unknown, so activity is judged from the noisy magnitudes
    mean_j |d_{jl}| against the threshold 3 sigma_rough / sqrt(n), with
    sigma_rough read off the top-|l| quarter of the spectrum.  This is
    a plausibility check: failure warrants a warning, not an error.
    """
    table = ctx.table
    n = table.n_samples
    ls = table.frequencies
    mags = np.abs(table.coeffs).mean(axis=0)
    band = ls >= max(1, int(np.ceil(0.75 * table.max_frequency)))
    power = np.mean(np.abs(table.coeffs) ** 2, axis=0)
    sigma2_rough = n * float(np.median(power[band]))  # band holds l = L >= 1
    threshold = 3.0 * np.sqrt(sigma2_rough / n)
    active = ls[(ctx.w2 > 0) & (mags > threshold)]  # delta_0 = 0 leaves l = 0 out
    if active.size and np.gcd.reduce(active) == 1:
        msg = "active frequencies are coprime (gcd 1)"
        return IdentifiabilityCheck(True, active, float(threshold), msg)
    if not active.size:
        msg = (
            "only 0 active weighted frequencies above the "
            f"magnitude threshold {threshold:.3g}; shifts may not be identifiable"
        )
    else:
        msg = (
            f"no coprime pair among active frequencies {active.tolist()}; "
            "shifts are only identified up to a sublattice"
        )
    return IdentifiabilityCheck(False, active, float(threshold), msg)

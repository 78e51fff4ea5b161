"""Frequency-domain representation of sampled periodic curves.

A collection of J curves sampled at n equispaced points t_i = (i-1)T/n of a
period-T interval is mapped to the table of discrete Fourier coefficients

    d_{jl} = (1/n) sum_m y_{jm} exp(-i 2 pi m l / n),   l = -L..L,  L = (n-1)/2,

with n odd so that the frequency index set is symmetric.  A time shift of
curve j by theta multiplies d_{jl} by exp(-i l alpha) with alpha = 2 pi
theta / T, which is what makes this representation convenient for shift
estimation: candidate shifts are undone in place by `rephase`, and agreement
across curves is measured on the rephased coefficients.

The zero-based DFT above differs from a one-based convention by a fixed
per-frequency global phase; every downstream quantity depends only on phase
differences across curves at each l, so the choice is immaterial and the
standard convention is used.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CurveSet",
    "SpectralTable",
    "WeightScheme",
    "forward_dft",
    "inverse_dft",
    "transform",
    "synthesize",
    "rephase",
]


@dataclass(frozen=True)
class CurveSet:
    """J real curves sampled on the common grid t_i = (i-1)T/n, i = 1..n.

    Leading axes, if any, stack independent sets of J curves (a Monte Carlo
    study's replicates); every transform acts on the last axis.
    """

    samples: np.ndarray  # (..., J, n) float
    period: float

    def __post_init__(self):
        samples = np.atleast_2d(np.asarray(self.samples, dtype=float))
        object.__setattr__(self, "samples", samples)
        if samples.shape[-2] < 2:
            raise ValueError("need at least two curves (J >= 2)")
        if samples.shape[-1] < 3:
            raise ValueError("need at least three samples per curve (n >= 3)")
        if not np.all(np.isfinite(samples)):
            raise ValueError("curve samples must be finite")
        if not self.period > 0:
            raise ValueError("period must be positive")

    @property
    def n_curves(self) -> int:
        return self.samples.shape[-2]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[-1]

    @property
    def times(self) -> np.ndarray:
        n = self.n_samples
        return np.arange(n) * (self.period / n)


@dataclass(frozen=True)
class SpectralTable:
    """Per-curve Fourier coefficients d_{jl}, columns ordered l = -L..L.

    Leading axes, if any, stack independent J-curve tables, as in `CurveSet`.
    """

    coeffs: np.ndarray  # (..., J, 2L+1) complex
    period: float

    def __post_init__(self):
        coeffs = np.atleast_2d(np.asarray(self.coeffs, dtype=complex))
        object.__setattr__(self, "coeffs", coeffs)
        if coeffs.shape[-1] % 2 == 0:
            raise ValueError("coefficient table must be J x (2L+1)")
        if not self.period > 0:
            raise ValueError("period must be positive")

    @property
    def n_curves(self) -> int:
        return self.coeffs.shape[-2]

    @property
    def n_samples(self) -> int:
        return self.coeffs.shape[-1]

    @property
    def max_frequency(self) -> int:
        return (self.coeffs.shape[-1] - 1) // 2

    @property
    def frequencies(self) -> np.ndarray:
        L = self.max_frequency
        return np.arange(-L, L + 1)


@dataclass(frozen=True)
class WeightScheme:
    """Frequency weights delta_l, l = -L..L, with delta_0 = 0.

    The weights damp high frequencies in the shift-estimation contrast.  The
    primary family is the power law delta_l = |l|**-beta; exponents above
    1.25 keep the contrast's random part vanishing so that the Gaussian
    fluctuation theory applies.  Unit weights (delta_l = 1 for l != 0) are
    accepted for comparison purposes but flagged: with them the centered
    contrast does not converge to a deterministic function and the normal
    approximation for the estimator is unsupported.
    """

    values: np.ndarray  # (2L+1,) float, >= 0, symmetric, values[L] = 0
    kind: str = "custom"
    fluctuation_warning: str | None = field(default=None, compare=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.size % 2 == 0:
            raise ValueError("weights must be a vector of odd length 2L+1")
        if not np.all(np.isfinite(values)):
            raise ValueError("weights must be finite")
        if np.any(values < 0):
            raise ValueError("weights must be nonnegative")
        L = values.size // 2
        if values[L] != 0.0:
            raise ValueError("the zero-frequency weight must be 0")
        if not np.allclose(values, values[::-1], rtol=0, atol=1e-12):
            raise ValueError("weights must be symmetric in l")

    @property
    def max_frequency(self) -> int:
        return self.values.size // 2

    @classmethod
    def power(cls, beta: float, max_frequency: int) -> "WeightScheme":
        """delta_l = |l|**-beta for l != 0, delta_0 = 0."""
        L = int(max_frequency)
        ls = np.arange(-L, L + 1, dtype=float)
        with np.errstate(divide="ignore"):
            values = np.where(ls == 0, 0.0, np.abs(ls) ** -beta)
        warning = None
        if beta <= 1.25:
            warning = (
                f"power weights with exponent {beta:g} <= 1.25 are not "
                "guaranteed to satisfy the fluctuation conditions for "
                "square-integrable patterns"
            )
        return cls(values=values, kind=f"power:{beta:g}", fluctuation_warning=warning)

    @classmethod
    def unit(cls, max_frequency: int) -> "WeightScheme":
        """delta_l = 1 for l != 0.  Flagged: no Gaussian limit under these."""
        L = int(max_frequency)
        values = np.ones(2 * L + 1)
        values[L] = 0.0
        return cls(
            values=values,
            kind="unit",
            fluctuation_warning=(
                "unit weights violate the fluctuation assumptions; the "
                "asymptotic normality of the shift estimator does not hold"
            ),
        )

    @classmethod
    def custom(cls, values) -> "WeightScheme":
        return cls(values=np.asarray(values, dtype=float), kind="custom")


def _require_odd(n: int) -> int:
    if n % 2 == 0:
        raise ValueError(
            f"sample count n = {n} is even; the transform requires odd n for a "
            "symmetric frequency set. Truncate the last sample first (the CLI "
            "does this with --truncate-even)."
        )
    return (n - 1) // 2


def forward_dft(samples, period: float) -> np.ndarray:
    """Normalized DFT of one curve, or of every curve along the last axis, in l = -L..L order.

    c_l = (1/n) sum_{m=0}^{n-1} x_m exp(-i 2 pi m l / n).  Requires odd n.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim < 1:
        raise ValueError("samples must be one curve or an array of curves")
    _require_odd(x.shape[-1])
    if not np.all(np.isfinite(x)):
        raise ValueError("curve samples must be finite")
    if not period > 0:
        raise ValueError("period must be positive")
    return np.fft.fftshift(np.fft.fft(x, axis=-1), axes=-1) / x.shape[-1]


def inverse_dft(coeffs) -> np.ndarray:
    """Inverse of `forward_dft`: x_m = sum_l c_l exp(i 2 pi m l / n).

    The imaginary residual of the inverse FFT is discarded; for tables with
    conjugate-symmetric rows it is at rounding level.
    """
    c = np.asarray(coeffs, dtype=complex)
    n = c.shape[-1]
    if n % 2 == 0:
        raise ValueError("coefficient vector must have odd length 2L+1")
    return np.fft.ifft(np.fft.ifftshift(c, axes=-1) * n, axis=-1).real


def transform(curves: CurveSet) -> SpectralTable:
    """Forward transform of every curve in a set."""
    return SpectralTable(coeffs=forward_dft(curves.samples, curves.period), period=curves.period)


def synthesize(table: SpectralTable) -> CurveSet:
    """Inverse transform of every row back to the sample grid."""
    return CurveSet(samples=inverse_dft(table.coeffs), period=table.period)


def rephase(table: SpectralTable, alpha) -> SpectralTable:
    """Undo candidate phase shifts: d_{jl} -> exp(i l alpha_j) d_{jl}.

    `alpha` has one entry per curve, in radians, on its last axis.  Its
    leading axes broadcast against the table's: P phase vectors (P, J) rephase
    one (J, 2L+1) table P ways, or a stack of P tables one way each.
    Rephasing preserves the modulus of every coefficient.
    """
    a = np.asarray(alpha, dtype=float)
    if a.ndim < 1 or a.shape[-1] != table.n_curves:
        raise ValueError("alpha must have one entry per curve")
    if not np.all(np.isfinite(a)):
        raise ValueError("alpha must be finite")
    phases = np.exp(1j * (a[..., None] * table.frequencies))
    return SpectralTable(coeffs=table.coeffs * phases, period=table.period)

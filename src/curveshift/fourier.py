"""Frequency-domain representation of sampled periodic curves.

A collection of J real curves sampled at n equispaced points t_i = (i-1)T/n
of a period-T interval is mapped to the table of discrete Fourier coefficients

    d_{jl} = (1/n) sum_m y_{jm} exp(-i 2 pi m l / n),   l = 0..n//2,

one real FFT per curve, for any n >= 3.  The curves are real, so
d_{j,-l} = conj(d_{jl}), and the weights are even, delta_{-l} = delta_l: every
frequency-indexed array of the package holds l >= 0 only (the weights and the
true coefficients l = 0..L, L = (n-1)//2), and `forward_dft` is the only
transform of sampled curves.  For even n the table's last column is the
Nyquist term l = n/2, which a real curve cannot shift by less than a sample:
the contrast, the start scan and the noise estimate give it weight 0, and
only `inverse_dft` and the landmark smoother read it.  A time shift of curve j by theta multiplies d_{jl} by
exp(-i l alpha) with alpha = 2 pi theta / T, which is what makes this
representation convenient for shift estimation: candidate shifts are undone
in place by `rephase`, and agreement across curves is measured on the
rephased coefficients.

The zero-based DFT above differs from a one-based convention by a fixed
per-frequency global phase; every downstream quantity depends only on phase
differences across curves at each l, so the choice is immaterial and the
standard convention is used.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

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
        _require_period(self.period)

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
    """Per-curve Fourier coefficients d_{jl} of n-sample real curves, columns
    l = 0..n//2 (not l < 0).

    The column count fixes n only up to parity, so the table carries n.
    Leading axes, if any, stack independent J-curve tables, as in `CurveSet`.
    """

    coeffs: np.ndarray  # (..., J, n//2+1) complex
    period: float
    n_samples: int

    def __post_init__(self):
        coeffs = np.atleast_2d(np.asarray(self.coeffs, dtype=complex))
        object.__setattr__(self, "coeffs", coeffs)
        _require_period(self.period)
        if coeffs.shape[-1] != self.n_samples // 2 + 1:
            raise ValueError(f"a table of {coeffs.shape[-1]} columns does not hold "
                             f"n = {self.n_samples} samples (n//2 + 1 columns)")

    @property
    def n_curves(self) -> int:
        return self.coeffs.shape[-2]

    @property
    def max_frequency(self) -> int:  # L = (n-1)//2: an even n's Nyquist column is beyond it
        return (self.n_samples - 1) // 2

    @property
    def frequencies(self) -> np.ndarray:
        return np.arange(self.coeffs.shape[-1])


@dataclass(frozen=True)
class WeightScheme:
    """Frequency weights delta_l, l = 0..L, with delta_0 = 0; delta_{-l} = delta_l.

    The weights damp high frequencies in the shift-estimation contrast.  The
    primary family is the power law delta_l = |l|**-beta; exponents above
    1.25 keep the contrast's random part vanishing so that the Gaussian
    fluctuation theory applies.  Unit weights (delta_l = 1 for l != 0) are
    accepted for comparison purposes but flagged: with them the centered
    contrast does not converge to a deterministic function and the normal
    approximation for the estimator is unsupported.
    """

    values: np.ndarray  # (L+1,) float, >= 0, values[0] = 0
    kind: str = "custom"
    fluctuation_warning: str | None = field(default=None, compare=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("weights must be a vector delta_0..delta_L")
        if not np.all(np.isfinite(values)):
            raise ValueError("weights must be finite")
        if np.any(values < 0):
            raise ValueError("weights must be nonnegative")
        if values[0] != 0.0:
            raise ValueError("the zero-frequency weight must be 0")

    @property
    def max_frequency(self) -> int:
        return self.values.size - 1

    @classmethod
    def power(cls, beta: float, max_frequency: int) -> "WeightScheme":
        """delta_l = |l|**-beta for l != 0, delta_0 = 0."""
        ls = np.arange(int(max_frequency) + 1, dtype=float)
        with np.errstate(divide="ignore"):
            values = np.where(ls == 0, 0.0, ls ** -beta)
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
        values = np.ones(int(max_frequency) + 1)
        values[0] = 0.0
        return cls(
            values=values,
            kind="unit",
            fluctuation_warning=(
                "unit weights violate the fluctuation assumptions; the "
                "asymptotic normality of the shift estimator does not hold, and "
                "the reported standard errors and confidence intervals are not valid"
            ),
        )

    @classmethod
    def custom(cls, values) -> "WeightScheme":
        """Weights as given.  Flagged, as unit and power <= 1.25 are, when they
        reach the top frequency L and decay no faster than |l|**-1.25 from the
        first l1 >= 1 with delta > 0: delta_L L**1.25 >= delta_l1 l1**1.25."""
        weights = cls(values=values, kind="custom")
        L, values = weights.max_frequency, weights.values
        ls = np.flatnonzero(values)  # the l with delta_l > 0; never 0
        if ls.size and ls[-1] == L and values[L] * L**1.25 >= values[ls[0]] * ls[0]**1.25:
            return replace(weights, fluctuation_warning=(
                "custom weights reach the top frequency and decay no faster than "
                "|l|^-1.25; they are not guaranteed to satisfy the fluctuation "
                "conditions for square-integrable patterns"))
        return weights


def _require_period(period: float) -> None:
    if not (np.isfinite(period) and period > 0):
        raise ValueError("period must be finite and positive")


def forward_dft(samples, period: float) -> np.ndarray:
    """Normalized DFT of one curve, or of every curve along the last axis, for l = 0..n//2.

    c_l = (1/n) sum_{m=0}^{n-1} x_m exp(-i 2 pi m l / n): rfft(x) / n.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim < 1:
        raise ValueError("samples must be one curve or an array of curves")
    if not np.all(np.isfinite(x)):
        raise ValueError("curve samples must be finite")
    _require_period(period)
    return np.fft.rfft(x) / x.shape[-1]


def inverse_dft(coeffs, n: int) -> np.ndarray:
    """Inverse of `forward_dft` for n samples: x_m = sum_{l=-L..L} c_l exp(i 2 pi m l / n),
    c_{-l} = conj(c_l), plus Re(c_{n/2}) (-1)^m for even n.

    The curves are real, so the imaginary part of c_0 is ignored, and so is that of an even
    n's Nyquist term: rephased by exp(i (n/2) a), a real c_{n/2} keeps c_{n/2} cos((n/2) a).
    """
    c = np.asarray(coeffs, dtype=complex)
    return np.fft.irfft(c * n, n)


def transform(curves: CurveSet) -> SpectralTable:
    """Forward transform of every curve in a set."""
    return SpectralTable(forward_dft(curves.samples, curves.period), curves.period,
                         curves.n_samples)


def synthesize(table: SpectralTable) -> CurveSet:
    """Inverse transform of every row back to the sample grid."""
    return CurveSet(samples=inverse_dft(table.coeffs, table.n_samples), period=table.period)


def rephase(table: SpectralTable, alpha) -> SpectralTable:
    """Undo candidate phase shifts: d_{jl} -> exp(i l alpha_j) d_{jl}.

    `alpha` has one entry per curve, in radians, on its last axis.  Its
    leading axes broadcast against the table's: P phase vectors (P, J) rephase
    one (J, n//2+1) table P ways, or a stack of P tables one way each.
    Rephasing preserves the modulus of every coefficient.  l = 0 takes 1, and
    l >= 1 takes cos and sin of l a, which equal np.exp(1j * l * a) bit for
    bit, except that a zero imaginary part carries the sign of the zero angle.
    """
    a = np.asarray(alpha, dtype=float)
    if a.ndim < 1 or a.shape[-1] != table.n_curves:
        raise ValueError("alpha must have one entry per curve")
    if not np.all(np.isfinite(a)):
        raise ValueError("alpha must be finite")
    angles = a[..., None] * table.frequencies[1:]
    phases = np.empty(a.shape + (angles.shape[-1] + 1,), dtype=complex)
    phases[..., 0] = 1.0
    phases[..., 1:].real, phases[..., 1:].imag = np.cos(angles), np.sin(angles)
    # Named, not a temporary: numpy would multiply a temporary in place with the
    # operands swapped, and complex products round differently then.
    return SpectralTable(table.coeffs * phases, table.period, table.n_samples)

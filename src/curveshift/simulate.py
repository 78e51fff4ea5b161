"""Synthetic shifted-curve data and replicated Monte Carlo studies.

Replicates draw shifts uniformly on [-pi/4, pi/4] (first curve pinned at 0),
evaluate the chosen pattern at the shifted grid times and add white Gaussian
noise.  Randomness comes from a counter-based Philox stream keyed by
(seed, replicate_index), so any replicate can be regenerated independently.
Each stream gives the replicate's shifts first and then its noise, from
`Generator.standard_normal`.  numpy does not promise to keep `Generator`'s
algorithms across versions, so studies are reproducible bit for bit for a
given numpy version.

A study stacks its replicates in blocks of at most STUDY_BLOCK table entries
and processes each block in one pass: one transform, one start scan, one
stacked Newton run (`optimize`), whose tables rephased at the optima also
give the intervals, and one landmark smoothing of that same table.  Each
replicate gets the numbers it would get alone.

A study aggregates the shift estimates over replicates: bias, the empirical
covariance of the sqrt(n)-scaled errors, confidence-interval coverage, and
root-mean-square errors for both the contrast minimizer and the
landmark-alignment baseline.  The matching theoretical covariance is
computed from the pattern's exact Fourier coefficients, obtained by
composite Simpson quadrature of (1/T) integral f(t) exp(-2 pi i l t / T) dt,
evaluated for all l = 0..L at once as one FFT of the Simpson-weighted samples;
the pattern is real, so c_{-l} = conj(c_l) and the Gamma sums read l >= 0 only.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .criterion import CriterionContext, full_phases, wrap_phase, wrap_time
from .fourier import (CurveSet, SpectralTable, WeightScheme, _require_period, forward_dft,
                      inverse_dft, rephase, transform)
from .inference import gamma_from_power, interval_half_widths
from .landmark import LandmarkConfig, landmark_shifts
from .optimize import OptimizerConfig, _minimize_tables

__all__ = [
    "PATTERNS",
    "sinc15",
    "cosine",
    "SimulationSpec",
    "Replicate",
    "MonteCarloSummary",
    "generate",
    "true_coefficients",
    "theoretical_gamma",
    "run_study",
]


def sinc15(t, period: float = 2.0 * np.pi):
    """15 sin(4u)/(4u) on the centered fundamental domain, extended periodically.

    The value at u = 0 is 15, by continuity.
    """
    u = np.mod(np.asarray(t, dtype=float) + period / 2.0, period) - period / 2.0
    return 15.0 * np.sinc(4.0 * u / np.pi)


def cosine(t, period: float = 2.0 * np.pi):
    return np.cos(2.0 * np.pi * np.asarray(t, dtype=float) / period)


PATTERNS = {"sinc15": sinc15, "cosine": cosine}


@dataclass(frozen=True)
class SimulationSpec:
    """Parameters of one replicated experiment."""

    pattern: str | np.ndarray  # named pattern or custom samples on the grid
    n_curves: int = 10
    n_samples: int = 101
    sigma: float = 1.0
    shifts: np.ndarray | None = None  # explicit time-unit shifts; None = uniform law
    weights: WeightScheme | None = None  # None = power(1.3)
    replicates: int = 200
    seed: int = 0
    period: float = 2.0 * np.pi
    confidence: float = 0.95

    def __post_init__(self):
        if self.n_samples < 3 or self.n_curves < 2:
            raise ValueError("need n >= 3 samples and J >= 2 curves")
        if not (np.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError("sigma must be finite and nonnegative")
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a nonnegative 64-bit integer")
        _require_period(self.period)
        if not 0 < self.confidence < 1:
            raise ValueError("confidence must lie in (0, 1)")
        if isinstance(self.pattern, str):
            if self.pattern not in PATTERNS:
                raise ValueError(f"unknown pattern {self.pattern!r}")
        else:
            samples = np.asarray(self.pattern, dtype=float)
            if samples.shape != (self.n_samples,):
                raise ValueError(f"custom pattern must supply one sample per grid point "
                                 f"(n = {self.n_samples}), got {samples.size} samples")
            if not np.all(np.isfinite(samples)):
                raise ValueError("custom pattern samples must be finite")
            object.__setattr__(self, "pattern", samples)
        if self.weights is None:
            object.__setattr__(self, "weights", WeightScheme.power(1.3, self.max_frequency))
        if self.weights.max_frequency != self.max_frequency:
            raise ValueError("weight scheme does not match the sample count")
        if self.shifts is not None:
            shifts = np.asarray(self.shifts, dtype=float)
            if shifts.shape != (self.n_curves,):
                raise ValueError("explicit shifts must supply one value per curve")
            if not np.all(np.isfinite(shifts)):
                raise ValueError("explicit shifts must be finite")
            if shifts[0] != 0.0:
                raise ValueError("the first curve's shift is pinned to zero")
            object.__setattr__(self, "shifts", shifts)

    @property
    def max_frequency(self) -> int:
        return (self.n_samples - 1) // 2

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_samples) * (self.period / self.n_samples)


@dataclass(frozen=True)
class Replicate:
    curves: CurveSet
    theta: np.ndarray  # (J,) true time-unit shifts
    alpha: np.ndarray  # (J,) true phases


def _replicate_rng(seed: int, replicate_index: int) -> np.random.Generator:
    key = np.array([seed, replicate_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _draw(spec: SimulationSpec, indices) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Samples (B, J, n), shifts theta (B, J) and phases alpha (B, J) of replicates.

    Each replicate draws its shifts and then its standard normal noise from
    its own Philox stream; the pattern is then evaluated once for the whole
    block.
    """
    J, n, T = spec.n_curves, spec.n_samples, spec.period
    B = len(indices)
    theta = np.zeros((B, J)) if spec.shifts is None else np.tile(spec.shifts, (B, 1))
    noise = np.zeros((B, J, n))
    for b, r in enumerate(indices):
        rng = _replicate_rng(spec.seed, r)
        if spec.shifts is None:
            theta[b, 1:] = (rng.random(J - 1) - 0.5) * (np.pi / 2.0)
        if spec.sigma > 0:
            noise[b] = rng.standard_normal((J, n))
    alpha = theta * (2.0 * np.pi / T)  # identity when T = 2 pi
    if isinstance(spec.pattern, str):
        clean = PATTERNS[spec.pattern](spec.times - theta[..., None], T)
    else:
        pattern = SpectralTable(np.tile(forward_dft(spec.pattern, T), (J, 1)), T, n)
        clean = inverse_dft(rephase(pattern, -alpha).coeffs, n)
    return clean + spec.sigma * noise, theta, alpha


def generate(spec: SimulationSpec, replicate_index: int) -> Replicate:
    """One dataset with known truth, deterministic in (seed, replicate_index)."""
    samples, theta, alpha = _draw(spec, [replicate_index])
    return Replicate(
        curves=CurveSet(samples=samples[0], period=spec.period),
        theta=theta[0],
        alpha=alpha[0],
    )


@functools.lru_cache(maxsize=16)
def _named_coefficients(name: str, L: int, T: float) -> np.ndarray:
    """Simpson coefficients of a named pattern; read-only, as the cache shares them."""
    panels = max(16384, 64 * L)  # even, as Simpson needs
    fvals = PATTERNS[name](np.linspace(0.0, T, panels + 1), T)
    g = fvals[:-1] * np.tile([2.0, 4.0], panels // 2)
    g[0] = fvals[0] + fvals[-1]
    coeffs = np.fft.fft(g)[:L + 1] / (3 * panels)
    coeffs.flags.writeable = False
    return coeffs


def true_coefficients(spec: SimulationSpec) -> np.ndarray:
    """Exact Fourier coefficients c_l of the pattern for l = 0..L.

    Named patterns are integrated with composite Simpson on a grid fine
    enough for the highest requested frequency, evaluated for every l as one
    FFT of the Simpson-weighted samples (exp(-2 pi i l t/T) is 1 at both ends,
    so the endpoint sample folds onto t = 0).  That result is cached per
    (pattern, L, period), and each call returns a copy.  A custom sampled
    pattern is its own band-limited truth, so its `forward_dft` at l = 0..L
    is returned directly.
    """
    L = spec.max_frequency
    if not isinstance(spec.pattern, str):
        return forward_dft(spec.pattern, spec.period)[:L + 1]
    return _named_coefficients(spec.pattern, L, spec.period).copy()


def theoretical_gamma(spec: SimulationSpec) -> np.ndarray:
    """Asymptotic covariance factor Gamma built from the true coefficients."""
    mags_sq = np.abs(true_coefficients(spec)) ** 2
    return gamma_from_power(mags_sq, spec.weights, spec.n_curves)


STUDY_BLOCK = 1 << 15  # table entries (replicates x J x n) per stacked block; bounds its memory


@dataclass(frozen=True)
class MonteCarloSummary:
    spec: SimulationSpec
    alpha_true: np.ndarray  # (R, J-1)
    alpha_hat: np.ndarray  # (R, J-1)
    theta_true: np.ndarray  # (R, J)
    theta_hat: np.ndarray  # (R, J)
    theta_hat_landmark: np.ndarray  # (R, J), NaN where the baseline failed
    landmark_ok: np.ndarray  # (R, J) bool, False where a curve's landmark is undefined
    criterion_values: np.ndarray  # (R,)
    bias: np.ndarray  # (J-1,)
    covariance: np.ndarray  # empirical cov of sqrt(n)(alpha_hat - alpha*)
    theoretical_covariance: np.ndarray  # sigma^2 Gamma
    coverage: np.ndarray  # (J-1,) CI coverage rates
    rmse_estimator: float
    rmse_landmark: float
    landmark_failures: int
    inference_failures: int
    nonconverged: int

    def as_dict(self) -> dict:
        """Plain-type view for serialization; non-finite values become None."""

        def scrub(x):
            if isinstance(x, list):
                return [scrub(v) for v in x]
            if isinstance(x, float) and not np.isfinite(x):
                return None
            return x

        return {
            "replicates": int(self.spec.replicates),
            "n_curves": int(self.spec.n_curves),
            "n_samples": int(self.spec.n_samples),
            "sigma": float(self.spec.sigma),
            "weights": self.spec.weights.kind,
            "seed": int(self.spec.seed),
            "bias": scrub(self.bias.tolist()),
            "covariance_scaled_errors": scrub(self.covariance.tolist()),
            "theoretical_covariance": scrub(self.theoretical_covariance.tolist()),
            "coverage": scrub(self.coverage.tolist()),
            "confidence_level": float(self.spec.confidence),
            "rmse_estimator": scrub(float(self.rmse_estimator)),
            "rmse_landmark": scrub(float(self.rmse_landmark)),
            "landmark_failures": int(self.landmark_failures),
            "inference_failures": int(self.inference_failures),
            "nonconverged": int(self.nonconverged),
        }


def run_study(
    spec: SimulationSpec,
    config: OptimizerConfig | None = None,
    landmark_config: LandmarkConfig | None = None,
) -> MonteCarloSummary:
    """Estimate every replicate and aggregate errors, coverage and baselines.

    Landmark or inference failures on individual replicates are counted and
    excluded from the affected aggregate, never fatal; non-convergence of the
    minimizer is likewise only counted.  A replicate with any undefined
    landmark is left out of the landmark RMSE, but its located curves keep
    their landmark shifts.  Bias, covariance, coverage and the estimator's
    RMSE (in time units) read the phase errors wrapped to the circle, so a
    truth anywhere on the period scores alike.
    """
    R, J, n, T = spec.replicates, spec.n_curves, spec.n_samples, spec.period
    alpha_true = np.empty((R, J - 1))
    alpha_hat = np.empty((R, J - 1))
    theta_true = np.empty((R, J))
    theta_lm = np.empty((R, J))
    landmark_ok = np.empty((R, J), dtype=bool)
    crit = np.empty(R)
    half = np.empty(R)  # interval half-widths, NaN where inference failed
    converged = np.empty(R, dtype=bool)
    block = max(1, STUDY_BLOCK // (J * n))
    for lo in range(0, R, block):
        b = slice(lo, min(R, lo + block))
        samples, theta_true[b], alpha = _draw(spec, range(R)[b])
        table = transform(CurveSet(samples=samples, period=T))
        run = _minimize_tables(CriterionContext(table, spec.weights), config)
        crit[b], converged[b] = run.f, run.converged
        alpha_true[b] = alpha[:, 1:]
        alpha_hat[b] = run.x
        half[b] = interval_half_widths(run.aligned, n, spec.weights, spec.confidence)
        theta_lm[b], landmark_ok[b] = landmark_shifts(table, landmark_config)
    theta_hat = full_phases(alpha_hat, J) * (T / (2.0 * np.pi))
    errors = wrap_phase(alpha_hat - alpha_true)
    inferred = ~np.isnan(half)
    coverage = np.mean(np.abs(errors[inferred]) <= half[inferred, None], axis=0)
    scaled = np.sqrt(n) * errors
    covariance = np.atleast_2d(np.cov(scaled, rowvar=False)) if R > 1 else np.zeros((J - 1, J - 1))
    covariance = 0.5 * (covariance + covariance.T)
    valid_lm = landmark_ok.all(axis=1)
    err_lm = wrap_time(theta_lm[valid_lm, 1:] - theta_true[valid_lm, 1:], spec.period)
    rmse_lm = float(np.sqrt(np.mean(err_lm**2))) if valid_lm.any() else float("nan")
    return MonteCarloSummary(
        spec=spec,
        alpha_true=alpha_true,
        alpha_hat=alpha_hat,
        theta_true=theta_true,
        theta_hat=theta_hat,
        theta_hat_landmark=theta_lm,
        landmark_ok=landmark_ok,
        criterion_values=crit,
        bias=errors.mean(axis=0),
        covariance=covariance,
        theoretical_covariance=spec.sigma**2 * theoretical_gamma(spec),
        coverage=coverage,
        rmse_estimator=float(np.sqrt(np.mean((errors * (T / (2.0 * np.pi))) ** 2))),
        rmse_landmark=rmse_lm,
        landmark_failures=int(np.sum(~valid_lm)),
        inference_failures=int(np.sum(~inferred)),
        nonconverged=int(np.sum(~converged)),
    )

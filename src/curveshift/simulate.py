"""Synthetic shifted-curve data and replicated Monte Carlo studies.

Replicates draw shifts uniformly on [-pi/4, pi/4] (first curve pinned at 0),
evaluate the chosen pattern at the shifted grid times and add white Gaussian
noise.  Randomness comes from a counter-based Philox stream keyed by
(seed, replicate_index), so any replicate can be regenerated independently
and studies are reproducible bit for bit; normal deviates are produced by
applying the inverse normal cdf to uniforms, which keeps the generation
contract portable.

A study aggregates the shift estimates over replicates: bias, the empirical
covariance of the sqrt(n)-scaled errors, confidence-interval coverage, and
root-mean-square errors for both the contrast minimizer and the
landmark-alignment baseline.  The matching theoretical covariance is
computed from the pattern's exact Fourier coefficients, obtained by
composite Simpson quadrature of (1/T) integral f(t) exp(-2 pi i l t / T) dt,
evaluated for all l at once as one FFT of the Simpson-weighted samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criterion import CriterionContext, wrap_phase, wrap_time
from .fourier import CurveSet, SpectralTable, WeightScheme, forward_dft, inverse_dft, rephase, transform
from .inference import confidence_intervals, gamma_from_power, norm_ppf
from .landmark import LandmarkConfig, landmark_shifts
from .optimize import OptimizerConfig, minimize

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
        if self.n_samples % 2 == 0:
            raise ValueError("n_samples must be odd; truncate the grid first")
        if self.n_samples < 3 or self.n_curves < 2:
            raise ValueError("need n >= 3 samples and J >= 2 curves")
        if not (np.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError("sigma must be finite and nonnegative")
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a nonnegative 64-bit integer")
        if not (np.isfinite(self.period) and self.period > 0):
            raise ValueError("period must be finite and positive")
        if not 0 < self.confidence < 1:
            raise ValueError("confidence must lie in (0, 1)")
        if isinstance(self.pattern, str):
            if self.pattern not in PATTERNS:
                raise ValueError(f"unknown pattern {self.pattern!r}")
        else:
            samples = np.asarray(self.pattern, dtype=float)
            if samples.shape != (self.n_samples,):
                raise ValueError("custom pattern must supply one sample per grid point")
            object.__setattr__(self, "pattern", samples)
        if self.weights is None:
            object.__setattr__(self, "weights", WeightScheme.power(1.3, self.max_frequency))
        if self.weights.values.size != self.n_samples:
            raise ValueError("weight scheme does not match the sample count")
        if self.shifts is not None:
            shifts = np.asarray(self.shifts, dtype=float)
            if shifts.shape != (self.n_curves,):
                raise ValueError("explicit shifts must supply one value per curve")
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


def _standard_normal(rng: np.random.Generator, shape) -> np.ndarray:
    # Inverse-cdf sampling from 53-bit uniforms strictly inside (0, 1).
    u = (rng.integers(0, 1 << 53, size=shape, dtype=np.uint64) + 0.5) * 2.0**-53
    return norm_ppf(u)


def generate(spec: SimulationSpec, replicate_index: int) -> Replicate:
    """One dataset with known truth, deterministic in (seed, replicate_index)."""
    rng = _replicate_rng(spec.seed, replicate_index)
    J, n, T = spec.n_curves, spec.n_samples, spec.period
    if spec.shifts is None:
        theta = np.zeros(J)
        theta[1:] = (rng.random(J - 1) - 0.5) * (np.pi / 2.0)
    else:
        theta = spec.shifts.copy()
    alpha = theta * (2.0 * np.pi / T)  # identity when T = 2 pi
    t = spec.times
    if isinstance(spec.pattern, str):
        clean = PATTERNS[spec.pattern](t[None, :] - theta[:, None], T)
    else:
        pattern = SpectralTable(np.tile(forward_dft(spec.pattern, T), (J, 1)), T)
        clean = inverse_dft(rephase(pattern, -alpha).coeffs)
    noise = spec.sigma * _standard_normal(rng, (J, n)) if spec.sigma > 0 else 0.0
    return Replicate(
        curves=CurveSet(samples=clean + noise, period=T),
        theta=theta,
        alpha=alpha,
    )


def true_coefficients(spec: SimulationSpec) -> np.ndarray:
    """Exact Fourier coefficients of the pattern for l = -L..L.

    Named patterns are integrated with composite Simpson on a grid fine
    enough for the highest requested frequency, evaluated for every l as one
    FFT of the Simpson-weighted samples (exp(-2 pi i l t/T) is 1 at both ends,
    so the endpoint sample folds onto t = 0); a custom sampled pattern is its
    own band-limited truth, so its transform is returned directly.
    """
    if not isinstance(spec.pattern, str):
        return forward_dft(spec.pattern, spec.period)
    L, T = spec.max_frequency, spec.period
    panels = max(16384, 64 * L)  # even, as Simpson needs
    fvals = PATTERNS[spec.pattern](np.linspace(0.0, T, panels + 1), T)
    g = fvals[:-1] * np.tile([2.0, 4.0], panels // 2)
    g[0] = fvals[0] + fvals[-1]
    return np.fft.fft(g)[np.arange(-L, L + 1)] / (3 * panels)  # bin panels + l for l < 0


def theoretical_gamma(spec: SimulationSpec) -> np.ndarray:
    """Asymptotic covariance factor Gamma built from the true coefficients."""
    mags_sq = np.abs(true_coefficients(spec)) ** 2
    return gamma_from_power(mags_sq, spec.weights, spec.n_curves)


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
    their landmark shifts.
    """
    R, J, n = spec.replicates, spec.n_curves, spec.n_samples
    alpha_true = np.empty((R, J - 1))
    alpha_hat = np.empty((R, J - 1))
    theta_true = np.empty((R, J))
    theta_hat = np.empty((R, J))
    theta_lm = np.empty((R, J))
    landmark_ok = np.empty((R, J), dtype=bool)
    crit = np.empty(R)
    covered = np.full((R, J - 1), np.nan)
    inference_failures = 0
    nonconverged = 0
    for r in range(R):
        rep = generate(spec, r)
        table = transform(rep.curves)
        ctx = CriterionContext(table, spec.weights)
        res = minimize(ctx, config)
        if not res.converged:
            nonconverged += 1
        alpha_true[r] = rep.alpha[1:]
        theta_true[r] = rep.theta
        alpha_hat[r] = res.alpha_hat.free
        theta_hat[r] = res.theta_hat
        crit[r] = res.criterion_value
        try:
            report = confidence_intervals(res, table, spec.weights, spec.confidence)
            lo, hi = report.intervals_alpha[:, 0], report.intervals_alpha[:, 1]
            covered[r] = (lo <= rep.alpha[1:]) & (rep.alpha[1:] <= hi)
        except ValueError:
            inference_failures += 1
        theta_lm[r], landmark_ok[r] = landmark_shifts(rep.curves, landmark_config)
    errors = wrap_phase(alpha_hat - alpha_true)
    scaled = np.sqrt(n) * errors
    covariance = np.atleast_2d(np.cov(scaled, rowvar=False)) if R > 1 else np.zeros((J - 1, J - 1))
    covariance = 0.5 * (covariance + covariance.T)
    valid_lm = landmark_ok.all(axis=1)
    err_lm = wrap_time(theta_lm[valid_lm, 1:] - theta_true[valid_lm, 1:], spec.period)
    rmse_lm = float(np.sqrt(np.mean(err_lm**2))) if valid_lm.any() else float("nan")
    err_theta = wrap_time(theta_hat[:, 1:] - theta_true[:, 1:], spec.period)
    coverage = np.nanmean(covered, axis=0) if R else np.full(J - 1, np.nan)
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
        coverage=np.asarray(coverage),
        rmse_estimator=float(np.sqrt(np.mean(err_theta**2))),
        rmse_landmark=rmse_lm,
        landmark_failures=int(np.sum(~valid_lm)),
        inference_failures=inference_failures,
        nonconverged=nonconverged,
    )

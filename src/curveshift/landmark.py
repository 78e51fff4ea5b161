"""Baseline alignment: locate each curve's maximum and shift maxima together.

Curves are first denoised by a Nadaraya-Watson smoother with a Gaussian
kernel and circular distance on the period, which on the equispaced grid
reduces to a circular convolution with constant normalization.  All curves
are smoothed together, by one real FFT pair over the (J, n) matrix, or over
a study's stacked (R, J, n) curves, and one FFT of the kernel.  The discrete
argmax of each smoothed curve is then refined by a parabola through the
three surrounding points, for all curves at once, and each curve's shift is
reported as the offset of its refined maximum from the first curve's of its
set.

This uses only the landmark (one point per curve) instead of the full data,
which is what makes it a baseline rather than a competitor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criterion import wrap_time
from .fourier import CurveSet

__all__ = ["LandmarkConfig", "default_bandwidth", "smooth", "max_location",
           "landmark_shifts"]

FLAT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class LandmarkConfig:
    """Gaussian-kernel smoothing configuration; bandwidth in time units.

    A bandwidth of None selects T * n**(-1/5): the deviation rule-of-thumb
    rate with the period supplying the spread scale.  Pass an explicit
    bandwidth to trade smoothing bias against noise in the located maxima.
    """

    bandwidth: float | None = None

    def __post_init__(self):
        if self.bandwidth is not None and not self.bandwidth > 0:
            raise ValueError("bandwidth must be positive")

    def resolve_bandwidth(self, n: int, period: float) -> float:
        if self.bandwidth is not None:
            return self.bandwidth
        return default_bandwidth(n, period)


def default_bandwidth(n: int, period: float) -> float:
    return period * float(n) ** (-0.2)


def smooth(curve, period: float, config: LandmarkConfig | None = None) -> np.ndarray:
    """Nadaraya-Watson estimate of a curve on its own grid, periodic metric.

    Acts on the last axis: a (J, n) matrix is smoothed row by row, with one
    FFT pair for all rows.  Linear in the curve values; reproduces constants
    exactly, and collapses to the identity as the bandwidth shrinks below the
    grid spacing.
    """
    y = np.asarray(curve, dtype=float)
    if y.ndim == 0 or y.shape[-1] < 3:
        raise ValueError("curve must have n >= 3 samples on its last axis")
    config = config or LandmarkConfig()
    n = y.shape[-1]
    h = config.resolve_bandwidth(n, period)
    steps = np.arange(n)
    dist = np.minimum(steps, n - steps) * (period / n)
    kernel = np.exp(-0.5 * (dist / h) ** 2)
    return np.fft.irfft(np.fft.rfft(y) * np.fft.rfft(kernel), n) / kernel.sum()


def max_location(curve, period: float, config: LandmarkConfig | None = None) -> float:
    """Refined location of a curve's maximum in [0, period).

    Raises if the maximum is ambiguous: several non-adjacent grid points tie
    within FLAT_TOLERANCE (a flat curve, or one with several equal peaks).
    """
    if np.ndim(curve) != 1:
        raise ValueError("curve must be a vector with n >= 3")
    loc, ok = _refined_max(smooth(curve, period, config), period)
    if not ok:
        raise ValueError("landmark undefined: curve maximum is not unique within tolerance")
    return float(loc)


def _refined_max(sm: np.ndarray, period: float) -> tuple[np.ndarray, np.ndarray]:
    """(locations, ok) of the maxima of already smoothed curves, along the last axis.

    ok is False where the maximum is ambiguous (see `max_location`); the
    location there is meaningless.
    """
    n = sm.shape[-1]
    rows = sm.reshape(-1, n)
    top = rows.max(axis=1)
    tied = rows >= (top - FLAT_TOLERANCE)[:, None]
    count = tied.sum(axis=1)
    ok = count <= 3
    for r in np.flatnonzero(ok & (count > 1)):
        ok[r] = _circular_span(np.flatnonzero(tied[r]), n) <= 2
    i = np.argmax(rows, axis=1)
    at = np.arange(rows.shape[0])
    left, mid, right = rows[at, (i - 1) % n], rows[at, i], rows[at, (i + 1) % n]
    denom = left - 2.0 * mid + right
    with np.errstate(divide="ignore", invalid="ignore"):
        offset = np.where(np.abs(denom) < 1e-300, 0.0, 0.5 * (left - right) / denom)
    offset = np.clip(offset, -0.5, 0.5)
    locs = ((i + offset) % n) * (period / n)
    return locs.reshape(sm.shape[:-1]), ok.reshape(sm.shape[:-1])


def _circular_span(indices: np.ndarray, n: int) -> int:
    if len(indices) <= 1:
        return 0
    gaps = np.diff(np.concatenate([indices, [indices[0] + n]]))
    return n - int(gaps.max())


def landmark_shifts(
    curves: CurveSet, config: LandmarkConfig | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-curve shifts (time units) that bring all maxima onto curve 1's.

    Returns (shifts, ok).  ok[j] is False where curve j's maximum is
    undefined (see `max_location`); shifts[j] is then NaN, and every shift is
    NaN when curve 1's is.  Otherwise entry j is the maximum location of
    curve j minus that of curve 1, wrapped to (-T/2, T/2], and entry 0 is
    exactly zero.  A stacked CurveSet (..., J, n) gives (..., J) arrays, each
    set's shifts relative to its own curve 1, from one smoothing of all its
    curves.
    """
    T = curves.period
    locs, ok = _refined_max(smooth(curves.samples, T, config), T)
    shifts = np.full(locs.shape, np.nan)
    first = ok[..., :1]
    rel = ok & first
    shifts[rel] = wrap_time((locs - locs[..., :1])[rel], T)
    shifts[..., 0] = np.where(first[..., 0], 0.0, np.nan)
    return shifts, ok

"""Minimization of the shift contrast over the pinned phase space.

The contrast is smooth but non-convex (multi-modal for weakly damped
weights), so the start decides which basin Newton ends in.  The start comes
from a weighted cross-correlation scan of each curve against the first one:
for J = 2 that correlation is a constant minus twice the contrast, so the
scan is a global search up to its grid step 2pi/(8n).  The scan is exact on
that grid but coarse to fine: one length-n inverse FFT, then direct sums in
the few grid cells that a curvature bound cannot rule out.  Under weights
flagged by `WeightScheme.fluctuation_warning` (unit, power <= 1.25) the
contrast is rough enough that the scan start can miss the lowest basin at
J > 2, so the unweighted n-point phase-correlation lag and the zero vector run
as well, and the best run wins.

Each run is Newton's method on the exact analytic Hessian, safeguarded as in
Nocedal and Wright, *Numerical Optimization*, chapters 3 and 6: the step is
-H^{-1} g when a Cholesky factorization of H succeeds and yields a descent
direction, otherwise steepest descent -g, and a backtracking line search
enforces sufficient decrease.  Coordinates are wrapped, not clamped: the
contrast is exactly 2pi-periodic in every coordinate, so wrapping preserves
values while keeping iterates in the principal box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .criterion import (ConstrainedShift, CriterionContext, _gradient, _hessian, _value,
                        full_phases, wrap_phase)
from .fourier import SpectralTable, rephase

__all__ = ["OptimizerConfig", "EstimationResult", "initialize", "minimize"]

CONTRACTION = 0.5  # line-search step factor per rejected trial
SUFFICIENT_DECREASE = 1e-4  # Armijo constant: accept f_try <= f + c * step * g.d


@dataclass(frozen=True)
class OptimizerConfig:
    max_iterations: int = 500
    gradient_tolerance: float = 1e-8  # max-norm
    restarts: int | None = None  # extra lattice starts; None = initializer only

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if not self.gradient_tolerance > 0:
            raise ValueError("gradient_tolerance must be positive")
        if self.restarts is not None and self.restarts < 0:
            raise ValueError("restarts must be nonnegative")


@dataclass(frozen=True)
class EstimationResult:
    alpha_hat: ConstrainedShift
    theta_hat: np.ndarray  # (J,) time units, first entry 0
    criterion_value: float
    iterations: int
    converged: bool
    gradient_max: float
    trace: tuple | None = None  # accepted criterion values, when requested


SCAN_OVERSAMPLING = 8  # scan phases per sample; a whole number keeps grid shifts exact
REFINE_BLOCK = 1 << 16  # phasor entries per refinement block; bounds its memory


def _correlation_argmax(table: SpectralTable, w2: np.ndarray, m: int) -> np.ndarray:
    """Free phases 2 pi k/m maximizing each curve's w2-weighted correlation with curve 1.

    Curve j's correlation at phase a is Re sum_l w2_l d_jl conj(d_1l) exp(i l a),
    maximized over a = 2 pi k/m, k = 0..m-1, where m = q n is a whole multiple
    of n.  The scan is exact on that grid without evaluating all of it.  Folded
    onto l = 0..L as p_l, the correlation is n/2 times
    f(a) = (1/n) Re sum_l s_l p_l exp(i l a), with s_0 = 1 and s_l = 2 otherwise.
    One real inverse FFT of length n gives f at the coarse points k = q c.  On
    a coarse cell of width h = 2 pi/n, f exceeds its larger endpoint by at most
    (h^2/8) max|f''| <= (h^2/8)(1/n) sum_l s_l l^2 |p_l|.  Only the cells
    within that bound (plus a rounding allowance) of the coarse maximum are
    refined: their q-1 interior points are summed directly, as one matrix
    product with phasors taken from the n roots of unity.  Values within the
    rounding allowance of the maximum count as ties and the smallest k wins,
    so an exact tie does not depend on how the FFT rounded.  With q = 1 this
    is the coarse scan alone.
    """
    n, L = table.n_samples, table.max_frequency
    q = m // n
    cross = w2 * table.coeffs[1:] * np.conj(table.coeffs[0])
    # Fold l < 0 onto l > 0, so that any table, not only a conjugate-symmetric
    # one, gives the correlation above.
    half = cross[:, L:] + np.conj(cross[:, L::-1])
    coarse = np.fft.irfft(half, n, axis=1)
    ls = np.arange(L + 1)
    terms = half * (np.where(ls == 0, 1.0, 2.0) / n)  # f(a) = Re sum_l terms_l exp(i l a)
    size = np.abs(terms)
    # Bounds the rounding of either evaluation of f; the cell test below
    # allows it three times (coarse endpoint, interior value, tie).
    tol = 2 * n * np.finfo(float).eps * size.sum(axis=1)
    best = coarse.max(axis=1)
    rows = cells = np.zeros(0, dtype=int)
    if q > 1:
        slack = (2.0 * np.pi / n) ** 2 / 8.0 * (size @ ls**2)
        ends = np.maximum(coarse, np.roll(coarse, -1, axis=1))
        # Cell c lies between coarse points c and c + 1 (mod n).
        rows, cells = np.nonzero(ends + (slack + 3.0 * tol)[:, None] > best[:, None])
        roots = np.exp(2j * np.pi * np.arange(n) / n)
        inner = np.exp(2j * np.pi * np.outer(ls, np.arange(1, q)) / m)
        fine = np.empty((rows.size, q - 1))
        block = max(1, REFINE_BLOCK // (L + 1))
        for lo in range(0, rows.size, block):
            r, c = rows[lo:lo + block], cells[lo:lo + block]
            fine[lo:lo + block] = ((terms[r] * roots[np.outer(c, ls) % n]) @ inner).real
        np.maximum.at(best, rows, fine.max(axis=1))
    floor = best - tol
    hit = coarse >= floor[:, None]
    k = np.where(hit.any(axis=1), q * np.argmax(hit, axis=1), m)
    if rows.size:
        hit = fine >= floor[rows, None]
        k_fine = np.where(hit.any(axis=1), q * cells + 1 + np.argmax(hit, axis=1), m)
        np.minimum.at(k, rows, k_fine)
    k = np.where(k > m // 2, k - m, k)
    return wrap_phase(2.0 * np.pi * k / m)


def initialize(ctx: CriterionContext) -> list[np.ndarray]:
    """Starting points: a weighted scan, plus the lag and zero starts under flagged weights.

    The scan start maximizes each curve's correlation with curve 1 under the
    contrast's own weights w_l^2, on m = 8n phases 2 pi k/m, k = 0..m-1: a
    length-n inverse FFT scans every eighth phase, and only the cells between
    those that can hold the maximum are summed directly
    (`_correlation_argmax`).  Shifts on the sample grid (multiples of
    2 pi/n) are on the scan grid, so noiseless grid shifts are found exactly.
    A curve whose weighted cross spectrum is zero has a constant correlation
    and starts at 0.  When the weights carry a fluctuation warning, the
    unweighted lag on the n-point grid and the zero vector are added;
    duplicates are dropped.
    """
    table = ctx.table
    n = table.n_samples
    starts = [_correlation_argmax(table, ctx.weights.values**2, SCAN_OVERSAMPLING * n)]
    if ctx.weights.fluctuation_warning is not None:
        starts += [_correlation_argmax(table, np.ones(n), n), np.zeros(table.n_curves - 1)]
    unique: list[np.ndarray] = []
    for x0 in starts:
        if not any(np.array_equal(x0, u) for u in unique):
            unique.append(x0)
    return unique


def _lattice_starts(dim: int, count: int) -> list[np.ndarray]:
    # Deterministic low-discrepancy fill-in: Kronecker sequence on sqrt(primes).
    primes: list[int] = []
    m = 2
    while len(primes) < dim:
        if all(m % p for p in primes):
            primes.append(m)
        m += 1
    roots = np.sqrt(np.array(primes, dtype=float))
    starts = []
    for i in range(1, count + 1):
        frac = np.mod(i * roots, 1.0)
        starts.append(wrap_phase(frac * 2.0 * np.pi - np.pi))
    return starts


def _descend(ctx: CriterionContext, x0: np.ndarray, config: OptimizerConfig, keep_trace: bool):
    """One safeguarded Newton run from x0; returns (x, f, iters, converged, gmax, trace)."""
    J = ctx.n_curves
    x = wrap_phase(x0)
    # One rephase per point tried; an accepted point's gradient and Hessian reuse it.
    ct = rephase(ctx.table, full_phases(x, J)).coeffs
    f = _value(ctx, ct)
    g = _gradient(ctx, ct)
    trace = [f] if keep_trace else None
    iters = 0
    gmax = float(np.max(np.abs(g)))
    while iters < config.max_iterations and gmax > config.gradient_tolerance:
        try:
            d = -cho_solve(cho_factor(_hessian(ctx, ct)), g)
        except LinAlgError:  # Hessian not positive definite
            d = -g
        gd = float(np.dot(g, d))
        if not gd < 0.0:  # rounding spoilt the Newton step; steepest descent
            d, gd = -g, -float(np.dot(g, g))
        # Keep a single step inside one period of the landscape.
        step = min(1.0, np.pi / max(float(np.max(np.abs(d))), 1e-300))
        accepted = False
        for _ in range(80):
            x_try = wrap_phase(x + step * d)
            ct_try = rephase(ctx.table, full_phases(x_try, J)).coeffs
            f_try = _value(ctx, ct_try)
            if np.isfinite(f_try) and f_try <= f + SUFFICIENT_DECREASE * step * gd:
                accepted = True
                break
            step *= CONTRACTION
        if not accepted:  # no further decrease representable
            break
        x, f, ct = x_try, f_try, ct_try
        g = _gradient(ctx, ct)
        gmax = float(np.max(np.abs(g)))
        iters += 1
        if keep_trace:
            trace.append(f)
    converged = gmax <= config.gradient_tolerance
    return x, f, iters, converged, gmax, trace


def minimize(
    ctx: CriterionContext,
    config: OptimizerConfig | None = None,
    keep_trace: bool = False,
) -> EstimationResult:
    """Estimate the shifts by minimizing the contrast from multiple starts.

    Returns the run with the lowest criterion value; exact ties go to the
    lexicographically smallest wrapped phase vector.  Non-convergence within
    the iteration budget is reported through the `converged` flag, not an
    exception; only a context whose weights vanish identically (criterion
    identically zero) or whose every run produced a non-finite value is an
    error.
    """
    config = config or OptimizerConfig()
    if not np.any(ctx.weights.values > 0):
        raise ValueError("criterion identically zero: every frequency weight vanishes")
    starts = initialize(ctx)
    if config.restarts:
        starts = starts + _lattice_starts(ctx.n_curves - 1, config.restarts)
    best = None
    for x0 in starts:
        x, f, iters, converged, gmax, trace = _descend(ctx, x0, config, keep_trace)
        if not np.isfinite(f):
            continue
        key = (f, tuple(x))
        if best is None or key < best[0]:
            best = (key, x, f, iters, converged, gmax, trace)
    if best is None:
        raise ValueError("estimation failed: no starting point produced a finite criterion value")
    _, x, f, iters, converged, gmax, trace = best
    alpha = ConstrainedShift(free=x)
    theta = alpha.full() * (ctx.table.period / (2.0 * np.pi))
    return EstimationResult(
        alpha_hat=alpha,
        theta_hat=theta,
        criterion_value=f,
        iterations=iters,
        converged=converged,
        gradient_max=gmax,
        trace=tuple(trace) if keep_trace else None,
    )

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
enforces sufficient decrease and accepts only strictly lower values, so a run
at the rounding floor of the contrast ends instead of stepping between equal
values.  Coordinates are wrapped, not clamped: the contrast is exactly
2pi-periodic in every coordinate, so wrapping preserves values while keeping
iterates in the principal box.

There is one Newton engine, `_descend`, and it runs P problems at once: the
starts of one table (`minimize`), or every start of every replicate of a
study block (`_minimize_tables` on a stacked (R, J, 2L+1) table).  Each
problem keeps its own step, line search, iteration count and stopping rule,
so it follows the same path as it would alone; the problems share each
rephase, value, gradient and Hessian call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .criterion import (ConstrainedShift, CriterionContext, _gradient, _hessian, _value,
                        full_phases, wrap_phase)
from .fourier import SpectralTable, rephase

__all__ = ["OptimizerConfig", "EstimationResult", "minimize"]

CONTRACTION = 0.5  # line-search step factor per rejected trial
SUFFICIENT_DECREASE = 1e-4  # Armijo constant: accept f_try <= f + c * step * g.d


@dataclass(frozen=True)
class OptimizerConfig:
    max_iterations: int = 500
    gradient_tolerance: float = 1e-8  # max-norm

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if not self.gradient_tolerance > 0:
            raise ValueError("gradient_tolerance must be positive")


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

    Returns (J-1,) phases for one table and (R, J-1) for a stack of R tables.

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
    coeffs = table.coeffs
    cross = w2 * coeffs[..., 1:, :] * np.conj(coeffs[..., :1, :])
    stacked = cross.shape[:-1]
    # Fold l < 0 onto l > 0, so that any table, not only a conjugate-symmetric
    # one, gives the correlation above.  Every row of every table is scanned
    # at once.
    half = (cross[..., L:] + np.conj(cross[..., L::-1])).reshape(-1, L + 1)
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
    return wrap_phase(2.0 * np.pi * k / m).reshape(stacked)


def _starts(ctx: CriterionContext) -> tuple[np.ndarray, np.ndarray]:
    """Start rows (P, J-1) for every table of ctx, and the table index of each row.

    A single (J, 2L+1) table counts as table 0.  Per table the rows are the
    scan start, then under flagged weights the unweighted n-point lag and the
    zero vector, with duplicates dropped.  The scan grid is the 8n phases
    2 pi k/(8n): it holds every sample-grid shift, so noiseless grid shifts
    are found exactly, and a curve with a zero weighted cross spectrum starts
    at 0.  Every table's scan runs in one `_correlation_argmax` call, and so
    does every lag.
    """
    table = ctx.table
    n, dim = table.n_samples, table.n_curves - 1
    candidates = [_correlation_argmax(table, ctx.weights.values**2, SCAN_OVERSAMPLING * n)]
    if ctx.weights.fluctuation_warning is not None:
        candidates += [_correlation_argmax(table, np.ones(n), n), np.zeros_like(candidates[0])]
    candidates = [c.reshape(-1, dim) for c in candidates]
    rows: list[np.ndarray] = []
    owner: list[int] = []
    for r in range(candidates[0].shape[0]):
        unique: list[np.ndarray] = []
        for c in candidates:
            if not any(np.array_equal(c[r], u) for u in unique):
                unique.append(c[r])
        rows += unique
        owner += [r] * len(unique)
    return np.array(rows), np.array(owner)


def _newton_direction(H: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, float]:
    """(d, g.d): the Newton step -H^{-1} g when H has a Cholesky factor and the
    step descends, else steepest descent -g.  The LAPACK calls are those of
    scipy's cho_factor and cho_solve, without their argument checks."""
    c, info = dpotrf(H, lower=0, clean=0)
    if info == 0:
        d = -dpotrs(c, g, lower=0)[0]
        gd = float(np.dot(g, d))
        if gd < 0.0:
            return d, gd
    return -g, -float(np.dot(g, g))


def _descend(ctx: CriterionContext, x0: np.ndarray, config: OptimizerConfig, keep_trace: bool):
    """Safeguarded Newton runs from the rows of x0 (P, J-1), stepped together.

    Row p minimizes the contrast of table p of ctx.table, a (P, J, 2L+1)
    stack, or of the one table when ctx.table is a single (J, 2L+1) table.
    Each row keeps its own step, line search, Newton-or-steepest-descent
    choice, iteration count and stopping rule, so its run is the one it would
    have alone; the rows share each rephase, value, gradient and Hessian
    call.  A trial point is accepted when its value is strictly lower and
    passes the Armijo test; a row that finds none in 80 halvings stops.
    Returns (x, f, iters, converged, gmax, traces), one entry per row; traces
    holds each row's accepted values when keep_trace, else it is None.
    """
    coeffs, period = ctx.table.coeffs, ctx.table.period
    x = wrap_phase(x0)
    P, J = x.shape[0], ctx.n_curves

    def take(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
        # `rows` is an increasing subset of 0..P-1; indexing by all of them
        # would only copy.
        return a if rows.size == P else a[rows]

    def rephased(rows: np.ndarray, xs: np.ndarray) -> np.ndarray:
        own = coeffs if coeffs.ndim == 2 else take(coeffs, rows)
        return rephase(SpectralTable(own, period), full_phases(xs, J)).coeffs

    # One rephase per point tried; an accepted point's gradient and Hessian reuse it.
    ct = rephased(np.arange(P), x)
    f = _value(ctx, ct)
    g = _gradient(ctx, ct)
    gmax = np.max(np.abs(g), axis=-1)
    iters = np.zeros(P, dtype=int)
    traces = [[v] for v in f.tolist()] if keep_trace else None
    running = gmax > config.gradient_tolerance
    while running.any():
        rows = np.flatnonzero(running)
        H = _hessian(ctx, take(ct, rows))
        if not np.all(np.isfinite(H)):
            raise ValueError("estimation failed: the Hessian is not finite")
        d = np.empty((rows.size, J - 1))
        gd = np.empty(rows.size)
        for i, p in enumerate(rows):
            d[i], gd[i] = _newton_direction(H[i], g[p])
        # Keep a single step inside one period of the landscape.
        step = np.minimum(1.0, np.pi / np.maximum(np.max(np.abs(d), axis=-1), 1e-300))
        accepted = np.zeros(rows.size, dtype=bool)
        search = np.arange(rows.size)  # positions in `rows` still backtracking
        for _ in range(80):
            s = rows[search]
            x_try = wrap_phase(x[s] + step[search, None] * d[search])
            ct_try = rephased(s, x_try)
            f_try = _value(ctx, ct_try)
            ok = (np.isfinite(f_try) & (f_try < f[s])
                  & (f_try <= f[s] + SUFFICIENT_DECREASE * step[search] * gd[search]))
            if ok.all() and s.size == P:  # every row moves: no copy
                x, f, ct = x_try, f_try, ct_try
            else:
                x[s[ok]], f[s[ok]], ct[s[ok]] = x_try[ok], f_try[ok], ct_try[ok]
            accepted[search[ok]] = True
            search = search[~ok]
            if not search.size:
                break
            step[search] *= CONTRACTION
        running[rows[search]] = False  # no further decrease representable
        done = rows[accepted]
        g[done] = _gradient(ctx, take(ct, done))
        gmax[done] = np.max(np.abs(g[done]), axis=-1)
        iters[done] += 1
        if keep_trace:
            for p in done:
                traces[p].append(float(f[p]))
        running[done] = (gmax[done] > config.gradient_tolerance) & (iters[done] < config.max_iterations)
    converged = gmax <= config.gradient_tolerance
    return x, f, iters, converged, gmax, traces


def _minimize_tables(ctx: CriterionContext, config: OptimizerConfig | None = None,
                     keep_trace: bool = False):
    """Minimize the contrast of every table of ctx in one stacked Newton pass.

    ctx.table is one (J, 2L+1) table or a stack (R, J, 2L+1).  Each table's
    starts (`_starts`) are rows of one `_descend` call, and each table keeps
    its run with the lowest criterion value; exact ties go to the
    lexicographically smallest wrapped phase vector.  Returns (x, f, iters,
    converged, gmax, traces) with one entry per table.
    """
    config = config or OptimizerConfig()
    if not np.any(ctx.weights.values > 0):
        raise ValueError("criterion identically zero: every frequency weight vanishes")
    x0, owner = _starts(ctx)
    table = ctx.table
    if table.coeffs.ndim > 2 and x0.shape[0] != table.coeffs.shape[0]:
        table = SpectralTable(table.coeffs[owner], table.period)
    x, f, iters, converged, gmax, traces = _descend(
        CriterionContext(table, ctx.weights), x0, config, keep_trace)
    best: dict[int, tuple] = {}
    for p, r in enumerate(owner.tolist()):
        if not np.isfinite(f[p]):
            continue
        key = (f[p], tuple(x[p]))
        if r not in best or key < best[r][0]:
            best[r] = (key, p)
    if len(best) <= owner[-1]:
        raise ValueError("estimation failed: no starting point produced a finite criterion value")
    win = np.array([best[r][1] for r in range(len(best))])
    return (x[win], f[win], iters[win], converged[win], gmax[win],
            [traces[p] for p in win] if keep_trace else None)


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
    error.  This is `_minimize_tables` on one table.
    """
    x, f, iters, converged, gmax, traces = _minimize_tables(ctx, config, keep_trace)
    alpha = ConstrainedShift(free=x[0])
    theta = alpha.full() * (ctx.table.period / (2.0 * np.pi))
    return EstimationResult(
        alpha_hat=alpha,
        theta_hat=theta,
        criterion_value=float(f[0]),
        iterations=int(iters[0]),
        converged=bool(converged[0]),
        gradient_max=float(gmax[0]),
        trace=tuple(traces[0]) if keep_trace else None,
    )

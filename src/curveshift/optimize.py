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
as well, duplicates included, and the best run wins.

Each run is Newton's method on the exact analytic Hessian, safeguarded as in
Nocedal and Wright, *Numerical Optimization*, chapters 3 and 6: the step is
-H^{-1} g when a Cholesky factorization of H succeeds and yields a descent
direction, otherwise steepest descent -g, and a backtracking line search
enforces sufficient decrease and accepts only strictly lower values, so a run
at the rounding floor of the contrast ends instead of stepping between equal
values.  A run converges where H is positive definite and its Newton step, in
radians and so free of the curves' amplitude, is at most FINAL_STEP (Dennis and
Schnabel 1983, section 7.2).  Coordinates are wrapped, not clamped: the
contrast is exactly 2pi-periodic in every coordinate, so wrapping preserves
values while keeping iterates in the principal box.

There is one Newton engine, `_descend`: it runs P problems at once, every
start of every table of a stack (R, J, n//2+1), and `minimize` runs it on a
stack of one table.  Each problem keeps its own step, line search, iteration
count and stop, so its path is the one it would take alone; the problems
share each rephase, value, gradient, Hessian, Cholesky and solve call.  A
`Descent` record holds each run's end point, stop reason and work counts.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields

import numpy as np

from .criterion import (ConstrainedShift, CriterionContext, _gradient, _hessian, _value,
                        full_phases, wrap_phase)
from .fourier import SpectralTable, _powers, rephase

__all__ = ["OptimizerConfig", "EstimationResult", "minimize"]

CONTRACTION = 0.5  # line-search step factor per rejected trial
SUFFICIENT_DECREASE = 1e-4  # Armijo constant: accept f_try <= f + c * step * g.d
FINAL_STEP = 1.5e-8  # rad, ~sqrt(eps): a converged run's longest untaken Newton step


@dataclass(frozen=True)
class OptimizerConfig:
    max_iterations: int = 500

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")


@dataclass(frozen=True)
class EstimationResult:
    """The winning run of `minimize`, with the table the engine rephased at its optimum."""

    alpha_hat: ConstrainedShift
    theta_hat: np.ndarray  # (J,) time units, first entry 0
    criterion_value: float
    iterations: int
    converged: bool
    stop: int  # the run's `Descent.stop` code
    gradient_max: float
    aligned: SpectralTable  # the input table rephased at alpha_hat


# Why a run stopped: `Descent.stop` holds one code per run; RUNNING only inside `_descend`.
RUNNING, TOLERANCE, NO_LOWER_VALUE, ITERATION_CAP = range(4)


@dataclass(frozen=True)
class Descent:
    """Per-run results of `_descend`, each field indexed by run first."""

    x: np.ndarray  # (P, J-1) end points, wrapped
    f: np.ndarray  # (P,) contrast values there
    iterations: np.ndarray  # (P,) accepted steps
    gradient_max: np.ndarray  # (P,) max-norm of the gradient at x
    aligned: np.ndarray  # (P, J, n//2+1) each run's table rephased at x
    stop: np.ndarray  # (P,) TOLERANCE, NO_LOWER_VALUE or ITERATION_CAP
    newton: np.ndarray  # (P,) Newton directions taken
    steepest: np.ndarray  # (P,) -g directions taken
    rejected: np.ndarray  # (P,) rejected line-search trials

    @property
    def converged(self) -> np.ndarray:
        return self.stop == TOLERANCE

    @property
    def rephased(self) -> np.ndarray:  # points rephased: the start, then every trial
        return 1 + self.iterations + self.rejected

    def take(self, rows: np.ndarray) -> "Descent":
        return Descent(*(getattr(self, f.name)[rows] for f in fields(self)))


SCAN_OVERSAMPLING = 8  # scan phases per sample; a whole number keeps grid shifts exact
REFINE_BLOCK = 1 << 16  # phasor entries per refinement block; bounds its memory


@functools.lru_cache(maxsize=16)
def _scan_tables(n: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """The n roots of unity and the (n//2+1, q-1) phasors of a cell's interior; read-only."""
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    inner = np.exp(2j * np.pi * np.outer(np.arange(n // 2 + 1), np.arange(1, q)) / (q * n))
    roots.flags.writeable = inner.flags.writeable = False
    return roots, inner


def _correlation_argmax(table: SpectralTable, w2: np.ndarray, m: int) -> np.ndarray:
    """Free phases 2 pi k/m maximizing each curve's w2-weighted correlation with curve 1.

    Returns (J-1,) phases for one table and (R, J-1) for a stack of R tables.

    Curve j's correlation at phase a is Re sum_l w2_l d_jl conj(d_1l) exp(i l a),
    l = -L..L, maximized over a = 2 pi k/m, k = 0..m-1, where m = q n is a
    whole multiple of n.  The scan is exact on that grid without evaluating
    all of it.  With p_l = 2 w2_l d_jl conj(d_1l) on the columns of the table
    and of `w2`, l = 0..n//2, where w2 is 0 on an even n's Nyquist column, the
    correlation is n/2 times
    f(a) = (1/n) Re sum_l s_l p_l exp(i l a), with s_0 = 1 and s_l = 2 otherwise.
    One real inverse FFT of length n gives f at the coarse points k = q c.  On
    a coarse cell of width h = 2 pi/n, f exceeds its larger endpoint by at most
    (h^2/8) max|f''| <= (h^2/8)(1/n) sum_l s_l l^2 |p_l|.  Only the cells
    within that bound (plus a rounding allowance) of the coarse maximum are
    refined: their q-1 interior points are summed directly, as one matrix
    product whose phasors exp(2 pi i l c/n), `_powers` of the n roots of unity,
    are within about 2 ulp of exact: a few eps per unit of |p| against the
    2 n eps rounding allowance.  Values within it of the maximum count as ties
    and the smallest k wins, so an exact tie does not depend on how the FFT
    rounded.  With q = 1 this is the coarse scan alone.
    """
    n, ls = table.n_samples, table.frequencies
    q = m // n
    coeffs = table.coeffs
    p = 2.0 * (w2 * coeffs[..., 1:, :] * np.conj(coeffs[..., :1, :]))
    stacked = p.shape[:-1]
    p = p.reshape(-1, ls.size)  # every row of every table is scanned at once
    coarse = np.fft.irfft(p, n, axis=1)
    terms = p * (np.where(ls == 0, 1.0, 2.0) / n)  # f(a) = Re sum_l terms_l exp(i l a)
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
        roots, inner = _scan_tables(n, q)
        fine = np.empty((rows.size, q - 1))
        block = max(1, REFINE_BLOCK // ls.size)
        for lo in range(0, rows.size, block):
            r, c = rows[lo:lo + block], cells[lo:lo + block]
            phasors = _powers(ls.size, lambda e: roots[np.outer(c, e) % n])
            fine[lo:lo + block] = ((terms[r] * phasors) @ inner).real
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


def _starts(ctx: CriterionContext) -> np.ndarray:
    """Start rows (R, S, J-1) for every table of ctx's (R, J, n//2+1) stack.

    Per table the S rows are the scan start, then under flagged weights the
    unweighted n-point lag over l = -L..L and the zero vector (S = 3,
    duplicates kept; otherwise S = 1).  The scan grid is the 8n phases 2 pi k/(8n): it holds
    every sample-grid shift, so noiseless grid shifts are found exactly, and
    a curve with a zero weighted cross spectrum starts at 0.  Every table's
    scan runs in one `_correlation_argmax` call, and so does every lag.
    """
    table = ctx.table
    n = table.n_samples
    starts = [_correlation_argmax(table, ctx.w2, SCAN_OVERSAMPLING * n)]
    if ctx.weights.fluctuation_warning is not None:
        unweighted = 1.0 * (table.frequencies <= table.max_frequency)
        starts += [_correlation_argmax(table, unweighted, n), np.zeros_like(starts[0])]
    return np.stack(starts, axis=1)


def _newton_directions(H: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, ...]:
    """(d, g.d, steep, length) per row of H (P, k, k) and g (P, k): the Newton
    step -H^{-1} g when H is positive definite and the step descends, else -g,
    which `steep` marks; `length` is max|H^{-1} g| where H is positive definite,
    else inf.  Cholesky is only the positive-definiteness test: one call tests
    every row, then the rows one by one when some row fails."""
    newton = np.ones(len(H), dtype=bool)
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        for i, h in enumerate(H):
            try:
                np.linalg.cholesky(h)
            except np.linalg.LinAlgError:
                newton[i] = False
    d = -g
    d[newton] = -np.linalg.solve(H[newton], g[newton][..., None])[..., 0]
    length = np.where(newton, np.max(np.abs(d), axis=-1), np.inf)
    gd = np.einsum("pk,pk->p", g, d)
    steep = ~(newton & (gd < 0.0))
    d[steep] = -g[steep]
    gd[steep] = -np.einsum("pk,pk->p", g[steep], g[steep])
    return d, gd, steep, length


def _descend(ctx: CriterionContext, x0: np.ndarray, config: OptimizerConfig) -> Descent:
    """Safeguarded Newton runs from the rows of x0 (P, J-1), stepped together.

    Row p minimizes the contrast of table p of ctx.table, a (P, J, n//2+1)
    stack.  Each row keeps its own step, line search, Newton-or-steepest-
    descent choice, iteration count and stop, so its run and work counts are
    the ones it would have alone; the rows share each rephase, value,
    gradient, Hessian, Cholesky and solve call.  At each new point (a start or
    an accepted step) a row converges (TOLERANCE) when H is positive definite
    and the Newton step's max-norm is at most FINAL_STEP; else it stops at its
    iteration cap, or searches: a trial point is accepted when its value is
    strictly lower and passes the Armijo test.  A row whose search finds none,
    or whose gradient is NaN, stops with no lower value; a search ends after
    80 halvings, or once a rejected trial x + step d rounds to x, as every
    shorter step would too.
    """
    coeffs, period, n = ctx.table.coeffs, ctx.table.period, ctx.table.n_samples
    x = wrap_phase(x0)
    P, J = x.shape[0], ctx.n_curves

    def rephased(rows: np.ndarray, xs: np.ndarray) -> np.ndarray:
        return rephase(SpectralTable(coeffs[rows], period, n), full_phases(xs, J)).coeffs

    # One rephase per point tried; an accepted point's gradient and Hessian reuse it.
    ct = rephase(ctx.table, full_phases(x, J)).coeffs
    f = _value(ctx, ct)
    g, gmax = np.empty_like(x), np.empty(P)
    iters, newton, steepest, rejected = np.zeros((4, P), dtype=int)
    stop = np.full(P, RUNNING)
    done = np.arange(P)  # runs at a new point: every start, then each accepted step
    while True:
        g[done] = _gradient(ctx, ct[done])
        gmax[done] = np.max(np.abs(g[done]), axis=-1)
        stop[done[np.isnan(gmax[done])]] = NO_LOWER_VALUE
        rows = done[stop[done] == RUNNING]
        H = _hessian(ctx, ct[rows])
        if not np.all(np.isfinite(H)):
            raise ValueError("estimation failed: the Hessian is not finite")
        d, gd, steep, length = _newton_directions(H, g[rows])
        stop[rows[iters[rows] >= config.max_iterations]] = ITERATION_CAP
        stop[rows[length <= FINAL_STEP]] = TOLERANCE
        going = stop[rows] == RUNNING
        if not going.any():
            return Descent(x, f, iters, gmax, ct, stop, newton, steepest, rejected)
        rows, d, gd, steep = rows[going], d[going], gd[going], steep[going]
        newton[rows] += ~steep
        steepest[rows] += steep
        # Keep a single step inside one period of the landscape.
        step = np.minimum(1.0, np.pi / np.maximum(np.max(np.abs(d), axis=-1), 1e-300))
        accepted = np.zeros(rows.size, dtype=bool)
        search = np.arange(rows.size)  # positions in `rows` still backtracking
        for _ in range(80):
            s = rows[search]
            moved = x[s] + step[search, None] * d[search]
            x_try = wrap_phase(moved)
            ct_try = rephased(s, x_try)
            f_try = _value(ctx, ct_try)
            lower = f_try < f[s]
            ok = (np.isfinite(f_try) & lower
                  & (f_try <= f[s] + SUFFICIENT_DECREASE * step[search] * gd[search]))
            stuck = ~lower & np.all(moved == x[s], axis=-1)
            x[s[ok]], f[s[ok]], ct[s[ok]] = x_try[ok], f_try[ok], ct_try[ok]
            accepted[search[ok]] = True
            rejected[s[~ok]] += 1
            search = search[~ok & ~stuck]
            if not search.size:
                break
            step[search] *= CONTRACTION
        stop[rows[~accepted]] = NO_LOWER_VALUE
        done = rows[accepted]
        iters[done] += 1


def _minimize_tables(ctx: CriterionContext, config: OptimizerConfig | None = None) -> Descent:
    """Minimize the contrast of every table of ctx in one stacked Newton pass.

    ctx.table is a stack (R, J, n//2+1).  Each table's S starts (`_starts`)
    are rows of one `_descend` call, and each table keeps its run with the
    lowest criterion value; exact ties go to the lexicographically smallest
    wrapped phase vector, then to the earlier start.  Runs with a value that
    is not finite never win.  Returns the winners' `Descent`, one run per
    table, whose `aligned` holds each table rephased at its optimum.
    """
    config = config or OptimizerConfig()
    if not np.any(ctx.weights.values > 0):
        raise ValueError("criterion identically zero: every frequency weight vanishes")
    x0 = _starts(ctx)
    R, S, _ = x0.shape
    owner = np.repeat(np.arange(R), S)
    table = SpectralTable(ctx.table.coeffs[owner], ctx.table.period, ctx.table.n_samples)
    runs = _descend(CriterionContext(table, ctx.weights), x0.reshape(R * S, -1), config)
    # lexsort's last key sorts first and its sort is stable: by table, finite
    # values first, then f, then x coordinate by coordinate, then start order.
    finite = np.isfinite(runs.f)
    win = np.lexsort((*runs.x.T[::-1], runs.f, ~finite, owner))[::S]
    if not finite[win].all():
        raise ValueError("estimation failed: no starting point produced a finite criterion value")
    return runs.take(win)


def minimize(ctx: CriterionContext, config: OptimizerConfig | None = None) -> EstimationResult:
    """Estimate the shifts by minimizing the contrast from multiple starts.

    Returns the run with the lowest criterion value; exact ties go to the
    lexicographically smallest wrapped phase vector.  Non-convergence within
    the iteration budget is reported through the `converged` flag, not an
    exception; only a context whose weights vanish identically (criterion
    identically zero) or whose every run produced a non-finite value is an
    error.  This is `_minimize_tables` on a stack of one table; the result
    keeps that run's table rephased at alpha_hat, from which `estimate`
    takes its intervals and realigned curves.
    """
    table = ctx.table
    stack = CriterionContext(SpectralTable(table.coeffs[None], table.period, table.n_samples),
                             ctx.weights)
    run = _minimize_tables(stack, config)
    alpha = ConstrainedShift(free=run.x[0])
    theta = alpha.full() * (table.period / (2.0 * np.pi))
    return EstimationResult(
        alpha_hat=alpha,
        theta_hat=theta,
        criterion_value=float(run.f[0]),
        iterations=int(run.iterations[0]),
        converged=bool(run.converged[0]),
        stop=int(run.stop[0]),
        gradient_max=float(run.gradient_max[0]),
        aligned=SpectralTable(run.aligned[0], table.period, table.n_samples),
    )

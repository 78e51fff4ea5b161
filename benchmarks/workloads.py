"""The benchmark's workloads: seeded inputs, operations and output checks.

Each workload is a closed loop with one client: the next operation is
issued only after the previous one returned and its outputs were checked.
An operation is one `curveshift estimate` call on one input file, or one
replicate of a `curveshift simulate` cell (a cell runs `replicates` of them
in one call).  Inputs depend only on the seed and the operation index.
"""

from __future__ import annotations

import json
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

PERIOD = 2.0 * np.pi
SHIFT_HALF_WIDTH = np.pi / 4.0  # true shifts are drawn from [-pi/4, pi/4]

# A shift estimate further from the truth than this many of its standard
# errors fails the operation.  Under the normal approximation the chance of
# that is about 2e-9 per shift.
SE_MULTIPLE = 6.0
# An aligned curve must lie within this many noise standard deviations (RMS
# over the grid) of the true pattern.  Realignment leaves the noise level
# unchanged, so the measured ratio is close to 1.
ALIGNED_RMS_LIMIT = 1.5
# Tolerance for output values that must equal a mean of other values.
MEAN_TOLERANCE = 1e-9


def sinc15(t):
    """15 sin(4u)/(4u), u = t wrapped to [-T/2, T/2); 15 at u = 0."""
    u = np.mod(np.asarray(t, dtype=float) + PERIOD / 2.0, PERIOD) - PERIOD / 2.0
    return 15.0 * np.sinc(4.0 * u / np.pi)


def wrap(x):
    return np.mod(np.asarray(x, dtype=float) + np.pi, 2.0 * np.pi) - np.pi


@dataclass
class Outcome:
    """What one `cli.main` call did, as seen from outside."""

    ops: int
    latency: float
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    errors: list[float] = field(default_factory=list)  # centred phase errors
    covered: int = 0
    intervals: int = 0
    bytes_in: int = 0
    bytes_out: int = 0

    def fail(self, problem: str, count: int | None = None) -> None:
        self.problems.append(problem)
        self.failed = self.ops if count is None else min(self.ops, self.failed + count)


def _call(cli, argv: list[str]) -> tuple[int | None, float]:
    t0 = perf_counter()
    try:
        code = cli.main(argv)
    except Exception:  # a crash fails this operation; the run goes on
        traceback.print_exc()
        code = None
    return code, perf_counter() - t0


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").split("\n")
    if lines[-1] != "":
        raise ValueError(f"{path.name}: no final newline")
    rows = [ln.split(",") for ln in lines[1:-1]]
    return lines[0].split(","), rows


def _read_numeric(path: Path, header: list[str], n_rows: int) -> np.ndarray:
    found, rows = _read_table(path)
    if found != header:
        raise ValueError(f"{path.name}: header {found[:4]}... differs from {header[:4]}...")
    values = np.array(rows, dtype=float)
    if values.shape != (n_rows, len(header)) or not np.all(np.isfinite(values)):
        raise ValueError(f"{path.name}: expected {n_rows} finite rows of {len(header)}")
    return values


def centred_errors(alpha_hat, alpha_true) -> np.ndarray:
    """Wrapped phase errors of all J curves, minus their mean.

    The common shift is not identified; pinning curve 1 puts curve 1's
    error into every other curve's, which the centring removes.
    """
    err = wrap(np.asarray(alpha_hat) - np.asarray(alpha_true))
    return err - err.mean()


# ---------------------------------------------------------------------------
# curveshift estimate over seeded CSV files


@dataclass(frozen=True)
class EstimateInput:
    path: Path
    times: np.ndarray
    theta: np.ndarray  # (J,) true shifts; theta[0] = 0; radians since T = 2 pi
    samples: np.ndarray  # (J, n)


@dataclass(frozen=True)
class EstimateWorkload:
    """`estimate` on J curves of n samples: sinc15 plus white noise."""

    curves: int
    samples: int
    sigma: float
    trace_ops: int  # operations per pass of the traced run

    def prepare(self, seed: int, index: int, work: Path) -> EstimateInput:
        rng = np.random.default_rng([seed, index])
        J, n = self.curves, self.samples
        theta = np.zeros(J)
        theta[1:] = rng.uniform(-SHIFT_HALF_WIDTH, SHIFT_HALF_WIDTH, J - 1)
        times = np.arange(n) * (PERIOD / n)
        y = sinc15(times[None, :] - theta[:, None]) + self.sigma * rng.standard_normal((J, n))
        header = ",".join(["t"] + [f"y{j + 1}" for j in range(J)])
        body = "\n".join(",".join(map(repr, row)) for row in np.column_stack([times, y.T]).tolist())
        path = work / f"input-{index}.csv"
        path.write_text(header + "\n" + body + "\n", encoding="utf-8")
        return EstimateInput(path, times, theta, y)

    def execute(self, cli, item: EstimateInput, out: Path) -> Outcome:
        code, latency = _call(cli, ["estimate", "--input", str(item.path),
                                    "--output-dir", str(out)])
        outcome = Outcome(ops=1, latency=latency, bytes_in=item.path.stat().st_size)
        if code != 0:
            outcome.fail(f"exit code {code}")
        else:
            try:
                self._check(item, out, outcome)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                outcome.fail(f"unreadable output: {exc}")
        if out.exists():
            outcome.bytes_out = _dir_bytes(out)
        return outcome

    def _check(self, item: EstimateInput, out: Path, outcome: Outcome) -> None:
        J, n = self.curves, self.samples
        names = [f"y{j + 1}" for j in range(J)]
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        alpha = np.array(report["alpha_hat"], dtype=float)
        se = np.array(report["std_errors"], dtype=float)
        ci = np.array(report["ci_alpha"], dtype=float)
        if alpha.shape != (J,) or se.shape != (J - 1,) or ci.shape != (J - 1, 2):
            raise ValueError("report.json: estimate arrays have the wrong shape")
        shifts = _read_numeric(out / "shifts.csv",
                               ["j", "theta_hat", "alpha_hat", "std_error", "ci_lower",
                                "ci_upper"], J)
        aligned = _read_numeric(out / "aligned.csv", ["t"] + names, n)
        means = _read_numeric(out / "mean.csv", ["t", "raw_mean", "aligned_mean"], n)
        cov = _read_numeric(out / "covariance.csv", [f"alpha_{j + 2}" for j in range(J - 1)],
                            J - 1)

        if report["converged"] is not True:
            outcome.fail("report.json: converged is not true")
        if not (np.array_equal(shifts[:, 2], alpha) and np.array_equal(shifts[1:, 3], se)
                and np.array_equal(shifts[1:, 4:], ci)):
            outcome.fail("shifts.csv disagrees with report.json")
        if not np.all(se > 0):
            outcome.fail("non-positive standard error")
        err = wrap(alpha - item.theta)[1:]
        if np.any(np.abs(err) > SE_MULTIPLE * se):
            worst = float(np.max(np.abs(err) / se))
            outcome.fail(f"a shift is {worst:.1f} standard errors from the truth")
        if not np.array_equal(aligned[:, 0], item.times):
            outcome.fail("aligned.csv: time column differs from the input")
        curves = aligned[:, 1:].T
        misfit = np.sqrt(np.mean((curves - sinc15(item.times)) ** 2, axis=1))
        if np.any(misfit > ALIGNED_RMS_LIMIT * self.sigma):
            outcome.fail(f"aligned.csv: a curve is {misfit.max():.3g} RMS from the pattern")
        if (np.max(np.abs(means[:, 1] - item.samples.mean(axis=0))) > MEAN_TOLERANCE
                or np.max(np.abs(means[:, 2] - curves.mean(axis=0))) > MEAN_TOLERANCE):
            outcome.fail("mean.csv: means disagree with the curves")
        if not np.array_equal(cov, cov.T):
            outcome.fail("covariance.csv is not symmetric")

        if outcome.failed == 0:
            outcome.errors.extend(centred_errors(alpha, item.theta).tolist())
            truth = item.theta[1:]
            outcome.covered += int(np.sum((ci[:, 0] <= truth) & (truth <= ci[:, 1])))
            outcome.intervals += J - 1

    def discard(self, item: EstimateInput) -> None:
        item.path.unlink()


# ---------------------------------------------------------------------------
# curveshift simulate, one study cell per call


@dataclass(frozen=True)
class StudyWorkload:
    """One `simulate` cell of the cosine pattern; an operation is a replicate.

    For cos(2 pi t / T) the only non-zero coefficients are c_{+-1} = 1/2, so
    the asymptotic covariance is sigma^2 * 2 (I + U) for every weight family,
    and each shift's standard error is sqrt(4 sigma^2 / n).
    """

    curves: int
    samples: int
    sigma: float
    replicates: int
    trace_ops: int  # cells per pass of the traced run

    def prepare(self, seed: int, index: int, work: Path) -> int:
        # The program's own seed for this cell, from the benchmark seed.
        return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])

    def execute(self, cli, program_seed: int, out: Path) -> Outcome:
        argv = ["simulate", "--pattern", "cosine", "--curves", str(self.curves),
                "--samples", str(self.samples), "--sigma", repr(self.sigma),
                "--replicates", str(self.replicates), "--seed", str(program_seed),
                "--output-dir", str(out)]
        code, latency = _call(cli, argv)
        outcome = Outcome(ops=self.replicates, latency=latency)
        if code != 0:
            outcome.fail(f"exit code {code}")
        else:
            try:
                self._check(out, outcome)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                outcome.fail(f"unreadable output: {exc}")
        if out.exists():
            outcome.bytes_out = _dir_bytes(out)
        return outcome

    def _check(self, out: Path, outcome: Outcome) -> None:
        J, R = self.curves, self.replicates
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        (cell,) = summary["cells"]
        if cell["replicates"] != R or cell["n_curves"] != J or cell["n_samples"] != self.samples:
            raise ValueError("summary.json: cell does not match the request")
        expected = self.sigma**2 * 2.0 * (np.eye(J - 1) + np.ones((J - 1, J - 1)))
        if not np.allclose(cell["theoretical_covariance"], expected, rtol=1e-6, atol=0):
            outcome.fail("summary.json: theoretical covariance is not sigma^2 2 (I + U)")

        header, rows = _read_table(out / "replicates.csv")
        if header != ["sigma", "weights", "replicate", "curve", "theta_true", "theta_hat",
                      "alpha_true", "alpha_hat", "theta_hat_landmark"]:
            raise ValueError("replicates.csv: unexpected header")
        table = np.array([[r[2], r[3], r[6], r[7]] for r in rows], dtype=float)
        if table.shape != (R * (J - 1), 4):
            raise ValueError("replicates.csv: wrong number of rows")
        table = table.reshape(R, J - 1, 4)
        if not (np.array_equal(table[:, :, 0], np.repeat(np.arange(R)[:, None], J - 1, 1))
                and np.array_equal(table[:, :, 1], np.tile(np.arange(2, J + 1), (R, 1)))):
            raise ValueError("replicates.csv: rows out of order")
        alpha_true = np.column_stack([np.zeros(R), table[:, :, 2]])
        alpha_hat = np.column_stack([np.zeros(R), table[:, :, 3]])
        if np.any(np.abs(alpha_true) > SHIFT_HALF_WIDTH):
            outcome.fail("replicates.csv: a true shift lies outside [-pi/4, pi/4]")

        se = np.sqrt(4.0 * self.sigma**2 / self.samples)
        far = np.any(np.abs(wrap(alpha_hat - alpha_true)) > SE_MULTIPLE * se, axis=1)
        for reason, count in (("did not converge", cell["nonconverged"]),
                              ("failed inference", cell["inference_failures"]),
                              (f"lie beyond {SE_MULTIPLE:g} standard errors", int(far.sum()))):
            if count:
                outcome.fail(f"{count} replicates {reason}", count)

        for r in np.flatnonzero(~far):
            outcome.errors.extend(centred_errors(alpha_hat[r], alpha_true[r]).tolist())
        inferred = R - cell["inference_failures"]
        coverage = [c for c in cell["coverage"] if c is not None]
        outcome.covered += int(round(sum(coverage) * inferred))
        outcome.intervals += len(coverage) * inferred

    def discard(self, item: int) -> None:
        pass


WORKLOADS = {
    # Optimizer-bound: 30 curves, 29 phases, a few hundred CG iterations.
    "estimate-wide": EstimateWorkload(curves=30, samples=401, sigma=1.0, trace_ops=8),
    # I/O-heavy: 4 long curves; CSV parse and write are about half the time.
    # Run by hand only: not in BENCHMARK.json, because its timings spread
    # too close to their bound (see README.md).
    "estimate-tall": EstimateWorkload(curves=4, samples=20001, sigma=1.0, trace_ops=8),
    # Many small problems: the study loop, inference and landmark baseline.
    "study-cosine": StudyWorkload(curves=5, samples=401, sigma=0.5, replicates=10,
                                  trace_ops=3),
}

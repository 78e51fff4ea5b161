"""Command line front end: estimation, simulation studies, baseline comparison.

Subcommands
-----------
estimate          read a curve CSV, estimate shifts, write realigned curves,
                  means, covariance and a JSON report
simulate          run replicated synthetic studies over sigma/weight cells,
                  emitting a JSON summary, per-replicate CSV, criterion-grid
                  plot data (J = 2 cells) and SVG renderings
compare-landmark  estimate shifts with both the contrast minimizer and the
                  landmark baseline, on a CSV file or on synthetic data (the
                  same `run_study` as simulate)

Input CSV: header row; optional first column `t` with equispaced times; the
remaining columns are curves.  Comma separated, UTF-8 (a leading byte-order
mark is skipped), LF or CRLF line endings.  Pattern files use the same format
with exactly one curve column.
Outputs are deterministic byte for byte given the same inputs and seed (SVG
files up to the generator version string).  Exit codes: 2 malformed input,
3 estimation failure, 4 inference failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .criterion import CriterionContext, check_identifiability, grid_profile
from .fourier import CurveSet, WeightScheme, synthesize, transform
from .inference import confidence_intervals
from .landmark import LandmarkConfig, landmark_shifts
from .optimize import NO_LOWER_VALUE, OptimizerConfig, minimize
from .simulate import PATTERNS, SimulationSpec, generate, run_study

SCHEMA_VERSION = 1
SVG_GENERATOR = "curveshift-svg 1"
FIGURE_GRID_POINTS = 629

_EXIT_INPUT, _EXIT_ESTIMATION, _EXIT_INFERENCE = 2, 3, 4


class StageError(Exception):
    def __init__(self, stage: str, message: str, code: int):
        super().__init__(f"{stage}: {message}")
        self.code = code


def _input_error(message: str) -> StageError:
    return StageError("input", message, _EXIT_INPUT)


# ---------------------------------------------------------------------------
# CSV / JSON / SVG writers.  Floats go through repr() so that values survive
# a parse round trip and identical runs produce identical bytes.

def _fmt(value) -> str:
    return repr(float(value))


def _write_lines(path: Path, header: list[str], lines) -> None:
    text = "\n".join([",".join(header), *lines]) + "\n"
    path.write_text(text, encoding="utf-8", newline="\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Rows of already formatted cells."""
    _write_lines(path, header, (",".join(row) for row in rows))


def _write_array_csv(path: Path, header: list[str], values: np.ndarray) -> None:
    """A float matrix, one row per line, each value written as `_fmt` writes it."""
    _write_lines(path, header, (",".join(map(repr, row))
                                for row in np.asarray(values, dtype=float).tolist()))


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8", newline="\n")


def _write_line_svg(path: Path, x, y, title: str, xlabel: str, ylabel: str) -> None:
    width, height, margin = 720, 440, 60
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x0, x1 = float(x.min()), float(x.max())
    y0, y1 = float(y.min()), float(y.max())
    xs = (x - x0) / (x1 - x0 or 1.0) * (width - 2 * margin) + margin
    ys = height - margin - (y - y0) / (y1 - y0 or 1.0) * (height - 2 * margin)
    pts = " ".join(f"{px:.2f},{py:.2f}" for px, py in zip(xs, ys))
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f"<!-- generator: {SVG_GENERATOR} -->",
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width // 2}" y="24" text-anchor="middle" font-family="sans-serif" '
        f'font-size="15">{title}</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 16}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{xlabel}</text>',
        f'<text x="18" y="{height // 2}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="12" transform="rotate(-90 18 {height // 2})">{ylabel}</text>',
        f'<text x="{margin}" y="{height - margin + 16}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11">{x0:.4g}</text>',
        f'<text x="{width - margin}" y="{height - margin + 16}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11">{x1:.4g}</text>',
        f'<text x="{margin - 6}" y="{height - margin}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{y0:.4g}</text>',
        f'<text x="{margin - 6}" y="{margin + 4}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{y1:.4g}</text>',
        f'<polyline points="{pts}" fill="none" stroke="steelblue" stroke-width="1.2"/>',
        "</svg>",
    ]
    path.write_text("\n".join(parts) + "\n", encoding="utf-8", newline="\n")


# ---------------------------------------------------------------------------
# Input parsing.

def _text_lines(path: Path, what: str) -> list[tuple[int, str]]:
    """The non-blank lines of a UTF-8 file (a leading BOM skipped), each with its
    physical line number for error messages; `what` prefixes the path in a read error."""
    try:
        text = path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise _input_error(f"cannot read {what}{path}: {exc}") from exc
    return [(i, ln) for i, ln in enumerate(text.split("\n"), start=1) if ln]


def _read_curves_csv(path: Path):
    """Returns (column_names, times_or_None, samples as n x C); names are stripped, unique."""
    lines = _text_lines(path, "")
    if len(lines) < 2:
        raise _input_error(f"{path}: need a header row and at least one data row")
    header = [name.strip() for name in lines[0][1].split(",")]
    for i, name in enumerate(header):
        if name in header[:i]:
            raise _input_error(f"{path}: duplicate column name {name!r}")
    rows = []
    for i, ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(header):
            raise _input_error(f"{path}: line {i} has {len(cells)} fields, expected {len(header)}")
        try:
            rows.append(list(map(float, cells)))
        except ValueError as exc:
            raise _input_error(f"{path}: line {i}: {exc}") from exc
    data = np.asarray(rows, dtype=float)
    if not np.all(np.isfinite(data)):
        raise _input_error(f"{path}: non-finite values are not allowed")
    times = None
    if header[0] == "t":
        times = data[:, 0]
        data = data[:, 1:]
        header = header[1:]
        if times.size < 2:
            raise _input_error(f"{path}: time column too short")
        steps = np.diff(times)
        if steps[0] <= 0 or not np.allclose(steps, steps[0], rtol=1e-9, atol=0):
            raise _input_error(f"{path}: time column is not equispaced")
    return header, times, data


def _materialize_weights(token: str, max_frequency: int) -> WeightScheme:
    if token == "unit":
        return WeightScheme.unit(max_frequency)
    if token.startswith("power:"):
        try:  # a number, and one that gives finite weights
            return WeightScheme.power(float(token.split(":", 1)[1]), max_frequency)
        except ValueError as exc:
            raise _input_error(f"bad weight exponent in {token!r}") from exc
    if not token.startswith("file:"):
        raise _input_error(f"unknown weight spec {token!r} (use power:<beta>, unit or file:<path>)")
    L = max_frequency
    values = np.zeros(2 * L + 1)  # delta_l at l + L for the file's l = -L..L
    path = Path(token.split(":", 1)[1])
    lines = _text_lines(path, "weight file ")
    start = 1 if lines and lines[0][1].replace(" ", "") == "l,delta" else 0
    seen = set()
    for i, ln in lines[start:]:
        try:
            l_str, d_str = ln.split(",")
            l, d = int(l_str), float(d_str)
        except ValueError as exc:
            raise _input_error(f"{path}: line {i}: expected 'l,delta'") from exc
        if l in seen:
            raise _input_error(f"{path}: line {i}: frequency l = {l} is listed twice")
        seen.add(l)
        if abs(l) > L:
            raise _input_error(f"{path}: line {i}: frequency l = {l} exceeds the data's L = {L}")
        values[l + L] = d
    values[L] = 0.0
    try:
        weights = WeightScheme.custom(values[L:])
    except ValueError as exc:
        raise _input_error(f"{path}: {exc}") from exc
    if not np.allclose(values, values[::-1], rtol=0, atol=1e-12):
        raise _input_error(f"{path}: weights must be symmetric in l")
    return weights


def _load_pattern(token: str):
    """Pattern for a study: a registered name, or file:<csv> with one curve."""
    if token in PATTERNS:
        return token
    if not token.startswith("file:"):
        raise _input_error(f"unknown pattern {token!r} (use sinc15, cosine or file:<path>)")
    path = Path(token.split(":", 1)[1])
    names, _, data = _read_curves_csv(path)
    if len(names) != 1:
        raise _input_error(f"{path}: pattern file must contain exactly one curve column")
    return data[:, 0]


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok != ""]
    except ValueError as exc:
        raise _input_error(f"{flag}: expected comma-separated numbers, got {text!r}") from exc


def _warn(warnings: list[str], message: str) -> None:
    warnings.append(message)
    print(f"warning: {message}", file=sys.stderr)


def _read_input(args):
    """The --input curve file as (column_names, times_or_None, CurveSet), every
    sample kept; the period comes from --period, else the t column (n * dt), else 2 pi.
    """
    names, times, data = _read_curves_csv(Path(args.input))
    n = data.shape[0]
    if args.period is not None:
        period = args.period
    elif times is not None:
        period = float(n * (times[1] - times[0]))
    else:
        period = 2.0 * np.pi
    return names, times, _checked(CurveSet, samples=data.T, period=period)


def _study_cells(args) -> tuple[list[float], list[str]]:
    """The --sigma values and --weights tokens of a study, at least one of each."""
    sigmas = _parse_float_list(args.sigma, "--sigma")
    weight_tokens = [tok for tok in args.weights.split(",") if tok]
    if not sigmas or not weight_tokens:
        raise _input_error("need at least one sigma and one weight spec")
    return sigmas, weight_tokens


def _checked(make, **kwargs):
    """make(**kwargs), with a ValueError reported as malformed input."""
    try:
        return make(**kwargs)
    except ValueError as exc:
        raise _input_error(str(exc)) from exc


def _optimizer_config(args) -> OptimizerConfig:
    return _checked(OptimizerConfig, max_iterations=args.max_iters)


# ---------------------------------------------------------------------------
# estimate

def _fit(args, curves: CurveSet, config: OptimizerConfig, warnings: list[str]):
    """(table, weights, identifiability check, result) of the estimator on
    observed curves, with warnings for flagged weights, a failed
    identifiability check and a run that did not converge."""
    try:
        table = transform(curves)
        weights = _materialize_weights(args.weights, table.max_frequency)
        if weights.fluctuation_warning:
            _warn(warnings, weights.fluctuation_warning)
        ctx = CriterionContext(table, weights)
        ident = check_identifiability(ctx)
        if not ident.ok:
            _warn(warnings, f"identifiability: {ident.message}")
        result = minimize(ctx, config)
        if not result.converged:
            reason = "no lower value" if result.stop == NO_LOWER_VALUE else "iteration cap"
            _warn(warnings, f"optimizer did not converge in {result.iterations} "
                            f"iterations ({reason})")
    except ValueError as exc:
        raise StageError("estimation", str(exc), _EXIT_ESTIMATION) from exc
    return table, weights, ident, result


def cmd_estimate(args) -> int:
    if not 0 < args.confidence < 1:
        raise _input_error("--confidence must lie in (0, 1)")
    config = _optimizer_config(args)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    warnings: list[str] = []
    names, times, curves = _read_input(args)
    table, weights, ident, result = _fit(args, curves, config, warnings)

    try:
        report = confidence_intervals(result, table, weights, args.confidence)
    except ValueError as exc:
        raise StageError("inference", str(exc), _EXIT_INFERENCE) from exc

    J = curves.n_curves
    alpha_full = result.alpha_hat.full()
    theta_full = result.theta_hat

    # Curve 1 is the reference: its shift, error and interval are all zero.
    columns = np.column_stack([theta_full, alpha_full, np.r_[0.0, report.std_errors],
                               np.vstack([[0.0, 0.0], report.intervals_alpha])])
    _write_csv(out_dir / "shifts.csv",
               ["j", "theta_hat", "alpha_hat", "std_error", "ci_lower", "ci_upper"],
               [[str(j + 1)] + [_fmt(v) for v in row] for j, row in enumerate(columns)])

    aligned = synthesize(result.aligned).samples
    unshifted = alpha_full == 0.0  # shifting by exactly zero is the identity
    aligned[unshifted] = curves.samples[unshifted]
    t_col = [] if times is None else [times]
    t_name = [] if times is None else ["t"]
    _write_array_csv(out_dir / "aligned.csv", t_name + names, np.column_stack(t_col + [aligned.T]))
    raw_mean = curves.samples.mean(axis=0)
    _write_array_csv(out_dir / "mean.csv", t_name + ["raw_mean", "aligned_mean"],
                     np.column_stack(t_col + [raw_mean, aligned.mean(axis=0)]))

    # Gamma-hat is scalar (I + U): every row is written from its two distinct values.
    diag, off = _fmt(report.gamma_hat[0, 0]), _fmt(report.gamma_hat[-1, 0])
    _write_lines(out_dir / "covariance.csv", [f"alpha_{j + 2}" for j in range(J - 1)],
                 ((off + ",") * j + diag + ("," + off) * (J - 2 - j) for j in range(J - 1)))

    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "estimate",
        "n_curves": J,
        "n_samples": curves.n_samples,
        "n_samples_input": curves.n_samples,
        "period": float(curves.period),
        "weights": weights.kind,
        "criterion_value": float(result.criterion_value),
        "converged": bool(result.converged),
        "iterations": int(result.iterations),
        "gradient_max": float(result.gradient_max),
        "sigma2_hat": float(report.sigma2_hat),
        "confidence_level": float(report.confidence_level),
        "theta_hat": [float(v) for v in theta_full],
        "alpha_hat": [float(v) for v in alpha_full],
        "std_errors": [float(v) for v in report.std_errors],
        "ci_alpha": report.intervals_alpha.tolist(),
        "ci_theta": report.intervals_theta.tolist(),
        "identifiability_ok": bool(ident.ok),
        "warnings": warnings,
    }
    _write_json(out_dir / "report.json", payload)
    return 0


# ---------------------------------------------------------------------------
# simulate

def _build_spec(args, sigma: float, weight_token: str, n: int) -> SimulationSpec:
    """The study spec of one cell; the spec checks n before the weights are built for it."""
    shifts = None
    if args.shifts:
        shifts = np.asarray(_parse_float_list(args.shifts, "--shifts"))
    pattern = _load_pattern(args.pattern)
    period = args.period if args.period is not None else 2.0 * np.pi
    spec = _checked(SimulationSpec, pattern=pattern, n_curves=args.curves, n_samples=n,
                    sigma=sigma, shifts=shifts, replicates=args.replicates, seed=args.seed,
                    period=period, confidence=args.confidence)
    return replace(spec, weights=_materialize_weights(weight_token, spec.max_frequency))


def cmd_simulate(args) -> int:
    out_dir = Path(args.output_dir)
    (out_dir / "plotdata").mkdir(parents=True, exist_ok=True)
    (out_dir / "figures").mkdir(parents=True, exist_ok=True)
    sigmas, weight_tokens = _study_cells(args)
    n = args.samples
    config = _optimizer_config(args)

    # Every cell's spec is checked before the first study runs.
    specs = [_build_spec(args, sigma, token, n) for sigma in sigmas for token in weight_tokens]

    cells = []
    replicate_rows = []
    for spec in specs:
        sigma = spec.sigma
        try:
            summary = run_study(spec, config)
        except ValueError as exc:
            raise StageError("estimation", str(exc), _EXIT_ESTIMATION) from exc
        label = spec.weights.kind.replace(":", "")
        cells.append({"weight_label": label, **summary.as_dict()})
        for r in range(spec.replicates):
            for j in range(1, spec.n_curves):
                replicate_rows.append([
                    _fmt(sigma), label, str(r), str(j + 1),
                    _fmt(summary.theta_true[r, j]), _fmt(summary.theta_hat[r, j]),
                    _fmt(summary.alpha_true[r, j - 1]), _fmt(summary.alpha_hat[r, j - 1]),
                    _fmt(summary.theta_hat_landmark[r, j]),
                ])
        if spec.n_curves == 2:
            rep = generate(spec, 0)
            ctx = CriterionContext(transform(rep.curves), spec.weights)
            grid = np.linspace(-np.pi, np.pi, FIGURE_GRID_POINTS)
            prof = grid_profile(ctx, grid)
            stem = f"criterion_sigma{sigma:g}_{label}"
            _write_array_csv(out_dir / "plotdata" / f"{stem}.csv",
                             ["alpha", "criterion"], np.column_stack([grid, prof]))
            _write_line_svg(out_dir / "figures" / f"{stem}.svg", grid, prof,
                            f"criterion vs alpha (sigma={sigma:g}, {label})",
                            "alpha", "criterion")

    _write_csv(out_dir / "replicates.csv",
               ["sigma", "weights", "replicate", "curve", "theta_true", "theta_hat",
                "alpha_true", "alpha_hat", "theta_hat_landmark"],
               replicate_rows)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "simulate",
        "pattern": args.pattern,
        "n_curves": int(args.curves),
        "n_samples": int(n),
        "period": float(specs[0].period),
        "seed": int(args.seed),
        "cells": cells,
    }
    _write_json(out_dir / "summary.json", payload)
    return 0


# ---------------------------------------------------------------------------
# compare-landmark

def cmd_compare_landmark(args) -> int:
    # The study options have no default here (`build_parser`), so the input mode sees them.
    given = [f"--{name}" for name in ("pattern", "curves", "samples", "sigma", "replicates",
                                       "seed", "shifts", "confidence") if name in vars(args)]
    if args.input and given:
        raise _input_error(f"compare-landmark with --input does not read {', '.join(given)}")
    # Unset options take the defaults of the command that the mode runs like.
    like = ["estimate", f"--input={args.input}"] if args.input else ["simulate"]
    defaults = build_parser().parse_args(like + [f"--output-dir={args.output_dir}"])
    args = argparse.Namespace(**{**vars(defaults), **vars(args)})
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = _optimizer_config(args)
    landmark_config = _checked(LandmarkConfig, bandwidth=args.bandwidth)

    if args.input:
        _, _, curves = _read_input(args)
        table, _, _, result = _fit(args, curves, config, [])
        lm, ok = landmark_shifts(table, landmark_config)
        rows = [[str(j + 1), _fmt(result.theta_hat[j]), _fmt(lm[j]), str(int(ok[j]))]
                for j in range(curves.n_curves)]
        _write_csv(out_dir / "comparison.csv",
                   ["curve", "theta_hat_estimator", "theta_hat_landmark", "landmark_ok"],
                   rows)
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": "compare-landmark",
            "mode": "data",
            "n_curves": int(curves.n_curves),
            "landmark_failures": int(np.sum(~ok)),
            "rmse_estimator": None,
            "rmse_landmark": None,
        }
        _write_json(out_dir / "report.json", payload)
        return 0

    sigmas, weight_tokens = _study_cells(args)
    if len(sigmas) > 1 or len(weight_tokens) > 1:
        raise _input_error("compare-landmark runs one study: give one --sigma value "
                           "and one --weights spec")
    spec = _build_spec(args, sigmas[0], weight_tokens[0], args.samples)
    try:
        summary = run_study(spec, config, landmark_config)
    except ValueError as exc:
        raise StageError("estimation", str(exc), _EXIT_ESTIMATION) from exc
    rows = [[str(r), str(j + 1), _fmt(summary.theta_true[r, j]), _fmt(summary.theta_hat[r, j]),
             _fmt(summary.theta_hat_landmark[r, j]), str(int(summary.landmark_ok[r, j]))]
            for r, j in np.ndindex(summary.landmark_ok.shape)]
    _write_csv(out_dir / "comparison.csv",
               ["replicate", "curve", "theta_true", "theta_hat_estimator",
                "theta_hat_landmark", "landmark_ok"],
               rows)
    cell = summary.as_dict()
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "compare-landmark",
        "mode": "simulation",
        "n_curves": int(spec.n_curves),
        "replicates": int(spec.replicates),
        "sigma": float(spec.sigma),
        "landmark_failures": int(np.sum(~summary.landmark_ok)),
        "rmse_estimator": cell["rmse_estimator"],
        "rmse_landmark": cell["rmse_landmark"],
    }
    _write_json(out_dir / "report.json", payload)
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output-dir", required=True, help="directory for output files")
    p.add_argument("--period", type=float, default=None,
                   help="period T (default: from the t column, else 2*pi)")
    p.add_argument("--weights", default="power:1.3",
                   help="power:<beta> | unit | file:<path> (simulate: comma list)")
    p.add_argument("--confidence", type=float)
    p.add_argument("--max-iters", type=int, default=500)


def _add_simulation(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pattern", help="sinc15 | cosine | file:<path>")
    p.add_argument("--curves", type=int, help="number of curves J")
    p.add_argument("--samples", type=int, help="samples per curve n")
    p.add_argument("--sigma", help="noise level(s), comma separated")
    p.add_argument("--replicates", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--shifts", help="explicit time-unit shifts, comma separated, first 0")


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="curveshift",
                                     description="shift estimation for periodic curves")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="estimate shifts from a curve CSV")
    p.add_argument("--input", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_estimate, confidence=0.95)

    p = sub.add_parser("simulate", help="replicated synthetic studies")
    _add_common(p)
    _add_simulation(p)
    p.set_defaults(func=cmd_simulate, confidence=0.95, pattern="sinc15", curves=10, samples=101,
                   sigma="1", replicates=200, seed=0)

    # An option that only the simulation mode reads has no default here, so
    # that the input mode can reject it (`cmd_compare_landmark`).
    p = sub.add_parser("compare-landmark", help="contrast minimizer vs landmark baseline",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--input", default=None, help="curve CSV (otherwise simulate)")
    p.add_argument("--bandwidth", type=float, default=None,
                   help="landmark smoothing bandwidth (time units)")
    _add_common(p)
    _add_simulation(p)
    p.set_defaults(func=cmd_compare_landmark)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

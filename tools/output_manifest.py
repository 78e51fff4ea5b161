"""Print the SHA-256 of every file that a fixed set of CLI runs writes.

Run it from a checkout with that checkout's package on the path:

    PYTHONPATH=src python tools/output_manifest.py > manifest.txt

Run the same copy of this file in two checkouts and diff the two outputs to
see whether a change keeps every output byte.  The commands run in process,
through `curveshift.cli.main`, inside a temporary directory, and name every
file by a relative path, so the output depends on neither location.  The
inputs are drawn with numpy's `default_rng`, not with curveshift.

The output is one `sha256  path` line per written file, sorted by path, then
one line per command with its exit code, the SHA-256 of its standard error
and its arguments, then one line per command with the Newton engine's work,
summed over every run of `optimize._descend`: points rephased, Newton and
-g directions, rejected line-search trials, and the runs that stopped at the
gradient tolerance, with no lower value and at the iteration cap.  The last
commands give a truth near T/2, non-finite shifts, malformed or missing
files, a non-finite or zero bandwidth, gradient tolerance or period, and an
all-zero weight file, so their exit codes and stderr hashes cover the error
paths.  The work
counts are deterministic, so two commits can be compared on work without
timing noise.  The hashes depend on numpy's floating-point loops, which
differ between CPUs, so compare two commits on one machine; no test runs
this script.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import tempfile
from pathlib import Path

import numpy as np

from curveshift import optimize
from curveshift.cli import main

T = 2.0 * np.pi
WEIGHTS = ("power:1.3", "unit", "power:2")
COUNTS = ("rephased", "newton", "steepest", "rejected")
STOPS = {optimize.TOLERANCE: "tolerance", optimize.NO_LOWER_VALUE: "no-lower-value",
         optimize.ITERATION_CAP: "iteration-cap"}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_csv(path: str, header: list[str], columns: np.ndarray) -> None:
    rows = (",".join(map(repr, row)) for row in columns.tolist())
    Path(path).write_text("\n".join([",".join(header), *rows]) + "\n", encoding="utf-8")


def sinc15_input(path: str, seed: list[int], curves: int, samples: int) -> None:
    """sinc15 curves shifted by up to pi/4, plus unit white noise, with a t column."""
    rng = np.random.default_rng(seed)
    theta = np.concatenate(([0.0], rng.uniform(-np.pi / 4, np.pi / 4, curves - 1)))
    t = np.arange(samples) * (T / samples)
    u = np.mod(t[None, :] - theta[:, None] + np.pi, T) - np.pi
    y = 15.0 * np.sinc(4.0 * u / np.pi) + rng.standard_normal((curves, samples))
    write_csv(path, ["t"] + [f"y{j + 1}" for j in range(curves)], np.column_stack([t, y.T]))


def pattern_input(path: str, samples: int) -> None:
    """One curve: a random trigonometric polynomial of degree 6."""
    rng = np.random.default_rng(2)
    t = np.arange(samples) * (T / samples)
    ls = np.arange(1, 7)
    a, b = rng.standard_normal((2, ls.size)) / ls
    y = np.cos(np.outer(t, ls)) @ a + np.sin(np.outer(t, ls)) @ b
    write_csv(path, ["f"], y[:, None])


def commands() -> list[list[str]]:
    """Every command, each with its own output directory; writes their inputs."""
    runs = []
    for i in range(8):  # cells of the benchmark's study-cosine workload
        seed = int(np.random.SeedSequence([1, i]).generate_state(1)[0])
        runs.append(["simulate", "--pattern", "cosine", "--curves", "5", "--samples", "401",
                     "--sigma", "0.5", "--replicates", "10", "--seed", str(seed)])
    runs.append(["simulate", "--curves", "2", "--samples", "101",
                 "--shifts", "0,1.0471975511965976", "--sigma", "1,3,5,7",
                 "--weights", "unit,power:1.3,power:2", "--replicates", "100", "--seed", "7"])
    runs.append(["compare-landmark", "--curves", "10", "--samples", "101", "--sigma", "1",
                 "--replicates", "200", "--seed", "3"])
    runs.append(["simulate", "--pattern", "sinc15", "--curves", "70", "--samples", "101",
                 "--weights", "power:1.3,unit", "--replicates", "4", "--seed", "5"])
    pattern_input("pattern.csv", 101)
    runs.append(["simulate", "--pattern", "file:pattern.csv", "--curves", "6",
                 "--samples", "101", "--sigma", "0.5", "--replicates", "20", "--seed", "11"])
    inputs = [("wide", i, 30, 401) for i in range(9)] + [("tall", i, 4, 20001) for i in range(3)]
    for name, i, curves, samples in inputs:
        path = f"{name}-{i}.csv"
        sinc15_input(path, [3, curves, i], curves, samples)
        for weights in WEIGHTS:
            for command in ("estimate", "compare-landmark"):
                runs.append([command, "--input", path, "--weights", weights])
    runs.append(["simulate", "--curves", "2", "--samples", "101", "--shifts", "0,3.12",
                 "--sigma", "2", "--replicates", "200", "--seed", "3"])
    runs.append(["simulate", "--shifts", "0,nan", "--curves", "2", "--replicates", "2"])
    runs.append(["compare-landmark", "--shifts", "0,inf", "--curves", "2", "--replicates", "2"])
    Path("bad-cell.csv").write_text("t,y1,y2\n0,1,2\n\n\n1,x,3\n", encoding="utf-8")
    runs.append(["estimate", "--input", "bad-cell.csv"])
    Path("twice.csv").write_text("l,delta\n1,1.0\n-1,1.0\n1,0.5\n", encoding="utf-8")
    runs.append(["estimate", "--input", "wide-0.csv", "--weights", "file:twice.csv"])
    runs.append(["estimate", "--input", "missing.csv"])
    runs.append(["simulate", "--pattern", "file:missing.csv", "--replicates", "2"])
    runs.append(["estimate", "--input", "wide-0.csv", "--weights", "file:missing.csv"])
    runs.append(["compare-landmark", "--bandwidth", "inf"])
    runs.append(["compare-landmark", "--bandwidth", "0"])
    runs.append(["simulate", "--grad-tol", "inf"])
    runs.append(["estimate", "--input", "wide-0.csv", "--period", "inf"])
    Path("zero.csv").write_text("l,delta\n1,0.0\n-1,0.0\n", encoding="utf-8")
    runs.append(["simulate", "--weights", "file:zero.csv"])
    return runs


def run() -> list[str]:
    lines, files, work_lines = [], [], []
    descend, work = optimize._descend, {}

    def counted(*args):  # `optimize._descend`, adding each call's work to `work`
        runs = descend(*args)
        for name in COUNTS:
            work[name] += int(getattr(runs, name).sum())
        for stop, name in STOPS.items():
            work[name] += int(np.sum(runs.stop == stop))
        return runs

    optimize._descend = counted
    for k, argv in enumerate(commands()):
        work.update(dict.fromkeys([*COUNTS, *STOPS.values()], 0))
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(argv + ["--output-dir", f"out-{k:03d}"])
        lines.append(f"exit {code}  stderr {sha256(stderr.getvalue().encode())}  "
                     f"out-{k:03d}  {' '.join(argv)}")
        work_lines.append("work  " + "  ".join(f"{name} {n}" for name, n in work.items())
                          + f"  out-{k:03d}")
    for path in sorted(Path(".").rglob("out-*/**/*")):
        if path.is_file():
            files.append(f"{sha256(path.read_bytes())}  {path.as_posix()}")
    return files + lines + work_lines


if __name__ == "__main__":
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            output = run()
        finally:
            os.chdir(home)
    print("\n".join(output))

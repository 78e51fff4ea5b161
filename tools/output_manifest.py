"""Record what a fixed set of CLI runs writes: file hashes, or every number.

Run it from a checkout with that checkout's package on the path:

    PYTHONPATH=src python tools/output_manifest.py > manifest.txt
    PYTHONPATH=src python tools/output_manifest.py --numbers > numbers.tsv
    python tools/output_manifest.py --compare parent.tsv change.tsv

Run the same copy of this file in two checkouts and compare the two outputs:
`diff` for the hashes, `--compare` for the numbers.  The commands run in
process, through `curveshift.cli.main`, inside a temporary directory, and
name every file by a relative path, so the output depends on neither
location.  The inputs are drawn with numpy's `default_rng`, not with
curveshift.

The default output is one `sha256  path` line per written file, sorted by
path, then one line per command with its exit code, the SHA-256 of its
standard error and its arguments, then one line per command with the Newton
engine's work, summed over every run of `optimize._descend`: points
rephased, Newton and -g directions, rejected line-search trials, and the runs
that stopped converged (`tolerance`), with no lower value and at the
iteration cap.  Near the end, commands give a truth near T/2, non-finite
shifts, malformed or missing files, a non-finite or zero bandwidth, a
non-finite period, a zero iteration cap and an all-zero weight file, so their
exit codes and stderr hashes cover the error paths.  The last commands read
an even n as it is: `estimate` and `compare-landmark` on a 30-curve file of
400 samples under each weight scheme, `simulate --samples 100`, and a
pattern-file study at n = 100.  Versions of curveshift that refused even n
exit 2 on these.  Three error paths close the list: a weight file that lists
l = 1 and 2 but not -1 and -2, `estimate` on a curve file of two rows, and
`simulate --samples -3` with a pattern file.  The work counts are
deterministic, so two commits can be compared on work without timing noise.

`--numbers` writes one tab-separated line per value instead, grouped by
command directory and file and sorted by group: per command its exit code
and arguments, its standard error text and its work line, then every value
of every CSV and JSON file it wrote, keyed by data row and column (CSV) or
by key path (JSON).  Numbers are written with `repr`; other values (labels,
booleans, null, warning text) as JSON strings.  SVG files are left out.

`--compare A B` reads two `--numbers` outputs and prints, per file, the
count of numbers and the largest absolute and relative difference, where
the relative difference divides by max(|a|, 1), so that values below 1 are
compared absolutely.  Then it lists every non-numeric difference: an exit
code, a standard error text, a work line, a text value, a value that is a
number on one side only (NaN included) and a file or key on one side only.
It exits 1 when there is such a difference or when a relative difference
exceeds TOLERANCE (1e-12), else 0.

The outputs depend on numpy's floating-point loops, which differ between
CPUs, so compare two commits on one machine.  `tests/test_output_manifest.py`
runs `--compare` on small hand-made files; no test runs the commands.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

T = 2.0 * np.pi
WEIGHTS = ("power:1.3", "unit", "power:2")
COUNTS = ("rephased", "newton", "steepest", "rejected")
STOPS = ("tolerance", "no-lower-value", "iteration-cap")  # `optimize`'s stop codes 1, 2, 3
TOLERANCE = 1e-12  # largest relative difference `--compare` accepts


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
    runs.append(["simulate", "--max-iters", "0"])
    runs.append(["estimate", "--input", "wide-0.csv", "--period", "inf"])
    Path("zero.csv").write_text("l,delta\n1,0.0\n-1,0.0\n", encoding="utf-8")
    runs.append(["simulate", "--weights", "file:zero.csv"])
    runs.append(["estimate", "--input", "wide-0.csv", "--weights", "unit", "--max-iters", "0"])
    sinc15_input("even-0.csv", [4, 30, 0], 30, 400)
    for weights in WEIGHTS:
        for command in ("estimate", "compare-landmark"):
            runs.append([command, "--input", "even-0.csv", "--weights", weights])
    runs.append(["simulate", "--samples", "100"])
    pattern_input("pattern-100.csv", 100)
    runs.append(["simulate", "--pattern", "file:pattern-100.csv", "--curves", "6",
                 "--samples", "100", "--sigma", "0.5", "--replicates", "20", "--seed", "11"])
    Path("one-sided.csv").write_text("l,delta\n1,1.0\n2,1.0\n", encoding="utf-8")
    runs.append(["estimate", "--input", "wide-0.csv", "--weights", "file:one-sided.csv"])
    Path("two-rows.csv").write_text("t,y1,y2\n0,1,2\n1,3,4\n", encoding="utf-8")
    runs.append(["estimate", "--input", "two-rows.csv"])
    runs.append(["simulate", "--samples", "-3", "--pattern", "file:pattern.csv"])
    return runs


def execute() -> list[tuple[str, list[str], int, str, str]]:
    """Run every command: (output directory, argv, exit code, stderr text, work line)."""
    from curveshift import optimize  # here, so that --compare runs without the package
    from curveshift.cli import main

    stops = dict(zip((optimize.TOLERANCE, optimize.NO_LOWER_VALUE, optimize.ITERATION_CAP),
                     STOPS))
    results = []
    descend, work = optimize._descend, {}

    def counted(*args):  # `optimize._descend`, adding each call's work to `work`
        runs = descend(*args)
        for name in COUNTS:
            work[name] += int(getattr(runs, name).sum())
        for stop, name in stops.items():
            work[name] += int(np.sum(runs.stop == stop))
        return runs

    optimize._descend = counted
    try:
        for k, argv in enumerate(commands()):
            work.update(dict.fromkeys([*COUNTS, *STOPS], 0))
            stderr = io.StringIO()
            out = f"out-{k:03d}"
            with contextlib.redirect_stderr(stderr):
                code = main(argv + ["--output-dir", out])
            counts = "  ".join(f"{name} {n}" for name, n in work.items())
            results.append((out, argv, code, stderr.getvalue(), counts))
    finally:
        optimize._descend = descend
    return results


def run() -> list[str]:
    results = execute()
    files = [f"{sha256(path.read_bytes())}  {path.as_posix()}"
             for path in sorted(Path(".").rglob("out-*/**/*")) if path.is_file()]
    lines = [f"exit {code}  stderr {sha256(err.encode())}  {out}  {' '.join(argv)}"
             for out, argv, code, err, _ in results]
    work_lines = [f"work  {counts}  {out}" for out, _, _, _, counts in results]
    return files + lines + work_lines


# ---------------------------------------------------------------------------
# --numbers: every value of every CSV and JSON output, one line each

def cell(value) -> tuple[str, str]:
    """("number", repr) for a number, else ("text", JSON string)."""
    if isinstance(value, str):
        try:
            return "number", repr(float(value))
        except ValueError:
            return "text", json.dumps(value)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return "number", repr(float(value))
    return "text", json.dumps(value)


def json_values(node, key=""):
    """(key path, value) of every leaf of a JSON document, keys joined by '.'."""
    if isinstance(node, dict):
        for name in sorted(node):
            yield from json_values(node[name], f"{key}.{name}" if key else name)
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from json_values(item, f"{key}.{i}" if key else str(i))
    else:
        yield key, node


def file_values(path: Path):
    """(key, value) of every value of a CSV or JSON file; CSV keys are row:column."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        yield from json_values(json.loads(text))
        return
    header, *rows = text.splitlines()
    columns = header.split(",")
    for i, row in enumerate(rows, start=1):
        for column, value in zip(columns, row.split(",")):
            yield f"{i}:{column}", value


def numbers():
    """The --numbers lines, one group per command directory and then per file, in
    string order of the group names."""
    for out, argv, code, err, counts in execute():
        yield from (f"{out}\texit\ttext\t{code}", f"{out}\targv\ttext\t{json.dumps(argv)}",
                    f"{out}\tstderr\ttext\t{json.dumps(err)}",
                    f"{out}\twork\ttext\t{json.dumps(counts)}")
        for name in sorted(p.as_posix() for p in Path(out).rglob("*") if p.is_file()):
            if name.endswith((".csv", ".json")):
                for key, value in file_values(Path(name)):
                    kind, text = cell(value)
                    yield f"{name}\t{key}\t{kind}\t{text}"


# ---------------------------------------------------------------------------
# --compare A B

def groups(path: str):
    """(group, {key: (kind, text)}) per command directory or file, in file order."""
    with open(path, encoding="utf-8") as handle:
        parsed = (line.rstrip("\n").split("\t", 3) for line in handle)
        for group, rows in itertools.groupby(parsed, key=lambda row: row[0]):
            yield group, {key: (kind, text) for _, key, kind, text in rows}


def compare_group(a: dict, b: dict):
    """(numbers compared, max absolute and max relative difference, the key of the
    latter, non-numeric differences)."""
    count, max_abs, max_rel, worst, diffs = 0, 0.0, 0.0, "", []
    for key in a.keys() | b.keys():
        if key not in a or key not in b:
            diffs.append(f"{key}: only in {'A' if key in a else 'B'}")
            continue
        (kind_a, text_a), (kind_b, text_b) = a[key], b[key]
        if kind_a == kind_b == "number":
            x, y = float(text_a), float(text_b)
            if math.isfinite(x) and math.isfinite(y):
                count += 1
                max_abs = max(max_abs, abs(x - y))
                if abs(x - y) / max(abs(x), 1.0) > max_rel:
                    max_rel, worst = abs(x - y) / max(abs(x), 1.0), key
                continue
            if x == y or (math.isnan(x) and math.isnan(y)):
                continue
        if (kind_a, text_a) != (kind_b, text_b):
            diffs.append(f"{key}: {text_a} | {text_b}")
    return count, max_abs, max_rel, worst, sorted(diffs)


def compare(path_a: str, path_b: str) -> int:
    side_a, side_b = groups(path_a), groups(path_b)
    a, b = next(side_a, None), next(side_b, None)
    differences = beyond = files = total = 0
    print(f"{'file':40s} {'numbers':>8s} {'max_abs':>10s} {'max_rel':>10s}  at")
    while a or b:
        if b is None or (a is not None and a[0] < b[0]):
            print(f"DIFF {a[0]}: only in A")
            differences += 1
            a = next(side_a, None)
            continue
        if a is None or b[0] < a[0]:
            print(f"DIFF {b[0]}: only in B")
            differences += 1
            b = next(side_b, None)
            continue
        count, max_abs, max_rel, worst, diffs = compare_group(a[1], b[1])
        if count:
            files += 1
            total += count
            flag = "  BEYOND TOLERANCE" if max_rel > TOLERANCE else ""
            beyond += bool(flag)
            print(f"{a[0]:40s} {count:8d} {max_abs:10.3g} {max_rel:10.3g}  {worst}{flag}")
        for diff in diffs:
            print(f"DIFF {a[0]} {diff}")
        differences += len(diffs)
        a, b = next(side_a, None), next(side_b, None)
    print(f"summary: {total} numbers in {files} files; {beyond} files beyond relative "
          f"tolerance {TOLERANCE:g}; {differences} non-numeric differences")
    return int(bool(beyond or differences))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--numbers", action="store_true", help="write every number, not hashes")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"),
                      help="compare two --numbers outputs")
    return p.parse_args(argv)


if __name__ == "__main__":
    args = parse_args()
    if args.compare:
        sys.exit(compare(*args.compare))
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for line in numbers() if args.numbers else run():
                print(line)
        finally:
            os.chdir(home)

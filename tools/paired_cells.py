"""Time one benchmark workload on two checkouts in one process, round by round.

Run it from any directory:

    python tools/paired_cells.py PARENT CHANGE --workload study-cosine --cells 8 --rounds 10

PARENT and CHANGE are source checkouts.  Each one's `src/curveshift` is
imported under its own package name, so both run in this process on the same
inputs.  The inputs come from `benchmarks/workloads.py` of the checkout that
holds this file: round r uses the workload's operation indices r * N .. r * N +
N - 1 for `--seed`.  Every round runs its N calls through each side's
`cli.main`, the parent first in odd rounds and the change first in even ones,
and sums the time of the calls (the workload's `Outcome.latency`).  It prints
one line per round with both sums and their ratio change / parent, then the
median ratio and the number of rounds in which the change was faster.  Before
the first round each side runs one call that is not timed, so that lazy
imports and caches are warm.

Every output is checked as the benchmark checks it.  The exit code is 1 when
an operation failed on either side, else 0.  BLAS runs on one thread, as in
`benchmarks/run.py`.
"""

from __future__ import annotations

import os

# One thread, as the benchmark runs; this must precede the first numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

WORKLOADS_FILE = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"


def load_module(name: str, path: Path, package_dir: Path | None = None):
    """Import `path` as module `name`; with `package_dir`, as a package from that directory."""
    search = None if package_dir is None else [str(package_dir)]
    spec = importlib.util.spec_from_file_location(name, path,
                                                  submodule_search_locations=search)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_cli(checkout: str, name: str):
    """`curveshift.cli` of a checkout, imported as `<name>.cli`."""
    package = Path(checkout).resolve() / "src" / "curveshift"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {checkout} has no src/curveshift package")
    load_module(name, package / "__init__.py", package)
    return importlib.import_module(f"{name}.cli")


def run_calls(workload, cli, items, work: Path, label: str) -> tuple[float, int]:
    """(summed latency, failed operations) of one side's calls on `items`."""
    seconds, failed = 0.0, 0
    for i, item in enumerate(items):
        out = work / f"{label}-{i}"
        outcome = workload.execute(cli, item, out)
        shutil.rmtree(out, ignore_errors=True)
        for problem in outcome.problems:
            print(f"{label} call {i} failed: {problem}", file=sys.stderr)
        seconds += outcome.latency
        failed += outcome.failed
    return seconds, failed


def main(argv=None) -> int:
    workloads = load_module("benchmark_workloads", WORKLOADS_FILE).WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--cells", type=int, default=8, help="calls per side and round")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.cells < 1 or args.rounds < 1:
        parser.error("--cells and --rounds must be positive")
    workload = workloads[args.workload]
    sides = {"parent": load_cli(args.parent, "curveshift_parent"),
             "change": load_cli(args.change, "curveshift_change")}
    ratios, failed = [], 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        warm = workload.prepare(args.seed, args.rounds * args.cells, work)
        for label, cli in sides.items():
            failed += run_calls(workload, cli, [warm], work, label)[1]
        workload.discard(warm)
        for r in range(args.rounds):
            items = [workload.prepare(args.seed, r * args.cells + i, work)
                     for i in range(args.cells)]
            order = ["parent", "change"] if r % 2 == 0 else ["change", "parent"]
            seconds = {}
            for label in order:
                seconds[label], lost = run_calls(workload, sides[label], items, work, label)
                failed += lost
            for item in items:
                workload.discard(item)
            ratios.append(seconds["change"] / seconds["parent"])
            print(f"round {r + 1} ({order[0]} first): parent {seconds['parent'] * 1e3:.2f} ms, "
                  f"change {seconds['change'] * 1e3:.2f} ms, ratio {ratios[-1]:.4f}", flush=True)
    wins = sum(ratio < 1.0 for ratio in ratios)
    print(f"median ratio {statistics.median(ratios):.4f}; change faster in {wins} of "
          f"{len(ratios)} rounds; {failed} failed operations")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

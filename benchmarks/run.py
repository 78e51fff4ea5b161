"""curveshift benchmark: one workload per run, end to end or traced per layer.

Run from the root of a source checkout:

    python3 benchmarks/run.py --workload estimate-wide --seed 1 --seconds 56 --trace 0

`--trace 0` measures the end-to-end metrics: the median set-up time of a
fresh interpreter importing `curveshift.cli`, then a closed loop of
operations for `--seconds` seconds with every output checked.  `--trace 1`
runs each of a fixed number of operations three times in a row (traced,
untraced, traced), reports per-layer metrics from the traced passes and
fails unless both traced passes counted exactly the same work.  Human-readable lines and an
environment line come first; the last line of standard output is the JSON
result.  The full record, and in traced runs every span, is written under
`.benchwork/` in the checkout.  Metric names and units are those declared
in BENCHMARK.json.
"""

from __future__ import annotations

import os

# One client, one thread: keep BLAS from starting worker threads.  This must
# precede the first numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".benchwork"
SETUP_LAUNCHES = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_package():
    """The checkout's own curveshift, never an installed copy."""
    if not (SRC / "curveshift" / "__init__.py").is_file():
        sys.exit(f"error: no curveshift sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import curveshift.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "curveshift":
        sys.exit(f"error: imported curveshift from {cli.__file__}, not {SRC}")
    return cli


def declared_metrics() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# ---------------------------------------------------------------------------
# environment


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "platform": platform.platform(),
        },
        "software": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": blas,
            "blas_threads": {v: os.environ.get(v) for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        },
        "run": {
            "git_commit": _git_commit(),
            "source_sha256": _source_digest(),
            "seed": seed,
        },
    }


# ---------------------------------------------------------------------------
# measurement


def measure_setup() -> list[float]:
    """Wall times of fresh interpreters importing curveshift.cli.

    This process has imported it already, so bytecode caches are written and
    the libraries are in the page cache, as on any call after the first.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import curveshift.cli"]
    times = []
    for _ in range(SETUP_LAUNCHES):
        t0 = perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True, timeout=120)
        times.append(perf_counter() - t0)
    return times


def run_op(workload, cli, item, work: Path, index: int):
    out = work / f"out-{index}"
    outcome = workload.execute(cli, item, out)
    shutil.rmtree(out, ignore_errors=True)
    for problem in outcome.problems:
        print(f"operation {index} failed: {problem}", file=sys.stderr)
    return outcome


def closed_loop(workload, cli, seed: int, seconds: float, work: Path) -> list:
    outcomes = []
    deadline = perf_counter() + seconds
    index = 0
    while not outcomes or perf_counter() < deadline:
        item = workload.prepare(seed, index, work)
        outcomes.append(run_op(workload, cli, item, work, index))
        workload.discard(item)
        index += 1
    return outcomes


def end_to_end(workload, cli, seed: int, seconds: float, work: Path):
    setup = measure_setup()
    outcomes = closed_loop(workload, cli, seed, seconds, work)
    ops = sum(o.ops for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    errors = [e for o in outcomes for e in o.errors]
    intervals = sum(o.intervals for o in outcomes)
    latencies = [o.latency for o in outcomes]
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": ops / sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "ok_share": (ops - failed) / ops,
        "rmse_rad": math.sqrt(statistics.fmean(e * e for e in errors)) if errors else None,
        "ci_coverage": sum(o.covered for o in outcomes) / intervals if intervals else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"calls": len(outcomes), "ops": ops, "failed": failed,
              "phase_errors": len(errors), "intervals": intervals,
              "setup_launches_s": setup, "latencies_s": latencies}
    return ops, failed, metrics, detail


PASSES = ("traced-1", "untraced", "traced-2")


def traced(workload, cli, seed: int, work: Path, meta: dict):
    """Each operation three times in a row: traced, untraced, traced.

    Interleaving the passes operation by operation keeps a slow spell of the
    machine from landing on one pass only, which would swamp the overhead.
    """
    from tracing import Tracer

    tracers = {"traced-1": Tracer(), "traced-2": Tracer()}
    outcomes = {label: [] for label in PASSES}
    for i in range(workload.trace_ops):
        item = workload.prepare(seed, i, work)
        for label in PASSES:
            tracer = tracers.get(label)
            if tracer:
                tracer.install()
            try:
                outcomes[label].append(run_op(workload, cli, item, work, i))
            finally:
                if tracer:
                    tracer.uninstall()
        workload.discard(item)

    counts = {label: tracers[label].counters(sum(o.bytes_in for o in outcomes[label]),
                                             sum(o.bytes_out for o in outcomes[label]))
              for label in tracers}
    repeat = counts["traced-1"] == counts["traced-2"]
    if not repeat:
        diff = {k: (v, counts["traced-2"].get(k)) for k, v in counts["traced-1"].items()
                if counts["traced-2"].get(k) != v}
        print(f"error: work counters differ between traced passes: {diff}", file=sys.stderr)

    wall = {label: sum(o.latency for o in outcomes[label]) for label in PASSES}
    layer = [layer_metrics(tracers[label], counts[label]) for label in tracers]
    # Counts are the same in both passes (checked above); times are averaged.
    metrics = {k: v if isinstance(v, int) else 0.5 * (v + layer[1][k])
               for k, v in layer[0].items()}
    metrics["trace.overhead_s"] = 0.5 * (wall["traced-1"] + wall["traced-2"]) - wall["untraced"]

    ops = sum(o.ops for label in PASSES for o in outcomes[label])
    failed = sum(o.failed for label in PASSES for o in outcomes[label])
    spans = WORK / "traces" / f"{meta['workload']}-seed{seed}.json"
    spans.parent.mkdir(parents=True, exist_ok=True)
    spans.write_text(json.dumps({**meta, "passes": {label: tracer.spans()
                                                    for label, tracer in tracers.items()}}),
                     encoding="utf-8")
    detail = {"passes_wall_s": wall, "counters": counts["traced-1"],
              "counters_repeat": repeat, "ops_per_pass": workload.trace_ops,
              "layers": layer_table(tracers.values())}
    return ops, failed, metrics, detail


def layer_table(tracers) -> dict:
    """Calls per pass, and total and self seconds per pass averaged over the
    passes, of every traced function, called or not."""
    from tracing import TARGETS

    sums = [tracer.totals() for tracer in tracers]
    return {name: {"calls": sums[0][2][name],
                   "s": statistics.fmean(total[name] for total, _, _ in sums),
                   "self_s": statistics.fmean(own[name] for _, own, _ in sums)}
            for name in TARGETS}


def layer_metrics(tracer, counters: dict) -> dict:
    # A time is declared only for layers that every workload calls: a layer
    # a workload never calls would report 0 s on every run.  The others are
    # declared by their counts and appear with their times in `layer_table`.
    total, own, _ = tracer.totals()
    iterations = tracer.iterations
    m = {
        "optimize.minimize.s": total["optimize.minimize"],
        "optimize.minimize.self_s": own["optimize.minimize"],
        "optimize.iterations": counters["optimize.iterations"],
        "optimize.iterations_p50": statistics.median(iterations) if iterations else 0,
        "optimize.converged_share": counters["optimize.converged"] / len(iterations)
        if iterations else 0.0,
        "optimize.starts": counters["optimize.starts"],
        "criterion.context.s": total["criterion.context"],
        "cli.main.s": total["cli.main"],
        "cli.self_s": own["cli.main"],
        "cli.bytes_in": counters["cli.bytes_in"],
        "cli.bytes_out": counters["cli.bytes_out"],
        "fourier.rephase.s": total["fourier.rephase"],
        "landmark.failures": counters["landmark.align_by_max.errors"],
        "trace.spans": counters["trace.spans"],
    }
    for name in ("criterion.evaluate", "criterion.gradient", "fourier.transform",
                 "inference.confidence_intervals"):
        m[f"{name}.s"] = total[name]
    for name in ("optimize.minimize", "criterion.evaluate", "criterion.gradient",
                 "criterion.hessian", "criterion.check_identifiability", "fourier.transform",
                 "fourier.synthesize", "inference.confidence_intervals",
                 "landmark.align_by_max", "simulate.generate", "simulate.run_study"):
        m[f"{name}.calls"] = counters[f"{name}.calls"]
    return m


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    e2e_units, layer_units = declared_metrics()
    env = environment(args.seed)
    meta = {"workload": args.workload, "seed": args.seed, "trace": args.trace}

    work = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            ops, failed, metrics, detail = traced(workload, cli, args.seed, work, meta)
            units = layer_units
        else:
            ops, failed, metrics, detail = end_to_end(workload, cli, args.seed, args.seconds,
                                                      work)
            units = e2e_units
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if set(metrics) != set(units):
        sys.exit(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match "
                 "BENCHMARK.json")
    result = {
        "correct": (failed == 0 and detail.get("counters_repeat", True)
                    and all(v is not None for v in metrics.values())),
        "attempted": ops,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"operations {ops}  failed {failed}")
    for name, unit in units.items():
        print(f"  {name:36s} {metrics[name]!r} {unit}")
    for name, row in detail.get("layers", {}).items():
        print(f"  layer {name:32s} calls {row['calls']:6d}  {row['s']:.6f} s  "
              f"self {row['self_s']:.6f} s")
    print("detail " + json.dumps({k: v for k, v in detail.items()
                                  if k not in ("latencies_s", "layers")}))
    print("environment " + json.dumps(env))
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    record = dict(result, **meta, detail=detail, environment=env)
    (WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

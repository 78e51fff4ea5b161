"""Per-layer spans for the traced benchmark run, recorded from outside the package.

`Tracer.install` replaces each traced public function by a timing wrapper at
every name a `curveshift` module bound it to (for example
`curveshift.optimize.evaluate` and `curveshift.criterion.evaluate` are the
same object, so both names get the same wrapper); `uninstall` puts the
originals back.  The package itself is not modified on disk and has no
tracing code of its own.

A span is (name, start, end, parent).  Spans stay in memory and are written
once, from `spans`, when the run ends.  A layer's self time is the duration of
its spans minus the part covered by their direct children; calls are single
threaded and nested, so that part is the sum of the children's durations.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Span name -> (module, attribute path).  A dotted attribute path names a
# method; it is replaced on its class only.
TARGETS = {
    "cli.main": ("curveshift.cli", "main"),
    "fourier.transform": ("curveshift.fourier", "transform"),
    "fourier.synthesize": ("curveshift.fourier", "synthesize"),
    "fourier.rephase": ("curveshift.fourier", "rephase"),
    "criterion.context": ("curveshift.criterion", "CriterionContext.__post_init__"),
    "criterion.evaluate": ("curveshift.criterion", "evaluate"),
    "criterion.gradient": ("curveshift.criterion", "gradient"),
    "criterion.hessian": ("curveshift.criterion", "hessian"),
    "criterion.check_identifiability": ("curveshift.criterion", "check_identifiability"),
    "optimize.initialize": ("curveshift.optimize", "initialize"),
    "optimize.minimize": ("curveshift.optimize", "minimize"),
    "inference.confidence_intervals": ("curveshift.inference", "confidence_intervals"),
    "landmark.align_by_max": ("curveshift.landmark", "align_by_max"),
    "simulate.generate": ("curveshift.simulate", "generate"),
    "simulate.theoretical_gamma": ("curveshift.simulate", "theoretical_gamma"),
    "simulate.run_study": ("curveshift.simulate", "run_study"),
}


class Tracer:
    """Span recorder plus the result counters read off traced calls."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.errors: Counter = Counter()
        self.iterations: list[int] = []  # winning run of each minimize call
        self.converged = 0
        self.starts_offered = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        packages = [m for k, m in sys.modules.items()
                    if k == "curveshift" or k.startswith("curveshift.")]
        for name, (module_name, attr) in TARGETS.items():
            module = sys.modules.get(module_name)
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, leaf, None)
            if original is None:  # layer function removed or renamed
                continue
            wrapper = self._wrap(name, original)
            if owner_name:
                self._rebind(owner, leaf, wrapper)
                continue
            for mod in packages:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _rebind(self, owner, key: str, wrapper) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, name: str, fn):
        on_result = {
            "optimize.minimize": self._on_minimize,
            "optimize.initialize": self._on_initialize,
        }.get(name)
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[name] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[index] = t0
                ends[index] = t1
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _on_minimize(self, result) -> None:
        self.iterations.append(int(result.iterations))
        self.converged += bool(result.converged)

    def _on_initialize(self, starts) -> None:
        self.starts_offered += len(starts)

    # -- aggregation ---------------------------------------------------------

    def totals(self) -> tuple[dict, dict, Counter]:
        """Per span name: total seconds, self seconds and call count."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        total, own = defaultdict(float), defaultdict(float)
        calls = Counter(self.names)
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            total[name] += dur
            own[name] += dur - child[i]
        return total, own, calls

    def counters(self, bytes_in: int, bytes_out: int) -> dict:
        """Work counts that depend only on the code and the inputs."""
        _, _, calls = self.totals()
        out = {f"{name}.calls": calls[name] for name in TARGETS}
        out.update({f"{name}.errors": self.errors[name] for name in TARGETS})
        out.update({
            "optimize.iterations": sum(self.iterations),
            "optimize.converged": self.converged,
            "optimize.starts": self.starts_offered,
            "cli.bytes_in": bytes_in,
            "cli.bytes_out": bytes_out,
            "trace.spans": len(self.names),
        })
        return out

    def spans(self) -> dict:
        """The recorded spans, column by column, with names as indices."""
        table = sorted(set(self.names))
        ids = {name: i for i, name in enumerate(table)}
        return {
            "names": table,
            "name": [ids[n] for n in self.names],
            "start": self.starts,
            "end": self.ends,
            "parent": self.parents,
        }

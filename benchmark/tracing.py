"""Spans and counts at the program's public function boundaries.

The benchmark wraps public functions of ``resfluor`` from the outside:
modules import each other with ``from .x import y``, so a wrapper replaces
the function under every name a ``resfluor`` module looks it up by.  Each
call records a span (name, start, end, parent) and its counts; spans stay in
memory until the run ends, when :meth:`Tracer.round_metrics` turns each
round's spans into self times.  A span's self time is its duration minus
the durations of the spans nested directly inside it.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

# Work counters: (span name, call args, result) -> {metric name: amount}.


def _nodes(name, args, result):
    return {name + ".nodes": len(result[2])}


def _points(name, args, result):
    # SemigroupCache.at(self, x) and theoretical_cdf(m, rho, which, x)
    return {name + ".points": int(np.size(args[-1]))}


def _trajectories(name, args, result):
    return {
        "trajectories.trajectories": len(result),
        "trajectories.clicks": sum(len(t.records) for t in result),
    }


def _rows(name, args, result):
    return {name + ".rows": sum(len(a) for a in result)}


# (module, attribute, span name, work counter); a dotted attribute names a
# method.
TARGETS = (
    ("resfluor.davies", "davies_map", "davies.davies_map", None),
    ("resfluor.quadrature", "simplex_nodes", "quadrature.simplex_nodes", _nodes),
    ("resfluor.semigroup", "SemigroupCache.at", "semigroup.at", _points),
    ("resfluor.guichardet", "oracle_davies_map", "guichardet.oracle_davies_map", None),
    ("resfluor.guichardet", "driven_amplitude", "guichardet.driven_amplitude", None),
    ("resfluor.guichardet", "integral_sum_kernel", "guichardet.integral_sum_kernel", None),
    ("resfluor.verify", "amplitude_by_region_quadrature",
     "verify.amplitude_by_region_quadrature", None),
    ("resfluor.linalg", "superop_exp", "linalg.superop_exp", None),
    ("resfluor.model", "master_map", "model.master_map", None),
    ("resfluor.trajectories", "sample_batch", "trajectories.sample_batch", _trajectories),
    ("resfluor.renewal", "renewal_test", "renewal.renewal_test", None),
    ("resfluor.renewal", "theoretical_cdf", "renewal.theoretical_cdf", _points),
    ("resfluor.renewal", "waiting_densities", "renewal.waiting_densities", None),
    ("resfluor.cli", "read_trajectory_csv", "cli.read_trajectory_csv", _rows),
)

CLI_SUBCOMMANDS = ("evolve", "event-prob", "trajectories", "renewal-stats")

# Every per-layer metric, with its unit; BENCHMARK.json lists the same.
PER_LAYER = {
    "davies.davies_map.calls": "count",
    "davies.davies_map.self_s": "s",
    "quadrature.simplex_nodes.calls": "count",
    "quadrature.simplex_nodes.nodes": "count",
    "quadrature.simplex_nodes.self_s": "s",
    "semigroup.at.calls": "count",
    "semigroup.at.points": "count",
    "semigroup.at.self_s": "s",
    "guichardet.oracle_davies_map.calls": "count",
    "guichardet.oracle_davies_map.self_s": "s",
    "guichardet.driven_amplitude.calls": "count",
    "guichardet.driven_amplitude.self_s": "s",
    "guichardet.integral_sum_kernel.calls": "count",
    "verify.amplitude_by_region_quadrature.self_s": "s",
    "linalg.superop_exp.calls": "count",
    "linalg.superop_exp.self_s": "s",
    "model.master_map.calls": "count",
    "model.master_map.self_s": "s",
    "trajectories.sample_batch.calls": "count",
    "trajectories.sample_batch.self_s": "s",
    "trajectories.trajectories": "count",
    "trajectories.clicks": "count",
    "renewal.renewal_test.self_s": "s",
    "renewal.theoretical_cdf.calls": "count",
    "renewal.theoretical_cdf.points": "count",
    "renewal.waiting_densities.self_s": "s",
    **{f"cli.{sub}.self_s": "s" for sub in CLI_SUBCOMMANDS},
    "cli.bytes_written": "bytes",
    "cli.read_trajectory_csv.rows": "count",
    "cli.read_trajectory_csv.self_s": "s",
    "traced.round_s": "s",
}


class NullTracer:
    """Stand-in when tracing is off: spans cost one no-op call."""

    enabled = False

    def start(self, name):
        return None

    def stop(self, handle):
        pass

    def count(self, key, n=1):
        pass


class Tracer:
    enabled = True

    def __init__(self):
        # one [name, start, end, parent] list per span, in start order
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        # per round: first span, end span, counts at start, counts at end
        self._rounds: list[tuple[int, int, dict, dict]] = []

    # --- recording ----------------------------------------------------------

    def start(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def stop(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, n=1) -> None:
        self.counts[key] += n

    def _wrap(self, fn, name, counter):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.start(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.stop(idx)
            tracer.counts[name + ".calls"] += 1
            if counter is not None:
                for key, n in counter(name, args, result).items():
                    tracer.counts[key] += n
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target under each name a resfluor module binds it to."""
        modules = [m for k, m in sys.modules.items() if k == "resfluor" or k.startswith("resfluor.")]
        for mod_name, attr, name, counter in TARGETS:
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patched.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, name, counter))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # --- rounds and metrics -------------------------------------------------

    def begin_round(self) -> None:
        self._open = (len(self.spans), dict(self.counts))

    def end_round(self) -> None:
        first, counts0 = self._open
        self._rounds.append((first, len(self.spans), counts0, dict(self.counts)))

    def round_metrics(self) -> list[dict[str, float]]:
        """Self times and counts, one dict per round."""
        out = []
        for first, last, counts0, counts1 in self._rounds:
            spans = self.spans[first:last]
            own = [end - start for _, start, end, _ in spans]
            for _, start, end, parent in spans:
                if parent >= first:
                    own[parent - first] -= end - start
            metrics: dict[str, float] = defaultdict(float)
            for (name, *_), t in zip(spans, own):
                metrics[name + ".self_s"] += t
            for key, v in counts1.items():
                metrics[key] = v - counts0.get(key, 0)
            out.append(metrics)
        return out

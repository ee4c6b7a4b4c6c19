"""Spans and counts around cdscover's public functions, kept in memory.

The tracer wraps each target function from outside the package: it
replaces the function under every name that some ``cdscover`` module
binds to it (``scheme`` and ``bounds`` import ``linalg`` functions by
name, for example), and puts the originals back on ``uninstall``. Each
call records a span with its parent; a span's self time is its duration
minus the durations of its child spans. Counts are derived from the
arguments and results of the wrapped calls, never from inside the
package.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter_ns


# A count hook sees one call: the function, its arguments, its result, the
# call's duration in ns, and the counter it adds to.


def _candidate_count(fn, args, kwargs, result, dur_ns, counts):
    counts["graph.candidate_paths"] += len(result)


def _verify_edges(fn, args, kwargs, result, dur_ns, counts):
    counts["scheme.verify_linear.edges"] += sum(r.kind in ("qualified", "unqualified") for r in result.records)


def _oracle_states(fn, args, kwargs, result, dur_ns, counts):
    counts["scheme.entropic_oracle_edge.states"] += result.states
    counts["scheme.entropic_oracle_edge.not_checked"] += result.status == "not-checked"
    if result.status != "not-checked":
        counts["scheme.entropic_oracle_edge.checked_ns"] += dur_ns


def _simulate_trials(fn, args, kwargs, result, dur_ns, counts):
    counts["scheme.simulate.trials"] += result.trials


def _search_draws(fn, args, kwargs, result, dur_ns, counts):
    # only a search that found nothing is known to have made `budget` draws
    if result is None:
        counts["bounds.random_scheme_search.draws"] += inspect.signature(fn).bind(*args, **kwargs).arguments["budget"]
        counts["bounds.random_scheme_search.exhausted_ns"] += dur_ns


# (module, attribute, span name, count hook); "Class.method" patches the class
TARGETS = (
    ("cdscover.cli", "main", "cli.main", None),
    ("cdscover.catalog", "builtin_instance", "catalog.load", None),
    ("cdscover.catalog", "builtin_scheme", "catalog.load", None),
    ("cdscover.graph", "parse_instance", "graph.parse_instance", None),
    ("cdscover.graph", "qualified_components", "graph.qualified_components", None),
    ("cdscover.graph", "rho", "graph.rho", None),
    (
        "cdscover.graph",
        "internal_qualified_edge_candidates",
        "graph.internal_qualified_edge_candidates",
        _candidate_count,
    ),
    ("cdscover.graph", "random_instance", "graph.random_instance", None),
    ("cdscover.synthesis", "synthesize_plan", "synthesis.synthesize_plan", None),
    ("cdscover.synthesis", "SynthesisPlan.to_scheme", "synthesis.to_scheme", None),
    ("cdscover.scheme", "verify_linear", "scheme.verify_linear", _verify_edges),
    ("cdscover.scheme", "parse_scheme", "scheme.parse_scheme", None),
    ("cdscover.scheme", "serialize_scheme", "scheme.serialize_scheme", None),
    ("cdscover.scheme", "entropic_oracle_edge", "scheme.entropic_oracle_edge", _oracle_states),
    ("cdscover.scheme", "simulate", "scheme.simulate", _simulate_trials),
    ("cdscover.linalg", "rowspace_intersection", "linalg.rowspace_intersection", None),
    ("cdscover.linalg", "rank_rref", "linalg.rref", None),
    ("cdscover.linalg", "rref_with_transform", "linalg.rref", None),
    ("cdscover.linalg", "nullspace", "linalg.nullspace", None),
    ("cdscover.bounds", "random_scheme_search", "bounds.random_scheme_search", _search_draws),
    ("cdscover.bounds", "classify_linear_capacity", "bounds.classify_linear_capacity", None),
    ("cdscover.bounds", "color_isomorphic", "bounds.color_isomorphic", None),
)


class Tracer:
    def __init__(self):
        self._stack: list[list[int]] = []  # [span id, child duration ns]
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []
        self.keep_spans = False
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.reset()

    def reset(self) -> None:
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()

    def _wrap(self, name: str, fn, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.calls[name] += 1
                tracer.self_ns[name] += duration - frame[1]
                if tracer.keep_spans:
                    tracer.spans.append((span_id, parent, name, start, end))
            if count is not None:
                count(fn, args, kwargs, result, duration, tracer.counts)
            return result

        return wrapper

    def install(self) -> None:
        """Patch every binding of each target in the loaded cdscover modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items() if n == "cdscover" or n.startswith("cdscover.")]
        for module_name, attr, name, count in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, self._wrap(name, original, count))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        matrix = sys.modules["cdscover.fields"].FieldMatrix
        original_init = matrix.__init__

        def counting_init(obj, *args, **kwargs):
            self.counts["fields.FieldMatrix.constructed"] += 1
            original_init(obj, *args, **kwargs)

        self._patch(matrix, "__init__", counting_init)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name, "start_ns": start, "end_ns": end}))
                fh.write("\n")


SETUP_TIMES = ("catalog.load", "graph.random_instance")
PASS_TIMES = (
    "cli.main",
    "graph.rho",
    "graph.internal_qualified_edge_candidates",
    "graph.qualified_components",
    "graph.parse_instance",
    "synthesis.synthesize_plan",
    "synthesis.to_scheme",
    "scheme.verify_linear",
    "scheme.parse_scheme",
    "scheme.serialize_scheme",
    "scheme.entropic_oracle_edge",
    "scheme.simulate",
    "linalg.rowspace_intersection",
    "linalg.rref",
    "linalg.nullspace",
    "bounds.random_scheme_search",
    "bounds.classify_linear_capacity",
    "bounds.color_isomorphic",
)
PASS_CALLS = (
    "cli.main",
    "graph.rho",
    "scheme.verify_linear",
    "scheme.entropic_oracle_edge",
    "linalg.rowspace_intersection",
    "linalg.rref",
    "linalg.nullspace",
    "bounds.random_scheme_search",
    "bounds.color_isomorphic",
)
PASS_COUNTS = (
    "graph.candidate_paths",
    "scheme.verify_linear.edges",
    "scheme.entropic_oracle_edge.states",
    "scheme.entropic_oracle_edge.not_checked",
    "scheme.simulate.trials",
    "bounds.random_scheme_search.draws",
    "fields.FieldMatrix.constructed",
)


def pass_times(tracer: Tracer) -> dict[str, float]:
    """Self seconds per layer, plus the two rates, for one traced pass."""
    out = {f"{name}.self_s": tracer.self_ns[name] / 1e9 for name in PASS_TIMES}
    checked_s = tracer.counts["scheme.entropic_oracle_edge.checked_ns"] / 1e9
    exhausted_s = tracer.counts["bounds.random_scheme_search.exhausted_ns"] / 1e9
    out["scheme.entropic_oracle_edge.states_per_s"] = (
        tracer.counts["scheme.entropic_oracle_edge.states"] / checked_s if checked_s else 0.0
    )
    out["bounds.random_scheme_search.draws_per_s"] = (
        tracer.counts["bounds.random_scheme_search.draws"] / exhausted_s if exhausted_s else 0.0
    )
    return out


def pass_counts(tracer: Tracer) -> dict[str, int]:
    out = {f"{name}.calls": tracer.calls[name] for name in PASS_CALLS}
    out.update({name: tracer.counts[name] for name in PASS_COUNTS})
    return out


def setup_times(tracer: Tracer) -> dict[str, float]:
    return {f"{name}.self_s": tracer.self_ns[name] / 1e9 for name in SETUP_TIMES}

"""Per-layer tracing from the benchmark's side.

While a traced round runs, the public functions of each concap layer are
replaced, at the module binding their caller looks them up in, by a wrapper
that records a span (name, start, end, parent, job id).  Sizes are taken
from return values; regex and generating-function node counts are walked
after the job, outside every span.  Nothing is wrapped during a timed
(untraced) round: ``install`` and ``uninstall`` bracket each traced round.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from concap import automata, dsl, genfun, maxent, spectrum


def tree_nodes(root, children) -> int:
    """Nodes of a tree, counting a shared subtree once per occurrence."""
    count, stack = 0, [root]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(children(node))
    return count


def regex_children(node):
    if isinstance(node, (dsl.Concat, dsl.Union)):
        return (node.left, node.right)
    if isinstance(node, dsl.Star):
        return (node.child,)
    return ()


def gf_children(node):
    if isinstance(node, (genfun.Sum, genfun.Product)):
        return node.children
    if isinstance(node, genfun.StarClosure):
        return (node.child,)
    return ()


def _count(metric, size=lambda r: 1):
    return lambda tracer, result: tracer.counts.update({metric: size(result)})


def _defer(metric, root, children):
    return lambda tracer, result: tracer.deferred.append((metric, root(result), children))


# (module, attribute, span name, on_result(tracer, result)).  Each entry is
# the binding a caller resolves at call time: cli calls `genfun.abscissa`,
# spectrum's enumerate_spectrum calls its own imported `system_dfa`, maxent
# calls its own imported `matches`, and so on.
TARGETS = (
    (dsl, "load_system", "dsl.parse", _defer("dsl.regex_nodes", lambda r: r.expr, regex_children)),
    (dsl, "build_jk_system", "dsl.parse", _defer("dsl.regex_nodes", lambda r: r.expr, regex_children)),
    (dsl, "repeat", "dsl.parse", None),
    (genfun, "system_gf", "genfun.compile", _defer("genfun.gf_nodes", lambda r: r, gf_children)),
    (genfun, "abscissa", "genfun.abscissa", _count("genfun.abscissa_iterations", lambda r: r.iterations)),
    (genfun, "capacity_jk", "genfun.capacity_jk", None),
    (spectrum, "system_dfa", "automata.determinize", _count("automata.dfa_states", lambda r: r.n_states)),
    (spectrum, "enumerate_spectrum", "spectrum.enumerate", _count("spectrum.buckets", lambda r: len(r.entries))),
    (spectrum, "cross_check_gf", "spectrum.crosscheck", None),
    (spectrum, "gf_tail_bound", "spectrum.tail_bound", None),
    (spectrum, "capacity_estimate", "spectrum.estimators", None),
    (spectrum, "c0_estimate", "spectrum.estimators", None),
    (spectrum, "growth_rate_estimate", "spectrum.estimators", None),
    (spectrum, "density_check", "spectrum.estimators", None),
    (maxent, "matches", "automata.matches", _count("automata.matches_calls")),
    (maxent, "solve_rate", "maxent.solve_rate", _count("maxent.solve_iterations", lambda r: r.iterations)),
    (maxent, "maxentropic_pmf", "maxent.pmf", None),
    (maxent, "validate_input_process", "maxent.validate", None),
    (maxent, "truncated_supports", "maxent.validate",
     _count("maxent.strings_validated", lambda r: sum(len(s) for s in r[0]))),
    (maxent, "sample_process", "maxent.sample", None),
)

ROOT_SPAN = "cli"
SPAN_NAMES = (ROOT_SPAN, *dict.fromkeys(name for _, _, name, _ in TARGETS))
COUNT_NAMES = (
    "dsl.regex_nodes", "genfun.gf_nodes", "genfun.abscissa_iterations", "automata.dfa_states",
    "automata.matches_calls", "automata.char_dfa_misses", "spectrum.buckets",
    "maxent.solve_iterations", "maxent.strings_validated",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a job's root span
    job: str


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    stack: list[int] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    deferred: list = field(default_factory=list)
    job: str = ""
    _saved: list = field(default_factory=list)

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.job))
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn, name: str, on_result):
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target that exists; a target a later version renames or
        deletes is skipped and its metrics read 0."""
        for module, attr, name, on_result in TARGETS:
            fn = getattr(module, attr, None)
            if fn is not None:
                self._saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(fn, name, on_result))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def finish_job(self) -> None:
        """Walk deferred node counts; runs after the job, outside its spans."""
        for metric, root, children in self.deferred:
            self.counts[metric] += tree_nodes(root, children)
        self.deferred.clear()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name: each span's duration minus its children's."""
        child_time: defaultdict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        totals: defaultdict[str, float] = defaultdict(float)
        for i, span in enumerate(self.spans):
            totals[span.name] += span.end - span.start - child_time[i]
        return dict(totals)


def char_dfa_misses() -> int:
    """Misses of automata's character-level DFA cache, if it has one."""
    cache_info = getattr(getattr(automata, "_char_dfa", None), "cache_info", None)
    return cache_info().misses if cache_info else 0

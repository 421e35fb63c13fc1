"""Spans and counters recorded around betacover's layer boundaries.

Only the benchmark's own code records anything: ``Tracer.install`` swaps
each public entry point for a wrapper, in every ``betacover`` module that
holds a reference to it (so ``betacover.audit.NeighborhoodSystem`` and the
names ``betacover.cli`` imports are covered too), and ``uninstall`` puts
the originals back.  Spans stay in memory until the run ends.

A span is ``[name, start, end, parent, op, n]``: ``parent`` is the index
of the enclosing span (-1 at top level), ``op`` the trial or request id
and ``n`` the universe size of the space the call worked on, when known.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from collections import defaultdict

# (layer, function) pairs wrapped as spans.  A function is wrapped in
# every betacover module that binds the same object.
SPAN_FUNCTIONS = (
    ("generate", "gen_space"),
    ("space", "validate_beta_covering"),
    ("space", "build_space"),
    ("approximations", "fuzzy_lower"),
    ("approximations", "fuzzy_upper"),
    ("approximations", "crisp_lower"),
    ("approximations", "crisp_upper"),
    ("approximations", "approximate"),
    ("oracle", "oracle_fuzzy_tables"),
    ("oracle", "oracle_fuzzy_lower"),
    ("oracle", "oracle_fuzzy_upper"),
    ("oracle", "oracle_crisp_lower"),
    ("oracle", "oracle_crisp_upper"),
    ("audit", "run_audit"),
    ("audit", "sample_inputs"),
    ("audit", "shrink_counterexample"),
    ("audit", "check"),
    ("serialize", "parse_space"),
    ("serialize", "parse_set"),
    ("serialize", "set_to_doc"),
    ("serialize", "space_to_doc"),
    ("serialize", "dumps"),
    ("cli", "run_cli"),
)

# Value constructors are counted, not timed: they run hundreds of
# thousands of times per second and a span each would dominate the run.
COUNTED_INITS = (
    ("intervals", "IntervalValue", "intervals.values_built"),
    ("fuzzysets", "IVFuzzySet", "fuzzysets.sets_built"),
    ("fuzzysets", "CrispSubset", "fuzzysets.sets_built"),
)

MEMO_METHODS = ("fl", "fu", "cl", "cu")


def theorem_family(theorem_id: str) -> str:
    """Registry family of a theorem id: 'A3-P5' -> 'A3', 'REL-F2' -> 'REL-F'."""
    for prefix in ("L-FAM", "REL-F", "REL-C", "SANDWICH", "TWO-SPACE"):
        if theorem_id.startswith(prefix):
            return prefix
    return theorem_id.split("-", 1)[0]


def _universe_size(args) -> int:
    """Universe size of the first space-like argument among the first two."""
    for a in args[:2]:
        universe = getattr(a, "universe", None)
        if universe is not None:
            return len(universe)
    return 0


class Tracer:
    """Spans and counts of one traced phase; ``op`` is set by the workload loop."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.op = -1
        self._stack = []
        self._undo = []

    # -- recording --------------------------------------------------------

    def span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapped(*args, **kwargs):
            idx = len(spans)
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.op,
                      _universe_size(args)]
            spans.append(record)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()

        return wrapped

    def aside(self, fn):
        """``fn`` recorded as a span outside every operation (``op`` -1):
        its time leaves the self time of the enclosing span and is counted
        in no layer."""
        span = self.span("benchmark.aside", fn)

        def wrapped(*args, **kwargs):
            op, self.op = self.op, -1
            try:
                return span(*args, **kwargs)
            finally:
                self.op = op

        return wrapped

    def _counter(self, key, fn):
        # Counts only inside timed operations (op >= 0), not while the
        # benchmark generates or checks inputs.
        counts = self.counts

        def wrapped(*args, **kwargs):
            if self.op >= 0:
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapped

    def _memo(self, fn):
        counts = self.counts

        def wrapped(ctx, *args):
            before = counts["approximations.operator_calls"]
            result = fn(ctx, *args)
            counts["audit.memo_calls"] += 1
            if counts["approximations.operator_calls"] == before:
                counts["audit.memo_hits"] += 1
            return result

        return wrapped

    # -- installing -------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = {
            name: mod for name, mod in sys.modules.items()
            if (name == "betacover" or name.startswith("betacover.")) and mod is not None
        }
        for layer, fname in SPAN_FUNCTIONS:
            original = getattr(modules[f"betacover.{layer}"], fname)
            wrapped = self.span(f"{layer}.{fname}", original)
            if layer == "approximations" and fname != "approximate":
                wrapped = self._counter("approximations.operator_calls", wrapped)
            for mod in modules.values():
                if getattr(mod, fname, None) is original:
                    self._set(mod, fname, wrapped)

        ns_cls = modules["betacover.neighborhoods"].NeighborhoodSystem
        self._set(ns_cls, "__init__", self.span("neighborhoods.build", ns_cls.__init__))

        for layer, cls_name, key in COUNTED_INITS:
            cls = getattr(modules[f"betacover.{layer}"], cls_name)
            self._set(cls, "__post_init__", self._counter(key, cls.__post_init__))

        audit = modules["betacover.audit"]
        for method in MEMO_METHODS:
            self._set(audit.TrialContext, method,
                      self._memo(getattr(audit.TrialContext, method)))
        for theorem_id, spec in list(audit.REGISTRY.items()):
            wrapped = dataclasses.replace(spec, checker=self.span(
                f"audit.check.{theorem_family(theorem_id)}", spec.checker))
            self._undo.append((audit.REGISTRY, theorem_id, spec))
            audit.REGISTRY[theorem_id] = wrapped

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)


# -- analysis ------------------------------------------------------------


def self_times(spans):
    """Per-span self time: duration minus the time its children cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def has_ancestor(spans, idx, name):
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False

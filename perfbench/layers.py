"""Per-layer metrics from the traced half of a run.

Times are self times (a span's duration minus the time its child spans
cover), taken only from spans inside timed operations.  ``*_calls`` and
counts are per operation (trial, space or request); ``*_ms`` and ``*_us``
are per call unless the name says otherwise.  A layer that a workload
never calls reads 0.
"""

from __future__ import annotations

from collections import defaultdict
from statistics import median

import workloads as wl
from tracing import has_ancestor, self_times

LAYERS = ("intervals", "fuzzysets", "space", "generate", "neighborhoods",
          "approximations", "oracle", "audit", "serialize", "cli")
FAMILIES = ("L-FAM", "N", "CN", "A1", "A2", "A3", "A4", "CA1", "CA2", "CA3", "CA4",
            "REL-F", "REL-C", "SANDWICH", "TWO-SPACE", "W")
OPERATORS = wl.OPERATOR_NAMES
EXHAUSTIVE_PROBE = 3000  # spaces enumerated from exhaustive_spaces(3, 2, 2)


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(workload, tracer, plain, traced):
    spans = tracer.spans
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    by_n = defaultdict(lambda: defaultdict(list))
    layer_s = defaultdict(float)
    shrink_evals = 0
    for idx, s in enumerate(spans):
        if s[4] < 0:
            continue  # generating or checking inputs, outside the timed region
        name = s[0]
        if name.startswith("audit.check.") and has_ancestor(spans, idx, "audit.shrink_counterexample"):
            name = "audit.shrink." + name[len("audit.check."):]
        if name == "audit.check" and has_ancestor(spans, idx, "audit.shrink_counterexample"):
            shrink_evals += 1
        calls[name] += 1
        self_s[name] += selfs[idx]
        total_s[name] += s[2] - s[1]
        layer_s[name.split(".", 1)[0]] += selfs[idx]
        by_n[name][s[5]].append(selfs[idx])

    ops = traced.ops
    wall = traced.timed_seconds
    counts = tracer.counts
    m = {}

    def per_call_ms(name, scale=1000.0):
        return _ratio(self_s[name], calls[name]) * scale

    m["intervals.values_built"] = (_ratio(counts["intervals.values_built"], ops), "count")
    m["fuzzysets.sets_built"] = (_ratio(counts["fuzzysets.sets_built"], ops), "count")
    m["space.validate_calls"] = (_ratio(calls["space.validate_beta_covering"], ops), "count")
    m["space.validate_ms"] = (per_call_ms("space.validate_beta_covering"), "ms")
    m["generate.gen_space_calls"] = (_ratio(calls["generate.gen_space"], ops), "count")
    m["generate.gen_space_ms"] = (per_call_ms("generate.gen_space"), "ms")
    m["generate.exhaustive_us_per_space"] = (
        exhaustive_probe(workload) if workload.name == "oracle_xcheck" else 0.0, "us")
    m["neighborhoods.build_calls"] = (_ratio(calls["neighborhoods.build"], ops), "count")
    m["neighborhoods.build_ms"] = (per_call_ms("neighborhoods.build"), "ms")
    for op in OPERATORS:
        name = f"approximations.{op}"
        m[f"{name}.calls"] = (_ratio(calls[name], ops), "count")
        m[f"{name}.us"] = (per_call_ms(name, 1e6), "us")
    m["oracle.us_per_space"] = (
        _ratio(layer_s["oracle"], ops) * 1e6 if workload.name == "oracle_xcheck" else 0.0, "us")
    trials = ops if workload.name == "audit" else 0
    for fam in FAMILIES:
        m[f"audit.check_ms.{fam}"] = (_ratio(self_s[f"audit.check.{fam}"], trials) * 1000, "ms")
    m["audit.sample_inputs_ms"] = (per_call_ms("audit.sample_inputs"), "ms")
    m["audit.memo_hit_ratio"] = (_ratio(counts["audit.memo_hits"], counts["audit.memo_calls"]),
                                 "ratio")
    outcomes = audit_outcomes(traced)
    m["audit.skip_share"] = (_ratio(outcomes["skip"], sum(outcomes.values())), "share")
    shrinks = calls["audit.shrink_counterexample"]
    m["audit.shrink_calls"] = (_ratio(shrinks, trials), "count")
    m["audit.shrink_evals"] = (_ratio(shrink_evals, shrinks), "count")
    m["audit.shrink_ms"] = (_ratio(total_s["audit.shrink_counterexample"], shrinks) * 1000, "ms")
    requests = ops if workload.name == "cli_approximate" else 0
    m["serialize.parse_space_ms"] = (per_call_ms("serialize.parse_space"), "ms")
    m["serialize.parse_set_ms"] = (per_call_ms("serialize.parse_set"), "ms")
    emit = sum(self_s[f"serialize.{f}"] for f in ("dumps", "set_to_doc", "space_to_doc"))
    m["serialize.emit_ms"] = (_ratio(emit, requests) * 1000, "ms")
    m["serialize.bytes_in"] = (_ratio(traced_bytes(traced, "bytes_in"), requests), "B")
    m["serialize.bytes_out"] = (_ratio(traced_bytes(traced, "bytes_out"), requests), "B")
    m["cli.self_ms"] = (per_call_ms("cli.run_cli"), "ms")
    for layer in LAYERS[2:]:
        m[f"{layer}.share"] = (_ratio(layer_s[layer], wall), "share")
    # Both halves are calibrated alike, so the ratio of their scaled rates
    # is the tracing cost; the per-class medians show how far it spreads.
    plain_rate = wl.end_to_end(workload, plain)[0]["ops_per_s"][0]
    traced_rate = wl.end_to_end(workload, traced)[0]["ops_per_s"][0]
    m["trace.overhead"] = (plain_rate / traced_rate - 1, "share")
    per_class = ", ".join(
        f"{c} p50 {median(traced.calibrated(c)) / median(plain.calibrated(c)) - 1:+.3f}"
        for c in wl.CLASSES)

    attributed = sum(layer_s[layer] for layer in LAYERS)
    notes = [
        f"traced half: {ops} operations, {wall:.3f} s timed, {len(spans)} spans",
        f"tracing overhead: {plain_rate:.4g} ops/s untraced vs {traced_rate:.4g} traced "
        f"({m['trace.overhead'][0]:+.3f}; {per_class})",
        f"per-layer times are raw; the calibration kernel took a median "
        f"{median(traced.speed.values) * 1e3:.4g} ms in the traced half "
        f"(reference {wl.REFERENCE_CALIBRATION * 1e3:.4g} ms)",
        f"outside any layer span (benchmark loop, unwrapped code): "
        f"{1 - _ratio(attributed, wall):.4f} of timed wall",
        "intervals and fuzzysets are counted, not timed: their time is inside "
        "the self time of the layer that builds the values",
    ]
    for name in ("neighborhoods.build", *(f"approximations.{op}" for op in OPERATORS)):
        if by_n[name]:
            scale, unit = (1000, "ms") if name.endswith("build") else (1e6, "us")
            parts = ", ".join(f"n={n}: {sum(v) / len(v) * scale:.4g} {unit} x{len(v)}"
                              for n, v in sorted(by_n[name].items()))
            notes.append(f"{name} self time by n: {parts}")
    if workload.name == "audit":
        notes.append(f"outcomes: {dict(outcomes)}; skip reasons: {skip_reasons(traced)}")
    return m, notes


def audit_outcomes(phase):
    out = {"pass": 0, "fail": 0, "skip": 0}
    for _, _, report in phase.reports:
        for st in report.stats.values():
            out["pass"] += st.passes
            out["fail"] += st.failures
            out["skip"] += st.skips
    return out


def skip_reasons(phase, top=6):
    reasons = defaultdict(int)
    for _, _, report in phase.reports:
        for st in report.stats.values():
            for reason, count in st.skip_reasons.items():
                reasons[reason] += count
    return dict(sorted(reasons.items(), key=lambda kv: -kv[1])[:top])


def traced_bytes(phase, field):
    total = 0
    for _, inputs, out in phase.pending:
        total += inputs.bytes_in if field == "bytes_in" else len(out[1].encode())
    return total


def exhaustive_probe(workload):
    """Microseconds per space to enumerate a fixed prefix of the criterion-3 sweep."""
    generate = workload.m["betacover.generate"]
    t0 = wl.clock()
    count = 0
    for _ in generate.exhaustive_spaces(3, 2, 2):
        count += 1
        if count == EXHAUSTIVE_PROBE:
            break
    return (wl.clock() - t0) / count * 1e6

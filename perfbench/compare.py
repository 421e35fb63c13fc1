"""Compare a parent and a change with this benchmark, pair by pair.

    python3 perfbench/compare.py --parent ../parent --change . --pairs 10

Both trees are measured by this copy of ``run.py`` (only ``src/`` differs),
with the run length and seeds fixed by BENCHMARK.json and ``--seed``.  Pair
i runs seed ``--seed + i`` on both sides; even pairs run the parent first,
odd pairs the change, on every workload BENCHMARK.json lists.  ``--save``
keeps every run's result.

Each row gives both medians and quartiles, the share of pairs the change
won (ties count for neither side) and a verdict:

* improved: the change won at least 9 pairs in 10 and the medians differ
  by more than the parent's own spread (the distance between its quartiles);
* unresolved: the parent's spread is wider than the metric's bound, unless
  every change run is better than every parent run;
* worse: the change's median is worse than the parent's by more than the bound;
* no worse: otherwise.

A change whose runs fail more operations than the parent's reads worse on
``failed``, whatever its speed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
SPEC = HERE.parent / "BENCHMARK.json"
SIDES = ("parent", "change")


def run_once(tree, workload, seed, seconds):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", "--src", str(Path(tree) / "src")]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def collect(trees, workloads, pairs, seed, seconds):
    runs = {w: {side: [] for side in SIDES} for w in workloads}
    for w in workloads:
        for i in range(pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                runs[w][side].append(run_once(trees[side], w, seed + i, seconds))
                print(f"{w} pair {i + 1}/{pairs} {side} done", file=sys.stderr)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """Verdict and share of pairs won, by the rule in the module docstring."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    share = wins / len(parent)
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    if share >= 0.9 and sign * (cm - pm) > p3 - p1:
        return "improved", share
    if (p3 - p1) / pm > bound and not all(sign * (c - p) > 0 for c in change for p in parent):
        return "unresolved", share
    if sign * (pm - cm) / pm > bound:
        return "worse", share
    return "no worse", share


def table(runs, spec):
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    rows = [("workload", "metric", "unit", "parent median [q1, q3]",
             "change median [q1, q3]", "won", "verdict")]
    for w, sides in runs.items():
        for name, m in metrics.items():
            vals = {s: [r["metrics"][name]["value"] for r in sides[s]] for s in SIDES}
            v, share = verdict(vals["parent"], vals["change"], m["better"], m["bound"])
            cells = []
            for s in SIDES:
                q1, q2, q3 = quartiles(vals[s])
                cells.append(f"{q2:.5g} [{q1:.5g}, {q3:.5g}]")
            rows.append((w, name, m["unit"], *cells, f"{share:.0%}", v))
        failed = {s: sum(r["failed"] for r in sides[s]) for s in SIDES}
        attempted = {s: sum(r["attempted"] for r in sides[s]) for s in SIDES}
        rows.append((w, "failed", "count", *(f"{failed[s]} of {attempted[s]}" for s in SIDES),
                     "", "worse" if failed["change"] > failed["parent"] else "no worse"))
    widths = [max(len(str(r[i])) for r in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(str(c).ljust(wd) for c, wd in zip(r, widths)) for r in rows)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="root of the parent's tree (holds src/)")
    parser.add_argument("--change", required=True, help="root of the change's tree (holds src/)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--save", type=Path, help="write every run's result here")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    runs = collect({"parent": args.parent, "change": args.change},
                   [w["name"] for w in spec["workloads"]], args.pairs, args.seed,
                   spec["run_seconds"])
    if args.save:
        args.save.write_text(json.dumps(runs, indent=1))
    print(table(runs, spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())

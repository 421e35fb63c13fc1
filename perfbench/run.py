"""Benchmark for betacover: one workload, one seed, one process, one thread.

    python3 perfbench/run.py --workload audit --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrument beyond
the audit's trial timestamps.  ``--trace 1`` runs the same workload for
half the time untraced and half traced, reports the per-layer metrics of
the traced half and the tracing overhead, and writes the spans to
``.perfbench/`` in the checkout.  ``--workload all`` runs every workload,
each in its own interpreter, and prints their reports one after another.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Other lines are the
human-readable report.  The program under test is imported from
``src/`` of the checkout that holds this file, or from ``--src``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_REPEATS = 15  # with 7, the median spread half again as wide between runs

# Run in a fresh interpreter: import betacover cold, then build the workload
# and its first inputs; print the seconds those two steps took.  The
# benchmark's own modules are imported between them, untimed.
SETUP_CHILD = """
import sys, time
from pathlib import Path
src, here, name, seed, workdir = sys.argv[1:]
t0 = time.perf_counter()
sys.path.insert(0, src)
import betacover, betacover.oracle, betacover.cli
t1 = time.perf_counter()
sys.path.insert(0, here)
import workloads as wl
t2 = time.perf_counter()
wl.WORKLOADS[name](wl.loaded_betacover(Path(src)), int(seed), Path(workdir)).make(0)
print(t1 - t0 + time.perf_counter() - t2)
"""


def setup_seconds(name, seed, src, workdir):
    """Median set-up time over SETUP_REPEATS fresh interpreters.

    Each time is scaled to the reference machine speed by the
    calibrations this process takes around the child.
    """
    speed = wl.Speedometer()
    starts, times = [], []
    for _ in range(SETUP_REPEATS):
        speed.tick(force=True)
        starts.append(wl.clock())
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(src), str(HERE), name, str(seed),
             str(workdir)],
            capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up in a fresh interpreter failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    speed.tick(force=True)
    return statistics.median(dt * speed.factor(t) for t, dt in zip(starts, times))


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run(name, seed, seconds, trace, src, spans_dir=None):
    """Run one workload; return (result, report lines, tracer or None, phases)."""
    work_root = ROOT / ".perfbench"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=work_root))
    tracer = None
    try:
        setup_s = setup_seconds(name, seed, src, workdir)
        workload = wl.WORKLOADS[name](wl.import_betacover(src), seed, workdir)
        lines = [f"workload {name}, seed {seed}, {seconds} s, trace {trace}"]
        if not trace:
            phase = workload.run(seconds)
            rss = peak_rss_mb()
            workload.check(phase)
            metrics, notes = wl.end_to_end(workload, phase)
            metrics["setup_s"] = (setup_s, "s")
            metrics["peak_rss_mb"] = (rss, "MB")
            phases = [phase]
            lines += notes
        else:
            plain = workload.run(seconds / 2)
            tracer = Tracer()
            tracer.install()
            workload.attach(tracer)
            try:
                traced = workload.run(seconds / 2)
            finally:
                workload.attach(None)
                tracer.uninstall()
            metrics, notes = layers.per_layer(workload, tracer, plain, traced)
            for phase in (plain, traced):
                workload.check(phase)
            phases = [plain, traced]
            lines += notes
            if spans_dir is not None:
                spans_dir.mkdir(exist_ok=True)
                path = spans_dir / f"spans-{name}-seed{seed}.json"
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump({"fields": ["name", "start", "end", "parent", "op", "n"],
                               "spans": tracer.spans}, fh)
                lines.append(f"spans written to {path.relative_to(ROOT)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    for p in phases:
        lines += [f"problem: {msg}" for msg in p.problems]
    lines.append(f"failed_share {failed / attempted if attempted else 1.0} "
                 f"({failed} of {attempted} operations)")
    for key, (value, unit) in metrics.items():
        lines.append(f"{key} {value} {unit}")
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, lines, tracer, phases


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the betacover package")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if not (src / "betacover" / "__init__.py").is_file():
        print(f"error: no betacover package under {src}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, src)
    result, lines, _, _ = run(args.workload, args.seed, args.seconds, args.trace, src,
                           spans_dir=ROOT / ".perfbench" if args.trace else None)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


def run_all(args, src):
    """Each workload in a fresh interpreter, so set-up and memory are its own."""
    results = {}
    for name in wl.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--src", str(src)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

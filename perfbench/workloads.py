"""The three workloads: input generation, timed loop, output checks.

Every operation belongs to one of two classes, ``light`` and ``heavy``,
whose costs differ by design (see RATIONALE.md); latency is reported per
class so that a percentile never straddles the boundary between them.

Inputs derive only from the seed and the operation index, so the same
seed reproduces the same inputs and checks can regenerate them after the
timed loop.  The benchmark draws and writes them with its own code
(``inputs.py``), so they do not change with betacover's generator or
serializer; only the audit, whose trials generate their own spaces
inside ``run_audit``, is driven by a ``GenConfig``.  Only the calls into betacover are timed; generating inputs
and checking outputs happen outside the timed region.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import statistics
import sys
import time
from bisect import bisect_left
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace as Inputs

import inputs as gen

LIGHT, HEAVY = "light", "heavy"
CLASSES = (LIGHT, HEAVY)
KINDS = (1, 2, 3, 4)
OPERATOR_NAMES = ("fuzzy_lower", "fuzzy_upper", "crisp_lower", "crisp_upper")

# Laws the audit refutes today.  They must keep failing with a
# replayable counterexample, whatever status the registry gives them.
KNOWN_REFUTED = ("REL-F1", "REL-F2")

clock = time.perf_counter

# -- machine-speed calibration -------------------------------------------------
#
# On a shared machine the speed of pure-Python code drifts by 10-35 %
# within a run and between runs.  Every CALIBRATE_EVERY seconds, outside
# the timed region, the loop times a fixed stdlib kernel of the kind
# betacover runs (exact Fraction comparisons).  Each reported time is scaled by
# REFERENCE_CALIBRATION / (calibration time around that operation): it reads
# as the time the operation would take on a machine that runs the kernel in
# REFERENCE_CALIBRATION seconds.  Raw times are printed beside them.

CALIBRATE_EVERY = 0.1
REFERENCE_CALIBRATION = 2.0e-3  # seconds; constant so runs stay comparable
_KERNEL = [Fraction(i, 20) for i in range(21)]


def calibrate():
    """Seconds taken by the fixed calibration kernel just now."""
    t0 = clock()
    acc = 0
    for _ in range(2):
        for x in _KERNEL:
            for y in _KERNEL:
                acc += (x < y) + (min(x, y) == x)
    return clock() - t0


class Speedometer:
    """Calibration times along a run, and the scale factor at any moment."""

    def __init__(self):
        self.times = []
        self.values = []
        self.last = float("-inf")

    def tick(self, force=False):
        now = clock()
        if force or now - self.last >= CALIBRATE_EVERY:
            c = calibrate()
            self.times.append(now)
            self.values.append(c)
            self.last = clock()

    def factor(self, t):
        """REFERENCE_CALIBRATION over the median of the calibrations around t."""
        i = bisect_left(self.times, t)
        near = self.values[max(0, i - 3):i + 2]  # three before t, two after
        return REFERENCE_CALIBRATION / statistics.median(near)


def import_betacover(src: Path):
    """Import betacover afresh from ``src``, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "betacover" or m.startswith("betacover.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    importlib.invalidate_caches()
    for name in ("betacover", "betacover.oracle", "betacover.cli"):
        importlib.import_module(name)
    return loaded_betacover(src)


def loaded_betacover(src: Path):
    """The betacover modules already imported, checked to come from ``src``."""
    expected = (src / "betacover" / "__init__.py").resolve()
    if Path(sys.modules["betacover"].__file__).resolve() != expected:
        raise ImportError(f"betacover imported from {sys.modules['betacover'].__file__}, "
                          f"not {expected}")
    return {n: m for n, m in sys.modules.items() if n == "betacover" or n.startswith("betacover.")}


def percentile(values, p):
    """p-th percentile (1..99) by the inclusive method of statistics.quantiles."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


class Workload:
    """Operation-at-a-time loop shared by oracle_xcheck and cli_approximate."""

    # Subclasses set: name; weights, the design share of each class; tail,
    # the tail percentile of each class.

    def __init__(self, mods, seed, workdir):
        self.m = mods
        self.seed = seed
        self.workdir = workdir
        self.next_op = 0
        self.tracer = None

    def rng(self, i):
        return random.Random(f"perfbench:{self.name}:{self.seed}:{i}")

    def run(self, seconds):
        """Run operations until ``seconds`` of wall time pass; return a Phase."""
        phase = Phase()
        phase.speed.tick(force=True)
        start = clock()
        deadline = start + seconds
        while clock() < deadline:
            i = self.next_op
            self.next_op += 1
            self.set_op(-1)
            phase.speed.tick()
            inputs = self.make(i)
            self.set_op(i)
            try:
                t0 = clock()
                out = self.execute(inputs)
                dt = clock() - t0
            except Exception as exc:  # counted as a failed operation
                self.set_op(-1)
                phase.failure(f"op {i}: {type(exc).__name__}: {exc}")
                continue
            self.set_op(-1)
            phase.sample(inputs.cls, t0, dt, self.verdicts(out))
            self.keep(phase, i, inputs, out)
        phase.wall = clock() - start
        phase.speed.tick(force=True)
        return phase

    def attach(self, tracer):
        """Record spans and counts into ``tracer`` (None to stop)."""
        self.tracer = tracer

    def set_op(self, i):
        if self.tracer is not None:
            self.tracer.op = i

    def verdicts(self, out):
        return 1

    def keep(self, phase, i, inputs, out):
        phase.pending.append((i, inputs, out))

    def check(self, phase):
        """Check the outputs kept during the loop; mark failures on ``phase``."""
        for i, inputs, out in phase.pending:
            try:
                problem = self.problem(i, inputs, out)
            except Exception as exc:  # malformed output, for instance
                problem = f"check raised {type(exc).__name__}: {exc}"
            if problem:
                phase.failure(f"op {i}: {problem}")
        phase.pending.clear()


class Phase:
    """Samples and failure counts of one timed loop."""

    def __init__(self):
        self.samples = {c: [] for c in CLASSES}
        self.starts = {c: [] for c in CLASSES}
        self.speed = Speedometer()
        self.verdicts = {c: 0 for c in CLASSES}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.pending = []
        self.reports = []
        self.wall = 0.0

    def sample(self, cls, start, seconds, verdicts):
        self.attempted += 1
        self.samples[cls].append(seconds)
        self.starts[cls].append(start)
        self.verdicts[cls] += verdicts

    def calibrated(self, cls):
        """Operation times of one class, scaled to the reference speed."""
        return [dt * self.speed.factor(t) for t, dt in zip(self.starts[cls], self.samples[cls])]

    def failure(self, message, attempted=True):
        self.attempted += attempted
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    @property
    def ops(self):
        return sum(len(v) for v in self.samples.values())

    @property
    def timed_seconds(self):
        return sum(sum(v) for v in self.samples.values())


# -- oracle_xcheck -----------------------------------------------------------


class OracleXcheck(Workload):
    """Criterion-3 traffic: fast path and oracle on the same space."""

    name = "oracle_xcheck"
    weights = {LIGHT: 7 / 8, HEAVY: 1 / 8}
    tail = {LIGHT: 75, HEAVY: 90}
    HEAVY_EVERY = 8
    # (n, m) cells of the exhaustive_spaces(3, 2, 2) sweep, weighted by the
    # number of grade tables each cell holds (6 grid-2 intervals per cell).
    TINY_CELLS = [(n, m) for n in (1, 2, 3) for m in (1, 2)]
    TINY_WEIGHTS = [6 ** (n * m) for n, m in TINY_CELLS]

    def __init__(self, mods, seed, workdir):
        super().__init__(mods, seed, workdir)
        self.grid2 = gen.grid_intervals(2)
        self.oracle_phase = self._oracle

    def attach(self, tracer):
        # The oracle half gets a span of its own, so that the crisp tables
        # it derives with neighborhoods.crisp_of count as oracle time.
        super().attach(tracer)
        self.oracle_phase = self._oracle if tracer is None else tracer.span(
            "oracle.reference", self._oracle)

    def draw(self, i):
        """(class, space, fuzzy grades, crisp members) of space i, as plain data.

        Tiny spaces are uniform draws from one cell of the exhaustive grid-2
        sweep, the cell weighted by its number of grade tables.
        """
        rng = self.rng(i)
        if i % self.HEAVY_EVERY == self.HEAVY_EVERY - 1:
            cls, space = HEAVY, gen.draw_space(rng, 4 + rng.randrange(3), 3, 10)
        else:
            n, m = rng.choices(self.TINY_CELLS, self.TINY_WEIGHTS)[0]
            cls, space = LIGHT, gen.draw_covering_space(rng, n, m, 2, self.grid2)
        fuzzy = gen.draw_fuzzy(rng, len(space.objects), space.d)
        return cls, space, fuzzy, gen.draw_crisp(rng, space.objects)

    def make(self, i):
        bc = self.m["betacover"]
        cls, s, fuzzy, crisp = self.draw(i)
        space = gen.to_space(bc, s)
        return Inputs(cls=cls, space=space, fuzzy=gen.to_fuzzy(bc, space.universe, fuzzy, s.d),
                      crisp=bc.CrispSubset.of(space.universe, crisp))

    def execute(self, inp):
        a = self.m["betacover.approximations"]
        space, fx, cx = inp.space, inp.fuzzy, inp.crisp
        ns = self.m["betacover.neighborhoods"].NeighborhoodSystem(space)
        fast = []
        for k in KINDS:
            fast.append(a.fuzzy_lower(space, k, fx, ns))
            fast.append(a.fuzzy_upper(space, k, fx, ns))
            fast.append(a.crisp_lower(space, k, cx, ns))
            fast.append(a.crisp_upper(space, k, cx, ns))
        return fast, self.oracle_phase(space, fx, cx)

    def _oracle(self, space, fx, cx):
        return oracle_results(self.m, space, fx, cx)

    def verdicts(self, out):
        return len(out[0])

    def keep(self, phase, i, inputs, out):
        # Compared at once: holding every result until the end would make
        # peak memory grow with throughput.
        problem = self.problem(i, inputs, out)
        if problem:
            phase.failure(f"op {i}: {problem}", attempted=False)

    def problem(self, i, inputs, out):
        fast, ref = out
        for idx, (f, r) in enumerate(zip(fast, ref)):
            if f != r:
                kind, op = KINDS[idx // 4], OPERATOR_NAMES[idx % 4]
                return f"kind {kind} {op} differs from the oracle"
        return None

    def input_bytes(self, i):
        cls, s, fuzzy, crisp = self.draw(i)
        return (f"{cls}\n" + gen.space_text(s) + gen.fuzzy_text(s.objects, fuzzy, s.d)
                + gen.crisp_text(crisp)).encode()


def oracle_results(mods, space, fx, cx, kinds=KINDS):
    """The 16 operator results through betacover.oracle, in fast-path order."""
    o = mods["betacover.oracle"]
    crisp_of = mods["betacover.neighborhoods"].crisp_of
    ftab = o.oracle_fuzzy_tables(space)
    ctab = tuple({x: crisp_of(t[x], space.beta) for x in space.universe} for t in ftab)
    out = []
    for k in kinds:
        if fx is not None:
            out.append(o.oracle_fuzzy_lower(space, k, fx, tables=ftab))
            out.append(o.oracle_fuzzy_upper(space, k, fx, tables=ftab))
        if cx is not None:
            out.append(o.oracle_crisp_lower(space, k, cx, tables=ctab))
            out.append(o.oracle_crisp_upper(space, k, cx, tables=ctab))
    return out


# -- cli_approximate ---------------------------------------------------------


class CliApproximate(Workload):
    """Closed loop, one client: ``betacover approximate`` on n = 60 spaces."""

    name = "cli_approximate"
    weights = {LIGHT: 0.5, HEAVY: 0.5}
    tail = {LIGHT: 75, HEAVY: 75}
    SIZE = dict(n=60, m=10, d=20)
    # Build cost varies about 3x with beta (how many grades it selects), so
    # beta follows a fixed cycle, prime to the 8-request mode/kind cycle,
    # and every run sees the same mix; the grades come from the seed.
    # On the grid-20 scale: [0.1,0.3], [0.1,0.6], [0.3,0.7], [0.2,0.9], [0.6,0.8].
    BETAS = ((2, 6), (2, 12), (6, 14), (4, 18), (12, 16))

    def spec(self, i):
        """(mode, kind, beta) of request i: modes alternate, kinds cycle per mode."""
        return ("fuzzy" if i % 2 == 0 else "crisp"), (i // 2) % 4 + 1, self.BETAS[i % 5]

    def draw(self, i):
        """(mode, kind, space, target) of request i, as plain data."""
        rng = self.rng(i)
        mode, kind, beta = self.spec(i)
        n, m, d = self.SIZE["n"], self.SIZE["m"], self.SIZE["d"]
        space = gen.draw_space(rng, n, m, d, beta)
        if mode == "fuzzy":
            target = gen.draw_fuzzy(rng, n, d)
        else:
            target = gen.draw_crisp(rng, space.objects)
        return mode, kind, space, target

    def documents(self, i):
        mode, kind, space, target = self.draw(i)
        if mode == "fuzzy":
            set_doc = gen.fuzzy_text(space.objects, target, space.d)
        else:
            set_doc = gen.crisp_text(target)
        return mode, kind, gen.space_text(space), set_doc

    def make(self, i):
        mode, kind, space_doc, set_doc = self.documents(i)
        space_path = self.workdir / "space.json"
        set_path = self.workdir / "set.json"
        space_path.write_text(space_doc, encoding="utf-8")
        set_path.write_text(set_doc, encoding="utf-8")
        argv = ["approximate", str(space_path), "--kind", str(kind), "--mode", mode,
                "--set", str(set_path)]
        return Inputs(cls=HEAVY if mode == "fuzzy" else LIGHT, argv=argv,
                      bytes_in=len(space_doc.encode()) + len(set_doc.encode()))

    def execute(self, inp):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.m["betacover.cli"].run_cli(inp.argv)
        return code, out.getvalue(), err.getvalue()

    def problem(self, i, inputs, out):
        code, stdout, stderr = out
        if code != 0:
            return f"exit {code}: {stderr.strip()[:200]}"
        doc = json.loads(stdout)
        bc = self.m["betacover"]
        mode, kind, s, target = self.draw(i)
        space = gen.to_space(bc, s)
        fuzzy = gen.to_fuzzy(bc, space.universe, target, s.d) if mode == "fuzzy" else None
        crisp = bc.CrispSubset.of(space.universe, target) if mode == "crisp" else None
        lower, upper = map(gen.plain, oracle_results(self.m, space, fuzzy, crisp, kinds=(kind,)))
        expected = {"kind": kind, "mode": mode, "lower": lower, "upper": upper,
                    "definable": lower == upper}
        got = {"kind": doc.get("kind"), "mode": doc.get("mode"),
               "lower": gen.read_set_doc(doc["lower"]), "upper": gen.read_set_doc(doc["upper"]),
               "definable": doc.get("definable")}
        wrong = [k for k, v in expected.items() if got[k] != v]
        return f"fields {wrong} differ from the oracle" if wrong else None

    def input_bytes(self, i):
        mode, kind, space_doc, set_doc = self.documents(i)
        return f"{mode} {kind}\n{space_doc}{set_doc}".encode()


# -- audit ---------------------------------------------------------------------


class Audit(Workload):
    """run_audit with the full registry, alternating the criterion-2 configs.

    An operation is a trial for timing and a block of trials for failure
    accounting.  Trial boundaries come from a timestamp taken as each trial
    generates its space, the only instrument in an untraced run.
    """

    name = "audit"
    weights = {LIGHT: 0.5, HEAVY: 0.5}
    tail = {LIGHT: 75, HEAVY: 75}
    BLOCK_TRIALS = 100
    CONFIGS = {
        LIGHT: dict(universe_size=4, parameter_count=3, grid_denominator=10),
        HEAVY: dict(universe_size=6, parameter_count=5, grid_denominator=20),
    }

    def __init__(self, mods, seed, workdir):
        super().__init__(mods, seed, workdir)
        self.seed_base = random.Random(f"perfbench:audit:{seed}").randrange(2**31)
        self.next_trial = 0

    def make(self, b):
        cls = LIGHT if b % 2 == 0 else HEAVY
        config = self.m["betacover.generate"].GenConfig(seed=self.seed_base + b,
                                                        **self.CONFIGS[cls])
        return Inputs(cls=cls, config=config)

    def run(self, seconds):
        audit = self.m["betacover.audit"]
        phase = Phase()
        marks = []  # per trial: (end of the previous trial, start of this one)
        generate = audit.gen_space
        # Traced, the calibration gets a span outside every operation, so
        # that its time leaves the self time of the run_audit span around it.
        tick = phase.speed.tick if self.tracer is None else self.tracer.aside(phase.speed.tick)

        def stamped(config):
            end = clock()
            tick()
            marks.append((end, clock()))
            self.set_op(self.next_trial + len(marks) - 1)
            return generate(config)

        audit.gen_space = stamped
        phase.speed.tick(force=True)
        start = clock()
        try:
            deadline = start + seconds
            while clock() < deadline:
                b = self.next_op
                self.next_op += 1
                inputs = self.make(b)
                marks.clear()
                self.set_op(self.next_trial)
                try:
                    t0 = clock()
                    report = audit.run_audit(inputs.config, trials=self.BLOCK_TRIALS)
                    t1 = clock()
                except Exception as exc:  # counted as a failed block
                    self.set_op(-1)
                    phase.failure(f"block {b}: {type(exc).__name__}: {exc}")
                    continue
                self.set_op(-1)
                if len(marks) != self.BLOCK_TRIALS:
                    raise RuntimeError(
                        f"saw {len(marks)} trial starts in a block of {self.BLOCK_TRIALS};"
                        " run_audit no longer calls gen_space once per trial"
                    )
                self.next_trial += self.BLOCK_TRIALS
                starts = [t0] + [m[1] for m in marks[1:]]
                ends = [m[0] for m in marks[1:]] + [t1]
                durations = [e - s for s, e in zip(starts, ends)]
                durations[0] -= marks[0][1] - marks[0][0]  # calibration before trial 0
                phase.attempted += 1
                phase.samples[inputs.cls].extend(durations)
                phase.starts[inputs.cls].extend(starts)
                phase.verdicts[inputs.cls] += sum(
                    s.passes + s.failures for s in report.stats.values())
                phase.reports.append((b, inputs.cls, report))
                phase.speed.tick()
        finally:
            audit.gen_space = generate
        phase.wall = clock() - start
        phase.speed.tick(force=True)
        return phase

    def check(self, phase):
        audit = self.m["betacover.audit"]
        found = {c: set() for c in CLASSES}
        blocks = {c: [] for c in CLASSES}
        failed = set()
        for b, cls, report in phase.reports:
            blocks[cls].append(b)
            for tid, st in report.stats.items():
                problem = None
                ce = st.first_counterexample
                try:
                    replays = ce is None or audit.replay(ce).outcome == audit.FAIL
                except Exception:  # a counterexample that cannot be replayed
                    replays = False
                if st.passes + st.failures + st.skips != report.trials:
                    problem = "pass + fail + skip != trials"
                elif st.failures and ce is None:
                    problem = "failures without a counterexample"
                elif not replays:
                    problem = "first counterexample does not replay to FAIL"
                elif st.status == "law" and st.failures and tid not in KNOWN_REFUTED:
                    problem = f"law failed {st.failures} times"
                elif ce is not None and tid in KNOWN_REFUTED:
                    found[cls].add(tid)
                if problem:
                    failed.add(b)
                    phase.problems.append(f"block {b}: {tid}: {problem}")
                    break
        for cls in CLASSES:
            missing = sorted(set(KNOWN_REFUTED) - found[cls])
            if blocks[cls] and missing:
                failed.update(blocks[cls])
                phase.problems.append(f"{cls} blocks: {missing} no longer refuted")
        phase.failed += len(failed)
        phase.problems = phase.problems[:20]

    def input_bytes(self, b):
        c = self.make(b).config
        return repr((c.universe_size, c.parameter_count, c.grid_denominator, c.seed,
                     self.BLOCK_TRIALS)).encode()


WORKLOADS = {w.name: w for w in (Audit, OracleXcheck, CliApproximate)}


# -- end-to-end metrics --------------------------------------------------------


def end_to_end(workload, phase):
    """Throughput of the design mix, and per-class latency."""
    metrics, notes = {}, []
    mean, per_op = {}, {}
    calibrated = {}
    for c in CLASSES:
        xs = calibrated[c] = phase.calibrated(c)
        if not xs:
            raise RuntimeError(f"no {c} operation completed; raise --seconds")
        mean[c] = sum(xs) / len(xs)
        per_op[c] = phase.verdicts[c] / len(xs)
    w = workload.weights
    seconds_per_op = sum(w[c] * mean[c] for c in CLASSES)
    metrics["ops_per_s"] = (1 / seconds_per_op, "1/s")
    metrics["verdicts_per_s"] = (sum(w[c] * per_op[c] for c in CLASSES) / seconds_per_op, "1/s")
    for c in CLASSES:
        xs = sorted(calibrated[c])
        p = workload.tail[c]
        tail = percentile(xs, p)
        metrics[f"{c}_ms_p50"] = (statistics.median(xs) * 1000, "ms")
        metrics[f"{c}_ms_tail"] = (tail * 1000, "ms")
        beyond = sum(1 for x in xs if x > tail)
        raw = phase.samples[c]
        notes.append(f"{c}: {len(xs)} samples, tail = p{p} with {beyond} beyond; "
                     f"raw p50 {statistics.median(raw) * 1000:.4g} ms, "
                     f"raw p{p} {percentile(sorted(raw), p) * 1000:.4g} ms")
    cal = phase.speed.values
    notes.append(f"calibration: {len(cal)} samples, median {statistics.median(cal) * 1e3:.4g} ms "
                 f"(reference {REFERENCE_CALIBRATION * 1e3:.4g} ms), "
                 f"min {min(cal) * 1e3:.4g} max {max(cal) * 1e3:.4g}")
    return metrics, notes

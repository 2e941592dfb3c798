"""ietlab benchmark: census, itinerary, certify and cli workloads.

    python3 bench/run.py --workload census --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; ietlab is imported from `src/`.
Each workload runs in its own process: set-up is timed in fresh child
interpreters, then one warm-up task of each kind, then whole rounds of the
workload's fixed task list until `--seconds` have passed.  Every output is
checked (see checks.py and workloads.py).  The last line of stdout is one
JSON object: correct, attempted, failed and the metrics, the end-to-end ones
with `--trace 0` and the per-layer ones with `--trace 1`.
`--workload all` runs the four workloads one after another as child
processes and prints a table.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from statistics import median

from checks import CheckError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("census", "itinerary", "certify", "cli")
SETUP_SAMPLES = 9          # fresh interpreters per run, after one warm-up
IMPORT_SAMPLES = 7


def _require_source():
    if not (SRC / "ietlab" / "__init__.py").is_file():
        sys.exit(f"bench: no ietlab source at {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import ietlab
    if Path(ietlab.__file__).resolve().parent != SRC / "ietlab":
        sys.exit(f"bench: imported ietlab from {ietlab.__file__}, not {SRC}")


def _first_line_s(argv) -> tuple[float, bytes]:
    """Seconds from spawning a fresh interpreter to its first output line,
    and the rest of its output."""
    from workloads import child_env
    env = child_env()
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT, env=env)
    proc.stdout.readline()
    elapsed = time.perf_counter() - start
    rest = proc.stdout.read()
    proc.stdout.close()
    if proc.wait() != 0:
        sys.exit(f"bench: {argv[1:]} exited {proc.returncode}")
    return elapsed, rest


class SetupProbes:
    """Set-up time: fresh interpreters that import ietlab and build the
    workload's inputs, timed up to the point the first task could start.
    The SETUP_SAMPLES probes are spread evenly over the measured rounds, so
    they meet the host's drift as the tasks do, and are scaled like CLI
    calls; the metric is their median."""

    def __init__(self, workload, seed, seconds):
        self.argv = [sys.executable, str(HERE / "run.py"), "--setup-probe",
                     "--workload", workload, "--seed", str(seed)]
        _first_line_s(self.argv)        # warm-up: page cache, .pyc files
        self.speed = HostSpeed(*CHILD_REFERENCE)
        self.every = seconds / SETUP_SAMPLES
        self.samples, self.taken, self.start = [], 0, None

    def _take(self):
        if self.speed.due():
            self.speed.settle()
        self.speed.add(self.samples, _first_line_s(self.argv)[0])
        self.taken += 1

    def when_due(self):
        """Called between tasks: take the next probe if its time has come."""
        if self.start is None:
            self.start = time.perf_counter()
        if (self.taken < SETUP_SAMPLES and
                time.perf_counter() - self.start >= self.taken * self.every):
            self._take()

    def median_s(self):
        while self.taken < SETUP_SAMPLES:
            self._take()
        self.speed.settle()
        return median(self.samples)


def measure_import_ms() -> float:
    code = ("import time; t = time.perf_counter(); import ietlab; "
            "print(); print(time.perf_counter() - t)")
    argv = [sys.executable, "-c", code]
    samples = [float(_first_line_s(argv)[1]) for _ in range(IMPORT_SAMPLES + 1)]
    return median(samples[1:]) * 1e3


def setup_probe(workload, seed):
    _require_source()
    import workloads
    workdir = OUT / f"setup-{os.getpid()}"
    try:
        workloads.build(workload, seed, workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _reference_loop():
    """Fixed interpreter work, no ietlab: integer, dict and Fraction
    arithmetic, about 1.5 ms here."""
    acc, table = 0, {}
    for i in range(3000):
        acc += i * i % 7
        table[i & 255] = acc
    f = Fraction(1, 3)
    for i in range(120):
        f = (f * 3 + Fraction(i, 7)) / 5
    return acc, f


def _in_process_reference():
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _reference_loop()
        times.append(time.perf_counter() - start)
    return median(times)


_CHILD_CODE = ("import argparse, csv, fractions, json, numpy\n"
               "acc = 0\nfor i in range(20000):\n    acc += i * i % 7\n")


def _child_reference():
    """A fresh interpreter that imports what the CLI's start-up imports,
    less ietlab, and loops briefly; about 0.2 s here."""
    from workloads import child_env
    env = child_env()
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", _CHILD_CODE], check=True, env=env)
    return time.perf_counter() - start


# (sampler, nominal seconds, seconds between samples)
IN_PROCESS_REFERENCE = (_in_process_reference, 1.5e-3, 0.25)
CHILD_REFERENCE = (_child_reference, 0.2, 1.0)


class HostSpeed:
    """Scales times to a fixed speed of the host.

    The shared host's speed drifts by up to 2x over tens of seconds, and
    raw seconds of the same code disagreed by 35% between runs.  A
    reference is timed between tasks, at least every `every` seconds, and
    a task's time is scaled by `nominal` over the mean of the reference
    times taken just before and just after it.  The result reads as seconds
    on a host that runs the reference in `nominal` seconds.  Work done in
    this process is scaled by an in-process loop; child processes by a
    child reference, since the in-process loop tracked their speed worse
    than no scaling did.
    """

    def __init__(self, sample, nominal, every):
        self.sample, self.nominal, self.every = sample, nominal, every
        self.last = sample()
        self.taken = time.perf_counter()
        self.pending = []       # (list to append to, raw seconds)

    def due(self):
        return time.perf_counter() - self.taken >= self.every

    def add(self, into, raw_s):
        self.pending.append((into, raw_s))

    def settle(self):
        """Take a sample and scale everything timed since the last one."""
        now = self.sample()
        scale = self.nominal / ((self.last + now) / 2)
        for into, raw in self.pending:
            into.append(raw * scale)
        self.pending.clear()
        self.last, self.taken = now, time.perf_counter()


class Runner:
    """Runs tasks, times them, checks their outputs and keeps the tallies;
    task times are scaled by `reference` (see HostSpeed)."""

    def __init__(self, reference=IN_PROCESS_REFERENCE):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.task_s = {}        # task name -> its scaled times over rounds
        self.child_rss_kb = 0   # largest CLI child, from its own rusage
        self.speed = HostSpeed(*reference)

    def run(self, task, count=True):
        if count and self.speed.due():
            self.speed.settle()
        out = None
        start = time.perf_counter()
        try:
            out = task.run()
        except Exception:
            self.errors.append(f"{task.name}: {traceback.format_exc()}")
            ok, elapsed = False, time.perf_counter() - start
        else:
            elapsed = time.perf_counter() - start
            try:
                ok = task.check(out)
            except CheckError as exc:
                self.errors.append(f"{task.name}: {exc}")
                ok = True       # wrong output: counted by `correct`
        self.child_rss_kb = max(self.child_rss_kb,
                                getattr(out, "maxrss_kb", 0))
        if count:
            self.attempted += 1
            self.failed += not ok
            self.speed.add(self.task_s.setdefault(task.name, []), elapsed)
        return elapsed, out if ok else None

    def round(self, tasks, count=True, between=None):
        """One pass over the task list: (summed raw task time, outputs).
        `between` is called after each task."""
        done = []
        for t in tasks:
            done.append(self.run(t, count))
            if between:
                between()
        if count:
            self.speed.settle()
        return sum(e for e, _ in done), [out for _, out in done]

    def task_medians(self):
        """Each task's median scaled time over the rounds."""
        return [median(v) for v in self.task_s.values()]

    def warm_up(self, tasks):
        seen = set()
        for t in tasks:
            if t.kind not in seen:
                seen.add(t.kind)
                self.run(t, count=False)

    def rounds_for(self, tasks, seconds, between=None):
        start = time.perf_counter()
        while True:
            self.round(tasks, between=between)
            if time.perf_counter() - start >= seconds:
                return


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, seed, seconds):
    import workloads
    probes = SetupProbes(workload, seed, seconds)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        tasks = workloads.build(workload, seed, workdir)
        runner = Runner(CHILD_REFERENCE if workload == "cli"
                        else IN_PROCESS_REFERENCE)
        runner.warm_up(tasks)
        runner.rounds_for(tasks, seconds, between=probes.when_due)
        setup_s = probes.median_s()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_kb = (runner.child_rss_kb if workload == "cli" else
               resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    metrics = {
        "wall_s": _metric(sum(runner.task_medians()), "s"),
        "task_p50_ms": _metric(median(runner.task_medians()) * 1e3, "ms"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(peak_kb / 1024, "MB"),
    }
    return runner, metrics


def numbers_ns(reps=5):
    """ns per Quadratic compare, multiply and divide, on consecutive points
    of an exact golden orbit (timed loops, no spans)."""
    from ietlab import iet
    import workloads
    pts = iet.orbit(workloads.golden_exact(), Fraction(1, 7), 200).points[1:]
    pairs = list(zip(pts, pts[1:]))
    ops = {"cmp": lambda a, b: a < b, "mul": lambda a, b: a * b,
           "div": lambda a, b: a / b}
    out = {}
    for name, op in ops.items():
        times = []
        for _ in range(reps):
            start = time.perf_counter_ns()
            for a, b in pairs:
                op(a, b)
            times.append((time.perf_counter_ns() - start) / len(pairs))
        out[name] = median(times)
    return out


def _scaled_round(runner, tasks, count):
    """A round's summed task time scaled by in-process reference samples
    taken just before and after it (see HostSpeed), and its outputs."""
    sample, nominal, _ = IN_PROCESS_REFERENCE
    before = sample()
    elapsed, outs = runner.round(tasks, count)
    return elapsed * nominal / ((before + sample()) / 2), outs


def traced(workload, seed, seconds):
    """Per-layer metrics: spans around ietlab calls on one traced round of
    every workload, more traced rounds of `workload` until `seconds` pass.
    attempted/failed count the first traced round of each workload."""
    import workloads
    from spans import Tracer, layer_metrics
    workdir = OUT / f"work-{os.getpid()}"
    try:
        built = {w: workloads.build(w, seed, workdir / w) for w in WORKLOADS}
        local = dict(built, cli=[workloads.in_process(t)
                                 for t in built["cli"]])
        runner = Runner()
        for w in WORKLOADS:
            runner.warm_up(local[w])
        untraced_s = _scaled_round(runner, local[workload], False)[0]
        tracer = Tracer()
        tracer.install()
        rounds, traced_s = {}, []
        try:
            for w in (workload,) + tuple(x for x in WORKLOADS if x != workload):
                tracer.workload = w
                start = time.perf_counter()
                elapsed, outs = _scaled_round(runner, local[w], True)
                rounds[w] = 1
                if w == "cli":
                    doc_bytes = sum(len(o.stdout) for o in outs if o)
                if w == workload:
                    traced_s.append(elapsed)
                    while time.perf_counter() - start < seconds:
                        traced_s.append(
                            _scaled_round(runner, local[w], False)[0])
                        rounds[w] += 1
        finally:
            tracer.remove()
        runner.run(built["cli"][0], count=False)    # warm-up: bytecode cache
        process = {}
        for t in built["cli"]:
            process.setdefault(t.argv[0], []).append(
                runner.run(t, count=False)[0] * 1e3)
        extra = {
            "numbers_ns": numbers_ns(), "import_ms": measure_import_ms(),
            "process_ms": {k: sum(v) / len(v) for k, v in process.items()},
            "doc_bytes": doc_bytes,
            "overhead_s": median(traced_s) - untraced_s}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tracer.write(OUT / f"trace-{workload}-{seed}.jsonl")
    return runner, layer_metrics(tracer, rounds, extra)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    _require_source()
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    if args.trace:
        runner, metrics = traced(args.workload, args.seed, args.seconds)
    else:
        runner, metrics = end_to_end(args.workload, args.seed, args.seconds)
    for err in runner.errors[:10]:
        print(f"CHECK FAILED {err}", file=sys.stderr)
    correct = not runner.errors
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args):
    """Each workload in its own process, one after another."""
    results = {}
    for w in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", w,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT, stdout=subprocess.PIPE)
        lines = proc.stdout.decode().strip().splitlines()
        if not lines:
            sys.exit(f"bench: workload {w} printed no result")
        results[w] = json.loads(lines[-1])
    print(f"{'workload':10} {'metric':34} {'value':>14} unit")
    for w, res in results.items():
        for name, m in res["metrics"].items():
            print(f"{w:10} {name:34} {m['value']:14.6g} {m['unit']}")
        print(f"{w:10} {'correct / attempted / failed':34} "
              f"{str(res['correct']):>14} {res['attempted']} {res['failed']}")
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": m for w, r in results.items()
                    for k, m in r["metrics"].items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

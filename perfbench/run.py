"""foldspace benchmark: one seeded workload, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up imports ``foldspace`` from ``src/`` of the checkout, generates the
seeded inputs and writes their files; it is repeated ``SETUP_REPS`` times.
Then whole passes over the job list run until their jobs have taken
``--seconds`` in all; output checks run between passes and are not counted.
Every job, traced or not, calls ``foldspace.cli.main`` in this process, so
an untraced job does exactly what a user's invocation does.

Times are reported at the reference speed of the host.  On a host whose
cores are shared the same code runs at a speed that changes within a
second, by a fifth on average and by up to 1.8 times for minutes at a time,
in CPU time as much as in wall time.  So a fixed pure-Python loop
(``reference``) is timed around every set-up and, between jobs, at least
every ``REF_EVERY_S``, and each measured time is multiplied by ``REF_S``
over the mean of the two timings that bracket it: what the host's slow
spells add to the program's time they add to the loop's too, while a change
to ``foldspace`` moves only the program's.  The passes' wall times are
printed to standard error.

``batch_s`` is the median pass time (the summed job times of one pass),
``setup_s`` the median set-up.  A job's time is its median over the passes;
``job_p50_s`` is the median of those and ``job_tail_s`` the highest one
with ``TAIL_BEYOND`` jobs above it, whose percentile is printed before the
result.  ``peak_rss_mib`` is the process's peak resident memory after
set-up and the first pass's jobs, read before any output check runs.

Every job's first report is checked (``oracles.py`` and the recorded
digests of canned inputs) after its pass; later passes must repeat its
bytes.  A job that exits nonzero, exceeds ``JOB_LIMIT_S`` or fails a check
counts in ``failed`` and is never dropped.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends the first
half of the time untraced and the second half traced (``traced.py``), and
prints per-layer self times, exact work counts and the trace overhead.
Spans go to ``perfbench/out/trace-<workload>.json`` at the end of the run.
The last line of standard output is the JSON result.
"""

import argparse
import gc
import hashlib
import importlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPS = 5
JOB_LIMIT_S = 30.0
TAIL_BEYOND = 10
REF_S = 0.0075     # ``reference`` at the usual speed of a 2-vCPU cloud VM
REF_EVERY_S = 0.1
MODULES = ("cli", "cones", "decomposition", "examples", "graphs",
           "io_formats", "lamination", "metric", "morphisms", "reports",
           "sequences", "walk")

import oracles                     # noqa: E402  (no foldspace imports)
import traced                      # noqa: E402
from workloads import WORKLOADS    # noqa: E402


class JobTimeout(BaseException):
    """Raised in the job by the per-job timer; BaseException so no
    handler inside the package can swallow it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def import_foldspace():
    """Fresh import of the package (drops any earlier import)."""
    for name in [m for m in sys.modules
                 if m == "foldspace" or m.startswith("foldspace.")]:
        del sys.modules[name]
    importlib.import_module("foldspace")
    return SimpleNamespace(**{m: importlib.import_module(f"foldspace.{m}")
                              for m in MODULES})


def reference():
    """Fixed pure-Python work of the kinds ``foldspace`` does: Fraction
    sums, big-integer products, dict and tuple updates."""
    total, table, window = Fraction(0), {}, ()
    for i in range(1, 1500):
        total += Fraction(i % 97 + 1, i)
        table[i % 313] = (table.get(i % 313, 0) * 31 + i) % 1000003
        window = (window + (i,))[-50:]
    x = 3 ** 3000
    for i in range(200):
        x = (x * (i + 7)) >> 3
    return total, window, x


class HostSpeed:
    """Timings of ``reference`` taken all through the run: around every
    set-up and, between jobs, at least every ``REF_EVERY_S``.  The host's
    speed changes within a second, so each measured time is scaled by the
    two timings that bracket it."""

    def __init__(self):
        self.times = []
        self.last = -REF_EVERY_S

    def sample(self, force=False):
        """Time ``reference`` if ``REF_EVERY_S`` has passed since the last
        timing, or if ``force``; returns the index of the latest timing."""
        t0 = time.perf_counter()
        if force or t0 - self.last >= REF_EVERY_S:
            reference()
            self.last = time.perf_counter()
            self.times.append(self.last - t0)
        return len(self.times) - 1

    def scale(self, k):
        """Factor that turns a time measured between timings k and k + 1
        into the time at the reference speed."""
        return 2 * REF_S / (self.times[k] + self.times[k + 1])


def setup(workload, seed, workdir, speed):
    """Import, generate and write the inputs SETUP_REPS times; returns the
    last repetition's package and jobs and every repetition's time."""
    times = []
    for rep in range(SETUP_REPS):
        directory = os.path.join(workdir, f"rep{rep}")
        shutil.rmtree(directory, ignore_errors=True)
        gc.collect()
        k = speed.sample(force=True)
        t0 = time.perf_counter()
        fs = import_foldspace()
        jobs = WORKLOADS[workload](fs, random.Random(seed), directory)
        elapsed = time.perf_counter() - t0
        speed.sample(force=True)
        times.append(elapsed * speed.scale(k))
    return fs, jobs, times


def run_job(fs, tracer, job):
    """(ok, report text, message) of one job; with the null tracer it runs
    exactly as a user's invocation does."""
    rc, text, err = traced.run_job(fs, tracer, job)
    if rc != 0:
        return False, None, f"exit {rc}: {err.strip()}"
    return True, text, ""


def timed(fn, *args):
    """(seconds, result) of fn under the per-job limit; a timeout or an
    exception escaping the package is a failed job, not a crash."""
    signal.setitimer(signal.ITIMER_REAL, JOB_LIMIT_S)
    t0 = time.perf_counter()
    try:
        result = fn(*args)
    except JobTimeout:
        result = (False, None, f"exceeded the {JOB_LIMIT_S:.0f} s job limit")
    except Exception:
        result = (False, None, traceback.format_exc())
    finally:
        elapsed = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    return elapsed, result


def load_digests():
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        return json.load(fh)


class Runner:
    """Runs passes, checks outputs and keeps the per-job figures."""

    def __init__(self, fs, jobs, digests, speed):
        self.fs = fs
        self.speed = speed
        self.jobs = jobs
        self.digests = digests
        self.first = {}          # job id -> sha256 of its first report
        self.chains = {}         # oracle cache of parsed inputs
        self.attempted = 0
        self.failed = 0
        self.times = {job.job_id: [] for job in jobs}
        self.pass_times = []       # at the reference speed
        self.raw_pass_times = []
        self.peak_rss_mib = None

    def fail(self, job, message):
        self.failed += 1
        print(f"# FAILED {job.job_id}: {message}", file=sys.stderr)

    def verify(self, job, text):
        """True when the report is correct: exact checks on the first run,
        identical bytes afterwards."""
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if job.job_id in self.first:
            if digest != self.first[job.job_id]:
                self.fail(job, "report bytes changed between runs")
                return False
            return True
        self.first[job.job_id] = digest
        problems = oracles.check(self.fs, job, text, self.chains)
        if job.canned is not None and self.digests.get(job.canned) != digest:
            problems.append(f"report digest {digest[:12]} differs from "
                            "the one recorded for this canned input")
        for problem in problems:
            self.fail(job, problem)
        return not problems

    def untraced_pass(self):
        """One timed pass; reports are checked after it, so the checks'
        memory does not slow the jobs."""
        gc.collect()
        results = []
        for job in self.jobs:
            self.attempted += 1
            k = self.speed.sample()
            results.append((job, k, *timed(run_job, self.fs,
                                           traced.NullTracer(), job)))
        self.speed.sample(force=True)
        self.raw_pass_times.append(sum(t for _, _, t, _ in results))
        if self.peak_rss_mib is None:    # before any check runs
            self.peak_rss_mib = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
        total = 0.0
        for job, k, elapsed, (ok, text, message) in results:
            elapsed *= self.speed.scale(k)
            total += elapsed
            self.times[job.job_id].append(elapsed)
            if not ok:
                self.fail(job, message)
            else:
                self.verify(job, text)
        self.pass_times.append(total)
        self.chains.clear()

    def traced_pass(self, tracer, counts):
        """One traced pass; returns its spans and each job's speed scale.
        Counts are taken once per job, after the job's spans have closed."""
        gc.collect()
        start = len(tracer.spans)
        results = []
        for job in self.jobs:
            self.attempted += 1
            k = self.speed.sample()
            tracer.job, tracer.facts = job.job_id, {}
            with traced.instrumented(self.fs, tracer):
                _, result = timed(run_job, self.fs, tracer, job)
            results.append((job, k, result, tracer.facts))
        self.speed.sample(force=True)
        scales = {}
        for job, k, (ok, text, message), facts in results:
            scales[job.job_id] = self.speed.scale(k)
            if not ok:
                self.fail(job, message)
            elif self.verify(job, text) and job.job_id not in counts:
                counts[job.job_id] = oracles.job_counts(job, text, facts)
        return tracer.spans[start:], scales


PER_LAYER_TIMES = (
    "io_formats.parse", "sequences.validate", "sequences.taken",
    "sequences.track", "sequences.decay", "sequences.image_lengths",
    "sequences.expansion", "cones.build", "cones.verdict",
    "lamination.allowed_words", "lamination.complexity",
    "lamination.components", "lamination.cylinder",
    "decomposition.transverse", "decomposition.moduli",
    "decomposition.recurrence", "decomposition.sanity", "metric.progress",
    "metric.speed", "metric.lipschitz", "metric.thickness",
    "metric.bruteforce", "walk.run", "reports.dumps", "cli")
PER_LAYER_COUNTS = (
    "io_formats.files", "reports.bytes", "sequences.steps", "sequences.runs",
    "sequences.track_max_bits", "sequences.expansion_edges",
    "cones.products", "cones.max_bits", "lamination.windows_scanned",
    "lamination.words_distinct", "metric.candidates",
    "metric.words_checked", "walk.steps", "walk.max_bits")


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(runner, setup_times):
    per_job = sorted(statistics.median(t) for t in runner.times.values())
    n = len(per_job)
    tail_rank = n - TAIL_BEYOND           # 1-based rank with 10 jobs beyond
    print(f"# job_tail_s is the p{100 * tail_rank / n:.1f} job time: "
          f"{TAIL_BEYOND} of {n} jobs lie beyond it "
          f"({len(runner.pass_times)} passes)")
    return {
        "batch_s": metric(statistics.median(runner.pass_times), "s"),
        "job_p50_s": metric(statistics.median(per_job), "s"),
        "job_tail_s": metric(per_job[tail_rank - 1], "s"),
        "setup_s": metric(statistics.median(setup_times), "s"),
        "peak_rss_mib": metric(runner.peak_rss_mib, "MiB"),
    }


def root_time(spans, scales=None):
    """Time of a traced pass: the sum of its jobs' ``cli`` spans, each
    multiplied by its job's scale if ``scales`` is given."""
    return sum((t1 - t0) * (scales[job] if scales else 1.0)
               for job, _, parent, _, t0, t1 in spans if parent is None)


def per_layer(runner, pass_spans, counts):
    """Self times are medians over the traced passes; the overhead is the
    median traced pass minus the median untraced pass.  All are at the
    reference speed."""
    metrics = {}
    selfs = [traced.self_times(spans, scales) for spans, scales in pass_spans]
    for name in PER_LAYER_TIMES:
        metrics[f"{name}_s"] = metric(
            statistics.median(s.get(name, 0.0) for s in selfs), "s")
    total = {}
    for c in counts.values():
        oracles.merge_counts(total, c)
    for name in PER_LAYER_COUNTS:
        metrics[name] = metric(total.get(name, 0), "count")
    scanned = total.get("lamination.windows_scanned", 0)
    metrics["lamination.useful_ratio"] = metric(
        total.get("lamination.words_distinct", 0) / scanned if scanned
        else 0.0, "ratio")
    traced_batch = statistics.median(root_time(spans, scales)
                                     for spans, scales in pass_spans)
    untraced_batch = statistics.median(runner.pass_times)
    metrics["trace.batch_s"] = metric(traced_batch, "s")
    metrics["trace.overhead_s"] = metric(traced_batch - untraced_batch, "s")
    return metrics


def write_spans(workload, seed, spans):
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"trace-{workload}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "fields": ["job", "span", "parent", "name", "start",
                              "end"],
                   "spans": spans}, fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "foldspace")):
        print(f"foldspace sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    signal.signal(signal.SIGALRM, _on_alarm)
    workdir = os.path.join(HERE, "work", f"{args.workload}-{args.seed}")
    speed = HostSpeed()
    try:
        fs, jobs, setup_times = setup(args.workload, args.seed, workdir,
                                      speed)
        runner = Runner(fs, jobs, load_digests(), speed)
        budget = args.seconds / 2 if args.trace else args.seconds
        while sum(runner.raw_pass_times) < budget:
            runner.untraced_pass()
        if args.trace:
            tracer = traced.Tracer()
            counts, pass_spans = {}, []
            spent = sum(runner.raw_pass_times)
            while not pass_spans or spent < args.seconds:
                pass_spans.append(runner.traced_pass(tracer, counts))
                spent += root_time(pass_spans[-1][0])
            metrics = per_layer(runner, pass_spans, counts)
            write_spans(args.workload, args.seed, tracer.spans)
        else:
            metrics = end_to_end(runner, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("# untraced passes, wall s: "
          + " ".join(f"{t:.3f}" for t in runner.raw_pass_times)
          + "\n# at the reference speed: "
          + " ".join(f"{t:.3f}" for t in runner.pass_times)
          + f"\n# reference loop timed {len(speed.times)} times",
          file=sys.stderr)
    print(json.dumps({"correct": runner.failed == 0,
                      "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

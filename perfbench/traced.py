"""Traced runs: the real ``foldspace.cli.main`` with a span around every
call into a module.

``cli`` calls the functions it imports as module globals, so the traced run
replaces those globals (``CLI_SPANS``) with wrappers for the duration of a
job, and likewise the ``FoldingSequence`` methods that other modules call
(``METHOD_SPANS``: validation inside parsing, taken turns, image lengths and
expansions inside the lamination harvest).  The traced job therefore runs
exactly the user's path and must print the same bytes; the runner checks
that for every traced job.  The wrappers also keep what the calls return
(``FACTS``), which the per-layer counts are read from.

The ``sandwich`` body has no CLI subcommand; the untraced run executes it
with the null tracer.
"""

import contextlib
import io
import time
from contextlib import contextmanager, nullcontext


class Tracer:
    """In-memory spans: (job id, span id, parent span id, name, start, end),
    and the current job's facts."""

    def __init__(self):
        self.spans = []
        self.job = None
        self.facts = {}
        self._stack = []

    @contextmanager
    def span(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [self.job, sid, parent, name, time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            rec[5] = time.perf_counter()
            self._stack.pop()

    def keep(self, fact, value):
        self.facts.setdefault(fact, []).append(value)


class NullTracer:
    def span(self, name):
        return nullcontext()

    def keep(self, fact, value):
        pass


def self_times(spans, scales):
    """Per span name: duration minus the time covered by child spans, each
    multiplied by its job's entry in ``scales``."""
    child = {}
    for _, _, parent, _, t0, t1 in spans:
        if parent is not None:
            child[parent] = child.get(parent, 0.0) + (t1 - t0)
    out = {}
    for job, sid, _, name, t0, t1 in spans:
        out[name] = out.get(name, 0.0) + scales[job] * (
            (t1 - t0) - child.get(sid, 0.0))
    return out


# ``foldspace.cli`` global -> span name
CLI_SPANS = {
    "parse_sequence": "io_formats.parse",
    "parse_graph": "io_formats.parse",
    "simplicial_length_measure": "sequences.track",
    "frequency_current": "sequences.track",
    "current_track_from_initial": "sequences.track",
    "length_track_from_terminal": "sequences.track",
    "decay_check": "sequences.decay",
    "current_cone": "cones.build",
    "length_cone": "cones.build",
    "ergodicity_verdict": "cones.verdict",
    "allowed_words": "lamination.allowed_words",
    "complexity_profile": "lamination.complexity",
    "minimal_components": "lamination.components",
    "transverse_decomposition_unfolding": "decomposition.transverse",
    "transverse_decomposition_folding": "decomposition.transverse",
    "moduli_window": "decomposition.moduli",
    "recurrence_check": "decomposition.recurrence",
    "structural_sanity": "decomposition.sanity",
    "ff_progress_diagnostic": "metric.progress",
    "linearity_and_speed": "metric.speed",
    "lipschitz_distance": "metric.lipschitz",
    "thickness": "metric.thickness",
    "lipschitz_bruteforce": "metric.bruteforce",
    "run_walk": "walk.run",
    "dumps_json": "reports.dumps",
}

# ``FoldingSequence`` method -> span name
METHOD_SPANS = {
    "validate": "sequences.validate",
    "taken_turns_at": "sequences.taken",
    "image_lengths": "sequences.image_lengths",
    "expansion": "sequences.expansion",
}

# ``foldspace.cli`` global -> fact its results are kept under
FACTS = {
    "parse_sequence": "seq",
    "simplicial_length_measure": "tracks",
    "frequency_current": "tracks",
    "current_track_from_initial": "tracks",
    "length_track_from_terminal": "tracks",
    "current_cone": "cones",
    "length_cone": "cones",
    "lipschitz_distance": "lipschitz",
    "lipschitz_bruteforce": "bruteforce",
    "run_walk": "walk",
}


def _wrap(tracer, fn, span_name, fact):
    def wrapper(*args, **kwargs):
        with tracer.span(span_name):
            result = fn(*args, **kwargs)
        if fact is not None:
            tracer.keep(fact, result)
        return result
    return wrapper


@contextmanager
def instrumented(fs, tracer):
    """Wrap the ``cli`` globals and ``FoldingSequence`` methods above;
    restored on exit."""
    targets = [(fs.cli, name, span, FACTS.get(name))
               for name, span in CLI_SPANS.items()]
    targets += [(fs.sequences.FoldingSequence, name, span, None)
                for name, span in METHOD_SPANS.items()]
    originals = [(owner, name, getattr(owner, name))
                 for owner, name, _, _ in targets]
    try:
        for (owner, name, span, fact), (_, _, fn) in zip(targets, originals):
            setattr(owner, name, _wrap(tracer, fn, span, fact))
        yield
    finally:
        for owner, name, fn in originals:
            setattr(owner, name, fn)


def _sandwich(fs, tr, p):
    """Exact cylinder sandwiches of the given words at every level."""
    with tr.span("io_formats.parse"):
        seq = fs.io_formats.parse_sequence(p["sequence"])
    tr.keep("seq", seq)
    with tr.span("sequences.track"):
        mu = fs.sequences.frequency_current(seq)
    tr.keep("tracks", mu)
    with tr.span("lamination.cylinder"):
        rows = [[fs.lamination.sandwich_report(seq, mu, word, level)
                 for level in seq.levels] for word in p["words"]]
    report = {"words": [list(w) for w in p["words"]],
              "levels": list(seq.levels), "sandwich": rows}
    with tr.span("reports.dumps"):
        return 0, fs.reports.dumps_json(report), ""


def run_job(fs, tracer, job):
    """(exit code, report text, standard error) of one job; the ``cli``
    span is the job boundary."""
    with tracer.span("cli"):
        if job.cmd == "sandwich":
            return _sandwich(fs, tracer, job.params)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            try:
                rc = fs.cli.main(job.argv())
            except SystemExit as exc:
                rc = exc.code
        return rc, out.getvalue(), err.getvalue()

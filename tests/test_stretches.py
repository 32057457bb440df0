"""Carries walk the runs through ``FoldingSequence._stretches``, and reports
do not depend on where the runs are cut.

``_stretches(kind, start, count)`` is the only code that clips runs to a
carry and orders them; it is checked against the steps one by one.  A
sequence stores runs of one step object, and adjacent runs merge only
when their step objects are the same object.  Cutting one run into two runs
of distinct but equal step objects changes the stretches every carry, cone
pattern and track read walks, not the chain: the ``cone``, ``fold`` (JSON and
CSV), ``decompose``, ``lamination`` and ``progress --speed`` reports must
keep their bytes, refusals included.
"""

import io
from bisect import bisect_right
from contextlib import redirect_stderr, redirect_stdout
from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from foldspace import FoldingSequence, GraphMorphism
from foldspace import cli

from test_lamination import _POOLS
from test_runs import _RUN_POOLS, _run_lists


def _twin(f):
    """A step object equal to ``f`` but not ``f`` itself."""
    images = {eid: f.edge_image(j + 1)
              for j, eid in enumerate(f.domain.edge_ids)}
    return GraphMorphism(f.domain, f.codomain, f.vertex_map, images)


@st.composite
def _cut_chains(draw):
    """(whole, cut): up to 8 runs of 1-6 steps over the transvection pools,
    or up to 3 runs of 2-120 steps of the Fibonacci or alternating-block
    steps, and the same chain with one run of two or more steps cut in two,
    its second part a twin step object."""
    if draw(st.booleans()):
        pool, counts, most = draw(st.sampled_from(_POOLS)), 6, 8
    else:
        pool, counts, most = draw(st.sampled_from(_RUN_POOLS)), 120, 3
    runs = draw(st.lists(st.tuples(st.sampled_from(pool),
                                   st.integers(1, counts)),
                         min_size=1, max_size=most), label="runs")
    direction = draw(st.sampled_from(("folding", "unfolding")))
    whole = FoldingSequence.from_runs(runs, direction)
    long = [r for r, (_, k, _) in enumerate(whole.step_runs) if k > 1]
    if not long:
        whole = FoldingSequence.from_runs(runs + [(runs[-1][0], 2)],
                                          direction)
        long = [len(whole.step_runs) - 1]
    r = draw(st.sampled_from(long), label="run")
    _, k, f = whole.step_runs[r]
    j = draw(st.integers(1, k - 1), label="cut")
    parts = [(g, m) for _, m, g in whole.step_runs]
    parts[r:r + 1] = [(f, j), (_twin(f), k - j)]
    cut = FoldingSequence.from_runs(parts, direction)
    assert len(cut.step_runs) == len(whole.step_runs) + 1
    return whole, cut


@settings(max_examples=300, deadline=None)
@given(chain=_run_lists(), data=st.data())
def test_stretches_are_the_carried_steps_in_order(chain, data):
    """A current carries the steps start .. start+count-1 rightward, a
    length the steps start-1 .. start-count leftward: the stretches are
    runs of at least one step of one step object, and they expand to
    exactly those steps, in carry order."""
    runs, direction = chain
    seq = FoldingSequence.from_runs(runs, direction)
    T = seq.n_steps
    kind = data.draw(st.sampled_from(("current", "length")), label="kind")
    start = data.draw(st.integers(0, T), label="start")
    count = data.draw(st.integers(0, T - start if kind == "current"
                                  else start), label="count")
    steps = range(start, start + count) if kind == "current" \
        else range(start - 1, start - count - 1, -1)
    stretches = list(seq._stretches(kind, start, count))
    assert all(k >= 1 for _, k in stretches)
    assert [id(f) for f, k in stretches for _ in range(k)] == \
        [id(seq._step(i)) for i in steps]
    # one stretch per run met
    assert len(stretches) == len({bisect_right(seq._run_starts, i)
                                  for i in steps})


def _report(seq, argv):
    """(exit code, stdout, stderr) of ``argv`` run on ``seq``."""
    out, err = io.StringIO(), io.StringIO()
    with patch.object(cli, "parse_sequence", lambda path: seq), \
            redirect_stdout(out), redirect_stderr(err):
        rc = cli.main([argv[0], "chain.sequence", *argv[1:]])
    return rc, out.getvalue(), err.getvalue()


@settings(max_examples=40, deadline=None)
@given(chains=_cut_chains(), data=st.data())
def test_cut_runs_keep_every_report(chains, data):
    whole, cut = chains
    T = whole.n_steps
    levels = whole.levels
    depth = data.draw(st.integers(0, T), label="depth")
    jobs = [("cone", "--depth", str(depth)), ("fold",),
            ("fold", "--format", "csv"), ("progress", "--speed"),
            ("lamination", "--depth", str(min(T, 4)), "--length", "3")]
    if T >= 3:
        n0 = data.draw(st.integers(levels[0], levels[-1] - 3), label="n0")
        n1 = data.draw(st.integers(n0 + 3, levels[-1]), label="n1")
        jobs.append(("decompose", f"--window={n0}:{n1}"))
    for argv in jobs:
        assert _report(cut, argv) == _report(whole, argv), argv

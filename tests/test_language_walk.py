"""One junction walk per lamination call against the per-length harvest it
replaced (``lamination_oracle``): the three public functions must give the
same results, and raise the same errors, by type and message, in the same
order of checks.  A ``lamination`` job makes one call of the driver behind
them, ``lamination._language``, which must give what the three calls give.
"""

from argparse import Namespace
from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from foldspace import (FoldingSequence, FoldspaceError, GraphMorphism,
                       allowed_words, complexity_profile, identity_morphism,
                       minimal_components, rose)
from foldspace import cli, lamination
from foldspace.io_formats import write_sequence
from foldspace.reports import dumps_json

import lamination_oracle
from test_lamination import _unfolding_chains


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (FoldspaceError, ValueError) as exc:
        return type(exc), str(exc)


def _agree(fn, *args, **kwargs):
    got = _outcome(fn, *args, **kwargs)
    want = _outcome(getattr(lamination_oracle, fn.__name__), *args, **kwargs)
    assert got == want, fn.__name__


@st.composite
def _chains(draw):
    """Chains from the pools, some behind identity steps at the deep end:
    there few turns are taken, so edges end paths and the last windows of
    their images occur nowhere else."""
    seq = draw(_unfolding_chains())
    lead = [identity_morphism(seq.graph_at(-seq.n_steps))] * draw(
        st.integers(0, 4), label="identity steps")
    return FoldingSequence(lead + list(seq.morphisms), "unfolding")


@settings(max_examples=500, deadline=None)
@given(seq=_chains(), data=st.data())
def test_one_walk_matches_per_length_harvest(seq, data):
    # depths and lengths just outside their ranges compare the errors
    depth = data.draw(st.integers(-1, seq.n_steps + 1), label="depth")
    source = data.draw(st.sampled_from(("taken", "legal")), label="source")
    # legal harvests on rank-4 roses grow fast with L
    L = data.draw(st.integers(0, 8 if source == "taken" else 4), label="L")
    require_depth = data.draw(st.booleans(), label="require_depth")
    kwargs = {"source": source, "require_depth": require_depth}
    _agree(allowed_words, seq, depth, L, budget=20_000, **kwargs)
    # the depth ladder of the lamination subcommand
    ladder = sorted({max(1, depth // 4), max(1, depth // 2), depth})
    _agree(complexity_profile, seq, ladder, L, **kwargs)
    _agree(minimal_components, seq, depth, L, **kwargs)


@settings(max_examples=300, deadline=None)
@given(seq=_chains(), data=st.data())
def test_complexity_profile_matches_on_any_two_depths(seq, data):
    # the second-deepest depth may lie outside the stored range, or have
    # images shorter than L_max that a stable scan reaches
    depths = data.draw(st.lists(st.integers(-1, seq.n_steps + 1),
                                min_size=1, max_size=3), label="depths")
    L = data.draw(st.integers(1, 8), label="L_max")
    require_depth = data.draw(st.booleans(), label="require_depth")
    _agree(complexity_profile, seq, depths, L, require_depth=require_depth)


@settings(max_examples=300, deadline=None)
@given(seq=_chains(), data=st.data())
def test_small_path_budget_matches_per_length_harvest(seq, data):
    # the same path budget on both sides, small enough that it refuses
    # some lengths: the refusal must come at the same (depth, L), and a
    # block of lengths past the budget falls back to the paths of each
    budget = data.draw(st.integers(4, 300), label="budget")
    depth = data.draw(st.integers(1, seq.n_steps), label="depth")
    source = data.draw(st.sampled_from(("taken", "legal")), label="source")
    L = data.draw(st.integers(1, 8), label="L")
    ladder = sorted({max(1, depth // 4), max(1, depth // 2), depth})
    kwargs = {"source": source, "require_depth": False}

    def capped(graph, allowed_turns, lengths, L, _):
        return lamination._harvest_paths(graph, allowed_turns, lengths, L,
                                         budget)

    with patch.object(lamination, "_BUDGET", budget), \
            patch.object(lamination_oracle, "_harvest_paths", capped):
        _agree(complexity_profile, seq, ladder, L, **kwargs)
        _agree(minimal_components, seq, depth, L, **kwargs)


def test_self_reverse_words_count_once():
    # unvalidated, so b -> a^-1 makes the depth-3 image of a cancel: it is
    # a a^-1, its own reverse, which the counts hold as one flip class
    g = rose("ab")
    f = GraphMorphism(g, g, {"*": "*"}, {"a": "a b", "b": "b"})
    h = GraphMorphism(g, g, {"*": "*"}, {"a": "a", "b": "-a"})
    seq = FoldingSequence([f, h, identity_morphism(g)], "unfolding",
                          validate=False)
    assert (1, -1) in allowed_words(seq, 3, 2, source="legal",
                                    require_depth=False).words
    for depths in ((1, 3), (2, 3)):
        for L in (2, 3):
            _agree(complexity_profile, seq, depths, L, source="legal",
                   require_depth=False)


def _three_calls(lib, seq, depth, L, ladder, **kwargs):
    return (lib.allowed_words(seq, depth, L, **kwargs),
            lib.complexity_profile(seq, ladder, L, **kwargs),
            lib.minimal_components(seq, depth, L, **kwargs))


def _job(cmd, seq, depth, L, source):
    """The report bytes and CSV rows of a ``lamination`` job on ``seq``."""
    with patch.object(cli, "parse_sequence", lambda _: seq):
        report, (header, rows) = cmd(seq, depth, L, source)
    return dumps_json(report), header, list(rows)


def _driver_job(seq, depth, L, source):
    return cli._cmd_lamination(Namespace(sequence="chain", depth=depth,
                                         length=L, source=source))


def _three_call_job(seq, depth, L, source):
    return lamination_oracle.three_call_lamination(lamination, seq, depth, L,
                                                   source)


@settings(max_examples=300, deadline=None)
@given(seq=_chains(), data=st.data())
def test_one_driver_call_matches_the_three_public_calls(seq, data):
    # depths and lengths just outside their ranges compare the errors,
    # and a refused (depth, L + 1) harvest comes after the half-depth scan
    depth = data.draw(st.integers(-1, seq.n_steps + 1), label="depth")
    source = data.draw(st.sampled_from(("taken", "legal")), label="source")
    L = data.draw(st.integers(0, 8 if source == "taken" else 4), label="L")
    require_depth = data.draw(st.booleans(), label="require_depth")
    kwargs = {"source": source, "require_depth": require_depth}
    ladder = sorted({max(1, depth // 4), max(1, depth // 2), depth})
    got = _outcome(lamination._language, seq, depth, L, source,
                   require_depth, depths=ladder, components=True)
    assert got == _outcome(_three_calls, lamination, seq, depth, L, ladder,
                           **kwargs)
    assert got == _outcome(_three_calls, lamination_oracle, seq, depth, L,
                           ladder, **kwargs)
    # the subcommand: the same bytes, or the same error, as three calls
    assert _outcome(_job, _driver_job, seq, depth, L, source) == \
        _outcome(_job, _three_call_job, seq, depth, L, source)


@settings(max_examples=200, deadline=None)
@given(seq=_chains(), data=st.data())
def test_one_driver_call_matches_under_a_small_path_budget(seq, data):
    # a budget that refuses some harvests, the (depth, L + 1) one among
    # them: its refusal must come where the three calls raise it
    budget = data.draw(st.integers(4, 300), label="budget")
    depth = data.draw(st.integers(1, seq.n_steps), label="depth")
    source = data.draw(st.sampled_from(("taken", "legal")), label="source")
    L = data.draw(st.integers(1, 8), label="L")
    ladder = sorted({max(1, depth // 4), max(1, depth // 2), depth})
    kwargs = {"source": source, "require_depth": False}

    def three_calls():
        return (allowed_words(seq, depth, L, budget=budget, **kwargs),
                complexity_profile(seq, ladder, L, **kwargs),
                minimal_components(seq, depth, L, **kwargs))

    with patch.object(lamination, "_BUDGET", budget):
        assert _outcome(lamination._language, seq, depth, L, source, False,
                        budget, depths=ladder, components=True) == \
            _outcome(three_calls)


def test_a_lamination_job_walks_once(fib_unfold20, tmp_path, capsys):
    seq_file = write_sequence(fib_unfold20, tmp_path, "fib20")
    calls = []
    walk = lamination._walk

    def counting(seq, levels, M):
        calls.append((list(levels), M))
        return walk(seq, levels, M)

    capsys.readouterr()
    with patch.object(lamination, "_walk", counting):
        assert cli.main(["lamination", seq_file, "--depth", "15",
                         "--length", "8"]) == 0
    # one walk at M = L + 1 records the depth and the half depth
    assert calls == [([-15, -7], 9)]
    report = capsys.readouterr().out
    assert report == dumps_json(lamination_oracle.three_call_lamination(
        lamination_oracle, fib_unfold20, 15, 8, "taken")[0])

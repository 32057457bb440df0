"""One junction walk per lamination call against the per-length harvest it
replaced (``lamination_oracle``): the three public functions must give the
same results, and raise the same errors, by type and message, in the same
order of checks."""

from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from foldspace import (FoldingSequence, FoldspaceError, GraphMorphism,
                       allowed_words, complexity_profile, identity_morphism,
                       minimal_components, rose)
from foldspace import lamination

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

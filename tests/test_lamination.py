"""Legal structures, allowed-word languages, cylinder weights, and minimal
components."""

import json
from fractions import Fraction
from math import ceil
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from foldspace import (BudgetExceededError, DirectionError, FoldingSequence,
                       GraphMorphism, InvalidTrackError, ShallowDepthError,
                       allowed_words, complexity_profile, cylinder_weight,
                       default_generators, flip_cylinder_weight,
                       frequency_current, gates, gen_alternating_block,
                       identity_morphism, minimal_components,
                       one_edge_extensions, oriented_mass, reverse_path, rose,
                       sandwich_report, simplicial_length_measure)
from foldspace import lamination
from foldspace.cli import main
from foldspace.errors import FormatError
from foldspace.io_formats import write_sequence
from foldspace.sequences import _turn


# -- legal structures ----------------------------------------------------


def test_gates_on_fibonacci(fib_unfold20):
    legal = gates(fib_unfold20, -3)
    g = legal.graph
    # composite first edges: a -> a, b -> a, -a -> -b, -b -> -a; the only
    # illegal turn pairs the two directions with equal first edge (a, b)
    assert legal.is_legal(1, -1)
    assert legal.is_legal(1, -2)
    assert legal.is_legal(-1, 2)
    assert legal.is_legal(-1, -2)
    assert not legal.is_legal(1, 2)
    # three gates: the illegal pair {a, b} plus each reverse direction
    gate_partition = legal.gates_at("*")
    assert sorted(sorted(g) for g in gate_partition) == [[-2], [-1], [1, 2]]


def test_gates_direction_gate(fib_fold15):
    with pytest.raises(DirectionError):
        gates(fib_fold15, 3)


def test_legal_continuation(fib_unfold20):
    legal = gates(fib_unfold20, -3)
    assert legal.has_legal_continuation(1)
    assert legal.has_legal_continuation(-2)


def test_taken_turns_are_legal(fib_unfold20):
    legal = gates(fib_unfold20, -5)
    for x, y in fib_unfold20.taken_turns_at(-5):
        assert legal.is_legal(x, y)


# -- allowed words -------------------------------------------------------


def test_allowed_words_fibonacci_counts(fib_unfold20):
    for L in range(1, 9):
        lang = allowed_words(fib_unfold20, 15, L)
        assert lang.count == L + 1, f"L={L}"


def test_allowed_words_flip_canonical(fib_unfold20):
    lang = allowed_words(fib_unfold20, 15, 3)
    for w in lang.words:
        from foldspace import reverse_path
        assert min(w, reverse_path(w)) == w


def test_allowed_words_shallow_depth(fib_unfold20):
    # at depth 3 the longest image has F_5 = 5 edges
    with pytest.raises(ShallowDepthError):
        allowed_words(fib_unfold20, 3, 6)
    lang = allowed_words(fib_unfold20, 3, 6, require_depth=False)
    assert lang.count >= 1
    with pytest.raises(ShallowDepthError):
        allowed_words(fib_unfold20, 25, 2)       # beyond the stored range


def test_legal_source_control_counts_more(rose2):
    # the identity sequence takes no turns: the taken language is the bare
    # edge set while the legal one holds all two-edge words
    seq = FoldingSequence([identity_morphism(rose2)] * 3, "unfolding")
    taken = allowed_words(seq, 2, 2, source="taken", require_depth=False)
    legal = allowed_words(seq, 2, 2, source="legal", require_depth=False)
    assert taken.count == 0          # single-edge images yield no 2-windows
    assert legal.count == 6          # all flip-classes of legal 2-words
    with pytest.raises(ValueError):
        allowed_words(seq, 2, 2, source="guessed", require_depth=False)


def test_complexity_profile_fibonacci(fib_unfold20):
    profile = complexity_profile(fib_unfold20, (10, 15), 12)
    assert profile.counts == {L: L + 1 for L in range(1, 13)}
    assert profile.stable
    assert profile.subexponential
    assert profile.entropy < 0.25


def test_complexity_profile_fibonacci_deep(fib_unfold40):
    profile = complexity_profile(fib_unfold40, (15, 30), 12)
    assert profile.counts == {L: L + 1 for L in range(1, 13)}
    assert profile.stable


def test_complexity_profile_rejects_short_length(fib_unfold20):
    for L_max in (0, -3):
        with pytest.raises(FormatError, match="L_max must be at least 1"):
            complexity_profile(fib_unfold20, (10, 12), L_max)


def test_allowed_words_expansion_budget(fib_unfold40):
    # the depth-40 images have F_41 edges: refused although never expanded
    with pytest.raises(BudgetExceededError) as info:
        allowed_words(fib_unfold40, 40, 8)
    assert str(info.value) == ("composite image of length 165580141 "
                               "exceeds the expansion budget 10000000")


# -- junction recursion against the materialising harvest ----------------


def _sliding_windows(seq, level, paths, L, *, canonical=True):
    """Oracle: slide a window over the expanded image of every path."""
    words = set()
    for p in paths:
        image = [x for e in p for x in seq.expansion(level, e)]
        for k in range(len(image) - L + 1):
            w = tuple(image[k:k + L])
            words.add(min(w, reverse_path(w)) if canonical else w)
    return words


def _transvection_pool(rank):
    """Rose self-maps a_i -> a_i a_j or a_j a_i, a rotation, and the map
    reversing every edge, so that images also carry reversed edges.  Every
    composite image is all-positive or all-negative, hence reduced."""
    g = rose("abcd"[:rank])
    vmap = {"*": "*"}
    pool = []
    for i in range(rank):
        for j in range(rank):
            if i == j:
                continue
            for image in ((i + 1, j + 1), (j + 1, i + 1)):
                images = {g.edge_ids[k]: (k + 1,) for k in range(rank)}
                images[g.edge_ids[i]] = image
                pool.append(GraphMorphism(g, g, vmap, images))
    pool.append(GraphMorphism(g, g, vmap, {g.edge_ids[k]: ((k + 1) % rank + 1,)
                                           for k in range(rank)}))
    pool.append(GraphMorphism(g, g, vmap, {g.edge_ids[k]: (-(k + 1),)
                                           for k in range(rank)}))
    return tuple(pool)


_POOLS = (default_generators(),) + tuple(_transvection_pool(r)
                                         for r in (2, 3, 4))


@st.composite
def _unfolding_chains(draw):
    pool = draw(st.sampled_from(_POOLS))
    steps = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    return FoldingSequence(steps, "unfolding")


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except BudgetExceededError as exc:
        return ("budget", str(exc))


@settings(max_examples=100, deadline=None)
@given(seq=_unfolding_chains(), data=st.data())
def test_windows_match_sliding_oracle(seq, data):
    # shallow depths leave images shorter than L - 1
    depth = data.draw(st.integers(1, seq.n_steps), label="depth")
    L = data.draw(st.integers(1, 6), label="L")
    # a smaller path budget keeps legal harvests on rank-4 roses short
    calls = [(allowed_words, {"source": "taken", "budget": 20_000}),
             (allowed_words, {"source": "legal", "budget": 20_000}),
             (minimal_components, {})]
    for fn, kwargs in calls:
        got = _outcome(fn, seq, depth, L, require_depth=False, **kwargs)
        with patch.object(lamination, "_windows", _sliding_windows):
            want = _outcome(fn, seq, depth, L, require_depth=False, **kwargs)
        assert got == want, (fn.__name__, kwargs)


def _capped_paths(graph, allowed_turns, max_len, budget):
    """Oracle: the former harvest enumeration, every reduced path through
    allowed turns with at most ``max_len`` edges; None past the budget."""
    paths = []
    stack = [(e,) for e in graph.oriented_edges()]
    while stack:
        p = stack.pop()
        paths.append(p)
        if len(paths) > budget:
            return None
        if len(p) == max_len:
            continue
        last = p[-1]
        for nxt in graph.out_edges(graph.term(last)):
            if nxt != -last and _turn(-last, nxt) in allowed_turns:
                stack.append(p + (nxt,))
    return paths


@settings(max_examples=100, deadline=None)
@given(seq=_unfolding_chains(), data=st.data())
def test_length_aware_paths_match_capped_enumeration(seq, data):
    depth = data.draw(st.integers(1, seq.n_steps), label="depth")
    L = data.draw(st.integers(1, 6), label="L")
    source = data.draw(st.sampled_from(("taken", "legal")), label="source")
    level = -depth
    g = seq.graph_at(level)
    lengths = seq.image_lengths(level)
    allowed = (seq.taken_turns_at(level) if source == "taken"
               else gates(seq, level).legal_turns)
    old = _capped_paths(g, allowed, 2 + ceil(L / min(lengths)), 20_000)
    assume(old is not None)
    new = lamination._harvest_paths(g, allowed, lengths, L, 20_000)
    assert set(new) <= set(old)
    lang = allowed_words(seq, depth, L, source=source, require_depth=False)
    assert lang.words == lamination._windows(seq, level, old, L)


def _fixed_edge_chain():
    """Rank-4 rose chain in which every step fixes the edge d, so the
    shortest composite image has one edge at every depth."""
    g = rose("abcd")
    steps = [GraphMorphism(g, g, {"*": "*"}, images) for images in (
        {"a": "a b", "b": "b", "c": "c", "d": "d"},
        {"a": "a", "b": "b c", "c": "c", "d": "d"},
        {"a": "a", "b": "b", "c": "c a", "d": "d"})]
    return FoldingSequence(steps * 2, "unfolding")


def test_fixed_edge_legal_harvest_stays_short(tmp_path):
    # a cap from the shortest image allowed 7-edge paths: over 200k of them
    seq = _fixed_edge_chain()
    g, lengths = seq.graph_at(-6), seq.image_lengths(-6)
    assert lengths == [13, 9, 6, 1]
    allowed = gates(seq, -6).legal_turns
    assert len(lamination._harvest_paths(g, allowed, lengths, 5,
                                         200_000)) == 352
    seq_file = write_sequence(seq, tmp_path, "fixed")
    out = tmp_path / "lam.json"
    rc = main(["lamination", seq_file, "--depth", "6", "--length", "5",
               "--source", "legal", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["count"] == 152
    assert data["complexity"]["counts"] == {"1": 4, "2": 17, "3": 46,
                                            "4": 91, "5": 152}


# -- cylinder weights ----------------------------------------------------


def test_cylinder_weight_right_end(fib_fold15):
    mu = frequency_current(fib_fold15)
    # at the right end each edge is its own image: weight = mu(gamma)
    assert cylinder_weight(fib_fold15, mu, (1,), 15) == mu.at(15)[0]
    assert cylinder_weight(fib_fold15, mu, (2,), 15) == mu.at(15)[1]


def test_cylinder_weight_hand_value(fib_fold15):
    mu = frequency_current(fib_fold15)
    # level 13: images are aba and ab; mu_13 = (610, 377)
    w = cylinder_weight(fib_fold15, mu, (1,), 13)
    assert w == 610 * 2 + 377 * 1
    w2 = cylinder_weight(fib_fold15, mu, (1, 2), 13)
    assert w2 == 610 * 1 + 377 * 1


def test_cylinder_weight_flip_symmetric(fib_fold15):
    mu = frequency_current(fib_fold15)
    for gamma in ((1,), (1, 2), (2, 1, 1)):
        from foldspace import reverse_path
        assert cylinder_weight(fib_fold15, mu, gamma, 12) == \
            cylinder_weight(fib_fold15, mu, reverse_path(gamma), 12)


def test_cylinder_weight_monotone_toward_deep(fib_fold15):
    mu = frequency_current(fib_fold15)
    for gamma in ((1,), (2,), (1, 2), (1, -2), (1, 2, 1)):
        values = [cylinder_weight(fib_fold15, mu, gamma, level)
                  for level in range(15, -1, -1)]
        assert all(a <= b for a, b in zip(values, values[1:])), gamma


def test_sandwich_bounds(fib_fold15):
    mu = frequency_current(fib_fold15)
    for gamma in ((1,), (2,), (1, 2), (2, 1, 1)):
        for level in range(0, 16):
            rep = sandwich_report(fib_fold15, mu, gamma, level)
            assert rep["ok"], (gamma, level, rep)
            assert rep["upper"] - rep["lower"] == \
                oriented_mass(mu, level)


def test_one_edge_extensions(rose2):
    exts = one_edge_extensions(rose2, (1,))
    assert set(exts) == {(1, 1), (1, 2), (1, -2)}


def test_cylinder_weight_validation(fib_fold15, fib_unfold20):
    mu = frequency_current(fib_fold15)
    lam = simplicial_length_measure(fib_unfold20)
    with pytest.raises(InvalidTrackError):
        cylinder_weight(fib_fold15, lam, (1,), 5)     # wrong kind
    mu_other = frequency_current(
        FoldingSequence([fib_fold15.morphisms[0]] * 3))
    with pytest.raises(InvalidTrackError):
        cylinder_weight(fib_fold15, mu_other, (1,), 5)
    from foldspace import MalformedPathError
    with pytest.raises(MalformedPathError):
        cylinder_weight(fib_fold15, mu, (1, -1), 5)


def test_flip_cylinder_weight(fib_fold15):
    mu = frequency_current(fib_fold15)
    assert flip_cylinder_weight(fib_fold15, mu, (1, 2), 12) == \
        2 * cylinder_weight(fib_fold15, mu, (1, 2), 12)


# -- minimal components --------------------------------------------------


def test_minimal_components_fibonacci(fib_unfold20):
    rep = minimal_components(fib_unfold20, 15, 4)
    assert rep.count == 1
    assert rep.bound == 3
    assert rep.bound_ok


def test_minimal_components_alternating_two_orbits():
    seq = gen_alternating_block(schedule=(4, 8, 4), rank=4,
                                direction="unfolding").sequence
    # depth past the last block boundary sees both word families
    rep = minimal_components(seq, 16, 12)
    assert rep.count == 2
    assert rep.bound == 9
    assert rep.bound_ok

"""Folding sequences: indexing, validation, composites, tracks, decay, and
the reducedness window search."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldspace import (BudgetExceededError, DirectionError,
                       FoldingSequence, GraphMorphism, InvalidTrackError,
                       SequenceError, area, current_track_from_initial,
                       decay_check, frequency_current, gen_alternating_block,
                       identity_morphism, is_reduced_window,
                       length_track_from_terminal, path_turns, rose,
                       simplicial_length_measure)
from foldspace.cones import (_normalize_l1, _sample_depths, current_cone,
                             length_cone, set_diameter)
from foldspace.examples import fibonacci_step
from foldspace.linalg import identity, mat_mul, mat_vec, transpose_vec
from foldspace.sequences import _turn

from conftest import rose_morphism
from test_lamination import _POOLS


# -- construction and indexing -------------------------------------------


def test_levels_by_direction(fib_fold15, fib_unfold20):
    assert list(fib_fold15.levels) == list(range(0, 16))
    assert list(fib_unfold20.levels) == list(range(-20, 1))
    assert fib_fold15.n_steps == 15


def test_graph_and_step_lookup(fib_fold15):
    g = fib_fold15.graph_at(0)
    assert g.edge_ids == ("a", "b")
    assert fib_fold15.step_at(3).edge_image(1) == (1, 2)
    with pytest.raises(SequenceError):
        fib_fold15.step_at(15)          # no step starts at the right end
    with pytest.raises(SequenceError):
        fib_fold15.graph_at(16)


def test_step_runs_collapse_repeats(fib_fold15):
    runs = fib_fold15.step_runs
    assert len(runs) == 1
    start, length, step = runs[0]
    assert (start, length) == (0, 15)
    assert step is fib_fold15.morphisms[0]


def test_chain_checked_per_run(rose2, theta):
    to_theta = GraphMorphism(rose2, theta, {"*": "u"},
                             {"a": (1, -2), "b": (1, -3)})
    with pytest.raises(SequenceError, match="^steps 0 and 1 do not chain$"):
        FoldingSequence([to_theta, to_theta])
    # the first break after a run of one step object is at its last step
    ident = identity_morphism(rose2)
    with pytest.raises(SequenceError, match="^steps 2 and 3 do not chain$"):
        FoldingSequence([ident] * 3 + [identity_morphism(theta)])
    assert FoldingSequence([ident] * 3 + [to_theta]).n_steps == 4


def test_empty_sequence_rejected():
    with pytest.raises(SequenceError):
        FoldingSequence([])


def test_direction_validated():
    with pytest.raises(DirectionError):
        FoldingSequence([fibonacci_step()], "sideways")


def test_chaining_validated(rose2, rose3):
    f = fibonacci_step()
    g = identity_morphism(rose3)
    with pytest.raises(SequenceError):
        FoldingSequence([f, g])


def test_non_change_of_marking_step_rejected(rose2):
    bad = rose_morphism(rose2, {"a": "a", "b": "a"})
    with pytest.raises(SequenceError):
        FoldingSequence([bad])
    # validate=False admits it for deliberate controls
    seq = FoldingSequence([bad], validate=False)
    assert seq.n_steps == 1


def test_composite_cancellation_detected(rose2):
    f = rose_morphism(rose2, {"a": "a b", "b": "a"})
    h = rose_morphism(rose2, {"a": "b -a", "b": "a"})
    # h(f(a)) = h(a)h(b) = b a^{-1} a = b: the composite cancels
    with pytest.raises(SequenceError, match="cancels"):
        FoldingSequence([f, h])


def test_taken_turns_accumulate(fib_fold15):
    g = fib_fold15.graph_at(0)

    def tok(turns):
        return {frozenset((g.token(x), g.token(y))) for x, y in turns}

    assert fib_fold15.taken_turns_at(0) == frozenset()
    assert tok(fib_fold15.taken_turns_at(1)) == {frozenset({"-a", "b"})}
    assert tok(fib_fold15.taken_turns_at(2)) == {
        frozenset({"-a", "b"}), frozenset({"a", "-b"})}
    full = {frozenset({"-a", "b"}), frozenset({"a", "-b"}),
            frozenset({"a", "-a"})}
    for level in range(3, 16):
        assert tok(fib_fold15.taken_turns_at(level)) == full


def test_turn_canonicalization():
    assert _turn(2, -1) == _turn(-1, 2)
    assert path_turns((1, 2, 1)) == {_turn(-1, 2), _turn(-2, 1)}


# -- composites ----------------------------------------------------------


def test_composite_matrix_fibonacci(fib_fold15):
    M4 = fib_fold15.composite_matrix(0, 4)
    assert M4 == [[5, 3], [3, 2]]
    ident = fib_fold15.composite_matrix(7, 7)
    assert ident == [[1, 0], [0, 1]]
    with pytest.raises(SequenceError):
        fib_fold15.composite_matrix(4, 0)


def test_image_lengths_and_expansion(fib_fold15):
    # image lengths into the right end are Fibonacci numbers
    assert fib_fold15.image_lengths(15) == [1, 1]
    assert fib_fold15.image_lengths(13) == [3, 2]
    assert fib_fold15.expansion(13, 1) == (1, 2, 1)
    assert fib_fold15.expansion(13, -1) == (-1, -2, -1)
    assert fib_fold15.expansion(15, 2) == (2,)


def test_expansion_budget(fib_unfold40):
    # the deepest composite image has F_42 > 10^7 edges
    with pytest.raises(BudgetExceededError):
        fib_unfold40.expansion(-40, 1)
    assert len(fib_unfold40.expansion(-20, 1)) == 17711


def test_first_edge_composite(fib_fold15):
    fmap = fib_fold15.first_edge_composite(13)
    assert fmap[1] == 1 and fmap[2] == 1
    assert fmap[-1] == -1 and fmap[-2] == -2
    partial = fib_fold15.first_edge_composite(13, 14)
    assert partial[1] == 1 and partial[-1] == -2


# -- tracks --------------------------------------------------------------


def test_frequency_current_oracle(fib_fold15):
    mu = frequency_current(fib_fold15)
    assert mu.at(0) == (1, 1)
    assert mu.at(4) == (8, 5)
    mu.validate()


def test_simplicial_length_oracle(fib_unfold20):
    lam = simplicial_length_measure(fib_unfold20)
    assert lam.at(0) == (1, 1)
    assert lam.at(-3) == (5, 3)
    lam.validate()


def test_track_direction_gates(fib_fold15, fib_unfold20):
    with pytest.raises(DirectionError):
        frequency_current(fib_unfold20)
    with pytest.raises(DirectionError):
        simplicial_length_measure(fib_fold15)


def test_track_rejects_negative_and_bad_dims(fib_fold15):
    with pytest.raises(InvalidTrackError):
        current_track_from_initial(fib_fold15, [1, -1])
    with pytest.raises(Exception):
        current_track_from_initial(fib_fold15, [1, 1, 1])


def test_track_validate_catches_corruption(fib_fold15):
    mu = frequency_current(fib_fold15)
    vecs = [list(mu.at(n)) for n in fib_fold15.levels]
    vecs[7][0] += 1
    from foldspace import MeasureTrack
    bad = MeasureTrack(fib_fold15, "current", vecs)
    with pytest.raises(InvalidTrackError, match="recurrence fails"):
        bad.validate()


def test_area_invariance_and_value(fib_fold15):
    lam = length_track_from_terminal(fib_fold15, [2, 3])
    mu = current_track_from_initial(fib_fold15, [1, 1])
    value = area(fib_fold15, lam, mu)
    # pairing at the right end: mu_15 . (2, 3)
    mu15 = mu.at(15)
    assert value == 2 * mu15[0] + 3 * mu15[1]
    with pytest.raises(InvalidTrackError):
        area(fib_fold15, mu, lam)       # wrong kinds in wrong order


def test_area_rejects_foreign_tracks(fib_fold15, fib_unfold20):
    lam = simplicial_length_measure(fib_unfold20)
    mu = frequency_current(fib_fold15)
    with pytest.raises(InvalidTrackError):
        area(fib_fold15, lam, mu)


# -- decay flags ---------------------------------------------------------


def test_decay_flags_on_expanding_sequence(fib_unfold20, fib_fold15):
    lam = simplicial_length_measure(fib_unfold20)
    rep = decay_check(fib_unfold20, length_track=lam)
    assert rep["flags"]["lambda_deep_growth"]
    assert rep["flags"]["reduced_consistent"]
    mu = frequency_current(fib_fold15)
    rep = decay_check(fib_fold15, current_track=mu)
    assert rep["flags"]["mu_growth"]
    assert rep["flags"]["reduced_consistent"]


def test_decay_flags_on_flat_sequence(rose2):
    ident = identity_morphism(rose2)
    seq = FoldingSequence([ident] * 6, "unfolding")
    lam = simplicial_length_measure(seq)
    rep = decay_check(seq, length_track=lam)
    assert not rep["flags"]["lambda_deep_growth"]
    assert not rep["flags"]["reduced_consistent"]


# -- reducedness windows -------------------------------------------------


def test_reduced_window_fibonacci_passes(fib_unfold20):
    rep = is_reduced_window(fib_unfold20, (-2, 0))
    assert rep["passed"] and rep["witness"] is None


def test_reduced_window_single_step_caveat(fib_unfold20):
    # one step is too short: {b} maps to {a} edge-to-edge
    rep = is_reduced_window(fib_unfold20, (-1, 0))
    assert not rep["passed"]
    assert rep["witness"] == (("b",), ("a",))


def test_reduced_window_flags_identity(rose2):
    seq = FoldingSequence([identity_morphism(rose2)] * 4, "unfolding")
    rep = is_reduced_window(seq, (-4, 0))
    assert not rep["passed"]
    assert rep["witness"][0] == ("a",)


def test_reduced_window_alternating_blocks(alt4_small_unfold):
    seq = alt4_small_unfold        # schedule (4, 8), T = 12
    # within the A-block the fixed pair {c} is a stabilized witness
    rep = is_reduced_window(seq, (-12, -8))
    assert not rep["passed"]
    assert set(rep["witness"][0]) <= {"c", "d"}
    # within the B-block the fixed pair {a} is a witness
    rep = is_reduced_window(seq, (-8, 0))
    assert not rep["passed"]
    assert set(rep["witness"][0]) <= {"a", "b"}
    # across the block boundary no subgraph stabilizes
    rep = is_reduced_window(seq, (-12, 0))
    assert rep["passed"]


def test_reduced_window_budget():
    g = rose([f"x{i}" for i in range(16)])
    seq = FoldingSequence([identity_morphism(g)], "unfolding")
    with pytest.raises(BudgetExceededError):
        is_reduced_window(seq, (-1, 0))


def test_reduced_window_bad_range(fib_unfold20):
    with pytest.raises(SequenceError):
        is_reduced_window(fib_unfold20, (-30, 0))


# -- one carry routine against the per-caller loops ----------------------


def _loop_composite_matrix(seq, level_from, level_to):
    prod = None
    for i in range(seq._internal(level_from), seq._internal(level_to)):
        M = seq._matrix(i)
        prod = M if prod is None else mat_mul(M, prod)
    if prod is None:
        prod = identity(seq.graph_at(level_from).n_edges)
    return prod


def _loop_image_lengths(seq, level):
    vec = [1] * seq.graph_at(seq.levels[-1]).n_edges
    for j in range(seq.n_steps - 1, seq._internal(level) - 1, -1):
        vec = transpose_vec(seq._matrix(j), vec)
    return vec


def _loop_length_track(seq, terminal_vector):
    vec = [Fraction(x) for x in terminal_vector]
    out = [tuple(vec)]
    for i in range(seq.n_steps - 1, -1, -1):
        vec = transpose_vec(seq._matrix(i), vec)
        out.append(tuple(vec))
    out.reverse()
    return out


def _loop_current_track(seq, initial_vector):
    vec = [Fraction(x) for x in initial_vector]
    out = [tuple(vec)]
    for i in range(seq.n_steps):
        vec = mat_vec(seq._matrix(i), vec)
        out.append(tuple(vec))
    return out


def _loop_cone(seq, depth, kind):
    """Generators and diameter profile of the nested cone, from products
    accumulated matrix by matrix."""
    T = seq.n_steps
    if kind == "current":
        order = range(T - 1, T - depth - 1, -1)
        bound_depths = {T - b for b in seq.block_boundaries}
        combine = lambda prod, M: mat_mul(prod, M)
    else:
        order = range(0, depth)
        bound_depths = set(seq.block_boundaries)
        combine = lambda prod, M: mat_mul(M, prod)
    want = set(_sample_depths(depth, bound_depths) if depth else [])
    ambient = seq.graph_at(seq.levels[-1] if kind == "current"
                           else seq.levels[0]).n_edges
    columns = lambda m: [tuple(row[j] for row in m) for j in range(len(m[0]))]
    gens = lambda m: columns(m) if kind == "current" else [tuple(r) for r in m]
    prod = None
    profile = []
    for step_count, i in enumerate(order, start=1):
        M = seq._matrix(i)
        prod = [row[:] for row in M] if prod is None else combine(prod, M)
        if step_count in want:
            profile.append((step_count, set_diameter(gens(prod))[0]))
    if prod is None:
        prod = identity(ambient)
        profile.append((0, set_diameter(columns(prod))[0]))
    return (tuple(_normalize_l1(c) for c in gens(prod)), tuple(profile),
            set_diameter(gens(prod)))


@st.composite
def _chains(draw):
    pool = draw(st.sampled_from(_POOLS))
    # past 64 steps the cone profile samples depths
    steps = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=80))
    direction = draw(st.sampled_from(("folding", "unfolding")))
    return FoldingSequence(steps, direction)


def _seed(data, n):
    entry = st.one_of(st.integers(0, 20),
                      st.fractions(min_value=0, max_value=20,
                                   max_denominator=1000))
    return data.draw(st.lists(entry, min_size=n, max_size=n), label="seed")


@settings(max_examples=100, deadline=None)
@given(seq=_chains(), data=st.data())
def test_carry_matches_step_loops(seq, data):
    levels = list(seq.levels)
    level = data.draw(st.sampled_from(levels), label="level")
    assert seq.image_lengths(level) == _loop_image_lengths(seq, level)
    a, b = sorted(data.draw(st.lists(st.sampled_from(levels), min_size=2,
                                     max_size=2), label="levels"))
    assert seq.composite_matrix(a, b) == _loop_composite_matrix(seq, a, b)
    for make, loop, end in (
            (length_track_from_terminal, _loop_length_track, levels[-1]),
            (current_track_from_initial, _loop_current_track, levels[0])):
        seed = _seed(data, seq.graph_at(end).n_edges)
        track = make(seq, seed)
        track.validate()
        assert [track.at(n) for n in levels] == loop(seq, seed)
        entries = [x for n in levels for x in track.at(n)]
        if all(type(x) is int for x in seed):
            assert all(type(x) is int for x in entries)
        else:
            assert all(type(x) is Fraction for x in entries if x)
    depth = data.draw(st.integers(0, seq.n_steps), label="depth")
    kind = "current" if seq.direction == "unfolding" else "length"
    cone = (current_cone if kind == "current" else length_cone)(seq, depth)
    generators, profile, (diameter, ratio) = _loop_cone(seq, depth, kind)
    assert cone.generators == generators
    assert cone.diameter_profile == profile
    assert (cone.diameter, cone.diameter_ratio) == (diameter, ratio)


def test_integer_seeds_give_int_tracks(alt4_unfold_full):
    for track in (simplicial_length_measure(alt4_unfold_full),
                  current_track_from_initial(alt4_unfold_full, (1, 0, 2, 0))):
        assert all(type(x) is int for n in track.levels for x in track.at(n))
    half = current_track_from_initial(alt4_unfold_full,
                                      (Fraction(1, 2), 0, 0, 0))
    assert all(type(x) is Fraction for x in half.at(0))
    assert half.at(0) == tuple(Fraction(x, 2) for x in
                               current_track_from_initial(
                                   alt4_unfold_full, (1, 0, 0, 0)).at(0))


def test_track_reads_keep_what_they_pass(alt4_unfold_full):
    """A window is reached by run powers and keeps only its levels and the
    run boundaries passed; a single read keeps every level it passes, so
    single reads never cost more than one stepwise pass."""
    seq = alt4_unfold_full                  # runs of 4, 16, ..., 4096
    T = seq.n_steps
    mu = current_track_from_initial(seq, (1, 0, 2, 0))
    mu.at_levels([-11, -12])
    assert sorted(mu._known) == [0, *seq._run_starts[1:], T - 12, T - 11]
    mu.at(-9)
    assert sorted(mu._known)[-4:] == [T - 12, T - 11, T - 10, T - 9]
    lam = simplicial_length_measure(seq)
    lam.at(-3)
    assert sorted(lam._known) == [T - 3, T - 2, T - 1, T]
    lam.at_levels([-5000])                  # passes one run boundary
    assert sorted(lam._known) == [T - 5000, seq._run_starts[-1], T - 3,
                                  T - 2, T - 1, T]


# -- run powers against the step loops -------------------------------------


@st.composite
def _run_chains(draw):
    """Long runs of one step: alternating blocks of 1-300 steps at rank 3
    or 4, or a single run of Fibonacci steps, in either direction."""
    direction = draw(st.sampled_from(("folding", "unfolding")))
    if draw(st.booleans()):
        steps = draw(st.integers(1, 300), label="fibonacci steps")
        return FoldingSequence([fibonacci_step()] * steps, direction)
    schedule = draw(st.lists(st.integers(1, 300), min_size=1, max_size=5),
                    label="schedule")
    rank = draw(st.sampled_from((3, 4)), label="rank")
    return gen_alternating_block(schedule, rank, direction).sequence


def _check_types(seed, vector):
    if all(type(x) is int for x in seed):
        assert all(type(x) is int for x in vector)
    else:
        assert all(type(x) is Fraction for x in vector if x)


@settings(max_examples=40, deadline=None)
@given(seq=_run_chains(), data=st.data())
def test_run_powers_match_step_loops(seq, data):
    levels = list(seq.levels)
    level = data.draw(st.sampled_from(levels), label="level")
    assert seq.image_lengths(level) == _loop_image_lengths(seq, level)
    a, b = sorted(data.draw(st.lists(st.sampled_from(levels), min_size=2,
                                     max_size=2), label="levels"))
    assert seq.composite_matrix(a, b) == _loop_composite_matrix(seq, a, b)
    for make, loop, end in (
            (length_track_from_terminal, _loop_length_track, levels[-1]),
            (current_track_from_initial, _loop_current_track, levels[0])):
        seed = _seed(data, seq.graph_at(end).n_edges)
        want = dict(zip(levels, loop(seq, seed)))
        # random windows in random order, each carried by run powers from
        # the nearest kept vector upstream
        track = make(seq, seed)
        for _ in range(3):
            window = data.draw(st.lists(st.sampled_from(levels), max_size=6),
                               label="window")
            got = track.at_levels(window)
            assert got == [want[n] for n in window]
            for v in got:
                _check_types(seed, v)
        # single levels in random order, carried one step at a time
        stepped = make(seq, seed)
        for n in data.draw(st.lists(st.sampled_from(levels), max_size=6),
                           label="reads"):
            assert stepped.at(n) == want[n]
        # a full sweep, one step at a time, gives the same ints and
        # Fractions, zeros included
        swept = make(seq, seed)
        swept.validate()
        for n in levels:
            assert swept.at(n) == want[n]
            assert list(map(type, track.at(n))) == \
                list(map(type, swept.at(n)))
    kind = "current" if seq.direction == "unfolding" else "length"
    # past 64 steps the sampled depths fall inside runs
    depth = data.draw(st.integers(min(65, seq.n_steps), seq.n_steps),
                      label="depth")
    cone = (current_cone if kind == "current" else length_cone)(seq, depth)
    generators, profile, (diameter, ratio) = _loop_cone(seq, depth, kind)
    assert cone.generators == generators
    assert cone.diameter_profile == profile
    assert (cone.diameter, cone.diameter_ratio) == (diameter, ratio)


# -- step data kept on the morphism against the per-step loops -----------


def _first_edges(f):
    return {e: f.edge_image(e)[0] for e in f.domain.oriented_edges()}


def _loop_taken(seq):
    """Taken turns at every internal level, rebuilding each step's
    first-edge map and image turns."""
    taken = [frozenset()]
    current = set()
    for f in seq.morphisms:
        fmap = _first_edges(f)
        nxt = {_turn(fmap[x], fmap[y]) for x, y in current}
        for j in range(f.domain.n_edges):
            nxt |= path_turns(f.edge_image(j + 1))
        current = nxt
        taken.append(frozenset(current))
    return taken


def _loop_first_edge_composite(seq, level_from, level_to):
    """First-edge map of the composite from level_from to level_to."""
    fmap = None
    for i in range(seq._internal(level_from), seq._internal(level_to)):
        step = _first_edges(seq.morphisms[i])
        fmap = step if fmap is None else \
            {e: step[v] for e, v in fmap.items()}
    if fmap is None:
        fmap = {e: e for e in seq.graph_at(level_from).oriented_edges()}
    return fmap


@settings(max_examples=100, deadline=None)
@given(seq=_chains(), data=st.data())
def test_step_data_matches_step_loops(seq, data):
    levels = list(seq.levels)
    assert [seq.taken_turns_at(n) for n in levels] == _loop_taken(seq)
    for f in seq.morphisms:
        assert f.first_edge_map() == _first_edges(f)
        assert f.incidence_matrix() is f.incidence_matrix()
    level = data.draw(st.sampled_from(levels), label="level")
    assert seq.first_edge_composite(level) == _loop_first_edge_composite(
        seq, level, levels[-1])
    a, b = sorted(data.draw(st.lists(st.sampled_from(levels), min_size=2,
                                     max_size=2), label="levels"))
    assert seq.first_edge_composite(a, b) == _loop_first_edge_composite(
        seq, a, b)


def test_shared_bad_step_refused_by_every_sequence(rose2):
    good = rose_morphism(rose2, {"a": "a b", "b": "a"})
    bad = rose_morphism(rose2, {"a": "a", "b": "a"})
    with pytest.raises(SequenceError, match="step 0 is not"):
        FoldingSequence([bad, good])
    with pytest.raises(SequenceError, match="step 2 is not"):
        FoldingSequence([good, good, bad, bad])
    control = FoldingSequence([good, bad], validate=False)
    with pytest.raises(SequenceError, match="step 1 is not"):
        control.validate()

"""Run-native sequences against the stepwise code they replaced.

A sequence stores only its runs (``step_runs``).  The oracles below are the
stepwise passes over a tuple of steps that the run code replaced: the
run-length encoding, the taken-turn pass, the run walks of ``fills`` (step
by step, and by orbits across every later run) and the first-edge
composite.  Hypothesis compares each with the run code on short runs over
the ``_chains`` pools, on long runs over the ``_run_chains`` steps, and on
unvalidated chains that cancel.
"""

import json
import math
import re
import time
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldspace import (BudgetExceededError, FoldingSequence, SequenceError,
                       frequency_current, gen_alternating_block,
                       gen_fibonacci, identity_morphism, rose)
from foldspace import cli, sequences
from foldspace.cli import main
from foldspace.examples import fibonacci_step
from foldspace.io_formats import parse_sequence, serialize_morphism, \
    write_graph
from foldspace.linalg import identity
from foldspace.metric import _apply_support, fills
from foldspace.sequences import _turn, is_reduced_window, orbit, orbit_at

from conftest import marked, rose_morphism
from test_lamination import _POOLS


# -- the stepwise oracles --------------------------------------------------


def old_run_length_encode(morphisms):
    """Maximal runs of identical step objects: (start, length, morphism)."""
    runs = []
    i = 0
    while i < len(morphisms):
        j = i
        while j + 1 < len(morphisms) and morphisms[j + 1] is morphisms[i]:
            j += 1
        runs.append((i, j - i + 1, morphisms[i]))
        i = j + 1
    return tuple(runs)


def old_propagate_taken(morphisms):
    """Taken-turn sets at every internal level, one step at a time."""
    taken = [frozenset()]
    for i, f in enumerate(morphisms):
        if i and f is morphisms[i - 1] and taken[-1] == taken[-2]:
            # a repeated step fixes the set it fixed one level before
            taken.append(taken[-1])
            continue
        fmap = f.first_edge_map()
        nxt = set(f.image_turns())
        for x, y in taken[-1]:
            fx, fy = fmap[x], fmap[y]
            if fx == fy:
                G = f.domain
                raise SequenceError(
                    "composite image cancels at internal step "
                    f"{i}: taken turn ({G.token(x)},{G.token(y)}) maps "
                    f"to a degenerate turn at {f.codomain.token(fx)}")
            nxt.add(_turn(fx, fy))
        taken.append(frozenset(nxt))
    return tuple(taken)


def old_advance_run(step, support, length, full):
    """Push a support through ``length`` repeats of one step: (offset where
    it first fills, or None; support at run end when it never fills)."""
    if support == full:
        return 0, None
    seen = {support: 0}
    trail = [support]
    t = 0
    s = support
    while t < length:
        s = _apply_support(step, s)
        t += 1
        if s == full:
            return t, None
        if s in seen:
            start = seen[s]
            period = t - start
            rem = (length - start) % period
            return None, trail[start + rem]
        seen[s] = t
        trail.append(s)
    return None, s


def old_fills(runs, i, support, memo):
    """``fills`` at internal level i, walking the runs with
    ``old_advance_run`` and keeping whole runs in ``memo``."""
    support = frozenset(support)
    offset = 0
    for ridx, (start, length, step) in enumerate(runs):
        if i >= start + length:
            continue
        full = frozenset(step.domain.edge_ids)
        if i > start:
            hit, support = old_advance_run(step, support,
                                           start + length - i, full)
            if hit is not None:
                return offset + hit
            offset += start + length - i
        else:
            key = (ridx, support)
            if key not in memo:
                memo[key] = old_advance_run(step, support, length, full)
            hit, end = memo[key]
            if hit is not None:
                return offset + hit
            support = end
            offset += length
    return None


def run_walk_fills(seq, level, support, memo):
    """``fills`` walking every later stretch of a run, each by the
    support's ``orbit`` across it, kept per step object, stretch length and
    support in ``memo``."""
    i = seq._internal(level)
    support = frozenset(support)
    offset = 0
    for step, k in seq._stretches("current", i, seq.n_steps - i):
        key = (id(step), k, support)
        if key not in memo:
            trail, cycle = orbit(partial(_apply_support, step), support, k)
            full = frozenset(step.domain.edge_ids)
            memo[key] = (trail.index(full) if full in trail else None,
                         trail, cycle)
        hit, trail, cycle = memo[key]
        if hit is not None and hit <= k:
            return offset + hit
        support = orbit_at(trail, cycle, k)
        offset += k
    return None


def old_first_edge_composite(steps, graph, a, b):
    fmap = {e: e for e in graph.oriented_edges()}
    for i in range(a, b):
        step = steps[i].first_edge_map()
        fmap = {e: step[v] for e, v in fmap.items()}
    return fmap


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SequenceError as exc:
        return ("error", str(exc))


# -- chains ----------------------------------------------------------------


_RUN_POOLS = ((fibonacci_step(),),) + tuple(
    tuple(f for _, _, f in gen_alternating_block((1, 1), rank).sequence
          .step_runs) for rank in (3, 4))


@st.composite
def _run_lists(draw):
    """(runs, direction): up to 30 runs of 1-3 steps over a ``_chains``
    pool, or up to 5 runs of 1-300 steps over the ``_run_chains`` steps.
    Adjacent runs of one step object are common in both."""
    if draw(st.booleans()):
        pool = draw(st.sampled_from(_POOLS))
        counts, most = st.integers(1, 3), 30
    else:
        pool = draw(st.sampled_from(_RUN_POOLS))
        counts, most = st.integers(1, 300), 5
    runs = draw(st.lists(st.tuples(st.sampled_from(pool), counts),
                         min_size=1, max_size=most), label="runs")
    return runs, draw(st.sampled_from(("folding", "unfolding")))


def _expand(runs):
    return [f for f, count in runs for _ in range(count)]


def _ids(steps):
    return [id(f) for f in steps]


@settings(max_examples=200, deadline=None)
@given(chain=_run_lists(), data=st.data())
def test_range_stops_match_the_same_stops_as_a_list(chain, data):
    """A range of stops is walked, not listed: it yields the (count,
    block) pairs of the same stops as a sorted list, at the counts the
    stops give inside the steps and after the last step, in both carry
    directions, also when it reaches past either end of the steps or is
    empty."""
    runs, direction = chain
    seq = FoldingSequence.from_runs(runs, direction)
    T = seq.n_steps
    a, b = sorted(data.draw(st.lists(st.integers(0, T), min_size=2,
                                     max_size=2), label="steps"))
    kind = data.draw(st.sampled_from(("current", "length")), label="kind")
    start, n = (a if kind == "current" else b), b - a
    ends = st.integers(-2, n + 2)
    stops = range(data.draw(ends, label="start"), data.draw(ends,
                                                             label="stop"))
    block = identity(seq.graph_at(seq.levels[0]).n_edges)
    walked = list(seq._carry(block, kind, start, n, stops))
    assert walked == list(seq._carry(block, kind, start, n,
                                     sorted(set(stops))))
    assert [count for count, _ in walked] == \
        (sorted({c for c in stops if 0 < c < n} | {n}) if n else [])


# -- orbits ----------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(m=st.integers(1, 40), a=st.integers(0, 40), c=st.integers(0, 40),
       state=st.integers(0, 39), length=st.integers(0, 120))
def test_orbit_reads_every_state_of_an_affine_map(m, a, c, state, length):
    calls = []

    def advance(x):
        calls.append(x)
        return (a * x + c) % m

    trail, cycle = orbit(advance, state % m, length)
    assert calls == trail[:len(calls)]
    assert len(calls) <= min(length, m)
    x = state % m
    for k in range(length + 1):
        assert orbit_at(trail, cycle, k) == x
        x = (a * x + c) % m


# -- storage ---------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(chain=_run_lists(), data=st.data())
def test_runs_and_steps_match_the_old_expansion(chain, data):
    runs, direction = chain
    steps = _expand(runs)
    T = len(steps)
    for seq in (FoldingSequence.from_runs(runs, direction),
                FoldingSequence(steps, direction)):
        assert seq.step_runs == old_run_length_encode(steps)
        assert seq.n_steps == T
        assert "morphisms" not in seq.__dict__
        i = data.draw(st.integers(0, T - 1), label="index")
        assert seq._step(i) is steps[i]
        assert seq.step_at(seq.levels[i]) is steps[i]
        assert seq.morphisms[i] is steps[i]
        assert seq.morphisms[-1 - i] is steps[-1 - i]
        a, b = sorted(data.draw(st.lists(st.integers(-T - 2, T + 2),
                                         min_size=2, max_size=2),
                                label="slice"))
        stride = data.draw(st.sampled_from((1, 2, 7, -1, -3)),
                           label="stride")
        assert _ids(seq.morphisms[a:b:stride]) == _ids(steps[a:b:stride])
        assert _ids(reversed(seq.morphisms)) == _ids(reversed(steps))
        assert _ids(seq.morphisms) == _ids(steps)
        assert seq.__dict__["morphisms"] is seq.morphisms


@settings(max_examples=100, deadline=None)
@given(chain=_run_lists(), data=st.data())
def test_run_passes_match_the_step_loops(chain, data):
    runs, direction = chain
    steps = _expand(runs)
    seq = FoldingSequence.from_runs(runs, direction)
    levels = list(seq.levels)
    assert tuple(seq.taken_turns_at(n) for n in levels) == \
        old_propagate_taken(steps)
    old_runs, memo, walk_memo = old_run_length_encode(steps), {}, {}
    # any order of levels: the kept rest of the chain serves each one
    for n in data.draw(st.permutations(levels), label="order"):
        i = seq._internal(n)
        for name in seq.graph_at(n).edge_ids:
            got = fills(seq, n, (name,))
            assert got == old_fills(old_runs, i, (name,), memo)
            assert got == run_walk_fills(seq, n, (name,), walk_memo)
    n = data.draw(st.sampled_from(levels), label="level")
    names = seq.graph_at(n).edge_ids
    support = data.draw(st.sets(st.sampled_from(names)), label="support")
    got = fills(seq, n, support)
    assert got == old_fills(old_runs, seq._internal(n), support, memo)
    assert got == run_walk_fills(seq, n, support, walk_memo)
    for _ in range(3):
        a, b = sorted(data.draw(st.lists(st.sampled_from(levels),
                                         min_size=2, max_size=2),
                                label="levels"))
        want = old_first_edge_composite(steps, seq.graph_at(a),
                                        seq._internal(a), seq._internal(b))
        assert seq.first_edge_composite(a, b) == want
        assert seq.first_edge_composite(a) == old_first_edge_composite(
            steps, seq.graph_at(a), seq._internal(a), len(steps))
    assert "morphisms" not in seq.__dict__


# -- cancellation ----------------------------------------------------------


_G = rose("ab")
_FIB = rose_morphism(_G, {"a": "a b", "b": "a"})
# h(f(a)) = h(a) h(b) = b -a a: the composite cancels
_CANCEL_POOL = (_FIB, rose_morphism(_G, {"a": "b -a", "b": "a"}),
                rose_morphism(_G, {"a": "a", "b": "b a"}),
                rose_morphism(_G, {"a": "-a", "b": "-b"}))


@st.composite
def _cancelling_runs(draw):
    runs = draw(st.lists(st.tuples(st.sampled_from(_CANCEL_POOL),
                                   st.integers(1, 4)),
                         min_size=1, max_size=12), label="runs")
    return runs, draw(st.sampled_from(("folding", "unfolding")))


@settings(max_examples=300, deadline=None)
@given(chain=_cancelling_runs())
def test_unvalidated_chains_cancel_at_the_same_step(chain):
    runs, direction = chain
    steps = _expand(runs)
    want = _outcome(old_propagate_taken, steps)
    seq = FoldingSequence.from_runs(runs, direction, validate=False)
    got = _outcome(lambda: tuple(seq.taken_turns_at(n) for n in seq.levels))
    assert got == want
    cancels = want[0] == "error"
    assert _outcome(seq.validate) == (want if cancels else None)
    validated = _outcome(FoldingSequence.from_runs, runs, direction)
    assert validated == want if cancels else \
        validated.step_runs == seq.step_runs


def test_cancellation_names_its_internal_step():
    runs = [(_FIB, 3), (_CANCEL_POOL[1], 2)]
    message = ("composite image cancels at internal step 3: taken turn "
               "(-a,b) maps to a degenerate turn at a")
    assert _outcome(old_propagate_taken, _expand(runs)) == \
        ("error", message)
    with pytest.raises(SequenceError) as info:
        FoldingSequence.from_runs(runs, "folding")
    assert str(info.value) == message


# -- construction ----------------------------------------------------------


def test_from_runs_merges_and_drops_empty_runs(rose2):
    f, g = _FIB, identity_morphism(_G)
    seq = FoldingSequence.from_runs([(f, 3), (f, 2), (g, 0), (f, 1), (g, 4)])
    assert seq.step_runs == ((0, 6, f), (6, 4, g))
    assert seq.n_steps == 10
    # a bool counts as an int
    seq = FoldingSequence.from_runs([(f, True), (f, 2), (g, False)])
    assert seq.step_runs == ((0, 3, f),) and seq.n_steps == 3
    with pytest.raises(SequenceError, match="at least one step"):
        FoldingSequence.from_runs([(f, 0)])
    with pytest.raises(SequenceError, match="^steps 2 and 3 do not chain$"):
        FoldingSequence.from_runs([(identity_morphism(rose2), 3),
                                   (identity_morphism(rose("abc")), 1)])


@pytest.mark.parametrize("count", [2.5, "3", None, Fraction(3), 3.0])
def test_a_run_count_that_is_not_an_integer_is_refused(count):
    """A float, a string or None gave a bare ``TypeError`` from a list
    index or a comparison."""
    with pytest.raises(SequenceError,
                       match=f"^run count {re.escape(repr(count))} is not "
                             "an integer$"):
        FoldingSequence.from_runs([(_FIB, 2), (_FIB, count)])


def test_repeated_file_lines_merge_into_one_run(tmp_path):
    g = marked(rose("ab"))
    write_graph(g, tmp_path / "g.graph")
    f = rose_morphism(g.graph, {"a": (1, 2), "b": (1,)})
    h = rose_morphism(g.graph, {"a": (1,), "b": (2, 1)})
    for name, step in (("f", f), ("h", h)):
        (tmp_path / f"{name}.morphism").write_text(
            serialize_morphism(step, "g.graph", "g.graph"))
    lines = ["DIRECTION", "folding", "STEPS", "f.morphism x3",
             "f.morphism x2", "./f.morphism", "h.morphism x1000000000000",
             "f.morphism"]
    (tmp_path / "s.sequence").write_text("\n".join(lines) + "\n")
    seq = parse_sequence(tmp_path / "s.sequence")
    (_, _, parsed_f), (_, _, parsed_h), _ = seq.step_runs
    assert seq.step_runs == ((0, 6, parsed_f),
                             (6, 10 ** 12, parsed_h),
                             (6 + 10 ** 12, 1, parsed_f))
    assert seq.n_steps == 7 + 10 ** 12
    assert "morphisms" not in seq.__dict__


# -- the carry budget -------------------------------------------------------


@pytest.mark.parametrize("images,bits", [
    ({"a": "a b", "b": "a"}, 1),            # sums 2
    ({"a": "a", "b": "b"}, 1),              # sums 1: the floor
    ({"a": "a b b", "b": "b"}, 2),          # row sum 3
    ({"a": "a b a b", "b": "b"}, 2),        # column sum 4
    ({"a": "a b a b a", "b": "b"}, 3),      # column sum 5
])
def test_growth_bits(rose2, images, bits):
    f = rose_morphism(rose2, images)
    M = f.incidence_matrix()
    s = max(max(map(sum, M)), max(map(sum, zip(*M))))
    assert f.growth_bits() == bits == max(1, math.ceil(math.log2(s)))


def test_carry_budget_is_inclusive(monkeypatch):
    """Entries of ones take 2 bits (numerator and denominator); each
    Fibonacci step adds at most one."""
    seq = gen_fibonacci(steps=100, direction="folding").sequence
    monkeypatch.setattr(sequences, "CARRY_BIT_BUDGET", 102)
    frequency_current(seq).at_levels([100])
    monkeypatch.setattr(sequences, "CARRY_BIT_BUDGET", 101)
    with pytest.raises(BudgetExceededError) as info:
        frequency_current(seq).at_levels([100])
    assert str(info.value) == (
        "carrying 100 steps could reach 102 bits, past the limit of 101 "
        "bits (sequences.CARRY_BIT_BUDGET)")


# -- command line ------------------------------------------------------------


def _gen(tmp_path, *args):
    assert main(["gen", *args, "--out-dir", str(tmp_path)]) == 0
    return next(str(p) for p in tmp_path.iterdir()
                if p.name.endswith(".sequence"))


def _huge(tmp_path, direction="folding"):
    """A Fibonacci chain of 10^13 steps, as one run."""
    path = _gen(tmp_path, "fibonacci", "--steps", "1", "--direction",
                direction)
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text.replace("fibonacci_step0.morphism\n",
                              "fibonacci_step0.morphism x10000000000000\n"))
    return path


def test_fold_of_10_13_steps_exits_3_at_once(tmp_path, capsys):
    path = _huge(tmp_path)
    capsys.readouterr()
    start = time.perf_counter()
    assert main(["fold", path]) == 3
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "budget: carrying 10000000000000 steps could reach 10000000000002 "
        "bits, past the limit of 2000000 bits "
        "(sequences.CARRY_BIT_BUDGET)\n")


def test_progress_of_10_13_steps_exits_0(tmp_path, capsys):
    path = _huge(tmp_path)
    capsys.readouterr()
    assert main(["progress", path]) == 0
    report = json.loads(capsys.readouterr().out)["progress"]
    T = 10 ** 13
    assert report["levels"] == list(range(0, T, T // 200))
    assert len(report["horizons"]) == 200


@pytest.mark.parametrize("direction,window", [("folding", "--window=0:5"),
                                              ("unfolding", "--window=-5:0")])
def test_decompose_of_10_13_steps_exits_3_at_once(tmp_path, capsys,
                                                  direction, window):
    """The window is a slice of the level range, so the carry budget
    refuses the deep end's track before any level is listed."""
    path = _huge(tmp_path, direction)
    capsys.readouterr()
    start = time.perf_counter()
    assert main(["decompose", path, window]) == 3
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "budget: carrying 10000000000000 steps could reach 9999999999997 "
        "bits, past the limit of 2000000 bits "
        "(sequences.CARRY_BIT_BUDGET)\n")


@pytest.mark.parametrize("direction", ["unfolding", "folding"])
def test_cone_past_the_carry_budget_is_refused_before_any_product(
        tmp_path, capsys, direction):
    """Depth 3000000 of the 10^13-step chain: the carry bounds every
    stretch before it forms a product, so it refuses at once, where it
    formed the products up to its last stop below the budget first (about
    17 s unfolding and 19 s folding)."""
    path = _huge(tmp_path, direction)
    capsys.readouterr()
    start = time.perf_counter()
    assert main(["cone", path, "--depth", "3000000"]) == 3
    assert time.perf_counter() - start < 2.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "budget: carrying 3000000 steps could reach 2000002 bits, past the "
        "limit of 2000000 bits (sequences.CARRY_BIT_BUDGET)\n")


def test_cone_of_10_13_steps_exits_3_at_once(tmp_path, capsys):
    """The zero patterns follow the run by its orbit, not step by step, and
    the carry refuses its first stretch past the limit before any
    product; depth 1 is split, so the first stretch ends at the second
    sampled depth, as it did when depth 1 was carried too."""
    path = _huge(tmp_path, "unfolding")
    capsys.readouterr()
    start = time.perf_counter()
    assert main(["cone", path, "--depth", "10000000000000"]) == 3
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "budget: carrying 10000000000000 steps could reach 158730158733 "
        "bits, past the limit of 2000000 bits "
        "(sequences.CARRY_BIT_BUDGET)\n")


@pytest.mark.parametrize("direction,bits", [("unfolding", 4000002),
                                            ("folding", 4000010)])
def test_split_cone_past_the_carry_budget_names_the_whole_run(
        tmp_path, capsys, direction, bits):
    """Rank-3 blocks of 4 and 4000000 steps: every sampled depth is split,
    so the carry stops only at the final depth and refuses the 4000000-step
    run as one stretch.  The refusal fires on the same chains as when the
    carry stopped at every sampled depth, since the bound sums each step's
    growth whatever the stops, but its figure names the whole run, where
    it named the stretch to the next sampled depth (2031750 bits unfolding,
    2031754 folding)."""
    path = _gen(tmp_path, "alternating_block", "--rank", "3", "--schedule",
                "4,4000000", "--direction", direction)
    capsys.readouterr()
    assert main(["cone", path, "--depth", "4000004"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"budget: carrying 4000004 steps could reach {bits} bits, past the "
        "limit of 2000000 bits (sequences.CARRY_BIT_BUDGET)\n")


def test_lamination_of_10_13_steps_exits_0(tmp_path, capsys):
    path = _huge(tmp_path, "unfolding")
    capsys.readouterr()
    assert main(["lamination", path, "--depth", "5", "--length", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["depth"] == 5 and report["count"] == len(report["words"])


def test_speed_of_10_13_steps_exits_0(tmp_path, capsys):
    path = _huge(tmp_path)
    capsys.readouterr()
    assert main(["progress", path, "--speed"]) == 0
    assert "speed" in json.loads(capsys.readouterr().out)


def test_reduced_window_of_10_13_steps_returns_at_once(tmp_path):
    seq = parse_sequence(_huge(tmp_path))
    start = time.perf_counter()
    assert is_reduced_window(seq, (0, 3)) == {
        "passed": True, "witness": None, "window": (0, 3)}
    assert time.perf_counter() - start < 1.0


@settings(max_examples=300, deadline=None)
@given(steps=st.integers(1, 12),
       direction=st.sampled_from(("folding", "unfolding")),
       n0=st.integers(-16, 16), n1=st.integers(-16, 16))
def test_level_windows_are_the_filtered_levels(steps, direction, n0, n1):
    seq = FoldingSequence.from_runs([(_FIB, steps)], direction)
    assert list(seq._levels_between(n0, n1)) \
        == [n for n in seq.levels if n0 <= n <= n1]


_JOBS = [
    (("fibonacci", "--steps", "40", "--direction", "folding"),
     ("fold", "--window", "0:3")),
    (("fibonacci", "--steps", "40", "--direction", "unfolding"),
     ("cone", "--depth", "30")),
    (("alternating_block", "--schedule", "9,9,9", "--direction",
      "folding"), ("progress", "--speed")),
    (("alternating_block", "--schedule", "3,3,3", "--direction",
      "unfolding"), ("decompose", "--window=-9:0")),
    (("alternating_block", "--schedule", "3,3,3", "--direction",
      "folding"), ("decompose", "--window=0:9")),
    (("fibonacci", "--steps", "12", "--direction", "unfolding"),
     ("lamination", "--depth", "10", "--length", "3")),
    (("fibonacci", "--steps", "12", "--direction", "unfolding"),
     ("lamination", "--depth", "10", "--length", "3", "--source", "legal")),
]


@pytest.mark.parametrize("gen,job", _JOBS)
def test_jobs_never_expand_the_steps(tmp_path, monkeypatch, capsys, gen,
                                     job):
    """Package code reads steps through the runs: no job fills the
    ``morphisms`` tuple that outside callers may read."""
    path = _gen(tmp_path, *gen)
    parsed = []

    def recording_parse(path):
        parsed.append(parse_sequence(path))
        return parsed[-1]

    monkeypatch.setattr(cli, "parse_sequence", recording_parse)
    assert main([job[0], path, *job[1:]]) == 0
    assert len(parsed) == 1
    assert "morphisms" not in parsed[0].__dict__

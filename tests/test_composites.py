"""Composites built once, against the code they replaced.

``FoldingSequence._carry`` forms each run power M^k once per call and
reuses it for every later stretch of k steps of the same step object;
``metric._edge_images`` builds a sample's edge images right to left, each
step joining whole table entries.  The oracles below are the replaced code:
a carry that forms M^k by repeated squaring for every stretch, and edge
images carried forward letter by letter through each step and tightened.
Hypothesis compares the cones, tracks and speed reports of the two on long
runs (cone depths past the 64 sampled depths, so that stretch lengths
repeat) and on unvalidated chains whose composite images cancel.
"""

from collections import Counter
from contextlib import contextmanager
from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from foldspace import (FoldingSequence, current_track_from_initial,
                       gen_alternating_block, length_track_from_terminal,
                       rose)
from foldspace import metric, sequences
from foldspace.cones import current_cone, length_cone
from foldspace.errors import BudgetExceededError
from foldspace.linalg import mat_mul, mat_pow
from foldspace.metric import _edge_images, linearity_and_speed
from foldspace.paths import _join_reduced, reverse_path, tighten

from conftest import rose_morphism
from test_lamination import _POOLS
from test_runs import _CANCEL_POOL, _RUN_POOLS
from test_sequences import _seed
from test_speed import _JUNCTION_POOLS, _pieces


# -- the replaced code -----------------------------------------------------


def old_carry(self, vectors, kind, start, count, stops=()):
    """``FoldingSequence._carry`` with M^k formed for every stretch, on
    the step range of the carry, clipped to each run by bisection."""
    steps = range(start, start + count) if kind == "current" \
        else range(start - 1, start - count - 1, -1)
    n = len(steps)
    cuts = sorted({c for c in stops if 0 < c < n} | {n}) if n else ()
    width = len(vectors) if kind == "length" else len(vectors[0])
    bits = max(x.numerator.bit_length() + x.denominator.bit_length()
               for row in vectors for x in row)
    done = 0
    for cut in cuts:
        while done < cut:
            i = steps[done]
            start, length, f = self.step_runs[
                sequences.bisect_right(self._run_starts, i) - 1]
            left = start + length - i if steps.step > 0 else i - start + 1
            k = min(cut - done, left)
            bits += k * f.growth_bits()
            if bits > sequences.CARRY_BIT_BUDGET:
                raise BudgetExceededError(
                    f"carrying {n} steps could reach {bits} bits, past "
                    f"the limit of {sequences.CARRY_BIT_BUDGET} bits "
                    "(sequences.CARRY_BIT_BUDGET)")
            M, reps = f.incidence_matrix(), k
            if (k - 1) * width > (k.bit_length() + k.bit_count() - 2) \
                    * len(M):
                M, reps = mat_pow(M, k), 1
            for _ in range(reps):
                vectors = mat_mul(vectors, M) if kind == "length" \
                    else mat_mul(M, vectors)
            done += k
        yield done, vectors


def old_edge_images(seq, i, gap):
    """``metric._edge_images`` carrying every letter forward through each
    step, tightening after each."""
    images = [(e,) for e in range(1, seq._step(i).domain.n_edges + 1)]
    for step in map(seq._step, range(i, i + gap)):
        images = [tighten(step.apply_to_path(p)) for p in images]
    table = {}
    for e, p in enumerate(images, start=1):
        table[e] = p
        table[-e] = reverse_path(p)
    return table


@contextmanager
def _replaced():
    """Run the enclosed calls on the replaced code."""
    carry, images = sequences.FoldingSequence._carry, metric._edge_images
    sequences.FoldingSequence._carry = old_carry
    metric._edge_images = old_edge_images
    try:
        yield
    finally:
        sequences.FoldingSequence._carry = carry
        metric._edge_images = images


# -- chains ----------------------------------------------------------------


_G = rose("ab")
# a -> a b^-1 is not positive: a validated chain never cancels and the
# pools above are positive, so without it the joins never cancel
_NEGATIVE_POOL = _CANCEL_POOL + (
    rose_morphism(_G, {"a": "a -b", "b": "b"}),
    rose_morphism(_G, {"a": "-b a", "b": "a"}))


@st.composite
def _long_runs(draw):
    """Validated chains from ``from_runs``: up to 6 runs of 1-3000 steps of
    the Fibonacci or alternating-block steps, or up to 8 runs of 1-400
    steps over a ``_chains`` pool."""
    if draw(st.booleans()):
        pool, counts, most = draw(st.sampled_from(_RUN_POOLS)), 3000, 6
    else:
        pool, counts, most = draw(st.sampled_from(_POOLS)), 400, 8
    runs = draw(st.lists(st.tuples(st.sampled_from(pool),
                                   st.integers(1, counts)),
                         min_size=1, max_size=most), label="runs")
    direction = draw(st.sampled_from(("folding", "unfolding")))
    return lambda: FoldingSequence.from_runs(runs, direction)


@st.composite
def _cancelling_runs(draw):
    """Unvalidated chains whose composite images cancel: runs of 1-4 steps
    over the non-positive rose steps, or of the theta and barbell maps."""
    pool = draw(st.sampled_from((_NEGATIVE_POOL,) + _JUNCTION_POOLS))
    runs = draw(st.lists(st.tuples(st.sampled_from(pool),
                                   st.integers(1, 4)),
                         min_size=1, max_size=10), label="runs")
    direction = draw(st.sampled_from(("folding", "unfolding")))
    return lambda: FoldingSequence.from_runs(runs, direction,
                                             validate=False)


def _draw_reads(seq, data):
    """What to read: a cone depth (past the 64 samples when the chain is
    longer than that), evenly spaced levels, a level pair for a composite
    matrix, and seeds for a length and a current track."""
    T = seq.n_steps
    depth = data.draw(st.integers(65 if T > 64 else 0, T), label="depth")
    levels = list(seq.levels)
    count = data.draw(st.integers(2, 80), label="levels")
    spaced = [levels[round(j * T / (count - 1))] for j in range(count)]
    pair = sorted(data.draw(st.lists(st.sampled_from(levels), min_size=2,
                                     max_size=2), label="matrix"))
    seeds = [_seed(data, seq.graph_at(levels[end]).n_edges)
             for end in (-1, 0)]
    return depth, spaced, pair, seeds


def _reads(seq, depth, spaced, pair, seeds):
    cone = current_cone if seq.direction == "unfolding" else length_cone
    return (cone(seq, depth),
            length_track_from_terminal(seq, seeds[0]).at_levels(spaced),
            current_track_from_initial(seq, seeds[1]).at_levels(spaced),
            seq.composite_matrix(*pair),
            seq.image_lengths(spaced[1]),
            linearity_and_speed(seq))


def _old_reads(make, *args):
    """The reads on a fresh sequence (tracks and image lengths keep what
    they carry), through the replaced code."""
    with _replaced():
        return _reads(make(), *args)


@settings(max_examples=60, deadline=None)
@given(make=_long_runs(), data=st.data())
def test_long_runs_match_the_replaced_code(make, data):
    seq = make()
    args = _draw_reads(seq, data)
    assert _reads(seq, *args) == _old_reads(make, *args)


@settings(max_examples=100, deadline=None)
@given(make=_cancelling_runs(), data=st.data())
def test_cancelling_chains_match_the_replaced_code(make, data):
    seq = make()
    args = _draw_reads(seq, data)
    assert _reads(seq, *args) == _old_reads(make, *args)
    for _ in range(4):
        i = data.draw(st.integers(0, seq.n_steps - 1), label="start")
        gap = data.draw(st.integers(1, min(16, seq.n_steps - i)),
                        label="gap")
        assert _edge_images(seq, i, gap) == old_edge_images(seq, i, gap)


def _carried(carry, seq, *args):
    """The (count, block) pairs a carry yields, or its refusal."""
    try:
        return list(carry(seq, *args))
    except BudgetExceededError as exc:
        return ("budget", str(exc))


@settings(max_examples=300, deadline=None)
@given(make=_long_runs(), data=st.data())
def test_carry_refusals_match_the_replaced_code(make, data):
    """``_carry`` bounds every stretch before its first product; the
    replaced code bounded each cut stretch just before forming it.  Both
    refuse the same carries with the same figure, under budgets that stop
    carries at every point of the chains, with stops as lists and ranges
    reaching past either end."""
    seq = make()
    T = seq.n_steps
    kind = data.draw(st.sampled_from(("current", "length")), label="kind")
    start = data.draw(st.integers(0, T), label="start")
    count = data.draw(st.integers(0, T - start if kind == "current"
                                  else start), label="count")
    ends = st.integers(-2, count + 2)
    if data.draw(st.booleans(), label="range"):
        stops = range(data.draw(ends, label="first"),
                      data.draw(ends, label="stop"))
    else:
        stops = sorted(set(data.draw(st.lists(ends, max_size=8),
                                     label="stops")))
    n = seq.graph_at(seq.levels[0]).n_edges
    block = [[_seed(data, n)[j] for j in range(n)]
             for _ in range(data.draw(st.integers(1, 2), label="width"))]
    if kind == "current":
        block = [list(col) for col in zip(*block)]
    budget = data.draw(st.integers(0, 2 * T + 64), label="budget")
    with patch.object(sequences, "CARRY_BIT_BUDGET", budget):
        assert _carried(sequences.FoldingSequence._carry, seq, block, kind,
                        start, count, stops) == \
            _carried(old_carry, seq, block, kind, start, count, stops)


# -- the join --------------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(pieces=_pieces())
def test_join_matches_tighten(pieces):
    assert _join_reduced(pieces) == tighten([e for p in pieces for e in p])


def test_join_cases():
    assert _join_reduced([]) == ()
    assert _join_reduced([(1, 2), (-2, -1)]) == ()
    # a piece consumed whole, then the next one cancels further back
    assert _join_reduced([(1, 2, 3), (-3,), (-2, 4)]) == (1, 4)
    assert _join_reduced([(1,), (), (2, -1), (1, 3)]) == (1, 2, 3)
    assert _join_reduced([(1, 2), (-2, -1, 3)]) == (3,)


def test_join_cancels_every_length():
    """Cancellations of every length up to 70 letters, ending inside a
    piece, with the piece, or with everything joined before it."""
    for n in range(71):
        a = tuple(1 + i % 2 for i in range(n))
        for c in range(n + 1):
            back = reverse_path(a[n - c:])
            assert _join_reduced([a, back + (3,)]) == a[:n - c] + (3,)
            assert _join_reduced([(4,) + a, back]) == (4,) + a[:n - c]
            assert _join_reduced([a, back]) == a[:n - c]


# -- one power per (step, k) -------------------------------------------------


def test_each_run_power_is_formed_once_per_carry(monkeypatch):
    """On the canned 5460-step alternating blocks, the evenly spaced cone
    depths cut each run into stretches of one or two lengths; every
    (matrix, k) a cone asks for is formed once (the two block steps have
    different matrices)."""
    calls = []

    def counting(M, k):
        calls.append((tuple(map(tuple, M)), k))
        return mat_pow(M, k)

    monkeypatch.setattr(sequences, "mat_pow", counting)
    for rank in (3, 4):
        for direction in ("unfolding", "folding"):
            seq = gen_alternating_block(rank=rank,
                                        direction=direction).sequence
            cone = current_cone if direction == "unfolding" else length_cone
            calls.clear()
            cone(seq, seq.n_steps)
            assert calls
            assert max(Counter(calls).values()) == 1

"""Linear speed from composite edge images: the length of a join of reduced
pieces against the old junction-only helper, the whole report against
carrying each loop step by step, and the report bytes on the canned folding
blocks."""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldspace import gen_fibonacci
from foldspace.cli import main
from foldspace.errors import MalformedPathError
from foldspace.graphs import theta_graph
from foldspace.linalg import frac_log
from foldspace.metric import (_PAIRS_PER_GAP, _SAMPLE_GAPS, SpeedReport,
                              _first_max_ratio, _sample_starts, candidates,
                              linearity_and_speed)
from foldspace.morphisms import GraphMorphism, validate_change_of_marking
from foldspace.paths import (_cyclic_core, _join_reduced, cyclic_tighten,
                             reverse_path, tighten)
from foldspace.sequences import FoldingSequence

from conftest import barbell_graph
from test_sequences import _chains


# -- the length of a join of reduced pieces ------------------------------


def cyclic_reduced_length(pieces):
    """Oracle: ``len(cyclic_tighten(concatenation of pieces))`` for reduced
    pieces, without forming the concatenation.

    A reduced piece cancels only at its junctions, so a stack of slices
    (piece, lo, hi), whose concatenation is the reduced prefix, meets each
    new piece at its top; the seam is then cancelled from both ends.  The
    cost grows with the number of pieces plus the cancellation, not with
    the pieces' lengths.  Empty pieces are skipped; 0 means the loop
    collapses.  (The speed samples measured loops this way before they
    joined the images with ``_join_reduced`` and cut the seam with
    ``_cyclic_core``.)
    """
    stack = []
    n = 0
    for p in pieces:
        lo, hi = 0, len(p)
        while lo < hi and stack:
            q, qlo, qhi = stack[-1]
            m = min(hi - lo, qhi - qlo)
            k = 0
            while k < m and q[qhi - 1 - k] == -p[lo + k]:
                k += 1
            lo += k
            n -= k
            if k < qhi - qlo:
                if k:
                    stack[-1] = (q, qlo, qhi - k)
                break
            stack.pop()
        if lo < hi:
            stack.append((p, lo, hi))
            n += hi - lo
    if n < 2:
        return n
    a, b = 0, len(stack) - 1
    qa, i, ahi = stack[a]
    qb, blo, j = stack[b]
    while n >= 2:
        if i == ahi:
            a += 1
            qa, i, ahi = stack[a]
        if j == blo:
            b -= 1
            qb, blo, j = stack[b]
        if qa[i] != -qb[j - 1]:
            break
        i += 1
        j -= 1
        n -= 2
    return n


def _loop_length(pieces):
    """The speed samples' length of a loop read as reduced pieces."""
    return len(_cyclic_core(_join_reduced(pieces)))


_letters = st.sampled_from((1, -1, 2, -2))
_tight = st.lists(_letters, max_size=8).map(tighten)


@st.composite
def _pieces(draw):
    """Tight pieces over a two-letter alphabet, so that junctions and the
    seam cancel often; empty pieces are common, and half the time the
    pieces are followed by the inverse of their concatenation, cut into
    pieces of its own, so that everything collapses."""
    pieces = draw(st.lists(_tight, max_size=8))
    if draw(st.booleans()):
        back = reverse_path(tighten([e for p in pieces for e in p]))
        cuts = sorted(draw(st.lists(st.integers(0, len(back)), max_size=4)))
        bounds = [0, *cuts, len(back)]
        pieces += [back[a:b] for a, b in zip(bounds, bounds[1:])]
    return pieces


@settings(max_examples=400, deadline=None)
@given(pieces=_pieces())
def test_cyclic_reduced_length_matches_cyclic_tighten(pieces):
    joined = tuple(e for p in pieces for e in p)
    n = len(cyclic_tighten(joined))
    assert _loop_length(pieces) == cyclic_reduced_length(pieces) == n


_CASES = [
    ([], 0),
    ([(), ()], 0),
    ([(1, 2), (), (-2, -1)], 0),
    # the seam cancels across an empty piece
    ([(1, 2), (), (3,), (-1,)], 2),
    # a piece cancels two letters at a junction, then the seam one pair
    ([(1, 2, 3), (-3, -2, 2), (-1,)], 1),
    ([(1, 2, -1)], 1),
]


def test_cyclic_reduced_length_cases():
    for pieces, n in _CASES:
        joined = tuple(e for p in pieces for e in p)
        assert _loop_length(pieces) == cyclic_reduced_length(pieces) == n
        assert len(cyclic_tighten(joined)) == n


# -- the whole report against carrying each loop ----------------------------


def _transport_cycle(seq, loop, level_from, gap):
    """Oracle: carry a loop step by step, tightening after each step."""
    i = seq._internal(level_from)
    p = loop
    for t in range(i, i + gap):
        step = seq.morphisms[t]
        p = tighten(step.apply_to_path(p))
    p = cyclic_tighten(p)
    if not p:
        raise MalformedPathError("essential loop collapsed in transport")
    return p


def _loop_speed(seq, *, sample_gaps=(1, 2, 4, 8, 16), pairs_per_gap=4):
    """Oracle: the report with every candidate loop carried step by step
    and the step entries read once per step."""
    levels = list(seq.levels)
    entries = [max(max(row) for row in seq.matrix_at(n))
               for n in levels[:-1]]
    half = len(entries) // 2
    entries_grow = (len(entries) >= 2 and half >= 1
                    and max(entries[half:]) > max(entries[:half]))
    samples = []
    speed = 0.0
    for gap in sample_gaps:
        if gap > seq.n_steps:
            continue
        froms = [levels[k] for k in
                 sorted({round(j * (seq.n_steps - gap)
                               / max(1, pairs_per_gap - 1))
                         for j in range(pairs_per_gap)})]
        for lf in froms:
            g_from = seq.graph_at(lf)
            g_to = seq.graph_at(lf + gap)
            d_best = None
            for cand in candidates(g_from):
                image = _transport_cycle(seq, cand.path, lf, gap)
                ratio = (Fraction(len(image), g_to.n_edges)
                         / Fraction(len(cand.path), g_from.n_edges))
                if d_best is None or ratio > d_best:
                    d_best = ratio
            d = frac_log(d_best) if d_best > 0 else 0.0
            samples.append((lf, lf + gap, d))
            speed = max(speed, d / (gap + 1))
    return SpeedReport(entry_max=max(entries), entries_grow=entries_grow,
                       samples=tuple(samples), speed=speed)


@settings(max_examples=100, deadline=None)
@given(seq=_chains())
def test_speed_matches_the_step_loop_on_rose_chains(seq):
    assert linearity_and_speed(seq) == _loop_speed(seq)


def _old_first_max(pairs, e_from, e_to):
    """The replaced selection: each candidate's ratio as a quotient of
    Fractions, the first one kept on a tie."""
    best = d_best = None
    for n, k in pairs:
        ratio = Fraction(n, e_to) / Fraction(k, e_from)
        if d_best is None or ratio > d_best:
            best, d_best = (n, k), ratio
    return best, d_best


@settings(max_examples=400, deadline=None)
@given(pairs=st.lists(st.tuples(st.integers(1, 12), st.integers(1, 6)),
                      min_size=1, max_size=12),
       scale=st.integers(1, 3), e_from=st.integers(1, 9),
       e_to=st.integers(1, 9))
def test_best_candidate_matches_the_fraction_quotients(pairs, scale, e_from,
                                                       e_to):
    """Small image and loop lengths tie often, also between unequal pairs
    such as (2, 1) and (4, 2): the same first pair wins, and its one
    Fraction is the old best ratio."""
    pairs = pairs + [(n * scale, k * scale) for n, k in pairs]
    best, d_best = _old_first_max(pairs, e_from, e_to)
    assert _first_max_ratio(pairs) == best
    n, k = best
    assert Fraction(n * e_from, k * e_to) == d_best


def _theta_pool():
    """Theta self-maps e_i -> e_i e_k^-1 e_j and e_j e_k^-1 e_i, the swap of
    the two vertices (every edge reversed) and a rotation of the edges.
    A circle e_i e_j^-1 cancels at its junction under most of them."""
    g = theta_graph()
    ids = g.edge_ids
    fixed = {"u": "u", "v": "v"}
    pool = []
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            k = 3 - i - j
            for image in ((i + 1, -(k + 1), j + 1), (j + 1, -(k + 1), i + 1)):
                images = {e: (n + 1,) for n, e in enumerate(ids)}
                images[ids[i]] = image
                pool.append(GraphMorphism(g, g, fixed, images))
    pool.append(GraphMorphism(g, g, {"u": "v", "v": "u"},
                              {e: (-(n + 1),) for n, e in enumerate(ids)}))
    pool.append(GraphMorphism(g, g, fixed, {e: ((n + 1) % 3 + 1,)
                                            for n, e in enumerate(ids)}))
    return tuple(pool)


def _barbell_pool():
    """Barbell self-maps (loops p at u and q at v, bridge s from u to v):
    each loop absorbs the other one carried across the bridge, the bridge
    slides over either loop, and either loop is reversed."""
    g = barbell_graph()
    fixed = {"u": "u", "v": "v"}
    p, q, s = 1, 2, 3
    changes = ({"p": (p, s, q, -s)}, {"p": (s, q, -s, p)},
               {"q": (-s, p, s, q)}, {"q": (q, -s, p, s)},
               {"s": (p, s)}, {"s": (-p, s)}, {"s": (s, q)},
               {"s": (s, -q)}, {"p": (-p,)}, {"q": (-q,)})
    return tuple(GraphMorphism(g, g, fixed,
                               {"p": (p,), "q": (q,), "s": (s,), **change})
                 for change in changes)


_JUNCTION_POOLS = (_theta_pool(), _barbell_pool())


def test_junction_pools_are_changes_of_marking():
    for pool in _JUNCTION_POOLS:
        assert all(validate_change_of_marking(f) for f in pool)


@st.composite
def _junction_chains(draw):
    """Chains of the theta or barbell pool.  Their composite images cancel
    inside, so the sequence's no-cancellation pass would refuse most of
    them; it is skipped, since the report does not rest on it."""
    pool = draw(st.sampled_from(_JUNCTION_POOLS))
    # up to 20 steps keeps the gap-16 images of the oracle small
    steps = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=20))
    direction = draw(st.sampled_from(("folding", "unfolding")))
    return FoldingSequence(steps, direction, validate=False)


@settings(max_examples=100, deadline=None)
@given(seq=_junction_chains())
def test_speed_matches_the_step_loop_on_theta_and_barbell(seq):
    assert linearity_and_speed(seq) == _loop_speed(seq)


def test_junction_pools_cancel_at_the_junctions():
    """Most maps of the theta and barbell pools cancel, between edge
    images or at the seam, in the image of some candidate loop, so the
    differential test above reaches the helper's cancelling paths."""
    for pool in _JUNCTION_POOLS:
        cancelling = sum(
            any(len(cyclic_tighten(f.apply_to_path(cand.path)))
                < len(f.apply_to_path(cand.path))
                for cand in candidates(f.domain))
            for f in pool)
        assert 2 * cancelling >= len(pool)


def test_collapsed_edges_and_collapse_error(rose2, theta):
    """A collapsed edge is an empty piece; a loop carried onto nothing
    still raises the transport error."""
    ab = {"*": "*"}
    to_rose = GraphMorphism(theta, rose2, {"u": "*", "v": "*"},
                            {"e1": (1, 2), "e2": (-2, 1), "e3": ()})
    twist = GraphMorphism(rose2, rose2, ab, {"a": (1, 2), "b": (-1,)})
    seq = FoldingSequence([to_rose, twist, twist], "folding",
                          validate=False)
    assert linearity_and_speed(seq) == _loop_speed(seq)
    kill = GraphMorphism(rose2, rose2, ab, {"a": (), "b": ()})
    seq = FoldingSequence([kill], "folding", validate=False)
    with pytest.raises(MalformedPathError,
                       match="essential loop collapsed in transport"):
        linearity_and_speed(seq)


def test_step_entries_split_by_half_inside_a_run(rose2):
    """A run that straddles n_steps // 2 counts in both halves."""
    one = GraphMorphism(rose2, rose2, {"*": "*"}, {"a": (1, 2), "b": (1,)})
    big = GraphMorphism(rose2, rose2, {"*": "*"},
                        {"a": (1, 2, 1), "b": (1, 2)})
    for steps in ([one] * 3 + [big] * 4, [one] * 4 + [big] * 3,
                  [big] * 4 + [one] * 3, [one, big], [big, one], [one]):
        seq = FoldingSequence(steps, "folding")
        report = linearity_and_speed(seq)
        oracle = _loop_speed(seq)
        assert (report.entry_max, report.entries_grow) == \
            (oracle.entry_max, oracle.entries_grow)
    assert linearity_and_speed(
        FoldingSequence([one] * 3 + [big] * 4, "folding")).entries_grow


# -- report bytes on the canned folding blocks ------------------------------


SPEED_DIGESTS = {
    "3": "4c6ce453e95aca3d211ff93ee05529678a4bb6c6b7ef0567a7980962f7f477bb",
    "4": "2866c728149151c7eb65ba72ad09f2fe7d41a03a3cbcd53df88fee2250315df4",
}


@pytest.mark.parametrize("rank", list(SPEED_DIGESTS))
def test_progress_speed_report_bytes(tmp_path, rank):
    assert main(["gen", "alternating_block", "--rank", rank,
                 "--direction", "folding", "--out-dir", str(tmp_path)]) == 0
    out = tmp_path / "progress.json"
    assert main(["progress", str(tmp_path / f"alternating{rank}.sequence"),
                 "--speed", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        SPEED_DIGESTS[rank]


# -- sample placement ----------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(n=st.integers(1, 2 ** 50 - 1), gap=st.sampled_from(_SAMPLE_GAPS))
def test_sample_starts_match_the_float_placement(n, gap):
    """Below 2^50 steps every j (n - gap) / 3 is exact as a float, so the
    integer rounding places the samples where ``round`` of the float
    quotient did, and every recorded speed digest keeps its bytes."""
    if gap > n:
        return
    assert _sample_starts(n, gap) == sorted(
        {round(j * (n - gap) / (_PAIRS_PER_GAP - 1))
         for j in range(_PAIRS_PER_GAP)})


@pytest.mark.parametrize("steps", [9007199254740999, 10 ** 16, 10 ** 20])
def test_speed_samples_on_chains_past_2_53_steps(steps):
    """Past 2^53 steps the float quotient rounded the last sample start
    past n - gap, and the report was refused with a level outside the
    sequence; integer rounding places every start where the exact
    rational rounds."""
    step = gen_fibonacci(steps=1, direction="folding").sequence._step(0)
    seq = FoldingSequence.from_runs([(step, steps)], "folding")
    report = linearity_and_speed(seq)
    starts = [lf for lf, _, _ in report.samples]
    assert starts == [round(Fraction(j * (steps - gap), 3))
                      for gap in _SAMPLE_GAPS for j in range(4)]
    assert all(lt - lf in _SAMPLE_GAPS and lt <= steps
               for lf, lt, _ in report.samples)

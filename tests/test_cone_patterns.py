"""Cone profiles decided by zero patterns, against the code they replaced.

``cones._build_cone`` follows one support bitmask per generator through
the steps (``_split_depths``): a sampled depth whose generators' supports
differ, or are empty, reads ``INF`` without a product, and the exact
product is carried only to the other sampled depths and to the final one.
``cones._widest`` compares every support before it cross-multiplies.  The
oracle below is the replaced code: a carry that stops at every sampled
depth and measures each product's widest pair, pair by pair.  Hypothesis
compares the two on chains whose supports split and then merge.
"""

from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldspace import (FoldingSequence, SequenceError, cones,
                       gen_alternating_block, gen_fibonacci, rose)
from foldspace.cones import (INF, _widest, current_cone, hilbert_distance,
                             length_cone, set_diameter)
from foldspace.linalg import identity

from conftest import rose_morphism
from test_lamination import _POOLS
from test_cones import _cross, _old_extreme_ray_indices
from test_runs import _RUN_POOLS


# -- the replaced code -----------------------------------------------------


def old_widest(vectors):
    """``_widest`` cross-multiplying pair by pair until a split pair."""
    worst = (1, 1)
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            pair = _cross(vectors[i], vectors[j])
            if pair is None:
                return None
            if pair[0] * worst[1] > worst[0] * pair[1]:
                worst = pair
    return worst


def old_build_cone(seq, depth, kind, tol):
    """``_build_cone`` stopping its carry at every sampled depth and
    measuring every product there, with the old hull test on the
    normalized generators."""
    if depth < 0 or depth > seq.n_steps:
        raise SequenceError(
            f"depth {depth} outside the stored range 0..{seq.n_steps}")
    T = seq.n_steps
    if kind == "current":
        carry, start = "length", T
        bound_depths = {T - b for b in seq.block_boundaries}
    else:
        carry, start = "current", 0
        bound_depths = set(seq.block_boundaries)
    want = cones._sample_depths(depth, bound_depths)
    ambient = seq.graph_at(0).n_edges
    prod = identity(ambient)
    profile = []
    for step_count, prod in seq._carry(prod, carry, start, depth, want):
        profile.append((step_count,
                        cones._log_width(cones._generators(prod, kind))))
    cols = cones._generators(prod, kind)
    diameter, ratio = set_diameter(cols)
    if not depth:
        profile.append((0, diameter))
    generators = tuple(cones._normalize_l1(c) for c in cols)
    clusters = cones.cluster_generators(cols, tol)
    reps = tuple(c[0] for c in clusters)
    extremes = _old_extreme_ray_indices(generators, reps)
    return cones.ConeApprox(kind=kind, depth=depth, ambient_dim=ambient,
                            generators=generators, diameter=diameter,
                            diameter_ratio=ratio,
                            diameter_profile=tuple(profile),
                            clusters=clusters, extreme_rays=extremes,
                            dimension=len(clusters), tol=tol)


@contextmanager
def _replaced():
    """Run the enclosed calls on the replaced code."""
    build, widest = cones._build_cone, cones._widest
    cones._build_cone, cones._widest = old_build_cone, old_widest
    try:
        yield
    finally:
        cones._build_cone, cones._widest = build, widest


# -- chains ----------------------------------------------------------------


@st.composite
def _split_then_merge(draw):
    """Validated chains whose generators start split (the identity) and
    may merge: up to 24 runs of 1-12 steps over the transvection pools
    (transvections, a rotation and the reversal of every edge), or up to 5
    runs of 1-300 steps of the Fibonacci or alternating-block steps, whose
    supports stay split on the reducible blocks; with block boundaries,
    which are sampled depths too."""
    if draw(st.booleans()):
        pool, counts, most = draw(st.sampled_from(_POOLS)), 12, 24
    else:
        pool, counts, most = draw(st.sampled_from(_RUN_POOLS)), 300, 5
    runs = draw(st.lists(st.tuples(st.sampled_from(pool),
                                   st.integers(1, counts)),
                         min_size=1, max_size=most), label="runs")
    T = sum(k for _, k in runs)
    bounds = draw(st.lists(st.integers(0, T), max_size=4), label="bounds")
    direction = draw(st.sampled_from(("folding", "unfolding")))
    return FoldingSequence.from_runs(runs, direction,
                                     block_boundaries=bounds)


def _pattern_split(seq, depth):
    """``_split_depths`` over the depths a cone of ``seq`` samples."""
    T = seq.n_steps
    if seq.direction == "unfolding":
        kind, carry, start = "current", "length", T
        bounds = {T - b for b in seq.block_boundaries}
    else:
        kind, carry, start = "length", "current", 0
        bounds = set(seq.block_boundaries)
    want = cones._sample_depths(depth, bounds)
    return cones._split_depths(seq, kind, carry, start, want)


@settings(max_examples=300, deadline=None)
@given(seq=_split_then_merge(), data=st.data())
def test_pattern_profiles_match_the_stepwise_oracle(seq, data):
    """The cones agree, and the depths the patterns call split are exactly
    those whose products the oracle measures as split: a depth wrongly
    called split would read INF, and one wrongly called merged would cost
    a product the patterns should have saved."""
    depth = data.draw(st.integers(0, seq.n_steps), label="depth")
    build = current_cone if seq.direction == "unfolding" else length_cone
    cone = build(seq, depth)
    with _replaced():
        old = build(seq, depth)
    assert cone == old
    assert _pattern_split(seq, depth) == {
        d for d, width in old.diameter_profile if d and width == INF}


@pytest.mark.parametrize("direction", ["folding", "unfolding"])
@pytest.mark.parametrize("images", [
    ({"a": "c a"}, {"a": "b a"}, {"c": "a c"}, {"b": "a b"}),
    ({"b": "a b"}, {"c": "a c"}, {"a": "b a"}, {"a": "c a"})])
def test_patterns_follow_columns_of_current_cones_and_rows_of_length_cones(
        direction, images):
    """Four rank-3 transvections, in both orders: at depth 4 the product's
    columns (a current cone's generators) are split while its rows are
    not, or the other way round, so a pass that read the rows of a current
    cone's matrices, or the columns of a length cone's, calls the wrong
    depths split."""
    g = rose("abc")
    steps = [rose_morphism(g, {"a": "a", "b": "b", "c": "c", **step})
             for step in images]
    seq = FoldingSequence(steps, direction)
    build = current_cone if direction == "unfolding" else length_cone
    with _replaced():
        old = build(seq, 4)
    assert _pattern_split(seq, 4) == {
        d for d, width in old.diameter_profile if width == INF}
    assert build(seq, 4) == old


def _recorded_stops(monkeypatch):
    """The stops of every carry made from now on, one list per carry."""
    stops = []
    carry = FoldingSequence._carry

    def recording(self, vectors, kind, start, count, stops_=()):
        stops.append(list(stops_))
        return carry(self, vectors, kind, start, count, stops_)

    monkeypatch.setattr(FoldingSequence, "_carry", recording)
    return stops


def test_split_depths_form_no_product(monkeypatch):
    """On the canned rank-3 blocks {a, b} is invariant, so every sampled
    depth is split: the carry stops at none of them, and only the final
    depth is formed."""
    stops = _recorded_stops(monkeypatch)
    for direction, build in (("folding", length_cone),
                             ("unfolding", current_cone)):
        seq = gen_alternating_block(rank=3, direction=direction).sequence
        stops.clear()
        cone = build(seq, seq.n_steps)
        assert stops == [[]]
        assert len(cone.diameter_profile) > 64
        assert all(d == INF for _, d in cone.diameter_profile)
        assert cone.diameter == INF and cone.diameter_ratio is None


def test_shared_supports_are_still_carried(monkeypatch):
    """On the Fibonacci chain one step leaves the columns split and two
    steps make them positive, so the carry stops at every sampled depth
    below the final one except depth 1."""
    stops = _recorded_stops(monkeypatch)
    seq = gen_fibonacci(steps=300, direction="unfolding").sequence
    cone = current_cone(seq, 300)
    depths = [d for d, _ in cone.diameter_profile]
    assert stops == [depths[1:]]
    assert cone.diameter_profile[0] == (1, INF)
    assert all(d < INF for _, d in cone.diameter_profile[1:])


# -- the widest pair -------------------------------------------------------


def test_widest_keeps_the_dimension_check():
    with pytest.raises(ValueError, match="vectors of different dimension"):
        _widest([(1, 2), (1, 2, 3)])
    # split supports do not hide a dimension mismatch
    with pytest.raises(ValueError, match="vectors of different dimension"):
        _widest([(1, 0), (0, 1), (1, 2, 3)])
    with pytest.raises(ValueError, match="vectors of different dimension"):
        hilbert_distance((1, 0), (1, 2, 3))


def test_one_generator_is_never_split():
    assert _widest([(0, 0)]) == (1, 1)
    assert _widest([(0, 5)]) == (1, 1)
    assert _widest([]) == (1, 1)
    assert set_diameter([(0, 0)]) == (0.0, 1)


def test_a_shared_empty_support_is_split():
    assert _widest([(0, 0), (0, 0)]) is None
    assert _widest([(0, 0, 0)] * 3) is None
    assert hilbert_distance((0, 0), (0, 0)) == (INF, None)


def test_a_late_split_pair_multiplies_nothing(monkeypatch):
    """Pairs of one support come first; the split one is last."""
    calls = []
    extremes = cones._extremes

    def counting(x, y, sup):
        calls.append((x, y))
        return extremes(x, y, sup)

    monkeypatch.setattr(cones, "_extremes", counting)
    big = 3 ** 2000
    vectors = [(big, 1, 2), (1, big, 3), (2, 3, big), (1, 0, 1)]
    assert _widest(vectors) is None
    assert calls == []
    assert old_widest(vectors) is None
    assert _widest(vectors[:3]) == old_widest(vectors[:3])
    assert len(calls) == 3

"""Hilbert projective geometry and nested-cone reports."""

import json
from fractions import Fraction
from math import log

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldspace import (DirectionError, cluster_generators, current_cone,
                       ergodicity_verdict, hilbert_distance, length_cone,
                       set_diameter)
from foldspace.cones import (INF, _in_pair_hull, _normalize_l1,
                             _proportional, extreme_ray_indices)
from foldspace.linalg import frac_log
from foldspace import gen_alternating_block
from foldspace.cli import main
from foldspace.examples import _rose_step
from foldspace.graphs import rose
from foldspace.sequences import FoldingSequence


# -- Hilbert distance ----------------------------------------------------


def test_hilbert_distance_oracles():
    d, ratio = hilbert_distance((1, 1), (2, 2))
    assert d == 0.0 and ratio == 1
    d, ratio = hilbert_distance((1, 2), (2, 1))
    assert ratio == 4 and abs(d - log(4)) < 1e-15
    d, ratio = hilbert_distance((1, 0), (1, 1))
    assert d == INF and ratio is None
    d, ratio = hilbert_distance((0, 0), (0, 0))
    assert d == INF and ratio is None


def test_hilbert_distance_projective_invariance():
    x, y = (1, 2, 3), (2, 3, 4)
    d0, r0 = hilbert_distance(x, y)
    d1, r1 = hilbert_distance(tuple(7 * v for v in x), y)
    assert r0 == r1 and d0 == d1


def test_hilbert_distance_symmetry_and_triangle():
    x, y, z = (1, 2), (3, 1), (2, 2)
    assert hilbert_distance(x, y)[1] == hilbert_distance(y, x)[1]
    dxy = hilbert_distance(x, y)[0]
    dyz = hilbert_distance(y, z)[0]
    dxz = hilbert_distance(x, z)[0]
    assert dxz <= dxy + dyz + 1e-12


def test_hilbert_distance_dimension_check():
    with pytest.raises(ValueError):
        hilbert_distance((1, 2), (1, 2, 3))


def _cross(x, y):
    """The cross-ratio of one pair, as its own routine: (n, d) on the
    common support, None when the supports differ or are empty."""
    if len(x) != len(y):
        raise ValueError("vectors of different dimension")
    sup = [i for i, v in enumerate(x) if v != 0]
    if not sup or sup != [i for i, v in enumerate(y) if v != 0]:
        return None
    hi = lo = sup[0]
    for i in sup[1:]:
        if x[i] * y[hi] > x[hi] * y[i]:
            hi = i
        elif x[i] * y[lo] < x[lo] * y[i]:
            lo = i
    return x[hi] * y[lo], y[hi] * x[lo]


def _old_hilbert_distance(x, y):
    """The distance as its own routine: the reduced cross-ratio of the
    pair, not the widest pair of a set."""
    pair = _cross(x, y)
    if pair is None:
        return INF, None
    cross = Fraction(*pair)
    return frac_log(cross), cross


def _old_proportional(x, y):
    """x = c*y for some c > 0, by the quotients of the entries."""
    c = None
    for a, b in zip(x, y):
        if (a == 0) != (b == 0):
            return False
        if b != 0:
            r = Fraction(a) / Fraction(b)
            if c is None:
                c = r
            elif r != c:
                return False
    return c is not None and c > 0


_ENTRIES = st.one_of(
    st.integers(0, 6),
    st.integers(0, 10 ** 30),
    st.fractions(min_value=0, max_value=50, max_denominator=12))


@st.composite
def _vector_pairs(draw):
    """Nonnegative vectors of one dimension with zero patterns that match
    or differ, and some pairs proportional."""
    n = draw(st.integers(1, 5))
    x = draw(st.lists(_ENTRIES, min_size=n, max_size=n))
    how = draw(st.sampled_from(("free", "scaled", "same_zeros")))
    if how == "scaled":
        c = draw(st.sampled_from((1, 3, Fraction(2, 7), 10 ** 20)))
        y = [c * v for v in x]
    else:
        y = draw(st.lists(_ENTRIES, min_size=n, max_size=n))
        if how == "same_zeros":
            y = [w if v else 0 for v, w in zip(x, y)]
    return tuple(x), tuple(y)


@settings(max_examples=400, deadline=None)
@given(pair=_vector_pairs())
def test_one_cross_ratio_matches_the_old_routines(pair):
    x, y = pair
    assert hilbert_distance(x, y) == _old_hilbert_distance(x, y)
    assert hilbert_distance(y, x) == _old_hilbert_distance(y, x)
    assert _proportional(x, y) == _old_proportional(x, y)


def test_set_diameter():
    d, ratio = set_diameter([(1, 1), (1, 2), (2, 1)])
    assert ratio == 4
    assert set_diameter([(1, 2)]) == (0.0, Fraction(1))
    d, _ = set_diameter([(1, 0), (0, 1), (1, 1)])
    assert d == INF


def test_cluster_generators():
    vecs = [(1, 1), (1000001, 1000000), (1, 1000)]
    clusters = cluster_generators(vecs, 1e-3)
    assert clusters == ((0, 1), (2,))
    assert cluster_generators(vecs, 1e-9) == ((0,), (1,), (2,))


def test_extreme_ray_indices():
    vecs = [(1, 0), (0, 1), (Fraction(1, 2), Fraction(1, 2))]
    reps = (0, 1, 2)
    assert extreme_ray_indices(vecs, reps) == (0, 1)
    # a pair of independent rays is its own extreme set
    assert extreme_ray_indices([(1, 0), (1, 1)], (0, 1)) == (0, 1)


# -- hull tests on integer columns ----------------------------------------


def _old_in_pair_hull(target, g, h):
    """``_in_pair_hull`` dividing by the determinant, as it did when the
    cones passed it their normalized Fraction generators."""
    n = len(target)
    for i in range(n):
        for j in range(i + 1, n):
            det = g[i] * h[j] - g[j] * h[i]
            if det == 0:
                continue
            s = (target[i] * h[j] - target[j] * h[i]) / det
            t = (g[i] * target[j] - g[j] * target[i]) / det
            if s < 0 or t < 0:
                return False
            ok = all(s * g[k] + t * h[k] == target[k] for k in range(n))
            return ok
    return _old_proportional(target, g)


def _old_extreme_ray_indices(vectors, cluster_reps):
    """``extreme_ray_indices`` on the old hull test: the cones passed it
    their normalized Fraction generators."""
    out = []
    for r in cluster_reps:
        target = vectors[r]
        others = [vectors[o] for o in cluster_reps if o != r]
        spanned = any(_old_proportional(target, g) for g in others)
        if not spanned:
            for a in range(len(others)):
                for b in range(a + 1, len(others)):
                    if _old_in_pair_hull(target, others[a], others[b]):
                        spanned = True
                        break
                if spanned:
                    break
        if not spanned:
            out.append(r)
    return tuple(out)


def _fractions(v):
    return tuple(map(Fraction, v))


_INTS = st.one_of(st.integers(0, 6), st.integers(0, 10 ** 30))
_COEFFICIENTS = st.one_of(st.integers(0, 4),
                          st.fractions(min_value=0, max_value=9,
                                       max_denominator=7))


@st.composite
def _hull_triples(draw):
    """(target, g, h): nonnegative vectors of one dimension, all ints or
    mixed with Fractions.  h is free or parallel to g, and target is free,
    a nonnegative combination of g and h, or one with a unit added; g and
    h come in either order, so the first nonzero determinant takes either
    sign."""
    n = draw(st.integers(1, 5))
    ints = draw(st.booleans())
    entries = _INTS if ints else _ENTRIES
    vector = st.lists(entries, min_size=n, max_size=n).map(tuple)
    g = draw(vector)
    if draw(st.booleans()):
        h = draw(vector)
    else:
        c = draw(st.sampled_from((1, 3, 10 ** 20)) if ints
                 else _COEFFICIENTS)
        h = tuple(c * x for x in g)
    how = draw(st.sampled_from(("free", "inside", "nudged")))
    if how == "free":
        target = draw(vector)
    else:
        coefficients = st.integers(0, 4) if ints else _COEFFICIENTS
        s, t = draw(coefficients), draw(coefficients)
        target = [s * a + t * b for a, b in zip(g, h)]
        if how == "nudged":
            target[draw(st.integers(0, n - 1))] += 1
        target = tuple(target)
    if draw(st.booleans()):
        g, h = h, g
    return target, g, h


@settings(max_examples=600, deadline=None)
@given(triple=_hull_triples())
def test_pair_hull_matches_the_dividing_routine(triple):
    """No division: int columns give the old answer on their Fraction
    copies, and Fraction columns give it too."""
    target, g, h = triple
    want = _old_in_pair_hull(*map(_fractions, triple))
    assert _in_pair_hull(target, g, h) is want
    assert _in_pair_hull(*map(_fractions, triple)) is want


@pytest.mark.parametrize("target,g,h,inside", [
    ((1, 3), (1, 2), (2, 1), False),      # det > 0, outside
    ((3, 3), (1, 2), (2, 1), True),       # det > 0, inside
    ((3, 3), (2, 1), (1, 2), True),       # det < 0, inside
    ((3, 1), (2, 1), (1, 2), False),      # det < 0, outside
    ((1, 5), (2, 1), (1, 2), False),      # det < 0, other side
    ((2, 4), (1, 2), (3, 6), True),       # parallel pair, proportional
    ((2, 5), (1, 2), (3, 6), False),      # parallel pair, not
    ((0, 0, 0), (1, 2, 0), (0, 1, 1), True),
    ((1, 3, 3), (1, 2, 0), (0, 1, 3), True),
    ((1, 3, 4), (1, 2, 0), (0, 1, 3), False)])
def test_pair_hull_by_hand(target, g, h, inside):
    assert _in_pair_hull(target, g, h) is inside
    assert _in_pair_hull(*map(_fractions, (target, g, h))) is inside
    assert _old_in_pair_hull(*map(_fractions, (target, g, h))) is inside


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_extreme_rays_of_int_columns_match_the_normalized_generators(data):
    """A cone passes its integer columns; the answer is the old one on the
    l1-normalized generators it passed before, and on the columns as
    Fractions."""
    n = data.draw(st.integers(1, 4), label="dimension")
    small = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    cols = data.draw(st.lists(small.map(tuple), min_size=1, max_size=6),
                     label="columns")
    cols += [tuple(c * x for x in v) for c, v in data.draw(
        st.lists(st.tuples(st.integers(1, 3), st.sampled_from(cols)),
                 max_size=2), label="multiples")]
    cols += [tuple(a + b for a, b in zip(u, v)) for u, v in data.draw(
        st.lists(st.tuples(st.sampled_from(cols), st.sampled_from(cols)),
                 max_size=2), label="sums")]
    reps = tuple(data.draw(st.permutations(range(len(cols))), label="reps"))
    reps = reps[:data.draw(st.integers(1, len(reps)), label="kept")]
    want = _old_extreme_ray_indices(
        [_normalize_l1(c) for c in cols], reps)
    assert extreme_ray_indices(cols, reps) == want
    assert extreme_ray_indices([_fractions(c) for c in cols], reps) == want


# -- cones on sequences --------------------------------------------------


def test_current_cone_direction_gate(fib_fold15):
    with pytest.raises(DirectionError):
        current_cone(fib_fold15, 4)
    length_cone(fib_fold15, 4)          # allowed


def test_length_cone_direction_gate(fib_unfold20):
    with pytest.raises(DirectionError):
        length_cone(fib_unfold20, 4)


def test_fibonacci_cone_depth8_exact_ratio(fib_unfold20):
    cone = current_cone(fib_unfold20, 8)
    assert cone.ambient_dim == 2
    assert cone.depth == 8
    # cross ratio (F9/F8)/(F8/F7) = F9 F7 / F8^2 = 1 + 1/441
    assert cone.diameter_ratio == Fraction(442, 441)
    # log(442/441) is well above tol: the two rays stay distinct
    assert cone.dimension == 2
    assert cone.extreme_rays == (0, 1)
    # generators are l1-normalized columns of M^8
    col0 = cone.generators[0]
    assert sum(col0) == 1
    assert col0[0] / col0[1] == Fraction(34, 21)


def test_fibonacci_cone_profile_contracts(fib_unfold20):
    cone = current_cone(fib_unfold20, 20)
    diam = dict(cone.diameter_profile)
    assert set(diam) == set(range(1, 21))
    for d in range(2, 21):
        assert diam[d] < diam[d - 1]
    assert cone.diameter == diam[20]


def test_fibonacci_verdict_contracting_is_not_multiple(fib_unfold20):
    cone = current_cone(fib_unfold20, 20)
    verdict = ergodicity_verdict(cone, tol=1e-8)
    # diameter 2.19e-8 at depth 20: still above 1e-8 but contracting
    assert verdict.kind == "undecided"
    verdict = ergodicity_verdict(cone, tol=1e-6)
    assert verdict.kind == "unique"
    assert str(verdict) == "unique"


def test_length_cone_on_folding_fibonacci(fib_fold15):
    cone = length_cone(fib_fold15, 10)
    assert cone.kind == "length"
    assert cone.diameter < 1e-3
    assert cone.dimension in (1, 2)


def test_alternating_rank3_split_support():
    seq = gen_alternating_block(schedule=(4, 16, 64), rank=3,
                                direction="unfolding").sequence
    cone = current_cone(seq, 84, tol=1e-4)
    # the third column keeps an isolated coordinate: support never merges
    assert cone.diameter == INF
    assert all(d == INF for _, d in cone.diameter_profile)
    verdict = ergodicity_verdict(cone, tol=1e-4)
    assert verdict.kind == "multiple"
    assert verdict.k == 2
    assert str(verdict) == "multiple(2)"
    assert cone.clusters == ((0, 1), (2,))


def test_alternating_rank4_two_clusters():
    seq = gen_alternating_block(schedule=(4, 16, 64), rank=4,
                                direction="unfolding").sequence
    cone = current_cone(seq, 84, tol=1e-4)
    assert cone.diameter == INF
    verdict = ergodicity_verdict(cone, tol=1e-4)
    assert verdict.kind == "multiple" and verdict.k == 2
    assert cone.clusters == ((0, 1), (2, 3))
    assert cone.dimension == 2


def test_cone_depth_bounds(fib_unfold20):
    from foldspace import SequenceError
    with pytest.raises(SequenceError):
        current_cone(fib_unfold20, 21)
    cone = current_cone(fib_unfold20, 0)
    assert cone.depth == 0
    assert cone.diameter == INF          # standard cone: split supports


# -- verdict branches ------------------------------------------------------


def test_depth_one_profile_is_too_short(tmp_path):
    """``cone --depth 1`` on the canned Fibonacci chain has one profile
    entry, so the verdict cannot judge contraction."""
    assert main(["gen", "fibonacci", "--out-dir", str(tmp_path)]) == 0
    out = tmp_path / "cone.json"
    assert main(["cone", str(tmp_path / "fibonacci.sequence"), "--depth",
                 "1", "--out", str(out)]) == 0
    verdict = json.loads(out.read_text())["verdict"]
    assert verdict["kind"] == "undecided"
    assert verdict["detail"] == "profile too short to judge contraction"


@pytest.mark.parametrize("direction,build", [("folding", length_cone),
                                             ("unfolding", current_cone)])
def test_coupled_constant_blocks_read_as_multiple(direction, build):
    """The coupled rank-4 chain with constant blocks of 8: A = (a->ab,
    b->a) and B = (c->cd, d->c), with d->db after each A block and b->bd
    after each B block, seven times (126 steps).  No proper subgraph is
    invariant and the period is primitive, so the chain is uniquely
    ergodic; the diameters fall too slowly for the float heuristic, whose
    reading of ``multiple(4)`` this pins.  An exact certificate is
    expected to contradict it."""
    g = rose("abcd")
    A = _rose_step(g, {"a": "a b", "b": "a", "c": "c", "d": "d"})
    B = _rose_step(g, {"a": "a", "b": "b", "c": "c d", "d": "c"})
    t1 = _rose_step(g, {"a": "a", "b": "b", "c": "c", "d": "d b"})
    t2 = _rose_step(g, {"a": "a", "b": "b d", "c": "c", "d": "d"})
    seq = FoldingSequence.from_runs([(A, 8), (t1, 1), (B, 8), (t2, 1)] * 7,
                                    direction)
    assert seq.n_steps == 126
    cone = build(seq, 126)
    verdict = ergodicity_verdict(cone)
    assert str(verdict) == "multiple(4)"
    assert verdict.detail == "no factor-2 contraction over the trailing depths"
    assert cone.diameter == pytest.approx(3.0397, abs=1e-4)

"""Hilbert projective geometry and nested-cone reports."""

from fractions import Fraction
from math import log

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldspace import (DirectionError, cluster_generators, current_cone,
                       ergodicity_verdict, hilbert_distance, length_cone,
                       set_diameter)
from foldspace.cones import INF, _cross, _proportional, extreme_ray_indices
from foldspace.linalg import frac_log
from foldspace import gen_alternating_block


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

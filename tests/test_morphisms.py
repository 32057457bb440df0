"""Graph morphisms: incidence matrices, composition, folding, and the
change-of-marking decision."""

import pytest

from foldspace import (GraphMorphism, MalformedMorphismError,
                       NotChangeOfMarkingError, compose, fold_decompose,
                       identity_morphism, rose, stallings_factorize,
                       theta_graph, validate_change_of_marking)
from foldspace.examples import fibonacci_step
from foldspace.linalg import mat_mul

from conftest import rose_morphism

FIB_MATRIX = [[1, 1], [1, 0]]


@pytest.fixture
def fib():
    return fibonacci_step()


def test_fibonacci_incidence_matrix(fib):
    assert fib.incidence_matrix() == FIB_MATRIX


def test_incidence_counts_both_orientations(rose2):
    f = rose_morphism(rose2, {"a": "a -b a", "b": "b"})
    # column a: two a-traversals, one b-traversal (reversed)
    assert f.incidence_matrix() == [[2, 0], [1, 1]]


def test_edge_image_respects_reversal(fib):
    assert fib.edge_image(1) == (1, 2)
    assert fib.edge_image(-1) == (-2, -1)
    assert fib.edge_image(2) == (1,)


def test_apply_vs_map_path(fib):
    # f(a) f(-a) concatenates to a non-reduced word; map_path tightens
    assert fib.apply_to_path((1, -1)) == (1, 2, -2, -1)
    assert fib.map_path((1, -1)) == ()


def test_morphism_validation(rose2, theta):
    with pytest.raises(MalformedMorphismError):
        rose_morphism(rose2, {"a": "a b"})              # misses edge b
    with pytest.raises(MalformedMorphismError):
        rose_morphism(rose2, {"a": "a -a", "b": "b"})   # unreduced image
    with pytest.raises(MalformedMorphismError):
        # image endpoints must match the vertex images
        GraphMorphism(theta, theta, {"u": "u", "v": "u"},
                      {"e1": (1,), "e2": (2,), "e3": (3,)})
    with pytest.raises(MalformedMorphismError):
        # collapsed edge with endpoints mapping apart
        GraphMorphism(theta, theta, {"u": "u", "v": "v"},
                      {"e1": (), "e2": (2,), "e3": (3,)})


def test_collapsed_edge_accepted_when_endpoints_merge(theta, rose2):
    f = GraphMorphism(theta, rose2, {"u": "*", "v": "*"},
                      {"e1": (), "e2": (1,), "e3": (2,)})
    assert f.has_collapsed_edges()
    assert f.edge_image(1) == ()


def test_identity_and_composition(rose2, fib):
    ident = identity_morphism(rose2)
    assert ident.incidence_matrix() == [[1, 0], [0, 1]]
    assert compose(fib, ident) == fib
    assert compose(ident, fib) == fib


def test_composite_matrix_multiplies_for_positive_maps(fib):
    ff = compose(fib, fib)
    assert ff.edge_image(1) == (1, 2, 1)
    assert ff.incidence_matrix() == mat_mul(FIB_MATRIX, FIB_MATRIX)
    fff = compose(fib, ff)
    assert fff.incidence_matrix() == mat_mul(
        FIB_MATRIX, mat_mul(FIB_MATRIX, FIB_MATRIX))


def test_compose_requires_chaining(fib, theta):
    ident = identity_morphism(theta)
    with pytest.raises(MalformedMorphismError):
        compose(fib, ident)


def test_first_edge_map(fib):
    fmap = fib.first_edge_map()
    assert fmap[1] == 1 and fmap[-1] == -2
    assert fmap[2] == 1 and fmap[-2] == -1
    collapsing = GraphMorphism(
        theta_graph(), rose(["a", "b"]), {"u": "*", "v": "*"},
        {"e1": (), "e2": (1,), "e3": (2,)})
    with pytest.raises(MalformedMorphismError):
        collapsing.first_edge_map()


def test_stallings_factorization_recomposes(fib):
    sub, simp = stallings_factorize(fib)
    assert simp.is_simplicial()
    assert sub.codomain.betti() == fib.domain.betti()
    assert compose(simp, sub) == fib


def test_fold_decompose_on_an_automorphism(fib):
    _, simp = stallings_factorize(fib)
    decomp = fold_decompose(simp)
    assert decomp.is_isomorphism()
    # one fold identifies the two edges that both start with a
    assert len(decomp.steps) >= 1
    assert all(len(s.pair) == 2 for s in decomp.steps)


def test_fold_decompose_requires_simplicial(fib):
    with pytest.raises(MalformedMorphismError):
        fold_decompose(fib)


def test_validate_change_of_marking_true(fib, rose2):
    assert validate_change_of_marking(fib)
    assert validate_change_of_marking(identity_morphism(rose2))
    # a -> b a^{-1}, b -> a is invertible
    g = rose_morphism(rose2, {"a": "b -a", "b": "a"})
    assert validate_change_of_marking(g)


def test_validate_change_of_marking_false_non_injective(rose2):
    f = rose_morphism(rose2, {"a": "a", "b": "a"})
    assert not validate_change_of_marking(f)
    with pytest.raises(NotChangeOfMarkingError):
        validate_change_of_marking(f, raise_on_failure=True)


def test_validate_change_of_marking_false_collapse(theta, rose2):
    f = GraphMorphism(theta, rose2, {"u": "*", "v": "*"},
                      {"e1": (), "e2": (1,), "e3": (2,)})
    assert not validate_change_of_marking(f)


def test_validate_change_of_marking_false_betti(rose2):
    g3 = rose(["a", "b", "c"])
    f = GraphMorphism(rose2, g3, {"*": "*"}, {"a": (1,), "b": (2,)})
    assert not validate_change_of_marking(f)


def test_theta_automorphism_validates(theta):
    # swap e2 and e3, fix e1: a genuine graph automorphism
    f = GraphMorphism(theta, theta, {"u": "u", "v": "v"},
                      {"e1": (1,), "e2": (3,), "e3": (2,)})
    assert validate_change_of_marking(f)


def test_rose_to_theta_change_of_marking(rose2, theta):
    # subdivide the rose into the theta: a -> e1 e2bar, b -> e1 e3bar
    f = GraphMorphism(rose2, theta, {"*": "u"},
                      {"a": (1, -2), "b": (1, -3)})
    assert validate_change_of_marking(f)


def test_first_edge_map_raises_on_every_call(theta, rose2):
    collapsing = GraphMorphism(theta, rose2, {"u": "*", "v": "*"},
                               {"e1": (), "e2": (1,), "e3": (2,)})
    for _ in range(2):
        with pytest.raises(MalformedMorphismError):
            collapsing.first_edge_map()
    assert not validate_change_of_marking(collapsing)
    assert not validate_change_of_marking(collapsing)


def test_step_data_is_kept(fib):
    assert fib.incidence_matrix() is fib.incidence_matrix()
    assert fib.first_edge_map() is fib.first_edge_map()
    # a -> a b and b -> a cross one turn, (-a, b)
    assert fib.image_turns() == {(-1, 2)}
    assert fib.edge_supports() == {"a": {"a", "b"}, "b": {"a"}}

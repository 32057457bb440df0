"""Graph morphisms: incidence matrices, composition, folding, and the
change-of-marking decision."""

from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from foldspace import (BudgetExceededError, FoldDecomposition, FoldStep,
                       GraphMorphism, MalformedMorphismError,
                       NotChangeOfMarkingError, OrientedGraph, compose,
                       fold_decompose, identity_morphism, rose,
                       stallings_factorize, theta_graph,
                       validate_change_of_marking)
from foldspace import metric, morphisms
from foldspace.examples import fibonacci_step
from foldspace.linalg import mat_mul
from foldspace.paths import reverse_path, tighten

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


def test_fold_decompose_builds_the_terminal_once(fib, monkeypatch):
    built = []

    class CountedGraph(OrientedGraph):
        def __init__(self, *args, **kwargs):
            built.append("graph")
            super().__init__(*args, **kwargs)

    class CountedMorphism(GraphMorphism):
        def __init__(self, *args, **kwargs):
            built.append("morphism")
            super().__init__(*args, **kwargs)

    _, simp = stallings_factorize(compose(fib, compose(fib, fib)))
    monkeypatch.setattr(morphisms, "OrientedGraph", CountedGraph)
    monkeypatch.setattr(morphisms, "GraphMorphism", CountedMorphism)
    decomp = fold_decompose(simp)
    assert len(decomp.steps) == 6 and decomp.is_isomorphism()
    assert sorted(built) == ["graph", "morphism"]


def test_fold_budget(fib):
    _, simp = stallings_factorize(fib)
    with pytest.raises(BudgetExceededError, match="^fold decomposition did "
                       "not terminate within 0 folds$"):
        fold_decompose(simp, max_folds=0)
    # the budget counts folds: reaching it raises, one more passes
    with pytest.raises(BudgetExceededError, match="within 1 folds$"):
        fold_decompose(simp, max_folds=1)
    assert len(fold_decompose(simp, max_folds=2).steps) == 1


# -- the one-fold-at-a-time loop, kept as an oracle -----------------------


def _orientation_key(e):
    return (abs(e), 0 if e > 0 else 1)


def _least_foldable_pair(f):
    """Smallest pair of distinct oriented edges with common initial vertex
    and equal image, or None."""
    G = f.domain
    best = None
    for v in G.vertices:
        out = sorted(G.out_edges(v), key=_orientation_key)
        by_image = {}
        for e in out:
            img = f.edge_image(e)[0]
            if img in by_image:
                cand = (by_image[img], e)
                key = (_orientation_key(cand[0]), _orientation_key(cand[1]))
                if best is None or key < best[0]:
                    best = (key, cand)
            else:
                by_image[img] = e
    return None if best is None else best[1]


def _fold_once(f, pair):
    """The morphism induced on the graph where the pair is identified."""
    a, b = pair
    G, H = f.domain, f.codomain
    b_name = G.edge_name(b)
    w1, w2 = G.term(a), G.term(b)
    if w1 == w2:
        survivor = w1
        dropped = None
    else:
        survivor, dropped = (w1, w2) if w1 <= w2 else (w2, w1)

    def send(v):
        return survivor if v == dropped else v

    verts = [v for v in G.vertices if v != dropped]
    edges = [(eid, send(G._einit[j]), send(G._eterm[j]))
             for j, eid in enumerate(G.edge_ids) if eid != b_name]
    Gq = OrientedGraph(verts, edges, _relaxed=True)
    return GraphMorphism(Gq, H, {v: f.vertex_map[v] for v in Gq.vertices},
                         {eid: f.edge_image(G.edge_index(eid))
                          for eid in Gq.edge_ids})


def _oracle_fold_decompose(f, *, max_folds=100000):
    steps = []
    current = f
    for _ in range(max_folds):
        pair = _least_foldable_pair(current)
        if pair is None:
            return FoldDecomposition(tuple(steps), current)
        steps.append(FoldStep((current.domain.token(pair[0]),
                               current.domain.token(pair[1]))))
        current = _fold_once(current, pair)
    raise BudgetExceededError("fold decomposition did not terminate within "
                              f"{max_folds} folds")


_LETTERS = "abcd"


def _word(rank, max_size=6):
    letters = [s * x for x in range(1, rank + 1) for s in (1, -1)]
    return st.lists(st.sampled_from(letters), max_size=max_size).map(tighten)


@st.composite
def _basis(draw, rank):
    """The standard basis moved by random Nielsen moves."""
    basis = [(x,) for x in range(1, rank + 1)]
    for _ in range(draw(st.integers(0, 8), label="moves")):
        i, j = draw(st.permutations(range(rank)), label="pair")[:2]
        kind = draw(st.sampled_from(("right", "left", "inverse")),
                    label="kind")
        w = basis[j] if draw(st.booleans(), label="sign") \
            else reverse_path(basis[j])
        if kind == "right":
            basis[i] = tighten(basis[i] + w)
        elif kind == "left":
            basis[i] = tighten(w + basis[i])
        else:
            basis[i] = reverse_path(basis[i])
    return basis


@st.composite
def _morphisms(draw):
    """Builder of a rose or theta-graph morphism onto a rose, a change of
    marking or one from random words.  Each call builds a fresh morphism,
    so each side of a comparison starts with nothing kept on it."""
    marking = draw(st.booleans(), label="marking")
    if draw(st.booleans(), label="theta"):
        rank = 2
        # theta edges e1, e2, e3 from u to v; tree e1, loops e2 e1bar and
        # e3 e1bar read x and y
        w = draw(_word(2).filter(bool), label="w")
        if marking:
            x, y = draw(_basis(2), label="basis")
        else:
            x, y = draw(_word(2), label="x"), draw(_word(2), label="y")
        images = {"e1": w, "e2": tighten(x + w), "e3": tighten(y + w)}
        domain, vertex_map = theta_graph(), {"u": "*", "v": "*"}
    else:
        rank = draw(st.integers(2, 4), label="rank")
        words = (draw(_basis(rank), label="basis") if marking else
                 [draw(_word(rank), label=f"w{x}") for x in range(rank)])
        images = dict(zip(_LETTERS, words))
        domain, vertex_map = rose(_LETTERS[:rank]), {"*": "*"}
    assume(all(images.values()))
    codomain = rose(_LETTERS[:rank])
    return lambda: GraphMorphism(domain, codomain, vertex_map, images)


@settings(max_examples=300, deadline=None)
@given(build=_morphisms())
def test_fold_decompose_matches_the_one_fold_loop(build):
    _, simp = stallings_factorize(build())
    got, want = fold_decompose(simp), _oracle_fold_decompose(simp)
    assert got.terminal == want.terminal
    assert len(got.steps) == len(want.steps)
    for step in got.steps:
        a, b = (simp.domain.parse_oriented(t) for t in step.pair)
        assert a != b
        assert simp.edge_image(a)[0] == simp.edge_image(b)[0]
    f, g = build(), build()
    reason = f._marking_failure()
    with patch.object(morphisms, "fold_decompose", _oracle_fold_decompose):
        assert g._marking_failure() == reason
    assert validate_change_of_marking(f) == (reason is None)


@settings(max_examples=200, deadline=None)
@given(words=st.lists(_word(3, max_size=8).filter(bool), min_size=1,
                      max_size=4))
def test_subgroup_core_matches_the_one_fold_loop(words):
    core = metric._subgroup_core(words)
    with patch.object(metric, "fold_decompose", _oracle_fold_decompose):
        assert metric._subgroup_core(words) == core


def _oracle_stallings_factorize(f):
    """The two-pass factorization: subdivision images as edge names, then
    a second pass reading each name's index in the subdivided graph."""
    G, H = f.domain, f.codomain
    new_vertices = list(G.vertices)
    new_edges = []
    sub_emap = {}
    simp_vmap = {v: f.vertex_map[v] for v in G.vertices}
    simp_emap = {}
    for j, eid in enumerate(G.edge_ids):
        p = f._images[j]
        if len(p) == 1:
            new_edges.append((eid, G._einit[j], G._eterm[j]))
            sub_emap[eid] = None
            simp_emap[eid] = p
            continue
        chain = [G._einit[j]]
        for k in range(1, len(p)):
            w = f"{eid}.v{k}"
            new_vertices.append(w)
            chain.append(w)
            simp_vmap[w] = H.init(p[k])
        chain.append(G._eterm[j])
        for k, seg in enumerate(p):
            seg_id = f"{eid}.{k + 1}"
            new_edges.append((seg_id, chain[k], chain[k + 1]))
            simp_emap[seg_id] = (seg,)
        sub_emap[eid] = tuple(f"{eid}.{k + 1}" for k in range(len(p)))
    Gp = OrientedGraph(new_vertices, new_edges, _relaxed=True)
    final_sub_emap = {}
    for eid in G.edge_ids:
        if sub_emap[eid] is None:
            final_sub_emap[eid] = (Gp.edge_index(eid),)
        else:
            final_sub_emap[eid] = tuple(Gp.edge_index(s)
                                        for s in sub_emap[eid])
    subdivision = GraphMorphism(G, Gp, {v: v for v in G.vertices},
                                final_sub_emap)
    simplicial = GraphMorphism(Gp, H, simp_vmap, simp_emap)
    return subdivision, simplicial


@settings(max_examples=300, deadline=None)
@given(build=_morphisms())
def test_stallings_factorize_matches_the_two_pass_oracle(build):
    f = build()
    sub, simp = stallings_factorize(f)
    want_sub, want_simp = _oracle_stallings_factorize(f)
    assert sub.codomain == want_sub.codomain == simp.domain
    assert sub == want_sub
    assert simp == want_simp
    assert compose(simp, sub) == f

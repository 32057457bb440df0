"""One graph search against the loops it replaced.

``OrientedGraph._reach`` is a breadth-first search through a set of edges.
Connectivity, subgraph connectivity and Betti numbers, the default spanning
tree, tree spans and tree geodesics, the vertex map of ``collapse`` and the
vertex images a morphism file leaves implicit are all read from it.  The
oracles below are the routines it replaced: five breadth-first loops, one
breadth-first loop that stops at its target, and two union-finds.
Hypothesis compares each with the new code on random connected graphs with
loops and multi-edges, and on random edge subsets.
"""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldspace import (FormatError, GraphStructureError, Marking,
                       OrientedGraph)
from foldspace.decomposition import CollapseResult, collapse
from foldspace.graphs import _default_spanning_tree
from foldspace.io_formats import _infer_vertex_map


# -- the oracles -----------------------------------------------------------


def old_connected(self):
    if not self.vertices:
        return False
    seen = {self.vertices[0]}
    queue = deque(seen)
    while queue:
        v = queue.popleft()
        for e in self._out[v]:
            w = self.term(e)
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == len(self.vertices)


def old_subgraph_is_connected(self, edge_names):
    edge_names = set(edge_names)
    if not edge_names:
        return False
    verts = self.subgraph_vertices(edge_names)
    start = next(iter(verts))
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for e in self._out[v]:
            if self.edge_name(e) in edge_names:
                w = self.term(e)
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    return seen == verts


def old_subgraph_betti(self, edge_names):
    edge_names = set(edge_names)
    verts = self.subgraph_vertices(edge_names)
    comps = 0
    seen = set()
    for v0 in sorted(verts):
        if v0 in seen:
            continue
        comps += 1
        seen.add(v0)
        queue = deque([v0])
        while queue:
            v = queue.popleft()
            for e in self._out[v]:
                if self.edge_name(e) in edge_names:
                    w = self.term(e)
                    if w not in seen:
                        seen.add(w)
                        queue.append(w)
    return len(edge_names) - len(verts) + comps


def old_tree_spans(self):
    g = self.graph
    if g.n_vertices == 1:
        return not self.tree_edges
    seen = {g.vertices[0]}
    queue = deque(seen)
    while queue:
        v = queue.popleft()
        for e in g.out_edges(v):
            if g.edge_name(e) in self.tree_edges:
                w = g.term(e)
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    return len(seen) == g.n_vertices


def old_tree_geodesic(self, u, v):
    g = self.graph
    prev = {u: None}
    queue = deque([u])
    while queue and v not in prev:
        w = queue.popleft()
        for e in g.out_edges(w):
            if g.edge_name(e) in self.tree_edges and g.term(e) not in prev:
                prev[g.term(e)] = e
                queue.append(g.term(e))
    if v not in prev:
        raise GraphStructureError("tree does not connect the vertices")
    path = []
    w = v
    while prev[w] is not None:
        path.append(prev[w])
        w = g.init(prev[w])
    path.reverse()
    return tuple(path)


def old_default_spanning_tree(graph):
    tree = []
    seen = {graph.vertices[0]}
    queue = deque(seen)
    while queue:
        v = queue.popleft()
        for e in graph.out_edges(v):
            w = graph.term(e)
            if w not in seen:
                seen.add(w)
                tree.append(graph.edge_name(e))
                queue.append(w)
    return tree


def old_collapse(G, collapse_edges, labels=None):
    collapse_edges = set(collapse_edges)
    for name in collapse_edges:
        G.edge_index(name)
    if len(collapse_edges) == G.n_edges:
        raise GraphStructureError("cannot collapse every edge")
    parent = {v: v for v in G.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for j, name in enumerate(G.edge_ids):
        if name in collapse_edges:
            a, b = find(G._einit[j]), find(G._eterm[j])
            if a != b:
                root, other = (a, b) if a <= b else (b, a)
                parent[other] = root
    vmap = {v: find(v) for v in G.vertices}
    verts = sorted(set(vmap.values()))
    edges = []
    for j, name in enumerate(G.edge_ids):
        if name not in collapse_edges:
            edges.append((name, vmap[G._einit[j]], vmap[G._eterm[j]]))
    quotient = OrientedGraph(verts, edges, _relaxed=True)
    labels = dict(labels or {})
    valence = {}
    for name, part in labels.items():
        if name in collapse_edges:
            continue
        j = quotient.edge_index(name) - 1
        for v in (quotient._einit[j], quotient._eterm[j]):
            valence.setdefault(part, {}).setdefault(v, 0)
        valence[part][quotient._einit[j]] += 1
        valence[part][quotient._eterm[j]] += 1
    return CollapseResult(graph=quotient, vertex_map=vmap,
                          edge_labels={n: p for n, p in labels.items()
                                       if n not in collapse_edges},
                          valence_report=valence)


def old_infer_vertex_map(domain, codomain, images):
    assigned = {}
    merged = {v: v for v in domain.vertices}

    def find(v):
        while merged[v] != v:
            merged[v] = merged[merged[v]]
            v = merged[v]
        return v

    for j, name in enumerate(domain.edge_ids):
        p = images[name]
        u, w = domain.init(j + 1), domain.term(j + 1)
        if p:
            for v, img in ((u, codomain.path_init(p)),
                           (w, codomain.path_term(p))):
                if assigned.get(v, img) != img:
                    raise FormatError(
                        f"vertex {v!r} maps inconsistently "
                        f"({assigned[v]!r} vs {img!r})")
                assigned[v] = img
        else:
            a, b = find(u), find(w)
            if a != b:
                merged[a] = b
    vmap = {}
    for v in domain.vertices:
        root = find(v)
        candidates = [assigned[x] for x in domain.vertices
                      if find(x) == root and x in assigned]
        if not candidates:
            raise FormatError(
                f"cannot infer the image of vertex {v!r}; every incident "
                "edge is collapsed")
        if any(c != candidates[0] for c in candidates):
            raise FormatError(f"vertex {v!r} maps inconsistently")
        vmap[v] = candidates[0]
    return vmap


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (FormatError, GraphStructureError) as exc:
        return (type(exc).__name__, str(exc))


# -- graphs ----------------------------------------------------------------


# names whose string order differs from their drawing order ("10" < "9")
_NAMES = ("u", "v", "w", "x", "9", "10", "a1", "a10", "a2", "*")


@st.composite
def _edge_lists(draw, vertices, connected=True):
    """Edges over ``vertices``: a random spanning tree when ``connected``,
    plus loops and multi-edges, in a random order with random ids and
    orientations."""
    n = len(vertices)
    pairs = []
    if connected:
        for i in range(1, n):
            pairs.append((vertices[i], vertices[draw(st.integers(0, i - 1))]))
    if n == 1 or draw(st.booleans()):
        pairs.append((vertices[0], vertices[0]))
    pairs += draw(st.lists(st.tuples(st.sampled_from(vertices),
                                     st.sampled_from(vertices)),
                           max_size=6))
    pairs = draw(st.permutations(pairs))
    flips = draw(st.lists(st.booleans(), min_size=len(pairs),
                          max_size=len(pairs)))
    ids = draw(st.permutations(range(len(pairs))))
    return [(f"e{k}", *((b, a) if flip else (a, b)))
            for k, (a, b), flip in zip(ids, pairs, flips)]


@st.composite
def _graphs(draw):
    """A connected relaxed graph of 1-7 vertices."""
    names = draw(st.permutations(_NAMES))
    vertices = names[:draw(st.integers(1, 7))]
    return OrientedGraph(vertices, draw(_edge_lists(vertices)), _relaxed=True)


def _bare(vertices, edges):
    """The graph's tables, built as the constructor builds them, without
    its checks: a disconnected graph has no other form."""
    g = object.__new__(OrientedGraph)
    g.vertices = tuple(vertices)
    g.edge_ids = tuple(e for e, _, _ in edges)
    g._einit = [a for _, a, _ in edges]
    g._eterm = [b for _, _, b in edges]
    g._eindex = {e: i + 1 for i, e in enumerate(g.edge_ids)}
    g._out = {v: [] for v in g.vertices}
    for i in range(len(edges)):
        g._out[g._einit[i]].append(i + 1)
        g._out[g._eterm[i]].append(-(i + 1))
    return g


def _subset(draw, names):
    return draw(st.sets(st.sampled_from(names))) if names else set()


# -- connectivity ----------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_connectivity_matches_the_old_search(data):
    names = data.draw(st.permutations(_NAMES))
    vertices = names[:data.draw(st.integers(1, 7))]
    edges = data.draw(_edge_lists(vertices,
                                  connected=data.draw(st.booleans())))
    bare = _bare(vertices, edges)
    connected = old_connected(bare)
    assert (len(bare._reach(vertices[0])) == len(vertices)) == connected
    built = _outcome(OrientedGraph, vertices, edges)
    relaxed = _outcome(lambda: OrientedGraph(vertices, edges, _relaxed=True))
    for outcome in (built, relaxed):
        if connected:
            assert outcome != ("GraphStructureError",
                               "graph is not connected")
        else:
            assert outcome == ("GraphStructureError",
                               "graph is not connected")


def test_two_roses_are_not_connected():
    with pytest.raises(GraphStructureError) as info:
        OrientedGraph(["u", "v"], [("a", "u", "u"), ("b", "u", "u"),
                                   ("c", "v", "v"), ("d", "v", "v")])
    assert str(info.value) == "graph is not connected"


@settings(max_examples=300, deadline=None)
@given(g=_graphs(), data=st.data())
def test_subgraph_queries_match_the_old_searches(g, data):
    edges = _subset(data.draw, g.edge_ids)
    assert g.subgraph_is_connected(edges) \
        == old_subgraph_is_connected(g, edges)
    assert g.subgraph_betti(edges) == old_subgraph_betti(g, edges)


@settings(max_examples=300, deadline=None)
@given(g=_graphs())
def test_default_spanning_tree_matches_the_old_search(g):
    assert _default_spanning_tree(g) == old_default_spanning_tree(g)


# -- markings --------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(g=_graphs(), data=st.data())
def test_tree_spans_match_the_old_search(g, data):
    edges = data.draw(st.permutations(g.edge_ids))[:g.n_vertices - 1]
    old = object.__new__(Marking)
    old.graph, old.tree_edges = g, frozenset(edges)
    try:
        Marking(g, edges)
    except GraphStructureError as exc:
        assert str(exc) == "tree edges do not form a spanning tree"
        assert not old_tree_spans(old)
    else:
        assert old_tree_spans(old)


@settings(max_examples=200, deadline=None)
@given(g=_graphs(), data=st.data())
def test_tree_geodesics_match_the_old_search(g, data):
    order = data.draw(st.permutations(range(g.n_edges)))
    shuffled = OrientedGraph(g.vertices, [(g.edge_ids[i], g._einit[i],
                                           g._eterm[i]) for i in order],
                             _relaxed=True)
    m = Marking(g, old_default_spanning_tree(shuffled))
    for u in g.vertices:
        for v in g.vertices:
            path = m.tree_geodesic(u, v)
            assert path == old_tree_geodesic(m, u, v)
            assert m.tree_geodesic(u, v) is path


@settings(max_examples=200, deadline=None)
@given(g=_graphs(), data=st.data())
def test_broken_trees_fail_as_before(g, data):
    """A marking whose tree lost its checks: the same paths, or the same
    error, for every vertex pair."""
    m = object.__new__(Marking)
    m.graph, m.tree_edges = g, frozenset(_subset(data.draw, g.edge_ids))
    m._geodesics = {}
    for u in g.vertices:
        for v in g.vertices:
            old = _outcome(old_tree_geodesic, m, u, v)
            assert _outcome(m.tree_geodesic, u, v) == old


# -- collapse --------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(g=_graphs(), data=st.data())
def test_collapse_matches_the_old_union_find(g, data):
    edges = _subset(data.draw, g.edge_ids)
    labels = {name: data.draw(st.integers(0, 2))
              for name in _subset(data.draw, g.edge_ids)}
    old = _outcome(old_collapse, g, edges, labels)
    new = _outcome(collapse, g, edges, labels)
    if isinstance(old, tuple):
        assert new == old
        return
    assert list(new.vertex_map.items()) == list(old.vertex_map.items())
    assert new.valence_report == old.valence_report
    assert new.edge_labels == old.edge_labels
    assert new.graph == old.graph


# -- implicit vertex images ------------------------------------------------


@st.composite
def _images(draw, domain, codomain):
    """Edge images over ``codomain``: collapsed to a point, a walk between
    the images of the edge's ends under a drawn vertex map, or a walk from
    anywhere."""
    phi = {v: draw(st.sampled_from(codomain.vertices))
           for v in domain.vertices}
    m = Marking(codomain, _default_spanning_tree(codomain))
    images = {}
    for j, name in enumerate(domain.edge_ids):
        kind = draw(st.sampled_from(("point", "walk", "stray")))
        if kind == "point":
            images[name] = ()
            continue
        here = phi[domain.init(j + 1)] if kind == "walk" \
            else draw(st.sampled_from(codomain.vertices))
        path = []
        for _ in range(draw(st.integers(0 if kind == "walk" else 1, 3))):
            path.append(draw(st.sampled_from(codomain.out_edges(here))))
            here = codomain.term(path[-1])
        if kind == "walk":
            path += m.tree_geodesic(here, phi[domain.term(j + 1)])
        images[name] = tuple(path)
    return images


@settings(max_examples=200, deadline=None)
@given(domain=_graphs(), codomain=_graphs(), data=st.data())
def test_vertex_maps_match_the_old_union_find(domain, codomain, data):
    images = data.draw(_images(domain, codomain))
    assert _outcome(_infer_vertex_map, domain, codomain, images) \
        == _outcome(old_infer_vertex_map, domain, codomain, images)

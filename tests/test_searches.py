"""Searches that a smaller search decides, against the searches they replaced.

``is_reduced_window`` walks each edge through the window on its own, where
it walked every proper edge subset; ``_embedded_circles`` is the arc search
from each vertex back to itself, where it had its own recursion; and
``factor_projection`` reads each subgraph's connectivity, rank and basis
tree from one graph search, and reads the basis loops as based words.  The
oracles below are the old code (with based words for the basis loops), and
hypothesis compares each with the new code on random rose and theta chains
and random relaxed graphs.
"""

import time

from hypothesis import given, settings
from hypothesis import strategies as st

from foldspace.cli import main
from foldspace.errors import BudgetExceededError, SequenceError
from foldspace.graphs import Marking, MarkedGraph, OrientedGraph, rose
from foldspace.io_formats import write_sequence
from foldspace.metric import (_embedded_circles, _subgroup_core,
                              factor_projection)
from foldspace.morphisms import GraphMorphism
from foldspace.paths import canonical_cycle, reverse_path
from foldspace.sequences import FoldingSequence, is_reduced_window

from test_reach import _graphs, old_default_spanning_tree


# -- the oracles -----------------------------------------------------------


def old_is_reduced_window(seq, window, *, max_edges=15):
    n0, n1 = window
    levels = seq._levels_between(n0, n1)
    if len(levels) < 2 or levels[0] != n0 or levels[-1] != n1:
        raise SequenceError(f"window {window} outside the sequence range")
    g0 = seq.graph_at(n0)
    E = g0.n_edges
    if E > max_edges:
        raise BudgetExceededError(
            f"subgraph enumeration over {E} edges exceeds the budget")
    names = list(g0.edge_ids)
    subsets = []
    for mask in range(1, (1 << E) - 1):
        subsets.append(frozenset(names[i] for i in range(E)
                                 if mask >> i & 1))
    subsets.sort(key=lambda s: (len(s), tuple(sorted(s))))
    for start in subsets:
        chain = [start]
        alive = True
        for level in levels[:-1]:
            f = seq.step_at(level)
            cur = chain[-1]
            image = set()
            for name in cur:
                p = f.edge_image(f.domain.edge_index(name))
                if len(p) != 1:
                    alive = False
                    break
                image.add(f.codomain.edge_name(p[0]))
            if not alive or len(image) != len(cur) \
                    or len(image) >= f.codomain.n_edges:
                alive = False
                break
            chain.append(frozenset(image))
        if alive:
            return {"passed": False,
                    "witness": tuple(tuple(sorted(s)) for s in chain),
                    "window": (n0, n1)}
    return {"passed": True, "witness": None, "window": (n0, n1)}


def old_embedded_circles(g):
    out = {}

    def rec(v, path, visited, v0):
        for e in g.out_edges(v):
            if path and e == -path[-1]:
                continue
            w = g.term(e)
            if w == v0:
                cyc = path + (e,)
                if len(cyc) == 1 or cyc[0] != -e:
                    out.setdefault(canonical_cycle(cyc), cyc)
            elif w not in visited:
                rec(w, path + (e,), visited | {w}, v0)

    for v0 in g.vertices:
        rec(v0, (), frozenset((v0,)), v0)
    return list(out.values())


def old_basis_words(marked, subset):
    """The old stack-search tree, with each loop read as a based word."""
    g = marked.graph
    root = min(g.subgraph_vertices(subset))
    tree_to = {root: ()}
    frontier = [root]
    while frontier:
        v = frontier.pop()
        for e in g.out_edges(v):
            if g.edge_name(abs(e)) not in subset:
                continue
            w = g.term(e)
            if w not in tree_to:
                tree_to[w] = tree_to[v] + (e,)
                frontier.append(w)
    tree_edges = {abs(e) for p in tree_to.values() for e in p}
    words = []
    for name in sorted(subset):
        j = g.edge_index(name)
        if j in tree_edges:
            continue
        loop = tree_to[g.init(j)] + (j,) + reverse_path(tree_to[g.term(j)])
        words.append(marked.marking.word_of_path(loop))
    return words


def old_by_subgraph(marked):
    g = marked.graph
    names = list(g.edge_ids)
    by_subgraph = {}
    for mask in range(1, (1 << len(names)) - 1):
        subset = frozenset(names[j] for j in range(len(names))
                           if mask >> j & 1)
        if g.subgraph_is_connected(subset) and g.subgraph_betti(subset) >= 1:
            by_subgraph[subset] = _subgroup_core(
                old_basis_words(marked, subset))
    return by_subgraph


# -- chains ----------------------------------------------------------------


# edge names whose string order differs from their drawing order
_EDGE_NAMES = ("x1", "x9", "x10", "b", "a")


def _relaxed_rose(names):
    return OrientedGraph(["*"], [(e, "*", "*") for e in names],
                         _relaxed=True)


def _two_letters(draw, n):
    """A reduced path of one or two letters on a rose of n edges."""
    letters = [k for k in range(-n, n + 1) if k]
    first = draw(st.sampled_from(letters))
    if draw(st.booleans()):
        return (first,)
    return (first, draw(st.sampled_from([k for k in letters
                                         if k != -first])))


@st.composite
def _rose_steps(draw):
    """Rose steps of ranks 1-4, images of one or two edges; single-edge
    images are drawn often, and half the steps permute the edges."""
    graphs = [_relaxed_rose(draw(st.permutations(_EDGE_NAMES))[:r]) for r in
              draw(st.lists(st.integers(1, 4), min_size=2, max_size=12))]
    steps = []
    for g, h in zip(graphs, graphs[1:]):
        images = {}
        perm = draw(st.permutations(range(1, h.n_edges + 1)))
        for i, name in enumerate(g.edge_ids):
            if i < h.n_edges and draw(st.integers(0, 2)):
                sign = draw(st.sampled_from((1, -1)))
                images[name] = (sign * perm[i],)
            else:
                images[name] = _two_letters(draw, h.n_edges)
        steps.append(GraphMorphism(g, h, {"*": "*"}, images))
    return steps


@st.composite
def _theta_steps(draw):
    """Theta steps: the vertices fixed, swapped or sent to one vertex, with
    images of one edge (across), two (back to the start) or three."""
    g = OrientedGraph(["u", "v"], [(e, "u", "v") for e in
                                   draw(st.permutations(_EDGE_NAMES))[:3]],
                      _relaxed=True)
    steps = []
    for _ in range(draw(st.integers(1, 10))):
        vmap = draw(st.sampled_from(({"u": "u", "v": "v"},
                                     {"u": "v", "v": "u"},
                                     {"u": "u", "v": "u"},
                                     {"u": "v", "v": "v"})))
        images = {}
        for name in g.edge_ids:
            a, b, c = (draw(st.integers(1, 3)) for _ in range(3))
            if vmap["u"] == vmap["v"]:
                b = b if b != a else a % 3 + 1
                path = (a, -b) if vmap["u"] == "u" else (-a, b)
            elif draw(st.integers(0, 2)):
                path = (a,)
            else:
                b = b if b != a else a % 3 + 1
                c = c if c != b else b % 3 + 1
                path = (a, -b, c)
            if vmap == {"u": "v", "v": "u"}:
                path = reverse_path(path)
            images[name] = path
        steps.append(GraphMorphism(g, g, vmap, images))
    return steps


@st.composite
def _windows(draw):
    steps = draw(st.one_of(_rose_steps(), _theta_steps()))
    direction = draw(st.sampled_from(("folding", "unfolding")))
    seq = FoldingSequence(steps, direction, validate=False)
    levels = list(seq.levels)
    n0, n1 = sorted(draw(st.lists(st.sampled_from(levels), min_size=2,
                                  max_size=2, unique=True)))
    return seq, (n0, n1)


@settings(max_examples=400, deadline=None)
@given(case=_windows())
def test_reduced_window_matches_the_subset_search(case):
    seq, window = case
    assert is_reduced_window(seq, window) == old_is_reduced_window(seq,
                                                                   window)


def test_one_edge_graph_passes():
    g = _relaxed_rose(["x1"])
    for images in ({"x1": (1,)}, {"x1": (1, 1)}):
        seq = FoldingSequence([GraphMorphism(g, g, {"*": "*"}, images)] * 3,
                              "folding", validate=False)
        assert is_reduced_window(seq, (0, 3)) == {
            "passed": True, "witness": None, "window": (0, 3)}


def test_one_edge_codomain_ends_a_witness():
    g, h = _relaxed_rose(["x1", "x2"]), _relaxed_rose(["x1"])
    seq = FoldingSequence([GraphMorphism(g, h, {"*": "*"},
                                         {"x1": (1,), "x2": (1,)})],
                          "folding", validate=False)
    assert is_reduced_window(seq, (0, 1))["passed"]


# -- the witness search on a rank-15 rose -----------------------------------


def _rose15_chain():
    """A rank-15 rose: the shift x_i -> x_(i+1) 200 times, then the 15
    transvections x_i -> x_i x_(i+1), indices mod 15.  Each edge follows
    single edges through the shifts and doubles at its transvection, so the
    window 0:215 has no witness."""
    names = [f"x{i}" for i in range(1, 16)]
    g = rose(names)
    shift = GraphMorphism(g, g, {"*": "*"},
                          {e: (i % 15 + 1,) for i, e in enumerate(names, 1)})
    moves = [GraphMorphism(g, g, {"*": "*"},
                           {e: (j, j % 15 + 1) if j == i else (j,)
                            for j, e in enumerate(names, 1)})
             for i in range(1, 16)]
    return FoldingSequence.from_runs([(shift, 200)]
                                     + [(f, 1) for f in moves], "folding")


def test_rank_15_witness_search_answers_at_once():
    seq = _rose15_chain()
    start = time.perf_counter()
    assert is_reduced_window(seq, (0, 215)) == {
        "passed": True, "witness": None, "window": (0, 215)}
    assert time.perf_counter() - start < 1.0


def test_rank_15_fold_window_through_the_cli(tmp_path, capsys):
    path = write_sequence(_rose15_chain(), str(tmp_path), "rose15")
    capsys.readouterr()
    start = time.perf_counter()
    assert main(["fold", path, "--window=0:215"]) == 0
    assert time.perf_counter() - start < 5.0
    assert '"passed": true' in capsys.readouterr().out


# -- embedded circles --------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(g=_graphs())
def test_embedded_circles_match_the_old_recursion(g):
    assert _embedded_circles(g) == old_embedded_circles(g)


# -- free factors ------------------------------------------------------------


def _core_rank(core):
    rows = [tuple(row.split(",")) for row in core.split(";")]
    vertices = {x for a, _, b in rows for x in (a, b)}
    return len(rows) - len(vertices) + 1


def test_rank_2_factor_is_read_as_one_subgroup():
    g = OrientedGraph(["0", "1", "2"],
                      [("e0", "2", "0"), ("e1", "1", "2"), ("e2", "1", "1"),
                       ("e3", "0", "0"), ("e4", "2", "0"), ("e5", "2", "2")])
    report = factor_projection(MarkedGraph(g, {e: 1 for e in g.edge_ids}))
    # the subgraph carries <x2, x3^-1 x1 x3>; conjugating each generator
    # on its own gave <x1, x2>, "0,1,0;0,2,0"
    core = report.by_subgraph[frozenset({"e1", "e2", "e3", "e4"})]
    assert core == "0,1,0;0,3,1;1,2,1"
    assert _core_rank(core) == 2


@st.composite
def _marked_graphs(draw):
    g = draw(_graphs().filter(lambda g: 1 <= g.betti() <= 5
                              and g.n_edges <= 8))
    order = draw(st.permutations(range(g.n_edges)))
    shuffled = OrientedGraph(g.vertices, [(g.edge_ids[i], g._einit[i],
                                           g._eterm[i]) for i in order],
                             _relaxed=True)
    tree = old_default_spanning_tree(shuffled)
    nontree = [e for e in g.edge_ids if e not in tree]
    symbols = draw(st.permutations(range(1, len(nontree) + 1)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=len(nontree),
                          max_size=len(nontree)))
    marking = Marking(g, tree, {e: s * k for e, s, k
                                in zip(nontree, signs, symbols)})
    return MarkedGraph(g, {e: 1 for e in g.edge_ids}, marking)


@settings(max_examples=200, deadline=None)
@given(marked=_marked_graphs())
def test_factor_projection_matches_the_stack_search(marked):
    report = factor_projection(marked)
    assert report.by_subgraph == old_by_subgraph(marked)
    assert report.factors == tuple(sorted(set(report.by_subgraph.values())))
    for subset, core in report.by_subgraph.items():
        assert _core_rank(core) == marked.graph.subgraph_betti(subset)

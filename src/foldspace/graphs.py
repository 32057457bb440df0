"""Finite oriented graphs, markings, and marked metric graphs.

A graph stores unoriented edges once, with an initial and terminal vertex for
the chosen positive orientation.  Oriented edges are signed 1-based indices
(see paths.py).  Public constructors insist on the shape of a marked-graph
core: connected, first Betti number >= 2, every vertex of valence >= 3.
Valence-2 vertices only appear in graphs built internally by subdivision, and
quotients/collapses may relax the valence bound; those constructors pass
``_relaxed=True``.
"""

from fractions import Fraction

from .errors import (DimensionMismatchError, GraphStructureError,
                     MalformedPathError)
from .paths import cyclic_tighten, require_reduced, tighten


class OrientedGraph:
    """Connected graph with an orientation-reversing pairing of directed edges.

    Parameters
    ----------
    vertices : iterable of str
        Vertex ids.
    edges : iterable of (edge_id, init_vertex, term_vertex)
        One entry per unoriented edge; the triple fixes the positive
        orientation.
    """

    def __init__(self, vertices, edges, *, _relaxed=False):
        vertices = [str(v) for v in vertices]
        edges = list(edges)
        self.vertices = tuple(dict.fromkeys(vertices))
        if len(self.vertices) != len(vertices):
            raise GraphStructureError("duplicate vertex ids")
        self.edge_ids = tuple(str(e[0]) for e in edges)
        if len(set(self.edge_ids)) != len(self.edge_ids):
            raise GraphStructureError("duplicate edge ids")
        vset = set(self.vertices)
        self._einit = []
        self._eterm = []
        for eid, vi, vt in edges:
            if str(vi) not in vset or str(vt) not in vset:
                raise GraphStructureError(
                    f"edge {eid} has endpoint outside the vertex set")
            self._einit.append(str(vi))
            self._eterm.append(str(vt))
        self._eindex = {e: i + 1 for i, e in enumerate(self.edge_ids)}
        self._out = {v: [] for v in self.vertices}
        for i, eid in enumerate(self.edge_ids):
            self._out[self._einit[i]].append(i + 1)
            self._out[self._eterm[i]].append(-(i + 1))
        if not self.vertices:
            raise GraphStructureError("graph has no vertices")
        if len(self._reach(self.vertices[0])) != len(self.vertices):
            raise GraphStructureError("graph is not connected")
        if not _relaxed:
            if self.betti() < 2:
                raise GraphStructureError(
                    f"first Betti number {self.betti()} < 2")
            bad = [v for v in self.vertices if self.valence(v) < 3]
            if bad:
                raise GraphStructureError(
                    f"vertices of valence < 3: {bad} "
                    "(subdivision/quotient graphs are built internally)")
        else:
            bad = [v for v in self.vertices if self.valence(v) < 1]
            if bad:
                raise GraphStructureError(f"isolated vertices: {bad}")

    # -- basic accessors -------------------------------------------------

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_edges(self):
        """Number of unoriented edges."""
        return len(self.edge_ids)

    def betti(self):
        return self.n_edges - self.n_vertices + 1

    def edge_index(self, edge_id):
        try:
            return self._eindex[edge_id]
        except KeyError:
            raise GraphStructureError(f"unknown edge id {edge_id!r}") from None

    def edge_name(self, oriented):
        return self.edge_ids[abs(oriented) - 1]

    def init(self, oriented):
        i = abs(oriented) - 1
        return self._einit[i] if oriented > 0 else self._eterm[i]

    def term(self, oriented):
        return self.init(-oriented)

    def valence(self, vertex):
        return len(self._out[vertex])

    def out_edges(self, vertex):
        """Oriented edges with initial vertex ``vertex`` (loops appear with
        both orientations)."""
        return tuple(self._out[vertex])

    def oriented_edges(self):
        n = self.n_edges
        return tuple(range(1, n + 1)) + tuple(range(-1, -n - 1, -1))

    def _reach(self, start, edge_names=None):
        """Breadth-first search from ``start`` through the edges named in
        ``edge_names`` (every edge when None).  Maps each vertex reached,
        in the order reached, to the oriented edge that first reached it
        (None for ``start``)."""
        reached = {start: None}
        queue = [start]
        names, einit, eterm = self.edge_ids, self._einit, self._eterm
        for v in queue:
            for e in self._out[v]:
                w = eterm[e - 1] if e > 0 else einit[-e - 1]
                if w not in reached and (edge_names is None
                                         or names[abs(e) - 1] in edge_names):
                    reached[w] = e
                    queue.append(w)
        return reached

    def _tree_paths(self, start, edge_names=None):
        """The search tree of ``_reach`` as paths: maps each vertex reached
        to the path of first-reaching edges from ``start``."""
        paths = {}
        for v, e in self._reach(start, edge_names).items():
            paths[v] = () if e is None else paths[self.init(e)] + (e,)
        return paths

    # -- paths -----------------------------------------------------------

    def check_path(self, path, *, reduced=False):
        """Validate composability (and optionally reducedness) of a path."""
        for e in path:
            if not isinstance(e, int) or e == 0 or abs(e) > self.n_edges:
                raise MalformedPathError(f"bad oriented edge {e!r}")
        for a, b in zip(path, path[1:]):
            if self.term(a) != self.init(b):
                raise MalformedPathError(
                    f"edges {self.token(a)},{self.token(b)} do not compose")
        if reduced:
            require_reduced(path)
        return tuple(path)

    def path_init(self, path):
        return self.init(path[0])

    def path_term(self, path):
        return self.term(path[-1])

    def is_closed(self, path):
        return bool(path) and self.path_init(path) == self.path_term(path)

    # -- token form (for files and messages) -----------------------------

    def token(self, oriented):
        name = self.edge_name(oriented)
        return name if oriented > 0 else "-" + name

    def tokens(self, path):
        return tuple(self.token(e) for e in path)

    def parse_oriented(self, token):
        token = token.strip()
        if token.startswith("-"):
            return -self.edge_index(token[1:])
        return self.edge_index(token)

    def parse_path(self, tokens):
        if isinstance(tokens, str):
            tokens = tokens.split()
        return tuple(self.parse_oriented(t) for t in tokens)

    # -- structure helpers ----------------------------------------------

    def subgraph_vertices(self, edge_names):
        verts = set()
        for name in edge_names:
            i = self.edge_index(name) - 1
            verts.add(self._einit[i])
            verts.add(self._eterm[i])
        return verts

    def subgraph_is_connected(self, edge_names):
        edge_names = set(edge_names)
        if not edge_names:
            return False
        verts = self.subgraph_vertices(edge_names)
        return len(self._reach(next(iter(verts)), edge_names)) == len(verts)

    def subgraph_betti(self, edge_names):
        """First Betti number of the subgraph spanned by ``edge_names``
        (sum over its connected components)."""
        edge_names = set(edge_names)
        verts = self.subgraph_vertices(edge_names)
        comps = 0
        seen = set()
        for v in verts:
            if v not in seen:
                comps += 1
                seen.update(self._reach(v, edge_names))
        return len(edge_names) - len(verts) + comps

    def __eq__(self, other):
        if not isinstance(other, OrientedGraph):
            return NotImplemented
        return (self.vertices == other.vertices
                and self.edge_ids == other.edge_ids
                and self._einit == other._einit
                and self._eterm == other._eterm)

    __hash__ = None

    def __repr__(self):
        return (f"OrientedGraph({self.n_vertices} vertices, "
                f"{self.n_edges} edges, betti={self.betti()})")


def rose(labels):
    """Rose with one vertex ``*`` and a loop per label."""
    labels = list(labels)
    return OrientedGraph(["*"], [(lab, "*", "*") for lab in labels])


def theta_graph(edge_ids=("e1", "e2", "e3")):
    return OrientedGraph(["u", "v"], [(e, "u", "v") for e in edge_ids])


class Marking:
    """Spanning tree plus a signed bijection from non-tree edges to basis
    symbols x_1..x_N.

    ``basis_map[edge_id] = +k`` reads the positive orientation of the edge as
    x_k, ``-k`` as x_k^{-1}.  Words are tuples of signed basis indices.
    """

    def __init__(self, graph, tree_edges=(), basis_map=None):
        self.graph = graph
        self.tree_edges = frozenset(str(e) for e in tree_edges)
        for e in self.tree_edges:
            graph.edge_index(e)
        if len(self.tree_edges) != graph.n_vertices - 1:
            raise GraphStructureError(
                "tree edge count must be n_vertices - 1")
        if not self._tree_spans():
            raise GraphStructureError("tree edges do not form a spanning tree")
        nontree = [e for e in graph.edge_ids if e not in self.tree_edges]
        if basis_map is None:
            basis_map = {e: i + 1 for i, e in enumerate(nontree)}
        self.basis_map = {str(e): int(s) for e, s in basis_map.items()}
        if set(self.basis_map) != set(nontree):
            raise GraphStructureError(
                "basis map must cover exactly the non-tree edges")
        indices = sorted(abs(s) for s in self.basis_map.values())
        if indices != list(range(1, len(nontree) + 1)):
            raise GraphStructureError(
                "basis symbols must be x_1..x_N, each used once")
        self.rank = len(nontree)
        self._letter_of_edge = {}
        for e, s in self.basis_map.items():
            self._letter_of_edge[graph.edge_index(e)] = s
        self._edge_of_letter = {}
        for e, s in self.basis_map.items():
            idx = graph.edge_index(e)
            self._edge_of_letter[s] = idx
            self._edge_of_letter[-s] = -idx
        self._geodesics = {}

    def _tree_spans(self):
        g = self.graph
        return len(g._reach(g.vertices[0], self.tree_edges)) == g.n_vertices

    def tree_geodesic(self, u, v):
        """Unique reduced path from u to v inside the spanning tree.  One
        search from u gives the paths to every v, kept per u."""
        paths = self._geodesics.get(u)
        if paths is None:
            paths = self.graph._tree_paths(u, self.tree_edges)
            self._geodesics[u] = paths
        if v not in paths:
            raise GraphStructureError("tree does not connect the vertices")
        return paths[v]

    def word_of_path(self, path):
        """Read the basis letters crossed by a path (tree edges are silent);
        freely reduced."""
        word = []
        for e in path:
            letter = self._letter_of_edge.get(abs(e))
            if letter is None:
                continue
            letter = letter if e > 0 else -letter
            if word and word[-1] == -letter:
                word.pop()
            else:
                word.append(letter)
        return tuple(word)

    def word_of_loop(self, path):
        """Conjugacy-class word of a closed path: read letters, cyclically
        reduce."""
        return cyclic_tighten(self.word_of_path(path))

    def basepoint(self):
        return self.graph.vertices[0]

    def letter_edge(self, letter):
        """Oriented non-tree edge read as a basis letter."""
        e = self._edge_of_letter.get(letter)
        if e is None:
            raise DimensionMismatchError(f"letter {letter} outside basis")
        return e

    def letter_loop(self, letter):
        """Edge loop at the basepoint realizing a basis letter."""
        e = self.letter_edge(letter)
        g = self.graph
        base = self.basepoint()
        return tighten(self.tree_geodesic(base, g.init(e)) + (e,)
                       + self.tree_geodesic(g.term(e), base))

    def loop_of_word(self, word):
        """Closed edge path at the basepoint realizing a word (freely reduced
        as a path, not cyclically)."""
        path = []
        for letter in word:
            path.extend(self.letter_loop(letter))
        return tighten(path)

    def __eq__(self, other):
        if not isinstance(other, Marking):
            return NotImplemented
        return (self.graph == other.graph
                and self.tree_edges == other.tree_edges
                and self.basis_map == other.basis_map)

    __hash__ = None


class MarkedGraph:
    """Metric graph with a marking: a point of the space of marked graphs.

    ``lengths`` maps edge ids to nonnegative rationals; operations that need a
    genuine point (distances, thickness) additionally require all lengths
    positive.
    """

    def __init__(self, graph, lengths, marking=None):
        self.graph = graph
        if marking is None:
            marking = Marking(graph,
                              _default_spanning_tree(graph))
        if marking.graph is not graph and marking.graph != graph:
            raise GraphStructureError("marking belongs to a different graph")
        self.marking = marking
        vec = []
        for e in graph.edge_ids:
            try:
                val = Fraction(lengths[e])
            except KeyError:
                raise DimensionMismatchError(f"no length for edge {e}") \
                    from None
            if val < 0:
                raise GraphStructureError(f"negative length on edge {e}")
            vec.append(val)
        self.lengths = tuple(vec)

    @property
    def rank(self):
        return self.marking.rank

    def length_of_edge(self, oriented):
        return self.lengths[abs(oriented) - 1]

    def length_of_path(self, path):
        return sum((self.length_of_edge(e) for e in path), Fraction(0))

    def volume(self):
        return sum(self.lengths, Fraction(0))

    def require_positive(self):
        if any(l == 0 for l in self.lengths):
            raise GraphStructureError(
                "operation needs strictly positive edge lengths")

    def scaled(self, factor):
        factor = Fraction(factor)
        return MarkedGraph(
            self.graph,
            {e: l * factor for e, l in zip(self.graph.edge_ids, self.lengths)},
            self.marking)

    def normalized(self):
        """Volume-1 rescaling."""
        vol = self.volume()
        if vol == 0:
            raise GraphStructureError("cannot normalize a zero-volume graph")
        return self.scaled(Fraction(1, 1) / vol)

    def translation_length(self, word):
        """Length of the shortest loop in the conjugacy class of ``word``."""
        return self.length_of_path(self.geodesic_loop(word))

    def geodesic_loop(self, word):
        return cyclic_tighten(self.marking.loop_of_word(word))

    def __eq__(self, other):
        if not isinstance(other, MarkedGraph):
            return NotImplemented
        return (self.graph == other.graph and self.lengths == other.lengths
                and self.marking == other.marking)

    __hash__ = None

    def __repr__(self):
        return f"MarkedGraph(rank={self.rank}, volume={self.volume()})"


def _default_spanning_tree(graph):
    """Deterministic BFS spanning tree (edge ids)."""
    reached = graph._reach(graph.vertices[0])
    return [graph.edge_name(e) for e in reached.values() if e is not None]

"""Graph morphisms, incidence matrices, and fold decompositions.

A morphism sends vertices to vertices and each positively oriented edge to a
reduced (possibly empty) edge path; orientation reversal is respected.  The
central validation here is the change-of-marking test: factor through a
subdivision into a simplicial map (Stallings), fold until no two edges at a
common vertex have the same image, and check that what remains is an
isomorphism onto the codomain.
"""

from dataclasses import dataclass
from functools import wraps

from .errors import (BudgetExceededError, MalformedMorphismError,
                     NotChangeOfMarkingError)
from .graphs import OrientedGraph
from .paths import is_reduced, path_turns, reverse_path, tighten


def _kept(method):
    """Compute a morphism's derived data once and keep it: a morphism is
    immutable after ``__init__``.  A call that raises keeps nothing."""
    @wraps(method)
    def kept(self):
        try:
            return self._derived[method]
        except KeyError:
            value = self._derived[method] = method(self)
            return value
    return kept


class GraphMorphism:
    """Map of oriented graphs given on vertices and positive edges.

    Parameters
    ----------
    domain, codomain : OrientedGraph
    vertex_map : dict vertex -> vertex
    edge_map : dict edge_id -> path
        Image of the positive orientation of each domain edge, as a tuple of
        signed codomain edge indices (or a token string parsed by the
        codomain).  Empty paths (collapsed edges) are allowed when the two
        endpoint images agree.
    """

    def __init__(self, domain, codomain, vertex_map, edge_map):
        self.domain = domain
        self.codomain = codomain
        self.vertex_map = {str(v): str(w) for v, w in vertex_map.items()}
        if set(self.vertex_map) != set(domain.vertices):
            raise MalformedMorphismError("vertex map must cover the domain")
        for v, w in self.vertex_map.items():
            if w not in codomain.vertices:
                raise MalformedMorphismError(
                    f"vertex {v} maps outside the codomain")
        images = []
        emap = {str(e): p for e, p in edge_map.items()}
        if set(emap) != set(domain.edge_ids):
            raise MalformedMorphismError("edge map must cover the domain")
        for j, eid in enumerate(domain.edge_ids):
            p = emap[eid]
            if isinstance(p, str):
                p = codomain.parse_path(p)
            p = tuple(int(x) for x in p)
            codomain.check_path(p)
            if not is_reduced(p):
                raise MalformedMorphismError(
                    f"image of edge {eid} is not a reduced path")
            u = self.vertex_map[domain._einit[j]]
            w = self.vertex_map[domain._eterm[j]]
            if p:
                if codomain.path_init(p) != u or codomain.path_term(p) != w:
                    raise MalformedMorphismError(
                        f"image of edge {eid} does not connect the "
                        "vertex images")
            elif u != w:
                raise MalformedMorphismError(
                    f"edge {eid} collapses but its endpoints map apart")
            images.append(p)
        self._images = tuple(images)
        self._derived = {}

    # -- evaluation ------------------------------------------------------

    def edge_image(self, oriented):
        p = self._images[abs(oriented) - 1]
        return p if oriented > 0 else reverse_path(p)

    def vertex_image(self, vertex):
        return self.vertex_map[vertex]

    def apply_to_path(self, path):
        """Concatenated edge images, with no free reduction."""
        out = []
        for e in path:
            out.extend(self.edge_image(e))
        return tuple(out)

    def map_path(self, path):
        return tighten(self.apply_to_path(path))

    def is_simplicial(self):
        return all(len(p) == 1 for p in self._images)

    def has_collapsed_edges(self):
        return any(not p for p in self._images)

    def first_edge_map(self):
        """Oriented edge -> first oriented edge of its image.

        Only defined when no edge collapses.
        """
        if self.has_collapsed_edges():
            raise MalformedMorphismError(
                "first-edge map undefined with collapsed edges")
        return self._first_edges()

    @_kept
    def _first_edges(self):
        out = {}
        for j, p in enumerate(self._images):
            out[j + 1] = p[0]
            out[-(j + 1)] = -p[-1]
        return out

    @_kept
    def image_turns(self):
        """Turns of the codomain crossed inside the edge images."""
        return frozenset().union(*map(path_turns, self._images))

    @_kept
    def edge_supports(self):
        """Domain edge name -> codomain edge names its image crosses."""
        return {name: frozenset(self.codomain.edge_name(abs(e)) for e in p)
                for name, p in zip(self.domain.edge_ids, self._images)}

    # -- linear shadow ---------------------------------------------------

    @_kept
    def incidence_matrix(self):
        """Counts of codomain edges in domain-edge images.

        Row i, column j: number of traversals of codomain edge i+1, in either
        direction, by the image of domain edge j+1.  Unoriented edges index
        both axes, so the count is insensitive to reversing either edge.
        """
        rows = self.codomain.n_edges
        cols = self.domain.n_edges
        mat = [[0] * cols for _ in range(rows)]
        for j in range(cols):
            for e in self._images[j]:
                mat[abs(e) - 1][j] += 1
        return mat

    @_kept
    def growth_bits(self):
        """Bits one step can add to an exact entry it carries: the
        ceiling of log2 of the largest row or column sum of the incidence
        matrix, and at least 1."""
        M = self.incidence_matrix()
        s = max(map(sum, (*M, *zip(*M))))
        return max(1, (s - 1).bit_length())

    @_kept
    def covers(self):
        """Whether the edge images cross every codomain edge, that is,
        every row of the incidence matrix has a nonzero entry.  A change
        of marking covers: it is onto on fundamental groups, while a map
        that misses an edge of a core graph lands in a proper subgraph,
        which carries only a proper free factor."""
        return all(any(row) for row in self.incidence_matrix())

    @_kept
    def _marking_failure(self):
        """Why this is not a change of marking, or None when it is (see
        ``validate_change_of_marking``)."""
        G, H = self.domain, self.codomain
        if G.betti() != H.betti():
            return f"first Betti numbers differ: {G.betti()} vs {H.betti()}"
        if self.has_collapsed_edges():
            return "a change of marking cannot collapse edges"
        decomp = fold_decompose(stallings_factorize(self)[1])
        if decomp.is_isomorphism():
            return None
        return ("folding terminates in a proper immersion onto "
                f"{decomp.terminal.codomain.n_edges}-edge codomain "
                f"(final graph has {decomp.terminal.domain.n_edges} "
                "edges)")

    def __eq__(self, other):
        if not isinstance(other, GraphMorphism):
            return NotImplemented
        return (self.domain == other.domain
                and self.codomain == other.codomain
                and self.vertex_map == other.vertex_map
                and self._images == other._images)

    __hash__ = None

    def __repr__(self):
        return (f"GraphMorphism({self.domain.n_edges} -> "
                f"{self.codomain.n_edges} edges)")


def identity_morphism(graph):
    return GraphMorphism(graph, graph,
                         {v: v for v in graph.vertices},
                         {e: (i + 1,) for i, e in enumerate(graph.edge_ids)})


def compose(outer, inner):
    """Composite morphism ``outer . inner`` with freely reduced edge images."""
    if inner.codomain != outer.domain:
        raise MalformedMorphismError(
            "codomain of the inner morphism must equal the domain of the "
            "outer one")
    vmap = {v: outer.vertex_map[w] for v, w in inner.vertex_map.items()}
    emap = {}
    for i, eid in enumerate(inner.domain.edge_ids):
        emap[eid] = tighten(outer.apply_to_path(inner._images[i]))
    return GraphMorphism(inner.domain, outer.codomain, vmap, emap)


# -- Stallings factorization and folding --------------------------------


def stallings_factorize(f):
    """Factor ``f`` as a subdivision followed by a simplicial morphism.

    Each domain edge whose image has length L >= 2 is cut into L segments
    mapping to single edges.  Returns ``(subdivision, simplicial)`` with
    ``compose(simplicial, subdivision)`` equal to ``f``.
    """
    if f.has_collapsed_edges():
        raise MalformedMorphismError(
            "cannot factor a morphism with collapsed edges")
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
            sub_emap[eid] = None  # fill once indices are known
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
    for j, eid in enumerate(G.edge_ids):
        if sub_emap[eid] is None:
            final_sub_emap[eid] = (Gp.edge_index(eid),)
        else:
            final_sub_emap[eid] = tuple(Gp.edge_index(s)
                                        for s in sub_emap[eid])
    subdivision = GraphMorphism(G, Gp, {v: v for v in G.vertices},
                                final_sub_emap)
    simplicial = GraphMorphism(Gp, H, simp_vmap, simp_emap)
    return subdivision, simplicial


@dataclass(frozen=True)
class FoldStep:
    """One elementary fold: the identified pair of oriented edges, as tokens
    of the folded morphism's domain, the kept edge first."""
    pair: tuple


@dataclass(frozen=True)
class FoldDecomposition:
    """Maximal fold sequence of a simplicial morphism.

    ``steps`` lists the elementary folds in the order performed;
    ``terminal`` is the remaining morphism, which is an immersion (no two
    edges at a vertex share an image).
    """
    steps: tuple
    terminal: GraphMorphism

    def is_isomorphism(self):
        t = self.terminal
        if t.domain.n_edges != t.codomain.n_edges:
            return False
        if t.domain.n_vertices != t.codomain.n_vertices:
            return False
        vimg = set(t.vertex_map.values())
        eimg = {abs(t._images[j][0]) for j in range(t.domain.n_edges)}
        return (len(vimg) == t.domain.n_vertices
                and len(eimg) == t.domain.n_edges)


def fold_decompose(f, *, max_folds=100000):
    """Fold a simplicial morphism until no further fold is possible.

    One union-find pass over the domain's vertices.  Each vertex class keeps
    its live outgoing edges by image; when two with one image meet, they
    fold: the one with the larger edge index is dropped, and the classes of
    their terminal vertices go on a worklist to be merged.  A merged class
    keeps the smaller vertex name and takes in the other's edges, which may
    fold in turn.  Folding is confluent, so the final classes do not depend
    on the order of the folds, and by these survivor rules each class ends
    at its minimum: the terminal (built once, in the domain's order) and the
    fold count are those of folding the least pair first, one fold at a
    time.  An immersion is its own terminal.  A decomposition that needs
    ``max_folds`` folds or more raises ``BudgetExceededError``.
    """
    if not f.is_simplicial():
        raise MalformedMorphismError("fold decomposition needs a simplicial "
                                     "morphism; factor first")
    G = f.domain
    parent = {v: v for v in G.vertices}
    tables = {v: {} for v in G.vertices}   # class -> {image: live edge}
    dropped = set()     # folded-away edge indices, skipped where still held
    merges = []
    steps = []

    def find(v):
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]     # path halving
        return v

    def attach(table, e):
        if abs(e) in dropped:
            return
        x = f._images[abs(e) - 1][0]
        img = x if e > 0 else -x
        held = table.get(img)
        if held is None or abs(held) in dropped:
            table[img] = e
            return
        keep, drop = (held, e) if abs(held) < abs(e) else (e, held)
        dropped.add(abs(drop))
        table[img] = keep
        steps.append(FoldStep((G.token(keep), G.token(drop))))
        merges.append((G.term(keep), G.term(drop)))

    for v in G.vertices:
        for e in G.out_edges(v):
            attach(tables[v], e)
    while merges:
        u, w = sorted(map(find, merges.pop()))
        if u == w:
            continue
        parent[w] = u
        small, big = tables.pop(w), tables[u]
        if len(small) > len(big):
            small, big = big, small
        tables[u] = big
        for e in small.values():
            attach(big, e)
    if len(steps) >= max_folds:
        raise BudgetExceededError("fold decomposition did not terminate "
                                  f"within {max_folds} folds")
    if not steps:
        return FoldDecomposition((), f)
    verts = [v for v in G.vertices if parent[v] == v]
    kept = [j for j in range(G.n_edges) if j + 1 not in dropped]
    folded = OrientedGraph(
        verts, [(G.edge_ids[j], find(G._einit[j]), find(G._eterm[j]))
                for j in kept], _relaxed=True)
    terminal = GraphMorphism(
        folded, f.codomain, {v: f.vertex_map[v] for v in verts},
        {G.edge_ids[j]: f._images[j] for j in kept})
    return FoldDecomposition(tuple(steps), terminal)


def validate_change_of_marking(f, *, raise_on_failure=False):
    """Decide whether a morphism is invertible up to homotopy.

    True when domain and codomain have equal first Betti number and the fold
    decomposition of the subdivided morphism terminates in an isomorphism.
    The verdict is kept on the morphism.
    """
    reason = f._marking_failure()
    if reason is not None and raise_on_failure:
        raise NotChangeOfMarkingError(reason)
    return reason is None

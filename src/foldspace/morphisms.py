"""Graph morphisms, incidence matrices, and fold decompositions.

A morphism sends vertices to vertices and each positively oriented edge to a
reduced (possibly empty) edge path; orientation reversal is respected.  The
central validation here is the change-of-marking test: factor through a
subdivision into a simplicial map (Stallings), fold until no two edges at a
common vertex have the same image, and check that what remains is an
isomorphism onto the codomain.  One union-find kernel, ``_fold``, makes
every fold, on integer arrays, and one speller, ``_spell``, cuts paths
into its segments: the test folds the spelled edge images, ``metric``
the spelled basis words of a free-factor core, and ``fold_decompose`` a
simplicial morphism's own edges.  Each is refused when its folds reach
``MAX_FOLDS`` (``fold_decompose`` by default).
"""

from dataclasses import dataclass
from functools import wraps

from .errors import (BudgetExceededError, MalformedMorphismError,
                     NotChangeOfMarkingError)
from .graphs import OrientedGraph
from .paths import is_reduced, path_turns, reverse_path, tighten

# a change-of-marking check, or fold_decompose by default, that reaches
# this many folds is refused (BudgetExceededError)
MAX_FOLDS = 100000


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
        ``validate_change_of_marking``).

        ``_spell`` cuts the edge images into segments on integer vertex
        ids (the domain's vertices, then one new point per inner junction
        of an image), and ``_fold`` folds the segments; no graph or
        morphism is built.  The fold ends in an isomorphism when it
        keeps as many segments as the codomain has edges, with distinct
        images, and as many vertex classes as the codomain has vertices:
        a simplicial map that is a bijection on edges is onto on the
        vertices of a codomain with no isolated vertex, so it is a
        bijection there too."""
        G, H = self.domain, self.codomain
        if G.betti() != H.betti():
            return f"first Betti numbers differ: {G.betti()} vs {H.betti()}"
        if self.has_collapsed_edges():
            return "a change of marking cannot collapse edges"
        index = {v: i for i, v in enumerate(G.vertices)}
        n, init, term, image = _spell(len(index), zip(
            map(index.__getitem__, G._einit),
            map(index.__getitem__, G._eterm), self._images))
        root, dropped, _ = _fold(n, init, term, image, range(n), MAX_FOLDS)
        kept = [abs(x) for j, x in enumerate(image, 1) if j not in dropped]
        if (len(kept) == H.n_edges == len(set(kept))
                and sum(v == r for v, r in enumerate(root)) == H.n_vertices):
            return None
        return ("folding terminates in a proper immersion onto "
                f"{H.n_edges}-edge codomain (final graph has {len(kept)} "
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
    ``compose(simplicial, subdivision)`` equal to ``f``.  Edge ``e``'s
    points are named ``e.v1``, ``e.v2``, ... and its segments ``e.1``,
    ``e.2``, ...; when a domain name contains ``.``, the separator is the
    shortest run of dots that none contains, so no new name is a domain
    name.
    """
    if f.has_collapsed_edges():
        raise MalformedMorphismError(
            "cannot factor a morphism with collapsed edges")
    G, H = f.domain, f.codomain
    sep = "."
    while any(sep in name for name in (*G.vertices, *G.edge_ids)):
        sep += "."
    new_vertices = list(G.vertices)
    new_edges = []
    sub_emap = {}
    simp_vmap = {v: f.vertex_map[v] for v in G.vertices}
    simp_emap = {}
    for j, eid in enumerate(G.edge_ids):
        p = f._images[j]
        if len(p) == 1:
            new_edges.append((eid, G._einit[j], G._eterm[j]))
            sub_emap[eid] = (len(new_edges),)
            simp_emap[eid] = p
            continue
        chain = [G._einit[j]]
        for k in range(1, len(p)):
            w = f"{eid}{sep}v{k}"
            new_vertices.append(w)
            chain.append(w)
            simp_vmap[w] = H.init(p[k])
        chain.append(G._eterm[j])
        for k, seg in enumerate(p):
            seg_id = f"{eid}{sep}{k + 1}"
            new_edges.append((seg_id, chain[k], chain[k + 1]))
            simp_emap[seg_id] = (seg,)
        sub_emap[eid] = tuple(range(len(new_edges) - len(p) + 1,
                                    len(new_edges) + 1))
    Gp = OrientedGraph(new_vertices, new_edges, _relaxed=True)
    subdivision = GraphMorphism(G, Gp, {v: v for v in G.vertices}, sub_emap)
    simplicial = GraphMorphism(Gp, H, simp_vmap, simp_emap)
    return subdivision, simplicial


def _spell(n, paths):
    """Cut paths into ``_fold``'s segments, one per letter.

    ``paths`` yields ``(a, b, path)``, a nonempty path from vertex a to
    vertex b (both below n); each inner junction becomes a new vertex,
    numbered from n on.  Returns ``(n, init, term, image)``: the new
    vertex count and the segment arrays."""
    init, term, image = [], [], []
    for a, b, p in paths:
        init.append(a)
        init.extend(range(n, n + len(p) - 1))
        term.extend(range(n, n + len(p) - 1))
        term.append(b)
        image.extend(p)
        n += len(p) - 1
    return n, init, term, image


def _fold(n, init, term, image, rank, max_folds):
    """Fold a simplicial map on integer arrays until it is an immersion.

    The domain has vertices ``0..n-1`` and segments ``1..m`` (oriented
    ``+j`` and ``-j``), segment j running from ``init[j - 1]`` to
    ``term[j - 1]`` onto the signed codomain edge ``image[j - 1]``;
    ``rank[v]`` is any key that orders the vertices.

    One union-find pass.  Each vertex class keeps its live outgoing
    segments by image; segments attach vertex by vertex, in the order of
    ``OrientedGraph._out``.  When two with one image meet they fold: the
    one with the larger index is dropped, and the classes of their
    terminal vertices go on a worklist to be merged.  A merged class keeps
    the vertex of lower ``rank`` and takes in the other's segments, which
    may fold in turn.  Folding is confluent, so the final classes do not
    depend on the order of the folds, and by these survivor rules each
    class ends at its least-ranked vertex.

    Returns ``(root, dropped, pairs)``: each vertex's class representative,
    the set of dropped segment indices, and the ``(keep, drop)`` pairs of
    oriented segments in the order they fold.  A fold count that reaches
    ``max_folds`` raises ``BudgetExceededError`` at once.
    """
    if max_folds <= 0:      # no fold count is below the budget
        raise _over_budget(max_folds)
    out = [[] for _ in range(n)]
    for j, (a, b) in enumerate(zip(init, term), 1):
        out[a].append(j)
        out[b].append(-j)
    parent = list(range(n))
    tables = [{} for _ in range(n)]     # class -> {image: live segment}
    dropped = set()     # folded-away segments, skipped where still held
    merges = []
    pairs = []

    def find(v):
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]     # path halving
        return v

    def attach(table, e):
        if abs(e) in dropped:
            return
        img = image[e - 1] if e > 0 else -image[-e - 1]
        held = table.get(img)
        if held is None or abs(held) in dropped:
            table[img] = e
            return
        keep, drop = (held, e) if abs(held) < abs(e) else (e, held)
        dropped.add(abs(drop))
        table[img] = keep
        pairs.append((keep, drop))
        if len(pairs) >= max_folds:
            raise _over_budget(max_folds)
        merges.append((term[keep - 1] if keep > 0 else init[-keep - 1],
                       term[drop - 1] if drop > 0 else init[-drop - 1]))

    for v in range(n):
        table = tables[v]
        for e in out[v]:
            attach(table, e)
    while merges:
        u, w = map(find, merges.pop())
        if u == w:
            continue
        if rank[w] < rank[u]:
            u, w = w, u
        parent[w] = u
        small, big = tables[w], tables[u]
        tables[w] = None
        if len(small) > len(big):
            small, big = big, small
        tables[u] = big
        for e in small.values():
            attach(big, e)
    return [find(v) for v in range(n)], dropped, pairs


def _over_budget(max_folds):
    return BudgetExceededError("fold decomposition did not terminate "
                               f"within {max_folds} folds")


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


def fold_decompose(f, *, max_folds=None):
    """Fold a simplicial morphism until no further fold is possible.

    ``_fold`` runs on the domain's own vertices and edges, ranked by name,
    so a class keeps its least vertex name, and the terminal (built once,
    in the domain's order) and the fold count are those of folding the
    least pair first, one fold at a time.  An immersion is its own
    terminal.  A decomposition that needs ``max_folds`` folds or more (by
    default ``MAX_FOLDS``) raises ``BudgetExceededError``.
    """
    if not f.is_simplicial():
        raise MalformedMorphismError("fold decomposition needs a simplicial "
                                     "morphism; factor first")
    G = f.domain
    names = G.vertices
    index = {v: i for i, v in enumerate(names)}
    init = [index[v] for v in G._einit]
    term = [index[v] for v in G._eterm]
    root, dropped, pairs = _fold(
        len(names), init, term, [p[0] for p in f._images], names,
        MAX_FOLDS if max_folds is None else max_folds)
    if not pairs:
        return FoldDecomposition((), f)
    steps = tuple(FoldStep((G.token(keep), G.token(drop)))
                  for keep, drop in pairs)
    verts = [names[v] for v, r in enumerate(root) if v == r]
    kept = [j for j in range(G.n_edges) if j + 1 not in dropped]
    folded = OrientedGraph(
        verts, [(G.edge_ids[j], names[root[init[j]]], names[root[term[j]]])
                for j in kept], _relaxed=True)
    terminal = GraphMorphism(
        folded, f.codomain, {v: f.vertex_map[v] for v in verts},
        {G.edge_ids[j]: f._images[j] for j in kept})
    return FoldDecomposition(steps, terminal)


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

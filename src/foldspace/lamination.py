"""Legal structures, language approximations, and cylinder weights.

The lamination carried by an unfolding sequence is approximated through
finite data: turns that stay nondegenerate under the composite maps (legal),
turns actually crossed by deep composite images (taken), the set of length-L
words occurring in images of deep paths, and the cylinder-weight sums that
identify currents with shift-invariant measures.

Word harvesting defaults to paths through taken turns — the windows that
genuinely occur in deep images.  Harvesting over all legal paths is kept as
an explicit mode (``source="legal"``); it is the right control for
degenerate sequences where nothing folds.

Languages are computed by junction recursion over the morphism chain, which
is a straight-line program for every composite image: each edge image keeps
its distinct length-L windows and its first and last L-1 edges, and a level
adds only the windows crossing the junctions of its step images.  The cost
is O(depth * edges * L^2) plus the unions of the window sets (at most |B_L|
words an edge), not the image length.  Cylinder weights count occurrences
by the same recursion, so no analysis expands a composite image.  The
10M-edge expansion budget still bounds the harvest depth (a
``BudgetExceededError``, exit code 3).
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import log

from .errors import (BudgetExceededError, DirectionError, FormatError,
                     InvalidTrackError, MalformedPathError, ShallowDepthError)
from .paths import _turn, require_reduced, reverse_path
from .sequences import EXPANSION_BUDGET, check_expansion


@dataclass(frozen=True)
class LegalStructure:
    """Turn legality at one level: gates partition directions at a vertex."""
    level: int
    graph: object
    legal_turns: frozenset

    def is_legal(self, x, y):
        return _turn(x, y) in self.legal_turns

    def gates_at(self, vertex):
        """Partition of outgoing directions into gates (illegality classes)."""
        out = list(self.graph.out_edges(vertex))
        gates = []
        for e in out:
            for gate in gates:
                if not self.is_legal(e, gate[0]):
                    gate.append(e)
                    break
            else:
                gates.append([e])
        return tuple(tuple(g) for g in gates)

    def has_legal_continuation(self, e):
        v = self.graph.term(e)
        return any(ep != -e and self.is_legal(-e, ep)
                   for ep in self.graph.out_edges(v))


def gates(seq, level):
    """Legal structure at a level of an unfolding sequence, from first edges
    of composite images."""
    if seq.direction != "unfolding":
        raise DirectionError("legal structures live on unfolding sequences")
    g = seq.graph_at(level)
    fmap = seq.first_edge_composite(level)
    legal = set()
    for v in g.vertices:
        out = g.out_edges(v)
        for i in range(len(out)):
            for j in range(i + 1, len(out)):
                if fmap[out[i]] != fmap[out[j]]:
                    legal.add(_turn(out[i], out[j]))
    return LegalStructure(level=level, graph=g, legal_turns=frozenset(legal))


@dataclass(frozen=True)
class LanguageApprox:
    """Length-L words found in deep images, up to flip."""
    depth: int
    L: int
    words: frozenset
    source: str

    @property
    def count(self):
        return len(self.words)


def _flip_canonical(word):
    return min(word, reverse_path(word))


def _harvest_paths(graph, allowed_turns, lengths, L, budget):
    """Reduced paths whose turns all lie in the set, extended while the
    composite images of their edges after the first sum to at most L-2.

    A length-L window of a path image that meets the images of its edges
    k..m spans at most L-2 edges of the images strictly between, so it lies
    in the image of the subpath k..m, which is enumerated."""
    paths = []
    stack = [((e,), 0) for e in graph.oriented_edges()]
    while stack:
        p, interior = stack.pop()
        paths.append(p)
        if len(paths) > budget:
            raise BudgetExceededError(
                f"legal-path enumeration exceeded {budget} paths")
        if interior > L - 2:
            continue
        last = p[-1]
        for nxt in graph.out_edges(graph.term(last)):
            if nxt != -last and _turn(-last, nxt) in allowed_turns:
                stack.append((p + (nxt,), interior + lengths[abs(nxt) - 1]))
    return paths


_GAP = 0       # never an oriented edge; no window spans it


def _gap_free_windows(pieces, L):
    """The concatenation of the pieces, and its length-L windows that
    contain no gap marker, with multiplicity."""
    joined = tuple(chain.from_iterable(pieces))
    windows = []
    run = 0
    for k, x in enumerate(joined):
        run = run + 1 if x != _GAP else 0
        if run >= L:
            windows.append(joined[k - L + 1:k + 1])
    return joined, windows


def _piece(joined, L):
    """The whole image when it has at most 2(L-1) edges, else its first and
    last L-1 edges around a gap.  Either way every window that crosses into
    the image from a neighbour lies inside the piece.  A gapped piece has
    2L-1 entries, so a concatenation holding one is never taken whole."""
    if len(joined) <= 2 * (L - 1):
        return joined
    return joined[:L - 1] + (_GAP,) + joined[len(joined) - (L - 1):]


def _check_expansion_budget(lengths, paths):
    """Refuse, as ``FoldingSequence.expansion`` would, the first path edge
    whose composite image exceeds the expansion budget."""
    if max(lengths) <= EXPANSION_BUDGET:
        return
    for p in paths:
        for e in p:
            check_expansion(lengths[abs(e) - 1])


def _windows(seq, level, paths, L, *, canonical=True):
    """Length-L windows of the composite images of the paths.

    Junction recursion down the chain from the right end: the windows of an
    edge image are those of the edge images one level up plus the windows
    crossing their junctions, and crossing windows only see the pieces
    (see ``_piece``) of the images they cross.  Images are never expanded.
    """
    edges = seq.graph_at(seq.levels[-1]).oriented_edges()
    words = {e: {(e,)} if L == 1 else set() for e in edges}
    pieces = {e: _piece((e,), L) for e in edges}
    for i in range(seq.n_steps - 1, seq._internal(level) - 1, -1):
        f = seq._step(i)
        up_words, up_pieces = words, pieces
        words, pieces = {}, {}
        for e in range(1, f.domain.n_edges + 1):
            image = f.edge_image(e)
            joined, crossing = _gap_free_windows(
                [up_pieces[x] for x in image], L)
            w = set().union(crossing, *(up_words[x] for x in image))
            words[e], words[-e] = w, {reverse_path(u) for u in w}
            pieces[e] = _piece(joined, L)
            pieces[-e] = reverse_path(pieces[e])
    found = set()
    for e in {x for p in paths for x in p}:
        found |= words[e]
    for p in paths:
        if len(p) > 1:
            found.update(_gap_free_windows([pieces[x] for x in p], L)[1])
    if canonical:
        return {_flip_canonical(w) for w in found}
    return found


def _harvest(seq, depth, L, source, require_depth, budget, canonical):
    if seq.direction != "unfolding":
        raise DirectionError("language harvesting needs an unfolding "
                             "sequence")
    if depth < 1 or depth > seq.n_steps:
        raise ShallowDepthError(
            f"depth {depth} outside the stored range 1..{seq.n_steps}")
    if L < 1:
        raise FormatError(f"window length L must be at least 1, got {L}")
    level = -depth
    g = seq.graph_at(level)
    lengths = seq.image_lengths(level)
    if require_depth and max(lengths) < L:
        raise ShallowDepthError(
            f"longest composite image at depth {depth} has {max(lengths)} "
            f"edges < window length {L}; deepen the truncation")
    if source == "taken":
        allowed = seq.taken_turns_at(level)
    elif source == "legal":
        allowed = gates(seq, level).legal_turns
    else:
        raise ValueError(f"unknown harvesting source {source!r}")
    paths = _harvest_paths(g, allowed, lengths, L, budget)
    _check_expansion_budget(lengths, paths)
    return _windows(seq, level, paths, L, canonical=canonical)


def allowed_words(seq, depth, L, *, source="taken", require_depth=True,
                  budget=200_000):
    """Length-L words of the right-end graph occurring in depth-m images.

    Windows are collected from composite images of short paths through
    allowed turns; words are stored up to flip (a word and its reverse
    count once).
    """
    words = _harvest(seq, depth, L, source, require_depth, budget,
                     canonical=True)
    return LanguageApprox(depth=depth, L=L, words=frozenset(words),
                          source=source)


@dataclass(frozen=True)
class ComplexityProfile:
    depths: tuple
    L_max: int
    counts: dict
    entropy: float
    entropy_series: tuple
    subexponential: bool
    stable: bool


def complexity_profile(seq, depths, L_max, *, source="taken",
                       require_depth=True):
    """|B_L| table at the deepest depth, entropy estimate at L_max.

    ``stable`` reports whether the two deepest depths agree on every count;
    ``subexponential`` whether log|B_L|/L is nonincreasing over trailing L.
    """
    if L_max < 1:
        raise FormatError(f"L_max must be at least 1, got {L_max}")
    depths = sorted(set(depths))
    if not depths:
        raise ValueError("no depths supplied")
    deepest = depths[-1]
    counts = {}
    for L in range(1, L_max + 1):
        counts[L] = allowed_words(seq, deepest, L, source=source,
                                  require_depth=require_depth).count
    stable = True
    if len(depths) >= 2:
        for L in range(1, L_max + 1):
            other = allowed_words(seq, depths[-2], L, source=source,
                                  require_depth=require_depth).count
            if other != counts[L]:
                stable = False
                break
    series = tuple(log(counts[L]) / L if counts[L] else 0.0
                   for L in range(1, L_max + 1))
    tail = series[L_max // 2:]
    subexp = all(a >= b for a, b in zip(tail, tail[1:]))
    return ComplexityProfile(depths=tuple(depths), L_max=L_max,
                             counts=counts, entropy=series[-1],
                             entropy_series=series, subexponential=subexp,
                             stable=stable)


# -- cylinder weights ----------------------------------------------------


def _hits(seq, level, gamma):
    """Occurrences of gamma plus those of its reverse in the composite image
    of each edge of the level, by the junction recursion of ``_windows``:
    the windows of its joined pieces plus the hits of the images whose
    pieces are gapped (a gapped piece holds no whole window).  An edge and
    its reverse have equal hits.  The sequence keeps the word's tables of
    every level, so a sweep over the levels costs one walk."""
    key = _flip_canonical(gamma)
    if key not in seq._hit_tables:
        L, rev = len(gamma), reverse_path(gamma)
        top = seq.graph_at(seq.levels[-1])
        pieces = {e: _piece((e,), L) for e in top.oriented_edges()}
        tables = [[((e,) == gamma) + ((e,) == rev)
                   for e in range(1, top.n_edges + 1)]]
        for f in map(seq._step, range(seq.n_steps - 1, -1, -1)):
            up, pieces, hits = pieces, {}, []
            for e in range(1, f.domain.n_edges + 1):
                image = f.edge_image(e)
                joined, crossing = _gap_free_windows([up[x] for x in image], L)
                hits.append(sum(tables[-1][abs(x) - 1] for x in image
                                if _GAP in up[x])
                            + crossing.count(gamma) + crossing.count(rev))
                pieces[e] = _piece(joined, L)
                pieces[-e] = reverse_path(pieces[e])
            tables.append(hits)
        seq._hit_tables[key] = tables[::-1]
    return seq._hit_tables[key][seq._internal(level)]


def cylinder_weight(seq, current_track, gamma, level):
    """The sum over oriented edges of mu_n(e) times the number of oriented
    occurrences of gamma in the composite image of e (see ``_hits``).

    Nondecreasing as the level moves toward the deep end; the defect against
    the one-edge-extension sum is bounded by the oriented mass of mu_n.
    """
    if current_track.kind != "current":
        raise InvalidTrackError("cylinder weights pair with current tracks")
    if current_track.seq is not seq:
        raise InvalidTrackError("track belongs to a different sequence")
    gamma = tuple(gamma)
    if not gamma:
        raise MalformedPathError("empty cylinder word")
    require_reduced(gamma, what="cylinder word")
    seq.graph_at(seq.levels[-1]).check_path(gamma)
    mu = current_track.at(level)
    return sum((Fraction(m) * h for m, h in zip(mu, _hits(seq, level, gamma))),
               Fraction(0))


def flip_cylinder_weight(seq, current_track, gamma, level):
    """Weight of gamma plus its reverse (flip-symmetrized accessor)."""
    return (cylinder_weight(seq, current_track, gamma, level)
            + cylinder_weight(seq, current_track, reverse_path(gamma), level))


def one_edge_extensions(graph, gamma):
    """Reduced one-edge forward extensions of a reduced path."""
    last = gamma[-1]
    return tuple(gamma + (e,) for e in graph.out_edges(graph.term(last))
                 if e != -last)


def oriented_mass(current_track, level):
    """Sum of mu_n over oriented edges (twice the unoriented sum)."""
    return 2 * sum(current_track.at(level), Fraction(0))


def sandwich_report(seq, current_track, gamma, level):
    """Exact lower/upper bounds around the cylinder weight of gamma.

    Lower: sum of weights of one-edge extensions; upper: lower plus the
    oriented mass of mu at the level (each edge image can end mid-word at
    most once per orientation).
    """
    w = cylinder_weight(seq, current_track, gamma, level)
    g0 = seq.graph_at(seq.levels[-1])
    lo = sum((cylinder_weight(seq, current_track, ext, level)
              for ext in one_edge_extensions(g0, tuple(gamma))), Fraction(0))
    hi = lo + oriented_mass(current_track, level)
    return {"lower": lo, "weight": w, "upper": hi,
            "ok": lo <= w <= hi}


# -- minimal components --------------------------------------------------


def _tarjan_scc(nodes, edges):
    """Iterative Tarjan; returns list of components (lists of nodes)."""
    index = {}
    low = {}
    onstack = set()
    cstack = []
    counter = [0]
    comps = []
    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(edges.get(root, ())))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        cstack.append(root)
        onstack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = counter[0]
                    counter[0] += 1
                    cstack.append(nxt)
                    onstack.add(nxt)
                    work.append((nxt, iter(edges.get(nxt, ()))))
                    advanced = True
                    break
                if nxt in onstack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = cstack.pop()
                    onstack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                comps.append(comp)
    return comps


@dataclass(frozen=True)
class MinimalComponentsReport:
    count: int
    sizes: tuple
    bound: int
    bound_ok: bool
    depth: int
    L: int


def minimal_components(seq, depth, L, *, source="taken", require_depth=True):
    """Sink components of the word-overlap (Rauzy) graph, up to flip.

    Words of length L are nodes; each (L+1)-word contributes the edge
    prefix -> suffix.  Sink strongly connected components approximate
    minimal sublaminations; flipped pairs count once.  The count is checked
    against the 3N-3 bound.
    """
    words = _harvest(seq, depth, L, source, require_depth,
                     budget=200_000, canonical=False)
    longer = _harvest(seq, depth, L + 1, source, require_depth,
                      budget=200_000, canonical=False)
    edges = {}
    for u in longer:
        a, b = u[:L], u[1:]
        if a in words and b in words:
            edges.setdefault(a, []).append(b)
    comps = _tarjan_scc(sorted(words), edges)
    comp_of = {}
    for ci, comp in enumerate(comps):
        for w in comp:
            comp_of[w] = ci
    sinks = []
    for ci, comp in enumerate(comps):
        if all(comp_of[v] == ci for w in comp
               for v in edges.get(w, ())):
            sinks.append(frozenset(comp))
    orbits = set()
    for comp in sinks:
        flipped = frozenset(reverse_path(w) for w in comp)
        key = min(tuple(sorted(comp)), tuple(sorted(flipped)))
        orbits.add(key)
    N = seq.graph_at(seq.levels[-1]).betti()
    bound = 3 * N - 3
    count = len(orbits)
    return MinimalComponentsReport(count=count,
                                   sizes=tuple(sorted(len(c) for c in sinks)),
                                   bound=bound, bound_ok=count <= bound,
                                   depth=depth, L=L)

"""Stretch distances via candidate loops, length/current pairing, and the
slow-progress diagnostics (non-filling support horizons, linear speed).

Candidate enumeration is exact for embedded circles, figure-eights and
barbells; the one-sided distance maximizes the stretch over candidates of
the domain graph.  A brute-force check over short cyclic words is provided
for cross-validation on small graphs.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

from .errors import (BudgetExceededError, DirectionError, GraphStructureError,
                     MalformedPathError)
from .graphs import MarkedGraph, OrientedGraph
from .linalg import frac_log
from .morphisms import GraphMorphism, fold_decompose
from .paths import (canonical_cycle, cyclic_reduced_length, reverse_path,
                    tighten)
from .sequences import orbit, orbit_at


# -- candidates ----------------------------------------------------------


@dataclass(frozen=True)
class CandidateLoop:
    kind: str        # circle | figure-eight | barbell
    path: tuple


def _graph_of(obj):
    return obj.graph if isinstance(obj, MarkedGraph) else obj


def _embedded_circles(g):
    """Vertex-simple cycles as reduced edge paths, up to rotation and
    reversal: the embedded arcs from each vertex back to itself."""
    out = {}
    for v0 in g.vertices:
        for cyc in _arcs_between(g, {v0}, {v0}):
            out.setdefault(canonical_cycle(cyc), cyc)
    return list(out.values())


def _cycle_vertices(g, cyc):
    return [g.init(e) for e in cyc]


def _rotate_to(g, cyc, u):
    verts = _cycle_vertices(g, cyc)
    i = verts.index(u)
    return cyc[i:] + cyc[:i]


def _arcs_between(g, vs1, vs2):
    """Embedded arcs from a vertex of vs1 to a vertex of vs2 whose interior
    avoids both."""
    arcs = []

    def rec(v, path, visited):
        for e in g.out_edges(v):
            if path and e == -path[-1]:
                continue
            w = g.term(e)
            if w in vs2:
                arcs.append(path + (e,))
            elif w not in vs1 and w not in visited:
                rec(w, path + (e,), visited | {w})

    for u in sorted(vs1):
        rec(u, (), frozenset())
    return arcs


def candidates(graph, *, max_betti=5):
    """Candidate loops: embedded circles, figure-eights (circles meeting in
    one vertex, both relative orientations) and barbells (disjoint circles
    joined by an embedded arc, both orientations)."""
    g = _graph_of(graph)
    if g.betti() > max_betti:
        raise BudgetExceededError(
            f"candidate enumeration capped at rank {max_betti}, "
            f"got {g.betti()}")
    circles = _embedded_circles(g)
    seen = {}
    loops = []

    def record(kind, path):
        key = canonical_cycle(path)
        if key not in seen:
            seen[key] = True
            loops.append(CandidateLoop(kind=kind, path=path))

    for c in circles:
        record("circle", c)
    for i in range(len(circles)):
        vi = set(_cycle_vertices(g, circles[i]))
        for j in range(i + 1, len(circles)):
            vj = set(_cycle_vertices(g, circles[j]))
            shared = vi & vj
            if len(shared) == 1:
                u = next(iter(shared))
                w1 = _rotate_to(g, circles[i], u)
                w2 = _rotate_to(g, circles[j], u)
                record("figure-eight", w1 + w2)
                record("figure-eight", w1 + reverse_path(w2))
            elif not shared:
                for arc in _arcs_between(g, vi, vj):
                    u, v = g.init(arc[0]), g.term(arc[-1])
                    w1 = _rotate_to(g, circles[i], u)
                    w2 = _rotate_to(g, circles[j], v)
                    back = reverse_path(arc)
                    record("barbell", w1 + arc + w2 + back)
                    record("barbell", w1 + arc + reverse_path(w2) + back)
    return tuple(loops)


def thickness(marked):
    """Length of the shortest embedded circle."""
    g = marked.graph
    circles = _embedded_circles(g)
    if not circles:
        raise GraphStructureError("graph has no circles")
    return min(marked.length_of_path(c) for c in circles)


# -- stretch distances ---------------------------------------------------


@dataclass(frozen=True)
class LipschitzReport:
    distance: float
    ratio: Fraction
    witness: CandidateLoop
    witness_word: tuple
    per_candidate: tuple      # ((kind, path, ratio), ...)


def lipschitz_distance(T, U):
    """One-sided stretch distance log max l_U(w)/l_T(w), the max taken over
    candidate loops of T (which realize the supremum over all loops)."""
    T.require_positive()
    U.require_positive()
    if T.marking.rank != U.marking.rank:
        raise GraphStructureError("ranks differ")
    best = None
    rows = []
    for cand in candidates(T.graph):
        lt = T.length_of_path(cand.path)
        word = T.marking.word_of_loop(cand.path)
        if not word:
            raise MalformedPathError("candidate has trivial marking image")
        lu = U.translation_length(word)
        ratio = Fraction(lu) / Fraction(lt)
        rows.append((cand.kind, cand.path, ratio))
        if best is None or ratio > best[0]:
            best = (ratio, cand, word)
    ratio, cand, word = best
    return LipschitzReport(distance=frac_log(ratio), ratio=ratio,
                           witness=cand, witness_word=word,
                           per_candidate=tuple(rows))


@dataclass(frozen=True)
class BruteforceReport:
    distance: float
    ratio: Fraction
    witness_word: tuple
    words_checked: int


def _letters(rank):
    return list(range(1, rank + 1)) + list(range(-1, -rank - 1, -1))


def _pair_table(marked, letters):
    """Integer pair weights W[i][j] = length of the letter edge e_i plus the
    tree distance from its end to the start of e_j, all scaled by the least
    common denominator of the edge lengths; returns (W, denominator)."""
    mk = marked.marking
    g = marked.graph
    scale = math.lcm(*(l.denominator for l in marked.lengths))
    edges = [mk.letter_edge(x) for x in letters]
    table = [[int(scale * (marked.length_of_edge(e) + marked.length_of_path(
                  mk.tree_geodesic(g.term(e), g.init(f))))) for f in edges]
             for e in edges]
    return table, scale


def _class_count(rank, max_len):
    """Rotation-and-inversion classes of cyclically reduced words of length
    1..max_len (Burnside; no class is fixed by an inversion)."""
    def phi(n):
        return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)

    total = 0
    for m in range(1, max_len + 1):
        fixed = sum(phi(m // d) * ((2 * rank - 1) ** d
                                   + (rank - 1) * (-1) ** d + rank)
                    for d in range(1, m + 1) if m % d == 0)
        total += fixed // (2 * m)
    return total


def lipschitz_bruteforce(T, U, max_len):
    """Stretch maximum over all cyclically reduced words up to max_len.

    Requires max_len >= 2 * |edges of T| so the search space provably
    contains every candidate word; agrees exactly with
    ``lipschitz_distance`` under that bound.

    The words are walked once, depth first, in the letter order
    1..N, -1..-N.  A cyclically reduced word x_1..x_n has length
    sum_k W[x_k, x_k+1] (indices cyclic) with W[x, y] = l(e_x) + d(end of
    e_x, start of e_y) in the spanning tree: each letter loop is
    tree.e_x.tree, and only the tree parts cancel, down to the tree
    geodesic between consecutive letters.  So each word costs two integer
    additions per graph and one cross-multiplied comparison.

    The ratio depends only on the class of a word under rotation and
    inversion, so the first word in the walk that reaches the strict
    maximum is also the first-walked member of its class: the witness is
    the class representative a per-class enumeration would report.

    ``words_checked`` counts the classes in closed form.  No cyclic word
    is a rotation of its own inverse, so by Burnside the classes of
    length m number (1/2m) sum_{d | m} phi(m/d) tr(B^d), where B is the
    letter-transition matrix of reduced words and
    tr(B^d) = (2N-1)^d + (N-1)(-1)^d + N.
    """
    T.require_positive()
    U.require_positive()
    if T.marking.rank != U.marking.rank:
        raise GraphStructureError("ranks differ")
    if max_len < 2 * T.graph.n_edges:
        raise BudgetExceededError(
            f"need max_len >= {2 * T.graph.n_edges} to cover candidates")
    rank = T.marking.rank
    if (2 * rank - 1) ** max_len > 5_000_000:
        raise BudgetExceededError(
            "brute-force word tree too large at this rank and length")
    letters = _letters(rank)
    wt, t_scale = _pair_table(T, letters)
    wu, u_scale = _pair_table(U, letters)
    n = len(letters)
    inverse = [(i + rank) % n for i in range(n)]
    best_t, best_u, best_word = 1, 0, None
    for first in range(n):
        # rows[x] lists the children y of a word ending in x, with the
        # added weights and the closed sums (None where y would cancel the
        # first letter)
        rows = [[(y, wt[x][y], wu[x][y],
                  None if y == inverse[first] else wt[x][y] + wt[y][first],
                  wu[x][y] + wu[y][first])
                 for y in range(n) if y != inverse[x]] for x in range(n)]
        path = [first]
        if wu[first][first] * best_t > best_u * wt[first][first]:
            best_t, best_u = wt[first][first], wu[first][first]
            best_word = path[:]
        # depth first with an explicit stack of (children left, open sums
        # of ``path``), so the depth never meets the recursion limit; a
        # child y has ``depth`` letters, and one letter short of max_len
        # it scans its own children, the leaves, in place
        stack = [(iter(rows[first]), 0, 0)]
        while stack:
            children, st, su = stack[-1]
            depth = len(path) + 1
            for y, at, au, ct, cu in children:
                if ct is not None and (su + cu) * best_t > best_u * (st + ct):
                    best_t, best_u = st + ct, su + cu
                    best_word = path + [y]
                if depth + 1 < max_len:
                    path.append(y)
                    stack.append((iter(rows[y]), st + at, su + au))
                    break
                if depth < max_len:
                    yt, yu = st + at, su + au
                    for z, _, _, zt, zu in rows[y]:
                        if zt is not None and \
                                (yu + zu) * best_t > best_u * (yt + zt):
                            best_t, best_u = yt + zt, yu + zu
                            best_word = path + [y, z]
            else:
                stack.pop()
                path.pop()
    ratio = Fraction(best_u * t_scale, best_t * u_scale)
    return BruteforceReport(distance=frac_log(ratio), ratio=ratio,
                            witness_word=tuple(letters[i] for i in best_word),
                            words_checked=_class_count(rank, max_len))


# -- pairing -------------------------------------------------------------


def edge_current_of_word(marked, word):
    """Unoriented edge crossings of the cyclic geodesic representing a
    word (zero vector for the trivial class)."""
    loop = marked.geodesic_loop(word)
    counts = [0] * marked.graph.n_edges
    for e in loop:
        counts[abs(e) - 1] += 1
    return tuple(counts)


def kl_pairing(lengths, current):
    """Sum of length(e) * current(e); accepts a marked graph or a raw
    length vector."""
    if isinstance(lengths, MarkedGraph):
        lengths = lengths.lengths
    if len(lengths) != len(current):
        raise GraphStructureError("pairing dimensions differ")
    return sum((Fraction(l) * Fraction(c)
                for l, c in zip(lengths, current)), Fraction(0))


# -- non-filling support horizons ---------------------------------------


def _apply_support(step, support):
    table = step.edge_supports()
    out = set()
    for name in support:
        out |= table[name]
    return frozenset(out)


def fills(seq, level, support):
    """Least m >= 0 such that pushing the support forward m steps covers
    every edge, or None if it stays proper through the final level.

    Full support is absorbing: change-of-marking steps are surjective on
    edges, so once everything is covered it stays covered.  Across a run
    the support follows its ``orbit``, kept per run and starting support,
    so the cost does not grow with the run length.
    """
    i = seq._internal(level)
    g = seq.graph_at(level)
    support = frozenset(support)
    for name in support:
        g.edge_index(name)
    offset = 0
    for (start, length, step), k in seq._runs_between(i, seq.n_steps):
        key = (start, support)
        if key not in seq._fill_memo:
            trail, cycle = orbit(partial(_apply_support, step), support,
                                 length)
            full = frozenset(step.domain.edge_ids)
            seq._fill_memo[key] = (
                trail.index(full) if full in trail else None, trail, cycle)
        hit, trail, cycle = seq._fill_memo[key]
        if hit is not None and hit <= k:
            return offset + hit
        support = orbit_at(trail, cycle, k)
        offset += k
    return None


@dataclass(frozen=True)
class NonFillingWitness:
    edge: str
    horizon: int
    survives: bool     # proper all the way to the final level


def non_filling_witness(seq, level):
    """Single-edge support at ``level`` whose pushforward stays proper the
    longest; horizon counts the steps it remains proper."""
    g = seq.graph_at(level)
    remaining = seq.n_steps - seq._internal(level)
    best = None
    for name in g.edge_ids:
        hit = fills(seq, level, (name,))
        if hit is None:
            horizon, survives = remaining, True
        else:
            horizon, survives = hit - 1, False
        if best is None or horizon > best.horizon:
            best = NonFillingWitness(edge=name, horizon=horizon,
                                     survives=survives)
    return best


@dataclass(frozen=True)
class ProgressReport:
    levels: tuple
    horizons: tuple
    survives: tuple
    witnesses: tuple

    def horizon_at(self, level):
        return self.horizons[self.levels.index(level)]


def ff_progress_diagnostic(seq, levels=None):
    """Witness horizons w(n) along a folding sequence.

    Bounded horizons are consistent with definite progress in the factor
    graph; horizons growing without bound across the computed range flag a
    slow (non-linear) trajectory.
    """
    if seq.direction != "folding":
        raise DirectionError("progress diagnostic runs on folding sequences")
    if levels is None:
        levels = list(range(0, seq.n_steps))
    rows = [non_filling_witness(seq, n) for n in levels]
    return ProgressReport(levels=tuple(levels),
                          horizons=tuple(r.horizon for r in rows),
                          survives=tuple(r.survives for r in rows),
                          witnesses=tuple(r.edge for r in rows))


# -- linear speed --------------------------------------------------------


def _edge_images(seq, i, gap):
    """Tight images of the oriented edges of the graph at internal index i
    under the composite of the next ``gap`` steps, by oriented edge."""
    images = [(e,) for e in range(1, seq._step(i).domain.n_edges + 1)]
    for step in map(seq._step, range(i, i + gap)):
        images = [tighten(step.apply_to_path(p)) for p in images]
    table = {}
    for e, p in enumerate(images, start=1):
        table[e] = p
        table[-e] = reverse_path(p)
    return table


@dataclass(frozen=True)
class SpeedReport:
    entry_max: int
    entries_grow: bool
    samples: tuple         # (level_from, level_to, distance)
    speed: float


_SAMPLE_GAPS = (1, 2, 4, 8, 16)
_PAIRS_PER_GAP = 4


def linearity_and_speed(seq):
    """Bounded step entries + sampled distances between levels.

    The distance between levels uses the unit-length volume-normalized
    graphs with the marking transported through the sequence; the speed is
    the max of distance/(gap+1) over the samples, so every sampled pair
    satisfies d <= speed * (gap + 1).

    A candidate loop's transported length is that of the cyclically
    reduced image of the loop under the composite F of the gap's steps.
    A path has one tight form rel its endpoints, so tightening between
    steps changes nothing: tighten(f(tighten(p))) = tighten(f(p)).  Hence
    tighten(F(e_1 ... e_k)) is the tight concatenation of the tight edge
    images tighten(F(e_j)), which are built once per sample for the E
    edges, and since each image is already tight, that concatenation only
    cancels at the junctions between images and at the seam
    (``cyclic_reduced_length``).  The lengths, and so the report, are
    those of carrying each loop step by step.

    The step entries are read once per run of one step object; entry i
    (internal index) lies in the first half when i < n_steps // 2.
    """
    half = seq.n_steps // 2
    early = late = 0
    for start, length, step in seq.step_runs:
        top = max(max(row) for row in step.incidence_matrix())
        if start < half:
            early = max(early, top)
        if start + length > half:
            late = max(late, top)
    entries_grow = half >= 1 and late > early
    levels = seq.levels
    samples = []
    speed = 0.0
    for gap in _SAMPLE_GAPS:
        if gap > seq.n_steps:
            continue
        froms = [levels[k] for k in sorted(
            {round(j * (seq.n_steps - gap) / (_PAIRS_PER_GAP - 1))
             for j in range(_PAIRS_PER_GAP)})]
        for lf in froms:
            g_from = seq.graph_at(lf)
            g_to = seq.graph_at(lf + gap)
            images = _edge_images(seq, seq._internal(lf), gap)
            d_best = None
            for cand in candidates(g_from):
                n = cyclic_reduced_length([images[e] for e in cand.path])
                if not n:
                    raise MalformedPathError(
                        "essential loop collapsed in transport")
                ratio = (Fraction(n, g_to.n_edges)
                         / Fraction(len(cand.path), g_from.n_edges))
                if d_best is None or ratio > d_best:
                    d_best = ratio
            d = frac_log(d_best)
            samples.append((lf, lf + gap, d))
            speed = max(speed, d / (gap + 1))
    return SpeedReport(entry_max=max(early, late), entries_grow=entries_grow,
                       samples=tuple(samples), speed=speed)


# -- free-factor supports ------------------------------------------------


def _core(edges):
    """Trim valence-1 vertices repeatedly."""
    edges = list(edges)
    while True:
        degree = {}
        for (u, v, _) in edges:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        drop = {x for x, d in degree.items() if d == 1}
        if not drop:
            return edges
        edges = [(u, v, l) for (u, v, l) in edges
                 if u not in drop and v not in drop]


def _canonical_immersion(edges):
    """Canonical string for a folded core: minimum over BFS numberings
    started at each vertex."""
    if not edges:
        return "trivial"
    adj = {}
    for (u, v, l) in edges:
        adj.setdefault(u, []).append((l, v))
        adj.setdefault(v, []).append((-l, u))
    best = None
    for start in adj:
        number = {start: 0}
        order = [start]
        i = 0
        while i < len(order):
            x = order[i]
            i += 1
            for (l, y) in sorted(adj[x]):
                if y not in number:
                    number[y] = len(number)
                    order.append(y)
        rows = sorted((number[u], l, number[v]) for (u, v, l) in edges)
        s = ";".join(f"{a},{l},{b}" for (a, l, b) in rows)
        if best is None or s < best:
            best = s
    return best


@lru_cache(maxsize=None)
def _rose(rank):
    """The rank-N rose with edges named 1..N, shared by every core."""
    return OrientedGraph(["*"], [(str(x), "*", "*")
                                 for x in range(1, rank + 1)], _relaxed=True)


def _subgroup_core(words):
    """Folded core of the subgroup generated by the words, as a canonical
    string (conjugacy-class invariant).

    The words are spelled as loops at one base vertex, mapped letter by
    letter onto the rose, and Stallings-folded with ``fold_decompose``."""
    vertices = ["0"]
    edges = []
    images = {}
    for word in words:
        prev = "0"
        for k, letter in enumerate(word):
            if k == len(word) - 1:
                nxt = "0"
            else:
                nxt = str(len(vertices))
                vertices.append(nxt)
            eid = str(len(edges))
            edges.append((eid, prev, nxt) if letter > 0 else (eid, nxt, prev))
            images[eid] = (abs(letter),)
            prev = nxt
    if not edges:
        return "trivial"
    rank = max(abs(x) for word in words for x in word)
    word_graph = OrientedGraph(vertices, edges, _relaxed=True)
    folded = fold_decompose(GraphMorphism(
        word_graph, _rose(rank), {v: "*" for v in vertices}, images)).terminal
    g = folded.domain
    return _canonical_immersion(_core(
        (g.init(e), g.term(e), folded.edge_image(e)[0])
        for e in range(1, g.n_edges + 1)))


@dataclass(frozen=True)
class FactorReport:
    count: int
    factors: tuple            # canonical core strings, sorted
    by_subgraph: dict         # frozenset(edge names) -> core string


def factor_projection(marked, *, max_rank=6):
    """Distinct proper free factors carried by connected subgraphs.

    Each proper connected subgraph of positive rank determines a conjugacy
    class of free factors; the class is identified by the canonical folded
    core of a basis read through the marking.
    """
    g = marked.graph
    if g.betti() > max_rank:
        raise BudgetExceededError(
            f"subgraph enumeration capped at rank {max_rank}")
    names = list(g.edge_ids)
    by_subgraph = {}
    for mask in range(1, (1 << len(names)) - 1):
        subset = frozenset(names[j] for j in range(len(names))
                           if mask >> j & 1)
        verts = g.subgraph_vertices(subset)
        tree = g._tree_paths(min(verts), subset)
        # connected, and of positive rank
        if len(tree) == len(verts) and len(subset) >= len(verts):
            by_subgraph[subset] = _subgroup_core(
                _subgraph_basis_words(marked, subset, tree))
    factors = tuple(sorted(set(by_subgraph.values())))
    return FactorReport(count=len(factors), factors=factors,
                        by_subgraph=by_subgraph)


def _subgraph_basis_words(marked, subset, tree):
    """Basis loops of a connected subgraph at its root, read as words via
    the ambient marking.  ``tree`` maps each vertex to its path from the
    root in a spanning tree of the subgraph; each edge off the tree closes
    one loop.  The loops are read as based words, so that together they
    generate the subgroup itself, not generators conjugated one by one."""
    g = marked.graph
    tree_edges = {abs(p[-1]) for p in tree.values() if p}
    words = []
    for name in sorted(subset):
        j = g.edge_index(name)
        if j not in tree_edges:
            words.append(marked.marking.word_of_path(
                tree[g.init(j)] + (j,) + reverse_path(tree[g.term(j)])))
    return words

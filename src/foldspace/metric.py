"""Stretch distances via candidate loops, length/current pairing, and the
slow-progress diagnostics (non-filling support horizons, linear speed).

Candidate enumeration is exact for embedded circles, figure-eights and
barbells; the one-sided distance maximizes the stretch over candidates of
the domain graph.  A brute-force check over short cyclic words is provided
for cross-validation on small graphs.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .errors import (BudgetExceededError, DirectionError, GraphStructureError,
                     MalformedPathError)
from .graphs import MarkedGraph
from .linalg import frac_log
from . import morphisms
from .paths import _cyclic_core, _join_reduced, canonical_cycle, reverse_path
from .sequences import _level_count, orbit, orbit_at

# the largest ranks ``candidates`` and ``factor_projection`` enumerate
MAX_CANDIDATE_RANK = 5
MAX_FACTOR_RANK = 6
# A progress report of this many levels on the 10^6-step Fibonacci folding
# chain takes about 3.6 s and writes about 19 MB (whole process, 2-vCPU
# host); a longer one is refused (exit code 3) before any level is read.
MAX_LEVELS = 400_000


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


def candidates(graph):
    """Candidate loops: embedded circles, figure-eights (circles meeting in
    one vertex, both relative orientations) and barbells (disjoint circles
    joined by an embedded arc, both orientations)."""
    g = _graph_of(graph)
    if g.betti() > MAX_CANDIDATE_RANK:
        raise BudgetExceededError(
            f"candidate enumeration capped at rank {MAX_CANDIDATE_RANK}, "
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
    # the base is at least 3 and 3^15 > 5 * 10^6, so capping the exponent
    # at 15 keeps the verdict without forming a power of max_len digits
    if (2 * rank - 1) ** min(max_len, 15) > 5_000_000:
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


def _fill_orbit(seq, r, support):
    """``(hit, trail, cycle)``: the support's ``orbit`` across run r and
    the first index on it of full support (None when there is none), kept
    per run and support.  The starting support is read on the run's
    domain, and every later state on its codomain."""
    key = (r, support)
    if key not in seq._fill_memo:
        _, length, step = seq.step_runs[r]
        trail, cycle = orbit(partial(_apply_support, step), support, length)
        full = (frozenset(step.domain.edge_ids),
                frozenset(step.codomain.edge_ids))
        hit = next((j for j, state in enumerate(trail)
                    if state == full[j > 0]), None)
        seq._fill_memo[key] = (hit, trail, cycle)
    return seq._fill_memo[key]


def _fill_rest(seq, r, support):
    """Steps from the start of run r until the support fills, or None when
    it stays proper through the final level.  Kept per run and support:
    the walk stops at the first run whose answer is known, and the runs it
    crossed are filled in backwards."""
    memo, runs = seq._fill_rest, seq.step_runs
    crossed = []
    while r < len(runs) and (r, support) not in memo:
        hit, trail, cycle = _fill_orbit(seq, r, support)
        if hit is not None:
            memo[r, support] = hit
            break
        crossed.append((r, support))
        support = orbit_at(trail, cycle, runs[r][1])
        r += 1
    rest = memo.get((r, support))       # None past the last run
    for r, support in reversed(crossed):
        rest = memo[r, support] = None if rest is None \
            else runs[r][1] + rest
    return rest


def fills(seq, level, support):
    """Least m >= 0 such that pushing the support forward m steps covers
    every edge of the graph at level + m, or None if it stays proper
    through the final level.  At the final level itself no step is left,
    and the answer is None whatever the support.

    Full support is absorbing: change-of-marking steps are surjective on
    edges, so once everything is covered it stays covered.  Across a run
    the support follows its ``orbit``, and the rest of the chain from a
    run's start is kept per run and support, so over every level and edge
    of a report the cost is O(levels x edges + runs x supports).
    """
    i = seq._internal(level)
    g = seq.graph_at(level)
    support = frozenset(support)
    for name in support:
        g.edge_index(name)
    if i == seq.n_steps:
        return None
    r = bisect_right(seq._run_starts, i) - 1
    start, length, _ = seq.step_runs[r]
    k = start + length - i          # steps of run r from this level on
    hit, trail, cycle = _fill_orbit(seq, r, support)
    if hit is not None and hit <= k:
        return hit
    rest = _fill_rest(seq, r + 1, orbit_at(trail, cycle, k))
    return None if rest is None else k + rest


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
        levels = range(seq.n_steps)
    n = _level_count(levels)
    if n > MAX_LEVELS:
        raise BudgetExceededError(
            f"a progress report of {n} levels is past the limit "
            f"of {MAX_LEVELS} levels (metric.MAX_LEVELS)")
    rows = [non_filling_witness(seq, n) for n in levels]
    return ProgressReport(levels=tuple(levels),
                          horizons=tuple(r.horizon for r in rows),
                          survives=tuple(r.survives for r in rows),
                          witnesses=tuple(r.edge for r in rows))


# -- linear speed --------------------------------------------------------


def _edge_images(seq, i, gap):
    """Tight images of the oriented edges of the graph at internal index i
    under the composite of the next ``gap`` steps, by oriented edge.

    Built right to left from the identity on the far graph: the image of
    an edge under a step f followed by a composite F is the tight join of
    the F-images of the letters of f(e), so each step joins whole table
    entries.  Only positive edges are kept between steps; a reversed entry
    is formed when a step image first reads it."""
    table = [(e,) for e in
             range(1, seq._step(i + gap - 1).codomain.n_edges + 1)]
    for step in map(seq._step, range(i + gap - 1, i - 1, -1)):
        rev = {}

        def piece(x):
            if x > 0:
                return table[x - 1]
            if x not in rev:
                rev[x] = reverse_path(table[-x - 1])
            return rev[x]

        table = [_join_reduced(map(piece, step.edge_image(e)))
                 for e in range(1, step.domain.n_edges + 1)]
    images = {}
    for e, p in enumerate(table, start=1):
        images[e] = p
        images[-e] = reverse_path(p)
    return images


@dataclass(frozen=True)
class SpeedReport:
    entry_max: int
    entries_grow: bool
    samples: tuple         # (level_from, level_to, distance)
    speed: float


_SAMPLE_GAPS = (1, 2, 4, 8, 16)
_PAIRS_PER_GAP = 4


def _first_max_ratio(pairs):
    """The first pair (n, k) of positive ints with the largest n / k,
    compared by cross-multiplying."""
    best = None
    for n, k in pairs:
        if best is None or n * best[1] > best[0] * k:
            best = (n, k)
    return best


def _sample_starts(n, gap):
    """The internal levels where the samples of ``gap`` steps start on a
    chain of n steps: ``_PAIRS_PER_GAP`` of them, evenly spaced over
    0 .. n - gap, each rounded to the nearest int by integer arithmetic,
    since a float quotient loses the last digits past 2^53 steps.  The
    divisor d is odd, so no quotient is a half, and the rounding is that
    of ``round``."""
    d = _PAIRS_PER_GAP - 1
    return sorted({(2 * j * (n - gap) + d) // (2 * d)
                   for j in range(_PAIRS_PER_GAP)})


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
    cancels at the junctions between images (``paths._join_reduced``) and
    then at the seam (``paths._cyclic_core``).  The same join builds the
    edge images, right to left: F = G f with f the gap's first step, so
    tighten(F(e)) is the tight join of the G-images of the letters of
    f(e), starting from the identity on the far graph (``_edge_images``);
    each step joins whole table entries and pays only for the letters
    cancelled at their junctions.  The lengths, and so the report, are
    those of carrying each loop step by step.

    A sample's distance is the log of the largest ratio
    (n / E_to) / (k / E_from) over the candidates, k the loop's edges and
    n its image's, E the graphs' edge counts.  The E are the same for
    every candidate, so the best is chosen on n / k by cross-multiplying
    (``_first_max_ratio``), and one Fraction is formed per sample.

    Each graph's candidate loops are enumerated once per call, however
    many samples start on it.  The step entries are read once per run of
    one step object; entry i (internal index) lies in the first half when
    i < n_steps // 2.
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
    loops = {}              # id of a graph -> its candidate loops
    for gap in _SAMPLE_GAPS:
        if gap > seq.n_steps:
            continue
        froms = [levels[k] for k in _sample_starts(seq.n_steps, gap)]
        for lf in froms:
            g_from = seq.graph_at(lf)
            g_to = seq.graph_at(lf + gap)
            images = _edge_images(seq, seq._internal(lf), gap)
            if id(g_from) not in loops:
                loops[id(g_from)] = candidates(g_from)
            stretches = []      # (image length, loop length) per loop
            for cand in loops[id(g_from)]:
                n = len(_cyclic_core(_join_reduced(
                    [images[e] for e in cand.path])))
                if not n:
                    raise MalformedPathError(
                        "essential loop collapsed in transport")
                stretches.append((n, len(cand.path)))
            n, k = _first_max_ratio(stretches)
            d = frac_log(Fraction(n * g_from.n_edges, k * g_to.n_edges))
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


def _subgroup_core(words):
    """Folded core of the subgroup generated by the words, as a canonical
    string (conjugacy-class invariant).

    Each nonempty word is spelled as a loop at vertex 0, one segment per
    letter onto the rose, and the segments are Stallings-folded with
    ``morphisms._fold``; each kept segment is read in the orientation
    whose letter is positive."""
    n, init, term, image = morphisms._spell(
        1, ((0, 0, word) for word in words if word))
    if not image:
        return "trivial"
    root, dropped, _ = morphisms._fold(n, init, term, image, range(n),
                                       morphisms.MAX_FOLDS)
    edges = []
    for j, (a, b, x) in enumerate(zip(init, term, image), 1):
        if j not in dropped:
            a, b = root[a], root[b]
            edges.append((a, b, x) if x > 0 else (b, a, -x))
    return _canonical_immersion(_core(edges))


@dataclass(frozen=True)
class FactorReport:
    count: int
    factors: tuple            # canonical core strings, sorted
    by_subgraph: dict         # frozenset(edge names) -> core string


def factor_projection(marked):
    """Distinct proper free factors carried by connected subgraphs.

    Each proper connected subgraph of positive rank determines a conjugacy
    class of free factors; the class is identified by the canonical folded
    core of a basis read through the marking.  Every edge subset is tried,
    so a graph of more than 3N - 3 edges, N = ``MAX_FACTOR_RANK``, is
    refused: no core graph of rank at most N has that many."""
    g = marked.graph
    if g.betti() > MAX_FACTOR_RANK:
        raise BudgetExceededError(
            f"subgraph enumeration capped at rank {MAX_FACTOR_RANK}")
    if g.n_edges > 3 * MAX_FACTOR_RANK - 3:
        raise BudgetExceededError(
            f"subgraph enumeration capped at {3 * MAX_FACTOR_RANK - 3} "
            f"edges, got {g.n_edges}")
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

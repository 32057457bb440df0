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
its maximal strings (its distinct length-M windows, or the whole image when
it is shorter) and its first and last M-1 edges, and a level adds only the
windows crossing the junctions of its step images.  A ``lamination`` job
walks the chain once (``_language``), at M = L + 1, recording the depth and
the half depth it compares: the words of a shorter length are the prefixes
and suffixes of the next longer ones plus the maximal strings of exactly
that length, and the paths enumerated for M serve every shorter length (see
``_harvest_paths``).  Each public function walks once too.  A walk costs
O(depth * edges * M^2) plus the unions of the string sets (at most |B_M|
strings an edge), and the shorter lengths cost O(sum of |B_l| * l), not the
image length: on the 40-step Fibonacci chain, ``lamination --depth 33
--length 200`` runs in about 1 s, where a walk per (depth, length) took
about 25 s (2 vCPUs, Python 3.11).  Cylinder weights count occurrences by
the same recursion, so no analysis expands a composite image.  The 10M-edge
expansion budget still bounds the harvest depth (a ``BudgetExceededError``,
exit code 3).
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import log
from operator import mul

from .errors import (BudgetExceededError, DirectionError, FoldspaceError,
                     FormatError, InvalidTrackError, MalformedPathError,
                     ShallowDepthError)
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

    A length-l window of a path image that meets the images of its edges
    k..m spans at most l-2 edges of the images strictly between, so it lies
    in the image of the subpath k..m, which is enumerated for l.  The
    enumeration is prefix-closed and reaches further for a larger L, so the
    paths for L hold those for every l <= L and have the same l-windows:
    one path set serves every length up to L."""
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
_BUDGET = 200_000      # harvest paths at one (depth, L)


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


def _allowed_turns(seq, level, source):
    if source == "taken":
        return seq.taken_turns_at(level)
    if source == "legal":
        return gates(seq, level).legal_turns
    raise ValueError(f"unknown harvesting source {source!r}")


def _checked_paths(seq, depth, L, source, require_depth, budget):
    """The harvest paths at (depth, L), after the checks of a harvest there,
    in order: direction, depth range, L, image length, path budget and
    expansion budget."""
    if seq.direction != "unfolding":
        raise DirectionError("language harvesting needs an unfolding "
                             "sequence")
    if depth < 1 or depth > seq.n_steps:
        raise ShallowDepthError(
            f"depth {depth} outside the stored range 1..{seq.n_steps}")
    if L < 1:
        raise FormatError(f"window length L must be at least 1, got {L}")
    level = -depth
    lengths = seq.image_lengths(level)
    if require_depth and max(lengths) < L:
        raise ShallowDepthError(
            f"longest composite image at depth {depth} has {max(lengths)} "
            f"edges < window length {L}; deepen the truncation")
    allowed = _allowed_turns(seq, level, source)
    paths = _harvest_paths(seq.graph_at(level), allowed, lengths, L, budget)
    _check_expansion_budget(lengths, paths)
    return paths


def _junctions(seq, M, last):
    """The junction recursion down the chain from the right end to the
    step at internal index ``last``.  Per step it yields the step's index,
    a row per positive edge of the domain, and the pieces (see ``_piece``)
    of the domain's oriented edges.  A row is the edge image's joined
    pieces, their gap-free M-windows with multiplicity (every M-window
    that crosses a junction of the image), and the image's gapped letters,
    whose images hold their own windows alone.  Images are never expanded.
    """
    top = seq.graph_at(seq.levels[-1])
    pieces = {e: _piece((e,), M) for e in top.oriented_edges()}
    for i in range(seq.n_steps - 1, last - 1, -1):
        f = seq._step(i)
        up, pieces, rows = pieces, {}, []
        for e in range(1, f.domain.n_edges + 1):
            image = f.edge_image(e)
            joined, windows = _gap_free_windows([up[x] for x in image], M)
            rows.append((joined, windows,
                         [x for x in image if _GAP in up[x]]))
            pieces[e] = _piece(joined, M)
            pieces[-e] = reverse_path(pieces[e])
        yield i, rows, pieces


def _walk(seq, levels, M):
    """The maximal strings and the pieces of every edge image at each of
    the levels, folded from ``_junctions``.

    The maximal strings of an image are its distinct length-M windows, or
    the whole image when it is shorter than M; every shorter window lies in
    one of them.  An image's maximal strings are the gap-free M-windows of
    its letters' joined pieces plus the maximal strings of its gapped
    letters, or the joined image when it is shorter than M.  Strings are
    kept for positive edges, pieces for both orientations.
    """
    stops = {seq._internal(level): level for level in levels}
    top = seq.graph_at(seq.levels[-1])
    strings = {e: {(e,)} for e in range(1, top.n_edges + 1)}
    tables = {}
    for i, rows, pieces in _junctions(seq, M, min(stops)):
        up, strings = strings, {}
        for e, (joined, windows, gapped) in enumerate(rows, 1):
            if len(joined) < M:
                strings[e] = {joined}
            else:
                strings[e] = set(windows).union(
                    *(_oriented(up, x) for x in gapped))
        if i in stops:
            tables[stops[i]] = strings, pieces
    return tables


def _oriented(strings, e):
    """The maximal strings of an oriented edge's image."""
    if e > 0:
        return strings[e]
    return {reverse_path(u) for u in strings[-e]}


def _by_length(paths, strings, pieces, k):
    """Yield ``(l, words)`` for l = k down to 1: the length-l windows of
    the composite images of the paths, from a level's tables of ``_walk``
    for any M >= k.

    The k-windows of an edge image are the k-prefixes of its maximal
    strings and the gap-free k-windows of its piece, which hold those that
    start in its last M-1 edges; an image shorter than k is its own prefix.
    A path adds the gap-free k-windows of its joined pieces, which hold
    every window crossing a junction, or its joined image when that is
    shorter than k.  A length-l window is then a prefix or a suffix of a
    length-(l+1) one, or else one of these strings itself."""
    found = set()
    for e in {x for p in paths for x in p}:
        found.update(u[:k] for u in _oriented(strings, e))
        found.update(_gap_free_windows([pieces[e]], k)[1])
    for p in paths:
        if len(p) > 1:
            joined, windows = _gap_free_windows([pieces[x] for x in p], k)
            found.update(windows if len(joined) >= k else (joined,))
    exact = {}
    for u in found:
        exact.setdefault(len(u), []).append(u)
    words = set()
    for l in range(k, 0, -1):
        words = {u[:-1] for u in words}.union([u[1:] for u in words],
                                               exact.get(l, ()))
        yield l, words


def _flip_count(words):
    """Classes up to flip of a word set closed under reversal, as the path
    sets and their windows are: pairs, and the words that are their own
    reverse, which backtrack at their middle."""
    own = sum(1 for w in words if w[len(w) // 2 - 1] == -w[len(w) // 2]
              and w == reverse_path(w))
    return (len(words) + own) // 2


def _language(seq, depth, L, source="taken", require_depth=True,
              budget=_BUDGET, *, depths=None, components=False):
    """The language at (depth, L) and, when asked, its complexity profile
    over ``depths`` (sorted, ``depth`` last) and its minimal components,
    from one walk and one ``_by_length`` pass at ``depth``.

    The checks at (depth, L) run first, then, with ``components``, those at
    (depth, L + 1), whose paths serve every length.  The walk also records
    the half depth (the second deepest), which the scan of
    ``complexity_profile`` compares count by count.  A refused (depth,
    L + 1) harvest raises after that scan, whose deep counts then come from
    the paths for L.  Returns the ``LanguageApprox``, the profile and the
    components report, each None when not asked for.
    """
    half = depths[-2] if depths and len(depths) >= 2 else None
    paths = _checked_paths(seq, depth, L, source, require_depth, budget)
    M, refused = L, None
    if components:
        try:
            paths = _checked_paths(seq, depth, L + 1, source, require_depth,
                                   budget)
            M = L + 1
        except FoldspaceError as exc:
            if half is None:
                raise
            refused = exc
    levels = [-depth]
    if half is not None and 1 <= half <= seq.n_steps:
        levels.append(-half)
    tables = _walk(seq, levels, M)
    by_length = _by_length(paths, *tables[-depth], M)
    longer = next(by_length)[1] if M > L else None
    _, words = next(by_length)
    lang = LanguageApprox(depth=depth, L=L,
                          words=frozenset(map(_flip_canonical, words)),
                          source=source)
    profile = None
    if depths is not None:
        counts = dict(sorted((l, _flip_count(w))
                             for l, w in chain([(L, words)], by_length)))
        stable = True
        if half is not None:
            # each block of lengths reads the paths of its longest
            other = {}
            for l in range(1, L + 1):
                paths = _checked_paths(seq, half, l, source, require_depth,
                                       budget)
                if l not in other:
                    k = min(2 * l, L)
                    try:
                        paths = _harvest_paths(
                            seq.graph_at(-half),
                            _allowed_turns(seq, -half, source),
                            seq.image_lengths(-half), k, budget)
                    except BudgetExceededError:
                        k = l   # past the budget a block has one length
                    other = {m: _flip_count(w)
                             for m, w in _by_length(paths, *tables[-half], k)}
                if other[l] != counts[l]:
                    stable = False
                    break
        series = tuple(log(counts[l]) / l if counts[l] else 0.0
                       for l in range(1, L + 1))
        tail = series[L // 2:]
        profile = ComplexityProfile(
            depths=tuple(depths), L_max=L, counts=counts,
            entropy=series[-1], entropy_series=series,
            subexponential=all(a >= b for a, b in zip(tail, tail[1:])),
            stable=stable)
    if refused is not None:
        raise refused
    comps = _components(seq, depth, L, longer, words) if components else None
    return lang, profile, comps


def allowed_words(seq, depth, L, *, source="taken", require_depth=True,
                  budget=_BUDGET):
    """Length-L words of the right-end graph occurring in depth-m images.

    Windows are collected from composite images of short paths through
    allowed turns; words are stored up to flip (a word and its reverse
    count once).
    """
    return _language(seq, depth, L, source, require_depth, budget)[0]


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
    One walk gives both depths every length (see ``_language``).  Each
    (depth, L) still runs the checks of its own harvest, in the order of a
    scan over L at the deepest depth and then at the second deepest, which
    stops at the first count that differs; that scan derives its counts in
    blocks of lengths that double, so a scan that stops early derives no
    long words (a large language at a shallow depth can have many).
    """
    if L_max < 1:
        raise FormatError(f"L_max must be at least 1, got {L_max}")
    depths = sorted(set(depths))
    if not depths:
        raise ValueError("no depths supplied")
    for L in range(1, L_max):
        _checked_paths(seq, depths[-1], L, source, require_depth, _BUDGET)
    return _language(seq, depths[-1], L_max, source, require_depth, _BUDGET,
                     depths=depths)[1]


# -- cylinder weights ----------------------------------------------------


def _hits(seq, level, gamma):
    """Occurrences of gamma plus those of its reverse in the composite image
    of each edge of the level, folded from ``_junctions``: the windows of
    its joined pieces plus the hits of its gapped letters.  An edge and its
    reverse have equal hits.  The sequence keeps the word's tables of every
    level, so a sweep over the levels costs one walk."""
    key = _flip_canonical(gamma)
    if key not in seq._hit_tables:
        rev = reverse_path(gamma)
        top = seq.graph_at(seq.levels[-1])
        tables = [[((e,) == gamma) + ((e,) == rev)
                   for e in range(1, top.n_edges + 1)]]
        for _, rows, _ in _junctions(seq, len(gamma), 0):
            up = tables[-1]
            tables.append([sum(up[abs(x) - 1] for x in gapped)
                           + windows.count(gamma) + windows.count(rev)
                           for _, windows, gapped in rows])
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
    return Fraction(sum(map(mul, mu, _hits(seq, level, gamma))))


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
    comps = []
    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(edges.get(root, ())))]
        index[root] = low[root] = len(index)
        cstack.append(root)
        onstack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = len(index)
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
    against the 3N-3 bound.  The checks at L run first; the paths for
    L + 1 serve both lengths (see ``_language``).
    """
    return _language(seq, depth, L, source, require_depth, _BUDGET,
                     components=True)[2]


def _components(seq, depth, L, longer, words):
    """The ``MinimalComponentsReport`` of the words at L + 1 and L."""
    edges = {}
    for u in longer:
        a, b = u[:L], u[1:]
        if a in words and b in words:
            edges.setdefault(a, []).append(b)
    sinks = [c for c in map(frozenset, _tarjan_scc(sorted(words), edges))
             if all(v in c for w in c for v in edges.get(w, ()))]
    count = len({min(tuple(sorted(c)), tuple(sorted(map(reverse_path, c))))
                 for c in sinks})
    bound = 3 * seq.graph_at(seq.levels[-1]).betti() - 3
    return MinimalComponentsReport(count=count,
                                   sizes=tuple(sorted(map(len, sinks))),
                                   bound=bound, bound_ok=count <= bound,
                                   depth=depth, L=L)

"""Moduli normalization, pinched parts, transverse decompositions,
recurrence evidence.

The ideal decomposition criteria are asymptotic; here "liminf > 0" over a window
means the trailing-half minimum clears a threshold relative to the median
statistic, and "summable" means the trailing-half partial sum stays under
10% of the leading half.  Edges that pass for two different measures are
reported undecided, never tie-broken.
"""

from dataclasses import dataclass
from fractions import Fraction
from statistics import median

from .errors import (GraphStructureError, InvalidTrackError, SequenceError)
from .cones import hilbert_distance
from .graphs import OrientedGraph
from .sequences import frequency_current, simplicial_length_measure


@dataclass(frozen=True)
class ModuliWindow:
    """Volume-normalized length vectors along a window, with the edges that
    pinch (trailing quarter below tolerance and nonincreasing)."""
    indices: tuple
    graph: object
    normalized: tuple
    limit: tuple
    pinched_edges: frozenset
    pinch_tol: Fraction


def moduli_window(seq, length_track, indices, pinch_tol=None):
    indices = list(indices)
    if len(indices) < 2:
        raise SequenceError("a moduli window needs at least two indices")
    graphs = [seq.graph_at(n) for n in indices]
    g = graphs[0]
    if any(h != g for h in graphs[1:]):
        raise GraphStructureError(
            "window graphs differ; supply explicit identifications by "
            "re-indexing the sequence")
    if pinch_tol is None:
        pinch_tol = Fraction(1, 1000 * g.n_edges)
    pinch_tol = Fraction(pinch_tol)
    normalized = []
    for n, v in zip(indices, length_track.at_levels(indices)):
        vec = [Fraction(x) for x in v]
        vol = sum(vec)
        if vol == 0:
            raise InvalidTrackError(f"zero volume at level {n}")
        normalized.append(tuple(x / vol for x in vec))
    q = max(2, len(indices) // 4)
    trailing = normalized[-q:]
    pinched = set()
    for j, name in enumerate(g.edge_ids):
        series = [vec[j] for vec in trailing]
        small = all(x < pinch_tol for x in series)
        down = all(a >= b for a, b in zip(series, series[1:]))
        if small and down:
            pinched.add(name)
    return ModuliWindow(indices=tuple(indices), graph=g,
                        normalized=tuple(normalized),
                        limit=normalized[-1],
                        pinched_edges=frozenset(pinched),
                        pinch_tol=pinch_tol)


@dataclass(frozen=True)
class TransverseDecomposition:
    """Edge partition H^0, H^1, ..., H^k plus the window statistics.

    ``parts[0]`` is the remainder; ``undecided`` edges passed criteria for
    two measures (or passed one but failed a tail budget) and are excluded
    from every part.  ``confident`` requires no undecided edges and
    nonempty H^i for i >= 1.
    """
    side: str
    window: tuple
    parts: tuple
    undecided: frozenset
    confident: bool
    statistics: dict
    thresholds: tuple
    ratio_stats: object
    issues: tuple

    @property
    def k(self):
        return len(self.parts) - 1


def _window_graph(seq, window):
    graphs = [seq.graph_at(n) for n in window]
    if any(h != graphs[0] for h in graphs[1:]):
        raise GraphStructureError(
            "window graphs differ; edge statistics need one common graph")
    return graphs[0]


def _tail_ok(series, split):
    lead = sum(series[:split], Fraction(0))
    tail = sum(series[split:], Fraction(0))
    if tail == 0:
        return True
    return tail * 10 < lead


def _decompose(graph, window, stat_tables, eps_rel):
    """Shared assignment logic.

    stat_tables[i][edge_index] = series of exact statistics over the window
    for measure i (1-based measures stored from index 0).
    """
    k = len(stat_tables)
    split = len(window) // 2
    thresholds = []
    for table in stat_tables:
        values = [x for series in table for x in series]
        thresholds.append(Fraction(eps_rel) * median(values))
    assignments = {}
    undecided = set()
    for j, name in enumerate(graph.edge_ids):
        passing = []
        for i in range(k):
            series = stat_tables[i][j]
            trail = series[split:]
            if min(trail) > 0 and min(trail) >= thresholds[i]:
                passing.append(i)
        if len(passing) > 1:
            undecided.add(name)
        elif len(passing) == 1:
            i = passing[0]
            if all(_tail_ok(stat_tables[jj][j], split)
                   for jj in range(k) if jj != i):
                assignments[name] = i + 1
            else:
                undecided.add(name)
        else:
            assignments[name] = 0
    parts = [set() for _ in range(k + 1)]
    for name, label in assignments.items():
        parts[label].add(name)
    confident = not undecided and all(parts[i] for i in range(1, k + 1))
    return (tuple(frozenset(p) for p in parts), frozenset(undecided),
            confident, tuple(thresholds))


_SEPARATION = 1e-8     # least Hilbert distance between two measures


def _check_separation(vectors):
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            d, _ = hilbert_distance(vectors[i], vectors[j])
            if d < _SEPARATION:
                raise InvalidTrackError(
                    f"measures {i} and {j} are homothetic within the "
                    "separation threshold; decomposition is ill-posed")


def _transverse_decomposition(side, seq, tracks, window, eps_rel):
    """Both sides: statistic fixed_n(e) * track^i_n(e) over the window.

    On unfolding sequences the tracks are currents and the simplicial length
    track is fixed; on folding sequences the tracks are length components,
    the frequency current is fixed, and the decay ratios l^j/l^i are kept.
    """
    folding = side == "folding"
    window = list(window)
    if len(window) < 4:
        raise SequenceError("decomposition window too short")
    fixed = frequency_current(seq) if folding \
        else simplicial_length_measure(seq)
    g = _window_graph(seq, window)
    kind = "length" if folding else "current"
    windows = []            # each track's vectors over the window
    for track in tracks:
        if track.kind != kind or track.seq is not seq:
            raise InvalidTrackError(
                f"{'components' if folding else 'currents'} must be "
                f"{kind}-kind tracks on this sequence")
        windows.append(track.at_levels(window))
        if folding and any(all(x == 0 for x in v) for v in windows[-1]):
            raise InvalidTrackError(
                "a length component vanishes identically on the window")
    if len(tracks) > 1:
        _check_separation([w[0] if folding else w[-1] for w in windows])
    fixed_window = fixed.at_levels(window)
    tables = [[[Fraction(f[j]) * Fraction(v[j])
                for f, v in zip(fixed_window, w)] for j in range(g.n_edges)]
              for w in windows]
    parts, undecided, confident, thresholds = _decompose(
        g, window, tables, eps_rel)
    ratios = None
    if folding:
        ratios = {}
        for i, den in enumerate(windows):
            for jj, num in enumerate(windows):
                if i == jj:
                    continue
                for j, name in enumerate(g.edge_ids):
                    ratios[(jj + 1, i + 1, name)] = tuple(
                        Fraction(a[j]) / Fraction(b[j]) if b[j] else None
                        for a, b in zip(num, den))
    stats = {(i + 1, g.edge_ids[j]): tuple(tables[i][j])
             for i in range(len(tables)) for j in range(g.n_edges)}
    issues = _theory_issues(g, parts, undecided, confident)
    return TransverseDecomposition(side=side, window=tuple(window),
                                   parts=parts, undecided=undecided,
                                   confident=confident, statistics=stats,
                                   thresholds=thresholds, ratio_stats=ratios,
                                   issues=issues)


def transverse_decomposition_unfolding(seq, currents, window, *,
                                       eps_rel=Fraction(1, 1000)):
    """Assign edges to currents via the product statistic mu^i_n(e) l_n(e).

    ``currents`` are current-kind tracks on the unfolding sequence; the
    simplicial length track supplies l.  An edge joins H^i when the
    trailing-half minimum of its i-statistic clears the threshold and every
    cross statistic passes the tail budget.
    """
    return _transverse_decomposition("unfolding", seq, currents, window,
                                     eps_rel)


def transverse_decomposition_folding(seq, length_components, window, *,
                                     eps_rel=Fraction(1, 1000)):
    """Folding-side decomposition: statistic mu_n(e) l^i_n(e), plus the
    decay-ratio report l^j/l^i per edge."""
    return _transverse_decomposition("folding", seq, length_components,
                                     window, eps_rel)


def _theory_issues(graph, parts, undecided, confident):
    """Surface violations of the structural corollaries for confident
    verdicts (never silently hidden)."""
    issues = []
    if not confident:
        return tuple(issues)
    for i in range(1, len(parts)):
        if not parts[i]:
            issues.append(f"H^{i} empty in a confident decomposition")
    seen = set()
    for p in parts:
        if seen & p:
            issues.append("parts overlap")
        seen |= p
    return tuple(issues)


# -- collapse ------------------------------------------------------------


@dataclass(frozen=True)
class CollapseResult:
    graph: object
    vertex_map: dict
    edge_labels: dict
    valence_report: dict


def collapse(G, collapse_edges, labels=None):
    """Contract a proper subset of edges; carry decomposition labels.

    Vertices joined by collapsed edges merge (named by their smallest
    member); remaining edges keep their ids.  ``labels`` maps surviving edge
    ids to part indices; the valence report counts, per part and quotient
    vertex, the oriented part-edges at that vertex.
    """
    collapse_edges = set(collapse_edges)
    for name in collapse_edges:
        G.edge_index(name)
    if len(collapse_edges) == G.n_edges:
        raise GraphStructureError("cannot collapse every edge")
    vmap = {v: min(G._reach(v, collapse_edges)) for v in G.vertices}
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


def structural_sanity(decomp, graph, pinched=frozenset()):
    """The testable structural guarantees of a transverse decomposition.

    For confident decompositions: parts are edge-disjoint, each H^i
    (i >= 1) is nonempty, and after collapsing the pinched part every
    vertex of H^i has valence >= 2 within H^i.  Returns a list of
    violation strings (empty = sane).
    """
    violations = list(decomp.issues)
    if not decomp.confident:
        return violations
    labels = {}
    for i, part in enumerate(decomp.parts):
        for name in part:
            if name in labels:
                violations.append(f"edge {name} in two parts")
            labels[name] = i
    pinched = set(pinched) - {n for n, i in labels.items() if i > 0}
    if len(pinched) == graph.n_edges:
        return violations + ["pinched part is everything"]
    result = collapse(graph, pinched, labels)
    for i in range(1, len(decomp.parts)):
        report = result.valence_report.get(i, {})
        for v, val in report.items():
            if val < 2:
                violations.append(
                    f"vertex {v} has valence {val} < 2 in H^{i} "
                    "after collapse")
    return violations


# -- recurrence ----------------------------------------------------------


@dataclass(frozen=True)
class RecurrenceReport:
    kind: str               # recurrent-evidence | pinching-evidence
    window: tuple
    bound: object
    measured_k: object
    consistent: object
    pinched_by_window: tuple


def recurrence_check(seq, length_track, windows, *, verdict_k=None,
                     pinch_tol=None):
    """Look for a window whose pinched part is a forest.

    Success bounds the number of ergodic measures by the rank N; the bound
    is cross-checked against a measured cluster count when supplied.
    """
    per_window = []
    found = None
    for window in windows:
        mw = moduli_window(seq, length_track, window, pinch_tol)
        pinched = mw.pinched_edges
        per_window.append((tuple(window), tuple(sorted(pinched))))
        if found is None:
            betti = mw.graph.subgraph_betti(pinched) if pinched else 0
            if betti == 0:
                found = (tuple(window), mw.graph.betti())
    if found is None:
        return RecurrenceReport(kind="pinching-evidence", window=(),
                                bound=None, measured_k=verdict_k,
                                consistent=None,
                                pinched_by_window=tuple(per_window))
    window, N = found
    consistent = None if verdict_k is None else verdict_k <= N
    return RecurrenceReport(kind="recurrent-evidence", window=window,
                            bound=N, measured_k=verdict_k,
                            consistent=consistent,
                            pinched_by_window=tuple(per_window))

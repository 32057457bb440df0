"""Oracle: the per-length language harvest that ``foldspace.lamination``
replaced with one walk per call.

Every (depth, L) walks the whole chain on its own: ``_windows`` keeps each
edge image's distinct length-L windows, and ``complexity_profile`` harvests
every length at two depths, ``minimal_components`` two lengths.  The tests
compare the three public functions (results, and errors by type and
message) against these, and patch ``_windows`` with the expansion-based
sliding oracle.

``three_call_lamination`` is the ``lamination`` subcommand as it was before
one driver served it: three public calls, each walking the chain.
"""

from math import log

from foldspace.errors import DirectionError, FormatError, ShallowDepthError
from foldspace.lamination import (ComplexityProfile, LanguageApprox,
                                  MinimalComponentsReport,
                                  _check_expansion_budget, _flip_canonical,
                                  _gap_free_windows, _harvest_paths, _piece,
                                  _tarjan_scc, gates)
from foldspace.paths import reverse_path


def _windows(seq, level, paths, L, *, canonical=True):
    """Length-L windows of the composite images of the paths, by junction
    recursion down the chain from the right end."""
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
    words = _harvest(seq, depth, L, source, require_depth, budget,
                     canonical=True)
    return LanguageApprox(depth=depth, L=L, words=frozenset(words),
                          source=source)


def complexity_profile(seq, depths, L_max, *, source="taken",
                       require_depth=True):
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


def minimal_components(seq, depth, L, *, source="taken", require_depth=True):
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


def three_call_lamination(lib, seq, depth, L, source):
    """The ``lamination`` report and CSV data from ``lib``'s
    ``allowed_words``, ``complexity_profile`` and ``minimal_components``,
    called in that order (``lib`` is ``foldspace.lamination`` or this
    module)."""
    lang = lib.allowed_words(seq, depth, L, source=source)
    g0 = seq.graph_at(seq.levels[-1])
    depths = sorted({max(1, depth // 4), max(1, depth // 2), depth})
    profile = lib.complexity_profile(seq, depths, L, source=source)
    comps = lib.minimal_components(seq, depth, L, source=source)
    report = {
        "depth": depth,
        "L": L,
        "count": lang.count,
        "words": sorted(" ".join(g0.tokens(w)) for w in lang.words),
        "complexity": profile,
        "minimal_components": comps,
    }
    rows = [(L, profile.counts[L]) for L in sorted(profile.counts)]
    return report, (("L", "count"), rows)

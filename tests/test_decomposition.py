"""Moduli windows, transverse decompositions, collapse, and recurrence
evidence."""

import statistics
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldspace.decomposition import (
    CollapseResult,
    ModuliWindow,
    TransverseDecomposition,
    _decompose,
    _median,
    _tail_ok,
    _window_graph,
    collapse,
    moduli_window,
    recurrence_check,
    structural_sanity,
    transverse_decomposition_folding,
    transverse_decomposition_unfolding,
)
from foldspace.errors import (
    GraphStructureError,
    InvalidTrackError,
    SequenceError,
)
from foldspace.examples import gen_alternating_block
from foldspace.graphs import rose, theta_graph
from foldspace.morphisms import GraphMorphism
from foldspace.sequences import (
    FoldingSequence,
    current_track_from_initial,
    frequency_current,
    length_track_from_terminal,
    simplicial_length_measure,
)

from conftest import barbell_graph


def fib(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


# -- moduli windows -------------------------------------------------------


class TestModuliWindow:
    def test_fibonacci_shallow_window(self, fib_unfold20):
        lam = simplicial_length_measure(fib_unfold20)
        mw = moduli_window(fib_unfold20, lam, range(-6, 1))
        assert mw.indices == tuple(range(-6, 1))
        assert mw.graph == fib_unfold20.graph_at(0)
        # default tolerance: 1 / (1000 * number of edges)
        assert mw.pinch_tol == Fraction(1, 2000)
        # lambda_{-n} = (F_{n+2}, F_{n+1}), so the normalized vector at
        # level -n is (F_{n+2}/F_{n+3}, F_{n+1}/F_{n+3})
        for pos, n in enumerate(range(6, -1, -1)):
            want = (Fraction(fib(n + 2), fib(n + 3)),
                    Fraction(fib(n + 1), fib(n + 3)))
            assert mw.normalized[pos] == want
        assert mw.limit == mw.normalized[-1] == (Fraction(1, 2),
                                                 Fraction(1, 2))
        for vec in mw.normalized:
            assert sum(vec) == 1
        assert mw.pinched_edges == frozenset()

    def test_window_needs_two_indices(self, fib_unfold20):
        lam = simplicial_length_measure(fib_unfold20)
        with pytest.raises(SequenceError):
            moduli_window(fib_unfold20, lam, [0])

    def test_differing_graphs_rejected(self, rose2):
        theta = theta_graph()
        subdivide = GraphMorphism(
            rose2, theta, {"*": "u"},
            {"a": (1, -2), "b": (1, -3)})
        seq = FoldingSequence([subdivide], direction="unfolding")
        lam = simplicial_length_measure(seq)
        with pytest.raises(GraphStructureError):
            moduli_window(seq, lam, [-1, 0])

    def test_zero_volume_rejected(self, fib_unfold20):
        zero = length_track_from_terminal(fib_unfold20, (0, 0))
        with pytest.raises(InvalidTrackError):
            moduli_window(fib_unfold20, zero, range(-4, 1))

    def test_alternating_deep_window_pinches_inactive_pair(
            self, alt4_unfold_full):
        lam = simplicial_length_measure(alt4_unfold_full)
        # deep inside the final block only c, d are being stretched; listing
        # levels deepest-last makes the a, b coordinates shrink along the
        # window
        window = list(range(-800, -1201, -50))
        mw = moduli_window(alt4_unfold_full, lam, window)
        assert mw.pinched_edges == frozenset({"a", "b"})
        assert mw.graph.subgraph_betti({"a", "b"}) == 2

    def test_alternating_shallow_window_pinches_nothing(
            self, alt4_unfold_full):
        lam = simplicial_length_measure(alt4_unfold_full)
        mw = moduli_window(alt4_unfold_full, lam, range(-6, 1))
        assert mw.pinched_edges == frozenset()

    def test_explicit_tolerance_respected(self, alt4_unfold_full):
        lam = simplicial_length_measure(alt4_unfold_full)
        window = list(range(-800, -1201, -50))
        # an absurdly small tolerance turns the pinch off
        mw = moduli_window(alt4_unfold_full, lam, window,
                           pinch_tol=Fraction(1, 10 ** 400))
        assert mw.pinched_edges == frozenset()


# -- transverse decompositions -------------------------------------------


class TestUnfoldingDecomposition:
    def test_single_current_is_confident(self, fib_unfold20):
        mu = current_track_from_initial(fib_unfold20, (1, 1))
        decomp = transverse_decomposition_unfolding(
            fib_unfold20, [mu], range(-8, 1))
        assert decomp.side == "unfolding"
        assert decomp.k == 1
        assert decomp.parts[0] == frozenset()
        assert decomp.parts[1] == frozenset({"a", "b"})
        assert decomp.undecided == frozenset()
        assert decomp.confident
        assert decomp.issues == ()
        assert decomp.ratio_stats is None
        assert len(decomp.thresholds) == 1
        series = decomp.statistics[(1, "a")]
        assert len(series) == 9
        assert all(x > 0 for x in series)

    def test_two_disjoint_families_split_cleanly(self, alt4_unfold_full):
        n = alt4_unfold_full.graph_at(0).n_edges
        seed_a = [1 if i == 0 else 0 for i in range(n)]
        seed_c = [1 if i == 2 else 0 for i in range(n)]
        mu_a = current_track_from_initial(alt4_unfold_full, seed_a)
        mu_c = current_track_from_initial(alt4_unfold_full, seed_c)
        decomp = transverse_decomposition_unfolding(
            alt4_unfold_full, [mu_a, mu_c], range(-12, 1))
        assert decomp.confident
        assert decomp.k == 2
        assert decomp.parts[0] == frozenset()
        assert decomp.parts[1] == frozenset({"a", "b"})
        assert decomp.parts[2] == frozenset({"c", "d"})
        assert decomp.undecided == frozenset()
        # the c-seeded current never charges a or b
        assert all(x == 0 for x in decomp.statistics[(2, "a")])
        assert all(x == 0 for x in decomp.statistics[(1, "d")])

    def test_rank3_entangled_families_stay_undecided(self, alt3_unfold_full):
        mu_a = current_track_from_initial(alt3_unfold_full, (1, 0, 0))
        mu_c = current_track_from_initial(alt3_unfold_full, (0, 0, 1))
        decomp = transverse_decomposition_unfolding(
            alt3_unfold_full, [mu_a, mu_c], range(-12, 1))
        # the c-family applies both families' letters, so a and b carry
        # weight for both currents and never separate
        assert not decomp.confident
        assert {"a", "b"} <= set(decomp.undecided)

    def test_short_window_rejected(self, fib_unfold20):
        mu = current_track_from_initial(fib_unfold20, (1, 1))
        with pytest.raises(SequenceError):
            transverse_decomposition_unfolding(fib_unfold20, [mu], [-2, 0])

    def test_wrong_kind_rejected(self, fib_unfold20):
        lam = simplicial_length_measure(fib_unfold20)
        with pytest.raises(InvalidTrackError):
            transverse_decomposition_unfolding(
                fib_unfold20, [lam], range(-8, 1))

    def test_foreign_track_rejected(self, fib_unfold20, fib_unfold40):
        mu = current_track_from_initial(fib_unfold40, (1, 1))
        with pytest.raises(InvalidTrackError):
            transverse_decomposition_unfolding(
                fib_unfold20, [mu], range(-8, 1))

    def test_homothetic_currents_rejected(self, alt4_unfold_full):
        mu1 = current_track_from_initial(alt4_unfold_full, (1, 0, 0, 0))
        mu2 = current_track_from_initial(alt4_unfold_full, (2, 0, 0, 0))
        with pytest.raises(InvalidTrackError, match="homothetic"):
            transverse_decomposition_unfolding(
                alt4_unfold_full, [mu1, mu2], range(-8, 1))

    def test_separation_checked_at_the_window_end(self, fib_unfold40):
        # pushed forward, the two currents meet projectively toward level 0
        mu_a = current_track_from_initial(fib_unfold40, (1, 0))
        mu_b = current_track_from_initial(fib_unfold40, (0, 1))
        transverse_decomposition_unfolding(
            fib_unfold40, [mu_a, mu_b], range(-40, -35))
        with pytest.raises(InvalidTrackError, match="homothetic"):
            transverse_decomposition_unfolding(
                fib_unfold40, [mu_a, mu_b], range(-40, 1))

    def test_zero_current_charges_no_edge(self, fib_unfold20):
        # only length components are checked for vanishing
        zero = current_track_from_initial(fib_unfold20, (0, 0))
        decomp = transverse_decomposition_unfolding(
            fib_unfold20, [zero], range(-8, 1))
        assert decomp.parts == (frozenset({"a", "b"}), frozenset())
        assert not decomp.confident


class TestFoldingDecomposition:
    def test_two_length_components_split_cleanly(self, alt4_fold_full):
        lam_a = length_track_from_terminal(alt4_fold_full, (1, 0, 0, 0))
        lam_c = length_track_from_terminal(alt4_fold_full, (0, 0, 1, 0))
        decomp = transverse_decomposition_folding(
            alt4_fold_full, [lam_a, lam_c], range(0, 13))
        assert decomp.side == "folding"
        assert decomp.confident
        assert decomp.parts[1] == frozenset({"a", "b"})
        assert decomp.parts[2] == frozenset({"c", "d"})
        assert decomp.undecided == frozenset()
        # decay ratios: the cross-family component is identically zero on
        # edges of the other family, and undefined (None) the other way
        assert set(decomp.ratio_stats[(2, 1, "a")]) == {Fraction(0)}
        assert all(x is None for x in decomp.ratio_stats[(1, 2, "a")])

    def test_separation_checked_at_the_window_start(self, fib_fold40):
        # pulled back, the two components meet projectively toward level 0
        lam_a = length_track_from_terminal(fib_fold40, (1, 0))
        lam_b = length_track_from_terminal(fib_fold40, (0, 1))
        transverse_decomposition_folding(
            fib_fold40, [lam_a, lam_b], range(36, 41))
        with pytest.raises(InvalidTrackError, match="homothetic"):
            transverse_decomposition_folding(
                fib_fold40, [lam_a, lam_b], range(0, 41))

    def test_vanishing_component_rejected(self, alt4_fold_full):
        zero = length_track_from_terminal(alt4_fold_full, (0, 0, 0, 0))
        with pytest.raises(InvalidTrackError, match="vanishes"):
            transverse_decomposition_folding(
                alt4_fold_full, [zero], range(0, 13))

    def test_short_window_rejected(self, fib_fold15):
        lam = length_track_from_terminal(fib_fold15, (1, 1))
        with pytest.raises(SequenceError):
            transverse_decomposition_folding(fib_fold15, [lam], [0, 1, 2])

    def test_wrong_kind_rejected(self, fib_fold15):
        from foldspace.sequences import frequency_current
        mu = frequency_current(fib_fold15)
        with pytest.raises(InvalidTrackError):
            transverse_decomposition_folding(fib_fold15, [mu], range(0, 8))


_SMALL_BLOCKS = {
    (rank, direction): gen_alternating_block(
        schedule=(3, 3, 3), rank=rank, direction=direction).sequence
    for rank in (3, 4) for direction in ("unfolding", "folding")}


@settings(max_examples=60, deadline=None)
@given(key=st.sampled_from(sorted(_SMALL_BLOCKS)), data=st.data())
def test_built_decompositions_need_no_issue_check(key, data):
    """Each edge gets one label, so the parts never overlap, and a
    confident decomposition has every H^i (i >= 1) nonempty: a built
    decomposition has nothing to report in ``issues``."""
    seq = _SMALL_BLOCKS[key]
    folding = seq.direction == "folding"
    n0 = data.draw(st.integers(seq.levels[0], seq.levels[-1] - 3))
    window = range(n0, data.draw(st.integers(n0 + 3, seq.levels[-1])) + 1)
    g = seq.graph_at(seq.levels[-1] if folding else seq.levels[0])
    seeds = data.draw(st.lists(st.sampled_from(g.edge_ids), min_size=1,
                               max_size=g.n_edges, unique=True))
    eps = data.draw(st.fractions(0, 1))
    track = length_track_from_terminal if folding \
        else current_track_from_initial
    tracks = [track(seq, [int(e == name) for e in g.edge_ids])
              for name in seeds]
    build = transverse_decomposition_folding if folding \
        else transverse_decomposition_unfolding
    try:
        decomp = build(seq, tracks, window, eps_rel=eps)
    except InvalidTrackError:       # homothetic or vanishing tracks
        return
    assert decomp.issues == ()
    labelled = [name for part in decomp.parts for name in part]
    assert sorted(labelled + sorted(decomp.undecided)) == sorted(g.edge_ids)
    if decomp.confident:
        assert all(decomp.parts[1:])


# -- the replaced Fraction code ---------------------------------------------


def old_moduli_window(seq, length_track, indices, pinch_tol=None):
    """``moduli_window`` making every entry a Fraction and dividing it by
    the Fraction volume."""
    indices = list(indices)
    g = _window_graph(seq, indices)
    if pinch_tol is None:
        pinch_tol = Fraction(1, 1000 * g.n_edges)
    pinch_tol = Fraction(pinch_tol)
    normalized = []
    for n, v in zip(indices, length_track.at_levels(indices)):
        vec = [Fraction(x) for x in v]
        vol = sum(vec)
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


def old_tail_ok(series, split):
    lead = sum(series[:split], Fraction(0))
    tail = sum(series[split:], Fraction(0))
    if tail == 0:
        return True
    return tail * 10 < lead


def old_decompose(graph, window, stat_tables, eps_rel):
    """``_decompose`` on Fraction tables, its threshold a Fraction times
    ``statistics.median``."""
    k = len(stat_tables)
    split = len(window) // 2
    thresholds = []
    for table in stat_tables:
        values = [x for series in table for x in series]
        thresholds.append(Fraction(eps_rel) * statistics.median(values))
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
            if all(old_tail_ok(stat_tables[jj][j], split)
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


def old_transverse_decomposition(seq, tracks, window, eps_rel):
    """``_transverse_decomposition`` forming a Fraction for every entry of
    every statistic and ratio (the checks on the tracks left out)."""
    folding = seq.direction == "folding"
    fixed = frequency_current(seq) if folding \
        else simplicial_length_measure(seq)
    window = list(window)
    g = _window_graph(seq, window)
    windows = [track.at_levels(window) for track in tracks]
    fixed_window = fixed.at_levels(window)
    tables = [[[Fraction(f[j]) * Fraction(v[j])
                for f, v in zip(fixed_window, w)] for j in range(g.n_edges)]
              for w in windows]
    parts, undecided, confident, thresholds = old_decompose(
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
    return TransverseDecomposition(
        side=seq.direction, window=tuple(window), parts=parts,
        undecided=undecided, confident=confident, statistics=stats,
        thresholds=thresholds, ratio_stats=ratios, issues=())


_VALUES = st.one_of(st.integers(0, 9), st.integers(0, 10 ** 40))


@settings(max_examples=400, deadline=None)
@given(values=st.lists(_VALUES, min_size=1, max_size=12),
       fractions=st.booleans())
def test_exact_median_matches_statistics_median_on_fractions(values,
                                                             fractions):
    """Odd and even counts, of ints and of Fractions: the value is that
    of ``statistics.median`` on Fractions, and never a float, which
    ``statistics.median`` makes of an even count of ints."""
    if fractions:
        values = [Fraction(x, 1 + x % 7) for x in values]
    got = _median(values)
    assert got == statistics.median(list(map(Fraction, values)))
    assert type(got) in (int, Fraction)
    if len(values) % 2 == 0:
        assert type(got) is Fraction
    else:
        assert type(got) is type(values[0])


def test_statistics_median_floats_an_even_count_of_ints():
    assert type(statistics.median([1, 2])) is float
    assert _median([1, 2]) == Fraction(3, 2)
    assert _median([3, 1, 2]) == 2


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_decompose_on_int_tables_matches_the_fraction_code(data):
    """Parts, undecided edges, confidence and thresholds from int tables
    are the replaced code's on the same tables as Fractions; small values
    make ties with the threshold and zero tails common."""
    n = data.draw(st.integers(2, 4), label="edges")
    k = data.draw(st.integers(1, 3), label="measures")
    width = data.draw(st.integers(4, 9), label="window")
    split = width // 2
    # level series, or large leading halves over small trailing ones,
    # which put the tail budget near its bound
    series = st.one_of(
        st.lists(st.integers(0, 6), min_size=width, max_size=width),
        st.builds(lambda lead, tail: lead + tail,
                  st.lists(st.integers(0, 30), min_size=split,
                           max_size=split),
                  st.lists(st.integers(0, 2), min_size=width - split,
                           max_size=width - split)))
    tables = data.draw(st.lists(st.lists(series, min_size=n, max_size=n),
                                min_size=k, max_size=k), label="tables")
    eps = data.draw(st.sampled_from((Fraction(1, 1000), Fraction(1, 2), 1,
                                     Fraction(3, 2))), label="eps")
    g = rose("abcd"[:n])
    window = tuple(range(width))
    got = _decompose(g, window, tables, eps)
    want = old_decompose(
        g, window, [[list(map(Fraction, x)) for x in t] for t in tables],
        eps)
    assert got == want
    assert all(type(x) is Fraction for x in got[3])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_tail_budget_matches_the_fraction_code(data):
    """Int and Fraction series whose leading half sums to about ten times
    the trailing half, where the budget's strict bound decides."""
    tail = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=5),
                     label="tail")
    total = max(10 * sum(tail) + data.draw(st.integers(-1, 1)), 0)
    cut = data.draw(st.integers(0, total), label="cut")
    lead = data.draw(st.permutations([cut, total - cut, 0]), label="lead")
    series = list(lead) + tail
    if data.draw(st.booleans(), label="Fractions"):
        series = [Fraction(x, 7) for x in series]
    want = old_tail_ok(list(map(Fraction, series)), len(lead))
    assert _tail_ok(series, len(lead)) is want


def _assert_fraction_fields(decomp):
    assert all(type(x) is Fraction
               for series in decomp.statistics.values() for x in series)
    assert all(type(x) is Fraction for x in decomp.thresholds)
    if decomp.ratio_stats is not None:
        assert all(x is None or type(x) is Fraction
                   for series in decomp.ratio_stats.values()
                   for x in series)


_SEED_ENTRIES = st.one_of(st.integers(0, 5),
                          st.fractions(min_value=0, max_value=5,
                                       max_denominator=9))


@settings(max_examples=80, deadline=None)
@given(key=st.sampled_from(sorted(_SMALL_BLOCKS)), data=st.data())
def test_decompositions_match_the_fraction_code(key, data):
    """Int-seeded and Fraction-seeded tracks (all Fractions, even where
    each entry is whole, so the non-int path runs) give the replaced
    code's statistics, thresholds, ratios and parts, as Fractions."""
    seq = _SMALL_BLOCKS[key]
    folding = seq.direction == "folding"
    n0 = data.draw(st.integers(seq.levels[0], seq.levels[-1] - 3))
    window = range(n0, data.draw(st.integers(n0 + 3, seq.levels[-1])) + 1)
    g = seq.graph_at(seq.levels[-1] if folding else seq.levels[0])
    as_fractions = data.draw(st.booleans(), label="Fraction seeds")
    entries = _SEED_ENTRIES if as_fractions else st.integers(0, 5)
    seeds = data.draw(st.lists(
        st.lists(entries, min_size=g.n_edges, max_size=g.n_edges),
        min_size=1, max_size=3), label="seeds")
    if as_fractions:
        seeds = [list(map(Fraction, seed)) for seed in seeds]
    eps = data.draw(st.fractions(0, 1), label="eps")
    track = length_track_from_terminal if folding \
        else current_track_from_initial
    tracks = [track(seq, seed) for seed in seeds]
    build = transverse_decomposition_folding if folding \
        else transverse_decomposition_unfolding
    try:
        decomp = build(seq, tracks, window, eps_rel=eps)
    except InvalidTrackError:       # homothetic or vanishing tracks
        return
    assert decomp == old_transverse_decomposition(seq, tracks, window, eps)
    _assert_fraction_fields(decomp)


@pytest.mark.parametrize("as_fractions", [False, True])
def test_canned_two_seed_decompositions_match_the_fraction_code(
        as_fractions, alt4_unfold_full, alt4_fold_full):
    """The benchmark's two-seed decompositions on the canned rank-4
    blocks, seeded with ints and with the same seeds as Fractions."""
    for seq, window in ((alt4_unfold_full, range(-12, 1)),
                        (alt4_fold_full, range(0, 13))):
        folding = seq.direction == "folding"
        track = length_track_from_terminal if folding \
            else current_track_from_initial
        build = transverse_decomposition_folding if folding \
            else transverse_decomposition_unfolding
        seeds = [(1, 0, 0, 0), (0, 0, 1, 0)]
        if as_fractions:
            seeds = [tuple(map(Fraction, seed)) for seed in seeds]
        tracks = [track(seq, seed) for seed in seeds]
        decomp = build(seq, tracks, window)
        assert decomp.confident
        assert decomp == old_transverse_decomposition(
            seq, tracks, window, Fraction(1, 1000))
        _assert_fraction_fields(decomp)


@settings(max_examples=80, deadline=None)
@given(key=st.sampled_from(sorted(_SMALL_BLOCKS)), data=st.data())
def test_moduli_windows_match_the_fraction_code(key, data):
    """Int and Fraction length tracks: the normalized vectors, their
    limit and the pinched edges are the replaced code's, as Fractions."""
    seq = _SMALL_BLOCKS[key]
    g = seq.graph_at(seq.levels[-1])
    seed = data.draw(st.lists(_SEED_ENTRIES, min_size=g.n_edges,
                              max_size=g.n_edges).filter(any), label="seed")
    if data.draw(st.booleans(), label="int seed"):
        seed = [int(x * 9) for x in seed]
    lam = length_track_from_terminal(seq, seed)
    indices = data.draw(st.lists(st.sampled_from(seq.levels), min_size=2,
                                 max_size=8), label="indices")
    tol = data.draw(st.sampled_from((None, Fraction(1, 3), Fraction(1, 20))),
                    label="pinch_tol")
    mw = moduli_window(seq, lam, indices, tol)
    assert mw == old_moduli_window(seq, lam, indices, tol)
    assert all(type(x) is Fraction for v in mw.normalized for x in v)


def test_deep_moduli_window_matches_the_fraction_code(alt4_unfold_full):
    lam = simplicial_length_measure(alt4_unfold_full)
    window = list(range(-800, -1201, -50))
    mw = moduli_window(alt4_unfold_full, lam, window)
    assert mw == old_moduli_window(alt4_unfold_full, lam, window)
    frac = length_track_from_terminal(alt4_unfold_full, [Fraction(1)] * 4)
    assert moduli_window(alt4_unfold_full, frac, window) == mw


# -- collapse -------------------------------------------------------------


class TestCollapse:
    def test_theta_collapse_one_edge(self):
        theta = theta_graph()
        result = collapse(theta, {"e1"}, labels={"e2": 1, "e3": 2})
        assert sorted(result.graph.vertices) == ["u"]
        assert result.graph.n_edges == 2
        assert result.vertex_map == {"u": "u", "v": "u"}
        assert result.edge_labels == {"e2": 1, "e3": 2}
        # each surviving edge is now a loop: two oriented ends at u
        assert result.valence_report == {1: {"u": 2}, 2: {"u": 2}}

    def test_barbell_collapse_separating_edge(self):
        bb = barbell_graph()
        result = collapse(bb, {"s"}, labels={"p": 1, "q": 1})
        assert sorted(result.graph.vertices) == ["u"]
        assert result.graph.betti() == 2
        assert result.valence_report == {1: {"u": 4}}

    def test_collapsed_edge_labels_dropped(self):
        theta = theta_graph()
        result = collapse(theta, {"e1"}, labels={"e1": 1, "e2": 1})
        assert result.edge_labels == {"e2": 1}
        assert result.valence_report == {1: {"u": 2}}

    def test_collapse_everything_rejected(self, rose2):
        with pytest.raises(GraphStructureError):
            collapse(rose2, {"a", "b"})

    def test_unknown_edge_rejected(self, rose2):
        with pytest.raises(GraphStructureError):
            collapse(rose2, {"zz"})

    def test_collapse_nothing_is_identity_shape(self, rose2):
        result = collapse(rose2, set(), labels={"a": 1})
        assert result.graph == rose2
        assert result.vertex_map == {"*": "*"}


# -- structural sanity ----------------------------------------------------


def _hand_decomp(parts, confident=True, issues=()):
    return TransverseDecomposition(
        side="unfolding", window=(0, 1, 2, 3),
        parts=tuple(frozenset(p) for p in parts),
        undecided=frozenset(), confident=confident, statistics={},
        thresholds=(), ratio_stats=None, issues=tuple(issues))


class TestStructuralSanity:
    def test_confident_rank2_decomposition_is_sane(self, fib_unfold20):
        mu = current_track_from_initial(fib_unfold20, (1, 1))
        decomp = transverse_decomposition_unfolding(
            fib_unfold20, [mu], range(-8, 1))
        assert structural_sanity(decomp, fib_unfold20.graph_at(0)) == []

    def test_confident_rank4_decomposition_is_sane(self, alt4_unfold_full):
        mu_a = current_track_from_initial(
            alt4_unfold_full, [1, 0, 0, 0])
        mu_c = current_track_from_initial(
            alt4_unfold_full, [0, 0, 1, 0])
        decomp = transverse_decomposition_unfolding(
            alt4_unfold_full, [mu_a, mu_c], range(-12, 1))
        assert structural_sanity(
            decomp, alt4_unfold_full.graph_at(0)) == []

    def test_unconfident_decomposition_passes_through_issues(self):
        decomp = _hand_decomp([{"p", "q", "s"}, set()], confident=False,
                              issues=("recorded",))
        assert structural_sanity(decomp, barbell_graph()) == ["recorded"]

    def test_low_valence_part_flagged(self):
        # H^1 = the separating edge alone: both endpoints have valence 1
        decomp = _hand_decomp([{"p", "q"}, {"s"}])
        violations = structural_sanity(decomp, barbell_graph())
        assert len(violations) == 2
        assert all("valence 1 < 2" in v for v in violations)

    def test_overlapping_parts_flagged(self, rose2):
        decomp = _hand_decomp([set(), {"a"}, {"a", "b"}])
        violations = structural_sanity(decomp, rose2)
        assert "edge a in two parts" in violations

    def test_pinching_everything_flagged(self, rose2):
        decomp = _hand_decomp([{"a", "b"}, set()])
        violations = structural_sanity(decomp, rose2, pinched={"a", "b"})
        assert violations == ["pinched part is everything"]

    def test_loop_part_survives_pinching_the_rest(self):
        # collapsing the separating edge turns {p} into a loop: valence 2
        decomp = _hand_decomp([{"q"}, {"p"}])
        assert structural_sanity(decomp, barbell_graph(),
                                 pinched={"s"}) == []


# -- recurrence evidence --------------------------------------------------


class TestRecurrenceCheck:
    def test_fibonacci_shallow_window_is_recurrent_evidence(
            self, fib_unfold20):
        lam = simplicial_length_measure(fib_unfold20)
        report = recurrence_check(fib_unfold20, lam,
                                  [list(range(-6, 1))], verdict_k=1)
        assert report.kind == "recurrent-evidence"
        assert report.window == tuple(range(-6, 1))
        assert report.bound == 2
        assert report.measured_k == 1
        assert report.consistent is True
        assert report.pinched_by_window == ((tuple(range(-6, 1)), ()),)

    def test_alternating_deep_window_alone_is_pinching_evidence(
            self, alt4_unfold_full):
        lam = simplicial_length_measure(alt4_unfold_full)
        deep = list(range(-800, -1201, -50))
        report = recurrence_check(alt4_unfold_full, lam, [deep])
        assert report.kind == "pinching-evidence"
        assert report.window == ()
        assert report.bound is None
        assert report.consistent is None
        assert report.pinched_by_window[0][1] == ("a", "b")

    def test_shallow_window_rescues_deep_window(self, alt4_unfold_full):
        lam = simplicial_length_measure(alt4_unfold_full)
        deep = list(range(-800, -1201, -50))
        shallow = list(range(-6, 1))
        report = recurrence_check(alt4_unfold_full, lam, [deep, shallow],
                                  verdict_k=2)
        assert report.kind == "recurrent-evidence"
        assert report.window == tuple(shallow)
        assert report.bound == 4
        assert report.consistent is True
        assert len(report.pinched_by_window) == 2

    def test_no_verdict_leaves_consistency_open(self, fib_unfold20):
        lam = simplicial_length_measure(fib_unfold20)
        report = recurrence_check(fib_unfold20, lam, [list(range(-6, 1))])
        assert report.kind == "recurrent-evidence"
        assert report.measured_k is None
        assert report.consistent is None

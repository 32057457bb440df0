"""Candidate loops, stretch distances, pairings, filling horizons, and
free-factor projections."""

import io
import json
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldspace import GraphMorphism
from foldspace.cli import main
from foldspace.errors import (
    BudgetExceededError,
    DirectionError,
    GraphStructureError,
)
from foldspace.metric import (
    BruteforceReport,
    _class_count,
    _letters,
    _pair_table,
    _subgroup_core,
    candidates,
    edge_current_of_word,
    factor_projection,
    ff_progress_diagnostic,
    fills,
    kl_pairing,
    linearity_and_speed,
    lipschitz_bruteforce,
    lipschitz_distance,
    non_filling_witness,
    thickness,
)
from foldspace.graphs import (Marking, MarkedGraph, OrientedGraph, rose,
                              theta_graph)
from foldspace.io_formats import write_sequence
from foldspace.linalg import frac_log
from foldspace.morphisms import stallings_factorize
from foldspace.paths import (canonical_cycle, cyclic_tighten, reverse_path,
                             tighten)
from foldspace.sequences import FoldingSequence

from conftest import barbell_graph, marked, rose_morphism


# -- candidate loops ------------------------------------------------------


class TestCandidates:
    def test_rose2_counts(self, rose2):
        loops = candidates(rose2)
        kinds = sorted(c.kind for c in loops)
        assert kinds == ["circle", "circle", "figure-eight", "figure-eight"]

    def test_theta_counts(self, theta):
        loops = candidates(theta)
        # the three circles pairwise share two vertices, so no eights or
        # barbells
        assert sorted(c.kind for c in loops) == ["circle"] * 3

    def test_barbell_counts(self, barbell):
        loops = candidates(barbell)
        assert sorted(c.kind for c in loops) == [
            "barbell", "barbell", "circle", "circle"]

    def test_rose3_counts(self, rose3):
        loops = candidates(rose3)
        kinds = sorted(c.kind for c in loops)
        assert kinds.count("circle") == 3
        assert kinds.count("figure-eight") == 6
        assert len(loops) == 9

    def test_candidates_are_reduced_cycles(self, barbell):
        for cand in candidates(barbell):
            barbell.check_path(cand.path, reduced=True)
            assert barbell.is_closed(cand.path)
            assert cyclic_tighten(cand.path) == cand.path

    def test_rank_budget(self):
        big = rose(list("abcdef"))
        with pytest.raises(BudgetExceededError):
            candidates(big)

    def test_accepts_marked_graph(self, rose2):
        assert len(candidates(marked(rose2))) == 4


def test_thickness(rose2, theta):
    assert thickness(marked(rose2, (Fraction(1, 2), Fraction(1, 3)))) == \
        Fraction(1, 3)
    assert thickness(marked(theta, (1, 2, 4))) == 3


# -- stretch distances ----------------------------------------------------


class TestLipschitz:
    def test_rank2_rose_oracle(self, rose2):
        T = marked(rose2, (Fraction(1, 2), Fraction(1, 2)))
        U = marked(rose2, (Fraction(1, 3), Fraction(2, 3)))
        report = lipschitz_distance(T, U)
        assert report.ratio == Fraction(4, 3)
        assert report.witness.kind == "circle"
        assert report.witness_word == (2,)
        assert report.distance == pytest.approx(0.2876820724517809)
        assert len(report.per_candidate) == 4
        ratios = {r for (_, _, r) in report.per_candidate}
        assert ratios == {Fraction(2, 3), Fraction(1), Fraction(4, 3)}

    def test_self_distance_is_zero(self, rose2):
        T = marked(rose2, (Fraction(1, 2), Fraction(1, 2)))
        report = lipschitz_distance(T, T)
        assert report.ratio == 1
        assert report.distance == 0.0

    def test_rose_to_theta(self, rose2, theta):
        T = marked(rose2)
        U = marked(theta, (1, 2, 4))
        report = lipschitz_distance(T, U)
        # the basis loops of theta cost 3 and 5; the b circle is stretched
        # most
        assert report.ratio == Fraction(5)
        assert report.witness_word == (2,)

    def test_rank_mismatch(self, rose2, rose3):
        with pytest.raises(GraphStructureError):
            lipschitz_distance(marked(rose2), marked(rose3))

    def test_bruteforce_agrees_on_roses(self, rose2):
        T = marked(rose2, (Fraction(1, 2), Fraction(1, 2)))
        U = marked(rose2, (Fraction(1, 3), Fraction(2, 3)))
        bf = lipschitz_bruteforce(T, U, 4)
        assert bf.ratio == Fraction(4, 3)
        assert bf.words_checked > 0
        assert bf.ratio == lipschitz_distance(T, U).ratio

    def test_bruteforce_agrees_across_graphs(self, rose2, theta):
        T = marked(rose2)
        U = marked(theta, (1, 2, 4))
        assert lipschitz_bruteforce(T, U, 4).ratio == \
            lipschitz_distance(T, U).ratio == 5

    def test_bruteforce_agrees_with_permuted_marking(self, rose2):
        swapped = Marking(rose2, (), {"a": 2, "b": -1})
        T = marked(rose2, (Fraction(1, 4), Fraction(3, 4)))
        U = MarkedGraph(rose2, {"a": Fraction(2, 5), "b": Fraction(3, 5)},
                        swapped)
        d = lipschitz_distance(T, U)
        bf = lipschitz_bruteforce(T, U, 4)
        assert d.ratio == bf.ratio
        assert d.ratio >= 1  # both sites have volume 1

    def test_bruteforce_length_floor(self, rose2):
        T = marked(rose2)
        with pytest.raises(BudgetExceededError, match="max_len"):
            lipschitz_bruteforce(T, T, 3)

    def test_bruteforce_tree_budget(self, rose3):
        T = marked(rose3)
        with pytest.raises(BudgetExceededError, match="too large"):
            lipschitz_bruteforce(T, T, 15)

    def test_one_sided_multiplicativity(self, rose2, theta):
        sites = [
            marked(rose2, (Fraction(1, 2), Fraction(1, 2))),
            marked(rose2, (Fraction(1, 3), Fraction(2, 3))),
            marked(rose2, (Fraction(3, 4), Fraction(1, 4))),
            marked(theta, (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))),
        ]
        for T in sites:
            for U in sites:
                for V in sites:
                    tv = lipschitz_distance(T, V).ratio
                    tu = lipschitz_distance(T, U).ratio
                    uv = lipschitz_distance(U, V).ratio
                    assert tv <= tu * uv


# -- the brute force, against the per-class enumeration it replaced -------


def _oracle_cyclic_words(rank, max_len):
    """Cyclically reduced words in a rank-N free group up to length
    max_len, one representative per rotation/inversion class."""
    letters = [i for i in range(1, rank + 1)] + \
              [-i for i in range(1, rank + 1)]
    seen = set()
    out = []

    def rec(word):
        if word and word[0] != -word[-1]:
            key = canonical_cycle(word)
            if key not in seen:
                seen.add(key)
                out.append(word)
        if len(word) == max_len:
            return
        for x in letters:
            if word and x == -word[-1]:
                continue
            rec(word + (x,))

    rec(())
    return out


def _oracle_bruteforce(T, U, max_len):
    """The per-class enumeration: two path rebuilds per class
    representative."""
    T.require_positive()
    U.require_positive()
    if max_len < 2 * T.graph.n_edges:
        raise BudgetExceededError(
            f"need max_len >= {2 * T.graph.n_edges} to cover candidates")
    if (2 * T.marking.rank - 1) ** max_len > 5_000_000:
        raise BudgetExceededError(
            "brute-force word tree too large at this rank and length")
    best = None
    words = _oracle_cyclic_words(T.marking.rank, max_len)
    for w in words:
        lt = T.translation_length(w)
        if lt == 0:
            continue
        ratio = Fraction(U.translation_length(w)) / Fraction(lt)
        if best is None or ratio > best[0]:
            best = (ratio, w)
    ratio, w = best
    return BruteforceReport(distance=frac_log(ratio), ratio=ratio,
                            witness_word=w, words_checked=len(words))


def _graph_of_kind(kind):
    """Graph and tree edges of one kind; ``path3`` has a two-edge tree, so
    its pair weights see which end of a letter edge the tree path starts
    from."""
    if kind == "rose1":
        return OrientedGraph(["*"], [("a", "*", "*")], _relaxed=True), ()
    if kind in ("rose2", "rose3"):
        return rose("abc"[:int(kind[-1])]), ()
    if kind == "theta":
        return theta_graph(), ("e3",)
    if kind == "barbell":
        return barbell_graph(), ("s",)
    return OrientedGraph(["u", "v", "w"],
                         [("t1", "u", "v"), ("t2", "v", "w"),
                          ("x", "u", "w"), ("y", "v", "v"),
                          ("z", "w", "u")]), ("t1", "t2")


_KINDS = ("rose1", "rose2", "rose3", "theta", "barbell", "path3")


def _point(kind, lengths, signed_order=None):
    """Marked graph of a kind; ``signed_order`` lists the signed basis
    symbols of the non-tree edges in edge order (default basis if None)."""
    g, tree = _graph_of_kind(kind)
    basis = None
    if signed_order is not None:
        names = [e for e in g.edge_ids if e not in tree]
        basis = dict(zip(names, signed_order))
    return MarkedGraph(g, dict(zip(g.edge_ids, lengths)),
                       Marking(g, tree, basis))


@st.composite
def _marked_of_kind(draw, kind):
    """A point of the given kind with random rational lengths; a rose gets
    a default, permuted or signed basis."""
    g, tree = _graph_of_kind(kind)
    rank = g.n_edges - g.n_vertices + 1
    order = None
    how = draw(st.sampled_from(("default", "permuted", "signed")),
               label="basis") if kind.startswith("rose") else "default"
    if how != "default":
        order = draw(st.permutations(range(1, rank + 1)), label="order")
        if how == "signed":
            order = [draw(st.sampled_from((1, -1)), label="sign") * k
                     for k in order]
    lengths = [draw(st.builds(Fraction, st.integers(1, 8),
                              st.integers(1, 4)), label="length")
               for _ in g.edge_ids]
    return _point(kind, lengths, order)


def _budget_max_len(rank):
    return max(L for L in range(1, 40) if (2 * rank - 1) ** L <= 5_000_000)


# deepest length at which one per-class oracle call stays near 0.1 s; the
# deeper lengths up to the budget are checked below on fixed pairs
_ORACLE_MAX_LEN = {1: 24, 2: 8, 3: 6}
_SAME_RANK = {"rose1": ("rose1",), "rose3": ("rose3",)}
_RANK2 = ("rose2", "theta", "barbell")


@st.composite
def _bruteforce_pairs(draw):
    kind = draw(st.sampled_from(("rose1", "rose3") + _RANK2), label="T")
    T = draw(_marked_of_kind(kind), label="Tpoint")
    U = draw(_marked_of_kind(draw(st.sampled_from(
        _SAME_RANK.get(kind, _RANK2)), label="U")), label="Upoint")
    floor = 2 * T.graph.n_edges
    top = min(_budget_max_len(T.rank), _ORACLE_MAX_LEN[T.rank])
    return T, U, draw(st.integers(floor, top), label="max_len")


@settings(max_examples=60, deadline=None)
@given(pair=_bruteforce_pairs())
def test_bruteforce_matches_the_per_class_enumeration(pair):
    """Ratio, distance, witness word and class count all agree."""
    T, U, max_len = pair
    assert lipschitz_bruteforce(T, U, max_len) == \
        _oracle_bruteforce(T, U, max_len)


_T_LENGTHS = (Fraction(3, 2), Fraction(1, 3), Fraction(5, 4))
_U_LENGTHS = (Fraction(2, 3), Fraction(7, 4), Fraction(1, 2))
_SIGNED = {"rose2": (-2, 1), "rose3": (3, -1, 2)}


@pytest.mark.parametrize("kind,other,max_len", [
    ("rose2", "theta", 9), ("barbell", "rose2", 8), ("rose3", "rose3", 7)])
def test_bruteforce_matches_the_enumeration_deeper(kind, other, max_len):
    T = _point(kind, _T_LENGTHS)
    U = _point(other, _U_LENGTHS, _SIGNED.get(other))
    assert lipschitz_bruteforce(T, U, max_len) == \
        _oracle_bruteforce(T, U, max_len)


def test_bruteforce_at_the_budget_boundary():
    """Length 9 is the deepest the 5M word tree admits at rank 3."""
    T = _point("rose3", _T_LENGTHS)
    U = _point("rose3", _U_LENGTHS, _SIGNED["rose3"])
    bf = lipschitz_bruteforce(T, U, 9)
    assert bf.ratio == lipschitz_distance(T, U).ratio
    w = bf.witness_word
    assert bf.ratio == U.translation_length(w) / T.translation_length(w)
    assert bf.words_checked == 140318
    with pytest.raises(BudgetExceededError, match="^brute-force word tree "
                       "too large at this rank and length$"):
        lipschitz_bruteforce(T, U, 10)
    with pytest.raises(BudgetExceededError,
                       match="^need max_len >= 6 to cover candidates$"):
        lipschitz_bruteforce(T, U, 5)


def test_both_distances_refuse_differing_ranks(rose2, rose3):
    """A rank-2 and a rank-3 point have no common loops to compare."""
    small, big = marked(rose2), marked(rose3, (2, 1, 3))
    for T, U in ((small, big), (big, small)):
        with pytest.raises(GraphStructureError, match="^ranks differ$"):
            lipschitz_distance(T, U)
        with pytest.raises(GraphStructureError, match="^ranks differ$"):
            lipschitz_bruteforce(T, U, 2 * T.graph.n_edges)


def test_bruteforce_rank_one_walks_deep():
    """At rank 1 the word tree is a path, so its budget never binds: the
    walk goes 2000 letters deep without meeting the recursion limit."""
    g = OrientedGraph(["*"], [("a", "*", "*")], _relaxed=True)
    T = marked(g, (Fraction(2),))
    U = marked(g, (Fraction(3, 7),))
    bf = lipschitz_bruteforce(T, U, 2000)
    assert bf.ratio == lipschitz_distance(T, U).ratio == Fraction(3, 14)
    assert bf.witness_word == (1,)
    assert bf.words_checked == 2000


@pytest.mark.parametrize("rank,max_len", [(1, 60), (2, 10), (3, 7), (4, 6)])
def test_class_count_closed_form(rank, max_len):
    lengths = [len(w) for w in _oracle_cyclic_words(rank, max_len)]
    for L in range(1, max_len + 1):
        assert _class_count(rank, L) == sum(1 for n in lengths if n <= L)


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(_KINDS), data=st.data())
def test_pair_table_sums_to_translation_length(kind, data):
    m = data.draw(_marked_of_kind(kind), label="point")
    letters = _letters(m.rank)
    word = data.draw(st.lists(st.sampled_from(letters), min_size=1,
                              max_size=12).map(cyclic_tighten).filter(bool),
                     label="word")
    table, scale = _pair_table(m, letters)
    idx = [letters.index(x) for x in word]
    total = sum(table[i][j] for i, j in zip(idx, idx[1:] + idx[:1]))
    assert Fraction(total, scale) == m.translation_length(word)
# -- pairing --------------------------------------------------------------


class TestPairing:
    def test_edge_current_oracles(self, rose2, theta):
        th = marked(theta, (1, 2, 4))
        assert edge_current_of_word(th, (1,)) == (1, 1, 0)
        assert edge_current_of_word(th, (1, 2)) == (2, 1, 1)
        assert edge_current_of_word(marked(rose2), (1, 1, 2)) == (2, 1)
        assert edge_current_of_word(marked(rose2), ()) == (0, 0)

    def test_pairing_equals_translation_length(self, rose2, theta):
        words = [(1,), (2,), (1, 2), (1, -2), (1, 1, 2), (2, -1, 2, -1),
                 (1, 2, -1, -2), ()]
        for T in (marked(rose2, (Fraction(1, 2), Fraction(1, 2))),
                  marked(rose2, (Fraction(2, 7), Fraction(5, 7))),
                  marked(theta, (1, 2, 4))):
            for w in words:
                nu = edge_current_of_word(T, w)
                assert kl_pairing(T, nu) == T.translation_length(w)

    def test_raw_vector_accepted(self):
        assert kl_pairing((Fraction(1, 2), 3), (2, 1)) == 4

    def test_dimension_mismatch(self):
        with pytest.raises(GraphStructureError):
            kl_pairing((1, 2, 3), (1, 2))


# -- filling horizons -----------------------------------------------------


class TestFills:
    def test_fibonacci_single_edges(self, fib_fold15):
        assert fills(fib_fold15, 0, {"a"}) == 1
        assert fills(fib_fold15, 0, {"b"}) == 2
        assert fills(fib_fold15, 0, {"a", "b"}) == 0

    def test_survival_near_the_end(self, fib_fold15):
        # one step left: b maps to a, still proper
        assert fills(fib_fold15, 14, {"b"}) is None
        assert fills(fib_fold15, 14, {"a"}) == 1

    def test_unknown_edge(self, fib_fold15):
        with pytest.raises(GraphStructureError):
            fills(fib_fold15, 0, {"zz"})

    def test_alternating_invariant_family_never_fills(self, alt3_fold_full):
        # a and b only ever map to words in a, b
        assert fills(alt3_fold_full, 0, {"a"}) is None
        assert fills(alt3_fold_full, 0, {"b"}) is None
        assert fills(alt3_fold_full, 0, {"c"}) == 2

    def test_witness_prefers_longest_horizon(self, fib_fold15):
        w = non_filling_witness(fib_fold15, 0)
        assert w.edge == "b"
        assert w.horizon == 1
        assert w.survives is False
        w_end = non_filling_witness(fib_fold15, 14)
        assert w_end.edge == "b"
        assert w_end.horizon == 1
        assert w_end.survives is True

    def test_progress_diagnostic_fibonacci(self, fib_fold15):
        report = ff_progress_diagnostic(fib_fold15)
        assert report.levels == tuple(range(15))
        assert report.horizons == (1,) * 15
        assert report.witnesses == ("b",) * 15
        assert report.survives == (False,) * 14 + (True,)
        assert report.horizon_at(7) == 1

    def test_progress_diagnostic_alternating_block_starts(
            self, alt3_fold_full):
        starts = (0, 4, 20, 84, 340, 1364)
        report = ff_progress_diagnostic(alt3_fold_full, levels=starts)
        assert report.horizons == (5460, 5456, 5440, 5376, 5120, 4096)
        assert report.survives == (True,) * 6
        assert report.witnesses == ("a",) * 6

    def test_progress_needs_folding(self, fib_unfold20):
        with pytest.raises(DirectionError):
            ff_progress_diagnostic(fib_unfold20)


def _rose_to_theta():
    """A step from the rose on a, b onto the theta graph: a covers all
    three theta edges, b only e1 and e2."""
    return GraphMorphism(rose("ab"), theta_graph(), {"*": "u"},
                         {"a": "e1 -e2 e1 -e3", "b": "e1 -e2"})


class TestFillsAcrossGraphs:
    """After a step the support lives on the codomain, so it is full when
    it covers the codomain's edges, also at the final level."""

    def test_support_fills_the_final_graph(self):
        seq = FoldingSequence([_rose_to_theta()], "folding")
        assert fills(seq, 0, ("a",)) == 1
        assert fills(seq, 0, ("b",)) is None
        assert fills(seq, 0, ("a", "b")) == 0
        assert fills(seq, 1, tuple(seq.graph_at(1).edge_ids)) is None

    def test_a_later_step_does_not_change_the_answer(self):
        f = _rose_to_theta()
        t = f.codomain
        ident = GraphMorphism(t, t, {"u": "u", "v": "v"},
                              {e: e for e in t.edge_ids})
        longer = FoldingSequence([f, ident], "folding")
        assert fills(longer, 0, ("a",)) == 1
        assert fills(longer, 0, ("b",)) is None

    def test_progress_report_names_the_proper_edge(self, tmp_path):
        seq = FoldingSequence([_rose_to_theta()], "folding")
        path = write_sequence(seq, str(tmp_path), "theta")
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["progress", path]) == 0
        assert json.loads(out.getvalue())["progress"] == {
            "levels": [0], "horizons": [1], "survives": [True],
            "witnesses": ["b"]}


# -- linear speed ---------------------------------------------------------


class TestSpeed:
    def test_growing_entries_detected(self, rose2):
        f1 = rose_morphism(rose2, {"a": (1, 2), "b": (1,)})
        f2 = rose_morphism(rose2, {"a": (1, 2, 1), "b": (1, 2)})
        f4 = rose_morphism(rose2, {"a": (1, 2, 1, 1, 2, 1, 2, 1),
                                   "b": (1, 2, 1, 1, 2)})
        seq = FoldingSequence([f1, f2, f4], direction="folding")
        report = linearity_and_speed(seq)
        assert report.entry_max == 5
        assert report.entries_grow is True
        assert report.speed > 0
        for lf, lt, d in report.samples:
            assert lt - lf in (1, 2)
            assert d >= 0

    def test_constant_steps_not_growing(self, fib_fold15):
        report = linearity_and_speed(fib_fold15)
        assert report.entry_max == 1
        assert report.entries_grow is False
        assert report.speed > 0
        # every sampled pair obeys d <= speed * (gap + 1)
        for lf, lt, d in report.samples:
            assert d <= report.speed * (lt - lf + 1) + 1e-12


# -- free factors ---------------------------------------------------------


class TestFactorProjection:
    def test_rose2(self, rose2):
        report = factor_projection(marked(rose2))
        assert report.count == 2
        assert len(report.by_subgraph) == 2
        assert set(report.by_subgraph) == {frozenset({"a"}),
                                           frozenset({"b"})}

    def test_theta(self, theta):
        report = factor_projection(marked(theta))
        assert report.count == 3
        assert set(report.by_subgraph) == {
            frozenset({"e1", "e2"}), frozenset({"e1", "e3"}),
            frozenset({"e2", "e3"})}

    def test_rose3(self, rose3):
        report = factor_projection(marked(rose3))
        assert report.count == 6

    def test_barbell_deduplicates_carriers(self):
        # {p} and {p, s} carry the same factor; likewise {q} and {q, s}
        report = factor_projection(marked(barbell_graph()))
        assert len(report.by_subgraph) == 4
        assert report.count == 2

    def test_inverted_basis_same_factors(self, rose2):
        plain = marked(rose2)
        flipped = MarkedGraph(rose2, {"a": 1, "b": 1},
                              Marking(rose2, (), {"a": -1, "b": 2}))
        assert factor_projection(plain).factors == \
            factor_projection(flipped).factors

    def test_rank_budget(self):
        big = rose(list("abcdefg"))
        with pytest.raises(BudgetExceededError):
            factor_projection(marked(big))

    def test_edge_budget(self, rose2):
        """A subdivided rank-2 graph of 24 edges is refused at once, where
        its 2^24 edge subsets took minutes: a core graph of rank at most 6
        has at most 15 edges."""
        f = rose_morphism(rose2, {"a": "a b " * 5 + "a b",
                                  "b": "b a " * 5 + "b a"})
        g = stallings_factorize(f)[0].codomain
        assert (g.betti(), g.n_edges) == (2, 24)
        with pytest.raises(BudgetExceededError,
                           match="^subgraph enumeration capped at 15 edges, "
                                 "got 24$"):
            factor_projection(marked(g))


_WORDS = st.lists(st.sampled_from((1, 2, 3, -1, -2, -3)),
                  max_size=6).map(tighten)


@settings(max_examples=100, deadline=None)
@given(words=st.lists(_WORDS.filter(bool), min_size=1, max_size=3),
       data=st.data())
def test_subgroup_core_invariant_under_nielsen_moves_and_conjugation(
        words, data):
    core = _subgroup_core(words)
    moved = list(words)
    for _ in range(data.draw(st.integers(1, 4), label="moves")):
        kind = data.draw(st.sampled_from(("product", "inverse", "reorder")),
                         label="kind")
        i = data.draw(st.integers(0, len(moved) - 1), label="i")
        if kind == "product" and len(moved) > 1:
            j = data.draw(st.sampled_from(
                [k for k in range(len(moved)) if k != i]), label="j")
            moved[i] = tighten(moved[i] + moved[j])
        elif kind == "inverse":
            moved[i] = reverse_path(moved[i])
        else:
            moved = data.draw(st.permutations(moved), label="order")
    assert _subgroup_core(moved) == core
    c = data.draw(_WORDS, label="conjugator")
    assert _subgroup_core([tighten(c + w + reverse_path(c))
                           for w in moved]) == core

"""Moduli windows, transverse decompositions, collapse, and recurrence
evidence."""

from fractions import Fraction

import pytest

from foldspace.decomposition import (
    CollapseResult,
    TransverseDecomposition,
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
from foldspace.graphs import rose, theta_graph
from foldspace.morphisms import GraphMorphism
from foldspace.sequences import (
    FoldingSequence,
    current_track_from_initial,
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

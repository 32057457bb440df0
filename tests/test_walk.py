"""Seeded random-walk experiments: determinism, invariances, rate sanity,
and the walk step checked against the Fraction/mat_mul loop it replaced."""

import math
import random
import statistics
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldspace import walk
from foldspace.errors import BudgetExceededError, FormatError
from foldspace.graphs import rose
from foldspace.linalg import frac_log, identity, mat_mul
from foldspace.morphisms import GraphMorphism
from foldspace.reports import dumps_json
from foldspace.walk import (
    MAX_STEPS,
    ExperimentConfig,
    WalkRecord,
    _generator_key,
    _pick,
    default_generators,
    run_walk,
)


def _positive_rose_map(images):
    g = rose("ab")
    return GraphMorphism(g, g, {"*": "*"}, images)


class TestDeterminism:
    def test_byte_identical_reruns(self):
        cfg = ExperimentConfig(seed=11, steps=300)
        a = run_walk(cfg)
        b = run_walk(cfg)
        assert dumps_json(a) == dumps_json(b)

    def test_different_seeds_differ(self):
        a = run_walk(ExperimentConfig(seed=1, steps=200))
        b = run_walk(ExperimentConfig(seed=2, steps=200))
        assert a.choices != b.choices

    def test_generator_order_is_canonicalized(self):
        g1, g2 = default_generators()
        fwd = run_walk(ExperimentConfig(seed=9, steps=150,
                                        generators=(g1, g2)))
        rev = run_walk(ExperimentConfig(seed=9, steps=150,
                                        generators=(g2, g1)))
        assert dumps_json(fwd) == dumps_json(rev)
        assert fwd.generator_keys == rev.generator_keys

    def test_weights_reordered_with_generators(self):
        g1, g2 = default_generators()
        fwd = run_walk(ExperimentConfig(seed=9, steps=150,
                                        generators=(g1, g2),
                                        weights=(1, 3)))
        rev = run_walk(ExperimentConfig(seed=9, steps=150,
                                        generators=(g2, g1),
                                        weights=(3, 1)))
        assert dumps_json(fwd) == dumps_json(rev)


class TestValidation:
    def test_negative_image_rejected(self):
        g = rose("ab")
        bad = GraphMorphism(g, g, {"*": "*"}, {"a": (-2,), "b": (1,)})
        good = _positive_rose_map({"a": (1, 2), "b": (1,)})
        with pytest.raises(FormatError, match="positive"):
            run_walk(ExperimentConfig(seed=1, steps=10,
                                      generators=(bad, good)))

    def test_wrong_weight_count(self):
        with pytest.raises(FormatError, match="one weight per"):
            run_walk(ExperimentConfig(seed=1, steps=10, weights=(1, 2, 3)))

    def test_nonpositive_weight(self):
        with pytest.raises(FormatError, match="positive"):
            run_walk(ExperimentConfig(seed=1, steps=10, weights=(1, 0)))

    def test_mismatched_graphs(self):
        g1 = _positive_rose_map({"a": (1, 2), "b": (1,)})
        h = rose("xy")
        g2 = GraphMorphism(h, h, {"*": "*"}, {"x": (1, 2), "y": (1,)})
        with pytest.raises(FormatError, match="share one graph"):
            run_walk(ExperimentConfig(seed=1, steps=10,
                                      generators=(g1, g2)))


class TestRecordShape:
    def test_fields(self):
        record = run_walk(ExperimentConfig(seed=3, steps=120))
        assert record.seed == 3
        assert record.steps == 120
        assert len(record.choices) == 120
        assert set(record.choices) <= {0, 1}
        assert len(record.displacement) == 121
        assert record.displacement[0] == 0.0
        assert len(record.lengths_normalized) == 121
        for pair in record.lengths_normalized:
            assert sum(pair) == pytest.approx(1.0)
        assert sum(record.final_lengths) == 1
        assert all(isinstance(x, Fraction) for x in record.final_lengths)

    def test_displacement_monotone_nondecreasing(self):
        record = run_walk(ExperimentConfig(seed=3, steps=200))
        for a, b in zip(record.displacement, record.displacement[1:]):
            assert b >= a - 1e-12

    def test_escape_rate_positive(self):
        record = run_walk(ExperimentConfig(seed=4, steps=600))
        assert record.escape_rate > 0.2
        assert record.dispersion < 0.2

    def test_uneven_weights_change_statistics(self):
        even = run_walk(ExperimentConfig(seed=5, steps=400))
        skew = run_walk(ExperimentConfig(seed=5, steps=400,
                                         weights=(Fraction(9), Fraction(1))))
        assert even.choices != skew.choices
        counts = [skew.choices.count(0), skew.choices.count(1)]
        assert max(counts) > 300


class TestBudget:
    def test_steps_past_the_limit_refused(self):
        with pytest.raises(BudgetExceededError, match=str(MAX_STEPS)):
            run_walk(ExperimentConfig(seed=1, steps=MAX_STEPS + 1))

    def test_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(walk, "MAX_STEPS", 10)
        assert run_walk(ExperimentConfig(seed=1, steps=10)).steps == 10
        with pytest.raises(BudgetExceededError, match="limit of 10 steps"):
            run_walk(ExperimentConfig(seed=1, steps=11))


# -- the loop the integer step replaced, kept as the reference --------------


def _positive_stretch(cols):
    return max(Fraction(max(cols)), Fraction(sum(cols), len(cols)))


def _reference_walk(config):
    """``run_walk`` as it was: Fraction thresholds compared with the float
    draw, the generic ``mat_mul``, and the stretch as the larger of the
    largest column sum and the mean column sum."""
    gens, weights = config.resolved()
    g = gens[0].domain
    rng = random.Random(config.seed)
    cumulative = []
    acc = Fraction(0)
    for w in weights:
        acc += w
        cumulative.append(acc)
    C = identity(g.n_edges)
    choices = []
    displacement = [0.0]
    lengths = [tuple(1.0 / g.n_edges for _ in g.edge_ids)]
    matrices = [f.incidence_matrix() for f in gens]
    for _ in range(config.steps):
        u = rng.random()
        pick = len(cumulative) - 1
        for i, c in enumerate(cumulative):
            if u < c:
                pick = i
                break
        choices.append(pick)
        C = mat_mul(matrices[pick], C)
        lam = [sum(col) for col in zip(*C)]
        displacement.append(frac_log(_positive_stretch(lam)))
        vol = sum(lam)
        lengths.append(tuple(x / vol for x in lam))
    half = len(displacement) // 2
    xs = list(range(half, len(displacement)))
    ys = displacement[half:]
    escape = statistics.linear_regression(xs, ys).slope
    chunk_slopes = []
    size = max(2, len(xs) // 6)
    for c in range(0, len(xs) - size + 1, size):
        chunk_slopes.append(statistics.linear_regression(
            xs[c:c + size], ys[c:c + size]).slope)
    if len(chunk_slopes) >= 2 and escape != 0:
        dispersion = statistics.stdev(chunk_slopes) / abs(escape)
    else:
        dispersion = float("inf")
    return WalkRecord(seed=config.seed, steps=config.steps,
                      generator_keys=tuple(_generator_key(f) for f in gens),
                      choices=tuple(choices),
                      displacement=tuple(displacement),
                      lengths_normalized=tuple(lengths),
                      final_lengths=tuple(Fraction(x, vol) for x in lam),
                      escape_rate=escape,
                      dispersion=dispersion)


def _rank3_pool():
    """Positive self-maps of the rank-3 rose: transvections, a permutation,
    a square and two maps that miss an edge (zero rows in the count
    matrix)."""
    g = rose("abc")
    images = [
        {"a": "a b", "b": "b", "c": "c"},
        {"a": "a", "b": "b c", "c": "c"},
        {"a": "a", "b": "b", "c": "c a"},
        {"a": "c a", "b": "b", "c": "c"},
        {"a": "b", "b": "c", "c": "a"},
        {"a": "a b a", "b": "b", "c": "c b"},
        {"a": "a", "b": "a", "c": "c a"},
        {"a": "b c", "b": "b", "c": "c b"},
    ]
    return [GraphMorphism(g, g, {"*": "*"}, im) for im in images]


_RANK3 = _rank3_pool()


@st.composite
def _walk_configs(draw):
    seed = draw(st.integers(0, 2 ** 32))
    steps = draw(st.integers(2, 300))
    if draw(st.booleans()):
        gens = None
        n = 2
    else:
        gens = tuple(draw(st.lists(st.sampled_from(_RANK3), min_size=3,
                                   max_size=5)))
        n = len(gens)
    weights = draw(st.one_of(
        st.none(),
        st.lists(st.integers(1, 9), min_size=n, max_size=n).map(tuple),
        st.lists(st.fractions(Fraction(1, 50), 7), min_size=n,
                 max_size=n).map(tuple)))
    return ExperimentConfig(seed=seed, steps=steps, generators=gens,
                            weights=weights)


@settings(max_examples=150, deadline=None)
@given(config=_walk_configs())
def test_walk_matches_the_fraction_loop(config):
    assert run_walk(config) == _reference_walk(config)


@pytest.mark.parametrize("weights", [(1, 3), (2, 5, 7), (1, 1, 1, 1)])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_uneven_weights_match_the_fraction_loop(seed, weights):
    gens = None if len(weights) == 2 else tuple(_RANK3[:len(weights)])
    config = ExperimentConfig(seed=seed, steps=300, generators=gens,
                              weights=weights)
    assert run_walk(config) == _reference_walk(config)


class TestPick:
    HALVES = [(1, 2), (1, 1)]       # cumulative (1, 1) weights

    def test_draw_on_a_threshold_takes_the_next_generator(self):
        assert _pick(*(0.5).as_integer_ratio(), self.HALVES) == 1

    def test_draw_just_below_a_threshold_takes_that_generator(self):
        below = math.nextafter(0.5, 0)
        assert _pick(*below.as_integer_ratio(), self.HALVES) == 0

    @pytest.mark.parametrize("u", [0.0, 2 ** -53, 0.25, 1 / 3, 0.5,
                                   0.75, 1 - 2 ** -53])
    @pytest.mark.parametrize("weights", [(1, 1), (1, 3), (2, 5, 7)])
    def test_pick_agrees_with_fraction_thresholds(self, u, weights):
        total = sum(weights)
        acc, fractions, pairs = Fraction(0), [], []
        for w in weights:
            acc += Fraction(w, total)
            fractions.append(acc)
            pairs.append((acc.numerator, acc.denominator))
        expected = next((i for i, c in enumerate(fractions) if u < c),
                        len(weights) - 1)
        assert _pick(*u.as_integer_ratio(), pairs) == expected

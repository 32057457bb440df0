"""Cylinder weights by junction recursion, against expanded images."""

from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldspace import (FoldingSequence, MalformedPathError, count_occurrences,
                       current_track_from_initial, cylinder_weight,
                       flip_cylinder_weight, frequency_current, gen_fibonacci,
                       reverse_path, sandwich_report)
from foldspace import lamination

from test_lamination import _POOLS


def _expanded_weight(seq, current_track, gamma, level):
    """Oracle: occurrences of gamma and of its reverse counted on the
    expanded composite image of every edge, weighted by the current."""
    gamma = tuple(gamma)
    rev = reverse_path(gamma)
    mu = current_track.at(level)
    total = Fraction(0)
    for j in range(seq.graph_at(level).n_edges):
        image = seq.expansion(level, j + 1)
        hits = count_occurrences(image, gamma) + count_occurrences(image, rev)
        total += Fraction(mu[j]) * hits
    return total


@st.composite
def _folding_chains(draw):
    pool = draw(st.sampled_from(_POOLS))
    steps = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    seq = FoldingSequence(steps, "folding")
    n = seq.graph_at(0).n_edges
    mu0 = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    return seq, current_track_from_initial(seq, mu0)


@st.composite
def _words(draw, rank):
    """Reduced words of length 1-6 on a rank-``rank`` rose; a third of them
    are palindromes, read the same from either end."""
    letters = [e for k in range(1, rank + 1) for e in (k, -k)]
    shape = draw(st.sampled_from(("plain", "odd", "even")))
    size = draw(st.integers(1, 6 if shape == "plain" else 3))
    word = [draw(st.sampled_from(letters))]
    while len(word) < size:
        word.append(draw(st.sampled_from([e for e in letters
                                          if e != -word[-1]])))
    if shape == "odd":
        word += word[-2::-1]
    elif shape == "even":
        word += word[::-1]
    return tuple(word)


@settings(max_examples=150, deadline=None)
@given(chain=_folding_chains(), data=st.data())
def test_cylinder_weights_match_expanded_images(chain, data):
    seq, mu = chain
    gamma = data.draw(_words(seq.graph_at(0).n_edges), label="gamma")
    for level in seq.levels:
        got = cylinder_weight(seq, mu, gamma, level)
        assert got == _expanded_weight(seq, mu, gamma, level), level
        report = sandwich_report(seq, mu, gamma, level)
        with patch.object(lamination, "cylinder_weight", _expanded_weight):
            assert report == sandwich_report(seq, mu, gamma, level), level


def test_hit_tables_are_walked_once_per_word():
    seq = gen_fibonacci(steps=12, direction="folding").sequence
    mu = frequency_current(seq)
    for level in seq.levels:
        sandwich_report(seq, mu, (1, 2), level)
    # (1, 2) and its three one-edge extensions, each up to flip
    assert len(seq._hit_tables) == 4
    assert all(len(t) == seq.n_steps + 1 for t in seq._hit_tables.values())


def _fib(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def test_sandwich_past_the_expansion_budget():
    # the level-0 images of a 34-step chain have 14930352 and 9227465
    # edges, past the expansion budget; these values were checked once on
    # the expanded images
    seq = gen_fibonacci(steps=34, direction="folding").sequence
    report = sandwich_report(seq, frequency_current(seq), (1, 2, 1), 0)
    assert report == {"lower": 9227463, "weight": 9227464,
                      "upper": 9227467, "ok": True}


def test_sandwich_at_depth_1000():
    # the values follow F_(T+1) at every depth T the oracle reaches
    for steps in (5, 13, 20, 1000):
        seq = gen_fibonacci(steps=steps, direction="folding").sequence
        mu = frequency_current(seq)
        report = sandwich_report(seq, mu, (1, 2, 1), 0)
        f = _fib(steps + 1)
        assert report == {"lower": f - 2, "weight": f - 1, "upper": f + 2,
                          "ok": True}
        if steps < 1000:
            with patch.object(lamination, "cylinder_weight",
                              _expanded_weight):
                assert report == sandwich_report(seq, mu, (1, 2, 1), 0)


def test_empty_cylinder_word_is_refused():
    seq = gen_fibonacci(steps=6, direction="folding").sequence
    mu = frequency_current(seq)
    for fn in (cylinder_weight, flip_cylinder_weight, sandwich_report):
        with pytest.raises(MalformedPathError, match="empty cylinder word"):
            fn(seq, mu, (), 0)


def test_expansion_refuses_bad_edges():
    seq = gen_fibonacci(steps=6, direction="folding").sequence
    for oriented in (0, 3, -3):
        with pytest.raises(MalformedPathError, match="bad oriented edge"):
            seq.expansion(2, oriented)
    assert seq.expansion(2, -2) == reverse_path(seq.expansion(2, 2))


def _per_term_weight(seq, current_track, gamma, level):
    """The former sum: one ``Fraction`` per edge, started at
    ``Fraction(0)``."""
    hits = lamination._hits(seq, level, tuple(gamma))
    return sum((Fraction(m) * h for m, h in zip(current_track.at(level),
                                                 hits)), Fraction(0))


@settings(max_examples=100, deadline=None)
@given(chain=_folding_chains(), data=st.data())
def test_one_fraction_per_weight_is_the_per_term_sum(chain, data):
    # the drawn track has int entries; a second one has Fraction entries
    seq, mu = chain
    n = seq.graph_at(0).n_edges
    seed = data.draw(st.lists(st.fractions(0, 5, max_denominator=7),
                              min_size=n, max_size=n), label="seed")
    gamma = data.draw(_words(n), label="gamma")
    for track in (mu, current_track_from_initial(seq, seed)):
        for level in seq.levels:
            got = cylinder_weight(seq, track, gamma, level)
            want = _per_term_weight(seq, track, gamma, level)
            assert got == want and type(got) is type(want) is Fraction

"""Shared fixtures: small graphs, canned sequences, and builders.

Heavy sequences (the full alternating schedules) are session-scoped so the
data kept on them (taken turns, tracks, hit tables) is shared across test
modules.
"""

from fractions import Fraction

import pytest

from foldspace import (GraphMorphism, MarkedGraph, OrientedGraph,
                       gen_alternating_block, gen_fibonacci, rose,
                       theta_graph)


def rose_morphism(g, images, h=None):
    """Morphism between roses given by token strings, identity on the
    vertex."""
    h = h if h is not None else g
    return GraphMorphism(g, h, {"*": "*"}, images)


def marked(graph, lengths=None):
    if lengths is None:
        lengths = {e: 1 for e in graph.edge_ids}
    elif not isinstance(lengths, dict):
        lengths = dict(zip(graph.edge_ids, lengths))
    return MarkedGraph(graph, lengths)


def barbell_graph():
    """Two loops joined by a bridge: p at u, q at v, connector s."""
    return OrientedGraph(["u", "v"],
                         [("p", "u", "u"), ("q", "v", "v"),
                          ("s", "u", "v")])


@pytest.fixture(scope="session")
def rose2():
    return rose(["a", "b"])


@pytest.fixture(scope="session")
def rose3():
    return rose(["a", "b", "c"])


@pytest.fixture(scope="session")
def theta():
    return theta_graph()


@pytest.fixture(scope="session")
def barbell():
    return barbell_graph()


@pytest.fixture(scope="session")
def fib_unfold20():
    return gen_fibonacci(steps=20, direction="unfolding").sequence


@pytest.fixture(scope="session")
def fib_unfold40():
    return gen_fibonacci(steps=40, direction="unfolding").sequence


@pytest.fixture(scope="session")
def fib_fold15():
    return gen_fibonacci(steps=15, direction="folding").sequence


@pytest.fixture(scope="session")
def fib_fold40():
    return gen_fibonacci(steps=40, direction="folding").sequence


@pytest.fixture(scope="session")
def alt3_unfold_full():
    return gen_alternating_block(rank=3, direction="unfolding").sequence


@pytest.fixture(scope="session")
def alt3_fold_full():
    return gen_alternating_block(rank=3, direction="folding").sequence


@pytest.fixture(scope="session")
def alt4_unfold_full():
    return gen_alternating_block(rank=4, direction="unfolding").sequence


@pytest.fixture(scope="session")
def alt4_fold_full():
    return gen_alternating_block(rank=4, direction="folding").sequence


@pytest.fixture(scope="session")
def alt4_small_unfold():
    return gen_alternating_block(schedule=(4, 8), rank=4,
                                 direction="unfolding").sequence


def fractions(*qs):
    return tuple(Fraction(q) for q in qs)

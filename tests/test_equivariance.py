"""Reports do not depend on how edges are named, listed or oriented.

Every invariant of a folding or unfolding path is natural: renaming the
edges of the roses, listing them in another order, or reversing the
orientation of some of them (in the graph and in every edge image) gives
the same path in the space of marked graphs.  Hypothesis draws chains of up
to 8 steps from the rose pools, applies a random relabelling, and requires:

- equal ``cone`` verdicts, diameters, ratios, profiles and dimensions, and
  equal ``fold`` reports (decay flags and final taken-turn count) and CSV;
- equal cone generators, clusters and extreme rays, and equal
  ``lamination`` words, once the labels are mapped back.

A flip leaves every incidence matrix as it is, so it moves only turns and
words; a renaming and reordering permutes the entries of every vector.
"""

import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from foldspace import FoldingSequence, GraphMorphism, OrientedGraph

from test_lamination import _POOLS
from test_stretches import _report

_NAMES = ("x", "y", "z", "w", "u", "v")


class _Relabel:
    """A relabelling of the rose ``g``: old edge j (0-based) is listed at
    ``pos[j]`` under ``name[j]`` (so ``order[k]`` is listed at k), with
    its orientation reversed when j is in ``flips``; the vertex is renamed
    ``p``."""

    def __init__(self, g, order, names, flips):
        self.old = g
        self.order = order
        self.pos = {j: k for k, j in enumerate(order)}
        self.name = dict(enumerate(names))
        self.flips = flips
        self.back = {names[j]: g.edge_ids[j] for j in range(g.n_edges)}
        self.new = OrientedGraph(["p"], [(names[j], "p", "p") for j in order])

    def edge(self, e):
        """The new signed index of the old signed index ``e``."""
        j = abs(e) - 1
        sign = (1 if e > 0 else -1) * (-1 if j in self.flips else 1)
        return sign * (self.pos[j] + 1)

    def step(self, f):
        """``f`` conjugated by the relabelling."""
        images = {}
        for j in range(self.old.n_edges):
            path = f.edge_image(j + 1)
            if j in self.flips:
                path = tuple(-x for x in reversed(path))
            images[self.name[j]] = tuple(map(self.edge, path))
        return GraphMorphism(self.new, self.new, {"p": "p"}, images)

    def token(self, token):
        """The old token of a new edge token, orientation mapped back."""
        negative = token.startswith("-")
        old = self.back[token.lstrip("-")]
        if negative != (self.old.edge_index(old) - 1 in self.flips):
            return "-" + old
        return old


@st.composite
def _relabelled_chains(draw):
    """(seq, relabelled seq, relabelling) over up to 8 pool steps."""
    pool = draw(st.sampled_from(_POOLS))
    steps = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8),
                 label="steps")
    direction = draw(st.sampled_from(("folding", "unfolding")))
    g = steps[0].domain
    r = g.n_edges
    relabel = _Relabel(
        g, draw(st.permutations(range(r)), label="order"),
        draw(st.permutations(_NAMES), label="names")[:r],
        frozenset(draw(st.sets(st.integers(0, r - 1)), label="flips")))
    new = {}
    for f in steps:
        if id(f) not in new:
            new[id(f)] = relabel.step(f)
    return (FoldingSequence(steps, direction),
            FoldingSequence([new[id(f)] for f in steps], direction), relabel)


def _word(tokens):
    """A word and its reverse as one key."""
    rev = tuple(t[1:] if t.startswith("-") else "-" + t
                for t in reversed(tokens))
    return min(tuple(tokens), rev)


def _cone_parts(cone, old):
    """The generators, clusters and extreme rays of a cone report over the
    old labels, where ``old[k]`` is the old index of edge k of the report;
    a cluster and an extreme ray are sets of generator indices, since a
    cluster's representative is its least index."""
    gens = {old[k]: {old[i]: Fraction(x) for i, x in enumerate(g)}
            for k, g in enumerate(cone.pop("generators"))}
    clusters = {frozenset(old[k] for k in c) for c in cone.pop("clusters")}
    of = {k: c for c in clusters for k in c}
    return gens, clusters, {of[old[k]] for k in cone.pop("extreme_rays")}


@settings(max_examples=200, deadline=None)
@given(chains=_relabelled_chains(), data=st.data())
def test_relabelled_chains_keep_every_report(chains, data):
    seq, twin, relabel = chains
    T = seq.n_steps
    for argv in (("fold",), ("fold", "--format", "csv")):
        assert _report(twin, argv) == _report(seq, argv), argv
    depth = data.draw(st.integers(0, T), label="depth")
    argv = ("cone", "--depth", str(depth))
    (rc, out, err), (twin_rc, twin_out, twin_err) = \
        _report(seq, argv), _report(twin, argv)
    assert (twin_rc, twin_err) == (rc, err)
    if rc == 0:
        want, got = json.loads(out), json.loads(twin_out)
        assert _cone_parts(got["cone"], relabel.order) == \
            _cone_parts(want["cone"], range(relabel.old.n_edges))
        assert got == want
    argv = ("lamination", "--depth", str(data.draw(st.integers(1, T),
                                                   label="lamination")),
            "--length", str(data.draw(st.integers(1, 4), label="L")))
    (rc, out, err), (twin_rc, twin_out, twin_err) = \
        _report(seq, argv), _report(twin, argv)
    assert (twin_rc, twin_err) == (rc, err)
    if rc == 0:
        want, got = json.loads(out), json.loads(twin_out)
        assert {_word(w.split()) for w in want.pop("words")} == \
            {_word([relabel.token(t) for t in w.split()])
             for w in got.pop("words")}
        assert got == want

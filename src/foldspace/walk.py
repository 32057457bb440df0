"""Seeded random walks on a marked graph.

The generators are any number of positive self-maps of one graph.  Each
step composes a randomly chosen generator onto the marking, and the walk
keeps the exact count matrix C of the composition: row i, column j counts
the traversals of edge i+1 by the image of edge j+1.  Positive maps never
cancel, so the image length of edge j+1 is the column sum j of C.

The displacement from the base point is the log of the largest column
sum.  It is the one-sided stretch distance on a rank-2 rose, where the
candidates are the loops a, b and ab: ab stretches by the mean of the two
column sums, which never exceeds the larger, and the inverse-orientation
candidate a b^-1 only loses length to cancellation.  Generator choice
depends only on the seed, the generator set and the weights, not on input
ordering.

Exact entries grow by a bounded number of bits per step, so a walk of n
steps costs O(n^2) time; ``MAX_STEPS`` refuses a longer walk before any
work is done.
"""

import random
import statistics
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceededError, FormatError
from .graphs import rose
from .linalg import frac_log
from .morphisms import GraphMorphism

# A walk of this many steps takes about 5 s on a 2-vCPU host, report
# included; time grows with the square of the steps, and a longer walk is
# refused (exit code 3).
MAX_STEPS = 100_000


def default_generators():
    g = rose("ab")
    vmap = {v: v for v in g.vertices}
    g1 = GraphMorphism(g, g, vmap, {"a": "a b", "b": "a"})
    g2 = GraphMorphism(g, g, vmap, {"a": "b", "b": "b a"})
    return (g1, g2)


def _generator_key(f):
    return tuple(" ".join(f.codomain.tokens(f.edge_image(j + 1)))
                 for j in range(f.domain.n_edges))


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    steps: int = 2000
    generators: tuple = None
    weights: tuple = None

    def resolved(self):
        gens = self.generators or default_generators()
        order = sorted(range(len(gens)),
                       key=lambda i: _generator_key(gens[i]))
        gens = tuple(gens[i] for i in order)
        if self.weights is None:
            weights = (Fraction(1, len(gens)),) * len(gens)
        else:
            if len(self.weights) != len(gens):
                raise FormatError("one weight per generator")
            raw = [Fraction(w) for w in self.weights]
            if any(w <= 0 for w in raw):
                raise FormatError("weights must be positive")
            total = sum(raw)
            weights = tuple(raw[i] / total for i in order)
        return gens, weights


@dataclass(frozen=True)
class WalkRecord:
    seed: int
    steps: int
    generator_keys: tuple
    choices: tuple
    displacement: tuple         # floats, index = step
    lengths_normalized: tuple   # float pairs per step
    final_lengths: tuple        # exact normalized Fractions
    escape_rate: float
    dispersion: float


def _row_plan(f):
    """For each codomain edge, the domain edges whose images cross it, one
    entry per crossing: row i of the composite ``f . C`` is the sum of the
    rows of C listed at i."""
    return tuple(tuple(t for t, m in enumerate(row) for _ in range(m))
                 for row in f.incidence_matrix())


def _pick(a, b, cumulative):
    """Index of the first cumulative weight p/q above u = a/b, the last one
    if none is."""
    for i, (p, q) in enumerate(cumulative):
        if a * q < p * b:
            return i
    return len(cumulative) - 1


def run_walk(config):
    if config.steps < 2:
        raise FormatError(f"a walk needs at least 2 steps, got {config.steps}")
    if config.steps > MAX_STEPS:
        raise BudgetExceededError(
            f"a walk of {config.steps} steps is past the limit of "
            f"{MAX_STEPS} steps (walk.MAX_STEPS)")
    gens, weights = config.resolved()
    g = gens[0].domain
    for f in gens:
        if f.domain != g or f.codomain != g:
            raise FormatError("generators must share one graph")
        if any(e < 0 for j in range(f.domain.n_edges)
               for e in f.edge_image(j + 1)):
            raise FormatError("walk generators must be positive maps")
    rng = random.Random(config.seed)
    cumulative = []
    acc = Fraction(0)
    for w in weights:
        acc += w
        cumulative.append((acc.numerator, acc.denominator))
    n = g.n_edges
    zero = (0,) * n
    C = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    choices = []
    displacement = [0.0]
    lengths = [tuple(1.0 / n for _ in g.edge_ids)]
    plans = [_row_plan(f) for f in gens]
    for _ in range(config.steps):
        a, b = rng.random().as_integer_ratio()
        pick = _pick(a, b, cumulative)
        choices.append(pick)
        C = [tuple(map(sum, zip(*[C[t] for t in ts]))) if ts else zero
             for ts in plans[pick]]
        lam = [sum(col) for col in zip(*C)]
        displacement.append(frac_log(max(lam)))
        vol = sum(lam)
        lengths.append(tuple(x / vol for x in lam))
    half = len(displacement) // 2
    xs = list(range(half, len(displacement)))
    ys = displacement[half:]
    escape = statistics.linear_regression(xs, ys).slope
    chunk_slopes = []
    n_chunks = 6
    size = max(2, len(xs) // n_chunks)
    for c in range(0, len(xs) - size + 1, size):
        seg_x = xs[c:c + size]
        seg_y = ys[c:c + size]
        chunk_slopes.append(statistics.linear_regression(seg_x, seg_y).slope)
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

"""Seeded random walks on rank-2 marked roses.

Each step composes a randomly chosen positive rose map onto the marking;
displacement from the base point is the one-sided stretch distance
log max(|phi(a)|, |phi(b)|, (|phi(a)|+|phi(b)|)/2), which is exact for
positive compositions: the inverse-orientation candidate a b^-1 only loses
length to cancellation, so the three positive candidates realize the
maximum.  Generator choice depends only on the seed and the generator
set, not on input ordering.
"""

import random
import statistics
from dataclasses import dataclass
from fractions import Fraction

from .errors import FormatError
from .graphs import rose
from .linalg import frac_log, identity, mat_mul
from .morphisms import GraphMorphism


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


def _positive_stretch(cols):
    """Max candidate stretch of the composition whose count matrix has
    column sums ``cols``: single-letter loops stretch by their column sum,
    the two-letter loop by half the total mass."""
    return max(Fraction(max(cols)), Fraction(sum(cols), len(cols)))


def run_walk(config):
    if config.steps < 2:
        raise FormatError(f"a walk needs at least 2 steps, got {config.steps}")
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

"""Canned sequence generators: the golden-ratio rose iteration, alternating
block schedules with disjoint (or interacting) expanding pairs, and custom
user chains.

Block schedules are stored as runs of unit steps with block boundary
metadata; storing literal powers would require composite edge images whose
lengths grow with Fibonacci numbers of the block size.
"""

from dataclasses import dataclass, field
from itertools import accumulate

from .errors import FormatError
from .graphs import rose
from .morphisms import GraphMorphism
from .sequences import FoldingSequence
from . import io_formats


def _rose_step(g, images):
    vmap = {v: v for v in g.vertices}
    return GraphMorphism(g, g, vmap, images)


@dataclass
class GeneratedExample:
    name: str
    sequence: FoldingSequence
    notes: dict = field(default_factory=dict)

    def write(self, directory, name=None):
        return io_formats.write_sequence(self.sequence, directory,
                                         name or self.name)


def fibonacci_step(g=None):
    g = g or rose("ab")
    return _rose_step(g, {"a": "a b", "b": "a"})


def gen_fibonacci(steps=40, direction="unfolding"):
    g = rose("ab")
    f = fibonacci_step(g)
    seq = FoldingSequence.from_runs([(f, steps)], direction)
    return GeneratedExample(name="fibonacci", sequence=seq,
                            notes={"rank": 2, "steps": steps,
                                   "direction": direction})


_DEFAULT_SCHEDULE = (4, 16, 64, 256, 1024, 4096)


def gen_alternating_block(schedule=_DEFAULT_SCHEDULE, rank=4,
                          direction="unfolding"):
    """Alternate two expanding pairs with geometrically growing block
    lengths.

    rank 4: the pairs a,b and c,d never interact, giving two ergodic
    length/current classes.  rank 3: the third edge feeds on whichever
    pair is active, coupling the blocks.
    """
    if rank == 4:
        g = rose("abcd")
        stepA = _rose_step(g, {"a": "a b", "b": "a", "c": "c", "d": "d"})
        stepB = _rose_step(g, {"a": "a", "b": "b", "c": "c d", "d": "c"})
    elif rank == 3:
        g = rose("abc")
        stepA = _rose_step(g, {"a": "a b", "b": "a", "c": "c a"})
        stepB = _rose_step(g, {"a": "b a", "b": "a", "c": "c b"})
    else:
        raise FormatError("alternating blocks come at rank 3 or 4")
    runs = [(stepB if i % 2 else stepA, length)
            for i, length in enumerate(schedule)]
    boundaries = list(accumulate(max(0, length) for _, length in runs))
    seq = FoldingSequence.from_runs(runs, direction,
                                    block_boundaries=boundaries)
    return GeneratedExample(name=f"alternating{rank}", sequence=seq,
                            notes={"rank": rank,
                                   "schedule": tuple(schedule),
                                   "boundaries": tuple(boundaries),
                                   "direction": direction})


def gen_custom(morphisms, direction, block_boundaries=None):
    seq = FoldingSequence(morphisms, direction,
                          block_boundaries=block_boundaries)
    return GeneratedExample(name="custom", sequence=seq,
                            notes={"direction": direction})


def gen_example(name, **kwargs):
    """Dispatch by example name: fibonacci | alternating_block | custom."""
    if name == "fibonacci":
        return gen_fibonacci(**kwargs)
    if name == "alternating_block":
        return gen_alternating_block(**kwargs)
    if name == "custom":
        return gen_custom(**kwargs)
    raise FormatError(f"unknown example {name!r}")

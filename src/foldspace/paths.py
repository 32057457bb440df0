"""Edge paths as tuples of signed edge indices.

An oriented edge is a nonzero int: +k is the positive orientation of the
unoriented edge with 1-based index k, -k its reverse.  A path is a tuple of
oriented edges; the empty tuple is the trivial path.  Reversal negates and
reverses.  A turn is an unordered pair of oriented edges; a path crosses the
turn (-a, b) where a is followed by b.  These helpers are graph-agnostic;
composability checks live on OrientedGraph, which knows endpoints.
"""

from itertools import takewhile
from operator import add, neg, not_

from .errors import MalformedPathError


def reverse_path(path):
    return tuple(map(neg, reversed(path)))


def _turn(x, y):
    """Canonical unordered pair of oriented edges (a turn)."""
    kx = (abs(x), 0 if x > 0 else 1)
    ky = (abs(y), 0 if y > 0 else 1)
    return (x, y) if kx <= ky else (y, x)


def path_turns(path):
    """Turns crossed at the junctions of a reduced path."""
    return {_turn(-a, b) for a, b in zip(path, path[1:])}


def is_reduced(path):
    return all(path[i] != -path[i + 1] for i in range(len(path) - 1))


def is_cyclically_reduced(path):
    if not is_reduced(path):
        return False
    return len(path) < 2 or path[0] != -path[-1]


def tighten(path):
    """Freely reduce: cancel adjacent (e, -e) pairs until none remain."""
    out = []
    for e in path:
        if out and out[-1] == -e:
            out.pop()
        else:
            out.append(e)
    return tuple(out)


def cyclic_tighten(path):
    """Freely reduce as a cyclic word (reduce, then cancel around the seam)."""
    return _cyclic_core(tighten(path))


def _cancelled(x, y):
    """How many first letters of y cancel the last letters of x: the run of
    zero sums x[-1-i] + y[i], counted at C speed."""
    return len(list(takewhile(not_, map(add, reversed(x), y))))


def _cyclic_core(word):
    """Cyclic reduction of a reduced word: drop the first k letters and the
    last k, where the first k cancel the last k around the seam (the count
    stops by itself at the middle, since a reduced word has no x x^-1)."""
    k = _cancelled(word, word) if word and word[0] == -word[-1] else 0
    return word[k:len(word) - k]


def _join_reduced(pieces):
    """``tighten`` of the concatenation of reduced pieces.

    A reduced piece cancels only against the top of what is joined so far,
    so each junction costs its cancelled letters, counted at C speed, plus
    one ``extend``, not a pass over the letters of the pieces.
    """
    out = []
    for p in pieces:
        if out and p and out[-1] == -p[0]:
            k = _cancelled(out, p)
            del out[-k:]
            p = p[k:]
        out.extend(p)
    return tuple(out)


def concat_reduced(*paths):
    """Concatenate and tighten."""
    joined = []
    for p in paths:
        joined.extend(p)
    return tighten(joined)


def count_occurrences(word, pattern):
    """Occurrences of ``pattern`` as a contiguous subword of ``word``,
    overlaps allowed, orientation not symmetrized."""
    if not pattern or len(pattern) > len(word):
        return 0
    k = len(pattern)
    first = pattern[0]
    total = 0
    for i in range(len(word) - k + 1):
        if word[i] == first and word[i:i + k] == pattern:
            total += 1
    return total


def cyclic_rotations(path):
    n = len(path)
    return [path[i:] + path[:i] for i in range(n)] or [path]


def canonical_cycle(path):
    """Canonical representative of a cyclic path up to rotation and reversal.

    Deterministic (lexicographic minimum over all rotations of both
    orientations); used to deduplicate candidate loops and cycles.
    """
    if not path:
        return path
    best = None
    for p in (path, reverse_path(path)):
        for rot in cyclic_rotations(p):
            if best is None or rot < best:
                best = rot
    return best


def require_reduced(path, what="path"):
    if not is_reduced(path):
        raise MalformedPathError(f"{what} is not reduced: {path}")
    return path

"""Edge paths as tuples of signed edge indices.

An oriented edge is a nonzero int: +k is the positive orientation of the
unoriented edge with 1-based index k, -k its reverse.  A path is a tuple of
oriented edges; the empty tuple is the trivial path.  Reversal negates and
reverses.  A turn is an unordered pair of oriented edges; a path crosses the
turn (-a, b) where a is followed by b.  These helpers are graph-agnostic;
composability checks live on OrientedGraph, which knows endpoints.
"""

from .errors import MalformedPathError


def reverse_path(path):
    return tuple(-e for e in reversed(path))


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
    out = list(tighten(path))
    while len(out) >= 2 and out[0] == -out[-1]:
        out = out[1:-1]
    return tuple(out)


def cyclic_reduced_length(pieces):
    """``len(cyclic_tighten(concatenation of pieces))`` for reduced pieces,
    without forming the concatenation.

    A reduced piece cancels only at its junctions, so a stack of slices
    (piece, lo, hi), whose concatenation is the reduced prefix, meets each
    new piece at its top; the seam is then cancelled from both ends.  The
    cost grows with the number of pieces plus the cancellation, not with
    the pieces' lengths.  Empty pieces are skipped; 0 means the loop
    collapses.
    """
    stack = []
    n = 0
    for p in pieces:
        lo, hi = 0, len(p)
        while lo < hi and stack:
            q, qlo, qhi = stack[-1]
            m = min(hi - lo, qhi - qlo)
            k = 0
            while k < m and q[qhi - 1 - k] == -p[lo + k]:
                k += 1
            lo += k
            n -= k
            if k < qhi - qlo:
                if k:
                    stack[-1] = (q, qlo, qhi - k)
                break
            stack.pop()
        if lo < hi:
            stack.append((p, lo, hi))
            n += hi - lo
    if n < 2:
        return n
    a, b = 0, len(stack) - 1
    qa, i, ahi = stack[a]
    qb, blo, j = stack[b]
    while n >= 2:
        if i == ahi:
            a += 1
            qa, i, ahi = stack[a]
        if j == blo:
            b -= 1
            qb, blo, j = stack[b]
        if qa[i] != -qb[j - 1]:
            break
        i += 1
        j -= 1
        n -= 2
    return n


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

"""Nested-cone analysis: Hilbert projective metric, truncated cones of
currents/length measures, and unique-ergodicity verdicts.

The cone of currents (resp. length measures) carried by a sequence is the
nested intersection of images of standard cones under incidence-matrix
products.  At finite depth we report the generator columns, their Hilbert
projective diameter, a clustering of near-parallel generators, and a verdict
derived from the diameter profile across depths.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import DirectionError, SequenceError
from .linalg import frac_log, identity, log_ratio

INF = float("inf")


def _cross(x, y):
    """The cross-ratio max_i x_i/y_i over min_i x_i/y_i on the common
    support, as an unreduced pair (n, d) found by cross-multiplying; None
    when the supports differ or are empty."""
    if len(x) != len(y):
        raise ValueError("vectors of different dimension")
    sup = [i for i, v in enumerate(x) if v != 0]
    if not sup or sup != [i for i, v in enumerate(y) if v != 0]:
        return None
    hi = lo = sup[0]
    for i in sup[1:]:
        if x[i] * y[hi] > x[hi] * y[i]:
            hi = i
        elif x[i] * y[lo] < x[lo] * y[i]:
            lo = i
    return x[hi] * y[lo], y[hi] * x[lo]


def hilbert_distance(x, y):
    """Hilbert projective distance between nonnegative vectors.

    Returns ``(float, exact_ratio_or_None)``; vectors with different supports
    are infinitely far apart (ratio None).
    """
    pair = _cross(x, y)
    if pair is None:
        return INF, None
    cross = Fraction(*pair)
    return frac_log(cross), cross


def _widest(vectors):
    """Unreduced cross-ratio (n, d) of the widest pair of vectors: (1, 1)
    for fewer than two, None when some pair has split supports."""
    worst = (1, 1)
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            pair = _cross(vectors[i], vectors[j])
            if pair is None:
                return None
            if pair[0] * worst[1] > worst[0] * pair[1]:
                worst = pair
    return worst


def set_diameter(vectors):
    """Max pairwise Hilbert distance; (0.0, 1) for a single generator.

    The maximum is taken over the exact cross-ratios, so deep cones whose
    float distance underflows to 0.0 still report the true extremal ratio.
    """
    worst = _widest(vectors)
    if worst is None:
        return INF, None
    ratio = Fraction(*worst)
    return frac_log(ratio), ratio


def _log_width(vectors):
    """``set_diameter(vectors)[0]`` without reducing the exact ratio, whose
    gcd is the largest cost of a deep cone's profile."""
    worst = _widest(vectors)
    return INF if worst is None else log_ratio(*worst)


def cluster_generators(vectors, tol):
    """Union-find clusters merging generators at Hilbert distance < tol."""
    parent = list(range(len(vectors)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            if _log_width((vectors[i], vectors[j])) < tol:
                parent[find(j)] = find(i)
    clusters = {}
    for i in range(len(vectors)):
        clusters.setdefault(find(i), []).append(i)
    return tuple(tuple(v) for _, v in sorted(clusters.items()))


def _proportional(x, y):
    """x = c*y for some c > 0, exactly."""
    c = None
    for a, b in zip(x, y):
        if (a == 0) != (b == 0):
            return False
        if b != 0:
            r = Fraction(a) / Fraction(b)
            if c is None:
                c = r
            elif r != c:
                return False
    return c is not None and c > 0


def _in_pair_hull(target, g, h):
    """Is target an exact nonnegative combination of g and h?"""
    n = len(target)
    for i in range(n):
        for j in range(i + 1, n):
            det = g[i] * h[j] - g[j] * h[i]
            if det == 0:
                continue
            s = (target[i] * h[j] - target[j] * h[i]) / det
            t = (g[i] * target[j] - g[j] * target[i]) / det
            if s < 0 or t < 0:
                return False
            ok = all(s * g[k] + t * h[k] == target[k] for k in range(n))
            return ok
    # g and h projectively equal: reduces to proportionality
    return _proportional(target, g)


def extreme_ray_indices(vectors, cluster_reps):
    """Representatives not expressible from any one or two of the others.

    Pairwise testing only (no full LP), so the result can overestimate the
    extreme set; at the ambient dimensions in play (<= 3N-3) it is exact
    whenever at most three rays survive clustering.
    """
    out = []
    for r in cluster_reps:
        target = vectors[r]
        others = [vectors[o] for o in cluster_reps if o != r]
        spanned = any(_proportional(target, g) for g in others)
        if not spanned:
            for a in range(len(others)):
                for b in range(a + 1, len(others)):
                    if _in_pair_hull(target, others[a], others[b]):
                        spanned = True
                        break
                if spanned:
                    break
        if not spanned:
            out.append(r)
    return tuple(out)


@dataclass(frozen=True)
class ConeApprox:
    """Truncated nested cone with its Hilbert-geometry report.

    ``generators`` are l1-normalized exact columns; ``diameter_profile``
    pairs sampled depths with float diameters (inf for split supports);
    ``dimension`` is the cluster count at ``tol``.
    """
    kind: str
    depth: int
    ambient_dim: int
    generators: tuple
    diameter: float
    diameter_ratio: object
    diameter_profile: tuple
    clusters: tuple
    extreme_rays: tuple
    dimension: int
    tol: float


def _normalize_l1(col):
    s = sum(col, Fraction(0))
    if s == 0:
        return tuple(Fraction(x) for x in col)
    return tuple(Fraction(x) / s for x in col)


def _sample_depths(depth, boundaries, limit=64):
    if depth <= limit:
        depths = set(range(1, depth + 1))
    else:
        depths = {1 + (k * (depth - 1)) // (limit - 1) for k in range(limit)}
        depths.add(depth)
        depths |= {d for d in boundaries if 1 <= d <= depth}
    return sorted(depths)


def _generators(prod, kind):
    """Columns of a current cone's product, rows of a length cone's."""
    return list(zip(*prod)) if kind == "current" else list(map(tuple, prod))


def _build_cone(seq, depth, kind, tol):
    if depth < 0 or depth > seq.n_steps:
        raise SequenceError(
            f"depth {depth} outside the stored range 0..{seq.n_steps}")
    T = seq.n_steps
    if kind == "current":
        # unit rows pulled back: the columns of M_{T-1} ... M_{T-depth}
        carry, order = "length", range(T - 1, T - depth - 1, -1)
        bound_depths = {T - b for b in seq.block_boundaries}
    else:
        # unit columns pushed forward: the rows of M_{depth-1} ... M_0
        carry, order = "current", range(depth)
        bound_depths = set(seq.block_boundaries)
    want = _sample_depths(depth, bound_depths)
    # level 0 is the right end of an unfolding and the left end of a folding
    ambient = seq.graph_at(0).n_edges
    prod = identity(ambient)
    profile = []
    # products are formed only at the sampled depths, which include depth
    for step_count, prod in seq._carry(prod, carry, order, want):
        profile.append((step_count, _log_width(_generators(prod, kind))))
    cols = _generators(prod, kind)
    diameter, ratio = set_diameter(cols)
    if not depth:
        profile.append((0, diameter))
    generators = tuple(_normalize_l1(c) for c in cols)
    # the distances are projective: the integer columns give the same
    # clusters as the normalized generators, without their gcds
    clusters = cluster_generators(cols, tol)
    reps = tuple(c[0] for c in clusters)
    extremes = extreme_ray_indices(generators, reps)
    return ConeApprox(kind=kind, depth=depth, ambient_dim=ambient,
                      generators=generators, diameter=diameter,
                      diameter_ratio=ratio,
                      diameter_profile=tuple(profile),
                      clusters=clusters, extreme_rays=extremes,
                      dimension=len(clusters), tol=tol)


def current_cone(seq, depth, *, tol=1e-8):
    """Image of the depth-m standard current cone in the right-end graph.

    The sequence must be read as unfolding; depth m uses the last m steps
    (levels -m..0).
    """
    if seq.direction != "unfolding":
        raise DirectionError("current cones live on unfolding sequences")
    return _build_cone(seq, depth, "current", tol)


def length_cone(seq, depth, *, tol=1e-8):
    """Image of the depth-n standard length cone in the level-0 graph of a
    folding sequence (columns of the transposed product)."""
    if seq.direction != "folding":
        raise DirectionError("length cones live on folding sequences")
    return _build_cone(seq, depth, "length", tol)


@dataclass(frozen=True)
class ErgodicityVerdict:
    kind: str          # unique | multiple | undecided
    k: int
    tol: float
    final_diameter: float
    detail: str

    def __str__(self):
        if self.kind == "multiple":
            return f"multiple({self.k})"
        return self.kind


def ergodicity_verdict(cone, tol=1e-8):
    """Decide unique/multiple/undecided from the cone's diameter profile.

    Unique when the final diameter is below tol.  Multiple when the trailing
    half of the profile shows no contraction: either the supports stay split
    (all infinite) or the finite entries fail to halve.  Anything else is
    undecided.  k is the cluster count at tol, re-derived if tol differs
    from the cone's.
    """
    profile = cone.diameter_profile
    final = cone.diameter
    if tol == cone.tol:
        clusters = cone.clusters
    else:
        clusters = cluster_generators(cone.generators, tol)
    k = len(clusters)
    if final < tol:
        return ErgodicityVerdict("unique", 1, tol, final,
                                 "final diameter below tolerance")
    if len(profile) < 2:
        return ErgodicityVerdict("undecided", k, tol, final,
                                 "profile too short to judge contraction")
    trailing = [d for _, d in profile[len(profile) // 2:]]
    finite = [d for d in trailing if d != INF]
    if not finite:
        return ErgodicityVerdict(
            "multiple", k, tol, final,
            "generator supports stay split over the trailing depths")
    if finite[0] < 2 * finite[-1]:
        return ErgodicityVerdict(
            "multiple", k, tol, final,
            "no factor-2 contraction over the trailing depths")
    return ErgodicityVerdict("undecided", k, tol, final,
                             "diameter still contracting at the final depth")

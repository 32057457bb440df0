"""Folding/unfolding sequences, their measure tracks, and reducedness checks.

A sequence is a chain of change-of-marking morphisms.  Internally the graphs
are indexed 0..T in map direction; the public ``level`` labels depend on the
reading: a folding sequence has levels 0..T, an unfolding sequence has levels
-T..0 (the maps still point toward level 0).

Validation does two jobs.  Each step must individually be a change of
marking, and all composite edge images must stay reduced.  The latter is
checked in a single forward pass that propagates the set of "taken" turns
(junctions crossed by composite images): a composite unreduces exactly when a
taken turn is mapped onto a degenerate turn, i.e. the two first edges of the
step images agree.  The per-level taken-turn sets are retained; the
lamination analysis harvests its language from them.
"""

from fractions import Fraction

from .errors import (BudgetExceededError, DirectionError, DimensionMismatchError,
                     InvalidTrackError, SequenceError)
from .linalg import (dot, frac_log, identity, mat_mul, mat_vec,
                     transpose_vec)
from .morphisms import validate_change_of_marking
from .paths import _turn, path_turns, reverse_path  # path_turns re-exported

EXPANSION_BUDGET = 10_000_000


def check_expansion(total, budget=EXPANSION_BUDGET):
    """Refuse a composite image of ``total`` edges beyond the budget."""
    if total > budget:
        raise BudgetExceededError(
            f"composite image of length {total} exceeds the expansion "
            f"budget {budget}")


class FoldingSequence:
    """Finite chain G_0 -> G_1 -> ... -> G_T of change-of-marking morphisms.

    Parameters
    ----------
    morphisms : list of GraphMorphism
        Step maps in map direction; consecutive domains/codomains must agree.
    direction : {"folding", "unfolding"}
        Folding reads levels 0..T left to right; unfolding labels the same
        chain -T..0 (deep past on the left).
    validate : bool
        Check every step is a change of marking and that no composite image
        cancels.  Skipping is for deliberately degenerate control sequences.
    block_boundaries : optional iterable of int
        Internal indices marking block starts (metadata for generated
        examples; used to pick reporting depths).
    """

    def __init__(self, morphisms, direction="folding", *, validate=True,
                 block_boundaries=None):
        morphisms = list(morphisms)
        if not morphisms:
            raise SequenceError("a sequence needs at least one step")
        if direction not in ("folding", "unfolding"):
            raise DirectionError(f"unknown direction {direction!r}")
        for i in range(len(morphisms) - 1):
            if morphisms[i].codomain != morphisms[i + 1].domain:
                raise SequenceError(f"steps {i} and {i + 1} do not chain")
        self.morphisms = tuple(morphisms)
        self.direction = direction
        self.block_boundaries = (tuple(sorted(block_boundaries))
                                 if block_boundaries else ())
        self._expansions = {}
        self._taken = None
        self.step_runs = self._run_length_encode()
        if validate:
            self.validate()

    # -- indexing --------------------------------------------------------

    @property
    def n_steps(self):
        return len(self.morphisms)

    @property
    def levels(self):
        T = self.n_steps
        return range(0, T + 1) if self.direction == "folding" \
            else range(-T, 1)

    def _internal(self, level):
        T = self.n_steps
        i = level if self.direction == "folding" else level + T
        if not 0 <= i <= T:
            raise SequenceError(f"level {level} outside the sequence")
        return i

    def graph_at(self, level):
        i = self._internal(level)
        if i < self.n_steps:
            return self.morphisms[i].domain
        return self.morphisms[-1].codomain

    def step_at(self, level):
        """Morphism from ``level`` to ``level + 1``."""
        i = self._internal(level)
        if i >= self.n_steps:
            raise SequenceError(f"no step starts at level {level}")
        return self.morphisms[i]

    def matrix_at(self, level):
        i = self._internal(level)
        if i >= self.n_steps:
            raise SequenceError(f"no step starts at level {level}")
        return self._matrix(i)

    def _matrix(self, i):
        return self.morphisms[i].incidence_matrix()

    def _run_length_encode(self):
        """Maximal runs of identical step objects: (start, length, morphism)."""
        runs = []
        i = 0
        while i < len(self.morphisms):
            j = i
            while (j + 1 < len(self.morphisms)
                   and self.morphisms[j + 1] is self.morphisms[i]):
                j += 1
            runs.append((i, j - i + 1, self.morphisms[i]))
            i = j + 1
        return tuple(runs)

    # -- validation ------------------------------------------------------

    def validate(self):
        """Per-step change-of-marking checks plus the no-cancellation pass."""
        for start, _, f in self.step_runs:
            if not validate_change_of_marking(f):
                raise SequenceError(
                    f"step {start} is not a change of marking")
        self._propagate_taken()

    def _propagate_taken(self):
        """Forward pass computing taken-turn sets; detects cancellation."""
        taken = [frozenset()]
        for i, f in enumerate(self.morphisms):
            if i and f is self.morphisms[i - 1] and taken[-1] == taken[-2]:
                # a repeated step fixes the set it fixed one level before
                taken.append(taken[-1])
                continue
            fmap = f.first_edge_map()
            nxt = set(f.image_turns())
            for x, y in taken[-1]:
                fx, fy = fmap[x], fmap[y]
                if fx == fy:
                    G = f.domain
                    raise SequenceError(
                        "composite image cancels at internal step "
                        f"{i}: taken turn ({G.token(x)},{G.token(y)}) maps "
                        f"to a degenerate turn at {f.codomain.token(fx)}")
                nxt.add(_turn(fx, fy))
            taken.append(frozenset(nxt))
        self._taken = tuple(taken)

    def taken_turns_at(self, level):
        """Turns of G_level crossed by composite images from the left end."""
        if self._taken is None:
            self._propagate_taken()
        return self._taken[self._internal(level)]

    # -- composites ------------------------------------------------------

    def composite_matrix(self, level_from, level_to):
        """Product of step matrices from ``level_from`` up to ``level_to``."""
        a, b = self._internal(level_from), self._internal(level_to)
        if a > b:
            raise SequenceError("composite runs against map direction")
        prod = identity(self.graph_at(level_from).n_edges)
        for prod in self._carry(prod, "current", range(a, b)):
            pass
        return prod

    def first_edge_composite(self, level_from, level_to=None):
        """First-edge map of the composite morphism (defaults to the right
        end)."""
        a = self._internal(level_from)
        b = self.n_steps if level_to is None else self._internal(level_to)
        if a > b:
            raise SequenceError("composite runs against map direction")
        fmap = {e: e for e in self.graph_at(level_from).oriented_edges()}
        for i in range(a, b):
            step = self.morphisms[i].first_edge_map()
            fmap = {e: step[v] for e, v in fmap.items()}
        return fmap

    def image_lengths(self, level):
        """Simplicial lengths of composite images into the right end."""
        i = self._internal(level)
        block = [[1] * self.graph_at(self.levels[-1]).n_edges]
        for block in self._carry(block, "length",
                                 range(self.n_steps - 1, i - 1, -1)):
            pass
        return block[0]

    def _carry(self, vectors, kind, steps):
        """Yield a block of vectors after each internal step in ``steps``.
        Length vectors are its rows (V -> V M_i), currents its columns
        (V -> M_i V)."""
        for i in steps:
            M = self._matrix(i)
            vectors = mat_mul(vectors, M) if kind == "length" \
                else mat_mul(M, vectors)
            yield vectors

    def expansion(self, level, oriented, *, budget=EXPANSION_BUDGET):
        """Composite image of an oriented edge in the right-end graph.

        Memoized per positive edge; raises when the expanded length would
        exceed ``budget`` edges.
        """
        i = self._internal(level)
        if oriented < 0:
            return reverse_path(self.expansion(level, -oriented,
                                               budget=budget))
        key = (i, oriented)
        if key in self._expansions:
            return self._expansions[key]
        check_expansion(self.image_lengths(level)[oriented - 1], budget)
        path = self._expand(i, oriented)
        self._expansions[key] = path
        return path

    def _expand(self, i, oriented):
        T = self.n_steps
        if i == T:
            return (oriented,)
        key = (i, oriented)
        if key in self._expansions:
            return self._expansions[key]
        if oriented < 0:
            return reverse_path(self._expand(i, -oriented))
        out = []
        for e in self.morphisms[i].edge_image(oriented):
            out.extend(self._expand(i + 1, e))
        path = tuple(out)
        self._expansions[key] = path
        return path


# -- measure tracks ------------------------------------------------------


def _exact(vector):
    """An all-int vector stays int; any other vector becomes Fractions."""
    v = tuple(vector)
    return v if all(type(x) is int for x in v) else tuple(map(Fraction, v))


class MeasureTrack:
    """Nonnegative exact vectors satisfying a length or current recurrence;
    a level's entries are ints when all of them are, else Fractions.

    Length kind: v_n = M_n^T v_{n+1} (pulled back from the right end).
    Current kind: v_{n+1} = M_n v_n (pushed forward from the left end).
    """

    def __init__(self, seq, kind, vectors):
        if kind not in ("length", "current"):
            raise InvalidTrackError(f"unknown track kind {kind!r}")
        self.seq = seq
        self.kind = kind
        vecs = []
        for level, v in zip(seq.levels, vectors):
            v = _exact(v)
            if len(v) != seq.graph_at(level).n_edges:
                raise DimensionMismatchError(
                    f"track vector at level {level} has wrong dimension")
            if any(x < 0 for x in v):
                raise InvalidTrackError(
                    f"negative entry at level {level}")
            vecs.append(v)
        if len(vecs) != seq.n_steps + 1:
            raise DimensionMismatchError(
                "track must store one vector per level")
        self._vectors = tuple(vecs)

    def at(self, level):
        return self._vectors[self.seq._internal(level)]

    @property
    def levels(self):
        return self.seq.levels

    def validate(self):
        """Exact recurrence check; raises on the first violation."""
        seq = self.seq
        for level in list(seq.levels)[:-1]:
            M = seq.matrix_at(level)
            cur, nxt = self.at(level), self.at(level + 1)
            if (tuple(transpose_vec(M, nxt)) != cur if self.kind == "length"
                    else tuple(mat_vec(M, cur)) != nxt):
                raise InvalidTrackError(
                    f"{self.kind} recurrence fails at level {level}")

    def __repr__(self):
        return f"MeasureTrack({self.kind}, {self.seq.n_steps + 1} levels)"


def length_track_from_terminal(seq, terminal_vector):
    """Pull a length vector back from the right end through every step."""
    block = [_exact(terminal_vector)]
    steps = range(seq.n_steps - 1, -1, -1)
    out = [block[0]] + [b[0] for b in seq._carry(block, "length", steps)]
    return MeasureTrack(seq, "length", out[::-1])


def current_track_from_initial(seq, initial_vector):
    """Push a current forward from the left end through every step."""
    block = [[x] for x in _exact(initial_vector)]
    out = [block, *seq._carry(block, "current", range(seq.n_steps))]
    return MeasureTrack(seq, "current", [[r[0] for r in b] for b in out])


def simplicial_length_measure(seq):
    """Track with lambda = 1 at level 0 of an unfolding sequence; then
    lambda_n(e) is the simplicial length of the composite image of e."""
    if seq.direction != "unfolding":
        raise DirectionError(
            "the simplicial length measure lives on unfolding sequences")
    n = seq.graph_at(0).n_edges
    return length_track_from_terminal(seq, [1] * n)


def frequency_current(seq):
    """Track with mu = 1 at level 0 of a folding sequence; then mu_n(e)
    counts traversals of e by composite images of level-0 edges."""
    if seq.direction != "folding":
        raise DirectionError(
            "the frequency current lives on folding sequences")
    n = seq.graph_at(0).n_edges
    return current_track_from_initial(seq, [1] * n)


def area(seq, length_track, current_track):
    """The pairing mu_n . lambda_n, checked to be level-independent."""
    if length_track.kind != "length" or current_track.kind != "current":
        raise InvalidTrackError("area needs a length track and a current "
                                "track, in that order")
    if length_track.seq is not seq or current_track.seq is not seq:
        raise InvalidTrackError("tracks belong to a different sequence")
    length_track.validate()
    current_track.validate()
    levels = list(seq.levels)
    value = dot(current_track.at(levels[0]), length_track.at(levels[0]))
    for level in levels[1:]:
        other = dot(current_track.at(level), length_track.at(level))
        if other != value:
            raise InvalidTrackError(
                f"area is not invariant: {value} at level {levels[0]}, "
                f"{other} at level {level}")
    return value


# -- decay report --------------------------------------------------------


def _trend_nondecreasing(series):
    tail = series[len(series) // 2:]
    return all(a <= b for a, b in zip(tail, tail[1:]))


def decay_check(seq, length_track=None, current_track=None):
    """Per-level extremes of the tracks, with growth/decay trend flags.

    On a reduced sequence the deep-end simplicial lengths blow up and the
    frequency current grows toward the fold end; a sequence whose extremes
    stay flat is flagged as inconsistent with reducedness.
    """
    levels = list(seq.levels)
    report = {"levels": tuple(levels)}
    flags = {}
    if length_track is not None:
        maxima = [max(length_track.at(n)) for n in levels]
        # deep end is the left end: reverse so "growth" reads left-ward
        rev = list(reversed(maxima))
        growing = _trend_nondecreasing(rev) and rev[-1] > rev[0]
        report["lambda_max_log"] = tuple(
            frac_log(v) if v > 0 else float("-inf") for v in maxima)
        flags["lambda_deep_growth"] = growing
    if current_track is not None:
        minima = [min(current_track.at(n)) for n in levels]
        maxima = [max(current_track.at(n)) for n in levels]
        growing = _trend_nondecreasing(minima) and minima[-1] > minima[0]
        report["mu_min_log"] = tuple(
            frac_log(v) if v > 0 else float("-inf") for v in minima)
        report["mu_max_log"] = tuple(
            frac_log(v) if v > 0 else float("-inf") for v in maxima)
        flags["mu_growth"] = growing
    flags["reduced_consistent"] = all(flags.values()) if flags else False
    report["flags"] = flags
    return report


# -- reducedness windows -------------------------------------------------


def is_reduced_window(seq, window, *, max_edges=15):
    """Search a window for a stabilized subgraph chain.

    A witness is a chain of proper nonempty edge subsets mapped bijectively,
    edge-to-single-edge, by every step of the window.  Finding none is
    necessary (not sufficient) evidence of reducedness.  Returns a dict with
    ``passed`` and, when failed, the witness chain as edge-name sets.
    """
    n0, n1 = window
    levels = [n for n in seq.levels if n0 <= n <= n1]
    if len(levels) < 2 or levels[0] != n0 or levels[-1] != n1:
        raise SequenceError(f"window {window} outside the sequence range")
    g0 = seq.graph_at(n0)
    E = g0.n_edges
    if E > max_edges:
        raise BudgetExceededError(
            f"subgraph enumeration over {E} edges exceeds the budget")
    # candidate starting subsets, smallest first, lexicographic within size
    names = list(g0.edge_ids)
    subsets = []
    for mask in range(1, (1 << E) - 1):
        subsets.append(frozenset(names[i] for i in range(E)
                                 if mask >> i & 1))
    subsets.sort(key=lambda s: (len(s), tuple(sorted(s))))
    for start in subsets:
        chain = [start]
        alive = True
        for level in levels[:-1]:
            f = seq.step_at(level)
            cur = chain[-1]
            image = set()
            for name in cur:
                p = f.edge_image(f.domain.edge_index(name))
                if len(p) != 1:
                    alive = False
                    break
                image.add(f.codomain.edge_name(p[0]))
            if not alive or len(image) != len(cur) \
                    or len(image) >= f.codomain.n_edges:
                alive = False
                break
            chain.append(frozenset(image))
        if alive:
            return {"passed": False,
                    "witness": tuple(tuple(sorted(s)) for s in chain),
                    "window": (n0, n1)}
    return {"passed": True, "witness": None, "window": (n0, n1)}

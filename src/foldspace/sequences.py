"""Folding/unfolding sequences, their measure tracks, and reducedness checks.

A sequence is a chain of change-of-marking morphisms, stored as runs of one
step object (``step_runs``).  Internally the graphs are indexed 0..T in map
direction; the public ``level`` labels depend on the reading: a folding
sequence has levels 0..T, an unfolding sequence has levels -T..0 (the maps
still point toward level 0).

Validation does two jobs, per run.  Each step must be a change of marking,
and all composite edge images must stay reduced.  The latter propagates the
set of "taken" turns (junctions crossed by composite images): a composite
unreduces exactly when a taken turn is mapped onto a degenerate turn, i.e.
the two first edges of the step images agree.  A step f maps the set T to
C | g(T) (its image turns and its action on turns), so a run's sets form an
``orbit``, kept and checked once per distinct set; the lamination analysis
harvests its language from them.

Exact transport is run-aware: ``FoldingSequence._carry`` moves a block of
vectors across a run of k identical steps as one product with M^k, formed
by repeated squaring, so it costs O(log k) matrix products instead of k.
Measure tracks are lazy: they keep checkpoint vectors and carry from the
nearest one on demand, so an analysis that reads a window deep in the
sequence pays for its window and for O(log k) products per run on the way,
not for every step.
"""

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property
from itertools import count, islice

from .errors import (BudgetExceededError, DirectionError, DimensionMismatchError,
                     InvalidTrackError, SequenceError)
from .linalg import (dot, identity, mat_mul, mat_pow, mat_vec,
                     transpose_vec)
from .morphisms import validate_change_of_marking
from .paths import _turn, path_turns  # path_turns re-exported

EXPANSION_BUDGET = 10_000_000
# bits an exact entry may reach in one carry; the Fibonacci power M^k has
# about 0.69 k bits and takes about 0.6 s to form at k = 10^6, 20 s at 10^7
CARRY_BIT_BUDGET = 2_000_000


def check_expansion(total, budget=EXPANSION_BUDGET):
    """Refuse a composite image of ``total`` edges beyond the budget."""
    if total > budget:
        raise BudgetExceededError(
            f"composite image of length {total} exceeds the expansion "
            f"budget {budget}")


def orbit(advance, state, length):
    """``(trail, cycle)``: ``trail[j]`` is the (hashable) state after j of
    ``length`` calls of ``advance``, up to the first repeat, which returns
    to ``trail[cycle]`` (cycle is None when none occurs).  One call per
    distinct state, however long the run."""
    trail, seen = [state], {state: 0}
    while len(trail) <= length:
        state = advance(state)
        if state in seen:
            return trail, seen[state]
        seen[state] = len(trail)
        trail.append(state)
    return trail, None


def orbit_at(trail, cycle, k):
    """The state after ``k`` steps of an ``orbit`` (k up to its length)."""
    if k < len(trail):
        return trail[k]
    return trail[cycle + (k - cycle) % (len(trail) - cycle)]


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
        self._build(((f, 1) for f in morphisms), direction, validate,
                    block_boundaries)

    @classmethod
    def from_runs(cls, runs, direction="folding", *, validate=True,
                  block_boundaries=None):
        """The sequence of ``(morphism, count)`` runs; adjacent runs of one
        step object merge, and a run of fewer than one step adds none."""
        seq = cls.__new__(cls)
        seq._build(runs, direction, validate, block_boundaries)
        return seq

    def _build(self, runs, direction, validate, block_boundaries):
        merged = []             # [start, length, morphism]
        n = 0
        for f, count in runs:
            if count < 1:
                continue
            if merged and merged[-1][2] is f:
                merged[-1][1] += count
            else:
                merged.append([n, count, f])
            n += count
        if not merged:
            raise SequenceError("a sequence needs at least one step")
        if direction not in ("folding", "unfolding"):
            raise DirectionError(f"unknown direction {direction!r}")
        self.step_runs = tuple(map(tuple, merged))
        self.n_steps = n
        self._run_starts = tuple(start for start, _, _ in merged)
        self._check_chain()
        self.direction = direction
        self.block_boundaries = (tuple(sorted(block_boundaries))
                                 if block_boundaries else ())
        self._hit_tables = {}       # lamination._hits: word -> per-level hits
        self._taken_orbits = None   # per run: orbit of its taken-turn sets
        self._fill_memo = {}        # metric.fills: (run, support) -> orbit
        self._image_track = None    # image_lengths, carried on demand
        if validate:
            self.validate()

    # -- indexing --------------------------------------------------------

    @cached_property
    def morphisms(self):
        """The steps one by one, expanded from the runs when first read;
        package code reads single steps through ``_step``."""
        return tuple(f for _, length, f in self.step_runs
                     for _ in range(length))

    def _step(self, i):
        """The step object at internal index i, found by bisection."""
        return self.step_runs[bisect_right(self._run_starts, i) - 1][2]

    def _runs_between(self, a, b):
        """``(run, k)`` per run met by internal steps a..b-1, k of them."""
        r = bisect_right(self._run_starts, a) - 1
        for run in islice(self.step_runs, r, None):
            k = min(run[0] + run[1], b) - max(run[0], a)
            if k <= 0:
                return
            yield run, k

    @property
    def levels(self):
        T = self.n_steps
        return range(0, T + 1) if self.direction == "folding" \
            else range(-T, 1)

    def _levels_between(self, n0, n1):
        """The levels n with n0 <= n <= n1, as a slice of ``levels``."""
        levels = self.levels
        return levels[max(0, n0 - levels.start):max(0, n1 - levels.start + 1)]

    def _internal(self, level):
        T = self.n_steps
        i = level if self.direction == "folding" else level + T
        if not 0 <= i <= T:
            raise SequenceError(f"level {level} outside the sequence")
        return i

    def graph_at(self, level):
        i = self._internal(level)
        if i < self.n_steps:
            return self._step(i).domain
        return self.step_runs[-1][2].codomain

    def step_at(self, level):
        """Morphism from ``level`` to ``level + 1``."""
        i = self._internal(level)
        if i >= self.n_steps:
            raise SequenceError(f"no step starts at level {level}")
        return self._step(i)

    def matrix_at(self, level):
        i = self._internal(level)
        if i >= self.n_steps:
            raise SequenceError(f"no step starts at level {level}")
        return self._matrix(i)

    def _matrix(self, i):
        return self._step(i).incidence_matrix()

    def _check_chain(self):
        """Each codomain is the next domain.  A run of one step object is
        checked once, so the cost grows with the runs, not the steps."""
        runs = self.step_runs
        for k, (start, length, f) in enumerate(runs):
            if length > 1 and f.codomain != f.domain:
                i = start
            elif k + 1 < len(runs) and f.codomain != runs[k + 1][2].domain:
                i = start + length - 1
            else:
                continue
            raise SequenceError(f"steps {i} and {i + 1} do not chain")

    # -- validation ------------------------------------------------------

    def validate(self):
        """Per-step change-of-marking checks plus the no-cancellation pass."""
        for start, _, f in self.step_runs:
            if not validate_change_of_marking(f):
                raise SequenceError(
                    f"step {start} is not a change of marking")
        self._propagate_taken()

    def _propagate_taken(self):
        """Taken-turn orbits, run by run; detects cancellation.  The j-th
        call of a run's ``advance`` is on the set of its j-th step."""
        taken = frozenset()
        orbits = []
        for start, length, f in self.step_runs:
            def advance(turns, fmap=f.first_edge_map(), steps=count(start)):
                i = next(steps)
                nxt = set(f.image_turns())
                for x, y in turns:
                    fx, fy = fmap[x], fmap[y]
                    if fx == fy:
                        G = f.domain
                        raise SequenceError(
                            "composite image cancels at internal step "
                            f"{i}: taken turn ({G.token(x)},{G.token(y)}) "
                            "maps to a degenerate turn at "
                            f"{f.codomain.token(fx)}")
                    nxt.add(_turn(fx, fy))
                return frozenset(nxt)
            orbits.append(orbit(advance, taken, length))
            taken = orbit_at(*orbits[-1], length)
        self._taken_orbits = tuple(orbits)

    def taken_turns_at(self, level):
        """Turns of G_level crossed by composite images from the left end."""
        if self._taken_orbits is None:
            self._propagate_taken()
        i = self._internal(level)
        r = bisect_right(self._run_starts, i) - 1
        return orbit_at(*self._taken_orbits[r], i - self._run_starts[r])

    # -- composites ------------------------------------------------------

    def composite_matrix(self, level_from, level_to):
        """Product of step matrices from ``level_from`` up to ``level_to``."""
        a, b = self._internal(level_from), self._internal(level_to)
        if a > b:
            raise SequenceError("composite runs against map direction")
        prod = identity(self.graph_at(level_from).n_edges)
        for _, prod in self._carry(prod, "current", range(a, b)):
            pass
        return prod

    def first_edge_composite(self, level_from, level_to=None):
        """First-edge map of the composite morphism (defaults to the right
        end); each edge follows its orbit under a run's first-edge map."""
        a = self._internal(level_from)
        b = self.n_steps if level_to is None else self._internal(level_to)
        if a > b:
            raise SequenceError("composite runs against map direction")
        fmap = {e: e for e in self.graph_at(level_from).oriented_edges()}
        for (_, _, f), k in self._runs_between(a, b):
            step = f.first_edge_map()
            fmap = {e: orbit_at(*orbit(step.__getitem__, v, k), k)
                    for e, v in fmap.items()}
        return fmap

    def image_lengths(self, level):
        """Simplicial lengths of composite images into the right end: the
        length track seeded with ones there.  The sequence keeps that track,
        so each call carries only from the nearest level already read."""
        if self._image_track is None:
            ones = [1] * self.graph_at(self.levels[-1]).n_edges
            self._image_track = MeasureTrack._from_seed(self, "length", ones)
        return list(self._image_track.at_levels((level,))[0])

    def _carry(self, vectors, kind, steps, stops=()):
        """Carry a block of vectors through the internal steps ``steps`` (a
        range of step 1 or -1, in carry order) and yield ``(count, block)``
        after ``count`` steps, for each count in ``stops`` and after the
        last step.  Length vectors are the block's rows (V -> V M_i),
        currents its columns (V -> M_i V).

        Between stops, each stretch of one repeated step object (a
        ``step_runs`` entry clipped to the range) of k steps is one product
        with M^k, formed by repeated squaring of the kept incidence matrix:
        O(log k) products instead of k.  With w vectors and n edges, a
        single product costs w n^2 and each product in M^k costs n^3, so a
        short stretch, where (k - 1) w is at most n times the number of
        products in M^k, is k single products with the kept matrix, as a
        stretch of one step is.

        Before each stretch's product, the bits an entry can reach are
        bounded: those of the block's largest entry (numerator and
        denominator), plus k * ``growth_bits`` for each stretch of k steps
        so far.  Past ``CARRY_BIT_BUDGET`` the carry is refused, so an
        oversize chain ends in ``BudgetExceededError``, not in a multiply
        that runs for minutes.
        """
        n = len(steps)
        cuts = sorted({c for c in stops if 0 < c < n} | {n}) if n else ()
        width = len(vectors) if kind == "length" else len(vectors[0])
        bits = max(x.numerator.bit_length() + x.denominator.bit_length()
                   for row in vectors for x in row)
        done = 0
        for cut in cuts:
            while done < cut:
                i = steps[done]
                start, length, f = self.step_runs[
                    bisect_right(self._run_starts, i) - 1]
                left = start + length - i if steps.step > 0 else i - start + 1
                k = min(cut - done, left)
                bits += k * f.growth_bits()
                if bits > CARRY_BIT_BUDGET:
                    raise BudgetExceededError(
                        f"carrying {n} steps could reach {bits} bits, past "
                        f"the limit of {CARRY_BIT_BUDGET} bits "
                        "(sequences.CARRY_BIT_BUDGET)")
                M, reps = f.incidence_matrix(), k
                if (k - 1) * width > (k.bit_length() + k.bit_count() - 2) \
                        * len(M):
                    M, reps = mat_pow(M, k), 1
                for _ in range(reps):
                    vectors = mat_mul(vectors, M) if kind == "length" \
                        else mat_mul(M, vectors)
                done += k
            yield done, vectors

    def expansion(self, level, oriented, *, budget=EXPANSION_BUDGET):
        """Composite image of an oriented edge in the right-end graph, not
        kept; raises when it would exceed ``budget`` edges."""
        i = self._internal(level)
        self.graph_at(level).check_path((oriented,))
        check_expansion(self.image_lengths(level)[abs(oriented) - 1], budget)
        path = (oriented,)
        for f in map(self._step, range(i, self.n_steps)):
            path = f.apply_to_path(path)
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
    The upstream end, where a carry starts, is the right end for lengths
    and the left end for currents.

    A track built here from explicit vectors keeps one per level.  The
    track constructors below (``length_track_from_terminal``,
    ``current_track_from_initial`` and the canonical measures) keep only
    the seed at the upstream end, and carry from the nearest kept vector
    on the upstream side when read.  ``at_levels`` jumps to the levels it
    is given by run powers, keeping them and the run boundaries passed, so
    reading a window of w levels costs O(log k) products per run of k
    steps on the way, plus w products.  ``at`` keeps every level it passes,
    so single reads in any order cost at most one stepwise pass.  A full
    sweep (``validate``, ``area``) is one stepwise pass; ``decay_check``
    reads only the two ends, plus the levels around any step that does
    not cover its codomain.
    """

    def __init__(self, seq, kind, vectors):
        self._begin(seq, kind, recurrent=False)
        for level, v in zip(seq.levels, vectors):
            self._known[seq._internal(level)] = self._checked(level, v)
        if len(self._known) != seq.n_steps + 1:
            raise DimensionMismatchError(
                "track must store one vector per level")

    @classmethod
    def _from_seed(cls, seq, kind, vector):
        """The track carried from ``vector`` at its upstream end."""
        track = cls.__new__(cls)
        track._begin(seq, kind, recurrent=True)
        level = seq.levels[0 if kind == "current" else -1]
        track._known[seq._internal(level)] = track._checked(level, vector)
        return track

    def _begin(self, seq, kind, recurrent):
        if kind not in ("length", "current"):
            raise InvalidTrackError(f"unknown track kind {kind!r}")
        self.seq = seq
        self.kind = kind
        self._known = {}        # internal index -> kept vector
        # the recurrence holds by construction when the track is carried
        # from a seed, not when its vectors are given level by level
        self._recurrent = recurrent

    def _checked(self, level, vector):
        v = _exact(vector)
        if len(v) != self.seq.graph_at(level).n_edges:
            raise DimensionMismatchError(
                f"track vector at level {level} has wrong dimension")
        if any(x < 0 for x in v):
            raise InvalidTrackError(f"negative entry at level {level}")
        return v

    def at(self, level):
        """The vector at ``level``.  Every level between it and the nearest
        kept vector upstream is carried one step at a time and kept, so
        reading levels one by one, in any order, costs at most one stepwise
        pass over the track."""
        i = self.seq._internal(level)
        if i not in self._known:
            up = -1 if self.kind == "current" else 1
            j = i + up
            while j not in self._known:
                j += up
            self._carry_to(j, range(i, j, up))
        return self._known[i]

    def at_levels(self, levels):
        """Vectors at ``levels``, in the order given.  Those not kept are
        reached in one carry from the nearest kept vector upstream of them
        all, by run powers, so a window costs O(log k) products per run of
        k steps on the way to it, then one product per level in it."""
        idx = [self.seq._internal(level) for level in levels]
        missing = [i for i in idx if i not in self._known]
        if missing:
            marks = sorted(self._known)
            j = (marks[bisect_left(marks, min(missing)) - 1]
                 if self.kind == "current"
                 else marks[bisect_left(marks, max(missing))])
            self._carry_to(j, missing)
        return [self._known[i] for i in idx]

    def _carry_to(self, j, targets):
        """One carry from the kept vector at internal level ``j`` through
        the internal levels ``targets`` (all on its downstream side); keeps
        each target and each run boundary passed (vectors kept before stay:
        they are equal)."""
        starts = self.seq._run_starts
        lo, hi = min(targets), max(targets)
        if self.kind == "current":
            steps, sign = range(j, hi), 1
            passed = starts[bisect_right(starts, j):bisect_left(starts, hi)]
        else:
            steps, sign = range(j - 1, lo - 1, -1), -1
            passed = starts[bisect_right(starts, lo):bisect_left(starts, j)]
        stops = {abs(i - j) for i in targets}.union(abs(b - j) for b in passed)
        rows = self.kind == "length"
        v = self._known[j]
        block = [list(v)] if rows else [[x] for x in v]
        for count, block in self.seq._carry(block, self.kind, steps, stops):
            self._known.setdefault(
                j + sign * count,
                tuple(block[0]) if rows else tuple(r[0] for r in block))

    @property
    def levels(self):
        return self.seq.levels

    def validate(self):
        """Exact recurrence check; raises on the first violation."""
        seq = self.seq
        levels = list(seq.levels)
        vectors = self.at_levels(levels)
        for level, cur, nxt in zip(levels, vectors, vectors[1:]):
            M = seq.matrix_at(level)
            if (tuple(transpose_vec(M, nxt)) != cur if self.kind == "length"
                    else tuple(mat_vec(M, cur)) != nxt):
                raise InvalidTrackError(
                    f"{self.kind} recurrence fails at level {level}")

    def __repr__(self):
        return f"MeasureTrack({self.kind}, {self.seq.n_steps + 1} levels)"


def length_track_from_terminal(seq, terminal_vector):
    """Length track pulled back from ``terminal_vector`` at the right end;
    levels are carried when read."""
    return MeasureTrack._from_seed(seq, "length", terminal_vector)


def current_track_from_initial(seq, initial_vector):
    """Current track pushed forward from ``initial_vector`` at the left
    end; levels are carried when read."""
    return MeasureTrack._from_seed(seq, "current", initial_vector)


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


def _extreme_grows(seq, track):
    """The flag of one track: its extreme never drops over the downstream
    half of the steps and ends above where it starts (see
    ``decay_check``)."""
    T = seq.n_steps
    current = track.kind == "current"
    tail = range((T + 1) // 2, T) if current else range(T // 2)
    pairs = []          # (upstream, downstream) internal levels to compare
    for start, length, f in seq.step_runs:
        if track._recurrent and f.covers():
            continue
        for i in range(max(start, tail.start),
                       min(start + length, tail.stop)):
            pairs.append((i, i + 1) if current else (i + 1, i))
    up, down = (0, T) if current else (T, 0)
    need = sorted({up, down}.union(*pairs))
    extreme = min if current else max
    values = dict(zip(need, map(extreme, track.at_levels(
        [seq.levels[i] for i in need]))))
    return (all(values[a] <= values[b] for a, b in pairs)
            and values[down] > values[up])


def decay_check(seq, length_track=None, current_track=None):
    """Growth/decay trend flags of the tracks' extremes.

    On a reduced sequence the deep-end simplicial lengths blow up and the
    frequency current grows toward the fold end; a sequence whose extremes
    stay flat is flagged as inconsistent with reducedness.  A flag holds
    when the track's extreme (the largest length, the smallest current)
    never drops from one level to the next over the downstream half of
    the steps, in carry order, and ends above its value at the seed.

    Covering lemma.  A step covers when every codomain edge lies in some
    edge image (``GraphMorphism.covers``), so every row of its incidence
    matrix M has an entry >= 1; every change of marking covers.  For a
    nonnegative current v, each entry of M v is then at least some entry
    of v, so min(M v) >= min(v).  For a nonnegative length w, the entry
    of w at an edge e is part of the entry of M^T w at any edge whose
    image crosses e, so max(M^T w) >= max(w).  So a covering step never
    lowers the extreme going downstream, and only the steps that do not
    cover (none on a validated chain) are compared on their vectors.
    The flags are exact, and no level between the ends and those steps is
    read: one carry of each track reaches them all by run powers, O(log k)
    products per run of k steps.  A track built from explicit vectors need
    not satisfy the recurrence, so each of its steps is compared.

    Returns ``{"levels": ..., "flags": ...}``; raises
    ``InvalidTrackError`` for a track of the wrong kind or of another
    sequence.
    """
    flags = {}
    for name, track, kind in (("lambda_deep_growth", length_track, "length"),
                              ("mu_growth", current_track, "current")):
        if track is None:
            continue
        if track.kind != kind:
            raise InvalidTrackError(
                f"{kind}_track must be a {kind} track, not a {track.kind} "
                "track")
        if track.seq is not seq:
            raise InvalidTrackError("track belongs to a different sequence")
        flags[name] = _extreme_grows(seq, track)
    flags["reduced_consistent"] = all(flags.values()) if flags else False
    return {"levels": tuple(seq.levels), "flags": flags}


# -- reducedness windows -------------------------------------------------


def is_reduced_window(seq, window, *, max_edges=15):
    """Search a window for a stabilized subgraph chain.

    A witness is a chain of proper nonempty edge subsets mapped bijectively,
    edge-to-single-edge, by every step of the window.  Finding none is
    necessary (not sufficient) evidence of reducedness.  Returns a dict with
    ``passed`` and, when failed, the witness chain as edge-name sets.

    Each edge of a surviving subset follows its own chain of single edges
    into codomains of more than one edge, so a subset survives only if each
    of its edges survives on its own, and a single edge that survives is a
    witness.  The first witness, smallest first and by names within a size,
    is therefore the chain of the least-named surviving edge: each edge is
    walked through the window once, E x window work in place of 2^E subsets.
    """
    n0, n1 = window
    levels = seq._levels_between(n0, n1)
    if len(levels) < 2 or levels[0] != n0 or levels[-1] != n1:
        raise SequenceError(f"window {window} outside the sequence range")
    g0 = seq.graph_at(n0)
    E = g0.n_edges
    if E > max_edges:
        raise BudgetExceededError(
            f"subgraph enumeration over {E} edges exceeds the budget")
    # with one edge, no subset is proper and nonempty
    for name in sorted(g0.edge_ids) if E >= 2 else ():
        chain = [name]
        for level in levels[:-1]:
            f = seq.step_at(level)
            p = f.edge_image(f.domain.edge_index(chain[-1]))
            if len(p) != 1 or f.codomain.n_edges < 2:
                break
            chain.append(f.codomain.edge_name(p[0]))
        else:
            return {"passed": False, "witness": tuple((e,) for e in chain),
                    "window": (n0, n1)}
    return {"passed": True, "witness": None, "window": (n0, n1)}

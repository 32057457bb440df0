"""Exact output checks and work counts, computed outside the package.

The checks recompute what a report claims with this file's own arithmetic
on plain ints: composite images by substitution, matrix products, measure
tracks and the area pairing, taken-turn propagation and walk products.
Only public accessors of parsed objects are read (``morphisms``,
``edge_image``, ``image_lengths``, ``taken_turns_at``, graph adjacency).

Each check returns a list of problems; an empty list means the report is
correct.  The counts are the per-layer work figures of the traced run, so
they must repeat exactly for a given seed.
"""

import hashlib
import json
import math
import random
from fractions import Fraction


# -- shared exact arithmetic ----------------------------------------------


def turn(x, y):
    """Unordered pair of oriented edges, canonically ordered."""
    kx = (abs(x), 0 if x > 0 else 1)
    ky = (abs(y), 0 if y > 0 else 1)
    return (x, y) if kx <= ky else (y, x)


def reverse(path):
    return tuple(-e for e in reversed(path))


def incidence(f):
    """Row = codomain edge, column = domain edge, entry = traversals."""
    mat = [[0] * f.domain.n_edges for _ in range(f.codomain.n_edges)]
    for j in range(f.domain.n_edges):
        for e in f.edge_image(j + 1):
            mat[abs(e) - 1][j] += 1
    return mat


def _mat_mul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)]
            for row in A]


def _bits(q):
    q = Fraction(q)
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def max_bits(values):
    return max((_bits(q) for q in values), default=0)


def transport(seq):
    """Integer length track pulled back from all-ones at the right end and
    current track pushed forward from all-ones at the left end."""
    mats = {}
    steps = [mats.setdefault(id(f), incidence(f)) for f in seq.morphisms]
    lam = [[1] * seq.morphisms[-1].codomain.n_edges]
    for M in reversed(steps):
        nxt = lam[-1]
        lam.append([sum(M[i][j] * nxt[i] for i in range(len(M)))
                    for j in range(len(M[0]))])
    lam.reverse()
    mu = [[1] * seq.morphisms[0].domain.n_edges]
    for M in steps:
        cur = mu[-1]
        mu.append([sum(a * b for a, b in zip(row, cur)) for row in M])
    return steps, lam, mu


class Chain:
    """A parsed input sequence with its outside transport, computed once
    per file: step matrices, integer tracks and the area pairing."""

    def __init__(self, seq):
        self.seq = seq
        self.steps, self.lam, self.mu = transport(seq)
        values = {sum(a * b for a, b in zip(m, l))
                  for m, l in zip(self.mu, self.lam)}
        # mu_n . lambda_n must be the same at every level
        self.problems = [] if len(values) == 1 else \
            ["area differs between levels"]


def _trend_growing(series):
    tail = series[len(series) // 2:]
    return (all(a <= b for a, b in zip(tail, tail[1:]))
            and series[-1] > series[0])


def _taken_final(seq):
    current = set()
    for f in seq.morphisms:
        first = {}
        for j in range(f.domain.n_edges):
            img = f.edge_image(j + 1)
            first[j + 1], first[-(j + 1)] = img[0], -img[-1]
        nxt = {turn(first[x], first[y]) for x, y in current}
        for j in range(f.domain.n_edges):
            img = f.edge_image(j + 1)
            nxt |= {turn(-a, b) for a, b in zip(img, img[1:])}
        current = nxt
    return len(current)


# -- language harvest ----------------------------------------------------


def harvest_paths(graph, allowed, max_len):
    """Reduced paths of at most ``max_len`` edges whose turns are allowed."""
    paths = []
    stack = [(e,) for e in graph.oriented_edges()]
    while stack:
        p = stack.pop()
        paths.append(p)
        if len(p) == max_len:
            continue
        last = p[-1]
        for nxt in graph.out_edges(graph.term(last)):
            if nxt != -last and turn(-last, nxt) in allowed:
                stack.append(p + (nxt,))
    return paths


def _harvest_paths_at(seq, depth, L):
    level = -depth
    lengths = seq.image_lengths(level)
    cap = 2 + -(-L // max(1, min(lengths)))
    return harvest_paths(seq.graph_at(level), seq.taken_turns_at(level),
                         cap), lengths


def windows_scanned(seq, depth, L):
    """Length-L windows the harvest at (depth, L) slides over."""
    paths, lengths = _harvest_paths_at(seq, depth, L)
    return sum(max(0, sum(lengths[abs(e) - 1] for e in p) - L + 1)
               for p in paths)


class Expander:
    """Composite images by plain substitution, memoized per (step, edge)."""

    def __init__(self, seq):
        self.seq = seq
        self.T = seq.n_steps
        self.memo = {}

    def image(self, i, e):
        if e < 0:
            return reverse(self.image(i, -e))
        if i == self.T:
            return (e,)
        key = (i, e)
        if key not in self.memo:
            out = []
            for x in self.seq.morphisms[i].edge_image(e):
                out.extend(self.image(i + 1, x))
            self.memo[key] = tuple(out)
        return self.memo[key]


def language(seq, depth, L, canonical=True, ex=None):
    """Length-L words of the harvest at (depth, L), by substitution; up to
    flip (the lesser of a word and its reverse) when ``canonical``."""
    paths, _ = _harvest_paths_at(seq, depth, L)
    ex = ex or Expander(seq)
    i = seq.n_steps - depth
    words = set()
    for p in paths:
        img = []
        for e in p:
            img.extend(ex.image(i, e))
        for k in range(len(img) - L + 1):
            w = tuple(img[k:k + L])
            words.add(min(w, reverse(w)) if canonical else w)
    return words


def lamination_harvests(seq, depth, L):
    """(depth, L, word set) of every harvest one lamination job makes, in
    the order ``allowed_words``, ``complexity_profile`` and
    ``minimal_components`` make them, each computed by ``language``.  The
    profile's second-deepest scan stops at the first count that differs;
    the components' two harvests keep both orientations of each word."""
    memo, ex = {}, Expander(seq)

    def words(d, l, canonical=True):
        if (d, l, canonical) not in memo:
            memo[d, l, canonical] = language(seq, d, l, canonical, ex)
        return memo[d, l, canonical]

    harvests = [(depth, L, words(depth, L))]
    harvests += [(depth, l, words(depth, l)) for l in range(1, L + 1)]
    depths = sorted({max(1, depth // 4), max(1, depth // 2), depth})
    if len(depths) >= 2:
        for l in range(1, L + 1):
            harvests.append((depths[-2], l, words(depths[-2], l)))
            if len(words(depths[-2], l)) != len(words(depth, l)):
                break
    harvests += [(depth, L, words(depth, L, False)),
                 (depth, L + 1, words(depth, L + 1, False))]
    return harvests


def sink_components(words, longer, L):
    """Sink strongly connected components of the overlap graph whose nodes
    are ``words`` and whose edges are prefix -> suffix of ``longer``."""
    succ = {w: [] for w in words}
    pred = {w: [] for w in words}
    for u in longer:
        a, b = u[:L], u[1:]
        if a in succ and b in succ:
            succ[a].append(b)
            pred[b].append(a)
    order, seen = [], set()
    for root in sorted(words):              # Kosaraju, first pass
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(succ[root]))]
        while stack:
            node, it = stack[-1]
            nxt = next((v for v in it if v not in seen), None)
            if nxt is None:
                order.append(node)
                stack.pop()
            else:
                seen.add(nxt)
                stack.append((nxt, iter(succ[nxt])))
    comp = {}
    for root in reversed(order):            # second pass, reversed graph
        if root in comp:
            continue
        comp[root], stack = root, [root]
        while stack:
            for v in pred[stack.pop()]:
                if v not in comp:
                    comp[v] = root
                    stack.append(v)
    members = {}
    for w, c in comp.items():
        members.setdefault(c, set()).add(w)
    return [frozenset(m) for m in members.values()
            if all(comp[v] == comp[w] for w in m for v in succ[w])]


# -- checks --------------------------------------------------------------


def check_lamination(seq, params, report, sturmian):
    depth, L = params["depth"], params["length"]
    problems = []
    harvests = lamination_harvests(seq, depth, L)
    g0 = seq.graph_at(0)
    want = sorted(" ".join(g0.tokens(w)) for w in harvests[0][2])
    if report["words"] != want:
        problems.append("words differ from the substitution oracle")
    if report["count"] != len(want):
        problems.append("count differs from the word list")
    profile = report["complexity"]
    counts = {str(l): len(w) for _, l, w in harvests[1:L + 1]}
    if profile["counts"] != counts:
        problems.append("complexity counts differ from the substitution "
                        "oracle")
    half = harvests[L + 1:-2]
    stable = all(len(w) == len(harvests[l][2]) for _, l, w in half)
    if profile["stable"] != stable:
        problems.append("complexity stability differs from the oracle")
    sinks = sink_components(harvests[-2][2], harvests[-1][2], L)
    orbits = {min(tuple(sorted(c)), tuple(sorted(reverse(w) for w in c)))
              for c in sinks}
    comps = report["minimal_components"]
    if comps["count"] != len(orbits) or \
            comps["sizes"] != sorted(len(c) for c in sinks):
        problems.append("minimal components differ from the overlap-graph "
                        "oracle")
    if sturmian:
        if report["count"] != L + 1 or any(
                profile["counts"][str(l)] != l + 1 for l in range(1, L + 1)):
            problems.append("Sturmian complexity is not L+1")
        if comps["count"] != 1:
            problems.append("Sturmian lamination is not minimal")
    return problems


def check_fold(chain, report):
    seq, lam, mu = chain.seq, chain.lam, chain.mu
    problems = []
    levels = list(seq.levels)
    if seq.direction == "unfolding":
        flags = {"lambda_deep_growth":
                 _trend_growing([max(v) for v in reversed(lam)])}
    else:
        flags = {"mu_growth": _trend_growing([min(v) for v in mu])}
    flags["reduced_consistent"] = all(flags.values())
    expected = {"direction": seq.direction, "n_steps": seq.n_steps,
                "levels": [levels[0], levels[-1]], "validated": True,
                "taken_turns_final": _taken_final(seq),
                "decay_flags": flags}
    for key, value in expected.items():
        if report[key] != value:
            problems.append(f"fold {key} is {report[key]!r}, "
                            f"expected {value!r}")
    return problems


def check_cone(chain, params, report):
    seq, steps = chain.seq, chain.steps
    problems = []
    depth = params["depth"]
    T = seq.n_steps
    if seq.direction == "unfolding":
        prod = None
        for M in steps[T - depth:]:
            prod = M if prod is None else _mat_mul(M, prod)
        gens = [list(col) for col in zip(*prod)]
    else:
        prod = None
        for M in steps[:depth]:
            prod = M if prod is None else _mat_mul(M, prod)
        gens = [list(row) for row in prod]
    want = [[str(Fraction(x, sum(g))) for x in g] for g in gens]
    if report["cone"]["generators"] != want:
        problems.append("cone generators differ from the product columns")
    if report["cone"]["depth"] != depth:
        problems.append("cone depth differs")
    return problems


def check_decompose(seq, report):
    problems = []
    dec = report["decomposition"]
    edges = list(seq.graph_at(0).edge_ids)
    seen = [e for part in dec["parts"] for e in part] + dec["undecided"]
    if sorted(seen) != sorted(edges):
        problems.append("parts and undecided edges do not partition edges")
    if dec["confident"] and report.get("sanity", []):
        problems.append("confident decomposition fails structural sanity")
    return problems


def check_progress(chain, report):
    seq = chain.seq
    problems = []
    levels = list(seq.levels)[:-1][::max(1, seq.n_steps // 200)]
    prog = report["progress"]
    if prog["levels"] != levels:
        problems.append("progress levels differ from the default sampling")
    if any(h > seq.n_steps - n or h < 0
           for n, h in zip(levels, prog["horizons"])):
        problems.append("horizon outside the remaining steps")
    entry = max(max(max(row) for row in M) for M in chain.steps)
    if report["speed"]["entry_max"] != entry:
        problems.append("speed entry_max differs from the step matrices")
    return problems


def check_distance(report):
    problems = []
    if report["agrees"] is not True or \
            report["bruteforce"]["ratio"] != report["forward"]["ratio"]:
        problems.append("brute-force ratio differs from the candidate ratio")
    return problems


# sha256 of dumps_json(run_walk(seed=1, steps=2000)), the frozen
# byte-identical walk regression of the acceptance suite.
WALK_SEED1_RECORD = ("5fdfae9dcbc3168cfd69e6fadaacae82d2a76e7e"
                     "9dde46bba60c7d6465cee809")


def check_walk(params, report):
    """Replay the walk: generator order a->ab < a->b, equal weights."""
    rec = report["walk"]
    if (params["seed"], params["steps"]) == (1, 2000):
        text = json.dumps(rec, sort_keys=True, indent=2, allow_nan=False)
        if hashlib.sha256((text + "\n").encode("utf-8")).hexdigest() \
                != WALK_SEED1_RECORD:
            return ["seed-1 walk record differs from the frozen digest"]
    rng = random.Random(params["seed"])
    mats = ([[1, 1], [1, 0]], [[0, 1], [1, 1]])
    C = [[1, 0], [0, 1]]
    choices = []
    for _ in range(params["steps"]):
        pick = 0 if rng.random() < 0.5 else 1
        choices.append(pick)
        C = _mat_mul(mats[pick], C)
    cols = [C[0][j] + C[1][j] for j in range(2)]
    final = [str(Fraction(x, sum(cols))) for x in cols]
    problems = []
    if rec["choices"] != choices:
        problems.append("walk choices differ from the seeded replay")
    if rec["final_lengths"] != final:
        problems.append("walk final lengths differ from the replay")
    last = math.log(max(2 * max(cols), sum(cols))) - math.log(2)
    if abs(rec["displacement"][-1] - last) > 1e-9 * max(1.0, abs(last)):
        problems.append("walk displacement differs from the replay")
    return problems


def check_sandwich(chain, report):
    """Exact sandwich at every level, gap equal to the oriented mass, and
    weights nonincreasing from the deep end (level 0) outward."""
    seq, mu = chain.seq, chain.mu
    problems = []
    for rows in report["sandwich"]:
        weights = []
        for level, row in zip(seq.levels, rows):
            lo, w, hi = (Fraction(row[key])
                         for key in ("lower", "weight", "upper"))
            if not (row["ok"] and lo <= w <= hi):
                problems.append(f"sandwich fails at level {level}")
            if hi - lo != 2 * sum(mu[level]):
                problems.append(f"sandwich gap at level {level} is not the "
                                "oriented mass")
            weights.append(w)
        if any(a < b for a, b in zip(weights, weights[1:])):
            problems.append("cylinder weights grow toward the fold end")
    return problems


def check(fs, job, text, chains):
    """Problems with one job's report; ``chains`` caches parsed inputs."""
    report = json.loads(text)
    p = job.params
    if job.cmd == "distance":
        return check_distance(report)
    if job.cmd == "walk":
        return check_walk(p, report)
    path = p["sequence"]
    if path not in chains:
        chains[path] = Chain(fs.io_formats.parse_sequence(path))
    chain = chains[path]
    if job.cmd == "lamination":
        found = check_lamination(chain.seq, p, report, job.sturmian)
    elif job.cmd == "fold":
        found = check_fold(chain, report)
    elif job.cmd == "cone":
        found = check_cone(chain, p, report)
    elif job.cmd == "decompose":
        found = check_decompose(chain.seq, report)
    elif job.cmd == "progress":
        found = check_progress(chain, report)
    elif job.cmd == "sandwich":
        found = check_sandwich(chain, report)
    else:
        found = [f"no check for {job.cmd}"]
    return chain.problems + found


# -- per-layer work counts -----------------------------------------------


def _files_read(path):
    """Files ``parse_sequence`` opens: the sequence, each distinct morphism
    file, and each morphism's domain and codomain graph files."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.split("#", 1)[0].split() for ln in fh]
    steps, section = set(), None
    for tokens in lines:
        if len(tokens) == 1 and tokens[0] in ("DIRECTION", "STEPS",
                                              "BLOCKS"):
            section = tokens[0]
        elif tokens and section == "STEPS":
            steps.add(tokens[0])
    return 1 + 3 * len(steps)


def job_counts(job, text, facts):
    """Work counts for one traced job, from its inputs and the objects the
    traced calls returned (``traced.FACTS``)."""
    c = {"reports.bytes": len(text.encode("utf-8"))}
    seq = facts["seq"][0] if "seq" in facts else None
    if seq is not None:
        c["io_formats.files"] = _files_read(job.params["sequence"])
        c["sequences.steps"] = seq.n_steps
        c["sequences.runs"] = len(seq.step_runs)
    else:
        c["io_formats.files"] = 2 if job.cmd == "distance" else 0
    tracks = facts.get("tracks", ())
    if tracks:
        c["sequences.track_max_bits"] = max(
            max_bits(x for n in t.levels for x in t.at(n)) for t in tracks)
    for cone in facts.get("cones", ()):
        c["cones.products"] = max(cone.depth - 1, 0)
        c["cones.max_bits"] = max_bits(x for g in cone.generators for x in g)
    if job.cmd == "lamination":
        depth, L = job.params["depth"], job.params["length"]
        harvests = lamination_harvests(seq, depth, L)
        c["lamination.windows_scanned"] = sum(
            windows_scanned(seq, d, l) for d, l, _ in harvests)
        c["lamination.words_distinct"] = sum(len(w) for _, _, w in harvests)
        c["sequences.expansion_edges"] = sum(
            sum(seq.image_lengths(level))
            for level in {-d for d, _, _ in harvests})
    if job.cmd == "sandwich":
        c["sequences.expansion_edges"] = sum(
            sum(seq.image_lengths(level)) for level in seq.levels)
    for rep in facts.get("lipschitz", ()):
        c["metric.candidates"] = c.get("metric.candidates", 0) + \
            len(rep.per_candidate)
    for bf in facts.get("bruteforce", ()):
        c["metric.words_checked"] = bf.words_checked
    for rec in facts.get("walk", ()):
        c["walk.steps"] = rec.steps
        c["walk.max_bits"] = max_bits(rec.final_lengths)
    return c


MAX_COUNTS = ("sequences.track_max_bits", "cones.max_bits", "walk.max_bits")


def merge_counts(total, counts):
    for key, value in counts.items():
        if key in MAX_COUNTS:
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value

"""Seeded inputs and job lists for the three benchmark workloads.

Every workload is a fixed-length list of jobs, closed loop, one client: the
next job starts when the previous one ends.  A job is either a ``foldspace``
CLI invocation (``cmd`` is a subcommand, ``params`` its arguments) or the
library-level cylinder ``sandwich`` report, which has no CLI subcommand.
The seed chooses the random chains, block schedules, walk seeds, marked
graphs and cylinder words; the program only ever sees the files written
here.

Lamination depths are never tuned per seed: each one is the deepest level at
which the longest composite image, read from ``image_lengths``, stays within
a fixed edge cap, so none approaches the 10M-edge expansion budget.  Seeded
`language` chains whose scan, counted from image lengths without expanding,
is off a fixed size are redrawn, so every seed costs about the same.
"""

import os
from dataclasses import dataclass
from fractions import Fraction

from oracles import windows_scanned

# Fixed sizes.  Changing any of them changes the benchmark.
# longest composite image of a language job: depth 14 on the Fibonacci
# chain (987 edges), so images are long, as in depth 14-18 user jobs
LANG_CAP = 1000
LANG_CHAINS = 16          # seeded Sturmian products in `language`
# windows a seeded language job scans, within LANG_SPREAD: the scan sets the
# job's time, so seeds whose chains happen to scan more do not cost more
LANG_WINDOWS = 350_000
LANG_SPREAD = 0.05
LANG_STEPS = 40           # steps per Sturmian product
FIB_STEPS = 40            # canned Fibonacci unfolding chain
SANDWICH_STEPS = 15       # canned Fibonacci folding chain
SANDWICH_JOBS = 3
SANDWICH_WORDS = 4        # cylinder words per sandwich job
DEEP_BLOCKS = 6           # blocks per seeded schedule
DEEP_STEPS = 5460         # total steps per seeded schedule
SMALL_CHAINS = 8          # seeded transvection chains in `small_jobs`
SMALL_CAP = 40            # longest composite image of a small lamination
SMALL_L = 5
SMALL_WINDOWS = 20_000    # window limit when choosing a small L
WALKS = 8
WALK_STEPS = 2000
DISTANCE_PAIRS = 16


@dataclass
class Job:
    """One unit of closed-loop work.

    ``canned`` names the recorded report digest for inputs that do not
    depend on the seed; ``sturmian`` marks lamination inputs whose language
    has exactly L+1 words of each length L.
    """
    job_id: str
    cmd: str
    params: dict
    canned: str = None
    sturmian: bool = False

    def argv(self):
        p = self.params
        if self.cmd == "fold":
            return ["fold", p["sequence"]]
        if self.cmd == "cone":
            return ["cone", p["sequence"], "--depth", str(p["depth"])]
        if self.cmd == "lamination":
            return ["lamination", p["sequence"], "--depth", str(p["depth"]),
                    "--length", str(p["length"])]
        if self.cmd == "decompose":
            argv = ["decompose", p["sequence"], f"--window={p['window']}"]
            if p.get("seeds"):
                argv += ["--seeds", p["seeds"]]
            return argv
        if self.cmd == "progress":
            return ["progress", p["sequence"], "--speed"]
        if self.cmd == "distance":
            return ["distance", p["graph1"], p["graph2"], "--bruteforce",
                    str(p["bruteforce"])]
        if self.cmd == "walk":
            return ["walk", "--seed", str(p["seed"]), "--steps",
                    str(p["steps"])]
        raise ValueError(f"job {self.job_id} has no command line")


# -- helpers -------------------------------------------------------------


def _write(fs, morphisms, direction, directory, name, boundaries=None):
    """Write a chain of shared step objects with the package's own writer.

    The chain is built unvalidated: the jobs validate it when they parse
    it, which is the work being measured.
    """
    seq = fs.sequences.FoldingSequence(morphisms, direction, validate=False,
                                       block_boundaries=boundaries)
    return fs.io_formats.write_sequence(seq, directory, name)


def _cap_depth(fs, morphisms, cap):
    """Deepest depth whose longest composite image has at most ``cap``
    edges, and the image lengths there."""
    seq = fs.sequences.FoldingSequence(morphisms, "unfolding", validate=False)
    best = None
    for depth in range(1, seq.n_steps + 1):
        lengths = seq.image_lengths(-depth)
        if max(lengths) > cap:
            break
        best = (depth, lengths, seq)
    if best is None:
        raise ValueError("cap below the first step's image lengths")
    return best


def _deep_enough(seq, depth, L):
    """A lamination job at (depth, L) also harvests L+1 at ``depth`` and
    L at half the depth; each needs an image at least that long."""
    return (max(seq.image_lengths(-depth)) >= L + 1
            and max(seq.image_lengths(-max(1, depth // 2))) >= L)


def _lamination_windows(seq, depth, L):
    """Windows a lamination job at (depth, L) scans when its complexity
    profile is stable, counted from image lengths without expanding."""
    half = max(1, depth // 2)
    harvests = [(depth, L), (depth, L), (depth, L + 1)]
    harvests += [(d, l) for l in range(1, L + 1) for d in {depth, half}]
    return sum(windows_scanned(seq, d, l) for d, l in harvests)


def _random_word(rng, rank, max_len):
    word, target = [], rng.randint(1, max_len)
    while len(word) < target:
        x = rng.choice([i for i in range(-rank, rank + 1) if i])
        if word and word[-1] == -x:
            continue
        word.append(x)
    return tuple(word)


def transvection_pool(fs, rank):
    """Positive rose self-maps a_i -> a_i a_j or a_j a_i plus a rotation;
    every product is a change of marking.  The first entries (i > j) are
    unitriangular, so products of those alone grow polynomially."""
    g = fs.graphs.rose("abcd"[:rank])
    vmap = {"*": "*"}
    tri, rest = [], []
    for i in range(rank):
        for j in range(rank):
            if i == j:
                continue
            for image in ((i + 1, j + 1), (j + 1, i + 1)):
                images = {g.edge_ids[k]: (k + 1,) for k in range(rank)}
                images[g.edge_ids[i]] = image
                f = fs.morphisms.GraphMorphism(g, g, vmap, images)
                (tri if i > j else rest).append(f)
    cyc = {g.edge_ids[k]: ((k + 1) % rank + 1,) for k in range(rank)}
    rest.append(fs.morphisms.GraphMorphism(g, g, vmap, cyc))
    return tri, tri + rest


# -- workloads -----------------------------------------------------------


def language(fs, rng, directory):
    """Lamination jobs on chains whose composite images grow
    exponentially, plus exact cylinder sandwiches on a folding chain."""
    jobs = []
    fib = fs.examples.gen_fibonacci(steps=FIB_STEPS, direction="unfolding")
    path = fib.write(directory, "fib")
    depth, _, _ = _cap_depth(fs, list(fib.sequence.morphisms), LANG_CAP)
    for L in (8, 9, 10):
        jobs.append(Job(f"fib-L{L}", "lamination",
                        {"sequence": path, "depth": depth, "length": L},
                        canned=f"language/fib-L{L}", sturmian=True))
    g1, g2 = fs.walk.default_generators()
    for c in range(LANG_CHAINS):
        L = 8 + c % 3
        while True:   # redraw chains too shallow for L or off the scan size
            steps = [rng.choice((g1, g2)) for _ in range(LANG_STEPS)]
            depth, _, seq = _cap_depth(fs, steps, LANG_CAP)
            if _deep_enough(seq, depth, L) and abs(
                    _lamination_windows(seq, depth, L) / LANG_WINDOWS - 1) \
                    <= LANG_SPREAD:
                break
        path = _write(fs, steps, "unfolding", directory, f"sturm{c}")
        jobs.append(Job(f"sturm{c}-L{L}", "lamination",
                        {"sequence": path, "depth": depth, "length": L},
                        sturmian=True))
    fold = fs.examples.gen_fibonacci(steps=SANDWICH_STEPS,
                                     direction="folding")
    path = fold.write(directory, "fibfold")
    for s in range(SANDWICH_JOBS):
        words = set()
        while len(words) < SANDWICH_WORDS:
            words.add(_random_word(rng, 2, 4))
        jobs.append(Job(f"sandwich{s}", "sandwich",
                        {"sequence": path, "words": sorted(words)}))
    return jobs


def _block_schedule(rng):
    """Geometric block lengths 4, 16, ..., 4^6 jittered by up to 10%, then
    rescaled to exactly DEEP_STEPS steps."""
    raw = [4 ** (k + 1) * rng.uniform(0.9, 1.1) for k in range(DEEP_BLOCKS)]
    scale = DEEP_STEPS / sum(raw)
    blocks = [max(1, round(x * scale)) for x in raw]
    blocks[-1] += DEEP_STEPS - sum(blocks)
    return tuple(blocks)


def _transport_jobs(tag, paths, canned):
    """fold, cones at depths 40, 1000 and the full depth, and a two-seed
    decomposition on a 13-level window per direction, plus the
    progress/speed report on a folding chain."""
    jobs = []
    for path in paths:
        d = "u" if path.endswith("u.sequence") else "f"
        window = "-12:0" if d == "u" else "0:12"
        for name, cmd, params in (
                ("fold", "fold", {"sequence": path}),
                ("cone40", "cone", {"sequence": path, "depth": 40}),
                ("cone1000", "cone", {"sequence": path, "depth": 1000}),
                ("cone", "cone", {"sequence": path, "depth": DEEP_STEPS}),
                ("decompose", "decompose", {"sequence": path,
                                            "window": window,
                                            "seeds": "a,c"})):
            name = f"{name}-{d}"
            jobs.append(Job(f"{tag}-{name}", cmd, params,
                            f"deep_transport/{tag}-{name}" if canned
                            else None))
        if d == "f":
            jobs.append(Job(f"{tag}-progress", "progress", {"sequence": path},
                            f"deep_transport/{tag}-progress" if canned
                            else None))
    return jobs


def deep_transport(fs, rng, directory):
    """Canned rank-3/4 alternating blocks (5460 steps in 6 runs) in both
    directions, and seeded block schedules of the same total length: a
    rank-3 one read as unfolding, a rank-4 one read as folding."""
    jobs = []
    for rank in (3, 4):
        paths = []
        for direction in ("unfolding", "folding"):
            ex = fs.examples.gen_example("alternating_block", rank=rank,
                                         direction=direction)
            paths.append(ex.write(directory, f"alt{rank}{direction[0]}"))
        jobs += _transport_jobs(f"alt{rank}", paths, canned=True)
    for rank, direction in ((3, "unfolding"), (4, "folding")):
        schedule = _block_schedule(rng)
        ex = fs.examples.gen_alternating_block(schedule=(1, 1), rank=rank)
        step_a, step_b = ex.sequence.morphisms
        steps, bounds = [], []
        for k, length in enumerate(schedule):
            steps += [step_a if k % 2 == 0 else step_b] * length
            bounds.append(len(steps))
        path = _write(fs, steps, direction, directory,
                      f"sched{rank}{direction[0]}", bounds)
        jobs += _transport_jobs(f"sched{rank}", [path], canned=False)
    return jobs


def _random_marked(fs, rng, kind):
    graphs = fs.graphs
    if kind == "rose2":
        g, mk = graphs.rose("ab"), None
    elif kind == "rose2_swapped":
        g = graphs.rose("ab")
        mk = graphs.Marking(g, (), {"a": 2, "b": 1})
    elif kind == "rose2_inverted":
        g = graphs.rose("ab")
        mk = graphs.Marking(g, (), {"a": -1, "b": 2})
    elif kind == "theta":
        g = graphs.OrientedGraph(("u", "v"), [("e1", "u", "v"),
                                              ("e2", "u", "v"),
                                              ("e3", "u", "v")])
        mk = graphs.Marking(g, ("e3",))
    elif kind == "barbell":
        g = graphs.OrientedGraph(("u", "v"), [("p", "u", "u"),
                                              ("q", "v", "v"),
                                              ("s", "u", "v")])
        mk = graphs.Marking(g, ("s",))
    else:
        g, mk = graphs.rose("abc"), None
    lengths = {e: Fraction(rng.randint(1, 8), rng.randint(1, 4))
               for e in g.edge_ids}
    return graphs.MarkedGraph(g, lengths, mk)


def small_jobs(fs, rng, directory):
    """Many small jobs: short transvection chains through every sequence
    subcommand, 2000-step walks, and brute-force-checked distances."""
    jobs = []
    for c in range(SMALL_CHAINS):
        rank = 2 + c % 3
        tri, pool = transvection_pool(fs, rank)
        choices = tri if c % 2 else pool   # alternate polynomial/exponential
        # stratified 10-60 steps, so every seed covers the whole range
        lo = 10 + 50 * c // SMALL_CHAINS
        n_steps = rng.randint(lo, 10 + 50 * (c + 1) // SMALL_CHAINS)
        steps = [rng.choice(choices) for _ in range(n_steps)]
        depth, _, seq = _cap_depth(fs, steps, SMALL_CAP)
        L = SMALL_L
        while L > 1 and (not _deep_enough(seq, depth, L) or
                         _lamination_windows(seq, depth, L) > SMALL_WINDOWS):
            L -= 1
        unf = _write(fs, steps, "unfolding", directory, f"chain{c}u")
        fold = _write(fs, steps, "folding", directory, f"chain{c}f")
        T = len(steps)
        tag = f"chain{c}"
        jobs += [
            Job(f"{tag}-fold-u", "fold", {"sequence": unf}),
            Job(f"{tag}-fold-f", "fold", {"sequence": fold}),
            Job(f"{tag}-cone-u", "cone", {"sequence": unf, "depth": T}),
            Job(f"{tag}-cone-f", "cone", {"sequence": fold, "depth": T}),
            Job(f"{tag}-lamination", "lamination",
                {"sequence": unf, "depth": depth, "length": L}),
            Job(f"{tag}-decompose", "decompose",
                {"sequence": unf, "window": f"-{min(T, 8)}:0"}),
            Job(f"{tag}-progress", "progress", {"sequence": fold}),
        ]
    jobs.append(Job("walk-seed1", "walk", {"seed": 1, "steps": WALK_STEPS},
                    canned="small_jobs/walk-seed1"))
    for w in range(WALKS - 1):
        jobs.append(Job(f"walk{w}", "walk",
                        {"seed": rng.randrange(1, 2 ** 31),
                         "steps": WALK_STEPS}))
    kinds2 = ("rose2", "rose2_swapped", "rose2_inverted", "theta", "barbell")
    for d in range(DISTANCE_PAIRS):
        # T's edge count sets the brute-force length, so T's kind cycles
        # and every seed brute-forces the same word trees
        if d % 4 == 3:
            T, U = (_random_marked(fs, rng, "rose3") for _ in range(2))
        else:
            T = _random_marked(fs, rng, kinds2[d % len(kinds2)])
            U = _random_marked(fs, rng, rng.choice(kinds2))
        paths = []
        for side, marked in (("T", T), ("U", U)):
            path = os.path.join(directory, f"pair{d}{side}.graph")
            fs.io_formats.write_graph(marked, path)
            paths.append(path)
        jobs.append(Job(f"distance{d}", "distance",
                        {"graph1": paths[0], "graph2": paths[1],
                         "bruteforce": 2 * T.graph.n_edges}))
    return jobs


WORKLOADS = {
    "language": language,
    "deep_transport": deep_transport,
    "small_jobs": small_jobs,
}

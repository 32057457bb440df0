"""Plain-text file formats for graphs, morphisms and sequences.

Graph files hold VERTICES / EDGES / LENGTHS / MARKING sections; morphism
files point at their DOMAIN and CODOMAIN graph files (paths resolved
relative to the morphism file) and list edge images as signed tokens; the
vertex map is inferred from the edge images.  Sequence files list morphism
files, each optionally repeated with an ``x<count>`` suffix.  Lengths are
exact rationals written ``num/den``.

``parse_sequence`` parses each morphism file and each graph file once per
call, however many steps name it; the tables live for that call only.
"""

import os
from fractions import Fraction

from .errors import BudgetExceededError, FormatError
from .graphs import Marking, MarkedGraph, OrientedGraph
from .morphisms import GraphMorphism
from .sequences import FoldingSequence

_GRAPH_SECTIONS = ("VERTICES", "EDGES", "LENGTHS", "MARKING")
_MARKING_SUBSECTIONS = ("TREE", "BASIS")


def _logical_lines(text):
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line


def _sectionize(text, headers):
    sections = {}
    current = None
    for line in _logical_lines(text):
        if line in headers:
            if line in sections:
                raise FormatError(f"duplicate section {line}")
            current = line
            sections[current] = []
        elif current is None:
            raise FormatError(f"content before any section header: {line!r}")
        else:
            sections[current].append(line.split())
    return sections


def _fraction(token):
    try:
        q = Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad rational {token!r}") from exc
    return q


def _frac_token(q):
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 \
        else f"{q.numerator}/{q.denominator}"


# -- graphs --------------------------------------------------------------


def parse_graph_text(text):
    sections = _sectionize(text, _GRAPH_SECTIONS)
    for required in ("VERTICES", "EDGES"):
        if required not in sections:
            raise FormatError(f"missing section {required}")
    vertices = [v for line in sections["VERTICES"] for v in line]
    edges = []
    for line in sections["EDGES"]:
        if len(line) != 3:
            raise FormatError(f"edge line needs 'id init term': {line}")
        edges.append(tuple(line))
    try:
        graph = OrientedGraph(vertices, edges)
    except Exception as exc:
        raise FormatError(f"bad graph: {exc}") from exc
    lengths = {name: Fraction(1) for name, _, _ in edges}
    for line in sections.get("LENGTHS", []):
        if len(line) != 2:
            raise FormatError(f"length line needs 'edge value': {line}")
        name, value = line
        if name not in lengths:
            raise FormatError(f"length for unknown edge {name!r}")
        lengths[name] = _fraction(value)
    marking = None
    if "MARKING" in sections:
        marking = _parse_marking(graph, sections["MARKING"])
    try:
        return MarkedGraph(graph, lengths, marking)
    except Exception as exc:
        raise FormatError(f"bad marked graph: {exc}") from exc


def _parse_marking(graph, lines):
    sub = None
    tree = []
    basis = {}
    for line in lines:
        if len(line) == 1 and line[0] in _MARKING_SUBSECTIONS:
            sub = line[0]
        elif sub == "TREE":
            tree.extend(line)
        elif sub == "BASIS":
            if len(line) != 2:
                raise FormatError(f"basis line needs 'edge symbol': {line}")
            name, symbol = line
            try:
                basis[name] = int(symbol)
            except ValueError as exc:
                raise FormatError(f"bad basis symbol {symbol!r}") from exc
        else:
            raise FormatError(
                f"marking content outside TREE/BASIS: {line}")
    try:
        return Marking(graph, tree, basis or None)
    except Exception as exc:
        raise FormatError(f"bad marking: {exc}") from exc


def parse_graph(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph_text(fh.read())


def serialize_graph(marked):
    g = marked.graph
    lines = ["VERTICES", " ".join(g.vertices), "EDGES"]
    for j, name in enumerate(g.edge_ids):
        lines.append(f"{name} {g.init(j + 1)} {g.term(j + 1)}")
    lines.append("LENGTHS")
    for j, name in enumerate(g.edge_ids):
        lines.append(f"{name} {_frac_token(marked.lengths[j])}")
    m = marked.marking
    lines.append("MARKING")
    lines.append("TREE")
    if m.tree_edges:
        lines.append(" ".join(sorted(m.tree_edges)))
    lines.append("BASIS")
    for name in sorted(m.basis_map):
        lines.append(f"{name} {m.basis_map[name]}")
    return "\n".join(lines) + "\n"


def write_graph(marked, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_graph(marked))


# -- morphisms -----------------------------------------------------------


def _infer_vertex_map(domain, codomain, images):
    """Vertex images from edge images; edges collapsed to points contribute
    equality constraints."""
    assigned = {}
    collapsed = set()
    for j, name in enumerate(domain.edge_ids):
        p = images[name]
        u, w = domain.init(j + 1), domain.term(j + 1)
        if p:
            for v, img in ((u, codomain.path_init(p)),
                           (w, codomain.path_term(p))):
                if assigned.get(v, img) != img:
                    raise FormatError(
                        f"vertex {v!r} maps inconsistently "
                        f"({assigned[v]!r} vs {img!r})")
                assigned[v] = img
        else:
            collapsed.add(name)
    vmap = {}
    for v in domain.vertices:
        candidates = [assigned[x] for x in domain._reach(v, collapsed)
                      if x in assigned]
        if not candidates:
            raise FormatError(
                f"cannot infer the image of vertex {v!r}; every incident "
                "edge is collapsed")
        if any(c != candidates[0] for c in candidates):
            raise FormatError(f"vertex {v!r} maps inconsistently")
        vmap[v] = candidates[0]
    return vmap


def parse_morphism_text(text, base_dir="."):
    return _parse_morphism_text(text, base_dir, {})


def _graph_at(path, graphs):
    """The graph file at ``path``, parsed on its first reference in
    ``graphs`` (keyed by normalized path) and shared after that.  The first
    reference opens ``path`` as written, so its errors read as before."""
    key = os.path.normpath(path)
    if key not in graphs:
        graphs[key] = parse_graph(path)
    return graphs[key]


def _parse_morphism_text(text, base_dir, graphs):
    sections = _sectionize(text, ("DOMAIN", "CODOMAIN", "MORPHISM"))
    for required in ("DOMAIN", "CODOMAIN", "MORPHISM"):
        if required not in sections:
            raise FormatError(f"missing section {required}")
    paths = {}
    for key in ("DOMAIN", "CODOMAIN"):
        lines = sections[key]
        if len(lines) != 1 or len(lines[0]) != 1:
            raise FormatError(f"{key} needs exactly one file path")
        paths[key] = os.path.join(base_dir, lines[0][0])
    dom = _graph_at(paths["DOMAIN"], graphs)
    cod = _graph_at(paths["CODOMAIN"], graphs)
    images = {}
    for line in sections["MORPHISM"]:
        name, tokens = line[0], line[1:]
        if name not in dom.graph.edge_ids:
            raise FormatError(f"morphism line for unknown edge {name!r}")
        if name in images:
            raise FormatError(f"duplicate morphism line for edge {name!r}")
        try:
            images[name] = cod.graph.parse_path(tokens)
        except Exception as exc:
            raise FormatError(f"bad image tokens for {name!r}: {exc}") from exc
    missing = set(dom.graph.edge_ids) - set(images)
    if missing:
        raise FormatError(f"no image for edges {sorted(missing)}")
    vmap = _infer_vertex_map(dom.graph, cod.graph, images)
    try:
        return GraphMorphism(dom.graph, cod.graph, vmap, images)
    except Exception as exc:
        raise FormatError(f"bad morphism: {exc}") from exc


def parse_morphism(path):
    return _parse_morphism(path, {})


def _parse_morphism(path, graphs):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return _parse_morphism_text(text, os.path.dirname(os.path.abspath(path)),
                                graphs)


def serialize_morphism(f, domain_file, codomain_file):
    lines = ["DOMAIN", domain_file, "CODOMAIN", codomain_file, "MORPHISM"]
    for j, name in enumerate(f.domain.edge_ids):
        tokens = f.codomain.tokens(f.edge_image(j + 1))
        lines.append(name + (" " + " ".join(tokens) if tokens else ""))
    return "\n".join(lines) + "\n"


# -- sequences -----------------------------------------------------------


def parse_sequence(path):
    """Read a sequence file; repeated references to one morphism file share
    a single morphism object, so validation runs once per distinct step,
    and repeated references to one graph file (after path normalization)
    share one parsed graph, so each graph file is parsed once per call.
    A line ``file xCOUNT`` is one run of COUNT steps, never expanded."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    base = os.path.dirname(os.path.abspath(path))
    sections = _sectionize(text, ("DIRECTION", "STEPS", "BLOCKS"))
    for required in ("DIRECTION", "STEPS"):
        if required not in sections:
            raise FormatError(f"missing section {required}")
    dirlines = sections["DIRECTION"]
    if len(dirlines) != 1 or len(dirlines[0]) != 1 \
            or dirlines[0][0] not in ("folding", "unfolding"):
        raise FormatError("DIRECTION must be 'folding' or 'unfolding'")
    direction = dirlines[0][0]
    cache = {}
    graphs = {}
    runs = []
    for line in sections["STEPS"]:
        count = 1
        tokens = list(line)
        if len(tokens) == 2 and tokens[1].startswith("x"):
            try:
                count = int(tokens[1][1:])
            except ValueError as exc:
                raise FormatError(f"bad repeat count {tokens[1]!r}") from exc
            if count < 1:
                raise FormatError(f"repeat count must be >= 1: {tokens[1]}")
            tokens = tokens[:1]
        if len(tokens) != 1:
            raise FormatError(f"step line needs 'file [xCOUNT]': {line}")
        resolved = os.path.normpath(os.path.join(base, tokens[0]))
        if resolved not in cache:
            cache[resolved] = _parse_morphism(resolved, graphs)
        runs.append((cache[resolved], count))
    boundaries = None
    if "BLOCKS" in sections:
        try:
            boundaries = tuple(int(tok) for line in sections["BLOCKS"]
                               for tok in line)
        except ValueError as exc:
            raise FormatError("BLOCKS entries must be integers") from exc
    try:
        return FoldingSequence.from_runs(runs, direction,
                                         block_boundaries=boundaries)
    except BudgetExceededError:
        raise
    except Exception as exc:
        raise FormatError(f"bad sequence: {exc}") from exc


def write_sequence(seq, directory, name):
    """Write a sequence plus all referenced graph and morphism files.

    Graphs are deduplicated by identity along the chain and written with
    unit lengths; repeated steps are written once and referenced with
    ``x<count>``.  Returns the sequence file path.
    """
    os.makedirs(directory, exist_ok=True)
    graph_files = {}

    def graph_file(g):
        if id(g) not in graph_files:
            fname = f"{name}_graph{len(graph_files)}.graph"
            write_graph(MarkedGraph(g, {e: 1 for e in g.edge_ids}),
                        os.path.join(directory, fname))
            graph_files[id(g)] = fname
        return graph_files[id(g)]

    step_files = {}
    step_lines = []
    for _, length, step in seq.step_runs:
        if id(step) not in step_files:
            fname = f"{name}_step{len(step_files)}.morphism"
            dom = graph_file(step.domain)
            cod = graph_file(step.codomain)
            with open(os.path.join(directory, fname), "w",
                      encoding="utf-8") as fh:
                fh.write(serialize_morphism(step, dom, cod))
            step_files[id(step)] = fname
        fname = step_files[id(step)]
        step_lines.append(fname if length == 1 else f"{fname} x{length}")
    lines = ["DIRECTION", seq.direction, "STEPS"] + step_lines
    if seq.block_boundaries:
        lines.append("BLOCKS")
        lines.append(" ".join(str(b) for b in seq.block_boundaries))
    out = os.path.join(directory, f"{name}.sequence")
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return out

"""File formats and the command-line interface."""

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldspace import cli, io_formats, morphisms
from foldspace.cli import main
from foldspace.cones import current_cone, ergodicity_verdict, length_cone
from foldspace.decomposition import (moduli_window, recurrence_check,
                                     structural_sanity,
                                     transverse_decomposition_folding,
                                     transverse_decomposition_unfolding)
from foldspace.errors import FormatError
from foldspace.examples import (fibonacci_step, gen_alternating_block,
                                gen_fibonacci)
from foldspace.graphs import MarkedGraph, Marking, rose, theta_graph
from foldspace.io_formats import (
    parse_graph,
    parse_graph_text,
    parse_morphism,
    parse_morphism_text,
    parse_sequence,
    serialize_graph,
    serialize_morphism,
    write_graph,
    write_sequence,
)
from foldspace.morphisms import GraphMorphism, compose
from foldspace.reports import dumps_csv, dumps_json, frac_str
from foldspace.sequences import (FoldingSequence,
                                 current_track_from_initial,
                                 length_track_from_terminal,
                                 simplicial_length_measure)

from conftest import barbell_graph, marked, rose_morphism


# -- graph files ----------------------------------------------------------


class TestGraphFormat:
    def test_round_trip_plain_rose(self, rose2):
        mg = marked(rose2, (Fraction(1, 2), Fraction(3, 7)))
        assert parse_graph_text(serialize_graph(mg)) == mg

    def test_round_trip_custom_marking(self):
        g = theta_graph()
        mk = Marking(g, ("e2",), {"e1": 2, "e3": -1})
        mg = MarkedGraph(g, {"e1": 1, "e2": Fraction(2, 3),
                             "e3": Fraction(4, 7)}, mk)
        back = parse_graph_text(serialize_graph(mg))
        assert back == mg
        assert back.marking.tree_edges == frozenset({"e2"})
        assert back.marking.basis_map == {"e1": 2, "e3": -1}

    def test_comments_and_blank_lines(self):
        text = """
# a rose
VERTICES
*           # the only vertex
EDGES
a * *
b * *
LENGTHS
a 1/3
b 2/3
"""
        mg = parse_graph_text(text)
        assert mg.lengths == (Fraction(1, 3), Fraction(2, 3))

    def test_default_lengths_and_marking(self):
        text = "VERTICES\n*\nEDGES\na * *\nb * *\n"
        mg = parse_graph_text(text)
        assert mg.lengths == (1, 1)
        assert mg.marking.basis_map == {"a": 1, "b": 2}

    def test_missing_section(self):
        with pytest.raises(FormatError, match="missing section"):
            parse_graph_text("VERTICES\n*\n")

    def test_duplicate_section(self):
        with pytest.raises(FormatError, match="duplicate"):
            parse_graph_text("VERTICES\n*\nVERTICES\n*\nEDGES\na * *\n")

    def test_content_before_section(self):
        with pytest.raises(FormatError, match="before any section"):
            parse_graph_text("junk\nVERTICES\n*\n")

    def test_bad_edge_line(self):
        with pytest.raises(FormatError, match="init term"):
            parse_graph_text("VERTICES\n*\nEDGES\na *\nb * *\n")

    def test_bad_rational(self):
        text = "VERTICES\n*\nEDGES\na * *\nb * *\nLENGTHS\na 1/0\n"
        with pytest.raises(FormatError, match="bad rational"):
            parse_graph_text(text)

    def test_length_for_unknown_edge(self):
        text = "VERTICES\n*\nEDGES\na * *\nb * *\nLENGTHS\nzz 1\n"
        with pytest.raises(FormatError, match="unknown edge"):
            parse_graph_text(text)

    def test_low_valence_graph_rejected(self):
        text = "VERTICES\nu v\nEDGES\na u v\nb u v\n"
        with pytest.raises(FormatError, match="bad graph"):
            parse_graph_text(text)

    def test_marking_stray_content(self):
        text = ("VERTICES\n*\nEDGES\na * *\nb * *\n"
                "MARKING\na 1\n")
        with pytest.raises(FormatError, match="outside TREE/BASIS"):
            parse_graph_text(text)

    def test_bad_basis_symbol(self):
        text = ("VERTICES\n*\nEDGES\na * *\nb * *\n"
                "MARKING\nBASIS\na one\n")
        with pytest.raises(FormatError, match="bad basis symbol"):
            parse_graph_text(text)

    def test_write_and_parse_file(self, tmp_path, theta):
        mg = marked(theta, (1, 2, 4))
        path = tmp_path / "theta.graph"
        write_graph(mg, path)
        assert parse_graph(path) == mg


# -- morphism files -------------------------------------------------------


def _write_pair(tmp_path, dom, cod, dom_name="dom.graph",
                cod_name="cod.graph"):
    write_graph(dom, tmp_path / dom_name)
    write_graph(cod, tmp_path / cod_name)
    return dom_name, cod_name


class TestMorphismFormat:
    def test_round_trip(self, tmp_path, rose2):
        f = rose_morphism(rose2, {"a": (1, 2), "b": (1,)})
        dn, cn = _write_pair(tmp_path, marked(rose2), marked(rose2))
        text = serialize_morphism(f, dn, cn)
        (tmp_path / "f.morphism").write_text(text)
        back = parse_morphism(tmp_path / "f.morphism")
        assert back.domain == rose2 and back.codomain == rose2
        assert back.edge_image(1) == (1, 2)
        assert back.edge_image(2) == (1,)
        assert back.vertex_map == {"*": "*"}

    def test_vertex_map_inferred_from_collapsed_edge(self, tmp_path, rose2):
        theta = theta_graph()
        # collapsing e1 merges u and v, which then map to the rose vertex
        collapse = GraphMorphism(theta, rose2, {"u": "*", "v": "*"},
                                 {"e1": (), "e2": (1,), "e3": (2,)})
        dn, cn = _write_pair(tmp_path, marked(theta), marked(rose2))
        (tmp_path / "c.morphism").write_text(
            serialize_morphism(collapse, dn, cn))
        back = parse_morphism(tmp_path / "c.morphism")
        assert back.vertex_map == {"u": "*", "v": "*"}
        assert back.edge_image(1) == ()

    def test_inconsistent_vertex_map(self, tmp_path):
        theta = theta_graph()
        dn, cn = _write_pair(tmp_path, marked(theta), marked(theta))
        text = (f"DOMAIN\n{dn}\nCODOMAIN\n{cn}\n"
                "MORPHISM\ne1 e1\ne2 -e2\ne3 e3\n")
        (tmp_path / "bad.morphism").write_text(text)
        with pytest.raises(FormatError, match="inconsistently"):
            parse_morphism(tmp_path / "bad.morphism")

    def test_fully_collapsed_vertex(self, tmp_path, rose2):
        dn, cn = _write_pair(tmp_path, marked(rose2), marked(rose2))
        text = f"DOMAIN\n{dn}\nCODOMAIN\n{cn}\nMORPHISM\na\nb\n"
        (tmp_path / "bad.morphism").write_text(text)
        with pytest.raises(FormatError, match="every incident edge"):
            parse_morphism(tmp_path / "bad.morphism")

    def test_unknown_edge_line(self, tmp_path, rose2):
        dn, cn = _write_pair(tmp_path, marked(rose2), marked(rose2))
        text = f"DOMAIN\n{dn}\nCODOMAIN\n{cn}\nMORPHISM\na a\nb a\nzz a\n"
        (tmp_path / "bad.morphism").write_text(text)
        with pytest.raises(FormatError, match="unknown edge"):
            parse_morphism(tmp_path / "bad.morphism")

    def test_duplicate_edge_line(self, tmp_path, rose2):
        dn, cn = _write_pair(tmp_path, marked(rose2), marked(rose2))
        text = f"DOMAIN\n{dn}\nCODOMAIN\n{cn}\nMORPHISM\na a\na b\nb a\n"
        (tmp_path / "bad.morphism").write_text(text)
        with pytest.raises(FormatError, match="duplicate"):
            parse_morphism(tmp_path / "bad.morphism")

    def test_missing_image(self, tmp_path, rose2):
        dn, cn = _write_pair(tmp_path, marked(rose2), marked(rose2))
        text = f"DOMAIN\n{dn}\nCODOMAIN\n{cn}\nMORPHISM\na a b\n"
        (tmp_path / "bad.morphism").write_text(text)
        with pytest.raises(FormatError, match="no image"):
            parse_morphism(tmp_path / "bad.morphism")

    def test_bad_image_token(self, tmp_path, rose2):
        dn, cn = _write_pair(tmp_path, marked(rose2), marked(rose2))
        text = f"DOMAIN\n{dn}\nCODOMAIN\n{cn}\nMORPHISM\na qq\nb a\n"
        (tmp_path / "bad.morphism").write_text(text)
        with pytest.raises(FormatError, match="bad image tokens"):
            parse_morphism(tmp_path / "bad.morphism")

    def test_domain_needs_one_path(self):
        with pytest.raises(FormatError, match="exactly one file"):
            parse_morphism_text("DOMAIN\nCODOMAIN\nx\nMORPHISM\n")


# -- sequence files -------------------------------------------------------


class TestSequenceFormat:
    def _write_fib(self, tmp_path, reps="x4", blocks=None):
        g = marked(rose("ab"))
        write_graph(g, tmp_path / "g.graph")
        f = rose_morphism(g.graph, {"a": (1, 2), "b": (1,)})
        (tmp_path / "f.morphism").write_text(
            serialize_morphism(f, "g.graph", "g.graph"))
        lines = ["DIRECTION", "unfolding", "STEPS", f"f.morphism {reps}"]
        if blocks:
            lines += ["BLOCKS", blocks]
        (tmp_path / "s.sequence").write_text("\n".join(lines) + "\n")
        return tmp_path / "s.sequence"

    def test_repeat_counts_share_one_object(self, tmp_path):
        seq = parse_sequence(self._write_fib(tmp_path, reps="x4"))
        assert seq.n_steps == 4
        assert len({id(m) for m in seq.morphisms}) == 1
        assert seq.direction == "unfolding"

    def test_blocks_section(self, tmp_path):
        seq = parse_sequence(self._write_fib(tmp_path, reps="x4",
                                             blocks="2 4"))
        assert seq.block_boundaries == (2, 4)

    def test_write_sequence_round_trip(self, tmp_path, rose2):
        f = rose_morphism(rose2, {"a": (1, 2), "b": (1,)})
        h = rose_morphism(rose2, {"a": (2,), "b": (2, 1)})
        from foldspace.sequences import FoldingSequence
        seq = FoldingSequence([f, f, h, f], direction="folding",
                              block_boundaries=(2, 4))
        path = write_sequence(seq, tmp_path, "mix")
        text = (tmp_path / "mix.sequence").read_text()
        assert "x2" in text
        back = parse_sequence(path)
        assert back.direction == "folding"
        assert back.block_boundaries == (2, 4)
        assert [back.matrix_at(n) for n in range(4)] == \
            [seq.matrix_at(n) for n in range(4)]
        # runs: f x2, h, f
        assert [r[1] for r in back.step_runs] == [2, 1, 1]

    def test_bad_repeat_count(self, tmp_path):
        path = self._write_fib(tmp_path, reps="xq")
        with pytest.raises(FormatError, match="bad repeat count"):
            parse_sequence(path)

    def test_zero_repeat_count(self, tmp_path):
        path = self._write_fib(tmp_path, reps="x0")
        with pytest.raises(FormatError, match=">= 1"):
            parse_sequence(path)

    def test_missing_direction(self, tmp_path):
        self._write_fib(tmp_path)
        (tmp_path / "s.sequence").write_text("STEPS\nf.morphism\n")
        with pytest.raises(FormatError, match="missing section DIRECTION"):
            parse_sequence(tmp_path / "s.sequence")

    def test_bad_direction(self, tmp_path):
        self._write_fib(tmp_path)
        (tmp_path / "s.sequence").write_text(
            "DIRECTION\nsideways\nSTEPS\nf.morphism\n")
        with pytest.raises(FormatError, match="DIRECTION"):
            parse_sequence(tmp_path / "s.sequence")

    def test_bad_blocks(self, tmp_path):
        path = self._write_fib(tmp_path, reps="x4", blocks="two")
        with pytest.raises(FormatError, match="BLOCKS"):
            parse_sequence(path)


# -- graph files shared across steps ------------------------------------

# one transvection per line, cycled along the chain; each step gets its own
# morphism file, so only the graph files are shared
_TRANSVECTIONS = ("a a b\nb b\nc c\n", "a a\nb b c\nc c\n",
                  "a a\nb b\nc c a\n")


def _write_shared_chain(tmp_path, graph_names, bad=None):
    """A folding chain on the rank-3 rose whose step k (0-based) names the
    graph file ``graph_names[k]`` as domain and codomain; the step files
    sit in ``tmp_path`` and ``sub``.  ``bad`` maps a graph file name to
    text written there in place of the rose."""
    (tmp_path / "sub").mkdir()
    write_graph(marked(rose("abc")), tmp_path / "g.graph")
    for name, text in (bad or {}).items():
        (tmp_path / name).write_text(text)
    lines = ["DIRECTION", "folding", "STEPS"]
    for k, name in enumerate(graph_names):
        where = "sub" if k % 2 else "."
        ref = "../" + name if k % 2 else name
        (tmp_path / where / f"f{k}.morphism").write_text(
            f"DOMAIN\n{ref}\nCODOMAIN\n{ref}\nMORPHISM\n"
            + _TRANSVECTIONS[k % 3])
        lines.append(f"{where}/f{k}.morphism")
    (tmp_path / "s.sequence").write_text("\n".join(lines) + "\n")
    return str(tmp_path / "s.sequence")


def _fold(path):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(["fold", path])
    return rc, out.getvalue(), err.getvalue()


_SPELLINGS = ("g.graph", "./g.graph", "sub/../g.graph")


def test_shared_graph_sequence_matches_step_by_step_parse(tmp_path):
    path = _write_shared_chain(tmp_path, _SPELLINGS * 2)
    seq = parse_sequence(path)
    steps = [parse_morphism(tmp_path / ("sub" if k % 2 else ".")
                            / f"f{k}.morphism") for k in range(6)]
    assert seq.direction == "folding" and seq.n_steps == 6
    assert [n for _, n, _ in seq.step_runs] == [1] * 6
    assert list(seq.morphisms) == steps
    assert [seq.matrix_at(n) for n in range(6)] == \
        [FoldingSequence(steps, "folding").matrix_at(n) for n in range(6)]


def test_each_graph_file_is_parsed_once_per_sequence(tmp_path, monkeypatch):
    path = _write_shared_chain(tmp_path, _SPELLINGS * 2)
    calls = []

    def counting(p):
        calls.append(p)
        return parse_graph(p)

    monkeypatch.setattr(io_formats, "parse_graph", counting)
    seq = parse_sequence(path)
    assert len(calls) == 1
    assert all(f.domain is seq.morphisms[0].domain
               and f.codomain is seq.morphisms[0].domain
               for f in seq.morphisms)
    # the table lives for one call: a second parse reads the file again
    parse_sequence(path)
    assert len(calls) == 2


_BROKEN_GRAPH = "VERTICES\n*\nEDGES\na * *\nb * q\n"


def test_broken_graph_named_by_two_steps_exits_2(tmp_path):
    names = ["g.graph", "bad.graph", "g.graph", "./g.graph", "bad.graph"]
    path = _write_shared_chain(tmp_path, names,
                               bad={"bad.graph": _BROKEN_GRAPH})
    assert _fold(path) == (
        2, "", "error: bad graph: edge b has endpoint outside the vertex set\n")


def test_missing_graph_file_exits_4(tmp_path):
    names = ["g.graph", "sub/../missing.graph", "g.graph", "missing.graph"]
    path = _write_shared_chain(tmp_path, names)
    # the first reference names the file, as it is written there
    missing = os.path.join(str(tmp_path / "sub"), "../sub/../missing.graph")
    assert _fold(path) == (
        4, "", f"io error: [Errno 2] No such file or directory: "
               f"'{missing}'\n")


# -- command line ---------------------------------------------------------


def _gen(tmp_path, *args):
    rc = main(["gen", *args, "--out-dir", str(tmp_path)])
    assert rc == 0
    return next(str(p) for p in tmp_path.iterdir()
                if p.name.endswith(".sequence"))


class TestCli:
    def test_gen_then_cone(self, tmp_path):
        seq_file = _gen(tmp_path, "fibonacci", "--steps", "12",
                        "--direction", "unfolding")
        out = tmp_path / "cone.json"
        rc = main(["cone", seq_file, "--depth", "8", "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["cone"]["depth"] == 8
        assert data["cone"]["diameter_ratio"] == "442/441"
        assert data["verdict"]["kind"] in ("unique", "undecided")

    def test_fold_with_window(self, tmp_path):
        seq_file = _gen(tmp_path, "fibonacci", "--steps", "10",
                        "--direction", "unfolding")
        out = tmp_path / "fold.json"
        rc = main(["fold", seq_file, "--window=-3:0", "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["validated"] is True
        assert data["reduced_window"]["passed"] in (True, False)

    def test_fold_csv(self, tmp_path):
        seq_file = _gen(tmp_path, "fibonacci", "--steps", "10",
                        "--direction", "folding")
        out = tmp_path / "fold.csv"
        rc = main(["fold", seq_file, "--format", "csv", "--out", str(out)])
        assert rc == 0
        assert out.read_text().splitlines()[0] == "level,log_extreme"

    def test_lamination_report(self, tmp_path):
        seq_file = _gen(tmp_path, "fibonacci", "--steps", "15",
                        "--direction", "unfolding")
        out = tmp_path / "lam.json"
        rc = main(["lamination", seq_file, "--depth", "12", "--length", "6",
                   "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["count"] == 7
        assert len(data["words"]) == 7

    def test_decompose_report(self, tmp_path):
        seq_file = _gen(tmp_path, "alternating_block", "--rank", "4",
                        "--schedule", "4,8", "--direction", "unfolding")
        out = tmp_path / "dec.json"
        rc = main(["decompose", seq_file, "--window=-8:0",
                   "--seeds", "a,c", "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert "decomposition" in data and "recurrence" in data

    def test_distance_with_bruteforce(self, tmp_path, rose2):
        t = tmp_path / "t.graph"
        u = tmp_path / "u.graph"
        write_graph(marked(rose2, (Fraction(1, 2), Fraction(1, 2))), t)
        write_graph(marked(rose2, (Fraction(1, 3), Fraction(2, 3))), u)
        out = tmp_path / "d.json"
        rc = main(["distance", str(t), str(u), "--bruteforce", "4",
                   "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["forward"]["ratio"] == "4/3"
        assert data["agrees"] is True

    def test_progress_with_speed(self, tmp_path):
        seq_file = _gen(tmp_path, "fibonacci", "--steps", "12",
                        "--direction", "folding")
        out = tmp_path / "p.json"
        rc = main(["progress", seq_file, "--levels", "0:11:2", "--speed",
                   "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["progress"]["horizons"] == [1] * 6
        assert "speed" in data

    def test_walk_deterministic(self, tmp_path):
        out1 = tmp_path / "w1.json"
        out2 = tmp_path / "w2.json"
        assert main(["walk", "--seed", "7", "--steps", "40",
                     "--out", str(out1)]) == 0
        assert main(["walk", "--seed", "7", "--steps", "40",
                     "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_byte_determinism(self, tmp_path):
        seq_file = _gen(tmp_path, "fibonacci", "--steps", "12",
                        "--direction", "unfolding")
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["cone", seq_file, "--depth", "6",
                     "--out", str(a)]) == 0
        assert main(["cone", seq_file, "--depth", "6",
                     "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_exit_code_2_on_malformed_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.sequence"
        bad.write_text("not a sequence\n")
        assert main(["cone", str(bad), "--depth", "4"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_exit_code_3_on_budget(self, tmp_path, capsys):
        seq_file = _gen(tmp_path, "fibonacci", "--steps", "40",
                        "--direction", "unfolding")
        rc = main(["lamination", seq_file, "--depth", "40",
                   "--length", "8"])
        assert rc == 3
        assert "budget:" in capsys.readouterr().err

    def test_exit_code_4_on_bad_output_path(self, tmp_path, capsys):
        seq_file = _gen(tmp_path, "fibonacci", "--steps", "8",
                        "--direction", "unfolding")
        missing = os.path.join(str(tmp_path), "no_such_dir", "x.json")
        rc = main(["fold", seq_file, "--out", missing])
        assert rc == 4
        assert "io error:" in capsys.readouterr().err

    def test_stdout_default(self, tmp_path, capsys):
        seq_file = _gen(tmp_path, "fibonacci", "--steps", "8",
                        "--direction", "unfolding")
        capsys.readouterr()  # drop the gen report
        assert main(["cone", seq_file, "--depth", "4"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["cone"]["depth"] == 4


# -- pinned report bytes ---------------------------------------------------


DECOMPOSE_DIGESTS = {
    ("unfolding", None):
        "ed87b2a7679938363b67f66d92c02878e2a611c88f8fc7e53b7a543e0e5bd6b7",
    ("unfolding", "a,c"):
        "80dd270a1485d71c0adfe8a88a2fab72a4107b64ca510178abb473fd3a94ba07",
    ("folding", None):
        "68ff1e59dfd13719a99f566d59d13aff1d60e938956f5e3f1f800829e93d1a77",
    ("folding", "a,c"):
        "a955dc6c949862b6ab173e1547a491cd5e29f0223bf1b2336a81739e1a672a2e",
}


@pytest.mark.parametrize("direction,seeds", list(DECOMPOSE_DIGESTS))
def test_decompose_report_bytes(tmp_path, direction, seeds):
    """Both decomposition sides, with one all-ones measure and with one
    measure per seed edge, keep their report bytes."""
    seq_file = _gen(tmp_path, "alternating_block", "--rank", "4",
                    "--schedule", "3,3,3", "--direction", direction)
    window = "--window=-9:0" if direction == "unfolding" else "--window=0:9"
    out = tmp_path / "dec.json"
    argv = ["decompose", seq_file, window, "--out", str(out)]
    if seeds:
        argv += ["--seeds", seeds]
    assert main(argv) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == DECOMPOSE_DIGESTS[(direction, seeds)]


WALK_SEED7_DIGEST = (
    "44a93166581a5299dc08f8df2262147caade6b049d057ede3daeb44343499312")

# ``walk --seed 1 --steps 2000``: the displacement rows as CSV, and the
# JSON report (the CI digest), both taken when ``_cmd_walk`` listed the
# rows and the writer wrote every float pair item by item
WALK_SEED1_DIGESTS = {
    "csv": "82d505569e136a370e0837f0b79e0741666836b63bf216e6eb9ed0c9c9eec6f7",
    "json": "0bf82f3666cf938512f8634ca1afcd956ef36a6ed6fdc203c248ad37d444e454",
}


@pytest.mark.parametrize("fmt", sorted(WALK_SEED1_DIGESTS))
def test_walk_report_bytes(capsys, fmt):
    rc, out, _ = _run(capsys, ["walk", "--seed", "1", "--steps", "2000",
                               "--format", fmt])
    assert rc == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
        WALK_SEED1_DIGESTS[fmt]


def test_parser_built_once(monkeypatch, capsys):
    built = []
    build = cli._build_parser

    def counting_build():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "_build_parser", counting_build)
    for _ in range(2):
        assert main(["walk", "--seed", "7", "--steps", "40"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
            WALK_SEED7_DIGEST
        with pytest.raises(SystemExit):
            main(["walk", "--steps", "40"])
    assert built == [1]


# -- input errors end in exit code 2 ----------------------------------------


@pytest.mark.parametrize("steps", ["0", "1", "-5"])
def test_walk_too_few_steps(capsys, steps):
    assert main(["walk", "--seed", "1", "--steps", steps]) == 2
    assert "at least 2 steps" in capsys.readouterr().err


@pytest.mark.parametrize("steps", ["100001", "1000000", "10000000000"])
def test_walk_past_the_step_budget_exits_3(capsys, steps):
    """A walk costs time quadratic in its steps; past ``walk.MAX_STEPS`` it
    is refused before any step is taken, with the limit in the message."""
    assert main(["walk", "--seed", "1", "--steps", steps]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("budget: ")
    assert "limit of 100000 steps" in captured.err


@pytest.mark.parametrize("length", ["0", "-2"])
def test_lamination_nonpositive_length(tmp_path, capsys, length):
    seq_file = _gen(tmp_path, "fibonacci", "--steps", "12")
    capsys.readouterr()
    assert main(["lamination", seq_file, "--depth", "5",
                 "--length", length]) == 2
    assert f"got {length}" in capsys.readouterr().err


@pytest.mark.parametrize("direction", ["unfolding", "folding"])
@pytest.mark.parametrize("seeds,named", [("zz", "'zz'"), (",", "''"),
                                         ("a,zz", "'zz'")])
def test_decompose_unknown_seed_edges(tmp_path, capsys, direction, seeds,
                                      named):
    seq_file = _gen(tmp_path, "alternating_block", "--rank", "4",
                    "--schedule", "3,3,3", "--direction", direction)
    window = "--window=-9:0" if direction == "unfolding" else "--window=0:9"
    capsys.readouterr()
    assert main(["decompose", seq_file, window, "--seeds", seeds]) == 2
    err = capsys.readouterr().err
    assert "unknown seed edges" in err and named in err
    assert "vanishes" not in err


# -- exact numbers past the int-to-str digit limit -------------------------


def _digit_limit():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter has no int-to-str digit limit")
    return limit


def test_huge_numbers_written_in_hex():
    limit = _digit_limit()
    ok, big = 10 ** (limit - 1), 10 ** limit        # limit, limit+1 digits
    assert frac_str(ok) == str(ok)
    assert frac_str(Fraction(ok, 7)) == f"{ok}/7"
    assert frac_str(big) == hex(big)
    assert frac_str(-big) == hex(-big)
    # one part past the limit puts both parts in hex
    assert frac_str(Fraction(big + 1, 7)) == f"{hex(big + 1)}/0x7"
    assert frac_str(Fraction(7, big + 1)) == f"0x7/{hex(big + 1)}"
    report = json.loads(dumps_json({"int": big, "ok": ok, "q": Fraction(1, 3),
                                    "flag": True}))
    assert report == {"int": hex(big), "ok": ok, "q": "1/3", "flag": True}
    assert dumps_csv(("x", "y"), [(big, Fraction(1, big + 1)), (ok, 2),
                                  (True, 0.5)]) == (
        f"x,y\n{hex(big)},0x1/{hex(big + 1)}\n{ok},2\nTrue,0.5\n")


def test_deep_cone_report_round_trips(tmp_path):
    """At depth 20000 the Fibonacci cone's exact diameter ratio has more
    than 8000 decimal digits; the report still writes it exactly."""
    seq_file = _gen(tmp_path, "fibonacci", "--steps", "20000")
    out = tmp_path / "cone.json"
    assert main(["cone", seq_file, "--depth", "20000", "--out",
                 str(out)]) == 0
    ratio = json.loads(out.read_text())["cone"]["diameter_ratio"]
    # generators (F_{m+1}, F_m) and (F_m, F_{m-1}) at even depth m: the
    # cross-ratio is F_{m+1} F_{m-1} / F_m^2 = (F_m^2 + 1) / F_m^2
    f_prev, f_m = 0, 1
    for _ in range(20000 - 1):
        f_prev, f_m = f_m, f_prev + f_m
    want = Fraction(f_m * f_m + 1, f_m * f_m)
    assert Fraction(*(int(part, 0) for part in ratio.split("/"))) == want
    if getattr(sys, "get_int_max_str_digits", lambda: 0)():
        assert ratio == f"{hex(want.numerator)}/{hex(want.denominator)}"


def test_fold_validates_a_1597_edge_step(tmp_path, capsys):
    """One step whose images total 1597 edges (the 14th Fibonacci power) is
    validated in parsing; a non-marking of that size exits 2."""
    f = g = fibonacci_step()
    for _ in range(13):
        g = compose(f, g)
    assert len(g.edge_image(1)) + len(g.edge_image(2)) == 1597
    path = write_sequence(FoldingSequence([g], "folding"), tmp_path, "fib14")
    assert main(["fold", path]) == 0
    assert json.loads(capsys.readouterr().out)["validated"] is True
    # a -> g(a) and b -> g(a) fold onto one circle: not a change of marking
    image = g.edge_image(1)
    bad = GraphMorphism(g.domain, g.codomain, {"*": "*"},
                        {"a": image, "b": image})
    path = write_sequence(FoldingSequence([bad], "folding", validate=False),
                          tmp_path, "collapsed")
    assert main(["fold", path]) == 2
    assert "not a change of marking" in capsys.readouterr().err


def test_fold_budget_in_parse_exits_3(tmp_path, monkeypatch, capsys):
    """A fold-budget refusal while parsing validates a sequence exits 3
    with the budget's own message, not 2 as a format error."""
    path = write_sequence(FoldingSequence([fibonacci_step()], "folding"),
                          tmp_path, "fib1")
    # the Fibonacci step needs one fold; a budget of one refuses it
    monkeypatch.setattr(morphisms, "fold_decompose",
                        partial(morphisms.fold_decompose, max_folds=1))
    assert main(["fold", path]) == 3
    assert capsys.readouterr().err == \
        "budget: fold decomposition did not terminate within 1 folds\n"


# -- lamination subcommand fuzz ------------------------------------------


@pytest.fixture(scope="module")
def canned_laminations(tmp_path_factory):
    """The canned Fibonacci chain (40 steps) and the rank-3 alternating
    blocks (5460 steps), both unfolding."""
    out = tmp_path_factory.mktemp("canned")
    with redirect_stdout(io.StringIO()):
        assert main(["gen", "fibonacci", "--out-dir", str(out)]) == 0
        assert main(["gen", "alternating_block", "--rank", "3",
                     "--out-dir", str(out)]) == 0
    return (str(out / "fibonacci.sequence"),
            str(out / "alternating3.sequence"))


@settings(max_examples=80, deadline=None)
@given(which=st.integers(0, 1), depth=st.integers(-2, 45),
       length=st.integers(-2, 64), source=st.sampled_from(("taken", "legal")))
def test_lamination_fuzz_exits_with_a_documented_code(
        canned_laminations, which, depth, length, source):
    # depths past 33 on the Fibonacci chain pass the expansion budget (exit
    # 3); the length stays at most 64, so every example runs in well under
    # a second
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(["lamination", canned_laminations[which],
                   f"--depth={depth}", f"--length={length}",
                   "--source", source])
    assert rc in (0, 2, 3, 4)
    if rc == 0:
        report = json.loads(out.getvalue())
        assert report["count"] == len(report["words"])
        assert set(report["complexity"]["counts"]) == \
            {str(L) for L in range(1, length + 1)}
    else:
        assert out.getvalue() == ""
        assert err.getvalue().startswith(("error: ", "budget: "))


# -- fold parser fuzz -------------------------------------------------------


@pytest.fixture(scope="module")
def canned_fold_files(tmp_path_factory):
    """The lines of every file of the canned Fibonacci chain and of the
    rank-3 alternating blocks, by example and file name."""
    out = tmp_path_factory.mktemp("canned_fold")
    with redirect_stdout(io.StringIO()):
        assert main(["gen", "fibonacci", "--out-dir", str(out)]) == 0
        assert main(["gen", "alternating_block", "--rank", "3",
                     "--out-dir", str(out)]) == 0
    return {example: {p.name: p.read_text().splitlines()
                      for p in out.iterdir() if p.name.startswith(example)}
            for example in ("fibonacci", "alternating3")}


_FUZZ_TOKENS = ("", "a", "b", "c", "-a", "-b", "zz", "*", "-", "0", "2",
                "1/0", "-1/2", "x", "x2", "#", "VERTICES", "EDGES", "MARKING",
                "TREE", "BASIS", "MORPHISM", "DOMAIN", "STEPS", "BLOCKS")


def _mutate(data, files):
    """One drawn edit of one file: drop, duplicate or swap lines, corrupt a
    token, a bad repeat count, or a DOMAIN naming a missing or broken
    graph file."""
    op = data.draw(st.sampled_from(
        ("drop", "dup", "swap", "token", "count", "domain")))
    if op in ("count", "domain"):
        suffix = ".sequence" if op == "count" else ".morphism"
        name = data.draw(st.sampled_from(
            sorted(n for n in files if n.endswith(suffix))))
    else:
        name = data.draw(st.sampled_from(sorted(files)))
    lines = files[name] = list(files[name])
    if not lines:
        return
    i = data.draw(st.integers(0, len(lines) - 1))
    if op == "drop":
        del lines[i]
    elif op == "dup":
        lines.insert(i, lines[i])
    elif op == "swap":
        j = data.draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    elif op == "token":
        tokens = lines[i].split() or [""]
        j = data.draw(st.integers(0, len(tokens) - 1))
        tokens[j] = data.draw(st.one_of(
            st.sampled_from(_FUZZ_TOKENS),
            st.text(alphabet="abcx*-/019#", max_size=4)))
        lines[i] = " ".join(tokens)
    elif op == "count":
        steps = [k for k, line in enumerate(lines) if ".morphism" in line]
        if steps:
            k = data.draw(st.sampled_from(steps))
            lines[k] = lines[k].split()[0] + " " + data.draw(
                st.sampled_from(("x0", "x-1", "xabc")))
    elif "DOMAIN" in lines[:-1]:
        k = lines.index("DOMAIN") + 1
        lines[k] = data.draw(st.sampled_from(
            ("missing.graph", "broken.graph")))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fold_parser_fuzz_exits_with_a_documented_code(canned_fold_files,
                                                       data):
    example = data.draw(st.sampled_from(sorted(canned_fold_files)))
    files = dict(canned_fold_files[example])
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data, files)
    with tempfile.TemporaryDirectory() as tmp:
        for name, lines in files.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
        with open(os.path.join(tmp, "broken.graph"), "w",
                  encoding="utf-8") as fh:
            fh.write(_BROKEN_GRAPH)
        rc, out, err = _fold(os.path.join(tmp, f"{example}.sequence"))
    # any other exception would escape main as a traceback
    assert rc in (0, 2, 3, 4)
    if rc == 0:
        assert json.loads(out)["n_steps"] >= 1
    else:
        assert out == ""
        assert err.startswith(("error: ", "budget: ", "io error: "))


# -- distance parser fuzz ---------------------------------------------------


@pytest.fixture(scope="module")
def canned_graph_files(tmp_path_factory):
    """The lines of the canned Fibonacci and rank-3 alternating-block graph
    files, and of two-vertex theta and barbell graphs with rational lengths
    and a spanning tree, by file name."""
    out = tmp_path_factory.mktemp("canned_graphs")
    with redirect_stdout(io.StringIO()):
        assert main(["gen", "fibonacci", "--out-dir", str(out)]) == 0
        assert main(["gen", "alternating_block", "--rank", "3",
                     "--out-dir", str(out)]) == 0
    theta = theta_graph()
    write_graph(MarkedGraph(theta, {"e1": Fraction(3, 2), "e2": 1,
                                    "e3": Fraction(1, 3)},
                            Marking(theta, ("e3",))), out / "theta.graph")
    barbell = barbell_graph()
    write_graph(MarkedGraph(barbell, {"p": 2, "q": Fraction(5, 4),
                                      "s": Fraction(1, 2)},
                            Marking(barbell, ("s",))), out / "barbell.graph")
    return {p.name: p.read_text().splitlines()
            for p in sorted(out.glob("*.graph"))}


_ENDPOINTS = ("*", "u", "v", "w", "", "-", "e1", "a")


def _mutate_graph(data, lines):
    """One drawn edit of a graph file's lines: drop, duplicate or swap
    lines, corrupt a token, or move an edge's endpoint (to another vertex,
    an unknown one or a token that names no vertex)."""
    op = data.draw(st.sampled_from(("drop", "dup", "swap", "token",
                                    "endpoint")))
    if not lines:
        return
    if op == "endpoint":
        start = lines.index("EDGES") + 1 if "EDGES" in lines else 0
        edges = [k for k in range(start, len(lines))
                 if len(lines[k].split()) == 3]
        if edges:
            k = data.draw(st.sampled_from(edges))
            tokens = lines[k].split()
            tokens[data.draw(st.integers(1, 2))] = data.draw(
                st.sampled_from(_ENDPOINTS))
            lines[k] = " ".join(tokens)
        return
    i = data.draw(st.integers(0, len(lines) - 1))
    if op == "drop":
        del lines[i]
    elif op == "dup":
        lines.insert(i, lines[i])
    elif op == "swap":
        j = data.draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    else:
        tokens = lines[i].split() or [""]
        j = data.draw(st.integers(0, len(tokens) - 1))
        tokens[j] = data.draw(st.one_of(
            st.sampled_from(_FUZZ_TOKENS + _ENDPOINTS),
            st.text(alphabet="abcuvx*-/019#", max_size=4)))
        lines[i] = " ".join(tokens)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_distance_parser_fuzz_exits_with_a_documented_code(
        canned_graph_files, data):
    names = sorted(canned_graph_files)
    pair = [list(canned_graph_files[data.draw(st.sampled_from(names))])
            for _ in range(2)]
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate_graph(data, pair[data.draw(st.integers(0, 1))])
    bruteforce = data.draw(st.sampled_from((None, "0", "4", "6")))
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for k, lines in enumerate(pair):
            path = os.path.join(tmp, f"g{k}.graph")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            paths.append(path)
        argv = ["distance", *paths]
        if bruteforce is not None:
            argv += ["--bruteforce", bruteforce]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(argv)
    # any other exception would escape main as a traceback
    assert rc in (0, 2, 3, 4)
    if rc == 0:
        report = json.loads(out.getvalue())
        assert set(report) >= {"forward", "backward", "symmetric"}
    else:
        assert out.getvalue() == ""
        assert err.getvalue().startswith(("error: ", "budget: ",
                                          "io error: "))


# -- the sequence writer ----------------------------------------------------


def _old_write_sequence(seq, directory, name):
    """The writer with its per-level lengths plumbing, called as every
    caller called it: no lengths, so unit lengths on every graph."""
    os.makedirs(directory, exist_ok=True)
    graph_files = {}

    def graph_file(g, level_hint):
        if id(g) not in graph_files:
            fname = f"{name}_graph{len(graph_files)}.graph"
            write_graph(MarkedGraph(g, {e: 1 for e in g.edge_ids}),
                        os.path.join(directory, fname))
            graph_files[id(g)] = fname
        return graph_files[id(g)]

    step_files = {}
    step_lines = []
    for idx, (start, length, step) in enumerate(seq.step_runs):
        if id(step) not in step_files:
            fname = f"{name}_step{len(step_files)}.morphism"
            dom = graph_file(step.domain, start)
            cod = graph_file(step.codomain, start + length)
            with open(os.path.join(directory, fname), "w",
                      encoding="utf-8") as fh:
                fh.write(serialize_morphism(step, dom, cod))
            step_files[id(step)] = fname
        fname = step_files[id(step)]
        step_lines.append(fname if length == 1 else f"{fname} x{length}")
    lines = ["DIRECTION", seq.direction, "STEPS"] + step_lines
    if getattr(seq, "block_boundaries", None):
        lines.append("BLOCKS")
        lines.append(" ".join(str(b) for b in seq.block_boundaries))
    out = os.path.join(directory, f"{name}.sequence")
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return out


def _files_digest(directory):
    """sha256 over the sorted file names and bytes of a directory."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


# the canned chains as the writer wrote them before its lengths plumbing
# went; the alternating blocks carry a BLOCKS section
WRITER_DIGESTS = {
    ("fibonacci", "unfolding"):
        "942e543d204b9792fce0fdf1b54033ddf5eef8e05662bdc8be06b55d49493e77",
    ("fibonacci", "folding"):
        "595a2fd704d78ec3d780e8dedc6919910ca7f01a173fe8fdabf3638963611a4c",
    ("alternating4", "unfolding"):
        "2d893c0db645414ecdb871eaa44e46ca461febed20c046108c878349ae1f28e4",
    ("alternating3", "folding"):
        "5c948458ad08fb879e20a881998308885733424fed67ed022c24cfb0c0aeb21c",
}


@pytest.mark.parametrize("example,direction", list(WRITER_DIGESTS))
def test_write_sequence_keeps_the_canned_files(tmp_path, example,
                                               direction):
    if example == "fibonacci":
        gen = gen_fibonacci(steps=40, direction=direction)
    else:
        gen = gen_alternating_block(rank=int(example[-1]),
                                    direction=direction)
    new, old = tmp_path / "new", tmp_path / "old"
    assert gen.write(str(new)) == str(new / f"{example}.sequence")
    _old_write_sequence(gen.sequence, str(old), example)
    assert sorted(os.listdir(new)) == sorted(os.listdir(old))
    for name in os.listdir(old):
        assert (new / name).read_bytes() == (old / name).read_bytes()
    assert _files_digest(new) == WRITER_DIGESTS[(example, direction)]
    if example.startswith("alternating"):
        assert "BLOCKS" in (new / f"{example}.sequence").read_text()


def test_write_sequence_matches_the_old_writer_on_mixed_steps(tmp_path,
                                                              rose2):
    f = rose_morphism(rose2, {"a": (1, 2), "b": (1,)})
    h = rose_morphism(rose2, {"a": (2,), "b": (2, 1)})
    for blocks in ((), (2, 4)):
        seq = FoldingSequence([f, f, h, f, h, h], direction="folding",
                              block_boundaries=blocks)
        new, old = (tmp_path / f"{side}{len(blocks)}"
                    for side in ("new", "old"))
        write_sequence(seq, str(new), "mix")
        _old_write_sequence(seq, str(old), "mix")
        assert _files_digest(new) == _files_digest(old)


# -- options that change a report -------------------------------------------


def _run(capsys, argv):
    capsys.readouterr()
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.mark.parametrize("steps", ["0", "1"])
def test_distance_bruteforce_below_the_candidates_exits_3(tmp_path, capsys,
                                                           rose2, steps):
    """``--bruteforce 0`` is a length like any other: too short to cover
    the candidate loops, so refused (exit 3), not skipped."""
    t, u = tmp_path / "t.graph", tmp_path / "u.graph"
    write_graph(marked(rose2, (Fraction(1, 2), Fraction(1, 2))), t)
    write_graph(marked(rose2, (Fraction(1, 3), Fraction(2, 3))), u)
    rc, out, err = _run(capsys, ["distance", str(t), str(u),
                                 "--bruteforce", steps])
    assert (rc, out) == (3, "")
    assert err == "budget: need max_len >= 4 to cover candidates\n"


@pytest.mark.parametrize("direction", ["unfolding", "folding"])
def test_cone_tol_is_the_library_tolerance(tmp_path, capsys, direction):
    seq_file = _gen(tmp_path, "fibonacci", "--steps", "12", "--direction",
                    direction)
    rc, default, _ = _run(capsys, ["cone", seq_file, "--depth", "8"])
    assert rc == 0
    rc, out, _ = _run(capsys, ["cone", seq_file, "--depth", "8",
                               "--tol", "0.01"])
    assert rc == 0
    seq = io_formats.parse_sequence(seq_file)
    build = current_cone if direction == "unfolding" else length_cone
    cone = build(seq, 8, tol=0.01)
    assert out == dumps_json({"cone": cone,
                              "verdict": ergodicity_verdict(cone, tol=0.01)})
    assert out != default
    assert json.loads(out)["verdict"]["kind"] == "unique"
    assert hashlib.sha256(out.encode()).hexdigest() == \
        _TOL_DIGESTS[direction]


# the --tol 0.01 reports above, taken while --tol was a bare float
_TOL_DIGESTS = {
    "unfolding":
        "c541681780c5f2b3d2f6a1a4d7bcc6143fa45f2d12f89795eefcc433aedf75da",
    "folding":
        "e32e7690eb131d3f098ac449d13f956f8f6e85aa686c4303533b92cabd800a23",
}


@pytest.mark.parametrize("value", ["nan", "NaN", "-1", "-1e-9", "inf",
                                   "-inf", "Infinity", "abc", ""])
def test_cone_bad_tolerances_exit_2(tmp_path, capsys, value):
    """NaN, an infinity or a negative tolerance is refused before any work,
    as a bad rational is."""
    seq_file = _gen(tmp_path, "fibonacci", "--steps", "12")
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["cone", seq_file, "--depth", "8", f"--tol={value}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"not a finite nonnegative tolerance: {value!r}" in captured.err


def test_cone_zero_tolerance_is_allowed(tmp_path, capsys):
    seq_file = _gen(tmp_path, "fibonacci", "--steps", "12")
    rc, out, _ = _run(capsys, ["cone", seq_file, "--depth", "8",
                               "--tol", "0"])
    assert rc == 0
    assert json.loads(out)["cone"]["tol"] == 0.0


def _library_decompose(seq_file, window_text, eps, pinch_tol):
    """The ``decompose`` report with all-ones seeds, from library calls."""
    seq = io_formats.parse_sequence(seq_file)
    n0, n1 = map(int, window_text.split(":"))
    window = seq._levels_between(n0, n1)
    if seq.direction == "folding":
        ones = [1] * seq.graph_at(seq.levels[-1]).n_edges
        decomp = transverse_decomposition_folding(
            seq, [length_track_from_terminal(seq, ones)], window,
            eps_rel=eps)
        return {"decomposition": decomp}
    lam = simplicial_length_measure(seq)
    ones = [1] * seq.graph_at(seq.levels[0]).n_edges
    decomp = transverse_decomposition_unfolding(
        seq, [current_track_from_initial(seq, ones)], window, eps_rel=eps)
    mw = moduli_window(seq, lam, window, pinch_tol)
    return {"decomposition": decomp,
            "pinched": sorted(mw.pinched_edges),
            "recurrence": recurrence_check(seq, lam, [window],
                                           pinch_tol=pinch_tol),
            "sanity": structural_sanity(decomp, mw.graph, mw.pinched_edges)}


@pytest.mark.parametrize("direction", ["unfolding", "folding"])
@pytest.mark.parametrize("option,value", [("--eps", "1/10"),
                                          ("--pinch-tol", "1/2")])
def test_decompose_options_are_the_library_values(tmp_path, capsys,
                                                  direction, option, value):
    """Each option reaches the report as the library value; a pinch
    tolerance on a folding sequence, which has no moduli window to read
    it, is refused (exit 2) rather than ignored."""
    seq_file = _gen(tmp_path, "alternating_block", "--rank", "4",
                    "--schedule", "3,3,3", "--direction", direction)
    window = "-9:0" if direction == "unfolding" else "0:9"
    rc, default, _ = _run(capsys, ["decompose", seq_file,
                                   f"--window={window}"])
    assert rc == 0
    rc, out, err = _run(capsys, ["decompose", seq_file,
                                 f"--window={window}", option, value])
    if option == "--pinch-tol" and direction == "folding":
        assert (rc, out) == (2, "")
        assert err.startswith("error: --pinch-tol applies to unfolding")
        return
    assert rc == 0
    eps = Fraction(value) if option == "--eps" else Fraction(1, 1000)
    pinch_tol = Fraction(value) if option == "--pinch-tol" else None
    assert out == dumps_json(_library_decompose(seq_file, window, eps,
                                                pinch_tol))
    assert out != default
    if option == "--pinch-tol":
        assert hashlib.sha256(out.encode()).hexdigest() == \
            UNFOLDING_PINCH_TOL_DIGEST


# ``decompose --window=-9:0 --pinch-tol 1/2`` on the rank-4 unfolding blocks
# (schedule 3,3,3), taken before the option was refused on folding input
UNFOLDING_PINCH_TOL_DIGEST = (
    "460ecd35d09a2cac3c229ef954f20f93b3eca1302812cd480e5feab41b400453")


@pytest.mark.parametrize("value", ["1/2", "0", "1/2000"])
def test_decompose_pinch_tol_on_a_folding_sequence_exits_2(tmp_path, capsys,
                                                           value):
    """``--pinch-tol`` names the option in a typed error on a folding
    sequence (Fibonacci here), whatever the value, and writes nothing."""
    seq_file = _gen(tmp_path, "fibonacci", "--steps", "12", "--direction",
                    "folding")
    rc, out, err = _run(capsys, ["decompose", seq_file, "--window=0:6",
                                 "--pinch-tol", value])
    assert (rc, out) == (2, "")
    assert err == (f"error: --pinch-tol applies to unfolding sequences "
                   f"only; {seq_file} is a folding sequence\n")
    rc, out, _ = _run(capsys, ["decompose", seq_file, "--window=0:6"])
    assert rc == 0 and json.loads(out)["decomposition"]


@pytest.mark.parametrize("option,value", [("--eps", "abc"),
                                          ("--pinch-tol", "1/0"),
                                          ("--eps", "1/0")])
def test_decompose_bad_rationals_exit_2(tmp_path, capsys, option, value):
    seq_file = _gen(tmp_path, "alternating_block", "--rank", "4",
                    "--schedule", "3,3,3")
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["decompose", seq_file, "--window=-9:0", option, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"not a rational: {value!r}" in captured.err


@pytest.mark.parametrize("levels", ["5:2", "0:-1", "3:1:2"])
def test_progress_reversed_levels_exit_2(tmp_path, capsys, levels):
    """``--levels n0:n1`` with n1 < n0 names no level; it is refused, as
    ``--window`` refuses n1 <= n0, where it wrote an empty report."""
    seq_file = _gen(tmp_path, "fibonacci", "--steps", "12", "--direction",
                    "folding")
    rc, out, err = _run(capsys, ["progress", seq_file, "--levels", levels])
    assert (rc, out) == (2, "")
    assert err == "error: levels must satisfy n0 <= n1\n"


def test_progress_one_level_and_stride_messages(tmp_path, capsys):
    seq_file = _gen(tmp_path, "fibonacci", "--steps", "12", "--direction",
                    "folding")
    rc, out, _ = _run(capsys, ["progress", seq_file, "--levels", "3:3"])
    assert rc == 0
    assert json.loads(out)["progress"]["levels"] == [3]
    # a bad stride is still named first on a reversed range
    rc, out, err = _run(capsys, ["progress", seq_file, "--levels", "5:2:0"])
    assert (rc, out, err) == (2, "", "error: stride must be >= 1\n")


@pytest.mark.parametrize("value,message", [
    ("-1", "not a nonnegative rational: '-1'"),
    ("-1/3", "not a nonnegative rational: '-1/3'"),
    ("x", "not a rational: 'x'")])
def test_decompose_negative_eps_exits_2(tmp_path, capsys, value, message):
    """A negative threshold makes the gate vacuous; it is refused before
    any work, as a negative ``cone --tol`` is."""
    seq_file = _gen(tmp_path, "alternating_block", "--rank", "4",
                    "--schedule", "3,3,3")
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["decompose", seq_file, "--window=-9:0", f"--eps={value}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"argument --eps: {message}\n")


def test_decompose_zero_eps_is_allowed(tmp_path, capsys):
    seq_file = _gen(tmp_path, "alternating_block", "--rank", "4",
                    "--schedule", "3,3,3")
    rc, out, _ = _run(capsys, ["decompose", seq_file, "--window=-9:0",
                               "--eps", "0"])
    assert rc == 0
    assert out == dumps_json(_library_decompose(seq_file, "-9:0",
                                                Fraction(0), None))

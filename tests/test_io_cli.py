"""File formats and the command-line interface."""

import hashlib
import json
import os
import sys
from fractions import Fraction
from functools import partial

import pytest

from foldspace import cli, morphisms
from foldspace.cli import main
from foldspace.errors import FormatError
from foldspace.examples import fibonacci_step
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
from foldspace.sequences import FoldingSequence

from conftest import marked, rose_morphism


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

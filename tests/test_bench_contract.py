"""The benchmark's traced runs patch names of the package by string: every
``cli`` global it wraps or keeps results of, and every ``FoldingSequence``
method it wraps, must exist, or a traced run fails with an
``AttributeError`` that only a benchmark run would show.  The span tables
are read from ``perfbench/traced.py`` without importing it as a module, so
no file is written next to it."""

import os
import runpy

import pytest

from foldspace import cli
from foldspace.sequences import FoldingSequence

_TRACED = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "traced.py")


@pytest.fixture(scope="module")
def traced():
    return runpy.run_path(_TRACED)


@pytest.mark.parametrize("table", ["CLI_SPANS", "FACTS"])
def test_traced_cli_names_are_cli_globals(traced, table):
    names = sorted(traced[table])
    assert names
    assert [n for n in names if not callable(getattr(cli, n, None))] == []


def test_traced_methods_are_sequence_methods(traced):
    names = sorted(traced["METHOD_SPANS"])
    assert names
    assert [n for n in names
            if not callable(getattr(FoldingSequence, n, None))] == []


def test_facts_are_traced_spans(traced):
    assert set(traced["FACTS"]) <= set(traced["CLI_SPANS"])
